"""Exact integer linear algebra.

Integer matrices, held as the nonzeros of each row, and the rank and
elementary divisors of one (``smith_normal_form``), without transformation
matrices (Dumas-Saunders-Villard 2001, "On efficient sparse integer matrix
Smith normal form computations"; Cohen, *A Course in Computational
Algebraic Number Theory*, section 2.4.3), in three steps:

1. on the matrix's nonzero rows, kept once up to sign by its constructor,
   eliminate +-1 pivots in Markowitz order (least (row nnz - 1) *
   (col nnz - 1) first), each adding one divisor equal to 1;
2. find the rank r of the remaining core and D = |det| of a nonsingular
   r x r minor by one fraction-free (Bareiss) elimination, whose working
   entries are minors of the core;
3. diagonalize the core modulo 2D.  With L the core's row lattice in Z^c,
   Z^c / (L + 2D Z^c) is the sum of the Z/d_i and of c - r copies of Z/2D.
   Every d_i divides D, so the core's divisors other than 1 are the
   summands strictly between 1 and 2D.  While a pivot's column is zero
   below it, an exact column step changes the pivot row alone, and writes
   only its entry.

No working entry of step 3 exceeds 2D, and none of step 2 exceeds the
largest minor of the core, where a transform-carrying elimination lets
entries grow without bound.  A ``SmithDecomposition`` computes its
unimodular transforms only when read, by that elimination on M bordered by
two identity blocks, in ``zerocycle._transforms``, imported on first use.
The package does no dense matrix arithmetic; all arithmetic uses Python's
arbitrary-precision integers, because entries routinely outgrow any fixed
word size.

A matrix owns the fact M v = 0, which makes Q/Z -> (Q/Z)^a -> (Q/Z)^b a
complex: ``IntegerMatrix.annihilates`` is the one place that checks it, and
it records each v it proves on M; the elimination never reads the record.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import chain, compress
from math import gcd
from operator import mul

from ._record import Record
from .errors import InternalComplexViolation


def exact_ints(values: Iterable, what: str) -> tuple[int, ...]:
    """``values`` as a tuple of exact ints, or a ValueError naming the first
    entry that is not one: floats, strings, bool and other int subclasses
    are rejected, never converted."""
    values = tuple(values)
    if not set(map(type, values)) <= {int}:
        bad = next(x for x in values if type(x) is not int)
        raise ValueError(f"{what} must be integers, got {bad!r}")
    return values


class IntegerMatrix(Record):
    """Immutable integer matrix held as sparse rows: ``sparse_rows[i]`` maps
    each column where row i is nonzero to its entry, and holds no zero.
    Zero rows/cols are legal (they arise from components that declare no
    curves).  One row dict may be listed more than once (M lists equal
    curves of a component as one shared dict), so no stage writes to a row
    dict.  The constructor checks each nonzero row dict once, and keeps as
    ``_nonzero_rows`` one row per value up to sign, the first listed: a row
    equal to an earlier one or to its negative adds nothing to the row
    lattice, which is all the rank, the divisors and M v = 0 depend on.  The
    unit elimination, ``annihilates`` and the oracle read those rows.
    ``_without_column`` derives M less one column, the homology's quotient
    by v, from those checked rows without the constructor; two of its rows
    may be equal up to sign, and both are kept, as they span the same
    lattice.  (For the homology's column p, where M v = 0 and v_p != 0, no
    two rows of M agree off p, so none become equal.)  The constructor
    keeps too the set of columns where some row is nonzero, ``_columns``,
    which the oracle, the homology and the unit elimination read, and
    ``_annihilated``, the vectors v (tuples of exact ints) that M v = 0 has
    been proved for.  ``annihilates`` is the one owner of that fact: the
    only code that sums M v for a check, and the only one that records v,
    once its sums pass, or reads the record; ``delta_matrix``, the complex
    check and the curve-degeneration validator all ask it.  None of the
    three is a field, so equality, hashing, ``__replace__`` and pickling ignore
    them, and a rebuilt matrix starts with an empty record (and rebuilds
    the other two).  ``rows`` is the number of sparse rows.  ``from_rows``
    builds one from dense rows (the Kodaira fixture's matrices and the SNF
    transforms).  The dense views ``entries`` (row-major) and ``to_rows``
    are built on read; the pipeline reads only the sparse rows."""

    __slots__ = ("sparse_rows", "cols", "__dict__")

    def __init__(self, sparse_rows: Iterable[dict[int, int]], cols: int):
        """Row i has the nonzero entries ``sparse_rows[i]``, a dict from
        column to value.  ``cols`` must be an exact int, each value a
        nonzero exact int and each column an int in range(cols).  The dicts
        are taken over, not copied; a dict listed more than once is checked
        once."""
        exact_ints((cols,), "matrix dimensions")
        if cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        object.__setattr__(self, "sparse_rows", tuple(sparse_rows))
        object.__setattr__(self, "cols", cols)
        distinct = tuple(filter(None, {id(row): row for row in self.sparse_rows}.values()))
        values = exact_ints(chain.from_iterable(map(dict.values, distinct)), "matrix entries")
        if not all(values):
            raise ValueError("sparse rows must not hold zero entries")
        columns = exact_ints(chain.from_iterable(distinct), "matrix columns")
        used = frozenset(columns)
        if used and (min(used) < 0 or max(used) >= cols):
            bad = next(j for j in columns if not 0 <= j < cols)
            raise ValueError(f"column {bad} is out of range for {cols} columns")
        kept: dict[tuple[tuple[int, int], ...], dict[int, int]] = {}
        for row in distinct:  # keyed by its entries in column order, the first made positive
            key = sorted(row.items())
            if key[0][1] < 0:
                key = [(j, -x) for j, x in key]
            kept.setdefault(tuple(key), row)
        self.__dict__.update(_nonzero_rows=tuple(kept.values()), _columns=used, _annihilated=set())

    def _without_column(self, p: int) -> "IntegerMatrix":
        """This matrix less column p, at the same width, derived from its
        checked rows without the constructor: each nonzero row that misses p
        is reused, each that meets p is copied without it, and a row left
        empty is dropped.  Every row is part of a row already checked, so
        nothing is checked again; the rows are both ``sparse_rows`` and
        ``_nonzero_rows``, and the record starts empty."""
        cut = ({j: x for j, x in r.items() if j != p} if p in r else r for r in self._nonzero_rows)
        rows = tuple(filter(None, cut))
        out = object.__new__(type(self))
        object.__setattr__(out, "sparse_rows", rows)
        object.__setattr__(out, "cols", self.cols)
        out.__dict__.update(_nonzero_rows=rows, _columns=self._columns - {p}, _annihilated=set())
        return out

    @property
    def rows(self) -> int:
        return len(self.sparse_rows)

    @classmethod
    def from_rows(cls, rows_data: Iterable[Sequence[int]], cols: int | None = None) -> "IntegerMatrix":
        """The matrix with the given dense rows; ``cols`` fixes the width
        when there are no rows.  Every entry, zero or not, must be an exact
        int."""
        rows_list = [tuple(r) for r in rows_data]
        if rows_list:
            width = len(rows_list[0])
            if any(len(r) != width for r in rows_list):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("cols does not match row width")
            cols = width
        elif cols is None:
            cols = 0
        exact_ints(chain.from_iterable(rows_list), "matrix entries")
        return cls(({j: row[j] for j in compress(range(cols), row)} for row in rows_list), cols)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(frozenset(r.items()) for r in self.sparse_rows)))

    def _dense(self, sparse_row: dict[int, int]) -> list[int]:
        out = [0] * self.cols
        for j, x in sparse_row.items():
            out[j] = x
        return out

    @property
    def entries(self) -> tuple[int, ...]:
        return tuple(chain.from_iterable(map(self._dense, self.sparse_rows)))

    def to_rows(self) -> list[list[int]]:
        return list(map(self._dense, self.sparse_rows))

    def mul_vector(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        at = vec.__getitem__
        return tuple(sum(map(mul, row.values(), map(at, row))) for row in self.sparse_rows)

    def annihilates(self, v: Sequence[int]) -> bool:
        """Whether M v = 0, for v a sequence of exact ints of M's width:
        True from the record, or else from one sum per distinct nonzero row,
        after which v is recorded, as a tuple, only if every sum is 0.  A v
        with an entry that is not an exact int (``exact_ints``' ValueError)
        or of another length is refused before the record or any row is
        read."""
        v = exact_ints(v, "vector entries")
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        known = self._annihilated
        if v not in known:
            at = v.__getitem__
            if any(sum(map(mul, row.values(), map(at, row))) for row in self._nonzero_rows):
                return False
            known.add(v)
        return True

    def is_symmetric(self) -> bool:
        # each nonzero must meet its mirror image; zeros then mirror zeros
        rows = self.sparse_rows
        return self.rows == self.cols and all(
            rows[j].get(i) == x for i, row in enumerate(rows) for j, x in row.items()
        )


class SmithDecomposition(Record):
    """Rank and elementary divisors d_1, ..., d_r of a matrix M, with d_k > 0
    and d_k | d_{k+1}; the divisors are canonical.

    ``U`` and ``V`` are unimodular with U @ M @ V = diag(elementary_divisors),
    padded with zeros to the shape of M.  They are merely some valid choice,
    computed on first read by a separate elimination on the bordered matrix
    [[M, I], [I, 0]], whose row and column operations carry U and V along
    with M and whose entries can grow far beyond those of M; the pipeline
    never reads them.  Equality, hashing and the repr do not see
    ``matrix``."""

    __slots__ = ("rank", "elementary_divisors", "matrix", "__dict__")
    _compared = ("rank", "elementary_divisors")

    @cached_property
    def _transforms(self) -> tuple[IntegerMatrix, IntegerMatrix]:
        from ._transforms import smith_with_transforms  # loaded only when read

        u, v, _, _ = smith_with_transforms(self.matrix)
        return u, v

    @property
    def U(self) -> IntegerMatrix:
        return self._transforms[0]

    @property
    def V(self) -> IntegerMatrix:
        return self._transforms[1]


def smith_normal_form(m: IntegerMatrix) -> SmithDecomposition:
    """Rank and elementary divisors of m, by the three steps above; U and V
    are computed only when read."""
    units, core = _eliminate_units(m)
    core_rank, divisors = _core_divisors(core)
    rank = units + core_rank
    divisors = (1,) * (rank - len(divisors)) + divisors
    return SmithDecomposition(rank=rank, elementary_divisors=divisors, matrix=m)


def _eliminate_units(m: IntegerMatrix) -> tuple[int, list[list[int]]]:
    """Eliminate +-1 pivots on m's sparse rows; return their count and the
    rest of the matrix (its nonzero rows and columns) as a dense core.

    It reads m's nonzero rows as the constructor keeps them, one per value
    up to sign.  Subtracting or adding the kept row turns each repeat into a
    zero row by a unimodular row operation, so the kept rows span the same
    row lattice as m, and the rank and elementary divisors depend on m only
    through that lattice.  The rows of m are only read; the elimination
    works on copies.  A unit pivot clears its column by row operations and
    then its row by column operations that change nothing else, so the
    pivot splits off as one divisor 1 and the updated remaining rows carry
    all the others.  Once every column m meets holds a pivot the rest is
    zero, so the elimination stops at that pivot, with an empty core."""
    used = m._columns
    rows: list[dict[int, int] | None] = list(map(dict, m._nonzero_rows))
    col_rows: dict[int, set[int]] = {j: set() for j in used}
    for i, row in enumerate(rows):
        for j in row:
            col_rows[j].add(i)
    # a heap key packs (Markowitz cost, row, column) into the one int
    # (cost * nr + row) * nc + column, which sorts as the triple does
    nr, nc = len(rows), m.cols
    heap = []
    for i, row in enumerate(rows):
        n = (len(row) - 1) * nr
        heap += [(n * (len(col_rows[j]) - 1) + i) * nc + j for j, e in row.items() if e == 1 or e == -1]
    heapify(heap)
    units = 0
    while heap:
        rest, j = divmod(heappop(heap), nc)
        stale, i = divmod(rest, nr)
        pivot_row = rows[i]
        if pivot_row is None or (pivot := pivot_row.get(j)) not in (1, -1):
            continue
        if (now := (len(pivot_row) - 1) * (len(col_rows[j]) - 1)) > stale:
            heappush(heap, (now * nr + i) * nc + j)
            continue
        units += 1
        if units == len(used):
            return units, []
        rows[i] = None
        del pivot_row[j]
        for col in pivot_row:
            col_rows[col].discard(i)
        targets, col_rows[j] = col_rows[j], set()
        targets.discard(i)
        for k in targets:
            target = rows[k]
            f = target.pop(j) * pivot  # target[j] / pivot, as pivot is +-1
            new_units = []
            for col, e in pivot_row.items():
                if (x := target.get(col)) is None:
                    target[col] = x = -f * e
                    col_rows[col].add(k)
                elif x := x - f * e:
                    target[col] = x
                else:
                    del target[col]
                    col_rows[col].discard(k)
                    continue
                if x == 1 or x == -1:
                    new_units.append(col)
            n = (len(target) - 1) * nr
            for col in new_units:
                heappush(heap, (n * (len(col_rows[col]) - 1) + k) * nc + col)
    remaining = [row for row in rows if row]
    cols = sorted(j for j, owners in col_rows.items() if owners)
    return units, [[row.get(j, 0) for j in cols] for row in remaining]


def _core_divisors(a: list[list[int]]) -> tuple[int, tuple[int, ...]]:
    """Rank and elementary divisors other than 1 of the core a, whose rows
    and columns are nonzero."""
    if not a:
        return 0, ()
    rank, d = _rank_and_det(a)
    if d == 1:
        return rank, ()
    nr, nc = len(a), len(a[0])
    n = 2 * d
    chain = _divisor_chain([gcd(e, n) for e in _diagonal_mod(a, n)] + [n] * (nc - min(nr, nc)))
    divisors = tuple(s for s in chain if s < n)
    if len(chain) - len(divisors) != nc - rank:
        raise InternalComplexViolation(
            f"SNF modulo 2D disagrees with the rank: {len(chain) - len(divisors)} summands "
            f"equal 2D, expected {nc - rank}"
        )
    return rank, divisors


def _rank_and_det(a: list[list[int]]) -> tuple[int, int]:
    """The rank r of a and D = |det| of a nonsingular r x r minor, by one
    fraction-free elimination (Bareiss 1968).  Each step takes the first
    row that is still nonzero and its first nonzero entry as pivot, and
    drops that row and column.  After k steps every working entry is the
    determinant of a's (k + 1) x (k + 1) submatrix on the k pivot rows and
    columns and the entry's own row and column (Sylvester's identity), so
    each division is exact and the last pivot is the minor on all the pivot
    rows and columns."""
    work, rank, prev = [list(row) for row in a], 0, 1
    while work := [row for row in work if any(row)]:
        top = work.pop(0)
        j = next(j for j, x in enumerate(top) if x)
        pivot = top.pop(j)
        for row in work:
            f = row.pop(j)
            row[:] = [(x * pivot - f * y) // prev for x, y in zip(row, top)]
        rank, prev = rank + 1, pivot
    return rank, abs(prev)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x a + y b = g = gcd(a, b), for a, b >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _diagonal_mod(a: list[list[int]], n: int) -> list[int]:
    """Diagonalize a over Z/n by unimodular row and column operations on
    entries kept in [0, n); return the min(rows, cols) diagonal entries."""
    a = [[x % n for x in row] for row in a]
    nr, nc = len(a), len(a[0])
    for t in range(min(nr, nc)):
        while True:
            # fold column t into row t by gcd steps, then row t into column
            # t; a column step that is not an exact division shrinks the
            # pivot and may refill column t, hence the loop.  The exact
            # divisions are fast paths: _xgcd alone gives the same divisors,
            # but about 10-30% slower on the sparse spheres' cores
            for i in range(t + 1, nr):
                b, p = a[i][t], a[t][t]
                if not b:
                    continue
                top, row = a[t][t:], a[i][t:]
                if p and b % p == 0:
                    q = b // p
                    a[i][t:] = [(y - q * x) % n for x, y in zip(top, row)]
                else:
                    g, s, u = _xgcd(p, b)
                    pg, bg = p // g, b // g
                    a[t][t:] = [(s * x + u * y) % n for x, y in zip(top, row)]
                    a[i][t:] = [(pg * y - bg * x) % n for x, y in zip(top, row)]
            # the row phase leaves column t zero below the pivot, and while
            # it stays so an exact column step changes row t alone
            clear = True
            for j in range(t + 1, nc):
                b, p = a[t][j], a[t][t]
                if not b:
                    continue
                if p and b % p == 0:
                    if clear:
                        a[t][j] = 0
                        continue
                    q = b // p
                    for row in a[t:]:
                        row[j] = (row[j] - q * row[t]) % n
                else:
                    clear = False  # row[t] becomes u * row[j] below the pivot
                    g, s, u = _xgcd(p, b)
                    pg, bg = p // g, b // g
                    for row in a[t:]:
                        x, y = row[t], row[j]
                        row[t], row[j] = (s * x + u * y) % n, (pg * y - bg * x) % n
            if clear or not any(a[i][t] for i in range(t + 1, nr)):
                break
    return [a[t][t] for t in range(min(nr, nc))]


def _divisor_chain(orders: list[int]) -> list[int]:
    """Invariant factors d_1 | d_2 | ... of the sum of the Z/order."""
    d = list(orders)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return [x for x in d if x > 1]
