"""Shared test utilities.

The determinant, gcd-of-minors and local Smith form routines here are
deliberately independent of the package's elimination code: they are the
oracles the Smith normal form is checked against.  The unit elimination is
kept in its draining form as the reference for the one in
``zerocycle.linalg``, ``checked_quotient`` checks the one column
``qz_complex_homology`` drops from M, and ``derived_quotient`` checks the
matrix it derives against the one the constructor builds.  The sphere
test, the chain's path order and the type III consonance sweep are kept
here in their scanning form, as the references for the indexed versions in
``zerocycle.kulikov`` and ``zerocycle.consonance``, and the enumeration
oracle in its kernel-sweeping and quotient-sweeping forms, as the references
for the lifted sweep in ``zerocycle.oracle``, with the oracle's coordinate
order in its scanning form.  The fiber parser is kept in its single-stage
form, and the serializer as a hand-written mapping, as the references for
``zerocycle.fiber``.  The argparse-built command-line parser is kept as the
reference for the table-driven one in ``zerocycle.cli``.  Tests build small
matrices with the dense helpers ``zeros``, ``identity``, ``diagonal`` and
``matmul``, read the benchmark's families from ``generators``, build graph
fibers (whose H is a graph's critical group) with ``graph_document``, build
a surface's fiber from its curves and faces with ``surface_document``,
subdivide triangulated spheres with ``subdivide_sqrt3``, and blow up a point
of a double curve with ``blow_up_double_curve``, a change of regular model
that leaves H unchanged.  ``general_fiber_documents`` is a Hypothesis
strategy for random fibers with lattice ranks 1-3 and several curves per
component, and ``relabelled_document`` renames and reorders a document
without changing its fiber.
"""

from __future__ import annotations

import argparse
import copy
import importlib.util
import json
import re
import sys
from fractions import Fraction
from itertools import accumulate, chain, combinations
from math import gcd
from operator import mul
from pathlib import Path
from typing import Any, Sequence

from zerocycle import cli, oracle
from zerocycle.consonance import CertificateStep, ConsonanceCertificate
from zerocycle.errors import (
    MinusOneFormViolation,
    MissingCycleData,
    NoSeed,
    StateSpaceTooLarge,
    ValidationError,
    ZeroCycleError,
)
from zerocycle.fiber import (
    KINDS,
    Branch,
    ComponentData,
    DoubleCurve,
    SpecialFiber,
    TriplePoint,
    fiber_from_document,
    fiber_to_document,
)
from zerocycle.groups import _check_complex, _isprime
from zerocycle.kulikov import SphereCheck, minus_one_form_check
from zerocycle.linalg import IntegerMatrix, smith_normal_form
from zerocycle.oracle import BruteForceAnswer

# the benchmark's seeded generators, read from their file (bench/ is not a package)
_spec = importlib.util.spec_from_file_location(
    "generators", Path(__file__).resolve().parent.parent / "bench" / "generators.py"
)
generators = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generators)


def bareiss_det(rows: list[list[int]]) -> int:
    """Fraction-free Gaussian elimination; exact integer determinant."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot_row is None:
                return 0
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def minor_gcd(m: IntegerMatrix, k: int) -> int:
    """gcd of all k x k minors (0 if they all vanish)."""
    rows = m.to_rows()
    g = 0
    for rs in combinations(range(m.rows), k):
        for cs in combinations(range(m.cols), k):
            sub = [[rows[i][j] for j in cs] for i in rs]
            g = gcd(g, bareiss_det(sub))
            if g == 1:
                return 1
    return g


def divisors_from_minors(m: IntegerMatrix) -> tuple[int, ...]:
    """Elementary divisors as successive quotients of minor gcds."""
    out = []
    prev = 1
    for k in range(1, min(m.rows, m.cols) + 1):
        dk = minor_gcd(m, k)
        if dk == 0:
            break
        out.append(dk // prev)
        prev = dk
    return tuple(out)


def rational_rank(m: IntegerMatrix) -> int:
    """Row reduction over Fraction; independent of the integer elimination."""
    a = [[Fraction(x) for x in row] for row in m.to_rows()]
    rank = 0
    for col in range(m.cols):
        pivot = next((i for i in range(rank, m.rows) if a[i][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = 1 / a[rank][col]
        a[rank] = [x * inv for x in a[rank]]
        for i in range(m.rows):
            if i != rank and a[i][col]:
                factor = a[i][col]
                a[i] = [x - factor * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def local_smith(m: IntegerMatrix, ell: int, k: int) -> tuple[int, tuple[int, ...]]:
    """Smith form of m over Z/ell^k: the number of diagonal entries of
    ell-valuation below k, and the powers ell^v, 0 < v < k, among them,
    ascending.  Each step takes a pivot of least valuation; every entry of
    its row and column is then a multiple of it, so the row operations that
    clear its column leave a row that column operations clear without
    touching the rest.  When ell^k exceeds the ell-part of every nonzero
    elementary divisor of m, these are m's rank and those ell-parts."""
    q = ell**k

    def valuation(x: int) -> int:
        v = 0
        while x % ell == 0:
            x //= ell
            v += 1
        return v

    work = [[x % q for x in row] for row in m.to_rows()]
    rank, powers = 0, []
    while work := [row for row in work if any(row)]:
        units = ((i, j) for i, row in enumerate(work) for j, x in enumerate(row) if x % ell)
        i, j = next(units, None) or min(
            ((i, j) for i, row in enumerate(work) for j, x in enumerate(row) if x),
            key=lambda cell: valuation(work[cell[0]][cell[1]]),
        )
        top = work.pop(i)
        pivot = top.pop(j)
        v = valuation(pivot)
        inverse = pow(pivot // ell**v, -1, q)
        top = [x * inverse % q for x in top]
        for row in work:
            f = row.pop(j) // ell**v
            if f:
                row[:] = [(x - f * y) % q for x, y in zip(row, top)]
        rank += 1
        if v:
            powers.append(ell**v)
    return rank, tuple(sorted(powers))


def reference_eliminate_units(m: IntegerMatrix) -> tuple[int, list[list[int]]]:
    """The unit elimination in its draining form, as the reference for
    ``zerocycle.linalg._eliminate_units``: it keys m's distinct nonzero row
    objects itself, skips a row equal to an earlier one or to its negative,
    and pops the heap of +-1 entries, keyed by (Markowitz cost, row,
    column), until it is empty.  It returns the number of unit pivots and
    the rest as a dense core."""
    from heapq import heapify, heappop, heappush

    rows: list[dict[int, int] | None] = []
    seen: set[tuple[tuple[int, int], ...]] = set()
    for row in filter(None, {id(row): row for row in m.sparse_rows}.values()):
        key = tuple(sorted(row.items()))
        if key[0][1] < 0:
            key = tuple((j, -x) for j, x in key)
        if key not in seen:
            seen.add(key)
            rows.append(dict(row))
    col_rows: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for j in row:
            col_rows.setdefault(j, set()).add(i)

    def cost(i: int, j: int) -> int:
        return (len(rows[i]) - 1) * (len(col_rows[j]) - 1)

    heap = [(cost(i, j), i, j) for i, row in enumerate(rows) for j, e in row.items() if e in (1, -1)]
    heapify(heap)
    units = 0
    while heap:
        stale, i, j = heappop(heap)
        pivot_row = rows[i]
        if pivot_row is None or pivot_row.get(j) not in (1, -1):
            continue
        if (now := cost(i, j)) > stale:
            heappush(heap, (now, i, j))
            continue
        units += 1
        rows[i] = None
        for col in pivot_row:
            col_rows[col].discard(i)
        pivot = pivot_row[j]
        for k in list(col_rows[j]):
            target = rows[k]
            f = target[j] * pivot
            new_units = []
            for col, e in pivot_row.items():
                x = target.get(col, 0) - f * e
                if x:
                    if col not in target:
                        col_rows[col].add(k)
                    target[col] = x
                    if x in (1, -1):
                        new_units.append(col)
                else:
                    del target[col]
                    col_rows[col].discard(k)
            for col in new_units:
                heappush(heap, (cost(k, col), k, col))
    remaining = [row for row in rows if row]
    cols = sorted(j for j, owners in col_rows.items() if owners)
    return units, [[row.get(j, 0) for j in cols] for row in remaining]


def checked_quotient(v: Sequence[int], m: IntegerMatrix) -> IntegerMatrix:
    """The matrix whose Smith normal form ``qz_complex_homology(v, m)``
    takes, once it is checked to be m less one zero summand: where v is
    +-gcd(v) on some column m meets, it is m with one such column dropped,
    at m's width, and has m's rank and elementary divisors; elsewhere it is
    m itself."""
    from zerocycle import groups

    taken = []
    original = groups.smith_normal_form
    groups.smith_normal_form = lambda a: taken.append(a) or original(a)
    try:
        groups.qz_complex_homology(v, m)
    finally:
        groups.smith_normal_form = original
    (quotient,) = taken
    g = gcd(*v)
    if not any(abs(v[j]) == g for j in m._columns):
        assert quotient is m
        return quotient
    (p,) = m._columns - quotient._columns
    assert abs(v[p]) == g and quotient._columns == m._columns - {p} and quotient.cols == m.cols
    full, less = original(m), original(quotient)
    assert (less.rank, less.elementary_divisors) == (full.rank, full.elementary_divisors)
    return quotient


def derived_quotient(v: Sequence[int], m: IntegerMatrix) -> IntegerMatrix:
    """``checked_quotient(v, m)``, once a dropped column's quotient is also
    checked against the one the constructor builds: its rows are m's
    nonzero rows less that column, those that miss it the same dicts, none
    empty; it has no record; and its rank and divisors are those of the
    constructed matrix."""
    quotient = checked_quotient(v, m)
    if quotient is m:
        return quotient
    (p,) = m._columns - quotient._columns
    cut = [{j: x for j, x in row.items() if j != p} if p in row else row for row in m._nonzero_rows]
    assert quotient.sparse_rows is quotient._nonzero_rows and quotient._annihilated == set()
    kept = [(row, less) for row, less in zip(m._nonzero_rows, cut) if less]
    assert list(quotient.sparse_rows) == [less for _, less in kept]
    assert all(got is row for got, (row, _) in zip(quotient.sparse_rows, kept) if p not in row)
    built, derived = smith_normal_form(IntegerMatrix(cut, m.cols)), smith_normal_form(quotient)
    assert (derived.rank, derived.elementary_divisors) == (built.rank, built.elementary_divisors)
    return quotient


def reference_diagonal_mod(a: list[list[int]], n: int) -> list[int]:
    """``zerocycle.linalg._diagonal_mod`` as it was before its exact column
    steps learnt to write the pivot row alone: every column step walks
    every row from the pivot's down, and the loop over a pivot ends only
    when a scan finds column t zero below it.  The same operations on the
    same entries, so the same diagonal, entry for entry."""
    from zerocycle.linalg import _xgcd

    a = [[x % n for x in row] for row in a]
    nr, nc = len(a), len(a[0])
    for t in range(min(nr, nc)):
        while True:
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
            for j in range(t + 1, nc):
                b, p = a[t][j], a[t][t]
                if not b:
                    continue
                if p and b % p == 0:
                    q = b // p
                    for row in a[t:]:
                        row[j] = (row[j] - q * row[t]) % n
                else:
                    g, s, u = _xgcd(p, b)
                    pg, bg = p // g, b // g
                    for row in a[t:]:
                        x, y = row[t], row[j]
                        row[t], row[j] = (s * x + u * y) % n, (pg * y - bg * x) % n
            if not any(a[i][t] for i in range(t + 1, nr)):
                break
    return [a[t][t] for t in range(min(nr, nc))]


def zeros(rows: int, cols: int) -> IntegerMatrix:
    return IntegerMatrix.from_rows([[0] * cols for _ in range(rows)], cols=cols)


def identity(n: int) -> IntegerMatrix:
    return diagonal([1] * n)


def diagonal(diag: Sequence[int], rows: int | None = None, cols: int | None = None) -> IntegerMatrix:
    """diag(d_1, ..., d_n), padded with zeros to rows x cols."""
    n = len(diag)
    rows = n if rows is None else rows
    cols = n if cols is None else cols
    assert rows >= n and cols >= n, "diagonal longer than matrix"
    return IntegerMatrix.from_rows(
        [[diag[i] if i == j < n else 0 for j in range(cols)] for i in range(rows)], cols=cols
    )


def matmul(first: IntegerMatrix, *rest: IntegerMatrix) -> IntegerMatrix:
    """The product first @ rest[0] @ ..., by the textbook dense sum."""
    out = first
    for other in rest:
        assert out.cols == other.rows, "dimension mismatch in matrix product"
        b = other.to_rows()
        columns = [[r[j] for r in b] for j in range(other.cols)]
        out = IntegerMatrix.from_rows(
            [[sum(map(mul, row, col)) for col in columns] for row in out.to_rows()], cols=other.cols
        )
    return out


def random_matrix(rng, rows: int, cols: int, lo: int = -9, hi: int = 9) -> IntegerMatrix:
    return IntegerMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)], cols=cols
    )


def random_unimodular(rng, n: int, steps: int = 12) -> tuple[IntegerMatrix, IntegerMatrix]:
    """A random unimodular T together with its exact inverse, built as a
    product of elementary operations (tracked pair-wise, so no inversion)."""
    t = identity(n).to_rows()
    tinv = identity(n).to_rows()
    for _ in range(steps):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:
            c = rng.randint(-2, 2)
            for k in range(n):  # T <- E T, Tinv <- Tinv E^-1
                t[i][k] += c * t[j][k]
            for k in range(n):
                tinv[k][j] -= c * tinv[k][i]
        elif kind == 1 and i != j:
            t[i], t[j] = t[j], t[i]
            for row in tinv:
                row[i], row[j] = row[j], row[i]
        elif kind == 2:
            t[i] = [-x for x in t[i]]
            for row in tinv:
                row[i] = -row[i]
    return IntegerMatrix.from_rows(t, cols=n), IntegerMatrix.from_rows(tinv, cols=n)


def _matvec(rows: list[list[int]], vec: list[int]) -> list[int]:
    return [sum(r[k] * vec[k] for k in range(len(vec))) for r in rows]


def transform_component_basis(doc: dict, comp_index: int, t: IntegerMatrix, tinv: IntegerMatrix) -> dict:
    """Apply a unimodular change of basis to one component's lattice inside a
    fiber document: vectors map through T, the pairing through Tinv^T G Tinv,
    so all intersection numbers are preserved."""
    import copy

    doc = copy.deepcopy(doc)
    comp = doc["components"][comp_index]
    cid = comp["id"]
    t_rows = t.to_rows()
    gram = IntegerMatrix.from_rows(comp["gram"], cols=comp["lattice_rank"])
    tinv_transposed = IntegerMatrix.from_rows(zip(*tinv.to_rows()), cols=tinv.rows)
    new_gram = matmul(tinv_transposed, gram, tinv)
    comp["gram"] = new_gram.to_rows()
    comp["curves"] = [_matvec(t_rows, list(v)) for v in comp["curves"]]
    for edge in doc["double_curves"]:
        if edge["left"] == cid:
            edge["class_in_left"] = _matvec(t_rows, list(edge["class_in_left"]))
        if edge["right"] == cid:
            edge["class_in_right"] = _matvec(t_rows, list(edge["class_in_right"]))
    return doc


def dense_delta_matrix(fiber) -> IntegerMatrix:
    """The curve-pairing matrix M assembled densely, without the fiber's
    index: the double curves between each pair of components are found by
    scanning them all, and each entry is the full triple sum
    sum_xy curve_x G_xy c_ij[y].  The reference for the sparse assembly."""
    comps = fiber.components
    n = len(comps)
    rows = []
    for i, comp in enumerate(comps):
        rank = comp.lattice_rank
        columns = []
        weighted = [0] * rank
        for other in comps:
            total = [0] * rank
            if other.id != comp.id:
                for d in fiber.double_curves:
                    if {d.left, d.right} == {comp.id, other.id}:
                        cls = d.class_in_left if d.left == comp.id else d.class_in_right
                        total = [t + c for t, c in zip(total, cls)]
                weighted = [w + other.multiplicity * t for w, t in zip(weighted, total)]
            columns.append(total)
        assert all(w % comp.multiplicity == 0 for w in weighted)
        columns[i] = [-(w // comp.multiplicity) for w in weighted]
        for curve in comp.curves:
            rows.append([
                sum(
                    curve[x] * comp.gram[x][y] * columns[j][y]
                    for x in range(rank)
                    for y in range(rank)
                )
                for j in range(n)
            ])
    return IntegerMatrix.from_rows(rows, cols=n)


#: faces of the base polyhedra of the geodesic spheres
_BASE_FACES = {
    "oct": [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)],
    "ico": (
        [(0, 1 + i, 1 + (i + 1) % 5) for i in range(5)]
        + [(1 + i, 1 + (i + 1) % 5, 6 + i) for i in range(5)]
        + [(1 + (i + 1) % 5, 6 + i, 6 + (i + 1) % 5) for i in range(5)]
        + [(11, 6 + i, 6 + (i + 1) % 5) for i in range(5)]
    ),
}


def geodesic_laplacian(base: str, k: int) -> IntegerMatrix:
    """Graph Laplacian of the frequency-k subdivision of an octahedron or
    icosahedron: the curve-pairing matrix of a sphere of rank-1 components,
    up to sign.  A point is named by its barycentric weights on the base
    vertices, so points on a shared base edge are one vertex."""
    names: dict[tuple, int] = {}
    edges = set()
    for face in _BASE_FACES[base]:
        def point(i: int, j: int) -> int:
            weights = zip(face, (k - i - j, i, j))
            return names.setdefault(tuple(sorted((v, w) for v, w in weights if w)), len(names))

        for i in range(k):
            for j in range(k - i):
                a, b, c = point(i, j), point(i + 1, j), point(i, j + 1)
                edges |= {frozenset((a, b)), frozenset((a, c)), frozenset((b, c))}
    n = len(names)
    lap = [[0] * n for _ in range(n)]
    for a, b in map(tuple, edges):
        lap[a][a] += 1
        lap[b][b] += 1
        lap[a][b] = lap[b][a] = -1
    return IntegerMatrix.from_rows(lap, cols=n)


def subdivide_sqrt3(n: int, triangles: list) -> tuple[int, list[tuple[int, int, int]]]:
    """One step of Kobbelt's sqrt(3)-subdivision of a closed triangulated
    surface: vertex n + k inside triangle k, and each old edge flipped to join
    the new vertices of its two triangles.  Degrees stay as they were on the
    old vertices and are 6 on the new ones."""
    faces: dict[tuple[int, int], list[int]] = {}
    for k, t in enumerate(triangles):
        for edge in combinations(sorted(t), 2):
            faces.setdefault(edge, []).append(n + k)
    return n + len(triangles), [(v, x, y) for (a, b), (x, y) in faces.items() for v in (a, b)]


def graph_document(n: int, edges, multiplicities=None) -> dict:
    """The graph fiber: component ``V<i>`` per vertex, with gram [[-1]], the
    one curve [1] and multiplicity m_i (default 1), and one double curve per
    edge with class [1] on both sides, so M has -1 per edge and
    (sum of the neighbours' m_j) / m_i on the diagonal.  With every m_i = 1
    that is the graph's Laplacian, and H is its critical group; with an
    extended Dynkin diagram and its null vector, the extended Cartan matrix,
    and H is the component group of the Neron model."""
    mult = multiplicities or [1] * n
    return {
        "name": "graph",
        "h1_geometric_vanishes": True,
        "components": [
            {"id": f"V{i}", "multiplicity": mult[i], "lattice_rank": 1, "gram": [[-1]],
             "curves": [[1]], "kind": "rational"}
            for i in range(n)
        ],
        "double_curves": [
            {"label": f"E{k}", "left": f"V{a}", "right": f"V{b}", "class_in_left": [1], "class_in_right": [1]}
            for k, (a, b) in enumerate(edges)
        ],
        "triple_points": [],
    }


def general_fiber_documents():
    """A Hypothesis strategy for random general fibers: a random spanning
    tree on 2 to 7 components ``G<i>`` plus up to as many extra double
    curves (parallel ones too), lattice ranks 1-3, symmetric Gram entries
    in [-3, 3], 1-3 curves per component drawn from 1-3
    classes with entries in [-2, 2], so equal curves repeat and M shares
    their row dict, and double-curve classes with entries in [-2, 2], not
    all zero (the parser refuses a zero class); multiplicities 1-3, in
    about half the draws one shared by every component, so a prime can
    divide gcd(v); kind ``other``, no boundary cycles and no triple points.
    A component of multiplicity m > 1 needs m to divide its weighted class
    sum for an integral diagonal, so one incident class whose far side's
    multiplicity is prime to m is shifted by at most 1 per entry to make it
    so (with none, m already divides the sum).  H is often non-cyclic and
    the SNF core sparse.  Hypothesis is imported only when the strategy is
    built."""
    from hypothesis import strategies as st

    def vectors(rank: int, bound: int):
        return st.lists(st.integers(-bound, bound), min_size=rank, max_size=rank)

    @st.composite
    def documents(draw):
        n = draw(st.integers(2, 7))
        ranks = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        mults = draw(st.lists(st.sampled_from((1, 2, 3)), min_size=n, max_size=n))
        if draw(st.booleans()):
            mults = [mults[0]] * n
        components = []
        for i, r in enumerate(ranks):
            upper = [draw(vectors(r - a, 3)) for a in range(r)]
            gram = [[upper[min(a, b)][abs(a - b)] for b in range(r)] for a in range(r)]
            pool = draw(st.lists(vectors(r, 2), min_size=1, max_size=3))
            curves = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
            components.append({"id": f"G{i}", "multiplicity": mults[i], "lattice_rank": r, "gram": gram,
                               "curves": curves, "kind": "other"})
        edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
        for _ in range(draw(st.integers(0, n))):
            i = draw(st.integers(0, n - 1))
            edges.append((i, (i + draw(st.integers(1, n - 1))) % n))
        curves = [
            {"label": f"E{k}", "left": f"G{a}", "right": f"G{b}",
             "class_in_left": draw(vectors(ranks[a], 2).filter(any)),
             "class_in_right": draw(vectors(ranks[b], 2).filter(any))}
            for k, (a, b) in enumerate(edges)
        ]
        ends = [[] for _ in range(n)]  # per component: (its class on each incident curve, far side)
        for d, (a, b) in zip(curves, edges):
            ends[a].append((d["class_in_left"], b))
            ends[b].append((d["class_in_right"], a))
        for i, m in enumerate(mults):
            movable = [(cls, mults[j]) for cls, j in ends[i] if mults[j] % m]
            if m > 1 and movable:
                cls, far = movable[0]
                inverse = pow(far, -1, m)
                for x in range(ranks[i]):
                    weighted = sum(mults[j] * c[x] for c, j in ends[i])
                    cls[x] += (-weighted * inverse + 1) % m - 1  # a shift in [-1, 1]
                if not any(cls):
                    cls[0] = m
        return {"name": "general", "h1_geometric_vanishes": True, "components": components,
                "double_curves": curves, "triple_points": []}

    return documents()


def relabelled_document(doc: dict, rng) -> dict:
    """doc with its component ids and double-curve labels renamed at random,
    and its components, curves, double curves and each curve's two sides in
    shuffled order: the same fiber, so the same report."""
    doc = copy.deepcopy(doc)
    ids = {c["id"]: f"R{k}" for k, c in enumerate(rng.sample(doc["components"], len(doc["components"])))}
    for c in doc["components"]:
        c["id"] = ids[c["id"]]
        rng.shuffle(c["curves"])
    rng.shuffle(doc["components"])
    for k, d in enumerate(rng.sample(doc["double_curves"], len(doc["double_curves"]))):
        d["label"], d["left"], d["right"] = f"L{k}", ids[d["left"]], ids[d["right"]]
        if rng.random() < 0.5:
            d["left"], d["right"] = d["right"], d["left"]
            d["class_in_left"], d["class_in_right"] = d["class_in_right"], d["class_in_left"]
    rng.shuffle(doc["double_curves"])
    return doc


def invariant_factors(orders) -> tuple[int, ...]:
    """The divisor chain d_1 | d_2 | ... (each above 1) of the sum of the
    cyclic groups Z/order, through the primary decomposition: the k-th
    largest d_i is the product, over the primes, of the k-th largest power
    of that prime among the orders.  Trial division, so for small orders;
    independent of ``linalg._divisor_chain``, which merges summands
    pairwise by gcds."""
    powers: dict[int, list[int]] = {}
    for n in orders:
        p = 2
        while n > 1:
            if p * p > n:
                p = n
            q = 1
            while n % p == 0:
                n, q = n // p, q * p
            if q > 1:
                powers.setdefault(p, []).append(q)
            p += 1
    chain = [1] * max(map(len, powers.values()), default=0)
    for qs in powers.values():
        for k, q in enumerate(sorted(qs, reverse=True)):
            chain[k] *= q
    return tuple(reversed(chain))


def curve_by_label(fiber, label: str):
    """The fiber's first double curve with this label."""
    return next(d for d in fiber.double_curves if d.label == label)


def triangulated_fiber(triangles, extra_edges=()):
    """A fiber whose dual complex has the given triangles as faces: one
    rank-1 rational component per vertex, one double curve per edge, labelled
    by its two vertex names in sorted order, one triple point per triangle."""
    return fiber_from_document(triangulated_document(triangles, extra_edges))


def triangulated_document(triangles, extra_edges=()):
    """The fiber document ``triangulated_fiber`` parses."""
    pairs = {tuple(sorted(p)) for t in triangles for p in combinations(t, 2)}
    pairs |= {tuple(sorted(e)) for e in extra_edges}
    faces = [(t, ["".join(sorted(p)) for p in combinations(t, 2)]) for t in triangles]
    return surface_document({a + b: (a, b) for a, b in sorted(pairs)}, faces)


def surface_document(curves: dict[str, tuple[str, str]], faces) -> dict:
    """A fiber document with one rank-1 rational component per vertex, a
    double curve per entry of ``curves`` (label to its two sides) and a
    triple point per face (its corners and its curves' labels): M is the
    Laplacian of the curves' graph."""
    return {
        "name": "triangulated",
        "h1_geometric_vanishes": True,
        "components": [
            {"id": v, "multiplicity": 1, "lattice_rank": 1, "gram": [[-1]],
             "curves": [[1]], "kind": "rational"}
            for v in sorted({v for pair in curves.values() for v in pair})
        ],
        "double_curves": [
            {"label": e, "left": a, "right": b, "class_in_left": [1], "class_in_right": [1]}
            for e, (a, b) in curves.items()
        ],
        "triple_points": [{"components": list(corners), "edges": list(edges)} for corners, edges in faces],
    }


# --------------------------------------------------------------------------
# the Kulikov sphere test and type III sweep before they read per-fiber
# indexes, kept as the references for the indexed versions; each reads a
# curve's sides from its own ``left`` and ``right`` fields.  The chain's
# path order is kept as it was before it read the fiber's connectivity walk


def reference_path_order(fiber) -> tuple[str, ...] | None:
    """``kulikov._path_order`` deciding a simple path from each component's
    degree, a scan for parallel curves and a walk that checks each step."""
    ids = fiber.component_ids()
    if len(ids) < 2:
        return None
    degree = {}
    for i in ids:
        degree[i] = len(fiber._ends.get(i, ()))
        if len(fiber.neighbours(i)) != degree[i]:
            return None  # parallel edges: not a simple path
    ends = sorted(i for i in ids if degree[i] == 1)
    if len(ends) != 2 or any(degree[i] != 2 for i in ids if i not in ends):
        return None
    order = [ends[0]]
    prev = None
    while len(order) < len(ids):
        cur = order[-1]
        nxt = [n for n in fiber.neighbours(cur) if n != prev]
        if len(nxt) != 1:
            return None
        prev = cur
        order.append(nxt[0])
    return tuple(order) if order[-1] == ends[1] else None


def reference_is_sphere(fiber) -> SphereCheck:
    """``kulikov.is_sphere`` looking each double curve up per face and per
    vertex, and testing each link's connectivity by search."""
    if not fiber.triple_points:
        return SphereCheck(False, "complex has no faces")

    edge_face_count = {d.label: 0 for d in fiber.double_curves}
    sides_of = {d.label: (d.left, d.right) for d in fiber.double_curves}
    faces_at: dict[str, list[TriplePoint]] = {}
    for t in fiber.triple_points:
        for e in t.edges:
            edge_face_count[e] += 1
        for v in dict.fromkeys(t.components):
            faces_at.setdefault(v, []).append(t)
    bad = sorted(label for label, n in edge_face_count.items() if n != 2)
    if bad:
        return SphereCheck(
            False,
            f"edge {bad[0]!r} lies on {edge_face_count[bad[0]]} faces (closed surface needs 2)",
        )

    for v in fiber.component_ids():
        incident_edges = tuple(d.label for d in fiber.double_curves if v in (d.left, d.right))
        # each face through v joins its two edges at v; the link must be one cycle
        link_degree = {e: 0 for e in incident_edges}
        link = []
        for t in faces_at.get(v, ()):
            at_v = [e for e in t.edges if v in sides_of[e]]
            if len(at_v) != 2:
                return SphereCheck(False, f"face at vertex {v!r} has {len(at_v)} edges through it")
            link_degree[at_v[0]] += 1
            link_degree[at_v[1]] += 1
            link.append(at_v)
        if any(d != 2 for d in link_degree.values()):
            return SphereCheck(False, f"link of vertex {v!r} is not 2-regular")
        # 2-regular with #nodes == #edges and connected <=> single cycle
        if len(link) != len(incident_edges):
            return SphereCheck(False, f"link of vertex {v!r} is not a single cycle")
        if not _link_connected(incident_edges, link):
            return SphereCheck(False, f"link of vertex {v!r} is disconnected")

    chi = len(fiber.components) - len(fiber.double_curves) + len(fiber.triple_points)
    if chi != 2:
        return SphereCheck(False, f"Euler characteristic is {chi}, not 2")
    return SphereCheck(True, None)


def _link_connected(incident_edges: tuple[str, ...], link: list[list[str]]) -> bool:
    if not incident_edges:
        return True
    adjacency = {e: set() for e in incident_edges}
    for a, b in link:
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen = {incident_edges[0]}
    frontier = [incident_edges[0]]
    while frontier:
        cur = frontier.pop()
        for nxt in adjacency[cur]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen) == len(incident_edges)


class _UnionFind:
    """Equality classes of components by parent pointers, written apart from
    the quick-find classes ``consonance._Proof`` keeps, so the differential
    test compares independent code."""

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            x = self.parent[x]
        return x

    def union(self, a, b) -> None:
        self.parent[self.find(b)] = self.find(a)

    def classes(self) -> tuple[tuple[str, ...], ...]:
        groups: dict[str, list[str]] = {}
        for x in self.parent:
            groups.setdefault(self.find(x), []).append(x)
        return tuple(sorted(tuple(sorted(g)) for g in groups.values()))


def _branch_opposites(fiber, comp) -> list[str | None]:
    """Per branch, the component across its double curve (None off it)."""
    across = {
        d.label: d.right if d.left == comp.id else d.left for d in fiber.double_curves if comp.id in (d.left, d.right)
    }
    return [None if b.edge is None else across[b.edge] for b in comp.anticanonical_cycle]


def _adjacent_zero_pair(uf: _UnionFind, comp_id: str, opposites: list[str | None]) -> bool:
    """Whether two cyclically adjacent branches have mu = 0: no double
    curve, or a component already in ``comp_id``'s class across it."""
    root = uf.find(comp_id)
    zero = [o is None or uf.find(o) == root for o in opposites]
    return len(zero) >= 2 and any(zero[k - 1] and zero[k] for k in range(len(zero)))


def _is_consonant(fiber, uf: _UnionFind, comp_id: str) -> bool:
    root = uf.find(comp_id)
    return all(uf.find(n) == root for n in fiber.neighbours(comp_id))


def _unify_component(fiber, uf: _UnionFind, comp_id: str) -> None:
    for n in fiber.neighbours(comp_id):
        uf.union(comp_id, n)


class ReferenceStuck(Exception):
    """The reference sweep stopped with more than one class: the
    non-consonant ``frontier``, the partial ``certificate`` (its conclusion
    "stuck") and the ``classes`` its steps proved equal.  No fiber reaches
    it, since every complex is connected and every boundary cycle names each
    double curve on its component; it is kept so the reference decides the
    outcome itself rather than assume it."""

    def __init__(self, frontier, certificate, classes):
        self.frontier, self.certificate, self.classes = tuple(frontier), certificate, classes
        super().__init__(f"propagation stuck; non-consonant components: {', '.join(self.frontier)}")


def reference_solve_type_iii(fiber) -> ConsonanceCertificate:
    """``consonance._solve_type_iii`` rescanning every component's neighbours,
    consonance and branch opposites on each visit, and counting classes
    with ``_UnionFind.classes`` on every sweep."""
    for comp in fiber.components:
        if comp.anticanonical_cycle is None:
            raise MissingCycleData(comp.id)
    issues = minus_one_form_check(fiber)
    if issues:
        raise MinusOneFormViolation(issues)

    ids = sorted(fiber.component_ids())
    eligible = [i for i in ids if len(fiber.component(i).anticanonical_cycle) < 6]
    if not eligible:
        raise NoSeed(
            "every component has a 6-branch cycle; the Euler count rules this out "
            "on a sphere complex"
        )
    seed = eligible[0]

    uf = _UnionFind(ids)
    steps = [
        CertificateStep(
            kind="seed-by-small-n",
            component=seed,
            note=(
                f"cycle length {len(fiber.component(seed).anticanonical_cycle)} < 6: "
                "per-branch exceptional curves pair 1 with one branch and 0 with the "
                "rest, killing every mu"
            ),
        )
    ]
    _unify_component(fiber, uf, seed)

    changed = True
    while changed and len(uf.classes()) > 1:
        changed = False
        for i in ids:
            comp = fiber.component(i)
            if _is_consonant(fiber, uf, i):
                for j in sorted(fiber.neighbours(i)):
                    if _is_consonant(fiber, uf, j):
                        continue
                    if i not in _branch_opposites(fiber, fiber.component(j)):
                        continue
                    _unify_component(fiber, uf, j)
                    steps.append(
                        CertificateStep(
                            kind="neighbour-propagation",
                            component=i,
                            target=j,
                            note="a consonant component makes each neighbour consonant",
                        )
                    )
                    changed = True
            else:
                opposites = _branch_opposites(fiber, comp)
                if _adjacent_zero_pair(uf, i, opposites):
                    _unify_component(fiber, uf, i)
                    steps.append(
                        CertificateStep(
                            kind="polygon-propagation",
                            component=i,
                            note="two adjacent branches with mu = 0 zero out the whole cycle",
                        )
                    )
                    changed = True

    classes = uf.classes()
    if len(classes) == 1:
        return ConsonanceCertificate(
            fiber_name=fiber.name,
            kulikov_kind="III",
            seed=seed,
            steps=tuple(steps),
            conclusion="all-equal",
        )
    frontier = tuple(i for i in ids if not _is_consonant(fiber, uf, i))
    certificate = ConsonanceCertificate(
        fiber_name=fiber.name,
        kulikov_kind="III",
        seed=seed,
        steps=tuple(steps),
        conclusion="stuck",
    )
    raise ReferenceStuck(frontier, certificate, classes)


# --------------------------------------------------------------------------
# the coordinate order of the reference sweeps below, moved verbatim from
# ``groups`` when the oracle came to solve each digit from a basis of M mod
# ell, and its scanning form, kept verbatim as its reference: each step
# scores every remaining coordinate against every row, a^2 * rows set
# operations.


def _enumeration_order(rows: list[dict[int, int]], a: int) -> list[int]:
    """Order coordinates so constraint rows, given by their nonzeros,
    complete as early as possible: each step takes the coordinate that
    completes the most rows, then the one in the most rows, then the
    smallest.  Counting per row the coordinates not yet taken, a step
    updates only the rows of the coordinate it takes."""
    members: list[list[int]] = [[] for _ in range(a)]
    for i, r in enumerate(rows):
        for j in r:
            members[j].append(i)
    # per coordinate: minus the rows it would complete, minus the rows it is in, itself
    key = [[0, -len(members[j]), j] for j in range(a)]
    for (j,) in (r for r in rows if len(r) == 1):
        key[j][0] -= 1
    left = list(map(len, rows))
    remaining = set(range(a))
    order: list[int] = []
    while remaining:
        j = min(remaining, key=key.__getitem__)
        remaining.remove(j)
        order.append(j)
        for i in members[j]:
            left[i] -= 1
            if left[i] == 1:
                (k,) = remaining.intersection(rows[i])
                key[k][0] -= 1
    return order


def reference_enumeration_order(rows: list[dict[int, int]], a: int) -> list[int]:
    """Order coordinates so constraint rows, given by their nonzeros,
    complete as early as possible."""
    remaining = set(range(a))
    supports = [frozenset(r) for r in rows]
    order: list[int] = []
    chosen: set[int] = set()
    while remaining:
        best = None
        best_key = None
        for cand in sorted(remaining):
            would = chosen | {cand}
            completed = sum(1 for s in supports if s and s <= would and not s <= chosen)
            membership = sum(1 for s in supports if cand in s)
            key = (-completed, -membership, cand)
            if best_key is None or key < best_key:
                best, best_key = cand, key
        order.append(best)
        chosen.add(best)
        remaining.discard(best)
    return order


# the enumeration oracle before it swept the quotient directly, kept verbatim
# as the reference for ``oracle.brute_force_qz_homology``.  It sweeps the
# whole kernel and divides out a stored boundary subgroup.  It reads the
# guard from ``oracle`` at call time, so monkeypatching applies to both,
# and also returns its explored count.


def reference_brute_force(
    v: Sequence[int], m: IntegerMatrix, ell: int, level: int
) -> tuple[BruteForceAnswer, int]:
    """Independent oracle: enumerate lambda in ((ell^-level Z)/Z)^a with
    M lambda integral, quotient by the multiples of v, and read off the
    quotient's order and cyclic structure from element-order counts.

    The enumeration is a depth-first sweep of the product space; subtrees
    are cut only when an already-complete constraint row rules them out, so
    the traversal remains exhaustive.  Each kernel element is counted as
    the sweep reaches it and then dropped, so memory is the boundary
    subgroup plus the recursion, whatever the kernel's size.  Work is capped
    by oracle.STATE_GUARD, and the guard trips before any enumeration when the
    kernel alone is known to exceed it.
    """
    if not _isprime(ell):
        raise ValueError(f"{ell} is not prime")
    if level < 1:
        raise ValueError("level must be >= 1")
    vec = _check_complex(v, m)
    a = m.cols
    modulus = ell**level
    guard_message = (
        f"enumeration guard of {oracle.STATE_GUARD} states exceeded "
        f"(ell={ell}, level={level}, {a} coordinates)"
    )

    rows = [row for row in m.to_rows() if any(row)]
    # Every explored candidate at the last slot is a distinct kernel element.
    # The kernel holds the modulus-many boundary elements below and is free
    # on each zero column of M, so the count would trip the guard anyway.
    free = sum(1 for j in range(a) if not any(r[j] for r in rows))
    if modulus ** max(free, 1) > oracle.STATE_GUARD:
        raise StateSpaceTooLarge(guard_message)

    # The boundary subgroup is Im(alpha) intersected with the level-n kernel.
    # Multiplication by ell is onto Q/Z, so the ell-part of gcd(v) must be
    # stripped first: mu*v lands in level n for mu of level n + val_ell(gcd v).
    strip = 0
    vals = [x for x in vec if x]
    while all(x % ell ** (strip + 1) == 0 for x in vals):
        strip += 1
    reduced = tuple(x // ell**strip for x in vec)
    boundary = {tuple(t * x % modulus for x in reduced) for t in range(modulus)}

    order = _enumeration_order([{j: c for j, c in enumerate(r) if c} for r in rows], a)
    pos_of = {coord: k for k, coord in enumerate(order)}

    # Rows completing at slot k pin its coordinate: the first is solved for
    # it, so holds by construction, and only the rows after it are checked.
    # Rows are kept as (coordinate, coefficient) pairs over their support.
    pinned: list[list[list[tuple[int, int]]]] = [[] for _ in range(a)]
    for r in rows:
        terms = [(j, c) for j, c in enumerate(r) if c]
        pinned[max(pos_of[j] for j, _ in terms)].append(terms)
    # The slot's value x solves c*x = r (mod modulus) for the first row, or
    # 0*x = 0 when no row completes there.  Solutions exist iff
    # g = gcd(c, modulus) divides r: x0 + t*(modulus/g) for 0 <= t < g, with
    # x0 = (r/g) * (c/g)^-1 mod modulus/g.
    plan = []  # per slot: coordinate, first row's other terms, g, (c/g)^-1, checks
    for coord, done in zip(order, pinned):
        first, checks = (done[0], done[1:]) if done else ([], [])
        c = dict(first).get(coord, 0) % modulus
        g = gcd(c, modulus)
        others = [(j, cj) for j, cj in first if j != coord]
        plan.append((coord, others, g, pow(c // g, -1, modulus // g), checks))

    # first_killed[j]: kernel elements x whose least j with ell^j x in the
    # boundary is j; a subgroup, so every higher power kills x too
    first_killed = [0] * (level + 1)
    assignment = [0] * a
    explored = 0

    def descend(k: int) -> None:
        nonlocal explored
        if k == a:
            x, j = tuple(assignment), 0
            while x not in boundary:  # ell^level x = 0 always is
                x, j = tuple([ell * c % modulus for c in x]), j + 1
            first_killed[j] += 1
            return
        coord, others, g, inverse, checks = plan[k]
        target = -sum(c * assignment[j] for j, c in others) % modulus
        step = modulus // g
        candidates = () if target % g else range(target // g * inverse % step, modulus, step)
        for val in candidates:
            explored += 1
            if explored > oracle.STATE_GUARD:
                raise StateSpaceTooLarge(guard_message)
            assignment[coord] = val
            if all(sum(c * assignment[j] for j, c in row) % modulus == 0 for row in checks):
                descend(k + 1)
        assignment[coord] = 0

    descend(0)

    kernel_order = sum(first_killed)
    if kernel_order % len(boundary):
        raise AssertionError("boundary subgroup does not divide kernel")  # pragma: no cover
    quotient_order = kernel_order // len(boundary)

    # N_j = number of quotient elements killed by ell^j; the increments of
    # log_ell N_j count chain entries with exponent >= j.
    counts = [killed // len(boundary) for killed in accumulate(first_killed)]
    exps_at_least = []
    for j in range(1, level + 1):
        ratio = counts[j] // counts[j - 1]
        e = 0
        while ratio > 1:
            ratio //= ell
            e += 1
        exps_at_least.append(e)
    chain: list[int] = []
    for j, here in enumerate(exps_at_least, start=1):
        after = exps_at_least[j] if j < len(exps_at_least) else 0
        chain.extend([ell**j] * (here - after))
    chain.sort()

    return BruteForceAnswer(ell=ell, level=level, order=quotient_order, divisor_chain=tuple(chain)), explored


# --------------------------------------------------------------------------
# the enumeration oracle before it lifted one ell-adic digit at a time, kept
# verbatim as a reference for ``oracle.brute_force_qz_homology``.  It sweeps
# the quotient at the full modulus ell^level in one pass per level.  It reads
# the guard from ``oracle`` at call time, so monkeypatching applies to both.


def reference_quotient_sweep(
    v: Sequence[int], m: IntegerMatrix, ell: int, level: int
) -> BruteForceAnswer:
    """Independent oracle: enumerate lambda in ((ell^-level Z)/Z)^a with
    M lambda integral, quotient by the multiples of v, and read off the
    quotient's order and cyclic structure from element-order counts.

    The sweep enumerates the quotient itself: the kernel elements that are 0
    at p, the first coordinate where v (its common ell-power stripped) is a
    unit.  The multiples of v take each value at p once, so the kernel is
    their direct sum with these, and each one reached is a quotient element
    of the same order.  Subtrees of the depth-first sweep are cut only when
    an already-complete constraint row rules them out, so it stays
    exhaustive; each element is counted as it is reached and then dropped,
    so memory is the recursion alone.  Work is capped by STATE_GUARD, and the
    guard trips before any enumeration when the kernel alone exceeds it.
    """
    if not _isprime(ell):
        raise ValueError(f"{ell} is not prime")
    if level < 1:
        raise ValueError("level must be >= 1")
    vec = _check_complex(v, m)
    a = m.cols
    modulus = ell**level
    guard_message = (
        f"enumeration guard of {oracle.STATE_GUARD} states exceeded "
        f"(ell={ell}, level={level}, {a} coordinates)"
    )

    rows = [r for r in m.sparse_rows if r]
    # A bound on the kernel, which holds the modulus-many multiples of v and
    # is free on each zero column of M.  The sweep explores less than that;
    # the check keeps refusing fast what it has always refused fast.
    free = a - len(set().union(*rows))
    if modulus ** max(free, 1) > oracle.STATE_GUARD:
        raise StateSpaceTooLarge(guard_message)

    # The boundary subgroup is Im(alpha) intersected with the level-n kernel.
    # Multiplication by ell is onto Q/Z, so the ell-part of gcd(v) must be
    # stripped first: mu*v lands in level n for mu of level n + val_ell(gcd v).
    strip = 0
    vals = [x for x in vec if x]
    while all(x % ell ** (strip + 1) == 0 for x in vals):
        strip += 1
    reduced = tuple(x // ell**strip for x in vec)

    order = _enumeration_order(rows, a)
    pos_of = {coord: k for k, coord in enumerate(order)}
    zero_slot = next((k for k, coord in enumerate(order) if reduced[coord] % ell), None)
    if zero_slot is None:
        raise AssertionError("stripped augmentation vector has no unit entry")  # pragma: no cover

    # Rows completing at slot k pin its coordinate: the first is solved for
    # it, so holds by construction, and only the rows after it are checked.
    # Rows are kept as (coordinate, coefficient) pairs over their support.
    pinned: list[list[list[tuple[int, int]]]] = [[] for _ in range(a)]
    for r in rows:
        pinned[max(map(pos_of.__getitem__, r))].append(list(r.items()))
    # The slot's value x solves c*x = r (mod modulus) for the first row, or
    # 0*x = 0 when no row completes there.  Solutions exist iff
    # g = gcd(c, modulus) divides r: x0 + t*(modulus/g) for 0 <= t < g, with
    # x0 = (r/g) * (c/g)^-1 mod modulus/g.  At p only x0 = 0 is kept.
    plan = []  # per slot: coordinate, first row's other terms, g, (c/g)^-1, x bound, checks
    for k, (coord, done) in enumerate(zip(order, pinned)):
        first, checks = (done[0], done[1:]) if done else ([], [])
        c = dict(first).get(coord, 0) % modulus
        g = gcd(c, modulus)
        others = [(j, cj) for j, cj in first if j != coord]
        bound = 1 if k == zero_slot else modulus
        plan.append((coord, others, g, pow(c // g, -1, modulus // g), bound, checks))

    # first_killed[j]: quotient elements of order exactly ell^j.  An element
    # x has order modulus / gcd(modulus, x), and exponent maps it to j.
    first_killed = [0] * (level + 1)
    exponent = {ell**i: level - i for i in range(level + 1)}
    assignment = [0] * a
    explored = 0

    def descend(k: int) -> None:
        nonlocal explored
        if k == a:
            first_killed[exponent[gcd(modulus, *assignment)]] += 1
            return
        coord, others, g, inverse, bound, checks = plan[k]
        target = -sum(c * assignment[j] for j, c in others) % modulus
        step = modulus // g
        candidates = () if target % g else range(target // g * inverse % step, bound, step)
        for val in candidates:
            explored += 1
            if explored > oracle.STATE_GUARD:
                raise StateSpaceTooLarge(guard_message)
            assignment[coord] = val
            if all(sum(c * assignment[j] for j, c in row) % modulus == 0 for row in checks):
                descend(k + 1)
        assignment[coord] = 0

    descend(0)

    # N_j = number of quotient elements killed by ell^j; the increments of
    # log_ell N_j count chain entries with exponent >= j.
    counts = list(accumulate(first_killed))
    exps_at_least = []
    for j in range(1, level + 1):
        ratio = counts[j] // counts[j - 1]
        e = 0
        while ratio > 1:
            ratio //= ell
            e += 1
        exps_at_least.append(e)
    chain: list[int] = []
    for j, here in enumerate(exps_at_least, start=1):
        after = exps_at_least[j] if j < len(exps_at_least) else 0
        chain.extend([ell**j] * (here - after))
    chain.sort()

    return BruteForceAnswer(ell=ell, level=level, order=counts[-1], divisor_chain=tuple(chain))


# --------------------------------------------------------------------------
# the fiber parser before its column pass: one per-node parser whose checks
# run inline first and fall back to an ``_as_*`` helper, kept verbatim as the
# reference for the two-stage parser in ``zerocycle.fiber``

_INT_RE = re.compile(r"-?[0-9]+")


class _Fields:
    """The fields of one kind of object: ``required`` in the order a missing
    one is reported, and the ones it may have besides."""

    __slots__ = ("order", "required", "allowed")

    def __init__(self, *required: str, optional: tuple[str, ...] = ()):
        self.order = required
        self.required = frozenset(required)
        self.allowed = frozenset(required + optional)

    def fit(self, value: Any) -> bool:
        """Whether ``value`` is a plain dict with every required field and no
        unknown one."""
        return type(value) is dict and self.required <= value.keys() <= self.allowed


_DOCUMENT = _Fields("name", "h1_geometric_vanishes", "components", "double_curves", "triple_points")
_COMPONENT = _Fields(
    "id", "multiplicity", "lattice_rank", "gram", "curves", "kind",
    optional=("anticanonical_cycle", "anchored_end"),
)
_CYCLE = _Fields("branches")
_BRANCH = _Fields("edge", "nodal", optional=("self_intersection",))
_DOUBLE_CURVE = _Fields("label", "left", "right", "class_in_left", "class_in_right")
_TRIPLE_POINT = _Fields("components", "edges")


def _as_int(value: Any, path: str) -> int:
    if type(value) is int:
        return value
    if isinstance(value, bool):
        raise ValidationError(path, "expected an integer, got a boolean")
    if isinstance(value, int):
        raise ValidationError(path, f"expected an integer, got an instance of {type(value).__name__}")
    if isinstance(value, str) and _INT_RE.fullmatch(value):
        try:
            return int(value)
        except ValueError:  # past the interpreter's int-string limit
            raise ValidationError(
                path, f"integer has more than {sys.get_int_max_str_digits()} digits"
            ) from None
    raise ValidationError(path, f"expected an integer, got {value!r}")


def _as_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ValidationError(path, f"expected a string, got {value!r}")
    return value


def _as_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(path, f"expected a boolean, got {value!r}")
    return value


def _as_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(path, f"expected a list, got {value!r}")
    return value


def _as_object(value: Any, path: str, fields: _Fields) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(path, f"expected an object, got {value!r}")
    if not fields.required <= value.keys() <= fields.allowed:
        unknown = sorted(value.keys() - fields.allowed, key=str)
        if unknown:
            raise ValidationError(path, f"unknown field {unknown[0]!r}")
        missing = next(key for key in fields.order if key not in value)
        raise ValidationError(path, f"missing required field {missing!r}")
    return value


def _as_vector(value: Any, path: str, length: int) -> tuple[int, ...]:
    items = _as_list(value, path)
    if len(items) != length:
        raise ValidationError(path, f"expected a vector of length {length}, got {len(items)}")
    return tuple(_as_int(x, f"{path}[{k}]") for k, x in enumerate(items))


def _int_vector(value: Any, length: int) -> tuple[int, ...] | None:
    """``value`` as a tuple if it is a list of ``length`` exact ints, else None."""
    if type(value) is list and len(value) == length and set(map(type, value)) <= {int}:
        return tuple(value)
    return None


def _int_rows(rows: list, length: int) -> tuple[tuple[int, ...], ...] | None:
    """``rows`` as a tuple of tuples if every row is a list of ``length``
    exact ints, else None."""
    if (
        set(map(type, rows)) <= {list}
        and set(map(len, rows)) <= {length}
        and set(map(type, chain.from_iterable(rows))) <= {int}
    ):
        return tuple(map(tuple, rows))
    return None


def _branch_path(k: int, n: int) -> str:
    return f"$.components[{k}].anticanonical_cycle.branches[{n}]"


def _parse_branch(value: Any, k: int, n: int) -> Branch:
    if not _BRANCH.fit(value):
        _as_object(value, _branch_path(k, n), _BRANCH)
    edge = value["edge"]
    if edge is not None and type(edge) is not str:
        _as_str(edge, f"{_branch_path(k, n)}.edge")
    self_int = value.get("self_intersection")
    if self_int is not None and type(self_int) is not int:
        self_int = _as_int(self_int, f"{_branch_path(k, n)}.self_intersection")
    nodal = value["nodal"]
    if type(nodal) is not bool:
        _as_bool(nodal, f"{_branch_path(k, n)}.nodal")
    return Branch(edge=edge, self_intersection=self_int, nodal=nodal)


def _parse_component(value: Any, k: int) -> ComponentData:
    if not _COMPONENT.fit(value):
        _as_object(value, f"$.components[{k}]", _COMPONENT)
    cid, mult, rank = value["id"], value["multiplicity"], value["lattice_rank"]
    if type(cid) is not str:
        _as_str(cid, f"$.components[{k}].id")
    if type(mult) is not int:
        mult = _as_int(mult, f"$.components[{k}].multiplicity")
    if mult < 1:
        raise ValidationError(f"$.components[{k}].multiplicity", f"must be >= 1, got {mult}")
    if type(rank) is not int:
        rank = _as_int(rank, f"$.components[{k}].lattice_rank")
    if rank < 0:
        raise ValidationError(f"$.components[{k}].lattice_rank", f"must be >= 0, got {rank}")

    gram_rows = value["gram"]
    if type(gram_rows) is not list:
        _as_list(gram_rows, f"$.components[{k}].gram")
    if len(gram_rows) != rank:
        raise ValidationError(f"$.components[{k}].gram", f"expected {rank} rows, got {len(gram_rows)}")
    gram = _int_rows(gram_rows, rank)
    if gram is None:
        gram = tuple(
            _as_vector(row, f"$.components[{k}].gram[{n}]", rank) for n, row in enumerate(gram_rows)
        )
    if tuple(zip(*gram)) != gram:
        raise ValidationError(f"$.components[{k}].gram", "intersection pairing must be symmetric")

    curve_rows = value["curves"]
    if type(curve_rows) is not list:
        _as_list(curve_rows, f"$.components[{k}].curves")
    curves = _int_rows(curve_rows, rank)
    if curves is None:
        curves = tuple(
            _as_vector(row, f"$.components[{k}].curves[{n}]", rank) for n, row in enumerate(curve_rows)
        )

    kind = value["kind"]
    if type(kind) is not str or kind not in KINDS:
        _as_str(kind, f"$.components[{k}].kind")
        if kind not in KINDS:
            raise ValidationError(f"$.components[{k}].kind", f"must be one of {KINDS}, got {kind!r}")

    cycle = None
    if "anticanonical_cycle" in value:
        cyc_obj = value["anticanonical_cycle"]
        if not _CYCLE.fit(cyc_obj):
            _as_object(cyc_obj, f"$.components[{k}].anticanonical_cycle", _CYCLE)
        branch_items = cyc_obj["branches"]
        if type(branch_items) is not list:
            _as_list(branch_items, f"$.components[{k}].anticanonical_cycle.branches")
        if not branch_items:
            raise ValidationError(
                f"$.components[{k}].anticanonical_cycle.branches", "cycle must have at least one branch"
            )
        cycle = tuple(_parse_branch(b, k, n) for n, b in enumerate(branch_items))

    anchored = None
    if "anchored_end" in value:
        anchored = value["anchored_end"]
        if type(anchored) is not bool:
            _as_bool(anchored, f"$.components[{k}].anchored_end")

    return ComponentData(
        id=cid,
        multiplicity=mult,
        lattice_rank=rank,
        gram=gram,
        curves=curves,
        kind=kind,
        anticanonical_cycle=cycle,
        anchored_end=anchored,
    )


def reference_fiber_from_document(doc: Any) -> SpecialFiber:
    """``fiber.fiber_from_document`` as one per-node parser with inline checks."""
    obj = _as_object(doc, "$", _DOCUMENT)
    name = _as_str(obj["name"], "$.name")
    h1 = _as_bool(obj["h1_geometric_vanishes"], "$.h1_geometric_vanishes")

    comp_items = _as_list(obj["components"], "$.components")
    if not comp_items:
        raise ValidationError("$.components", "a special fiber has at least one component")
    components = tuple(_parse_component(c, k) for k, c in enumerate(comp_items))
    ids = [c.id for c in components]
    if len(set(ids)) != len(ids):
        dup = sorted({i for i in ids if ids.count(i) > 1})[0]
        raise ValidationError("$.components", f"duplicate component id {dup!r}")
    rank_of = {c.id: c.lattice_rank for c in components}

    curve_items = _as_list(obj["double_curves"], "$.double_curves")
    double_curves = []
    for k, item in enumerate(curve_items):
        if not _DOUBLE_CURVE.fit(item):
            _as_object(item, f"$.double_curves[{k}]", _DOUBLE_CURVE)
        label, left, right = item["label"], item["left"], item["right"]
        if not (type(label) is str and type(left) is str and type(right) is str):
            _as_str(label, f"$.double_curves[{k}].label")
            _as_str(left, f"$.double_curves[{k}].left")
            _as_str(right, f"$.double_curves[{k}].right")
        if left not in rank_of:
            raise ValidationError(f"$.double_curves[{k}].left", f"unknown component {left!r}")
        if right not in rank_of:
            raise ValidationError(f"$.double_curves[{k}].right", f"unknown component {right!r}")
        if left == right:
            raise ValidationError(f"$.double_curves[{k}]", "a double curve joins two distinct components")
        cl = _int_vector(item["class_in_left"], rank_of[left])
        if cl is None:
            cl = _as_vector(item["class_in_left"], f"$.double_curves[{k}].class_in_left", rank_of[left])
        cr = _int_vector(item["class_in_right"], rank_of[right])
        if cr is None:
            cr = _as_vector(item["class_in_right"], f"$.double_curves[{k}].class_in_right", rank_of[right])
        if not any(cl):
            raise ValidationError(f"$.double_curves[{k}].class_in_left", "class vector must be nonzero")
        if not any(cr):
            raise ValidationError(f"$.double_curves[{k}].class_in_right", "class vector must be nonzero")
        double_curves.append(
            DoubleCurve(label=label, left=left, right=right, class_in_left=cl, class_in_right=cr)
        )
    labels = [d.label for d in double_curves]
    if len(set(labels)) != len(labels):
        dup = sorted({x for x in labels if labels.count(x) > 1})[0]
        raise ValidationError("$.double_curves", f"duplicate double curve label {dup!r}")
    sides_of = {d.label: frozenset((d.left, d.right)) for d in double_curves}

    triple_items = _as_list(obj["triple_points"], "$.triple_points")
    triple_points = []
    for k, item in enumerate(triple_items):
        if not _TRIPLE_POINT.fit(item):
            _as_object(item, f"$.triple_points[{k}]", _TRIPLE_POINT)
        comps = item["components"]
        if type(comps) is not list:
            _as_list(comps, f"$.triple_points[{k}].components")
        if len(comps) != 3:
            raise ValidationError(
                f"$.triple_points[{k}].components", "a triple point touches exactly 3 components"
            )
        if not set(map(type, comps)) <= {str}:
            for n, c in enumerate(comps):
                _as_str(c, f"$.triple_points[{k}].components[{n}]")
        comps = tuple(comps)
        if len(set(comps)) != 3:
            raise ValidationError(
                f"$.triple_points[{k}].components", "components must be pairwise distinct"
            )
        for n, c in enumerate(comps):
            if c not in rank_of:
                raise ValidationError(f"$.triple_points[{k}].components[{n}]", f"unknown component {c!r}")
        edges = item["edges"]
        if type(edges) is not list:
            _as_list(edges, f"$.triple_points[{k}].edges")
        if len(edges) != 3:
            raise ValidationError(
                f"$.triple_points[{k}].edges", "a triple point lies on exactly 3 double curves"
            )
        if not set(map(type, edges)) <= {str}:
            for n, e in enumerate(edges):
                _as_str(e, f"$.triple_points[{k}].edges[{n}]")
        edges = tuple(edges)
        for n, e in enumerate(edges):
            if e not in sides_of:
                raise ValidationError(f"$.triple_points[{k}].edges[{n}]", f"unknown double curve {e!r}")
        # the three edges must connect the three components pairwise
        a, b, c = comps
        want = {frozenset((a, b)), frozenset((a, c)), frozenset((b, c))}
        if want != {sides_of[e] for e in edges}:
            raise ValidationError(
                f"$.triple_points[{k}]", "edges do not connect the claimed components pairwise"
            )
        triple_points.append(TriplePoint(components=comps, edges=edges))

    # the constructor checks connectivity and the boundary cycles last
    return SpecialFiber(
        name=name,
        h1_geometric_vanishes=h1,
        components=components,
        double_curves=tuple(double_curves),
        triple_points=tuple(triple_points),
    )


def reference_fiber_to_document(fiber: SpecialFiber) -> dict:
    """The serializer as a hand-written mapping, kept verbatim as the
    reference for ``fiber.fiber_to_document``, which writes the slots."""
    comps = []
    for c in fiber.components:
        entry: dict[str, Any] = {
            "id": c.id,
            "multiplicity": c.multiplicity,
            "lattice_rank": c.lattice_rank,
            "gram": [list(row) for row in c.gram],
            "curves": [list(v) for v in c.curves],
            "kind": c.kind,
        }
        if c.anticanonical_cycle is not None:
            entry["anticanonical_cycle"] = {
                "branches": [
                    {
                        "edge": b.edge,
                        **(
                            {"self_intersection": b.self_intersection}
                            if b.self_intersection is not None
                            else {}
                        ),
                        "nodal": b.nodal,
                    }
                    for b in c.anticanonical_cycle
                ]
            }
        if c.anchored_end is not None:
            entry["anchored_end"] = c.anchored_end
        comps.append(entry)
    return {
        "name": fiber.name,
        "h1_geometric_vanishes": fiber.h1_geometric_vanishes,
        "components": comps,
        "double_curves": [
            {
                "label": d.label,
                "left": d.left,
                "right": d.right,
                "class_in_left": list(d.class_in_left),
                "class_in_right": list(d.class_in_right),
            }
            for d in fiber.double_curves
        ],
        "triple_points": [
            {"components": list(t.components), "edges": list(t.edges)}
            for t in fiber.triple_points
        ],
    }


def parse_outcome(parse, doc):
    """What ``parse`` makes of ``doc``: the fiber with its serialized form
    (which tells ``true`` from ``1``), or the error's type, ``$.path`` and
    message."""
    try:
        fiber = parse(doc)
    except ZeroCycleError as err:
        return type(err), getattr(err, "path", None), str(err)
    return fiber, json.dumps(fiber_to_document(fiber))


def _fresh(name: str, taken: set[str]) -> str:
    while name in taken:
        name += "'"
    return name


def blow_up_double_curve(doc: dict, label: str) -> dict:
    """The document of the model blown up at a point of the double curve
    ``label``, which joins A_i and A_j.  The exceptional divisor E is a P^2
    (lattice Z h, h^2 = 1, curve h) of multiplicity m_i + m_j.  A_i and A_j
    each gain an exceptional class e (e^2 = -1) as a lattice generator and a
    curve, and the curve's class on each side becomes its old class - e.
    Two new double curves join e on A_i and on A_j to h on E, and one
    triple point joins A_i, A_j and E.  E's forced diagonal is -h, which is
    integral.  The boundary of a blown-up A_i is no longer anticanonical, so
    its cycle data is dropped.  ``doc`` is not changed."""
    out = copy.deepcopy(doc)
    comps = {c["id"]: c for c in out["components"]}
    curve = next(d for d in out["double_curves"] if d["label"] == label)
    sides = (curve["left"], curve["right"])
    for d in out["double_curves"]:
        for side in ("left", "right"):
            if d[side] in sides:
                d[f"class_in_{side}"].append(-1 if d is curve else 0)
    exceptional = _fresh(f"E_{label}", set(comps))
    labels = {d["label"] for d in out["double_curves"]}
    for cid in sides:
        c = comps[cid]
        rank = c["lattice_rank"]
        e = [0] * rank + [1]
        c["lattice_rank"] = rank + 1
        c["gram"] = [row + [0] for row in c["gram"]] + [[0] * rank + [-1]]
        c["curves"] = [v + [0] for v in c["curves"]] + [e]
        c.pop("anticanonical_cycle", None)
        new = _fresh(f"{label}_{cid}", labels)
        labels.add(new)
        out["double_curves"].append(
            {"label": new, "left": cid, "right": exceptional, "class_in_left": list(e), "class_in_right": [1]}
        )
    out["components"].append({
        "id": exceptional,
        "multiplicity": sum(comps[cid]["multiplicity"] for cid in sides),
        "lattice_rank": 1,
        "gram": [[1]],
        "curves": [[1]],
        "kind": "rational",
    })
    out["triple_points"].append(
        {"components": [*sides, exceptional], "edges": [label, *(d["label"] for d in out["double_curves"][-2:])]}
    )
    return out


# --------------------------------------------------------------------------
# the command-line parser before it was read from ``cli._COMMANDS``: argparse
# subparsers, kept as the reference for ``cli._parse``.  Only its handlers
# changed: each fixtures subcommand now has its own.


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit(2); we need 3
        raise cli._UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="zerocycle", description=cli.__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="parse and validate a fiber document")
    p_validate.add_argument("file")
    p_validate.set_defaults(handler=cli._cmd_validate)

    p_compute = sub.add_parser("compute", help="compute the obstruction report")
    p_compute.add_argument("file")
    p_compute.add_argument("--prime", type=int, default=None)
    p_compute.add_argument("--brute-check", action="store_true")
    p_compute.add_argument("--format", choices=("text", "json"), default="text")
    p_compute.set_defaults(handler=cli._cmd_compute)

    p_classify = sub.add_parser("classify", help="classify the degeneration type")
    p_classify.add_argument("file")
    p_classify.set_defaults(handler=cli._cmd_classify)

    p_cons = sub.add_parser("consonance", help="certify constancy by propagation")
    p_cons.add_argument("file")
    p_cons.add_argument("--format", choices=("text", "json"), default="text")
    p_cons.set_defaults(handler=cli._cmd_consonance)

    p_fix = sub.add_parser("fixtures", help="bundled fixture corpus")
    fix_sub = p_fix.add_subparsers(dest="fixtures_command", required=True)
    fix_sub.add_parser("list").set_defaults(handler=cli._cmd_fixtures_list)
    p_show = fix_sub.add_parser("show")
    p_show.add_argument("name")
    p_show.set_defaults(handler=cli._cmd_fixtures_show)
    fix_sub.add_parser("run").set_defaults(handler=cli._cmd_fixtures_run)

    return parser


def reference_cli_parse(argv: list[str]) -> tuple:
    """The handler and keyword arguments the argparse parser gives ``argv``,
    or the message of the ``cli._UsageError`` it raises."""
    try:
        args = vars(_build_parser().parse_args(argv))
    except cli._UsageError as exc:
        return str(exc)
    for routing in ("command", "fixtures_command"):
        args.pop(routing, None)
    return args.pop("handler"), args
