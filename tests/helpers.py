"""Shared test utilities.

The determinant, gcd-of-minors and local Smith form routines here are
deliberately independent of the package's elimination code: they are the
oracles the Smith normal form is checked against.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd

from zerocycle.linalg import IntegerMatrix


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


def random_matrix(rng, rows: int, cols: int, lo: int = -9, hi: int = 9) -> IntegerMatrix:
    return IntegerMatrix(
        rows, cols, tuple(rng.randint(lo, hi) for _ in range(rows * cols))
    )


def random_unimodular(rng, n: int, steps: int = 12) -> tuple[IntegerMatrix, IntegerMatrix]:
    """A random unimodular T together with its exact inverse, built as a
    product of elementary operations (tracked pair-wise, so no inversion)."""
    t = IntegerMatrix.identity(n).to_rows()
    tinv = IntegerMatrix.identity(n).to_rows()
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
    new_gram = tinv_transposed.matmul(gram).matmul(tinv)
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
