"""Seeded, download-free fiber-document generators for the benchmark.

Families:

* ``chain_document``: Type II chains of N components (rational ends, one of
  them anchored; elliptic-ruled interior).  M is 2N x N and H is trivial.
* ``sphere_document``: geodesic sphere complexes, the frequency-k subdivision
  of a tetrahedron, octahedron or icosahedron (F k^2 / 2 + 2 components).
  The ``sparse`` variant gives every component a rank-1 lattice, so M is the
  Laplacian of the dual graph and H its critical group; the ``decorated``
  variant gives each component with n boundary branches a rank-2n lattice
  spanned by the branches and one exceptional curve per branch, so H is
  trivial.
* ``two_component_pairings``: seeded pairings with a chosen gcd g for
  ``zerocycle.corpus.two_component_document``, whose H is Z/g.
* ``guard_document``: a chain whose components declare no curves, so the
  enumeration oracle has nothing to prune.

The seed only reorders components, double curves and triple points (and
draws pairings); the geometry of each family is fixed by its size.
"""

from __future__ import annotations

import random
from itertools import combinations

_TETRAHEDRON = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
# vertices +x, -x, +y, -y, +z, -z
_OCTAHEDRON = [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]
# vertex 0 on top, 1-5 upper ring, 6-10 lower ring, 11 at the bottom
_ICOSAHEDRON = (
    [(0, 1 + i, 1 + (i + 1) % 5) for i in range(5)]
    + [(1 + i, 1 + (i + 1) % 5, 6 + i) for i in range(5)]
    + [(1 + (i + 1) % 5, 6 + i, 6 + (i + 1) % 5) for i in range(5)]
    + [(11, 6 + i, 6 + (i + 1) % 5) for i in range(5)]
)
BASES = {"tet": _TETRAHEDRON, "oct": _OCTAHEDRON, "ico": _ICOSAHEDRON}


def _shuffled(items: list, rng: random.Random) -> list:
    out = list(items)
    rng.shuffle(out)
    return out


def _relabel(doc: dict, seed: int) -> dict:
    rng = random.Random(seed)
    for key in ("components", "double_curves", "triple_points"):
        doc[key] = _shuffled(doc[key], rng)
    return doc


def geodesic_sphere(base: str, k: int) -> tuple[int, list[tuple[int, int, int]]]:
    """Vertex count and triangles of the frequency-k subdivision of a base
    polyhedron.  A point of a base face is named by its barycentric weights
    over base vertices, so points on a shared base edge get one name."""
    names: dict[tuple, int] = {}

    def vertex(weights: dict[int, int]) -> int:
        key = tuple(sorted((v, w) for v, w in weights.items() if w))
        return names.setdefault(key, len(names))

    triangles = []
    for a, b, c in BASES[base]:
        def at(i: int, j: int) -> int:  # i steps towards b, j towards c
            return vertex({a: k - i - j, b: i, c: j})

        for i in range(k):
            for j in range(k - i):
                triangles.append((at(i, j), at(i + 1, j), at(i, j + 1)))
                if i + j < k - 1:
                    triangles.append((at(i + 1, j), at(i + 1, j + 1), at(i, j + 1)))
    return len(names), triangles


def _link_cycles(n: int, triangles: list[tuple[int, int, int]]) -> list[list[int]]:
    """Neighbours of each vertex in cyclic order around it."""
    link: list[dict[int, list[int]]] = [{} for _ in range(n)]
    for tri in triangles:
        for v in tri:
            a, b = (u for u in tri if u != v)
            link[v].setdefault(a, []).append(b)
            link[v].setdefault(b, []).append(a)
    cycles = []
    for v in range(n):
        start = min(link[v])
        order, prev = [start], None
        while True:
            cur = order[-1]
            nxt = [u for u in link[v][cur] if u != prev][0]
            if nxt == start:
                break
            order.append(nxt)
            prev = cur
        cycles.append(order)
    return cycles


def _cid(v: int) -> str:
    return f"V{v:04d}"


def _label(a: int, b: int) -> str:
    return f"E{min(a, b):04d}_{max(a, b):04d}"


def sphere_document(base: str, k: int, variant: str, seed: int) -> dict:
    """Geodesic sphere complex; ``variant`` is ``sparse`` or ``decorated``."""
    n, triangles = geodesic_sphere(base, k)
    cycles = _link_cycles(n, triangles)
    components = []
    # class of the double curve towards each neighbour, on this component
    side_class: dict[tuple[int, int], list[int]] = {}
    for v, cycle in enumerate(cycles):
        deg = len(cycle)
        if variant == "sparse":
            gram, curves = [[-1]], [[1]]
            for u in cycle:
                side_class[(v, u)] = [1]
        elif variant == "decorated":
            # basis D_1..D_deg (boundary branches, a cycle of (-1)-curves),
            # E_1..E_deg (E_i . D_i = 1, E_i^2 = -1)
            rank = 2 * deg
            gram = [[0] * rank for _ in range(rank)]
            for i in range(deg):
                gram[i][i] = -1
                gram[deg + i][deg + i] = -1
                gram[i][deg + i] = gram[deg + i][i] = 1
                nxt = (i + 1) % deg
                gram[i][nxt] = gram[nxt][i] = 1
            curves = [[1 if x == deg + i else 0 for x in range(rank)] for i in range(deg)]
            for i, u in enumerate(cycle):
                side_class[(v, u)] = [1 if x == i else 0 for x in range(rank)]
        else:
            raise ValueError(f"unknown sphere variant {variant!r}")
        components.append({
            "id": _cid(v),
            "multiplicity": 1,
            "lattice_rank": len(gram),
            "gram": gram,
            "curves": curves,
            "kind": "rational",
            "anticanonical_cycle": {
                "branches": [{"edge": _label(v, u), "nodal": False} for u in cycle]
            },
        })
    double_curves = [
        {
            "label": _label(a, b),
            "left": _cid(a),
            "right": _cid(b),
            "class_in_left": side_class[(a, b)],
            "class_in_right": side_class[(b, a)],
        }
        for a, b in _edges(triangles)
    ]
    triple_points = [
        {
            "components": [_cid(a), _cid(b), _cid(c)],
            "edges": [_label(a, b), _label(a, c), _label(b, c)],
        }
        for a, b, c in (sorted(t) for t in triangles)
    ]
    doc = {
        "name": f"{variant}_{base}{k}",
        "h1_geometric_vanishes": variant == "decorated",
        "components": components,
        "double_curves": double_curves,
        "triple_points": triple_points,
    }
    return _relabel(doc, seed)


def _edges(triangles: list[tuple[int, int, int]]) -> list[tuple[int, int]]:
    return sorted({(min(a, b), max(a, b)) for t in triangles for a, b in combinations(t, 2)})


def sphere_edges(base: str, k: int) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edge list of the dual graph of a geodesic sphere."""
    n, triangles = geodesic_sphere(base, k)
    return n, _edges(triangles)


def chain_document(n: int, seed: int) -> dict:
    """Type II chain of n >= 2 components, anchored at the first end."""
    end_gram = [[0, 1], [1, -1]]  # basis (double curve, exceptional curve)
    mid_gram = [[0, 1], [1, 0]]  # basis (section, ruling fiber)
    components = []
    for i in range(n):
        end = i in (0, n - 1)
        entry = {
            "id": f"C{i:04d}",
            "multiplicity": 1,
            "lattice_rank": 2,
            "gram": end_gram if end else mid_gram,
            "curves": [[1, 0], [0, 1]],
            "kind": "rational" if end else "ruled-over-elliptic",
        }
        if i == 0:
            entry["anchored_end"] = True
        components.append(entry)
    double_curves = [
        {
            "label": f"D{i:04d}",
            "left": f"C{i:04d}",
            "right": f"C{i + 1:04d}",
            "class_in_left": [1, 0],
            "class_in_right": [1, 0],
        }
        for i in range(n - 1)
    ]
    doc = {
        "name": f"chain{n}",
        "h1_geometric_vanishes": True,
        "components": components,
        "double_curves": double_curves,
        "triple_points": [],
    }
    return _relabel(doc, seed)


def guard_document(n: int, seed: int) -> dict:
    """A chain of n components that declare no curves: M has no rows, so the
    enumeration oracle must visit the whole product space."""
    doc = chain_document(n, seed)
    doc["name"] = f"curve_free{n}"
    for comp in doc["components"]:
        comp["curves"] = []
    return doc


def two_component_pairings(seed: int, g: int, count: int = 2) -> tuple[list[int], list[int]]:
    """Seeded pairings for the two-component family: multiples of g, the
    first of them g itself, so H = Z/g whatever the seed.  Keeping g first
    also keeps the oracle's work independent of the seed: its enumeration
    solves the first pairing's congruence."""
    rng = random.Random(seed)
    left = [g] + [g * rng.randint(1, 6) for _ in range(count - 1)]
    right = [g * rng.randint(1, 6) for _ in range(count)]
    return left, right
