"""Metamorphic checks of H on the benchmark's generated families
(``bench/generators.py``).  H does not depend on the order of the document
or on the basis of a component's lattice, and it is the family's known
answer: a group of the spanning-tree order on sparse spheres (Kirchhoff),
trivial on decorated spheres and chains, Z/g on two-component pairings with
gcd g."""

import random

import pytest

from helpers import bareiss_det, generators, random_unimodular, transform_component_basis
from zerocycle import corpus
from zerocycle.engine import compute_obstruction
from zerocycle.fiber import fiber_from_document

SPHERES = [(base, k) for base in ("tet", "oct", "ico") for k in (1, 2)]

RELABELED = {
    "sparse_oct2": lambda seed: generators.sphere_document("oct", 2, "sparse", seed),
    "decorated_tet2": lambda seed: generators.sphere_document("tet", 2, "decorated", seed),
    "chain9": lambda seed: generators.chain_document(9, seed),
}


def _h(doc: dict) -> tuple[int, tuple[int, ...]]:
    """H as its divisible rank and the divisor chain of its finite part."""
    homology = compute_obstruction(fiber_from_document(doc)).homology
    return homology.divisible_rank, homology.finite_part.divisor_chain


def _spanning_trees(base: str, k: int) -> int:
    """Any cofactor of the dual graph's Laplacian (Kirchhoff)."""
    n, edges = generators.sphere_edges(base, k)
    lap = [[0] * n for _ in range(n)]
    for a, b in edges:
        lap[a][a] += 1
        lap[b][b] += 1
        lap[a][b] = lap[b][a] = -1
    return abs(bareiss_det([row[:-1] for row in lap[:-1]]))


@pytest.mark.parametrize("name", sorted(RELABELED))
def test_h_ignores_order_and_lattice_basis(name):
    first, second = RELABELED[name](1), RELABELED[name](2)
    assert first["components"] != second["components"]  # the seeds reorder
    h = _h(first)
    assert _h(second) == h
    rng = random.Random(name)
    for index in (0, len(first["components"]) - 1):
        t, tinv = random_unimodular(rng, first["components"][index]["lattice_rank"])
        assert _h(transform_component_basis(first, index, t, tinv)) == h


@pytest.mark.parametrize("base,k", SPHERES)
def test_sparse_sphere_order_is_the_spanning_tree_count(base, k):
    rank, chain = _h(generators.sphere_document(base, k, "sparse", k))
    order = 1
    for d in chain:
        order *= d
    assert (rank, order) == (0, _spanning_trees(base, k))


@pytest.mark.parametrize("base,k", SPHERES)
def test_decorated_spheres_have_trivial_h(base, k):
    assert _h(generators.sphere_document(base, k, "decorated", k)) == (0, ())


@pytest.mark.parametrize("n", [2, 3, 8, 30])
def test_chains_have_trivial_h(n):
    assert _h(generators.chain_document(n, n)) == (0, ())


@pytest.mark.parametrize("g", [1, 2, 6, 35, 2**61 - 1])
def test_two_component_pairings_give_z_mod_g(g):
    for seed, count in ((1, 1), (2, 3), (3, 6)):
        left, right = generators.two_component_pairings(seed, g, count)
        assert _h(corpus.two_component_document(left, right)) == (0, (g,) if g > 1 else ())
