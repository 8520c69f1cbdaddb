"""Metamorphic checks of H on the benchmark's generated families
(``bench/generators.py``).  H does not depend on the order of the document
or on the basis of a component's lattice, and it is the family's known
answer: a group of the spanning-tree order on sparse spheres (Kirchhoff),
trivial on decorated spheres and chains, Z/g on two-component pairings with
gcd g.  Scaling every multiplicity by one k, or blowing up points of double
curves, leaves H unchanged: H belongs to the generic fiber, not to the
regular model; on those non-reduced models the local Smith form over
Z/ell^k and the enumeration oracle read the same H at ell = 2, 3 and 5.
On random general fibers (``helpers.general_fiber_documents``) a change
of every lattice basis, the scaling and a blow-up each leave the whole
report unchanged.
Listing a curve again adds a row of M that repeats an
earlier one, which leaves M's row lattice, and so H, unchanged.  On graph
fibers (``helpers.graph_document``) the whole divisor chain is known in
closed form: complete, complete bipartite and wheel graphs, the
Kodaira-Neron table, wedges and bridges, each against a chain built from
the primary decomposition; and a sqrt(3)-subdivided sparse sphere has the
chain of its triple-point graph (planar duality), certifies all-equal with
its boundary cycles as they are and reversed, and each certificate
replays.  Random edge flips of geodesic spheres reach arbitrary degree
sequences (Wagner 1936): each flipped sphere is type III, passes the sphere
test as its scanning reference does, and has H of the spanning-tree order;
flips of torus triangulations never pass the sphere test.  A flipped
sphere's boundary cycles follow its links: with every degree at most 6 it
certifies as the scanning reference does, its certificate replays, and
without the last step the replay is stuck; a degree above 6 breaks the
minus-one form."""

import copy
import json
import random
from collections import Counter
from itertools import combinations
from math import gcd, prod

import pytest

from helpers import (
    bareiss_det,
    blow_up_double_curve,
    dense_delta_matrix,
    derived_quotient,
    general_fiber_documents,
    generators,
    graph_document,
    invariant_factors,
    local_smith,
    random_unimodular,
    reference_eliminate_units,
    reference_is_sphere,
    reference_solve_type_iii,
    subdivide_sqrt3,
    surface_document,
    transform_component_basis,
    triangulated_document,
)
from zerocycle import corpus, engine, linalg
from zerocycle.consonance import consonance_solve, replay_certificate
from zerocycle.engine import compute_obstruction
from zerocycle.errors import MinusOneFormViolation, NonSemistable, NotKulikov
from zerocycle.fiber import delta_matrix, fiber_from_document
from zerocycle.groups import ell_primary, qz_complex_homology
from zerocycle.kulikov import classify_kulikov, is_sphere
from zerocycle.linalg import _eliminate_units, smith_normal_form
from zerocycle.oracle import stabilized_brute_force

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
    return _kirchhoff(*generators.sphere_edges(base, k))


def _kirchhoff(n: int, edges) -> int:
    """The number of spanning trees of a graph on n vertices: any cofactor
    of its Laplacian."""
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


#: the inputs of the scaling relation: every fiber fixture and one small
#: member of each generated family
SCALED = {
    **{name: json.loads(corpus.fixture_text(name)) for name in corpus.FIXTURE_NAMES if name != "kodaira_matrices"},
    "chain5": generators.chain_document(5, 1),
    "sparse_oct1": generators.sphere_document("oct", 1, "sparse", 1),
    "decorated_tet1": generators.sphere_document("tet", 1, "decorated", 1),
    "two_component_3": corpus.two_component_document(*generators.two_component_pairings(3, 6, 3)),
}


def _scaled(doc: dict, k: int) -> dict:
    """doc with every multiplicity scaled by k."""
    doc = copy.deepcopy(doc)
    for component in doc["components"]:
        component["multiplicity"] *= k
    return doc


def test_scaling_every_multiplicity_leaves_the_report_unchanged():
    # sum_j m_j c_ij = 0 is homogeneous in m, so M does not change, and
    # k (Q/Z) = Q/Z: the report is byte-identical.  The scaled fibers are
    # not reduced, so the classifier refuses them as non-semistable.
    nontrivial = 0
    for name, doc in SCALED.items():
        report = compute_obstruction(fiber_from_document(doc)).to_json()
        nontrivial += '"divisor_chain": []' not in report
        for k in (2, 3, 6):
            fiber = fiber_from_document(_scaled(doc, k))
            assert compute_obstruction(fiber).to_json() == report, (name, k)
            with pytest.raises(NonSemistable, match="; the fiber is not semistable$"):
                classify_kulikov(fiber)
    assert nontrivial >= 4  # the relation is tested on groups, not only on 0


def _blown_up(doc: dict):
    """The fiber after one, two and three blow-ups: at a point of the first
    double curve, then of the newest curve (on the last exceptional
    divisor, so multiplicities add up again), then of the last of the
    original curves."""
    first, last = doc["double_curves"][0]["label"], doc["double_curves"][-1]["label"]
    doc = blow_up_double_curve(doc, first)
    yield 1, doc
    doc = blow_up_double_curve(doc, doc["double_curves"][-1]["label"])
    yield 2, doc
    yield 3, blow_up_double_curve(doc, last)


def test_blowing_up_a_point_of_a_double_curve_leaves_h_and_the_status_unchanged():
    nontrivial = 0
    for name, doc in SCALED.items():
        if not doc["double_curves"]:
            continue
        report = compute_obstruction(fiber_from_document(doc))
        nontrivial += bool(report.homology.finite_part.divisor_chain)
        for count, blown in _blown_up(doc):
            fiber = fiber_from_document(blown)
            again = compute_obstruction(fiber)
            assert (again.homology, again.status) == (report.homology, report.status), (name, count)
            assert len(fiber.components) == len(doc["components"]) + count
            # the exceptional divisors are not reduced
            with pytest.raises(NonSemistable, match="; the fiber is not semistable$"):
                classify_kulikov(fiber)
    assert nontrivial >= 4


def test_general_fibers_keep_their_report_under_basis_changes_scaling_and_blow_ups():
    # the three relations above on random general fibers
    # (helpers.general_fiber_documents): a unimodular change of every
    # component's lattice basis, every multiplicity scaled by one k, and a
    # blow-up at a point of one double curve each leave the report as it is
    pytest.importorskip("hypothesis")
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    seen = Counter()

    def report(doc: dict) -> dict:
        return compute_obstruction(fiber_from_document(doc)).to_json_dict()

    @settings(max_examples=30, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(doc=general_fiber_documents(), seed=st.integers(0, 2**32 - 1), k=st.integers(2, 6), data=st.data())
    def check(doc, seed, k, data):
        want = report(doc)
        rng = random.Random(seed)
        changed = doc
        for index, component in enumerate(doc["components"]):
            changed = transform_component_basis(changed, index, *random_unimodular(rng, component["lattice_rank"]))
        assert report(changed) == want
        assert report(_scaled(doc, k)) == want
        label = data.draw(st.sampled_from([d["label"] for d in doc["double_curves"]]))
        assert report(blow_up_double_curve(doc, label)) == want
        seen["non-trivial"] += bool(want["divisor_chain"])
        seen["divisible"] += want["divisible_rank"] > 0

    check()
    assert min(seen.values()) > 0 and len(seen) == 2, seen


def test_the_oracle_reads_the_capped_chains_on_a_blown_up_octahedron():
    doc = json.loads(corpus.fixture_text("octahedron"))
    m, v = delta_matrix(fiber_from_document(blow_up_double_curve(doc, doc["double_curves"][0]["label"])))
    low, high, stable = stabilized_brute_force(v, m, 2, 2)
    assert (low.divisor_chain, high.divisor_chain, stable) == ((2, 4, 4), (2, 8, 8), False)


def _non_reduced(doc: dict):
    """doc with every multiplicity scaled by 2 and by 3, then each blow-up
    ``_blown_up`` yields."""
    yield from ((f"x{k}", _scaled(doc, k)) for k in (2, 3))
    if doc["double_curves"]:
        yield from ((f"blown up {count}", blown) for count, blown in _blown_up(doc))


@pytest.mark.parametrize("ell", [2, 3, 5])
def test_the_local_smith_form_and_the_oracle_read_h_on_non_reduced_models(ell):
    # two oracles independent of the Smith normal form: M over Z/ell^k, with
    # k one past the ell-valuation of |H|, has M's rank and H's ell-part;
    # enumeration at levels ell^2 and ell^3 sees that ell-part capped there
    nontrivial = 0
    for name, doc in SCALED.items():
        for variant, changed in _non_reduced(doc):
            fiber = fiber_from_document(changed)
            report = compute_obstruction(fiber)
            chain = ell_primary(report.homology.finite_part, ell).divisor_chain
            level = 1
            while prod(chain) % ell**level == 0:
                level += 1
            m, v = delta_matrix(fiber)
            assert local_smith(m, ell, level) == (report.matrix_rank, chain), (name, variant)
            low, high, _ = stabilized_brute_force(v, m, ell, 2)
            capped = [tuple(min(d, ell**n) for d in chain) for n in (2, 3)]
            assert [low.divisor_chain, high.divisor_chain] == capped, (name, variant)
            nontrivial += bool(chain)
    assert bool(nontrivial) == (ell != 5)  # no fiber here has 5 | |H|


def _repeated_curves(doc: dict, rng: random.Random) -> dict:
    """doc with each component's curves listed 1-3 times, in shuffled order."""
    doc = copy.deepcopy(doc)
    for component in doc["components"]:
        curves = [curve for curve in component["curves"] for _ in range(rng.randint(1, 3))]
        rng.shuffle(curves)
        component["curves"] = curves
    return doc


def test_repeating_curves_shares_rows_and_leaves_the_report_unchanged():
    rng = random.Random("repeated curves")
    shared = 0
    for name, doc in SCALED.items():
        report = compute_obstruction(fiber_from_document(doc))
        fiber = fiber_from_document(_repeated_curves(doc, rng))
        again = compute_obstruction(fiber)
        assert again.to_json() == report.to_json(), name
        listed = sum(len(comp.curves) for comp in fiber.components)
        assert (again.matrix_rows, again.matrix_rank) == (listed, report.matrix_rank), name
        m, _ = delta_matrix(fiber)
        assert m == dense_delta_matrix(fiber), name
        rows = iter(m.sparse_rows)
        for comp in fiber.components:
            first = {}
            for curve in comp.curves:
                row = next(rows)
                assert first.setdefault(curve, row) is row, (name, comp.id, curve)
            shared += len(comp.curves) - len(first)
    assert shared >= 20  # the repeats were listed, not only drawn once each


def test_no_stage_writes_a_row_of_m(monkeypatch):
    # equal curves share one row dict, so the SNF, the engine and the oracle
    # must only read the rows of M
    built = []

    def recording(fiber):
        m, v = delta_matrix(fiber)
        built.append((m, copy.deepcopy(m.sparse_rows)))
        return m, v

    monkeypatch.setattr(engine, "delta_matrix", recording)
    rng = random.Random("shared rows")
    for doc in SCALED.values():
        fiber = fiber_from_document(_repeated_curves(doc, rng))
        compute_obstruction(fiber)
        m, _ = delta_matrix(fiber)
        before = copy.deepcopy(m.sparse_rows)
        smith_normal_form(m)
        assert m.sparse_rows == before
    assert len(built) == len(SCALED)
    for m, before in built:
        assert m.sparse_rows == before
    m, v = delta_matrix(fiber_from_document(corpus.two_component_document((2, 6, 2), (6, 2, 6))))
    assert m.sparse_rows[0] is m.sparse_rows[2] and m.sparse_rows[3] is m.sparse_rows[5]
    before = copy.deepcopy(m.sparse_rows)
    low, high, stable = stabilized_brute_force(v, m, 2, 2)
    assert (low.divisor_chain, high.divisor_chain, stable) == ((2,), (2,), True)
    assert m.sparse_rows == before


# --- whole divisor chains in closed form ------------------------------------------
#
# A Smith step that kept |H| but merged or split summands would pass every
# Kirchhoff check, so these compare the whole chain, on graph fibers whose H
# is known in closed form.  Each case is (vertices, edges, multiplicities,
# the orders of H's cyclic summands).


def _complete(n: int):
    return n, list(combinations(range(n), 2)), None


def _bipartite(m: int, n: int):
    return m + n, [(i, m + j) for i in range(m) for j in range(n)], None


def _wheel(n: int):
    # hub 0 and the rim 1, ..., n
    return n + 1, [(0, i) for i in range(1, n + 1)] + [(i, i % n + 1) for i in range(1, n + 1)], None


def _wheel_group(n: int) -> list[int]:
    # Z/L_n + Z/L_n for odd n, Z/F_n + Z/5F_n for even n, with L and F the
    # Lucas and Fibonacci numbers (Biggs 1999)
    lucas, fib = (2, 1), (0, 1)
    for _ in range(n):
        lucas, fib = (lucas[1], sum(lucas)), (fib[1], sum(fib))
    return [lucas[0]] * 2 if n % 2 else [fib[0], 5 * fib[0]]


def _kodaira_i_star(n: int):
    # D~_{n+4}: a chain of n + 1 components of multiplicity 2, with two of
    # multiplicity 1 at each end
    edges = [(i, i + 1) for i in range(n)] + [(0, n + 1), (0, n + 2), (n, n + 3), (n, n + 4)]
    return n + 5, edges, [2] * (n + 1) + [1] * 4


def _chain_and_leaf(mults: list[int], at: int, leaf: int):
    # E~_7 and E~_8: a chain with one more component meeting its ``at``-th
    n = len(mults)
    return n + 1, [(i, i + 1) for i in range(n - 1)] + [(at, n)], mults + [leaf]


def _joined(first, second, bridge: bool):
    # the wedge identifies first's last vertex with second's vertex 0; the
    # bridge joins them by one more edge
    (n, edges, _), (m, more, _) = first, second
    shift = n if bridge else n - 1
    joined = edges + [(a + shift, b + shift) for a, b in more] + ([(n - 1, n)] if bridge else [])
    return shift + m, joined, None


CLOSED_FORMS = {
    # K_n: (Z/n)^(n-2)
    **{f"K{n}": (*_complete(n), [n] * (n - 2)) for n in range(3, 13)},
    # K_{m,n}: Z/mn + (Z/m)^(n-2) + (Z/n)^(m-2) (Lorenzini 1991)
    **{f"K{m},{n}": (*_bipartite(m, n), [m * n] + [m] * (n - 2) + [n] * (m - 2))
       for m, n in ((2, 3), (3, 5), (4, 6))},
    **{f"W{n}": (*_wheel(n), _wheel_group(n)) for n in (5, 6, 30, 31)},
    # the Kodaira-Neron table: H is the component group of the Neron model
    **{f"I{n}": (n, [(i, (i + 1) % n) for i in range(n)], None, [n]) for n in (2, 3, 40)},
    **{f"I{n}*": (*_kodaira_i_star(n), [2, 2] if n % 2 == 0 else [4]) for n in (0, 1, 2, 7)},
    "IV*": (7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)], [3, 2, 1, 2, 1, 2, 1], [3]),
    "III*": (*_chain_and_leaf([1, 2, 3, 4, 3, 2, 1], 3, 2), [2]),
    "II*": (*_chain_and_leaf([1, 2, 3, 4, 5, 6, 4, 2], 5, 3), []),
    # H(A) + H(B) for a wedge or a bridge of A = K_6 and B = W_7
    "K6 wedge W7": (*_joined(_complete(6), _wheel(7), False), [6] * 4 + _wheel_group(7)),
    "K6 bridge W7": (*_joined(_complete(6), _wheel(7), True), [6] * 4 + _wheel_group(7)),
}


def test_the_independent_chain_builder_on_literal_chains():
    assert invariant_factors([]) == invariant_factors([1, 1]) == ()
    assert invariant_factors([15, 3, 3, 3, 5]) == (3, 3, 15, 15)  # K_{3,5}
    assert invariant_factors([24, 4, 4, 4, 4, 6, 6]) == (2, 2, 4, 4, 12, 12, 24)  # K_{4,6}
    assert invariant_factors([6] * 4 + [29, 29]) == (6, 6, 174, 174)  # K_6 wedge W_7
    assert invariant_factors([8, 40]) == (8, 40)  # W_6
    assert invariant_factors([4]) == (4,) and invariant_factors([2, 2]) == (2, 2)  # I_1*, I_0*
    assert invariant_factors([2**5 * 7, 2**3 * 7**2, 3]) == (56, 4704)


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_graph_fibers_have_the_closed_form_divisor_chain(name):
    n, edges, multiplicities, summands = CLOSED_FORMS[name]
    want = invariant_factors(summands)
    if all(b % a == 0 for a, b in zip(summands, summands[1:])):
        assert want == tuple(s for s in summands if s > 1)  # already a chain
    assert _h(graph_document(n, edges, multiplicities)) == (0, want)


def test_unit_elimination_matches_the_draining_reference_on_the_families():
    # every graph fiber above and the sparse and decorated spheres, in two
    # labellings: the same unit pivots and core as the draining reference,
    # on M as delta_matrix leaves it, with v recorded
    docs = {name: graph_document(n, edges, mults) for name, (n, edges, mults, _) in CLOSED_FORMS.items()}
    docs |= {f"{variant} {base}{k}#{seed}": generators.sphere_document(base, k, variant, seed)
             for base, k in SPHERES for variant in ("sparse", "decorated") for seed in (k, 7)}
    cores = Counter()
    for name, doc in docs.items():
        m, _ = delta_matrix(fiber_from_document(doc))
        units, core = _eliminate_units(m)
        assert (units, core) == reference_eliminate_units(m), name
        cores[bool(core)] += 1
    assert cores[True] >= 20 and cores[False] >= 10, cores


def _two_three_document(rng, n: int) -> dict:
    """A graph fiber on n components with multiplicities 2 and 3 alone (both
    present), so gcd(v) = 1 and no entry of v is +-1: a path and one more
    double curve, rank-1 lattices, double-curve classes 1-4 and one curve of
    class 1 or 2 per component.  Each component's class on its first
    incident curve whose far side's multiplicity is prime to its own is
    chosen to make the weighted class sum divisible."""
    mults = [2, 3] + [rng.choice((2, 3)) for _ in range(n - 2)]
    rng.shuffle(mults)
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)] * (n > 2)
    doc = graph_document(n, edges, mults)
    ends = [[] for _ in range(n)]  # per component: (its side of each incident curve, far side)
    for curve, (a, b) in zip(doc["double_curves"], edges):
        curve["class_in_left"], curve["class_in_right"] = [rng.randint(1, 4)], [rng.randint(1, 4)]
        ends[a].append((curve["class_in_left"], b))
        ends[b].append((curve["class_in_right"], a))
    for i, m in enumerate(mults):
        movable = [(cls, mults[j]) for cls, j in ends[i] if mults[j] % m]
        if movable:
            cls, far = movable[0]
            rest = sum(mults[j] * c[0] for c, j in ends[i] if c is not cls)
            cls[0] = -rest * pow(far, -1, m) % m or m
    for component in doc["components"]:
        component["curves"] = [[rng.randint(1, 2)]]
    return doc


def test_the_quotient_keeps_the_divisors_on_fixtures_and_families():
    # SNF of the M' qz_complex_homology eliminates is SNF(M) less one zero
    # (helpers.checked_quotient), and that of the M' the constructor builds
    # (helpers.derived_quotient): a unit column of v is dropped on every
    # fixture and family, a column where v is gcd(v) = 2 or 3 on the scaled
    # fibers, and none where the multiplicities are only 2 and 3 or M is 0
    docs = {name: graph_document(n, edges, mults) for name, (n, edges, mults, _) in CLOSED_FORMS.items()}
    docs |= {f"{variant} {base}{k}": generators.sphere_document(base, k, variant, k)
             for base, k in SPHERES for variant in ("sparse", "decorated")}
    docs |= {f"chain{n}": generators.chain_document(n, n) for n in (2, 9, 40)}
    docs |= {f"two_component g={g}": corpus.two_component_document(*generators.two_component_pairings(g, g, 3))
             for g in (1, 6, 30)}
    docs |= {f"{name} x{k}": _scaled(doc, k) for name, doc in SCALED.items() for k in (2, 3)}
    rng = random.Random(51)
    docs |= {f"2-3 #{i}": _two_three_document(rng, rng.randint(2, 8)) for i in range(30)}
    paths = Counter()
    for name, doc in docs.items():
        m, v = delta_matrix(fiber_from_document(doc))
        quotient = derived_quotient(v, m)
        g = gcd(*v)
        paths["kept" if quotient is m else "dropped" if g == 1 else "dropped, gcd > 1"] += 1
        assert (quotient is m) == (name.startswith("2-3") or not m._columns), name
    # good_reduction's M is 0, scaled or not
    assert paths["kept"] == 30 + 2 and paths["dropped, gcd > 1"] == 2 * len(SCALED) - 2, paths
    assert paths["dropped"] >= 40, paths


def _compute_documents() -> dict[str, dict]:
    """Every fiber fixture and the benchmark's ``compute`` families at
    their sizes there, at seed 1."""
    docs = {name: json.loads(corpus.fixture_text(name)) for name in corpus.FIXTURE_NAMES if name != "kodaira_matrices"}
    docs |= {f"chain{n}": generators.chain_document(n, 1) for n in (40, 60, 80, 100)}
    docs |= {f"decorated {base}{k}": generators.sphere_document(base, k, "decorated", 1)
             for base, k in (("tet", 3), ("oct", 2), ("ico", 1), ("oct", 3), ("ico", 2))}
    docs |= {f"sparse {base}{k}": generators.sphere_document(base, k, "sparse", 1)
             for base, k in (("tet", 3), ("oct", 2), ("ico", 1), ("tet", 4))}
    docs |= {f"two_component {n}": corpus.two_component_document(*generators.two_component_pairings(1, 6, n))
             for n in range(150, 451, 50)}
    return docs


def test_the_derived_quotient_keeps_the_divisors_on_fixtures_and_compute_families():
    # on every document but good_reduction (whose M is 0) a column is
    # dropped, and M' derived from M's checked rows has the rank and
    # divisors of M and of the M' the constructor builds
    # (helpers.derived_quotient)
    for name, doc in _compute_documents().items():
        m, v = delta_matrix(fiber_from_document(doc))
        assert (derived_quotient(v, m) is m) == (name == "good_reduction"), name


def test_compute_runs_the_matrix_constructor_once(monkeypatch):
    # for M alone: M' is derived from M's checked rows
    built = []

    def counted(self, *args, _original=linalg.IntegerMatrix.__init__):
        built.append(None)
        _original(self, *args)

    monkeypatch.setattr(linalg.IntegerMatrix, "__init__", counted)
    for name, doc in _compute_documents().items():
        fiber = fiber_from_document(doc)
        built.clear()
        compute_obstruction(fiber)
        assert len(built) == 1, name


def test_the_homology_eliminates_a_core_of_full_column_rank(monkeypatch):
    # dropping v's column leaves M' of full rank on the columns it meets, so
    # the unit phase hands _core_divisors a core with no zero summand
    cores = []

    def spy(a, _original=linalg._core_divisors):
        rank, divisors = _original(a)
        cores.append((rank, len(a[0]) if a else 0))
        return rank, divisors

    monkeypatch.setattr(linalg, "_core_divisors", spy)
    docs = {name: json.loads(corpus.fixture_text(name)) for name in corpus.FIXTURE_NAMES if name != "kodaira_matrices"}
    docs |= {
        "chain40": generators.chain_document(40, 1),
        "decorated oct2": generators.sphere_document("oct", 2, "decorated", 2),
        "sparse tet4": generators.sphere_document("tet", 4, "sparse", 4),
        "two_component": corpus.two_component_document(*generators.two_component_pairings(1, 6, 3)),
    }
    shapes = {}
    for name, doc in docs.items():
        m, v = delta_matrix(fiber_from_document(doc))
        cores.clear()
        assert qz_complex_homology(v, m).divisible_rank == 0, name
        ((rank, cols),) = cores
        assert rank == cols, name
        shapes[name] = cols
    assert shapes["sparse tet4"] > 0 and shapes["octahedron"] == 3, shapes


@pytest.mark.parametrize("base,k", [("tet", 1), ("oct", 2), ("ico", 3)])
def test_sqrt3_subdivided_sparse_spheres(base, k):
    # one step of Kobbelt's subdivision gives a class-II triangulation,
    # which no frequency-k geodesic sphere is.  Fixed-width names keep the
    # concatenated double-curve labels distinct
    n, triangles = subdivide_sqrt3(*generators.geodesic_sphere(base, k))
    names = [f"v{i:04d}" for i in range(n)]
    doc = _with_link_cycles(triangulated_document([tuple(names[v] for v in t) for t in triangles]))
    fiber = fiber_from_document(doc)
    assert classify_kulikov(fiber).kind == "III"
    assert is_sphere(fiber).is_sphere
    certificate = consonance_solve(fiber)
    assert certificate.conclusion == replay_certificate(fiber, certificate) == "all-equal"
    # mirror relation: with every cycle reversed the fiber certifies with the
    # same conclusion, and its certificate replays
    mirrored = copy.deepcopy(doc)
    for comp in mirrored["components"]:
        comp["anticanonical_cycle"]["branches"].reverse()
    mirror = fiber_from_document(mirrored)
    again = consonance_solve(mirror)
    assert again.conclusion == replay_certificate(mirror, again) == "all-equal"
    rank, chain = _h(doc)
    edges = {tuple(sorted(p)) for t in triangles for p in combinations(t, 2)}
    assert (rank, prod(chain)) == (0, _kirchhoff(n, edges))
    # planar duality (Cori-Rossin 2000): the triple-point graph, one vertex
    # per triple point and one edge per double curve, has the same critical
    # group
    faces: dict[tuple[int, int], list[int]] = {}
    for face, t in enumerate(triangles):
        for edge in combinations(sorted(t), 2):
            faces.setdefault(edge, []).append(face)
    assert _h(graph_document(len(triangles), list(faces.values()))) == (0, chain)


# --- triangulations by random edge flips ------------------------------------------


def _flipped(doc: dict, flips: int, rng: random.Random, parallel: bool, cap: int | None = None) -> dict:
    """The surface of ``doc``'s curves and faces after ``flips`` random edge
    flips, as ``surface_document`` builds it, with each component's boundary
    cycle in the cyclic order of its link.  A flip trades the faces
    (a, b, c) and (a, b, d) on a curve a-b for (a, c, d) and (b, c, d) on a
    new curve c-d.  Without ``parallel`` no flip joins a pair that is already
    joined, so a simplicial sphere stays one; with it only c = d is refused,
    which a torus whose graph is complete needs.  With ``cap`` no flip
    raises a degree above it."""
    curves = {d["label"]: (d["left"], d["right"]) for d in doc["double_curves"]}
    faces = [frozenset(t["edges"]) for t in doc["triple_points"]]
    for k in range(flips):
        e = rng.choice(sorted(curves))
        (i, first), (j, second) = [(n, f) for n, f in enumerate(faces) if e in f]
        a, b = curves[e]
        (ac, bc), (ad, bd) = (sorted(f - {e}, key=lambda x: b in curves[x]) for f in (first, second))
        c, d = (next(v for v in curves[x] if v != a) for x in (ac, ad))
        joined = {frozenset(pair) for pair in curves.values()}
        if c == d or not parallel and {c, d} in joined:
            continue
        if cap is not None and max(Counter(v for pair in curves.values() for v in pair)[x] for x in (c, d)) >= cap:
            continue
        del curves[e]
        curves[f"flip{k}"] = (c, d)
        faces[i], faces[j] = frozenset({ac, ad, f"flip{k}"}), frozenset({bc, bd, f"flip{k}"})
    return _with_link_cycles(
        surface_document(curves, [(sorted({v for e in f for v in curves[e]}), sorted(f)) for f in faces])
    )


def _with_link_cycles(doc: dict) -> dict:
    """``doc`` with each component's boundary cycle: its curves in the cyclic
    order of its link, so two consecutive branches share a face.  Each face
    at a component joins the two of its curves that end there."""
    sides = {d["label"]: (d["left"], d["right"]) for d in doc["double_curves"]}
    links: dict[str, dict[str, list[str]]] = {}
    for t in doc["triple_points"]:
        for v in t["components"]:
            a, b = [e for e in t["edges"] if v in sides[e]]
            links.setdefault(v, {}).setdefault(a, []).append(b)
            links[v].setdefault(b, []).append(a)
    for comp in doc["components"]:
        link = links[comp["id"]]
        order = [min(link)]
        while len(order) < len(link):  # each step leaves by the face it did not come through
            order.append(next(e for e in link[order[-1]] if e not in order[-2:]))
        comp["anticanonical_cycle"] = {"branches": [{"edge": e, "nodal": False} for e in order]}
    return doc


#: geodesic spheres of 10 to 42 components
_FLIPPED_BASES = [("tet", 2), ("tet", 3), ("tet", 4), ("oct", 2), ("oct", 3), ("ico", 1), ("ico", 2)]


def test_flipped_spheres_are_type_iii_with_the_spanning_tree_order():
    degrees = set()
    for seed in range(35):
        rng = random.Random(seed)
        n, triangles = generators.geodesic_sphere(*_FLIPPED_BASES[seed % len(_FLIPPED_BASES)])
        names = [f"v{i:02d}" for i in range(n)]
        doc = _flipped(triangulated_document([[names[v] for v in t] for t in triangles]),
                       rng.randrange(4 * n + 1), rng, parallel=False)
        fiber = fiber_from_document(doc)
        assert classify_kulikov(fiber).kind == "III", seed
        check = is_sphere(fiber)
        assert check == reference_is_sphere(fiber) and check.is_sphere, seed
        rank, chain = _h(doc)
        index = {v: i for i, v in enumerate(names)}
        edges = [(index[d["left"]], index[d["right"]]) for d in doc["double_curves"]]
        assert (rank, prod(chain)) == (0, _kirchhoff(n, edges)), seed
        degrees |= {len(fiber._ends[v]) for v in names}
    assert min(degrees) == 3 and max(degrees) > 10  # far from the geodesic spheres' 3 to 6


#: geodesic spheres with no degree 6, so flips that keep every degree at most
#: 6 still move them
_CAPPED_BASES = [("oct", 1), ("ico", 1)]


def test_flipped_spheres_certify_as_the_reference_does():
    # two seeds in three flip with every degree kept at most 6: such a sphere
    # certifies as the scanning reference does, its certificate replays, and
    # without its last step the replay is stuck.  The third flips freely, and
    # a degree above 6 breaks the minus-one form
    certified = moved = violated = 0
    for seed in range(36):
        rng = random.Random(seed)
        cap = 6 if seed % 3 else None
        bases = _CAPPED_BASES if cap else _FLIPPED_BASES
        n, triangles = generators.geodesic_sphere(*bases[seed % len(bases)])
        names = [f"v{i:02d}" for i in range(n)]
        doc = _flipped(triangulated_document([[names[v] for v in t] for t in triangles]),
                       rng.randrange(4 * n + 1), rng, parallel=False, cap=cap)
        fiber = fiber_from_document(doc)
        if max(map(len, fiber._ends.values())) > 6:
            with pytest.raises(MinusOneFormViolation):
                consonance_solve(fiber)
            violated += 1
            continue
        certificate = consonance_solve(fiber)
        assert certificate == reference_solve_type_iii(fiber), seed
        assert replay_certificate(fiber, certificate) == "all-equal", seed
        truncated = certificate.__replace__(steps=certificate.steps[:-1])
        assert replay_certificate(fiber, truncated) == "stuck", seed
        certified += 1
        moved += any(d.label.startswith("flip") for d in fiber.double_curves)
    assert moved >= 20 and violated >= 10, (certified, moved, violated)


def _grid_torus(k: int) -> list[tuple[str, str, str]]:
    """The k x k grid on the torus, each square cut along one diagonal."""
    def v(i: int, j: int) -> str:
        return f"g{i % k}{j % k}"

    return [t for i in range(k) for j in range(k)
            for t in ((v(i, j), v(i + 1, j), v(i, j + 1)), (v(i + 1, j), v(i + 1, j + 1), v(i, j + 1)))]


def test_flipped_tori_are_not_spheres():
    tori = [json.loads(corpus.fixture_text("hexagon_torus")), triangulated_document(_grid_torus(4))]
    parallel = 0
    for seed in range(12):
        rng = random.Random(seed)
        fiber = fiber_from_document(_flipped(tori[seed % 2], rng.randrange(1, 40), rng, parallel=True))
        parallel += len({frozenset((d.left, d.right)) for d in fiber.double_curves}) < len(fiber.double_curves)
        check = is_sphere(fiber)
        assert check == reference_is_sphere(fiber), seed
        assert (check.is_sphere, check.diagnostics) == (False, "Euler characteristic is 0, not 2"), seed
        with pytest.raises(NotKulikov, match="^dual complex is not a 2-sphere: Euler characteristic is 0"):
            classify_kulikov(fiber)
    assert parallel  # some flips joined a pair twice
