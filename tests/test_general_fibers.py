"""Random general fibers (``helpers.general_fiber_documents``): several
curves per component, some listed twice, on lattices of rank 1-3, with
multiplicities 1-3, so H is often non-cyclic, M shares row dicts and a
prime may divide gcd(v).  The divisor chain is checked against the local
Smith form over Z/ell^k at ell = 2, 3, 5 and 7, the oracle's levels 2 and 3
against the chain capped there where the divisible rank is 0, and the
report against the same fiber relabelled and reordered."""

import random
from collections import Counter
from math import gcd, prod

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from helpers import general_fiber_documents, local_smith, relabelled_document  # noqa: E402
from zerocycle.engine import compute_obstruction  # noqa: E402
from zerocycle.fiber import delta_matrix, fiber_from_document, fiber_to_document  # noqa: E402
from zerocycle.groups import ell_primary  # noqa: E402
from zerocycle.oracle import stabilized_brute_force  # noqa: E402


def test_general_fibers_match_the_local_smith_form_the_oracle_and_a_relabelling():
    # Z/ell^k with k one past the ell-valuation of |H| sees M's rank and
    # every ell-part of a divisor; enumeration at levels ell^2 and ell^3
    # sees that ell-part capped there.  The draws reach non-cyclic H on
    # rank-3 lattices, shared rows, a positive divisible rank and the
    # oracle at an ell dividing gcd(v), where its pin p is a unit of v with
    # that ell-power stripped, and M's record holds a non-primitive v
    seen = Counter()

    @settings(max_examples=40, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(doc=general_fiber_documents(), seed=st.integers(0, 2**32 - 1))
    def check(doc, seed):
        fiber = fiber_from_document(doc)
        assert fiber_from_document(fiber_to_document(fiber)) == fiber
        report = compute_obstruction(fiber)
        m, v = delta_matrix(fiber)
        for ell in (2, 3, 5, 7):
            chain = ell_primary(report.homology.finite_part, ell).divisor_chain
            level = 1
            while prod(chain) % ell**level == 0:
                level += 1
            assert local_smith(m, ell, level) == (report.matrix_rank, chain), ell
            if not report.homology.divisible_rank:
                for n in (2, 3):
                    low, high, _ = stabilized_brute_force(v, m, ell, n)
                    capped = [tuple(min(d, ell**k) for d in chain) for k in (n, n + 1)]
                    assert [low.divisor_chain, high.divisor_chain] == capped, (ell, n)
                seen["ell divides gcd(v)"] += gcd(*v) % ell == 0
                seen["an entry of at least ell^3"] += any(d >= ell**3 for d in chain)
        again = compute_obstruction(fiber_from_document(relabelled_document(doc, random.Random(seed))))
        assert (again.to_json(), again.to_text()) == (report.to_json(), report.to_text())
        rank_three = max(c.lattice_rank for c in fiber.components) == 3
        seen["non-cyclic on rank 3"] += rank_three and len(report.homology.finite_part.divisor_chain) > 1
        seen["shared rows"] += len(set(map(id, m.sparse_rows))) < m.rows
        seen["divisible"] += report.homology.divisible_rank > 0

    check()
    assert min(seen.values()) > 0 and len(seen) == 5, seen
