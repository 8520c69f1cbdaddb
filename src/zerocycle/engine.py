"""End-to-end obstruction computation.

For a validated fiber this assembles the curve-pairing matrix, computes the
homology of the Q/Z complex, and packages the result: the finite group dual
to the non-divisible part of degree-zero 0-cycles on the generic fiber, with
an exact/upper-bound status depending on whether the first cohomology of the
geometric generic fiber is known to vanish.

Also houses the exactness check for reduced curve degenerations (intersection
matrix against multiplicity vector).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from ._record import Record
from .errors import NotAComplex
from .fiber import SpecialFiber, delta_matrix, fiber_warnings
from .groups import QZHomology, _homology, ell_primary
from .linalg import IntegerMatrix, exact_ints, smith_normal_form

EXACT_NOTE = (
    "for every prime l invertible in the residue field, the l-primary part of H "
    "is the obstruction to l-divisibility of degree-zero 0-cycles on the generic "
    "fiber (dual to A0 completed at l), under the criterion's hypotheses"
)
UPPER_BOUND_NOTE = (
    "first cohomology of the geometric generic fiber was not asserted to vanish: "
    "the true dual group is a quotient of the kernel computed here, so H is only "
    "an upper bound"
)


@dataclass(frozen=True)
class ObstructionReport:
    fiber_name: str
    homology: QZHomology
    status: str  # "exact" | "upper_bound"
    per_prime: tuple[tuple[int, tuple[int, ...]], ...]
    warnings: tuple[str, ...]
    matrix_rows: int
    matrix_cols: int
    matrix_rank: int

    @property
    def interpretation(self) -> str:
        return EXACT_NOTE if self.status == "exact" else UPPER_BOUND_NOTE

    def to_json_dict(self) -> dict:
        # field order is part of the output contract
        return {
            "fiber": self.fiber_name,
            "status": self.status,
            "divisible_rank": self.homology.divisible_rank,
            "divisor_chain": list(self.homology.finite_part.divisor_chain),
            "per_prime": {str(p): list(chain) for p, chain in self.per_prime},
            "warnings": list(self.warnings),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    def to_text(self) -> str:
        lines = [
            f"fiber: {self.fiber_name}",
            f"status: {self.status}",
            f"group: {self.homology.finite_part}",
            f"divisor chain: {list(self.homology.finite_part.divisor_chain)}",
            f"divisible rank: {self.homology.divisible_rank}",
        ]
        if self.per_prime:
            lines.append("per-prime:")
            lines.extend(f"  {p}: {list(chain)}" for p, chain in self.per_prime)
        else:
            lines.append("per-prime: (none)")
        lines.append(
            f"matrix: {self.matrix_rows} x {self.matrix_cols}, rank {self.matrix_rank}"
        )
        if self.warnings:
            lines.append("warnings:")
            lines.extend(f"  - {w}" for w in self.warnings)
        lines.append(f"note: {self.interpretation}")
        return "\n".join(lines)


def compute_obstruction(fiber: SpecialFiber, prime: int | None = None) -> ObstructionReport:
    """Compute the obstruction group for a validated fiber.

    One Smith normal form captures every prime simultaneously.  The per-prime
    table holds the ell-part of H for ``prime`` alone when one is given, which
    needs no factoring; otherwise it holds every prime dividing the order of
    H, found by factoring its largest invariant factor.  A positive divisible
    rank violates the finiteness the criterion guarantees for honest
    degenerations and is reported as a warning rather than an error, to keep
    exploratory inputs alive.
    """
    m, _ = delta_matrix(fiber)  # checks M v = 0 as it builds M
    homology = _homology(m)
    rank = m.cols - 1 - homology.divisible_rank

    warnings = list(fiber_warnings(fiber))
    if homology.divisible_rank > 0:
        warnings.append(
            f"homology has divisible rank {homology.divisible_rank}: the data is "
            "inconsistent with a genuine degeneration (curve lists too sparse, or "
            "the fiber does not come from a regular model)"
        )

    primes = homology.finite_part.primes() if prime is None else (prime,)
    per_prime = tuple((p, ell_primary(homology.finite_part, p).divisor_chain) for p in primes)
    status = "exact" if fiber.h1_geometric_vanishes else "upper_bound"
    return ObstructionReport(
        fiber_name=fiber.name,
        homology=homology,
        status=status,
        per_prime=per_prime,
        warnings=tuple(warnings),
        matrix_rows=m.rows,
        matrix_cols=m.cols,
        matrix_rank=rank,
    )


class CurveDegenerationCheck(Record):
    __slots__ = ("exact", "size", "rank", "diagnostics")

    def __init__(self, exact: bool, size: int, rank: int, diagnostics: str | None):
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "diagnostics", diagnostics)

    def __str__(self) -> str:
        if self.exact:
            return f"exact (rank {self.rank} = {self.size} - 1)"
        return f"not exact: {self.diagnostics}"


def validate_curve_degeneration(
    n_matrix: IntegerMatrix, multiplicities: Sequence[int]
) -> CurveDegenerationCheck:
    """Exactness over Q of  Q^I --N--> Q^I --m^T--> Q  at the middle, for the
    intersection matrix N of the reduced special fiber of a curve
    degeneration.  Given m^T N = 0 (checked; else this is not a complex),
    exactness is equivalent to rank(N) = |I| - 1.
    """
    m = exact_ints(multiplicities, "multiplicities")
    if n_matrix.rows != n_matrix.cols:
        raise ValueError("intersection matrix must be square")
    if not n_matrix.is_symmetric():
        raise ValueError("intersection matrix must be symmetric")
    if len(m) != n_matrix.rows:
        raise ValueError("multiplicity vector length does not match matrix size")
    if any(x < 1 for x in m):
        raise ValueError("multiplicities must be strictly positive")
    image = n_matrix.mul_vector(m)
    if any(image):
        raise NotAComplex(f"m^T N != 0 (got {image}); the sequence is not a complex")
    size = n_matrix.rows
    rank = smith_normal_form(n_matrix).rank
    if rank == size - 1:
        return CurveDegenerationCheck(exact=True, size=size, rank=rank, diagnostics=None)
    return CurveDegenerationCheck(
        exact=False,
        size=size,
        rank=rank,
        diagnostics=f"rank {rank} != {size} - 1; the middle homology is nonzero",
    )
