"""Exception hierarchy shared across the package.

Library code raises these instead of returning sentinel values; the CLI maps
them onto its exit-code contract (1 = bad input, 2 = internal inconsistency,
3 = usage/IO).
"""

from __future__ import annotations


class ZeroCycleError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ZeroCycleError):
    """The input document is not syntactically valid."""


class ValidationError(ZeroCycleError):
    """The input document is well-formed but structurally invalid.

    ``path`` points at the offending location, e.g. ``$.components[2].gram``.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class NonIntegralDiagonal(ZeroCycleError):
    """The multiplicity-weighted sum of off-diagonal restriction classes on a
    component is not divisible by that component's multiplicity, so no
    integral self-restriction class exists.  Such data cannot come from a
    regular model with the stated multiplicities."""

    def __init__(self, component: str, message: str):
        self.component = component
        super().__init__(message)


class InternalComplexViolation(ZeroCycleError):
    """An internal consistency check failed: the assembled pairing matrix does
    not annihilate the multiplicity vector, the Smith normal form modulo 2D
    disagrees with the rank, or the fiber parser's column pass refuses the
    canonical document its per-node pass returns.  This indicates a bug or
    corrupted data and is a hard failure."""


class ComplexConditionViolated(ZeroCycleError):
    """``M v != 0``: the two maps do not compose to zero, so there is no
    homology to compute."""


class ZeroAugmentation(ZeroCycleError):
    """The augmentation vector is zero."""


class StateSpaceTooLarge(ZeroCycleError):
    """The brute-force enumeration would exceed its state guard."""


class NotAComplex(ZeroCycleError):
    """The multiplicity vector does not annihilate the intersection matrix."""


class NonSemistable(ZeroCycleError):
    """A component has multiplicity > 1, so the fiber is not semistable."""


class NotKulikov(ZeroCycleError):
    """The fiber does not match any of the three degeneration types.

    ``reason`` records the first violated clause.
    """

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


class MissingCycleData(ZeroCycleError):
    """A component lacks its boundary-cycle data."""

    def __init__(self, component: str):
        self.component = component
        super().__init__(f"component {component!r} carries no anticanonical cycle data")


class MissingSelfIntersection(ZeroCycleError):
    """A branch self-intersection is neither derivable nor supplied, or the
    branch names a double curve that does not touch its component."""


class MinusOneFormViolation(ZeroCycleError):
    """The fiber is not in minus-one-form; ``violations`` lists the offending
    branches.  No algorithmic normalization is attempted."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        msgs = "; ".join(str(v) for v in self.violations)
        super().__init__(f"not in minus-one-form: {msgs}")


class NoSeed(ZeroCycleError):
    """Every component has a boundary cycle of length 6, so no propagation
    seed exists.  (On a sphere complex this cannot happen: the Euler count
    forces a component with fewer than 6 branches.)"""


class NoAnchor(ZeroCycleError):
    """A chain fiber does not declare exactly one anchored (non-minimal)
    end, so the equality chain cannot be started."""


class Stuck(ZeroCycleError):
    """Propagation halted before covering every component.

    Carries the non-consonant frontier and the partial certificate whose
    conclusion is the failure witness (the partition of components into
    classes of provably-equal values).  Only a fiber built past the parser
    can get here: document validation makes each boundary cycle name every
    double curve on its component, and on such a sphere complex propagation
    always closes up.  So the CLI prints no partial certificate: like any
    other error, ``consonance`` reports it on one ``error:`` line, exit 1,
    and only a caller holding a fiber built in code reads the certificate.
    """

    def __init__(self, frontier, certificate):
        self.frontier = tuple(frontier)
        self.certificate = certificate
        super().__init__(
            "propagation stuck; non-consonant components: "
            + ", ".join(self.frontier)
        )


class CertificateReplayError(ZeroCycleError):
    """A certificate step's precondition failed during mechanical replay."""


class UnknownFixture(ZeroCycleError):
    """No bundled fixture has the requested name."""
