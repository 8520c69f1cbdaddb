"""Divisibility obstructions for degree-zero 0-cycles, computed exactly from
the combinatorics of a degeneration's special fiber.

The pipeline: a fiber document (components with intersection lattices, double
curves, triple points) is validated, its curve-pairing matrix is assembled,
and one Smith normal form over the integers yields, for all primes at once,
the finite group obstructing divisibility of degree-zero 0-cycles on the
generic fiber.  A separate combinatorial layer audits semistable K3-type
degenerations (smooth / chain / sphere trichotomy, Euler count,
minus-one-form, triple point formula) and certifies triviality by explicit
constraint propagation.

The package namespace holds the entry points below; every other name is
imported from its module, e.g. ``from zerocycle.errors import ZeroCycleError``.
"""

from .engine import compute_obstruction
from .errors import StateSpaceTooLarge
from .fiber import delta_matrix, load_special_fiber
from .groups import FiniteAbelianGroup, QZHomology, stabilized_brute_force
from .kulikov import (
    classify_kulikov,
    consonance_solve,
    euler_check,
    minus_one_form_check,
    replay_certificate,
    triple_point_check,
)

__version__ = "0.1.0"

__all__ = [
    "FiniteAbelianGroup",
    "QZHomology",
    "StateSpaceTooLarge",
    "classify_kulikov",
    "compute_obstruction",
    "consonance_solve",
    "delta_matrix",
    "euler_check",
    "load_special_fiber",
    "minus_one_form_check",
    "replay_certificate",
    "stabilized_brute_force",
    "triple_point_check",
]
