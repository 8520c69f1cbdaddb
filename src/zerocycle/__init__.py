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
``import zerocycle`` loads no submodule: each entry point imports its module
on first access (PEP 562), so a CLI command pays only for the layers it runs.
"""

__version__ = "0.1.0"

#: each exported name and the submodule that defines it
_EXPORTS = {
    "FiniteAbelianGroup": "groups",
    "QZHomology": "groups",
    "StateSpaceTooLarge": "errors",
    "classify_kulikov": "kulikov",
    "compute_obstruction": "engine",
    "consonance_solve": "consonance",
    "delta_matrix": "fiber",
    "euler_check": "kulikov",
    "load_special_fiber": "fiber",
    "minus_one_form_check": "kulikov",
    "replay_certificate": "consonance",
    "stabilized_brute_force": "oracle",
    "triple_point_check": "kulikov",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value  # later reads are plain attribute lookups
    return value
