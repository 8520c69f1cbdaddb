"""Command-line surface.

Exit codes: 0 success, 1 validation failure, 2 internal inconsistency
(oracle mismatch or a broken complex), 3 usage or I/O error.  Reports go to
stdout, diagnostics to stderr; output is deterministic for identical inputs.
`compute --brute-check` runs the enumeration oracle before printing; an
oracle that would exceed its state guard is a usage error (exit 3, nothing
on stdout).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from .errors import (
    InternalComplexViolation,
    ParseError,
    StateSpaceTooLarge,
    UnknownFixture,
    ZeroCycleError,
)
from .fiber import delta_matrix, fiber_warnings, load_special_fiber

# Each _cmd_* handler imports the layers it runs, so a cold start compiles
# only those: validate needs none of engine, groups, kulikov or corpus.

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INTERNAL = 2
EXIT_USAGE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit(2); we need 3
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="zerocycle", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="parse and validate a fiber document")
    p_validate.add_argument("file")
    p_validate.set_defaults(handler=_cmd_validate)

    p_compute = sub.add_parser("compute", help="compute the obstruction report")
    p_compute.add_argument("file")
    p_compute.add_argument("--prime", type=int, default=None)
    p_compute.add_argument("--brute-check", action="store_true")
    p_compute.add_argument("--format", choices=("text", "json"), default="text")
    p_compute.set_defaults(handler=_cmd_compute)

    p_classify = sub.add_parser("classify", help="classify the degeneration type")
    p_classify.add_argument("file")
    p_classify.set_defaults(handler=_cmd_classify)

    p_cons = sub.add_parser("consonance", help="certify constancy by propagation")
    p_cons.add_argument("file")
    p_cons.add_argument("--format", choices=("text", "json"), default="text")
    p_cons.set_defaults(handler=_cmd_consonance)

    p_fix = sub.add_parser("fixtures", help="bundled fixture corpus")
    p_fix.set_defaults(handler=_cmd_fixtures)
    fix_sub = p_fix.add_subparsers(dest="fixtures_command", required=True)
    fix_sub.add_parser("list")
    p_show = fix_sub.add_parser("show")
    p_show.add_argument("name")
    fix_sub.add_parser("run")

    return parser


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc


def _cmd_validate(args) -> int:
    fiber = load_special_fiber(_read_file(args.file))
    print(
        f"ok: {fiber.name}: {len(fiber.components)} components, "
        f"{len(fiber.double_curves)} double curves, {len(fiber.triple_points)} triple points"
    )
    for note in fiber_warnings(fiber):
        print(f"warning: {note}", file=sys.stderr)
    return EXIT_OK


def _cmd_compute(args) -> int:
    from .engine import compute_obstruction
    from .groups import _isprime, stabilized_brute_force

    if args.prime is not None and not _isprime(args.prime):
        raise _UsageError(f"--prime must be a prime, got {args.prime}")
    fiber = load_special_fiber(_read_file(args.file))
    report = compute_obstruction(fiber, args.prime)

    if args.brute_check:
        prime = args.prime if args.prime is not None else 2
        m, v = delta_matrix(fiber)
        try:
            low, high, stabilized = stabilized_brute_force(v, m, prime, level=2)
        except StateSpaceTooLarge as exc:
            raise _UsageError(f"--brute-check is out of reach: {exc}") from exc

    print(report.to_json() if args.format == "json" else report.to_text())

    if args.brute_check:
        expected = dict(report.per_prime).get(prime, ())
        if not stabilized:
            print(
                f"brute-check failed: levels {low.level} and {high.level} disagree "
                f"(orders {low.order} vs {high.order})",
                file=sys.stderr,
            )
            return EXIT_INTERNAL
        if low.divisor_chain != expected:
            print(
                f"brute-check mismatch at prime {prime}: enumeration found "
                f"{list(low.divisor_chain)}, matrix computation found {list(expected)}",
                file=sys.stderr,
            )
            return EXIT_INTERNAL
        print(
            f"brute-check at prime {prime}: levels {low.level}/{high.level} agree, "
            f"chain {list(low.divisor_chain)}",
            file=sys.stderr,
        )
    return EXIT_OK


def _cmd_classify(args) -> int:
    from .kulikov import classify_kulikov

    fiber = load_special_fiber(_read_file(args.file))
    kind = classify_kulikov(fiber)
    print(f"{fiber.name}: {kind}")
    for reason in kind.reasons:
        print(f"  - {reason}")
    return EXIT_OK


def _cmd_consonance(args) -> int:
    from .kulikov import consonance_solve

    certificate = consonance_solve(load_special_fiber(_read_file(args.file)))
    print(json.dumps(certificate.to_json_dict()) if args.format == "json" else certificate.to_text())
    return EXIT_OK


def _cmd_fixtures(args) -> int:
    from . import corpus

    if args.fixtures_command == "list":
        for name in corpus.FIXTURE_NAMES:
            print(name)
        return EXIT_OK
    if args.fixtures_command == "show":
        print(corpus.fixture_text(args.name), end="")
        return EXIT_OK
    # run: full corpus self-test
    results = corpus.run_selftest()
    failed = False
    for result in results:
        print(f"{result.name}: {'ok' if result.ok else 'MISMATCH'}")
        for detail in result.details:
            print(f"  {detail}", file=sys.stderr)
            failed = True
    return EXIT_INTERNAL if failed else EXIT_OK


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except UnknownFixture as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalComplexViolation as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ZeroCycleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main() -> None:
    """Entry point of ``python -m zerocycle.cli`` and the ``zerocycle``
    script.  A failed write to stdout is an I/O error: one ``error:`` line,
    exit 3.  Before exiting it freezes the heap, so the collections the
    interpreter runs as it finalizes have nothing left to traverse; ``run``
    leaves the collector as it found it."""
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except OSError as exc:
        print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
        # the interpreter flushes stdout again at exit; let that write land
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_USAGE
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
