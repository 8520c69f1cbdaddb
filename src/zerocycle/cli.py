"""Command-line surface.

Exit codes: 0 success, 1 validation failure, 2 internal inconsistency
(oracle mismatch or a broken complex), 3 usage or I/O error.  Reports go to
stdout, diagnostics to stderr; output is deterministic for identical inputs.
`compute --brute-check` runs the enumeration oracle before printing; an
oracle that would exceed its state guard is a usage error (exit 3, nothing
on stdout).  So is a full prime table (`compute` without `--prime`) whose
largest invariant factor Pollard's rho cannot factor within its step budget.
"""

from __future__ import annotations

import gc
import json
import os
import re
import sys

from .errors import (
    FactoringOutOfReach,
    InternalComplexViolation,
    ParseError,
    StateSpaceTooLarge,
    UnknownFixture,
    ZeroCycleError,
)
from .fiber import delta_matrix, fiber_warnings, load_special_fiber

# Each _cmd_* handler imports the layers it runs, so a cold start compiles
# only those: validate needs none of engine, groups, kulikov or corpus, and
# only compute --brute-check loads the enumeration oracle.

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INTERNAL = 2
EXIT_USAGE = 3


class _UsageError(Exception):
    pass


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc


def _cmd_validate(file: str) -> int:
    fiber = load_special_fiber(_read_file(file))
    print(
        f"ok: {fiber.name}: {len(fiber.components)} components, "
        f"{len(fiber.double_curves)} double curves, {len(fiber.triple_points)} triple points"
    )
    for note in fiber_warnings(fiber):
        print(f"warning: {note}", file=sys.stderr)
    return EXIT_OK


def _cmd_compute(file: str, prime: int | None = None, brute_check: bool = False, format: str = "text") -> int:
    from .engine import compute_obstruction
    from .groups import _isprime

    if prime is not None and not _isprime(prime):
        raise _UsageError(f"--prime must be a prime, got {prime}")
    fiber = load_special_fiber(_read_file(file))
    try:
        report = compute_obstruction(fiber, prime)
    except FactoringOutOfReach as exc:  # only the full table factors
        raise _UsageError(f"the full prime table is out of reach: {exc}; use --prime P for one prime") from exc

    if brute_check:
        from .oracle import stabilized_brute_force

        prime = prime if prime is not None else 2
        m, v = delta_matrix(fiber)
        try:
            low, high, stabilized = stabilized_brute_force(v, m, prime, level=2)
        except StateSpaceTooLarge as exc:
            raise _UsageError(f"--brute-check is out of reach: {exc}") from exc

    print(report.to_json() if format == "json" else report.to_text())

    if brute_check:
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


def _cmd_classify(file: str) -> int:
    from .kulikov import classify_kulikov

    fiber = load_special_fiber(_read_file(file))
    kind = classify_kulikov(fiber)
    print(f"{fiber.name}: {kind}")
    for reason in kind.reasons:
        print(f"  - {reason}")
    return EXIT_OK


def _cmd_consonance(file: str, format: str = "text") -> int:
    from .consonance import consonance_solve

    certificate = consonance_solve(load_special_fiber(_read_file(file)))
    print(json.dumps(certificate.to_json_dict()) if format == "json" else certificate.to_text())
    return EXIT_OK


def _cmd_fixtures_list() -> int:
    from . import corpus

    for name in corpus.FIXTURE_NAMES:
        print(name)
    return EXIT_OK


def _cmd_fixtures_show(name: str) -> int:
    from . import corpus

    print(corpus.fixture_text(name), end="")
    return EXIT_OK


def _cmd_fixtures_run() -> int:
    from . import corpus

    results = corpus.run_selftest()
    failed = False
    for result in results:
        print(f"{result.name}: {'ok' if result.ok else 'MISMATCH'}")
        for detail in result.details:
            print(f"  {detail}", file=sys.stderr)
            failed = True
    return EXIT_INTERNAL if failed else EXIT_OK


def _cmd_help() -> int:
    print(_HELP)
    return EXIT_OK


# The command line is read from this table, not by the standard library's
# argument parser: importing it pulls in gettext and locale, and with its
# set-up it cost about 5 ms of every cold call before a fiber was read.  A
# leaf maps a command to its positionals, its options and its handler; a
# nested dict holds the second words of a two-word command.  An option is a
# flag (bool), an int, or the tuple of its choices, and reaches the handler
# as a keyword (--brute-check as brute_check); an option not given takes the
# handler's default.
_FORMATS = ("text", "json")
_COMMANDS = {
    "validate": (("file",), {}, _cmd_validate),
    "compute": (("file",), {"--prime": int, "--brute-check": bool, "--format": _FORMATS}, _cmd_compute),
    "classify": (("file",), {}, _cmd_classify),
    "consonance": (("file",), {"--format": _FORMATS}, _cmd_consonance),
    "fixtures": {
        "list": ((), {}, _cmd_fixtures_list),
        "show": (("name",), {}, _cmd_fixtures_show),
        "run": ((), {}, _cmd_fixtures_run),
    },
}

_USAGE = f"usage: zerocycle [-h] {{{','.join(_COMMANDS)}}} ..."

#: what -h and --help print: the synopsis of the README's CLI section, then
#: the exit codes of the module docstring
_HELP = """\
zerocycle validate  <fiber.json>
zerocycle compute   <fiber.json> [--prime P] [--brute-check] [--format text|json]
zerocycle classify  <fiber.json>
zerocycle consonance <fiber.json> [--format text|json]
zerocycle fixtures  list | show <name> | run

Exit codes: 0 success, 1 validation failure, 2 internal inconsistency
(oracle mismatch or a broken complex), 3 usage or I/O error.  Reports go to
stdout, diagnostics to stderr; output is deterministic for identical inputs.
`compute --brute-check` runs the enumeration oracle before printing; an
oracle that would exceed its state guard is a usage error (exit 3, nothing
on stdout).  So is a full prime table (`compute` without `--prime`) whose
largest invariant factor Pollard's rho cannot factor within its step budget."""


def _choices(choices) -> str:
    return ", ".join(map(repr, choices))


def _option(arg: str, options: dict) -> tuple[str | None, str | None] | None:
    """None for a positional; else the option ``arg`` names (None if it is
    not one of ``options``) and the value it attaches with ``=``, if any."""
    if arg[:1] != "-" or arg == "-":
        return None
    name, eq, value = arg.partition("=")
    if name in options:
        return name, value if eq else None
    if arg.startswith("--") and len(name) > 2:
        matches = [option for option in options if option.startswith(name)]
        if len(matches) > 1:
            raise _UsageError(f"ambiguous option: {arg} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    # a negative number, as the standard parser reads it, is a value (--prime -3)
    if re.fullmatch(r"-\d+|-\d*\.\d+", arg) or " " in arg:
        return None
    return None, None


def _parse(argv: list[str]) -> tuple:
    """The handler that ``argv`` names and its keyword arguments.

    It accepts what the standard library's parser accepted: options before
    or after the positional, any unique prefix of an option (``--form json
    --pri 2 --brute``), ``--opt=value``, a repeated option (the last value
    wins), a value that reads as a negative number (``--prime -3``, which
    the prime check then refuses), and ``--`` to end the options.  ``-h``,
    ``--help`` or a prefix of it anywhere before ``--`` asks for the help
    text.  A mistake raises ``_UsageError`` with that parser's message, and
    a missing positional is reported before an unrecognized argument."""
    head = argv[: argv.index("--")] if "--" in argv else argv
    if any(arg == "-h" or (len(arg) > 2 and "--help".startswith(arg)) for arg in head):
        return _cmd_help, {}
    extras: list[str] = []
    table, dest, i = _COMMANDS, "command", 0
    while isinstance(table, dict):
        # only options come before a command word, and none is known there
        while i < len(argv) and argv[i] != "--" and _option(argv[i], {}) is not None:
            extras.append(argv[i])
            i += 1
        if argv[i:] in ([], ["--"]):
            raise _UsageError(f"the following arguments are required: {dest}")
        word = argv[i]
        i += 1
        if word not in table:  # a "--" here is taken for the word
            raise _UsageError(f"argument {dest}: invalid choice: {word!r} (choose from {_choices(table)})")
        table, dest = table[word], f"{word}_command"
    positionals, options, handler = table
    wanted, values, ended = list(positionals), {}, False
    while i < len(argv):
        arg = argv[i]
        i += 1
        if arg == "--" and not ended:
            ended = True
            if not (wanted and i < len(argv)):  # a "--" just before the positional is dropped
                extras.append(arg)
            continue
        found = None if ended else _option(arg, options)
        if found is None:
            if not wanted:
                extras.append(arg)
                continue
            values[wanted.pop(0)] = arg
            if not ended and argv[i : i + 1] == ["--"]:  # as is one just after it
                ended, i = True, i + 1
            continue
        option, value = found
        if option is None:
            extras.append(arg)
            continue
        kind = options[option]
        if kind is bool:
            if value is not None:
                raise _UsageError(f"argument {option}: ignored explicit argument {value!r}")
            value = True
        else:
            if value is None:
                if i == len(argv) or argv[i] == "--" or _option(argv[i], options) is not None:
                    raise _UsageError(f"argument {option}: expected one argument")
                value = argv[i]
                i += 1
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    raise _UsageError(f"argument {option}: invalid int value: {value!r}") from None
            elif value not in kind:
                raise _UsageError(f"argument {option}: invalid choice: {value!r} (choose from {_choices(kind)})")
        values[option[2:].replace("-", "_")] = value
    if wanted:
        raise _UsageError(f"the following arguments are required: {', '.join(wanted)}")
    if extras:
        raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return handler, values


def run(argv: list[str]) -> int:
    try:
        handler, values = _parse(argv)
        return handler(**values)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print(_USAGE, file=sys.stderr)
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
