"""Traced stand-in for ``python -m zerocycle.cli``.

Usage: python3 bench/cli_driver.py SPANS_FILE CLI_ARGS...

Times ``import zerocycle.cli``, installs the span wrappers, runs
``zerocycle.cli.run(CLI_ARGS)`` with the real stdout and stderr, writes the
spans as JSON to SPANS_FILE and exits with the command's exit code.  Cold
first-use costs (the sympy import inside ``FiniteAbelianGroup.primes`` or
``ell_primary``) therefore land in the layer that pays them.
"""

import json
import os
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from spans import Tracer  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    start = perf_counter()
    import zerocycle.cli

    tracer.record("cli.import", start, perf_counter())
    tracer.install()
    try:
        code = zerocycle.cli.run(argv)
    finally:
        sys.stdout.flush()
        tracer.end_job()
        with open(spans_file, "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
