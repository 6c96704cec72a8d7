"""Run one ``rankadapt`` command in-process with the span tracer installed.

Usage: ``python traced_cli.py SPANS_JSON -- <rankadapt arguments>``

Writes the spans, the in-process wall time of ``rankadapt.cli.main`` and
its exit code to ``SPANS_JSON`` after the command returns, and exits with
the command's exit code.
"""

import sys
import time

from tracer import Tracer, install


def main() -> int:
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_JSON -- ARGS...")
    import rankadapt.cli

    tracer = Tracer()
    install(tracer)
    start = time.perf_counter()
    code = rankadapt.cli.main(argv)
    wall = time.perf_counter() - start
    tracer.dump(spans_path, wall_s=wall, exit_code=code)
    return code


if __name__ == "__main__":
    sys.exit(main())
