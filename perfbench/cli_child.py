"""Run one `rhombikit` command in this fresh process with tracing on.

    python3 perfbench/cli_child.py TRACE_OUT ARG...

Times the import of rhombikit.cli, installs the benchmark's wrappers,
calls ``cli.cli_main(ARG...)`` and writes the spans, counts and import
time to TRACE_OUT once, when the command has finished. The exit code is
the command's.
"""

import sys
from time import perf_counter

t0 = perf_counter()
import rhombikit.cli  # noqa: E402

import_s = perf_counter() - t0

import tracing  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = rhombikit.cli.cli_main(argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    tracer.dump(out, {"import_s": import_s, "argv": argv})
    return code


if __name__ == "__main__":
    sys.exit(main())
