"""Run `fdekit --json repro` with the benchmark's spans installed.

Usage: python3 bench/repro_child.py TRACE_FILE

Writes the checklist's JSON to stdout, exactly as the CLI does, and the
recorded spans to TRACE_FILE; exits with the CLI's exit code.  The trace
also holds `ready`, the perf_counter time at which fdekit.cli was
imported, before any of the benchmark's own work in this process.
"""

import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import fdekit.cli  # noqa: E402

READY = perf_counter()

import spans  # noqa: E402


def main() -> int:
    tracer = spans.Tracer()
    spans.install(tracer)
    tracer.active = True
    code = fdekit.cli.main(["--json", "repro"])
    tracer.active = False
    tracer.dump(sys.argv[1], ready=READY)
    return code


if __name__ == "__main__":
    sys.exit(main())
