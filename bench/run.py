"""Run one workload of the fdekit benchmark and print its metrics.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: proof-corpus, semantics-wide, family-laws, repro (see
bench/README.md).  A run does a fixed amount of work: round(S * rate) ops,
where the rate is fixed per workload so that one run takes about S
seconds on the reference machine.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; with
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from a separate traced run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-up samples per run, taken at even steps through the run so that
# their median spans the machine's drift over the whole run
SETUP_REPEATS = 15


def _args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # set up the workload and exit: one sample of setup_s
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args()


def _setup_seconds(args, env) -> float:
    """Wall time of one fresh process that starts, imports fdekit and sets
    the workload up (for repro: starts and imports fdekit.cli)."""
    if args.workload == "repro":
        cmd = [sys.executable, "-c", "import fdekit.cli"]
    else:
        cmd = [sys.executable, str(HERE / "run.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--setup-only"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr!r}")
    return time.perf_counter() - start


def main() -> int:
    args = _args()
    # str hashes, and with them the layout of every set and dict, follow
    # the hash seed: each --seed runs every process under its own layout,
    # so a set of seeds samples layouts as users' random hash seeds do
    hash_seed = str(args.seed % 2 ** 32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        os.environ["PYTHONHASHSEED"] = hash_seed
        os.execv(sys.executable, [sys.executable, __file__] + sys.argv[1:])
    if not (ROOT / "src" / "fdekit" / "__init__.py").is_file():
        print(f"error: no fdekit sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import fdekit

    if not Path(fdekit.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported fdekit from {fdekit.__file__}",
              file=sys.stderr)
        return 2
    import spans
    import workloads

    kind = workloads.WORKLOADS.get(args.workload)
    if kind is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    ops = max(1, round(args.seconds * kind.ops_per_second))
    if args.setup_only:
        kind(args.seed, ops)
        return 0

    setup_samples, setup_every = [], max(1, ops // SETUP_REPEATS)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        missing = spans.install(tracer)
        if missing:
            print(f"note: not traced (absent): {', '.join(missing)}",
                  file=sys.stderr)
    workload = (kind(args.seed, ops, tracer=tracer) if kind is workloads.Repro
                else kind(args.seed, ops))

    times, queries, failed = [], 0, 0
    for i, op in enumerate(workload.ops):
        if not args.trace and i % setup_every == 0 and \
                len(setup_samples) < SETUP_REPEATS:
            setup_samples.append(_setup_seconds(args, workloads.child_env()))
        gc.collect()
        if tracer is not None:
            tracer.active = True
            rec = tracer.open("bench.op")
        start = time.perf_counter()
        try:
            n, outputs = workload.run(op)
        except Exception as exc:  # a program error fails the op, not the run
            print(f"op failed: {exc!r}", file=sys.stderr)
            failed += 1
            continue
        finally:
            if tracer is not None:
                tracer.close(rec)
                tracer.active = False
        times.append(time.perf_counter() - start)
        queries += n
        try:
            ok = workload.check(op, outputs)
        except Exception as exc:
            print(f"check raised: {exc!r}", file=sys.stderr)
            ok = False
        failed += not ok
        del outputs

    while not args.trace and len(setup_samples) < SETUP_REPEATS:
        setup_samples.append(_setup_seconds(args, workloads.child_env()))
    setup_s = statistics.median(setup_samples) if setup_samples else None
    who = resource.RUSAGE_CHILDREN if kind is workloads.Repro \
        else resource.RUSAGE_SELF
    e2e = {
        "setup_s": (setup_s, "s"),
        "queries_per_s": (queries / sum(times) if times else 0.0, "1/s"),
        "op_p50_ms": (1000.0 * statistics.median(times) if times else 0.0,
                      "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MiB"),
    }
    if tracer is None:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    else:
        workloads.OUT.mkdir(exist_ok=True)
        tracer.dump(str(workloads.OUT /
                        f"trace-{args.workload}-{args.seed}.json"))
        metrics = {k: {"value": v, "unit": spans.UNITS[k]}
                   for k, v in spans.layer_metrics(tracer).items()}
        print(f"traced queries_per_s: {e2e['queries_per_s'][0]}",
              file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": len(workload.ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
