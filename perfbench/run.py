#!/usr/bin/env python3
"""emocue benchmark: one workload per process, closed loop, one client.

Run from the repository root:

    python3 perfbench/run.py --workload identify --seed 1 --seconds 20 --trace 0

Workloads are ``train``, ``identify`` and ``extract`` (see README.md in this
directory). With ``--trace 0`` the run reports the end-to-end metrics listed
in BENCHMARK.json; with ``--trace 1`` it reports the per-layer metrics from a
traced run plus its overhead against an untraced one. Every metric is
printed by name and unit, and the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

The library is imported from ``src/`` of the checkout; without it the run
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# BLAS and OpenMP pools are pinned to one thread (at most nproc) before numpy
# loads: thread settings moved stage times by 20% on a 2-core host, and one
# thread is the steadiest.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "identify", "extract"))
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed; the inputs depend on it alone")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def host_block() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "emocue", "cli.py")):
        print(f"perfbench: no emocue source under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)

    import bench

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    work_dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        outcome = bench.run(args.workload, args.seed, args.seconds,
                            bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if args.trace:
        spans_path = os.path.join(WORK, f"spans-{args.workload}-{args.seed}.jsonl")
        outcome.tracer.write(spans_path)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = outcome.metrics
    problems = list(dict.fromkeys(outcome.problems))
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        problems.append(f"metrics not computed: {missing}")

    print(f"host: {json.dumps(host_block())}")
    print(f"workload {args.workload}, seed {args.seed}: closed loop, 1 client; "
          f"{outcome.setups} set-ups, {outcome.cycles} cycles")
    for name, (value, unit) in outcome.report.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    print(f"outputs sha256: {outcome.digest}")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    result = {
        "correct": not problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
