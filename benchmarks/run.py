#!/usr/bin/env python3
"""woundfill benchmark: one workload per invocation, run from the repository root.

    python3 benchmarks/run.py --workload train-desk --seed 1 --seconds 20 --trace 0

Prints a table of the metrics with units and directions, then one JSON line
with the run's details (environment, per-stage figures, digests, failures),
then, as the last line, the summary object {correct, attempted, failed,
metrics}. --trace 0 reports the end-to-end metrics of BENCHMARK.json over
--seconds of repetitions; --trace 1 reports the per-layer ones from a fixed
number of repetitions, so that counts repeat exactly. Exits 1 when an output
check failed and 2 when the sources or BENCHMARK.json are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("train-desk", "train-deep", "scar-fill")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; must run before numpy loads."""
    n = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(n)
    return n


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True,
                   help="workload seed; 1 is the development seed, 9001 is held out for checking claims")
    p.add_argument("--seconds", type=float, required=True, help="length of the timed section")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smallest sizes (smoke tests)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = pin_threads()
    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "woundfill" / "__init__.py").is_file():
        print(f"error: woundfill sources not found under {src}", file=sys.stderr)
        return 2
    if not spec_path.is_file():
        print(f"error: {spec_path} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import woundfill

    if Path(woundfill.__file__).resolve().parent != (src / "woundfill").resolve():
        print(f"error: imported woundfill from {woundfill.__file__}, not {src}", file=sys.stderr)
        return 2
    import harness

    spec = json.loads(spec_path.read_text())
    workdir = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        detail, summary = harness.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir, spec, threads,
            tiny=args.tiny,
        )
    finally:
        harness.clean(workdir)

    better = {m["name"]: m.get("better", "") for m in spec["end_to_end"] + spec["per_layer"]}
    for name, m in summary["metrics"].items():
        direction = f"{better[name]} is better" if better[name] else ""
        print(f"{name:<40} {m['value']:>16.6g} {m['unit']:<8} {direction}")
    for name, m in detail["stages"].items():
        print(f"  stage {name:<34} {m['value']:>16.6g} {m['unit']:<8} {m['better']} is better")
    print(json.dumps(detail, sort_keys=True, default=str))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
