"""Benchmark of nbgbm: one seeded workload, measured end to end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-cell --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: every end-to-end metric of
BENCHMARK.json with `--trace 0`, every per-layer metric with `--trace 1`.
The line before it is a JSON object under the key `detail` with timing
quantiles, failure counts, warnings per layer, the answer fingerprint and,
for a traced run, the full per-layer table; `perfbench/compare.py` reads
both lines.

BLAS/OpenMP threads are pinned to THREADS before numpy is imported.  The
program is imported from `src/` of the checkout, never from an installed
copy.  Set-up time is the median wall time of SETUP_REPEATS fresh
interpreters that import the program and generate the workload's inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

THREADS = 1
SETUP_REPEATS = 7
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# the keys of workloads.WORKLOADS; that module loads numpy, so it is imported
# only after the threads are pinned
WORKLOAD_NAMES = ("paper-cell", "cli-medium", "infer-wide")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and generate inputs, then exit (times set-up)")
    return parser.parse_args(argv)


def pin_threads():
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(THREADS)


def setup_seconds(workload, seed):
    """Median wall time of fresh interpreters doing imports plus input generation."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", workload,
                        "--seed", str(seed), "--seconds", "0", "--setup-only"],
                       check=True, timeout=120, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples), samples


def main(argv=None):
    args = parse_args(argv)
    pin_threads()
    src = os.path.join(ROOT, "src")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(src, "nbgbm", "__init__.py")):
        print(f"error: no nbgbm sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    work_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(work_dir, exist_ok=True)

    import measure

    if args.setup_only:
        workload = measure.WORKLOADS[args.workload](args.seed, work_dir)
        workload.setup()
        workload.close()
        return 0

    with open(spec_path) as fh:
        spec = json.load(fh)
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    declared = {m["name"]: m["unit"] for m in section}
    setup_s, samples = setup_seconds(args.workload, args.seed)
    result, detail = measure.measure(args.workload, args.seed, args.seconds, bool(args.trace),
                                     work_dir, declared, setup_s)
    detail["setup_samples"] = samples
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
