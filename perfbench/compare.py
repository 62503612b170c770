"""Compare two sets of benchmark runs: a parent commit and a change.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are directories (every file inside is read) or single
files, each holding the standard output of one `perfbench/run.py` run with
`--trace 0`.  For every workload and end-to-end metric it prints each
side's median and quartiles, the fraction of pairs the change wins, and a
verdict:

- improved: the change wins at least nine tenths of the pairs (ties count
  for neither side) and the medians differ, in the change's favour, by more
  than the parent's own quartile spread;
- worse: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json;
- unresolved: the parent's quartile spread, as a share of its median, is
  wider than the bound, and not every change run beats every parent run;
- no worse: otherwise.

Pairs are matched by seed when both sides ran the same seeds, else by
order of seed.  Throughput and fit timings from the detail line
(`ops_per_s`, `fit_s`, `fit_s_per_iter`) are compared with the bound of
`op_s`.  The answer fingerprints of runs with the same workload and seed
are compared to the relative tolerance RTOL; they are reported, not gated.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# detail-line figures compared alongside the end-to-end metrics: (unit, better)
EXTRA = {"ops_per_s": ("1/s", "higher"), "fit_s": ("s", "lower"),
         "fit_s_per_iter": ("s", "lower")}
# relative tolerance of the answer fingerprints: sums differ in their last
# digits when the BLAS thread count or the summation order changes
RTOL = 1e-9


def load_runs(path):
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path))]
             if os.path.isdir(path) else [path])
    runs = []
    for name in files:
        result = detail = None
        with open(name) as fh:
            for line in fh:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                obj = json.loads(line)
                if "detail" in obj:
                    detail = obj["detail"]
                elif "metrics" in obj:
                    result = obj
        if result is None or detail is None or detail["trace"] != 0:
            continue
        values = {m: v["value"] for m, v in result["metrics"].items()}
        timings = detail["timings"]
        values["ops_per_s"] = timings["ops_per_s"]
        for m in ("fit_s", "fit_s_per_iter"):
            if "median" in timings[m]:
                values[m] = timings[m]["median"]
        runs.append({"workload": detail["workload"], "seed": detail["seed"],
                     "values": values, "attempted": result["attempted"],
                     "failed": result["failed"], "fingerprint": detail["fingerprint"]})
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(parent, change):
    p = sorted(parent, key=lambda r: r["seed"])
    c = sorted(change, key=lambda r: r["seed"])
    by_seed = {r["seed"]: r for r in c}
    if {r["seed"] for r in p} == set(by_seed):
        return [(r, by_seed[r["seed"]]) for r in p]
    return list(zip(p, c))


def verdict(p_vals, c_vals, paired, better, bound):
    """Verdict and fraction of pairs won for one metric of one workload."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(p_vals)
    _, cm, _ = quartiles(c_vals)
    wins = sum(1 for a, b in paired if sign * (b - a) > 0)
    won = wins / len(paired) if paired else 0.0
    gain = sign * (cm - pm)
    worse_by = -gain / abs(pm) if pm else 0.0
    spread = (p3 - p1) / abs(pm) if pm else 0.0
    if won >= 0.9 and gain > p3 - p1:
        return "improved", won
    if spread > bound:
        if all(sign * (b - a) > 0 for a in p_vals for b in c_vals):
            return "no worse", won
        return "unresolved", won
    if worse_by > bound:
        return "worse", won
    return "no worse", won


def fingerprint_gap(a, b):
    """Largest relative difference between two answer fingerprints."""
    gaps = []
    if a["final_log_posterior"] is not None and b["final_log_posterior"] is not None:
        x, y = a["final_log_posterior"], b["final_log_posterior"]
        gaps.append(abs(x - y) / max(abs(x), 1e-300))
    for name, x in a["se_sums"].items():
        y = b["se_sums"].get(name)
        if y is None:
            return float("inf")
        gaps.append(abs(x - y) / max(abs(x), 1e-300))
    return max(gaps, default=0.0)


def compare(parent_runs, change_runs, spec):
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    op_bound = metrics["op_s"]["bound"]
    for m, (unit, better) in EXTRA.items():
        metrics[m] = {"name": m, "unit": unit, "better": better, "bound": op_bound}
    lines = []
    for w in [w["name"] for w in spec["workloads"]]:
        p_runs = [r for r in parent_runs if r["workload"] == w]
        c_runs = [r for r in change_runs if r["workload"] == w]
        if not p_runs or not c_runs:
            lines.append(f"{w}: no runs on {'parent' if not p_runs else 'change'} side")
            continue
        paired = pairs(p_runs, c_runs)
        p_fail = sum(r["failed"] for r in p_runs), sum(r["attempted"] for r in p_runs)
        c_fail = sum(r["failed"] for r in c_runs), sum(r["attempted"] for r in c_runs)
        lines.append(f"== {w}: {len(p_runs)} parent runs, {len(c_runs)} change runs, "
                     f"{len(paired)} pairs; failed {p_fail[0]}/{p_fail[1]} parent, "
                     f"{c_fail[0]}/{c_fail[1]} change")
        if c_fail[0] > p_fail[0]:
            lines.append("   more calls failed on the change: no gain counts on this workload")
        lines.append(f"   {'metric':16s} {'unit':6s} {'parent median [q1, q3]':>34s} "
                     f"{'change median [q1, q3]':>34s} {'won':>5s}  verdict")
        for name, m in metrics.items():
            p_vals = [r["values"][name] for r in p_runs if name in r["values"]]
            c_vals = [r["values"][name] for r in c_runs if name in r["values"]]
            if not p_vals or not c_vals:
                continue
            pv = [(a["values"][name], b["values"][name]) for a, b in paired
                  if name in a["values"] and name in b["values"]]
            v, won = verdict(p_vals, c_vals, pv, m["better"], m["bound"])
            p1, pm, p3 = quartiles(p_vals)
            c1, cm, c3 = quartiles(c_vals)
            lines.append(f"   {name:16s} {m['unit']:6s} {pm:12.6g} [{p1:9.6g}, {p3:9.6g}] "
                         f"{cm:12.6g} [{c1:9.6g}, {c3:9.6g}] {won:5.2f}  {v}")
        same_seed = [(a, b) for a, b in paired if a["seed"] == b["seed"]]
        if same_seed:
            gap = max(fingerprint_gap(a["fingerprint"], b["fingerprint"]) for a, b in same_seed)
            state = "agree" if gap <= RTOL else "DIFFER"
            lines.append(f"   answers {state}: largest relative fingerprint gap {gap:.3g} "
                         f"over {len(same_seed)} seeds (tolerance {RTOL:g})")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parent_runs, change_runs = load_runs(args.parent), load_runs(args.change)
    if not parent_runs or not change_runs:
        print("error: each side needs at least one run with --trace 0", file=sys.stderr)
        return 2
    print(compare(parent_runs, change_runs, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
