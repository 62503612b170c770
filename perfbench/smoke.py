"""Self-test of the benchmark on tiny inputs; takes a few seconds.

    python3 perfbench/smoke.py

Runs all three workloads at tiny sizes, untraced and traced, and checks
that every metric named in BENCHMARK.json is emitted with its unit, that
every correctness check ran, that each check rejects a broken output, that
tracing keeps the answers, that io spans appear only on cli-medium, that
compare mode handles the runs, and that run.py fails without printing a
result when the program's sources are missing.  Exits 0 when all pass.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time

import run

TINY = {
    "paper-cell": {"dims": (30, 12, 2, 2, 1), "pool": 3, "fixed_ops": 2},
    "cli-medium": {"dims": (30, 12, 2, 2, 1), "fixed_ops": 1},
    "infer-wide": {"dims": (30, 20, 2, 2, 2), "pool": 2, "fixed_ops": 2},
}


def expect(cond, message, problems):
    if not cond:
        problems.append(message)


def check_result(result, declared, nonzero, label, problems):
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{label}: result keys {sorted(result)}", problems)
    expect(result["correct"] is True, f"{label}: not correct", problems)
    expect(result["attempted"] >= 1 and result["failed"] == 0,
           f"{label}: attempted {result['attempted']}, failed {result['failed']}", problems)
    expect(set(result["metrics"]) == set(declared),
           f"{label}: metrics differ from BENCHMARK.json: "
           f"{sorted(set(declared) ^ set(result['metrics']))}", problems)
    for name, entry in result["metrics"].items():
        value = entry["value"]
        expect(entry["unit"] == declared.get(name), f"{label}: unit of {name}", problems)
        expect(isinstance(value, (int, float)) and math.isfinite(value),
               f"{label}: {name} = {value!r}", problems)
        if nonzero:
            expect(value != 0, f"{label}: {name} is 0", problems)


def broken_outputs_fail(root, problems):
    """Each check must reject a deliberately broken output."""
    import numpy as np

    import checks

    class Report:
        passed = True

    class Fit:
        params = None
        trace = [1.0, 2.0]

    def constraints(passed):
        report = Report()
        report.passed = passed
        return lambda params, cov: report

    falling, nonfinite = Fit(), Fit()
    falling.trace = [2.0, 3.0, 1.0]
    nonfinite.trace = [1.0, float("nan")]
    cases = {
        "fit.no_net_descent": checks.fit_checks(falling, None, constraints(True)),
        "fit.trace_finite": checks.fit_checks(nonfinite, None, constraints(True)),
        "fit.constraints": checks.fit_checks(Fit(), None, constraints(False)),
        "se.finite_positive": checks.se_checks({"A": np.array([1.0, 0.0])}),
        "cli.exit_zero": checks.exit_checks(4),
    }
    with tempfile.NamedTemporaryFile("w", suffix=".csv", dir=root, delete=False) as fh:
        fh.write("1,2\n")
    try:
        cases["cli.output_matches"] = checks.output_checks([(fh.name, [1.0, 2.5])])
        expect(checks.output_checks([(fh.name, [1.0, 2.0])])["cli.output_matches"],
               "output check rejects a matching file", problems)
    finally:
        os.unlink(fh.name)
    for name, result in cases.items():
        expect(result[name] is False, f"check {name} accepts a broken output", problems)
    ledger = checks.Ledger()
    ledger.call(checks.exit_checks(0))
    ledger.call(cases["cli.exit_zero"])
    ledger.raised()
    expect((ledger.attempted, ledger.failed) == (3, 2),
           f"ledger counts {ledger.attempted} attempted, {ledger.failed} failed", problems)
    expect(checks.trace_drops([1.0, 3.0, 2.0, 4.0, 3.5]) == 2, "trace drop count", problems)
    return set(cases) | {"call.no_exception"}


def missing_sources_fail(problems):
    """In a directory with only BENCHMARK.json and perfbench, run.py must fail quietly."""
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(run.ROOT, ".bench_out"))
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "paper-cell",
                              "--seed", "1", "--seconds", "1", "--trace", "0"],
                             cwd=bare, capture_output=True, text=True, timeout=120)
        expect(out.returncode != 0 and not out.stdout.strip(),
               f"run.py without sources: exit {out.returncode}, stdout {out.stdout!r}", problems)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    run.pin_threads()
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import checks
    import compare
    import measure

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = [w["name"] for w in spec["workloads"]]
    problems = []
    expect(sorted(names) == sorted(TINY), f"workloads {names}", problems)
    os.makedirs(os.path.join(run.ROOT, ".bench_out"), exist_ok=True)
    root = tempfile.mkdtemp(prefix="smoke-", dir=os.path.join(run.ROOT, ".bench_out"))
    checks_ran = set()
    outputs = []
    try:
        for name in names:
            start = time.perf_counter()
            measure.WORKLOADS[name](7, root, **TINY[name]).setup()
            setup_s = time.perf_counter() - start
            for trace, declared in ((0, end_to_end), (1, per_layer)):
                label = f"{name} --trace {trace}"
                result, detail = measure.measure(name, 7, 0.0, bool(trace), root, declared,
                                                 setup_s, **TINY[name])
                check_result(result, declared, not trace, label, problems)
                checks_ran |= set(detail["checks_ran"])
                if trace:
                    layers = detail["layers"]
                    expect(detail["tracing_keeps_answers"], f"{label}: answers moved", problems)
                    has_io = any(k.startswith("io.") and k.endswith(".calls") for k in layers)
                    expect(has_io == (name == "cli-medium"), f"{label}: io spans {has_io}",
                           problems)
                    expect(layers["inference.standard_errors.calls"] >= 1,
                           f"{label}: no inference spans", problems)
                else:
                    outputs.append(json.dumps({"detail": detail}) + "\n" + json.dumps(result))
        never = set(checks.ALL_CHECKS) - checks_ran
        expect(not never, f"checks never ran: {sorted(never)}", problems)
        untested = set(checks.ALL_CHECKS) - broken_outputs_fail(root, problems)
        expect(not untested, f"checks without a broken-output case: {sorted(untested)}",
               problems)
        runs_dir = os.path.join(root, "runs")
        os.makedirs(runs_dir)
        for i, text in enumerate(outputs):
            with open(os.path.join(runs_dir, f"run{i}.txt"), "w") as fh:
                fh.write(text + "\n")
        runs = compare.load_runs(runs_dir)
        report = compare.compare(runs, runs, spec)
        verdicts = [line for line in report.splitlines() if line.startswith("   ")
                    and not line.strip().startswith(("metric", "answers"))]
        expect(verdicts and all(line.endswith("no worse") for line in verdicts),
               f"compare of identical runs:\n{report}", problems)
        missing_sources_fail(problems)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    for p in problems:
        print("FAIL", p)
    print("smoke:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
