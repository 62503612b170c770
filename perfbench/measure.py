"""One benchmark run: set-up, the closed measuring loop, metrics.

The loop is closed with one caller: each operation starts when the previous
one and its checks have finished.  A run measures for at least `seconds`
and at least the workload's `fixed_ops` operations; the answer fingerprint
and the quality figures cover exactly those first operations, so they are
deterministic for a seed.

Every run starts with one warm-up operation that is not measured.  A
traced run then runs each of the `fixed_ops` operations twice, untraced and
then traced; it reports the per-layer figures of the traced pass together
with the tracing overhead (traced minus untraced wall time).  Spans of the
set-up are kept apart under the prefix `setup.`.  Tracing must not change
the answers: the two passes' fingerprints have to agree exactly.
"""

from __future__ import annotations

import os
import resource
import statistics
import sys
import time
import traceback
import warnings
from collections import Counter

import nbgbm

import checks
from tracer import Tracer
from workloads import PROBES, WORKLOADS


def summarize(values):
    """Median and mean plus the highest of the 75/90/95/99th percentiles that
    has at least ten samples beyond it, with the sample count."""
    out = {"n": len(values)}
    if not values:
        return out
    ordered = sorted(values)
    out["median"] = statistics.median(ordered)
    out["mean"] = statistics.fmean(ordered)
    for p in (99, 95, 90, 75):
        if len(ordered) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(ordered, n=100, method="inclusive")[p - 1]
            break
    return out


def run_ops(workload, indices, probe, ledger, deadline=None):
    """Run operations until the indices are used up and the deadline passed.

    Returns one record per operation: its wall time, the warnings it raised
    by module, and the facts the workload's checks collected.
    """
    records = []
    k = 0
    while k < len(indices) or (deadline is not None and time.perf_counter() < deadline):
        index = indices[k] if k < len(indices) else k
        probe.spans.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            try:
                workload.op(index)
                error = None
            except Exception:        # any failure is counted and the loop goes on
                error = traceback.format_exc()
            seconds = time.perf_counter() - start
        if error is None:
            facts = workload.account(index, probe, ledger)
        else:
            print(error, file=sys.stderr)
            ledger.raised()
            facts = {"fits": [], "ses": []}
        facts["op_s"] = seconds
        facts["warnings"] = Counter(
            os.path.splitext(os.path.basename(w.filename))[0] for w in caught)
        records.append(facts)
        k += 1
    return records


def fingerprint(records):
    """Summed final log-posterior and summed standard errors per block."""
    fits = [f for r in records for f in r["fits"]]
    ses = [s for r in records for s in r["ses"]]
    out = {"ops": len(records), "fits": len(fits), "final_log_posterior": None, "se_sums": {}}
    if fits:
        out["final_log_posterior"] = sum(f["final_lp"] for f in fits)
    for s in ses:
        for name, value in s["sums"].items():
            out["se_sums"][name] = out["se_sums"].get(name, 0.0) + value
    return out


def quality_summary(records):
    """Mean relative MSE and |95% Wald coverage of A, B entries - 0.95|."""
    q = [r["quality"] for r in records if "quality" in r]
    if not q:
        return {"rel_mse": None, "coverage": None, "coverage_gap": None}
    covered = sum(x["covered"] for x in q)
    entries = sum(x["entries"] for x in q)
    coverage = covered / entries
    return {"rel_mse": statistics.fmean(x["rel_mse"] for x in q), "coverage": coverage,
            "coverage_gap": abs(coverage - 0.95), "covered": covered, "entries": entries}


def timings(records):
    fits = [f for r in records for f in r["fits"]]
    ses = [s for r in records for s in r["ses"]]
    op_s = [r["op_s"] for r in records]
    return {
        "op_s": summarize(op_s),
        "ops_per_s": len(op_s) / sum(op_s),
        "fit_s": summarize([f["seconds"] for f in fits]),
        "fit_s_per_iter": summarize([f["seconds"] / max(f["iterations"], 1) for f in fits]),
        "infer_s": summarize([s["seconds"] for s in ses]),
    }


def fit_counts(records):
    fits = [f for r in records for f in r["fits"]]
    return {
        "fits": len(fits),
        "iterations": sum(f["iterations"] for f in fits),
        "converged": sum(bool(f["converged"]) for f in fits),
        "trace_drops": sum(f["drops"] for f in fits),
    }


def warning_counts(records):
    total = Counter()
    for r in records:
        total.update(r["warnings"])
    return {f"{module}.warnings": n for module, n in sorted(total.items())}


def layer_table(tracer, records, overhead_s, untraced_s):
    """Per-layer figures of a traced pass, named <module>.<function>.<stat>."""
    table = {}
    for name, entry in tracer.stats().items():
        for stat, value in entry.items():
            table[f"{name}.{stat}"] = value
    table.update(tracer.counters)
    derivs_s = table.get("nb.dispersion_derivatives.total_s", 0.0)
    elements = tracer.counters.get("nb.dispersion_derivatives.elements", 0)
    table["nb.dispersion_derivatives.melem_per_s"] = elements / derivs_s / 1e6 if derivs_s else 0.0
    fuv_calls = table.get("inference.latent_cross_information.calls", 0)
    table["inference.fuv_bytes"] = (tracer.counters.get("inference.fuv_bytes", 0) // fuv_calls
                                    if fuv_calls else 0)
    counts = fit_counts(records)
    table["estimation.iterations"] = counts["iterations"]
    table["estimation.trace_drops"] = counts["trace_drops"]
    table["estimation.converged_frac"] = (counts["converged"] / counts["fits"]
                                          if counts["fits"] else 0.0)
    refresh = table.get("estimation.FitState.refresh.calls", 0)
    table["estimation.refresh_per_iter"] = (refresh / counts["iterations"]
                                            if counts["iterations"] else 0.0)
    for module in ("estimation", "inference"):
        table[f"{module}.warnings"] = 0
    table.update(warning_counts(records))
    table["trace.overhead_s"] = overhead_s
    table["trace.overhead_frac"] = overhead_s / untraced_s
    return table


def measure(name, seed, seconds, trace, root, declared, setup_s, **overrides):
    """Run one workload and return (result line, detail) as dictionaries."""
    workload = WORKLOADS[name](seed, root, **overrides)
    tracer = Tracer(nbgbm)
    probe = Tracer(nbgbm, PROBES, keep=True)
    ledger = checks.Ledger()
    fixed = list(range(workload.fixed_ops))
    if trace:
        tracer.install(prefix="setup.")
    workload.setup()
    tracer.uninstall()
    probe.install()
    try:
        # warm-up: lazy imports and first-call costs are not measured
        run_ops(workload, fixed[:1], probe, checks.Ledger())
        if trace:
            untraced, records = [], []
            for k in fixed:           # alternate, so drifts in machine speed hit both passes
                untraced += run_ops(workload, [k], probe, ledger)
                tracer.install()
                try:
                    records += run_ops(workload, [k], probe, ledger)
                finally:
                    tracer.uninstall()
        else:
            records = run_ops(workload, fixed, probe, ledger,
                              deadline=time.perf_counter() + seconds)
    finally:
        probe.uninstall()
        workload.close()

    prefix = records[:workload.fixed_ops]
    detail = {
        "workload": name, "seed": seed, "trace": int(trace), "dims": list(workload.dims),
        "threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "ops": len(records), "attempted": ledger.attempted, "failed": ledger.failed,
        "failed_frac": ledger.failed / max(ledger.attempted, 1),
        "check_failures": dict(ledger.failures), "checks_ran": dict(ledger.ran),
        "setup_s": setup_s, "timings": timings(records),
        "fit_counts": fit_counts(prefix), "warnings": warning_counts(records),
        "fingerprint": fingerprint(prefix), "quality": quality_summary(prefix),
    }
    correct = ledger.failed == 0
    if trace:
        untraced_s = sum(r["op_s"] for r in untraced)
        overhead_s = sum(r["op_s"] for r in records) - untraced_s
        detail["layers"] = layer_table(tracer, records, overhead_s, untraced_s)
        detail["untraced_fingerprint"] = fingerprint(untraced)
        detail["tracing_keeps_answers"] = detail["untraced_fingerprint"] == detail["fingerprint"]
        correct = correct and detail["tracing_keeps_answers"]
        tracer.dump(os.path.join(root, f"spans-{name}-seed{seed}.json"))
        values = {m: detail["layers"].get(m, 0) for m in declared}
    else:
        t = detail["timings"]
        detail["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "setup_s": setup_s,
            "op_s": t["op_s"]["median"],
            # a mean: the short paper-cell calls switch between a fast and a
            # slow machine speed within seconds, and the median of such a
            # two-peaked sample jumps from one peak to the other between runs
            "infer_s": t["infer_s"]["mean"],
            "peak_rss_mb": detail["peak_rss_mb"],
        }
        values = {m: values[m] for m in declared}
    result = {
        "correct": bool(correct),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m: {"value": values[m], "unit": unit} for m, unit in declared.items()},
    }
    return result, detail
