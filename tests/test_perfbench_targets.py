"""The benchmark still runs against nbgbm.

Every name the benchmark's tracer and probes patch must exist:
`Tracer.install` raises AttributeError on a missing name, so a refactor
that drops a traced function would otherwise pass the unit tests and fail
every benchmark run.  The benchmark's self-test must pass too, which also
catches a changed field or signature that the workloads use.
"""

import importlib
import pathlib
import subprocess
import sys

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_and_probed_names_resolve_to_callables(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    workloads = importlib.import_module("workloads")
    for module, dotted, _ in tracer.TARGETS + workloads.PROBES:
        owner, attr = tracer._resolve(importlib.import_module(f"nbgbm.{module}"), dotted)
        assert callable(getattr(owner, attr, None)), f"nbgbm.{module}.{dotted}"


def test_benchmark_self_test_passes():
    # runs the workloads at tiny sizes through the calls they make on
    # SimTruth, FitConfig and the fit and inference signatures
    out = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=PERFBENCH.parent,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "smoke: ok" in out.stdout
