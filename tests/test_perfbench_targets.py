"""Every name the benchmark's tracer and probes patch must exist in nbgbm.

`Tracer.install` raises AttributeError on a missing name, so a refactor
that drops a traced function would otherwise pass the unit tests and fail
every benchmark run.
"""

import importlib
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_and_probed_names_resolve_to_callables(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    workloads = importlib.import_module("workloads")
    for module, dotted, _ in tracer.TARGETS + workloads.PROBES:
        owner, attr = tracer._resolve(importlib.import_module(f"nbgbm.{module}"), dotted)
        assert callable(getattr(owner, attr, None)), f"nbgbm.{module}.{dotted}"
