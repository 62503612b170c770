"""Span tracing of the nbgbm layers, installed from outside the package.

Every traced function is replaced at the attribute its caller resolves at
call time: `fit` looks its block updates up in `nbgbm.estimation`, the
updates call `nb.dispersion_derivatives` through the `nbgbm.nb` module,
`standard_errors` finds its stages in `nbgbm.inference`, and the CLI
handlers are picked from `nbgbm.cli` when `main` runs.  A function imported
by name into several modules (`linear_predictor`) is wrapped at each of
those bindings under one span name.

Spans are kept in memory as (name, start, end, parent) and turned into
per-function statistics at the end.  Self time is a span's duration minus
the durations of its direct children; the program is single-threaded, so
children nest inside their parent.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict

# (module inside nbgbm, attribute path, span name)
TARGETS = (
    ("simulate", "simulate_dataset", "simulate.simulate_dataset"),
    ("simulate", "generate_covariates_counted", "simulate.generate_covariates"),
    ("simulate", "generate_parameters", "simulate.generate_parameters"),
    ("simulate", "generate_outcomes", "simulate.generate_outcomes"),
    ("simulate", "linear_predictor", "model.linear_predictor"),
    ("estimation", "fit", "estimation.fit"),
    ("estimation", "prepare_covariates", "estimation.prepare_covariates"),
    ("estimation", "initial_params", "estimation.initial_params"),
    ("estimation", "make_state", "estimation.make_state"),
    ("estimation", "update_a", "estimation.update_a"),
    ("estimation", "update_b", "estimation.update_b"),
    ("estimation", "update_c", "estimation.update_c"),
    ("estimation", "update_d", "estimation.update_d"),
    ("estimation", "update_g", "estimation.update_g"),
    ("estimation", "update_h", "estimation.update_h"),
    ("estimation", "update_s", "estimation.update_s"),
    ("estimation", "update_t", "estimation.update_t"),
    ("estimation", "project_g", "estimation.project_g"),
    ("estimation", "project_h", "estimation.project_h"),
    ("estimation", "bias_correct_dispersions", "estimation.bias_correct_dispersions"),
    ("estimation", "FitState.refresh", "estimation.FitState.refresh"),
    ("estimation", "FitState.log_posterior", "estimation.FitState.log_posterior"),
    ("estimation", "linear_predictor", "model.linear_predictor"),
    ("estimation", "check_constraints", "model.check_constraints"),
    ("nb", "nb_workspace", "nb.nb_workspace"),
    ("nb", "inverse_dispersions", "nb.inverse_dispersions"),
    ("nb", "nb_log_pmf", "nb.nb_log_pmf"),
    ("nb", "dispersion_derivatives", "nb.dispersion_derivatives"),
    ("nb", "psi_delta", "nb.psi_delta"),
    ("nb", "psi_prime_delta", "nb.psi_prime_delta"),
    ("inference", "standard_errors", "inference.standard_errors"),
    ("inference", "preprocess", "inference.preprocess"),
    ("inference", "joint_uv_uncertainty", "inference.joint_uv_uncertainty"),
    ("inference", "latent_cross_information", "inference.latent_cross_information"),
    ("inference", "propagate_uv_to_ab", "inference.propagate_uv_to_ab"),
    ("inference", "propagate_ab_to_c", "inference.propagate_ab_to_c"),
    ("inference", "propagate_to_dispersions", "inference.propagate_to_dispersions"),
    ("inference", "linear_predictor", "model.linear_predictor"),
    ("io", "read_matrix", "io.read_matrix"),
    ("io", "write_matrix", "io.write_matrix"),
    ("io", "write_params", "io.write_params"),
    ("io", "read_params", "io.read_params"),
    ("io", "write_json", "io.write_json"),
    ("io", "file_digest", "io.file_digest"),
    ("cli", "main", "cli.main"),
    ("cli", "cmd_simulate", "cli.cmd_simulate"),
    ("cli", "cmd_fit", "cli.cmd_fit"),
    ("cli", "cmd_infer", "cli.cmd_infer"),
)


def _file_size(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


# span name -> (counter name, function of (args, kwargs, result) giving the
# increment).  Counters are read after the call, so a written file is complete.
COUNTERS = {
    "io.read_matrix": ("io.bytes_read", _file_size),
    "io.file_digest": ("io.bytes_read", _file_size),
    "io.write_matrix": ("io.bytes_written", _file_size),
    "io.write_json": ("io.bytes_written", _file_size),
    "nb.dispersion_derivatives": ("nb.dispersion_derivatives.elements",
                                  lambda args, kwargs, result: int(result.delta.size)),
    # computed from the size of the dense IM x JM cross information array
    "inference.latent_cross_information": ("inference.fuv_bytes",
                                           lambda args, kwargs, result: int(result.nbytes)),
}


def _resolve(root, dotted):
    """Return (owner, attribute name) for `dotted` below `root`."""
    *owners, attr = dotted.split(".")
    obj = root
    for name in owners:
        obj = getattr(obj, name)
    return obj, attr


class Tracer:
    """Records spans around the nbgbm functions in `targets` while installed.

    Spans recorded while installed with a `prefix` carry it in their name
    (set-up spans are named `setup.<module>.<function>`).  With `keep`, each
    span that returned also keeps the call's positional arguments and
    result, for the workloads' checks.
    """

    def __init__(self, package, targets=TARGETS, keep=False):
        self.package = package
        self.targets = targets
        self.keep = keep
        self.spans = []          # [name, start, end, parent index, (args, result) or None]
        self.counters = defaultdict(int)
        self._stack = []
        self._patched = []

    def install(self, prefix=""):
        for module, dotted, name in self.targets:
            module = importlib.import_module(f"{self.package.__name__}.{module}")
            owner, attr = _resolve(module, dotted)
            original = getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, prefix, original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, prefix, fn):
        counter = COUNTERS.get(name)
        name = prefix + name

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), None, parent, None]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                self.counters[prefix + counter[0]] += counter[1](args, kwargs, result)
            if self.keep:
                span[4] = (args, result)
            return result

        return traced

    def take(self, name):
        """(seconds, args, result) of each kept call of the span `name`."""
        return [(end - start, *kept) for span_name, start, end, _, kept in self.spans
                if span_name == name and kept is not None]

    def stats(self):
        """Per span name: calls, total_s and self_s."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            duration = end - start
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time[index]
        return out

    def dump(self, path):
        """Write every span, with times relative to the first one."""
        origin = self.spans[0][1] if self.spans else 0.0
        payload = {
            "spans": [{"name": n, "start": s - origin, "end": e - origin, "parent": p}
                      for n, s, e, p, _ in self.spans],
            "counters": dict(self.counters),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)
