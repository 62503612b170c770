"""Correctness checks on the program's outputs, and failure accounting.

Each check function returns {check name: passed}.  A program call fails
when any check on it fails; `Ledger` counts calls attempted and failed and
how often each check ran, so a self-test can show that every check runs.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

ALL_CHECKS = (
    "call.no_exception",
    "fit.trace_finite",
    "fit.no_net_descent",
    "fit.constraints",
    "se.finite_positive",
    "cli.exit_zero",
    "cli.output_matches",
)


def fit_checks(result, cov, check_constraints):
    """A finite trace, a final log-posterior not below the initial one, and
    a final state inside the constraint tolerance."""
    trace = np.asarray(result.trace, dtype=float)
    finite = bool(np.all(np.isfinite(trace)))
    return {
        "fit.trace_finite": finite,
        "fit.no_net_descent": finite and bool(trace[-1] >= trace[0]),
        "fit.constraints": bool(check_constraints(result.params, cov).passed),
    }


def se_checks(blocks):
    """Every reported standard error is finite and positive."""
    values = np.concatenate([np.ravel(b) for b in blocks.values()])
    return {"se.finite_positive": bool(values.size and np.all(np.isfinite(values))
                                       and np.all(values > 0))}


def exit_checks(code):
    return {"cli.exit_zero": code == 0}


def output_checks(pairs):
    """Each (file path, in-memory array) pair reads back exactly."""
    ok = True
    for path, expected in pairs:
        expected = np.asarray(expected, dtype=float)
        got = np.loadtxt(path, delimiter=",", ndmin=2)
        ok = ok and got.size == expected.size and bool(
            np.array_equal(got.ravel(), expected.ravel()))
    return {"cli.output_matches": ok}


def trace_drops(trace):
    """Iterations at which the reported log-posterior fell."""
    return int(np.count_nonzero(np.diff(np.asarray(trace, dtype=float)) < 0))


class Ledger:
    """Calls attempted and failed, plus how often each check ran and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.ran = Counter()
        self.failures = Counter()

    def call(self, *results):
        """Account one program call that returned, from the checks made on it."""
        return self._account(({"call.no_exception": True},) + results)

    def raised(self):
        """Account one program call that raised."""
        return self._account(({"call.no_exception": False},))

    def _account(self, results):
        self.attempted += 1
        ok = True
        for result in results:
            for name, passed in result.items():
                self.ran[name] += 1
                if not passed:
                    self.failures[name] += 1
                    ok = False
        if not ok:
            self.failed += 1
        return ok
