"""The three workloads: what one operation runs and how it is checked.

Inputs come from the benchmark seed through `simulate_dataset`; the program
only receives the generated counts, covariates and parameters.

- paper-cell: the calibration-study unit of work, one `fit` followed by one
  `standard_errors` on a 200x50x2x2x1 NB/Normal/Normal replicate.  Arrays
  are small, so iteration count, per-call overhead and the eight block
  updates weigh most; the joint (U, V) system has only J*M = 50 rows.
- cli-medium: one `nbgbm simulate` -> `fit` -> `infer` round trip through
  `nbgbm.cli.main`, in process, with files in a directory of the checkout.
  The only workload that exercises `io` and `cli`; its fit is dominated by
  the S/T dispersion path.
- infer-wide: `standard_errors` alone at the simulation's true parameters.
  The joint (U, V) solve is cubic in J*M and the dense IM x JM cross
  information sets peak memory; no fit runs, so a fit-only change should
  leave it unchanged.

Sizes are smaller than the ROADMAP's medium/large cells so that a run
completes several operations within its measuring time on two cores.
"""

from __future__ import annotations

import os
import shutil
import tempfile

import numpy as np

import checks
from nbgbm import cli, estimation, inference, simulate
from nbgbm.model import check_constraints

Z95 = 1.959963984540054
SCHEME = "NB/Normal/Normal"


# the calls the workloads' checks read back, from the benchmark or from
# inside the CLI; kept by a Tracer(..., PROBES, keep=True)
PROBES = (("estimation", "fit", "estimation.fit"),
          ("inference", "standard_errors", "inference.standard_errors"),
          ("simulate", "simulate_dataset", "simulate.simulate_dataset"))


def fit_facts(seconds, result):
    return {"seconds": seconds, "iterations": result.iterations,
            "converged": result.converged, "drops": checks.trace_drops(result.trace),
            "final_lp": float(result.trace[-1])}


def se_facts(seconds, result):
    return {"seconds": seconds,
            "sums": {name: float(np.sum(block)) for name, block in result.blocks().items()}}


def quality(est, truth, ses=None):
    """Mean relative MSE of A, B, C, U, V after factor alignment, and the
    95% Wald coverage counts of the A and B entries."""
    aligned = simulate.align_latent_factors(est, truth)
    rel = [simulate.relative_mse(getattr(aligned, name), getattr(truth, name))
           for name in ("A", "B", "C", "U", "V")]
    out = {"rel_mse": float(np.mean(rel))}
    if ses is not None:
        covered = total = 0
        for name in ("A", "B"):
            err = np.abs(getattr(est, name) - getattr(truth, name))
            covered += int(np.count_nonzero(err <= Z95 * ses.blocks()[name]))
            total += err.size
        out["covered"], out["entries"] = covered, total
    return out


def simulated_pool(seed, dims, size):
    """`size` replicates of the NB/Normal/Normal scheme at `dims` for one seed."""
    scheme = simulate.SimScheme.parse(SCHEME, dims, seed=seed)
    return [simulate.simulate_dataset(scheme, replicate=k) for k in range(size)]


class PaperCell:
    name = "paper-cell"

    def __init__(self, seed, root, dims=(200, 50, 2, 2, 1), pool=64, fixed_ops=20):
        self.seed, self.dims, self.pool, self.fixed_ops = seed, dims, pool, fixed_ops

    def setup(self):
        self.data = simulated_pool(self.seed, self.dims, self.pool)

    def op(self, k):
        Y, truth = self.data[k % self.pool]
        result = estimation.fit(Y, truth.cov, self.dims[4])
        inference.standard_errors(Y, result.params, truth.cov)

    def account(self, k, probe, ledger):
        _, truth = self.data[k % self.pool]
        facts = {"fits": [], "ses": []}
        est = None
        for seconds, (_, cov, *_), result in probe.take("estimation.fit"):
            ledger.call(checks.fit_checks(result, cov, check_constraints))
            facts["fits"].append(fit_facts(seconds, result))
            est = result.params
        for seconds, _, result in probe.take("inference.standard_errors"):
            ledger.call(checks.se_checks(result.blocks()))
            facts["ses"].append(se_facts(seconds, result))
            facts["quality"] = quality(est, truth.params0, result)
        return facts

    def close(self):
        pass


class CliMedium:
    name = "cli-medium"

    def __init__(self, seed, root, dims=(250, 100, 4, 2, 3), fixed_ops=3):
        self.seed, self.dims, self.fixed_ops = seed, dims, fixed_ops
        self.root = root

    def setup(self):
        self.tmp = tempfile.mkdtemp(prefix="cli-medium-", dir=self.root)

    def _dirs(self, k):
        base = os.path.join(self.tmp, f"op{k}")
        return base, os.path.join(base, "sim"), os.path.join(base, "fit"), os.path.join(base, "se")

    def op(self, k):
        base, sim, fit_dir, se_dir = self._dirs(k)
        shutil.rmtree(base, ignore_errors=True)   # left behind by an operation that raised
        commands = (
            ["simulate", "--scheme", SCHEME, "--dims", "x".join(map(str, self.dims)),
             "--seed", str(self.seed), "--replicate", str(k), "--out", sim],
            ["fit", "--counts", os.path.join(sim, "Y.csv"),
             "--row-covariates", os.path.join(sim, "X.csv"),
             "--col-covariates", os.path.join(sim, "Z.csv"),
             "--latent", str(self.dims[4]), "--seed", str(self.seed), "--out", fit_dir],
            ["infer", "--counts", os.path.join(sim, "Y.csv"), "--fit-dir", fit_dir,
             "--out", se_dir, "--test", "B:2"],
        )
        self.codes = []
        for argv in commands:
            self.codes.append(cli.main(argv))
            if self.codes[-1] != 0:
                break

    def account(self, k, probe, ledger):
        base, _, fit_dir, se_dir = self._dirs(k)
        codes = self.codes + [None] * (3 - len(self.codes))
        facts = {"fits": [], "ses": []}
        ledger.call(checks.exit_checks(codes[0]))
        est = truth = None
        if codes[0] == 0:
            _, _, (_, sim_truth) = probe.take("simulate.simulate_dataset")[0]
            truth = sim_truth.params0
            fit_calls = probe.take("estimation.fit")
            results = [checks.exit_checks(codes[1])]
            if fit_calls:
                seconds, (_, cov, *_), result = fit_calls[0]
                results += [checks.fit_checks(result, cov, check_constraints),
                            checks.output_checks([(os.path.join(fit_dir, "trace.csv"),
                                                   result.trace)])]
                facts["fits"].append(fit_facts(seconds, result))
                est = result.params
            ledger.call(*results)
        if codes[1] == 0:
            se_calls = probe.take("inference.standard_errors")
            results = [checks.exit_checks(codes[2])]
            if se_calls:
                seconds, _, result = se_calls[0]
                blocks = {n: b for n, b in result.blocks().items() if b.size}
                results += [checks.se_checks(blocks),
                            checks.output_checks([(os.path.join(se_dir, f"se_{n}.csv"), b)
                                                  for n, b in blocks.items()])]
                facts["ses"].append(se_facts(seconds, result))
                facts["quality"] = quality(est, truth, result)
            ledger.call(*results)
        shutil.rmtree(base, ignore_errors=True)
        return facts

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


class InferWide:
    name = "infer-wide"

    def __init__(self, seed, root, dims=(400, 400, 4, 2, 3), pool=4, fixed_ops=4):
        self.seed, self.dims, self.pool, self.fixed_ops = seed, dims, pool, fixed_ops

    def setup(self):
        self.data = simulated_pool(self.seed, self.dims, self.pool)

    def op(self, k):
        Y, truth = self.data[k % self.pool]
        inference.standard_errors(Y, truth.params0, truth.cov)

    def account(self, k, probe, ledger):
        facts = {"fits": [], "ses": []}
        for seconds, _, result in probe.take("inference.standard_errors"):
            ledger.call(checks.se_checks(result.blocks()))
            facts["ses"].append(se_facts(seconds, result))
        return facts

    def close(self):
        pass


WORKLOADS = {w.name: w for w in (PaperCell, CliMedium, InferWide)}
