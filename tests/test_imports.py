"""The import graph: what loading nbgbm, and running the CLI, pulls in.

The graph checks run in fresh interpreters, because the rest of the suite
has long since loaded numpy and every nbgbm submodule.
"""

import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

import nbgbm

ROOT = pathlib.Path(__file__).resolve().parents[1]
SUBMODULES = ("cli", "estimation", "exceptions", "inference", "io", "metrics", "model",
              "nb", "rngstreams", "simulate")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "NBGBM_THREADS")


def run_fresh(code, **env):
    """Run `code` in a new interpreter with `src/` first on its path; return stdout."""
    base = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    base["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), base.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-c", code], env={**base, **env}, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestImportGraph:
    def test_cli_import_loads_no_numpy(self):
        out = run_fresh("import sys, nbgbm.cli; print('numpy' in sys.modules)")
        assert out.split() == ["False"]

    def test_no_module_loads_scipy_stats(self):
        out = run_fresh(
            "import importlib, sys, nbgbm\n"
            f"for name in {SUBMODULES!r}: importlib.import_module('nbgbm.' + name)\n"
            "for name in nbgbm.__all__: getattr(nbgbm, name)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
        assert out.split() == ["[]"]

    def test_no_module_loads_scipy(self):
        # scipy is imported inside the functions that call it
        out = run_fresh(
            "import importlib, sys, nbgbm\n"
            f"for name in {SUBMODULES!r}: importlib.import_module('nbgbm.' + name)\n"
            "for name in nbgbm.__all__: getattr(nbgbm, name)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        assert out.split() == ["[]"]

    def test_fit_loads_neither_inference_nor_simulate(self, tmp_path):
        counts = tmp_path / "Y.csv"
        counts.write_text("".join(f"{i % 5},{i % 3},{i % 7},{i % 2}\n" for i in range(12)))
        out = run_fresh(
            "import sys\n"
            "from nbgbm.cli import main\n"
            f"assert main(['fit', '--counts', {str(counts)!r}, '--out', "
            f"{str(tmp_path / 'fit')!r}]) == 0\n"
            "print(sorted(m for m in ('nbgbm.inference', 'nbgbm.simulate') if m in sys.modules))\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        assert out.split() == ["[]", "[]"]

    def test_standard_errors_load_scipy_linalg_on_first_call(self):
        out = run_fresh(
            "import sys\n"
            "from nbgbm import SimScheme, simulate_dataset, standard_errors\n"
            "Y, truth = simulate_dataset(SimScheme(dims=(20, 10, 2, 2, 1), seed=1))\n"
            "before = 'scipy.linalg' in sys.modules\n"
            "standard_errors(Y, truth.params0, truth.cov)\n"
            "print(before, 'scipy.linalg' in sys.modules)")
        assert out.split() == ["False", "True"]

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
    @pytest.mark.parametrize("flags, env", [(["--threads", "1"], {}),
                                            ([], {"NBGBM_THREADS": "1"})])
    def test_thread_cap_applies_before_numpy_loads(self, tmp_path, flags, env):
        out = run_fresh(
            "from nbgbm.cli import main\n"
            f"assert main({flags!r} + ['simulate', '--dims', '20x10x2x2x1', '--out', "
            f"{str(tmp_path)!r}]) == 0\n"
            "print(open('/proc/self/status').read())", **env)
        assert re.search(r"^Threads:\s+1$", out, re.MULTILINE), out


class TestLazyNamespace:
    EXPORTS = [
        "CovariateSet", "DataMatrix", "FitConfig", "FitResult", "GbmParams",
        "InferenceResult", "PriorConfig", "SimScheme", "SimTruth", "WeightedSeries",
        "align_latent_factors", "bias_correct_dispersions", "bounded_fisher_step",
        "check_constraints", "coverage_curve", "fit",
        "generate_covariates", "generate_outcomes", "generate_parameters", "initial_params",
        "joint_uv_uncertainty", "linear_predictor", "lrse", "partial_residuals",
        "prepare_covariates", "relative_mse", "residual_precisions", "residuals",
        "simulate_dataset", "standard_errors", "standardize_covariates",
        "sum_of_squares_decomposition", "wald_tests", "weighted_moving_average", "wmad",
    ]

    def test_all_lists_the_public_names(self):
        assert sorted(nbgbm.__all__) == self.EXPORTS

    @pytest.mark.parametrize("name", EXPORTS)
    def test_name_is_the_submodules_own_object(self, name):
        obj = getattr(nbgbm, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj
        assert name in dir(nbgbm)

    def test_submodules_resolve_as_attributes(self):
        assert nbgbm.fit is nbgbm.estimation.fit
        for name in SUBMODULES:
            assert getattr(nbgbm, name) is importlib.import_module(f"nbgbm.{name}")

    def test_readme_quick_start_import_runs(self):
        readme = (ROOT / "README.md").read_text()
        line = re.search(r"^from nbgbm import \([^)]*\)", readme, re.MULTILINE).group(0)
        namespace = {}
        exec(line, namespace)
        assert namespace["fit"] is nbgbm.estimation.fit

    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from nbgbm import *", namespace)
        assert set(self.EXPORTS) <= set(namespace)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            nbgbm.no_such_name
