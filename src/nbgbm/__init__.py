"""Negative-binomial generalized bilinear models.

Fitting (bounded regularized Fisher scoring with likelihood-preserving
projections), approximate standard errors (conditional Fisher inverses,
joint constraint-augmented latent uncertainty, delta propagation), a
simulation harness for calibration studies, and weighted signal metrics.

The package namespace is lazy (PEP 562): importing `nbgbm` loads none of
its submodules, and `nbgbm.fit`, `from nbgbm import fit` or
`nbgbm.estimation` imports the submodule that defines the name on first
use.  So `import nbgbm.cli` loads no numpy, and the CLI's `--threads` pins
the BLAS thread count before numpy starts its thread pool; a command loads
only the submodules it runs (`nbgbm fit` never imports `inference` or
`simulate`).
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "estimation": ("FitResult", "bias_correct_dispersions", "bounded_fisher_step", "fit",
                   "initial_params", "prepare_covariates"),
    "inference": ("InferenceResult", "joint_uv_uncertainty", "standard_errors", "wald_tests"),
    "metrics": ("WeightedSeries", "lrse", "weighted_moving_average", "wmad"),
    "model": ("CovariateSet", "DataMatrix", "FitConfig", "GbmParams", "PriorConfig",
              "check_constraints", "linear_predictor", "partial_residuals",
              "residual_precisions", "residuals", "standardize_covariates",
              "sum_of_squares_decomposition"),
    "simulate": ("SimScheme", "SimTruth", "align_latent_factors", "coverage_curve",
                 "generate_covariates", "generate_outcomes", "generate_parameters",
                 "relative_mse", "simulate_dataset"),
}
_SUBMODULES = ("cli", "estimation", "exceptions", "inference", "io", "metrics", "model",
               "nb", "rngstreams", "simulate")
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _SOURCE:
        return getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
