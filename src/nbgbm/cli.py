"""Command line surface: fit, infer, simulate, evaluate, score.

fit, infer and simulate write a manifest.json recording the configuration,
seed, input digests, software version and warnings, so seeded runs are
reproducible; evaluate and score write a JSON report.
Exit codes: 0 success (including non-converged fits, which are flagged in
the manifest), 2 usage errors, 3 input/parse errors, 4 numeric failures.

Heavy numeric modules are imported lazily so --threads can pin the BLAS
thread count before numpy loads; --threads 1 gives bit-exact determinism.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
import warnings

from . import __version__
from .exceptions import DomainError, InputError, NbgbmError, NumericError

EXIT_INPUT = 3
EXIT_NUMERIC = 4


def _checked(convert, holds, expected):
    """An argparse type: `convert` the text, then a usage error (exit 2)
    unless the value `holds`."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not holds(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return parse


NON_NEGATIVE = _checked(int, lambda n: n >= 0, "a non-negative integer")


def _set_threads(n):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(n)


PRIOR_FIELDS = tuple(f"lambda_{name}" for name in "abcduvst") + ("m_s", "m_t")


def _add_prior_args(parser):
    """The --lambda-* prior precisions (default 1) and --m-s/--m-t prior
    means (default 0) of `fit`."""
    for name in PRIOR_FIELDS:
        parser.add_argument("--" + name.replace("_", "-"), type=float,
                            default=1.0 if name.startswith("lambda") else 0.0)


def _prior_config(settings):
    """PriorConfig from a mapping holding every prior field: the parsed `fit`
    flags or the `config` of a fit manifest."""
    from .model import PriorConfig

    return PriorConfig(**{name: float(settings[name]) for name in PRIOR_FIELDS})


def _fit_prior(fit_dir, counts, digests):
    """(prior, converged) of the fit in `fit_dir`, read from its manifest,
    after checking that the counts file `counts`, whose SHA-256 `digests`
    holds (io.read_bytes), hashes to its input_digests.counts.

    Standard errors are taken at the MAP estimate, so they hold only under
    that prior and for those counts; a fit that did not converge raises a
    warning.  The manifest is not digested, since it holds the fit's wall
    time; infer records what it uses of it.  A directory without a manifest
    (simulate's truth/) is not checked and gets the default prior and
    converged None."""
    from . import io
    from .model import PriorConfig

    path = os.path.join(fit_dir, "manifest.json")
    if not os.path.exists(path):
        return PriorConfig(), None
    try:
        manifest = io.read_json(path)
        prior = _prior_config(manifest["config"])
        fitted = manifest["input_digests"]["counts"]
        converged = bool(manifest["convergence"]["converged"])
        iterations = manifest["convergence"]["iterations"]
    except KeyError as err:
        raise InputError(f"{path} has no field {err}; infer needs the fit's prior, "
                         "the digest of its counts and its convergence") from err
    except (TypeError, ValueError, DomainError) as err:
        raise InputError(f"{path}: invalid fit manifest ({err})") from err
    if digests[counts] != fitted:
        raise InputError(f"{counts} are not the counts of the fit in {fit_dir}: their SHA-256 "
                         f"differs from input_digests.counts in {path}")
    if not converged:
        warnings.warn(f"the fit in {fit_dir} stopped at iteration {iterations} without converging")
    return prior, converged


def _wald_column(spec, params):
    """(block, 0-based column) of a --test BLOCK:COLUMN spec, checked against params."""
    block_name, _, column = spec.partition(":")
    if block_name not in ("A", "B", "U", "V") or not column.isdecimal():
        raise InputError(f"--test expects BLOCK:COLUMN with BLOCK in A,B,U,V; got {spec!r}")
    col = int(column) - 1
    width = params.blocks()[block_name].shape[1]
    if not 0 <= col < width:
        raise InputError(f"--test {spec!r}: column out of range 1..{width}")
    return block_name, col


def _fixed_entries(ses):
    """1-based indices, per block, of the entries of standard error 0 (fixed by the constraints)."""
    import numpy as np

    return {name: (np.argwhere(se == 0) + 1).tolist() for name, se in ses.items() if 0 in se}


@contextlib.contextmanager
def _manifest(out_dir, command, seed):
    """Yield the manifest of a command writing into `out_dir`, and write it
    there as manifest.json when the command succeeds.

    The command adds its `config` and, as needed, `input_digests` and
    `convergence`; the wall time, the timestamp and the messages of the
    warnings raised inside are added on exit.  The warnings are re-emitted,
    so stderr shows what it would have shown without the recording."""
    from . import io

    t0 = time.time()
    manifest = {"command": command, "seed": seed, "software_version": __version__,
                "input_digests": {}, "convergence": None}
    try:
        with warnings.catch_warnings(record=True) as caught:
            yield manifest
    finally:
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, source=w.source)
    manifest.update(warnings=[str(w.message) for w in caught], wall_time_seconds=time.time() - t0,
                    timestamp=time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()))
    io.write_json(os.path.join(out_dir, "manifest.json"), manifest)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nbgbm",
        description="Negative-binomial generalized bilinear models: "
                    "fitting, standard errors, simulation, and evaluation.",
    )
    # argparse parses a string default with `type`, so a bad NBGBM_THREADS
    # is a usage error too, unless --threads overrides it
    parser.add_argument("--threads", default=os.environ.get("NBGBM_THREADS"),
                        type=_checked(int, lambda n: n >= 1,
                                      "a positive integer (from --threads or NBGBM_THREADS)"),
                        help="cap BLAS/OpenMP threads (1 = deterministic; "
                             "default from NBGBM_THREADS)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit the model to a count matrix")
    p_fit.add_argument("--counts", required=True, help="count matrix file (I x J)")
    p_fit.add_argument("--row-covariates", help="row covariate file (I x K); intercept-only if omitted")
    p_fit.add_argument("--col-covariates", help="column covariate file (J x L); intercept-only if omitted")
    p_fit.add_argument("--latent", type=int, default=0, help="number of latent factors M")
    p_fit.add_argument("--out", required=True, help="output directory")
    p_fit.add_argument("--max-iter", type=int, default=50)
    p_fit.add_argument("--tol", type=float, default=1e-6)
    p_fit.add_argument("--seed", type=NON_NEGATIVE, default=0)
    p_fit.add_argument("--no-standardize", action="store_true",
                       help="keep covariates on their original scale")
    _add_prior_args(p_fit)

    p_inf = sub.add_parser("infer", help="standard errors and Wald tests for a fit, "
                                         "under the prior recorded in its manifest")
    p_inf.add_argument("--counts", required=True)
    p_inf.add_argument("--fit-dir", required=True, help="directory written by `fit`")
    p_inf.add_argument("--out", required=True)
    p_inf.add_argument("--test", action="append", default=[],
                       help="BLOCK:COLUMN (1-based), e.g. B:4, to emit Wald tests")
    p_inf.add_argument("--level", type=_checked(float, lambda p: 0.0 < p < 1.0,
                                                "a number strictly between 0 and 1"),
                       default=0.95,
                       help="confidence level of the Wald intervals, in (0, 1)")

    p_sim = sub.add_parser("simulate", help="draw a synthetic dataset with known truth")
    p_sim.add_argument("--scheme", default="NB/Normal/Normal",
                       help="outcome/covariates/parameters, e.g. NB/Normal/Normal")
    p_sim.add_argument("--dims", required=True, help="IxJxKxLxM, e.g. 1000x100x4x2x3")
    p_sim.add_argument("--seed", type=NON_NEGATIVE, default=0)
    p_sim.add_argument("--replicate", type=NON_NEGATIVE, default=0)
    p_sim.add_argument("--out", required=True)

    p_eval = sub.add_parser("evaluate", help="relative MSE and coverage against a truth")
    p_eval.add_argument("--fit-dir", required=True)
    p_eval.add_argument("--truth-dir", required=True)
    p_eval.add_argument("--se-dir", help="directory written by `infer` (enables coverage)")
    p_eval.add_argument("--out", required=True, help="report file (JSON)")

    p_score = sub.add_parser("score", help="LRSE and WMAD for weighted series")
    p_score.add_argument("--series", required=True, help="n x c matrix; one series per column")
    p_score.add_argument("--weights", required=True, help="matching precision matrix")
    p_score.add_argument("--bandwidth", type=int, default=100)
    p_score.add_argument("--out", required=True, help="report file (JSON)")
    return parser


def cmd_fit(args) -> int:
    import numpy as np

    from . import estimation, io
    from .model import DataMatrix, FitConfig

    digests = {}
    with _manifest(args.out, "fit", args.seed) as manifest:
        Y = DataMatrix(io.read_matrix(args.counts, digests=digests))
        X = (io.read_matrix(args.row_covariates, digests=digests) if args.row_covariates
             else np.ones((Y.I, 1)))
        Z = (io.read_matrix(args.col_covariates, digests=digests) if args.col_covariates
             else np.ones((Y.J, 1)))
        if X.shape[0] != Y.I:
            raise InputError(f"row covariates {args.row_covariates} have {X.shape[0]} rows, "
                             f"counts {args.counts} have {Y.I}")
        if Z.shape[0] != Y.J:
            raise InputError(f"column covariates {args.col_covariates} have {Z.shape[0]} rows, "
                             f"counts {args.counts} have {Y.J} columns")
        prior = _prior_config(vars(args))
        config = FitConfig(tol=args.tol, max_iter=args.max_iter, seed=args.seed)
        cov = estimation.prepare_covariates(X, Z, standardize=not args.no_standardize)
        result = estimation.fit(Y, cov, args.latent, prior, config)
        report = result.constraints
        os.makedirs(args.out, exist_ok=True)
        io.write_params(args.out, result.params)
        io.write_matrix(os.path.join(args.out, "X.csv"), cov.X)
        io.write_matrix(os.path.join(args.out, "Z.csv"), cov.Z)
        io.write_matrix(os.path.join(args.out, "trace.csv"), np.asarray(result.trace)[:, None])
        manifest.update(
            config={**vars(config), "standardize": not args.no_standardize, **vars(prior),
                    "latent": args.latent},
            input_digests={name: digests[path] for name, path in
                           (("counts", args.counts), ("row_covariates", args.row_covariates),
                            ("col_covariates", args.col_covariates)) if path},
            convergence={"converged": result.converged, "iterations": result.iterations,
                         "final_log_posterior": result.trace[-1],
                         "clamp_events": result.clamp_events,
                         "constraints_passed": report.passed,
                         "constraint_violations": {
                             name: getattr(report, name)
                             for name in ("max_zta", "max_xtb", "max_xtu", "max_ztv",
                                          "max_utu", "max_vtv")}})
    return 0


def cmd_infer(args) -> int:
    import numpy as np

    from . import inference, io
    from .model import CovariateSet, DataMatrix

    digests = {}                 # path -> SHA-256 of the bytes read and parsed
    with _manifest(args.out, "infer", None) as manifest:
        Y = DataMatrix(io.read_matrix(args.counts, digests=digests))
        prior, converged = _fit_prior(args.fit_dir, args.counts, digests)
        params = io.read_params(args.fit_dir, digests)
        wald_columns = [_wald_column(spec, params) for spec in args.test]
        X = io.read_matrix(os.path.join(args.fit_dir, "X.csv"), digests=digests)
        Z = io.read_matrix(os.path.join(args.fit_dir, "Z.csv"), digests=digests)
        cov = CovariateSet(X, Z)
        result = inference.standard_errors(Y, params, cov, prior)
        os.makedirs(args.out, exist_ok=True)
        for name, block in result.blocks().items():
            io.write_matrix(os.path.join(args.out, f"se_{name}.csv"), block)
        estimates = params.blocks()
        for block_name, col in wald_columns:
            estimate, se = estimates[block_name][:, col], result.blocks()[block_name][:, col]
            free = se != 0                       # a fixed entry's interval is its estimate
            tests = inference.wald_tests(estimate[free], se[free], level=args.level)
            rows = [estimate, se, np.full(se.shape, np.nan), estimate.copy(), estimate.copy()]
            for row, key in zip(rows[2:], ("p_values", "ci_lower", "ci_upper")):
                row[free] = tests[key]
            io.write_matrix(os.path.join(args.out, f"wald_{block_name}_{col + 1}.csv"),
                            np.column_stack(rows),
                            header=["estimate", "se", "p_value", "ci_lower", "ci_upper"])
        manifest.update(
            config={"level": args.level, "tests": args.test, **vars(prior)},
            input_digests={"counts": digests.pop(args.counts),     # the rest are fit files
                           **{os.path.basename(path): h for path, h in digests.items()}},
            stage_seconds=result.stage_seconds, fit_converged=converged,
            fixed_entries=_fixed_entries(result.blocks()))
    return 0


def cmd_simulate(args) -> int:
    from . import io
    from .simulate import SimScheme, simulate_dataset

    with _manifest(args.out, "simulate", args.seed) as manifest:
        try:
            dims = tuple(int(tok) for tok in args.dims.lower().split("x"))
        except ValueError:
            raise InputError(f"--dims must look like 1000x100x4x2x3, got {args.dims!r}")
        if len(dims) != 5:
            raise InputError(f"--dims needs five fields IxJxKxLxM, got {args.dims!r}")
        scheme = SimScheme.parse(args.scheme, dims, seed=args.seed)
        Y, truth = simulate_dataset(scheme, replicate=args.replicate)
        os.makedirs(args.out, exist_ok=True)
        io.write_matrix(os.path.join(args.out, "Y.csv"), Y.values)
        io.write_matrix(os.path.join(args.out, "X.csv"), truth.cov.X)
        io.write_matrix(os.path.join(args.out, "Z.csv"), truth.cov.Z)
        truth_dir = os.path.join(args.out, "truth")
        io.write_params(truth_dir, truth.params0)
        io.write_matrix(os.path.join(truth_dir, "X.csv"), truth.cov.X)
        io.write_matrix(os.path.join(truth_dir, "Z.csv"), truth.cov.Z)
        manifest["config"] = {"scheme": args.scheme, "dims": list(dims),
                              "replicate": args.replicate,
                              "covariate_clamp_events": truth.clamp_events}
    return 0


def cmd_evaluate(args) -> int:
    import numpy as np

    from . import io
    from .simulate import align_latent_factors, coverage_curve, relative_mse

    t0 = time.time()
    est, truth = io.read_params(args.fit_dir), io.read_params(args.truth_dir)
    truth_blocks = truth.blocks()
    for name, block in est.blocks().items():
        if block.shape != truth_blocks[name].shape:
            raise InputError(f"block {name}: estimate shape {block.shape} "
                             f"differs from truth {truth_blocks[name].shape}")
    est_blocks = align_latent_factors(est, truth).blocks()
    # T is evaluated in the dispersion parametrization
    report = {"relative_mse": {name: relative_mse(est_blocks[name], truth_blocks[name])
                               for name in est_blocks if name != "T" and truth_blocks[name].size}}
    report["relative_mse"]["T"] = relative_mse(np.exp(est_blocks["T"]), np.exp(truth.T))
    if args.se_dir:
        report["coverage"], ses = {}, {}
        # c_11, D, omega and the entries of standard error 0 are excluded from coverage
        for name in ("A", "B", "C", "U", "V", "S", "T"):
            path = os.path.join(args.se_dir, f"se_{name}.csv")
            se = io.read_matrix(path, allow_empty=name in ("U", "V")).ravel()
            block_est, block_truth = est_blocks[name].ravel(), truth_blocks[name].ravel()
            if se.size != block_est.size:
                raise InputError(f"{path} holds {se.size} values, block {name} has "
                                 f"{block_est.size}")
            ses[name] = se.reshape(est_blocks[name].shape)
            free = (se != 0) & (np.arange(se.size) >= (name == "C"))  # c_11 is C's first entry
            if free.any():
                targets, actual = coverage_curve(block_est[free], se[free], block_truth[free])
                report["coverage"][name] = {"target": targets, "actual": actual}
        report["fixed_entries"] = _fixed_entries(ses)
    report["wall_time_seconds"] = time.time() - t0
    io.write_json(args.out, report)
    return 0


def cmd_score(args) -> int:
    import numpy as np

    from . import io
    from .metrics import WeightedSeries, lrse, wmad

    series = np.atleast_2d(io.read_matrix(args.series))
    weights = np.atleast_2d(io.read_matrix(args.weights))
    if series.shape != weights.shape:
        raise InputError(f"series {series.shape} and weights {weights.shape} differ")
    report = {"bandwidth": args.bandwidth, "columns": []}
    for c in range(series.shape[1]):
        ws = WeightedSeries(series[:, c], weights[:, c], k=args.bandwidth)
        report["columns"].append({"column": c + 1, "lrse": lrse(ws), "wmad": wmad(ws)})
    io.write_json(args.out, report)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads is not None:
        _set_threads(args.threads)
    handlers = {
        "fit": cmd_fit, "infer": cmd_infer, "simulate": cmd_simulate,
        "evaluate": cmd_evaluate, "score": cmd_score,
    }
    try:
        return handlers[args.command](args)
    except NumericError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except (NbgbmError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
