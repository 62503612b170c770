import hashlib
import json
import os
import pathlib
import re
import shutil

import numpy as np
import pytest

import nbgbm
from nbgbm import io as nbio
from nbgbm.cli import main
from nbgbm.inference import standard_errors
from nbgbm.model import CONSTRAINT_TOL, CovariateSet, DataMatrix, GbmParams, PriorConfig

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def run(args):
    return main([str(a) for a in args])


def fit_with(sim_dir, out, *flags):
    """`nbgbm fit` at the fixture's settings plus `flags`."""
    code = run(["fit", "--counts", sim_dir / "Y.csv",
                "--row-covariates", sim_dir / "X.csv",
                "--col-covariates", sim_dir / "Z.csv",
                "--latent", 1, "--seed", "3", "--out", out, *flags])
    assert code == 0
    return out


def infer_flagless(sim_dir, fit_dir, out):
    assert run(["infer", "--counts", sim_dir / "Y.csv", "--fit-dir", fit_dir, "--out", out]) == 0
    return out


def assert_se_files_equal_library(sim_dir, fit_dir, se_dir, prior, scratch):
    """The se_*.csv files of `se_dir` hold, byte for byte, what the library
    computes for the fit in `fit_dir` under `prior`."""
    params = nbio.read_params(fit_dir)
    cov = CovariateSet(nbio.read_matrix(fit_dir / "X.csv"), nbio.read_matrix(fit_dir / "Z.csv"))
    result = standard_errors(DataMatrix(nbio.read_matrix(sim_dir / "Y.csv")), params, cov, prior)
    for name, block in result.blocks().items():
        nbio.write_matrix(scratch / f"se_{name}.csv", block)
        assert (se_dir / f"se_{name}.csv").read_bytes() == \
            (scratch / f"se_{name}.csv").read_bytes(), name


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    code = run(["simulate", "--scheme", "NB/Normal/Normal",
                "--dims", "40x12x2x2x1", "--seed", "7", "--out", out])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def fit_dir(sim_dir, tmp_path_factory):
    return fit_with(sim_dir, tmp_path_factory.mktemp("fit"))


@pytest.fixture(scope="module")
def fit_dir_lambda_b(sim_dir, tmp_path_factory):
    return fit_with(sim_dir, tmp_path_factory.mktemp("fit_lambda_b"), "--lambda-b", "4")


@pytest.fixture(scope="module")
def infer_dir_lambda_b(sim_dir, fit_dir_lambda_b, tmp_path_factory):
    return infer_flagless(sim_dir, fit_dir_lambda_b, tmp_path_factory.mktemp("se_lambda_b"))


@pytest.fixture(scope="module")
def fixed_v(tmp_path_factory):
    """(sim, fit, se) directories at 3x2x1x1x1, where J = L + M leaves V no
    free direction: its standard errors are 0; se is inferred with --test V:1."""
    sim, fit, se = (tmp_path_factory.mktemp(f"{name}_fixed") for name in ("sim", "fit", "se"))
    assert run(["simulate", "--dims", "3x2x1x1x1", "--seed", "1", "--out", sim]) == 0
    assert run(["fit", "--counts", sim / "Y.csv", "--row-covariates", sim / "X.csv",
                "--col-covariates", sim / "Z.csv", "--latent", 1, "--out", fit]) == 0
    with pytest.warns(UserWarning, match="joint variance of V is zero up to rounding"):
        assert run(["infer", "--counts", sim / "Y.csv", "--fit-dir", fit, "--out", se,
                    "--test", "V:1", "--test", "B:1"]) == 0
    return sim, fit, se


@pytest.fixture(scope="module")
def infer_dir(sim_dir, fit_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("se")
    code = run(["infer", "--counts", sim_dir / "Y.csv", "--fit-dir", fit_dir,
                "--out", out, "--test", "B:2", "--level", "0.95"])
    assert code == 0
    return out


class TestSimulate:
    def test_outputs_and_manifest(self, sim_dir):
        for name in ("Y.csv", "X.csv", "Z.csv", "manifest.json"):
            assert (sim_dir / name).exists()
        truth = nbio.read_params(sim_dir / "truth")
        assert truth.M == 1
        manifest = nbio.read_json(sim_dir / "manifest.json")
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 7
        assert manifest["config"]["covariate_clamp_events"] == 0
        assert manifest["warnings"] == []

    def test_deterministic(self, sim_dir, tmp_path):
        out2 = tmp_path / "again"
        run(["simulate", "--scheme", "NB/Normal/Normal",
             "--dims", "40x12x2x2x1", "--seed", "7", "--out", out2])
        assert (sim_dir / "Y.csv").read_bytes() == (out2 / "Y.csv").read_bytes()
        m1 = nbio.read_json(sim_dir / "manifest.json")
        m2 = nbio.read_json(out2 / "manifest.json")
        for key in ("timestamp", "wall_time_seconds"):
            m1.pop(key), m2.pop(key)
        assert m1 == m2

    def test_unknown_scheme_is_input_error(self, tmp_path):
        code = run(["simulate", "--scheme", "Zeta/Normal/Normal",
                    "--dims", "10x5x1x1x0", "--out", tmp_path / "x"])
        assert code == 3

    def test_bad_dims_is_input_error(self, tmp_path):
        code = run(["simulate", "--dims", "10x5", "--out", tmp_path / "x"])
        assert code == 3

    def test_m_beyond_the_covariate_nullspace_is_domain_error(self, tmp_path, capsys):
        # 5 rows and 4 row covariates leave room for one latent factor, not two
        code = run(["simulate", "--dims", "5x20x4x1x2", "--out", tmp_path / "x"])
        assert code == 3
        assert "I - K" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_geometric_scheme_supported(self, tmp_path):
        code = run(["simulate", "--scheme", "Geometric/Normal/Normal",
                    "--dims", "10x6x2x2x0", "--seed", "1", "--out", tmp_path / "g"])
        assert code == 0


class TestFit:
    def test_writes_blocks_trace_manifest(self, fit_dir):
        for name in ("A", "B", "C", "D", "U", "V", "S", "T", "omega"):
            assert (fit_dir / f"{name}.csv").exists()
        assert (fit_dir / "params.json").exists()
        trace = nbio.read_matrix(fit_dir / "trace.csv").ravel()
        manifest = nbio.read_json(fit_dir / "manifest.json")
        assert manifest["convergence"]["iterations"] + 1 == trace.size
        assert manifest["config"]["max_iter"] == 50
        assert manifest["config"]["tol"] == 1e-6
        assert set(manifest["input_digests"]) == {"counts", "row_covariates", "col_covariates"}
        assert manifest["convergence"]["constraints_passed"] is True
        violations = manifest["convergence"]["constraint_violations"]
        assert set(violations) == {"max_zta", "max_xtb", "max_xtu", "max_ztv",
                                   "max_utu", "max_vtv"}
        assert all(0.0 <= v <= CONSTRAINT_TOL for v in
                   (violations["max_utu"], violations["max_vtv"]))

    def test_vector_blocks_are_single_rows(self, fit_dir):
        for name, length in (("D", 1), ("S", 40), ("T", 12)):
            assert nbio.read_matrix(fit_dir / f"{name}.csv").shape == (1, length), name

    def test_manifest_records_warnings(self, tmp_path, recwarn):
        # all-zero counts leave the final factors off the constraint set
        counts = tmp_path / "zeros.csv"
        nbio.write_matrix(counts, np.zeros((20, 10)))
        out = tmp_path / "fit_zero"
        assert run(["fit", "--counts", counts, "--latent", 1, "--out", out]) == 0
        recorded = nbio.read_json(out / "manifest.json")["warnings"]
        assert "final state exceeds the constraint tolerance" in recorded
        # still emitted, not only recorded
        assert "final state exceeds the constraint tolerance" in [str(w.message) for w in recwarn]

    def test_clean_fit_records_no_warnings(self, fit_dir):
        assert nbio.read_json(fit_dir / "manifest.json")["warnings"] == []

    def test_round_trip_exact(self, fit_dir):
        params = nbio.read_params(fit_dir)
        reread_dir = str(fit_dir) + "_rt"
        os.makedirs(reread_dir, exist_ok=True)
        nbio.write_params(reread_dir, params)
        again = nbio.read_params(reread_dir)
        for name, block in params.blocks().items():
            np.testing.assert_array_equal(block, again.blocks()[name])

    def test_params_json_is_compact_and_holds_the_blocks(self, fit_dir):
        text = (fit_dir / "params.json").read_text()
        assert text.endswith("}\n") and "\n" not in text[:-1]
        combined = json.loads(text)
        params = nbio.read_params(fit_dir)
        assert set(combined) == set(params.blocks())
        for name, block in params.blocks().items():
            np.testing.assert_array_equal(np.atleast_2d(block), np.array(combined[name]),
                                          err_msg=name)

    def test_intercept_only_when_covariates_omitted(self, sim_dir, tmp_path):
        out = tmp_path / "fit0"
        code = run(["fit", "--counts", sim_dir / "Y.csv", "--latent", 0, "--out", out])
        assert code == 0
        params = nbio.read_params(out)
        assert params.A.shape == (12, 1)
        assert params.B.shape == (40, 1)

    def test_no_standardize_keeps_centered_covariates(self, sim_dir, fit_dir, tmp_path):
        X = nbio.read_matrix(sim_dir / "X.csv")
        X[:, 1:] *= 3.0   # still centered, no longer unit mean square
        nbio.write_matrix(tmp_path / "X3.csv", X)
        out = tmp_path / "fit_raw"
        assert run(["fit", "--counts", sim_dir / "Y.csv", "--row-covariates", tmp_path / "X3.csv",
                    "--latent", 0, "--no-standardize", "--out", out]) == 0
        assert nbio.read_json(out / "manifest.json")["config"]["standardize"] is False
        np.testing.assert_array_equal(nbio.read_matrix(out / "X.csv"), X)
        assert nbio.read_json(fit_dir / "manifest.json")["config"]["standardize"] is True

    def test_missing_file_is_input_error(self, tmp_path):
        code = run(["fit", "--counts", tmp_path / "nope.csv", "--out", tmp_path / "o"])
        assert code == 3

    def test_dimension_mismatch_names_files(self, sim_dir, tmp_path, capsys):
        bad = tmp_path / "badX.csv"
        nbio.write_matrix(bad, np.ones((5, 1)))
        code = run(["fit", "--counts", sim_dir / "Y.csv",
                    "--row-covariates", bad, "--out", tmp_path / "o"])
        assert code == 3
        assert "badX.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--tol", "nan"), ("--tol", "inf"),
                                             ("--lambda-a", "nan"), ("--lambda-s", "inf"),
                                             ("--m-s", "inf"), ("--m-t", "nan")])
    def test_non_finite_setting_is_domain_error_before_any_file(self, sim_dir, tmp_path, capsys,
                                                                  flag, value):
        code = run(["fit", "--counts", sim_dir / "Y.csv", "--latent", 1,
                    flag, value, "--out", tmp_path / "o"])
        assert code == 3
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_negative_latent_dimension_is_input_error(self, sim_dir, tmp_path, capsys):
        code = run(["fit", "--counts", sim_dir / "Y.csv", "--latent", -1, "--out", tmp_path / "o"])
        assert code == 3
        assert "M = -1" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("flags", [[], ["--no-standardize"]], ids=["standardize", "raw"])
    def test_non_finite_covariate_is_domain_error(self, sim_dir, tmp_path, capsys, value, flags):
        # checked before the intercept, centering and rank checks, whose
        # SVD fails on a NaN
        X = nbio.read_matrix(sim_dir / "X.csv")
        X[3, 1] = value
        nbio.write_matrix(tmp_path / "X.csv", X)
        code = run(["fit", "--counts", sim_dir / "Y.csv", "--row-covariates", tmp_path / "X.csv",
                    "--latent", 1, *flags, "--out", tmp_path / "o"])
        assert code == 3
        assert "X holds NaN or infinite entries" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestInfer:
    def test_non_finite_covariate_of_the_fit_is_domain_error(self, sim_dir, fit_dir, tmp_path,
                                                             capsys):
        bad = tmp_path / "fit"
        shutil.copytree(fit_dir, bad)
        X = nbio.read_matrix(bad / "X.csv")
        X[0, 1] = np.nan
        nbio.write_matrix(bad / "X.csv", X)
        code = run(["infer", "--counts", sim_dir / "Y.csv", "--fit-dir", bad,
                    "--out", tmp_path / "se"])
        assert code == 3
        assert "X holds NaN or infinite entries" in capsys.readouterr().err
        assert not (tmp_path / "se").exists()

    def test_se_files_cover_exactly_the_reported_blocks(self, infer_dir):
        present = {name for name in ("A", "B", "C", "D", "U", "V", "S", "T", "omega")
                   if (infer_dir / f"se_{name}.csv").exists()}
        assert present == {"A", "B", "C", "U", "V", "S", "T"}

    def test_wald_table(self, infer_dir):
        table = nbio.read_matrix(infer_dir / "wald_B_2.csv")
        assert table.shape[1] == 5
        p = table[:, 2]
        assert np.all((p >= 0) & (p <= 1))
        lo, hi = table[:, 3], table[:, 4]
        assert np.all(lo <= table[:, 0]) and np.all(table[:, 0] <= hi)

    @pytest.mark.parametrize("name, edit", [
        ("U", lambda path: path.write_text("1\n2\n3\n")),                  # 3 values, I x M = 40
        ("A", lambda path: path.write_text("".join(path.read_text().splitlines(True)[:-1]))),
        ("C", lambda path: path.write_text("1,2,3\n")),                     # K x L = 2 x 2
        ("V", lambda path: path.write_text("1\n2\n3\n")),                  # J x M = 12
        ("S", lambda path: path.write_text("1,2,3\n")),                     # I = 40 values
        ("T", lambda path: path.write_text("1,2,3\n")),                     # J = 12 values
        ("omega", lambda path: path.write_text("1,2\n")),                   # one value
    ], ids=["wrong-size-U", "truncated-A", "wrong-shape-C", "wrong-size-V", "wrong-size-S",
            "wrong-size-T", "two-omegas"])
    def test_block_file_of_another_size_is_input_error(self, sim_dir, fit_dir, tmp_path, capsys,
                                                       name, edit):
        bad = tmp_path / "fit"
        shutil.copytree(fit_dir, bad)
        edit(bad / f"{name}.csv")
        code = run(["infer", "--counts", sim_dir / "Y.csv", "--fit-dir", bad,
                    "--out", tmp_path / "se"])
        assert code == 3
        assert f"{name}.csv" in capsys.readouterr().err

    def test_factor_fixed_by_its_constraints_gets_zero_standard_errors(self, fixed_v):
        # J = L + M leaves V no free direction: its joint variances are 0 up
        # to rounding, which must not become NaN standard errors
        se = fixed_v[2]
        for name in "ABCUVST":
            assert np.all(np.isfinite(nbio.read_matrix(se / f"se_{name}.csv"))), name
        np.testing.assert_array_equal(nbio.read_matrix(se / "se_V.csv"), 0.0)
        messages = nbio.read_json(se / "manifest.json")["warnings"]
        assert not any("invalid value encountered in sqrt" in m for m in messages)
        assert any("joint variance of V" in m for m in messages)

    def test_fixed_entries_get_degenerate_wald_rows_and_are_named(self, fixed_v, infer_dir):
        _, fit, se = fixed_v
        table = nbio.read_matrix(se / "wald_V_1.csv")
        np.testing.assert_array_equal(table[:, 0], nbio.read_params(fit).V[:, 0])
        np.testing.assert_array_equal(table[:, 1], 0.0)
        assert np.all(np.isnan(table[:, 2]))
        np.testing.assert_array_equal(table[:, 3], table[:, 0])
        np.testing.assert_array_equal(table[:, 4], table[:, 0])
        free = nbio.read_matrix(se / "wald_B_1.csv")
        assert np.all(free[:, 1] > 0) and np.all((free[:, 2] >= 0) & (free[:, 2] <= 1))
        assert np.all(free[:, 3] < free[:, 0]) and np.all(free[:, 0] < free[:, 4])
        assert nbio.read_json(se / "manifest.json")["fixed_entries"] == {"V": [[1, 1], [2, 1]]}
        assert nbio.read_json(infer_dir / "manifest.json")["fixed_entries"] == {}

    def test_infer_reads_back_identical_params(self, fit_dir):
        params = nbio.read_params(fit_dir)
        assert isinstance(params, GbmParams)
        with open(fit_dir / "params.json") as fh:
            blob = json.load(fh)
        np.testing.assert_array_equal(np.asarray(blob["A"]), params.A)

    def test_prior_flag_changes_standard_errors(self, infer_dir_lambda_b, infer_dir):
        out = infer_dir_lambda_b
        assert nbio.read_json(out / "manifest.json")["config"]["lambda_b"] == 4.0
        se_b = nbio.read_matrix(out / "se_B.csv")
        default = nbio.read_matrix(infer_dir / "se_B.csv")
        # a larger prior precision on B shrinks its conditional variances
        assert se_b.mean() < default.mean()

    def test_manifest_records_every_prior_field(self, sim_dir, tmp_path):
        fit_dir = fit_with(sim_dir, tmp_path / "fit_m_s", "--m-s", "0.5")
        out = infer_flagless(sim_dir, fit_dir, tmp_path / "se_m_s")
        assert nbio.read_json(out / "manifest.json")["config"]["m_s"] == 0.5

    def test_standard_errors_use_the_fit_prior(self, sim_dir, fit_dir_lambda_b,
                                               infer_dir_lambda_b, tmp_path):
        assert_se_files_equal_library(sim_dir, fit_dir_lambda_b, infer_dir_lambda_b,
                                      PriorConfig(lambda_b=4.0), tmp_path)

    def test_directory_without_manifest_gets_default_prior(self, sim_dir, tmp_path):
        truth = sim_dir / "truth"
        out = infer_flagless(sim_dir, truth, tmp_path / "se_truth")
        assert_se_files_equal_library(sim_dir, truth, out, PriorConfig(), tmp_path)

    def test_prior_flags_are_usage_errors(self, sim_dir, fit_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["infer", "--counts", sim_dir / "Y.csv", "--fit-dir", fit_dir,
                 "--out", tmp_path / "o", "--lambda-b", "4"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags", [["--level", "1.5", "--test", "B:2"], ["--level", "1.5"],
                                       ["--level", "0"], ["--level", "nan"],
                                       ["--oracle-full-fisher"]],
                             ids=["level-1.5-test", "level-1.5", "level-0", "level-nan",
                                  "oracle-full-fisher"])
    def test_bad_flags_are_usage_errors_before_any_file(self, sim_dir, fit_dir, tmp_path, flags):
        with pytest.raises(SystemExit) as exc:
            run(["infer", "--counts", sim_dir / "Y.csv", "--fit-dir", fit_dir,
                 "--out", tmp_path / "o", *flags])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_manifest_without_a_prior_field_is_input_error(self, sim_dir, fit_dir, tmp_path,
                                                           capsys):
        copy = tmp_path / "fit_copy"
        shutil.copytree(fit_dir, copy)
        manifest = nbio.read_json(copy / "manifest.json")
        del manifest["config"]["lambda_b"]
        nbio.write_json(copy / "manifest.json", manifest)
        code = run(["infer", "--counts", sim_dir / "Y.csv", "--fit-dir", copy,
                    "--out", tmp_path / "o"])
        assert code == 3
        assert "lambda_b" in capsys.readouterr().err

    def test_manifest_with_a_non_finite_prior_is_input_error(self, sim_dir, fit_dir, tmp_path,
                                                             capsys):
        copy = tmp_path / "fit_copy"
        shutil.copytree(fit_dir, copy)
        manifest = nbio.read_json(copy / "manifest.json")
        manifest["config"]["m_s"] = float("nan")
        nbio.write_json(copy / "manifest.json", manifest)
        code = run(["infer", "--counts", sim_dir / "Y.csv", "--fit-dir", copy,
                    "--out", tmp_path / "o"])
        assert code == 3
        assert "m_s" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_manifests_record_the_package_version(self, sim_dir, fit_dir, infer_dir):
        declared = re.search(r'^version = "(.+)"$', PYPROJECT.read_text(), re.MULTILINE).group(1)
        assert nbgbm.__version__ == declared
        for directory in (sim_dir, fit_dir, infer_dir):
            manifest = nbio.read_json(directory / "manifest.json")
            assert manifest["software_version"] == declared, directory

    def test_manifest_records_stage_seconds_and_warnings(self, infer_dir):
        manifest = nbio.read_json(infer_dir / "manifest.json")
        stages = manifest["stage_seconds"]
        assert set(stages) == {"preprocess", "joint_uv", "uv_to_ab", "ab_to_c", "to_dispersions"}
        assert all(isinstance(v, float) and v >= 0.0 for v in stages.values())
        assert isinstance(manifest["warnings"], list)

    def test_bad_test_spec(self, sim_dir, fit_dir, tmp_path):
        # refused before the standard errors are computed, so nothing is written
        for spec in ("D:1", "B:9", "B:²"):
            out = tmp_path / spec.replace(":", "_")
            code = run(["infer", "--counts", sim_dir / "Y.csv", "--fit-dir", fit_dir,
                        "--out", out, "--test", spec])
            assert code == 3, spec
            assert not list(out.glob("se_*.csv")), spec

    def test_counts_of_another_dataset_are_input_error(self, sim_dir, fit_dir, tmp_path,
                                                       capsys):
        other = tmp_path / "sim8"
        assert run(["simulate", "--dims", "40x12x2x2x1", "--seed", "8", "--out", other]) == 0
        out = tmp_path / "o"
        code = run(["infer", "--counts", other / "Y.csv", "--fit-dir", fit_dir, "--out", out])
        assert code == 3
        err = capsys.readouterr().err
        assert str(other / "Y.csv") in err and str(fit_dir / "manifest.json") in err
        assert not out.exists()

    def test_manifest_without_a_counts_digest_is_input_error(self, sim_dir, fit_dir, tmp_path,
                                                             capsys):
        copy = tmp_path / "fit_copy"
        shutil.copytree(fit_dir, copy)
        manifest = nbio.read_json(copy / "manifest.json")
        del manifest["input_digests"]["counts"]
        nbio.write_json(copy / "manifest.json", manifest)
        code = run(["infer", "--counts", sim_dir / "Y.csv", "--fit-dir", copy,
                    "--out", tmp_path / "o"])
        assert code == 3
        assert "counts" in capsys.readouterr().err

    def test_manifest_digests_every_file_read(self, sim_dir, fit_dir, tmp_path):
        copy = tmp_path / "fit_copy"
        shutil.copytree(fit_dir, copy)
        first = infer_flagless(sim_dir, copy, tmp_path / "se_first")
        digests = nbio.read_json(first / "manifest.json")["input_digests"]
        read = [f"{name}.csv" for name in nbio.PARAM_FILES] + ["X.csv", "Z.csv"]
        assert set(digests) == {"counts", *read}
        for name in read:
            assert digests[name] == nbio.file_digest(copy / name), name
        A = nbio.read_matrix(copy / "A.csv")
        A[0, 0] += 0.01
        nbio.write_matrix(copy / "A.csv", A)
        second = infer_flagless(sim_dir, copy, tmp_path / "se_second")
        edited = nbio.read_json(second / "manifest.json")["input_digests"]
        assert edited["A.csv"] == nbio.file_digest(copy / "A.csv") != digests["A.csv"]
        assert {k: v for k, v in edited.items() if k != "A.csv"} == \
            {k: v for k, v in digests.items() if k != "A.csv"}

    def test_seeded_round_trips_write_equal_manifests(self, tmp_path):
        # the fit manifest holds its own wall time and timestamp, so infer
        # must not fold it into what it records
        manifests = []
        for run_dir in (tmp_path / "first", tmp_path / "second"):
            sim = run_dir / "sim"
            assert run(["simulate", "--dims", "40x12x2x2x1", "--seed", "7", "--out", sim]) == 0
            out = infer_flagless(sim, fit_with(sim, run_dir / "fit"), run_dir / "se")
            manifest = nbio.read_json(out / "manifest.json")
            for key in ("timestamp", "wall_time_seconds", "stage_seconds"):
                del manifest[key]
            manifests.append(manifest)
        assert manifests[0] == manifests[1]

    def test_counts_are_opened_once_and_digested_as_parsed(self, sim_dir, fit_dir, tmp_path,
                                                          monkeypatch):
        import builtins

        counts = str(sim_dir / "Y.csv")
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        out = infer_flagless(sim_dir, fit_dir, tmp_path / "se")
        monkeypatch.undo()
        assert opened.count(counts) == 1
        digest = hashlib.sha256(pathlib.Path(counts).read_bytes()).hexdigest()
        assert nbio.read_json(out / "manifest.json")["input_digests"]["counts"] == digest

    def test_manifest_records_a_converged_fit(self, fit_dir, infer_dir):
        assert nbio.read_json(fit_dir / "manifest.json")["convergence"]["converged"] is True
        manifest = nbio.read_json(infer_dir / "manifest.json")
        assert manifest["fit_converged"] is True
        assert not any("without converging" in message for message in manifest["warnings"])

    def test_fit_that_did_not_converge_is_flagged(self, sim_dir, tmp_path):
        fit_dir = fit_with(sim_dir, tmp_path / "fit_one_step", "--max-iter", "1")
        assert nbio.read_json(fit_dir / "manifest.json")["convergence"]["converged"] is False
        with pytest.warns(UserWarning, match="stopped at iteration 1 without converging"):
            out = infer_flagless(sim_dir, fit_dir, tmp_path / "se_one_step")
        manifest = nbio.read_json(out / "manifest.json")
        assert manifest["fit_converged"] is False
        assert any("stopped at iteration 1 without" in message for message in manifest["warnings"])

    def test_directory_without_manifest_has_unknown_convergence(self, sim_dir, tmp_path):
        out = infer_flagless(sim_dir, sim_dir / "truth", tmp_path / "se_truth")
        manifest = nbio.read_json(out / "manifest.json")
        assert manifest["fit_converged"] is None
        assert "manifest.json" not in manifest["input_digests"]


class TestEvaluate:
    def test_self_evaluation_is_exact(self, sim_dir, tmp_path):
        report_path = tmp_path / "report.json"
        code = run(["evaluate", "--fit-dir", sim_dir / "truth",
                    "--truth-dir", sim_dir / "truth", "--out", report_path])
        assert code == 0
        report = nbio.read_json(report_path)
        for name, value in report["relative_mse"].items():
            assert value == 0.0, name

    def test_fit_evaluation_with_coverage(self, sim_dir, fit_dir, infer_dir, tmp_path):
        report_path = tmp_path / "report.json"
        code = run(["evaluate", "--fit-dir", fit_dir, "--truth-dir", sim_dir / "truth",
                    "--se-dir", infer_dir, "--out", report_path])
        assert code == 0
        report = nbio.read_json(report_path)
        assert "T" in report["relative_mse"]
        assert report["relative_mse"]["A"] < 1.0
        curve = report["coverage"]["A"]
        assert len(curve["target"]) == 101
        assert curve["actual"][0] == 0.0

    def test_coverage_pools_only_entries_of_positive_standard_error(self, fixed_v, tmp_path):
        from nbgbm.simulate import align_latent_factors, coverage_curve

        sim, fit, se = fixed_v
        report_path = tmp_path / "r.json"
        assert run(["evaluate", "--fit-dir", fit, "--truth-dir", sim / "truth",
                    "--se-dir", se, "--out", report_path]) == 0
        report = nbio.read_json(report_path)
        assert report["fixed_entries"] == {"V": [[1, 1], [2, 1]]}
        # V has no free entry and C (1 x 1) none but c_11: neither gets a curve
        assert sorted(report["coverage"]) == ["A", "B", "S", "T", "U"]
        est = align_latent_factors(nbio.read_params(fit), nbio.read_params(sim / "truth"))
        want = coverage_curve(est.U, nbio.read_matrix(se / "se_U.csv"),
                              nbio.read_params(sim / "truth").U)[1]
        assert report["coverage"]["U"]["actual"] == want.tolist()

    def test_t_compared_in_dispersion_space(self, sim_dir, fit_dir, tmp_path):
        from nbgbm.simulate import align_latent_factors, relative_mse

        report_path = tmp_path / "r.json"
        run(["evaluate", "--fit-dir", fit_dir, "--truth-dir", sim_dir / "truth",
             "--out", report_path])
        report = nbio.read_json(report_path)
        est = nbio.read_params(fit_dir)
        truth = nbio.read_params(sim_dir / "truth")
        est = align_latent_factors(est, truth)
        expected = relative_mse(np.exp(est.T), np.exp(truth.T))
        assert report["relative_mse"]["T"] == pytest.approx(expected, rel=1e-12)

    def test_round_trip_without_latent_factors(self, tmp_path):
        sim, fit, se, report_path = (tmp_path / name for name in ("sim", "fit", "se", "r.json"))
        assert run(["simulate", "--dims", "40x12x2x2x0", "--seed", "7", "--out", sim]) == 0
        assert run(["fit", "--counts", sim / "Y.csv", "--row-covariates", sim / "X.csv",
                    "--col-covariates", sim / "Z.csv", "--latent", 0, "--out", fit]) == 0
        assert run(["infer", "--counts", sim / "Y.csv", "--fit-dir", fit, "--out", se,
                    "--test", "B:2"]) == 0
        assert run(["evaluate", "--fit-dir", fit, "--truth-dir", sim / "truth",
                    "--se-dir", se, "--out", report_path]) == 0
        for name in "UV":
            assert nbio.read_matrix(se / f"se_{name}.csv", allow_empty=True).size == 0
        # FORMATS.md: empty blocks are empty files
        for path in (fit / "U.csv", fit / "V.csv", fit / "D.csv", se / "se_U.csv",
                     se / "se_V.csv"):
            assert path.stat().st_size == 0, path
        params = nbio.read_params(fit)
        assert (params.U.shape, params.V.shape, params.D.shape) == ((40, 0), (12, 0), (0,))
        report = nbio.read_json(report_path)
        for section in ("relative_mse", "coverage"):
            assert not {"D", "U", "V"} & set(report[section]), section

    def test_shape_mismatch_is_input_error(self, sim_dir, tmp_path, capsys):
        other = tmp_path / "othersim"
        run(["simulate", "--dims", "40x12x2x2x2", "--seed", "1", "--out", other])
        code = run(["evaluate", "--fit-dir", other / "truth",
                    "--truth-dir", sim_dir / "truth", "--out", tmp_path / "r.json"])
        assert code == 3
        assert "block D:" in capsys.readouterr().err          # M = 2 against M = 1

    @pytest.mark.parametrize("dims, block", [("40x13x2x2x1", "A"), ("40x12x2x3x1", "B")])
    def test_shape_mismatch_names_the_first_block_that_differs(self, sim_dir, tmp_path, capsys,
                                                               dims, block):
        other = tmp_path / "othersim"
        assert run(["simulate", "--dims", dims, "--seed", "1", "--out", other]) == 0
        capsys.readouterr()
        code = run(["evaluate", "--fit-dir", other / "truth",
                    "--truth-dir", sim_dir / "truth", "--out", tmp_path / "r.json"])
        assert code == 3
        assert f"block {block}:" in capsys.readouterr().err

    def test_se_file_of_another_size_is_input_error(self, sim_dir, fit_dir, infer_dir, tmp_path,
                                                     capsys):
        se_dir = tmp_path / "se"
        shutil.copytree(infer_dir, se_dir)
        (se_dir / "se_A.csv").write_text("1,2\n")
        code = run(["evaluate", "--fit-dir", fit_dir, "--truth-dir", sim_dir / "truth",
                    "--se-dir", se_dir, "--out", tmp_path / "r.json"])
        assert code == 3
        assert "se_A.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_standard_error_is_domain_error(self, sim_dir, fit_dir, infer_dir,
                                                        tmp_path, capsys, bad):
        se_dir, report_path = tmp_path / "se", tmp_path / "r.json"
        shutil.copytree(infer_dir, se_dir)
        se_A = nbio.read_matrix(se_dir / "se_A.csv")
        se_A[0, 0] = bad
        nbio.write_matrix(se_dir / "se_A.csv", se_A)
        code = run(["evaluate", "--fit-dir", fit_dir, "--truth-dir", sim_dir / "truth",
                    "--se-dir", se_dir, "--out", report_path])
        assert code == 3
        assert "finite and positive" in capsys.readouterr().err
        assert not report_path.exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_bad_standard_error_of_c11_is_domain_error(self, sim_dir, fit_dir, infer_dir,
                                                       tmp_path, capsys, bad):
        # c_11 is left out of coverage, so its standard error is checked before that
        se_dir, report_path = tmp_path / "se", tmp_path / "r.json"
        shutil.copytree(infer_dir, se_dir)
        se_C = nbio.read_matrix(se_dir / "se_C.csv")
        se_C[0, 0] = bad
        nbio.write_matrix(se_dir / "se_C.csv", se_C)
        code = run(["evaluate", "--fit-dir", fit_dir, "--truth-dir", sim_dir / "truth",
                    "--se-dir", se_dir, "--out", report_path])
        assert code == 3
        assert "se_C.csv" in capsys.readouterr().err
        assert not report_path.exists()


class TestScore:
    def test_reference_agreement_and_defaults(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(300, 2))
        w = rng.random((300, 2)) + 0.1
        xs, ws = tmp_path / "x.csv", tmp_path / "w.csv"
        nbio.write_matrix(xs, x)
        nbio.write_matrix(ws, w)
        report_path = tmp_path / "score.json"
        code = run(["score", "--series", xs, "--weights", ws, "--out", report_path])
        assert code == 0
        report = nbio.read_json(report_path)
        assert report["bandwidth"] == 100
        from nbgbm.metrics import WeightedSeries, lrse, wmad

        for col in report["columns"]:
            c = col["column"] - 1
            series = WeightedSeries(x[:, c], w[:, c], k=100)
            assert col["lrse"] == pytest.approx(lrse(series), rel=1e-12)
            assert col["wmad"] == pytest.approx(wmad(series), rel=1e-12)

    def test_constant_series(self, tmp_path):
        nbio.write_matrix(tmp_path / "x.csv", np.full((50, 1), 3.0))
        nbio.write_matrix(tmp_path / "w.csv", np.ones((50, 1)))
        report_path = tmp_path / "s.json"
        code = run(["score", "--series", tmp_path / "x.csv",
                    "--weights", tmp_path / "w.csv", "--bandwidth", "4",
                    "--out", report_path])
        assert code == 0
        report = nbio.read_json(report_path)
        assert report["columns"][0]["lrse"] == 0.0
        assert report["columns"][0]["wmad"] == 0.0

    def test_nonpositive_weights_rejected(self, tmp_path):
        nbio.write_matrix(tmp_path / "x.csv", np.ones((10, 1)))
        nbio.write_matrix(tmp_path / "w.csv", np.zeros((10, 1)))
        code = run(["score", "--series", tmp_path / "x.csv",
                    "--weights", tmp_path / "w.csv", "--out", tmp_path / "s.json"])
        assert code == 3

    @pytest.mark.parametrize("bad", ["weights", "series"])
    def test_non_finite_entry_rejected_before_the_report(self, tmp_path, capsys, bad):
        values = {"series": np.ones((10, 1)), "weights": np.ones((10, 1))}
        values[bad][3, 0] = np.nan
        for name, matrix in values.items():
            nbio.write_matrix(tmp_path / f"{name}.csv", matrix)
        code = run(["score", "--series", tmp_path / "series.csv",
                    "--weights", tmp_path / "weights.csv", "--out", tmp_path / "s.json"])
        assert code == 3
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "s.json").exists()


class TestUsage:
    @pytest.fixture
    def thread_vars(self, monkeypatch):
        """Restore, after the test, the thread variables that --threads sets."""
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS"):
            monkeypatch.setenv(var, os.environ.get(var, "1"))

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            run(["fit", "--bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags, env", [(["--threads", "0"], None), (["--threads", "-1"], None),
                                            ([], "abc"), ([], "0")],
                             ids=["threads-0", "threads-minus-1", "env-abc", "env-0"])
    def test_bad_thread_count_is_usage_error_before_any_file(self, tmp_path, monkeypatch,
                                                              thread_vars, flags, env):
        if env is None:
            monkeypatch.delenv("NBGBM_THREADS", raising=False)
        else:
            monkeypatch.setenv("NBGBM_THREADS", env)
        with pytest.raises(SystemExit) as exc:
            run([*flags, "simulate", "--dims", "20x10x2x2x1", "--out", tmp_path / "o"])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [["simulate", "--dims", "20x10x2x2x1", "--seed", "-1"],
                                      ["simulate", "--dims", "20x10x2x2x1", "--replicate", "-1"],
                                      ["fit", "--counts", "Y.csv", "--seed", "-3"]],
                             ids=["simulate-seed", "simulate-replicate", "fit-seed"])
    def test_negative_seed_is_usage_error_before_any_file(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--out", tmp_path / "o"])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_thread_flag_overrides_a_bad_environment_value(self, tmp_path, monkeypatch,
                                                            thread_vars):
        monkeypatch.setenv("NBGBM_THREADS", "abc")
        assert run(["--threads", "1", "simulate", "--dims", "20x10x2x2x1",
                    "--out", tmp_path / "o"]) == 0


class TestMatrixIo:
    def test_delimiter_and_header_detection(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("a\tb\n1.5\t2\n3\t4\n")
        out = nbio.read_matrix(path)
        np.testing.assert_array_equal(out, [[1.5, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("text, line", [("1,2\n3\n", 2), ("1,2\n\n3\n", 3)],
                             ids=["adjacent", "after-blank-line"])
    def test_ragged_rows_rejected(self, tmp_path, text, line):
        path = tmp_path / "m.csv"
        path.write_text(text)
        from nbgbm.exceptions import InputError

        with pytest.raises(InputError, match=f"line {line} has"):
            nbio.read_matrix(path)

    def test_bad_token_names_its_file_line(self, tmp_path):
        # Python's float() reads 1_000 and the full-width digit; loadtxt does not
        path = tmp_path / "m.csv"
        from nbgbm.exceptions import InputError

        for token in ("x", "1_000", "\uff11"):
            path.write_text(f"a,b\n\n1,2\n\n3,{token}\n", encoding="utf-8")
            with pytest.raises(InputError, match="line 5, column 2"):
                nbio.read_matrix(path)

    def test_full_precision_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        mat = rng.normal(size=(7, 3)) * np.exp(rng.normal(size=(7, 3)) * 10)
        path = tmp_path / "m.csv"
        nbio.write_matrix(path, mat)
        np.testing.assert_array_equal(nbio.read_matrix(path), mat)
