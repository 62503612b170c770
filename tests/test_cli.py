import json
import os

import numpy as np
import pytest

from nbgbm import io as nbio
from nbgbm.cli import main
from nbgbm.model import CONSTRAINT_TOL, GbmParams


def run(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    code = run(["simulate", "--scheme", "NB/Normal/Normal",
                "--dims", "40x12x2x2x1", "--seed", "7", "--out", out])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def fit_dir(sim_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("fit")
    code = run(["fit", "--counts", sim_dir / "Y.csv",
                "--row-covariates", sim_dir / "X.csv",
                "--col-covariates", sim_dir / "Z.csv",
                "--latent", 1, "--seed", "3", "--out", out])
    assert code == 0
    return out


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

    def test_geometric_scheme_supported(self, tmp_path):
        code = run(["simulate", "--scheme", "Geometric/Normal/Normal",
                    "--dims", "10x6x2x2x0", "--seed", "1", "--out", tmp_path / "g"])
        assert code == 0


class TestFit:
    def test_writes_blocks_trace_manifest(self, fit_dir):
        for name in ("A", "B", "C", "D", "U", "V", "S", "T", "omega"):
            assert (fit_dir / f"{name}.csv").exists()
        assert (fit_dir / "params.json").exists()
        trace = nbio.read_vector(fit_dir / "trace.csv")
        manifest = nbio.read_json(fit_dir / "manifest.json")
        assert manifest["convergence"]["iterations"] + 1 == trace.size
        assert manifest["config"]["max_iter"] == 50
        assert manifest["config"]["tol"] == 1e-6
        assert manifest["config"]["rho"] == 5.0
        assert set(manifest["input_digests"]) == {"counts", "row_covariates", "col_covariates"}
        assert manifest["convergence"]["constraints_passed"] is True
        violations = manifest["convergence"]["constraint_violations"]
        assert set(violations) == {"max_zta", "max_xtb", "max_xtu", "max_ztv",
                                   "max_utu", "max_vtv"}
        assert all(0.0 <= v <= CONSTRAINT_TOL for v in
                   (violations["max_utu"], violations["max_vtv"]))

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

    def test_intercept_only_when_covariates_omitted(self, sim_dir, tmp_path):
        out = tmp_path / "fit0"
        code = run(["fit", "--counts", sim_dir / "Y.csv", "--latent", 0, "--out", out])
        assert code == 0
        params = nbio.read_params(out)
        assert params.A.shape == (12, 1)
        assert params.B.shape == (40, 1)

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


class TestInfer:
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

    def test_infer_reads_back_identical_params(self, fit_dir):
        params = nbio.read_params(fit_dir)
        assert isinstance(params, GbmParams)
        with open(fit_dir / "params.json") as fh:
            blob = json.load(fh)
        np.testing.assert_array_equal(np.asarray(blob["A"]), params.A)

    def test_oracle_guard_on_small_instance(self, sim_dir, fit_dir, tmp_path):
        out = tmp_path / "se_oracle"
        code = run(["infer", "--counts", sim_dir / "Y.csv", "--fit-dir", fit_dir,
                    "--out", out, "--oracle-full-fisher"])
        assert code == 0
        assert (out / "oracle_var_C.csv").exists()

    def test_prior_flag_changes_standard_errors(self, sim_dir, fit_dir, infer_dir, tmp_path):
        out = tmp_path / "se_lambda_b"
        code = run(["infer", "--counts", sim_dir / "Y.csv", "--fit-dir", fit_dir,
                    "--out", out, "--lambda-b", "4"])
        assert code == 0
        assert nbio.read_json(out / "manifest.json")["config"]["lambda_b"] == 4.0
        se_b = nbio.read_matrix(out / "se_B.csv")
        default = nbio.read_matrix(infer_dir / "se_B.csv")
        # a larger prior precision on B shrinks its conditional variances
        assert se_b.mean() < default.mean()

    def test_manifest_records_every_prior_field(self, sim_dir, fit_dir, tmp_path):
        out = tmp_path / "se_m_s"
        code = run(["infer", "--counts", sim_dir / "Y.csv", "--fit-dir", fit_dir,
                    "--out", out, "--m-s", "0.5"])
        assert code == 0
        assert nbio.read_json(out / "manifest.json")["config"]["m_s"] == 0.5

    def test_manifest_records_stage_seconds_and_warnings(self, infer_dir):
        manifest = nbio.read_json(infer_dir / "manifest.json")
        stages = manifest["stage_seconds"]
        assert set(stages) == {"preprocess", "joint_uv", "uv_to_ab", "ab_to_c", "to_dispersions"}
        assert all(isinstance(v, float) and v >= 0.0 for v in stages.values())
        assert isinstance(manifest["warnings"], list)

    def test_bad_test_spec(self, sim_dir, fit_dir, tmp_path):
        code = run(["infer", "--counts", sim_dir / "Y.csv", "--fit-dir", fit_dir,
                    "--out", tmp_path / "o", "--test", "D:1"])
        assert code == 3


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

    def test_shape_mismatch_is_input_error(self, sim_dir, tmp_path):
        other = tmp_path / "othersim"
        run(["simulate", "--dims", "40x12x2x2x2", "--seed", "1", "--out", other])
        code = run(["evaluate", "--fit-dir", other / "truth",
                    "--truth-dir", sim_dir / "truth", "--out", tmp_path / "r.json"])
        assert code == 3


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


class TestUsage:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            run(["fit", "--bogus"])
        assert exc.value.code == 2


class TestMatrixIo:
    def test_delimiter_and_header_detection(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("a\tb\n1.5\t2\n3\t4\n")
        out = nbio.read_matrix(path)
        np.testing.assert_array_equal(out, [[1.5, 2.0], [3.0, 4.0]])

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3\n")
        from nbgbm.exceptions import InputError

        with pytest.raises(InputError, match="line 2"):
            nbio.read_matrix(path)

    def test_full_precision_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        mat = rng.normal(size=(7, 3)) * np.exp(rng.normal(size=(7, 3)) * 10)
        path = tmp_path / "m.csv"
        nbio.write_matrix(path, mat)
        np.testing.assert_array_equal(nbio.read_matrix(path), mat)
