import json

import numpy as np
import pytest

import ufm.cli as cli
from ufm.cli import run_cli
from ufm.inference import plugin_covariances
from ufm.panel import PanelMatrix, load_panel, save_panel
from ufm.simlab import gen_dgp


@pytest.fixture()
def panel_csv(tmp_path):
    dgp = gen_dgp(16, 16, 900)
    path = tmp_path / "panel.csv"
    save_panel(dgp.panel, path)
    return path, dgp


class TestRank:
    def test_rank_subcommand(self, panel_csv, tmp_path, capsys):
        path, _ = panel_csv
        out = tmp_path / "out"
        code = run_cli(["rank", "--input", str(path), "--M", "5",
                        "--out-dir", str(out)])
        assert code == 0
        assert "r_hat = 1" in capsys.readouterr().out
        assert (out / "rank_eigenvalues.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["r_hat"] == 1
        assert set(manifest) >= {"version", "config", "seed", "timings", "warnings"}


class TestEstimate:
    def test_ufa_outputs_roundtrip(self, panel_csv, tmp_path):
        path, _ = panel_csv
        out = tmp_path / "out"
        code = run_cli(["estimate", "--method", "ufa", "--rank", "1",
                        "--input", str(path), "--M", "5", "--out-dir", str(out)])
        assert code == 0
        factors = load_panel(out / "factors.csv")
        assert factors.values.shape == (16, 1)
        # 17-significant-digit printing is lossless, so the reloaded factors
        # satisfy the normalization identity to machine precision
        gram = factors.values.T @ factors.values / 16
        assert abs(gram[0, 0] - 1.0) <= 1e-12
        loadings = sorted(out.glob("loadings_tau_*.csv"))
        assert len(loadings) == 5
        lam = load_panel(loadings[0])
        assert lam.values.shape == (16, 1)

    def test_idw_outputs(self, panel_csv, tmp_path):
        path, _ = panel_csv
        out = tmp_path / "out"
        code = run_cli(["estimate", "--method", "idw-ufa", "--rank", "1",
                        "--input", str(path), "--M", "5", "--out-dir", str(out)])
        assert code == 0
        assert (out / "weights.csv").exists()
        assert (out / "se_factors.csv").exists()
        assert len(list(out.glob("se_loadings_tau_*.csv"))) == 5
        weights = (out / "weights.csv").read_text().splitlines()
        assert weights[0] == "tau,row,col,weight"
        assert len(weights) == 1 + 5 * 16 * 16

    def test_outputs_keep_panel_labels(self, panel_csv, tmp_path):
        _, dgp = panel_csv
        values = dgp.panel.values
        labelled = PanelMatrix(values, tuple(f"firm{i}" for i in range(16)),
                               tuple(f"d{t}" for t in range(16)))
        path = tmp_path / "labelled.csv"
        save_panel(labelled, path)
        out = tmp_path / "out"
        code = run_cli(["estimate", "--method", "idw-ufa", "--rank", "1",
                        "--input", str(path), "--M", "5", "--out-dir", str(out)])
        assert code == 0
        for name, ids in (("factors.csv", labelled.col_ids),
                          ("se_factors.csv", labelled.col_ids),
                          ("loadings_tau_0.5.csv", labelled.row_ids),
                          ("se_loadings_tau_0.5.csv", labelled.row_ids)):
            assert load_panel(out / name).row_ids == ids, name

    def test_auto_rank(self, panel_csv, tmp_path):
        path, _ = panel_csv
        out = tmp_path / "out"
        code = run_cli(["estimate", "--method", "ufa", "--input", str(path),
                        "--M", "5", "--out-dir", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["rank_used"] == manifest["r_hat"] == 1


class TestOtherCommands:
    def test_select_quantile_target(self, panel_csv, tmp_path):
        path, _ = panel_csv
        out = tmp_path / "out"
        code = run_cli(["select", "--input", str(path), "--M", "5",
                        "--tau", "0.8333333333333334", "--alpha", "0.5",
                        "--out-dir", str(out)])
        assert code == 0
        assert (out / "strength_report.csv").exists()

    def test_select_threshold_does_not_follow_the_penalty(self, tmp_path):
        # --C is the PEL penalty; the selectors' constant is fixed
        path = tmp_path / "panel.csv"
        save_panel(gen_dgp(30, 30, [4, 7, 0]).panel, path)
        thresholds = []
        for c in ("0.2", "0.5"):
            out = tmp_path / f"out-{c}"
            assert run_cli(["select", "--input", str(path), "--tau", "0.5", "--M", "5",
                            "--rank", "1", "--C", c, "--out-dir", str(out)]) == 0
            rows = (out / "strength_report.csv").read_text().splitlines()
            thresholds.append(dict(zip(rows[0].split(","), rows[1].split(",")))["threshold"])
        assert thresholds[0] == thresholds[1]

    def test_mean_loadings(self, panel_csv, tmp_path):
        path, _ = panel_csv
        out = tmp_path / "out"
        code = run_cli(["mean-loadings", "--input", str(path), "--M", "5",
                        "--out-dir", str(out)])
        assert code == 0
        assert (out / "mean_loadings.csv").exists()
        assert (out / "se_mean_loadings.csv").exists()

    def test_mean_loading_ses_follow_sigma_mean(self, panel_csv, tmp_path, monkeypatch):
        packs = []

        def keep(*args):
            packs.append(plugin_covariances(*args))
            return packs[-1]

        monkeypatch.setattr(cli, "plugin_covariances", keep)
        path, _ = panel_csv
        out = tmp_path / "out"
        assert run_cli(["mean-loadings", "--input", str(path), "--M", "5",
                        "--out-dir", str(out)]) == 0
        (covs,) = packs
        want = np.sqrt(np.diagonal(covs.sigma_mean, axis1=1, axis2=2) / 16)
        got = load_panel(out / "se_mean_loadings.csv").values
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=1e-14, atol=0)

    def test_infer_common_se(self, panel_csv, tmp_path):
        path, _ = panel_csv
        out = tmp_path / "out"
        code = run_cli(["infer", "--input", str(path), "--M", "5",
                        "--tau", "0.5", "--out-dir", str(out)])
        assert code == 0
        se = load_panel(out / "se_common_tau_0.5.csv")
        assert se.values.shape == (16, 16)
        assert (se.values > 0).all()


class TestConfigAndErrors:
    def test_config_file_and_cli_precedence(self, panel_csv, tmp_path):
        path, _ = panel_csv
        cfg = tmp_path / "run.cfg"
        cfg.write_text("M = 5\nrank = 1\nc = 0.3\n")
        out = tmp_path / "out"
        code = run_cli(["estimate", "--method", "ufa", "--input", str(path),
                        "--config", str(cfg), "--M", "3", "--out-dir", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["m"] == 3          # CLI wins over file
        assert manifest["config"]["c"] == 0.3        # file wins over default
        assert len(list(out.glob("loadings_tau_*.csv"))) == 3

    @pytest.mark.parametrize("line", ["M = 5", "m = 5"])
    def test_config_file_sets_flag_by_either_spelling(self, panel_csv, tmp_path, line):
        path, _ = panel_csv
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{line}\nrank = 1\n")
        out = tmp_path / "out"
        assert run_cli(["estimate", "--method", "ufa", "--input", str(path),
                        "--config", str(cfg), "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["m"] == 5
        assert len(list(out.glob("loadings_tau_*.csv"))) == 5

    @pytest.mark.parametrize("line", ["threads = 2", "seed = 42", "bogus = 1",
                                      "kernel-order = 3"])
    def test_config_file_rejects_unknown_keys_and_bad_values(self, panel_csv, tmp_path,
                                                             line):
        path, _ = panel_csv
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{line}\n")
        code = run_cli(["estimate", "--input", str(path), "--config", str(cfg),
                        "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert not (tmp_path / "out").exists()

    @staticmethod
    def _assert_tau_rejected_before_fit(command, tau, panel_csv, tmp_path, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("the fit started")

        monkeypatch.setattr(cli, "fit_panel", no_fit)
        path, _ = panel_csv
        out = tmp_path / "out"
        code = run_cli([command, "--input", str(path), "--M", "5", "--tau", tau,
                        "--out-dir", str(out)])
        assert code == 1
        assert not list(out.glob("se_*.csv"))
        assert not (out / "strength_report.csv").exists()

    @pytest.mark.parametrize("command", ["infer", "select"])
    def test_off_grid_tau_rejected_before_fit(self, panel_csv, tmp_path, monkeypatch,
                                              command):
        self._assert_tau_rejected_before_fit(command, "0.55", panel_csv, tmp_path,
                                             monkeypatch)

    @pytest.mark.parametrize("command", ["infer", "select"])
    def test_near_grid_tau_rejected_before_fit(self, panel_csv, tmp_path, monkeypatch,
                                               command):
        # within numpy's default rtol of level 0.5, but not a grid level
        self._assert_tau_rejected_before_fit(command, "0.500004", panel_csv, tmp_path,
                                             monkeypatch)

    def test_threads_only_on_simulate(self, panel_csv, tmp_path):
        path, _ = panel_csv
        code = run_cli(["estimate", "--input", str(path), "--threads", "2",
                        "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert not (tmp_path / "out").exists()

    def test_seed_only_on_simulate(self, panel_csv, tmp_path):
        path, _ = panel_csv
        code = run_cli(["estimate", "--input", str(path), "--seed", "1",
                        "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert not (tmp_path / "out").exists()

    def test_manifest_config_lists_subcommand_options_only(self, panel_csv, tmp_path):
        path, _ = panel_csv
        out = tmp_path / "out"
        assert run_cli(["rank", "--input", str(path), "--M", "5",
                        "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert {"m", "c"} <= set(manifest["config"])
        assert not {"reps", "sizes", "table", "threads", "seed", "method", "tau"} \
            & set(manifest["config"])
        assert {"r_hat", "threshold"} <= set(manifest)
        assert manifest["seed"] is None
        assert set(manifest["config"]) == {"command", "input", "layout", "m", "hd", "c",
                                           "cr", "out_dir"}
        sim_out = tmp_path / "sim"
        assert run_cli(["simulate", "--table", "1", "--sizes", "16", "--reps", "1",
                        "--out-dir", str(sim_out)]) == 0
        manifest = json.loads((sim_out / "manifest.json").read_text())
        assert set(manifest["config"]) == {"command", "table", "sizes", "reps", "threads",
                                           "seed", "out_dir"}

    @pytest.mark.parametrize("command,option,value", [
        *(("simulate", o, v) for o, v in (
            ("--input", "panel.csv"), ("--layout", "wide"), ("--M", "5"),
            ("--rank", "3"), ("--h", "0.5"), ("--hd", "0.04"), ("--kernel-order", "2"),
            ("--C", "9"), ("--Cr", "0.1"))),
        *(("rank", o, v) for o, v in (("--rank", "3"), ("--h", "0.5"),
                                      ("--kernel-order", "2")))])
    def test_options_a_subcommand_does_not_read_are_rejected(self, panel_csv, tmp_path,
                                                            command, option, value):
        path, _ = panel_csv
        argv = ([command, "--table", "1", "--sizes", "16", "--reps", "1"]
                if command == "simulate" else [command, "--input", str(path)])
        code = run_cli([*argv, option, value, "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert not (tmp_path / "out").exists()

    def test_fixed_rank_too_large_is_named(self, panel_csv, tmp_path, capsys):
        path, _ = panel_csv
        out = tmp_path / "out"
        code = run_cli(["estimate", "--rank", "50", "--M", "3", "--input", str(path),
                        "--out-dir", str(out)])
        assert code == 1
        assert "rank 50 too large" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))

    def test_usage_error_exit_code(self):
        assert run_cli(["estimate"]) == 1            # missing --input
        assert run_cli(["no-such-command"]) == 1

    def test_missing_file_exit_code(self, tmp_path):
        code = run_cli(["rank", "--input", str(tmp_path / "nope.csv"),
                        "--out-dir", str(tmp_path / "out")])
        assert code == 1

    def test_zero_rank_estimate_fails_without_output(self, panel_csv, tmp_path, capsys):
        path, _ = panel_csv
        out = tmp_path / "out"
        code = run_cli(["estimate", "--input", str(path), "--M", "5", "--Cr", "1e9",
                        "--out-dir", str(out)])
        assert code == 2
        assert "estimated rank is 0; nothing to fit" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))

    def test_zero_rank_is_a_rank_result(self, panel_csv, tmp_path):
        path, _ = panel_csv
        out = tmp_path / "out"
        assert run_cli(["rank", "--input", str(path), "--M", "5", "--Cr", "1e9",
                        "--out-dir", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["r_hat"] == 0

    def test_numeric_failure_exit_code(self, tmp_path):
        from ufm.panel import PanelMatrix

        path = tmp_path / "zero.csv"
        save_panel(PanelMatrix.from_values(np.zeros((12, 12))), path)
        code = run_cli(["estimate", "--method", "ufa", "--input", str(path),
                        "--M", "5", "--out-dir", str(tmp_path / "out")])
        assert code == 2


class TestSimulateDeterminism:
    def test_identical_seeds_identical_bytes(self, tmp_path):
        argv = ["simulate", "--table", "1", "--sizes", "16", "--reps", "2",
                "--seed", "7"]
        assert run_cli(argv + ["--out-dir", str(tmp_path / "a")]) == 0
        assert run_cli(argv + ["--out-dir", str(tmp_path / "b")]) == 0
        for name in ("table1_reps.csv", "table1_summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()
