import warnings

import numpy as np
import pytest

from ufm.errors import DegenerateRegressorsError
from ufm.panel import PanelMatrix, make_quantile_grid
from ufm.ranksel import estimate_r, pel_profile, warm_start_from_profile
from ufm.simlab import (
    ExperimentSpec,
    adjusted_r2,
    align_factor_signs,
    beta_coefficient,
    gen_dgp,
    make_dgp,
    monte_carlo_run,
    pca_fit,
    qfa_fit,
    rotation_scalar,
)

GRID = make_quantile_grid(9, 0.04)


class TestDgp:
    def test_same_seed_same_panel(self):
        a = gen_dgp(20, 25, 123)
        b = gen_dgp(20, 25, 123)
        assert np.array_equal(a.panel.values, b.panel.values)

    def test_different_seed_differs(self):
        a = gen_dgp(20, 25, 123)
        b = gen_dgp(20, 25, 124)
        assert not np.array_equal(a.panel.values, b.panel.values)

    def test_beta_root(self, rng):
        f0 = rng.uniform(0, 2, 6)
        base = rng.uniform(0, 2, 5)
        dgp = make_dgp(f0, base, np.full((5, 6), 0.495))
        assert np.abs(dgp.panel.values).max() == 0.0

    def test_reconstruction_from_stored_draws(self):
        dgp = gen_dgp(15, 18, 7)
        rebuilt = (beta_coefficient(dgp.u) * dgp.true_loading_base[:, None]
                   * dgp.true_factor[None, :])
        assert np.array_equal(rebuilt, dgp.panel.values)

    def test_normalized_truth(self):
        dgp = gen_dgp(30, 40, 11)
        t = 40
        assert dgp.normalized_factor[:, 0] @ dgp.normalized_factor[:, 0] / t == \
            pytest.approx(1.0)
        # rescaling preserves the common components exactly
        for tau in (0.25, 0.5, 0.75):
            norm_common = beta_coefficient(tau) * np.outer(
                dgp.normalized_base[:, 0], dgp.normalized_factor[:, 0])
            assert np.allclose(norm_common, dgp.true_common(tau), atol=1e-12)

    def test_conditional_quantiles_match(self):
        dgp = gen_dgp(200, 200, 13)
        taus = np.linspace(0.05, 0.95, 19)
        dist = []
        for tau in taus:
            surface = dgp.true_common(tau)
            frac = float(np.mean(dgp.panel.values <= surface))
            dist.append(abs(frac - tau))
        assert max(dist) <= 0.05


class TestBaselines:
    def test_pca_rank_one_exact(self, rng):
        u = rng.uniform(0.5, 2, 12)
        v = rng.uniform(0.5, 2, 16)
        panel = PanelMatrix.from_values(np.outer(u, v))
        f = pca_fit(panel, 1)
        assert adjusted_r2(v, f) == pytest.approx(1.0, abs=1e-10)
        assert np.abs(f.T @ f / 16 - 1.0).max() <= 1e-10

    def test_pca_rank_bound(self):
        with pytest.raises(ValueError):
            pca_fit(PanelMatrix.from_values(np.ones((4, 5))), 5)

    def test_qfa_unknown_init(self):
        dgp = gen_dgp(16, 16, 3)
        with pytest.raises(ValueError):
            qfa_fit(dgp.panel, 0.5, 1, init="pca")

    def test_qfa_ini_ufa_needs_grid_level(self):
        dgp = gen_dgp(16, 16, 3)
        warm = warm_start_from_profile(pel_profile(dgp.panel, GRID), 1)
        with pytest.raises(ValueError):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                qfa_fit(dgp.panel, 0.123, 1, init="ini_UFA", warm=warm, warm_grid=GRID)

    def test_qfa_ini_ufa_needs_warm_start(self):
        dgp = gen_dgp(16, 16, 3)
        with pytest.raises(ValueError):
            qfa_fit(dgp.panel, 0.5, 1, init="ini_UFA")


class TestAdjustedR2:
    def test_perfect_fit(self, rng):
        f = rng.normal(size=30)
        assert adjusted_r2(f, f[:, None]) == pytest.approx(1.0)

    def test_affine_invariance(self, rng):
        f = rng.normal(size=40)
        assert adjusted_r2(f, (3.0 - 2.0 * f)[:, None]) == pytest.approx(
            1.0, abs=1e-10)

    def test_independent_noise_near_zero(self):
        rng = np.random.default_rng(5)
        truth = rng.normal(size=50)
        noise = rng.normal(size=(50, 1))
        assert abs(adjusted_r2(truth, noise)) <= 0.1

    def test_degenerate_regressor(self, rng):
        with pytest.raises(DegenerateRegressorsError):
            adjusted_r2(rng.normal(size=20), np.ones((20, 1)))


class TestRotation:
    def test_identity_for_truth(self, rng):
        f = rng.normal(size=(25, 2))
        q, _ = np.linalg.qr(f)
        f = np.sqrt(25) * q
        assert np.allclose(rotation_scalar(f, f), np.eye(2), atol=1e-12)

    def test_sign_flip_invariance(self, rng):
        f = np.sqrt(30) * np.linalg.qr(rng.normal(size=(30, 1)))[0]
        h_plus = rotation_scalar(f, f)
        h_minus = rotation_scalar(-f, f)
        assert np.allclose(h_plus, h_minus, atol=1e-14)

    def test_align_factor_signs(self, rng):
        from ufm.panel import FactorEstimate

        f = np.sqrt(20) * np.linalg.qr(rng.normal(size=(20, 1)))[0]
        est = FactorEstimate(-f, np.ones((1, 5, 1)), np.array([1.0]))
        aligned = align_factor_signs(est, f)
        assert np.allclose(aligned.factors, f, atol=1e-14)
        assert np.allclose(aligned.loadings, -1.0, atol=1e-14)


class TestMonteCarlo:
    def test_table1_single_rep_matches_direct_call(self):
        spec = ExperimentSpec("table1", sizes=(20,), reps=1)
        result = monte_carlo_run(spec, seed=9)
        assert len(result["rep_rows"]) == 1
        direct = estimate_r(gen_dgp(20, 20, [9, 1, 20, 0]).panel, GRID)
        assert result["rep_rows"][0]["r_hat"] == direct.r_hat

    def test_thread_count_does_not_change_results(self):
        spec = ExperimentSpec("table1", sizes=(16,), reps=3)
        serial = monte_carlo_run(spec, seed=4, threads=1)
        threaded = monte_carlo_run(spec, seed=4, threads=4)
        assert serial["rep_rows"] == threaded["rep_rows"]

    def test_fixed_truth_protocol_runs(self, tmp_path):
        spec = ExperimentSpec("table4_fig1", sizes=(16,), reps=2)
        result = monte_carlo_run(spec, seed=3, out_dir=tmp_path)
        assert len(result["rep_rows"]) == 2
        assert (tmp_path / "table4_fig1_reps.csv").exists()
        assert (tmp_path / "table4_fig1_summary.csv").exists()
        for row in result["rep_rows"]:
            assert np.isfinite(row["f_std"])

    def test_summary_csv_deterministic(self, tmp_path):
        spec = ExperimentSpec("table3", sizes=(16,), reps=2)
        monte_carlo_run(spec, seed=12, out_dir=tmp_path / "a")
        monte_carlo_run(spec, seed=12, out_dir=tmp_path / "b")
        for name in ("table3_reps.csv", "table3_summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec("table9", sizes=(16,), reps=1)

    def test_table2_narrowed_estimators(self):
        spec = ExperimentSpec("table2", sizes=(16,), reps=1,
                              estimators=("pca", "qfa-ini-tau"), taus=(0.9,))
        result = monte_carlo_run(spec, seed=2)
        names = {r["estimator"] for r in result["rep_rows"]}
        assert names == {"pca", "qfa-ini-tau"}

    def test_ufa_recovery_improves_with_size(self):
        spec = ExperimentSpec("table2", sizes=(50, 100, 150), reps=6,
                              estimators=("ufa",))
        result = monte_carlo_run(spec, seed=77, threads=2)
        means = {row["size"]: row["mean_adj_r2"] for row in result["summary"]}
        assert means[100] >= means[50] - 0.02
        assert means[150] >= means[100] - 0.02
        assert means[150] >= 0.95
