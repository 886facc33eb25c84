import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ufm.ranksel as ranksel
from ufm.panel import EstimatorConfig, PanelMatrix, make_quantile_grid, single_level_grid
from ufm.ranksel import (
    RankReport,
    default_rank_threshold,
    estimate_r,
    pel_fit,
    pel_profile,
    rank_from_profile,
    select_factors,
    svt,
    warm_start_from_profile,
)
from ufm.idw import fit_panel
from ufm.simlab import gen_dgp

GRID = make_quantile_grid(9, 0.04)


def _svt_reference(z, level):
    """Soft threshold through a full SVD, the textbook form of the prox."""
    u, s, vt = np.linalg.svd(z, full_matrices=False)
    s_shrunk = np.maximum(s - level, 0.0)
    return u @ (s_shrunk[:, None] * vt), float(s_shrunk.sum())


class TestSvt:
    def test_soft_threshold_arithmetic(self):
        z = np.diag([3.0, 1.0, 0.2])
        shrunk, nuc = svt(z, 0.5)
        got = np.sort(np.linalg.svd(shrunk, compute_uv=False))[::-1]
        assert np.allclose(got, [2.5, 0.5, 0.0], atol=1e-12)
        assert nuc == pytest.approx(3.0)

    @settings(max_examples=120, deadline=None)
    @given(kind=st.sampled_from(["tall", "wide", "square"]),
           sides=st.tuples(st.integers(1, 60), st.integers(1, 60)),
           log_c=st.floats(-3.0, 3.0), seed=st.integers(0, 2**32 - 1),
           where=st.sampled_from(["below", "between", "equal", "above"]),
           pick=st.floats(0.0, 1.0))
    def test_matches_full_svd(self, kind, sides, log_c, seed, where, pick):
        lo, hi = sorted(sides)
        n, t = {"tall": (hi, lo), "wide": (lo, hi), "square": (hi, hi)}[kind]
        k = min(n, t)
        rng = np.random.default_rng(seed)
        u, _ = np.linalg.qr(rng.normal(size=(n, k)))
        v, _ = np.linalg.qr(rng.normal(size=(t, k)))
        # the spectrum spans three decades, so no level below falls under
        # 1e-4 * s_1 and the Gram route's eps * s_1^2 / level error stays
        # far inside the tolerance
        z = 10.0**log_c * (u * 10.0 ** rng.uniform(-3.0, 0.0, k)) @ v.T
        s = np.linalg.svd(z, compute_uv=False)
        j = min(int(pick * k), k - 1)
        if where == "below":
            level = (0.1 + 0.8 * pick) * s[-1]
        elif where == "between":
            assume(k >= 2)
            j = min(j, k - 2)
            level = np.sqrt(s[j] * s[j + 1])
        elif where == "equal":
            level = s[j]
        else:
            level = 1.001 * s[0] * (1.0 + pick)
        got, nuc = svt(z, level)
        want, nuc_want = _svt_reference(z, level)
        assert got.shape == z.shape
        if where == "above":
            assert np.array_equal(got, np.zeros_like(z)) and nuc == 0.0
        assert np.abs(got - want).max() <= 1e-10 * s[0]
        assert abs(nuc - nuc_want) <= 1e-10 * s[0]


class TestPelFit:
    def test_huge_penalty_kills_all_singular_values(self, rng):
        y = rng.normal(size=(20, 20))
        fit = pel_fit(PanelMatrix.from_values(y), 0.5, penalty_const=1e6)
        assert np.linalg.svd(fit, compute_uv=False).sum() <= 1e-8

    def test_noiseless_rank_one_recovery(self, rng):
        lam = rng.uniform(0.5, 2.0, size=40)
        f = rng.uniform(0.5, 2.0, size=40)
        y = np.outer(lam, f)
        fit = pel_fit(PanelMatrix.from_values(y), 0.5)
        rel = np.linalg.norm(fit - y) / np.linalg.norm(y)
        assert rel <= 0.15

    def test_objective_descends(self, rng):
        y = rng.normal(size=(25, 25)) + np.outer(rng.uniform(1, 2, 25),
                                                 rng.uniform(1, 2, 25))
        tr: list = []
        pel_fit(PanelMatrix.from_values(y), 0.3, trace=tr)
        assert len(tr) > 2
        assert (np.diff(tr) <= 1e-12).all()

    def test_result_within_box(self, rng):
        y = rng.normal(size=(15, 15))
        fit = pel_fit(PanelMatrix.from_values(y), 0.7)
        spread = y.max() - y.min()
        assert fit.min() >= y.min() - spread - 1e-9
        assert fit.max() <= y.max() + spread + 1e-9


class TestEstimateR:
    def test_zero_panel(self):
        panel = PanelMatrix.from_values(np.zeros((12, 12)))
        report = estimate_r(panel, GRID)
        assert report.r_hat == 0
        assert np.abs(report.eigenvalues).max() <= 1e-12

    def test_paper_dgp_single_rep(self):
        dgp = gen_dgp(50, 50, [31, 0])
        report = estimate_r(dgp.panel, GRID)
        assert report.threshold == pytest.approx(default_rank_threshold(50, 50))
        assert report.r_hat == 1

    def test_threshold_monotonicity(self):
        dgp = gen_dgp(30, 30, [31, 1])
        profile = pel_profile(dgp.panel, GRID)
        counts = [rank_from_profile(profile, c).r_hat
                  for c in (1e-6, 1e-3, 0.02, 0.5, 5.0)]
        assert counts == sorted(counts, reverse=True)

    @pytest.mark.parametrize("shape", [(40, 60), (60, 40)])
    def test_profile_matches_full_svd_prox(self, shape, monkeypatch):
        n, t = shape
        panel = gen_dgp(n, t, [31, 7]).panel
        threshold = default_rank_threshold(n, t)
        got = pel_profile(panel, GRID)
        errors = []

        def checked_reference(z, level):
            shrunk, nuc = svt(z, level)
            want, nuc_want = _svt_reference(z, level)
            scale = np.linalg.norm(z, 2)
            errors.append(max(np.abs(shrunk - want).max(), abs(nuc - nuc_want)) / scale)
            return want, nuc_want

        monkeypatch.setattr(ranksel, "svt", checked_reference)
        want = pel_profile(panel, GRID)
        # every prox on the reference path agrees to rounding
        assert len(errors) >= GRID.m_count and max(errors) <= 1e-10
        # A fit is settled only to its stopping tolerance: a rounding-level
        # change can flip the monotone-restart test on the last step, as at
        # 60x40, tau = 0.6, where that level then moves by 1.4e-6 relative.
        for a, b in ((got.surfaces, want.surfaces),
                     (got.eigenvalues, want.eigenvalues)):
            assert np.abs(a - b).max() <= ranksel._PEL_TOL * np.abs(b).max()
        assert (rank_from_profile(got, threshold).r_hat
                == rank_from_profile(want, threshold).r_hat)

    def test_eigen_singular_consistency(self):
        dgp = gen_dgp(20, 20, [31, 2])
        profile = pel_profile(dgp.panel, GRID)
        m, n, t = profile.surfaces.shape
        stacked = profile.surfaces.reshape(m * n, t) / np.sqrt(m * n * t)
        sing_sq = np.sort(np.linalg.svd(stacked, compute_uv=False) ** 2)[::-1]
        top = min(n, t)
        assert np.allclose(profile.eigenvalues, sing_sq[:top], atol=1e-8)

    def test_report_validation(self):
        with pytest.raises(ValueError):
            RankReport(np.array([1.0, 2.0]), r_hat=1, threshold=0.5,
                       penalty_const=0.2)
        with pytest.raises(ValueError):
            RankReport(np.array([2.0, 1.0]), r_hat=0, threshold=0.5,
                       penalty_const=0.2)


class TestWarmStart:
    def test_orthonormal_factors(self):
        dgp = gen_dgp(30, 30, [31, 3])
        est = warm_start_from_profile(pel_profile(dgp.panel, GRID), 1)
        gram = est.factors.T @ est.factors / 30
        assert np.abs(gram - np.eye(1)).max() <= 1e-10

    def test_noiseless_reproduces_panel(self, rng):
        lam = rng.uniform(0.5, 2.0, size=30)
        f = rng.uniform(0.5, 2.0, size=30)
        y = np.outer(lam, f)
        est = warm_start_from_profile(pel_profile(PanelMatrix.from_values(y), GRID), 1)
        fitted = est.loadings[4] @ est.factors.T
        assert np.linalg.norm(fitted - y) / np.linalg.norm(y) <= 0.15

    def test_single_level_variant(self):
        dgp = gen_dgp(24, 24, [31, 4])
        grid1 = single_level_grid(0.8, 0.04)
        est = warm_start_from_profile(pel_profile(dgp.panel, grid1), 1)
        assert est.m_count == 1
        assert est.factors.shape == (24, 1)

    def test_rank_must_be_positive(self):
        dgp = gen_dgp(16, 16, [31, 5])
        with pytest.raises(ValueError):
            warm_start_from_profile(pel_profile(dgp.panel, GRID), 0)


class TestSelectFactors:
    @pytest.fixture(scope="class")
    @staticmethod
    def fitted():
        import warnings

        dgp = gen_dgp(100, 100, [31, 6])
        config = EstimatorConfig(rank=1).resolved_for(dgp.panel)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            est = fit_panel(dgp.panel, GRID, config, weighted=False).estimate
        lam_bar = dgp.panel.values @ est.factors / 100
        return dgp, est, lam_bar

    def test_weak_mean_factor_not_selected(self, fitted):
        dgp, est, lam_bar = fitted
        rep = select_factors(est, GRID, lam_bar, target="mean", alpha=1.0)
        assert rep.selected == 0

    def test_strong_tail_quantile_selected(self, fitted):
        dgp, est, _ = fitted
        rep = select_factors(est, GRID, target=0.9, alpha=1.0)
        assert rep.selected == 1

    def test_alpha_to_zero_selects_everything(self, fitted):
        dgp, est, _ = fitted
        rep = select_factors(est, GRID, target=0.9, alpha=1e-9)
        assert rep.selected == est.rank

    def test_selected_monotone_in_alpha(self, fitted):
        dgp, est, _ = fitted
        counts = [select_factors(est, GRID, target=0.7, alpha=a).selected
                  for a in (0.05, 0.3, 0.6, 1.0)]
        assert counts == sorted(counts, reverse=True)

    def test_mean_requires_loadings(self, fitted):
        _, est, _ = fitted
        with pytest.raises(ValueError):
            select_factors(est, GRID, target="mean", alpha=0.5)

    def test_alpha_validation(self, fitted):
        _, est, _ = fitted
        with pytest.raises(ValueError):
            select_factors(est, GRID, target=0.5, alpha=1.5)
