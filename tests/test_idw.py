import warnings

import numpy as np
import pytest
from scipy.stats import norm

import ufm.idw as idw
import ufm.ranksel as ranksel
import ufm.ufa as ufa
from conftest import FitOnRead, TracingPanel
from ufm.errors import ClippedFractionWarning, RankTooLargeError, UfmError
from ufm.idw import (
    WeightTensor,
    _half_factors,
    _loading_table,
    clip_weights,
    crossfit_estimates,
    fit_panel,
    fpdf_derivative,
    inverse_density_weights,
    quadrant_crossfit,
    raw_inverse_density,
    split_panel,
)
from ufm.panel import EstimatorConfig, FactorEstimate, PanelMatrix, make_quantile_grid
from ufm.ranksel import (
    default_rank_threshold,
    pel_fit,
    pel_profile,
    rank_from_profile,
    warm_start_from_profile,
)
from ufm.simlab import adjusted_r2, gen_dgp
from ufm.ufa import parameter_box, ufa_fit

GRID = make_quantile_grid(9, 0.04)


class TestSplitPanel:
    def test_5x4(self):
        panel = PanelMatrix.from_values(np.zeros((5, 4)) + 1.0)
        split = split_panel(panel)
        assert split.n1.tolist() == [0, 1]
        assert split.n2.tolist() == [2, 3, 4]
        assert split.t1.tolist() == [0, 1]
        assert split.t2.tolist() == [2, 3]

    def test_50x50_quadrants(self):
        split = split_panel(PanelMatrix.from_values(np.ones((50, 50))))
        assert len(split.n1) == len(split.n2) == len(split.t1) == len(split.t2) == 25

    def test_4x4(self):
        split = split_panel(PanelMatrix.from_values(np.ones((4, 4))))
        assert len(split.n1) == len(split.n2) == 2

    def test_too_small(self):
        with pytest.raises(ValueError):
            split_panel(PanelMatrix.from_values(np.ones((3, 8))))


class TestFpdf:
    def test_constant_is_zero(self):
        for mode, k in (("central", 4), ("forward", 5), ("backward", 5)):
            vals = np.full((k, 3), 2.7)
            assert np.abs(fpdf_derivative(vals, 0.04, mode)).max() == 0.0

    def test_cubic_exact(self):
        tau, h = 0.5, 0.04
        stencil = tau + h * np.array([-2, -1, 1, 2])
        got = fpdf_derivative(stencil[:, None] ** 3, h, "central")
        assert got[0] == pytest.approx(3 * tau**2, abs=1e-12)

    def test_normal_quantile_derivative(self):
        tau, h = 0.5, 0.01
        stencil = tau + h * np.array([-2, -1, 1, 2])
        got = fpdf_derivative(norm.ppf(stencil)[:, None], h, "central")
        assert got[0] == pytest.approx(np.sqrt(2 * np.pi), abs=1e-5)

    @pytest.mark.parametrize("mode", ["central", "forward", "backward"])
    def test_degree_four_exact(self, mode):
        rng = np.random.default_rng(3)
        coeffs = rng.normal(size=5)
        poly = np.polynomial.Polynomial(coeffs)
        tau, h = 0.4, 0.03
        offs = {"central": [-2, -1, 1, 2], "forward": [0, 1, 2, 3, 4],
                "backward": [0, -1, -2, -3, -4]}[mode]
        vals = poly(tau + h * np.array(offs, dtype=float))[:, None]
        got = fpdf_derivative(vals, h, mode)
        assert got[0] == pytest.approx(poly.deriv()(tau), abs=1e-10)

    def test_degree_five_error_order(self):
        tau = 0.45
        slopes = []
        hs = [0.04, 0.02, 0.01]
        for h in hs:
            stencil = tau + h * np.array([-2, -1, 1, 2])
            err = abs(fpdf_derivative(stencil[:, None] ** 5, h, "central")[0]
                      - 5 * tau**4)
            slopes.append(err)
        fit = np.polyfit(np.log(hs), np.log(slopes), 1)[0]
        assert fit == pytest.approx(4.0, abs=0.2)


def _scale_model(rng, n, t, mu=2.0):
    f = rng.uniform(0.5, 2.5, size=t)
    eps = rng.normal(size=(n, t))
    y = f[None, :] * (mu + eps)
    return PanelMatrix.from_values(y), f


class TestCrossFit:
    def test_noiseless_reproduces_bottom_right(self, rng):
        lam = rng.uniform(0.5, 2.0, size=16)
        f = rng.uniform(0.5, 2.0, size=16)
        panel = PanelMatrix.from_values(np.outer(lam, f))
        config = EstimatorConfig(rank=1, bandwidth_h=1e-5)
        split = split_panel(panel)
        cf = crossfit_estimates(panel, GRID, config, split)
        mid = np.searchsorted(GRID.all_stencil_levels(), 0.5 - 0.04)  # a level near 0.5
        table, f_v = cf[(2, 2)]
        fitted = table[mid] @ f_v.T
        br = np.ix_(split.n2, split.t2)
        assert np.abs(fitted - panel.values[br]).max() <= 1e-3

    def test_half_factors_span_same_space(self, rng):
        lam = rng.uniform(0.5, 2.0, size=20)
        f = rng.uniform(0.5, 2.0, size=20)
        panel = PanelMatrix.from_values(np.outer(lam, f))
        config = EstimatorConfig(rank=1, bandwidth_h=1e-5)
        split = split_panel(panel)
        cf = crossfit_estimates(panel, GRID, config, split)
        # quadrants in row half a are weighted by the other half's factors
        f_top = np.vstack([cf[(2, 1)][1], cf[(2, 2)][1]])
        f_bottom = np.vstack([cf[(1, 1)][1], cf[(1, 2)][1]])
        assert adjusted_r2(f_top[:, 0], f_bottom) >= 0.999

    def test_rotation_cancellation_rmse_shrinks(self):
        rmses = []
        for idx, size in enumerate([25, 50, 100]):
            dgp = gen_dgp(size, size, [11, idx])
            split = split_panel(dgp.panel)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                cf = crossfit_estimates(dgp.panel, GRID, EstimatorConfig(rank=1), split)
            m5 = np.searchsorted(GRID.all_stencil_levels(), 0.5 + 0.04)
            tau = GRID.all_stencil_levels()[m5]
            table, f_v = cf[(2, 2)]
            fitted = table[m5] @ f_v.T
            truth = dgp.true_common(tau)
            br = np.ix_(split.n2, split.t2)
            rmses.append(np.sqrt(np.mean((fitted - truth[br]) ** 2)))
        assert rmses[2] < rmses[0]
        assert rmses[2] <= 0.25


class TestInverseDensityWeights:
    def test_scale_model_weights(self):
        # analytic truth: 1/density = f_t sqrt(2 pi) exp(ppf(tau)^2 / 2).
        # At this size the five-point stencil noise floors the median
        # relative error near 0.3 (0.2 even with oracle factors), so the
        # assertions pin accuracy, scale, and association at honest levels.
        rng = np.random.default_rng(21)
        n = t = 100
        panel, f = _scale_model(rng, n, t)
        split = split_panel(panel)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cf = crossfit_estimates(panel, GRID, EstimatorConfig(rank=1), split)
            weights = inverse_density_weights(cf, GRID, split)
        quantiles = norm.ppf(GRID.levels)
        true_w = np.broadcast_to(
            (np.sqrt(2 * np.pi) * np.exp(0.5 * quantiles**2))[:, None, None]
            * f[None, None, :], weights.w.shape)
        rel = np.abs(weights.w - true_w) / true_w
        assert np.median(rel) <= 0.35
        assert 0.75 <= np.median(weights.w / true_w) <= 1.15
        assert np.corrcoef(weights.w.ravel(), true_w.ravel())[0, 1] >= 0.5

    def test_location_model_weights_flat_in_time(self):
        rng = np.random.default_rng(22)
        n = t = 100
        lam = rng.uniform(1.0, 3.0, size=n)
        panel = PanelMatrix.from_values(lam[:, None] + rng.normal(size=(n, t)))
        split = split_panel(panel)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cf = crossfit_estimates(panel, GRID, EstimatorConfig(rank=1), split)
            weights = inverse_density_weights(cf, GRID, split)
        w_mid = weights.w[4]  # tau = 0.5
        cov_over_t = w_mid.std(axis=1) / w_mid.mean(axis=1)
        assert np.median(cov_over_t) <= 0.2

    def test_degenerate_paths_clip_to_floor(self, rng):
        lam = rng.uniform(0.5, 2.0, size=12)
        f = rng.uniform(0.5, 2.0, size=12)
        panel = PanelMatrix.from_values(np.outer(lam, f))
        config = EstimatorConfig(rank=1, bandwidth_h=1e-5)
        split = split_panel(panel)
        cf = crossfit_estimates(panel, GRID, config, split)
        with pytest.warns(ClippedFractionWarning):
            weights = inverse_density_weights(cf, GRID, split)
        assert np.allclose(weights.w, weights.clip_lo)

    def test_boundary_stencils_end_to_end(self):
        # h_d = 0.046 pushes the extreme grid levels onto one-sided stencils
        dgp = gen_dgp(20, 20, [12, 5])
        grid = make_quantile_grid(9, 0.046)
        assert grid.modes[0] == "forward" and grid.modes[-1] == "backward"
        split = split_panel(dgp.panel)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cf = crossfit_estimates(dgp.panel, grid, EstimatorConfig(rank=1), split)
            weights = inverse_density_weights(cf, grid, split)
        assert np.isfinite(weights.w).all()
        assert (weights.w > 0).all()

    def test_clip_fraction_warning_threshold(self):
        raw = np.ones((2, 4, 4))
        raw[0, 0, :] = 1e9  # 12.5% of entries out of band
        with pytest.warns(ClippedFractionWarning):
            clip_weights(raw)

    def test_weight_tensor_validates_bounds(self):
        with pytest.raises(ValueError):
            WeightTensor(np.full((1, 2, 2), 5.0), clip_lo=0.1, clip_hi=1.0)


class TestIdwUfa:
    def test_matches_plain_fit_under_unit_weights(self, rng):
        dgp = gen_dgp(16, 16, [13, 1])
        config = EstimatorConfig(rank=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            warm = fit_panel(dgp.panel, GRID, config, weighted=False).ufa
            plain = ufa_fit(dgp.panel, GRID, config, warm)
            forced = ufa_fit(dgp.panel, GRID, config, warm,
                             weights=np.ones((9, 16, 16)))
        assert np.array_equal(plain.factors, forced.factors)

    def test_weight_scale_invariance(self, rng):
        dgp = gen_dgp(16, 16, [13, 2])
        config = EstimatorConfig(rank=1)
        w = np.exp(np.random.default_rng(2).normal(size=(9, 16, 16)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            warm = fit_panel(dgp.panel, GRID, config, weighted=False).ufa
            a = ufa_fit(dgp.panel, GRID, config, warm, weights=w)
            b = ufa_fit(dgp.panel, GRID, config, warm, weights=3.7 * w)
        assert np.abs(a.factors - b.factors).max() <= 1e-8


def _boxed_warm_start(profile, rank, panel):
    """The warm start clipped to the box of the panel it starts a fit on."""
    warm = warm_start_from_profile(profile, rank)
    lo, hi = parameter_box(panel.values)
    return FactorEstimate(np.clip(warm.factors, lo, hi), np.clip(warm.loadings, lo, hi),
                          warm.eigenvalues)


def _chain_written_out(panel, grid, config, weighted):
    """The estimator's chain spelled out call by call, as its callers wrote
    it before it became one function, the half-panel fits included."""
    profile = pel_profile(panel, grid, 0.2)
    report = rank_from_profile(profile, default_rank_threshold(panel.n_rows,
                                                               panel.n_cols))
    rank = report.r_hat if config.rank == "auto" else config.rank
    config = config.with_rank(rank)
    warm = _boxed_warm_start(profile, rank, panel)
    first = ufa_fit(panel, grid, config, init=warm)
    if not weighted:
        return report, first, first, None
    split = split_panel(panel)
    cf_config = config.with_bandwidth_for(panel)
    halves = {}
    for c in (1, 2):
        half = PanelMatrix.from_values(panel.submatrix(split.rows(c),
                                                       np.arange(panel.n_cols)))
        half_warm = _boxed_warm_start(pel_profile(half, grid), rank, half)
        halves[c] = ufa_fit(half, grid, cf_config, init=half_warm).factors
    crossfit = {(a, b): quadrant_crossfit(panel, grid, cf_config, split, halves, a, b)
                for a in (1, 2) for b in (1, 2)}
    weights = inverse_density_weights(crossfit, grid, split)
    return report, first, ufa_fit(panel, grid, config, init=first,
                                  weights=weights.w), weights


class TestFitPanel:
    @pytest.mark.parametrize("rank", ["auto", 2])
    def test_matches_the_chain_written_out(self, rank):
        panel = gen_dgp(40, 40, [15, 1]).panel
        config = EstimatorConfig(rank=rank)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for weighted in (False, True):
                fit = fit_panel(panel, GRID, config, weighted=weighted)
                report, first, est, weights = _chain_written_out(panel, GRID, config,
                                                                 weighted)
                assert fit.report.r_hat == report.r_hat == 1
                assert np.array_equal(fit.report.eigenvalues, report.eigenvalues)
                for got, want in ((fit.ufa, first), (fit.estimate, est)):
                    assert got.rank == (1 if rank == "auto" else rank)
                    assert np.array_equal(got.factors, want.factors)
                    assert np.array_equal(got.loadings, want.loadings)
                if weighted:
                    assert np.array_equal(fit.weights.w, weights.w)
                else:
                    assert fit.estimate is fit.ufa and fit.weights is None

    def test_zero_estimated_rank_raises(self):
        panel = gen_dgp(16, 16, [5]).panel
        with pytest.raises(UfmError, match="estimated rank is 0; nothing to fit"):
            fit_panel(panel, GRID, EstimatorConfig(rank="auto"), threshold=1e9)

    def test_fixed_rank_ignores_the_estimate(self):
        panel = gen_dgp(16, 16, [5]).panel
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fit = fit_panel(panel, GRID, EstimatorConfig(rank=1), threshold=1e9,
                            weighted=False)
        assert fit.report.r_hat == 0
        assert fit.estimate.rank == 1

    def test_penalty_reaches_every_profile(self, monkeypatch):
        seen = []

        def recording_pel_fit(panel, tau, penalty_const, *args, **kwargs):
            seen.append((panel.n_rows, penalty_const))
            return pel_fit(panel, tau, penalty_const, *args, **kwargs)

        monkeypatch.setattr(ranksel, "pel_fit", recording_pel_fit)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fit_panel(gen_dgp(16, 16, [5]).panel, make_quantile_grid(3, 0.04),
                      EstimatorConfig(rank=1), penalty_const=0.5)
        # the full panel and both 8-row halves, each at every level
        assert sorted({n for n, _ in seen}) == [8, 16]
        assert len(seen) == 9
        assert {c for _, c in seen} == {0.5}

    def test_fixed_rank_too_large_is_named_before_profiling(self, monkeypatch):
        def no_profile(*args, **kwargs):
            raise AssertionError("the PEL profile started")

        monkeypatch.setattr(idw, "pel_profile", no_profile)
        with pytest.raises(RankTooLargeError, match="rank 50 too large for a 16x16 panel"):
            fit_panel(gen_dgp(16, 16, [5]).panel, GRID, EstimatorConfig(rank=50))


class TestIndependenceStructure:
    @pytest.mark.parametrize("a,b", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_quadrant_weights_never_read_own_quadrant(self, a, b, monkeypatch):
        monkeypatch.setattr(ufa, "_MAX_SWEEPS", 3)
        dgp = gen_dgp(8, 8, [14, a, b])
        grid = make_quantile_grid(9, 0.04)
        # each fit derives its box from the cells it reads; those reads must
        # go through the tracer too
        config = EstimatorConfig(rank=1).with_bandwidth_for(dgp.panel)
        traced = TracingPanel.wrap(dgp.panel)
        split = split_panel(traced)
        halves = FitOnRead(lambda c: _half_factors(traced, grid, config, split.rows(c)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            quadrant_crossfit(traced, grid, config, split, halves, a, b)
        quadrant = {(int(i), int(j))
                    for i in split.rows(a) for j in split.cols(b)}
        assert traced.accessed, "tracing recorded no reads at all"
        assert not (traced.accessed & quadrant)

    def test_raw_weights_match_all_rows_reference(self, monkeypatch):
        # reference: loading tables fitted on all N rows, as the estimator
        # once did, restricted to each quadrant's rows afterwards
        monkeypatch.setattr(ufa, "_MAX_SWEEPS", 3)
        dgp = gen_dgp(10, 12, [14, 9])
        grid = make_quantile_grid(9, 0.04)
        config = EstimatorConfig(rank=1).with_bandwidth_for(dgp.panel)
        split = split_panel(dgp.panel)
        levels = grid.all_stencil_levels()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            raw = raw_inverse_density(crossfit_estimates(dgp.panel, grid, config, split),
                                      grid, split)
            for a in (1, 2):
                f_half = _half_factors(dgp.panel, grid, config, split.rows(3 - a))
                for b in (1, 2):
                    table = _loading_table(dgp.panel, config, f_half, np.arange(10),
                                           split.cols(3 - b), levels)[:, split.rows(a)]
                    block = np.ix_(split.rows(a), split.cols(b))
                    for m in range(grid.m_count):
                        idx = np.searchsorted(levels, grid.stencil_levels(m))
                        deriv = fpdf_derivative(table[idx], grid.shift, grid.modes[m])
                        ref = deriv @ f_half[split.cols(b)].T
                        assert np.abs(raw[m][block] - ref).max() \
                            <= 1e-12 * np.abs(ref).max()
