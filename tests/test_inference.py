import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ufm.errors import SingularPhiError
from ufm.idw import WeightTensor, fit_panel
from ufm.inference import (
    CovariancePack,
    mean_loadings,
    plugin_covariances,
    standard_errors,
)
from ufm.panel import (
    EstimatorConfig,
    FactorEstimate,
    PanelMatrix,
    QuantileGrid,
    make_quantile_grid,
    single_level_grid,
)
from ufm.simlab import gen_dgp


def _orthonormal_factors(rng, t, r):
    q, _ = np.linalg.qr(rng.normal(size=(t, r)))
    return np.sqrt(t) * q


def _make_estimate(rng, m, n, t, r):
    f = _orthonormal_factors(rng, t, r)
    lam = rng.normal(size=(m, n, r))
    return FactorEstimate(f, lam, np.arange(r, 0, -1.0))


def _brute_force_covs(panel, est, w, mean_resid, taus):
    m, n, r = est.loadings.shape
    t = est.factors.shape[0]
    phi = np.zeros((r, r))
    for mi in range(m):
        for i in range(n):
            phi += np.outer(est.loadings[mi, i], est.loadings[mi, i])
    phi /= m * n
    sigma_f = np.zeros((t, r, r))
    for s in range(t):
        for mi in range(m):
            for mj in range(m):
                kappa = min(taus[mi], taus[mj]) - taus[mi] * taus[mj]
                for i in range(n):
                    sigma_f[s] += (kappa * w[mi, i, s] * w[mj, i, s]
                                   * np.outer(est.loadings[mi, i], est.loadings[mj, i]))
        sigma_f[s] /= m * m * n
    sigma_load = np.zeros((m, n, r, r))
    for mi in range(m):
        for i in range(n):
            for s in range(t):
                sigma_load[mi, i] += (w[mi, i, s] ** 2
                                      * np.outer(est.factors[s], est.factors[s]))
            sigma_load[mi, i] *= taus[mi] * (1 - taus[mi]) / t
    sigma_mean = np.zeros((n, r, r))
    for i in range(n):
        for s in range(t):
            sigma_mean[i] += mean_resid[i, s] ** 2 * np.outer(est.factors[s],
                                                              est.factors[s])
        sigma_mean[i] /= t
    return phi, sigma_f, sigma_load, sigma_mean


class TestMeanLoadings:
    def test_exact_projection(self, rng):
        t, n, r = 14, 9, 2
        f = _orthonormal_factors(rng, t, r)
        lam_bar = rng.normal(size=(n, r))
        panel = PanelMatrix.from_values(lam_bar @ f.T)
        est = FactorEstimate(f, np.zeros((1, n, r)), np.array([1.0, 0.5]))
        mean = mean_loadings(panel, est)
        assert np.abs(mean.lam_bar - lam_bar).max() <= 1e-12
        assert np.abs(mean.residuals).max() <= 1e-12

    def test_constant_factor_gives_row_means(self, rng):
        n, t = 7, 11
        y = rng.normal(size=(n, t))
        est = FactorEstimate(np.ones((t, 1)), np.zeros((1, n, 1)), np.array([1.0]))
        mean = mean_loadings(PanelMatrix.from_values(y), est)
        assert np.allclose(mean.lam_bar[:, 0], y.mean(axis=1), atol=1e-12)

    def test_paper_dgp_mean_loading_small(self):
        dgp = gen_dgp(100, 100, [41, 0])
        grid = make_quantile_grid(9, 0.04)
        config = EstimatorConfig(rank=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            est = fit_panel(dgp.panel, grid, config, weighted=False).estimate
        mean = mean_loadings(dgp.panel, est)
        mean_scale = np.linalg.norm(mean.lam_bar) / np.sqrt(100)
        level_scale = max(np.linalg.norm(est.loadings[m]) / np.sqrt(100)
                          for m in range(9))
        # the true mean loading is ~0.015 here; the estimate is dominated by
        # its own 1/sqrt(T) sampling noise, which floors the ratio near 0.11
        assert mean_scale <= 0.15 * level_scale


class TestPluginCovariances:
    def test_matches_brute_force(self, rng):
        m, n, t, r = 3, 6, 8, 2
        grid = make_quantile_grid(m, 0.05)
        est = _make_estimate(rng, m, n, t, r)
        y = rng.normal(size=(n, t))
        panel = PanelMatrix.from_values(y)
        w = rng.uniform(0.5, 2.0, size=(m, n, t))
        weights = WeightTensor(w, clip_lo=0.4, clip_hi=2.5)
        mean = mean_loadings(panel, est)
        covs = plugin_covariances(panel, est, weights, mean, grid)
        phi, sigma_f, sigma_load, sigma_mean = _brute_force_covs(
            panel, est, w, mean.residuals, grid.levels)
        assert np.abs(covs.phi - phi).max() <= 1e-12
        assert np.abs(covs.sigma_f - sigma_f).max() <= 1e-12
        assert np.abs(covs.sigma_load - sigma_load).max() <= 1e-12
        assert np.abs(covs.sigma_mean - sigma_mean).max() <= 1e-12

    def test_symmetry_and_psd(self, rng):
        m, n, t, r = 2, 5, 7, 2
        grid = make_quantile_grid(m, 0.05)
        est = _make_estimate(rng, m, n, t, r)
        panel = PanelMatrix.from_values(rng.normal(size=(n, t)))
        weights = WeightTensor(rng.uniform(0.5, 2, (m, n, t)), 0.4, 2.1)
        covs = plugin_covariances(panel, est, weights, mean_loadings(panel, est), grid)
        assert np.abs(covs.phi - covs.phi.T).max() <= 1e-10
        assert np.abs(covs.sigma_f - covs.sigma_f.transpose(0, 2, 1)).max() <= 1e-10
        assert np.linalg.eigvalsh(covs.phi)[0] >= -1e-12

    def test_trivial_loading_covariance(self):
        # M=1, tau=0.5, unit weights, constant unit factor: 0.25 exactly
        n, t = 4, 10
        grid = make_quantile_grid(1, 0.1)
        est = FactorEstimate(np.ones((t, 1)), np.full((1, n, 1), 1.0),
                             np.array([1.0]))
        panel = PanelMatrix.from_values(np.zeros((n, t)) + 1.0)
        weights = WeightTensor(np.ones((1, n, t)), 1.0, 1.0)
        covs = plugin_covariances(panel, est, weights, mean_loadings(panel, est), grid)
        assert np.allclose(covs.sigma_load, 0.25, atol=1e-14)
        assert np.allclose(covs.phi, 1.0, atol=1e-14)

    def test_singular_phi_raises(self, rng):
        m, n, t = 2, 5, 7
        grid = make_quantile_grid(m, 0.05)
        f = _orthonormal_factors(rng, t, 2)
        lam = np.zeros((m, n, 2))
        lam[:, :, 0] = rng.normal(size=(m, n))  # second column identically zero
        est = FactorEstimate(f, lam, np.array([1.0, 0.5]))
        panel = PanelMatrix.from_values(rng.normal(size=(n, t)))
        weights = WeightTensor(np.ones((m, n, t)), 1.0, 1.0)
        with pytest.raises(SingularPhiError):
            plugin_covariances(panel, est, weights, mean_loadings(panel, est), grid)


def _spd(rng, r, count=None):
    """Random symmetric positive definite r x r matrices, with off-diagonal terms."""
    shape = (r, r) if count is None else (count, r, r)
    a = rng.normal(size=shape)
    return a @ np.swapaxes(a, -1, -2) + 0.5 * np.eye(r)


def _scalar_reference(est, covs, tau):
    """The plug-in formulas one cell at a time, with an explicit inverse."""
    m_count, n, r = est.loadings.shape
    f = est.factors
    t_len = f.shape[0]
    phi_inv = np.linalg.inv(covs.phi)
    m = int(np.flatnonzero(covs.grid.levels == tau)[0])
    ref = {"factor": np.empty((t_len, r)), "loading": np.empty((m_count, n, r)),
           "mean_loading": np.empty((n, r)), "common": np.empty((n, t_len)),
           "mean_common": np.empty((n, t_len))}
    for t in range(t_len):
        ref["factor"][t] = np.sqrt(np.diag(phi_inv @ covs.sigma_f[t] @ phi_inv) / n)
    for i in range(n):
        for k in range(m_count):
            ref["loading"][k, i] = np.sqrt(np.diag(covs.sigma_load[k, i]) / t_len)
        ref["mean_loading"][i] = np.sqrt(np.diag(covs.sigma_mean[i]) / t_len)
        for t in range(t_len):
            for key, lam, sigma in (("common", est.loadings[m, i], covs.sigma_load[m, i]),
                                    ("mean_common", covs.lam_bar[i], covs.sigma_mean[i])):
                var = (lam @ phi_inv @ covs.sigma_f[t] @ phi_inv @ lam / n
                       + f[t] @ sigma @ f[t] / t_len)
                ref[key][i, t] = np.sqrt(var)
    return ref


class TestStandardErrors:
    def _unit_pack(self, n, t, sigma_f_scalar):
        return CovariancePack(
            phi=np.array([[1.0]]),
            sigma_f=np.full((t, 1, 1), sigma_f_scalar),
            sigma_load=np.full((1, n, 1, 1), 0.25),
            sigma_mean=np.full((n, 1, 1), 0.09),
            grid=single_level_grid(0.5, 0.04),
            lam_bar=np.full((n, 1), 2.0),
        )

    def test_factor_se_scalar_algebra(self):
        n, t = 50, 20
        est = FactorEstimate(np.ones((t, 1)), np.ones((1, n, 1)), np.array([1.0]))
        covs = self._unit_pack(n, t, 2.0)
        se = standard_errors(est, covs)
        assert se.factor.shape == (t, 1)
        assert se.factor[3, 0] == pytest.approx(np.sqrt(2.0 / n))
        assert se.common is None

    def test_loading_and_mean_targets(self):
        n, t = 8, 25
        est = FactorEstimate(np.ones((t, 1)), np.ones((1, n, 1)), np.array([1.0]))
        covs = self._unit_pack(n, t, 1.0)
        se = standard_errors(est, covs)
        assert se.loading.shape == (1, n, 1)
        assert se.loading[0, 2, 0] == pytest.approx(np.sqrt(0.25 / t))
        assert se.mean_loading.shape == (n, 1)
        assert se.mean_loading[2, 0] == pytest.approx(np.sqrt(0.09 / t))

    def test_common_component_combines_terms(self):
        n, t = 50, 40
        est = FactorEstimate(np.ones((t, 1)), np.full((1, n, 1), 3.0),
                             np.array([1.0]))
        covs = self._unit_pack(n, t, 2.0)
        se = standard_errors(est, covs, tau=0.5)
        assert se.common.shape == se.mean_common.shape == (n, t)
        assert se.common[1, 5] == pytest.approx(np.sqrt(9.0 * 2.0 / n + 0.25 / t))
        assert se.mean_common[1, 5] == pytest.approx(np.sqrt(4.0 * 2.0 / n + 0.09 / t))

    def test_common_needs_an_estimated_level(self):
        est = FactorEstimate(np.ones((4, 1)), np.ones((1, 3, 1)), np.array([1.0]))
        covs = self._unit_pack(3, 4, 1.0)
        with pytest.raises(ValueError):
            standard_errors(est, covs, tau=0.500004)

    def test_factor_se_scales_with_n(self, rng):
        m, t, r = 2, 9, 1
        grid = make_quantile_grid(m, 0.05)
        for n, ratio in ((20, 1.0), (80, 0.5)):
            f = _orthonormal_factors(np.random.default_rng(0), t, r)
            lam = np.ones((m, n, r))
            est = FactorEstimate(f, lam, np.array([1.0]))
            panel = PanelMatrix.from_values(np.ones((n, t)))
            weights = WeightTensor(np.ones((m, n, t)), 1.0, 1.0)
            covs = plugin_covariances(panel, est, weights,
                                      mean_loadings(panel, est), grid)
            se = standard_errors(est, covs).factor[0, 0]
            if n == 20:
                base = se
            else:
                assert se == pytest.approx(base * ratio, rel=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(r=st.sampled_from([1, 2, 3]), m=st.integers(1, 3), n=st.integers(1, 6),
           t=st.integers(1, 6), level=st.integers(0, 2),
           seed=st.integers(0, 2**32 - 1))
    def test_arrays_match_scalar_reference(self, r, m, n, t, level, seed):
        # a non-diagonal Phi and full Sigma stacks: the only check of the
        # off-diagonal algebra, since every pipeline fit has r = 1
        rng = np.random.default_rng(seed)
        levels = np.sort(rng.uniform(0.05, 0.95, size=m))
        covs = CovariancePack(phi=_spd(rng, r), sigma_f=_spd(rng, r, t),
                              sigma_load=_spd(rng, r, m * n).reshape(m, n, r, r),
                              sigma_mean=_spd(rng, r, n),
                              grid=QuantileGrid(levels, shift=0.01),
                              lam_bar=rng.normal(size=(n, r)))
        est = FactorEstimate(rng.normal(size=(t, r)), rng.normal(size=(m, n, r)),
                             np.arange(r, 0, -1.0))
        tau = levels[min(level, m - 1)]
        se = standard_errors(est, covs, tau)
        for name, want in _scalar_reference(est, covs, tau).items():
            got = getattr(se, name)
            assert got.shape == want.shape, name
            assert (np.abs(got - want) <= 1e-12 * np.abs(want)).all(), name
