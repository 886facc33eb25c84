import numpy as np
import pytest

from conftest import gauss_legendre_check_loss
from ufm.errors import RankTooLargeError
from ufm.idw import fit_panel
from ufm.kernels import gaussian_kernel
from ufm.panel import EstimatorConfig, FactorEstimate, PanelMatrix, make_quantile_grid
from ufm.ranksel import pel_profile, warm_start_from_profile
from ufm.ufa import _factor_step, _loading_step, normalize, parameter_box, ufa_fit

GRID = make_quantile_grid(9, 0.04)


def _noiseless_panel(rng, n=12, t=15):
    lam = rng.uniform(0.5, 2.0, size=n)
    f = rng.uniform(0.5, 2.0, size=t)
    return PanelMatrix.from_values(np.outer(lam, f)), lam, f


class TestNormalize:
    def test_reconstructs_common_components(self, rng):
        lam = rng.normal(size=(3, 6, 2))
        f = rng.normal(size=(8, 2))
        est = normalize(lam, f)
        before = np.einsum("mnr,tr->mnt", lam, f)
        after = np.einsum("mnr,tr->mnt", est.loadings, est.factors)
        assert np.abs(before - after).max() <= 1e-10
        gram = est.factors.T @ est.factors / 8
        assert np.abs(gram - np.eye(2)).max() <= 1e-12
        est.check_invariants()

    def test_idempotent_up_to_sign(self, rng):
        lam = rng.normal(size=(2, 7, 2))
        f = rng.normal(size=(9, 2))
        first = normalize(lam, f)
        second = normalize(first.loadings, first.factors)
        assert np.allclose(np.abs(first.factors), np.abs(second.factors), atol=1e-9)
        assert np.allclose(first.eigenvalues, second.eigenvalues, rtol=1e-10)

    def test_rank_one_eigenvector(self, rng):
        u = rng.normal(size=5)
        v = rng.normal(size=7)
        v = np.sqrt(7) * v / np.linalg.norm(v)  # ||v|| = sqrt(T)
        est = normalize(u[None, :, None], v[:, None])
        assert np.allclose(np.abs(est.factors[:, 0]), np.abs(v), atol=1e-10)
        assert np.allclose(np.abs(est.loadings[0, :, 0]), np.abs(u), atol=1e-10)

    def test_column_sign_convention(self, rng):
        lam = rng.normal(size=(2, 10, 3))
        f = rng.normal(size=(11, 3))
        est = normalize(lam, f)
        assert (est.factors.sum(axis=0) >= 0).all()


class TestUfaFit:
    def test_noiseless_rank_one_recovery(self, rng):
        panel, lam, f = _noiseless_panel(rng)
        config = EstimatorConfig(rank=1, bandwidth_h=1e-6)
        est = fit_panel(panel, GRID, config, weighted=False).estimate
        common = est.common_components()
        assert np.abs(common - panel.values[None]).max() <= 1e-4
        est.check_invariants()

    def test_deterministic_given_inputs(self, rng):
        panel, *_ = _noiseless_panel(rng, 10, 11)
        noisy = PanelMatrix.from_values(
            panel.values + 0.3 * np.random.default_rng(5).normal(size=(10, 11)))
        config = EstimatorConfig(rank=1)
        warm = warm_start_from_profile(pel_profile(noisy, GRID), 1)
        a = ufa_fit(noisy, GRID, config, warm)
        b = ufa_fit(noisy, GRID, config, warm)
        assert np.abs(a.factors - b.factors).max() <= 1e-12
        assert np.abs(a.loadings - b.loadings).max() <= 1e-12

    def test_rank_too_large(self, rng):
        panel, *_ = _noiseless_panel(rng, 8, 8)
        with pytest.raises(RankTooLargeError):
            fit_panel(panel, GRID, EstimatorConfig(rank=4), weighted=False)

    def test_unit_weights_match_unweighted(self, rng):
        panel, *_ = _noiseless_panel(rng, 10, 11)
        noisy = PanelMatrix.from_values(
            panel.values + 0.2 * np.random.default_rng(6).normal(size=(10, 11)))
        config = EstimatorConfig(rank=1)
        warm = warm_start_from_profile(pel_profile(noisy, GRID), 1)
        plain = ufa_fit(noisy, GRID, config, warm)
        ones = ufa_fit(noisy, GRID, config, warm, weights=np.ones((9, 10, 11)))
        assert np.array_equal(plain.factors, ones.factors)
        assert np.array_equal(plain.loadings, ones.loadings)

    def test_init_is_clipped_to_the_box(self, rng):
        panel, *_ = _noiseless_panel(rng, 10, 11)
        noisy = PanelMatrix.from_values(
            panel.values + 0.2 * np.random.default_rng(7).normal(size=(10, 11)))
        config = EstimatorConfig(rank=1)
        warm = warm_start_from_profile(pel_profile(noisy, GRID), 1)
        lo, hi = parameter_box(noisy.values)
        wild = np.array(warm.loadings)
        wild[4, 3, 0] = 5.0 * hi
        wild[0, 0, 0] = 5.0 * lo
        beyond = FactorEstimate(warm.factors, wild, warm.eigenvalues)
        clipped = FactorEstimate(warm.factors, np.clip(wild, lo, hi), warm.eigenvalues)
        a = ufa_fit(noisy, GRID, config, beyond)
        b = ufa_fit(noisy, GRID, config, clipped)
        assert np.array_equal(a.factors, b.factors)
        assert np.array_equal(a.loadings, b.loadings)


class TestObjectiveMonotonicity:
    def test_half_steps_never_increase_quadrature_objective(self):
        rng = np.random.default_rng(99)
        n = t = 10
        y = np.outer(rng.uniform(0.5, 2, n), rng.uniform(0.5, 2, t))
        y += 0.3 * rng.normal(size=(n, t))
        grid = make_quantile_grid(3, 0.04)
        kernel = gaussian_kernel(14)
        h, box = 0.6, (-20.0, 20.0)
        lam = np.tile(y.mean(axis=1)[None, :, None], (3, 1, 1))
        f = np.ones((t, 1))

        def quad_objective(lam_cur, f_cur):
            total = 0.0
            for m, tau in enumerate(grid.levels):
                fitted = lam_cur[m] @ f_cur.T
                total += gauss_legendre_check_loss(
                    kernel.poly_coeffs, h, tau, fitted, y).sum()
            return total / (3 * n * t)

        values = [quad_objective(lam, f)]
        for _ in range(4):
            f = _factor_step(y, lam, grid.levels, np.asarray(1.0), kernel, h, box,
                             f).theta
            values.append(quad_objective(lam, f))
            lam = _loading_step(y, f, grid.levels, np.asarray(1.0), kernel, h, box,
                                lam.reshape(3 * n, 1)).theta.reshape(3, n, 1)
            values.append(quad_objective(lam, f))
        diffs = np.diff(values)
        assert (diffs <= 1e-4).all()

    def test_normalization_preserves_objective(self, rng):
        lam = rng.normal(size=(3, 8, 2))
        f = rng.normal(size=(10, 2))
        est = normalize(lam, f)
        before = np.einsum("mnr,tr->mnt", lam, f)
        after = est.common_components()
        assert np.abs(before - after).max() <= 1e-8
