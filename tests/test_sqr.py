import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ufm.sqr as sqr
from conftest import gauss_legendre_check_loss
from ufm.errors import NonFiniteError
from ufm.kernels import gaussian_kernel, smoothed_grad, smoothed_hess
from ufm.sqr import solve_sqr_batch

K2 = gaussian_kernel(2)
K14 = gaussian_kernel(14)
BOX = (-50.0, 50.0)


def _solve_one(y, x, tau, kernel, h, box, init, w=None):
    """One problem through the batch solver; ``w`` defaults to unit weights."""
    y = np.asarray(y, dtype=float)
    w = np.ones(y.size) if w is None else np.asarray(w, dtype=float)
    res = solve_sqr_batch(y[None, :], np.asarray(x, dtype=float), np.full((1, 1), tau),
                          w[None, :], kernel, h, box, np.asarray(init, dtype=float)[None, :])
    return res.theta[0]


class TestSolveSqr:
    def test_smoothed_median(self):
        theta = _solve_one([1, 2, 3, 4, 5], np.ones((5, 1)), 0.5, K2, 0.1, BOX, np.zeros(1))
        assert abs(theta[0] - 3.0) <= 0.05

    @pytest.mark.parametrize("tau", [0.2, 0.5, 0.8])
    def test_exact_fit_constant_response(self, tau):
        theta = _solve_one(np.full(12, 1.7), np.ones((12, 1)), tau, K14, 1e-7, BOX,
                           np.array([0.4]))
        assert abs(theta[0] - 1.7) <= 1e-6

    def test_weight_scaling_invariance(self, rng):
        n = 60
        y = rng.normal(size=n)
        x = rng.normal(size=(n, 2))
        w = rng.uniform(0.3, 3.0, size=n)
        base = _solve_one(y, x, 0.4, K14, 0.4, BOX, np.zeros(2), w)
        scaled = _solve_one(y, x, 0.4, K14, 0.4, BOX, np.zeros(2), 11.3 * w)
        assert np.abs(base - scaled).max() <= 1e-8

    def test_monotone_response_shift(self, rng):
        n = 50
        y = rng.normal(size=n)
        x = np.ones((n, 1))
        base = _solve_one(y, x, 0.7, K14, 0.4, BOX, np.zeros(1))
        shifted = _solve_one(y + 0.37, x, 0.7, K14, 0.4, BOX, np.zeros(1))
        assert abs(shifted[0] - base[0] - 0.37) <= 1e-6

    def test_order_invariance(self, rng):
        n = 40
        y = rng.normal(size=n)
        x = rng.normal(size=(n, 2))
        w = rng.uniform(0.5, 2.0, size=n)
        base = _solve_one(y, x, 0.3, K14, 0.5, BOX, np.zeros(2), w)
        perm = rng.permutation(n)
        again = _solve_one(y[perm], x[perm], 0.3, K14, 0.5, BOX, np.zeros(2), w[perm])
        # a permutation reorders the sums over observations, so only rounding moves
        assert np.abs(base - again).max() <= 1e-12

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            _solve_one([1.0, np.nan, 2.0], np.ones((3, 1)), 0.5, K2, 0.3, BOX, np.zeros(1))

    def test_box_projection_respected(self, rng):
        y = rng.normal(size=30) + 10.0
        theta = _solve_one(y, np.ones((30, 1)), 0.5, K2, 0.3, (-1.0, 1.0), np.zeros(1))
        # the unconstrained median sits near 10, so the solve ends on the upper face
        assert -1.0 <= theta[0] <= 1.0
        assert theta[0] == 1.0


def _lattice_minimum(coeffs, h, tau, y, x, w, box, step_coarse=0.1, step_fine=0.01):
    """Two-stage brute-force lattice minimizer of the quadrature objective."""
    r = x.shape[1]

    def total(theta_grid):
        out = np.zeros(theta_grid.shape[0])
        for start in range(0, theta_grid.shape[0], 256):
            block = theta_grid[start:start + 256]
            c = block @ x.T
            vals = gauss_legendre_check_loss(coeffs, h, tau, c, y[None, :])
            out[start:start + 256] = (vals * w).mean(axis=1)
        return out

    axes = [np.arange(box[0], box[1] + 1e-12, step_coarse) for _ in range(r)]
    coarse = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, r)
    best = coarse[np.argmin(total(coarse))]
    axes = [np.arange(b - 1.5 * step_coarse, b + 1.5 * step_coarse + 1e-12, step_fine)
            for b in best]
    fine = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, r)
    return fine[np.argmin(total(fine))]


class TestLatticeOracle:
    @pytest.mark.parametrize("kernel,order_seed", [(K2, 1), (K14, 2)])
    def test_r2_matches_brute_force(self, kernel, order_seed):
        rng = np.random.default_rng(order_seed)
        n = 200
        x = rng.normal(size=(n, 2))
        theta_true = rng.uniform(-1.0, 1.0, size=2)
        y = x @ theta_true + 0.5 * rng.normal(size=n)
        w = rng.uniform(0.5, 2.0, size=n)
        tau, h = 0.35, 0.45
        theta = _solve_one(y, x, tau, kernel, h, (-2.0, 2.0), np.zeros(2), w)
        ref = _lattice_minimum(kernel.poly_coeffs, h, tau, y, x, w, (-2.0, 2.0))
        assert np.abs(theta - ref).max() <= 1e-2 + 1e-9


class TestBatchSolver:
    def test_batch_matches_single_solves(self, rng):
        p, n = 6, 30
        y = rng.normal(size=(p, n))
        x = rng.normal(size=(n, 2))
        w = rng.uniform(0.5, 2.0, size=(p, n))
        taus = np.full((p, n), 0.35)
        batch = solve_sqr_batch(y, x, taus, w, K14, 0.5, BOX, np.zeros((p, 2)))
        assert batch.converged.all()
        for j in range(p):
            single = _solve_one(y[j], x, 0.35, K14, 0.5, BOX, np.zeros(2), w[j])
            assert np.abs(single - batch.theta[j]).max() <= 1e-9

    def test_rejects_a_per_problem_design(self):
        y = np.zeros((2, 5))
        with pytest.raises(ValueError, match="shared"):
            solve_sqr_batch(y, np.ones((2, 5, 1)), 0.5, np.asarray(1.0), K2, 0.3, BOX,
                            np.zeros((2, 1)))

    def test_sub_batch_identical(self, rng):
        # the second batch spans several row blocks of the objective
        for p, n, rows in ((8, 25, slice(2, 5)), (2000, 30, slice(500, 1200))):
            y = rng.normal(size=(p, n))
            x = rng.normal(size=(n, 1))
            taus = np.full((p, 1), 0.6)
            full = solve_sqr_batch(y, x, taus, np.asarray(1.0), K14, 0.4, BOX,
                                   np.zeros((p, 1)))
            part = solve_sqr_batch(y[rows], x, taus[rows], np.asarray(1.0), K14, 0.4,
                                   BOX, np.zeros((rows.stop - rows.start, 1)))
            # problems are independent; BLAS accumulation order may differ by
            # batch shape, so equality holds to a few ulps rather than bitwise
            assert np.abs(full.theta[rows] - part.theta).max() <= 1e-12

    def test_row_blocks_change_nothing(self, rng, monkeypatch):
        p, n = 2000, 30
        assert p * n > 3 * sqr._BLOCK
        y = rng.normal(size=(p, n))
        x = rng.normal(size=(n, 1))
        taus = np.full((p, 1), 0.6)
        args = (y, x, taus, np.asarray(1.0), K14, 0.4, BOX, np.zeros((p, 1)))
        blocked = solve_sqr_batch(*args)
        monkeypatch.setattr(sqr, "_BLOCK", p * n)
        whole = solve_sqr_batch(*args)
        assert blocked.n_iters == whole.n_iters
        assert np.array_equal(blocked.theta, whole.theta)


_KERNELS = {order: gaussian_kernel(order) for order in (2, 6, 14)}


class TestObjectiveTerms:
    @settings(max_examples=60, deadline=None)
    @given(order=st.sampled_from(sorted(_KERNELS)),
           z=st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=40),
           h=st.floats(0.05, 2.0), tau=st.floats(0.01, 0.99))
    def test_terms_are_grad_and_hess(self, order, z, h, tau):
        # |z| up to 60 crosses the kernel's clamp at 40; the tiled panel
        # spans more than one row block
        kernel = _KERNELS[order]
        c = np.resize(np.array(z) * h, (sqr._BLOCK // len(z) + 2, len(z)))
        a = (c - 0.0) / h
        values, g_obs, c_obs = sqr._objective(kernel, h, a, np.full(a.shape, tau),
                                              np.ones(a.shape))
        assert np.isfinite(values).all()
        assert np.array_equal(g_obs, smoothed_grad(kernel, h, tau, c, 0.0))
        assert np.array_equal(c_obs, smoothed_hess(kernel, h, tau, c, 0.0))
