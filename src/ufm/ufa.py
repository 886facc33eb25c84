"""Alternating smoothed-quantile-regression factor estimation.

Sweeps alternate between (1.1) one box-constrained solve per time period,
pooling all rows and quantile levels, and (1.2) one solve per (row, level)
pair against the freshly updated factors. Updates are Jacobi style: every
factor solve in a sweep sees the previous sweep's loadings, which keeps
sweeps deterministic under any parallel schedule. Convergence is declared
on the max absolute change of the fitted quantile surfaces.

The normalization step makes the factor Gram orthonormal and the averaged
loading Gram diagonal by eigendecomposing the pooled common-component
Gram; it leaves the fitted surfaces themselves untouched.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import (
    EigenFailureError,
    NearDegenerateEigsWarning,
    NoConvergeWarning,
    RankTooLargeError,
)
from .kernels import gaussian_kernel
from .panel import EstimatorConfig, FactorEstimate, PanelMatrix, QuantileGrid
from .sqr import solve_sqr_batch


def _fix_column_signs(f: np.ndarray) -> np.ndarray:
    """Flip eigenvector columns so each column sum is nonnegative."""
    sums = f.sum(axis=0)
    flip = sums < 0
    tied = sums == 0
    if tied.any():
        lead = f[np.abs(f).argmax(axis=0), np.arange(f.shape[1])]
        flip = np.where(tied, lead < 0, flip)
    return f * np.where(flip, -1.0, 1.0)


def normalize(loadings, factors) -> FactorEstimate:
    """Rotate (loadings, factors) into the diagonal representation.

    Computes L(tau_m) = Lambda_temp(tau_m) F_temp', eigendecomposes the
    pooled Gram sum_m L'L/(MNT), and returns sqrt(T) times the top-r
    eigenvectors with loadings L(tau_m) F / T. The common components
    L(tau_m) are reproduced exactly because the top eigenspace equals the
    column space of F_temp.
    """
    lam = np.asarray(loadings, dtype=float)
    f_temp = np.asarray(factors, dtype=float)
    t, r = f_temp.shape
    m_count = lam.shape[0]
    n = lam.shape[1]
    common = np.einsum("mnr,tr->mnt", lam, f_temp)
    flat = common.reshape(m_count * n, t)
    gram = flat.T @ flat / (m_count * n * t)
    try:
        eigvals, eigvecs = np.linalg.eigh(gram)
    except np.linalg.LinAlgError as exc:
        raise EigenFailureError("eigendecomposition of the pooled Gram failed") from exc
    top = eigvals[::-1][:r]
    vecs = eigvecs[:, ::-1][:, :r]
    if r > 1 and np.min(-np.diff(top)) < 1e-10:
        warnings.warn("near-degenerate eigenvalues; factor order/sign ambiguous",
                      NearDegenerateEigsWarning, stacklevel=2)
    f_new = _fix_column_signs(np.sqrt(t) * vecs)
    lam_new = np.einsum("mnt,tr->mnr", common, f_new) / t
    return FactorEstimate(factors=f_new, loadings=lam_new, eigenvalues=top)


def _factor_step(y, lam, levels, w_fac, kernel, h, box, init, tol, iters):
    n_rows = y.shape[0]
    m_count = levels.size
    x = lam.reshape(m_count * n_rows, -1)
    taus = np.repeat(levels, n_rows)
    return solve_sqr_batch(np.tile(y.T, (1, m_count)), x, taus, w_fac,
                           kernel, h, box, init, tol, iters)


def _loading_step(y, f, levels, w_load, kernel, h, box, init, tol, iters):
    n_rows = y.shape[0]
    m_count = levels.size
    taus = np.repeat(levels, n_rows)[:, None]
    return solve_sqr_batch(np.tile(y, (m_count, 1)), f, taus, w_load,
                           kernel, h, box, init, tol, iters)


def ufa_fit(
    panel: PanelMatrix,
    grid: QuantileGrid,
    config: EstimatorConfig,
    init: FactorEstimate | None = None,
    weights: np.ndarray | None = None,
) -> FactorEstimate:
    """Fit factors and per-level loadings by alternating smoothed solves.

    ``weights``, when given, is an (M, N, T) tensor multiplying each
    observation's loss term; passing estimated inverse densities here turns
    this into the second stage of the weighted estimator.
    """
    config = config.resolved_for(panel)
    n, t = panel.n_rows, panel.n_cols
    m_count = grid.m_count
    if init is not None:
        r = init.rank
    elif isinstance(config.rank, int):
        r = config.rank
    else:
        raise ValueError("config.rank is 'auto'; estimate the rank first or pass an init")
    if r >= min(n, t) / 2:
        raise RankTooLargeError(f"rank {r} too large for a {n}x{t} panel")
    if init is None:
        from .ranksel import warm_start

        init = warm_start(panel, grid, r, config)
    if init.m_count != m_count or init.loadings.shape[1] != n or init.factors.shape[0] != t:
        raise ValueError("init shape does not match panel/grid")
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (m_count, n, t):
            raise ValueError(f"weights must have shape {(m_count, n, t)}")
        w_fac = weights.transpose(2, 0, 1).reshape(t, m_count * n)
        w_load = weights.reshape(m_count * n, t)
    else:
        w_fac = w_load = np.asarray(1.0)

    kernel = gaussian_kernel(config.kernel_order)
    h = config.bandwidth_h
    box = (-config.box_bound, config.box_bound)
    y = panel.values
    lam = np.array(init.loadings, dtype=float)
    f = np.array(init.factors, dtype=float)
    common = np.einsum("mnr,tr->mnt", lam, f)

    converged = False
    sweep = 0
    for sweep in range(1, config.max_outer_iters + 1):
        fac = _factor_step(y, lam, grid.levels, w_fac, kernel, h, box, f,
                           config.inner_tol, config.max_inner_iters)
        f = fac.theta
        load = _loading_step(y, f, grid.levels, w_load, kernel, h, box,
                             lam.reshape(m_count * n, r),
                             config.inner_tol, config.max_inner_iters)
        lam = load.theta.reshape(m_count, n, r)
        new_common = np.einsum("mnr,tr->mnt", lam, f)
        change = np.abs(new_common - common).max()
        common = new_common
        if change < config.outer_tol:
            converged = True
            break
    if not converged:
        warnings.warn(
            f"alternating fit stopped at {config.max_outer_iters} sweeps "
            f"(last change {change:.3g})", NoConvergeWarning, stacklevel=2)

    est = normalize(lam, f)
    return FactorEstimate(factors=est.factors, loadings=est.loadings,
                          eigenvalues=est.eigenvalues,
                          converged=converged, n_outer=sweep)
