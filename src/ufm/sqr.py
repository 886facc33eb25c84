"""Box-constrained weighted smoothed quantile regression on a shared design.

One entry point, :func:`solve_sqr_batch`, runs many independent problems
on one (n, r) design in lockstep with numpy masks. Every factor update,
loading update, and cross-fit regression reduces to this solver. The
problems never couple, but a sub-batch repeats a batch's answers only to
rounding (about 1e-15), not bit for bit.

The iteration is damped Newton on the smoothed check loss with the exact
gradient K((x'theta - y)/h) - tau and Hessian k(.)/h weights. High-order
kernels make the Hessian sign-indefinite, so any step whose Hessian is not
positive definite falls back to steepest descent; all steps are projected
onto the box and accepted by Armijo backtracking on the closed-form
objective, which guarantees the objective never increases.

Each point gets one kernel pass: evaluating a trial's objective also gives
its gradient and curvature terms, which the accepted trial carries into
the next Newton step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError
from .kernels import SmoothKernel, _kernel_terms

_ARMIJO = 1e-4
_MAX_BACKTRACK = 60
_BLOCK = 16384       # elements per row block of one kernel pass
_INNER_TOL = 1e-7    # projected-gradient stationarity that ends a problem
_MAX_ITERS = 200     # Newton steps before a problem is left unconverged


@dataclass
class BatchResult:
    theta: np.ndarray          # (P, r)
    converged: np.ndarray      # (P,) bool
    n_iters: int
    regularized: np.ndarray    # (P,) bool: Hessian needed a ridge at least once


def _objective(kernel, h, a_scaled, tau, wn):
    """Mean weighted smoothed check loss per row, a_scaled = residual/h (P, n),
    with the per-observation gradient term K - tau and curvature term k/h
    from the same kernel pass. Blocks of whole rows keep temporaries small."""
    p_count, n = a_scaled.shape
    values = np.empty(p_count)
    g_obs = np.empty((p_count, n))
    c_obs = np.empty((p_count, n))
    step = max(1, _BLOCK // n)
    for start in range(0, p_count, step):
        rows = slice(start, start + step)
        a = a_scaled[rows]
        cdf, j1, dens = _kernel_terms(kernel, a, j1=True, dens=True)
        g = np.subtract(cdf, tau[rows], out=g_obs[rows])
        np.divide(dens, h, out=c_obs[rows])
        values[rows] = np.mean(wn[rows] * (h * (a * g - j1)), axis=-1)
    return values, g_obs, c_obs


def solve_sqr_batch(
    y: np.ndarray,
    x: np.ndarray,
    tau: np.ndarray,
    w: np.ndarray,
    kernel: SmoothKernel,
    h: float,
    box: tuple[float, float],
    init: np.ndarray,
) -> BatchResult:
    """Solve P independent problems of n observations each on one design.

    ``y``/``tau``/``w`` broadcast to (P, n) and ``x`` is the shared (n, r)
    design. Problems never couple: each one's iterates depend only on its
    own rows. A sub-batch reproduces the same answers only to about 1e-15,
    because BLAS rounds the design products differently for another row
    count.
    """
    y = np.asarray(y, dtype=float)
    p_count, n = y.shape
    if x.ndim != 2 or x.shape[0] != n:
        raise ValueError(f"x must be one shared ({n}, r) design")
    r = x.shape[1]
    lo, hi = box
    theta = np.clip(np.array(init, dtype=float), lo, hi)
    tau = np.broadcast_to(np.asarray(tau, dtype=float), (p_count, n))
    w = np.asarray(w, dtype=float)
    if np.any(w <= 0):
        raise ValueError("weights must be positive")
    if w.ndim == 2:
        wn = w / np.mean(w, axis=-1, keepdims=True)
    else:
        wn = np.broadcast_to(w / w.mean(), (p_count, n))

    converged = np.zeros(p_count, dtype=bool)
    regularized = np.zeros(p_count, dtype=bool)
    eye = np.eye(r)
    # per-observation gradient and curvature terms at each problem's iterate
    values, g_all, c_all = _objective(kernel, h, (theta @ x.T - y) / h, tau, wn)
    if not np.isfinite(values).all():
        raise NonFiniteError("non-finite objective at the initial point")

    it = 0
    alive = np.arange(p_count)
    for it in range(1, _MAX_ITERS + 1):
        th = theta[alive]
        grad = (wn[alive] * g_all[alive]) @ x / n
        if not np.isfinite(grad).all():
            raise NonFiniteError("non-finite gradient")

        station = np.abs(th - np.clip(th - grad, lo, hi)).max(axis=1)
        done = station <= _INNER_TOL
        converged[alive[done]] = True
        if done.all():
            alive = alive[:0]
            break
        keep = ~done
        alive = alive[keep]
        th, grad = th[keep], grad[keep]
        ys, ts, ws = y[alive], tau[alive], wn[alive]
        vals = values[alive]

        hess = np.einsum("pn,nr,ns->prs", ws * c_all[alive], x, x) / n
        eigs = np.linalg.eigvalsh(hess)
        min_eig, max_eig = eigs[:, 0], eigs[:, -1]
        pos_def = min_eig > 1e-12 * np.maximum(1.0, np.abs(max_eig))
        needs_ridge = pos_def & (min_eig < 1e-10 * np.maximum(1.0, max_eig))
        regularized[alive] |= needs_ridge
        hess_solve = hess + 1e-8 * eye * needs_ridge[:, None, None]
        # keep the batched solve well-posed; non-Newton rows are replaced below
        hess_solve = np.where(pos_def[:, None, None], hess_solve, eye)
        direction = np.linalg.solve(hess_solve, -grad[:, :, None])[:, :, 0]
        descent = np.einsum("pr,pr->p", grad, direction) < 0
        direction = np.where((pos_def & descent)[:, None], direction, -grad)

        # projected backtracking on the closed-form objective
        step = np.ones(alive.size)
        open_idx = np.arange(alive.size)
        new_theta = th.copy()
        new_values = vals.copy()
        for _ in range(_MAX_BACKTRACK):
            sub = open_idx
            trial = np.clip(th[sub] + step[sub, None] * direction[sub], lo, hi)
            a_try = (trial @ x.T - ys[sub]) / h
            v_try, g_try, c_try = _objective(kernel, h, a_try, ts[sub], ws[sub])
            gain = np.einsum("pr,pr->p", grad[sub], trial - th[sub])
            ok = np.isfinite(v_try) & (v_try <= vals[sub] + _ARMIJO * np.minimum(gain, 0.0))
            new_theta[sub[ok]] = trial[ok]
            new_values[sub[ok]] = v_try[ok]
            g_all[alive[sub[ok]]] = g_try[ok]
            c_all[alive[sub[ok]]] = c_try[ok]
            open_idx = sub[~ok]
            if open_idx.size == 0:
                break
            step[open_idx] *= 0.5
            scale = 1.0 + np.abs(th[open_idx]).max(axis=1)
            stalled = np.abs(step[open_idx, None] * direction[open_idx]).max(axis=1) <= 1e-16 * scale
            if stalled.any():
                # cannot decrease further in floating point: stop these here
                converged[alive[open_idx[stalled]]] = True
                open_idx = open_idx[~stalled]
                if open_idx.size == 0:
                    break
        theta[alive] = new_theta
        values[alive] = new_values
        alive = alive[~converged[alive]]
        if alive.size == 0:
            break

    return BatchResult(theta=theta, converged=converged, n_iters=it,
                       regularized=regularized)

