"""Box-constrained weighted smoothed quantile regression on a fixed design.

One public entry point, :func:`solve_sqr`, plus a batched core that runs
many independent small problems in lockstep with numpy masks. Every factor
update, loading update, and cross-fit regression reduces to this solver.

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

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ActiveBoxWarning, MaxItersWarning, NonFiniteError
from .kernels import SmoothKernel, _kernel_terms

_ARMIJO = 1e-4
_MAX_BACKTRACK = 60
_BLOCK = 16384       # elements per row block of one kernel pass


@dataclass(frozen=True)
class SqrObservation:
    """One weighted observation (y, x, tau) of a quantile regression."""

    y: float
    x: np.ndarray
    tau: float
    weight: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.tau < 1.0):
            raise ValueError("tau must lie in (0, 1)")
        if not (self.weight > 0.0):
            raise ValueError("weight must be positive")


@dataclass
class BatchResult:
    theta: np.ndarray          # (P, r)
    converged: np.ndarray      # (P,) bool
    n_iters: int
    regularized: np.ndarray    # (P,) bool: Hessian needed a ridge at least once
    box_active: np.ndarray     # (P,) bool: a box face is active at the solution


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


def _residuals(theta, x):
    if x.ndim == 2:
        return theta @ x.T
    return np.einsum("pnr,pr->pn", x, theta)


def _design_reduce(coef, x):
    # coef: (P, n); sum_n coef_n x_n -> (P, r)
    if x.ndim == 2:
        return coef @ x
    return np.einsum("pn,pnr->pr", coef, x)


def _design_gram(coef, x):
    # coef: (P, n); sum_n coef_n x_n x_n' -> (P, r, r)
    if x.ndim == 2:
        return np.einsum("pn,nr,ns->prs", coef, x, x)
    return np.einsum("pn,pnr,pns->prs", coef, x, x)


def _take(x, idx):
    return x if x.ndim == 2 else x[idx]


def solve_sqr_batch(
    y: np.ndarray,
    x: np.ndarray,
    tau: np.ndarray,
    w: np.ndarray,
    kernel: SmoothKernel,
    h: float,
    box: tuple[float, float],
    init: np.ndarray,
    inner_tol: float = 1e-7,
    max_iters: int = 200,
) -> BatchResult:
    """Solve P independent problems of n observations each.

    ``y``/``tau``/``w`` broadcast to (P, n); ``x`` is (P, n, r) or a shared
    (n, r) design. Problems never couple: each one's iterates depend only
    on its own rows, so solving any sub-batch reproduces the same answers.
    """
    y = np.asarray(y, dtype=float)
    p_count, n = y.shape
    r = x.shape[-1]
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
    values, g_all, c_all = _objective(kernel, h, (_residuals(theta, x) - y) / h, tau, wn)
    if not np.isfinite(values).all():
        raise NonFiniteError("non-finite objective at the initial point")

    it = 0
    alive = np.arange(p_count)
    for it in range(1, max_iters + 1):
        th = theta[alive]
        grad = _design_reduce(wn[alive] * g_all[alive], _take(x, alive)) / n
        if not np.isfinite(grad).all():
            raise NonFiniteError("non-finite gradient")

        station = np.abs(th - np.clip(th - grad, lo, hi)).max(axis=1)
        done = station <= inner_tol
        converged[alive[done]] = True
        if done.all():
            alive = alive[:0]
            break
        keep = ~done
        alive = alive[keep]
        th, grad = th[keep], grad[keep]
        xs = _take(x, alive)
        ys, ts, ws = y[alive], tau[alive], wn[alive]
        vals = values[alive]

        hess = _design_gram(ws * c_all[alive], xs) / n
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
            a_try = (_residuals(trial, _take(xs, sub)) - ys[sub]) / h
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

    box_active = (np.abs(theta - lo) < 1e-14) | (np.abs(theta - hi) < 1e-14)
    return BatchResult(theta=theta, converged=converged, n_iters=it,
                       regularized=regularized, box_active=box_active.any(axis=1))


def solve_sqr(
    obs,
    kernel: SmoothKernel,
    h: float,
    box: tuple[float, float],
    init,
    inner_tol: float = 1e-7,
    max_iters: int = 200,
) -> np.ndarray:
    """Minimize the weighted smoothed check loss over the box.

    Observations may arrive in any order: they are put into a canonical
    order internally, so the returned vector does not depend on how the
    caller enumerated them.
    """
    obs = list(obs)
    init = np.atleast_1d(np.asarray(init, dtype=float))
    r = init.size
    if len(obs) < r:
        raise ValueError(f"need at least {r} observations, got {len(obs)}")
    y = np.array([o.y for o in obs], dtype=float)
    x = np.array([np.atleast_1d(o.x) for o in obs], dtype=float)
    tau = np.array([o.tau for o in obs], dtype=float)
    w = np.array([o.weight for o in obs], dtype=float)
    if x.shape[1] != r:
        raise ValueError("init length does not match regressor dimension")
    order = np.lexsort((w, y, tau) + tuple(x[:, j] for j in range(r - 1, -1, -1)))
    y, x, tau, w = y[order], x[order], tau[order], w[order]
    if not (np.isfinite(y).all() and np.isfinite(x).all()):
        raise NonFiniteError("non-finite observation")

    res = solve_sqr_batch(y[None, :], x, tau[None, :], w[None, :],
                          kernel, h, box, init[None, :], inner_tol, max_iters)
    if not res.converged[0]:
        warnings.warn("inner solve hit max iterations; returning best iterate",
                      MaxItersWarning, stacklevel=2)
    if res.box_active[0]:
        warnings.warn("box constraint active at the solution", ActiveBoxWarning,
                      stacklevel=2)
    return res.theta[0]
