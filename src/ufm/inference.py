"""Mean loadings and plug-in covariance matrices for standard errors.

Under the normalization F'F/T = I the mean loadings solve per-row least
squares in closed form. All asymptotic covariances are evaluated in the
rotated coordinates by plugging the estimated loadings, factors, and
clipped inverse-density weights straight into their defining sums; the
unknown rotation cancels out of every reported standard error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularPhiError
from .idw import WeightTensor
from .panel import FactorEstimate, PanelMatrix, QuantileGrid


@dataclass(frozen=True)
class MeanLoadings:
    """Closed-form mean-model loadings and their fitted residuals."""

    lam_bar: np.ndarray      # (N, r)
    residuals: np.ndarray    # (N, T)


@dataclass(frozen=True)
class CovariancePack:
    """Plug-in covariance matrices for factors, loadings, and mean loadings."""

    phi: np.ndarray          # (r, r)
    sigma_f: np.ndarray      # (T, r, r), one per time period
    sigma_load: np.ndarray   # (M, N, r, r), one per (level, row)
    sigma_mean: np.ndarray   # (N, r, r), one per row
    levels: np.ndarray       # (M,) quantile levels indexing sigma_load
    lam_bar: np.ndarray      # (N, r) mean loadings used for mean targets


def mean_loadings(panel: PanelMatrix, estimate: FactorEstimate) -> MeanLoadings:
    """Least-squares loadings of the mean model: lam_bar_i = sum_t f_t Y_it / T."""
    f = estimate.factors
    t = f.shape[0]
    lam_bar = panel.values @ f / t
    residuals = panel.values - lam_bar @ f.T
    return MeanLoadings(lam_bar=lam_bar, residuals=residuals)


def _symmetrize(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + np.swapaxes(mat, -1, -2))


def plugin_covariances(
    panel: PanelMatrix,
    estimate: FactorEstimate,
    weights: WeightTensor,
    mean: MeanLoadings,
    grid: QuantileGrid,
) -> CovariancePack:
    """Evaluate every covariance sum with estimated quantities plugged in.

    phi      = avg of loading outer products over (level, row)
    sigma_f  = per-t double-level sum with (min(tau,tau') - tau tau') kernel
               and inverse-density weights
    sigma_load = tau(1-tau) times the weighted factor Gram per (level, row)
    sigma_mean = residual-weighted factor Gram per row
    """
    lam = estimate.loadings            # (M, N, r)
    f = estimate.factors               # (T, r)
    w = weights.w                      # (M, N, T)
    m_count, n, _ = lam.shape
    t = f.shape[0]
    taus = grid.levels
    if taus.size != m_count:
        raise ValueError("grid does not match the estimate's level count")

    phi = np.einsum("mnr,mns->rs", lam, lam) / (m_count * n)
    phi = _symmetrize(phi)
    eig = np.linalg.eigvalsh(phi)
    if eig[0] <= 0 or eig[-1] / max(eig[0], 1e-300) > 1e12:
        raise SingularPhiError(
            f"loading Gram condition number {eig[-1] / max(eig[0], 1e-300):.2e}")

    kappa = np.minimum.outer(taus, taus) - np.outer(taus, taus)
    lam_w = np.einsum("mnt,mnr->mntr", w, lam)        # weighted loadings per t
    sigma_f = np.einsum("mntr,mk,knts->trs", lam_w, kappa, lam_w)
    sigma_f = _symmetrize(sigma_f / (m_count**2 * n))

    fgram = np.einsum("tr,ts->trs", f, f)
    sigma_load = np.einsum("mnt,trs->mnrs", w * w, fgram) / t
    sigma_load *= (taus * (1.0 - taus))[:, None, None, None]
    sigma_load = _symmetrize(sigma_load)

    sigma_mean = _symmetrize(np.einsum("nt,trs->nrs", mean.residuals**2, fgram) / t)

    return CovariancePack(phi=phi, sigma_f=sigma_f, sigma_load=sigma_load,
                          sigma_mean=sigma_mean, levels=np.array(taus),
                          lam_bar=np.array(mean.lam_bar))


def _phi_inverse(phi: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(phi)
    floor = 1e-12 * np.trace(phi)
    vals = np.maximum(vals, floor)
    return (vecs / vals) @ vecs.T


def _level_index(levels: np.ndarray, tau: float) -> int:
    hits = np.flatnonzero(np.isclose(levels, tau, rtol=0, atol=1e-12))
    if hits.size == 0:
        raise ValueError(f"tau={tau} is not one of the estimated levels")
    return int(hits[0])


def standard_errors(
    estimate: FactorEstimate,
    covs: CovariancePack,
    target: str,
    *,
    t: int | None = None,
    tau: float | None = None,
    i: int | None = None,
):
    """Plug-in standard errors for a chosen estimand.

    target 'factor'       (needs t):        per-coordinate SEs of f_t
    target 'loading'      (needs tau, i):   per-coordinate SEs of lambda_i(tau)
    target 'common'       (needs tau, i, t) scalar SE of lambda_i(tau)'f_t
    target 'mean_loading' (needs i):        per-coordinate SEs of lam_bar_i
    target 'mean_common'  (needs i, t):     scalar SE of lam_bar_i'f_t
    """
    n = estimate.loadings.shape[1]
    t_len = estimate.factors.shape[0]
    phi_inv = _phi_inverse(covs.phi)

    if target == "factor":
        mid = phi_inv @ covs.sigma_f[t] @ phi_inv
        return np.sqrt(np.diag(mid) / n)
    if target == "loading":
        m = _level_index(covs.levels, tau)
        return np.sqrt(np.diag(covs.sigma_load[m, i]) / t_len)
    if target == "common":
        m = _level_index(covs.levels, tau)
        lam_i = estimate.loadings[m, i]
        f_t = estimate.factors[t]
        var = (lam_i @ phi_inv @ covs.sigma_f[t] @ phi_inv @ lam_i / n
               + f_t @ covs.sigma_load[m, i] @ f_t / t_len)
        return float(np.sqrt(var))
    if target == "mean_loading":
        return np.sqrt(np.diag(covs.sigma_mean[i]) / t_len)
    if target == "mean_common":
        lam_i = covs.lam_bar[i]
        f_t = estimate.factors[t]
        var = (lam_i @ phi_inv @ covs.sigma_f[t] @ phi_inv @ lam_i / n
               + f_t @ covs.sigma_mean[i] @ f_t / t_len)
        return float(np.sqrt(var))
    raise ValueError(f"unknown target {target!r}")
