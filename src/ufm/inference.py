"""Mean loadings, plug-in covariance matrices, and standard errors.

Under the normalization F'F/T = I the mean loadings solve per-row least
squares in closed form. All asymptotic covariances are evaluated in the
rotated coordinates by plugging the estimated loadings, factors, and
clipped inverse-density weights straight into their defining sums; the
unknown rotation cancels out of every reported standard error.
``standard_errors`` turns one covariance pack into the SE arrays of every
factor, loading and common component at once, following the plug-in forms
of Bai (2003, Econometrica 71(1)).
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
    grid: QuantileGrid       # the levels indexing sigma_load
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
                          sigma_mean=sigma_mean, grid=grid,
                          lam_bar=np.array(mean.lam_bar))


def _phi_inverse(phi: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(phi)
    floor = 1e-12 * np.trace(phi)
    vals = np.maximum(vals, floor)
    return (vecs / vals) @ vecs.T


@dataclass(frozen=True)
class StandardErrors:
    """Plug-in standard errors of every estimand, one array per kind."""

    factor: np.ndarray          # (T, r) per-coordinate SEs of f_t
    loading: np.ndarray         # (M, N, r) per-coordinate SEs of lambda_i(tau_m)
    mean_loading: np.ndarray    # (N, r) per-coordinate SEs of lam_bar_i
    mean_common: np.ndarray     # (N, T) SE of lam_bar_i'f_t
    common: np.ndarray | None   # (N, T) SE of lambda_i(tau)'f_t; None without tau


def standard_errors(
    estimate: FactorEstimate,
    covs: CovariancePack,
    tau: float | None = None,
) -> StandardErrors:
    """Every plug-in standard error in one pass over the covariance stacks.

    With mid_t = Phi^-1 Sigma_f(t) Phi^-1, a factor coordinate has variance
    diag(mid_t) / N and a loading coordinate diag(Sigma_load) / T. The common
    component lambda_i'f_t adds both sources: lambda_i' mid_t lambda_i / N
    plus f_t' Sigma f_t / T, with Sigma_load at level ``tau`` (which must be
    an estimated level) or Sigma_mean for the mean model.
    """
    f = estimate.factors
    n = estimate.loadings.shape[1]
    t_len = f.shape[0]
    phi_inv = _phi_inverse(covs.phi)
    mid = phi_inv @ covs.sigma_f @ phi_inv            # (T, r, r)

    def diag_se(stack, count):
        return np.sqrt(np.diagonal(stack, axis1=-2, axis2=-1) / count)

    def common_se(lam, sigma_rows):
        var = (np.einsum("nr,trs,ns->nt", lam, mid, lam) / n
               + np.einsum("tr,nrs,ts->nt", f, sigma_rows, f) / t_len)
        return np.sqrt(var)

    common = None
    if tau is not None:
        m = covs.grid.index(tau)
        common = common_se(estimate.loadings[m], covs.sigma_load[m])
    return StandardErrors(factor=diag_se(mid, n),
                          loading=diag_se(covs.sigma_load, t_len),
                          mean_loading=diag_se(covs.sigma_mean, t_len),
                          mean_common=common_se(covs.lam_bar, covs.sigma_mean),
                          common=common)
