"""Nuclear-norm penalized surface fits, rank estimation, strength selectors.

The penalized fit minimizes a smoothed check loss plus a nuclear-norm
penalty by accelerated proximal gradient with singular-value soft
thresholding (monotone-restart variant). It needs no prior bound on the
number of factors, so thresholding the pooled eigenvalues of the fitted
surfaces gives a weak-factor-robust estimate of the rank, and the top
eigenvectors provide the warm start for the alternating estimators.

The thresholding step keeps only the few singular values above the level,
so :func:`svt` takes them from one symmetric eigendecomposition of the
smaller Gram matrix instead of a full SVD; the prox stays exact (Cai,
Candes & Shen 2010, arXiv:0810.3286) and agrees with the SVD form to
rounding. It uses numpy's ``eigh``, which releases the GIL while LAPACK
runs, so fits on parallel worker threads do not serialize.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergeWarning
from .kernels import gaussian_kernel, kernel_cdf, kernel_k, smoothed_value
from .panel import EstimatorConfig, FactorEstimate, PanelMatrix, QuantileGrid
from .ufa import _fix_column_signs

_PEL_KERNEL_ORDER = 2
_PEL_TOL = 1e-5
_PEL_MAX_ITERS = 500


@dataclass(frozen=True)
class RankReport:
    """Pooled eigenvalues of the penalized fits and the thresholded rank."""

    eigenvalues: np.ndarray
    r_hat: int
    threshold: float
    penalty_const: float

    def __post_init__(self):
        eig = np.array(self.eigenvalues, dtype=float)
        eig.setflags(write=False)
        object.__setattr__(self, "eigenvalues", eig)
        if np.any(np.diff(eig) > 1e-12):
            raise ValueError("eigenvalues must be non-increasing")
        if self.r_hat != int(np.sum(eig >= self.threshold)):
            raise ValueError("r_hat inconsistent with the threshold rule")


@dataclass(frozen=True)
class StrengthReport:
    """Singular values of a target surface and the count above threshold."""

    target: str
    alpha: float
    singular_values: np.ndarray
    selected: int
    threshold: float
    constant: float


def default_rank_threshold(n: int, t: int) -> float:
    return 1.0 / (12.0 * min(n, t) ** (1.0 / 3.0))


def _pel_box(y: np.ndarray) -> tuple[float, float]:
    lo, hi = float(y.min()), float(y.max())
    spread = hi - lo
    return lo - spread, hi + spread


def svt(z: np.ndarray, level: float) -> tuple[np.ndarray, float]:
    """Singular-value soft threshold: the prox of level * nuclear norm.

    Returns the shrunk matrix sum_i max(s_i - level, 0) u_i v_i' and its
    nuclear norm. With z = U S V', the Gram matrix of the shorter side has
    eigenvalues s_i^2 and eigenvectors U (or V), and the shrunk matrix is
    U diag((s - level)/s) U' z over the kept s > level, so one symmetric
    eigendecomposition gives the exact prox; the discarded directions never
    need their singular vectors. Squaring puts the rounding error of a kept
    component at about eps * s_1 * (s_1 / level), against eps * s_1 for the
    SVD form. numpy's ``eigh`` is used, not scipy's subset ``eigh``, because
    it releases the GIL, so fits on worker threads overlap.
    """
    wide = z.shape[0] <= z.shape[1]
    eigvals, vecs = np.linalg.eigh(z @ z.T if wide else z.T @ z)
    keep = eigvals > level * level
    if not keep.any():
        return np.zeros_like(z), 0.0
    sigma = np.sqrt(eigvals[keep])
    vecs = vecs[:, keep]
    shrink = (sigma - level) / sigma
    if wide:
        shrunk = (vecs * shrink) @ (vecs.T @ z)
    else:
        shrunk = ((z @ vecs) * shrink) @ vecs.T
    return shrunk, float((sigma - level).sum())


def pel_fit(
    panel: PanelMatrix,
    tau: float,
    penalty_const: float = 0.2,
    box: tuple[float, float] | None = None,
    max_iters: int = _PEL_MAX_ITERS,
    tol: float = _PEL_TOL,
    trace: list | None = None,
) -> np.ndarray:
    """Nuclear-norm penalized fit of the tau-th quantile surface.

    Minimizes mean smoothed check loss plus
    C sqrt(log NT) max(sqrt N, sqrt T)/(NT) times the nuclear norm, using a
    second-order kernel at bandwidth min(N,T)^(-1/5) so the smooth part has
    gradient (K((L-Y)/h) - tau)/(NT) and an explicit Lipschitz constant.
    """
    y = panel.values
    n, t = y.shape
    if box is None:
        box = _pel_box(y)
    kernel = gaussian_kernel(_PEL_KERNEL_ORDER)
    h = min(n, t) ** (-1.0 / 5.0)
    psi = penalty_const * math.sqrt(math.log(n * t)) * math.sqrt(max(n, t)) / (n * t)
    max_k = float(np.abs(kernel_k(kernel, np.linspace(-8, 8, 4001))).max())
    step = h * n * t / max_k          # 1 / Lipschitz of the smooth gradient
    svt_level = step * psi

    def smooth_grad(l_mat):
        return (kernel_cdf(kernel, (l_mat - y) / h) - tau) / (n * t)

    def objective(l_mat, nuc):
        return float(np.mean(smoothed_value(kernel, h, tau, l_mat, y))) + psi * nuc

    l_cur = np.zeros_like(y)
    nuc_cur = 0.0
    obj_cur = objective(l_cur, nuc_cur)
    if trace is not None:
        trace.append(obj_cur)
    l_prev = l_cur
    t_acc = 1.0
    converged = False
    for _ in range(max_iters):
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_acc * t_acc))
        z = l_cur + ((t_acc - 1.0) / t_next) * (l_cur - l_prev)
        cand, cand_nuc = svt(z - step * smooth_grad(z), svt_level)
        cand_obj = objective(cand, cand_nuc)
        if cand_obj > obj_cur:
            # monotone restart: plain proximal step from the current iterate
            cand, cand_nuc = svt(l_cur - step * smooth_grad(l_cur), svt_level)
            cand_obj = objective(cand, cand_nuc)
            t_next = 1.0
        rel = np.linalg.norm(cand - l_cur) / max(1.0, np.linalg.norm(l_cur))
        l_prev, l_cur, nuc_cur, obj_cur, t_acc = l_cur, cand, cand_nuc, cand_obj, t_next
        if trace is not None:
            trace.append(obj_cur)
        if rel < tol:
            converged = True
            break
    if not converged:
        warnings.warn("penalized fit hit its iteration cap", NoConvergeWarning,
                      stacklevel=2)
    return np.clip(l_cur, box[0], box[1])


@dataclass(frozen=True)
class PelProfile:
    """Penalized fits at every grid level plus the pooled eigensystem."""

    surfaces: np.ndarray       # (M, N, T)
    eigenvalues: np.ndarray    # descending, length min(N, T)
    eigenvectors: np.ndarray   # (T, min(N, T)), matching columns
    penalty_const: float


def pel_profile(panel: PanelMatrix, grid: QuantileGrid,
                penalty_const: float = 0.2) -> PelProfile:
    surfaces = np.stack([pel_fit(panel, tau, penalty_const) for tau in grid.levels])
    m, n, t = surfaces.shape
    flat = surfaces.reshape(m * n, t)
    gram = flat.T @ flat / (m * n * t)
    eigvals, eigvecs = np.linalg.eigh(gram)
    k = min(n, t)
    order = np.argsort(eigvals)[::-1][:k]
    return PelProfile(surfaces=surfaces, eigenvalues=eigvals[order],
                      eigenvectors=eigvecs[:, order], penalty_const=penalty_const)


def rank_from_profile(profile: PelProfile, threshold: float | None = None) -> RankReport:
    """Count the pooled eigenvalues at or above ``threshold``, by default
    :func:`default_rank_threshold` of the profiled panel's N and T."""
    if threshold is None:
        _, n, t = profile.surfaces.shape
        threshold = default_rank_threshold(n, t)
    eig = profile.eigenvalues
    return RankReport(eigenvalues=eig, r_hat=int(np.sum(eig >= threshold)),
                      threshold=float(threshold), penalty_const=profile.penalty_const)


def estimate_r(panel: PanelMatrix, grid: QuantileGrid, penalty_const: float = 0.2,
               threshold: float | None = None) -> RankReport:
    """Thresholded eigenvalue count of the pooled penalized surfaces."""
    return rank_from_profile(pel_profile(panel, grid, penalty_const), threshold)


def warm_start_from_profile(profile: PelProfile, rank: int,
                            config: EstimatorConfig | None = None) -> FactorEstimate:
    """Initial factors and loadings from the penalized fits: sqrt(T) times the
    top ``rank`` pooled eigenvectors, with each surface's loadings on them.

    A box set in ``config`` clips both. A one-level grid's profile gives the
    single-quantile variant.
    """
    if rank < 1:
        raise ValueError("warm start needs rank >= 1")
    t = profile.eigenvectors.shape[0]
    f = _fix_column_signs(math.sqrt(t) * profile.eigenvectors[:, :rank])
    lam = np.einsum("mnt,tr->mnr", profile.surfaces, f) / t
    if config is not None and config.box_bound is not None:
        b = config.box_bound
        f = np.clip(f, -b, b)
        lam = np.clip(lam, -b, b)
    return FactorEstimate(factors=f, loadings=lam,
                          eigenvalues=profile.eigenvalues[:rank])


def select_factors(
    estimate: FactorEstimate,
    grid: QuantileGrid | None = None,
    mean_loadings: np.ndarray | None = None,
    *,
    target,
    alpha: float,
    constant: float = 1.0,
) -> StrengthReport:
    """Count factors whose influence on the target reaches strength alpha.

    ``target`` is ``"mean"`` (requires the N x r mean-loading matrix) or a
    quantile level present in ``grid``. A factor is selected when the
    corresponding singular value of the target surface divided by
    sqrt(NT) is at least C N^((alpha-1)/2) / log N.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    f = estimate.factors
    if target == "mean":
        if mean_loadings is None:
            raise ValueError("target='mean' requires mean loadings")
        lam = np.asarray(mean_loadings, dtype=float)
        label = "mean"
    else:
        if grid is None:
            raise ValueError("a quantile target requires the grid")
        tau = float(target)
        lam = estimate.loadings[grid.index(tau)]
        label = f"quantile({tau})"
    n = lam.shape[0]
    t = f.shape[0]
    sing = np.linalg.svd(lam @ f.T, compute_uv=False) / math.sqrt(n * t)
    sing = sing[: estimate.rank]
    thresh = constant * n ** ((alpha - 1.0) / 2.0) / math.log(n)
    return StrengthReport(target=label, alpha=float(alpha), singular_values=sing,
                          selected=int(np.sum(sing >= thresh)), threshold=float(thresh),
                          constant=float(constant))
