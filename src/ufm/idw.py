"""Four-region sample splitting and inverse-density weighted estimation.

The inverse conditional density of an observation at its fitted quantile
equals the derivative of the loading path times the factor, so it can be
estimated by numerically differentiating cross-fitted loadings: a five
point stencil over quantile levels shifted by h_d. The panel is split into
row halves rows(1), rows(2) and column halves cols(1), cols(2). Quadrant
(a, b)'s weights come from one function, :func:`quadrant_crossfit`: its
rows' loadings are fitted on the other column half, cols(3-b), against
factors fitted on the other row half, rows(3-a), so neither fit reads the
quadrant's own cells. The second stage reruns the alternating fit on the
full panel with each (level, row, column) term weighted by the estimated
inverse density.

:func:`fit_panel` runs the estimator's whole chain: PEL rank selection and
warm start, the pooled-grid fit, and then the weighted refit. The command
line, the simulation tables and the cross-fit's half-panel fits run it.
"""

from __future__ import annotations

import warnings
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import ClippedFractionWarning, SubsampleRankDeficientError, UfmError
from .kernels import gaussian_kernel
from .panel import EstimatorConfig, FactorEstimate, PanelMatrix, QuantileGrid
from .ranksel import (
    DEFAULT_PENALTY,
    PelProfile,
    RankReport,
    pel_profile,
    rank_from_profile,
    warm_start_from_profile,
)
from .ufa import _loading_step, check_rank, parameter_box, ufa_fit

_CLIP_LO_FACTOR = 0.05
_CLIP_HI_FACTOR = 20.0


@dataclass(frozen=True)
class SplitIndex:
    """Row and column halves (0-based indices, floor split)."""

    n1: np.ndarray
    n2: np.ndarray
    t1: np.ndarray
    t2: np.ndarray

    def rows(self, a: int) -> np.ndarray:
        return self.n1 if a == 1 else self.n2

    def cols(self, b: int) -> np.ndarray:
        return self.t1 if b == 1 else self.t2


@dataclass(frozen=True)
class WeightTensor:
    """Estimated inverse densities per (level, row, column), clipped."""

    w: np.ndarray
    clip_lo: float
    clip_hi: float
    clipped_fraction: float = 0.0

    def __post_init__(self):
        w = np.array(self.w, dtype=float)
        if not ((w >= self.clip_lo - 1e-12).all() and (w <= self.clip_hi + 1e-12).all()):
            raise ValueError("weights violate the clipping bounds")
        w.setflags(write=False)
        object.__setattr__(self, "w", w)


def split_panel(panel: PanelMatrix) -> SplitIndex:
    """Floor halves along both axes; every quadrant must be nonempty."""
    n, t = panel.n_rows, panel.n_cols
    if n < 4 or t < 4:
        raise ValueError("sample splitting needs N >= 4 and T >= 4")
    return SplitIndex(
        n1=np.arange(n // 2),
        n2=np.arange(n // 2, n),
        t1=np.arange(t // 2),
        t2=np.arange(t // 2, t),
    )


def fpdf_derivative(values: np.ndarray, h_d: float, mode: str = "central") -> np.ndarray:
    """Five-point difference along the leading axis of ``values``.

    Stencil ordering matches ``QuantileGrid.stencil_levels``:
    central  -> values at tau + h_d * [-2, -1, +1, +2]
    forward  -> values at tau + h_d * [0, 1, 2, 3, 4]
    backward -> values at tau + h_d * [0, -1, -2, -3, -4]
    All three are exact on polynomials up to degree 4 with O(h_d^4) error.
    """
    values = np.asarray(values, dtype=float)
    if mode == "central":
        coeffs = np.array([1.0, -8.0, 8.0, -1.0])
    elif mode == "forward":
        coeffs = np.array([-25.0, 48.0, -36.0, 16.0, -3.0])
    elif mode == "backward":
        coeffs = np.array([25.0, -48.0, 36.0, -16.0, 3.0])
    else:
        raise ValueError(f"unknown stencil mode {mode!r}")
    if values.shape[0] != coeffs.size:
        raise ValueError(f"{mode} stencil needs {coeffs.size} values, got {values.shape[0]}")
    # coefficients sum to zero, so centering is exact and kills the common
    # level before the contraction (constants differentiate to exactly 0)
    return np.tensordot(coeffs, values - values[:1], axes=(0, 0)) / (12.0 * h_d)


def _sub_panel(panel: PanelMatrix, rows: np.ndarray, cols: np.ndarray) -> PanelMatrix:
    values = panel.submatrix(rows, cols)
    return PanelMatrix(values, tuple(panel.row_ids[i] for i in rows),
                       tuple(panel.col_ids[j] for j in cols))


def _half_factors(panel: PanelMatrix, grid: QuantileGrid, config: EstimatorConfig,
                  rows: np.ndarray, penalty_const: float = DEFAULT_PENALTY) -> np.ndarray:
    """Full-length factors estimated from one horizontal half of the panel."""
    half = _sub_panel(panel, rows, np.arange(panel.n_cols))
    est = fit_panel(half, grid, config, penalty_const=penalty_const,
                    weighted=False).estimate
    eigs = est.eigenvalues
    if eigs[-1] <= 0 or eigs[-1] < 1e-10 * max(eigs[0], 1e-300):
        raise SubsampleRankDeficientError(
            "half-panel factor Gram is numerically rank deficient")
    return est.factors


def _loading_table(panel: PanelMatrix, config: EstimatorConfig, factors: np.ndarray,
                   rows: np.ndarray, cols: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Per-row smoothed QR of Y[rows, cols] on factors[cols] at each level.

    The box, and h when unset, are resolved from that block, the only cells
    the fit reads.
    """
    block = _sub_panel(panel, rows, cols)
    y = block.values
    f_sub = factors[cols]
    # row-wise least squares as a cheap, level-independent start
    lam0 = np.linalg.solve(f_sub.T @ f_sub, f_sub.T @ y.T).T
    res = _loading_step(y, f_sub, levels, np.asarray(1.0),
                        gaussian_kernel(config.kernel_order),
                        config.with_bandwidth_for(block).bandwidth_h, parameter_box(y),
                        np.tile(lam0, (levels.size, 1)))
    return res.theta.reshape(levels.size, y.shape[0], -1)


def quadrant_crossfit(panel: PanelMatrix, grid: QuantileGrid, config: EstimatorConfig,
                      split: SplitIndex, halves: Mapping[int, np.ndarray],
                      a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """The (loading table, factors) from which quadrant (a, b)'s weights follow.

    ``halves[c]`` holds the full-length factors fitted on row half c; only
    ``halves[3 - a]`` is read. The table holds loadings for rows(a) at every
    ``grid.all_stencil_levels()`` level, fitted on cols(3 - b) against those
    factors; the factors returned are theirs at the quadrant's columns.
    """
    factors = halves[3 - a]
    table = _loading_table(panel, config, factors, split.rows(a), split.cols(3 - b),
                           grid.all_stencil_levels())
    return table, factors[split.cols(b)]


def crossfit_estimates(panel: PanelMatrix, grid: QuantileGrid,
                       config: EstimatorConfig, split: SplitIndex,
                       penalty_const: float = DEFAULT_PENALTY
                       ) -> dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]:
    """Every quadrant's :func:`quadrant_crossfit` result, keyed by (a, b).

    h is taken from the full panel's dimensions; each fit takes its
    parameter box from the sub-panel it reads. The half-panel fits profile
    their PEL warm starts at ``penalty_const``.
    """
    config = config.with_bandwidth_for(panel)
    halves = {c: _half_factors(panel, grid, config, split.rows(c), penalty_const)
              for c in (1, 2)}
    return {(a, b): quadrant_crossfit(panel, grid, config, split, halves, a, b)
            for a in (1, 2) for b in (1, 2)}


def _stencil_indices(grid: QuantileGrid, all_levels: np.ndarray, m: int) -> np.ndarray:
    idx = np.searchsorted(all_levels, grid.stencil_levels(m))
    # backward stencils enumerate descending levels; searchsorted needs exact hits
    check = all_levels[idx]
    if not np.allclose(check, grid.stencil_levels(m), atol=1e-12):
        raise ValueError("stencil levels missing from the cross-fit table")
    return idx


def raw_inverse_density(crossfit: dict, grid: QuantileGrid,
                        split: SplitIndex) -> np.ndarray:
    """Unclipped weight tensor, each quadrant's block from its own cross-fit."""
    levels = grid.all_stencil_levels()
    n = split.n1.size + split.n2.size
    t = split.t1.size + split.t2.size
    raw = np.empty((grid.m_count, n, t))
    for (a, b), (table, f_v) in crossfit.items():
        block = np.ix_(split.rows(a), split.cols(b))
        for m in range(grid.m_count):
            idx = _stencil_indices(grid, levels, m)
            deriv = fpdf_derivative(table[idx], grid.shift, grid.modes[m])
            raw[m][block] = deriv @ f_v.T
    return raw


def clip_weights(raw: np.ndarray, scale_hint: float | None = None) -> WeightTensor:
    """Clip raw inverse densities to a band around their median.

    True inverse densities are bounded away from zero and infinity, so
    values outside [0.05, 20] times the median are treated as stencil
    noise. When the whole tensor is negligible against ``scale_hint`` (the
    fitted common-component scale), the loading paths are flat in the
    quantile level - a numerically deterministic panel - and the band is
    re-anchored to the hint so every weight lands on the floor.
    """
    med = float(np.median(raw))
    if not np.isfinite(med) or med <= 0.0:
        med = scale_hint if scale_hint else 1.0
    elif scale_hint and med < 1e-3 * scale_hint:
        med = scale_hint
    lo, hi = _CLIP_LO_FACTOR * med, _CLIP_HI_FACTOR * med
    clipped = np.clip(raw, lo, hi)
    frac = float(np.mean((raw < lo) | (raw > hi)))
    if frac > 0.10:
        warnings.warn(f"{frac:.1%} of inverse-density weights were clipped",
                      ClippedFractionWarning, stacklevel=2)
    return WeightTensor(w=clipped, clip_lo=lo, clip_hi=hi, clipped_fraction=frac)


def inverse_density_weights(crossfit: dict, grid: QuantileGrid,
                            split: SplitIndex) -> WeightTensor:
    """Clipped inverse densities. The clip scale hint is the median
    |fitted common component| at the middle stencil level, each cell fitted
    by its own quadrant's cross-fit."""
    mid = grid.all_stencil_levels().size // 2
    surface = np.concatenate([(table[mid] @ f_v.T).ravel()
                              for table, f_v in crossfit.values()])
    return clip_weights(raw_inverse_density(crossfit, grid, split),
                        float(np.median(np.abs(surface))))


@dataclass(frozen=True)
class PanelFit:
    """Every stage of one :func:`fit_panel` run."""

    profile: PelProfile
    report: RankReport
    ufa: FactorEstimate                 # the pooled-grid first stage
    estimate: FactorEstimate            # the weighted refit, or ``ufa`` unweighted
    weights: WeightTensor | None        # None unweighted


def fit_panel(
    panel: PanelMatrix,
    grid: QuantileGrid,
    config: EstimatorConfig,
    *,
    penalty_const: float = DEFAULT_PENALTY,
    threshold: float | None = None,
    weighted: bool = True,
) -> PanelFit:
    """The estimator's chain: rank, warm start, pooled-grid fit, weighted refit.

    The PEL profile at ``penalty_const`` gives the rank report (``threshold``
    defaults to :func:`~ufm.ranksel.default_rank_threshold`) and the warm
    start; the cross-fit's half-panel fits use the same ``penalty_const``.
    ``config.rank == "auto"`` fits the estimated rank and raises
    :class:`UfmError` when it is 0; a fixed rank too large for the panel
    raises :class:`~ufm.errors.RankTooLargeError` before any fitting. With
    ``weighted``, inverse densities are cross-fitted and the full panel is
    refitted with them, starting from the first stage. Every fit keeps its
    parameters in a box derived from the cells it reads
    (:func:`~ufm.ufa.parameter_box`): the full panel for the full-panel
    fits, and each sub-panel in the cross-fit.
    """
    if config.rank != "auto":
        check_rank(config.rank, panel)
    profile = pel_profile(panel, grid, penalty_const)
    report = rank_from_profile(profile, threshold)
    rank = report.r_hat if config.rank == "auto" else config.rank
    if rank < 1:
        raise UfmError("estimated rank is 0; nothing to fit")
    config = config.with_rank(rank)
    warm = warm_start_from_profile(profile, rank)
    first = ufa_fit(panel, grid, config, init=warm)
    if not weighted:
        return PanelFit(profile, report, first, first, None)
    split = split_panel(panel)
    weights = inverse_density_weights(
        crossfit_estimates(panel, grid, config, split, penalty_const), grid, split)
    est = ufa_fit(panel, grid, config, init=first, weights=weights.w)
    return PanelFit(profile, report, first, est, weights)
