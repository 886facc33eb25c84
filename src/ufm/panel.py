"""Core data containers: panels, quantile grids, configuration, estimates.

Everything here is immutable after construction and safe to share across
threads. Estimation modules consume these types but never mutate them.
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DuplicateCellError,
    MissingCellError,
    NonNumericCellError,
    RaggedRowsError,
)

# Levels closer than 2*h_d to these edges switch to one-sided stencils.
FORWARD_EDGE = 0.01
BACKWARD_EDGE = 0.99


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)  # private copy, so freezing never leaks out
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PanelMatrix:
    """An N x T panel of observations with row and column identifiers.

    Labels are carried through but never interpreted; estimation is
    label-agnostic. Missing or non-finite cells are rejected outright.
    """

    values: np.ndarray
    row_ids: tuple[str, ...]
    col_ids: tuple[str, ...]

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise ValueError(f"panel values must be 2-D, got shape {vals.shape}")
        if not np.isfinite(vals).all():
            raise MissingCellError("panel contains non-finite entries")
        n, t = vals.shape
        if len(self.row_ids) != n or len(self.col_ids) != t:
            raise ValueError("row/col id lengths do not match the value matrix")
        object.__setattr__(self, "values", _freeze(vals))
        object.__setattr__(self, "row_ids", tuple(str(r) for r in self.row_ids))
        object.__setattr__(self, "col_ids", tuple(str(c) for c in self.col_ids))

    @classmethod
    def from_values(cls, values: np.ndarray) -> "PanelMatrix":
        """Wrap a raw matrix with positional identifiers r0..  / c0.. ."""
        values = np.asarray(values, dtype=float)
        n, t = values.shape
        return cls(values, tuple(f"r{i}" for i in range(n)), tuple(f"c{j}" for j in range(t)))

    @property
    def n_rows(self) -> int:
        return len(self.row_ids)

    @property
    def n_cols(self) -> int:
        return len(self.col_ids)

    def submatrix(self, rows, cols) -> np.ndarray:
        """Extract a block of observations.

        All estimation code reads panel data through this accessor, so a
        tracing subclass can record exactly which cells a code path touches.
        """
        return self.values[np.ix_(np.asarray(rows, dtype=int), np.asarray(cols, dtype=int))]


@dataclass(frozen=True)
class QuantileGrid:
    """The quantile levels used for estimation plus the stencil shift h_d.

    ``modes[m]`` records which difference stencil applies at ``levels[m]``:
    levels within ``2*shift`` of 0 or 1 switch to the one-sided variants.
    """

    levels: np.ndarray
    shift: float
    modes: tuple[str, ...] = field(default=())

    def __post_init__(self):
        levels = np.asarray(self.levels, dtype=float)
        if levels.ndim != 1 or levels.size < 1:
            raise ValueError("grid needs at least one level")
        if np.any(levels <= 0.0) or np.any(levels >= 1.0):
            raise ValueError("quantile levels must lie strictly inside (0, 1)")
        if np.any(np.diff(levels) <= 0):
            raise ValueError("quantile levels must be strictly increasing")
        if not (self.shift > 0.0):
            raise ValueError("shift h_d must be positive")
        modes = self.modes or tuple(_stencil_mode(t, self.shift) for t in levels)
        if len(modes) != levels.size:
            raise ValueError("one stencil mode per level required")
        for tau, mode in zip(levels, modes):
            for s in _stencil_offsets(mode):
                shifted = tau + s * self.shift
                if not (0.0 < shifted < 1.0):
                    raise ValueError(
                        f"stencil level {shifted:.4f} for tau={tau} leaves (0,1); "
                        "reduce h_d or M"
                    )
        object.__setattr__(self, "levels", _freeze(levels))
        object.__setattr__(self, "modes", tuple(modes))

    @property
    def m_count(self) -> int:
        return int(self.levels.size)

    def stencil_levels(self, m: int) -> np.ndarray:
        """Quantile levels at which loadings are needed for the stencil at level m."""
        tau = float(self.levels[m])
        return tau + self.shift * _stencil_offsets(self.modes[m])

    def all_stencil_levels(self) -> np.ndarray:
        """Sorted unique levels required by every stencil on the grid."""
        out = np.concatenate([self.stencil_levels(m) for m in range(self.m_count)])
        return np.unique(out)

    def index(self, tau: float) -> int:
        """Position of level ``tau`` on the grid, matched to within 1e-12."""
        hits = np.flatnonzero(np.isclose(self.levels, tau, rtol=0, atol=1e-12))
        if hits.size == 0:
            raise ValueError(f"tau={tau} is not one of the estimated levels")
        return int(hits[0])


def _stencil_mode(tau: float, h_d: float) -> str:
    if tau - 2.0 * h_d <= FORWARD_EDGE:
        return "forward"
    if tau + 2.0 * h_d >= BACKWARD_EDGE:
        return "backward"
    return "central"


def _stencil_offsets(mode: str) -> np.ndarray:
    if mode == "central":
        return np.array([-2.0, -1.0, 1.0, 2.0])
    if mode == "forward":
        return np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    if mode == "backward":
        return np.array([0.0, -1.0, -2.0, -3.0, -4.0])
    raise ValueError(f"unknown stencil mode {mode!r}")


def make_quantile_grid(m_count: int, h_d: float) -> QuantileGrid:
    """Equally spaced levels m/(M+1) for m = 1..M with stencil shift h_d.

    The top half of the grid is mirrored from the bottom half so that
    ``levels[m] + levels[M-1-m] == 1.0`` holds exactly in floating point.
    """
    if m_count < 1:
        raise ValueError("M must be at least 1")
    tau1 = 1.0 / (m_count + 1)
    if not (0.0 < h_d < tau1):
        raise ValueError(f"h_d must lie in (0, {tau1:.4g})")
    levels = np.empty(m_count)
    for m in range(1, m_count + 1):
        if 2 * m <= m_count + 1:
            levels[m - 1] = m / (m_count + 1)
        else:
            levels[m - 1] = 1.0 - levels[m_count - m]
    return QuantileGrid(levels=levels, shift=float(h_d))


def single_level_grid(tau: float, h_d: float) -> QuantileGrid:
    """A one-level grid, used for single-quantile fits and warm starts."""
    return QuantileGrid(levels=np.array([float(tau)]), shift=float(h_d))


@dataclass(frozen=True)
class EstimatorConfig:
    """Tuning constants for the alternating quantile-regression fits.

    ``bandwidth_h`` and ``box_bound`` may be left as None and resolved
    against a panel: h defaults to min(N,T)^(-1/13) and the parameter box
    to a data-scaled interval wide enough that projection stays inactive.
    """

    rank: int | str = "auto"
    bandwidth_h: float | None = None
    kernel_order: int = 14
    box_bound: float | None = None
    max_outer_iters: int = 500

    def __post_init__(self):
        if isinstance(self.rank, str):
            if self.rank != "auto":
                raise ValueError("rank must be a positive integer or 'auto'")
        elif int(self.rank) < 1:
            raise ValueError("rank must be a positive integer or 'auto'")
        if self.kernel_order < 2 or self.kernel_order % 2 != 0:
            raise ValueError("kernel order must be a positive even integer")
        if self.bandwidth_h is not None and not (0.0 < self.bandwidth_h < 1.0):
            raise ValueError("bandwidth_h must lie in (0, 1)")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be at least 1")

    def resolved_for(self, panel: PanelMatrix) -> "EstimatorConfig":
        """Fill data-dependent defaults from the panel dimensions and scale."""
        box = self.box_bound
        if box is None:
            scale = float(np.abs(panel.values).max())
            sd = float(panel.values.std())
            box = 10.0 * max(scale, 1.0) / min(1.0, sd if sd > 0 else 1.0)
        return dataclasses.replace(self.with_bandwidth_for(panel), box_bound=float(box))

    def with_bandwidth_for(self, panel: PanelMatrix) -> "EstimatorConfig":
        """Fill only h, from the panel's dimensions; no cell is read."""
        h = self.bandwidth_h
        if h is None:
            h = min(panel.n_rows, panel.n_cols) ** (-1.0 / 13.0)
        return dataclasses.replace(self, bandwidth_h=float(h))

    def with_rank(self, rank: int) -> "EstimatorConfig":
        return dataclasses.replace(self, rank=int(rank))


@dataclass(frozen=True)
class FactorEstimate:
    """Estimated factors, per-level loadings, and eigenvalue diagnostics.

    ``factors`` is T x r with F'F/T = I_r; ``loadings`` stacks the M
    per-level N x r matrices; the Gram average of the loadings is diagonal
    with the (descending) ``eigenvalues`` on its diagonal.
    """

    factors: np.ndarray
    loadings: np.ndarray
    eigenvalues: np.ndarray
    converged: bool = True
    n_outer: int = 0

    def __post_init__(self):
        f = np.asarray(self.factors, dtype=float)
        lam = np.asarray(self.loadings, dtype=float)
        if f.ndim != 2:
            raise ValueError("factors must be T x r")
        if lam.ndim != 3 or lam.shape[2] != f.shape[1]:
            raise ValueError("loadings must be M x N x r matching the factors")
        object.__setattr__(self, "factors", _freeze(f))
        object.__setattr__(self, "loadings", _freeze(lam))
        object.__setattr__(self, "eigenvalues", _freeze(np.asarray(self.eigenvalues, dtype=float)))

    @property
    def rank(self) -> int:
        return self.factors.shape[1]

    @property
    def m_count(self) -> int:
        return self.loadings.shape[0]

    def common_components(self) -> np.ndarray:
        """The fitted quantile surfaces Lambda(tau_m) F', stacked M x N x T."""
        return np.einsum("mnr,tr->mnt", self.loadings, self.factors)

    def check_invariants(self, tol_f: float = 1e-8, tol_gram: float = 1e-6) -> None:
        t, r = self.factors.shape
        gram_f = self.factors.T @ self.factors / t
        if np.abs(gram_f - np.eye(r)).max() > tol_f:
            raise AssertionError("F'F/T deviates from identity")
        m, n, _ = self.loadings.shape
        gram_l = np.einsum("mnr,mns->rs", self.loadings, self.loadings) / (m * n)
        off = gram_l - np.diag(np.diag(gram_l))
        if np.abs(off).max() > tol_gram:
            raise AssertionError("loading Gram average is not diagonal")
        if np.any(np.diff(self.eigenvalues) > 0):
            raise AssertionError("eigenvalues are not non-increasing")


def load_panel(path, layout: str = "wide") -> PanelMatrix:
    """Read a panel from CSV; missing cells are an error, never imputed.

    Wide layout: a header row of column labels, then one data row per panel
    row. A leading row-label column is detected from the field counts (or
    from an empty first header cell). Long layout: header ``row,col,value``
    followed by one triple per cell; the triples must tile a complete
    rectangle with no duplicates.
    """
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise RaggedRowsError(f"{path}: empty file")
    if layout == "wide":
        return _parse_wide(rows)
    if layout == "long":
        return _parse_long(rows)
    raise ValueError(f"unknown layout {layout!r}")


def _parse_float(cell: str, where: str) -> float:
    if cell.strip() == "":
        raise MissingCellError(f"missing cell at {where}")
    try:
        return float(cell)
    except ValueError:
        raise NonNumericCellError(f"non-numeric cell {cell!r} at {where}") from None


def _parse_wide(rows: list[list[str]]) -> PanelMatrix:
    header, data = rows[0], rows[1:]
    if not data:
        raise RaggedRowsError("wide panel has a header but no data rows")
    widths = {len(r) for r in data}
    if len(widths) != 1:
        raise RaggedRowsError(f"ragged rows: widths {sorted(widths)}")
    width = widths.pop()
    if header and header[0].strip() == "" or width == len(header) + 1:
        labeled = True
        col_ids = header[1:] if len(header) == width else header
    elif width == len(header):
        labeled = False
        col_ids = header
    else:
        raise RaggedRowsError(
            f"header has {len(header)} fields but data rows have {width}"
        )
    if labeled and len(col_ids) != width - 1:
        raise RaggedRowsError("column label count does not match data width")
    row_ids, values = [], []
    for i, row in enumerate(data):
        if labeled:
            row_ids.append(row[0])
            cells = row[1:]
        else:
            row_ids.append(f"r{i}")
            cells = row
        values.append([_parse_float(c, f"row {i}, col {j}") for j, c in enumerate(cells)])
    return PanelMatrix(np.array(values, dtype=float), tuple(row_ids), tuple(col_ids))


def _parse_long(rows: list[list[str]]) -> PanelMatrix:
    header = [h.strip().lower() for h in rows[0]]
    if header != ["row", "col", "value"]:
        raise RaggedRowsError("long layout requires header 'row,col,value'")
    seen: dict[tuple[str, str], float] = {}
    row_order: list[str] = []
    col_order: list[str] = []
    for k, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise RaggedRowsError(f"line {k}: expected 3 fields, got {len(row)}")
        r, c, v = row[0], row[1], _parse_float(row[2], f"line {k}")
        if (r, c) in seen:
            raise DuplicateCellError(f"duplicate cell ({r}, {c})")
        seen[(r, c)] = v
        if r not in row_order:
            row_order.append(r)
        if c not in col_order:
            col_order.append(c)
    values = np.empty((len(row_order), len(col_order)))
    for i, r in enumerate(row_order):
        for j, c in enumerate(col_order):
            if (r, c) not in seen:
                raise MissingCellError(f"missing cell ({r}, {c})")
            values[i, j] = seen[(r, c)]
    return PanelMatrix(values, tuple(row_order), tuple(col_order))


def save_panel(panel: PanelMatrix, path, layout: str = "wide") -> None:
    """Write a panel to CSV with 17 significant digits (lossless round-trip)."""
    fmt = lambda x: format(x, ".17g")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if layout == "wide":
            writer.writerow([""] + list(panel.col_ids))
            for rid, row in zip(panel.row_ids, panel.values):
                writer.writerow([rid] + [fmt(v) for v in row])
        elif layout == "long":
            writer.writerow(["row", "col", "value"])
            for i, rid in enumerate(panel.row_ids):
                for j, cid in enumerate(panel.col_ids):
                    writer.writerow([rid, cid, fmt(panel.values[i, j])])
        else:
            raise ValueError(f"unknown layout {layout!r}")
