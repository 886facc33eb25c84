import numpy as np
import pytest

from ufm.errors import (
    DuplicateCellError,
    MissingCellError,
    NonNumericCellError,
    RaggedRowsError,
)
from ufm.panel import (
    EstimatorConfig,
    FactorEstimate,
    PanelMatrix,
    QuantileGrid,
    load_panel,
    make_quantile_grid,
    save_panel,
    single_level_grid,
)
from ufm.ufa import parameter_box


def _write(tmp_path, text, name="panel.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadPanel:
    def test_wide_without_row_labels(self, tmp_path):
        panel = load_panel(_write(tmp_path, "a,b\n1,2\n3,4\n"), "wide")
        assert np.array_equal(panel.values, [[1.0, 2.0], [3.0, 4.0]])
        assert panel.col_ids == ("a", "b")

    def test_wide_with_row_labels(self, tmp_path):
        panel = load_panel(_write(tmp_path, ",a,b\nr,1,2\ns,3,4\n"), "wide")
        assert np.array_equal(panel.values, [[1.0, 2.0], [3.0, 4.0]])
        assert panel.row_ids == ("r", "s")

    def test_wide_ragged(self, tmp_path):
        with pytest.raises(RaggedRowsError):
            load_panel(_write(tmp_path, "a,b\n1,2\n3,4,5\n"), "wide")

    def test_wide_non_numeric(self, tmp_path):
        with pytest.raises(NonNumericCellError):
            load_panel(_write(tmp_path, "a,b\n1,x\n3,4\n"), "wide")

    def test_wide_empty_cell(self, tmp_path):
        with pytest.raises(MissingCellError):
            load_panel(_write(tmp_path, "a,b\n1,\n3,4\n"), "wide")

    def test_wide_nan_cell(self, tmp_path):
        with pytest.raises(MissingCellError):
            load_panel(_write(tmp_path, "a,b\n1,nan\n3,4\n"), "wide")

    def test_long_roundtrip(self, tmp_path):
        text = "row,col,value\nr0,c0,1.5\nr0,c1,2\nr1,c0,3\nr1,c1,4\n"
        panel = load_panel(_write(tmp_path, text), "long")
        assert np.array_equal(panel.values, [[1.5, 2.0], [3.0, 4.0]])

    def test_long_duplicate_cell(self, tmp_path):
        text = "row,col,value\nr0,c0,1\nr0,c0,2\nr1,c0,3\nr1,c1,4\n"
        with pytest.raises(DuplicateCellError):
            load_panel(_write(tmp_path, text), "long")

    def test_long_missing_cell(self, tmp_path):
        text = "row,col,value\nr0,c0,1\nr0,c1,2\nr1,c0,3\n"
        with pytest.raises(MissingCellError):
            load_panel(_write(tmp_path, text), "long")

    @pytest.mark.parametrize("layout", ["wide", "long"])
    def test_save_load_identity_50x50(self, tmp_path, rng, layout):
        values = rng.normal(size=(50, 50)) * np.exp(rng.normal(size=(50, 50)))
        panel = PanelMatrix.from_values(values)
        path = tmp_path / f"roundtrip_{layout}.csv"
        save_panel(panel, path, layout)
        back = load_panel(path, layout)
        assert np.array_equal(back.values, panel.values)
        assert back.row_ids == panel.row_ids
        assert back.col_ids == panel.col_ids


class TestPanelMatrix:
    def test_rejects_non_finite(self):
        with pytest.raises(MissingCellError):
            PanelMatrix.from_values(np.array([[1.0, np.inf], [0.0, 1.0]]))

    def test_rejects_mismatched_ids(self):
        with pytest.raises(ValueError):
            PanelMatrix(np.eye(3), ("a", "b"), ("x", "y", "z"))

    def test_values_read_only(self):
        panel = PanelMatrix.from_values(np.eye(4))
        with pytest.raises(ValueError):
            panel.values[0, 0] = 7.0

    def test_submatrix(self):
        panel = PanelMatrix.from_values(np.arange(12.0).reshape(3, 4))
        block = panel.submatrix([0, 2], [1, 3])
        assert np.array_equal(block, [[1.0, 3.0], [9.0, 11.0]])


class TestQuantileGrid:
    def test_paper_grid(self):
        grid = make_quantile_grid(9, 0.04)
        assert np.allclose(grid.levels, np.arange(1, 10) / 10.0)
        assert grid.m_count == 9
        assert all(m == "central" for m in grid.modes)

    def test_single_level(self):
        assert np.array_equal(make_quantile_grid(1, 0.1).levels, [0.5])

    def test_quarters(self):
        grid = make_quantile_grid(3, 0.01)
        assert np.array_equal(grid.levels, [0.25, 0.5, 0.75])

    @pytest.mark.parametrize("m", [2, 5, 6, 9, 14, 23])
    def test_symmetry_exact(self, m):
        grid = make_quantile_grid(m, 0.25 / (m + 1))
        for tau_lo, tau_hi in zip(grid.levels, grid.levels[::-1]):
            assert tau_lo + tau_hi == 1.0

    def test_boundary_modes(self):
        grid = make_quantile_grid(9, 0.046)
        assert grid.modes[0] == "forward"
        assert grid.modes[-1] == "backward"
        assert grid.modes[4] == "central"
        assert grid.stencil_levels(0).min() > 0.0
        assert grid.stencil_levels(8).max() < 1.0

    def test_shift_bound(self):
        with pytest.raises(ValueError):
            make_quantile_grid(9, 0.2)

    def test_stencil_leaving_unit_interval(self):
        with pytest.raises(ValueError):
            single_level_grid(0.5, 0.3)

    def test_all_stencil_levels_sorted_unique(self):
        grid = make_quantile_grid(9, 0.04)
        levels = grid.all_stencil_levels()
        assert np.all(np.diff(levels) > 0)
        assert levels.size == 36


class TestEstimatorConfig:
    def test_bandwidth_default(self):
        panel = PanelMatrix.from_values(np.random.default_rng(0).normal(size=(30, 40)))
        config = EstimatorConfig(rank=2).with_bandwidth_for(panel)
        assert config.bandwidth_h == pytest.approx(30 ** (-1 / 13))
        y = panel.values
        lo, hi = parameter_box(y)
        assert lo == -hi
        assert hi == 10.0 * max(np.abs(y).max(), 1.0) / min(1.0, y.std())
        assert hi > np.abs(y).max()

    def test_bandwidth_validation(self):
        with pytest.raises(ValueError):
            EstimatorConfig(rank=1, bandwidth_h=1.5)

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            EstimatorConfig(rank=0)
        with pytest.raises(ValueError):
            EstimatorConfig(rank="both")

    def test_kernel_order_validation(self):
        with pytest.raises(ValueError):
            EstimatorConfig(rank=1, kernel_order=5)


class TestFactorEstimate:
    def test_invariants_pass(self, rng):
        t, r, m, n = 12, 2, 3, 8
        q, _ = np.linalg.qr(rng.normal(size=(t, r)))
        f = np.sqrt(t) * q
        lam = rng.normal(size=(m, n, r))
        # rotate loadings so the Gram average is diagonal with decreasing diag
        gram = np.einsum("mnr,mns->rs", lam, lam) / (m * n)
        w, v = np.linalg.eigh(gram)
        lam = lam @ v[:, ::-1]
        eigs = np.sort(w)[::-1]
        FactorEstimate(f, lam, eigs).check_invariants()

    def test_invariants_fail_on_bad_factors(self, rng):
        f = rng.normal(size=(10, 2))
        lam = np.zeros((2, 5, 2))
        with pytest.raises(AssertionError):
            FactorEstimate(f, lam, np.array([1.0, 0.5])).check_invariants()
