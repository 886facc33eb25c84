"""The four workloads: how each makes its inputs and issues its operations.

Every workload is a closed loop: one client issues one operation at a time
and waits for it, either ``ufm.cli.run_cli`` or ``ufm.simlab.monte_carlo_run``.
A round is a fixed list of operations; runs execute whole rounds, so the
share of failed operations never depends on how long a run lasts. Inputs
of round k come from the paper's generating process (``gen_dgp``, true
rank 1) seeded by (workload, --seed, k).
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import ufm
from ufm import cli, simlab

# A fixed draw, independent of --seed, that `ufm rank` gets wrong in every
# run once rescaled: r_hat is 0 at x0.01 and 20 at x10 against a true rank
# of 1, because the PEL bandwidth and penalty and the rank threshold are
# absolute rather than relative to the data's scale.
UNITS_SEED = [3, 0, 2025]
UNITS_SCALES = (0.01, 10.0)


@dataclass
class Op:
    label: str
    run: Callable[[Path], int]        # writes into the given directory; exit code
    ctx: dict = field(default_factory=dict)
    known_fault: bool = False         # fails its rank check because of the scale defect


def _write_panel(path: Path, n: int, t: int, seed, scale: float = 1.0):
    dgp = ufm.gen_dgp(n, t, seed)
    panel = dgp.panel
    if scale != 1.0:
        panel = ufm.PanelMatrix(panel.values * scale, panel.row_ids, panel.col_ids)
    ufm.save_panel(panel, path)
    return dgp


def _cli(args: list[str]) -> Callable[[Path], int]:
    def run(out: Path) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.run_cli([*args, "--out-dir", str(out)])
    return run


class Workload:
    name = ""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def panel_path(self, k: int, label: str = "x1") -> Path:
        return self.work / f"panel-{k}-{label}.csv"

    def round(self, k: int) -> list[Op]:
        raise NotImplementedError


class EstimateIdw(Workload):
    """Full fitting chain on square panels; the only writer of weights.csv."""

    name, tag, n, t = "estimate-idw", 1, 150, 150

    def round(self, k):
        path = self.panel_path(k)
        dgp = _write_panel(path, self.n, self.t, [self.tag, self.seed, k])
        args = ["estimate", "--method", "idw-ufa", "--rank", "auto", "--input", str(path)]
        return [Op("x1", _cli(args), {"n": self.n, "t": self.t,
                                      "true_factor": dgp.true_factor})]


class InferWide(Workload):
    """T >> N plug-in inference with common-component SEs at tau = 0.5."""

    name, tag, n, t, tau = "infer-wide", 2, 100, 400, 0.5

    def round(self, k):
        path = self.panel_path(k)
        _write_panel(path, self.n, self.t, [self.tag, self.seed, k])
        args = ["infer", "--tau", str(self.tau), "--rank", "auto", "--input", str(path)]
        return [Op("x1", _cli(args), {"n": self.n, "t": self.t, "m": 9, "tau": self.tau})]


class RankUnits(Workload):
    """PEL rank selection on one seeded panel and a fixed panel in two other units."""

    name, tag, n, t = "rank-units", 3, 200, 200

    def __init__(self, seed, work):
        super().__init__(seed, work)
        for scale in UNITS_SCALES:
            _write_panel(self.panel_path(0, f"fixed-x{scale:g}"), self.n, self.t,
                         UNITS_SEED, scale)

    def round(self, k):
        ctx = {"n": self.n, "t": self.t}
        path = self.panel_path(k)
        _write_panel(path, self.n, self.t, [self.tag, self.seed, k])
        ops = [Op("x1", _cli(["rank", "--input", str(path)]), ctx)]
        for scale in UNITS_SCALES:
            fixed = self.panel_path(0, f"fixed-x{scale:g}")
            ops.append(Op(f"x{scale:g}", _cli(["rank", "--input", str(fixed)]), ctx,
                          known_fault=True))
        return ops


class McTable2(Workload):
    """Table 2 repetitions at N=T=50 on two worker threads: many tiny fits."""

    name, size, reps, threads = "mc-table2", 50, 2, 2

    def round(self, k):
        spec = simlab.ExperimentSpec(name="table2", sizes=(self.size,), reps=self.reps)
        seed = self.seed * 1_000_000 + k

        def run(out: Path) -> int:
            simlab.monte_carlo_run(spec, seed=seed, out_dir=out, threads=self.threads)
            return 0
        return [Op("x1", run, {"reps": self.reps})]


WORKLOADS = {w.name: w for w in (EstimateIdw, InferWide, RankUnits, McTable2)}
