"""Self-test of the benchmark's output checks.

    python3 benchmark/selftest.py

Runs one real operation of every workload, confirms that all checks pass on
its outputs, then corrupts a copy of those outputs once per case below and
confirms that the named check rejects the copy. A check that accepted a
corrupted copy would pass vacuously. Exits 1 if any case goes wrong.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run

run._import_ufm()

import checks  # noqa: E402
import workloads  # noqa: E402


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _write_rows(path: Path, rows: list[list[str]]) -> None:
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")


def scale_cells(name: str, factor: float, row: int | None = None, col: int = 1):
    """Multiply one cell (or a whole column when ``row`` is None) of a CSV."""
    def corrupt(out: Path, ctx: dict) -> None:
        rows = _rows(out / name)
        for r in (range(1, len(rows)) if row is None else [row]):
            rows[r][col] = repr(float(rows[r][col]) * factor)
        _write_rows(out / name, rows)
    return corrupt


def set_cell(name: str, row: int, col: int, value: str):
    def corrupt(out: Path, ctx: dict) -> None:
        rows = _rows(out / name)
        rows[row][col] = value
        _write_rows(out / name, rows)
    return corrupt


def drop_last_row(name: str):
    def corrupt(out: Path, ctx: dict) -> None:
        _write_rows(out / name, _rows(out / name)[:-1])
    return corrupt


def reverse_column(name: str):
    def corrupt(out: Path, ctx: dict) -> None:
        rows = _rows(out / name)
        values = [r[1] for r in rows[1:]][::-1]
        for r, v in zip(rows[1:], values):
            r[1] = v
        _write_rows(out / name, rows)
    return corrupt


def set_manifest(key: str, value):
    def corrupt(out: Path, ctx: dict) -> None:
        man = json.loads((out / "manifest.json").read_text())
        man[key] = value
        (out / "manifest.json").write_text(json.dumps(man))
    return corrupt


def weight_outside_band(out: Path, ctx: dict) -> None:
    rows = _rows(out / "weights.csv")
    weights = sorted(float(r[3]) for r in rows[1:])
    rows[len(rows) // 2][3] = repr(25.0 * weights[len(weights) // 2])
    _write_rows(out / "weights.csv", rows)


def swap_eigenvalues(out: Path, ctx: dict) -> None:
    rows = _rows(out / "rank_eigenvalues.csv")
    rows[1][1], rows[2][1] = rows[2][1], rows[1][1]
    _write_rows(out / "rank_eigenvalues.csv", rows)


def mc_adj_r2(estimator: str, value: str):
    def corrupt(out: Path, ctx: dict) -> None:
        rows = _rows(out / "table2_reps.csv")
        for r in rows[1:]:
            if r[2] == estimator:
                r[4] = value
        _write_rows(out / "table2_reps.csv", rows)
    return corrupt


def threshold_under_second_eigenvalue(out: Path, ctx: dict) -> None:
    set_manifest("threshold", 0.5 * checks.read_eigenvalues(out)[1])(out, ctx)


# workload -> [(check expected to reject, description, corruption)]
CASES = {
    "estimate-idw": [
        ("rank_one", "r_hat changed to 2", set_manifest("r_hat", 2)),
        ("orthonormal", "factor column scaled by 1.01", scale_cells("factors.csv", 1.01)),
        ("recovery", "factor rows reversed", reverse_column("factors.csv")),
        ("weights", "one weight at 25x the median", weight_outside_band),
        ("weights", "one weight row dropped", drop_last_row("weights.csv")),
        ("weights", "one weight negative", set_cell("weights.csv", 7, 3, "-0.5")),
        ("se_match", "one factor SE times 1+1e-6",
         scale_cells("se_factors.csv", 1 + 1e-6, row=5)),
        ("se_match", "one loading SE times 1+1e-6",
         scale_cells("se_loadings_tau_0.5.csv", 1 + 1e-6, row=9)),
    ],
    "infer-wide": [
        ("se_positive", "one common SE set to 0", set_cell("se_common_tau_0.5.csv", 3, 4, "0")),
        ("se_positive", "one factor SE set to nan", set_cell("se_factors.csv", 2, 1, "nan")),
        ("se_identity", "one common SE times 1+1e-6",
         scale_cells("se_common_tau_0.5.csv", 1 + 1e-6, row=3, col=4)),
        ("se_identity", "one factor SE times 1+1e-6",
         scale_cells("se_factors.csv", 1 + 1e-6, row=11)),
    ],
    "rank-units": [
        ("rank_one", "r_hat changed to 2", set_manifest("r_hat", 2)),
        ("eigenvalues", "first two eigenvalues swapped", swap_eigenvalues),
        ("eigenvalues", "last eigenvalue set to -1e-3",
         set_cell("rank_eigenvalues.csv", 200, 1, "-1e-3")),
        ("eigenvalues", "last eigenvalue dropped", drop_last_row("rank_eigenvalues.csv")),
        ("threshold_count", "threshold lowered under the second eigenvalue",
         threshold_under_second_eigenvalue),
    ],
    "mc-table2": [
        ("rows", "last repetition row dropped", drop_last_row("table2_reps.csv")),
        ("recovery", "ufa adjusted R2 set to 0.1", mc_adj_r2("ufa", "0.1")),
        ("recovery", "idw-ufa adjusted R2 set to 0.1", mc_adj_r2("idw-ufa", "0.1")),
        ("recovery", "qfa-ini-tau adjusted R2 set to 0.1", mc_adj_r2("qfa-ini-tau", "0.1")),
        ("blind", "pca adjusted R2 set to 0.9", mc_adj_r2("pca", "0.9")),
        ("blind", "qfa-ini-tau adjusted R2 set to 0.9", mc_adj_r2("qfa-ini-tau", "0.9")),
    ],
}


def main() -> int:
    bad = 0
    (run.ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_out") as tmp:
        tmp = Path(tmp)
        for name, cases in CASES.items():
            wl = workloads.WORKLOADS[name](seed=7, work=tmp)
            op = wl.round(0)[0]
            real = tmp / f"{name}-real"
            if op.run(real) != 0:
                print(f"FAIL {name}: the operation itself failed")
                bad += 1
                continue
            found = checks.run_checks(name, real, op.ctx)
            print(f"{'FAIL' if found else 'ok  '} {name}: real output passes every check"
                  + (f" -- {found}" if found else ""))
            bad += bool(found)
            for check, what, corrupt in cases:
                copy = tmp / f"{name}-corrupt"
                shutil.rmtree(copy, ignore_errors=True)
                shutil.copytree(real, copy)
                corrupt(copy, op.ctx)
                problems = checks.run_checks(name, copy, op.ctx).get(check)
                print(f"{'ok  ' if problems else 'FAIL'} {name}: {check} rejects {what}"
                      + (f" -- {problems[0][:90]}" if problems else ""))
                bad += not problems
    print(f"{bad} failing case(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
