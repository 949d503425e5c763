"""The benchmark's workloads: what each one runs, at which size, and why.

Every workload is a closed loop: `run_cell` and `run_table` return only when
every replication has finished, so one call is one unit of timed work.
Importing this module imports matchbias, which is part of set-up time.
"""

from __future__ import annotations

import contextlib
import csv
import io
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

from matchbias import cli, population, simulation
from matchbias.matching import MatchConfig

DEFAULT_SEED = 20260811
ROOT = Path(__file__).resolve().parent.parent
TABLE_CONFIG = "configs/table_s1_desk.json"
CELL_A = 1.0 / 3.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    A table workload runs `matchbias simulate` in-process on the desk config
    with the sample size overridden to `n`; any other workload is one
    `run_cell` at a = CELL_A. `batch_reps` replications make one timed call;
    `gate_reps` replications make the correctness-gate call at the default
    seed, whose rows are pinned in references.json.
    """

    name: str
    n: int
    batch_reps: int
    gate_reps: int
    method: str = "exact"
    caliper: float | None = None
    table: bool = False

    @property
    def without_replacement(self) -> bool:
        return self.method != "replacement"


# Why each workload is here is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    # one call is one rep per worker, about 8 s on two cores
    Workload("exact_n1e5", n=100_000, batch_reps=2, gate_reps=2),
    # a caliper of 1e-4 drops about 3% of treated units, so both the keep
    # and the drop branch run
    Workload("replacement_caliper_n1e5", n=100_000, batch_reps=40,
             gate_reps=40, method="replacement", caliper=1e-4),
    # three cells (a = 1/3, 4/9, 1) of banded matching in its exact regime
    Workload("table_n100", n=100, batch_reps=2000, gate_reps=200,
             method="banded", table=True),
)}

# Small sizes for the self-test and for the warm-up call before timing.
TINY = {
    "exact_n1e5": replace(WORKLOADS["exact_n1e5"], n=2000),
    "replacement_caliper_n1e5": replace(
        WORKLOADS["replacement_caliper_n1e5"], n=2000, batch_reps=4,
        gate_reps=8),
    "table_n100": replace(WORKLOADS["table_n100"], batch_reps=20,
                          gate_reps=20),
}


class Row(NamedTuple):
    """One cell of output, as `SimRow` or the CLI's table.csv gives it."""

    a: float
    n: int
    asymp_bias: float
    emp_bias: float
    emp_se: float
    reps_done: int
    degenerate: int
    note: str


def run_once(wl: Workload, seed: int, reps: int, out_dir: Path) -> list[Row]:
    """Run the workload once with `reps` replications per cell.

    Calls go through module attributes (`simulation.run_cell`, `cli.main`)
    so that a tracer that wraps them sees every call.
    """
    if wl.table:
        return _run_table(wl, seed, reps, out_dir)
    row = simulation.run_cell(population.make_prognostic_spec(CELL_A), wl.n,
                              reps, seed, wl.method,
                              MatchConfig(caliper=wl.caliper))
    return [Row(CELL_A, row.n, row.asymp_bias, row.emp_bias, row.emp_se,
                row.reps_done, row.degenerate_count, row.note)]


def _run_table(wl: Workload, seed: int, reps: int, out_dir: Path) -> list[Row]:
    argv = ["simulate", "--config", str(ROOT / TABLE_CONFIG),
            "--n", str(wl.n), "--reps", str(reps), "--seed", str(seed),
            "--out-dir", str(out_dir)]
    (out_dir / "table.csv").unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    note = "" if code == cli.EXIT_OK else f"simulate exited {code}"
    with open(out_dir / "table.csv", newline="") as fh:
        return [Row(float(r["a"]), int(r["n"]), float(r["asymp_bias"]),
                    float(r["emp_bias"]), float(r["emp_se"]), int(r["reps"]),
                    int(r["degenerate"]), note)
                for r in csv.DictReader(fh)]
