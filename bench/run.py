"""Benchmark of matchbias Monte Carlo replication throughput.

Run from the root of a matchbias checkout:

    python3 bench/run.py --workload exact_n1e5 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py          # every workload, untraced and traced

--trace 0 times a closed loop of workload calls on a pool of nproc workers
with tracing off and reports the end-to-end metrics: replications per
second (median over calls), set-up seconds (median over fresh
interpreters) and peak RSS. --trace 1 reports per-layer metrics from a
traced serial run (MATCHBIAS_THREADS=1) of the correctness-gate cell, next
to untraced serial and pooled runs of the same cell.

Both modes end with the correctness gate at the default seed: pooled and
serial rows bit-identical, every replication done, one replication per
cell re-checked, and emp_bias/emp_se equal to references.json. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Exit code 0 when the gate passes, 1 when it
does not, 2 outside a checkout that has src/matchbias.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("exact_n1e5", "replacement_caliper_n1e5", "table_n100")
MIN_BATCHES = 3
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=20260811,
                        help="seed of the timed inputs (the gate always "
                             "runs at the default seed)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every workload small, for the "
                             "benchmark's self-test")
    args = parser.parse_args(argv)

    if not (SRC / "matchbias" / "__init__.py").is_file():
        print(f"bench: {SRC} has no matchbias package; run from the root "
              "of a matchbias checkout", file=sys.stderr)
        return 2
    for path in (str(BENCH), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import matchbias
    if not Path(matchbias.__file__).resolve().is_relative_to(SRC):
        print(f"bench: imported matchbias from {matchbias.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    if args.workload == "all":
        return run_all(args)
    scratch = ROOT / ".bench_run"
    scratch.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        return run_workload(args, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def run_workload(args, out_dir: Path) -> int:
    import gate
    import workloads
    from tracing import Tracer, per_layer_metrics

    wl = (workloads.TINY if args.size == "tiny"
          else workloads.WORKLOADS)[args.workload]
    nproc = len(os.sched_getaffinity(0))
    print(f"bench {wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size}")
    print("env " + json.dumps(environment(nproc)))
    tiny = workloads.TINY[wl.name]
    with threads(nproc):  # warm-up: lazy imports, first pool start
        workloads.run_once(tiny, workloads.DEFAULT_SEED, tiny.batch_reps,
                           out_dir)

    report: dict[str, tuple[float, str, str]] = {}
    breaches: list[str] = []
    if args.trace == 0:
        with threads(nproc):
            rates, rows = timed_loop(workloads, wl, args.seed, args.seconds,
                                     out_dir)
        # ru_maxrss is in KiB on Linux
        rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        rss_pool = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6
        breaches += gate.complete("timed", rows, wl.batch_reps)
        probes = setup_probes(wl.name, out_dir)
        report = {
            "reps_per_s": (statistics.median(rates), "1/s",
                           f"median of {len(rates)} calls of {wl.batch_reps} "
                           f"reps x {len(rows) // len(rates)} cells, range "
                           f"{min(rates):.4g}..{max(rates):.4g}"),
            "setup_s": (statistics.median(probes), "s",
                        f"median of {len(probes)} fresh set-ups"),
            "peak_rss_mb": (max(rss_self, rss_pool), "MB",
                            f"self {rss_self:.1f}, pool workers {rss_pool:.1f}"),
        }

    # correctness gate at the default seed; with --trace 1 these runs are
    # also the per-layer measurement
    reps = wl.gate_reps
    runs = {}
    with threads(nproc):
        runs["pooled"] = timed_call(workloads, wl, reps, out_dir)
    with threads(1):
        if args.trace == 1:
            runs["serial"] = timed_call(workloads, wl, reps, out_dir)
        tracer = Tracer()
        with tracer.installed():
            runs["traced serial"] = timed_call(workloads, wl, reps, out_dir)
    pooled = runs["pooled"][0]
    breaches += gate.complete("gate", pooled, reps)
    for label, (other, _) in runs.items():
        breaches += gate.identical("pooled", pooled, label, other)
    breaches += gate.against_references(
        pooled, gate.load_references(args.size, wl.name))
    if len(tracer.captures) != len(pooled):
        breaches.append(f"{len(tracer.captures)} cells traced, "
                        f"{len(pooled)} expected")
    for cap in tracer.captures:
        breaches += gate.recheck_rep(cap, wl.without_replacement)

    if args.trace == 1:
        rows = [row for run_rows, _ in runs.values() for row in run_rows]
        report = per_layer_metrics(tracer, runs["traced serial"][1],
                                   runs["serial"][1], runs["pooled"][1],
                                   min(nproc, reps))
    attempted = (wl.gate_reps if args.trace else wl.batch_reps) * len(rows)
    failed = attempted - sum(r.reps_done for r in rows)
    print(f"{'rep_fail_ratio':<34} {failed / attempted:<12.6g} ratio  "
          f"{failed} of {attempted} reps failed")
    for name, (value, unit, note) in report.items():
        print(f"{name:<34} {value:<12.6g} {unit:<6} {note}")
    for line in breaches:
        print(f"gate breach: {line}")
    print(f"gate {'passed' if not breaches else 'FAILED'}: pooled == serial, "
          "every rep done, one rep per cell re-checked, references at seed "
          f"{workloads.DEFAULT_SEED}")
    print(json.dumps({
        "correct": not breaches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in report.items()},
    }))
    return 0 if not breaches else 1


def timed_call(workloads, wl, reps: int, out_dir: Path):
    """One call of the workload at the default seed: (rows, wall seconds)."""
    started = perf_counter()
    rows = workloads.run_once(wl, workloads.DEFAULT_SEED, reps, out_dir)
    return rows, perf_counter() - started


def timed_loop(workloads, wl, seed: int, seconds: float, out_dir: Path):
    """Closed loop of workload calls for `seconds`, at least MIN_BATCHES.

    Call i runs on seed `seed * 10_000 + i`. Returns each call's completed
    replications per second, and every row.
    """
    rates, rows = [], []
    started = perf_counter()
    while len(rates) < MIN_BATCHES or perf_counter() - started < seconds:
        t0 = perf_counter()
        batch = workloads.run_once(wl, seed * 10_000 + len(rates),
                                   wl.batch_reps, out_dir)
        elapsed = perf_counter() - t0
        rates.append(sum(r.reps_done for r in batch) / elapsed)
        rows += batch
    return rates, rows


def setup_probes(name: str, out_dir: Path) -> list[float]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), name, str(out_dir)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=PROBE_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        times.append(float(done.stdout.split()[-1]))
    return times


@contextlib.contextmanager
def threads(count: int):
    """Cap the replication pool through MATCHBIAS_THREADS for a block."""
    old = os.environ.get("MATCHBIAS_THREADS")
    os.environ["MATCHBIAS_THREADS"] = str(count)
    try:
        yield
    finally:
        if old is None:
            del os.environ["MATCHBIAS_THREADS"]
        else:
            os.environ["MATCHBIAS_THREADS"] = old


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "start_method": multiprocessing.get_start_method(),
        "MATCHBIAS_THREADS": {"timed_and_pooled": str(nproc),
                              "serial_and_traced": "1"},
    }


def run_all(args) -> int:
    """Every workload in a fresh process, untraced then traced."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace), "--size", args.size],
                cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            sys.stderr.write(done.stderr)
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"bench: {name} trace={trace} printed no result "
                      f"(exit {done.returncode})", file=sys.stderr)
                return 2
            code = max(code, done.returncode)
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return code


if __name__ == "__main__":
    sys.exit(main())
