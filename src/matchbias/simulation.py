"""Monte Carlo engine for matching-estimator bias studies.

Runs replicated sample -> match -> estimate pipelines and aggregates the
empirical bias and standard error of the ATT estimator against its
theoretical limit. Replications get independent seeds derived from the
master seed, so results are identical whether they run serially or in
forked worker processes (as many as the MATCHBIAS_THREADS environment
variable allows). A cell is split into one contiguous range of
replications per worker; each range derives its seeds and Philox keys in
one vectorized pass (population.prepare_streams), and the streams are the
ones NumPy's SeedSequence gives each seed.
"""

from __future__ import annotations

import ctypes
import logging
import math
import os
import pickle
import signal
import time
from dataclasses import dataclass, replace

import numpy as np

from . import estimators, matching, population, theory
from .matching import MatchConfig, check_method
from .population import PopulationSpec, derive_seed, whole_number

log = logging.getLogger(__name__)


class SimulationError(RuntimeError):
    """Every replication of a cell failed."""


@dataclass(frozen=True)
class SimConfig:
    """One simulation campaign: a grid of populations and sample sizes.

    n_values, reps and master_seed are ints; see population.whole_number.
    """

    a_values: tuple[float, ...]
    n_values: tuple[int, ...]
    reps: int
    master_seed: int
    match_method: str = "exact"
    match_config: MatchConfig = MatchConfig()
    spec_kind: str = "prognostic"

    def __post_init__(self):
        if not self.a_values:
            raise ValueError("a_values must be nonempty")
        if not self.n_values:
            raise ValueError("n_values must be nonempty")
        object.__setattr__(self, "n_values", tuple(
            whole_number(n, "n_values", 0) for n in self.n_values))
        for key, least in (("reps", 1), ("master_seed", 0)):
            object.__setattr__(self, key, whole_number(getattr(self, key), key, least))
        if self.spec_kind not in ("prognostic", "categorical", "custom"):
            raise ValueError(f"unknown spec_kind: {self.spec_kind!r}")
        check_method(self.match_method)


@dataclass(frozen=True)
class SimRow:
    """One Monte Carlo cell of the results table."""

    a: float
    n: int
    asymp_bias: float
    emp_bias: float
    emp_se: float
    reps_done: int
    degenerate_count: int
    note: str = ""


def _rep_task(args):
    """Replications start <= r < stop of a cell; returns one (ok, tau_hat,
    err, degenerate, message) per replication, in order.

    A task carries the cell seed and one worker's range of replication
    indices. population.prepare_streams derives the range's replication
    seeds, derive_seed(seed, r), and their Philox keys in one vectorized
    pass, in the process that runs the task, after re-deriving the first
    through NumPy's SeedSequence. Only a ValueError from sampling and a
    MatchingError from the matcher other than InfeasibleError, which applies
    the zero convention, count as a failed replication. Any other
    error is a bug: it is re-raised as RuntimeError naming the spec, n and
    the rep seed that reproduces it.
    """
    spec, n, seed, start, stop, method, config = args
    results = []
    for rep_seed in population.prepare_streams(seed, start, stop):
        try:
            results.append(_replicate(spec, n, rep_seed, method, config))
        except Exception as exc:
            raise RuntimeError(f"replication of {spec.name} at n={n} with rep seed "
                               f"{rep_seed} failed: {exc!r}") from exc
    return results


def _replicate(spec, n, rep_seed, method, config):
    try:
        smp = population.sample(spec, n, rep_seed)
    except ValueError as exc:
        return False, math.nan, math.nan, False, str(exc)
    t_scores, c_scores = smp.treated_scores, smp.control_scores
    try:
        m = matching.match_scores(t_scores, c_scores, method, config)
    except matching.InfeasibleError:
        est = estimators.att_matching(smp, None)
    except matching.MatchingError as exc:
        return False, math.nan, math.nan, False, str(exc)
    else:
        if config.caliper is not None:
            m, _ = matching.apply_caliper(m, t_scores, c_scores, config.caliper)
            est = estimators.att_caliper(smp, m)
        else:
            est = estimators.att_matching(smp, m)
    if spec.tau_att_true is not None:
        tau = spec.tau_att_true
    elif smp.n1 > 0:
        tau = estimators.att_true_sample(smp)
    else:
        tau = math.nan
    return True, est.value, est.value - tau, est.degenerate, ""


def _worker_count(reps: int) -> int:
    """Workers for a cell of `reps` replications: MATCHBIAS_THREADS, else
    the CPU count, and never more than reps; 1 where os.fork does not
    exist."""
    env = os.environ.get("MATCHBIAS_THREADS", "")
    if env:  # anything but digits reaches whole_number as text, which it refuses
        cap = whole_number(int(env) if env.isdecimal() else env, "MATCHBIAS_THREADS", 1)
    else:
        cap = os.cpu_count() or 1
    return min(cap, reps) if hasattr(os, "fork") else 1


_M_TRIM_THRESHOLD = -1  # mallopt parameters, from glibc's malloc.h
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Worker set-up: keep freed memory in the worker's heap.

    By default glibc returns freed memory to the kernel (heap trim, munmap
    of large blocks), so each replication of a cell page-faults its arrays
    back in; at n = 1e5 that was 2,385 minor faults (about 6.5 ms) per
    replication.
    A 1 GiB trim threshold keeps the freed heap, and a 32 MiB mmap
    threshold keeps arrays up to that size in it (setting either one turns
    off glibc's dynamic thresholds, and the trim threshold alone sends the
    800 KB arrays of n = 1e5 to mmap on every allocation). A worker lives
    for one cell, so the heap it keeps goes away with it. Off glibc, or if
    ctypes cannot reach mallopt, this does nothing: if it raised, the
    worker would fail its range.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(_M_TRIM_THRESHOLD, 1 << 30)
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    except (AttributeError, OSError, TypeError, ValueError):
        pass


def _fork_range(task):
    """Fork a worker for one range task: (pid, read end of its pipe), or
    None, after a warning, when the pipe or the fork fails.

    The worker runs `_keep_freed_heap` and `_rep_task`, pickles the result
    list or the exception raised to the pipe and leaves by os._exit; it
    never returns into the caller's code. An exception that does not
    survive pickling is sent as a RuntimeError holding its text.
    """
    fds = ()
    try:
        fds = os.pipe()
        pid = os.fork()
    except OSError as exc:
        for fd in fds:
            os.close(fd)
        log.warning("cannot fork a worker (%s); running replications %d..%d "
                    "serially", exc, task[3], task[4] - 1)
        return None
    read_fd, write_fd = fds
    if pid:
        os.close(write_fd)
        return pid, read_fd
    code = 1
    try:
        os.close(read_fd)
        try:
            _keep_freed_heap()
            payload = _rep_task(task)
        except BaseException as exc:  # sent to the parent, which raises it
            payload = exc
        try:
            data = pickle.dumps(payload)
            if isinstance(payload, BaseException):
                pickle.loads(data)  # an exception can pickle and still not unpickle
        except Exception as exc:
            data = pickle.dumps(RuntimeError(
                f"worker could not send {payload!r}: {exc!r}"))
        with open(write_fd, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def _run_reps(spec, n, reps, seed, method, config):
    """Run the replications in forked workers, or serially with one worker.

    The cell is split into one contiguous range of replication indices per
    worker, and `_rep_task` derives the seeds of its range wherever it
    runs, so the results do not depend on the worker count. Each range
    gets a direct child from `_fork_range`; a range whose fork fails runs
    in the calling process, which keeps its allocator settings. The ranges
    are read in order, so an error from the lowest failing range is raised
    and names the first failing replication's seed; a worker that dies
    without a result raises a RuntimeError naming the range and its exit
    status. Every worker is killed if still running and reaped before this
    returns or raises, so RUSAGE_CHILDREN counts it and none outlives the
    cell.
    """
    workers = _worker_count(reps)
    tasks = [(spec, n, seed, reps * w // workers, reps * (w + 1) // workers,
              method, config) for w in range(workers)]
    if workers == 1:
        return _rep_task(tasks[0])
    pids, fds = {}, {}  # range index -> worker pid, read end; until reaped
    try:
        for w, task in enumerate(tasks):
            forked = _fork_range(task)
            if forked is not None:
                pids[w], fds[w] = forked
        results = []
        for w, task in enumerate(tasks):
            if w not in pids:
                results += _rep_task(task)
                continue
            with open(fds.pop(w), "rb") as pipe:
                data = pipe.read()
            status = os.waitpid(pids[w], 0)[1]
            del pids[w]
            if status or not data:
                code = os.waitstatus_to_exitcode(status)
                how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                raise RuntimeError(
                    f"worker for replications {task[3]}..{task[4] - 1} of "
                    f"{spec.name} at n={n} with cell seed {seed} died without "
                    f"a result ({how})")
            part = pickle.loads(data)
            if isinstance(part, BaseException):
                raise part
            results += part
        return results
    finally:
        for fd in fds.values():
            os.close(fd)
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def run_cell(spec: PopulationSpec, n: int, reps: int, seed: int,
             method: str = "exact",
             config: MatchConfig | None = None) -> SimRow:
    """One Monte Carlo cell: `reps` replications at sample size n.

    Per replication: draw a sample with a seed derived from (seed, rep),
    match with the requested method, estimate the ATT, and record the error
    against the population ATT (the spec's analytic value when known, the
    sample-level mean of y1 - y0 over treated otherwise). Empirical SE is
    the standard deviation of the estimator across replications. The cell
    fails only if every replication fails; an error that is not a failed
    replication (see _rep_task) propagates as RuntimeError. An n, reps or
    seed that population.whole_number refuses raises before any replication.
    """
    n = whole_number(n, "n", 0)
    reps = whole_number(reps, "reps", 1)
    seed = whole_number(seed, "seed", 0)
    check_method(method)
    cfg = config if config is not None else MatchConfig()
    results = _run_reps(spec, n, reps, seed, method, cfg)
    oks = [r for r in results if r[0]]
    if not oks:
        raise SimulationError(f"all {reps} replications failed: {results[0][4]}")
    taus = np.asarray([r[1] for r in oks])
    errs = np.asarray([r[2] for r in oks])
    emp_bias = float(np.nanmean(errs))
    emp_se = float(np.std(taus, ddof=1)) if taus.size > 1 else 0.0
    note = "" if len(oks) == reps else \
        f"{reps - len(oks)} replications failed: {next(r[4] for r in results if not r[0])}"
    return SimRow(a=math.nan, n=n, asymp_bias=math.nan, emp_bias=emp_bias,
                  emp_se=emp_se, reps_done=len(oks),
                  degenerate_count=sum(1 for r in oks if r[3]), note=note)


def _asymptotic_bias_for(config: SimConfig, a: float, spec) -> float:
    if config.spec_kind == "prognostic":
        try:
            return theory.prognostic_bias_closed_form(a)
        except ValueError:
            return theory.asymptotic_bias_score(spec).bias
    if config.spec_kind == "custom":
        return theory.asymptotic_bias_score(spec).bias
    return math.nan  # categorical scores have atoms; no continuous-score limit


def run_table(config: SimConfig, spec_factory=None, on_cell=None) -> list[SimRow]:
    """Run the full a x n grid and return rows ordered by (a, n) ascending.

    spec_factory maps an a-value to a PopulationSpec; it defaults to the
    prognostic family and is required for other spec kinds. Per-cell
    failures are recorded in the row (NaN metrics plus a note) without
    aborting the table. on_cell, when given, receives (row, seconds) after
    each cell.
    """
    if spec_factory is None:
        if config.spec_kind != "prognostic":
            raise ValueError(f"spec_kind {config.spec_kind!r} needs a spec_factory")
        spec_factory = population.make_prognostic_spec
    rows = []
    for ai, a in enumerate(sorted(config.a_values)):
        spec = spec_factory(a)
        asymp = _asymptotic_bias_for(config, a, spec)
        for ni, n in enumerate(sorted(config.n_values)):
            seed = derive_seed(config.master_seed, ai, ni)
            started = time.perf_counter()
            try:
                row = run_cell(spec, n, config.reps, seed,
                               config.match_method, config.match_config)
                row = replace(row, a=a, asymp_bias=asymp)
            except SimulationError as exc:
                row = SimRow(a=a, n=n, asymp_bias=asymp, emp_bias=math.nan,
                             emp_se=math.nan, reps_done=0, degenerate_count=0,
                             note=str(exc))
            rows.append(row)
            if on_cell is not None:
                on_cell(row, time.perf_counter() - started)
    return rows


def compare_methods(spec: PopulationSpec, n: int, reps: int, seed: int,
                    config: MatchConfig | None = None) -> dict[str, SimRow]:
    """Head-to-head bias comparison of the matcher variants.

    Runs matching without replacement, with replacement, capacitated, and
    the caliper variant on identical samples (replication seeds are shared
    across methods).
    """
    cfg = config if config is not None else MatchConfig()
    capacity = cfg.capacity if cfg.capacity > 1 else 2
    caliper = cfg.caliper if cfg.caliper is not None else 0.1
    variants = {
        "without_replacement": ("exact", replace(cfg, caliper=None)),
        "with_replacement": ("replacement", replace(cfg, caliper=None)),
        f"capacitated_k{capacity}": (
            "capacitated", replace(cfg, capacity=capacity, caliper=None)),
        "caliper": ("exact", replace(cfg, caliper=caliper)),
    }
    out = {}
    for name, (method, mcfg) in variants.items():
        out[name] = run_cell(spec, n, reps, seed, method, mcfg)
    return out


CSV_HEADER = "a,n,asymp_bias,emp_bias,emp_se,reps,degenerate"


def csv_row(r: SimRow) -> str:
    """One row in the CSV_HEADER layout, without a line ending."""
    return (f"{r.a!r},{r.n},{r.asymp_bias!r},{r.emp_bias!r},"
            f"{r.emp_se!r},{r.reps_done},{r.degenerate_count}")


def rows_to_csv(rows, path) -> None:
    """Write rows as CSV `a,n,asymp_bias,emp_bias,emp_se,reps,degenerate`."""
    with open(path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\r\n")
        for r in rows:
            fh.write(csv_row(r) + "\r\n")


def rows_to_markdown(rows) -> str:
    """Markdown table with the study's canonical columns."""
    lines = ["| a | n | Asymp. bias | Emp. bias | Emp. SE |",
             "| ---: | ---: | ---: | ---: | ---: |"]
    for r in rows:
        lines.append(f"| {r.a:g} | {r.n} | {r.asymp_bias:.4f} "
                     f"| {r.emp_bias:.4f} | {r.emp_se:.4f} |")
    return "\n".join(lines) + "\n"
