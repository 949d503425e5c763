"""Monte Carlo engine for matching-estimator bias studies.

Runs replicated sample -> match -> estimate pipelines and aggregates the
empirical bias and standard error of the ATT estimator against its
theoretical limit. Replications get independent seeds derived from the
master seed, so results are identical whether they run serially or in
forked worker processes (as many as the MATCHBIAS_THREADS environment
variable allows). A cell is split into one contiguous range of
replications per worker; each range derives its seeds and Philox keys in
one vectorized pass (population.prepare_streams), and the streams are the
ones NumPy's SeedSequence gives each seed. The workers are forked once
per run_table or compare_methods call, or per lone run_cell call, and
each runs its range of every cell in turn (`_Workers`).

Where a block of BLOCK_SCORES sorted scores holds two samples or more, a
range runs in blocks, one row per replication: each block is sampled,
matched and estimated in a fixed number of numpy calls (`_block`). A
row's sample is the per-sample pipeline's (`_replicate`) bit for bit, and
it is matched exactly as the per-sample pipeline matches that sample
alone, ties included, so its result is that pipeline's bit for bit. The
per-sample pipeline still runs every replication a block cannot finish
(sampling raised, an assignment probability outside [0, 1], a non-finite
score or a band refusal), every one where a block would hold a single
sample and matching with replacement, and it replays the first
replication a block finishes in each range, whose whole result must come
out the same. The matcher's rules are `matching.capacity`, `.feasible`
and `.band_refuses`; this module states none of them.
"""

from __future__ import annotations

import contextlib
import ctypes
import logging
import math
import os
import pickle
import signal
import sys
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
    run_table's spec_factory maps each a-value to its population.
    """

    a_values: tuple[float, ...]
    n_values: tuple[int, ...]
    reps: int
    master_seed: int
    match_method: str = "exact"
    match_config: MatchConfig = MatchConfig()

    def __post_init__(self):
        if not self.a_values:
            raise ValueError("a_values must be nonempty")
        if not self.n_values:
            raise ValueError("n_values must be nonempty")
        object.__setattr__(self, "n_values", tuple(
            whole_number(n, "n_values", 0) for n in self.n_values))
        for key, least in (("reps", 1), ("master_seed", 0)):
            object.__setattr__(self, key, whole_number(getattr(self, key), key, least))
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


# A block holds at most this many sorted scores, N1 + k * N0 <= k * n per
# sample: 327 samples at n = 100, 32 at 1e3 and 3 at 1e4. Its arrays peak
# at about 100 B per sorted score (tracemalloc: 3.3 MB for 327 rows at
# n = 100, 0.9 MB for 81 rows at 8,192 scores). Against 8,192, a table of
# three n = 100 cells of 2,000 replications on 2 workers ran 15% more
# replications per second.
BLOCK_SCORES = 32768


def _rep_task(args):
    """Replications start <= r < stop of a cell; returns one (ok, tau_hat,
    err, degenerate, message) per replication, in order.

    A task carries the cell seed and one worker's range of replication
    indices. population.prepare_streams derives the range's replication
    seeds, derive_seed(seed, r), and their Philox keys in one vectorized
    pass, in the process that runs the task, after re-deriving the first
    through NumPy's SeedSequence.

    Where a block holds two samples or more, BLOCK_SCORES // (k * n) of
    them (k = `matching.capacity`; k * n up to 16,384), the range runs
    in such blocks, one row per sample, in `_block`, down
    to a last block of one; each replication a block leaves to it runs
    through `_replicate`, the per-sample pipeline, alone. Elsewhere, and
    for "replacement", every replication runs through `_replicate`. Both
    pipelines give a replication the same result, bit for bit, and which
    one runs depends on n, k, the method and its own sample, never on
    where a range or a block begins, so the results do not depend on the
    worker count. The first replication in the range that a block
    finishes is replayed (`_replay`): drawn once and finished by the
    per-sample pipeline, its result must equal the block's.

    Only a ValueError from sampling and a MatchingError from the matcher
    other than InfeasibleError, which applies the zero convention, count
    as a failed replication. Any other error is a bug: it is re-raised as
    RuntimeError naming the spec, n and the rep seed that reproduces it.
    """
    spec, n, seed, start, stop, method, config = args
    rep_seeds = population.prepare_streams(seed, start, stop)
    k = matching.capacity(method, config)
    size = 1 if k is None else BLOCK_SCORES // max(k * n, 1)
    if size < 2:
        return [_checked(spec, n, rep_seed, method, config) for rep_seed in rep_seeds]
    results = []
    replayed = False
    for lo in range(0, len(rep_seeds), size):
        seeds = rep_seeds[lo:lo + size]
        rows, block = _block(spec, n, seeds, method, config)
        for rep_seed, result in zip(seeds, block):
            results.append(result or _checked(spec, n, rep_seed, method, config))
        done = [i for i, r in enumerate(block) if r is not None]
        if done and not replayed:
            # one the block matched, if there is one, so that the replay
            # runs the whole pipeline
            i = next((i for i in done if not block[i][3]), done[0])
            _replay(spec, n, seeds[i], rows, i, block[i], method, config)
            replayed = True
    return results


def _checked(spec, n, rep_seed, method, config, smp=None):
    """`_replicate`, or `_finish` of smp where the replication's Sample is
    given, with any error it raises re-raised as a RuntimeError that names
    the replication."""
    try:
        if smp is None:
            return _replicate(spec, n, rep_seed, method, config)
        return _finish(spec, smp, method, config)
    except Exception as exc:
        raise RuntimeError(f"replication of {spec.name} at n={n} with rep seed "
                           f"{rep_seed} failed: {exc!r}") from exc


def _bits(result):
    """A result tuple with every float as its 8 bytes, so that NaN equals
    NaN and -0.0 differs from 0.0."""
    return tuple(np.float64(x).tobytes() if isinstance(x, float) else x for x in result)


def _replay(spec, n, rep_seed, rows, i, result, method, config):
    """Replay the replication at rep_seed, row i of a block that finished
    it with `result`, through the per-sample pipeline: `population.sample`,
    then `_finish` of the Sample it drew.

    Raises RuntimeError, naming the spec, n and the rep seed, unless
    `population.sample` draws row i of `rows` bit for bit, which a spec
    whose score_from_uniform, assign_prob, mu0 or mu1 is not elementwise
    fails, and unless `_finish` returns `result` bit for bit, floats
    compared by their bytes; that error names both result tuples. The
    replay reaches `population.sample`, and `_finish` `matching.match_scores`
    and `estimators.att_*`, as module attributes, so a wrapper of those
    sees one whole replication per range.
    """
    name = f"replication of {spec.name} at n={n} with rep seed {rep_seed}"
    try:
        alone = population.sample(spec, n, rep_seed)
    except ValueError:
        alone = None
    if alone is None or any(getattr(alone, f).tobytes() != getattr(rows, f)[i].tobytes()
                            for f in ("s", "w", "y0", "y1", "y")):
        raise RuntimeError(f"{name}: its block drew another sample than "
                           "population.sample; are the spec's score_from_uniform, "
                           "assign_prob, mu0 and mu1 elementwise?")
    replayed = _checked(spec, n, rep_seed, method, config, alone)
    if _bits(replayed) != _bits(result):
        raise RuntimeError(f"{name}: its block gave {result}, the per-sample "
                           f"pipeline {replayed}")


def _block(spec, n, seeds, method, config):
    """(rows, results) for the replications at seeds, one row apiece:
    rows is the SampleRows that `population.sample` draws for the list of
    seeds, None if it raised, and results holds the result tuple of each
    replication the block finishes, None for each it leaves to
    `_replicate`.

    `matching.match_rows` matches the rows, the caliper drops pairs across
    the block, and `estimators.segment_means` takes each row's mean pair
    difference in treated-position order, as att_matching and att_caliper
    do. A row with no matching (not `matching.feasible`) takes the zero
    convention. Left to `_replicate`, so that each fails or raises with
    the message it always has: every row when sampling raised, and rows
    with an assignment probability outside [0, 1], a non-finite score or
    a surplus the banded matcher refuses (`matching.band_refuses`).
    """
    try:
        smp = population.sample(spec, n, seeds)
    except Exception:  # `_replicate` samples each seed alone and reports it
        return None, [None] * len(seeds)
    k = matching.capacity(method, config)
    n1 = np.count_nonzero(smp.w, axis=1)
    n0 = n - n1
    finish = smp.valid & np.isfinite(smp.s).all(axis=1)
    if method == "banded":
        finish &= ~matching.band_refuses(n1, n0, config.band)
    rows = np.flatnonzero(finish & matching.feasible(n1, n0, k))
    try:
        t, c = matching.match_rows(smp.s[rows], smp.w[rows] == 1, k)
    except matching.SolverError as exc:
        raise RuntimeError(f"replication of {spec.name} at n={n} with rep seed "
                           f"{seeds[rows[exc.row]]} failed: {exc}") from exc
    y = smp.y[rows].ravel()
    diff = y[t] - y[c]
    pair_row = t // n
    if config.caliper is not None:
        s = smp.s[rows].ravel()
        keep = np.abs(s[t] - s[c]) <= config.caliper
        diff, pair_row = diff.compress(keep), pair_row.compress(keep)
    pairs = np.bincount(pair_row, minlength=rows.size)
    value = np.zeros(len(seeds))
    value[rows] = estimators.segment_means(diff, pairs)
    degenerate = np.ones(len(seeds), dtype=bool)
    degenerate[rows] = pairs == 0
    value[degenerate] = 0.0
    if spec.tau_att_true is not None:
        taus = [spec.tau_att_true] * len(seeds)
    else:  # the sample ATT; NaN without a treated unit
        taus = estimators.segment_means((smp.y1 - smp.y0).ravel().compress(
            smp.w.ravel()), n1).tolist()
    return smp, [(True, v, v - tau, d, "") if f else None for f, v, tau, d in
                 zip(finish.tolist(), value.tolist(), taus, degenerate.tolist())]


def _replicate(spec, n, rep_seed, method, config):
    """The per-sample pipeline: `population.sample`, then `_finish`."""
    try:
        smp = population.sample(spec, n, rep_seed)
    except ValueError as exc:
        return False, math.nan, math.nan, False, str(exc)
    return _finish(spec, smp, method, config)


def _finish(spec, smp, method, config):
    """Match, estimate and score the drawn Sample smp: its result tuple."""
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


def host_environment() -> dict:
    """What a run's manifest records of where it ran: the CPUs this process
    may run on (its affinity, else the CPU count), the Python and numpy
    versions, and MATCHBIAS_THREADS as set (None when unset)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "nproc": len(affinity(0)) if affinity is not None else os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "MATCHBIAS_THREADS": os.environ.get("MATCHBIAS_THREADS"),
    }


_M_TRIM_THRESHOLD = -1  # mallopt parameters, from glibc's malloc.h
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Worker set-up: keep freed memory in the worker's heap, in huge pages.

    By default glibc returns freed memory to the kernel (heap trim, munmap
    of large blocks), so each replication of a cell page-faults its arrays
    back in; at n = 1e5 that was 2,385 minor faults (about 6.5 ms) per
    replication.
    A 1 GiB trim threshold keeps the freed heap, and a 32 MiB mmap
    threshold keeps arrays up to that size in it (setting either one turns
    off glibc's dynamic thresholds, and the trim threshold alone sends the
    800 KB arrays of n = 1e5 to mmap on every allocation). A worker lives
    for one table (or one lone cell), so the heap it keeps goes away with
    it.

    The heap a worker keeps would still be faulted in 4 KiB at a time by
    its first replication (about 2,600-2,750 minor faults at n = 1e5, and
    about 20 ms against 14 ms for the next one): numpy advises
    transparent huge pages only for an array of 4 MiB or more, and a
    replication's arrays are 800 KB. So the worker allocates and frees one
    reserve just under its mmap threshold: glibc carves it from the top of
    the heap, numpy advises that range for huge pages, and the trim
    threshold keeps it, advice and all, for the replications' small arrays
    to be carved from. Their first touches then fault in 2 MiB pages
    (about 400-800 faults, 17 ms). The price is RSS in 2 MiB steps: up
    to about 2 MB more per worker. The reserve's first part, below its
    first 2 MiB boundary, and every worker where transparent huge pages
    are "never" or NUMPY_MADVISE_HUGEPAGE=0 keep 4 KiB pages. Off glibc,
    if ctypes cannot reach mallopt or if the reserve cannot be allocated,
    this does as much as it can and returns: if it raised, the worker
    would fail its range.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(_M_TRIM_THRESHOLD, 1 << 30)
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        np.empty((32 << 20) - (1 << 16), dtype=np.uint8)
    except (AttributeError, MemoryError, OSError, TypeError, ValueError):
        pass


def _fork_worker(workers, w):
    """Fork worker w of `workers`: (pid, read end of its pipe as a binary
    file), or None, after a warning, when the pipe or the fork fails.

    The worker runs `_serve` and leaves by os._exit; it never returns into
    the caller's code.
    """
    fds = ()
    try:
        fds = os.pipe()
        pid = os.fork()
    except OSError as exc:
        for fd in fds:
            os.close(fd)
        start, stop = workers.bounds(w)
        each = f" of each of {len(workers.cells)} cells" if len(workers.cells) > 1 else ""
        log.warning("cannot fork a worker (%s); running replications %d..%d%s "
                    "serially", exc, start, stop - 1, each)
        return None
    read_fd, write_fd = fds
    if pid:
        os.close(write_fd)
        return pid, open(read_fd, "rb")
    code = 1
    try:
        os.close(read_fd)
        with open(write_fd, "wb") as pipe:
            _serve(workers, w, pipe)
        code = 0
    finally:
        os._exit(code)


def _serve(workers, w, pipe):
    """In worker w: run `_keep_freed_heap`, then `_rep_task` on range w of
    each cell in turn, sending each result list through the pipe as it is
    done; the first exception raised is sent in place of its cell's list,
    and ends the loop."""
    try:
        _keep_freed_heap()
        for spec, n, seed, method, config in workers.cells:
            _send(pipe, _rep_task((spec, n, seed, *workers.bounds(w), method, config)))
    except BaseException as exc:  # sent to the parent, which raises it
        _send(pipe, exc)


def _send(pipe, payload):
    """Write payload to the pipe as one message: its pickle's length in 8
    bytes, then the pickle. An exception that does not survive pickling is
    sent as a RuntimeError holding its text."""
    try:
        data = pickle.dumps(payload)
        if isinstance(payload, BaseException):
            pickle.loads(data)  # an exception can pickle and still not unpickle
    except Exception as exc:
        data = pickle.dumps(RuntimeError(f"worker could not send {payload!r}: {exc!r}"))
    pipe.write(len(data).to_bytes(8, "little") + data)
    pipe.flush()


def _receive(pipe):
    """The next message written by `_send` to the pipe, or None if the
    pipe ends before a whole one."""
    head = pipe.read(8)
    if len(head) < 8:
        return None
    size = int.from_bytes(head, "little")
    data = pipe.read(size)
    return data if len(data) == size else None


class _Workers:
    """The workers of a list of cells that share one replication count,
    forked once when the list is entered and each running its range of
    every cell in list order.

    A cell is (spec, n, seed, method, config). Each cell is split into one
    contiguous range of replication indices per worker, worker w taking the
    same range w of each, and `_rep_task` derives the seeds of its range
    wherever it runs, so the results do not depend on the worker count. A
    worker gets the cell list through the fork, so nothing is pickled on
    the way to it, and sends one message per cell back through its pipe.
    With one worker nothing forks and `take` runs each cell in the calling
    process; a range whose fork fails runs there too, keeping its
    allocator settings. Every worker is killed if still running and reaped
    on exit, so RUSAGE_CHILDREN counts it and none outlives the list.
    """

    def __init__(self, cells, reps):
        self.cells, self.reps = cells, reps
        self.count = _worker_count(reps)
        self.taken = 0  # cells whose results `take` has returned
        self.pids, self.pipes = {}, {}  # worker index -> pid, read end; until reaped

    def bounds(self, w):
        """start, stop of worker w's range of replication indices in each cell."""
        return self.reps * w // self.count, self.reps * (w + 1) // self.count

    def __enter__(self):
        try:
            for w in range(self.count) if self.count > 1 else ():
                forked = _fork_worker(self, w)
                if forked is not None:
                    self.pids[w], self.pipes[w] = forked
        except BaseException:  # reap the workers already forked
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info):
        for pipe in self.pipes.values():
            pipe.close()
        for pid in self.pids.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

    def runs_next(self, cell, reps) -> bool:
        """Whether `cell` of `reps` replications is the next one they run."""
        return (reps == self.reps and self.taken < len(self.cells)
                and self.cells[self.taken] == cell)

    def take(self):
        """The next cell's results, one per replication, in order.

        The ranges are read in order, so an error from the lowest failing
        range is raised and names the first failing replication's seed. A
        worker that ends without this cell's message, or with a nonzero
        exit after its last cell's, raises a RuntimeError naming the range
        and the exit status.
        """
        spec, n, seed, method, config = self.cells[self.taken]
        self.taken += 1
        results = []
        for w in range(self.count):
            task = (spec, n, seed, *self.bounds(w), method, config)
            if w not in self.pids:
                results += _rep_task(task)
                continue
            data = _receive(self.pipes[w])
            if data is None or self.taken == len(self.cells):
                self.pipes.pop(w).close()
                status = os.waitpid(self.pids.pop(w), 0)[1]
                if status or data is None:
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


# The _Workers of the run_table or compare_methods call under way, where
# it runs more than one worker
_table = None


@contextlib.contextmanager
def _forked(cells, reps):
    """Fork the workers of `cells` for the body, whose run_cell calls take
    their results (see `_run_reps`)."""
    global _table
    outer = _table
    with _Workers(cells, reps) as workers:
        if workers.count > 1:
            _table = workers
        try:
            yield
        finally:
            _table = outer


def _run_reps(spec, n, reps, seed, method, config):
    """The cell's results, one per replication, in order: from the workers
    of the table under way if this cell is the next one they run, else from
    workers forked for this cell alone (`_Workers`)."""
    cell = (spec, n, seed, method, config)
    if _table is not None and _table.runs_next(cell, reps):
        return _table.take()
    with _Workers([cell], reps) as workers:
        return workers.take()


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
    # every error is NaN without tau_att_true when no replication drew a treated unit
    emp_bias = float(np.nanmean(errs)) if not np.isnan(errs).all() else math.nan
    emp_se = float(np.std(taus, ddof=1)) if taus.size > 1 else 0.0
    note = "" if len(oks) == reps else \
        f"{reps - len(oks)} replications failed: {next(r[4] for r in results if not r[0])}"
    return SimRow(a=math.nan, n=n, asymp_bias=math.nan, emp_bias=emp_bias,
                  emp_se=emp_se, reps_done=len(oks),
                  degenerate_count=sum(1 for r in oks if r[3]), note=note)


def _asymptotic_bias_for(config: SimConfig, a: float, spec, prognostic: bool) -> float:
    """A cell's limit bias, by its method: 0.0 with replacement (Abadie and
    Imbens, 2006); NaN with a finite caliper, whose estimand is the kept
    treated units' ATT, and at capacity k >= 2, which the theory lacks yet.
    Else the without-replacement limit: the closed form for the prognostic
    family (`prognostic`) on [1/3, 1], quadrature over the score density
    where the spec has one, else NaN: the theory refuses a score with
    atoms, such as a categorical one, until it has an exact route."""
    k = matching.capacity(config.match_method, config.match_config)
    if config.match_config.caliper not in (None, math.inf) or k not in (None, 1):
        return math.nan
    if k is None:
        return 0.0
    if prognostic:
        try:
            return theory.prognostic_bias_closed_form(a)
        except ValueError:
            pass
    if spec.score_pdf is not None and spec.score_support is not None:
        return theory.asymptotic_bias_score(spec).bias
    return math.nan


def run_table(config: SimConfig, spec_factory=None, on_cell=None) -> list[SimRow]:
    """Run the full a x n grid and return rows ordered by (a, n) ascending.

    spec_factory maps an a-value to a PopulationSpec; without one the grid
    is the prognostic family, the only one whose limit takes the closed
    form (`_asymptotic_bias_for` gives each method's limit). Every spec,
    asymptotic bias and cell seed is computed before any replication runs;
    the workers are then forked once for the whole grid, and run_cell,
    called once per cell, takes each cell's results from them. Per-cell
    failures are recorded in the row (NaN metrics plus a note) without
    aborting the table. on_cell, when given, receives (row, seconds) after
    each cell: the seconds since the previous on_cell call returned, or
    for the first cell since the workers started forking.
    """
    prognostic = spec_factory is None
    if prognostic:
        spec_factory = population.make_prognostic_spec
    grid = []  # (a, asymptotic bias, cell)
    for ai, a in enumerate(sorted(config.a_values)):
        spec = spec_factory(a)
        asymp = _asymptotic_bias_for(config, a, spec, prognostic)
        grid += [(a, asymp, (spec, n, derive_seed(config.master_seed, ai, ni),
                             config.match_method, config.match_config))
                 for ni, n in enumerate(sorted(config.n_values))]
    rows = []
    started = time.perf_counter()
    with _forked([cell for *_, cell in grid], config.reps):
        for a, asymp, (spec, n, seed, method, mcfg) in grid:
            try:
                row = replace(run_cell(spec, n, config.reps, seed, method, mcfg),
                              a=a, asymp_bias=asymp)
            except SimulationError as exc:
                row = SimRow(a=a, n=n, asymp_bias=asymp, emp_bias=math.nan,
                             emp_se=math.nan, reps_done=0, degenerate_count=0,
                             note=str(exc))
            rows.append(row)
            if on_cell is not None:
                on_cell(row, time.perf_counter() - started)
            started = time.perf_counter()
    return rows


def compare_methods(spec: PopulationSpec, n: int, reps: int, seed: int,
                    config: MatchConfig | None = None) -> dict[str, SimRow]:
    """Head-to-head bias comparison of the matcher variants.

    Runs matching without replacement, with replacement, capacitated, and
    the caliper variant on identical samples (replication seeds are shared
    across methods), as the cells of one list on the same workers.
    """
    n = whole_number(n, "n", 0)
    reps = whole_number(reps, "reps", 1)
    seed = whole_number(seed, "seed", 0)
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
    with _forked([(spec, n, seed, method, mcfg) for method, mcfg in variants.values()],
                 reps):
        return {name: run_cell(spec, n, reps, seed, method, mcfg)
                for name, (method, mcfg) in variants.items()}


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
