import ast
import ctypes
import logging
import math
import os
import signal
import subprocess
import sys
from dataclasses import replace
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from matchbias import estimators as est
from matchbias import matching
from matchbias import population as pop
from matchbias import simulation as sim
from matchbias.matching import MatchConfig

# numpy's switches for MADV_HUGEPAGE advice on arrays of 4 MiB or more
np_multiarray = np._core.multiarray if hasattr(np, "_core") else np.core.multiarray
needs_glibc_fork = pytest.mark.skipif(
    not hasattr(os, "confstr") or not os.confstr("CS_GNU_LIBC_VERSION")
    or not hasattr(os, "fork"), reason="needs glibc and forked workers")


def constant_outcome_spec():
    # all outcomes identically zero, tau = 0
    return pop.PopulationSpec(
        score_from_uniform=pop._triangular_quantile,
        assign_prob=partial(pop._linear_assign, denom=8 / 3),
        mu0=partial(pop._const, value=0.0),
        mu1=partial(pop._const, value=0.0),
        noise_sd0=None,
        noise_sd1=None,
        tau_att_true=0.0,
        score_pdf=pop._triangular_pdf,
        score_support=(0.0, 2.0),
        score_breakpoints=(1.0,),
    )


def mostly_treated_spec():
    return pop.PopulationSpec(
        score_from_uniform=partial(pop._uniform_quantile, upper=1.0),
        assign_prob=partial(pop._const, value=0.9),
        mu0=pop._identity,
        mu1=pop._identity,
        noise_sd0=None,
        noise_sd1=None,
        tau_att_true=0.0,
    )


def nan_assign_above(s, assign_prob, cut):
    return np.where(s > cut, math.nan, assign_prob(s))


def fault_counts(task):
    """Minor faults of two allocate-touch-free cycles of a 4 MB array, as
    the one result of a one-replication range task.

    Run it with NUMPY_MADVISE_HUGEPAGE=0: then no range of the worker's
    heap is advised for huge pages, and each 4 KiB page touched that the
    process does not already hold is one minor fault. Each worker runs one
    range, so the first cycle is the first in its process.
    """
    import resource  # POSIX only; this runs only where the test does

    counts = []
    for _ in range(2):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        arr = np.ones(500_000)
        del arr
        counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return [counts]


def anon_huge_kb():
    with open("/proc/self/smaps_rollup") as fh:
        return next(int(line.split()[1]) for line in fh
                    if line.startswith("AnonHugePages:"))


def huge_page_rise(task):
    """kB of transparent huge pages that eight touched n = 1e5 float64
    arrays add to a worker, as the one result of a range task."""
    before = anon_huge_kb()
    arrays = [np.ones(100_000) for _ in range(8)]  # held while measured
    return [anon_huge_kb() - before]


def thp_mode():
    """The bracketed transparent huge page mode, or "" without THP."""
    try:
        with open("/sys/kernel/mm/transparent_hugepage/enabled") as fh:
            return fh.read().split("[")[1].split("]")[0]
    except (OSError, IndexError):
        return ""


def fresh_python(code, **env):
    """stdout of `code` run by a fresh interpreter that can import this
    package and this module, with `env` added to the environment."""
    paths = [os.path.dirname(os.path.dirname(sim.__file__)),
             os.path.dirname(os.path.abspath(__file__)), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)), **env)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          stdout=subprocess.PIPE, text=True).stdout


def fresh_worker_results(probe, **env):
    """Results of a 2-rep cell whose two forked workers run `probe`, a
    function of this module, as their range task. The cell runs in a fresh
    interpreter, so the heap the workers inherit is one that no earlier
    test has shaped."""
    code = ("import test_simulation as t; from matchbias import simulation as sim; "
            f"sim._rep_task = t.{probe.__name__}; print(sim._run_reps("
            "t.pop.make_prognostic_spec(0.5), 10, 2, 1, 'exact', t.MatchConfig()))")
    return ast.literal_eval(fresh_python(code, MATCHBIAS_THREADS="2", **env))


def refuse_fork(calls):
    calls.append("fork")
    raise OSError("no fork in this test")


def kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def exit_5_after_the_result():
    """In a worker: it still writes its result, then its os._exit(0) ends
    it with status 5."""
    os._exit = lambda code, _exit=os._exit: _exit(5)


def count_forks(monkeypatch):
    """Wrap os.fork in a counter that calls the real fork; returns the list
    of worker pids that the calling process has forked since."""
    fork, forked = os.fork, []

    def counting_fork():
        pid = fork()
        forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forked


def assert_no_children():
    """Every worker of the cells run so far has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class Unpicklable(Exception):
    def __init__(self):
        super().__init__("holds a lambda")
        self.hook = lambda: None


class Unrebuildable(Exception):
    # pickles as Unrebuildable("a b"), which __init__ refuses
    def __init__(self, first, second):
        super().__init__(f"{first} {second}")


class TestRunCell:
    def test_constant_outcomes_zero_bias_and_se(self):
        row = sim.run_cell(constant_outcome_spec(), 300, 20, 1, method="exact")
        assert row.emp_bias == 0.0
        assert row.emp_se == 0.0
        assert row.reps_done == 20
        assert row.degenerate_count == 0

    def test_deterministic(self):
        spec = pop.make_prognostic_spec(1 / 3)
        r1 = sim.run_cell(spec, 500, 40, 9, method="exact")
        r2 = sim.run_cell(spec, 500, 40, 9, method="exact")
        assert r1 == r2

    def test_serial_matches_parallel(self, monkeypatch):
        spec = pop.make_prognostic_spec(0.5)
        parallel = sim.run_cell(spec, 400, 12, 3, method="exact")
        monkeypatch.setenv("MATCHBIAS_THREADS", "3")  # ranges of 3, 3 and 4
        uneven = sim.run_cell(spec, 400, 10, 3, method="exact")
        assert_no_children()
        monkeypatch.setenv("MATCHBIAS_THREADS", "1")
        assert parallel == sim.run_cell(spec, 400, 12, 3, method="exact")
        assert uneven == sim.run_cell(spec, 400, 10, 3, method="exact")

    def test_default_method_is_exact(self, monkeypatch):
        match_scores, methods = matching.match_scores, []

        def recording(t, c, method, *args, **kwargs):
            methods.append(method)
            return match_scores(t, c, method, *args, **kwargs)

        monkeypatch.setattr(matching, "match_scores", recording)
        monkeypatch.setenv("MATCHBIAS_THREADS", "1")
        sim.run_cell(pop.make_prognostic_spec(0.5), 60, 2, 3)
        assert methods and set(methods) == {"exact"}
        cfg = sim.SimConfig(a_values=(0.5,), n_values=(60,), reps=1, master_seed=0)
        assert cfg.match_method == "exact"

    @pytest.mark.parametrize("threads, reps", [
        pytest.param("1", 6, id="1"), pytest.param("2", 6, id="2"),
        pytest.param("1", 40, id="1-reps40"),
        # two workers at 40 reps: each worker's range holds 20 replications
        pytest.param("2", 40, id="2-reps40")])
    def test_matcher_bug_fails_loudly(self, monkeypatch, threads, reps):
        # a matcher that drops one pair whenever N1 is even breaks the
        # exactly-once check in att_matching; that is a bug, not a failed rep.
        # Forked workers inherit the patched matcher. Matching with
        # replacement runs every replication through the per-sample
        # pipeline, which calls the matcher; TestRowBlocks covers the blocks.
        match_scores = matching.match_scores

        def dropping(t, *args, **kwargs):
            m = match_scores(t, *args, **kwargs)
            if len(t) % 2 == 0:
                m = replace(m, pairs=dict(list(m.pairs.items())[1:]))
            return m

        monkeypatch.setattr(matching, "match_scores", dropping)
        monkeypatch.setenv("MATCHBIAS_THREADS", threads)
        spec = pop.make_prognostic_spec(0.5)
        with pytest.raises(RuntimeError, match="rep seed") as exc:
            sim.run_cell(spec, 200, reps, 3, method="replacement")
        assert_no_children()
        # results are read in replication order, so the error names the
        # first failing r; at seed 3 that is r = 1, second in its range
        failing = [r for r in range(reps)
                   if pop.sample(spec, 200, pop.derive_seed(3, r)).n1 % 2 == 0]
        assert failing[0] == 1
        assert f"rep seed {pop.derive_seed(3, 1)} failed" in str(exc.value)
        assert "prognostic(a=0.5)" in str(exc.value) and "n=200" in str(exc.value)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_negative_seed_fails_before_any_rep(self, monkeypatch, threads):
        started = []
        monkeypatch.setattr(pop, "sample", lambda *args: started.append(args))
        monkeypatch.setattr(os, "fork", partial(refuse_fork, started))
        monkeypatch.setenv("MATCHBIAS_THREADS", threads)
        with pytest.raises(ValueError, match="^seed must be a whole number"):
            sim.run_cell(pop.make_prognostic_spec(0.5), 50, 4, -1)
        assert started == []

    @pytest.mark.parametrize("n, reps, name", [
        (60.5, 2, "n"), (-1, 2, "n"), (60, True, "reps"), (60, 2.5, "reps"),
        (60, 0, "reps")])
    def test_non_whole_n_or_reps_fails_before_any_rep(self, monkeypatch, n,
                                                      reps, name):
        started = []
        monkeypatch.setattr(pop, "sample", lambda *args: started.append(args))
        monkeypatch.setattr(os, "fork", partial(refuse_fork, started))
        with pytest.raises(ValueError, match=f"^{name} must be a whole number"):
            sim.run_cell(pop.make_prognostic_spec(0.5), n, reps, 3)
        assert started == []

    def test_whole_float_n_and_reps_run_as_ints(self, monkeypatch):
        monkeypatch.setenv("MATCHBIAS_THREADS", "1")
        spec = pop.make_prognostic_spec(0.5)
        row = sim.run_cell(spec, 60.0, 2.0, 3)
        assert row == sim.run_cell(spec, 60, 2, 3)
        assert type(row.n) is int and row.reps_done == 2

    def test_nan_assignment_probability_fails_every_rep(self, monkeypatch):
        # NaN fails both range comparisons; before, rng.random(n) < nan made
        # every unit above the cut a control and no error was raised
        base = pop.make_prognostic_spec(0.5)
        spec = replace(base, assign_prob=partial(
            nan_assign_above, assign_prob=base.assign_prob, cut=1.5))
        with pytest.raises(ValueError, match=r"left \[0, 1\]"):
            pop.sample(spec, 1000, 3)
        monkeypatch.setenv("MATCHBIAS_THREADS", "1")
        with pytest.raises(sim.SimulationError,
                           match=r"all 4 replications failed: assign_prob left"):
            sim.run_cell(spec, 1000, 4, 3)

    def test_degenerate_reps_counted(self):
        # 90% treated: without-replacement matching impossible most draws
        row = sim.run_cell(mostly_treated_spec(), 20, 30, 5, method="exact")
        assert row.degenerate_count > 0
        assert row.reps_done == 30

    def test_all_failed_raises(self):
        # band 0 is below the control surplus of every rep: BandError each time
        with pytest.raises(sim.SimulationError):
            sim.run_cell(pop.make_prognostic_spec(1.0), 40, 5, 2,
                         method="banded", config=MatchConfig(band=0))

    def test_infeasible_reps_apply_the_zero_convention_for_every_method(self):
        # at n = 4 a third of the reps draw no treated unit or more treated
        # than controls; capacity 1 and the banded matcher solve the exact
        # problem, so they take the zero convention on the same reps
        spec = pop.make_prognostic_spec(1.0)
        exact = sim.run_cell(spec, 4, 200, 7, method="exact")
        assert exact.reps_done == 200 and exact.degenerate_count > 0
        assert sim.run_cell(spec, 4, 200, 7, method="capacitated",
                            config=MatchConfig(capacity=1)) == exact
        assert sim.run_cell(spec, 4, 200, 7, method="banded") == exact
        # with replacement only reps without treated or controls are degenerate
        wr = sim.run_cell(spec, 4, 200, 7, method="replacement")
        assert wr.reps_done == 200 and wr.note == ""
        assert 0 < wr.degenerate_count < exact.degenerate_count

    def test_unknown_method_fails_before_any_rep(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(pop, "sample", lambda *args: drawn.append(args))
        monkeypatch.setenv("MATCHBIAS_THREADS", "1")
        with pytest.raises(ValueError, match="unknown matching method"):
            sim.run_cell(pop.make_prognostic_spec(0.5), 50, 3, 1,
                         method="hungarian")
        assert drawn == []

    def test_caliper_config_used(self):
        spec = pop.make_prognostic_spec(1 / 3)
        plain = sim.run_cell(spec, 400, 10, 7, method="exact")
        calipered = sim.run_cell(spec, 400, 10, 7, method="exact",
                                 config=MatchConfig(caliper=0.01))
        assert plain != calipered

    @pytest.mark.parametrize("method, n, reps, a, caliper, expected", [
        ("exact", 2000, 4, 1 / 3, None,
         ("0.1428465949431812", "0.0738443717936675", 4, 0)),
        ("banded", 100, 30, 4 / 9, None,
         ("0.12665547399452012", "0.24581250134589097", 30, 0)),
        ("replacement", 2000, 4, 1 / 3, 1e-4,
         ("0.27916258409875444", "0.14639556783937513", 4, 0)),
        # n = 6: three replications are degenerate (zero convention)
        ("exact", 6, 30, 1 / 3, None,
         ("0.5840782043497028", "1.198784387483286", 30, 3)),
    ])
    def test_pinned_numbers(self, method, n, reps, a, caliper, expected):
        # computed before the call-overhead trims in population, matching
        # and estimators; a change that moves any float breaks them
        row = sim.run_cell(pop.make_prognostic_spec(a), n, reps, 13, method,
                           MatchConfig(caliper=caliper))
        assert (repr(row.emp_bias), repr(row.emp_se), row.reps_done,
                row.degenerate_count) == expected

    def test_unknown_population_att_uses_the_sample_att(self, monkeypatch):
        # emp_bias is the mean estimate less the mean sample ATT over the reps
        monkeypatch.setenv("MATCHBIAS_THREADS", "1")
        spec = replace(pop.make_prognostic_spec(0.5), tau_att_true=None)
        n, reps, seed = 200, 4, 3
        sample_atts = [est.att_true_sample(pop.sample(spec, n, pop.derive_seed(seed, r)))
                       for r in range(reps)]
        mean_estimate = sim.run_cell(replace(spec, tau_att_true=0.0), n, reps, seed).emp_bias
        row = sim.run_cell(spec, n, reps, seed)
        assert row.emp_bias == pytest.approx(mean_estimate - np.mean(sample_atts),
                                             abs=1e-12)

    def test_emp_bias_near_table_value(self):
        # n = 1000 cell of the study grid sits near 0.166
        spec = pop.make_prognostic_spec(1 / 3)
        row = sim.run_cell(spec, 1000, 120, 2, method="exact")
        assert row.emp_bias == pytest.approx(0.166, abs=0.03)


def bits(results):
    """Replication results with every float as its hex text, so that NaN
    equals NaN and -0.0 differs from 0.0."""
    return [tuple(x.hex() if isinstance(x, float) else x for x in r) for r in results]


def per_sample(spec, n, reps, seed, method, config):
    """The per-sample pipeline on each replication of a cell, one by one."""
    return [sim._replicate(spec, n, pop.derive_seed(seed, r), method, config)
            for r in range(reps)]


BLOCK_SPECS = {
    **{f"prognostic_{a:.3g}": pop.make_prognostic_spec(a) for a in (1 / 3, 4 / 9, 1.0, 2.0)},
    # no population ATT: the sample ATT of each row
    "uniform": pop.make_uniform_propensity_spec(0.8),
    # two score values: every row of three units or more holds a tie
    "categorical": pop.make_categorical_spec(0.5, 0.6, 0.2, mu1_in=1.0),
    "categorical_noise": pop.make_categorical_spec(0.5, 0.6, 0.2, mu1_in=1.0,
                                                   noise_sd=1.0),
    # rows with a score above 1.9 fail, the others do not
    "nan_above": replace(pop.make_prognostic_spec(0.5), assign_prob=partial(
        nan_assign_above, assign_prob=pop.make_prognostic_spec(0.5).assign_prob,
        cut=1.9)),
}

# a band of 25 refuses some rows at n = 60 and 100 and every row at
# n = 1000; a caliper of 0.005 drops every pair of many rows at n = 10
BLOCK_METHODS = {
    f"{method}{'_caliper' if caliper else ''}": (
        method, MatchConfig(band=25, capacity=2 if method == "capacitated" else 1,
                            caliper=caliper))
    for method in ("exact", "banded", "capacitated") for caliper in (None, 0.005)}
# the tests that run these pin BLOCK_SCORES = 8192, so that a range holds
# several blocks: at n = 100 a block holds 81 rows, and 170 reps are blocks
# of 81, 81 and 8 on one worker and of 81 and 4 in each range of two; at
# n = 60, 136 rows
BLOCK_REPS = {2: 40, 10: 40, 60: 150, 100: 170, 1000: 20}


def grid_quantile(u):
    """The score on the grid 0, 0.001, ..., 1.999 of a uniform draw."""
    return np.floor(u * 2000) / 1000


# scores on a grid, where many matchings cost the same in exact arithmetic
# and differ only in rounding; at n = 100 most samples also hold a tie
NEAR_GRID = replace(pop.make_prognostic_spec(1 / 3), score_from_uniform=grid_quantile,
                    name="near-grid")


class TestRowBlocks:
    @pytest.mark.parametrize("method", BLOCK_METHODS)
    @pytest.mark.parametrize("spec", BLOCK_SPECS)
    def test_blocks_equal_the_per_sample_pipeline(self, monkeypatch, spec, method):
        monkeypatch.setattr(sim, "BLOCK_SCORES", 8192)
        spec, (method, config) = BLOCK_SPECS[spec], BLOCK_METHODS[method]
        for n, reps in BLOCK_REPS.items():
            want = bits(per_sample(spec, n, reps, 5, method, config))
            for threads in ("1", "2"):
                monkeypatch.setenv("MATCHBIAS_THREADS", threads)
                got = bits(sim._run_reps(spec, n, reps, 5, method, config))
                assert got == want, (n, threads)

    def test_cells_hold_every_kind_of_row(self):
        # the rows the equality test above must cover
        def samples(spec, n):
            return [pop.sample(spec, n, pop.derive_seed(5, r)) for r in range(BLOCK_REPS[n])]

        kinds = {(smp.n1 > 0, np.sign(smp.n1 - smp.n0)) for smp in
                 samples(BLOCK_SPECS["prognostic_1"], 2)}
        assert kinds == {(False, -1), (True, 0), (True, 1)}  # N1 = 0, surplus 0, N1 > N0
        spec = BLOCK_SPECS["prognostic_0.333"]
        dropped = [0 < smp.n1 <= smp.n0 and res[3] for smp, res in zip(
            samples(spec, 10),
            per_sample(spec, 10, 40, 5, *BLOCK_METHODS["exact_caliper"]))]
        assert any(dropped)  # a caliper dropped every pair of a feasible row
        for spec, method, message in (
                (spec, "banded", "band 25 is below the control surplus"),
                (BLOCK_SPECS["nan_above"], "exact", "assign_prob left [0, 1]")):
            results = per_sample(spec, 100, 170, 5, *BLOCK_METHODS[method])
            assert any(r[0] for r in results)
            assert any(not r[0] and r[4].startswith(message) for r in results)

    def test_one_row_blocks_run_per_sample(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a block ran")

        monkeypatch.setattr(sim, "_block", refuse)
        monkeypatch.setenv("MATCHBIAS_THREADS", "1")
        spec = pop.make_prognostic_spec(0.5)
        assert sim.run_cell(spec, sim.BLOCK_SCORES // 2 + 1, 2, 3).reps_done == 2
        assert sim.run_cell(spec, 100, 3, 3, "capacitated",
                            MatchConfig(capacity=sim.BLOCK_SCORES)).reps_done == 3
        assert sim.run_cell(spec, 100, 3, 3, "replacement").reps_done == 3

    @staticmethod
    def block_sizes(monkeypatch):
        """The list to which each `_block` call from now on appends its
        number of rows."""
        block, sizes = sim._block, []

        def counted(spec, n, seeds, *args):
            sizes.append(len(seeds))
            return block(spec, n, seeds, *args)

        monkeypatch.setattr(sim, "_block", counted)
        return sizes

    def test_ranges_of_any_length_run_in_blocks(self, monkeypatch):
        # at n = 100 every replication goes through a block, the last of
        # a range and a range of one included; a categorical block, all of
        # whose rows hold a tie, finishes them too and leaves none of them
        # to `_replicate`
        monkeypatch.setattr(sim, "BLOCK_SCORES", 8192)
        sizes = self.block_sizes(monkeypatch)
        config = MatchConfig()
        for start, stop in ((0, 163), (7, 8)):
            sim._rep_task((BLOCK_SPECS["prognostic_1"], 100, 5, start, stop, "exact", config))
        assert sizes == [81, 81, 1, 1]
        sizes.clear()
        spec = BLOCK_SPECS["categorical"]
        want = per_sample(spec, 100, 170, 5, "exact", config)
        monkeypatch.setattr(sim, "_replicate", None)
        assert sim._rep_task((spec, 100, 5, 0, 170, "exact", config)) == want
        assert sizes == [81, 81, 8]

    def test_blocks_hold_32768_sorted_scores(self, monkeypatch):
        sizes = self.block_sizes(monkeypatch)
        spec, config = BLOCK_SPECS["prognostic_0.333"], MatchConfig(capacity=2)
        for n, stop, method in ((100, 700, "exact"), (1000, 40, "exact"),
                                (1000, 20, "capacitated"), (10_000, 4, "exact"),
                                (10_000, 1, "capacitated")):
            sim._rep_task((spec, n, 5, 0, stop, method, config))
        assert sizes == [327, 327, 46, 32, 8, 16, 4, 3, 1]

    @pytest.mark.parametrize("method", ["exact", "capacitated", "exact_caliper"])
    @pytest.mark.parametrize("spec", ["prognostic", "prognostic_no_noise", "categorical",
                                      "categorical_noise"])
    def test_the_block_size_changes_speed_not_results(self, monkeypatch, spec, method):
        # at 8,192 sorted scores the cells at n = 5e3 and 12e3 run one
        # sample at a time, and a categorical row at n = 1e3 (every one
        # holds a tie) goes to `_replicate`; at 32,768 blocks finish them
        spec = {"prognostic": BLOCK_SPECS["prognostic_0.333"],
                "prognostic_no_noise": replace(BLOCK_SPECS["prognostic_0.333"],
                                               noise_sd0=None, noise_sd1=None),
                "categorical": BLOCK_SPECS["categorical"],
                "categorical_noise": BLOCK_SPECS["categorical_noise"]}[spec]
        method, config = BLOCK_METHODS[method]
        for n, reps in ((100, 400), (1000, 40), (5000, 8), (12_000, 5)):
            for threads in ("1", "2"):
                monkeypatch.setenv("MATCHBIAS_THREADS", threads)
                got = {}
                for size in (8192, 32768):
                    monkeypatch.setattr(sim, "BLOCK_SCORES", size)
                    got[size] = bits(sim._run_reps(spec, n, reps, 5, method, config))
                assert got[8192] == got[32768], (n, threads)
                assert all(r[0] for r in got[8192])

    @pytest.mark.parametrize("spec", ["categorical", "categorical_noise"])
    def test_tied_rows_are_finished_in_their_block(self, monkeypatch, spec):
        # every categorical row holds a tie; its block finishes it at every
        # size, and the per-sample pipeline runs only the range's replay
        calls = []

        def counted(name, run):
            def run_counted(*args):
                calls.append(name)
                return run(*args)
            return run_counted

        for name in ("_replicate", "_finish"):
            monkeypatch.setattr(sim, name, counted(name, getattr(sim, name)))
        spec, config = BLOCK_SPECS[spec], MatchConfig()
        for n, stop in ((1000, 40), (100, 40)):
            calls.clear()
            results = sim._rep_task((spec, n, 5, 0, stop, "exact", config))
            assert all(r[0] for r in results)
            assert calls == ["_finish"]

    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    def test_near_grid_scores_do_not_depend_on_the_worker_count(self, monkeypatch, threads):
        # each replication's result is the one it gets alone, in a block
        # of one, which finishes every sample, those with a tie included
        spec, config = NEAR_GRID, MatchConfig()
        seeds = [pop.derive_seed(573, r) for r in range(200)]
        alone = [sim._block(spec, 100, [s], "exact", config)[1][0] for s in seeds]
        assert all(alone)
        monkeypatch.setenv("MATCHBIAS_THREADS", threads)
        assert bits(sim._run_reps(spec, 100, 200, 573, "exact", config)) == bits(alone)

    def test_outcomes_undefined_where_assignment_fails(self, monkeypatch):
        # mu0 raises above 1.9, where assign_prob is NaN: the block that
        # holds such a row raises, and `_replicate` fails that replication
        # before it reaches mu0
        base = pop.make_prognostic_spec(0.5)

        def mu0(s):
            if (s > 1.9).any():
                raise ZeroDivisionError("mu0 undefined above 1.9")
            return base.mu0(s)

        spec = replace(BLOCK_SPECS["nan_above"], mu0=mu0)
        monkeypatch.setenv("MATCHBIAS_THREADS", "1")
        row = sim.run_cell(spec, 100, 170, 5)
        assert 0 < row.reps_done < 170
        assert row.note.endswith("replications failed: assign_prob left [0, 1] on the "
                                 "drawn scores")

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_broken_row_solver_fails_loudly(self, monkeypatch, threads):
        # the solver's first flag flipped on each row with an even N1: it
        # no longer uses exactly N1 controls there, a bug that no
        # replication may pass on to the per-sample pipeline
        rows_used = matching._rows_used

        def flipping(xs, is_c, starts):
            used = rows_used(xs, is_c, starts)
            for lo, hi in zip(starts, np.append(starts[1:], xs.size)):
                if np.count_nonzero(~is_c[lo:hi]) % 2 == 0:
                    used[lo] = not used[lo]
            return used

        monkeypatch.setattr(matching, "_rows_used", flipping)
        monkeypatch.setenv("MATCHBIAS_THREADS", threads)
        spec = pop.make_prognostic_spec(0.5)
        with pytest.raises(RuntimeError, match="level solver") as exc:
            sim.run_cell(spec, 100, 170, 3)
        assert_no_children()
        failing = [r for r in range(170)
                   if pop.sample(spec, 100, pop.derive_seed(3, r)).n1 % 2 == 0]
        assert f"prognostic(a=0.5) at n=100 with rep seed {pop.derive_seed(3, failing[0])} " \
            "failed" in str(exc.value)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_replay_catches_a_changed_estimate(self, monkeypatch, threads):
        # a row solver that, in a block of two rows or more, swaps each
        # row's first used control for its first unused one still uses N1
        # controls, so no SolverError stops it, and every sample is drawn
        # as before: only the block's estimates move. The per-sample
        # pipeline solves one row at a time, so the replay of each range's
        # first matched replication sees the change
        rows_used = matching._rows_used

        def swapping(xs, is_c, starts):
            used = rows_used(xs, is_c, starts)
            if starts.size < 2:
                return used
            for lo, hi in zip(starts, np.append(starts[1:], xs.size)):
                free = np.flatnonzero(is_c[lo:hi] & ~used[lo:hi])
                if free.size:
                    used[lo + np.flatnonzero(used[lo:hi])[0]] = False
                    used[lo + free[0]] = True
            return used

        monkeypatch.setattr(matching, "_rows_used", swapping)
        monkeypatch.setenv("MATCHBIAS_THREADS", threads)
        spec = pop.make_prognostic_spec(0.5)
        with pytest.raises(RuntimeError, match="the per-sample pipeline") as exc:
            sim.run_cell(spec, 100, 170, 3)
        assert_no_children()
        seeds = [pop.derive_seed(3, r) for r in range(170)]
        _, block = sim._block(spec, 100, seeds, "exact", MatchConfig())
        first = next(i for i, res in enumerate(block) if res and not res[3])
        assert str(exc.value).startswith(
            f"replication of prognostic(a=0.5) at n=100 with rep seed {seeds[first]}: "
            "its block gave ")

    @pytest.mark.parametrize("threads, field", [
        pytest.param(threads, field, id=threads if field == "mu0" else f"{field}-{threads}")
        for field in ("mu0", "score_from_uniform") for threads in ("1", "2")])
    def test_spec_that_is_not_elementwise_fails_the_replay(self, monkeypatch, threads, field):
        # over a block the mean runs across many samples; the replay of the
        # first replication the block matched catches the difference
        centred = {"mu0": lambda s: s - s.mean(), "score_from_uniform": lambda u:
                   pop._triangular_quantile(u) - pop._triangular_quantile(u).mean() + 1}
        spec = replace(pop.make_prognostic_spec(0.5), name="centred", **{field: centred[field]})
        monkeypatch.setenv("MATCHBIAS_THREADS", threads)
        monkeypatch.setattr(sim, "BLOCK_SCORES", 8192)
        with pytest.raises(RuntimeError, match="elementwise") as exc:
            sim.run_cell(spec, 100, 170, 3)
        assert_no_children()
        seeds = [pop.derive_seed(3, r) for r in range(sim.BLOCK_SCORES // 100)]
        _, block = sim._block(spec, 100, seeds, "exact", MatchConfig())
        first = next(i for i, res in enumerate(block) if res and not res[3])
        assert str(exc.value).startswith(
            f"replication of centred at n=100 with rep seed {seeds[first]}: ")


class TestWorkerHeap:
    @needs_glibc_fork
    def test_pool_workers_keep_freed_heap(self):
        # with glibc's defaults a freed 4 MB array is unmapped, so the
        # second cycle faults every page back in like the first
        results = fresh_worker_results(fault_counts, NUMPY_MADVISE_HUGEPAGE="0")
        assert len(results) == 2
        for first, second in results:
            faults = f"minor faults: first cycle {first}, second cycle {second}"
            assert first > 500, faults  # 977 pages of 4 KiB
            assert second < 0.1 * first, faults

    @needs_glibc_fork
    @pytest.mark.skipif(thp_mode() in ("", "never")
                        or not np_multiarray._get_madvise_hugepage(),
                        reason="needs transparent huge pages and numpy's advice")
    def test_workers_carve_replications_from_huge_pages(self):
        # a replication's 800 KB arrays are below numpy's 4 MiB advice;
        # they land in huge pages only through the worker's reserve
        results = fresh_worker_results(huge_page_rise)
        assert len(results) == 2
        for rise in results:
            assert rise > 0, f"AnonHugePages rose by {rise} kB"

    def test_serial_path_leaves_allocator_alone(self, monkeypatch):
        def refuse():
            raise AssertionError("the initializer ran in the calling process")

        monkeypatch.setattr(sim, "_keep_freed_heap", refuse)
        monkeypatch.setenv("MATCHBIAS_THREADS", "1")
        row = sim.run_cell(pop.make_prognostic_spec(0.5), 200, 4, 3)
        assert row.reps_done == 4

    def test_workers_get_the_initializer(self, monkeypatch):
        def announce():
            raise AssertionError(f"initializer ran in process {os.getpid()}")

        monkeypatch.setattr(sim, "_keep_freed_heap", announce)
        monkeypatch.setenv("MATCHBIAS_THREADS", "2")
        with pytest.raises(AssertionError, match="initializer ran") as exc:
            sim.run_cell(pop.make_prognostic_spec(0.5), 200, 4, 3)
        assert int(str(exc.value).split()[-1]) != os.getpid()  # in a worker

    def test_fork_failure_runs_serially(self, monkeypatch, caplog):
        # the calling process runs each refused range, with its own allocator
        def refuse():
            raise AssertionError("the initializer ran in the calling process")

        spec, attempts = pop.make_prognostic_spec(0.5), []
        monkeypatch.setattr(os, "fork", partial(refuse_fork, attempts))
        monkeypatch.setattr(sim, "_keep_freed_heap", refuse)
        monkeypatch.setenv("MATCHBIAS_THREADS", "2")
        with caplog.at_level(logging.WARNING, logger="matchbias.simulation"):
            row = sim.run_cell(spec, 200, 4, 3)
        assert attempts == ["fork", "fork"]  # one per range
        assert [r.getMessage() for r in caplog.records] == [
            "cannot fork a worker (no fork in this test); running replications "
            f"{lo}..{hi} serially" for lo, hi in ((0, 1), (2, 3))]
        monkeypatch.setenv("MATCHBIAS_THREADS", "1")
        assert row == sim.run_cell(spec, 200, 4, 3)

    def test_initializer_never_raises(self, monkeypatch):
        monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.0")
        monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
        assert sim._keep_freed_heap() is None  # AttributeError: no mallopt

    def test_reserve_that_cannot_be_allocated(self, monkeypatch):
        params = []

        def mallopt(param, value):
            params.append(param)
            return 1

        def refuse(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.0")
        monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        monkeypatch.setattr(np, "empty", refuse)
        assert sim._keep_freed_heap() is None
        assert params == [sim._M_TRIM_THRESHOLD, sim._M_MMAP_THRESHOLD]


class TestForkedWorkers:
    def test_lambda_spec_runs_on_forked_workers(self, monkeypatch):
        # nothing is pickled on the way to a worker
        base = pop.make_prognostic_spec(0.5)
        spec = replace(base, score_from_uniform=lambda u: base.score_from_uniform(u))
        forked = count_forks(monkeypatch)
        monkeypatch.setenv("MATCHBIAS_THREADS", "2")
        row = sim.run_cell(spec, 200, 4, 3)
        assert len(forked) == 2 and all(forked)
        monkeypatch.setenv("MATCHBIAS_THREADS", "1")
        assert row == sim.run_cell(spec, 200, 4, 3)

    @pytest.mark.parametrize("die, status", [
        (partial(os._exit, 7), "exit status 7"),
        (kill_self, f"killed by signal {int(signal.SIGKILL)}"),
        (exit_5_after_the_result, "exit status 5")],
        ids=["exit", "signal", "exit-after-result"])
    def test_worker_that_dies_fails_loudly(self, monkeypatch, die, status):
        parent = os.getpid()
        base = pop.make_prognostic_spec(0.5)

        def dying(u):
            if os.getpid() != parent:
                die()
            return base.score_from_uniform(u)

        monkeypatch.setenv("MATCHBIAS_THREADS", "2")
        with pytest.raises(RuntimeError, match="died without a result") as exc:
            sim.run_cell(replace(base, score_from_uniform=dying), 200, 4, 3)
        assert str(exc.value) == (
            "worker for replications 0..1 of prognostic(a=0.5) at n=200 with "
            f"cell seed 3 died without a result ({status})")
        assert_no_children()

    @pytest.mark.parametrize("error", [Unpicklable, partial(Unrebuildable, "a", "b")])
    def test_exception_that_cannot_cross_the_pipe(self, monkeypatch, error):
        def raising(task):
            raise error()

        monkeypatch.setattr(sim, "_rep_task", raising)
        monkeypatch.setenv("MATCHBIAS_THREADS", "2")
        with pytest.raises(RuntimeError, match=r"^worker could not send Un\w+\(") as exc:
            sim.run_cell(pop.make_prognostic_spec(0.5), 200, 4, 3)
        assert type(error()).__name__ in str(exc.value)
        assert_no_children()

    def test_import_loads_no_process_pool(self):
        # concurrent.futures.process pulls in multiprocessing: 19-23 ms of
        # every import of matchbias when simulation imported it
        fresh_python("import matchbias, sys; loaded = sorted(m for m in sys.modules "
                     "if m.split('.')[0] in ('concurrent', 'multiprocessing')); "
                     "assert not loaded, loaded")


# two cells, n = 200 then 300, on ranges 0..1 and 2..3 at two workers
TWO_CELLS = sim.SimConfig(a_values=(0.5,), n_values=(200, 300), reps=4, master_seed=3)


def row_bits(rows):
    return [repr(r) for r in rows]


class TestTableWorkers:
    def test_rows_do_not_depend_on_the_worker_count(self, monkeypatch):
        # n = 100 runs in blocks of 40 rows at k = 2, n = 5000 one sample
        # at a time; 5 reps are ranges of 2 and 3 at two workers, and of
        # 1, 2 and 2 at three
        config = sim.SimConfig(a_values=(1 / 3, 0.5), n_values=(5000, 100), reps=5,
                               master_seed=17, match_method="capacitated",
                               match_config=MatchConfig(capacity=2, caliper=0.1))
        rows = {}
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("MATCHBIAS_THREADS", threads)
            rows[threads] = row_bits(sim.run_table(config))
            assert_no_children()
        assert rows["2"] == rows["1"] and rows["3"] == rows["1"]
        assert len(rows["1"]) == 4 and "reps_done=5" in rows["1"][3]

    def test_compare_methods_does_not_depend_on_the_worker_count(self, monkeypatch):
        spec, out = pop.make_prognostic_spec(1 / 3), {}
        for threads in ("1", "2"):
            monkeypatch.setenv("MATCHBIAS_THREADS", threads)
            out[threads] = {k: repr(v) for k, v in sim.compare_methods(spec, 300, 6, 21).items()}
            assert_no_children()
        assert out["2"] == out["1"]

    @pytest.mark.parametrize("threads", [2, 3])
    def test_a_table_forks_its_workers_once(self, monkeypatch, threads):
        forked = count_forks(monkeypatch)
        monkeypatch.setenv("MATCHBIAS_THREADS", str(threads))
        config = sim.SimConfig(a_values=(0.5, 1.0), n_values=(60, 200, 1000), reps=4,
                               master_seed=3)
        assert len(sim.run_table(config)) == 6
        assert len(forked) == threads and all(forked)
        assert_no_children()
        forked.clear()
        sim.run_cell(pop.make_prognostic_spec(0.5), 200, 4, 3)
        assert len(forked) == threads
        assert_no_children()
        forked.clear()
        sim.compare_methods(pop.make_prognostic_spec(0.5), 200, 4, 3)
        assert len(forked) == threads
        assert_no_children()

    def test_a_failed_cell_keeps_the_table_s_workers(self, monkeypatch):
        # every replication at a = 0.5 fails, so its cell raises
        # SimulationError and the a = 1 cell still runs on the same workers
        nan = replace(pop.make_prognostic_spec(0.5), assign_prob=partial(pop._const, value=math.nan))
        config = sim.SimConfig(a_values=(0.5, 1.0), n_values=(60,), reps=4, master_seed=3)
        forked = count_forks(monkeypatch)
        monkeypatch.setenv("MATCHBIAS_THREADS", "2")
        failed, done = sim.run_table(
            config, spec_factory=lambda a: nan if a == 0.5 else pop.make_prognostic_spec(a))
        assert failed.reps_done == 0 and "assign_prob left [0, 1]" in failed.note
        assert done.reps_done == 4 and done.note == ""
        assert len(forked) == 2
        assert_no_children()

    def test_a_bug_in_a_later_cell_fails_loudly(self, monkeypatch):
        # one control too many on the n = 300 rows: a bug raised in a worker
        # after the n = 200 cell has reached on_cell
        rows_used = matching._rows_used

        def flipping(xs, is_c, starts):
            used = rows_used(xs, is_c, starts)
            if xs.size == 300 * starts.size:
                used[np.flatnonzero(is_c & ~used)[:1]] = True
            return used

        monkeypatch.setattr(matching, "_rows_used", flipping)
        forked = count_forks(monkeypatch)
        monkeypatch.setenv("MATCHBIAS_THREADS", "2")
        seen = []
        with pytest.raises(RuntimeError, match="level solver") as exc:
            sim.run_table(TWO_CELLS, on_cell=lambda row, secs: seen.append(row.n))
        assert seen == [200] and len(forked) == 2
        assert_no_children()
        cell_seed = pop.derive_seed(3, 0, 1)
        assert "prognostic(a=0.5) at n=300 with rep seed " \
            f"{pop.derive_seed(cell_seed, 0)} failed" in str(exc.value)

    def test_spec_factory_that_raises_fails_before_any_replication(self, monkeypatch):
        def factory(a):
            if a == 1.0:
                raise ValueError("no spec at a = 1")
            return pop.make_prognostic_spec(a)

        started = []
        monkeypatch.setattr(pop, "sample", lambda *args: started.append(args))
        monkeypatch.setattr(os, "fork", partial(refuse_fork, started))
        monkeypatch.setenv("MATCHBIAS_THREADS", "2")
        config = sim.SimConfig(a_values=(0.5, 1.0), n_values=(60,), reps=4, master_seed=3)
        with pytest.raises(ValueError, match="no spec at a = 1"):
            sim.run_table(config, spec_factory=factory)
        assert started == []

    def test_a_cell_run_from_on_cell_gets_workers_of_its_own(self, monkeypatch):
        # it is not the table's next cell, so it does not take that cell's results
        spec, inner = pop.make_prognostic_spec(1 / 3), []
        forked = count_forks(monkeypatch)
        monkeypatch.setenv("MATCHBIAS_THREADS", "2")
        rows = sim.run_table(TWO_CELLS, on_cell=lambda row, secs: inner.append(
            sim.run_cell(spec, 100, 4, 9)))
        assert len(forked) == 2 + 2 * 2
        assert_no_children()
        monkeypatch.setenv("MATCHBIAS_THREADS", "1")
        assert rows == sim.run_table(TWO_CELLS)
        assert inner == [sim.run_cell(spec, 100, 4, 9)] * 2

    @pytest.mark.parametrize("die, status", [
        (partial(os._exit, 7), "exit status 7"),
        (kill_self, f"killed by signal {int(signal.SIGKILL)}"),
        (exit_5_after_the_result, "exit status 5")],
        ids=["exit", "signal", "exit-after-result"])
    def test_worker_that_dies_in_a_later_cell_fails_loudly(self, monkeypatch, die, status):
        parent = os.getpid()
        base = pop.make_prognostic_spec(0.5)

        def dying(u):
            if os.getpid() != parent and u.shape[-1] == 300:
                die()
            return base.score_from_uniform(u)

        spec, seen = replace(base, score_from_uniform=dying), []
        monkeypatch.setenv("MATCHBIAS_THREADS", "2")
        with pytest.raises(RuntimeError, match="died without a result") as exc:
            sim.run_table(TWO_CELLS, spec_factory=lambda a: spec,
                          on_cell=lambda row, secs: seen.append(row.n))
        assert str(exc.value) == (
            "worker for replications 0..1 of prognostic(a=0.5) at n=300 with "
            f"cell seed {pop.derive_seed(3, 0, 1)} died without a result ({status})")
        assert seen == [200]
        assert_no_children()

    def test_fork_failure_runs_each_cell_s_range_serially(self, monkeypatch, caplog):
        # one warning and one fork attempt per worker, not per cell
        def refuse():
            raise AssertionError("the initializer ran in the calling process")

        attempts = []
        monkeypatch.setattr(os, "fork", partial(refuse_fork, attempts))
        monkeypatch.setattr(sim, "_keep_freed_heap", refuse)
        monkeypatch.setenv("MATCHBIAS_THREADS", "2")
        with caplog.at_level(logging.WARNING, logger="matchbias.simulation"):
            rows = sim.run_table(TWO_CELLS)
        assert attempts == ["fork", "fork"]
        assert [r.getMessage() for r in caplog.records] == [
            "cannot fork a worker (no fork in this test); running replications "
            f"{lo}..{hi} of each of 2 cells serially" for lo, hi in ((0, 1), (2, 3))]
        monkeypatch.setenv("MATCHBIAS_THREADS", "1")
        assert rows == sim.run_table(TWO_CELLS)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            sim.SimConfig(a_values=(1.0,), n_values=(), reps=1, master_seed=0)
        with pytest.raises(ValueError, match="a_values"):
            sim.SimConfig(a_values=(), n_values=(10,), reps=1, master_seed=0)
        with pytest.raises(ValueError):
            sim.SimConfig(a_values=(1.0,), n_values=(10,), reps=0, master_seed=0)
        with pytest.raises(ValueError):
            sim.SimConfig(a_values=(1.0,), n_values=(10,), reps=1,
                          master_seed=0, spec_kind="nope")
        with pytest.raises(ValueError, match="unknown matching method"):
            sim.SimConfig(a_values=(1.0,), n_values=(10,), reps=1,
                          master_seed=0, match_method="hungarian")


    def test_whole_numbers(self):
        cfg = sim.SimConfig(a_values=(1.0,), n_values=(1e4,), reps=1e3,
                            master_seed=5.0)
        assert (cfg.n_values, cfg.reps, cfg.master_seed) == ((10000,), 1000, 5)
        assert all(type(v) is int for v in (*cfg.n_values, cfg.reps, cfg.master_seed))
        base = dict(a_values=(1.0,), n_values=(10,), reps=1, master_seed=0)
        for field, bad in (("n_values", (60.5,)), ("n_values", (math.nan,)),
                           ("reps", True), ("master_seed", 1.5),
                           ("master_seed", -1)):
            with pytest.raises(ValueError, match=f"^{field} must be a whole number"):
                sim.SimConfig(**{**base, field: bad})


class TestRunTable:
    def test_grid_shape_and_order(self):
        config = sim.SimConfig(a_values=(1.0, 1 / 3, 4 / 9),
                               n_values=(60, 30), reps=2, master_seed=11,
                               match_method="exact")
        rows = sim.run_table(config)
        assert len(rows) == 6
        keys = [(r.a, r.n) for r in rows]
        assert keys == sorted(keys)
        for r in rows:
            assert r.asymp_bias == pytest.approx(
                __import__("matchbias.theory", fromlist=["x"])
                .prognostic_bias_closed_form(r.a))

    def test_a_above_one_takes_the_numeric_zero_bias(self):
        # the closed form holds only on [1/3, 1]; at a = 2 no region is half treated
        config = sim.SimConfig(a_values=(2.0,), n_values=(40,), reps=2,
                               master_seed=4, match_method="exact")
        assert sim.run_table(config)[0].asymp_bias == 0.0

    def test_deterministic(self):
        config = sim.SimConfig(a_values=(0.5,), n_values=(40,), reps=3,
                               master_seed=4, match_method="exact")
        assert sim.run_table(config) == sim.run_table(config)

    def test_single_cell(self):
        config = sim.SimConfig(a_values=(0.5,), n_values=(50,), reps=2,
                               master_seed=4, match_method="exact")
        rows = sim.run_table(config)
        assert len(rows) == 1 and rows[0].reps_done == 2

    def test_custom_kind_needs_factory(self):
        config = sim.SimConfig(a_values=(0.5,), n_values=(50,), reps=1,
                               master_seed=0, spec_kind="custom")
        with pytest.raises(ValueError, match="spec_factory"):
            sim.run_table(config)

    def test_cell_failure_recorded_not_fatal(self):
        config = sim.SimConfig(a_values=(0.5,), n_values=(40,), reps=3,
                               master_seed=0, match_method="banded",
                               match_config=MatchConfig(band=0),
                               spec_kind="custom")
        rows = sim.run_table(
            config, spec_factory=lambda a: pop.make_prognostic_spec(1.0))
        assert len(rows) == 1
        assert rows[0].reps_done == 0
        assert rows[0].note != ""
        assert math.isnan(rows[0].emp_bias)

    def test_on_cell_callback(self):
        seen = []
        config = sim.SimConfig(a_values=(0.5,), n_values=(30, 40), reps=1,
                               master_seed=0, match_method="exact")
        sim.run_table(config, on_cell=lambda row, secs: seen.append((row.n, secs)))
        assert [n for n, _ in seen] == [30, 40]
        assert all(secs >= 0 for _, secs in seen)


class TestCompareMethods:
    def test_structure_and_determinism(self):
        spec = pop.make_prognostic_spec(1 / 3)
        out1 = sim.compare_methods(spec, 300, 10, 21)
        out2 = sim.compare_methods(spec, 300, 10, 21)
        assert out1 == out2
        assert set(out1) == {"without_replacement", "with_replacement",
                             "capacitated_k2", "caliper"}

    def test_with_replacement_less_biased(self):
        spec = pop.make_prognostic_spec(1 / 3)
        out = sim.compare_methods(spec, 2000, 50, 33)
        assert abs(out["with_replacement"].emp_bias) < \
            out["without_replacement"].emp_bias

    def test_capacity_two_shrinks_bias(self):
        # every propensity below 2/3 makes capacity 2 enough for consistency
        spec = pop.make_prognostic_spec(1 / 3)  # max prob 0.75, near enough at b<2
        out = sim.compare_methods(spec, 2000, 50, 33)
        assert abs(out["capacitated_k2"].emp_bias) < \
            out["without_replacement"].emp_bias


class TestEmission:
    def test_csv_layout_and_bytes_determinism(self, tmp_path):
        config = sim.SimConfig(a_values=(0.5,), n_values=(40,), reps=2,
                               master_seed=4, match_method="exact")
        rows = sim.run_table(config)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        sim.rows_to_csv(rows, p1)
        sim.rows_to_csv(sim.run_table(config), p2)
        assert p1.read_bytes() == p2.read_bytes()
        import csv
        with open(p1, newline="") as fh:
            got = list(csv.reader(fh))
        assert got[0] == ["a", "n", "asymp_bias", "emp_bias", "emp_se",
                          "reps", "degenerate"]
        assert len(got) == 2 and len(got[1]) == 7

    def test_markdown_columns(self):
        rows = [sim.SimRow(a=1 / 3, n=100, asymp_bias=0.1556, emp_bias=0.2666,
                           emp_se=0.2708, reps_done=5, degenerate_count=0)]
        md = sim.rows_to_markdown(rows)
        assert "Asymp. bias" in md and "Emp. bias" in md and "Emp. SE" in md
        assert "| 100 | 0.1556 | 0.2666 | 0.2708 |" in md


class TestWorkerCount:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("MATCHBIAS_THREADS", "3")
        assert sim._worker_count(8) == 3
        assert sim._worker_count(2) == 2  # never more workers than reps
        monkeypatch.setenv("MATCHBIAS_THREADS", "zero")
        with pytest.raises(ValueError):
            sim._worker_count(8)
        monkeypatch.setenv("MATCHBIAS_THREADS", "0")
        with pytest.raises(ValueError):
            sim._worker_count(8)

    def test_one_worker_without_fork(self, monkeypatch):
        monkeypatch.setenv("MATCHBIAS_THREADS", "3")
        monkeypatch.delattr(os, "fork")
        assert sim._worker_count(8) == 1
