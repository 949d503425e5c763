import ctypes
import logging
import math
import os
import signal
import subprocess
import sys
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from matchbias import estimators as est
from matchbias import matching
from matchbias import population as pop
from matchbias import simulation as sim
from matchbias.matching import MatchConfig


def constant_outcome_spec():
    # all outcomes identically zero, tau = 0
    return pop.PopulationSpec(
        score_sampler=pop._triangular_scores,
        assign_prob=partial(pop._linear_assign, denom=8 / 3),
        mu0=partial(pop._const, value=0.0),
        mu1=partial(pop._const, value=0.0),
        noise0=pop._no_noise,
        noise1=pop._no_noise,
        tau_att_true=0.0,
        score_pdf=pop._triangular_pdf,
        score_support=(0.0, 2.0),
        score_breakpoints=(1.0,),
    )


def mostly_treated_spec():
    return pop.PopulationSpec(
        score_sampler=partial(pop._uniform_scores, upper=1.0),
        assign_prob=partial(pop._const, value=0.9),
        mu0=pop._identity,
        mu1=pop._identity,
        noise0=pop._no_noise,
        noise1=pop._no_noise,
        tau_att_true=0.0,
    )


def nan_assign_above(s, assign_prob, cut):
    return np.where(s > cut, math.nan, assign_prob(s))


def fault_counts(task):
    """Minor faults of two allocate-touch-free cycles of a 4 MB array, as
    the one result of a one-replication range task.

    4 MB stays below numpy's 4 MiB huge-page advice, so each page touched
    that the process does not already hold is one minor fault. Each worker
    runs one range, so the first cycle is the first in its process.
    """
    import resource  # POSIX only; this runs only where the test does

    counts = []
    for _ in range(2):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        arr = np.ones(500_000)
        del arr
        counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return [counts]


def refuse_fork(calls):
    calls.append("fork")
    raise OSError("no fork in this test")


def kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


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
        # Forked workers inherit the patched matcher.
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
            sim.run_cell(spec, 200, reps, 3, method="exact")
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


class TestWorkerHeap:
    @pytest.mark.skipif(not hasattr(os, "confstr")
                        or not os.confstr("CS_GNU_LIBC_VERSION")
                        or not hasattr(os, "fork"),
                        reason="needs glibc and forked workers")
    def test_pool_workers_keep_freed_heap(self, monkeypatch):
        # with glibc's defaults a freed 4 MB array is unmapped, so the
        # second cycle faults every page back in like the first
        monkeypatch.setattr(sim, "_rep_task", fault_counts)
        monkeypatch.setenv("MATCHBIAS_THREADS", "2")
        results = sim._run_reps(pop.make_prognostic_spec(0.5), 10, 2, 1,
                                "exact", MatchConfig())
        assert len(results) == 2
        for first, second in results:
            faults = f"minor faults: first cycle {first}, second cycle {second}"
            assert first > 500, faults  # 977 pages of 4 KiB
            assert second < 0.1 * first, faults

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


class TestForkedWorkers:
    def test_lambda_spec_runs_on_forked_workers(self, monkeypatch):
        # nothing is pickled on the way to a worker
        base = pop.make_prognostic_spec(0.5)
        spec = replace(base, score_sampler=lambda rng, n: base.score_sampler(rng, n))
        fork, forked = os.fork, []

        def counting_fork():
            pid = fork()
            forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setenv("MATCHBIAS_THREADS", "2")
        row = sim.run_cell(spec, 200, 4, 3)
        assert len(forked) == 2 and all(forked)
        monkeypatch.setenv("MATCHBIAS_THREADS", "1")
        assert row == sim.run_cell(spec, 200, 4, 3)

    @pytest.mark.parametrize("die, status", [
        (partial(os._exit, 7), "exit status 7"),
        (kill_self, f"killed by signal {int(signal.SIGKILL)}")], ids=["exit", "signal"])
    def test_worker_that_dies_fails_loudly(self, monkeypatch, die, status):
        parent = os.getpid()
        base = pop.make_prognostic_spec(0.5)

        def dying(rng, n):
            if os.getpid() != parent:
                die()
            return base.score_sampler(rng, n)

        monkeypatch.setenv("MATCHBIAS_THREADS", "2")
        with pytest.raises(RuntimeError, match="died without a result") as exc:
            sim.run_cell(replace(base, score_sampler=dying), 200, 4, 3)
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
        src = os.path.dirname(os.path.dirname(sim.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import matchbias, sys; loaded = sorted(m for m in sys.modules "
                "if m.split('.')[0] in ('concurrent', 'multiprocessing')); "
                "assert not loaded, loaded")
        subprocess.run([sys.executable, "-c", code], env=env, check=True)


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
