"""What the benchmark reads from `src/`, checked from the tier-1 suite.

`bench/tracing.py` swaps `(module, attr)` pairs listed in its TARGETS for
timing wrappers, and `bench/gate.py` re-checks the replication the tracer
captures. A rename in `src/`, or a change to what a matcher or
`apply_caliper` returns, would break the benchmark, which no test under
`tests/` runs, so this checks both.
"""

import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from matchbias import cli, estimators, matching, population, simulation, theory

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves(monkeypatch):
    tracing = _load(monkeypatch, "tracing")
    assert tracing.TARGETS
    for module_name, attr in tracing.TARGETS:
        module = importlib.import_module(f"matchbias.{module_name}")
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def _captured_rep(method, caliper):
    """One replication as the tracer captures it, built from `src` calls."""
    smp = population.sample(population.make_prognostic_spec(1 / 3), 2000, 11)
    t, c = smp.treated_scores, smp.control_scores
    m = matching.match_scores(t, c, method)
    cap = {"sample": smp, "matching": m}
    if caliper is None:
        cap["estimate"] = estimators.att_matching(smp, m).value
    else:
        retained, dropped = matching.apply_caliper(m, t, c, caliper)
        cap["caliper"] = (caliper, retained, dropped)
        cap["estimate"] = estimators.att_caliper(smp, retained).value
    return cap


def _without_first_pair(m):
    return dataclasses.replace(m, pairs=dict(list(m.pairs.items())[1:]))


@pytest.mark.parametrize("method, caliper", [("exact", None),
                                             ("replacement", 1e-4)])
def test_gate_passes_src_replications_and_trips_on_a_lost_pair(
        monkeypatch, method, caliper):
    gate = _load(monkeypatch, "gate")
    without_replacement = method != "replacement"
    cap = _captured_rep(method, caliper)
    assert gate.recheck_rep(cap, without_replacement) == []
    if caliper is None:
        tampered = dict(cap, matching=_without_first_pair(cap["matching"]))
    else:
        _, retained, dropped = cap["caliper"]
        assert len(retained.pairs) and dropped  # both sides of the split run
        tampered = dict(cap, caliper=(caliper, _without_first_pair(retained),
                                      dropped))
    assert gate.recheck_rep(tampered, without_replacement) != []


# the calls the benchmark's table_n100 workload traces, by what it counts
TABLE_CALLS = ((simulation, "run_cell"), (population, "sample"),
               (matching, "match_scores"), (estimators, "att_matching"),
               (theory, "prognostic_bias_closed_form"),
               (theory, "asymptotic_bias_score"),
               (theory, "asymptotic_bias_propensity"))


def test_simulate_desk_calls_what_the_table_trace_counts(monkeypatch, tmp_path,
                                                         capsys):
    # bench/tests asserts 3 cells and theory.bias_calls == 3 on this run,
    # and the tracer captures one sample -> match -> estimate per cell
    events = []

    def wrap(name, fn):
        def traced(*args, **kwargs):
            events.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                if name == "run_cell":
                    events.append("/run_cell")
        return traced

    for module, attr in TABLE_CALLS:
        monkeypatch.setattr(module, attr, wrap(attr, getattr(module, attr)))
    monkeypatch.setenv("MATCHBIAS_THREADS", "1")
    desk = BENCH.parent / "configs" / "table_s1_desk.json"
    assert cli.main(["simulate", "--config", str(desk), "--n", "100", "--reps", "20",
                     "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    cells, outside, inside = [], [], None
    for name in events:
        if name == "run_cell":
            inside = []
        elif name == "/run_cell":
            cells.append(inside)
            inside = None
        else:
            (outside if inside is None else inside).append(name)
    assert outside == ["prognostic_bias_closed_form"] * 3
    assert len(cells) == 3
    for calls in cells:
        assert any(calls[i:i + 3] == ["sample", "match_scores", "att_matching"]
                   for i in range(len(calls))), calls
