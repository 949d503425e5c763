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

from matchbias import estimators, matching, population

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
