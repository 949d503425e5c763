"""Spans around the calls into each matchbias layer, recorded from outside.

The tracer swaps module attributes for timing wrappers. `_rep_task`,
`run_table` and `cli` look these names up at call time, so a wrapped
attribute sees every call made in this process; run traced work with
MATCHBIAS_THREADS=1 so that every replication stays in-process. Spans are
kept in memory: name, start, end and the index of the enclosing span.

Alongside the spans the tracer keeps the first complete replication of
every `run_cell` call (sample, matching, caliper split, estimate), which
the correctness gate re-checks.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import statistics
from dataclasses import dataclass
from time import perf_counter

from matchbias.matching import MatchConfig

TARGETS = (
    ("cli", "main"),
    ("simulation", "run_table"),
    ("simulation", "run_cell"),
    ("theory", "prognostic_bias_closed_form"),
    ("theory", "asymptotic_bias_score"),
    ("theory", "asymptotic_bias_propensity"),
    ("population", "sample"),
    ("matching", "match_scores"),
    ("matching", "apply_caliper"),
    ("estimators", "att_matching"),
    ("estimators", "att_caliper"),
)

# p90 needs this many calls to have ten beyond it; below it the largest
# call is reported in its place.
P90_MIN_CALLS = 100


@dataclass
class Span:
    name: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    child: float = 0.0
    info: tuple = ()

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.captures: list[dict | None] = []  # one slot per run_cell call
        self._stack: list[int] = []
        self._rep: dict = {}

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target attribute; restore the originals on exit."""
        originals = []
        try:
            for module_name, attr in TARGETS:
                module = importlib.import_module(f"matchbias.{module_name}")
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(f"{module_name}.{attr}", fn))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            if name == "simulation.run_cell":
                self.captures.append(None)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].child += span.seconds
            if observe is not None:
                observe(span, args, kwargs, result)
            return result

        return traced

    # --- observers: counts and the captured replication -----------------

    def _observe_population_sample(self, span, args, kwargs, result):
        self._rep = {"sample": result}

    def _observe_matching_match_scores(self, span, args, kwargs, result):
        span.info = (len(_arg(args, kwargs, 0, "treated_scores")),
                     len(_arg(args, kwargs, 1, "control_scores")),
                     _arg(args, kwargs, 2, "method", "auto"),
                     _arg(args, kwargs, 3, "config") or MatchConfig())
        self._rep["matching"] = result

    def _observe_matching_apply_caliper(self, span, args, kwargs, result):
        retained, dropped = result
        span.info = (len(retained.pairs), len(dropped))
        self._rep["caliper"] = (_arg(args, kwargs, 3, "caliper"), retained,
                                dropped)

    def _observe_estimators_att_matching(self, span, args, kwargs, result):
        self._rep["estimate"] = result.value
        if "matching" in self._rep and self.captures and self.captures[-1] is None:
            self.captures[-1] = self._rep

    _observe_estimators_att_caliper = _observe_estimators_att_matching

    # --- per-layer metrics --------------------------------------------

    def layer_self(self, layer: str) -> float:
        return sum(s.self_seconds for s in self.spans
                   if s.name.startswith(layer + "."))

    def durations(self, *names: str) -> list[float]:
        return [s.seconds for s in self.spans if s.name in names]

    def infos(self, name: str) -> list[tuple]:
        return [s.info for s in self.spans if s.name == name]


def _arg(args, kwargs, pos, key, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def dp_width(n1: int, n0: int, method: str, config) -> int:
    """Columns of the windowed DP table the matcher builds, 0 if it builds none.

    Computed from N1, N0 and the matcher's window rule (the band caps the
    window of "banded"; "exact" takes all N0 - N1 skips), not measured.
    """
    if method == "replacement" or not 0 < n1 <= n0:
        return 0
    if method == "banded":
        return min(config.band, n0 - n1) + 1
    return n0 - n1 + 1


def per_layer_metrics(tracer: Tracer, traced_wall: float,
                      untraced_wall: float, pooled_wall: float,
                      workers: int) -> dict[str, tuple[float, str, str]]:
    """Per-layer metrics of one traced run: name -> (value, unit, note).

    Shares are a layer's self time over the traced wall time; the matching
    layer is `match_scores` and `apply_caliper`. Pool overhead is the pooled
    wall time minus serial busy time over workers, per `run_cell` call.
    """
    spans = tracer.spans
    sample = tracer.durations("population.sample")
    match = tracer.durations("matching.match_scores")
    caliper = tracer.durations("matching.apply_caliper")
    att = tracer.durations("estimators.att_matching", "estimators.att_caliper")
    cells = len(tracer.durations("simulation.run_cell"))
    theory = [s.seconds for s in spans if s.name.startswith("theory.")
              and (s.parent < 0 or not spans[s.parent].name.startswith("theory."))]
    cli = [s.self_seconds for s in spans if s.name == "cli.main"]
    widths = [(n1, dp_width(n1, n0, method, config))
              for n1, n0, method, config in tracer.infos("matching.match_scores")]
    split = tracer.infos("matching.apply_caliper")
    kept = sum(k for k, _ in split)
    paired = sum(k + d for k, d in split)
    overhead = pooled_wall - untraced_wall / workers

    def share(layer):
        return tracer.layer_self(layer) / traced_wall, "ratio", ""

    def calls(xs):
        return len(xs), "count", ""

    def p50(xs):
        return _p50(xs), "s", f"{len(xs)} calls"

    computed = "computed from N1 and N0, mean per call"
    return {
        "population.sample_s_p50": p50(sample),
        "population.sample_calls": calls(sample),
        "population.sample_share": share("population"),
        "matching.match_s_p50": p50(match),
        "matching.match_s_p90": (
            _p90(match), "s", f"{len(match)} calls" if len(match) >= P90_MIN_CALLS
            else f"max of {len(match)} calls"),
        "matching.match_calls": calls(match),
        "matching.match_share": share("matching"),
        "matching.dp_cells": (_mean([n1 * w for n1, w in widths]), "count", computed),
        "matching.dp_backtrack_mb": (
            _mean([n1 * math.ceil(w / 8) for n1, w in widths]) / 1e6, "MB", computed),
        "matching.caliper_s_p50": p50(caliper),
        "matching.caliper_calls": calls(caliper),
        "matching.caliper_retained_ratio": (
            kept / paired if paired else 1.0, "ratio", f"{kept} of {paired} pairs"),
        "estimators.att_s_p50": p50(att),
        "estimators.att_calls": calls(att),
        "estimators.att_share": share("estimators"),
        "simulation.self_share": share("simulation"),
        "simulation.pool_overhead_s": (
            overhead / max(cells, 1), "s",
            f"pooled {pooled_wall:.4g} s - serial {untraced_wall:.4g} s / "
            f"{workers} workers, per run_cell call"),
        "simulation.workers": (workers, "count", ""),
        "simulation.cell_calls": (cells, "count", ""),
        "simulation.table_calls": calls(tracer.durations("simulation.run_table")),
        "theory.bias_s": (sum(theory), "s", f"{len(theory)} calls"),
        "theory.bias_calls": calls(theory),
        "cli.self_s": (_mean(cli), "s", f"mean of {len(cli)} calls"),
        "cli.calls": calls(cli),
        "trace.overhead_ratio": (
            traced_wall / untraced_wall, "ratio",
            f"traced {traced_wall:.4g} s / untraced {untraced_wall:.4g} s serial"),
        "trace.wall_s": (traced_wall, "s", ""),
        "trace.spans": calls(spans),
    }


def _mean(xs):
    return statistics.fmean(xs) if xs else 0.0


def _p50(xs):
    return statistics.median(xs) if xs else 0.0


def _p90(xs):
    if len(xs) >= P90_MIN_CALLS:
        return statistics.quantiles(xs, n=10)[-1]
    return max(xs, default=0.0)
