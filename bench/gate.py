"""The benchmark's correctness gate. Each check returns a list of breaches."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from matchbias import estimators, matching

REFERENCES = Path(__file__).resolve().parent / "references.json"
WEIGHTING_TOL = 1e-12
# emp_bias and emp_se must repeat to this relative precision at the default
# seed; it admits a change of summation order, not a change of matching.
REFERENCE_RTOL = 1e-9


def identical(label_a, rows_a, label_b, rows_b) -> list[str]:
    """Rows of two runs of one cell grid must agree bit for bit."""
    if [_bits(r) for r in rows_a] == [_bits(r) for r in rows_b]:
        return []
    return [f"{label_a} and {label_b} rows differ: {rows_a} != {rows_b}"]


def _bits(row):
    return tuple(x.hex() if isinstance(x, float) else x for x in row)


def complete(label, rows, reps) -> list[str]:
    """Every replication done and no note, in every cell."""
    return [f"{label} cell (a={r.a:g}, n={r.n}): {r.reps_done} of {reps} "
            f"reps done, note {r.note!r}"
            for r in rows if r.reps_done != reps or r.note]


def load_references(size: str, name: str) -> list[dict]:
    with open(REFERENCES) as fh:
        return json.load(fh)[size][name]


def against_references(rows, refs: list[dict]) -> list[str]:
    """emp_bias and emp_se of every cell at the default seed."""
    if len(rows) != len(refs):
        return [f"{len(rows)} cells, {len(refs)} reference cells"]
    out = []
    for row, ref in zip(rows, refs):
        for key in ("emp_bias", "emp_se"):
            got, want = getattr(row, key), ref[key]
            if row.n != ref["n"] or not math.isclose(
                    got, want, rel_tol=REFERENCE_RTOL, abs_tol=1e-15):
                out.append(f"cell (a={row.a:g}, n={row.n}) {key} = {got!r}, "
                           f"reference {want!r} at n={ref['n']}")
    return out


def recheck_rep(cap: dict | None, without_replacement: bool) -> list[str]:
    """Re-check one captured replication of a cell.

    Every treated position is matched exactly once to a control; matchings
    without replacement reuse no control and never cross; the weighting
    form equals the matching form; the caliper split partitions the pairs
    by gap; and the estimate the replication used equals the mean pair
    difference recomputed here.
    """
    if cap is None:
        return ["no complete replication was captured for a cell"]
    smp, m = cap["sample"], cap["matching"]
    n1, n0 = smp.n1, smp.n0
    tp, cp = m.pair_arrays()
    out = []
    if len(m.pairs) != n1 or not np.array_equal(tp, np.arange(n1)):
        out.append("some treated position is not matched exactly once")
    if cp.size and not (cp.min() >= 0 and cp.max() < n0):
        out.append("a pair references a position that is not a control")
    if out:
        return out
    t, c = smp.treated_scores, smp.control_scores
    if without_replacement:
        if np.unique(cp).size != cp.size:
            out.append("a control is used twice without replacement")
        elif matching.has_crossing(m, t, c):
            out.append("the matching without replacement has crossing pairs")
    direct = estimators.att_matching(smp, m).value
    weighted = estimators.att_weighted(smp, estimators.control_weights(m, n0)).value
    if abs(direct - weighted) > WEIGHTING_TOL:
        out.append(f"att_weighted {weighted!r} != att_matching {direct!r}")
    keep = np.ones(n1, dtype=bool)
    if "caliper" in cap:
        caliper, retained, dropped = cap["caliper"]
        keep = np.abs(t[tp] - c[cp]) <= caliper
        if set(retained.pairs) != set(tp[keep].tolist()) \
                or dropped != set(tp[~keep].tolist()):
            out.append("the caliper split does not follow the pair gaps")
    y_t = smp.y[smp.treated_idx[tp[keep]]]
    y_c = smp.y[smp.control_idx[cp[keep]]]
    expect = float(np.mean(y_t - y_c)) if keep.any() else 0.0
    if abs(cap["estimate"] - expect) > WEIGHTING_TOL:
        out.append(f"replication estimate {cap['estimate']!r} != mean pair "
                   f"difference {expect!r}")
    return out
