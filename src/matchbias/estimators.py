"""ATT estimation from matched samples.

Matcher pairs are positions into the treated/control score sequences; the
helpers here translate them through a Sample's treated/control index sets.
The matching estimator follows the convention of being exactly zero when
no matching exists, which the matcher alone decides by raising
InfeasibleError (where `matching.feasible` is false); `degenerate`
records that the convention fired.
The caliper estimator averages over the matching that `apply_caliper`
retained.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matching import Matching, MatchConfig, match_scores
from .population import Sample, real_number


@dataclass(frozen=True)
class AttEstimate:
    value: float
    n1_used: int
    degenerate: bool = False


@dataclass(frozen=True)
class ControlWeights:
    """Per-control match counts; nu[j] is how many treated units control j absorbs."""

    nu: np.ndarray


def match_sample(smp: Sample, method: str = "exact",
                 config: MatchConfig | None = None) -> Matching:
    """Match a sample's treated scores to its control scores."""
    return match_scores(smp.treated_scores, smp.control_scores, method, config)


def att_matching(smp: Sample, matching: Matching | None) -> AttEstimate:
    """Average within-pair outcome difference over the treated units.

    Pass matching=None when the matcher raised InfeasibleError; the
    estimate is then zero by convention, flagged degenerate.
    """
    n1, n0 = smp.n1, smp.n0
    if n1 == 0 or matching is None:
        return AttEstimate(0.0, 0, degenerate=True)
    tp, cp = matching.pair_arrays()
    if tp.shape != (n1,) or not (tp == np.arange(n1)).all():
        raise ValueError("matching must pair every treated position exactly once")
    bad = cp[(cp < 0) | (cp >= n0)]
    if bad.size:
        raise ValueError(
            f"pair references position {bad[0]}, which is not a control")
    # tp is 0..n1-1 in order, so the treated outcomes need no gather through it
    y_t = smp.y[smp.treated_idx]
    y_c = smp.y[smp.control_idx[cp]]
    return AttEstimate(float((y_t - y_c).mean()), n1)


def control_weights(matching: Matching, n0: int) -> ControlWeights:
    """Count how many treated units each control position absorbs."""
    _, cp = matching.pair_arrays()
    bad = cp[(cp < 0) | (cp >= n0)]
    if bad.size:
        raise ValueError(f"pair references position {bad[0]} out of {n0} controls")
    return ControlWeights(np.bincount(cp, minlength=n0))


def att_weighted(smp: Sample, weights: ControlWeights) -> AttEstimate:
    """Weighting form of the matching estimator.

    mean(Y over treated) minus (1/N1) * sum(nu_j * Y_j over controls);
    identical to att_matching on the matching that induced the weights.
    """
    n1 = smp.n1
    nu = np.asarray(weights.nu)
    total = int(nu.sum())
    if total != n1:
        raise ValueError(f"weights sum to {total}, expected N1 = {n1}")
    if n1 == 0:
        return AttEstimate(0.0, 0, degenerate=True)
    y_c = smp.y[smp.control_idx]
    value = float(np.mean(smp.y[smp.treated_idx]) - np.dot(nu, y_c) / n1)
    return AttEstimate(value, n1)


def att_caliper(smp: Sample, retained: Matching) -> AttEstimate:
    """ATT over the pairs of `retained`, the matching a caliper kept.

    Dropping pairs reweights the treated units: the estimand is the
    treatment effect among the caliper-retained subpopulation, not the full
    treated population. With no pair retained the estimate is zero,
    flagged degenerate. A pair outside the sample raises ValueError.
    """
    tp, cp = retained.pair_arrays()
    if not tp.size:
        return AttEstimate(0.0, 0, degenerate=True)
    if tp[0] < 0 or tp[-1] >= smp.n1 or cp.min() < 0 or cp.max() >= smp.n0:
        raise ValueError("pair references a position outside the sample "
                         f"(N1 = {smp.n1}, N0 = {smp.n0})")
    y_t = smp.y[smp.treated_idx[tp]]
    y_c = smp.y[smp.control_idx[cp]]
    return AttEstimate(float(np.mean(y_t - y_c)), tp.size)


def segment_means(x: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The mean of each segment of x, as np.mean gives it for the segment
    alone, bit for bit; NaN for an empty one. The segments lie back to
    back, the i-th counts[i] long.

    np.mean sums pairwise in a grouping that depends on the length, and
    np.add.reduceat groups a segment differently. So the segments are
    sorted by length and those of one length summed as the rows of one 2D
    array, which numpy sums row by row as it sums a 1D array: a fixed
    number of numpy calls per distinct length.
    """
    by_length = np.argsort(counts, kind="stable")
    lengths = counts[by_length]
    # x with its segments in that order
    shift = np.cumsum(counts) - counts
    shift = shift[by_length] - (np.cumsum(lengths) - lengths)
    x = x[np.arange(lengths.sum()) + np.repeat(shift, lengths)]
    sums = np.zeros(counts.size)
    values, first, runs = np.unique(lengths, return_index=True, return_counts=True)
    at = 0
    for length, i, m in zip(values.tolist(), first.tolist(), runs.tolist()):
        if length:
            np.add.reduce(x[at:at + m * length].reshape(m, length), axis=1,
                          out=sums[i:i + m])
        at += m * length
    np.divide(sums, lengths, out=sums, where=lengths > 0)
    sums[lengths == 0] = np.nan
    means = np.empty(counts.size)
    means[by_length] = sums
    return means


def att_true_sample(smp: Sample) -> float:
    """Sample-level target: mean of y1 - y0 over the treated units."""
    if smp.n1 == 0:
        raise ValueError("no treated units; sample ATT undefined")
    t = smp.treated_idx
    return float(np.mean(smp.y1[t] - smp.y0[t]))


def diagnose_overlap(smp: Sample, threshold: float = 0.5,
                     assign_prob=None) -> tuple[float, int]:
    """Fraction and count of units at or above the score threshold.

    When assign_prob is given, it maps scores to treatment probabilities
    first, so the check reads directly as the estimated mass with
    propensity >= threshold. A nonzero count already refutes the hypothesis
    that this mass is zero. The threshold is any number but NaN, +-inf included.
    """
    threshold = real_number(threshold, "threshold", "a number", lambda v: not np.isnan(v))
    if smp.n == 0:
        return 0.0, 0
    values = smp.s if assign_prob is None else np.asarray(assign_prob(smp.s))
    count = int(np.count_nonzero(values >= threshold))
    return count / smp.n, count

