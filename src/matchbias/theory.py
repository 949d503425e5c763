"""Theoretical quantities for matching without replacement.

The matching problem on a scalar score splits at the point where the
population above it is exactly half treated: controls are scarce above,
abundant below. This module locates that partition (as a propensity value
p* or a score threshold b), evaluates the resulting asymptotic bias of the
ATT matching estimator both numerically and in closed form for the
prognostic-score example, and provides the order-one transport distance
that drives the bias.

Populations with a score density are integrated by adaptive quadrature;
populations without one fall back to a fixed-seed Monte Carlo measure, so
results stay deterministic either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .population import PopulationSpec

_SCAN_POINTS = 10_001
_DENSE_NODES = 20_001
_MC_DRAWS = 1 << 18
_MC_SEED = 202_006_11


class PStarError(RuntimeError):
    """Partition search failed (level set is not an interval)."""


class SStarNotFoundError(ValueError):
    """No score threshold reaches a half-treated upper region; its mass is zero."""


@dataclass(frozen=True)
class PStarResult:
    pstar: float
    tail_treated_prob: float
    defaulted: bool
    left_closed: bool


@dataclass(frozen=True)
class BiasReport:
    """Asymptotic bias and the pieces it is assembled from.

    bias equals prob_upper / (2 * pi_bar) times the gap between the two
    conditional Y(0) expectations over the upper region; both expectations
    are reported as 0 when the upper region carries no mass.
    """

    bias: float
    prob_upper: float
    pi_bar: float
    e_y0_treated_upper: float
    e_y0_control_upper: float


def _support(spec: PopulationSpec) -> tuple[float, float]:
    if spec.score_support is None:
        raise ValueError("spec has no score_support; cannot integrate")
    lo, hi = spec.score_support
    if not hi > lo:
        raise ValueError("degenerate score support")
    return float(lo), float(hi)


def _has_density(spec: PopulationSpec) -> bool:
    return spec.score_pdf is not None and spec.score_support is not None


def _quad(fn, lo: float, hi: float, breakpoints=(), tol: float = 1e-11) -> float:
    if hi <= lo:
        return 0.0
    pts = [b for b in breakpoints if lo < b < hi]
    out = quad(fn, lo, hi, points=pts or None, epsabs=1e-14,
               epsrel=max(tol, 1e-12), limit=200, full_output=1)
    return float(out[0])


def _mc_scores(spec: PopulationSpec, seed: int = _MC_SEED) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    return np.asarray(spec.score_sampler(rng, _MC_DRAWS), dtype=float)


def _dense_nodes(spec: PopulationSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score nodes with trapezoid masses and assignment probabilities."""
    lo, hi = _support(spec)
    s = np.linspace(lo, hi, _DENSE_NODES)
    f = np.asarray(spec.score_pdf(s), dtype=float)
    w = np.full(s.size, (hi - lo) / (s.size - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    return s, f * w, np.asarray(spec.assign_prob(s), dtype=float)


def pi_bar(spec: PopulationSpec) -> float:
    """Overall treated fraction E[assign_prob(S)]."""
    if _has_density(spec):
        lo, hi = _support(spec)
        return _quad(lambda s: float(spec.assign_prob(s)) * float(spec.score_pdf(s)),
                     lo, hi, spec.score_breakpoints)
    s = _mc_scores(spec)
    return float(np.mean(spec.assign_prob(s)))


def _level_intervals(spec: PopulationSpec, level: float) -> list[tuple[float, float]]:
    """Intervals of {s : assign_prob(s) >= level}, grid-located and root-refined."""
    lo, hi = _support(spec)
    s = np.linspace(lo, hi, _DENSE_NODES)
    inside = np.asarray(spec.assign_prob(s), dtype=float) >= level

    def crossing(a, b):
        g = lambda x: float(spec.assign_prob(np.asarray([x]))[0]) - level
        ga, gb = g(a), g(b)
        if ga == 0.0:
            return a
        if gb == 0.0:
            return b
        return brentq(g, a, b, xtol=1e-13)

    bounds = []
    if inside[0]:
        bounds.append(lo)
    for i in np.flatnonzero(np.diff(inside.astype(np.int8)) != 0):
        bounds.append(crossing(s[i], s[i + 1]))
    if inside[-1]:
        bounds.append(hi)
    return list(zip(bounds[0::2], bounds[1::2]))


def _tail_fraction_exact(spec: PopulationSpec, level: float) -> float:
    """Pr(W = 1 | assign_prob(S) >= level) by quadrature over the level set."""
    num = den = 0.0
    for a, b in _level_intervals(spec, level):
        num += _quad(lambda s: float(spec.assign_prob(s)) * float(spec.score_pdf(s)),
                     a, b, spec.score_breakpoints)
        den += _quad(lambda s: float(spec.score_pdf(s)), a, b, spec.score_breakpoints)
    if den <= 0.0:
        return 1.0  # empty region behaves as fully treated for the infimum search
    return num / den


def _pi_measure(spec: PopulationSpec) -> tuple[np.ndarray, np.ndarray]:
    """Discretized distribution of the treatment probability, sorted ascending."""
    if _has_density(spec):
        _, mass, pvals = _dense_nodes(spec)
    else:
        s = _mc_scores(spec)
        pvals = np.asarray(spec.assign_prob(s), dtype=float)
        mass = np.full(pvals.size, 1.0 / pvals.size)
    order = np.argsort(pvals)
    return pvals[order], mass[order]


def pstar(spec: PopulationSpec, tol: float = 1e-8) -> PStarResult:
    """Partition point of the matching problem.

    The smallest treatment probability p such that units with probability
    at least p are at least half treated. Defaults to 1/2 when no unit has
    probability 1/2 or above. A coarse scan verifies the level set
    {p : Pr(W=1 | prob >= p) >= 1/2} is an interval before the boundary is
    refined by bisection; a scattered level set raises PStarError.
    """
    if tol <= 0.0:
        raise ValueError("tol must be > 0")
    pi_sorted, mass_sorted = _pi_measure(spec)
    total = mass_sorted.sum()
    suffix_mass = np.cumsum(mass_sorted[::-1])[::-1]
    suffix_pm = np.cumsum((mass_sorted * pi_sorted)[::-1])[::-1]

    # default rule: no mass at or above one half
    k_half = np.searchsorted(pi_sorted, 0.5, side="left")
    if k_half >= pi_sorted.size or suffix_mass[k_half] <= 1e-12 * total:
        return PStarResult(pstar=0.5, tail_treated_prob=math.nan,
                           defaulted=True, left_closed=True)

    p_lo, p_hi = float(pi_sorted[0]), float(pi_sorted[-1])
    grid = np.linspace(p_lo, p_hi, _SCAN_POINTS)
    idx = np.searchsorted(pi_sorted, grid, side="left")
    idx = np.minimum(idx, pi_sorted.size - 1)
    with np.errstate(invalid="ignore", divide="ignore"):
        g_grid = suffix_pm[idx] / suffix_mass[idx]
    g_grid = np.where(suffix_mass[idx] <= 1e-12 * total, 1.0, g_grid)

    in_set = g_grid >= 0.5
    if not in_set.any():
        # scan missed the boundary; the top of the distribution qualifies
        first = grid.size - 1
    else:
        first = int(np.argmax(in_set))
        if not in_set[first:].all():
            raise PStarError("level set {p : Pr(W=1 | prob >= p) >= 1/2} "
                             "is not an interval")

    if first == 0:
        result_p = p_lo
    else:
        lo, hi = float(grid[first - 1]), float(grid[first])
        if _has_density(spec):
            predicate = lambda p: _tail_fraction_exact(spec, p) >= 0.5
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                if predicate(mid):
                    hi = mid
                else:
                    lo = mid
            result_p = hi
        else:
            # empirical measure: the infimum sits on an observed atom
            k = int(np.argmax((suffix_pm / suffix_mass) >= 0.5))
            result_p = float(pi_sorted[k])

    if _has_density(spec):
        tail = _tail_fraction_exact(spec, result_p)
    else:
        k = np.searchsorted(pi_sorted, result_p, side="left")
        tail = float(suffix_pm[k] / suffix_mass[k])
    return PStarResult(pstar=float(result_p), tail_treated_prob=float(tail),
                       defaulted=False, left_closed=bool(tail >= 0.5 - 1e-9))


def _check_identity_score(spec: PopulationSpec) -> None:
    if _has_density(spec):
        lo, hi = _support(spec)
        s = np.linspace(lo, hi, 4097)
    else:
        s = _mc_scores(spec)
    gap = np.max(np.abs(np.asarray(spec.assign_prob(s), dtype=float) - s))
    if gap > 1e-9:
        raise ValueError("spec must use the treatment probability itself as "
                         f"the score (max |assign_prob(s) - s| = {gap:.3g})")


def _zero_bias_report(pb: float) -> BiasReport:
    return BiasReport(bias=0.0, prob_upper=0.0, pi_bar=pb,
                      e_y0_treated_upper=0.0, e_y0_control_upper=0.0)


def _assemble_report(prob_upper, pb, e_treated, e_control) -> BiasReport:
    bias = prob_upper / (2.0 * pb) * (e_treated - e_control)
    return BiasReport(bias=float(bias), prob_upper=float(prob_upper),
                      pi_bar=float(pb), e_y0_treated_upper=float(e_treated),
                      e_y0_control_upper=float(e_control))


def asymptotic_bias_propensity(spec: PopulationSpec, tol: float = 1e-8) -> BiasReport:
    """Limit bias of the without-replacement ATT estimator, propensity scores.

    Requires the score to be the treatment probability itself. The bias is
    the mass above the partition point, scaled by 1/(2 pi_bar), times the
    confounding gap in Y(0) above the partition; it vanishes when either
    escape clause holds (no mass above p*, or no confounding there).
    """
    _check_identity_score(spec)
    pb = pi_bar(spec)
    if pb <= 0.0:
        raise ValueError("population has no treated units (pi_bar = 0)")
    ps = pstar(spec, tol)
    if not _has_density(spec):
        return _bias_upper_region_mc(spec, ps.pstar, pb) if not ps.defaulted \
            else _zero_bias_report(pb)
    lo, hi = _support(spec)
    cut = ps.pstar
    if ps.defaulted or cut >= hi:
        return _zero_bias_report(pb)
    pdf, mu0 = spec.score_pdf, spec.mu0
    bp = spec.score_breakpoints
    prob_upper = _quad(lambda s: float(pdf(s)), cut, hi, bp)
    if prob_upper <= 0.0:
        return _zero_bias_report(pb)
    den_t = _quad(lambda s: s * float(pdf(s)), cut, hi, bp)
    den_c = _quad(lambda s: (1.0 - s) * float(pdf(s)), cut, hi, bp)
    num_t = _quad(lambda s: float(mu0(s)) * s * float(pdf(s)), cut, hi, bp)
    num_c = _quad(lambda s: float(mu0(s)) * (1.0 - s) * float(pdf(s)), cut, hi, bp)
    e_t = num_t / den_t if den_t > 0.0 else 0.0
    e_c = num_c / den_c if den_c > 0.0 else 0.0
    return _assemble_report(prob_upper, pb, e_t, e_c)


def _bias_upper_region_mc(spec: PopulationSpec, cut: float, pb: float) -> BiasReport:
    s = _mc_scores(spec)
    p = np.asarray(spec.assign_prob(s), dtype=float)
    m0 = np.asarray(spec.mu0(s), dtype=float)
    upper = s >= cut
    prob_upper = float(np.mean(upper))
    if prob_upper <= 0.0:
        return _zero_bias_report(pb)
    wt, wc = p[upper], 1.0 - p[upper]
    e_t = float(np.dot(wt, m0[upper]) / wt.sum()) if wt.sum() > 0 else 0.0
    e_c = float(np.dot(wc, m0[upper]) / wc.sum()) if wc.sum() > 0 else 0.0
    return _assemble_report(prob_upper, pb, e_t, e_c)


def _check_monotone_assign(spec: PopulationSpec) -> None:
    if _has_density(spec):
        lo, hi = _support(spec)
        s = np.linspace(lo, hi, 4097)
    else:
        s = np.sort(_mc_scores(spec))
    p = np.asarray(spec.assign_prob(s), dtype=float)
    if np.any(np.diff(p) < -1e-9):
        raise ValueError("assign_prob must be monotone nondecreasing in the score")


def sstar_threshold(spec: PopulationSpec, tol: float = 1e-9) -> float:
    """Score threshold b with Pr(W = 1 | S >= b) = 1/2.

    For monotone assignment probability the upper set attaining a
    half-treated region is the single interval [b, s_max], so the search
    reduces to this one root. Raises SStarNotFoundError when even the top
    of the support stays below half treated (the upper set then has zero
    mass and the limit bias is zero).
    """
    if tol <= 0.0:
        raise ValueError("tol must be > 0")
    _check_monotone_assign(spec)
    if not _has_density(spec):
        return _sstar_threshold_mc(spec)
    lo, hi = _support(spec)
    pdf, ap = spec.score_pdf, spec.assign_prob
    bp = spec.score_breakpoints

    def tail_fraction(x: float) -> float:
        den = _quad(lambda s: float(pdf(s)), x, hi, bp)
        if den <= 0.0:
            return 1.0
        num = _quad(lambda s: float(ap(s)) * float(pdf(s)), x, hi, bp)
        return num / den

    p_end = float(ap(np.asarray([hi]))[0])
    grid = np.linspace(lo, hi, _SCAN_POINTS)[:-1]
    s_nodes, mass, pvals = _dense_nodes(spec)
    suffix_mass = np.cumsum(mass[::-1])[::-1]
    suffix_pm = np.cumsum((mass * pvals)[::-1])[::-1]
    idx = np.minimum(np.searchsorted(s_nodes, grid, side="left"), s_nodes.size - 1)
    with np.errstate(invalid="ignore", divide="ignore"):
        h_grid = np.where(suffix_mass[idx] > 1e-12, suffix_pm[idx] / suffix_mass[idx], 1.0)

    reached = h_grid >= 0.5
    if reached.any():
        first = int(np.argmax(reached))
        if first == 0:
            return float(lo)
        b_lo, b_hi = float(grid[first - 1]), float(grid[first])
    elif p_end >= 0.5 - max(tol, 1e-12):
        b_lo, b_hi = float(grid[-1]), float(hi)
    else:
        raise SStarNotFoundError(
            "Pr(W=1 | S >= b) stays below 1/2 on the whole support "
            f"(top value {p_end:.6g}); the upper set has zero mass")

    while b_hi - b_lo > tol:
        mid = 0.5 * (b_lo + b_hi)
        if tail_fraction(mid) >= 0.5:
            b_hi = mid
        else:
            b_lo = mid
    return float(b_hi)


def _sstar_threshold_mc(spec: PopulationSpec) -> float:
    s = np.sort(_mc_scores(spec))
    p = np.asarray(spec.assign_prob(s), dtype=float)
    suffix = np.cumsum(p[::-1])[::-1] / np.arange(s.size, 0, -1)
    reached = suffix >= 0.5
    if not reached.any():
        raise SStarNotFoundError("empirical treated fraction stays below 1/2 "
                                 "on every upper tail")
    return float(s[int(np.argmax(reached))])


def asymptotic_bias_score(spec: PopulationSpec, tol: float = 1e-9) -> BiasReport:
    """Limit bias of the without-replacement ATT estimator, generic scalar score.

    Same structure as the propensity version but with the upper region
    expressed as a score threshold; treated/control weights inside the
    region are assign_prob(s) and its complement.
    """
    pb = pi_bar(spec)
    if pb <= 0.0:
        raise ValueError("population has no treated units (pi_bar = 0)")
    try:
        b = sstar_threshold(spec, tol)
    except SStarNotFoundError:
        return _zero_bias_report(pb)
    if not _has_density(spec):
        return _bias_upper_region_mc(spec, b, pb)
    lo, hi = _support(spec)
    if b >= hi:
        return _zero_bias_report(pb)
    pdf, ap, mu0 = spec.score_pdf, spec.assign_prob, spec.mu0
    bp = spec.score_breakpoints
    prob_upper = _quad(lambda s: float(pdf(s)), b, hi, bp)
    if prob_upper <= 0.0:
        return _zero_bias_report(pb)
    den_t = _quad(lambda s: float(ap(s)) * float(pdf(s)), b, hi, bp)
    den_c = _quad(lambda s: (1.0 - float(ap(s))) * float(pdf(s)), b, hi, bp)
    num_t = _quad(lambda s: float(mu0(s)) * float(ap(s)) * float(pdf(s)), b, hi, bp)
    num_c = _quad(lambda s: float(mu0(s)) * (1.0 - float(ap(s))) * float(pdf(s)),
                  b, hi, bp)
    e_t = num_t / den_t if den_t > 0.0 else 0.0
    e_c = num_c / den_c if den_c > 0.0 else 0.0
    return _assemble_report(prob_upper, pb, e_t, e_c)


# --- prognostic example closed forms ---

def _check_prognostic_a(a: float) -> None:
    if not (1.0 / 3.0 - 1e-12) <= a <= 1.0 + 1e-12:
        raise ValueError("closed forms hold for a in [1/3, 1]")


def prognostic_sstar_lower(a: float) -> float:
    """Lower endpoint of the half-treated upper score region: (3a + 1) / 2."""
    _check_prognostic_a(a)
    return (3.0 * a + 1.0) / 2.0


def prognostic_upper_mass_ratio(a: float) -> float:
    """Pr(S in upper region) / (2 pi_bar) = 9 (a-1)^2 (a+1) / 8."""
    _check_prognostic_a(a)
    return 9.0 * (a - 1.0) ** 2 * (a + 1.0) / 8.0


def prognostic_treated_upper_mean(a: float) -> float:
    """E[Y(0) | W=1, upper region] = (27a^3 + 54a^2 + 51a + 28) / (20a + 20)."""
    _check_prognostic_a(a)
    return (27.0 * a ** 3 + 54.0 * a ** 2 + 51.0 * a + 28.0) / (20.0 * a + 20.0)


def prognostic_outcome_gap(a: float) -> float:
    """Conditional Y(0) gap in the upper region: (a-1)^2 (9a + 11) / (20a + 20)."""
    _check_prognostic_a(a)
    return (a - 1.0) ** 2 * (9.0 * a + 11.0) / (20.0 * a + 20.0)


def prognostic_bias_closed_form(a: float) -> float:
    """Asymptotic bias of the prognostic example: 9 (a-1)^4 (9a + 11) / 160."""
    _check_prognostic_a(a)
    return 9.0 * (a - 1.0) ** 4 * (9.0 * a + 11.0) / 160.0


# --- order-one transport on the line ---

def _eval_quantile(fn, u: np.ndarray) -> np.ndarray:
    try:
        q = np.asarray(fn(u), dtype=float)
        if q.shape == u.shape:
            return q
    except (TypeError, ValueError):
        pass
    return np.asarray([float(fn(x)) for x in u], dtype=float)


def wasserstein_1d(treated_quantile, control_quantile, grid: int = 4096) -> float:
    """Order-one transport distance between two laws on the line.

    Midpoint-rule integral of the absolute difference of the two quantile
    functions over (0, 1), which is the optimal-coupling cost in one
    dimension.
    """
    if grid < 2:
        raise ValueError("grid must be >= 2")
    u = (np.arange(grid) + 0.5) / grid
    q1 = _eval_quantile(treated_quantile, u)
    q0 = _eval_quantile(control_quantile, u)
    return float(np.mean(np.abs(q1 - q0)))


def _conditional_quantile_from_density(spec, b, hi, weight, nodes=8193):
    s = np.linspace(b, hi, nodes)
    dens = np.asarray(spec.score_pdf(s), dtype=float) * weight(s)
    panel = 0.5 * (dens[1:] + dens[:-1]) * np.diff(s)
    cdf = np.concatenate([[0.0], np.cumsum(panel)])
    total = cdf[-1]
    if total <= 0.0:
        return None
    cdf /= total
    return lambda u: np.interp(u, cdf, s)


def weighted_wasserstein_objective(spec: PopulationSpec, b: float,
                                   grid: int = 4096) -> float:
    """Treated mass of the upper region times its internal transport cost.

    For the region Q = [b, s_max], this is the population value of the
    matching objective contributed by Q: the share of treated units in Q
    times the order-one distance between the treated and control score
    laws conditional on Q.
    """
    if grid < 2:
        raise ValueError("grid must be >= 2")
    if _has_density(spec):
        lo, hi = _support(spec)
        if b >= hi:
            return 0.0
        b = max(b, lo)
        ap, pdf = spec.assign_prob, spec.score_pdf
        bp = spec.score_breakpoints
        pb = pi_bar(spec)
        treated_mass = _quad(lambda s: float(ap(s)) * float(pdf(s)), b, hi, bp)
        if treated_mass <= 0.0 or pb <= 0.0:
            return 0.0
        q1 = _conditional_quantile_from_density(
            spec, b, hi, lambda s: np.asarray(ap(s), dtype=float))
        q0 = _conditional_quantile_from_density(
            spec, b, hi, lambda s: 1.0 - np.asarray(ap(s), dtype=float))
        if q1 is None or q0 is None:
            return 0.0
        return (treated_mass / pb) * wasserstein_1d(q1, q0, grid)

    s = _mc_scores(spec)
    p = np.asarray(spec.assign_prob(s), dtype=float)
    upper = s >= b
    if not upper.any() or p.sum() <= 0.0:
        return 0.0
    share = float(p[upper].sum() / p.sum())
    q1 = _weighted_quantile_fn(s[upper], p[upper])
    q0 = _weighted_quantile_fn(s[upper], 1.0 - p[upper])
    if q1 is None or q0 is None:
        return 0.0
    return share * wasserstein_1d(q1, q0, grid)


def _weighted_quantile_fn(values: np.ndarray, weights: np.ndarray):
    total = weights.sum()
    if total <= 0.0:
        return None
    order = np.argsort(values)
    v, w = values[order], weights[order]
    cum = (np.cumsum(w) - 0.5 * w) / total
    return lambda u: np.interp(u, cum, v)


def format_bias_report(report: BiasReport) -> str:
    """Human-readable bias report."""
    return "\n".join([
        f"asymptotic bias            {report.bias: .6f}",
        f"upper-region mass          {report.prob_upper: .6f}",
        f"treated fraction (pi_bar)  {report.pi_bar: .6f}",
        f"E[Y(0) | treated, upper]   {report.e_y0_treated_upper: .6f}",
        f"E[Y(0) | control, upper]   {report.e_y0_control_upper: .6f}",
    ])
