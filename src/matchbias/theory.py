"""Theoretical quantities for matching without replacement.

The matching problem on a scalar score splits at the point where the
population above it is exactly half treated: controls are scarce above,
abundant below. This module locates that partition (as a score threshold
b, by one bisection on the treated fraction of the upper region, and as
the propensity p* = assign_prob(b)), evaluates the resulting asymptotic
bias of the ATT matching estimator over that region both numerically and
in closed form for the prognostic-score example, and provides the
order-one transport distance that drives the bias.

Every integral over an upper region {S >= cut} goes through one routine:
adaptive Gauss–Legendre quadrature in numpy over the population's score
density. Every public routine refuses, with a ValueError, a population
without a density (score_pdf and score_support), such as a categorical one
whose scores are atoms: the exact route for atoms is not written yet. The
quadrature rule is built on the first quadrature, not at import: building
it imports numpy.polynomial and runs a LAPACK eigen-solve, which no
simulation needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .population import PopulationSpec, real_number, whole_number

_MAX_PANELS = 200  # per _quad call; past it the current estimate is kept


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
    """The score support of a spec with a density; ValueError without one."""
    if spec.score_pdf is None or spec.score_support is None:
        raise ValueError(f"spec {spec.name!r} has no score density: the theory "
                         "integrates one, so give the spec score_pdf and score_support")
    lo, hi = spec.score_support
    if not hi > lo:
        raise ValueError("degenerate score support")
    return float(lo), float(hi)


@cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 20-node Gauss–Legendre rule on [-1, 1], read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(20)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _quad(fn, lo: float, hi: float, breakpoints=()) -> float:
    """Integral of the vectorized fn over [lo, hi] by adaptive 20-node Gauss–Legendre.

    Each gap between breakpoints starts as one panel, halved until the rule on
    its halves agrees with the rule on it to 1e-12 relative plus 1e-15 absolute.
    """
    nodes, weights = _gauss_legendre()

    def rule(a, b):
        x = 0.5 * (a + b) + 0.5 * (b - a) * nodes
        return 0.5 * (b - a) * float(weights @ np.broadcast_to(fn(x), x.shape))
    edges = [lo, *sorted(x for x in breakpoints if lo < x < hi), hi]
    todo = [(a, b, rule(a, b)) for a, b in zip(edges, edges[1:]) if a < b]
    total, panels = 0.0, len(todo)
    while todo:
        a, b, whole = todo.pop()
        mid = 0.5 * (a + b)
        left, right = rule(a, mid), rule(mid, b)
        est = left + right
        if panels < _MAX_PANELS and abs(est - whole) > 1e-12 * abs(est) + 1e-15:
            todo += [(a, mid, left), (mid, b, right)]
            panels += 1
        else:
            total += est
    return total


def _upper_integrals(spec: PopulationSpec, cut: float, *weights) -> list[float]:
    """E[weight(S); S >= cut] for each vectorized weight: quadrature of
    weight(s) * pdf(s) over [max(cut, lo), hi]."""
    lo, hi = _support(spec)
    pdf, bp = spec.score_pdf, spec.score_breakpoints
    return [_quad(lambda s, w=w: w(s) * pdf(s), max(cut, lo), hi, bp)
            for w in weights]


def pi_bar(spec: PopulationSpec) -> float:
    """Overall treated fraction E[assign_prob(S)]."""
    return _upper_integrals(spec, -math.inf, spec.assign_prob)[0]


def _treated_fraction(spec: PopulationSpec, x: float) -> float:
    mass, treated = _upper_integrals(spec, x, np.ones_like, spec.assign_prob)
    return treated / mass if mass > 0.0 else 1.0  # an empty region counts as treated


def _half_treated(spec: PopulationSpec, lo: float, hi: float, tol: float) -> float:
    """Smallest x in [lo, hi], to within tol, whose [x, hi] is at least half treated.

    With assign_prob nondecreasing the treated fraction of [x, hi] never
    decreases as x rises, and the empty [hi, hi] qualifies, so bisection
    finds the boundary.
    """
    if _treated_fraction(spec, lo) >= 0.5:
        return lo
    below, above = lo, hi  # [below, hi] under half treated, [above, hi] at least half
    while above - below > tol:
        mid = 0.5 * (below + above)
        if _treated_fraction(spec, mid) >= 0.5:
            above = mid
        else:
            below = mid
    return above


def pstar(spec: PopulationSpec, tol: float = 1e-8) -> PStarResult:
    """Partition point of the matching problem.

    The treatment probability assign_prob(b) at the score threshold b of
    sstar_threshold: with assign_prob nondecreasing, units with probability
    at least p* are those with score at least b, and they are exactly half
    treated. Defaults to 1/2 when no threshold exists or [b, s_max] has
    zero mass, that is when no mass has probability 1/2 or above. Raises
    sstar_threshold's ValueError for a bad tol, a decreasing assign_prob or
    a spec without a score density, rather than default.
    """
    default = PStarResult(pstar=0.5, tail_treated_prob=math.nan,
                          defaulted=True, left_closed=True)
    try:
        b = sstar_threshold(spec, tol)
    except SStarNotFoundError:
        return default
    mass, treated = _upper_integrals(spec, b, np.ones_like, spec.assign_prob)
    if mass <= 1e-12:
        return default
    tail = treated / mass
    return PStarResult(pstar=float(spec.assign_prob(np.asarray([b]))[0]),
                       tail_treated_prob=tail, defaulted=False,
                       left_closed=bool(tail >= 0.5 - 1e-9))


def sstar_threshold(spec: PopulationSpec, tol: float = 1e-9) -> float:
    """Score threshold b with Pr(W = 1 | S >= b) = 1/2.

    For monotone assignment probability the upper set attaining a
    half-treated region is the single interval [b, s_max], so the search
    reduces to this one root. Raises SStarNotFoundError when even the top
    of the support stays below half treated (the upper set then has zero
    mass and the limit bias is zero), and ValueError for a tol outside
    (0, inf), a decreasing assign_prob or a spec without a score density.
    """
    tol = real_number(tol, "tol", "> 0 and finite", lambda v: 0.0 < v < math.inf)
    lo, hi = _support(spec)
    p = np.asarray(spec.assign_prob(np.linspace(lo, hi, 4097)), dtype=float)
    if np.any(np.diff(p) < -1e-9):
        raise ValueError("assign_prob must be monotone nondecreasing in the score")
    p_end = float(spec.assign_prob(np.asarray([hi]))[0])
    if p_end < 0.5 - max(tol, 1e-12):
        raise SStarNotFoundError(
            "Pr(W=1 | S >= b) stays below 1/2 on the whole support "
            f"(top value {p_end:.6g}); the upper set has zero mass")
    return _half_treated(spec, lo, hi, tol)


def _zero_bias_report(pb: float) -> BiasReport:
    return BiasReport(bias=0.0, prob_upper=0.0, pi_bar=pb,
                      e_y0_treated_upper=0.0, e_y0_control_upper=0.0)


def _upper_region_report(spec: PopulationSpec, cut: float, pb: float) -> BiasReport:
    """BiasReport of the upper region {S >= cut}.

    Treated and control units inside the region carry weights assign_prob(s)
    and 1 - assign_prob(s).
    """
    ap, mu0 = spec.assign_prob, spec.mu0
    prob_upper, den_t, den_c, num_t, num_c = _upper_integrals(
        spec, cut, np.ones_like, ap, lambda s: 1.0 - ap(s),
        lambda s: mu0(s) * ap(s), lambda s: mu0(s) * (1.0 - ap(s)))
    if prob_upper <= 0.0:
        return _zero_bias_report(pb)
    e_t = num_t / den_t if den_t > 0.0 else 0.0
    e_c = num_c / den_c if den_c > 0.0 else 0.0
    return BiasReport(bias=prob_upper / (2.0 * pb) * (e_t - e_c),
                      prob_upper=prob_upper, pi_bar=pb,
                      e_y0_treated_upper=e_t, e_y0_control_upper=e_c)


def asymptotic_bias_score(spec: PopulationSpec, tol: float = 1e-9) -> BiasReport:
    """Limit bias of the without-replacement ATT estimator, generic scalar score.

    The bias is the mass of the half-treated upper region [b, s_max], scaled
    by 1/(2 pi_bar), times the confounding gap in Y(0) inside it; it
    vanishes when either escape clause holds (no mass above b, or no
    confounding there).
    """
    try:
        b = sstar_threshold(spec, tol)
    except SStarNotFoundError:
        b = None
    pb = pi_bar(spec)
    if pb <= 0.0:
        raise ValueError("population has no treated units (pi_bar = 0)")
    return _zero_bias_report(pb) if b is None else _upper_region_report(spec, b, pb)


def _check_identity_score(spec: PopulationSpec) -> None:
    s = np.linspace(*_support(spec), 4097)
    gap = np.max(np.abs(np.asarray(spec.assign_prob(s), dtype=float) - s))
    if gap > 1e-9:
        raise ValueError("spec must use the treatment probability itself as "
                         f"the score (max |assign_prob(s) - s| = {gap:.3g})")


def asymptotic_bias_propensity(spec: PopulationSpec, tol: float = 1e-8) -> BiasReport:
    """Limit bias of the without-replacement ATT estimator, propensity scores.

    Requires the score to be the treatment probability itself. Then the
    level set above p* is the score interval above the threshold b, so this
    is the score route on an identity score.
    """
    _check_identity_score(spec)
    return asymptotic_bias_score(spec, tol)


# --- prognostic example closed forms ---

def _prognostic_a(a) -> float:
    """a as a float where the closed forms hold, in [1/3, 1] with 1e-12 slack."""
    return real_number(a, "a", "a number in [1/3, 1]",
                       lambda v: 1.0 / 3.0 - 1e-12 <= v <= 1.0 + 1e-12)


def prognostic_sstar_lower(a: float) -> float:
    """Lower endpoint of the half-treated upper score region: (3a + 1) / 2."""
    a = _prognostic_a(a)
    return (3.0 * a + 1.0) / 2.0


def prognostic_bias_closed_form(a: float) -> float:
    """Asymptotic bias of the prognostic example: 9 (a-1)^4 (9a + 11) / 160."""
    a = _prognostic_a(a)
    return 9.0 * (a - 1.0) ** 4 * (9.0 * a + 11.0) / 160.0


# --- order-one transport on the line ---

def _eval_quantile(fn, u: np.ndarray) -> np.ndarray:
    q = np.asarray(fn(u), dtype=float)
    if q.shape != u.shape:
        raise ValueError(f"a quantile function must map an array of shape "
                         f"{u.shape} to one of the same shape, got {q.shape}")
    return q


def wasserstein_1d(treated_quantile, control_quantile, grid: int = 4096) -> float:
    """Order-one transport distance between two laws on the line.

    Midpoint-rule integral of the absolute difference of the two quantile
    functions over (0, 1), which is the optimal-coupling cost in one
    dimension. Each quantile function takes the array of grid points and
    returns an array of the same shape; any other shape is a ValueError.
    """
    grid = whole_number(grid, "grid", 2)
    u = (np.arange(grid) + 0.5) / grid
    q1 = _eval_quantile(treated_quantile, u)
    q0 = _eval_quantile(control_quantile, u)
    return float(np.mean(np.abs(q1 - q0)))


def _conditional_quantile_from_density(spec, b, hi, weight):
    s = np.linspace(b, hi, 8193)
    dens = np.asarray(spec.score_pdf(s), dtype=float) * weight(s)
    panel = 0.5 * (dens[1:] + dens[:-1]) * np.diff(s)
    cdf = np.concatenate([[0.0], np.cumsum(panel)])
    total = cdf[-1]
    if total <= 0.0:
        return None
    cdf /= total
    return lambda u: np.interp(u, cdf, s)


def weighted_wasserstein_objective(spec: PopulationSpec, b: float) -> float:
    """Treated mass of the upper region times its internal transport cost.

    For the region Q = [b, s_max], this is the population value of the
    matching objective contributed by Q: the share of treated units in Q
    times the order-one distance between the treated and control score
    laws conditional on Q.
    """
    ap = spec.assign_prob
    pb = pi_bar(spec)
    treated_mass = _upper_integrals(spec, b, ap)[0]
    if treated_mass <= 0.0 or pb <= 0.0:
        return 0.0
    lo, hi = _support(spec)
    b = max(b, lo)
    q1 = _conditional_quantile_from_density(spec, b, hi, ap)
    q0 = _conditional_quantile_from_density(spec, b, hi, lambda s: 1.0 - ap(s))
    if q1 is None or q0 is None:
        return 0.0
    return (treated_mass / pb) * wasserstein_1d(q1, q0)


def format_bias_report(report: BiasReport) -> str:
    """Human-readable bias report."""
    return "\n".join([
        f"asymptotic bias            {report.bias: .6f}",
        f"upper-region mass          {report.prob_upper: .6f}",
        f"treated fraction (pi_bar)  {report.pi_bar: .6f}",
        f"E[Y(0) | treated, upper]   {report.e_y0_treated_upper: .6f}",
        f"E[Y(0) | control, upper]   {report.e_y0_control_upper: .6f}",
    ])
