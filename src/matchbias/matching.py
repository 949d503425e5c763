"""Matchings between treated and control units on scalar scores.

All matchers take a sequence of treated scores and a sequence of control
scores and return pairs keyed by *position* in those sequences (0-based,
pre-sorting). Matching without replacement minimizes the total within-pair
absolute score difference. Because some optimal matching on the line is
order-preserving, the optimum is found by a dynamic program over the two
sorted sequences instead of a general assignment solver.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

# exact DP auto-selected up to this many table cells; beyond it the banded
# approximation keeps memory and time bounded
AUTO_EXACT_CELL_LIMIT = 200_000_000
DEFAULT_BAND = 2000

# every name match_scores accepts, and the ones that match without replacement
METHODS = ("auto", "exact", "banded", "replacement", "capacitated")
WITHOUT_REPLACEMENT = frozenset({"auto", "exact", "banded"})


class MatchingError(ValueError):
    """Raised when a matching cannot be constructed as requested."""


@dataclass(frozen=True)
class Matching:
    """An assignment of treated positions to control positions.

    `pairs` maps each treated position to the control position it is
    matched with; `total_cost` is the sum of within-pair absolute score
    differences; `injective` records whether no control is used twice.
    """

    pairs: dict[int, int]
    total_cost: float
    method: str
    injective: bool

    def pair_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Pairs as (treated_positions, control_positions), sorted by treated."""
        if not self.pairs:
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
        t = np.fromiter(self.pairs.keys(), dtype=np.intp, count=len(self.pairs))
        c = np.fromiter(self.pairs.values(), dtype=np.intp, count=len(self.pairs))
        order = np.argsort(t)
        return t[order], c[order]


@dataclass(frozen=True)
class MatchConfig:
    """Knobs for the matcher family.

    band caps the skipped-control window of the banded DP; capacity is the
    maximum number of treated units a control may absorb; caliper, when
    set, is the maximum tolerated within-pair score gap.
    """

    band: int = DEFAULT_BAND
    capacity: int = 1
    caliper: float | None = None

    def __post_init__(self):
        if self.band < 0:
            raise ValueError("band must be >= 0")
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        if self.caliper is not None and not self.caliper > 0.0:
            raise ValueError("caliper must be > 0")


def _as_scores(x, side: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{side} scores must be one-dimensional")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{side} scores must be finite")
    return arr


def _windowed_dp(t_sorted: np.ndarray, c_sorted: np.ndarray, window: int):
    """Min-cost order-preserving matching of sorted treated into sorted controls.

    State: after matching the first i treated units, k controls have been
    skipped (left unmatched below the frontier), so treated i is paired
    with control i + k. Recurrence over k:

        g(i, k) = min( g(i, k-1),  g(i-1, k) + |t_i - c_{i+k}| )

    which unrolls to a running minimum across each row, one vectorized
    cumulative-minimum per treated unit. `window` caps k; window equal to
    len(c) - len(t) makes the program exact. Per-row match/skip decisions
    are bit-packed for backtracking, keeping memory at m * (window+1) bits.

    Ties resolve toward skipping, which lands every matched pair on the
    smallest admissible control position.

    Returns (total_cost, skips) where skips[i] is the number of controls
    skipped below the match of sorted treated unit i.
    """
    m, n = t_sorted.size, c_sorted.size
    width = window + 1
    prev = np.zeros(width)
    acc = np.empty(width)
    v = np.empty(width)
    matched = np.empty(width, dtype=bool)
    packed = np.empty((m, (width + 7) // 8), dtype=np.uint8)
    for i in range(m):
        np.subtract(c_sorted[i:i + width], t_sorted[i], out=v)
        np.abs(v, out=v)
        v += prev
        np.minimum.accumulate(v, out=acc)
        matched[0] = True
        np.less(v[1:], acc[:-1], out=matched[1:])
        packed[i] = np.packbits(matched)
        prev, acc = acc, prev
    total = float(prev[width - 1])

    skips = np.empty(m, dtype=np.int64)
    k = width - 1
    for i in range(m - 1, -1, -1):
        row = packed[i]
        while not (row[k >> 3] >> (7 - (k & 7))) & 1:
            k -= 1
        skips[i] = k
    return total, skips


def _dp_match(t: np.ndarray, c: np.ndarray, window: int | None, method: str,
              k: int = 1) -> Matching:
    """Order-preserving DP matching of validated scores, k treated per control.

    Every control is repeated k times on the sorted side, so k = 1 is
    matching without replacement. `window` caps the skipped (repeated)
    controls; None, or any value of at least k*N0 - N1, makes the DP exact.
    """
    if t.size < 1:
        raise MatchingError("no treated units to match")
    if t.size > k * c.size:
        raise MatchingError(
            f"more treated ({t.size}) than controls ({c.size}); matching "
            "without replacement is impossible")
    slack = k * c.size - t.size
    t_order = np.argsort(t, kind="stable")
    c_order = np.argsort(c, kind="stable")
    _, skips = _windowed_dp(t[t_order], np.repeat(c[c_order], k),
                            slack if window is None else min(window, slack))
    c_pos = c_order[(np.arange(t.size) + skips) // k]
    pairs = dict(zip(t_order.tolist(), c_pos.tolist()))
    cost = float(np.sum(np.abs(t[t_order] - c[c_pos])))
    injective = k == 1 or len(set(pairs.values())) == len(pairs)
    return Matching(pairs=pairs, total_cost=cost, method=method,
                    injective=injective)


def match_optimal_exact(treated_scores, control_scores) -> Matching:
    """Optimal matching without replacement, minimizing the summed score gaps."""
    t = _as_scores(treated_scores, "treated")
    c = _as_scores(control_scores, "control")
    return _dp_match(t, c, None, "exact_dp")


def match_banded(treated_scores, control_scores, band: int) -> Matching:
    """Banded approximation of optimal matching.

    Restricts the DP to at most `band` skipped controls, giving
    O(N1 * band) work. Exact whenever band >= N0 - N1; otherwise the cost
    is an upper bound on the optimum.
    """
    if band < 0:
        raise ValueError("band must be >= 0")
    t = _as_scores(treated_scores, "treated")
    c = _as_scores(control_scores, "control")
    return _dp_match(t, c, band, "banded_dp")


def match_with_replacement(treated_scores, control_scores) -> Matching:
    """Match every treated unit to its nearest control; controls may repeat.

    Ties go to the lower control score, then to the lower position.
    """
    t = _as_scores(treated_scores, "treated")
    c = _as_scores(control_scores, "control")
    if c.size == 0:
        raise MatchingError("no controls to match against")
    if t.size == 0:
        raise MatchingError("no treated units to match")
    c_order = np.argsort(c, kind="stable")
    cs = c[c_order]
    pos = np.searchsorted(cs, t, side="left")
    left = np.clip(pos - 1, 0, cs.size - 1)
    right = np.clip(pos, 0, cs.size - 1)
    d_left = np.abs(t - cs[left])
    d_right = np.abs(t - cs[right])
    use_left = (pos > 0) & ((pos == cs.size) | (d_left <= d_right))
    chosen = np.where(use_left, left, right)
    # land on the first element of any equal-score run: lowest original position
    chosen = np.searchsorted(cs, cs[chosen], side="left")
    c_pos = c_order[chosen]
    pairs = dict(enumerate(c_pos.tolist()))
    cost = float(np.sum(np.abs(t - c[c_pos])))
    injective = len(set(pairs.values())) == len(pairs)
    return Matching(pairs=pairs, total_cost=cost, method="with_replacement",
                    injective=injective)


def match_capacitated(treated_scores, control_scores, k: int) -> Matching:
    """Min-cost matching where each control absorbs at most k treated units.

    Solved by replicating every control k times and running the exact DP on
    the expanded side. k = 1 recovers matching without replacement; k >= N1
    attains the with-replacement cost.
    """
    if k < 1:
        raise ValueError("capacity k must be >= 1")
    t = _as_scores(treated_scores, "treated")
    c = _as_scores(control_scores, "control")
    if t.size > k * c.size:
        raise MatchingError(
            f"capacity too small: {t.size} treated exceed k*N0 = {k * c.size}")
    return _dp_match(t, c, None, "capacitated", k)


BRUTE_FORCE_LIMIT = 10


def brute_force_match(treated_scores, control_scores) -> Matching:
    """Global minimum over every injective assignment, by direct enumeration.

    Independent oracle for the DP matchers; guarded to N1 <= N0 <= 10.
    """
    t = _as_scores(treated_scores, "treated")
    c = _as_scores(control_scores, "control")
    if t.size < 1:
        raise MatchingError("no treated units to match")
    if t.size > c.size:
        raise MatchingError("more treated than controls")
    if c.size > BRUTE_FORCE_LIMIT:
        raise MatchingError(
            f"brute force limited to N0 <= {BRUTE_FORCE_LIMIT}")
    best_cost = None
    best = None
    for perm in itertools.permutations(range(c.size), t.size):
        cost = 0.0
        for i, j in enumerate(perm):
            cost += abs(t[i] - c[j])
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best = perm
    pairs = {i: j for i, j in enumerate(best)}
    return Matching(pairs=pairs, total_cost=float(best_cost),
                    method="brute_force", injective=True)


def has_crossing(matching: Matching, treated_scores, control_scores) -> bool:
    """Whether two matched pairs cross.

    Pairs (i, m(i)) and (j, m(j)) cross when both the treated score of i
    and the control score of m(j) lie strictly below both the treated score
    of j and the control score of m(i). Optimal matchings never contain
    crossings. Sorted sweep, O(N1 log N1).
    """
    if not matching.injective:
        raise ValueError("crossing check is defined for injective matchings")
    t = _as_scores(treated_scores, "treated")
    c = _as_scores(control_scores, "control")
    if not matching.pairs:
        return False
    tp, cp = matching.pair_arrays()
    order = np.argsort(t[tp], kind="stable")
    a, b = t[tp][order], c[cp][order]
    up = np.where(b > a, b, -np.inf)  # control scores of upward pairs
    best_up = np.concatenate([[-np.inf], np.maximum.accumulate(up)])
    # max control score over upward pairs whose treated score lies strictly below
    before = best_up[np.searchsorted(a, a, "left")]
    return bool(np.any((b < a) & (before > b)))


def _has_crossing_quadratic(matching: Matching, treated_scores, control_scores) -> bool:
    # literal pairwise check of the crossing inequality; test oracle only
    t = np.asarray(treated_scores, dtype=float)
    c = np.asarray(control_scores, dtype=float)
    items = [(t[i], c[j]) for i, j in matching.pairs.items()]
    for ai, bi in items:
        for aj, bj in items:
            if max(ai, bj) < min(aj, bi):
                return True
    return False


def apply_caliper(matching: Matching, treated_scores, control_scores,
                  caliper: float) -> tuple[Matching, set[int]]:
    """Drop pairs whose score gap exceeds the caliper.

    Returns the retained matching and the set of dropped treated positions.
    """
    if not caliper > 0.0:
        raise ValueError("caliper must be > 0")
    t = _as_scores(treated_scores, "treated")
    c = _as_scores(control_scores, "control")
    ti, ci = matching.pair_arrays()
    gap = np.abs(t[ti] - c[ci])
    keep = gap <= caliper
    retained = Matching(pairs=dict(zip(ti[keep].tolist(), ci[keep].tolist())),
                        total_cost=float(gap[keep].sum()), method=matching.method,
                        injective=matching.injective)
    return retained, set(ti[~keep].tolist())


def match_scores(treated_scores, control_scores, method: str = "auto",
                 config: MatchConfig | None = None) -> Matching:
    """Dispatch to a matcher by name, one of METHODS.

    "auto" runs the exact DP when the table fits under
    AUTO_EXACT_CELL_LIMIT cells and falls back to the banded DP otherwise.
    """
    cfg = config if config is not None else MatchConfig()
    if method == "auto":
        n1, n0 = np.size(treated_scores), np.size(control_scores)
        method = "exact" if n1 * (n0 - n1 + 1) <= AUTO_EXACT_CELL_LIMIT else "banded"
    if method == "exact":
        return match_optimal_exact(treated_scores, control_scores)
    if method == "banded":
        return match_banded(treated_scores, control_scores, cfg.band)
    if method == "replacement":
        return match_with_replacement(treated_scores, control_scores)
    if method == "capacitated":
        return match_capacitated(treated_scores, control_scores, cfg.capacity)
    raise ValueError(f"unknown matching method: {method!r}")


def matching_summary(matching: Matching, config: MatchConfig | None = None) -> dict:
    """One-row summary: method, band, capacity, total_cost."""
    cfg = config if config is not None else MatchConfig()
    return {
        "method": matching.method,
        "band": cfg.band,
        "capacity": cfg.capacity,
        "total_cost": matching.total_cost,
    }
