"""Matchings between treated and control units on scalar scores.

All matchers take a sequence of treated scores and a sequence of control
scores and return pairs keyed by *position* in those sequences (0-based,
pre-sorting). Matching without replacement minimizes the total within-pair
absolute score difference. Because some optimal matching on the line is
order-preserving, the optimum is found by one O(N log N) sweep over the two
sorted sequences instead of a general assignment solver. The quadratic
windowed dynamic program remains only for the banded approximation with a
band below the control surplus N0 - N1.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

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


def _sweep_used(t_sorted: np.ndarray, c_sorted: np.ndarray) -> bytearray:
    """Controls used by a min-cost matching of every sorted treated unit.

    Successive shortest paths on the line, run as one sorted sweep (the
    "mice and holes" exchange argument): scores are visited in order,
    controls before treated on equal scores, and two min-heaps hold the
    cheapest moves so far as (value, anchor), where the anchor is the one
    control whose used flag changes when the move is taken.

    - `hole`: a treated unit at x can take a control for x + value. A free
      control at y offers -y; a control vacated by a steal offers the
      cost of sending the stolen treated unit back to it.
    - `mouse`: a control at y can take over a matched treated unit for
      y + value, moving it off its anchor; taken only when that is < 0.
    - `waiting` counts treated units that found `hole` empty. The next
      controls go to them, which stands in for an infinite cost without
      absorbing any score into it.

    O(N log N) time for N = N0 + N1 and O(N) memory. Requires
    len(t_sorted) <= len(c_sorted), so that `waiting` ends at zero. Returns
    one flag per sorted control; exactly len(t_sorted) are set.
    """
    used = bytearray(c_sorted.size)
    hole: list[tuple[float, int]] = []
    mouse: list[tuple[float, int]] = []
    waiting = 0
    cs = c_sorted.tolist()
    # controls at or below each treated score come before it
    ends = np.searchsorted(c_sorted, t_sorted, side="right").tolist()
    push, pop = heapq.heappush, heapq.heappop
    j = 0
    for x, end in zip(t_sorted.tolist(), ends):
        while j < end:
            y = cs[j]
            if waiting:
                waiting -= 1
                used[j] = 1
            elif mouse and y + mouse[0][0] < 0:
                v, a = pop(mouse)
                used[j] = 1
                used[a] = 0
                push(hole, (-2.0 * y - v, a))
            else:
                push(hole, (-y, j))
            j += 1
        if hole:
            v, a = pop(hole)
            used[a] = 1
            push(mouse, (-2.0 * x - v, a))
        else:
            waiting += 1
    # past the last treated unit only waiting units and steals can use a
    # control, and once neither applies no later (larger) control can
    while j < len(cs):
        y = cs[j]
        if waiting:
            waiting -= 1
        elif mouse and y + mouse[0][0] < 0:
            used[pop(mouse)[1]] = 0
        else:
            break
        used[j] = 1
        j += 1
    return used


def _dp_match(t: np.ndarray, c: np.ndarray, window: int | None, method: str,
              k: int = 1) -> Matching:
    """Order-preserving matching of validated scores, k treated per control.

    Every control is repeated k times on the sorted side, so k = 1 is
    matching without replacement. `window` caps the skipped (repeated)
    controls. None, or any value of at least k*N0 - N1, asks for the exact
    optimum, which the sweep `_sweep_used` finds; only a smaller window runs
    the windowed DP, whose cost is then an upper bound on the optimum.

    In both cases the used controls are paired in stable sorted order with
    the stable-sorted treated units. At window >= k*N0 - N1 the two reach
    the same cost, and on distinct scores the same pairs, but on tied scores
    they can pick different optimal sets of controls. The DP puts each pair
    on the smallest admissible control position. When a later control in
    the sweep takes over one of several equally good matched units, it
    frees the one on the smallest sorted control position, so among tied
    controls the sweep can keep a later position. Treated [0.75, 0.75] with
    controls [0, 1, 0] cost 1.0 either way: the DP pairs {0: 0, 1: 1}, the
    sweep {0: 2, 1: 1}.
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
    t_sorted, c_sorted = t[t_order], np.repeat(c[c_order], k)
    if window is None or window >= slack:
        used = np.flatnonzero(np.frombuffer(_sweep_used(t_sorted, c_sorted),
                                            dtype=np.uint8))
    else:
        _, skips = _windowed_dp(t_sorted, c_sorted, window)
        used = np.arange(t.size) + skips
    c_pos = c_order[used // k]
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

    Exact whenever band >= N0 - N1, where it runs the sweep of the exact
    matcher. Otherwise the windowed DP skips at most `band` controls, in
    O(N1 * band) work, and the cost is an upper bound on the optimum.
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

    Solved by replicating every control k times and running the exact sweep
    on the expanded side. k = 1 recovers matching without replacement; k >= N1
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

    Independent oracle for the sweep and DP matchers; guarded to N1 <= N0 <= 10.
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

    "auto" is another name for "exact".
    """
    cfg = config if config is not None else MatchConfig()
    if method in ("auto", "exact"):
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
