"""Matchings between treated and control units on scalar scores.

All matchers take a sequence of treated scores and a sequence of control
scores and return pairs keyed by *position* in those sequences (0-based,
pre-sorting). Matching without replacement minimizes the total within-pair
absolute score difference. Because some optimal matching on the line is
order-preserving, the optimum is found by sorting the sample once,
controls first on equal scores, and choosing which controls stay unused,
instead of a general assignment solver. One exact solver makes that
choice at every size, for matching without replacement and capacity-k
matching alike: a level-by-level numpy solver, O(N log N) with no Python
loop over scores. Nothing here approximates the optimum. One sort,
`_sort_rows`, and one step, `_pair_rows`, order, solve and pair a
sample's row for `_exact_match` and a block of such rows for
`match_rows`, in a fixed number of numpy calls whatever the number of
rows; a block's row is matched exactly as it is alone, ties included.

Every matcher decides for itself whether a matching exists and raises
InfeasibleError when none does; callers need not know which methods reuse
controls. `capacity`, `feasible` and `band_refuses` state the rules that
the matchers and every caller share.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .population import real_number, whole_number

DEFAULT_BAND = 2000

# every name match_scores accepts
METHODS = ("exact", "banded", "replacement", "capacitated")


class MatchingError(ValueError):
    """Raised when a matching cannot be constructed as requested."""


class InfeasibleError(MatchingError):
    """Raised where no matching of the requested kind exists (`feasible`)."""


class BandError(MatchingError):
    """Raised where `band_refuses`: the band is below the control surplus."""


class SolverError(RuntimeError):
    """The level solver did not use exactly N1 controls on row `row` of
    the rows `_pair_rows` solves. A bug, never a failed match."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


class Pairs(Mapping):
    """Read-only mapping treated position -> control position over two arrays.

    `treated` and `control` are intp arrays, already sorted by treated
    position, which the constructor makes read-only; iteration follows
    that order.
    """

    __slots__ = ("treated", "control")

    def __init__(self, treated: np.ndarray, control: np.ndarray):
        treated.flags.writeable = False
        control.flags.writeable = False
        self.treated, self.control = treated, control

    def __getitem__(self, key) -> int:
        i = np.searchsorted(self.treated, key)
        if i < self.treated.size and self.treated[i] == key:
            return int(self.control[i])
        raise KeyError(key)

    def __iter__(self):
        return iter(self.treated.tolist())

    def __len__(self) -> int:
        return self.treated.size

    def __repr__(self) -> str:
        return f"Pairs({dict(self.items())})"


@dataclass(frozen=True)
class Matching:
    """An assignment of treated positions to control positions.

    `pairs` maps each treated position to the control position it is
    matched with; any mapping passed in is stored as `Pairs`, two read-only
    intp arrays sorted by treated position. `total_cost` is the sum of
    within-pair absolute score differences.
    """

    pairs: Mapping[int, int]
    total_cost: float
    method: str

    def __post_init__(self):
        if not isinstance(self.pairs, Pairs):
            n = len(self.pairs)
            t = np.fromiter(self.pairs.keys(), dtype=np.intp, count=n)
            c = np.fromiter(self.pairs.values(), dtype=np.intp, count=n)
            order = np.argsort(t)
            object.__setattr__(self, "pairs", Pairs(t[order], c[order]))

    def pair_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (treated_positions, control_positions), sorted by treated."""
        return self.pairs.treated, self.pairs.control

    @property
    def injective(self) -> bool:
        """Whether no control is used twice."""
        cp = self.pairs.control
        return np.unique(cp).size == cp.size


def _caliper(value) -> float:  # +inf keeps every pair
    return real_number(value, "caliper", "a number > 0", lambda v: v > 0.0)


@dataclass(frozen=True)
class MatchConfig:
    """Knobs for the matcher family.

    band is the largest control surplus N0 - N1 the banded matcher
    accepts (`band_refuses`). capacity is the maximum number of treated
    units a control may absorb under "capacitated" (`capacity`); caliper,
    when set, is the maximum tolerated within-pair score gap.
    """

    band: int = DEFAULT_BAND
    capacity: int = 1
    caliper: float | None = None

    def __post_init__(self):
        for key, least in (("band", 0), ("capacity", 1)):
            object.__setattr__(self, key, whole_number(getattr(self, key), key, least))
        if self.caliper is not None:
            object.__setattr__(self, "caliper", _caliper(self.caliper))


def _as_scores(x, side: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{side} scores must be one-dimensional")
    if not np.isfinite(arr).all():
        raise ValueError(f"{side} scores must be finite")
    return arr


def capacity(method: str, config: MatchConfig) -> int | None:
    """How many treated units one control may take under `method`: None
    (any number) with replacement, config.capacity if capacitated, else 1."""
    if method == "replacement":
        return None
    return config.capacity if method == "capacitated" else 1


def feasible(n1, n0, k: int | None):
    """Whether a matching exists, elementwise: 0 < N1 <= k * N0, and with
    k None (any number of treated units per control) N1 > 0 and N0 > 0."""
    return (n1 > 0) & (n0 > 0 if k is None else n1 <= k * n0)


def band_refuses(n1, n0, band: int):
    """Whether the banded matcher refuses a sample, elementwise: one with a
    treated unit and a control surplus N0 - N1 above the band."""
    return (n1 > 0) & (n0 - n1 > band)


def _require_feasible(n1: int, n0: int, k: int | None) -> None:
    """Raise InfeasibleError, naming the reason, unless `feasible`."""
    if not feasible(n1, n0, k):
        raise InfeasibleError(
            "no treated units to match" if n1 == 0 else
            "no controls to match against" if k is None else
            f"more treated (N1 = {n1}) than control places at capacity "
            f"k = {k} (k * N0 = {k * n0})")


def _by_level(lev: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lev[p], p) as int32, sorted by level and then by position."""
    key = lev[p].astype(np.int64)
    key <<= 32
    key |= p
    key.sort()
    level = np.empty(key.size, dtype=np.int32)
    pos = np.empty(key.size, dtype=np.int32)
    np.right_shift(key, 32, out=level, casting="unsafe")
    np.bitwise_and(key, 0xFFFFFFFF, out=pos, casting="unsafe")
    return level, pos


def _level_unused(xs: np.ndarray, is_c: np.ndarray,
                  starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The unused controls of min-cost matchings, found level by level.

    Takes one or more merged rows back to back: row r runs from starts[r]
    to the next start (the last row to the end of xs). A row holds one
    problem's scores in sorted order, controls first on equal scores,
    with is_c flagging its controls, and no more treated units than
    controls. Returns (group, pos), one entry per (row, level) group in
    row and level order: pos is the position in xs of the group's unused
    control. A row's levels are numbered on from the previous row's, so
    in a one-row call group is the 0-based level.

    Let D be a row's control-excess walk: D(x) = #controls <= x -
    #treated <= x. Matching the sorted treated units in order to a set U
    of N1 controls costs the integral of |F_T - F_U|, and with u(x) the
    number of unused controls at or below x, F_T - F_U = u - D. So the
    task is to place the S = N0 - N1 unused controls to minimize the
    integral of |D - u|.

    Layer cake: for integers, |D - u| = sum over levels l of
    |1[D >= l] - 1[u >= l]|. For l <= 0 and l > S the term does not
    depend on u, and for l in [1, S], 1[u >= l] = 1[x >= a_l] with a_l
    the l-th unused control. So the cost is the sum of one cost per
    level, G_l(a_l), where G_l(x) = length where D >= l left of x plus
    length where D < l right of x.

    - G_l has slope -1 where D < l and +1 where D >= l, so it is
      minimized exactly where D climbs from below l to l or above. The
      score of each such point holds one up-crossing of l: a control
      whose D after it is l (controls come first on a score, so there is
      at most one per score). Up to a constant, G_l at an up-crossing at x is
      H = 2 * (length at or above l before x) - (x - x0), with x0 the
      score of the level's first event. Each level is visited up,
      down, ..., up (a down-crossing is a treated unit whose D before it
      is l), so from one up to the next H changes by the length above
      minus the length below: 2 * down - up before - up after.
    - Minimizing each level alone is a lower bound on the cost. Take the
      largest minimizer a_l of each level. G_{l+1} - G_l has slope
      -2 * 1[D = l], so it never rises; if a_{l+1} lay below a_l, then
      G_{l+1}(a_l) <= G_{l+1}(a_{l+1}) + G_l(a_l) - G_l(a_{l+1}) <=
      G_{l+1}(a_{l+1}), and a_l would be a larger minimizer of G_{l+1}.
      On equal scores the up-crossing of l + 1 follows that of l among
      the controls. So the a_l are distinct controls in increasing order,
      they are the unused controls of a matching, and it attains the
      bound.

    The walk's levels come from one cumulative sum over all rows; it
    ends each row at the row's surplus, so it numbers the groups of all
    rows in one run. One sort of the up and one of the down crossings by
    (group, position) make each group's events contiguous. H is a
    running sum of its steps within each group: each group's total, from
    `np.add.reduceat`, is folded into the next group's first slot, so
    the sum restarts near zero there and its rounding stays local to the
    group. Each row's steps fill one line of a zero-padded array, and one
    cumsum along the lines sums each row from exactly zero, adding in the
    order of a 1-D cumsum of that row alone, so a row solved with others
    takes exactly the controls it takes alone; a one-row call sums in
    place. `np.minimum.reduceat` gives each group's minimum, and the last
    up-crossing at it is a_l. O(N log N) for N = len(xs), in a fixed
    number of numpy calls; positions and levels are int32, so N must be
    below 2**31.
    """
    # level - 1 of each event: D after a control, D before a treated unit
    lev = np.cumsum(is_c.view(np.int8) * np.int8(2) - np.int8(1),
                    dtype=np.int32)
    # the walk at the end of each row and before it: the surpluses of the
    # rows so far
    ends = np.append(starts[1:], lev.size)
    top = lev[ends - 1]
    base = np.zeros_like(top)
    base[1:] = top[:-1]
    lev -= is_c
    inside = ((lev - np.repeat(base, ends - starts)).view(np.uint32)
              < np.repeat(top - base, ends - starts))
    lu, pu = _by_level(lev, np.flatnonzero(inside & is_c))
    pd = _by_level(lev, np.flatnonzero(inside & ~is_c))[1]
    del lev, inside
    if not lu.size:
        return lu, pu
    xu = xs[pu]
    # one spare slot past the down crossings, read by the first up
    xd = np.append(xs[pd], 0.0)
    del pd
    # the down crossing before up g of group l is g - l - 1
    g = np.arange(-1, lu.size - 1, dtype=np.int32)
    g -= lu
    h = xd[g]
    del g, xd
    h *= 2.0
    h[1:] -= xu[:-1]
    h -= xu
    del xu
    first = np.flatnonzero(lu[1:] != lu[:-1])
    first += 1
    group_starts = np.concatenate(([0], first))
    h[group_starts] = 0.0
    h[first] = -np.add.reduceat(h, group_starts)[:-1]
    # the running sum restarts at exactly zero on each row, as in a
    # one-row call, so a row's rounding does not depend on the rows before
    bounds = lu.searchsorted(base)
    h[bounds[bounds < lu.size]] = 0.0
    width = lu.searchsorted(top) - bounds  # row r's groups: base[r] <= l < top[r]
    if width.size == 1:
        np.cumsum(h, out=h)
    else:
        # one row per line, zero-padded; a cumsum along a line adds as a
        # 1-D cumsum of that row does
        inside = np.arange(width.max()) < width[:, None]
        pad = np.zeros(inside.shape)
        pad[inside] = h
        h = pad.cumsum(axis=1, out=pad)[inside]
        del pad, inside
    lowest = np.minimum.reduceat(h, group_starts)
    del group_starts, first
    at_min = np.flatnonzero(h == lowest[lu])
    del h, lowest
    lm = lu[at_min]
    at_min = at_min[np.append(lm[1:] != lm[:-1], True)]
    return lu[at_min], pu[at_min]


def _rows_used(xs: np.ndarray, is_c: np.ndarray,
               starts: np.ndarray) -> np.ndarray:
    """One flag per event of the merged rows of `_level_unused`: set on
    each control the row's matching uses."""
    used = is_c.copy()
    used[_level_unused(xs, is_c, starts)[1]] = False
    return used


def _pair_rows(xs: np.ndarray, is_c: np.ndarray, n1: np.ndarray,
               k: int) -> tuple[np.ndarray, np.ndarray]:
    """Solve merged rows and pair each treated unit with a used control.

    xs and is_c hold rows of equal length back to back, one sample per
    entry of n1, its number of treated units: xs the row's sorted scores,
    controls first on equal scores and each arm in position order, is_c
    flagging the controls. Every control is repeated k times in place,
    `_rows_used` solves all the rows in one pass, and in each row the
    i-th used control takes the i-th treated unit. Returns (treated,
    control), indices into xs: each treated unit, row by row in sorted
    order, and the control it takes. A row on which the solver does not
    use exactly N1 controls raises SolverError, naming the row.
    """
    n = xs.size // n1.size
    starts = np.arange(0, xs.size, n)
    if k > 1:
        # the index in xs of each copy: a control's k copies, a treated
        # unit's one; two gathers through it beat two np.repeat calls
        keep = np.ones((xs.size, k), dtype=bool)
        keep[:, 1:] = is_c[:, None]
        event = keep.ravel().nonzero()[0]
        event //= k
        xs, is_c = xs[event], is_c[event]
        starts = event.searchsorted(starts)
    used = _rows_used(xs, is_c, starts)
    flags = np.add.reduceat(used, starts, dtype=np.intp)
    stray = used > is_c  # a treated unit flagged used
    if (flags != n1).any() or stray.any():
        i = int(((flags != n1) | np.logical_or.reduceat(stray, starts)).argmax())
        raise SolverError(i, f"the level solver marked {flags[i]} units "
                             f"used, not the N1 = {n1[i]} controls a matching uses")
    if k == 1:
        return (~is_c).nonzero()[0], used.nonzero()[0]
    return event.compress(~is_c), event.compress(used)


def _exact_match(treated_scores, control_scores, method: str,
                 k: int = 1) -> Matching:
    """Min-cost matching, k treated per control.

    `_sort_rows` sorts the sample, controls then treated units, as one
    row, which `_pair_rows` solves with every control repeated k times,
    so k = 1 is matching without replacement. The cost is summed over the
    sorted treated scores less the scores of the controls they take.
    """
    t = _as_scores(treated_scores, "treated")
    c = _as_scores(control_scores, "control")
    _require_feasible(t.size, c.size, k)
    treated = np.repeat([False, True], [c.size, t.size])
    (order,), (xs,) = _sort_rows(np.concatenate((c, t))[None], treated[None])
    tp, cp = _pair_rows(xs, order < c.size, np.array([t.size]), k)
    cost = float(np.abs(xs[tp] - xs[cp]).sum())
    mate = np.empty(t.size, dtype=np.intp)
    mate[order[tp] - c.size] = order[cp]
    return Matching(pairs=Pairs(np.arange(t.size), mate), total_cost=cost,
                    method=method)


def match_rows(scores: np.ndarray, treated: np.ndarray,
               k: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Min-cost matchings, k treated per control, of many samples at once.

    Row i of `scores`, an (m, n) float array, holds one sample's finite
    scores and row i of the bool array `treated` flags its treated units;
    a row that is not `feasible` raises ValueError, naming it.
    `_sort_rows` sorts the rows as `_exact_match` sorts a sample alone, and
    `_pair_rows` then solves and pairs all the rows at once, so each row is
    matched exactly as `_exact_match` matches it, ties included.

    Returns (t, c): t holds the flat indices into `scores` of the treated
    units, in row-major order, and c the index of the control each is
    matched with. A row on which the solver does not use exactly N1
    controls raises SolverError, naming the row: that is a bug, not a
    failed match.
    """
    m, n = scores.shape
    n1 = np.count_nonzero(treated, axis=1)
    infeasible = ~feasible(n1, n - n1, k)
    if infeasible.any():
        i = int(infeasible.argmax())
        raise ValueError(f"row {i} of match_rows has N1 = {n1[i]} treated units "
                         f"and k * N0 = {k * (n - n1[i])} control places; every "
                         "row needs 0 < N1 <= k * N0")
    t = np.flatnonzero(treated)
    if not m:
        return t, t
    order, ordered = _sort_rows(scores, treated)
    src = order.ravel()
    tp, cp = _pair_rows(ordered.ravel(), ~treated.ravel()[src], n1, k)
    mate = np.empty(m * n, dtype=np.intp)
    mate[src[tp]] = src[cp]
    return t, mate[t]


def _sort_rows(scores: np.ndarray,
               treated: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, ordered) of (m, n) scores: the flat index into `scores` of
    each sorted score, and the sorted scores, row by row.

    A row is sorted by score, controls (False in `treated`) first on equal
    scores, then by position. The default argsort is several times faster
    than a stable one and gives that order where no two scores are equal,
    so only a row with a tie is sorted again, by `np.lexsort`.
    """
    m, n = scores.shape
    offset = (np.arange(m) * n)[:, None]
    order = scores.argsort(axis=1)
    order += offset
    ordered = scores.ravel()[order]
    tied = np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
    if tied.size:
        # the sorted scores stay as they are; equal ones change places
        order[tied] = np.lexsort((treated[tied], scores[tied]), axis=-1) + offset[tied]
    return order, ordered


def match_optimal_exact(treated_scores, control_scores) -> Matching:
    """Optimal matching without replacement, minimizing the summed score gaps."""
    return _exact_match(treated_scores, control_scores, "exact")


def match_banded(treated_scores, control_scores, band: int) -> Matching:
    """Optimal matching without replacement, refused where `band_refuses`.

    The band bounds the control surplus N0 - N1, the number of controls
    left unmatched. Where it covers the surplus the result is that of
    `match_optimal_exact`; elsewhere no approximation runs and the match
    raises BandError, a MatchingError that is not an InfeasibleError.
    """
    band = whole_number(band, "band", 0)
    t = _as_scores(treated_scores, "treated")
    c = _as_scores(control_scores, "control")
    if band_refuses(t.size, c.size, band):
        raise BandError(
            f"band {band} is below the control surplus N0 - N1 = "
            f"{c.size - t.size}; raise the band or use method 'exact'")
    return _exact_match(t, c, "banded")


def match_with_replacement(treated_scores, control_scores) -> Matching:
    """Match every treated unit to its nearest control; controls may repeat.

    Ties go to the lower control score, then to the lower position.

    The sorted control scores are searched for each sorted treated score.
    Only where two controls share a score are they reduced to one entry
    per distinct score, the lowest position of its run, so the control
    sort need not be stable. Treated units with equal scores take the same
    control, so the treated sort need not be stable either: their order
    cannot move a pair. Past the two sorts, the clipped indices, both gaps
    and the choice are computed in place, so few arrays are held at once.
    """
    t = _as_scores(treated_scores, "treated")
    c = _as_scores(control_scores, "control")
    _require_feasible(t.size, c.size, None)
    # lowest: the position of each sorted control score, the lowest of equal ones
    lowest = c.argsort()
    cs = c[lowest]
    step = cs[1:] != cs[:-1]
    if not step.all():
        starts = np.flatnonzero(np.concatenate(([True], step)))
        cs = cs[starts]
        lowest = np.minimum.reduceat(lowest, starts)
    del step
    t_order = t.argsort()
    ts = t[t_order]
    # pos: the first distinct control score at or above each treated
    # score, clipped to the top one. Where a score lies on both sides,
    # step down to the one below unless the one above is strictly nearer.
    pos = cs.searchsorted(ts)
    inner = (pos > 0) & (pos < cs.size)
    np.minimum(pos, cs.size - 1, out=pos)
    gap_right = cs[pos]
    np.subtract(ts, gap_right, out=gap_right)
    np.abs(gap_right, out=gap_right)
    pos -= inner
    gap_left = cs[pos]
    np.subtract(ts, gap_left, out=gap_left)
    np.abs(gap_left, out=gap_left)
    del cs, ts
    inner &= gap_left > gap_right
    del gap_left, gap_right
    pos += inner
    c_pos = np.empty(t.size, dtype=np.intp)
    c_pos[t_order] = lowest[pos]
    cost = float(np.sum(np.abs(t - c[c_pos])))
    return Matching(pairs=Pairs(np.arange(t.size), c_pos), total_cost=cost,
                    method="with_replacement")


def match_capacitated(treated_scores, control_scores, k: int) -> Matching:
    """Min-cost matching where each control absorbs at most k treated units.

    Solved by replicating every control k times and running the exact
    solver of `match_optimal_exact` on the expanded side of N0 * k + N1
    sorted scores. k = 1 recovers matching without replacement; k >= N1
    attains the with-replacement cost.
    """
    k = whole_number(k, "k", 1)
    return _exact_match(treated_scores, control_scores, "capacitated", k)


BRUTE_FORCE_LIMIT = 10


def brute_force_match(treated_scores, control_scores) -> Matching:
    """Global minimum over every injective assignment, by direct enumeration.

    Independent oracle for the exact matchers; guarded to N1 <= N0 <= 10.
    """
    t = _as_scores(treated_scores, "treated")
    c = _as_scores(control_scores, "control")
    _require_feasible(t.size, c.size, 1)
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
    return Matching(pairs=Pairs(np.arange(t.size), np.array(best, dtype=np.intp)),
                    total_cost=float(best_cost), method="brute_force")


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
    tp, cp = matching.pair_arrays()
    order = t[tp].argsort()  # the order of equal treated scores cannot matter
    a, b = t[tp[order]], c[cp[order]]
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
    caliper = _caliper(caliper)
    t = _as_scores(treated_scores, "treated")
    c = _as_scores(control_scores, "control")
    ti, ci = matching.pair_arrays()
    gap = np.abs(t[ti] - c[ci])
    keep = gap <= caliper
    retained = Matching(pairs=Pairs(ti[keep], ci[keep]),
                        total_cost=float(gap[keep].sum()), method=matching.method)
    return retained, set(ti[~keep].tolist())


def check_method(method: str) -> None:
    """Raise ValueError unless method is one of METHODS."""
    if method not in METHODS:
        raise ValueError(f"unknown matching method {method!r}; "
                         f"expected one of {', '.join(METHODS)}")


def match_scores(treated_scores, control_scores, method: str = "exact",
                 config: MatchConfig | None = None) -> Matching:
    """Dispatch to a matcher by name, one of METHODS."""
    check_method(method)
    cfg = config if config is not None else MatchConfig()
    k = capacity(method, cfg)
    if k is None:
        return match_with_replacement(treated_scores, control_scores)
    if method == "banded":
        return match_banded(treated_scores, control_scores, cfg.band)
    return _exact_match(treated_scores, control_scores, method, k)  # exact, capacitated
