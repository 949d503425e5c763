import hashlib
import heapq
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchbias import estimators
from matchbias import matching as mt
from matchbias import population


def random_instance(rng, max_n1=5, max_n0=8):
    n1 = int(rng.integers(1, max_n1 + 1))
    n0 = int(rng.integers(n1, max_n0 + 1))
    return rng.random(n1), rng.random(n0)


def has_crossing_quadratic(matching, treated_scores, control_scores):
    # literal pairwise check of the crossing inequality
    t = np.asarray(treated_scores, dtype=float)
    c = np.asarray(control_scores, dtype=float)
    items = [(t[i], c[j]) for i, j in matching.pairs.items()]
    for ai, bi in items:
        for aj, bj in items:
            if max(ai, bj) < min(aj, bi):
                return True
    return False


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


def windowed_dp_match(t, c, k=1):
    """(cost, pairs) of the windowed DP at its exact window k*N0 - N1."""
    t, c = np.asarray(t, dtype=float), np.asarray(c, dtype=float)
    t_order = np.argsort(t, kind="stable")
    c_order = np.argsort(c, kind="stable")
    cost, skips = _windowed_dp(t[t_order], np.repeat(c[c_order], k),
                               k * c.size - t.size)
    c_pos = c_order[(np.arange(t.size) + skips) // k]
    return cost, dict(zip(t_order.tolist(), c_pos.tolist()))


def _two_heap_sweep_used(t_sorted: np.ndarray,
                         c_sorted: np.ndarray) -> bytearray:
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


def _sweep_used(t_sorted: np.ndarray, c_sorted: np.ndarray) -> np.ndarray:
    """Controls used by a min-cost matching of every sorted treated unit.

    An oracle for the level solver (`level_used`), which takes the same
    controls wherever costs are exact.

    Successive shortest paths on the line, run as one sorted sweep (the
    "mice and holes" exchange argument): scores are visited in order,
    controls before treated on equal scores, and two stacks hold the
    cheapest moves so far. Each move is anchored at one control, the one
    whose used flag it changes, and the stacks hold only these anchors;
    `val[a]` is the value of the one move anchored at control a.

    - `hole`: a treated unit at x can take a control for x + value. A free
      control at y offers -y; a control vacated by a steal offers the
      cost of sending the stolen treated unit back to it.
    - `mouse`: a control at y can take over a matched treated unit for
      y + value, moving it off its anchor; taken only when that is < 0.
    - `waiting` counts treated units that found `hole` empty. The next
      controls go to them, which stands in for an infinite cost without
      absorbing any score into it.

    One slot per control is enough because a control sits on at most one
    stack at a time, and at most once. It goes onto `hole` when the sweep
    first sees it free, moves to `mouse` when a pop matches it (its slot
    becomes the mouse value -2x - val[a]) and back to `hole` when a steal
    at y frees it (the slot becomes the hole value -2y - val[a]). A
    control that fills a waiting unit or steals goes onto neither stack
    and stays used. So `hole` holds exactly the controls seen so far that
    are free, and the loop writes no flags: at the end the used controls
    are those the sweep has reached, minus those left on `hole`. A slot
    starts at -y, the control's hole value when free, and changes only
    while its control is on a stack, so the control at y the sweep is
    about to reach still holds -y, and the steal test reads it there.

    Each push is no larger than the top it covers, so the top of either
    stack is a cheapest move and a pop takes it in O(1). On the line an
    optimal matching can be taken non-crossing, and in the sweep this
    makes both queues last-in-first-out by value:

    - A free control's hole -y lies below every earlier hole: earlier free
      controls lie at or below y, and a steal at y' <= y leaves a hole
      above -y'.
    - A steal at y takes over the unit matched at x through hole v, whose
      mouse value is m = -2x - v, and leaves the hole -2y - m =
      v - 2(y - x). That lies below v and below every steal hole pushed
      since then, each left at a score no higher by a mouse no larger
      than m. No free control lies between x and y: with m on the mouse
      stack it would have stolen first.
    - A matched unit's reach x + cost(x) never falls from one matched unit
      to the next, and minus that reach is its mouse value.

    So every pop is a minimum-value move and successive shortest paths
    stay optimal whichever of several equal moves is taken; floating-point
    rounding can at most pop a move one ulp dearer than the minimum. On
    distinct scores the used flags are those of two plain heaps, as the
    tests check. On tied scores a stack takes the most recent of equally
    cheap moves where a heap takes the smallest anchor, which can select
    a different optimal set of controls at the same cost.

    The controls between two treated scores are handled in slices: the
    first go to `waiting`, the next steal while `y + mouse top < 0` (a
    steal only raises the mouse top and y only grows, so the first control
    that does not steal ends the steals), and the rest are pushed onto the
    hole stack with one extend. Besides the search for each treated
    unit's place among the controls, O(N) time for N = N0 + N1, and O(N)
    memory.

    Requires len(t_sorted) <= len(c_sorted), so that `waiting` ends at
    zero. Returns a bool array, one flag per sorted control; exactly
    len(t_sorted) are set.
    """
    n0 = c_sorted.size
    val = (-c_sorted).tolist()
    hole: list[int] = []
    mouse: list[int] = []
    waiting = 0
    # controls at or below each treated score come before it
    ends = c_sorted.searchsorted(t_sorted, side="right").tolist()
    j = 0
    for x, end in zip(t_sorted.tolist(), ends):
        if j < end:
            if waiting:
                w = min(waiting, end - j)
                waiting -= w
                j += w
            while j < end and mouse and val[mouse[-1]] < val[j]:
                a = mouse.pop()
                val[a] = 2.0 * val[j] - val[a]
                hole.append(a)
                j += 1
            hole += range(j, end)
            j = end
        if hole:
            a = hole.pop()
            val[a] = -2.0 * x - val[a]
            mouse.append(a)
        else:
            waiting += 1
    # past the last treated unit only waiting units and steals can use a
    # control, and once neither applies no later (larger) control can; a
    # steal still frees its anchor onto `hole`, but no pop reads its value
    j += waiting
    while j < n0 and mouse and val[mouse[-1]] < val[j]:
        hole.append(mouse.pop())
        j += 1
    used = np.zeros(n0, dtype=bool)
    used[:j] = True
    used[hole] = False
    return used


@st.composite
def tied_instances(draw):
    """(t, c, k) on the quarter grid, so duplicate scores are common."""
    k = draw(st.integers(1, 3))
    grid = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
    c = draw(st.lists(grid, min_size=1, max_size=8))
    t = draw(st.lists(grid, min_size=1, max_size=min(k * len(c), 12)))
    return np.asarray(t), np.asarray(c), k


class TestExactAgainstBruteForce:
    def test_spec_examples(self):
        m = mt.match_optimal_exact([0.5], [0.4, 0.7])
        assert m.pairs == {0: 0}
        assert m.total_cost == pytest.approx(0.1)

        # frozen from the brute-force oracle: 0.3->0.29, 0.5->0.6
        m = mt.match_optimal_exact([0.3, 0.5], [0.29, 0.31, 0.6])
        oracle = mt.brute_force_match([0.3, 0.5], [0.29, 0.31, 0.6])
        assert oracle.total_cost == pytest.approx(0.11)
        assert m.total_cost == pytest.approx(oracle.total_cost)

        t = [0.2, 0.8, 0.5]
        m = mt.match_optimal_exact(t, t)
        assert m.total_cost == 0.0
        assert m.pairs == {0: 0, 1: 1, 2: 2}

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(42)
        for _ in range(400):
            t, c = random_instance(rng)
            dp = mt.match_optimal_exact(t, c)
            bf = mt.brute_force_match(t, c)
            assert dp.total_cost == pytest.approx(bf.total_cost, abs=1e-12)

    def test_oracle_equivalence_with_ties(self):
        # duplicated scores exercise the deterministic tie-break
        rng = np.random.default_rng(7)
        for _ in range(200):
            t = rng.integers(0, 4, size=rng.integers(1, 5)) / 4.0
            c = rng.integers(0, 4, size=rng.integers(t.size, 8)) / 4.0
            dp = mt.match_optimal_exact(t, c)
            bf = mt.brute_force_match(t, c)
            assert dp.total_cost == pytest.approx(bf.total_cost, abs=1e-12)
            assert len(set(dp.pairs.values())) == t.size

    def test_rejects_degenerate(self):
        with pytest.raises(mt.MatchingError):
            mt.match_optimal_exact([], [0.1])
        with pytest.raises(mt.MatchingError):
            mt.match_optimal_exact([0.1, 0.2], [0.1])

    @pytest.mark.parametrize("t, c, message", [
        ([[0.1], [0.2]], [0.3, 0.4], "treated scores must be one-dimensional"),
        ([0.1], [[0.3, 0.4]], "control scores must be one-dimensional"),
        ([np.nan], [0.3, 0.4], "treated scores must be finite"),
        ([0.1], [0.3, np.nan], "control scores must be finite"),
    ], ids=["treated_2d", "control_2d", "treated_nan", "control_nan"])
    def test_rejects_malformed_scores(self, t, c, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            mt.match_optimal_exact(t, c)

    def test_pairs_refer_to_original_positions(self):
        t = [0.9, 0.1]
        c = [0.95, 0.05, 0.5]
        m = mt.match_optimal_exact(t, c)
        assert m.pairs == {0: 0, 1: 1}

    def test_total_cost_matches_pair_recompute(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            t, c = rng.random(30), rng.random(55)
            m = mt.match_optimal_exact(t, c)
            recomputed = sum(abs(t[i] - c[j]) for i, j in m.pairs.items())
            assert m.total_cost == pytest.approx(recomputed, rel=1e-12)


class TestBanded:
    def test_wide_band_equals_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n1 = int(rng.integers(1, 60))
            n0 = int(rng.integers(n1, 120))
            t, c = rng.random(n1), rng.random(n0)
            exact = mt.match_optimal_exact(t, c)
            banded = mt.match_banded(t, c, n0 - n1)
            assert banded.total_cost == pytest.approx(exact.total_cost, abs=1e-12)
            assert banded.pairs == exact.pairs

    def test_band_zero_equal_sizes_pairs_sorted(self):
        t = [0.9, 0.1, 0.5]
        c = [0.2, 1.0, 0.4]
        m = mt.match_banded(t, c, 0)
        # sorted treated (0.1, 0.5, 0.9) aligned with sorted controls (0.2, 0.4, 1.0)
        assert m.pairs == {1: 0, 2: 2, 0: 1}

    def test_midsize_band_matches_exact(self):
        rng = np.random.default_rng(5)
        t, c = rng.random(50), rng.random(80)
        banded = mt.match_banded(t, c, 30)
        exact = mt.match_optimal_exact(t, c)
        assert banded.total_cost == pytest.approx(exact.total_cost, abs=1e-12)

    def test_cost_monotone_in_band(self):
        # below N0 - N1 = 25 the band is refused; from there on the cost is
        # flat at the exact optimum
        rng = np.random.default_rng(9)
        t, c = rng.random(20), rng.random(45)
        for b in range(0, 25):
            with pytest.raises(mt.MatchingError,
                               match=rf"band {b} .* N0 - N1 = 25"):
                mt.match_banded(t, c, b)
        exact = mt.match_optimal_exact(t, c)
        for b in range(25, 46):
            banded = mt.match_banded(t, c, b)
            assert banded.pairs == exact.pairs
            assert banded.total_cost == exact.total_cost


class TestSweepAgainstWindowedDP:
    """The exact matchers run the level solver; the windowed DP is their
    oracle."""

    @settings(max_examples=300, deadline=None)
    @given(tied_instances())
    def test_tied_cost_equals_dp(self, inst):
        t, c, k = inst
        dp_cost, _ = windowed_dp_match(t, c, k)
        m = mt.match_capacitated(t, c, k)
        assert m.total_cost == pytest.approx(dp_cost, abs=1e-12)
        assert np.bincount(list(m.pairs.values()), minlength=c.size).max() <= k

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0, 1), st.integers(1, 10), st.integers(0, 5),
           st.integers(1, 3))
    def test_all_equal_scores(self, x, n1, extra, k):
        # every matching costs 0; N1 = k*N0 when extra is 0 and k divides N1
        n0 = -(-n1 // k) + extra
        t, c = np.full(n1, x), np.full(n0, x)
        dp_cost, _ = windowed_dp_match(t, c, k)
        m = mt.match_capacitated(t, c, k)
        assert m.total_cost == dp_cost == 0.0
        assert sorted(m.pairs) == list(range(n1))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0, 1), min_size=1, max_size=9),
           st.randoms(use_true_random=False))
    def test_equal_sizes(self, t, rnd):
        # N1 = N0: every control is used, sorted pairing is optimal
        c = [x + rnd.uniform(-0.1, 0.1) for x in t]
        rnd.shuffle(c)
        dp_cost, _ = windowed_dp_match(t, c)
        m = mt.match_optimal_exact(t, c)
        assert m.total_cost == pytest.approx(dp_cost, abs=1e-12)
        assert sorted(m.pairs.values()) == list(range(len(c)))

    def test_tied_non_dyadic_cost_equals_dp(self):
        # Hole and mouse values on grids of 0.1, 0.01 and thirds carry
        # rounding, so equal moves may differ in their last bits; the
        # stack's pick must still reach the DP's cost.
        rng = np.random.default_rng(41)
        for step in (0.1, 0.01, 1 / 3):
            for _ in range(300):
                k = int(rng.integers(1, 4))
                top = int(rng.integers(1, 12))
                c = rng.integers(0, top + 1, int(rng.integers(1, 9))) * step
                t = rng.integers(0, top + 1,
                                 int(rng.integers(1, k * c.size + 1))) * step
                dp_cost, _ = windowed_dp_match(t, c, k)
                m = mt.match_capacitated(t, c, k)
                assert m.total_cost == pytest.approx(dp_cost, rel=1e-12)
                assert np.bincount(m.pairs.control, minlength=c.size).max() <= k

    def test_continuous_pairs_identical(self):
        rng = np.random.default_rng(2024)
        for n1, n0 in [(1, 1), (5, 5), (40, 41), (300, 800), (1500, 1600),
                       (2000, 3000), (3000, 5000)]:
            for k in (1, 2, 3):
                t, c = rng.random(n1), rng.random(-(-n0 // k))
                dp_cost, dp_pairs = windowed_dp_match(t, c, k)
                m = mt.match_capacitated(t, c, k)
                assert m.pairs == dp_pairs
                assert m.total_cost == pytest.approx(dp_cost, rel=1e-12)

    def test_prognostic_pairs_identical(self):
        for a, n, seed in [(1 / 3, 2000, 1), (4 / 9, 3000, 2), (1.0, 4000, 3)]:
            smp = population.sample(population.make_prognostic_spec(a), n, seed)
            t, c = smp.treated_scores, smp.control_scores
            dp_cost, dp_pairs = windowed_dp_match(t, c)
            m = mt.match_optimal_exact(t, c)
            assert m.pairs == dp_pairs
            assert m.total_cost == pytest.approx(dp_cost, rel=1e-12)

    def test_tie_rule(self):
        # At its exact window the DP reaches the matcher's cost, and on
        # distinct scores the same pairs, but on tied scores the two can pick
        # different optimal sets of controls. The DP puts each pair on the
        # smallest admissible control position. The matcher takes the
        # controls of the stack sweep `_sweep_used`, whose queues are stacks:
        # among equally cheap holes a treated unit takes the last pushed, on
        # the largest sorted control position, and a later control takes over
        # the most recently matched unit. Here the first 0.75 takes the 0.0
        # at position 2, the second the 0.0 at position 0, and the 1.0 takes
        # over from the second, freeing position 0. Both cost 1.0: the DP
        # pairs {0: 0, 1: 1}, the matcher {0: 2, 1: 1}.
        t, c = [0.75, 0.75], [0.0, 1.0, 0.0]
        m = mt.match_optimal_exact(t, c)
        assert m.pairs == {0: 2, 1: 1}
        assert m.total_cost == mt.brute_force_match(t, c).total_cost == 1.0
        assert windowed_dp_match(t, c) == (1.0, {0: 0, 1: 1})

    def test_windowed_dp_runs_only_below_the_surplus(self):
        # The DP lives on only as this oracle: no matcher runs it, and below
        # the surplus a band is refused instead of approximated.
        assert not hasattr(mt, "_windowed_dp")
        rng = np.random.default_rng(3)
        t, c = rng.random(20), rng.random(50)
        exact = mt.match_optimal_exact(t, c)
        cfg = mt.MatchConfig(capacity=2)
        assert mt.match_scores(t, c, "exact", cfg).pairs == exact.pairs
        assert (mt.match_scores(t, c, "capacitated", cfg).total_cost
                <= exact.total_cost + 1e-12)
        assert mt.match_banded(t, c, 30).pairs == exact.pairs
        with pytest.raises(mt.BandError, match=r"band 29 .* N0 - N1 = 30"):
            mt.match_banded(t, c, 29)


def used_cost(t_sorted, c_sorted, used):
    return float(np.abs(t_sorted - c_sorted[used]).sum())


def level_used(t_sorted: np.ndarray, c_sorted: np.ndarray) -> np.ndarray:
    """Controls the level solver uses in a min-cost matching of every
    sorted treated unit, one flag per sorted control.

    The sorted sides are merged by one stable argsort of their
    concatenation, controls first on equal scores, and `mt._rows_used`
    solves the merged row. The matchers sort a sample once instead; this
    is the independent reference for what they and `match_rows` take.
    Requires len(t_sorted) <= len(c_sorted).
    """
    x = np.concatenate((c_sorted, t_sorted))
    order = x.argsort(kind="stable")
    is_c = order < c_sorted.size
    used = mt._rows_used(x[order], is_c, np.zeros(1, dtype=np.intp))
    return used.compress(is_c)


class TestSweepAgainstTwoHeaps:
    """The level solver finds the optimum that two plain heaps find.

    Every call a matcher or `match_rows` makes to the solve-and-pair step
    `_pair_rows`, at any size, is checked row by row against
    `_two_heap_sweep_used`. Each row's treated units take used controls
    in sorted order, no control more than k times. When no score value
    repeats across the two sorted sides, the used controls are the
    oracle's. Otherwise the solver may take a different one of several
    equally cheap moves: N1 controls are used and the cost is the
    oracle's.
    """

    @pytest.fixture(autouse=True)
    def checked_sweep(self, monkeypatch):
        pair_rows = mt._pair_rows
        self.calls = self.rows = 0

        def checked(xs, is_c, n1, k):
            tp, cp = pair_rows(xs, is_c, n1, k)
            n = xs.size // n1.size
            assert np.array_equal(tp, np.flatnonzero(~is_c))
            assert cp.size == tp.size and np.array_equal(cp // n, tp // n)
            for r in range(n1.size):
                x, row_c = xs[r * n:(r + 1) * n], is_c[r * n:(r + 1) * n]
                t_sorted, c_sorted = x[~row_c], np.repeat(x[row_c], k)
                used = cp[tp // n == r] - r * n
                assert used.size == n1[r] == t_sorted.size
                assert np.all(np.diff(used) >= 0) and np.bincount(used).max() <= k
                oracle = np.frombuffer(_two_heap_sweep_used(t_sorted, c_sorted),
                                       dtype=np.uint8) == 1
                theirs = np.flatnonzero(row_c)[np.flatnonzero(oracle) // k]
                scores = np.concatenate([t_sorted, c_sorted])
                if np.unique(scores).size == scores.size:
                    assert np.array_equal(used, theirs)
                else:
                    assert float(np.abs(t_sorted - x[used]).sum()) == pytest.approx(
                        float(np.abs(t_sorted - x[theirs]).sum()), rel=1e-12,
                        abs=1e-12)
                self.rows += 1
            self.calls += 1
            return tp, cp

        monkeypatch.setattr(mt, "_pair_rows", checked)

    def test_seeded_continuous(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            t, c = random_instance(rng, max_n1=30, max_n0=40)
            mt.match_capacitated(t, c, int(rng.integers(1, 4)))
        assert self.calls == 300

    def test_quarter_grid_ties(self):
        rng = np.random.default_rng(32)
        for _ in range(600):
            k = int(rng.integers(1, 4))
            c = rng.integers(0, 5, int(rng.integers(1, 13))) / 4
            t = rng.integers(0, 5, int(rng.integers(1, k * c.size + 1))) / 4
            mt.match_capacitated(t, c, k)
        assert self.calls == 600

    def test_all_equal_scores(self):
        for k in (1, 2, 3):
            for n0 in range(1, 6):
                for n1 in range(1, k * n0 + 1):
                    mt.match_capacitated(np.full(n1, 0.5), np.full(n0, 0.5), k)

    def test_prognostic_sample(self):
        smp = population.sample(population.make_prognostic_spec(1 / 3),
                                20_000, 5)
        mt.match_optimal_exact(smp.treated_scores, smp.control_scores)
        assert self.calls == 1

    def test_both_paths(self):
        # continuous and tied instances on either side of 800 sorted
        # scores, at k = 1 and k = 2, the categorical ones with heavy ties
        rng = np.random.default_rng(33)
        for n0 in (200, 800, 2400):
            for k in (1, 2):
                t, c = rng.random(n0 // 2), rng.random(n0)
                mt.match_capacitated(t, c, k)
                c = rng.integers(0, 40, n0) / 8
                t = rng.integers(0, 40, int(k * n0 * 0.7)) / 8
                mt.match_capacitated(t, c, k)
        smp = population.sample(
            population.make_categorical_spec(0.1, 0.75, 0.3), 5000, 18)
        mt.match_optimal_exact(smp.treated_scores, smp.control_scores)
        assert self.calls == 13

    def test_overflow_heaps(self):
        # Tied inputs where a queue holds equally cheap moves, so the stack
        # takes the most recent one where a heap takes the smallest anchor.
        # The first two tie the mouse values of two matched units, the last
        # two also the holes that two steals leave, at k = 1 and at k = 2.
        mt.match_optimal_exact([0.5, 1.0], [0.0, 1.0])
        mt.match_optimal_exact([0.5, 0.5], [0.0, 0.0, 0.75, 0.75])
        mt.match_optimal_exact([0.5, 0.5, 0.75], [0.0, 0.0, 0.75, 0.75])
        mt.match_capacitated([0.5, 0.5, 0.75], [0.0, 0.75], 2)
        assert self.calls == 4

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_block_rows(self, k):
        # one block of 40 rows, continuous and quarter-grid scores in
        # turn, N1 from 1 to the most that k * N0 takes
        rng = np.random.default_rng(34 + k)
        scores = rng.random((40, 30))
        scores[::2] = rng.integers(0, 5, (20, 30)) / 4
        n1 = rng.integers(1, 30 * k // (k + 1) + 1, 40)
        treated = rng.random((40, 30)).argsort(axis=1) < n1[:, None]
        mt.match_rows(scores, treated, k)
        assert (self.calls, self.rows) == (1, 40)


# quarter-grid instances where the stack sweep and two plain heaps take
# different controls: k, treated and control scores in quarters, and how
# many treated units the matcher gives each control position
QUARTER_GRID_TIES = [
    (1, "1110", "040311303", "001011010"),
    (1, "10144041", "030131121", "111011111"),
    (1, "000214", "0022414013", "1101001110"),
    (1, "433431", "3401341443", "1000101111"),
    (1, "4", "44", "01"),
    (1, "223", "303310", "100110"),
    (2, "3033313", "34343420", "10202002"),
    (2, "40044", "334", "212"),
    (2, "43000032", "421344113", "012001202"),
    (2, "123134223", "3332340", "1012212"),
    (2, "10214", "334142141", "000101012"),
    (2, "2", "0423004", "0010000"),
    (3, "4", "13411", "00100"),
    (3, "41", "22332321", "00000101"),
    (3, "3023323331", "3230202", "3030022"),
    (3, "144", "1423023123", "0200000100"),
    (3, "4041422112", "3032202", "0130033"),
    (3, "32423433", "423044341", "021000320"),
]

# one instance per path through `_sweep_used`, each with one optimal set of
# controls: treated and control scores and the used flags
SWEEP_BRANCHES = [
    # 0.1 waits for the first control; 0.7 then takes 0.6
    ([0.1, 0.7], [0.5, 0.6, 0.9], [1, 1, 0]),
    # 0.6 takes over 0.5 from 0.0, which stays free; 1.0 takes 0.9
    ([0.5, 1.0], [0.0, 0.6, 0.9], [0, 1, 1]),
    # both treated units wait; the first two controls after them go
    ([0.1, 0.2], [0.5, 0.6, 0.9], [1, 1, 0]),
    # past the last treated unit 0.6 takes over 0.5 from 0.0
    ([0.5], [0.0, 0.6], [0, 1]),
]
SWEEP_BRANCH_IDS = ["waiting_in_loop", "steal_in_loop", "waiting_in_tail",
                    "steal_in_tail"]


def control_counts(m: mt.Matching, n0: int) -> str:
    """How many treated units each control position takes, one digit each."""
    return "".join(map(str, np.bincount(m.pairs.control, minlength=n0)))


class TestSweepTieChoices:
    """Which of several equally cheap controls the matcher takes on ties.

    The cost does not fix that choice, but the estimate does depend on it:
    the outcomes of the controls taken enter a categorical cell's ATT. So
    the choice, by original control position, is pinned here. Each quarter-
    grid instance is one where the stack sweep `_sweep_used` and two plain
    heaps take different controls; the matcher takes the stack sweep's.
    Digits are scores in quarters.
    """

    @pytest.mark.parametrize("k, t, c, expect", QUARTER_GRID_TIES)
    def test_quarter_grid(self, k, t, c, expect):
        t = np.array([int(d) for d in t]) / 4
        c = np.array([int(d) for d in c]) / 4
        assert control_counts(mt.match_capacitated(t, c, k), c.size) == expect

    def test_categorical_sample(self):
        smp = population.sample(
            population.make_categorical_spec(0.1, 0.75, 0.3), 2000, 18)
        m = mt.match_optimal_exact(smp.treated_scores, smp.control_scores)
        counts = control_counts(m, smp.n0)
        assert (smp.n1, smp.n0) == (686, 1314)
        assert hashlib.sha256(counts.encode()).hexdigest() == (
            "26055063a9fc8e33e3157433b0fce2ee33b1f52a3f6559e8549e59cb7fea5114")


class TestPerSampleBitPins:
    """The per-sample matchers' pairs and costs, bit for bit.

    One SHA-256 per sample over `exact`, `banded` and `capacitated` at
    k = 2 and 3: the control position of each treated unit, as 8 little-
    endian bytes, and `total_cost.hex()`. A moved pair or a cost that
    differs in its last bit changes the digest.
    """

    @pytest.mark.parametrize("spec, n, digest", [
        pytest.param(spec, n, digest, id=f"{name}-{n}")
        for name, spec, digests in [
            ("prognostic_third", population.make_prognostic_spec(1 / 3), [
                "fceec4f4a3a695fc957deee4360559f22e91e82d17c61da4879a291d26b5c2d1",
                "178b7a45cf76b85756022e657de4413aaf0eb840d57d7367c3c61a43d0355cc2",
                "c267c79769f666fb0c045d50e66b8e267dabc0e5fd5d73c3384b8e3103b70d7f"]),
            ("categorical", population.make_categorical_spec(0.1, 0.75, 0.3), [
                "74d123f8e01659d9fb956268ecf50a58f59291b11e534e35a954496eac815e4b",
                "129c27f41e9a7c74cfa8227b45025870b46e2dbc393cb488522e477b57107c59",
                "ba1f3a45fa71895b4b66f1aafed2364e1bfc9d211f679763baf37586f8977949"]),
        ] for n, digest in zip((100, 2000, 20_000), digests)])
    def test_digest(self, spec, n, digest):
        smp = population.sample(spec, n, 7)
        h = hashlib.sha256()
        for method, k in (("exact", 1), ("banded", 1), ("capacitated", 2),
                          ("capacitated", 3)):
            m = mt.match_scores(smp.treated_scores, smp.control_scores, method,
                                mt.MatchConfig(band=n, capacity=k))
            h.update(m.pairs.control.astype("<i8").tobytes())
            h.update(m.total_cost.hex().encode())
        assert h.hexdigest() == digest


class TestSweepBranches:
    """Hand-checked used flags for each path through `_sweep_used`.

    Each instance has one optimal set of controls, which brute force
    confirms. A control that fills a waiting unit or steals stays used,
    and a control freed by a steal must go back onto the hole stack, or
    the flags read off it at the end come out wrong.
    """

    @pytest.mark.parametrize("t, c, expect", SWEEP_BRANCHES,
                             ids=SWEEP_BRANCH_IDS)
    def test_used_flags(self, t, c, expect):
        t, c = np.asarray(t), np.asarray(c)
        used = _sweep_used(t, c)
        assert used.dtype == bool
        assert np.count_nonzero(used) == t.size
        assert used.tolist() == [bool(f) for f in expect]
        bf = mt.brute_force_match(t, c)
        assert sorted(bf.pairs.values()) == np.flatnonzero(used).tolist()


def sorted_sides(t, c, k=1):
    """Sorted treated scores, and sorted control scores repeated k times."""
    return (np.sort(np.asarray(t, dtype=float)),
            np.repeat(np.sort(np.asarray(c, dtype=float)), k))


class TestLevelSolverAgainstSweep:
    """The level solver takes the controls the sweep `_sweep_used` takes.

    On integer-valued scores, which add up without rounding, and on
    sampled scores the used flags are identical, ties included. On a grid
    of tenths the two may break a near-tie in rounding differently; then
    exactly N1 flags are set and the cost is the sweep's.
    """

    def assert_same(self, t_sorted, c_sorted):
        used = level_used(t_sorted, c_sorted)
        assert used.dtype == bool and used.shape == c_sorted.shape
        assert np.array_equal(used, _sweep_used(t_sorted, c_sorted))

    def test_integer_ties(self):
        rng = np.random.default_rng(51)
        for _ in range(3000):
            k = int(rng.integers(1, 4))
            top = int(rng.integers(1, 12))
            c = rng.integers(0, top + 1, int(rng.integers(1, 12)))
            t = rng.integers(0, top + 1, int(rng.integers(1, k * c.size + 1)))
            self.assert_same(*sorted_sides(t, c, k))

    @pytest.mark.parametrize("k, t, c, expect", QUARTER_GRID_TIES)
    def test_quarter_grid_ties(self, k, t, c, expect):
        t = np.array([int(d) for d in t]) / 4
        c = np.array([int(d) for d in c]) / 4
        self.assert_same(*sorted_sides(t, c, k))
        assert control_counts(mt.match_capacitated(t, c, k), c.size) == expect

    @pytest.mark.parametrize("t, c, expect", SWEEP_BRANCHES,
                             ids=SWEEP_BRANCH_IDS)
    def test_sweep_branches(self, t, c, expect):
        t, c = np.asarray(t), np.asarray(c)
        self.assert_same(t, c)
        assert level_used(t, c).tolist() == [bool(f) for f in expect]

    @pytest.mark.parametrize("t, c, den, unused", [
        ([0, 1, 1, 1, 2, 2], [0, 0, 0, 0, 2, 2, 2, 2, 2], 3, [4, 5, 6]),
        # equal costs that a running sum over all levels, not restarted
        # at each level, rounds apart: it leaves 0.0 and 0.6 unused
        ([2, 2, 4, 5], [0, 0, 2, 3, 6, 6], 10, [0, 1]),
        # 0.8 lies 0.1 from 0.7 and from 0.9; a level sum that does not
        # start from exactly zero leaves 0.9 unused instead of 0.7
        ([0, 8], [0, 0, 5, 6, 7, 9], 10, [0, 2, 3, 4]),
    ], ids=["thirds", "tenths", "tenths_tie"])
    def test_rounding_stays_in_its_level(self, t, c, den, unused):
        t, c = np.array(t) / den, np.array(c) / den
        self.assert_same(t, c)
        assert np.flatnonzero(~level_used(t, c)).tolist() == unused

    @pytest.mark.parametrize("spec", [
        population.make_prognostic_spec(1 / 3),
        population.make_prognostic_spec(1.0),
        population.make_uniform_propensity_spec(0.8),
        population.make_categorical_spec(0.1, 0.75, 0.3),
        population.make_categorical_spec(0.5, 0.6, 0.2),
    ], ids=["prognostic_third", "prognostic_one", "uniform", "categorical",
            "categorical_even"])
    def test_sampled_specs(self, spec):
        # a table's sizes and the benchmark's
        for n, seeds in ((400, 5), (2000, 5), (100_000, 1)):
            for seed in range(seeds):
                smp = population.sample(spec, n, seed)
                if smp.n1 <= smp.n0:
                    self.assert_same(*sorted_sides(smp.treated_scores,
                                                   smp.control_scores))

    def test_tenths_grid_cost(self):
        rng = np.random.default_rng(52)
        for _ in range(2000):
            k = int(rng.integers(1, 4))
            top = int(rng.integers(1, 12))
            c = rng.integers(0, top + 1, int(rng.integers(1, 12))) / 10
            t = rng.integers(0, top + 1, int(rng.integers(1, k * c.size + 1))) / 10
            t, c = sorted_sides(t, c, k)
            used = level_used(t, c)
            assert np.count_nonzero(used) == t.size
            assert used_cost(t, c, used) == pytest.approx(
                used_cost(t, c, _sweep_used(t, c)), abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_empty_surplus(self, k):
        rng = np.random.default_rng(k)
        t, c = sorted_sides(rng.random(4 * k), rng.random(4), k)
        assert level_used(t, c).all()
        self.assert_same(t, c)

    def test_no_down_crossing(self):
        # every control lies below every treated unit, so each level is
        # crossed once, upward, and the lowest controls stay unused
        t, c = np.array([5.0, 6.0]), np.arange(4.0)
        assert level_used(t, c).tolist() == [False, False, True, True]
        self.assert_same(t, c)


class TestRowBlocks:
    """`match_rows` matches each row of a block as the level solver
    matches the row alone, ties included (on these inputs bit for bit,
    near-grid scores included)."""

    @staticmethod
    def assert_rows_as_alone(scores, treated, k):
        m, n = scores.shape
        t, c = mt.match_rows(scores, treated, k)
        assert np.array_equal(t, np.flatnonzero(treated))
        mate = dict(zip(t.tolist(), c.tolist()))
        for i in range(m):
            tp, cp = np.flatnonzero(treated[i]), np.flatnonzero(~treated[i])
            t_order = np.argsort(scores[i][tp], kind="stable")
            c_order = np.argsort(scores[i][cp], kind="stable")
            t_sorted, c_sorted = scores[i][tp][t_order], scores[i][cp][c_order]
            used = level_used(t_sorted, np.repeat(c_sorted, k)).nonzero()[0]
            want = np.empty(tp.size, dtype=np.intp)
            want[t_order] = cp[c_order[used // k]]
            assert [mate[i * n + j] - i * n for j in tp] == want.tolist(), f"row {i}"

    def test_rows_solved_together_as_alone(self):
        rng = np.random.default_rng(61)
        for trial in range(400):
            n, m, k = int(rng.choice([2, 5, 30, 100])), int(rng.integers(1, 9)), int(rng.integers(1, 4))
            scores = rng.random((m, n))
            if trial % 2:  # near a grid of eighths, where rounding can tie costs
                scores = np.round(scores * 40) / 8 + rng.random((m, n)) * 1e-12
            treated = rng.random((m, n)) < rng.random((m, 1))
            n1 = treated.sum(axis=1)
            keep = (n1 > 0) & (n1 <= k * (n - n1))
            self.assert_rows_as_alone(scores[keep], treated[keep], k)

    @pytest.mark.parametrize("k", [1, 2])
    def test_a_row_does_not_round_with_the_row_before(self, k):
        # Rows of scores spread over 1e9 with a few levels (2 to 8 at k = 1)
        # alternate with rows offset by 1e6 on a grid of 2**-33, the spacing
        # of floats there, with 0 to 56 levels (15 to 114 at k = 2). A wide
        # row's running sum ends far from zero; carried into the next row it
        # would round that row's tied costs apart, and a cumsum down the
        # columns would mix the rows. Rows of surplus 0, which have no
        # levels, open and close the block.
        n, full = 60, 60 * k // (k + 1)
        rng = np.random.default_rng(3)
        wide_grid = [(full - 2, 2), (full - 3, 30), (full - 1, 10), (full - 4, full - 5),
                     (full - 2, 20), (full - 1, 5)]
        n1 = [full, *(x for pair in wide_grid for x in pair), full]
        treated = np.array([rng.permutation(n) < t for t in n1])
        wide = rng.random((len(n1), n)) * 1e9
        grid = 1e6 + np.array([rng.permutation(3 * n)[:n] for _ in n1]) * 2.0 ** -33
        scores = np.where(np.arange(len(n1))[:, None] % 2 == 1, wide, grid)
        self.assert_rows_as_alone(scores, treated, k)

    @pytest.mark.parametrize("k, n", [(1, 799), (1, 800), (2, 480)])
    def test_tied_rows_are_solved(self, k, n):
        # two or three score values: every row holds ties, within each arm
        # and across them. N1 + k * N0 is n at k = 1; at k = 2 it runs from
        # about 740 to 860
        rng = np.random.default_rng(29)
        treated = rng.random((12, n)) < np.linspace(0.2, 0.45, 12)[:, None]
        scores = rng.integers(0, np.arange(2, 14) % 2 + 2, (n, 12)).T / 4
        self.assert_rows_as_alone(scores, treated, k)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("n", [3, 10, 100, 799, 800])
    def test_tied_row_takes_the_per_sample_controls(self, n, k):
        # the re-sorted row's pairs are those `match_scores` gives the
        # sample alone, where `_exact_match` sorts controls first on equal
        # scores and then by position
        rng = np.random.default_rng(8)
        s = rng.integers(0, 3, n) / 2
        s[-1] = s[0]  # a tie at every size
        w = rng.permutation(n) < max(1, 2 * n // 5)
        t, c = mt.match_rows(s[None], w[None], k)
        method = "exact" if k == 1 else "capacitated"
        m = mt.match_scores(s[w], s[~w], method, mt.MatchConfig(capacity=k))
        assert np.array_equal(t, np.flatnonzero(w))
        assert np.array_equal(c, np.flatnonzero(~w)[m.pair_arrays()[1]])

    @pytest.mark.parametrize("block", ["80 rows", "T, T, C"])
    def test_rows_without_a_matching_are_refused(self, block):
        if block == "80 rows":  # row 37 has N1 = 52 > N0 = 48
            rng = np.random.default_rng(4)
            scores = rng.random((80, 100))
            treated = np.arange(100) < np.where(np.arange(80) == 37, 52, 40)[:, None]
            row = "row 37 of match_rows has N1 = 52 treated units and k \\* N0 = 48 "
        else:
            scores = np.array([[0.1, 0.2, 0.3]])
            treated = np.array([[True, True, False]])
            row = "row 0 of match_rows has N1 = 2 treated units and k \\* N0 = 1 "
        with pytest.raises(ValueError, match=row):
            mt.match_rows(scores, treated)
        with pytest.raises(ValueError, match="row 0 of match_rows has N1 = 0 "):
            mt.match_rows(scores[:1], np.zeros_like(treated[:1]))

    @staticmethod
    def every_control_used(xs, is_c, starts):
        return is_c.copy()

    @staticmethod
    def last_row_flags_its_treated_unit(xs, is_c, starts, rows_used=mt._rows_used):
        """The solver's flags, but the last row's first used control
        handing its flag to the row's first treated unit."""
        used = rows_used(xs, is_c, starts)
        last = starts[-1]
        used[last + used[last:].argmax()] = False
        used[last + is_c[last:].argmin()] = True
        return used

    @pytest.mark.parametrize("rows_used, marked", [
        # right on row 0, whose surplus is 0, not on row 1
        ("every_control_used", 3),
        # N1 flags on row 1, one of them on a treated unit
        ("last_row_flags_its_treated_unit", 1),
    ])
    def test_broken_solver_names_the_row(self, monkeypatch, rows_used, marked):
        monkeypatch.setattr(mt, "_rows_used", getattr(self, rows_used))
        scores = np.array([[0.1, 0.2, 0.3, 0.4], [0.1, 0.2, 0.3, 0.4]])
        treated = np.array([[True, False, True, False], [True, False, False, False]])
        with pytest.raises(mt.SolverError,
                           match=f"marked {marked} units used, not the N1 = 1 ") as exc:
            mt.match_rows(scores, treated)
        assert exc.value.row == 1


class TestWithReplacement:
    def test_shared_nearest_control(self):
        m = mt.match_with_replacement([0.5, 0.5], [0.49, 0.9])
        assert m.pairs == {0: 0, 1: 0}
        assert not m.injective
        assert m.total_cost == pytest.approx(0.02)

    def test_single_treated_agrees_with_exact(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            t = rng.random(1)
            c = rng.random(int(rng.integers(1, 8)))
            wr = mt.match_with_replacement(t, c)
            ex = mt.match_optimal_exact(t, c)
            assert wr.total_cost == pytest.approx(ex.total_cost, abs=1e-12)

    def test_cost_never_exceeds_without_replacement(self):
        rng = np.random.default_rng(33)
        for _ in range(300):
            t, c = random_instance(rng)
            wr = mt.match_with_replacement(t, c)
            ex = mt.match_optimal_exact(t, c)
            assert wr.total_cost <= ex.total_cost + 1e-12

    def test_tie_goes_to_lower_score_then_index(self):
        # 0.5 is equidistant from 0.4 and 0.6: lower score wins
        m = mt.match_with_replacement([0.5], [0.6, 0.4])
        assert m.pairs == {0: 1}
        # equal scores: lower original position wins
        m = mt.match_with_replacement([0.5], [0.4, 0.4])
        assert m.pairs == {0: 0}

    def test_rejects_empty_controls(self):
        with pytest.raises(mt.MatchingError):
            mt.match_with_replacement([0.5], [])

    def test_injective_is_computed_from_the_controls(self):
        # 0.5 and 0.6 both take 0.49; the caliper drops the 0.11 gap
        t, c = [0.5, 0.6], [0.49, 0.9]
        reused = mt.match_with_replacement(t, c)
        assert reused.pairs == {0: 0, 1: 0} and not reused.injective
        distinct = mt.match_with_replacement([0.1, 0.9], [0.12, 0.88])
        assert distinct.pairs == {0: 0, 1: 1} and distinct.injective
        kept, dropped = mt.apply_caliper(reused, t, c, 0.05)
        assert kept.pairs == {0: 0} and dropped == {1} and kept.injective
        assert not mt.has_crossing(kept, t, c)

    def test_tie_rule_against_brute_force(self):
        # quarter-grid draws: tied scores sit at shuffled control positions
        rng = np.random.default_rng(41)
        grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        for _ in range(300):
            t = rng.choice(grid, int(rng.integers(1, 10)))
            c = rng.choice(grid, int(rng.integers(1, 12)))
            m = mt.match_with_replacement(t, c)
            expect = {i: min(range(c.size), key=lambda j: (abs(x - c[j]), c[j], j))
                      for i, x in enumerate(t)}
            assert m.pairs == expect
            assert m.injective == (len(set(expect.values())) == t.size)


def replacement_caliper_stage(smp, t, c):
    """The with-replacement pipeline of a caliper cell on sample smp, whose
    treated and control scores are t and c: the match, its caliper split at
    1e-4 and the caliper estimate."""
    m = mt.match_scores(t, c, "replacement")
    kept, dropped = mt.apply_caliper(m, t, c, 1e-4)
    return m, kept, dropped, estimators.att_caliper(smp, kept)


class TestReplacementBitPins:
    """`replacement` and what a caliper cell does with it, bit for bit.

    One SHA-256 per sample: the control position of each treated unit, as
    8 little-endian bytes, and `total_cost.hex()`; the treated positions
    that a caliper of 1e-4 retains and those it drops (on the prognostic
    samples it drops 97%, 84% and 27% of the pairs at n = 100, 2000 and
    20,000); and the 8 bytes of the caliper estimate. Every score of the
    categorical spec is tied.
    """

    @pytest.mark.parametrize("spec, n, digest", [
        pytest.param(spec, n, digest, id=f"{name}-{n}")
        for name, spec, digests in [
            ("prognostic_third", population.make_prognostic_spec(1 / 3), [
                "8b7aba6f90c8c99114e9f135f0cdd95b65fd4d507fc53c9f506c70c2c9c0cbd7",
                "653d4f6077e2957f81da16b1f310139f86d5a22bf6f17562f184bd2db66e0aec",
                "01b7fee85f32bda1c042ec4cce3d96a38b1416347898690057c70e015395b1fc"]),
            ("categorical_noise",
             population.make_categorical_spec(0.1, 0.75, 0.3, noise_sd=1.0), [
                 "8012b6ff7a449c3321714385ca7ff2cf40e63b450d2dd9579a44a246443da03a",
                 "b463170e34fa127e4cf1693ab3ab545178b9e10ed68cadea48c78a06018322af",
                 "9ff5c1c13a0c6931b0986eb59f22822acb49aa6db8386937dfad5dce78126012"]),
        ] for n, digest in zip((100, 2000, 20_000), digests)])
    def test_digest(self, spec, n, digest):
        smp = population.sample(spec, n, 7)
        m, kept, dropped, est = replacement_caliper_stage(
            smp, smp.treated_scores, smp.control_scores)
        h = hashlib.sha256()
        h.update(m.pairs.control.astype("<i8").tobytes())
        h.update(m.total_cost.hex().encode())
        h.update(kept.pairs.treated.astype("<i8").tobytes())
        h.update(np.array(sorted(dropped), dtype="<i8").tobytes())
        h.update(np.array(est.value, dtype="<f8").tobytes())
        assert h.hexdigest() == digest


class TestReplacementWorkingSet:
    """The tracemalloc peak of `replacement_caliper_stage` at n = 1e5.

    Sized on numpy 2.4.6: the stage peaked at 4.98 MB while the matcher
    copied the distinct control scores of every sample, tied or not, and
    at 2.54 MB with those copies made only on a tie and the gaps computed
    in place. The matcher sets the peak, not the caliper or the estimate.
    """

    STAGE_PEAK_MB = 3.5

    def test_stage_peak_at_n_1e5(self):
        smp = population.sample(population.make_prognostic_spec(1 / 3), 100_000, 7)
        # the arms' scores are gathered, and their indices cached, untraced
        t, c = smp.treated_scores, smp.control_scores
        tracemalloc.start()
        try:
            replacement_caliper_stage(smp, t, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 1e6 <= self.STAGE_PEAK_MB


class TestCapacitated:
    def test_k1_equals_exact(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            t, c = random_instance(rng)
            cap = mt.match_capacitated(t, c, 1)
            ex = mt.match_optimal_exact(t, c)
            assert cap.total_cost == pytest.approx(ex.total_cost, abs=1e-12)
            assert cap.pairs == ex.pairs

    def test_k_equal_n1_equals_with_replacement_cost(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            t, c = random_instance(rng)
            cap = mt.match_capacitated(t, c, t.size)
            wr = mt.match_with_replacement(t, c)
            assert cap.total_cost == pytest.approx(wr.total_cost, abs=1e-12)

    def test_spec_example(self):
        # both treated share the close control once capacity allows it
        m = mt.match_capacitated([0.4, 0.5], [0.45, 0.9], 2)
        assert m.pairs == {0: 0, 1: 0}
        assert m.total_cost == pytest.approx(0.10)

    def test_cost_monotone_in_capacity(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            t, c = random_instance(rng)
            costs = [mt.match_capacitated(t, c, k).total_cost
                     for k in range(1, t.size + 2)]
            assert all(costs[i + 1] <= costs[i] + 1e-12
                       for i in range(len(costs) - 1))

    def test_respects_capacity(self):
        rng = np.random.default_rng(16)
        for k in (1, 2, 3):
            t, c = rng.random(6), rng.random(3)
            if t.size > k * c.size:
                continue
            m = mt.match_capacitated(t, c, k)
            counts = np.bincount(list(m.pairs.values()), minlength=c.size)
            assert counts.max() <= k

    def test_rejects_insufficient_capacity(self):
        with pytest.raises(mt.MatchingError):
            mt.match_capacitated([0.1, 0.2, 0.3], [0.5], 2)

    def test_refusal_states_n1_and_k_n0(self):
        with pytest.raises(mt.MatchingError) as exc:
            mt.match_capacitated([0.1, 0.2, 0.3, 0.4, 0.6], [0.5, 0.7], 2)
        msg = str(exc.value)
        assert "N1 = 5" in msg and "k * N0 = 4" in msg
        assert "without replacement" not in msg


class TestFeasibility:
    """Every matcher raises InfeasibleError exactly when no matching exists."""

    @pytest.mark.parametrize("match, t, c", [
        (mt.match_optimal_exact, [], [0.1]),
        (mt.match_optimal_exact, [0.1, 0.2], [0.1]),
        (lambda t, c: mt.match_banded(t, c, 0), [], [0.1, 0.2]),
        (lambda t, c: mt.match_banded(t, c, 0), [0.1, 0.2], [0.1]),
        (lambda t, c: mt.match_capacitated(t, c, 1), [0.1, 0.2], [0.1]),
        (lambda t, c: mt.match_capacitated(t, c, 2), [0.1, 0.2, 0.3], [0.5]),
        (mt.match_with_replacement, [], [0.1]),
        (mt.match_with_replacement, [0.5], []),
        (mt.match_with_replacement, [], []),
        (mt.brute_force_match, [], [0.1]),
        (mt.brute_force_match, [0.1, 0.2], [0.3]),
    ], ids=["exact-no-treated", "exact-surplus", "banded-no-treated",
            "banded-surplus", "capacitated-k1", "capacitated-k2",
            "replacement-no-treated", "replacement-no-controls",
            "replacement-empty", "brute-force-no-treated",
            "brute-force-surplus"])
    def test_no_matching_is_infeasible(self, match, t, c):
        with pytest.raises(mt.InfeasibleError):
            match(t, c)

    def test_band_refusal_is_not_infeasible(self):
        with pytest.raises(mt.BandError) as exc:
            mt.match_banded([0.5], [0.1, 0.2, 0.3], 0)
        assert not isinstance(exc.value, mt.InfeasibleError)


# (N1, N0) at the edges of the one rule, for k in {1, 2} and a band of 2:
# N1 = 0, N0 = 0, N1 = k * N0, N1 = k * N0 + 1, N0 - N1 = band, band + 1
RULE_BAND = 2
RULE_EDGES = [(0, 3), (2, 0), (0, 0), (3, 3), (4, 3), (6, 3), (7, 3), (2, 4), (2, 5)]


class TestOneRule:
    """`capacity`, `feasible` and `band_refuses` are the rules every matcher
    and `match_rows` apply: each is true exactly where they refuse."""

    @pytest.mark.parametrize("method, k", [
        ("exact", 1), ("banded", 1), ("capacitated", 1), ("capacitated", 2),
        ("replacement", None)])
    def test_per_sample_matchers_follow_the_rule(self, method, k):
        cfg = mt.MatchConfig(band=RULE_BAND, capacity=k or 5)
        assert mt.capacity(method, cfg) == k
        rng = np.random.default_rng(5)
        for n1, n0 in RULE_EDGES:
            infeasible = refused = False
            try:
                mt.match_scores(rng.random(n1), rng.random(n0), method, cfg)
            except mt.InfeasibleError:
                infeasible = True
            except mt.BandError:
                refused = True
            assert infeasible == (not mt.feasible(n1, n0, k)), (n1, n0)
            assert refused == (method == "banded"
                               and mt.band_refuses(n1, n0, RULE_BAND)), (n1, n0)

    @pytest.mark.parametrize("k, want", [
        (1, "---+---++"), (2, "---+++-++"), (None, "---++++++")],
        ids=["k1", "k2", "any"])
    def test_rules_are_elementwise(self, k, want):
        n1, n0 = np.array(RULE_EDGES).T
        assert mt.feasible(n1, n0, k).tolist() == [c == "+" for c in want]
        assert [bool(mt.feasible(a, b, k)) for a, b in RULE_EDGES] == [
            c == "+" for c in want]
        refused = [False] * 8 + [True]  # only N0 - N1 = band + 1
        assert mt.band_refuses(n1, n0, RULE_BAND).tolist() == refused
        assert [bool(mt.band_refuses(a, b, RULE_BAND)) for a, b in RULE_EDGES] == refused

    @pytest.mark.parametrize("k", [1, 2])
    def test_match_rows_refuses_the_rows_feasible_rejects(self, k):
        rng = np.random.default_rng(6)
        for n1, n0 in RULE_EDGES:
            scores = rng.random((1, n1 + n0))
            treated = np.arange(n1 + n0)[None] < n1
            if mt.feasible(n1, n0, k):
                mt.match_rows(scores, treated, k)
            else:
                with pytest.raises(ValueError, match="row 0 of match_rows"):
                    mt.match_rows(scores, treated, k)
        # in a block, the first row feasible rejects is named
        n1 = np.array([2, 3, 0, 5, 6])
        treated = np.arange(6) < n1[:, None]
        first = int((~mt.feasible(n1, 6 - n1, k)).argmax())
        with pytest.raises(ValueError, match=f"row {first} of match_rows"):
            mt.match_rows(rng.random((5, 6)), treated, k)


class TestMatchingRepresentation:
    @staticmethod
    def check(m, expect):
        tp, cp = m.pair_arrays()
        assert tp.dtype == cp.dtype == np.intp
        assert not tp.flags.writeable and not cp.flags.writeable
        assert np.all(np.diff(tp) > 0)
        assert dict(zip(tp.tolist(), cp.tolist())) == expect
        assert m.pairs == expect and dict(m.pairs) == expect
        assert list(m.pairs) == sorted(expect)

    def test_from_dict(self):
        m = mt.Matching(pairs={2: 0, 0: 3, 1: 1}, total_cost=0.0,
                        method="exact_dp")
        self.check(m, {0: 3, 1: 1, 2: 0})
        assert m.pairs[0] == 3 and 5 not in m.pairs and m.pairs.get(5) is None
        with pytest.raises(TypeError):
            m.pairs[0] = 1
        with pytest.raises(ValueError):
            m.pair_arrays()[1][0] = 9
        self.check(mt.Matching(pairs={}, total_cost=0.0, method="exact_dp"), {})

    def test_matcher_output(self):
        rng = np.random.default_rng(6)
        t, c = rng.random(7), rng.random(12)
        cfg = mt.MatchConfig(band=5, capacity=2)
        for method in mt.METHODS:
            m = mt.match_scores(t, c, method, cfg)
            pairs = dict(m.pairs)
            self.check(m, pairs)
            assert sorted(pairs) == list(range(t.size))
            assert mt.Matching(pairs=pairs, total_cost=m.total_cost,
                               method=m.method) == m
            kept, dropped = mt.apply_caliper(m, t, c, 0.05)
            self.check(kept, {i: j for i, j in pairs.items() if i not in dropped})

    def test_replace_with_tampered_pairs(self):
        # the swap of the extreme treated units' controls must reach pair_arrays
        rng = np.random.default_rng(5)
        t, c = rng.random(6), rng.random(9)
        m = mt.match_optimal_exact(t, c)
        lo, hi = int(np.argmin(t)), int(np.argmax(t))
        pairs = dict(m.pairs)
        pairs[lo], pairs[hi] = pairs[hi], pairs[lo]
        tampered = replace(m, pairs=pairs)
        self.check(tampered, pairs)
        assert tampered.pairs != m.pairs
        assert not mt.has_crossing(m, t, c) and mt.has_crossing(tampered, t, c)


class TestBruteForce:
    def test_guard(self):
        rng = np.random.default_rng(1)
        with pytest.raises(mt.MatchingError):
            mt.brute_force_match(rng.random(3), rng.random(11))

    def test_single_pair(self):
        m = mt.brute_force_match([0.3], [0.8])
        assert m.pairs == {0: 0}
        assert m.total_cost == pytest.approx(0.5)

    def test_identical_lists_zero_cost(self):
        scores = [0.2, 0.5, 0.9]
        m = mt.brute_force_match(scores, scores)
        assert m.total_cost == 0.0


class TestCrossing:
    def test_definition_example(self):
        # treated (0.2, 0.6) matched to controls (0.7, 0.1):
        # max(0.2, 0.1) < min(0.6, 0.7) so the matches cross
        m = mt.Matching(pairs={0: 0, 1: 1}, total_cost=1.0,
                        method="exact_dp")
        assert mt.has_crossing(m, [0.2, 0.6], [0.7, 0.1])

    def test_order_preserving_never_crosses(self):
        m = mt.Matching(pairs={0: 0, 1: 1}, total_cost=0.2,
                        method="exact_dp")
        assert not mt.has_crossing(m, [0.2, 0.6], [0.1, 0.7])

    def test_matching_that_reuses_a_control_is_refused(self):
        m = mt.Matching(pairs={0: 0, 1: 0}, total_cost=0.5, method="with_replacement")
        with pytest.raises(ValueError) as exc:
            mt.has_crossing(m, [0.2, 0.6], [0.4])
        assert str(exc.value) == "crossing check is defined for injective matchings"

    def test_empty_matching_never_crosses(self):
        t, c = [0.1, 0.6], [0.2, 0.9]
        kept, _ = mt.apply_caliper(mt.match_optimal_exact(t, c), t, c, 1e-9)
        assert not kept.pairs
        assert mt.has_crossing(kept, t, c) is False

    def test_optimal_output_never_crosses(self):
        rng = np.random.default_rng(77)
        for _ in range(500):
            n1 = int(rng.integers(1, 30))
            n0 = int(rng.integers(n1, 60))
            t, c = rng.random(n1), rng.random(n0)
            m = mt.match_optimal_exact(t, c)
            assert not mt.has_crossing(m, t, c)

    def test_sweep_agrees_with_quadratic_oracle(self):
        rng = np.random.default_rng(88)
        for tied in (False, True):  # tied: scores on the quarter grid 0, 0.25, ..., 1
            draw = (lambda k: rng.integers(0, 5, k) / 4) if tied else rng.random
            for _ in range(400):
                n1 = int(rng.integers(1, 12))
                n0 = int(rng.integers(n1, 20))
                t, c = draw(n1), draw(n0)
                # random injective matching, usually suboptimal
                perm = rng.permutation(n0)[:n1]
                m = mt.Matching(pairs={i: int(j) for i, j in enumerate(perm)},
                                total_cost=0.0, method="exact_dp")
                assert mt.has_crossing(m, t, c) == has_crossing_quadratic(m, t, c)


class TestCaliper:
    def test_infinite_caliper_keeps_all(self):
        t, c = [0.1, 0.6], [0.11, 0.9]
        m = mt.match_optimal_exact(t, c)
        kept, dropped = mt.apply_caliper(m, t, c, np.inf)
        assert kept.pairs == m.pairs and dropped == set()

    def test_tiny_caliper_drops_all(self):
        t, c = [0.1, 0.6], [0.2, 0.9]
        m = mt.match_optimal_exact(t, c)
        kept, dropped = mt.apply_caliper(m, t, c, 1e-9)
        assert kept.pairs == {} and dropped == {0, 1}

    def test_threshold_splits_pairs(self):
        t, c = [0.1, 0.6], [0.11, 0.9]
        m = mt.match_optimal_exact(t, c)
        kept, dropped = mt.apply_caliper(m, t, c, 0.1)
        assert set(kept.pairs) == {0} and dropped == {1}
        assert kept.total_cost == pytest.approx(0.01)

    def test_rejects_nonpositive(self):
        m = mt.Matching(pairs={}, total_cost=0.0, method="exact_dp")
        with pytest.raises(ValueError):
            mt.apply_caliper(m, [], [], 0.0)


class TestPermutationInvariance:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0, 1, width=32), min_size=1, max_size=6),
           st.lists(st.floats(0, 1, width=32), min_size=6, max_size=10),
           st.randoms(use_true_random=False))
    def test_cost_invariant_under_permutation(self, t, c, rnd):
        t, c = np.asarray(t), np.asarray(c)
        base = mt.match_optimal_exact(t, c).total_cost
        tp = list(range(t.size))
        cp = list(range(c.size))
        rnd.shuffle(tp)
        rnd.shuffle(cp)
        shuffled = mt.match_optimal_exact(t[tp], c[cp]).total_cost
        assert shuffled == pytest.approx(base, abs=1e-12)


class TestDispatchAndIO:
    def test_default_is_exact(self):
        rng = np.random.default_rng(2)
        t, c = rng.random(10), rng.random(25)
        m = mt.match_scores(t, c)
        assert m.method == "exact"
        assert m == mt.match_scores(t, c, "exact")

    def test_unknown_method(self):
        for method in ("hungarian", "auto"):
            with pytest.raises(ValueError, match="unknown matching method"):
                mt.match_scores([0.1], [0.2], method)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            mt.MatchConfig(band=-1)
        with pytest.raises(ValueError):
            mt.MatchConfig(capacity=0)
        with pytest.raises(ValueError):
            mt.MatchConfig(caliper=0.0)
        for bad in ({"capacity": 1.5}, {"band": 40.5}, {"capacity": True},
                    {"band": True}, {"caliper": True}, {"caliper": "0.1"}):
            with pytest.raises(ValueError):
                mt.MatchConfig(**bad)
        cfg = mt.MatchConfig(band=np.int64(5), capacity=np.int32(2),
                             caliper=np.float64(0.1))
        assert (cfg.band, cfg.capacity, cfg.caliper) == (5, 2, 0.1)
        # a whole float, as JSON writes 4e1, is the int it names
        cfg = mt.MatchConfig(band=40.0, capacity=2.0)
        assert cfg.band == 40 and type(cfg.band) is int and type(cfg.capacity) is int

    def test_pairs_csv(self):
        # the pairs and cost that `matchbias match` writes to its two CSVs
        t, c = [0.1, 0.6], [0.12, 0.58]
        m = mt.match_optimal_exact(t, c)
        assert m.method == "exact"
        assert dict(m.pairs) == {0: 0, 1: 1}
        assert m.total_cost == pytest.approx(0.04)
