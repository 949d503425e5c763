"""Exact finite-n expectations for two-atom populations, against the lab.

A categorical population puts each unit on atom a (score p_in_a, with
probability mass_a) or atom b (score p_out), and treats it with the atom's
score as its probability. A unit then falls in one of four (atom, arm)
classes, so the counts (T_a, C_a, T_b, C_b) are multinomial: the atom count
N_a is Binomial(n, mass_a), and given it T_a ~ Binomial(N_a, p_in_a) and
T_b ~ Binomial(n - N_a, p_out) independently.

Given the counts, every min-cost matching without replacement pairs each
treated unit with a control of its own atom while they last, so it makes
exactly max(0, T_a - C_a) + max(0, T_b - C_b) cross-atom pairs (with
N1 <= N0 at most one atom overflows). Which controls of an atom are taken
does not move the mean, and the noise has mean zero given the counts, so
with m = E[estimate | counts]

    N1 m = T_a mu1_a + T_b mu1_b
           - mu0_a (min(T_a, C_a) + over_b) - mu0_b (min(T_b, C_b) + over_a),

where over_x = max(0, T_x - C_x). Every pair's noise is independent
(controls are used once), so Var(estimate | counts) = (sd0^2 + sd1^2) / N1.
N1 = 0 or N1 > N0 gives the estimate 0 and counts as degenerate (the zero
convention); the error is the estimate minus spec.tau_att_true, as in
run_cell. `replacement_error_moments` gives the same three numbers for
matching with replacement. The `exact` and `replacement` methods are
covered here.
"""

import itertools
import math
from typing import NamedTuple

import numpy as np
import pytest

from matchbias import population as pop
from matchbias import simulation as sim


class Case(NamedTuple):
    mass_a: float
    p_in_a: float
    p_out: float
    noise_sd: float
    mu0_in: float = 1.0
    mu0_out: float = 0.0
    mu1_in: float = 0.0
    mu1_out: float = 0.0

    def spec(self):
        return pop.make_categorical_spec(**self._asdict())


CASES = {
    "upper-atom-0.75": Case(0.1, 0.75, 0.3, 1.0),
    "upper-atom-0.9": Case(0.2, 0.9, 0.2, 0.0),
    "knife-edge": Case(0.5, 0.6, 0.4, 1.0),
    # the paper's two conditions for a zero limit: no atom above one half,
    # and no confounding above it
    "no-atom-above-half": Case(0.3, 0.45, 0.3, 1.0, mu1_in=2.0, mu1_out=2.0),
    "unconfounded": Case(0.2, 0.9, 0.2, 0.0, mu0_in=0.0, mu1_in=2.0, mu1_out=2.0),
}

# The lab comparison, fixed before its first run: each cell runs REPS
# replications of run_cell(spec, n, REPS, SEED, "exact"), and its emp_bias
# must lie within Z standard errors sqrt(Var(error) / REPS) of the exact
# mean error, its degenerate share within Z binomial standard errors of the
# exact share; both standard errors come from the oracle. A `replacement`
# cell runs the per-sample pipeline, so it runs REPLACEMENT_REPS
# replications, on the three cases with an atom above one half.
REPS, SEED, Z = 20_000, 2019, 4.0
REPLACEMENT_REPS = 10_000
REPLACEMENT_CASES = ("upper-atom-0.75", "upper-atom-0.9", "knife-edge")


def _log_binom_pmf(k, p, log_fact):
    """log Pr(Binomial(k, p) = j) for j = 0..k, for 0 < p < 1."""
    j = np.arange(k + 1)
    return (log_fact[k] - log_fact[j] - log_fact[k - j]
            + j * math.log(p) + (k - j) * math.log1p(-p))


def _error_moments(case: Case, n: int, given_counts) -> tuple[float, float, float]:
    """(E[error], Var(error), Pr(degenerate)) of one replication at n, from
    given_counts(t_a, c_a, t_b, c_b) -> (mean, variance, degenerate), the
    estimate's moments given the counts, on broadcast count arrays."""
    tau = case.spec().tau_att_true
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, n + 1)))])
    log_na = _log_binom_pmf(n, case.mass_a, log_fact)
    mean = second = degenerate = 0.0
    for na in range(n + 1):
        t_a = np.arange(na + 1)[:, None]
        t_b = np.arange(n - na + 1)[None, :]
        m, var, deg = given_counts(t_a, na - t_a, t_b, n - na - t_b)
        w = np.exp(log_na[na] + _log_binom_pmf(na, case.p_in_a, log_fact)[:, None]
                   + _log_binom_pmf(n - na, case.p_out, log_fact)[None, :])
        mean += float(np.sum(w * (m - tau)))
        second += float(np.sum(w * ((m - tau) ** 2 + var)))
        degenerate += float(np.sum(w * deg))
    return mean, second - mean ** 2, degenerate


def exact_error_moments(case: Case, n: int) -> tuple[float, float, float]:
    """(E[error], Var(error), Pr(degenerate)) of one `exact` replication at n."""
    noise_var = 2.0 * case.noise_sd ** 2

    def given_counts(t_a, c_a, t_b, c_b):
        n1 = t_a + t_b
        deg = (n1 == 0) | (n1 > c_a + c_b)
        over_a, over_b = np.maximum(t_a - c_a, 0), np.maximum(t_b - c_b, 0)
        total = (t_a * case.mu1_in + t_b * case.mu1_out
                 - case.mu0_in * (np.minimum(t_a, c_a) + over_b)
                 - case.mu0_out * (np.minimum(t_b, c_b) + over_a))
        per = np.maximum(n1, 1)
        return (np.where(deg, 0.0, total / per),
                np.where(deg, 0.0, noise_var / per), deg)

    return _error_moments(case, n, given_counts)


def replacement_error_moments(case: Case, n: int) -> tuple[float, float, float]:
    """(E[error], Var(error), Pr(degenerate)) of one `replacement`
    replication at n.

    Each treated unit takes its nearest control, ties to the lower score
    and then the lower position. So every treated unit of an atom takes
    that atom's lowest-position control when the atom has a control, and
    the other atom's lowest-position control when it has none, and one
    control absorbs all the treated units it serves. Given the counts, with
    s^2 the noise variance of either arm:

    - N1 = 0 or N0 = 0: the estimate is 0, degenerate;
    - C_a > 0 and C_b > 0: N1 m = T_a (mu1_a - mu0_a) + T_b (mu1_b - mu0_b),
      and Var = s^2 / N1 + s^2 (T_a^2 + T_b^2) / N1^2;
    - C_a = 0: N1 m = T_a mu1_a + T_b mu1_b - N1 mu0_b, and
      Var = s^2 / N1 + s^2;
    - C_b = 0: N1 m = T_a mu1_a + T_b mu1_b - N1 mu0_a, and
      Var = s^2 / N1 + s^2.

    Each variance is s^2 / N1 + s^2 sum_u (count_u / N1)^2 over the used
    controls u, since a control's noise enters the estimate once for each
    treated unit it absorbs.
    """
    s2 = case.noise_sd ** 2

    def given_counts(t_a, c_a, t_b, c_b):
        n1 = t_a + t_b
        deg = (n1 == 0) | (c_a + c_b == 0)
        per = np.maximum(n1, 1)
        treated = t_a * case.mu1_in + t_b * case.mu1_out
        own = t_a * case.mu0_in + t_b * case.mu0_out
        control = np.where(c_a == 0, n1 * case.mu0_out,
                           np.where(c_b == 0, n1 * case.mu0_in, own))
        shared = np.where((c_a == 0) | (c_b == 0), 1.0, (t_a ** 2 + t_b ** 2) / per ** 2)
        return (np.where(deg, 0.0, (treated - control) / per),
                np.where(deg, 0.0, s2 / per + s2 * shared), deg)

    return _error_moments(case, n, given_counts)


def _brute_force_moments(case: Case, n: int, given_sample) -> tuple[float, float, float]:
    """(E[error], Var(error), Pr(degenerate)) over every sequence of n
    (atom, arm) classes, from given_sample(treated, controls) -> (mean,
    variance) of the estimate on that sample, or None when it is degenerate."""
    tau = case.spec().tau_att_true
    classes = [  # (score, treated, mu0, mu1, probability)
        (case.p_in_a, True, case.mu0_in, case.mu1_in, case.mass_a * case.p_in_a),
        (case.p_in_a, False, case.mu0_in, case.mu1_in, case.mass_a * (1 - case.p_in_a)),
        (case.p_out, True, case.mu0_out, case.mu1_out, (1 - case.mass_a) * case.p_out),
        (case.p_out, False, case.mu0_out, case.mu1_out,
         (1 - case.mass_a) * (1 - case.p_out)),
    ]
    mean = second = degenerate = 0.0
    for units in itertools.product(classes, repeat=n):
        prob = math.prod(u[4] for u in units)
        moments = given_sample([u for u in units if u[1]], [u for u in units if not u[1]])
        if moments is None:
            mean += prob * (0.0 - tau)
            second += prob * tau ** 2
            degenerate += prob
            continue
        mean += prob * (moments[0] - tau)
        second += prob * ((moments[0] - tau) ** 2 + moments[1])
    return mean, second - mean ** 2, degenerate


def brute_force_error_moments(case: Case, n: int) -> tuple[float, float, float]:
    """exact_error_moments by enumeration: every sequence of n (atom, arm)
    classes, and on each every min-cost injective map of its treated units
    to its controls, all of which must give the same conditional mean."""
    noise_var = 2.0 * case.noise_sd ** 2

    def given_sample(treated, controls):
        if not treated or len(treated) > len(controls):
            return None
        by_cost = {}
        for chosen in itertools.permutations(controls, len(treated)):
            cost = sum(abs(t[0] - c[0]) for t, c in zip(treated, chosen))
            m = sum(t[3] - c[2] for t, c in zip(treated, chosen)) / len(treated)
            by_cost.setdefault(round(cost, 12), []).append(m)
        means = by_cost[min(by_cost)]
        assert max(means) - min(means) < 1e-12
        return means[0], noise_var / len(treated)

    return _brute_force_moments(case, n, given_sample)


def brute_force_replacement_moments(case: Case, n: int) -> tuple[float, float, float]:
    """replacement_error_moments by enumeration: on every sequence of n
    (atom, arm) classes each treated unit takes the control nearest to it,
    ties to the lower score and then the lower position, and the variance
    adds each control's noise once per treated unit it absorbs."""
    s2 = case.noise_sd ** 2

    def given_sample(treated, controls):
        if not treated or not controls:
            return None
        n1 = len(treated)
        taken = [min(range(len(controls)), key=lambda j: (
            abs(t[0] - controls[j][0]), controls[j][0], j)) for t in treated]
        m = sum(t[3] - controls[j][2] for t, j in zip(treated, taken)) / n1
        counts = [taken.count(j) for j in set(taken)]
        return m, s2 / n1 + s2 * sum((u / n1) ** 2 for u in counts)

    return _brute_force_moments(case, n, given_sample)


class TestOracle:
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("key", list(CASES))
    def test_matches_brute_force(self, key, n):
        got = exact_error_moments(CASES[key], n)
        want = brute_force_error_moments(CASES[key], n)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("key, n, value", [
        ("upper-atom-0.75", 20, 0.16320), ("upper-atom-0.75", 100, 0.14474),
        ("upper-atom-0.9", 20, 0.46518), ("upper-atom-0.9", 100, 0.46878),
        ("knife-edge", 20, 0.32538), ("knife-edge", 100, 0.35306),
    ])
    def test_reproduces_an_independent_prototype(self, key, n, value):
        # the exact column that ROADMAP item 19 records from a separate
        # implementation of the same sum
        assert round(exact_error_moments(CASES[key], n)[0], 5) == value

    @pytest.mark.parametrize("key, n, value", [
        ("no-atom-above-half", 100, 0.0250), ("unconfounded", 20, -0.0872)])
    def test_no_zero_at_finite_n_under_the_paper_conditions(self, key, n, value):
        # the limit is 0 under either condition, but an atom's overflow into
        # the other atom and the zero convention move the mean at finite n
        assert round(exact_error_moments(CASES[key], n)[0], 4) == value


class TestReplacementOracle:
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("key", list(CASES))
    def test_matches_brute_force(self, key, n):
        got = replacement_error_moments(CASES[key], n)
        want = brute_force_replacement_moments(CASES[key], n)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-14)


def assert_cell_near(case, n, method, reps, moments):
    mean, var, degenerate = moments
    row = sim.run_cell(case.spec(), n, reps, SEED, method)
    assert row.reps_done == reps and row.note == ""
    assert abs(row.emp_bias - mean) <= Z * math.sqrt(var / reps)
    share_se = math.sqrt(degenerate * (1.0 - degenerate) / reps)
    assert abs(row.degenerate_count / reps - degenerate) <= Z * share_se


class TestLabAgainstOracle:
    @pytest.mark.parametrize("n", [20, 100])
    @pytest.mark.parametrize("key", list(CASES))
    def test_exact_method(self, key, n):
        assert_cell_near(CASES[key], n, "exact", REPS,
                         exact_error_moments(CASES[key], n))

    @pytest.mark.parametrize("n", [20, 100])
    @pytest.mark.parametrize("key", REPLACEMENT_CASES)
    def test_replacement_method(self, key, n):
        assert_cell_near(CASES[key], n, "replacement", REPLACEMENT_REPS,
                         replacement_error_moments(CASES[key], n))
