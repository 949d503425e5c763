import dataclasses
import math
import os
import subprocess
import sys
from functools import partial

import numpy as np
import pytest

from matchbias import population as pop
from matchbias import theory


A_GRID = (1 / 3, 0.4, 4 / 9, 0.6, 0.8, 1.0)


# closed forms of the pieces of the prognostic bias, oracles for the numeric
# theory; the bias is the upper mass ratio times the outcome gap

def prognostic_upper_mass_ratio(a):
    """Pr(S in upper region) / (2 pi_bar) = 9 (a-1)^2 (a+1) / 8."""
    return 9.0 * (a - 1.0) ** 2 * (a + 1.0) / 8.0


def prognostic_treated_upper_mean(a):
    """E[Y(0) | W=1, upper region] = (27a^3 + 54a^2 + 51a + 28) / (20a + 20)."""
    return (27.0 * a ** 3 + 54.0 * a ** 2 + 51.0 * a + 28.0) / (20.0 * a + 20.0)


def prognostic_outcome_gap(a):
    """Conditional Y(0) gap in the upper region: (a-1)^2 (9a + 11) / (20a + 20)."""
    return (a - 1.0) ** 2 * (9.0 * a + 11.0) / (20.0 * a + 20.0)


def _scaled_triangular_quantile(u, denom):
    return pop._triangular_quantile(u) / denom


def _scaled_triangular_pdf(t, denom):
    return denom * pop._triangular_pdf(np.asarray(t, dtype=float) * denom)


def _scaled_square(t, denom):
    return (np.asarray(t, dtype=float) * denom) ** 2


def make_prognostic_propensity_spec(a):
    """The prognostic population reparameterized so the score is the propensity.

    With T = S / (2a + 2), assignment is Bernoulli(T); outcome models are
    rewritten in terms of T. Matching on T is matching on a monotone rescale
    of S, so the asymptotic bias is unchanged: an oracle for the propensity
    route against the score route.
    """
    denom = 2.0 * a + 2.0
    return pop.PopulationSpec(
        score_from_uniform=partial(_scaled_triangular_quantile, denom=denom),
        assign_prob=pop._identity,
        mu0=partial(_scaled_square, denom=denom),
        mu1=partial(pop._const, value=2.5),
        noise_sd0=1.0,
        noise_sd1=1.0,
        tau_att_true=1.0,
        score_pdf=partial(_scaled_triangular_pdf, denom=denom),
        score_support=(0.0, 2.0 / denom),
        score_breakpoints=(1.0 / denom,),
        name=f"prognostic-propensity(a={a:g})",
    )


def _without_density(spec):
    """spec with no density or support, so the theory routines use fixed-seed draws."""
    return pop.PopulationSpec(
        score_from_uniform=spec.score_from_uniform, assign_prob=spec.assign_prob,
        mu0=spec.mu0, mu1=spec.mu1, noise_sd0=spec.noise_sd0, noise_sd1=spec.noise_sd1)


class TestClosedForms:
    def test_table_values(self):
        assert theory.prognostic_bias_closed_form(1 / 3) == pytest.approx(
            9 * (2 / 3) ** 4 * 14 / 160)
        assert round(theory.prognostic_bias_closed_form(1 / 3), 4) == 0.1556
        assert round(theory.prognostic_bias_closed_form(4 / 9), 4) == 0.0804
        assert theory.prognostic_bias_closed_form(1.0) == 0.0

    def test_intermediate_forms_at_a_third(self):
        a = 1 / 3
        assert prognostic_upper_mass_ratio(a) == pytest.approx(2 / 3)
        assert prognostic_outcome_gap(a) == pytest.approx(7 / 30)
        assert prognostic_treated_upper_mean(a) == pytest.approx(1.95)
        assert theory.prognostic_sstar_lower(a) == pytest.approx(1.0)

    def test_factorization(self):
        for a in A_GRID:
            assert theory.prognostic_bias_closed_form(a) == pytest.approx(
                prognostic_upper_mass_ratio(a)
                * prognostic_outcome_gap(a), abs=1e-14)

    def test_domain_guard(self):
        for a in (0.2, 1.5):
            with pytest.raises(ValueError):
                theory.prognostic_bias_closed_form(a)
            with pytest.raises(ValueError):
                theory.prognostic_sstar_lower(a)


class TestPStar:
    def test_uniform_propensity(self):
        # g(p) = (p + 0.8) / 2 crosses one half at p = 0.2
        spec = pop.make_uniform_propensity_spec(0.8)
        res = theory.pstar(spec, 1e-8)
        assert res.pstar == pytest.approx(0.2, abs=1e-6)
        assert res.tail_treated_prob == pytest.approx(0.5, abs=1e-6)
        assert not res.defaulted
        assert res.left_closed

    def test_default_rule(self):
        # at upper = 0.5 only the single point s = 1/2 reaches one half
        for upper in (0.4, 0.5):
            res = theory.pstar(pop.make_uniform_propensity_spec(upper), 1e-8)
            assert res.pstar == 0.5
            assert res.defaulted
            assert res.left_closed
            assert math.isnan(res.tail_treated_prob)

    @pytest.mark.parametrize("spec", [
        pop.make_uniform_propensity_spec(0.6),
        pop.make_uniform_propensity_spec(0.8),
        make_prognostic_propensity_spec(1 / 3),
        make_prognostic_propensity_spec(4 / 9),
    ], ids=lambda spec: spec.name)
    def test_level_set_route_agrees_with_score_threshold(self, spec):
        # with assign_prob(s) = s the level set {assign_prob >= p*} is the
        # score tail above b, so the partition point is the threshold b itself
        assert theory.pstar(spec, 1e-9).pstar == pytest.approx(
            theory.sstar_threshold(spec, 1e-9), abs=1e-7)

    @pytest.mark.parametrize("a", [1 / 3, 4 / 9, 0.8])
    def test_pstar_is_assign_prob_at_threshold(self, a):
        # the prognostic score is not the propensity: p* = b / (2a + 2)
        spec = pop.make_prognostic_spec(a)
        b = theory.sstar_threshold(spec, 1e-8)
        res = theory.pstar(spec, 1e-8)
        assert res.pstar == spec.assign_prob(np.asarray([b]))[0]
        assert res.pstar == pytest.approx((3 * a + 1) / (4 * a + 4), abs=1e-6)
        assert not res.defaulted and res.left_closed

    def test_mc_fallback(self):
        stripped = _without_density(pop.make_uniform_propensity_spec(0.8))
        res = theory.pstar(stripped, 1e-8)
        assert res.pstar == pytest.approx(0.2, abs=0.005)

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            theory.pstar(pop.make_uniform_propensity_spec(0.8), 0.0)


class TestSStarThreshold:
    def test_paper_formula_on_grid(self):
        for a in A_GRID:
            spec = pop.make_prognostic_spec(a)
            b = theory.sstar_threshold(spec, 1e-9)
            assert b == pytest.approx((3 * a + 1) / 2, abs=1e-6)

    def test_no_root_above_one(self):
        spec = pop.make_prognostic_spec(2.0)
        with pytest.raises(theory.SStarNotFoundError):
            theory.sstar_threshold(spec)

    def test_no_root_without_density(self):
        stripped = _without_density(pop.make_uniform_propensity_spec(0.4))
        with pytest.raises(theory.SStarNotFoundError):
            theory.sstar_threshold(stripped)

    def test_half_treated_support_gives_its_lower_end(self):
        treated = pop.PopulationSpec(
            score_from_uniform=partial(pop._uniform_quantile, upper=0.5),
            assign_prob=partial(pop._const, value=0.75),
            mu0=pop._identity, mu1=pop._identity,
            noise_sd0=None, noise_sd1=None,
            score_pdf=partial(pop._uniform_pdf, upper=0.5),
            score_support=(0.0, 0.5))
        assert theory.sstar_threshold(treated) == 0.0

    def test_requires_monotone_assign(self):
        bumpy = pop.PopulationSpec(
            score_from_uniform=pop._triangular_quantile,
            assign_prob=pop._triangular_pdf,  # rises then falls
            mu0=pop._square, mu1=partial(pop._const, value=1.0),
            noise_sd0=None, noise_sd1=None,
            score_pdf=pop._triangular_pdf, score_support=(0.0, 2.0))
        with pytest.raises(ValueError, match="monotone"):
            theory.sstar_threshold(bumpy)
        with pytest.raises(ValueError, match="monotone"):  # p* = assign_prob(b)
            theory.pstar(bumpy)


class TestBiasScore:
    def test_agrees_with_closed_form(self):
        for a in A_GRID:
            spec = pop.make_prognostic_spec(a)
            rep = theory.asymptotic_bias_score(spec, 1e-9)
            assert rep.bias == pytest.approx(
                theory.prognostic_bias_closed_form(a), abs=1e-3)

    def test_report_pieces_at_a_third(self):
        spec = pop.make_prognostic_spec(1 / 3)
        rep = theory.asymptotic_bias_score(spec, 1e-9)
        assert rep.prob_upper == pytest.approx(0.5, abs=1e-6)
        assert rep.pi_bar == pytest.approx(0.375, abs=1e-9)
        assert rep.e_y0_treated_upper == pytest.approx(1.95, abs=1e-4)
        assert rep.e_y0_treated_upper - rep.e_y0_control_upper == pytest.approx(
            7 / 30, abs=1e-4)

    def test_pieces_agree_with_closed_forms(self):
        for a in A_GRID:
            rep = theory.asymptotic_bias_score(pop.make_prognostic_spec(a), 1e-9)
            assert rep.prob_upper / (2 * rep.pi_bar) == pytest.approx(
                prognostic_upper_mass_ratio(a), abs=1e-6)
            assert rep.e_y0_treated_upper - rep.e_y0_control_upper == \
                pytest.approx(prognostic_outcome_gap(a), abs=1e-6)
            if rep.prob_upper > 0:  # both means are reported as 0 otherwise
                assert rep.e_y0_treated_upper == pytest.approx(
                    prognostic_treated_upper_mean(a), abs=1e-6)

    def test_internal_identity(self):
        for a in (1 / 3, 0.6, 1.0):
            rep = theory.asymptotic_bias_score(pop.make_prognostic_spec(a))
            assert rep.bias == pytest.approx(
                rep.prob_upper / (2 * rep.pi_bar)
                * (rep.e_y0_treated_upper - rep.e_y0_control_upper), abs=1e-12)

    def test_zero_mass_above_one(self):
        rep = theory.asymptotic_bias_score(pop.make_prognostic_spec(2.0))
        assert rep.bias == 0.0 and rep.prob_upper == 0.0

    def test_bad_tol_refused_before_any_integral(self, monkeypatch):
        calls = []
        integrals = theory._upper_integrals
        monkeypatch.setattr(theory, "_upper_integrals",
                            lambda *args: calls.append(args) or integrals(*args))
        with pytest.raises(ValueError, match="^tol must be "):
            theory.asymptotic_bias_score(pop.make_prognostic_spec(0.5), math.nan)
        assert calls == []

    def test_monotone_in_a(self):
        biases = [theory.asymptotic_bias_score(pop.make_prognostic_spec(a)).bias
                  for a in A_GRID]
        assert all(biases[i + 1] <= biases[i] + 1e-9
                   for i in range(len(biases) - 1))

    def test_mc_fallback_close(self):
        stripped = _without_density(pop.make_prognostic_spec(1 / 3))
        rep = theory.asymptotic_bias_score(stripped)
        assert rep.bias == pytest.approx(7 / 45, abs=0.01)

    def test_kink_without_breakpoint(self):
        # the triangular density's kink at s = 1 is left for the halving to find
        spec = dataclasses.replace(pop.make_prognostic_spec(1 / 3), score_breakpoints=())
        assert theory.pi_bar(spec) == pytest.approx(0.375, abs=1e-12)
        assert theory.asymptotic_bias_score(spec).bias == pytest.approx(
            theory.prognostic_bias_closed_form(1 / 3), abs=1e-12)


class TestQuadrature:
    def test_exponential(self):
        assert theory._quad(np.exp, 0.0, 1.0) == pytest.approx(math.e - 1.0, abs=1e-14)

    def test_narrow_gaussian_bump(self):
        sd = 0.002

        def bump(x):
            return np.exp(-0.5 * ((x - 0.3) / sd) ** 2) / (sd * math.sqrt(2 * math.pi))

        exact = 0.5 * (math.erf(0.7 / (sd * math.sqrt(2))) + math.erf(0.3 / (sd * math.sqrt(2))))
        assert theory._quad(bump, 0.0, 1.0) == pytest.approx(exact, abs=1e-13)

    def test_panel_cap_bounds_work(self):
        # an integrand that never settles is split only until the panel cap
        calls = []

        def wild(x):
            calls.append(None)
            return np.sin(1e9 * x)

        assert math.isfinite(theory._quad(wild, 0.0, 1.0))
        assert len(calls) <= 4 * theory._MAX_PANELS

    def test_import_leaves_scipy_out(self):
        src = os.path.dirname(os.path.dirname(theory.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import matchbias, sys; assert 'scipy' not in sys.modules"
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_simulate_builds_no_rule(self, tmp_path):
        # a table of closed-form cells never integrates, so the rule (and
        # with it numpy.polynomial, which numpy 1.x imports itself) is
        # built by the first quadrature, and only once
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        argv = ["simulate", "--config", os.path.join(root, "configs", "table_s1_desk.json"),
                "--n", "100", "--reps", "4", "--out-dir", str(tmp_path)]
        code = f"""
import sys
import numpy as np
from matchbias import cli, population, theory
assert cli.main({argv!r}) == 0
assert theory._gauss_legendre.cache_info().currsize == 0
if int(np.__version__.split(".")[0]) >= 2:
    assert "numpy.polynomial" not in sys.modules
spec = population.make_prognostic_spec(0.5)
biases = [theory.asymptotic_bias_score(spec).bias.hex() for _ in range(2)]
assert biases == ["0x1.be66666666673p-5"] * 2, biases
assert theory._gauss_legendre.cache_info().misses == 1
"""
        src = os.path.dirname(os.path.dirname(theory.__file__))
        env = dict(os.environ, MATCHBIAS_THREADS="1", PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       stdout=subprocess.DEVNULL)


class TestBiasPropensity:
    def test_uniform_example_hand_computed(self):
        # Uniform[0, 0.8], mu0(s) = s. p* = 0.2; over [0.2, 0.8]:
        # E[S|W=1] = int s^2 / int s = 0.168/0.3 = 0.56
        # E[S|W=0] = int s(1-s) / int (1-s) = 0.132/0.3 = 0.44
        # bias = (0.75 / 0.8) * 0.12 = 0.1125
        spec = pop.make_uniform_propensity_spec(0.8)
        rep = theory.asymptotic_bias_propensity(spec, 1e-9)
        assert rep.prob_upper == pytest.approx(0.75, abs=1e-6)
        assert rep.pi_bar == pytest.approx(0.4, abs=1e-9)
        assert rep.e_y0_treated_upper == pytest.approx(0.56, abs=1e-6)
        assert rep.e_y0_control_upper == pytest.approx(0.44, abs=1e-6)
        assert rep.bias == pytest.approx(0.1125, abs=1e-6)

    def test_no_mass_above_half_gives_zero(self):
        rep = theory.asymptotic_bias_propensity(
            pop.make_uniform_propensity_spec(0.4))
        assert rep.bias == 0.0 and rep.prob_upper == 0.0

    def test_constant_mu0_gives_zero(self):
        spec = dataclasses.replace(pop.make_uniform_propensity_spec(0.8),
                                   mu0=partial(pop._const, value=2.0))
        rep = theory.asymptotic_bias_propensity(spec)
        assert rep.bias == pytest.approx(0.0, abs=1e-9)

    def test_matches_score_route_on_rescaled_prognostic(self):
        for a in (1 / 3, 4 / 9, 0.8):
            rep = theory.asymptotic_bias_propensity(
                make_prognostic_propensity_spec(a), 1e-9)
            assert rep.bias == pytest.approx(
                theory.prognostic_bias_closed_form(a), abs=1e-3)

    def test_rejects_non_identity_score(self):
        with pytest.raises(ValueError, match="score"):
            theory.asymptotic_bias_propensity(pop.make_prognostic_spec(0.5))

    def test_rejects_zero_treated(self):
        dead = pop.PopulationSpec(
            score_from_uniform=partial(pop._uniform_quantile, upper=0.5),
            assign_prob=partial(pop._const, value=0.0),
            mu0=pop._identity, mu1=pop._identity,
            noise_sd0=None, noise_sd1=None,
            score_pdf=partial(pop._uniform_pdf, upper=0.5),
            score_support=(0.0, 0.5))
        with pytest.raises(ValueError, match="pi_bar"):
            theory.asymptotic_bias_score(dead)


class TestWasserstein:
    def test_identical_quantiles(self):
        assert theory.wasserstein_1d(lambda u: u, lambda u: u) == 0.0

    def test_point_masses(self):
        c = 2.5
        got = theory.wasserstein_1d(lambda u: np.zeros_like(u),
                                    lambda u: np.full_like(u, c))
        assert got == pytest.approx(c)

    def test_shifted_uniforms(self):
        delta = 0.3
        got = theory.wasserstein_1d(lambda u: u, lambda u: u + delta, grid=512)
        assert got == pytest.approx(delta, abs=1 / 512)

    def test_symmetry_and_triangle_on_empirical(self):
        rng = np.random.default_rng(6)
        grid = 1024
        datasets = [np.sort(rng.normal(loc, 1.0, 400)) for loc in (0.0, 0.5, 2.0)]
        qs = [lambda u, d=d: np.quantile(d, u) for d in datasets]
        w01 = theory.wasserstein_1d(qs[0], qs[1], grid)
        w10 = theory.wasserstein_1d(qs[1], qs[0], grid)
        assert w01 == pytest.approx(w10, abs=1e-12)
        w02 = theory.wasserstein_1d(qs[0], qs[2], grid)
        w12 = theory.wasserstein_1d(qs[1], qs[2], grid)
        assert w02 <= w01 + w12 + 2 / grid

    def test_grid_guard(self):
        with pytest.raises(ValueError):
            theory.wasserstein_1d(lambda u: u, lambda u: u, grid=1)

    def test_quantile_of_another_shape_is_refused(self):
        with pytest.raises(ValueError, match="same shape"):
            theory.wasserstein_1d(lambda u: u, lambda u: 0.5)


class TestWeightedObjective:
    def test_empty_region_is_zero(self):
        spec = pop.make_prognostic_spec(0.5)
        assert theory.weighted_wasserstein_objective(spec, 2.0) == 0.0

    def test_identical_conditional_laws(self):
        flat = pop.PopulationSpec(
            score_from_uniform=partial(pop._uniform_quantile, upper=1.0),
            assign_prob=partial(pop._const, value=0.3),
            mu0=pop._identity, mu1=pop._identity,
            noise_sd0=None, noise_sd1=None,
            score_pdf=partial(pop._uniform_pdf, upper=1.0),
            score_support=(0.0, 1.0))
        assert theory.weighted_wasserstein_objective(flat, 0.4) == pytest.approx(
            0.0, abs=1e-9)

    def test_prognostic_links_to_empirical_matching_cost(self):
        # The optimal cost per treated unit tends to the objective at the
        # threshold b = s*. Over seeds 1-20 at n = 1e5 one sample's cost has
        # mean (sd) 0.05616 (0.0027) at a = 1/3, 0.02722 (0.0024) at a = 4/9
        # and 4.7e-5 (1.4e-5) at a = 1, where the limit is 0. The test takes
        # the mean of five seeds, whose sd is below 0.0012: tol is over four
        # of those sds, and at a = 1 over ten above the mean.
        from matchbias import matching
        for a, w_star, tol in [(1 / 3, 0.05556, 0.005), (4 / 9, 0.02679, 0.005),
                               (1.0, 0.0, 2e-4)]:
            spec = pop.make_prognostic_spec(a)
            limit = theory.weighted_wasserstein_objective(
                spec, theory.sstar_threshold(spec))
            assert limit == pytest.approx(w_star, abs=1e-5)
            costs = []
            for seed in range(11, 16):
                smp = pop.sample(spec, 100_000, seed)
                m = matching.match_optimal_exact(smp.treated_scores,
                                                 smp.control_scores)
                costs.append(m.total_cost / smp.n1)
            assert np.mean(costs) == pytest.approx(limit, abs=tol), a


class TestReportRendering:
    def test_csv_row_and_text(self):
        rep = theory.asymptotic_bias_score(pop.make_prognostic_spec(1 / 3))
        text = theory.format_bias_report(rep)
        assert "asymptotic bias" in text and "pi_bar" in text


def _theory_outputs(spec):
    """pi_bar, the threshold, the pstar and bias-report fields and the objective.

    The threshold is None when there is none; the objective is then taken
    over the whole support.
    """
    try:
        b = theory.sstar_threshold(spec)
    except theory.SStarNotFoundError:
        b = None
    ps, rep = theory.pstar(spec), theory.asymptotic_bias_score(spec)
    cut = b if b is not None else spec.score_support[0]
    return (theory.pi_bar(spec), b,
            ps.pstar, ps.tail_treated_prob, ps.defaulted, ps.left_closed,
            rep.bias, rep.prob_upper,
            rep.pi_bar, rep.e_y0_treated_upper, rep.e_y0_control_upper,
            theory.weighted_wasserstein_objective(spec, cut))


# The outputs of _theory_outputs, floats as float.hex()
PINNED = {
    "prognostic-1/3": (
        "0x1.8000000000000p-2", "0x1.0000000000000p+0",
        "0x1.8000000000000p-2", "0x1.0000000000000p-1", False, True,
        "0x1.3e93e93e93e95p-3", "0x1.0000000000000p-1",
        "0x1.8000000000000p-2", "0x1.f333333333336p+0", "0x1.b77777777777ap+0",
        "0x1.c71ca1d7a9440p-5"),
    "prognostic-4/9": (
        "0x1.6276276276276p-2", "0x1.2aaaaaac00000p+0",
        "0x1.9d89d8bb13b14p-2", "0x1.00000009d89d9p-1", False, True,
        "0x1.4937d5d4a2f25p-4", "0x1.638e38df1c71cp-2",
        "0x1.6276276276276p-2", "0x1.1a41a41b58de5p+1", "0x1.05be5be70c497p+1",
        "0x1.b6f54817992e0p-6"),
    "prognostic-1": (
        "0x1.0000000000000p-2", "0x1.0000000000000p+1",
        "0x1.0000000000000p-1", "nan", True, True,
        "0x0.0p+0", "0x0.0p+0",
        "0x1.0000000000000p-2", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0"),
    "prognostic-2": (
        "0x1.5555555555555p-3", None,
        "0x1.0000000000000p-1", "nan", True, True,
        "0x0.0p+0", "0x0.0p+0",
        "0x1.5555555555555p-3", "0x0.0p+0", "0x0.0p+0",
        "0x1.999a2aba81d61p-3"),
    "uniform-0.4": (
        "0x1.999999999999cp-3", None,
        "0x1.0000000000000p-1", "nan", True, True,
        "0x0.0p+0", "0x0.0p+0",
        "0x1.999999999999cp-3", "0x0.0p+0", "0x0.0p+0",
        "0x1.55556df1a8ee7p-4"),
    "uniform-0.8": (
        "0x1.999999999999cp-2", "0x1.999999999999ap-3",
        "0x1.999999999999ap-3", "0x1.0000000000000p-1", False, True,
        "0x1.cccccccccccbep-4", "0x1.8000000000000p-1",
        "0x1.999999999999cp-2", "0x1.1eb851eb851ebp-1", "0x1.c28f5c28f5c2bp-2",
        "0x1.cccccdc060ca3p-4"),
    "draws-uniform-0.8": (
        "0x1.9903306b6e724p-2", "0x1.9c1fae869407ap-3",
        "0x1.9c1fae869407ap-3", "0x1.00002597889b6p-1", False, True,
        "0x1.ca83b37affa4ep-4", "0x1.7f0e800000000p-1",
        "0x1.9903306b6e724p-2", "0x1.1e99763299dd8p-1", "0x1.c2cd97ffd66abp-2",
        "0x1.ca841f8696a7ep-4"),
    "draws-prognostic-1/3": (
        "0x1.7f9997fe7ec4ap-2", "0x1.003cfa189b7d9p+0",
        "0x1.805b7724e93c6p-2", "0x1.00000d4026fb7p-1", False, True,
        "0x1.3be661bb63e74p-3", "0x1.fdea000000000p-2",
        "0x1.7f9997fe7ec4ap-2", "0x1.f2f6392feac1fp+0", "0x1.b78cdbbc9d3c5p+0",
        "0x1.c33ddc2c3a951p-5"),
    "categorical": (
        "0x1.615d199999998p-2", "0x1.3333333333333p-2",
        "0x1.3333333333333p-2", "0x1.615d199999998p-2", False, False,
        "0x1.0a506b770945ap-2", "0x1.0000000000000p+0",
        "0x1.615d199999998p-2", "0x1.bdeb925e79246p-3", "0x1.3947515a9b11cp-5",
        "0x1.4ac0000000002p-4"),
}


PINNED_SPECS = {
    "prognostic-1/3": lambda: pop.make_prognostic_spec(1 / 3),
    "prognostic-4/9": lambda: pop.make_prognostic_spec(4 / 9),
    "prognostic-1": lambda: pop.make_prognostic_spec(1.0),
    "prognostic-2": lambda: pop.make_prognostic_spec(2.0),
    "uniform-0.4": lambda: pop.make_uniform_propensity_spec(0.4),
    "uniform-0.8": lambda: pop.make_uniform_propensity_spec(0.8),
    "draws-uniform-0.8": lambda: _without_density(pop.make_uniform_propensity_spec(0.8)),
    "draws-prognostic-1/3": lambda: _without_density(pop.make_prognostic_spec(1 / 3)),
    "categorical": lambda: pop.make_categorical_spec(0.1, 0.75, 0.3, mu0_in=1.0),
}


class TestPinnedNumbers:
    @pytest.mark.parametrize("key", list(PINNED))
    def test_outputs_unchanged(self, key):
        spec = PINNED_SPECS[key]()
        # the same bits with a density; draws may move in their last bits
        rel = 0.0 if spec.score_pdf is not None else 1e-12
        for got, want in zip(_theory_outputs(spec), PINNED[key], strict=True):
            if not isinstance(want, str):  # a bool, or None for no threshold
                assert got == want
            elif rel == 0.0:
                assert got.hex() == want
            else:
                assert got == pytest.approx(float.fromhex(want), rel=rel, nan_ok=True)
