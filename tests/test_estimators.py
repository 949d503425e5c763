import numpy as np
import pytest

from matchbias import estimators as est
from matchbias import matching as mt
from matchbias import population as pop
from matchbias.simulation import run_cell


def make_sample(w, s, y, y0=None, y1=None):
    w = np.asarray(w, dtype=np.int8)
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    y0 = y.copy() if y0 is None else np.asarray(y0, dtype=float)
    y1 = y.copy() if y1 is None else np.asarray(y1, dtype=float)
    return pop.Sample(w, s, y0, y1, y)


class TestAttMatching:
    def test_single_pair(self):
        smp = make_sample([1, 0], [0.5, 0.5], [3.0, 1.0])
        m = mt.Matching(pairs={0: 0}, total_cost=0.0, method="exact_dp")
        out = est.att_matching(smp, m)
        assert out.value == pytest.approx(2.0)
        assert not out.degenerate

    def test_mean_of_differences(self):
        # treated outcomes 5, 1, 7 against controls 3, 2, 2: diffs 2, -1, 5
        smp = make_sample([1, 1, 1, 0, 0, 0],
                          [0.1, 0.2, 0.3, 0.1, 0.2, 0.3],
                          [5.0, 1.0, 7.0, 3.0, 2.0, 2.0])
        m = mt.Matching(pairs={0: 0, 1: 1, 2: 2}, total_cost=0.0,
                        method="exact_dp")
        assert est.att_matching(smp, m).value == pytest.approx(2.0)

    def test_no_treated_degenerate_zero(self):
        smp = make_sample([0, 0], [0.1, 0.2], [1.0, 2.0])
        out = est.att_matching(smp, None)
        assert out.value == 0.0 and out.degenerate

    def test_more_treated_than_controls_convention(self):
        # the matcher refuses, and the estimate passed no matching is zero
        smp = make_sample([1, 1, 0], [0.1, 0.2, 0.3], [1.0, 2.0, 3.0])
        with pytest.raises(mt.MatchingError, match="N1 = 2"):
            est.match_sample(smp)
        out = est.att_matching(smp, None)
        assert out.value == 0.0 and out.degenerate

    def test_rejects_incomplete_pairing(self):
        smp = make_sample([1, 1, 0, 0], [0.1, 0.2, 0.3, 0.4], [1, 2, 3, 4])
        m = mt.Matching(pairs={0: 0}, total_cost=0.0, method="exact_dp")
        with pytest.raises(ValueError):
            est.att_matching(smp, m)

    def test_rejects_non_control_reference(self):
        smp = make_sample([1, 0], [0.1, 0.2], [1.0, 2.0])
        m = mt.Matching(pairs={0: 5}, total_cost=0.0, method="exact_dp")
        with pytest.raises(ValueError, match="not a control"):
            est.att_matching(smp, m)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(4)
        smp = pop.sample(pop.make_prognostic_spec(0.5), 400, 12)
        m = est.match_sample(smp)
        base = est.att_matching(smp, m).value
        shifted = pop.Sample(smp.w, smp.s, smp.y0, smp.y1,
                             np.where(smp.w == 1, smp.y + 3.25, smp.y))
        assert est.att_matching(shifted, m).value == pytest.approx(base + 3.25)

    @pytest.mark.parametrize("method", ["banded", "exact"])
    def test_every_without_replacement_method_estimates(self, method):
        smp = pop.sample(pop.make_prognostic_spec(0.5), 400, 12)
        out = est.att_matching(smp, est.match_sample(smp, method))
        exact = est.att_matching(smp, mt.match_optimal_exact(
            smp.treated_scores, smp.control_scores))
        assert not out.degenerate and out.value == exact.value


class TestWeighting:
    def test_injective_weights_are_binary(self):
        smp = pop.sample(pop.make_prognostic_spec(0.5), 300, 3)
        m = est.match_sample(smp, "exact")
        w = est.control_weights(m, smp.n0)
        assert set(np.unique(w.nu)) <= {0, 1}
        assert w.nu.sum() == smp.n1

    def test_shared_control_counts(self):
        m = mt.Matching(pairs={0: 2, 1: 2, 2: 0}, total_cost=0.0,
                        method="with_replacement")
        w = est.control_weights(m, 4)
        assert list(w.nu) == [1, 0, 2, 0]

    def test_rejects_control_position_past_n0(self):
        m = mt.Matching(pairs={0: 0, 1: 3}, total_cost=0.0, method="exact_dp")
        with pytest.raises(ValueError, match="position 3 out of 3 controls"):
            est.control_weights(m, 3)

    def test_identity_random_matchings(self):
        rng = np.random.default_rng(123)
        spec = pop.make_prognostic_spec(0.5)
        for trial in range(200):
            smp = pop.sample(spec, int(rng.integers(20, 120)),
                             int(rng.integers(1, 10_000)))
            if smp.n1 == 0 or smp.n1 > smp.n0:
                continue
            method = ("exact", "replacement", "capacitated")[trial % 3]
            cfg = mt.MatchConfig(capacity=2 if smp.n1 <= 2 * smp.n0 else 1)
            m = est.match_sample(smp, method, cfg)
            w = est.control_weights(m, smp.n0)
            direct = est.att_matching(smp, m).value
            weighted = est.att_weighted(smp, w).value
            assert weighted == pytest.approx(direct, abs=1e-12)

    def test_all_weight_on_one_control(self):
        smp = make_sample([1, 1, 0, 0], [0.5, 0.5, 0.5, 0.9],
                          [4.0, 2.0, 1.0, 9.0])
        w = est.ControlWeights(np.asarray([2, 0]))
        out = est.att_weighted(smp, w)
        assert out.value == pytest.approx(3.0 - 1.0)

    def test_rejects_wrong_total(self):
        smp = make_sample([1, 0], [0.1, 0.2], [1.0, 2.0])
        with pytest.raises(ValueError, match="sum"):
            est.att_weighted(smp, est.ControlWeights(np.asarray([2])))

    def test_empty_weights_degenerate(self):
        smp = make_sample([0, 0], [0.1, 0.2], [1.0, 2.0])
        out = est.att_weighted(smp, est.ControlWeights(np.zeros(2, dtype=int)))
        assert out.value == 0.0 and out.degenerate


class TestCaliperEstimator:
    def test_empty_dropped_equals_att_matching(self):
        smp = pop.sample(pop.make_prognostic_spec(0.5), 200, 9)
        m = est.match_sample(smp, "exact")
        assert est.att_caliper(smp, m).value == pytest.approx(
            est.att_matching(smp, m).value)

    def test_all_dropped_degenerate(self):
        smp = make_sample([1, 0], [0.1, 0.9], [5.0, 1.0])
        m = mt.Matching(pairs={0: 0}, total_cost=0.8, method="exact_dp")
        retained, _ = mt.apply_caliper(m, smp.treated_scores,
                                       smp.control_scores, 0.5)
        out = est.att_caliper(smp, retained)
        assert out.value == 0.0 and out.degenerate

    def test_one_of_two_dropped(self):
        smp = make_sample([1, 1, 0, 0], [0.1, 0.5, 0.1, 0.9],
                          [5.0, 7.0, 1.0, 2.0])
        m = mt.Matching(pairs={0: 0, 1: 1}, total_cost=0.4,
                        method="exact_dp")
        retained, _ = mt.apply_caliper(m, smp.treated_scores,
                                       smp.control_scores, 0.2)
        out = est.att_caliper(smp, retained)
        assert out.value == pytest.approx(4.0) and not out.degenerate

    @pytest.mark.parametrize("pairs", [{0: -1}, {0: 1}, {-1: 0}, {1: 0}],
                             ids=["control_below", "control_above",
                                  "treated_below", "treated_above"])
    def test_rejects_position_outside_sample(self, pairs):
        # control -1 would otherwise wrap to the last control
        smp = make_sample([1, 0], [0.1, 0.2], [1.0, 2.0])
        m = mt.Matching(pairs=pairs, total_cost=0.0, method="exact_dp")
        with pytest.raises(ValueError, match="outside the sample"):
            est.att_caliper(smp, m)


class TestRowBlocks:
    def test_segment_means_are_np_means(self):
        # np.mean groups a sum by its length; every length up to 300 and
        # several segments of each, as a block's rows give them
        rng = np.random.default_rng(8)
        counts = np.concatenate([np.arange(301), rng.integers(0, 301, 300), [9000]])
        rng.shuffle(counts)
        x = rng.standard_normal(counts.sum()) * rng.random(counts.sum()) * 10
        got = est.segment_means(x, counts)
        at = 0
        for i, count in enumerate(counts.tolist()):
            segment = x[at:at + count].copy()
            at += count
            if count:
                assert got[i].hex() == segment.mean().hex(), count
            else:
                assert np.isnan(got[i])


class TestTrueSampleAtt:
    def test_constant_effect(self):
        smp = make_sample([1, 1, 0], [0.1, 0.2, 0.3], [2.0, 3.0, 0.0],
                          y0=[1.0, 2.0, 0.0], y1=[2.0, 3.0, 1.0])
        assert est.att_true_sample(smp) == pytest.approx(1.0)

    def test_two_effects_average(self):
        smp = make_sample([1, 1], [0.1, 0.2], [1.0, 3.0],
                          y0=[1.0, 1.0], y1=[1.0, 3.0])
        assert est.att_true_sample(smp) == pytest.approx(1.0)

    def test_rejects_no_treated(self):
        smp = make_sample([0], [0.1], [1.0])
        with pytest.raises(ValueError):
            est.att_true_sample(smp)

    def test_prognostic_large_n_is_one(self):
        smp = pop.sample(pop.make_prognostic_spec(1 / 3), 1_000_000, 31)
        assert abs(est.att_true_sample(smp) - 1.0) < 0.01


class TestOverlapDiagnostic:
    def test_all_below(self):
        smp = make_sample([1, 0], [0.1, 0.4], [0.0, 0.0])
        assert est.diagnose_overlap(smp) == (0.0, 0)

    def test_empty_sample(self):
        smp = pop.sample(pop.make_prognostic_spec(0.5), 0, 1)
        assert est.diagnose_overlap(smp) == (0.0, 0)

    def test_threshold_zero(self):
        smp = make_sample([1, 0, 0], [0.1, 0.4, 0.9], [0.0, 0.0, 0.0])
        assert est.diagnose_overlap(smp, 0.0) == (1.0, 3)

    def test_nan_threshold_refused_infinite_allowed(self):
        smp = make_sample([1, 0, 0], [0.1, 0.4, 0.9], [0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="^threshold must be a number"):
            est.diagnose_overlap(smp, float("nan"))
        assert est.diagnose_overlap(smp, float("-inf")) == (1.0, 3)
        assert est.diagnose_overlap(smp, float("inf")) == (0.0, 0)

    def test_prognostic_propensity_tail(self):
        # Pr(assign_prob(S) >= 1/2) = Pr(S >= 4/3) = (2 - 4/3)^2 / 2 = 2/9
        spec = pop.make_prognostic_spec(1 / 3)
        smp = pop.sample(spec, 100_000, 77)
        frac, count = est.diagnose_overlap(smp, 0.5, spec.assign_prob)
        assert frac == pytest.approx(2 / 9, abs=0.01)
        assert count > 0


class TestZeroBiasSanity:
    def test_constant_mu0_unbiased(self):
        # flat Y(0) removes the confounding channel entirely
        from functools import partial
        spec = pop.PopulationSpec(
            score_from_uniform=pop._triangular_quantile,
            assign_prob=partial(pop._linear_assign, denom=8 / 3),
            mu0=partial(pop._const, value=1.0),
            mu1=partial(pop._const, value=2.0),
            noise_sd0=1.0,
            noise_sd1=1.0,
            tau_att_true=1.0,
            score_pdf=pop._triangular_pdf,
            score_support=(0.0, 2.0),
            score_breakpoints=(1.0,),
        )
        # replication r draws its sample with seed derive_seed(5150, r)
        row = run_cell(spec, 1000, 500, 5150, "exact")
        assert row.reps_done == 500 and row.degenerate_count == 0
        assert abs(row.emp_bias) < 4 * row.emp_se / np.sqrt(row.reps_done)
