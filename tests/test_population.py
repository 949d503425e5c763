import csv
import hashlib
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchbias import matching
from matchbias import population as pop
from matchbias import simulation as sim
from matchbias import theory


CSV_HEADER = ["id", "w", "s", "y0", "y1", "y"]


def sample_to_csv(smp, path):
    """Write a sample as CSV with header id,w,s,y0,y1,y."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for i in range(smp.n):
            writer.writerow([i, int(smp.w[i]), repr(float(smp.s[i])),
                             repr(float(smp.y0[i])), repr(float(smp.y1[i])),
                             repr(float(smp.y[i]))])


def sample_prognostic_covariates(a, n, seed):
    """Draw the prognostic population at the covariate level.

    Draws (X1, X2, X3) uniform on the cube, assigns treatment with
    probability x1 * x2^a, and sets the score to x1 + x3: distributionally
    identical to sampling make_prognostic_spec(a).
    """
    rng = pop._rng(seed)
    x1 = rng.random(n)
    x2 = rng.random(n)
    x3 = rng.random(n)
    w = (rng.random(n) < x1 * x2 ** a).astype(np.int8)
    s = x1 + x3
    y0 = s ** 2 + rng.standard_normal(n)
    y1 = 2.5 + rng.standard_normal(n)
    y = np.where(w == 1, y1, y0)
    return pop.Sample(w, s, y0, y1, y)


class TestSample:
    def test_empty_sample(self):
        spec = pop.make_prognostic_spec(1.0)
        smp = pop.sample(spec, 0, 1)
        assert smp.n == 0 and smp.n1 == 0 and smp.n0 == 0

    def test_determinism_byte_identical(self):
        spec = pop.make_prognostic_spec(0.5)
        a = pop.sample(spec, 5000, 123)
        b = pop.sample(spec, 5000, 123)
        for col in ("w", "s", "y0", "y1", "y"):
            assert np.array_equal(getattr(a, col), getattr(b, col))

    def test_different_seeds_differ(self):
        spec = pop.make_prognostic_spec(0.5)
        a = pop.sample(spec, 1000, 1)
        b = pop.sample(spec, 1000, 2)
        assert not np.array_equal(a.s, b.s)

    def test_outcome_consistency(self):
        spec = pop.make_prognostic_spec(1 / 3)
        smp = pop.sample(spec, 2000, 7)
        treated = smp.w == 1
        assert np.array_equal(smp.y[treated], smp.y1[treated])
        assert np.array_equal(smp.y[~treated], smp.y0[~treated])

    def test_index_sets_partition(self):
        spec = pop.make_prognostic_spec(0.6)
        smp = pop.sample(spec, 500, 3)
        merged = np.sort(np.concatenate([smp.treated_idx, smp.control_idx]))
        assert np.array_equal(merged, np.arange(500))
        assert smp.n1 == smp.treated_idx.size
        assert smp.n0 == smp.control_idx.size

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            pop.sample(pop.make_prognostic_spec(1.0), -1, 0)

    def test_treated_fraction_matches_population(self):
        # E[w] -> E[assign_prob(S)] within 3 binomial SEs at n = 1e5
        spec = pop.make_prognostic_spec(1.0)
        n = 100_000
        pi = 0.25  # 1 / (2a + 2) at a = 1
        smp = pop.sample(spec, n, 99)
        se = math.sqrt(pi * (1 - pi) / n)
        assert abs(smp.n1 / n - pi) < 3 * se


class TestPrognosticSpec:
    def test_treated_fraction_large_n(self):
        # overall treated share 1/(2a+2) = 0.375 at a = 1/3
        spec = pop.make_prognostic_spec(1 / 3)
        smp = pop.sample(spec, 1_000_000, 2024)
        assert abs(smp.n1 / smp.n - 0.375) < 0.002

    def test_assign_prob_values(self):
        spec = pop.make_prognostic_spec(1 / 3)
        assert spec.assign_prob(np.asarray([2.0]))[0] == pytest.approx(0.75)
        spec_a1 = pop.make_prognostic_spec(1.0)
        assert spec_a1.assign_prob(np.asarray([1.0]))[0] == pytest.approx(0.25)
        spec_49 = pop.make_prognostic_spec(4 / 9)
        assert spec_49.assign_prob(np.asarray([1.0]))[0] == pytest.approx(9 / 26)

    def test_rejects_small_a(self):
        with pytest.raises(ValueError):
            pop.make_prognostic_spec(0.2)

    def test_true_att_is_one(self):
        assert pop.make_prognostic_spec(0.7).tau_att_true == 1.0

    @pytest.mark.parametrize("u", [
        np.array([0.0, 0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0),
                  np.nextafter(1.0, 0.0), 5e-324, 0.25, 0.75]),
        np.random.default_rng(8).random((7, 100)),
        np.random.default_rng(9).random((3, 4096))], ids=["edges", "rows", "wide_rows"])
    def test_triangular_quantile_is_the_two_branch_formula(self, u):
        want = np.where(u <= 0.5, np.sqrt(2.0 * u), 2.0 - np.sqrt(2.0 * (1.0 - u)))
        got = pop._triangular_quantile(u)
        assert got.shape == u.shape and got.tobytes() == want.tobytes()

    def test_score_distribution_is_triangular(self):
        spec = pop.make_prognostic_spec(1.0)
        smp = pop.sample(spec, 200_000, 5)
        # CDF at 1.0 is 1/2, at 0.5 is 1/8
        assert abs(np.mean(smp.s <= 1.0) - 0.5) < 0.005
        assert abs(np.mean(smp.s <= 0.5) - 0.125) < 0.005

    def test_covariate_sampler_agrees(self):
        # covariate-level process is distributionally equivalent
        a = 0.5
        direct = pop.sample(pop.make_prognostic_spec(a), 200_000, 17)
        via_cov = sample_prognostic_covariates(a, 200_000, 18)
        assert abs(direct.n1 / direct.n - via_cov.n1 / via_cov.n) < 0.006
        assert abs(np.mean(direct.s) - np.mean(via_cov.s)) < 0.01
        treated_s_direct = np.mean(direct.s[direct.treated_idx])
        treated_s_cov = np.mean(via_cov.s[via_cov.treated_idx])
        assert abs(treated_s_direct - treated_s_cov) < 0.02


class TestCategoricalSpec:
    def test_worked_matching_arithmetic(self):
        # 10% in category A, 3/4 of them treated: one third of the treated
        # in A find a control in A, and the rest are 5% of the full sample
        smp = pop.sample(pop.make_categorical_spec(0.1, 0.75, 0.3), 100_000, 4)
        m = matching.match_optimal_exact(smp.treated_scores, smp.control_scores)
        tp, cp = m.pair_arrays()
        from_a = smp.treated_scores[tp] == 0.75
        within = from_a & (smp.control_scores[cp] == 0.75)
        assert within.sum() / from_a.sum() == pytest.approx(1 / 3, abs=0.02)
        assert (from_a & ~within).sum() / smp.n == pytest.approx(0.05, abs=0.003)

    def test_spec_draws_two_point_scores(self):
        spec = pop.make_categorical_spec(0.1, 0.75, 0.3)
        smp = pop.sample(spec, 50_000, 4)
        values = set(np.unique(smp.s))
        assert values <= {0.75, 0.3}
        assert abs(np.mean(smp.s == 0.75) - 0.1) < 0.01

    def test_degenerate_mass_single_category(self):
        spec = pop.make_categorical_spec(0.0, 0.75, 0.3)
        smp = pop.sample(spec, 1000, 4)
        assert np.all(smp.s == 0.3)

    def test_tau_att_true(self):
        spec = pop.make_categorical_spec(0.1, 0.75, 0.3,
                                         mu0_in=1.0, mu1_in=3.0,
                                         mu0_out=0.0, mu1_out=1.0)
        # Pr(A | W=1) = 0.075 / (0.075 + 0.27) = 5/23
        want = (5 / 23) * 2.0 + (18 / 23) * 1.0
        assert spec.tau_att_true == pytest.approx(want)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            pop.make_categorical_spec(1.5, 0.5, 0.5)


class TestUniformPropensitySpec:
    def test_outcomes_are_the_score_without_noise(self):
        smp = pop.sample(pop.make_uniform_propensity_spec(0.8), 5000, 12345)
        assert smp.s.min() >= 0.0 and smp.s.max() <= 0.8
        assert np.array_equal(smp.y0, smp.s) and np.array_equal(smp.y1, smp.s)
        assert abs(smp.w.mean() - 0.4) < 0.02


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        s1 = pop.derive_seed(42, 0)
        s2 = pop.derive_seed(42, 1)
        assert s1 == pop.derive_seed(42, 0)
        assert s1 != s2
        assert pop.derive_seed(42, 0, 1) != pop.derive_seed(42, 1, 0)


def numpy_streams(seed, indices):
    """derive_seed(seed, r) and its Philox key, through NumPy's SeedSequence."""
    rep_seeds = [pop.derive_seed(seed, r) for r in indices]
    return rep_seeds, [np.random.SeedSequence(s).generate_state(2, np.uint64).tolist()
                       for s in rep_seeds]


class TestStreamDerivation:
    # entropy of one to five words, so the 130-bit seed takes the mixing
    # phase for entropy longer than the pool of four
    SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**100, 2**130)
    # indices at chunk edges of 125 and 250, at 2**31 and up to 2**32 - 1
    RANGES = ((0, 3), (124, 127), (249, 251), (2**31 - 1, 2**31 + 1),
              (2**32 - 2, 2**32), (7, 7), (2**32, 2**32))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_equals_seed_sequence(self, seed):
        for start, stop in self.RANGES:
            assert pop.derive_streams(seed, start, stop) == numpy_streams(
                seed, range(start, stop)), (seed, start, stop)

    @given(seed=st.integers(0, 2**160), start=st.integers(0, 2**32 - 3),
           length=st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_equals_seed_sequence_anywhere(self, seed, start, length):
        assert pop.derive_streams(seed, start, start + length) == numpy_streams(
            seed, range(start, start + length))

    @pytest.mark.parametrize("start, stop", [(-1, 2), (3, 2), (0, 2**32 + 1),
                                             (2**32, 2**32 + 1)])
    def test_refuses_indices_outside_uint32(self, start, stop):
        with pytest.raises(ValueError, match="replication indices"):
            pop.derive_streams(5, start, stop)

    def test_table_hit_draws_as_a_fresh_philox(self):
        rep_seeds = pop.prepare_streams(11, 0, 3)
        for seed in rep_seeds + rep_seeds:  # a second hit resets the first's draws
            assert pop._rng(seed) is pop._rng(rep_seeds[0])  # one Generator for every hit
            hit = pop._rng(seed)
            fresh = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
            # a 32-bit draw leaves half a word buffered, which a reset must drop
            for draw in (lambda g: g.integers(0, 1000, 3, dtype=np.int32),
                         lambda g: g.random(5), lambda g: g.standard_normal(7)):
                assert np.array_equal(draw(hit), draw(fresh))

    def test_sample_is_unchanged_by_the_table(self):
        spec = pop.make_prognostic_spec(0.5)
        seed = pop.derive_seed(4, 2)
        fresh = _comparable(pop.sample(spec, 300, seed))
        assert pop.prepare_streams(4, 0, 5)[2] == seed
        assert _comparable(pop.sample(spec, 300, seed)) == fresh

    def test_each_thread_draws_from_its_own_table(self):
        # threads that interleave prepare_streams and sample on a short
        # switch interval; a table or Philox shared between them would hand
        # one thread another's stream
        spec = pop.make_prognostic_spec(0.5)
        cells = range(6)
        want = {c: [_comparable(pop.sample(spec, 50, pop.derive_seed(c, r)))
                    for r in range(20)] for c in cells}

        def run(cell):
            return [_comparable(pop.sample(spec, 50, seed))
                    for start in range(0, 20, 5)
                    for seed in pop.prepare_streams(cell, start, start + 5)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(cells)) as ex:
                got = dict(zip(cells, ex.map(run, cells, timeout=60)))
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    def test_disagreeing_port_fails_loudly(self, monkeypatch):
        derive_streams = pop.derive_streams

        def off_by_one_key(seed, start, stop):
            rep_seeds, keys = derive_streams(seed, start, stop)
            return rep_seeds, [[k0 ^ 1, k1] for k0, k1 in keys]

        monkeypatch.setattr(pop, "derive_streams", off_by_one_key)
        monkeypatch.setenv("MATCHBIAS_THREADS", "1")
        with pytest.raises(RuntimeError, match="at cell seed 9, index 0$"):
            sim.run_cell(PROGNOSTIC, 40, 3, 9)

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("reps", [1, 17, 40])
    def test_run_reps_equals_the_replication_by_replication_reference(
            self, monkeypatch, threads, reps):
        monkeypatch.setenv("MATCHBIAS_THREADS", threads)
        config = matching.MatchConfig()
        got = sim._run_reps(PROGNOSTIC, 60, reps, 8, "exact", config)
        want = [sim._replicate(PROGNOSTIC, 60, pop.derive_seed(8, r), "exact", config)
                for r in range(reps)]
        assert got == want


class TestRowBlocks:
    @pytest.mark.parametrize("spec", [
        pop.make_prognostic_spec(1 / 3), pop.make_uniform_propensity_spec(0.8),
        pop.make_categorical_spec(0.5, 0.6, 0.2, mu1_in=1.0, noise_sd=1.0)],
        ids=["prognostic", "uniform", "categorical"])
    @pytest.mark.parametrize("n", [0, 1, 7, 100])
    def test_rows_are_the_samples(self, spec, n):
        seeds = pop.prepare_streams(6, 0, 5)
        rows = pop.sample(spec, n, seeds)
        assert rows.valid.tolist() == [True] * 5
        for i, seed in enumerate(seeds):
            smp = pop.sample(spec, n, seed)
            for col in ("w", "s", "y0", "y1", "y"):
                got, want = getattr(rows, col)[i], getattr(smp, col)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), col

    def test_rows_outside_the_unit_interval_are_invalid(self):
        base = pop.make_prognostic_spec(0.5)
        spec = replace(base, assign_prob=lambda s: np.where(
            s > 1.9, np.nan, base.assign_prob(s)))
        seeds = [pop.derive_seed(2, r) for r in range(60)]
        valid = pop.sample(spec, 100, seeds).valid.tolist()
        for seed, ok in zip(seeds, valid):
            if ok:
                pop.sample(spec, 100, seed)
            else:
                with pytest.raises(ValueError, match=r"left \[0, 1\]"):
                    pop.sample(spec, 100, seed)
        assert True in valid and False in valid

    def test_outcomes_are_not_drawn_where_assignment_fails(self):
        # the outcome model is undefined above 1.9, where assign_prob is
        # NaN: a sample there fails on assign_prob and never reaches it
        base = pop.make_prognostic_spec(0.5)

        def mu0(s):
            if (s > 1.9).any():
                raise ZeroDivisionError("mu0 undefined above 1.9")
            return base.mu0(s)

        spec = replace(base, mu0=mu0, assign_prob=lambda s: np.where(
            s > 1.9, np.nan, base.assign_prob(s)))
        outcomes = 0
        for r in range(60):
            try:
                pop.sample(spec, 100, pop.derive_seed(2, r))
                outcomes += 1
            except ValueError as exc:
                assert str(exc) == "assign_prob left [0, 1] on the drawn scores"
        assert 0 < outcomes < 60


STREAM_BASE = pop.make_prognostic_spec(1 / 3)
STREAM_SPECS = {
    "prognostic": STREAM_BASE,
    "uniform": pop.make_uniform_propensity_spec(0.8),
    "categorical": pop.make_categorical_spec(0.5, 0.6, 0.2, mu1_in=1.0),
    "categorical_noise": pop.make_categorical_spec(0.5, 0.6, 0.2, mu1_in=1.0, noise_sd=1.5),
    "noise_on_arm_1": replace(STREAM_BASE, noise_sd0=None, name="noise-on-arm-1"),
}
# the first 128 bits of the SHA-256 of s, w, y0, y1 and y, each as its dtype
# and bytes, that a spec draws at n for seed 2024 alone ("seed") and for the
# rows of prepare_streams(31, 0, 3) ("rows"); recorded when each spec still
# ran its own draws
STREAM_DIGESTS = {
    ("prognostic", 3, "seed"): "4cffe2a26d05112c3d3b814aeda37401",
    ("prognostic", 3, "rows"): "9d6a63fe468fea5984fa3275b89b3dc3",
    ("prognostic", 100, "seed"): "2bb229cbcf4bbff38aecf3492c9ea865",
    ("prognostic", 100, "rows"): "db49166d2fc9763aaf5fd5b4db0941fb",
    ("prognostic", 4096, "seed"): "951aa16a5aba54c9d4812f25b3dd55b1",
    ("prognostic", 4096, "rows"): "b2a13f5fa8e60b5bfabb8d55132acb85",
    ("uniform", 3, "seed"): "59abee1114d21c2cdf6a3ecc262c04cc",
    ("uniform", 3, "rows"): "ed64e059a889d7cbc6725cd38b1bcbee",
    ("uniform", 100, "seed"): "05ef6af27a1aa8407962b126c1b3d4a9",
    ("uniform", 100, "rows"): "fa5348713495c75d41e0c614034a7e76",
    ("uniform", 4096, "seed"): "51c659a2e67e85e2c07d2bf9b0b20063",
    ("uniform", 4096, "rows"): "d5c693ae8884967431c58d643dd9d634",
    ("categorical", 3, "seed"): "972969c4588272d6f3a4a6cc0348560a",
    ("categorical", 3, "rows"): "6eb16bc68f0ceda6a7a018916a4e4673",
    ("categorical", 100, "seed"): "910f0ca1e489cd0d21251f2769dbeae2",
    ("categorical", 100, "rows"): "6b460c41e23fec5339885167d98baccd",
    ("categorical", 4096, "seed"): "00ffb2092e424c2c38488fa128d08257",
    ("categorical", 4096, "rows"): "7e81b0fb8201f19c8aaadc94204e209d",
    ("categorical_noise", 3, "seed"): "d1c65c50c552b317756063f71e6fb9f5",
    ("categorical_noise", 3, "rows"): "1a784e219dbaf7d887ceb0fe2e6c4295",
    ("categorical_noise", 100, "seed"): "318b0e56b9fa4d95717ecc069571fea6",
    ("categorical_noise", 100, "rows"): "9e19c9845ca2ab7c847c6b10a3c67c8e",
    ("categorical_noise", 4096, "seed"): "77963eca8a380943b05f48d21f96b22d",
    ("categorical_noise", 4096, "rows"): "5ec15aa323a7356a93d69d9aa80b98ba",
    ("noise_on_arm_1", 3, "seed"): "ab8fd588807d8934eb9a07f1259e357d",
    ("noise_on_arm_1", 3, "rows"): "c14e97ab5fa603a49dc58752938a6dd7",
    ("noise_on_arm_1", 100, "seed"): "d8138552bd75d6d69b8905e76d2feb2e",
    ("noise_on_arm_1", 100, "rows"): "420fe01708e1ce6fdd5252b6bcd5eb65",
    ("noise_on_arm_1", 4096, "seed"): "82e8df974c3c60e989f9ab9e9519db23",
    ("noise_on_arm_1", 4096, "rows"): "351ee22296a9dabfa0e72661f87357b5",
}


class TestStreamPins:
    @pytest.mark.parametrize("spec, n, path", STREAM_DIGESTS)
    def test_streams_are_pinned(self, spec, n, path):
        seed = 2024 if path == "seed" else pop.prepare_streams(31, 0, 3)
        result = pop.sample(STREAM_SPECS[spec], n, seed)
        digest = hashlib.sha256()
        for col in ("s", "w", "y0", "y1", "y"):
            values = getattr(result, col)
            digest.update(values.dtype.str.encode())
            digest.update(values.tobytes())
        assert digest.hexdigest()[:32] == STREAM_DIGESTS[spec, n, path]


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        spec = pop.make_prognostic_spec(0.5)
        smp = pop.sample(spec, 200, 8)
        path = tmp_path / "sample.csv"
        sample_to_csv(smp, path)
        back = pop.sample_from_csv(path)
        for col in ("w", "s", "y0", "y1", "y"):
            assert np.array_equal(getattr(smp, col), getattr(back, col))

    def test_real_data_mode_missing_potentials(self, tmp_path):
        path = tmp_path / "real.csv"
        path.write_text("id,w,s,y\n0,1,0.7,2.5\n1,0,0.4,1.0\n")
        smp = pop.sample_from_csv(path)
        assert smp.n1 == 1 and smp.n0 == 1
        assert np.isnan(smp.y0).all() and np.isnan(smp.y1).all()
        assert smp.y[0] == 2.5

    def test_missing_required_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,w\n0,1\n")
        with pytest.raises(ValueError, match="missing required"):
            pop.sample_from_csv(path)

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,w,s\n0,1,0.5\n1,x,0.2\n")
        with pytest.raises(ValueError, match=":3:"):
            pop.sample_from_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError) as exc:
            pop.sample_from_csv(path)
        assert str(exc.value) == f"{path}: empty file"

    def test_treatment_flag_other_than_zero_or_one(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,w,s\n0,1,0.5\n1,2,0.2\n")
        with pytest.raises(ValueError) as exc:
            pop.sample_from_csv(path)
        assert str(exc.value) == f"{path}: w must be 0 or 1"


def untouched(*args):
    raise AssertionError("work started before the input was checked")


class Untouchable:
    """Stands in for scores a call must not read before its input check."""

    def __array__(self, *args, **kwargs):
        untouched()


T_SCORES = np.array([0.1, 0.4, 0.45, 0.7])
C_SCORES = np.array([0.05, 0.2, 0.35, 0.5, 0.8, 0.9, 0.95])
PROGNOSTIC = pop.make_prognostic_spec(0.5)
UNIFORM = pop.make_uniform_propensity_spec(0.8)
MATCHED = matching.match_optimal_exact(T_SCORES, C_SCORES)


def _spec(spec, live):
    return spec if live else replace(spec, score_from_uniform=untouched,
                                     assign_prob=untouched, score_pdf=untouched)


def _scores(live):
    return (T_SCORES, C_SCORES) if live else (Untouchable(), Untouchable())


# entry -> (field, a valid value, the refused values, call(value, live)); a
# call that is not live gets arguments that fail if anything reads them
WHOLE = (True, 2.5, math.nan, "3")
HUGE = 10**400  # a whole number beyond the float range
RULES = {
    "sample.n": ("n", 40, WHOLE + (-1,),
                 lambda v, live: pop.sample(_spec(PROGNOSTIC, live), v, 3)),
    "sample.seed": ("seed", 3, WHOLE + (-1,),
                    lambda v, live: pop.sample(_spec(PROGNOSTIC, live), 40, v)),
    "run_cell.seed": ("seed", 3, WHOLE + (-1,),
                      lambda v, live: sim.run_cell(_spec(PROGNOSTIC, live), 40, 2, v)),
    "match_banded.band": ("band", 4, WHOLE + (-1,), lambda v, live:
                          matching.match_banded(*_scores(live), v)),
    "match_capacitated.k": ("k", 2, WHOLE + (0,), lambda v, live:
                            matching.match_capacitated(*_scores(live), v)),
    "apply_caliper.caliper": (
        "caliper", 1, (True, math.nan, "0.1", 0.0, -1.0, HUGE),
        lambda v, live: matching.apply_caliper(MATCHED, *_scores(live), v)),
    "sstar_threshold.tol": (
        "tol", 1e-9, (True, math.nan, "1e-9", 0.0, -1.0, math.inf, HUGE),
        lambda v, live: theory.sstar_threshold(_spec(UNIFORM, live), v)),
    "pstar.tol": ("tol", 1e-8, (True, math.nan, "1e-8", 0.0, -1.0, math.inf, HUGE),
                  lambda v, live: theory.pstar(_spec(UNIFORM, live), v)),
    "make_prognostic_spec.a": ("a", 1, (True, math.nan, "0.5", 0.2, HUGE),
                               lambda v, live: pop.make_prognostic_spec(v)),
    **{f"make_categorical_spec.{field}": (
        field, 1, (True, math.nan, "0.5", -0.1, 1.5),
        lambda v, live, field=field: pop.make_categorical_spec(
            **{"mass_a": 0.5, "p_in_a": 0.5, "p_out": 0.25, field: v}))
       for field in ("mass_a", "p_in_a", "p_out")},
    **{f"make_categorical_spec.{field}": (
        field, 2, (True, math.nan, "2", math.inf, -math.inf, HUGE, -HUGE),
        lambda v, live, field=field: pop.make_categorical_spec(0.5, 0.5, 0.25, **{field: v}))
       for field in ("mu0_in", "mu0_out", "mu1_in", "mu1_out")},
    **{f"PopulationSpec.{field}": (
        field, 1, (True, math.nan, "1", -1.0, math.inf, HUGE),
        lambda v, live, field=field: replace(PROGNOSTIC, **{field: v}))
       for field in ("noise_sd0", "noise_sd1")},
    "make_categorical_spec.noise_sd": (
        "noise_sd", 1, (True, math.nan, "1", -1.0, math.inf, HUGE),
        lambda v, live: pop.make_categorical_spec(0.5, 0.5, 0.25, noise_sd=v)),
    "prognostic_bias_closed_form.a": ("a", 1, (True, math.nan, "0.5", 0.2, 1.5),
                                      lambda v, live: theory.prognostic_bias_closed_form(v)),
    "prognostic_sstar_lower.a": ("a", 1, (True, math.nan, "0.5", 0.2, 1.5),
                                 lambda v, live: theory.prognostic_sstar_lower(v)),
}


def _comparable(result):
    if isinstance(result, pop.PopulationSpec):
        result = pop.sample(result, 40, 3)
    if isinstance(result, pop.Sample):
        return [getattr(result, col).tolist() for col in ("w", "s", "y0", "y1", "y")]
    return result


class TestInputRules:
    @pytest.mark.parametrize("entry, bad", [
        (entry, bad) for entry, (_, _, refused, _) in RULES.items() for bad in refused],
        ids=lambda v: {HUGE: "10**400", -HUGE: "-10**400"}.get(v) if type(v) is int else None)
    def test_refused_before_any_work(self, monkeypatch, entry, bad):
        monkeypatch.setenv("MATCHBIAS_THREADS", "1")
        field, _, _, call = RULES[entry]
        with pytest.raises(ValueError, match=f"^{field} must be "):
            call(bad, False)

    @pytest.mark.parametrize("bad", [None, 0.5, "tri"])
    def test_score_map_must_be_callable(self, bad):
        with pytest.raises(ValueError, match="^score_from_uniform must be callable, got "):
            replace(PROGNOSTIC, score_from_uniform=bad)

    @pytest.mark.parametrize("entry", RULES)
    def test_valid_value_and_its_whole_float_agree(self, monkeypatch, entry):
        monkeypatch.setenv("MATCHBIAS_THREADS", "1")
        _, good, _, call = RULES[entry]
        assert _comparable(call(float(good), True)) == _comparable(call(good, True))
