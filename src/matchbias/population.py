"""Population definitions and i.i.d. sampling.

A population is described by a score distribution, a treatment-assignment
probability as a function of the score, and outcome models for the two
potential outcomes. Samples are drawn deterministically from a 64-bit seed
using a counter-based bit generator (Philox), so replications can run in
parallel without coordination. A seed's whole stream is its Philox key at
counter 0, which SeedSequence hashes from the seed; derive_streams computes
the seeds and keys of a range of replications in one vectorized pass, bit
for bit, so a run can seed each replication by resetting one Philox.
Given a list of seeds, `sample` draws one sample per seed as the rows of
one block, each bit for bit as it draws that seed alone: a spec states its
draws, so a row takes two generator calls and the block one score map.
"""

from __future__ import annotations

import csv
import math
import numbers
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Callable

import numpy as np

ScoreFunc = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class PopulationSpec:
    """A data-generating process on a scalar score.

    score_from_uniform maps a unit's Uniform[0, 1) draw to its score,
    assign_prob maps a score to the probability of treatment, mu0/mu1 are
    the conditional means of the two potential outcomes, and
    noise_sd0/noise_sd1 are the sds of their normal disturbances: None or
    a finite number >= 0 (real_number). None draws no noise, unlike an sd
    of 0, so the two are not the same stream. All callables are vectorized
    over numpy arrays and must be elementwise: the value at a uniform or a
    score may not depend on the other values in the array, nor on its
    shape, because a simulation applies them to a block of many samples at
    once (`sample` given a list of seeds). The theory routines integrate
    the score density score_pdf over score_support and refuse a spec
    without both; a score with atoms, as in make_categorical_spec, has no
    density, and its exact theory is not written yet.
    """

    score_from_uniform: ScoreFunc
    assign_prob: ScoreFunc
    mu0: ScoreFunc
    mu1: ScoreFunc
    noise_sd0: float | None
    noise_sd1: float | None
    tau_att_true: float | None = None
    score_pdf: ScoreFunc | None = None
    score_support: tuple[float, float] | None = None
    score_breakpoints: tuple[float, ...] = ()
    name: str = "custom"

    def __post_init__(self):
        if not callable(self.score_from_uniform):
            raise ValueError("score_from_uniform must be callable, "
                             f"got {self.score_from_uniform!r}")
        for field in ("noise_sd0", "noise_sd1"):
            if (sd := getattr(self, field)) is not None:
                object.__setattr__(self, field, real_number(
                    sd, field, "None or a finite number >= 0", lambda v: 0.0 <= v < math.inf))


@dataclass
class Sample:
    """An i.i.d. sample stored column-wise.

    `w`, `s`, `y0`, `y1`, `y` are aligned arrays of length n. Treated and
    control index sets preserve draw order. `y0`/`y1` may be NaN for real
    data where potential outcomes are unobserved. The index sets are
    computed from `w` once, on first use, and are read-only.
    """

    w: np.ndarray
    s: np.ndarray
    y0: np.ndarray
    y1: np.ndarray
    y: np.ndarray

    @property
    def n(self) -> int:
        return self.s.size

    @cached_property
    def treated_idx(self) -> np.ndarray:
        idx = (self.w == 1).nonzero()[0]
        idx.flags.writeable = False
        return idx

    @cached_property
    def control_idx(self) -> np.ndarray:
        idx = (self.w == 0).nonzero()[0]
        idx.flags.writeable = False
        return idx

    @property
    def n1(self) -> int:
        return self.treated_idx.size

    @property
    def n0(self) -> int:
        return self.control_idx.size

    @property
    def treated_scores(self) -> np.ndarray:
        return self.s[self.treated_idx]

    @property
    def control_scores(self) -> np.ndarray:
        return self.s[self.control_idx]


def derive_seed(master_seed: int, *indices: int) -> int:
    """Deterministic child seed keyed by (master seed, index path).

    Used to give every replication (and every simulation cell) its own
    independent, reproducible stream.
    """
    ss = np.random.SeedSequence((master_seed,) + tuple(indices))
    return int(ss.generate_state(1, np.uint64)[0])


# NumPy's SeedSequence hash (numpy/random/bit_generator.pyx), which NumPy
# keeps fixed so that seeds reproduce across versions. All arithmetic is on
# uint32 arrays with np.uint32 operands, so it wraps mod 2**32 the same way
# under numpy 1.x and 2.x.
_POOL = 4
_XSHIFT = np.uint32(16)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_OTHER_LANES = [[d for d in range(_POOL) if d != s] for s in range(_POOL)]


def _hash_powers(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k < count, as a read-only uint32 column."""
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    column = np.asarray(out, dtype=np.uint32)[:, None]
    column.flags.writeable = False
    return column


_OUT_CONSTS = _hash_powers(0x8B51F9DD, 0x58F38DED, _POOL + 1)


@lru_cache(maxsize=None)
def _mix_consts(words: int) -> np.ndarray:
    """The hash constant of each hashmix call that mixing `words` entropy
    words makes, and the one after; they depend on the count alone."""
    calls = _POOL * _POOL + _POOL * max(0, words - _POOL)
    return _hash_powers(0x43B0D7E5, 0x931E8875, calls + 1)


def _hashmix(value, consts):
    """hashmix of value, one lane per hash constant but the last."""
    v = (value ^ consts[:-1]) * consts[1:]
    return v ^ (v >> _XSHIFT)


def _mix(x, y):
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> _XSHIFT)


def _seed_pools(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence.pool of each column of entropy, a (words, m) uint32 array.

    Vectorized over the m columns and the four pool lanes.
    """
    consts = _mix_consts(entropy.shape[0])
    pool = np.zeros((_POOL, entropy.shape[1]), dtype=np.uint32)
    pool[:entropy.shape[0]] = entropy[:_POOL]
    pool = _hashmix(pool, consts[:_POOL + 1])
    k = _POOL
    for src, dst in enumerate(_OTHER_LANES):  # mix every lane into the others
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[k:k + _POOL]))
        k += _POOL - 1
    for word in entropy[_POOL:]:  # entropy beyond the pool: into every lane
        pool = _mix(pool, _hashmix(word, consts[k:k + _POOL + 1]))
        k += _POOL
    return pool


def _words(value: int) -> list[int]:
    """value as little-endian uint32 words, as SeedSequence splits an int."""
    out = [value & 0xFFFFFFFF]
    while value > 0xFFFFFFFF:
        value >>= 32
        out.append(value & 0xFFFFFFFF)
    return out


def derive_streams(seed: int, start: int, stop: int) -> tuple[list[int], list[list[int]]]:
    """Replication seeds and Philox keys of the indices start <= r < stop.

    Returns (rep_seeds, keys): rep_seeds[i] equals derive_seed(seed, r) and
    keys[i] equals SeedSequence(rep_seeds[i]).generate_state(2, np.uint64),
    the key of the replication's Philox stream, bit for bit. seed is any
    whole number >= 0; an index at or above 2**32 raises ValueError.
    """
    if not 0 <= start <= stop <= 1 << 32:
        raise ValueError(f"replication indices must satisfy 0 <= start <= stop "
                         f"<= 2**32, got [{start}, {stop})")
    head = _words(seed)
    entropy = np.empty((len(head) + 1, stop - start), dtype=np.uint32)
    entropy[:-1] = np.asarray(head, dtype=np.uint32)[:, None]
    entropy[-1] = np.arange(start, stop, dtype=np.uint32)
    # generate_state(1, np.uint64) is two words, low first. As entropy, a rep
    # seed below 2**32 is one word, but SeedSequence pads its pool with zero
    # words, so the two words give the same pool.
    seed_words = _hashmix(_seed_pools(entropy)[:2], _OUT_CONSTS[:3])
    key_words = _hashmix(_seed_pools(seed_words), _OUT_CONSTS)
    # rows seed, key[0], key[1] of uint64, each from two words, low first
    words = np.concatenate((seed_words, key_words)).astype(np.uint64)
    joined = words[0::2] | words[1::2] << np.uint64(32)
    return joined[0].tolist(), joined[1:].T.tolist()


def whole_number(value, name: str, least: int) -> int:
    """value as an int, a whole float such as JSON's 1e4 included; a bool, a
    fraction, NaN, a non-number or a value below `least` raises ValueError."""
    if type(value) is int and value >= least:  # common case; skips slow ABC checks
        return value
    if (isinstance(value, bool) or not isinstance(value, numbers.Real) or value < least
            or not (isinstance(value, numbers.Integral) or float(value).is_integer())):
        raise ValueError(f"{name} must be a whole number >= {least}, got {value!r}")
    return int(value)


def real_number(value, name: str, rule: str, holds: Callable[[float], bool]) -> float:
    """value as a float if it is a number, not a bool, and holds(value) is true
    (NaN fails every comparison); otherwise ValueError "<name> must be <rule>".
    An int beyond the float range, such as 10**400, is refused the same way."""
    try:
        if not isinstance(value, bool) and isinstance(value, numbers.Real) and holds(value):
            return float(value)
    except OverflowError:  # from float() or from a holds such as math.isfinite
        pass
    raise ValueError(f"{name} must be {rule}, got {value!r}")


class _Streams(threading.local):
    """Per thread: the Philox key of each replication seed in hand, and one
    Philox and Generator that `_rng` resets to such a key."""

    def __init__(self):
        self.keys: dict[int, list[int]] = {}
        self.bitgen = np.random.Philox(0)
        # counter 0 and an empty buffer, as lists: the state setter reads
        # them item by item, twice as fast from lists as from arrays
        self.state = self.bitgen.state
        self.state["state"]["counter"] = self.state["state"]["counter"].tolist()
        self.state["buffer"] = self.state["buffer"].tolist()
        self.generator = np.random.Generator(self.bitgen)


_streams = _Streams()


def prepare_streams(seed: int, start: int, stop: int) -> list[int]:
    """derive_seed(seed, r) for start <= r < stop, derived in one pass.

    Each replication's Philox key goes into this thread's table, which
    replaces the last call's, so `sample` at those seeds skips SeedSequence.
    Index `start` is re-derived through NumPy's own SeedSequence; a mismatch
    raises RuntimeError naming the cell seed and the index.
    """
    rep_seeds, keys = derive_streams(seed, start, stop)
    if rep_seeds:
        key = np.random.SeedSequence(rep_seeds[0]).generate_state(2, np.uint64)
        if rep_seeds[0] != derive_seed(seed, start) or keys[0] != key.tolist():
            raise RuntimeError(f"derive_streams disagrees with numpy.random.SeedSequence "
                               f"at cell seed {seed}, index {start}")
    _streams.keys = dict(zip(rep_seeds, keys))
    return rep_seeds


def _rng(seed: int) -> np.random.Generator:
    """A Generator on seed's Philox stream. For a seed in this thread's table
    it is the thread's one Generator, reset to the seed's key at counter 0
    and valid until the next call; for any other seed it is a new one."""
    key = _streams.keys.get(seed)
    if key is None:
        return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    _streams.state["state"]["key"] = key
    _streams.bitgen.state = _streams.state
    return _streams.generator


def _assignment(spec: PopulationSpec, s):
    """(p, inside): the assignment probability at the scores s, and a flag
    on each value of p that lies in [0, 1]."""
    p = np.asarray(spec.assign_prob(s), dtype=float)
    return p, (p >= 0.0) & (p <= 1.0)  # NaN fails both comparisons


def _outcomes(spec: PopulationSpec, s, w, normals):
    """(y0, y1, y) of one sample, or of rows of samples, from their scores
    s, treatment flags w and an iterator over the standard normals of each
    arm with an sd: each arm's mean plus its noise (0.0 without), and the
    outcome under the assigned arm."""
    y0, y1 = (np.asarray(mu(s), dtype=float) + _noise(sd, normals)
              for mu, sd in ((spec.mu0, spec.noise_sd0), (spec.mu1, spec.noise_sd1)))
    return y0, y1, np.where(w == 1, y1, y0)


def _noise(sd, normals):
    """An arm's noise: 0.0 without an sd, else its sd times the arm's next
    normals from the iterator, the normals themselves at sd 1.0 (1.0 * x is x)."""
    if sd is None:
        return 0.0
    e = next(normals)
    return e if sd == 1.0 else sd * e


def sample(spec: PopulationSpec, n: int, seed) -> Sample | SampleRows:
    """Draw n units i.i.d. from the population.

    Per unit: draw the score, assign treatment as Bernoulli of the
    assignment probability, draw both potential outcomes, and realize the
    outcome under the assigned arm, drawing the stream in calls of n as they
    are used: the score uniforms, the assignment uniforms, and the normals
    of y0 and of y1 where the arm has an sd. Deterministic given (spec, n,
    seed). n and seed follow whole_number: whole numbers >= 0, 40.0
    drawing as 40; n = 0 gives an empty sample. An assignment probability
    outside [0, 1] raises ValueError before the outcomes are drawn.

    Given a list of seeds, returns SampleRows: row i is the Sample drawn at
    the i-th seed, bit for bit. Each seed's stream is drawn in the same
    order into its row, in two generator calls; the spec's
    score_from_uniform, assign_prob, mu0 and mu1 then run once on the
    whole (rows, n) block, which is why they must be elementwise, and a
    row whose probabilities leave [0, 1] is flagged rather than raised.
    """
    n = whole_number(n, "n", 0)
    if isinstance(seed, list):
        return _sample_rows(spec, n, [whole_number(x, "seed", 0) for x in seed])
    rng = _rng(whole_number(seed, "seed", 0))
    s = np.asarray(spec.score_from_uniform(rng.random(n)), dtype=float)
    p, inside = _assignment(spec, s)
    if not inside.all():
        raise ValueError("assign_prob left [0, 1] on the drawn scores")
    w = (rng.random(n) < p).astype(np.int8)
    normals = (rng.standard_normal(n) for _ in range(2))  # drawn as _outcomes takes them
    return Sample(w, s, *_outcomes(spec, s, w, normals))


@dataclass(frozen=True)
class SampleRows:
    """Samples of one size as rows: row i of each (rows, n) array is what
    `sample` draws for the i-th seed. valid flags the rows whose assignment
    probabilities all lie in [0, 1]; `sample` raises for the others."""

    s: np.ndarray
    w: np.ndarray
    y0: np.ndarray
    y1: np.ndarray
    y: np.ndarray
    valid: np.ndarray


def _sample_rows(spec: PopulationSpec, n: int, seeds: list[int]) -> SampleRows:
    u = np.empty((len(seeds), 2, n))
    e = np.empty((len(seeds), (spec.noise_sd0 is not None) + (spec.noise_sd1 is not None), n))
    for seed, u_row, e_row in zip(seeds, u, e):  # `sample`'s stream, in two calls
        rng = _rng(seed)
        rng.random(out=u_row)
        rng.standard_normal(out=e_row)
    s = np.asarray(spec.score_from_uniform(u[:, 0]), dtype=float)
    p, inside = _assignment(spec, s)
    valid = np.broadcast_to(inside, s.shape).all(axis=1)
    w = (u[:, 1] < p).astype(np.int8)
    return SampleRows(s, w, *_outcomes(spec, s, w, iter(e.swapaxes(0, 1))), valid)


# --- building blocks (module-level so specs stay picklable) ---

def _triangular_quantile(u):
    # inverse CDF of f(s) = s on [0,1], 2-s on (1,2]: r = sqrt(2u) up to
    # u = 1/2, else 2 - r with r = sqrt(2(1 - u)). min(u, 1 - u) is the
    # argument in both (1 - u is exact above 1/2 and at least 1/2 below),
    # and r * 1 + 0 and r * -1 + 2 are exact, so no branch is taken on u
    r = np.minimum(u, 1.0 - u)
    r *= 2.0
    np.sqrt(r, out=r)
    two = (u > 0.5) * 2.0
    r *= 1.0 - two
    r += two
    return r


def _triangular_pdf(s):
    s = np.asarray(s, dtype=float)
    return np.where(s <= 1.0, s, 2.0 - s) * ((s >= 0.0) & (s <= 2.0))


def _linear_assign(s, denom):
    return np.asarray(s, dtype=float) / denom


def _square(s):
    return np.asarray(s, dtype=float) ** 2


def _const(s, value):
    out = np.empty_like(s, dtype=float)  # cheaper than np.full_like on small arrays
    out.fill(value)
    return out


def _uniform_quantile(u, upper):
    return u * upper


def _uniform_pdf(s, upper):
    s = np.asarray(s, dtype=float)
    return np.where((s >= 0.0) & (s <= upper), 1.0 / upper, 0.0)


def _identity(s):
    return np.asarray(s, dtype=float)


def _two_point_quantile(u, mass_a, s_a, s_b):
    return np.where(u < mass_a, s_a, s_b)


def _two_point_values(s, s_a, value_a, value_b):
    s = np.asarray(s, dtype=float)
    return np.where(s == s_a, value_a, value_b)


def make_prognostic_spec(a: float) -> PopulationSpec:
    """Prognostic-score population: S = X1 + X3 with X1, X3 ~ Uniform[0,1].

    The score has triangular density on [0, 2]; treatment probability given
    the score is s / (2a + 2); Y(0) = S^2 + e0 and Y(1) = 5/2 + e1 with
    standard-normal noise. The true ATT is 1 for every a. Scores are drawn
    directly from the triangular law, one uniform per unit, rather than via
    the three covariates (distributionally equivalent, and four draws per
    unit instead of six).
    """
    a = real_number(a, "a", "a number >= 1/3", lambda v: v >= 1.0 / 3.0)
    return PopulationSpec(
        score_from_uniform=_triangular_quantile,
        assign_prob=partial(_linear_assign, denom=2.0 * a + 2.0),
        mu0=_square,
        mu1=partial(_const, value=2.5),
        noise_sd0=1.0,  # 1.0 * x is x: the stream of unscaled normals
        noise_sd1=1.0,
        tau_att_true=1.0,
        score_pdf=_triangular_pdf,
        score_support=(0.0, 2.0),
        score_breakpoints=(1.0,),
        name=f"prognostic(a={a:g})",
    )


def make_uniform_propensity_spec(upper: float) -> PopulationSpec:
    """Population whose propensity score is Uniform[0, upper] and is the score itself.

    Both potential outcomes equal the score, without noise.
    """
    upper = real_number(upper, "upper", "in (0, 1]", lambda v: 0.0 < v <= 1.0)
    return PopulationSpec(
        score_from_uniform=partial(_uniform_quantile, upper=upper),
        assign_prob=_identity,
        mu0=_identity,
        mu1=_identity,
        noise_sd0=None,
        noise_sd1=None,
        score_pdf=partial(_uniform_pdf, upper=upper),
        score_support=(0.0, upper),
        name=f"uniform-propensity[0,{upper:g}]",
    )


def make_categorical_spec(mass_a: float, p_in_a: float, p_out: float,
                          mu0_in: float = 0.0, mu0_out: float = 0.0,
                          mu1_in: float = 0.0, mu1_out: float = 0.0,
                          noise_sd: float = 0.0) -> PopulationSpec:
    """Two-category population with the category propensity as the score.

    A unit belongs to category A with probability mass_a, in which case its
    score (and treatment probability) is p_in_a; otherwise the score is
    p_out. Outcome means are constant within category. Noise defaults to
    zero so the worked matching arithmetic is exact. mass_a, p_in_a and
    p_out follow real_number in [0, 1], the four means a finite number and
    noise_sd a finite number >= 0.
    """
    mass_a, p_in_a, p_out = (
        real_number(value, name, "in [0, 1]", lambda v: 0.0 <= v <= 1.0)
        for name, value in (("mass_a", mass_a), ("p_in_a", p_in_a), ("p_out", p_out)))
    mu0_in, mu0_out, mu1_in, mu1_out = (
        real_number(value, name, "a finite number", math.isfinite)
        for name, value in (("mu0_in", mu0_in), ("mu0_out", mu0_out),
                            ("mu1_in", mu1_in), ("mu1_out", mu1_out)))
    noise_sd = real_number(noise_sd, "noise_sd", "a finite number >= 0",
                           lambda v: 0.0 <= v < math.inf)
    pi_bar = mass_a * p_in_a + (1.0 - mass_a) * p_out
    tau = None
    if pi_bar > 0.0:
        pr_a_treated = mass_a * p_in_a / pi_bar
        tau = (pr_a_treated * (mu1_in - mu0_in)
               + (1.0 - pr_a_treated) * (mu1_out - mu0_out))
    noise = None if noise_sd == 0.0 else noise_sd  # zero noise draws nothing
    return PopulationSpec(
        score_from_uniform=partial(_two_point_quantile, mass_a=mass_a,
                                   s_a=p_in_a, s_b=p_out),
        assign_prob=_identity,
        mu0=partial(_two_point_values, s_a=p_in_a, value_a=mu0_in, value_b=mu0_out),
        mu1=partial(_two_point_values, s_a=p_in_a, value_a=mu1_in, value_b=mu1_out),
        noise_sd0=noise,
        noise_sd1=noise,
        tau_att_true=tau,
        score_support=(min(p_in_a, p_out), max(p_in_a, p_out)),
        name=f"categorical(mass_a={mass_a:g}, p_in_a={p_in_a:g}, p_out={p_out:g})",
    )


def sample_from_csv(path) -> Sample:
    """Read a sample from CSV.

    Requires id, w, s columns, with every s finite; y is optional (NaN when
    absent), as are the potential-outcome columns y0, y1 (real-data mode).
    """
    return sample_and_ids_from_csv(path)[0]


def sample_and_ids_from_csv(path) -> tuple[Sample, list[str]]:
    """Read a sample from CSV as sample_from_csv does, with its id column.

    The ids are returned as text, one per row in file order.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty file")
        cols = set(reader.fieldnames)
        missing = {"id", "w", "s"} - cols
        if missing:
            raise ValueError(f"{path}: missing required columns {sorted(missing)}")
        ids, w, s, y0, y1, y = [], [], [], [], [], []
        for lineno, row in enumerate(reader, start=2):
            try:
                w.append(int(row["w"]))
                s.append(float(row["s"]))
                if not math.isfinite(s[-1]):
                    raise ValueError(f"s must be finite, got {row['s']!r}")
                y0.append(_opt_float(row.get("y0")))
                y1.append(_opt_float(row.get("y1")))
                y.append(_opt_float(row.get("y")))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: bad row ({exc})") from None
            ids.append(row["id"])
    wa = np.asarray(w, dtype=np.int8)
    if wa.size and not np.all((wa == 0) | (wa == 1)):
        raise ValueError(f"{path}: w must be 0 or 1")
    smp = Sample(wa, np.asarray(s, dtype=float), np.asarray(y0, dtype=float),
                 np.asarray(y1, dtype=float), np.asarray(y, dtype=float))
    return smp, ids


def _opt_float(text):
    if text is None or text == "":
        return math.nan
    return float(text)
