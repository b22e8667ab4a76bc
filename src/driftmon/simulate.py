"""Synthetic data: iid null streams for the size study, regime-shift demand scenarios.

The null study pushes iid draws batch-by-batch through the mean-test monitor
exactly as a stable forecast-loss stream would flow: the first batch
establishes the reference, each later batch is tested, acceptances extend
the reference, and a rejection resets it so the next batch re-warms. The
returned rejection frequency is total rejections over total tests across
replications, each replication seeded from (seed, replication index) so
results do not depend on execution order. One process steps all
replications together: each round tests every replication's next WINDOW
batches in one array Welch test, against the references the monitor would
hold if the window's earlier tests accepted, and keeps the tests up to each
replication's first rejection. Counts and p-values are those of stepping
``observe`` on the raw batches, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError
# observe is unused here; bench/tracing.py wraps simulate.observe by name
from .monitor import merged_moments, moment_arrays, observe  # noqa: F401
from .schema import bounded, check_fields
from .stats import welch_p_values
from .streams import MAX_MAGNITUDE, StreamSet

DISTRIBUTIONS = ("gaussian", "chisquare5")
NULL_STUDY_COLUMNS = ["distribution", "length", "batch", "alpha", "rejection_freq"]
# Upcoming batches a null-study round tests per replication: wider windows
# waste more tests after a rejection, narrower ones pay more numpy calls per test.
WINDOW = 16
# Values a replication draws at a time, at least a window's batches' worth.
DRAW_VALUES = 4096
# Replications stepped together at most; a larger study steps them in groups,
# so its memory does not grow with the replication count.
REPLICATION_GROUP = 1000


class RandomSource:
    """Seed-deterministic generator of the study's two distributions."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def gaussian(self, n: int) -> np.ndarray:
        return self._rng.standard_normal(n)

    def chisquare5(self, n: int) -> np.ndarray:
        z = self._rng.standard_normal((n, 5))
        return np.einsum("ij,ij->i", z, z)

    def draw(self, distribution: str, n: int) -> np.ndarray:
        if distribution == "gaussian":
            return self.gaussian(n)
        if distribution == "chisquare5":
            return self.chisquare5(n)
        raise ValueError(f"unknown distribution {distribution!r}")


@dataclass(frozen=True)
class NullStudyConfig:
    """Size-study setup.

    reseed_with_rejecting_batch controls what the reference becomes after a
    rejection. Seeding it with the batch that rejected (the default here)
    chains borderline batches into the next test and puts the false-alarm
    rate a couple of points above the nominal size (about 0.07 at a 5% test
    on Gaussian streams); warming up from the following batch instead keeps
    the rate near nominal.
    """

    distribution: str = "gaussian"
    stream_length: int = 10_000
    batch_size: int = bounded(50, "[2, inf)")
    alpha: float = bounded(0.05, "(0, 1]")
    n_replications: int = bounded(1_000, "[1, inf)")
    seed: int = bounded(0, "[0, inf)")
    reseed_with_rejecting_batch: bool = True

    def __post_init__(self):
        check_fields(self)
        if self.distribution not in DISTRIBUTIONS:
            raise ConfigError("distribution", f"must be one of {DISTRIBUTIONS}")
        if self.stream_length < 2 * self.batch_size:
            raise ConfigError("stream_length", "must be >= 2 * batch_size")


def replication_counts(config: NullStudyConfig) -> tuple[np.ndarray, np.ndarray]:
    """(rejections, tests) of each replication, all replications stepped together.

    A round tests each replication's next WINDOW batches against speculative
    references: the reference each test would see if every earlier test of
    the window accepted. The first rejection ends the replication's window
    and the tests after it are dropped, so the counts are those of stepping
    ``observe`` batch by batch. The references are ``ReferenceBatch``'s
    (both merge with ``merged_moments``) and the p-values are
    ``welch_test_from_moments``'s, bit for bit. A replication's stream is
    drawn a chunk of whole batches at a time, and only the moments of
    batches drawn but not yet stepped are kept, so memory does not grow
    with the stream length.
    """
    total = config.n_replications
    groups = [_group_counts(config, range(first, min(first + REPLICATION_GROUP, total)))
              for first in range(0, total, REPLICATION_GROUP)]
    return tuple(np.concatenate(counts) for counts in zip(*groups))


def _group_counts(config: NullStudyConfig, replications: range) -> tuple[np.ndarray, np.ndarray]:
    """``replication_counts`` of the given replications."""
    reps, size = len(replications), config.batch_size
    n_batches = config.stream_length // size
    chunk = min(n_batches, max(WINDOW + 1, DRAW_VALUES // size))
    sources = [RandomSource((config.seed, rep)) for rep in replications]
    # moments (mean, var, m2) of batches start .. drawn - 1 of each replication
    moments = np.zeros((3, reps, chunk + WINDOW))
    start = np.zeros(reps, dtype=np.int64)
    drawn = np.zeros(reps, dtype=np.int64)
    pos = np.zeros(reps, dtype=np.int64)  # each replication's next batch
    ref_n = np.zeros(reps, dtype=np.int64)
    ref_mean = np.zeros(reps)
    ref_m2 = np.zeros(reps)
    rejections = np.zeros(reps, dtype=np.int64)
    tests = np.zeros(reps, dtype=np.int64)
    steps = np.arange(WINDOW + 1)
    while (active := np.flatnonzero(pos < n_batches)).size:
        # keep a warm-up batch and a whole window ahead of every replication
        for rep in active[(pos[active] + WINDOW >= drawn[active]) & (drawn[active] < n_batches)]:
            ahead, offset = drawn[rep] - pos[rep], pos[rep] - start[rep]
            moments[:, rep, :ahead] = moments[:, rep, offset:offset + ahead]
            new = min(chunk, n_batches - drawn[rep])
            block = sources[rep].draw(config.distribution, new * size).reshape(new, size)
            moments[:, rep, ahead:ahead + new] = moment_arrays(block)
            start[rep], drawn[rep] = pos[rep], drawn[rep] + new
        # an empty reference takes the next batch untested
        empty = active[ref_n[active] == 0]
        if empty.size:
            mean, _, m2 = moments[:, empty, pos[empty] - start[empty]]
            ref_n[empty], ref_mean[empty], ref_m2[empty] = merged_moments(
                ref_n[empty], ref_mean[empty], ref_m2[empty], size, mean, m2)
            pos[empty] += 1
            active = active[pos[active] < n_batches]
        # the window's batches; past the stream's end, its last batch stands in
        cols = np.minimum((pos - start)[active, None] + steps[:WINDOW],
                          (drawn - start - 1)[active, None])
        means, variances, m2s = moments[:, active[:, None], cols]
        # the speculative reference before each batch of the window, and after the last
        ns = ref_n[active, None] + size * steps
        ref_means = np.empty(ns.shape)
        ref_m2s = np.empty(ns.shape)
        n, mean, m2 = ref_n[active], ref_mean[active], ref_m2[active]
        ref_means[:, 0], ref_m2s[:, 0] = mean, m2
        for k in range(WINDOW):
            n, mean, m2 = merged_moments(n, mean, m2, size, means[:, k], m2s[:, k])
            ref_means[:, k + 1], ref_m2s[:, k + 1] = mean, m2
        length = np.minimum(WINDOW, n_batches - pos[active])
        tested = steps[:WINDOW] < length[:, None]
        n1 = ns[:, :WINDOW][tested]
        reject = np.zeros(tested.shape, dtype=bool)
        reject[tested] = welch_p_values(n1, ref_means[:, :WINDOW][tested],
                                        ref_m2s[:, :WINDOW][tested] / (n1 - 1), size,
                                        means[tested], variances[tested]) < config.alpha
        hit = reject.any(axis=1)
        used = np.where(hit, reject.argmax(axis=1) + 1, length)
        rows = np.arange(active.size)
        ref_n[active], ref_mean[active], ref_m2[active] = (
            ns[rows, used], ref_means[rows, used], ref_m2s[rows, used])
        rejections[active] += hit
        tests[active] += used
        pos[active] += used
        # a rejection empties the reference, which the rejecting batch may seed
        reset = active[hit]
        ref_n[reset], ref_mean[reset], ref_m2[reset] = 0, 0.0, 0.0
        if config.reseed_with_rejecting_batch and reset.size:
            last = used[hit] - 1
            ref_n[reset], ref_mean[reset], ref_m2[reset] = merged_moments(
                0, 0.0, 0.0, size, means[rows[hit], last], m2s[rows[hit], last])
    return rejections, tests


def run_null_study(config: NullStudyConfig, threads: int = 1) -> float:
    """Empirical rejection frequency of the monitor under a stable stream.

    ``threads`` is accepted, so that existing commands still run, and
    ignored: one process steps all replications together, which took less
    time than a process pool did.
    """
    if threads < 1:
        raise ConfigError("threads", f"{threads!r} is outside [1, inf)")
    rejections, tests = replication_counts(config)
    return int(rejections.sum()) / int(tests.sum())


# ---------------------------------------------------------------------------
# Regime-shift demand scenarios
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegimeScenario:
    """Seasonal streams with scheduled multiplicative level shifts.

    Each stream is base_level x level(day) x slot_profile x dow_profile plus
    correlated Gaussian noise, clipped at zero. level_shifts entries are
    (day, stream index, multiplier); the multiplier applies from that day on.
    """

    n_streams: int = bounded(4, "[1, inf)")
    n_days: int = bounded(120, "[1, inf)")
    slots_per_day: int = bounded(60, "[1, inf)")
    days_per_week: int = bounded(7, "[1, inf)")
    # magnitudes stay below MAX_MAGNITUDE: squared-error moments overflowed at 1e100
    base_levels: tuple[float, ...] | None = bounded(None, "(-1e50, 1e50)")
    level_shifts: tuple[tuple[int, int, float], ...] = ()
    noise_scale: float = bounded(2.0, "(-1e50, 1e50)")
    noise_correlation: float = bounded(0.0, "(-1, 1)")
    seed: int = bounded(0, "[0, inf)")

    def __post_init__(self):
        check_fields(self)
        if self.base_levels is not None and len(self.base_levels) != self.n_streams:
            raise ConfigError("base_levels", "length must equal n_streams")
        if self.noise_correlation < 0.0 and self.n_streams != 2:
            raise ConfigError("noise_correlation",
                              "a negative common-factor correlation needs exactly 2 streams")
        peaks = [abs(level) for level in self.stream_levels]
        for day, stream, mult in self.level_shifts:
            if not 1 <= day <= self.n_days:
                raise ConfigError("level_shifts", f"shift day {day} outside 1..{self.n_days}")
            if not 0 <= stream < self.n_streams:
                raise ConfigError("level_shifts",
                                  f"shift stream {stream} outside 0..{self.n_streams - 1}")
            if mult <= 0.0:
                raise ConfigError("level_shifts", "shift multipliers must be > 0")
            peaks[stream] *= max(mult, 1.0)
        if max(peaks) >= MAX_MAGNITUDE:
            raise ConfigError("level_shifts", "levels with shifts applied must be below 1e50")

    @property
    def stream_levels(self) -> tuple[float, ...]:
        """Each stream's level before shifts: base_levels, or 20, 30, 40, ... when unset."""
        return self.base_levels or tuple(20.0 + 10.0 * i for i in range(self.n_streams))

    @classmethod
    def desk_default(cls, seed: int = 0) -> "RegimeScenario":
        """Small scenario for minutes-scale runs: 4 streams, 120 days, one shift each."""
        return cls(
            n_streams=4,
            n_days=120,
            slots_per_day=60,
            level_shifts=((50, 0, 4.0), (62, 1, 0.25), (74, 2, 3.0), (86, 3, 2.2)),
            noise_scale=2.0,
            noise_correlation=0.3,
            seed=seed,
        )

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "RegimeScenario":
        return cls(**data)


def gen_regime_streams(scenario: RegimeScenario) -> StreamSet:
    """Materialize a scenario into a StreamSet (batch size = one day of slots)."""
    sc = scenario
    n_ticks = sc.n_days * sc.slots_per_day
    levels = np.array(sc.stream_levels)

    profile_rng = np.random.default_rng((sc.seed, 1))
    slot = np.arange(sc.slots_per_day)
    slot_frac = slot / sc.slots_per_day
    slot_profiles = np.empty((sc.n_streams, sc.slots_per_day))
    dow_profiles = np.empty((sc.n_streams, sc.days_per_week))
    for s in range(sc.n_streams):
        phase1, phase2 = profile_rng.uniform(0.0, 2.0 * np.pi, size=2)
        shape = (1.0
                 + 0.45 * np.sin(2.0 * np.pi * slot_frac + phase1)
                 + 0.25 * np.sin(4.0 * np.pi * slot_frac + phase2))
        slot_profiles[s] = np.maximum(shape, 0.2)
        dphase = profile_rng.uniform(0.0, 2.0 * np.pi)
        days = np.arange(sc.days_per_week)
        dow_profiles[s] = 1.0 + 0.2 * np.sin(2.0 * np.pi * days / sc.days_per_week + dphase)

    day_of_tick = np.arange(n_ticks) // sc.slots_per_day       # 0-based day
    slot_of_tick = np.arange(n_ticks) % sc.slots_per_day
    dow_of_tick = day_of_tick % sc.days_per_week

    level_by_day = np.tile(levels, (sc.n_days, 1))             # (n_days, D)
    for day, stream, mult in sc.level_shifts:
        level_by_day[day - 1:, stream] *= mult

    signal = (level_by_day[day_of_tick, :]
              * slot_profiles[:, slot_of_tick].T
              * dow_profiles[:, dow_of_tick].T)

    noise_rng = np.random.default_rng((sc.seed, 2))
    rho = sc.noise_correlation
    common = noise_rng.standard_normal(n_ticks)
    idio = noise_rng.standard_normal((n_ticks, sc.n_streams))
    if rho >= 0.0:
        eps = np.sqrt(rho) * common[:, None] + np.sqrt(1.0 - rho) * idio
    else:
        eps = idio.copy()
        eps[:, 1] = rho * idio[:, 0] + np.sqrt(1.0 - rho * rho) * idio[:, 1]

    values = np.maximum(signal + sc.noise_scale * eps, 0.0)
    stream_ids = tuple(f"s{i + 1}" for i in range(sc.n_streams))
    return StreamSet(values=values, stream_ids=stream_ids,
                     slots_per_batch=sc.slots_per_day)
