"""Synthetic data: iid null streams for the size study, regime-shift demand scenarios.

The null study pushes iid draws batch-by-batch through the mean-test monitor
exactly as a stable forecast-loss stream would flow: the first batch
establishes the reference, each later batch is tested, acceptances extend
the reference, and a rejection resets it so the next batch re-warms. The
returned rejection frequency is total rejections over total tests across
replications, each replication seeded from (seed, replication index) so
results do not depend on execution order. A replication computes the
moments of all its batches in one vectorized call and then steps the
monitor batch by batch on them; the frequencies are those of stepping on
the raw batches.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .monitor import MeanTestPolicy, new_state, observe, row_moments
from .streams import StreamSet

DISTRIBUTIONS = ("gaussian", "chisquare5")


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


def random_source(seed) -> RandomSource:
    return RandomSource(seed)


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
    batch_size: int = 50
    alpha: float = 0.05
    n_replications: int = 1_000
    seed: int = 0
    reseed_with_rejecting_batch: bool = True

    def __post_init__(self):
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"distribution must be one of {DISTRIBUTIONS}")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if self.stream_length < 2 * self.batch_size:
            raise ValueError("stream_length must be >= 2 * batch_size")
        if self.n_replications < 1:
            raise ValueError("n_replications must be >= 1")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")


def _null_study_replication(config: NullStudyConfig, rep: int) -> tuple[int, int]:
    """(rejections, tests) for one replication."""
    source = RandomSource((config.seed, rep))
    n_batches = config.stream_length // config.batch_size
    draws = source.draw(config.distribution, n_batches * config.batch_size)
    batches = row_moments(draws.reshape(n_batches, config.batch_size))
    state = new_state(MeanTestPolicy(
        alpha=config.alpha,
        reseed_with_rejecting_batch=config.reseed_with_rejecting_batch,
    ))
    rejections = 0
    tests = 0
    for batch in batches:
        warm = len(state.reference) > 0
        decision = observe(state, batch)
        if warm:
            tests += 1
            if decision.retrain:
                rejections += 1
    return rejections, tests


def _null_study_chunk(args) -> tuple[int, int]:
    config, reps = args
    rejections = 0
    tests = 0
    for rep in reps:
        r, t = _null_study_replication(config, rep)
        rejections += r
        tests += t
    return rejections, tests


def run_null_study(config: NullStudyConfig, threads: int = 1) -> float:
    """Empirical rejection frequency of the monitor under a stable stream."""
    reps = list(range(config.n_replications))
    if threads <= 1 or config.n_replications == 1:
        rejections, tests = _null_study_chunk((config, reps))
    else:
        n_chunks = min(threads * 4, len(reps))
        chunks = [(config, reps[i::n_chunks]) for i in range(n_chunks)]
        rejections = tests = 0
        with ProcessPoolExecutor(max_workers=threads) as pool:
            for r, t in pool.map(_null_study_chunk, chunks):
                rejections += r
                tests += t
    return rejections / tests


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

    n_streams: int = 4
    n_days: int = 120
    slots_per_day: int = 60
    days_per_week: int = 7
    base_levels: tuple[float, ...] | None = None
    level_shifts: tuple[tuple[int, int, float], ...] = ()
    noise_scale: float = 2.0
    noise_correlation: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_streams < 1 or self.n_days < 1 or self.slots_per_day < 1:
            raise ValueError("n_streams, n_days, slots_per_day must be >= 1")
        if self.base_levels is not None and len(self.base_levels) != self.n_streams:
            raise ValueError("base_levels length must equal n_streams")
        if not -1.0 < self.noise_correlation < 1.0:
            raise ValueError("noise_correlation must be in (-1, 1)")
        if self.noise_correlation < 0.0 and self.n_streams > 2:
            raise ValueError("negative common-factor correlation only supported for 2 streams")
        for day, stream, mult in self.level_shifts:
            if not 1 <= day <= self.n_days:
                raise ValueError(f"shift day {day} outside 1..{self.n_days}")
            if not 0 <= stream < self.n_streams:
                raise ValueError(f"shift stream {stream} outside 0..{self.n_streams - 1}")
            if mult <= 0.0:
                raise ValueError("shift multipliers must be > 0")
        object.__setattr__(self, "level_shifts",
                           tuple((int(d), int(s), float(m)) for d, s, m in self.level_shifts))

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
        return {
            "n_streams": self.n_streams,
            "n_days": self.n_days,
            "slots_per_day": self.slots_per_day,
            "days_per_week": self.days_per_week,
            "base_levels": list(self.base_levels) if self.base_levels else None,
            "level_shifts": [list(s) for s in self.level_shifts],
            "noise_scale": self.noise_scale,
            "noise_correlation": self.noise_correlation,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RegimeScenario":
        kwargs = dict(data)
        if kwargs.get("base_levels") is not None:
            kwargs["base_levels"] = tuple(kwargs["base_levels"])
        kwargs["level_shifts"] = tuple(tuple(s) for s in kwargs.get("level_shifts", ()))
        return cls(**kwargs)

    def with_seed(self, seed: int) -> "RegimeScenario":
        return replace(self, seed=seed)


def gen_regime_streams(scenario: RegimeScenario) -> StreamSet:
    """Materialize a scenario into a StreamSet (batch size = one day of slots)."""
    sc = scenario
    n_ticks = sc.n_days * sc.slots_per_day
    levels = np.array(sc.base_levels if sc.base_levels is not None
                      else [20.0 + 10.0 * i for i in range(sc.n_streams)])

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
