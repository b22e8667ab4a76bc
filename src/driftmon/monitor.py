"""Per-stream retraining policies over the forecast-loss stream.

Policies decide, at each completed batch end, whether the stream's model
should be refit:

* MeanTestPolicy: test the incoming loss batch against a reference batch of
  losses from the current stable regime. Accepting appends the batch to the
  reference; rejecting triggers retraining and resets the reference, which by
  default is re-established from the *next* batch (produced by the fresh
  model) so losses from the rejected regime never contaminate it. Setting
  ``reseed_with_rejecting_batch`` instead seeds the new reference with the
  batch that caused the rejection.
* PeltPolicy: run an exact penalized changepoint segmentation over the
  per-batch mean losses accumulated since the last retrain; a detected
  changepoint triggers retraining and restarts the history after it. The
  history (a PeltHistory) carries exact prefix sums of its values, so each
  segment cost takes O(1), and the search, which a step with a fixed
  penalty resumes at the new batch. The default penalty changes with every
  batch, so then the search re-runs from scratch, reading the segment costs
  that earlier re-runs cached in the history.
* EveryKBatches / NeverPolicy: deterministic schedules.

Each policy class implements the Policy interface (its step, decision label,
run-label tag and flat config keys: ``every_k``, ``pelt_penalty``, ...); ``observe`` is the one call per batch
end. One MonitorState per stream; steps within a stream are strictly sequential.

A step's input is a loss batch or its BatchMoments (size, mean, ddof=1
variance and sum of squared deviations). The moments of a batch are computed
once and shared by the Welch test and the reference update;
``moment_arrays`` computes those of a whole block of batches in one call,
with the same numpy expressions, so the results are identical either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import ClassVar, NamedTuple

import numpy as np

from .errors import InsufficientSample
from .schema import bounded, check_fields
from .stats import (Segment, SummedValues, TestResult, gaussian_segment_cost,
                    welch_test_from_moments)

# Run-log decision labels of a retrain; the others are warmup, accept and
# hold, and "final" marks the last scored batch, which no decision follows.
RETRAIN_LABELS = frozenset({"reject", "retrain"})


# ---------------------------------------------------------------------------
# State
# ---------------------------------------------------------------------------

class BatchMoments(NamedTuple):
    """A loss batch with its size, mean, ddof=1 variance and m2 (ddof=0 variance * n).

    ``var`` is NaN for a batch of fewer than two losses.
    """

    values: np.ndarray
    n: int
    mean: float
    var: float
    m2: float


def moment_arrays(x: np.ndarray):
    """(mean, ddof=1 variance, m2) along the last axis, which has >= 2 entries.

    These are ``x.mean(axis=-1)``, ``x.var(axis=-1, ddof=1)`` and
    ``x.var(axis=-1) * n`` bit for bit: the same ufunc calls as ``np.mean``
    and ``np.var``, with the mean and the sum of squared deviations computed
    once for all three.
    """
    n = x.shape[-1]
    mean = np.add.reduce(x, axis=-1, keepdims=True) / n
    dev = x - mean
    ssd = np.add.reduce(dev * dev, axis=-1)
    return mean[..., 0], ssd / (n - 1), ssd / n * n


def batch_moments(losses) -> BatchMoments:
    """Moments of one loss batch; a BatchMoments is returned unchanged."""
    if isinstance(losses, BatchMoments):
        return losses
    x = np.asarray(losses, dtype=float).ravel()
    n = x.size
    if n < 2:
        mean = float(x.mean()) if n else math.nan
        return BatchMoments(x, n, mean, math.nan, 0.0)
    mean, var, m2 = moment_arrays(x)
    return BatchMoments(x, n, float(mean), float(var), float(m2))


def merged_moments(n, mean, m2, b_n, b_mean, b_m2):
    """(n, mean, m2) of a sample merged with a batch, from both their moments.

    Chan et al.'s pairwise update. It takes Python numbers or numpy arrays
    alike, and elementwise it rounds the same either way.
    """
    total = n + b_n
    delta = b_mean - mean
    return total, mean + delta * b_n / total, m2 + (b_m2 + delta * delta * n * b_n / total)


class ReferenceBatch:
    """Running moments of the current stable regime's losses.

    Appends merge batch moments into the running mean and sum of squared
    deviations, so the monitoring test needs no second pass over history.
    Loss chunks are kept only when ``max_len`` caps the reference, which
    needs them to drop its oldest losses; ``losses`` exists only then. An
    uncapped reference holds its moments alone, so its memory stays constant
    however long the stable regime lasts.
    """

    def __init__(self, max_len: int | None = None):
        self.max_len = max_len
        self._chunks: list[np.ndarray] | None = None if max_len is None else []
        self.n = 0
        self.mean = 0.0
        self._m2 = 0.0

    def __len__(self) -> int:
        return self.n

    @property
    def losses(self) -> np.ndarray:
        """The kept losses, oldest first; only a capped reference keeps them."""
        if self._chunks is None:
            raise AttributeError("an uncapped reference keeps no losses")
        if not self._chunks:
            return np.empty(0)
        return np.concatenate(self._chunks)

    def variance(self) -> float:
        """Sample (ddof=1) variance; requires n >= 2."""
        return self._m2 / (self.n - 1)

    def append(self, batch) -> None:
        """Merge a loss batch (or its BatchMoments) into the reference."""
        batch = batch_moments(batch)
        b_n = batch.n
        if b_n == 0:
            return
        self.n, self.mean, self._m2 = merged_moments(self.n, self.mean, self._m2,
                                                     b_n, batch.mean, batch.m2)
        if self._chunks is not None:
            self._chunks.append(batch.values)
            if self.n > self.max_len:
                kept = batch_moments(np.concatenate(self._chunks)[-self.max_len:])
                self._chunks = [kept.values]
                self.n, self.mean, self._m2 = kept.n, kept.mean, kept.m2


class PeltSearch:
    """An exact search solved up to end ``len(F) - 1`` for one penalty and ``min_seg_len``.

    ``F[s]`` is the optimal penalized cost of the first ``s`` values and
    ``prev[s]`` the start of its last segment. Neither depends on values
    after the solved end, so an appended value needs only the step for the
    new end.
    """

    __slots__ = ("penalty", "min_seg_len", "F", "prev")

    def __init__(self, penalty: float, min_seg_len: int):
        self.penalty = penalty
        self.min_seg_len = min_seg_len
        # ends 1 .. min_seg_len - 1 are never a segment end; F holds Python
        # floats: float64 sums, as in an array
        self.F = [-penalty] + [math.inf] * (min_seg_len - 1)
        self.prev = [0] * min_seg_len


class PeltHistory(SummedValues):
    """Per-batch mean losses since the last retrain, with their segment costs.

    The values keep exact prefix sums (SummedValues), so the default cost of
    any segment takes O(1), and ``append`` raises ValueError on ``nan`` or
    ``inf``. ``costs[end][start]`` is the segment cost of
    ``self[start:end]``. A cost depends on the values alone, not on the
    penalty, and the history only grows, so a search that starts from
    scratch reads the cache and fills it on a miss. Keyed per end, then per start: tuple keys cost twice the
    memory. ``search`` is the state of the last search (None before the
    first): a search with the same penalty and ``min_seg_len`` resumes it at
    the first unsolved end and stores no costs, since no later step of that
    search reads them. So a history under a fixed penalty holds only the
    rows of its first search. Only ``append`` and ``after`` keep the cache
    and the search valid.
    """

    __slots__ = ("costs", "search")

    def __init__(self, values=()):
        super().__init__(values)
        self.costs: dict[int, dict[int, float]] = {}
        self.search: PeltSearch | None = None

    def after(self, start: int) -> PeltHistory:
        """The history from ``start`` on, with fresh sums, no cached costs and no search.

        The first search after a changepoint re-solves the remainder.
        """
        return PeltHistory(self[start:])


@dataclass
class MonitorState:
    """Streaming state of one stream's updating policy."""

    policy: Policy
    reference: ReferenceBatch
    loss_history: PeltHistory = field(default_factory=PeltHistory)
    batches_seen: int = 0
    last_retrain: int = 0  # the batch of the last retrain; only EveryKBatches uses it


@dataclass(frozen=True)
class MonitorDecision:
    retrain: bool
    test: TestResult | None = None
    detected_changepoints: tuple[int, ...] | None = None


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------

class Policy:
    """The interface the pipeline and the run config use for every policy.

    A policy's keys in the flat run config are ``key_prefix`` plus its field
    names, ``min_batch_losses`` is the fewest losses per batch a step can
    decide on, ``tagged_always`` names the fields a run label shows even at
    their defaults, and ``max_reference_len`` caps the reference batch.
    """

    key_prefix: ClassVar[str] = ""
    min_batch_losses: ClassVar[int] = 1
    tagged_always: ClassVar[tuple[str, ...]] = ()
    max_reference_len = None

    def __post_init__(self):
        check_fields(self)

    def step(self, state: MonitorState, new_losses) -> MonitorDecision:
        """Decide on one completed batch and update the stream's state."""
        raise NotImplementedError

    def label(self, decision: MonitorDecision) -> str:
        """The decision's label in the run log."""
        return "retrain" if decision.retrain else "hold"

    def tag(self) -> str:
        """The policy's part of a run label: its name, then in parentheses each
        field in ``tagged_always`` and each that differs from its default
        (floats to six significant digits), comma-separated. It holds no
        whitespace, since ``driftmon compare`` names a directory after it."""
        named = [f"{f.name}={_tag_value(getattr(self, f.name))}" for f in fields(self)
                 if f.init and (f.name in self.tagged_always or getattr(self, f.name) != f.default)]
        return f"{self.name}({','.join(named)})" if named else self.name

    def params(self) -> dict:
        """The policy's keys and values in the flat run config."""
        return {self.key_prefix + f.name: getattr(self, f.name) for f in fields(self) if f.init}


def _tag_value(value) -> str:
    return f"{value:g}" if isinstance(value, float) else str(value)


@dataclass(frozen=True)
class MeanTestPolicy(Policy):
    alpha: float = bounded(0.05, "(0, 1]")
    max_reference_len: int | None = bounded(None, "[2, inf)")
    reseed_with_rejecting_batch: bool = False
    name: str = field(default="mean_test", init=False)

    min_batch_losses: ClassVar[int] = 2  # the Welch test needs a variance
    tagged_always: ClassVar[tuple[str, ...]] = ("alpha",)

    def params(self) -> dict:
        # unset reference options are left out, so configs without them keep their hash
        return {key: value for key, value in super().params().items()
                if key == "alpha" or value}

    def label(self, decision: MonitorDecision) -> str:
        if decision.test is None:
            return "warmup"
        return "reject" if decision.retrain else "accept"

    def step(self, state: MonitorState, new_losses) -> MonitorDecision:
        """Warm up an empty reference; otherwise test the batch against it."""
        ref = state.reference
        batch = batch_moments(new_losses)
        if ref.n == 0:
            if batch.n == 0:
                raise InsufficientSample("warm-up batch must be nonempty")
            state.batches_seen += 1
            ref.append(batch)
            return MonitorDecision(retrain=False)
        if ref.n < 2:
            raise InsufficientSample("reference batch needs >= 2 losses before testing")
        if batch.n < 2:
            raise InsufficientSample(f"loss batch needs >= 2 entries, got {batch.n}")
        test = welch_test_from_moments(ref.n, ref.mean, ref.variance(),
                                       batch.n, batch.mean, batch.var, self.alpha)
        state.batches_seen += 1
        if test.reject:
            ref = state.reference = ReferenceBatch(self.max_reference_len)
            if self.reseed_with_rejecting_batch:
                ref.append(batch)
            return MonitorDecision(retrain=True, test=test)
        ref.append(batch)
        return MonitorDecision(retrain=False, test=test)


@dataclass(frozen=True)
class PeltPolicy(Policy):
    """Changepoint benchmark on per-batch mean losses.

    The default penalty is 3 * log(N) with N the total batches the monitor
    has seen, not the length of the post-retrain history: tying the penalty
    to the truncated history makes it collapse right after each detection
    and the policy then fires on every wiggle.
    """

    penalty: float | None = bounded(None, "[0, inf)")
    min_seg_len: int = bounded(2, "[2, inf)")
    name: str = field(default="pelt", init=False)

    key_prefix: ClassVar[str] = "pelt_"

    def penalty_for(self, batches_seen: int) -> float:
        return self.penalty if self.penalty is not None else 3.0 * math.log(batches_seen)

    def step(self, state: MonitorState, new_losses) -> MonitorDecision:
        """Append the batch mean loss and resegment the post-retrain history."""
        batch = batch_moments(new_losses)
        if batch.n == 0:
            raise InsufficientSample("loss batch must be nonempty")
        state.loss_history.append(batch.mean)  # raises on a non-finite mean
        state.batches_seen += 1
        changepoints: list[int] = []
        if len(state.loss_history) >= 2 * self.min_seg_len:
            changepoints, _ = pelt(state.loss_history, self.penalty_for(state.batches_seen),
                                   self.min_seg_len)
        if changepoints:
            state.loss_history = state.loss_history.after(changepoints[-1])
        return MonitorDecision(retrain=bool(changepoints),
                               detected_changepoints=tuple(changepoints))


@dataclass(frozen=True)
class EveryKBatches(Policy):
    k: int = bounded(1, "[1, inf)")
    name: str = field(default="every_k", init=False)

    key_prefix: ClassVar[str] = "every_"

    def tag(self) -> str:
        return f"every_{self.k}"

    def step(self, state: MonitorState, new_losses) -> MonitorDecision:
        """Retrain once k batches have passed since the last retrain."""
        state.batches_seen += 1
        retrain = state.batches_seen - state.last_retrain >= self.k
        if retrain:
            state.last_retrain = state.batches_seen
        return MonitorDecision(retrain=retrain)


@dataclass(frozen=True)
class NeverPolicy(Policy):
    name: str = field(default="never", init=False)

    def step(self, state: MonitorState, new_losses) -> MonitorDecision:
        state.batches_seen += 1
        return MonitorDecision(retrain=False)


POLICIES = {cls.name: cls for cls in (MeanTestPolicy, PeltPolicy, EveryKBatches, NeverPolicy)}


def new_state(policy: Policy) -> MonitorState:
    return MonitorState(policy=policy, reference=ReferenceBatch(max_len=policy.max_reference_len))


def observe(state: MonitorState, new_losses) -> MonitorDecision:
    """One policy step per completed batch end, on its losses or their BatchMoments."""
    return state.policy.step(state, new_losses)


# ---------------------------------------------------------------------------
# Exact penalized segmentation
# ---------------------------------------------------------------------------

def pelt(values, penalty: float, min_seg_len: int = 2,
         cost=gaussian_segment_cost) -> tuple[list[int], float]:
    """Minimize total segment cost plus a per-changepoint penalty, exactly.

    Returns (changepoints, optimal penalized cost) where changepoints are the
    0-based start indices of new segments, ascending. Optimal partitioning:
    the step for end ``s`` tries every admissible start of the last segment,
    0 and ``min_seg_len .. s - min_seg_len``, and keeps the first strict
    minimum, so ties go to the lowest start. Exactness needs nothing of the
    cost.

    ``cost`` is called once per evaluated segment with a stats.Segment view
    of the history, ``(values, start, end)``; the default cost reads it from
    the history's exact prefix sums in O(1). Any other sequence becomes a
    new PeltHistory first, so its values must be finite.

    A PeltHistory keeps the search: called again with the same penalty and
    ``min_seg_len`` after appends, ``pelt`` runs only the new ends, so a
    step costs O(history), and stores none of their costs. Any other call
    starts a new search that solves every end from ``min_seg_len`` on,
    O(history^2); it calls ``cost`` only for segments whose cost the history
    has not cached yet, and caches them, one per (end, admissible start)
    (the caller keeps ``cost`` the same for one history). Any other sequence
    starts with an empty cache.
    """
    history = values if isinstance(values, PeltHistory) else PeltHistory(values)
    n = len(history)
    L = min_seg_len
    if L < 2:
        raise ValueError("min_seg_len must be >= 2")
    if n < L:
        raise InsufficientSample(f"need >= {L} points, got {n}")

    penalty = float(penalty)
    search = history.search
    costs = history.costs
    if search is None or search.penalty != penalty or search.min_seg_len != L:
        search = history.search = PeltSearch(penalty, L)
    else:
        costs = {}  # a resumed search never reads its new ends' costs again
    F, prev = search.F, search.prev
    for s in range(len(F), n + 1):
        known = costs.setdefault(s, {})
        best = math.inf
        best_tau = 0
        for tau in (0, *range(L, s - L + 1)):
            c = known.get(tau)
            if c is None:
                c = known[tau] = cost(Segment(history, tau, s))
            total = F[tau] + c + penalty
            if total < best:
                best = total
                best_tau = tau
        F.append(best)
        prev.append(best_tau)

    changepoints = []
    t = n
    while t > 0:
        tau = prev[t]
        if tau > 0:
            changepoints.append(tau)
        t = tau
    changepoints.reverse()
    return changepoints, float(F[n])
