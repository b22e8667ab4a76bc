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
  changepoint triggers retraining and restarts the history after it.
* EveryKBatches / NeverPolicy: deterministic schedules.

One MonitorState per stream; steps within a stream are strictly sequential.

A step's input is a loss batch or its BatchMoments (size, mean, ddof=1
variance and sum of squared deviations). The moments of a batch are computed
once and shared by the Welch test and the reference update; ``row_moments``
computes those of a whole block of batches in one call, with the same numpy
expressions, so the results are identical either way.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import AlreadyWarm, InsufficientSample, NotWarmedUp
from .stats import TestResult, gaussian_segment_cost, welch_test_from_moments


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeanTestPolicy:
    alpha: float = 0.05
    max_reference_len: int | None = None
    reseed_with_rejecting_batch: bool = False
    name: str = field(default="mean_test", init=False)

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if self.max_reference_len is not None and self.max_reference_len < 2:
            raise ValueError("max_reference_len must be >= 2 when set")


@dataclass(frozen=True)
class PeltPolicy:
    """Changepoint benchmark on per-batch mean losses.

    The default penalty is 3 * log(N) with N the total batches the monitor
    has seen, not the length of the post-retrain history: tying the penalty
    to the truncated history makes it collapse right after each detection
    and the policy then fires on every wiggle.
    """

    penalty: float | None = None
    min_seg_len: int = 2
    name: str = field(default="pelt", init=False)

    def __post_init__(self):
        if self.min_seg_len < 2:
            raise ValueError("min_seg_len must be >= 2")
        if self.penalty is not None and self.penalty < 0.0:
            raise ValueError("penalty must be >= 0 when set")

    def penalty_for(self, batches_seen: int) -> float:
        return self.penalty if self.penalty is not None else 3.0 * math.log(batches_seen)


@dataclass(frozen=True)
class EveryKBatches:
    k: int = 1
    name: str = field(default="every_k", init=False)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass(frozen=True)
class NeverPolicy:
    name: str = field(default="never", init=False)


Policy = MeanTestPolicy | PeltPolicy | EveryKBatches | NeverPolicy


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


def _moments(x: np.ndarray):
    """(mean, ddof=1 variance, m2) along the last axis, which has >= 2 entries."""
    n = x.shape[-1]
    return x.mean(axis=-1), x.var(axis=-1, ddof=1), x.var(axis=-1) * n


def batch_moments(losses) -> BatchMoments:
    """Moments of one loss batch; a BatchMoments is returned unchanged."""
    if isinstance(losses, BatchMoments):
        return losses
    x = np.asarray(losses, dtype=float).ravel()
    n = x.size
    if n < 2:
        mean = float(x.mean()) if n else math.nan
        return BatchMoments(x, n, mean, math.nan, 0.0)
    mean, var, m2 = _moments(x)
    return BatchMoments(x, n, float(mean), float(var), float(m2))


def row_moments(block) -> Iterator[BatchMoments]:
    """Moments of each row of a (batches, batch_size) block, in one call per moment.

    Each row's moments equal ``batch_moments(row)`` exactly: numpy reduces
    every row of a contiguous block the way it reduces a lone batch. The
    BatchMoments are made lazily, one row at a time.
    """
    block = np.asarray(block, dtype=float)
    if block.ndim != 2 or block.shape[1] < 2:
        raise InsufficientSample(
            f"need a 2-D block with >= 2 losses per row, got shape {block.shape}")
    means, variances, m2s = (map(float, a) for a in _moments(block))
    return map(BatchMoments, block, repeat(block.shape[1]), means, variances, m2s)


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
        self.established_at: int | None = None
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
        total = self.n + b_n
        delta = batch.mean - self.mean
        self.mean += delta * b_n / total
        self._m2 += batch.m2 + delta * delta * self.n * b_n / total
        self.n = total
        if self._chunks is not None:
            self._chunks.append(batch.values)
            if self.n > self.max_len:
                kept = batch_moments(np.concatenate(self._chunks)[-self.max_len:])
                self._chunks = [kept.values]
                self.n, self.mean, self._m2 = kept.n, kept.mean, kept.m2

    def reset(self) -> None:
        if self._chunks is not None:
            self._chunks = []
        self.n = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.established_at = None


@dataclass
class MonitorState:
    """Streaming state of one stream's updating policy."""

    policy: Policy
    reference: ReferenceBatch
    loss_history: list[float] = field(default_factory=list)
    r_history: list[int] = field(default_factory=list)
    batches_seen: int = 0
    last_retrain: int = 0


@dataclass(frozen=True)
class MonitorDecision:
    retrain: bool
    test: TestResult | None = None
    detected_changepoints: tuple[int, ...] | None = None


def new_state(policy: Policy) -> MonitorState:
    max_len = policy.max_reference_len if isinstance(policy, MeanTestPolicy) else None
    return MonitorState(policy=policy, reference=ReferenceBatch(max_len=max_len))


# ---------------------------------------------------------------------------
# Steps
# ---------------------------------------------------------------------------

def warmup(state: MonitorState, first_losses) -> MonitorState:
    """Establish the initial reference batch; no test is run."""
    if not isinstance(state.policy, MeanTestPolicy):
        raise ValueError("warmup applies to the mean-test policy only")
    if len(state.reference) > 0:
        raise AlreadyWarm("reference batch already established")
    first = batch_moments(first_losses)
    if first.n == 0:
        raise InsufficientSample("warm-up batch must be nonempty")
    state.batches_seen += 1
    state.reference.append(first)
    state.reference.established_at = state.batches_seen
    state.r_history.append(0)
    return state


def mean_test_step(state: MonitorState, new_losses, alpha: float | None = None) -> MonitorDecision:
    """Test the incoming batch against the reference; update state per outcome."""
    policy = state.policy
    if not isinstance(policy, MeanTestPolicy):
        raise ValueError("mean_test_step applies to the mean-test policy only")
    if len(state.reference) == 0:
        raise NotWarmedUp("reference batch is empty; run warmup first")
    if state.reference.n < 2:
        raise InsufficientSample("reference batch needs >= 2 losses before testing")
    batch = batch_moments(new_losses)
    if batch.n < 2:
        raise InsufficientSample(f"loss batch needs >= 2 entries, got {batch.n}")
    if alpha is None:
        alpha = policy.alpha

    ref = state.reference
    test = welch_test_from_moments(ref.n, ref.mean, ref.variance(),
                                   batch.n, batch.mean, batch.var, alpha)
    state.batches_seen += 1
    if test.reject:
        state.r_history.append(1)
        state.last_retrain = state.batches_seen
        ref.reset()
        if policy.reseed_with_rejecting_batch:
            ref.append(batch)
            ref.established_at = state.batches_seen
        return MonitorDecision(retrain=True, test=test)
    state.r_history.append(0)
    ref.append(batch)
    return MonitorDecision(retrain=False, test=test)


def pelt_step(state: MonitorState, new_losses) -> MonitorDecision:
    """Append the batch mean loss and resegment the post-retrain history."""
    policy = state.policy
    if not isinstance(policy, PeltPolicy):
        raise ValueError("pelt_step applies to the Pelt policy only")
    batch = batch_moments(new_losses)
    if batch.n == 0:
        raise InsufficientSample("loss batch must be nonempty")
    state.batches_seen += 1
    state.loss_history.append(batch.mean)
    n = len(state.loss_history)
    if n < 2 * policy.min_seg_len:
        state.r_history.append(0)
        return MonitorDecision(retrain=False, detected_changepoints=())
    changepoints, _ = pelt(state.loss_history, policy.penalty_for(state.batches_seen),
                           policy.min_seg_len)
    if changepoints:
        newest = changepoints[-1]
        state.loss_history = state.loss_history[newest:]
        state.r_history.append(1)
        state.last_retrain = state.batches_seen
        return MonitorDecision(retrain=True, detected_changepoints=tuple(changepoints))
    state.r_history.append(0)
    return MonitorDecision(retrain=False, detected_changepoints=())


def scheduled_step(state: MonitorState) -> MonitorDecision:
    """Deterministic schedules: every k batches, or never."""
    policy = state.policy
    if isinstance(policy, NeverPolicy):
        state.batches_seen += 1
        state.r_history.append(0)
        return MonitorDecision(retrain=False)
    if not isinstance(policy, EveryKBatches):
        raise ValueError("scheduled_step applies to deterministic policies only")
    state.batches_seen += 1
    if state.batches_seen - state.last_retrain >= policy.k:
        state.last_retrain = state.batches_seen
        state.r_history.append(1)
        return MonitorDecision(retrain=True)
    state.r_history.append(0)
    return MonitorDecision(retrain=False)


def observe(state: MonitorState, new_losses) -> MonitorDecision:
    """Policy dispatcher for the pipeline: one call per completed batch end.

    ``new_losses`` is the batch's losses or its BatchMoments.
    """
    policy = state.policy
    if isinstance(policy, MeanTestPolicy):
        if len(state.reference) == 0:
            warmup(state, new_losses)
            return MonitorDecision(retrain=False)
        return mean_test_step(state, new_losses)
    if isinstance(policy, PeltPolicy):
        return pelt_step(state, new_losses)
    return scheduled_step(state)


# ---------------------------------------------------------------------------
# Exact penalized segmentation with pruning
# ---------------------------------------------------------------------------

def pelt(values, penalty: float, min_seg_len: int = 2,
         cost=gaussian_segment_cost) -> tuple[list[int], float]:
    """Minimize total segment cost plus a per-changepoint penalty, exactly.

    Returns (changepoints, optimal penalized cost) where changepoints are the
    0-based start indices of new segments, ascending. Candidate pruning keeps
    the search linear-ish without giving up exactness, provided the cost is
    subadditive (splitting a segment never increases the summed cost), which
    holds for the Gaussian cost used here.
    """
    x = np.asarray(values, dtype=float)
    n = x.size
    L = min_seg_len
    if L < 2:
        raise ValueError("min_seg_len must be >= 2")
    if n < L:
        raise InsufficientSample(f"need >= {L} points, got {n}")

    F = np.full(n + 1, np.inf)
    F[0] = -penalty
    prev = np.zeros(n + 1, dtype=int)
    candidates: list[int] = []
    # A dominated candidate tau stays usable until step s + L: the dominating
    # candidate s only becomes admissible once the segment after it can reach
    # the minimum length, so earlier removal would not be exact.
    remove_at: dict[int, int] = {}
    for s in range(L, n + 1):
        t_new = s - L
        if t_new == 0 or t_new >= L:
            candidates.append(t_new)
        active: list[int] = []
        seg_costs: list[float] = []
        for tau in candidates:
            if remove_at.get(tau, n + L + 1) <= s:
                continue
            active.append(tau)
            seg_costs.append(cost(x[tau:s]))
        best = math.inf
        best_tau = active[0]
        for tau, c in zip(active, seg_costs):
            total = F[tau] + c + penalty
            if total < best:
                best = total
                best_tau = tau
        F[s] = best
        prev[s] = best_tau
        for tau, c in zip(active, seg_costs):
            if F[tau] + c > best and tau not in remove_at:
                remove_at[tau] = s + L
        candidates = active

    changepoints = []
    t = n
    while t > 0:
        tau = int(prev[t])
        if tau > 0:
            changepoints.append(tau)
        t = tau
    changepoints.reverse()
    return changepoints, float(F[n])
