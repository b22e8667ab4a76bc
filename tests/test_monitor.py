import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from driftmon.errors import AlreadyWarm, InsufficientSample, NotWarmedUp
from driftmon.monitor import (
    EveryKBatches,
    MeanTestPolicy,
    NeverPolicy,
    PeltPolicy,
    ReferenceBatch,
    batch_moments,
    mean_test_step,
    new_state,
    observe,
    pelt,
    pelt_step,
    row_moments,
    scheduled_step,
    warmup,
)
from oracles import enumerate_segmentations, optimal_partition


# ---------------------------------------------------------------------------
# Reference batch
# ---------------------------------------------------------------------------

def test_reference_moments_match_numpy():
    rng = np.random.default_rng(0)
    ref = ReferenceBatch()
    chunks = [rng.normal(5.0, 2.0, rng.integers(2, 30)) for _ in range(6)]
    for chunk in chunks:
        ref.append(chunk)
    pooled = np.concatenate(chunks)
    assert ref.n == pooled.size
    assert ref.mean == pytest.approx(pooled.mean(), rel=1e-12)
    assert ref.variance() == pytest.approx(pooled.var(ddof=1), rel=1e-10)


def test_reference_max_len_truncates_front():
    ref = ReferenceBatch(max_len=5)
    ref.append(np.array([1.0, 2.0, 3.0]))
    ref.append(np.array([4.0, 5.0, 6.0]))
    assert ref.n == 5
    assert ref.losses.tolist() == [2.0, 3.0, 4.0, 5.0, 6.0]
    assert ref.mean == pytest.approx(4.0)


def test_uncapped_reference_keeps_no_chunks():
    rng = np.random.default_rng(4)
    ref = ReferenceBatch()
    chunks = [rng.normal(size=50) for _ in range(1000)]
    for chunk in chunks:
        ref.append(chunk)
    alive = [weakref.ref(chunk) for chunk in chunks]
    pooled = np.concatenate(chunks)
    del chunks, chunk
    assert not any(r() is not None for r in alive)
    assert not hasattr(ref, "losses")
    assert ref.n == 50_000
    assert ref.mean == pytest.approx(pooled.mean(), rel=1e-12, abs=1e-12)
    assert ref.variance() == pytest.approx(pooled.var(ddof=1), rel=1e-10)


# ---------------------------------------------------------------------------
# Batch moments
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(block=arrays(np.float64, st.tuples(st.integers(1, 30), st.integers(2, 80)),
                    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)))
def test_row_moments_equal_per_row_numpy_exactly(block):
    rows = list(row_moments(block))
    assert len(rows) == block.shape[0]
    for x, m in zip(block, rows):
        n = x.size
        assert m.n == n
        assert m.mean == x.mean()
        assert m.var == x.var(ddof=1)
        assert m.m2 == float(x.var()) * n
        assert batch_moments(x)[1:] == m[1:]


def test_batch_moments_of_short_batches():
    empty = batch_moments([])
    assert empty.n == 0 and empty.m2 == 0.0
    one = batch_moments([3.0])
    assert (one.n, one.mean, one.m2) == (1, 3.0, 0.0)
    assert math.isnan(one.var)
    with pytest.raises(InsufficientSample):
        row_moments(np.ones((4, 1)))


def test_mean_test_on_moments_matches_raw_batches():
    rng = np.random.default_rng(5)
    batches = [rng.normal(0.0, 1.0 + (i % 3), 12) for i in range(40)]
    raw = new_state(MeanTestPolicy(alpha=0.2))
    pre = new_state(MeanTestPolicy(alpha=0.2))
    for batch, moments in zip(batches, row_moments(np.array(batches))):
        assert observe(raw, batch) == observe(pre, moments)
    assert raw.r_history == pre.r_history
    assert (raw.reference.n, raw.reference.mean, raw.reference.variance()) == \
        (pre.reference.n, pre.reference.mean, pre.reference.variance())


# ---------------------------------------------------------------------------
# Mean-test policy
# ---------------------------------------------------------------------------

def test_warmup_and_accept_path():
    state = new_state(MeanTestPolicy(alpha=0.05))
    rng = np.random.default_rng(1)
    first = rng.normal(size=60)
    warmup(state, first)
    assert len(state.reference) == 60
    assert state.r_history == [0]
    with pytest.raises(AlreadyWarm):
        warmup(state, first)

    nxt = rng.normal(size=60)
    decision = mean_test_step(state, nxt)
    assert not decision.retrain
    assert len(state.reference) == 120
    assert state.r_history == [0, 0]
    pooled = np.concatenate([first, nxt])
    assert state.reference.mean == pytest.approx(pooled.mean(), rel=1e-12)


def test_reject_resets_reference_and_next_batch_rewarms():
    state = new_state(MeanTestPolicy(alpha=0.05))
    rng = np.random.default_rng(2)
    base = rng.normal(size=60)
    warmup(state, base)
    decision = mean_test_step(state, base + 1000.0)
    assert decision.retrain
    assert state.r_history == [0, 1]
    assert len(state.reference) == 0
    with pytest.raises(NotWarmedUp):
        mean_test_step(state, base)
    follow = observe(state, base)  # the dispatcher warms the fresh reference
    assert not follow.retrain
    assert len(state.reference) == 60


def test_reseed_with_rejecting_batch():
    state = new_state(MeanTestPolicy(alpha=0.05, reseed_with_rejecting_batch=True))
    rng = np.random.default_rng(3)
    base = rng.normal(size=60)
    warmup(state, base)
    shifted = base + 1000.0
    assert mean_test_step(state, shifted).retrain
    assert len(state.reference) == 60
    assert state.reference.mean == pytest.approx(shifted.mean())


def test_warmup_input_validation():
    state = new_state(MeanTestPolicy())
    with pytest.raises(InsufficientSample):
        warmup(state, [])
    warmup(state, np.ones(60))
    with pytest.raises(InsufficientSample):
        mean_test_step(state, [1.0])


def test_single_loss_reference_cannot_be_tested():
    state = new_state(MeanTestPolicy())
    warmup(state, [1.0])
    with pytest.raises(InsufficientSample):
        mean_test_step(state, [1.0, 2.0])


@settings(max_examples=40, deadline=None)
@given(log2c=st.integers(-12, 12), seed=st.integers(0, 50))
def test_mean_test_decisions_scale_equivariant(log2c, seed):
    c = 2.0 ** log2c
    rng = np.random.default_rng(seed)
    batches = [np.abs(rng.normal(5, 2, 20)) + 0.1 for _ in range(8)]
    plain = new_state(MeanTestPolicy(alpha=0.05))
    scaled = new_state(MeanTestPolicy(alpha=0.05))
    flags_plain = [observe(plain, b).retrain for b in batches]
    flags_scaled = [observe(scaled, c * b).retrain for b in batches]
    assert flags_plain == flags_scaled


# ---------------------------------------------------------------------------
# Pelt policy
# ---------------------------------------------------------------------------

def test_pelt_two_regime_example():
    rng = np.random.default_rng(0)
    history = np.concatenate([1.0 + 0.05 * rng.normal(size=20),
                              10.0 + 0.05 * rng.normal(size=20)])
    penalty = 3 * math.log(40)
    cps, cost = pelt(history, penalty)
    oracle_cps, oracle_cost = optimal_partition(history, penalty)
    assert cps == [20]
    assert cps == oracle_cps
    assert cost == oracle_cost


def test_pelt_constant_history_has_no_changepoints():
    cps, _ = pelt(np.full(30, 2.5), penalty=3 * math.log(30))
    assert cps == []


def test_pelt_matches_exhaustive_dp_on_random_histories():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(4, 31))
        x = rng.normal(size=n)
        if rng.random() < 0.5:
            x[n // 2:] += rng.uniform(1, 8)
        penalty = float(rng.uniform(1.0, 4.0)) * math.log(n)
        cps, cost = pelt(x, penalty)
        oracle_cps, oracle_cost = optimal_partition(x, penalty)
        assert cps == oracle_cps
        assert cost == oracle_cost


def test_dp_oracle_agrees_with_literal_enumeration():
    rng = np.random.default_rng(6)
    for _ in range(8):
        n = int(rng.integers(4, 13))
        x = rng.normal(size=n)
        x[n // 2:] += 3.0
        penalty = 2.0 * math.log(n)
        assert optimal_partition(x, penalty) == enumerate_segmentations(x, penalty)


def test_pelt_monotone_in_penalty():
    rng = np.random.default_rng(7)
    for _ in range(10):
        x = rng.normal(size=40)
        x[13:] += 2.0
        x[29:] -= 3.0
        counts = [len(pelt(x, pen)[0]) for pen in (2.0, 6.0, 12.0, 30.0)]
        assert counts == sorted(counts, reverse=True)


def test_pelt_min_seg_len_respected():
    rng = np.random.default_rng(8)
    x = rng.normal(size=30)
    x[10:] += 5.0
    for msl in (2, 3, 5):
        cps, _ = pelt(x, penalty=5.0, min_seg_len=msl)
        bounds = [0] + cps + [30]
        assert min(np.diff(bounds)) >= msl


def test_pelt_step_mechanics():
    # explicit penalty large enough that only the level shift is a changepoint
    state = new_state(PeltPolicy(penalty=30.0, min_seg_len=2))
    rng = np.random.default_rng(9)
    retrains = []
    for i in range(30):
        level = 1.0 if i < 15 else 50.0
        batch = level + 0.1 * rng.normal(size=10)
        decision = pelt_step(state, batch)
        retrains.append(decision.retrain)
    assert not any(retrains[:3])  # history shorter than 2 * min_seg_len
    assert not any(retrains[:15])  # stable regime stays quiet at this penalty
    assert any(retrains[15:20])  # shift at batch 16 detected within a few batches
    first_hit = retrains.index(True)
    assert len(state.loss_history) < first_hit + 1  # history restarted after the changepoint
    assert state.r_history == [int(r) for r in retrains]


def test_pelt_step_requires_pelt_policy():
    with pytest.raises(ValueError):
        pelt_step(new_state(NeverPolicy()), np.ones(5))


# ---------------------------------------------------------------------------
# Deterministic schedules
# ---------------------------------------------------------------------------

def test_every_k_schedule():
    state = new_state(EveryKBatches(k=1))
    flags = [scheduled_step(state).retrain for _ in range(5)]
    assert flags == [True] * 5

    state = new_state(EveryKBatches(k=3))
    flags = [scheduled_step(state).retrain for _ in range(9)]
    assert flags == [False, False, True] * 3


def test_never_schedule():
    state = new_state(NeverPolicy())
    flags = [observe(state, np.ones(4)).retrain for _ in range(10)]
    assert flags == [False] * 10
    assert state.r_history == [0] * 10


def test_r_history_tracks_decisions():
    state = new_state(EveryKBatches(k=2))
    decisions = [scheduled_step(state).retrain for _ in range(7)]
    assert state.r_history == [int(d) for d in decisions]
    assert len(state.r_history) == state.batches_seen
