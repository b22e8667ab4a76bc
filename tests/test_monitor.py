import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from driftmon import monitor
from driftmon.errors import InsufficientSample
from driftmon.monitor import (
    BatchMoments,
    EveryKBatches,
    MeanTestPolicy,
    NeverPolicy,
    PeltHistory,
    PeltPolicy,
    ReferenceBatch,
    batch_moments,
    new_state,
    observe,
    moment_arrays,
    pelt,
)
from driftmon.stats import Segment
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
def test_moment_arrays_equal_per_row_numpy_exactly(block):
    means, variances, m2s = moment_arrays(block)
    assert means.shape == variances.shape == m2s.shape == (block.shape[0],)
    for x, mean, var, m2 in zip(block, means, variances, m2s):
        n = x.size
        assert mean == x.mean()
        assert var == x.var(ddof=1)
        assert m2 == float(x.var()) * n
        assert batch_moments(x)[2:] == (mean, var, m2)


def test_batch_moments_of_short_batches():
    empty = batch_moments([])
    assert empty.n == 0 and empty.m2 == 0.0
    one = batch_moments([3.0])
    assert (one.n, one.mean, one.m2) == (1, 3.0, 0.0)
    assert math.isnan(one.var)


def test_mean_test_on_moments_matches_raw_batches():
    rng = np.random.default_rng(5)
    batches = [rng.normal(0.0, 1.0 + (i % 3), 12) for i in range(40)]
    raw = new_state(MeanTestPolicy(alpha=0.2))
    pre = new_state(MeanTestPolicy(alpha=0.2))
    block = np.array(batches)
    for batch, *moments in zip(block, *moment_arrays(block)):
        moments = BatchMoments(batch, block.shape[1], *map(float, moments))
        assert observe(raw, batch) == observe(pre, moments)
    assert (raw.reference.n, raw.reference.mean, raw.reference.variance()) == \
        (pre.reference.n, pre.reference.mean, pre.reference.variance())


# ---------------------------------------------------------------------------
# Mean-test policy
# ---------------------------------------------------------------------------

def test_warmup_and_accept_path():
    state = new_state(MeanTestPolicy(alpha=0.05))
    rng = np.random.default_rng(1)
    first = rng.normal(size=60)
    warm = observe(state, first)
    assert not warm.retrain and warm.test is None
    assert len(state.reference) == 60

    nxt = rng.normal(size=60)
    decision = observe(state, nxt)
    assert not decision.retrain and decision.test is not None
    assert len(state.reference) == 120
    pooled = np.concatenate([first, nxt])
    assert state.reference.mean == pytest.approx(pooled.mean(), rel=1e-12)


def test_reject_resets_reference_and_next_batch_rewarms():
    state = new_state(MeanTestPolicy(alpha=0.05))
    rng = np.random.default_rng(2)
    base = rng.normal(size=60)
    observe(state, base)
    decision = observe(state, base + 1000.0)
    assert decision.retrain
    assert len(state.reference) == 0
    follow = observe(state, base)  # the empty reference re-warms from this batch
    assert not follow.retrain and follow.test is None
    assert len(state.reference) == 60


def test_reseed_with_rejecting_batch():
    state = new_state(MeanTestPolicy(alpha=0.05, reseed_with_rejecting_batch=True))
    rng = np.random.default_rng(3)
    base = rng.normal(size=60)
    observe(state, base)
    shifted = base + 1000.0
    assert observe(state, shifted).retrain
    assert len(state.reference) == 60
    assert state.reference.mean == pytest.approx(shifted.mean())


def test_warmup_input_validation():
    state = new_state(MeanTestPolicy())
    with pytest.raises(InsufficientSample):
        observe(state, [])
    observe(state, np.ones(60))
    with pytest.raises(InsufficientSample):
        observe(state, [1.0])


def test_single_loss_reference_cannot_be_tested():
    state = new_state(MeanTestPolicy())
    observe(state, [1.0])
    with pytest.raises(InsufficientSample):
        observe(state, [1.0, 2.0])


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
        decision = observe(state, batch)
        retrains.append(decision.retrain)
    assert not any(retrains[:3])  # history shorter than 2 * min_seg_len
    assert not any(retrains[:15])  # stable regime stays quiet at this penalty
    assert any(retrains[15:20])  # shift at batch 16 detected within a few batches
    first_hit = retrains.index(True)
    assert len(state.loss_history) < first_hit + 1  # history restarted after the changepoint


def _segment_start(segment) -> int:
    """Index of a segment's first value in the history pelt viewed it in."""
    return segment.start


@settings(max_examples=60, deadline=None)
@given(regimes=st.lists(st.tuples(st.integers(1, 25), st.floats(0.0, 20.0)),
                        min_size=1, max_size=4),
       noise=st.floats(0.0, 2.0),
       penalty=st.one_of(st.none(), st.floats(0.5, 40.0)),
       min_seg_len=st.integers(2, 5),
       seed=st.integers(0, 2**16))
def test_cached_pelt_equals_fresh_pelt_at_every_step(regimes, noise, penalty, min_seg_len,
                                                      seed):
    rng = np.random.default_rng(seed)
    means = np.concatenate([level + noise * rng.normal(size=length)
                            for length, level in regimes])
    real_pelt = monitor.pelt
    seen: dict[tuple[int, int, int], int] = {}
    histories = []  # kept alive, so that no later history reuses one's id
    batches = 0

    def checked_pelt(values, penalty, min_seg_len=2, cost=monitor.gaussian_segment_cost):
        origin = batches - len(values)  # batch ordinal of values[0]

        def counting_cost(segment):
            start = origin + _segment_start(segment)
            key = (id(values), start, start + segment.size)
            seen[key] = seen.get(key, 0) + 1
            return cost(segment)

        assert isinstance(values, PeltHistory)
        histories.append(values)
        got = real_pelt(values, penalty, min_seg_len, counting_cost)
        assert got == real_pelt(list(values), penalty, min_seg_len)
        return got

    state = new_state(PeltPolicy(penalty=penalty, min_seg_len=min_seg_len))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(monitor, "pelt", checked_pelt)
        for value in means:
            batches += 1
            observe(state, np.array([value]))
    # each history computes a cost once; a changepoint starts a new history
    assert all(count == 1 for count in seen.values())
    history = state.loss_history
    assert list(history) == means[len(means) - len(history):].tolist()
    for end, row in history.costs.items():
        for start, c in row.items():
            assert c == monitor.gaussian_segment_cost(np.asarray(history)[start:end])


def _regime_means(regimes, seed) -> np.ndarray:
    """Batch means of constant, two-valued or noisy regimes, at most 60 of them."""
    rng = np.random.default_rng(seed)
    parts = []
    for length, kind, level, scale in regimes:
        if kind == "constant":
            parts.append(np.full(length, level))
        elif kind == "two-valued":
            parts.append(level + scale * rng.integers(0, 2, size=length))
        else:
            parts.append(level + scale * rng.normal(size=length))
    return np.concatenate(parts)[:60]


@settings(max_examples=40, deadline=None)
@given(regimes=st.lists(st.tuples(st.integers(1, 20),
                                  st.sampled_from(["constant", "two-valued", "noisy"]),
                                  st.floats(-10.0, 10.0), st.floats(0.0, 5.0)),
                        min_size=1, max_size=6),
       min_seg_len=st.integers(2, 6),
       penalty_share=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**16))
def test_pelt_and_policy_steps_equal_optimal_partition(regimes, min_seg_len, penalty_share,
                                                       seed):
    # several regimes and min_seg_len > 2 reach the starts that a pruned
    # search drops; the policy's searches run on histories cut at changepoints
    means = _regime_means(regimes, seed)
    penalty = penalty_share * 6.0 * math.log(means.size) if means.size > 1 else 0.0
    if means.size >= min_seg_len:
        assert pelt(means, penalty, min_seg_len) == optimal_partition(means, penalty,
                                                                      min_seg_len)
    for fixed in (penalty, None):
        policy = PeltPolicy(penalty=fixed, min_seg_len=min_seg_len)
        state = new_state(policy)
        for value in means:
            history = [*state.loss_history, value]
            decision = observe(state, np.array([value]))
            want = []
            if len(history) >= 2 * min_seg_len:
                want, _ = optimal_partition(history, policy.penalty_for(state.batches_seen),
                                            min_seg_len)
            assert decision.detected_changepoints == tuple(want)


def test_pelt_on_a_plain_sequence_starts_a_fresh_cache():
    rng = np.random.default_rng(10)
    x = rng.normal(size=40)
    x[20:] += 4.0
    calls = []

    def counting_cost(segment):
        calls.append((_segment_start(segment), segment.size))
        return monitor.gaussian_segment_cost(segment)

    first = pelt(list(x), 6.0, 2, counting_cost)
    n_first = len(calls)
    assert pelt(list(x), 6.0, 2, counting_cost) == first
    assert len(calls) == 2 * n_first  # nothing was kept between the calls
    assert len(set(calls[:n_first])) == n_first
    history = PeltHistory(x)
    assert pelt(history, 6.0, 2, counting_cost) == first
    assert pelt(history, 9.0, 2, counting_cost) == pelt(x, 9.0)
    assert pelt(history, 6.0, 2, counting_cost) == first
    assert len(set(calls[2 * n_first:])) == len(calls) - 2 * n_first  # no pair twice


def test_fixed_penalty_pelt_resumes_at_the_new_end():
    rng = np.random.default_rng(11)
    x = np.concatenate([rng.normal(size=30), 3.0 + rng.normal(size=30)])
    calls = []

    def counting_cost(segment):
        calls.append((_segment_start(segment), segment.size))
        return monitor.gaussian_segment_cost(segment)

    history = PeltHistory(x[:4])
    pelt(history, 8.0, 3, counting_cost)
    for end in range(5, x.size + 1):
        history.append(x[end - 1])
        history.costs.clear()  # the resumed step reads no cost of an earlier end
        calls.clear()
        got = pelt(history, 8.0, 3, counting_cost)
        assert all(start + size == end for start, size in calls)
        assert len(calls) == 1 + max(0, end - 2 * 3 + 1)  # one per admissible start
        assert got == pelt(list(history), 8.0, 3)


def test_pelt_with_another_penalty_or_min_seg_len_solves_afresh():
    rng = np.random.default_rng(12)
    x = np.concatenate([rng.normal(size=25), 4.0 + rng.normal(size=25)])
    history = PeltHistory(x[:6])
    for end, (penalty, min_seg_len) in enumerate(
            [(6.0, 2), (6.0, 3), (9.0, 3), (6.0, 2), (6.0, 2), (2.0, 2)] * 7, start=7):
        history.append(x[end - 1])
        got = pelt(history, penalty, min_seg_len)
        assert (history.search.penalty, history.search.min_seg_len) == (penalty, min_seg_len)
        assert got == pelt(list(history), penalty, min_seg_len)
    assert history.after(10).search is None


def test_pelt_history_after_drops_costs_and_search():
    history = PeltHistory([1.0, 2.0, 4.0, 8.0, 16.0])
    pelt(history, 1.0)
    assert history.costs and history.search is not None
    rest = history.after(2)
    assert isinstance(rest, PeltHistory)
    assert list(rest) == [4.0, 8.0, 16.0]
    assert rest.costs == {}
    assert rest.search is None


@settings(max_examples=80, deadline=None)
@given(values=st.lists(st.one_of(st.sampled_from([1.0, 0.1, 1e-30, 0.0, -0.0, -2.5, 3e10]),
                                 st.floats(-1e6, 1e6)),
                       min_size=2, max_size=30),
       cut=st.integers(0, 30))
@example(values=[1.0, 0.1, 1e-30, 0.0, -4.0, 0.1], cut=2)  # each of the first three rescales
def test_prefix_sum_costs_equal_slice_costs(values, cut):
    history = PeltHistory()
    for value in values:
        history.append(value)
    for h in (history, history.after(min(cut, len(history)))):
        x = np.asarray(h)
        for end in range(2, len(h) + 1):
            for start in range(end - 1):
                assert (monitor.gaussian_segment_cost(Segment(h, start, end))
                        == monitor.gaussian_segment_cost(x[start:end]))


def test_default_cost_never_reads_the_history_values():
    rng = np.random.default_rng(14)
    x = np.concatenate([rng.normal(size=30), 4.0 + rng.normal(size=30)])
    want = pelt(list(x), 6.0, 3)
    history = PeltHistory(x)
    history[:] = [math.nan] * x.size  # list assignment bypasses the prefix sums
    # a cost computed from the values would raise on nan
    assert pelt(history, 6.0, 3) == want
    assert (monitor.gaussian_segment_cost(Segment(history, 5, 40))
            == monitor.gaussian_segment_cost(x[5:40]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_pelt_history_rejects_non_finite_values(bad):
    history = PeltHistory([1.0, 2.0])
    with pytest.raises(ValueError, match="finite"):
        history.append(bad)
    assert list(history) == [1.0, 2.0] and len(history.s1) == 3
    with pytest.raises(ValueError, match="finite"):
        pelt([1.0, 2.0, bad, 3.0], 1.0)
    state = new_state(PeltPolicy(penalty=5.0))
    with pytest.raises(ValueError, match="finite"):
        observe(state, np.array([bad]))
    assert state.batches_seen == 0 and not state.loss_history


def test_fixed_penalty_history_keeps_only_the_first_search_costs():
    rng = np.random.default_rng(13)
    min_seg_len = 5
    state = new_state(PeltPolicy(penalty=60.0, min_seg_len=min_seg_len))
    rows = []
    for _ in range(300):
        assert not observe(state, 4.0 * rng.chisquare(1, size=60)).retrain
        rows.append(len(state.loss_history.costs))
    # the first search ran at 2 * min_seg_len values; the resumed ones store no costs
    first = rows[2 * min_seg_len - 1]
    assert first > 0 and rows[2 * min_seg_len - 1:] == [first] * (301 - 2 * min_seg_len)
    assert max(state.loss_history.costs) == 2 * min_seg_len
    assert len(state.loss_history) == 300


# ---------------------------------------------------------------------------
# Deterministic schedules
# ---------------------------------------------------------------------------

def test_every_k_schedule():
    state = new_state(EveryKBatches(k=1))
    flags = [observe(state, np.ones(4)).retrain for _ in range(5)]
    assert flags == [True] * 5

    state = new_state(EveryKBatches(k=3))
    flags = [observe(state, np.ones(4)).retrain for _ in range(9)]
    assert flags == [False, False, True] * 3
    assert state.batches_seen == 9


def test_never_schedule():
    state = new_state(NeverPolicy())
    flags = [observe(state, np.ones(4)).retrain for _ in range(10)]
    assert flags == [False] * 10
