import numpy as np
import pytest

from driftmon.errors import InsufficientHistory
from driftmon.features import FeatureSpec, feature_matrix, training_set
from driftmon.streams import StreamSet

FULL_SPEC = FeatureSpec(lags=(60, 420), slots_per_day=60)
BARE = dict(include_trend=False, include_hour_dummies=False, include_dow_dummies=False)


def panel(values, B=60):
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    ids = tuple(f"s{i + 1}" for i in range(values.shape[1]))
    return StreamSet(values=values, stream_ids=ids, slots_per_batch=B)


def test_column_count_matches_platform_arithmetic():
    # 2 lags x D streams + trend + 6 dow + 14 hour dummies
    ids = tuple(f"s{i + 1}" for i in range(32))
    assert len(FULL_SPEC.column_names(ids[:2])) == 2 * 2 + 1 + 6 + 14 == 25
    assert len(FULL_SPEC.column_names(ids)) == 32 * 2 + 1 + 6 + 14 == 85  # 86 params with intercept


def test_column_names_order():
    names = FULL_SPEC.column_names(("s1", "s2"))
    assert names[:4] == ["lag60_s1", "lag60_s2", "lag420_s1", "lag420_s2"]
    assert names[4] == "trend"
    assert names[5:11] == [f"dow_{k}" for k in range(1, 7)]
    assert names[11:] == [f"hour_{k}" for k in range(1, 15)]


def test_lag_of_constant_stream():
    spec = FeatureSpec(lags=(2,), **BARE)
    streams = panel(np.full(10, 7.0), B=2)
    for t in range(3, 11):
        assert feature_matrix(streams, spec, [t])[0].tolist() == [7.0]


def test_insufficient_history_at_boundary():
    spec = FeatureSpec(lags=(2,), **BARE)
    streams = panel(np.arange(10.0), B=2)
    with pytest.raises(InsufficientHistory):
        feature_matrix(streams, spec, [2])  # t == max lag
    assert feature_matrix(streams, spec, [3])[0].tolist() == [0.0]  # t-2 -> tick 1


def test_trend_and_dummies():
    spec = FeatureSpec(lags=(60,), slots_per_day=60)
    streams = panel(np.arange(60.0 * 16), B=60)
    vec = feature_matrix(streams, spec, [61])[0]  # day 2, first slot
    names = spec.column_names(("s1",))
    assert vec[names.index("trend")] == pytest.approx(61 / 60)
    assert vec[names.index("dow_1")] == 1.0  # day index 1 -> level 1
    assert sum(vec[names.index(f"dow_{k}")] for k in range(1, 7)) == 1.0
    assert sum(vec[names.index(f"hour_{k}")] for k in range(1, 15)) == 0.0  # hour level 0


def test_dummy_rows_sum_to_at_most_one():
    streams = panel(np.random.default_rng(0).normal(size=(60 * 30, 2)), B=60)
    ticks = np.arange(421, 421 + 200)
    X = feature_matrix(streams, FULL_SPEC, ticks)
    names = FULL_SPEC.column_names(streams.stream_ids)
    dow = X[:, [names.index(f"dow_{k}") for k in range(1, 7)]]
    hour = X[:, [names.index(f"hour_{k}") for k in range(1, 15)]]
    for block in (dow, hour):
        sums = block.sum(axis=1)
        assert np.all((sums == 0.0) | (sums == 1.0))


def test_training_set_enumeration():
    # D=1, J={1}, stream [1,2,3,4], window covering t=2..4
    spec = FeatureSpec(lags=(1,), slots_per_day=1, **BARE)
    streams = panel(np.array([1.0, 2.0, 3.0, 4.0]), B=1)
    data = training_set(streams, spec, 0, window_end=4, window_days=3)
    assert data.X.tolist() == [[1.0], [2.0], [3.0]]
    assert data.y.tolist() == [2.0, 3.0, 4.0]


def test_training_set_lag_trim_and_cap():
    spec = FeatureSpec(lags=(60, 420), slots_per_day=60, **BARE)
    T = 200 * 60
    streams = panel(np.random.default_rng(1).normal(size=T), B=60)
    data = training_set(streams, spec, 0, window_end=T, window_days=180)
    assert data.X.shape[0] == 180 * 60  # window clear of the lag trim
    assert data.X.shape[0] <= 10_800
    early = training_set(streams, spec, 0, window_end=480, window_days=8)
    assert early.X.shape[0] == 60  # ticks 421..480 survive the trim


def test_training_set_empty_window_raises():
    spec = FeatureSpec(lags=(60, 420), slots_per_day=60, **BARE)
    streams = panel(np.zeros(600), B=60)
    with pytest.raises(InsufficientHistory):
        training_set(streams, spec, 0, window_end=400, window_days=5)


def test_leakage_sentinel():
    """No feature for targets in (b, b+Q] may touch data after b."""
    rng = np.random.default_rng(2)
    T, D, b, Q = 60 * 20, 3, 60 * 15, 60
    values = rng.normal(size=(T, D))
    values[b:, :] = 1e15  # sentinel marks the future
    streams = panel(values, B=60)
    X = feature_matrix(streams, FULL_SPEC, np.arange(b + 1, b + Q + 1))
    assert np.all(np.abs(X) < 1e15)


def test_feature_matrix_deterministic():
    streams = panel(np.random.default_rng(3).normal(size=(60 * 20, 2)), B=60)
    ticks = np.arange(421, 1021)
    a = feature_matrix(streams, FULL_SPEC, ticks)
    b = feature_matrix(streams, FULL_SPEC, ticks)
    assert np.array_equal(a, b)


def test_spec_validation():
    with pytest.raises(ValueError):
        FeatureSpec(lags=())
    with pytest.raises(ValueError):
        FeatureSpec(lags=(0,))
    with pytest.raises(ValueError):
        FeatureSpec(lags=(60,), slots_per_day=30, include_hour_dummies=True,
                    days_per_week=7)  # 30 not divisible by 4
    spec = FeatureSpec(lags=(420, 60))
    assert spec.lags == (60, 420)  # stored ascending


def direct_dummies(spec, ticks):
    """Day-of-week then hour-of-day dummies, each compared level by level."""
    ticks = np.asarray(ticks)
    blocks = [np.empty((ticks.size, 0))]
    if spec.include_dow_dummies:
        dow = (ticks - 1) // spec.slots_per_day % spec.days_per_week
        blocks.append((dow[:, None] == np.arange(1, spec.days_per_week)).astype(float))
    if spec.include_hour_dummies:
        hour = (ticks - 1) % spec.slots_per_day // 4
        blocks.append((hour[:, None] == np.arange(1, spec.slots_per_day // 4)).astype(float))
    return np.hstack(blocks)


@pytest.mark.parametrize("trend", [False, True])
@pytest.mark.parametrize("dow", [False, True])
@pytest.mark.parametrize("hour", [False, True])
@pytest.mark.parametrize("days_per_week", [1, 7])
@pytest.mark.parametrize("slots_per_day", [4, 60])
def test_feature_matrix_equals_the_direct_construction(trend, dow, hour, days_per_week,
                                                       slots_per_day):
    spec = FeatureSpec(lags=(1, 5), slots_per_day=slots_per_day, days_per_week=days_per_week,
                       include_trend=trend, include_dow_dummies=dow, include_hour_dummies=hour)
    n_ticks = 3 * slots_per_day * days_per_week + 11   # more than three weeks
    streams = panel(np.random.default_rng(slots_per_day).normal(size=(n_ticks, 2)))
    ticks = np.arange(6, n_ticks + 1)
    for chosen in (ticks, ticks[::-7], ticks[[0]], ticks[:0]):
        lags = [streams.values[chosen - j - 1] for j in spec.lags]
        trend_column = [(chosen / slots_per_day)[:, None]] if trend else []
        want = np.hstack(lags + trend_column + [direct_dummies(spec, chosen)])
        got = feature_matrix(streams, spec, chosen)
        assert got.shape == want.shape == (chosen.size, len(spec.column_names(("a", "b"))))
        assert got.dtype == want.dtype and np.array_equal(got, want)
