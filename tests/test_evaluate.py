import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftmon.errors import EmptyLog, ParseError, ShapeError
from driftmon.evaluate import (
    FORECAST_COLUMNS,
    BatchRecord,
    RunLog,
    build_report,
    detection_delays,
    read_runlog,
    sape,
    sape_values,
    squared_loss_batch,
    write_report_csv,
    write_report_json,
    write_runlog,
)
from driftmon.monitor import POLICIES, RETRAIN_LABELS, EveryKBatches, new_state, observe
from driftmon.streams import write_table

finite = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)


def record(stream, batch, forecasts, actuals, retrain=False, decision=None, seconds=0.0):
    forecasts = np.asarray(forecasts, dtype=float)
    actuals = np.asarray(actuals, dtype=float)
    return BatchRecord(
        stream_id=stream, batch_index=batch, batch_end=batch * len(forecasts),
        forecasts=forecasts, actuals=actuals,
        decision=decision or ("reject" if retrain else "accept"),
        p_value=0.01 if retrain else 0.5,
        statistic=2.0 if retrain else 0.1, model_token="m@0#0",
        retrain_seconds=seconds,
    )


def test_squared_loss_examples():
    assert squared_loss_batch([1.0, 2.0], [0.0, 0.0]).tolist() == [1.0, 4.0]
    assert squared_loss_batch([3.0, 3.0], [3.0, 3.0]).tolist() == [0.0, 0.0]
    actuals = np.array([1.0, 2.0, 5.0])
    forecasts = np.array([0.5, 2.5, 4.0])
    losses = squared_loss_batch(actuals, forecasts)
    assert losses.mean() == pytest.approx(np.mean((actuals - forecasts) ** 2))


def test_squared_loss_shape_error():
    with pytest.raises(ShapeError):
        squared_loss_batch([1.0, 2.0], [1.0])
    with pytest.raises(ShapeError):
        squared_loss_batch([], [])


def test_loss_batch_validation():
    for bad in (np.inf, -np.inf, np.nan, 1e200):  # 1e200 is finite, its square is not
        with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
            squared_loss_batch([1.0, 2.0], [0.5, bad])


def test_sape_examples():
    assert sape(7.0, 7.0) == 0.0
    assert sape(0.0, 5.0) == 100.0
    assert sape(3.0, 1.0) == 50.0
    assert sape(0.0, 0.0) == 0.0


@settings(max_examples=100, deadline=None)
@given(a=finite, b=finite)
def test_sape_symmetric_and_bounded(a, b):
    value = sape(a, b)
    assert 0.0 <= value <= 100.0
    assert value == sape(b, a)


@settings(max_examples=80, deadline=None)
@given(a=finite, b=finite, log2c=st.integers(-20, 20))
def test_sape_scale_invariant(a, b, log2c):
    c = 2.0 ** log2c
    assert sape(c * a, c * b) == sape(a, b)


def test_sape_values_vectorized_matches_scalar():
    rng = np.random.default_rng(0)
    a = rng.normal(size=50)
    f = rng.normal(size=50)
    vec = sape_values(a, f)
    assert vec == pytest.approx([sape(x, y) for x, y in zip(a, f)])


def test_build_report_smape_and_breaks():
    log = RunLog(stream_ids=("a",), horizon=2, policy_name="mean_test",
                 forecaster="naive", seed=0)
    log.append(record("a", 1, [1.0, 1.0], [1.0, 1.0]))                # sape 0, 0
    log.append(record("a", 2, [0.0, 0.0], [1.0, 1.0], retrain=True))  # sape 100, 100
    report = build_report(log)
    assert report.streams[0].smape == pytest.approx(50.0)
    assert report.streams[0].n_breaks == 1
    assert math.isnan(report.streams[0].p50_duration)
    assert report.avg_smape == pytest.approx(50.0)


def test_build_report_durations_and_averages():
    log = RunLog(stream_ids=("a", "b"), horizon=1, policy_name="mean_test",
                 forecaster="naive", seed=0)
    for batch in range(1, 11):
        log.append(record("a", batch, [1.0], [1.0], retrain=batch in (2, 5, 9),
                          seconds=1.5 if batch in (2, 5, 9) else 0.0))
        log.append(record("b", batch, [0.0], [2.0]))
    report = build_report(log)
    a = report.streams[0]
    assert a.n_breaks == 3
    assert a.p50_duration == pytest.approx(3.5)  # gaps 3 and 4
    assert a.retrain_seconds == pytest.approx(4.5)
    b = report.streams[1]
    assert b.smape == 100.0
    assert report.avg_smape == pytest.approx(50.0)
    assert report.avg_breaks == pytest.approx(1.5)
    assert report.total_retrain_seconds == pytest.approx(4.5)


def test_build_report_empty_log():
    with pytest.raises(EmptyLog):
        build_report(RunLog(stream_ids=("a",), horizon=1, policy_name="never",
                            forecaster="naive", seed=0))


def test_detection_delays():
    log = RunLog(stream_ids=("a",), horizon=1, policy_name="mean_test",
                 forecaster="naive", seed=0,
                 meta={"shift_batches": {"a": [3, 8]}})
    for batch in range(1, 11):
        log.append(record("a", batch, [1.0], [1.0], retrain=batch == 5))
    assert detection_delays(log) == {"a": [2, -1]}


def test_runlog_roundtrip(tmp_path):
    log = RunLog(stream_ids=("a", "b"), horizon=2, policy_name="mean_test",
                 forecaster="forest", seed=3, config_hash="deadbeef")
    rng = np.random.default_rng(1)
    for batch in range(1, 5):
        for stream in ("a", "b"):
            log.append(record(stream, batch, rng.normal(size=2), rng.normal(size=2),
                              retrain=(batch == 3 and stream == "a"),
                              seconds=0.25 if batch == 3 and stream == "a" else 0.0))
    out = tmp_path / "log"
    write_runlog(log, str(out))
    again = read_runlog(str(out))
    direct = build_report(log)
    rebuilt = build_report(again)
    for mine, one in zip(direct.streams, rebuilt.streams):
        assert one.stream_id == mine.stream_id
        assert one.smape == pytest.approx(mine.smape, rel=1e-12)
        assert one.n_breaks == mine.n_breaks
        assert one.retrain_seconds == pytest.approx(mine.retrain_seconds)


def test_record_losses_are_the_squared_loss_batch_values():
    rng = np.random.default_rng(2)
    forecasts, actuals = rng.normal(size=7), rng.normal(size=7)
    r = record("a", 1, forecasts, actuals)
    assert np.array_equal(r.losses, squared_loss_batch(actuals, forecasts))
    assert not hasattr(r, "__dict__")


def test_read_runlog_derives_losses_and_ignores_loss_column(tmp_path):
    log = RunLog(stream_ids=("a",), horizon=3, policy_name="mean_test",
                 forecaster="naive", seed=0)
    log.append(record("a", 1, [0.1, 0.2, 0.3], [1.0, -2.0, 1e-3]))
    out = tmp_path / "log"
    write_runlog(log, str(out))
    path = out / "forecasts.csv"
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    assert header[-1] == "loss"
    written = [float(line.split(",")[-1]) for line in lines[2:]]
    assert np.array_equal(written, log.records[0].losses)
    # a corrupted loss column does not reach the rebuilt record
    path.write_text("\n".join(lines[:2] + [line.rsplit(",", 1)[0] + ",-1.0" for line in lines[2:]])
                    + "\n")
    again = read_runlog(str(out)).records[0]
    assert np.array_equal(again.losses, log.records[0].losses)


def test_forecasts_csv_is_what_csv_writer_writes(tmp_path):
    # Stream ids that csv.writer must quote, and floats whose reprs are
    # unusual: forecasts.csv must be the bytes of the plain table writer.
    values = [-0.0, 5e-324, 1e16, 1e-5]
    log = RunLog(stream_ids=("a,b", 'say "hi"', "cr\rid", "lf\nid", ""), horizon=4,
                 policy_name="never", forecaster="naive", seed=5, config_hash="c0ffee")
    for batch in (1, 2):
        for k, stream in enumerate(log.stream_ids):
            log.append(record(stream, batch, np.roll(values, k), np.roll(values, batch + k)))
    write_runlog(log, str(tmp_path / "log"))
    write_table(str(tmp_path / "want.csv"), FORECAST_COLUMNS,
                ((r.stream_id, r.batch_index, q + 1, r.batch_end - r.forecasts.size + 1 + q,
                  *values)
                 for r in log.records
                 for q, values in enumerate(zip(r.forecasts.tolist(), r.actuals.tolist(),
                                                r.losses.tolist()))),
                stamp=log.stamp)
    got = (tmp_path / "log" / "forecasts.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    assert b'"a,b"' in got and b'"say ""hi"""' in got and b"\n,1,1," in got


def test_report_files(tmp_path):
    log = RunLog(stream_ids=("a",), horizon=1, policy_name="never",
                 forecaster="naive", seed=0)
    log.append(record("a", 1, [1.0], [3.0], decision="final"))
    report = build_report(log)
    csv_path = tmp_path / "report.csv"
    json_path = tmp_path / "report.json"
    write_report_csv(report, str(csv_path), header_comment="config_hash=x seed=0")
    write_report_json(report, str(json_path))
    text = csv_path.read_text()
    assert text.startswith("# config_hash=x seed=0\n")
    assert "stream_id,smape,n_breaks,p50_duration,p90_duration,retrain_seconds" in text
    import json
    payload = json.loads(json_path.read_text())
    assert payload["streams"][0]["smape"] == pytest.approx(50.0)
    assert payload["average"]["smape"] == pytest.approx(50.0)


def _drop_event_row(out):
    path = out / "events.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:4] + lines[5:]))


def _drop_forecast_group(out):
    path = out / "forecasts.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(line for line in lines if not line.startswith("b,2,")))


def _swap_event_rows(out):
    path = out / "events.csv"
    lines = path.read_text().splitlines(keepends=True)
    lines[3], lines[4] = lines[4], lines[3]
    path.write_text("".join(lines))


@pytest.mark.parametrize("corrupt", [_drop_event_row, _drop_forecast_group, _swap_event_rows],
                         ids=["event-row-deleted", "forecast-group-deleted", "event-rows-swapped"])
def test_read_runlog_rejects_files_that_disagree(tmp_path, corrupt):
    log = RunLog(stream_ids=("a", "b"), horizon=2, policy_name="mean_test",
                 forecaster="naive", seed=5, config_hash="cafe")
    for batch in range(1, 4):
        for stream in ("a", "b"):
            log.append(record(stream, batch, [1.0, 2.0], [1.5, 2.5]))
    out = tmp_path / "log"
    write_runlog(log, str(out))
    again = read_runlog(str(out))
    assert (again.config_hash, again.seed, again.stamp) == ("cafe", 5, log.stamp)
    corrupt(out)
    with pytest.raises(ParseError, match="events.csv"):
        read_runlog(str(out))


# Loss batches that take every policy through each of its decisions: the
# mean test warms up, accepts, then rejects the shifted batch; every_2 holds
# and retrains; PELT holds, then detects the shift once it has two segments.
_BATCHES = [np.full(4, 1.0) + 0.01 * np.arange(4)] * 6 + [np.full(4, 50.0) + np.arange(4)] * 4


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_a_decision_label_is_a_retrain_label_exactly_when_the_decision_retrains(name):
    policy = EveryKBatches(k=2) if name == "every_k" else POLICIES[name]()
    state = new_state(policy)
    labels = set()
    for losses in _BATCHES:
        decision = observe(state, losses)
        label = policy.label(decision)
        labels.add(label)
        assert (label in RETRAIN_LABELS) == decision.retrain
        assert record("a", 1, [0.0], [0.0], decision=label).retrain == decision.retrain
    assert labels == {"mean_test": {"warmup", "accept", "reject"}, "every_k": {"hold", "retrain"},
                      "pelt": {"hold", "retrain"}, "never": {"hold"}}[name]


def test_read_runlog_rejects_events_that_name_two_policies(tmp_path):
    log = RunLog(stream_ids=("a",), horizon=1, policy_name="mean_test",
                 forecaster="naive", seed=0)
    for batch in range(1, 4):
        log.append(record("a", batch, [1.0], [1.5]))
    write_runlog(log, str(tmp_path))
    assert read_runlog(str(tmp_path)).policy_name == "mean_test"
    path = tmp_path / "events.csv"
    lines = path.read_text().splitlines(keepends=True)
    lines[4] = lines[4].replace(",mean_test,", ",pelt,")  # the third record
    path.write_text("".join(lines))
    with pytest.raises(ParseError, match="events.csv names policy 'pelt'") as exc:
        read_runlog(str(tmp_path))
    assert exc.value.row == 5
