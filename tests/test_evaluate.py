import math
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftmon import evaluate
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


# Stream ids that csv.writer quotes, or that a reader could strip, and
# floats whose reprs are unusual.
_ODD_IDS = ["a,b", 'say "hi"', "cr\rid", "lf\nid", "", " lead", "trail ", " both ", "#x"]
_EDGE_FLOATS = [-0.0, 5e-324, 1e16, 1e-5, 1e49]


@st.composite
def odd_runlogs(draw):
    ids = draw(st.lists(st.sampled_from(_ODD_IDS) | st.text(max_size=6), min_size=1,
                        max_size=4, unique=True))
    # finite squared errors, as the pipeline's records have
    values = st.sampled_from(_EDGE_FLOATS) | st.floats(-1e150, 1e150)
    log = RunLog(stream_ids=tuple(ids), horizon=0, policy_name=draw(st.sampled_from(
                     ["mean_test", "pelt", "a,b policy"])),
                 forecaster="naive", seed=draw(st.integers(0, 2**31)),
                 config_hash=draw(st.sampled_from(["", "c0ffee"])))
    for batch in range(1, draw(st.integers(1, 4)) + 1):
        for stream in ids:
            size = draw(st.integers(1, 5))
            seconds = draw(st.sampled_from([0.0, 1e-5, 2.5]))
            log.append(BatchRecord(
                stream_id=stream, batch_index=batch, batch_end=draw(st.integers(-3, 10**6)),
                forecasts=np.array(draw(st.lists(values, min_size=size, max_size=size))),
                actuals=np.array(draw(st.lists(values, min_size=size, max_size=size))),
                decision=draw(st.sampled_from(["warmup", "accept", "reject", "hold", "retrain",
                                               "final"])),
                p_value=draw(st.none() | values), statistic=draw(st.none() | values),
                model_token="", retrain_seconds=seconds))
    log.horizon = log.records[0].forecasts.size
    return log


@settings(max_examples=60, deadline=None)
@given(log=odd_runlogs(), chunk_rows=st.sampled_from([2, 3, evaluate.CHUNK_ROWS]))
def test_read_runlog_round_trips_every_field(log, chunk_rows):
    # with 2 or 3 rows a chunk, most records straddle a chunk boundary
    with tempfile.TemporaryDirectory() as out, \
            mock.patch.object(evaluate, "CHUNK_ROWS", chunk_rows):
        write_runlog(log, out)
        again = read_runlog(out)
    assert (again.stream_ids, again.horizon, again.policy_name, again.seed,
            again.config_hash) == (log.stream_ids, log.horizon, log.policy_name, log.seed,
                                   log.config_hash)
    assert len(again.records) == len(log.records)
    for mine, read in zip(log.records, again.records):
        assert read.forecasts.tobytes() == mine.forecasts.tobytes()  # -0.0 too
        assert read.actuals.tobytes() == mine.actuals.tobytes()
        fields_of = [(r.stream_id, r.batch_index, r.batch_end, r.decision, r.p_value,
                      r.statistic, r.retrain_seconds) for r in (mine, read)]
        assert fields_of[0] == fields_of[1]
        assert [type(x) for x in fields_of[0]] == [type(x) for x in fields_of[1]]


def _set_field(field, value):
    """Counted from the end, since a quoted stream id may hold a comma."""
    def corrupt(line):
        row = line.split(",")
        row[field] = value
        return ",".join(row)
    return corrupt


@pytest.mark.parametrize("chunk_rows", [2, 3, evaluate.CHUNK_ROWS])
@pytest.mark.parametrize("corrupt", [
    _set_field(-3, "x"), _set_field(-2, ""), _set_field(-6, "1.5"), _set_field(-4, "2e3"),
    lambda line: line.rsplit(",", 3)[0],   # 4 fields
    lambda line: "",                        # a blank line
    _set_field(-6, "9"),                    # a record events.csv does not list there
], ids=["forecast-x", "actual-empty", "batch-float", "tick-float", "four-fields", "blank",
        "batch-9"])
@pytest.mark.parametrize("bad_line", [3, 6, 7, 10])
def test_read_runlog_names_the_forecasts_line_that_does_not_parse(tmp_path, chunk_rows,
                                                                  corrupt, bad_line):
    log = RunLog(stream_ids=("a", "b,c"), horizon=2, policy_name="never",
                 forecaster="naive", seed=0)
    for batch in range(1, 3):
        for stream in log.stream_ids:
            log.append(record(stream, batch, [1.0, 2.0], [1.5, 2.5]))
    write_runlog(log, str(tmp_path))
    path = tmp_path / "forecasts.csv"
    lines = path.read_text().splitlines()
    lines[bad_line - 1] = corrupt(lines[bad_line - 1])
    path.write_text("\n".join(lines) + "\n")
    with mock.patch.object(evaluate, "CHUNK_ROWS", chunk_rows), \
            pytest.raises(ParseError, match="forecasts.csv") as exc:
        read_runlog(str(tmp_path))
    assert exc.value.row == bad_line


@pytest.mark.parametrize("chunk_rows", [2, 3, evaluate.CHUNK_ROWS])
@pytest.mark.parametrize("blank_line", [3, 4, 6, 7, 10, 11])
def test_read_runlog_rejects_a_blank_forecasts_line_that_loadtxt_skips_quietly(
        tmp_path, chunk_rows, blank_line):
    # numpy 1.23 began to warn when loadtxt skips a blank line under max_rows
    # and means to stop; the read must not lean on that warning
    log = RunLog(stream_ids=("a", "b,c"), horizon=2, policy_name="never",
                 forecaster="naive", seed=0)
    for batch in range(1, 3):
        for stream in log.stream_ids:
            log.append(record(stream, batch, [1.0, 2.0], [1.5, 2.5]))
    write_runlog(log, str(tmp_path))
    path = tmp_path / "forecasts.csv"
    lines = path.read_text().splitlines()
    lines.insert(blank_line - 1, "")
    path.write_text("\n".join(lines) + "\n")
    loadtxt = np.loadtxt

    def quiet_loadtxt(*args, **kwargs):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            return loadtxt(*args, **kwargs)

    with mock.patch.object(evaluate, "CHUNK_ROWS", chunk_rows), \
            mock.patch.object(np, "loadtxt", quiet_loadtxt), \
            pytest.raises(ParseError, match="forecasts.csv") as exc:
        read_runlog(str(tmp_path))
    assert exc.value.row == blank_line


def _reference_smapes(log):
    """Per-stream SMAPE with one sape_values call per record, added in record order."""
    smapes = {}
    for stream_id in log.stream_ids:
        total, count = 0.0, 0
        for r in log.for_stream(stream_id):
            total += float(sape_values(r.actuals, r.forecasts).sum())
            count += r.actuals.size
        if count:
            smapes[stream_id] = total / count
    return smapes


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_streams=st.integers(1, 3),
       horizons=st.lists(st.sampled_from([1, 7, 8, 9, 60, 129, 300]), min_size=1, max_size=3),
       zero_share=st.sampled_from([0.0, 0.3]))
def test_build_report_equals_the_per_record_sums(seed, n_streams, horizons, zero_share):
    rng = np.random.default_rng(seed)
    ids = tuple(f"s{k}" for k in range(n_streams))
    log = RunLog(stream_ids=ids, horizon=horizons[0], policy_name="never",
                 forecaster="naive", seed=0)
    for batch in range(1, 6):
        size = horizons[batch % len(horizons)]
        # actuals as the pipeline stores them: strided views of a panel's columns
        panel = rng.lognormal(0, 3, size=(size, n_streams)) * rng.choice([-1, 1], (size, 1))
        forecasts = rng.normal(size=(n_streams, size)) * 10.0 ** rng.integers(-3, 4)
        zeros = rng.random((size, n_streams)) < zero_share   # 0/0 cells
        panel[zeros] = 0.0
        forecasts[zeros.T] = 0.0
        for k, stream in enumerate(ids):
            log.append(record(stream, batch, forecasts[k], panel[:, k]))
    got = {s.stream_id: s.smape for s in build_report(log).streams}
    want = _reference_smapes(log)
    assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}


def test_build_report_of_a_hand_written_run_log_with_records_of_unequal_length(tmp_path):
    stamp = "# config_hash=abc seed=1\r\n"
    (tmp_path / "forecasts.csv").write_bytes((
        stamp + ",".join(FORECAST_COLUMNS) + "\r\n"
        "a,1,1,1,1.0,3.0,4.0\r\n"
        "a,1,2,2,0.0,0.0,0.0\r\n"
        "b,1,1,1,2.5,2.0,0.25\r\n"
        "a,2,1,3,-1.0,1.0,4.0\r\n"
        "a,2,2,4,0.1,0.3,0.04\r\n"
        "a,2,3,5,7.0,7.0,0.0\r\n"
        "b,2,1,2,0.0,1e-300,1e-600\r\n").encode())
    (tmp_path / "events.csv").write_bytes((
        stamp + "stream_id,batch_index,policy,decision,p_value,statistic\r\n"
        "a,1,never,hold,,\r\nb,1,never,hold,,\r\na,2,never,final,,\r\nb,2,never,final,,\r\n"
    ).encode())
    log = read_runlog(str(tmp_path))
    assert [r.forecasts.size for r in log.records] == [2, 1, 3, 1]
    report = build_report(log)
    want = _reference_smapes(log)
    assert [s.smape for s in report.streams] == [want["a"], want["b"]]
    # a: (50 + 0 + 100 + 50 + 0) / 5; b: (100 * 0.5 / 4.5 + 100) / 2
    assert report.streams[0].smape == pytest.approx(40.0)
    assert report.streams[1].smape == pytest.approx((100 * 0.5 / 4.5 + 100) / 2)
