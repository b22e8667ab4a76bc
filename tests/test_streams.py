import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftmon.errors import IncompletePanel, ParseError
from driftmon.streams import StreamSet, batch_ends, ingest_csv, write_csv


def make_csv(path, rows, header="tick,stream_id,value", comment=None):
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(header)
    lines.extend(rows)
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_ingest_complete_grid(tmp_path):
    rows = [f"{t},{s},{t * 10 + i}" for t in range(1, 5) for i, s in enumerate(["a", "b"])]
    streams = ingest_csv(make_csv(tmp_path / "d.csv", rows), slots_per_batch=2)
    assert streams.n_ticks == 4
    assert streams.n_streams == 2
    assert streams.stream_ids == ("a", "b")
    assert streams.values[3 - 1, 1] == 31.0  # tick 3, stream b


def test_ingest_orders_streams_by_first_appearance(tmp_path):
    rows = ["1,zeta,1", "1,alpha,2", "2,zeta,3", "2,alpha,4"]
    streams = ingest_csv(make_csv(tmp_path / "d.csv", rows))
    assert streams.stream_ids == ("zeta", "alpha")


def test_ingest_missing_cell(tmp_path):
    rows = ["1,a,1", "1,b,2", "2,a,3", "2,b,4", "3,b,6"]
    with pytest.raises(IncompletePanel) as exc:
        ingest_csv(make_csv(tmp_path / "d.csv", rows))
    assert exc.value.tick == 3
    assert exc.value.stream_id == "a"


def test_ingest_nan_value_reports_row(tmp_path):
    # header is line 1, so the NaN on data line 4 is file row 5
    rows = ["1,a,1", "2,a,2", "3,a,3", "4,a,NaN", "5,a,5"]
    with pytest.raises(ParseError) as exc:
        ingest_csv(make_csv(tmp_path / "d.csv", rows))
    assert exc.value.row == 5


def test_ingest_rejects_bad_header(tmp_path):
    with pytest.raises(ParseError) as exc:
        ingest_csv(make_csv(tmp_path / "d.csv", ["1,a,1"], header="time,series,val"))
    assert exc.value.row == 1


def test_ingest_rejects_garbage_and_duplicates(tmp_path):
    with pytest.raises(ParseError):
        ingest_csv(make_csv(tmp_path / "a.csv", ["x,a,1"]))
    with pytest.raises(ParseError):
        ingest_csv(make_csv(tmp_path / "b.csv", ["1,a,1", "1,a,2"]))
    with pytest.raises(ParseError):
        ingest_csv(make_csv(tmp_path / "c.csv", ["1,a"]))


def test_ingest_reads_a_quoted_stream_id_with_a_comma(tmp_path):
    rows = ['1,"a,b",1', "1,c,2", '2,"a,b",3', "2,c,4"]
    streams = ingest_csv(make_csv(tmp_path / "d.csv", rows))
    assert streams.stream_ids == ("a,b", "c")
    assert np.array_equal(streams.values, [[1.0, 2.0], [3.0, 4.0]])


def test_ingest_fails_an_unclosed_quote_on_its_own_line(tmp_path):
    # The next line closes the quote: read on into it, line 3 would be the
    # well-formed row (1, "b\nx", 2).
    rows = ["1,a,1", '1,"b', 'x",2', "2,a,3"]
    with pytest.raises(ParseError) as exc:
        ingest_csv(make_csv(tmp_path / "d.csv", rows))
    assert exc.value.row == 3
    assert str(exc.value) == "row 3: expected 3 fields, got 2"


def test_ingest_skips_comment_lines(tmp_path):
    rows = ["1,a,1.5", "2,a,2.5"]
    streams = ingest_csv(make_csv(tmp_path / "d.csv", rows, comment="config_hash=zz seed=1"))
    assert streams.n_ticks == 2


def test_batch_ends_examples():
    def panel(T, B):
        return StreamSet(values=np.zeros((T, 1)), stream_ids=("a",), slots_per_batch=B)

    assert batch_ends(panel(10, 5)) == [5, 10]
    assert batch_ends(panel(9, 5)) == [5]
    assert len(batch_ends(panel(180 * 60, 60))) == 180


@settings(max_examples=60, deadline=None)
@given(T=st.integers(1, 500), B=st.integers(1, 60))
def test_batch_ends_properties(T, B):
    streams = StreamSet(values=np.zeros((T, 1)), stream_ids=("a",), slots_per_batch=B)
    ends = batch_ends(streams)
    assert len(ends) == T // B
    assert all(b % B == 0 and b <= T for b in ends)
    assert ends == sorted(ends)


def test_roundtrip_identity(tmp_path):
    rng = np.random.default_rng(7)
    original = StreamSet(values=rng.normal(size=(12, 3)) * 1e3,
                         stream_ids=("x", "y", "z"), slots_per_batch=4)
    path = str(tmp_path / "round.csv")
    write_csv(original, path, header_comment="config_hash=abc seed=7")
    again = ingest_csv(path, slots_per_batch=4)
    assert again.stream_ids == original.stream_ids
    assert np.array_equal(again.values, original.values)


def test_write_is_deterministic(tmp_path):
    streams = StreamSet(values=np.linspace(0, 1, 6).reshape(3, 2),
                        stream_ids=("a", "b"), slots_per_batch=3)
    p1, p2 = str(tmp_path / "one.csv"), str(tmp_path / "two.csv")
    write_csv(streams, p1)
    write_csv(streams, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_streamset_validation():
    with pytest.raises(ValueError):
        StreamSet(values=np.array([[np.nan]]), stream_ids=("a",), slots_per_batch=1)
    with pytest.raises(ValueError):
        StreamSet(values=np.zeros((2, 2)), stream_ids=("a", "a"), slots_per_batch=1)
    with pytest.raises(ValueError):
        StreamSet(values=np.zeros((2, 2)), stream_ids=("a", "b"), slots_per_batch=0)


def test_streamset_is_immutable():
    streams = StreamSet(values=np.zeros((2, 2)), stream_ids=("a", "b"), slots_per_batch=1)
    with pytest.raises(ValueError):
        streams.values[0, 0] = 1.0

