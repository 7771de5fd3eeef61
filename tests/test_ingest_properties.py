"""Property tests: the fast ingest paths against the slow code they replace.

The grid ``build_timeslots`` returns, read slot by slot, must equal the
per-slot binary-search build over random events, frames and day origins,
errors included, and its ``event_at`` must hold each event's microseconds
from the grid's start; ``parse_timestamp`` must accept, reject and read every text
as ``strptime`` with ``TIMESTAMP_FORMAT`` does; and ``parse_sensor_log`` must
read fuzzed sensor logs as the per-row parser does: the same frames, or the
same first error, which ``label`` reports with exit code 2.  So must
``parse_operation_log`` read fuzzed operation logs, the warnings for skipped
pairs included.  Both are fuzzed at small block sizes too, so that faults
fall on either side of block bounds.  ``write_sensor_log`` must write any
float64 reading and any stamp as the per-row writer does.
"""

import logging
from datetime import datetime, time, timedelta
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from homeguard import ingest  # noqa: E402
from homeguard.cli import main  # noqa: E402
from homeguard.errors import HomeguardError  # noqa: E402
from homeguard.ingest import (  # noqa: E402
    SENSOR_HEADER,
    EventRecord,
    build_timeslots,
    offsets_from,
    parse_operation_log,
    parse_sensor_log,
    write_sensor_log,
)
from homeguard.vocab import DEFAULT_SENSOR_RANGES, SENSOR_FIELDS  # noqa: E402

from conftest import frame  # noqa: E402
from oracles import (  # noqa: E402
    SensorFrame,
    build_timeslots_bisect,
    columns,
    frame_rows,
    parse_operation_log_rows,
    parse_sensor_log_rows,
    slot_records,
    write_sensor_log_rows,
)
from test_ingest import assert_parse_matches_strptime  # noqa: E402

BASE = datetime(2021, 3, 1)
PAIRS = [("tv", "on"), ("tv", "off"), ("refrigerator", "opening"), ("cooking_stove", "on")]
# Seconds from BASE; whole minutes are drawn often so that boundaries and
# ties come up.
offsets = st.one_of(
    st.integers(-86_400, 3 * 86_400),
    st.integers(-1440, 3 * 1440).map(lambda minute: minute * 60),
)


def outcome(build, *args, **kwargs):
    try:
        return build(*args, **kwargs)
    except HomeguardError as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(
    events=st.lists(st.tuples(offsets, st.sampled_from(PAIRS)), max_size=30),
    frame_offsets=st.lists(offsets, max_size=12),
    origin=st.tuples(st.integers(0, 23), st.integers(0, 59)),
)
def test_grid_equals_bisect_slots(events, frame_offsets, origin):
    events = [EventRecord(BASE + timedelta(seconds=s), *pair) for s, pair in events]
    frames = [frame(BASE + timedelta(seconds=s), co2=float(i)) for i, s in
              enumerate(frame_offsets)]

    def grid_slots(events, frames, day_origin):
        return slot_records(build_timeslots(events, columns(frames), day_origin))

    assert outcome(grid_slots, events, frames, time(*origin)) == outcome(
        build_timeslots_bisect, events, frames, time(*origin)
    )


@settings(max_examples=60, deadline=None)
@given(
    events=st.lists(
        st.tuples(offsets, st.integers(0, 999_999), st.sampled_from(PAIRS)), max_size=30
    ),
    origin=st.tuples(st.integers(0, 23), st.integers(0, 59)),
)
def test_event_clock_equals_the_offsets_of_the_events(events, origin):
    events = [
        EventRecord(BASE + timedelta(seconds=s, microseconds=us), *pair) for s, us, pair in events
    ]
    # One frame on a day bound before every event starts the grid.
    first = datetime.combine(BASE.date() - timedelta(days=2), time(*origin))
    grid = build_timeslots(events, columns([frame(first)]), time(*origin))
    assert grid.event_at.dtype == np.int64
    expected = offsets_from(grid.start, (event.timestamp for event in grid.events))
    assert grid.event_at.tolist() == expected.tolist()


def _variants(value: datetime) -> list[str]:
    """The forms a timestamp takes in logs written by other tools."""
    return [
        value.isoformat(timespec="seconds"),
        value.isoformat(),
        value.isoformat(sep=" ", timespec="seconds"),
        value.isoformat(timespec="minutes"),
        value.isoformat(timespec="milliseconds"),
        value.isoformat(timespec="seconds") + "Z",
        value.isoformat(timespec="seconds") + "+01:00",
        value.date().isoformat(),
        f"{value.year}-{value.month}-{value.day}T{value.hour}:{value.minute}:{value.second}",
        value.strftime("%Y%m%dT%H%M%S"),
    ]


@settings(max_examples=150, deadline=None)
@given(
    value=st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31)),
    pick=st.integers(0, 9),
)
def test_parse_timestamp_matches_strptime_on_written_forms(value, pick):
    assert_parse_matches_strptime(_variants(value)[pick])


@settings(max_examples=300, deadline=None)
@given(text=st.text(alphabet="0123456789-T:+Z. tW", max_size=27))
def test_parse_timestamp_matches_strptime_on_any_text(text):
    assert_parse_matches_strptime(text)


# Sensor-log rows: readings inside each default range, its bounds included;
# then at most one odd cell: a reading out of range, a form ``float`` reads
# besides a plain decimal, a cell ``float`` or the timestamp parser rejects,
# bytes that are not UTF-8, or a wrong field count (a blank row among them).
READINGS = [
    st.floats(low, high).map(lambda v: repr(round(v, 2)))
    for low, high in (DEFAULT_SENSOR_RANGES[name] for name in SENSOR_FIELDS)
]
STAMPS = st.one_of(
    st.integers(0, 3 * 1440).map(lambda m: (BASE + timedelta(minutes=m)).isoformat()),
    st.just(BASE.isoformat()),
)
ODD_CELLS = st.one_of(
    st.sampled_from(["-0.01", "5000.01", "-0", " 40 ", "4e1", "1_0", "nan", "inf", "-1e309",
                     "", "x", "2 0", "1.2.3", "40\xff"]),
    st.sampled_from(["2021-03-01 00:05:00", "2021-02-30T00:00:00"]),
    st.text(alphabet="0123456789.-+e", max_size=6),
)
RANGES = [None, {"co2": (0.0, 5000.0)}, "default"]


@st.composite
def sensor_rows(draw) -> list[list[str]]:
    rows = draw(st.lists(st.tuples(STAMPS, *READINGS).map(list), max_size=8))
    if rows and draw(st.booleans()):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        cell = draw(st.integers(0, len(row)))
        if cell < len(row):
            row[cell] = draw(ODD_CELLS)
        else:
            row[:] = (row + ["40"])[:draw(st.sampled_from([0, 1, 3, len(row) + 1]))] or [""]
    return rows


def read_frames(parse, path, ranges):
    """The frames ``parse`` reads, each reading by its ``repr``, or the error."""
    try:
        frames = parse(path) if ranges == "default" else parse(path, ranges=ranges)
    except HomeguardError as exc:
        return type(exc), str(exc)
    return [(f.timestamp, [repr(f.value(name)) for name in SENSOR_FIELDS]) for f in frames]


# Rows per block: one, a few, and the block size of the program.
BLOCK_SIZES = st.sampled_from([1, 2, 3, ingest.BLOCK_ROWS])


@settings(max_examples=200, deadline=None)
@given(rows=sensor_rows(), ranges=st.sampled_from(RANGES), block_rows=BLOCK_SIZES)
def test_sensor_log_reads_as_the_per_row_parser(tmp_path_factory, rows, ranges, block_rows):
    path = tmp_path_factory.mktemp("fuzz") / "sensors.csv"
    text = ",".join(SENSOR_HEADER) + "\n" + "".join(",".join(row) + "\n" for row in rows)
    path.write_bytes(text.encode("latin-1"))
    expected = read_frames(parse_sensor_log_rows, path, ranges)
    with mock.patch.object(ingest, "BLOCK_ROWS", block_rows):
        assert read_frames(lambda *a, **k: frame_rows(parse_sensor_log(*a, **k)), path,
                           ranges) == expected
    if ranges == "default":
        operations = path.with_name("operations.csv")
        operations.write_text("timestamp,device,action,actor\n")
        code = main(["label", "--operations", str(operations), "--sensors", str(path)])
        assert code == 2 if isinstance(expected, tuple) else code in (0, 2)


# Any float64 bit pattern, and often one of the values whose texts are
# special: signed zeros, NaN of either sign, infinities, exponent forms.
float_bits = st.one_of(
    st.integers(0, 2**64 - 1),
    st.sampled_from(np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e-05, 1e16])
                    .view(np.uint64).tolist()),
)


@settings(max_examples=100, deadline=None)
@given(frames=st.lists(
    st.tuples(st.datetimes(), st.lists(float_bits, min_size=5, max_size=5)),
    max_size=12,
))
def test_sensor_log_writes_any_float_as_the_per_row_writer(tmp_path_factory, frames):
    """Any float64 bit pattern, signed zeros and NaN payloads included, at
    any stamp a ``datetime`` holds, written as ``repr`` and ``isoformat``
    write it one value at a time."""
    rows = [SensorFrame(ts, *np.array(bits, dtype=np.uint64).view(np.float64).tolist())
            for ts, bits in sorted(frames, key=lambda item: item[0])]
    directory = tmp_path_factory.mktemp("written")
    write_sensor_log(columns(rows), directory / "columns.csv")
    write_sensor_log_rows(rows, directory / "rows.csv")
    assert (directory / "columns.csv").read_bytes() == (directory / "rows.csv").read_bytes()


# Operation-log rows: registered pairs and two that are not, then at most
# one odd cell: a wrong field count, an empty or blank name, a timestamp the
# parser rejects or reads only through ``strptime``, or bytes that are not
# UTF-8.
UNREGISTERED = [("tv", "dim"), ("kettle", "on")]
OPERATION_ROWS = st.tuples(
    STAMPS, st.sampled_from(PAIRS + UNREGISTERED), st.sampled_from(["", "alice", " bob "])
).map(lambda row: [row[0], *row[1], row[2]])
OPERATION_ODD_CELLS = st.one_of(
    st.sampled_from(["", " ", "tv", "dim", "kettle", "on", "x\udcff"]),
    st.sampled_from(["2021-03-01 00:05:00", "2021-02-30T00:00:00", "2021-3-1T4:5:6",
                     "0000-01-01T00:00:00", "NaT", "\uff12\uff10\uff12\uff11-03-01T00:00:00"]),
)


@st.composite
def operation_rows(draw) -> list[list[str]]:
    rows = draw(st.lists(OPERATION_ROWS, max_size=8))
    if rows and draw(st.booleans()):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        cell = draw(st.integers(0, len(row)))
        if cell < len(row):
            row[cell] = draw(OPERATION_ODD_CELLS)
        else:
            row[:] = (row + ["x"])[:draw(st.sampled_from([0, 1, 3, len(row) + 1]))] or [""]
    return rows


def read_events(parse, path, on_unknown, caplog):
    """The events ``parse`` reads, or its error, and the warnings it logs."""
    caplog.clear()
    try:
        result = parse(path, on_unknown=on_unknown)
    except HomeguardError as exc:
        result = type(exc), str(exc)
    return result, [(r.name, r.levelno, r.getMessage()) for r in caplog.records]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=operation_rows(), on_unknown=st.sampled_from(["error", "skip"]),
       block_rows=BLOCK_SIZES)
def test_operation_log_reads_as_the_per_row_parser(
    tmp_path_factory, caplog, rows, on_unknown, block_rows
):
    caplog.set_level(logging.WARNING, logger="homeguard.ingest")
    path = tmp_path_factory.mktemp("fuzz") / "operations.csv"
    text = "timestamp,device,action,actor\n" + "".join(",".join(row) + "\n" for row in rows)
    path.write_bytes(text.encode("utf-8", "surrogateescape"))  # "\udcff" is the byte 0xff
    expected = read_events(parse_operation_log_rows, path, on_unknown, caplog)
    with mock.patch.object(ingest, "BLOCK_ROWS", block_rows):
        assert read_events(parse_operation_log, path, on_unknown, caplog) == expected
