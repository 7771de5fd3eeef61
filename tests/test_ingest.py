"""Parsing, validation, and slot grid alignment."""

from datetime import datetime, time, timedelta
from time import perf_counter

import numpy as np
import pytest

from homeguard import ingest
from homeguard.errors import (
    HomeguardError,
    InitializationError,
    ParseError,
    SchemaError,
    ValidationError,
)
from homeguard.ingest import (
    BLOCK_ROWS,
    MAX_SPAN_DAYS,
    EventRecord,
    SensorFrames,
    build_timeslots,
    format_timestamp,
    parse_operation_log,
    parse_sensor_log,
    parse_timestamp,
    parse_timestamps,
    write_operation_log,
    write_sensor_log,
)
from conftest import frame
from oracles import (
    SensorFrame,
    build_timeslots_bisect,
    columns,
    frame_rows,
    parse_sensor_log_rows,
    parse_timestamp_strptime,
    slot_records,
    write_sensor_log_rows,
)


def write(path, text):
    path.write_text(text)
    return path


class TestParseOperationLog:
    def test_basic_row(self, tmp_path):
        path = write(
            tmp_path / "ops.csv",
            "timestamp,device,action,actor\n2020-01-03T23:58:35,cooking_stove,on,\n",
        )
        records = parse_operation_log(path)
        assert len(records) == 1
        assert records[0].device == "cooking_stove"
        assert records[0].action == "on"
        assert records[0].actor is None
        assert records[0].timestamp == datetime(2020, 1, 3, 23, 58, 35)

    def test_empty_file_with_header(self, tmp_path):
        path = write(tmp_path / "ops.csv", "timestamp,device,action,actor\n")
        assert parse_operation_log(path) == []

    def test_ties_keep_file_order(self, tmp_path):
        path = write(
            tmp_path / "ops.csv",
            "timestamp,device,action,actor\n"
            "2020-01-01T10:00:00,tv,on,\n"
            "2020-01-01T10:00:00,room_light,off,\n",
        )
        records = parse_operation_log(path)
        assert [r.device for r in records] == ["tv", "room_light"]

    def test_out_of_order_rows_sorted(self, tmp_path):
        path = write(
            tmp_path / "ops.csv",
            "timestamp,device,action,actor\n"
            "2020-01-01T11:00:00,tv,on,\n"
            "2020-01-01T10:00:00,tv,off,\n",
        )
        records = parse_operation_log(path)
        assert [r.action for r in records] == ["off", "on"]

    def test_unknown_pair_rejected(self, tmp_path):
        path = write(
            tmp_path / "ops.csv",
            "timestamp,device,action,actor\n2020-01-01T10:00:00,toaster_oven,off,\n",
        )
        with pytest.raises(SchemaError):
            parse_operation_log(path)

    def test_unknown_pair_skipped_when_asked(self, tmp_path):
        path = write(
            tmp_path / "ops.csv",
            "timestamp,device,action,actor\n"
            "2020-01-01T10:00:00,mystery_gadget,zap,\n"
            "2020-01-01T10:01:00,tv,on,\n",
        )
        records = parse_operation_log(path, on_unknown="skip")
        assert [r.device for r in records] == ["tv"]

    def test_malformed_row_names_line(self, tmp_path):
        path = write(
            tmp_path / "ops.csv",
            "timestamp,device,action,actor\n2020-01-01T10:00:00,tv,on,\nnot-a-time,tv,on,\n",
        )
        with pytest.raises(ParseError, match="line 3"):
            parse_operation_log(path)

    def test_bad_header(self, tmp_path):
        path = write(tmp_path / "ops.csv", "time,dev,act,who\n")
        with pytest.raises(ParseError, match="header"):
            parse_operation_log(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="not found"):
            parse_operation_log(tmp_path / "nope.csv")

    def test_round_trip(self, tmp_path):
        records = [
            EventRecord(datetime(2020, 1, 1, 8, 0, 0), "tv", "on", "alice"),
            EventRecord(datetime(2020, 1, 1, 8, 0, 0), "room_light", "off", None),
            EventRecord(datetime(2020, 1, 2, 9, 30, 5), "cooking_stove", "on", None),
        ]
        path = tmp_path / "ops.csv"
        write_operation_log(records, path)
        assert parse_operation_log(path) == records


class TestParseSensorLog:
    HEADER = "timestamp,temperature,humidity,atmosphere,co2,noise\n"

    def test_uncalibrated_units_pass_with_relaxed_ranges(self, tmp_path):
        path = write(
            tmp_path / "sensors.csv",
            self.HEADER + "2020-01-04T00:00:00,20,50,1000,41,1480\n",
        )
        ranges = {"co2": (0.0, 5000.0)}  # noise channel unchecked
        frames = frame_rows(parse_sensor_log(path, ranges=ranges))
        assert frames[0].co2 == 41.0
        assert frames[0].noise == 1480.0

    def test_co2_out_of_range(self, tmp_path):
        path = write(
            tmp_path / "sensors.csv", self.HEADER + "2020-01-01T00:00:00,20,50,1000,6000,40\n"
        )
        with pytest.raises(ValidationError, match="co2"):
            parse_sensor_log(path)

    def test_boundary_inclusive(self, tmp_path):
        path = write(
            tmp_path / "sensors.csv", self.HEADER + "2020-01-01T00:00:00,20,100,1000,500,40\n"
        )
        frames = frame_rows(parse_sensor_log(path))
        assert frames[0].humidity == 100.0

    def test_disable_all_ranges(self, tmp_path):
        path = write(
            tmp_path / "sensors.csv", self.HEADER + "2020-01-01T00:00:00,99,200,9,9999,999\n"
        )
        frames = frame_rows(parse_sensor_log(path, ranges=None))
        assert frames[0].temperature == 99.0

    def test_sorted_by_timestamp(self, tmp_path):
        path = write(
            tmp_path / "sensors.csv",
            self.HEADER
            + "2020-01-01T00:10:00,20,50,1000,500,40\n"
            + "2020-01-01T00:05:00,21,50,1000,500,40\n",
        )
        frames = frame_rows(parse_sensor_log(path))
        assert [f.temperature for f in frames] == [21.0, 20.0]

    def test_round_trip(self, tmp_path):
        frames = [
            SensorFrame(datetime(2020, 1, 1, 0, 0, 0), 20.5, 51.25, 1010.0, 600.0, 41.0),
            SensorFrame(datetime(2020, 1, 1, 0, 5, 0), 20.0, 50.0, 1009.5, 610.0, 42.5),
        ]
        path = tmp_path / "sensors.csv"
        write_sensor_log(columns(frames), path)
        assert frame_rows(parse_sensor_log(path)) == frames


def written_both_ways(tmp_path, frames: SensorFrames, rows: list) -> tuple[bytes, bytes]:
    """The bytes ``write_sensor_log`` writes for ``frames`` and those the
    per-row writer writes for the same frames as ``rows``."""
    write_sensor_log(frames, tmp_path / "columns.csv")
    write_sensor_log_rows(rows, tmp_path / "rows.csv")
    return (tmp_path / "columns.csv").read_bytes(), (tmp_path / "rows.csv").read_bytes()


class TestWriteSensorLog:
    """The column writer against the per-row writer, on the values and
    stamps where formatting a column at once could differ from ``repr`` and
    ``isoformat`` per value."""

    def test_signed_zeros_and_special_values_in_one_column(self, tmp_path):
        specials = [-0.0, 0.0, float("nan"), float("inf"), -float("inf"), 1e-05, 1e16, -0.0, 0.1]
        rows = [SensorFrame(datetime(2021, 3, 1) + timedelta(minutes=5 * i), value, 50.0, -0.0,
                            0.0 if i % 2 else -0.0, 1e-05)
                for i, value in enumerate(specials)]
        got, expected = written_both_ways(tmp_path, columns(rows), rows)
        assert got == expected
        temperatures = [line.split(b",")[1] for line in got.splitlines()[1:]]
        assert temperatures == [b"-0.0", b"0.0", b"nan", b"inf", b"-inf", b"1e-05", b"1e+16",
                                b"-0.0", b"0.1"]

    def test_fractions_of_a_second_cut_off_and_early_years(self, tmp_path):
        stamps = [datetime(1, 1, 1, 0, 0, 0, 1), datetime(1, 1, 1, 0, 0, 59, 999_999),
                  datetime(1969, 12, 31, 23, 59, 59, 500_000), datetime(1970, 1, 1),
                  datetime(2021, 3, 1, 7, 30, 0, 999_999), datetime(9999, 12, 31, 23, 59, 59, 1)]
        rows = [frame(ts) for ts in stamps]
        got, expected = written_both_ways(tmp_path, columns(rows), rows)
        assert got == expected
        assert [line.split(b",")[0] for line in got.splitlines()[1:]] == [
            b"0001-01-01T00:00:00", b"0001-01-01T00:00:59", b"1969-12-31T23:59:59",
            b"1970-01-01T00:00:00", b"2021-03-01T07:30:00", b"9999-12-31T23:59:59"]

    @pytest.mark.parametrize("n", [0, 1])
    def test_no_frame_and_one_frame(self, tmp_path, n):
        rows = [frame(datetime(2021, 3, 1, 0, 5))][:n]
        got, expected = written_both_ways(tmp_path, columns(rows), rows)
        assert got == expected
        assert len(got.splitlines()) == 1 + n

    def test_integer_readings_written_as_integers(self, tmp_path):
        rows = [SensorFrame(datetime(2021, 3, 1), 20, 50, 1010, 600, 40)]
        frames = SensorFrames(columns(rows).timestamps, np.array([[20, 50, 1010, 600, 40]]))
        got, expected = written_both_ways(tmp_path, frames, rows)
        assert got == expected
        assert got.splitlines()[1] == b"2021-03-01T00:00:00,20,50,1010,600,40"


class TestCsvFaults:
    """Bytes that are not UTF-8 and cells over the ``csv`` field limit are
    parse faults naming the file and the line, in either log."""

    LOGS = {
        "operations": (parse_operation_log, "timestamp,device,action,actor\n",
                       "2020-01-01T10:00:00,tv,on,{}\n"),
        "sensors": (parse_sensor_log, TestParseSensorLog.HEADER,
                    "2020-01-01T00:00:00,20,50,1000,500,{}\n"),
    }

    @pytest.mark.parametrize("log", LOGS)
    def test_bytes_that_are_not_utf8(self, tmp_path, log):
        parse, header, row = self.LOGS[log]
        path = tmp_path / f"{log}.csv"
        text = header + row.format("40") * 2 + row.format("4\xff")
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(ParseError) as info:
            parse(path)
        assert info.value.line == 4
        assert str(path) in str(info.value) and "UTF-8" in str(info.value)

    @pytest.mark.parametrize("log", LOGS)
    def test_cell_over_the_field_limit(self, tmp_path, log):
        parse, header, row = self.LOGS[log]
        path = write(tmp_path / f"{log}.csv", header + row.format("40") + row.format("4" * 200_000))
        with pytest.raises(ParseError) as info:
            parse(path)
        assert info.value.line == 3
        assert str(path) in str(info.value) and "field limit" in str(info.value)

    def test_operation_rows_named_by_the_line_they_start_on(self, tmp_path):
        # Row 2's actor holds a line break, so the next row starts on line 4.
        path = write(
            tmp_path / "operations.csv",
            'timestamp,device,action,actor\n2020-01-01T10:00:00,tv,on,"a\nb"\n'
            "not-a-time,tv,on,\n",
        )
        with pytest.raises(ParseError, match="bad timestamp") as info:
            parse_operation_log(path)
        assert info.value.line == 4

    def test_sensor_rows_named_by_the_line_they_start_on(self, tmp_path):
        path = write(
            tmp_path / "sensors.csv",
            TestParseSensorLog.HEADER + '2020-01-01T00:00:00,20,50,1000,500,"40\n"\n'
            "2020-01-01T00:05:00,20,50,1000,6000,40\n",
        )
        with pytest.raises(ValidationError, match="line 4: value 6000.0"):
            parse_sensor_log(path)

    def test_reading_out_of_range_before_the_fault_comes_first(self, tmp_path):
        header, row = TestParseSensorLog.HEADER, self.LOGS["sensors"][2]
        path = write(tmp_path / "sensors.csv",
                     header + row.format("400") + row.format("4" * 200_000))
        with pytest.raises(ValidationError, match="line 2: value 400.0"):
            parse_sensor_log(path)


def sensor_outcome(parse, path):
    """The frames ``parse`` reads from ``path``, or its error."""
    try:
        return parse(path)
    except HomeguardError as exc:
        return type(exc), str(exc)


class TestSensorLogBlocks:
    """Logs longer than one block, and timestamps numpy reads otherwise than
    ``strptime``, read as the per-row parser reads them."""

    ROW = "2020-01-01T{:02d}:{:02d}:00,20,50,1000,{},40\n"

    def write_log(self, tmp_path, n, cells=None):
        """``n`` rows a minute apart, with the co2 cell of row ``i`` set to
        ``cells[i]``."""
        cells = cells or {}
        rows = [self.ROW.format(*divmod(i % 1440, 60), cells.get(i, 500)) for i in range(n)]
        return write(tmp_path / "sensors.csv", TestParseSensorLog.HEADER + "".join(rows))

    def assert_as_per_row(self, path):
        expected = sensor_outcome(parse_sensor_log_rows, path)
        got = sensor_outcome(lambda p: frame_rows(parse_sensor_log(p)), path)
        assert got == expected
        return got

    def test_clean_log_of_several_blocks(self, tmp_path):
        frames = self.assert_as_per_row(self.write_log(tmp_path, 2 * BLOCK_ROWS + 3))
        assert len(frames) == 2 * BLOCK_ROWS + 3

    def test_first_fault_in_a_later_block(self, tmp_path):
        path = self.write_log(tmp_path, 2 * BLOCK_ROWS + 3,
                              {BLOCK_ROWS + 3: 6000, BLOCK_ROWS + 4: "x", 2 * BLOCK_ROWS: "y"})
        assert self.assert_as_per_row(path) == (
            ValidationError, f"co2: line {BLOCK_ROWS + 5}: value 6000.0 outside [0.0, 5000.0]")

    def test_bad_row_in_the_first_block_before_a_reader_fault_in_the_second(self, tmp_path):
        path = self.write_log(tmp_path, BLOCK_ROWS + 5, {5: "x", BLOCK_ROWS + 2: "4" * 200_000})
        assert self.assert_as_per_row(path) == (ParseError, "line 7: bad co2 value 'x'")

    @pytest.mark.parametrize("fault", ["4" * 200_000, "4,4"], ids=["field-limit", "width"])
    def test_out_of_range_just_before_a_fault_on_the_block_bound(self, tmp_path, fault):
        path = self.write_log(tmp_path, BLOCK_ROWS + 2, {BLOCK_ROWS - 1: -1, BLOCK_ROWS: fault})
        assert self.assert_as_per_row(path) == (
            ValidationError, f"co2: line {BLOCK_ROWS + 1}: value -1.0 outside [0.0, 5000.0]")

    def test_unreadable_reading_after_an_out_of_range_one_in_the_same_block(self, tmp_path):
        path = self.write_log(tmp_path, 20, {3: "nan", 2: "x"})
        assert self.assert_as_per_row(path) == (ParseError, "line 4: bad co2 value 'x'")

    @pytest.mark.parametrize("text", [
        "0000-01-01T00:00:00", "2021-02-29T00:00:00", "2021-03-01T24:00:00",
        "2021-03-01T23:59:60", "NaT", "\uff12\uff10\uff12\uff11-03-01T00:00:00",
        "2021-3-1T4:5:6", " 2021-03-01T04:05:06 ",
    ])
    @pytest.mark.parametrize("at", [0, 7, BLOCK_ROWS + 7])
    def test_timestamp_numpy_reads_otherwise(self, tmp_path, text, at):
        path = self.write_log(tmp_path, BLOCK_ROWS + 9)
        lines = path.read_text().splitlines(keepends=True)
        lines[at + 1] = text + lines[at + 1][len("2020-01-01T00:00:00"):]
        path.write_text("".join(lines))
        self.assert_as_per_row(path)


class TestBuildTimeslots:
    def test_forward_fill(self):
        base = datetime(2020, 1, 1)
        frames = [frame(base), frame(base + timedelta(minutes=5), temperature=25.0)]
        grid = build_timeslots([], columns(frames))
        assert len(grid) == 1440
        assert frame_rows(grid.frames) == frames
        assert grid.frame[:6].tolist() == [0, 0, 0, 0, 0, 1]
        # Forward-fill invariant: latest frame at or before each slot start.
        for slot in slot_records(grid):
            assert slot.sensors.timestamp <= slot.start
        assert grid.column("temperature")[4:6].tolist() == [frames[0].temperature, 25.0]

    def test_full_day_yields_1440_slots(self):
        base = datetime(2020, 1, 1)
        frames = [frame(base + timedelta(minutes=5 * i)) for i in range(288)]
        events = [EventRecord(base + timedelta(hours=10), "tv", "on")]
        grid = build_timeslots(events, columns(frames))
        assert len(grid) == 1440 and len(grid.first) == 1441
        assert grid.start == base

    def test_events_share_slot_in_order(self):
        base = datetime(2020, 1, 1)
        e1 = EventRecord(base + timedelta(hours=23, minutes=58, seconds=20), "refrigerator", "opening")
        e2 = EventRecord(base + timedelta(hours=23, minutes=58, seconds=35), "cooking_stove", "on")
        grid = build_timeslots([e1, e2], columns([frame(base)]))
        p = 23 * 60 + 58
        assert grid.events[grid.first[p] : grid.first[p + 1]] == [e1, e2]

    def test_every_event_in_exactly_one_slot(self):
        base = datetime(2020, 1, 1)
        events = [
            EventRecord(base + timedelta(minutes=7 * i, seconds=13), "tv", "on")
            for i in range(200)
        ]
        grid = build_timeslots(events, columns([frame(base)]))
        assert grid.events == sorted(events, key=lambda e: e.timestamp)
        assert grid.first[0] == 0 and grid.first[-1] == len(events)
        assert (np.diff(grid.first) >= 0).all()
        assert len(grid) % 1440 == 0

    def test_missing_initial_frame_errors(self):
        base = datetime(2020, 1, 1)
        with pytest.raises(InitializationError):
            build_timeslots([], columns([frame(base + timedelta(minutes=3))]))

    def test_day_origin_offsets_k(self):
        origin = time(23, 59)
        first = datetime(2019, 12, 31, 23, 59, 0)
        slots = slot_records(build_timeslots([], columns([frame(first)]), day_origin=origin))
        assert slots[0].start == first
        assert slots[0].k == 1
        assert slots[1].start == datetime(2020, 1, 1, 0, 0, 0)
        assert slots[1].k == 2

    def test_empty_inputs(self):
        grid = build_timeslots([], columns([]))
        assert len(grid) == 0 and grid.events == [] and grid.first.tolist() == [0]
        assert grid.event_at.dtype == np.int64 and grid.event_at.shape == (0,)
        assert grid.day_bounds().tolist() == [0]

    def test_days_split_the_events_at_the_day_origin(self):
        base = datetime(2020, 1, 1, 4, 0)
        offsets = [0, 59, 1439, 1440, 3000, 4319]  # minutes; the third day holds two
        events = [EventRecord(base + timedelta(minutes=m, seconds=30), "tv", "on") for m in offsets]
        grid = build_timeslots(events, columns([frame(base)]), day_origin=time(4, 0))
        assert grid.day_bounds().tolist() == [0, 3, 4, 6]


class TestBuildTimeslotsMatchesBisect:
    """The grid, read slot by slot, equals the per-slot binary-search build."""

    BASE = datetime(2020, 1, 1)

    def assert_same(self, events, frames, **kwargs):
        expected = build_timeslots_bisect(events, frames, **kwargs)
        assert slot_records(build_timeslots(events, columns(frames), **kwargs)) == expected
        return expected

    @pytest.mark.parametrize("origin", [time(0, 0), time(23, 59)], ids=["00:00", "23:59"])
    def test_frames_with_seconds_and_boundary_events(self, origin):
        base = self.BASE
        first = datetime.combine(base.date() - timedelta(days=2), origin)
        frames = [frame(first + timedelta(minutes=7 * i, seconds=17 * i % 60))
                  for i in range(900)]
        events = [
            EventRecord(base + timedelta(hours=8), "tv", "on"),  # on a slot boundary
            EventRecord(base + timedelta(hours=8, seconds=59, microseconds=999999), "tv", "off"),
            EventRecord(base + timedelta(hours=23, minutes=59), "refrigerator", "opening"),
            EventRecord(base + timedelta(days=1), "room_light", "on"),  # on a day boundary
        ]
        slots = self.assert_same(events, frames, day_origin=origin)
        assert [e for slot in slots for e in slot.events] == events

    def test_tied_timestamps_keep_file_order(self):
        at = self.BASE + timedelta(hours=10, minutes=3, seconds=30)
        events = [EventRecord(at, "tv", "on"), EventRecord(at, "room_light", "off"),
                  EventRecord(at - timedelta(seconds=20), "heater", "on"),
                  EventRecord(at, "microwave", "on")]
        frames = [frame(self.BASE), frame(at, co2=700.0), frame(at, co2=800.0)]
        slots = self.assert_same(events, frames)
        assert [e.device for e in slots[603].events] == ["heater", "tv", "room_light",
                                                         "microwave"]
        assert slots[604].sensors.co2 == 800.0

    def test_missing_frame_error_is_the_same(self):
        frames = [frame(self.BASE + timedelta(minutes=3))]
        with pytest.raises(InitializationError) as fast:
            build_timeslots([], columns(frames))
        with pytest.raises(InitializationError) as slow:
            build_timeslots_bisect([], frames)
        assert str(fast.value) == str(slow.value)


class TestSpanLimit:
    def test_century_apart_refused_before_any_slot(self, monkeypatch):
        # The grid's arrays are numpy arrays: refused before numpy is used.
        monkeypatch.setattr(ingest, "np", None)
        early = datetime(1925, 6, 1, 8, 0, 0)
        late = datetime(2025, 6, 1, 8, 0, 0)
        events = [EventRecord(early, "tv", "on"), EventRecord(late, "tv", "off")]
        begun = perf_counter()
        with pytest.raises(ValidationError) as info:
            build_timeslots(events, columns([frame(early)]))
        assert perf_counter() - begun < 1.0
        assert str(early) in str(info.value) and str(late) in str(info.value)
        assert str(MAX_SPAN_DAYS) in str(info.value)

    @pytest.mark.parametrize("ts, origin", [
        (datetime(9999, 12, 31, 10, 0), time(0, 0)),
        (datetime(9999, 12, 31, 23, 0), time(22, 0)),
        (datetime(1, 1, 1, 3, 0), time(4, 0)),
    ])
    def test_day_bounds_outside_the_dates_refused(self, ts, origin):
        with pytest.raises(ValidationError) as info:
            build_timeslots([EventRecord(ts, "tv", "on")], columns([frame(ts)]), origin)
        assert str(ts) in str(info.value)

    def test_first_and_last_whole_days_accepted(self):
        for day in (datetime(1, 1, 1), datetime(9999, 12, 30)):
            last = day + timedelta(minutes=1439)
            grid = build_timeslots([EventRecord(last, "tv", "on")], columns([frame(day)]))
            assert len(grid) == 1440 and grid.first[-2] == 0
            assert slot_records(grid)[-1].events[0].timestamp == last

    def test_longest_span_accepted(self, monkeypatch):
        monkeypatch.setattr(ingest, "MAX_SPAN_DAYS", 3)
        start = datetime(2020, 1, 1)
        last = start + timedelta(days=3) - timedelta(seconds=1)
        grid = build_timeslots([EventRecord(last, "tv", "on")], columns([frame(start)]))
        assert len(grid) == 3 * 1440
        with pytest.raises(ValidationError, match="4 days"):
            build_timeslots([EventRecord(last + timedelta(seconds=1), "tv", "on")],
                            columns([frame(start)]))


# Every kind of text a log may carry: the canonical form and forms that
# fromisoformat reads but strptime does not, or the other way round.
TIMESTAMP_TEXTS = [
    "2020-01-03T23:58:35",
    "2026-1-1T0:5:0",
    "2026-01-01T00:05:00+01:00",
    "2026-01-01T00:05:00Z",
    "2026-01-01T00:05:00.123456",
    "2026-01-01T00:05:00.000000",
    "2026-01-01T00:05:00.5",
    "2026-01-01 00:05:00",
    "2026-01-01",
    "2026-01-01T00:05",
    "20260101T000500",
    "2026-W01-1T00:05:00",
    "2026-02-29T00:00:00",
    "2024-02-29T00:00:00",
    "2026-01-01T24:00:00",
    "2026-01-01T23:59:60",
    "0001-01-01T00:00:00",
    "0000-01-01T00:00:00",
    "9999-12-31T23:59:59",
    "2026-01-01t00:05:00",
    "２０２６-01-01T00:05:00",
    "",
    "NaT",
    "not-a-time",
]


class TestParseTimestampMatchesStrptime:
    @pytest.mark.parametrize("text", TIMESTAMP_TEXTS)
    def test_same_value_or_same_error(self, text):
        assert_parse_matches_strptime(text)

    def test_canonical_text_round_trips(self):
        for value in (datetime(2021, 3, 1, 7, 5, 9), datetime(1, 1, 1, 0, 30),
                      datetime(999, 2, 3, 4, 5, 6), datetime(9999, 12, 31, 23, 59, 59)):
            assert parse_timestamp(format_timestamp(value)) == value


class TestParseTimestamps:
    @pytest.mark.parametrize("texts", [TIMESTAMP_TEXTS, [], ["0000-01-01T00:00:00"] * 3,
                                       ["2021-03-01T00:00:00", "2021-02-29T00:00:00"]])
    def test_each_text_as_parse_timestamp_reads_it(self, texts):
        values, bad = parse_timestamps(texts)
        assert values.dtype == np.dtype("datetime64[us]") and len(values) == len(texts)
        for text, value, rejected in zip(texts, values.tolist(), bad.tolist()):
            try:
                expected = parse_timestamp(text)
            except ParseError:
                assert rejected and value is None
            else:
                assert not rejected and value == expected


def assert_parse_matches_strptime(text: str) -> None:
    try:
        expected = parse_timestamp_strptime(text, line=7)
    except ParseError as exc:
        with pytest.raises(ParseError) as info:
            parse_timestamp(text, line=7)
        assert str(info.value) == str(exc)
    else:
        value = parse_timestamp(text, line=7)
        assert value == expected and value.tzinfo is None
