"""Parsing and time alignment of operation logs and sensor logs.

Two CSV formats come in, one slot grid comes out:

* operation log: ``timestamp,device,action,actor`` rows, one per device
  operation or user entry/exit event;
* sensor log: ``timestamp,temperature,humidity,atmosphere,co2,noise`` rows
  sampled roughly every five minutes, read as columns (``SensorFrames``).

``build_timeslots`` aligns both onto a fixed one-minute grid covering whole
days and returns it as a ``SlotGrid`` of arrays: the events in order with
their instants as whole microseconds from the grid's start (``event_at``,
the one clock every later stage reads) and the offset where each slot's
events begin, and per slot the index of the sensor frame forward-filled into
it.  Both come from one ``np.searchsorted`` over those microsecond offsets.  Inputs spanning more than
``MAX_SPAN_DAYS`` days are refused before anything is allocated, and a
sensor frame is needed at or before the first slot.

A file that is not UTF-8 text, or a cell over the ``csv`` field limit,
raises ``ParseError`` naming the file and the line.  Every message names the
physical line a row starts on, so a quoted cell that holds a line break does
not shift the numbers of the rows after it.

Timestamps are ``YYYY-MM-DDTHH:MM:SS`` text.  ``parse_timestamp`` first
tries ``datetime.fromisoformat`` and keeps its result only when the value
is naive and formats back to exactly the input text, which is the case for
every canonical timestamp the writers here produce; any other text goes
through ``datetime.strptime`` with ``TIMESTAMP_FORMAT``, so the accepted
set, the values and the error messages are those of ``strptime`` alone.

Both logs are checked as columns, ``BLOCK_ROWS`` rows at a time: the field
counts, the timestamps through ``parse_timestamps`` (one numpy parse for
the texts in the canonical form, ``parse_timestamp`` for any other), the
sensor readings through one ``float`` pass and each range as one mask.  The
first row that fails a check is checked again on its own, which raises the
error a row-by-row parse raises, and a fault of the reader is raised only
after the rows before it have been checked, so the error reported is that of
the first fault in file order.

The writers go through ``write_csv``.  The sensor log is written a column at
a time (``format_timestamps`` and one ``repr`` per distinct reading), as are
the per-slot files through ``slot_columns``; the operation log holds free
text and is written a row at a time.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from datetime import datetime, time, timedelta
from itertools import chain, compress
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import InitializationError, ParseError, SchemaError, ValidationError
from .vocab import DEFAULT_SENSOR_RANGES, SENSOR_FIELDS, Vocabulary

logger = logging.getLogger(__name__)

SLOT_SECONDS = 60
SLOT_MICROS = SLOT_SECONDS * 1_000_000
SLOTS_PER_DAY = 1440
# Longest span of input ``build_timeslots`` accepts: two years, leap day
# included.  A grid of that span holds about a million slots.
MAX_SPAN_DAYS = 731
TIMESTAMP_FORMAT = "%Y-%m-%dT%H:%M:%S"
# Rows of a log checked together as columns.  Whole-file columns would raise
# the peak memory of a 90-day train or detect by a few MB.
BLOCK_ROWS = 1024
_MICROSECOND = timedelta(microseconds=1)

OPERATION_HEADER = ("timestamp", "device", "action", "actor")
SENSOR_HEADER = ("timestamp",) + SENSOR_FIELDS


@dataclass(frozen=True)
class EventRecord:
    """One timestamped device operation or user entry/exit event."""

    timestamp: datetime
    device: str
    action: str
    actor: str | None = None

    @property
    def pair(self) -> tuple[str, str]:
        return (self.device, self.action)


@dataclass(frozen=True, eq=False)
class SensorFrames:
    """Sensor frames by column: ``values[i]`` holds the readings taken at
    ``timestamps[i]``, in ``SENSOR_FIELDS`` order.  The timestamps are a
    ``datetime64[us]`` array in order, so the first and last frames are its
    ends."""

    timestamps: np.ndarray  # (n,) datetime64[us]
    values: np.ndarray  # (n, len(SENSOR_FIELDS)) float


@dataclass(frozen=True, eq=False)
class SlotGrid:
    """The one-minute grid of a stream, as arrays.

    Slot ``p`` (its position, from 0) starts ``p`` minutes after ``start``,
    the day boundary it begins at; it is numbered ``t = p + 1`` and its
    slot-of-day is ``k = p % 1440 + 1``.  ``events`` are the stream's events
    in order, ``event_at[i]`` is the instant of ``events[i]`` in whole
    microseconds after ``start``, and slot ``p`` holds
    ``events[first[p]:first[p + 1]]``.  Its sensor frame is row ``frame[p]`` of ``frames``, the latest at or before
    the slot's start.
    """

    start: datetime | None
    events: list[EventRecord]
    event_at: np.ndarray  # (n_events,) int64
    first: np.ndarray  # (n_slots + 1,) int
    frames: SensorFrames
    frame: np.ndarray  # (n_slots,) int

    def __len__(self) -> int:
        return len(self.frame)

    def day_bounds(self) -> np.ndarray:
        """Where each day's events begin, and where the last day's end: day
        ``d`` holds ``events[bounds[d]:bounds[d + 1]]``."""
        return self.first[[*range(0, len(self), SLOTS_PER_DAY), len(self)]]

    def column(self, name: str) -> np.ndarray:
        """Per slot, the reading ``name`` of its sensor frame."""
        return self.frames.values[self.frame, SENSOR_FIELDS.index(name)]


def format_timestamp(ts: datetime) -> str:
    # strftime would write year 1 as "1", which parse_timestamp rejects.
    return ts.isoformat(timespec="seconds")


def format_timestamps(stamps: np.ndarray) -> list[str]:
    """Each of the ``datetime64`` ``stamps`` as ``format_timestamp`` writes
    it: numpy formats at a unit of seconds by rounding down, which cuts the
    fraction off as ``isoformat`` does, before 1970 too."""
    return np.datetime_as_string(stamps, unit="s").tolist()


def slot_columns(start: datetime | None, n_slots: int) -> tuple[list[int], list[int], list[str]]:
    """Per slot of a grid from ``start``, its number ``t``, its slot-of-day
    ``k`` and its start as ``format_timestamp`` writes it."""
    p = np.arange(n_slots)
    return ((p + 1).tolist(), (p % SLOTS_PER_DAY + 1).tolist(),
            format_timestamps(np.datetime64(start, "us") + p * SLOT_MICROS))


def parse_timestamp(text: str, line: int | None = None) -> datetime:
    try:
        value = datetime.fromisoformat(text)
    except ValueError:
        pass
    else:
        # fromisoformat also takes offsets, fractions, a space separator and
        # bare dates, which strptime rejects; only text that is already in
        # the canonical form is taken from it.
        if value.tzinfo is None and value.isoformat(timespec="seconds") == text:
            return value
    try:
        return datetime.strptime(text, TIMESTAMP_FORMAT)
    except ValueError as exc:
        raise ParseError(f"bad timestamp {text!r}: {exc}", line=line) from None


def parse_timestamps(texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Each text as ``parse_timestamp`` reads it, as ``datetime64[us]``, and
    whether ``parse_timestamp`` rejects it (its value is then NaT).

    Texts in the form ``_canonical`` accepts are read by one numpy parse;
    every other text, and every canonical one when numpy rejects one of
    them, goes through ``parse_timestamp`` one at a time.
    """
    values = np.full(len(texts), np.datetime64("NaT", "us"))
    bad = np.zeros(len(texts), dtype=bool)
    canonical = _canonical(texts)
    try:
        values[canonical] = np.array(list(compress(texts, canonical.tolist())), "datetime64[us]")
    except ValueError:  # a date or time of day that does not exist
        canonical[:] = False
    for i in np.flatnonzero(~canonical).tolist():
        try:
            values[i] = parse_timestamp(texts[i])
        except ParseError:
            bad[i] = True
    return values, bad


# The bounds of each character of ``YYYY-MM-DDTHH:MM:SS``, as code points.
_CANONICAL_LOW, _CANONICAL_HIGH = (
    np.array(["0000-00-00T00:00:00", "9999-99-99T99:99:99"]).view(np.uint32).reshape(2, -1)
)


def _canonical(texts: Sequence[str]) -> np.ndarray:
    """Per text, whether it is ``YYYY-MM-DDTHH:MM:SS`` in ASCII digits with a
    year of at least 1: the texts numpy reads as ``strptime`` does, or
    rejects where ``strptime`` does too."""
    width = len(_CANONICAL_LOW)
    codes = np.array(texts, dtype=f"U{width}").view(np.uint32).reshape(len(texts), width)
    return (
        (np.fromiter(map(len, texts), dtype=np.intp, count=len(texts)) == width)
        & ((codes >= _CANONICAL_LOW) & (codes <= _CANONICAL_HIGH)).all(axis=1)
        & (codes[:, :4] != ord("0")).any(axis=1)
    )


def _read_rows(path: str | Path, header: Sequence[str]) -> Iterable[tuple[int, list[str]]]:
    """The rows after the header of a CSV log, each with the number of the
    physical line it starts on; blank rows are skipped."""
    path = Path(path)
    if not path.exists():
        raise ParseError(f"file not found: {path}")
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            first = next(reader, None)
            if first is None:
                raise ParseError("empty file, expected header row", line=1)
            if [cell.strip() for cell in first] != list(header):
                raise ParseError(
                    f"bad header {first!r}, expected {','.join(header)}", line=1
                )
            line_no = reader.line_num + 1  # the line the next row starts on
            for row in reader:
                if row and (len(row) > 1 or row[0].strip()):
                    yield line_no, row
                line_no = reader.line_num + 1
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})",
                             line=_bad_utf8_line(path)) from None
        except csv.Error as exc:
            raise ParseError(f"{path}: {exc}", line=reader.line_num) from None


def _read_blocks(
    path: str | Path, header: Sequence[str]
) -> Iterable[list[tuple[int, list[str]]]]:
    """The rows of ``_read_rows`` in blocks of ``BLOCK_ROWS``.  A fault of
    the reader is raised only once the rows before it have been yielded, so
    that a fault of one of those rows, checked first, is the one reported."""
    block = []
    try:
        for item in _read_rows(path, header):
            block.append(item)
            if len(block) == BLOCK_ROWS:
                yield block
                block = []
    except ParseError:
        if block:
            yield block
        raise
    if block:
        yield block


def _bad_utf8_line(path: Path) -> int | None:
    """The line of the first byte of ``path`` that is not UTF-8 (a reader
    decodes in blocks, so its error does not tell)."""
    raw = path.read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        return raw.count(b"\n", 0, exc.start) + 1


def parse_operation_log(
    path: str | Path,
    vocabulary: Vocabulary | None = None,
    on_unknown: str = "error",
) -> list[EventRecord]:
    """Parse an operation log, sorted by timestamp (stable for ties).

    Pairs outside the registered vocabulary raise ``SchemaError`` by default;
    with ``on_unknown="skip"`` they are dropped with a warning instead, which
    is what the detection CLI wants for live streams.  The log is read a
    block of rows at a time, the timestamps of a block by one
    ``parse_timestamps`` call; the first faulty row raises the error of
    ``_check_operation_row``, and the rows skipped before it are warned of
    in file order.
    """
    if on_unknown not in ("error", "skip"):
        raise ValueError(f"on_unknown must be 'error' or 'skip', got {on_unknown!r}")
    vocabulary = vocabulary or Vocabulary()
    width = len(OPERATION_HEADER)
    skip = on_unknown == "skip"
    records: list[EventRecord] = []
    for block in _read_blocks(path, OPERATION_HEADER):
        good = next((i for i, (_, row) in enumerate(block) if len(row) != width), len(block))
        times, bad = parse_timestamps([row[0].strip() for _, row in block[:good]])
        for (line_no, row), ts, faulty in zip(block[:good], times.tolist(), bad.tolist()):
            device, action = row[1].strip(), row[2].strip()
            registered = vocabulary.is_registered(device, action)
            if faulty or not device or not action or not (registered or skip):
                _check_operation_row(line_no, row, vocabulary)
            if not registered:
                logger.warning(
                    "line %d: skipping unregistered pair (%s, %s)", line_no, device, action
                )
                continue
            records.append(EventRecord(ts, device, action, row[3].strip() or None))
        if good < len(block):
            _check_operation_row(*block[good], vocabulary)
    records.sort(key=lambda r: r.timestamp)  # stable: ties keep file order
    return records


def _check_operation_row(line_no: int, row: list[str], vocabulary: Vocabulary) -> None:
    """Raise the error of the first check an operation-log row fails."""
    if len(row) != len(OPERATION_HEADER):
        raise ParseError(
            f"expected {len(OPERATION_HEADER)} fields, got {len(row)}", line=line_no
        )
    parse_timestamp(row[0].strip(), line=line_no)
    device = row[1].strip()
    action = row[2].strip()
    if not device or not action:
        raise ParseError("device and action must be non-empty", line=line_no)
    if not vocabulary.is_registered(device, action):
        raise SchemaError(
            f"line {line_no}: unregistered (device, action) pair ({device!r}, {action!r})"
        )


def parse_sensor_log(
    path: str | Path,
    ranges: dict[str, tuple[float, float]] | None = DEFAULT_SENSOR_RANGES,
) -> SensorFrames:
    """Parse a sensor log, range-validated and sorted by timestamp (stable
    for ties).

    ``ranges`` maps field name to an inclusive interval; pass ``None`` to
    disable range checking entirely (deployments with uncalibrated sensors).
    The log is checked as columns, a block of rows at a time: a field-count
    test, one ``parse_timestamps`` call, one ``float`` pass over the
    readings and one mask per range.  The first faulty row in file order
    raises the error of ``_check_sensor_row``.  The timestamps stay the
    ``datetime64[us]`` array that ``parse_timestamps`` reads.
    """
    times = [np.zeros(0, dtype="datetime64[us]")]
    values = [np.zeros((0, len(SENSOR_FIELDS)))]
    for block in _read_blocks(path, SENSOR_HEADER):
        stamps, readings = _sensor_columns([row for _, row in block])
        block_times, bad = parse_timestamps(list(map(str.strip, stamps)))
        for name, column in zip(SENSOR_FIELDS, readings.T):
            if ranges is not None and name in ranges:
                low, high = ranges[name]
                bad |= ~((low <= column) & (column <= high))
        first = int(bad.argmax()) if bad.any() else len(stamps)
        if first < len(block):
            _check_sensor_row(*block[first], ranges)
        times.append(block_times)
        values.append(readings)
    times = np.concatenate(times)
    order = np.argsort(times, kind="stable")
    return SensorFrames(times[order], np.concatenate(values)[order])


def _sensor_columns(rows: list[list[str]]) -> tuple[list[str], np.ndarray]:
    """The timestamp texts and the readings of ``rows`` up to the first row
    that does not fit the columns: one with a wrong number of fields, or
    with a reading ``float`` rejects."""
    width = len(SENSOR_HEADER)
    rows = rows[:next((i for i, row in enumerate(rows) if len(row) != width), len(rows))]
    cells = list(chain.from_iterable(rows))
    stamps = cells[::width]
    del cells[::width]
    try:
        readings = list(map(float, cells))
    except ValueError:
        return _sensor_columns(rows[:next(i for i, row in enumerate(rows) if not _readable(row))])
    return stamps, np.array(readings, dtype=float).reshape(len(rows), width - 1)


def _readable(row: list[str]) -> bool:
    """Whether ``float`` reads every reading of a sensor-log row."""
    try:
        list(map(float, row[1:]))
    except ValueError:
        return False
    return True


def _check_sensor_row(
    line_no: int, row: list[str], ranges: dict[str, tuple[float, float]] | None
) -> None:
    """Raise the error of the first check a sensor-log row fails."""
    if len(row) != len(SENSOR_HEADER):
        raise ParseError(
            f"expected {len(SENSOR_HEADER)} fields, got {len(row)}", line=line_no
        )
    parse_timestamp(row[0].strip(), line=line_no)
    for name, cell in zip(SENSOR_FIELDS, row[1:]):
        try:
            value = float(cell)
        except ValueError:
            raise ParseError(f"bad {name} value {cell!r}", line=line_no) from None
        if ranges is not None and name in ranges:
            low, high = ranges[name]
            if not (low <= value <= high):
                raise ValidationError(
                    f"line {line_no}: value {value} outside [{low}, {high}]", field=name
                )


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and then ``rows`` to ``path`` as UTF-8 CSV, each row
    as it comes."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_operation_log(records: Iterable[EventRecord], path: str | Path) -> None:
    """Write an operation log one row per record: its device, action and
    actor are free text, so there is no column to format at once."""
    write_csv(
        path,
        OPERATION_HEADER,
        ([format_timestamp(rec.timestamp), rec.device, rec.action, rec.actor or ""]
         for rec in records),
    )


def write_sensor_log(frames: SensorFrames, path: str | Path) -> None:
    """Write a sensor log a column at a time: the timestamps by one
    ``format_timestamps`` call, and each reading as ``repr`` writes it,
    once per distinct value of its column."""
    write_csv(
        path,
        SENSOR_HEADER,
        zip(format_timestamps(frames.timestamps), *map(_reprs, frames.values.T)),
    )


def _reprs(column: np.ndarray) -> list[str]:
    """``repr`` of each value of ``column`` as ``tolist`` gives it, computed
    once per distinct bit pattern (``0.0`` and ``-0.0`` are equal numbers but
    write differently)."""
    bits, inverse = np.unique(column.view(f"u{column.itemsize}"), return_inverse=True)
    texts = np.array(list(map(repr, bits.view(column.dtype).tolist())), dtype=object)
    return texts[inverse].tolist()


def floor_to_day_origin(ts: datetime, day_origin: time) -> datetime:
    """Latest day boundary (a datetime whose time-of-day is the origin) <= ts."""
    boundary = datetime.combine(ts.date(), day_origin)
    if boundary > ts:
        boundary -= timedelta(days=1)
    return boundary


def _grid_bound(ts: datetime, day_origin: time, days: int) -> datetime:
    """The day boundary at or before ``ts``, ``days`` days on."""
    try:
        return floor_to_day_origin(ts, day_origin) + timedelta(days=days)
    except OverflowError:
        raise ValidationError(
            f"timestamp {ts} needs a grid day outside the dates"
            f" {datetime.min.date()} to {datetime.max.date()}"
        ) from None


def build_timeslots(
    events: Sequence[EventRecord],
    frames: SensorFrames,
    day_origin: time = time(0, 0),
) -> SlotGrid:
    """Align events and frames onto the one-minute grid, whole days at a time.

    The grid runs from the day boundary at or before the earliest input to the
    day boundary strictly after the latest input, so the slot count is always
    a multiple of 1440.  Sensor values are forward-filled: each slot carries
    the latest frame with timestamp <= slot start, and a slot before every
    frame raises ``InitializationError``.  Every event lands in exactly one
    slot.  A grid longer than ``MAX_SPAN_DAYS`` days, or with a day bound
    outside the dates ``datetime`` holds, raises ``ValidationError`` before
    anything is allocated.
    """
    n_frames = len(frames.timestamps)
    if not events and not n_frames:
        return SlotGrid(None, [], np.zeros(0, dtype=np.int64), np.zeros(1, dtype=np.intp),
                        frames, np.zeros(0, dtype=np.intp))
    # The frames are in order: only the first and the last can bound the grid.
    frame_ends = frames.timestamps[[0, -1]].tolist() if n_frames else []
    timestamps = [e.timestamp for e in events] + frame_ends
    first, last = min(timestamps), max(timestamps)
    start = _grid_bound(first, day_origin, 0)
    n_days = (_grid_bound(last, day_origin, 1) - start).days
    if n_days > MAX_SPAN_DAYS:
        raise ValidationError(
            f"timestamps from {first} to {last} need a grid of {n_days} days,"
            f" more than the limit of {MAX_SPAN_DAYS}"
        )
    if not n_frames or frame_ends[0] > start:
        raise InitializationError(f"no sensor frame at or before first slot {start}")
    events = sorted(events, key=lambda e: e.timestamp)  # stable: ties keep order
    # Slot starts, events and frames as whole microseconds after ``start``.
    slot_at = np.arange(n_days * SLOTS_PER_DAY, dtype=np.int64) * SLOT_MICROS
    event_at = offsets_from(start, (e.timestamp for e in events))
    frame_at = (frames.timestamps - np.datetime64(start, "us")).astype(np.int64)
    return SlotGrid(
        start=start,
        events=events,
        event_at=event_at,
        first=np.searchsorted(event_at // SLOT_MICROS, np.arange(len(slot_at) + 1)),
        frames=frames,
        frame=np.searchsorted(frame_at, slot_at, side="right") - 1,
    )


def offsets_from(start: datetime, times: Iterable[datetime]) -> np.ndarray:
    """Whole microseconds from ``start`` to each of ``times``."""
    return np.fromiter(((ts - start) // _MICROSECOND for ts in times), dtype=np.int64)
