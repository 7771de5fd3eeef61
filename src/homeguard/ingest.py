"""Parsing and time alignment of operation logs and sensor logs.

Two CSV formats come in, one unified per-timeslot record stream comes out:

* operation log: ``timestamp,device,action,actor`` rows, one per device
  operation or user entry/exit event;
* sensor log: ``timestamp,temperature,humidity,atmosphere,co2,noise`` rows
  sampled roughly every five minutes.

``build_timeslots`` aligns both onto a fixed one-minute grid covering whole
days, forward-filling the most recent sensor frame into each slot.  It builds
the grid in one forward sweep (a cursor over the sorted frames, events
bucketed by slot index) and refuses inputs spanning more than
``MAX_SPAN_DAYS`` days before it allocates a slot.

Timestamps are ``YYYY-MM-DDTHH:MM:SS`` text.  ``parse_timestamp`` first
tries ``datetime.fromisoformat`` and keeps its result only when the value
is naive and formats back to exactly the input text, which is the case for
every canonical timestamp the writers here produce; any other text goes
through ``datetime.strptime`` with ``TIMESTAMP_FORMAT``, so the accepted
set, the values and the error messages are those of ``strptime`` alone.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, replace
from datetime import datetime, time, timedelta
from pathlib import Path
from typing import Iterable, Sequence

from .errors import InitializationError, ParseError, SchemaError, ValidationError
from .vocab import DEFAULT_SENSOR_RANGES, SENSOR_FIELDS, Vocabulary

logger = logging.getLogger(__name__)

SLOT_SECONDS = 60
SLOTS_PER_DAY = 1440
# Longest span of input ``build_timeslots`` accepts: two years, leap day
# included.  A grid of that span holds about a million slots.
MAX_SPAN_DAYS = 731
TIMESTAMP_FORMAT = "%Y-%m-%dT%H:%M:%S"

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


@dataclass(frozen=True)
class SensorFrame:
    """One timestamped vector of environmental readings."""

    timestamp: datetime
    temperature: float
    humidity: float
    atmosphere: float
    co2: float
    noise: float

    def value(self, name: str) -> float:
        return getattr(self, name)


@dataclass(frozen=True)
class TimeslotRecord:
    """One minute of the unified stream.

    ``t`` counts slots from the start of the data (1-based, gapless);
    ``k`` is the slot-of-day index in [1, 1440] relative to the configured
    day origin.  ``sensors`` is the last frame observed at or before the
    slot start; ``events`` are the records falling inside the slot, in
    stream order.
    """

    t: int
    k: int
    start: datetime
    sensors: SensorFrame
    events: tuple[EventRecord, ...]


def format_timestamp(ts: datetime) -> str:
    # strftime would write year 1 as "1", which parse_timestamp rejects.
    return ts.isoformat(timespec="seconds")


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


def _read_rows(path: str | Path, header: Sequence[str]) -> Iterable[tuple[int, list[str]]]:
    path = Path(path)
    if not path.exists():
        raise ParseError(f"file not found: {path}")
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            first = next(reader)
        except StopIteration:
            raise ParseError("empty file, expected header row", line=1) from None
        if [cell.strip() for cell in first] != list(header):
            raise ParseError(
                f"bad header {first!r}, expected {','.join(header)}", line=1
            )
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            yield line_no, row


def parse_operation_log(
    path: str | Path,
    vocabulary: Vocabulary | None = None,
    on_unknown: str = "error",
) -> list[EventRecord]:
    """Parse an operation log, sorted by timestamp (stable for ties).

    Pairs outside the registered vocabulary raise ``SchemaError`` by default;
    with ``on_unknown="skip"`` they are dropped with a warning instead, which
    is what the detection CLI wants for live streams.
    """
    if on_unknown not in ("error", "skip"):
        raise ValueError(f"on_unknown must be 'error' or 'skip', got {on_unknown!r}")
    vocabulary = vocabulary or Vocabulary()
    records: list[EventRecord] = []
    for line_no, row in _read_rows(path, OPERATION_HEADER):
        if len(row) != len(OPERATION_HEADER):
            raise ParseError(
                f"expected {len(OPERATION_HEADER)} fields, got {len(row)}", line=line_no
            )
        ts = parse_timestamp(row[0].strip(), line=line_no)
        device = row[1].strip()
        action = row[2].strip()
        actor = row[3].strip() or None
        if not device or not action:
            raise ParseError("device and action must be non-empty", line=line_no)
        if not vocabulary.is_registered(device, action):
            if on_unknown == "skip":
                logger.warning(
                    "line %d: skipping unregistered pair (%s, %s)", line_no, device, action
                )
                continue
            raise SchemaError(
                f"line {line_no}: unregistered (device, action) pair ({device!r}, {action!r})"
            )
        records.append(EventRecord(ts, device, action, actor))
    records.sort(key=lambda r: r.timestamp)  # stable: ties keep file order
    return records


def parse_sensor_log(
    path: str | Path,
    ranges: dict[str, tuple[float, float]] | None = DEFAULT_SENSOR_RANGES,
) -> list[SensorFrame]:
    """Parse a sensor log, range-validated and sorted by timestamp.

    ``ranges`` maps field name to an inclusive interval; pass ``None`` to
    disable range checking entirely (deployments with uncalibrated sensors).
    """
    frames: list[SensorFrame] = []
    for line_no, row in _read_rows(path, SENSOR_HEADER):
        if len(row) != len(SENSOR_HEADER):
            raise ParseError(
                f"expected {len(SENSOR_HEADER)} fields, got {len(row)}", line=line_no
            )
        ts = parse_timestamp(row[0].strip(), line=line_no)
        values: list[float] = []
        for name, cell in zip(SENSOR_FIELDS, row[1:]):
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(f"bad {name} value {cell!r}", line=line_no) from None
            if ranges is not None and name in ranges:
                low, high = ranges[name]
                if not (low <= value <= high):
                    raise ValidationError(
                        f"line {line_no}: value {value} outside [{low}, {high}]",
                        field=name,
                    )
            values.append(value)
        frames.append(SensorFrame(ts, *values))
    frames.sort(key=lambda f: f.timestamp)
    return frames


def write_operation_log(records: Iterable[EventRecord], path: str | Path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(OPERATION_HEADER)
        for rec in records:
            writer.writerow(
                [format_timestamp(rec.timestamp), rec.device, rec.action, rec.actor or ""]
            )


def write_sensor_log(frames: Iterable[SensorFrame], path: str | Path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(SENSOR_HEADER)
        for frame in frames:
            row = [format_timestamp(frame.timestamp)]
            row.extend(repr(frame.value(name)) for name in SENSOR_FIELDS)
            writer.writerow(row)


def floor_to_day_origin(ts: datetime, day_origin: time) -> datetime:
    """Latest day boundary (a datetime whose time-of-day is the origin) <= ts."""
    boundary = datetime.combine(ts.date(), day_origin)
    if boundary > ts:
        boundary -= timedelta(days=1)
    return boundary


def slot_of_day(ts: datetime, day_origin: time) -> int:
    """1-based slot-of-day index of the slot containing ``ts``."""
    boundary = floor_to_day_origin(ts, day_origin)
    return int((ts - boundary).total_seconds() // SLOT_SECONDS) + 1


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
    frames: Sequence[SensorFrame],
    day_origin: time = time(0, 0),
    default_frame: SensorFrame | None = None,
) -> list[TimeslotRecord]:
    """Align events and frames onto the one-minute grid, whole days at a time.

    The grid runs from the day boundary at or before the earliest input to the
    day boundary strictly after the latest input, so the slot count is always
    a multiple of 1440.  Sensor values are forward-filled: each slot carries
    the latest frame with timestamp <= slot start.  Every event lands in
    exactly one slot.  A grid longer than ``MAX_SPAN_DAYS`` days, or with a
    day bound outside the dates ``datetime`` holds, raises ``ValidationError``
    before any slot is built.
    """
    if not events and not frames:
        return []
    timestamps = [e.timestamp for e in events] + [f.timestamp for f in frames]
    first, last = min(timestamps), max(timestamps)
    start = _grid_bound(first, day_origin, 0)
    n_days = (_grid_bound(last, day_origin, 1) - start).days
    if n_days > MAX_SPAN_DAYS:
        raise ValidationError(
            f"timestamps from {first} to {last} need a grid of {n_days} days,"
            f" more than the limit of {MAX_SPAN_DAYS}"
        )

    frames = sorted(frames, key=lambda f: f.timestamp)
    if default_frame is None and (not frames or frames[0].timestamp > start):
        raise InitializationError(
            f"no sensor frame at or before first slot {start}"
            " and no default frame supplied"
        )
    one_slot = timedelta(seconds=SLOT_SECONDS)
    buckets: dict[int, list[EventRecord]] = {}
    for event in sorted(events, key=lambda e: e.timestamp):  # stable: ties keep order
        buckets.setdefault((event.timestamp - start) // one_slot, []).append(event)

    # One forward sweep: ``ahead`` counts the frames at or before the slot
    # start, so frames[ahead - 1] is the one to forward-fill.
    frame_times = [f.timestamp for f in frames]
    n_frames = len(frames)
    ahead = 0
    no_events: tuple[EventRecord, ...] = ()
    slots: list[TimeslotRecord] = []
    append = slots.append
    slot_start = start
    for idx in range(n_days * SLOTS_PER_DAY):
        while ahead < n_frames and frame_times[ahead] <= slot_start:
            ahead += 1
        if ahead:
            sensors = frames[ahead - 1]
        else:
            sensors = replace(default_frame, timestamp=slot_start)
        bucket = buckets.get(idx)
        append(TimeslotRecord(idx + 1, idx % SLOTS_PER_DAY + 1, slot_start, sensors,
                              tuple(bucket) if bucket else no_events))
        slot_start += one_slot
    return slots
