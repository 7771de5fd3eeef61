"""Slow reference versions of optimized paths, kept as test oracles.

Each function is the straightforward implementation that a faster one in
``src`` replaced; the differential tests assert that both give the same
result.
"""

from __future__ import annotations

import csv
import logging
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from datetime import date, datetime, time, timedelta
from pathlib import Path
from itertools import combinations, product
from typing import Callable, NamedTuple, Sequence

import numpy as np

from homeguard.detector import Candidates, Levels, two_level_anomalous
from homeguard.errors import InitializationError, ParseError, SchemaError, ValidationError
from homeguard.hsmodel import (
    FilterTrace,
    TransitionTensor,
    filter_streams,
    fit_operations,
    fit_transitions,
    kept_day_streams,
)
from homeguard.ingest import (
    OPERATION_HEADER,
    SENSOR_HEADER,
    SLOT_SECONDS,
    SLOTS_PER_DAY,
    TIMESTAMP_FORMAT,
    EventRecord,
    SensorFrames,
    SlotGrid,
    _read_rows,
    floor_to_day_origin,
    format_timestamp,
    parse_timestamp,
)
from homeguard.labeling import (
    ALPHABET,
    STATE_INDEX,
    DeviceUsage,
    HomeState,
    LabelArrays,
    LabelingParams,
    UserActivity,
    _combine,
)
from homeguard.seqstore import (
    SECONDS_PER_DAY,
    Items,
    Pair,
    SeqParams,
    SequenceIds,
    SequenceStore,
    TimedSequenceStore,
    _ranks,
    seconds_of_day,
)
from homeguard.synthgen import Interval, Scenario, _jitter
from homeguard.vocab import DEFAULT_SENSOR_RANGES, SENSOR_FIELDS, Vocabulary


def parse_timestamp_strptime(text: str, line: int | None = None) -> datetime:
    """``TIMESTAMP_FORMAT`` through ``strptime`` alone."""
    try:
        return datetime.strptime(text, TIMESTAMP_FORMAT)
    except ValueError as exc:
        raise ParseError(f"bad timestamp {text!r}: {exc}", line=line) from None


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


def columns(frames: Sequence[SensorFrame]) -> SensorFrames:
    """Frame records as ``SensorFrames``, sorted by timestamp (stable for
    ties), as ``parse_sensor_log`` returns them."""
    frames = sorted(frames, key=lambda f: f.timestamp)
    values = [[f.value(name) for name in SENSOR_FIELDS] for f in frames]
    return SensorFrames(np.array([f.timestamp for f in frames], dtype="datetime64[us]"),
                        np.array(values, dtype=float).reshape(-1, len(SENSOR_FIELDS)))


def frame_rows(frames: SensorFrames) -> list[SensorFrame]:
    """``SensorFrames`` as one record per frame."""
    return [SensorFrame(ts, *values)
            for ts, values in zip(frames.timestamps.tolist(), frames.values.tolist())]


# The logger ``homeguard.ingest`` warns on.
_INGEST_LOGGER = logging.getLogger("homeguard.ingest")


def parse_operation_log_rows(
    path, vocabulary: Vocabulary | None = None, on_unknown: str = "error"
) -> list[EventRecord]:
    """An operation log parsed row by row, each row checked before the next
    is read, sorted by timestamp (stable for ties); with ``on_unknown="skip"``
    an unregistered pair is warned of and dropped."""
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
                _INGEST_LOGGER.warning(
                    "line %d: skipping unregistered pair (%s, %s)", line_no, device, action
                )
                continue
            raise SchemaError(
                f"line {line_no}: unregistered (device, action) pair ({device!r}, {action!r})"
            )
        records.append(EventRecord(ts, device, action, actor))
    records.sort(key=lambda r: r.timestamp)
    return records


def parse_sensor_log_rows(
    path, ranges: dict[str, tuple[float, float]] | None = DEFAULT_SENSOR_RANGES
) -> list[SensorFrame]:
    """A sensor log parsed row by row into range-checked frame records,
    sorted by timestamp."""
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


def write_sensor_log_rows(frames: Sequence[SensorFrame], path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(SENSOR_HEADER)
        for frame in frames:
            row = [format_timestamp(frame.timestamp)]
            row.extend(repr(frame.value(name)) for name in SENSOR_FIELDS)
            writer.writerow(row)


@dataclass(frozen=True)
class TruthRow:
    t: int
    k: int
    start: datetime
    u: str
    d: str


def write_truth_rows(truth: Sequence[TruthRow], path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t", "k", "timestamp", "u", "d"])
        for row in truth:
            writer.writerow([row.t, row.k, format_timestamp(row.start), row.u, row.d])


def generate_rows(
    scenario: Scenario,
) -> tuple[list[EventRecord], list[SensorFrame], list[TruthRow]]:
    """A synthetic home generated minute by minute: its events, one frame
    record per sensor sample (a scalar noise draw and a scalar clip per
    reading) and one truth record per slot."""
    events: list[EventRecord] = []
    frames: list[SensorFrame] = []
    truth: list[TruthRow] = []
    day0 = datetime.combine(scenario.start_date, datetime.min.time())

    for day in range(scenario.n_days):
        rng = np.random.default_rng([scenario.seed, day])
        day_start = day0 + timedelta(days=day)
        template = scenario.template_for(day)
        std = scenario.jitter_std_minutes

        sleep_ivals = [
            Interval(
                (iv.start_minute + _jitter(rng, std)) % SLOTS_PER_DAY,
                (iv.end_minute + _jitter(rng, std)) % SLOTS_PER_DAY,
            )
            for iv in template.sleep
        ]
        out_ivals = [
            Interval(
                max(0, min(SLOTS_PER_DAY - 1, iv.start_minute + _jitter(rng, std))),
                max(0, min(SLOTS_PER_DAY - 1, iv.end_minute + _jitter(rng, std))),
            )
            for iv in template.out
        ]
        sessions = [
            (
                max(0, min(SLOTS_PER_DAY - 2, cs.start_minute + _jitter(rng, std))),
                max(1, cs.duration),
                cs,
            )
            for cs in template.cook
        ]

        activity = ["active"] * SLOTS_PER_DAY
        for minute in range(SLOTS_PER_DAY):
            if any(iv.contains(minute) for iv in sleep_ivals):
                activity[minute] = "sleep"
        for minute in range(SLOTS_PER_DAY):
            if any(iv.contains(minute) for iv in out_ivals):
                activity[minute] = "out"
        cooking = [False] * SLOTS_PER_DAY
        for start, duration, _ in sessions:
            for minute in range(start, min(start + duration, SLOTS_PER_DAY)):
                cooking[minute] = True
                activity[minute] = "active"

        day_events: list[EventRecord] = []
        for iv in out_ivals:
            if iv.start_minute >= iv.end_minute:
                continue
            for user in range(scenario.n_users):
                day_events.append(EventRecord(
                    day_start + timedelta(minutes=iv.start_minute, seconds=user),
                    "user_position", "exit", actor=f"user{user}",
                ))
                day_events.append(EventRecord(
                    day_start + timedelta(minutes=iv.end_minute, seconds=user),
                    "user_position", "entry", actor=f"user{user}",
                ))
        for start, duration, session in sessions:
            start_second = start * 60 + int(rng.integers(0, 30))
            for device, action, lead in session.lead_ops:
                lead_second = max(0, start_second - lead)
                day_events.append(
                    EventRecord(day_start + timedelta(seconds=lead_second), device, action)
                )
            day_events.append(
                EventRecord(day_start + timedelta(seconds=start_second), session.appliance, "on")
            )
            if session.appliance == "cooking_stove":
                end_second = (start + duration) * 60 - 1 - int(rng.integers(0, 30))
                day_events.append(EventRecord(
                    day_start + timedelta(seconds=end_second), session.appliance, "off"
                ))
        for habit in scenario.habits:
            draws = rng.random(SLOTS_PER_DAY)
            offsets = rng.integers(0, 60, size=SLOTS_PER_DAY)
            probability = habit.rate_per_hour / 60.0
            for minute in range(SLOTS_PER_DAY):
                if (activity[minute] == habit.activity and not cooking[minute]
                        and draws[minute] < probability):
                    day_events.append(EventRecord(
                        day_start + timedelta(minutes=minute, seconds=int(offsets[minute])),
                        habit.device, habit.action,
                    ))
        day_events.sort(key=lambda e: e.timestamp)
        events.extend(day_events)

        for minute in range(0, SLOTS_PER_DAY, scenario.sensor_interval_minutes):
            values: dict[str, float] = {}
            for name in SENSOR_FIELDS:
                channel = scenario.sensors[name]
                value = channel.base
                if activity[minute] == "sleep":
                    value += channel.sleep_offset
                elif activity[minute] == "out":
                    value += channel.out_offset
                if cooking[minute]:
                    value += channel.cook_offset
                if channel.noise_std > 0:
                    value += float(rng.normal(0.0, channel.noise_std))
                low, high = DEFAULT_SENSOR_RANGES[name]
                values[name] = round(float(np.clip(value, low, high)), 2)
            frames.append(SensorFrame(day_start + timedelta(minutes=minute), **values))

        for minute in range(SLOTS_PER_DAY):
            truth.append(TruthRow(
                t=day * SLOTS_PER_DAY + minute + 1,
                k=minute + 1,
                start=day_start + timedelta(minutes=minute),
                u=activity[minute],
                d="use" if cooking[minute] else "none",
            ))

    return events, frames, truth


@dataclass(frozen=True)
class SlotRecord:
    """One minute of a stream as a record.

    ``t`` counts slots from the start of the data (1-based, gapless);
    ``k`` is the slot-of-day index in [1, 1440] relative to the day origin.
    ``sensors`` is the last frame observed at or before the slot start;
    ``events`` are the records falling inside the slot, in stream order.
    """

    t: int
    k: int
    start: datetime
    sensors: SensorFrame
    events: tuple[EventRecord, ...]


def slot_records(grid: SlotGrid, positions: Sequence[int] | None = None) -> list[SlotRecord]:
    """The slots of ``grid`` at ``positions`` (all of them by default), one
    record each."""
    if positions is None:
        positions = range(len(grid))
    frames = frame_rows(grid.frames)
    return [
        SlotRecord(
            t=p + 1,
            k=p % SLOTS_PER_DAY + 1,
            start=grid.start + timedelta(minutes=p),
            sensors=frames[grid.frame[p]],
            events=tuple(grid.events[grid.first[p] : grid.first[p + 1]]),
        )
        for p in [int(p) for p in positions]
    ]


def build_timeslots_bisect(
    events: Sequence[EventRecord],
    frames: Sequence[SensorFrame],
    day_origin: time = time(0, 0),
) -> list[SlotRecord]:
    """The grid built slot by slot, one binary search per slot for the
    sensor frame and two for the slot's events."""
    if not events and not frames:
        return []
    timestamps = [e.timestamp for e in events] + [f.timestamp for f in frames]
    start = floor_to_day_origin(min(timestamps), day_origin)
    last = max(timestamps)
    end = floor_to_day_origin(last, day_origin) + timedelta(days=1)

    frames = sorted(frames, key=lambda f: f.timestamp)
    frame_times = [f.timestamp for f in frames]
    events = sorted(events, key=lambda e: e.timestamp)
    event_times = [e.timestamp for e in events]

    n_slots = int((end - start).total_seconds()) // SLOT_SECONDS
    slots: list[SlotRecord] = []
    for idx in range(n_slots):
        slot_start = start + timedelta(seconds=idx * SLOT_SECONDS)
        slot_end = slot_start + timedelta(seconds=SLOT_SECONDS)
        frame_idx = bisect_right(frame_times, slot_start) - 1
        if frame_idx < 0:
            raise InitializationError(f"no sensor frame at or before first slot {slot_start}")
        lo = bisect_left(event_times, slot_start)
        hi = bisect_left(event_times, slot_end)
        slots.append(
            SlotRecord(
                t=idx + 1,
                k=idx % SLOTS_PER_DAY + 1,
                start=slot_start,
                sensors=frames[frame_idx],
                events=tuple(events[lo:hi]),
            )
        )
    return slots


def calendar_day_bounds_scan(slots: Sequence[SlotRecord]) -> tuple[list[int], list[int]]:
    """First and last position sharing each slot's calendar date, by a scan
    that compares each slot's date with the first of its block."""
    n = len(slots)
    day_lo = [0] * n
    day_hi = [0] * n
    block_start = 0
    for pos in range(1, n + 1):
        if pos == n or slots[pos].start.date() != slots[block_start].start.date():
            for w in range(block_start, pos):
                day_lo[w] = block_start
                day_hi[w] = pos - 1
            block_start = pos
    return day_lo, day_hi


@dataclass
class UserActivityLabels:
    activities: list[UserActivity]
    excluded_dates: set[date]
    change_times: list[datetime] = field(repr=False)
    change_counts: list[int] = field(repr=False)

    def count_at(self, ts: datetime) -> int:
        """Occupant count in force at ``ts`` (changes at ``ts`` included)."""
        idx = bisect_right(self.change_times, ts) - 1
        return self.change_counts[idx] if idx >= 0 else self.change_counts[0]


@dataclass
class DeviceUsageLabels:
    usages: list[DeviceUsage]
    run_start_ops: dict[int, datetime]  # slot position -> first cooking op of the run


def in_night(params: LabelingParams, tod: time) -> bool:
    start, end = params.night_window
    if start <= end:
        return start <= tod <= end
    return tod >= start or tod <= end


def label_user_activity_per_slot(
    slots: Sequence[SlotRecord],
    events: Sequence[EventRecord],
    params: LabelingParams,
    vocabulary: Vocabulary | None = None,
) -> UserActivityLabels:
    """The user-activity channel slot by slot: a ``count_at`` bisect and an
    ``in_night`` call per slot, and the merges and repairs as loops."""
    vocabulary = vocabulary or Vocabulary()
    if not slots:
        return UserActivityLabels([], set(), [], [])
    start = slots[0].start
    n = len(slots)
    excluded_dates: set[date] = set()

    change_times: list[datetime] = [start]
    change_counts: list[int] = [params.initial_occupants]
    count = params.initial_occupants
    device_ops: list[EventRecord] = []
    for event in sorted(events, key=lambda e: e.timestamp):
        if vocabulary.is_presence(event.device):
            if event.action == "entry":
                count += 1
            elif event.action == "exit" and count > 0:
                count -= 1
            change_times.append(event.timestamp)
            change_counts.append(count)
        elif vocabulary.is_device_operation(event.device, event.action):
            device_ops.append(event)
            if count == 0:
                count = 1
                change_times.append(event.timestamp)
                change_counts.append(count)
                excluded_dates.add(event.timestamp.date())

    labels = UserActivityLabels([], excluded_dates, change_times, change_counts)

    slot_end_offset = timedelta(seconds=59)
    out = [labels.count_at(slot.start + slot_end_offset) == 0 for slot in slots]

    sleep = [
        not out[pos]
        and in_night(params, slot.start.time())
        and slot.sensors.noise < params.noise_threshold
        and slot.sensors.co2 > params.co2_threshold
        for pos, slot in enumerate(slots)
    ]

    sleep_positions = [pos for pos, flag in enumerate(sleep) if flag]
    for a, b in zip(sleep_positions, sleep_positions[1:]):
        if b - a <= params.sleep_gap_merge:
            for pos in range(a + 1, b):
                if not out[pos] and in_night(params, slots[pos].start.time()):
                    sleep[pos] = True

    day_lo, day_hi = calendar_day_bounds_scan(slots)
    _, night_end = params.night_window
    for op in device_ops:
        tod = op.timestamp.time()
        if not in_night(params, tod):
            continue
        pos = int((op.timestamp - start).total_seconds() // 60)
        if params.night_split <= tod <= night_end:
            hi = min(day_hi[pos], pos + params.postsleep_hours * 60)
            window = range(pos, hi + 1)
        else:
            lo = max(day_lo[pos], pos - params.presleep_hours * 60)
            window = range(lo, pos + 1)
        for w in window:
            sleep[w] = False

    for pos in range(n):
        if out[pos]:
            labels.activities.append(UserActivity.OUT)
        elif sleep[pos]:
            labels.activities.append(UserActivity.SLEEP)
        else:
            labels.activities.append(UserActivity.ACTIVE)
    return labels


def label_device_usage_per_slot(
    slots: Sequence[SlotRecord],
    params: LabelingParams,
    vocabulary: Vocabulary | None = None,
) -> DeviceUsageLabels:
    """The device-usage channel slot by slot, its merges and windows as loops."""
    vocabulary = vocabulary or Vocabulary()
    n = len(slots)
    usages = [DeviceUsage.NONE] * n
    use = [False] * n
    day_lo, day_hi = calendar_day_bounds_scan(slots)

    first_op: dict[int, datetime] = {}
    for pos, slot in enumerate(slots):
        for event in slot.events:
            if vocabulary.is_cooking(event.device):
                first_op[pos] = event.timestamp
                break

    for pos in first_op:
        for w in range(pos, min(pos + params.t_c, day_hi[pos]) + 1):
            use[w] = True

    marked = [pos for pos, flag in enumerate(use) if flag]
    for a, b in zip(marked, marked[1:]):
        if b - a <= params.use_gap_merge and day_lo[a] == day_lo[b]:
            for pos in range(a + 1, b):
                use[pos] = True

    runs: list[tuple[int, int]] = []
    pos = 0
    while pos < n:
        if use[pos]:
            end = pos
            while end + 1 < n and use[end + 1]:
                end += 1
            runs.append((pos, end))
            pos = end + 1
        else:
            pos += 1

    for pos in range(n):
        if use[pos]:
            usages[pos] = DeviceUsage.USE
    for run_start, _ in runs:
        for w in range(max(day_lo[run_start], run_start - params.t_x), run_start):
            if usages[w] == DeviceUsage.NONE:
                usages[w] = DeviceUsage.BEFORE
    for _, run_end in runs:
        for w in range(run_end + 1, min(run_end + params.t_y, day_hi[run_end]) + 1):
            if usages[w] == DeviceUsage.NONE:
                usages[w] = DeviceUsage.AFTER

    run_start_ops = {rs: first_op[rs] for rs, _ in runs if rs in first_op}
    return DeviceUsageLabels(usages, run_start_ops)


@dataclass
class LabeledSlot:
    """A timeslot with its state assignments.

    ``state`` is the state in force at the end of the slot (used for the
    transition chain), ``entry_state`` the one at the slot start, and
    ``event_states`` carries, per event, the state in force at that event's
    instant (the event's own effect included).
    """

    slot: SlotRecord
    state: HomeState
    entry_state: HomeState
    event_states: tuple[HomeState, ...]
    excluded_day: bool


def label_states_per_slot(
    slots: Sequence[SlotRecord],
    events: Sequence[EventRecord],
    params: LabelingParams,
    vocabulary: Vocabulary | None = None,
) -> list[LabeledSlot]:
    """Joint labeling that builds every state with ``_combine`` as it goes."""
    vocabulary = vocabulary or Vocabulary()
    ua = label_user_activity_per_slot(slots, events, params, vocabulary)
    du = label_device_usage_per_slot(slots, params, vocabulary)
    pre_run_label = DeviceUsage.BEFORE if params.t_x >= 1 else DeviceUsage.NONE

    labeled: list[LabeledSlot] = []
    for pos, slot in enumerate(slots):
        u_final = ua.activities[pos]
        d_final = du.usages[pos]
        run_op = du.run_start_ops.get(pos)

        def instant_u(ts: datetime) -> UserActivity:
            if ua.count_at(ts) == 0:
                return UserActivity.OUT
            return u_final if u_final != UserActivity.OUT else UserActivity.ACTIVE

        d_entry = pre_run_label if run_op is not None and run_op > slot.start else d_final
        entry_state = _combine(instant_u(slot.start), d_entry)

        event_states = []
        for event in slot.events:
            if run_op is not None and event.timestamp < run_op:
                d_ev = pre_run_label
            else:
                d_ev = d_final
            event_states.append(_combine(instant_u(event.timestamp), d_ev))

        labeled.append(
            LabeledSlot(
                slot=slot,
                state=_combine(u_final, d_final),
                entry_state=entry_state,
                event_states=tuple(event_states),
                excluded_day=slot.start.date() in ua.excluded_dates,
            )
        )
    return labeled


def encode_labels(labeled: Sequence[LabeledSlot]) -> LabelArrays:
    """A labeled slot stream walked slot by slot into integer arrays."""
    n = len(labeled)
    t = np.fromiter((item.slot.t for item in labeled), dtype=np.int64, count=n)
    succ = np.full(n, -1, dtype=np.int32)
    last_at = {int(value): pos for pos, value in enumerate(t)}
    for pos, value in enumerate(t):
        succ[pos] = last_at.get(int(value) + 1, -1)
    event_pos: list[int] = []
    event_pair: list[int] = []
    event_state: list[int] = []
    pair_index: dict[tuple[str, str], int] = {}
    for pos, item in enumerate(labeled):
        for event, state in zip(item.slot.events, item.event_states, strict=True):
            event_pos.append(pos)
            event_pair.append(pair_index.setdefault(event.pair, len(pair_index)))
            event_state.append(STATE_INDEX[state])
    return LabelArrays(
        day=((t - 1) // SLOTS_PER_DAY).astype(np.int32),
        k0=np.array([item.slot.k - 1 for item in labeled], dtype=np.int16),
        state=np.array([STATE_INDEX[item.state] for item in labeled], dtype=np.int8),
        entry=np.array([STATE_INDEX[item.entry_state] for item in labeled], dtype=np.int8),
        succ=succ,
        excluded=np.array([item.excluded_day for item in labeled], dtype=bool),
        event_pos=np.array(event_pos, dtype=np.intp),
        event_pair=np.array(event_pair, dtype=np.intp),
        event_state=np.array(event_state, dtype=np.int8),
        pairs=tuple(pair_index),
        keep=np.ones(n, dtype=bool),
    )


def decode_labels(slots: Sequence[SlotRecord], labels: LabelArrays) -> list[LabeledSlot]:
    """The labels of ``slots`` as one ``LabeledSlot`` per slot, for tests
    that read them slot by slot."""
    event_states: list[list[HomeState]] = [[] for _ in slots]
    for pos, state in zip(labels.event_pos.tolist(), labels.event_state.tolist(), strict=True):
        event_states[pos].append(ALPHABET[state])
    return [
        LabeledSlot(
            slot=slot,
            state=ALPHABET[state],
            entry_state=ALPHABET[entry],
            event_states=tuple(states),
            excluded_day=excluded,
        )
        for slot, state, entry, states, excluded in zip(
            slots, labels.state.tolist(), labels.entry.tolist(), event_states,
            labels.excluded.tolist(), strict=True,
        )
    ]


def export_labels_rows(grid: SlotGrid, labels: LabelArrays, path) -> None:
    """The slot-level label stream written one row per slot."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t", "k", "date", "u", "d", "excluded"])
        for p, (state, excluded) in enumerate(zip(labels.state.tolist(),
                                                  labels.excluded.tolist())):
            writer.writerow([p + 1, p % SLOTS_PER_DAY + 1,
                             format_timestamp(grid.start + timedelta(seconds=p * SLOT_SECONDS)),
                             ALPHABET[state].u.value, ALPHABET[state].d.value, int(excluded)])


@dataclass(frozen=True)
class EventSequence:
    """An ordered list of (device, action) symbols with its completion time."""

    items: Items
    end_time: datetime | None = None

    @property
    def length(self) -> int:
        return len(self.items)


def generate_subsequences(
    window: Sequence[EventRecord], l_max: int = 5, w_max: int = 16
) -> list[EventSequence]:
    """Distinct order-preserving subsequences of a window, shortest first.

    For ``n`` distinct events and ``l_max >= n`` this is the full power set
    minus the empty set: ``2**n - 1`` sequences.  Oversized windows keep only
    their most recent ``w_max`` events.
    """
    events = list(window)[-w_max:]
    pairs = [event.pair for event in events]
    distinct = enumerate_distinct_combinations(pairs, l_max)
    return [
        EventSequence(items, events[final].timestamp)
        for items, final in sorted(distinct.items(), key=lambda kv: (len(kv[0]), kv[0]))
    ]


def enumerate_distinct_combinations(pairs: Sequence[Pair], l_max: int) -> dict[Items, int]:
    """Every distinct subsequence of up to ``l_max`` items mapped to its
    latest final position, from every combination of positions; in
    ``_enumerate_distinct``'s order (final position, length, items)."""
    out: dict[Items, int] = {}
    n = len(pairs)
    for length in range(1, min(l_max, n) + 1):
        for combo in combinations(range(n), length):
            items = tuple(pairs[p] for p in combo)
            out[items] = max(combo[-1], out.get(items, -1))
    return dict(sorted(out.items(), key=lambda kv: (kv[1], len(kv[0]), kv[0])))


def candidates_ending_at_combinations(window_pairs: Sequence[Pair], l_max: int) -> list[Items]:
    """Candidates from every combination of head positions, deduplicated
    through a set and sorted shortest first, then in item order."""
    if not window_pairs:
        return []
    head = list(window_pairs[:-1])
    last = window_pairs[-1]
    out: set[Items] = {(last,)}
    for length in range(1, min(l_max - 1, len(head)) + 1):
        for combo in combinations(range(len(head)), length):
            out.add(tuple(head[p] for p in combo) + (last,))
    return sorted(out, key=lambda items: (len(items), items))


class LevelScores(NamedTuple):
    """One window's best score per length level and the candidates that won.

    ``multi_items`` is None when the window holds only the judged operation.
    """

    single: float
    multi: float
    single_items: Items
    multi_items: Items | None


def best_per_level_loop(candidates: Sequence[Items], score: Callable[[Items], float]):
    """``LevelScores`` by scoring one candidate at a time: the length-1
    candidate, which comes first, and the first maximum of the longer ones."""
    multi, multi_items = 0.0, None
    for items in candidates[1:]:
        value = score(items)
        if multi_items is None or value > multi:
            multi, multi_items = value, items
    return LevelScores(score(candidates[0]), multi, candidates[0], multi_items)


def flat_candidates(windows: Sequence[Sequence[Items]], keys: SequenceIds) -> Candidates:
    """The ``Candidates`` batch of per-window candidate lists, interned in
    ``keys``."""
    return Candidates(
        keys.intern([items for candidates in windows for items in candidates]),
        keys,
        np.cumsum([0, *(len(candidates) for candidates in windows)]),
    )


def batch_items(batch: Candidates) -> list[Items]:
    """The candidates of a batch, flat, as the sequences their ids stand for."""
    return [batch.keys.items[sid] for sid in batch.ids.tolist()]


def window_levels(batch: Candidates, levels: Levels) -> list[LevelScores]:
    """A batch scorer's ``Levels`` as one ``LevelScores`` per window."""
    items = batch_items(batch)
    return [
        LevelScores(single, multi, items[start], items[at] if at >= 0 else None)
        for single, multi, start, at in zip(
            levels.single.tolist(), levels.multi.tolist(), batch.bounds.tolist(),
            levels.at.tolist(),
        )
    ]


@dataclass
class DictStore:
    """The sequence store keyed by the sequences themselves: ``counts[y][i]``
    occurrences of sequence ``y`` credited to state ``i``."""

    slot_counts: np.ndarray
    counts: dict[Items, np.ndarray] = field(default_factory=dict)


@dataclass
class DictTimedStore:
    """The timed store keyed by the sequences themselves: ``times[y]``, the
    ascending seconds-of-day at which sequence ``y`` completed."""

    times: dict[Items, list[float]] = field(default_factory=dict)
    target_total: int = 0


def as_dicts(store):
    """An id-keyed store read back as its sequence-keyed form, in the order
    of its ids; a ``DictStore`` or ``DictTimedStore`` as it is."""
    if isinstance(store, (DictStore, DictTimedStore)):
        return store
    items = [store.keys.items[sid] for sid in store.ids.tolist()]
    if isinstance(store, SequenceStore):
        return DictStore(store.slot_counts, dict(zip(items, store.counts)))
    return DictTimedStore(
        {y: times.tolist() for y, times in zip(items, store.times)}, store.target_total
    )


def store_vector(store: SequenceStore | DictStore, items: Items) -> np.ndarray:
    """Per-state probabilities of one sequence: its counts over the slot
    counts, 0 where a state has no slot and for a sequence the store lacks."""
    store = as_dicts(store)
    counts = store.counts.get(items)
    zeros = np.zeros(len(store.slot_counts))
    if counts is None:
        return zeros
    return np.divide(
        counts.astype(np.float64), store.slot_counts, out=zeros, where=store.slot_counts > 0
    )


def proposed_score(store: SequenceStore | DictStore, belief: np.ndarray, items: Items) -> float:
    """One candidate's belief-weighted sequence probability, by ``np.dot``
    on two vectors, clamped to [0, 1]."""
    return min(1.0, max(0.0, float(np.dot(store_vector(store, items), belief))))


def proposed_scores(
    store: SequenceStore | DictStore, belief: np.ndarray, candidates: Sequence[Items]
):
    """One window's ``LevelScores``, one candidate at a time."""
    return best_per_level_loop(candidates, lambda items: proposed_score(store, belief, items))


def estimation_score(operations, belief: np.ndarray, op) -> float:
    """One operation's belief-weighted probability, by ``np.dot`` on two
    vectors, clamped to [0, 1]."""
    return min(1.0, max(0.0, float(np.dot(belief, operations.vector(op.pair)))))


def count_near(
    store: TimedSequenceStore | DictTimedStore, items: Items, tod: float, alpha_seq: float
) -> int:
    """Stored occurrences of ``items`` within cyclic ``alpha_seq`` seconds,
    by two binary searches in the sequence's own time list."""
    stored = as_dicts(store).times.get(items)
    if not stored:
        return 0
    if 2 * alpha_seq >= SECONDS_PER_DAY:
        return len(stored)
    lo = (tod - alpha_seq) % SECONDS_PER_DAY
    hi = (tod + alpha_seq) % SECONDS_PER_DAY
    if lo <= hi:
        return bisect_right(stored, hi) - bisect_left(stored, lo)
    return (len(stored) - bisect_left(stored, lo)) + bisect_right(stored, hi)


def ratio(
    store: TimedSequenceStore | DictTimedStore, items: Items, tod: float, alpha_seq: float
) -> float:
    """One candidate's match ratio: ``count_near`` over the stored targets."""
    if store.target_total == 0:
        return 0.0
    return count_near(store, items, tod, alpha_seq) / store.target_total


def window_horizon(ts: datetime, t_seq: float) -> datetime:
    """The instant ``t_seq`` seconds before ``ts``, or the first instant a
    ``datetime`` holds when that lies before it."""
    span = timedelta(seconds=t_seq)
    return ts - span if ts - datetime.min > span else datetime.min


def window_start(times: Sequence[datetime], ts: datetime, t_seq: float) -> int:
    """Index of the first of the sorted ``times`` at most ``t_seq`` seconds
    before ``ts``: where the window of an event at ``ts`` begins, by a
    ``bisect`` over the datetimes themselves."""
    return bisect_left(times, window_horizon(ts, t_seq))


def select_states(belief: np.ndarray, params: SeqParams) -> list[int]:
    """State indices satisfying the active storing criterion; may be empty."""
    belief = np.asarray(belief)
    if params.criterion == "rank":
        ranks = 1 + (belief[None, :] > belief[:, None]).sum(axis=1)
        mask = ranks <= params.l_rank
    else:
        mask = belief >= params.l_alpha
    return [int(i) for i in np.flatnonzero(mask)]


def slot_counts_ranked(
    entries: Sequence[np.ndarray], n_states: int, alphas: Sequence[float] = ()
) -> tuple[np.ndarray, np.ndarray]:
    """The (at_rank, at_least) counts of ``seqstore.SlotCounts`` over the
    slot entries of whole traces: each trace's (n_slots, S) entries ranked
    by ``_ranks`` row by row and counted rank by rank, and compared with
    each of ``alphas``."""
    at_rank = np.zeros((n_states, n_states), dtype=np.int64)
    at_least = np.zeros((len(alphas), n_states), dtype=np.int64)
    for entry in entries:
        ranks = _ranks(entry)
        for rank in range(n_states):
            at_rank[rank] += (ranks == rank + 1).sum(axis=0)
        for a, alpha in enumerate(alphas):
            at_least[a] += (entry >= alpha).sum(axis=0)
    return at_rank, at_least


def store_sequences_per_window(
    grid, traces, target_device: str, params: SeqParams, n_states: int
):
    """The sequence store built window by window: the windows of each
    training trace's events of ``grid`` enumerated anew, and the states of
    each stored sequence selected with one ``select_states`` call on its
    final belief."""
    store = DictStore(np.zeros(n_states, dtype=np.int64))
    for trace in traces:
        for row in trace.entry:
            store.slot_counts[select_states(row, params)] += 1
        events = [grid.events[i] for i in trace.event_index.tolist()]
        times = [event.timestamp for event in events]
        for idx, event in enumerate(events):
            if event.device != target_device:
                continue
            lo = max(window_start(times, event.timestamp, params.t_seq), idx + 1 - params.w_max)
            pairs = [e.pair for e in events[lo : idx + 1]]
            for items, final in enumerate_distinct_combinations(pairs, params.l_max).items():
                if not any(device == target_device for device, _ in items):
                    continue
                selected = select_states(trace.pre[lo + final], params)
                if not selected:
                    continue
                counts = store.counts.setdefault(items, np.zeros(n_states, dtype=np.int64))
                counts[selected] += 1
    return store


def build_timed_store_per_window(events, target_device: str, params: SeqParams):
    """The timed store built window by window over the time-sorted events,
    every window enumerated anew."""
    events = sorted(events, key=lambda e: e.timestamp)
    times = [event.timestamp for event in events]
    store = DictTimedStore()
    for idx, event in enumerate(events):
        if event.device != target_device:
            continue
        store.target_total += 1
        window = events[window_start(times, event.timestamp, params.t_seq) : idx + 1]
        if len(window) > params.w_max:
            window = window[-params.w_max :]
        pairs = [e.pair for e in window]
        for items, final in enumerate_distinct_combinations(pairs, params.l_max).items():
            if not any(device == target_device for device, _ in items):
                continue
            store.times.setdefault(items, []).append(seconds_of_day(window[final].timestamp))
    for stored in store.times.values():
        stored.sort()
    return store


def frontier_indices_loop(mis: np.ndarray, det: np.ndarray) -> list[int]:
    """Frontier indices by a scan in (misdetection, -detection) order that
    keeps each point beating the best detection seen so far."""
    order = np.lexsort((-det, mis))
    keep: list[int] = []
    best = -1.0
    for idx in order:
        if det[idx] > best:
            keep.append(int(idx))
            best = float(det[idx])
    return keep


def two_level_counts_loop(s1, s2, injected, n_single, n_multi) -> list[tuple]:
    """(n_single, n_multi, tp, fp) of every threshold pair in ``product``
    order, the two-level rule applied to every score once per pair."""
    rows = []
    for v1, v2 in product(n_single, n_multi):
        anomalous = two_level_anomalous(s1, s2, v1, v2)
        rows.append((float(v1), float(v2), int(np.count_nonzero(anomalous & injected)),
                     int(np.count_nonzero(anomalous & ~injected))))
    return rows


def estimation_counts_loop(scores, injected, theta) -> list[tuple]:
    """(theta, tp, fp) of every ``theta`` in order: flagged iff score <= theta."""
    return [
        (float(value), int(np.count_nonzero((scores <= value) & injected)),
         int(np.count_nonzero((scores <= value) & ~injected)))
        for value in theta
    ]


def frontier_rows_loop(rows: Sequence[tuple]) -> list[tuple]:
    """The rows (thresholds..., tp, fp) that ``frontier_indices_loop`` keeps."""
    tp = np.array([row[-2] for row in rows])
    fp = np.array([row[-1] for row in rows])
    return [rows[index] for index in frontier_indices_loop(fp, tp)]


@dataclass
class StateBelief:
    """Belief over the state alphabet at one instant.

    ``t`` is the slot-of-data index, ``event_index`` the number of within-slot
    event updates already applied (0 right after the slot boundary).
    """

    probs: np.ndarray
    t: int
    event_index: int = 0


def snapshots(trace: FilterTrace) -> list[StateBelief]:
    """Every instant of a trace in order: each slot entry, then the beliefs
    just before and just after each of the slot's events.  ``t`` numbers the
    trace's slots from 1; none for an empty trace."""
    result: list[StateBelief] = []
    for pos, entry in enumerate(trace.entry):
        result.append(StateBelief(entry, t=pos + 1, event_index=0))
        for event_index, i in enumerate(range(trace.first[pos], trace.first[pos + 1])):
            result.append(StateBelief(trace.pre[i], t=pos + 1, event_index=event_index))
            result.append(StateBelief(trace.post[i], t=pos + 1, event_index=event_index + 1))
    return result


def belief_before_walk(trace: FilterTrace, slots: Sequence[SlotRecord], ts: datetime) -> np.ndarray:
    """The belief after all updates strictly earlier than ``ts`` (the
    transition into the slot holding ``ts`` counts as applied), by walking
    the events of that slot, as the records of the trace's ``slots`` list
    them, counting the events of the earlier slots to find their place in
    the trace."""
    offset = int((ts - slots[0].start).total_seconds() // 60)
    if not 0 <= offset < len(slots):
        raise ValueError(f"timestamp {ts} outside the filtered stream")
    i = sum(len(slot.events) for slot in slots[:offset])
    probs = trace.entry[offset]
    for event in slots[offset].events:
        if not event.timestamp < ts:
            break
        probs = trace.post[i]
        i += 1
    return probs


def filter_folds_one_by_one(folds) -> list[tuple[list[FilterTrace], FilterTrace]]:
    """Each fold's (training traces, detection trace) from fitting its model
    on the labels of its kept days and filtering those days and its held-out
    day on their own, one fold at a time."""
    result = []
    for fold in folds:
        arrays = fold.arrays
        training = arrays.select((arrays.day != fold.heldout_day) & ~arrays.excluded)
        transitions = fit_transitions(training, fold.model_params.t_z_max)
        operations = fit_operations(training, fold.dataset.vocabulary)
        streams = kept_day_streams(training)
        heldout = fold.heldout_day * SLOTS_PER_DAY
        streams.append(np.arange(heldout, heldout + SLOTS_PER_DAY))
        traces = filter_streams(fold.dataset.grid, streams, transitions, operations)
        result.append((traces[:-1], traces[-1]))
    return result


def filter_streams_per_event(grid, streams, transitions, operations) -> list[FilterTrace]:
    """One model's forward filter from uniform over streams of ``grid``
    positions, read as slot records: each aligned group of streams in
    lockstep as a (D, S) matrix, each event applied to its row alone with an
    all-ones check of the operation vector per event."""
    n_states = transitions.n_states
    uniform = np.full(n_states, 1.0 / n_states)

    def apply(probs, vec):
        if np.all(vec == 1.0):
            return probs
        total = (vec * probs).sum()
        return uniform.copy() if total <= 0.0 else vec * probs / total

    streams = [slot_records(grid, stream) for stream in streams]
    groups: dict[object, list[int]] = {}
    for index, stream in enumerate(streams):
        aligned = stream and stream[-1].t - stream[0].t == len(stream) - 1
        groups.setdefault((len(stream), stream[0].k) if aligned else index, []).append(index)
    traces: list = [None] * len(streams)
    for members in groups.values():
        group = [streams[index] for index in members]
        entry = np.empty((len(group), len(group[0]), n_states))
        pre: list[list[np.ndarray]] = [[] for _ in group]
        post: list[list[np.ndarray]] = [[] for _ in group]
        belief = np.tile(uniform, (len(group), 1))
        for pos, slot in enumerate(group[0]):
            if pos:
                belief = np.dot(belief, transitions.probs[slot.k - 1])
                totals = belief.sum(axis=1, keepdims=True)
                dead = totals[:, 0] <= 0.0
                belief[~dead] /= totals[~dead]
                belief[dead] = uniform
            entry[:, pos] = belief
            for row, stream in enumerate(group):
                probs = belief[row].copy()
                for event in stream[pos].events:
                    pre[row].append(probs)
                    probs = apply(probs, operations.vector(event.pair))
                    post[row].append(probs)
                belief[row] = probs
        for index, row in zip(members, range(len(group))):
            slots = group[row]
            counts = [len(slot.events) for slot in slots]
            # Slot t's events are the grid's events first[t - 1]:first[t].
            traces[index] = FilterTrace(
                entry=entry[row],
                event_index=np.array(
                    [i for slot in slots for i in range(grid.first[slot.t - 1], grid.first[slot.t])],
                    dtype=np.intp,
                ),
                pre=np.array(pre[row]).reshape(-1, n_states),
                post=np.array(post[row]).reshape(-1, n_states),
                first=np.cumsum([0, *counts]),
            )
    return traces


def sparse_transitions_loop(transitions: TransitionTensor) -> dict[str, dict[str, list[float]]]:
    """The model file's ``a`` section built row by row: per slot-of-day
    (from 1), the transition rows that hold a nonzero probability, keyed by
    state."""
    sparse_a: dict[str, dict[str, list[float]]] = {}
    for k0 in range(transitions.probs.shape[0]):
        rows: dict[str, list[float]] = {}
        for i in range(transitions.n_states):
            row = transitions.probs[k0, i]
            if row.any():
                rows[str(i)] = [float(x) for x in row]
        if rows:
            sparse_a[str(k0 + 1)] = rows
    return sparse_a
