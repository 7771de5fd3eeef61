"""Home-state labeling of timeslot streams.

Each slot receives a joint state pairing user activity (active / out / sleep)
with cooking-device usage (use / before / after / none).  The user-activity
channel is driven by presence bookkeeping and night-time sensor criteria with
three repair rules for logging omissions; the device-usage channel is driven
by cooking-appliance operations with configurable lead/lag/duration windows.

Labels are slot-granular except at operation instants: the slot that starts a
cooking run is split at the first cooking operation, so events carry the state
in force at their own instant (an operation flips the state at its timestamp).

``label_states`` returns the labels as ``LabelArrays``: integer codes into
``ALPHABET`` per slot and per event, which the model fits count over and the
label exports format.  This module alone knows how labels are encoded.
"""

from __future__ import annotations

import csv
import logging
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from datetime import date, datetime, time, timedelta
from enum import Enum
from itertools import groupby
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import BookkeepingError, ValidationError
from .ingest import SLOTS_PER_DAY, EventRecord, TimeslotRecord, format_timestamp
from .vocab import Vocabulary

logger = logging.getLogger(__name__)


class UserActivity(str, Enum):
    ACTIVE = "active"
    OUT = "out"
    SLEEP = "sleep"


class DeviceUsage(str, Enum):
    USE = "use"
    BEFORE = "before"
    AFTER = "after"
    NONE = "none"


# Users cannot cook while out of the home or asleep.
FORBIDDEN_PAIRS = frozenset(
    {(UserActivity.OUT, DeviceUsage.USE), (UserActivity.SLEEP, DeviceUsage.USE)}
)


@dataclass(frozen=True)
class HomeState:
    u: UserActivity
    d: DeviceUsage

    def __post_init__(self) -> None:
        if (self.u, self.d) in FORBIDDEN_PAIRS:
            raise ValueError(f"state ({self.u.value}, {self.d.value}) is unconstructible")

    @property
    def key(self) -> str:
        return f"{self.u.value}:{self.d.value}"

    def __str__(self) -> str:  # pragma: no cover - debugging nicety
        return self.key


def parse_state_key(key: str) -> HomeState:
    u_text, _, d_text = key.partition(":")
    return HomeState(UserActivity(u_text), DeviceUsage(d_text))


# Canonical 10-state alphabet for the cooking scenario.
ALPHABET: tuple[HomeState, ...] = tuple(
    HomeState(u, d)
    for u in UserActivity
    for d in DeviceUsage
    if (u, d) not in FORBIDDEN_PAIRS
)
STATE_INDEX: dict[HomeState, int] = {state: i for i, state in enumerate(ALPHABET)}


@dataclass
class LabelingParams:
    """Tunable labeling rules.

    ``t_x``/``t_y`` are the lead/lag window lengths in slots around a cooking
    run, ``t_c`` extends each cooking operation forward by that many slots.
    The night window may wrap midnight; ``night_split`` separates the
    late-night correction (activity forced for ``presleep_hours`` before an
    operation) from the morning one (forced for ``postsleep_hours`` after).
    """

    t_x: int = 15
    t_y: int = 15
    t_c: int = 20
    night_window: tuple[time, time] = (time(22, 0), time(9, 59))
    night_split: time = time(5, 0)
    noise_threshold: float = 35.0
    co2_threshold: float = 1500.0
    sleep_gap_merge: int = 90
    use_gap_merge: int = 15
    presleep_hours: int = 5
    postsleep_hours: int = 4
    initial_occupants: int = 1

    def __post_init__(self) -> None:
        for name in ("t_x", "t_y", "t_c", "sleep_gap_merge", "use_gap_merge",
                     "presleep_hours", "postsleep_hours", "initial_occupants"):
            if getattr(self, name) < 0:
                raise ValidationError("must be non-negative", field=name)

    def in_night(self, tod: time) -> bool:
        start, end = self.night_window
        if start <= end:
            return start <= tod <= end
        return tod >= start or tod <= end


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


DayBounds = tuple[list[int], list[int]]


def _calendar_day_bounds(slots: Sequence[TimeslotRecord]) -> DayBounds:
    """First and last position sharing each slot's calendar date.

    Labeling windows never cross these bounds, so labels stay decomposable by
    day and cannot leak across cross-validation folds.
    """
    day_lo: list[int] = []
    day_hi: list[int] = []
    for _, block in groupby(slot.start.date() for slot in slots):
        lo = len(day_lo)
        size = sum(1 for _ in block)
        day_lo += [lo] * size
        day_hi += [lo + size - 1] * size
    return day_lo, day_hi


def label_user_activity(
    slots: Sequence[TimeslotRecord],
    events: Sequence[EventRecord],
    params: LabelingParams,
    vocabulary: Vocabulary | None = None,
    day_bounds: DayBounds | None = None,
) -> UserActivityLabels:
    """Assign one user activity per slot.

    out: nobody home per entry/exit bookkeeping.  sleep: night slot whose
    sensor frame shows noise below and CO2 above their thresholds, with
    short interruptions merged.  active: everything else.  Three repairs for
    logging omissions: an operation while the home is counted empty sets the
    count to one from that slot on and excludes the day from model fitting;
    an operation late at night clears sleep for the preceding hours; an
    operation in the morning clears sleep for the following hours.
    ``day_bounds`` are the slots' ``_calendar_day_bounds``, when known.
    """
    vocabulary = vocabulary or Vocabulary()
    if not slots:
        return UserActivityLabels([], set(), [], [])
    start = slots[0].start
    for event in events:
        if event.timestamp < start:
            raise BookkeepingError(
                f"event at {event.timestamp} precedes dataset start {start}"
            )

    n = len(slots)
    excluded_dates: set[date] = set()

    # Occupant-count timeline: presence events move the count, a device
    # operation in an empty home repairs it to one from that instant on.
    change_times: list[datetime] = [start]
    change_counts: list[int] = [params.initial_occupants]
    count = params.initial_occupants
    device_ops: list[EventRecord] = []
    for event in sorted(events, key=lambda e: e.timestamp):
        if vocabulary.is_presence(event.device):
            if event.action == "entry":
                count += 1
            elif event.action == "exit":
                if count == 0:
                    logger.warning("exit event at %s with zero occupants", event.timestamp)
                else:
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
        and params.in_night(slot.start.time())
        and slot.sensors.noise < params.noise_threshold
        and slot.sensors.co2 > params.co2_threshold
        for pos, slot in enumerate(slots)
    ]

    # Merge: two sleep slots within the gap window bridge the slots between
    # them, provided those are night slots with someone home.
    sleep_positions = [pos for pos, flag in enumerate(sleep) if flag]
    for a, b in zip(sleep_positions, sleep_positions[1:]):
        if b - a <= params.sleep_gap_merge:
            for pos in range(a + 1, b):
                if not out[pos] and params.in_night(slots[pos].start.time()):
                    sleep[pos] = True

    # Operation corrections, slot-granular and clipped to the operation's
    # calendar day.
    day_lo, day_hi = day_bounds or _calendar_day_bounds(slots)
    _, night_end = params.night_window
    for op in device_ops:
        tod = op.timestamp.time()
        if not params.in_night(tod):
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


def label_device_usage(
    slots: Sequence[TimeslotRecord],
    params: LabelingParams,
    vocabulary: Vocabulary | None = None,
    day_bounds: DayBounds | None = None,
) -> DeviceUsageLabels:
    """Assign one device-usage label per slot.

    A cooking-appliance operation marks its slot and the following ``t_c``
    slots as use; use runs within ``use_gap_merge`` minutes of each other are
    merged; each maximal run then gets ``t_x`` slots of before and ``t_y``
    slots of after, with precedence use > before > after and all windows
    clipped at day boundaries.  ``day_bounds`` are the slots'
    ``_calendar_day_bounds``, when known.
    """
    vocabulary = vocabulary or Vocabulary()
    n = len(slots)
    usages = [DeviceUsage.NONE] * n
    use = [False] * n
    day_lo, day_hi = day_bounds or _calendar_day_bounds(slots)

    # First cooking operation per slot, if any.
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

    # Maximal runs.
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


def _combine(u: UserActivity, d: DeviceUsage) -> HomeState:
    # Forbidden-pair repair: usage evidence wins, the user must be active.
    if d == DeviceUsage.USE and u in (UserActivity.OUT, UserActivity.SLEEP):
        u = UserActivity.ACTIVE
    return HomeState(u, d)


_U_CODE = {u: i for i, u in enumerate(UserActivity)}
_D_CODE = {d: i for i, d in enumerate(DeviceUsage)}
_OUT, _ACTIVE = _U_CODE[UserActivity.OUT], _U_CODE[UserActivity.ACTIVE]
# The state code of every (u, d) channel pair, indexed by the channel codes.
_STATE_CODE = np.array(
    [[STATE_INDEX[_combine(u, d)] for d in DeviceUsage] for u in UserActivity], dtype=np.int8
)
_MICROSECOND = timedelta(microseconds=1)


@dataclass(frozen=True)
class LabelArrays:
    """A labeled slot stream as integer arrays, plus the slots to count.

    Per slot, by position ``p`` in the stream: ``day`` (``(t - 1) // 1440``),
    ``k0`` (slot-of-day minus one), ``state`` (the state in force at the end
    of the slot, as an index into ``ALPHABET``), ``entry`` (the state at its
    start), ``succ`` (position of the slot numbered ``t + 1``, or -1) and
    ``excluded`` (the slot's day is excluded from training).

    Per event, in stream order (slot by slot, each slot's events in order):
    ``event_pos`` (its slot's position), ``event_pair`` (its operation, as an
    index into ``pairs``) and ``event_state`` (the state in force at its
    instant, its own effect included).

    ``keep`` selects the slots a fit counts.  A transition pair counts only
    when both of its slots are kept, so a dropped day also drops the pairs
    that cross its midnights.
    """

    day: np.ndarray
    k0: np.ndarray
    state: np.ndarray
    entry: np.ndarray
    succ: np.ndarray
    excluded: np.ndarray
    event_pos: np.ndarray
    event_pair: np.ndarray
    event_state: np.ndarray
    pairs: tuple[tuple[str, str], ...]
    keep: np.ndarray

    def select(self, keep: np.ndarray) -> "LabelArrays":
        """The same labels counting only the slots where ``keep`` is true."""
        return replace(self, keep=np.asarray(keep, dtype=bool))


def _successors(t: np.ndarray) -> np.ndarray:
    """Per slot, the position of the last slot numbered ``t + 1`` (as a dict
    keyed by ``t`` would find it), or -1."""
    order = np.argsort(t, kind="stable")
    ordered_t = t[order]
    at = np.searchsorted(ordered_t, t + 1, side="right") - 1
    found = at >= 0
    found[found] = ordered_t[at[found]] == t[found] + 1
    succ = np.full(len(t), -1, dtype=np.int32)
    succ[found] = order[at[found]]
    return succ


def label_states(
    slots: Sequence[TimeslotRecord],
    events: Sequence[EventRecord],
    params: LabelingParams,
    vocabulary: Vocabulary | None = None,
) -> LabelArrays:
    """Joint per-slot labeling with intra-slot refinement at run starts.

    The slot's end state combines its two channel labels.  At an instant of
    the slot (its start, or one of its events) the activity is out while
    nobody is counted home, else the slot's activity with out read as
    active; the usage is the pre-run label before the first cooking
    operation of a slot that starts a run, else the slot's usage.
    """
    vocabulary = vocabulary or Vocabulary()
    # Both channels clip their windows at the same calendar days.
    bounds = _calendar_day_bounds(slots)
    ua = label_user_activity(slots, events, params, vocabulary, bounds)
    du = label_device_usage(slots, params, vocabulary, bounds)
    n = len(slots)
    ordered = [event for slot in slots for event in slot.events]
    start = slots[0].start if slots else None

    def offsets(times: Iterable[datetime]) -> np.ndarray:
        return np.fromiter(((ts - start) // _MICROSECOND for ts in times), dtype=np.int64)

    change_at = offsets(ua.change_times)
    nobody_home = np.asarray(ua.change_counts) == 0

    def u_at(times: np.ndarray, home: np.ndarray) -> np.ndarray:
        # The occupant count in force at each instant, changes there included.
        empty = nobody_home[np.searchsorted(change_at, times, side="right") - 1]
        return np.where(empty, _OUT, home)

    u = np.fromiter(map(_U_CODE.__getitem__, ua.activities), dtype=np.intp, count=n)
    d = np.fromiter(map(_D_CODE.__getitem__, du.usages), dtype=np.intp, count=n)
    u_home = np.where(u == _OUT, _ACTIVE, u)
    slot_at = offsets(slot.start for slot in slots)
    event_pos = np.repeat(
        np.arange(n), np.fromiter((len(slot.events) for slot in slots), dtype=np.intp, count=n)
    )
    event_at = offsets(event.timestamp for event in ordered)

    # The first cooking operation of each slot that starts a run; elsewhere
    # the lowest int64, which no instant precedes.
    run_op = np.full(n, np.iinfo(np.int64).min, dtype=np.int64)
    run_op[list(du.run_start_ops)] = offsets(du.run_start_ops.values())
    pre_run = _D_CODE[DeviceUsage.BEFORE if params.t_x >= 1 else DeviceUsage.NONE]
    d_entry = np.where(run_op > slot_at, pre_run, d)
    d_event = np.where(event_at < run_op[event_pos], pre_run, d[event_pos])

    excluded = np.zeros(n, dtype=bool)
    if ua.excluded_dates:
        day_lo, day_hi = bounds
        for lo in set(day_lo):
            excluded[lo : day_hi[lo] + 1] = slots[lo].start.date() in ua.excluded_dates
    pair_index: dict[tuple[str, str], int] = {}
    t = np.fromiter((slot.t for slot in slots), dtype=np.int64, count=n)
    return LabelArrays(
        day=((t - 1) // SLOTS_PER_DAY).astype(np.int32),
        k0=np.fromiter((slot.k - 1 for slot in slots), dtype=np.int16, count=n),
        state=_STATE_CODE[u, d],
        entry=_STATE_CODE[u_at(slot_at, u_home), d_entry],
        succ=_successors(t),
        excluded=excluded,
        event_pos=event_pos,
        event_pair=np.fromiter(
            (pair_index.setdefault(event.pair, len(pair_index)) for event in ordered),
            dtype=np.intp, count=len(ordered),
        ),
        event_state=_STATE_CODE[u_at(event_at, u_home[event_pos]), d_event],
        pairs=tuple(pair_index),
        keep=np.ones(n, dtype=bool),
    )


_COLUMNS = [(state.u.value, state.d.value) for state in ALPHABET]


def export_labels(slots: Sequence[TimeslotRecord], labels: LabelArrays, path: str | Path) -> None:
    """Write the slot-level label stream as ``t,k,date,u,d,excluded``."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t", "k", "date", "u", "d", "excluded"])
        for slot, state, excluded in zip(slots, labels.state.tolist(), labels.excluded.tolist()):
            writer.writerow(
                [slot.t, slot.k, format_timestamp(slot.start), *_COLUMNS[state], int(excluded)]
            )


def export_event_labels(
    slots: Sequence[TimeslotRecord], labels: LabelArrays, path: str | Path
) -> None:
    """Write the per-event label view as ``t,k,timestamp,device,action,u,d``."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t", "k", "timestamp", "device", "action", "u", "d"])
        located = ((slot, event) for slot in slots for event in slot.events)
        for (slot, event), state in zip(located, labels.event_state.tolist()):
            writer.writerow(
                [
                    slot.t,
                    slot.k,
                    format_timestamp(event.timestamp),
                    event.device,
                    event.action,
                    *_COLUMNS[state],
                ]
            )
