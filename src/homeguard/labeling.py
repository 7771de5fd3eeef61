"""Home-state labeling of a slot grid.

Each slot receives a joint state pairing user activity (active / out / sleep)
with cooking-device usage (use / before / after / none).  The user-activity
channel is driven by presence bookkeeping and night-time sensor criteria with
three repair rules for logging omissions; the device-usage channel is driven
by cooking-appliance operations with configurable lead/lag/duration windows.

Labels are slot-granular except at operation instants: the slot that starts a
cooking run is split at the first cooking operation, so events carry the state
in force at their own instant (an operation flips the state at its timestamp).

Every rule runs on the grid's arrays (``ingest.SlotGrid``): the sensor
columns, the events with their instants (``event_at``) and slot offsets, and
minute arithmetic from the grid's start for the time of day and the calendar
date of each slot.  The occupant count in force at any instant is one
``np.searchsorted`` into the timeline of count changes.

``label_states`` returns the labels as ``LabelArrays``: integer codes into
``ALPHABET`` per slot and per event, which the model fits count over and the
label exports format.  This module alone knows how labels are encoded.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from datetime import time
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .ingest import SLOT_MICROS, SLOTS_PER_DAY, SlotGrid, format_timestamp, slot_columns, write_csv
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


# Canonical 10-state alphabet for the cooking scenario.
ALPHABET: tuple[HomeState, ...] = tuple(
    HomeState(u, d)
    for u in UserActivity
    for d in DeviceUsage
    if (u, d) not in FORBIDDEN_PAIRS
)
STATE_INDEX: dict[HomeState, int] = {state: i for i, state in enumerate(ALPHABET)}


def _micros_of_day(tod: time) -> int:
    return ((tod.hour * 60 + tod.minute) * 60 + tod.second) * 1_000_000 + tod.microsecond


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
        for name in ("noise_threshold", "co2_threshold"):
            if not abs(getattr(self, name)) < math.inf:  # NaN fails too
                raise ValidationError(
                    f"must be a finite number, got {getattr(self, name)!r}", field=name
                )

    def in_night(self, tod):
        """Whether ``tod``, a time of day in microseconds (an int or an
        array of them), falls in the night window."""
        start, end = map(_micros_of_day, self.night_window)
        if start <= end:
            return (start <= tod) & (tod <= end)
        return (tod >= start) | (tod <= end)


# Channel labels are integer codes: positions in the enum's order.
_ACTIVE, _OUT, _SLEEP = range(len(UserActivity))
_USE, _BEFORE, _AFTER, _NONE = range(len(DeviceUsage))


def _combine(u: UserActivity, d: DeviceUsage) -> HomeState:
    # Forbidden-pair repair: usage evidence wins, the user must be active.
    if d == DeviceUsage.USE and u in (UserActivity.OUT, UserActivity.SLEEP):
        u = UserActivity.ACTIVE
    return HomeState(u, d)


# The state code of every (u, d) channel pair, indexed by the channel codes.
_STATE_CODE = np.array(
    [[STATE_INDEX[_combine(u, d)] for d in DeviceUsage] for u in UserActivity], dtype=np.int8
)


class CalendarDays(NamedTuple):
    """Per slot of a grid: ``day``, the calendar date of its start in days
    after that of ``grid.start``; ``tod``, its start's time of day in
    microseconds; ``lo`` and ``hi``, the first and last position of its date.
    Labeling windows never cross these bounds, so labels stay decomposable by
    day and cannot leak across cross-validation folds."""

    day: np.ndarray
    tod: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


def _calendar_days(grid: SlotGrid) -> CalendarDays:
    origin = _micros_of_day(grid.start.time()) if len(grid) else 0
    since = origin + np.arange(len(grid), dtype=np.int64) * SLOT_MICROS
    day, tod = np.divmod(since, SLOTS_PER_DAY * SLOT_MICROS)
    lo, after = np.searchsorted(day, day, side="left"), np.searchsorted(day, day, side="right")
    return CalendarDays(day, tod, lo, after - 1)


def _bridge(marked: np.ndarray, gap: int, same: np.ndarray | None = None) -> np.ndarray:
    """The unmarked positions between two consecutive marked ones at most
    ``gap`` apart (and with the same value in ``same``, when given)."""
    n = len(marked)
    index = np.arange(n)
    before = np.maximum.accumulate(np.where(marked, index, -1))
    after = np.minimum.accumulate(np.where(marked, index, n)[::-1])[::-1]
    inside = ~marked & (before >= 0) & (after < n)
    lo, hi = before[inside], after[inside]
    inside[inside] = (hi - lo <= gap) & (True if same is None else same[lo] == same[hi])
    return inside


@dataclass
class UserActivityLabels:
    """``activity`` holds per slot a ``UserActivity`` code; ``excluded``
    marks the slots of calendar dates excluded from model fitting.  The
    occupant count is ``counts[i]`` from ``change_at[i]`` (microseconds
    after ``grid.start``) on."""

    activity: np.ndarray
    excluded: np.ndarray
    change_at: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)


@dataclass
class DeviceUsageLabels:
    """``usage`` holds per slot a ``DeviceUsage`` code; ``run_op`` the index
    of the first cooking operation of each slot that starts a use run, and
    -1 elsewhere."""

    usage: np.ndarray
    run_op: np.ndarray


def label_user_activity(
    grid: SlotGrid,
    params: LabelingParams,
    vocabulary: Vocabulary | None = None,
    days: CalendarDays | None = None,
) -> UserActivityLabels:
    """Assign one user activity per slot.

    out: nobody home per entry/exit bookkeeping.  sleep: night slot whose
    sensor frame shows noise below and CO2 above their thresholds, with
    short interruptions merged.  active: everything else.  Three repairs for
    logging omissions: an operation while the home is counted empty sets the
    count to one from that slot on and excludes the day from model fitting;
    an operation late at night clears sleep for the preceding hours; an
    operation in the morning clears sleep for the following hours.
    ``days`` are the grid's ``_calendar_days``, when known.
    """
    vocabulary = vocabulary or Vocabulary()
    days = days or _calendar_days(grid)
    event_at = grid.event_at

    # Occupant-count timeline: presence events move the count, a device
    # operation in an empty home repairs it to one from that instant on.
    change_at = [0]
    counts = [params.initial_occupants]
    count = params.initial_occupants
    excluded_days: set[int] = set()
    device_ops: list[int] = []
    for i, event in enumerate(grid.events):
        if vocabulary.is_presence(event.device):
            if event.action == "entry":
                count += 1
            elif event.action == "exit":
                if count == 0:
                    logger.warning("exit event at %s with zero occupants", event.timestamp)
                else:
                    count -= 1
            change_at.append(event_at[i])
            counts.append(count)
        elif vocabulary.is_device_operation(event.device, event.action):
            device_ops.append(i)
            if count == 0:
                count = 1
                change_at.append(event_at[i])
                counts.append(count)
                excluded_days.add((event.timestamp.date() - grid.start.date()).days)
    change_at = np.asarray(change_at, dtype=np.int64)
    counts = np.asarray(counts)

    # The count in force at the last second of each slot.
    slot_end = np.arange(len(grid), dtype=np.int64) * SLOT_MICROS + (SLOT_MICROS - 1_000_000)
    out = counts[np.searchsorted(change_at, slot_end, side="right") - 1] == 0

    night = params.in_night(days.tod)
    sleep = (
        ~out & night
        & (grid.column("noise") < params.noise_threshold)
        & (grid.column("co2") > params.co2_threshold)
    )
    # Merge: two sleep slots within the gap window bridge the slots between
    # them, provided those are night slots with someone home.
    sleep |= _bridge(sleep, params.sleep_gap_merge) & ~out & night

    # Operation corrections, slot-granular and clipped to the operation's
    # calendar day.
    for i in device_ops:
        tod = grid.events[i].timestamp.time()
        if not params.in_night(_micros_of_day(tod)):
            continue
        pos = int(event_at[i] // SLOT_MICROS)
        if params.night_split <= tod <= params.night_window[1]:
            sleep[pos : min(days.hi[pos], pos + params.postsleep_hours * 60) + 1] = False
        else:
            sleep[max(days.lo[pos], pos - params.presleep_hours * 60) : pos + 1] = False

    return UserActivityLabels(
        activity=np.where(out, _OUT, np.where(sleep, _SLEEP, _ACTIVE)),
        excluded=np.isin(days.day, list(excluded_days)),
        change_at=change_at,
        counts=counts,
    )


def label_device_usage(
    grid: SlotGrid,
    params: LabelingParams,
    vocabulary: Vocabulary | None = None,
    days: CalendarDays | None = None,
) -> DeviceUsageLabels:
    """Assign one device-usage label per slot.

    A cooking-appliance operation marks its slot and the following ``t_c``
    slots as use; use runs within ``use_gap_merge`` minutes of each other are
    merged; each maximal run then gets ``t_x`` slots of before and ``t_y``
    slots of after, with precedence use > before > after and all windows
    clipped at day boundaries.  ``days`` are the grid's ``_calendar_days``,
    when known.
    """
    vocabulary = vocabulary or Vocabulary()
    days = days or _calendar_days(grid)
    n = len(grid)
    cooking = np.flatnonzero(
        np.fromiter((vocabulary.is_cooking(event.device) for event in grid.events),
                    dtype=bool, count=len(grid.events))
    )
    # The first cooking operation of each slot that has one.
    event_pos = np.repeat(np.arange(n), np.diff(grid.first))
    op_slots, first = np.unique(event_pos[cooking], return_index=True)

    use = np.zeros(n, dtype=bool)
    for pos in op_slots.tolist():
        use[pos : min(pos + params.t_c, days.hi[pos]) + 1] = True
    use |= _bridge(use, params.use_gap_merge, days.day)

    # Maximal runs: [starts[i], ends[i]].
    edges = np.diff(np.concatenate([[0], use.view(np.int8), [0]]))
    starts, ends = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) - 1

    usage = np.where(use, _USE, _NONE)
    for run_start in starts.tolist():
        window = usage[max(days.lo[run_start], run_start - params.t_x) : run_start]
        window[window == _NONE] = _BEFORE
    for run_end in ends.tolist():
        window = usage[run_end + 1 : min(run_end + params.t_y, days.hi[run_end]) + 1]
        window[window == _NONE] = _AFTER

    run_op = np.full(n, -1)
    opens = np.isin(op_slots, starts)
    run_op[op_slots[opens]] = cooking[first[opens]]
    return DeviceUsageLabels(usage, run_op)


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


def label_states(
    grid: SlotGrid,
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
    days = _calendar_days(grid)
    ua = label_user_activity(grid, params, vocabulary, days)
    du = label_device_usage(grid, params, vocabulary, days)
    n = len(grid)
    nobody_home = ua.counts == 0

    def u_at(times: np.ndarray, home: np.ndarray) -> np.ndarray:
        # The occupant count in force at each instant, changes there included.
        empty = nobody_home[np.searchsorted(ua.change_at, times, side="right") - 1]
        return np.where(empty, _OUT, home)

    u, d = ua.activity, du.usage
    u_home = np.where(u == _OUT, _ACTIVE, u)
    position = np.arange(n)
    slot_at = position.astype(np.int64) * SLOT_MICROS
    event_pos = np.repeat(position, np.diff(grid.first))
    event_at = grid.event_at

    # The first cooking operation of each slot that starts a run; elsewhere
    # the lowest int64, which no instant precedes.
    run_op = np.full(n, np.iinfo(np.int64).min, dtype=np.int64)
    opens = du.run_op >= 0
    run_op[opens] = event_at[du.run_op[opens]]
    pre_run = _BEFORE if params.t_x >= 1 else _NONE
    d_entry = np.where(run_op > slot_at, pre_run, d)
    d_event = np.where(event_at < run_op[event_pos], pre_run, d[event_pos])

    succ = (position + 1).astype(np.int32)
    succ[n - 1 :] = -1  # the last slot has no successor
    pair_index: dict[tuple[str, str], int] = {}
    return LabelArrays(
        day=(position // SLOTS_PER_DAY).astype(np.int32),
        k0=(position % SLOTS_PER_DAY).astype(np.int16),
        state=_STATE_CODE[u, d],
        entry=_STATE_CODE[u_at(slot_at, u_home), d_entry],
        succ=succ,
        excluded=ua.excluded,
        event_pos=event_pos,
        event_pair=np.fromiter(
            (pair_index.setdefault(event.pair, len(pair_index)) for event in grid.events),
            dtype=np.intp, count=len(grid.events),
        ),
        event_state=_STATE_CODE[u_at(event_at, u_home[event_pos]), d_event],
        pairs=tuple(pair_index),
        keep=np.ones(n, dtype=bool),
    )


_COLUMNS = [(state.u.value, state.d.value) for state in ALPHABET]


def export_labels(grid: SlotGrid, labels: LabelArrays, path: str | Path) -> None:
    """Write the slot-level label stream as ``t,k,date,u,d,excluded``, a
    column at a time."""
    u, d = np.array(_COLUMNS, dtype=object)[labels.state].T.tolist()
    write_csv(
        path,
        ["t", "k", "date", "u", "d", "excluded"],
        zip(*slot_columns(grid.start, len(labels.state)), u, d,
            labels.excluded.astype(int).tolist()),
    )


def export_event_labels(grid: SlotGrid, labels: LabelArrays, path: str | Path) -> None:
    """Write the per-event label view as ``t,k,timestamp,device,action,u,d``,
    one row per event: the device and action are free text, so there is no
    column to format at once."""
    write_csv(
        path,
        ["t", "k", "timestamp", "device", "action", "u", "d"],
        ([p + 1, p % SLOTS_PER_DAY + 1, format_timestamp(event.timestamp), event.device,
          event.action, *_COLUMNS[state]]
         for event, p, state in zip(
             grid.events, labels.event_pos.tolist(), labels.event_state.tolist()
         )),
    )
