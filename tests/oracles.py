"""Slow reference versions of optimized paths, kept as test oracles.

Each function is the straightforward implementation that a faster one in
``src`` replaced; the differential tests assert that both give the same
result.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from datetime import datetime, time, timedelta
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from homeguard.detector import LevelScores
from homeguard.errors import InitializationError, ParseError
from homeguard.hsmodel import FilterTrace, filter_streams, kept_day_streams
from homeguard.ingest import (
    SLOT_SECONDS,
    SLOTS_PER_DAY,
    TIMESTAMP_FORMAT,
    EventRecord,
    SensorFrame,
    TimeslotRecord,
    floor_to_day_origin,
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
    label_device_usage,
    label_user_activity,
)
from homeguard.seqstore import (
    SECONDS_PER_DAY,
    EventSequence,
    Items,
    Pair,
    SeqParams,
    SequenceStore,
    TimedSequenceStore,
    _enumerate_distinct,
    seconds_of_day,
    window_start,
)
from homeguard.vocab import Vocabulary


def parse_timestamp_strptime(text: str, line: int | None = None) -> datetime:
    """``TIMESTAMP_FORMAT`` through ``strptime`` alone."""
    try:
        return datetime.strptime(text, TIMESTAMP_FORMAT)
    except ValueError as exc:
        raise ParseError(f"bad timestamp {text!r}: {exc}", line=line) from None


def build_timeslots_bisect(
    events: Sequence[EventRecord],
    frames: Sequence[SensorFrame],
    day_origin: time = time(0, 0),
    default_frame: SensorFrame | None = None,
) -> list[TimeslotRecord]:
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
    slots: list[TimeslotRecord] = []
    for idx in range(n_slots):
        slot_start = start + timedelta(seconds=idx * SLOT_SECONDS)
        slot_end = slot_start + timedelta(seconds=SLOT_SECONDS)
        frame_idx = bisect_right(frame_times, slot_start) - 1
        if frame_idx < 0:
            if default_frame is None:
                raise InitializationError(
                    f"no sensor frame at or before first slot {slot_start}"
                    " and no default frame supplied"
                )
            sensors = replace(default_frame, timestamp=slot_start)
        else:
            sensors = frames[frame_idx]
        lo = bisect_left(event_times, slot_start)
        hi = bisect_left(event_times, slot_end)
        slots.append(
            TimeslotRecord(
                t=idx + 1,
                k=idx % SLOTS_PER_DAY + 1,
                start=slot_start,
                sensors=sensors,
                events=tuple(events[lo:hi]),
            )
        )
    return slots


def calendar_day_bounds_scan(slots: Sequence[TimeslotRecord]) -> tuple[list[int], list[int]]:
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
class LabeledSlot:
    """A timeslot with its state assignments.

    ``state`` is the state in force at the end of the slot (used for the
    transition chain), ``entry_state`` the one at the slot start, and
    ``event_states`` carries, per event, the state in force at that event's
    instant (the event's own effect included).
    """

    slot: TimeslotRecord
    state: HomeState
    entry_state: HomeState
    event_states: tuple[HomeState, ...]
    excluded_day: bool


def label_states_per_slot(
    slots: Sequence[TimeslotRecord],
    events: Sequence[EventRecord],
    params: LabelingParams,
    vocabulary: Vocabulary | None = None,
) -> list[LabeledSlot]:
    """Joint labeling that builds every state with ``_combine`` as it goes."""
    vocabulary = vocabulary or Vocabulary()
    ua = label_user_activity(slots, events, params, vocabulary)
    du = label_device_usage(slots, params, vocabulary)
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


def decode_labels(slots: Sequence[TimeslotRecord], labels: LabelArrays) -> list[LabeledSlot]:
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
    distinct = _enumerate_distinct(pairs, l_max)
    return [
        EventSequence(items, events[final].timestamp)
        for items, final in sorted(distinct.items(), key=lambda kv: (len(kv[0]), kv[0]))
    ]


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


def best_per_level_loop(candidates: Sequence[Items], score: Callable[[Items], float]):
    """``LevelScores`` by scoring one candidate at a time: the length-1
    candidate, which comes first, and the first maximum of the longer ones."""
    multi, multi_items = 0.0, None
    for items in candidates[1:]:
        value = score(items)
        if multi_items is None or value > multi:
            multi, multi_items = value, items
    return LevelScores(score(candidates[0]), multi, candidates[0], multi_items)


def count_near(store: TimedSequenceStore, items: Items, tod: float, alpha_seq: float) -> int:
    """Stored occurrences of ``items`` within cyclic ``alpha_seq`` seconds,
    by two binary searches in the sequence's own time list."""
    stored = store.times.get(items)
    if not stored:
        return 0
    if 2 * alpha_seq >= SECONDS_PER_DAY:
        return len(stored)
    lo = (tod - alpha_seq) % SECONDS_PER_DAY
    hi = (tod + alpha_seq) % SECONDS_PER_DAY
    if lo <= hi:
        return bisect_right(stored, hi) - bisect_left(stored, lo)
    return (len(stored) - bisect_left(stored, lo)) + bisect_right(stored, hi)


def ratio(store: TimedSequenceStore, items: Items, tod: float, alpha_seq: float) -> float:
    """One candidate's match ratio: ``count_near`` over the stored targets."""
    if store.target_total == 0:
        return 0.0
    return count_near(store, items, tod, alpha_seq) / store.target_total


def select_states(belief: np.ndarray, params: SeqParams) -> list[int]:
    """State indices satisfying the active storing criterion; may be empty."""
    belief = np.asarray(belief)
    if params.criterion == "rank":
        ranks = 1 + (belief[None, :] > belief[:, None]).sum(axis=1)
        mask = ranks <= params.l_rank
    elif params.alpha_select_below:
        mask = belief <= params.l_alpha
    else:
        mask = belief >= params.l_alpha
    return [int(i) for i in np.flatnonzero(mask)]


def store_sequences_per_window(traces, target_device: str, params: SeqParams, n_states: int):
    """The sequence store built window by window: each training trace's
    windows enumerated anew, and the states of each stored sequence selected
    with one ``select_states`` call on its final belief."""
    store = SequenceStore(n_states=n_states, criterion=params.criterion)
    for trace in traces:
        for row in trace.entry:
            store.slot_counts[select_states(row, params)] += 1
        events = trace.events
        times = [event.timestamp for event in events]
        for idx, event in enumerate(events):
            if event.device != target_device:
                continue
            lo = max(window_start(times, event.timestamp, params.t_seq), idx + 1 - params.w_max)
            pairs = [e.pair for e in events[lo : idx + 1]]
            for items, final in _enumerate_distinct(pairs, params.l_max).items():
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
    store = TimedSequenceStore()
    for idx, event in enumerate(events):
        if event.device != target_device:
            continue
        store.target_total += 1
        window = events[window_start(times, event.timestamp, params.t_seq) : idx + 1]
        if len(window) > params.w_max:
            window = window[-params.w_max :]
        pairs = [e.pair for e in window]
        for items, final in _enumerate_distinct(pairs, params.l_max).items():
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
    just before and just after each of the slot's events."""
    if not len(trace.slots):
        return [StateBelief(trace.initial, t=0, event_index=0)]
    result: list[StateBelief] = []
    for pos, slot in enumerate(trace.slots):
        result.append(StateBelief(trace.entry[pos], t=slot.t, event_index=0))
        for event_index, i in enumerate(range(trace.first[pos], trace.first[pos + 1])):
            result.append(StateBelief(trace.pre[i], t=slot.t, event_index=event_index))
            result.append(StateBelief(trace.post[i], t=slot.t, event_index=event_index + 1))
    return result


def belief_before_walk(trace: FilterTrace, ts: datetime) -> np.ndarray:
    """``FilterTrace.belief_before`` by walking the events of the slot that
    holds ``ts``, as its slot record lists them, counting the events of the
    earlier slots to find their place in the trace."""
    if not len(trace.slots):
        return trace.initial
    offset = int((ts - trace.slots[0].start).total_seconds() // 60)
    if not 0 <= offset < len(trace.slots):
        raise ValueError(f"timestamp {ts} outside the filtered stream")
    i = sum(len(slot.events) for slot in trace.slots[:offset])
    probs = trace.entry[offset]
    for event in trace.slots[offset].events:
        if not event.timestamp < ts:
            break
        probs = trace.post[i]
        i += 1
    return probs


def filter_folds_one_by_one(folds) -> list[tuple[list[FilterTrace], list[int | None], FilterTrace]]:
    """Each fold's (training traces, training days, detection trace) from
    filtering its kept days and its held-out day on their own, one fold at a
    time."""
    result = []
    for fold in folds:
        transitions, operations = fold.state_model()
        days, streams = kept_day_streams(fold.dataset.slots, fold.training_arrays())
        streams.append(fold.dataset.day_slots(fold.heldout_day))
        traces = filter_streams(streams, transitions, operations)
        result.append((traces[:-1], days, traces[-1]))
    return result


def filter_streams_per_event(streams, transitions, operations) -> list[FilterTrace]:
    """One model's forward filter from uniform, each aligned group of streams
    in lockstep as a (D, S) matrix, each event applied to its row alone with
    an all-ones check of the operation vector per event."""
    n_states = transitions.n_states
    uniform = np.full(n_states, 1.0 / n_states)

    def apply(probs, vec):
        if np.all(vec == 1.0):
            return probs
        total = (vec * probs).sum()
        return uniform.copy() if total <= 0.0 else vec * probs / total

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
            traces[index] = FilterTrace(
                slots=slots,
                initial=uniform,
                entry=entry[row],
                events=[event for slot in slots for event in slot.events],
                pre=np.array(pre[row]).reshape(-1, n_states),
                post=np.array(post[row]).reshape(-1, n_states),
                first=np.cumsum([0, *counts]),
            )
    return traces
