"""Shared fixtures: tiny slot grids and a golden labeled-log fixture."""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, time, timedelta

import pytest

import numpy as np

from homeguard.ingest import (
    SLOTS_PER_DAY,
    EventRecord,
    SensorFrames,
    SlotGrid,
    build_timeslots,
    offsets_from,
)
from homeguard.labeling import ALPHABET, HomeState, LabelingParams
from homeguard.seqstore import (
    SequenceIds,
    SequenceStore,
    SlotCounts,
    SlotReducer,
    TimedSequenceStore,
    TrainingBeliefs,
    build_timed_store,
    store_sequences,
)
from homeguard.vocab import SENSOR_FIELDS, Vocabulary
from oracles import SensorFrame, columns, slot_counts_ranked

BASE = datetime(2021, 3, 1, 0, 0, 0)


def parse_state_key(key: str) -> HomeState:
    """The state of the alphabet whose key is ``key``, as in "sleep:none"."""
    return next(state for state in ALPHABET if state.key == key)

CALM = dict(temperature=21.0, humidity=50.0, atmosphere=1010.0, co2=600.0, noise=45.0)
SLEEPY = dict(temperature=21.0, humidity=50.0, atmosphere=1010.0, co2=1800.0, noise=32.0)


def frame(ts: datetime, **overrides) -> SensorFrame:
    values = dict(CALM)
    values.update(overrides)
    return SensorFrame(timestamp=ts, **values)


def make_grid(
    n: int,
    start: datetime = BASE,
    events: dict[int, list[EventRecord]] | None = None,
    sensors: dict[int, SensorFrame] | None = None,
) -> SlotGrid:
    """Hand-built grid of ``n`` slots from ``start``.  ``events`` and
    ``sensors`` map a position to its events and to its frame; every other
    slot carries the calm frame."""
    events = events or {}
    sensors = sensors or {}
    counts = [len(events.get(pos, ())) for pos in range(n)]
    frame_of = np.zeros(n, dtype=np.intp)
    frame_of[sorted(sensors)] = np.arange(1, len(sensors) + 1)
    rows = [frame(start), *(sensors[pos] for pos in sorted(sensors))]
    values = [[row.value(name) for name in SENSOR_FIELDS] for row in rows]
    ordered = [event for pos in sorted(events) for event in events[pos]]
    return SlotGrid(
        start=start,
        events=ordered,
        event_at=offsets_from(start, (event.timestamp for event in ordered)),
        first=np.cumsum([0, *counts], dtype=np.intp),
        frames=SensorFrames(np.array([row.timestamp for row in rows], dtype="datetime64[us]"),
                            np.array(values)),
        frame=frame_of,
    )


def make_slots(
    n: int,
    start: datetime = BASE,
    events: dict[int, list[EventRecord]] | None = None,
    sensors: dict[int, SensorFrame] | None = None,
    t0: int = 1,
    k0: int = 1,
) -> tuple[SlotGrid, np.ndarray]:
    """A contiguous stream of ``n`` slots, the first starting at ``start``
    with slot-of-day ``k0`` on the grid day of slot ``t0``, as a grid and
    the stream's positions in it.  ``events`` and ``sensors`` are keyed by
    the slot's place in the stream; the grid's slots before the stream are
    empty."""
    p0 = (t0 - 1) // SLOTS_PER_DAY * SLOTS_PER_DAY + (k0 - 1) % SLOTS_PER_DAY
    grid = make_grid(
        p0 + n,
        start - timedelta(minutes=p0),
        {p0 + pos: bucket for pos, bucket in (events or {}).items()},
        {p0 + pos: sensor for pos, sensor in (sensors or {}).items()},
    )
    return grid, np.arange(p0, p0 + n)


def ev(minute_offset: float, device: str, action: str, start: datetime = BASE) -> EventRecord:
    return EventRecord(start + timedelta(minutes=minute_offset), device, action)


def _ids_of(sequences, keys: SequenceIds | None) -> tuple[SequenceIds, np.ndarray, np.ndarray]:
    """The table (a new one for the cooking stove by default), the ascending
    ids of ``sequences`` in it, and the order that sorts them."""
    keys = SequenceIds("cooking_stove") if keys is None else keys
    ids = keys.intern(list(sequences))
    assert (ids >= 0).all(), "a stored sequence needs an item on the target device"
    order = np.argsort(ids)
    return keys, ids[order], order


def id_store(slot_counts, counts: dict, keys: SequenceIds | None = None) -> SequenceStore:
    """The id-keyed store of ``{items: counts}`` over ``slot_counts``."""
    keys, ids, order = _ids_of(counts, keys)
    rows = np.array(list(counts.values()), dtype=np.int64).reshape(len(counts), len(slot_counts))
    return SequenceStore(np.asarray(slot_counts, dtype=np.int64), ids, keys, rows[order])


def id_timed_store(
    times: dict | None = None, target_total: int = 0, keys: SequenceIds | None = None
) -> TimedSequenceStore:
    """The id-keyed timed store of ``{items: ascending seconds of day}``."""
    times = times or {}
    keys, ids, order = _ids_of(times, keys)
    stored = [np.asarray(values, dtype=np.float64) for values in times.values()]
    return TimedSequenceStore(ids, keys, [stored[k] for k in order.tolist()], target_total)


def make_folds(dataset, labeling_params, model_params, seq_params, filled=True, alphas=()):
    """One evaluation fold per day, sharing the windows of one enumeration;
    ``filled`` by one group pass over them all with their models, traces and
    slot counts (at every rank, and at each of ``alphas``)."""
    from homeguard.evaluation import FoldContext, _dataset_windows, _make_folds

    windows = _dataset_windows(dataset, seq_params)
    folds = _make_folds(dataset, labeling_params, model_params, seq_params, windows)
    if filled:
        FoldContext.filter_group(folds, alphas)
    return folds


def training_beliefs(traces, windows, alphas=()) -> TrainingBeliefs:
    """The training beliefs of traces that keep their slot entries, those
    counted by the reducer that the filter pass counts with."""
    counts = SlotCounts(traces[0].entry.shape[1], alphas)
    reduce = SlotReducer([counts])
    for trace in traces:
        reduce(np.ascontiguousarray(trace.entry.T)[:, :, None])
    return TrainingBeliefs(traces, windows, counts)


def assert_counts_equal(counts: SlotCounts, entries) -> None:
    """``counts`` hold what ranking and comparing ``entries`` (the slot
    entries of whole traces) row by row gives."""
    at_rank, at_least = slot_counts_ranked(entries, len(counts.at_rank), counts.alphas)
    assert np.array_equal(counts.at_rank, at_rank)
    assert np.array_equal(counts.at_least, at_least)


def fold_store(fold, seq_params=None) -> SequenceStore:
    """A filled fold's sequence store under ``seq_params``, its own by
    default, as the scoring of the fold builds it."""
    beliefs = TrainingBeliefs(fold.training_traces, fold.windows, fold.slot_counts)
    target = fold.dataset.vocabulary.detection_target
    return store_sequences(beliefs, target, seq_params or fold.seq_params)


def fold_timed_store(fold) -> TimedSequenceStore:
    """The timed store of every day but the fold's held-out one."""
    target = fold.dataset.vocabulary.detection_target
    return build_timed_store(fold.windows, target, fold.seq_params, without_day=fold.heldout_day)


@pytest.fixture
def vocab() -> Vocabulary:
    return Vocabulary()


@dataclass
class GoldenSample:
    """A seven-row labeled-log fragment, rebuilt as raw logs.

    The sample's slot-of-day numbering puts slot 1 at 23:59, its user rule is
    sleep when CO2 > 35 and noise < 1500, and the device windows are one slot
    on each side with no cooking-duration extension.
    """

    events: list[EventRecord]
    frames: list[SensorFrame]
    vocabulary: Vocabulary
    params: LabelingParams
    day_origin: time
    # (t, k, entry u, entry d) for boundary rows, event rows carried separately
    expected_rows: list

    def grid(self):
        return build_timeslots(self.events, columns(self.frames), day_origin=self.day_origin)


@pytest.fixture
def golden_sample() -> GoldenSample:
    vocabulary = Vocabulary()
    vocabulary.sensor_ranges = dict(vocabulary.sensor_ranges)
    vocabulary.sensor_ranges["noise"] = (0.0, 10000.0)

    quiet = dict(temperature=20.0, humidity=50.0, atmosphere=1000.0)
    frames = [
        SensorFrame(datetime(2019, 12, 31, 23, 59, 0), co2=34.0, noise=1520.0, **quiet),
        SensorFrame(datetime(2020, 1, 4, 0, 0, 0), co2=41.0, noise=1480.0, **quiet),
    ]
    events = [
        EventRecord(datetime(2020, 1, 3, 23, 58, 20), "refrigerator", "opening"),
        EventRecord(datetime(2020, 1, 3, 23, 58, 35), "cooking_stove", "on"),
    ]
    params = LabelingParams(
        t_x=1,
        t_y=1,
        t_c=0,
        noise_threshold=1500.0,
        co2_threshold=35.0,
    )
    # Golden rows: t, k, and the (u, d) label in force at the row's instant.
    expected_rows = [
        (4318, 1438, "active", "none"),    # 23:56 slot
        (4319, 1439, "active", "before"),  # 23:57 slot
        (4320, 1440, "active", "before"),  # 23:58 slot at its start
        (4320, 1440, "active", "before"),  # refrigerator opening, 23:58:20
        (4320, 1440, "active", "use"),     # stove on, 23:58:35
        (4321, 1, "active", "after"),      # 23:59 slot
        (4322, 2, "sleep", "none"),        # 00:00 slot next day
    ]
    return GoldenSample(
        events=events,
        frames=frames,
        vocabulary=vocabulary,
        params=params,
        day_origin=time(23, 59),
        expected_rows=expected_rows,
    )
