"""Subsequence generation, state selection, and the sequence stores."""

import json
from dataclasses import replace
from datetime import datetime, time, timedelta
from itertools import combinations

import numpy as np
import pytest

from homeguard import seqstore
from homeguard.detector import _rows, sequence_scores
from homeguard.errors import ValidationError
from homeguard.evaluation import EvalDataset
from homeguard.hsmodel import (
    FilterTrace,
    ModelParams,
    TrainedModel,
    filter_streams,
    kept_day_streams,
    train_model,
)
from homeguard.ingest import (
    MAX_SPAN_DAYS,
    SLOT_SECONDS,
    SLOTS_PER_DAY,
    EventRecord,
    build_timeslots,
    offsets_from,
)
from homeguard.labeling import ALPHABET, LabelingParams, label_states
from homeguard.seqstore import (
    DayWindows,
    SeqParams,
    SequenceIds,
    SequenceStore,
    TimedSequenceStore,
    build_timed_store,
    candidates_ending_at,
    store_sequences,
    window_starts,
)
from homeguard.synthgen import generate, scenario_calibration, scenario_s1
from homeguard.vocab import Vocabulary

from conftest import (
    BASE,
    ev,
    fold_store,
    fold_timed_store,
    frame,
    id_store,
    id_timed_store,
    make_folds,
    make_grid,
    training_beliefs,
)
from oracles import (
    as_dicts,
    build_timed_store_per_window,
    candidates_ending_at_combinations,
    columns,
    count_near,
    filter_folds_one_by_one,
    flat_candidates,
    frame_rows,
    generate_subsequences,
    ratio,
    select_states,
    store_sequences_per_window,
)


REGISTERED = set(Vocabulary().all_pairs())


def row_of(store, items):
    """The row of ``items`` in the store, found through the store's table."""
    return _rows(store, flat_candidates([[items]], store.keys))


def vector_of(store, items):
    """The row of ``items`` in the store's matrix of stored vectors."""
    return store.vectors()[row_of(store, items)[0]]


def counts_of(store):
    """The store's counts keyed by the sequences themselves."""
    return as_dicts(store).counts


def near(store, items, tod, alpha_seq):
    """``count_near``, checked against the store's own batch count."""
    count = count_near(store, items, tod, alpha_seq)
    rows = row_of(store, items)
    assert store.counts_near(rows, np.zeros(1, dtype=np.intp), [tod], alpha_seq).tolist() == [
        count
    ]
    return count


def is_subsequence(sub, seq):
    iterator = iter(seq)
    return all(any(item == other for other in iterator) for item in sub)


class TestGenerateSubsequences:
    def test_three_events_give_seven_sequences(self):
        window = [ev(0.0, "tv", "on"), ev(1.0, "room_light", "on"), ev(2.0, "heater", "on")]
        result = generate_subsequences(window)
        keys = {seq.items for seq in result}
        a, b, c = ("tv", "on"), ("room_light", "on"), ("heater", "on")
        assert keys == {(a,), (b,), (c,), (a, b), (b, c), (a, c), (a, b, c)}

    def test_single_event(self):
        result = generate_subsequences([ev(0.0, "tv", "on")])
        assert [seq.items for seq in result] == [(("tv", "on"),)]

    def test_power_set_oracle(self):
        devices = ["tv", "room_light", "heater", "electric_fan", "washing_machine"]
        for n in range(1, 6):
            window = [ev(float(i), devices[i], "on") for i in range(n)]
            result = generate_subsequences(window)
            assert len(result) == 2**n - 1
            expected = set()
            for length in range(1, n + 1):
                for combo in combinations(range(n), length):
                    expected.add(tuple(window[p].pair for p in combo))
            assert {seq.items for seq in result} == expected

    def test_order_preservation(self):
        window = [ev(float(i), d, "on") for i, d in enumerate(["tv", "heater", "tv", "room_light"])]
        window_pairs = [e.pair for e in window]
        for seq in generate_subsequences(window):
            assert is_subsequence(seq.items, window_pairs)

    def test_length_cap(self):
        window = [ev(float(i), "tv", "on") for i in range(6)]
        result = generate_subsequences(window, l_max=2)
        assert max(seq.length for seq in result) == 2

    def test_window_cap_keeps_most_recent(self):
        window = [ev(float(i), d, "on") for i, d in enumerate(["tv", "heater", "room_light"])]
        result = generate_subsequences(window, w_max=2)
        keys = {seq.items for seq in result}
        assert (("tv", "on"),) not in keys
        assert (("heater", "on"), ("room_light", "on")) in keys

    def test_end_time_is_final_item_instant(self):
        window = [ev(0.0, "tv", "on"), ev(2.0, "heater", "on")]
        by_key = {seq.items: seq for seq in generate_subsequences(window)}
        assert by_key[(("tv", "on"), ("heater", "on"))].end_time == window[1].timestamp
        assert by_key[(("tv", "on"),)].end_time == window[0].timestamp

    def test_candidates_ending_at(self):
        pairs = [("tv", "on"), ("heater", "on"), ("cooking_stove", "on")]
        result = candidates_ending_at(pairs, l_max=5)
        assert all(items[-1] == ("cooking_stove", "on") for items in result)
        assert len(result) == 4  # subsets of the two preceding events, op appended


class TestCandidatesAgainstCombinations:
    """Candidates built from the next-occurrence table are the combinations
    oracle's list, element for element and in its order."""

    PAIRS = [("tv", "on"), ("heater", "on"), ("cooking_stove", "on"), ("tv", "off")]

    @pytest.mark.parametrize("l_max", range(1, 7))
    def test_random_windows_with_repeats(self, l_max):
        rng = np.random.default_rng(l_max)
        for length in range(17):
            for _ in range(6):
                # Two or four symbols: windows repeat their pairs often.
                symbols = self.PAIRS[: rng.choice([2, 4])]
                pairs = [symbols[i] for i in rng.integers(0, len(symbols), size=length)]
                assert candidates_ending_at(pairs, l_max) == candidates_ending_at_combinations(
                    pairs, l_max
                )

    def test_one_symbol_and_all_distinct(self):
        for pairs in ([("tv", "on")] * 16, [("tv", str(i)) for i in range(16)]):
            for l_max in (1, 3, 6):
                assert candidates_ending_at(pairs, l_max) == candidates_ending_at_combinations(
                    pairs, l_max
                )


class TestSelectStates:
    def test_rank_cutoff_one_is_argmax(self):
        belief = np.array([0.1, 0.7, 0.2])
        assert select_states(belief, SeqParams(criterion="rank", l_rank=1)) == [1]

    def test_rank_ties_share_rank(self):
        belief = np.array([0.4, 0.4, 0.2])
        assert select_states(belief, SeqParams(criterion="rank", l_rank=1)) == [0, 1]

    def test_rank_cutoff_two_sort_and_cut(self):
        belief = np.array([0.6, 0.3, 0.1])
        assert select_states(belief, SeqParams(criterion="rank", l_rank=2)) == [0, 1]

    def test_alpha_high_probability_direction(self):
        belief = np.array([0.5, 0.3, 0.2])
        params = SeqParams(criterion="alpha", l_alpha=0.3)
        assert select_states(belief, params) == [0, 1]

    def test_alpha_threshold_one_selects_only_certainty(self):
        params = SeqParams(criterion="alpha", l_alpha=1.0)
        assert select_states(np.array([1.0, 0.0]), params) == [0]
        assert select_states(np.array([0.7, 0.3]), params) == []

    def test_empty_selection_allowed(self):
        belief = np.array([0.4, 0.3, 0.3])
        assert select_states(belief, SeqParams(criterion="alpha", l_alpha=0.9)) == []


def store_of(grid, traces, target_device, params):
    """The store of traces over ``grid``, each with the windows of its own
    events."""
    traces = [traces] if isinstance(traces, FilterTrace) else list(traces)
    windows = DayWindows(grid, target_device, params)
    beliefs = training_beliefs(traces, windows, [params.l_alpha])
    return store_sequences(beliefs, target_device, params)


def timed_store_of(events, target_device, params):
    """The timed store of a stream of events in time order, on a grid of
    whole days from ``BASE``."""
    slots: dict[int, list[EventRecord]] = {}
    for event in events:
        slots.setdefault((event.timestamp - BASE) // timedelta(seconds=SLOT_SECONDS),
                         []).append(event)
    n_days = max(slots, default=0) // SLOTS_PER_DAY + 1
    grid = make_grid(n_days * SLOTS_PER_DAY, events=slots)
    return build_timed_store(DayWindows(grid, target_device, params), target_device, params)


def fabricate_trace(entry_rows, event_specs, n_slots=None):
    """A grid from ``BASE`` holding the events of ``event_specs``, and a
    FilterTrace over all of it with prescribed entry beliefs and event
    beliefs.

    ``event_specs``: list of (slot_pos, event, pre_belief) tuples; each
    event leaves the belief as it was.
    """
    entry = np.asarray(entry_rows, dtype=np.float64)
    n_slots = n_slots or len(entry_rows)
    specs = sorted(event_specs, key=lambda spec: spec[1].timestamp)
    pre = np.array([belief for _, _, belief in specs], dtype=np.float64).reshape(
        len(specs), entry.shape[1]
    )
    events: dict[int, list[EventRecord]] = {}
    for slot_pos, event, _ in specs:
        events.setdefault(slot_pos, []).append(event)
    grid = make_grid(n_slots, events=events)
    trace = FilterTrace(
        entry=entry,
        event_index=np.arange(len(specs)),
        pre=pre,
        post=pre.copy(),
        first=grid.first,
    )
    return grid, trace


class TestSequenceStore:
    def test_no_target_operations_empty_store(self):
        grid, trace = fabricate_trace(
            [[0.5, 0.5]] * 4,
            [(1, ev(1.5, "tv", "on"), [0.5, 0.5])],
        )
        store = store_of(grid, trace, "cooking_stove", SeqParams(l_rank=1))
        assert counts_of(store) == {}
        assert vector_of(store, (("cooking_stove", "on"),))[0] == 0.0

    def test_hand_trace_probability_one_quarter(self):
        # State 0 selected at 4 of 10 slot entries; one target operation with
        # state 0 on top at its instant.
        entry = [[0.8, 0.1, 0.1]] * 4 + [[0.1, 0.8, 0.1]] * 6
        grid, trace = fabricate_trace(
            entry,
            [(0, ev(0.5, "cooking_stove", "on"), [0.9, 0.05, 0.05])],
        )
        store = store_of(grid, trace, "cooking_stove", SeqParams(criterion="rank", l_rank=1))
        assert (store.slot_counts == np.array([4, 6, 0])).all()
        key = (("cooking_stove", "on"),)
        assert counts_of(store)[key][0] == 1
        assert vector_of(store, key)[0] == pytest.approx(0.25)

    def test_same_sequence_twice_counts_twice(self):
        grid, trace = fabricate_trace(
            [[0.9, 0.1]] * 30,
            [
                (2, ev(2.5, "cooking_stove", "on"), [0.9, 0.1]),
                (25, ev(25.5, "cooking_stove", "on"), [0.9, 0.1]),
            ],
        )
        store = store_of(grid, trace, "cooking_stove", SeqParams(l_rank=1))
        assert counts_of(store)[(("cooking_stove", "on"),)][0] == 2

    def test_target_related_filter(self):
        # The refrigerator-only subsequence is not stored; pairs that include
        # the target are.
        grid, trace = fabricate_trace(
            [[1.0, 0.0]] * 3,
            [
                (1, ev(1.2, "refrigerator", "opening"), [1.0, 0.0]),
                (1, ev(1.5, "cooking_stove", "on"), [1.0, 0.0]),
            ],
        )
        store = store_of(grid, trace, "cooking_stove", SeqParams(l_rank=1))
        keys = set(counts_of(store))
        assert (("refrigerator", "opening"),) not in keys
        assert (("cooking_stove", "on"),) in keys
        assert (("refrigerator", "opening"), ("cooking_stove", "on")) in keys

    def test_empty_selection_stores_nothing(self):
        grid, trace = fabricate_trace(
            [[0.5, 0.5]] * 2,
            [(0, ev(0.5, "cooking_stove", "on"), [0.5, 0.5])],
        )
        params = SeqParams(criterion="alpha", l_alpha=0.9)
        store = store_of(grid, trace, "cooking_stove", params)
        assert counts_of(store) == {}

    def test_double_ingest_doubles_counts_keeps_ratios(self):
        entry = [[0.8, 0.2]] * 5 + [[0.2, 0.8]] * 5
        make = lambda: fabricate_trace(
            entry, [(0, ev(0.5, "cooking_stove", "on"), [0.8, 0.2])]
        )
        params = SeqParams(l_rank=1)
        grid, trace = make()
        once = store_of(grid, trace, "cooking_stove", params)
        # Two traces over the same events, read from one grid.
        twice = store_of(grid, [trace, make()[1]], "cooking_stove", params)
        key = (("cooking_stove", "on"),)
        assert counts_of(twice)[key][0] == 2 * counts_of(once)[key][0]
        assert (twice.slot_counts == 2 * once.slot_counts).all()
        assert vector_of(twice, key)[0] == pytest.approx(vector_of(once, key)[0])
        rebuilt = store_of(*make(), "cooking_stove", params)
        assert rebuilt.to_payload() == once.to_payload()

    def test_window_respects_t_seq(self):
        # A lead event 20 minutes before the target operation is outside a
        # 600 s window and never enters any stored sequence.
        grid, trace = fabricate_trace(
            [[1.0, 0.0]] * 30,
            [
                (2, ev(2.0, "tv", "on"), [1.0, 0.0]),
                (25, ev(25.0, "cooking_stove", "on"), [1.0, 0.0]),
            ],
        )
        store = store_of(grid, trace, "cooking_stove", SeqParams(l_rank=1, t_seq=600))
        assert set(counts_of(store)) == {(("cooking_stove", "on"),)}

    def test_payload_round_trip_and_determinism(self):
        entry = [[0.8, 0.2]] * 5
        grid, trace = fabricate_trace(
            entry,
            [
                (0, ev(0.2, "refrigerator", "opening"), [0.8, 0.2]),
                (0, ev(0.5, "cooking_stove", "on"), [0.8, 0.2]),
            ],
        )
        params = SeqParams(l_rank=1)
        store = store_of(grid, trace, "cooking_stove", params)
        payload = store.to_payload()
        clone = SequenceStore.from_payload(payload, "", 2, SequenceIds("cooking_stove"), REGISTERED)
        assert clone.to_payload() == payload
        assert_bitwise_equal(clone, as_dicts(store))

    def test_probability_degenerate_branches(self):
        store = id_store([12, 0, 5], {(("cooking_stove", "on"),): [3, 0, 0]})
        key = (("cooking_stove", "on"),)
        assert vector_of(store, key)[0] == pytest.approx(0.25)
        assert vector_of(store, key)[1] == 0.0  # zero slot count
        assert vector_of(store, (("tv", "on"),))[2] == 0.0  # unknown sequence


SELECTIONS = {
    "rank-1": dict(criterion="rank", l_rank=1),
    "rank-3": dict(criterion="rank", l_rank=3),
    "alpha-0.1": dict(criterion="alpha", l_alpha=0.1),
    "alpha-0.6": dict(criterion="alpha", l_alpha=0.6),
}


def assert_bitwise_equal(store, oracle):
    """The id-keyed store, read back as ``{items: row}``, is the sequence-keyed
    oracle: the same sequences, counts and dtypes, its ids strictly
    ascending."""
    assert (np.diff(store.ids) > 0).all()
    assert store.counts.shape == (len(store.ids), len(store.slot_counts))
    counts = counts_of(store)
    assert counts.keys() == oracle.counts.keys()
    for items, row in oracle.counts.items():
        assert counts[items].dtype == row.dtype
        assert np.array_equal(counts[items], row)
    assert store.slot_counts.dtype == oracle.slot_counts.dtype
    assert np.array_equal(store.slot_counts, oracle.slot_counts)


class TestStoreAgainstPerWindowOracle:
    """One state selection per trace gives the store that selecting the
    states of every stored sequence one by one gives."""

    @pytest.fixture(scope="class")
    def dense_traces(self):
        dataset = dense_dataset()
        folds = make_folds(
            dataset, LabelingParams(initial_occupants=2), ModelParams(), SeqParams(t_seq=1800)
        )
        return dataset.grid, [training for training, _ in filter_folds_one_by_one(folds)]

    @pytest.mark.parametrize("selection", SELECTIONS.values(), ids=SELECTIONS.keys())
    def test_fold_stores(self, dense_traces, selection):
        params = SeqParams(t_seq=1800, **selection)
        grid, fold_traces = dense_traces
        for traces in fold_traces:
            store = store_of(grid, traces, "cooking_stove", params)
            assert len(store.counts)
            oracle = store_sequences_per_window(
                grid, traces, "cooking_stove", params, len(ALPHABET)
            )
            assert_bitwise_equal(store, oracle)

    @pytest.mark.parametrize("selection", SELECTIONS.values(), ids=SELECTIONS.keys())
    def test_tied_beliefs(self, selection):
        # Beliefs on a coarse grid tie often, also at the top rank.
        rng = np.random.default_rng(31)
        devices = [("cooking_stove", "on"), ("refrigerator", "opening"), ("tv", "on")]
        for _ in range(20):
            n_slots = 40
            entry = rng.integers(0, 3, size=(n_slots, 4)) / 4.0
            specs = [
                (int(pos), ev(float(pos) + 0.5, *devices[rng.integers(0, 3)]),
                 rng.integers(0, 3, size=4) / 4.0)
                for pos in sorted(rng.choice(n_slots, size=12, replace=False))
            ]
            grid, trace = fabricate_trace(entry, specs)
            params = SeqParams(t_seq=600, w_max=6, **selection)
            store = store_of(grid, trace, "cooking_stove", params)
            oracle = store_sequences_per_window(grid, [trace], "cooking_stove", params, 4)
            assert_bitwise_equal(store, oracle)


def dense_dataset(n_days=3):
    # Habit rates x20 fill the windows, as in the dense benchmark workload.
    scenario = scenario_calibration(seed=3, n_days=n_days)
    scenario.habits = tuple(
        replace(h, rate_per_hour=h.rate_per_hour * 20) for h in scenario.habits
    )
    result = generate(scenario)
    return EvalDataset(
        grid=build_timeslots(result.events, result.frames), vocabulary=Vocabulary()
    )


def midnight_dataset(n_days=4):
    """Days whose first stove operations come minutes after midnight, behind
    a run of events from the evening before; the third day is quiet until
    noon."""
    devices = [("tv", "on"), ("room_light", "on"), ("heater", "on"), ("refrigerator", "opening")]
    events, frames = [], []
    for day in range(n_days):
        start = BASE + timedelta(days=day)
        frames.append(frame(start))
        at = lambda hours, minutes: start + timedelta(hours=hours, minutes=minutes)
        if day != 2:
            events += [
                EventRecord(at(0, 1), "refrigerator", "opening"),
                EventRecord(at(0, 3), "cooking_stove", "on"),
                EventRecord(at(0, 9), "cooking_stove", "off"),
            ]
        events += [EventRecord(at(12, 0), "tv", "on"), EventRecord(at(12, 2), "cooking_stove", "on")]
        events += [EventRecord(at(23, 50 + i), *devices[i % 4]) for i in range(6)]
    return EvalDataset(grid=build_timeslots(events, columns(frames)), vocabulary=Vocabulary())


def partial_day_dataset(n_days=4):
    """Days from 06:30 to 06:30, so each spans two calendar dates.  The home
    starts empty: the first operation excludes its date (the 06:30-24:00 part
    of day 0), and an exit before an operation at 05:30 excludes the date
    that the end of day 1 and the start of day 2 share."""
    devices = [("tv", "on"), ("room_light", "on"), ("heater", "on"), ("refrigerator", "opening")]
    events, frames = [], []
    for day in range(n_days):
        start = BASE + timedelta(days=day, hours=6, minutes=30)
        frames.append(frame(start))
        at = lambda hours, minutes: start + timedelta(hours=hours, minutes=minutes)
        events += [
            EventRecord(at(1, 0), "refrigerator", "opening"),
            EventRecord(at(1, 2), "cooking_stove", "on"),
            EventRecord(at(1, 9), "cooking_stove", "off"),
            EventRecord(at(5, 0), "tv", "on"),
            EventRecord(at(5, 2), "cooking_stove", "on"),
        ]
        events += [EventRecord(at(17, 25 + i), *devices[i % 4]) for i in range(6)]
        events += [EventRecord(at(17, 32), "cooking_stove", "on")]
        if day == 1:
            events.append(EventRecord(at(21, 0), "user_position", "exit"))
        events += [
            EventRecord(at(23, 0), "refrigerator", "opening"),
            EventRecord(at(23, 3), "cooking_stove", "on"),
        ]
    return EvalDataset(build_timeslots(events, columns(frames), time(6, 30)), Vocabulary())


def assert_timed_equal(store, oracle):
    """The id-keyed timed store, read back as ``{items: times}``, is the
    sequence-keyed oracle, its ids strictly ascending."""
    assert store.target_total == oracle.target_total
    assert (np.diff(store.ids) > 0).all()
    assert all(times.dtype == np.float64 for times in store.times)
    assert as_dicts(store).times == oracle.times


def fold_oracle(fold, params):
    """The timed store of the fold's kept days, built window by window."""
    dataset = fold.dataset
    bounds = dataset.grid.day_bounds().tolist()
    kept = [
        event
        for day, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
        if day != fold.heldout_day
        for event in dataset.grid.events[lo:hi]
    ]
    return build_timed_store_per_window(kept, dataset.vocabulary.detection_target, params)


class TestFoldStoresFromSharedWindows:
    """Every fold's stores, built from windows enumerated once per run and
    beliefs ranked once per fold, equal the stores built window by window."""

    SELECTIONS = {
        **{f"rank-{l}": dict(criterion="rank", l_rank=l) for l in (0, 1, 2, 3, 12)},
        "alpha-0.1": dict(criterion="alpha", l_alpha=0.1),
        "alpha-0.6": dict(criterion="alpha", l_alpha=0.6),
    }
    # The l_alpha values of the selections, at which the folds count slots.
    ALPHAS = (0.1, 0.6)

    @pytest.mark.parametrize(
        "make, params",
        [
            (dense_dataset, SeqParams(t_seq=1800)),
            (midnight_dataset, SeqParams(t_seq=600, w_max=4)),
            (midnight_dataset, SeqParams(t_seq=90000, w_max=6)),
        ],
        ids=["dense", "midnight-w_max", "t_seq-over-a-day"],
    )
    def test_every_fold_and_selection(self, make, params):
        dataset = make()
        folds = make_folds(
            dataset, LabelingParams(initial_occupants=2), ModelParams(), params, alphas=self.ALPHAS
        )
        for fold, (traces, _) in zip(folds, filter_folds_one_by_one(folds)):
            for selection in self.SELECTIONS.values():
                selected = replace(params, **selection)
                store = fold_store(fold, selected)
                oracle = store_sequences_per_window(
                    dataset.grid, traces, "cooking_stove", selected, len(ALPHABET)
                )
                assert_bitwise_equal(store, oracle)
            assert_timed_equal(fold_timed_store(fold), fold_oracle(fold, params))
        assert any(len(fold_store(fold).counts) for fold in folds)

    @pytest.mark.parametrize(
        "params", [SeqParams(t_seq=600), SeqParams(t_seq=600, w_max=3)], ids=["t_seq", "w_max"]
    )
    def test_partly_excluded_days(self, params):
        # A training trace of a day with an excluded date holds only the
        # day's kept slots, and its windows only their events.
        dataset = partial_day_dataset()
        labeling = LabelingParams(initial_occupants=0)
        folds = make_folds(dataset, labeling, ModelParams(), params, alphas=self.ALPHAS)
        partial = 0
        for fold, (traces, _) in zip(folds, filter_folds_one_by_one(folds)):
            assert all(trace.entry is None for trace in fold.training_traces)
            partial += sum(len(trace.first) - 1 < 1440 for trace in fold.training_traces)
            for selection in self.SELECTIONS.values():
                selected = replace(params, **selection)
                oracle = store_sequences_per_window(
                    dataset.grid, traces, "cooking_stove", selected, len(ALPHABET)
                )
                assert_bitwise_equal(fold_store(fold, selected), oracle)
            assert_timed_equal(fold_timed_store(fold), fold_oracle(fold, params))
        assert partial == 3 * 3  # days 0, 1 and 2, each in the folds that keep it
        assert all(len(fold_store(fold).counts) for fold in folds)

    def test_each_run_is_enumerated_once(self, monkeypatch):
        # Whole days and kept parts alike: each run of events has its
        # windows enumerated once, and every fold that keeps the run, and the
        # timed store for a whole day, is served the same entries.
        dataset = partial_day_dataset()
        grid, params = dataset.grid, SeqParams(t_seq=600)
        folds = make_folds(dataset, LabelingParams(initial_occupants=0), ModelParams(), params)
        enumerate_window, run = seqstore._enumerate_distinct, DayWindows.run
        windows, served = [], {}

        def counting(pairs, l_max):
            windows.append(pairs)
            return enumerate_window(pairs, l_max)

        def recording(self, lo, hi):
            entries = run(self, lo, hi)
            served.setdefault((lo, hi), []).append(entries)
            return entries

        expected = filter_folds_one_by_one(folds)
        monkeypatch.setattr(seqstore, "_enumerate_distinct", counting)
        monkeypatch.setattr(DayWindows, "run", recording)
        for fold, (traces, _) in zip(folds, expected):
            oracle = store_sequences_per_window(
                grid, traces, "cooking_stove", params, len(ALPHABET)
            )
            assert_bitwise_equal(fold_store(fold, params), oracle)
            fold_timed_store(fold)
        days = grid.day_bounds().tolist()
        whole = list(zip(days, days[1:]))
        parts = sorted(set(served) - set(whole))
        # Days 0, 1 and 2 are kept in part, by the three folds that keep each;
        # day 3 whole.  The timed store reads every whole day once.
        assert len(parts) == 3 and set(whole) <= set(served)
        assert [len(served[run]) for run in parts] == [3, 3, 3]
        assert [len(served[run]) for run in whole] == [1, 1, 1, 4]
        assert all(entries is found[0] for found in served.values() for entries in found)
        stove = sum(
            event.device == "cooking_stove" for lo, hi in served for event in grid.events[lo:hi]
        )
        assert len(windows) == stove

    def test_a_trace_whose_events_are_not_one_run_is_refused(self):
        dataset = partial_day_dataset()
        grid, params = dataset.grid, SeqParams(t_seq=600)
        [fold, *_] = make_folds(dataset, LabelingParams(initial_occupants=0), ModelParams(), params)
        # Day 3 without the slots of its six evening events.
        day = np.arange(3 * SLOTS_PER_DAY, 4 * SLOTS_PER_DAY)
        [whole, split] = filter_streams(
            grid, [day, np.delete(day, np.s_[1000:1100])], *fold.model
        )
        assert (np.diff(split.event_index) > 1).any()
        store_sequences(training_beliefs([whole], fold.windows), "cooking_stove", params)
        with pytest.raises(ValueError, match="not one run"):
            store_sequences(
                training_beliefs([whole, split], fold.windows), "cooking_stove", params
            )

    @pytest.mark.parametrize("heldout", [0, 1, 2, 3])
    @pytest.mark.parametrize(
        "params",
        [SeqParams(t_seq=600), SeqParams(t_seq=600, w_max=4), SeqParams(t_seq=90000, w_max=6)],
        ids=["after-midnight", "w_max-across-midnight", "t_seq-over-a-day"],
    )
    def test_timed_store_around_midnight(self, heldout, params, monkeypatch):
        dataset = midnight_dataset()
        [fold] = [f for f in make_folds(dataset, LabelingParams(), ModelParams(), params)
                  if f.heldout_day == heldout]
        fold.windows.timed_store()  # the whole stream, enumerated up front
        enumerate_window = seqstore._enumerate_distinct
        again = []

        def counting(pairs, l_max):
            again.append(pairs)
            return enumerate_window(pairs, l_max)

        monkeypatch.setattr(seqstore, "_enumerate_distinct", counting)
        assert_timed_equal(fold_timed_store(fold), fold_oracle(fold, params))
        # Only windows reaching into the held-out day are enumerated again:
        # none after the last day, and within ten minutes only those of the
        # early stove operations, which the quiet day 2 lacks.
        reaching = heldout < 3 and (params.t_seq > 86400 or heldout != 1)
        assert bool(again) == reaching

    def test_whole_stream_equals_the_per_window_store(self):
        dataset = midnight_dataset()
        for params in (SeqParams(t_seq=600, w_max=4), SeqParams(t_seq=90000, w_max=6)):
            windows = DayWindows(dataset.grid, "cooking_stove", params)
            store = build_timed_store(windows, "cooking_stove", params)
            oracle = build_timed_store_per_window(dataset.grid.events, "cooking_stove", params)
            assert_timed_equal(store, oracle)

    def test_windows_for_other_cuts_are_refused(self):
        dataset = midnight_dataset()
        [fold, *_] = make_folds(dataset, LabelingParams(), ModelParams(), SeqParams(t_seq=600))
        with pytest.raises(ValidationError):
            fold_store(fold, SeqParams(t_seq=900))
        with pytest.raises(ValidationError):
            build_timed_store(fold.windows, "cooking_stove", SeqParams(t_seq=600, l_max=3))


def cut_home(origin=time(4, 0)):
    """The 5-day s1 home of seed 3 cut to start at ``origin`` on its first
    date, on a grid whose days start there.  Nobody is home at first, so the
    first operation excludes the first date, and the first grid day keeps
    only its slots after midnight."""
    result = generate(scenario_s1(seed=3, n_days=5))
    start = datetime.combine(result.events[0].timestamp.date(), origin)
    events = [event for event in result.events if event.timestamp >= start]
    frames = [frame for frame in frame_rows(result.frames) if frame.timestamp >= start]
    return build_timeslots(events, columns(frames), origin), LabelingParams(initial_occupants=0)


class TestTrainStoresFromDayWindows:
    """``train_model`` builds its stores from one ``DayWindows`` over the
    grid's days, as a fold does."""

    def test_stores_equal_the_per_window_stores(self):
        grid, labeling = cut_home()
        params = SeqParams()
        model = train_model(grid, Vocabulary(), labeling, ModelParams(), params)
        labels = label_states(grid, labeling, Vocabulary())
        streams = kept_day_streams(labels.select(~labels.excluded))
        assert labels.excluded.any()
        assert [len(stream) for stream in streams if len(stream) < SLOTS_PER_DAY] == [240]
        traces = filter_streams(grid, streams, model.transitions, model.operations)
        oracle = store_sequences_per_window(grid, traces, "cooking_stove", params, len(ALPHABET))
        assert len(model.store.counts)
        assert_bitwise_equal(model.store, oracle)
        assert_timed_equal(
            model.baseline_store, build_timed_store_per_window(grid.events, "cooking_stove", params)
        )

    def test_a_loaded_model_reads_its_stores_back(self):
        # The file sorts the keys of both stores, so the baseline store's
        # keys that the sequence store lacks come between its own.
        grid, labeling = cut_home()
        model = train_model(grid, Vocabulary(), labeling, ModelParams(), SeqParams())
        clone = TrainedModel.from_payload(json.loads(model.to_json()))
        assert clone.store.keys is clone.baseline_store.keys
        assert len(clone.store.ids) < len(clone.baseline_store.ids)
        assert_bitwise_equal(clone.store, as_dicts(model.store))
        assert_timed_equal(clone.baseline_store, as_dicts(model.baseline_store))

    def test_each_window_is_enumerated_once(self, monkeypatch):
        # Within five minutes no window reaches back across midnight.
        dataset = midnight_dataset()
        enumerate_window = seqstore._enumerate_distinct
        windows = []

        def counting(pairs, l_max):
            windows.append(pairs)
            return enumerate_window(pairs, l_max)

        monkeypatch.setattr(seqstore, "_enumerate_distinct", counting)
        params = SeqParams(t_seq=300)
        model = train_model(dataset.grid, Vocabulary(), LabelingParams(), ModelParams(), params)
        assert len(model.store.counts)
        stove = [event for event in dataset.grid.events if event.device == "cooking_stove"]
        assert len(windows) == len(stove)


class TestStoreSizes:
    """The benchmark's tracer reports ``len(store.counts)`` and
    ``len(timed.times)`` as ``seqstore.store_size``: each counts the distinct
    sequences the store holds."""

    def test_a_trained_model(self):
        grid, labeling = cut_home()
        params = SeqParams()
        model = train_model(grid, Vocabulary(), labeling, ModelParams(), params)
        labels = label_states(grid, labeling, Vocabulary())
        streams = kept_day_streams(labels.select(~labels.excluded))
        traces = filter_streams(grid, streams, model.transitions, model.operations)
        oracle = store_sequences_per_window(grid, traces, "cooking_stove", params, len(ALPHABET))
        timed = build_timed_store_per_window(grid.events, "cooking_stove", params)
        assert len(model.store.counts) == len(model.store.ids) == len(oracle.counts) > 0
        assert len(model.baseline_store.times) == len(timed.times) > len(oracle.counts)

    def test_a_folds_stores(self):
        params = SeqParams(t_seq=600, w_max=4)
        folds = make_folds(midnight_dataset(), LabelingParams(), ModelParams(), params)
        for fold, (traces, _) in zip(folds, filter_folds_one_by_one(folds)):
            oracle = store_sequences_per_window(
                fold.dataset.grid, traces, "cooking_stove", params, len(ALPHABET)
            )
            assert len(fold_store(fold).counts) == len(oracle.counts)
            assert len(fold_timed_store(fold).times) == len(fold_oracle(fold, params).times) > 0


class TestSeqParams:
    @pytest.mark.parametrize("t_seq", [0, -1.0, float("nan"), float("inf"),
                                       seqstore.MAX_T_SEQ + 1, 10**30])
    def test_t_seq_outside_the_grid_span_refused(self, t_seq):
        with pytest.raises(ValidationError, match="t_seq"):
            SeqParams(t_seq=t_seq)

    def test_longest_t_seq_accepted(self):
        assert seqstore.MAX_T_SEQ == MAX_SPAN_DAYS * 86400
        SeqParams(t_seq=seqstore.MAX_T_SEQ)

    def test_window_reaching_past_the_first_date_starts_at_zero(self):
        start = datetime(1, 1, 1)
        at = offsets_from(start, [datetime(1, 1, 1, 0, 2), datetime(1, 1, 1, 0, 4)])
        instants = offsets_from(start, [datetime(1, 1, 1, 0, 4), datetime(1, 1, 1, 0, 13)])
        assert window_starts(at, instants[:1], seqstore.MAX_T_SEQ).tolist() == [0]
        assert window_starts(at, instants[1:], 600).tolist() == [1]


class TestTimedSequenceStore:
    def test_build_and_target_total(self):
        events = [
            ev(60 * 10 + 0.0, "refrigerator", "opening"),
            ev(60 * 10 + 2.0, "cooking_stove", "on"),
            ev(60 * 34 + 0.0, "cooking_stove", "on"),
        ]
        store = timed_store_of(events, "cooking_stove", SeqParams())
        assert store.target_total == 2
        key = (("cooking_stove", "on"),)
        assert len(as_dicts(store).times[key]) == 2

    def test_cyclic_counting_wraps_midnight(self):
        store = id_timed_store({(("cooking_stove", "on"),): [30.0, 86390.0]}, 2)
        key = (("cooking_stove", "on"),)
        # 00:00:10 is within 60 s of both 00:00:30 and 23:59:50.
        assert near(store, key, 10.0, 60.0) == 2
        assert near(store, key, 10.0, 5.0) == 0

    def test_half_day_window_is_vacuous(self):
        times = [float(s) for s in (0, 20000, 43200, 70000, 86399)]
        store = id_timed_store({(("cooking_stove", "on"),): times}, 5)
        assert near(store, (("cooking_stove", "on"),), 12345.0, 43200.0) == 5

    def test_ratio_zero_without_stored_targets(self):
        store = id_timed_store()
        assert ratio(store, (("cooking_stove", "on"),), 100.0, 900.0) == 0.0
        batch = flat_candidates([[(("cooking_stove", "on"),)]], store.keys)
        [levels] = sequence_scores(store, batch, [100.0], (900.0,))
        assert levels.single.tolist() == [0.0]

    def test_counts_equal_the_binary_search_oracle(self):
        # Wrap-around, fractional and duplicate times, tolerances from 0 to
        # past half a day, and keys that share or lack times.
        rng = np.random.default_rng(5)
        keys = [(("cooking_stove", "on"),), (("tv", "on"), ("cooking_stove", "on")),
                (("cooking_stove", "off"),), (("heater", "on"), ("cooking_stove", "on"))]
        grid = np.array([0.0, 0.5, 30.0, 900.0, 900.25, 43200.0, 86399.5])
        for _ in range(30):
            times = {}
            for items in keys[: rng.integers(0, 4)]:
                values = np.concatenate([grid[rng.integers(0, len(grid), 3)],
                                         np.round(rng.uniform(0, 86400, 4), 1) % 86400])
                times[items] = sorted(values.tolist())
            store = id_timed_store(times, 7)
            tods = [0.0, 10.0, 899.75, 43200.0, 86399.75, float(rng.uniform(0, 86400))]
            window = np.repeat(np.arange(len(tods)), len(keys))
            ids = _rows(store, flat_candidates([keys * len(tods)], store.keys))
            for alpha in (0.0, 0.25, 30.0, 900.0, 43199.5, 43200.0, 50000.0):
                expected = [count_near(store, items, tod, alpha) for tod in tods for items in keys]
                assert store.counts_near(ids, window, tods, alpha).tolist() == expected

    def test_payload_round_trip(self):
        events = [ev(100.0, "cooking_stove", "on"), ev(200.0, "cooking_stove", "off")]
        store = timed_store_of(events, "cooking_stove", SeqParams())
        clone = TimedSequenceStore.from_payload(
            store.to_payload(), "", SequenceIds("cooking_stove"), REGISTERED
        )
        assert clone.to_payload() == store.to_payload()
        assert_timed_equal(clone, as_dicts(store))
