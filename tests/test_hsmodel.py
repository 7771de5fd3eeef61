"""Transition/operation fitting and the forward filter, checked against
independent brute-force recursions."""

import json
import tracemalloc
from dataclasses import replace
from datetime import timedelta

import numpy as np
import pytest

from homeguard import hsmodel
from homeguard.errors import ModelError, VocabularyError
from homeguard.hsmodel import (
    ModelParams,
    OperationTable,
    TrainedModel,
    TransitionTensor,
    _advance,
    _EventVectors,
    _observe,
    filter_models,
    filter_streams,
    fit_operations,
    fit_transitions,
    run_filter,
    train_model,
    uniform_belief,
    window_halfwidths,
)
from homeguard.labeling import ALPHABET, STATE_INDEX, LabelingParams, label_states
from homeguard.ingest import build_timeslots
from homeguard.seqstore import SeqParams
from homeguard.synthgen import generate, scenario_s1
from homeguard.vocab import Vocabulary

from conftest import BASE, ev, make_grid, make_slots, parse_state_key
from oracles import (
    LabeledSlot,
    encode_labels,
    filter_streams_per_event,
    slot_records,
    snapshots,
    sparse_transitions_loop,
)

S = len(ALPHABET)


def labeled_stream(state_keys, start=BASE, t0=1, k0=1, events=None, event_states=None):
    """LabeledSlot stream with the given per-slot (final) states."""
    events = events or {}
    event_states = event_states or {}
    slots = slot_records(*make_slots(len(state_keys), start=start, t0=t0, k0=k0, events=events))
    out = []
    for pos, key in enumerate(state_keys):
        state = parse_state_key(key)
        ev_states = tuple(
            parse_state_key(k) for k in event_states.get(pos, [key] * len(slots[pos].events))
        )
        out.append(
            LabeledSlot(
                slot=slots[pos],
                state=state,
                entry_state=state,
                event_states=ev_states,
                excluded_day=False,
            )
        )
    return out


def day_of_states(key: str) -> list[str]:
    return [key] * 1440


class TestFitTransitions:
    def test_single_state_chain_is_identity(self):
        labeled = labeled_stream(day_of_states("active:none") * 2)
        tensor = fit_transitions(encode_labels(labeled), t_z_max=0)
        i = STATE_INDEX[parse_state_key("active:none")]
        for k in (1, 700, 1440):
            assert tensor.matrix(k)[i, i] == pytest.approx(1.0)

    def test_pair_count_oracle_with_zero_window(self):
        rng = np.random.default_rng(7)
        keys = [state.key for state in ALPHABET]
        state_keys = [keys[rng.integers(0, S)] for _ in range(3 * 1440)]
        labeled = labeled_stream(state_keys)
        tensor = fit_transitions(encode_labels(labeled), t_z_max=0)

        # Independent tally of adjacent (previous state, next state) pairs,
        # bucketed by the slot-of-day the pair arrives at.
        counts = np.zeros((1440, S, S))
        for prev, nxt in zip(labeled, labeled[1:]):
            counts[nxt.slot.k - 1, STATE_INDEX[prev.state], STATE_INDEX[nxt.state]] += 1
        sums = counts.sum(axis=2, keepdims=True)
        expected = np.divide(counts, sums, out=np.zeros_like(counts), where=sums > 0)
        assert np.allclose(tensor.probs, expected, atol=1e-12)

    def test_absent_state_yields_zero_row(self):
        labeled = labeled_stream(day_of_states("active:none"))
        tensor = fit_transitions(encode_labels(labeled), t_z_max=720)
        missing = STATE_INDEX[parse_state_key("sleep:none")]
        assert not tensor.probs[:, missing, :].any()

    def test_midnight_transition_captured(self):
        labeled = labeled_stream(day_of_states("active:none") + day_of_states("sleep:none"))
        tensor = fit_transitions(encode_labels(labeled), t_z_max=0)
        a_idx = STATE_INDEX[parse_state_key("active:none")]
        s_idx = STATE_INDEX[parse_state_key("sleep:none")]
        assert tensor.matrix(1)[a_idx, s_idx] == pytest.approx(1.0)
        assert tensor.matrix(2)[a_idx, a_idx] == pytest.approx(1.0)
        assert tensor.matrix(2)[s_idx, s_idx] == pytest.approx(1.0)

    def test_window_minimality(self):
        # One state appears only at slot-of-day 500; every other state is
        # everywhere.  The window at slot 511 must reach back exactly 11.
        keys = [state.key for state in ALPHABET]
        rare = keys[0]
        day = [keys[1 + (pos % (S - 1))] for pos in range(1440)]
        day[499] = rare  # k = 500
        labeled = labeled_stream(day * 2)
        tensor = fit_transitions(encode_labels(labeled), t_z_max=720)
        assert tensor.t_z[510] == 11  # k = 511
        # The rare state sits at k=500, but planting it there displaced one
        # cycling state whose nearest occurrences are 9 slots away.
        assert tensor.t_z[499] == 9

        presence = np.zeros((1440, S))
        for item in labeled:
            presence[item.slot.k - 1, STATE_INDEX[item.state]] += 1
        for k0 in range(0, 1440, 97):
            tz = int(tensor.t_z[k0])
            window = [(k0 + offset) % 1440 for offset in range(-tz, tz + 1)]
            assert (presence[window].sum(axis=0) > 0).all()
            if tz > 0:
                smaller = [(k0 + offset) % 1440 for offset in range(-(tz - 1), tz)]
                assert not (presence[smaller].sum(axis=0) > 0).all()

    def test_unsatisfiable_support_caps_at_max(self):
        # A state that occurs in training but only at one slot of the day:
        # windows far away can never reach it within the cap.
        day = day_of_states("active:none")
        day[499] = "sleep:none"
        tensor = fit_transitions(encode_labels(labeled_stream(day)), t_z_max=30)
        assert tensor.t_z[100] == 30  # k=101 cannot see slot 500
        assert tensor.t_z[499] == 1  # slot 500 itself lacks the common state

    def test_absent_states_do_not_force_the_cap(self):
        # Only one state present at every slot: support holds with no window.
        labeled = labeled_stream(day_of_states("active:none"))
        tensor = fit_transitions(encode_labels(labeled), t_z_max=30)
        assert (tensor.t_z == 0).all()

    def test_rows_are_stochastic_or_zero(self):
        rng = np.random.default_rng(3)
        keys = [state.key for state in ALPHABET[:4]]
        state_keys = [keys[rng.integers(0, 4)] for _ in range(2 * 1440)]
        tensor = fit_transitions(encode_labels(labeled_stream(state_keys)), t_z_max=5)
        sums = tensor.probs.sum(axis=2)
        nonzero = sums > 0
        assert np.allclose(sums[nonzero], 1.0, atol=1e-9)

    def test_empty_training_data_errors(self):
        with pytest.raises(ModelError):
            fit_transitions(encode_labels([]), t_z_max=0)


class TestFitOperations:
    def test_hand_count(self, vocab):
        labeled = labeled_stream(
            ["active:none"] * 4,
            events={0: [ev(0.5, "tv", "on")]},
        )
        table = fit_operations(encode_labels(labeled), vocab)
        i = STATE_INDEX[parse_state_key("active:none")]
        assert table.vector(("tv", "on"))[i] == pytest.approx(0.25)

    def test_unseen_operation_is_all_ones(self, vocab):
        labeled = labeled_stream(["active:none"] * 3)
        table = fit_operations(encode_labels(labeled), vocab)
        assert (table.vector(("rice_cooker", "on")) == 1.0).all()
        assert table.vector(("rice_cooker", "on")).shape == (S,)

    def test_state_with_no_slots_gets_zero(self, vocab):
        labeled = labeled_stream(["active:none"] * 2, events={0: [ev(0.5, "tv", "on")]})
        table = fit_operations(encode_labels(labeled), vocab)
        j = STATE_INDEX[parse_state_key("sleep:none")]
        assert table.vector(("tv", "on"))[j] == 0.0

    def test_repeat_in_same_slot_counts_once(self, vocab):
        labeled = labeled_stream(
            ["active:none"] * 2,
            events={0: [ev(0.2, "tv", "on"), ev(0.7, "tv", "on")]},
        )
        table = fit_operations(encode_labels(labeled), vocab)
        i = STATE_INDEX[parse_state_key("active:none")]
        assert table.vector(("tv", "on"))[i] == pytest.approx(0.5)

    def test_values_within_unit_interval(self, vocab):
        rng = np.random.default_rng(11)
        events = {}
        for pos in range(50):
            if rng.random() < 0.6:
                events[pos] = [ev(pos + 0.5, "refrigerator", "opening"), ev(pos + 0.6, "tv", "on")]
        keys = [state.key for state in ALPHABET]
        labeled = labeled_stream([keys[rng.integers(0, S)] for _ in range(50)], events=events)
        table = fit_operations(encode_labels(labeled), vocab)
        for vec in table.probs.values():
            assert (vec >= 0.0).all() and (vec <= 1.0).all()

    def test_unregistered_lookup_raises(self, vocab):
        table = fit_operations(encode_labels(labeled_stream(["active:none"])), vocab)
        with pytest.raises(VocabularyError):
            table.vector(("mystery", "zap"))


def binary_search_t_z(presence: np.ndarray, t_z_max: int) -> np.ndarray:
    """The former per-slot search for T_Z: the smallest halfwidth whose window
    holds every learnable state, found by bisection over window sums."""
    n_states = presence.shape[1]
    presence_ps = np.zeros((3 * 1440 + 1, n_states), dtype=np.int64)
    np.cumsum(np.concatenate([presence] * 3, axis=0), axis=0, out=presence_ps[1:])
    learnable = presence.sum(axis=0) > 0

    def window_supported(k0: int, halfwidth: int) -> bool:
        center = k0 + 1440
        window = presence_ps[center + halfwidth + 1] - presence_ps[center - halfwidth]
        return bool((window[learnable] > 0).all())

    t_z = np.empty(1440, dtype=np.int64)
    for k0 in range(1440):
        if not window_supported(k0, t_z_max):
            t_z[k0] = t_z_max
            continue
        lo, hi = 0, t_z_max
        while lo < hi:
            mid = (lo + hi) // 2
            if window_supported(k0, mid):
                hi = mid
            else:
                lo = mid + 1
        t_z[k0] = lo
    return t_z


def loop_counts(labeled):
    """Presence, pair and operation counts tallied slot by slot, as the fits
    did before they counted over encoded arrays."""
    presence = np.zeros((1440, S), dtype=np.int64)
    pairs = np.zeros((1440, S, S), dtype=np.int64)
    by_t = {item.slot.t: item for item in labeled}
    for item in labeled:
        presence[item.slot.k - 1, STATE_INDEX[item.state]] += 1
        succ = by_t.get(item.slot.t + 1)
        if succ is not None:
            pairs[succ.slot.k - 1, STATE_INDEX[item.state], STATE_INDEX[succ.state]] += 1
    denom = np.zeros(S, dtype=np.int64)
    numer = {}
    for item in labeled:
        for state in {item.entry_state} | set(item.event_states):
            denom[STATE_INDEX[state]] += 1
        for pair, i in {(e.pair, STATE_INDEX[st]) for e, st in zip(item.slot.events, item.event_states)}:
            numer.setdefault(pair, np.zeros(S, dtype=np.int64))[i] += 1
    return presence, pairs, denom, numer


def random_labeled_days(rng, n_days, excluded_days=(), pairs=(("tv", "on"), ("refrigerator", "opening"))):
    """A multi-day labeled stream with random states, random events whose
    states differ from the slot's entry state, and the given days excluded."""
    keys = [state.key for state in ALPHABET]
    learnable = rng.choice(keys, size=int(rng.integers(2, S)), replace=False)
    n = n_days * 1440
    events = {}
    for pos in rng.choice(n, size=40, replace=False):
        bucket = [ev(pos + 0.1 * (j + 1), *pairs[int(rng.integers(0, len(pairs)))]) for j in range(int(rng.integers(1, 4)))]
        events[int(pos)] = bucket
    slots = slot_records(make_grid(n, events=events))
    out = []
    for pos, slot in enumerate(slots):
        state = parse_state_key(learnable[int(rng.integers(0, len(learnable)))])
        entry = parse_state_key(learnable[int(rng.integers(0, len(learnable)))])
        out.append(
            LabeledSlot(
                slot=slot,
                state=state,
                entry_state=entry,
                event_states=tuple(
                    parse_state_key(learnable[int(rng.integers(0, len(learnable)))])
                    for _ in slot.events
                ),
                excluded_day=pos // 1440 in excluded_days,
            )
        )
    return out


class TestEncodedFits:
    def test_fits_equal_slot_by_slot_counts(self, vocab):
        rng = np.random.default_rng(5)
        for t_z_max in (720, 30, 0):
            labeled = random_labeled_days(rng, 3)
            presence, pairs, denom, numer = loop_counts(labeled)
            tensor = fit_transitions(encode_labels(labeled), t_z_max)
            assert np.array_equal(tensor.t_z, binary_search_t_z(presence, t_z_max))
            windows = np.zeros((1440, S, S))
            for k0 in range(1440):
                for offset in range(-int(tensor.t_z[k0]), int(tensor.t_z[k0]) + 1):
                    windows[k0] += pairs[(k0 + offset) % 1440]
            sums = windows.sum(axis=2, keepdims=True)
            expected = np.divide(windows, sums, out=np.zeros_like(windows), where=sums > 0)
            assert np.array_equal(tensor.probs, expected)

            table = fit_operations(encode_labels(labeled), vocab)
            assert set(table.probs) == set(vocab.all_pairs()) | set(numer)
            for pair, counts in numer.items():
                assert np.array_equal(
                    table.probs[pair],
                    np.divide(counts.astype(float), denom, out=np.zeros(S), where=denom > 0),
                )

    def test_selection_equals_fit_on_the_kept_list(self, vocab):
        # Dropping a middle day must also drop the two pairs that cross its
        # midnights, exactly as fitting the list without that day does.
        rng = np.random.default_rng(8)
        labeled = random_labeled_days(rng, 4, excluded_days=(1,))
        arrays = encode_labels(labeled)
        for heldout in range(4):
            keep = (arrays.day != heldout) & ~arrays.excluded
            kept = [item for item, flag in zip(labeled, keep) if flag]
            got_t = fit_transitions(arrays.select(keep), 720)
            ref_t = fit_transitions(encode_labels(kept), 720)
            assert np.array_equal(got_t.probs, ref_t.probs)
            assert np.array_equal(got_t.t_z, ref_t.t_z)
            got_o = fit_operations(arrays.select(keep), vocab)
            ref_o = fit_operations(encode_labels(kept), vocab)
            assert list(got_o.probs) == list(ref_o.probs)
            for pair, vec in ref_o.probs.items():
                assert np.array_equal(got_o.probs[pair], vec)

    def test_fit_allocates_at_most_five_results(self):
        # A fold of the 28-day protocol: 27 kept days.  The prefix sums, the
        # window counts and their float copy are transients of one
        # (1440, S, S) tensor each.
        result = generate(scenario_s1(seed=11, n_days=28))
        grid = build_timeslots(result.events, result.frames)
        labels = label_states(grid, LabelingParams(t_x=15, t_y=15, t_c=10, initial_occupants=2))
        fold = labels.select((labels.day != 3) & ~labels.excluded)
        tracemalloc.start()
        try:
            tensor = fit_transitions(fold)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * tensor.probs.nbytes

    def test_nothing_kept_errors(self):
        arrays = encode_labels(labeled_stream(["active:none"] * 3))
        with pytest.raises(ModelError):
            fit_transitions(arrays.select(np.zeros(3, dtype=bool)), 10)


class TestWindowHalfwidths:
    def test_closed_form_equals_binary_search(self):
        rng = np.random.default_rng(21)
        for trial in range(12):
            n_states = int(rng.integers(1, 8))
            presence = np.zeros((1440, n_states), dtype=np.int64)
            for i in range(n_states):
                if rng.random() < 0.25:
                    continue  # absent state: never learnable
                n_hits = int(rng.integers(1, 12)) if rng.random() < 0.7 else int(rng.integers(100, 1440))
                presence[rng.integers(0, 1440, size=n_hits), i] += 1
            # Caps from zero up to past the halfwidth the sparse states need.
            for t_z_max in (0, 1, 5, int(rng.integers(0, 721)), 720):
                assert np.array_equal(
                    window_halfwidths(presence, t_z_max), binary_search_t_z(presence, t_z_max)
                ), (trial, t_z_max)

    def test_no_learnable_state(self):
        assert (window_halfwidths(np.zeros((1440, 3), dtype=np.int64), 30) == 0).all()


def toy_tensor(matrix_by_k: dict[int, np.ndarray], n_states: int) -> TransitionTensor:
    probs = np.zeros((1440, n_states, n_states))
    for k, matrix in matrix_by_k.items():
        probs[k - 1] = matrix
    return TransitionTensor(probs=probs, t_z=np.zeros(1440, dtype=np.int64))


def filter_stream(grid, stream, tensor, table):
    """The trace of one stream of ``grid`` positions."""
    return filter_streams(grid, [stream], tensor, table)[0]


def step_into(k, tensor, belief):
    """``belief`` carried across the slot boundary into slot-of-day ``k``."""
    uniform = uniform_belief(len(belief))
    return _advance(np.array([belief], dtype=np.float64), tensor.probs[k - 1], uniform)[0]


def observe(pair, table, belief):
    """The beliefs just before and just after observing ``pair`` from
    ``belief``, as the filter observes an event."""
    now = np.array([belief], dtype=np.float64)
    pre, post = np.empty((2, 1, 1, len(belief)))
    vectors, uniform = _EventVectors([table]), uniform_belief(len(belief))
    _observe(now, 0, 1, [pair], vectors, uniform, pre, post)
    return pre[0, 0], post[0, 0]


class TestBeliefUpdates:
    def test_uniform_fixed_point(self):
        tensor = toy_tensor({5: np.full((2, 2), 0.5)}, 2)
        out = step_into(5, tensor, np.array([0.5, 0.5]))
        assert np.allclose(out, [0.5, 0.5])

    def test_hand_advance(self):
        a = np.array([[0.9, 0.1], [0.2, 0.8]])
        tensor = toy_tensor({1: a}, 2)
        out = step_into(1, tensor, np.array([1.0, 0.0]))
        assert np.allclose(out, [0.9, 0.1])

    def test_zero_support_resets_to_uniform(self):
        tensor = toy_tensor({}, 3)  # all-zero matrices
        out = step_into(10, tensor, np.array([1.0, 0.0, 0.0]))
        assert np.allclose(out, [1 / 3] * 3)

    def test_hand_observation(self):
        table = OperationTable(probs={("tv", "on"): np.array([0.8, 0.2])})
        grid = make_grid(1, events={0: [ev(0.5, "tv", "on")]})
        out = snapshots(run_filter(grid, toy_tensor({}, 2), table))[-1]
        assert np.allclose(out.probs, [0.8, 0.2])
        assert out.event_index == 1

    def test_unseen_operation_bitwise_unchanged(self):
        table = OperationTable(probs={("tv", "on"): np.ones(3)})
        pre, post = observe(("tv", "on"), table, np.array([0.2, 0.5, 0.3]))
        assert np.array_equal(post, pre)  # exact no-op, not merely close

    def test_zero_product_resets_to_uniform(self):
        table = OperationTable(probs={("tv", "on"): np.zeros(2)})
        _, post = observe(("tv", "on"), table, np.array([0.6, 0.4]))
        assert np.allclose(post, [0.5, 0.5])


def brute_force_trace(slot_ks, slot_events, a_of_k, b_of_pair, n):
    """Plain-Python forward recursion over ``n`` states from uniform; returns
    the per-instant belief list."""

    def normalize(values):
        total = sum(values)
        if total <= 0:
            return [1.0 / n] * n
        return [v / total for v in values]

    belief = [1.0 / n] * n
    snapshots = []
    for pos, k in enumerate(slot_ks):
        if pos > 0:
            a = a_of_k(k)
            belief = normalize(
                [sum(a[j][i] * belief[j] for j in range(n)) for i in range(n)]
            )
        snapshots.append(list(belief))
        for pair in slot_events[pos]:
            snapshots.append(list(belief))  # just before the event
            b = b_of_pair(pair)
            belief = normalize([b[i] * belief[i] for i in range(n)])
            snapshots.append(list(belief))  # just after
    return snapshots


def random_filter_instance(rng):
    n_states = int(rng.integers(2, 6))
    n_slots = int(rng.integers(1, 51))
    k0 = int(rng.integers(1, 1441))
    pairs = [("dev", "a"), ("dev", "b"), ("dev", "c")]

    probs = np.zeros((1440, n_states, n_states))
    for pos in range(n_slots + 1):
        k = (k0 - 1 + pos) % 1440
        matrix = rng.random((n_states, n_states))
        for i in range(n_states):
            if rng.random() < 0.15:
                matrix[i] = 0.0  # no-support row
            else:
                matrix[i] /= matrix[i].sum()
        probs[k] = matrix
    tensor = TransitionTensor(probs=probs, t_z=np.zeros(1440, dtype=np.int64))

    table = OperationTable()
    table.probs[pairs[0]] = np.ones(n_states)  # unseen operation
    table.probs[pairs[1]] = rng.random(n_states)
    table.probs[pairs[2]] = np.zeros(n_states) if rng.random() < 0.3 else rng.random(n_states)

    events = {}
    n_events = int(rng.integers(0, 11))
    for _ in range(n_events):
        pos = int(rng.integers(0, n_slots))
        pair = pairs[int(rng.integers(0, 3))]
        events.setdefault(pos, []).append(
            ev(pos + float(rng.random()) * 0.9, pair[0], pair[1])
        )
    for bucket in events.values():
        bucket.sort(key=lambda e: e.timestamp)

    grid, stream = make_slots(n_slots, events=events, k0=k0)
    return grid, stream, tensor, table


class TestRunFilter:
    def test_empty_stream(self):
        # An empty grid has no slot to hold a belief, so its trace holds none.
        tensor = toy_tensor({}, 2)
        trace = run_filter(make_grid(0), tensor, OperationTable())
        assert trace.entry.shape == (0, 2) and trace.pre.shape == (0, 2)
        assert snapshots(trace) == []

    def test_one_slot_one_event_three_snapshots(self, vocab):
        table = OperationTable(probs={("tv", "on"): np.array([0.8, 0.2])})
        tensor = toy_tensor({1: np.eye(2)}, 2)
        grid = make_grid(1, events={0: [ev(0.5, "tv", "on")]})
        trace = run_filter(grid, tensor, table)
        snaps = snapshots(trace)
        assert len(snaps) == 3
        assert np.allclose(snaps[0].probs, [0.5, 0.5])  # slot entry
        assert np.allclose(snaps[1].probs, [0.5, 0.5])  # pre-event
        assert np.allclose(snaps[2].probs, [0.8, 0.2])  # post-event

    def test_first_slot_is_uniform(self):
        # No transition brings a stream into its first slot, though this one
        # would move the whole mass to state 0.
        tensor = toy_tensor({k: np.array([[1.0, 0.0], [1.0, 0.0]]) for k in (2, 7)}, 2)
        grid, stream = make_slots(1, k0=7)
        traces = filter_stream(grid, stream, tensor, OperationTable()), run_filter(
            make_grid(2), tensor, OperationTable()
        )
        for trace in traces:
            assert np.array_equal(trace.entry[0], [0.5, 0.5])
        assert np.array_equal(traces[1].entry[1], [1.0, 0.0])

    def test_oracle_equivalence_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            grid, stream, tensor, table = random_filter_instance(rng)
            trace = filter_stream(grid, stream, tensor, table)
            slots = slot_records(grid, stream)
            expected = brute_force_trace(
                [slot.k for slot in slots],
                [[event.pair for event in slot.events] for slot in slots],
                lambda k: tensor.probs[k - 1].tolist(),
                lambda pair: table.probs[pair].tolist(),
                tensor.n_states,
            )
            got = snapshots(trace)
            assert len(got) == len(expected)
            for snap, ref in zip(got, expected):
                assert np.max(np.abs(snap.probs - np.array(ref))) <= 1e-9


def assert_matches_brute_force(trace, grid, stream, tensor, table):
    slots = slot_records(grid, stream)
    expected = brute_force_trace(
        [slot.k for slot in slots],
        [[event.pair for event in slot.events] for slot in slots],
        lambda k: tensor.probs[k - 1].tolist(),
        lambda pair: table.probs[pair].tolist(),
        tensor.n_states,
    )
    got = snapshots(trace)
    assert len(got) == len(expected)
    for snap, ref in zip(got, expected):
        assert np.max(np.abs(snap.probs - np.array(ref))) <= 1e-12


def make_streams(streams) -> tuple:
    """One grid holding streams given as (first position, slot count,
    events keyed by the slot's place in the stream and timed as if the
    stream started at ``BASE``), and each stream's positions.  The streams
    must not overlap."""
    events = {}
    for p0, _, stream_events in streams:
        for pos, bucket in stream_events.items():
            shift = timedelta(minutes=p0)
            events[p0 + pos] = [replace(e, timestamp=e.timestamp + shift) for e in bucket]
    n_slots = max(p0 + n for p0, n, _ in streams)
    return make_grid(n_slots, events=events), [np.arange(p0, p0 + n) for p0, n, _ in streams]


class TestLockstepFilter:
    def test_randomized_streams_match_brute_force(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            n_streams = int(rng.integers(2, 6))
            _, first, tensor, table = random_filter_instance(rng)
            n_slots, p0 = len(first), int(first[0]) % 1440
            specs = []
            for row in range(n_streams):
                events = {}
                for _ in range(int(rng.integers(0, 11))):
                    pos = int(rng.integers(0, n_slots))
                    pair = list(table.probs)[int(rng.integers(0, len(table.probs)))]
                    events.setdefault(pos, []).append(ev(pos + float(rng.random()) * 0.9, *pair))
                for bucket in events.values():
                    bucket.sort(key=lambda e: e.timestamp)
                specs.append((p0 + row * 1440, n_slots, events))
            grid, streams = make_streams(specs)
            traces = filter_streams(grid, streams, tensor, table)
            assert all(trace.entry.base is traces[0].entry.base for trace in traces)
            for stream, trace in zip(streams, traces):
                run = np.arange(grid.first[stream[0]], grid.first[stream[-1] + 1])
                assert np.array_equal(trace.event_index, run)
                assert_matches_brute_force(trace, grid, stream, tensor, table)

    def test_resets_stay_in_their_row(self):
        # Row 0 pins its belief on state 0 by an observation, and state 0 has
        # no outgoing transitions at k=3, so row 0 alone resets when entering
        # slot 3.  Row 1 alone sees an annihilating observation in slot 4.
        n_states = 3
        matrix = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]])
        dead_row = matrix.copy()
        dead_row[0] = 0.0
        tensor = toy_tensor({1: matrix, 2: matrix, 3: dead_row, 4: matrix, 5: matrix}, n_states)
        table = OperationTable(
            probs={
                ("dev", "pin"): np.array([1.0, 0.0, 0.0]),
                ("dev", "kill"): np.zeros(n_states),
                ("dev", "tilt"): np.array([0.2, 0.3, 0.5]),
            },
        )
        grid, streams = make_streams([
            (0, 5, {1: [ev(1.5, "dev", "pin")]}),
            (1440, 5, {0: [ev(0.5, "dev", "tilt")], 3: [ev(3.5, "dev", "kill")]}),
            (2880, 5, {1: [ev(1.5, "dev", "tilt")]}),
        ])
        traces = filter_streams(grid, streams, tensor, table)
        uniform = uniform_belief(n_states)
        assert np.array_equal(traces[0].entry[2], uniform)
        assert not np.allclose(traces[2].entry[2], uniform)
        assert np.array_equal(traces[1].post[1], uniform)
        assert not np.allclose(traces[1].entry[3], uniform)
        for stream, trace in zip(streams, traces):
            assert_matches_brute_force(trace, grid, stream, tensor, table)

    def test_unaligned_streams_run_alone(self):
        rng = np.random.default_rng(4)
        _, _, tensor, table = random_filter_instance(rng)
        grid = make_grid(17)
        streams = [np.arange(9, 16), np.arange(9, 13), np.arange(10, 17), np.arange(0)]
        traces = filter_streams(grid, streams, tensor, table)
        assert not np.shares_memory(traces[0].entry, traces[2].entry)
        assert len(traces[3].entry) == 0 and not len(traces[3].event_index)
        for stream, trace in zip(streams[:3], traces):
            assert_matches_brute_force(trace, grid, stream, tensor, table)


class TestTrainedModelRoundTrip:
    def build_model(self):
        events = {
            100: [ev(100.2, "refrigerator", "opening"), ev(100.5, "cooking_stove", "on")],
            700: [ev(700.5, "tv", "on")],
        }
        grid = make_grid(1440 * 2, events={**events, 1540: [ev(1540.5, "cooking_stove", "on")]})
        return train_model(
            grid,
            Vocabulary(),
            LabelingParams(t_x=2, t_y=2, t_c=1),
            ModelParams(t_z_max=60),
            SeqParams(l_rank=2),
        )

    def test_json_round_trip(self):
        model = self.build_model()
        text = model.to_json()
        clone = TrainedModel.from_payload(__import__("json").loads(text))
        assert clone.to_json() == text
        assert np.allclose(clone.transitions.probs, model.transitions.probs)
        assert (clone.transitions.t_z == model.transitions.t_z).all()
        for pair, vec in model.operations.probs.items():
            assert np.allclose(clone.operations.probs[pair], vec)
        assert clone.store.to_payload() == model.store.to_payload()
        assert clone.baseline_store.to_payload() == model.baseline_store.to_payload()

    def test_transition_rows_written_as_the_row_loop_writes_them(self):
        """``to_json`` takes the nonzero transition rows from one mask, and
        writes the bytes of the row-by-row walk, on a hand-built model and
        on a trained synthetic home."""
        result = generate(scenario_s1(seed=3, n_days=7))
        home = train_model(build_timeslots(result.events, result.frames))
        for model in (self.build_model(), home):
            expected = json.dumps(
                {**model.to_payload(), "a": sparse_transitions_loop(model.transitions)},
                sort_keys=True, separators=(",", ":"),
            )
            assert model.to_json() == expected
        assert 0 < len(home.to_payload()["a"]) <= 1440

    def test_retrain_is_byte_identical(self):
        first = self.build_model().to_json()
        second = self.build_model().to_json()
        assert first == second

    def test_uniform_belief_sums_to_one(self):
        assert abs(uniform_belief(10).sum() - 1.0) <= 1e-9

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda a: a.update({"0": a.pop(next(iter(a)))}), "transition slot '0'"),
            (lambda a: next(iter(a.values())).update({"99": [0.0] * 10}), "state '99'"),
            (lambda a: a.update({"1441": {"0": [0.0] * 10}}), "transition slot '1441'"),
            (lambda a: a.update({"x": {"0": [0.0] * 10}}), "transition slot 'x'"),
            (lambda a: a.update({"5": {"0": [1.0] * 9}}), "need 10 values"),
        ],
        ids=["slot-0", "state-99", "slot-1441", "slot-not-a-number", "short-row"],
    )
    def test_transition_rows_outside_the_model_are_rejected(self, edit, message):
        payload = self.build_model().to_payload()
        edit(payload["a"])
        with pytest.raises(ModelError, match=message):
            TrainedModel.from_payload(payload)

    @pytest.mark.parametrize(
        "row",
        [[0.05] * 10, [0.2] * 10, [1.5, -0.5] + [0.0] * 8, [float("inf")] + [0.0] * 9,
         [10**400] + [0] * 9, [True] + [0.0] * 9],
        ids=["sum-half", "sum-two", "outside-0-1", "infinite", "int-beyond-float", "bool"],
    )
    def test_transition_rows_must_be_distributions(self, row):
        payload = self.build_model().to_payload()
        rows = next(iter(payload["a"].values()))
        rows[next(iter(rows))] = row
        with pytest.raises(ModelError, match="a: transition slot .* summing to 1"):
            TrainedModel.from_payload(payload)

    @pytest.mark.parametrize("version", [1, 2])
    def test_format_version_1_is_rejected(self, version):
        payload = self.build_model().to_payload()
        payload["format_version"] = version
        payload["seq_params"]["argmax_slot_counting"] = False
        with pytest.raises(ModelError, match=f"unsupported model format_version {version}"):
            TrainedModel.from_payload(payload)


def assert_traces_equal(got, expected):
    """Bitwise equal beliefs at every instant, the same events in order."""
    assert np.array_equal(got.entry, expected.entry)
    assert np.array_equal(got.event_index, expected.event_index)
    assert np.array_equal(got.first, expected.first)
    assert np.array_equal(got.pre, expected.pre)
    assert np.array_equal(got.post, expected.post)


PAIRS = [("dev", name) for name in ("a", "b", "pin", "kill", "unseen")]


def random_model(rng, n_states):
    """Transitions with dead rows and whole dead slots; operation vectors
    that pin the belief, annihilate it, or were never seen (all ones, in some
    models only)."""
    probs = rng.random((1440, n_states, n_states))
    probs[rng.random((1440, n_states)) < 0.25] = 0.0
    probs[rng.random(1440) < 0.05] = 0.0
    sums = probs.sum(axis=2, keepdims=True)
    probs = np.divide(probs, sums, out=np.zeros_like(probs), where=sums > 0)
    table = OperationTable()
    for pair in PAIRS:
        draw = rng.random()
        if pair[1] == "pin":
            vec = np.eye(n_states)[int(rng.integers(0, n_states))]
        elif pair[1] == "kill" and draw < 0.5:
            vec = np.zeros(n_states)
        elif pair[1] == "unseen" or draw < 0.3:
            vec = np.ones(n_states)
        else:
            vec = rng.random(n_states)
        table.probs[pair] = vec
    return TransitionTensor(probs=probs, t_z=np.zeros(1440, dtype=np.int64)), table


def random_events(rng, n_slots):
    """Events keyed by their slot's place in a stream of ``n_slots``."""
    events = {}
    for _ in range(int(rng.integers(0, 3 * n_slots))):
        pos = int(rng.integers(0, n_slots))
        pair = PAIRS[int(rng.integers(0, len(PAIRS)))]
        events.setdefault(pos, []).append(ev(pos + float(rng.random()) * 0.9, *pair))
    for bucket in events.values():
        bucket.sort(key=lambda e: e.timestamp)
    return events


def sprinkled_events(rng, positions):
    """1-2 events of ``PAIRS`` in the grid slot at each of ``positions``."""
    events = {}
    for pos in positions:
        offsets = sorted(float(x) * 0.9 for x in rng.random(int(rng.integers(1, 3))))
        events[pos] = [
            ev(pos + offset, *PAIRS[int(rng.integers(0, len(PAIRS)))]) for offset in offsets
        ]
    return events


STACKED_ROWS = (
    "numpy no longer multiplies stacked (D, 1, S) rows bitwise as np.dot of each 1-D row, "
    "or no longer sums them bitwise as the 1-D row: hsmodel._advance, which filters the "
    "days of a lone stream in lockstep, and hsmodel._lockstep, which filters a group of one "
    "stream under M models at once, rely on both"
)


@pytest.mark.parametrize("n_rows", [1, 2, 7, 90])
def test_stacked_rows_multiply_and_sum_as_lone_rows(n_rows):
    """The numpy behaviour that ``_filter_alone`` relies on: a (D, 1, S)
    stack times an (S, S) matrix is, row by row, ``np.dot`` of the 1-D row
    into a row of a trace, and the stack's row sums are the 1-D sums; for
    rows read from a contiguous block, a (D, 1, S) result and a strided
    view, as ``_advance`` reads them.  And what a group of one stream in
    ``_lockstep`` relies on: M (1, S) rows times M (S, S) matrices, one per
    model, are ``np.dot`` of each model's row and matrix, for M = 1, 3, 6."""
    rng = np.random.default_rng(n_rows)
    for n_states in range(2, 11):
        for _ in range(10):
            matrix = rng.random((n_states, n_states))
            matrix[rng.random(n_states) < 0.2] = 0.0
            matrix /= np.maximum(matrix.sum(axis=1, keepdims=True), 1.0)
            block = rng.random((n_rows, 2 * n_states))
            for rows in (block[:, :n_states].copy(), block.reshape(n_rows, 1, -1)[:, 0, ::2]):
                stacked = np.matmul(rows[:, None, :], matrix)[:, 0]
                sums = np.add.reduce(stacked, -1, None, None, True)
                lone = np.empty((n_rows + 1, n_states))
                for d in range(n_rows):
                    np.dot(rows[d], matrix, lone[d + 1])
                    total = np.add.reduce(lone[d + 1], 0)
                    assert stacked[d].tobytes() == lone[d + 1].tobytes(), STACKED_ROWS
                    assert sums[d].tobytes() == total.tobytes(), STACKED_ROWS
                uniform = uniform_belief(n_states)
                advanced = hsmodel._advance(rows, matrix, uniform)
                for d in range(n_rows):
                    total = np.add.reduce(lone[d + 1], 0)
                    alone = lone[d + 1] / total if total > 0.0 else uniform
                    assert advanced[d].tobytes() == alone.tobytes(), STACKED_ROWS
            for n_models in (1, 3, 6):
                matrices = rng.random((n_models, n_states, n_states))
                beliefs = rng.random((n_models, 1, n_states))
                batched = np.matmul(beliefs, matrices)
                sums = np.add.reduce(batched, -1, None, None, True)
                for m in range(n_models):
                    lone = np.dot(beliefs[m, 0], matrices[m])
                    assert batched[m, 0].tobytes() == lone.tobytes(), STACKED_ROWS
                    assert sums[m, 0].tobytes() == np.add.reduce(lone, 0).tobytes(), STACKED_ROWS


class TestLoneStream:
    """A whole grid (``run_filter``) is filtered with its days in lockstep,
    re-run until the beliefs carried between them stop changing, bit for bit
    as the per-event filter reads it; any other stream that runs alone is a
    group of one."""

    def filtered_alone(self, monkeypatch, grid, transitions, operations):
        """``run_filter``'s trace of ``grid``, checked to come from one
        ``_filter_alone`` call and to be bitwise the per-event filter's."""
        alone = []
        filter_alone = hsmodel._filter_alone

        def recording(grid, model):
            alone.append(len(grid))
            return filter_alone(grid, model)

        monkeypatch.setattr(hsmodel, "_filter_alone", recording)
        got = run_filter(grid, transitions, operations)
        assert alone == [len(grid)]
        [expected] = filter_streams_per_event(
            grid, [np.arange(len(grid))], transitions, operations
        )
        assert_traces_equal(got, expected)
        return got

    def test_equals_the_per_event_filter(self):
        # A model whose operations reset the belief (``kill``) or leave it
        # untouched (``unseen``), and one stream from 16:40 over three
        # midnights, with a gap across the second, and 1-2 events in 400
        # slots.
        rng = np.random.default_rng(31)
        n_states = 4
        transitions, operations = random_model(rng, n_states)
        operations.probs[("dev", "kill")] = np.zeros(n_states)
        operations.probs[("dev", "unseen")] = np.ones(n_states)
        p0, n_slots = 1000, 3 * 1440 + 300
        events = sprinkled_events(rng, (p0 + rng.choice(n_slots, 400, replace=False)).tolist())
        grid = make_grid(p0 + n_slots, events=events)
        stream = np.delete(np.arange(p0, p0 + n_slots), np.s_[1700:2100])
        assert stream[0] % 1440 != 0 and stream[-1] // 1440 == 3  # mid-day, three midnights
        assert np.diff(stream).max() > 1 and len(stream) > 2 * 1440  # a gap
        [got] = filter_streams(grid, [stream], transitions, operations)
        [expected] = filter_streams_per_event(grid, [stream], transitions, operations)
        assert_traces_equal(got, expected)
        uniform = uniform_belief(transitions.n_states)
        assert any(np.array_equal(row, uniform) for row in got.entry[1:])  # slot reset
        actions = [grid.events[i].action for i in got.event_index]
        kill = [i for i, action in enumerate(actions) if action == "kill"]
        unseen = [i for i, action in enumerate(actions) if action == "unseen"]
        assert kill and all(np.array_equal(got.post[i], uniform) for i in kill)
        assert unseen and all(np.array_equal(got.post[i], got.pre[i]) for i in unseen)

    @pytest.mark.parametrize(
        "n_slots",
        [5 * 1440 + 300, 2 * 1440, 2 * 1440 + 1, 2 * 1440 - 1, 1440, 700, 1],
        ids=["short-last-day", "two-whole-days", "one-slot-last-day", "under-two-days",
             "one-day", "under-one-day", "one-slot"],
    )
    def test_day_chunks_equal_the_per_event_filter(self, monkeypatch, n_slots):
        rng = np.random.default_rng(n_slots)
        transitions, operations = random_model(rng, 5)
        busy = rng.choice(n_slots, max(n_slots // 10, 1), replace=False)
        grid = make_grid(n_slots, events=sprinkled_events(rng, busy.tolist()))
        got = self.filtered_alone(monkeypatch, grid, transitions, operations)
        assert len(got.event_index) == len(grid.events)

    def test_resets_inside_a_later_day(self, monkeypatch):
        # Every day enters one slot-of-day by an all-zero matrix, and another
        # by a matrix whose row 0 is dead: only day 3, pinned on state 0 just
        # before, resets there.  Day 4 sees an operation of probability 0.
        n_states, n_slots = 4, 6 * 1440 - 100
        rng = np.random.default_rng(8)
        probs = rng.random((1440, n_states, n_states))
        probs /= probs.sum(axis=2, keepdims=True)
        probs[300] = 0.0
        probs[900, 0] = 0.0
        transitions = TransitionTensor(probs=probs, t_z=np.zeros(1440, dtype=np.int64))
        operations = OperationTable(probs={
            ("dev", "a"): rng.random(n_states), ("dev", "pin"): np.eye(n_states)[0],
            ("dev", "kill"): np.zeros(n_states),
        })
        events = {pos: [ev(pos + 0.5, "dev", "a")] for pos in range(7, n_slots, 37)}
        pin, kill = 3 * 1440 + 899, 4 * 1440 + 200
        events[pin] = [ev(pin + 0.5, "dev", "pin")]
        events[kill] = [ev(kill + 0.5, "dev", "kill")]
        grid = make_grid(n_slots, events=events)
        got = self.filtered_alone(monkeypatch, grid, transitions, operations)
        uniform = uniform_belief(n_states)
        assert all(np.array_equal(got.entry[d * 1440 + 300], uniform) for d in range(6))
        assert np.array_equal(got.entry[3 * 1440 + 900], uniform)
        assert not any(np.array_equal(got.entry[d * 1440 + 900], uniform) for d in (0, 1, 2, 4))
        [at] = np.flatnonzero(got.event_index == grid.first[kill])
        assert np.array_equal(got.post[at], uniform) and not np.array_equal(got.pre[at], uniform)

    def test_restarts_that_never_meet(self, monkeypatch):
        # Identity transitions keep whatever belief a day starts from, so a
        # day restarted from uniform never meets the belief that the first
        # day's one informative event pins, and each round settles one more
        # day: the rounds run to the bound, one per day.
        n_states, n_days = 4, 6
        transitions = TransitionTensor(
            probs=np.tile(np.eye(n_states), (1440, 1, 1)), t_z=np.zeros(1440, dtype=np.int64)
        )
        operations = OperationTable(probs={
            ("dev", "pin"): np.eye(n_states)[2], ("dev", "unseen"): np.ones(n_states),
        })
        events = {pos: [ev(pos + 0.5, "dev", "unseen")] for pos in range(3, n_days * 1440, 97)}
        events[10] = [ev(10.5, "dev", "pin")]
        grid = make_grid(n_days * 1440, events=events)
        steps = []
        advance = hsmodel._advance

        def counting(belief, matrix, uniform):
            steps.append(len(belief))
            return advance(belief, matrix, uniform)

        monkeypatch.setattr(hsmodel, "_advance", counting)
        got = self.filtered_alone(monkeypatch, grid, transitions, operations)
        assert (got.entry[11:] == np.eye(n_states)[2]).all()
        # Each round steps through a day and carries the days' ends over.
        assert len(steps) == n_days * 1440
        assert steps[1440 : 2 * 1440 - 1] == [1] * (1440 - 1)

    def test_empty_stream(self):
        transitions, operations = random_model(np.random.default_rng(3), 4)
        grid = make_grid(20)
        [got] = filter_streams(grid, [np.arange(0)], transitions, operations)
        assert got.entry.shape == (0, transitions.n_states)
        assert not len(got.event_index) and list(got.first) == [0]
        assert_traces_equal(
            got, filter_streams_per_event(grid, [np.arange(0)], transitions, operations)[0]
        )


class TestFilterModels:
    """The M-model lockstep filter against filter_streams under each model
    alone, and filter_streams against the per-event single-model filter;
    compared bit for bit."""

    def instance(self, rng):
        n_states = int(rng.integers(2, 6))
        models = [random_model(rng, n_states) for _ in range(int(rng.integers(1, 6)))]
        n_slots, k0 = int(rng.integers(1, 40)), int(rng.integers(1, 1441))
        n_aligned = int(rng.integers(1, 7))
        # Two grid days apart, so that no two streams overlap.
        specs = [(2 * row * 1440 + k0 - 1, n_slots, random_events(rng, n_slots))
                 for row in range(n_aligned)]
        # Unaligned: another length, another first slot-of-day, a gap, empty.
        row = 2 * n_aligned * 1440
        specs.append((row + k0 - 1, n_slots + 1, random_events(rng, n_slots + 1)))
        specs.append((row + 2 * 1440 + k0 % 1440, n_slots, random_events(rng, n_slots)))
        specs.append((row + 4 * 1440 + k0 - 1, n_slots + 2, random_events(rng, n_slots + 2)))
        grid, streams = make_streams(specs)
        streams[-1] = np.delete(streams[-1], 1)
        streams.append(np.arange(0))
        return models, grid, streams

    def test_every_model_equals_filtering_alone(self):
        rng = np.random.default_rng(2026)
        resets = mixed = 0
        for _ in range(60):
            models, grid, streams = self.instance(rng)
            wanted = [
                [index for index in range(len(streams)) if rng.random() < 0.7]
                for _ in models
            ]
            got = filter_models(grid, streams, models, wanted)
            for (transitions, operations), indices, traces in zip(models, wanted, got):
                assert sorted(traces) == sorted(indices)
                alone = filter_streams(grid, [streams[i] for i in indices], transitions, operations)
                for index, expected in zip(indices, alone):
                    assert_traces_equal(traces[index], expected)
                    uniform = uniform_belief(transitions.n_states)
                    resets += sum(np.array_equal(row, uniform) for row in expected.entry[1:])
            neutral = [operations.probs[PAIRS[0]].min() == 1.0 for _, operations in models]
            mixed += 0 < sum(neutral) < len(neutral)
        assert resets and mixed  # both degenerate paths were taken

    def test_trace_arrays_line_up_with_the_events(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            models, grid, streams = self.instance(rng)
            got = filter_models(grid, streams, models, [range(len(streams))] * len(models))
            for traces in got:
                for index, trace in traces.items():
                    slots = slot_records(grid, streams[index])
                    events = [grid.events[i] for i in trace.event_index]
                    assert events == [event for slot in slots for event in slot.events]
                    assert len(events) == len(trace.pre) == len(trace.post) == trace.first[-1]
                    assert len(trace.first) == len(slots) + 1
                    assert all(
                        events[trace.first[pos] : trace.first[pos + 1]] == list(slot.events)
                        for pos, slot in enumerate(slots)
                    )

    def test_whole_lockstep_group_under_every_model(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            models, grid, streams = self.instance(rng)
            aligned = streams[:-4]  # the four unaligned streams come last
            got = filter_models(grid, aligned, models, [range(len(aligned))] * len(models))
            for (transitions, operations), traces in zip(models, got):
                for index, expected in enumerate(
                    filter_streams(grid, aligned, transitions, operations)
                ):
                    assert_traces_equal(traces[index], expected)
                    if len(aligned) > 1:
                        assert traces[index].entry.base is traces[0].entry.base

    def test_filter_streams_equals_the_per_event_filter(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            models, grid, streams = self.instance(rng)
            for transitions, operations in models:
                got = filter_streams(grid, streams, transitions, operations)
                expected = filter_streams_per_event(grid, streams, transitions, operations)
                for trace, ref in zip(got, expected):
                    assert_traces_equal(trace, ref)

    def test_event_normalization_equals_the_single_row_rule(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n_models, n_states = int(rng.integers(1, 6)), int(rng.integers(2, 12))
            pre = rng.random((n_models, n_states))
            vec = rng.random((n_models, n_states)) * (rng.random((n_models, n_states)) < 0.6)
            tables = [OperationTable(probs={PAIRS[0]: row}) for row in vec]
            uniform = uniform_belief(n_states)
            # One event under every model at once, then under each model alone.
            group = np.empty((2, n_models, 1, n_states))
            _observe(pre, 0, 1, [PAIRS[0]], _EventVectors(tables), uniform, *group)
            for m in range(n_models):
                lone = np.empty((2, 1, 1, n_states))
                _observe(pre[m : m + 1], 0, 1, [PAIRS[0]], _EventVectors(tables[m : m + 1]),
                         uniform, *lone)
                assert group[1, m, 0].tobytes() == lone[1, 0, 0].tobytes()
                product = vec[m] * pre[m]
                total = product.sum()
                assert np.array_equal(lone[1, 0, 0], product / total if total > 0.0 else uniform)
