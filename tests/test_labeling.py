"""User-activity and device-usage labeling rules."""

from dataclasses import fields, replace
from datetime import datetime, time, timedelta

import numpy as np
import pytest

from homeguard import labeling
from homeguard.errors import BookkeepingError
from homeguard.ingest import build_timeslots
from homeguard.labeling import (
    ALPHABET,
    DeviceUsage,
    HomeState,
    LabelingParams,
    UserActivity,
    label_device_usage,
    label_states,
    label_user_activity,
)
from homeguard.synthgen import generate, scenario_s1

from conftest import BASE, ev, frame, make_slots
from oracles import calendar_day_bounds_scan, decode_labels, encode_labels, label_states_per_slot

ACTIVE, OUT, SLEEP = UserActivity.ACTIVE, UserActivity.OUT, UserActivity.SLEEP
USE, BEFORE, AFTER, NONE = (
    DeviceUsage.USE,
    DeviceUsage.BEFORE,
    DeviceUsage.AFTER,
    DeviceUsage.NONE,
)

NIGHT = datetime(2021, 3, 1, 2, 0, 0)  # 02:00, inside the night window


class TestHomeState:
    def test_forbidden_pairs_unconstructible(self):
        with pytest.raises(ValueError):
            HomeState(OUT, USE)
        with pytest.raises(ValueError):
            HomeState(SLEEP, USE)

    def test_alphabet_has_ten_states(self):
        assert len(ALPHABET) == 10
        assert len(set(ALPHABET)) == 10


class TestUserActivity:
    def test_sensor_sleep_rule(self, vocab):
        sensors = {0: frame(NIGHT, co2=1800.0, noise=32.0), 1: frame(NIGHT, co2=900.0, noise=32.0)}
        slots = make_slots(2, start=NIGHT, sensors=sensors)
        labels = label_user_activity(slots, [], LabelingParams(), vocab)
        assert labels.activities == [SLEEP, ACTIVE]

    def test_daytime_never_sleep(self, vocab):
        noon = datetime(2021, 3, 1, 12, 0, 0)
        slots = make_slots(1, start=noon, sensors={0: frame(noon, co2=1800.0, noise=32.0)})
        labels = label_user_activity(slots, [], LabelingParams(), vocab)
        assert labels.activities == [ACTIVE]

    def test_out_from_presence_bookkeeping(self, vocab):
        slots = make_slots(10)
        events = [ev(2.5, "user_position", "exit"), ev(6.5, "user_position", "entry")]
        labels = label_user_activity(slots, events, LabelingParams(initial_occupants=1), vocab)
        assert labels.activities[0] == ACTIVE
        assert labels.activities[3] == OUT
        assert labels.activities[6] == ACTIVE  # entry lands mid-slot 6

    def test_operation_while_out_repairs_count_and_excludes_day(self, vocab):
        slots = make_slots(10)
        events = [ev(1.2, "user_position", "exit"), ev(5.5, "tv", "on")]
        labels = label_user_activity(slots, events, LabelingParams(), vocab)
        assert labels.activities[3] == OUT
        assert labels.activities[5] == ACTIVE
        assert labels.activities[8] == ACTIVE
        assert BASE.date() in labels.excluded_dates

    def test_sleep_gap_merge(self, vocab):
        # Sleep at 02:00 and 03:00 with awake-scoring slots between: the
        # 90-minute merge relabels 02:01..02:59.
        sensors = {}
        for pos in range(0, 61):
            sleepy = pos in (0, 60)
            sensors[pos] = frame(
                NIGHT + timedelta(minutes=pos),
                co2=1800.0 if sleepy else 900.0,
                noise=32.0 if sleepy else 45.0,
            )
        slots = make_slots(61, start=NIGHT, sensors=sensors)
        labels = label_user_activity(slots, [], LabelingParams(), vocab)
        assert labels.activities == [SLEEP] * 61

    def test_sleep_gap_beyond_merge_window_stays(self, vocab):
        sensors = {}
        for pos in range(0, 101):
            sleepy = pos in (0, 100)
            sensors[pos] = frame(
                NIGHT + timedelta(minutes=pos),
                co2=1800.0 if sleepy else 900.0,
                noise=32.0 if sleepy else 45.0,
            )
        slots = make_slots(101, start=NIGHT, sensors=sensors)
        labels = label_user_activity(slots, [], LabelingParams(), vocab)
        assert labels.activities[50] == ACTIVE

    def test_late_night_operation_clears_sleep_before(self, vocab):
        # All night slots score sleep; an operation at 02:30 forces the five
        # preceding hours awake (clipped to the calendar day at 00:00).
        start = datetime(2021, 3, 1, 0, 0, 0)
        sensors = {pos: frame(start + timedelta(minutes=pos), co2=1800.0, noise=32.0)
                   for pos in range(240)}
        slots = make_slots(240, start=start, sensors=sensors)
        op = ev(150.5, "tv", "on", start=start)  # 02:30:30
        labels = label_user_activity(slots, [op], LabelingParams(), vocab)
        assert labels.activities[:151] == [ACTIVE] * 151
        assert labels.activities[151] == SLEEP

    def test_morning_operation_clears_sleep_after(self, vocab):
        start = datetime(2021, 3, 1, 5, 0, 0)
        sensors = {pos: frame(start + timedelta(minutes=pos), co2=1800.0, noise=32.0)
                   for pos in range(290)}
        slots = make_slots(290, start=start, sensors=sensors)
        op = ev(30.5, "tv", "on", start=start)  # 05:30, within 5:00..9:59
        labels = label_user_activity(slots, [op], LabelingParams(), vocab)
        assert labels.activities[29] == SLEEP
        # 4 h = 240 slots from the operation's slot onward
        assert labels.activities[30:271] == [ACTIVE] * 241
        assert labels.activities[271] == SLEEP

    def test_event_before_dataset_start_is_error(self, vocab):
        slots = make_slots(5)
        events = [ev(-3.0, "user_position", "entry")]
        with pytest.raises(BookkeepingError):
            label_user_activity(slots, events, LabelingParams(), vocab)


class TestDeviceUsage:
    def params(self, **kw):
        defaults = dict(t_x=1, t_y=1, t_c=0)
        defaults.update(kw)
        return LabelingParams(**defaults)

    def test_single_operation_windows(self, vocab):
        slots = make_slots(7, events={3: [ev(3.2, "cooking_stove", "on")]})
        labels = label_device_usage(slots, self.params(), vocab)
        assert labels.usages == [NONE, NONE, BEFORE, USE, AFTER, NONE, NONE]

    def test_no_operations_all_none(self, vocab):
        slots = make_slots(5)
        labels = label_device_usage(slots, self.params(), vocab)
        assert labels.usages == [NONE] * 5

    def test_cooking_duration_extends_use(self, vocab):
        slots = make_slots(8, events={2: [ev(2.5, "microwave", "on")]})
        labels = label_device_usage(slots, self.params(t_c=2), vocab)
        assert labels.usages == [NONE, BEFORE, USE, USE, USE, AFTER, NONE, NONE]

    def test_refrigerator_is_not_cooking(self, vocab):
        slots = make_slots(4, events={1: [ev(1.5, "refrigerator", "opening")]})
        labels = label_device_usage(slots, self.params(), vocab)
        assert labels.usages == [NONE] * 4

    def test_two_runs_within_fifteen_minutes_merge(self, vocab):
        slots = make_slots(
            16,
            events={2: [ev(2.5, "cooking_stove", "on")], 12: [ev(12.5, "cooking_stove", "off")]},
        )
        labels = label_device_usage(slots, self.params(), vocab)
        assert all(labels.usages[pos] == USE for pos in range(2, 13))

    def test_runs_beyond_merge_window_stay_separate(self, vocab):
        slots = make_slots(
            25,
            events={2: [ev(2.5, "cooking_stove", "on")], 20: [ev(20.5, "cooking_stove", "on")]},
        )
        labels = label_device_usage(slots, self.params(), vocab)
        assert labels.usages[10] == NONE
        assert labels.usages[2] == USE and labels.usages[20] == USE

    def test_fig2_window_pattern(self, vocab):
        # Isolated run with three slots of lead and two of lag:
        # before,before,before,use..use,after,after
        slots = make_slots(
            12, events={4: [ev(4.1, "cooking_stove", "on")], 6: [ev(6.9, "cooking_stove", "off")]}
        )
        labels = label_device_usage(slots, self.params(t_x=3, t_y=2), vocab)
        expected = [NONE, BEFORE, BEFORE, BEFORE, USE, USE, USE, AFTER, AFTER, NONE, NONE, NONE]
        assert labels.usages == expected

    def test_use_precedence_over_windows(self, vocab):
        # Two runs three minutes apart with merge disabled: the first run's
        # after window and second run's before window collide with use.
        slots = make_slots(
            8,
            events={2: [ev(2.5, "cooking_stove", "on")], 5: [ev(5.5, "cooking_stove", "on")]},
        )
        labels = label_device_usage(slots, self.params(t_x=3, t_y=3, use_gap_merge=0), vocab)
        assert labels.usages[2] == USE and labels.usages[5] == USE
        assert labels.usages[3] == BEFORE  # before beats after on overlap
        assert labels.usages[4] == BEFORE

    def test_windows_clip_at_calendar_day(self, vocab):
        start = datetime(2021, 3, 1, 23, 58, 0)
        slots = make_slots(6, start=start, events={1: [ev(1.5, "cooking_stove", "on", start)]})
        labels = label_device_usage(slots, self.params(t_x=3, t_y=3), vocab)
        # Slot 1 is 23:59; before reaches back within the day, after is cut
        # at midnight.
        assert labels.usages == [BEFORE, USE, NONE, NONE, NONE, NONE]

    def test_merge_monotonicity(self, vocab):
        slots = make_slots(
            40,
            events={5: [ev(5.5, "cooking_stove", "on")], 30: [ev(30.5, "cooking_stove", "on")]},
        )
        counts = []
        for gap in (0, 10, 20, 30):
            labels = label_device_usage(slots, self.params(use_gap_merge=gap), vocab)
            counts.append(sum(1 for u in labels.usages if u == USE))
        assert counts == sorted(counts)


class TestLabelStates:
    def test_totality_and_no_forbidden_pairs(self, vocab):
        slots = make_slots(
            30,
            events={
                3: [ev(3.5, "user_position", "exit")],
                10: [ev(10.5, "cooking_stove", "on")],
                20: [ev(20.5, "user_position", "entry")],
            },
        )
        events = [event for slot in slots for event in slot.events]
        labeled = decode_labels(
            slots, label_states(slots, events, LabelingParams(t_x=2, t_y=2, t_c=1), vocab)
        )
        assert len(labeled) == 30
        for item in labeled:
            assert item.state in ALPHABET
            assert item.entry_state in ALPHABET
            for state in item.event_states:
                assert state in ALPHABET

    def test_cooking_while_out_repaired_to_active(self, vocab):
        slots = make_slots(
            10,
            events={2: [ev(2.5, "user_position", "exit")], 6: [ev(6.5, "cooking_stove", "on")]},
        )
        events = [event for slot in slots for event in slot.events]
        labeled = decode_labels(
            slots, label_states(slots, events, LabelingParams(t_x=1, t_y=1, t_c=0), vocab)
        )
        assert labeled[6].state == HomeState(ACTIVE, USE)
        assert labeled[6].excluded_day

    def test_cooking_in_sleep_scoring_slot_forces_active(self, vocab):
        start = datetime(2021, 3, 1, 2, 0, 0)
        sensors = {pos: frame(start + timedelta(minutes=pos), co2=1800.0, noise=32.0)
                   for pos in range(10)}
        slots = make_slots(10, start=start, sensors=sensors,
                           events={5: [ev(5.5, "cooking_stove", "on", start)]})
        events = [event for slot in slots for event in slot.events]
        labeled = decode_labels(
            slots, label_states(slots, events, LabelingParams(t_x=1, t_y=1, t_c=0), vocab)
        )
        assert labeled[5].state == HomeState(ACTIVE, USE)

    def test_idempotent_relabeling(self, vocab):
        slots = make_slots(20, events={7: [ev(7.5, "cooking_stove", "on")]})
        events = [event for slot in slots for event in slot.events]
        params = LabelingParams(t_x=2, t_y=2, t_c=1)
        first = decode_labels(slots, label_states(slots, events, params, vocab))
        second = decode_labels(slots, label_states(slots, events, params, vocab))
        assert [(i.state, i.entry_state, i.event_states, i.excluded_day) for i in first] == [
            (i.state, i.entry_state, i.event_states, i.excluded_day) for i in second
        ]


class TestGoldenSample:
    def test_golden_rows_reproduced(self, golden_sample):
        slots = golden_sample.slots()
        labeled = decode_labels(slots, label_states(
            slots, golden_sample.events, golden_sample.params, golden_sample.vocabulary
        ))
        by_t = {item.slot.t: item for item in labeled}

        rows = []
        for t in (4318, 4319, 4320):
            item = by_t[t]
            rows.append((t, item.slot.k, item.entry_state.u.value, item.entry_state.d.value))
        op_slot = by_t[4320]
        for state in op_slot.event_states:
            rows.append((4320, op_slot.slot.k, state.u.value, state.d.value))
        for t in (4321, 4322):
            item = by_t[t]
            rows.append((t, item.slot.k, item.entry_state.u.value, item.entry_state.d.value))

        assert rows == golden_sample.expected_rows

    def test_slot_level_states(self, golden_sample):
        slots = golden_sample.slots()
        labeled = decode_labels(slots, label_states(
            slots, golden_sample.events, golden_sample.params, golden_sample.vocabulary
        ))
        by_t = {item.slot.t: item for item in labeled}
        assert by_t[4320].state == HomeState(ACTIVE, USE)
        assert by_t[4321].state == HomeState(ACTIVE, AFTER)
        assert by_t[4322].state == HomeState(SLEEP, NONE)
        assert not any(item.excluded_day for item in labeled)


@pytest.fixture(scope="module")
def s1_week():
    result = generate(scenario_s1(seed=3, n_days=7))
    slots = build_timeslots(result.events, result.frames)
    return slots, [event for slot in slots for event in slot.events]


def assert_labels_equal(got, expected):
    for f in fields(expected):
        a, b = getattr(got, f.name), getattr(expected, f.name)
        assert a == b if f.name == "pairs" else np.array_equal(a, b), f.name


class TestLabelStatesMatchesPerSlot:
    """Label arrays equal the encoding of states built slot by slot."""

    @pytest.mark.parametrize("t_x", [0, 1])
    def test_golden_sample(self, golden_sample, t_x):
        slots = golden_sample.slots()
        events = [event for slot in slots for event in slot.events]
        params = replace(golden_sample.params, t_x=t_x)
        expected = label_states_per_slot(slots, events, params, golden_sample.vocabulary)
        labels = label_states(slots, events, params, golden_sample.vocabulary)
        assert_labels_equal(labels, encode_labels(expected))

    @pytest.mark.parametrize("t_x", [0, 1, 15])
    @pytest.mark.parametrize("occupants", [0, 2])
    def test_synthetic_s1(self, s1_week, vocab, t_x, occupants):
        slots, events = s1_week
        params = LabelingParams(t_x=t_x, initial_occupants=occupants)
        expected = label_states_per_slot(slots, events, params, vocab)
        labels = label_states(slots, events, params, vocab)
        assert_labels_equal(labels, encode_labels(expected))
        # Starting from an empty home, early operations exclude their day.
        assert labels.excluded.any() == (occupants == 0)
        assert (np.bincount(labels.event_pos) > 1).any()

    @pytest.mark.parametrize("occupants", [0, 2])
    def test_day_origin_spanning_two_dates(self, s1_week, vocab, occupants):
        slots, events = s1_week
        frames = [slot.sensors for slot in slots[::720]]
        shifted = build_timeslots(events, frames, time(6, 30), default_frame=frames[0])
        params = LabelingParams(initial_occupants=occupants)
        expected = label_states_per_slot(shifted, events, params, vocab)
        labels = label_states(shifted, events, params, vocab)
        assert_labels_equal(labels, encode_labels(expected))
        assert labels.excluded.any() == (occupants == 0)

    def test_empty_stream(self, vocab):
        labels = label_states([], [], LabelingParams(), vocab)
        assert_labels_equal(labels, encode_labels([]))
        assert len(labels.state) == 0 and len(labels.event_state) == 0

    def test_repeated_pair_and_state_in_one_slot(self, vocab):
        slots = make_slots(
            6,
            events={
                2: [ev(2.1, "tv", "on"), ev(2.4, "tv", "on"), ev(2.6, "cooking_stove", "on"),
                    ev(2.8, "tv", "on")],
                3: [ev(3.5, "tv", "on")],
            },
        )
        events = [event for slot in slots for event in slot.events]
        params = LabelingParams(t_x=1, t_y=1, t_c=0)
        labels = label_states(slots, events, params, vocab)
        assert_labels_equal(labels, encode_labels(label_states_per_slot(slots, events, params, vocab)))
        # The stove flips the state inside slot 2, between the repeats.
        assert labels.event_state[0] == labels.event_state[1] != labels.event_state[3]


class TestCalendarDayBounds:
    @pytest.mark.parametrize("origin", [time(0, 0), time(6, 30)], ids=["midnight", "06:30"])
    def test_equal_the_scan(self, s1_week, origin):
        slots, events = s1_week
        # A grid day starting at 06:30 spans two calendar dates.
        frames = [slot.sensors for slot in slots[::720]]
        shifted = build_timeslots(events, frames, origin, default_frame=frames[0])
        for stream in (slots, shifted, shifted[100:2000], shifted[:1], []):
            assert labeling._calendar_day_bounds(stream) == calendar_day_bounds_scan(stream)

    def test_computed_once_per_labeling(self, s1_week, vocab, monkeypatch):
        slots, events = s1_week
        bounds = labeling._calendar_day_bounds
        calls = []

        def counting(stream):
            calls.append(len(stream))
            return bounds(stream)

        monkeypatch.setattr(labeling, "_calendar_day_bounds", counting)
        label_states(slots, events, LabelingParams(), vocab)
        assert calls == [len(slots)]
