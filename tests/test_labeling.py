"""User-activity and device-usage labeling rules."""

from dataclasses import fields, replace
from datetime import datetime, time, timedelta

import numpy as np
import pytest

from homeguard import labeling
from homeguard.ingest import SensorFrames, build_timeslots, floor_to_day_origin
from homeguard.labeling import (
    ALPHABET,
    DeviceUsage,
    HomeState,
    LabelingParams,
    UserActivity,
    export_labels,
    label_device_usage,
    label_states,
    label_user_activity,
)
from homeguard.synthgen import generate, scenario_s1

from conftest import ev, frame, make_grid
from oracles import (
    calendar_day_bounds_scan,
    columns,
    decode_labels,
    encode_labels,
    export_labels_rows,
    frame_rows,
    label_states_per_slot,
    slot_records,
)

ACTIVE, OUT, SLEEP = UserActivity.ACTIVE, UserActivity.OUT, UserActivity.SLEEP
USE, BEFORE, AFTER, NONE = (
    DeviceUsage.USE,
    DeviceUsage.BEFORE,
    DeviceUsage.AFTER,
    DeviceUsage.NONE,
)

NIGHT = datetime(2021, 3, 1, 2, 0, 0)  # 02:00, inside the night window
ACTIVITIES, USAGES = tuple(UserActivity), tuple(DeviceUsage)  # by channel code


def activities(grid, params, vocab) -> list[UserActivity]:
    return [ACTIVITIES[code] for code in label_user_activity(grid, params, vocab).activity]


def usages(grid, params, vocab) -> list[DeviceUsage]:
    return [USAGES[code] for code in label_device_usage(grid, params, vocab).usage]


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
        grid = make_grid(2, start=NIGHT, sensors=sensors)
        assert activities(grid, LabelingParams(), vocab) == [SLEEP, ACTIVE]

    def test_daytime_never_sleep(self, vocab):
        noon = datetime(2021, 3, 1, 12, 0, 0)
        grid = make_grid(1, start=noon, sensors={0: frame(noon, co2=1800.0, noise=32.0)})
        assert activities(grid, LabelingParams(), vocab) == [ACTIVE]

    def test_out_from_presence_bookkeeping(self, vocab):
        events = {2: [ev(2.5, "user_position", "exit")], 6: [ev(6.5, "user_position", "entry")]}
        labels = activities(make_grid(10, events=events), LabelingParams(initial_occupants=1), vocab)
        assert labels[0] == ACTIVE
        assert labels[3] == OUT
        assert labels[6] == ACTIVE  # entry lands mid-slot 6

    def test_operation_while_out_repairs_count_and_excludes_day(self, vocab):
        events = {1: [ev(1.2, "user_position", "exit")], 5: [ev(5.5, "tv", "on")]}
        labels = label_user_activity(make_grid(10, events=events), LabelingParams(), vocab)
        assert [ACTIVITIES[code] for code in labels.activity[[3, 5, 8]]] == [OUT, ACTIVE, ACTIVE]
        assert labels.excluded.all()  # every slot is on the operation's date

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
        grid = make_grid(61, start=NIGHT, sensors=sensors)
        assert activities(grid, LabelingParams(), vocab) == [SLEEP] * 61

    @pytest.mark.parametrize("gap", [89, 90, 91])
    def test_sleep_gap_merge_boundary(self, vocab, gap):
        # Sleep slots exactly sleep_gap_merge apart still merge.
        sensors = {pos: frame(NIGHT + timedelta(minutes=pos), co2=900.0, noise=45.0)
                   for pos in range(1, gap)}
        sensors[0] = sensors[gap] = frame(NIGHT, co2=1800.0, noise=32.0)
        grid = make_grid(gap + 1, start=NIGHT, sensors=sensors)
        labels = activities(grid, LabelingParams(sleep_gap_merge=90), vocab)
        assert labels[1:gap] == [SLEEP if gap <= 90 else ACTIVE] * (gap - 1)

    def test_sleep_gap_beyond_merge_window_stays(self, vocab):
        sensors = {}
        for pos in range(0, 101):
            sleepy = pos in (0, 100)
            sensors[pos] = frame(
                NIGHT + timedelta(minutes=pos),
                co2=1800.0 if sleepy else 900.0,
                noise=32.0 if sleepy else 45.0,
            )
        grid = make_grid(101, start=NIGHT, sensors=sensors)
        assert activities(grid, LabelingParams(), vocab)[50] == ACTIVE

    def test_late_night_operation_clears_sleep_before(self, vocab):
        # All night slots score sleep; an operation at 02:30 forces the five
        # preceding hours awake (clipped to the calendar day at 00:00).
        start = datetime(2021, 3, 1, 0, 0, 0)
        sensors = {pos: frame(start + timedelta(minutes=pos), co2=1800.0, noise=32.0)
                   for pos in range(240)}
        op = ev(150.5, "tv", "on", start=start)  # 02:30:30
        grid = make_grid(240, start=start, sensors=sensors, events={150: [op]})
        labels = activities(grid, LabelingParams(), vocab)
        assert labels[:151] == [ACTIVE] * 151
        assert labels[151] == SLEEP

    def test_morning_operation_clears_sleep_after(self, vocab):
        start = datetime(2021, 3, 1, 5, 0, 0)
        sensors = {pos: frame(start + timedelta(minutes=pos), co2=1800.0, noise=32.0)
                   for pos in range(290)}
        op = ev(30.5, "tv", "on", start=start)  # 05:30, within 5:00..9:59
        grid = make_grid(290, start=start, sensors=sensors, events={30: [op]})
        labels = activities(grid, LabelingParams(), vocab)
        assert labels[29] == SLEEP
        # 4 h = 240 slots from the operation's slot onward
        assert labels[30:271] == [ACTIVE] * 241
        assert labels[271] == SLEEP


class TestDeviceUsage:
    def params(self, **kw):
        defaults = dict(t_x=1, t_y=1, t_c=0)
        defaults.update(kw)
        return LabelingParams(**defaults)

    def test_single_operation_windows(self, vocab):
        grid = make_grid(7, events={3: [ev(3.2, "cooking_stove", "on")]})
        labels = usages(grid, self.params(), vocab)
        assert labels == [NONE, NONE, BEFORE, USE, AFTER, NONE, NONE]

    def test_no_operations_all_none(self, vocab):
        grid = make_grid(5)
        labels = usages(grid, self.params(), vocab)
        assert labels == [NONE] * 5

    def test_cooking_duration_extends_use(self, vocab):
        grid = make_grid(8, events={2: [ev(2.5, "microwave", "on")]})
        labels = usages(grid, self.params(t_c=2), vocab)
        assert labels == [NONE, BEFORE, USE, USE, USE, AFTER, NONE, NONE]

    def test_refrigerator_is_not_cooking(self, vocab):
        grid = make_grid(4, events={1: [ev(1.5, "refrigerator", "opening")]})
        labels = usages(grid, self.params(), vocab)
        assert labels == [NONE] * 4

    def test_two_runs_within_fifteen_minutes_merge(self, vocab):
        grid = make_grid(
            16,
            events={2: [ev(2.5, "cooking_stove", "on")], 12: [ev(12.5, "cooking_stove", "off")]},
        )
        labels = usages(grid, self.params(), vocab)
        assert all(labels[pos] == USE for pos in range(2, 13))

    @pytest.mark.parametrize("gap", [14, 15, 16])
    def test_merge_boundary(self, vocab, gap):
        # Use runs exactly use_gap_merge apart still merge.
        grid = make_grid(gap + 5, events={
            2: [ev(2.5, "cooking_stove", "on")], 2 + gap: [ev(2.5 + gap, "cooking_stove", "on")],
        })
        labels = usages(grid, self.params(use_gap_merge=15), vocab)
        assert (labels[3] == USE) == (gap <= 15)

    def test_runs_beyond_merge_window_stay_separate(self, vocab):
        grid = make_grid(
            25,
            events={2: [ev(2.5, "cooking_stove", "on")], 20: [ev(20.5, "cooking_stove", "on")]},
        )
        labels = usages(grid, self.params(), vocab)
        assert labels[10] == NONE
        assert labels[2] == USE and labels[20] == USE

    def test_fig2_window_pattern(self, vocab):
        # Isolated run with three slots of lead and two of lag:
        # before,before,before,use..use,after,after
        grid = make_grid(
            12, events={4: [ev(4.1, "cooking_stove", "on")], 6: [ev(6.9, "cooking_stove", "off")]}
        )
        labels = usages(grid, self.params(t_x=3, t_y=2), vocab)
        expected = [NONE, BEFORE, BEFORE, BEFORE, USE, USE, USE, AFTER, AFTER, NONE, NONE, NONE]
        assert labels == expected

    def test_use_precedence_over_windows(self, vocab):
        # Two runs three minutes apart with merge disabled: the first run's
        # after window and second run's before window collide with use.
        grid = make_grid(
            8,
            events={2: [ev(2.5, "cooking_stove", "on")], 5: [ev(5.5, "cooking_stove", "on")]},
        )
        labels = usages(grid, self.params(t_x=3, t_y=3, use_gap_merge=0), vocab)
        assert labels[2] == USE and labels[5] == USE
        assert labels[3] == BEFORE  # before beats after on overlap
        assert labels[4] == BEFORE

    def test_windows_clip_at_calendar_day(self, vocab):
        start = datetime(2021, 3, 1, 23, 58, 0)
        grid = make_grid(6, start=start, events={1: [ev(1.5, "cooking_stove", "on", start)]})
        labels = usages(grid, self.params(t_x=3, t_y=3), vocab)
        # Slot 1 is 23:59; before reaches back within the day, after is cut
        # at midnight.
        assert labels == [BEFORE, USE, NONE, NONE, NONE, NONE]

    def test_merge_monotonicity(self, vocab):
        grid = make_grid(
            40,
            events={5: [ev(5.5, "cooking_stove", "on")], 30: [ev(30.5, "cooking_stove", "on")]},
        )
        counts = []
        for gap in (0, 10, 20, 30):
            counts.append(usages(grid, self.params(use_gap_merge=gap), vocab).count(USE))
        assert counts == sorted(counts)


class TestLabelStates:
    def test_totality_and_no_forbidden_pairs(self, vocab):
        grid = make_grid(
            30,
            events={
                3: [ev(3.5, "user_position", "exit")],
                10: [ev(10.5, "cooking_stove", "on")],
                20: [ev(20.5, "user_position", "entry")],
            },
        )
        labeled = decode_labels(
            slot_records(grid), label_states(grid, LabelingParams(t_x=2, t_y=2, t_c=1), vocab)
        )
        assert len(labeled) == 30
        for item in labeled:
            assert item.state in ALPHABET
            assert item.entry_state in ALPHABET
            for state in item.event_states:
                assert state in ALPHABET

    def test_cooking_while_out_repaired_to_active(self, vocab):
        grid = make_grid(
            10,
            events={2: [ev(2.5, "user_position", "exit")], 6: [ev(6.5, "cooking_stove", "on")]},
        )
        labeled = decode_labels(
            slot_records(grid), label_states(grid, LabelingParams(t_x=1, t_y=1, t_c=0), vocab)
        )
        assert labeled[6].state == HomeState(ACTIVE, USE)
        assert labeled[6].excluded_day

    def test_cooking_in_sleep_scoring_slot_forces_active(self, vocab):
        start = datetime(2021, 3, 1, 2, 0, 0)
        sensors = {pos: frame(start + timedelta(minutes=pos), co2=1800.0, noise=32.0)
                   for pos in range(10)}
        grid = make_grid(10, start=start, sensors=sensors,
                         events={5: [ev(5.5, "cooking_stove", "on", start)]})
        labeled = decode_labels(
            slot_records(grid), label_states(grid, LabelingParams(t_x=1, t_y=1, t_c=0), vocab)
        )
        assert labeled[5].state == HomeState(ACTIVE, USE)

    def test_idempotent_relabeling(self, vocab):
        grid = make_grid(20, events={7: [ev(7.5, "cooking_stove", "on")]})
        params = LabelingParams(t_x=2, t_y=2, t_c=1)
        first = decode_labels(slot_records(grid), label_states(grid, params, vocab))
        second = decode_labels(slot_records(grid), label_states(grid, params, vocab))
        assert [(i.state, i.entry_state, i.event_states, i.excluded_day) for i in first] == [
            (i.state, i.entry_state, i.event_states, i.excluded_day) for i in second
        ]


class TestGoldenSample:
    def test_golden_rows_reproduced(self, golden_sample):
        grid = golden_sample.grid()
        labeled = decode_labels(slot_records(grid), label_states(
            grid, golden_sample.params, golden_sample.vocabulary
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
        grid = golden_sample.grid()
        labeled = decode_labels(slot_records(grid), label_states(
            grid, golden_sample.params, golden_sample.vocabulary
        ))
        by_t = {item.slot.t: item for item in labeled}
        assert by_t[4320].state == HomeState(ACTIVE, USE)
        assert by_t[4321].state == HomeState(ACTIVE, AFTER)
        assert by_t[4322].state == HomeState(SLEEP, NONE)
        assert not any(item.excluded_day for item in labeled)


@pytest.fixture(scope="module")
def s1_week():
    result = generate(scenario_s1(seed=3, n_days=7))
    return build_timeslots(result.events, result.frames)


def shifted(grid, origin):
    """``grid``'s events and a frame every 12 hours of it on a grid whose
    days start at ``origin``; a copy of the first frame stamped at the grid
    start fills the slots before it."""
    rows = frame_rows(grid.frames)
    frames = [rows[i] for i in grid.frame[::720]]
    start = floor_to_day_origin(min(grid.events[0].timestamp, frames[0].timestamp), origin)
    return build_timeslots(grid.events, columns([replace(frames[0], timestamp=start), *frames]),
                           origin)


def assert_labels_equal(got, expected):
    for f in fields(expected):
        a, b = getattr(got, f.name), getattr(expected, f.name)
        assert a == b if f.name == "pairs" else np.array_equal(a, b), f.name


def assert_labels_match_per_slot(grid, params, vocabulary):
    """``label_states`` on the grid equals, field by field, the encoding of
    the states the per-slot oracle builds from the grid's slot records."""
    expected = label_states_per_slot(slot_records(grid), grid.events, params, vocabulary)
    labels = label_states(grid, params, vocabulary)
    assert_labels_equal(labels, encode_labels(expected))
    return labels


class TestLabelStatesMatchesPerSlot:
    """Label arrays equal the encoding of states built slot by slot."""

    @pytest.mark.parametrize("t_x", [0, 1])
    def test_golden_sample(self, golden_sample, t_x):
        params = replace(golden_sample.params, t_x=t_x)
        assert_labels_match_per_slot(golden_sample.grid(), params, golden_sample.vocabulary)

    @pytest.mark.parametrize("t_x", [0, 1, 15])
    @pytest.mark.parametrize("occupants", [0, 2])
    def test_synthetic_s1(self, s1_week, vocab, t_x, occupants):
        params = LabelingParams(t_x=t_x, initial_occupants=occupants)
        labels = assert_labels_match_per_slot(s1_week, params, vocab)
        # Starting from an empty home, early operations exclude their day.
        assert labels.excluded.any() == (occupants == 0)
        assert (np.bincount(labels.event_pos) > 1).any()

    @pytest.mark.parametrize("occupants", [0, 2])
    def test_day_origin_spanning_two_dates(self, s1_week, vocab, occupants):
        params = LabelingParams(initial_occupants=occupants)
        labels = assert_labels_match_per_slot(shifted(s1_week, time(6, 30)), params, vocab)
        assert labels.excluded.any() == (occupants == 0)

    def test_empty_stream(self, vocab):
        labels = label_states(build_timeslots([], columns([])), LabelingParams(), vocab)
        assert_labels_equal(labels, encode_labels([]))
        assert len(labels.state) == 0 and len(labels.event_state) == 0

    def test_repeated_pair_and_state_in_one_slot(self, vocab):
        grid = make_grid(
            6,
            events={
                2: [ev(2.1, "tv", "on"), ev(2.4, "tv", "on"), ev(2.6, "cooking_stove", "on"),
                    ev(2.8, "tv", "on")],
                3: [ev(3.5, "tv", "on")],
            },
        )
        labels = assert_labels_match_per_slot(grid, LabelingParams(t_x=1, t_y=1, t_c=0), vocab)
        # The stove flips the state inside slot 2, between the repeats.
        assert labels.event_state[0] == labels.event_state[1] != labels.event_state[3]


class TestCalendarDays:
    @pytest.mark.parametrize("origin", [time(0, 0), time(6, 30), time(6, 30, 45)],
                             ids=["midnight", "06:30", "06:30:45"])
    def test_bounds_equal_the_scan(self, s1_week, origin):
        # A grid day starting at 06:30 spans two calendar dates.
        for grid in (s1_week, shifted(s1_week, origin), build_timeslots([], columns([]))):
            records = slot_records(grid)
            days = labeling._calendar_days(grid)
            assert (days.lo.tolist(), days.hi.tolist()) == calendar_day_bounds_scan(records)
            assert days.day.tolist() == [
                (slot.start.date() - records[0].start.date()).days for slot in records
            ]
            assert days.tod.tolist() == [
                (slot.start - datetime.combine(slot.start.date(), time())) // timedelta(microseconds=1)
                for slot in records
            ]

    def test_computed_once_per_labeling(self, s1_week, vocab, monkeypatch):
        days = labeling._calendar_days
        calls = []

        def counting(grid):
            calls.append(len(grid))
            return days(grid)

        monkeypatch.setattr(labeling, "_calendar_days", counting)
        label_states(s1_week, LabelingParams(), vocab)
        assert calls == [len(s1_week)]


class TestExportLabels:
    """``export_labels`` writes its columns at once, and the bytes of the
    per-slot writer."""

    @pytest.mark.parametrize("origin, occupants", [(time(0, 0), 2), (time(4, 0), 0)])
    def test_bytes_of_the_per_slot_writer(self, tmp_path, origin, occupants):
        result = generate(scenario_s1(seed=8, n_days=3))
        # The home from the first day origin on, so that the grid starts there.
        cut = datetime.combine(result.start.date(), origin)
        kept = result.frames.timestamps >= np.datetime64(cut)
        grid = build_timeslots(
            [event for event in result.events if event.timestamp >= cut],
            SensorFrames(result.frames.timestamps[kept], result.frames.values[kept]),
            origin,
        )
        assert grid.start == cut
        labels = label_states(grid, LabelingParams(initial_occupants=occupants))
        if occupants == 0:
            assert labels.excluded.any()  # nobody home at first excludes a date
        export_labels(grid, labels, tmp_path / "columns.csv")
        export_labels_rows(grid, labels, tmp_path / "rows.csv")
        assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_empty_grid_writes_the_header(self, tmp_path):
        grid = build_timeslots([], columns([]))
        export_labels(grid, label_states(grid, LabelingParams()), tmp_path / "labels.csv")
        assert (tmp_path / "labels.csv").read_bytes() == b"t,k,date,u,d,excluded\r\n"
