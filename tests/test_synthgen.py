"""Synthetic dataset generation: determinism, schema, label recoverability."""

from homeguard.ingest import build_timeslots, parse_operation_log, parse_sensor_log
from homeguard.labeling import LabelingParams, UserActivity, label_user_activity
from homeguard.synthgen import (
    generate,
    load_scenario,
    save_scenario,
    scenario_calibration,
    scenario_s1,
)
from homeguard.vocab import DEFAULT_SENSOR_RANGES, Vocabulary


def recovery_rate(scenario) -> float:
    result = generate(scenario)
    grid = build_timeslots(result.events, result.frames)
    assert len(grid) == len(result.truth)
    labels = label_user_activity(grid, LabelingParams(), Vocabulary())
    hits = sum(
        1 for code, row in zip(labels.activity.tolist(), result.truth)
        if tuple(UserActivity)[code].value == row.u
    )
    return hits / len(result.truth)


class TestGenerate:
    def test_one_day_truth_rows(self):
        scenario = scenario_s1(seed=1, n_days=1)
        result = generate(scenario)
        assert len(result.truth) == 1440
        assert result.truth[0].t == 1 and result.truth[-1].k == 1440

    def test_byte_identical_outputs(self, tmp_path):
        for trial in ("a", "b"):
            out = tmp_path / trial
            generate(scenario_s1(seed=9, n_days=3)).write(out)
        for name in ("operations.csv", "sensors.csv", "truth.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_seeds_change_output(self):
        a = generate(scenario_s1(seed=1, n_days=2))
        b = generate(scenario_s1(seed=2, n_days=2))
        assert a.events != b.events

    def test_zero_jitter_repeats_times_daily(self):
        scenario = scenario_calibration(seed=4, n_days=2)  # Monday + Tuesday
        result = generate(scenario)
        stove_times = [
            e.timestamp for e in result.events if e.device == "cooking_stove" and e.action == "on"
        ]
        day0 = [t.time() for t in stove_times if t.day == stove_times[0].day]
        day1 = [t.time() for t in stove_times if t.day != stove_times[0].day]
        # Same within-minute placement comes from per-day streams, so compare
        # at minute resolution.
        assert [(t.hour, t.minute) for t in day0] == [(t.hour, t.minute) for t in day1]

    def test_cooking_only_inside_sessions(self):
        scenario = scenario_s1(seed=5, n_days=4)
        result = generate(scenario)
        truth_by_t = {row.t: row for row in result.truth}
        for event in result.events:
            if event.device in ("cooking_stove", "microwave", "toaster_oven", "rice_cooker"):
                minute = int((event.timestamp - result.truth[0].start).total_seconds() // 60)
                assert truth_by_t[minute + 1].d == "use"

    def test_schema_conformance_via_ingest(self, tmp_path):
        paths = generate(scenario_s1(seed=6, n_days=2)).write(tmp_path)
        events = parse_operation_log(paths["operations"])
        frames = parse_sensor_log(paths["sensors"])  # default physical ranges
        assert events and frames
        assert len(build_timeslots(events, frames)) == 2 * 1440

    def test_sensor_values_within_ranges(self):
        result = generate(scenario_s1(seed=7, n_days=2))
        for frame in result.frames:
            for name, (low, high) in DEFAULT_SENSOR_RANGES.items():
                assert low <= frame.value(name) <= high

    def test_scenario_json_round_trip(self, tmp_path):
        scenario = scenario_s1(seed=8, n_days=3)
        path = tmp_path / "scenario.json"
        save_scenario(scenario, path)
        clone = load_scenario(path)
        assert generate(clone).events == generate(scenario).events


class TestLabelRecovery:
    def test_s1_recovers_most_user_activity(self):
        rate = recovery_rate(scenario_s1(seed=13, n_days=7))
        assert rate >= 0.95

    def test_noise_free_scenario_recovers_exactly(self):
        rate = recovery_rate(scenario_calibration(seed=13, n_days=4))
        assert rate == 1.0
