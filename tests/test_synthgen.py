"""Synthetic dataset generation: determinism, schema, label recoverability,
and the same bytes as the minute-by-minute generator."""

from dataclasses import replace
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

from homeguard.ingest import (
    build_timeslots,
    parse_operation_log,
    parse_sensor_log,
    write_operation_log,
)
from homeguard.labeling import LabelingParams, UserActivity, label_user_activity
from homeguard.synthgen import (
    generate,
    load_scenario,
    save_scenario,
    scenario_calibration,
    scenario_s1,
)
from homeguard.vocab import DEFAULT_SENSOR_RANGES, SENSOR_FIELDS, Vocabulary

from oracles import generate_rows, write_sensor_log_rows, write_truth_rows


def recovery_rate(scenario) -> float:
    result = generate(scenario)
    grid = build_timeslots(result.events, result.frames)
    assert len(grid) == len(result.activity)
    labels = label_user_activity(grid, LabelingParams(), Vocabulary())
    names = np.array([activity.value for activity in UserActivity])
    return float(np.mean(names[labels.activity] == result.activity))


def assert_same_files_as_the_per_minute_generator(scenario, tmp_path) -> None:
    """``generate`` writes the bytes that the minute-by-minute generator's
    records write."""
    paths = generate(scenario).write(tmp_path / "columns")
    events, frames, truth = generate_rows(scenario)
    rows = tmp_path / "rows"
    rows.mkdir()
    write_operation_log(events, rows / "operations.csv")
    write_sensor_log_rows(frames, rows / "sensors.csv")
    write_truth_rows(truth, rows / "truth.csv")
    for path in paths.values():
        assert path.read_bytes() == (rows / path.name).read_bytes(), path.name


class TestGenerate:
    def test_one_day_truth_columns(self):
        scenario = scenario_s1(seed=1, n_days=1)
        result = generate(scenario)
        assert len(result.activity) == len(result.cooking) == 1440
        assert result.start == datetime(2021, 3, 1)
        assert set(result.activity.tolist()) == {"active", "sleep", "out"}

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
        for event in result.events:
            if event.device in ("cooking_stove", "microwave", "toaster_oven", "rice_cooker"):
                minute = int((event.timestamp - result.start).total_seconds() // 60)
                assert result.cooking[minute]

    def test_schema_conformance_via_ingest(self, tmp_path):
        paths = generate(scenario_s1(seed=6, n_days=2)).write(tmp_path)
        events = parse_operation_log(paths["operations"])
        frames = parse_sensor_log(paths["sensors"])  # default physical ranges
        assert events and len(frames.timestamps)
        assert len(build_timeslots(events, frames)) == 2 * 1440

    def test_sensor_values_within_ranges(self):
        result = generate(scenario_s1(seed=7, n_days=2))
        low, high = np.array([DEFAULT_SENSOR_RANGES[name] for name in SENSOR_FIELDS]).T
        assert ((low <= result.frames.values) & (result.frames.values <= high)).all()

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


class TestSameBytesAsPerMinute:
    @pytest.mark.parametrize("factory", [scenario_s1, scenario_calibration])
    @pytest.mark.parametrize("seed", [0, 11])
    def test_builtin_scenarios(self, tmp_path, factory, seed):
        # Nine days from a Monday take in a weekend.
        assert_same_files_as_the_per_minute_generator(factory(seed=seed, n_days=9), tmp_path)

    def test_halfway_readings_round_as_python_does(self, tmp_path):
        # np.round(x, 2) gives another last digit for each of these bases.
        scenario = scenario_calibration(seed=0, n_days=1)
        for name, base in zip(SENSOR_FIELDS, (0.015, 0.025, 260.015, 0.065, 30.045)):
            assert round(base, 2) != np.round(base, 2)
            scenario.sensors[name] = replace(scenario.sensors[name], base=base)
        assert_same_files_as_the_per_minute_generator(scenario, tmp_path)

    def test_integer_sensor_values_from_a_scenario_file(self, tmp_path):
        # JSON keeps whole numbers as ints; the readings are floats all the same.
        scenario = scenario_s1(seed=5, n_days=2)
        for name in SENSOR_FIELDS:
            channel = scenario.sensors[name]
            scenario.sensors[name] = replace(
                channel, base=round(channel.base), sleep_offset=round(channel.sleep_offset),
                out_offset=round(channel.out_offset), cook_offset=round(channel.cook_offset),
                noise_std=round(channel.noise_std),
            )
        save_scenario(scenario, tmp_path / "scenario.json")
        loaded = load_scenario(tmp_path / "scenario.json")
        assert all(type(loaded.sensors[name].base) is int for name in SENSOR_FIELDS)
        assert_same_files_as_the_per_minute_generator(loaded, tmp_path)

    def test_dense_habits(self, tmp_path):
        scenario = scenario_s1(seed=23, n_days=3)
        scenario.habits = tuple(replace(h, rate_per_hour=h.rate_per_hour * 20)
                                for h in scenario.habits)
        assert_same_files_as_the_per_minute_generator(scenario, tmp_path)


# The jitter scenarios: scenario_s1 with the schedule's jitter at each σ.
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


@pytest.mark.parametrize("sigma", [30, 60, 120])
def test_jitter_scenario_file_is_s1_with_its_jitter(sigma):
    scenario = load_scenario(SCENARIOS / f"s1-jitter-{sigma}.json")
    assert scenario == replace(scenario_s1(), jitter_std_minutes=sigma)
