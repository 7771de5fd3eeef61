"""End-to-end command-line behavior, run in-process."""

import csv
import json
import os
import subprocess
import sys
from datetime import time
from pathlib import Path

import pytest

from homeguard import cli, evaluation
from homeguard.cli import main
from homeguard.detector import BaselineParams, Thresholds, judge_sequence_baseline
from homeguard.errors import ValidationError
from homeguard.evaluation import _candidate_thresholds
from homeguard.hsmodel import FORMAT_VERSION, TrainedModel, run_filter
from homeguard.ingest import (
    build_timeslots,
    parse_operation_log,
    parse_sensor_log,
    write_operation_log,
    write_sensor_log,
)
from homeguard.labeling import ALPHABET, LabelingParams
from homeguard.synthgen import generate, save_scenario, scenario_calibration, scenario_s1
from homeguard.vocab import Vocabulary

from conftest import GoldenSample
from oracles import columns, frontier_rows_loop, two_level_counts_loop, window_start
from test_detector import judge_one


@pytest.fixture
def golden_files(tmp_path, golden_sample: GoldenSample):
    ops = tmp_path / "ops.csv"
    sensors = tmp_path / "sensors.csv"
    vocab = tmp_path / "vocab.json"
    write_operation_log(golden_sample.events, ops)
    write_sensor_log(columns(golden_sample.frames), sensors)
    golden_sample.vocabulary.save(vocab)
    return ops, sensors, vocab


@pytest.fixture
def small_home(tmp_path):
    """Four noise-free days written as CSV logs."""
    result = generate(scenario_calibration(seed=2, n_days=4))
    paths = result.write(tmp_path / "data")
    return paths["operations"], paths["sensors"]


class TestLabelCommand:
    def test_golden_sample_label_columns(self, tmp_path, golden_files, golden_sample):
        ops, sensors, vocab = golden_files
        export = tmp_path / "labels.csv"
        events_csv = tmp_path / "event_labels.csv"
        code = main(
            [
                "label",
                "--operations", str(ops),
                "--sensors", str(sensors),
                "--vocabulary", str(vocab),
                "--day-origin", "23:59",
                "--t-x", "1", "--t-y", "1", "--t-c", "0",
                "--noise-threshold", "1500", "--co2-threshold", "35",
                "--export", str(export),
                "--events-csv", str(events_csv),
            ]
        )
        assert code == 0

        with export.open() as handle:
            rows = {int(row["t"]): row for row in csv.DictReader(handle)}
        # Slot-level labels around the golden fragment.
        assert (rows[4318]["u"], rows[4318]["d"]) == ("active", "none")
        assert (rows[4319]["u"], rows[4319]["d"]) == ("active", "before")
        assert (rows[4320]["u"], rows[4320]["d"]) == ("active", "use")
        assert (rows[4321]["u"], rows[4321]["d"]) == ("active", "after")
        assert (rows[4322]["u"], rows[4322]["d"]) == ("sleep", "none")
        assert rows[4320]["k"] == "1440" and rows[4321]["k"] == "1"

        with events_csv.open() as handle:
            event_rows = list(csv.DictReader(handle))
        assert [(r["device"], r["u"], r["d"]) for r in event_rows] == [
            ("refrigerator", "active", "before"),
            ("cooking_stove", "active", "use"),
        ]

    def test_missing_sensor_file_exits_2(self, tmp_path, golden_files):
        ops, _, vocab = golden_files
        code = main(
            ["label", "--operations", str(ops), "--sensors", str(tmp_path / "nope.csv"),
             "--vocabulary", str(vocab)]
        )
        assert code == 2

    @pytest.mark.parametrize("log", ["operations", "sensors"])
    @pytest.mark.parametrize("fault, named", [
        (b"\xff", "not UTF-8 text"),
        (b"4" * 200_000, "field larger than field limit (131072)"),
    ], ids=["not-utf8", "over-field-limit"])
    def test_csv_fault_exits_2_naming_file_and_line(self, tmp_path, golden_files, log, fault,
                                                    named, capsys):
        ops, sensors, vocab = golden_files
        path = ops if log == "operations" else sensors
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:2]) + lines[1].rstrip(b"\r\n") + fault + b"\r\n")
        code = main(["label", "--operations", str(ops), "--sensors", str(sensors),
                     "--vocabulary", str(vocab)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"line 3: {path}" in err and named in err

    def test_summary_to_stdout_without_export(self, golden_files, capsys):
        ops, sensors, vocab = golden_files
        code = main(
            ["label", "--operations", str(ops), "--sensors", str(sensors),
             "--vocabulary", str(vocab), "--day-origin", "23:59"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "slots=" in out and "active:none" in out


class TestTrainCommand:
    def test_train_writes_model_with_ten_states(self, tmp_path, small_home):
        ops, sensors = small_home
        model_path = tmp_path / "model.json"
        code = main(
            ["train", "--operations", str(ops), "--sensors", str(sensors),
             "--output", str(model_path), "--t-x", "3", "--t-y", "3", "--t-c", "2"]
        )
        assert code == 0
        payload = json.loads(model_path.read_text())
        assert "states" not in payload
        assert len(payload["store"]["slot_counts"]) == 10
        assert len(payload["b"]["cooking_stove:on"]) == 10
        assert payload["format_version"] == FORMAT_VERSION == 3

    def test_retrain_byte_identical(self, tmp_path, small_home):
        ops, sensors = small_home
        first = tmp_path / "m1.json"
        second = tmp_path / "m2.json"
        for path in (first, second):
            assert main(
                ["train", "--operations", str(ops), "--sensors", str(sensors),
                 "--output", str(path)]
            ) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_empty_log_exits_2(self, tmp_path):
        ops = tmp_path / "ops.csv"
        sensors = tmp_path / "sensors.csv"
        ops.write_text("timestamp,device,action,actor\n")
        sensors.write_text(
            "timestamp,temperature,humidity,atmosphere,co2,noise\n"
            "2021-03-01T00:00:00,21,50,1010,600,45\n"
        )
        code = main(
            ["train", "--operations", str(ops), "--sensors", str(sensors),
             "--output", str(tmp_path / "model.json")]
        )
        assert code == 2


class TestDetectCommand:
    @pytest.fixture
    def trained(self, tmp_path, small_home):
        ops, sensors = small_home
        model_path = tmp_path / "model.json"
        assert main(
            ["train", "--operations", str(ops), "--sensors", str(sensors),
             "--output", str(model_path)]
        ) == 0
        return model_path

    @pytest.mark.parametrize("method", ["proposed", "estimation", "sequence"])
    def test_stream_without_target_ops(self, tmp_path, trained, method, capsys):
        ops = tmp_path / "stream_ops.csv"
        sensors = tmp_path / "stream_sensors.csv"
        ops.write_text(
            "timestamp,device,action,actor\n2021-04-01T10:00:00,tv,on,\n"
        )
        sensors.write_text(
            "timestamp,temperature,humidity,atmosphere,co2,noise\n"
            "2021-04-01T00:00:00,21,50,1010,600,45\n"
        )
        code = main(
            ["detect", "--model", str(trained), "--operations", str(ops),
             "--sensors", str(sensors), "--method", method]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        out = tmp_path / "verdicts.jsonl"
        assert main(["detect", "--model", str(trained), "--operations", str(ops),
                     "--sensors", str(sensors), "--method", method, "--output", str(out)]) == 0
        assert out.read_text() == ""

    def test_verdict_fields(self, tmp_path, trained):
        ops = tmp_path / "stream_ops.csv"
        sensors = tmp_path / "stream_sensors.csv"
        ops.write_text(
            "timestamp,device,action,actor\n"
            "2021-04-01T07:28:10,refrigerator,opening,\n"
            "2021-04-01T07:30:05,cooking_stove,on,\n"
        )
        sensors.write_text(
            "timestamp,temperature,humidity,atmosphere,co2,noise\n"
            "2021-04-01T00:00:00,21,50,1010,600,45\n"
        )
        out_path = tmp_path / "verdicts.jsonl"
        code = main(
            ["detect", "--model", str(trained), "--operations", str(ops),
             "--sensors", str(sensors), "--method", "proposed",
             "--n-single", "0.001", "--n-multi", "0.001",
             "--output", str(out_path)]
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 1
        verdict = json.loads(lines[0])
        assert verdict["device"] == "cooking_stove"
        assert verdict["method"] == "proposed"
        assert verdict["decision"] in ("legitimate", "anomalous")
        assert 0.0 <= verdict["delta"] <= 1.0

    def test_config_file_supplies_thresholds(self, tmp_path, trained):
        ops = tmp_path / "stream_ops.csv"
        sensors = tmp_path / "stream_sensors.csv"
        ops.write_text(
            "timestamp,device,action,actor\n2021-04-01T07:30:05,cooking_stove,on,\n"
        )
        sensors.write_text(
            "timestamp,temperature,humidity,atmosphere,co2,noise\n"
            "2021-04-01T00:00:00,21,50,1010,600,45\n"
        )
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"detector": {"n_single": 1.0, "n_multi": 1.0}}))
        out_path = tmp_path / "verdicts.jsonl"
        code = main(
            ["detect", "--model", str(trained), "--operations", str(ops),
             "--sensors", str(sensors), "--config", str(config),
             "--output", str(out_path)]
        )
        assert code == 0
        verdict = json.loads(out_path.read_text().splitlines()[0])
        assert verdict["threshold"] == 1.0

    def test_unknown_device_skipped(self, tmp_path, trained, capsys):
        ops = tmp_path / "stream_ops.csv"
        sensors = tmp_path / "stream_sensors.csv"
        ops.write_text(
            "timestamp,device,action,actor\n2021-04-01T10:00:00,teleporter,engage,\n"
        )
        sensors.write_text(
            "timestamp,temperature,humidity,atmosphere,co2,noise\n"
            "2021-04-01T00:00:00,21,50,1010,600,45\n"
        )
        code = main(
            ["detect", "--model", str(trained), "--operations", str(ops),
             "--sensors", str(sensors)]
        )
        assert code == 0


    @pytest.mark.parametrize("version", [1, 2])
    def test_format_version_1_model_exits_2(self, tmp_path, trained, small_home, version,
                                            capsys):
        ops, sensors = small_home
        payload = json.loads(trained.read_text())
        payload["format_version"] = version
        payload["seq_params"]["argmax_slot_counting"] = False
        model = tmp_path / "old.json"
        model.write_text(json.dumps(payload))
        code = main(["detect", "--model", str(model), "--operations", str(ops),
                     "--sensors", str(sensors)])
        assert code == 2
        assert f"unsupported model format_version {version}" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["proposed", "estimation", "sequence"])
    def test_windows_match_a_scan_of_every_earlier_event(self, tmp_path, trained, small_home,
                                                         method, monkeypatch):
        ops, sensors = small_home
        judge_name = {"proposed": "judge_proposed", "estimation": "judge_estimation_baseline",
                      "sequence": "judge_sequence_baseline"}[method]
        judge = getattr(cli, judge_name)
        windows, calls = [], []

        def recording_judge(*args):
            calls.append(judge_name)
            batch = args[1] if method == "sequence" else args[2]
            windows.extend(list(preceding) for preceding, _ in batch)
            return judge(*args)

        monkeypatch.setattr(cli, judge_name, recording_judge)
        out_path = tmp_path / "verdicts.jsonl"
        assert main(["detect", "--model", str(trained), "--operations", str(ops),
                     "--sensors", str(sensors), "--method", method,
                     "--n-single", "0.01", "--n-multi", "0.01", "--output", str(out_path)]) == 0

        model = TrainedModel.load(trained)
        target = model.vocabulary.detection_target
        grid = build_timeslots(
            parse_operation_log(ops, model.vocabulary, on_unknown="skip"),
            parse_sensor_log(sensors, ranges=model.vocabulary.sensor_ranges),
        )
        trace = run_filter(grid, model.transitions, model.operations)
        stream = [grid.events[i] for i in trace.event_index]
        expected_windows, expected = [], []
        for idx, op in enumerate(stream):
            if op.device != target:
                continue
            preceding = [
                e for e in stream[:idx]
                if (op.timestamp - e.timestamp).total_seconds() <= model.seq_params.t_seq
            ]
            expected_windows.append(preceding)
            if method == "proposed":
                verdict = judge_one(judge, model, trace.pre[idx], preceding, op,
                                    Thresholds(0.01, 0.01))
            elif method == "estimation":
                verdict = judge_one(judge, model.operations, trace.pre[idx], preceding, op,
                                    BaselineParams().theta, target)
            else:
                [verdict] = judge(
                    model.baseline_store, [(preceding, op)], BaselineParams(), model.seq_params,
                    target,
                )
            expected.append(verdict.to_jsonl())
        assert any(expected_windows)
        assert windows == expected_windows
        # Each method judges the whole stream in one batch.
        assert calls == [judge_name]
        assert out_path.read_text().splitlines() == expected


    def test_sequence_method_runs_no_filter(self, tmp_path, trained, small_home, monkeypatch):
        ops, sensors = small_home
        model = TrainedModel.load(trained)
        target = model.vocabulary.detection_target
        grid = build_timeslots(
            parse_operation_log(ops, model.vocabulary, on_unknown="skip"),
            parse_sensor_log(sensors, ranges=model.vocabulary.sensor_ranges),
        )
        # The stream as the filter's trace gives it, as detect read it before.
        event_index = run_filter(grid, model.transitions, model.operations).event_index
        stream = [grid.events[i] for i in event_index]
        times = [event.timestamp for event in stream]
        expected = [
            judge_sequence_baseline(
                model.baseline_store,
                [(stream[window_start(times, op.timestamp, model.seq_params.t_seq) : idx], op)],
                BaselineParams(), model.seq_params, target,
            )[0].to_jsonl()
            for idx, op in enumerate(stream) if op.device == target
        ]
        assert expected

        def no_filter(*args, **kwargs):
            raise AssertionError("the filter ran")

        monkeypatch.setattr(cli, "run_filter", no_filter)
        argv = ["detect", "--model", str(trained), "--operations", str(ops),
                "--sensors", str(sensors)]
        out_path = tmp_path / "verdicts.jsonl"
        assert main([*argv, "--method", "sequence", "--output", str(out_path)]) == 0
        assert out_path.read_text() == "\n".join(expected) + "\n"
        # The methods that read a belief still run it.
        assert main([*argv, "--method", "estimation"]) == 3


@pytest.fixture(scope="module")
def model_home(tmp_path_factory):
    """A four-day home and the payload of a model trained on it."""
    root = tmp_path_factory.mktemp("model_home")
    paths = generate(scenario_calibration(seed=2, n_days=4)).write(root / "data")
    model_path = root / "model.json"
    assert main(["train", "--operations", str(paths["operations"]),
                 "--sensors", str(paths["sensors"]), "--output", str(model_path)]) == 0
    return paths["operations"], paths["sensors"], json.loads(model_path.read_text())


def set_key(section, key, value):
    def edit(payload):
        payload[section][key] = value
    return edit


def drop_key(key):
    return lambda payload: payload.pop(key)


def replace_key(key, value):
    return lambda payload: payload.update({key: value})


def short_b_vector(payload):
    payload["b"]["cooking_stove:on"] = [0.5]


def negative_b_vector(payload):
    payload["b"]["cooking_stove:on"] = [-0.5] * len(ALPHABET)


def drop_b_vector(payload):
    del payload["b"]["tv:on"]


def add_action(device, action):
    """Register ``action`` of ``device`` in the model's vocabulary."""
    def edit(payload):
        payload["vocabulary"]["pairs"].setdefault(device, []).append(action)
    return edit


def a_row_value(value):
    """Set the first value of the model's first transition row."""
    def edit(payload):
        row = next(iter(next(iter(payload["a"].values())).values()))
        row[0] = value
    return edit


class TestMalformedModel:
    """A model file that ``train`` could not have written exits 2 with a
    message naming the fault, whichever method reads it."""

    def detect(self, tmp_path, model_home, edit, method, capsys):
        ops, sensors, payload = model_home
        payload = json.loads(json.dumps(payload))
        edit(payload)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        code = main(["detect", "--model", str(model), "--operations", str(ops),
                     "--sensors", str(sensors), "--method", method])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("method", ["proposed", "estimation", "sequence"])
    @pytest.mark.parametrize(
        "edit, named",
        [
            (drop_key("b"), "b: missing"),
            (set_key("seq_params", "bogus", 1), "'bogus'"),
            (set_key("model_params", "bogus", 1), "'bogus'"),
            (set_key("labeling_params", "bogus", 1), "'bogus'"),
            (set_key("seq_params", "w_max", "16"), "seq_params.w_max"),
            (set_key("labeling_params", "night_split", "noon"), "labeling_params.night_split"),
            (replace_key("states", [state.key for state in ALPHABET]), "unknown key 'states'"),
            (short_b_vector, "'cooking_stove:on'"),
            (replace_key("store", None), "store"),
            (replace_key("baseline_store", None), "baseline_store"),
            (set_key("vocabulary", "pairs", 5), "vocabulary.pairs"),
            (set_key("vocabulary", "sensor_ranges", {"co2": "high"}),
             "vocabulary.sensor_ranges.co2"),
            (set_key("vocabulary", "sensor_ranges", {"co2": [5000, 0]}),
             "vocabulary: sensor_ranges.co2: range [5000.0, 0.0] has its low end above"),
            (set_key("vocabulary", "bogus", 1), "'bogus'"),
            (replace_key("vocabulary", []), "vocabulary"),
            (a_row_value("x"), "a: transition slot"),
            (a_row_value(float("nan")), "a: transition slot"),
            (replace_key("t_z", "abc"), "t_z"),
            (replace_key("t_z", [0]), "t_z"),
            (set_key("baseline_store", "target_total", "x"), "target_total"),
            (negative_b_vector, "'cooking_stove:on'"),
            (set_key("store", "slot_counts", [5]), "slot_counts"),
            (set_key("store", "counts", []), "counts"),
            (set_key("baseline_store", "times", 5), "times"),
            (set_key("store", "n_states", 10), "store: unknown key 'n_states'"),
            (set_key("seq_params", "t_seq", 10**30), "t_seq"),
            (replace_key("bogus", 1), "unknown key 'bogus'"),
            (set_key("store", "extra", 1), "store: unknown key 'extra'"),
            (set_key("baseline_store", "extra", 1), "baseline_store: unknown key 'extra'"),
            (set_key("store", "criterion", "rank"), "store: unknown key 'criterion'"),
            (set_key("model_params", "slot_seconds", 60),
             "model_params: unknown key 'slot_seconds'"),
            (set_key("seq_params", "alpha_select_below", False),
             "seq_params: unknown key 'alpha_select_below'"),
            (add_action("tv:big", "on"), "vocabulary: pairs.tv:big"),
            (add_action("tv", "on|dim"), "vocabulary: pairs.tv[2]"),
            (set_key("b", "foo:bar", [0.5] * len(ALPHABET)), "b: unknown key 'foo:bar'"),
            (set_key("b", "tvon", [0.5] * len(ALPHABET)), "b: unknown key 'tvon'"),
            (drop_b_vector, "b.tv:on: missing"),
        ],
        ids=["no-b", "seq-bogus", "model-bogus", "labeling-bogus", "w_max-text",
             "night_split-text", "states", "short-b", "store-null", "baseline_store-null",
             "vocabulary-pairs", "vocabulary-ranges", "vocabulary-range-inverted",
             "vocabulary-bogus", "vocabulary-list",
             "a-row-text", "a-row-nan", "t_z-text", "t_z-short", "target_total-text",
             "b-negative", "slot_counts-short", "counts-list", "times-int", "store-n_states",
             "t_seq-huge", "top-bogus", "store-extra", "baseline_store-extra", "store-criterion",
             "slot_seconds", "alpha_select_below", "device-colon", "action-bar",
             "b-unregistered", "b-no-colon", "b-missing"],
    )
    def test_exits_2_naming_the_fault(self, tmp_path, model_home, edit, named, method, capsys):
        code, err = self.detect(tmp_path, model_home, edit, method, capsys)
        assert code == 2, err
        assert named in err

    @pytest.mark.parametrize("method", ["proposed", "estimation", "sequence"])
    @pytest.mark.parametrize("section, entry", [("store", "counts"), ("baseline_store", "times")])
    @pytest.mark.parametrize(
        "key",
        ["tv:on", "", "bogus", "nosuch:thing|cooking_stove:on", "cooking_stove:ignite",
         "cooking_stove:on|"],
        ids=["no-target-item", "empty", "no-colon", "unregistered-item", "unregistered-action",
             "empty-item"],
    )
    def test_store_key_outside_the_vocabulary_exits_2(
        self, tmp_path, model_home, section, entry, key, method, capsys
    ):
        # A stored sequence holds registered pairs, one on the detection
        # target; any other key would never match a judged candidate.
        def edit(payload):
            stored = payload[section][entry]
            stored[key] = list(next(iter(stored.values())))

        code, err = self.detect(tmp_path, model_home, edit, method, capsys)
        assert code == 2, err
        assert f"{section}.{entry}.{key}: " in err

    def test_missing_file_exits_2(self, tmp_path, model_home, capsys):
        ops, sensors, _ = model_home
        missing = tmp_path / "absent.json"
        code = main(["detect", "--model", str(missing), "--operations", str(ops),
                     "--sensors", str(sensors)])
        assert code == 2
        assert str(missing) in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path, model_home, capsys):
        ops, sensors, _ = model_home
        model = tmp_path / "model.json"
        model.write_text('{"format_version": 3,')
        code = main(["detect", "--model", str(model), "--operations", str(ops),
                     "--sensors", str(sensors)])
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().err


class TestBadConfig:
    """A config file that cannot be read, or names a key no section has,
    exits 2 with a message naming the file and the section."""

    def run(self, model_home, config, command):
        ops, sensors, _ = model_home
        argv = ["--operations", str(ops), "--sensors", str(sensors), "--config", str(config)]
        if command == "train":
            return main(["train", *argv, "--output", str(config.parent / "model.json")])
        model = config.parent / "model.json"
        model.write_text(json.dumps(model_home[2]))
        return main(["detect", "--model", str(model), *argv])

    def test_missing_file_exits_2(self, tmp_path, model_home, capsys):
        config = tmp_path / "absent.json"
        assert self.run(model_home, config, "train") == 2
        assert str(config) in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path, model_home, capsys):
        config = tmp_path / "config.json"
        config.write_text("{seq: 1}")
        assert self.run(model_home, config, "train") == 2
        err = capsys.readouterr().err
        assert str(config) in err and "not valid JSON" in err

    @pytest.mark.parametrize(
        "command, content, named",
        [
            ("train", {"seq": {"bogus": 1}}, "seq: unknown key 'bogus'"),
            ("train", {"labeling": {"bogus": 1}}, "labeling: unknown key 'bogus'"),
            ("train", {"model": {"t_z_max": "wide"}}, "model.t_z_max"),
            ("detect", {"detector": {"bogus": 1}}, "detector: unknown key 'bogus'"),
            ("detect", {"detector": {"n_single": "high"}}, "detector.n_single"),
            ("train", {"labeling": {"night_split": "5:0"}}, "labeling.night_split"),
            ("train", {"labeling": {"night_window": ["22:00", "24:00"]}},
             "labeling.night_window[1]"),
            ("train", {"model": {"slot_seconds": 60}}, "model: unknown key 'slot_seconds'"),
            ("train", {"seq": {"alpha_select_below": False}},
             "seq: unknown key 'alpha_select_below'"),
        ],
        ids=["seq-bogus", "labeling-bogus", "model-text", "detector-bogus", "detector-text",
             "night_split-short", "night_window-24", "slot_seconds", "alpha_select_below"],
    )
    def test_bad_section_exits_2(self, tmp_path, model_home, command, content, named, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(content))
        assert self.run(model_home, config, command) == 2
        err = capsys.readouterr().err
        assert str(config) in err and named in err


    @pytest.mark.parametrize("command", ["train", "detect"])
    def test_unknown_section_exits_2(self, tmp_path, model_home, command, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"sq": {"t_seq": 5}}))
        assert self.run(model_home, config, command) == 2
        err = capsys.readouterr().err
        assert str(config) in err and "unknown key 'sq'" in err


class TestBadVocabulary:
    """A vocabulary file that is missing, not JSON, or of the wrong shape
    exits 2 with a message naming the file and the key."""

    def run(self, tmp_path, model_home, command, vocabulary):
        ops, sensors, _ = model_home
        argv = [command, "--operations", str(ops), "--sensors", str(sensors),
                "--vocabulary", str(vocabulary)]
        if command == "train":
            argv += ["--output", str(tmp_path / "model.json")]
        elif command == "evaluate":
            argv += ["--output-dir", str(tmp_path / "eval")]
        return main(argv)

    @pytest.mark.parametrize("command", ["label", "train", "evaluate"])
    def test_missing_file_exits_2(self, tmp_path, model_home, command, capsys):
        vocabulary = tmp_path / "absent.json"
        assert self.run(tmp_path, model_home, command, vocabulary) == 2
        assert str(vocabulary) in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["label", "train", "evaluate"])
    def test_invalid_json_exits_2(self, tmp_path, model_home, command, capsys):
        vocabulary = tmp_path / "vocab.json"
        vocabulary.write_text('{"pairs": ')
        assert self.run(tmp_path, model_home, command, vocabulary) == 2
        err = capsys.readouterr().err
        assert str(vocabulary) in err and "not valid JSON" in err

    @pytest.mark.parametrize("command", ["label", "train", "evaluate"])
    @pytest.mark.parametrize(
        "content, named",
        [
            ({"pairs": 5}, "pairs: expected a JSON object"),
            ({"pairs": {"tv": "on"}}, "pairs.tv: expected a JSON list"),
            ({"cooking_appliances": "cooking_stove"}, "cooking_appliances: expected a JSON list"),
            ({"detection_target": 3}, "detection_target: expected text"),
            ({"presence_device": ["user_position"]}, "presence_device: expected text"),
            ({"sensor_ranges": {"co2": [0]}}, "sensor_ranges.co2: expected a list of 2 values"),
            ({"sensor_ranges": {"co3": [0, 5000]}}, "sensor_ranges: unknown key 'co3'"),
            ({"sensor_ranges": {"co2": [0, float("nan")]}}, "sensor_ranges.co2[1]"),
            ({"sensor_ranges": {"co2": [5000, 0]}},
             "sensor_ranges.co2: range [5000.0, 0.0] has its low end above its high end"),
            ({"pair": {}}, "'pair'"),
            ([], "JSON object"),
            ({"detection_target": "kettle"}, "'kettle'"),
        ],
        ids=["pairs-int", "pairs-text", "cooking-text", "target-int", "presence-list",
             "range-short", "range-unknown", "range-nan", "range-inverted", "unknown-key",
             "not-object",
             "target-unknown"],
    )
    def test_bad_shape_exits_2(self, tmp_path, model_home, command, content, named, capsys):
        vocabulary = tmp_path / "vocab.json"
        vocabulary.write_text(json.dumps(content))
        assert self.run(tmp_path, model_home, command, vocabulary) == 2
        err = capsys.readouterr().err
        assert str(vocabulary) in err and named in err

    # A model file keys a pair as "device:action", split at the first ":",
    # and a sequence as its pairs joined by "|".
    @pytest.mark.parametrize("command", ["label", "train", "evaluate"])
    @pytest.mark.parametrize(
        "device, action, named",
        [("tv:big", "on", "pairs.tv:big"), ("tv|big", "on", "pairs.tv|big"),
         ("tv", "on|dim", "pairs.tv[2]")],
        ids=["device-colon", "device-bar", "action-bar"],
    )
    def test_name_a_model_file_cannot_hold_exits_2(
        self, tmp_path, model_home, command, device, action, named, capsys
    ):
        pairs = {name: list(actions) for name, actions in Vocabulary().pairs.items()}
        pairs.setdefault(device, []).append(action)
        vocabulary = tmp_path / "vocab.json"
        vocabulary.write_text(json.dumps({"pairs": pairs}))
        assert self.run(tmp_path, model_home, command, vocabulary) == 2
        err = capsys.readouterr().err
        assert str(vocabulary) in err and named in err and "may not contain" in err

    def test_action_with_a_colon_survives_the_model_file(self, tmp_path, model_home):
        vocabulary = Vocabulary(pairs={**Vocabulary().pairs, "tv": ("on", "off", "on:high")})
        path = tmp_path / "vocab.json"
        vocabulary.save(path)
        assert self.run(tmp_path, model_home, "train", path) == 0
        model = TrainedModel.load(tmp_path / "model.json")
        assert model.vocabulary == vocabulary
        # Registered but never seen: the neutral all-ones vector.
        assert model.operations.vector(("tv", "on:high")).tolist() == [1.0] * len(ALPHABET)

    def test_saved_vocabulary_loads_back(self, tmp_path):
        vocabulary = Vocabulary(pairs={**Vocabulary().pairs, "kettle": ("on",)},
                                cooking_appliances=("kettle",), detection_target="kettle")
        path = tmp_path / "vocab.json"
        vocabulary.save(path)
        assert Vocabulary.load(path) == vocabulary


class TestDayOrigin:
    @pytest.mark.parametrize("text", ["xx", "24:00", "12:60", "1:5", "123:00", "", "12:00:00",
                                      "-1:30", "\uff11\uff12:00", "7.30"])
    def test_malformed_exits_2(self, golden_files, text, capsys):
        ops, sensors, vocab = golden_files
        code = main(["label", "--operations", str(ops), "--sensors", str(sensors),
                     "--vocabulary", str(vocab), f"--day-origin={text}"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--day-origin" in err and repr(text) in err

    @pytest.mark.parametrize("text, expected", [("0:00", time(0, 0)), ("7:05", time(7, 5)),
                                                ("07:05", time(7, 5)), ("23:59", time(23, 59))])
    def test_h_mm_and_hh_mm_accepted(self, text, expected):
        assert cli._parse_time(text) == expected


class TestDateRangeEnds:
    """Logs whose grid days reach past the dates a ``datetime`` holds exit 2
    naming the timestamp; logs just inside the range run."""

    def write_logs(self, tmp_path, day):
        ops = tmp_path / "ops.csv"
        sensors = tmp_path / "sensors.csv"
        ops.write_text("timestamp,device,action,actor\n"
                       f"{day}T00:03:00,cooking_stove,on,\n{day}T10:00:00,tv,on,\n")
        sensors.write_text("timestamp,temperature,humidity,atmosphere,co2,noise\n"
                           f"{day}T00:00:00,21,50,1010,600,45\n")
        return ops, sensors

    def write_model(self, tmp_path, model_home):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(model_home[2]))
        return model

    @pytest.mark.parametrize("command, day, origin, named", [
        ("train", "9999-12-31", "00:00", "9999-12-31 10:00:00"),
        ("detect", "9999-12-31", "00:00", "9999-12-31 10:00:00"),
        ("detect", "0001-01-01", "04:00", "0001-01-01 00:00:00"),
    ])
    def test_grid_outside_the_dates_exits_2(self, tmp_path, model_home, command, day, origin,
                                            named, capsys):
        ops, sensors = self.write_logs(tmp_path, day)
        argv = [command, "--operations", str(ops), "--sensors", str(sensors),
                "--day-origin", origin]
        if command == "train":
            argv += ["--output", str(tmp_path / "out.json")]
        else:
            argv += ["--model", str(self.write_model(tmp_path, model_home))]
        assert main(argv) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["proposed", "estimation", "sequence"])
    def test_first_minutes_of_year_1_detect(self, tmp_path, model_home, method):
        # The target operation comes less than t_seq after the first instant
        # a datetime holds, so its window reaches back past it.
        ops, sensors = self.write_logs(tmp_path, "0001-01-01")
        out = tmp_path / "verdicts.jsonl"
        assert main(["detect", "--model", str(self.write_model(tmp_path, model_home)),
                     "--operations", str(ops), "--sensors", str(sensors),
                     "--method", method, "--output", str(out)]) == 0
        [verdict] = [json.loads(line) for line in out.read_text().splitlines()]
        assert verdict["timestamp"] == "0001-01-01T00:03:00"


def test_benchmark_tracer_finds_every_name_it_wraps(tmp_path):
    """The benchmark's tracer wraps program functions by name and crashes
    before writing its status file when one is missing."""
    root = Path(__file__).resolve().parents[1]
    status = tmp_path / "status.json"
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "child.py"), "cli", "--trace",
         "--status", str(status), "--"],
        cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, timeout=60,
    )
    assert status.is_file(), proc.stderr
    assert json.loads(status.read_text())["exit_code"] == 2


class TestEvaluateCommand:
    def run_eval(self, out_dir, ops, sensors, seed=3):
        return main(
            ["evaluate", "--operations", str(ops), "--sensors", str(sensors),
             "--output-dir", str(out_dir), "--methods", "sequence",
             "--injections", "20", "--seed", str(seed),
             "--alpha-seq-values", "900,3600",
             "--best-at", "0.10"]
        )

    def test_outputs_and_determinism(self, tmp_path, small_home, capsys):
        ops, sensors = small_home
        first = tmp_path / "run1"
        second = tmp_path / "run2"
        assert self.run_eval(first, ops, sensors) == 0
        assert self.run_eval(second, ops, sensors) == 0
        out = capsys.readouterr().out
        assert "sequence:" in out
        for name in ("results_sequence.csv", "frontier_sequence.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_jobs_other_than_one_exits_2(self, tmp_path, small_home, capsys):
        ops, sensors = small_home
        with pytest.raises(SystemExit) as exit_info:
            main(["evaluate", "--operations", str(ops), "--sensors", str(sensors),
                  "--output-dir", str(tmp_path / "eval"), "--jobs", "2"])
        assert exit_info.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_all_methods_write_three_frontiers(self, tmp_path, small_home):
        ops, sensors = small_home
        out_dir = tmp_path / "eval"
        code = main(
            ["evaluate", "--operations", str(ops), "--sensors", str(sensors),
             "--output-dir", str(out_dir), "--methods", "all",
             "--injections", "10", "--seed", "1",
             "--t-x-values", "3", "--t-y-values", "3", "--t-c-values", "2",
             "--l-values", "1", "--alpha-seq-values", "900"]
        )
        assert code == 0
        for method in ("proposed", "estimation", "sequence"):
            assert (out_dir / f"frontier_{method}.csv").exists()

    def test_half_auto_grid_keeps_its_fixed_list(self, tmp_path, small_home, monkeypatch):
        scores = []
        sweep = evaluation._sweep_two_level

        def recording(method, base, s1, s2, injected, *args, **kwargs):
            scores.append((s1, s2, injected))
            return sweep(method, base, s1, s2, injected, *args, **kwargs)

        monkeypatch.setattr(evaluation, "_sweep_two_level", recording)
        ops, sensors = small_home
        out_dir = tmp_path / "eval"
        assert main(["evaluate", "--operations", str(ops), "--sensors", str(sensors),
                     "--output-dir", str(out_dir), "--methods", "proposed",
                     "--n-single-values", "auto", "--n-multi-values", "0.05"]) == 0
        with (out_dir / "results_proposed.csv").open(newline="") as handle:
            rows = [(json.loads(row["params_json"]), int(row["tp"]), int(row["fp"]))
                    for row in csv.DictReader(handle)]
        assert rows and {params["n_multi"] for params, _, _ in rows} == {0.05}
        [(s1, s2, injected)] = scores
        table = two_level_counts_loop(s1, s2, injected, _candidate_thresholds(s1), (0.05,))
        assert sorted((params["n_single"], tp, fp) for params, tp, fp in rows) == sorted(
            (n_single, tp, fp) for n_single, _, tp, fp in frontier_rows_loop(table)
        )


    @pytest.mark.parametrize("methods, named", [
        ("proposed,bogus", "'bogus'"),
        ("sequence,sequence", "'sequence'"),
        ("proposed,", "''"),
        ("all,estimation", "'all'"),
    ])
    def test_bad_methods_exit_2_before_any_work(self, tmp_path, small_home, monkeypatch,
                                                methods, named, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("evaluate read its input before checking --methods")

        monkeypatch.setattr(cli, "parse_operation_log", no_work)
        ops, sensors = small_home
        out_dir = tmp_path / "eval"
        code = main(["evaluate", "--operations", str(ops), "--sensors", str(sensors),
                     "--output-dir", str(out_dir), "--methods", methods])
        assert code == 2
        err = capsys.readouterr().err
        assert "--methods" in err and named in err
        assert not out_dir.exists()

    # "auto" sweeps a threshold over the recorded scores; a structural value
    # list has nothing to sweep over, and an empty list would judge nothing.
    @pytest.mark.parametrize("option, text", [
        ("--l-values", "1.5"),
        ("--l-values", "auto"),
        ("--t-x-values", "x"),
        ("--t-c-values", "auto"),
        ("--t-y-values", ","),
        ("--alpha-seq-values", "900,soon"),
        ("--alpha-seq-values", "auto"),
        ("--n-single-values", ""),
        ("--theta-values", "high"),
    ])
    def test_bad_value_list_exits_2_before_any_work(self, tmp_path, small_home, monkeypatch,
                                                    option, text, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("evaluate read its input before checking its value lists")

        monkeypatch.setattr(cli, "parse_operation_log", no_work)
        ops, sensors = small_home
        code = main(["evaluate", "--operations", str(ops), "--sensors", str(sensors),
                     "--output-dir", str(tmp_path / "eval"), f"{option}={text}"])
        assert code == 2
        err = capsys.readouterr().err
        assert option in err and repr(text) in err

    @pytest.mark.parametrize("option", ["--seed", "--injections"])
    def test_negative_count_exits_2_before_any_work(self, tmp_path, small_home, monkeypatch,
                                                    option, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError(f"evaluate read its input before checking {option}")

        monkeypatch.setattr(cli, "parse_operation_log", no_work)
        ops, sensors = small_home
        out_dir = tmp_path / "eval"
        code = main(["evaluate", "--operations", str(ops), "--sensors", str(sensors),
                     "--output-dir", str(out_dir), option, "-1"])
        assert code == 2
        err = capsys.readouterr().err
        assert option in err and "-1" in err
        assert not out_dir.exists()

    def test_more_injections_than_seconds_in_a_day_exit_2_before_any_work(
            self, tmp_path, small_home, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("evaluate read its input before checking --injections")

        monkeypatch.setattr(cli, "parse_operation_log", no_work)
        ops, sensors = small_home
        out_dir = tmp_path / "eval"
        code = main(["evaluate", "--operations", str(ops), "--sensors", str(sensors),
                     "--output-dir", str(out_dir), "--injections", "86401"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--injections" in err and "86401" in err and "86400" in err
        assert not out_dir.exists()

    def test_all_methods_equal_one_method_runs(self, tmp_path, small_home, capsys):
        ops, sensors = small_home
        common = ["--operations", str(ops), "--sensors", str(sensors),
                  "--injections", "10", "--seed", "2", "--best-at", "0.5",
                  "--t-x-values", "3", "--t-y-values", "3", "--t-c-values", "2,3",
                  "--l-values", "1,2", "--alpha-seq-values", "900,3600"]
        together = tmp_path / "together"
        assert main(["evaluate", *common, "--output-dir", str(together),
                     "--methods", "sequence,proposed,estimation"]) == 0
        lines = capsys.readouterr().out.splitlines()
        alone_lines = []
        for method in ("sequence", "proposed", "estimation"):
            alone = tmp_path / method
            assert main(["evaluate", *common, "--output-dir", str(alone),
                         "--methods", method]) == 0
            alone_lines += capsys.readouterr().out.splitlines()
            for name in (f"results_{method}.csv", f"frontier_{method}.csv"):
                assert (together / name).read_bytes() == (alone / name).read_bytes()
        assert lines == alone_lines
        assert [line.split(":")[0] for line in lines] == ["sequence", "proposed", "estimation"]


class TestSynthCommand:
    @pytest.mark.parametrize("flags, config, named", [
        (["--days", "-2"], None, "--days"),
        (["--days", "0"], None, "--days"),
        (["--days", "0"], {"days": 2}, "--days"),
        (["--days", "732"], None, "--days"),
        (["--days", "100000"], {"days": 2}, "--days"),
        ([], {"days": "x"}, "key 'days'"),
        ([], {"days": 0.5}, "key 'days'"),
        ([], {"days": 0}, "key 'days'"),
        ([], {"days": -3}, "key 'days'"),
        ([], {"days": True}, "key 'days'"),
        ([], {"days": None}, "key 'days'"),
        ([], {"days": 732}, "key 'days'"),
    ])
    def test_bad_days_exit_2(self, tmp_path, flags, config, named, capsys):
        argv = ["synth", "--scenario", "calibration", "--output-dir", str(tmp_path / "out"),
                *flags]
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert named in err
        assert not (tmp_path / "out").exists()

    def test_config_days_honored_and_flag_wins(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"days": 2}))
        for flags, days in (([], 2), (["--days", "1"], 1)):
            out = tmp_path / f"out{days}"
            assert main(["synth", "--scenario", "calibration", "--output-dir", str(out),
                         "--config", str(config), *flags]) == 0
            truth_lines = (out / "truth.csv").read_text().splitlines()
            assert len(truth_lines) == 1 + days * 1440

    def test_synth_writes_dataset(self, tmp_path, capsys):
        out_dir = tmp_path / "synth"
        code = main(
            ["synth", "--scenario", "calibration", "--output-dir", str(out_dir),
             "--seed", "5", "--days", "2"]
        )
        assert code == 0
        assert (out_dir / "operations.csv").exists()
        assert (out_dir / "truth.csv").exists()
        truth_lines = (out_dir / "truth.csv").read_text().splitlines()
        assert len(truth_lines) == 1 + 2 * 1440

    def synth(self, out, *flags):
        assert main(["synth", "--output-dir", str(out), "--days", "1", *flags]) == 0
        return (out / "operations.csv").read_bytes()

    def test_scenario_file_keeps_its_seed(self, tmp_path):
        files = {}
        for seed in (1, 5):
            files[seed] = tmp_path / f"seed{seed}.json"
            save_scenario(scenario_s1(seed=seed, n_days=1), files[seed])
        one = self.synth(tmp_path / "one", "--scenario", str(files[1]))
        five = self.synth(tmp_path / "five", "--scenario", str(files[5]))
        assert one != five
        assert five == self.synth(tmp_path / "s1-five", "--scenario", "s1", "--seed", "5")
        # The flag overrides the file; without it a built-in scenario uses 0.
        assert one == self.synth(tmp_path / "flag", "--scenario", str(files[5]), "--seed", "1")
        assert self.synth(tmp_path / "s1", "--scenario", "s1") == self.synth(
            tmp_path / "s1-zero", "--scenario", "s1", "--seed", "0"
        )

    @pytest.mark.parametrize("scenario, flags, named", [
        ("s1", ["--seed", "-1"], "--seed"),
        ("calibration", ["--seed", "-1"], "--seed"),
        ("file", ["--seed", "-2"], "--seed"),
        ("negative-file", [], "seed"),
    ])
    def test_negative_seed_exits_2(self, tmp_path, scenario, flags, named, capsys):
        if scenario.endswith("file"):
            path = tmp_path / "scenario.json"
            save_scenario(scenario_s1(n_days=1), path)
            if scenario == "negative-file":
                path.write_text(json.dumps({**json.loads(path.read_text()), "seed": -3}))
            scenario = str(path)
        argv = ["synth", "--scenario", scenario, "--output-dir", str(tmp_path / "out"), *flags]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert named in err and "non-negative" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit, named", [
        ({"seed": 1.5}, "seed"),
        ({"seed": True}, "seed"),
        ({"n_days": "2"}, "n_days"),
        ({"n_days": 100000}, "n_days"),
        ({"weekday": None}, "weekday"),
        ({"weekday": {"sleep": [[0, 1440]]}}, "weekday.sleep[0]"),
        ({"weekday": {"out": [[60]]}}, "weekday.out[0]"),
        ({"weekday": {"cook": [{"duration": 5}]}}, "weekday.cook[0].start_minute"),
        ({"weekday": {"cook": [{"start_minute": 5, "duration": 5, "lead_ops": [["tv", "on", "x"]]}]}},
         "weekday.cook[0].lead_ops[0]"),
        ({"weekend": {"nap": []}}, "weekend"),
        ({"sensor_interval_minutes": 0}, "sensor_interval_minutes"),
        ({"jitter_std_minutes": -1.0}, "jitter_std_minutes"),
        ({"jitter_std_minutes": float("inf")}, "jitter_std_minutes"),
        ({"start_date": "03/01/2021"}, "start_date"),
        ({"start_date": "9999-12-31", "n_days": 2}, "start_date"),
        ({"habits": [["tv", "on", "active"]]}, "habits[0]"),
        ({"habits": [["tv", "on", "active", "often"]]}, "habits[0]"),
        ({"sensors": {"co2": {"base": 600.0, "noise_std": -1.0}}}, "sensors.co2: noise_std"),
        ({"sensors": {"radon": {"base": 1.0}}}, "sensors"),
        ({"bogus": 1}, "bogus"),
        ([], "scenario"),
    ])
    def test_malformed_scenario_file_exits_2(self, tmp_path, edit, named, capsys):
        path = tmp_path / "scenario.json"
        save_scenario(scenario_s1(n_days=1), path)
        payload = edit if isinstance(edit, list) else {**json.loads(path.read_text()), **edit}
        path.write_text(json.dumps(payload))
        argv = ["synth", "--scenario", str(path), "--output-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", [None, "{not json"], ids=["missing", "not-json"])
    def test_unreadable_scenario_file_exits_2(self, tmp_path, text, capsys):
        path = tmp_path / "scenario.json"
        if text is not None:
            path.write_text(text)
        argv = ["synth", "--scenario", str(path), "--output-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        assert str(path) in capsys.readouterr().err

    def test_synth_deterministic(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert main(
                ["synth", "--scenario", "s1", "--output-dir", str(out),
                 "--seed", "9", "--days", "2"]
            ) == 0
        assert (a / "operations.csv").read_bytes() == (b / "operations.csv").read_bytes()
        assert (a / "sensors.csv").read_bytes() == (b / "sensors.csv").read_bytes()


class TestNonFiniteTolerances:
    """A tolerance that is not a finite number exits 2 naming its option,
    wherever it comes from, before any scoring."""

    @pytest.mark.parametrize("text", ["nan", "inf", "1e30", "1e12"])
    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_t_seq_flag(self, tmp_path, model_home, command, text, capsys):
        ops, sensors, _ = model_home
        argv = [command, "--operations", str(ops), "--sensors", str(sensors), "--t-seq", text]
        if command == "train":
            argv += ["--output", str(tmp_path / "model.json")]
        else:
            argv += ["--output-dir", str(tmp_path / "eval"), "--injections", "2"]
        assert main(argv) == 2
        assert "t_seq" in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 10**30])
    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_t_seq_in_config(self, tmp_path, model_home, command, value, capsys):
        ops, sensors, _ = model_home
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seq": {"t_seq": value}}))  # writes NaN / Infinity
        argv = [command, "--operations", str(ops), "--sensors", str(sensors),
                "--config", str(config)]
        if command == "train":
            argv += ["--output", str(tmp_path / "model.json")]
        else:
            argv += ["--output-dir", str(tmp_path / "eval"), "--injections", "2"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(config) in err and "t_seq" in err

    @pytest.mark.parametrize("method", ["proposed", "sequence"])
    def test_t_seq_in_model(self, tmp_path, model_home, method, capsys):
        ops, sensors, payload = model_home
        payload = json.loads(json.dumps(payload))
        payload["seq_params"]["t_seq"] = float("nan")
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        assert main(["detect", "--model", str(model), "--operations", str(ops),
                     "--sensors", str(sensors), "--method", method]) == 2
        assert "t_seq" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, text", [("--noise-threshold", "nan"),
                                            ("--co2-threshold", "inf"),
                                            ("--co2-threshold", "-inf")])
    @pytest.mark.parametrize("command", ["label", "train"])
    def test_labeling_threshold_flag(self, tmp_path, model_home, command, flag, text, capsys):
        ops, sensors, _ = model_home
        argv = [command, "--operations", str(ops), "--sensors", str(sensors), f"{flag}={text}"]
        if command == "train":
            argv += ["--output", str(tmp_path / "model.json")]
        assert main(argv) == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("name", ["noise_threshold", "co2_threshold"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 10**400])
    def test_labeling_threshold_in_config(self, tmp_path, model_home, name, value, capsys):
        ops, sensors, _ = model_home
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"labeling": {name: value}}))  # writes NaN / Infinity
        assert main(["train", "--operations", str(ops), "--sensors", str(sensors),
                     "--config", str(config), "--output", str(tmp_path / "model.json")]) == 2
        err = capsys.readouterr().err
        assert str(config) in err and f"labeling.{name}" in err
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("name", ["noise_threshold", "co2_threshold"])
    def test_labeling_threshold_in_model(self, tmp_path, model_home, name, capsys):
        ops, sensors, payload = model_home
        payload = json.loads(json.dumps(payload))
        payload["labeling_params"][name] = float("nan")
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        assert main(["detect", "--model", str(model), "--operations", str(ops),
                     "--sensors", str(sensors)]) == 2
        assert f"labeling_params.{name}" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["noise_threshold", "co2_threshold"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_labeling_threshold_from_python(self, name, value):
        with pytest.raises(ValidationError, match=name):
            LabelingParams(**{name: value})

    @pytest.mark.parametrize("text", ["nan", "inf", "-1"])
    def test_alpha_seq_flag_of_detect(self, tmp_path, model_home, text, capsys):
        ops, sensors, payload = model_home
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        out = tmp_path / "verdicts.jsonl"
        assert main(["detect", "--model", str(model), "--operations", str(ops),
                     "--sensors", str(sensors), "--method", "sequence",
                     "--alpha-seq", text, "--output", str(out)]) == 2
        assert "alpha_seq" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["900,nan", "inf", "900,-5"])
    def test_alpha_seq_values_of_evaluate(self, tmp_path, model_home, monkeypatch, text, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("evaluate read its input before checking --alpha-seq-values")

        monkeypatch.setattr(cli, "parse_operation_log", no_work)
        ops, sensors, _ = model_home
        out_dir = tmp_path / "eval"
        assert main(["evaluate", "--operations", str(ops), "--sensors", str(sensors),
                     "--output-dir", str(out_dir), "--methods", "sequence",
                     "--alpha-seq-values", text]) == 2
        assert "--alpha-seq-values" in capsys.readouterr().err
        assert not out_dir.exists()


class TestThresholdValues:
    """evaluate's fixed threshold lists and --best-at hold numbers in [0, 1],
    as Thresholds and BaselineParams require, and its labeling and l lists
    keep the rules of LabelingParams and SeqParams; any other value exits 2
    naming its option before any input is read."""

    class Reached(BaseException):
        """Raised where evaluate reads its input; main turns an Exception
        into exit 3, so this one is not."""

    def run(self, tmp_path, model_home, monkeypatch, *options):
        def reached(*args, **kwargs):
            raise self.Reached

        monkeypatch.setattr(cli, "parse_operation_log", reached)
        ops, sensors, _ = model_home
        return main(["evaluate", "--operations", str(ops), "--sensors", str(sensors),
                     "--output-dir", str(tmp_path / "eval"), *options])

    @pytest.mark.parametrize("option, method, text", [
        ("--n-single-values", "proposed", "nan,0.1"),
        ("--n-single-values", "proposed", "0.1,1.5"),
        ("--n-multi-values", "proposed", "-0.1"),
        ("--n-multi-values", "proposed", "inf"),
        ("--n-seq-single-values", "sequence", "nan,0.1"),
        ("--n-seq-single-values", "sequence", "2"),
        ("--n-seq-multi-values", "sequence", "0.1,-1"),
        ("--theta-values", "estimation", "2"),
        ("--theta-values", "estimation", "nan,2"),
        ("--n-single-values", "all", "nan"),
    ])
    def test_value_outside_0_1_exits_2(self, tmp_path, model_home, monkeypatch, option,
                                       method, text, capsys):
        assert self.run(tmp_path, model_home, monkeypatch, "--methods", method,
                        f"{option}={text}") == 2
        err = capsys.readouterr().err
        assert option in err and repr(text) in err and "[0, 1]" in err
        assert not (tmp_path / "eval").exists()

    # (option, method that reads it, list, the repeated value as the message shows it)
    REPEATED = [
        ("--t-x-values", "proposed", "15,30,15", "15"),
        ("--t-y-values", "estimation", "15,15", "15"),
        ("--t-c-values", "sequence", "20,20", "20"),
        ("--l-values", "proposed", "1,2,1", "1"),
        ("--n-single-values", "proposed", "0.01,0.01", "0.01"),
        ("--n-multi-values", "proposed", "0,0.05,0.050", "0.05"),
        ("--theta-values", "estimation", "0.1,0.5,0.1", "0.1"),
        ("--alpha-seq-values", "sequence", "900,900", "900.0"),
        ("--n-seq-single-values", "sequence", "0,0.1,0", "0.0"),
        ("--n-seq-multi-values", "sequence", "1,1.0", "1.0"),
    ]

    @pytest.mark.parametrize("option, method, text, shown", REPEATED)
    def test_repeated_value_exits_2(self, tmp_path, model_home, monkeypatch, option, method,
                                    text, shown, capsys):
        assert self.run(tmp_path, model_home, monkeypatch, "--methods", method,
                        f"{option}={text}") == 2
        assert f"{option}: {shown} is given more than once" in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()

    def test_every_value_list_is_checked_for_repeats(self):
        args = cli.build_parser().parse_args(
            ["evaluate", "--operations", "o", "--sensors", "s", "--output-dir", "d"]
        )
        lists = {f"--{name.replace('_', '-')}" for name in vars(args) if name.endswith("_values")}
        assert lists == {option for option, *_ in self.REPEATED}

    @pytest.mark.parametrize("text", ["nan", "-0.1", "1.5", "inf"])
    def test_best_at_outside_0_1_exits_2(self, tmp_path, model_home, monkeypatch, text, capsys):
        assert self.run(tmp_path, model_home, monkeypatch, "--best-at", text) == 2
        err = capsys.readouterr().err
        assert "--best-at" in err and "[0, 1]" in err
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("options, shown", [
        (("--criterion", "alpha", "--l-values", "0.5,1.5"), "--l-values: l_alpha: must be in"
                                                            " [0, 1], got 1.5"),
        (("--criterion", "alpha", "--l-values", "nan"), "--l-values: l_alpha: must be in"
                                                        " [0, 1], got nan"),
        (("--l-values=1,-1",), "--l-values: l_rank: must be non-negative, got -1"),
        (("--t-x-values=-3",), "--t-x-values: t_x: must be non-negative, got -3"),
        (("--t-y-values=15,-1",), "--t-y-values: t_y: must be non-negative, got -1"),
        (("--t-c-values=-2,20",), "--t-c-values: t_c: must be non-negative, got -2"),
    ], ids=["l_alpha-above-1", "l_alpha-nan", "l_rank-negative", "t_x", "t_y", "t_c"])
    def test_structural_value_outside_its_rule_exits_2(self, tmp_path, model_home, monkeypatch,
                                                        options, shown, capsys):
        assert self.run(tmp_path, model_home, monkeypatch, "--methods", "proposed",
                        *options) == 2
        assert shown in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("methods", ["estimation", "proposed,sequence"])
    def test_injection_the_vocabulary_lacks_exits_2(self, tmp_path, model_home, monkeypatch,
                                                    methods, capsys):
        # inject_anomalies turns the detection target "on", an action this
        # vocabulary does not register.
        vocabulary = tmp_path / "vocab.json"
        Vocabulary(pairs={**Vocabulary().pairs, "cooking_stove": ("ignite", "off")}).save(
            vocabulary
        )
        assert self.run(tmp_path, model_home, monkeypatch, "--methods", methods,
                        "--vocabulary", str(vocabulary)) == 2
        err = capsys.readouterr().err
        assert "('cooking_stove', 'on')" in err and str(vocabulary) in err
        assert not (tmp_path / "eval").exists()
        # Without injections no such operation is judged.
        with pytest.raises(self.Reached):
            self.run(tmp_path, model_home, monkeypatch, "--methods", methods,
                     "--vocabulary", str(vocabulary), "--injections", "0")

    @pytest.mark.parametrize("criterion, l_values", [("rank", "0,1"), ("alpha", "0,1")])
    def test_bounds_are_allowed(self, tmp_path, model_home, monkeypatch, criterion, l_values):
        with pytest.raises(self.Reached):
            self.run(tmp_path, model_home, monkeypatch, "--methods", "all",
                     "--n-single-values", "0,1", "--n-multi-values", "0.0,1.0",
                     "--theta-values", "0,0.5,1", "--n-seq-single-values", "1",
                     "--n-seq-multi-values", "0", "--best-at", "1",
                     "--t-x-values", "0,15", "--t-y-values", "0", "--t-c-values", "0",
                     "--criterion", criterion, "--l-values", l_values)
