"""The JSON form of the parameter classes, and the rules every reader keeps."""

import json
from datetime import date, time

import pytest

from homeguard.detector import BaselineParams, Thresholds
from homeguard.errors import ValidationError
from homeguard.hsmodel import ModelParams
from homeguard.labeling import LabelingParams
from homeguard.payload import json_object, like, record, to_payload, typed
from homeguard.seqstore import SeqParams


def text(value) -> str:
    """JSON text that tells 35 from 35.0."""
    return json.dumps(value, sort_keys=True)


@pytest.mark.parametrize("params, payload", [
    (LabelingParams(), {
        "t_x": 15, "t_y": 15, "t_c": 20, "night_window": ["22:00", "09:59"],
        "night_split": "05:00", "noise_threshold": 35.0, "co2_threshold": 1500.0,
        "sleep_gap_merge": 90, "use_gap_merge": 15, "presleep_hours": 5,
        "postsleep_hours": 4, "initial_occupants": 1,
    }),
    (ModelParams(), {"t_z_max": 720}),
    (SeqParams(), {
        "t_seq": 600.0, "criterion": "rank", "l_rank": 1, "l_alpha": 0.1, "l_max": 5,
        "w_max": 16,
    }),
    (Thresholds(), {"n_single": 0.0, "n_multi": 0.0}),
    (BaselineParams(), {
        "theta": 0.5, "alpha_seq": 900.0, "n_seq_single": 0.1, "n_seq_multi": 0.1,
    }),
], ids=["labeling", "model", "seq", "thresholds", "baseline"])
def test_parameter_payloads_are_pinned(params, payload):
    assert text(to_payload(params)) == text(payload)
    assert record(type(params))(payload, "") == params


def test_an_int_for_a_float_is_kept_as_given():
    params = record(LabelingParams)({"noise_threshold": 36, "night_split": "4:30"}, "")
    assert text(to_payload(params)["noise_threshold"]) == "36"
    assert to_payload(params)["night_split"] == "04:30"


@pytest.mark.parametrize("value, kind", [
    (True, int), (False, float), (1.0, int), (float("nan"), float), (float("inf"), float),
    (10**400, float), (1, bool), ("1", int), (1, str), ({}, list),
])
def test_typed_rejects(value, kind):
    with pytest.raises(ValidationError, match="^a.b: expected"):
        typed(value, kind, "a.b")


@pytest.mark.parametrize("value, kind", [
    (1, int), (1, float), (1.5, float), (10**400, int), (True, bool), ("", str), ([], list),
])
def test_typed_accepts(value, kind):
    assert typed(value, kind, "a") is value


def test_json_object_names_the_path():
    with pytest.raises(ValidationError, match=r"^seq: unknown key 'bogus'$"):
        json_object({"bogus": 1}, ("t_seq",), "seq")
    with pytest.raises(ValidationError, match=r"^store\.counts: missing$"):
        json_object({}, ("counts",), "store", ("counts",))
    with pytest.raises(ValidationError, match=r"^expected a JSON object, got \[\]$"):
        json_object([], None, "")


@pytest.mark.parametrize("default, good, bad", [
    (time(5, 0), "7:05", "7:5"),
    (date(2021, 3, 1), "2021-03-02", "03/02/2021"),
    ((time(0, 0), 1), ["0:00", 2], ["0:00"]),
])
def test_like_reads_the_type_of_the_default(default, good, bad):
    convert = like(default)
    assert to_payload(convert(good, "x")) == to_payload(convert(to_payload(convert(good, "x")),
                                                                "x"))
    with pytest.raises(ValidationError, match="^x"):
        convert(bad, "x")


def test_record_requires_a_field_without_default():
    from homeguard.synthgen import SensorChannel

    with pytest.raises(ValidationError, match=r"^sensors\.co2\.base: missing$"):
        record(SensorChannel, base=float)({"noise_std": 1.0}, "sensors.co2")


def test_a_fault_shows_a_large_value_cut_short():
    with pytest.raises(ValidationError) as fault:
        json_object(list(range(100_000)), None, "store.counts")
    assert str(fault.value).startswith("store.counts: expected a JSON object, got [0, 1, 2")
    assert len(str(fault.value)) < 200
