"""Property tests for the JSON boundary.

Each payload the program reads (a trained model, a scenario, a vocabulary,
each config section) gets one random mutation of one node: a value of
another JSON type, a bool, NaN or an infinity, an int beyond float range, a
deleted key or item, an unknown key, or the node nested in lists.  The read
either loads or raises a ``HomeguardError``, never another exception, and
whatever loads is a fixed point: written back and read again, it writes the
same payload.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from homeguard.cli import SECTION_PARAMS, section_params  # noqa: E402
from homeguard.errors import HomeguardError  # noqa: E402
from homeguard.hsmodel import TrainedModel, train_model  # noqa: E402
from homeguard.ingest import build_timeslots  # noqa: E402
from homeguard.payload import to_payload  # noqa: E402
from homeguard.synthgen import (  # noqa: E402
    generate,
    scenario_calibration,
    scenario_from_payload,
    scenario_s1,
)
from homeguard.vocab import Vocabulary  # noqa: E402

DELETE = object()
MUTATIONS = ("type", "bool", "nan", "inf", "-inf", "huge", "delete", "unknown", "nest")
OTHER_TYPES = (0, 2.5, "x", [], {}, None)


def changed(node, kind: str, other):
    """``node`` after the mutation ``kind``; DELETE drops it."""
    return {
        "type": lambda: other,
        "bool": lambda: True,
        "nan": lambda: float("nan"),
        "inf": lambda: float("inf"),
        "-inf": lambda: float("-inf"),
        "huge": lambda: 10**400,
        "delete": lambda: DELETE,
        "unknown": lambda: {**node, "bogus": 1} if isinstance(node, dict) else [[node]],
        "nest": lambda: [[node]],
    }[kind]()


def mutated(node, path, change):
    """A copy of ``node`` with ``change`` applied at ``path``; only the
    containers on the path are copied."""
    if not path:
        new = change(node)
        return None if new is DELETE else new
    key, rest = path[0], path[1:]
    copy = dict(node) if isinstance(node, dict) else list(node)
    new = mutated(node[key], rest, change) if rest else change(node[key])
    if new is DELETE:
        del copy[key]
    else:
        copy[key] = new
    return copy


def draw_path(data, node) -> list:
    """A path from the root down to a node at most a drawn depth below it."""
    path = []
    for _ in range(data.draw(st.integers(min_value=0, max_value=6))):
        if not isinstance(node, (dict, list)) or not node:
            break
        key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                        else range(len(node))))
        path.append(key)
        node = node[key]
    return path


def trained_model_payload() -> dict:
    result = generate(scenario_calibration(n_days=2))
    return train_model(build_timeslots(result.events, result.frames)).to_payload()


def section_reader(section: str):
    """The default payload of a config section, its reader and its writer."""

    def load(payload):
        return section_params({section: payload}, section)

    def write(objects) -> dict:
        return {key: value for obj in objects for key, value in to_payload(obj).items()}

    return lambda: write([cls() for cls in SECTION_PARAMS[section]]), load, write


READERS = {
    "model": (trained_model_payload, TrainedModel.from_payload, TrainedModel.to_payload),
    "scenario": (lambda: to_payload(scenario_s1()), scenario_from_payload, to_payload),
    "vocabulary": (lambda: to_payload(Vocabulary()), Vocabulary.from_payload, to_payload),
    **{f"config-{section}": section_reader(section) for section in SECTION_PARAMS},
}
PAYLOADS: dict = {}


def payload_of(name: str):
    if name not in PAYLOADS:
        PAYLOADS[name] = READERS[name][0]()
    return PAYLOADS[name]


@pytest.mark.parametrize("name", list(READERS))
def test_unmutated_payload_is_a_fixed_point(name):
    _, load, write = READERS[name]
    payload = payload_of(name)
    assert write(load(payload)) == payload


@pytest.mark.parametrize("name", list(READERS))
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), kind=st.sampled_from(MUTATIONS), other=st.sampled_from(OTHER_TYPES))
def test_mutation_loads_to_a_fixed_point_or_raises(name, data, kind, other):
    _, load, write = READERS[name]
    payload = payload_of(name)
    path = draw_path(data, payload)
    bad = mutated(payload, path, lambda node: changed(node, kind, other))
    try:
        loaded = load(bad)
    except HomeguardError:
        return
    again = write(loaded)
    assert write(load(again)) == again
