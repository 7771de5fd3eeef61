"""Property test: ``label_states`` on the grid's arrays against the per-slot
labeler on the grid's slot records, over random homes."""

from dataclasses import fields
from datetime import datetime, time, timedelta

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from homeguard.ingest import EventRecord, build_timeslots, floor_to_day_origin  # noqa: E402
from homeguard.labeling import LabelingParams, label_states  # noqa: E402
from homeguard.vocab import Vocabulary  # noqa: E402

from conftest import frame  # noqa: E402
from oracles import columns, encode_labels, label_states_per_slot, slot_records  # noqa: E402

BASE = datetime(2021, 3, 1)
EVENTS = [
    ("user_position", "entry"), ("user_position", "exit"),
    ("cooking_stove", "on"), ("cooking_stove", "off"), ("microwave", "on"),
    ("tv", "on"), ("refrigerator", "opening"),
]
# Seconds from BASE over two days; whole minutes often, so that slot
# boundaries and ties come up, and a busy morning often, so that merge gaps
# hit their bounds.
offsets = st.one_of(
    st.integers(0, 2 * 86_400 - 1),
    st.integers(0, 2 * 1440 - 1).map(lambda minute: minute * 60),
    st.integers(7 * 60, 8 * 60).map(lambda minute: minute * 60 + 30),
)
PARAMS = LabelingParams()
readings = st.tuples(
    st.sampled_from([PARAMS.noise_threshold - 3, PARAMS.noise_threshold, PARAMS.noise_threshold + 3]),
    st.sampled_from([PARAMS.co2_threshold - 300, PARAMS.co2_threshold, PARAMS.co2_threshold + 300]),
)


@settings(max_examples=60, deadline=None)
@given(
    events=st.lists(st.tuples(offsets, st.sampled_from(EVENTS)), max_size=40),
    frames=st.lists(st.tuples(offsets, readings), min_size=1, max_size=30),
    origin=st.tuples(st.integers(0, 23), st.integers(0, 59), st.sampled_from([0, 0, 30])),
    windows=st.tuples(st.integers(0, 40), st.integers(0, 40), st.integers(0, 40)),
    merges=st.tuples(st.integers(0, 120), st.integers(0, 20)),
    occupants=st.integers(0, 2),
)
def test_label_states_equals_the_per_slot_labeler(
    events, frames, origin, windows, merges, occupants
):
    events = [EventRecord(BASE + timedelta(seconds=s), *pair) for s, pair in events]
    frames = [frame(BASE + timedelta(seconds=s), noise=noise, co2=co2)
              for s, (noise, co2) in frames]
    # A quiet frame at the grid start fills the slots before the first frame.
    start = floor_to_day_origin(min(f.timestamp for f in [*events, *frames]), time(*origin))
    grid = build_timeslots(events, columns([frame(start, noise=31.0), *frames]), time(*origin))
    t_x, t_y, t_c = windows
    params = LabelingParams(
        t_x=t_x, t_y=t_y, t_c=t_c, sleep_gap_merge=merges[0], use_gap_merge=merges[1],
        initial_occupants=occupants,
    )
    vocabulary = Vocabulary()
    labels = label_states(grid, params, vocabulary)
    expected = encode_labels(
        label_states_per_slot(slot_records(grid), grid.events, params, vocabulary)
    )
    for f in fields(expected):
        got, want = getattr(labels, f.name), getattr(expected, f.name)
        assert got == want if f.name == "pairs" else np.array_equal(got, want), f.name
