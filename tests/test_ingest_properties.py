"""Property tests: the fast ingest paths against the slow code they replace.

The grid ``build_timeslots`` returns, read slot by slot, must equal the
per-slot binary-search build over random events, frames, day origins and
default frames, errors included; ``parse_timestamp`` must accept, reject and read every text as
``strptime`` with ``TIMESTAMP_FORMAT`` does.
"""

from datetime import datetime, time, timedelta

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from homeguard.errors import HomeguardError  # noqa: E402
from homeguard.ingest import EventRecord, build_timeslots  # noqa: E402

from conftest import frame  # noqa: E402
from oracles import build_timeslots_bisect, slot_records  # noqa: E402
from test_ingest import assert_parse_matches_strptime  # noqa: E402

BASE = datetime(2021, 3, 1)
PAIRS = [("tv", "on"), ("tv", "off"), ("refrigerator", "opening"), ("cooking_stove", "on")]
# Seconds from BASE; whole minutes are drawn often so that boundaries and
# ties come up.
offsets = st.one_of(
    st.integers(-86_400, 3 * 86_400),
    st.integers(-1440, 3 * 1440).map(lambda minute: minute * 60),
)


def outcome(build, *args, **kwargs):
    try:
        return build(*args, **kwargs)
    except HomeguardError as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(
    events=st.lists(st.tuples(offsets, st.sampled_from(PAIRS)), max_size=30),
    frame_offsets=st.lists(offsets, max_size=12),
    origin=st.tuples(st.integers(0, 23), st.integers(0, 59)),
    default_offset=st.one_of(st.none(), offsets),
)
def test_grid_equals_bisect_slots(events, frame_offsets, origin, default_offset):
    events = [EventRecord(BASE + timedelta(seconds=s), *pair) for s, pair in events]
    frames = [frame(BASE + timedelta(seconds=s), co2=float(i)) for i, s in
              enumerate(frame_offsets)]
    kwargs = dict(
        day_origin=time(*origin),
        default_frame=None if default_offset is None
        else frame(BASE + timedelta(seconds=default_offset), noise=99.0),
    )
    def grid_slots(*args, **kwargs):
        return slot_records(build_timeslots(*args, **kwargs))

    assert outcome(grid_slots, events, frames, **kwargs) == outcome(
        build_timeslots_bisect, events, frames, **kwargs
    )


def _variants(value: datetime) -> list[str]:
    """The forms a timestamp takes in logs written by other tools."""
    return [
        value.isoformat(timespec="seconds"),
        value.isoformat(),
        value.isoformat(sep=" ", timespec="seconds"),
        value.isoformat(timespec="minutes"),
        value.isoformat(timespec="milliseconds"),
        value.isoformat(timespec="seconds") + "Z",
        value.isoformat(timespec="seconds") + "+01:00",
        value.date().isoformat(),
        f"{value.year}-{value.month}-{value.day}T{value.hour}:{value.minute}:{value.second}",
        value.strftime("%Y%m%dT%H%M%S"),
    ]


@settings(max_examples=150, deadline=None)
@given(
    value=st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31)),
    pick=st.integers(0, 9),
)
def test_parse_timestamp_matches_strptime_on_written_forms(value, pick):
    assert_parse_matches_strptime(_variants(value)[pick])


@settings(max_examples=300, deadline=None)
@given(text=st.text(alphabet="0123456789-T:+Z. tW", max_size=27))
def test_parse_timestamp_matches_strptime_on_any_text(text):
    assert_parse_matches_strptime(text)
