"""Property test: ``generate``, computed on arrays, writes the bytes of the
minute-by-minute generator over random scenarios: sleep that wraps midnight,
sensor bases and offsets outside the physical ranges, halfway between two
hundredths or whole integers, noise on and off, sensor intervals from one
minute to a day, with and without a weekend."""

from datetime import date

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from homeguard.synthgen import (  # noqa: E402
    CookSession,
    DayTemplate,
    DeviceHabit,
    Interval,
    Scenario,
    SensorChannel,
)
from homeguard.vocab import SENSOR_FIELDS  # noqa: E402

from test_synthgen import assert_same_files_as_the_per_minute_generator  # noqa: E402

minutes = st.integers(0, 1439)
# Halfway values such as 0.015 often: there ``np.round`` and Python's
# ``round`` part ways.
# Integers too, as a scenario file may give them.
reals = st.one_of(st.floats(-2000, 6000, allow_nan=False),
                  st.integers(-200_000, 600_000).map(lambda k: (k + 0.5) / 100),
                  st.integers(-2000, 6000))
templates = st.builds(
    DayTemplate,
    sleep=st.lists(st.builds(Interval, minutes, minutes), max_size=2).map(tuple),
    out=st.lists(st.tuples(minutes, minutes).map(sorted).map(lambda pair: Interval(*pair)),
                 max_size=2).map(tuple),
    cook=st.lists(st.builds(
        CookSession,
        start_minute=st.integers(-30, 1470),
        duration=st.integers(-5, 200),
        appliance=st.sampled_from(["cooking_stove", "microwave"]),
        lead_ops=st.lists(st.tuples(st.just("refrigerator"), st.just("opening"),
                                    st.integers(0, 4000)), max_size=2).map(tuple),
    ), max_size=3).map(tuple),
)
channels = st.builds(
    SensorChannel, base=reals, sleep_offset=reals, out_offset=reals, cook_offset=reals,
    noise_std=st.one_of(st.just(0.0), st.floats(0, 100), st.integers(0, 100)),
)
scenarios = st.builds(
    Scenario,
    n_users=st.integers(1, 3),
    n_days=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    start_date=st.dates(date(2021, 3, 1), date(2021, 3, 7)),  # Monday to Sunday
    weekday=templates,
    weekend=st.one_of(st.none(), templates),
    jitter_std_minutes=st.one_of(st.just(0.0), st.floats(0, 60)),
    habits=st.lists(st.builds(
        DeviceHabit,
        device=st.sampled_from(["tv", "room_light"]),
        action=st.sampled_from(["on", "off"]),
        activity=st.sampled_from(["active", "sleep", "out", "cooking"]),
        rate_per_hour=st.floats(0, 120),
    ), max_size=4).map(tuple),
    sensors=st.fixed_dictionaries({name: channels for name in SENSOR_FIELDS}),
    sensor_interval_minutes=st.one_of(st.sampled_from([1, 7, 1440]), st.integers(1, 1440)),
)


@settings(max_examples=40, deadline=None)
@given(scenario=scenarios)
# A -0.0 reading at the 0.0 bound of its range: the loop keeps it as -0.0.
@example(scenario=Scenario(
    name="scenario", n_users=1, n_days=1, seed=0, start_date=date(2021, 3, 1),
    weekday=DayTemplate(sleep=(), out=(), cook=()), weekend=None, jitter_std_minutes=0.0,
    habits=(), sensor_interval_minutes=1,
    sensors={name: SensorChannel(base=-0.0 if name == "co2" else 0.0, noise_std=0.0)
             for name in SENSOR_FIELDS},
))
def test_generate_writes_the_per_minute_bytes(tmp_path_factory, scenario):
    assert_same_files_as_the_per_minute_generator(scenario, tmp_path_factory.mktemp("synth"))
