"""Property tests: the subsequence enumerator against the combinations loop,
and the window search against the datetime bisect.

``_enumerate_distinct`` builds a window's subsequences from the candidates
ending at the last occurrence of each distinct item; it must give the map
and the order of trying every combination of positions, over random windows
with repeated items.  ``window_starts`` cuts a window on the grid's
microsecond clock; it must start every window where a ``bisect`` over the
datetimes themselves does, ``datetime.min`` clamp and ``timedelta``'s
rounding of ``t_seq`` included.
"""

from datetime import datetime, timedelta

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from homeguard.seqstore import MAX_T_SEQ, _enumerate_distinct, window_starts  # noqa: E402

from oracles import enumerate_distinct_combinations, window_start  # noqa: E402

# Windows of up to 16 items over an alphabet of 1 to 40 symbols: small
# alphabets repeat items often, large ones rarely.
windows = st.integers(1, 40).flatmap(
    lambda n: st.lists(st.integers(0, n - 1), max_size=16)
).map(lambda symbols: [(f"device{s % 8}", f"action{s // 8}") for s in symbols])


@settings(max_examples=400, deadline=None)
@given(windows, st.integers(1, 5))
def test_latest_final_maps_equal_the_combinations_loop(pairs, l_max):
    expected = enumerate_distinct_combinations(pairs, l_max)
    assert list(_enumerate_distinct(pairs, l_max).items()) == list(expected.items())


# Microseconds from the grid's start: anywhere, on whole seconds (so that
# ties come up), or a few microseconds past one.
DAYS_US = 3 * 86_400 * 10**6
clock = st.one_of(
    st.integers(0, DAYS_US),
    st.integers(0, DAYS_US // 10**6).map(lambda s: s * 10**6),
    st.tuples(st.integers(0, DAYS_US // 10**6), st.integers(0, 3)).map(
        lambda p: p[0] * 10**6 + p[1]
    ),
)
# Half-microsecond values that ``timedelta`` rounds half to even, and the
# longest window, which reaches past ``datetime.min`` from year 1.
t_seqs = st.one_of(
    st.sampled_from([0.5e-6, 1.5e-6, 2.5e-6, 599.9999995, MAX_T_SEQ]),
    st.floats(0.0, MAX_T_SEQ, exclude_min=True),
)


@settings(max_examples=400, deadline=None)
@given(
    start=st.sampled_from([datetime(1, 1, 1), datetime(1, 1, 1, 0, 3), datetime(2021, 3, 1)]),
    at=st.lists(clock, max_size=30).map(sorted),
    t_seq=t_seqs,
    edges=st.lists(st.tuples(st.integers(0, 29), st.integers(-2, 2)), max_size=8),
    later=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 10**12)), max_size=4),
    others=st.lists(clock, max_size=4),
)
def test_window_starts_equal_the_datetime_bisect(start, at, t_seq, edges, later, others):
    # Judged instants: within two microseconds of ``t_seq`` past an event,
    # where a window's first event is decided; anywhere past one; anywhere.
    span = timedelta(seconds=t_seq) // timedelta(microseconds=1)
    instants = [at[i % len(at)] + span + off for i, off in edges if at] + [
        at[i % len(at)] + shift for i, shift in later if at
    ]
    instants = [x for x in instants if x >= 0] + others
    times = [start + timedelta(microseconds=x) for x in at]
    expected = [window_start(times, start + timedelta(microseconds=x), t_seq) for x in instants]
    got = window_starts(
        np.array(at, dtype=np.int64), np.array(instants, dtype=np.int64), t_seq
    )
    assert got.tolist() == expected
