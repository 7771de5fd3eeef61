"""Property tests: the subsequence enumerator against the combinations loop.

``_enumerate_distinct`` builds a window's subsequences from the candidates
ending at the last occurrence of each distinct item; it must give the map
and the order of trying every combination of positions, over random windows
with repeated items.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from homeguard.seqstore import _enumerate_distinct  # noqa: E402

from oracles import enumerate_distinct_combinations  # noqa: E402

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
