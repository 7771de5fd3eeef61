"""Property tests: every judge decides by its scorer's output and one rule.

Over random stores, beliefs, batches of windows and thresholds,
``judge_proposed`` and ``judge_sequence_baseline`` must decide as the
two-level rule decides on ``proposed_scores`` / ``sequence_scores``, and as
the ``evaluate`` grid counts those scores; ``judge_estimation_baseline`` must
decide ``score <= theta``.  The batch scorers themselves are checked, to the
bit, against per-window oracles that score one candidate at a time by
looking its sequence up in a sequence-keyed store, and
``batch_candidates``, given the events that ``window_starts`` cuts, against
a direct cut of the window.  The grid's detection and misdetection counts
never fall as a threshold rises, and equal the rule's counts threshold by
threshold, on "auto", fixed and half-auto grids.  The frontier of such count
tables is the frontier of their ratios, as a sort and scan finds it.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from homeguard.detector import (  # noqa: E402
    BaselineParams,
    Thresholds,
    batch_candidates,
    estimation_score,
    judge_estimation_baseline,
    judge_proposed,
    judge_sequence_baseline,
    proposed_scores,
    sequence_scores,
    two_level_anomalous,
)
from homeguard.evaluation import (  # noqa: E402
    _candidate_thresholds,
    _frontier_indices,
    _sweep_estimation,
    _sweep_two_level,
)
from homeguard.hsmodel import OperationTable  # noqa: E402
from homeguard.ingest import offsets_from  # noqa: E402
from homeguard.seqstore import (  # noqa: E402
    SeqParams,
    SequenceIds,
    candidates_ending_at,
    seconds_of_day,
    window_starts,
)

from conftest import BASE, ev, id_store, id_timed_store  # noqa: E402
from oracles import (  # noqa: E402
    DictStore,
    DictTimedStore,
    batch_items,
    best_per_level_loop,
    estimation_counts_loop,
    frontier_indices_loop,
    frontier_rows_loop,
    proposed_score,
    ratio,
    two_level_counts_loop,
    window_levels,
)
from oracles import estimation_score as estimation_score_one  # noqa: E402
from test_detector import grid_flags, make_model  # noqa: E402

TARGET = "cooking_stove"
PAIRS = [(TARGET, "on"), ("refrigerator", "opening"), ("tv", "on"), ("rice_cooker", "on")]
OP_MINUTE = 30.0
SEQ = SeqParams(t_seq=600.0, l_max=3, w_max=4)

# Up to five earlier events, some outside the 10-minute window.
windows = st.lists(
    st.tuples(st.floats(10.0, OP_MINUTE), st.sampled_from(PAIRS)), max_size=5
).map(lambda items: [ev(minute, *pair) for minute, pair in sorted(items)])
unit = st.floats(0.0, 1.0)
# Batches of up to four windows, the empty batch included.
batches = st.lists(windows, max_size=4)


def candidates_of(preceding, op):
    """Candidates of the op's window: the events at most ``t_seq`` seconds
    before it, the last ``w_max - 1`` of them, then the op."""
    pairs = [
        event.pair for event in preceding
        if (op.timestamp - event.timestamp).total_seconds() <= SEQ.t_seq
    ]
    return candidates_ending_at(pairs[-(SEQ.w_max - 1):] + [op.pair], SEQ.l_max)


def judged_window(preceding, op):
    """The events of ``preceding`` that the op's window holds, cut as the
    judges' callers cut it: from the ``window_starts`` index on."""
    at = offsets_from(BASE, (event.timestamp for event in preceding))
    [lo] = window_starts(at, offsets_from(BASE, [op.timestamp]), SEQ.t_seq).tolist()
    return preceding[lo:]


@settings(max_examples=150, deadline=None)
@given(batch=batches, action=st.sampled_from(["on", "off"]))
def test_batch_candidates_cut_each_window_as_the_oracle_does(batch, action):
    op = ev(OP_MINUTE, TARGET, action)
    judged = [(judged_window(preceding, op), op) for preceding in batch]
    flat = batch_candidates(judged, SEQ, SequenceIds(TARGET))
    items = batch_items(flat)
    assert [items[a:b] for a, b in zip(flat.bounds, flat.bounds[1:])] == [
        candidates_of(preceding, op) for preceding in batch
    ]


def thresholds(data, levels):
    """A threshold pair, often exactly at an achieved score or at zero."""
    scores = data.draw(st.sampled_from(levels))
    level = st.one_of(unit, st.sampled_from([0.0, scores.single, scores.multi]))
    return data.draw(level), data.draw(level)


def check_levels(scores, candidates, score):
    """s_single scores the lone operation; s_multi is the best longer one,
    and the first candidate to reach it is its evidence."""
    assert candidates[0] == scores.single_items
    assert scores.single == score(candidates[0])
    longer = [score(items) for items in candidates[1:]]
    assert scores.multi == max(longer, default=0.0)
    if longer:
        assert scores.multi_items == candidates[1 + longer.index(scores.multi)]
    else:
        assert scores.multi_items is None
    assert scores == best_per_level_loop(candidates, score)


def check_verdict(verdict, scores, n_single, n_multi):
    expected = bool(two_level_anomalous(scores.single, scores.multi, n_single, n_multi))
    assert verdict.is_anomalous == expected
    assert grid_flags(scores, n_single, n_multi) == int(expected)
    margins = [scores.single - n_single]
    if scores.multi_items is not None:
        margins.append(scores.multi - n_multi)
    assert verdict.delta - verdict.threshold == max(margins)


def draw_beliefs(data, count, n_states):
    """``count`` beliefs over ``n_states`` states, uniform where the drawn
    weights are all zero."""
    rows = []
    for _ in range(count):
        weights = np.asarray(data.draw(st.lists(unit, min_size=n_states, max_size=n_states)))
        rows.append(weights / weights.sum() if weights.sum() > 0 else np.full(n_states, 1 / n_states))
    return np.array(rows).reshape(count, n_states)


def draw_store(data, known, n_states) -> DictStore:
    """A sequence-keyed store over ``n_states`` states holding some of the
    ``known`` sequences."""
    slot_counts = np.asarray(
        data.draw(st.lists(st.integers(0, 6), min_size=n_states, max_size=n_states)),
        dtype=np.int64,
    )
    store = DictStore(slot_counts)
    for items in data.draw(st.lists(st.sampled_from(known), unique=True)) if known else ():
        store.counts[items] = np.asarray(
            [data.draw(st.integers(0, int(c))) for c in slot_counts], dtype=np.int64
        )
    return store


def draw_timed_store(data, known) -> DictTimedStore:
    """A sequence-keyed timed store holding some of the ``known`` sequences."""
    store = DictTimedStore()
    seconds = st.floats(0.0, 86399.0)
    for items in data.draw(st.lists(st.sampled_from(known), unique=True)) if known else ():
        store.times[items] = sorted(data.draw(st.lists(seconds, min_size=1, max_size=4)))
    stored = max((len(times) for times in store.times.values()), default=0)
    store.target_total = data.draw(st.integers(stored, stored + 3))
    return store


@settings(max_examples=150, deadline=None)
@given(batch=batches, n_states=st.integers(1, 4), data=st.data())
def test_proposed_judge_is_the_rule_on_its_scores(batch, n_states, data):
    op = ev(OP_MINUTE, TARGET, "on")
    candidates = [candidates_of(preceding, op) for preceding in batch]
    known = sorted({items for window in candidates for items in window})
    reference = draw_store(data, known, n_states)
    store = id_store(reference.slot_counts, reference.counts)
    beliefs = draw_beliefs(data, len(batch), n_states)
    model = make_model(store, SEQ)
    judged = [(judged_window(preceding, op), op) for preceding in batch]

    flat = batch_candidates(judged, SEQ, store.keys)
    levels = window_levels(flat, proposed_scores(store, beliefs, flat))
    for scores, window, belief in zip(levels, candidates, beliefs):
        check_levels(scores, window, lambda items: proposed_score(reference, belief, items))
    assert len(levels) == len(batch)
    n_single, n_multi = thresholds(data, levels) if levels else (0.5, 0.5)
    verdicts = judge_proposed(model, beliefs, judged, Thresholds(n_single, n_multi))
    assert len(verdicts) == len(batch)
    for verdict, scores in zip(verdicts, levels):
        check_verdict(verdict, scores, n_single, n_multi)


@settings(max_examples=150, deadline=None)
@given(
    batch=batches,
    alpha_seq=st.sampled_from([0.0, 900.0, 3600.0, 43200.0]),
    data=st.data(),
)
def test_sequence_judge_is_the_rule_on_its_scores(batch, alpha_seq, data):
    op = ev(OP_MINUTE, TARGET, "on")
    candidates = [candidates_of(preceding, op) for preceding in batch]
    known = sorted({items for window in candidates for items in window})
    reference = draw_timed_store(data, known)
    store = id_timed_store(reference.times, reference.target_total)

    tod = seconds_of_day(op.timestamp)
    judged = [(judged_window(preceding, op), op) for preceding in batch]
    flat = batch_candidates(judged, SEQ, store.keys)
    [result] = sequence_scores(store, flat, [tod] * len(batch), (alpha_seq,))
    levels = window_levels(flat, result)
    for scores, window in zip(levels, candidates):
        check_levels(scores, window, lambda items: ratio(reference, items, tod, alpha_seq))
    assert len(levels) == len(batch)
    n_single, n_multi = thresholds(data, levels) if levels else (0.5, 0.5)
    params = BaselineParams(alpha_seq=alpha_seq, n_seq_single=n_single, n_seq_multi=n_multi)
    verdicts = judge_sequence_baseline(store, judged, params, SEQ, TARGET)
    assert len(verdicts) == len(batch)
    for verdict, scores in zip(verdicts, levels):
        check_verdict(verdict, scores, n_single, n_multi)


@settings(max_examples=150, deadline=None)
@given(
    batch=batches,
    n_states=st.integers(1, 4),
    alpha_seq=st.sampled_from([0.0, 900.0, 43200.0]),
    batch_first=st.booleans(),
    data=st.data(),
)
def test_scores_through_ids_equal_the_sequence_keyed_lookups(
    batch, n_states, alpha_seq, batch_first, data
):
    """One table serves a batch and both stores, whatever gave its ids
    first: sequences interned before (some with no target item), the batch
    or the stores.  Each candidate then scores, exactly, what looking its
    sequence up in the sequence-keyed stores gives, 0 where it is absent."""
    op = ev(OP_MINUTE, TARGET, "on")
    keys = SequenceIds(TARGET)
    earlier = data.draw(st.lists(st.lists(st.sampled_from(PAIRS), min_size=1, max_size=3)))
    keys.intern([tuple(items) for items in earlier])
    judged = [(judged_window(preceding, op), op) for preceding in batch]
    if batch_first:
        flat = batch_candidates(judged, SEQ, keys)
    candidates = [candidates_of(preceding, op) for preceding in batch]
    known = sorted({items for window in candidates for items in window} | set(keys.items))
    reference, timed_reference = draw_store(data, known, n_states), draw_timed_store(data, known)
    store = id_store(reference.slot_counts, reference.counts, keys)
    timed = id_timed_store(timed_reference.times, timed_reference.target_total, keys)
    if not batch_first:
        flat = batch_candidates(judged, SEQ, keys)

    beliefs = draw_beliefs(data, len(batch), n_states)
    assert window_levels(flat, proposed_scores(store, beliefs, flat)) == [
        best_per_level_loop(window, lambda items: proposed_score(reference, belief, items))
        for window, belief in zip(candidates, beliefs)
    ]
    tod = seconds_of_day(op.timestamp)
    [result] = sequence_scores(timed, flat, [tod] * len(batch), (alpha_seq,))
    assert window_levels(flat, result) == [
        best_per_level_loop(window, lambda items: ratio(timed_reference, items, tod, alpha_seq))
        for window in candidates
    ]


@settings(max_examples=100, deadline=None)
@given(
    vector=st.lists(unit, min_size=3, max_size=3),
    count=st.integers(0, 4),
    data=st.data(),
)
def test_estimation_judge_is_strict_threshold_on_its_score(vector, count, data):
    op = ev(OP_MINUTE, TARGET, "on")
    table = OperationTable(probs={op.pair: np.asarray(vector)})
    beliefs = draw_beliefs(data, count, 3)
    ops = [op] * count
    scores = estimation_score(table, beliefs, ops).tolist()
    assert scores == [estimation_score_one(table, belief, op) for belief in beliefs]
    theta = data.draw(st.one_of(unit, st.sampled_from(scores or [0.0])))
    verdicts = judge_estimation_baseline(table, beliefs, [([], op) for op in ops], theta, TARGET)
    assert [verdict.is_anomalous for verdict in verdicts] == [score <= theta for score in scores]
    assert [(verdict.delta, verdict.threshold) for verdict in verdicts] == [
        (score, theta) for score in scores
    ]


# Scores and thresholds in [0, 1], with ties between them often.
levels = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), unit)


def assert_counts_rise(points, name):
    """Ordered by the threshold ``name`` among points that share every other
    parameter, ``tp`` and ``fp`` never fall."""
    by_rest: dict = {}
    for point in points:
        params = dict(point.params)
        value = params.pop(name)
        by_rest.setdefault(tuple(sorted(params.items())), []).append((value, point.tp, point.fp))
    for rows in by_rest.values():
        rows.sort()
        for (_, tp, fp), (_, next_tp, next_fp) in zip(rows, rows[1:]):
            assert tp <= next_tp and fp <= next_fp


@settings(max_examples=100, deadline=None)
@given(
    scores=st.lists(st.tuples(levels, levels, st.booleans()), max_size=30),
    n_single=st.lists(levels, min_size=1, max_size=5),
    n_multi=st.lists(levels, min_size=1, max_size=5),
)
def test_two_level_counts_never_fall_as_a_threshold_rises(scores, n_single, n_multi):
    s1, s2 = np.array([a for a, _, _ in scores]), np.array([b for _, b, _ in scores])
    injected = np.array([injected for *_, injected in scores], dtype=bool)
    points = _sweep_two_level("m", {}, s1, s2, injected, tuple(n_single), tuple(n_multi))
    assert len(points) == len(n_single) * len(n_multi)
    assert_counts_rise(points, "n_single")
    assert_counts_rise(points, "n_multi")


@settings(max_examples=100, deadline=None)
@given(
    scores=st.lists(st.tuples(levels, st.booleans()), max_size=30),
    theta=st.lists(levels, min_size=1, max_size=8),
)
def test_estimation_counts_never_fall_as_theta_rises(scores, theta):
    points = _sweep_estimation(np.array([score for score, _ in scores]),
                               np.array([injected for _, injected in scores], dtype=bool), {},
                               tuple(theta))
    assert len(points) == len(theta)
    assert_counts_rise(points, "theta")


# A threshold's values: "auto", or a list with repeats often.
threshold_values = st.one_of(st.just("auto"), st.lists(levels, min_size=1, max_size=5).map(tuple))


def sweep_values(scores, values, auto):
    """The values the oracle tries on one threshold: the "auto" candidates,
    each distinct given value when another threshold is "auto", or the list
    as given."""
    if values == "auto":
        return _candidate_thresholds(scores)
    return np.unique(values) if auto else values


def assert_points_match(points, names, rows, auto, injected):
    """The sweep's points are the oracle's rows (thresholds..., tp, fp), or
    on an "auto" grid their frontier, with every count exact."""
    expected = frontier_rows_loop(rows) if auto else rows
    n_inj = int(np.count_nonzero(injected))
    # grid_search sorts the points of every sweep by ``sort_key``: points that
    # share one must be equal, so that the sort orders them all.
    by_key = {}
    for point in points:
        assert by_key.setdefault(point.sort_key, point) == point
    assert sorted((p.params, p.tp, p.fp) for p in points) == sorted(
        (tuple(sorted(zip(names, row[:-2]))), row[-2], row[-1]) for row in expected
    )
    for point in points:
        assert point.fn == n_inj - point.tp and point.tn == len(injected) - n_inj - point.fp


@settings(max_examples=200, deadline=None)
@given(
    scores=st.lists(st.tuples(levels, levels, st.booleans()), max_size=30),
    n_single=threshold_values,
    n_multi=threshold_values,
)
def test_two_level_sweep_counts_as_the_rule_pair_by_pair(scores, n_single, n_multi):
    s1, s2 = np.array([a for a, _, _ in scores]), np.array([b for _, b, _ in scores])
    injected = np.array([injected for *_, injected in scores], dtype=bool)
    auto = "auto" in (n_single, n_multi)
    points = _sweep_two_level("m", {}, s1, s2, injected, n_single, n_multi)
    rows = two_level_counts_loop(s1, s2, injected, sweep_values(s1, n_single, auto),
                                 sweep_values(s2, n_multi, auto))
    assert_points_match(points, ("n_single", "n_multi"), rows, auto, injected)


@settings(max_examples=200, deadline=None)
@given(scores=st.lists(st.tuples(levels, st.booleans()), max_size=30), theta=threshold_values)
def test_estimation_sweep_counts_as_the_rule_theta_by_theta(scores, theta):
    values = np.array([score for score, _ in scores])
    injected = np.array([injected for _, injected in scores], dtype=bool)
    auto = theta == "auto"
    points = _sweep_estimation(values, injected, {}, theta)
    rows = estimation_counts_loop(values, injected, sweep_values(values, theta, auto))
    assert_points_match(points, ("theta",), rows, auto, injected)


def count_table(cells, shape):
    """A count table as a two-threshold sweep builds it: an int32 histogram
    of ``cells`` (wrapped into ``shape``), summed along each axis in place."""
    table = np.zeros(shape, dtype=np.int32)
    for i, j in cells:
        table[i % shape[0], j % shape[1]] += 1
    for axis in (0, 1):
        np.cumsum(table, axis=axis, dtype=table.dtype, out=table)
    return table.ravel()


operation_cells = st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=12)


@settings(max_examples=300, deadline=None)
@given(shape=st.tuples(st.integers(1, 8), st.integers(1, 8)), inj=operation_cells,
       real=operation_cells)
@example(shape=(1, 1), inj=[], real=[])
@example(shape=(1, 1), inj=[(0, 0)], real=[(0, 0), (0, 0)])
@example(shape=(3, 4), inj=[(1, 2)] * 3, real=[(1, 2)] * 2)  # every cell ties a neighbour
@example(shape=(3, 4), inj=[], real=[(0, 1), (2, 3)])
@example(shape=(3, 4), inj=[(0, 1), (2, 3)], real=[])
def test_frontier_of_count_tables_is_the_frontier_of_their_ratios(shape, inj, real):
    tp, fp = count_table(inj, shape), count_table(real, shape)
    det = tp / len(inj) if inj else np.zeros(tp.size)
    mis = fp / len(real) if real else np.zeros(fp.size)
    assert _frontier_indices(fp, tp) == frontier_indices_loop(mis, det)
