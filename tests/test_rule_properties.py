"""Property tests: every judge decides by its scorer's output and one rule.

Over random stores, beliefs, windows and thresholds, ``judge_proposed`` and
``judge_sequence_baseline`` must decide as the two-level rule decides on
``proposed_scores`` / ``sequence_scores``, and as the ``evaluate`` grid counts
those scores; ``judge_estimation_baseline`` must decide ``score <= theta``.
The scorers themselves are checked against a per-candidate oracle, and
``window_candidates``, given the events that ``window_starts`` cuts, against
a direct cut of the window.  The grid's detection and misdetection counts
never fall as a threshold rises.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from homeguard.detector import (  # noqa: E402
    BaselineParams,
    Thresholds,
    estimation_score,
    judge_estimation_baseline,
    judge_proposed,
    judge_sequence_baseline,
    proposed_scores,
    sequence_scores,
    two_level_anomalous,
    window_candidates,
)
from homeguard.evaluation import _ScoreRecord, _sweep_estimation, _sweep_two_level  # noqa: E402
from homeguard.hsmodel import OperationTable  # noqa: E402
from homeguard.ingest import offsets_from  # noqa: E402
from homeguard.seqstore import (  # noqa: E402
    SeqParams,
    SequenceStore,
    TimedSequenceStore,
    candidates_ending_at,
    seconds_of_day,
    window_starts,
)

from conftest import BASE, ev  # noqa: E402
from oracles import ratio  # noqa: E402
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
@given(preceding=windows, action=st.sampled_from(["on", "off"]))
def test_window_candidates_cut_the_window_as_the_oracle_does(preceding, action):
    op = ev(OP_MINUTE, TARGET, action)
    assert window_candidates(judged_window(preceding, op), op, SEQ) == candidates_of(preceding, op)


def thresholds(data, scores):
    """A threshold pair, often exactly at an achieved score or at zero."""
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


def check_verdict(verdict, scores, n_single, n_multi):
    expected = bool(two_level_anomalous(scores.single, scores.multi, n_single, n_multi))
    assert verdict.is_anomalous == expected
    assert grid_flags(scores, n_single, n_multi) == int(expected)
    margins = [scores.single - n_single]
    if scores.multi_items is not None:
        margins.append(scores.multi - n_multi)
    assert verdict.delta - verdict.threshold == max(margins)


@settings(max_examples=150, deadline=None)
@given(
    preceding=windows,
    n_states=st.integers(1, 4),
    data=st.data(),
)
def test_proposed_judge_is_the_rule_on_its_scores(preceding, n_states, data):
    op = ev(OP_MINUTE, TARGET, "on")
    store = SequenceStore(np.asarray(data.draw(st.lists(st.integers(0, 6), min_size=n_states,
                                                        max_size=n_states)), dtype=np.int64))
    candidates = candidates_of(preceding, op)
    for items in data.draw(st.lists(st.sampled_from(candidates), unique=True)):
        store.counts[items] = np.asarray(
            [data.draw(st.integers(0, int(c))) for c in store.slot_counts], dtype=np.int64
        )
    weights = np.asarray(data.draw(st.lists(unit, min_size=n_states, max_size=n_states)))
    belief = weights / weights.sum() if weights.sum() > 0 else np.full(n_states, 1 / n_states)
    model = make_model(store, SEQ)
    window = judged_window(preceding, op)

    scores = proposed_scores(store, belief, window_candidates(window, op, SEQ))
    check_levels(
        scores, candidates,
        lambda items: min(1.0, max(0.0, float(np.dot(store.vector(items), belief)))),
    )
    n_single, n_multi = thresholds(data, scores)
    verdict = judge_proposed(model, belief, window, op, Thresholds(n_single, n_multi))
    check_verdict(verdict, scores, n_single, n_multi)


@settings(max_examples=150, deadline=None)
@given(
    preceding=windows,
    alpha_seq=st.sampled_from([0.0, 900.0, 3600.0, 43200.0]),
    data=st.data(),
)
def test_sequence_judge_is_the_rule_on_its_scores(preceding, alpha_seq, data):
    op = ev(OP_MINUTE, TARGET, "on")
    candidates = candidates_of(preceding, op)
    store = TimedSequenceStore()
    seconds = st.floats(0.0, 86399.0)
    for items in data.draw(st.lists(st.sampled_from(candidates), unique=True)):
        store.times[items] = sorted(data.draw(st.lists(seconds, min_size=1, max_size=4)))
    stored = max((len(times) for times in store.times.values()), default=0)
    store.target_total = data.draw(st.integers(stored, stored + 3))

    tod = seconds_of_day(op.timestamp)
    window = judged_window(preceding, op)
    [[scores]] = sequence_scores(store, [(window_candidates(window, op, SEQ), tod)], (alpha_seq,))
    check_levels(scores, candidates, lambda items: ratio(store, items, tod, alpha_seq))
    n_single, n_multi = thresholds(data, scores)
    params = BaselineParams(alpha_seq=alpha_seq, n_seq_single=n_single, n_seq_multi=n_multi)
    [verdict] = judge_sequence_baseline(store, [(window, op)], params, SEQ, TARGET)
    check_verdict(verdict, scores, n_single, n_multi)


@settings(max_examples=100, deadline=None)
@given(
    vector=st.lists(unit, min_size=3, max_size=3),
    weights=st.lists(unit, min_size=3, max_size=3),
    data=st.data(),
)
def test_estimation_judge_is_strict_threshold_on_its_score(vector, weights, data):
    op = ev(OP_MINUTE, TARGET, "on")
    table = OperationTable(probs={op.pair: np.asarray(vector)})
    weights = np.asarray(weights)
    belief = weights / weights.sum() if weights.sum() > 0 else np.full(3, 1 / 3)
    score = estimation_score(table, belief, op)
    theta = data.draw(st.one_of(unit, st.just(score)))
    verdict = judge_estimation_baseline(table, belief, op, theta, TARGET)
    assert verdict.is_anomalous == (score <= theta)
    assert (verdict.delta, verdict.threshold) == (score, theta)


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
    points = _sweep_two_level("m", {}, [(a, b) for a, b, _ in scores],
                              [injected for *_, injected in scores],
                              tuple(n_single), tuple(n_multi))
    assert len(points) == len(n_single) * len(n_multi)
    assert_counts_rise(points, "n_single")
    assert_counts_rise(points, "n_multi")


@settings(max_examples=100, deadline=None)
@given(
    scores=st.lists(st.tuples(levels, st.booleans()), max_size=30),
    theta=st.lists(levels, min_size=1, max_size=8),
)
def test_estimation_counts_never_fall_as_theta_rises(scores, theta):
    records = [_ScoreRecord(injected, score, {}, {}) for score, injected in scores]
    points = _sweep_estimation(records, {}, tuple(theta))
    assert len(points) == len(theta)
    assert_counts_rise(points, "theta")
