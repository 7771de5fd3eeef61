"""Property test: the slot counts that one group pass of the fold filter
reduces the training streams to, against ranking the per-event filter's
slot entries row by row.

``FoldContext.filter_group`` keeps no training stream's slot entries.  Its
lockstep pass writes the beliefs entering each slot into a block of
``hsmodel._BLOCK`` slots, and ``seqstore.count_slots`` adds each full block,
and the last one, to its fold's ``SlotCounts``, keyed by model; a kept part
of a day that a model filters alone is added once it has run.  On a 04:00
home whose excluded dates leave days kept in part, under 1 to 4 fold models
(fitted, or redrawn so that beliefs tie or reset to uniform) and at any
block size, each fold's counts must equal ``_ranks`` and ``>= l_alpha``
taken over the entries that ``oracles.filter_streams_per_event`` gives the
fold's training streams.
"""

from functools import lru_cache
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from homeguard import evaluation, hsmodel  # noqa: E402
from homeguard.evaluation import FoldContext  # noqa: E402
from homeguard.hsmodel import OperationTable, TransitionTensor, kept_day_streams  # noqa: E402
from homeguard.labeling import LabelingParams  # noqa: E402
from homeguard.seqstore import SeqParams  # noqa: E402

from conftest import assert_counts_equal, make_folds  # noqa: E402
from oracles import filter_streams_per_event  # noqa: E402
from test_evaluation import early_origin_dataset  # noqa: E402


@lru_cache(maxsize=1)
def home_folds() -> list[FoldContext]:
    """The six folds of the 04:00 home: days 0 and 2 are kept from 04:00
    to midnight (1,200 slots), days 1 and 3 from midnight to 04:00 (240),
    days 4 and 5 whole."""
    return make_folds(
        early_origin_dataset(), LabelingParams(t_x=3, t_y=3, t_c=2), hsmodel.ModelParams(),
        SeqParams(), filled=False,
    )


def redrawn(kind: str, seed: int, fit_transitions, fit_operations):
    """The fits of the group pass, their numbers redrawn from ``seed``.

    ``tied``: each transition row is uniform, one state, or two states at
    one half, and each operation vector holds 0, 1/2 and 1, so the beliefs
    stay on a coarse grid and tie often.  ``reset``: a quarter of the rows
    and a twentieth of the slots-of-day are dead, and some operations have
    an all-zero vector, so beliefs reset to uniform, a tie of every state."""
    rng = np.random.default_rng(seed)

    def transitions(labels, t_z_max):
        fitted = fit_transitions(labels, t_z_max)
        n_states = fitted.n_states
        if kind == "tied":
            rows = np.vstack([np.full(n_states, 1.0 / n_states), np.eye(n_states),
                              (np.eye(n_states) + np.roll(np.eye(n_states), 1, axis=1)) / 2])
            probs = rows[rng.integers(0, len(rows), size=(1440, n_states))]
        else:
            probs = rng.random((1440, n_states, n_states))
            probs[rng.random((1440, n_states)) < 0.25] = 0.0
            probs[rng.random(1440) < 0.05] = 0.0
            sums = probs.sum(axis=2, keepdims=True)
            probs = np.divide(probs, sums, out=np.zeros_like(probs), where=sums > 0)
        return TransitionTensor(probs=probs, t_z=fitted.t_z)

    def operations(labels, vocabulary):
        fitted = fit_operations(labels, vocabulary)
        table = OperationTable()
        for pair, vec in fitted.probs.items():
            if kind == "tied":
                table.probs[pair] = rng.integers(0, 3, size=len(vec)) / 2.0
            elif rng.random() < 0.3:
                table.probs[pair] = np.zeros(len(vec))
            else:
                table.probs[pair] = rng.random(len(vec))
        return table

    return transitions, operations


def fold_streams(fold: FoldContext) -> list[np.ndarray]:
    """The fold's kept days, whole or in part, but its held-out day, then
    its held-out day: filtered together, as the group pass filters them."""
    arrays = fold.arrays
    day = fold.heldout_day
    kept = kept_day_streams(arrays.select((arrays.day != day) & ~arrays.excluded))
    return [*kept, np.arange(day * 1440, (day + 1) * 1440)]


@settings(max_examples=30, deadline=None)
@given(
    group=st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True),
    block=st.integers(1, 100) | st.sampled_from([64, 240, 1200, 1440, 5000]),
    alphas=st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0),
                    max_size=3),
    kind=st.sampled_from(["fitted", "tied", "reset"]),
    seed=st.integers(0, 2**32 - 1),
)
# Beliefs that tie, on a block that divides no stream length.
@example(group=[0, 1, 4, 5], block=64, alphas=[0.1, 0.5], kind="tied", seed=7)
# Beliefs reset to uniform (every state ties at 0.1), one fold alone.
@example(group=[2], block=7, alphas=[0.1], kind="reset", seed=3)
# Held out: a whole day and a day kept in part; blocks of one slot.
@example(group=[5, 3], block=1, alphas=[], kind="fitted", seed=0)
def test_group_pass_counts_equal_ranking_each_entry(group, block, alphas, kind, seed):
    folds = [home_folds()[day] for day in group]
    fits = redrawn(kind, seed, evaluation.fit_transitions, evaluation.fit_operations)
    with mock.patch.object(hsmodel, "_BLOCK", block):
        if kind == "fitted":
            FoldContext.filter_group(folds, alphas)
        else:
            with mock.patch.object(evaluation, "fit_transitions", fits[0]), \
                    mock.patch.object(evaluation, "fit_operations", fits[1]):
                FoldContext.filter_group(folds, alphas)
    for fold in folds:
        streams = fold_streams(fold)
        *expected, heldout = filter_streams_per_event(fold.dataset.grid, streams, *fold.model)
        assert [len(trace.first) - 1 for trace in fold.training_traces] == list(
            map(len, streams[:-1])
        )
        assert all(trace.entry is None for trace in fold.training_traces)
        for got, ref in zip(fold.training_traces, expected):
            assert np.array_equal(got.pre, ref.pre)
        assert_counts_equal(fold.slot_counts, [trace.entry for trace in expected])
        assert np.array_equal(fold.detection_trace.entry, heldout.entry)
