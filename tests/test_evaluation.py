"""Injection, cross-validation counts, grid search, and frontier extraction."""

import tracemalloc
from contextlib import nullcontext
from dataclasses import replace
from datetime import datetime, time, timedelta

import numpy as np
import pytest

from homeguard import detector, evaluation, hsmodel, seqstore
from homeguard.detector import (
    BaselineParams,
    Thresholds,
    batch_candidates,
    judge_estimation_baseline,
    judge_proposed,
    judge_sequence_baseline,
)
from homeguard.errors import ModelError, ValidationError, VocabularyError
from homeguard.evaluation import (
    EstimationGrid,
    EvalDataset,
    EvalPoint,
    FoldContext,
    ProposedGrid,
    SequenceGrid,
    _candidate_thresholds,
    _collect_scores,
    _frontier_indices,
    _sweep_two_level,
    best_at,
    grid_search,
    inject_anomalies,
    make_params,
    pareto_frontier,
)
from homeguard.hsmodel import ModelParams, fit_operations, fit_transitions
from homeguard.ingest import SLOTS_PER_DAY, EventRecord, build_timeslots
from homeguard.labeling import ALPHABET, LabelingParams
from homeguard.seqstore import SeqParams, candidates_ending_at, seconds_of_day
from homeguard.synthgen import generate, scenario_s1
from homeguard.vocab import DEFAULT_PAIRS, Vocabulary

from conftest import assert_counts_equal, fold_store, fold_timed_store, frame, make_folds
from oracles import (
    as_dicts,
    batch_items,
    belief_before_walk,
    best_per_level_loop,
    columns,
    estimation_score,
    encode_labels,
    filter_folds_one_by_one,
    frame_rows,
    frontier_indices_loop,
    frontier_rows_loop,
    label_states_per_slot,
    proposed_scores,
    ratio,
    slot_records,
    store_sequences_per_window,
    two_level_counts_loop,
    window_levels,
)
from test_detector import judge_one, make_model
from test_hsmodel import assert_traces_equal
from test_seqstore import dense_dataset, fold_oracle

BASE = datetime(2021, 3, 1)


def toy_dataset(n_days=2) -> EvalDataset:
    """Tiny regular home: fridge then stove each morning, stove off later."""
    events, frames = [], []
    for day in range(n_days):
        start = BASE + timedelta(days=day)
        frames.append(frame(start))
        frames.append(frame(start + timedelta(hours=12)))
        events.extend(
            [
                EventRecord(start + timedelta(hours=7, minutes=28, seconds=5), "refrigerator", "opening"),
                EventRecord(start + timedelta(hours=7, minutes=30, seconds=10), "cooking_stove", "on"),
                EventRecord(start + timedelta(hours=7, minutes=45, seconds=40), "cooking_stove", "off"),
                EventRecord(start + timedelta(hours=20, minutes=0, seconds=0), "tv", "on"),
            ]
        )
    return EvalDataset(grid=build_timeslots(events, columns(frames)), vocabulary=Vocabulary())


def scripted_point(dataset, predicate, injections_per_day, seed) -> EvalPoint:
    """The grid's counts for scripted scores over every fold's judged
    operations: (0, 0) where ``predicate`` flags the operation, else (1, 1),
    swept at the fixed thresholds (0.5, 0.5)."""
    folds = make_folds(dataset, LabelingParams(), ModelParams(), SeqParams())
    contexts = [ctx for fold in folds for ctx in fold.judged_operations(injections_per_day, seed)]
    scores = np.array([0.0 if predicate(ctx) else 1.0 for ctx in contexts])
    injected = np.array([ctx.injected for ctx in contexts])
    [point] = _sweep_two_level("scripted", {}, scores, scores, injected, (0.5,), (0.5,))
    return point


def judge_tally(dataset, verdicts_of, labeling, seq, injections_per_day, seed):
    """(tp, fn, fp, tn) of ``verdicts_of(fold)(ctx)`` verdicts over all folds."""
    counts = [0, 0, 0, 0]
    for fold in make_folds(dataset, labeling, ModelParams(), seq):
        verdict = verdicts_of(fold)
        for ctx in fold.judged_operations(injections_per_day, seed):
            anomalous = verdict(ctx).is_anomalous
            if ctx.injected:
                counts[0 if anomalous else 1] += 1  # tp, fn
            else:
                counts[2 if anomalous else 3] += 1  # fp, tn
    return tuple(counts)


def proposed_verdicts(thresholds):
    def fit(fold):
        model = make_model(fold_store(fold), fold.seq_params)
        return lambda ctx: judge_one(
            judge_proposed, model, ctx.belief, ctx.preceding, ctx.op, thresholds
        )
    return fit


def estimation_verdicts(theta):
    def fit(fold):
        operations = fold.model[1]
        target = fold.dataset.vocabulary.detection_target
        return lambda ctx: judge_one(
            judge_estimation_baseline, operations, ctx.belief, ctx.preceding, ctx.op, theta, target
        )
    return fit


def sequence_verdicts(params):
    def fit(fold):
        store, target = fold_timed_store(fold), fold.dataset.vocabulary.detection_target
        return lambda ctx: judge_sequence_baseline(
            store, [(ctx.preceding, ctx.op)], params, fold.seq_params, target
        )[0]
    return fit


class TestInjectAnomalies:
    def test_zero_count(self):
        assert inject_anomalies(BASE, count=0, seed=1) == ()

    def test_deterministic(self):
        a = inject_anomalies(BASE, count=100, seed=7, day_index=3)
        b = inject_anomalies(BASE, count=100, seed=7, day_index=3)
        assert a == b

    def test_different_days_differ(self):
        a = inject_anomalies(BASE, count=100, seed=7, day_index=0)
        b = inject_anomalies(BASE, count=100, seed=7, day_index=1)
        assert a != b

    def test_times_inside_day_and_device(self):
        for op in inject_anomalies(BASE, count=500, seed=3):
            assert BASE <= op.timestamp < BASE + timedelta(days=1)
            assert op.device == "cooking_stove" and op.action == "on"

    def test_uniformity_ks(self):
        n = 100_000
        operations = inject_anomalies(BASE, count=n, seed=11)
        seconds = np.sort(np.array([(op.timestamp - BASE).total_seconds() for op in operations]))
        u = seconds / 86400.0
        grid = np.arange(1, n + 1) / n
        d_stat = max(np.max(grid - u), np.max(u - (grid - 1.0 / n)))
        critical = 1.63 / np.sqrt(n)  # 1% significance level
        assert d_stat < critical


class TestCrossValidate:
    def test_flag_everything(self):
        dataset = toy_dataset(n_days=2)
        point = scripted_point(dataset, lambda ctx: True, injections_per_day=100, seed=0)
        assert point.tp + point.fn == 200
        assert point.detection_ratio == 1.0
        assert point.misdetection_ratio == 1.0
        assert point.fp == 2 * dataset.n_days  # stove on + off per day

    def test_perfect_oracle_method(self):
        dataset = toy_dataset(n_days=2)
        point = scripted_point(dataset, lambda ctx: ctx.injected, injections_per_day=50, seed=0)
        assert (point.tp, point.fn, point.fp) == (100, 0, 0)
        assert point.misdetection_ratio == 0.0

    def test_scripted_counts_match_hand_tally(self):
        dataset = toy_dataset(n_days=2)
        predicate = lambda ctx: ctx.op.timestamp.minute % 2 == 0
        point = scripted_point(dataset, predicate, injections_per_day=100, seed=5)

        expected_tp = 0
        for day in range(2):
            operations = inject_anomalies(
                BASE + timedelta(days=day), count=100, seed=5, day_index=day
            )
            expected_tp += sum(1 for op in operations if op.timestamp.minute % 2 == 0)
        real_minutes = [30, 45] * 2  # stove on/off per day
        expected_fp = sum(1 for m in real_minutes if m % 2 == 0)
        assert point.tp == expected_tp
        assert point.fn == 200 - expected_tp
        assert point.fp == expected_fp
        assert point.tn == 4 - expected_fp
        assert point.detection_ratio == pytest.approx(expected_tp / 200)
        assert point.misdetection_ratio == pytest.approx(expected_fp / 4)

    def test_single_day_rejected(self):
        dataset = toy_dataset(n_days=1)
        with pytest.raises(ModelError):
            grid_search(dataset, SequenceGrid(alpha_seq=(900.0,), n_single=(0.1,), n_multi=(0.1,)))

    def test_builtin_methods_run(self):
        dataset = toy_dataset(n_days=3)
        grids = [
            ProposedGrid(l_values=(2,), n_single=(0.01,), n_multi=(0.01,)),
            EstimationGrid(theta=(0.001,)),
            SequenceGrid(alpha_seq=(3600.0,), n_single=(0.2,), n_multi=(0.2,)),
        ]
        for grid in grids:
            [point] = grid_search(
                dataset, grid,
                labelings=[LabelingParams(t_x=3, t_y=3, t_c=2)],
                seq_params=SeqParams(l_rank=2),
                injections_per_day=20, seed=1,
            )
            assert point.tp + point.fn == 60
            assert point.fp + point.tn == 6
            # The toy home is extremely regular; anything sane detects most
            # random-time injections.
            assert point.detection_ratio > 0.5


class TestGridSearch:
    def test_single_combination_single_point(self):
        dataset = toy_dataset(n_days=2)
        grid = SequenceGrid(alpha_seq=(900.0,), n_single=(0.1,), n_multi=(0.1,))
        points = grid_search(dataset, grid, injections_per_day=10, seed=2)
        assert len(points) == 1

    def test_cardinality_is_product_of_lists(self):
        dataset = toy_dataset(n_days=2)
        grid = ProposedGrid(l_values=(1, 2), n_single=(0.05, 0.2), n_multi=(0.1,))
        labelings = [LabelingParams(t_x=t_x, t_y=2, t_c=1) for t_x in (2, 3)]
        points = grid_search(dataset, grid, labelings=labelings, injections_per_day=5, seed=3)
        assert len(points) == 2 * 1 * 1 * 2 * 2 * 1

    def test_order_free(self):
        dataset = toy_dataset(n_days=2)
        forward = grid_search(
            dataset,
            SequenceGrid(alpha_seq=(900.0, 3600.0), n_single=(0.1, 0.3), n_multi=(0.1,)),
            injections_per_day=10, seed=4,
        )
        backward = grid_search(
            dataset,
            SequenceGrid(alpha_seq=(3600.0, 900.0), n_single=(0.3, 0.1), n_multi=(0.1,)),
            injections_per_day=10, seed=4,
        )
        assert sorted(p.sort_key for p in forward) == sorted(p.sort_key for p in backward)
        assert {(p.params_json, p.tp, p.fp) for p in forward} == {
            (p.params_json, p.tp, p.fp) for p in backward
        }

    # A fixed-threshold grid point is the cross-validation of one detector:
    # it must count what the judge_* verdicts on every fold's operations count.
    def test_grid_point_matches_cross_validate(self, thresholds=(0.05, 0.05)):
        dataset = toy_dataset(n_days=2)
        labeling = LabelingParams(t_x=2, t_y=2, t_c=1)
        seq = SeqParams(criterion="rank", l_rank=1)
        n_single, n_multi = thresholds

        [point] = grid_search(
            dataset,
            ProposedGrid(l_values=(1,), n_single=(n_single,), n_multi=(n_multi,)),
            labelings=[labeling], seq_params=seq,
            injections_per_day=30, seed=9,
        )
        tally = judge_tally(
            dataset, proposed_verdicts(Thresholds(n_single, n_multi)), labeling, seq, 30, 9
        )
        assert (point.tp, point.fn, point.fp, point.tn) == tally

    def test_estimation_grid_matches_cross_validate(self):
        dataset = toy_dataset(n_days=2)
        labeling = LabelingParams(t_x=2, t_y=2, t_c=1)
        [point] = grid_search(
            dataset,
            EstimationGrid(theta=(0.001,)),
            labelings=[labeling], injections_per_day=30, seed=9,
        )
        tally = judge_tally(dataset, estimation_verdicts(0.001), labeling, SeqParams(), 30, 9)
        assert (point.tp, point.fn, point.fp, point.tn) == tally

    def test_sequence_grid_matches_cross_validate(self, thresholds=(0.2, 0.2)):
        dataset = toy_dataset(n_days=2)
        n_single, n_multi = thresholds
        [point] = grid_search(
            dataset,
            SequenceGrid(alpha_seq=(3600.0,), n_single=(n_single,), n_multi=(n_multi,)),
            injections_per_day=30, seed=9,
        )
        params = BaselineParams(alpha_seq=3600.0, n_seq_single=n_single, n_seq_multi=n_multi)
        tally = judge_tally(
            dataset, sequence_verdicts(params), LabelingParams(), SeqParams(), 30, 9
        )
        assert (point.tp, point.fn, point.fp, point.tn) == tally

    def test_zero_thresholds_match_cross_validate(self):
        # Zero multi thresholds accept every operation, also one whose window
        # holds no other event.
        self.test_grid_point_matches_cross_validate(thresholds=(0.05, 0.0))
        self.test_sequence_grid_matches_cross_validate(thresholds=(0.0, 0.0))

    def test_auto_thresholds_yield_frontier_points(self):
        dataset = toy_dataset(n_days=2)
        points = grid_search(
            dataset,
            SequenceGrid(alpha_seq=(900.0,), n_single="auto", n_multi="auto"),
            injections_per_day=50, seed=6,
        )
        assert points
        mis = [p.misdetection_ratio for p in points]
        det = [p.detection_ratio for p in points]
        assert any(d > 0.5 for d in det)
        for p in points:
            assert 0.0 <= p.misdetection_ratio <= 1.0
            assert p.tp + p.fn == 100

    def test_auto_sweep_is_the_frontier_of_every_threshold_pair(self):
        rng = np.random.default_rng(41)
        for trial in range(40):
            n = int(rng.integers(1, 60))
            s1 = rng.integers(0, 6, size=n) / 5.0
            s2 = rng.integers(0, 6, size=n) / 5.0
            injected = rng.random(n) < 0.5
            if trial % 10 == 0:
                injected[:] = trial % 20 == 0  # only injected, or only real operations
            auto = _sweep_two_level("m", {}, s1, s2, injected, "auto", "auto")
            every = _sweep_two_level(
                "m", {}, s1, s2, injected,
                tuple(_candidate_thresholds(s1)), tuple(_candidate_thresholds(s2)),
            )
            counts = lambda points: sorted((p.tp, p.fn, p.fp, p.tn) for p in points)
            assert counts(auto) == counts(pareto_frontier(every))
            for point in auto:
                params = dict(point.params)
                [fixed] = _sweep_two_level(
                    "m", {}, s1, s2, injected, (params["n_single"],), (params["n_multi"],)
                )
                assert fixed == point

    def test_half_auto_sweep_keeps_its_fixed_value(self):
        rng = np.random.default_rng(7)
        s1 = rng.integers(0, 11, size=80) / 10.0
        s2 = rng.integers(0, 11, size=80) / 20.0
        injected = rng.random(80) < 0.5
        points = _sweep_two_level("m", {}, s1, s2, injected, "auto", (0.05,))
        assert points and {dict(p.params)["n_multi"] for p in points} == {0.05}
        rows = two_level_counts_loop(s1, s2, injected, _candidate_thresholds(s1), (0.05,))
        assert sorted((dict(p.params)["n_single"], p.tp, p.fp) for p in points) == sorted(
            (n_single, tp, fp) for n_single, _, tp, fp in frontier_rows_loop(rows)
        )

    def test_auto_sweep_memory_per_cell(self):
        # Shaped like one sweep of the 28-day protocol: 2,800 injected and
        # about 100 real operations, s_single thinned to 2000 candidates and
        # s_multi on about 400.  The two count tables and the frontier's
        # working arrays stay under 20 bytes a cell at their peak.
        rng = np.random.default_rng(3)
        injected = np.arange(2900) < 2800
        s1 = rng.random(2900)
        s2 = np.round(rng.random(2900) * 400) / 400
        cells = len(_candidate_thresholds(s1)) * len(_candidate_thresholds(s2))
        assert cells > 2000 * 390
        tracemalloc.start()
        try:
            _sweep_two_level("m", {}, s1, s2, injected, "auto", "auto")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * cells


def mixed_dataset() -> EvalDataset:
    """Five toy days; day 2 is excluded (a device runs in an empty home) and
    a washing machine, outside the vocabulary, runs on day 4 only."""
    dataset = toy_dataset(n_days=5)
    events = dataset.grid.events + [
        EventRecord(BASE + timedelta(days=2, hours=6), "user_position", "exit"),
        EventRecord(BASE + timedelta(days=4, hours=12), "washing_machine", "on"),
    ]
    rows = frame_rows(dataset.grid.frames)
    frames = columns([rows[i] for i in dataset.grid.frame[:: 12 * 60]])
    pairs = {device: actions for device, actions in DEFAULT_PAIRS.items() if device != "washing_machine"}
    return EvalDataset(grid=build_timeslots(events, frames), vocabulary=Vocabulary(pairs=pairs))


class TestFoldFits:
    # Held out: the first day, a middle day next to the excluded day 2, the
    # day after it, and the last day (the only one with the washing machine).
    @pytest.mark.parametrize("heldout", [0, 1, 3, 4])
    @pytest.mark.parametrize("t_z_max", [720, 5])
    def test_fold_fits_equal_a_refit(self, heldout, t_z_max):
        dataset = mixed_dataset()
        labeling_params = LabelingParams(t_x=3, t_y=3, t_c=2)
        folds = make_folds(
            dataset, labeling_params, ModelParams(t_z_max=t_z_max), SeqParams(), filled=False
        )
        fold = folds[heldout]
        assert all(other.arrays is fold.arrays for other in folds)
        excluded_days = set(fold.arrays.day[fold.arrays.excluded].tolist())
        assert excluded_days == {2}

        # The group pass fits the model before it filters; a model fitted
        # without day 4 cannot filter that day's washing machine.
        with pytest.raises(VocabularyError) if heldout == 4 else nullcontext():
            FoldContext.filter_group([fold])
        transitions, operations = fold.model
        labeled = label_states_per_slot(
            slot_records(dataset.grid), dataset.grid.events, labeling_params, dataset.vocabulary
        )
        arrays = fold.arrays
        training = arrays.select((arrays.day != heldout) & ~arrays.excluded)
        kept = [item for item, keep in zip(labeled, training.keep) if keep]
        assert {(item.slot.t - 1) // 1440 for item in kept} == {0, 1, 3, 4} - {heldout}
        reference_t = fit_transitions(encode_labels(kept), t_z_max)
        reference_o = fit_operations(encode_labels(kept), dataset.vocabulary)
        assert np.array_equal(transitions.probs, reference_t.probs)
        assert np.array_equal(transitions.t_z, reference_t.t_z)
        assert list(operations.probs) == list(reference_o.probs)
        for pair, vec in reference_o.probs.items():
            assert np.array_equal(operations.probs[pair], vec)
        assert (("washing_machine", "on") in operations.probs) == (heldout != 4)

    def test_fold_traces_cover_kept_days_and_heldout_day(self):
        dataset = mixed_dataset()
        fold = make_folds(
            dataset, LabelingParams(t_x=3, t_y=3, t_c=2), ModelParams(), SeqParams(), filled=False
        )[3]
        FoldContext.filter_group([fold])
        training = fold.training_traces
        bounds = dataset.grid.day_bounds().tolist()
        days = [np.arange(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        assert all(len(events) for events in days)
        assert [trace.event_index.tolist() for trace in training] == [
            days[day].tolist() for day in (0, 1, 4)
        ]
        # The training traces keep no slot entries: the pass counted them.
        assert [len(trace.first) - 1 for trace in training] == [1440] * 3
        assert all(trace.entry is None for trace in training)
        assert fold.slot_counts.at_rank.sum() == 3 * 1440 * len(ALPHABET)
        assert len(fold.detection_trace.entry) == 1440
        assert np.array_equal(fold.detection_trace.event_index, days[3])

    def test_serial_collection_releases_each_fold(self):
        dataset = toy_dataset(n_days=3)
        folds = make_folds(
            dataset, LabelingParams(t_x=2, t_y=2, t_c=1), ModelParams(), SeqParams(), filled=False
        )
        scores = _collect_scores(folds, (1,), True, (900.0,), SeqParams(), 10, 1)
        assert [len(column.T) for column in scores.values()] == [3 * (10 + 2)] * 4
        assert all(fold.model is fold.training_traces is fold.detection_trace is None
                   for fold in folds)


class TestBatchedFoldScores:
    def test_scores_equal_scoring_window_by_window(self):
        """On a habit-x20 home, every fold's recorded scores equal, to the
        bit, scoring each judged window alone, one candidate at a time."""
        seq = SeqParams(t_seq=1800)
        folds = make_folds(
            dense_dataset(), LabelingParams(initial_occupants=2), ModelParams(), seq, filled=False
        )
        l_values, alphas = (1, 2), (0.0, 900.0, 1234.5, 43200.0)
        scores = _collect_scores(folds, l_values, True, alphas, seq, 10, 1)
        FoldContext.filter_group(folds)
        expected: dict = {}
        longest = 0
        for fold in folds:
            # The fold's stores, read back as sequence-keyed dicts.
            stores = {l: as_dicts(fold_store(fold, replace(seq, l_rank=l))) for l in l_values}
            operations = fold.model[1]
            timed = as_dicts(fold_timed_store(fold))
            for ctx in fold.judged_operations(10, 1):
                window = [(ctx.preceding, ctx.op)]
                candidates = batch_items(batch_candidates(window, seq, fold.windows.keys))
                longest = max(longest, len(candidates))
                tod = seconds_of_day(ctx.op.timestamp)
                row = {
                    "injected": ctx.injected,
                    "estimation": estimation_score(operations, ctx.belief, ctx.op),
                }
                for l, store in stores.items():
                    row["proposed", l] = proposed_scores(store, ctx.belief, candidates)[:2]
                for alpha in alphas:
                    row["sequence", alpha] = best_per_level_loop(
                        candidates, lambda items: ratio(timed, items, tod, alpha)
                    )[:2]
                for key, value in row.items():
                    expected.setdefault(key, []).append(value)
        assert longest > 300  # windows near w_max
        assert scores.keys() == expected.keys()
        for key, column in scores.items():
            # Exact equality: tolist() and the oracles give the same floats.
            got = column.T.tolist() if column.ndim == 2 else column.tolist()
            assert got == [list(value) if isinstance(value, tuple) else value
                           for value in expected[key]], key


    def test_a_batch_interned_before_the_stores_scores_as_the_oracles(self):
        """A fold's batch, interned before any store of the run enumerates a
        window, keeps its ids while the stores intern their sequences after
        it, and scores as the sequence-keyed oracle stores score it."""
        seq = SeqParams(t_seq=1800)
        folds = make_folds(dense_dataset(), LabelingParams(initial_occupants=2), ModelParams(), seq)
        fold = folds[1]
        keys = fold.windows.keys
        contexts = fold.judged_operations(10, 1)
        assert not keys.items
        batch = batch_candidates([(ctx.preceding, ctx.op) for ctx in contexts], seq, keys)
        interned = list(keys.items)
        store, timed = fold_store(fold), fold_timed_store(fold)
        assert keys.items[: len(interned)] == interned
        assert len(keys.items) > len(interned)
        assert np.isin(batch.ids, store.ids).any() and not np.isin(batch.ids, store.ids).all()

        [(training, _)] = filter_folds_one_by_one([fold])
        oracle = store_sequences_per_window(
            fold.dataset.grid, training, "cooking_stove", seq, len(ALPHABET)
        )
        timed_oracle = fold_oracle(fold, seq)
        items = batch_items(batch)
        # Each candidate finds a row exactly when the oracle holds its sequence.
        for found, stored in ((store, oracle.counts), (timed, timed_oracle.times)):
            rows = detector._rows(found, batch)
            assert (rows < len(found.ids)).tolist() == [y in stored for y in items]
            assert [found.keys.items[found.ids[r]] for r in rows[rows < len(found.ids)]] == [
                y for y in items if y in stored
            ]
        beliefs = np.array([ctx.belief for ctx in contexts])
        windows = [
            candidates_ending_at([*(e.pair for e in ctx.preceding), ctx.op.pair][-seq.w_max :],
                                 seq.l_max)
            for ctx in contexts
        ]
        assert window_levels(batch, detector.proposed_scores(store, beliefs, batch)) == [
            proposed_scores(oracle, belief, candidates)
            for belief, candidates in zip(beliefs, windows)
        ]
        tods = [seconds_of_day(ctx.op.timestamp) for ctx in contexts]
        [levels] = detector.sequence_scores(timed, batch, tods, (900.0,))
        assert window_levels(batch, levels) == [
            best_per_level_loop(candidates, lambda items: ratio(timed_oracle, items, tod, 900.0))
            for candidates, tod in zip(windows, tods)
        ]


class TestFoldWithoutJudgedOperations:
    def dataset(self) -> EvalDataset:
        """Three toy days; the middle one has no stove operation."""
        dataset = toy_dataset(n_days=3)
        day = BASE + timedelta(days=1)
        events = [
            e for e in dataset.grid.events
            if e.device != "cooking_stove" or not day <= e.timestamp < day + timedelta(days=1)
        ]
        return EvalDataset(build_timeslots(events, dataset.grid.frames), dataset.vocabulary)

    def test_counts_equal_the_judges_without_injections(self):
        dataset = self.dataset()
        labeling, seq = LabelingParams(t_x=2, t_y=2, t_c=1), SeqParams()
        folds = make_folds(dataset, labeling, ModelParams(), seq)
        assert [len(fold.judged_operations(0, 9)) for fold in folds] == [2, 0, 2]
        points = grid_search(
            dataset,
            ProposedGrid(l_values=(1,), n_single=(0.05,), n_multi=(0.05,)),
            EstimationGrid(theta=(0.001,)),
            SequenceGrid(alpha_seq=(3600.0,), n_single=(0.2,), n_multi=(0.2,)),
            labelings=[labeling], seq_params=seq, injections_per_day=0, seed=9,
        )
        verdicts = {
            "proposed": proposed_verdicts(Thresholds(0.05, 0.05)),
            "estimation": estimation_verdicts(0.001),
            "sequence": sequence_verdicts(
                BaselineParams(alpha_seq=3600.0, n_seq_single=0.2, n_seq_multi=0.2)
            ),
        }
        assert [point.method for point in points] == sorted(verdicts)
        for point in points:
            tally = judge_tally(dataset, verdicts[point.method], labeling, seq, 0, 9)
            assert (point.tp, point.fn, point.fp, point.tn) == tally
            assert (point.tp + point.fn, point.fp + point.tn) == (0, 4)


class TestWindowEnumeration:
    @pytest.mark.parametrize(
        "grids",
        [
            (SequenceGrid(alpha_seq=(0.0, 900.0, 3600.0)),),
            (ProposedGrid(l_values=(1, 2)),),
            (
                ProposedGrid(l_values=(1, 2)),
                SequenceGrid(alpha_seq=(0.0, 900.0, 3600.0)),
            ),
        ],
        ids=["sequence", "proposed", "proposed+sequence"],
    )
    def test_each_judged_window_is_enumerated_once(self, grids, monkeypatch):
        enumerate_window = detector.candidates_ending_at
        label = evaluation.label_states
        calls, labelings = [], []

        def counting(pairs, l_max):
            calls.append(len(pairs))
            return enumerate_window(pairs, l_max)

        def counting_labels(*args, **kwargs):
            labelings.append(args[1])
            return label(*args, **kwargs)

        monkeypatch.setattr(detector, "candidates_ending_at", counting)
        monkeypatch.setattr(evaluation, "label_states", counting_labels)
        grid_search(
            toy_dataset(n_days=3), *grids, labelings=[LabelingParams(t_x=2, t_y=2, t_c=1)],
            injections_per_day=10, seed=2,
        )
        # Each fold judges its day's two stove operations and 10 injected ones.
        assert len(calls) == 3 * (2 + 10)
        # The sequence method reads no labels.
        assert len(labelings) == any(not isinstance(g, SequenceGrid) for g in grids)

    def test_each_training_window_is_enumerated_once_per_run(self, monkeypatch):
        enumerate_window = seqstore._enumerate_distinct
        windows = []

        def counting(pairs, l_max):
            windows.append(tuple(pairs))
            return enumerate_window(pairs, l_max)

        monkeypatch.setattr(seqstore, "_enumerate_distinct", counting)
        grids = (
            ProposedGrid(l_values=(1, 2, 3)),
            SequenceGrid(alpha_seq=(0.0, 900.0)),
        )
        labelings = [LabelingParams(t_x=t_x, t_y=2, t_c=1) for t_x in (2, 3)]
        grid_search(
            toy_dataset(n_days=3), *grids, labelings=labelings, injections_per_day=10, seed=2
        )
        # Two labelings, three folds each, three l values and the timed store,
        # yet each day's two stove windows are enumerated once: the timed
        # store's windows start after midnight and are the days' own.
        assert len(windows) == 3 * 2
        assert [len(pairs) for pairs in windows] == [2, 1] * 3  # stove on, stove off


class TestOneFoldPass:
    # Given out of order: the labelings are folded in the order given.
    LABELINGS = [LabelingParams(t_x=t_x, t_y=2, t_c=1) for t_x in (3, 2, 4)]

    def grids(self):
        return (
            ProposedGrid(l_values=(1, 2)),
            EstimationGrid(),
            SequenceGrid(alpha_seq=(900.0, 3600.0)),
        )

    def test_all_methods_equal_one_grid_calls(self):
        dataset = toy_dataset(n_days=3)
        kwargs = dict(labelings=self.LABELINGS, injections_per_day=15, seed=4)
        together = grid_search(dataset, *self.grids(), **kwargs)
        alone = [p for grid in self.grids() for p in grid_search(dataset, grid, **kwargs)]
        assert together == sorted(alone, key=lambda p: p.sort_key)
        assert {p.method for p in together} == {"proposed", "estimation", "sequence"}
        # Both labeling methods read every labeling; sequence names none.
        assert {(p.method, dict(p.params).get("t_x")) for p in together} == {
            *((method, t_x) for method in ("proposed", "estimation") for t_x in (2, 3, 4)),
            ("sequence", None),
        }

    def labeled(self, monkeypatch, *grids, labelings):
        label = evaluation.label_states
        labelings_seen = []

        def counting_labels(*args, **kwargs):
            labelings_seen.append(args[1])
            return label(*args, **kwargs)

        monkeypatch.setattr(evaluation, "label_states", counting_labels)
        grid_search(toy_dataset(n_days=3), *grids, labelings=labelings,
                    injections_per_day=5, seed=1)
        return labelings_seen

    def test_each_given_labeling_is_labeled_once_in_order(self, monkeypatch):
        assert self.labeled(monkeypatch, *self.grids(), labelings=self.LABELINGS) == (
            self.LABELINGS
        )

    def test_sequence_alone_labels_nothing(self, monkeypatch):
        grid = SequenceGrid(alpha_seq=(900.0,))
        assert self.labeled(monkeypatch, grid, labelings=self.LABELINGS) == []

    @pytest.mark.parametrize("labelings", [
        [LabelingParams(t_x=2, t_y=2, t_c=1), LabelingParams(t_x=3), LabelingParams(t_x=3)],
        # A point names its labeling by its windows alone.
        [LabelingParams(t_c=5), LabelingParams(t_c=5, noise_threshold=40.0)],
        [],
    ], ids=["repeated", "same-windows", "none"])
    def test_labelings_that_no_point_tells_apart_are_refused(self, labelings, monkeypatch):
        monkeypatch.setattr(evaluation, "label_states", None)  # no work before the check
        with pytest.raises(ValidationError):
            grid_search(toy_dataset(n_days=2), *self.grids(), labelings=labelings)

    @pytest.mark.parametrize(
        "grids",
        [
            (SequenceGrid(), SequenceGrid()),
            (ProposedGrid(), EstimationGrid(), ProposedGrid(l_values=(2,))),
            (),
        ],
        ids=["two-sequence", "two-proposed", "none"],
    )
    def test_one_grid_per_method(self, grids, monkeypatch):
        monkeypatch.setattr(evaluation, "label_states", None)  # no work before the check
        with pytest.raises(ValidationError):
            grid_search(toy_dataset(n_days=2), *grids)


def pt(mis: float, det: float, tag: str = "x") -> EvalPoint:
    tp = round(det * 100)
    fp = round(mis * 1000)
    return EvalPoint("m", make_params({"tag": tag}), tp=tp, fn=100 - tp, fp=fp, tn=1000 - fp)


class TestParetoFrontier:
    def test_single_point(self):
        point = pt(0.1, 0.5)
        assert pareto_frontier([point]) == [point]

    def test_documented_example(self):
        points = [pt(0.05, 0.6, "a"), pt(0.08, 0.5, "b"), pt(0.10, 0.9, "c")]
        frontier = pareto_frontier(points)
        assert [(p.misdetection_ratio, p.detection_ratio) for p in frontier] == [
            (0.05, 0.6),
            (0.10, 0.9),
        ]

    def test_identical_points_collapse(self):
        points = [pt(0.2, 0.4, t) for t in "abc"]
        assert len(pareto_frontier(points)) == 1

    def test_properties_against_quadratic_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            points = [
                pt(float(rng.integers(0, 50)) / 50.0, float(rng.integers(0, 20)) / 20.0, str(i))
                for i, n_ in zip(range(n), range(n))
            ]
            frontier = pareto_frontier(points)
            mis = [p.misdetection_ratio for p in frontier]
            det = [p.detection_ratio for p in frontier]
            assert mis == sorted(mis) and len(set(mis)) == len(mis)
            assert det == sorted(det)
            for p in points:
                assert any(
                    q.misdetection_ratio <= p.misdetection_ratio
                    and q.detection_ratio >= p.detection_ratio
                    for q in frontier
                )
            for q in frontier:
                assert not any(
                    p.misdetection_ratio <= q.misdetection_ratio
                    and p.detection_ratio > q.detection_ratio
                    for p in points
                )

    def test_empty(self):
        assert pareto_frontier([]) == []

    def test_running_maximum_equals_the_loop(self):
        # Few distinct values, so ties in misdetection, in detection and in
        # both are common.  Misdetection is given by level, as
        # pareto_frontier codes its ratios.
        rng = np.random.default_rng(23)
        for _ in range(500):
            n = int(rng.integers(1, 60))
            mis = rng.integers(0, 6, size=n)
            det = rng.integers(0, 6, size=n) / 5.0
            assert _frontier_indices(mis, det) == frontier_indices_loop(mis, det)
        assert _frontier_indices(np.array([], dtype=int), np.array([])) == []

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    @pytest.mark.parametrize("inj, real", [(6, 9), (0, 9), (6, 0), (0, 0)])
    def test_counts_give_the_frontier_of_their_ratios(self, inj, real, dtype):
        # Count tables shaped like the auto sweep's: a histogram of the
        # operations over the candidate pairs, summed along both axes in
        # place.
        rng = np.random.default_rng(41 + inj + real)

        def table(n_ops, shape):
            hist = np.zeros(shape, dtype=dtype)
            np.add.at(hist, tuple(rng.integers(0, n, size=n_ops) for n in shape), 1)
            for axis in (0, 1):
                np.cumsum(hist, axis=axis, dtype=dtype, out=hist)
            return hist.ravel()

        def check(shape, n_inj, n_real):
            tp, fp = table(n_inj, shape), table(n_real, shape)
            det = tp / n_inj if n_inj else np.zeros(tp.size)
            mis = fp / n_real if n_real else np.zeros(fp.size)
            assert _frontier_indices(fp, tp) == frontier_indices_loop(mis, det)

        for _ in range(200):
            check(tuple(int(n) for n in rng.integers(1, 12, size=2)), inj, real)
        # An auto sweep thinned to 2000 candidates on one axis, with many
        # more operations.
        check((2000, int(rng.integers(20, 40))), 300 * inj, 300 * real)

    def test_points_equal_a_sort_and_scan(self):
        # The rule pareto_frontier followed before it went through
        # _frontier_indices: sort by (mis, -det, sort_key), keep rising det.
        rng = np.random.default_rng(29)
        for _ in range(200):
            points = [
                pt(float(rng.integers(0, 4)) / 10.0, float(rng.integers(0, 4)) / 4.0,
                   str(rng.integers(0, 5)))
                for _ in range(int(rng.integers(1, 30)))
            ]
            ordered = sorted(points, key=lambda p: (p.misdetection_ratio,
                                                    -p.detection_ratio, p.sort_key))
            expected, best = [], -1.0
            for point in ordered:
                if point.detection_ratio > best:
                    expected.append(point)
                    best = point.detection_ratio
            frontier = pareto_frontier(points)
            assert len(frontier) == len(expected)
            assert all(a is b for a, b in zip(frontier, expected))


class TestBestAt:
    def frontier(self):
        return [pt(0.05, 0.6, "a"), pt(0.08, 0.5, "b"), pt(0.10, 0.9, "c")]

    def test_documented_cap(self):
        point = best_at(self.frontier(), 0.10)
        assert (point.misdetection_ratio, point.detection_ratio) == (0.05, 0.6)

    def test_loose_cap_gives_global_max(self):
        point = best_at(self.frontier(), 1.1)
        assert point.detection_ratio == 0.9

    def test_cap_is_strict(self):
        # A point exactly at the cap is excluded.
        assert best_at([pt(0.10, 0.9)], 0.10) is None

    def test_empty_absence(self):
        assert best_at([], 0.10) is None


def early_origin_dataset(n_days=6, quiet=()) -> EvalDataset:
    """Days from 04:00 to 04:00.  An operation in an empty home excludes its
    date on the second and fourth calendar dates, so days 0 and 2 keep only
    their 04:00-24:00 part and days 1 and 3 their 00:00-04:00 part.  The
    days in ``quiet`` have no events."""
    events, frames = [], []
    for day in range(n_days):
        start = BASE + timedelta(days=day, hours=4)
        frames.append(frame(start))
        at = lambda hours, minutes: start + timedelta(hours=hours, minutes=minutes)
        if day in quiet:
            continue
        events += [
            EventRecord(at(3, 28), "refrigerator", "opening"),
            EventRecord(at(3, 30), "cooking_stove", "on"),
            EventRecord(at(3, 45), "cooking_stove", "off"),
            EventRecord(at(14, 5), "tv", "on"),
            EventRecord(at(14, 7 + day), "cooking_stove", "on"),
            EventRecord(at(21, 0), "room_light", "on"),
            EventRecord(at(22, 40), "refrigerator", "opening"),
        ]
        if day in (0, 2):
            events += [
                EventRecord(at(21, 10), "user_position", "exit"),
                EventRecord(at(21, 30), "tv", "on"),
            ]
    return EvalDataset(build_timeslots(events, columns(frames), time(4, 0)), Vocabulary())


class TestGroupedFoldFilter:
    """Every fold's traces from the grouped pass are bitwise those of
    filtering its kept days and its held-out day on their own."""

    # Group size -> the most models sharing a pass over the kept parts.
    @pytest.mark.parametrize("group, sharing", [(1, 1), (2, 2), (4, 2), (6, 4)])
    def test_groups_equal_one_fold_at_a_time(self, group, sharing, monkeypatch):
        dataset = early_origin_dataset()
        folds = make_folds(
            dataset, LabelingParams(t_x=3, t_y=3, t_c=2), ModelParams(), SeqParams(), filled=False
        )
        expected = filter_folds_one_by_one(folds)
        # Days 0 and 2 keep 04:00-24:00, days 1 and 3 00:00-04:00.
        assert [len(trace.entry) for trace in expected[5][0]] == [1200, 240, 1200, 240, 1440]
        shapes = []
        lockstep = hsmodel._lockstep

        def recording(grid, streams, models, *rows):
            shapes.append((len(models), len(streams), len(streams[0])))
            return lockstep(grid, streams, models, *rows)

        def whole_grid_only(*args):
            raise AssertionError("only run_filter filters a stream by day chunks")

        monkeypatch.setattr(hsmodel, "_lockstep", recording)
        monkeypatch.setattr(hsmodel, "_filter_alone", whole_grid_only)
        for start in range(0, len(folds), group):
            FoldContext.filter_group(folds[start : start + group])
        for fold, (training, detection) in zip(folds, expected):
            assert len(fold.training_traces) == len(training)
            for got, ref in zip(fold.training_traces, training):
                assert got.entry is None
                assert_traces_equal(replace(got, entry=ref.entry), ref)
            assert_counts_equal(fold.slot_counts, [ref.entry for ref in training])
            assert_traces_equal(fold.detection_trace, detection)
        # Every model of a group filters the six days whole.  A kept part runs
        # in lockstep with the other part of its length under the folds that
        # keep both, and as a group of one under the folds that keep one.
        assert (min(group, 6), 6, 1440) in shapes
        assert {n for _, rows, n in shapes if rows == 1} == {1200, 240}
        assert max(m for m, rows, n in shapes if rows == 2 and n < 1440) == sharing

    def test_filter_pass_memory_per_fold_day(self, monkeypatch):
        # One group pass of the 28-day protocol: four folds, each filtering
        # its 27 kept days and its held-out day.  Beyond the four fitted
        # models, the pass holds the held-out days' slot entries, every
        # day's event beliefs and one block of slots; a training day's
        # (1440, S) slot entries alone would take 115 KB per fold-day.
        result = generate(scenario_s1(seed=11, n_days=28))
        dataset = EvalDataset(build_timeslots(result.events, result.frames), Vocabulary())
        labeling = LabelingParams(t_x=15, t_y=15, t_c=10, initial_occupants=2)
        folds = make_folds(dataset, labeling, ModelParams(), SeqParams(), filled=False)[:4]
        passes = []
        filter_models = evaluation.filter_models

        def measured(*args, **kwargs):
            # From the fitted models on: what the pass itself adds.
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            traces = filter_models(*args, **kwargs)
            passes.append(tracemalloc.get_traced_memory()[1] - before)
            return traces

        monkeypatch.setattr(evaluation, "filter_models", measured)
        tracemalloc.start()
        try:
            FoldContext.filter_group(folds)
        finally:
            tracemalloc.stop()
        [peak] = passes
        assert peak < 40_000 * len(folds) * dataset.n_days

    def test_collect_scores_filters_each_group_once(self, monkeypatch):
        dataset = early_origin_dataset()
        folds = make_folds(
            dataset, LabelingParams(t_x=3, t_y=3, t_c=2), ModelParams(), SeqParams(), filled=False
        )
        groups = []
        filter_group = FoldContext.filter_group

        def recording(group, alphas):
            groups.append(list(group))
            filter_group(group, alphas)

        monkeypatch.setattr(FoldContext, "filter_group", staticmethod(recording))
        scores = _collect_scores(folds, (1,), True, (), SeqParams(), 5, 1)
        size = evaluation.FOLD_GROUP
        assert groups == [folds[start : start + size] for start in range(0, len(folds), size)]
        assert all(fold.model is fold.training_traces is fold.detection_trace is None
                   for fold in folds)
        stove = [e for e in dataset.grid.events if e.device == "cooking_stove"]
        assert len(scores["injected"]) == len(stove) + 5 * len(folds)

    def test_sequence_scores_fit_and_filter_nothing(self, monkeypatch):
        dataset = early_origin_dataset()
        folds = make_folds(
            dataset, LabelingParams(t_x=3, t_y=3, t_c=2), ModelParams(), SeqParams(), filled=False
        )

        def refused(*args, **kwargs):
            raise AssertionError("the sequence method reads no model and no belief")

        for module, name in [(evaluation, "fit_transitions"), (evaluation, "fit_operations"),
                             (evaluation, "filter_models"), (hsmodel, "filter_models")]:
            monkeypatch.setattr(module, name, refused)
        scores = _collect_scores(folds, (), False, (900.0,), SeqParams(), 5, 1)
        assert scores.keys() == {"injected", ("sequence", 900.0)}
        assert all(fold.model is fold.training_traces is fold.detection_trace is None
                   for fold in folds)


class TestJudgedBeliefRead:
    """A judged operation's belief is read by index from its fold's
    detection trace: the belief after every update strictly before the
    operation, as walking the events of its slot finds it."""

    @staticmethod
    def instants(day_start, events):
        """Instants of one day: the start and the middle of every tenth slot,
        and around each event its slot's start, its own instant, a
        microsecond and a second either side of it, and the end of its slot."""
        minute, tick = timedelta(minutes=1), timedelta(microseconds=1)
        found = [day_start + pos * minute + offset for pos in range(0, SLOTS_PER_DAY, 10)
                 for offset in (timedelta(0), minute / 2)]
        for event in events:
            ts = event.timestamp
            slot = day_start + (ts - day_start) // minute * minute
            found += [slot, ts, ts - tick, ts + tick, ts - timedelta(seconds=1),
                      ts + timedelta(seconds=1), slot + minute - tick]
        day_end = day_start + timedelta(days=1)
        return sorted({ts for ts in found if day_start <= ts < day_end})

    def test_every_belief_equals_the_event_walk(self, monkeypatch):
        dataset = early_origin_dataset(quiet=(4,))
        grid = dataset.grid
        bounds = grid.day_bounds().tolist()
        days = [grid.events[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        folds = make_folds(dataset, LabelingParams(t_x=3, t_y=3, t_c=2), ModelParams(), SeqParams())

        def chosen(day_start, count, seed, day_index, device):
            return tuple(EventRecord(ts, device, "on")
                         for ts in self.instants(day_start, days[day_index]))

        monkeypatch.setattr(evaluation, "inject_anomalies", chosen)
        seen = dict.fromkeys(["real", "slot start", "at an event", "before a first event",
                              "after a last event", "no events in the slot", "quiet day"], 0)
        for fold in folds:
            day = fold.heldout_day
            slots = slot_records(grid, range(day * SLOTS_PER_DAY, (day + 1) * SLOTS_PER_DAY))
            trace = fold.detection_trace
            for ctx in fold.judged_operations(0, 0):
                ts = ctx.op.timestamp
                assert np.array_equal(ctx.belief, belief_before_walk(trace, slots, ts))
                if not ctx.injected:
                    seen["real"] += 1
                    assert np.array_equal(ctx.belief, trace.pre[ctx.index])
                    continue
                slot = slots[(ts - slots[0].start) // timedelta(minutes=1)]
                before = [event for event in slot.events if event.timestamp < ts]
                seen["slot start"] += ts == slot.start
                seen["at an event"] += any(event.timestamp == ts for event in slot.events)
                seen["before a first event"] += bool(slot.events) and not before
                seen["after a last event"] += bool(slot.events) and before == list(slot.events)
                seen["no events in the slot"] += not slot.events
                seen["quiet day"] += not days[day]
        assert all(seen.values()), seen
