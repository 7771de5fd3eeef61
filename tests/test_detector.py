"""Verdict logic for the combined method and the two comparison methods."""

import numpy as np
import pytest

from homeguard.detector import (
    ANOMALOUS,
    LEGITIMATE,
    BaselineParams,
    Thresholds,
    _rows,
    batch_candidates,
    estimation_score,
    judge_estimation_baseline,
    judge_proposed,
    judge_sequence_baseline,
    proposed_scores,
    sequence_scores,
)
from homeguard.errors import UsageError
from homeguard.evaluation import _sweep_two_level
from homeguard.hsmodel import ModelParams, OperationTable, TrainedModel, TransitionTensor
from homeguard.labeling import LabelingParams
from homeguard.seqstore import (
    SeqParams,
    SequenceIds,
    SequenceStore,
    candidates_ending_at,
    seconds_of_day,
)
from homeguard.vocab import Vocabulary

from conftest import ev, id_store, id_timed_store
from oracles import (
    best_per_level_loop,
    flat_candidates,
    ratio,
    store_vector,
    window_levels,
)
from oracles import estimation_score as estimation_score_one
from oracles import proposed_scores as proposed_scores_one

STOVE_ON = (("cooking_stove", "on"),)


def make_model(store: SequenceStore, seq_params: SeqParams | None = None) -> TrainedModel:
    n = len(store.slot_counts)
    return TrainedModel(
        vocabulary=Vocabulary(),
        labeling_params=LabelingParams(),
        model_params=ModelParams(),
        seq_params=seq_params or SeqParams(),
        transitions=TransitionTensor(np.zeros((1440, n, n)), np.zeros(1440, dtype=np.int64)),
        operations=OperationTable(),
        store=store,
        baseline_store=id_timed_store(keys=store.keys),
    )


def judge_one(judge, source, belief, preceding, op, *rest):
    """The verdict of ``judge_proposed`` or ``judge_estimation_baseline``
    (after its model or operation table, ``source``) on a batch of one
    window."""
    [verdict] = judge(source, np.asarray(belief)[None], [(preceding, op)], *rest)
    return verdict


def store_with(entries: dict, slot_counts) -> SequenceStore:
    return id_store(slot_counts, entries)


class TestJudgeProposed:
    def test_empty_store_is_anomalous(self):
        model = make_model(store_with({}, [10, 10]))
        verdict = judge_one(
            judge_proposed, model, np.array([0.5, 0.5]), [], ev(0.5, "cooking_stove", "on"),
            Thresholds(n_single=0.1, n_multi=0.1),
        )
        assert verdict.decision == ANOMALOUS
        assert verdict.delta == 0.0

    def test_zero_thresholds_always_legitimate(self):
        model = make_model(store_with({}, [10, 10]))
        verdict = judge_one(
            judge_proposed, model, np.array([0.5, 0.5]), [], ev(0.5, "cooking_stove", "on"),
            Thresholds(n_single=0.0, n_multi=0.0),
        )
        assert verdict.decision == LEGITIMATE

    def test_hand_arithmetic(self):
        # b'(state0, y) = 0.2, b'(state1, y) = 0; belief (0.7, 0.3):
        # delta = 0.14 >= 0.1 -> legitimate.
        store = store_with({STOVE_ON: [2, 0]}, [10, 5])
        model = make_model(store)
        verdict = judge_one(
            judge_proposed, model, np.array([0.7, 0.3]), [], ev(0.5, "cooking_stove", "on"),
            Thresholds(n_single=0.1, n_multi=0.1),
        )
        assert verdict.delta == pytest.approx(0.14)
        assert verdict.decision == LEGITIMATE
        assert verdict.sequence == STOVE_ON
        assert verdict.sequence_length == 1

    def test_boundary_delta_equal_threshold_is_legitimate(self):
        store = store_with({STOVE_ON: [1, 0]}, [10, 10])
        model = make_model(store)
        verdict = judge_one(
            judge_proposed, model, np.array([1.0, 0.0]), [], ev(0.5, "cooking_stove", "on"),
            Thresholds(n_single=0.1, n_multi=0.1),
        )
        assert verdict.delta == pytest.approx(0.1)
        assert verdict.decision == LEGITIMATE

    def test_threshold_monotonicity(self):
        store = store_with(
            {
                STOVE_ON: [3, 1],
                (("refrigerator", "opening"), ("cooking_stove", "on")): [2, 0],
            },
            [10, 10],
        )
        model = make_model(store)
        belief = np.array([0.6, 0.4])
        preceding = [ev(0.2, "refrigerator", "opening")]
        op = ev(0.5, "cooking_stove", "on")
        previous_anomalous = False
        for n in np.linspace(0.0, 1.0, 21):
            verdict = judge_one(judge_proposed, model, belief, preceding, op, Thresholds(n, n))
            if previous_anomalous:
                assert verdict.decision == ANOMALOUS
            previous_anomalous = verdict.decision == ANOMALOUS

    def test_decision_equals_any_candidate_check(self):
        # Order-free restatement: the verdict matches an OR over per-candidate
        # threshold tests computed independently.
        store = store_with(
            {
                STOVE_ON: [1, 0],
                (("tv", "on"), ("cooking_stove", "on")): [4, 2],
                (("refrigerator", "opening"), ("cooking_stove", "on")): [0, 3],
            },
            [8, 6],
        )
        model = make_model(store)
        belief = np.array([0.3, 0.7])
        preceding = [ev(0.1, "tv", "on"), ev(0.3, "refrigerator", "opening")]
        op = ev(0.5, "cooking_stove", "on")
        thresholds = Thresholds(n_single=0.2, n_multi=0.15)
        verdict = judge_one(judge_proposed, model, belief, preceding, op, thresholds)

        candidates = [
            STOVE_ON,
            (("tv", "on"), ("cooking_stove", "on")),
            (("refrigerator", "opening"), ("cooking_stove", "on")),
            (("tv", "on"), ("refrigerator", "opening"), ("cooking_stove", "on")),
        ]
        passes = [
            float(np.dot(store_vector(store, items), belief))
            >= (thresholds.n_single if len(items) == 1 else thresholds.n_multi)
            for items in candidates
        ]
        assert (verdict.decision == LEGITIMATE) == any(passes)

    def test_single_operation_still_judged(self):
        model = make_model(store_with({STOVE_ON: [5, 0]}, [10, 10]))
        verdict = judge_one(
            judge_proposed, model, np.array([1.0, 0.0]), [], ev(0.5, "cooking_stove", "on"),
            Thresholds(n_single=0.4, n_multi=0.4),
        )
        assert verdict.sequence_length == 1
        assert verdict.decision == LEGITIMATE

    def test_delta_stays_in_unit_interval(self):
        rng = np.random.default_rng(5)
        store = store_with({STOVE_ON: [7, 3]}, [7, 3])
        model = make_model(store)
        for _ in range(50):
            belief = rng.random(2)
            belief /= belief.sum()
            op = ev(0.5, "cooking_stove", "on")
            verdict = judge_one(judge_proposed, model, belief, [], op, Thresholds(0.5, 0.5))
            assert 0.0 <= verdict.delta <= 1.0

    def test_non_target_operation_rejected(self):
        model = make_model(store_with({}, [1, 1]))
        with pytest.raises(UsageError):
            judge_one(
                judge_proposed, model, np.array([0.5, 0.5]), [], ev(0.5, "tv", "on"), Thresholds()
            )

    def test_zero_multi_threshold_with_a_lone_operation_is_legitimate(self):
        # No candidate longer than one exists, so s_multi = 0.0 >= n_multi = 0;
        # the evaluate grid decides so too.
        model = make_model(store_with({}, [10, 10]))
        belief = np.array([0.5, 0.5])
        op = ev(0.5, "cooking_stove", "on")
        verdict = judge_one(judge_proposed, model, belief, [], op, Thresholds(0.1, 0.0))
        assert verdict.decision == LEGITIMATE
        assert (verdict.delta, verdict.threshold, verdict.sequence) == (0.0, 0.1, STOVE_ON)
        batch = batch_candidates([([], op)], model.seq_params, model.store.keys)
        [scores] = window_levels(batch, proposed_scores(model.store, belief[None], batch))
        assert grid_flags(scores, 0.1, 0.0) == 0

    def test_evidence_is_the_level_with_the_larger_margin(self):
        # s_single = 0.25, s_multi = 0.5 (fridge then stove); exact in binary.
        pair = (("refrigerator", "opening"), ("cooking_stove", "on"))
        model = make_model(store_with({STOVE_ON: [1, 1], pair: [2, 2]}, [4, 4]))
        belief = np.array([0.5, 0.5])
        preceding = [ev(0.2, "refrigerator", "opening")]
        op = ev(0.5, "cooking_stove", "on")
        multi = judge_one(judge_proposed, model, belief, preceding, op, Thresholds(0.125, 0.25))
        assert (multi.sequence, multi.delta, multi.threshold) == (pair, 0.5, 0.25)
        tie = judge_one(judge_proposed, model, belief, preceding, op, Thresholds(0.125, 0.375))
        assert (tie.sequence, tie.delta, tie.threshold) == (STOVE_ON, 0.25, 0.125)


def grid_flags(scores, n_single, n_multi) -> int:
    """Anomalous verdicts the evaluate grid gives one real operation's scores."""
    s1, s2, injected = np.array([scores.single]), np.array([scores.multi]), np.array([False])
    [point] = _sweep_two_level("m", {}, s1, s2, injected, (n_single,), (n_multi,))
    return point.fp


class TestJudgeEstimation:
    def table(self):
        return OperationTable(
            probs={("cooking_stove", "on"): np.array([0.4, 0.0])}
        )

    def judge(self, table, theta, device="cooking_stove"):
        return judge_one(
            judge_estimation_baseline, table, np.array([0.5, 0.5]), [], ev(0.5, device, "on"),
            theta, "cooking_stove",
        )

    def test_hand_arithmetic(self):
        verdict = self.judge(self.table(), 0.1)
        assert verdict.delta == pytest.approx(0.2)
        assert verdict.decision == LEGITIMATE

    def test_zero_theta_with_positive_score(self):
        assert self.judge(self.table(), 0.0).decision == LEGITIMATE

    def test_theta_one_always_anomalous(self):
        table = OperationTable(
            probs={("cooking_stove", "on"): np.array([1.0, 1.0])}
        )
        # The score can never exceed one.
        assert self.judge(table, 1.0).decision == ANOMALOUS

    def test_strict_inequality_at_threshold(self):
        assert self.judge(self.table(), 0.2).decision == ANOMALOUS

    def test_non_target_rejected(self):
        with pytest.raises(UsageError):
            self.judge(self.table(), 0.5, device="tv")


class TestJudgeSequence:
    def test_nothing_stored_is_anomalous(self):
        store = id_timed_store()
        [verdict] = judge_sequence_baseline(
            store, [([], ev(0.5, "cooking_stove", "on"))],
            BaselineParams(n_seq_single=0.1, n_seq_multi=0.1), SeqParams(), "cooking_stove",
        )
        assert verdict.decision == ANOMALOUS
        assert (verdict.delta, verdict.sequence_length) == (0.0, 1)

    def test_nothing_stored_with_zero_thresholds_is_legitimate(self):
        # An empty store scores 0.0 like any other miss, and 0.0 >= 0.
        op = ev(0.5, "cooking_stove", "on")
        preceding = [ev(0.2, "tv", "on")]
        params = BaselineParams(n_seq_single=0.0, n_seq_multi=0.0)
        store = id_timed_store()
        [verdict] = judge_sequence_baseline(
            store, [(preceding, op)], params, SeqParams(), "cooking_stove"
        )
        assert verdict.decision == LEGITIMATE
        batch = batch_candidates([(preceding, op)], SeqParams(), store.keys)
        [levels] = sequence_scores(store, batch, [seconds_of_day(op.timestamp)], (900.0,))
        [scores] = window_levels(batch, levels)
        assert grid_flags(scores, 0.0, 0.0) == 0

    def test_hand_ratio(self):
        # 3 of 10 stored target operations match within the window: 0.3 >= 0.25.
        op = ev(600.0, "cooking_stove", "on")  # 10:00
        tod = 600 * 60.0
        store = id_timed_store({STOVE_ON: sorted([tod - 100, tod + 50, tod + 200])}, 10)
        [verdict] = judge_sequence_baseline(
            store, [([], op)],
            BaselineParams(alpha_seq=900.0, n_seq_single=0.25, n_seq_multi=0.25),
            SeqParams(), "cooking_stove",
        )
        assert verdict.delta == pytest.approx(0.3)
        assert verdict.decision == LEGITIMATE

    def test_ratio_below_threshold_is_anomalous(self):
        op = ev(600.0, "cooking_stove", "on")
        store = id_timed_store({STOVE_ON: [600 * 60.0]}, 10)
        [verdict] = judge_sequence_baseline(
            store, [([], op)],
            BaselineParams(alpha_seq=900.0, n_seq_single=0.25, n_seq_multi=0.25),
            SeqParams(), "cooking_stove",
        )
        assert verdict.delta == pytest.approx(0.1)
        assert verdict.decision == ANOMALOUS

    def test_half_day_window_vacuous(self):
        op = ev(0.5, "cooking_stove", "on")  # 00:00:30
        noon = 12 * 3600.0
        store = id_timed_store({STOVE_ON: [noon]}, 1)
        [verdict] = judge_sequence_baseline(
            store, [([], op)],
            BaselineParams(alpha_seq=43200.0, n_seq_single=1.0, n_seq_multi=1.0),
            SeqParams(), "cooking_stove",
        )
        assert verdict.delta == pytest.approx(1.0)
        assert verdict.decision == LEGITIMATE

    def test_midnight_wrap_counts(self):
        op = ev(1.0, "cooking_stove", "on")  # 00:01
        store = id_timed_store({STOVE_ON: [86340.0]}, 1)  # 23:59
        [verdict] = judge_sequence_baseline(
            store, [([], op)],
            BaselineParams(alpha_seq=300.0, n_seq_single=0.5, n_seq_multi=0.5),
            SeqParams(), "cooking_stove",
        )
        assert verdict.decision == LEGITIMATE

    def test_a_batch_judges_each_window_as_it_would_alone(self):
        rng = np.random.default_rng(6)
        pairs = [("tv", "on"), ("heater", "on"), STOVE_ON[0]]
        store = id_timed_store(
            {
                items: sorted(rng.uniform(0, 86400, size=3).tolist())
                for items in candidates_ending_at([*pairs, STOVE_ON[0]], 3)
            },
            5,
        )
        windows = [
            ([ev(minute - 0.5, *pairs[i]) for i in rng.integers(0, 3, size=rng.integers(0, 5))],
             ev(minute, "cooking_stove", "on"))
            for minute in rng.uniform(1, 1439, size=12).round(2).tolist()
        ]
        params = BaselineParams(alpha_seq=3600.0, n_seq_single=0.2, n_seq_multi=0.4)
        batch = judge_sequence_baseline(store, windows, params, SeqParams(), "cooking_stove")
        alone = [
            judge_sequence_baseline(store, [window], params, SeqParams(), "cooking_stove")[0]
            for window in windows
        ]
        assert [v.to_jsonl() for v in batch] == [v.to_jsonl() for v in alone]
        assert batch == alone
        assert judge_sequence_baseline(store, [], params, SeqParams(), "cooking_stove") == []

    def test_non_target_rejected(self):
        with pytest.raises(UsageError):
            judge_sequence_baseline(
                id_timed_store(), [([], ev(0.5, "tv", "on"))],
                BaselineParams(), SeqParams(), "cooking_stove",
            )


class TestVerdictSerialization:
    def test_jsonl_fields(self):
        model = make_model(store_with({STOVE_ON: [1, 0]}, [4, 4]))
        verdict = judge_one(
            judge_proposed, model, np.array([1.0, 0.0]), [], ev(0.5, "cooking_stove", "on"),
            Thresholds(n_single=0.1, n_multi=0.1),
        )
        import json

        payload = json.loads(verdict.to_jsonl())
        assert set(payload) == {
            "timestamp", "device", "action", "method", "decision",
            "delta", "seq_len", "threshold",
        }
        assert payload["method"] == "proposed"
        assert payload["decision"] == "legitimate"


class TestBatchedScorersAgainstPerCandidateLoops:
    """The batch scorers give, to the bit, what scoring one candidate of one
    window at a time gives."""

    PAIRS = [("cooking_stove", "on"), ("tv", "on"), ("heater", "on"), ("refrigerator", "opening")]
    ALPHAS = (0.0, 0.5, 900.0, 43199.5, 43200.0, 60000.0)

    def random_windows(self, rng, count):
        """(candidates, tod) windows of 1 to 7 items, one-item windows included."""
        windows = []
        for _ in range(count):
            pairs = [self.PAIRS[i] for i in rng.integers(0, 4, size=rng.integers(0, 7))]
            tod = float(rng.choice([0.0, 0.25, 450.5, 43200.0, 86399.75, rng.uniform(0, 86400)]))
            windows.append((candidates_ending_at([*pairs, self.PAIRS[0]], 4), tod))
        return windows

    @pytest.mark.parametrize("target_total", [0, 1, 9])
    def test_sequence_scores_equal_the_count_near_loop(self, target_total):
        rng = np.random.default_rng(target_total)
        times = [0.0, 0.5, 300.0, 300.0, 43200.0, 86000.25, 86399.5]
        for _ in range(20):
            windows = self.random_windows(rng, 12)
            known = sorted({items for candidates, _ in windows for items in candidates})
            stored = {}
            for items in known:
                if rng.random() < 0.6:  # the others are absent
                    # Shared time lists make equal ratios, so first maxima matter.
                    picked = rng.choice(times, size=rng.integers(1, 4)).tolist()
                    stored[items] = sorted(picked)
            store = id_timed_store(stored, target_total)
            batch = flat_candidates([candidates for candidates, _ in windows], store.keys)
            tods = [tod for _, tod in windows]
            for alpha, levels in zip(self.ALPHAS, sequence_scores(store, batch, tods, self.ALPHAS)):
                assert window_levels(batch, levels) == [
                    best_per_level_loop(candidates, lambda items: ratio(store, items, tod, alpha))
                    for candidates, tod in windows
                ]

    def test_all_zero_window_keeps_the_first_longer_candidate(self):
        candidates = candidates_ending_at([("tv", "on"), ("heater", "on"), STOVE_ON[0]], 3)
        store = id_timed_store(target_total=4)
        batch = flat_candidates([candidates], store.keys)
        [levels] = sequence_scores(store, batch, [10.0], (900.0,))
        assert window_levels(batch, levels) == [(0.0, 0.0, candidates[0], candidates[1])]

    def test_stored_vectors_equal_the_per_sequence_division(self):
        rng = np.random.default_rng(2)
        sequences = [STOVE_ON, *((pair, STOVE_ON[0]) for pair in self.PAIRS[1:])]
        store = store_with(
            {items: rng.integers(0, 5, size=3) for items in sequences[:3]},
            slot_counts=[4, 0, 7],
        )
        batch = flat_candidates([sequences], store.keys)
        rows = _rows(store, batch)
        assert rows.tolist() == [0, 1, 2, 3]
        for items, row in zip(sequences, store.vectors()[rows]):
            assert row.tobytes() == store_vector(store, items).tobytes()
        assert not store.vectors()[3].any()  # the row of every absent sequence

    def test_proposed_scores_equal_the_vector_loop(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            windows = [candidates for candidates, _ in self.random_windows(rng, 6)]
            known = sorted({items for candidates in windows for items in candidates})
            store = store_with(
                {items: rng.integers(0, 6, size=4) for items in known if rng.random() < 0.6},
                slot_counts=rng.integers(0, 8, size=4),
            )
            beliefs = rng.dirichlet(np.ones(4), size=len(windows))
            batch = flat_candidates(windows, store.keys)
            assert window_levels(batch, proposed_scores(store, beliefs, batch)) == [
                proposed_scores_one(store, belief, candidates)
                for candidates, belief in zip(windows, beliefs)
            ]

    def test_estimation_scores_equal_the_vector_loop(self):
        rng = np.random.default_rng(8)
        table = OperationTable(probs={pair: rng.random(5) for pair in self.PAIRS})
        ops = [ev(float(i), *self.PAIRS[i % 4]) for i in range(40)]
        beliefs = rng.dirichlet(np.ones(5), size=len(ops))
        assert estimation_score(table, beliefs, ops).tolist() == [
            estimation_score_one(table, belief, op) for op, belief in zip(ops, beliefs)
        ]

    def test_empty_batches_score_nothing(self):
        store = store_with({STOVE_ON: [1, 2]}, [3, 3])
        batch = batch_candidates([], SeqParams(), store.keys)
        levels = proposed_scores(store, np.zeros((0, 2)), batch)
        timed_store = id_timed_store(target_total=1, keys=store.keys)
        [timed] = sequence_scores(timed_store, batch, [], (900.0,))
        for got in (levels, timed):
            assert [len(column) for column in got] == [0, 0, 0]
        assert len(estimation_score(OperationTable(), np.zeros((0, 2)), [])) == 0

    def test_a_batch_of_another_table_raises(self):
        # Both tables give STOVE_ON id 0, so a plain lookup would find it.
        store = store_with({STOVE_ON: [1, 2]}, [3, 3])
        timed = id_timed_store({STOVE_ON: [60.0]}, 1, keys=store.keys)
        batch = flat_candidates([[STOVE_ON]], SequenceIds("cooking_stove"))
        assert batch.ids.tolist() == store.ids.tolist() == [0]
        with pytest.raises(ValueError, match="different tables"):
            proposed_scores(store, np.full((1, 2), 0.5), batch)
        with pytest.raises(ValueError, match="different tables"):
            sequence_scores(timed, batch, [60.0], (900.0,))

    def test_a_batch_judges_each_window_as_it_would_alone(self):
        rng = np.random.default_rng(9)
        pairs = [("tv", "on"), ("refrigerator", "opening"), STOVE_ON[0]]
        windows = [
            ([ev(minute - 0.5, *pairs[i]) for i in rng.integers(0, 3, size=rng.integers(0, 5))],
             ev(minute, "cooking_stove", "on"))
            for minute in rng.uniform(1, 1439, size=12).round(2).tolist()
        ]
        known = {items for preceding, op in windows
                 for items in candidates_ending_at([*(e.pair for e in preceding), op.pair], 5)}
        model = make_model(
            store_with({items: rng.integers(0, 4, size=3) for items in sorted(known)}, [3, 5, 4])
        )
        table = OperationTable(probs={STOVE_ON[0]: rng.random(3)})
        beliefs = rng.dirichlet(np.ones(3), size=len(windows))
        thresholds = Thresholds(0.2, 0.3)
        for judge, source, rest in (
            (judge_proposed, model, (thresholds,)),
            (judge_estimation_baseline, table, (0.4, "cooking_stove")),
        ):
            batch = judge(source, beliefs, windows, *rest)
            alone = [
                judge_one(judge, source, belief, preceding, op, *rest)
                for belief, (preceding, op) in zip(beliefs, windows)
            ]
            assert [v.to_jsonl() for v in batch] == [v.to_jsonl() for v in alone]
            assert batch == alone
            assert judge(source, beliefs[:0], [], *rest) == []
