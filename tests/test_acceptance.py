"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
pass/fail lines of passing criteria as they complete).
"""

import time
from contextlib import contextmanager
from datetime import datetime, timedelta

import numpy as np
import pytest

from homeguard.detector import ANOMALOUS, Thresholds, judge_proposed
from homeguard.evaluation import (
    EvalDataset,
    ProposedGrid,
    SequenceGrid,
    best_at,
    grid_search,
    inject_anomalies,
    make_params,
    pareto_frontier,
    EvalPoint,
)
from homeguard.hsmodel import (
    OperationTable,
    TrainedModel,
    TransitionTensor,
    filter_streams,
    fit_operations,
    fit_transitions,
)
from homeguard.ingest import build_timeslots
from homeguard.labeling import STATE_INDEX, LabelingParams, label_states
from homeguard.seqstore import _enumerate_distinct
from homeguard.synthgen import generate, scenario_s1
from homeguard.vocab import Vocabulary

from conftest import ev, id_store, parse_state_key
from oracles import (
    decode_labels,
    encode_labels,
    generate_subsequences,
    slot_records,
    snapshots,
)
from test_detector import judge_one, make_model, store_with
from test_seqstore import vector_of
from test_evaluation import scripted_point, toy_dataset
from test_hsmodel import (
    brute_force_trace,
    labeled_stream,
    observe,
    random_filter_instance,
    step_into,
)


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def test_criterion_1_forward_filter_oracle_equivalence():
    with criterion("C1 forward-filter oracle equivalence"):
        started = time.time()
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(100):
            grid, stream, tensor, table = random_filter_instance(rng)
            trace = filter_streams(grid, [stream], tensor, table)[0]
            slots = slot_records(grid, stream)
            expected = brute_force_trace(
                [slot.k for slot in slots],
                [[event.pair for event in slot.events] for slot in slots],
                lambda k: tensor.probs[k - 1].tolist(),
                lambda pair: table.probs[pair].tolist(),
                tensor.n_states,
            )
            snaps = snapshots(trace)
            assert len(snaps) == len(expected)
            for snap, ref in zip(snaps, expected):
                worst = max(worst, float(np.max(np.abs(snap.probs - np.array(ref)))))
        elapsed = time.time() - started
        assert worst <= 1e-9, f"max component error {worst}"
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_labeling_golden_sample(golden_sample):
    with criterion("C2 labeling golden sample"):
        grid = golden_sample.grid()
        labeled = decode_labels(slot_records(grid), label_states(
            grid, golden_sample.params, golden_sample.vocabulary
        ))
        by_t = {item.slot.t: item for item in labeled}
        rows = []
        for t in (4318, 4319, 4320):
            item = by_t[t]
            rows.append((t, item.slot.k, item.entry_state.u.value, item.entry_state.d.value))
        for state in by_t[4320].event_states:
            rows.append((4320, by_t[4320].slot.k, state.u.value, state.d.value))
        for t in (4321, 4322):
            item = by_t[t]
            rows.append((t, item.slot.k, item.entry_state.u.value, item.entry_state.d.value))
        assert rows == golden_sample.expected_rows


def test_criterion_3_subsequence_enumeration():
    with criterion("C3 subsequence enumeration"):
        devices = ["tv", "room_light", "heater", "electric_fan", "washing_machine"]
        from itertools import combinations

        for n in range(1, 6):
            window = [ev(float(i), devices[i], "on") for i in range(n)]
            generated = {seq.items for seq in generate_subsequences(window)}
            oracle = set()
            for length in range(1, n + 1):
                for combo in combinations(range(n), length):
                    oracle.add(tuple(window[p].pair for p in combo))
            assert len(generated) == 2**n - 1
            assert generated == oracle
            assert set(_enumerate_distinct([event.pair for event in window], n)) == oracle

        a, b, c = ("tv", "on"), ("room_light", "on"), ("heater", "on")
        window = [ev(0.0, *a), ev(1.0, *b), ev(2.0, *c)]
        seven = {seq.items for seq in generate_subsequences(window)}
        assert seven == {(a,), (b,), (c,), (a, b), (b, c), (a, c), (a, b, c)}


def test_criterion_4_normalization_suite():
    with criterion("C4 normalization suite"):
        rng = np.random.default_rng(77)
        for _ in range(40):
            grid, stream, tensor, table = random_filter_instance(rng)
            for snap in snapshots(filter_streams(grid, [stream], tensor, table)[0]):
                assert abs(float(snap.probs.sum()) - 1.0) <= 1e-9

        # A trained model over a real synthetic stream, same check.
        result = generate(scenario_s1(seed=5, n_days=3))
        grid = build_timeslots(result.events, result.frames)
        labels = label_states(
            grid,
            LabelingParams(t_x=5, t_y=5, t_c=5, initial_occupants=2),
            Vocabulary(),
        )
        tensor = fit_transitions(labels, t_z_max=120)
        table = fit_operations(labels, Vocabulary())
        for snap in snapshots(filter_streams(grid, [np.arange(1440)], tensor, table)[0]):
            assert abs(float(snap.probs.sum()) - 1.0) <= 1e-9

        # Observing an operation absent from training is an exact no-op.
        unseen = OperationTable(probs={("tv", "on"): np.ones(4)})
        pre, post = observe(("tv", "on"), unseen, np.array([0.4, 0.3, 0.2, 0.1]))
        assert np.array_equal(post, pre)


def test_criterion_5_metrics_arithmetic():
    with criterion("C5 metrics arithmetic"):
        dataset = toy_dataset(n_days=2)
        predicate = lambda ctx: ctx.op.timestamp.minute % 2 == 0
        point = scripted_point(dataset, predicate, injections_per_day=100, seed=5)
        assert point.tp + point.fn == 200

        base = datetime(2021, 3, 1)
        expected_tp = 0
        for day in range(2):
            operations = inject_anomalies(base + timedelta(days=day), 100, seed=5, day_index=day)
            expected_tp += sum(1 for op in operations if op.timestamp.minute % 2 == 0)
        real_minutes = [30, 45, 30, 45]  # stove on/off, both days
        expected_fp = sum(1 for m in real_minutes if m % 2 == 0)
        assert point.tp == expected_tp and point.fp == expected_fp
        assert point.detection_ratio == expected_tp / 200
        assert point.misdetection_ratio == expected_fp / 4


def test_criterion_6_frontier_correctness():
    with criterion("C6 frontier correctness"):
        started = time.time()
        rng = np.random.default_rng(99)
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            points = []
            for i in range(n):
                tp = int(rng.integers(0, 101))
                fp = int(rng.integers(0, 101))
                points.append(
                    EvalPoint("m", make_params({"i": i}), tp=tp, fn=100 - tp, fp=fp, tn=100 - fp)
                )
            frontier = pareto_frontier(points)
            mis = [p.misdetection_ratio for p in frontier]
            det = [p.detection_ratio for p in frontier]
            assert mis == sorted(mis) and len(set(mis)) == len(mis)
            assert det == sorted(det)
            for p in points:  # every input dominated by some output
                assert any(
                    q.misdetection_ratio <= p.misdetection_ratio
                    and q.detection_ratio >= p.detection_ratio
                    for q in frontier
                )
            for q in frontier:  # outputs are maximal against the O(n^2) scan
                assert not any(
                    p.misdetection_ratio <= q.misdetection_ratio
                    and p.detection_ratio > q.detection_ratio
                    for p in points
                )
        elapsed = time.time() - started
        assert elapsed < 5.0, f"took {elapsed:.1f}s"


def _s1_operating_points(seed: int):
    result = generate(scenario_s1(seed=seed, n_days=28))
    dataset = EvalDataset(
        grid=build_timeslots(result.events, result.frames), vocabulary=Vocabulary()
    )
    labeling = LabelingParams(t_x=15, t_y=15, t_c=10, initial_occupants=2)
    # Both methods are judged on the same folds in one pass.
    points = grid_search(
        dataset,
        ProposedGrid(l_values=(1, 2)),
        SequenceGrid(),
        labelings=[labeling],
        injections_per_day=100,
        seed=seed,
    )
    proposed, sequence = (
        best_at(pareto_frontier([p for p in points if p.method == method]), 0.10)
        for method in ("proposed", "sequence")
    )
    return proposed, sequence


def test_criterion_7_end_to_end_ordering():
    with criterion("C7 end-to-end ordering on synthetic home"):
        started = time.time()
        for seed in (11, 23, 37):
            proposed, sequence = _s1_operating_points(seed)
            assert proposed is not None, f"seed {seed}: no proposed point under 0.10"
            assert proposed.misdetection_ratio < 0.10
            assert proposed.detection_ratio >= 0.90, (
                f"seed {seed}: proposed detection {proposed.detection_ratio:.4f}"
            )
            floor = sequence.detection_ratio if sequence is not None else 0.0
            assert proposed.detection_ratio >= floor, (
                f"seed {seed}: proposed {proposed.detection_ratio:.4f} "
                f"< sequence {floor:.4f}"
            )
        elapsed = time.time() - started
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_criterion_8_evaluation_determinism(tmp_path):
    with criterion("C8 evaluation determinism"):
        from homeguard.cli import main
        from homeguard.synthgen import scenario_calibration

        paths = generate(scenario_calibration(seed=3, n_days=4)).write(tmp_path / "data")
        outputs = []
        for run in ("one", "two"):
            out_dir = tmp_path / run
            code = main(
                [
                    "evaluate",
                    "--operations", str(paths["operations"]),
                    "--sensors", str(paths["sensors"]),
                    "--output-dir", str(out_dir),
                    "--methods", "all",
                    "--injections", "25",
                    "--seed", "7",
                    "--t-x-values", "5", "--t-y-values", "5", "--t-c-values", "5",
                    "--l-values", "1",
                    "--alpha-seq-values", "900,3600",
                ]
            )
            assert code == 0
            outputs.append(
                {
                    name: (out_dir / name).read_bytes()
                    for name in (
                        "results_proposed.csv",
                        "results_estimation.csv",
                        "results_sequence.csv",
                    )
                }
            )
        assert outputs[0] == outputs[1]


def test_criterion_9_degenerate_branches():
    with criterion("C9 degenerate branches"):
        # Transition fitting: a state with no support anywhere keeps an
        # all-zero row instead of inventing probabilities.
        labeled = labeled_stream(["active:none"] * 1440)
        tensor = fit_transitions(encode_labels(labeled), t_z_max=720)
        missing = STATE_INDEX[parse_state_key("sleep:none")]
        assert not tensor.probs[:, missing, :].any()

        # Operation fitting: an operation never observed maps to all ones.
        table = fit_operations(encode_labels(labeled), Vocabulary())
        assert (table.vector(("rice_cooker", "on")) == 1.0).all()

        # Sequence store: unknown sequences and unsupported states score zero.
        store = id_store([4, 0, 0], {(("cooking_stove", "on"),): [2, 1, 0]})
        assert vector_of(store, (("cooking_stove", "on"),))[1] == 0.0
        assert vector_of(store, (("tv", "on"),))[0] == 0.0

        # All-zero belief updates reset to uniform.
        zero_tensor = TransitionTensor(np.zeros((1440, 3, 3)), np.zeros(1440, dtype=np.int64))
        reset = step_into(5, zero_tensor, np.array([1.0, 0.0, 0.0]))
        assert np.allclose(reset, [1 / 3] * 3)
        zero_table = OperationTable(probs={("tv", "on"): np.zeros(3)})
        _, reset = observe(("tv", "on"), zero_table, np.array([0.5, 0.5, 0.0]))
        assert np.allclose(reset, [1 / 3] * 3)

        # Detection against an empty store: anomalous with zero probability.
        model = make_model(store_with({}, [10, 10]))
        verdict = judge_one(
            judge_proposed,
            model,
            np.array([0.5, 0.5]),
            [],
            ev(0.5, "cooking_stove", "on"),
            Thresholds(n_single=0.05, n_multi=0.05),
        )
        assert verdict.decision == ANOMALOUS and verdict.delta == 0.0
