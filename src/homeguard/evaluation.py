"""Evaluation protocol: anomaly injection, leave-one-day-out cross-validation,
detection/misdetection ratios, parameter grids, and Pareto frontiers.

Injected operations are judged counterfactually: each one sees the belief and
event window of the real stream at its instant and never contaminates the
stream, so judgments are independent of injection order.  The folds run one
after another in one process, and one pass over them scores every method.
A fold is a plain record of its inputs: a group of folds at a time has its
models fitted and its forward filters run, every model of the group in one
lockstep pass over the days, and each fold holds its model and traces only
until its scores are recorded; its sequence stores live in the scoring alone.
Each judged window is enumerated once per labeling combination, and a
fold's judged windows are scored as one batch, one scorer call per method
and grid value (each ``l`` value; every ``alpha_seq`` in one call), with the
scorers ``detect`` calls.  The scores are kept as one array per score;
threshold parameters are then swept over them with the detector's decision
rule instead of refitting, which makes dense threshold grids tractable
without changing any outcome.  Every sweep, of one threshold or two, "auto"
or listed, is one count table: each score is placed among its threshold's
candidates, and one histogram of the placements, summed cumulatively along
each threshold, counts the flagged operations at every combination.  A grid
with one value per threshold is the evaluation of one fixed detector.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta
from functools import cached_property
from itertools import product
from math import prod
from pathlib import Path
from typing import ClassVar, Iterable, Mapping, Sequence

import numpy as np

from .detector import (
    batch_candidates,
    check_alpha_seq,
    estimation_score,
    sequence_scores,
)
from .detector import proposed_scores as _best_deltas  # perfbench/child.py traces this name
from .errors import ModelError, ValidationError
from .hsmodel import (
    FilterTrace,
    ModelParams,
    OperationTable,
    TransitionTensor,
    filter_models,
    fit_operations,
    fit_transitions,
    run_filter,  # noqa: F401 - not called here; perfbench/child.py traces this name
)
from .ingest import SLOT_MICROS, SLOTS_PER_DAY, EventRecord, SlotGrid, offsets_from, write_csv
# Not called here; perfbench/child.py traces this name.
from .ingest import build_timeslots  # noqa: F401
from .labeling import LabelArrays, LabelingParams, label_states
from .seqstore import (
    SECONDS_PER_DAY,
    DayWindows,
    SeqParams,
    SlotCounts,
    TrainingBeliefs,
    build_timed_store,
    seconds_of_day,
    store_sequences,
    target_windows,
    window_starts,
)
from .vocab import Vocabulary

# Folds filtered together in one lockstep pass.  The pass fills every fold of
# the group with its model, traces and slot counts at once, and each fold
# drops them once its scores are recorded: per fold one (1440, S, S) model
# (1.2 MB), the 1440 x S floats of its held-out day's slot entries, and
# 2 x S floats per event for the beliefs just before and just after it.  The
# training days' slot entries pass through one block of slots into the
# counts, so beyond its models a pass takes about 28 KB per fold-day (0.8 MB
# per fold on 28 days).  The 28-day protocol's peak memory is set in its
# sweeps, above the fold loop; a larger group raises the fold loop's share
# with its models (in-process peak RSS: four 58.6 MB, seven 61.8, all 28
# 88.3).
FOLD_GROUP = 4


def inject_anomalies(
    day_start: datetime,
    count: int = 100,
    seed: int = 0,
    day_index: int = 0,
    device: str = "cooking_stove",
) -> tuple[EventRecord, ...]:
    """Synthetic anomalous target operations for one detection day, each
    turning ``device`` on: uniform random times over the day, deterministic
    per seed and day."""
    if count < 0:
        raise ValidationError("must be non-negative", field="count")
    rng = np.random.default_rng([seed, day_index])
    seconds = sorted(int(s) for s in rng.integers(0, SECONDS_PER_DAY, size=count))
    return tuple(EventRecord(day_start + timedelta(seconds=s), device, "on") for s in seconds)


@dataclass(frozen=True)
class EvalPoint:
    """One (misdetection, detection) outcome for one parameter combination."""

    method: str
    params: tuple[tuple[str, object], ...]
    tp: int
    fn: int
    fp: int
    tn: int

    @property
    def detection_ratio(self) -> float:
        total = self.tp + self.fn
        return self.tp / total if total else 0.0

    @property
    def misdetection_ratio(self) -> float:
        total = self.fp + self.tn
        return self.fp / total if total else 0.0

    @cached_property
    def params_json(self) -> str:
        return json.dumps(dict(self.params), sort_keys=True)

    @property
    def sort_key(self) -> tuple[str, str]:
        return (self.method, self.params_json)


def make_params(mapping: Mapping[str, object]) -> tuple[tuple[str, object], ...]:
    return tuple(sorted(mapping.items()))


@dataclass
class EvalDataset:
    """A slot grid of whole days, and its vocabulary."""

    grid: SlotGrid
    vocabulary: Vocabulary = field(default_factory=Vocabulary)

    def __post_init__(self) -> None:
        if len(self.grid) % SLOTS_PER_DAY != 0:
            raise ValidationError(
                f"slot count {len(self.grid)} is not a whole number of days"
            )

    @property
    def n_days(self) -> int:
        return len(self.grid) // SLOTS_PER_DAY


@dataclass
class OperationContext:
    """One operation to judge: the real window at its instant, and the
    belief just before it in ``fold``'s detection trace, read on use by
    index.  ``index`` counts the held-out day's events before the operation,
    so a real one is the day's event ``index``.  An injected one also has
    ``slot``, the place in the day of the slot holding it: its belief is the
    one after event ``index - 1`` when that event lies in the slot, else the
    one on entering the slot."""

    op: EventRecord
    injected: bool
    preceding: list[EventRecord]
    fold: "FoldContext" = field(repr=False)
    index: int
    slot: int | None = None

    @property
    def belief(self) -> np.ndarray:
        trace = self.fold.detection_trace
        if self.slot is None:
            return trace.pre[self.index]
        if self.index > trace.first[self.slot]:
            return trace.post[self.index - 1]
        return trace.entry[self.slot]


@dataclass(eq=False)
class FoldContext:
    """One leave-one-day-out fold: its inputs, and the model and traces that
    ``filter_group`` fills for the folds of one group.

    ``arrays`` holds the dataset's labels, None when no method reads them;
    the folds of one labeling share them, and each fold fits by masking its
    held-out and excluded days.
    ``windows`` holds the dataset's target windows; every fold and labeling
    of a run shares it, so each window is enumerated once per run.
    ``model`` is the fold's (transitions, operations), ``training_traces``
    the traces of its kept days, without their slot entries, ``slot_counts``
    the counts of those entries, and ``detection_trace`` the trace of its
    held-out day: each None until the group pass.
    """

    dataset: EvalDataset
    arrays: LabelArrays | None
    heldout_day: int
    model_params: ModelParams
    seq_params: SeqParams
    windows: DayWindows
    model: tuple[TransitionTensor, OperationTable] | None = None
    training_traces: list[FilterTrace] | None = None
    slot_counts: SlotCounts | None = None
    detection_trace: FilterTrace | None = None

    @staticmethod
    def filter_group(folds: Sequence["FoldContext"], alphas: Iterable[float] = ()) -> None:
        """Fit the model of each fold of one labeling, then filter the
        folds' training days and held-out days in one lockstep pass, one
        model per fold.

        Every model filters every day of the dataset whole (row = day, the
        held-out day included) and the kept part of each day kept only in
        part.  A fold takes the trace of its held-out day, and the traces of
        its kept days without their slot entries, which the pass reduces to
        the fold's ``slot_counts`` (at every rank, and at each of
        ``alphas``).  Each is bitwise what filtering them on their own, and
        counting their entries, would give.
        """
        first = folds[0]
        dataset, arrays = first.dataset, first.arrays
        kept = ~arrays.excluded
        kept_slots = np.bincount(arrays.day[kept], minlength=dataset.n_days)
        streams = list(np.arange(len(dataset.grid)).reshape(dataset.n_days, SLOTS_PER_DAY))
        # The stream of each kept day: the whole day, or its kept part.
        training: dict[int, int] = {}
        for day in np.flatnonzero(kept_slots).tolist():
            if kept_slots[day] == SLOTS_PER_DAY:
                training[day] = day
            else:
                training[day] = len(streams)
                streams.append(np.flatnonzero(kept & (arrays.day == day)))
        kept_by_fold = [
            [stream for day, stream in training.items() if day != fold.heldout_day]
            for fold in folds
        ]
        for fold in folds:
            labels = arrays.select((arrays.day != fold.heldout_day) & kept)
            if not labels.keep.any():
                raise ModelError("no usable training days in fold")
            fold.model = (
                fit_transitions(labels, fold.model_params.t_z_max),
                fit_operations(labels, dataset.vocabulary),
            )
        n_states = first.model[0].n_states
        counts = [SlotCounts(n_states, alphas) for _ in folds]
        traces = filter_models(
            dataset.grid,
            streams,
            [fold.model for fold in folds],
            [[fold.heldout_day] for fold in folds],
            counted=list(zip(kept_by_fold, counts)),
        )
        for fold, fold_kept, fold_counts, fold_traces in zip(folds, kept_by_fold, counts, traces):
            fold.training_traces = [fold_traces[stream] for stream in fold_kept]
            fold.slot_counts = fold_counts
            fold.detection_trace = fold_traces[fold.heldout_day]

    def judged_operations(self, injections_per_day: int, seed: int) -> list[OperationContext]:
        """Real target operations of the held-out day, then injected ones."""
        target = self.dataset.vocabulary.detection_target
        day = self.heldout_day
        windows = self.windows
        begin, end = windows.offsets[day : day + 2].tolist()
        day_events, at = windows.events[begin:end], windows.event_at[begin:end]
        t_seq = self.seq_params.t_seq

        ends, starts = target_windows(day_events, at, target, t_seq)
        contexts = [
            OperationContext(day_events[index], False, day_events[lo:index], self, index)
            for index, lo in zip(ends.tolist(), starts.tolist())
        ]

        grid = self.dataset.grid
        injected = inject_anomalies(
            grid.start + timedelta(days=day), injections_per_day, seed, day_index=day,
            device=target,
        )
        instants = offsets_from(grid.start, (op.timestamp for op in injected))
        spans = zip(
            window_starts(at, instants, t_seq).tolist(),
            np.searchsorted(at, instants).tolist(),
            (instants // SLOT_MICROS - day * SLOTS_PER_DAY).tolist(),
        )
        contexts += [
            OperationContext(op, True, day_events[lo:hi], self, hi, slot)
            for op, (lo, hi, slot) in zip(injected, spans)
        ]
        return contexts


def _dataset_windows(dataset: EvalDataset, seq_params: SeqParams) -> DayWindows:
    return DayWindows(dataset.grid, dataset.vocabulary.detection_target, seq_params)


def _make_folds(
    dataset: EvalDataset,
    labeling_params: LabelingParams | None,
    model_params: ModelParams,
    seq_params: SeqParams,
    windows: DayWindows,
) -> list[FoldContext]:
    """One fold per day, all sharing the run's ``windows``, and labeled by
    ``labeling_params`` unless it is None."""
    if dataset.n_days < 2:
        raise ModelError("cross-validation needs at least two days of data")
    arrays = None
    if labeling_params is not None:
        arrays = label_states(dataset.grid, labeling_params, dataset.vocabulary)
    return [
        FoldContext(dataset, arrays, day, model_params, seq_params, windows)
        for day in range(dataset.n_days)
    ]


# ---------------------------------------------------------------------------
# Grid search with post-hoc threshold sweeps


@dataclass
class ProposedGrid:
    method: ClassVar[str] = "proposed"
    l_values: tuple = (1,)
    n_single: tuple[float, ...] | str = "auto"
    n_multi: tuple[float, ...] | str = "auto"


@dataclass
class EstimationGrid:
    method: ClassVar[str] = "estimation"
    theta: tuple[float, ...] | str = "auto"


@dataclass
class SequenceGrid:
    method: ClassVar[str] = "sequence"
    alpha_seq: tuple[float, ...] = (0.0, 900.0, 3600.0, 10800.0, 32400.0, 43200.0)
    n_single: tuple[float, ...] | str = "auto"
    n_multi: tuple[float, ...] | str = "auto"

    def __post_init__(self) -> None:
        for alpha in self.alpha_seq:
            check_alpha_seq(alpha)


def _candidate_thresholds(scores: np.ndarray) -> np.ndarray:
    """The thresholds an "auto" sweep tries: every distinct score, and 0
    and 1.  More than 2000 of them are thinned to 2000 at evenly spaced
    ranks, rounded down; the lowest and the highest stay."""
    values = np.unique(np.concatenate([scores, [0.0, 1.0]]))
    if len(values) > 2000:
        idx = np.unique(np.linspace(0, len(values) - 1, 2000).astype(int))
        values = values[idx]
    return values


def _frontier_indices(mis: np.ndarray, det: np.ndarray) -> list[int]:
    """Indices of the frontier in order of rising misdetection: ordered by
    misdetection, then falling detection, then position, keep each point whose
    detection exceeds that of every point before it.

    ``mis`` holds non-negative integer levels: misdetection counts (fp over a
    constant total) or the codes of ratios in rising order.  ``det`` may be
    counts too (tp over a constant total).  A division by a positive constant
    keeps the order and the ties of integers, and a zero total makes every
    ratio 0, as every count is then.  One pass over the points finds each
    level's best detection and the first point holding it; then one pass over
    the levels, one per count up to the largest, keeps the frontier.
    """
    if not mis.size:
        return []
    best = np.full(int(mis.max()) + 1, -1, dtype=det.dtype)
    np.maximum.at(best, mis, det)
    holds = np.flatnonzero(det == best[mis])
    first = np.full(len(best), len(mis))
    np.minimum.at(first, mis[holds], holds)
    # A level is kept when its best beats every lower level's; an empty
    # level's -1 beats nothing and raises nothing.
    before = np.empty_like(best)
    before[0] = -1
    np.maximum.accumulate(best[:-1], out=before[1:])
    return first[best > before].tolist()


def _sweep(
    method: str,
    base_params: Mapping[str, object],
    axes: Sequence[tuple[str, np.ndarray, tuple[float, ...] | str, bool]],
    injected: np.ndarray,
) -> list[EvalPoint]:
    """The points of sweeping thresholds over the scores of the judged
    operations, ``injected`` or not.  ``axes`` holds one (parameter name,
    scores, values or "auto", strict) per threshold; an operation is flagged
    when each of its scores is below its threshold, or at most it when not
    strict.

    An axis tries the distinct values it is given, or for "auto" the
    ``_candidate_thresholds`` of its scores.  With any "auto" axis the
    Pareto-optimal combinations are kept; otherwise every combination of the
    given values, repeats included.  ``grid_search`` sorts the points.
    """
    candidates = [
        _candidate_thresholds(scores) if values == "auto" else np.unique(values)
        for _, scores, values, _ in axes
    ]
    shape = tuple(map(len, candidates))
    # Either rule, (score < c[a]) or (score <= c[a]), becomes (pos <= a).
    positions = [
        np.searchsorted(c, scores, side="right" if strict else "left")
        for c, (_, scores, _, strict) in zip(candidates, axes)
    ]
    # A score past an axis's last candidate is flagged at none of them.
    inside = np.logical_and.reduce([pos < size for pos, size in zip(positions, shape)])
    cells = np.ravel_multi_index(tuple(pos[inside] for pos in positions), shape)

    def flagged(mask: np.ndarray) -> np.ndarray:
        """The operations in ``mask`` flagged at each combination of candidates."""
        # No cell counts more than the judged operations, so int32 holds it.
        table = np.bincount(cells[mask[inside]], minlength=prod(shape))
        table = table.astype(np.int32).reshape(shape)
        # In place: a table of 2000 x 2000 candidates is 16 MB.
        for axis in range(len(shape)):
            np.cumsum(table, axis=axis, dtype=table.dtype, out=table)
        return table.ravel()

    tp = flagged(injected)
    fp = flagged(~injected)
    n_inj = int(np.count_nonzero(injected))
    n_real = len(injected) - n_inj
    if any(values == "auto" for _, _, values, _ in axes):
        # tp + fn is n_inj at every combination and fp + tn is n_real, so the
        # counts order the combinations as their ratios would.
        keep = _frontier_indices(fp, tp)
    else:
        given = [np.searchsorted(c, values) for c, (_, _, values, _) in zip(candidates, axes)]
        keep = [np.ravel_multi_index(combo, shape) for combo in product(*given)]
    points = []
    for cell in keep:
        at = np.unravel_index(cell, shape)
        params = {name: float(c[i]) for (name, *_), c, i in zip(axes, candidates, at)}
        hits, false_alarms = int(tp[cell]), int(fp[cell])
        points.append(
            EvalPoint(method, make_params({**base_params, **params}), hits, n_inj - hits,
                      false_alarms, n_real - false_alarms)
        )
    return points


def _sweep_two_level(
    method: str,
    base_params: Mapping[str, object],
    s1: np.ndarray,
    s2: np.ndarray,
    injected: np.ndarray,
    n_single: tuple[float, ...] | str,
    n_multi: tuple[float, ...] | str,
    name1: str = "n_single",
    name2: str = "n_multi",
) -> list[EvalPoint]:
    """The points of sweeping both thresholds over the (s_single, s_multi)
    scores ``s1`` and ``s2`` of the judged operations, ``injected`` or not."""
    axes = [(name1, s1, n_single, True), (name2, s2, n_multi, True)]
    return _sweep(method, base_params, axes, injected)


def grid_search(
    dataset: EvalDataset,
    *grids: ProposedGrid | EstimationGrid | SequenceGrid,
    labelings: Sequence[LabelingParams] | None = None,
    model_params: ModelParams | None = None,
    seq_params: SeqParams | None = None,
    injections_per_day: int = 100,
    seed: int = 0,
) -> list[EvalPoint]:
    """One EvalPoint per parameter combination of each grid (one grid per method).

    Structural parameters (the ``labelings``, one ``LabelingParams()``
    when not given, and the ``l`` values) retrain the model; threshold
    parameters are replayed over the recorded scores of each structural
    combination, so their sweeps are effectively free.  With "auto"
    thresholds the Pareto-optimal outcomes of a per-score sweep are emitted
    instead of a fixed list.  ``seq_params.criterion`` says whether the
    proposed grid's ``l`` values are ranks or belief levels.

    Every method is scored in one pass over the folds of each labeling: the
    proposed and estimation methods read every labeling, and the sequence
    method, which reads no labels, rides along on the first of them; with
    no other method asked for, nothing is labeled.  A point names its
    labeling by (t_x, t_y, t_c), so no two labelings may share those.  The
    points of all methods come back in one sorted list.
    """
    by_method: dict[str, ProposedGrid | EstimationGrid | SequenceGrid] = {}
    for grid in grids:
        if grid.method in by_method:
            raise ValidationError(f"more than one {grid.method} grid")
        by_method[grid.method] = grid
    if not by_method:
        raise ValidationError("grid_search needs at least one grid")
    proposed = by_method.get("proposed")
    estimation = by_method.get("estimation")
    sequence = by_method.get("sequence")

    labelings = [LabelingParams()] if labelings is None else list(labelings)
    if not labelings:
        raise ValidationError("grid_search needs at least one labeling")
    structurals = [
        {name: getattr(labeling, name) for name in ("t_x", "t_y", "t_c")}
        for labeling in labelings
    ]
    if len({tuple(windows.values()) for windows in structurals}) < len(structurals):
        raise ValidationError("two labelings share (t_x, t_y, t_c)")
    labeled = proposed is not None or estimation is not None
    if not labeled:
        labelings = labelings[:1]
    model_params = model_params or ModelParams()
    seq_params = seq_params or SeqParams()
    criterion = seq_params.criterion
    l_values = proposed.l_values if proposed is not None else ()

    # Windows depend on the events alone: one enumeration serves every labeling.
    windows = _dataset_windows(dataset, seq_params)
    points: list[EvalPoint] = []
    for index, (labeling, structural) in enumerate(zip(labelings, structurals)):
        alphas = sequence.alpha_seq if sequence is not None and index == 0 else ()
        folds = _make_folds(
            dataset, labeling if labeled else None, model_params, seq_params, windows
        )
        scores = _collect_scores(
            folds, l_values, estimation is not None, alphas, seq_params, injections_per_day, seed
        )
        injected = scores["injected"]
        for l_value in l_values:
            base = {**structural, "criterion": criterion}
            base["l_rank" if criterion == "rank" else "l_alpha"] = l_value
            points += _sweep_two_level(
                "proposed", base, *scores["proposed", l_value], injected,
                proposed.n_single, proposed.n_multi,
            )
        if estimation is not None:
            points += _sweep_estimation(
                scores["estimation"], injected, structural, estimation.theta
            )
        for alpha in alphas:
            points += _sweep_two_level(
                "sequence", {"alpha_seq": float(alpha), "t_seq": seq_params.t_seq},
                *scores["sequence", alpha], injected, sequence.n_single, sequence.n_multi,
                name1="n_seq_single", name2="n_seq_multi",
            )
    points.sort(key=lambda p: p.sort_key)
    return points


def _sweep_estimation(
    scores: np.ndarray,
    injected: np.ndarray,
    structural: Mapping[str, object],
    theta: tuple[float, ...] | str,
) -> list[EvalPoint]:
    """The points of sweeping ``theta`` over the estimation scores of the
    judged operations, ``injected`` or not."""
    # Anomalous iff score <= theta (the legitimacy test is strict >).
    return _sweep("estimation", structural, [("theta", scores, theta, False)], injected)


def _collect_scores(
    folds: Sequence[FoldContext],
    need_proposed: Sequence,
    need_estimation: bool,
    need_sequence: Sequence[float],
    seq_params_base: SeqParams,
    injections_per_day: int,
    seed: int,
) -> dict[object, np.ndarray]:
    """The scores of every judged operation of every fold, one column per
    score, scored one fold at a time with one scorer call per method and
    value.  "injected" and "estimation" hold one entry per operation,
    ("proposed", l) and ("sequence", alpha_seq) the (s_single, s_multi) rows
    of a (2, n) array.

    The folds are filtered in groups of ``FOLD_GROUP``, one pass per group,
    when a method reads beliefs.
    """
    parts: dict[object, list[np.ndarray]] = defaultdict(list)
    alphas = need_proposed if seq_params_base.criterion == "alpha" else ()
    for start in range(0, len(folds), FOLD_GROUP):
        group = folds[start : start + FOLD_GROUP]
        if need_proposed or need_estimation:
            FoldContext.filter_group(group, alphas)
        for fold in group:
            scores = _score_fold(
                fold, need_proposed, need_estimation, need_sequence, seq_params_base,
                injections_per_day, seed,
            )
            for key, column in scores.items():
                parts[key].append(column)
            # The scores are recorded: drop the fold's model and traces, so
            # that none outlives its group.
            fold.model = fold.training_traces = fold.slot_counts = fold.detection_trace = None
    return {key: np.concatenate(columns, axis=-1) for key, columns in parts.items()}


def _score_fold(
    fold: FoldContext,
    need_proposed: Sequence,
    need_estimation: bool,
    need_sequence: Sequence[float],
    seq_params_base: SeqParams,
    injections_per_day: int,
    seed: int,
) -> dict[object, np.ndarray]:
    """The columns of one fold's judged operations, read off the model and
    traces that ``filter_group`` filled when a method reads beliefs.  Each
    judged window is enumerated once, and the fold's stores are built here
    and dropped on return."""
    contexts = fold.judged_operations(injections_per_day, seed)
    scores = {"injected": np.array([ctx.injected for ctx in contexts], dtype=bool)}
    target = fold.dataset.vocabulary.detection_target
    if need_proposed or need_estimation:
        n_states = fold.detection_trace.entry.shape[1]
        beliefs = np.array([ctx.belief for ctx in contexts]).reshape(len(contexts), n_states)
    if need_proposed or need_sequence:
        judged = [(ctx.preceding, ctx.op) for ctx in contexts]
        batch = batch_candidates(judged, seq_params_base, fold.windows.keys)
    if need_proposed:
        # The stores of every l value share the ranking of the beliefs.
        training = TrainingBeliefs(fold.training_traces, fold.windows, fold.slot_counts)
    for l_value in need_proposed:
        store = store_sequences(
            training,
            target,
            replace(seq_params_base, l_rank=int(l_value))
            if seq_params_base.criterion == "rank"
            else replace(seq_params_base, l_alpha=float(l_value)),
        )
        # Keep (s_single, s_multi) only: the sweeps need no evidence.
        scores["proposed", l_value] = np.stack(_best_deltas(store, beliefs, batch)[:2])
    if need_estimation:
        operations = fold.model[1]
        scores["estimation"] = estimation_score(operations, beliefs, [ctx.op for ctx in contexts])
    if need_sequence:
        tods = [seconds_of_day(ctx.op.timestamp) for ctx in contexts]
        # Every day but the held-out one, in one batch for every alpha_seq.
        timed = build_timed_store(
            fold.windows, target, seq_params_base, without_day=fold.heldout_day
        )
        levels = sequence_scores(timed, batch, tods, need_sequence)
        for alpha, level in zip(need_sequence, levels):
            scores["sequence", alpha] = np.stack(level[:2])
    return scores


def pareto_frontier(points: Sequence[EvalPoint]) -> list[EvalPoint]:
    """Keep, per misdetection level, the best detection achieved at or below it.

    Output is sorted by misdetection ratio, strictly increasing, with
    non-decreasing detection ratio; every input point is dominated by (or
    equal to) some output point.
    """
    ordered = sorted(points, key=lambda p: p.sort_key)
    mis = np.array([p.misdetection_ratio for p in ordered])
    det = np.array([p.detection_ratio for p in ordered])
    levels = np.unique(mis, return_inverse=True)[1]
    return [ordered[idx] for idx in _frontier_indices(levels, det)]


def best_at(points: Sequence[EvalPoint], misdetection_cap: float = 0.10) -> EvalPoint | None:
    """Highest-detection point with misdetection strictly under the cap."""
    eligible = [p for p in points if p.misdetection_ratio < misdetection_cap]
    if not eligible:
        return None
    return min(
        eligible,
        key=lambda p: (-p.detection_ratio, p.misdetection_ratio, p.sort_key),
    )


RESULTS_HEADER = ("method", "params_json", "misdetection", "detection", "tp", "fn", "fp", "tn")


def write_results_csv(points: Iterable[EvalPoint], path: str | Path) -> None:
    write_csv(
        path,
        RESULTS_HEADER,
        ([p.method, p.params_json, repr(p.misdetection_ratio), repr(p.detection_ratio),
          p.tp, p.fn, p.fp, p.tn]
         for p in sorted(points, key=lambda p: p.sort_key)),
    )
