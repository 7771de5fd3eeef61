"""Verdicts on target-device operations.

Candidates are the distinct subsequences of the judged operation's window
that end with the operation.  The window's earlier events come cut by
``seqstore.target_windows`` (or ``window_starts``), so the detector compares
no timestamps and cuts only ``w_max``.  The combined method scores a
candidate by its belief-weighted sequence probability; the time-of-day
sequence method scores it by the share of stored target operations whose
equivalent sequence completed near the same time of day.  Both reduce a
window to two scores:
``s_single`` for the candidate of length one and ``s_multi``, the best score
among longer candidates (0.0 when the window holds only the operation).  One
decision rule judges both, and ``evaluate`` sweeps its thresholds over the
same recorded scores::

    anomalous  iff  s_single < n_single  and  s_multi < n_multi

The estimation method scores the belief-weighted operation probability alone:
anomalous iff score <= theta.

Each method has one scorer, and it scores a batch of windows at once:
``detect`` passes every window of its stream, ``evaluate`` every judged
window of a fold.  A batch's candidates lie flat (``Candidates``), each
interned once in the id table of its stores, and one reducer takes each
window's two levels from their scores.  The proposed scorer finds each
candidate's row of its store's matrix of stored vectors by one integer
search (a zero row for a sequence the store lacks) and gathers it and each
window's belief; the estimation scorer gathers each operation's vector.  Both take the row-wise
dot products as one stack of (1 x S)(S x 1) products, which numpy computes
with the BLAS dot of ``np.dot`` on two vectors, so a batch scores to the bit
as one window at a time would.  The time-of-day scorer takes ``alpha_seq``
values too; its counts are exact integers, found by binary search in the
store's rank-coded times.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .errors import UsageError, ValidationError
from .ingest import EventRecord, format_timestamp
from .seqstore import (
    Items,
    SeqParams,
    SequenceIds,
    SequenceStore,
    TimedSequenceStore,
    candidates_ending_at,
    seconds_of_day,
)

if TYPE_CHECKING:  # pragma: no cover
    from .hsmodel import OperationTable, TrainedModel

LEGITIMATE = "legitimate"
ANOMALOUS = "anomalous"

# A judged window: the events before the operation that it holds, and the
# operation.
Window = tuple[Sequence[EventRecord], EventRecord]


@dataclass
class Thresholds:
    """Per-length occurrence-probability thresholds: one value for single
    operations, one shared by all longer sequences (long sequences are rare,
    so they get their own scale)."""

    n_single: float = 0.0
    n_multi: float = 0.0

    def __post_init__(self) -> None:
        for name in ("n_single", "n_multi"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValidationError("must be in [0, 1]", field=name)


def check_alpha_seq(value: float) -> None:
    """A time-of-day tolerance is a finite number of seconds, at least 0."""
    if not (math.isfinite(value) and value >= 0):
        raise ValidationError(
            f"must be a finite non-negative number, got {value!r}", field="alpha_seq"
        )


@dataclass
class BaselineParams:
    """Parameters of the two comparison methods."""

    theta: float = 0.5
    alpha_seq: float = 900.0
    n_seq_single: float = 0.1
    n_seq_multi: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= 1.0:
            raise ValidationError("must be in [0, 1]", field="theta")
        check_alpha_seq(self.alpha_seq)
        for name in ("n_seq_single", "n_seq_multi"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValidationError("must be in [0, 1]", field=name)


@dataclass
class Verdict:
    operation: EventRecord
    method: str
    decision: str
    delta: float
    threshold: float
    sequence: Items | None = None
    sequence_length: int | None = None

    @property
    def is_anomalous(self) -> bool:
        return self.decision == ANOMALOUS

    def to_jsonl(self) -> str:
        return json.dumps(
            {
                "timestamp": format_timestamp(self.operation.timestamp),
                "device": self.operation.device,
                "action": self.operation.action,
                "method": self.method,
                "decision": self.decision,
                "delta": self.delta,
                "seq_len": self.sequence_length,
                "threshold": self.threshold,
            },
            sort_keys=True,
        )


class Candidates(NamedTuple):
    """The candidates of a batch of windows, flat, as ids of the table
    ``keys``: window ``w``'s are ``ids[bounds[w]:bounds[w + 1]]``, its
    length-1 candidate first."""

    ids: np.ndarray
    keys: SequenceIds
    bounds: np.ndarray


class Levels(NamedTuple):
    """Each window's best score per length level, and the batch position of
    the longer candidate that won (-1 where the window holds only the judged
    operation)."""

    single: np.ndarray
    multi: np.ndarray
    at: np.ndarray


def batch_candidates(
    windows: Sequence[Window], seq_params: SeqParams, keys: SequenceIds
) -> Candidates:
    """The candidates of each (preceding events, operation) window, interned
    in ``keys``.

    ``preceding`` holds the events within ``t_seq`` seconds before the
    operation, as ``seqstore.target_windows`` and ``window_starts`` cut them;
    the window is those events and the operation itself as final item, cut
    to its last ``w_max`` items.
    """
    items: list[Items] = []
    bounds = [0]
    for preceding, op in windows:
        pairs = [*(event.pair for event in preceding), op.pair]
        items += candidates_ending_at(pairs[-seq_params.w_max :], seq_params.l_max)
        bounds.append(len(items))
    return Candidates(keys.intern(items), keys, np.array(bounds))


def _best_per_level(scores: np.ndarray, bounds: np.ndarray) -> Levels:
    """The score of each window's length-1 candidate, which comes first, and
    the first maximum among its longer ones (0.0 and -1 when there are none).

    Every window holds at least its length-1 candidate, and every score lies
    in [0, 1], so a length-1 candidate masked to -inf never wins its window.
    """
    starts = bounds[:-1]
    if not len(starts):  # reduceat takes no empty batch
        return Levels(np.zeros(0), np.zeros(0), np.zeros(0, dtype=np.intp))
    sizes = np.diff(bounds)
    longer = scores.copy()
    longer[starts] = -np.inf
    best = np.maximum.reduceat(longer, starts)
    hits = np.where(longer == np.repeat(best, sizes), np.arange(len(scores)), len(scores))
    first = np.minimum.reduceat(hits, starts)
    alone = sizes == 1
    return Levels(scores[starts], np.where(alone, 0.0, best), np.where(alone, -1, first))


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.dot(a[j], b[j])`` for each row, clamped to [0, 1] (a convex
    combination of values in [0, 1], up to float residue).

    A stack of (1 x S)(S x 1) products on C-contiguous rows runs through the
    BLAS dot that ``np.dot`` runs on two vectors, so each value is bitwise
    ``np.dot`` of its two rows; ``(a * b).sum(1)``, ``np.einsum`` and
    ``a @ b`` sum in other orders.
    """
    a, b = np.ascontiguousarray(a)[:, None, :], np.ascontiguousarray(b)[:, :, None]
    return np.clip(np.matmul(a, b)[:, 0, 0], 0.0, 1.0)


def _rows(store: SequenceStore | TimedSequenceStore, batch: Candidates) -> np.ndarray:
    """Each candidate's row in ``store``, found by one search of the store's
    ascending ids; ``len(store.ids)`` for each one the store lacks."""
    if batch.keys is not store.keys:
        raise ValueError("the candidates and the store take their ids from different tables")
    rows = np.searchsorted(store.ids, batch.ids)
    return np.where(np.append(store.ids, -1)[rows] == batch.ids, rows, len(store.ids))


def proposed_scores(store: SequenceStore, beliefs: np.ndarray, batch: Candidates) -> Levels:
    """Best occurrence probability ``sum_i b'(i, y) * belief_i`` per level of
    each window, under the window's row of the (n, S) ``beliefs``; a
    sequence the store lacks scores 0.0."""
    window = np.repeat(np.arange(len(batch.bounds) - 1), np.diff(batch.bounds))
    vectors = store.vectors()[_rows(store, batch)]
    return _best_per_level(_row_dots(vectors, beliefs[window]), batch.bounds)


def sequence_scores(
    store: TimedSequenceStore,
    batch: Candidates,
    tods: Sequence[float],
    alpha_seq: Sequence[float],
) -> list[Levels]:
    """Best time-of-day match ratio per level of each window, whose
    operation falls at second ``tods[w]`` of its day: one ``Levels`` per
    ``alpha_seq`` value, in that order.

    A candidate's ratio counts its stored occurrences within ``alpha_seq``
    seconds of the operation's time of day (cyclic distance) and divides by
    the number of stored target operations; with nothing stored it is 0.0.
    The counts of every candidate of the batch come from one integer search
    per ``alpha_seq``.
    """
    rows = _rows(store, batch)
    window = np.repeat(np.arange(len(tods)), np.diff(batch.bounds))
    total = store.target_total
    return [
        _best_per_level(
            store.counts_near(rows, window, tods, alpha) / total if total else np.zeros(len(rows)),
            batch.bounds,
        )
        for alpha in alpha_seq
    ]


def estimation_score(
    operations: "OperationTable", beliefs: np.ndarray, ops: Sequence[EventRecord]
) -> np.ndarray:
    """Belief-weighted operation probability of each judged operation,
    under its row of the (n, S) ``beliefs``."""
    vectors = np.array([operations.vector(op.pair) for op in ops], dtype=np.float64)
    return _row_dots(beliefs, vectors.reshape(np.shape(beliefs)))


def two_level_anomalous(s_single, s_multi, n_single, n_multi):
    """The decision rule of the two-level methods, on numbers or arrays."""
    return (s_single < n_single) & (s_multi < n_multi)


def _two_level_verdicts(
    windows: Sequence[Window],
    method: str,
    batch: Candidates,
    levels: Levels,
    n_single: float,
    n_multi: float,
) -> list[Verdict]:
    """Decide each window by the rule; the evidence is the level with the
    larger margin over its threshold, the single level winning ties."""
    anomalous = two_level_anomalous(levels.single, levels.multi, n_single, n_multi)
    by_multi = (levels.at >= 0) & (levels.multi - n_multi > levels.single - n_single)
    delta = np.where(by_multi, levels.multi, levels.single)
    evidence = np.where(by_multi, levels.at, batch.bounds[:-1])
    verdicts = []
    for (_, op), flagged, multi, value, at in zip(
        windows, anomalous.tolist(), by_multi.tolist(), delta.tolist(), evidence.tolist()
    ):
        decision, items = ANOMALOUS if flagged else LEGITIMATE, batch.keys.items[batch.ids[at]]
        threshold = n_multi if multi else n_single
        verdicts.append(Verdict(op, method, decision, value, threshold, items, len(items)))
    return verdicts


def _require_targets(windows: Sequence[Window], target_device: str) -> None:
    for _, op in windows:
        if op.device != target_device:
            raise UsageError(
                f"operation of {op.device!r} judged, but detection target is {target_device!r}"
            )


def judge_proposed(
    model: "TrainedModel",
    beliefs: np.ndarray,
    windows: Sequence[Window],
    thresholds: Thresholds,
) -> list[Verdict]:
    """Judge each (preceding events, operation) window with the combined
    state/sequence method, under its row of the (n, S) ``beliefs``, all in
    one batch."""
    _require_targets(windows, model.vocabulary.detection_target)
    batch = batch_candidates(windows, model.seq_params, model.store.keys)
    levels = proposed_scores(model.store, beliefs, batch)
    return _two_level_verdicts(
        windows, "proposed", batch, levels, thresholds.n_single, thresholds.n_multi
    )


def judge_estimation_baseline(
    operations: "OperationTable",
    beliefs: np.ndarray,
    windows: Sequence[Window],
    theta: float,
    target_device: str,
) -> list[Verdict]:
    """Judge each window's operation by thresholding its belief-weighted
    operation probability, under its row of the (n, S) ``beliefs``."""
    _require_targets(windows, target_device)
    ops = [op for _, op in windows]
    return [
        Verdict(op, "estimation", LEGITIMATE if score > theta else ANOMALOUS, score, theta)
        for op, score in zip(ops, estimation_score(operations, beliefs, ops).tolist())
    ]


def judge_sequence_baseline(
    store: TimedSequenceStore,
    windows: Sequence[Window],
    params: BaselineParams,
    seq_params: SeqParams,
    target_device: str,
) -> list[Verdict]:
    """Judge each (preceding events, operation) window by counting stored
    equivalent sequences near the operation's time of day, all in one batch."""
    _require_targets(windows, target_device)
    batch = batch_candidates(windows, seq_params, store.keys)
    tods = [seconds_of_day(op.timestamp) for _, op in windows]
    [levels] = sequence_scores(store, batch, tods, (params.alpha_seq,))
    return _two_level_verdicts(
        windows, "sequence", batch, levels, params.n_seq_single, params.n_seq_multi
    )
