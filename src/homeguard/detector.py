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

The proposed scorer reads each stored sequence's probability vector from its
store, computed there once per sequence; a candidate the store lacks scores
0.0.  The time-of-day scorer takes a batch of windows and ``alpha_seq``
values at once: ``evaluate`` passes a fold's judged windows, ``detect`` every
window of its stream.  Its counts are exact integers, found by binary search
in the store's rank-coded times, so a batch scores exactly as one candidate
at a time would.
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
    SequenceStore,
    TimedSequenceStore,
    candidates_ending_at,
    seconds_of_day,
)

if TYPE_CHECKING:  # pragma: no cover
    from .hsmodel import OperationTable, TrainedModel

LEGITIMATE = "legitimate"
ANOMALOUS = "anomalous"


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


class LevelScores(NamedTuple):
    """A window's best score per length level and the candidates that won.

    ``multi_items`` is None when the window holds only the judged operation.
    """

    single: float
    multi: float
    single_items: Items
    multi_items: Items | None


def window_candidates(
    preceding: Sequence[EventRecord], op: EventRecord, seq_params: SeqParams
) -> list[Items]:
    """Candidates of the judged window, the length-1 candidate first.

    ``preceding`` holds the events within ``t_seq`` seconds before the
    operation, as ``seqstore.target_windows`` and ``window_starts`` cut them;
    the window is those events and the operation itself as final item, cut
    to its last ``w_max`` items.
    """
    pairs = [*(event.pair for event in preceding), op.pair]
    return candidates_ending_at(pairs[-seq_params.w_max :], seq_params.l_max)


def _best_per_level(candidates: Sequence[Items], scores: np.ndarray) -> LevelScores:
    """The score of the length-1 candidate, which comes first, and the first
    maximum among the longer ones (0.0 and None when there are none)."""
    if len(candidates) == 1:
        return LevelScores(float(scores[0]), 0.0, candidates[0], None)
    at = 1 + int(np.argmax(scores[1:]))  # argmax keeps the first maximum
    return LevelScores(float(scores[0]), float(scores[at]), candidates[0], candidates[at])


def proposed_scores(
    store: SequenceStore, belief: np.ndarray, candidates: Sequence[Items]
) -> LevelScores:
    """Best occurrence probability ``sum_i b'(i, y) * belief_i`` per level;
    a sequence the store lacks scores 0.0."""

    def score(items: Items) -> float:
        vector = store.stored_vector(items)
        if vector is None:
            return 0.0
        # Convex combination of values in [0, 1]; clamp the float residue.
        return min(1.0, max(0.0, float(np.dot(vector, belief))))

    return _best_per_level(candidates, np.array([score(items) for items in candidates]))


def sequence_scores(
    store: TimedSequenceStore,
    windows: Sequence[tuple[Sequence[Items] | np.ndarray, float]],
    alpha_seq: Sequence[float],
) -> list[list[LevelScores]]:
    """Best time-of-day match ratio per level, for each (candidates, time of
    day) window and each ``alpha_seq`` value, in that order.

    A candidate's ratio counts its stored occurrences within ``alpha_seq``
    seconds of the operation's time of day (cyclic distance) and divides by
    the number of stored target operations; with nothing stored it is 0.0.
    The counts of every candidate of the batch come from one integer search
    per ``alpha_seq``.  A window's candidates may come as their
    ``store.key_ids``, so that a large batch holds integers, not tuples; its
    scores then carry key ids in place of items.
    """
    keyed = [
        candidates if isinstance(candidates, np.ndarray) else store.key_ids(candidates)
        for candidates, _ in windows
    ]
    keys = np.concatenate([np.empty(0, dtype=np.int64), *keyed])
    sizes = [len(candidates) for candidates in keyed]
    window = np.repeat(np.arange(len(windows)), sizes)
    tods = [tod for _, tod in windows]
    total = store.target_total
    ratios = [
        store.counts_near(keys, window, tods, alpha) / total if total else np.zeros(len(keys))
        for alpha in alpha_seq
    ]
    out, start = [], 0
    for (candidates, _), size in zip(windows, sizes):
        out.append(
            [_best_per_level(candidates, ratio[start : start + size]) for ratio in ratios]
        )
        start += size
    return out


def estimation_score(
    operations: "OperationTable", belief: np.ndarray, op: EventRecord
) -> float:
    """Belief-weighted operation probability of the judged operation."""
    return min(1.0, max(0.0, float(np.dot(belief, operations.vector(op.pair)))))


def two_level_anomalous(s_single, s_multi, n_single, n_multi):
    """The decision rule of the two-level methods, on numbers or arrays."""
    return (s_single < n_single) & (s_multi < n_multi)


def _two_level_verdict(
    op: EventRecord,
    method: str,
    scores: LevelScores,
    n_single: float,
    n_multi: float,
) -> Verdict:
    """Decide by the rule; the evidence is the level with the larger margin
    over its threshold, the single level winning ties."""
    anomalous = two_level_anomalous(scores.single, scores.multi, n_single, n_multi)
    if scores.multi_items is not None and scores.multi - n_multi > scores.single - n_single:
        delta, threshold, items = scores.multi, n_multi, scores.multi_items
    else:
        delta, threshold, items = scores.single, n_single, scores.single_items
    return Verdict(
        operation=op,
        method=method,
        decision=ANOMALOUS if anomalous else LEGITIMATE,
        delta=delta,
        threshold=threshold,
        sequence=items,
        sequence_length=len(items),
    )


def _require_target(op: EventRecord, target_device: str) -> None:
    if op.device != target_device:
        raise UsageError(
            f"operation of {op.device!r} judged, but detection target is {target_device!r}"
        )


def judge_proposed(
    model: "TrainedModel",
    belief: np.ndarray,
    preceding: Sequence[EventRecord],
    op: EventRecord,
    thresholds: Thresholds,
) -> Verdict:
    """Judge one target operation with the combined state/sequence method."""
    _require_target(op, model.vocabulary.detection_target)
    candidates = window_candidates(preceding, op, model.seq_params)
    scores = proposed_scores(model.store, belief, candidates)
    return _two_level_verdict(op, "proposed", scores, thresholds.n_single, thresholds.n_multi)


def judge_estimation_baseline(
    operations: "OperationTable",
    belief: np.ndarray,
    op: EventRecord,
    theta: float,
    target_device: str,
) -> Verdict:
    """Judge by thresholding the belief-weighted operation probability."""
    _require_target(op, target_device)
    score = estimation_score(operations, belief, op)
    return Verdict(
        operation=op,
        method="estimation",
        decision=LEGITIMATE if score > theta else ANOMALOUS,
        delta=score,
        threshold=theta,
    )


def judge_sequence_baseline(
    store: TimedSequenceStore,
    windows: Sequence[tuple[Sequence[EventRecord], EventRecord]],
    params: BaselineParams,
    seq_params: SeqParams,
    target_device: str,
) -> list[Verdict]:
    """Judge each (preceding events, operation) window by counting stored
    equivalent sequences near the operation's time of day, all in one batch."""
    batch = []
    for preceding, op in windows:
        _require_target(op, target_device)
        batch.append((window_candidates(preceding, op, seq_params), seconds_of_day(op.timestamp)))
    return [
        _two_level_verdict(op, "sequence", scores, params.n_seq_single, params.n_seq_multi)
        for (_, op), [scores] in zip(windows, sequence_scores(store, batch, (params.alpha_seq,)))
    ]
