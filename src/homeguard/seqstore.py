"""Behavior-sequence generation and per-state sequence stores.

A window is a run of events pairwise within ``t_seq`` seconds ending at a
target-device operation.  Because several users interleave their actions, all
order-preserving non-empty subsets of the window are generated as candidate
sequences; frequent real behaviors accumulate counts, interleaving artifacts
stay rare.

Target-related sequences are stored per estimated home state: a sequence is
credited to every state whose filtered probability satisfies the configured
criterion (top-``l_rank`` states, or probability against ``l_alpha``) at the
instant just before the sequence's final event.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from itertools import combinations
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .ingest import EventRecord

if TYPE_CHECKING:  # pragma: no cover
    from .hsmodel import FilterTrace

SECONDS_PER_DAY = 86400

Pair = tuple[str, str]
Items = tuple[Pair, ...]


@dataclass(frozen=True)
class EventSequence:
    """An ordered list of (device, action) symbols with its completion time."""

    items: Items
    end_time: datetime | None = None

    @property
    def length(self) -> int:
        return len(self.items)

    @property
    def key(self) -> str:
        return "|".join(f"{device}:{action}" for device, action in self.items)


def _items_from_key(key: str) -> Items:
    parts = key.split("|")
    out = []
    for part in parts:
        device, _, action = part.partition(":")
        out.append((device, action))
    return tuple(out)


@dataclass
class SeqParams:
    """Sequence-generation and state-selection parameters.

    Exactly one selection criterion is active: ``rank`` keeps the top
    ``l_rank`` states of the belief, ``alpha`` compares each state probability
    against ``l_alpha`` (selecting high-probability states by default;
    ``alpha_select_below`` flips the comparison).
    """

    t_seq: float = 600.0
    criterion: str = "rank"
    l_rank: int = 1
    l_alpha: float = 0.1
    alpha_select_below: bool = False
    l_max: int = 5
    w_max: int = 16

    def __post_init__(self) -> None:
        if self.t_seq <= 0:
            raise ValidationError("must be positive", field="t_seq")
        if self.criterion not in ("rank", "alpha"):
            raise ValidationError("must be 'rank' or 'alpha'", field="criterion")
        if self.l_rank < 0:
            raise ValidationError("must be non-negative", field="l_rank")
        if not 0.0 <= self.l_alpha <= 1.0:
            raise ValidationError("must be in [0, 1]", field="l_alpha")
        if self.l_max < 1 or self.w_max < 1:
            raise ValidationError("l_max and w_max must be at least 1")

    def to_payload(self) -> dict:
        return {
            "t_seq": self.t_seq,
            "criterion": self.criterion,
            "l_rank": self.l_rank,
            "l_alpha": self.l_alpha,
            "alpha_select_below": self.alpha_select_below,
            "l_max": self.l_max,
            "w_max": self.w_max,
        }


def _enumerate_distinct(pairs: Sequence[Pair], l_max: int) -> dict[Items, int]:
    """All distinct order-preserving subsequences mapped to their final position.

    When the same symbol sequence arises from several index subsets the latest
    final position wins, so probabilities are taken as close to the sequence
    completion as possible.
    """
    out: dict[Items, int] = {}
    n = len(pairs)
    for length in range(1, min(l_max, n) + 1):
        for combo in combinations(range(n), length):
            items = tuple(pairs[p] for p in combo)
            final = combo[-1]
            previous = out.get(items)
            if previous is None or final > previous:
                out[items] = final
    return out


def window_start(times: Sequence[datetime], ts: datetime, t_seq: float) -> int:
    """Index of the first of the sorted ``times`` at most ``t_seq`` seconds
    before ``ts``: where the window of an event at ``ts`` begins."""
    return bisect_left(times, ts - timedelta(seconds=t_seq))


def candidates_ending_at(window_pairs: Sequence[Pair], l_max: int) -> list[Items]:
    """Distinct subsequences of the window that end with its final item."""
    if not window_pairs:
        return []
    head = list(window_pairs[:-1])
    last = window_pairs[-1]
    out: set[Items] = {(last,)}
    for length in range(1, min(l_max - 1, len(head)) + 1):
        for combo in combinations(range(len(head)), length):
            out.add(tuple(head[p] for p in combo) + (last,))
    return sorted(out, key=lambda items: (len(items), items))


def _selection_matrix(entry: np.ndarray, params: SeqParams) -> np.ndarray:
    """Which states each row of a (n, S) belief matrix selects under the
    active storing criterion; a row may select none.  A state's rank is one
    plus the number of states with a strictly greater belief."""
    if params.criterion == "rank":
        ranks = 1 + (entry[:, None, :] > entry[:, :, None]).sum(axis=2)
        return ranks <= params.l_rank
    if params.alpha_select_below:
        return entry <= params.l_alpha
    return entry >= params.l_alpha


@dataclass
class SequenceStore:
    """Counts of target-related sequences per estimated state.

    ``counts[y][i]`` is the number of stored occurrences of sequence ``y``
    credited to state ``i``; ``slot_counts[i]`` is the number of training
    slots whose entry belief selected state ``i`` under the same criterion.
    """

    n_states: int
    criterion: str = "rank"
    counts: dict[Items, np.ndarray] = field(default_factory=dict)
    slot_counts: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.slot_counts is None:
            self.slot_counts = np.zeros(self.n_states, dtype=np.int64)

    def occurrence_count(self, state: int, items: Items) -> int:
        counts = self.counts.get(items)
        return int(counts[state]) if counts is not None else 0

    def probability(self, state: int, items: Items) -> float:
        """Sequence probability; zero for unknown sequences or unseen states."""
        if self.slot_counts[state] == 0:
            return 0.0
        counts = self.counts.get(items)
        if counts is None:
            return 0.0
        return float(counts[state]) / float(self.slot_counts[state])

    def vector(self, items: Items) -> np.ndarray:
        """Per-state sequence probabilities as one vector."""
        counts = self.counts.get(items)
        if counts is None:
            return np.zeros(self.n_states)
        return np.divide(
            counts.astype(np.float64),
            self.slot_counts,
            out=np.zeros(self.n_states),
            where=self.slot_counts > 0,
        )

    def ingest_trace(self, trace: "FilterTrace", target_device: str, params: SeqParams) -> None:
        """Fold one training-day belief trace into the store."""
        if len(trace.slots):
            self.slot_counts += _selection_matrix(trace.entry, params).sum(
                axis=0, dtype=np.int64
            )
        steps = trace.events
        if not steps:
            return
        # The states each event's "just before" belief selects, in one call.
        selected = _selection_matrix(np.array([step.pre for step in steps]), params)
        times = [step.event.timestamp for step in steps]
        for idx, step in enumerate(steps):
            if step.event.device != target_device:
                continue
            start = window_start(times, step.event.timestamp, params.t_seq)
            lo = max(start, idx + 1 - params.w_max)  # keep the last w_max events
            pairs = [s.event.pair for s in steps[lo : idx + 1]]
            for items, final in _enumerate_distinct(pairs, params.l_max).items():
                if not any(device == target_device for device, _ in items):
                    continue
                mask = selected[lo + final]
                if not mask.any():
                    continue
                counts = self.counts.setdefault(
                    items, np.zeros(self.n_states, dtype=np.int64)
                )
                counts[mask] += 1

    def to_payload(self) -> dict:
        return {
            "n_states": self.n_states,
            "criterion": self.criterion,
            "slot_counts": [int(x) for x in self.slot_counts],
            "counts": {
                EventSequence(items).key: [int(x) for x in counts]
                for items, counts in sorted(self.counts.items())
            },
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "SequenceStore":
        store = cls(
            n_states=payload["n_states"],
            criterion=payload.get("criterion", "rank"),
            slot_counts=np.asarray(payload["slot_counts"], dtype=np.int64),
        )
        for key, counts in payload["counts"].items():
            store.counts[_items_from_key(key)] = np.asarray(counts, dtype=np.int64)
        return store


def store_sequences(
    traces: "FilterTrace | Iterable[FilterTrace]",
    target_device: str,
    params: SeqParams,
    n_states: int,
) -> SequenceStore:
    """Build a sequence store from one or more training belief traces."""
    if hasattr(traces, "entry"):
        traces = [traces]  # type: ignore[list-item]
    store = SequenceStore(n_states=n_states, criterion=params.criterion)
    for trace in traces:  # type: ignore[union-attr]
        store.ingest_trace(trace, target_device, params)
    return store


def seconds_of_day(ts: datetime) -> float:
    return ts.hour * 3600 + ts.minute * 60 + ts.second + ts.microsecond / 1e6


@dataclass
class TimedSequenceStore:
    """Sequence occurrences indexed by time of day, for the time-based method.

    ``times[y]`` holds the seconds-of-day at which sequence ``y`` completed in
    training; ``target_total`` counts the stored target-device operations and
    is the denominator of every match ratio.
    """

    times: dict[Items, list[float]] = field(default_factory=dict)
    target_total: int = 0

    def count_near(self, items: Items, tod: float, alpha_seq: float) -> int:
        """Stored occurrences of ``items`` within cyclic ``alpha_seq`` seconds."""
        stored = self.times.get(items)
        if not stored:
            return 0
        if 2 * alpha_seq >= SECONDS_PER_DAY:
            return len(stored)
        lo = (tod - alpha_seq) % SECONDS_PER_DAY
        hi = (tod + alpha_seq) % SECONDS_PER_DAY
        if lo <= hi:
            return bisect_right(stored, hi) - bisect_left(stored, lo)
        return (len(stored) - bisect_left(stored, lo)) + bisect_right(stored, hi)

    def ratio(self, items: Items, tod: float, alpha_seq: float) -> float:
        if self.target_total == 0:
            return 0.0
        return self.count_near(items, tod, alpha_seq) / self.target_total

    def to_payload(self) -> dict:
        return {
            "target_total": self.target_total,
            "times": {
                EventSequence(items).key: list(times)
                for items, times in sorted(self.times.items())
            },
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "TimedSequenceStore":
        return cls(
            times={
                _items_from_key(key): [float(x) for x in times]
                for key, times in payload["times"].items()
            },
            target_total=payload["target_total"],
        )


def build_timed_store(
    events: Sequence[EventRecord], target_device: str, params: SeqParams
) -> TimedSequenceStore:
    """Store target-related sequences with their completion times of day."""
    events = sorted(events, key=lambda e: e.timestamp)
    times = [event.timestamp for event in events]
    store = TimedSequenceStore()
    for idx, event in enumerate(events):
        if event.device != target_device:
            continue
        store.target_total += 1
        window = events[window_start(times, event.timestamp, params.t_seq) : idx + 1]
        if len(window) > params.w_max:
            window = window[-params.w_max :]
        pairs = [e.pair for e in window]
        for items, final in _enumerate_distinct(pairs, params.l_max).items():
            if not any(device == target_device for device, _ in items):
                continue
            store.times.setdefault(items, []).append(
                seconds_of_day(window[final].timestamp)
            )
    for stored in store.times.values():
        stored.sort()
    return store
