"""Behavior-sequence generation and per-state sequence stores.

A window is a run of events pairwise within ``t_seq`` seconds ending at a
target-device operation.  Because several users interleave their actions, all
order-preserving non-empty subsets of the window are generated as candidate
sequences; frequent real behaviors accumulate counts, interleaving artifacts
stay rare.

This module cuts every window, on one clock: the events' instants as whole
microseconds from the grid's start (``SlotGrid.event_at``).
``window_starts`` finds where the windows of a batch of instants begin with
one ``np.searchsorted``, and ``target_windows`` gives the target operations
of a list of events with the start of each one's window; ``train``,
``detect`` and every fold of ``evaluate`` take their windows from it.

Target-related sequences are stored per estimated home state: a sequence is
credited to every state whose filtered probability satisfies the configured
criterion (top-``l_rank`` states, or probability against ``l_alpha``) at the
instant just before the sequence's final event.

One enumerator builds every subsequence: ``candidates_ending_at`` makes the
distinct subsequences that end with a window's final item from a
next-occurrence table, never as position combinations.  A judged window's
candidates come from it directly, and a training window's subsequences
(``_enumerate_distinct``) are its candidates at the last occurrence of each
distinct item.

A window and its subsequences depend only on the events, ``t_seq``, ``w_max``
and ``l_max``, never on beliefs.  ``DayWindows`` therefore enumerates the
windows of each run of a grid's events once, interning every stored
subsequence in one ``SequenceIds`` table, and keeps (id, final event) arrays
per run, cached by the run's bounds; ``train`` and every fold of ``evaluate``
build their stores from the same runs, and a store holds its sequences as
ascending ids, so a judged candidate, interned once, finds its row in any
store by one integer search.  A training trace's events are one run: a whole
day, or the part of a day that an excluded calendar date leaves (a day that
does not start at midnight), and the trace holds their grid positions.
The filter pass adds the training traces' slot entries to ``SlotCounts``
a block of slots at a time (``count_slots``) and keeps none of them.
``TrainingBeliefs`` joins the traces to the arrays of their runs and ranks
every belief just before an event once, so the store for each selection
value is one comparison, one ``np.unique`` of the ids and one count with
numpy.  The time-of-day store is merged from the arrays of the whole days;
only windows that reach back across midnight into a left-out day are
enumerated again.

The time-of-day store counts matches through an index built on first use:
every stored time replaced by its rank among the distinct stored times and
coded with its sequence's row, in one sorted integer array, so each count is
a difference of two binary searches.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta
from functools import cached_property
from itertools import repeat
from typing import TYPE_CHECKING, AbstractSet, Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .ingest import MAX_SPAN_DAYS, EventRecord, SlotGrid
from .payload import at, counts, json_object, typed

if TYPE_CHECKING:  # pragma: no cover
    from .hsmodel import FilterTrace

SECONDS_PER_DAY = 86400
# The longest window ``t_seq`` may span: the longest grid that
# ``build_timeslots`` accepts.
MAX_T_SEQ = MAX_SPAN_DAYS * SECONDS_PER_DAY
_MICROSECOND = timedelta(microseconds=1)

Pair = tuple[str, str]
Items = tuple[Pair, ...]


def sequence_key(items: Items) -> str:
    """The text key of a sequence in a model file: ``device:action`` items
    joined by ``|``."""
    return "|".join(f"{device}:{action}" for device, action in items)


@dataclass
class SeqParams:
    """Sequence-generation and state-selection parameters.

    Exactly one selection criterion is active: ``rank`` keeps the top
    ``l_rank`` states of the belief, ``alpha`` keeps each state whose
    probability is at least ``l_alpha``.
    """

    t_seq: float = 600.0
    criterion: str = "rank"
    l_rank: int = 1
    l_alpha: float = 0.1
    l_max: int = 5
    w_max: int = 16

    def __post_init__(self) -> None:
        if not 0 < self.t_seq <= MAX_T_SEQ:  # NaN fails too
            raise ValidationError(
                f"must be a positive number of seconds up to {MAX_T_SEQ}, got {self.t_seq!r}",
                field="t_seq",
            )
        if self.criterion not in ("rank", "alpha"):
            raise ValidationError("must be 'rank' or 'alpha'", field="criterion")
        if self.l_rank < 0:
            raise ValidationError("must be non-negative", field="l_rank")
        if not 0.0 <= self.l_alpha <= 1.0:
            raise ValidationError("must be in [0, 1]", field="l_alpha")
        if self.l_max < 1 or self.w_max < 1:
            raise ValidationError("l_max and w_max must be at least 1")


def window_starts(at: np.ndarray, instants: np.ndarray, t_seq: float) -> np.ndarray:
    """For each of ``instants``, the index of the first of the ascending
    ``at`` at most ``t_seq`` seconds before it: where the window of an event
    at that instant begins.  Both count whole microseconds from one origin
    (``SlotGrid.event_at``); ``t_seq`` is rounded to the microsecond as
    ``timedelta`` rounds it."""
    return np.searchsorted(at, instants - timedelta(seconds=t_seq) // _MICROSECOND)


def target_windows(
    events: Sequence[EventRecord], at: np.ndarray, target_device: str, t_seq: float
) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the target operations among ``events``, whose instants
    ``at`` holds, and where their windows start."""
    ends = np.flatnonzero([event.device == target_device for event in events])
    return ends, window_starts(at, at[ends], t_seq)


def candidates_ending_at(window_pairs: Sequence[Pair], l_max: int) -> list[Items]:
    """Distinct subsequences of the window that end with its final item,
    shortest first, then in item order.

    The heads before the final item are built level by level from a
    next-occurrence table, so each distinct head is reached once, through its
    earliest embedding, and each level comes out in item order.
    """
    if not window_pairs:
        return []
    *head, last = window_pairs
    # after[e + 1]: each symbol that occurs past head position e, in symbol
    # order, mapped to its first position there.
    symbols = sorted(set(head))
    after: list[dict[Pair, int]] = [{}] * (len(head) + 1)
    first: dict[Pair, int] = {}
    for e in range(len(head) - 1, -2, -1):
        after[e + 1] = {symbol: first[symbol] for symbol in symbols if symbol in first}
        if e >= 0:
            first[head[e]] = e
    # The heads of one length, each with the position it ends at.
    heads: list[Items] = [()]
    ends = [-1]
    out: list[Items] = []
    for length in range(min(max(l_max, 1) - 1, len(head)) + 1):
        if length:
            heads = [items + (symbol,) for items, e in zip(heads, ends) for symbol in after[e + 1]]
            ends = [at for e in ends for at in after[e + 1].values()]
        out.extend(items + (last,) for items in heads)
    return out


def _enumerate_distinct(pairs: Sequence[Pair], l_max: int) -> dict[Items, int]:
    """All distinct order-preserving subsequences of up to ``l_max`` items,
    each mapped to the latest position it can end at.

    A subsequence that ends at one copy of an item also ends at the item's
    last copy, so the subsequences ending with an item are the candidates
    ending at its last occurrence.  They come by that position, then shortest
    first, then in item order.
    """
    last = {pair: end for end, pair in enumerate(pairs)}
    out: dict[Items, int] = {}
    for end in sorted(last.values()):
        for items in candidates_ending_at(pairs[: end + 1], l_max):
            out[items] = end
    return out


class SequenceIds:
    """One integer per distinct target-related sequence, in order of first
    sight: sequence ``items[id]``; -1 for one with no item on the target.

    One table serves a run (``train``, or every fold of ``evaluate``) or one
    loaded model, training windows, stores and judged candidates alike.
    """

    def __init__(self, target_device: str) -> None:
        self.target_device = target_device
        self.items: list[Items] = []
        self._ids: dict[Items, int] = {}

    def intern(self, sequences: Sequence[Items]) -> np.ndarray:
        """The id of each of ``sequences``, given on first sight."""
        known = self._ids
        ids = np.fromiter(
            map(known.get, sequences, repeat(_UNSEEN)), dtype=np.intp, count=len(sequences)
        )
        for j in np.flatnonzero(ids == _UNSEEN).tolist():
            items = sequences[j]
            sid = known.get(items)
            if sid is None:
                related = any(device == self.target_device for device, _ in items)
                sid = known[items] = len(self.items) if related else -1
                if related:
                    self.items.append(items)
            ids[j] = sid
        return ids

    def keyed(self, ids: np.ndarray, values: Sequence) -> dict:
        """``values`` keyed by the ``sequence_key`` of their ``ids``, as a
        model file stores them."""
        return {sequence_key(self.items[sid]): value for sid, value in zip(ids.tolist(), values)}

    def by_id(self, stored: dict, where: str, pairs: AbstractSet[Pair]) -> tuple[np.ndarray, list]:
        """The ids of a model file's sequence keys (``keyed``), ascending,
        and their values in that order.  A key whose items are not
        all among ``pairs``, or none of them on the target device, raises
        ``ValidationError`` naming it below ``where``."""
        texts, values = list(stored), list(stored.values())
        sequences = [
            tuple(tuple(item.partition(":")[::2]) for item in text.split("|")) for text in texts
        ]
        ids = self.intern(sequences)
        for text, items, sid in zip(texts, sequences, ids.tolist()):
            if sid < 0 or not pairs.issuperset(items):
                raise ValidationError(
                    "needs registered device:action items, one of them on the detection"
                    f" target {self.target_device!r}",
                    field=at(where, text),
                )
        order = np.argsort(ids)
        return ids[order], [values[k] for k in order.tolist()]


_UNSEEN = -2


@dataclass(eq=False)
class SequenceStore:
    """Counts of target-related sequences per estimated state.

    ``ids`` holds the stored sequences, ascending, as ids of the table
    ``keys``; ``counts[k][i]`` is the number of stored occurrences of
    sequence ``ids[k]`` credited to state ``i``; ``slot_counts[i]`` is the
    number of training slots whose entry belief selected state ``i`` under
    the same criterion; its length is the number of states.
    """

    slot_counts: np.ndarray
    ids: np.ndarray
    keys: SequenceIds
    counts: np.ndarray  # (K, S)

    def vectors(self) -> np.ndarray:
        """The (K + 1, S) per-state sequence probabilities: row ``k`` of
        sequence ``ids[k]``, and a last row of zeros for every sequence the
        store lacks."""
        rows = np.vstack([self.counts, np.zeros(len(self.slot_counts))])
        return np.divide(
            rows, self.slot_counts, out=np.zeros_like(rows), where=self.slot_counts > 0
        )

    def to_payload(self) -> dict:
        return {
            "slot_counts": [int(x) for x in self.slot_counts],
            "counts": self.keys.keyed(self.ids, self.counts.tolist()),
        }

    @classmethod
    def from_payload(
        cls, payload, where: str, n_states: int, keys: SequenceIds, pairs: AbstractSet[Pair]
    ) -> "SequenceStore":
        """A store over ``n_states`` states from its JSON form, its keys
        interned in ``keys``; a fault raises ``ValidationError`` naming the
        key below ``where``."""
        names = ("slot_counts", "counts")
        data = json_object(payload, names, where, names)
        slot_counts = counts(data["slot_counts"], n_states, at(where, "slot_counts"))
        where_counts = at(where, "counts")
        stored = {
            key: counts(values, n_states, at(where_counts, key))
            for key, values in json_object(data["counts"], None, where_counts).items()
        }
        ids, rows = keys.by_id(stored, where_counts, pairs)
        return cls(slot_counts, ids, keys, np.array(rows, dtype=np.int64).reshape(-1, n_states))


def seconds_of_day(ts: datetime) -> float:
    return ts.hour * 3600 + ts.minute * 60 + ts.second + ts.microsecond / 1e6


@dataclass(eq=False)
class TimedSequenceStore:
    """Sequence occurrences indexed by time of day, for the time-based method.

    ``ids`` holds the stored sequences, ascending, as ids of the table
    ``keys``; ``times[k]`` holds, ascending, the seconds-of-day at which
    sequence ``ids[k]`` completed in training; ``target_total`` counts the
    stored target-device operations and is the denominator of every match
    ratio.
    """

    ids: np.ndarray
    keys: SequenceIds
    times: list[np.ndarray]
    target_total: int = 0

    @cached_property
    def _index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The stored times of every sequence as one ascending integer array.

        Each time is replaced by its rank among the ``distinct`` stored
        times, and the time of row ``k`` is coded ``k * (len(distinct) + 1) +
        rank``, so the codes ascend by row, then by time.  The stored times of
        row ``k`` below a value of rank ``r`` (the count of distinct times
        below it) are then the codes below ``k * (len(distinct) + 1) + r``.
        Row ``k``'s codes are ``codes[starts[k]:starts[k + 1]]``; row
        ``len(ids)`` stands for every sequence the store lacks and has none.
        """
        flat = np.concatenate([np.empty(0), *self.times])
        distinct, ranks = np.unique(flat, return_inverse=True)
        sizes = [len(times) for times in self.times]
        rows = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
        return distinct, rows * (len(distinct) + 1) + ranks.ravel(), np.cumsum([0, *sizes, 0])

    def counts_near(
        self, rows: np.ndarray, window: np.ndarray, tods: Sequence[float], alpha_seq: float
    ) -> np.ndarray:
        """Stored occurrences of row ``rows[j]`` within cyclic ``alpha_seq``
        seconds of ``tods[window[j]]``: exact integer counts."""
        distinct, codes, starts = self._index
        first, end = starts[rows], starts[rows + 1]
        if 2 * alpha_seq >= SECONDS_PER_DAY:
            return end - first
        lo = [(tod - alpha_seq) % SECONDS_PER_DAY for tod in tods]
        hi = [(tod + alpha_seq) % SECONDS_PER_DAY for tod in tods]
        wraps = np.array([a > b for a, b in zip(lo, hi)], dtype=bool)[window]
        base = rows * (len(distinct) + 1)
        # Codes of stored times below lo, and of those at or below hi.
        below_lo = np.searchsorted(codes, base + np.searchsorted(distinct, lo, side="left")[window])
        upto_hi = np.searchsorted(codes, base + np.searchsorted(distinct, hi, side="right")[window])
        return np.where(wraps, (end - below_lo) + (upto_hi - first), upto_hi - below_lo)

    def to_payload(self) -> dict:
        return {
            "target_total": self.target_total,
            "times": self.keys.keyed(self.ids, [times.tolist() for times in self.times]),
        }

    @classmethod
    def from_payload(
        cls, payload, where: str, keys: SequenceIds, pairs: AbstractSet[Pair]
    ) -> "TimedSequenceStore":
        """A store from its JSON form, its keys interned in ``keys``; a
        count, a time list or a key the index could not read raises
        ``ValidationError`` naming the key below ``where``."""
        names = ("target_total", "times")
        data = json_object(payload, names, where, names)
        total = typed(data["target_total"], int, at(where, "target_total"))
        if total < 0:
            raise ValidationError("must be non-negative", field=at(where, "target_total"))
        where_times = at(where, "times")
        stored = json_object(data["times"], None, where_times)
        for key, values in stored.items():
            if not (
                isinstance(values, list)
                and all(type(x) in (int, float) and 0 <= x < SECONDS_PER_DAY for x in values)
                and all(a <= b for a, b in zip(values, values[1:]))
            ):
                raise ValidationError("need ascending seconds of day", field=at(where_times, key))
        ids, times = keys.by_id(stored, where_times, pairs)
        return cls(ids, keys, [np.array(values, dtype=np.float64) for values in times], total)


# ---------------------------------------------------------------------------
# Building the stores: windows enumerated once, beliefs ranked once


def _cuts(params: SeqParams) -> tuple[float, int, int]:
    """The parameters a window and its subsequences depend on."""
    return (params.t_seq, params.w_max, params.l_max)


@dataclass(frozen=True)
class WindowEntries:
    """The stored subsequences of a list of windows, window after window.

    Entry ``j`` is subsequence ``ids[j]`` (an id of the ``DayWindows``'
    table) completed by the event at stream position ``finals[j]``.
    The entries of window ``w`` are ``bounds[w]:bounds[w + 1]``.
    """

    ids: np.ndarray
    finals: np.ndarray
    bounds: np.ndarray


@dataclass(frozen=True)
class _StreamWindows:
    """The windows of the timed store over a whole stream of days."""

    pairs: list[Pair]
    ends: np.ndarray  # stream position of each target operation
    reach: np.ndarray  # first position within t_seq before each of them
    entries: WindowEntries  # one window per target operation
    tod: np.ndarray  # seconds-of-day of every event


class DayWindows:
    """The target windows of a grid's events, each enumerated once.

    ``events`` and ``event_at`` are the grid's events and their instants,
    and day ``d``'s events are ``events[offsets[d]:offsets[d + 1]]``.
    ``train`` builds one over its grid and every fold of an ``evaluate`` run
    shares one, so both take their stores from the same windows, and their
    sequences' ids from one table, ``keys``.  Two kinds of windows are kept,
    each enumerated on first use:

    - ``run(lo, hi)``: the windows of the events ``lo:hi`` alone, as a
      training trace over those events sees them.  A whole day and the kept
      part of a day are each one run, whose windows never depend on which
      days a fold keeps, so every fold that keeps the run shares them.
    - ``timed_store(without_day)``: the timed store's windows run over the
      whole stream, across midnight; one that starts inside its own day is
      that day's window.  A window that reaches into the left-out day holds
      other events without it (and ``w_max`` cuts another set), so only
      those are enumerated again.
    """

    def __init__(self, grid: SlotGrid, target_device: str, params: SeqParams) -> None:
        self.events = grid.events
        self.event_at = grid.event_at
        self.offsets = grid.day_bounds()
        self.cuts = _cuts(params)
        self.keys = SequenceIds(target_device)
        self._runs: dict[tuple[int, int], WindowEntries] = {}

    def check(self, target_device: str, params: SeqParams) -> None:
        if target_device != self.keys.target_device or _cuts(params) != self.cuts:
            raise ValidationError(
                "windows were enumerated for another target device, t_seq, w_max or l_max"
            )

    def _window(
        self, pairs: Sequence[Pair], positions: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ids and final positions of the stored subsequences of the
        window over ``positions``."""
        distinct = _enumerate_distinct([pairs[p] for p in positions], self.cuts[2])
        ids = self.keys.intern(list(distinct))
        finals = np.asarray(positions, dtype=np.intp)[list(distinct.values())]
        related = ids >= 0
        return ids[related], finals[related]

    def _span(self, end: int, start: int) -> range:
        """Positions of the window ending at ``end``: from ``start`` on, the
        last ``w_max`` events."""
        return range(max(start, end + 1 - self.cuts[1]), end + 1)

    def run(self, lo: int, hi: int) -> WindowEntries:
        """The windows of the events ``lo:hi`` alone (their positions count
        from ``lo``), enumerated on first use of this run."""
        entries = self._runs.get((lo, hi))
        if entries is None:
            events = self.events[lo:hi]
            pairs = [event.pair for event in events]
            ends, starts = target_windows(
                events, self.event_at[lo:hi], self.keys.target_device, self.cuts[0]
            )
            entries = self._runs[lo, hi] = _entries(
                [self._window(pairs, self._span(*op)) for op in zip(ends.tolist(), starts.tolist())]
            )
        return entries

    @cached_property
    def _stream(self) -> _StreamWindows:
        events = self.events
        pairs = [event.pair for event in events]
        ends, reach = target_windows(events, self.event_at, self.keys.target_device, self.cuts[0])
        bounds = self.offsets.tolist()
        day_first = np.searchsorted(ends, bounds[:-1]).tolist()
        windows = []
        for lo, hi, first in zip(bounds, bounds[1:], day_first):
            own = self.run(lo, hi)
            for w in range(len(own.bounds) - 1):
                op = first + w
                if reach[op] >= lo:  # starts inside its day
                    a, b = own.bounds[w], own.bounds[w + 1]
                    windows.append((own.ids[a:b], own.finals[a:b] + lo))
                else:
                    windows.append(self._window(pairs, self._span(ends[op], reach[op])))
        return _StreamWindows(
            pairs=pairs,
            ends=ends,
            reach=reach,
            entries=_entries(windows),
            tod=np.array([seconds_of_day(e.timestamp) for e in events], dtype=np.float64),
        )

    def timed_store(self, without_day: int | None = None) -> "TimedSequenceStore":
        """The timed store of the stream, or of the stream without one day."""
        stream = self._stream
        entries = stream.entries
        ids, finals = entries.ids, entries.finals
        n_targets = len(stream.ends)
        if without_day is not None:
            lo, hi = self.offsets[without_day : without_day + 2].tolist()
            # The day's own operations go, then the later ones whose reach
            # starts inside it or before it (reach grows with position).
            first, after = np.searchsorted(stream.ends, [lo, hi]).tolist()
            last = after + int(np.searchsorted(stream.reach[after:], hi)) if lo < hi else after
            w_max = self.cuts[1]
            windows = []
            reaching = zip(stream.ends[after:last].tolist(), stream.reach[after:last].tolist())
            for end, start in reaching:
                tail = range(max(hi, end + 1 - w_max), end + 1)
                head = range(max(start, lo - (w_max - len(tail))), lo) if len(tail) < w_max else ()
                windows.append(self._window(stream.pairs, [*head, *tail]))
            kept_to, kept_from = entries.bounds[first], entries.bounds[last]
            ids = np.concatenate([ids[:kept_to], *(w[0] for w in windows), ids[kept_from:]])
            finals = np.concatenate(
                [finals[:kept_to], *(w[1] for w in windows), finals[kept_from:]]
            )
            n_targets -= after - first
        stored, rows = np.unique(ids, return_inverse=True)
        tod = stream.tod[finals]
        flat = tod[np.lexsort((tod, rows))]
        cuts = np.cumsum([0, *np.bincount(rows, minlength=len(stored))]).tolist()
        times = [flat[a:b] for a, b in zip(cuts, cuts[1:])]
        return TimedSequenceStore(stored, self.keys, times, n_targets)


_NONE = np.empty(0, dtype=np.intp)


def _entries(windows: Sequence[tuple[np.ndarray, np.ndarray]]) -> WindowEntries:
    """One ``WindowEntries`` from the (ids, finals) of each window."""
    return WindowEntries(
        np.concatenate([_NONE, *(ids for ids, _ in windows)]),
        np.concatenate([_NONE, *(finals for _, finals in windows)]),
        np.cumsum([0, *(len(ids) for ids, _ in windows)]),
    )


def _ranks(beliefs: np.ndarray) -> np.ndarray:
    """Each state's rank in each row of a (n, S) belief matrix: one plus the
    number of states with a strictly greater belief, so ties share a rank."""
    ranks = np.ones(beliefs.shape, dtype=np.int16)
    for column in beliefs.T:
        ranks += column[:, None] > beliefs
    return ranks


class SlotCounts:
    """The counts of a training set's slots that its stores' ``slot_counts``
    are read from, for every selection value.

    ``at_rank[r - 1, i]`` counts the slots whose entry belief ranks state
    ``i`` r-th (one plus the number of states with a strictly greater
    belief, so ties share a rank), and ``at_least[a, i]`` those whose entry
    belief of ``i`` is at least ``alphas[a]``.  A store for any ``l_rank``
    sums a prefix of ``at_rank``; one for ``l_alpha`` needs it among
    ``alphas``.  ``count_slots`` adds the slots of many streams at once.
    """

    def __init__(self, n_states: int, alphas: Iterable[float] = ()) -> None:
        self.alphas = tuple(dict.fromkeys(map(float, alphas)))
        self.at_rank = np.zeros((n_states, n_states), dtype=np.int64)
        self.at_least = np.zeros((len(self.alphas), n_states), dtype=np.int64)

    def selected(self, params: SeqParams) -> np.ndarray:
        """Per state, the slots whose entry belief ``params`` selects it at."""
        if params.criterion == "rank":
            return self.at_rank[: params.l_rank].sum(axis=0)
        if params.l_alpha not in self.alphas:
            raise ValueError(f"no slot counts were taken at l_alpha {params.l_alpha!r}")
        return self.at_least[self.alphas.index(params.l_alpha)]


def count_slots(
    counts: Sequence[SlotCounts | None], owner: np.ndarray, beliefs: np.ndarray
) -> None:
    """Add the state-major (S, n, R) ``beliefs``, those entering ``n`` slots
    of each of R rows, to the slot counts: row ``r``'s to
    ``counts[owner[r]]``, and a row whose owner is ``len(counts)`` to none.
    The counts share their ``alphas``."""
    n_states = len(beliefs)
    flat = beliefs.reshape(n_states, -1)
    # One comparison row per state: each cell gains S for every state with a
    # strictly greater belief.
    below = np.zeros(flat.shape, dtype=np.intp)
    for row in flat:
        below += row > flat
    below *= n_states
    # A slot of row r at which state i ranks q-th counts in cell
    # (owner[r], q - 1, i); the rows of no owner count in a block of their own.
    cells = below.reshape(beliefs.shape)
    cells += np.arange(n_states)[:, None, None] + owner * n_states**2
    at_rank = np.bincount(cells.ravel(), minlength=(len(counts) + 1) * n_states**2)
    at_rank = at_rank.reshape(-1, n_states, n_states)
    alphas = next(c.alphas for c in counts if c is not None)
    if alphas:
        at_least = (beliefs >= np.reshape(alphas, (-1, 1, 1, 1))).sum(axis=2)
    for k, c in enumerate(counts):
        if c is not None:
            c.at_rank += at_rank[k]
            if alphas:
                c.at_least += at_least[:, :, owner == k].sum(axis=2)


class TrainingBeliefs:
    """The belief traces of a training set, joined to their windows, and
    the ``SlotCounts`` of their slots.

    Each trace's events are one run of the grid's events (a whole day, or
    the kept part of one), and its windows are those of that run, which
    ``windows`` enumerates once for every fold that keeps it.  The traces'
    slot entries are read only as ``counts``, which the filter pass fills,
    so a training trace keeps none (its ``entry`` is None).  On first use
    the beliefs just before events are ranked row by row.  A store for any
    ``l_rank`` then takes a prefix sum of the counts and one comparison per
    event, and an ``l_alpha`` store compares the beliefs themselves.
    """

    def __init__(
        self, traces: Sequence["FilterTrace"], windows: DayWindows, counts: SlotCounts
    ) -> None:
        self.traces = traces
        self.windows = windows
        self.counts = counts

    @cached_property
    def _ranked(self) -> tuple[np.ndarray, ...]:
        n_states = len(self.counts.at_rank)
        pre = np.concatenate([np.empty((0, n_states)), *(trace.pre for trace in self.traces)])
        ids, finals, offset = [], [], 0
        for trace in self.traces:
            index = trace.event_index
            lo = int(index[0]) if len(index) else 0
            if (np.diff(index) != 1).any():
                raise ValueError(
                    f"a training trace's {len(index)} events from grid event {lo} are not one run"
                )
            entries = self.windows.run(lo, lo + len(index))
            ids.append(entries.ids)
            finals.append(entries.finals + offset)
            offset += len(index)
        return pre, _ranks(pre), np.concatenate([_NONE, *ids]), np.concatenate([_NONE, *finals])

    def store(self, params: SeqParams) -> SequenceStore:
        pre, pre_ranks, ids, finals = self._ranked
        n_states = pre.shape[1]
        slot_counts = self.counts.selected(params)
        # Each stored subsequence is credited to the states its final event's
        # "just before" belief selects.
        if params.criterion == "rank":
            chosen = (pre_ranks <= params.l_rank)[finals]
        else:
            chosen = (pre >= params.l_alpha)[finals]
        credited = chosen.any(axis=1)
        stored, rows = np.unique(ids[credited], return_inverse=True)
        entry_at, state = np.nonzero(chosen[credited])
        counts = np.bincount(rows[entry_at] * n_states + state, minlength=len(stored) * n_states)
        counts = counts.astype(np.int64, copy=False).reshape(len(stored), n_states)
        return SequenceStore(slot_counts, stored, self.windows.keys, counts)


def store_sequences(
    beliefs: TrainingBeliefs, target_device: str, params: SeqParams
) -> SequenceStore:
    """The sequence store of a training set's belief traces, over as many
    states as their beliefs hold; the stores of every selection value share
    their windows and their ranking."""
    beliefs.windows.check(target_device, params)
    return beliefs.store(params)


def build_timed_store(
    windows: DayWindows,
    target_device: str,
    params: SeqParams,
    without_day: int | None = None,
) -> TimedSequenceStore:
    """Store target-related sequences with their completion times of day:
    those of the whole stream of ``windows``, or of the stream without
    ``without_day``, merged from windows enumerated before."""
    windows.check(target_device, params)
    return windows.timed_store(without_day)
