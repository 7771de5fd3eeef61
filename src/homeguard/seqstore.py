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
and ``l_max``, never on beliefs.  ``DayWindows`` therefore enumerates each
window of a stream of days once, interning every stored subsequence to an
integer id, and keeps (id, final event) arrays; ``train`` and every fold of
``evaluate`` build their stores from the same day windows.
``TrainingBeliefs`` joins a training set's belief traces to those arrays and
ranks every belief once, so the store for each selection value is one
comparison and one count with numpy.  A trace that holds only part of its day
(an excluded calendar date cuts a day that does not start at midnight) has
windows of its own events, enumerated for it alone.  The time-of-day store is
merged from the same arrays; only windows that reach back across midnight
into a left-out day are enumerated again.

The time-of-day store counts matches through an index built on first use:
every stored time replaced by its rank among the distinct stored times and
coded with its sequence's key, in one sorted integer array, so each count is
a difference of two binary searches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import TYPE_CHECKING, Sequence

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


@dataclass
class SequenceStore:
    """Counts of target-related sequences per estimated state.

    ``counts[y][i]`` is the number of stored occurrences of sequence ``y``
    credited to state ``i``; ``slot_counts[i]`` is the number of training
    slots whose entry belief selected state ``i`` under the same criterion;
    its length is the number of states.
    """

    slot_counts: np.ndarray
    counts: dict[Items, np.ndarray] = field(default_factory=dict)
    # The ids of the stored sequences and their matrix, built on first use.
    _matrix: tuple[dict[Items, int], np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def _vectors(self) -> tuple[dict[Items, int], np.ndarray]:
        if self._matrix is None:
            zeros = np.zeros(len(self.slot_counts))
            rows = np.array([*self.counts.values(), zeros], dtype=np.float64)
            matrix = np.divide(
                rows, self.slot_counts, out=np.zeros_like(rows), where=self.slot_counts > 0
            )
            self._matrix = ({items: k for k, items in enumerate(self.counts)}, matrix)
        return self._matrix

    def vectors(self) -> np.ndarray:
        """The (K + 1, S) per-state sequence probabilities: row ``k`` of the
        stored sequence with key ``k``, and a last row of zeros for every
        sequence the store lacks.  The store must not change after its first
        use."""
        return self._vectors()[1]

    def key_ids(self, candidates: Sequence[Items]) -> np.ndarray:
        """The row of ``vectors()`` of each candidate."""
        return _key_ids(self._vectors()[0], candidates)

    def to_payload(self) -> dict:
        return {
            "slot_counts": [int(x) for x in self.slot_counts],
            "counts": {
                sequence_key(items): [int(x) for x in counts]
                for items, counts in sorted(self.counts.items())
            },
        }

    @classmethod
    def from_payload(cls, payload, where: str, n_states: int) -> "SequenceStore":
        """A store over ``n_states`` states from its JSON form; a fault
        raises ``ValidationError`` naming the key below ``where``."""
        keys = ("slot_counts", "counts")
        data = json_object(payload, keys, where, keys)
        store = cls(counts(data["slot_counts"], n_states, at(where, "slot_counts")))
        where_counts = at(where, "counts")
        for key, values in json_object(data["counts"], None, where_counts).items():
            store.counts[_items_from_key(key)] = counts(values, n_states, at(where_counts, key))
        return store


def _key_ids(ids: dict[Items, int], candidates: Sequence[Items]) -> np.ndarray:
    """The id of each candidate; ``len(ids)`` stands for every absent one."""
    absent = len(ids)
    return np.fromiter(
        (ids.get(items, absent) for items in candidates), dtype=np.int64, count=len(candidates)
    )


def seconds_of_day(ts: datetime) -> float:
    return ts.hour * 3600 + ts.minute * 60 + ts.second + ts.microsecond / 1e6


@dataclass(frozen=True)
class _TimeIndex:
    """The stored times of every sequence as one ascending integer array.

    Each time is replaced by its rank among the ``distinct`` stored times,
    and the time of key ``k`` is coded ``k * (len(distinct) + 1) + rank``, so
    the codes ascend by key, then by time.  The stored times of key ``k``
    below a value of rank ``r`` (the count of distinct times below it) are
    then the codes below ``k * (len(distinct) + 1) + r``.  Key ``len(ids)``
    stands for every sequence the store lacks and has no times.
    """

    ids: dict[Items, int]
    distinct: np.ndarray
    codes: np.ndarray
    starts: np.ndarray  # key k's codes are codes[starts[k]:starts[k + 1]]


@dataclass
class TimedSequenceStore:
    """Sequence occurrences indexed by time of day, for the time-based method.

    ``times[y]`` holds, ascending, the seconds-of-day at which sequence ``y``
    completed in training; ``target_total`` counts the stored target-device
    operations and is the denominator of every match ratio.  Counting goes
    through an index built on first use, so the store must not change after
    that.
    """

    times: dict[Items, list[float]] = field(default_factory=dict)
    target_total: int = 0
    _index: _TimeIndex | None = field(default=None, init=False, repr=False, compare=False)

    def _time_index(self) -> _TimeIndex:
        if self._index is None:
            stored = [np.asarray(times, dtype=np.float64) for times in self.times.values()]
            flat = np.concatenate([np.empty(0), *stored])
            distinct, ranks = np.unique(flat, return_inverse=True)
            sizes = [len(times) for times in stored]
            keys = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
            self._index = _TimeIndex(
                ids={items: k for k, items in enumerate(self.times)},
                distinct=distinct,
                codes=keys * (len(distinct) + 1) + ranks.ravel(),
                starts=np.cumsum([0, *sizes, 0]),
            )
        return self._index

    def key_ids(self, candidates: Sequence[Items]) -> np.ndarray:
        """The index key of each candidate; one key stands for all absent ones."""
        return _key_ids(self._time_index().ids, candidates)

    def counts_near(
        self, keys: np.ndarray, window: np.ndarray, tods: Sequence[float], alpha_seq: float
    ) -> np.ndarray:
        """Stored occurrences of key ``keys[j]`` within cyclic ``alpha_seq``
        seconds of ``tods[window[j]]``: exact integer counts."""
        index = self._time_index()
        first, end = index.starts[keys], index.starts[keys + 1]
        if 2 * alpha_seq >= SECONDS_PER_DAY:
            return end - first
        lo = [(tod - alpha_seq) % SECONDS_PER_DAY for tod in tods]
        hi = [(tod + alpha_seq) % SECONDS_PER_DAY for tod in tods]
        wraps = np.array([a > b for a, b in zip(lo, hi)], dtype=bool)[window]
        base = keys * (len(index.distinct) + 1)
        # Codes of stored times below lo, and of those at or below hi.
        below_lo = np.searchsorted(
            index.codes, base + np.searchsorted(index.distinct, lo, side="left")[window]
        )
        upto_hi = np.searchsorted(
            index.codes, base + np.searchsorted(index.distinct, hi, side="right")[window]
        )
        return np.where(wraps, (end - below_lo) + (upto_hi - first), upto_hi - below_lo)

    def to_payload(self) -> dict:
        return {
            "target_total": self.target_total,
            "times": {
                sequence_key(items): list(times) for items, times in sorted(self.times.items())
            },
        }

    @classmethod
    def from_payload(cls, payload, where: str = "") -> "TimedSequenceStore":
        """A store from its JSON form; a count or a time list the index
        could not read raises ``ValidationError`` naming the key below
        ``where``."""
        keys = ("target_total", "times")
        data = json_object(payload, keys, where, keys)
        total = typed(data["target_total"], int, at(where, "target_total"))
        if total < 0:
            raise ValidationError("must be non-negative", field=at(where, "target_total"))
        times = {}
        where_times = at(where, "times")
        for key, stored in json_object(data["times"], None, where_times).items():
            if not (
                isinstance(stored, list)
                and all(type(x) in (int, float) and 0 <= x < SECONDS_PER_DAY for x in stored)
                and all(a <= b for a, b in zip(stored, stored[1:]))
            ):
                raise ValidationError("need ascending seconds of day", field=at(where_times, key))
            times[_items_from_key(key)] = [float(x) for x in stored]
        return cls(times=times, target_total=total)


# ---------------------------------------------------------------------------
# Building the stores: windows enumerated once, beliefs ranked once


def _cuts(params: SeqParams) -> tuple[float, int, int]:
    """The parameters a window and its subsequences depend on."""
    return (params.t_seq, params.w_max, params.l_max)


@dataclass(frozen=True)
class WindowEntries:
    """The stored subsequences of a list of windows, window after window.

    Entry ``j`` is subsequence ``ids[j]`` (an id of the ``DayWindows`` that
    enumerated it) completed by the event at stream position ``finals[j]``.
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
    """The target windows of a grid's stream of whole days, each enumerated
    once.

    ``days`` holds each day's events in time order, as ``SlotGrid.days``
    splits them, and ``event_at`` the grid's clock of those events.
    ``train`` builds one over its grid and every fold of an ``evaluate`` run
    shares one, so both take their stores from the same windows.  Every
    target-related subsequence gets one integer id (``items[id]``), shared by
    all the windows this object enumerates.  Two kinds of windows are kept,
    each enumerated on first use:

    - ``day(d)``: the windows of day ``d`` alone, as a training trace of the
      whole day sees them.  They never depend on which days are kept.
      ``windows_of`` gives those of a trace kept in part, the same in every
      fold that keeps that part, keyed by its events.
    - ``timed_store(without_day)``: the timed store's windows run over the
      whole stream, across midnight; one that starts inside its own day is
      that day's window.  A window that reaches into the left-out day holds
      other events without it (and ``w_max`` cuts another set), so only
      those are enumerated again.
    """

    def __init__(self, grid: SlotGrid, target_device: str, params: SeqParams) -> None:
        self.events = grid.events
        self.event_at = grid.event_at
        self.days = grid.days()
        # Day d's events are events[offsets[d]:offsets[d + 1]].
        self.offsets = np.cumsum([0] + [len(day) for day in self.days])
        self.target_device = target_device
        self.cuts = _cuts(params)
        self.items: list[Items] = []
        self._ids: dict[Items, int] = {}
        self._day_entries: dict[int, WindowEntries] = {}
        self._part_entries: dict[tuple[EventRecord, ...], WindowEntries] = {}
        self._stream: _StreamWindows | None = None

    def check(self, target_device: str, params: SeqParams) -> None:
        if target_device != self.target_device or _cuts(params) != self.cuts:
            raise ValidationError(
                "windows were enumerated for another target device, t_seq, w_max or l_max"
            )

    def day_at(self, d: int) -> np.ndarray:
        """The instants of day ``d``'s events."""
        return self.event_at[self.offsets[d] : self.offsets[d + 1]]

    def _window(
        self, pairs: Sequence[Pair], positions: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ids and final positions of the stored subsequences of the
        window over ``positions``."""
        target, known = self.target_device, self._ids
        ids: list[int] = []
        finals: list[int] = []
        distinct = _enumerate_distinct([pairs[p] for p in positions], self.cuts[2])
        for items, final in distinct.items():
            sid = known.get(items)
            if sid is None:
                related = any(device == target for device, _ in items)
                sid = known[items] = len(self.items) if related else -1
                if related:
                    self.items.append(items)
            if sid >= 0:
                ids.append(sid)
                finals.append(positions[final])
        return np.array(ids, dtype=np.intp), np.array(finals, dtype=np.intp)

    def _span(self, end: int, start: int) -> range:
        """Positions of the window ending at ``end``: from ``start`` on, the
        last ``w_max`` events."""
        return range(max(start, end + 1 - self.cuts[1]), end + 1)

    def _windows_of(self, events: Sequence[EventRecord], at: np.ndarray) -> WindowEntries:
        pairs = [event.pair for event in events]
        ends, starts = target_windows(events, at, self.target_device, self.cuts[0])
        return _entries(
            [self._window(pairs, self._span(*op)) for op in zip(ends.tolist(), starts.tolist())]
        )

    def windows_of(self, events: Sequence[EventRecord], at: np.ndarray) -> WindowEntries:
        """The windows of ``events`` alone, whose instants ``at`` holds
        (positions count ``events``), enumerated on first use of these
        events."""
        key = tuple(events)
        entries = self._part_entries.get(key)
        if entries is None:
            entries = self._part_entries[key] = self._windows_of(events, at)
        return entries

    def day(self, d: int) -> WindowEntries:
        """Day ``d``'s own windows, enumerated on first use."""
        entries = self._day_entries.get(d)
        if entries is None:
            entries = self._day_entries[d] = self._windows_of(self.days[d], self.day_at(d))
        return entries

    def _stream_windows(self) -> _StreamWindows:
        if self._stream is None:
            events = self.events
            pairs = [event.pair for event in events]
            ends, reach = target_windows(events, self.event_at, self.target_device, self.cuts[0])
            day_first = np.searchsorted(ends, self.offsets[:-1]).tolist()
            windows = []
            for d, (lo, first) in enumerate(zip(self.offsets[:-1].tolist(), day_first)):
                own = self.day(d)
                for w in range(len(own.bounds) - 1):
                    op = first + w
                    if reach[op] >= lo:  # starts inside its day
                        a, b = own.bounds[w], own.bounds[w + 1]
                        windows.append((own.ids[a:b], own.finals[a:b] + lo))
                    else:
                        windows.append(self._window(pairs, self._span(ends[op], reach[op])))
            self._stream = _StreamWindows(
                pairs=pairs,
                ends=ends,
                reach=reach,
                entries=_entries(windows),
                tod=np.array([seconds_of_day(e.timestamp) for e in events], dtype=np.float64),
            )
        return self._stream

    def timed_store(self, without_day: int | None = None) -> "TimedSequenceStore":
        """The timed store of the stream, or of the stream without one day."""
        stream = self._stream_windows()
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
        store = TimedSequenceStore(target_total=n_targets)
        if len(ids):
            keys, rows = _first_seen(ids)
            tod = stream.tod[finals]
            order = np.lexsort((tod, rows))
            flat = tod[order].tolist()
            cuts = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=len(keys))))).tolist()
            store.times = {
                self.items[key]: flat[a:b] for key, a, b in zip(keys, cuts, cuts[1:])
            }
        return store


_NONE = np.empty(0, dtype=np.intp)


def _entries(windows: Sequence[tuple[np.ndarray, np.ndarray]]) -> WindowEntries:
    """One ``WindowEntries`` from the (ids, finals) of each window."""
    return WindowEntries(
        np.concatenate([_NONE, *(ids for ids, _ in windows)]),
        np.concatenate([_NONE, *(finals for _, finals in windows)]),
        np.cumsum([0, *(len(ids) for ids, _ in windows)]),
    )


def _first_seen(ids: np.ndarray) -> tuple[list[int], np.ndarray]:
    """The distinct ``ids`` in order of first appearance (the key order of a
    dict filled entry by entry), and each entry's index into that list."""
    distinct, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    order = np.argsort(first)
    row_of = np.empty_like(order)
    row_of[order] = np.arange(len(order))
    return distinct[order].tolist(), row_of[inverse.ravel()]


def _ranks(beliefs: np.ndarray) -> np.ndarray:
    """Each state's rank in each row of a (n, S) belief matrix: one plus the
    number of states with a strictly greater belief, so ties share a rank."""
    ranks = np.ones(beliefs.shape, dtype=np.int16)
    for column in beliefs.T:
        ranks += column[:, None] > beliefs
    return ranks


class TrainingBeliefs:
    """The belief traces of a training set, joined to their windows.

    Trace ``i`` holds every event of day ``days[i]`` of ``windows`` and
    shares that day's windows; where ``days[i]`` is None (a day kept in
    part, say) its windows are those of its own events, which ``windows``
    enumerates once for every fold that keeps that part.  On first
    use every belief is ranked once: the slot entries into a count of rows
    per (rank, state), the instants just before events row by row.  A store
    for any ``l_rank`` then takes a prefix sum and one comparison per event,
    and an ``l_alpha`` store compares the beliefs themselves.
    """

    def __init__(
        self,
        traces: Sequence["FilterTrace"],
        windows: DayWindows,
        days: Sequence[int | None],
    ) -> None:
        if len(days) != len(traces):
            raise ValueError(f"{len(traces)} training traces but {len(days)} days")
        self.traces = traces
        self.windows = windows
        self.days = days
        self._ranked: tuple[np.ndarray, ...] | None = None

    def _rank(self) -> tuple[np.ndarray, ...]:
        if self._ranked is None:
            n_states = self.traces[0].entry.shape[1]
            # at_rank[r - 1, i]: slot entries at which state i ranks r.  Day
            # by day, so no copy of the entry beliefs is made.
            at_rank = np.zeros(n_states * n_states, dtype=np.int64)
            states = np.arange(n_states)
            for trace in self.traces:
                if len(trace.entry):
                    cells = (_ranks(trace.entry).astype(np.intp) - 1) * n_states + states
                    at_rank += np.bincount(cells.ravel(), minlength=n_states * n_states)
            pre = np.concatenate([np.empty((0, n_states)), *(trace.pre for trace in self.traces)])
            ids, finals, offset = [], [], 0
            for trace, day in zip(self.traces, self.days):
                if day is None:
                    entries = self.windows.windows_of(trace.events, trace.event_at)
                elif len(trace.events) == len(self.windows.days[day]):
                    entries = self.windows.day(day)
                else:
                    raise ValueError(
                        f"a trace of {len(trace.events)} events joined to day {day},"
                        f" which has {len(self.windows.days[day])}"
                    )
                ids.append(entries.ids)
                finals.append(entries.finals + offset)
                offset += len(trace.events)
            self._ranked = (
                at_rank.reshape(n_states, n_states),
                pre,
                _ranks(pre),
                np.concatenate([_NONE, *ids]),
                np.concatenate([_NONE, *finals]),
            )
        return self._ranked

    def store(self, params: SeqParams) -> SequenceStore:
        at_rank, pre, pre_ranks, ids, finals = self._rank()
        n_states = len(at_rank)
        # Each stored subsequence is credited to the states its final event's
        # "just before" belief selects.
        if params.criterion == "rank":
            store = SequenceStore(at_rank[: params.l_rank].sum(axis=0))
            chosen = (pre_ranks <= params.l_rank)[finals]
        else:
            store = SequenceStore(np.zeros(n_states, dtype=np.int64))
            for trace in self.traces:
                if len(trace.entry):
                    store.slot_counts += (trace.entry >= params.l_alpha).sum(axis=0)
            chosen = (pre >= params.l_alpha)[finals]
        credited = chosen.any(axis=1)
        if credited.any():
            keys, rows = _first_seen(ids[credited])
            entry_at, state = np.nonzero(chosen[credited])
            counts = np.bincount(
                rows[entry_at] * n_states + state, minlength=len(keys) * n_states
            ).astype(np.int64, copy=False)
            items = self.windows.items
            store.counts = dict(
                zip([items[key] for key in keys], counts.reshape(len(keys), n_states))
            )
        return store


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
