"""State transition model, operation probabilities, and the forward filter.

Transitions are estimated per slot-of-day: the chain of end-of-slot states
contributes one (previous state, next state) pair per slot boundary, and the
estimate for slot-of-day ``k`` pools the pairs arriving at slots-of-day within
an adaptive window ``k - T_Z .. k + T_Z`` (wrapping at midnight).  ``T_Z`` is
chosen per ``k`` as the smallest halfwidth such that every *learnable* state
(one the training data realizes at all) occurs at least once inside the
window, capped at ``t_z_max``.  That halfwidth has a closed form: the largest,
over learnable states, of the cyclic distance from ``k`` to the nearest
slot-of-day where the state occurs.

Fits count over the integer label arrays that ``labeling.label_states``
returns (``LabelArrays``); a leave-one-day-out fold selects its slots with a
mask instead of relabeling or refitting from scratch.

The filter maintains a belief over the state alphabet, uniform at a
stream's first slot: a matrix product and renormalization at every slot
boundary, a componentwise multiply by the operation probabilities at every
observed event.  Degenerate updates (all probability mass annihilated)
reset the belief to uniform so detection can always proceed.  Streams run
in lockstep, under M models at once: an (M, D, S) belief tensor advanced by
one batched matrix product per slot, D days that share their slots-of-day
or a group of one stream; an event updates its stream's row under every
model at once.  The whole grid that ``detect`` reads (``run_filter``) runs
its own days in lockstep as stacked (1, S) rows, each multiplied bitwise as
a lone row; as a day starts where the day before ends, its days re-run
from a guess until the beliefs carried between them stop changing.  A
training stream's slot entries are read only as counts: the pass adds them
to its model's ``seqstore.SlotCounts`` a block of slots at a time, with one
``np.bincount`` keyed by model, and its trace keeps none.

A stream is an int array of positions in one ``ingest.SlotGrid``: a whole
grid, a day of it, or the kept slots of a day.  The filter reads each slot's
slot-of-day and events from its position.  A ``FilterTrace`` holds arrays
only and copies none of the grid: the belief entering each slot (unless
the stream was counted), the grid positions of the stream's events, the
beliefs just before and just after each of them, in order, and where each
slot's events begin.

A ``TrainedModel`` is one JSON document.  Its parameter sections, its
vocabulary and its stores are read by the rules of ``payload``; the
transition rows and operation vectors are checked in one numpy pass each.
Every per-state row is indexed by ``labeling.ALPHABET``, which the document
does not list.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ModelError, VocabularyError
from .ingest import SLOTS_PER_DAY, SlotGrid
from .labeling import ALPHABET, LabelArrays, LabelingParams
from .payload import counts, faults_as, json_object, load_json, record, to_payload
from .seqstore import (
    DayWindows,
    SeqParams,
    SequenceIds,
    SequenceStore,
    SlotCounts,
    TimedSequenceStore,
    TrainingBeliefs,
    build_timed_store,
    count_slots,
    store_sequences,
)
from .vocab import VOCABULARY, Vocabulary

FORMAT_VERSION = 3

# Slots whose entry beliefs a lockstep pass holds at a time before it copies
# them to the traces that keep them and reduces them to slot counts.
_BLOCK = 64


def uniform_belief(n_states: int) -> np.ndarray:
    return np.full(n_states, 1.0 / n_states)


@dataclass
class ModelParams:
    t_z_max: int = 720

    def __post_init__(self) -> None:
        if not 0 <= self.t_z_max <= 720:
            raise ModelError(f"t_z_max must be in [0, 720], got {self.t_z_max}")


@dataclass
class TransitionTensor:
    """Row-stochastic transition matrices per slot-of-day.

    ``probs[k-1][i][j]`` is the probability of moving from state ``i`` to
    state ``j`` when entering slot-of-day ``k``.  Rows without any observed
    outgoing transition are all-zero.  ``t_z[k-1]`` records the realized
    window halfwidth.
    """

    probs: np.ndarray  # (1440, S, S)
    t_z: np.ndarray  # (1440,) int

    @property
    def n_states(self) -> int:
        return self.probs.shape[1]

    def matrix(self, k: int) -> np.ndarray:
        return self.probs[k - 1]


@dataclass
class OperationTable:
    """Per-state probability of observing each registered operation.

    ``probs[pair][i]`` = share of the slots carrying state ``i`` in which the
    operation occurred while that state was in force.  Operations absent from
    the training data map to an all-ones vector so that observing them leaves
    the belief untouched.
    """

    probs: dict[tuple[str, str], np.ndarray] = field(default_factory=dict)

    def vector(self, pair: tuple[str, str]) -> np.ndarray:
        vec = self.probs.get(pair)
        if vec is None:
            raise VocabularyError(f"operation {pair!r} is not registered in the model")
        return vec


def window_halfwidths(presence: np.ndarray, t_z_max: int) -> np.ndarray:
    """``T_Z`` per slot-of-day from the (1440, S) presence counts.

    The window ``k - h .. k + h`` holds state ``i`` exactly when the cyclic
    distance from ``k`` to the nearest slot-of-day where ``i`` occurs is at
    most ``h``, so the smallest window holding every learnable state has the
    largest of those distances as its halfwidth.  States absent from the
    training data are not learnable: they keep their zero rows whatever the
    window, and letting them veto every window would force the cap
    everywhere and erase the time-of-day structure of the others.
    """
    learnable = presence.sum(axis=0) > 0
    if not learnable.any():
        return np.zeros(SLOTS_PER_DAY, dtype=np.int64)
    present = np.tile(presence[:, learnable] > 0, (3, 1))
    index = np.arange(3 * SLOTS_PER_DAY)[:, None]
    far = 3 * SLOTS_PER_DAY
    last = np.maximum.accumulate(np.where(present, index, -far), axis=0)
    following = np.minimum.accumulate(np.where(present, index, 2 * far)[::-1], axis=0)[::-1]
    middle = slice(SLOTS_PER_DAY, 2 * SLOTS_PER_DAY)
    nearest = np.minimum(index[middle] - last[middle], following[middle] - index[middle])
    return np.minimum(nearest.max(axis=1), t_z_max).astype(np.int64)


def fit_transitions(arrays: LabelArrays, t_z_max: int = 720) -> TransitionTensor:
    """Estimate the transition tensor from the kept slots of a labeled stream.

    Callers must have dropped the slots of excluded days already, from the
    labels' ``keep``; gaps in the ``t`` sequence simply contribute no
    transition pairs.
    """
    keep = arrays.keep
    if not keep.any():
        raise ModelError("no labeled slots to fit transitions on")

    n_states = len(ALPHABET)
    k0 = arrays.k0.astype(np.intp)
    state = arrays.state.astype(np.intp)
    presence = np.bincount(
        k0[keep] * n_states + state[keep], minlength=SLOTS_PER_DAY * n_states
    ).reshape(SLOTS_PER_DAY, n_states)
    src = np.flatnonzero(keep & (arrays.succ >= 0))
    dst = arrays.succ[src]
    both = keep[dst]
    src, dst = src[both], dst[both]
    # The pair is pooled by the slot-of-day it arrives at, counted in the row
    # after it, so that the prefix sums below start from a row of zeros.
    pairs_ps = np.bincount(
        ((k0[dst] + 1) * n_states + state[src]) * n_states + state[dst],
        minlength=(SLOTS_PER_DAY + 1) * n_states * n_states,
    ).reshape(SLOTS_PER_DAY + 1, n_states, n_states)

    t_z = window_halfwidths(presence, t_z_max)
    # One day's prefix sums plus whole laps of the day give O(1) circular
    # window sums, windows up to +-720 included (the antipodal slot is counted
    # twice then, exactly as a literal sum over 1441 modular indices would).
    np.cumsum(pairs_ps, axis=0, out=pairs_ps)
    centers = np.arange(SLOTS_PER_DAY)
    laps_hi, hi = np.divmod(centers + t_z + 1, SLOTS_PER_DAY)
    laps_lo, lo = np.divmod(centers - t_z, SLOTS_PER_DAY)
    windows = pairs_ps[hi]
    windows -= pairs_ps[lo]
    windows += (laps_hi - laps_lo)[:, None, None] * pairs_ps[SLOTS_PER_DAY]
    windows = windows.astype(np.float64)
    row_sums = windows.sum(axis=2, keepdims=True)
    # A row of counts that sums to 0 is all zeros already.
    probs = np.divide(windows, row_sums, out=windows, where=row_sums > 0)
    return TransitionTensor(probs=probs, t_z=t_z)


def fit_operations(arrays: LabelArrays, vocabulary: Vocabulary | None = None) -> OperationTable:
    """Estimate per-state operation probabilities.

    The denominator for state ``i`` counts the slots during which ``i`` was in
    force at some instant; the numerator counts the slots in which the
    operation occurred at such an instant (several repeats within one slot
    count once, keeping every entry inside [0, 1]).
    """
    vocabulary = vocabulary or Vocabulary()
    n_states = len(ALPHABET)
    keep = arrays.keep
    n_pairs = len(arrays.pairs)
    kept = keep[arrays.event_pos]
    pos, pair = arrays.event_pos[kept], arrays.event_pair[kept]
    state = arrays.event_state[kept].astype(np.intp)
    # Each slot counts once per state in force at its start or at one of its
    # events, and once per (operation, state) of its events.
    extra = state != arrays.entry[pos]
    extra_states = np.unique(pos[extra] * n_states + state[extra]) % n_states
    denom = np.bincount(arrays.entry[keep], minlength=n_states) + np.bincount(
        extra_states, minlength=n_states
    )
    numer = np.bincount(
        np.unique((pos * n_pairs + pair) * n_states + state) % (n_pairs * n_states),
        minlength=n_pairs * n_states,
    ).reshape(n_pairs, n_states)
    rows = {arrays.pairs[p]: numer[p] for p in np.flatnonzero(numer.sum(axis=1))}

    table = OperationTable()
    for pair in sorted(set(vocabulary.all_pairs()) | set(rows)):
        counts = rows.get(pair)
        if counts is None:
            # Never observed in training: neutral element for the filter.
            table.probs[pair] = np.ones(n_states)
        else:
            table.probs[pair] = np.divide(
                counts.astype(np.float64),
                denom,
                out=np.zeros(n_states),
                where=denom > 0,
            )
    return table


def _normalize(values: np.ndarray, uniform: np.ndarray) -> np.ndarray:
    """Divide each belief of ``values`` (along its last axis) by its sum, in
    place, and return ``values``; a belief whose mass vanished resets to
    ``uniform``."""
    totals = np.add.reduce(values, -1, None, None, True)
    if min(totals.ravel().tolist()) > 0.0:
        values /= totals
    else:
        dead = totals[..., 0] <= 0.0
        values[~dead] /= totals[~dead]
        values[dead] = uniform
    return values


@dataclass
class FilterTrace:
    """Belief trajectory over a slot stream.

    ``entry[p]`` is the belief right after entering the stream's slot ``p``
    (for the first slot this is the uniform belief: the stream starts there,
    no transition is applied).  ``event_index`` holds the grid positions of
    the stream's events, in order; ``pre[i]`` and ``post[i]`` are the
    beliefs just before and just after the update by grid event
    ``event_index[i]``.  The events of slot ``p`` are
    ``first[p]:first[p + 1]``.

    ``entry`` is None for a stream whose slot entries were counted into a
    ``SlotCounts`` instead (a training stream): only its events' beliefs
    are kept, which is what the sequence store reads of them.
    """

    entry: np.ndarray | None  # (n_slots, S)
    event_index: np.ndarray  # (n_events,) int
    pre: np.ndarray  # (n_events, S)
    post: np.ndarray  # (n_events, S)
    first: np.ndarray  # (n_slots + 1,) int


class _EventVectors(dict):
    """Per operation, its (M, S) vectors under M models, one row per model,
    the mask of the models for which it is all ones (None when there is
    none), and whether it is all ones for every model; looked up on first
    use.  An all-ones vector marks an operation the model never saw:
    observing it leaves the belief untouched."""

    def __init__(self, tables: Sequence[OperationTable]) -> None:
        super().__init__()
        self.tables = tables

    def __missing__(self, pair: tuple[str, str]) -> tuple[np.ndarray, np.ndarray | None, bool]:
        vectors = np.array([table.vector(pair) for table in self.tables])
        neutral = (vectors == 1.0).all(axis=1)
        found = self[pair] = vectors, (neutral if neutral.any() else None), bool(neutral.all())
        return found


def _observe(
    now: np.ndarray,
    lo: int,
    hi: int,
    pairs: Sequence[tuple[str, str]],
    vectors: _EventVectors,
    uniform: np.ndarray,
    pre: np.ndarray,
    post: np.ndarray,
) -> np.ndarray:
    """The (M, S) beliefs ``now`` of one stream under M models after its
    events ``lo:hi``, whose operations are ``pairs[lo:hi]``, one at a time;
    event ``i``'s beliefs just before and just after go to ``pre[:, i]`` and
    ``post[:, i]``.

    An event multiplies each model's belief by its operation's vector, sums
    and divides; a belief whose mass vanished resets to uniform, and the
    models for which the vector is all ones keep their belief bitwise (an
    event that is all ones for every model is skipped).
    """
    for i in range(lo, hi):
        pre[:, i] = now
        vec, neutral, all_neutral = vectors[pairs[i]]
        if all_neutral:
            post[:, i] = now
            continue
        now = _normalize(np.multiply(vec, now, out=post[:, i]), uniform)
        if neutral is not None:
            now[neutral] = pre[:, i][neutral]
    return now


def _stream_events(grid: SlotGrid, stream: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each slot's events begin among the stream's events (the
    ``first`` of its trace), and the grid positions of those events."""
    lo = grid.first[stream]
    counts = grid.first[stream + 1] - lo
    first = np.zeros(len(stream) + 1, dtype=np.intp)
    np.cumsum(counts, out=first[1:])
    return first, np.arange(first[-1]) + np.repeat(lo - first[:-1], counts)


def _advance(belief: np.ndarray, matrix: np.ndarray, uniform: np.ndarray) -> np.ndarray:
    """The (R, S) beliefs ``belief`` carried across a slot boundary by
    ``matrix``, each row bitwise as a lone 1-D row would be: the
    vector-matrix product, its sum and the divide, or a reset to uniform for
    a row whose mass vanished.

    The product is stacked, R (1, S) rows times one (S, S) matrix, and numpy
    runs that as one vector-matrix product per row, bitwise ``np.dot`` of the
    row alone; the batched row sums are the 1-D sums.  An (R, S) @ (S, S)
    product (or ``np.dot`` or ``einsum`` of the matrix) is a matrix-matrix
    product, whose sums round differently: its rows differ from a lone row's
    by an ulp.  ``tests/test_hsmodel.py`` pins both facts for this numpy.
    """
    return _normalize(np.matmul(belief[:, None, :], matrix)[:, 0], uniform)


def _filter_alone(grid: SlotGrid, model: tuple[TransitionTensor, OperationTable]) -> FilterTrace:
    """Filter a whole grid under one model, bitwise as a pass over it one
    slot at a time, with its days in lockstep.

    The grid splits into chunks of ``min(SLOTS_PER_DAY, n)`` of its ``n``
    slots from slot 0, the last of which may be shorter.  Slot 0 is
    slot-of-day 1, so every chunk has the same slot-of-day at the same
    offset, and one ``_advance`` per offset carries all running chunks
    across their slot boundaries, each as its own 1-D row; an event updates
    its chunk's row as a (1, S) belief under one model.

    A chunk's start belief is the end of the chunk before it, carried into
    its first slot, so the chunks run in rounds until those stop changing.
    Every chunk starts from uniform: chunk 0 exactly, the others as a guess.
    After a round, the chunks whose carried-in belief changed, bitwise, run
    again from the new one.  The filter forgets its start: a run restarted
    from another belief meets the old trajectory bit for bit within hours
    of a real stream and stays on it, so a rerun chunk stops once its belief
    at a slot boundary equals, bitwise, the one its last run wrote there,
    and real streams settle in two rounds.  When no carried-in belief
    changes, chunk d's last run started from the final end of chunk d - 1
    and chunk 0 from uniform, so every chunk is exact.  Chunk d can change
    no more after round d + 1, so there are at most D rounds.  That worst
    case (restarts that never meet, as under identity transitions) takes
    D x ``SLOTS_PER_DAY`` lockstep steps, as many as a slot-at-a-time pass,
    and reapplies a chunk's events in each round that runs it.  Every run
    writes in place into the trace's ``entry``, ``pre`` and ``post``.
    """
    transitions, operations = model
    n_slots, n_states = len(grid), transitions.n_states
    first, event_index = _stream_events(grid, np.arange(n_slots))
    entry = np.empty((n_slots, n_states))
    pre = np.empty((1, len(event_index), n_states))
    post = np.empty((1, len(event_index), n_states))
    trace = FilterTrace(entry, event_index, pre[0], post[0], first)
    if not n_slots:
        return trace
    length = min(SLOTS_PER_DAY, n_slots)
    begins = np.arange(0, n_slots, length)
    n_chunks = len(begins)
    # The last chunk holds ``short`` slots, and runs no further.
    short = n_slots - int(begins[-1])
    uniform = uniform_belief(n_states)
    # Indexed by offset, the transitions into slot-of-day offset + 1; list
    # indexing is cheaper than array indexing.
    matrices = list(transitions.probs)
    # The chunks with events at each offset.
    chunks_at: dict[int, list[int]] = {}
    for pos in np.flatnonzero(np.diff(first)).tolist():
        chunks_at.setdefault(pos % length, []).append(pos // length)
    vectors = _EventVectors([operations])
    pairs, starts = [grid.events[i].pair for i in event_index.tolist()], first.tolist()

    carried = np.tile(uniform, (n_chunks, 1))
    ends = np.empty((n_chunks, n_states))
    rows, rerun = np.arange(n_chunks), False
    while len(rows):
        # The rows of one round: the chunks it runs, their beliefs, and where
        # each chunk begins in the stream.
        belief, base = carried[rows], begins[rows]
        place = {row: i for i, row in enumerate(rows.tolist())}
        for j in range(length):
            if j:
                if j == short and rows[-1] == n_chunks - 1:
                    rows, belief, base = rows[:-1], belief[:-1], base[:-1]
                belief = _advance(belief, matrices[j], uniform)
                if rerun:
                    # Compared as bit patterns, so that 0.0 and -0.0 differ.
                    old = entry[base + j]
                    moved = (belief.view(np.uint64) != old.view(np.uint64)).any(axis=1)
                    if not moved.all():
                        rows, belief, base = rows[moved], belief[moved], base[moved]
                        if not len(rows):
                            break
                        place = {row: i for i, row in enumerate(rows.tolist())}
            entry[base + j] = belief
            for row in chunks_at.get(j, ()):
                i = place.get(row)
                if i is None:
                    continue
                pos = row * length + j
                belief[i : i + 1] = _observe(
                    belief[i : i + 1], starts[pos], starts[pos + 1], pairs, vectors, uniform, pre,
                    post,
                )
        ends[rows] = belief
        if n_chunks == 1:
            break
        # Each chunk after the first is carried into by the end of the one
        # before it; the chunks whose carried-in belief changed run again.
        into = _advance(ends[:-1], matrices[0], uniform)
        changed = (into.view(np.uint64) != carried[1:].view(np.uint64)).any(axis=1)
        rows, rerun = np.flatnonzero(changed) + 1, True
        carried[rows] = into[changed]
    return trace


def _lockstep(
    grid: SlotGrid,
    streams: Sequence[np.ndarray],
    models: Sequence[tuple[TransitionTensor, OperationTable]],
    keep: Sequence[Sequence[bool]],
    counted: Sequence[Sequence[bool]],
    counts: Sequence[SlotCounts | None],
) -> list[list[FilterTrace]]:
    """Filter streams of equal length whose slots share their slot-of-day,
    under every one of ``models``, from uniform; ``traces[m][d]`` follows
    stream ``d`` under model ``m``.

    Row ``(m, d)`` of the (M, D, S) belief tensor follows stream ``d`` under
    model ``m``.  One batched ``np.matmul`` by the M models' (M, S, S)
    matrices, stacked per step, advances every row across a slot boundary.
    With two or more streams its products do not depend on their number, so
    each model's rows come out bitwise as in any other group.  A lone stream
    (D = 1) is a vector-matrix product per model, bitwise ``_advance``'s,
    as ``tests/test_hsmodel.py`` pins; a lone stream's gaps do not matter,
    as every slot's slot-of-day is read from its own position.  An event of
    stream ``d`` updates row ``d`` under every model at once: a multiply,
    the row sums and a divide on an (M, S) matrix.  Each trace's ``pre`` and
    ``post`` are views of one (M, n_events, S) array per stream.

    The beliefs entering each slot go to a state-major block of ``_BLOCK``
    slots, reused, before the slot's events.  A full block, and the last
    one, is copied to the ``entry`` of each row ``(m, d)`` that ``keep[m][d]``
    marks, a view of one array, and added to ``counts[m]`` for each row that
    ``counted[m][d]`` marks, by one ``seqstore.count_slots`` call.  The other
    rows' traces keep no ``entry`` (None), so a pass allocates slot entries
    for the rows read again only.
    """
    n_models, n_rows = len(models), len(streams)
    n_slots, n_states = len(streams[0]), models[0][0].n_states
    # The grid positions of row d's events, and where each of its slots'
    # events begins among them.
    first = np.zeros((n_rows, n_slots + 1), dtype=np.intp)
    event_index: list[np.ndarray] = []
    rows_at: dict[int, list[int]] = {}
    for row, stream in enumerate(streams):
        first[row], row_index = _stream_events(grid, stream)
        event_index.append(row_index)
        for pos in np.flatnonzero(np.diff(first[row])).tolist():
            rows_at.setdefault(pos, []).append(row)

    tensors = [transitions.probs for transitions, _ in models]
    vectors = _EventVectors([operations for _, operations in models])
    uniform = uniform_belief(n_states)
    belief = np.tile(uniform, (n_models, n_rows, 1))
    # The rows that keep their entries, counted m * D + d.  Stream-major, so
    # each trace's beliefs are contiguous for a judged operation's read.
    kept = np.flatnonzero(np.ravel(keep))
    entry = np.empty((len(kept), n_slots, n_states))
    # The model whose counts each row adds to, n_models for none.
    owner = np.where(np.ravel(counted), np.arange(n_models).repeat(n_rows), n_models)
    counting = bool(np.ravel(counted).any())
    size = min(_BLOCK, n_slots)
    block = np.empty((n_states, size, n_models, n_rows))
    n_events = first[:, -1].tolist()
    pre = [np.empty((n_models, n, n_states)) for n in n_events]
    post = [np.empty((n_models, n, n_states)) for n in n_events]
    starts = first.tolist()
    events = grid.events
    pairs = [[events[i].pair for i in row_index.tolist()] for row_index in event_index]
    for pos, k in enumerate((streams[0] % SLOTS_PER_DAY + 1).tolist()):
        if pos:
            matrices = np.array([probs[k - 1] for probs in tensors])
            belief = _normalize(np.matmul(belief, matrices), uniform)
        j = pos % size
        block[:, j] = belief.transpose(2, 0, 1)
        for row in rows_at.get(pos, ()):
            belief[:, row] = _observe(
                belief[:, row], starts[row][pos], starts[row][pos + 1], pairs[row], vectors,
                uniform, pre[row], post[row],
            )
        if j == size - 1 or pos == n_slots - 1:
            filled = block[:, : j + 1].reshape(n_states, j + 1, n_models * n_rows)
            if len(kept):
                entry[:, pos - j : pos + 1] = filled[:, :, kept].transpose(2, 1, 0)
            if counting:
                count_slots(counts, owner, filled)
    entries = dict(zip(kept.tolist(), entry))
    return [
        [
            FilterTrace(
                entry=entries.get(m * n_rows + row), event_index=event_index[row],
                pre=pre[row][m], post=post[row][m], first=first[row],
            )
            for row in range(n_rows)
        ]
        for m in range(n_models)
    ]


def filter_models(
    grid: SlotGrid,
    streams: Sequence[np.ndarray],
    models: Sequence[tuple[TransitionTensor, OperationTable]],
    wanted: Sequence[Iterable[int]],
    counted: Sequence[tuple[Iterable[int], SlotCounts]] | None = None,
) -> list[dict[int, FilterTrace]]:
    """Filter ``streams`` (arrays of ``grid`` positions) under several
    (transitions, operations) models, each from uniform: model ``m``
    filters the streams indexed by ``wanted[m]``, and gets its traces back
    keyed by stream index.

    ``counted[m]``, when given, is a pair (stream indices, ``SlotCounts``):
    model ``m`` filters those streams too, adds the belief entering each of
    their slots to its counts, and gets their traces back without ``entry``
    (None).  A model's counted streams and its wanted ones are disjoint, and
    the counts of one call share their ``alphas`` (``ValueError`` if not).

    Contiguous streams of equal length that start at the same slot-of-day
    (the days of a dataset, say) share every transition matrix, so they run
    in one ``_lockstep`` call, under every model that wants two or more of
    them at once.  A stream that a model wants alone among its group, or
    that is empty or has gaps, runs as a group of one, in one call under
    every model that wants it so.  The lockstep product of several rows does
    not depend on their number, and a group of one multiplies as a lone row,
    so each model's traces are bitwise those of ``filter_streams`` over the
    streams it wants, and its counts those of their entries.
    """
    groups: dict[object, list[int]] = {}
    for index, stream in enumerate(streams):
        if len(stream) and stream[-1] - stream[0] == len(stream) - 1:
            key: object = (len(stream), int(stream[0]) % SLOTS_PER_DAY)
        else:
            key = index  # empty, or with gaps: a group of one
        groups.setdefault(key, []).append(index)

    wanted_sets = [set(indices) for indices in wanted]
    counted = counted or [((), None)] * len(models)
    counted_sets = [set(indices) for indices, _ in counted]
    counts = [c for _, c in counted]
    if len({c.alphas for c in counts if c is not None}) > 1:
        raise ValueError("the slot counts of one pass must share their alphas")
    traces: list[dict[int, FilterTrace]] = [{} for _ in models]
    for members in groups.values():
        # The rows of each call and the models that run it: the whole group
        # under the models that want two or more of its streams, and each
        # stream that a model wants alone under the models that do.
        calls: dict[tuple[int, ...], list[int]] = {}
        for m, (indices, counted_indices) in enumerate(zip(wanted_sets, counted_sets)):
            mine = [index for index in members if index in indices or index in counted_indices]
            if mine:
                calls.setdefault(tuple(members if len(mine) > 1 else mine), []).append(m)
        for rows, shared in calls.items():
            batch = _lockstep(
                grid, [streams[index] for index in rows], [models[m] for m in shared],
                [[index in wanted_sets[m] for index in rows] for m in shared],
                [[index in counted_sets[m] for index in rows] for m in shared],
                [counts[m] for m in shared],
            )
            for m, model_traces in zip(shared, batch):
                for index, trace in zip(rows, model_traces):
                    if index in wanted_sets[m] or index in counted_sets[m]:
                        traces[m][index] = trace
    return traces


def filter_streams(
    grid: SlotGrid,
    streams: Sequence[np.ndarray],
    transitions: TransitionTensor,
    operations: OperationTable,
    counts: SlotCounts | None = None,
) -> list[FilterTrace]:
    """Run the forward filter over each stream of ``grid`` positions, each
    from uniform.

    Streams aligned on their slots-of-day run in lockstep, and any other
    stream as a group of one (see ``filter_models``).  Traces come back in
    the order of ``streams``.  With ``counts``, every stream's slot entries
    are added to them instead, and no trace keeps its ``entry``.
    """
    every = range(len(streams))
    [traces] = filter_models(
        grid, streams, [(transitions, operations)], [every if counts is None else ()],
        None if counts is None else [(every, counts)],
    )
    return [traces[index] for index in every]


def run_filter(
    grid: SlotGrid, transitions: TransitionTensor, operations: OperationTable
) -> FilterTrace:
    """Run the forward filter over a whole grid from uniform: one stream,
    its days in lockstep and re-run until the beliefs carried between them
    stop changing (see ``_filter_alone``)."""
    return _filter_alone(grid, (transitions, operations))


@dataclass
class TrainedModel:
    """Everything detection needs, serializable as one JSON document."""

    vocabulary: Vocabulary
    labeling_params: LabelingParams
    model_params: ModelParams
    seq_params: SeqParams
    transitions: TransitionTensor
    operations: OperationTable
    store: SequenceStore
    baseline_store: TimedSequenceStore

    def to_payload(self) -> dict:
        # The transition rows with a nonzero probability, keyed by slot-of-day
        # and then by state; the all-zero rows are left out.
        probs = self.transitions.probs
        n_states = probs.shape[1]
        cells = np.flatnonzero(probs.any(axis=2))
        sparse_a: dict[str, dict[str, list[float]]] = {}
        for cell, row in zip(cells.tolist(), probs.reshape(-1, n_states)[cells].tolist()):
            k0, i = divmod(cell, n_states)
            sparse_a.setdefault(str(k0 + 1), {})[str(i)] = row
        return {
            "format_version": FORMAT_VERSION,
            "vocabulary": to_payload(self.vocabulary),
            "labeling_params": to_payload(self.labeling_params),
            "model_params": to_payload(self.model_params),
            "seq_params": to_payload(self.seq_params),
            "t_z": [int(x) for x in self.transitions.t_z],
            "a": sparse_a,
            "b": {
                f"{device}:{action}": [float(x) for x in vec]
                for (device, action), vec in sorted(self.operations.probs.items())
            },
            "store": self.store.to_payload(),
            "baseline_store": self.baseline_store.to_payload(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True, separators=(",", ":"))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def from_payload(cls, payload) -> "TrainedModel":
        """A model from its JSON form; a fault raises ``ModelError`` naming
        the key."""
        with faults_as(ModelError):
            return cls._from_payload(payload)

    @classmethod
    def _from_payload(cls, payload) -> "TrainedModel":
        version = json_object(payload, None, "").get("format_version")
        if type(version) is not int or version != FORMAT_VERSION:
            raise ModelError(f"unsupported model format_version {version!r}")
        data = json_object(payload, _PAYLOAD_KEYS, "", _PAYLOAD_KEYS)
        n_states = len(ALPHABET)
        model_params = record(ModelParams)(data["model_params"], "model_params")
        t_z = counts(data["t_z"], SLOTS_PER_DAY, "t_z", model_params.t_z_max)
        cells, rows = [], []
        for k_text, slot_rows in json_object(data["a"], None, "a").items():
            k = _payload_index(k_text, 1, SLOTS_PER_DAY, "transition slot")
            if not isinstance(slot_rows, dict):
                raise ModelError(f"a: transition slot {k}: expected a JSON object")
            for i_text, row in slot_rows.items():
                i = _payload_index(i_text, 0, n_states - 1, f"transition slot {k} state")
                cells.append((k, i))
                rows.append(row)
        # train leaves out the rows it saw no transition from, so every row
        # present is a distribution.
        values = _payload_probabilities(
            rows, n_states, lambda j: "a: transition slot {} state {}".format(*cells[j]),
            stochastic=True,
        )
        probs = np.zeros((SLOTS_PER_DAY, n_states, n_states))
        ks, states_i = np.array(cells, dtype=np.intp).reshape(-1, 2).T
        probs[ks - 1, states_i] = values
        vocabulary = VOCABULARY(data["vocabulary"], "vocabulary")
        # train writes a vector for every registered operation, and no other.
        operation_keys = [f"{device}:{action}" for device, action in vocabulary.all_pairs()]
        pairs = list(json_object(data["b"], operation_keys, "b", operation_keys))
        vectors = _payload_probabilities(
            list(data["b"].values()), n_states, lambda j: f"b: operation {pairs[j]!r}"
        )
        operations = OperationTable()
        for pair_text, vec in zip(pairs, vectors):
            device, _, action = pair_text.partition(":")
            operations.probs[(device, action)] = vec
        # Both stores take their ids from one table.
        keys, registered = SequenceIds(vocabulary.detection_target), set(vocabulary.all_pairs())
        return cls(
            vocabulary=vocabulary,
            labeling_params=record(LabelingParams)(data["labeling_params"], "labeling_params"),
            model_params=model_params,
            seq_params=record(SeqParams)(data["seq_params"], "seq_params"),
            transitions=TransitionTensor(probs=probs, t_z=t_z),
            operations=operations,
            store=SequenceStore.from_payload(data["store"], "store", n_states, keys, registered),
            baseline_store=TimedSequenceStore.from_payload(
                data["baseline_store"], "baseline_store", keys, registered
            ),
        )

    @classmethod
    def load(cls, path: str | Path) -> "TrainedModel":
        return cls.from_payload(load_json(path, ModelError, "model file"))


_PAYLOAD_KEYS = (
    "format_version", "vocabulary", "labeling_params", "model_params", "seq_params", "t_z", "a",
    "b", "store", "baseline_store",
)


def _payload_probabilities(
    rows: list, length: int, name: Callable[[int], str], stochastic: bool = False
) -> np.ndarray:
    """Rows of ``length`` probabilities from the model payload as one
    (len(rows), length) array, checked at once; a ``stochastic`` row must
    also sum to 1.  A fault names its row by ``name(row index)``."""
    values = None
    if (
        set(map(type, rows)) <= {list}
        and set(map(len, rows)) <= {length}
        and set(map(type, chain.from_iterable(rows))) <= {int, float}
    ):
        with contextlib.suppress(OverflowError):  # an int too large for a float
            values = np.array(rows, dtype=np.float64).reshape(len(rows), length)
    if values is not None:
        good = ((values >= 0.0) & (values <= 1.0)).all(axis=1)  # NaN fails both
        if stochastic:
            good &= np.abs(values.sum(axis=1) - 1.0) <= 1e-6
        if good.all():
            return values
        bad = int(np.argmin(good))
    else:
        bad = next(
            j for j, row in enumerate(rows)
            if not (
                isinstance(row, list)
                and len(row) == length
                and all(type(x) in (int, float) and 0.0 <= x <= 1.0 for x in row)
            )
        )
    need = "summing to 1" if stochastic else "in [0, 1]"
    raise ModelError(f"{name(bad)}: need {length} values, finite probabilities {need}")


def _payload_index(text: str, low: int, high: int, what: str) -> int:
    """An integer key of the model payload, checked to lie in [low, high]."""
    if not (text.isdecimal() and low <= int(text) <= high):
        raise ModelError(f"{what} {text!r} must be an integer in {low}..{high}")
    return int(text)


def kept_day_streams(arrays: LabelArrays) -> list[np.ndarray]:
    """The positions of the kept slots of each day, day by day, ready for
    ``filter_streams``."""
    positions = np.flatnonzero(arrays.keep)
    if not len(positions):
        return []
    return np.split(positions, np.flatnonzero(np.diff(arrays.day[positions])) + 1)


def train_model(
    grid: SlotGrid,
    vocabulary: Vocabulary | None = None,
    labeling_params: LabelingParams | None = None,
    model_params: ModelParams | None = None,
    seq_params: SeqParams | None = None,
) -> TrainedModel:
    """Label, fit, filter, and store: the full training pipeline."""
    from .labeling import label_states

    vocabulary = vocabulary or Vocabulary()
    labeling_params = labeling_params or LabelingParams()
    model_params = model_params or ModelParams()
    seq_params = seq_params or SeqParams()

    labels = label_states(grid, labeling_params, vocabulary)
    kept = labels.select(~labels.excluded)
    if not kept.keep.any():
        raise ModelError("no usable training days after exclusions")
    transitions = fit_transitions(kept, model_params.t_z_max)
    operations = fit_operations(kept, vocabulary)

    # The store and the timed store share one enumeration of the grid's
    # windows, as the folds of an evaluation do.
    target = vocabulary.detection_target
    windows = DayWindows(grid, target, seq_params)
    alphas = [seq_params.l_alpha] if seq_params.criterion == "alpha" else []
    counts = SlotCounts(transitions.n_states, alphas)
    traces = filter_streams(grid, kept_day_streams(kept), transitions, operations, counts=counts)
    beliefs = TrainingBeliefs(traces, windows, counts)
    store = store_sequences(beliefs, target, seq_params)
    baseline_store = build_timed_store(windows, target, seq_params)
    return TrainedModel(
        vocabulary=vocabulary,
        labeling_params=labeling_params,
        model_params=model_params,
        seq_params=seq_params,
        transitions=transitions,
        operations=operations,
        store=store,
        baseline_store=baseline_store,
    )
