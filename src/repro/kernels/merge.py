"""Sort and merge kernels for the external-sort inner loops.

Two hot spots in :mod:`repro.io.runs` / :mod:`repro.io.sort` are pure
record shuffling with no I/O of their own:

* the **fits-in-memory sort** — a whole run buffer sorted at once
  (:func:`sort_records`); vectorized as one ``np.lexsort`` over the
  record columns when the sort order is the record's own lexicographic
  order or a registered column permutation.  The win over the scalar
  path is largest for keyed sorts, where the scalar ``list.sort`` pays a
  Python key-function call per record;
* the **K-way merge** — every merge of the external sort, at any fan-in,
  keyed or not, runs through one chunked galloping merge
  (:func:`merge_batches`) that hands back *batches* of merged records.
  The bulk operation is deliberately *not* numpy: one stable
  ``list.sort`` over the concatenated stream prefixes hits Timsort's C
  galloping run-merge, while any tuple↔ndarray round trip costs more per
  record than the whole merge.  Because the chunked merge is
  batch-granularity *host* work — the same trade the batch record path
  makes — callers use it whenever either fast-path switch
  (``REPRO_NUMPY`` or ``REPRO_BATCH_IO``) is on (:func:`_chunked_active`),
  and :func:`heapq.merge` remains the byte-identical reference.

Both kernels are *output-identical* to their references, including the
stability contract (on a tie the earlier stream wins — the stable sort
sees the streams' prefixes in stream order).  Chunking reads ahead up to
:data:`MERGE_CHUNK` records across the streams, which reorders *host*
work only: every simulated block is still read exactly once, in the same
scan, so the I/O ledger cannot move.

Records that do not fit the sort kernel's vector form (ragged arity,
non-integers, values beyond int64) make :func:`sort_records` fall back
to the scalar whole-buffer sort; the merge kernel compares records as
Python objects and needs no such fallback.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from repro.kernels import _flags

__all__ = [
    "MERGE_CHUNK",
    "MERGE_CHUNK_MIN",
    "SORT_MIN",
    "merge_batches",
    "sort_records",
]

Record = Tuple[int, ...]
KeyFn = Callable[[Record], object]

MERGE_CHUNK = 4096
"""Records a K-way merge reads ahead across all its streams."""

MERGE_CHUNK_MIN = 256
"""Per-stream floor on the merge chunk, so a wide fan-in still emits
batches large enough to amortize one step's bisects and sort call."""

SORT_MIN = 1024
"""Below this many records the conversion overhead beats the lexsort win
(pure heuristic — both paths produce identical output)."""


def _chunked_active() -> bool:
    """Whether the chunked (batch-granularity) merge should dispatch.

    The chunked merge needs no numpy — it is bulk host-side record work,
    the same trade the batch record path makes — so either fast-path
    switch turns it on.  The import is local because :mod:`repro.io.codecs`
    imports this module for its array helpers.
    """
    if _flags.available():
        return True
    from repro.io.codecs import batch_enabled

    return batch_enabled()


def _to_array(np, records):
    """Records → 2-D int64 array, or ``None`` when they don't fit the
    vector form (ragged, non-integer, or beyond int64).

    ``np.fromiter`` over the flattened records runs ~2x faster than
    ``np.asarray`` on a list of tuples; the explicit arity check (a
    C-level ``set(map(len, ...))`` pass) keeps a ragged buffer from being
    silently misaligned by the flat fill.
    """
    width = len(records[0]) if records else 0
    if width == 0 or set(map(len, records)) != {width}:
        return None
    try:
        flat = np.fromiter(
            chain.from_iterable(records),
            dtype=np.int64,
            count=width * len(records),
        )
    except (ValueError, TypeError, OverflowError):
        return None
    return flat.reshape(-1, width)


def _rows(np, arr) -> List[Record]:
    """2-D array → list of record tuples.  ``zip`` over per-column
    ``tolist`` runs ~5x faster than ``map(tuple, arr.tolist())``."""
    return list(zip(*(arr[:, c].tolist() for c in range(arr.shape[1]))))


def sort_records(
    buffer: List[Record],
    key: Optional[KeyFn] = None,
    columns: Optional[Tuple[int, ...]] = None,
) -> List[Record]:
    """Sort a record buffer; returns the sorted list (maybe ``buffer``
    itself, sorted in place).

    Args:
        buffer: the records to sort.
        key: the sort key; ``None`` sorts records as their own tuples.
        columns: when ``key`` is a pure column permutation, its column
            priority (primary first) — lets the vector path handle the
            registered injective keys.  Ignored when ``key`` is ``None``
            (the natural order is all columns in order).

    The numpy path runs only when it can reproduce the scalar sort
    exactly: unkeyed or column-permutation order over uniform int64
    records.  Permutation keys are injective (equal keys ⇒ equal
    records), so ``np.lexsort``'s stable order writes the same bytes as
    the stable list sort.
    """
    if key is not None and columns is None:
        buffer.sort(key=key)
        return buffer
    np = _flags.numpy_module()
    if np is None or len(buffer) < SORT_MIN:
        buffer.sort(key=key)
        return buffer
    arr = _to_array(np, buffer)
    if arr is None:
        buffer.sort(key=key)
        return buffer
    if columns is None:
        columns = tuple(range(arr.shape[1]))
    if max(columns, default=-1) >= arr.shape[1]:
        buffer.sort(key=key)
        return buffer
    # lexsort's *last* key is primary, so feed the priority reversed.
    order = np.lexsort(tuple(arr[:, c] for c in reversed(columns)))
    return _rows(np, arr[order])


def merge_batches(
    streams: Iterable[Iterable[Record]], key: Optional[KeyFn] = None
) -> Iterator[List[Record]]:
    """Stable K-way merge of sorted streams, yielded as record *batches*.

    Output-identical to :func:`heapq.merge` (``key`` included): records
    leave in key order, and on a tie the earlier stream wins.  Each
    stream keeps one buffered chunk of about ``MERGE_CHUNK // K`` records
    (floor :data:`MERGE_CHUNK_MIN`).  One step takes ``bound``, the
    smallest buffered tail key, and ``f``, the first stream whose tail
    equals it; every record that can no longer be overtaken is emitted:

    * streams before ``f`` emit their prefix ``<= bound`` (their tails
      are ``> bound``, so no later record of theirs ties it);
    * stream ``f`` emits its whole chunk;
    * streams after ``f`` emit only ``< bound`` — a record of ``f`` still
      to come may equal ``bound`` and must precede their ties.

    The prefixes are concatenated in stream order and put through one
    stable ``list.sort``: Timsort finds the K pre-sorted runs and merges
    them in C with galloping, resolving ties by stream order.  Stream
    ``f`` is then refilled (or dropped when exhausted); the last stream
    standing is flushed a chunk at a time.
    """
    iters = [iter(stream) for stream in streams]
    chunk = max(MERGE_CHUNK_MIN, MERGE_CHUNK // max(1, len(iters)))
    bufs: List[List[Record]] = []
    live: List[Iterator[Record]] = []
    for it in iters:
        buf = list(islice(it, chunk))
        if buf:
            bufs.append(buf)
            live.append(it)
    while len(bufs) > 1:
        if key is None:
            tails = [buf[-1] for buf in bufs]
        else:
            tails = [key(buf[-1]) for buf in bufs]
        bound = min(tails)
        first = tails.index(bound)
        out: List[Record] = []
        for i, buf in enumerate(bufs):
            if i == first:
                out += buf
                continue
            if i < first:
                cut = bisect_right(buf, bound, key=key)
            else:
                cut = bisect_left(buf, bound, key=key)
            if cut:
                out += buf[:cut]
                del buf[:cut]
        out.sort(key=key)
        yield out
        refill = list(islice(live[first], chunk))
        if refill:
            bufs[first] = refill
        else:
            del bufs[first], live[first]
    if bufs:
        buf, it = bufs[0], live[0]
        while buf:
            yield buf
            buf = list(islice(it, MERGE_CHUNK))
