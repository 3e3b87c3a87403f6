"""The vectorized kernel layer (`repro.kernels`) and its equivalence
contracts.

Four families of guarantees, each pinned on random inputs:

* **Solver agreement** — ``multi-bfs`` produces canonical labels identical
  to ``forward-backward`` and ``parallel-fw-bw`` (and the Tarjan oracle)
  on random multigraphs.
* **Numpy/scalar equivalence** — with the numpy path on, every semi
  solver produces byte-identical labels *and* a byte-identical I/O ledger
  (same scans, same rounds) as with it off; likewise the sort kernel and
  the sort layer's merge dispatch produce identical record sequences,
  stability included.
* **Merge-kernel equivalence** — the chunked K-way ``merge_batches``
  emits exactly :func:`heapq.merge`'s record sequence, tie order
  included, at every fan-in and chunk size.
* **Flag centralization** — ``repro.kernels`` is the single home of
  ``REPRO_NUMPY``; the codec layer's ``numpy_enabled`` view follows it,
  and the fallback reason distinguishes "off" from "requested but numpy
  missing".

The whole module runs with or without numpy installed: when numpy is
missing the "numpy on" runs exercise the requested-but-unavailable
fallback, which must be byte-identical anyway.
"""

import heapq
from contextlib import contextmanager
from itertools import chain
from operator import itemgetter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.conftest import reference_sccs

from repro import kernels
from repro.core.result import SCCResult
from repro.graph.edge_file import EdgeFile
from repro.io.blocks import BlockDevice
from repro.io.codecs import numpy_enabled, set_batch_enabled, set_numpy_enabled
from repro.io.memory import MemoryBudget
from repro.io.sort import KEY_DST_SRC, KEY_SRC_DST, merge_runs
from repro.kernels import merge as merge_kernel
from repro.semi_external import SEMI_SCC_SOLVERS
from repro.semi_external.multi_bfs import MAX_SOURCES, multi_bfs_scc, source_budget

N_NODES = 14

edges_strategy = st.lists(
    st.tuples(st.integers(0, N_NODES - 1), st.integers(0, N_NODES - 1)),
    min_size=0,
    max_size=45,
)

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        # numpy_toggle restores process state once per test function; the
        # per-example body always sets the flag itself before relying on it.
        HealthCheck.function_scoped_fixture,
    ],
)


def _edge_file(edges, name="E", block_size=64):
    device = BlockDevice(block_size=block_size)
    return EdgeFile.from_edges(device, name, edges)


def _ledger(device):
    stats = device.stats
    return (stats.seq_reads, stats.rand_reads, stats.seq_writes, stats.rand_writes)


@pytest.fixture
def numpy_toggle():
    """Restore the process-wide flag whatever a test does to it."""
    previous = kernels.set_enabled(kernels.requested())
    yield
    kernels.set_enabled(previous)


class TestSolverAgreement:
    @SETTINGS
    @given(edges_strategy)
    def test_multi_bfs_matches_fw_bw_family(self, edges):
        reference = reference_sccs(edges, N_NODES)
        for name in ("multi-bfs", "forward-backward", "parallel-fw-bw"):
            edge_file = _edge_file(edges, name)
            labels = SEMI_SCC_SOLVERS[name](edge_file, range(N_NODES))
            assert SCCResult(labels) == reference, name

    @SETTINGS
    @given(edges_strategy, st.integers(1, MAX_SOURCES))
    def test_multi_bfs_any_source_budget(self, edges, sources):
        """Labels are independent of the source batch size S."""
        edge_file = _edge_file(edges)
        labels = multi_bfs_scc(edge_file, range(N_NODES), max_sources=sources)
        assert SCCResult(labels) == reference_sccs(edges, N_NODES)


class TestNumpyScalarEquivalence:
    @SETTINGS
    @given(edges=edges_strategy)
    def test_solvers_identical_ledgers_and_labels(self, numpy_toggle, edges):
        for name, solver in SEMI_SCC_SOLVERS.items():
            outcomes = {}
            for enabled in (False, True):
                kernels.set_enabled(enabled)
                edge_file = _edge_file(edges, f"E-{name}-{enabled}")
                labels = solver(edge_file, range(N_NODES))
                outcomes[enabled] = (labels, _ledger(edge_file.device))
            assert outcomes[True] == outcomes[False], name

    @SETTINGS
    @given(records=st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50))))
    def test_sort_records_identical(self, numpy_toggle, records):
        expected = sorted(records)
        kernels.set_enabled(True)
        assert kernels.sort_records(list(records)) == expected
        assert (
            kernels.sort_records(
                list(records),
                key=lambda r: (r[1], r[0]),
                columns=(1, 0),
            )
            == sorted(records, key=lambda r: (r[1], r[0]))
        )

    def test_merge_chunk_boundaries_and_ties(self, numpy_toggle):
        # Force several refill cycles with heavy cross-stream ties through
        # the sort layer's dispatch: the fast path must reproduce the
        # reference merge exactly.
        left = sorted((i % 5, i % 3) for i in range(3 * kernels.MERGE_CHUNK))
        right = sorted((i % 5, i % 2) for i in range(2 * kernels.MERGE_CHUNK + 7))
        expected = list(heapq.merge(left, right))
        kernels.set_enabled(True)
        assert list(merge_runs([iter(left), iter(right)])) == expected

    def test_merge_bigint_midstream(self, numpy_toggle):
        # A record beyond int64 appears mid-stream: the chunked merge
        # compares records as Python objects, so nothing is lost or
        # reordered (and no int64 bail-out is needed).
        left = [(i, 0) for i in range(600)] + [(1 << 80, 0)]
        right = [(i, 1) for i in range(500)]
        expected = list(heapq.merge(left, right))
        kernels.set_enabled(True)
        assert list(merge_runs([iter(left), iter(right)])) == expected

    def test_sort_records_bigint_fallback(self, numpy_toggle):
        kernels.set_enabled(True)
        records = [(1 << 90, i) for i in range(2000, 0, -1)]
        assert kernels.sort_records(list(records)) == sorted(records)


MERGE_KEYS = {
    "dst_src": KEY_DST_SRC,
    "src_dst": KEY_SRC_DST,
    "first_field": itemgetter(0),  # not injective: ties across streams
}

merge_streams_strategy = st.lists(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=30),
    min_size=1,
    max_size=16,
)


def _check_merge(streams, key):
    """``merge_batches`` must equal ``heapq.merge`` record for record —
    and object for object, so a tie taken from the wrong stream shows
    even where the tied records compare equal."""
    expected = list(heapq.merge(*map(iter, streams), key=key))
    batches = list(kernels.merge_batches(map(iter, streams), key))
    assert all(batches), "empty batch emitted"
    merged = list(chain.from_iterable(batches))
    assert merged == expected
    assert all(m is e for m, e in zip(merged, expected))


class TestMergeBatches:
    """The chunked K-way merge against its reference, :func:`heapq.merge`,
    at every fan-in from 1 to 16 (empty and single-record streams
    included).  ``chunk`` shrinks the merge's chunk sizes so hypothesis-
    sized streams refill many times and their tie runs straddle chunk
    boundaries."""

    @SETTINGS
    @given(
        streams=merge_streams_strategy,
        chunk=st.sampled_from([None, (1, 1), (8, 2)]),
    )
    def test_unkeyed_matches_heapq(self, streams, chunk):
        streams = [sorted(s) for s in streams]
        with _merge_chunk(chunk):
            _check_merge(streams, None)

    @SETTINGS
    @given(
        streams=merge_streams_strategy,
        key_name=st.sampled_from(sorted(MERGE_KEYS)),
        chunk=st.sampled_from([None, (1, 1), (8, 2)]),
    )
    def test_keyed_matches_heapq(self, streams, key_name, chunk):
        key = MERGE_KEYS[key_name]
        # Each record carries its stream index past the key's fields, so
        # equal keys from different streams are unequal records.
        streams = [
            sorted(((a, b, index) for a, b in s), key=key)
            for index, s in enumerate(streams)
        ]
        with _merge_chunk(chunk):
            _check_merge(streams, key)

    def test_tie_run_straddles_chunks(self):
        # Every record shares one key: the whole merge is one tie run
        # spanning several refills of every stream, and the streams must
        # still drain strictly in stream order.
        key = itemgetter(0)
        streams = [
            [(0, index, i) for i in range(n)]
            for index, n in enumerate(
                (2 * kernels.MERGE_CHUNK + 3, 1, 0, kernels.MERGE_CHUNK + 9)
            )
        ]
        _check_merge(streams, key)
        _check_merge([[(0, index)] * 700 for index in range(14)], None)

    def test_reference_path_when_fast_paths_off(self, numpy_toggle):
        # With both fast paths off the sort layer merges through
        # heapq.merge itself; the output is the kernel's either way.
        streams = [sorted((i * 7 % 13, i % 3) for i in range(40 + j)) for j in range(5)]
        expected = list(heapq.merge(*streams))
        batch = set_batch_enabled(False)
        try:
            kernels.set_enabled(False)
            assert list(merge_runs(map(iter, streams))) == expected
        finally:
            set_batch_enabled(batch)
        kernels.set_enabled(True)
        assert list(merge_runs(map(iter, streams))) == expected


@contextmanager
def _merge_chunk(chunk):
    """Temporarily shrink ``(MERGE_CHUNK, MERGE_CHUNK_MIN)``."""
    if chunk is None:
        yield
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(merge_kernel, "MERGE_CHUNK", chunk[0])
        patch.setattr(merge_kernel, "MERGE_CHUNK_MIN", chunk[1])
        yield


class TestSourceBudget:
    def test_unbounded_without_memory(self):
        assert source_budget(1000, None, 64) == MAX_SOURCES

    def test_caps_by_spare_bytes(self):
        n = 100
        base = 8 * n + 64
        # Spare for exactly 2 mask bytes per node per direction -> S = 16.
        memory = MemoryBudget(base + 2 * 2 * n)
        assert source_budget(n, memory, 64) == 16
        # Not even one byte per direction spare: degrade to S = 1.
        assert source_budget(n, MemoryBudget(base + n), 64) == 1
        assert source_budget(n, MemoryBudget(base), 64) == 1

    def test_requested_floor_and_ceiling(self):
        assert source_budget(10, None, 64, requested=0) == 1
        assert source_budget(10, None, 64, requested=1000) == MAX_SOURCES

    def test_tight_budget_still_solves(self):
        edges = [(i, (i + 1) % 9) for i in range(9)] + [(3, 7), (8, 2)]
        edge_file = _edge_file(edges, block_size=64)
        memory = MemoryBudget(8 * N_NODES + 64 + 2 * N_NODES)
        labels = multi_bfs_scc(edge_file, range(N_NODES), memory=memory)
        assert SCCResult(labels) == reference_sccs(edges, N_NODES)


class TestFlagCentralization:
    def test_codecs_view_follows_kernels(self, numpy_toggle):
        kernels.set_enabled(True)
        assert numpy_enabled() == kernels.available()
        kernels.set_enabled(False)
        assert not numpy_enabled()
        # And the reverse direction: the codec setter is the same flag.
        assert set_numpy_enabled(True) is False
        assert kernels.requested()

    def test_fallback_reason_states(self, numpy_toggle):
        kernels.set_enabled(False)
        assert "not requested" in kernels.fallback_reason()
        kernels.set_enabled(True)
        if kernels.available():
            assert kernels.fallback_reason() is None
        else:
            assert "not importable" in kernels.fallback_reason()

    def test_requested_vs_available(self, numpy_toggle):
        kernels.set_enabled(True)
        assert kernels.requested()
        # available() may be False (no numpy); it must never be True
        # without the module actually importable.
        if kernels.available():
            assert kernels.numpy_module() is not None
        else:
            assert kernels.numpy_module() is None
