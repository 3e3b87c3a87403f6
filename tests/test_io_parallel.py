"""The parallelism substrate: worker pools, striped devices, the makespan
meter, ranged scans, and the thread-safety of the shared ledger.

The load-bearing invariants, each pinned here:

* a :class:`~repro.io.parallel.StripedDevice`'s per-channel ledgers are an
  *exact partition* of the main ledger (striping moves charges, it never
  adds or drops any);
* with one channel the makespan equals the total I/O delta — the K=1
  identity every scaling claim rests on;
* scanning a file's shard ranges in order charges exactly what one
  whole-file scan charges;
* :class:`~repro.io.stats.IOStats` survives concurrent recording without
  losing a count (worker shards of a threads-backend pool all write to it);
* the shared buffer pool's cache keys are :attr:`DiskFile.uid`-based and
  invalidated on ``rename(overwrite=True)`` — the id-reuse collision and
  the silent-clobber hole this PR closed.
"""

import threading

import pytest

from repro.exceptions import ReproError, StorageError
from repro.io.blocks import BlockDevice, DiskFile
from repro.io.files import ExternalFile
from repro.io.parallel import (
    EXECUTOR_BACKENDS,
    MakespanMeter,
    StripedDevice,
    WorkerPool,
    shard_ranges,
)
from repro.io.pool import SharedBufferPool
from repro.io.stats import IOStats


# -- WorkerPool --------------------------------------------------------------


class TestWorkerPool:
    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_run_preserves_submission_order(self, backend):
        pool = WorkerPool(workers=4, backend=backend)
        try:
            results = pool.run([(lambda i=i: i * i) for i in range(20)])
            assert results == [i * i for i in range(20)]
        finally:
            pool.close()

    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_map(self, backend):
        pool = WorkerPool(workers=3, backend=backend)
        try:
            assert pool.map(lambda x: x + 1, range(7)) == list(range(1, 8))
        finally:
            pool.close()

    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_run_windowed_yields_in_order(self, backend):
        pool = WorkerPool(workers=2, backend=backend)
        try:
            out = list(pool.run_windowed(((lambda i=i: i) for i in range(10)), window=2))
            assert out == list(range(10))
        finally:
            pool.close()

    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_exceptions_propagate(self, backend):
        pool = WorkerPool(workers=2, backend=backend)

        def boom():
            raise RuntimeError("shard failed")

        try:
            with pytest.raises(RuntimeError, match="shard failed"):
                pool.run([lambda: 1, boom, lambda: 3])
        finally:
            pool.close()

    def test_nested_submission_runs_inline(self):
        """A parallel operator inside a parallel operator must not deadlock:
        with every pool thread busy on outer tasks, inner tasks run inline
        on the worker thread instead of queueing forever."""
        pool = WorkerPool(workers=2, backend="threads")

        def outer(i):
            # Submitting from inside a task would starve with only 2
            # threads and 2 outer tasks; the inline guard makes it safe.
            return sum(pool.map(lambda x: x * i, range(4)))

        try:
            assert pool.map(outer, range(3)) == [0, 6, 12]
        finally:
            pool.close()

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            WorkerPool(workers=0)
        with pytest.raises(ValueError):
            WorkerPool(workers=2, backend="fibers")


# -- shard_ranges ------------------------------------------------------------


class TestShardRanges:
    def test_partitions_exactly(self):
        for num_blocks in (1, 2, 5, 16, 17, 100):
            for shards in (1, 2, 3, 8):
                ranges = shard_ranges(num_blocks, shards)
                assert ranges[0][0] == 0
                assert ranges[-1][1] == num_blocks
                for (_, a_stop), (b_start, _) in zip(ranges, ranges[1:]):
                    assert a_stop == b_start
                sizes = [stop - start for start, stop in ranges]
                assert sum(sizes) == num_blocks
                assert max(sizes) - min(sizes) <= 1  # near-even
                assert len(ranges) == min(shards, num_blocks)

    def test_empty_file(self):
        assert shard_ranges(0, 4) == []

    def test_rejects_bad_shards(self):
        with pytest.raises(ValueError):
            shard_ranges(10, 0)


# -- StripedDevice -----------------------------------------------------------


def _exercise(device, blocks=40):
    """Create, write, scan, and randomly read a couple of files."""
    capacity = device.block_size // 16
    a = ExternalFile.from_records(
        device, "a", [(i, i) for i in range(blocks * capacity)], 16
    )
    b = ExternalFile.from_records(
        device, "b", [(i, 0) for i in range(blocks * capacity // 2)], 16
    )
    list(a.scan())
    list(b.scan())
    a.read_block_random(1)
    return a, b


class TestStripedDevice:
    def test_channels_partition_the_ledger(self):
        device = StripedDevice(block_size=64, channels=4)
        _exercise(device)
        assert sum(device.channel_totals()) == device.stats.total
        # The split holds per counter class, not just in total.
        assert sum(c.sequential for c in device.channels) == device.stats.sequential
        assert sum(c.random for c in device.channels) == device.stats.random

    def test_identical_totals_to_plain_device(self):
        plain = BlockDevice(block_size=64)
        _exercise(plain)
        striped = StripedDevice(block_size=64, channels=4)
        _exercise(striped)
        assert striped.stats.snapshot() == plain.stats.snapshot()

    def test_phase_attribution_partitions_too(self):
        device = StripedDevice(block_size=64, channels=3)
        with device.stats.phase("work"):
            _exercise(device)
        main = device.stats.by_phase["work"].total
        per_channel = sum(
            c.by_phase.get("work", None).total
            for c in device.channels
            if c.by_phase.get("work") is not None
        )
        assert per_channel == main

    def test_striping_rotates_start_channel_per_file(self):
        device = StripedDevice(block_size=64, channels=4)
        _exercise(device)
        busy = [c.total for c in device.channels]
        # Round-robin over two multi-block files: no channel may idle.
        assert all(total > 0 for total in busy)

    def test_single_channel_allowed(self):
        device = StripedDevice(block_size=64, channels=1)
        _exercise(device)
        assert device.channel_totals() == [device.stats.total]

    def test_rejects_zero_channels(self):
        with pytest.raises(StorageError):
            StripedDevice(block_size=64, channels=0)


# -- MakespanMeter -----------------------------------------------------------


class TestMakespanMeter:
    def test_k1_makespan_equals_total(self):
        device = StripedDevice(block_size=64, channels=1)
        meter = MakespanMeter(device)
        with device.stats.phase("alpha"):
            _exercise(device)
        assert meter.makespan() == device.stats.total

    def test_plain_device_acts_as_one_channel(self):
        device = BlockDevice(block_size=64)
        meter = MakespanMeter(device)
        _exercise(device)
        assert meter.makespan() == device.stats.total
        assert meter.channel_snapshot() == [device.stats.total]

    def test_striped_makespan_bounded_by_total_and_fair_share(self):
        device = StripedDevice(block_size=64, channels=4)
        meter = MakespanMeter(device)
        with device.stats.phase("alpha"):
            _exercise(device)
        makespan = meter.makespan()
        total = device.stats.total
        assert makespan <= total
        assert makespan >= total / 4  # cannot beat perfect striping

    def test_phases_are_barriers(self):
        """Two sequential phases each contribute their own busiest channel
        — the meter must sum per-phase maxima, not take a global max."""
        device = StripedDevice(block_size=64, channels=2)
        meter = MakespanMeter(device)
        with device.stats.phase("p1"):
            ExternalFile.from_records(device, "x", [(i, 0) for i in range(40)], 16)
        with device.stats.phase("p2"):
            ExternalFile.from_records(device, "y", [(i, 0) for i in range(40)], 16)
        per_phase = meter.phase_makespans()
        assert set(per_phase) == {"p1", "p2"}
        assert meter.makespan() == per_phase["p1"] + per_phase["p2"]

    def test_meter_windows_only_its_own_delta(self):
        device = StripedDevice(block_size=64, channels=2)
        _exercise(device)  # pre-meter traffic must not count
        meter = MakespanMeter(device)
        assert meter.makespan() == 0
        with device.stats.phase("later"):
            ExternalFile.from_records(device, "z", [(i, 0) for i in range(40)], 16)
        assert 0 < meter.makespan() <= device.stats.total


# -- ranged scans ------------------------------------------------------------


class TestRangedScans:
    def _file(self, device):
        capacity = device.block_size // 16
        return ExternalFile.from_records(
            device, "data", [(i, i * 2) for i in range(10 * capacity + 3)], 16
        )

    def test_shards_reproduce_whole_scan_records(self):
        device = BlockDevice(block_size=64)
        f = self._file(device)
        whole = list(f.scan())
        for shards in (1, 2, 3, 7):
            ranges = shard_ranges(f.num_blocks, shards)
            pieces = [r for start, stop in ranges for r in f.scan_range(start, stop)]
            assert pieces == whole

    def test_shards_charge_exactly_one_scan(self):
        device = BlockDevice(block_size=64)
        f = self._file(device)
        before = device.stats.snapshot()
        list(f.scan())
        one_scan = device.stats.snapshot() - before

        before = device.stats.snapshot()
        for start, stop in shard_ranges(f.num_blocks, 4):
            list(f.scan_range(start, stop))
        sharded = device.stats.snapshot() - before
        assert sharded == one_scan

    def test_ranged_scan_with_pool_readahead(self):
        plain = BlockDevice(block_size=64)
        f = self._file(plain)
        before = plain.stats.snapshot()
        list(f.scan())
        unpooled = plain.stats.snapshot() - before

        pooled_device = BlockDevice(block_size=64)
        SharedBufferPool(pooled_device, readahead=4)
        g = self._file(pooled_device)
        before = pooled_device.stats.snapshot()
        for start, stop in shard_ranges(g.num_blocks, 3):
            list(g.scan_range(start, stop))
        pooled = pooled_device.stats.snapshot() - before
        assert pooled == unpooled


# -- IOStats thread safety ---------------------------------------------------


class TestIOStatsConcurrency:
    def test_concurrent_recording_loses_nothing(self):
        stats = IOStats()
        threads = 8
        per_thread = 2000
        barrier = threading.Barrier(threads)

        def hammer():
            barrier.wait()
            for i in range(per_thread):
                stats.record_read(sequential=(i % 2 == 0))
                stats.record_write(sequential=(i % 3 != 0))
                if i % 50 == 0:
                    stats.record_merge_pass()
                    stats.record_runs_formed(1)
                    stats.record_payload_write(1, 16, 8, 16)

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for t in workers:
            t.start()
        for t in workers:
            t.join()

        n = threads * per_thread
        assert stats.seq_reads == n // 2
        assert stats.rand_reads == n - n // 2
        assert stats.seq_writes + stats.rand_writes == n
        assert stats.total == 2 * n
        bursts = threads * len(range(0, per_thread, 50))
        assert stats.merge_passes == bursts
        assert stats.runs_formed == bursts
        assert stats.records_written == bursts
        assert stats.bytes_stored == 8 * bursts

    def test_concurrent_phase_attribution(self):
        stats = IOStats()
        with stats.phase("work"):
            threads = [
                threading.Thread(
                    target=lambda: [stats.record_read(True) for _ in range(1000)]
                )
                for _ in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert stats.by_phase["work"].total == 6000
        assert stats.top_level_phases == ["work"]


# -- DiskFile.uid and pool cache keys ----------------------------------------


class TestUidKeys:
    def test_uids_are_monotonic_and_never_reused(self):
        device = BlockDevice(block_size=64)
        seen = set()
        for i in range(50):
            f = device.create(f"f{i}", 16)
            assert f.uid not in seen
            seen.add(f.uid)
            device.delete(f"f{i}")
        g = device.create("fresh", 16)
        assert g.uid not in seen

    def test_rename_overwrite_invalidates_cached_target(self):
        """The latent bug this PR fixed: rename(overwrite=True) silently
        clobbered the target while its blocks sat in the shared cache; a
        later open + read could then be served the dead file's content."""
        device = BlockDevice(block_size=64)
        pool = SharedBufferPool(device, readahead=2, cache_blocks=32)
        capacity = device.block_size // 16

        old = ExternalFile.from_records(
            device, "target", [(1, 1)] * (3 * capacity), 16
        )
        list(old.scan())  # populate the cache with the doomed content

        replacement = ExternalFile.from_records(
            device, "incoming", [(2, 2)] * (3 * capacity), 16
        )
        device.rename("incoming", "target", overwrite=True)

        reopened = ExternalFile.open(device, "target")
        assert all(r == (2, 2) for r in reopened.scan())
        assert replacement.num_records == 3 * capacity
        # And uid keys keep even a re-created name distinct in the cache.
        assert reopened.num_records == 3 * capacity
        assert pool.cache_blocks > 0

    def test_cache_never_serves_dead_files_after_gc(self):
        """uid-keyed caching: a new DiskFile re-using a dead file's memory
        address must not hit the dead file's cached blocks."""
        import gc

        device = BlockDevice(block_size=64)
        SharedBufferPool(device, readahead=1, cache_blocks=64)
        capacity = device.block_size // 16
        for round_no in range(10):
            f = ExternalFile.from_records(
                device, "scratch", [(round_no, round_no)] * (2 * capacity), 16
            )
            assert all(r == (round_no, round_no) for r in f.scan())
            f.delete()
            del f
            gc.collect()


# -- removed backends --------------------------------------------------------


class TestProcessesBackend:
    """The ``processes`` backend is gone: the pipeline never handed it a
    task, so it only ever ran the ``threads`` code under a third name."""

    def test_backends_tuple(self):
        assert EXECUTOR_BACKENDS == ("serial", "threads")

    def test_pool_and_config_reject_it(self):
        from repro.core.config import ExtSCCConfig

        with pytest.raises(ValueError, match="unknown executor backend"):
            WorkerPool(workers=2, backend="processes")
        with pytest.raises(ReproError, match="unknown executor"):
            ExtSCCConfig(executor="processes")
