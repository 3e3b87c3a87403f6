"""Tests for the persistent (real-filesystem) block device."""

import struct
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tests.conftest import random_edges, reference_sccs

from repro.core import ExtSCC, ExtSCCConfig
from repro.exceptions import CorruptBlockError, StorageError
from repro.graph.edge_file import EdgeFile, NodeFile
from repro.io.blocks import BlockDevice
from repro.io.files import ExternalFile
from repro.io.memory import MemoryBudget
from repro.io.persistent import PersistentBlockDevice, encode_records, open_shared
from repro.io.sort import external_sort

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


@pytest.fixture
def pdevice(tmp_path):
    return PersistentBlockDevice(tmp_path / "disk", block_size=64)


class TestBasicIO:
    def test_roundtrip(self, pdevice):
        records = [(i, i * 2) for i in range(50)]
        ef = ExternalFile.from_records(pdevice, "data", records, 8)
        assert list(ef.scan()) == records

    def test_data_actually_on_disk(self, tmp_path, pdevice):
        ExternalFile.from_records(pdevice, "data", [(1, 2)], 8)
        blk_files = list((tmp_path / "disk").glob("*.blk"))
        assert blk_files
        assert blk_files[0].stat().st_size > 0

    def test_random_block_read(self, pdevice):
        records = [(i, 0) for i in range(40)]
        ef = ExternalFile.from_records(pdevice, "data", records, 8)
        assert ef.read_block_random(2)[0] == (16, 0)

    def test_overwrite_block(self, pdevice):
        ef = ExternalFile.from_records(pdevice, "data", [(i, 0) for i in range(16)], 8)
        pdevice.overwrite_block(ef._file, 0, [(99, 99)])
        assert list(ef.read_block_random(0)) == [(99, 99)]
        assert ef.num_records == 9  # 1 + second block's 8

    def test_io_accounting_matches_ram_device(self, tmp_path):
        """Same workload, same ledger on both backends."""
        records = [(i * 7 % 97, i) for i in range(300)]
        ram = BlockDevice(block_size=64)
        disk = PersistentBlockDevice(tmp_path / "d2", block_size=64)
        for device in (ram, disk):
            infile = ExternalFile.from_records(device, "in", records, 8)
            external_sort(infile, MemoryBudget(256))
        assert ram.stats.total == disk.stats.total
        assert ram.stats.random == disk.stats.random

    def test_negative_values_roundtrip(self, pdevice):
        ef = ExternalFile.from_records(pdevice, "data", [(-5, 2**40)], 8)
        assert list(ef.scan()) == [(-5, 2**40)]

    def test_misaligned_record_size_rejected(self, pdevice):
        with pytest.raises(StorageError):
            pdevice.create("bad", record_size=7)

    def test_wrong_arity_rejected(self, pdevice):
        f = pdevice.create("data", record_size=8)
        with pytest.raises(StorageError):
            pdevice.append_block(f, [(1, 2, 3)])
        with pytest.raises(StorageError, match=r"\(3, 4, 5\) has 3 fields"):
            pdevice.append_block(f, [(1, 2), (3, 4, 5)])

    @pytest.mark.parametrize("value", [2**63, INT64_MIN - 1, 2**80])
    def test_out_of_range_value_rejected(self, pdevice, value):
        f = pdevice.create("data", record_size=8)
        with pytest.raises(StorageError, match=rf"'data'.*{value}"):
            pdevice.append_block(f, [(1, value)])
        assert f.num_blocks == 0

    def test_out_of_range_value_in_var_file_rejected(self, pdevice):
        f = pdevice.create("var", record_size=1)
        with pytest.raises(StorageError, match=rf"'var'.*{2**63}"):
            pdevice.append_block(f, [(1, (2, 2**63))])

    def test_var_slot_is_the_tagged_encoding(self, pdevice):
        records = [(7, (1, 2, 3)), (-1, ())]
        f = pdevice.create("var", record_size=1)
        pdevice.append_block(f, records)
        slot = f.path.read_bytes()
        payload = slot[4:]
        assert struct.unpack_from("<I", slot)[0] == zlib.crc32(payload)
        encoded = encode_records(records)
        assert payload == encoded.ljust(len(payload), b"\0")
        assert list(pdevice.read_block(f, 0, sequential=True)) == records


class TestNamespace:
    def test_delete_removes_file(self, tmp_path, pdevice):
        ef = ExternalFile.from_records(pdevice, "data", [(1, 2)], 8)
        path = ef._file.path
        ef.delete()
        assert not path.exists()
        assert not pdevice.exists("data")

    def test_rename(self, pdevice):
        ef = ExternalFile.from_records(pdevice, "old", [(1, 2)], 8)
        pdevice.rename("old", "new")
        again = ExternalFile.open(pdevice, "new")
        assert list(again.scan()) == [(1, 2)]

    def test_awkward_names_sanitized(self, pdevice):
        ef = ExternalFile.from_records(pdevice, "a/b c:d", [(1, 2)], 8)
        assert list(ef.scan()) == [(1, 2)]


class TestPersistence:
    def test_reopen_after_close(self, tmp_path):
        records = [(i, i + 1) for i in range(30)]
        with PersistentBlockDevice(tmp_path / "d", block_size=64) as device:
            ExternalFile.from_records(device, "kept", records, 8)
        reopened = PersistentBlockDevice(tmp_path / "d", block_size=64)
        ef = ExternalFile.open(reopened, "kept")
        assert list(ef.scan()) == records
        assert ef.num_records == 30

    def test_reopen_wrong_block_size_rejected(self, tmp_path):
        with PersistentBlockDevice(tmp_path / "d", block_size=64):
            pass
        with pytest.raises(StorageError):
            PersistentBlockDevice(tmp_path / "d", block_size=128)

    def test_overwrite_counts_survive_reopen(self, tmp_path):
        with PersistentBlockDevice(tmp_path / "d", block_size=64) as device:
            ef = ExternalFile.from_records(
                device, "data", [(i, 0) for i in range(16)], 8
            )
            device.overwrite_block(ef._file, 0, [(5, 5)])
        reopened = PersistentBlockDevice(tmp_path / "d", block_size=64)
        ef = ExternalFile.open(reopened, "data")
        assert ef.num_records == 9


class TestFullPipeline:
    def test_ext_scc_on_persistent_device(self, tmp_path):
        edges = random_edges(50, 120, seed=4)
        device = PersistentBlockDevice(tmp_path / "d", block_size=64)
        memory = MemoryBudget(300)
        edge_file = EdgeFile.from_edges(device, "E", edges)
        node_file = NodeFile.from_ids(device, "V", range(50), memory, presorted=True)
        out = ExtSCC(ExtSCCConfig.optimized()).run(device, edge_file, memory,
                                                   nodes=node_file)
        assert out.num_iterations >= 1
        assert out.result == reference_sccs(edges, 50)
        assert out.io.random == 0

    def test_dfs_scc_on_persistent_device(self, tmp_path):
        from repro.baselines import dfs_scc

        edges = random_edges(40, 90, seed=5)
        device = PersistentBlockDevice(tmp_path / "d", block_size=64)
        memory = MemoryBudget(512)
        edge_file = EdgeFile.from_edges(device, "E", edges)
        node_file = NodeFile.from_ids(device, "V", range(40), memory, presorted=True)
        out = dfs_scc(device, edge_file, node_file, memory)
        assert out.result == reference_sccs(edges, 40)
        assert out.io.random > 0


class TestReadOnlyMode:
    def make_store(self, tmp_path, n=64):
        records = [(i, i * 10) for i in range(n)]
        with PersistentBlockDevice(tmp_path / "store", block_size=64) as device:
            ExternalFile.from_records(device, "data", records, 8)
        return records

    def test_readonly_requires_manifest(self, tmp_path):
        with pytest.raises(StorageError):
            PersistentBlockDevice(tmp_path / "nope", block_size=64,
                                  readonly=True)

    def test_readonly_reads_identical(self, tmp_path):
        records = self.make_store(tmp_path)
        device = PersistentBlockDevice(tmp_path / "store", block_size=64,
                                       readonly=True)
        assert list(ExternalFile.open(device, "data").scan()) == records
        device.close()

    def test_readonly_rejects_every_mutation(self, tmp_path):
        self.make_store(tmp_path)
        device = PersistentBlockDevice(tmp_path / "store", block_size=64,
                                       readonly=True)
        ef = ExternalFile.open(device, "data")
        with pytest.raises(StorageError):
            device.create("new", 8)
        with pytest.raises(StorageError):
            device.delete("data")
        with pytest.raises(StorageError):
            device.rename("data", "other")
        with pytest.raises(StorageError):
            device.append_block(ef._file, [(1, 1)])
        with pytest.raises(StorageError):
            device.overwrite_block(ef._file, 0, [(1, 1)])
        device.close()


class TestSharedHandles:
    def make_store(self, tmp_path, n=64):
        records = [(i, i * 10) for i in range(n)]
        with PersistentBlockDevice(tmp_path / "store", block_size=64) as device:
            ExternalFile.from_records(device, "data", records, 8)
        return records

    def test_open_shared_refcounts(self, tmp_path):
        from repro.io.persistent import open_shared

        self.make_store(tmp_path)
        h1 = open_shared(tmp_path / "store", 64)
        h2 = open_shared(tmp_path / "store", 64)
        assert h1 is h2
        assert h1.refcount == 2
        h1.close()
        assert h1.refcount == 1
        assert h1._closed is False
        h1.close()
        assert h1._closed is True

    def test_reopen_after_full_close(self, tmp_path):
        from repro.io.persistent import open_shared

        self.make_store(tmp_path)
        h1 = open_shared(tmp_path / "store", 64)
        h1.close()
        h2 = open_shared(tmp_path / "store", 64)
        assert h2 is not h1
        h2.close()

    def test_reader_views_have_private_ledgers(self, tmp_path):
        from repro.io.persistent import open_shared

        self.make_store(tmp_path)
        handle = open_shared(tmp_path / "store", 64)
        try:
            v1, v2 = handle.reader(), handle.reader()
            ef = ExternalFile.open(v1, "data")
            ef.read_block_random(0)
            assert v1.stats.total == 1
            assert v2.stats.total == 0
            # The base device's own ledger is not what views charge.
            assert handle.device.stats.total == 0
        finally:
            handle.close()

    def test_view_rejects_mutation(self, tmp_path):
        from repro.io.persistent import open_shared

        self.make_store(tmp_path)
        handle = open_shared(tmp_path / "store", 64)
        try:
            view = handle.reader()
            with pytest.raises(StorageError):
                view.create("new", 8)
            ef = ExternalFile.open(view, "data")
            with pytest.raises(StorageError):
                view.append_block(ef._file, [(1, 1)])
        finally:
            handle.close()


class TestConcurrentReaders:
    def test_k_threads_exact_counts_and_identical_bytes(self, tmp_path):
        """The satellite stress: K clients hammer one read-only device;
        every thread sees byte-identical records and its private ledger
        carries exactly the reads it performed."""
        import threading

        from repro.io.persistent import open_shared

        records = [(i, i * 7) for i in range(128)]  # 16 blocks of 8
        with PersistentBlockDevice(tmp_path / "store", block_size=64) as dev:
            ExternalFile.from_records(dev, "data", records, 8)
        handle = open_shared(tmp_path / "store", 64)
        K, ROUNDS = 8, 5
        results = {}
        ledgers = {}
        errors = []
        barrier = threading.Barrier(K)

        def worker(k):
            try:
                with open_shared(tmp_path / "store", 64) as h:
                    view = h.reader()
                    ef = ExternalFile.open(view, "data")
                    barrier.wait()
                    seen = []
                    for _ in range(ROUNDS):
                        for b in range(ef.num_blocks):
                            seen.append(tuple(ef.read_block_random(b)))
                    results[k] = seen
                    ledgers[k] = view.stats.snapshot()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(K)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        expected_blocks = [
            tuple(records[i:i + 8]) for i in range(0, len(records), 8)
        ]
        for k in range(K):
            assert results[k] == expected_blocks * ROUNDS
            # Views have no buffer pool: every read is charged, exactly.
            assert ledgers[k].rand_reads == ROUNDS * 16
            assert ledgers[k].total == ROUNDS * 16
        assert handle.refcount == 1  # every worker lease released
        handle.close()

    def test_scan_while_random_read(self, tmp_path):
        """Concurrent sequential scans and random reads interleave safely
        (pread has no shared file position)."""
        import threading

        from repro.io.persistent import open_shared

        records = [(i, i) for i in range(256)]
        with PersistentBlockDevice(tmp_path / "store", block_size=64) as dev:
            ExternalFile.from_records(dev, "data", records, 8)
        handle = open_shared(tmp_path / "store", 64)
        errors = []

        def scanner():
            try:
                view = handle.reader()
                for _ in range(10):
                    assert list(ExternalFile.open(view, "data").scan()) == records
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def pecker():
            try:
                view = handle.reader()
                ef = ExternalFile.open(view, "data")
                for i in range(200):
                    block = i % ef.num_blocks
                    assert ef.read_block_random(block)[0] == records[block * 8]
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=scanner) for _ in range(3)]
        threads += [threading.Thread(target=pecker) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        handle.close()


def _rewrite_count_header(path: Path, slot_bytes: int, index: int, count: int) -> None:
    """Hand-write slot ``index`` with a new count header and a CRC that
    matches it: a slot that passes the checksum but lies about its size."""
    with open(path, "r+b") as fh:
        fh.seek(index * slot_bytes)
        slot = fh.read(slot_bytes)
        payload = struct.pack("<I", count) + slot[8:]
        fh.seek(index * slot_bytes)
        fh.write(struct.pack("<I", zlib.crc32(payload)) + payload)


class TestBadCountHeader:
    @pytest.mark.parametrize("record_size, count", [
        (8, 9), (8, 2**32 - 1), (1, 65), (1, 2**32 - 1),
    ])
    def test_count_beyond_capacity_is_corrupt(self, tmp_path, record_size, count):
        records = [(i, i) for i in range(8)] if record_size == 8 else [(1, (2,))]
        with PersistentBlockDevice(tmp_path / "store", block_size=64) as device:
            f = device.create("data", record_size)
            device.append_block(f, records)
            device.append_block(f, records)
            path, slot_bytes = f.path, f.slot_bytes
        _rewrite_count_header(path, slot_bytes, 1, count)
        with open_shared(tmp_path / "store", 64) as handle:
            view = handle.reader()
            f = view.open("data")
            assert list(view.read_block(f, 0, sequential=True)) == records
            with pytest.raises(CorruptBlockError) as info:
                view.read_block(f, 1, sequential=True)
            assert (info.value.name, info.value.index) == ("data", 1)
            assert view.stats.total == 1  # the corrupt read is not charged
        reopened = PersistentBlockDevice(tmp_path / "store", block_size=64)
        with pytest.raises(CorruptBlockError):
            reopened.read_block(reopened.open("data"), 1, sequential=True)

    def test_count_at_capacity_is_read(self, tmp_path):
        """The bound is inclusive: a full block's header is legal."""
        with PersistentBlockDevice(tmp_path / "store", block_size=64) as device:
            f = device.create("data", 8)
            device.append_block(f, [(i, -i) for i in range(3)])
            path, slot_bytes = f.path, f.slot_bytes
        _rewrite_count_header(path, slot_bytes, 0, 8)
        with open_shared(tmp_path / "store", 64) as handle:
            view = handle.reader()
            block = view.read_block(view.open("data"), 0, sequential=True)
        # The zero padding decodes as (0, 0) records.
        assert list(block) == [(i, -i) for i in range(3)] + [(0, 0)] * 5


# -- slot round trip ----------------------------------------------------------

BLOCK_SIZE = 128


def reference_slot_payload(records, fields: int) -> bytes:
    """The fixed-width slot payload built one field at a time: a ``<I``
    count, each field as ``<q``, zero-padded to the slot's capacity."""
    capacity = BLOCK_SIZE // (4 * fields)
    parts = [struct.pack("<I", len(records))]
    for record in records:
        for value in record:
            parts.append(struct.pack("<q", value))
    return b"".join(parts).ljust(4 + capacity * fields * 8, b"\0")


@st.composite
def slot_files(draw):
    fields = draw(st.integers(1, 4))
    capacity = BLOCK_SIZE // (4 * fields)
    value = st.one_of(
        st.sampled_from([INT64_MIN, INT64_MAX, -1, 0]),
        st.integers(INT64_MIN, INT64_MAX),
    )
    block = st.lists(
        st.tuples(*[value] * fields), min_size=1, max_size=capacity
    )
    return fields, draw(st.lists(block, min_size=1, max_size=3))


class TestSlotRoundTrip:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(slot_files())
    @example((1, [[(INT64_MIN,), (INT64_MAX,)]]))
    @example((4, [[(INT64_MAX, INT64_MIN, 0, -1)] * 8, [(1, 2, 3, 4)]]))
    def test_encode_matches_reference_and_decodes_back(self, case):
        fields, blocks = case
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp) / "store"
            with PersistentBlockDevice(directory, block_size=BLOCK_SIZE) as device:
                f = device.create("data", 4 * fields)
                for records in blocks:
                    device.append_block(f, records)
                for index, records in enumerate(blocks):
                    assert device.read_block(f, index, sequential=True) == records
                raw, slot_bytes = f.path.read_bytes(), f.slot_bytes
            assert len(raw) == slot_bytes * len(blocks)
            for index, records in enumerate(blocks):
                slot = raw[index * slot_bytes:(index + 1) * slot_bytes]
                assert slot[4:] == reference_slot_payload(records, fields)
                assert struct.unpack_from("<I", slot)[0] == zlib.crc32(slot[4:])
            with open_shared(directory, BLOCK_SIZE) as handle:
                view = handle.reader()
                f = view.open("data")
                for index, records in enumerate(blocks):
                    assert view.read_block(f, index, sequential=True) == records
