"""Transient-fault tolerance: retry/backoff policy, fault schedules,
parity read-repair, worker supervision, and the chaos property suite.

The load-bearing invariant, checked by the hypothesis suite at the bottom:
a run that survives an injected fault produces byte-identical SCC labels,
and the *only* ledger difference against the fault-free run is the
``retry`` / ``repair`` fault labels — every algorithm phase charges
exactly the same I/Os.
"""

import os
import stat
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ExtSCC, ExtSCCConfig, compute_sccs
from repro.exceptions import (
    ChannelOutageError,
    CorruptBlockError,
    RetryExhaustedError,
    StorageError,
    TransientIOError,
    WorkerCrashError,
)
from repro.graph.edge_file import EdgeFile, NodeFile
from repro.io.blocks import BlockDevice
from repro.io.memory import MemoryBudget
from repro.io.parallel import StripedDevice, WorkerPool
from repro.io.parity import ParityStore, decode_records, encode_records, xor_bytes
from repro.io.stats import FAULT_PHASES, IOSnapshot, REPAIR_PHASE, RETRY_PHASE
from repro.recovery import FaultPolicy, FaultSchedule, FaultSpec


# ---------------------------------------------------------------------------
# FaultPolicy


class TestFaultPolicy:
    def test_backoff_is_deterministic(self):
        a = FaultPolicy(seed=7)
        b = FaultPolicy(seed=7)
        for attempt in (1, 2, 3):
            assert a.backoff_seconds(attempt, token=42) == \
                b.backoff_seconds(attempt, token=42)

    def test_backoff_grows_exponentially_within_jitter_bounds(self):
        policy = FaultPolicy(backoff_base=0.01, backoff_factor=2.0, jitter=0.1)
        for attempt in (1, 2, 3, 4):
            base = 0.01 * 2.0 ** (attempt - 1)
            seconds = policy.backoff_seconds(attempt)
            assert base <= seconds < base * 1.1

    def test_zero_jitter_is_exact(self):
        policy = FaultPolicy(backoff_base=0.5, backoff_factor=3.0, jitter=0.0)
        assert policy.backoff_seconds(1) == 0.5
        assert policy.backoff_seconds(2) == 1.5

    def test_token_varies_jitter_stream(self):
        policy = FaultPolicy(jitter=0.5)
        assert policy.backoff_seconds(1, token=1) != \
            policy.backoff_seconds(1, token=2)

    def test_parse_full_spec(self):
        policy = FaultPolicy.parse(
            "retries=5,backoff=0.01,factor=3,jitter=0,seed=9,"
            "deadline=2.5,timeout=1.5,sleep=1"
        )
        assert policy.max_retries == 5
        assert policy.backoff_base == 0.01
        assert policy.backoff_factor == 3.0
        assert policy.jitter == 0.0
        assert policy.seed == 9
        assert policy.phase_deadline == 2.5
        assert policy.task_timeout == 1.5
        assert policy.sleep is True

    def test_parse_empty_is_default(self):
        assert FaultPolicy.parse("") == FaultPolicy()

    @pytest.mark.parametrize("spec", ["bogus=1", "retries", "retries=x"])
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(ValueError):
            FaultPolicy.parse(spec)

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            FaultPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            FaultPolicy(backoff_base=-0.1)


class TestFaultSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("meteor-strike", at_io=1)

    def test_device_kind_needs_exactly_one_trigger(self):
        with pytest.raises(ValueError):
            FaultSpec("transient-read")
        with pytest.raises(ValueError):
            FaultSpec("transient-read", at_io=1, in_phase="semi-scc")

    def test_worker_kind_needs_task_trigger(self):
        with pytest.raises(ValueError):
            FaultSpec("worker-die", at_io=1)
        FaultSpec("worker-die", at_task=1)  # fine


# ---------------------------------------------------------------------------
# Transient faults + retry on the base device


def _loaded_device(num_blocks=4, **kwargs):
    device = BlockDevice(block_size=64, **kwargs)
    f = device.create("data", record_size=2)
    for i in range(num_blocks):
        device.append_block(f, [(i, i + 1)] * 4)
    return device, f


class TestTransientRetry:
    def test_read_retries_then_succeeds(self):
        device, f = _loaded_device()
        FaultSchedule.single("transient-read", at_io=1, failures=2).attach(device)
        device.attach_policy(FaultPolicy(max_retries=3))
        before = device.stats.total
        assert device.read_block(f, 0, sequential=True) == ((0, 1),) * 4
        health = device.stats.health
        assert health.retries == 2
        assert device.stats.phase_total(RETRY_PHASE) == 2
        # failed attempts + the successful read are all charged
        assert device.stats.total - before == 3

    def test_write_retries_then_succeeds(self):
        device, f = _loaded_device()
        FaultSchedule.single("transient-write", at_io=1, failures=1).attach(device)
        device.attach_policy(FaultPolicy(max_retries=3))
        device.append_block(f, [(9, 9)] * 4)
        assert device.stats.health.retries == 1
        assert device.read_block(f, 4, sequential=False) == ((9, 9),) * 4

    def test_retry_exhaustion_escalates(self):
        device, f = _loaded_device()
        FaultSchedule.single("transient-read", at_io=1, failures=10).attach(device)
        device.attach_policy(FaultPolicy(max_retries=2))
        with pytest.raises(RetryExhaustedError) as excinfo:
            device.read_block(f, 0, sequential=True)
        assert excinfo.value.attempts == 3
        assert device.stats.health.escalations == 1
        # every failed attempt was still charged to the retry label
        assert device.stats.phase_total(RETRY_PHASE) == 3

    def test_phase_deadline_escalates_early(self):
        device, f = _loaded_device()
        FaultSchedule.single("transient-read", at_io=1, failures=10).attach(device)
        device.attach_policy(FaultPolicy(max_retries=50, phase_deadline=0.0))
        with pytest.raises(RetryExhaustedError, match="deadline"):
            device.read_block(f, 0, sequential=True)
        assert device.stats.health.escalations == 1

    def test_retries_do_not_shift_later_fault_ordinals(self):
        # Two schedules, same at_io targets; the first run retries, the
        # second doesn't — the second fault must land on the same logical
        # operation either way.
        def run(failures):
            device, f = _loaded_device()
            schedule = FaultSchedule([
                FaultSpec("transient-read", at_io=1, failures=failures),
                FaultSpec("transient-read", at_io=3, failures=1),
            ]).attach(device)
            device.attach_policy(FaultPolicy(max_retries=5))
            for i in range(3):
                device.read_block(f, i, sequential=True)
            return [s.fired_at for s in schedule.specs]

        assert run(3) == run(1)

    def test_default_policy_applies_without_attach(self):
        device, f = _loaded_device()
        FaultSchedule.single("transient-read", at_io=1, failures=2).attach(device)
        assert device.read_block(f, 0, sequential=True) == ((0, 1),) * 4
        assert device.stats.health.retries == 2

    def test_budget_still_enforced_on_retries(self):
        from repro.exceptions import IOBudgetExceeded
        from repro.io.stats import IOBudget

        device, f = _loaded_device()
        device.stats.budget = IOBudget(device.stats.total + 2)
        FaultSchedule.single("transient-read", at_io=1, failures=5).attach(device)
        device.attach_policy(FaultPolicy(max_retries=10))
        with pytest.raises(IOBudgetExceeded):
            device.read_block(f, 0, sequential=True)


# ---------------------------------------------------------------------------
# Corruption + parity read-repair


def _striped(num_blocks=4, parity=True, channels=2):
    device = StripedDevice(block_size=64, channels=channels, parity=parity)
    f = device.create("data", record_size=2)
    for i in range(num_blocks):
        device.append_block(f, [(i, i + 1)] * 4)
    return device, f


class TestCorruptRepair:
    def test_corrupt_block_is_read_repaired_from_parity(self):
        device, f = _striped()
        FaultSchedule.single("corrupt", at_io=1).attach(device)
        assert device.read_block(f, 0, sequential=True) == ((0, 1),) * 4
        health = device.stats.health
        assert health.repairs == 1
        assert any("read-repaired" in event for event in health.events)
        assert device.stats.phase_total(REPAIR_PHASE) > 0
        # the block was rewritten: a later read needs no repair
        assert device.read_block(f, 0, sequential=False) == ((0, 1),) * 4
        assert health.repairs == 1

    def test_repaired_block_passes_verification(self):
        device, f = _striped()
        FaultSchedule.single("corrupt", at_io=1).attach(device)
        device.read_block(f, 0, sequential=True)
        # verify_block stays outside the fault machinery by contract
        assert device.verify_block(f, 0) == ((0, 1),) * 4

    def test_corrupt_without_parity_raises(self):
        device, f = _loaded_device()
        FaultSchedule.single("corrupt", at_io=1).attach(device)
        with pytest.raises(CorruptBlockError):
            device.read_block(f, 0, sequential=True)

    def test_parity_maintenance_never_touches_main_ledger(self):
        plain = StripedDevice(block_size=64, channels=2, parity=False)
        withp = StripedDevice(block_size=64, channels=2, parity=True)
        for device in (plain, withp):
            f = device.create("data", record_size=2)
            for i in range(4):
                device.append_block(f, [(i, i)] * 4)
            device.overwrite_block(f, 1, [(7, 7)] * 4)
        assert withp.stats.snapshot() == plain.stats.snapshot()
        assert withp.stats.health.parity_writes == 5
        assert withp.parity_stats.total == 5


class TestChannelOutage:
    def test_outage_reads_served_degraded_from_parity(self):
        device, f = _striped()
        FaultSchedule.single("channel-outage", at_io=1, duration=8).attach(device)
        for i in range(4):
            assert device.read_block(f, i, sequential=True) == ((i, i + 1),) * 4
        health = device.stats.health
        assert health.repairs >= 1
        assert device.stats.phase_total(REPAIR_PHASE) > 0

    def test_outage_write_rides_out_window_under_retry(self):
        device, f = _striped()
        FaultSchedule.single("channel-outage", at_io=1, duration=2).attach(device)
        device.attach_policy(FaultPolicy(max_retries=5))
        device.append_block(f, [(9, 9)] * 4)
        assert device.stats.health.retries >= 1
        assert device.read_block(f, 4, sequential=False) == ((9, 9),) * 4

    def test_outage_on_unstriped_device_degrades_to_transient(self):
        device, f = _loaded_device()
        FaultSchedule.single("channel-outage", at_io=1, duration=2).attach(device)
        device.attach_policy(FaultPolicy(max_retries=5))
        assert device.read_block(f, 0, sequential=True) == ((0, 1),) * 4
        assert device.stats.health.retries >= 1


# ---------------------------------------------------------------------------
# Parity encoding + store


class TestParityStore:
    @pytest.mark.parametrize("records", [
        (),
        ((1, 2), (3, 4)),
        (5, -7, 1 << 40),
        (((1, 2), (3,)), (4,)),
    ])
    def test_encode_decode_roundtrip(self, records):
        assert decode_records(encode_records(records)) == records

    def test_decode_tolerates_trailing_zero_padding(self):
        data = encode_records(((1, 2), (3, 4)))
        assert decode_records(data + b"\x00" * 13) == ((1, 2), (3, 4))

    def test_xor_bytes_pads_shorter_operand(self):
        assert xor_bytes(b"\x0f", b"\xf0\xff") == b"\xff\xff"
        assert xor_bytes(xor_bytes(b"abc", b"xyzw"), b"xyzw") == b"abc\x00"

    def test_reconstruct_any_single_member(self):
        store = ParityStore(group_width=2)
        blocks = {0: ((1, 2), (3, 4)), 1: ((5, 6),)}
        for index, records in blocks.items():
            store.update(7, index, None, records)
        for lost in (0, 1):
            siblings = [blocks[i] for i in blocks if i != lost]
            assert store.reconstruct(7, lost, siblings) == blocks[lost]

    def test_incremental_update_tracks_overwrites(self):
        store = ParityStore(group_width=2)
        store.update(1, 0, None, ((1, 1),))
        store.update(1, 1, None, ((2, 2),))
        store.update(1, 0, ((1, 1),), ((9, 9),))
        assert store.reconstruct(1, 0, [((2, 2),)]) == ((9, 9),)

    def test_drop_file_forgets_parity(self):
        store = ParityStore(group_width=2)
        store.update(1, 0, None, ((1, 1),))
        store.update(2, 0, None, ((2, 2),))
        store.drop_file(1)
        assert store.reconstruct(1, 0, []) is None
        assert len(store) == 1

    def test_concurrent_writers_and_drops_keep_parity_exact(self):
        """Worker threads fold writes into one stripe while another thread
        inserts and drops whole files: no update may be lost and no walk
        of the store may see it change size under it."""
        width, rounds = 4, 300
        store = ParityStore(group_width=width)
        final = {}
        errors = []

        def writer(index):
            old = None
            for step in range(rounds):
                new = ((index, step, step * 7919 + index),)
                store.update(1, index, old, new)
                old = new
            final[index] = old

        def churn():
            try:
                for uid in range(2, 2 + rounds):
                    for index in range(0, 8 * width, width):
                        store.update(uid, index, None, ((uid, index),))
                    store.drop_file(uid)
            except RuntimeError as exc:  # dict changed size during iteration
                errors.append(exc)

        def dropper():
            try:
                for _ in range(rounds):
                    store.drop_file(0)
            except RuntimeError as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer, args=(i,)) for i in range(width)]
            threads += [threading.Thread(target=churn), threading.Thread(target=dropper)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(store) == 1  # every churned file was dropped
        for lost in range(width):
            siblings = [final[i] for i in range(width) if i != lost]
            assert store.reconstruct(1, lost, siblings) == final[lost]

    def test_unsupported_payload_rejected(self):
        with pytest.raises(StorageError):
            encode_records(("strings", "nope"))


# ---------------------------------------------------------------------------
# Worker supervision


def _supervised_pool(backend="threads", workers=2, schedule=None, policy=None):
    device = BlockDevice(block_size=64)
    if schedule is not None:
        schedule.attach(device)
    if policy is not None:
        device.attach_policy(policy)
    pool = WorkerPool(workers=workers, backend=backend)
    device.attach_workers(pool)
    return device, pool


class TestWorkerSupervision:
    def test_dead_worker_task_is_redispatched(self):
        schedule = FaultSchedule.single("worker-die", at_task=1)
        device, pool = _supervised_pool(schedule=schedule)
        try:
            assert pool.run([lambda: 1, lambda: 2, lambda: 3]) == [1, 2, 3]
        finally:
            pool.close()
        health = device.stats.health
        assert health.redispatches == 1
        assert any("re-dispatched" in event for event in health.events)

    def test_hung_worker_task_is_redispatched(self):
        schedule = FaultSchedule.single("worker-hang", at_task=2)
        device, pool = _supervised_pool(schedule=schedule)
        try:
            assert pool.run([lambda: "a", lambda: "b"]) == ["a", "b"]
        finally:
            pool.close()
        assert device.stats.health.redispatches == 1

    def test_serial_inline_path_is_supervised_too(self):
        schedule = FaultSchedule.single("worker-die", at_task=1)
        device, pool = _supervised_pool(backend="serial", workers=1,
                                        schedule=schedule)
        assert pool.run([lambda: 10, lambda: 20]) == [10, 20]
        assert device.stats.health.redispatches == 1

    def test_run_windowed_redispatches(self):
        schedule = FaultSchedule.single("worker-die", at_task=1)
        device, pool = _supervised_pool(schedule=schedule)
        try:
            out = list(pool.run_windowed((lambda i=i: i for i in range(5)),
                                         window=2))
        finally:
            pool.close()
        assert out == list(range(5))
        assert device.stats.health.redispatches == 1

    def test_task_deadline_times_out_and_replays(self):
        device, pool = _supervised_pool(
            policy=FaultPolicy(task_timeout=0.05)
        )
        slow_done = threading.Event()

        def slow():
            if not slow_done.is_set():
                slow_done.set()
                time.sleep(0.3)
            return "slow"

        try:
            assert pool.run([slow, lambda: "fast"]) == ["slow", "fast"]
        finally:
            pool.close()
        assert device.stats.health.redispatches == 1

    def test_faults_never_touch_io_ledger(self):
        schedule = FaultSchedule.single("worker-die", at_task=1)
        device, pool = _supervised_pool(schedule=schedule)
        f = device.create("data", record_size=2)
        try:
            pool.run([
                lambda: device.append_block(f, [(1, 1)]),
                lambda: device.append_block(f, [(2, 2)]),
            ])
        finally:
            pool.close()
        # the re-dispatched task charged exactly one write, like a clean run
        assert device.stats.total == 2
        assert device.stats.health.redispatches == 1

    def test_close_twice_is_safe(self):
        _, pool = _supervised_pool()
        pool.run([lambda: 1, lambda: 2])
        pool.close()
        pool.close()
        # and the pool stays usable: executors are lazily recreated
        assert pool.run([lambda: 3, lambda: 4]) == [3, 4]
        pool.close()

    def test_close_detaches_threads_despite_interrupt(self):
        class Exploding:
            def shutdown(self, wait=True):
                raise KeyboardInterrupt

        pool = WorkerPool(workers=2, backend="threads")
        pool._executor = Exploding()
        with pytest.raises(KeyboardInterrupt):
            pool.close()
        # detached before the shutdown ran, so the interrupted close left
        # no half-closed executor behind: the next run builds a fresh one
        assert pool._executor is None
        try:
            assert pool.run([lambda: 1, lambda: 2]) == [1, 2]
        finally:
            pool.close()


# ---------------------------------------------------------------------------
# Durable manifest sync (satellite regression)


class TestPersistentSyncDurability:
    def test_sync_fsyncs_manifest_then_parent_directory(self, tmp_path, monkeypatch):
        from repro.io.persistent import PersistentBlockDevice

        device = PersistentBlockDevice(str(tmp_path / "dev"), block_size=256)
        calls = []
        real_fsync = os.fsync

        def spy(fd):
            calls.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        device.sync()
        assert "file" in calls and "dir" in calls
        # the directory entry is made durable after the manifest rename
        assert calls.index("dir") > calls.index("file")

    def test_sync_tolerates_unfsyncable_directory(self, tmp_path, monkeypatch):
        from repro.io.persistent import PersistentBlockDevice

        device = PersistentBlockDevice(str(tmp_path / "dev"), block_size=256)

        def refuse(path, flags):
            raise OSError("directories cannot be opened here")

        monkeypatch.setattr(os, "open", refuse)
        device.sync()  # must not raise


# ---------------------------------------------------------------------------
# End-to-end: faults through compute_sccs


class TestComputeSccsFaults:
    def test_fault_run_matches_clean_labels_and_health_delta(self):
        edges = [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)]
        clean = compute_sccs(edges, num_nodes=4, memory_bytes=1 << 14,
                             parity=True)
        schedule = FaultSchedule.single("transient-read", at_io=6, failures=2)
        faulty = compute_sccs(
            edges, num_nodes=4, memory_bytes=1 << 14, parity=True,
            fault_schedule=schedule, fault_policy=FaultPolicy(max_retries=4),
        )
        assert faulty.result.labels == clean.result.labels
        assert clean.health["retries"] == 0
        assert faulty.health["retries"] == 2
        assert faulty.io.total - clean.io.total == 2

    def test_parity_off_by_default(self):
        out = compute_sccs([(0, 1)], num_nodes=2, memory_bytes=1 << 14)
        assert out.health["parity_writes"] == 0


# ---------------------------------------------------------------------------
# Chaos property suite


N_NODES = 10

edges_strategy = st.lists(
    st.tuples(st.integers(0, N_NODES - 1), st.integers(0, N_NODES - 1)),
    min_size=1,
    max_size=30,
)

fault_strategy = st.fixed_dictionaries({
    "kind": st.sampled_from(
        ["transient-read", "transient-write", "corrupt", "channel-outage"]
    ),
    "trigger": st.one_of(
        st.just(("in_phase", "semi-scc")),
        st.tuples(st.just("at_io"), st.integers(1, 12)),
    ),
    "failures": st.integers(1, 2),
})


def _chaos_run(edges, schedule=None, policy=None):
    device = StripedDevice(block_size=256, channels=2, parity=True)
    if policy is not None:
        device.attach_policy(policy)
    if schedule is not None:
        schedule.attach(device)
    memory = MemoryBudget(1 << 14)
    edge_file = EdgeFile.from_edges(device, "edges", edges)
    node_file = NodeFile.from_ids(
        device, "nodes", range(N_NODES), memory, presorted=True
    )
    out = ExtSCC(ExtSCCConfig.optimized()).run(
        device, edge_file, memory, nodes=node_file
    )
    return out, device


CHAOS_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestChaosProperties:
    @CHAOS_SETTINGS
    @given(edges=edges_strategy, fault=fault_strategy)
    def test_single_fault_changes_only_the_fault_ledger(self, edges, fault):
        trigger_key, trigger_value = fault["trigger"]
        kwargs = {trigger_key: trigger_value}
        if fault["kind"] in ("transient-read", "transient-write"):
            kwargs["failures"] = fault["failures"]
        schedule = FaultSchedule.single(fault["kind"], **kwargs)

        clean_out, clean_dev = _chaos_run(edges)
        faulty_out, faulty_dev = _chaos_run(
            edges, schedule=schedule, policy=FaultPolicy(max_retries=6)
        )

        # 1. Output identity: byte-identical SCC labels.
        assert faulty_out.result.labels == clean_out.result.labels

        # 2. Every non-fault phase label charged exactly the same I/Os.
        empty = IOSnapshot()
        labels = set(clean_dev.stats.by_phase) | set(faulty_dev.stats.by_phase)
        for label in labels - set(FAULT_PHASES):
            assert faulty_dev.stats.by_phase.get(label, empty) == \
                clean_dev.stats.by_phase.get(label, empty), label

        # 3. The fault labels are the entire total-ledger delta.
        assert faulty_dev.stats.total - clean_dev.stats.total == \
            faulty_dev.stats.fault_total()
        assert clean_dev.stats.fault_total() == 0

        # 4. Health ledger: clean run spotless (parity maintenance aside);
        #    a fired fault shows up, an unfired one leaves no trace.
        assert clean_dev.stats.health.retries == 0
        assert clean_dev.stats.health.repairs == 0
        if not schedule.fired:
            assert faulty_dev.stats.fault_total() == 0
            assert faulty_dev.stats.health.retries == 0

    @CHAOS_SETTINGS
    @given(edges=edges_strategy)
    def test_policy_and_parity_alone_change_nothing(self, edges):
        baseline_out, baseline_dev = _chaos_run(edges)
        armed_out, armed_dev = _chaos_run(
            edges, policy=FaultPolicy(max_retries=5, phase_deadline=10.0)
        )
        assert armed_out.result.labels == baseline_out.result.labels
        assert armed_dev.stats.snapshot() == baseline_dev.stats.snapshot()
        assert armed_dev.stats.by_phase == baseline_dev.stats.by_phase
