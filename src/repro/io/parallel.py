"""Sharded multi-channel parallelism: striped devices, worker pools, and
the makespan metric.

The paper's model charges every block I/O to one global ledger, which
measures *work*.  A disk array (or SSD with independent channels) overlaps
transfers, so the wall-clock-relevant quantity is the *critical path*: the
busiest channel's share of each phase.  This module adds that second axis
without disturbing the first:

* :class:`StripedDevice` — a :class:`~repro.io.blocks.BlockDevice` that
  stripes every file's blocks across ``channels`` independent channels
  (RAID-0 style, ``(file.uid + block_index) % K``) and keeps one
  :class:`~repro.io.stats.IOStats` ledger per channel *in addition to* the
  unchanged global ledger.  Every charge goes to both, so totals, phase
  attribution, budgets, and crash ordinals are identical to the plain
  device — striping only *partitions* the ledger.

* :class:`MakespanMeter` — derives the critical-path I/O count from the
  per-channel ledgers: for each top-level phase, the busiest channel's
  delta; summed over phases (plus the busiest channel's unattributed
  residual).  With one channel the makespan equals the total exactly, so
  ``K=1`` reproduces today's numbers.

* :class:`WorkerPool` — a tiny executor abstraction (``serial`` or
  ``threads``) that partitionable operators use to run shards.  The
  *serial* backend executes thunks in submission order on the calling
  thread, so ledgers and fault-injection ordinals stay bit-for-bit
  deterministic; the *threads* backend overlaps shards and relies on the
  ledger's internal lock (totals are order-independent sums).  Operators
  are factored so the records and charges they produce are identical
  under either backend — parallelism here is task-level, never
  record-level, which is what keeps the K=1 invariant exact.

Makespan is a property of the striping geometry, not of the executor:
the same run measured on a ``StripedDevice`` reports the same makespan
whether its shards ran on threads or serially.  The scaling benchmark
exploits this — it runs the deterministic serial backend and reports the
modeled critical path.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar

from repro.exceptions import StorageError, WorkerCrashError
from repro.io.blocks import BlockDevice, DiskFile
from repro.io.parity import ParityStore
from repro.io.stats import IOBudget, IOSnapshot, IOStats, REPAIR_PHASE

__all__ = [
    "WorkerPool",
    "StripedDevice",
    "MakespanMeter",
    "EXECUTOR_BACKENDS",
    "shard_ranges",
]

T = TypeVar("T")

EXECUTOR_BACKENDS = ("serial", "threads")
"""Recognized :class:`WorkerPool` backends.  ``serial`` is the default
everywhere: it keeps crash ordinals and hypothesis traces deterministic.
``threads`` is opt-in for callers that want real overlap."""


class WorkerPool:
    """A fixed-width pool of workers behind a two-backend facade.

    Args:
        workers: shard width ``K``; partitionable operators split their
            input into up to ``K`` shards.
        backend: ``"serial"`` (run thunks in order on the calling thread),
            or ``"threads"`` (a :class:`ThreadPoolExecutor` of ``K``
            threads).

    Both backends present the same barrier semantics: :meth:`run` returns
    results in submission order and re-raises the first exception.
    """

    def __init__(self, workers: int = 1, backend: str = "serial") -> None:
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        if backend not in EXECUTOR_BACKENDS:
            raise ValueError(
                f"unknown executor backend {backend!r}; choose from {EXECUTOR_BACKENDS}"
            )
        self.workers = workers
        self.backend = backend
        self._executor: Optional[ThreadPoolExecutor] = None
        self._lock = threading.Lock()
        # Back-reference to the device this pool is attached to (set by
        # BlockDevice.attach_workers).  Through it the supervisor reaches
        # the fault schedule (simulated worker faults), the fault policy
        # (per-task deadline), and the health ledger.  None for pools used
        # standalone — every access is guarded.
        self._device: Optional[BlockDevice] = None
        # Nested submissions (a parallel sort inside a parallel operator)
        # run inline on the worker thread: with all K threads occupied by
        # outer tasks, queued inner tasks would never start and the outer
        # barrier would deadlock waiting on them.
        self._in_task = threading.local()

    def _threads(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(max_workers=self.workers)
            return self._executor

    # -- supervision -------------------------------------------------------

    def _health(self):
        device = self._device
        return device.stats.health if device is not None else None

    def _record_degradation(self, message: str) -> None:
        health = self._health()
        if health is not None:
            health.record_event(message)

    def _record_redispatch(self, exc: Exception) -> None:
        health = self._health()
        if health is not None:
            health.redispatches += 1
            health.record_event(f"re-dispatched task after: {exc}")

    def _task_timeout(self) -> Optional[float]:
        device = self._device
        policy = getattr(device, "fault_policy", None) if device is not None else None
        return policy.task_timeout if policy is not None else None

    def _guard(self, thunk: Callable[[], T]) -> Callable[[], T]:
        """Wrap a thunk so scheduled worker faults fire at dispatch.

        The fault fires *before* the task performs any I/O, so a replayed
        task charges exactly what the original would have — re-dispatch is
        visible in the health ledger, never in the I/O ledger.
        """
        device = self._device
        schedule = getattr(device, "fault_schedule", None) if device is not None else None
        if schedule is None:
            return thunk

        def call() -> T:
            spec = schedule.on_task(device)
            if spec is not None:
                detail = (
                    "simulated crash" if spec.kind == "worker-die"
                    else "per-task deadline expired"
                )
                raise WorkerCrashError(spec.kind, f"{detail} (task #{schedule.task_ordinal})")
            return thunk()

        return call

    def _call_supervised(self, thunk: Callable[[], T]) -> T:
        """Run one thunk inline, re-dispatching it once if a scheduled
        worker fault kills the first dispatch (tasks are pure)."""
        try:
            return self._guard(thunk)()
        except WorkerCrashError as exc:
            self._record_redispatch(exc)
            return thunk()

    def _inline(self) -> bool:
        return (
            self.backend == "serial"
            or self.workers == 1
            or getattr(self._in_task, "active", False)
        )

    def _wrap(self, thunk: Callable[[], T]) -> Callable[[], T]:
        def call() -> T:
            self._in_task.active = True
            try:
                return thunk()
            finally:
                self._in_task.active = False

        return call

    def run(self, thunks: Sequence[Callable[[], T]]) -> List[T]:
        """Execute all ``thunks``; barrier; results in submission order.

        Supervised: a task killed by a scheduled worker fault, a worker
        whose future times out past the policy's per-task deadline, or a
        thread backend that cannot accept submissions is detected here and
        the affected task re-dispatched inline (tasks are pure, so replay
        is safe); the re-dispatch and any executor degradation are
        recorded in the device's health ledger.
        """
        thunks = list(thunks)
        if self._inline() or len(thunks) <= 1:
            return [self._call_supervised(thunk) for thunk in thunks]
        try:
            futures = [
                self._threads().submit(self._wrap(self._guard(thunk)))
                for thunk in thunks
            ]
        except RuntimeError as exc:  # executor shut down mid-abort
            self._record_degradation(f"executor degraded threads -> serial: {exc}")
            return [self._call_supervised(thunk) for thunk in thunks]
        timeout = self._task_timeout()
        results: List[T] = []
        for thunk, future in zip(thunks, futures):
            try:
                results.append(future.result(timeout=timeout))
            except WorkerCrashError as exc:
                self._record_redispatch(exc)
                results.append(self._wrap(thunk)())
            except FutureTimeoutError:
                exc = WorkerCrashError(
                    "worker-hang", f"no result within {timeout}s deadline"
                )
                self._record_redispatch(exc)
                results.append(self._wrap(thunk)())
        return results

    def map(self, fn: Callable[[T], object], items: Iterable[T]) -> List[object]:
        """``run`` over one function applied to each item."""
        return self.run([(lambda item=item: fn(item)) for item in items])

    def run_windowed(
        self, thunks: Iterable[Callable[[], T]], window: Optional[int] = None
    ) -> Iterator[T]:
        """Execute a (possibly long) stream of thunks with at most
        ``window`` in flight, yielding results in submission order.

        Classic run formation uses this to overlap writing run *i* with
        buffering run *i+1* without holding every run in memory.
        """
        limit = max(1, window if window is not None else self.workers)
        if self._inline():
            for thunk in thunks:
                yield self._call_supervised(thunk)
            return
        pending: List[Tuple[Callable[[], T], object]] = []
        executor = self._threads()
        timeout = self._task_timeout()
        for thunk in thunks:
            pending.append((thunk, executor.submit(self._wrap(self._guard(thunk)))))
            while len(pending) >= limit:
                yield self._drain_one(pending, timeout)
        while pending:
            yield self._drain_one(pending, timeout)

    def _drain_one(self, pending: List, timeout: Optional[float]) -> T:
        thunk, future = pending.pop(0)
        try:
            return future.result(timeout=timeout)
        except (WorkerCrashError, FutureTimeoutError) as exc:
            self._record_redispatch(exc)
            return self._wrap(thunk)()

    def close(self) -> None:
        """Shut the thread backend down (no-op for serial).

        Safe to call twice, and exception-safe: the executor is detached
        under the lock before its shutdown, so a ``KeyboardInterrupt``
        delivered during the shutdown still leaves the pool usable — the
        next submission lazily recreates its executor.
        """
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WorkerPool(workers={self.workers}, backend={self.backend!r})"


def shard_ranges(num_blocks: int, shards: int) -> List[Tuple[int, int]]:
    """Split ``[0, num_blocks)`` into up to ``shards`` contiguous
    ``(start, stop)`` ranges of near-equal size (empty list when the file
    has no blocks).  Scanning the ranges in order charges exactly what one
    whole-file scan charges, which is what makes block-range sharding safe
    for the ledger at any shard count."""
    if shards < 1:
        raise ValueError(f"shards must be at least 1, got {shards}")
    if num_blocks <= 0:
        return []
    shards = min(shards, num_blocks)
    base, extra = divmod(num_blocks, shards)
    ranges: List[Tuple[int, int]] = []
    start = 0
    for i in range(shards):
        stop = start + base + (1 if i < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


class StripedDevice(BlockDevice):
    """A block device striped over ``channels`` independent I/O channels.

    Block ``i`` of a file lives on channel ``(file.uid + i) % K`` — the
    uid offset rotates the starting channel per file so small files do not
    all hammer channel 0.  Each channel owns an :class:`IOStats` ledger
    that shares the main ledger's phase stack (so per-channel numbers are
    attributed to the same phase labels); every block charge lands on both
    the main ledger and the owning channel, making the channel ledgers an
    exact partition of the main one.

    Budgets and fault injection stay on the main ledger/device path, so a
    striped run aborts and crashes at exactly the same block ordinal as an
    unstriped one.

    With ``parity=True`` the device additionally keeps a RAID-5-style
    parity channel over the K data channels (see
    :mod:`repro.io.parity`): every data-block write is mirrored by one
    parity read-modify-write charged to the parity channel's own ledger
    (and counted in ``health.parity_writes``) — *not* to the main ledger,
    so enabling parity never moves a baseline I/O counter.  In exchange, a
    CRC-failed block or a block on a downed channel is *read-repaired*:
    reconstructed from the stripe's survivors plus parity, with the
    reconstruction traffic charged to the dedicated ``repair`` label and
    the makespan meter extended over the parity channel.
    """

    def __init__(
        self,
        block_size: int = 4096,
        stats: Optional[IOStats] = None,
        budget: Optional[IOBudget] = None,
        channels: int = 1,
        parity: bool = False,
    ) -> None:
        super().__init__(block_size=block_size, stats=stats, budget=budget)
        if channels < 1:
            raise StorageError(f"need at least one channel, got {channels}")
        self.channels: List[IOStats] = []
        for _ in range(channels):
            channel = IOStats()
            # Same list object: attribution on the channel follows the
            # phases the orchestrator pushes on the main ledger.
            channel._phase_stack = self.stats._phase_stack
            self.channels.append(channel)
        self.parity_store: Optional[ParityStore] = None
        self.parity_stats: Optional[IOStats] = None
        if parity:
            self.parity_store = ParityStore(group_width=channels)
            self.parity_stats = IOStats()
            self.parity_stats._phase_stack = self.stats._phase_stack

    @property
    def num_channels(self) -> int:
        """Number of independent channels (the striping width ``K``)."""
        return len(self.channels)

    @property
    def has_parity(self) -> bool:
        """Whether the device keeps a parity channel (degraded mode)."""
        return self.parity_store is not None

    def _channel_index(self, f: DiskFile, index: int) -> int:
        return (f.uid + index) % len(self.channels)

    def _channel(self, f: DiskFile, index: int) -> IOStats:
        return self.channels[self._channel_index(f, index)]

    def _charge_read(self, f: DiskFile, index: int, sequential: bool) -> None:
        super()._charge_read(f, index, sequential)
        self._channel(f, index).record_read(sequential=sequential)

    def _charge_write(self, f: DiskFile, index: int, sequential: bool) -> None:
        super()._charge_write(f, index, sequential)
        self._channel(f, index).record_write(sequential=sequential)

    def _charge_fault(self, f: DiskFile, index: Optional[int], label: str,
                      is_read: bool, sequential: bool) -> None:
        super()._charge_fault(f, index, label, is_read, sequential)
        position = index if index is not None else len(f.blocks)
        self._channel(f, position).record_fault_io(label, is_read, sequential)

    def channel_totals(self) -> List[int]:
        """Total block I/Os per channel (sums to the main ledger's total;
        the parity channel, when present, is accounted separately)."""
        return [channel.total for channel in self.channels]

    # -- parity maintenance ------------------------------------------------

    def _append_impl(self, f: DiskFile, records: Sequence) -> None:
        index = len(f.blocks)
        super()._append_impl(f, records)
        if self.parity_store is not None:
            self._update_parity(f, index, None, f.blocks[index], sequential=True)

    def _overwrite_impl(self, f: DiskFile, index: int, records: Sequence,
                        sequential: bool) -> None:
        old = f.blocks[index] if self.parity_store is not None else None
        super()._overwrite_impl(f, index, records, sequential)
        if self.parity_store is not None:
            self._update_parity(f, index, old, f.blocks[index], sequential=sequential)

    def _update_parity(self, f: DiskFile, index: int, old, new,
                       sequential: bool) -> None:
        self.parity_store.update(f.uid, index, old, new)
        # One read-modify-write of the group's parity block, charged to
        # the parity channel only (the main ledger is the *data* cost
        # model and must not move when parity is switched on).
        self.parity_stats.record_write(sequential=sequential)
        self.stats.health.parity_writes += 1

    def delete(self, name: str) -> None:
        f = self._files.get(name)
        super().delete(name)
        if self.parity_store is not None and f is not None:
            self.parity_store.drop_file(f.uid)

    # -- degraded mode -----------------------------------------------------

    def _repair_block(self, f: DiskFile, index: int, rewrite: bool) -> bool:
        """Reconstruct ``f[index]`` from its stripe survivors + parity.

        Charges one random read per surviving stripe member and one parity
        read to the ``repair`` label; with ``rewrite=True`` (bit-rot — the
        stored block is damaged) the reconstruction is also written back
        in place, one more ``repair`` write.  With ``rewrite=False`` (a
        channel outage — the data is fine, the channel is not) the block
        is served degraded and left alone.  Returns False when the device
        has no parity; the caller then escalates.
        """
        if self.parity_store is None or index >= len(f.blocks):
            return False
        start, stop = self.parity_store.group_range(index)
        siblings = []
        for j in range(start, min(stop, len(f.blocks))):
            if j == index:
                continue
            siblings.append(f.blocks[j])
            self._charge_fault(f, j, REPAIR_PHASE, is_read=True, sequential=False)
        # The parity block read: main ledger under `repair`, parity channel
        # ledger for the makespan.
        self.stats.record_fault_io(REPAIR_PHASE, True, False)
        self.parity_stats.record_read(sequential=False)
        records = self.parity_store.reconstruct(f.uid, index, siblings)
        if records is None:
            return False
        self.stats.health.repairs += 1
        if rewrite:
            f.blocks[index] = tuple(records)
            f.block_checksums[index] = self._block_checksum(records)
            if self.pool is not None:
                self.pool.invalidate_block(f, index)
            self.stats.health.record_event(
                f"read-repaired block {index} of {f.name!r} from parity"
            )
            self._charge_fault(f, index, REPAIR_PHASE, is_read=False, sequential=False)
        return True


class MakespanMeter:
    """Measures critical-path block I/Os over a window of device activity.

    Start the meter, run the workload, then read :meth:`makespan`:

    * per *top-level phase* (labels pushed while the phase stack was
      empty — contraction, semi-scc, expansion, recovery, ...), the
      busiest channel's I/O delta is the phase's critical path, because
      phases are sequential barriers while channels overlap within one;
    * I/O outside any phase (input loading, the final result scan) is a
      per-channel residual; its busiest channel is one more critical path
      segment.

    ``makespan = sum(max-per-channel phase delta) + max residual``.  On an
    unstriped device (or one channel) every maximum is the only channel's
    delta and the makespan equals the total I/O delta exactly — the K=1
    identity the scaling tests pin.
    """

    def __init__(self, device: BlockDevice) -> None:
        self.device = device
        self.stats = device.stats
        self._channels: Sequence[IOStats] = list(
            getattr(device, "channels", None) or [device.stats]
        )
        # The parity channel, when present, is one more independent
        # channel on the critical path: its read-modify-writes overlap the
        # data channels' transfers but can themselves become the phase
        # bottleneck (the classic RAID-5 write penalty).
        parity_stats = getattr(device, "parity_stats", None)
        if parity_stats is not None:
            self._channels.append(parity_stats)
        self._start_totals = [channel.total for channel in self._channels]
        self._start_by_phase: List[Dict[str, int]] = [
            {label: snap.total for label, snap in channel.by_phase.items()}
            for channel in self._channels
        ]

    def _phase_delta(self, channel_index: int, label: str) -> int:
        channel = self._channels[channel_index]
        start = self._start_by_phase[channel_index].get(label, 0)
        return channel.by_phase.get(label, IOSnapshot()).total - start

    def makespan(self) -> int:
        """Critical-path block I/Os since the meter was created."""
        labels = list(self.stats.top_level_phases)
        total = 0
        residuals = []
        for ci in range(len(self._channels)):
            channel_total = self._channels[ci].total - self._start_totals[ci]
            attributed = sum(self._phase_delta(ci, label) for label in labels)
            residuals.append(channel_total - attributed)
        for label in labels:
            total += max(
                self._phase_delta(ci, label) for ci in range(len(self._channels))
            )
        if residuals:
            total += max(0, max(residuals))
        return total

    def phase_makespans(self) -> Dict[str, int]:
        """Per-top-level-phase critical path (for reporting)."""
        return {
            label: max(
                self._phase_delta(ci, label) for ci in range(len(self._channels))
            )
            for label in self.stats.top_level_phases
        }

    def channel_snapshot(self) -> List[int]:
        """Per-channel I/O deltas since the meter started."""
        return [
            channel.total - start
            for channel, start in zip(self._channels, self._start_totals)
        ]
