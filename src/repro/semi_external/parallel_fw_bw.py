"""Parallel forward–backward semi-external SCC (worker-sharded scans).

The serial :mod:`~repro.semi_external.forward_backward` solver relaxes
reachability Gauss-Seidel style — a mark set early in a scan propagates
further within the *same* scan, so its round count depends on edge order
and cannot be sharded without changing results.  This solver restates the
scheme so every pass is embarrassingly parallel over contiguous block
ranges of the edge file:

* **Jacobi rounds** — each reachability round reads the *previous* round's
  ``fwd``/``bwd`` bits and stages new marks into fresh buffers, applied
  only after the full scan.  Staging is a pure OR, so shards may mark
  concurrently in any order and the round outcome — and therefore the
  round *count* and the total I/O — is identical for every worker count.
* **Parallel trim rounds** — before pivoting, nodes with no in-edge or no
  out-edge *within their partition* (both endpoints unresolved, same
  partition id) are singleton SCCs and are resolved immediately;
  repeated to a fixpoint.  The ``has_in``/``has_out`` marking is the same
  commutative OR, sharded the same way.

Each shard scans its block range sequentially, so the union of shards
charges exactly one full sequential scan per round — the ledger of a
``K``-worker run is identical, counter for counter, to ``K=1``.  Jacobi
needs more rounds than Gauss-Seidel (no intra-scan propagation), which is
the classic parallelism-versus-depth trade; the makespan meter is what
shows the win on a striped device.

Registered as ``"parallel-fw-bw"`` in
:data:`~repro.semi_external.SEMI_SCC_SOLVERS`; labels are canonical
(min member per SCC), identical to every other solver in the registry.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.constants import SEMI_EXTERNAL_BYTES_PER_NODE
from repro.graph.edge_file import EdgeFile
from repro.io.memory import MemoryBudget
from repro.io.parallel import shard_ranges
from repro.kernels import reachability_kernel
from repro.semi_external.union_find import min_member_labels

__all__ = ["parallel_fw_bw_scc"]

_RESOLVED = -1

Record = Tuple[int, ...]
Block = Sequence[Record]


def _sharded_block_pass(
    edge_file: EdgeFile, fn: Callable[[Iterator[Block]], None]
) -> None:
    """Apply ``fn`` to every edge block, sharded over block ranges when
    the device has a worker pool; one full sequential scan's worth of
    reads either way.  ``fn`` must be a commutative OR-style marking so
    shard order cannot matter."""
    pool = edge_file.device.worker_pool
    if pool is not None and pool.workers > 1:
        ranges = shard_ranges(edge_file.file.num_blocks, pool.workers)
        pool.map(lambda r: fn(edge_file.scan_block_range(r[0], r[1])), ranges)
    else:
        fn(edge_file.scan_blocks())


def parallel_fw_bw_scc(
    edge_file: EdgeFile,
    node_ids: Iterable[int],
    memory: Optional[MemoryBudget] = None,
    max_rounds: Optional[int] = None,
) -> Dict[int, int]:
    """Compute all SCCs with worker-sharded forward–backward search.

    Args:
        edge_file: edges on the simulated disk (scanned sequentially; the
            device's :class:`~repro.io.parallel.WorkerPool`, if any, sets
            the shard width).
        node_ids: all node ids (isolated nodes included).
        memory: when given, assert ``8 * |V| + B <= M`` first.
        max_rounds: safety valve for tests (default: unbounded).

    Returns:
        Canonical labeling ``node -> min id of its SCC`` — identical to
        the serial solvers for every graph and every worker count.
    """
    nodes = list(node_ids)
    n = len(nodes)
    if memory is not None:
        memory.require_at_least(
            SEMI_EXTERNAL_BYTES_PER_NODE * n + edge_file.device.block_size,
            what="semi-external parallel FW-BW SCC",
        )
    kernel = reachability_kernel(nodes)

    part: List[int] = [0] * n  # partition id, _RESOLVED once labeled
    label: List[int] = [0] * n  # pivot index (valid once resolved)
    if n == 0:
        return {}

    active = {0}

    # Trim rounds: resolve dead-end nodes (no in- or no out-edge inside
    # their partition) as singletons, to a fixpoint.  One sharded scan per
    # round; marking is an OR so shard order cannot matter.
    while True:
        has_in = bytearray(n)
        has_out = bytearray(n)

        def mark(blocks: Iterator[Block]) -> None:
            kernel.mark_degrees(blocks, part, has_in, has_out)

        _sharded_block_pass(edge_file, mark)
        trimmed = False
        for i in range(n):
            if part[i] != _RESOLVED and not (has_in[i] and has_out[i]):
                part[i] = _RESOLVED
                label[i] = i
                trimmed = True
        if not trimmed:
            break
    if not any(part[i] in active for i in range(n)):
        active = set()

    rounds = 0
    next_part = 1
    while active:
        rounds += 1
        if max_rounds is not None and rounds > max_rounds:
            raise RuntimeError(f"parallel FW-BW exceeded {max_rounds} rounds")
        # One pivot per active partition: the smallest node id in it.
        pivot_of: Dict[int, int] = {}
        for i in range(n):
            p = part[i]
            if p in active:
                best = pivot_of.get(p)
                if best is None or nodes[i] < nodes[best]:
                    pivot_of[p] = i
        fwd = bytearray(n)
        bwd = bytearray(n)
        for pivot in pivot_of.values():
            fwd[pivot] = 1
            bwd[pivot] = 1

        # Jacobi double-buffered relaxation: stage marks against the
        # previous round's bits, apply after the barrier.  Converged when
        # a full round stages nothing new (that last scan is charged, as
        # the serial solver's no-change scan is).
        while True:
            new_fwd = bytearray(n)
            new_bwd = bytearray(n)

            def relax(blocks: Iterator[Block]) -> None:
                kernel.stage_pass(
                    blocks, part, active, fwd, bwd, new_fwd, new_bwd
                )

            _sharded_block_pass(edge_file, relax)
            changed = False
            for i in range(n):
                if new_fwd[i] and not fwd[i]:
                    fwd[i] = 1
                    changed = True
                if new_bwd[i] and not bwd[i]:
                    bwd[i] = 1
                    changed = True
            if not changed:
                break

        # Split: FW∩BW is the pivot's SCC; the other three parts recurse.
        splits: Dict[tuple, int] = {}
        new_active = set()
        for i in range(n):
            p = part[i]
            if p not in active:
                continue
            if fwd[i] and bwd[i]:
                part[i] = _RESOLVED
                label[i] = pivot_of[p]
                continue
            bucket = (p, fwd[i], bwd[i])
            pid = splits.get(bucket)
            if pid is None:
                pid = next_part
                next_part += 1
                splits[bucket] = pid
                new_active.add(pid)
            part[i] = pid
        active = new_active

    return min_member_labels(nodes, label)
