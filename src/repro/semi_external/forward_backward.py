"""Forward–backward (FW-BW) semi-external SCC.

A divide-and-conquer solver with O(|V|) memory and only sequential edge
scans: pick a pivot in every unresolved partition, propagate forward and
backward reachability bits by repeatedly scanning the edge file, then
split each partition into ``FW ∩ BW`` (the pivot's SCC, resolved),
``FW \\ BW``, ``BW \\ FW`` and the remainder — no SCC crosses those
boundaries.  Repeat until every node is resolved.

This is the classic Fleischer–Hendrickson–Pınar scheme restated in the
semi-external model: node state (partition ids and two bit arrays) lives in
memory, edges stay on disk.  It serves as an independent second
implementation of the paper's ``Semi-SCC`` role, used to cross-check the
spanning-tree solver.

Relaxation is **block-granular**
(:meth:`~repro.kernels.ReachabilityKernel.relax_to_fixpoint`): marks stage
against the block-start bits and apply at each block boundary, so marks
from earlier blocks propagate within the same scan but the outcome never
depends on edge order inside a block.  The fixpoint — and therefore every
label — is identical to any other relaxation schedule; the granularity is
what lets the numpy and scalar kernels agree mark-for-mark, scan-for-scan.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.constants import SEMI_EXTERNAL_BYTES_PER_NODE
from repro.graph.edge_file import EdgeFile
from repro.io.memory import MemoryBudget
from repro.kernels import reachability_kernel
from repro.semi_external.union_find import min_member_labels

__all__ = ["forward_backward_scc"]

_RESOLVED = -1


def forward_backward_scc(
    edge_file: EdgeFile,
    node_ids: Iterable[int],
    memory: Optional[MemoryBudget] = None,
    max_rounds: Optional[int] = None,
) -> Dict[int, int]:
    """Compute all SCCs with semi-external forward–backward search.

    Args:
        edge_file: edges on the simulated disk (scanned sequentially).
        node_ids: all node ids (isolated nodes included).
        memory: when given, assert ``8 * |V| + B <= M`` first.
        max_rounds: safety valve for tests (default: unbounded).

    Returns:
        Canonical labeling ``node -> min id of its SCC``.
    """
    nodes = list(node_ids)
    n = len(nodes)
    if memory is not None:
        memory.require_at_least(
            SEMI_EXTERNAL_BYTES_PER_NODE * n + edge_file.device.block_size,
            what="semi-external FW-BW SCC",
        )
    kernel = reachability_kernel(nodes)

    part: List[int] = [0] * n  # partition id, _RESOLVED once labeled
    label: List[int] = [0] * n  # SCC label (valid once resolved)
    if n == 0:
        return {}

    active = {0}
    rounds = 0
    next_part = 1
    while active:
        rounds += 1
        if max_rounds is not None and rounds > max_rounds:
            raise RuntimeError(f"FW-BW exceeded {max_rounds} rounds")
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
        # Relax both reachability frontiers until a scan changes nothing.
        kernel.relax_to_fixpoint(
            edge_file.scan_blocks, part, active, fwd, bwd
        )
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
