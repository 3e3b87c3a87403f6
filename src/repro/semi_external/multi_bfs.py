"""Multi-source BFS semi-external SCC (batched reachability).

The FW-BW family spends one pair of reachability searches per pivot, so a
graph that needs R pivot rounds costs R rounds of sequential scans.  Wang
et al. (*Parallel Strong Connectivity Based on Faster Reachability*)
observe that most of those searches are independent and can share edge
scans: batch S sources, give every node one reachability *bit per source*,
and propagate all S frontiers in the same sweep.  This solver restates
that idea in the semi-external model:

* **Trim rounds** — identical to
  :mod:`~repro.semi_external.parallel_fw_bw`: nodes with no in- or no
  out-edge inside their partition resolve as singletons, to a fixpoint.
* **Batched pivot rounds** — every active partition nominates up to S
  pivots (its S smallest node ids); pivot ``c`` of a partition owns bit
  ``c`` of that partition's nodes' forward/backward masks.  Columns are
  *shared across partitions*: propagation never crosses a partition
  boundary, so bit ``c`` in two different partitions cannot interfere and
  S columns serve every partition at once.
  :meth:`~repro.kernels.ReachabilityKernel.relax_masks_to_fixpoint`
  advances all frontiers per scan (block-granular, like the serial FW-BW
  kernel), so a workload that FW-BW covers in R pivot rounds costs about
  R/S rounds of scans here.
* **Split** — a node with ``fwd & bwd`` nonzero is in the SCC of its
  lowest such column's pivot (SCC members have identical masks at the
  fixpoint, so the choice is consistent).  Unresolved nodes split by
  ``(partition, fwd mask, bwd mask)`` — no SCC crosses a mask boundary —
  with new partition ids assigned in node order, deterministically.

**Vertical granularity control.**  Masks cost ``2 * ceil(S/8)`` bytes per
node beyond the solver's base ``8 * |V| + B`` footprint, so S is capped by
the spare memory: the largest multiple of 8 with
``2 * ceil(S/8) * |V| <= M - 8*|V| - B`` (floor 1, ceiling
:data:`MAX_SOURCES` — one machine word per direction).  A tight budget
degrades S gracefully toward plain FW-BW instead of failing.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.constants import SEMI_EXTERNAL_BYTES_PER_NODE
from repro.graph.edge_file import EdgeFile
from repro.io.memory import MemoryBudget
from repro.kernels import reachability_kernel
from repro.semi_external.union_find import min_member_labels

__all__ = ["multi_bfs_scc", "source_budget", "MAX_SOURCES"]

_RESOLVED = -1

MAX_SOURCES = 64
"""Hard ceiling on batched sources: one 64-bit mask word per direction
per node (the numpy kernel propagates masks as ``uint64`` columns)."""


def source_budget(
    n: int,
    memory: Optional[MemoryBudget],
    block_size: int,
    requested: int = MAX_SOURCES,
) -> int:
    """Vertical granularity control: how many sources fit in memory.

    The solver's base footprint is ``8n + B`` (the semi-external
    allowance); each batch of 8 sources adds one mask byte per node per
    direction.  Returns the largest ``S <= requested`` whose masks fit in
    the spare budget — always at least 1, so a tight budget degrades to
    single-pivot FW-BW behaviour rather than failing.
    """
    requested = max(1, min(requested, MAX_SOURCES))
    if memory is None or n == 0:
        return requested
    spare = memory.nbytes - (SEMI_EXTERNAL_BYTES_PER_NODE * n + block_size)
    cap = 8 * (spare // (2 * n))
    return max(1, min(requested, cap))


def multi_bfs_scc(
    edge_file: EdgeFile,
    node_ids: Iterable[int],
    memory: Optional[MemoryBudget] = None,
    max_rounds: Optional[int] = None,
    max_sources: int = MAX_SOURCES,
) -> Dict[int, int]:
    """Compute all SCCs with batched multi-source reachability.

    Args:
        edge_file: edges on the simulated disk (scanned sequentially).
        node_ids: all node ids (isolated nodes included).
        memory: when given, assert ``8 * |V| + B <= M`` first and cap the
            source batch by the spare budget (see :func:`source_budget`).
        max_rounds: safety valve for tests (default: unbounded).
        max_sources: requested sources per round (capped by
            :data:`MAX_SOURCES` and the memory budget).

    Returns:
        Canonical labeling ``node -> min id of its SCC`` — identical to
        every other solver in the registry.
    """
    nodes = list(node_ids)
    n = len(nodes)
    block_size = edge_file.device.block_size
    if memory is not None:
        memory.require_at_least(
            SEMI_EXTERNAL_BYTES_PER_NODE * n + block_size,
            what="semi-external multi-BFS SCC",
        )
    sources = source_budget(n, memory, block_size, max_sources)
    kernel = reachability_kernel(nodes)

    part: List[int] = [0] * n  # partition id, _RESOLVED once labeled
    label: List[int] = [0] * n  # pivot index (valid once resolved)
    if n == 0:
        return {}

    active = {0}

    # Trim rounds (same as parallel-fw-bw): dead-end nodes are singleton
    # SCCs; resolving them up front removes their edges from every later
    # reachability scan.
    while True:
        has_in = bytearray(n)
        has_out = bytearray(n)
        kernel.mark_degrees(
            edge_file.scan_blocks(), part, has_in, has_out
        )
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
            raise RuntimeError(f"multi-BFS exceeded {max_rounds} rounds")
        # Up to S pivots per active partition: its S smallest node ids,
        # column c going to the c-th smallest.  Columns are reused across
        # partitions — propagation is partition-confined.
        members: Dict[int, List[int]] = {}
        for i in range(n):
            p = part[i]
            if p in active:
                members.setdefault(p, []).append(i)
        pivot_of: Dict[tuple, int] = {}
        fwd: List[int] = [0] * n
        bwd: List[int] = [0] * n
        for p, idxs in members.items():
            idxs.sort(key=nodes.__getitem__)
            for c, i in enumerate(idxs[:sources]):
                pivot_of[(p, c)] = i
                bit = 1 << c
                fwd[i] = bwd[i] = bit

        kernel.relax_masks_to_fixpoint(
            edge_file.scan_blocks, part, active, fwd, bwd
        )

        # Resolve: a set bit in fwd & bwd puts the node in that column's
        # pivot SCC; the lowest such column is consistent across the SCC
        # (members share masks at the fixpoint).  The rest split by mask
        # pair, new ids assigned in node order.
        splits: Dict[tuple, int] = {}
        new_active = set()
        for i in range(n):
            p = part[i]
            if p not in active:
                continue
            both = fwd[i] & bwd[i]
            if both:
                part[i] = _RESOLVED
                label[i] = pivot_of[(p, (both & -both).bit_length() - 1)]
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
