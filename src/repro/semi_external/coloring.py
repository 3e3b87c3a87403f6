"""Coloring (Orzan-style) semi-external SCC.

The third independent ``Semi-SCC`` implementation.  Each outer round:

1. every unresolved node takes its own id as color; sequential edge scans
   propagate the *maximum* color forward until fixpoint — afterwards
   ``color[v]`` is the largest unresolved id that reaches ``v`` within the
   unresolved subgraph;
2. each color class is rooted at the node equal to its color; backward
   propagation restricted to the class (more sequential scans) marks the
   members that can reach the root — those form the root's SCC (the root
   reaches them by step 1, they reach the root by step 2);
3. found SCCs are resolved and removed; repeat until no node is left.

O(|V|) memory for colors/marks, edges only ever scanned sequentially.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.constants import SEMI_EXTERNAL_BYTES_PER_NODE
from repro.graph.edge_file import EdgeFile
from repro.io.memory import MemoryBudget
from repro.semi_external.union_find import min_member_labels

__all__ = ["coloring_scc"]


def coloring_scc(
    edge_file: EdgeFile,
    node_ids: Iterable[int],
    memory: Optional[MemoryBudget] = None,
    max_rounds: Optional[int] = None,
) -> Dict[int, int]:
    """Compute all SCCs with the coloring algorithm.

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
            what="semi-external coloring SCC",
        )
    index = {v: i for i, v in enumerate(nodes)}

    label: List[int] = [-1] * n  # SCC label index (pivot), -1 = unresolved
    remaining = n
    rounds = 0
    while remaining:
        rounds += 1
        if max_rounds is not None and rounds > max_rounds:
            raise RuntimeError(f"coloring SCC exceeded {max_rounds} rounds")
        # 1) forward max-color propagation on the unresolved subgraph.
        color: List[int] = [i if label[i] < 0 else -1 for i in range(n)]
        changed = True
        while changed:
            changed = False
            for u, v in edge_file.scan():
                iu = index[u]
                iv = index[v]
                if label[iu] >= 0 or label[iv] >= 0:
                    continue
                if color[iu] > color[iv]:
                    color[iv] = color[iu]
                    changed = True
        # 2) backward marking within each color class, from the class root.
        marked = bytearray(n)
        for i in range(n):
            if label[i] < 0 and color[i] == i:
                marked[i] = 1
        changed = True
        while changed:
            changed = False
            for u, v in edge_file.scan():
                iu = index[u]
                iv = index[v]
                if label[iu] >= 0 or label[iv] >= 0:
                    continue
                if marked[iv] and not marked[iu] and color[iu] == color[iv]:
                    marked[iu] = 1
                    changed = True
        # 3) resolve: marked nodes of color c form SCC(c-root).
        for i in range(n):
            if label[i] < 0 and marked[i]:
                label[i] = color[i]
                remaining -= 1

    return min_member_labels(nodes, label)
