"""Spanning-tree semi-external SCC (the paper's ``Semi-SCC`` substrate).

The paper plugs in 1PB-SCC [26] (Zhang et al., SIGMOD'13): an in-memory
spanning tree of the graph, ordered by node *depth*, is refined by repeated
sequential scans of the edge file; whenever an edge closes a cycle against
the tree, the partial SCC on the tree path is contracted, and the scans
repeat until no change.  This module reproduces that mechanism as a
*depth-deepening spanning forest*:

* every (contracted) node hangs below a virtual root ``v0`` with an exact
  depth (child depth = parent depth + 1);
* scanning edge ``(u, v)``: with representatives ``ru != rv`` and
  ``depth(ru) + 1 > depth(rv)``, either ``rv`` is an ancestor of ``ru`` —
  then the tree path ``rv .. ru`` plus the edge is a cycle, so the whole
  path is contracted into one super-node — or ``rv``'s subtree is
  re-attached below ``ru``, strictly increasing its depth;
* a full scan with no action is a fixpoint.

Parent pointers may be stale: children of a contracted path keep the
merged member as their parent, which ``find_parent`` resolves through the
union-find (the virtual root is never merged).  **Cost**: a contraction
walks the path, merges the smaller children sets into the largest, and
rewrites depths only in the subtrees hanging off the members below ``rv``
(``rv``'s own children keep ``depth(rv) + 1``); a re-attachment rewrites
the subtree it moves.

**Completeness**: at a fixpoint every remaining edge satisfies
``depth(ru) < depth(rv)``, so a cycle through two distinct representatives
would strictly increase depth around a loop — impossible; hence every SCC
has been contracted.  **Termination**: contractions happen at most
``|V| - 1`` times, and between contractions every re-attachment strictly
increases the total depth sum, which is bounded by ``|V|^2``.

Memory: O(|V|) words (tree arrays + union-find), matching the semi-external
budget ``c * |V| + B <= M``; all edge accesses are sequential scans.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro.constants import SEMI_EXTERNAL_BYTES_PER_NODE
from repro.graph.edge_file import EdgeFile
from repro.io.memory import MemoryBudget
from repro.semi_external.union_find import UnionFind, min_member_labels

__all__ = ["spanning_tree_scc", "SpanningTreeStats"]


class SpanningTreeStats:
    """Counters exposed by :func:`spanning_tree_scc` for tests/benchmarks."""

    def __init__(self) -> None:
        self.passes = 0
        self.contractions = 0
        self.reattachments = 0
        self.depth_rewrites = 0  # nodes whose depth was rewritten


def spanning_tree_scc(
    edge_file: EdgeFile,
    node_ids: Iterable[int],
    memory: Optional[MemoryBudget] = None,
    stats: Optional[SpanningTreeStats] = None,
    max_passes: Optional[int] = None,
) -> Dict[int, int]:
    """Compute all SCCs with the spanning-tree semi-external algorithm.

    Args:
        edge_file: the graph's edges on the simulated disk (scanned
            sequentially, possibly many times).
        node_ids: all node ids of the graph (isolated nodes included).
        memory: when given, assert the semi-external requirement
            ``8 * |V| + B <= M`` before starting.
        stats: optional counter sink.
        max_passes: safety valve for tests; the algorithm provably
            terminates, so production use leaves this ``None``.

    Returns:
        Canonical labeling ``node -> min id of its SCC``.
    """
    nodes = list(node_ids)
    n = len(nodes)
    if memory is not None:
        memory.require_at_least(
            SEMI_EXTERNAL_BYTES_PER_NODE * n + edge_file.device.block_size,
            what="semi-external spanning-tree SCC",
        )
    if stats is None:
        stats = SpanningTreeStats()
    index = {v: i for i, v in enumerate(nodes)}

    root = n  # virtual root v0
    uf = UnionFind(n + 1)
    parent: List[int] = [root] * n + [root]
    depth: List[int] = [1] * n + [0]
    children: List[Set[int]] = [set() for _ in range(n + 1)]
    children[root] = set(range(n))

    def find_parent(rep: int) -> int:
        """Current representative of ``rep``'s tree parent."""
        p = parent[rep]
        return p if p == root else uf.find(p)

    def redepth(queue: List[int]) -> None:
        """Re-establish depth(child) = depth(parent) + 1 below every node in
        ``queue``, whose own depths are already rewritten."""
        while queue:
            node = queue.pop()
            stats.depth_rewrites += 1
            d = depth[node] + 1
            for child in children[node]:
                depth[child] = d
                queue.append(child)

    def reattach(rv: int, ru: int) -> None:
        """Move ``rv``'s subtree below ``ru`` (edge ru -> rv witnesses it)."""
        old_parent = find_parent(rv)
        children[old_parent].discard(rv)
        parent[rv] = ru
        children[ru].add(rv)
        depth[rv] = depth[ru] + 1
        redepth([rv])
        stats.reattachments += 1

    def contract(ru: int, rv: int) -> None:
        """Contract the tree path ``rv .. ru`` (closed by an edge ru -> rv)."""
        path = [ru]
        a = ru
        while a != rv:
            a = find_parent(a)
            path.append(a)
        path_set = set(path)
        grandparent = find_parent(rv)
        base_depth = depth[rv]
        moved = [c for m in path[:-1] for c in children[m] if c not in path_set]
        for child in moved:
            depth[child] = base_depth + 1
        rep = path[0]
        for member in path[1:]:
            rep = uf.union(rep, member)
        largest = max(path, key=lambda m: len(children[m]))
        merged = children[largest]
        for member in path:
            if member != largest:
                merged |= children[member]
                children[member].clear()
        merged.difference_update(path_set)
        children[largest], children[rep] = children[rep], merged
        parent[rep] = grandparent
        depth[rep] = base_depth
        children[grandparent].discard(rv)
        children[grandparent].add(rep)
        redepth(moved)
        stats.contractions += 1

    changed = True
    while changed:
        changed = False
        stats.passes += 1
        if max_passes is not None and stats.passes > max_passes:
            raise RuntimeError(f"spanning-tree SCC exceeded {max_passes} passes")
        for u, v in edge_file.scan():
            if u == v:
                continue
            ru = uf.find(index[u])
            rv = uf.find(index[v])
            if ru == rv:
                continue
            if depth[ru] + 1 <= depth[rv]:
                continue
            # Is rv an ancestor of ru?  Walk up exactly to rv's depth.
            a = ru
            while depth[a] > depth[rv]:
                a = find_parent(a)
            if a == rv:
                contract(ru, rv)
            else:
                reattach(rv, ru)
            changed = True

    return min_member_labels(nodes, [uf.find(index[node]) for node in nodes])
