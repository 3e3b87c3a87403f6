"""Array-backed union-find and the canonical labeling of the semi-external
solvers (node state is exactly the O(|V|) the semi-external model allows)."""

from __future__ import annotations

from typing import Dict, List, Sequence

__all__ = ["UnionFind", "min_member_labels"]


class UnionFind:
    """Disjoint sets over dense indices ``0 .. n-1``.

    Path-halving find and union by size; both amortized near-constant.
    """

    def __init__(self, n: int) -> None:
        self.parent: List[int] = list(range(n))
        self.size: List[int] = [1] * n
        self.num_sets = n

    def find(self, x: int) -> int:
        """Representative of ``x``'s set."""
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> int:
        """Merge the sets of ``a`` and ``b``; returns the new representative."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.num_sets -= 1
        return ra

    def connected(self, a: int, b: int) -> bool:
        """True when ``a`` and ``b`` are in the same set."""
        return self.find(a) == self.find(b)


def min_member_labels(nodes: Sequence[int], labels: Sequence[int]) -> Dict[int, int]:
    """Canonical labeling ``nodes[i] -> min node sharing labels[i]``."""
    rep_min: Dict[int, int] = {}
    for node, label in zip(nodes, labels):
        current = rep_min.get(label)
        if current is None or node < current:
            rep_min[label] = node
    return {node: rep_min[label] for node, label in zip(nodes, labels)}
