"""Golden counts and invariants for the spanning-tree Semi-SCC solver.

The solver's decisions -- which edge triggers a contraction, which one a
re-attachment, and when a pass is a fixpoint -- are pinned per graph as
``(passes, contractions, reattachments, device I/Os)``.  The graphs are
chosen to stress the tree restructuring: deep trees from long cycles
listed backwards, nested and overlapping back-edge chains, a hub whose
1,000 leaves sit on top of a short cycle, degenerate edge lists, and small
instances of the three Table I families.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.conftest import reference_sccs

from repro.bench import family_graph, shuffled_edges
from repro.core.result import SCCResult
from repro.graph.edge_file import EdgeFile
from repro.io import BlockDevice
from repro.semi_external import SpanningTreeStats, spanning_tree_scc

Edge = Tuple[int, int]

HUB_LEAVES = 1000


def reverse_cycle(n: int) -> Tuple[List[Edge], int]:
    """A cycle listed back to front: every scan deepens one long path."""
    return [(i, (i + 1) % n) for i in reversed(range(n))], n


def nested_back_edges(n: int) -> Tuple[List[Edge], int]:
    """A chain with back edges nested inside one another, innermost first."""
    edges = [(i, i + 1) for i in range(n - 1)]
    edges += [(n - 1 - k, k) for k in reversed(range(n // 2))]
    return edges, n


def overlapping_back_edges(n: int) -> Tuple[List[Edge], int]:
    """A chain listed backwards with short back edges that overlap."""
    edges = [(i, i + 1) for i in reversed(range(n - 1))]
    edges += [(i + 5, i) for i in range(0, n - 5, 3)]
    return edges, n


def hub_on_cycle() -> Tuple[List[Edge], int]:
    """Hub 0 with ``HUB_LEAVES`` leaves, then the cycle 0 -> 1 -> 2 -> 0.

    The leaves hang below the hub before the cycle closes, so the one
    contraction has the hub at its top.
    """
    leaves = [(0, leaf) for leaf in range(3, 3 + HUB_LEAVES)]
    return leaves + [(0, 1), (1, 2), (2, 0)], 3 + HUB_LEAVES


def degenerate() -> Tuple[List[Edge], int]:
    """Self-loops, duplicate edges and isolated nodes (ids 40..59)."""
    rng = random.Random(5)
    edges = [(rng.randrange(40), rng.randrange(40)) for _ in range(120)]
    edges += [(v, v) for v in range(0, 60, 7)]
    edges += edges[:30]
    return edges, 60


def family(name: str, **overrides) -> Callable[[], Tuple[List[Edge], int]]:
    def build() -> Tuple[List[Edge], int]:
        graph = family_graph(name, num_nodes=600, seed=3, **overrides)
        return shuffled_edges(graph), graph.num_nodes

    return build


GRAPHS: Dict[str, Callable[[], Tuple[List[Edge], int]]] = {
    "reverse-cycle": lambda: reverse_cycle(400),
    "nested-back-edges": lambda: nested_back_edges(300),
    "overlapping-back-edges": lambda: overlapping_back_edges(300),
    "hub-on-cycle": hub_on_cycle,
    "degenerate": degenerate,
    "massive-scc": family("massive-scc", scc_size=200),
    "large-scc": family("large-scc", scc_size=40, scc_count=5),
    "small-scc": family("small-scc", scc_size=10, scc_count=20),
}

GOLDEN: Dict[str, Tuple[int, int, int, int]] = {
    "degenerate": (3, 13, 63, 60),
    "hub-on-cycle": (2, 1, 1002, 252),
    "large-scc": (3, 276, 893, 900),
    "massive-scc": (3, 283, 897, 900),
    "nested-back-edges": (2, 150, 299, 114),
    "overlapping-back-edges": (2, 99, 299, 100),
    "reverse-cycle": (2, 1, 399, 100),
    "small-scc": (4, 263, 862, 1200),
}
"""``(passes, contractions, reattachments, device I/Os)`` per graph."""


def solve(edges: List[Edge], num_nodes: int):
    device = BlockDevice(block_size=64)
    edge_file = EdgeFile.from_edges(device, "E", edges)
    baseline = device.stats.snapshot()
    stats = SpanningTreeStats()
    labels = spanning_tree_scc(edge_file, range(num_nodes), stats=stats)
    return labels, stats, (device.stats.snapshot() - baseline).total


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_golden_counts(name):
    edges, num_nodes = GRAPHS[name]()
    labels, stats, ios = solve(edges, num_nodes)
    assert SCCResult(labels) == reference_sccs(edges, num_nodes)
    counts = (stats.passes, stats.contractions, stats.reattachments, ios)
    assert counts == GOLDEN[name]


def test_contraction_below_hub_rewrites_no_leaf():
    """Each re-attachment rewrites the one node it moves (a leaf, then 1,
    then 2); the contraction of 2 -> 1 -> 0 has the hub at its top, so the
    hub's 1,000 leaves keep their depth and nothing else moves."""
    edges, num_nodes = hub_on_cycle()
    _, stats, _ = solve(edges, num_nodes)
    assert stats.contractions == 1
    assert stats.reattachments == HUB_LEAVES + 2
    assert stats.depth_rewrites == stats.reattachments


def test_reattaching_a_deep_tree_rewrites_every_node_in_it():
    """Listed backwards, each cycle edge re-attaches the path built so far
    below one more node, rewriting it whole (1 + 2 + ... + 399 nodes); the
    closing contraction moves nothing."""
    edges, num_nodes = reverse_cycle(400)
    _, stats, _ = solve(edges, num_nodes)
    assert stats.depth_rewrites == 399 * 400 // 2


N_NODES = 30


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(st.integers(0, N_NODES - 1),
                          st.integers(0, N_NODES - 1)), max_size=120))
def test_labels_match_tarjan(edges):
    labels, _, _ = solve(edges, N_NODES)
    assert SCCResult(labels) == reference_sccs(edges, N_NODES)
