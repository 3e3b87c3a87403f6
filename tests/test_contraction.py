"""Tests for the contraction phase: the three Section V properties.

* contractible — ``V_{i+1}`` is a proper subset of ``V_i`` (Lemma 5.2);
* recoverable — ``V_{i+1}`` covers every edge of ``G_i`` (Lemma 5.1);
* SCC-preservable — strong connectivity between surviving nodes is
  unchanged in ``G_{i+1}`` (Lemma 5.3);

plus the removed-degree bound of Theorem 5.3 and the Section VII toggles.
"""

import math

import pytest

from tests.conftest import make_graph_files, random_edges, reference_sccs

import repro.core.contraction as contraction
from repro.core.config import ExtSCCConfig
from repro.core.contraction import contract
from repro.graph.digraph import DiGraph
from repro.graph.generators import cycle_graph, planted_scc_graph
from repro.io.blocks import BlockDevice
from repro.io.memory import MemoryBudget
from repro.io.sort import KEY_DST_SRC


def contract_once(device, memory, edges, num_nodes, config):
    edge_file, node_file = make_graph_files(device, edges, num_nodes, memory)
    return contract(device, edge_file, node_file, memory, config, level=1)


CONFIGS = {
    "baseline": ExtSCCConfig.baseline(),
    "optimized": ExtSCCConfig.optimized(),
}


@pytest.fixture(params=sorted(CONFIGS), ids=str)
def config(request):
    return CONFIGS[request.param]


class TestContractible:
    @pytest.mark.parametrize("seed", range(4))
    def test_strictly_fewer_nodes(self, device, memory, config, seed):
        edges = random_edges(40, 100, seed)
        level = contract_once(device, memory, edges, 40, config)
        assert level.next_nodes.num_nodes < 40

    def test_progress_on_complete_graph(self, device, memory, config):
        edges = [(u, v) for u in range(8) for v in range(8) if u != v]
        level = contract_once(device, memory, edges, 8, config)
        assert level.next_nodes.num_nodes < 8

    def test_progress_with_self_loops_everywhere(self, device, memory, config):
        edges = [(i, i) for i in range(6)] + [(0, 1), (1, 2)]
        level = contract_once(device, memory, edges, 6, config)
        assert level.next_nodes.num_nodes < 6


class TestRecoverable:
    @pytest.mark.parametrize("seed", range(4))
    def test_cover_property(self, device, memory, config, seed):
        """Every edge of G_i has an endpoint in V_{i+1} — except edges
        incident to Type-1-trimmed dead-end nodes in optimized mode."""
        edges = random_edges(40, 100, seed)
        level = contract_once(device, memory, edges, 40, config)
        cover = set(level.next_nodes.scan())
        graph = DiGraph(edges, nodes=range(40))
        for u, v in edges:
            if u == v:
                continue
            if config.trim_type1:
                trimmed = (
                    graph.in_degree(u) == 0 or graph.out_degree(u) == 0
                    or graph.in_degree(v) == 0 or graph.out_degree(v) == 0
                )
                if trimmed:
                    continue
            assert u in cover or v in cover, (u, v)

    def test_removed_and_next_partition_nodes(self, device, memory, config):
        edges = random_edges(30, 70, seed=7)
        level = contract_once(device, memory, edges, 30, config)
        removed = list(level.removed.scan())
        kept = list(level.next_nodes.scan())
        assert sorted(removed + kept) == list(range(30))


class TestSCCPreservable:
    @pytest.mark.parametrize("seed", range(6))
    def test_pairwise_equivalence(self, device, memory, config, seed):
        """Lemma 5.3 on surviving nodes, against the in-memory reference."""
        edges = random_edges(35, 90, seed, self_loops=True)
        level = contract_once(device, memory, edges, 35, config)
        kept = list(level.next_nodes.scan())
        before = reference_sccs(edges, 35)
        after = reference_sccs(list(level.next_edges.scan()), 35)
        for i, u in enumerate(kept):
            for v in kept[i + 1:]:
                assert before.strongly_connected(u, v) == after.strongly_connected(u, v), (u, v)

    def test_next_edges_reference_only_next_nodes(self, device, memory, config):
        edges = random_edges(35, 90, seed=2, self_loops=True)
        level = contract_once(device, memory, edges, 35, config)
        kept = set(level.next_nodes.scan())
        for u, v in level.next_edges.scan():
            assert u in kept and v in kept


class TestTheorem53:
    @pytest.mark.parametrize("seed", range(3))
    def test_removed_degree_bound(self, device, memory, seed):
        """deg(v, G_i) <= sqrt(2 |E_i|) for every removed node (base op)."""
        edges = random_edges(40, 110, seed)
        level = contract_once(device, memory, edges, 40, ExtSCCConfig.baseline())
        graph = DiGraph(edges, nodes=range(40))
        bound = math.sqrt(2 * len(edges))
        for v in level.removed.scan():
            assert graph.degree(v) <= bound


class TestSectionVII:
    def test_type1_removes_dead_end_nodes(self, device, memory):
        # 0 -> 1 -> 2 with a 2-cycle {3,4}: 0 (indeg 0) and 2 (outdeg 0)
        # are trimmed under Type-1.
        edges = [(0, 1), (1, 2), (3, 4), (4, 3), (1, 3)]
        level = contract_once(device, memory, edges, 5, ExtSCCConfig.optimized())
        kept = set(level.next_nodes.scan())
        assert 0 not in kept
        assert 2 not in kept

    def test_self_loop_removal(self, device, memory):
        # Removing node 1 of 0 -> 1 -> 0 creates the bypass self-loop (0,0).
        edges = [(0, 1), (1, 0), (0, 2), (2, 0), (2, 3), (3, 2)]
        base = contract_once(device, memory, edges, 4, ExtSCCConfig.baseline())
        opt = contract_once(
            device, memory, edges, 4,
            ExtSCCConfig(remove_self_loops=True),
        )
        base_loops = sum(1 for u, v in base.next_edges.scan() if u == v)
        opt_loops = sum(1 for u, v in opt.next_edges.scan() if u == v)
        assert opt_loops == 0
        assert base_loops >= opt_loops

    def test_dedupe_reduces_edge_records(self, device, memory):
        edges = random_edges(20, 50, seed=0) * 3  # heavy parallels
        base = contract_once(device, memory, edges, 20, ExtSCCConfig.baseline())
        opt = contract_once(
            device, memory, edges, 20, ExtSCCConfig(dedupe_parallel_edges=True)
        )
        assert opt.next_edges.num_edges < base.next_edges.num_edges

    @pytest.mark.parametrize("seed", range(3))
    def test_optimized_never_more_nodes(self, device, memory, seed):
        edges = random_edges(40, 100, seed)
        base = contract_once(device, memory, edges, 40, ExtSCCConfig.baseline())
        opt = contract_once(device, memory, edges, 40, ExtSCCConfig.optimized())
        assert opt.next_nodes.num_nodes <= base.next_nodes.num_nodes


class TestIOProfile:
    def test_contraction_only_sequential(self, device, memory, config):
        edges = random_edges(40, 100, seed=0)
        contract_once(device, memory, edges, 40, config)
        assert device.stats.random == 0

    def test_iteration_metadata(self, device, memory, config):
        edges = random_edges(25, 60, seed=0)
        level = contract_once(device, memory, edges, 25, config)
        assert level.level == 1
        assert level.num_nodes == 25
        assert level.num_edges == 60


class TestGetVSortKey:
    """Get-V sorts ``E_d`` records ``(u, v, deg_u[, prod_u])`` by an
    all-field permutation key.  ``deg_u``/``prod_u`` are functions of
    ``u``, so this must be byte-identical to the stable ``(v, u)`` sort —
    on a multigraph whose duplicate ``(u, v)`` edges make equal-key ties."""

    @staticmethod
    def _contract(monkeypatch, config, edges, num_nodes, stable_reference):
        sorted_ed = []
        real_sort = contraction.external_sort_stream

        def recording_sort(device, records, record_size, memory, **kwargs):
            if record_size not in (12, 16):  # not the E_d sort of Get-V
                return real_sort(device, records, record_size, memory, **kwargs)
            if stable_reference:
                kwargs["key"] = KEY_DST_SRC
            stream = real_sort(device, records, record_size, memory, **kwargs)
            sorted_ed.append(list(stream))
            return iter(sorted_ed[-1])

        monkeypatch.setattr(contraction, "external_sort_stream", recording_sort)
        device = BlockDevice(block_size=64)
        memory = MemoryBudget(512)
        level = contract_once(device, memory, edges, num_nodes, config)
        stats = device.stats
        ledger = (
            stats.snapshot(),
            stats.by_phase,
            stats.runs_formed,
            stats.merge_passes,
            stats.bytes_logical,
            stats.bytes_stored,
            sorted((w, tuple(v)) for w, v in stats.bytes_by_width.items()),
        )
        monkeypatch.undo()
        return sorted_ed, list(level.next_nodes.scan()), ledger

    @pytest.mark.parametrize("product_operator", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_stable_dst_src_sort(self, monkeypatch, product_operator, seed):
        base = random_edges(40, 160, seed=seed)
        # Every edge appears two or three times, so (v, u) ties abound.
        edges = base + base[::2] + base[1::3]
        config = ExtSCCConfig(
            product_operator=product_operator, type2_reduction=True
        )
        new = self._contract(monkeypatch, config, edges, 40, stable_reference=False)
        stable = self._contract(monkeypatch, config, edges, 40, stable_reference=True)
        assert new[0] and len(new[0][0]) == len(edges)
        assert new == stable
