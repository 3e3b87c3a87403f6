"""Property-based K-invariance: worker count changes *nothing observable*.

The sharded runtime's contract is that parallelism is task-level only —
shards produce the same records and the same charges as the serial
operators they replace.  Hypothesis drives the two paper workload families
(webspam-like and large-scc) through Ext-SCC at K in {1, 2, 4} and pins:

* byte-identical SCC labels at every K;
* an identical total I/O ledger (all four counters) at every K;
* the same invariance across the serial and threads executors;
* checkpoint/resume interoperability: a run crashed at one K resumes at
  another K and still reproduces the uninterrupted labels, because
  :meth:`ExtSCCConfig.fingerprint` deliberately excludes the execution
  knobs (``workers``/``executor``) — how a plan is executed is not part
  of what was computed.
"""

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.conftest import reference_sccs

from repro.core.config import ExtSCCConfig
from repro.core.ext_scc import ExtSCC
from repro.exceptions import SimulatedCrash
from repro.graph.datasets import build_dataset
from repro.graph.edge_file import EdgeFile, NodeFile
from repro.io.blocks import BlockDevice
from repro.io.files import ExternalFile
from repro.io.memory import MemoryBudget
from repro.io.parallel import StripedDevice
from repro.recovery import CheckpointManager, FaultInjector

SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

WORKER_COUNTS = (1, 2, 4)

family_strategy = st.sampled_from(["webspam", "large-scc"])
nodes_strategy = st.integers(min_value=40, max_value=90)
seed_strategy = st.integers(min_value=0, max_value=2**16)


def _workload(family, num_nodes, seed):
    graph = build_dataset(family, num_nodes=num_nodes, seed=seed)
    return list(graph.edges), graph.num_nodes


def _run(edges, num_nodes, workers, executor="serial", striped=False):
    """One Ext-SCC run; returns (output, total-I/O snapshot delta)."""
    if striped:
        device = StripedDevice(block_size=64, channels=workers)
    else:
        device = BlockDevice(block_size=64)
    memory = MemoryBudget(512)
    edge_file = EdgeFile.from_edges(device, "edges", edges)
    node_file = NodeFile.from_ids(
        device, "nodes", range(num_nodes), memory, presorted=True
    )
    config = replace(
        ExtSCCConfig.baseline(pool_readahead=1),
        workers=workers, executor=executor,
    )
    before = device.stats.snapshot()
    out = ExtSCC(config).run(device, edge_file, memory, nodes=node_file)
    return out, device.stats.snapshot() - before


class TestKInvariance:
    @SETTINGS
    @given(family_strategy, nodes_strategy, seed_strategy)
    def test_labels_and_ledger_identical_across_k(self, family, num_nodes, seed):
        edges, n = _workload(family, num_nodes, seed)
        base_out, base_io = _run(edges, n, workers=1)
        assert base_out.result == reference_sccs(edges, n)
        for workers in WORKER_COUNTS[1:]:
            out, io = _run(edges, n, workers=workers)
            assert out.result.labels == base_out.result.labels, workers
            assert io == base_io, workers
            assert out.num_iterations == base_out.num_iterations, workers

    @SETTINGS
    @given(family_strategy, nodes_strategy, seed_strategy)
    def test_threads_executor_matches_serial(self, family, num_nodes, seed):
        edges, n = _workload(family, num_nodes, seed)
        serial_out, serial_io = _run(edges, n, workers=1, executor="serial")
        for workers in WORKER_COUNTS:
            out, io = _run(edges, n, workers=workers, executor="threads")
            assert out.result.labels == serial_out.result.labels, workers
            assert io == serial_io, workers
            assert out.num_iterations == serial_out.num_iterations, workers

    @SETTINGS
    @given(family_strategy, nodes_strategy, seed_strategy)
    def test_striping_shrinks_makespan_never_total(self, family, num_nodes, seed):
        edges, n = _workload(family, num_nodes, seed)
        base_out, base_io = _run(edges, n, workers=1, striped=True)
        assert base_out.makespan == base_io.total  # the K=1 identity
        for workers in WORKER_COUNTS[1:]:
            out, io = _run(edges, n, workers=workers, striped=True)
            assert io == base_io, workers
            assert out.makespan <= base_out.makespan, workers
            assert sum(out.channel_io) == io.total, workers


class TestResumeAcrossK:
    """A journal written at one worker count resumes at another."""

    EDGES, NUM_NODES = None, None  # filled lazily (module import stays cheap)

    @classmethod
    def _fixed_workload(cls):
        if cls.EDGES is None:
            graph = build_dataset("large-scc", num_nodes=100, seed=7)
            cls.EDGES, cls.NUM_NODES = list(graph.edges), graph.num_nodes
        return cls.EDGES, cls.NUM_NODES

    def _crash_at_resume_at(self, crash_workers, resume_workers, ordinal):
        edges, n = self._fixed_workload()
        device = BlockDevice(block_size=64)
        memory = MemoryBudget(512)
        edge_file = EdgeFile.from_edges(device, "input-edges", edges)
        node_file = NodeFile.from_ids(
            device, "input-nodes", range(n), memory, presorted=True
        )
        base_config = ExtSCCConfig.baseline(pool_readahead=1)
        FaultInjector(crash_at_io=ordinal).attach(device)
        with pytest.raises(SimulatedCrash):
            ExtSCC(replace(base_config, workers=crash_workers)).run(
                device, edge_file, memory, nodes=node_file,
                checkpoint=CheckpointManager(device),
            )
        device.attach_injector(None)
        edge_file = EdgeFile(ExternalFile.open(device, "input-edges"))
        node_file = NodeFile(ExternalFile.open(device, "input-nodes"))
        out = ExtSCC(replace(base_config, workers=resume_workers)).run(
            device, edge_file, memory, nodes=node_file,
            checkpoint=CheckpointManager(device),
        )
        return out

    @pytest.mark.parametrize("crash_k,resume_k", [(1, 4), (4, 1), (2, 4)])
    def test_resume_at_different_worker_count(self, crash_k, resume_k):
        edges, n = self._fixed_workload()
        baseline, _ = _run(edges, n, workers=1)
        for ordinal in (200, 900):
            out = self._crash_at_resume_at(crash_k, resume_k, ordinal)
            assert out.resumed
            assert out.result == baseline.result, (crash_k, resume_k, ordinal)

    def test_fingerprint_excludes_execution_knobs(self):
        base = ExtSCCConfig.baseline()
        reconfigured = replace(base, workers=8, executor="threads")
        assert reconfigured.fingerprint() == base.fingerprint()
        # ...but real plan changes still invalidate it.
        assert replace(base, codec="fixed").fingerprint() != base.fingerprint()
