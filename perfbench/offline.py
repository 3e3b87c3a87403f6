"""The offline workloads: one Ext-SCC computation per request.

Each request loads the workload's edge stream onto a fresh simulated
device (set-up, timed as ``setup_s``) and then runs the default
``compute_sccs`` configuration on it -- Ext-SCC-Op, gap-varint codec,
spanning-tree solver, one serial worker -- the way ``compute_sccs`` does
after its own load step.  Only the solver call is timed as the request:
its wall time, and its CPU time in reference loops (``cpu_per_request``),
taken under a :class:`~perfbench.common.SpeedProbe` from the second
request on.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.bench.workloads import memory_for_ratio
from repro.core import ExtSCC, ExtSCCConfig, ExtSCCOutput, SCCResult
from repro.graph.digraph import DiGraph
from repro.graph.edge_file import EdgeFile, NodeFile
from repro.io import BlockDevice, MemoryBudget
from repro.memory_scc import tarjan_scc

from perfbench.common import (
    Outcome,
    SpeedProbe,
    median,
    percentile,
    self_peak_rss_mb,
    workload_edges,
)
from perfbench.tracer import Tracer

MIN_SETUPS = 9
"""Set-ups timed per run at least, so ``setup_s`` is a median."""


@dataclass(frozen=True)
class OfflineSpec:
    num_nodes: int
    percent: int
    memory_ratio: float
    busy: Tuple[str, ...]
    """Layers that must record spans in a traced request."""
    idle: Tuple[str, ...]
    """Layers that must record none: the isolation the workload is built for."""
    block_size: int = 1024


_SERVICE = ("batch", "cache", "node_table", "daemon", "store")
_CONTRACT = dict(
    busy=("contraction", "expansion", "semi", "runs", "sort", "join", "codecs",
          "device", "plan"),
    idle=_SERVICE,
)
_SEMI = dict(
    busy=("semi", "codecs", "device", "plan"),
    idle=("contraction", "expansion", "runs", "sort", "kernels", "join") + _SERVICE,
)

SPECS: Dict[str, OfflineSpec] = {
    # The ROADMAP L1 rung: five contraction levels, 22,054 block I/Os.
    "webspam-contract": OfflineSpec(4000, 100, 0.47, **_CONTRACT),
    # The same graph with its nodes in memory: no contraction, the solver
    # does the work, in about 0.6 s a request, so a run holds dozens.
    "webspam-semi": OfflineSpec(4000, 100, 1.05, **_SEMI),
}

SMOKE_SPECS: Dict[str, OfflineSpec] = {
    "webspam-contract": OfflineSpec(1000, 100, 0.47, block_size=256, **_CONTRACT),
    "webspam-semi": OfflineSpec(1500, 100, 1.05, **_SEMI),
}


@dataclass
class _Loaded:
    device: BlockDevice
    memory: MemoryBudget
    edges: EdgeFile
    nodes: NodeFile


def _setup(spec: OfflineSpec) -> Tuple[_Loaded, List[Tuple[int, int]], float]:
    """Generate the edge stream and load it onto a fresh device."""
    started = time.perf_counter()
    edges = workload_edges(spec.num_nodes, spec.percent)
    device = BlockDevice(block_size=spec.block_size)
    memory = MemoryBudget(
        memory_for_ratio(spec.num_nodes, spec.memory_ratio, spec.block_size)
    )
    loaded = _Loaded(
        device,
        memory,
        EdgeFile.from_edges(device, "input-edges", edges),
        NodeFile.from_ids(
            device, "input-nodes", range(spec.num_nodes), memory, presorted=True
        ),
    )
    return loaded, edges, time.perf_counter() - started


def _solve(
    loaded: _Loaded, probe: Optional[SpeedProbe] = None
) -> Tuple[ExtSCCOutput, float, Optional[float], Dict[str, object]]:
    """One request: the timed solver call, its cost and its ledger fingerprint.

    With a ``probe`` the call runs under it, and the cost is the call's CPU
    time in reference loops; the probe's own time is taken out of both.
    """
    stats = loaded.device.stats
    runs_before, passes_before = stats.runs_formed, stats.merge_passes
    if probe is not None:
        probe.sample()  # one sample at least, however short the call
        mark, probe_before = len(probe.samples) - 1, probe.cpu_s
    started, cpu_started = time.perf_counter(), time.thread_time()
    with probe if probe is not None else contextlib.nullcontext():
        out = ExtSCC(ExtSCCConfig.optimized()).run(
            loaded.device, loaded.edges, loaded.memory, nodes=loaded.nodes
        )
    wall = time.perf_counter() - started
    cost = None
    if probe is not None:
        probe_s = probe.cpu_s - probe_before
        wall -= probe_s
        cpu = time.thread_time() - cpu_started - probe_s
        cost = cpu / probe.reference_s(mark)
    ledger = {
        "io": out.io.to_dict(),
        "contraction_io": out.contraction_io.to_dict(),
        "semi_io": out.semi_io.to_dict(),
        "expansion_io": out.expansion_io.to_dict(),
        "levels": out.num_iterations,
        "iterations": [
            (r.num_nodes, r.num_edges, r.next_num_nodes, r.next_num_edges)
            for r in out.iterations
        ],
        "num_sccs": out.result.num_sccs,
        "runs_formed": stats.runs_formed - runs_before,
        "merge_passes": stats.merge_passes - passes_before,
        "bytes_by_width": sorted(out.bytes_by_width.items()),
    }
    return out, wall, cost, ledger


def run(workload: str, seconds: float, trace: bool, smoke: bool = False) -> Outcome:
    """Run ``workload``'s requests for ``seconds``; the input has no seed."""
    spec = (SMOKE_SPECS if smoke else SPECS)[workload]
    outcome = Outcome()
    setups: List[float] = []
    walls: List[float] = []
    costs: List[float] = []
    reference: Optional[Dict[str, object]] = None
    oracle: Optional[SCCResult] = None
    num_edges = 0
    last: Optional[Tuple[ExtSCCOutput, Dict[str, object]]] = None
    peak_rss = 0.0

    def request(
        probe: Optional[SpeedProbe] = None, tracer: Optional[Tracer] = None
    ) -> Optional[float]:
        nonlocal reference, oracle, last, num_edges, peak_rss
        loaded, edges, setup_s = _setup(spec)
        setups.append(setup_s)
        if oracle is None:
            num_edges = len(edges)
            oracle = SCCResult(
                tarjan_scc(DiGraph(edges, nodes=range(spec.num_nodes)))
            )
        outcome.attempted += 1
        if tracer is not None:
            tracer.install()
        try:
            out, wall, cost, ledger = _solve(loaded, probe)
        except Exception as exc:  # a failed request is counted, not fatal
            outcome.failed += 1
            outcome.fail(f"request raised {type(exc).__name__}: {exc}")
            return None
        finally:
            if tracer is not None:
                tracer.uninstall()
        if out.result != oracle:
            outcome.failed += 1
            outcome.fail("labels differ from the in-memory Tarjan oracle")
        if reference is None:
            reference = ledger
        elif ledger != reference:
            outcome.fail("ledger differs between requests of the same input")
        last = (out, ledger)
        if cost is not None:
            costs.append(cost)
        if not peak_rss:
            # The process's peak through its first request, which runs
            # without the probe: later requests only add allocator
            # fragmentation, which depends on how many fit in the run, and
            # the probe's allocations move when the collector runs.
            peak_rss = self_peak_rss_mb()
        return wall

    # The end-to-end requests always run untraced; a traced run adds one
    # traced request after them, so its overhead can be measured.  Every
    # request but the first, which warms up, runs under the speed probe.
    probe = SpeedProbe()
    while not walls or (not trace and (sum(walls) < seconds or not costs)):
        wall = request(probe if walls else None)
        if wall is None:
            break
        walls.append(wall)
    while not trace and len(setups) < MIN_SETUPS:
        setups.append(_setup(spec)[2])
    if not walls or last is None:
        return outcome

    out, ledger = last
    outcome.notes.update(
        requests=len(walls),
        levels=ledger["levels"],
        num_sccs=ledger["num_sccs"],
        io_total=ledger["io"]["total"],
        num_edges=num_edges,
    )
    if not trace:
        outcome.metrics = {
            "setup_s": (median(setups), "s"),
            "io_total": (float(ledger["io"]["total"]), "block_IOs"),
            "peak_rss_mb": (peak_rss, "MiB"),
            "cpu_per_request": (median(costs), "ref_loops"),
            "edges_per_s": (num_edges / median(walls), "edges/s"),
            "query_p50_ms": (median(walls) * 1e3, "ms"),
            "query_p99_ms": (percentile(walls, 99) * 1e3, "ms"),
            "queries_per_s": (len(walls) / sum(walls), "req/s"),
        }
        return outcome

    tracer = Tracer()
    wall = request(tracer=tracer)
    if wall is None:
        return outcome
    out, ledger = last
    outcome.metrics = layer_metrics(
        out, ledger, tracer, wall, median(walls), spec, num_edges
    )
    for layer in spec.busy:
        if not tracer.busy(layer):
            outcome.fail(f"layer {layer!r} recorded no span on {workload}")
    for layer in spec.idle:
        if tracer.busy(layer):
            outcome.fail(f"layer {layer!r} recorded spans on {workload}")
    outcome.tracer = tracer
    return outcome


def layer_metrics(
    out: ExtSCCOutput,
    ledger: Dict[str, object],
    tracer: Tracer,
    traced_wall: float,
    untraced_wall: float,
    spec: OfflineSpec,
    num_edges: int,
) -> Dict[str, Tuple[float, str]]:
    """The per-layer table of one traced request."""
    iterations = out.iterations
    retention = (
        sum(r.next_num_nodes / r.num_nodes for r in iterations) / len(iterations)
        if iterations else 0.0
    )
    growth = (
        sum(r.edge_growth for r in iterations) / len(iterations)
        if iterations else 0.0
    )
    semi_edges = iterations[-1].next_num_edges if iterations else num_edges
    per_block = spec.block_size // 8
    semi_blocks = max(1, -(-semi_edges // per_block))
    logical = sum(width * count for width, (count, _) in out.bytes_by_width.items())
    stored = sum(stored for _, (_, stored) in out.bytes_by_width.items())
    self_total = sum(totals.self_s for totals in tracer.layers.values())
    s = tracer.self_s
    metrics: Dict[str, Tuple[float, str]] = {
        "contraction.self_s": (s("contraction"), "s"),
        "contraction.io": (out.contraction_io.total, "block_IOs"),
        "contraction.levels": (out.num_iterations, "count"),
        "contraction.node_retention": (retention, "ratio"),
        "contraction.edge_growth": (growth, "ratio"),
        "expansion.self_s": (s("expansion"), "s"),
        "expansion.io": (out.expansion_io.total, "block_IOs"),
        "semi.self_s": (s("semi"), "s"),
        "semi.io": (out.semi_io.total, "block_IOs"),
        "semi.edge_scans": (out.semi_io.seq_reads / semi_blocks, "scans"),
        "runs.self_s": (s("runs"), "s"),
        "runs.formed": (ledger["runs_formed"], "count"),
        "sort.self_s": (s("sort"), "s"),
        "sort.merge_passes": (ledger["merge_passes"], "count"),
        "kernels.self_s": (s("kernels"), "s"),
        "join.self_s": (s("join"), "s"),
        "join.calls": (tracer.calls("join"), "count"),
        "codecs.self_s": (s("codecs"), "s"),
        "codecs.bytes_logical": (logical, "bytes"),
        "codecs.bytes_stored": (stored, "bytes"),
        "codecs.stored_per_logical": (stored / logical if logical else 0.0, "ratio"),
        "device.self_s": (s("device"), "s"),
        "device.seq_reads": (out.io.seq_reads, "block_IOs"),
        "device.rand_reads": (out.io.rand_reads, "block_IOs"),
        "device.seq_writes": (out.io.seq_writes, "block_IOs"),
        "device.rand_writes": (out.io.rand_writes, "block_IOs"),
        "plan.self_s": (s("plan"), "s"),
        "unattributed_s": (traced_wall - self_total, "s"),
        "trace_overhead_s": (traced_wall - untraced_wall, "s"),
    }
    return metrics

