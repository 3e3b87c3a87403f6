"""Command-line interface: ``python -m repro <command>``.

Three commands make the library usable as a tool:

* ``scc`` — compute all SCCs of an edge-list file (text ``u v`` lines or
  packed binary) and write a ``node scc`` labels file, printing the
  paper's statistics (iterations, sequential/random block I/Os);
* ``generate`` — materialize a Table I / webspam workload to a file;
* ``bench`` — run one algorithm on an edge-list file under a simulated
  memory budget and report the I/O ledger;
* ``stats`` — degree/structure statistics of an edge-list file;
* ``verify`` — check a ``node scc`` labels file against a recomputation;
* ``serve`` — build/open a persisted label store and run the multi-tenant
  query daemon over it;
* ``query`` — one client round trip against a running daemon
  (scc-label / same-component / reachable / topo-order / stats).

Sizes accept suffixes: ``64K``, ``4M``, ``1G``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from repro.analysis.calibration import CalibrationProfile, calibration_path_for
from repro.bench.harness import ALGORITHMS, run_algorithm
from repro.core import ExtSCCConfig, compute_sccs
from repro.core.config import OBJECTIVES
from repro.exceptions import (
    CorruptBlockError,
    ReproError,
    RetryExhaustedError,
    StorageError,
)
from repro.graph.datasets import build_dataset
from repro.graph.io_formats import read_edge_binary, read_edge_text, write_edge_binary, write_edge_text
from repro.io.parallel import EXECUTOR_BACKENDS
from repro.plan import PlanCache
from repro.recovery.policy import FaultPolicy
from repro.semi_external import SEMI_SCC_SOLVERS
from repro import kernels

__all__ = ["main", "parse_size"]


_SUFFIXES = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}


def _count(text: str) -> int:
    """Parse a count that may use scientific notation (``1e8``)."""
    return int(float(text))


def parse_size(text: str) -> int:
    """Parse ``4096`` / ``64K`` / ``4M`` / ``1G`` into bytes."""
    text = text.strip().upper()
    if text and text[-1] in _SUFFIXES:
        return int(float(text[:-1]) * _SUFFIXES[text[-1]])
    return int(text)


def _positive_int(text: str) -> int:
    """Argparse type for ``--workers``: rejects 0 and negatives up front
    (``--workers 0`` used to be silently accepted and run serial)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer (shard width K >= 1), got {value}"
        )
    return value


def _fault_policy(text: str) -> FaultPolicy:
    """Argparse type for ``--fault-policy``: ``key=value`` pairs, e.g.
    ``retries=5,backoff=0.002,deadline=1.0`` (see
    :meth:`FaultPolicy.parse`)."""
    try:
        return FaultPolicy.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _load_edges(path: str, binary: bool) -> List:
    reader = read_edge_binary if binary else read_edge_text
    return list(reader(path))


def _run_checkpointed(args: argparse.Namespace, config, on_iteration,
                      profile=None, cache=None):
    """Run ``scc`` against a persistent device directory with journaling.

    A fresh run wipes the directory and loads the input; ``--resume``
    reuses the stored input and continues from the journal.  With
    ``--autotune`` (fresh starts only — ``_cmd_scc`` refuses the resume
    combination), the knob search runs over the loaded input before the
    pipeline starts.
    """
    from repro.analysis.planner import autotune_config
    from repro.core.ext_scc import ExtSCC
    from repro.graph.edge_file import EdgeFile, NodeFile
    from repro.io.files import ExternalFile
    from repro.io.memory import MemoryBudget
    from repro.io.persistent import PersistentBlockDevice
    from repro.recovery import CheckpointManager

    device = PersistentBlockDevice(
        args.checkpoint_dir, block_size=parse_size(args.block_size)
    )
    if args.fault_policy is not None:
        device.attach_policy(args.fault_policy)
    memory = MemoryBudget(parse_size(args.memory))
    manager = CheckpointManager(device)
    tuning = None
    if args.resume and device.exists("input-edges"):
        edge_file = EdgeFile(ExternalFile.open(device, "input-edges"))
        node_file = (
            NodeFile(ExternalFile.open(device, "input-nodes"))
            if device.exists("input-nodes") else None
        )
    else:
        # Fresh start: clear any previous run's files and journal.
        for name in device.list_files():
            device.delete(name)
        manager.reset()
        edges = _load_edges(args.input, args.binary)
        if args.autotune:
            n = args.nodes or (
                1 + max(max(u, v) for u, v in edges) if edges else 0
            )
            tuning = autotune_config(
                n, len(edges), memory.nbytes, device.block_size,
                config=config, profile=profile, cache=cache,
            )
            config = tuning.config(config)
        edge_file = EdgeFile.from_edges(device, "input-edges", edges)
        node_file = None
        if args.nodes:
            node_file = NodeFile.from_ids(
                device, "input-nodes", range(args.nodes), memory, presorted=True
            )
    try:
        return device, ExtSCC(config, calibration=profile).run(
            device, edge_file, memory, nodes=node_file,
            on_iteration=on_iteration, checkpoint=manager, tuning=tuning,
        )
    except BaseException:
        device.sync()  # keep the journal durable for a later --resume
        raise


def _explain_scc(args: argparse.Namespace, config, profile=None,
                 cache=None) -> int:
    """``scc --explain``: print the optimized operator DAG of the first
    phase the run would execute (contract-1, or the semi-external hand-off
    when the input already fits) plus the analytic full-run schedule,
    without running anything.  With ``--autotune``, the candidate table —
    every enumerated (codec, K, executor, solver) with its calibrated
    prices — is printed first and the chosen config's plan follows."""
    from repro.analysis import plan_ext_scc
    from repro.analysis.cost_model import CostModel
    from repro.analysis.planner import autotune_config, optimize_plan
    from repro.core.contraction import build_contract_plan
    from repro.core.ext_scc import ExtSCC
    from repro.graph.edge_file import EdgeFile, NodeFile
    from repro.io.blocks import BlockDevice
    from repro.io.memory import MemoryBudget
    from repro.semi_external import build_semi_plan

    block_size = parse_size(args.block_size)
    memory_bytes = parse_size(args.memory)
    device = BlockDevice(block_size=block_size)
    memory = MemoryBudget(memory_bytes)
    edges = _load_edges(args.input, args.binary)
    edge_file = EdgeFile.from_edges(device, "input-edges", edges)
    if args.nodes:
        node_file = NodeFile.from_ids(
            device, "input-nodes", range(args.nodes), memory, presorted=True
        )
    else:
        node_file = edge_file.node_file(memory)
    decision = None
    if args.autotune:
        decision = autotune_config(
            node_file.num_nodes, edge_file.num_edges, memory_bytes,
            block_size, config=config, profile=profile, cache=cache,
        )
        config = decision.config(config)
        print(decision.render())
        print()
    solver = ExtSCC(config, calibration=profile)
    if profile is not None:
        model = profile.model(block_size, memory_bytes, config.codec)
    else:
        model = CostModel(block_size, memory_bytes)
    if solver.nodes_fit(node_file.num_nodes, memory, block_size):
        plan = build_semi_plan(
            device, edge_file, node_file, memory, config.semi_scc
        )
    else:
        plan = build_contract_plan(
            device, edge_file, node_file, memory, config, level=1
        )
    optimize_plan(plan, model, config, decision=decision)
    print(plan.render())
    print()
    print(plan_ext_scc(
        node_file.num_nodes, edge_file.num_edges, memory_bytes, block_size,
        model=model,
    ).render())
    return 0


def _render_health(health: dict) -> str:
    """One ``scc -v`` / ``bench`` line for the fault-health ledger."""
    return (
        f"health: retries={health.get('retries', 0)} "
        f"repairs={health.get('repairs', 0)} "
        f"redispatches={health.get('redispatches', 0)} "
        f"parity-writes={health.get('parity_writes', 0)} "
        f"escalations={health.get('escalations', 0)} "
        f"backoff={health.get('backoff_seconds', 0.0):.3f}s"
    )


def _cmd_scc(args: argparse.Namespace) -> int:
    from dataclasses import replace

    num_nodes = args.nodes if args.nodes else None
    config = (
        ExtSCCConfig.optimized() if args.algorithm == "ext-scc-op"
        else ExtSCCConfig.baseline()
    )
    if args.workers > 1 or args.executor != "serial":
        config = replace(config, workers=args.workers, executor=args.executor)
    if args.solver is not None:
        config = replace(config, semi_scc=args.solver)
    if args.objective != "io":
        config = replace(config, objective=args.objective)
    if args.verbose and kernels.requested() and not kernels.available():
        print(f"note: {kernels.fallback_reason()}; running the "
              "byte-identical pure-Python kernels", file=sys.stderr)
    if args.autotune and args.resume:
        print(
            "error: --autotune cannot be combined with --resume (the "
            "journal fixes the codec; re-tuning would invalidate it)",
            file=sys.stderr,
        )
        return 2
    if args.parity and args.checkpoint_dir:
        print(
            "error: --parity needs the in-memory striped device; the "
            "persistent --checkpoint-dir device has no parity channel "
            "(its durability story is the journal + checksums — use "
            "--resume to recover instead)",
            file=sys.stderr,
        )
        return 2
    # The calibration profile lives next to the device manifest by
    # convention; --calibration overrides the location.
    calibration_path = args.calibration or (
        calibration_path_for(args.checkpoint_dir)
        if args.checkpoint_dir else None
    )
    profile = (
        CalibrationProfile.load(calibration_path)
        if calibration_path and os.path.exists(calibration_path) else
        CalibrationProfile() if (calibration_path or args.autotune) else None
    )
    cache = PlanCache(args.plan_cache) if args.plan_cache else None
    if args.explain:
        return _explain_scc(args, config, profile=profile, cache=cache)

    def progress(record) -> None:
        print(
            f"  iteration {record.level}: |V| {record.num_nodes:,} -> "
            f"{record.next_num_nodes:,}, |E| {record.num_edges:,} -> "
            f"{record.next_num_edges:,} ({record.io.total:,} I/Os)",
            file=sys.stderr,
        )

    started = time.perf_counter()
    if args.checkpoint_dir:
        device, out = _run_checkpointed(
            args, config, progress if args.verbose else None,
            profile=profile, cache=cache,
        )
        device.close()
        if out.resumed:
            print(
                f"resumed from checkpoint in {args.checkpoint_dir} "
                f"(recovery: {out.recovery_io.total} block I/Os)",
                file=sys.stderr,
            )
        edge_count = out.iterations[0].num_edges if out.iterations else None
    else:
        edges = _load_edges(args.input, args.binary)
        edge_count = len(edges)
        out = compute_sccs(
            edges,
            num_nodes=num_nodes,
            memory_bytes=parse_size(args.memory),
            block_size=parse_size(args.block_size),
            config=config,
            on_iteration=progress if args.verbose else None,
            autotune=args.autotune,
            calibration=profile,
            plan_cache=cache,
            fault_policy=args.fault_policy,
            parity=args.parity,
        )
    elapsed = time.perf_counter() - started
    result = out.result
    if out.tuning is not None:
        chosen = out.tuning.chosen
        source = (
            "plan cache" if out.tuning.cache_hit
            else f"{len(out.tuning.candidates)} candidates in "
                 f"{out.tuning.planning_seconds * 1e3:.1f}ms"
        )
        print(
            f"autotune[{out.tuning.objective}]: codec={chosen.codec} "
            f"workers={chosen.workers} executor={chosen.executor} "
            f"solver={chosen.solver}  ({source})",
            file=sys.stderr,
        )
    edge_note = "?" if edge_count is None else edge_count
    print(f"nodes: {result.num_nodes}  edges: {edge_note}", file=sys.stderr)
    print(
        f"sccs: {result.num_sccs}  largest: {result.largest_size}  "
        f"non-trivial: {result.num_nontrivial}",
        file=sys.stderr,
    )
    print(
        f"iterations: {out.num_iterations}  block I/Os: {out.io.total} "
        f"(sequential {out.io.sequential}, random {out.io.random})  "
        f"{elapsed:.2f}s",
        file=sys.stderr,
    )
    if args.verbose and out.phase_seconds:
        breakdown = "  ".join(
            f"{label}: {seconds:.2f}s"
            for label, seconds in out.phase_seconds.items()
        )
        print(
            f"wall by phase: {breakdown}  (run total {out.wall_seconds:.2f}s)",
            file=sys.stderr,
        )
    if args.workers > 1:
        print(
            f"workers: {args.workers}  makespan: {out.makespan} block I/Os  "
            f"speedup: {out.parallel_speedup:.2f}x",
            file=sys.stderr,
        )
    # The health line only appears when the machinery is in play — plain
    # verbose runs keep their exact pre-fault-tolerance output.
    if args.verbose and (
        args.fault_policy is not None or args.parity
        or any(v for v in out.health.values())
    ):
        print(_render_health(out.health), file=sys.stderr)
        for event in out.health.get("events", ()):
            print(f"  degraded: {event}", file=sys.stderr)
    if args.trace_json:
        run_config = out.config
        context = {
            "codec": run_config.codec,
            "executor": run_config.executor,
            "workers": run_config.workers,
            "solver": run_config.semi_scc,
            "objective": run_config.objective,
            "block_size": parse_size(args.block_size),
            "memory_bytes": parse_size(args.memory),
            "io_total": out.io.total,
            "semi_io_total": out.semi_io.total,
            "wall_seconds": out.wall_seconds,
            "final_edges": (
                out.iterations[-1].next_num_edges if out.iterations else 0
            ),
            "bytes_by_width": {
                str(width): [count, stored]
                for width, (count, stored) in sorted(out.bytes_by_width.items())
            },
            "autotune": out.tuning.to_payload() if out.tuning else None,
            "cache": cache.stats() if cache is not None else None,
            "health": out.health,
            "kernels": {
                "numpy_requested": kernels.requested(),
                "numpy_active": kernels.available(),
                "fallback_reason": kernels.fallback_reason(),
            },
        }
        with open(args.trace_json, "w", encoding="ascii") as f:
            f.write(out.trace.to_json(plans=out.plans, context=context))
        print(
            f"trace ({len(out.trace.spans)} spans) written to "
            f"{args.trace_json}",
            file=sys.stderr,
        )
    if args.verbose and out.trace.spans:
        print(out.trace.render(), file=sys.stderr)
    if calibration_path is not None:
        profile.ingest_run(out, block_size=parse_size(args.block_size))
        profile.save(calibration_path)
        print(
            f"calibration profile updated: {calibration_path} "
            f"(version {profile.version})",
            file=sys.stderr,
        )
    if args.plan_cache and cache is not None:
        cache.save()
    if args.output:
        with open(args.output, "w", encoding="ascii") as f:
            for node in sorted(result.labels):
                f.write(f"{node} {result.labels[node]}\n")
        print(f"labels written to {args.output}", file=sys.stderr)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    graph = build_dataset(
        args.family,
        num_nodes=args.nodes,
        avg_degree=args.degree,
        scc_size=args.scc_size,
        scc_count=args.scc_count,
        seed=args.seed,
    )
    writer = write_edge_binary if args.binary else write_edge_text
    count = writer(args.output, graph.edges)
    print(
        f"{args.family}: {graph.num_nodes} nodes, {count} edges -> {args.output}",
        file=sys.stderr,
    )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.autotune and args.algorithm not in ("Ext-SCC", "Ext-SCC-Op"):
        print(
            f"error: --autotune only applies to Ext-SCC variants, not "
            f"{args.algorithm}",
            file=sys.stderr,
        )
        return 2
    edges = _load_edges(args.input, args.binary)
    num_nodes = args.nodes or (1 + max(max(u, v) for u, v in edges))
    profile = (
        CalibrationProfile.load(args.calibration)
        if args.calibration and os.path.exists(args.calibration)
        else CalibrationProfile() if (args.calibration or args.autotune)
        else None
    )
    result = run_algorithm(
        args.algorithm,
        edges,
        num_nodes,
        memory_bytes=parse_size(args.memory),
        block_size=parse_size(args.block_size),
        io_budget=args.io_budget,
        workers=args.workers,
        executor=args.executor,
        autotune=args.autotune,
        calibration=profile,
        objective=args.objective,
        fault_policy=args.fault_policy,
        parity=args.parity,
    )
    print(
        f"{result.algorithm}: {result.status}  I/Os: {result.io_total} "
        f"(random {result.io_random})  wall: {result.wall_seconds:.2f}s  "
        f"sccs: {result.num_sccs}"
    )
    if result.autotune:
        a = result.autotune
        print(
            f"autotune[{a['objective']}]: codec={a['codec']} "
            f"workers={a['workers']} executor={a['executor']} "
            f"solver={a['solver']}  ({a['candidates']} candidates, "
            f"predicted {a['predicted_ios']:,} blk)"
        )
    top_phases = [
        label
        for label in ("recovery", "contraction", "semi-scc", "expansion")
        if label in result.phases
    ]
    if top_phases:
        breakdown = "  ".join(
            f"{label}: {result.phases[label].get('wall_seconds', 0.0):.2f}s"
            for label in top_phases
        )
        print(f"wall by phase: {breakdown}")
    if args.workers > 1:
        print(
            f"workers: {result.workers}  makespan: {result.makespan} "
            f"(speedup {result.parallel_speedup:.2f}x, per-channel "
            f"{result.channel_io})"
        )
    if (args.fault_policy is not None or args.parity
            or any(v for v in result.health.values())):
        print(_render_health(result.health))
        for event in result.health.get("events", ()):
            print(f"  degraded: {event}")
    return 0 if result.ok else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.analysis import arboricity_upper_bound, degree_stats
    from repro.graph.edge_file import EdgeFile
    from repro.io.blocks import BlockDevice
    from repro.io.memory import MemoryBudget

    edges = _load_edges(args.input, args.binary)
    device = BlockDevice(block_size=parse_size(args.block_size))
    memory = MemoryBudget(parse_size(args.memory))
    edge_file = EdgeFile.from_edges(device, "edges", edges)
    stats = degree_stats(edge_file, memory)
    print(f"nodes (touched): {stats.num_nodes}")
    print(f"edges:           {stats.num_edges}")
    print(f"avg degree:      {stats.average_degree:.2f}")
    print(f"max deg in/out:  {stats.max_in_degree}/{stats.max_out_degree} "
          f"(total {stats.max_total_degree})")
    print(f"sources/sinks:   {stats.num_sources}/{stats.num_sinks} "
          "(Type-1 candidates)")
    print(f"arboricity <=    {arboricity_upper_bound(stats)} "
          "(Chiba-Nishizeki bound)")
    if args.histogram:
        for degree in sorted(stats.histogram):
            print(f"  deg {degree:>5}: {stats.histogram[degree]}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.core.result import SCCResult
    from repro.graph.digraph import DiGraph
    from repro.memory_scc import tarjan_scc

    edges = _load_edges(args.input, args.binary)
    claimed_pairs = []
    with open(args.labels, "r", encoding="ascii") as f:
        for line in f:
            line = line.strip()
            if line and not line.startswith("#"):
                node, label = line.split()
                claimed_pairs.append((int(node), int(label)))
    claimed = SCCResult.from_pairs(claimed_pairs)
    graph = DiGraph(edges, nodes=list(claimed.labels))
    expected = SCCResult(tarjan_scc(graph))
    if claimed == expected:
        print(f"OK: {claimed.num_sccs} SCCs over {claimed.num_nodes} nodes "
              "match the reference recomputation")
        return 0
    mismatched = sum(
        1 for node in expected.labels
        if claimed.labels.get(node) != expected.labels[node]
    )
    print(f"MISMATCH: {mismatched} of {expected.num_nodes} node labels "
          f"disagree (claimed {claimed.num_sccs} SCCs, "
          f"expected {expected.num_sccs})", file=sys.stderr)
    return 1


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.analysis import plan_ext_scc

    plan = plan_ext_scc(
        args.nodes,
        args.edges,
        memory_bytes=parse_size(args.memory),
        block_size=parse_size(args.block_size),
        node_retention=args.node_retention,
        edge_growth=args.edge_growth,
    )
    print(plan.render())
    return 0 if plan.feasible else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import LabelStore, QueryDaemon, build_store

    if args.build:
        edges = _load_edges(args.build, args.binary)
        meta = build_store(
            edges,
            args.store,
            num_nodes=args.nodes or None,
            memory_bytes=parse_size(args.memory),
            block_size=parse_size(args.block_size),
        )
        print(
            f"store built: {meta['num_sccs']} SCCs over "
            f"{meta['num_nodes']} nodes -> {args.store} "
            f"({meta['scc_io']:,} block I/Os)",
            file=sys.stderr,
        )
        if args.build_only:
            return 0
    store = LabelStore(
        args.store,
        memory_bytes=parse_size(args.memory),
        cache_entries=args.cache,
    )
    daemon = QueryDaemon(
        store,
        host=args.host,
        port=args.port,
        epoch_seconds=args.epoch_ms / 1000.0,
        owns_store=True,
    )
    host, port = daemon.address[0], daemon.address[1]
    # Printed to stderr and flushed so a wrapper (or test) can scrape
    # the bound port before the first client connects.
    print(f"serving {args.store} on {host}:{port}", file=sys.stderr, flush=True)
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        daemon.close()
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    import json as _json

    from repro.service import ServiceClient

    if args.kind in ("same-component", "reachable") and len(args.args) != 2:
        print(f"error: {args.kind} takes exactly two node ids",
              file=sys.stderr)
        return 2
    if args.kind in ("scc-label", "topo-order") and not args.args:
        print(f"error: {args.kind} takes at least one node id",
              file=sys.stderr)
        return 2
    with ServiceClient(host=args.host, port=args.port) as client:
        needs_session = args.kind not in ("server-stats", "shutdown")
        if needs_session:
            client.open_session(args.tenant, io_budget=args.io_budget)
        if args.kind == "scc-label":
            nodes = [int(a) for a in args.args]
            for node, label in sorted(client.scc_label(nodes).items()):
                print(f"{node} {'-' if label is None else label}")
        elif args.kind == "same-component":
            u, v = (int(a) for a in args.args[:2])
            print("same" if client.same_component(u, v) else "different")
        elif args.kind == "reachable":
            u, v = (int(a) for a in args.args[:2])
            print("reachable" if client.reachable(u, v) else "unreachable")
        elif args.kind == "topo-order":
            nodes = [int(a) for a in args.args]
            for node, order in sorted(client.topo_order(nodes).items()):
                if order is None:
                    print(f"{node} -")
                else:
                    print(f"{node} component={order[0]} layer={order[1]}")
        elif args.kind == "stats":
            ledger = client.session_stats()
            io = ledger["io"]
            print(
                f"session {ledger['session']} tenant={ledger['tenant']}: "
                f"{ledger['queries']} queries, {ledger['lookups']} lookups "
                f"({ledger['cache_hits']} cache hits), "
                f"{io['total']} attributed block I/Os "
                f"(sequential {io['sequential']}, random {io['random']})"
            )
        elif args.kind == "server-stats":
            stats = client.server_stats()
            io = stats["physical_io"]
            label_report = stats["scc_label"]
            print(
                f"physical I/O: {io['total']} blocks "
                f"(sequential {io['sequential']}, random {io['random']})"
            )
            print(
                f"scc-label: {label_report['batch_lookups']} batched lookups "
                f"in {label_report['batch_block_reads']} block reads, "
                f"label-cache hit rate "
                f"{label_report['label_cache_hit_rate']:.2f}"
            )
            print(
                f"sessions: {stats['sessions']['open_sessions']} open, "
                f"{stats['sessions']['queries']} queries, "
                f"{stats['sessions']['throttled']} throttled"
            )
        elif args.kind == "shutdown":
            client.shutdown()
            print("shutdown acknowledged", file=sys.stderr)
        if args.trace_json and needs_session:
            payload = {
                "session": client.session_stats(),
                "server": client.server_stats(),
            }
            with open(args.trace_json, "w", encoding="ascii") as f:
                _json.dump(payload, f, indent=1)
            print(
                f"session trace written to {args.trace_json}", file=sys.stderr
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Contract & Expand: I/O efficient external SCC computation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scc = sub.add_parser("scc", help="compute all SCCs of an edge-list file")
    scc.add_argument("input", help="edge list: 'u v' per line (or --binary)")
    scc.add_argument("--output", "-o", help="write 'node scc' labels here")
    scc.add_argument("--nodes", type=int, default=0,
                     help="node count (nodes are 0..N-1; default: derive from edges)")
    scc.add_argument("--memory", "-m", default="1M", help="memory budget (e.g. 512K)")
    scc.add_argument("--block-size", "-b", default="4K", help="disk block size")
    scc.add_argument("--algorithm", choices=["ext-scc", "ext-scc-op"],
                     default="ext-scc-op")
    scc.add_argument("--binary", action="store_true", help="input is packed <II")
    scc.add_argument("--verbose", "-v", action="store_true",
                     help="print per-iteration contraction progress")
    scc.add_argument("--workers", type=_positive_int, default=1,
                     help="shard/channel width K: stripe the simulated disk "
                          "over K channels and shard sorts/scans K ways "
                          "(same total I/O, reported makespan shrinks)")
    scc.add_argument("--explain", action="store_true",
                     help="print the optimized operator plan (per-operator "
                          "predicted I/Os) and the analytic schedule, then "
                          "exit without running")
    scc.add_argument("--trace-json", metavar="PATH",
                     help="after the run, dump the per-operator execution "
                          "trace (predicted vs. measured I/Os per plan "
                          "stage) as JSON to PATH")
    scc.add_argument("--solver", choices=sorted(SEMI_SCC_SOLVERS),
                     default=None,
                     help="semi-external SCC solver for the contracted "
                          "graph (default: the config's spanning-tree; "
                          "all registered solvers produce identical "
                          "canonical labels)")
    scc.add_argument("--executor", choices=list(EXECUTOR_BACKENDS),
                     default="serial",
                     help="worker-pool backend (serial is deterministic "
                          "and default; threads uses real threads)")
    scc.add_argument("--checkpoint-dir",
                     help="journal phase boundaries in this directory "
                          "(a persistent device) so a crashed run can be "
                          "resumed")
    scc.add_argument("--resume", action="store_true",
                     help="continue a crashed run from the journal in "
                          "--checkpoint-dir instead of starting over")
    scc.add_argument("--autotune", action="store_true",
                     help="let the cost-based optimizer pick codec, worker "
                          "count K, executor, and semi-external solver by "
                          "pricing every combination against the "
                          "calibrated cost model before running")
    scc.add_argument("--objective", choices=list(OBJECTIVES), default="io",
                     help="what --autotune minimizes: predicted block "
                          "I/Os (io, default) or predicted wall-seconds "
                          "(wallclock, needs a calibration profile to "
                          "differ from io)")
    scc.add_argument("--calibration", metavar="PATH",
                     help="calibration profile JSON to price candidates "
                          "with; updated from this run's measurements "
                          "afterwards (default: calibration.json inside "
                          "--checkpoint-dir when one is given)")
    scc.add_argument("--plan-cache", metavar="PATH",
                     help="persistent plan cache: repeated --autotune "
                          "queries with the same graph shape, budget, and "
                          "calibration version skip the knob search")
    scc.add_argument("--fault-policy", type=_fault_policy, default=None,
                     metavar="SPEC",
                     help="retry/backoff policy for transient storage "
                          "faults as key=value pairs, e.g. "
                          "'retries=5,backoff=0.002,factor=2,jitter=0.1,"
                          "seed=7,deadline=1.0,timeout=30' "
                          "(default policy: 3 retries, exponential "
                          "backoff with deterministic jitter)")
    scc.add_argument("--parity", action="store_true",
                     help="keep a RAID-5-style XOR parity channel next to "
                          "the data channels so a single channel outage "
                          "or checksum-failed block is read-repaired in "
                          "flight (in-memory striped device only; not "
                          "compatible with --checkpoint-dir)")
    scc.set_defaults(func=_cmd_scc)

    gen = sub.add_parser("generate", help="generate a Table I / webspam dataset")
    gen.add_argument("family",
                     choices=["massive-scc", "large-scc", "small-scc", "webspam"])
    gen.add_argument("output")
    gen.add_argument("--nodes", type=int, default=None)
    gen.add_argument("--degree", type=float, default=None)
    gen.add_argument("--scc-size", type=int, default=None)
    gen.add_argument("--scc-count", type=int, default=None)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--binary", action="store_true")
    gen.set_defaults(func=_cmd_generate)

    bench = sub.add_parser("bench", help="run one algorithm, report the I/O ledger")
    bench.add_argument("input")
    bench.add_argument("--algorithm", "-a", choices=sorted(ALGORITHMS),
                       default="Ext-SCC-Op")
    bench.add_argument("--nodes", type=int, default=0)
    bench.add_argument("--memory", "-m", default="1M")
    bench.add_argument("--block-size", "-b", default="4K")
    bench.add_argument("--io-budget", type=int, default=None,
                       help="block-I/O cap; exceeded -> INF (exit 1)")
    bench.add_argument("--workers", type=_positive_int, default=1,
                       help="shard/channel width K for Ext-SCC runs")
    bench.add_argument("--executor", choices=list(EXECUTOR_BACKENDS),
                       default="serial",
                       help="worker-pool backend for Ext-SCC runs")
    bench.add_argument("--binary", action="store_true")
    bench.add_argument("--autotune", action="store_true",
                       help="let the optimizer pick codec/K/executor/"
                            "solver for Ext-SCC runs (overrides --workers "
                            "and --executor)")
    bench.add_argument("--objective", choices=list(OBJECTIVES), default="io",
                       help="autotune objective: predicted I/Os or "
                            "predicted wall-seconds")
    bench.add_argument("--calibration", metavar="PATH",
                       help="calibration profile JSON for autotune pricing")
    bench.add_argument("--fault-policy", type=_fault_policy, default=None,
                       metavar="SPEC",
                       help="retry/backoff policy for transient storage "
                            "faults (key=value pairs; see scc "
                            "--fault-policy)")
    bench.add_argument("--parity", action="store_true",
                       help="keep a RAID-5 parity channel on the striped "
                            "device (forces striping even for K=1)")
    bench.set_defaults(func=_cmd_bench)

    stats = sub.add_parser("stats", help="degree/structure statistics")
    stats.add_argument("input")
    stats.add_argument("--memory", "-m", default="1M")
    stats.add_argument("--block-size", "-b", default="4K")
    stats.add_argument("--histogram", action="store_true",
                       help="print the full degree histogram")
    stats.add_argument("--binary", action="store_true")
    stats.set_defaults(func=_cmd_stats)

    verify = sub.add_parser("verify",
                            help="check a labels file against a recomputation")
    verify.add_argument("input", help="the edge list the labels refer to")
    verify.add_argument("labels", help="a 'node scc' labels file (from scc -o)")
    verify.add_argument("--binary", action="store_true")
    verify.set_defaults(func=_cmd_verify)

    explain = sub.add_parser(
        "explain", help="predict an Ext-SCC run's iterations and I/O"
    )
    explain.add_argument("--nodes", type=_count, required=True)
    explain.add_argument("--edges", type=_count, required=True)
    explain.add_argument("--memory", "-m", default="1M")
    explain.add_argument("--block-size", "-b", default="4K")
    explain.add_argument("--node-retention", type=float, default=0.72)
    explain.add_argument("--edge-growth", type=float, default=1.25)
    explain.set_defaults(func=_cmd_explain)

    serve = sub.add_parser(
        "serve",
        help="run the multi-tenant query daemon over a persisted label store",
    )
    serve.add_argument("store", help="label-store directory (see --build)")
    serve.add_argument("--build", metavar="INPUT",
                       help="edge-list file: compute SCCs and (re)build the "
                            "store in STORE before serving")
    serve.add_argument("--build-only", action="store_true",
                       help="with --build: exit after building, don't serve")
    serve.add_argument("--nodes", type=int, default=0,
                       help="node count for --build (default: derive)")
    serve.add_argument("--memory", "-m", default="1M",
                       help="memory budget for building and serving")
    serve.add_argument("--block-size", "-b", default="4K",
                       help="disk block size for --build")
    serve.add_argument("--binary", action="store_true",
                       help="--build input is packed <II")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (0 picks a free one; the bound "
                            "address is printed to stderr)")
    serve.add_argument("--epoch-ms", type=float, default=5.0,
                       help="batching epoch: concurrent lookups arriving "
                            "within this window share block reads")
    serve.add_argument("--cache", type=int, default=4096,
                       help="LRU label-cache entries per table (0 disables)")
    serve.set_defaults(func=_cmd_serve)

    query = sub.add_parser(
        "query", help="one client round trip against a running daemon"
    )
    query.add_argument("kind",
                       choices=["scc-label", "same-component", "reachable",
                                "topo-order", "stats", "server-stats",
                                "shutdown"])
    query.add_argument("args", nargs="*",
                       help="node ids (scc-label/topo-order take N, "
                            "same-component/reachable take exactly 2)")
    query.add_argument("--host", default="127.0.0.1")
    query.add_argument("--port", type=int, required=True)
    query.add_argument("--tenant", default="default",
                       help="tenant name for the session ledger")
    query.add_argument("--io-budget", type=int, default=None,
                       help="attributed block-I/O cap for this session; a "
                            "batch that would cross it is throttled "
                            "without performing any I/O")
    query.add_argument("--trace-json", metavar="PATH",
                       help="dump the session ledger + server stats as "
                            "JSON to PATH before closing the session")
    query.set_defaults(func=_cmd_query)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RetryExhaustedError as exc:
        # Exit 5: the retry budget ran dry on a persistent transient
        # fault.  Distinct from plain storage misuse so wrappers can
        # re-queue the run.
        print(f"error: {exc}", file=sys.stderr)
        print(
            "retries exhausted: raise the budget (--fault-policy "
            "retries=N[,deadline=SECONDS]) or investigate the failing "
            "channel; with --checkpoint-dir the journal is durable, so "
            "rerunning with --resume continues from the last phase "
            "boundary",
            file=sys.stderr,
        )
        return 5
    except CorruptBlockError as exc:
        # Exit 4: a block failed its checksum and could not be repaired.
        print(f"error: {exc}", file=sys.stderr)
        print(
            "unrecoverable corrupt block: rerun with --parity to "
            "read-repair single-block damage in flight, or restore from "
            "a --checkpoint-dir journal with --resume",
            file=sys.stderr,
        )
        return 4
    except StorageError as exc:
        # Exit 3: storage-layer failure (missing file, capacity misuse,
        # channel fault outside the retry machinery).
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
