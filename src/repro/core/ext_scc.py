"""Ext-SCC: the contract-and-expand external SCC algorithm (Algorithm 2).

Pipeline::

    G_1 = G
    while V_i does not fit in memory:          # graph contraction
        V_{i+1} = Get-V(G_i)                   # Algorithm 3
        E_{i+1} = Get-E(G_i, V_{i+1})          # Algorithm 4
    SCC_l = Semi-SCC(G_l)                      # semi-external solver
    for i = l-1 .. 1:                          # graph expansion
        SCC_i = Expansion(G_i, G_{i+1}, SCC_{i+1})   # Algorithm 5
    return SCC_1

The stop condition is the paper's ``bytes_per_node * |V_i| + B <= M`` (the
memory 1PB-SCC needs).  When the input already satisfies it, no contraction
happens and the semi-external solver runs directly — the sharp cost drop at
``M >= 8|V| + B`` in Figure 7.

:func:`compute_sccs` is the one-call convenience API used by the examples;
:class:`ExtSCC` is the object API exposing per-iteration statistics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.config import ExtSCCConfig
from repro.core.contraction import ContractionLevel, build_contract_plan
from repro.core.expansion import build_expand_plan
from repro.core.result import SCCResult
from repro.exceptions import IOBudgetExceeded, ReproError, SimulatedCrash
from repro.graph.edge_file import EdgeFile, NodeFile
from repro.io.blocks import DEFAULT_BLOCK_SIZE, BlockDevice
from repro.io.codecs import CODECS
from repro.io.memory import MemoryBudget
from repro.io.parallel import EXECUTOR_BACKENDS, MakespanMeter, WorkerPool
from repro.io.pool import SharedBufferPool
from repro.io.stats import RECOVERY_PHASE, IOBudget, IOSnapshot, IOStats
from repro.plan import ExtPlan, PlanExecutor, Span, TraceLedger
from repro.semi_external import SEMI_SCC_SOLVERS, build_semi_plan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (recovery imports us)
    from repro.analysis.calibration import CalibrationProfile
    from repro.analysis.planner import TuningDecision
    from repro.plan.cache import PlanCache
    from repro.recovery.checkpoint import CheckpointManager, ResumeState
    from repro.recovery.fault import FaultSchedule
    from repro.recovery.policy import FaultPolicy

__all__ = ["ExtSCC", "ExtSCCOutput", "IterationRecord", "compute_sccs"]

Edge = Tuple[int, int]


@dataclass(frozen=True)
class IterationRecord:
    """Sizes and I/O of one contraction iteration (``G_i -> G_{i+1}``).

    These are the quantities behind Theorems 5.3/5.4 and the paper's
    discussion of contraction stability; the ablation benchmark prints
    them per iteration.
    """

    level: int
    num_nodes: int
    num_edges: int
    next_num_nodes: int
    next_num_edges: int
    io: IOSnapshot

    @property
    def nodes_removed(self) -> int:
        """How many nodes this iteration removed."""
        return self.num_nodes - self.next_num_nodes

    @property
    def edge_growth(self) -> float:
        """``|E_{i+1}| / |E_i|`` — Section VII aims to push this below 1."""
        if self.num_edges == 0:
            return 0.0
        return self.next_num_edges / self.num_edges


@dataclass
class ExtSCCOutput:
    """Everything an Ext-SCC run produces.

    Attributes:
        result: the SCC labeling (canonicalized).
        iterations: one record per contraction iteration (empty when the
            input fit in memory immediately).
        io: total block I/O of the run.
        contraction_io / semi_io / expansion_io: per-phase I/O.
        wall_seconds: wall-clock time of the run.
        phase_seconds: wall-clock seconds per top-level phase label
            (``contraction`` / ``semi-scc`` / ``expansion`` / ``recovery``)
            — a host measurement, never part of the deterministic ledger.
        config: the configuration used.
        recovery_io: journal-validation I/O of a checkpointed run (zero
            unless a crashed run was resumed).
        resumed: this run continued a crashed one from its checkpoint.
        makespan: critical-path block I/Os — per top-level phase, the
            busiest channel's share, summed (see
            :class:`~repro.io.parallel.MakespanMeter`).  Equals
            ``io.total`` on an unstriped device or with one channel.
        channel_io: per-channel I/O totals of a striped run (a single
            entry equal to ``io.total`` when unstriped).
        trace: per-operator execution spans (one per executed plan stage,
            predicted vs. measured I/Os) — what ``--trace-json`` dumps.
        plans: the optimized plans the run executed, in execution order,
            with next-level size estimates trued up to the measured sizes
            (so a calibrated model can re-price them post-run).
        bytes_by_width: the run's payload ledger delta —
            ``{logical width: (records, stored bytes)}`` — what
            :meth:`~repro.analysis.calibration.CalibrationProfile.ingest_run`
            fits per-codec stored widths from.
        tuning: the autotuner's decision when the run was autotuned
            (``None`` on the static path).
        health: the fault-tolerance ledger delta of the run — retries,
            read-repairs, re-dispatched tasks, parity writes, escalations,
            simulated backoff seconds, and degradation events (see
            :class:`~repro.io.stats.HealthLedger`).  All zeros/empty on a
            fault-free run.
    """

    result: SCCResult
    iterations: List[IterationRecord]
    io: IOSnapshot
    contraction_io: IOSnapshot
    semi_io: IOSnapshot
    expansion_io: IOSnapshot
    wall_seconds: float
    config: ExtSCCConfig
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    recovery_io: IOSnapshot = field(default_factory=IOSnapshot)
    resumed: bool = False
    makespan: int = 0
    channel_io: List[int] = field(default_factory=list)
    trace: TraceLedger = field(default_factory=TraceLedger)
    plans: List[ExtPlan] = field(default_factory=list)
    bytes_by_width: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    tuning: Optional["TuningDecision"] = None
    health: Dict[str, object] = field(default_factory=dict)

    @property
    def num_iterations(self) -> int:
        """Number of contraction iterations performed."""
        return len(self.iterations)

    @property
    def parallel_speedup(self) -> float:
        """``total I/O / makespan`` — how much of the work the channels
        overlapped (1.0 when serial or unstriped)."""
        return self.io.total / self.makespan if self.makespan else 1.0


class ExtSCC:
    """The contract-and-expand external SCC solver.

    Args:
        config: pipeline configuration; defaults to plain Ext-SCC
            (:meth:`ExtSCCConfig.baseline`).  Use
            :meth:`ExtSCCConfig.optimized` for Ext-SCC-Op.
        calibration: optional
            :class:`~repro.analysis.calibration.CalibrationProfile`; the
            planner then prices every plan with the fitted per-codec
            stored widths instead of the analytic logical widths.
            Predictions only — execution and labels never depend on it.
    """

    def __init__(self, config: Optional[ExtSCCConfig] = None,
                 calibration: Optional["CalibrationProfile"] = None) -> None:
        self.config = config if config is not None else ExtSCCConfig.baseline()
        self.calibration = calibration
        if self.config.semi_scc not in SEMI_SCC_SOLVERS:
            raise ReproError(
                f"unknown semi-external solver {self.config.semi_scc!r}; "
                f"choose from {sorted(SEMI_SCC_SOLVERS)}"
            )
        if self.config.codec not in CODECS:
            raise ReproError(
                f"unknown codec {self.config.codec!r}; "
                f"choose from {sorted(CODECS)}"
            )
        if self.config.workers < 1:
            raise ReproError(
                f"workers must be at least 1, got {self.config.workers}"
            )
        if self.config.executor not in EXECUTOR_BACKENDS:
            raise ReproError(
                f"unknown executor {self.config.executor!r}; "
                f"choose from {sorted(EXECUTOR_BACKENDS)}"
            )

    def nodes_fit(self, num_nodes: int, memory: MemoryBudget, block_size: int) -> bool:
        """The contraction stop condition: can Semi-SCC handle |V| nodes?"""
        return self.config.bytes_per_node * num_nodes + block_size <= memory.nbytes

    def run(
        self,
        device: BlockDevice,
        edges: EdgeFile,
        memory: MemoryBudget,
        nodes: Optional[NodeFile] = None,
        on_iteration: Optional[Callable[[IterationRecord], None]] = None,
        checkpoint: Optional["CheckpointManager"] = None,
        tuning: Optional["TuningDecision"] = None,
    ) -> ExtSCCOutput:
        """Compute all SCCs of the graph stored in ``edges``.

        Args:
            device: the simulated disk the graph lives on.
            edges: the edge file ``E``.
            memory: the budget ``M`` (must satisfy ``M >= 2B``).
            nodes: the node file ``V``; derived from the edges when omitted
                (isolated nodes must be supplied explicitly).
            on_iteration: optional progress callback invoked after every
                contraction iteration with its :class:`IterationRecord`
                (long external runs report progress this way).
            checkpoint: optional
                :class:`~repro.recovery.checkpoint.CheckpointManager` on
                ``device``.  Phase boundaries are then journaled so a
                crashed run resumes from the last durable level instead of
                restarting; journal-validation reads of a resume are
                charged to the ``recovery`` phase.  Checkpointing an
                uninterrupted run costs zero simulated I/O.
            tuning: the :func:`~repro.analysis.planner.autotune_config`
                decision that chose this run's config.  Recorded on the
                output and in every plan's rewrite log; a cold search
                additionally logs a ``planning``-phase span with its wall
                time (a warm cache hit logs none — that *is* the cache's
                win).

        Returns:
            An :class:`ExtSCCOutput` with the labeling and statistics.
        """
        config = self.config
        memory.validate_against_block(device.block_size)
        stats: IOStats = device.stats
        # One knob switches every intermediate the run writes: operators
        # that don't take an explicit codec argument fall back to this.
        device.default_codec = config.codec
        if device.pool is None and config.pool_readahead > 1:
            # Readahead + write coalescing are counter-neutral (every block
            # is still charged once, with the caller's access pattern), so
            # attaching the pool never changes the ledger — only the shape
            # of the request stream a real disk would see.
            SharedBufferPool(
                device,
                readahead=config.pool_readahead,
                coalesce_writes=config.pool_coalesce_writes,
            )
        created_pool: Optional[WorkerPool] = None
        if device.worker_pool is None and config.workers > 1:
            # The shard width of every partitionable operator downstream.
            # Task-level only: shard contents and charges are identical to
            # the serial pipeline, so any K reproduces the K=1 ledger.
            created_pool = WorkerPool(workers=config.workers, backend=config.executor)
            device.attach_workers(created_pool)
        meter = MakespanMeter(device)
        start = time.perf_counter()
        # Wall-clock per top-level phase is reported as a delta against the
        # device's ledger, which may already carry phases from a prior run.
        seconds_start = dict(stats.seconds_by_phase)
        bytes_start = {
            width: (count, stored)
            for width, (count, stored) in stats.bytes_by_width.items()
        }
        preexisting = set(device.list_files())
        run_start = stats.snapshot()
        health_start = stats.health.snapshot()

        state: Optional["ResumeState"] = None
        recovery_io = IOSnapshot()
        if checkpoint is not None:
            recovery_start = stats.snapshot()
            with stats.phase(RECOVERY_PHASE):
                state = checkpoint.recover(edges, memory, config)
            recovery_io = stats.snapshot() - recovery_start
            if not state.resumed:
                checkpoint.begin(edges, nodes, memory, config)
        try:
            return self._pipeline(
                device, edges, memory, nodes, on_iteration, checkpoint,
                state, stats, run_start, recovery_io, start, meter,
                seconds_start, bytes_start, tuning, health_start,
            )
        except (IOBudgetExceeded, SimulatedCrash):
            if checkpoint is None:
                # Abort hygiene: without a journal to make them reachable,
                # half-built intermediates are garbage — drop everything
                # this run created.  Deletes are free, so the ledger still
                # shows exactly where the abort happened.
                for name in device.list_files():
                    if name not in preexisting:
                        device.delete(name)
            raise
        finally:
            if created_pool is not None:
                # Drop the worker threads this run spun up.  The pool
                # object stays attached and usable — a later run on the
                # same device lazily recreates them.
                created_pool.close()

    def _pipeline(
        self,
        device: BlockDevice,
        edges: EdgeFile,
        memory: MemoryBudget,
        nodes: Optional[NodeFile],
        on_iteration: Optional[Callable[[IterationRecord], None]],
        checkpoint: Optional["CheckpointManager"],
        state: Optional["ResumeState"],
        stats: IOStats,
        run_start: IOSnapshot,
        recovery_io: IOSnapshot,
        start: float,
        meter: MakespanMeter,
        seconds_start: Optional[Dict[str, float]] = None,
        bytes_start: Optional[Dict[str, Tuple[int, int]]] = None,
        tuning: Optional["TuningDecision"] = None,
        health_start: Optional[Dict[str, object]] = None,
    ) -> ExtSCCOutput:
        """The contract / semi / expand pipeline, parameterized by an
        optional :class:`ResumeState` that skips the already-durable part.

        Every phase is built as an :class:`~repro.plan.ExtPlan`, rewritten
        by the planner, and run through one :class:`PlanExecutor` that
        feeds the run's trace ledger and fires the checkpoint commits
        declared on ``Materialize`` nodes.  The stage thunks are the same
        fused pipelines as before, so the ledger and labels are identical
        to the pre-plan code path.
        """
        # Function-level imports: analysis.cost_model imports this module
        # (for IterationRecord), so the planner cannot be imported at the
        # top without a cycle.
        from repro.analysis.cost_model import CostModel
        from repro.analysis.planner import optimize_plan

        config = self.config
        resumed = state is not None and state.resumed
        if self.calibration is not None:
            model = self.calibration.model(
                device.block_size, memory.nbytes, config.codec
            )
        else:
            model = CostModel(device.block_size, memory.nbytes)
        trace = TraceLedger()
        plans: List[ExtPlan] = []
        executor = PlanExecutor(device, trace=trace)
        if tuning is not None and not tuning.cache_hit:
            # The one span of the planning phase: the knob search's wall
            # time.  A warm cache hit records nothing here — "zero
            # planning-phase spans" is the cache's observable win.
            trace.record(Span(
                plan="autotune", stage="search", phase="planning",
                operators=(f"search:{len(tuning.candidates)} candidates",),
                predicted_ios=None, reads=0, writes=0, random_ios=0,
                records=len(tuning.candidates), bytes_stored=0, makespan=0,
                wall_seconds=tuning.planning_seconds,
            ))

        if state is not None and state.nodes is not None:
            nodes = state.nodes
        elif nodes is None:
            nodes = edges.node_file(memory)
            if checkpoint is not None:
                checkpoint.commit_nodes(nodes)

        levels: List[ContractionLevel] = list(state.levels) if resumed else []
        iterations: List[IterationRecord] = list(state.iterations) if resumed else []
        if resumed and state.frontier_edges is not None:
            current_edges: EdgeFile = state.frontier_edges
            current_nodes: NodeFile = state.frontier_nodes
        else:
            current_edges, current_nodes = edges, nodes
        semi_done = resumed and state.semi_done

        contraction_start = stats.snapshot()
        if not semi_done:
            with stats.phase("contraction"):
                i = len(iterations) + 1
                while not self.nodes_fit(
                    current_nodes.num_nodes, memory, device.block_size
                ):
                    if i > config.max_iterations:
                        raise ReproError(
                            f"contraction did not converge in "
                            f"{config.max_iterations} iterations"
                        )
                    before = stats.snapshot()
                    made: dict = {}

                    def record_for(lvl: ContractionLevel) -> IterationRecord:
                        # Built at most once per iteration: the journal's
                        # commit hook (fired at the plan's Materialize,
                        # after all of the iteration's I/O) and the
                        # iterations list share the same record.
                        if "record" not in made:
                            made["record"] = IterationRecord(
                                level=lvl.level,
                                num_nodes=lvl.num_nodes,
                                num_edges=lvl.num_edges,
                                next_num_nodes=lvl.next_nodes.num_nodes,
                                next_num_edges=lvl.next_edges.num_edges,
                                io=stats.snapshot() - before,
                            )
                        return made["record"]

                    with stats.phase(f"contract-{i}"):
                        plan = build_contract_plan(
                            device, current_edges, current_nodes, memory,
                            config, level=i,
                        )
                        optimize_plan(plan, model, config, decision=tuning)
                        hooks = (
                            checkpoint.plan_hooks(record_factory=record_for)
                            if checkpoint is not None else None
                        )
                        level = executor.execute(plan, commit_hooks=hooks)
                    _true_up_contract_plan(plan, level)
                    plans.append(plan)
                    record = record_for(level)
                    iterations.append(record)
                    if on_iteration is not None:
                        on_iteration(record)
                    levels.append(level)
                    current_edges = level.next_edges
                    current_nodes = level.next_nodes
                    i += 1
        contraction_io = stats.snapshot() - contraction_start

        semi_start = stats.snapshot()
        if semi_done:
            scc_file = state.scc_store
        else:
            with stats.phase("semi-scc"):
                plan = build_semi_plan(
                    device, current_edges, current_nodes, memory,
                    config.semi_scc,
                )
                optimize_plan(plan, model, config, decision=tuning)
                hooks = (
                    checkpoint.plan_hooks() if checkpoint is not None else None
                )
                scc_file = executor.execute(plan, commit_hooks=hooks)
            plans.append(plan)
        semi_io = stats.snapshot() - semi_start

        expansion_start = stats.snapshot()
        with stats.phase("expansion"):
            for level in reversed(levels):
                scc_prev = scc_file
                with stats.phase(f"expand-{level.level}"):
                    # Commit-then-delete: under checkpointing the previous
                    # labels survive until the expand entry is durable —
                    # the plan's final Materialize declares the ``expand``
                    # role, so the executor commits it before this loop
                    # deletes the previous labels.
                    plan = build_expand_plan(
                        device, level, scc_prev, memory, config,
                        delete_input=checkpoint is None,
                    )
                    optimize_plan(plan, model, config, decision=tuning)
                    hooks = (
                        checkpoint.plan_hooks(level=level)
                        if checkpoint is not None else None
                    )
                    scc_file = executor.execute(plan, commit_hooks=hooks)
                plans.append(plan)
                if checkpoint is not None:
                    scc_prev.delete()
                level.cleanup()
        expansion_io = stats.snapshot() - expansion_start

        result = SCCResult.from_pairs(scc_file.scan())  # final output scan
        scc_file.delete()
        if checkpoint is not None:
            checkpoint.finish()  # syncs a manifest that no longer lists scc_file
        baseline_seconds = seconds_start or {}
        phase_seconds = {
            label: stats.seconds_by_phase.get(label, 0.0)
            - baseline_seconds.get(label, 0.0)
            for label in stats.top_level_phases
            if label in stats.seconds_by_phase
        }
        return ExtSCCOutput(
            result=result,
            iterations=iterations,
            io=stats.snapshot() - run_start,
            contraction_io=contraction_io,
            semi_io=semi_io,
            expansion_io=expansion_io,
            wall_seconds=time.perf_counter() - start,
            config=config,
            phase_seconds=phase_seconds,
            recovery_io=recovery_io,
            resumed=resumed,
            makespan=meter.makespan(),
            channel_io=meter.channel_snapshot(),
            trace=trace,
            plans=plans,
            bytes_by_width={
                width: (
                    count - bytes_start.get(width, (0, 0))[0],
                    stored - bytes_start.get(width, (0, 0))[1],
                )
                for width, (count, stored) in stats.bytes_by_width.items()
            } if bytes_start is not None else {
                width: (count, stored)
                for width, (count, stored) in stats.bytes_by_width.items()
            },
            tuning=tuning,
            health=stats.health.delta(health_start or {}),
        )


def _true_up_contract_plan(plan: ExtPlan, level: ContractionLevel) -> None:
    """Replace a contract plan's next-level size *estimates* with the sizes
    the iteration actually produced.

    :func:`~repro.core.contraction.build_contract_plan` prices the two
    Get-E operators over not-yet-built ``G_{i+1}`` files with the
    planner's retention/growth coefficients (predictions never influence
    execution).  Trueing them up afterwards lets a calibrated model
    re-price the stored plan post-run — the trace-envelope benchmark
    depends on this.
    """
    n = level.level + 1
    next_v = level.next_nodes.num_nodes
    next_e = level.next_edges.num_edges
    for op in plan.ops:
        if op.label == f"V_{n} scans":
            op.records, op.cost = next_v, ("scan", next_v, 4)
        elif op.label == f"E_{n}":
            op.records, op.cost = next_e, ("write", next_e, 8)
        elif op.label in (f"V_{n}", "cover dedupe"):
            op.records = next_v


def compute_sccs(
    edges: Iterable[Edge],
    num_nodes: Optional[int] = None,
    memory_bytes: int = 1 << 20,
    block_size: int = DEFAULT_BLOCK_SIZE,
    optimized: bool = True,
    config: Optional[ExtSCCConfig] = None,
    io_budget: Optional[int] = None,
    on_iteration: Optional[Callable[[IterationRecord], None]] = None,
    autotune: bool = False,
    calibration: Optional["CalibrationProfile"] = None,
    plan_cache: Optional["PlanCache"] = None,
    objective: Optional[str] = None,
    fault_policy: Optional["FaultPolicy"] = None,
    fault_schedule: Optional["FaultSchedule"] = None,
    parity: bool = False,
) -> ExtSCCOutput:
    """One-call API: load an edge list onto a fresh simulated disk and run
    Ext-SCC.

    Args:
        edges: ``(u, v)`` pairs (any integer ids).
        num_nodes: when given, nodes are ``0 .. num_nodes-1`` (so isolated
            nodes are included); otherwise the node set is derived from the
            edges.
        memory_bytes: the simulated main-memory budget ``M``.
        block_size: the simulated disk block size ``B``.
        optimized: run Ext-SCC-Op (default) instead of plain Ext-SCC;
            ignored when ``config`` is given.
        config: full configuration override.
        io_budget: optional block-I/O cap (raises
            :class:`~repro.exceptions.IOBudgetExceeded`).
        on_iteration: optional per-iteration progress callback.
        autotune: let the cost-based optimizer choose codec, workers,
            executor, and semi-external solver
            (:func:`~repro.analysis.planner.autotune_config`) before the
            run; also enabled by ``config.autotune``.  The chosen config
            then runs exactly as the same static config would — labels and
            ledgers are byte-identical.
        calibration: fitted cost constants for the search and the plan
            predictions.
        plan_cache: optional :class:`~repro.plan.PlanCache`; repeated
            queries with the same stats fingerprint skip the search.
        objective: override ``config.objective`` (``"io"`` /
            ``"wallclock"``).
        fault_policy: retry/backoff policy for transient faults
            (:class:`~repro.recovery.policy.FaultPolicy`); the device
            default applies when ``None``.
        fault_schedule: deterministic fault injection schedule
            (:class:`~repro.recovery.fault.FaultSchedule`) for chaos
            testing.
        parity: keep a RAID-5-style parity channel next to the data
            channels so single-channel outages and CRC-failed blocks are
            read-repaired in flight.  Forces a striped device even for
            ``workers == 1``.

    Returns:
        An :class:`ExtSCCOutput`.
    """
    if config is None:
        config = ExtSCCConfig.optimized() if optimized else ExtSCCConfig.baseline()
    if objective is not None:
        config = replace(config, objective=objective)
    tuning: Optional["TuningDecision"] = None
    if autotune or config.autotune:
        from repro.analysis.planner import autotune_config

        edges = list(edges)
        if num_nodes is not None:
            n = num_nodes
        elif edges:
            n = 1 + max(max(u, v) for u, v in edges)
        else:
            n = 0
        tuning = autotune_config(
            n, len(edges), memory_bytes, block_size, config=config,
            profile=calibration, cache=plan_cache,
        )
        config = tuning.config(config)
    budget = IOBudget(io_budget) if io_budget is not None else None
    if config.workers > 1 or parity:
        from repro.io.parallel import StripedDevice

        device: BlockDevice = StripedDevice(
            block_size=block_size, budget=budget,
            channels=max(config.workers, 1), parity=parity,
        )
    else:
        device = BlockDevice(block_size=block_size, budget=budget)
    if fault_policy is not None:
        device.attach_policy(fault_policy)
    if fault_schedule is not None:
        fault_schedule.attach(device)
    memory = MemoryBudget(memory_bytes)
    edge_file = EdgeFile.from_edges(device, "input-edges", edges)
    node_file: Optional[NodeFile] = None
    if num_nodes is not None:
        node_file = NodeFile.from_ids(
            device, "input-nodes", range(num_nodes), memory, presorted=True
        )
    return ExtSCC(config, calibration=calibration).run(
        device, edge_file, memory, nodes=node_file,
        on_iteration=on_iteration, tuning=tuning,
    )
