"""An EXPLAIN for Ext-SCC: predicted iterations and I/O before running.

Given a graph's size, the memory budget, and two empirical contraction
coefficients (the per-iteration node-retention ratio of the vertex cover
and the edge-growth factor of the bypass construction), the planner
simulates the contraction schedule *analytically* and prices every
iteration with the :class:`~repro.analysis.cost_model.CostModel` — the
database-style "query plan" a user inspects before paying for the run.

Defaults for the coefficients come from the measured contraction traces
(`benchmarks/results/contraction_trace_*.txt`): covers retain ~72% of the
nodes and Ext-SCC-Op holds edge growth to ~1.25x per iteration on the
Table I workloads.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from repro.analysis.calibration import CalibrationProfile
from repro.analysis.cost_model import CostModel
from repro.constants import SEMI_EXTERNAL_BYTES_PER_NODE
from repro.core.config import ExtSCCConfig
from repro.core.ext_scc import IterationRecord
from repro.io.codecs import CODECS
from repro.io.parallel import EXECUTOR_BACKENDS
from repro.plan import ExtPlan, PlanCache
from repro.semi_external import SEMI_SCC_SOLVERS

__all__ = [
    "ExtSCCPlan",
    "PlannedIteration",
    "PlanCandidate",
    "TuningDecision",
    "plan_ext_scc",
    "predict_plan",
    "optimize_plan",
    "autotune_config",
    "enumerate_knobs",
    "WORKER_OPTIONS",
]

WORKER_OPTIONS = (1, 2, 4, 8)
"""Shard widths the autotuner enumerates."""


@dataclass(frozen=True)
class PlannedIteration:
    """One predicted contraction level."""

    level: int
    num_nodes: int
    num_edges: int
    next_num_nodes: int
    next_num_edges: int
    predicted_ios: int


@dataclass
class ExtSCCPlan:
    """The full predicted schedule of an Ext-SCC run."""

    num_nodes: int
    num_edges: int
    memory_bytes: int
    block_size: int
    iterations: List[PlannedIteration] = field(default_factory=list)
    semi_scc_ios: int = 0
    feasible: bool = True

    @property
    def num_iterations(self) -> int:
        """Predicted contraction depth."""
        return len(self.iterations)

    @property
    def total_ios(self) -> int:
        """Predicted total block I/Os."""
        return sum(i.predicted_ios for i in self.iterations) + self.semi_scc_ios

    def render(self) -> str:
        """A printable plan, one row per predicted iteration."""
        lines = [
            f"Ext-SCC plan: |V|={self.num_nodes:,} |E|={self.num_edges:,} "
            f"M={self.memory_bytes:,}B B={self.block_size}B",
            f"semi-external threshold: "
            f"{SEMI_EXTERNAL_BYTES_PER_NODE * self.num_nodes + self.block_size:,}B",
        ]
        if not self.feasible:
            lines.append(
                "NOT FEASIBLE: contraction is predicted to densify before "
                "the node set fits — raise M or enable more reductions"
            )
            return "\n".join(lines)
        lines.append(f"{'iter':>4} {'|V|':>10} {'|E|':>11} {'pred. I/Os':>11}")
        for it in self.iterations:
            lines.append(
                f"{it.level:>4} {it.num_nodes:>10,} {it.num_edges:>11,} "
                f"{it.predicted_ios:>11,}"
            )
        lines.append(f"semi-SCC on the final graph: ~{self.semi_scc_ios:,} I/Os")
        lines.append(f"TOTAL predicted: ~{self.total_ios:,} block I/Os "
                     f"({self.num_iterations} iterations)")
        return "\n".join(lines)


def _sort_parts(
    model: CostModel, records: int, record_size: int, streamed: bool
) -> Tuple[int, int, int]:
    """``(run formation, merge passes, final write)`` blocks of one
    external sort, decomposed so the three parts sum *exactly* to
    :meth:`CostModel.sort` (materialized) or
    :meth:`CostModel.sort_streamed` (fused):

    * materialized, multi-run: ``n + (2L-1)n + n = (1+2L)n``;
    * materialized, single run: ``n + 0 + 0`` (the rename shortcut);
    * streamed: ``n + (2L-1)n + 0 = 2Ln`` — the final level only reads.
    """
    if records <= 0:
        return 0, 0, 0
    nblocks = model.blocks(records, record_size)
    runs = model.expected_runs(records, record_size)
    fan_in = max(2, model.memory_bytes // model.block_size - 1)
    if streamed:
        levels = 1 if runs <= 1 else (math.ceil(math.log(runs, fan_in)) or 1)
        return nblocks, (2 * levels - 1) * nblocks, 0
    if runs == 1:
        return nblocks, 0, 0
    levels = math.ceil(math.log(runs, fan_in)) or 1
    return nblocks, (2 * levels - 1) * nblocks, nblocks


def _op_cost(model: CostModel, op) -> int:
    """Blocks one operator's cost spec prices to (serial total)."""
    kind = op.cost[0]
    if kind == "free":
        return 0
    records, width = op.cost[1], op.cost[2]
    if kind in ("scan", "write"):
        return model.scan(records, width)
    parts = _sort_parts(model, records, width, streamed=op.fused)
    if kind == "sort-runs":
        return parts[0]
    if kind == "merge-passes":
        return parts[1]
    if kind == "sort-final":
        return parts[2]
    raise ValueError(f"unknown cost spec {op.cost!r} on {op.label!r}")


def predict_plan(plan: ExtPlan, model: CostModel) -> int:
    """Fill every operator's ``predicted_ios`` / ``predicted_makespan``.

    Free operators (in-flight transforms, fused co-scans) keep
    ``predicted_ios=None`` and render as ``-``; elided operators predict
    nothing.  Returns the plan's predicted total.  By the
    :func:`_sort_parts` invariant, a plan whose operators mirror one cost
    model phase sums to exactly that phase's prediction — the unit tests
    pin contract/expand/semi plans against
    :meth:`CostModel.contraction_iteration` and friends.
    """
    for op in plan.ops:
        if op.elided or op.cost[0] == "free":
            op.predicted_ios = None
            op.predicted_makespan = None
            continue
        op.predicted_ios = _op_cost(model, op)
        op.predicted_makespan = model.parallel(op.predicted_ios, op.workers)
    return plan.total_predicted


def optimize_plan(
    plan: ExtPlan,
    model: CostModel,
    config: ExtSCCConfig,
    decision: Optional["TuningDecision"] = None,
) -> ExtPlan:
    """The planner pass: cost-based rewrites over a freshly built plan.

    Applies, in order:

    1. **Fusion** (PR 1): every sort group with a ``fusable``
       ``Materialize`` is priced both ways — streamed vs. materialized —
       and the cheaper boundary wins (streaming always does —
       ``2Ln <= (1+2L)n`` — so the ``Materialize`` is elided and the
       group's sort operators marked ``fused``).  The executable stages
       already stream these boundaries, so the rewrite is what makes the
       declarative view — and its cost — match what runs.
    2. **Codec selection** (PR 2): every writing operator is tagged with
       ``config.codec``; a calibrated model then prices its blocks at the
       measured stored width (:meth:`CostModel.stored_width`).
    3. **Worker sharding** (PR 4): with ``config.workers > 1`` every
       priced operator is tagged with the shard width ``K`` and gets a
       busiest-channel ``predicted_makespan`` of ``ceil(blocks/K)``
       (totals are unchanged — sharding only redistributes I/O).

    When the codec / worker / executor / solver knobs were themselves
    chosen by the enumerate-and-price search (:func:`autotune_config`),
    pass its ``decision``: the chosen candidate, its price, and the
    runner-up's are then recorded in ``plan.rewrites`` so ``--explain``
    (and the trace JSON) show *why* this plan looks the way it does.
    Without a decision the rewrite log is byte-identical to the static
    path — the plan-golden CI job depends on that.

    Finishes with :func:`predict_plan`.  Returns ``plan`` (mutated).
    """
    # -- 1. fusion ---------------------------------------------------------
    saved = 0
    fused_groups = 0
    for mat in plan.ops:
        if not (mat.kind == "materialize" and mat.fusable and mat.group):
            continue
        group = [op for op in plan.ops if op.group == mat.group]
        records, width = mat.cost[1], mat.cost[2]
        materialized = sum(_sort_parts(model, records, width, False))
        streamed = sum(_sort_parts(model, records, width, True))
        if streamed <= materialized:
            saved += materialized - streamed
            fused_groups += 1
            mat.elided = True
            for op in group:
                if op is not mat:
                    op.fused = True
    if fused_groups:
        plan.rewrites.append(f"fuse({fused_groups} sorts, -{saved} blocks)")
    # -- 2. codec ----------------------------------------------------------
    tagged = False
    for op in plan.ops:
        if op.writes and not op.elided:
            op.codec = config.codec
            tagged = True
    if tagged:
        plan.rewrites.append(f"codec={config.codec}")
    # -- 3. sharding -------------------------------------------------------
    if config.workers > 1:
        for op in plan.ops:
            if op.cost[0] != "free" and not op.elided:
                op.workers = config.workers
        plan.rewrites.append(f"shard(K={config.workers})")
    # -- 4. autotune provenance --------------------------------------------
    if decision is not None:
        plan.rewrites.extend(decision.rewrite_lines())
    predict_plan(plan, model)
    return plan


def _analytic_schedule(
    num_nodes: int,
    num_edges: int,
    memory_bytes: int,
    block_size: int,
    node_retention: float = 0.72,
    edge_growth: float = 1.25,
    bytes_per_node: int = SEMI_EXTERNAL_BYTES_PER_NODE,
    max_iterations: int = 200,
) -> Tuple[List[IterationRecord], int, bool]:
    """Simulate the contraction schedule analytically.

    Returns ``(iterations, final_edges, feasible)`` — the predicted
    per-level sizes (as :class:`IterationRecord`\\ s with ``io=None``),
    the edge count the semi-external solver will see, and whether the
    stop condition is ever reached.  The schedule depends only on sizes
    and the two coefficients, never on the tuning knobs, so the autotuner
    computes it once and prices every candidate against it.
    """
    threshold = memory_bytes - block_size
    nodes, edges = num_nodes, num_edges
    records: List[IterationRecord] = []
    level = 0
    while bytes_per_node * nodes > threshold:
        level += 1
        if level > max_iterations:
            return records, edges, False
        next_nodes = max(1, int(nodes * node_retention))
        next_edges = max(0, int(edges * edge_growth))
        records.append(IterationRecord(
            level=level, num_nodes=nodes, num_edges=edges,
            next_num_nodes=next_nodes, next_num_edges=next_edges, io=None,  # type: ignore[arg-type]
        ))
        if next_nodes >= nodes:
            return records, edges, False
        nodes, edges = next_nodes, next_edges
    return records, edges, True


def plan_ext_scc(
    num_nodes: int,
    num_edges: int,
    memory_bytes: int,
    block_size: int = 4096,
    node_retention: float = 0.72,
    edge_growth: float = 1.25,
    semi_passes: int = 3,
    product_operator: bool = False,
    max_iterations: int = 200,
    model: Optional[CostModel] = None,
) -> ExtSCCPlan:
    """Predict an Ext-SCC run's schedule and I/O.

    Args:
        num_nodes, num_edges: the input graph's size.
        memory_bytes: the budget ``M``.
        block_size: the block size ``B``.
        node_retention: predicted ``|V_{i+1}| / |V_i|`` (vertex-cover size).
        edge_growth: predicted ``|E_{i+1}| / |E_i|``.
        semi_passes: edge scans the semi-external solver is priced at.
        product_operator: price the Definition 7.1 record widths.
        max_iterations: give up (``feasible=False``) past this depth.
        model: price with this (possibly trace-calibrated) model instead
            of the analytic default.

    Returns:
        An :class:`ExtSCCPlan`; ``feasible`` is False when the predicted
        schedule never satisfies the stop condition.
    """
    if model is None:
        model = CostModel(block_size, memory_bytes)
    plan = ExtSCCPlan(num_nodes, num_edges, memory_bytes, block_size)
    records, final_edges, feasible = _analytic_schedule(
        num_nodes, num_edges, memory_bytes, block_size,
        node_retention, edge_growth, max_iterations=max_iterations,
    )
    for record in records:
        ios = model.contraction_iteration(record, product_operator)
        ios += model.expansion_iteration(record)
        plan.iterations.append(PlannedIteration(
            record.level, record.num_nodes, record.num_edges,
            record.next_num_nodes, record.next_num_edges, ios,
        ))
    plan.feasible = feasible
    if feasible:
        plan.semi_scc_ios = model.semi_scc(final_edges, semi_passes)
    return plan


# -- the enumerate-and-price search (the self-tuning optimizer) --------------


@dataclass(frozen=True)
class PlanCandidate:
    """One point of the knob cross-product, with its calibrated prices.

    ``predicted_ios`` is the serial total (the ``"io"`` objective),
    ``predicted_makespan`` the busiest-channel critical path at this
    candidate's ``K``, and ``predicted_seconds`` the wall-clock estimate
    from the profile's per-(executor, K) constants (the ``"wallclock"``
    objective).  Every candidate computes identical SCC labels — the
    search only ever trades storage format and scheduling.
    """

    codec: str
    workers: int
    executor: str
    solver: str
    predicted_ios: int
    predicted_makespan: int
    predicted_seconds: float

    @property
    def label(self) -> str:
        return (f"{self.codec} K={self.workers} {self.executor} "
                f"{self.solver}")

    def price(self, objective: str) -> float:
        """The candidate's cost under one objective."""
        if objective == "io":
            return float(self.predicted_ios)
        if objective == "wallclock":
            return self.predicted_seconds
        raise ValueError(f"unknown objective {objective!r}")

    def to_payload(self) -> dict:
        return {
            "codec": self.codec,
            "workers": self.workers,
            "executor": self.executor,
            "solver": self.solver,
            "predicted_ios": self.predicted_ios,
            "predicted_makespan": self.predicted_makespan,
            "predicted_seconds": self.predicted_seconds,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "PlanCandidate":
        return cls(
            codec=payload["codec"],
            workers=int(payload["workers"]),
            executor=payload["executor"],
            solver=payload["solver"],
            predicted_ios=int(payload["predicted_ios"]),
            predicted_makespan=int(payload["predicted_makespan"]),
            predicted_seconds=float(payload["predicted_seconds"]),
        )


def _format_price(objective: str, price: float) -> str:
    if objective == "io":
        return f"{int(price):,} blk"
    return f"{price:.4f}s"


@dataclass
class TuningDecision:
    """The search's outcome: the chosen candidate, every priced
    alternative, and the provenance a cache entry needs.

    ``cache_hit`` and ``planning_seconds`` are runtime facts of *this*
    lookup, not part of the decision itself — :meth:`to_payload` excludes
    them, which is what makes a warm-cache replay byte-identical to the
    cold search that produced it.
    """

    objective: str
    candidates: List[PlanCandidate]
    chosen_index: int
    calibration_version: str
    cache_key: str
    cache_hit: bool = False
    planning_seconds: float = 0.0

    @property
    def chosen(self) -> PlanCandidate:
        return self.candidates[self.chosen_index]

    def config(self, base: ExtSCCConfig) -> ExtSCCConfig:
        """The base config with the chosen knobs applied (everything
        algorithmic — reductions, budgets — is untouched)."""
        c = self.chosen
        return replace(
            base, codec=c.codec, workers=c.workers, executor=c.executor,
            semi_scc=c.solver,
        )

    def ranked(self) -> List[PlanCandidate]:
        """Candidates from best to worst under the decision's objective
        (deterministic: the chosen candidate leads its price tie, then
        ties break toward fewer workers, earlier executor, lexical
        codec/solver)."""
        return sorted(
            self.candidates,
            key=lambda c: (
                c.price(self.objective), c != self.chosen, c.workers,
                EXECUTOR_BACKENDS.index(c.executor), c.codec, c.solver,
            ),
        )

    def rewrite_lines(self) -> List[str]:
        """The rewrite-log entries ``optimize_plan`` appends so
        ``--explain`` (and the trace JSON) show what the search chose and
        what the runner-up would have cost.  Derived from the decision's
        content only — never from cache/runtime state — so cold and warm
        plans render identically."""
        chosen = self.chosen
        lines = [
            f"autotune[{self.objective}]={chosen.label} @ "
            f"{_format_price(self.objective, chosen.price(self.objective))} "
            f"({len(self.candidates)} candidates)"
        ]
        runners = [c for c in self.ranked() if c != chosen]
        if runners:
            delta = runners[0].price(self.objective) - chosen.price(self.objective)
            lines.append(
                f"runner-up: {runners[0].label} "
                f"+{_format_price(self.objective, delta)}"
            )
        return lines

    def render(self, limit: int = 12) -> str:
        """The candidate table ``scc --explain`` prints: every enumerated
        static configuration with its calibrated prices, best first."""
        ranked = self.ranked()
        source = ("plan cache (warm)" if self.cache_hit
                  else f"search over {len(self.candidates)} candidates")
        lines = [
            f"autotune: objective={self.objective} "
            f"calibration={self.calibration_version} — {source}",
            f"  {'rank':>4} {'codec':<10} {'K':>2} {'executor':<9} "
            f"{'solver':<16} {'pred.I/Os':>10} {'makespan':>9} "
            f"{'pred.secs':>10}",
        ]
        for rank, c in enumerate(ranked[:limit], start=1):
            marker = "->" if c == self.chosen else "  "
            lines.append(
                f"{marker}{rank:>4} {c.codec:<10} {c.workers:>2} "
                f"{c.executor:<9} {c.solver:<16} {c.predicted_ios:>10,} "
                f"{c.predicted_makespan:>9,} {c.predicted_seconds:>10.4f}"
            )
        if len(ranked) > limit:
            lines.append(f"  ... ({len(ranked) - limit} more candidates)")
        return "\n".join(lines)

    def to_payload(self) -> dict:
        """The cacheable content (JSON-exact; excludes runtime state)."""
        return {
            "objective": self.objective,
            "chosen": self.chosen_index,
            "calibration": self.calibration_version,
            "cache_key": self.cache_key,
            "candidates": [c.to_payload() for c in self.candidates],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "TuningDecision":
        return cls(
            objective=payload["objective"],
            candidates=[
                PlanCandidate.from_payload(c) for c in payload["candidates"]
            ],
            chosen_index=int(payload["chosen"]),
            calibration_version=payload["calibration"],
            cache_key=payload["cache_key"],
        )


def enumerate_knobs(
    workers_options: Sequence[int] = WORKER_OPTIONS,
) -> List[Tuple[str, int, str, str]]:
    """The static-config space the search prices: every
    ``(codec, workers, executor, solver)`` combination, in deterministic
    order."""
    return [
        (codec, workers, executor, solver)
        for codec in sorted(CODECS)
        for solver in sorted(SEMI_SCC_SOLVERS)
        for executor in EXECUTOR_BACKENDS
        for workers in workers_options
    ]


def autotune_config(
    num_nodes: int,
    num_edges: int,
    memory_bytes: int,
    block_size: int,
    config: Optional[ExtSCCConfig] = None,
    profile: Optional[CalibrationProfile] = None,
    objective: Optional[str] = None,
    cache: Optional[PlanCache] = None,
    node_retention: float = 0.72,
    edge_growth: float = 1.25,
    workers_options: Sequence[int] = WORKER_OPTIONS,
) -> TuningDecision:
    """The self-tuning optimizer: enumerate the static-config space,
    price every candidate with the (calibrated) cost model, and choose.

    The contraction schedule is simulated once (:func:`_analytic_schedule`
    — sizes don't depend on the knobs), then each candidate is priced:

    * **I/Os** — contraction + expansion blocks under the codec's fitted
      stored widths, plus the solver's fitted pass count over the final
      edge file;
    * **makespan** — the same schedule's busiest-channel share at the
      candidate's ``K``;
    * **seconds** — the profile's per-(executor, K) affine fit applied to
      the predicted total (analytic default when uncalibrated, in which
      case the wallclock objective degenerates to I/O ranking).

    With a :class:`~repro.plan.PlanCache`, the search is skipped on a hit
    and the stored decision replayed byte-identically (``cache_hit`` set,
    so callers can skip recording a planning span).

    Args:
        num_nodes, num_edges: the graph-stats fingerprint.
        memory_bytes, block_size: the budget ``M`` and block size ``B``.
        config: base configuration (default: Ext-SCC-Op); its algorithmic
            knobs are preserved, its execution knobs overridden.
        profile: fitted constants (default: analytic).
        objective: ``"io"`` or ``"wallclock"`` (default:
            ``config.objective``).
        cache: optional decision cache.
        node_retention, edge_growth: contraction coefficients.
        workers_options: shard widths to enumerate.

    Returns:
        A :class:`TuningDecision`; apply it with ``decision.config(base)``
        and run normally — the chosen config executes exactly as the same
        static config would, so labels and ledgers are identical.
    """
    start = time.perf_counter()
    if config is None:
        config = ExtSCCConfig.optimized()
    if objective is None:
        objective = config.objective
    if profile is None:
        profile = CalibrationProfile()
    key = PlanCache.make_key(
        num_nodes, num_edges, memory_bytes, block_size,
        config.fingerprint(), profile.version, objective,
    )
    if cache is not None:
        payload = cache.lookup(key)
        if payload is not None:
            decision = TuningDecision.from_payload(payload)
            decision.cache_hit = True
            decision.planning_seconds = time.perf_counter() - start
            return decision
    records, final_edges, _feasible = _analytic_schedule(
        num_nodes, num_edges, memory_bytes, block_size,
        node_retention, edge_growth, config.bytes_per_node,
    )
    models = {
        codec: profile.model(block_size, memory_bytes, codec)
        for codec in sorted(CODECS)
    }

    def body_blocks(codec: str, workers: int) -> float:
        model = models[codec]
        return sum(
            model.contraction_iteration(r, config.product_operator, workers)
            + model.expansion_iteration(r, workers)
            for r in records
        )

    # The contracted node count the semi-external solver will see; it
    # prices the multi-bfs mask-column memory trade (a budget too tight
    # for the full source batch multiplies the solver's edge scans).
    final_nodes = records[-1].next_num_nodes if records else num_nodes
    candidates: List[PlanCandidate] = []
    for codec, workers, executor, solver in enumerate_knobs(workers_options):
        model = models[codec]
        passes = profile.semi_passes(solver)
        total = int(round(
            body_blocks(codec, 1) + model.semi_scc(final_edges, passes)
        ))
        if solver == "multi-bfs":
            semi_makespan = model.semi_scc_multi_bfs(
                final_edges, final_nodes, passes, workers
            )
        else:
            semi_makespan = model.semi_scc(final_edges, passes, workers)
        makespan = int(round(body_blocks(codec, workers) + semi_makespan))
        candidates.append(PlanCandidate(
            codec=codec,
            workers=workers,
            executor=executor,
            solver=solver,
            predicted_ios=total,
            predicted_makespan=makespan,
            predicted_seconds=profile.seconds(total, executor, workers,
                                              codec),
        ))
    chosen_index = min(
        range(len(candidates)),
        key=lambda i: (
            candidates[i].price(objective),
            candidates[i].workers,
            EXECUTOR_BACKENDS.index(candidates[i].executor),
            candidates[i].codec != config.codec,
            candidates[i].codec,
            candidates[i].solver != config.semi_scc,
            candidates[i].solver,
        ),
    )
    decision = TuningDecision(
        objective=objective,
        candidates=candidates,
        chosen_index=chosen_index,
        calibration_version=profile.version,
        cache_key=key,
    )
    if cache is not None:
        cache.store(key, decision.to_payload())
    decision.planning_seconds = time.perf_counter() - start
    return decision
