"""The repository's benchmark: one command, three workloads, checked answers.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload webspam-contract --seed 7 --seconds 25 --trace 0

Workloads (all on the webspam stand-in, single process):

* ``webspam-contract`` -- the L1 rung, 4,000 nodes and 24,000 edges at
  M = 0.47 (8|V| + B): five contraction levels, so sorting, joins, codecs
  and contraction do the work.
* ``webspam-semi`` -- the same 4,000-node, 24,000-edge graph at
  M = 1.05 (8|V| + B): the nodes fit in memory, so the semi-external solver
  does the work and sorting, joins and contraction stay idle.
* ``serve-zipf`` -- the query daemon over a store of a 20,000-node graph,
  under a two-connection closed loop of Zipf-distributed lookups.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` adds one traced pass (a request, or a load window for
``serve-zipf``) and reports the per-layer metrics instead.  ``--smoke``
shrinks every workload so the harness, its checks and its span wiring
run in seconds.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  The lines before it
give the run's context (seed, Python version, ``nproc``, whether the
numpy kernels were active), every metric as a table including
``error_rate``, and the checks that failed.  The exit code is 0 when
every answer and every ledger check held, 1 when one did not, and 2 when
the program under test cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"

WORKLOADS = ("webspam-contract", "webspam-semi", "serve-zipf")

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "io_total": "block_IOs",
    "peak_rss_mb": "MiB",
    "cpu_per_request": "ref_loops",
}
"""Metric -> unit of a ``--trace 0`` run; every workload reports each.

``cpu_per_request`` is the median CPU time the program spends on one
request -- a solver call, or a daemon request -- divided by the time of a
fixed reference loop sampled while it runs (see ``SpeedProbe``).  A shared
two-vCPU host's speed wanders by 20-60% in spells of seconds to minutes,
and every wall-clock figure follows it.  Within one hour on a 2-vCPU Xeon
VM, the median solver call of ``webspam-contract`` spread by 0.33 of its
median over five runs and that of ``webspam-semi`` by 0.27 over eight,
while over ten runs ``cpu_per_request`` spread by 0.03 on both offline
workloads and 0.06 on ``serve-zipf``.  The wall-clock figures are
therefore printed in the table but not gated: ``query_p50_ms`` and
``query_p99_ms`` (the solver call's time offline, send-to-reply latency
on ``serve-zipf``), ``queries_per_s``, and ``edges_per_s`` (|E| over the
median solver call offline, the store build's rate on ``serve-zipf``).
``setup_s`` is the one wall-clock time gated, as the median of several
set-ups per run, so that work moved into set-up shows."""

PER_LAYER: Dict[str, str] = {
    "contraction.self_s": "s",
    "contraction.io": "block_IOs",
    "contraction.levels": "count",
    "contraction.node_retention": "ratio",
    "contraction.edge_growth": "ratio",
    "expansion.self_s": "s",
    "expansion.io": "block_IOs",
    "semi.self_s": "s",
    "semi.io": "block_IOs",
    "semi.edge_scans": "scans",
    "runs.self_s": "s",
    "runs.formed": "count",
    "sort.self_s": "s",
    "sort.merge_passes": "count",
    "kernels.self_s": "s",
    "join.self_s": "s",
    "join.calls": "count",
    "codecs.self_s": "s",
    "codecs.bytes_logical": "bytes",
    "codecs.bytes_stored": "bytes",
    "codecs.stored_per_logical": "ratio",
    "device.self_s": "s",
    "device.seq_reads": "block_IOs",
    "device.rand_reads": "block_IOs",
    "device.seq_writes": "block_IOs",
    "device.rand_writes": "block_IOs",
    "plan.self_s": "s",
    "batch.flushes": "count",
    "batch.lookups_per_flush": "lookups",
    "batch.epoch_wait_s": "s",
    "batch.flush_s": "s",
    "cache.label_hit_rate": "fraction",
    "cache.topo_hit_rate": "fraction",
    "node_table.blocks_per_lookup": "ratio",
    "service.physical_reads": "block_IOs",
    "daemon.handle_s": "s",
    "store.reachable_s": "s",
    "unattributed_s": "s",
    "trace_overhead_s": "s",
}
"""Metric -> unit of a ``--trace 1`` run; a layer a workload leaves idle reads 0."""

PINNED_ENV = ("REPRO_NUMPY", "REPRO_BATCH_IO", "REPRO_BENCH_NODES")
"""Switches the program reads from the environment; the benchmark runs
every one of them at its default, whatever the caller's environment holds."""


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    sys.path[:0] = [str(SRC), str(ROOT)]

    from repro import kernels
    from perfbench import offline, serve

    trace = bool(args.trace)
    if args.workload == "serve-zipf":
        outcome = serve.run(args.seed, args.seconds, trace, SRC, WORKDIR,
                            smoke=args.smoke)
    else:
        outcome = offline.run(args.workload, args.seconds, trace, smoke=args.smoke)

    wanted = PER_LAYER if trace else END_TO_END
    metrics = {}
    for name, unit in wanted.items():
        if name in outcome.metrics:
            value, got_unit = outcome.metrics[name]
            if got_unit != unit:
                outcome.fail(f"{name} measured in {got_unit}, declared in {unit}")
        elif trace and outcome.attempted and not outcome.problems:
            value = 0.0  # the workload leaves this layer idle
        else:
            continue
        metrics[name] = {"value": float(value), "unit": unit}
    if len(metrics) != len(wanted):
        outcome.fail("the run ended before every metric was measured")

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "numpy_active": kernels.available(),
        **outcome.notes,
    }
    print("context " + json.dumps(context, sort_keys=True))
    for name, metric in metrics.items():
        print(f"  {name:<30} {metric['value']:>16.6g} {metric['unit']}")
    for name, (value, unit) in outcome.metrics.items():
        if name not in wanted:
            print(f"  {name:<30} {value:>16.6g} {unit} (printed only)")
    rate = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"  {'error_rate':<30} {rate:>16.6g} fraction "
          f"({outcome.failed} failed of {outcome.attempted} attempted)")
    if outcome.tracer is not None:
        print("  top functions by self time:")
        for layer, func, totals in outcome.tracer.top_functions():
            print(f"    {layer:<12} {func:<52} {totals.self_s:9.3f} s "
                  f"{totals.spans:>10} spans")
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
