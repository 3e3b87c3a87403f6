"""Semi-external solver comparison (the Section III landscape).

The paper motivates its Semi-SCC substrate [26] against the semi-external
DFS route [23]: the spanning-tree solver contracts partial SCCs during
sequential scans, while the DFS route pays a random read per node.  This
bench races the five scan-only solvers of ``SEMI_SCC_SOLVERS`` and the
DFS-based one on the same graphs and records total/random I/Os.  The
spanning-tree rows are pinned exactly: the solver's decisions fix its
scan count, so any change to them shows here.
"""

from conftest import RESULTS_DIR

from repro.bench import BLOCK_SIZE, family_graph, shuffled_edges, webspam_graph
from repro.core.result import SCCResult
from repro.graph.edge_file import EdgeFile
from repro.io import BlockDevice
from repro.semi_external import (
    SEMI_SCC_SOLVERS,
    semi_kosaraju_scc,
)

WORKLOADS = {
    "large-scc": lambda: family_graph("large-scc", num_nodes=3000, seed=8),
    "webspam": lambda: webspam_graph(num_nodes=3000),
}

SOLVERS = dict(SEMI_SCC_SOLVERS, **{"dfs-kosaraju": semi_kosaraju_scc})

SPANNING_TREE_ROWS = {"large-scc": (376, 0, 115), "webspam": (423, 0, 99)}
"""``(I/Os, random I/Os, SCCs)`` of the committed spanning-tree rows."""


def _run_all():
    rows = []
    for workload_name, build in WORKLOADS.items():
        graph = build()
        edges = shuffled_edges(graph)
        reference = None
        for solver_name, solver in SOLVERS.items():
            device = BlockDevice(block_size=BLOCK_SIZE)
            edge_file = EdgeFile.from_edges(device, "E", edges)
            baseline = device.stats.snapshot()
            labels = solver(edge_file, range(graph.num_nodes))
            delta = device.stats.snapshot() - baseline
            result = SCCResult(labels)
            if reference is None:
                reference = result
            assert result == reference, (workload_name, solver_name)
            rows.append(
                (workload_name, solver_name, delta.total, delta.random,
                 result.num_sccs)
            )
    return rows


def test_semi_solvers(benchmark):
    rows = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    lines = [
        "Semi-external solvers — same graphs, same answers, different I/O",
        f"{'workload':>10} {'solver':>17} {'I/Os':>10} {'random':>8} {'sccs':>6}",
    ]
    by_key = {}
    for workload, solver, total, rand, sccs in rows:
        lines.append(f"{workload:>10} {solver:>17} {total:>10,} {rand:>8,} {sccs:>6}")
        by_key[(workload, solver)] = (total, rand, sccs)
    text = "\n".join(lines) + "\n"
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "semi_solvers.txt").write_text(text)

    for workload in WORKLOADS:
        # Scan-only solvers never seek; the DFS route always does.
        for solver in SEMI_SCC_SOLVERS:
            assert by_key[(workload, solver)][1] == 0, (workload, solver)
        assert by_key[(workload, "dfs-kosaraju")][1] > 0, workload
        assert by_key[(workload, "spanning-tree")] == SPANNING_TREE_ROWS[workload]
