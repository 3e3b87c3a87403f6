"""The ``serve-zipf`` workload: the query daemon under a closed loop.

Set-up builds the label store from the webspam stand-in with
``repro.service.build_store``, starts ``python -m repro serve STORE``
with its defaults (5 ms batching epoch, 4,096-entry LRU per table) in a
process of its own, and waits for its first answered ``ping``.  Load is
this process with two connections, one ``ServiceClient`` each, in a
closed loop: each connection sends its next request only after the reply
to the previous one, because the service's clients are synchronous
callers.  The mix is 60% ``scc-label`` of 16 keys, 20% ``same-component``,
10% ``reachable`` and 10% ``topo-order`` of 8 keys; keys are Zipf(0.99)
over all nodes through a fixed permutation, so the hot set fits the
label cache while about a quarter of the lookups miss it and read blocks.
``cpu_per_request`` is the daemon's CPU time per request in reference
loops, sampled by a :class:`~perfbench.common.SpeedProbe` in this process
while the connections wait for replies.

Every ``scc-label``, ``same-component`` and ``topo-order`` answer is
checked against the store's tables, which set-up first checks against an
in-memory Tarjan oracle; a deterministic sample of ``reachable`` answers
is checked against a search of the oracle's condensation.
"""

from __future__ import annotations

import bisect
import os
import random
import select
import shutil
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.bench.workloads import memory_for_ratio
from repro.core import SCCResult
from repro.graph.digraph import DiGraph
from repro.io.files import ExternalFile
from repro.io.persistent import open_shared
from repro.io.stats import IOStats
from repro.memory_scc import tarjan_scc
from repro.service import LabelStore, QueryDaemon, ServiceClient, build_store
from repro.service.store import LABELS_FILE, TOPO_FILE

from perfbench.common import (
    Outcome,
    SpeedProbe,
    median,
    percentile,
    pid_cpu_s,
    pid_peak_rss_mb,
    workload_edges,
)
from perfbench.tracer import OFFLINE_LAYERS, Tracer

ZIPF_EXPONENT = 0.99
PERMUTATION_SEED = 2014
"""The Zipf rank -> node permutation is the same for every ``--seed``."""

MIX = (
    (0.6, "scc-label", 16),
    (0.8, "same-component", 2),
    (0.9, "reachable", 2),
    (1.0, "topo-order", 8),
)
"""Cumulative share, op, keys per request."""

CONNECTIONS = 2
SETUPS = 3
WINDOWS = 4
REACHABLE_CHECKS = 200
"""``reachable`` answers checked per run, each by a search of the oracle."""

BUSY = ("batch", "cache", "node_table", "daemon", "store")

_CPUS = sorted(os.sched_getaffinity(0))
DAEMON_CPUS = {_CPUS[0]}
"""The CPU of the daemon process, shared with the speed probe.

The host's two vCPUs are not equally fast at any moment, so the probe
that turns the daemon's CPU time into reference loops must run on the
daemon's own CPU.  The connections run on the others."""
LOAD_CPUS = set(_CPUS[1:]) or DAEMON_CPUS


@dataclass(frozen=True)
class ServeSpec:
    num_nodes: int
    percent: int
    memory_ratio: float
    warmup_s: float
    block_size: int = 1024


SPEC = ServeSpec(20000, 20, 1.05, warmup_s=2.0)
SMOKE_SPEC = ServeSpec(2000, 20, 1.05, warmup_s=0.2)


class Oracle:
    """Labels, topological layers and reachability, all in memory."""

    def __init__(self, edges: Sequence[Tuple[int, int]], num_nodes: int) -> None:
        self.labels = SCCResult(
            tarjan_scc(DiGraph(edges, nodes=range(num_nodes)))
        ).labels
        self.successors: Dict[int, Set[int]] = {}
        indegree: Dict[int, int] = {}
        for u, v in edges:
            cu, cv = self.labels[u], self.labels[v]
            if cu != cv and cv not in self.successors.setdefault(cu, set()):
                self.successors[cu].add(cv)
                indegree[cv] = indegree.get(cv, 0) + 1
        # Longest-path depth of each component, the store's topo layer.
        self.layers = {c: 0 for c in set(self.labels.values())}
        ready = deque(c for c in self.layers if indegree.get(c, 0) == 0)
        while ready:
            c = ready.popleft()
            for d in self.successors.get(c, ()):
                self.layers[d] = max(self.layers[d], self.layers[c] + 1)
                indegree[d] -= 1
                if indegree[d] == 0:
                    ready.append(d)

    def reachable(self, u: int, v: int) -> bool:
        source, target = self.labels[u], self.labels[v]
        seen, stack = {source}, [source]
        while stack:
            c = stack.pop()
            if c == target:
                return True
            for d in self.successors.get(c, ()):
                if d not in seen:
                    seen.add(d)
                    stack.append(d)
        return False


class RequestStream:
    """One connection's deterministic request sequence."""

    def __init__(self, num_nodes: int, seed: int, connection: int) -> None:
        self.rng = random.Random(seed * 1009 + connection)
        self.nodes = list(range(num_nodes))
        random.Random(PERMUTATION_SEED).shuffle(self.nodes)
        total, self.cdf = 0.0, []
        for rank in range(1, num_nodes + 1):
            total += rank ** -ZIPF_EXPONENT
            self.cdf.append(total)

    def key(self) -> int:
        rank = bisect.bisect_left(self.cdf, self.rng.random() * self.cdf[-1])
        return self.nodes[min(rank, len(self.nodes) - 1)]

    def next(self) -> Tuple[str, List[int]]:
        draw = self.rng.random()
        for share, op, width in MIX:
            if draw < share:
                return op, [self.key() for _ in range(width)]
        raise AssertionError("the mix's shares end at 1.0")


def _ask(client: ServiceClient, op: str, keys: List[int]) -> object:
    if op == "scc-label":
        return client.scc_label(keys)
    if op == "same-component":
        return client.same_component(keys[0], keys[1])
    if op == "reachable":
        return client.reachable(keys[0], keys[1])
    return client.topo_order(keys)


Record = Tuple[float, float, str, List[int], object]


def _load(
    port: int, spec: ServeSpec, seed: int, seconds: float,
    daemon_pid: Optional[int] = None,
) -> Tuple[List[Record], float, List[Tuple[float, float]]]:
    """Drive the closed loop; returns every request and the window start.

    With the ``daemon_pid`` of a daemon in another process, the third
    value holds, for each quarter of the measured window, the daemon's
    CPU time and the host's reference-loop time, sampled by a
    :class:`SpeedProbe` in this process while the connections wait for
    replies.  Without it, the list is empty.
    """
    warm_end = time.perf_counter() + spec.warmup_s
    stop_at = warm_end + seconds
    records: List[List[Record]] = [[] for _ in range(CONNECTIONS)]
    errors: List[BaseException] = []

    def connection(index: int) -> None:
        if daemon_pid is not None:
            os.sched_setaffinity(0, LOAD_CPUS)  # this thread only
        stream = RequestStream(spec.num_nodes, seed, index)
        try:
            with ServiceClient(port=port) as client:
                client.open_session(tenant=f"bench-{index}")
                while time.perf_counter() < stop_at:
                    op, keys = stream.next()
                    started = time.perf_counter()
                    try:
                        answer: object = _ask(client, op, keys)
                    except Exception as exc:  # counted as a failed request
                        answer = exc
                    records[index].append(
                        (started, time.perf_counter(), op, keys, answer)
                    )
        except Exception as exc:  # connection-level failure
            errors.append(exc)

    threads = [
        threading.Thread(target=connection, args=(i,), name=f"client-{i}")
        for i in range(CONNECTIONS)
    ]
    quarters: List[Tuple[float, float]] = []
    for thread in threads:
        thread.start()
    if daemon_pid is not None:
        probe = SpeedProbe()
        main_cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, DAEMON_CPUS)
        try:
            with probe:
                marks = []
                for index in range(WINDOWS + 1):
                    time.sleep(max(0.0, warm_end + index * seconds / WINDOWS
                                   - time.perf_counter()))
                    marks.append((pid_cpu_s(daemon_pid), len(probe.samples)))
                    probe.sample()  # so no quarter goes without a sample
        finally:
            os.sched_setaffinity(0, main_cpus)
        for (cpu, mark), (cpu_end, mark_end) in zip(marks, marks[1:]):
            quarters.append((cpu_end - cpu, median(probe.samples[mark:mark_end])))
    for thread in threads:
        thread.join(timeout=seconds + spec.warmup_s + 60)
        if thread.is_alive():
            errors.append(TimeoutError(f"{thread.name} did not finish"))
    if errors:
        raise RuntimeError(f"load generator failed: {errors[0]!r}")
    return [r for per in records for r in per], warm_end, quarters


def _latencies(records: List[Record]) -> List[float]:
    return [end - start for start, end, *_ in records]


def _windows(records: List[Record], start: float, seconds: float) -> List[List[Record]]:
    """The requests sent in each quarter of the measured window.

    The host's speed wanders by tens of percent over seconds, and a slow
    stretch decides the pooled tail; the median of the quarters' p99 and
    rates keeps one slow quarter from deciding the run.
    """
    quarter = seconds / WINDOWS
    windows: List[List[Record]] = [[] for _ in range(WINDOWS)]
    for record in records:
        index = int((record[0] - start) // quarter)
        if 0 <= index < WINDOWS:
            windows[index].append(record)
    return windows


def _check(
    records: List[Record],
    labels: Dict[int, int],
    layers: Dict[int, int],
    oracle: Oracle,
    outcome: Outcome,
) -> None:
    """Count every wrong or failed answer in ``outcome``."""
    reachable_checked = 0
    for _, _, op, keys, answer in records:
        outcome.attempted += 1
        if isinstance(answer, Exception):
            ok, why = False, f"{type(answer).__name__}: {answer}"
        elif op == "scc-label":
            ok = answer == {k: labels[k] for k in keys}
            why = "scc-label answer"
        elif op == "same-component":
            ok = answer == (labels[keys[0]] == labels[keys[1]])
            why = "same-component answer"
        elif op == "topo-order":
            ok = answer == {k: (labels[k], layers[labels[k]]) for k in keys}
            why = "topo-order answer"
        elif reachable_checked < REACHABLE_CHECKS:
            reachable_checked += 1
            ok = answer == oracle.reachable(keys[0], keys[1])
            why = "reachable answer"
        else:
            ok, why = isinstance(answer, bool), "reachable answer"
        if not ok:
            outcome.failed += 1
            outcome.fail(f"{op} {keys[:4]}: wrong or failed ({why})")


def _read_store(directory: Path, block_size: int) -> Tuple[Dict[int, int], Dict[int, int]]:
    """The store's label and topo-layer tables, read straight off its files."""
    handle = open_shared(directory, block_size)
    try:
        reader = handle.reader(stats=IOStats())
        labels = dict(ExternalFile.open(reader, LABELS_FILE).scan())
        layers = dict(ExternalFile.open(reader, TOPO_FILE).scan())
    finally:
        handle.close()
    return labels, layers


class Daemon:
    """``python -m repro serve STORE`` in a child process, on ``DAEMON_CPUS``."""

    def __init__(self, store: Path, src: Path, workdir: Path) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(store), "--port", "0"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=str(src)),
            cwd=workdir,
        )
        self._pin()
        self.port = self._scrape_port(timeout=120.0)
        self._pin()  # threads started before the first call
        self._drain = threading.Thread(target=self._drain_stderr, daemon=True)
        self._drain.start()

    def _pin(self) -> None:
        """Move every thread of the daemon onto ``DAEMON_CPUS``; later threads inherit it."""
        try:
            tids = os.listdir(f"/proc/{self.proc.pid}/task")
        except OSError:  # the daemon has exited; starting it fails below
            return
        for tid in tids:
            try:
                os.sched_setaffinity(int(tid), DAEMON_CPUS)
            except OSError:  # the thread has ended
                pass

    def _scrape_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        seen = []
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stderr], [], [], 1.0)
            if not ready:
                continue
            line = self.proc.stderr.readline().decode(errors="replace")
            if not line:
                break
            seen.append(line)
            if line.startswith("serving "):
                return int(line.rsplit(":", 1)[1])
        self.stop()
        raise RuntimeError(f"daemon did not start: {''.join(seen)[-500:]!r}")

    def _drain_stderr(self) -> None:
        for _ in self.proc.stderr:
            pass

    def stop(self) -> None:
        """Ask the daemon to shut down; kill it if it does not, then reap it."""
        if self.proc.poll() is None and getattr(self, "port", None):
            try:
                with ServiceClient(port=self.port, timeout=10.0) as client:
                    client.shutdown()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=15)
        self.proc.stderr.close()


def run(
    seed: int, seconds: float, trace: bool, src: Path, workdir: Path,
    smoke: bool = False,
) -> Outcome:
    spec = SMOKE_SPEC if smoke else SPEC
    outcome = Outcome()
    workspace = workdir / f"serve-{os.getpid()}"
    shutil.rmtree(workspace, ignore_errors=True)
    workspace.mkdir(parents=True)
    try:
        return _run(spec, seed, seconds, trace, src, workspace, outcome)
    finally:
        shutil.rmtree(workspace, ignore_errors=True)
        try:
            workdir.rmdir()  # only when no concurrent run still uses it
        except OSError:
            pass


def _setup(spec: ServeSpec, store: Path, src: Path, workdir: Path):
    started = time.perf_counter()
    edges = workload_edges(spec.num_nodes, spec.percent)
    built = time.perf_counter()
    meta = build_store(
        edges, store, num_nodes=spec.num_nodes,
        memory_bytes=memory_for_ratio(spec.num_nodes, spec.memory_ratio, spec.block_size),
        block_size=spec.block_size,
    )
    build_s = time.perf_counter() - built
    daemon = Daemon(store, src, workdir)
    try:
        with ServiceClient(port=daemon.port) as client:
            client.ping()
    except Exception:
        daemon.stop()
        raise
    return edges, meta, build_s, daemon, time.perf_counter() - started


def _run(
    spec: ServeSpec, seed: int, seconds: float, trace: bool, src: Path,
    workspace: Path, outcome: Outcome,
) -> Outcome:
    setups: List[float] = []
    builds: List[float] = []
    metas: List[dict] = []
    daemon: Optional[Daemon] = None
    store = workspace / "store"
    try:
        for _ in range(1 if trace else SETUPS):
            if daemon is not None:
                daemon.stop()
            edges, meta, build_s, daemon, setup_s = _setup(spec, store, src, workspace)
            setups.append(setup_s)
            builds.append(build_s)
            metas.append({k: meta[k] for k in ("scc_io", "num_sccs", "num_edges")})
        if any(m != metas[0] for m in metas):
            outcome.fail(f"store builds of one input differ: {metas}")

        oracle = Oracle(edges, spec.num_nodes)
        labels, layers = _read_store(store, spec.block_size)
        if labels != oracle.labels:
            outcome.fail("the store's labels differ from the in-memory Tarjan oracle")
        if layers != oracle.layers:
            outcome.fail("the store's topo layers differ from the longest-path oracle")

        records, warm_end, quarters = _load(
            daemon.port, spec, seed, seconds, daemon.proc.pid
        )
        peak_rss = pid_peak_rss_mb(daemon.proc.pid)
        daemon.stop()
        daemon = None
    finally:
        if daemon is not None:
            daemon.stop()
    _check(records, labels, layers, oracle, outcome)
    windows = _windows(records, warm_end, seconds)
    latencies = [latency for window in windows for latency in _latencies(window)]
    if not all(windows):
        outcome.fail("a quarter of the measured window completed no request")
        return outcome
    outcome.notes.update(
        requests=len(records), samples=len(latencies),
        num_sccs=metas[0]["num_sccs"], io_total=metas[0]["scc_io"],
        num_edges=metas[0]["num_edges"],
    )
    if not trace:
        if peak_rss is None:
            outcome.fail("the daemon's peak RSS could not be read")
            peak_rss = 0.0
        quarter = seconds / WINDOWS
        outcome.metrics = {
            "setup_s": (median(setups), "s"),
            "io_total": (float(metas[0]["scc_io"]), "block_IOs"),
            "peak_rss_mb": (peak_rss, "MiB"),
            # The daemon's CPU time per request in reference loops, the
            # median over the quarters.
            "cpu_per_request": (median([
                cpu / len(window) / reference
                for (cpu, reference), window in zip(quarters, windows)
            ]), "ref_loops"),
            "edges_per_s": (metas[0]["num_edges"] / median(builds), "edges/s"),
            "query_p50_ms": (median(latencies) * 1e3, "ms"),
            "query_p99_ms": (
                median([percentile(_latencies(w), 99) for w in windows]) * 1e3, "ms"
            ),
            "queries_per_s": (median([len(w) / quarter for w in windows]), "req/s"),
        }
        return outcome
    _traced(spec, seed, seconds, store, labels, layers, oracle, latencies, outcome)
    return outcome


def _traced(
    spec: ServeSpec, seed: int, seconds: float, store: Path,
    labels: Dict[int, int], layers: Dict[int, int], oracle: Oracle,
    untraced: List[float], outcome: Outcome,
) -> None:
    """Serve in this process under the tracer; fill the per-layer table."""
    tracer = Tracer()
    tracer.install()
    try:
        daemon = QueryDaemon(LabelStore(store), owns_store=True)
        daemon.start()
        try:
            records, _, _ = _load(daemon.address[1], spec, seed, seconds)
            with ServiceClient(port=daemon.address[1]) as client:
                stats = client.server_stats()
        finally:
            daemon.close()
    finally:
        tracer.uninstall()
    _check(records, labels, layers, oracle, outcome)
    latencies = _latencies(records)
    engines = (stats["scc_label"], stats["topo_order"])
    flushes = sum(e["flushes"] for e in engines)
    lookups = sum(e["label_cache_lookups"] for e in engines)
    block_reads = sum(e["batch_block_reads"] for e in engines)
    batch_lookups = sum(e["batch_lookups"] for e in engines)
    physical = stats["physical_io"]

    def mean_s(layer: str, suffix: str) -> float:
        totals = tracer.function_totals(layer, suffix)
        return totals.total_s / totals.calls if totals and totals.calls else 0.0

    flush_s = mean_s("batch", "BatchEngine.flush")
    handled = tracer.function_totals("daemon", "QueryDaemon.handle_request")
    outcome.metrics = {
        "batch.flushes": (flushes, "count"),
        "batch.lookups_per_flush": (lookups / flushes if flushes else 0.0, "lookups"),
        "batch.epoch_wait_s": (
            max(0.0, mean_s("batch", "BatchCollector.submit") - flush_s), "s"
        ),
        "batch.flush_s": (flush_s, "s"),
        "cache.label_hit_rate": (stats["scc_label"]["label_cache_hit_rate"], "fraction"),
        "cache.topo_hit_rate": (stats["topo_order"]["label_cache_hit_rate"], "fraction"),
        "node_table.blocks_per_lookup": (
            block_reads / batch_lookups if batch_lookups else 0.0, "ratio"
        ),
        "service.physical_reads": (
            physical["seq_reads"] + physical["rand_reads"], "block_IOs"
        ),
        "daemon.handle_s": (mean_s("daemon", "QueryDaemon.handle_request"), "s"),
        "store.reachable_s": (mean_s("store", "LabelStore.reachable"), "s"),
        # Client-side request time that no daemon span covers: transport,
        # JSON framing and the connection threads' scheduling.
        "unattributed_s": (
            sum(latencies) - (handled.total_s if handled else 0.0), "s"
        ),
        "trace_overhead_s": (median(latencies) - median(untraced), "s"),
    }
    for layer in BUSY:
        if not tracer.busy(layer):
            outcome.fail(f"layer {layer!r} recorded no span on serve-zipf")
    for layer in OFFLINE_LAYERS:
        if tracer.busy(layer):
            outcome.fail(f"offline layer {layer!r} recorded spans on serve-zipf")
    outcome.tracer = tracer
