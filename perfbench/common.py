"""Helpers shared by the workloads: statistics, memory, host speed, the edge stream."""

from __future__ import annotations

import heapq
import math
import os
import random
import resource
import signal
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.workloads import shuffled_edges, subsample_edges, webspam_graph

GRAPH_SEED = 7
"""Generator seed of the webspam stand-in, the same for every ``--seed``.

The edge files are fixed rungs of the size ladder, so ``io_total`` is one
exact number per workload and its bound can be tight.  Both the graph and
the order of its edges on disk move the ledger: over graph seeds 1-8 the
L1 rung ranges from 21,400 to 22,270 block I/Os, and one edge order in
five makes the semi-external solver scan once more (1,956 instead of
1,487 I/Os on the 10,000-node graph).  ``--seed`` therefore drives only the
query stream of ``serve-zipf``."""


@dataclass
class Outcome:
    """What one workload run reports, before formatting."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)
    tracer: Optional[object] = None
    """The traced pass's :class:`~perfbench.tracer.Tracer`, if there was one."""

    def fail(self, message: str) -> None:
        """Record a check that did not hold; the run reports ``correct: false``."""
        if len(self.problems) < 20:
            self.problems.append(message)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def workload_edges(num_nodes: int, percent: int) -> List[Tuple[int, int]]:
    """The webspam stand-in's edge file: ``percent``% of its edges, shuffled."""
    graph = webspam_graph(num_nodes, seed=GRAPH_SEED)
    return subsample_edges(shuffled_edges(graph), percent)


_REFERENCE_KEYS = [random.Random(2014).randrange(1 << 30) for _ in range(1500)]


def reference_loop() -> None:
    """A fixed piece of the interpreter work the program does.

    Dict inserts and lookups, a sort, tuples and heap pushes and pops over
    1,500 integers, about a millisecond.  It never touches the program, so a
    change to the program cannot change its time; only the host can.
    """
    table = {}
    for index, key in enumerate(_REFERENCE_KEYS):
        table[key] = index
    heap: List[Tuple[int, int]] = []
    for key in sorted(_REFERENCE_KEYS):
        heapq.heappush(heap, (table[key] & 15, key))
    while heap:
        heapq.heappop(heap)


class SpeedProbe:
    """Samples the host's speed while the program runs, from a timer signal.

    The shared host's CPU speed wanders by 20-60% in spells of seconds to
    minutes: a busy loop shows it, and a process's CPU time moves with its
    wall time, so it is not time the hypervisor takes away.  A CPU time
    measured alone therefore says as much about the host as about the
    program.

    While active, the probe interrupts the main thread every ``period``
    seconds and times :func:`reference_loop` in thread CPU time.  A CPU
    time divided by the median of the samples taken during it is in
    reference loops: the host's speed cancels, the program's cost stays.
    ``cpu_s`` is the CPU time the probe itself used, for subtracting.
    """

    def __init__(self, period: float = 0.05) -> None:
        self.period = period
        self.samples: List[float] = []
        self.cpu_s = 0.0
        self._previous: object = None

    def sample(self, *_: object) -> None:
        started = time.thread_time()
        reference_loop()
        took = time.thread_time() - started
        self.samples.append(took)
        self.cpu_s += took

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *_: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_s(self, since: int) -> float:
        """Median reference-loop time of the samples from index ``since`` on."""
        return median(self.samples[since:])


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> Optional[float]:
    """Peak resident set size of process ``pid`` (Linux ``VmHWM``), in MiB."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def pid_cpu_s(pid: int) -> float:
    """CPU time, user and system, that process ``pid`` has used, in seconds."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
