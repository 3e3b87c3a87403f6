"""Kernel micro-benchmark: reference vs kernel on the hot loops.

The CPU paths the kernel layer (`repro.kernels`) replaces:

* **frontier propagation** — one Jacobi staging pass
  (:meth:`~repro.kernels.ReachabilityKernel.stage_pass`) over a million
  edges, the inner loop of every FW-BW-family reachability round; the
  fast form is numpy boolean-mask gathering/scattering;
* **K-way merge** — :func:`repro.kernels.merge_batches` against its
  reference :func:`heapq.merge` over a million records, once as two
  half-million-record runs (``merge2``) and once as 14 runs (``merge14``,
  the fan-in of the L1 rung's sorts); the fast form is the chunked
  concatenate-and-sort merge (Timsort's C galloping run-merge — see
  :mod:`repro.kernels.merge` for why numpy loses here).

Each op is timed scalar vs kernel in paired back-to-back rounds (the
:mod:`test_micro_codecs` pattern: shared-CI noise arrives in bursts, and
pairing plus a median-of-rounds ratio keeps a burst from landing on one
side of the comparison).  Mark-for-mark / record-for-record equality is
asserted before any timing is trusted, so the ratios can never be bought
with a semantic change.

Gates: the kernel path must be at least ``2×`` faster in aggregate
across the kernels, and at least ``1.3×`` faster for each
individually.  Results land in ``benchmarks/results/micro_kernels.txt``.
"""

import gc
import heapq
import random
import time
from itertools import chain

import pytest

from conftest import RESULTS_DIR

from repro import kernels
from repro.kernels.reachability import _NumpyReachability, _ScalarReachability

NUM_EDGES = 1_000_000
NUM_NODES = 200_000
MERGE_RECORDS = 1_000_000  # per merge, split evenly over its runs
WIDE_FAN_IN = 14  # the L1 rung's merge fan-in
BLOCK_RECORDS = 2048  # edges per simulated block handed to the kernel
AGGREGATE_GATE = 2.0  # kernels must be at least this much faster overall
KERNEL_FLOOR = 1.3  # and clearly win on each kernel individually
ROUNDS = 3  # paired scalar/kernel rounds; the gate sees the median ratio


def _has_numpy():
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


pytestmark = pytest.mark.skipif(
    not _has_numpy(), reason="numpy not installed (scalar-only build)"
)


def _edge_blocks():
    """A million random edges cut into block-sized tuples — the shape
    ``EdgeFile.scan_blocks`` feeds the reachability kernels."""
    rng = random.Random(42)
    edges = [
        (rng.randrange(NUM_NODES), rng.randrange(NUM_NODES))
        for _ in range(NUM_EDGES)
    ]
    return [
        tuple(edges[i : i + BLOCK_RECORDS])
        for i in range(0, NUM_EDGES, BLOCK_RECORDS)
    ]


def _sorted_runs(fan_in):
    rng = random.Random(7)
    span = 1 << 22
    make = lambda: sorted(
        (rng.randint(0, span), rng.randint(0, span))
        for _ in range(MERGE_RECORDS // fan_in)
    )
    return [make() for _ in range(fan_in)]


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _paired(scalar_fn, kernel_fn):
    """Median-of-paired-rounds timing (see module docs)."""
    rounds = []
    scalar_result = kernel_result = None
    for _ in range(ROUNDS):
        gc.collect()
        scalar_result, t_scalar = _timed(scalar_fn)
        kernel_result, t_kernel = _timed(kernel_fn)
        rounds.append((t_scalar, t_kernel))
    t_scalar, t_kernel = sorted(rounds, key=lambda r: r[0] / r[1])[ROUNDS // 2]
    return scalar_result, kernel_result, t_scalar, t_kernel


def _measure_propagation(blocks):
    nodes = list(range(NUM_NODES))
    part = [0] * NUM_NODES
    active = {0}
    seeds = random.Random(3).sample(range(NUM_NODES), 64)
    scalar_kernel = _ScalarReachability(nodes)
    previous = kernels.set_enabled(True)
    try:
        numpy_kernel = _NumpyReachability(nodes)
    finally:
        kernels.set_enabled(previous)

    def one_pass(kernel):
        fwd = bytearray(NUM_NODES)
        bwd = bytearray(NUM_NODES)
        for seed in seeds:
            fwd[seed] = bwd[seed] = 1
        new_fwd = bytearray(NUM_NODES)
        new_bwd = bytearray(NUM_NODES)
        kernel.stage_pass(blocks, part, active, fwd, bwd, new_fwd, new_bwd)
        return bytes(new_fwd), bytes(new_bwd)

    s_marks, n_marks, t_scalar, t_kernel = _paired(
        lambda: one_pass(scalar_kernel), lambda: one_pass(numpy_kernel)
    )
    assert n_marks == s_marks, "numpy propagation diverged from scalar"
    return t_scalar, t_kernel


def _measure_merge(runs):
    s_out, n_out, t_scalar, t_kernel = _paired(
        lambda: list(heapq.merge(*runs)),
        lambda: list(chain.from_iterable(kernels.merge_batches(runs))),
    )
    assert n_out == s_out, "chunked merge diverged from heapq.merge"
    return t_scalar, t_kernel


def _run_all():
    blocks = _edge_blocks()
    return {
        "propagate": _measure_propagation(blocks),
        "merge2": _measure_merge(_sorted_runs(2)),
        f"merge{WIDE_FAN_IN}": _measure_merge(_sorted_runs(WIDE_FAN_IN)),
    }


def _mrps(count, seconds):
    """Millions of records per second."""
    return count / seconds / 1e6


def test_micro_kernels_beat_scalar(benchmark):
    results = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    volumes = {name: MERGE_RECORDS for name in results}
    volumes["propagate"] = NUM_EDGES

    lines = [
        "Kernel micro-benchmark — scalar vs kernel "
        f"({NUM_EDGES:,} edges propagated, {MERGE_RECORDS:,} records "
        "per merge; the merges' scalar column is heapq.merge)",
        f"{'kernel':<12} {'scalar':>12} {'kernel':>12} "
        f"{'scalar':>10} {'kernel':>10} {'ratio':>7}",
        f"{'':<12} {'s':>12} {'s':>12} "
        f"{'Mrec/s':>10} {'Mrec/s':>10} {'x':>7}",
        "-" * 68,
    ]
    for name, (t_scalar, t_kernel) in results.items():
        count = volumes[name]
        lines.append(
            f"{name:<12} {t_scalar:>12.3f} {t_kernel:>12.3f} "
            f"{_mrps(count, t_scalar):>10.2f} {_mrps(count, t_kernel):>10.2f} "
            f"{t_scalar / t_kernel:>6.2f}x"
        )
    text = "\n".join(lines) + "\n"
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "micro_kernels.txt").write_text(text)
    print()
    print(text)

    total_scalar = sum(t for t, _ in results.values())
    total_kernel = sum(t for _, t in results.values())
    aggregate = total_scalar / total_kernel
    print(f"aggregate kernel ratio: {aggregate:.2f}x (gate {AGGREGATE_GATE}x)")
    assert aggregate >= AGGREGATE_GATE, (
        f"kernels only {aggregate:.2f}x scalar in aggregate "
        f"(gate {AGGREGATE_GATE}x)"
    )
    for name, (t_scalar, t_kernel) in results.items():
        assert t_scalar / t_kernel >= KERNEL_FLOOR, (
            f"{name}: kernel only {t_scalar / t_kernel:.2f}x scalar "
            f"(floor {KERNEL_FLOOR}x)"
        )
