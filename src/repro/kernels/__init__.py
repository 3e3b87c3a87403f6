"""Vectorized CPU kernels behind ``REPRO_NUMPY=1``.

The simulated external-memory model charges I/O per *block*, but the
host-CPU cost of a run is dominated by per-record Python loops: frontier
propagation in the semi-external solvers touches every edge per scan, and
the sort/merge inner loops touch every record per pass.  This package
holds the vectorized replacements for those loops — numpy-backed when the
fast path is active, byte-identical pure-Python otherwise — so every call
site stays single-sourced on *semantics* and dual-sourced only on the
arithmetic:

* :mod:`repro.kernels.reachability` — frontier propagation for the FW-BW
  solver family (single-bit and multi-source bitset-column variants).
* :mod:`repro.kernels.merge` — the fits-in-memory sort (numpy lexsort
  over the record's own columns or a registered permutation key, such as
  Get-V's all-field ``(dst, src, deg[, prod])`` keys) and the one chunked
  K-way merge (:func:`merge_batches`) behind every fan-in of the external
  sort, which yields record *batches* so the sort layer can flatten its
  output in C; :func:`heapq.merge` stays the reference.

This package is also the single home of the ``REPRO_NUMPY`` feature
flag.  :mod:`repro.io.codecs` (the first numpy consumer) delegates here,
so "is the numpy path on?" has exactly one answer process-wide:

* :func:`available` — the flag is set *and* numpy imports.
* :func:`fallback_reason` — why the pure-Python path is running
  (``None`` when the numpy path is active); surfaced by ``scc -v`` and
  the ``--trace-json`` context so a silently-degraded benchmark run is
  visible in its artifacts.
* :func:`set_enabled` — test/bench toggle, mirroring
  ``set_batch_enabled``.

Every kernel obeys the contract the batch record path established:
**bit-for-bit output equality with the scalar loop**.  The numpy path
may reorder host work (chunking, lookahead) but never changes a staged
mark, an emitted record, or any simulated-I/O counter.
"""

from repro.kernels._flags import (
    available,
    fallback_reason,
    numpy_module,
    requested,
    set_enabled,
)
from repro.kernels.merge import (
    MERGE_CHUNK,
    merge_batches,
    sort_records,
)
from repro.kernels.reachability import (
    RESOLVED,
    ReachabilityKernel,
    reachability_kernel,
)

__all__ = [
    "available",
    "fallback_reason",
    "numpy_module",
    "requested",
    "set_enabled",
    "MERGE_CHUNK",
    "merge_batches",
    "sort_records",
    "RESOLVED",
    "ReachabilityKernel",
    "reachability_kernel",
]
