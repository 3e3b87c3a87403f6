"""Trace-calibrated cost constants: closing the optimizer's feedback loop.

The analytic :class:`~repro.analysis.cost_model.CostModel` prices plans
from first principles (logical record widths, one hand-tuned
seconds-per-block guess).  Every executed run, however, already measures
the real constants: the stored bytes each codec paid per record of each
width (the payload ledger), the wall-seconds each executor/worker-count
combination took per block (the trace spans), and how many edge-file
passes each semi-external solver actually performed.  A
:class:`CalibrationProfile` ingests those measurements — from live
:class:`~repro.core.ext_scc.ExtSCCOutput` objects or committed
``--trace-json`` artifacts — fits per-operator-kind constants, and hands
the planner calibrated models so ``optimize_plan`` can *choose* codec,
workers, executor, and solver from predicted cost instead of trusting
config defaults.

Fitted constants:

* ``bytes_per_record[codec][width]`` — stored bytes per record, by codec
  and logical width (count-weighted running means of the payload ledger);
* ``wall[(executor, K, codec)]`` — an affine fit ``seconds ≈ a·blocks +
  b`` over the ingested ``(blocks, wall_seconds)`` samples of each
  executor, worker count, and codec.  The codec dimension matters:
  compressed codecs trade CPU for blocks, so their seconds-per-block is
  higher — without it the ``wallclock`` objective would always chase the
  fewest predicted blocks.  With one sample the slope is
  ``seconds/blocks`` and the intercept zero; with two or more, a
  least-squares fit whose clamped intercept *is* the executor's fixed
  overhead;
* ``semi_passes[solver]`` — measured edge-file scans per semi-external
  solver (the analytic default prices every solver at 3).

The profile persists as versioned JSON (``save``/``load``) — by
convention next to a persistent device's manifest
(``<device dir>/calibration.json``).  Loading an unreadable or
schema-incompatible file falls back gracefully to the analytic defaults:
an empty profile prices exactly like the uncalibrated model.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

from repro.analysis.cost_model import CostModel
from repro.constants import EDGE_RECORD_BYTES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.ext_scc import ExtSCCOutput

__all__ = [
    "CalibrationProfile",
    "CALIBRATION_SCHEMA_VERSION",
    "DEFAULT_SECONDS_PER_BLOCK",
    "DEFAULT_SEMI_PASSES",
    "calibration_path_for",
]

CALIBRATION_SCHEMA_VERSION = 1
"""Schema version of the persisted JSON; mismatches fall back to defaults."""

DEFAULT_SECONDS_PER_BLOCK = 5e-5
"""Analytic fallback seconds per block when no wall sample was ingested.
One value for every executor, so the uncalibrated ``wallclock`` objective
degenerates to ranking by predicted blocks — exactly the ``io`` objective."""

DEFAULT_SEMI_PASSES = 3.0
"""Analytic edge-scan count per semi-external solver (``CostModel.semi_scc``'s
priced default) used until a run measures the real number."""

_MAX_WALL_SAMPLES = 32  # per (executor, K); oldest evicted first


def calibration_path_for(directory: str) -> str:
    """The conventional profile location next to a device manifest."""
    return os.path.join(directory, "calibration.json")


def _fit_affine(samples: List[Tuple[float, float]]) -> Tuple[float, float]:
    """Least-squares ``seconds = a*blocks + b`` with ``a > 0``, ``b >= 0``.

    One sample pins the slope through the origin.  A degenerate spread
    (all sample block counts equal) averages the ratios instead.
    """
    if not samples:
        return DEFAULT_SECONDS_PER_BLOCK, 0.0
    if len(samples) == 1:
        blocks, seconds = samples[0]
        return (seconds / blocks if blocks else DEFAULT_SECONDS_PER_BLOCK), 0.0
    n = len(samples)
    mean_x = sum(b for b, _ in samples) / n
    mean_y = sum(s for _, s in samples) / n
    var = sum((b - mean_x) ** 2 for b, _ in samples)
    if var <= 0:
        ratios = [s / b for b, s in samples if b]
        return (sum(ratios) / len(ratios) if ratios
                else DEFAULT_SECONDS_PER_BLOCK), 0.0
    slope = sum((b - mean_x) * (s - mean_y) for b, s in samples) / var
    intercept = mean_y - slope * mean_x
    if slope <= 0:
        ratios = [s / b for b, s in samples if b]
        return (sum(ratios) / len(ratios) if ratios
                else DEFAULT_SECONDS_PER_BLOCK), 0.0
    return slope, max(0.0, intercept)


class CalibrationProfile:
    """Fitted cost constants with graceful analytic fallback.

    An empty profile predicts exactly what the uncalibrated
    :class:`CostModel` predicts; every ingested run sharpens it.
    """

    def __init__(self) -> None:
        # codec -> width -> [records, stored_bytes] running aggregates.
        self._bytes: Dict[str, Dict[int, List[float]]] = {}
        # executor -> K -> codec -> [(blocks, seconds), ...] (bounded).
        self._wall: Dict[str, Dict[int, Dict[str, List[Tuple[float, float]]]]] = {}
        # solver -> [runs, passes_sum] running aggregates.
        self._semi: Dict[str, List[float]] = {}
        self.runs = 0
        self.fallback_reason: Optional[str] = None

    # -- fitted views --------------------------------------------------------

    @property
    def calibrated(self) -> bool:
        """Has at least one measurement been ingested?"""
        return self.runs > 0

    def bytes_per_record(self, codec: str) -> Dict[int, float]:
        """Fitted stored bytes per record by logical width for ``codec``
        (empty — meaning logical widths — when never measured)."""
        return {
            width: stored / records
            for width, (records, stored) in self._bytes.get(codec, {}).items()
            if records
        }

    def model(self, block_size: int, memory_bytes: int,
              codec: str) -> CostModel:
        """A :class:`CostModel` pricing blocks at ``codec``'s fitted
        stored widths (the analytic logical-width model when unfitted)."""
        return CostModel(block_size, memory_bytes,
                         bytes_per_record=self.bytes_per_record(codec))

    @staticmethod
    def _codec_samples(by_codec: Dict[str, List[Tuple[float, float]]],
                       codec: Optional[str]) -> List[Tuple[float, float]]:
        """``codec``'s own samples when fitted, else every codec's pooled
        (deterministic order) — an unfitted codec borrows the executor's
        average seconds-per-block."""
        if codec is not None and by_codec.get(codec):
            return by_codec[codec]
        return [s for c in sorted(by_codec) for s in by_codec[c]]

    def wall_constants(self, executor: str, workers: int,
                       codec: Optional[str] = None) -> Tuple[float, float]:
        """``(seconds_per_block, fixed_overhead_seconds)`` for an executor
        at worker count ``K`` running ``codec``, with a fallback chain:
        exact ``(executor, K)`` fit → same executor, nearest fitted K →
        ``(serial, 1)`` → the analytic default.  Within the resolved
        ``(executor, K)`` cell, ``codec``'s own samples are used when
        present, the cell's pooled samples otherwise."""
        by_k = self._wall.get(executor, {})
        if workers in by_k:
            return _fit_affine(self._codec_samples(by_k[workers], codec))
        if by_k:
            nearest = min(by_k, key=lambda k: (abs(k - workers), k))
            return _fit_affine(self._codec_samples(by_k[nearest], codec))
        serial = self._wall.get("serial", {})
        if serial:
            nearest = min(serial, key=lambda k: (abs(k - 1), k))
            return _fit_affine(self._codec_samples(serial[nearest], codec))
        return DEFAULT_SECONDS_PER_BLOCK, 0.0

    def seconds(self, blocks: int, executor: str, workers: int,
                codec: Optional[str] = None) -> float:
        """Predicted wall-seconds for ``blocks`` total block I/Os run on
        ``executor`` with ``workers`` channels under ``codec`` (fixed
        overhead included)."""
        slope, intercept = self.wall_constants(executor, workers, codec)
        return slope * max(0, blocks) + intercept

    def semi_passes(self, solver: str) -> float:
        """Measured edge-file scans per run of ``solver`` (the analytic
        :data:`DEFAULT_SEMI_PASSES` when never measured)."""
        agg = self._semi.get(solver)
        if not agg or not agg[0]:
            return DEFAULT_SEMI_PASSES
        return agg[1] / agg[0]

    @property
    def version(self) -> str:
        """Stable fingerprint of the fitted constants (cache-key input):
        schema version + content hash, so any new measurement invalidates
        cached plans priced under the old constants."""
        digest = hashlib.sha256(
            json.dumps(self._payload(), sort_keys=True).encode("ascii")
        ).hexdigest()[:12]
        return f"{CALIBRATION_SCHEMA_VERSION}:{digest}"

    # -- ingestion -----------------------------------------------------------

    def _ingest_measurements(
        self,
        codec: str,
        executor: str,
        workers: int,
        solver: str,
        bytes_by_width: Mapping[int, Tuple[int, int]],
        io_total: int,
        wall_seconds: float,
        semi_io_total: Optional[int] = None,
        final_edges: Optional[int] = None,
        block_size: Optional[int] = None,
    ) -> None:
        for width, (records, stored) in bytes_by_width.items():
            if records <= 0:
                continue
            agg = self._bytes.setdefault(codec, {}).setdefault(
                int(width), [0.0, 0.0]
            )
            agg[0] += records
            agg[1] += stored
        if io_total > 0 and wall_seconds > 0:
            samples = self._wall.setdefault(executor, {}).setdefault(
                workers, {}
            ).setdefault(codec, [])
            samples.append((float(io_total), float(wall_seconds)))
            del samples[:-_MAX_WALL_SAMPLES]
        if (semi_io_total is not None and final_edges and block_size
                and semi_io_total > 0):
            scan_model = self.model(block_size, 1, codec)
            scan_blocks = scan_model.blocks(final_edges, EDGE_RECORD_BYTES)
            if scan_blocks > 0:
                agg = self._semi.setdefault(solver, [0.0, 0.0])
                agg[0] += 1
                agg[1] += max(1.0, semi_io_total / scan_blocks)
        self.runs += 1

    def ingest_run(self, output: "ExtSCCOutput",
                   block_size: Optional[int] = None) -> None:
        """Fit constants from one finished run.

        Args:
            output: the run's :class:`~repro.core.ext_scc.ExtSCCOutput`
                (config, payload ledger, per-phase I/O, and wall time all
                ride on it).
            block_size: the device's block size — needed only to fit the
                semi-external solver's pass count; omit to skip that fit.
        """
        config = output.config
        final_edges = (
            output.iterations[-1].next_num_edges if output.iterations else None
        )
        self._ingest_measurements(
            codec=config.codec,
            executor=config.executor,
            workers=config.workers,
            solver=config.semi_scc,
            bytes_by_width=output.bytes_by_width,
            io_total=output.io.total,
            wall_seconds=output.wall_seconds,
            semi_io_total=output.semi_io.total,
            final_edges=final_edges,
            block_size=block_size,
        )

    def ingest_trace_json(self, path: str) -> bool:
        """Fit constants from a committed ``--trace-json`` artifact.

        Returns True when the file carried the ``context`` section the
        CLI writes (codec, executor, workers, solver, payload ledger);
        files from older versions are skipped, not errors.
        """
        try:
            with open(path, "r", encoding="ascii") as f:
                payload = json.load(f)
        except (OSError, ValueError):
            return False
        context = payload.get("context")
        if not isinstance(context, dict):
            return False
        try:
            self._ingest_measurements(
                codec=context["codec"],
                executor=context["executor"],
                workers=int(context["workers"]),
                solver=context["solver"],
                bytes_by_width={
                    int(w): (int(pair[0]), int(pair[1]))
                    for w, pair in context.get("bytes_by_width", {}).items()
                },
                io_total=int(context.get("io_total", 0)),
                wall_seconds=float(context.get("wall_seconds", 0.0)),
                semi_io_total=context.get("semi_io_total"),
                final_edges=context.get("final_edges"),
                block_size=context.get("block_size"),
            )
        except (KeyError, TypeError, ValueError):
            return False
        return True

    # -- persistence ---------------------------------------------------------

    def _payload(self) -> dict:
        return {
            "schema": CALIBRATION_SCHEMA_VERSION,
            "runs": self.runs,
            "bytes_per_record": {
                codec: {str(w): agg for w, agg in sorted(widths.items())}
                for codec, widths in sorted(self._bytes.items())
            },
            "wall": {
                executor: {
                    str(k): {
                        codec: [list(sample) for sample in samples]
                        for codec, samples in sorted(by_codec.items())
                    }
                    for k, by_codec in sorted(by_k.items())
                }
                for executor, by_k in sorted(self._wall.items())
            },
            "semi_passes": {
                solver: agg for solver, agg in sorted(self._semi.items())
            },
        }

    def save(self, path: str) -> None:
        """Persist the profile as versioned JSON (atomic rename)."""
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="ascii") as f:
            json.dump(self._payload(), f, indent=1, sort_keys=True)
            f.write("\n")
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str) -> "CalibrationProfile":
        """Load a persisted profile; any failure (missing file, bad JSON,
        schema mismatch) returns the analytic-default profile with
        ``fallback_reason`` set instead of raising."""
        profile = cls()
        try:
            with open(path, "r", encoding="ascii") as f:
                payload = json.load(f)
        except FileNotFoundError:
            profile.fallback_reason = "missing"
            return profile
        except (OSError, ValueError):
            profile.fallback_reason = "unreadable"
            return profile
        if not isinstance(payload, dict) or payload.get("schema") != \
                CALIBRATION_SCHEMA_VERSION:
            profile.fallback_reason = (
                f"schema {payload.get('schema')!r} != "
                f"{CALIBRATION_SCHEMA_VERSION}"
                if isinstance(payload, dict) else "not an object"
            )
            return profile
        try:
            profile._bytes = {
                codec: {int(w): [float(agg[0]), float(agg[1])]
                        for w, agg in widths.items()}
                for codec, widths in payload.get("bytes_per_record", {}).items()
            }
            profile._wall = {
                executor: {
                    int(k): {
                        codec: [(float(b), float(s)) for b, s in samples]
                        for codec, samples in by_codec.items()
                    }
                    for k, by_codec in by_k.items()
                }
                for executor, by_k in payload.get("wall", {}).items()
            }
            profile._semi = {
                solver: [float(agg[0]), float(agg[1])]
                for solver, agg in payload.get("semi_passes", {}).items()
            }
            profile.runs = int(payload.get("runs", 0))
        except (TypeError, ValueError, IndexError, AttributeError):
            fresh = cls()
            fresh.fallback_reason = "malformed"
            return fresh
        return profile
