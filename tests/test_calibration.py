"""Tests for the trace-calibrated cost constants
(:mod:`repro.analysis.calibration`)."""

import json

import pytest

from repro.analysis.calibration import (
    CALIBRATION_SCHEMA_VERSION,
    CalibrationProfile,
    DEFAULT_SECONDS_PER_BLOCK,
    DEFAULT_SEMI_PASSES,
    calibration_path_for,
)
from repro.analysis.cost_model import CostModel
from repro.core import compute_sccs
from repro.graph.generators import cycle_graph


def _ingest(profile, **overrides):
    """One synthetic measurement with sensible defaults."""
    kwargs = dict(
        codec="gap-varint", executor="serial", workers=1,
        solver="spanning-tree", bytes_by_width={8: (100, 300)},
        io_total=50, wall_seconds=0.005,
    )
    kwargs.update(overrides)
    profile._ingest_measurements(**kwargs)


class TestDefaults:
    def test_empty_profile_is_uncalibrated(self):
        profile = CalibrationProfile()
        assert not profile.calibrated
        assert profile.runs == 0
        assert profile.fallback_reason is None

    def test_empty_profile_prices_like_analytic_model(self):
        profile = CalibrationProfile()
        model = profile.model(1024, 32 * 1024, "gap-varint")
        analytic = CostModel(1024, 32 * 1024)
        assert model.blocks(1000, 8) == analytic.blocks(1000, 8)

    def test_default_wall_constants(self):
        profile = CalibrationProfile()
        assert profile.wall_constants("serial", 1) == \
            (DEFAULT_SECONDS_PER_BLOCK, 0.0)
        assert profile.seconds(100, "threads", 4) == \
            pytest.approx(100 * DEFAULT_SECONDS_PER_BLOCK)

    def test_default_semi_passes(self):
        assert CalibrationProfile().semi_passes("coloring") == \
            DEFAULT_SEMI_PASSES

    def test_path_convention(self, tmp_path):
        assert calibration_path_for(str(tmp_path)) == \
            str(tmp_path / "calibration.json")


class TestBytesFit:
    def test_bytes_per_record_is_count_weighted_mean(self):
        profile = CalibrationProfile()
        _ingest(profile, bytes_by_width={8: (100, 300)})
        _ingest(profile, bytes_by_width={8: (300, 500)})
        # (300 + 500) stored over (100 + 300) records.
        assert profile.bytes_per_record("gap-varint") == {8: 2.0}

    def test_codecs_fit_independently(self):
        profile = CalibrationProfile()
        _ingest(profile, codec="fixed", bytes_by_width={8: (10, 80)})
        _ingest(profile, codec="gap-varint", bytes_by_width={8: (10, 25)})
        assert profile.bytes_per_record("fixed") == {8: 8.0}
        assert profile.bytes_per_record("gap-varint") == {8: 2.5}

    def test_zero_record_entries_skipped(self):
        profile = CalibrationProfile()
        _ingest(profile, bytes_by_width={8: (100, 300), 4: (0, 0)})
        assert 4 not in profile.bytes_per_record("gap-varint")

    def test_fitted_model_prices_stored_width(self):
        profile = CalibrationProfile()
        _ingest(profile, codec="gap-varint", bytes_by_width={8: (1000, 2000)})
        fitted = profile.model(1024, 32 * 1024, "gap-varint")
        analytic = CostModel(1024, 32 * 1024)
        # 2 stored bytes/record packs 4x more records per block than the
        # 8-byte logical width.
        assert fitted.blocks(4096, 8) < analytic.blocks(4096, 8)


class TestWallFit:
    def test_single_sample_pins_slope_through_origin(self):
        profile = CalibrationProfile()
        _ingest(profile, io_total=200, wall_seconds=0.01)
        slope, intercept = profile.wall_constants("serial", 1)
        assert slope == pytest.approx(5e-5)
        assert intercept == 0.0

    def test_two_samples_fit_affine_intercept(self):
        profile = CalibrationProfile()
        # seconds = 1e-4 * blocks + 0.5 exactly.
        _ingest(profile, executor="threads", workers=4,
                io_total=100, wall_seconds=0.51)
        _ingest(profile, executor="threads", workers=4,
                io_total=1100, wall_seconds=0.61)
        slope, intercept = profile.wall_constants("threads", 4)
        assert slope == pytest.approx(1e-4)
        assert intercept == pytest.approx(0.5)

    def test_fallback_nearest_k_same_executor(self):
        profile = CalibrationProfile()
        _ingest(profile, executor="threads", workers=2,
                io_total=100, wall_seconds=0.02)
        assert profile.wall_constants("threads", 8) == \
            profile.wall_constants("threads", 2)

    def test_fallback_serial_then_default(self):
        profile = CalibrationProfile()
        _ingest(profile, executor="serial", workers=1,
                io_total=100, wall_seconds=0.02)
        # threads never measured -> serial's fit.
        assert profile.wall_constants("threads", 4) == \
            profile.wall_constants("serial", 1)
        assert CalibrationProfile().wall_constants("threads", 4) == \
            (DEFAULT_SECONDS_PER_BLOCK, 0.0)

    def test_codec_specific_slopes(self):
        """A compressed codec's CPU cost shows up as a higher fitted
        seconds-per-block; each codec fits its own samples, and an
        unfitted codec borrows the pooled fit."""
        profile = CalibrationProfile()
        _ingest(profile, codec="fixed", io_total=1000, wall_seconds=0.05)
        _ingest(profile, codec="gap-varint", io_total=500, wall_seconds=0.1)
        fixed_slope, _ = profile.wall_constants("serial", 1, "fixed")
        gv_slope, _ = profile.wall_constants("serial", 1, "gap-varint")
        assert fixed_slope == pytest.approx(5e-5)
        assert gv_slope == pytest.approx(2e-4)
        # varint never measured -> pooled over both codecs' samples.
        pooled_slope, _ = profile.wall_constants("serial", 1, "varint")
        assert fixed_slope < pooled_slope < gv_slope

    def test_negative_slope_degenerates_to_ratio_mean(self):
        profile = CalibrationProfile()
        _ingest(profile, io_total=100, wall_seconds=0.2)
        _ingest(profile, io_total=200, wall_seconds=0.1)
        slope, intercept = profile.wall_constants("serial", 1)
        assert slope > 0
        assert intercept == 0.0


class TestSemiPassesFit:
    def test_passes_fit_from_semi_io_over_scan_blocks(self):
        profile = CalibrationProfile()
        scan = CostModel(1024, 1).blocks(500, 8)
        # No byte stats ingested, so the scan is priced at logical widths.
        _ingest(profile, solver="coloring", bytes_by_width={},
                semi_io_total=scan * 4, final_edges=500, block_size=1024)
        assert profile.semi_passes("coloring") == pytest.approx(4.0)

    def test_passes_clamped_at_one(self):
        profile = CalibrationProfile()
        _ingest(profile, solver="coloring", semi_io_total=1,
                final_edges=10_000, block_size=1024)
        assert profile.semi_passes("coloring") >= 1.0

    def test_skipped_without_block_size(self):
        profile = CalibrationProfile()
        _ingest(profile, solver="coloring", semi_io_total=100,
                final_edges=500, block_size=None)
        assert profile.semi_passes("coloring") == DEFAULT_SEMI_PASSES


class TestVersion:
    def test_version_carries_schema_prefix(self):
        assert CalibrationProfile().version.startswith(
            f"{CALIBRATION_SCHEMA_VERSION}:"
        )

    def test_empty_profiles_share_version(self):
        assert CalibrationProfile().version == CalibrationProfile().version

    def test_ingestion_changes_version(self):
        profile = CalibrationProfile()
        before = profile.version
        _ingest(profile)
        assert profile.version != before


class TestPersistence:
    def test_round_trip(self, tmp_path):
        profile = CalibrationProfile()
        _ingest(profile, executor="threads", workers=4,
                io_total=100, wall_seconds=0.02,
                semi_io_total=120, final_edges=500, block_size=1024)
        path = str(tmp_path / "calibration.json")
        profile.save(path)
        loaded = CalibrationProfile.load(path)
        assert loaded.version == profile.version
        assert loaded.runs == profile.runs
        assert loaded.bytes_per_record("gap-varint") == \
            profile.bytes_per_record("gap-varint")
        assert loaded.wall_constants("threads", 4) == \
            profile.wall_constants("threads", 4)
        assert loaded.semi_passes("spanning-tree") == \
            profile.semi_passes("spanning-tree")

    def test_missing_file_falls_back(self, tmp_path):
        loaded = CalibrationProfile.load(str(tmp_path / "absent.json"))
        assert not loaded.calibrated
        assert loaded.fallback_reason == "missing"

    def test_corrupt_json_falls_back(self, tmp_path):
        path = tmp_path / "calibration.json"
        path.write_text("{not json")
        loaded = CalibrationProfile.load(str(path))
        assert not loaded.calibrated
        assert loaded.fallback_reason == "unreadable"

    def test_schema_mismatch_falls_back(self, tmp_path):
        path = tmp_path / "calibration.json"
        path.write_text(json.dumps({"schema": 999, "runs": 7}))
        loaded = CalibrationProfile.load(str(path))
        assert not loaded.calibrated
        assert "schema" in loaded.fallback_reason

    def test_malformed_payload_falls_back(self, tmp_path):
        path = tmp_path / "calibration.json"
        path.write_text(json.dumps({
            "schema": CALIBRATION_SCHEMA_VERSION,
            "runs": 1,
            "wall": {"serial": {"1": [["x", "y"]]}},
        }))
        loaded = CalibrationProfile.load(str(path))
        assert not loaded.calibrated
        assert loaded.fallback_reason == "malformed"


class TestIngestRun:
    def test_ingest_run_fits_codec_and_wall(self):
        out = compute_sccs(cycle_graph(200).edges, memory_bytes=2 * 1024,
                           block_size=256)
        profile = CalibrationProfile()
        profile.ingest_run(out, block_size=256)
        assert profile.calibrated
        fitted = profile.bytes_per_record(out.config.codec)
        assert 8 in fitted and fitted[8] <= 8.0
        slope, _ = profile.wall_constants(out.config.executor,
                                          out.config.workers)
        assert slope > 0


class TestIngestTraceJson:
    def test_ingest_cli_trace_artifact(self, tmp_path):
        from repro.cli import main
        from repro.graph.io_formats import write_edge_text

        edge_path = tmp_path / "g.txt"
        write_edge_text(edge_path, cycle_graph(60).edges)
        trace_path = tmp_path / "trace.json"
        assert main(["scc", str(edge_path), "-m", "300", "-b", "64",
                     "--trace-json", str(trace_path)]) == 0
        profile = CalibrationProfile()
        assert profile.ingest_trace_json(str(trace_path))
        assert profile.calibrated
        assert profile.bytes_per_record("gap-varint")

    def test_trace_without_context_is_skipped(self, tmp_path):
        path = tmp_path / "old-trace.json"
        path.write_text(json.dumps({"spans": [], "total_measured": 0}))
        profile = CalibrationProfile()
        assert not profile.ingest_trace_json(str(path))
        assert not profile.calibrated

    def test_unreadable_trace_is_skipped(self, tmp_path):
        profile = CalibrationProfile()
        assert not profile.ingest_trace_json(str(tmp_path / "nope.json"))
