"""Tests for the cost-based knob search (:func:`autotune_config`), its
candidate enumeration, and the persistent plan cache.

The two load-bearing properties, hypothesis-driven:

* the optimizer's chosen configuration is never predicted-worse than any
  enumerated static configuration (it *is* the argmin of the priced
  search space), and
* a plan-cache hit reconstructs a decision byte-identical to the cold
  search — same payload, same provenance lines, same rendered table.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.calibration import CalibrationProfile
from repro.analysis.planner import (
    WORKER_OPTIONS,
    PlanCandidate,
    TuningDecision,
    autotune_config,
    enumerate_knobs,
)
from repro.core import ExtSCCConfig, compute_sccs
from repro.graph.generators import cycle_graph
from repro.io.codecs import CODECS
from repro.io.parallel import EXECUTOR_BACKENDS
from repro.plan import PlanCache
from repro.semi_external import SEMI_SCC_SOLVERS

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

shape_strategy = st.tuples(
    st.integers(min_value=0, max_value=200_000),     # nodes
    st.integers(min_value=0, max_value=1_000_000),   # edges
    st.sampled_from([16 * 1024, 64 * 1024, 1 << 20]),  # memory
    st.sampled_from([512, 1024, 4096]),              # block size
)


def _calibrated_profile() -> CalibrationProfile:
    """A profile with deliberately skewed constants so the wallclock
    objective diverges from io."""
    profile = CalibrationProfile()
    profile._ingest_measurements(
        codec="gap-varint", executor="serial", workers=1,
        solver="spanning-tree", bytes_by_width={8: (1000, 3000)},
        io_total=1000, wall_seconds=0.1,
    )
    profile._ingest_measurements(
        codec="fixed", executor="threads", workers=4,
        solver="coloring", bytes_by_width={8: (1000, 8000)},
        io_total=1000, wall_seconds=0.02,
    )
    return profile


class TestEnumerateKnobs:
    def test_covers_full_grid(self):
        knobs = set(enumerate_knobs())
        expected = {
            (codec, workers, executor, solver)
            for codec in CODECS
            for solver in SEMI_SCC_SOLVERS
            for executor in EXECUTOR_BACKENDS
            for workers in WORKER_OPTIONS
        }
        assert knobs == expected

    def test_deterministic_order(self):
        assert enumerate_knobs() == enumerate_knobs()

    def test_custom_worker_options(self):
        knobs = enumerate_knobs(workers_options=(1,))
        assert {k[1] for k in knobs} == {1}


class TestChosenIsArgmin:
    @given(shape=shape_strategy, objective=st.sampled_from(["io", "wallclock"]))
    @SETTINGS
    def test_chosen_never_predicted_worse(self, shape, objective):
        nodes, edges, memory, block = shape
        decision = autotune_config(
            nodes, edges, memory, block,
            config=ExtSCCConfig.optimized(),
            profile=_calibrated_profile(),
            objective=objective,
        )
        chosen_price = decision.chosen.price(objective)
        for candidate in decision.candidates:
            assert chosen_price <= candidate.price(objective)

    @given(shape=shape_strategy)
    @SETTINGS
    def test_candidates_cover_enumeration(self, shape):
        nodes, edges, memory, block = shape
        decision = autotune_config(nodes, edges, memory, block)
        labels = {
            (c.codec, c.workers, c.executor, c.solver)
            for c in decision.candidates
        }
        assert labels == set(enumerate_knobs())

    def test_objective_changes_ranking_when_calibrated(self):
        profile = _calibrated_profile()
        io = autotune_config(50_000, 200_000, 64 * 1024, 1024,
                             profile=profile, objective="io")
        wall = autotune_config(50_000, 200_000, 64 * 1024, 1024,
                               profile=profile, objective="wallclock")
        assert io.objective == "io" and wall.objective == "wallclock"
        # The skewed profile makes threads@4 much faster per block, so
        # the wallclock winner runs on threads even though io's does not.
        assert wall.chosen.executor == "threads"
        assert io.chosen.executor == "serial"


class TestCacheByteIdentity:
    @given(shape=shape_strategy, objective=st.sampled_from(["io", "wallclock"]))
    @SETTINGS
    def test_hit_payload_and_render_identical(self, shape, objective):
        nodes, edges, memory, block = shape
        cache = PlanCache()
        kwargs = dict(config=ExtSCCConfig.optimized(),
                      profile=_calibrated_profile(), objective=objective,
                      cache=cache)
        cold = autotune_config(nodes, edges, memory, block, **kwargs)
        warm = autotune_config(nodes, edges, memory, block, **kwargs)
        assert not cold.cache_hit
        assert warm.cache_hit
        assert warm.cache_key == cold.cache_key
        assert warm.to_payload() == cold.to_payload()
        # The header names the source (search vs cache); the candidate
        # table below it must be byte-identical.
        assert warm.render().splitlines()[1:] == cold.render().splitlines()[1:]
        assert warm.rewrite_lines() == cold.rewrite_lines()
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}

    def test_key_changes_with_shape_and_calibration(self):
        base = PlanCache.make_key(100, 400, 1 << 20, 1024, "fp", "1:a", "io")
        assert PlanCache.make_key(101, 400, 1 << 20, 1024, "fp", "1:a",
                                  "io") != base
        assert PlanCache.make_key(100, 400, 1 << 20, 1024, "fp", "1:b",
                                  "io") != base
        assert PlanCache.make_key(100, 400, 1 << 20, 1024, "fp", "1:a",
                                  "wallclock") != base

    def test_persisted_cache_round_trip(self, tmp_path):
        path = str(tmp_path / "plans.json")
        cache = PlanCache(path)
        cold = autotune_config(5_000, 20_000, 64 * 1024, 1024, cache=cache)
        cache.save()
        reloaded = PlanCache(path)
        warm = autotune_config(5_000, 20_000, 64 * 1024, 1024, cache=reloaded)
        assert warm.cache_hit
        assert warm.to_payload() == cold.to_payload()

    def test_payload_json_round_trip(self):
        decision = autotune_config(5_000, 20_000, 64 * 1024, 1024)
        payload = json.loads(json.dumps(decision.to_payload()))
        rebuilt = TuningDecision.from_payload(payload)
        assert rebuilt.to_payload() == decision.to_payload()


class TestDecisionSurface:
    def test_rewrite_lines_name_chosen_and_runner_up(self):
        decision = autotune_config(5_000, 20_000, 64 * 1024, 1024)
        lines = decision.rewrite_lines()
        assert lines[0].startswith("autotune[io]=")
        assert decision.chosen.label in lines[0]
        assert lines[1].startswith("runner-up:")

    def test_render_marks_chosen_first(self):
        decision = autotune_config(5_000, 20_000, 64 * 1024, 1024)
        table = decision.render()
        first_row = table.splitlines()[2]
        assert first_row.startswith("->")
        assert decision.chosen.codec in first_row

    def test_config_override_preserves_pipeline_flags(self):
        base = ExtSCCConfig.optimized()
        decision = autotune_config(5_000, 20_000, 64 * 1024, 1024,
                                   config=base)
        tuned = decision.config(base)
        assert tuned.trim_type1 == base.trim_type1
        assert tuned.product_operator == base.product_operator
        chosen = decision.chosen
        assert (tuned.codec, tuned.workers, tuned.executor, tuned.semi_scc) \
            == (chosen.codec, chosen.workers, chosen.executor, chosen.solver)


class TestEndToEndIdentity:
    def test_autotuned_labels_match_static_run(self):
        """The chosen config runs exactly as the same static config —
        labels and I/O ledger byte-identical (acceptance criterion)."""
        edges = cycle_graph(300).edges
        cache = PlanCache()
        tuned = compute_sccs(edges, memory_bytes=4 * 1024, block_size=512,
                             autotune=True, plan_cache=cache)
        assert tuned.tuning is not None
        static = compute_sccs(edges, memory_bytes=4 * 1024, block_size=512,
                              config=tuned.config)
        assert tuned.result.labels == static.result.labels
        assert tuned.io.total == static.io.total

    def test_warm_cache_run_has_no_planning_span(self):
        edges = cycle_graph(300).edges
        cache = PlanCache()
        cold = compute_sccs(edges, memory_bytes=4 * 1024, block_size=512,
                            autotune=True, plan_cache=cache)
        warm = compute_sccs(edges, memory_bytes=4 * 1024, block_size=512,
                            autotune=True, plan_cache=cache)
        cold_planning = [s for s in cold.trace.spans if s.phase == "planning"]
        warm_planning = [s for s in warm.trace.spans if s.phase == "planning"]
        assert len(cold_planning) == 1
        assert warm_planning == []
        assert warm.tuning.cache_hit
        assert cache.stats()["hits"] == 1
