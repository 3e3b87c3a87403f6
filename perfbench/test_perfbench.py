"""Tests of the benchmark harness: smoke runs, the metric contract, the tracer."""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

from perfbench import run as bench
from perfbench.common import SpeedProbe
from perfbench.tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_declared_metrics_match_the_harness():
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert declared == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")["bound"] == max(
        m["bound"] for m in SPEC["end_to_end"]
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke_run_reports_every_metric_and_checks_answers(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = bench.PER_LAYER if trace == "1" else bench.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    context = json.loads(done.stdout.split("context ", 1)[1].splitlines()[0])
    assert {"seed", "python", "nproc", "numpy_active"} <= set(context)
    assert context["numpy_active"] is False


def test_smoke_ledger_repeats_exactly_across_seeds():
    """The seed permutes the edge order on disk; the ledger must not move."""
    totals = set()
    for seed in ("1", "2"):
        done = _run("--workload", "webspam-contract", "--seed", seed,
                    "--seconds", "0.1", "--smoke")
        totals.add(json.loads(done.stdout.splitlines()[-1])["metrics"]["io_total"]["value"])
    assert len(totals) == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _run("--workload", "webspam-semi", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.fixture
def probe_modules():
    """A two-module fake program: a library and a caller that from-imports it."""
    lib = types.ModuleType("repro.zz_probe_lib")
    lib.__file__ = "zz_probe_lib.py"

    def produce(n):
        for i in range(n):
            yield i

    def consume(records):
        return sum(records)

    produce.__module__ = consume.__module__ = lib.__name__
    lib.produce, lib.consume = produce, consume
    user = types.ModuleType("repro.zz_probe_user")
    user.produce = produce  # as ``from repro.zz_probe_lib import produce``
    user.REGISTRY = {"p": produce}
    sys.modules[lib.__name__] = lib
    sys.modules[user.__name__] = user
    yield lib, user
    del sys.modules[lib.__name__], sys.modules[user.__name__]


def test_tracer_rebinds_aliases_and_times_generators(probe_modules):
    lib, user = probe_modules
    ticks = iter(range(1000))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    original = lib.produce
    tracer.install({"probe": (lib.__name__,)})
    try:
        assert user.produce is not original
        assert user.REGISTRY["p"] is user.produce
        assert list(user.produce(3)) == [0, 1, 2]
    finally:
        tracer.uninstall()
    assert user.produce is original and lib.produce is original
    assert user.REGISTRY["p"] is original
    totals = tracer.layers["probe"]
    assert totals.calls == 1
    assert totals.spans == 1 + 4  # the call, three items and the exhausting next()
    assert totals.self_s == 5.0  # one fake tick per span


def test_tracer_subtracts_nested_spans_from_self_time(probe_modules):
    lib, _ = probe_modules
    ticks = iter(range(1000))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.install({"probe": (lib.__name__,)})
    try:
        assert lib.consume(lib.produce(2)) == 1
    finally:
        tracer.uninstall()
    # produce: call 0..1, then three resumptions (3..4, 5..6, 7..8) inside
    # consume's span 2..9, which keeps 7 - 3 = 4 ticks as its own.
    consume = tracer.function_totals("probe", "consume")
    produce = tracer.function_totals("probe", "produce")
    assert (consume.total_s, consume.self_s) == (7.0, 4.0)
    assert (produce.spans, produce.self_s) == (4, 4.0)
    assert tracer.layers["probe"].self_s == 8.0  # the 0..1 call plus 2..9


def test_speed_probe_samples_and_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    probe = SpeedProbe(period=0.01)
    with probe:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) >= 5 and probe.reference_s(0) > 0
    assert probe.cpu_s == pytest.approx(sum(probe.samples))
