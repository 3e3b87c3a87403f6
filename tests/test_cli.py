"""Tests for the command-line interface."""

import pytest

from repro.cli import main, parse_size
from repro.graph.io_formats import read_edge_text, write_edge_text
from repro.graph.generators import cycle_graph


class TestParseSize:
    def test_plain_number(self):
        assert parse_size("4096") == 4096

    def test_suffixes(self):
        assert parse_size("64K") == 64 * 1024
        assert parse_size("4M") == 4 * 1024 * 1024
        assert parse_size("1G") == 1 << 30

    def test_lowercase_and_spaces(self):
        assert parse_size(" 2k ") == 2048

    def test_fractional(self):
        assert parse_size("0.5M") == 512 * 1024

    def test_invalid(self):
        with pytest.raises(ValueError):
            parse_size("lots")


class TestGenerate:
    def test_generate_text(self, tmp_path):
        out = tmp_path / "g.txt"
        code = main(["generate", "large-scc", str(out),
                     "--nodes", "300", "--seed", "3"])
        assert code == 0
        edges = list(read_edge_text(out))
        assert len(edges) > 300

    def test_generate_binary(self, tmp_path):
        out = tmp_path / "g.bin"
        code = main(["generate", "webspam", str(out),
                     "--nodes", "200", "--binary"])
        assert code == 0
        from repro.graph.io_formats import read_edge_binary

        assert len(list(read_edge_binary(out))) > 0

    def test_generate_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["generate", "small-scc", str(a), "--nodes", "300", "--seed", "9"])
        main(["generate", "small-scc", str(b), "--nodes", "300", "--seed", "9"])
        assert a.read_text() == b.read_text()


class TestScc:
    @pytest.fixture
    def edge_path(self, tmp_path):
        path = tmp_path / "cycle.txt"
        write_edge_text(path, cycle_graph(50).edges)
        return path

    def test_scc_labels_file(self, tmp_path, edge_path, capsys):
        labels_path = tmp_path / "labels.txt"
        code = main(["scc", str(edge_path), "-o", str(labels_path),
                     "-m", "300", "-b", "64"])
        assert code == 0
        lines = labels_path.read_text().splitlines()
        assert len(lines) == 50
        labels = {int(l.split()[1]) for l in lines}
        assert labels == {0}  # one SCC
        assert "sccs: 1" in capsys.readouterr().err

    def test_scc_baseline_algorithm(self, edge_path, capsys):
        code = main(["scc", str(edge_path), "-m", "300", "-b", "64",
                     "--algorithm", "ext-scc"])
        assert code == 0
        assert "iterations:" in capsys.readouterr().err

    def test_scc_explicit_node_count(self, tmp_path, capsys):
        path = tmp_path / "e.txt"
        write_edge_text(path, [(0, 1)])
        code = main(["scc", str(path), "--nodes", "5", "-m", "16K"])
        assert code == 0
        assert "sccs: 5" in capsys.readouterr().err

    def test_missing_input(self, capsys):
        code = main(["scc", "/nonexistent/file.txt"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestMalformedEdgeList:
    """A bad edge-list input is a clean exit 2 naming ``path:line`` and
    the bad token — never a traceback."""

    @pytest.mark.parametrize(
        "text, lineno, token",
        [
            ("0 1\n1 x\n", 2, "'x'"),
            ("0 1\n-3 1\n", 2, "'-3'"),
            ("0 5000000000\n", 1, "'5000000000'"),
            ("0 4294967296\n", 1, "'4294967296'"),
            ("0 1\n2 3 4\n", 2, "'2 3 4'"),
        ],
    )
    def test_bad_text_line_exits_2(self, tmp_path, capsys, text, lineno, token):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code = main(["scc", str(path), "-m", "16K"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{path}:{lineno}:" in err and token in err

    def test_largest_id_accepted(self, tmp_path, capsys):
        path = tmp_path / "edge.txt"
        path.write_text("4294967295 0\n")
        assert main(["stats", str(path)]) == 0

    def test_truncated_binary_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 8 + b"\x01\x02\x03")
        code = main(["scc", str(path), "--binary", "-m", "16K"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{path}: truncated edge record at byte 8" in err

    def test_no_traceback_from_the_process(self, tmp_path):
        import os
        import subprocess
        import sys

        path = tmp_path / "bad.txt"
        path.write_text("0 1\n1 x\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "scc", str(path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.strip() == (
            f"error: {path}:2: node id 'x' is not a non-negative integer"
        )


class TestSccCheckpoint:
    @pytest.fixture
    def edge_path(self, tmp_path):
        path = tmp_path / "cycle.txt"
        write_edge_text(path, cycle_graph(50).edges)
        return path

    def test_checkpointed_run_writes_labels(self, tmp_path, edge_path, capsys):
        labels_path = tmp_path / "labels.txt"
        ckpt = tmp_path / "ckpt"
        code = main(["scc", str(edge_path), "-o", str(labels_path),
                     "-m", "300", "-b", "64", "--checkpoint-dir", str(ckpt)])
        assert code == 0
        lines = labels_path.read_text().splitlines()
        assert len(lines) == 50
        assert {int(l.split()[1]) for l in lines} == {0}
        assert (ckpt / "manifest.json").exists()
        assert "sccs: 1" in capsys.readouterr().err

    def test_crash_then_resume(self, tmp_path, edge_path, capsys, monkeypatch):
        """A killed checkpointed run is picked back up by --resume."""
        import repro.io.persistent as persistent
        from repro.recovery import FaultInjector

        real = persistent.PersistentBlockDevice

        class Crashing(real):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                FaultInjector(crash_at_io=100).attach(self)

        monkeypatch.setattr(persistent, "PersistentBlockDevice", Crashing)
        labels_path = tmp_path / "labels.txt"
        ckpt = tmp_path / "ckpt"
        argv = ["scc", str(edge_path), "-o", str(labels_path),
                "-m", "300", "-b", "64", "--checkpoint-dir", str(ckpt)]
        code = main(argv)
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not labels_path.exists()

        monkeypatch.setattr(persistent, "PersistentBlockDevice", real)
        code = main(argv + ["--resume"])
        err = capsys.readouterr().err
        assert code == 0
        assert "resumed from checkpoint" in err
        lines = labels_path.read_text().splitlines()
        assert len(lines) == 50
        assert {int(l.split()[1]) for l in lines} == {0}


class TestBench:
    @pytest.fixture
    def edge_path(self, tmp_path):
        path = tmp_path / "g.txt"
        write_edge_text(path, cycle_graph(80).edges)
        return path

    def test_bench_ok(self, edge_path, capsys):
        code = main(["bench", str(edge_path), "-a", "Ext-SCC-Op",
                     "-m", "400", "-b", "64"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Ext-SCC-Op: OK" in out

    def test_bench_inf_exit_code(self, edge_path, capsys):
        code = main(["bench", str(edge_path), "-a", "DFS-SCC",
                     "-m", "400", "-b", "64", "--io-budget", "10"])
        assert code == 1
        assert "INF" in capsys.readouterr().out

    def test_bench_derives_node_count(self, edge_path, capsys):
        code = main(["bench", str(edge_path), "-m", "16K"])
        assert code == 0
        assert "sccs: 1" in capsys.readouterr().out


class TestStats:
    def test_stats_output(self, tmp_path, capsys):
        path = tmp_path / "star.txt"
        write_edge_text(path, [(0, i) for i in range(1, 6)])
        code = main(["stats", str(path), "-m", "16K"])
        assert code == 0
        out = capsys.readouterr().out
        assert "edges:           5" in out
        assert "sources/sinks:   1/5" in out

    def test_stats_histogram(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_edge_text(path, cycle_graph(4).edges)
        code = main(["stats", str(path), "--histogram", "-m", "16K"])
        assert code == 0
        assert "deg     2: 4" in capsys.readouterr().out


class TestVerify:
    @pytest.fixture
    def workload(self, tmp_path):
        edge_path = tmp_path / "g.txt"
        write_edge_text(edge_path, cycle_graph(20).edges)
        labels_path = tmp_path / "labels.txt"
        assert main(["scc", str(edge_path), "-o", str(labels_path),
                     "-m", "16K"]) == 0
        return edge_path, labels_path

    def test_verify_ok(self, workload, capsys):
        edge_path, labels_path = workload
        assert main(["verify", str(edge_path), str(labels_path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_verify_detects_corruption(self, workload, tmp_path, capsys):
        edge_path, labels_path = workload
        lines = labels_path.read_text().splitlines()
        lines[3] = "3 3"  # break node 3 out of the cycle's SCC
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(edge_path), str(bad)]) == 1
        assert "MISMATCH" in capsys.readouterr().err


class TestExplain:
    def test_feasible_plan(self, capsys):
        code = main(["explain", "--nodes", "10000", "--edges", "40000",
                     "-m", "40K", "-b", "512"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Ext-SCC plan" in out
        assert "TOTAL predicted" in out

    def test_infeasible_plan_exit_code(self, capsys):
        code = main(["explain", "--nodes", "10000", "--edges", "40000",
                     "-m", "40K", "-b", "512", "--node-retention", "1.0"])
        assert code == 1
        assert "NOT FEASIBLE" in capsys.readouterr().out

    def test_no_iterations_when_fits(self, capsys):
        code = main(["explain", "--nodes", "100", "--edges", "300", "-m", "1M"])
        assert code == 0
        assert "(0 iterations)" in capsys.readouterr().out


class TestVerboseScc:
    def test_verbose_prints_iterations(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_edge_text(path, cycle_graph(60).edges)
        code = main(["scc", str(path), "-m", "300", "-b", "64", "-v"])
        assert code == 0
        assert "iteration 1:" in capsys.readouterr().err


class TestWorkerValidation:
    """``--workers 0`` used to be silently accepted (and ran serial);
    it must now be an argparse error, like any other malformed value."""

    @pytest.fixture
    def edge_path(self, tmp_path):
        path = tmp_path / "cycle.txt"
        write_edge_text(path, cycle_graph(20).edges)
        return path

    @pytest.mark.parametrize("value", ["0", "-2", "two"])
    @pytest.mark.parametrize("command", ["scc", "bench"])
    def test_bad_workers_rejected(self, edge_path, capsys, command, value):
        with pytest.raises(SystemExit) as excinfo:
            main([command, str(edge_path), "--workers", value])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["scc", "bench"])
    def test_unknown_executor_rejected(self, edge_path, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command, str(edge_path), "--executor", "fibers"])
        assert excinfo.value.code == 2
        assert "--executor" in capsys.readouterr().err

    def test_workers_one_is_fine(self, edge_path, capsys):
        assert main(["scc", str(edge_path), "-m", "16K",
                     "--workers", "1"]) == 0


class TestExplainAndTrace:
    @pytest.fixture
    def edge_path(self, tmp_path):
        path = tmp_path / "cycle.txt"
        write_edge_text(path, cycle_graph(60).edges)
        return path

    def test_explain_prints_operator_dag(self, edge_path, capsys):
        code = main(["scc", str(edge_path), "-m", "300", "-b", "64",
                     "--explain"])
        assert code == 0
        out = capsys.readouterr().out
        assert "plan contract-1" in out
        assert "pred.I/Os" in out
        assert "rewrites:" in out
        assert "Ext-SCC plan:" in out  # the analytic schedule follows

    def test_explain_semi_when_input_fits(self, edge_path, capsys):
        code = main(["scc", str(edge_path), "-m", "16K", "--explain"])
        assert code == 0
        assert "plan semi-scc" in capsys.readouterr().out

    def test_explain_runs_nothing(self, tmp_path, edge_path, capsys):
        labels = tmp_path / "labels.txt"
        code = main(["scc", str(edge_path), "-m", "300", "-b", "64",
                     "--explain", "-o", str(labels)])
        assert code == 0
        assert not labels.exists()
        assert "sccs:" not in capsys.readouterr().err

    def test_trace_json_written(self, tmp_path, edge_path, capsys):
        import json

        trace_path = tmp_path / "trace.json"
        code = main(["scc", str(edge_path), "-m", "300", "-b", "64",
                     "--trace-json", str(trace_path)])
        assert code == 0
        payload = json.loads(trace_path.read_text())
        assert payload["spans"]
        assert payload["total_measured"] > 0
        stages = {(s["plan"], s["stage"]) for s in payload["spans"]}
        assert ("semi-scc", "semi-scc") in stages
        assert "trace (" in capsys.readouterr().err


class TestAutotuneCli:
    @pytest.fixture
    def edge_path(self, tmp_path):
        path = tmp_path / "cycle.txt"
        write_edge_text(path, cycle_graph(60).edges)
        return path

    def test_autotune_run_reports_decision(self, edge_path, capsys):
        code = main(["scc", str(edge_path), "-m", "16K", "--autotune"])
        assert code == 0
        err = capsys.readouterr().err
        assert "autotune[io]:" in err
        assert "candidates" in err
        assert "sccs: 1" in err

    def test_explain_autotune_prints_candidate_table(self, edge_path, capsys):
        code = main(["scc", str(edge_path), "-m", "16K", "--explain",
                     "--autotune"])
        assert code == 0
        out = capsys.readouterr().out
        assert "rank codec" in out
        assert "pred.I/Os" in out
        assert "->" in out  # the chosen row's marker
        assert "autotune[io]=" in out  # provenance in the plan rewrites

    def test_objective_flag_threads_through(self, edge_path, capsys):
        code = main(["scc", str(edge_path), "-m", "16K", "--autotune",
                     "--objective", "wallclock"])
        assert code == 0
        assert "autotune[wallclock]:" in capsys.readouterr().err

    def test_autotune_resume_refused(self, edge_path, capsys):
        code = main(["scc", str(edge_path), "-m", "16K", "--autotune",
                     "--resume"])
        assert code == 2
        assert "--autotune" in capsys.readouterr().err

    def test_bench_autotune_only_for_ext_scc(self, edge_path, capsys):
        code = main(["bench", str(edge_path), "-a", "DFS-SCC", "-m", "16K",
                     "--autotune"])
        assert code == 2
        assert "Ext-SCC" in capsys.readouterr().err

    def test_bench_autotune_reports_decision(self, edge_path, capsys):
        code = main(["bench", str(edge_path), "-m", "16K", "--autotune"])
        assert code == 0
        out = capsys.readouterr().out
        assert "autotune[io]:" in out
        assert "candidates" in out

    def test_plan_cache_warm_hit(self, tmp_path, edge_path, capsys):
        cache_path = tmp_path / "plans.json"
        argv = ["scc", str(edge_path), "-m", "16K", "--autotune",
                "--plan-cache", str(cache_path)]
        assert main(argv) == 0
        assert "candidates in" in capsys.readouterr().err
        assert cache_path.exists()
        assert main(argv) == 0
        assert "(plan cache)" in capsys.readouterr().err

    def test_v1_plan_cache_with_processes_is_replanned(self, tmp_path,
                                                      edge_path, capsys):
        import json

        from repro.plan import PlanCache

        cache_path = tmp_path / "plans.json"
        argv = ["scc", str(edge_path), "-m", "16K", "--autotune",
                "--plan-cache", str(cache_path)]
        assert main(argv) == 0
        capsys.readouterr()
        # Rewrite the file the way a v1 cache looked: every decision also
        # lists `processes` candidates, and one of them is the chosen plan.
        payload = json.loads(cache_path.read_text())
        for entry in payload["entries"].values():
            extra = [dict(c, executor="processes")
                     for c in entry["candidates"]]
            entry["chosen"] = len(entry["candidates"])
            entry["candidates"] += extra
        payload["schema"] = 1
        cache_path.write_text(json.dumps(payload))
        assert len(PlanCache(str(cache_path))) == 0
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "candidates in" in err and "(plan cache)" not in err
        rewritten = json.loads(cache_path.read_text())
        assert rewritten["schema"] == 2
        assert all(c["executor"] != "processes"
                   for entry in rewritten["entries"].values()
                   for c in entry["candidates"])

    def test_calibration_written_and_reused(self, tmp_path, edge_path,
                                            capsys):
        cal_path = tmp_path / "calibration.json"
        argv = ["scc", str(edge_path), "-m", "16K",
                "--calibration", str(cal_path)]
        assert main(argv) == 0
        assert "calibration profile updated" in capsys.readouterr().err
        import json

        payload = json.loads(cal_path.read_text())
        assert payload["runs"] == 1
        assert main(argv) == 0
        assert json.loads(cal_path.read_text())["runs"] == 2

    def test_checkpoint_dir_gets_calibration_by_convention(
            self, tmp_path, edge_path, capsys):
        ckpt = tmp_path / "ckpt"
        code = main(["scc", str(edge_path), "-m", "300", "-b", "64",
                     "--checkpoint-dir", str(ckpt)])
        assert code == 0
        assert (ckpt / "calibration.json").exists()

    def test_trace_json_carries_plans_and_context(self, tmp_path, edge_path):
        import json

        trace_path = tmp_path / "trace.json"
        code = main(["scc", str(edge_path), "-m", "16K", "--autotune",
                     "--trace-json", str(trace_path)])
        assert code == 0
        payload = json.loads(trace_path.read_text())
        assert payload["plans"], "executed plans must be serialized"
        plan = payload["plans"][0]
        assert any("autotune[io]=" in r for r in plan["rewrites"])
        assert all("predicted_makespan" in op for op in plan["ops"])
        context = payload["context"]
        assert context["codec"] == payload["context"]["autotune"][
            "candidates"][context["autotune"]["chosen"]]["codec"]
        assert context["bytes_by_width"]
        planning = [s for s in payload["spans"] if s["phase"] == "planning"]
        assert len(planning) == 1


class TestProcessesExecutorCli:
    """``--executor`` offers ``serial`` and ``threads`` only: the removed
    ``processes`` backend is rejected as a usage error (exit 2, no
    traceback)."""

    @pytest.fixture
    def edge_path(self, tmp_path):
        path = tmp_path / "cycle.txt"
        write_edge_text(path, cycle_graph(20).edges)
        return path

    @pytest.mark.parametrize("command", ["scc", "bench"])
    def test_rejected_as_unknown_choice(self, edge_path, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command, str(edge_path), "--executor", "processes"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'processes'" in err
        assert "Traceback" not in err

    def test_verbose_scc_reports_wall_by_phase(self, edge_path, capsys):
        assert main(["scc", str(edge_path), "-m", "300", "-b", "64",
                     "-v"]) == 0
        err = capsys.readouterr().err
        assert "wall by phase:" in err
        assert "semi-scc" in err

    def test_bench_reports_wall_by_phase(self, edge_path, capsys):
        assert main(["bench", str(edge_path), "-m", "300", "-b", "64"]) == 0
        out = capsys.readouterr().out
        assert "wall:" in out
        assert "wall by phase:" in out


class TestFaultToleranceFlags:
    @pytest.fixture
    def edge_path(self, tmp_path):
        path = tmp_path / "cycle.txt"
        write_edge_text(path, cycle_graph(50).edges)
        return path

    def test_fault_policy_and_parity_run_clean(self, edge_path, capsys):
        code = main(["scc", str(edge_path), "-m", "16K", "-v",
                     "--fault-policy", "retries=5,seed=7", "--parity"])
        assert code == 0
        err = capsys.readouterr().err
        assert "health: retries=0" in err
        assert "escalations=0" in err

    def test_health_line_absent_without_fault_machinery(self, edge_path, capsys):
        assert main(["scc", str(edge_path), "-m", "16K", "-v"]) == 0
        assert "health:" not in capsys.readouterr().err

    def test_bench_accepts_fault_flags(self, edge_path, capsys):
        code = main(["bench", str(edge_path), "-m", "16K",
                     "--fault-policy", "retries=2", "--parity"])
        assert code == 0
        assert "health:" in capsys.readouterr().out

    def test_bad_fault_policy_spec_is_usage_error(self, edge_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["scc", str(edge_path), "--fault-policy", "bogus=1"])
        assert excinfo.value.code == 2
        assert "fault-policy" in capsys.readouterr().err

    def test_parity_refused_with_checkpoint_dir(self, edge_path, tmp_path, capsys):
        code = main(["scc", str(edge_path), "--parity",
                     "--checkpoint-dir", str(tmp_path / "ckpt")])
        assert code == 2
        assert "--parity" in capsys.readouterr().err

    def test_trace_json_carries_health(self, edge_path, tmp_path):
        import json

        trace_path = tmp_path / "trace.json"
        code = main(["scc", str(edge_path), "-m", "16K", "--parity",
                     "--trace-json", str(trace_path)])
        assert code == 0
        payload = json.loads(trace_path.read_text())
        assert payload["context"]["health"]["parity_writes"] > 0
        assert payload["context"]["health"]["retries"] == 0


class TestFaultExitCodes:
    """The documented exit-code contract: 5 = retries exhausted,
    4 = unrecoverable corruption, 3 = storage fault, 2 = everything else
    (including the fail-stop SimulatedCrash, unchanged since PR 3)."""

    @pytest.fixture
    def edge_path(self, tmp_path):
        path = tmp_path / "e.txt"
        write_edge_text(path, [(0, 1), (1, 0)])
        return path

    def _run_raising(self, monkeypatch, edge_path, exc):
        import repro.cli as cli

        def boom(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "compute_sccs", boom)
        return main(["scc", str(edge_path), "-m", "16K"])

    def test_retry_exhaustion_exits_5(self, edge_path, capsys, monkeypatch):
        from repro.exceptions import RetryExhaustedError, TransientIOError

        code = self._run_raising(
            monkeypatch, edge_path,
            RetryExhaustedError(4, TransientIOError("flaky read")),
        )
        assert code == 5
        err = capsys.readouterr().err
        assert "error:" in err
        assert "retries exhausted" in err and "--fault-policy" in err

    def test_corrupt_block_exits_4(self, edge_path, capsys, monkeypatch):
        from repro.exceptions import CorruptBlockError

        code = self._run_raising(
            monkeypatch, edge_path, CorruptBlockError("edges", 3)
        )
        assert code == 4
        err = capsys.readouterr().err
        assert "error:" in err and "--parity" in err

    def test_storage_error_exits_3(self, edge_path, capsys, monkeypatch):
        from repro.exceptions import StorageError

        code = self._run_raising(monkeypatch, edge_path, StorageError("no such file"))
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_repro_error_still_exits_2(self, edge_path, capsys, monkeypatch):
        from repro.exceptions import NonTermination

        code = self._run_raising(monkeypatch, edge_path, NonTermination("loop"))
        assert code == 2

    def test_real_retry_exhaustion_through_the_device(self, edge_path, capsys,
                                                      monkeypatch):
        # End-to-end: a persistent transient fault escalates out of the
        # device, through compute_sccs, to exit code 5.
        import repro.cli as cli
        from repro.core import compute_sccs as real_compute
        from repro.recovery import FaultSchedule

        def with_fault(*args, **kwargs):
            kwargs["fault_schedule"] = FaultSchedule.single(
                "transient-read", at_io=1, failures=100
            )
            return real_compute(*args, **kwargs)

        monkeypatch.setattr(cli, "compute_sccs", with_fault)
        code = main(["scc", str(edge_path), "-m", "16K",
                     "--fault-policy", "retries=2"])
        assert code == 5
        assert "retries exhausted" in capsys.readouterr().err


class TestServeAndQuery:
    EDGES = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3)]

    def build(self, tmp_path, capsys):
        edge_path = tmp_path / "edges.txt"
        write_edge_text(edge_path, self.EDGES)
        rc = main(["serve", str(tmp_path / "store"),
                   "--build", str(edge_path), "--build-only",
                   "--block-size", "64"])
        assert rc == 0
        assert "store built" in capsys.readouterr().err
        return tmp_path / "store"

    def serve(self, store_dir):
        from repro.service import LabelStore, QueryDaemon

        store = LabelStore(store_dir)
        daemon = QueryDaemon(store, epoch_seconds=0.001, owns_store=True)
        daemon.start()
        return daemon

    def test_build_only(self, tmp_path, capsys):
        store_dir = self.build(tmp_path, capsys)
        assert (store_dir / "service-meta.json").exists()

    def test_query_labels(self, tmp_path, capsys):
        daemon = self.serve(self.build(tmp_path, capsys))
        try:
            rc = main(["query", "scc-label", "0", "1", "3", "9",
                       "--port", str(daemon.address[1])])
            assert rc == 0
            out = capsys.readouterr().out
            assert "0 0" in out and "3 3" in out and "9 -" in out
        finally:
            daemon.close()

    def test_query_relations_and_stats(self, tmp_path, capsys):
        daemon = self.serve(self.build(tmp_path, capsys))
        port = str(daemon.address[1])
        try:
            assert main(["query", "same-component", "0", "2",
                         "--port", port]) == 0
            assert "same" in capsys.readouterr().out
            assert main(["query", "reachable", "0", "4", "--port", port]) == 0
            assert "reachable" in capsys.readouterr().out
            assert main(["query", "topo-order", "0", "3",
                         "--port", port]) == 0
            out = capsys.readouterr().out
            assert "layer=" in out
            assert main(["query", "server-stats", "--port", port]) == 0
            assert "physical I/O" in capsys.readouterr().out
        finally:
            daemon.close()

    def test_query_trace_json(self, tmp_path, capsys):
        import json

        daemon = self.serve(self.build(tmp_path, capsys))
        trace = tmp_path / "trace.json"
        try:
            rc = main(["query", "scc-label", "0", "--port",
                       str(daemon.address[1]), "--tenant", "acme",
                       "--trace-json", str(trace)])
            assert rc == 0
            payload = json.loads(trace.read_text())
            assert payload["session"]["tenant"] == "acme"
            assert "physical_io" in payload["server"]
        finally:
            daemon.close()

    def test_query_unknown_node_exit_2(self, tmp_path, capsys):
        daemon = self.serve(self.build(tmp_path, capsys))
        try:
            rc = main(["query", "same-component", "99", "0",
                       "--port", str(daemon.address[1])])
            assert rc == 2
            assert "not in the label store" in capsys.readouterr().err
        finally:
            daemon.close()

    def test_query_throttled_exit_2(self, tmp_path, capsys):
        daemon = self.serve(self.build(tmp_path, capsys))
        try:
            rc = main(["query", "scc-label", "0", "--port",
                       str(daemon.address[1]), "--io-budget", "0"])
            # The daemon's label cache may already hold node 0 from no
            # prior query here — cold store, so the lookup needs a read.
            assert rc == 2
            assert "budget" in capsys.readouterr().err
        finally:
            daemon.close()

    def test_query_arity_validation(self, tmp_path, capsys):
        rc = main(["query", "same-component", "1", "--port", "1"])
        assert rc == 2
        assert "exactly two" in capsys.readouterr().err
        rc = main(["query", "scc-label", "--port", "1"])
        assert rc == 2
        assert "at least one" in capsys.readouterr().err

    def test_query_connection_refused_exit_2(self, tmp_path):
        # Port 1 is never listening; OSError maps to exit 2.
        assert main(["query", "server-stats", "--port", "1"]) == 2
