"""Tests for the command-line interface."""

from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.workloads.io import read_edge_list


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_algorithm_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analytics", "--algorithm", "dijkstra"])


class TestDatasets:
    def test_lists_all_six(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("rmat_1m_10m", "hollywood_like", "kron_like"):
            assert name in out


class TestGenerate:
    def test_raw_rmat_roundtrip(self, tmp_path):
        path = tmp_path / "edges.txt"
        assert main(["generate", str(path), "--scale", "8",
                     "--edges", "500", "--seed", "3"]) == 0
        edges, _ = read_edge_list(path)
        assert edges.shape == (500, 2)
        assert edges.max() < 2**8

    def test_dataset_prefix(self, tmp_path):
        path = tmp_path / "ds.txt"
        assert main(["generate", str(path), "--dataset", "rmat_1m_10m",
                     "--edges", "300"]) == 0
        edges, _ = read_edge_list(path)
        assert edges.shape == (300, 2)


class TestLoad:
    def test_reports_all_requested_systems(self, capsys):
        assert main(["load", "--edges", "6000", "--batches", "2",
                     "--systems", "graphtinker", "stinger"]) == 0
        out = capsys.readouterr().out
        assert "graphtinker" in out and "stinger" in out
        assert "batch1" in out


class TestAnalytics:
    @pytest.mark.parametrize("algorithm", ["bfs", "sssp", "cc", "pagerank"])
    def test_every_algorithm_runs(self, capsys, algorithm):
        assert main(["analytics", "--edges", "5000",
                     "--algorithm", algorithm]) == 0
        out = capsys.readouterr().out
        assert "modeled throughput" in out
        assert "vertices with a result" in out

    def test_policies(self, capsys):
        for policy in ("hybrid", "full", "incremental"):
            assert main(["analytics", "--edges", "4000",
                         "--policy", policy]) == 0

    def test_stinger_backend(self, capsys):
        assert main(["analytics", "--edges", "4000",
                     "--system", "stinger"]) == 0


class TestProbe:
    def test_prints_both_structures(self, capsys):
        assert main(["probe", "--edges", "5000"]) == 0
        out = capsys.readouterr().out
        assert "GraphTinker" in out and "STINGER" in out


class TestFigures:
    def test_exports_csv(self, tmp_path, capsys):
        assert main(["figures", str(tmp_path), "--batches", "2"]) == 0
        files = list(tmp_path.glob("*.csv"))
        assert len(files) == 1
        assert "GT+CAL" in files[0].read_text()


class TestTrace:
    def test_prints_span_tree_and_cross_check(self, capsys):
        assert main(["trace", "--edges", "3000", "--batches", "2"]) == 0
        out = capsys.readouterr().out
        assert "trace" in out
        assert "insert_batch" in out
        assert "engine.compute" in out
        assert "span-delta cross-check" in out
        assert "WARNING" not in out

    def test_leaves_obs_disabled_afterwards(self):
        import repro.obs as obs

        assert main(["trace", "--edges", "2000", "--batches", "2"]) == 0
        assert not obs.is_enabled()

    def test_writes_exports(self, tmp_path, capsys):
        jsonl = tmp_path / "trace.jsonl"
        prom = tmp_path / "metrics.prom"
        assert main(["trace", "--edges", "2000", "--batches", "2",
                     "--jsonl", str(jsonl), "--prometheus", str(prom)]) == 0
        import repro.obs as obs

        roots = obs.trace_from_jsonl(jsonl.read_text())
        assert roots and roots[0].name == "trace"
        parsed = obs.parse_prometheus(prom.read_text())
        assert "gt_edges_inserted" in parsed

    def test_positional_dataset(self, capsys):
        assert main(["trace", "rmat_1m_10m", "--edges", "2000",
                     "--batches", "2"]) == 0


class TestServe:
    ARGS = ["--scale", "8", "--edges", "3000", "--batch-size", "200"]

    def test_clean_run(self, tmp_path, capsys):
        assert main(["serve", "--data-dir", str(tmp_path / "d"), *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert "final edges:" in out
        assert "input consumed: 3000" in out

    def test_refuses_dirty_dir_without_resume(self, tmp_path, capsys):
        d = str(tmp_path / "d")
        assert main(["serve", "--data-dir", d, *self.ARGS]) == 0
        assert main(["serve", "--data-dir", d, *self.ARGS]) == 1
        assert "pass --resume" in capsys.readouterr().err

    def test_resume_without_state_fails(self, tmp_path, capsys):
        assert main(["serve", "--data-dir", str(tmp_path / "d"),
                     "--resume", *self.ARGS]) == 1
        assert "nothing to resume" in capsys.readouterr().err

    def test_kill_recover_resume_matches_clean_run(self, tmp_path, capsys):
        clean, crashed = str(tmp_path / "clean"), str(tmp_path / "crashed")
        assert main(["serve", "--data-dir", clean, *self.ARGS]) == 0
        clean_out = capsys.readouterr().out
        final_line = next(l for l in clean_out.splitlines()
                          if l.startswith("final edges:"))

        assert main(["serve", "--data-dir", crashed,
                     "--kill-at", "30000", *self.ARGS]) == 1
        err = capsys.readouterr().err
        assert "writer crashed" in err

        assert main(["recover", "--data-dir", crashed]) == 0
        out = capsys.readouterr().out
        assert "recovered edges:" in out

        assert main(["serve", "--data-dir", crashed, "--resume",
                     *self.ARGS]) == 0
        resumed_out = capsys.readouterr().out
        assert "resumed at input offset" in resumed_out
        assert final_line in resumed_out

    def test_final_checkpoint_and_recover(self, tmp_path, capsys):
        d = str(tmp_path / "d")
        assert main(["serve", "--data-dir", d, "--final-checkpoint",
                     "--checkpoint-every", "3", *self.ARGS]) == 0
        capsys.readouterr()
        assert main(["recover", "--data-dir", d]) == 0
        out = capsys.readouterr().out
        assert "replayed records: 0" in out  # final checkpoint covers all


class TestServiceDirectoryTools:
    """``recover`` / ``fsck`` / ``blackbox`` on a directory ``serve`` left."""

    @pytest.fixture
    def data_dir(self, tmp_path, capsys):
        d = str(tmp_path / "d")
        assert main(["serve", "--data-dir", d, *TestServe.ARGS]) == 0
        capsys.readouterr()
        return d

    def test_recover_checkpoint_covers_the_log(self, data_dir, capsys):
        assert not list(Path(data_dir).glob("checkpoint-*"))
        assert main(["recover", "--data-dir", data_dir, "--checkpoint"]) == 0
        first = capsys.readouterr().out
        assert "wrote checkpoint" in first
        assert "replayed records: 0" not in first
        assert len(list(Path(data_dir).glob("checkpoint-*"))) == 1
        assert main(["recover", "--data-dir", data_dir]) == 0
        assert "replayed records: 0" in capsys.readouterr().out

    def test_fsck_repair_checkpoint_leaves_a_clean_directory(self, data_dir,
                                                             capsys):
        assert main(["fsck", "--data-dir", data_dir, "--corrupt", "3",
                     "--repair", "--checkpoint"]) == 0
        out = capsys.readouterr().out
        assert out.count("injected ") == 3
        assert "FAILED" in out
        assert "wrote repaired checkpoint" in out
        assert main(["fsck", "--data-dir", data_dir]) == 0
        after = capsys.readouterr().out
        assert "replayed 0 WAL records" in after
        assert "clean" in after and "FAILED" not in after

    def test_blackbox_list(self, tmp_path, capsys):
        from repro.obs.recorder import FlightRecorder, blackbox_path

        dump = FlightRecorder().dump(blackbox_path(tmp_path, "fatal"), "fatal")
        assert main(["blackbox", str(tmp_path), "--list"]) == 0
        assert capsys.readouterr().out.split() == [str(dump)]


class TestExitCodes:
    def test_success_is_zero(self, capsys):
        assert main(["datasets"]) == 0

    def test_domain_error_is_one(self, tmp_path, capsys):
        assert main(["recover", "--data-dir", str(tmp_path / "missing")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "no such service directory" in err

    def test_usage_error_is_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_arg_is_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["serve"])  # --data-dir is required
        assert exc.value.code == 2

    def test_bad_choice_is_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["analytics", "--algorithm", "dijkstra"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["report", "--baseline", "a.json", "--current", "b.json"],
        ["loadgen", "--port", "1", "--no-record"],
        ["serve-net", "--view-patch-rows", "1"],
        ["serve-replica", "--upstream-port", "1", "--no-digest-check"],
    ])
    def test_removed_surface_is_two(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


class TestLogLevel:
    @pytest.mark.parametrize("argv", [
        ["datasets"],
        ["load", "--edges", "2000", "--batches", "2",
         "--systems", "graphtinker"],
        ["analytics", "--edges", "2000"],
        ["probe", "--edges", "2000"],
        ["trace", "--edges", "2000", "--batches", "2"],
    ])
    def test_every_subcommand_accepts_log_level(self, capsys, argv):
        assert main([argv[0], "--log-level", "info", *argv[1:]]) == 0

    def test_generate_accepts_log_level(self, tmp_path):
        assert main(["generate", str(tmp_path / "e.txt"), "--scale", "8",
                     "--edges", "100", "--log-level", "debug"]) == 0

    def test_rejects_unknown_level(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["datasets", "--log-level", "loud"])

    def test_info_level_logs_to_stderr(self, capsys):
        assert main(["load", "--edges", "2000", "--batches", "2",
                     "--systems", "graphtinker", "--log-level", "info"]) == 0
        err = capsys.readouterr().err
        assert "insertion run finished" in err
        assert "repro.cli" in err
