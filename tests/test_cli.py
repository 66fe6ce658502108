"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_info_defaults(self):
        args = build_parser().parse_args(["info"])
        assert args.model == "inception_v3" and args.gpus == 4

    def test_place_options(self):
        args = build_parser().parse_args(
            ["place", "--model", "gnmt", "--agent", "post", "--samples", "10"]
        )
        assert args.agent == "post" and args.samples == 10


class TestCommands:
    def test_info_runs(self, capsys):
        assert main(["info", "--model", "inception_v3"]) == 0
        out = capsys.readouterr().out
        assert "inception" in out and "environment:" in out

    def test_eval_single_gpu_inception(self, capsys):
        assert main(["eval", "--model", "inception_v3", "--placement", "single_gpu"]) == 0
        assert "ms/step" in capsys.readouterr().out

    def test_eval_oom_reports_failure(self, capsys):
        assert main(["eval", "--model", "gnmt", "--placement", "single_gpu"]) == 1
        assert "OOM" in capsys.readouterr().out

    def test_gantt_renders(self, capsys):
        assert main(["gantt", "--model", "inception_v3", "--width", "30"]) == 0
        out = capsys.readouterr().out
        assert "/gpu:0" in out and "step time" in out

    def test_place_writes_checkpoint(self, tmp_path, capsys):
        ckpt = str(tmp_path / "out.npz")
        rc = main(
            [
                "place", "--model", "inception_v3", "--agent", "post",
                "--samples", "10", "--groups", "8", "--checkpoint", ckpt,
            ]
        )
        assert rc == 0
        from repro.core.checkpoint import load_checkpoint

        data = load_checkpoint(ckpt)
        assert data["meta"]["num_samples"] == 10
        assert np.isfinite(data["meta"]["best_time"])

    def test_custom_topology_args(self, capsys):
        assert main(["eval", "--model", "inception_v3", "--gpus", "2", "--gpu-mem", "4"]) == 0

    def test_place_with_fault_injection(self, capsys):
        rc = main(
            [
                "place", "--model", "inception_v3", "--agent", "post",
                "--samples", "10", "--groups", "8",
                "--fault-rate", "0.3", "--straggler-rate", "0.3",
                "--corruption-rate", "0.3", "--max-retries", "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "faults:" in out and "quarantined" in out


class TestErrorPaths:
    """Bad flag values exit non-zero with a one-line message, not a traceback."""

    def _expect_usage_error(self, capsys, argv, fragment):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert fragment in err
        assert "Traceback" not in err

    def test_workers_zero_rejected(self, capsys):
        self._expect_usage_error(
            capsys, ["place", "--workers", "0"], "must be >= 1"
        )

    def test_fault_rate_above_one_rejected(self, capsys):
        self._expect_usage_error(
            capsys, ["place", "--fault-rate", "1.5"], "must be a rate in [0, 1]"
        )

    def test_negative_max_retries_rejected(self, capsys):
        self._expect_usage_error(
            capsys, ["place", "--max-retries", "-1"], "must be >= 0"
        )

    def test_non_numeric_rate_rejected(self, capsys):
        self._expect_usage_error(
            capsys, ["place", "--straggler-rate", "lots"], "expected a number"
        )

    def test_error_names_the_offending_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["place", "--corruption-rate", "2"])
        assert "--corruption-rate" in capsys.readouterr().err


class TestServiceCli:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 7077 and args.service_workers == 4

    def test_place_remote_parser(self):
        args = build_parser().parse_args(["place", "--remote", "10.0.0.1:7077"])
        assert args.remote == "10.0.0.1:7077" and args.remote_timeout == 30.0

    def test_memo_path_roundtrip(self, tmp_path, capsys):
        path = str(tmp_path / "memo.json")
        argv = [
            "place", "--model", "inception_v3", "--agent", "post",
            "--samples", "8", "--groups", "4", "--memo-path", path,
        ]
        assert main(argv) == 0
        assert "raw outcomes saved to" in capsys.readouterr().out
        assert main(argv) == 0  # second run warm-starts from the file
        assert "raw outcomes loaded from" in capsys.readouterr().out

    def test_memo_path_roundtrip_under_fault_injection(self, tmp_path, capsys):
        """A fault plan wraps the memo backend; --memo-path must still reach it."""
        path = tmp_path / "memo.json"
        argv = [
            "place", "--model", "inception_v3", "--agent", "post",
            "--samples", "8", "--groups", "4", "--fault-rate", "0.1",
            "--memo-path", str(path),
        ]
        assert main(argv) == 0
        assert "raw outcomes saved to" in capsys.readouterr().out
        assert path.exists()
        assert main(argv) == 0
        assert "raw outcomes loaded from" in capsys.readouterr().out

    def test_memo_path_needs_cached_backend(self, capsys):
        assert main(["place", "--memo-path", "x.json", "--no-cache"]) == 2
        assert "--memo-path" in capsys.readouterr().err

    def test_metrics_stream(self, tmp_path, capsys):
        import json

        path = tmp_path / "events.jsonl"
        rc = main([
            "place", "--model", "inception_v3", "--agent", "post",
            "--samples", "8", "--groups", "4", "--metrics", str(path),
        ])
        assert rc == 0
        assert "metrics: events streamed" in capsys.readouterr().out
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert events[0]["event"] == "search_start"
        assert events[-1]["event"] == "search_end"

    def test_place_remote_end_to_end(self, capsys):
        from repro.cli import _make_env
        from repro.service import MeasurementServer

        serve_args = build_parser().parse_args(["serve", "--model", "inception_v3"])
        _, env = _make_env(serve_args)
        with MeasurementServer(env, port=0, workers=2) as server:
            server.start()
            rc = main([
                "place", "--model", "inception_v3", "--agent", "post",
                "--samples", "8", "--groups", "4", "--remote", server.address,
            ])
            assert rc == 0
        out = capsys.readouterr().out
        assert "best placement:" in out
        assert "remote cache:" in out and "on the server" in out
