"""The bench-micro lane: report schema, determinism of shape, and the
regression gate's exit-code contract."""

import json
import subprocess
import sys
import os

import pytest

from repro.bench.micro import (
    BENCH_MODELS,
    FORMAT,
    FORMAT_VERSION,
    SPEEDUP_GATE_METRIC,
    check_report,
    load_report,
    write_report,
)

_REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src"
)


def _fake_report(**metric_overrides):
    metrics = {"policy.updates_per_sec": 2.0, "service.placements_per_sec": 500.0}
    for model in BENCH_MODELS:
        metrics[f"sim.serial.{model}.placements_per_sec"] = 100.0
        metrics[f"sim.batch64.{model}.placements_per_sec"] = 400.0
        metrics[f"sim.speedup.{model}"] = 4.0
    metrics.update(metric_overrides)
    return {
        "format": FORMAT,
        "format_version": FORMAT_VERSION,
        "config": {"batch": 64, "repeats": 3, "seed": 0},
        "metrics": metrics,
        "summary": [],
    }


class TestReportSchema:
    def test_committed_baseline_is_valid_and_current(self):
        """BENCH_micro.json at the repo root loads under today's schema and
        carries every lane the bench emits."""
        root = os.path.dirname(_REPO_SRC)
        report = load_report(os.path.join(root, "BENCH_micro.json"))
        assert report["format_version"] == FORMAT_VERSION
        metrics = report["metrics"]
        assert SPEEDUP_GATE_METRIC in metrics
        for model in BENCH_MODELS:
            assert f"sim.serial.{model}.placements_per_sec" in metrics
            assert f"sim.speedup.{model}" in metrics
        assert "policy.updates_per_sec" in metrics
        assert "service.placements_per_sec" in metrics
        assert "setup.pretrain_ms" in metrics

    def test_write_is_sorted_and_stable(self, tmp_path):
        """Sorted keys + trailing newline: PR-to-PR diffs stay line-meaningful."""
        path = tmp_path / "r.json"
        write_report(_fake_report(), str(path))
        text = path.read_text()
        assert text.endswith("\n")
        keys = list(json.loads(text)["metrics"])
        assert keys == sorted(keys)
        write_report(_fake_report(), str(tmp_path / "r2.json"))
        assert text == (tmp_path / "r2.json").read_text()

    def test_load_rejects_wrong_format_and_version(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": "something.else"}))
        with pytest.raises(ValueError, match="not a repro.bench.micro"):
            load_report(str(bad))
        stale = _fake_report()
        stale["format_version"] = FORMAT_VERSION + 1
        versioned = tmp_path / "stale.json"
        versioned.write_text(json.dumps(stale))
        with pytest.raises(ValueError, match="format_version"):
            load_report(str(versioned))


class TestRegressionGate:
    def test_clean_run_passes(self, tmp_path):
        base = tmp_path / "base.json"
        write_report(_fake_report(), str(base))
        assert check_report(_fake_report(), baseline_path=str(base)) == []

    def test_regressed_metric_fails(self, tmp_path):
        base = tmp_path / "base.json"
        write_report(_fake_report(), str(base))
        slow = _fake_report(**{"policy.updates_per_sec": 0.5})
        failures = check_report(slow, baseline_path=str(base), tolerance=0.5)
        assert len(failures) == 1
        assert "policy.updates_per_sec regressed" in failures[0]

    def test_tolerance_absorbs_machine_jitter(self, tmp_path):
        base = tmp_path / "base.json"
        write_report(_fake_report(), str(base))
        jittery = _fake_report(**{"policy.updates_per_sec": 1.1})
        assert check_report(jittery, baseline_path=str(base), tolerance=0.5) == []

    def test_schema_evolution_skips_one_sided_metrics(self, tmp_path):
        base = tmp_path / "base.json"
        old = _fake_report(**{"retired.lane": 1000.0})
        write_report(old, str(base))
        new = _fake_report(**{"added.lane": 1.0})
        assert check_report(new, baseline_path=str(base)) == []

    def test_latency_improvement_passes(self, tmp_path):
        """``*_ms`` lanes are lower-is-better: halving a latency is a win."""
        base = tmp_path / "base.json"
        write_report(_fake_report(**{"loadgen.latency_p50_ms": 40.0}), str(base))
        faster = _fake_report(**{"loadgen.latency_p50_ms": 4.0})
        assert check_report(faster, baseline_path=str(base), tolerance=0.5) == []

    def test_latency_regression_fails(self, tmp_path):
        base = tmp_path / "base.json"
        write_report(_fake_report(**{"loadgen.latency_p50_ms": 40.0}), str(base))
        slower = _fake_report(**{"loadgen.latency_p50_ms": 90.0})
        failures = check_report(slower, baseline_path=str(base), tolerance=0.5)
        assert len(failures) == 1
        assert "loadgen.latency_p50_ms regressed" in failures[0]
        # Within the mirrored bound (baseline / (1 - tolerance) = 80 ms).
        jittery = _fake_report(**{"loadgen.latency_p50_ms": 79.0})
        assert check_report(jittery, baseline_path=str(base), tolerance=0.5) == []

    def test_min_speedup_gate(self):
        assert check_report(_fake_report(), min_speedup=3.0) == []
        failures = check_report(
            _fake_report(**{SPEEDUP_GATE_METRIC: 1.5}), min_speedup=3.0
        )
        assert len(failures) == 1 and "below the required" in failures[0]

    def test_missing_gate_metric_fails(self):
        report = _fake_report()
        del report["metrics"][SPEEDUP_GATE_METRIC]
        assert check_report(report, min_speedup=3.0) != []


@pytest.mark.slow
class TestCliExitCodes:
    """`repro bench-micro` exits nonzero on regression — the CI contract."""

    def _run(self, args, cwd):
        env = dict(os.environ)
        env["PYTHONPATH"] = _REPO_SRC
        return subprocess.run(
            [sys.executable, "-m", "repro", "bench-micro",
             "--batch", "8", "--repeats", "1", *args],
            cwd=cwd, env=env, capture_output=True, text=True,
        )

    def test_bench_writes_report_and_gates(self, tmp_path):
        ok = self._run(["--out", "out.json"], cwd=tmp_path)
        assert ok.returncode == 0, ok.stderr
        report = load_report(str(tmp_path / "out.json"))
        assert SPEEDUP_GATE_METRIC in report["metrics"]

        # An impossible baseline must flip the exit code to 1.
        impossible = {
            name: value * 1e9 for name, value in report["metrics"].items()
        }
        report["metrics"] = impossible
        write_report(report, str(tmp_path / "impossible.json"))
        bad = self._run(
            ["--out", "out2.json", "--baseline", "impossible.json",
             "--tolerance", "0.5"],
            cwd=tmp_path,
        )
        assert bad.returncode == 1
        assert "regressed" in bad.stdout + bad.stderr


class TestServiceLane:
    def test_service_lane_times_a_real_sweep(self, monkeypatch):
        """The service lane's batch of 64 fresh placements reaches
        SWEEP_MIN_LANES, so the server sweeps every one of them instead of
        falling back to one scalar pool task per placement."""
        from repro.bench.micro import _bench_service
        from repro.service.server import MeasurementServer

        lanes = []
        close = MeasurementServer.close

        def recording_close(server):
            lanes.append(server.stats()["batch_lanes"])
            close(server)

        monkeypatch.setattr(MeasurementServer, "close", recording_close)
        batch = 64
        metrics = _bench_service(batch, repeats=1, seed=0)
        assert metrics["service.placements_per_sec"] > 0
        assert lanes[0] == float(batch)
