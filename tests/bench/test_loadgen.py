"""Loadgen harness: fleet lifecycle, report schema, the correctness gate,
and BENCH publication.  A small real fleet run keeps this in the fast lane
(tiny graphs, few searches); CI's fleet-loadgen lane runs the full scale."""

import json

import pytest

from repro.bench.loadgen import (
    FORMAT,
    FORMAT_VERSION,
    LocalFleet,
    check_fleet,
    make_chaos_resize,
    make_tenant_specs,
    publish_to_bench,
    run_loadgen,
)
from repro.bench.micro import check_report, load_report


def _small_run(fleet, *, tenants=3, searches=6, rounds=2):
    specs = make_tenant_specs(tenants)
    report = run_loadgen(
        fleet.address, specs,
        searches=searches, samples=4, batch=2, rounds=rounds,
        seed=0, timeout=30.0,
    )
    return specs, report


class TestMakeTenantSpecs:
    def test_fingerprints_are_distinct(self):
        specs = make_tenant_specs(4)
        assert len({s.fingerprint for s in specs}) == 4

    def test_count_validated(self):
        with pytest.raises(ValueError):
            make_tenant_specs(0)


class TestLoadgenRun:
    def test_mixed_tenant_run_is_clean_and_duplicate_free(self):
        with LocalFleet(servers=2, workers=2) as fleet:
            specs, report = _small_run(fleet)
            assert report["format"] == FORMAT
            assert report["format_version"] == FORMAT_VERSION
            assert report["metrics"]["loadgen.errors"] == 0.0
            assert report["metrics"]["loadgen.throughput_placements_per_sec"] > 0
            assert report["metrics"]["loadgen.tenants"] == 3.0
            # latency lanes per population: round 1 misses, round 2 hits
            assert report["metrics"]["loadgen.miss_latency_p50_ms"] > 0
            assert report["metrics"]["loadgen.hit_latency_p50_ms"] > 0
            assert not any("loadgen.latency_" in name for name in report["metrics"])
            assert len(report["tenant_fingerprints"]) == 3
            failures = check_fleet(report, fleet.space_stats())
            assert failures == []
            # routing spread: the router touched at least one backend and
            # every tenant is resident somewhere in the fleet
            hosted = set(fleet.space_stats())
            assert {s.fingerprint for s in specs} <= hosted

    def test_single_round_skips_memo_expectation(self):
        with LocalFleet(servers=1, workers=2) as fleet:
            _, report = _small_run(fleet, tenants=2, searches=2, rounds=1)
            failures = check_fleet(
                report, fleet.space_stats(), expect_memo_hits=False
            )
            assert failures == []
            assert report["metrics"]["loadgen.hit_latency_p50_ms"] == 0.0

    def test_report_is_strict_json(self):
        with LocalFleet(servers=1, workers=2) as fleet:
            _, report = _small_run(fleet, tenants=2, searches=2)
        assert json.loads(json.dumps(report, allow_nan=False)) == report

    def test_specs_required(self):
        with pytest.raises(ValueError):
            run_loadgen("127.0.0.1:1", [], searches=1)
        with pytest.raises(ValueError):
            run_loadgen("127.0.0.1:1", make_tenant_specs(1), searches=0)

    def test_chaos_fraction_validated(self):
        with pytest.raises(ValueError):
            run_loadgen(
                "127.0.0.1:1", make_tenant_specs(1), searches=1,
                chaos=lambda: None, chaos_at_fraction=1.0,
            )


class TestChaosResize:
    def test_kill_and_replace_mid_run_stays_clean(self, tmp_path):
        """The acceptance scenario at fast-lane scale: kill a backend
        mid-run, remove it from the ring, join a replacement — zero
        client-visible errors, zero duplicate simulations, failover
        latency lanes published."""
        with LocalFleet(
            servers=3, workers=2,
            spaces_dir=str(tmp_path / "spaces"), shared_spaces=True,
        ) as fleet:
            specs = make_tenant_specs(3)
            chaos = make_chaos_resize(fleet, fingerprint=specs[0].fingerprint)
            report = run_loadgen(
                fleet.address, specs,
                searches=8, samples=4, batch=2, rounds=2,
                seed=0, timeout=30.0,
                chaos=chaos, chaos_at_fraction=0.25,
            )
            assert report["metrics"]["loadgen.errors"] == 0.0
            info = report["chaos"]
            assert info is not None and info["victim"] != info["replacement"]
            assert len(fleet.dead) == 1
            assert fleet.dead[0].address == info["victim"]
            assert "loadgen.failover_p99_ms" in report["metrics"]
            assert report["metrics"]["loadgen.failover_rpcs"] >= 0.0
            failures = check_fleet(report, fleet.space_stats())
            assert failures == []

    def test_shared_spaces_requires_spaces_dir(self):
        with pytest.raises(ValueError, match="spaces_dir"):
            LocalFleet(servers=2, workers=2, shared_spaces=True)

    def test_kill_server_unknown_address(self, tmp_path):
        with LocalFleet(servers=1, workers=1) as fleet:
            with pytest.raises(ValueError, match="no fleet server"):
                fleet.kill_server("127.0.0.1:1")


class TestCheckFleet:
    def _report(self):
        return {
            "metrics": {"loadgen.errors": 0.0},
            "errors": [],
            "tenant_fingerprints": ["f" * 64],
            "per_tenant": {"f" * 64: {"unique_placements": 4.0}},
        }

    def test_duplicate_simulations_flagged(self):
        stats = {"f" * 64: {"simulations": 6.0, "memo_hits": 2.0}}
        failures = check_fleet(self._report(), stats)
        assert any("duplicates" in f for f in failures)

    def test_unhosted_tenant_flagged(self):
        failures = check_fleet(self._report(), {})
        assert any("hosted by no server" in f for f in failures)

    def test_missing_memo_hits_flagged_only_when_expected(self):
        stats = {"f" * 64: {"simulations": 4.0, "memo_hits": 0.0}}
        assert any("memo" in f for f in check_fleet(self._report(), stats))
        assert check_fleet(self._report(), stats, expect_memo_hits=False) == []

    def test_search_errors_flagged(self):
        report = self._report()
        report["metrics"]["loadgen.errors"] = 2.0
        report["errors"] = ["evaluate: boom", "connect: nope"]
        stats = {"f" * 64: {"simulations": 4.0, "memo_hits": 1.0}}
        failures = check_fleet(report, stats)
        assert any("search errors" in f for f in failures)


class TestPublishToBench:
    def _report(self):
        return {
            "metrics": {
                "loadgen.throughput_placements_per_sec": 123.0,
                "loadgen.errors": 0.0,
            },
            "config": {"searches": 4, "tenants": 2},
        }

    def test_fresh_file_gets_micro_skeleton(self, tmp_path):
        path = str(tmp_path / "BENCH_micro.json")
        merged = publish_to_bench(self._report(), path)
        assert merged["metrics"]["loadgen.throughput_placements_per_sec"] == 123.0
        assert load_report(path) == merged
        assert merged["config"]["loadgen"]["searches"] == 4

    def test_existing_metrics_survive_the_merge(self, tmp_path):
        path = str(tmp_path / "BENCH_micro.json")
        publish_to_bench(self._report(), path)
        second = {
            "metrics": {"loadgen.hit_latency_p50_ms": 9.0},
            "config": {"searches": 8},
        }
        merged = publish_to_bench(second, path)
        assert merged["metrics"]["loadgen.throughput_placements_per_sec"] == 123.0
        assert merged["metrics"]["loadgen.hit_latency_p50_ms"] == 9.0

    def test_micro_gate_skips_one_sided_loadgen_lanes(self, tmp_path):
        # a baseline without loadgen.* metrics: publishing them must not
        # trip the regression gate (one-sided metrics are skipped)
        path = str(tmp_path / "BENCH_micro.json")
        merged = publish_to_bench(self._report(), path)
        baseline_path = str(tmp_path / "baseline.json")
        baseline = dict(merged, metrics={})
        with open(baseline_path, "w") as fh:
            json.dump(baseline, fh)
        failures = check_report(merged, baseline_path=baseline_path)
        assert failures == []
