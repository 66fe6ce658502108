"""JSON report schema, CLI exit codes, and the acceptance fixtures.

The four acceptance fixtures (wall-clock in sim code, unseeded
np.random.normal, drifted on_measurement override, unknown protocol
field) must each produce exactly the expected rule id in both the text
and the JSON output of ``repro lint``.
"""

import json

import pytest

from repro import cli
from repro.analysis import (
    JSON_REPORT_VERSION,
    ContractIndex,
    fix_paths,
    lint_paths,
    lint_source,
    render_json,
    render_text,
    to_report_dict,
)
from repro.analysis.linter import LintResult


@pytest.fixture(scope="module")
def contracts():
    return ContractIndex.load()


def write_fixture(tmp_path, relpath, source):
    """Materialise a snippet at a repro-shaped path under a tmp dir."""
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


class TestJsonReport:
    def test_report_shape(self, contracts):
        findings = lint_source(
            "import time\n\ndef f():\n    return time.time()\n",
            "src/repro/sim/bad.py",
            contracts,
        )
        report = to_report_dict(LintResult(findings, 1))
        assert report["version"] == JSON_REPORT_VERSION
        assert report["files_scanned"] == 1
        assert report["summary"] == {"errors": 1, "warnings": 0}
        # v2 schema: every run reports a fixes_applied block (all-zero
        # outside --fix) and every finding carries a "fixable" flag.
        assert report["fixes_applied"] == {
            "files_changed": 0, "total": 0, "by_fix": {},
        }
        (entry,) = report["findings"]
        assert set(entry) == {
            "path", "line", "col", "rule", "severity", "message", "fixable",
        }
        assert entry["rule"] == "wall-clock"
        assert entry["severity"] == "error"
        assert entry["line"] == 4
        assert entry["fixable"] is False  # wall-clock has no mechanical rewrite

    def test_fixable_finding_carries_fix_payload(self, contracts):
        findings = lint_source(
            "def f(x=[]):\n    x.append(1)\n    return x\n",
            "src/repro/sim/bad.py",
            contracts,
        )
        report = to_report_dict(LintResult(findings, 1))
        (entry,) = report["findings"]
        assert entry["rule"] == "mutable-default"
        assert entry["fixable"] is True
        assert entry["fix"]["id"] == "mutable-default-none"
        edits = entry["fix"]["edits"]
        assert edits and all(
            set(e) == {"start", "end", "replacement"} for e in edits
        )

    def test_render_json_round_trips(self, contracts):
        result = LintResult([], 3)
        parsed = json.loads(render_json(result))
        assert parsed["summary"] == {"errors": 0, "warnings": 0}
        assert parsed["findings"] == []

    def test_text_render_format(self, contracts):
        findings = lint_source(
            "import time\n\ndef f():\n    return time.time()\n",
            "src/repro/sim/bad.py",
            contracts,
        )
        text = render_text(LintResult(findings, 1))
        assert "src/repro/sim/bad.py:4:" in text
        assert "error[wall-clock]" in text
        assert "1 error(s), 0 warning(s) in 1 file" in text


class TestCliExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        write_fixture(tmp_path, "src/repro/sim/good.py", "def f(rng):\n    return rng.normal()\n")
        assert cli.main(["lint", str(tmp_path)]) == 0
        assert "clean: 0 findings" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        write_fixture(
            tmp_path, "src/repro/sim/bad.py",
            "import time\n\ndef f():\n    return time.time()\n",
        )
        assert cli.main(["lint", str(tmp_path)]) == 1
        assert "error[wall-clock]" in capsys.readouterr().out

    def test_fail_on_error_ignores_warnings(self, tmp_path, capsys):
        write_fixture(
            tmp_path, "src/repro/sim/warn.py",
            "def f():\n    s = {1, 2}\n    return list(s)\n",
        )
        assert cli.main(["lint", "--fail-on", "error", str(tmp_path)]) == 0
        assert cli.main(["lint", str(tmp_path)]) == 1  # default: warnings fail too
        assert "warning[set-iteration]" in capsys.readouterr().out

    def test_no_files_is_usage_error(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert cli.main(["lint", str(empty)]) == 2
        assert "no Python files" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert cli.main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("wall-clock", "unseeded-rng", "set-iteration",
                        "callback-signature", "backend-protocol", "protocol-schema",
                        "mutable-default", "layer-import",
                        "pragma-reason", "pragma-unknown-rule", "pragma-unused"):
            assert rule_id in out

    def test_syntax_error_is_reported_not_raised(self, tmp_path, capsys):
        write_fixture(tmp_path, "src/repro/sim/broken.py", "def f(:\n")
        assert cli.main(["lint", str(tmp_path)]) == 1
        assert "syntax-error" in capsys.readouterr().out

    def test_lint_writes_nothing(self, tmp_path, monkeypatch, capsys):
        tree = tmp_path / "tree"
        write_fixture(
            tree, "src/repro/sim/bad.py",
            "import time\n\ndef f():\n    return time.time()\n",
        )
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        assert cli.main(["lint", str(tree)]) == 1
        assert sorted(tmp_path.rglob("*")) == before
        assert "error[wall-clock]" in capsys.readouterr().out

    def test_no_cache_flag_is_unknown(self, tmp_path, capsys):
        write_fixture(tmp_path, "src/repro/sim/good.py", "VALUE = 3\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["lint", "--no-cache", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --no-cache" in capsys.readouterr().err


class TestUnreadableFile:
    @pytest.mark.parametrize("entry", ["lint_paths", "fix_paths"])
    def test_is_a_syntax_error(self, tmp_path, contracts, entry):
        write_fixture(
            tmp_path, "src/repro/sim/good.py", "def f(rng):\n    return rng.normal()\n"
        )
        bad = tmp_path / "src" / "repro" / "sim" / "bad.py"
        bad.write_bytes(b"\xff\xfe junk \xff")
        if entry == "lint_paths":
            result = lint_paths([str(tmp_path)], contracts)
        else:
            result = fix_paths([str(tmp_path)], contracts).result
        assert result.files_scanned == 2
        (finding,) = result.findings
        assert (finding.path, finding.rule_id) == (str(bad), "syntax-error")
        assert finding.message.startswith("cannot read file:")


ACCEPTANCE_FIXTURES = [
    (
        "wall-clock",
        "src/repro/sim/fixture_clock.py",
        "import time\n\ndef charge(env):\n    env.t0 = time.time()\n",
    ),
    (
        "unseeded-rng",
        "src/repro/sim/fixture_rng.py",
        "import numpy as np\n\ndef noise():\n    return np.random.normal(0.0, 1e-3)\n",
    ),
    (
        "callback-signature",
        "src/repro/core/fixture_callback.py",
        "from repro.core import SearchCallback\n\n"
        "class Drifted(SearchCallback):\n"
        "    def on_measurement(self, engine, sample):\n"
        "        pass\n",
    ),
    (
        "protocol-schema",
        "src/repro/service/fixture_proto.py",
        'def request(p):\n    return {"op": "evaluate_batch", "placements": p, "priority": 3}\n',
    ),
]


class TestAcceptanceFixtures:
    @pytest.mark.parametrize("expected_rule,relpath,source",
                             ACCEPTANCE_FIXTURES,
                             ids=[f[0] for f in ACCEPTANCE_FIXTURES])
    def test_text_output_names_exactly_the_rule(
        self, tmp_path, capsys, expected_rule, relpath, source
    ):
        write_fixture(tmp_path, relpath, source)
        assert cli.main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if ": error[" in line or ": warning[" in line]
        assert len(lines) == 1
        assert f"[{expected_rule}]" in lines[0]

    @pytest.mark.parametrize("expected_rule,relpath,source",
                             ACCEPTANCE_FIXTURES,
                             ids=[f[0] for f in ACCEPTANCE_FIXTURES])
    def test_json_output_names_exactly_the_rule(
        self, tmp_path, capsys, expected_rule, relpath, source
    ):
        write_fixture(tmp_path, relpath, source)
        assert cli.main(["lint", "--format", "json", str(tmp_path)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert [f["rule"] for f in report["findings"]] == [expected_rule]
        assert report["summary"]["errors"] == 1

    def test_fixtures_fixed_lint_clean(self, tmp_path, capsys):
        """The corrected versions of all four fixtures pass."""
        write_fixture(
            tmp_path, "src/repro/sim/fixture_clock.py",
            "def charge(env):\n    env.t0 = env.env_time\n",
        )
        write_fixture(
            tmp_path, "src/repro/sim/fixture_rng.py",
            "def noise(rng):\n    return rng.normal(0.0, 1e-3)\n",
        )
        write_fixture(
            tmp_path, "src/repro/core/fixture_callback.py",
            "from repro.core import SearchCallback\n\n"
            "class Fixed(SearchCallback):\n"
            "    def on_measurement(self, engine, sample, measurement):\n"
            "        pass\n",
        )
        write_fixture(
            tmp_path, "src/repro/service/fixture_proto.py",
            'def request(p):\n    return {"op": "evaluate_batch", "placements": p}\n',
        )
        assert cli.main(["lint", str(tmp_path)]) == 0


class TestDeterministicOutput:
    def test_findings_sorted(self, tmp_path):
        write_fixture(
            tmp_path, "src/repro/sim/b.py",
            "import time\n\ndef f():\n    return time.time()\n",
        )
        write_fixture(
            tmp_path, "src/repro/sim/a.py",
            "import time\n\ndef f():\n    return time.time()\n",
        )
        result = lint_paths([str(tmp_path)])
        paths = [f.path for f in result.findings]
        assert paths == sorted(paths)
        # Two identical runs must render identically.
        again = lint_paths([str(tmp_path)])
        assert [f.render() for f in again.findings] == [
            f.render() for f in result.findings
        ]
