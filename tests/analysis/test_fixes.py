"""Fixer round-trips: apply → clean, apply twice → byte-identical.

Every mechanical fixer gets the same three-part contract check: applying
the fix leaves zero findings for its rule, a second fix pass changes
nothing (idempotency), and a pragma-suppressed finding is never
rewritten.  The fix engine itself is exercised on overlap handling,
bottom-up application and multi-pass convergence.
"""

import pytest

from repro import cli
from repro.analysis import ContractIndex, Finding, Fix, TextEdit, apply_fixes
from repro.analysis.linter import fix_paths, fix_source, write_fix_run


@pytest.fixture(scope="module")
def contracts():
    return ContractIndex.load()


def write_fixture(tmp_path, relpath, source):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


def roundtrip(source, path, contracts):
    """fix → assert clean for the fixed rules → fix again → identical."""
    fixed, applied, remaining = fix_source(source, path, contracts)
    assert applied, "expected at least one fix to apply"
    fixed_rules = {f.rule_id for f in applied}
    assert not [f for f in remaining if f.rule_id in fixed_rules]
    again, applied2, _ = fix_source(fixed, path, contracts)
    assert applied2 == []
    assert again == fixed
    return fixed, applied


class TestSetIterationFixer:
    def test_for_loop_wrapped_in_sorted(self, contracts):
        fixed, applied = roundtrip(
            "def f(edges):\n"
            "    total = 0.0\n"
            "    items = {e for e in edges}\n"
            "    for e in items:\n"
            "        total += e\n"
            "    return total\n",
            "src/repro/sim/fx.py",
            contracts,
        )
        assert "for e in sorted(items):" in fixed
        assert applied[0].fix.fix_id == "set-iteration-sorted"

    def test_sink_arg_wrapped(self, contracts):
        fixed, _ = roundtrip(
            "def f():\n"
            "    items = {1, 2}\n"
            "    return list(items)\n",
            "src/repro/sim/fx.py",
            contracts,
        )
        assert "list(sorted(items))" in fixed

    def test_comprehension_generator_wrapped(self, contracts):
        fixed, _ = roundtrip(
            "def f(xs):\n"
            "    s = set(xs)\n"
            "    return [x + 1 for x in s]\n",
            "src/repro/sim/fx.py",
            contracts,
        )
        assert "for x in sorted(s)]" in fixed


class TestMutableDefaultFixer:
    def test_none_sentinel_and_guard(self, contracts):
        fixed, applied = roundtrip(
            "def accumulate(x, acc=[]):\n"
            "    acc.append(x)\n"
            "    return acc\n",
            "src/repro/sim/fx.py",
            contracts,
        )
        assert "def accumulate(x, acc=None):" in fixed
        assert "    if acc is None:\n        acc = []\n" in fixed
        assert applied[0].fix.fix_id == "mutable-default-none"

    def test_guard_lands_after_docstring(self, contracts):
        fixed, _ = roundtrip(
            'def f(acc={}):\n'
            '    """Doc."""\n'
            "    return acc\n",
            "src/repro/sim/fx.py",
            contracts,
        )
        assert fixed.index('"""Doc."""') < fixed.index("if acc is None:")

    def test_kwonly_default_fixed(self, contracts):
        fixed, _ = roundtrip(
            "def f(*, acc=[]):\n"
            "    return acc\n",
            "src/repro/sim/fx.py",
            contracts,
        )
        assert "def f(*, acc=None):" in fixed

    def test_two_defaults_converge_across_passes(self, contracts):
        # Both guards anchor at the same body line: the second fix is
        # overlap-deferred to pass 2 and still lands.
        fixed, applied = roundtrip(
            "def f(a=[], b={}):\n"
            "    return a, b\n",
            "src/repro/sim/fx.py",
            contracts,
        )
        assert "def f(a=None, b=None):" in fixed
        assert "if a is None:" in fixed and "if b is None:" in fixed
        assert len(applied) == 2

    def test_single_line_body_gets_no_fix(self, contracts):
        source = "def f(acc=[]): return acc\n"
        fixed, applied, remaining = fix_source(
            source, "src/repro/sim/fx.py", contracts
        )
        assert fixed == source and applied == []
        assert [f.rule_id for f in remaining] == ["mutable-default"]


class TestPragmaFixers:
    def test_unused_own_line_pragma_deleted(self, contracts):
        fixed, applied = roundtrip(
            "# repro: allow[wall-clock] stale suppression\n"
            "VALUE = 3\n",
            "src/repro/sim/fx.py",
            contracts,
        )
        assert fixed == "VALUE = 3\n"
        assert applied[0].fix.fix_id == "pragma-remove"

    def test_unused_trailing_pragma_stripped(self, contracts):
        fixed, _ = roundtrip(
            "VALUE = 3  # repro: allow[wall-clock] stale suppression\n",
            "src/repro/sim/fx.py",
            contracts,
        )
        assert fixed == "VALUE = 3\n"

    def test_unknown_rule_id_dropped_from_list(self, contracts):
        source = (
            "import time\n"
            "WHEN = time.time()  # repro: allow[wall-clock, no-such-rule] boot stamp\n"
        )
        fixed, applied = roundtrip(source, "src/repro/sim/fx.py", contracts)
        assert "# repro: allow[wall-clock] boot stamp" in fixed
        assert "no-such-rule" not in fixed
        assert applied[0].fix.fix_id == "pragma-drop-rule"

    def test_pragma_with_only_unknown_id_removed(self, contracts):
        fixed, _ = roundtrip(
            "VALUE = 3  # repro: allow[no-such-rule] typo\n",
            "src/repro/sim/fx.py",
            contracts,
        )
        assert fixed == "VALUE = 3\n"


class TestPragmaAwareness:
    def test_allowed_finding_is_never_rewritten(self, contracts):
        source = (
            "# repro: allow[mutable-default] the sentinel list is never mutated\n"
            "def f(x=[]):\n"
            "    return len(x)\n"
        )
        fixed, applied, remaining = fix_source(
            source, "src/repro/sim/fx.py", contracts
        )
        assert fixed == source
        assert applied == [] and remaining == []


class TestApplyFixes:
    @staticmethod
    def finding(line, col, fix, rule_id="test-rule"):
        return Finding("p.py", line, col, rule_id, "error", "m", fix=fix)

    def test_overlapping_fixes_defer_deterministically(self):
        source = "abcdef\n"
        first = Fix("a", (TextEdit(1, 0, 1, 3, "X"),))
        second = Fix("b", (TextEdit(1, 2, 1, 5, "Y"),))
        fixed, applied, skipped = apply_fixes(
            source, [self.finding(1, 0, first), self.finding(1, 2, second)]
        )
        assert fixed == "Xdef\n"
        assert [f.fix.fix_id for f in applied] == ["a"]
        assert [f.fix.fix_id for f in skipped] == ["b"]

    def test_edits_apply_bottom_up(self):
        source = "one\ntwo\nthree\n"
        fixes = [
            self.finding(1, 0, Fix("f1", (TextEdit(1, 0, 1, 3, "ONE"),))),
            self.finding(3, 0, Fix("f3", (TextEdit(3, 0, 3, 5, "THREE"),))),
        ]
        fixed, applied, _ = apply_fixes(source, fixes)
        assert fixed == "ONE\ntwo\nTHREE\n"
        assert len(applied) == 2

    def test_out_of_bounds_edit_is_skipped(self):
        bad = Fix("oob", (TextEdit(9, 0, 9, 1, "x"),))
        fixed, applied, skipped = apply_fixes("ab\n", [self.finding(1, 0, bad)])
        assert fixed == "ab\n" and applied == [] and len(skipped) == 1

    def test_unicode_columns_are_characters(self):
        # The em dash is 3 UTF-8 bytes but one character: a char-column
        # edit after it must not shift.
        source = "x = 'a — b'\ny = 1\n"
        fix = Fix("u", (TextEdit(2, 4, 2, 5, "2"),))
        fixed, applied, _ = apply_fixes(source, [self.finding(2, 4, fix)])
        assert fixed == "x = 'a — b'\ny = 2\n"
        assert len(applied) == 1


class TestFixCli:
    BAD = (
        "def f(x=[]):\n"
        "    x.append(1)\n"
        "    return x\n"
    )

    def test_diff_previews_without_writing(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "src/repro/sim/fx.py", self.BAD)
        rc = cli.main(["lint", str(tmp_path), "--fix", "--diff"])
        out = capsys.readouterr().out
        assert rc == 0
        assert path.read_text() == self.BAD  # preview only
        assert "+def f(x=None):" in out
        assert "applied mutable-default-none ×1" in out

    def test_fix_writes_and_is_idempotent(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "src/repro/sim/fx.py", self.BAD)
        assert cli.main(["lint", str(tmp_path), "--fix"]) == 0
        fixed = path.read_text()
        assert "def f(x=None):" in fixed
        capsys.readouterr()
        assert cli.main(["lint", str(tmp_path), "--fix"]) == 0
        assert "autofix: 0 fix(es) in 0 files" in capsys.readouterr().out
        assert path.read_text() == fixed

    def test_diff_without_fix_is_an_error(self, tmp_path, capsys):
        write_fixture(tmp_path, "src/repro/sim/fx.py", "VALUE = 3\n")
        assert cli.main(["lint", str(tmp_path), "--diff"]) == 2
        assert "--diff requires --fix" in capsys.readouterr().err

    def test_unfixable_findings_still_fail(self, tmp_path, capsys):
        write_fixture(
            tmp_path, "src/repro/sim/fx.py",
            "import time\n\ndef f():\n    return time.time()\n",
        )
        assert cli.main(["lint", str(tmp_path), "--fix"]) == 1
        assert "error[wall-clock]" in capsys.readouterr().out

    def test_json_reports_fixes_applied(self, tmp_path, capsys):
        import json

        write_fixture(tmp_path, "src/repro/sim/fx.py", self.BAD)
        assert cli.main(["lint", str(tmp_path), "--fix", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["fixes_applied"] == {
            "files_changed": 1,
            "total": 1,
            "by_fix": {"mutable-default-none": 1},
        }
        assert report["findings"] == []


class TestWriteFixRun:
    def test_only_changed_files_are_written(self, tmp_path):
        clean = write_fixture(tmp_path, "src/repro/sim/ok.py", "VALUE = 3\n")
        bad = write_fixture(tmp_path, "src/repro/sim/fx.py", TestFixCli.BAD)
        before = clean.stat().st_mtime_ns
        run = fix_paths([str(tmp_path)])
        assert write_fix_run(run) == 1
        assert clean.stat().st_mtime_ns == before
        assert "def f(x=None):" in bad.read_text()
