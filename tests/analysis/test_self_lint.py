"""The repo must lint clean against its own rules.

This is the merge gate: any commit that introduces a wall-clock read, an
unseeded RNG draw, a drifted callback/backend/protocol contract, or an
unjustified pragma fails here before it fails in CI.
"""

from pathlib import Path

from repro.analysis import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestSelfLint:
    def test_repo_is_clean(self):
        result = lint_paths(
            [
                str(REPO_ROOT / "src" / "repro"),
                str(REPO_ROOT / "tests"),
                str(REPO_ROOT / "examples"),
                str(REPO_ROOT / "benchmarks"),
            ]
        )
        rendered = "\n".join(f.render() for f in result.findings)
        assert result.findings == [], f"repo must self-lint clean:\n{rendered}"
        # The sweep must actually have covered the tree.
        assert result.files_scanned > 100

    def test_src_alone_is_clean(self):
        result = lint_paths([str(REPO_ROOT / "src" / "repro")])
        assert result.findings == []
        assert result.errors == 0 and result.warnings == 0
