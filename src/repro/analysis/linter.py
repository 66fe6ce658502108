"""The lint driver: discover files, run rules, apply pragmas.

The two entry points are :func:`lint_paths` (what the CLI calls) and
:func:`lint_source` (what fixture tests call — lint a source string under
a synthetic path, so package-scoped rules can be exercised without
touching disk).  Both return findings in deterministic sorted order.

``--fix`` flows through :func:`fix_paths`: per file, a lint → apply →
re-lint fixpoint loop (overlap-skipped fixes land on a later pass), with
the changed sources written back atomically by :func:`write_fix_run`.
"""

from __future__ import annotations

import ast
import difflib
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .context import ContractIndex, FileContext
from .findings import ERROR, Finding
from .fixes import apply_fixes
from .pragmas import PRAGMA_RULE_IDS, PragmaSheet
from .registry import all_rules, known_rule_ids
from ..ioutil import atomic_write_text

__all__ = [
    "LintResult",
    "FileFix",
    "FixRun",
    "discover_files",
    "lint_paths",
    "lint_source",
    "lint_file",
    "fix_source",
    "fix_paths",
    "write_fix_run",
]

#: Fixpoint cap: each pass applies at least one deferred fix, so real
#: trees converge in 2–3 passes; the cap only guards against a fixer
#: that fails to extinguish its own finding.
_MAX_FIX_PASSES = 10

_SKIP_DIRS = {"__pycache__", ".git", ".ruff_cache", ".pytest_cache", "build", "dist"}


class LintResult:
    """Findings plus the file census of one lint run."""

    def __init__(self, findings: List[Finding], files_scanned: int) -> None:
        self.findings = findings
        self.files_scanned = files_scanned

    @property
    def errors(self) -> int:
        return sum(1 for f in self.findings if f.severity == ERROR)

    @property
    def warnings(self) -> int:
        return sum(1 for f in self.findings if f.severity != ERROR)


def discover_files(paths: Sequence[str]) -> List[Path]:
    """Python files under ``paths`` (files or directories), sorted."""
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            if path.suffix == ".py":
                files.append(path)
        elif path.is_dir():
            for candidate in path.rglob("*.py"):
                if not any(part in _SKIP_DIRS for part in candidate.parts):
                    files.append(candidate)
    unique = sorted(set(files), key=lambda p: str(p))
    return unique


def lint_source(
    source: str,
    path: str = "<string>",
    contracts: Optional[ContractIndex] = None,
) -> List[Finding]:
    """Lint one source string as if it lived at ``path``.

    ``path`` controls package scoping: pass a synthetic path like
    ``src/repro/sim/example.py`` to put the snippet inside a scoped
    package.  A syntax error is reported as a ``syntax-error`` finding
    rather than raised — the linter must survive any input.
    """
    if contracts is None:
        contracts = ContractIndex.load()
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            Finding(
                path, exc.lineno or 1, (exc.offset or 1) - 1,
                "syntax-error", ERROR, f"cannot parse file: {exc.msg}",
            )
        ]
    ctx = FileContext(path, source, tree, contracts)
    sheet = PragmaSheet.parse(source)
    known = known_rule_ids()

    findings: List[Finding] = []
    for rule in all_rules():
        for finding in rule.check(ctx):
            # Pragma meta-findings are produced by the sheet, never suppressed.
            if finding.rule_id in PRAGMA_RULE_IDS:
                findings.append(finding)
                continue
            if sheet.suppresses(finding.rule_id, finding.line):
                continue
            findings.append(finding)
    findings.extend(sheet.meta_findings(path, known))
    return sorted(findings, key=Finding.sort_key)


def _read(path: Path) -> Union[str, Finding]:
    """The file's source, or the ``syntax-error`` finding for an unreadable one."""
    try:
        return path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        return Finding(str(path), 1, 0, "syntax-error", ERROR, f"cannot read file: {exc}")


def lint_file(path: Path, contracts: Optional[ContractIndex] = None) -> List[Finding]:
    """Lint one file on disk; an unreadable file is a ``syntax-error`` finding."""
    source = _read(path)
    if isinstance(source, Finding):
        return [source]
    return lint_source(source, str(path), contracts)


def lint_paths(
    paths: Sequence[str],
    contracts: Optional[ContractIndex] = None,
) -> LintResult:
    """Lint every Python file under ``paths``; the CLI entry point."""
    if contracts is None:
        contracts = ContractIndex.load()
    files = discover_files(paths)
    findings: List[Finding] = []
    for path in files:
        findings.extend(lint_file(path, contracts))
    return LintResult(sorted(findings, key=Finding.sort_key), len(files))


# ---------------------------------------------------------------------- #
# The --fix pipeline.


class FileFix:
    """One file's journey through the fix loop."""

    def __init__(
        self, path: str, original: str, fixed: str, applied: List[Finding]
    ) -> None:
        self.path = path
        self.original = original
        self.fixed = fixed
        #: findings whose fixes landed, in application order.
        self.applied = applied

    @property
    def changed(self) -> bool:
        return self.fixed != self.original

    def diff(self) -> str:
        """Unified diff of the fix (empty when nothing changed)."""
        if not self.changed:
            return ""
        return "".join(
            difflib.unified_diff(
                self.original.splitlines(keepends=True),
                self.fixed.splitlines(keepends=True),
                fromfile=self.path,
                tofile=self.path,
            )
        )


class FixRun:
    """Every file's :class:`FileFix` plus the post-fix :class:`LintResult`."""

    def __init__(self, files: List[FileFix], result: LintResult) -> None:
        self.files = files
        #: findings that remain after all applicable fixes (what the exit
        #: code is computed from).
        self.result = result

    @property
    def files_changed(self) -> int:
        return sum(1 for f in self.files if f.changed)

    @property
    def total_applied(self) -> int:
        return sum(len(f.applied) for f in self.files)

    @property
    def by_fix(self) -> Dict[str, int]:
        """Applied-fix counts keyed by stable fix id."""
        counts: Dict[str, int] = {}
        for file_fix in self.files:
            for finding in file_fix.applied:
                if finding.fix is not None:
                    fix_id = finding.fix.fix_id
                    counts[fix_id] = counts.get(fix_id, 0) + 1
        return counts


def fix_source(
    source: str,
    path: str = "<string>",
    contracts: Optional[ContractIndex] = None,
    max_passes: int = _MAX_FIX_PASSES,
) -> Tuple[str, List[Finding], List[Finding]]:
    """Fix one source string to a fixpoint.

    Returns ``(fixed_source, applied, remaining)``: the source after every
    applicable fix landed, the findings whose fixes were applied (across
    all passes), and the findings the fixed source still lints to.
    Suppressed findings never reach the engine, so pragma'd code is never
    rewritten.
    """
    if contracts is None:
        contracts = ContractIndex.load()
    applied_total: List[Finding] = []
    current = source
    findings = lint_source(current, path, contracts)
    for _ in range(max_passes):
        fixed, applied, _skipped = apply_fixes(current, findings)
        if not applied:
            break
        current = fixed
        applied_total.extend(applied)
        findings = lint_source(current, path, contracts)
    return current, applied_total, findings


def fix_paths(
    paths: Sequence[str],
    contracts: Optional[ContractIndex] = None,
) -> FixRun:
    """Run the fix loop over every Python file under ``paths``.

    Purely in-memory: nothing is written (so ``--diff`` can preview);
    :func:`write_fix_run` publishes the changed sources.
    """
    if contracts is None:
        contracts = ContractIndex.load()
    files = discover_files(paths)
    file_fixes: List[FileFix] = []
    findings: List[Finding] = []
    for path in files:
        source = _read(path)
        if isinstance(source, Finding):
            findings.append(source)
            continue
        fixed, applied, remaining = fix_source(source, str(path), contracts)
        file_fixes.append(FileFix(str(path), source, fixed, applied))
        findings.extend(remaining)
    result = LintResult(sorted(findings, key=Finding.sort_key), len(files))
    return FixRun(file_fixes, result)


def write_fix_run(run: FixRun) -> int:
    """Atomically write every changed file; returns how many."""
    written = 0
    for file_fix in run.files:
        if file_fix.changed:
            atomic_write_text(file_fix.path, file_fix.fixed)
            written += 1
    return written
