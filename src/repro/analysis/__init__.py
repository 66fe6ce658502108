"""repro.analysis — the repo's own static-analysis subsystem.

A small AST-based linter that enforces the invariants the test suite
cannot see: bit-for-bit determinism of the simulation core (no wall
clocks, no unseeded RNG, no order-leaking set iteration), the duck-typed
contracts between engine, callbacks, backends and the wire protocol, and
basic hygiene.  Run it as ``repro lint`` (or
``python -m repro lint src/repro tests examples``); suppress a finding
with ``# repro: allow[rule-id] reason`` — the reason is mandatory and the
pragma itself is linted.

The rule catalogue lives in DESIGN.md §9; ``repro lint --list-rules``
prints it from the registry.
"""

from .context import ContractIndex, FileContext, module_for_path
from .findings import ERROR, SEVERITIES, WARNING, Finding
from .fixes import Fix, TextEdit, apply_fixes
from .linter import (
    FileFix,
    FixRun,
    LintResult,
    discover_files,
    fix_paths,
    fix_source,
    lint_file,
    lint_paths,
    lint_source,
    write_fix_run,
)
from .pragmas import PRAGMA_RULE_IDS, Pragma, PragmaSheet
from .registry import Rule, all_rules, get_rule, known_rule_ids, register
from .report import (
    JSON_REPORT_VERSION,
    render_diffs,
    render_fix_summary,
    render_json,
    render_text,
    to_report_dict,
)

__all__ = [
    "ERROR",
    "WARNING",
    "SEVERITIES",
    "Finding",
    "Fix",
    "TextEdit",
    "apply_fixes",
    "ContractIndex",
    "FileContext",
    "module_for_path",
    "LintResult",
    "FileFix",
    "FixRun",
    "discover_files",
    "fix_paths",
    "fix_source",
    "lint_file",
    "lint_paths",
    "lint_source",
    "write_fix_run",
    "PRAGMA_RULE_IDS",
    "Pragma",
    "PragmaSheet",
    "Rule",
    "all_rules",
    "get_rule",
    "known_rule_ids",
    "register",
    "JSON_REPORT_VERSION",
    "render_diffs",
    "render_fix_summary",
    "render_json",
    "render_text",
    "to_report_dict",
]
