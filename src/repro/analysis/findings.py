"""Findings: what the linter reports.

A :class:`Finding` pins one rule violation to a file position.  Findings
are plain stdlib data (no numpy) so the lint lane stays importable in the
leanest environments, and they sort deterministically — the linter's
output order is part of its contract (diffs of lint runs must be stable).
Same-line findings tie-break on ``(rule_id, col)`` so different rules
firing on one line render in a fixed order regardless of which col each
rule anchored to.

A finding may carry a :class:`~repro.analysis.fixes.Fix` — the mechanical
remediation ``repro lint --fix`` applies.  The fix rides along in
``to_dict`` so JSON reports show it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from .fixes import Fix

__all__ = ["ERROR", "WARNING", "SEVERITIES", "Finding"]

#: Severity levels, in increasing order of strictness of the gate that
#: trips on them (``--fail-on warning`` fails on both).
ERROR = "error"
WARNING = "warning"
SEVERITIES = (ERROR, WARNING)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source position."""

    path: str
    line: int
    col: int
    rule_id: str
    severity: str
    message: str
    fix: Optional[Fix] = None

    def sort_key(self) -> Tuple[str, int, str, int, str]:
        return (self.path, self.line, self.rule_id, self.col, self.message)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (the ``findings[]`` entry schema)."""
        payload: Dict[str, Any] = {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "severity": self.severity,
            "message": self.message,
            "fixable": self.fix is not None,
        }
        if self.fix is not None:
            payload["fix"] = self.fix.to_dict()
        return payload

    def render(self) -> str:
        """The one-line text form: ``path:line:col: severity[rule] message``."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.severity}[{self.rule_id}] {self.message}"
        )
