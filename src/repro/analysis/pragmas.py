"""Allowlist pragmas: ``# repro: allow[rule-id] reason``.

A pragma suppresses findings of the named rule(s) on the line it sits on,
or — when it is the only thing on its line — on the next line.  Every
pragma must carry a non-empty reason string, may name several rules
(comma-separated), and is itself linted: a missing reason, an unknown
rule id, or a pragma that suppresses nothing are findings in their own
right (``pragma-reason`` / ``pragma-unknown-rule`` / ``pragma-unused``).
Pragma findings cannot be suppressed by other pragmas — the allowlist
has to stay honest about itself.

``pragma-unused`` and ``pragma-unknown-rule`` carry fixes: a dead pragma
is deleted outright (whole line when it stands alone, trailing comment
otherwise), an unknown rule id is dropped from the bracket list — and
when nothing remains in the list, the whole pragma goes.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from .findings import ERROR, WARNING, Finding
from .fixes import Fix, TextEdit

__all__ = [
    "PRAGMA_RULE_IDS",
    "Pragma",
    "PragmaSheet",
]

#: Meta-rule ids reserved for the pragma machinery itself.
PRAGMA_RULE_IDS = ("pragma-reason", "pragma-unknown-rule", "pragma-unused")

_PRAGMA_RE = re.compile(r"#\s*repro:\s*allow\[([^\]]*)\]\s*(.*)$")


@dataclass
class Pragma:
    """One parsed allow pragma."""

    line: int
    rule_ids: Tuple[str, ...]
    reason: str
    #: True when the pragma is alone on its line — it then covers line+1.
    own_line: bool
    #: Character column where the comment token starts on its line.
    col: int = 0
    #: Full text of the pragma's line (for building removal fixes).
    line_text: str = ""
    #: rule ids that actually suppressed a finding (filled during linting).
    used_ids: Set[str] = field(default_factory=set)

    def covers(self, line: int) -> bool:
        return line == self.line or (self.own_line and line == self.line + 1)

    def removal_fix(self) -> Fix:
        """Delete the pragma: its whole line when it stands alone, else
        just the trailing comment (plus the spacing before it)."""
        if self.own_line:
            edit = TextEdit(self.line, 0, self.line + 1, 0, "")
        else:
            start = len(self.line_text[: self.col].rstrip())
            edit = TextEdit(self.line, start, self.line, len(self.line_text), "")
        return Fix("pragma-remove", (edit,), "delete the allow pragma")

    def rewrite_fix(self, drop_rule_id: str) -> Fix:
        """Drop one rule id from the bracket list; delete the pragma when
        nothing would remain."""
        keep = [r for r in self.rule_ids if r != drop_rule_id]
        if not keep:
            return self.removal_fix()
        comment = f"# repro: allow[{', '.join(keep)}] {self.reason}".rstrip()
        edit = TextEdit(
            self.line, self.col, self.line, len(self.line_text), comment
        )
        return Fix(
            "pragma-drop-rule", (edit,), f"drop unknown rule id {drop_rule_id!r}"
        )


class PragmaSheet:
    """All pragmas of one file, with suppression bookkeeping."""

    def __init__(self, pragmas: List[Pragma]) -> None:
        self.pragmas = pragmas
        self._by_line: Dict[int, List[Pragma]] = {}
        for pragma in pragmas:
            self._by_line.setdefault(pragma.line, []).append(pragma)
            if pragma.own_line:
                self._by_line.setdefault(pragma.line + 1, []).append(pragma)

    @classmethod
    def parse(cls, source: str) -> "PragmaSheet":
        """Parse pragmas from *comment tokens* only.

        Tokenising (rather than regex-scanning raw lines) keeps pragma
        examples inside docstrings and string literals inert.  A comment
        token is a substring of the source and the pragma pattern needs
        the literal ``repro:``, so a source without it is not tokenised.
        """
        pragmas: List[Pragma] = []
        if "repro:" not in source:
            return cls(pragmas)
        try:
            tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
        except (tokenize.TokenError, IndentationError, SyntaxError):
            return cls(pragmas)
        lines = source.splitlines()
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _PRAGMA_RE.search(token.string)
            if match is None:
                continue
            lineno, col = token.start
            ids = tuple(
                part.strip() for part in match.group(1).split(",") if part.strip()
            )
            reason = match.group(2).strip()
            text = lines[lineno - 1] if lineno - 1 < len(lines) else ""
            own_line = text[:col].strip() == ""
            pragmas.append(Pragma(lineno, ids, reason, own_line, col, text))
        return cls(pragmas)

    def suppresses(self, rule_id: str, line: int) -> bool:
        """True (and records the use) if a pragma allows ``rule_id`` at ``line``."""
        for pragma in self._by_line.get(line, ()):
            if rule_id in pragma.rule_ids and pragma.covers(line):
                pragma.used_ids.add(rule_id)
                return True
        return False

    def meta_findings(self, path: str, known_rule_ids: Set[str]) -> List[Finding]:
        """Findings about the pragmas themselves (not suppressible)."""
        findings: List[Finding] = []
        for pragma in self.pragmas:
            if not pragma.rule_ids:
                findings.append(
                    Finding(
                        path, pragma.line, 0, "pragma-unknown-rule", ERROR,
                        "allow pragma names no rule id "
                        "(write `# repro: allow[rule-id] reason`)",
                        fix=pragma.removal_fix(),
                    )
                )
                continue
            if not pragma.reason:
                findings.append(
                    Finding(
                        path, pragma.line, 0, "pragma-reason", ERROR,
                        "allow pragma for "
                        f"[{', '.join(pragma.rule_ids)}] has no reason string — "
                        "every suppression must say why it is safe",
                    )
                )
            unknown = [r for r in pragma.rule_ids if r not in known_rule_ids]
            for rule_id in unknown:
                findings.append(
                    Finding(
                        path, pragma.line, 0, "pragma-unknown-rule", ERROR,
                        f"allow pragma names unknown rule id {rule_id!r}",
                        fix=pragma.rewrite_fix(rule_id),
                    )
                )
            known_named = [r for r in pragma.rule_ids if r in known_rule_ids]
            unused = [r for r in known_named if r not in pragma.used_ids]
            if known_named and unused and not pragma.used_ids:
                findings.append(
                    Finding(
                        path, pragma.line, 0, "pragma-unused", WARNING,
                        f"allow pragma for [{', '.join(unused)}] suppresses "
                        "nothing on its line — delete it or move it to the "
                        "offending line",
                        fix=pragma.removal_fix(),
                    )
                )
        return findings
