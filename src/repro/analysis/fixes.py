"""The autofix engine: span-based text edits attached to findings.

A rule that knows the mechanical remediation for its finding attaches a
:class:`Fix` — a stable fix id plus one or more :class:`TextEdit` spans —
and ``repro lint --fix`` applies them.  The engine is deliberately dumb
about *what* a fix means and strict about *how* it applies:

* Edits address ``(line, column)`` **character** positions (AST column
  offsets count UTF-8 bytes; :func:`node_char_span` converts).
* Within one file, fixes are applied **bottom-up** so earlier spans stay
  valid, and only **non-overlapping** fixes apply in one pass — a fix
  whose span collides with an already-selected one is skipped
  deterministically (finding sort order wins) and picked up by the next
  pass of the fixpoint driver in :mod:`repro.analysis.linter`.
* Fixes are **pragma-aware** for free: a finding suppressed by an
  ``# repro: allow[...]`` pragma is never emitted, so its fix is never
  applied.
* Fixes must be **idempotent**: after a fix applies, re-linting the fixed
  source yields no finding carrying that fix (the fixture round-trip
  tests and the ``lint-fix-idempotent`` CI step gate this).

This module is self-contained (no intra-package imports) so that
``findings``, ``pragmas`` and the rule modules can all build fixes
without an import cycle.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "TextEdit",
    "Fix",
    "apply_fixes",
    "byte_col_to_char",
    "node_char_span",
    "wrap_node_fix",
]


@dataclass(frozen=True)
class TextEdit:
    """Replace ``source[start:end)`` with ``replacement``.

    Positions are 1-based lines and 0-based **character** columns.  A
    zero-width span (start == end) is an insertion.
    """

    start_line: int
    start_col: int
    end_line: int
    end_col: int
    replacement: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "start": [self.start_line, self.start_col],
            "end": [self.end_line, self.end_col],
            "replacement": self.replacement,
        }


@dataclass(frozen=True)
class Fix:
    """One finding's mechanical remediation: a stable id plus edits.

    ``fix_id`` is part of the public contract (it appears in JSON reports
    and the ``fixes_applied`` summary) and must never be renamed casually.
    """

    fix_id: str
    edits: Tuple[TextEdit, ...]
    description: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.fix_id,
            "description": self.description,
            "edits": [edit.to_dict() for edit in self.edits],
        }


# ---------------------------------------------------------------------- #
# Position helpers: AST byte columns -> character columns.


def byte_col_to_char(line_text: str, byte_col: int) -> int:
    """Convert an AST UTF-8 byte column to a character column."""
    if line_text.isascii():
        return byte_col
    raw = line_text.encode("utf-8")
    return len(raw[:byte_col].decode("utf-8", errors="ignore"))


def node_char_span(source: str, node: ast.AST) -> Optional[Tuple[int, int, int, int]]:
    """``(start_line, start_col, end_line, end_col)`` of a node, in
    character columns; None when the node carries no end position."""
    end_lineno = getattr(node, "end_lineno", None)
    end_col = getattr(node, "end_col_offset", None)
    if end_lineno is None or end_col is None:
        return None
    lines = source.splitlines()
    if node.lineno > len(lines) or end_lineno > len(lines):
        return None
    return (
        node.lineno,
        byte_col_to_char(lines[node.lineno - 1], node.col_offset),
        end_lineno,
        byte_col_to_char(lines[end_lineno - 1], end_col),
    )


def wrap_node_fix(
    fix_id: str, source: str, node: ast.AST, prefix: str, suffix: str,
    description: str = "",
) -> Optional[Fix]:
    """A fix that wraps a node's source span in ``prefix``/``suffix``."""
    span = node_char_span(source, node)
    if span is None:
        return None
    start_line, start_col, end_line, end_col = span
    return Fix(
        fix_id,
        (
            TextEdit(start_line, start_col, start_line, start_col, prefix),
            TextEdit(end_line, end_col, end_line, end_col, suffix),
        ),
        description,
    )


# ---------------------------------------------------------------------- #
# Application.


def _line_offsets(source: str) -> List[int]:
    """Absolute character offset of each line start, plus an end sentinel."""
    offsets = [0]
    for line in source.splitlines(keepends=True):
        offsets.append(offsets[-1] + len(line))
    return offsets


def _absolute_span(
    offsets: List[int], edit: TextEdit
) -> Optional[Tuple[int, int]]:
    """The edit's ``(start, end)`` character offsets; None when out of
    bounds.  ``(len(lines) + 1, 0)`` is a legal position — one past the
    last line — so a whole-final-line deletion can span to end-of-file."""
    last = len(offsets)  # == number of lines + 1

    def resolve(line: int, col: int) -> Optional[int]:
        if line < 1 or line > last:
            return None
        offset = offsets[line - 1] + col
        ceiling = offsets[line] if line < last else offsets[-1]
        if offset > ceiling:
            return None
        return offset

    start = resolve(edit.start_line, edit.start_col)
    end = resolve(edit.end_line, edit.end_col)
    if start is None or end is None or start > end:
        return None
    return start, end


def _conflicts(s1: int, e1: int, s2: int, e2: int) -> bool:
    """Whether two spans cannot apply together.  Equal starts always
    conflict (two insertions at one point have no defined order)."""
    if s1 == s2:
        return True
    return s1 < e2 and s2 < e1


def apply_fixes(
    source: str, findings: Sequence[Any]
) -> Tuple[str, List[Any], List[Any]]:
    """Apply the fixes attached to ``findings`` to one file's source.

    Returns ``(new_source, applied, skipped)`` where ``applied`` are the
    findings whose fixes landed and ``skipped`` those deferred because a
    span collided with an earlier (in finding sort order) fix or fell out
    of bounds.  Edits are applied bottom-up so spans never shift under
    each other.
    """
    offsets = _line_offsets(source)
    applied: List[Any] = []
    skipped: List[Any] = []
    claimed: List[Tuple[int, int]] = []
    selected: List[Tuple[int, int, str]] = []
    for finding in sorted(findings, key=lambda f: f.sort_key()):
        fix = finding.fix
        if fix is None or not fix.edits:
            continue
        spans: List[Tuple[int, int, str]] = []
        ok = True
        for edit in fix.edits:
            span = _absolute_span(offsets, edit)
            if span is None:
                ok = False
                break
            spans.append((span[0], span[1], edit.replacement))
        if ok:
            ordered = sorted(spans)
            for (s1, e1, _), (s2, e2, _) in zip(ordered, ordered[1:]):
                if _conflicts(s1, e1, s2, e2):
                    ok = False
                    break
        if ok:
            for s1, e1, _ in spans:
                if any(_conflicts(s1, e1, s2, e2) for s2, e2 in claimed):
                    ok = False
                    break
        if not ok:
            skipped.append(finding)
            continue
        claimed.extend((s, e) for s, e, _ in spans)
        selected.extend(spans)
        applied.append(finding)
    out = source
    for start, end, replacement in sorted(selected, reverse=True):
        out = out[:start] + replacement + out[end:]
    return out, applied, skipped
