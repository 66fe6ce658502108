"""Concurrency rules: lock discipline in the threaded service tier.

The service tier (DESIGN.md §12) shares registries, pools and connection
tables across handler threads, guarded by per-object ``threading.Lock``/
``RLock``/``Condition`` attributes.  Nothing enforces that guard: a read
of ``self._spaces`` outside ``with self._lock`` compiles, passes every
single-threaded test, and corrupts state only under concurrent load —
the least reproducible bug class this repo has.

:class:`LockGuardedStateRule` is the linter's first *context-sensitive*
rule: instead of matching node shapes it tracks, per class, which
``self.*`` attributes are **written under a held lock** and then flags
any access to those same attributes from code that provably holds no
lock.  The analysis is method-granular and deliberately conservative:

* Lock attributes are those assigned a ``threading.Lock()`` / ``RLock()``
  / ``Condition()`` (possibly nested in a conditional expression).
* A statement is "under" a lock while lexically inside
  ``with self.<lock_attr>:`` — nested functions and lambdas escape the
  lexical region (they run later, on arbitrary threads) and count as
  unlocked.
* Writes are assignment/augmented-assignment/`del` targets (including
  tuple unpacking and ``self.attr[...]`` stores) and calls to mutating
  container methods (``append``, ``pop``, ``update``, …).
* Methods whose name ends in ``_locked`` declare "caller holds the
  lock" and are exempt, as are ``__init__``/``__del__`` (no concurrent
  access before construction completes or during teardown).

Intentional lock-free fast paths (monotonic flag reads, internally
synchronised ``queue.Queue`` operations) say so with a reasoned
``# repro: allow[lock-guarded-state]`` pragma.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..context import FileContext
from ..findings import Finding
from ..registry import Rule, register

__all__ = ["LockGuardedStateRule"]

#: Constructors whose result makes an attribute a lock.
_LOCK_FACTORIES = frozenset(
    {"threading.Lock", "threading.RLock", "threading.Condition"}
)

#: Container methods that mutate their receiver in place.
_MUTATING_METHODS = frozenset(
    {
        "add", "append", "appendleft", "clear", "discard", "extend",
        "extendleft", "insert", "move_to_end", "pop", "popitem", "popleft",
        "remove", "setdefault", "sort", "update", "put", "put_nowait",
    }
)

#: Methods with no concurrent-access window.
_EXEMPT_METHODS = frozenset({"__init__", "__del__"})

#: Name suffix declaring that the caller already holds the lock.
_LOCKED_SUFFIX = "_locked"


def _self_attr(node: ast.AST) -> Optional[str]:
    """``self.<attr>`` → attr name; None for anything else."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


class _Access:
    """One ``self.*`` touch inside a method body."""

    __slots__ = ("attr", "node", "held", "method", "is_write")

    def __init__(
        self,
        attr: str,
        node: ast.AST,
        held: Set[str],
        method: str,
        is_write: bool,
    ) -> None:
        self.attr = attr
        self.node = node
        self.held = held
        self.method = method
        self.is_write = is_write


@register
class LockGuardedStateRule(Rule):
    rule_id = "lock-guarded-state"
    title = "attributes written under a lock must not be touched lock-free"
    rationale = (
        "the multi-tenant server shares registries and pools across "
        "handler threads; a lock-free read of lock-guarded state races "
        "its writers and corrupts exactly the runs that are too "
        "concurrent to reproduce — the one bug class the determinism "
        "harness cannot replay."
    )

    _SCOPE = ("repro.service",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_packages(self._SCOPE):
            return
        for node in ctx.nodes:
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(ctx, node)

    # ------------------------------------------------------------------ #
    def _check_class(self, ctx: FileContext, cls: ast.ClassDef) -> Iterator[Finding]:
        lock_attrs = self._lock_attributes(ctx, cls)
        if not lock_attrs:
            return
        accesses = self._collect_accesses(cls, lock_attrs)
        guarded: Dict[str, Set[str]] = {}
        for access in accesses:
            if access.is_write and access.held and access.attr not in lock_attrs:
                guarded.setdefault(access.attr, set()).update(access.held)
        if not guarded:
            return
        # A write records both its own access and the underlying Attribute
        # node; report each (attr, position) once, write classification
        # first (collection order puts the write ahead of the read).
        seen: Set[Tuple[str, int, int]] = set()
        for access in accesses:
            if access.attr not in guarded or access.attr in lock_attrs:
                continue
            if access.held:
                continue
            if access.method in _EXEMPT_METHODS:
                continue
            if access.method.endswith(_LOCKED_SUFFIX):
                continue
            key = (
                access.attr,
                getattr(access.node, "lineno", 0),
                getattr(access.node, "col_offset", 0),
            )
            if key in seen:
                continue
            seen.add(key)
            locks = ", ".join(f"self.{n}" for n in sorted(guarded[access.attr]))
            kind = "write to" if access.is_write else "read of"
            yield self.finding(
                ctx, access.node,
                f"lock-free {kind} self.{access.attr} in "
                f"{cls.name}.{access.method}() — it is written under "
                f"`with {locks}` elsewhere in the class; take the lock, "
                f"rename the method *{_LOCKED_SUFFIX} if callers hold it, "
                "or allow[lock-guarded-state] an intentional fast path",
            )

    # ------------------------------------------------------------------ #
    def _lock_attributes(self, ctx: FileContext, cls: ast.ClassDef) -> Set[str]:
        """Attributes assigned a lock factory anywhere in the class."""
        locks: Set[str] = set()
        for node in ast.walk(cls):
            targets: List[ast.AST] = []
            value: Optional[ast.AST] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None:
                continue
            attr_targets = [a for a in (_self_attr(t) for t in targets) if a]
            if not attr_targets:
                continue
            for sub in ast.walk(value):
                if isinstance(sub, ast.Call) and ctx.resolve(sub.func) in _LOCK_FACTORIES:
                    locks.update(attr_targets)
                    break
        return locks

    # ------------------------------------------------------------------ #
    def _collect_accesses(
        self, cls: ast.ClassDef, lock_attrs: Set[str]
    ) -> List[_Access]:
        accesses: List[_Access] = []
        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not self._takes_self(item):
                continue  # staticmethods have no self to race on
            for stmt in item.body:
                self._visit(stmt, frozenset(), item.name, lock_attrs, accesses)
        return accesses

    @staticmethod
    def _takes_self(fn: ast.AST) -> bool:
        args = fn.args
        positional = list(getattr(args, "posonlyargs", [])) + list(args.args)
        return bool(positional) and positional[0].arg == "self"

    def _visit(
        self,
        node: ast.AST,
        held: Set[str],
        method: str,
        lock_attrs: Set[str],
        accesses: List[_Access],
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # A nested callable runs later, on whatever thread calls it:
            # the lexically-enclosing `with` guarantees nothing.
            for child in ast.iter_child_nodes(node):
                self._visit(child, frozenset(), method, lock_attrs, accesses)
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired: Set[str] = set()
            for item in node.items:
                self._visit(item.context_expr, held, method, lock_attrs, accesses)
                if item.optional_vars is not None:
                    self._visit(item.optional_vars, held, method, lock_attrs, accesses)
                attr = _self_attr(item.context_expr)
                if attr is not None and attr in lock_attrs:
                    acquired.add(attr)
            inner = held | acquired if acquired else held
            for stmt in node.body:
                self._visit(stmt, inner, method, lock_attrs, accesses)
            return
        self._record(node, held, method, accesses)
        for child in ast.iter_child_nodes(node):
            self._visit(child, held, method, lock_attrs, accesses)

    def _record(
        self, node: ast.AST, held: Set[str], method: str, accesses: List[_Access]
    ) -> None:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                self._record_target(target, held, method, accesses)
        elif isinstance(node, ast.AugAssign):
            self._record_target(node.target, held, method, accesses)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                self._record_target(target, held, method, accesses)
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in _MUTATING_METHODS:
                attr = _self_attr(func.value)
                if attr is not None:
                    accesses.append(_Access(attr, node, held, method, True))
        elif isinstance(node, ast.Attribute):
            attr = _self_attr(node)
            if attr is not None:
                accesses.append(_Access(attr, node, held, method, False))

    def _record_target(
        self, target: ast.AST, held: Set[str], method: str, accesses: List[_Access]
    ) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_target(element, held, method, accesses)
            return
        if isinstance(target, ast.Starred):
            self._record_target(target.value, held, method, accesses)
            return
        attr = _self_attr(target)
        if attr is not None:
            accesses.append(_Access(attr, target, held, method, True))
            return
        if isinstance(target, ast.Subscript):
            attr = _self_attr(target.value)
            if attr is not None:
                accesses.append(_Access(attr, target, held, method, True))
