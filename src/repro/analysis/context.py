"""Per-file lint context and the cross-file contract index.

:class:`FileContext` bundles everything a rule needs to check one file:
the parsed AST (and every node of it, walked once and shared by the
rules), the dotted module name inferred from the path (``None``
for files outside the ``repro`` package, e.g. tests and examples — rules
scoped to specific packages skip those), an import-alias resolver, and
the shared :class:`ContractIndex`.

:class:`ContractIndex` is the static source of truth for the contract
rules.  It is extracted *by AST parsing* — never by importing — from the
repo's own definition sites:

* ``repro/core/events.py`` — the :class:`SearchCallback` base hook
  signatures;
* ``repro/sim/backends.py`` — the :class:`EvaluationBackend` protocol
  surface;
* ``repro/service/protocol.py`` — the ``MESSAGE_SCHEMA`` /
  ``ADMIN_SCHEMA`` / ``NESTED_FIELDS`` wire-message tables;
* ``repro/service/server.py`` — the ``_OP_HANDLERS`` dispatch table and
  the handler method names it must resolve to;
* ``repro/service/router.py`` — the ``_ADMIN_HANDLERS`` admin-op
  dispatch table and the router method names it must resolve to;
* ``repro/service/client.py`` — per-op counts of request-constructor
  dict literals (each op must have exactly one client constructor).

Because the tables are read from the source tree adjacent to this
package, editing a contract definition automatically retargets the
linter: drift between a subclass and its base, or between a message
constructor and the schema, is a lint error before it is a runtime or
wire error.
"""

from __future__ import annotations

import ast
from pathlib import Path, PurePath
from typing import Dict, Iterable, List, Optional, Set, Tuple

__all__ = [
    "FileContext",
    "ContractIndex",
    "module_for_path",
    "resolve_dotted",
    "absolute_import_target",
]


def module_for_path(path: str) -> Optional[str]:
    """Dotted module name for ``path``, or ``None`` outside ``repro``.

    The mapping is purely lexical so it works for synthetic fixture paths
    too: the module root is the ``repro`` directory that follows the last
    ``src`` path component (``.../src/repro/sim/backends.py`` →
    ``repro.sim.backends``); a path with no ``src/repro`` segment (tests,
    examples, scratch files) has no repro module name.
    """
    parts = PurePath(path).parts
    idx = None
    for i in range(len(parts) - 1):
        if parts[i] == "src" and parts[i + 1] == "repro":
            idx = i + 1
    if idx is None:
        return None
    mod_parts = list(parts[idx:])
    last = mod_parts[-1]
    if not last.endswith(".py"):
        return None
    if last == "__init__.py":
        mod_parts = mod_parts[:-1]
    else:
        mod_parts[-1] = last[: -len(".py")]
    return ".".join(mod_parts)


def absolute_import_target(
    module: str, is_package: bool, node: ast.ImportFrom
) -> Optional[str]:
    """Absolute dotted target of an import-from, resolving relativity.

    ``from ..graph import ops`` inside ``repro.sim.env`` resolves to
    ``repro.graph``; an over-deep relative import (more dots than package
    levels) resolves to ``None``.
    """
    if node.level == 0:
        return node.module
    parts = module.split(".")
    if not is_package:
        parts = parts[:-1]
    drop = node.level - 1
    if drop >= len(parts):
        return None
    base = parts[: len(parts) - drop] if drop else parts
    if node.module:
        return ".".join(base + node.module.split("."))
    return ".".join(base)


def _attr_chain(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` as ``["a", "b", "c"]``; None for non-name chains."""
    chain: List[str] = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    chain.append(node.id)
    chain.reverse()
    return chain


def resolve_dotted(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Resolve a Name/Attribute chain through the file's import aliases.

    ``np.random.normal`` with ``import numpy as np`` resolves to
    ``numpy.random.normal``; a *bare* non-imported name resolves to
    itself (so builtins like ``list``/``sorted`` are recognisable); an
    attribute chain rooted at a non-imported name (a local variable,
    ``self``) resolves to ``None``.
    """
    chain = _attr_chain(node)
    if chain is None:
        return None
    root = aliases.get(chain[0])
    if root is None:
        if len(chain) == 1:
            return chain[0]
        return None
    return ".".join([root] + chain[1:])


def collect_aliases(nodes: Iterable[ast.AST]) -> Dict[str, str]:
    """Map local names to the absolute dotted names they were imported as."""
    aliases: Dict[str, str] = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for item in node.names:
                local = item.asname or item.name.split(".", 1)[0]
                target = item.name if item.asname else item.name.split(".", 1)[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for item in node.names:
                if item.name == "*":
                    continue
                local = item.asname or item.name
                aliases[local] = f"{node.module}.{item.name}"
    return aliases


class FileContext:
    """Everything the rules need to know about one file."""

    def __init__(
        self,
        path: str,
        source: str,
        tree: ast.AST,
        contracts: "ContractIndex",
    ) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.contracts = contracts
        #: ``ast.walk(tree)`` in walk order, computed once: every rule that
        #: scans the whole file iterates this instead of re-walking.
        self.nodes: List[ast.AST] = list(ast.walk(tree))
        self.module = module_for_path(path)
        self.aliases = collect_aliases(self.nodes)

    # ------------------------------------------------------------------ #
    def in_packages(self, prefixes: Tuple[str, ...]) -> bool:
        """True when this file's module lives under one of ``prefixes``."""
        if self.module is None:
            return False
        return any(
            self.module == p or self.module.startswith(p + ".") for p in prefixes
        )

    def resolve(self, node: ast.AST) -> Optional[str]:
        return resolve_dotted(node, self.aliases)


class ContractIndex:
    """Statically extracted contract tables (see module docstring)."""

    def __init__(
        self,
        callback_signatures: Dict[str, List[str]],
        backend_methods: Dict[str, List[str]],
        message_schema: Dict[str, Dict[str, Tuple[str, ...]]],
        nested_fields: Set[str],
        *,
        server_dispatch: Optional[Dict[str, str]] = None,
        server_methods: Optional[Set[str]] = None,
        client_constructors: Optional[Dict[str, int]] = None,
        callback_fire_counts: Optional[Dict[str, int]] = None,
        internal_imports: Optional[Set[Tuple[str, str]]] = None,
        admin_schema: Optional[Dict[str, Dict[str, Tuple[str, ...]]]] = None,
        router_dispatch: Optional[Dict[str, str]] = None,
        router_methods: Optional[Set[str]] = None,
    ) -> None:
        self.callback_signatures = callback_signatures
        self.backend_methods = backend_methods
        self.message_schema = message_schema
        self.nested_fields = nested_fields
        #: op → handler method name, from server.py's ``_OP_HANDLERS``
        #: literal (empty when the server source was unavailable).
        self.server_dispatch = dict(server_dispatch or {})
        #: every method name defined anywhere in server.py — the namespace
        #: the dispatch table's values must resolve into.
        self.server_methods = set(server_methods or ())
        #: op → number of ``{"op": <op>, ...}`` request-literal
        #: constructors in client.py.
        self.client_constructors = dict(client_constructors or {})
        #: hook name → number of ``<recv>.on_*(...)`` dispatch sites in
        #: ``repro.core``/``repro.service`` (excluding events.py itself,
        #: whose ``CallbackList`` mechanically mirrors every hook — counting
        #: it would make the every-hook-fires check vacuous).
        self.callback_fire_counts = dict(callback_fire_counts or {})
        #: every ``(importer_module, imported_target)`` pair inside the
        #: repro tree, relative imports resolved — the evidence base for
        #: the layer-rank-unused rule.
        self.internal_imports: Tuple[Tuple[str, str], ...] = tuple(
            sorted(internal_imports or ())
        )
        #: admin op → field spec, from protocol.py's ``ADMIN_SCHEMA``
        #: literal (the router's stats/join/leave/membership/migrate plane).
        self.admin_schema = dict(admin_schema or {})
        #: admin op → handler method name, from router.py's
        #: ``_ADMIN_HANDLERS`` literal.
        self.router_dispatch = dict(router_dispatch or {})
        #: every method name defined anywhere in router.py.
        self.router_methods = set(router_methods or ())

    # ------------------------------------------------------------------ #
    @property
    def request_fields(self) -> Dict[str, Set[str]]:
        return {
            op: set(spec.get("request", ()))
            for op, spec in self.message_schema.items()
        }

    @property
    def response_fields(self) -> Set[str]:
        fields: Set[str] = set()
        for spec in self.message_schema.values():
            fields.update(spec.get("response", ()))
        return fields

    @property
    def all_wire_fields(self) -> Set[str]:
        fields = set(self.nested_fields) | self.response_fields
        for schema in (self.message_schema, self.admin_schema):
            for spec in schema.values():
                fields.update(spec.get("request", ()))
                fields.update(spec.get("response", ()))
        return fields

    @property
    def combined_schema(self) -> Dict[str, Dict[str, Tuple[str, ...]]]:
        """MESSAGE_SCHEMA and ADMIN_SCHEMA merged per op.

        ``stats`` lives in both tables (a backend stats request and the
        router's admin stats differ in reply shape), so overlapping ops
        union their field tuples rather than shadowing.
        """
        merged: Dict[str, Dict[str, Tuple[str, ...]]] = {
            op: dict(spec) for op, spec in self.message_schema.items()
        }
        for op, spec in self.admin_schema.items():
            if op not in merged:
                merged[op] = dict(spec)
                continue
            target = merged[op]
            for part, fields in spec.items():
                seen = dict.fromkeys(target.get(part, ()))
                seen.update(dict.fromkeys(fields))
                target[part] = tuple(seen)
        return merged

    # ------------------------------------------------------------------ #
    @classmethod
    def load(cls, package_root: Optional[Path] = None) -> "ContractIndex":
        """Extract the tables from the repro source tree.

        ``package_root`` is the ``repro`` package directory; defaults to
        the one this module lives in, so the linter always checks against
        the contracts of the tree it ships with.
        """
        root = package_root or Path(__file__).resolve().parent.parent
        events = root / "core" / "events.py"
        service = root / "service"
        contract_files = {
            events, root / "sim" / "backends.py", service / "protocol.py",
            service / "server.py", service / "router.py", service / "client.py",
        }
        # Each file is parsed once.  Import edges and callback fire sites
        # are read while its tree is alive; only the contract files' trees
        # are kept (an unreadable or unparsable file has none, and an
        # extractor given no tree returns empty).  Keeping every tree
        # would cost more than the parses it saves: the cyclic GC re-scans
        # all live nodes each time the heap grows.
        trees: Dict[Path, ast.Module] = {}
        fires: Dict[str, int] = {}
        imports: Set[Tuple[str, str]] = set()
        for path in sorted(root.rglob("*.py")):
            try:
                tree = ast.parse(path.read_text())
            except (OSError, SyntaxError):
                continue
            cls._extract_internal_imports(root, path, tree, imports)
            if path.parent in (root / "core", service) and path != events:
                cls._extract_callback_fires(tree, fires)
            if path in contract_files:
                trees[path] = tree
        callbacks = cls._extract_method_signatures(
            trees.get(events), "SearchCallback", prefix="on_"
        )
        backend = cls._extract_method_signatures(
            trees.get(root / "sim" / "backends.py"), "EvaluationBackend"
        )
        protocol = trees.get(service / "protocol.py")
        schema, nested = cls._extract_message_schema(protocol)
        admin = cls._extract_schema_literal(protocol, "ADMIN_SCHEMA")
        dispatch, methods = cls._extract_server_dispatch(
            trees.get(service / "server.py")
        )
        router_dispatch, router_methods = cls._extract_server_dispatch(
            trees.get(service / "router.py"), table_name="_ADMIN_HANDLERS"
        )
        constructors = cls._extract_client_constructors(
            trees.get(service / "client.py")
        )
        return cls(
            callbacks,
            backend,
            schema,
            nested,
            server_dispatch=dispatch,
            server_methods=methods,
            client_constructors=constructors,
            callback_fire_counts=fires,
            internal_imports=imports,
            admin_schema=admin,
            router_dispatch=router_dispatch,
            router_methods=router_methods,
        )

    # ------------------------------------------------------------------ #
    @staticmethod
    def _extract_method_signatures(
        tree: Optional[ast.Module], class_name: str, prefix: str = ""
    ) -> Dict[str, List[str]]:
        signatures: Dict[str, List[str]] = {}
        if tree is None:
            return signatures
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ClassDef) and node.name == class_name):
                continue
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if prefix and not item.name.startswith(prefix):
                    continue
                if item.name.startswith("__"):
                    continue
                signatures[item.name] = [arg.arg for arg in item.args.args]
            break
        return signatures

    @staticmethod
    def _extract_message_schema(
        tree: Optional[ast.Module],
    ) -> Tuple[Dict[str, Dict[str, Tuple[str, ...]]], Set[str]]:
        schema: Dict[str, Dict[str, Tuple[str, ...]]] = {}
        nested: Set[str] = set()
        if tree is None:
            return schema, nested
        for node in ast.walk(tree):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if not isinstance(target, ast.Name):
                    continue
                if target.id == "MESSAGE_SCHEMA":
                    try:
                        value = ast.literal_eval(node.value)
                    except ValueError:
                        continue
                    if isinstance(value, dict):
                        schema = {
                            str(op): {
                                str(k): tuple(v) for k, v in spec.items()
                            }
                            for op, spec in value.items()
                        }
                elif target.id == "NESTED_FIELDS":
                    try:
                        value = ast.literal_eval(node.value)
                    except ValueError:
                        continue
                    nested = {str(v) for v in value}
        return schema, nested

    @staticmethod
    def _extract_schema_literal(
        tree: Optional[ast.Module], name: str
    ) -> Dict[str, Dict[str, Tuple[str, ...]]]:
        """An op → field-spec table assigned to ``name`` as a pure literal."""
        schema: Dict[str, Dict[str, Tuple[str, ...]]] = {}
        if tree is None:
            return schema
        for node in ast.walk(tree):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if not (isinstance(target, ast.Name) and target.id == name):
                    continue
                try:
                    value = ast.literal_eval(node.value)
                except ValueError:
                    continue
                if isinstance(value, dict):
                    schema = {
                        str(op): {str(k): tuple(v) for k, v in spec.items()}
                        for op, spec in value.items()
                    }
        return schema

    @staticmethod
    def _extract_server_dispatch(
        tree: Optional[ast.Module], table_name: str = "_OP_HANDLERS"
    ) -> Tuple[Dict[str, str], Set[str]]:
        """A dispatch-table literal plus every method name in the file.

        Reads server.py's ``_OP_HANDLERS`` by default; the same shape
        extracts router.py's ``_ADMIN_HANDLERS`` (a class attribute —
        ``ast.walk`` reaches it either way).
        """
        dispatch: Dict[str, str] = {}
        methods: Set[str] = set()
        if tree is None:
            return dispatch, methods
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == table_name:
                        try:
                            value = ast.literal_eval(node.value)
                        except ValueError:
                            continue
                        if isinstance(value, dict):
                            dispatch = {
                                str(op): str(handler)
                                for op, handler in value.items()
                            }
        return dispatch, methods

    @staticmethod
    def _extract_client_constructors(tree: Optional[ast.Module]) -> Dict[str, int]:
        """How many ``{"op": <literal>, ...}`` dicts client.py builds per op.

        Subscript assignments (``hello["space"] = ...``) deliberately do
        not count — only whole-message dict literals are constructors.
        """
        constructors: Dict[str, int] = {}
        if tree is None:
            return constructors
        for node in ast.walk(tree):
            if not isinstance(node, ast.Dict):
                continue
            for key, value in zip(node.keys, node.values):
                if (
                    isinstance(key, ast.Constant)
                    and key.value == "op"
                    and isinstance(value, ast.Constant)
                    and isinstance(value.value, str)
                ):
                    constructors[value.value] = constructors.get(value.value, 0) + 1
        return constructors

    @staticmethod
    def _extract_callback_fires(tree: ast.Module, counts: Dict[str, int]) -> None:
        """Add one file's ``<recv>.on_*(...)`` dispatch sites to ``counts``.

        :meth:`load` calls it on core/ and service/ modules except
        ``core/events.py``: its ``CallbackList`` fans every hook out to
        subscribers, so counting it would satisfy the
        every-hook-has-a-fire-site direction for free.
        """
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr.startswith("on_")
            ):
                hook = node.func.attr
                counts[hook] = counts.get(hook, 0) + 1

    @staticmethod
    def _extract_internal_imports(
        root: Path, path: Path, tree: ast.Module, pairs: Set[Tuple[str, str]]
    ) -> None:
        """Add one file's ``(importer_module, imported_target)`` pairs.

        Modules are named relative to ``root`` (the ``repro`` package
        directory) so fixture trees work too; only targets inside the
        repro namespace are kept.
        """
        rel = path.relative_to(root)
        mod_parts = ["repro"] + list(rel.parts)
        last = mod_parts[-1]
        if last == "__init__.py":
            mod_parts = mod_parts[:-1]
        else:
            mod_parts[-1] = last[: -len(".py")]
        module = ".".join(mod_parts)
        is_package = path.name == "__init__.py"
        for node in ast.walk(tree):
            targets: List[Optional[str]] = []
            if isinstance(node, ast.Import):
                targets = [item.name for item in node.names]
            elif isinstance(node, ast.ImportFrom):
                targets = [absolute_import_target(module, is_package, node)]
            for target in targets:
                if target is None:
                    continue
                if target == "repro" or target.startswith("repro."):
                    pairs.add((module, target))
