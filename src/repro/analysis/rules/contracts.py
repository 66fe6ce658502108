"""Contract rules: interfaces that drift silently at runtime.

Three duck-typed seams in the codebase have no compiler to keep them
honest: the :class:`SearchCallback` event hooks (a misspelled or
re-ordered ``on_*`` override is simply never called, or crashes mid-run),
the :class:`EvaluationBackend` protocol (``isinstance`` checks against a
``runtime_checkable`` Protocol verify method *names* only), and the
newline-delimited JSON wire protocol (an unknown field is dropped on the
floor by ``.get()``).  Each rule cross-checks subclasses / claimants /
message literals against the contract tables in
:class:`~repro.analysis.context.ContractIndex`, which are AST-extracted
from the definition sites — so the contracts self-update when the
definitions change.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Optional, Set, Tuple

from ..context import FileContext
from ..findings import Finding
from ..registry import Rule, register

__all__ = [
    "CallbackSignatureRule",
    "CallbackHookRule",
    "BackendProtocolRule",
    "ProtocolSchemaRule",
    "ProtocolDispatchRule",
]

#: Base-class name whose subclasses must match the hook signatures.
_CALLBACK_BASES = ("SearchCallback",)
#: Protocol name whose claimants must define the full surface.
_BACKEND_PROTOCOL = "EvaluationBackend"
#: Methods a backend may add beyond the Protocol surface; ``prepare_batch``
#: is the engine's optional pre-dispatch hook and must take (self, placements)
#: when present.
_OPTIONAL_BACKEND_METHODS = {"prepare_batch": ["self", "placements"]}


def _base_names(node: ast.ClassDef) -> List[str]:
    names: List[str] = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return names


def _positional_params(fn: ast.FunctionDef) -> List[str]:
    return [arg.arg for arg in fn.args.args]


@register
class CallbackSignatureRule(Rule):
    rule_id = "callback-signature"
    title = "SearchCallback overrides must match the base hook signatures"
    rationale = (
        "the engine dispatches hooks positionally and swallows nothing: a "
        "drifted on_measurement(self, engine, sample) override raises "
        "TypeError twenty minutes into a search, and a misnamed hook is "
        "silently never called."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        base_sigs = ctx.contracts.callback_signatures
        if not base_sigs:
            return
        for node in ctx.nodes:
            if not isinstance(node, ast.ClassDef):
                continue
            if not any(b in _CALLBACK_BASES for b in _base_names(node)):
                continue
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if not item.name.startswith("on_"):
                    continue
                expected = base_sigs.get(item.name)
                if expected is None:
                    close = ", ".join(sorted(base_sigs))
                    yield self.finding(
                        ctx, item,
                        f"{node.name}.{item.name} overrides no SearchCallback "
                        f"hook — it will never be called (hooks: {close})",
                    )
                    continue
                actual = _positional_params(item)
                if actual != expected:
                    yield self.finding(
                        ctx, item,
                        f"{node.name}.{item.name}({', '.join(actual)}) drifts "
                        f"from the base hook signature "
                        f"({', '.join(expected)}) — the engine calls hooks "
                        "positionally",
                    )


@register
class CallbackHookRule(Rule):
    rule_id = "callback-hook"
    title = "engine dispatch sites and SearchCallback hooks must match both ways"
    rationale = (
        "callback-signature keeps *overrides* honest but says nothing "
        "about the fire sites: an engine dispatching a misspelled hook "
        "raises AttributeError mid-search, and a hook nothing fires is "
        "dead API that overriders still pay to implement; the two tables "
        "must stay in bijection."
    )

    #: Where ``on_*`` dispatch sites are checked against the hook table.
    _SCOPE = ("repro.core", "repro.service")
    #: The every-hook-fires direction reports deterministically from the
    #: hook definition site, anchored at the SearchCallback class.
    _HOME_MODULE = "repro.core.events"
    _BASE_CLASS = "SearchCallback"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        hooks = ctx.contracts.callback_signatures
        if not hooks:
            return
        if ctx.in_packages(self._SCOPE):
            yield from self._check_dispatch_sites(ctx, hooks)
        if ctx.module == self._HOME_MODULE:
            yield from self._check_hooks_fire(ctx, hooks)

    # ------------------------------------------------------------------ #
    def _check_dispatch_sites(self, ctx: FileContext, hooks) -> Iterator[Finding]:
        """Every ``<recv>.on_*(...)`` call must name a hook, at hook arity."""
        for node in ctx.nodes:
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr.startswith("on_")
            ):
                continue
            name = node.func.attr
            expected = hooks.get(name)
            if expected is None:
                yield self.finding(
                    ctx, node,
                    f"dispatch of {name}() names no SearchCallback hook — "
                    "subscribers can never receive it "
                    f"(hooks: {', '.join(sorted(hooks))})",
                )
                continue
            if node.keywords or any(isinstance(a, ast.Starred) for a in node.args):
                continue  # computed call shape: arity not statically known
            want = len(expected) - 1  # minus self
            if len(node.args) != want:
                yield self.finding(
                    ctx, node,
                    f"dispatch of {name}() passes {len(node.args)} "
                    f"argument(s) but the hook takes {want} "
                    f"({', '.join(expected[1:])}) — positional dispatch "
                    "breaks every subscriber at once",
                )

    def _check_hooks_fire(self, ctx: FileContext, hooks) -> Iterator[Finding]:
        """Every SearchCallback hook needs ≥1 engine fire site."""
        fires = ctx.contracts.callback_fire_counts
        if not fires:
            return  # fire-site extraction had no tree to read
        anchor = self._callback_class(ctx.nodes)
        if anchor is None:
            return
        for name in sorted(hooks):
            if fires.get(name, 0) == 0:
                yield self.finding(
                    ctx, anchor,
                    f"SearchCallback.{name} has no dispatch site in "
                    "repro.core/repro.service — a hook nothing fires is "
                    "dead API; wire it into the engine or delete it",
                )

    @staticmethod
    def _callback_class(nodes: Iterable[ast.AST]) -> Optional[ast.AST]:
        for node in nodes:
            if isinstance(node, ast.ClassDef) and node.name == CallbackHookRule._BASE_CLASS:
                return node
        return None


@register
class BackendProtocolRule(Rule):
    rule_id = "backend-protocol"
    title = "EvaluationBackend claimants must define the full protocol surface"
    rationale = (
        "the Protocol is runtime_checkable, which verifies method *names* "
        "only; a backend with a drifted evaluate_batch signature passes "
        "isinstance and fails inside the search loop."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        surface = ctx.contracts.backend_methods
        if not surface:
            return
        for node in ctx.nodes:
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name == _BACKEND_PROTOCOL:
                continue
            if not self._claims_backend(node):
                continue
            methods = {
                item.name: item
                for item in node.body
                if isinstance(item, ast.FunctionDef)
            }
            for name, expected in sorted(surface.items()):
                fn = methods.get(name)
                if fn is None:
                    yield self.finding(
                        ctx, node,
                        f"{node.name} claims EvaluationBackend but does not "
                        f"define {name}({', '.join(expected)})",
                    )
                    continue
                actual = _positional_params(fn)
                if actual != expected:
                    yield self.finding(
                        ctx, fn,
                        f"{node.name}.{name}({', '.join(actual)}) drifts from "
                        f"the EvaluationBackend surface ({', '.join(expected)})",
                    )
            for name, expected in sorted(_OPTIONAL_BACKEND_METHODS.items()):
                fn = methods.get(name)
                if fn is None:
                    continue
                actual = _positional_params(fn)
                if actual != expected:
                    yield self.finding(
                        ctx, fn,
                        f"{node.name}.{name}({', '.join(actual)}) drifts from "
                        f"the optional backend hook signature "
                        f"({', '.join(expected)}) — the engine calls it "
                        "positionally when present",
                    )

    @staticmethod
    def _claims_backend(node: ast.ClassDef) -> bool:
        """A class claims the protocol nominally or structurally.

        Nominal subclassing of a Protocol is optional in the codebase
        (SerialBackend et al. are structural claimants), so a class also
        claims the surface when it defines ``evaluate_batch`` — the
        protocol's defining method.
        """
        if _BACKEND_PROTOCOL in _base_names(node):
            return True
        return any(
            isinstance(item, ast.FunctionDef) and item.name == "evaluate_batch"
            for item in node.body
        )


@register
class ProtocolSchemaRule(Rule):
    rule_id = "protocol-schema"
    title = "wire messages must match the protocol schema table"
    rationale = (
        "the wire layer reads fields with .get(): a constructor writing "
        "an unknown key or a handler reading a misspelled one produces "
        "None-shaped bugs on the far side of a socket, where tracebacks "
        "do not reach the client."
    )

    #: Only the wire layer itself is checked — tests deliberately build
    #: malformed messages to exercise error paths.
    _SCOPE = ("repro.service",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.contracts.message_schema or not ctx.in_packages(self._SCOPE):
            return
        # Admin ops ride the same wire: a literal is checked against the
        # union of MESSAGE_SCHEMA and ADMIN_SCHEMA (overlapping ops like
        # "stats" merge their field tuples).
        schema = ctx.contracts.combined_schema
        known_fields = ctx.contracts.all_wire_fields
        for node in ctx.nodes:
            if isinstance(node, ast.Dict):
                yield from self._check_message_literal(ctx, node, schema, known_fields)
            elif isinstance(node, ast.Call):
                yield from self._check_get_access(ctx, node, known_fields)

    # ------------------------------------------------------------------ #
    def _check_message_literal(
        self, ctx: FileContext, node: ast.Dict, schema, known_fields: Set[str]
    ) -> Iterator[Finding]:
        keys = self._literal_keys(node)
        if keys is None:
            return
        key_names = [k for k, _ in keys]
        if "op" not in key_names:
            return
        op_value = self._op_value(node)
        if op_value is not None:
            spec = schema.get(op_value)
            if spec is None:
                yield self.finding(
                    ctx, node,
                    f"message literal uses unknown op {op_value!r} "
                    f"(schema ops: {', '.join(sorted(schema))})",
                )
                return
            allowed = set(spec.get("request", ())) | set(spec.get("response", ()))
            for key, key_node in keys:
                if key not in allowed:
                    yield self.finding(
                        ctx, key_node,
                        f"field {key!r} is not in the {op_value!r} message "
                        f"schema (allowed: {', '.join(sorted(allowed))})",
                    )
        else:
            # op is computed (e.g. echoing a variable); fall back to the
            # union of all wire fields.
            for key, key_node in keys:
                if key not in known_fields:
                    yield self.finding(
                        ctx, key_node,
                        f"field {key!r} is not in any wire message schema",
                    )

    def _check_get_access(
        self, ctx: FileContext, node: ast.Call, known_fields: Set[str]
    ) -> Iterator[Finding]:
        """Flag ``msg.get("unknown-field")`` reads in the wire layer."""
        if not (isinstance(node.func, ast.Attribute) and node.func.attr == "get"):
            return
        if not node.args:
            return
        key = node.args[0]
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
            return
        # Only flag keys that look like wire fields: reads from dicts named
        # like messages (or like an ``evaluate_batch`` result item).
        # Anything else (config dicts, kwargs) is out of scope.
        owner = node.func.value
        owner_name = owner.id if isinstance(owner, ast.Name) else None
        if owner_name not in ("message", "msg", "request", "response", "reply", "result"):
            return
        if key.value not in known_fields:
            yield self.finding(
                ctx, node,
                f"read of unknown wire field {key.value!r} from "
                f"{owner_name} — not in the protocol schema",
            )

    @staticmethod
    def _op_value(node: ast.Dict) -> Optional[str]:
        """The literal string value of the ``"op"`` entry, if it is one."""
        for key, value in zip(node.keys, node.values):
            if (
                isinstance(key, ast.Constant)
                and key.value == "op"
                and isinstance(value, ast.Constant)
                and isinstance(value.value, str)
            ):
                return value.value
        return None

    @staticmethod
    def _literal_keys(node: ast.Dict) -> Optional[List[Tuple[str, ast.AST]]]:
        """String keys of a dict literal; None when any key is dynamic."""
        keys: List[Tuple[str, ast.AST]] = []
        for key in node.keys:
            if key is None:  # **spread
                return None
            if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                return None
            keys.append((key.value, key))
        return keys


@register
class ProtocolDispatchRule(Rule):
    rule_id = "protocol-dispatch"
    title = "every schema op needs one server handler and one client constructor"
    rationale = (
        "the schema, the server's _OP_HANDLERS table, and the client's "
        "request constructors live in three files: an op added to the "
        "schema but not dispatched answers 'unknown op' at runtime, a "
        "dispatch entry naming a missing method crashes the handler "
        "thread, and a second client constructor for the same op is a "
        "fork of the wire format waiting to drift.  The router's admin "
        "plane (ADMIN_SCHEMA vs router.py's _ADMIN_HANDLERS) is held to "
        "the same bijection."
    )

    #: The rule cross-checks three files but must report deterministically
    #: from one: it fires while linting the schema's own module, anchored
    #: at the ``MESSAGE_SCHEMA`` assignment.
    _HOME_MODULE = "repro.service.protocol"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.module != self._HOME_MODULE:
            return
        schema = ctx.contracts.message_schema
        dispatch = ctx.contracts.server_dispatch
        constructors = ctx.contracts.client_constructors
        if not schema or not dispatch or not constructors:
            # A contract source was unreadable (e.g. a fixture tree with
            # no server/client); silence beats guessing.
            return
        anchor = self._schema_assign(ctx.nodes)
        if anchor is None:
            return
        methods = ctx.contracts.server_methods
        for op in sorted(schema):
            handler = dispatch.get(op)
            if handler is None:
                yield self.finding(
                    ctx, anchor,
                    f"schema op {op!r} has no entry in the server's "
                    "_OP_HANDLERS dispatch table — requests answer "
                    "'unknown op'",
                )
            elif methods and handler not in methods:
                yield self.finding(
                    ctx, anchor,
                    f"schema op {op!r} dispatches to {handler!r}, which "
                    "server.py does not define",
                )
            count = constructors.get(op, 0)
            if count != 1:
                detail = (
                    "no client request constructor"
                    if count == 0
                    else f"{count} client request constructors"
                )
                yield self.finding(
                    ctx, anchor,
                    f"schema op {op!r} has {detail} in client.py — "
                    "exactly one dict literal per op keeps the wire "
                    "format single-sourced",
                )
        for op in sorted(set(dispatch) - set(schema)):
            yield self.finding(
                ctx, anchor,
                f"server _OP_HANDLERS dispatches unknown op {op!r} — "
                "not in MESSAGE_SCHEMA",
            )
        yield from self._check_admin_plane(ctx)

    def _check_admin_plane(self, ctx: FileContext) -> Iterator[Finding]:
        """ADMIN_SCHEMA ↔ router _ADMIN_HANDLERS, same bijection.

        Admin ops have no client-constructor leg: :func:`router_admin`
        forwards caller-built messages, and the CLI is outside the wire
        layer.  Both tables empty → a fixture tree without an admin
        plane; silence beats guessing.
        """
        admin = ctx.contracts.admin_schema
        dispatch = ctx.contracts.router_dispatch
        if not admin or not dispatch:
            return
        anchor = self._named_assign(ctx.nodes, "ADMIN_SCHEMA") or self._schema_assign(
            ctx.nodes
        )
        if anchor is None:
            return
        methods = ctx.contracts.router_methods
        for op in sorted(admin):
            handler = dispatch.get(op)
            if handler is None:
                yield self.finding(
                    ctx, anchor,
                    f"admin op {op!r} has no entry in the router's "
                    "_ADMIN_HANDLERS table — admin requests answer "
                    "'unknown op'",
                )
            elif methods and handler not in methods:
                yield self.finding(
                    ctx, anchor,
                    f"admin op {op!r} dispatches to {handler!r}, which "
                    "router.py does not define",
                )
        for op in sorted(set(dispatch) - set(admin)):
            yield self.finding(
                ctx, anchor,
                f"router _ADMIN_HANDLERS dispatches unknown op {op!r} — "
                "not in ADMIN_SCHEMA",
            )

    @staticmethod
    def _schema_assign(nodes: Iterable[ast.AST]) -> Optional[ast.AST]:
        return ProtocolDispatchRule._named_assign(nodes, "MESSAGE_SCHEMA")

    @staticmethod
    def _named_assign(nodes: Iterable[ast.AST], name: str) -> Optional[ast.AST]:
        for node in nodes:
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return node
        return None
