"""Determinism rules: the bit-for-bit reproducibility invariants.

The repo's load-bearing guarantee is that Serial/Memo/Remote
backends and fault-injected runs produce identical results per seed.
Everything that can silently break that falls into three classes, each a
rule here: reading real-world clocks/entropy, drawing from unseeded or
global RNG state, and letting set iteration order reach an
ordering-sensitive computation.  The rules apply only inside the
deterministic core (:data:`DETERMINISM_PACKAGES`) — tests, examples and
the CLI may touch wall clocks freely.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from ..context import FileContext
from ..findings import Finding
from ..fixes import wrap_node_fix
from ..registry import Rule, register

__all__ = ["DETERMINISM_PACKAGES", "WallClockRule", "UnseededRngRule", "SetIterationRule"]

#: Packages whose code must be bit-for-bit deterministic per seed.  The
#: simulated environment owns the only clock (``env_time`` plus the
#: simulated ``wall_time`` channel) and every RNG is an explicitly seeded
#: ``numpy.random.Generator``.
DETERMINISM_PACKAGES = (
    "repro.sim",
    "repro.graph",
    "repro.grouping",
    "repro.placement",
    "repro.rl",
    "repro.core",
    "repro.service",
)

#: Real-world clock / entropy reads that must never appear in the
#: deterministic core.  Simulated time lives on the environment clock and
#: the engine's ``wall_time`` channel instead.
BANNED_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "time.sleep",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.randbelow",
        "secrets.choice",
    }
)

#: ``numpy.random`` attributes that are legal because they *construct*
#: seeded generator state rather than drawing from the hidden global
#: stream.  Zero-argument construction still seeds from OS entropy and is
#: flagged separately.
_SEEDABLE_NUMPY_CONSTRUCTORS = frozenset(
    {"default_rng", "SeedSequence", "PCG64", "MT19937", "Philox", "SFC64"}
)
_ALWAYS_OK_NUMPY = frozenset({"Generator", "BitGenerator"})


@register
class WallClockRule(Rule):
    rule_id = "wall-clock"
    title = "no wall-clock or OS-entropy reads in the deterministic core"
    rationale = (
        "PR 2's straggler latency and PR 3's timeouts both nearly routed "
        "real time into simulated accounting; one time.time() in a sim "
        "path makes two same-seed runs diverge."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_packages(DETERMINISM_PACKAGES):
            return
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve(node.func)
            if resolved in BANNED_CLOCK_CALLS:
                yield self.finding(
                    ctx, node,
                    f"call to {resolved}() in the deterministic core — use the "
                    "environment clock (env_time) or the engine's simulated "
                    "wall_time channel instead",
                )


@register
class UnseededRngRule(Rule):
    rule_id = "unseeded-rng"
    title = "all randomness must flow through explicitly seeded Generators"
    rationale = (
        "module-level random.*/np.random.* calls draw from hidden global "
        "state: any import-order or call-count change reshuffles every "
        "seed-sensitive comparison (the bug class PR 1's backend split "
        "had to design around)."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_packages(DETERMINISM_PACKAGES):
            return
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve(node.func)
            if resolved is None:
                continue
            message = self._violation(resolved, node)
            if message is not None:
                yield self.finding(ctx, node, message)

    @staticmethod
    def _violation(resolved: str, node: ast.Call) -> Optional[str]:
        has_args = bool(node.args or node.keywords)
        if resolved == "random" or resolved.startswith("random."):
            tail = resolved.split(".", 1)[1] if "." in resolved else "random"
            if tail == "Random" and has_args:
                return None  # seeded stdlib Random instance
            return (
                f"stdlib {resolved}() uses the process-global (or OS-entropy) "
                "RNG state — use a seeded numpy.random.Generator"
            )
        if resolved.startswith("numpy.random."):
            tail = resolved[len("numpy.random."):]
            if tail in _ALWAYS_OK_NUMPY:
                return None
            if tail in _SEEDABLE_NUMPY_CONSTRUCTORS:
                if not has_args:
                    return (
                        f"numpy.random.{tail}() without a seed draws OS "
                        "entropy — pass an explicit seed or SeedSequence"
                    )
                return None
            return (
                f"numpy.random.{tail}() draws from the hidden global numpy "
                "stream — use a seeded numpy.random.Generator method instead"
            )
        return None


#: Calls through which set iteration order becomes an observable ordering.
_ORDER_SENSITIVE_CALLS = frozenset(
    {"list", "tuple", "enumerate", "zip", "iter", "next", "map", "filter", "reversed"}
)


@register
class SetIterationRule(Rule):
    rule_id = "set-iteration"
    severity = "warning"
    title = "set iteration must not feed ordering-sensitive sinks"
    rationale = (
        "set order is an implementation detail (and hash-seed dependent "
        "for str members); an edge set iterated into a float accumulation "
        "or a wire message silently reorders results between runs — the "
        "latent bug class behind OpGraph's ordered edges() accessor."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_packages(DETERMINISM_PACKAGES):
            return
        set_names = self._annotated_set_names(ctx)
        set_attrs = self._annotated_set_attrs(ctx)
        inferred = self._inferred_set_names(ctx)
        names = set_names | inferred

        def is_set_expr(node: ast.AST) -> bool:
            if isinstance(node, (ast.Set, ast.SetComp)):
                return True
            if isinstance(node, ast.Call):
                resolved = ctx.resolve(node.func)
                if resolved in ("set", "frozenset"):
                    return True
                if isinstance(node.func, ast.Attribute) and node.func.attr in (
                    "union", "intersection", "difference", "symmetric_difference", "copy"
                ):
                    return is_set_expr(node.func.value)
                return False
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
            ):
                return is_set_expr(node.left) or is_set_expr(node.right)
            if isinstance(node, ast.Name):
                return node.id in names
            if isinstance(node, ast.Attribute):
                return node.attr in set_attrs
            return False

        def describe(node: ast.AST) -> str:
            try:
                return ast.unparse(node)
            except Exception:
                return "a set"

        def sorted_wrap(expr: ast.AST):
            return wrap_node_fix(
                "set-iteration-sorted", ctx.source, expr, "sorted(", ")",
                "iterate a sorted() copy for a defined order",
            )

        for node in ctx.nodes:
            if isinstance(node, (ast.For, ast.AsyncFor)) and is_set_expr(node.iter):
                yield self.finding(
                    ctx, node,
                    f"iterating the set {describe(node.iter)!r} — iteration "
                    "order is unspecified; iterate a sorted() copy or an "
                    "insertion-ordered structure",
                    fix=sorted_wrap(node.iter),
                )
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for gen in node.generators:
                    if is_set_expr(gen.iter):
                        yield self.finding(
                            ctx, node,
                            f"comprehension over the set {describe(gen.iter)!r} — "
                            "iteration order is unspecified; use sorted() or an "
                            "insertion-ordered structure",
                            fix=sorted_wrap(gen.iter),
                        )
            elif isinstance(node, ast.Call):
                resolved = ctx.resolve(node.func)
                sink = None
                if resolved in _ORDER_SENSITIVE_CALLS:
                    sink = resolved
                elif isinstance(node.func, ast.Attribute) and node.func.attr == "join":
                    sink = "join"
                if sink is None:
                    continue
                for arg in node.args:
                    if is_set_expr(arg):
                        yield self.finding(
                            ctx, node,
                            f"{sink}() over the set {describe(arg)!r} exposes "
                            "unspecified iteration order — sort first or keep "
                            "an ordered sibling structure",
                            fix=sorted_wrap(arg),
                        )

    @staticmethod
    def _is_set_annotation(annotation: ast.AST) -> bool:
        target = annotation
        if isinstance(target, ast.Subscript):
            target = target.value
        if isinstance(target, ast.Name):
            return target.id in ("set", "Set", "frozenset", "FrozenSet", "AbstractSet", "MutableSet")
        if isinstance(target, ast.Attribute):
            return target.attr in ("Set", "FrozenSet", "AbstractSet", "MutableSet")
        return False

    def _annotated_set_names(self, ctx: FileContext) -> Set[str]:
        names: Set[str] = set()
        for node in ctx.nodes:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                if self._is_set_annotation(node.annotation):
                    names.add(node.target.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for arg in list(node.args.args) + list(node.args.kwonlyargs):
                    if arg.annotation is not None and self._is_set_annotation(arg.annotation):
                        names.add(arg.arg)
        return names

    def _annotated_set_attrs(self, ctx: FileContext) -> Set[str]:
        attrs: Set[str] = set()
        for node in ctx.nodes:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Attribute):
                if self._is_set_annotation(node.annotation):
                    attrs.add(node.target.attr)
        return attrs

    @staticmethod
    def _inferred_set_names(ctx: FileContext) -> Set[str]:
        """Names assigned a syntactic set expression anywhere in the file."""
        names: Set[str] = set()
        for node in ctx.nodes:
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            value = node.value
            if isinstance(value, (ast.Set, ast.SetComp)):
                names.add(target.id)
            elif isinstance(value, ast.Call):
                resolved = resolve_call_name(ctx, value)
                if resolved in ("set", "frozenset"):
                    names.add(target.id)
            elif isinstance(value, ast.BinOp) and isinstance(
                value.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
            ):
                for side in (value.left, value.right):
                    if isinstance(side, ast.Call) and resolve_call_name(ctx, side) in (
                        "set", "frozenset"
                    ):
                        names.add(target.id)
                        break
        return names


def resolve_call_name(ctx: FileContext, node: ast.Call) -> Optional[str]:
    resolved = ctx.resolve(node.func)
    if resolved is not None:
        return resolved
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None
