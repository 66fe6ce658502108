"""Hygiene rules: cheap-to-check habits with expensive failure modes.

Mutable default arguments alias state across calls (a classic source of
cross-test contamination in long-lived engines), and imports that run
*against* the layer order (e.g. ``repro.sim`` importing
``repro.service``) create cycles that only surface as ImportErrors under
specific import orders.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Optional, Tuple

from ..context import FileContext, absolute_import_target
from ..findings import Finding
from ..fixes import Fix, TextEdit, node_char_span
from ..registry import Rule, register

__all__ = [
    "MutableDefaultRule",
    "LayerImportRule",
    "LayerRankUnusedRule",
    "LAYERS",
]

_MUTABLE_CALLS = ("list", "dict", "set", "defaultdict", "OrderedDict", "Counter", "deque")


@register
class MutableDefaultRule(Rule):
    rule_id = "mutable-default"
    title = "no mutable default argument values"
    rationale = (
        "a list/dict/set default is evaluated once and shared by every "
        "call — callback histories and backend caches would bleed state "
        "across engine instances; default to None (or a tuple) and "
        "construct inside."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for arg_name, default in self._defaulted_args(node):
                if self._is_mutable(ctx, default):
                    yield self.finding(
                        ctx, default,
                        f"mutable default in {node.name}() is shared across "
                        "calls — default to None and construct in the body",
                        fix=self._fix(ctx, node, arg_name, default),
                    )

    @staticmethod
    def _defaulted_args(
        node: ast.AST,
    ) -> List[Tuple[str, ast.AST]]:
        """``(arg_name, default_expr)`` pairs, positional and kw-only."""
        args = node.args
        positional = list(getattr(args, "posonlyargs", [])) + list(args.args)
        pairs: List[Tuple[str, ast.AST]] = []
        if args.defaults:
            for arg, default in zip(positional[-len(args.defaults):], args.defaults):
                pairs.append((arg.arg, default))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                pairs.append((arg.arg, default))
        return pairs

    def _fix(
        self, ctx: FileContext, fn: ast.AST, arg_name: str, default: ast.AST
    ) -> Optional[Fix]:
        """Replace the default with ``None`` and guard-construct in the body.

        No fix when the body shares a line with the ``def`` or is only a
        docstring — there is no clean line to put the guard on.
        """
        anchor = None
        for stmt in fn.body:
            if (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str)
            ):
                continue  # docstring
            anchor = stmt
            break
        if anchor is None:
            return None
        span = node_char_span(ctx.source, default)
        anchor_span = node_char_span(ctx.source, anchor)
        if span is None or anchor_span is None:
            return None
        lines = ctx.source.splitlines()
        anchor_line, anchor_col = anchor_span[0], anchor_span[1]
        if lines[anchor_line - 1][:anchor_col].strip():
            return None  # single-line body: `def f(x=[]): return x`
        segment = ast.get_source_segment(ctx.source, default)
        if segment is None:
            return None
        indent = " " * anchor_col
        guard = (
            f"{indent}if {arg_name} is None:\n"
            f"{indent}    {arg_name} = {segment}\n"
        )
        return Fix(
            "mutable-default-none",
            (
                TextEdit(span[0], span[1], span[2], span[3], "None"),
                TextEdit(anchor_line, 0, anchor_line, 0, guard),
            ),
            f"default {arg_name} to None and construct it in the body",
        )

    @staticmethod
    def _is_mutable(ctx: FileContext, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = None
            if isinstance(node.func, ast.Name):
                name = node.func.id
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
            return name in _MUTABLE_CALLS
        return False


#: The layer order, lowest first.  An import is legal when the importing
#: module's rank is >= the imported module's rank (you may look *down*
#: the stack, never up).  Ranks are derived from the actual dependency
#: graph of the tree; ``repro`` top-level modules (cli, __main__) sit at
#: the top and may import anything.
LAYERS = {
    "repro.ioutil": 0,
    "repro.nn": 0,
    "repro.analysis": 0,
    "repro.graph": 1,
    "repro.rl": 2,
    "repro.sim": 3,
    "repro.grouping": 4,
    "repro.placement": 5,
    "repro.core": 6,
    "repro.service": 7,
    "repro.bench": 8,
    "repro": 9,
}


def _layer_rank(module: str) -> Optional[int]:
    """Rank by longest matching package prefix; None for non-repro modules."""
    best: Optional[int] = None
    best_len = -1
    for prefix, rank in LAYERS.items():
        if module == prefix or module.startswith(prefix + "."):
            if len(prefix) > best_len:
                best, best_len = rank, len(prefix)
    return best


def _layer_name(module: str) -> str:
    best = module
    best_len = -1
    for prefix in LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            if len(prefix) > best_len:
                best, best_len = prefix, len(prefix)
    return best


@register
class LayerImportRule(Rule):
    rule_id = "layer-import"
    title = "imports must respect the layer order"
    rationale = (
        "an upward import (sim → service) makes the layering cyclic: the "
        "cycle only breaks under one import order, and the next refactor "
        "that changes import order ships an ImportError; lower layers "
        "must stay importable standalone."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.module is None:
            return
        importer_rank = _layer_rank(ctx.module)
        if importer_rank is None:
            return
        is_package = ctx.path.endswith("__init__.py")
        for node in ctx.nodes:
            if isinstance(node, ast.Import):
                for item in node.names:
                    yield from self._check_target(ctx, node, importer_rank, item.name)
            elif isinstance(node, ast.ImportFrom):
                target = absolute_import_target(ctx.module, is_package, node)
                if target is not None:
                    yield from self._check_target(ctx, node, importer_rank, target)

    def _check_target(
        self, ctx: FileContext, node: ast.AST, importer_rank: int, target: str
    ) -> Iterator[Finding]:
        if not (target == "repro" or target.startswith("repro.")):
            return
        imported_rank = _layer_rank(target)
        if imported_rank is None or imported_rank <= importer_rank:
            return
        yield self.finding(
            ctx, node,
            f"{_layer_name(ctx.module)} (layer {importer_rank}) imports "
            f"{_layer_name(target)} (layer {imported_rank}) — imports must "
            "point down the layer order",
        )


@register
class LayerRankUnusedRule(Rule):
    rule_id = "layer-rank-unused"
    title = "every layer-rank separation must be exercised by an import"
    rationale = (
        "a rank boundary no import crosses is a claim the dependency "
        "graph no longer makes — it silently licenses future imports the "
        "architecture never needed, and drifts the table away from the "
        "tree it is supposed to describe; merge the ranks or re-justify "
        "the separation."
    )

    #: The rule fires only on the module that owns the rank table — one
    #: anchored finding per stale boundary, same idiom as
    #: ``protocol-dispatch`` anchoring on ``MESSAGE_SCHEMA``.
    _HOME_MODULE = "repro.analysis.rules.hygiene"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.module != self._HOME_MODULE:
            return
        pairs = ctx.contracts.internal_imports
        if not pairs:
            return  # source tree unavailable — nothing to prove against
        anchor = self._layers_assignment(ctx.nodes)
        if anchor is None:
            return
        crossings = []
        for importer, imported in pairs:
            importer_rank = _layer_rank(importer)
            imported_rank = _layer_rank(imported)
            if importer_rank is not None and imported_rank is not None:
                crossings.append((importer_rank, imported_rank))
        ranks = sorted(set(LAYERS.values()))
        for low, high in zip(ranks, ranks[1:]):
            exercised = any(
                importer_rank >= high and imported_rank <= low
                for importer_rank, imported_rank in crossings
            )
            if not exercised:
                yield self.finding(
                    ctx, anchor,
                    f"no import crosses the boundary between rank {low} "
                    f"({self._rank_members(low)}) and rank {high} "
                    f"({self._rank_members(high)}) — the separation is "
                    "unexercised; merge the ranks or remove the stale entry",
                )

    @staticmethod
    def _layers_assignment(nodes: Iterable[ast.AST]) -> Optional[ast.AST]:
        for node in nodes:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == "LAYERS":
                        return node
        return None

    @staticmethod
    def _rank_members(rank: int) -> str:
        members = sorted(pkg for pkg, r in LAYERS.items() if r == rank)
        return ", ".join(members)
