"""Per-layer timing of tensorcut from outside the package.

The package's modules import each other's functions by name, so a function
is reachable through several bindings: its own module attribute, the
attributes of every module that did ``from .x import f``, and module-level
tables such as the harness's check dispatch dict.  ``Tracer.install`` puts a
wrapper at every one of those bindings and ``Tracer.uninstall`` puts the
originals back.

Each wrapped call is a span.  A span's self time is its duration minus the
duration of the spans it caused, so nested layers (check -> classify ->
product / max-flow) are each charged only for their own work.  Functions
that are not wrapped (the ``graphs`` module, small helpers of ``product``
and ``dense``) count as self time of whichever wrapped caller ran them.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict
from typing import Callable

# (defining module, public function) -> span kind.  These are the entry
# points one layer calls in another; functions used only inside their own
# layer (canonical_key, read_graph6, ...) stay unwrapped to keep overhead low.
TRACED = {
    ("tensorcut.catalog", "all_graphs"): "catalog",
    ("tensorcut.catalog", "connected_graphs"): "catalog",
    ("tensorcut.graph6", "emit_graph6"): "graph6",
    ("tensorcut.graph6", "parse_graph6"): "graph6",
    ("tensorcut.graph6", "load_graph6_file"): "graph6",
    ("tensorcut.product", "direct_product"): "product",
    ("tensorcut.product", "fibers_contained"): "product.fibers",
    ("tensorcut.mincut", "edge_connectivity"): "mincut.flow",
    ("tensorcut.mincut", "enumerate_min_cuts"): "mincut.enum",
    ("tensorcut.mincut", "edge_connectivity_subset"): "mincut.subset",
    ("tensorcut.mincut", "is_vertex_star"): "mincut.star",
    ("tensorcut.dense", "kappa_formula"): "dense.formula",
    ("tensorcut.dense", "kappa_formula_kn"): "dense.formula",
    ("tensorcut.dense", "is_super_edge_connected_kn"): "dense.formula",
    ("tensorcut.dense", "classify_min_cut"): "dense.classify",
    ("tensorcut.harness", "run_campaign"): "harness.campaign",
    ("tensorcut.harness", "write_jsonl"): "harness.report",
    ("tensorcut.harness", "_cached_enumeration"): "harness.cache",
}

# Per-check spans come from the harness's dispatch table, keyed by check name.
CHECK_TABLE = ("tensorcut.harness", "_CHECK_FUNCS")

CHECK_NAMES = ("theorem1", "corollary1", "theorem2", "corollary2", "weichsel", "lemma2")

Binding = tuple[object, str, object]  # (module or dict, name or key, original)


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "tensorcut" or name.startswith("tensorcut."))]


def rebind(replacements: dict[int, tuple[object, object]]) -> list[Binding]:
    """Swap functions at every binding in the loaded tensorcut modules.

    ``replacements`` maps id(original) -> (original, replacement).  Module
    attributes and the values of module-level dicts are both rewritten.
    Returns the bindings changed, for ``restore``.
    """
    changed: list[Binding] = []

    def swap(value: object):
        hit = replacements.get(id(value))
        return hit[1] if hit is not None and hit[0] is value else None

    for module in _package_modules():
        for name, value in list(vars(module).items()):
            if name.startswith("__"):
                continue
            new = swap(value)
            if new is not None:
                changed.append((module, name, value))
                setattr(module, name, new)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    new = swap(item)
                    if new is not None:
                        changed.append((value, key, item))
                        value[key] = new
    return changed


def restore(bindings: list[Binding]) -> None:
    for container, key, original in reversed(bindings):
        if isinstance(container, dict):
            container[key] = original
        else:
            setattr(container, key, original)


def traced_functions() -> dict[int, tuple[object, str]]:
    """id(function) -> (function, span kind) for everything the tracer wraps.

    Raises when a listed function is gone, so a refactor that moves a layer
    entry point breaks the traced run loudly instead of reporting zeros.
    """
    out: dict[int, tuple[object, str]] = {}
    for (module, name), kind in TRACED.items():
        fn = getattr(sys.modules[module], name)
        out[id(fn)] = (fn, kind)
    table = getattr(sys.modules[CHECK_TABLE[0]], CHECK_TABLE[1])
    for check, fn in table.items():
        out[id(fn)] = (fn, f"harness.{check}")
    return out


class Tracer:
    """Counts calls and self time per span kind while installed."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [kind, seconds spent in child spans]
        self._bindings: list[Binding] = []
        self._budget_exceeded: type = Exception

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer already installed")
        self._budget_exceeded = sys.modules["tensorcut.mincut"].BudgetExceeded
        replacements = {
            key: (fn, self._wrap(fn, kind))
            for key, (fn, kind) in traced_functions().items()
        }
        self._bindings = rebind(replacements)

    def uninstall(self) -> None:
        restore(self._bindings)
        self._bindings = []

    def _wrap(self, fn: Callable, kind: str) -> Callable:
        stack = self._stack
        clock = time.perf_counter
        hook = getattr(self, "_on_" + kind.replace(".", "_"), None)

        def traced(*args, **kwargs):
            frame = [kind, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            result = raised = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                raised = exc
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                self.calls[kind] += 1
                self.self_s[kind] += dt - frame[1]
                if hook is not None:
                    hook(parent, args, kwargs, result, raised, dt)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", kind)
        return traced

    # Per-kind counters, computed from each call's arguments and result.

    def _on_catalog(self, parent, args, kwargs, result, raised, dt) -> None:
        if parent != "catalog" and result is not None:
            self.counts["catalog.graphs"] += len(result)

    def _on_product(self, parent, args, kwargs, result, raised, dt) -> None:
        if result is not None:
            self.counts["product.edges"] += len(result.edges)
        if parent == "dense.classify":
            self.counts["dense.classify.rebuilds"] += 1

    def _on_mincut_enum(self, parent, args, kwargs, result, raised, dt) -> None:
        if parent == "harness.cache":
            self.counts["harness.cache.misses"] += 1
        if result is None:
            return
        self.counts["mincut.enum.cuts"] += len(result.cuts)
        # An enumeration result without the flag can only be exhaustive.
        if getattr(result, "exhaustive", True):
            self.counts["mincut.enum.exhaustive"] += 1
            graph = args[0] if args else kwargs["g"]
            if result.cuts:
                self.counts["mincut.enum.subsets"] += math.comb(
                    len(graph.edges), len(result.cuts[0]))

    def _on_mincut_subset(self, parent, args, kwargs, result, raised, dt) -> None:
        if isinstance(raised, self._budget_exceeded):
            self.counts["mincut.subset.exceeded"] += 1
            self.counts["mincut.subset.wasted_s"] += dt

    def metrics(self) -> dict[str, float]:
        """Flat per-layer metrics in layer order: calls, self time, counters."""
        count = self.counts

        def span(kind: str) -> dict[str, float]:
            return {f"{kind}.calls": self.calls[kind], f"{kind}.s": self.self_s[kind]}

        enum_calls = self.calls["mincut.enum"]
        out = {
            "catalog.s": self.self_s["catalog"],
            "catalog.graphs": count["catalog.graphs"],
            **span("graph6"),
            **span("product"),
            "product.edges": count["product.edges"],
            **span("product.fibers"),
            **span("mincut.flow"),
            **span("mincut.enum"),
            "mincut.enum.cuts": count["mincut.enum.cuts"],
            "mincut.enum.exhaustive_ratio":
                count["mincut.enum.exhaustive"] / enum_calls if enum_calls else 0.0,
            "mincut.enum.subsets": count["mincut.enum.subsets"],
            **span("mincut.subset"),
            "mincut.subset.exceeded": count["mincut.subset.exceeded"],
            "mincut.subset.wasted_s": count["mincut.subset.wasted_s"],
            **span("mincut.star"),
            **span("dense.formula"),
            **span("dense.classify"),
            "dense.classify.rebuilds": count["dense.classify.rebuilds"],
        }
        for check in CHECK_NAMES:
            out[f"harness.{check}.s"] = self.self_s[f"harness.{check}"]
        out["harness.cache.hits"] = self.calls["harness.cache"] - count["harness.cache.misses"]
        for kind in ("harness.cache", "harness.campaign", "harness.report"):
            out[f"{kind}.s"] = self.self_s[kind]
        return out
