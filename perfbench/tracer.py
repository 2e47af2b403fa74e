"""Span tracer for the benchmark's traced run.

The tracer wraps every public function of the package's modules (the
layers) in every module namespace that binds it, since ``search`` and
``toughness`` call each other through from-imports. Each call records a span
(function, start, end, parent span, item) in memory; the spans are written
out when the run ends. Per function it reports ``<module>.<function>.calls``
and ``.self_s``, the span time not covered by child spans, so work in private
helpers counts toward the public function that called them.

Two kinds of function get no span: generator functions (a span would close
when the generator is created, before any work) and the per-step helpers in
``UNTRACED``, which run once per annealing step or per scanned subset.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter
from pathlib import Path

LAYERS = ("graph", "graph6", "invariants", "operators", "ratio", "toughness", "families", "search")
UNTRACED = frozenset({"mask_of", "component_count"})

# functions whose calls and self time are reported; the wrapped set is wider
REPORTED = (
    "graph.build_graph",
    "graph.components_excluding",
    "graph.delete_edge",
    "graph.is_connected",
    "graph6.parse_graph6",
    "graph6.write_graph6",
    "invariants.independence_number",
    "invariants.vertex_connectivity",
    "operators.cartesian_product",
    "operators.circulant",
    "operators.complete",
    "operators.cycle",
    "operators.line_graph",
    "operators.path",
    "operators.solid_expand",
    "operators.square",
    "operators.subdivision",
    "toughness.degree_excess_filter",
    "toughness.is_minimally_tough",
    "toughness.solid_reduced_toughness",
    "toughness.toughness_exact",
    "toughness.toughness_upper_search",
    "toughness.twin_classes",
    "toughness.verify_certificate",
    "families.gen_knp2_minus_matching",
    "families.gen_knp3",
    "families.gen_planar_chain",
    "families.gen_square_lsk4",
    "search.filter_counterexamples",
)
EDGE_SOURCES = ("template", "heuristic", "exhaustive", "inconclusive")
# the reasons degree_excess_filter gives; a hit has an empty reason
SCREEN_REASONS = (
    "disconnected",
    "complete",
    "degree screen",
    "over exhaustive limit",
    "degree within ceiling",
    "minimality inconclusive",
    "not minimally tough",
    "hit",
    "other",
)


def metric_name(text: str) -> str:
    return text.replace(" ", "_")


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every (name, unit) the traced run reports, in a fixed order."""
    out: list[tuple[str, str]] = []
    for fn in REPORTED:
        out += [(f"{fn}.calls", "count"), (f"{fn}.self_s", "s")]
    out += [(f"toughness.edges.{s}", "count") for s in EDGE_SOURCES]
    out.append(("toughness.heuristic_yield", "ratio"))
    out += [(f"toughness.screen.{metric_name(r)}", "count") for r in SCREEN_REASONS]
    out += [("upper_gap", "ratio"), ("trace.overhead_s", "s")]
    return out


class Tracer:
    """Wraps the package's public functions while installed."""

    def __init__(self) -> None:
        self.package = importlib.import_module("toughgraphs")
        self.modules = [importlib.import_module(f"toughgraphs.{m}") for m in LAYERS]
        self.names: list[str] = []
        # [name index, start, end, parent span index or -1, item index]
        self.spans: list[list] = []
        self.item = -1
        self.edges: Counter[str] = Counter()
        self.screens: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def install(self) -> None:
        """Bind the wrappers; they are made on the first install and reused
        after an ``uninstall``, so span names keep their indices."""
        if not self._patches:
            namespaces = [self.package, *self.modules]
            for layer, mod in zip(LAYERS, self.modules):
                for attr, fn in list(vars(mod).items()):
                    if (
                        attr.startswith("_")
                        or attr in UNTRACED
                        or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)
                    ):
                        continue
                    wrapper = self._wrap(f"{layer}.{attr}", fn)
                    self._patches += [
                        (ns, attr, fn, wrapper) for ns in namespaces if vars(ns).get(attr) is fn
                    ]
        for ns, attr, _, wrapper in self._patches:
            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, fn, _ in self._patches:
            setattr(ns, attr, fn)

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = {
            "toughness.is_minimally_tough": self._observe_minimality,
            "toughness.degree_excess_filter": self._observe_screen,
        }.get(name)

        def wrapper(*args, **kwargs):
            span = [index, clock(), 0.0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _observe_minimality(self, report) -> None:
        self.edges.update(w.source for w in report.entries)

    def _observe_screen(self, report) -> None:
        reason = "hit" if report.is_hit else report.reason
        self.screens[reason if reason in SCREEN_REASONS else "other"] += 1

    def metrics(self) -> dict[str, float]:
        """Per-function calls and self time, edge sources, the heuristic
        yield and screen reasons, keyed as in ``per_layer_metrics``."""
        calls: Counter[str] = Counter()
        self_s: Counter[str] = Counter()
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (idx, start, end, _, _) in enumerate(self.spans):
            name = self.names[idx]
            calls[name] += 1
            self_s[name] += end - start - child[i]

        minimality = self.names.index("toughness.is_minimally_tough")
        upper = self.names.index("toughness.toughness_upper_search")
        upper_in_minimality = sum(
            1 for s in self.spans if s[0] == upper and self._has_ancestor(s, minimality)
        )
        out: dict[str, float] = {}
        for fn in REPORTED:
            out[f"{fn}.calls"] = calls[fn]
            out[f"{fn}.self_s"] = self_s[fn]
        for source in EDGE_SOURCES:
            out[f"toughness.edges.{source}"] = self.edges[source]
        out["toughness.heuristic_yield"] = (
            self.edges["heuristic"] / upper_in_minimality if upper_in_minimality else 0.0
        )
        for reason in SCREEN_REASONS:
            out[f"toughness.screen.{metric_name(reason)}"] = self.screens[reason]
        return out

    def _has_ancestor(self, span: list, name_index: int) -> bool:
        parent = span[3]
        while parent >= 0:
            if self.spans[parent][0] == name_index:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("name\tstart\tend\tparent\titem\n")
            for idx, start, end, parent, item in self.spans:
                fh.write(f"{self.names[idx]}\t{start:.9f}\t{end:.9f}\t{parent}\t{item}\n")
