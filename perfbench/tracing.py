"""Span tracing of the library's layers from outside the library.

`Tracer.install` rebinds every `sr_chroma` module attribute (and the one class
attribute) that refers to a traced function, so calls between layers pass
through a wrapper that records a span: (name, start_ns, end_ns, parent, query
id). Spans stay in memory until `write_spans`. A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from pathlib import Path

import sr_chroma
from sr_chroma import algebra

# (layer, function) pairs wrapped in every sr_chroma module that binds them.
TRACED_FUNCTIONS = (
    ("graph", "chromatic_number"),
    ("graph", "max_clique"),
    ("span", "span_chromatic_number"),
    ("span", "verify_span_coloring"),
    ("families", "build_complex"),
    ("steenrod", "apply_power"),
    ("steenrod", "check_relations"),
    ("steenrod", "check_ideal_preservation"),
    ("steenrod", "check_unstability"),
    ("steenrod", "necessary_condition"),
    ("steenrod", "coloring_from_action"),
    ("steenrod", "cokernel_report"),
    ("search", "compile_constraints"),
    ("search", "search_action"),
    ("realize", "check_realizable"),
    ("realize", "multiset_decomposable"),
    ("realize", "sufficiency_partition"),
    ("realize", "verify_partition"),
    ("realize", "verify_partition_family"),
)
# Methods reached through the ambient objects rather than module globals.
TRACED_METHODS = (("algebra", algebra._AmbientBase, "monomial_basis"),)

# The benchmark's own span around each query; its self time is query time
# that no traced library function covers.
QUERY_SPAN = "bench.query"

LAYERS = ("graph", "span", "families", "algebra", "steenrod", "search", "realize")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.active = False
        self.query_id = -1
        self.span_keys: set = set()
        self.counts: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------
    def wrap(self, name: str, fn, hook=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.query_id)
            if hook is not None:
                hook(args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def run_query(self, qid: int, fn):
        """Run one query traced, under a root span of its own."""
        self.query_id = qid
        self.active = True
        try:
            return self.wrap(QUERY_SPAN, fn)()
        finally:
            self.active = False

    # -- counters taken at the layer boundaries -------------------------------
    def _hooks(self) -> dict[str, object]:
        counts = self.counts

        def span_call(args, result):
            self.span_keys.add((args[0], args[1]))

        def basis(args, result):
            counts["algebra.basis_monomials"] += len(result)

        def compiled(args, result):
            counts["search.constraints"] += len(result)
            counts["symbolic.constraint_terms"] += sum(len(poly.terms) for poly in result)

        def searched(args, result):
            counts["search.nodes"] += result.nodes
            counts["search.variables"] += result.variables
            counts[f"search.outcome.{result.status}"] += 1

        def verdict(args, result):
            key = {
                "CertifiedRealizable": "realizable",
                "CertifiedNotRealizable": "not_realizable",
                "Inconclusive": "inconclusive",
            }[result.status]
            counts[f"realize.verdict.{key}"] += 1

        return {
            "span.span_chromatic_number": span_call,
            "algebra.monomial_basis": basis,
            "search.compile_constraints": compiled,
            "search.search_action": searched,
            "realize.check_realizable": verdict,
        }

    # -- installation ------------------------------------------------------------
    def install(self) -> None:
        hooks = self._hooks()
        modules = [m for name, m in sys.modules.items() if name == "sr_chroma" or name.startswith("sr_chroma.")]
        for layer, fname in TRACED_FUNCTIONS:
            original = getattr(getattr(sr_chroma, layer), fname)
            name = f"{layer}.{fname}"
            wrapped = self.wrap(name, original, hooks.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, attr, value))
                        setattr(module, attr, wrapped)
        for layer, cls, fname in TRACED_METHODS:
            name = f"{layer}.{fname}"
            original = cls.__dict__[fname]
            self._undo.append((cls, fname, original))
            setattr(cls, fname, self.wrap(name, original, hooks.get(name)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def self_times(spans: list[tuple]) -> dict[str, list[int]]:
    """Per span name: [calls, total_ns, self_ns]."""
    covered = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    table: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
    for i, (name, start, end, _, _) in enumerate(spans):
        row = table[name]
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - covered[i]
    return table


def layer_metrics(tracer: Tracer, wall_s: float, overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as name -> (value, unit). `wall_s` is the
    traced phase's wall time."""
    table = self_times(tracer.spans)

    def calls(name):
        return float(table[name][0]) if name in table else 0.0

    def self_s(name):
        return table[name][2] / 1e9 if name in table else 0.0

    counts = tracer.counts
    out: dict[str, tuple[float, str]] = {}
    for name in (
        "graph.chromatic_number",
        "span.span_chromatic_number",
        "realize.multiset_decomposable",
        "families.build_complex",
        "search.compile_constraints",
        "steenrod.apply_power",
        "algebra.monomial_basis",
    ):
        out[f"{name}.calls"] = (calls(name), "count")
    for name in (
        "graph.chromatic_number",
        "graph.max_clique",
        "span.span_chromatic_number",
        "span.verify_span_coloring",
        "realize.check_realizable",
        "realize.multiset_decomposable",
        "realize.sufficiency_partition",
        "realize.verify_partition",
        "realize.verify_partition_family",
        "families.build_complex",
        "steenrod.necessary_condition",
        "search.compile_constraints",
        "steenrod.apply_power",
        "steenrod.check_relations",
        "steenrod.coloring_from_action",
        "algebra.monomial_basis",
        "search.search_action",
    ):
        out[f"{name}.self_s"] = (self_s(name), "s")

    span_calls = calls("span.span_chromatic_number")
    out["span.distinct_ratio"] = (len(tracer.span_keys) / span_calls if span_calls else 0.0, "ratio")
    for key in (
        "realize.verdict.realizable",
        "realize.verdict.not_realizable",
        "realize.verdict.inconclusive",
        "algebra.basis_monomials",
        "symbolic.constraint_terms",
        "search.constraints",
        "search.variables",
        "search.nodes",
        "search.outcome.found",
        "search.outcome.exhausted",
    ):
        out[key] = (float(counts.get(key, 0)), "count")
    dfs_s = self_s("search.search_action")
    out["search.nodes_per_s"] = (counts.get("search.nodes", 0) / dfs_s if dfs_s else 0.0, "1/s")

    for layer in LAYERS:
        total = sum(row[2] for name, row in table.items() if name.startswith(layer + "."))
        out[f"{layer}.self_s"] = (total / 1e9, "s")
    # benchmark time inside the traced phase: query glue plus everything
    # between queries (answer checks, loop)
    library_s = sum(row[2] for name, row in table.items() if name != QUERY_SPAN) / 1e9
    out["bench.self_s"] = (wall_s - library_s, "s")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out


def write_spans(spans: list[tuple], path: Path) -> None:
    """Tab-separated: index, name, start_ns, end_ns, parent, query id."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write("index\tname\tstart_ns\tend_ns\tparent\tquery\n")
        for i, (name, start, end, parent, qid) in enumerate(spans):
            fh.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\t{qid}\n")
