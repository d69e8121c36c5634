"""Span tracing from outside the library.

A ``Tracer`` replaces chosen public functions of ``probedepth`` modules with
wrappers that record one span per call: name, start, end, parent span and
instance id.  The library itself is not changed; a wrapper is installed in
every ``probedepth`` module namespace that holds the same function object, so
calls through ``from .expr import ...`` bindings are seen as well.  Spans stay
in memory until the run ends.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

# span group -> (module, public functions); the group's layer is its prefix
GROUPS = {
    "strategy.optimal_depth": ("strategy", ("optimal_depth",)),
    "strategy.decide": ("strategy", ("is_evasive", "decide_depth_at_most")),
    "strategy.greedy": ("strategy", ("greedy_strategy",)),
    "strategy.export": ("strategy", ("to_json", "to_dot")),
    "graphdnf.build": ("graphdnf", ("from_monotone_dnf", "is_acyclic", "components")),
    "graphdnf.detect": ("graphdnf", ("decide_evasive_acyclic", "find_pattern")),
    "provenance.load": ("provenance", ("load_database", "query_from_json")),
    "provenance.eval": ("provenance", ("eval_query",)),
    "readonce.evasive": ("readonce", ("evasive_by_read_once",)),
    "readonce.factor": ("readonce", ("factor_read_once",)),
    "expr.parse": ("expr", ("parse_expressions",)),
    "expr.dnf": ("expr", ("to_monotone_dnf",)),
    "cli.main": ("cli", ("main",)),
    "setup.families": ("families", ("generate",)),
    "setup.treegen": ("treegen", ("all_labeled_trees", "random_forest_dnf",
                                  "tree_graph_dnf")),
}
LAYERS = ("expr", "strategy", "graphdnf", "readonce", "provenance", "cli", "bench")
ROOT = "answer"  # the harness's span around one timed answer

# exact counters read off results at the span boundary
COUNTERS = ("strategy.explored_states", "strategy.diagram_nodes",
            "strategy.greedy.diagram_nodes", "provenance.rows", "provenance.terms",
            "readonce.attempted", "readonce.decided")


class Tracer:
    def __init__(self):
        # Finished spans as (id, name, start, end, parent id, instance).  Tuples
        # of plain values drop out of the garbage collector's tracking, so a
        # long run's spans do not slow every collection.
        self.spans: list[tuple] = []
        self.stack: list[tuple[int, str, float]] = []  # open spans
        self.next_id = 0
        self.instance = ""
        self.enabled = False
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._originals: list[tuple[dict, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every listed function in every loaded probedepth module."""
        namespaces = [vars(m) for name, m in sys.modules.items()
                      if name == "probedepth" or name.startswith("probedepth.")]
        for group, (module, functions) in GROUPS.items():
            mod = sys.modules[f"probedepth.{module}"]
            for fname in functions:
                original = getattr(mod, fname)
                wrapper = self._wrap(group, original)
                for ns in namespaces:
                    for attr, value in list(ns.items()):
                        if value is original:
                            self._originals.append((ns, attr, original))
                            ns[attr] = wrapper

    def uninstall(self):
        for ns, attr, original in reversed(self._originals):
            ns[attr] = original
        self._originals.clear()

    def _wrap(self, group: str, fn):
        if inspect.isgeneratorfunction(fn):
            # the span covers the whole enumeration, not generator creation
            def generator(*args, **kwargs):
                if not self.enabled:
                    return (yield from fn(*args, **kwargs))
                self.open(group)
                try:
                    return (yield from fn(*args, **kwargs))
                finally:
                    self.close()

            generator.__wrapped__ = fn
            return generator

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self.open(group)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            self._count(group, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- spans ------------------------------------------------------------------

    def open(self, name: str) -> int:
        span_id = self.next_id
        self.next_id += 1
        self.stack.append((span_id, name, time.perf_counter()))
        return span_id

    def close(self):
        """Close the innermost open span."""
        end = time.perf_counter()
        span_id, name, start = self.stack.pop()
        parent = self.stack[-1][0] if self.stack else -1
        self.spans.append((span_id, name, start, end, parent, self.instance))

    def _count(self, group: str, result):
        c = self.counts
        if group == "strategy.optimal_depth":
            c["strategy.explored_states"] += result.explored_states
            c["strategy.diagram_nodes"] += len(result.diagram.nodes)
        elif group == "strategy.greedy":
            c["strategy.greedy.diagram_nodes"] += len(result.nodes)
        elif group == "provenance.eval":
            c["provenance.rows"] += len(result.rows)
            c["provenance.terms"] += sum(len(dnf.terms) for _, dnf in result.rows)
        elif group == "readonce.evasive":
            c["readonce.attempted"] += 1
            c["readonce.decided"] += result is not None

    # -- reduction ----------------------------------------------------------------

    def self_times(self, ids: range) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name over the spans opened with an
        id in ``ids``.  Self time is a span's duration minus the time its
        child spans cover."""
        child: dict[int, float] = {}
        for _, _, start, end, parent, _ in self.spans:
            child[parent] = child.get(parent, 0.0) + end - start
        out: dict[str, tuple[int, float]] = {}
        for span_id, name, start, end, _, _ in self.spans:
            if span_id in ids:
                calls, total = out.get(name, (0, 0.0))
                out[name] = (calls + 1, total + (end - start) - child.get(span_id, 0.0))
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, instance in sorted(self.spans):
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "instance": instance}) + "\n")
