"""Monotone acyclic graph 2-DNFs and polynomial-time evasiveness detection.

A monotone 2-DNF is viewed as a graph: one edge per binary term, plus marks
for singleton terms.  For acyclic graphs, non-evasiveness is equivalent to
the existence of a recursively defined pattern; detection roots the tree at
every variable and computes a bottom-up "special" flag per node, which is
O(n^2) overall.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .expr import MonotoneDnf, VariableUniverse


class GraphDnfError(ValueError):
    pass


@dataclass(frozen=True)
class GraphDnf:
    """A monotone 2-DNF as a graph: binary terms are edges, unary terms are
    singleton marks.  After preprocessing no singleton variable touches an
    edge."""

    universe: VariableUniverse
    edges: frozenset[frozenset[str]]
    singletons: frozenset[str]

    def __post_init__(self):
        for edge in self.edges:
            if len(edge) != 2:
                raise GraphDnfError(f"edge must have two distinct endpoints: {set(edge)}")
            for v in edge:
                self.universe.index(v)
        for v in self.singletons:
            self.universe.index(v)
            if any(v in e for e in self.edges):
                raise GraphDnfError(f"singleton variable {v!r} touches an edge")

    def term_variables(self) -> tuple[str, ...]:
        used = set(self.singletons)
        for e in self.edges:
            used.update(e)
        return tuple(n for n in self.universe.names if n in used)

    def free_variables(self) -> tuple[str, ...]:
        used = set(self.term_variables())
        return tuple(n for n in self.universe.names if n not in used)

    def to_monotone_dnf(self) -> MonotoneDnf:
        terms = set(self.edges) | {frozenset([v]) for v in self.singletons}
        return MonotoneDnf(self.universe, frozenset(terms))


@dataclass(frozen=True)
class Pattern:
    """A non-evasiveness pattern: a labeled tree whose existence witnesses
    non-evasiveness of an acyclic graph DNF."""

    variable: str
    children: tuple["Pattern", ...] = ()

    def labels(self) -> tuple[str, ...]:
        out = [self.variable]
        for c in self.children:
            out.extend(c.labels())
        return tuple(out)

    def __str__(self) -> str:
        if not self.children:
            return self.variable
        inner = ", ".join(str(c) for c in self.children)
        return f"{self.variable} -> ({inner})"


def from_monotone_dnf(d: MonotoneDnf) -> GraphDnf:
    """Encode a monotone 2-DNF as a graph; singleton terms delete their
    incident edges (subsumption)."""
    singletons: set[str] = set()
    edges: set[frozenset[str]] = set()
    for term in d.terms:
        if len(term) == 0:
            raise GraphDnfError("constant-True DNF has no graph form")
        if len(term) > 2:
            raise GraphDnfError(f"term {sorted(term)} has more than two variables")
        if len(term) == 1:
            singletons.add(next(iter(term)))
        else:
            edges.add(term)
    edges = {e for e in edges if not (e & singletons)}
    return GraphDnf(d.universe, frozenset(edges), frozenset(singletons))


def _adjacency(g: GraphDnf) -> dict[str, list[str]]:
    order = {n: i for i, n in enumerate(g.universe.names)}
    adj: dict[str, list[str]] = {v: [] for v in g.term_variables()}
    for e in g.edges:
        a, b = sorted(e, key=order.get)
        adj[a].append(b)
        adj[b].append(a)
    for v in adj:
        adj[v].sort(key=order.get)
    return adj


def is_acyclic(g: GraphDnf) -> bool:
    """Standard acyclicity of the edge set (the graph is a forest)."""
    adj = _adjacency(g)
    seen: set[str] = set()
    for start in adj:
        if start in seen:
            continue
        stack = [(start, None)]
        seen.add(start)
        while stack:
            v, parent = stack.pop()
            for w in adj[v]:
                if w == parent:
                    parent = None  # skip the tree edge back exactly once
                    continue
                if w in seen:
                    return False
                seen.add(w)
                stack.append((w, v))
    return True


def components(g: GraphDnf) -> tuple[list[GraphDnf], tuple[str, ...]]:
    """Edge-connected components plus singleton-term components; variables in
    no term are returned separately as the free-variable set."""
    adj = _adjacency(g)
    order = {n: i for i, n in enumerate(g.universe.names)}
    out: list[GraphDnf] = []
    seen: set[str] = set(g.singletons)
    for start in g.term_variables():
        if start in seen or start in g.singletons:
            continue
        comp = {start}
        queue = deque([start])
        seen.add(start)
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    queue.append(w)
        universe = VariableUniverse(tuple(sorted(comp, key=order.get)))
        edges = frozenset(e for e in g.edges if e <= comp)
        out.append(GraphDnf(universe, edges, frozenset()))
    for v in g.singletons:
        out.append(GraphDnf(VariableUniverse((v,)), frozenset(), frozenset([v])))
    return out, g.free_variables()


def _rooted_tree(adj: dict[str, list[str]], root: str) -> tuple[list[str], dict[str, list[str]]]:
    """BFS order and child lists of the tree rooted at ``root``."""
    order = [root]
    children: dict[str, list[str]] = {root: []}
    parent = {root: None}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w == parent[v]:
                continue
            parent[w] = v
            children[w] = []
            children[v].append(w)
            order.append(w)
            queue.append(w)
    return order, children


def find_pattern(g: GraphDnf) -> Optional[Pattern]:
    """Search for a non-evasiveness pattern in a connected acyclic graph DNF.

    For every candidate root the tree is traversed bottom-up, marking a node
    special when it is a non-singleton leaf, or when each of its children has
    a special grandchild.  The first special root (universe order) yields a
    witness; ``None`` means no pattern exists.
    """
    if not is_acyclic(g):
        raise GraphDnfError("graph DNF is cyclic")
    variables = g.term_variables()
    comps, free = components(g)
    if free:
        # a single free variable is itself a (leaf) pattern
        return Pattern(free[0])
    if len(comps) != 1:
        raise GraphDnfError("graph DNF is not connected")
    if g.singletons:
        # connected & preprocessed with a singleton term means a lone variable;
        # it appears in a term, so neither pattern case applies
        return None

    adj = _adjacency(g)
    order = {n: i for i, n in enumerate(g.universe.names)}
    for root in variables:
        witness = _pattern_at(adj, order, root)
        if witness is not None:
            return witness
    return None


def pattern_rooted_at(g: GraphDnf, root: str) -> Optional[Pattern]:
    """The witness pattern rooted at ``root`` for a connected acyclic
    all-binary-term graph DNF, or ``None`` if ``root`` is not special."""
    adj = _adjacency(g)
    if root not in adj:
        raise GraphDnfError(f"variable {root!r} occurs in no edge")
    return _pattern_at(adj, {n: i for i, n in enumerate(g.universe.names)}, root)


def _pattern_at(adj: dict[str, list[str]], order: dict[str, int],
                root: str) -> Optional[Pattern]:
    bfs, children = _rooted_tree(adj, root)
    special: dict[str, bool] = {}
    for v in reversed(bfs):
        kids = children[v]
        if not kids:
            special[v] = True
            continue
        ok = True
        for y in kids:
            if not any(special[w] for z in children[y] for w in children[z]):
                ok = False
                break
        special[v] = ok
    if not special[root]:
        return None
    return _build_witness(root, children, special, order)


def _build_witness(v: str, children: dict[str, list[str]],
                   special: dict[str, bool], order: dict[str, int]) -> Pattern:
    kids = children[v]
    if not kids:
        return Pattern(v)
    subs = []
    for y in kids:
        grand = [w for z in children[y] for w in children[z] if special[w]]
        w = min(grand, key=order.get)
        subs.append(_build_witness(w, children, special, order))
    return Pattern(v, tuple(subs))


def decide_evasive_acyclic(d: MonotoneDnf, universe: Optional[VariableUniverse] = None) -> bool:
    """PTIME evasiveness decision for acyclic monotone 2-DNFs.

    Non-evasive as soon as some universe variable occurs in no term;
    otherwise evasive iff no connected component admits a pattern.
    """
    if universe is None:
        universe = d.universe
    d = MonotoneDnf(universe, d.terms)
    if universe.n == 0:
        return True  # depth 0 equals n = 0
    g = from_monotone_dnf(d)
    if not is_acyclic(g):
        raise GraphDnfError("graph DNF is cyclic")
    if g.free_variables():
        return False
    comps, _ = components(g)
    return all(find_pattern(c) is None for c in comps)


def to_dot(g: GraphDnf, pattern: Optional[Pattern] = None) -> str:
    """DOT export; singleton-term nodes are double-circled, witness-pattern
    nodes highlighted."""
    highlighted = set(pattern.labels()) if pattern else set()
    lines = ["graph dnf {"]
    for v in g.universe.names:
        attrs = []
        if v in g.singletons:
            attrs.append("peripheries=2")
        if v in highlighted:
            attrs.append("style=filled")
            attrs.append("fillcolor=lightblue")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {v}{suffix};")
    order = {n: i for i, n in enumerate(g.universe.names)}
    for e in sorted(g.edges, key=lambda e: sorted(order[v] for v in e)):
        a, b = sorted(e, key=order.get)
        lines.append(f"  {a} -- {b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
