"""Monotone acyclic graph 2-DNFs and polynomial-time evasiveness detection.

A monotone 2-DNF is viewed as a graph: one edge per binary term, plus marks
for singleton terms.  For acyclic graphs, non-evasiveness is equivalent to
the existence of a recursively defined pattern.  ``find_pattern`` is the one
detector: it builds the adjacency once, checks that the graph is a forest,
and roots each edge component at every variable in turn, computing a
bottom-up "special" flag per node, which is O(n^2) overall.
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


def _order(g: GraphDnf) -> dict[str, int]:
    return {n: i for i, n in enumerate(g.universe.names)}


def _adjacency(g: GraphDnf) -> dict[str, list[str]]:
    order = _order(g)
    adj: dict[str, list[str]] = {v: [] for v in g.term_variables()}
    for e in g.edges:
        a, b = sorted(e, key=order.get)
        adj[a].append(b)
        adj[b].append(a)
    for v in adj:
        adj[v].sort(key=order.get)
    return adj


def _edge_components(adj: dict[str, list[str]], order: dict[str, int]) -> list[list[str]]:
    """Vertex lists, in universe order, of the components that hold an edge,
    listed by their lowest variable (``adj`` keys are in universe order)."""
    out: list[list[str]] = []
    seen: set[str] = set()
    for start in adj:
        if start in seen or not adj[start]:
            continue
        comp = [start]
        seen.add(start)
        for v in comp:  # grows while it is walked: a breadth-first search
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
        out.append(sorted(comp, key=order.get))
    return out


def _is_forest(g: GraphDnf, comps: list[list[str]]) -> bool:
    # a simple graph is a forest iff each component has one edge fewer than
    # it has vertices
    return len(g.edges) == sum(len(c) - 1 for c in comps)


def is_acyclic(g: GraphDnf) -> bool:
    """Standard acyclicity of the edge set (the graph is a forest)."""
    return _is_forest(g, _edge_components(_adjacency(g), _order(g)))


def components(g: GraphDnf) -> tuple[list[GraphDnf], tuple[str, ...]]:
    """Edge-connected components plus singleton-term components; variables in
    no term are returned separately as the free-variable set."""
    out: list[GraphDnf] = []
    for comp in _edge_components(_adjacency(g), _order(g)):
        members = set(comp)
        edges = frozenset(e for e in g.edges if e <= members)
        out.append(GraphDnf(VariableUniverse(tuple(comp)), edges, frozenset()))
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
    """The non-evasiveness witness of an acyclic graph DNF, or ``None``
    exactly when the graph DNF is evasive.

    A free variable is itself a (leaf) pattern.  Otherwise the edge
    components are tried in order of their lowest variable, and within one
    component every candidate root in universe order: the tree is traversed
    bottom-up, marking a node special when it is a non-singleton leaf, or when
    each of its children has a special grandchild.  The first special root
    yields the witness.  Singleton-term components never admit a pattern.
    Raises ``GraphDnfError`` on a cyclic graph.
    """
    adj = _adjacency(g)
    order = _order(g)
    comps = _edge_components(adj, order)
    if not _is_forest(g, comps):
        raise GraphDnfError("graph DNF is cyclic")
    free = g.free_variables()
    if free:
        return Pattern(free[0])
    for comp in comps:
        for root in comp:
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
    return _pattern_at(adj, _order(g), root)


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
    """PTIME evasiveness decision for acyclic monotone 2-DNFs, over
    ``universe`` when given (else the DNF's own): evasive iff
    ``find_pattern`` finds no witness."""
    g = from_monotone_dnf(d)
    if universe is not None:
        g = GraphDnf(universe, g.edges, g.singletons)
    return find_pattern(g) is None


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
    order = _order(g)
    for e in sorted(g.edges, key=lambda e: sorted(order[v] for v in e)):
        a, b = sorted(e, key=order.get)
        lines.append(f"  {a} -- {b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
