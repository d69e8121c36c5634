"""Monotone acyclic graph 2-DNFs and polynomial-time evasiveness detection.

A monotone 2-DNF is viewed as a graph: one edge per binary term, plus marks
for singleton terms.  For acyclic graphs, non-evasiveness is equivalent to
the existence of a recursively defined pattern.  ``find_pattern`` is the one
detector: it builds the adjacency once, checks that the graph is a forest,
and roots each edge component at its lowest variable.  A down pass computes
per vertex whether it is special, has a special child and has a special
grandchild; if the root is not special, one rerooting up pass computes the
same flags towards each vertex's parent and so finds every vertex that is
special as a root.  Both passes, and the witness built from one rooted tree,
are O(n) overall.
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
        endpoints: set[str] = set()
        for edge in self.edges:
            if len(edge) != 2:
                raise GraphDnfError(f"edge must have two distinct endpoints: {set(edge)}")
            for v in edge:
                self.universe.index(v)
            endpoints.update(edge)
        for v in self.singletons:
            self.universe.index(v)
            if v in endpoints:
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

    # Both walks keep an explicit stack: a witness on a long path is
    # hundreds of levels deep.

    def labels(self) -> tuple[str, ...]:
        """The variables in preorder."""
        out = []
        stack = [self]
        while stack:
            p = stack.pop()
            out.append(p.variable)
            stack.extend(reversed(p.children))
        return tuple(out)

    def __str__(self) -> str:
        """``v`` for a leaf, else ``v -> (child, child, ...)``."""
        out = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            out.append(item.variable)
            if item.children:
                out.append(" -> (")
                stack.append(")")
                for i, c in enumerate(reversed(item.children)):
                    if i:
                        stack.append(", ")
                    stack.append(c)
        return "".join(out)


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
    component the candidate roots in universe order: a node of the rooted
    tree is special when it is a non-singleton leaf, or when each of its
    children has a special grandchild.  The first special root yields the
    witness, the same one ``pattern_rooted_at`` gives for it.  Each
    component is rooted once at its lowest variable; only if that root is
    not special does a rerooting pass find the first special root.
    Singleton-term components never admit a pattern.  Raises
    ``GraphDnfError`` on a cyclic graph.
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
        root = comp[0]
        bfs, children = _rooted_tree(adj, root)
        flags = _down_flags(bfs, children)
        if flags[root][0]:
            return _build_witness(root, children, flags, order)
        roots = _special_roots(bfs, children, flags)
        first = next((v for v in comp if v in roots), None)
        if first is not None:
            return _pattern_at(adj, order, first)
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
    flags = _down_flags(bfs, children)
    if not flags[root][0]:
        return None
    return _build_witness(root, children, flags, order)


_Flags = tuple[bool, bool, bool]  # special, has a special child, has a special grandchild


def _down_flags(bfs: list[str], children: dict[str, list[str]]) -> dict[str, _Flags]:
    """The flags of every vertex of a rooted tree, bottom-up.  A vertex is
    special when every child has a special grandchild, so a leaf is."""
    flags: dict[str, _Flags] = {}
    for v in reversed(bfs):
        special, child, grand = True, False, False
        for y in children[v]:
            y_special, y_child, y_grand = flags[y]
            special = special and y_grand
            child = child or y_special
            grand = grand or y_child
        flags[v] = (special, child, grand)
    return flags


def _special_roots(bfs: list[str], children: dict[str, list[str]],
                   flags: dict[str, _Flags]) -> set[str]:
    """Every vertex that is special when the tree is rerooted at it, from the
    down flags of the tree rooted at ``bfs[0]``.

    Top-down, each vertex gets the flags of its parent's side: the parent as
    the root of the subtree that leaves the vertex out.  A vertex counts the
    true flags over all its neighbours (children by their down flags, the
    parent by its side's flags), so leaving one neighbour out costs O(1).  A
    vertex is a special root iff every neighbour has a special grandchild
    away from it."""
    up: dict[str, _Flags] = {}
    roots: set[str] = set()
    for v in bfs:
        kids = children[v]
        sides = [flags[y] for y in kids]
        if v in up:
            sides.append(up[v])
        n_special = n_child = n_grand = 0
        for special, child, grand in sides:
            n_special += special
            n_child += child
            n_grand += grand
        if n_grand == len(sides):
            roots.add(v)
        for y in kids:
            # v's side seen from y: v's other neighbours
            special, child, grand = flags[y]
            up[y] = (n_grand - grand == len(sides) - 1,
                     n_special - special > 0,
                     n_child - child > 0)
    return roots


def _build_witness(root: str, children: dict[str, list[str]],
                   flags: dict[str, _Flags], order: dict[str, int]) -> Pattern:
    """The pattern of a special root: below each pattern node, for each of
    its children, the lowest special grandchild of that child."""
    below: dict[str, list[str]] = {}
    nodes = [root]
    for v in nodes:  # grows while it is walked, parents before children
        below[v] = [min((w for z in children[y] for w in children[z] if flags[w][0]),
                        key=order.get)
                    for y in children[v]]
        nodes.extend(below[v])
    built: dict[str, Pattern] = {}
    for v in reversed(nodes):
        built[v] = Pattern(v, tuple(built[w] for w in below[v]))
    return built[root]


def decide_evasive_acyclic(d: MonotoneDnf, universe: Optional[VariableUniverse] = None) -> bool:
    """Linear-time evasiveness decision for acyclic monotone 2-DNFs, over
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
