"""Monotone acyclic graph 2-DNFs and polynomial-time evasiveness detection.

A monotone 2-DNF is viewed as a graph: one edge per binary term, plus marks
for singleton terms.  For acyclic graphs, non-evasiveness is equivalent to
the existence of a recursively defined pattern.  A ``GraphDnf`` builds its
adjacency once, in universe order, in the loop that checks its terms, and
every walk reads it.  ``find_pattern`` is the one detector: it roots each
edge component at its lowest variable in the breadth-first walk that finds
the component, so the walk yields a spanning tree; the graph is a forest
when those trees hold every edge.  On each tree it tries, a down pass
computes per vertex whether it is special, has a special child and has a
special grandchild; if the root is not special, one rerooting up pass
computes the same flags towards each vertex's parent and so finds every
vertex that is special as a root.  Both passes, and the witness built from
one rooted tree, are O(n) overall.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .expr import MonotoneDnf, VariableUniverse


class GraphDnfError(ValueError):
    pass


@dataclass(frozen=True)
class GraphDnf:
    """A monotone 2-DNF as a graph: binary terms are edges, unary terms are
    singleton marks.  No singleton variable touches an edge."""

    universe: VariableUniverse
    edges: frozenset[frozenset[str]]
    singletons: frozenset[str]

    def __post_init__(self):
        # The loop that checks the edges builds the adjacency: each term
        # variable's neighbours, keys and lists in universe order.  Not a
        # field: equality, hashing and repr stay those of the terms.
        adj: dict[str, list[str]] = {}
        for edge in self.edges:
            if len(edge) != 2:
                raise GraphDnfError(f"edge must have two distinct endpoints: {set(edge)}")
            a, b = edge
            self.universe.index(a)
            self.universe.index(b)
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        for v in self.singletons:
            self.universe.index(v)
            if v in adj:
                raise GraphDnfError(f"singleton variable {v!r} touches an edge")
            adj[v] = []
        at = self.universe.index
        object.__setattr__(self, "_adjacency",
                           {v: sorted(adj[v], key=at) for v in sorted(adj, key=at)})

    def term_variables(self) -> tuple[str, ...]:
        return tuple(self._adjacency)

    def free_variables(self) -> tuple[str, ...]:
        return tuple(n for n in self.universe.names if n not in self._adjacency)

    def to_monotone_dnf(self) -> MonotoneDnf:
        terms = set(self.edges) | {frozenset([v]) for v in self.singletons}
        return MonotoneDnf(self.universe, frozenset(terms))


@dataclass(frozen=True, eq=False, repr=False)
class Pattern:
    """A non-evasiveness pattern: a labeled tree whose existence witnesses
    non-evasiveness of an acyclic graph DNF."""

    variable: str
    children: tuple["Pattern", ...] = ()

    # Every walk keeps an explicit stack, equality, hashing and repr
    # included: a witness on a long path is hundreds of levels deep.

    def _shape(self):
        """``(variable, child count)`` per node in preorder, which determines
        the tree."""
        stack = [self]
        while stack:
            p = stack.pop()
            yield p.variable, len(p.children)
            stack.extend(reversed(p.children))

    def __eq__(self, other):
        if not isinstance(other, Pattern):
            return NotImplemented
        return self is other or tuple(self._shape()) == tuple(other._shape())

    def __hash__(self) -> int:
        return hash(tuple(self._shape()))

    def _render(self, ends) -> str:
        """The text of the tree: each node's opening and closing text,
        ``ends(node)``, around its children's texts joined by ``", "``."""
        out = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            opening, closing = ends(item)
            out.append(opening)
            stack.append(closing)
            for i, c in enumerate(reversed(item.children)):
                if i:
                    stack.append(", ")
                stack.append(c)
        return "".join(out)

    def __repr__(self) -> str:
        """The dataclass form, ``Pattern(variable='v', children=(...))``."""
        return self._render(lambda p: (f"Pattern(variable={p.variable!r}, children=(",
                                       ",))" if len(p.children) == 1 else "))"))

    def labels(self) -> tuple[str, ...]:
        """The variables in preorder."""
        return tuple(v for v, _ in self._shape())

    def __str__(self) -> str:
        """``v`` for a leaf, else ``v -> (child, child, ...)``."""
        return self._render(lambda p: (f"{p.variable} -> (", ")") if p.children
                            else (p.variable, ""))


def from_monotone_dnf(d: MonotoneDnf) -> GraphDnf:
    """Encode a monotone 2-DNF as a graph.  The DNF is absorbed, so no edge
    touches a singleton term's variable."""
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
    return GraphDnf(d.universe, frozenset(edges), frozenset(singletons))


_Tree = tuple[list[str], dict[str, list[str]]]  # BFS order, child lists


def _rooted_tree(adj: dict[str, list[str]], root: str) -> _Tree:
    """BFS order and child lists of a spanning tree of ``root``'s component,
    rooted at ``root``: a vertex's children are its neighbours not reached
    before it."""
    bfs = [root]
    children: dict[str, list[str]] = {root: []}
    for v in bfs:  # grows while it is walked
        kids = children[v]
        for w in adj[v]:
            if w not in children:
                children[w] = []
                kids.append(w)
                bfs.append(w)
    return bfs, children


def _spanning_trees(adj: dict[str, list[str]]) -> list[_Tree]:
    """The spanning tree of each component that holds an edge, rooted at its
    lowest vertex, in the order of those roots (``adj`` keys are in universe
    order)."""
    trees: list[_Tree] = []
    seen: set[str] = set()
    for v in adj:
        if adj[v] and v not in seen:
            trees.append(_rooted_tree(adj, v))
            seen.update(trees[-1][0])
    return trees


def _is_forest(g: GraphDnf, trees: list[_Tree]) -> bool:
    # the graph is a forest iff its spanning trees hold every edge; a tree
    # has one edge fewer than it has vertices
    return len(g.edges) == sum(len(bfs) - 1 for bfs, _ in trees)


def is_acyclic(g: GraphDnf) -> bool:
    """Standard acyclicity of the edge set (the graph is a forest)."""
    return _is_forest(g, _spanning_trees(g._adjacency))


def components(g: GraphDnf) -> tuple[list[GraphDnf], tuple[str, ...]]:
    """Edge-connected components plus singleton-term components; variables in
    no term are returned separately as the free-variable set."""
    trees = _spanning_trees(g._adjacency)
    at = {v: c for c, (bfs, _) in enumerate(trees) for v in bfs}
    edges: list[list[frozenset[str]]] = [[] for _ in trees]
    for e in g.edges:
        edges[at[next(iter(e))]].append(e)  # both endpoints are in one component
    out = [GraphDnf(VariableUniverse(tuple(sorted(bfs, key=g.universe.index))),
                    frozenset(held), frozenset())
           for (bfs, _), held in zip(trees, edges)]
    for v in g.singletons:
        out.append(GraphDnf(VariableUniverse((v,)), frozenset(), frozenset([v])))
    return out, g.free_variables()


def find_pattern(g: GraphDnf) -> Optional[Pattern]:
    """The non-evasiveness witness of an acyclic graph DNF, or ``None``
    exactly when the graph DNF is evasive.

    A free variable is itself a (leaf) pattern.  Otherwise the edge
    components are tried in order of their lowest variable, and within one
    component the candidate roots in universe order: a node of the rooted
    tree is special when it is a non-singleton leaf, or when each of its
    children has a special grandchild.  The first special root yields the
    witness, the same one ``pattern_rooted_at`` gives for it.  Each
    component is rooted once at its lowest variable, by the walk that finds
    it; only if that root is not special does a rerooting pass find the
    first special root, which is rooted once more for its witness.
    Singleton-term components never admit a pattern.  Raises
    ``GraphDnfError`` on a cyclic graph.
    """
    trees = _spanning_trees(g._adjacency)
    if not _is_forest(g, trees):
        raise GraphDnfError("graph DNF is cyclic")
    free = g.free_variables()
    if free:
        return Pattern(free[0])
    for bfs, children in trees:
        root = bfs[0]
        flags = _down_flags(bfs, children)
        if flags[root][0]:
            return _build_witness(root, children, flags, g.universe)
        roots = _special_roots(bfs, children, flags)
        if roots:
            return _pattern_at(g, min(roots, key=g.universe.index))
    return None


def pattern_rooted_at(g: GraphDnf, root: str) -> Optional[Pattern]:
    """The witness pattern rooted at ``root`` for a connected acyclic
    all-binary-term graph DNF, or ``None`` if ``root`` is not special."""
    if root not in g._adjacency:
        raise GraphDnfError(f"variable {root!r} occurs in no edge")
    return _pattern_at(g, root)


def _pattern_at(g: GraphDnf, root: str) -> Optional[Pattern]:
    bfs, children = _rooted_tree(g._adjacency, root)
    flags = _down_flags(bfs, children)
    if not flags[root][0]:
        return None
    return _build_witness(root, children, flags, g.universe)


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
                   flags: dict[str, _Flags], universe: VariableUniverse) -> Pattern:
    """The pattern of a special root: below each pattern node, for each of
    its children, the lowest special grandchild of that child."""
    below: dict[str, list[str]] = {}
    nodes = [root]
    for v in nodes:  # grows while it is walked, parents before children
        below[v] = [min((w for z in children[y] for w in children[z] if flags[w][0]),
                        key=universe.index)
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
    if universe is not None:
        d = MonotoneDnf._of_absorbed(universe, d.terms)  # the graph checks the names
    return find_pattern(from_monotone_dnf(d)) is None


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
    done: set[str] = set()
    for a, neighbours in g._adjacency.items():  # each edge from its lower end
        done.add(a)
        lines.extend(f"  {a} -- {b};" for b in neighbours if b not in done)
    lines.append("}")
    return "\n".join(lines) + "\n"
