"""Monotone acyclic graph 2-DNFs and polynomial-time evasiveness detection.

A monotone 2-DNF is viewed as a graph: one edge per binary term, plus marks
for singleton terms.  For acyclic graphs, non-evasiveness is equivalent to
the existence of a recursively defined pattern.  A ``GraphDnf`` builds its
adjacency once, over universe positions, in the loop that checks its terms,
and every walk reads it; names are read again only where a ``Pattern``
node, a component's universe or a DOT line is written.  ``find_pattern`` is
the one detector: it roots each edge component at its lowest variable in the
breadth-first walk that finds the component, so the walk yields a spanning
tree; the graph is a forest when those trees hold every edge.  On each tree
it tries, a down pass counts per vertex the children that lack a special
grandchild, that are special and that have a special child, which tell
whether the vertex is special, has a special child and has a special
grandchild; if the root is not special, one rerooting up pass adds the same
for each vertex's parent's side and so finds every vertex that is special
as a root.  Both passes, and the witness built from one rooted tree, are
O(n) overall, over flat lists indexed in breadth-first order.
"""

from __future__ import annotations

from bisect import bisect_left
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
        # The loop that checks the terms builds the adjacency over universe
        # positions: entry i holds variable i's neighbours' positions,
        # ascending, [] for a singleton term's variable and None for a
        # variable in no term.  Not a field: equality, hashing and repr stay
        # those of the terms.
        at = self.universe._positions
        adj: list[Optional[list[int]]] = [None] * len(at)
        for edge in self.edges:
            if len(edge) != 2:
                raise GraphDnfError(f"edge must have two distinct endpoints: {set(edge)}")
            a, b = edge
            try:
                i, j = at[a], at[b]
            except KeyError as missing:
                self.universe.index(missing.args[0])  # raises the unknown-name error
            if adj[i] is None:
                adj[i] = [j]
            else:
                adj[i].append(j)
            if adj[j] is None:
                adj[j] = [i]
            else:
                adj[j].append(i)
        for v in self.singletons:
            i = self.universe.index(v)
            if adj[i] is not None:
                raise GraphDnfError(f"singleton variable {v!r} touches an edge")
            adj[i] = []
        for ends in adj:
            if ends:
                ends.sort()
        object.__setattr__(self, "_adjacency", adj)

    def free_variables(self) -> tuple[str, ...]:
        return tuple(n for n, ends in zip(self.universe.names, self._adjacency) if ends is None)

    def to_monotone_dnf(self) -> MonotoneDnf:
        # absorbed already: the edges are distinct pairs and no singleton
        # touches one
        return MonotoneDnf._of_absorbed(
            self.universe, self.edges | {frozenset([v]) for v in self.singletons})


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


_Tree = tuple[list[int], list[int]]  # BFS order, each vertex's parent's BFS index


def _rooted_tree(adj: list[Optional[list[int]]], root: int) -> _Tree:
    """BFS order (positions) of a spanning tree of ``root``'s component,
    rooted at ``root``, and each vertex's parent as a BFS index (-1 for the
    root).  A vertex's children are its neighbours not reached before it;
    they follow one another in BFS order, so ``parent`` is ascending."""
    bfs = [root]
    parent = [-1]
    seen = {root}
    for i, v in enumerate(bfs):  # grows while it is walked
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                bfs.append(w)
                parent.append(i)
    return bfs, parent


def _spanning_trees(adj: list[Optional[list[int]]]) -> list[_Tree]:
    """The spanning tree of each component that holds an edge, rooted at its
    lowest vertex, in the order of those roots."""
    trees: list[_Tree] = []
    seen = bytearray(len(adj))
    for v, ends in enumerate(adj):
        if ends and not seen[v]:
            trees.append(_rooted_tree(adj, v))
            for w in trees[-1][0]:
                seen[w] = 1
    return trees


def _is_forest(g: GraphDnf, trees: list[_Tree]) -> bool:
    # the graph is a forest iff its spanning trees hold every edge; a tree
    # has one edge fewer than it has vertices
    return len(g.edges) == sum(len(bfs) - 1 for bfs, _ in trees)


def is_acyclic(g: GraphDnf) -> bool:
    """Standard acyclicity of the edge set (the graph is a forest)."""
    return _is_forest(g, _spanning_trees(g._adjacency))


def components(g: GraphDnf) -> tuple[list[GraphDnf], tuple[str, ...]]:
    """Edge-connected components plus singleton-term components, each kind
    in universe order of its lowest variable; variables in no term are
    returned separately as the free-variable set."""
    trees = _spanning_trees(g._adjacency)
    names, at = g.universe.names, g.universe._positions
    tree_of = {v: c for c, (bfs, _) in enumerate(trees) for v in bfs}
    edges: list[list[frozenset[str]]] = [[] for _ in trees]
    for e in g.edges:
        edges[tree_of[at[next(iter(e))]]].append(e)  # both endpoints are in one tree
    out = [GraphDnf(VariableUniverse(tuple(names[v] for v in sorted(bfs))),
                    frozenset(held), frozenset())
           for (bfs, _), held in zip(trees, edges)]
    out += [GraphDnf(VariableUniverse((names[v],)), frozenset(), frozenset([names[v]]))
            for v, ends in enumerate(g._adjacency) if ends == []]
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
    for bfs, parent in trees:
        counts = _down_counts(parent)
        if not counts[0][0]:  # the root is special
            return _build_witness(bfs, parent, counts[0], g.universe.names)
        roots = _special_roots(parent, counts)
        if roots:
            return _pattern_at(g, min(bfs[i] for i in roots))
    return None


def pattern_rooted_at(g: GraphDnf, root: str) -> Optional[Pattern]:
    """The witness pattern rooted at ``root`` for a connected acyclic
    all-binary-term graph DNF, or ``None`` if ``root`` is not special."""
    v = g.universe._positions.get(root)
    if v is None or g._adjacency[v] is None:
        raise GraphDnfError(f"variable {root!r} occurs in no edge")
    return _pattern_at(g, v)


def _pattern_at(g: GraphDnf, root: int) -> Optional[Pattern]:
    bfs, parent = _rooted_tree(g._adjacency, root)
    lack = _down_counts(parent)[0]
    if lack[0]:
        return None
    return _build_witness(bfs, parent, lack, g.universe.names)


# Per BFS index, three counts over a vertex's children: those with no
# special grandchild, those that are special and those with a special child.
# So a vertex is special when its first count is 0, has a special child when
# its second is not, and has a special grandchild when its third is not.
_Counts = tuple[list[int], list[int], list[int]]


def _down_counts(parent: list[int]) -> _Counts:
    """The counts of every vertex of a rooted tree, bottom-up: each vertex
    adds its flags to its parent's counts.  A leaf counts nothing, so it is
    special."""
    k = len(parent)
    lack, special, child = [0] * k, [0] * k, [0] * k
    for i in range(k - 1, 0, -1):
        p = parent[i]
        if not child[i]:
            lack[p] += 1
        if not lack[i]:
            special[p] += 1
        if special[i]:
            child[p] += 1
    return lack, special, child


def _special_roots(parent: list[int], counts: _Counts) -> list[int]:
    """Every vertex that is special when the tree is rerooted at it, by BFS
    index, from the down counts of the tree rooted at BFS index 0.

    Top-down, each vertex adds to its counts the flags of its parent's side:
    the parent as the root of the subtree that leaves the vertex out.  Its
    counts then run over all its neighbours, so its parent's side, seen from
    a child, is its counts less that child's flags.  A vertex is a special
    root iff no neighbour lacks a special grandchild away from it.  The
    counts are updated in place."""
    lack, special, child = counts
    roots = [] if lack[0] else [0]
    for i in range(1, len(parent)):
        p = parent[i]
        # p's side seen from i: p's other neighbours
        side_special = lack[p] - (not child[i]) == 0
        side_child = special[p] - (not lack[i]) > 0
        side_grand = child[p] - (special[i] > 0) > 0
        lack[i] += not side_grand
        special[i] += side_special
        child[i] += side_child
        if not lack[i]:
            roots.append(i)
    return roots


def _build_witness(bfs: list[int], parent: list[int], lack: list[int],
                   names: tuple[str, ...]) -> Pattern:
    """The pattern of a special root: below each pattern node, for each of
    its children, the lowest special grandchild of that child."""
    def kids(v: int) -> range:  # the BFS indices whose parent is v
        return range(bisect_left(parent, v, v), bisect_left(parent, v + 1, v))

    below: list[list[int]] = []
    nodes = [0]
    for v in nodes:  # grows while it is walked, parents before children
        below.append([min((w for z in kids(y) for w in kids(z) if not lack[w]),
                          key=bfs.__getitem__)
                      for y in kids(v)])
        nodes.extend(below[-1])
    built: dict[int, Pattern] = {}
    for v, lows in zip(reversed(nodes), reversed(below)):
        built[v] = Pattern(names[bfs[v]], tuple(built[w] for w in lows))
    return built[0]


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
    names = g.universe.names
    for a, ends in enumerate(g._adjacency):  # each edge from its lower end
        lines.extend(f"  {names[a]} -- {names[b]};" for b in ends or () if b > a)
    lines.append("}")
    return "\n".join(lines) + "\n"
