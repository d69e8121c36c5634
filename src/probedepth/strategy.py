"""Minimum-depth probing strategies for expression sets.

The depth of a state is 0 when every member is constant, and otherwise
``1 + min over probes of the worse branch``.  One memoized, depth-bounded
search, ``_decide``, the one search core, decides "depth at most k?" and
keeps the winning probe of each state it proves.  The exact depth comes
from descending deepening over that search, and the witness diagram from
its memo.  Variables outside every member's support never help, so
positions index the combined support; a universe variable absent from all
members makes the set non-evasive.

The search and greedy keep one state form, residual functions: the
positions some member still depends on, and tables over exactly those, the
lowest position as the top table variable.  A probe restricts the tables
(``_fix``) and drops every position no table depends on any more
(``_compact``), so no state holds a dead position, none is probed, and a
state with no positions is a leaf.  ``expr.table_frame`` owns the table
layout: the row masks of each width, which every helper here reads.  The
search keeps the distinct members in one state and caps the combined
support; greedy keeps each member as its own and caps only each member's
support.  Both give the diagram builder their states as node keys.
Greedy scores its candidate probes from each member's flip rows
(``_flips``), which give the positions the member keeps after each answer
to each of its positions, and restricts only the probe it picks.

Diagrams.  A ``DecisionDiagram`` lists every node after the nodes it leads
to and checks that order when it is built, so no diagram holds a cycle or
an index outside its nodes.  The builder (``_diagram``), ``psi_strategy``
and ``to_json`` write nodes in that order, and ``diagram_depth`` measures a
diagram in one pass over it.

Witness states.  A state of the witness whose positions are no more than
its budget probes its lowest position, and so does every state after it.
Such a state is held in level form: its tables over every position from
its lowest to the last, the positions answered or no longer depended on
being variables that no table depends on.  Probing takes each table's two
halves, so that part of the witness is the shared reduced ordered BDD of
the members in position order (Bryant 1986).  States with more positions
than their budget keep the search's key and its ``_restrict``.

Transpositions.  The search memoises a state by its budget, its number of
positions r and its tables, not by its answers or its positions: answers
that leave the members the same functions of r variables give one entry,
searched once, whichever positions those are.  A state with r no more than
its budget is proved without search, by probing its positions in turn.

Degree rule (Nisan & Szegedy 1994, deg(f) <= D(f), applied per state).  A
state with r positions and budget k < r is refuted when a label class, the
rows that share one vector of member values, has a non-zero signed sum over
a set of more than k positions.  The search checks three levels of it, the
top one being Rivest & Vuillemin's parity argument (1976); the proof and
the levels are in ``_refuted``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from json.encoder import encode_basestring_ascii
from typing import Callable, Mapping, Optional, Union

from .expr import (
    DEFAULT_TABLE_CAP,
    ExpressionSet,
    Node,
    Valuation,
    table_bits,
    table_frame,
    within_cap,
)


class StrategyError(ValueError):
    """Base class for strategy-level errors."""


class BudgetExceeded(StrategyError):
    """The explored-state budget ran out before the search finished."""


class MalformedDiagram(StrategyError):
    pass


class AnswersExhausted(StrategyError):
    """The answer source had no value for a requested variable."""


@dataclass(frozen=True)
class Probe:
    variable: str
    on_true: int
    on_false: int


@dataclass(frozen=True)
class Leaf:
    labels: tuple[bool, ...]


DiagramNode = Union[Probe, Leaf]


@dataclass(frozen=True)
class DecisionDiagram:
    """A rooted DAG of probe nodes and leaf nodes realizing a strategy.

    Every probe's answers lead to earlier nodes and the root to a node, so a
    diagram holds no cycle and no index outside its nodes; building one that
    breaks this order raises ``MalformedDiagram``.
    """

    nodes: tuple[DiagramNode, ...]
    root: int

    def __post_init__(self):
        for i, node in enumerate(self.nodes):
            if isinstance(node, Probe):
                t, f = node.on_true, node.on_false
                if not (type(t) is int and type(f) is int and 0 <= t < i and 0 <= f < i):
                    raise MalformedDiagram(f"node {i} leads to {t!r} and {f!r}, "
                                           f"not to nodes below {i}")
            elif not isinstance(node, Leaf):
                raise MalformedDiagram(f"node {i} is neither a Leaf nor a Probe: {node!r}")
        if type(self.root) is not int or not 0 <= self.root < len(self.nodes):
            raise MalformedDiagram(f"root index {self.root!r} not below {len(self.nodes)}")


@dataclass(frozen=True)
class DepthReport:
    """The exact depth of a set.  ``diagram``, a witness of that depth, is
    built on first read from the search's memo, which the report keeps."""

    depth: int
    n: int
    evasive: bool
    explored_states: int
    witness: Callable[[], DecisionDiagram] = field(repr=False, compare=False)

    @cached_property
    def diagram(self) -> DecisionDiagram:
        return self.witness()


@dataclass(frozen=True)
class Transcript:
    probes: tuple[tuple[str, bool], ...]
    labels: tuple[bool, ...]

    @property
    def probe_count(self) -> int:
        return len(self.probes)


def diagram_depth(d: DecisionDiagram) -> int:
    """Longest root-to-leaf edge count; 0 for a single-leaf diagram.  Every
    probe leads to earlier nodes, so one pass in node order measures each
    node after the nodes it leads to, a diagram of any depth included."""
    depth: list[int] = []
    for node in d.nodes:
        depth.append(0 if isinstance(node, Leaf)
                     else 1 + max(depth[node.on_true], depth[node.on_false]))
    return depth[d.root]


def _diagram(names: tuple[str, ...], choose: Callable, start: tuple) -> DecisionDiagram:
    """The diagram ``choose(state)`` spells out: at each state a ``Leaf``, or
    a position to probe and the states after each answer, true first.  The
    root's state is ``start``; ``names`` names the positions.  A state is its
    own node key, so ``choose`` reads nothing but the state, and equal states
    share one node."""
    nodes: list[DiagramNode] = []
    try:
        root = _build(start, names, choose, nodes, {})
    except RecursionError:
        raise StrategyError("diagram too deep to build") from None
    return DecisionDiagram(tuple(nodes), root)


def _build(state: tuple, names: tuple[str, ...], choose: Callable,
           nodes: list[DiagramNode], node_at: dict[tuple, int]) -> int:
    """The index in ``nodes`` of ``state``'s node, appended after the nodes
    it leads to unless ``node_at`` already maps the state to one."""
    i = node_at.get(state)
    if i is not None:
        return i
    node = choose(state)
    if not isinstance(node, Leaf):
        p, if_true, if_false = node
        node = Probe(names[p], _build(if_true, names, choose, nodes, node_at),
                     _build(if_false, names, choose, nodes, node_at))
    nodes.append(node)
    node_at[state] = len(nodes) - 1
    return len(nodes) - 1


def _table(node: Node, support: list[int]) -> int:
    """The table of ``node`` over the universe indices ``support``, in
    ascending order, the first as the top table variable."""
    k = len(support)
    return table_bits(node, {idx: k - 1 - q for q, idx in enumerate(support)}, k)


def _swap(t: int, r: int, js: range) -> int:
    """The table ``t`` over r variables with variables j and j + 1 exchanged
    for each j of ``js`` in turn, each by a δ-swap (Knuth, TAOCP 4A
    §7.1.3)."""
    swaps = table_frame(r)[3]
    for j in js:
        d = 1 << j
        y = (t ^ t >> d) & swaps[j]
        t ^= y | y << d
    return t


def _fix(t: int, r: int, q: int, a: bool) -> int:
    """The table ``t`` over r variables with variable q set to ``a``, over the
    other r - 1 in their order: q moves to the top by adjacent δ-swaps, and
    the half where it reads ``a`` stays."""
    if q < r - 1:
        t = _swap(t, r, range(q, r - 1))
    half = 1 << (r - 1)
    return t >> half if a else t & ((1 << half) - 1)


def _flips(t: int, r: int) -> tuple[int, ...]:
    """The flip rows of the table ``t`` over r variables: for each variable
    j, the rows x with x_j = 1 where flipping x_j changes ``t``, the
    sensitive rows of Nisan (1989).  ``t`` depends on j exactly when flip
    row j is non-empty.  Flipping x_j leaves every other variable as it is,
    so ``t`` with variable q != j set to ``a`` depends on j exactly when
    flip row j meets the rows where x_q reads ``a``."""
    masks = table_frame(r)[1]
    return tuple([(t ^ t << (1 << j)) & masks[j] for j in range(r)])


def _kept(held: int, tables: tuple[int]) -> dict[int, tuple[int, int]]:
    """For each position p of the one-table state ``(held, tables)``, the
    positions ``_restrict`` keeps with p answered true and with p answered
    false, read from the table's flip rows without restricting it."""
    (t,) = tables
    r = held.bit_count()
    full, masks = table_frame(r)[:2]
    flips = _flips(t, r)
    bits, rest = [], held  # each table variable's position bit, the top variable first
    while rest:
        bits.append(rest & -rest)
        rest &= rest - 1
    bits.reverse()

    def where(rows: int) -> int:
        return sum(b for f, b in zip(flips, bits) if f & rows)

    return {b.bit_length() - 1: (where(masks[q]) & ~b, where(full ^ masks[q]))
            for q, b in enumerate(bits)}


def _compact(held: int, tables: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """``tables`` over the positions set in ``held``, the lowest as the top
    table variable, without the positions that no table depends on: those
    positions and the tables over the rest."""
    r = held.bit_count()
    masks, rest = table_frame(r)[1], held
    for q in reversed(range(r)):  # q's position is the lowest in rest
        d, m = 1 << q, masks[q]
        for t in tables:
            if (t ^ t << d) & m:  # the halves where x_q is 1 and 0 differ
                break
        else:
            tables = tuple([_fix(t, held.bit_count(), q, False) for t in tables])
            held ^= rest & -rest
        rest &= rest - 1
    return held, tables


def _restrict(held: int, tables: tuple[int, ...], p: int,
              a: bool) -> tuple[int, tuple[int, ...]]:
    """The state ``(held, tables)`` of ``_compact`` with position p, which
    it holds, answered ``a``."""
    r, q = held.bit_count(), (held >> p + 1).bit_count()  # p's table variable
    return _compact(held ^ 1 << p, tuple([_fix(t, r, q, a) for t in tables]))


def _skip_dead(w: int, tables: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """``tables`` over w variables without their top variables up to the
    first that some table depends on: the width left and the tables over
    it, each the low half of the one before."""
    while w:
        half = 1 << (w - 1)
        low = (1 << half) - 1
        for t in tables:
            if t >> half != t & low:
                return w, tables
        tables = tuple([t & low for t in tables])
        w -= 1
    return 0, tables


def _spread(held: int, tables: tuple[int, ...], n: int) -> tuple[int, tuple[int, ...]]:
    """The level form of the ``_compact`` state ``(held, tables)`` over n
    positions: the number w of positions from its lowest to the last, and
    its tables over those w, with a variable that no table depends on for
    each position it does not hold.  Such a variable goes on top of the
    tables and moves down to its place by adjacent δ-swaps, as ``_fix``
    moves one up."""
    if not held:
        return 0, tables
    first, r = (held & -held).bit_length() - 1, held.bit_count()
    for x in reversed(range(first + 1, n)):  # x's variable is n - 1 - x
        if held >> x & 1:
            continue
        down = range(r - 1, n - 2 - x, -1)
        tables = tuple([_swap(t | t << (1 << r), r + 1, down) for t in tables])
        r += 1
    return n - first, tables


def _refuted(tables: tuple[int, ...], r: int, k: int) -> bool:
    """The degree rule: does a label class of ``tables`` over r variables
    sum to non-zero over a set S of more than k of them, which refutes
    depth k?

    The signed sum of a class C over S is sum over x in C of
    (-1)^|x & S|.  Proof: (1) every leaf of a diagram of depth at most k
    fixes at most k variables, so some variable of S is free in it and its
    sum over S is 0; (2) a class is a union of such leaves, since a leaf
    fixes every member; (3) so every class sums to 0 over S.  The sum is 0
    exactly when half the rows of C have even weight on S.  Three levels
    are checked, the cheap ones first:
      - |S| = r (Rivest & Vuillemin's parity): the rows of ``even``;
      - |S| = r - 1, when k <= r - 2: even outside variable p, for each p;
      - |S| = r - 2, when k <= r - 3: even outside p and q, for each pair.
    The full row set sums to 0 over every non-empty S, so all classes but
    one need checking.  The rule refutes only states the search would
    refute anyway, so proved states keep their first winning probe.
    """
    full, masks, even, _ = table_frame(r)
    classes = [full]
    for t in tables:  # each table splits every class c into c & t and the rest
        for i in range(len(classes)):
            c = classes[i]
            ones = c & t
            if ones and ones != c:
                classes[i] = ones
                classes.append(c ^ ones)
    classes.pop()  # its sums vanish when the others' do
    for c in classes:  # |S| = r
        if 2 * (c & even).bit_count() != c.bit_count():
            return True
    if k > r - 2:
        return False
    for c in classes:
        n, evens = c.bit_count(), c & even
        ones = [c & m for m in masks]
        halves = [evens ^ o for o in ones]  # even outside p
        if any(2 * h.bit_count() != n for h in halves):
            return True
        if k <= r - 3:
            for i, h in enumerate(halves):
                for o in ones[i + 1:]:
                    if 2 * (h ^ o).bit_count() != n:
                        return True
    return False


# the memo entry of a state refuted, or still being searched
_REFUTED = -1


def _decide(memo: dict[tuple, int], budget: Optional[int], held: int,
            tables: tuple[int, ...], k: int) -> bool:
    """Does the state ``(held, tables)`` have depth at most ``k``?  Tries the
    state's positions from the lowest up, and refutes by ``_refuted`` first.

    Each state after ``_root``'s is a ``_restrict``, so the tables stay as
    wide as the state's own positions.  ``memo`` maps the key
    ``(k, r, tables)`` of each state searched, k its budget and r its number
    of positions, to its winning probe, the rank of the position among the
    state's from the lowest, or to ``_REFUTED``.  Equal keys have equal
    verdicts, so one memo serves every round, and its size counts the
    states explored; ``budget`` caps it.  States with r <= k, or with
    k = 0 < r, are decided without an entry.
    """
    r = held.bit_count()
    if r <= k:
        return True
    if k == 0:
        return False
    key = k, r, tables
    hit = memo.get(key)
    if hit is not None:
        return hit != _REFUTED
    if budget is not None and len(memo) >= budget:
        raise BudgetExceeded(f"state budget {budget} exhausted")
    memo[key] = _REFUTED
    if _refuted(tables, r, k):
        return False
    rest = held
    for rank in range(r):
        p = (rest & -rest).bit_length() - 1
        rest ^= 1 << p
        if _decide(memo, budget, *_restrict(held, tables, p, True), k - 1) and \
           _decide(memo, budget, *_restrict(held, tables, p, False), k - 1):
            memo[key] = rank
            return True
    return False


def _root(s: ExpressionSet, cap: int) -> tuple[tuple[str, ...], list[int], tuple]:
    """The search's start: the names of the positions, which index the
    combined support, each member's table over all of it, and the root
    state, ``_compact`` of the distinct tables."""
    combined = within_cap(s.support_indices(), cap)
    members = [_table(member.root, combined) for member in s.members]
    # equal tables split alike, so the state keeps each distinct one once
    root = _compact((1 << len(combined)) - 1, tuple(dict.fromkeys(members)))
    return tuple(s.universe.names[i] for i in combined), members, root


def _witness(names: tuple[str, ...], members: list[int], memo: dict[tuple, int],
             root: tuple, depth: int) -> DecisionDiagram:
    """The diagram of the memo's proof of ``depth``: one node per state and
    budget, the budget capped at the state's r.

    A state with r above its budget k is the key ``(k, held, tables)`` of
    ``_decide``; it probes the memo's position, and its children come from
    ``_restrict``.  A state with r within its budget probes its lowest
    position, and so do all the states after it, so it is its level form
    ``(w, tables)`` of ``_spread``: probing takes each table's halves, and
    ``_skip_dead`` finds the child's lowest position, without ``_fix`` or
    ``_compact``.  The two forms determine each other, so equal states share
    one node.
    """
    slot = {t: i for i, t in enumerate(dict.fromkeys(members))}
    labels = [slot[t] for t in members]
    n = len(names)

    def choose(state: tuple) -> Union[Leaf, tuple[int, tuple, tuple]]:
        if len(state) == 2:  # level form: probe the top variable
            w, tables = state
            if not w:
                return Leaf(tuple([tables[i] == 1 for i in labels]))
            half = 1 << (w - 1)
            low = (1 << half) - 1
            return (n - w, _skip_dead(w - 1, tuple([t >> half for t in tables])),
                    _skip_dead(w - 1, tuple([t & low for t in tables])))
        k, held, tables = state
        rest = held
        for _ in range(memo[k, held.bit_count(), tables]):
            rest &= rest - 1
        p = (rest & -rest).bit_length() - 1
        after = [_restrict(held, tables, p, a) for a in (True, False)]
        return p, *(_spread(h, t, n) if h.bit_count() < k else (k - 1, h, t)
                    for h, t in after)

    held, tables = root
    return _diagram(names, choose, _spread(held, tables, n)
                    if held.bit_count() <= depth else (depth, held, tables))


def optimal_depth(s: ExpressionSet, budget: Optional[int] = None,
                  cap: int = DEFAULT_TABLE_CAP) -> DepthReport:
    """Exact minimum worst-case probe count for ``s`` with a witness diagram.

    Descending deepening: ``_decide`` at k = r - 1, r - 2, ... until the
    first refutation, r being the root's number of positions; depth r
    always holds.  A successful round stops at its first winning probe, so
    only the last round searches fully.  ``budget`` caps the explored states
    of all rounds together; exceeding it raises ``BudgetExceeded`` rather
    than returning an approximation.
    """
    names, members, root = _root(s, cap)
    memo: dict[tuple, int] = {}
    depth = root[0].bit_count()
    while depth > 0 and _decide(memo, budget, *root, depth - 1):
        depth -= 1
    return DepthReport(depth=depth, n=s.n, evasive=(depth == s.n),
                       explored_states=len(memo),
                       witness=partial(_witness, names, members, memo, root, depth))


def decide_depth_at_most(s: ExpressionSet, k: int, budget: Optional[int] = None,
                         cap: int = DEFAULT_TABLE_CAP) -> bool:
    """DEC-BDD-DEPTH: is the depth of ``s`` at most ``k``?"""
    if k < 0:
        raise StrategyError("k must be non-negative")
    return _decide({}, budget, *_root(s, cap)[2], k)


def is_evasive(s: ExpressionSet, budget: Optional[int] = None,
               cap: int = DEFAULT_TABLE_CAP) -> bool:
    """DEC-BDD-EVASIVE: is depth ``n - 1`` out of reach, so that the depth
    equals the universe size?  Decided by the exact search.  A set with a
    dead or absent variable is proved at the root; otherwise the root's
    budget is one less than its positions, and an evasive set with an
    unbalanced label class is refuted there by parity."""
    if s.n == 0:
        return True  # depth 0 = n
    return not decide_depth_at_most(s, s.n - 1, budget=budget, cap=cap)


# --- greedy fallback --------------------------------------------------------

def greedy_strategy(s: ExpressionSet, cap: int = DEFAULT_TABLE_CAP) -> DecisionDiagram:
    """One-step lookahead heuristic for sets the exact search cannot afford.

    Each member's own support must have at most ``cap`` variables (else
    ``SupportTooLarge``); the combined support may exceed it.  A variable is
    live when some non-constant member depends on it under the answers so
    far.  Each state probes the live variable minimizing, over both answers,
    the worse live count, the lowest universe index winning ties.

    A state is its members' residual functions, each a ``_compact`` state
    of one table, with no positions once the member is constant.  A probe
    restricts only the members that hold the position.  The live variables
    are the union of the members' positions, so the choice reads nothing
    but the state, and the state is its own node key: answers that leave
    every member the same function share one node.  k disjoint 6-variable
    paths give 13 * 2^k - 12 nodes (196 at k = 4), and path(12) gives 28.

    Scoring restricts nothing.  The first time a member state is seen,
    ``_kept`` reads from its flip rows, for each of its positions and each
    answer, the positions ``_restrict`` would keep.  A candidate's live
    counts are then ORs of these sets and of the other members' positions,
    and only the chosen probe is restricted.
    """
    supports = [within_cap(m.support_indices(), cap) for m in s.members]
    combined = s.support_indices()
    position = {idx: p for p, idx in enumerate(combined)}
    start = []
    for member, support in zip(s.members, supports):
        held = sum(1 << position[idx] for idx in support)
        start.append(_compact(held, (_table(member.root, support),)))

    @cache
    def fix(member: tuple[int, tuple[int]], p: int, a: bool) -> tuple[int, tuple[int]]:
        return _restrict(*member, p, a)

    kept = cache(_kept)

    def child(state: tuple, p: int, a: bool) -> tuple:
        return tuple([fix(m, p, a) if m[0] >> p & 1 else m for m in state])

    def choose(state: tuple) -> Union[Leaf, tuple[int, tuple, tuple]]:
        rest = 0
        for held, _ in state:
            rest |= held
        if not rest:
            return Leaf(tuple(t == 1 for _, (t,) in state))  # every member is constant
        best, best_score = 0, len(combined) + 1
        while rest:
            p = (rest & -rest).bit_length() - 1
            rest ^= 1 << p
            on_true = on_false = 0
            for m in state:
                if m[0] >> p & 1:
                    if_true, if_false = kept(*m)[p]
                    on_true |= if_true
                    on_false |= if_false
                else:
                    on_true |= m[0]
                    on_false |= m[0]
            score = max(on_true.bit_count(), on_false.bit_count())
            if score < best_score:
                best, best_score = p, score
        return best, child(state, best, True), child(state, best, False)

    names = tuple(s.universe.names[i] for i in combined)
    return _diagram(names, choose, tuple(start))


# --- execution --------------------------------------------------------------

AnswerSource = Union[Mapping[str, bool], Callable[[str], bool]]


def run_session(d: DecisionDiagram, answers: AnswerSource) -> Transcript:
    """Walk the diagram, probing via ``answers`` until a leaf is reached.
    Raises ``AnswersExhausted`` where ``answers`` gives no value or ``None``."""
    probes: list[tuple[str, bool]] = []
    i = d.root
    while True:
        node = d.nodes[i]
        if isinstance(node, Leaf):
            return Transcript(tuple(probes), node.labels)
        value = answers(node.variable) if callable(answers) else answers.get(node.variable)
        if value is None:  # a missing answer, or one given as None
            raise AnswersExhausted(f"no answer for variable {node.variable!r}")
        value = bool(value)
        probes.append((node.variable, value))
        i = node.on_true if value else node.on_false


def check_soundness(s: ExpressionSet, d: DecisionDiagram, v: Valuation) -> bool:
    """Follow ``v`` through the diagram and compare the leaf labels with the
    actual member values."""
    from .expr import evaluate

    transcript = run_session(d, lambda name: v.of(name))
    expected = tuple(evaluate(m, v) for m in s.members)
    return transcript.labels == expected


# --- export -----------------------------------------------------------------

def to_dot(d: DecisionDiagram) -> str:
    """DOT export: solid edge = True, dashed = False, leaves show the label
    vector."""
    lines = ["digraph strategy {"]
    for i, node in enumerate(d.nodes):
        if isinstance(node, Leaf):
            label = "".join("T" if b else "F" for b in node.labels)
            lines.append(f'  n{i} [shape=box, label="{label}"];')
        else:
            lines.append(f'  n{i} [shape=ellipse, label="{node.variable}"];')
    for i, node in enumerate(d.nodes):
        if isinstance(node, Probe):
            lines.append(f"  n{i} -> n{node.on_true} [style=solid];")
            lines.append(f"  n{i} -> n{node.on_false} [style=dashed];")
    lines.append(f"  root [shape=point]; root -> n{d.root};")
    lines.append("}")
    return "\n".join(lines) + "\n"


_JSON_LEAF = '    {\n      "kind": "leaf",\n      "labels": [%s]\n    }'
_JSON_PROBE = ('    {\n      "kind": "probe",\n      "variable": %s,\n'
               '      "true": %d,\n      "false": %d\n    }')


def to_json(d: DecisionDiagram) -> str:
    """The bytes of ``json.dumps(doc, indent=2)`` for the document
    ``{"root": ..., "nodes": [...]}``, written from one template per node kind
    rather than by the pure-Python indenting encoder.  Each distinct label
    vector and variable name is encoded once."""
    leaves: dict[tuple[bool, ...], str] = {}
    names: dict[str, str] = {}
    parts = []
    for node in d.nodes:
        if isinstance(node, Leaf):
            text = leaves.get(node.labels)
            if text is None:
                labels = ",\n        ".join("true" if b else "false" for b in node.labels)
                text = leaves[node.labels] = _JSON_LEAF % (
                    f"\n        {labels}\n      " if labels else "")
            parts.append(text)
        else:
            name = names.get(node.variable)
            if name is None:
                name = names[node.variable] = encode_basestring_ascii(node.variable)
            parts.append(_JSON_PROBE % (name, node.on_true, node.on_false))
    nodes = ",\n".join(parts)
    return '{\n  "root": %d,\n  "nodes": [\n%s\n  ]\n}' % (d.root, nodes)


def from_json(text: str) -> DecisionDiagram:
    """The diagram of a ``to_json`` document.  Raises ``MalformedDiagram``
    for any other document: invalid JSON, a missing or mistyped field, a
    label that is not a JSON boolean, or indices that break the order
    ``DecisionDiagram`` requires, which ``to_json`` writes."""
    try:
        doc = json.loads(text)
        raws = doc["nodes"]
        if not isinstance(raws, list):
            raise MalformedDiagram(f"nodes must be a list: {raws!r}")
        nodes: list[DiagramNode] = []
        for raw in raws:
            if raw["kind"] == "leaf":
                labels = raw["labels"]
                if not isinstance(labels, list) or any(type(b) is not bool for b in labels):
                    raise MalformedDiagram(f"labels must be a list of booleans: {labels!r}")
                nodes.append(Leaf(tuple(labels)))
            elif raw["kind"] == "probe":
                if not isinstance(raw["variable"], str):
                    raise MalformedDiagram(f"variable must be a string: {raw['variable']!r}")
                nodes.append(Probe(raw["variable"], raw["true"], raw["false"]))
            else:
                raise MalformedDiagram(f"unknown node kind {raw['kind']!r}")
        return DecisionDiagram(tuple(nodes), doc["root"])
    except json.JSONDecodeError as exc:
        raise MalformedDiagram(f"invalid JSON: {exc}") from None
    except (KeyError, TypeError) as exc:
        raise MalformedDiagram(f"malformed diagram document: {exc!r}") from None
    except RecursionError:
        raise MalformedDiagram("diagram document nested too deeply to read") from None
