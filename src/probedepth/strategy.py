"""Minimum-depth probing strategies for expression sets.

The depth of a state is 0 when every member is constant, and otherwise
``1 + min over probes of the worse branch``.  One memoized, depth-bounded
search decides "depth at most k?" over partial assignments of the combined
support and keeps the winning probe of each state it proves.  The exact depth
comes from descending deepening over that search, and the witness diagram
from its memo.  Variables outside every member's support never help, so
positions index the combined support; a universe variable absent from all
members makes the set non-evasive.  The search and greedy share the member
tables and the diagram builder.  The search tabulates every member over the
combined support and caps it; greedy keeps one table per member support and
caps only each member's.

Parity rule (Rivest & Vuillemin 1976).  Split a state's care rows into label
classes, the rows that share one vector of member values.  If the state has
r unprobed positions and budget k < r, it is refuted as soon as some class
holds more even-weight rows than odd-weight rows, or fewer:
  1. every leaf of a diagram of depth at most k leaves a position free, so
     its rows form a subcube of dimension >= 1, which is balanced;
  2. every member is constant on a leaf, so a class is a union of leaves;
  3. so every class of a state of depth at most k is balanced.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Union

from .expr import (
    DEFAULT_TABLE_CAP,
    ExpressionSet,
    SupportTooLarge,
    Valuation,
    table_bits,
    variable_masks,
)


class StrategyError(ValueError):
    """Base class for strategy-level errors."""


class UniverseTooLarge(StrategyError):
    pass


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
    """A rooted DAG of probe nodes and leaf nodes realizing a strategy."""

    nodes: tuple[DiagramNode, ...]
    root: int


@dataclass(frozen=True)
class DepthReport:
    depth: int
    n: int
    evasive: bool
    diagram: DecisionDiagram
    explored_states: int


@dataclass(frozen=True)
class Transcript:
    probes: tuple[tuple[str, bool], ...]
    labels: tuple[bool, ...]

    @property
    def probe_count(self) -> int:
        return len(self.probes)


def diagram_depth(d: DecisionDiagram) -> int:
    """Longest root-to-leaf edge count; 0 for a single-leaf diagram.

    Raises ``MalformedDiagram`` on dangling indices or cycles.
    """
    n = len(d.nodes)
    if not 0 <= d.root < n:
        raise MalformedDiagram(f"root index {d.root} out of range")
    depth: dict[int, int] = {}
    state: dict[int, int] = {}  # 1 = on stack, 2 = done

    def visit(i: int) -> int:
        if not 0 <= i < n:
            raise MalformedDiagram(f"node index {i} out of range")
        if state.get(i) == 1:
            raise MalformedDiagram("diagram contains a cycle")
        if state.get(i) == 2:
            return depth[i]
        state[i] = 1
        node = d.nodes[i]
        if isinstance(node, Leaf):
            depth[i] = 0
        else:
            depth[i] = 1 + max(visit(node.on_true), visit(node.on_false))
        state[i] = 2
        return depth[i]

    return visit(d.root)


class _Tables:
    """Every member's truth table over the support given for it.  Members with
    the same support share a slot: its positions, their bits, its projection
    masks and its full row set."""

    def __init__(self, s: ExpressionSet, supports: list[tuple[int, ...]]):
        combined = sorted(set().union(*supports))
        position = {idx: p for p, idx in enumerate(combined)}
        self.names = tuple(s.universe.names[i] for i in combined)
        self.m = len(combined)
        masks = {k: variable_masks(k) for k in {len(support) for support in supports}}
        self.slots: dict[tuple[int, ...], tuple[tuple[int, ...], int, list[int], int]] = {}
        self.tables: list[tuple[tuple, int]] = []  # per member: its slot, its truth table
        for member, support in zip(s.members, supports):
            k = len(support)
            if support not in self.slots:
                held = tuple(position[idx] for idx in support)
                self.slots[support] = (held, sum(1 << p for p in held), masks[k],
                                       (1 << (1 << k)) - 1)
            # a member holding the whole combined support numbers it the same way
            local = position if k == self.m else {idx: q for q, idx in enumerate(support)}
            self.tables.append((self.slots[support], table_bits(member.root, local, k)))

    def diagram(self, choose: Callable, care: object) -> DecisionDiagram:
        """The diagram ``choose(amask, avals, care)`` spells out: at each state a
        ``Leaf``, or a position to probe and the ``care`` (the chooser's own
        per-state data) to pass on after each answer.  Equal states share one node."""
        nodes: list[DiagramNode] = []
        node_at: dict[tuple[int, int], int] = {}

        def build(amask: int, avals: int, care: object) -> int:
            if (amask, avals) in node_at:
                return node_at[amask, avals]
            node = choose(amask, avals, care)
            if not isinstance(node, Leaf):
                p, if_true, if_false = node
                bit = 1 << p
                node = Probe(self.names[p], build(amask | bit, avals | bit, if_true),
                             build(amask | bit, avals, if_false))
            nodes.append(node)
            node_at[amask, avals] = len(nodes) - 1
            return node_at[amask, avals]

        root = build(0, 0, care)
        return DecisionDiagram(tuple(nodes), root)


# witness-memo entries that are not a winning probe
_LEAF = -1
_REFUTED = -2


class _Search(_Tables):
    """Depth-bounded minimax search over partial assignments of the support.

    A state is ``(amask, avals)``: the bitmask of probed support positions and
    their answers.  Every member is tabulated over the combined support, so a
    state's care set, the rows that agree with its answers, is one integer of
    2^m bits, and answer a for position p narrows it to ``care & keep[a][p]``.
    ``explored`` counts decided states over all rounds; ``budget`` caps it.

    The care set splits into label classes: the care rows that share one
    vector of member values.  One class means every member is constant.
    ``even`` holds the rows of even weight.  A state with r unprobed positions
    and budget k < r is refuted when a class has more even-weight rows than
    odd-weight rows, or fewer: each leaf of a diagram of depth at most k is a
    subcube of dimension >= 1, which is balanced, and each class is a union of
    leaves, so each class would be balanced (see ``within``).
    """

    def __init__(self, s: ExpressionSet, cap: int, budget: Optional[int] = None):
        combined = s.support_indices()
        if len(combined) > cap:
            raise UniverseTooLarge(f"support size {len(combined)} exceeds cap {cap}")
        super().__init__(s, [combined] * len(s.members))
        (_, _, masks, self.full), = self.slots.values()
        self.members = [t for _, t in self.tables]
        self.distinct = list(dict.fromkeys(self.members))  # equal tables split alike
        self.keep = [self.full ^ mask for mask in masks], masks
        self.even = 1  # by doubling: the upper half of each row block flips parity
        for p in range(self.m):
            self.even |= (((1 << (1 << p)) - 1) ^ self.even) << (1 << p)
        self.explored = 0
        self.budget = budget

    def split(self, care: int) -> list[int]:
        """The label classes of ``care``: each member splits every class c into
        ``c & t`` and the rest, when both are non-empty."""
        classes = [care]
        for t in self.distinct:
            for i in range(len(classes)):
                c = classes[i]
                ones = c & t
                if ones and ones != c:
                    classes[i] = ones
                    classes.append(c ^ ones)
        return classes

    def within(self, k: int) -> Optional[dict[tuple[int, int], int]]:
        """Is the minimax depth at most ``k``?  Returns the witness memo if so,
        else ``None``.

        The memo maps each decided state to its winning probe, to ``_LEAF``
        when the state is constant, or to ``_REFUTED``.  The budget left at a
        state is always ``k - popcount(amask)``, so the key needs no depth.
        States where every remaining variable fits the budget are skipped.

        Parity rule: a state with r > k unprobed positions is refuted when a
        label class holds more even-weight rows than odd-weight rows, or fewer.
        Proof: (1) every leaf of a diagram of depth at most k < r leaves some
        unprobed position free, so its rows form a subcube of dimension >= 1,
        with as many even-weight rows as odd-weight ones; (2) a class is a
        union of such leaves, since a leaf fixes every member; (3) so every
        class is balanced.  The care set is a subcube too, so the classes'
        signed sums add up to 0, and all classes but one need checking.  The
        rule refutes only states the search would refute anyway, so proved
        states keep their first winning probe.
        """
        memo: dict[tuple[int, int], int] = {}
        if_false, if_true = self.keep
        m, even, split = self.m, self.even, self.split
        budget = self.budget

        def rec(amask: int, avals: int, care: int, k: int) -> bool:
            if k >= m - amask.bit_count():
                return True  # probing everything that remains always suffices
            key = (amask, avals)
            hit = memo.get(key)
            if hit is not None:
                return hit != _REFUTED
            self.explored += 1
            if budget is not None and self.explored > budget:
                raise BudgetExceeded(f"state budget {budget} exhausted")
            classes = split(care)
            if len(classes) == 1:
                memo[key] = _LEAF
                return True
            memo[key] = _REFUTED
            if k <= 0:
                return False
            classes.pop()  # balanced when the others are
            for c in classes:
                if 2 * (c & even).bit_count() != c.bit_count():
                    return False
            for p in range(m):
                bit = 1 << p
                if amask & bit:
                    continue
                if rec(amask | bit, avals | bit, care & if_true[p], k - 1) and \
                   rec(amask | bit, avals, care & if_false[p], k - 1):
                    memo[key] = p
                    return True
            return False

        return memo if rec(0, 0, self.full, k) else None

    def witness(self, memo: dict[tuple[int, int], int]) -> DecisionDiagram:
        """The diagram of a witness memo of ``within``.  A state the search
        skipped probes its lowest unassigned position until it is constant,
        which stays within the budget that let it be skipped."""
        def choose(amask: int, avals: int, care: int) -> Union[Leaf, tuple[int, int, int]]:
            p = memo.get((amask, avals))
            if p is None and len(self.split(care)) > 1:
                p = (~amask & (amask + 1)).bit_length() - 1
            if p is None or p == _LEAF:
                return Leaf(tuple(t & care != 0 for t in self.members))
            return p, care & self.keep[1][p], care & self.keep[0][p]

        return self.diagram(choose, self.full)


def optimal_depth(s: ExpressionSet, budget: Optional[int] = None,
                  cap: int = DEFAULT_TABLE_CAP) -> DepthReport:
    """Exact minimum worst-case probe count for ``s`` with a witness diagram.

    Descending deepening: ``within(k)`` for k = m - 1, m - 2, ... until the
    first refutation; depth m always holds.  A successful round stops at its
    first winning probe, so only the last round searches fully.  ``budget``
    caps the explored states of all rounds together; exceeding it raises
    ``BudgetExceeded`` rather than returning an approximation.
    """
    search = _Search(s, cap, budget)
    depth, memo = search.m, {}
    while depth > 0:
        witness = search.within(depth - 1)
        if witness is None:
            break
        depth, memo = depth - 1, witness
    return DepthReport(depth=depth, n=s.n, evasive=(depth == s.n),
                       diagram=search.witness(memo), explored_states=search.explored)


def decide_depth_at_most(s: ExpressionSet, k: int, budget: Optional[int] = None,
                         cap: int = DEFAULT_TABLE_CAP) -> bool:
    """DEC-BDD-DEPTH: is the depth of ``s`` at most ``k``?"""
    if k < 0:
        raise StrategyError("k must be non-negative")
    return _Search(s, cap, budget).within(k) is not None


def is_evasive(s: ExpressionSet, budget: Optional[int] = None,
               cap: int = DEFAULT_TABLE_CAP) -> bool:
    """DEC-BDD-EVASIVE: is depth ``n - 1`` out of reach, so that the depth
    equals the universe size?  Decided by the exact search with its parity
    rule."""
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
    the worse live count, the lowest universe index winning ties.  Equal
    states share one diagram node.
    """
    supports = [m.support_indices() for m in s.members]
    for support in supports:
        if len(support) > cap:
            raise SupportTooLarge(f"support size {len(support)} exceeds cap {cap}")
    tables = _Tables(s, supports)
    seen: list[dict] = [{} for _ in supports]  # per member slice: (label if constant, live)

    def choose(amask: int, avals: int, _) -> Union[Leaf, tuple[int, None, None]]:
        agree: dict[int, int] = {}  # by slot span: its rows that agree with the answers

        def live(a: int, v: int, bit: int = 0) -> int:
            """Positions some non-constant member depends on, ``bit`` answered as in ``v``."""
            out = 0
            for i, ((held, span, masks, ones), t) in enumerate(tables.tables):
                hit = seen[i].get((a & span, v & span))
                if hit is None:
                    if span not in agree:
                        agree[span] = ones
                        for q, p in enumerate(held):
                            if amask >> p & 1:
                                agree[span] &= masks[q] if avals >> p & 1 else ~masks[q]
                    rows = agree[span]
                    if span & bit:
                        mask = masks[held.index(bit.bit_length() - 1)]
                        rows &= mask if v & bit else ~mask
                    t &= rows
                    depends = 0
                    if t and t != rows:
                        for q, p in enumerate(held):
                            # its true rows with x_q = 1, moved onto their x_q = 0 partners
                            if not a >> p & 1 and (t & masks[q]) >> (1 << q) != t & ~masks[q]:
                                depends |= 1 << p
                    hit = seen[i][a & span, v & span] = (None if depends else t != 0, depends)
                out |= hit[1]
            return out

        rest = live(amask, avals)
        if not rest:
            return Leaf(tuple(seen[i][amask & span, avals & span][0]
                              for i, ((_, span, *_), _) in enumerate(tables.tables)))
        best, best_score = 0, tables.m + 1
        while rest:
            bit = rest & -rest
            rest ^= bit
            score = max(live(amask | bit, avals | bit, bit).bit_count(),
                        live(amask | bit, avals, bit).bit_count())
            if score < best_score:
                best, best_score = bit.bit_length() - 1, score
        return best, None, None

    return tables.diagram(choose, None)


# --- execution --------------------------------------------------------------

AnswerSource = Union[Mapping[str, bool], Callable[[str], bool]]


def run_session(d: DecisionDiagram, answers: AnswerSource) -> Transcript:
    """Walk the diagram, probing via ``answers`` until a leaf is reached."""
    probes: list[tuple[str, bool]] = []
    i = d.root
    while True:
        node = d.nodes[i]
        if isinstance(node, Leaf):
            return Transcript(tuple(probes), node.labels)
        if callable(answers):
            value = answers(node.variable)
            if value is None:
                raise AnswersExhausted(f"no answer for variable {node.variable!r}")
        else:
            try:
                value = answers[node.variable]
            except KeyError:
                raise AnswersExhausted(f"no answer for variable {node.variable!r}") from None
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


def to_json(d: DecisionDiagram) -> str:
    nodes = []
    for node in d.nodes:
        if isinstance(node, Leaf):
            nodes.append({"kind": "leaf", "labels": list(node.labels)})
        else:
            nodes.append({"kind": "probe", "variable": node.variable,
                          "true": node.on_true, "false": node.on_false})
    return json.dumps({"root": d.root, "nodes": nodes}, indent=2)


def from_json(text: str) -> DecisionDiagram:
    doc = json.loads(text)
    nodes: list[DiagramNode] = []
    for raw in doc["nodes"]:
        if raw["kind"] == "leaf":
            nodes.append(Leaf(tuple(bool(b) for b in raw["labels"])))
        elif raw["kind"] == "probe":
            nodes.append(Probe(raw["variable"], int(raw["true"]), int(raw["false"])))
        else:
            raise MalformedDiagram(f"unknown node kind {raw['kind']!r}")
    return DecisionDiagram(tuple(nodes), int(doc["root"]))
