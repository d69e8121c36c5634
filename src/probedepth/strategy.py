"""Minimum-depth probing strategies for expression sets.

The depth of a state is 0 when every member is constant, and otherwise
``1 + min over probes of the worse branch``.  One memoized, depth-bounded
search decides "depth at most k?" over partial assignments of the combined
support and keeps the winning probe of each state it proves.  The exact depth
comes from descending deepening over that search, and the witness diagram
from its memo.  Variables outside every member's support never help, so the
search runs over the combined support only; a universe variable absent from
all members immediately makes the set non-evasive.  The greedy fallback keeps
one table per member, so only each member's support must fit the cap.
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


# witness-memo entries that are not a winning probe
_LEAF = -1
_REFUTED = -2


class _Search:
    """Depth-bounded minimax search over partial assignments of the support.

    A state is ``(amask, avals)``: the bitmask of probed support positions and
    their answers.  ``explored`` counts decided states over every round run on
    this instance, and ``budget`` caps that count.
    """

    def __init__(self, s: ExpressionSet, cap: int, budget: Optional[int] = None):
        support = s.support_indices()
        self.names = tuple(s.universe.names[i] for i in support)
        self.m = len(support)
        if self.m > cap:
            raise UniverseTooLarge(f"support size {self.m} exceeds cap {cap}")
        positions = {idx: p for p, idx in enumerate(support)}
        self.masks = variable_masks(self.m)
        self.full = (1 << (1 << self.m)) - 1
        self.tables = tuple(table_bits(m.root, positions, self.m) for m in s.members)
        self.explored = 0
        self.budget = budget

    def is_constant_state(self, care: int) -> bool:
        for t in self.tables:
            masked = t & care
            if masked != 0 and masked != care:
                return False
        return True

    def within(self, k: int) -> Optional[dict[tuple[int, int], int]]:
        """Is the minimax depth at most ``k``?  Returns the witness memo if so,
        else ``None``.

        The memo maps each decided state to its winning probe, to ``_LEAF``
        when the state is constant, or to ``_REFUTED``.  The budget left at a
        state is always ``k - popcount(amask)``, so the key needs no depth.
        States where every remaining variable fits the budget are skipped.
        """
        memo: dict[tuple[int, int], int] = {}
        masks = self.masks
        full = self.full
        m = self.m
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
            if self.is_constant_state(care):
                memo[key] = _LEAF
                return True
            memo[key] = _REFUTED
            if k <= 0:
                return False
            for p in range(m):
                bit = 1 << p
                if amask & bit:
                    continue
                if rec(amask | bit, avals | bit, care & masks[p], k - 1) and \
                   rec(amask | bit, avals, care & ~masks[p] & full, k - 1):
                    memo[key] = p
                    return True
            return False

        return memo if rec(0, 0, full, k) else None

    def leaf_labels(self, care: int) -> tuple[bool, ...]:
        return tuple((t & care) != 0 for t in self.tables)

    def build_diagram(self, memo: dict[tuple[int, int], int]) -> DecisionDiagram:
        """Materialize a witness memo of ``within`` into a shared-node DAG.

        A state the search skipped probes its lowest unassigned position until
        it is constant, which stays within the budget that let it be skipped.
        """
        nodes: list[DiagramNode] = []
        cache: dict[tuple[int, int], int] = {}
        masks = self.masks
        full = self.full

        def build(amask: int, avals: int, care: int) -> int:
            key = (amask, avals)
            if key in cache:
                return cache[key]
            choice = memo.get(key)
            if choice is None and not self.is_constant_state(care):
                choice = (~amask & (amask + 1)).bit_length() - 1
            if choice is None or choice == _LEAF:
                node: DiagramNode = Leaf(self.leaf_labels(care))
            else:
                bit = 1 << choice
                t = build(amask | bit, avals | bit, care & masks[choice])
                f = build(amask | bit, avals, care & ~masks[choice] & full)
                node = Probe(self.names[choice], t, f)
            nodes.append(node)
            cache[key] = len(nodes) - 1
            return cache[key]

        root = build(0, 0, full)
        return DecisionDiagram(tuple(nodes), root)


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
    diagram = search.build_diagram(memo)
    return DepthReport(depth=depth, n=s.n, evasive=(depth == s.n),
                       diagram=diagram, explored_states=search.explored)


def decide_depth_at_most(s: ExpressionSet, k: int, budget: Optional[int] = None,
                         cap: int = DEFAULT_TABLE_CAP) -> bool:
    """DEC-BDD-DEPTH: is the depth of ``s`` at most ``k``?"""
    if k < 0:
        raise StrategyError("k must be non-negative")
    return _Search(s, cap, budget).within(k) is not None


def is_evasive(s: ExpressionSet, budget: Optional[int] = None,
               cap: int = DEFAULT_TABLE_CAP) -> bool:
    """DEC-BDD-EVASIVE by brute force: depth equals the universe size."""
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
    support = s.support_indices()
    position = {idx: p for p, idx in enumerate(support)}
    names = tuple(s.universe.names[i] for i in support)
    # per member: truth table over its own support, combined-position mask of
    # that support, and (table mask, table shift, combined bit) per variable
    tables: list[int] = []
    spans: list[int] = []
    locals_: list[tuple[tuple[int, int, int], ...]] = []
    touching: list[list[tuple[int, int]]] = [[] for _ in support]
    for i, m in enumerate(s.members):
        local = m.support_indices()
        if len(local) > cap:
            raise SupportTooLarge(f"support size {len(local)} exceeds cap {cap}")
        masks = variable_masks(len(local))
        tables.append(table_bits(m.root, {idx: q for q, idx in enumerate(local)}, len(local)))
        spans.append(sum(1 << position[idx] for idx in local))
        locals_.append(tuple((masks[q], 1 << q, 1 << position[idx])
                             for q, idx in enumerate(local)))
        for q, idx in enumerate(local):
            touching[position[idx]].append((i, masks[q]))
    # (constant or None, live mask) per member, keyed by its slice of the state
    classified: list[dict[tuple[int, int], tuple[Optional[bool], int]]] = \
        [{} for _ in s.members]

    def classify(i: int, amask: int, avals: int, care: int) -> tuple[Optional[bool], int]:
        key = (amask & spans[i], avals & spans[i])
        hit = classified[i].get(key)
        if hit is None:
            tc = tables[i] & care
            if tc == 0 or tc == care:
                hit = (tc != 0, 0)
            else:
                live = 0
                for mask, shift, bit in locals_[i]:
                    if not amask & bit and (tc & mask) >> shift != tc & ~mask:
                        live |= bit
                hit = (None, live)
            classified[i][key] = hit
        return hit

    nodes: list[DiagramNode] = []
    node_at: dict[tuple[int, int], int] = {}

    def child_cares(cares: tuple[int, ...], p: int, value: bool) -> tuple[int, ...]:
        out = list(cares)
        for i, mask in touching[p]:
            out[i] = cares[i] & mask if value else cares[i] & ~mask
        return tuple(out)

    # cares[i]: the rows of member i's table that agree with the answers so far
    def build(amask: int, avals: int, cares: tuple[int, ...]) -> int:
        key = (amask, avals)
        if key in node_at:
            return node_at[key]
        states = [classify(i, amask, avals, c) for i, c in enumerate(cares)]
        live = 0
        for _, member_live in states:
            live |= member_live
        if not live:
            node: DiagramNode = Leaf(tuple(const for const, _ in states))
        else:
            best, best_score = -1, len(names) + 1
            rest = live
            while rest:
                bit = rest & -rest
                rest ^= bit
                p = bit.bit_length() - 1
                untouched = 0
                for i, (_, member_live) in enumerate(states):
                    if not spans[i] & bit:
                        untouched |= member_live
                score = 0
                for value in (bit, 0):
                    branch_live = untouched
                    for i, mask in touching[p]:
                        care = cares[i] & mask if value else cares[i] & ~mask
                        branch_live |= classify(i, amask | bit, avals | value, care)[1]
                    score = max(score, branch_live.bit_count())
                if score < best_score:
                    best, best_score = p, score
            bit = 1 << best
            t = build(amask | bit, avals | bit, child_cares(cares, best, True))
            f = build(amask | bit, avals, child_cares(cares, best, False))
            node = Probe(names[best], t, f)
        nodes.append(node)
        node_at[key] = len(nodes) - 1
        return node_at[key]

    root = build(0, 0, tuple((1 << (1 << len(l))) - 1 for l in locals_))
    return DecisionDiagram(tuple(nodes), root)


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
