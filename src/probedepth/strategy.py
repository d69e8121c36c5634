"""Minimum-depth probing strategies for expression sets.

The depth of a state is 0 when every member is constant, and otherwise
``1 + min over probes of the worse branch``.  One memoized, depth-bounded
search decides "depth at most k?" over partial assignments of the combined
support and keeps the winning probe of each state it proves.  The exact depth
comes from descending deepening over that search, and the witness diagram
from its memo.  Variables outside every member's support never help, so the
search runs over the combined support only; a universe variable absent from
all members immediately makes the set non-evasive.
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
        if s.n > cap:
            raise UniverseTooLarge(f"universe size {s.n} exceeds cap {cap}")
        support = s.support_indices()
        self.names = tuple(s.universe.names[i] for i in support)
        self.m = len(support)
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
    """One-step lookahead heuristic for universes beyond the exact-search cap.

    At each node picks the variable minimizing, over both answers, the worse
    count of variables still occurring in non-constant restricted members.
    """
    from .expr import is_constant, restrict_set

    nodes: list[DiagramNode] = []

    def member_constants(cur: ExpressionSet) -> Optional[tuple[bool, ...]]:
        out = []
        for m in cur.members:
            c = is_constant(m, cap)
            if c is None:
                return None
            out.append(c)
        return tuple(out)

    def live_variable_count(cur: ExpressionSet) -> int:
        live: set[str] = set()
        for m in cur.members:
            if is_constant(m, cap) is None:
                live.update(m.support())
        return len(live)

    def build(cur: ExpressionSet) -> int:
        labels = member_constants(cur)
        if labels is not None:
            nodes.append(Leaf(labels))
            return len(nodes) - 1
        candidates: list[str] = []
        seen: set[str] = set()
        for m in cur.members:
            if is_constant(m, cap) is None:
                for name in m.support():
                    if name not in seen:
                        seen.add(name)
                        candidates.append(name)
        candidates.sort(key=cur.universe.index)
        best_name = None
        best_score = None
        branches = None
        for name in candidates:
            on_true = restrict_set(cur, name, True)
            on_false = restrict_set(cur, name, False)
            score = max(live_variable_count(on_true), live_variable_count(on_false))
            if best_score is None or score < best_score:
                best_name, best_score = name, score
                branches = (on_true, on_false)
        t = build(branches[0])
        f = build(branches[1])
        nodes.append(Probe(best_name, t, f))
        return len(nodes) - 1

    root = build(s)
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
