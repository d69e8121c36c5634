"""Minimum-depth probing strategies for expression sets.

The depth of a state is 0 when every member is constant, and otherwise
``1 + min over probes of the worse branch``.  One memoized, depth-bounded
search decides "depth at most k?" over partial assignments of the combined
support and keeps the winning probe of each state it proves.  The exact depth
comes from descending deepening over that search, and the witness diagram
from its memo.  Variables outside every member's support never help, so
positions index the combined support; a universe variable absent from all
members makes the set non-evasive.  The search and greedy share the diagram
builder.  The search tabulates every member over the combined support and
caps it.  Greedy caps only each member's support: its state is each
member's residual function, the member's label once constant, else the
positions it depends on and its table over exactly those, and a probe
restricts (``_fix``) and compacts (``_compact``) only the members that
hold it.

Transpositions.  The search memoises a state by its probed positions and
each member's residual table, the member's values on the state's rows
shifted down to the lowest of them, not by its answers: answers that leave
every member the same function give one state, searched once, and one node
of the witness.  Position p is table variable m - 1 - p, so the states of a
search that tries low positions first fix the high table variables and
their residuals stay narrow.

Degree rule (Nisan & Szegedy 1994, deg(f) <= D(f), applied per state).  A
state with r unprobed positions and budget k < r is refuted when a label
class, the state's rows that share one vector of member values, has a
non-zero signed sum over a set of more than k unprobed positions.  The
search checks three levels of it, the top one being Rivest & Vuillemin's
parity argument (1976); the proof and the levels are in ``_Search.within``.
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
    Valuation,
    table_bits,
    truth_table,
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

    try:
        return visit(d.root)
    finally:
        del visit  # break the closure's reference to itself, which holds the depth tables


def _diagram(names: tuple[str, ...], key: Callable, choose: Callable,
             start: object) -> DecisionDiagram:
    """The diagram ``choose(k, amask, state)`` spells out: at each state,
    given its key k, a ``Leaf``, or a position to probe and the chooser's own
    per-state value to pass on after each answer, true first.  The root's
    value is ``start``.  ``names`` names the positions.

    States with equal ``k = key(amask, state)`` share one node, so the
    caller supplies a key that fixes everything its ``choose`` reads below
    the state: the search keys by the residual member tables of the care
    rows (see ``_Search.key``); greedy's state, its members' residual
    functions, is its own key (see ``greedy_strategy``)."""
    nodes: list[DiagramNode] = []
    node_at: dict[object, int] = {}

    def build(amask: int, state: object) -> int:
        k = key(amask, state)
        if k in node_at:
            return node_at[k]
        node = choose(k, amask, state)
        if not isinstance(node, Leaf):
            p, if_true, if_false = node
            bit = 1 << p
            node = Probe(names[p], build(amask | bit, if_true), build(amask | bit, if_false))
        nodes.append(node)
        node_at[k] = len(nodes) - 1
        return node_at[k]

    try:
        root = build(0, start)
    finally:
        del build  # break the closure's reference to itself, which holds the node table
    return DecisionDiagram(tuple(nodes), root)


@cache
def _frame(m: int) -> tuple[int, tuple[tuple[int, ...], tuple[int, ...]], int]:
    """The search's per-m masks: the full row set, the rows that keep each
    answer to each position (``keep[a][p]``, position p being table variable
    m - 1 - p) and the rows of even weight."""
    full = (1 << (1 << m)) - 1
    if_true = variable_masks(m)[::-1]
    even = 1  # by doubling: the upper half of each row block flips parity
    for p in range(m):
        even |= (((1 << (1 << p)) - 1) ^ even) << (1 << p)
    return full, (tuple(full ^ t for t in if_true), if_true), even


def _fix(t: int, k: int, q: int, a: bool) -> int:
    """The table ``t`` over k variables with variable q set to ``a``, over the
    other k - 1 in their order: q moves to the top by adjacent δ-swaps
    (Knuth, TAOCP 4A §7.1.3), and the half where it reads ``a`` stays."""
    masks = variable_masks(k)
    for j in range(q, k - 1):
        d = 1 << j  # swap the rows with x_j = 1, x_(j+1) = 0 with their partners
        y = (t ^ t >> d) & masks[j] & ~masks[j + 1]
        t ^= y | y << d
    half = 1 << (k - 1)
    return t >> half if a else t & ((1 << half) - 1)


def _compact(held: int, t: int) -> Union[bool, tuple[int, int]]:
    """The member with table ``t`` over the positions set in ``held``, the
    q-th lowest being table variable q, as its label where ``t`` is constant,
    else as the positions it depends on and its table over exactly those."""
    k = held.bit_count()
    if t == 0 or t + 1 == 1 << (1 << k):
        return t != 0
    masks, rest = variable_masks(k), held
    for q in reversed(range(k)):
        bit = 1 << rest.bit_length() - 1  # the position of table variable q
        rest ^= bit
        if (t & masks[q]) >> (1 << q) == t & ~masks[q]:  # both halves agree
            t = _fix(t, held.bit_count(), q, False)
            held ^= bit
    return held, t


# witness-memo entries that are not a winning probe
_LEAF = -1
_REFUTED = -2


class _Search:
    """Depth-bounded minimax search over partial assignments of the support.

    A state is ``amask``, the bitmask of probed support positions, and its
    care set, the rows that agree with the answers.  Every member is
    tabulated over the combined support, position p as table variable
    m - 1 - p, so the care set is one integer of 2^m bits, and answer a for
    position p narrows it to ``care & keep[a][p]``.  States are memoised
    and shared by ``key``, the probed positions and the residual of each
    distinct member table.  ``explored`` counts the distinct keys decided
    over all rounds; ``budget`` caps it.

    The care set splits into label classes: the care rows that share one
    vector of member values.  One class means every member is constant.
    ``even`` holds the rows of even weight, which the degree rule reads; see
    ``within`` for the rule and its proof.
    """

    def __init__(self, s: ExpressionSet, cap: int, budget: Optional[int] = None):
        combined = s.support_indices()
        if len(combined) > cap:
            raise UniverseTooLarge(f"support size {len(combined)} exceeds cap {cap}")
        self.names = tuple(s.universe.names[i] for i in combined)
        self.m = m = len(combined)
        position = {idx: m - 1 - p for p, idx in enumerate(combined)}  # table variables
        self.members = [table_bits(member.root, position, m) for member in s.members]
        self.distinct = list(dict.fromkeys(self.members))  # equal tables split alike
        self.full, self.keep, self.even = _frame(m)
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

    def key(self, amask: int, care: int) -> tuple:
        """The transposition key of a state: its probed positions and each
        distinct member's residual, its table on the care rows shifted down
        to the lowest of them.  States with equal keys have the same free
        positions, budget and member functions of them."""
        low = (care & -care).bit_length() - 1
        return amask, *[(t & care) >> low for t in self.distinct]

    def within(self, k: int) -> Optional[dict[tuple, int]]:
        """Is the minimax depth at most ``k``?  Returns the witness memo if so,
        else ``None``.

        The memo maps the ``key`` of each decided state to its winning probe,
        to ``_LEAF`` when the state is constant, or to ``_REFUTED``.  The
        budget left at a state is always ``k - popcount(amask)``, so the key
        needs no depth.  States with equal keys have the same free positions,
        budget and member functions.  Their care rows differ by the shift to
        the lowest row, which at most flips the parity of every row at once,
        and no balance test below sees that; so they get the same verdict and
        the same first winning probe.  Keying by the residuals rather than
        the answers changes which states are searched, not a depth, a verdict
        or a walk.  Every remaining variable
        fits the budget at every state of a round or at none, so a round with
        k >= m is not searched: its memo is empty.

        Degree rule: a state with r > k unprobed positions is refuted when a
        label class C has a non-zero signed sum, sum over x in C of
        (-1)^|x & S|, for a set S of unprobed positions with |S| > k.  Proof:
        (1) every leaf of a diagram of depth at most k fixes at most k
        positions, so some position of S is free in it and its sum over S is
        0; (2) a class is a union of such leaves, since a leaf fixes every
        member; (3) so every class sums to 0 over S.  Probed positions are
        constant on C, so the sum is 0 exactly when half the rows of C have
        even weight outside the unprobed positions not in S.  Three levels
        are checked, the cheap ones first:
          - |S| = r (Rivest & Vuillemin's parity): the rows of ``even``;
          - |S| = r - 1, when k <= r - 2: even outside p, ``even ^ keep[1][p]``,
            for each unprobed p;
          - |S| = r - 2, when k <= r - 3: even outside p and q, one more XOR
            with ``keep[1][q]``, for each pair.
        k - r is the same at every state of a round, so the levels that apply
        are fixed per round; ``is_evasive`` asks k = m - 1 and never reaches
        the lower two.  The care set is a subcube, so its own sum over every
        non-empty S is 0, and all classes but one need checking.  The rule
        refutes only states the search would refute anyway, so proved states
        keep their first winning probe.
        """
        m = self.m
        if k >= m:
            return {}  # probing every position always suffices
        memo: dict[tuple, int] = {}
        if_false, if_true = self.keep
        even, split, state_key = self.even, self.split, self.key
        budget = self.budget
        gap = m - k  # r - k at every state: a probe takes one from both
        even_but = [even ^ t for t in if_true] if gap > 1 else None  # even outside p

        def refuted_below(amask: int, classes: list[int]) -> bool:
            """Does a class sum to non-zero over every unprobed position but
            one, or (k <= r - 3) but two?  Kept out of ``rec``, so that rounds
            these levels never reach, as in ``is_evasive``, keep its frame small."""
            free = [p for p in range(m) if not amask >> p & 1]
            for c in classes:
                n = c.bit_count()
                halves = [c & even_but[p] for p in free]  # |S| = r - 1
                if any(2 * h.bit_count() != n for h in halves):
                    return True
                if gap > 2:  # |S| = r - 2: c & (even_but[p] ^ if_true[q])
                    ones = [c & if_true[q] for q in free]
                    for i, h in enumerate(halves):
                        for t in ones[i + 1:]:
                            if 2 * (h ^ t).bit_count() != n:
                                return True
            return False

        def rec(amask: int, care: int, k: int) -> bool:
            key = state_key(amask, care)
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
            classes.pop()  # its sums vanish when the others' do
            for c in classes:  # |S| = r
                if 2 * (c & even).bit_count() != c.bit_count():
                    return False
            if gap > 1 and refuted_below(amask, classes):
                return False
            for p in range(m):
                bit = 1 << p
                if amask & bit:
                    continue
                if rec(amask | bit, care & if_true[p], k - 1) and \
                   rec(amask | bit, care & if_false[p], k - 1):
                    memo[key] = p
                    return True
            return False

        try:
            return memo if rec(0, self.full, k) else None
        finally:
            del rec  # break the closure's reference to itself, which holds the memo

    def witness(self, memo: dict[tuple, int]) -> DecisionDiagram:
        """The diagram of a witness memo of ``within``, one node per key, so
        states the search shared share a node too.  A state missing from the
        memo, as in a round ``within`` did not search, probes its lowest
        unassigned position until it is constant, which stays within the
        budget that let the round go unsearched."""
        def choose(k: tuple, amask: int, care: int) -> Union[Leaf, tuple[int, int, int]]:
            p = memo.get(k)
            if p is None and any(t & care not in (0, care) for t in self.distinct):
                p = (~amask & (amask + 1)).bit_length() - 1
            if p is None or p == _LEAF:
                return Leaf(tuple(t & care != 0 for t in self.members))
            return p, care & self.keep[1][p], care & self.keep[0][p]

        return _diagram(self.names, self.key, choose, self.full)


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
                       explored_states=search.explored,
                       witness=partial(search.witness, memo))


def decide_depth_at_most(s: ExpressionSet, k: int, budget: Optional[int] = None,
                         cap: int = DEFAULT_TABLE_CAP) -> bool:
    """DEC-BDD-DEPTH: is the depth of ``s`` at most ``k``?"""
    if k < 0:
        raise StrategyError("k must be non-negative")
    return _Search(s, cap, budget).within(k) is not None


def is_evasive(s: ExpressionSet, budget: Optional[int] = None,
               cap: int = DEFAULT_TABLE_CAP) -> bool:
    """DEC-BDD-EVASIVE: is depth ``n - 1`` out of reach, so that the depth
    equals the universe size?  Decided by the exact search.  Its budget is
    one less than the unprobed positions at every state, so of the degree
    rule only the top level, parity, applies: an evasive set with an
    unbalanced label class is decided at the root."""
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

    A state is its members' residual functions: per member, its label where
    it is constant, else the positions it depends on and its table over
    exactly those (``_compact``).  A probe restricts only the members that
    hold the position (``_fix``).  The live variables are the union of the
    non-constant members' positions, so the choice reads nothing but the
    state, and the state is its own node key: answers that leave every
    member the same function share one node, and once every member is
    constant the state is the leaf's labels.  k disjoint 6-variable paths
    give 13 * 2^k - 12 nodes (196 at k = 4), and path(12) gives 28.
    """
    supports = [m.support_indices() for m in s.members]
    combined = sorted(set().union(*supports))
    position = {idx: p for p, idx in enumerate(combined)}
    start = tuple(_compact(sum(1 << position[idx] for idx in support), truth_table(m, cap).bits)
                  for m, support in zip(s.members, supports))

    @cache
    def fix(member: tuple[int, int], p: int, a: bool) -> Union[bool, tuple[int, int]]:
        held, t = member
        q = (held & ((1 << p) - 1)).bit_count()
        return _compact(held ^ 1 << p, _fix(t, held.bit_count(), q, a))

    def child(state: tuple, p: int, a: bool) -> tuple:
        return tuple([fix(m, p, a) if isinstance(m, tuple) and m[0] >> p & 1 else m
                      for m in state])

    def live(state: tuple) -> int:
        out = 0
        for m in state:
            if isinstance(m, tuple):
                out |= m[0]
        return out

    def choose(state: tuple, amask: int, _: tuple) -> Union[Leaf, tuple[int, tuple, tuple]]:
        rest = live(state)
        if not rest:
            return Leaf(state)  # every member is constant: its labels
        best, best_score = 0, len(combined) + 1
        while rest:
            p = (rest & -rest).bit_length() - 1
            rest ^= 1 << p
            score = max(live(child(state, p, True)).bit_count(),
                        live(child(state, p, False)).bit_count())
            if score < best_score:
                best, best_score = p, score
        return best, child(state, best, True), child(state, best, False)

    names = tuple(s.universe.names[i] for i in combined)
    return _diagram(names, lambda amask, state: state, choose, start)


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
    nodes = "[\n" + ",\n".join(parts) + "\n  ]" if parts else "[]"
    return '{\n  "root": %d,\n  "nodes": %s\n}' % (d.root, nodes)


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
