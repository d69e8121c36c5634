"""Boolean expressions over a declared variable universe.

The core value types are immutable: a ``VariableUniverse`` fixing the set of
variables (and hence ``n``), expression syntax trees, total and partial
valuations, and absorbed monotone DNFs.  Everything downstream (depth search,
graph DNFs, provenance) is built on top of these.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Union

DEFAULT_TABLE_CAP = 20

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class ExprError(ValueError):
    """Base class for expression-level errors."""


class ParseError(ExprError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class SupportTooLarge(ExprError):
    """Raised when a truth-table computation would exceed its variable cap."""


class NestingTooDeep(ExprError):
    """Raised when an expression is nested deeper than the recursion limit allows."""


def _nesting_guard(what: str):
    """Turn a ``RecursionError`` of the wrapped tree walk into ``NestingTooDeep``."""
    def wrap(f):
        @functools.wraps(f)
        def guarded(*args, **kwargs):
            try:
                return f(*args, **kwargs)
            except RecursionError:
                raise NestingTooDeep(f"expression nested too deeply to {what}") from None
        return guarded
    return wrap


@dataclass(frozen=True)
class VariableUniverse:
    """An ordered set of distinct variable identifiers."""

    names: tuple[str, ...]

    def __post_init__(self):
        positions: dict[str, int] = {}
        for i, name in enumerate(self.names):
            if not _IDENT_RE.fullmatch(name):
                raise ExprError(f"invalid variable name: {name!r}")
            if name in positions:
                raise ExprError(f"duplicate variable name: {name!r}")
            positions[name] = i
        # not a field: equality, hashing and repr stay those of ``names``
        object.__setattr__(self, "_positions", positions)

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise ExprError(f"unknown variable: {name!r}") from None

    def without(self, name: str) -> "VariableUniverse":
        i = self.index(name)
        return VariableUniverse(self.names[:i] + self.names[i + 1:])


# --- syntax tree nodes ------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: bool


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Not:
    child: "Node"


@dataclass(frozen=True)
class And:
    children: tuple["Node", ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise ExprError("conjunction needs at least two children")


@dataclass(frozen=True)
class Or:
    children: tuple["Node", ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise ExprError("disjunction needs at least two children")


Node = Union[Const, Var, Not, And, Or]


@dataclass(frozen=True)
class Expression:
    """A Boolean expression tied to a variable universe."""

    universe: VariableUniverse
    root: Node

    def __post_init__(self):
        n = self.universe.n
        for node in walk(self.root):
            if isinstance(node, Var) and not 0 <= node.index < n:
                raise ExprError(f"variable index {node.index} outside universe")

    def support_indices(self) -> tuple[int, ...]:
        idx = {node.index for node in walk(self.root) if isinstance(node, Var)}
        return tuple(sorted(idx))

    def support(self) -> tuple[str, ...]:
        return tuple(self.universe.names[i] for i in self.support_indices())

    def __str__(self) -> str:
        return format_node(self.root, self.universe)


@dataclass(frozen=True)
class ExpressionSet:
    """A non-empty ordered set of expressions over a shared universe."""

    universe: VariableUniverse
    members: tuple[Expression, ...]

    def __post_init__(self):
        if not self.members:
            raise ExprError("expression set must have at least one member")
        for m in self.members:
            if m.universe != self.universe:
                raise ExprError("member universe differs from set universe")

    @property
    def n(self) -> int:
        return self.universe.n

    def support_indices(self) -> tuple[int, ...]:
        idx: set[int] = set()
        for m in self.members:
            idx.update(m.support_indices())
        return tuple(sorted(idx))


@dataclass(frozen=True)
class Valuation:
    """A total assignment of truth values to a universe."""

    universe: VariableUniverse
    values: tuple[bool, ...]

    def __post_init__(self):
        if len(self.values) != self.universe.n:
            raise ExprError("valuation must cover every universe variable")

    @classmethod
    def from_dict(cls, universe: VariableUniverse, assignment: dict[str, bool]) -> "Valuation":
        missing = set(universe.names) - set(assignment)
        if missing:
            raise ExprError(f"valuation missing variables: {sorted(missing)}")
        extra = set(assignment) - set(universe.names)
        if extra:
            raise ExprError(f"valuation has unknown variables: {sorted(extra)}")
        return cls(universe, tuple(bool(assignment[n]) for n in universe.names))

    def of(self, name: str) -> bool:
        return self.values[self.universe.index(name)]


@dataclass(frozen=True)
class PartialValuation:
    """A partial assignment; domain is a subset of the universe."""

    universe: VariableUniverse
    assignment: tuple[tuple[str, bool], ...] = ()

    def __post_init__(self):
        seen = set()
        for name, _ in self.assignment:
            self.universe.index(name)
            if name in seen:
                raise ExprError(f"variable assigned twice: {name!r}")
            seen.add(name)

    def as_dict(self) -> dict[str, bool]:
        return dict(self.assignment)

    def extended(self, name: str, value: bool) -> "PartialValuation":
        return PartialValuation(self.universe, self.assignment + ((name, bool(value)),))


def walk(node: Node) -> Iterator[Node]:
    stack = [node]  # preorder without recursion, for arbitrarily deep trees
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (Const, Var)):
            stack += (node.child,) if isinstance(node, Not) else node.children[::-1]


# --- parsing ----------------------------------------------------------------

@dataclass
class _Token:
    kind: str  # 'ident' | 'op' | 'newline' | 'eof'
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        if ch == "\n":
            tokens.append(_Token("newline", "\n", line, col))
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch in "&|!();:01":
            tokens.append(_Token("op", ch, line, col))
            i += 1
            col += 1
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            tokens.append(_Token("ident", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    """Recursive-descent parser for the expression file grammar."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.column)

    def skip_newlines(self):
        while self.peek().kind == "newline":
            self.next()

    def parse_file(self) -> tuple[Optional[tuple[str, ...]], list]:
        self.skip_newlines()
        header = self.parse_header()
        stmts = []
        self.skip_newlines()
        while self.peek().kind != "eof":
            stmts.append(self.parse_expr())
            tok = self.peek()
            if tok.kind in ("newline",) or tok.text == ";":
                self.next()
                self.skip_newlines()
                while self.peek().text == ";":
                    self.next()
                    self.skip_newlines()
            elif tok.kind != "eof":
                raise self.error(f"unexpected token {tok.text!r}")
        if not stmts:
            raise self.error("empty input: no expressions")
        return header, stmts

    def parse_header(self) -> Optional[tuple[str, ...]]:
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "vars" and self.tokens[self.pos + 1].text == ":":
            self.next()
            self.next()
            names: list[str] = []
            while self.peek().kind == "ident":
                name = self.next()
                if name.text in names:
                    raise ParseError(f"duplicate variable in vars header: {name.text!r}",
                                     name.line, name.column)
                names.append(name.text)
            if self.peek().kind not in ("newline", "eof"):
                raise self.error("expected variable name or end of header")
            if self.peek().kind == "newline":
                self.next()
            if not names:
                raise self.error("vars header declares no variables")
            return tuple(names)
        return None

    # expr := or ; or := and ('|' and)* ; and := not ('&' not)* ;
    # not := '!' not | atom ; atom := ident | '0' | '1' | '(' expr ')'
    def parse_expr(self):
        return self.parse_or()

    def parse_or(self):
        parts = [self.parse_and()]
        while self.peek().text == "|":
            self.next()
            parts.append(self.parse_and())
        return parts[0] if len(parts) == 1 else ("or", parts)

    def parse_and(self):
        parts = [self.parse_not()]
        while self.peek().text == "&":
            self.next()
            parts.append(self.parse_not())
        return parts[0] if len(parts) == 1 else ("and", parts)

    def parse_not(self):
        if self.peek().text == "!":
            self.next()
            return ("not", self.parse_not())

        tok = self.peek()
        if tok.text == "(":
            self.next()
            inner = self.parse_expr()
            if self.peek().text != ")":
                raise self.error("expected ')'")
            self.next()
            return inner
        if tok.text in ("0", "1"):
            self.next()
            return ("const", tok.text == "1")
        if tok.kind == "ident":
            self.next()
            return ("var", tok.text)
        raise self.error(f"expected expression, found {tok.text or 'end of input'!r}")


def _collect_names(ast, order: list[str], seen: set[str]):
    kind = ast[0] if isinstance(ast, tuple) else None
    if kind == "var":
        if ast[1] not in seen:
            seen.add(ast[1])
            order.append(ast[1])
    elif kind == "not":
        _collect_names(ast[1], order, seen)
    elif kind in ("and", "or"):
        for child in ast[1]:
            _collect_names(child, order, seen)


def _ast_to_node(ast, universe: VariableUniverse, line_hint=None) -> Node:
    kind = ast[0]
    if kind == "const":
        return Const(ast[1])
    if kind == "var":
        try:
            return Var(universe.index(ast[1]))
        except ExprError:
            raise ExprError(f"variable {ast[1]!r} not declared in vars header") from None
    if kind == "not":
        return Not(_ast_to_node(ast[1], universe))
    children = tuple(_ast_to_node(c, universe) for c in ast[1])
    return And(children) if kind == "and" else Or(children)


def parse_expressions(text: str) -> ExpressionSet:
    """Parse an expression file into an ``ExpressionSet``.

    A ``vars:`` header fixes the universe explicitly; otherwise the universe
    is the union of occurring variables in first-occurrence order.
    """
    parser = _Parser(text)
    try:
        header, asts = parser.parse_file()
        if header is not None:
            universe = VariableUniverse(header)
        else:
            order: list[str] = []
            seen: set[str] = set()
            for ast in asts:
                _collect_names(ast, order, seen)
            universe = VariableUniverse(tuple(order))
        members = tuple(Expression(universe, _ast_to_node(ast, universe)) for ast in asts)
    except RecursionError:
        raise parser.error("expression nested too deeply") from None
    return ExpressionSet(universe, members)


# --- printing ---------------------------------------------------------------

@_nesting_guard("print")
def format_node(node: Node, universe: VariableUniverse) -> str:
    """Print a node with n-ary operators flat; only nested ``&``/``|`` and
    negated compounds get parentheses."""
    return _format_node(node, universe)


def _format_node(node: Node, universe: VariableUniverse) -> str:
    if isinstance(node, Const):
        return "1" if node.value else "0"
    if isinstance(node, Var):
        return universe.names[node.index]
    if isinstance(node, Not):
        inner = _format_node(node.child, universe)
        return f"!({inner})" if isinstance(node.child, (And, Or)) else f"!{inner}"
    op = "&" if isinstance(node, And) else "|"
    return op.join(f"({_format_node(c, universe)})" if isinstance(c, (And, Or))
                   else _format_node(c, universe) for c in node.children)


def format_expression_set(s: ExpressionSet) -> str:
    lines = ["vars: " + " ".join(s.universe.names)] if s.universe.n else []
    lines.extend(str(m) for m in s.members)
    return "\n".join(lines) + "\n"


# --- semantics --------------------------------------------------------------

@_nesting_guard("evaluate")
def evaluate(e: Expression, v: Valuation) -> bool:
    """Evaluate an expression under a total valuation."""
    if v.universe != e.universe:
        raise ExprError("valuation universe differs from expression universe")

    def go(node: Node) -> bool:
        if isinstance(node, Const):
            return node.value
        if isinstance(node, Var):
            return v.values[node.index]
        if isinstance(node, Not):
            return not go(node.child)
        if isinstance(node, And):
            return all(go(c) for c in node.children)
        return any(go(c) for c in node.children)

    return go(e.root)


@_nesting_guard("simplify")
def simplify(e: Expression) -> Expression:
    """Constant propagation, double-negation elimination and flattening.

    The result is semantically equivalent and contains no constant occurrence
    unless it is itself a constant.  No distribution is performed.
    """
    return Expression(e.universe, _simplify_node(e.root))


def _simplify_node(node: Node) -> Node:
    if isinstance(node, (Const, Var)):
        return node
    if isinstance(node, Not):
        child = _simplify_node(node.child)
        if isinstance(child, Const):
            return Const(not child.value)
        if isinstance(child, Not):
            return child.child
        return Not(child)

    is_and = isinstance(node, And)
    annihilator = not is_and  # False kills And; True kills Or
    flat: list[Node] = []
    for raw in node.children:
        c = _simplify_node(raw)
        if isinstance(c, Const):
            if c.value == annihilator:
                return Const(annihilator)
            continue  # identity element
        if isinstance(c, And) == is_and and isinstance(c, (And, Or)):
            flat.extend(c.children)
        else:
            flat.append(c)
    if not flat:
        return Const(is_and)  # empty conjunction is True, empty disjunction False
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat)) if is_and else Or(tuple(flat))


def _substitute(node: Node, index: int, value: bool) -> Node:
    if isinstance(node, Const):
        return node
    if isinstance(node, Var):
        return Const(value) if node.index == index else node
    if isinstance(node, Not):
        return Not(_substitute(node.child, index, value))
    children = tuple(_substitute(c, index, value) for c in node.children)
    return And(children) if isinstance(node, And) else Or(children)


def _reindex(node: Node, mapping: dict[int, int]) -> Node:
    if isinstance(node, Const):
        return node
    if isinstance(node, Var):
        return Var(mapping[node.index])
    if isinstance(node, Not):
        return Not(_reindex(node.child, mapping))
    children = tuple(_reindex(c, mapping) for c in node.children)
    return And(children) if isinstance(node, And) else Or(children)


@_nesting_guard("restrict")
def restrict(e: Expression, name: str, value: bool) -> Expression:
    """Instantiate ``name`` to ``value``; the universe shrinks by ``name``."""
    removed = e.universe.index(name)
    node = _simplify_node(_substitute(e.root, removed, value))
    new_universe = e.universe.without(name)
    mapping = {i: (i if i < removed else i - 1) for i in range(e.universe.n) if i != removed}
    return Expression(new_universe, _reindex(node, mapping))


def restrict_set(s: ExpressionSet, name: str, value: bool) -> ExpressionSet:
    """Member-wise restriction; member order is preserved."""
    members = tuple(restrict(m, name, value) for m in s.members)
    return ExpressionSet(s.universe.without(name), members)


# --- truth tables -----------------------------------------------------------

@dataclass(frozen=True)
class TruthTable:
    """Bit i holds the value under the valuation decoded from i, little-endian
    over ``names`` (names in universe declaration order)."""

    names: tuple[str, ...]
    bits: int

    @property
    def size(self) -> int:
        return 1 << len(self.names)

    def as_bitstring(self) -> str:
        return "".join(str((self.bits >> i) & 1) for i in range(self.size))

    def count_ones(self) -> int:
        return self.bits.bit_count()


def variable_masks(m: int) -> list[int]:
    """For each position p < m, the table mask of the projection function x_p."""
    masks = []
    size = 1 << m
    for p in range(m):
        mask = ((1 << (1 << p)) - 1) << (1 << p)  # one period: upper half set
        length = 1 << (p + 1)
        while length < size:
            mask |= mask << length
            length <<= 1
        masks.append(mask)
    return masks


@_nesting_guard("tabulate")
def table_bits(node: Node, positions: dict[int, int], m: int) -> int:
    """Truth table of ``node`` over ``m`` variables placed by ``positions``
    (variable index -> bit position), as an integer of 2^m bits."""
    full = (1 << (1 << m)) - 1
    masks = variable_masks(m)

    def go(n: Node) -> int:
        if isinstance(n, Const):
            return full if n.value else 0
        if isinstance(n, Var):
            return masks[positions[n.index]]
        if isinstance(n, Not):
            return full & ~go(n.child)
        if isinstance(n, And):
            acc = full
            for c in n.children:
                acc &= go(c)
            return acc
        acc = 0
        for c in n.children:
            acc |= go(c)
        return acc

    return go(node)


def truth_table(e: Expression, cap: int = DEFAULT_TABLE_CAP) -> TruthTable:
    """Truth table over the expression's support, sorted by universe order."""
    support = e.support_indices()
    if len(support) > cap:
        raise SupportTooLarge(f"support size {len(support)} exceeds cap {cap}")
    positions = {idx: p for p, idx in enumerate(support)}
    bits = table_bits(e.root, positions, len(support))
    return TruthTable(tuple(e.universe.names[i] for i in support), bits)


def is_constant(e: Expression, cap: int = DEFAULT_TABLE_CAP) -> Optional[bool]:
    """The constant value of ``e`` if it is constant, else ``None``."""
    t = truth_table(e, cap)
    if t.bits == 0:
        return False
    if t.bits == (1 << t.size) - 1:
        return True
    return None


def equivalent(a: Expression, b: Expression, cap: int = DEFAULT_TABLE_CAP) -> bool:
    """Semantic equality, checked over the union of the two supports."""
    names = sorted(set(a.support()) | set(b.support()))
    if len(names) > cap:
        raise SupportTooLarge(f"combined support {len(names)} exceeds cap {cap}")
    at = {n: p for p, n in enumerate(names)}

    def bits(e: Expression) -> int:
        positions = {i: at[e.universe.names[i]] for i in e.support_indices()}
        return table_bits(e.root, positions, len(names))

    return bits(a) == bits(b)


# --- monotone DNF -----------------------------------------------------------

def absorb(terms: Iterable[frozenset]) -> frozenset:
    """Drop every term that is a strict superset of another term."""
    terms = set(terms)
    if len(terms) < 2:
        return frozenset(terms)
    if frozenset() in terms:
        return frozenset([frozenset()])
    # Only a term shorter than the longest can be a strict subset of another,
    # and it shares a variable with every term it is a subset of.  Indexing
    # those terms by variable keeps 2-DNFs linear: each bucket then holds at
    # most one singleton term.
    longest = max(map(len, terms))
    inside: dict[str, list[frozenset]] = {}
    for t in terms:
        if len(t) < longest:
            for v in t:
                inside.setdefault(v, []).append(t)
    if not inside:
        return frozenset(terms)
    return frozenset(t for t in terms
                     if not any(other < t for v in t for other in inside.get(v, ())))


@dataclass(frozen=True)
class MonotoneDnf:
    """An absorbed, idempotent monotone DNF.

    Constant False is the empty term set; constant True is the set holding
    the empty term.
    """

    universe: VariableUniverse
    terms: frozenset[frozenset[str]]

    def __post_init__(self):
        for term in self.terms:
            for name in term:
                self.universe.index(name)
        object.__setattr__(self, "terms", absorb(self.terms))

    @property
    def max_term_size(self) -> int:
        return max((len(t) for t in self.terms), default=0)

    def variables(self) -> tuple[str, ...]:
        used = set().union(*self.terms) if self.terms else set()
        return tuple(n for n in self.universe.names if n in used)

    def to_expression(self) -> Expression:
        if not self.terms:
            return Expression(self.universe, Const(False))
        if frozenset() in self.terms:
            return Expression(self.universe, Const(True))
        order = {n: i for i, n in enumerate(self.universe.names)}
        term_nodes = []
        for term in sorted(self.terms, key=lambda t: sorted(order[v] for v in t)):
            vs = [Var(order[v]) for v in sorted(term, key=order.get)]
            term_nodes.append(vs[0] if len(vs) == 1 else And(tuple(vs)))
        root = term_nodes[0] if len(term_nodes) == 1 else Or(tuple(term_nodes))
        return Expression(self.universe, root)


@_nesting_guard("expand")
def to_monotone_dnf(e: Expression) -> MonotoneDnf:
    """Expand a negation-free expression to absorbed monotone DNF."""
    simple = _simplify_node(e.root)
    if any(isinstance(n, Not) for n in walk(simple)):
        raise ExprError("expression contains negation; not monotone")

    def go(node: Node) -> frozenset:
        if isinstance(node, Const):
            return frozenset([frozenset()]) if node.value else frozenset()
        if isinstance(node, Var):
            return frozenset([frozenset([e.universe.names[node.index]])])
        if isinstance(node, Or):
            acc: set = set()
            for c in node.children:
                acc.update(go(c))
            return absorb(acc)
        # And: cross product of child term sets
        acc = frozenset([frozenset()])
        for c in node.children:
            child_terms = go(c)
            acc = absorb(a | b for a in acc for b in child_terms)
        return acc

    return MonotoneDnf(e.universe, go(simple))


def minimal_transversals(terms: Iterable[frozenset]) -> frozenset:
    """All minimal hitting sets of a hypergraph, by Berge multiplication."""
    transversals: frozenset = frozenset([frozenset()])
    for term in terms:
        if not term:
            return frozenset()  # the empty edge cannot be hit
        extended = set()
        for tr in transversals:
            if tr & term:
                extended.add(tr)
            else:
                for v in term:
                    extended.add(tr | {v})
        transversals = absorb(extended)
    return transversals


def monotone_depth_lower_bound(e: Expression, var_cap: int = 16) -> int:
    """max(largest prime implicant, largest prime implicate) of a monotone
    expression; a lower bound on the depth of ``{e}``."""
    dnf = to_monotone_dnf(e)
    if not dnf.terms or frozenset() in dnf.terms:
        return 0
    if len(dnf.variables()) > var_cap:
        raise SupportTooLarge(
            f"{len(dnf.variables())} variables exceed transversal cap {var_cap}")
    implicant = dnf.max_term_size
    implicate = max((len(t) for t in minimal_transversals(dnf.terms)), default=0)
    return max(implicant, implicate)
