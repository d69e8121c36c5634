"""Boolean expressions over a declared variable universe.

The core value types are immutable: a ``VariableUniverse`` fixing the set of
variables (and hence ``n``), expression syntax trees, total valuations, and
absorbed monotone DNFs.  Everything downstream (depth search, graph DNFs,
provenance) is built on top of these.  The module keeps what the programs
read: parsing, printing, evaluation, DNF expansion and the search's table
layout (``table_frame``, ``table_bits``, ``within_cap``).  It has no
restriction of an ``Expression`` and no truth-table type; the tests keep
those as reference definitions of their own.  ``Node`` (``Const``,
``Var``, ``Not``, ``And``, ``Or``) is the one tree format: the parser builds
it directly as it reads, and the generated families are written as text and
parsed.

Reading is near-linear in the input.  One compiled regular expression
(``_TOKEN_RE``) splits the text into token strings: each match is an
identifier, a comment or one other non-blank character, so blanks cost no
match, and comments are dropped afterwards.  A token's line and column are
computed from its offset only when a ``ParseError`` is raised.  ``Var``
nodes are shared, one per index (``var_node``), by the parser, DNF
printing and factoring.  A ``VariableUniverse`` checks all its names with
one match of the names joined by spaces (``_all_identifiers``, which the
provenance loader uses for annotations too); only when that fails does it
look at each name, to report the first bad or repeated one.
``Expression`` checks its indices in one walk that also stores the support,
the number of ``Var`` leaves, whether a ``Not`` occurs and whether a
constant occurs below the root: ``support_indices`` reads the stored
support, ``readonce.evasive_by_read_once`` the leaf count and the constant
flag, and ``to_monotone_dnf`` simplifies before expanding only when there
is a negation.  ``absorb`` indexes each term shorter than the longest under one
variable, the one in the fewest terms.
"""

from __future__ import annotations

import functools
import itertools
import re
import string
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Union

DEFAULT_TABLE_CAP = 20
# The widest table the search builds, whatever cap a caller asks for: a
# table over m variables is an integer of 2^m bits, so the width must stay
# bounded for memory.  psi(2), 22 variables, peaks at about 100 MB.
MAX_TABLE_CAP = 22

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NAMES_RE = re.compile(rf"{_IDENT_RE.pattern}(?: {_IDENT_RE.pattern})*")


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


def _all_identifiers(names: Sequence) -> bool:
    """Is every one of ``names`` an identifier?  One match over the names
    joined by spaces; a name holding a space adds a separator, and one that
    is not a string fails the join."""
    try:
        joined = " ".join(names)
    except TypeError:
        return False
    return bool(_NAMES_RE.fullmatch(joined)) and joined.count(" ") == len(names) - 1


@dataclass(frozen=True)
class VariableUniverse:
    """An ordered set of distinct variable identifiers."""

    names: tuple[str, ...]

    def __post_init__(self):
        valid = _all_identifiers(self.names)
        positions = dict(zip(self.names, range(len(self.names)))) if valid else {}
        if len(positions) < len(self.names):  # report the first bad or repeated name
            seen: dict[str, int] = {}
            for i, name in enumerate(self.names):
                if not isinstance(name, str) or not _IDENT_RE.fullmatch(name):
                    raise ExprError(f"invalid variable name: {name!r}")
                if seen.setdefault(name, i) != i:
                    raise ExprError(f"duplicate variable name: {name!r}")
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


# --- syntax tree nodes ------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: bool


@dataclass(frozen=True)
class Var:
    index: int


# One shared ``Var`` node per index.  ``Var`` is immutable, so sharing
# changes no tree, comparison or hash; callers pass ints only, since
# ``True == 1`` as a key.
var_node = functools.cache(Var)


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
        # One walk checks the indices and keeps the support, the number of
        # ``Var`` leaves, whether a ``Not`` occurs and whether a constant
        # occurs below the root.  Not fields: equality, hashing and repr
        # stay those of the universe and the tree.
        support: set[int] = set()
        leaves = 0
        negated = constant = False
        stack = [self.root]
        while stack:
            node = stack.pop()
            kind = type(node)
            if kind is And or kind is Or:
                for c in node.children:  # a Var child is read in place
                    if type(c) is Var:
                        support.add(c.index)
                        leaves += 1
                    else:
                        stack.append(c)
            elif kind is Var:
                support.add(node.index)
                leaves += 1
            elif kind is Not:
                negated = True
                stack.append(node.child)
            else:
                constant = True
        if support and not 0 <= min(support) <= max(support) < self.universe.n:
            first = next(node.index for node in walk(self.root) if isinstance(node, Var)
                         and not 0 <= node.index < self.universe.n)
            raise ExprError(f"variable index {first} outside universe")
        object.__setattr__(self, "_support", tuple(sorted(support)))
        object.__setattr__(self, "_negated", negated)
        object.__setattr__(self, "_leaves", leaves)
        object.__setattr__(self, "_simplifiable", constant and type(self.root) is not Const)

    def support_indices(self) -> tuple[int, ...]:
        return self._support

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


def walk(node: Node) -> Iterator[Node]:
    stack = [node]  # preorder without recursion, for arbitrarily deep trees
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (Const, Var)):
            stack += (node.child,) if isinstance(node, Not) else node.children[::-1]


# --- parsing ----------------------------------------------------------------

# One match per token: an identifier, a comment or any other non-blank
# character.  Blanks (space, tab, carriage return) match nothing, so
# ``findall`` skips them.
_TOKEN_RE = re.compile(rf"{_IDENT_RE.pattern}|#[^\n]*|[^ \t\r]")
_PUNCT = frozenset("&|!();:01\n")
_NOT_NAME = _PUNCT | {""}  # every other token is an identifier
_TOKEN_START = _PUNCT | frozenset(string.ascii_letters + "_")
_FALSE, _TRUE = Const(False), Const(True)


def _tokenize(text: str) -> list[str]:
    """The token strings of ``text`` without its comments, ending in ``""``;
    a character that starts no token is an error, wherever it is."""
    tokens = _TOKEN_RE.findall(text)
    if "#" in text:
        tokens = [t for t in tokens if t[0] != "#"]
    tokens.append("")
    bad = [t for t in set(tokens) if t and t[0] not in _TOKEN_START]
    if bad:
        k = min(map(tokens.index, bad))
        raise ParseError(f"unexpected character {tokens[k]!r}", *_position(text, k))
    return tokens


def _position(text: str, k: int) -> tuple[int, int]:
    """Line and column of token ``k`` of ``text``.  The comments are cut out
    first: each runs to the end of its line, so that moves only the token
    after it, a newline or the end, and that token takes its column."""
    text = re.sub("#[^\n]*", "", text)
    m = next(itertools.islice(_TOKEN_RE.finditer(text), k, None), None)
    at = len(text) if m is None else m.start()
    return text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)


class _Parser:
    """Recursive-descent parser for the expression file grammar.  It builds
    ``Node`` trees as it reads, numbering variables by the ``vars:`` header,
    or else in order of first occurrence; each name has its index's shared
    ``Var`` node.
    An undeclared name is reported only once the whole file has parsed, so
    that a syntax error anywhere wins."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.vars: dict[str, Var] = {}  # variable name -> its node, in universe order
        self.declared = False
        self.undeclared: Optional[str] = None  # the first name missing from the header

    def error(self, message: str) -> ParseError:
        return ParseError(message, *_position(self.text, self.pos))

    def skip_newlines(self):
        while self.tokens[self.pos] == "\n":
            self.pos += 1

    def parse_file(self) -> list[Node]:
        tokens = self.tokens
        self.skip_newlines()
        self.parse_header()
        roots = []
        self.skip_newlines()
        while tokens[self.pos]:
            roots.append(self.parse_or())
            tok = tokens[self.pos]
            if tok == "\n" or tok == ";":
                self.pos += 1
                self.skip_newlines()
                while tokens[self.pos] == ";":
                    self.pos += 1
                    self.skip_newlines()
            elif tok:
                raise self.error(f"unexpected token {tok!r}")
        if not roots:
            raise self.error("empty input: no expressions")
        return roots

    def parse_header(self):
        tokens = self.tokens
        if tokens[self.pos] == "vars" and tokens[self.pos + 1] == ":":
            self.pos += 2
            while tokens[self.pos] not in _NOT_NAME:
                name = tokens[self.pos]
                if name in self.vars:
                    raise self.error(f"duplicate variable in vars header: {name!r}")
                self.vars[name] = var_node(len(self.vars))
                self.pos += 1
            if tokens[self.pos] not in ("\n", ""):
                raise self.error("expected variable name or end of header")
            if tokens[self.pos] == "\n":
                self.pos += 1
            if not self.vars:
                raise self.error("vars header declares no variables")
            self.declared = True

    # or := and ('|' and)* ; and := not ('&' not)* ;
    # not := '!' not | atom ; atom := ident | '0' | '1' | '(' or ')'
    def parse_or(self) -> Node:
        tokens = self.tokens
        parts = [self.parse_and()]
        while tokens[self.pos] == "|":
            self.pos += 1
            parts.append(self.parse_and())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def parse_and(self) -> Node:
        tokens = self.tokens
        parts = [self.parse_not()]
        while tokens[self.pos] == "&":
            self.pos += 1
            parts.append(self.parse_not())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def parse_not(self) -> Node:
        tok = self.tokens[self.pos]
        node = self.vars.get(tok)
        if node is not None:
            self.pos += 1
            return node
        if tok == "!":
            self.pos += 1
            return Not(self.parse_not())
        if tok == "(":
            self.pos += 1
            inner = self.parse_or()
            if self.tokens[self.pos] != ")":
                raise self.error("expected ')'")
            self.pos += 1
            return inner
        if tok == "0" or tok == "1":
            self.pos += 1
            return _TRUE if tok == "1" else _FALSE
        if tok in _NOT_NAME:
            raise self.error(f"expected expression, found {tok or 'end of input'!r}")
        self.pos += 1
        if self.declared:
            self.undeclared = self.undeclared or tok
            return _FALSE  # a stand-in: the file is rejected once it parses
        return self.vars.setdefault(tok, var_node(len(self.vars)))  # a new name


def parse_expressions(text: str) -> ExpressionSet:
    """Parse an expression file into an ``ExpressionSet``.

    A ``vars:`` header fixes the universe explicitly; otherwise the universe
    is the union of occurring variables in first-occurrence order.
    """
    parser = _Parser(text)
    try:
        roots = parser.parse_file()
    except RecursionError:
        raise parser.error("expression nested too deeply") from None
    if parser.undeclared is not None:
        raise ExprError(f"variable {parser.undeclared!r} not declared in vars header")
    universe = VariableUniverse(tuple(parser.vars))
    return ExpressionSet(universe, tuple(Expression(universe, root) for root in roots))


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
    return _value(e.root, v.values)


def _value(node: Node, values: tuple[bool, ...]) -> bool:
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return values[node.index]
    if isinstance(node, Not):
        return not _value(node.child, values)
    if isinstance(node, And):
        return all(_value(c, values) for c in node.children)
    return any(_value(c, values) for c in node.children)


def _simplify_node(node: Node) -> Node:
    """Constant propagation, double-negation elimination and flattening,
    without distribution: ``to_monotone_dnf``'s negation pre-pass."""
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


# --- truth tables -----------------------------------------------------------

@functools.cache
def table_frame(m: int) -> tuple[int, tuple[int, ...], int, tuple[int, ...]]:
    """The masks of tables over m variables: the full row set, the rows where
    each variable is set, the rows of even weight, and for each variable j
    below the top the rows with x_j = 1 and x_(j+1) = 0, which a δ-swap of
    the two exchanges with their partners (Knuth, TAOCP 4A §7.1.3).  The
    rows over m variables are the rows over m - 1 twice, the top variable
    clear and then set, so each width is built from the one below.  Cached
    per width; callers keep m within a table cap, so the cache stays small."""
    if m == 0:
        return 1, (), 1, ()
    full, masks, even, swaps = table_frame(m - 1)
    d = 1 << (m - 1)
    return (full | full << d, tuple([x | x << d for x in masks]) + (full << d,),
            even | (full ^ even) << d, tuple([x | x << d for x in swaps]) + masks[-1:])


def within_cap(support: Sequence, cap: int) -> Sequence:
    """``support``, the variables a table is built over; raises
    ``SupportTooLarge`` when there are more than ``cap`` of them, or more
    than ``MAX_TABLE_CAP`` whatever the cap."""
    # cli._cap already rejects PROBEDEPTH_CAP above the bound; this line
    # holds it for library callers, so neither check is dead code
    cap = min(cap, MAX_TABLE_CAP)
    if len(support) > cap:
        raise SupportTooLarge(f"support size {len(support)} exceeds cap {cap}")
    return support


@_nesting_guard("tabulate")
def table_bits(node: Node, positions: dict[int, int], m: int) -> int:
    """Truth table of ``node`` over ``m`` variables placed by ``positions``
    (variable index -> bit position), as an integer of 2^m bits."""
    full, masks = table_frame(m)[:2]
    return _bits(node, positions, masks, full)


def _bits(node: Node, positions: dict[int, int], masks: tuple[int, ...], full: int) -> int:
    # a Var child's mask is read in place, so a DNF costs one call per term
    if type(node) is Or:
        acc = 0
        for c in node.children:
            acc |= masks[positions[c.index]] if type(c) is Var else _bits(c, positions, masks, full)
        return acc
    if type(node) is And:
        acc = full
        for c in node.children:
            acc &= masks[positions[c.index]] if type(c) is Var else _bits(c, positions, masks, full)
        return acc
    if type(node) is Var:
        return masks[positions[node.index]]
    if type(node) is Not:
        return full & ~_bits(node.child, positions, masks, full)
    return full if node.value else 0


# --- monotone DNF -----------------------------------------------------------

def absorb(terms: Iterable[frozenset]) -> frozenset:
    """Drop every term that is a strict superset of another term."""
    terms = set(terms)
    if len(terms) < 2:
        return frozenset(terms)
    if frozenset() in terms:
        return frozenset([frozenset()])
    # Only a term shorter than the longest can be a strict subset of another.
    longest = max(map(len, terms))
    if min(map(len, terms)) == longest:
        return frozenset(terms)
    # A subset shares each of its variables with its supersets, so each
    # shorter term is indexed under one of them, the one in the fewest
    # terms, and a term looks for its subsets under each of its own.
    count = Counter(itertools.chain.from_iterable(terms))
    inside: dict[str, list[frozenset]] = {}
    for t in terms:
        if len(t) < longest:
            inside.setdefault(min(t, key=count.__getitem__), []).append(t)
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
        if not self.universe._positions.keys() >= frozenset().union(*self.terms):
            for term in self.terms:
                for name in term:
                    self.universe.index(name)  # raises for the first unknown name
        object.__setattr__(self, "terms", absorb(self.terms))

    @classmethod
    def _of_absorbed(cls, universe: VariableUniverse, terms: Iterable[frozenset]) -> MonotoneDnf:
        """A DNF of terms already absorbed and over ``universe``'s names,
        built without checking or absorbing them again."""
        dnf = object.__new__(cls)
        object.__setattr__(dnf, "universe", universe)
        object.__setattr__(dnf, "terms", frozenset(terms))
        return dnf

    @property
    def max_term_size(self) -> int:
        return max((len(t) for t in self.terms), default=0)

    def variables(self) -> tuple[str, ...]:
        """The names that occur in a term, in universe order."""
        return tuple(sorted(set().union(*self.terms), key=self.universe._positions.__getitem__))

    def ordered_terms(self) -> list[tuple[int, ...]]:
        """Each term as its variables' universe positions, ascending, and
        the terms in lexicographic order: the one order every printed or
        encoded form of the DNF follows."""
        at = self.universe._positions
        return sorted(tuple(sorted(map(at.__getitem__, t))) for t in self.terms)

    def to_expression(self) -> Expression:
        if not self.terms:
            return Expression(self.universe, Const(False))
        if frozenset() in self.terms:
            return Expression(self.universe, Const(True))
        term_nodes = []
        for term in self.ordered_terms():
            vs = [var_node(i) for i in term]
            term_nodes.append(vs[0] if len(vs) == 1 else And(tuple(vs)))
        root = term_nodes[0] if len(term_nodes) == 1 else Or(tuple(term_nodes))
        return Expression(self.universe, root)


@_nesting_guard("expand")
def to_monotone_dnf(e: Expression) -> MonotoneDnf:
    """Expand a negation-free expression to absorbed monotone DNF.

    Negations are first simplified away where they can be (``!!a``,
    ``!(1 & !a)``); any left make the expression not monotone.  Without
    negation the tree expands as it is: constants fold in the expansion, and
    flattening leaves the absorbed term set as it is."""
    root = e.root
    if e._negated:
        root = _simplify_node(root)
        if any(isinstance(n, Not) for n in walk(root)):
            raise ExprError("expression contains negation; not monotone")
    return MonotoneDnf._of_absorbed(e.universe, _terms(root, e.universe.names))


def _terms(node: Node, names: tuple[str, ...]) -> Iterable[frozenset]:
    """The absorbed terms of ``node``, without repeats."""
    kind = type(node)
    if kind is Var:
        return frozenset([frozenset([names[node.index]])])
    if kind is Const:
        return frozenset([frozenset()]) if node.value else frozenset()
    if kind is Or:
        acc: set = set()
        for c in node.children:
            if type(c) is Var:
                acc.add(frozenset([names[c.index]]))
                continue
            if type(c) is And:  # an And of variables is one term
                term = [names[v.index] for v in c.children if type(v) is Var]
                if len(term) == len(c.children):
                    acc.add(frozenset(term))
                    continue
            acc.update(_terms(c, names))
        return absorb(acc)
    # And: the term of its variables, times each other child's term set
    acc = [frozenset([names[c.index] for c in node.children if type(c) is Var])]
    for c in node.children:
        if type(c) is not Var:
            child_terms = _terms(c, names)
            acc = absorb(a | b for a in acc for b in child_terms)
    return acc
