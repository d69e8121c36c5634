"""Definitions the tests check the library against, independent of its code.

Restriction rewrites the syntax tree; constancy, equivalence and truth
tables come from ``expr.evaluate`` over every valuation of the support, not
from the search's bitset tables; the read-once predicates count occurrences
over ``expr.walk``; and the monotone lower bound enumerates minimal
transversals by Berge multiplication.  Each is meant for expressions of a
handful of variables.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from typing import Iterable, Optional

from probedepth import expr as ex
from probedepth.expr import And, Const, Expression, ExpressionSet, Node, Not, Var


# --- restriction ------------------------------------------------------------

def simplify_node(node: Node) -> Node:
    """Constant propagation, double-negation elimination and flattening:
    no constant is left below the root, and no distribution is done."""
    if isinstance(node, (Const, Var)):
        return node
    if isinstance(node, Not):
        child = simplify_node(node.child)
        if isinstance(child, Const):
            return Const(not child.value)
        return child.child if isinstance(child, Not) else Not(child)
    kind = type(node)
    flat: list[Node] = []
    for c in map(simplify_node, node.children):
        if isinstance(c, Const):
            if c.value != (kind is And):  # False in a conjunction, True in a disjunction
                return c
        elif type(c) is kind:
            flat.extend(c.children)
        else:
            flat.append(c)
    if len(flat) < 2:
        return flat[0] if flat else Const(kind is And)
    return kind(tuple(flat))


def simplify(e: Expression) -> Expression:
    return Expression(e.universe, simplify_node(e.root))


def _restrict_node(node: Node, removed: int, value: bool) -> Node:
    """``node`` with variable ``removed`` set to ``value`` and every later
    variable renumbered one lower."""
    if isinstance(node, Const):
        return node
    if isinstance(node, Var):
        if node.index < removed:
            return node
        return Const(value) if node.index == removed else Var(node.index - 1)
    if isinstance(node, Not):
        return Not(_restrict_node(node.child, removed, value))
    return type(node)(tuple(_restrict_node(c, removed, value) for c in node.children))


def restrict(e: Expression, name: str, value: bool) -> Expression:
    """``e`` with ``name`` set to ``value``, simplified; the universe
    loses ``name``."""
    i = e.universe.index(name)
    universe = ex.VariableUniverse(e.universe.names[:i] + e.universe.names[i + 1:])
    return Expression(universe, simplify_node(_restrict_node(e.root, i, value)))


def restrict_set(s: ExpressionSet, name: str, value: bool) -> ExpressionSet:
    """Member-wise restriction; member order is preserved."""
    members = tuple(restrict(m, name, value) for m in s.members)
    return ExpressionSet(members[0].universe, members)


# --- tables by evaluation ---------------------------------------------------

def truth_table(e: Expression) -> tuple[tuple[str, ...], int]:
    """The names of ``e``'s support, in universe order, and its table over
    them: bit i holds the value under the valuation whose j-th support
    variable is bit j of i.  Variables outside the support are false."""
    support = e.support_indices()
    bits = 0
    for row, point in enumerate(product((False, True), repeat=len(support))):
        values = [False] * e.universe.n
        for i, value in zip(support, reversed(point)):
            values[i] = value
        bits |= ex.evaluate(e, ex.Valuation(e.universe, tuple(values))) << row
    return e.support(), bits


def is_constant(e: Expression) -> Optional[bool]:
    """The constant value of ``e`` if it is constant, else ``None``."""
    names, bits = truth_table(e)
    full = (1 << (1 << len(names))) - 1
    return {0: False, full: True}.get(bits)


def _value_by_name(e: Expression, at: dict[str, bool]) -> bool:
    """``e``'s value where each name takes ``at``'s value, else false."""
    values = tuple(at.get(name, False) for name in e.universe.names)
    return ex.evaluate(e, ex.Valuation(e.universe, values))


def equivalent(a: Expression, b: Expression) -> bool:
    """Semantic equality over the union of the two supports, read by name."""
    names = sorted(set(a.support()) | set(b.support()))
    points = (dict(zip(names, p)) for p in product((False, True), repeat=len(names)))
    return all(_value_by_name(a, at) == _value_by_name(b, at) for at in points)


# --- read-once predicates ---------------------------------------------------

def _occurrences(e: Expression) -> Counter:
    return Counter(n.index for n in ex.walk(e.root) if type(n) is Var)


def is_read_once(e: Expression) -> bool:
    """Does every variable occur at most once in the syntax tree?"""
    return all(c == 1 for c in _occurrences(e).values())


def is_overall_read_once(s: ExpressionSet) -> bool:
    """Does every variable occur at most once across all members?"""
    return all(c == 1 for c in sum(map(_occurrences, s.members), Counter()).values())


def is_non_simplifiable(e: Expression) -> bool:
    """A constant, or an expression containing no constant occurrence."""
    return type(e.root) is Const or not any(type(n) is Const for n in ex.walk(e.root))


# --- monotone lower bound ---------------------------------------------------

def minimal_transversals(terms: Iterable[frozenset]) -> frozenset:
    """All minimal hitting sets of a hypergraph, by Berge multiplication."""
    transversals: frozenset = frozenset([frozenset()])
    for term in terms:
        if not term:
            return frozenset()  # the empty edge cannot be hit
        transversals = ex.absorb(tr if tr & term else tr | {v}
                                 for tr in transversals for v in term)
    return transversals


def monotone_depth_lower_bound(e: Expression) -> int:
    """max(largest prime implicant, largest prime implicate) of a monotone
    expression; a lower bound on the depth of ``{e}``."""
    dnf = ex.to_monotone_dnf(e)
    if not dnf.terms or frozenset() in dnf.terms:
        return 0
    implicate = max(map(len, minimal_transversals(dnf.terms)), default=0)
    return max(dnf.max_term_size, implicate)
