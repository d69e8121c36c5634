"""The read-once evasiveness test and monotone read-once factorization.

Overall read-once, non-simplifiable expression sets are evasive; this module
provides that sufficient test, ``evasive_by_read_once``, and a
factorization procedure that rewrites monotone prime-implicant DNFs into
read-once form when the recursive common-factor/component split succeeds.
``evasive_by_read_once`` is one pass over the members, decided over
universe positions: each member's ``Expression`` stores, from the one walk
that finds its support, its number of ``Var`` leaves and whether a
constant occurs below its root, and a member is read-once as written when
its leaves are as many as its support.  A member that fails the check is
factored, when it has no ``Not``, straight from its DNF terms as sets of
positions; a factored form holds each of its DNF's variables once and no
constant below its root, so only whether the terms factor is asked, and no
factored ``Expression`` is built.  The set is overall read-once when the
members' leaves sum to the size of the union of their variables.
"""

from __future__ import annotations

from typing import Optional

from .expr import (
    And,
    Const,
    Expression,
    ExpressionSet,
    MonotoneDnf,
    Node,
    Or,
    _nesting_guard,
    _terms,
    var_node,
)


def evasive_by_read_once(s: ExpressionSet) -> Optional[bool]:
    """Sufficient evasiveness test: ``True`` when the set is overall
    read-once, every member is non-simplifiable and every universe variable
    occurs; ``None`` when inconclusive (never ``False``).

    A member that is not read-once and non-simplifiable as written is
    rewritten into its factored form when it has no ``Not`` (evasiveness is
    preserved under equivalence), else the test is inconclusive.  The
    factored form holds each variable of the member's DNF once, so only
    whether the DNF factors is decided; the form itself is not built.
    """
    seen: set[int] = set()
    occurrences = 0
    for m in s.members:
        leaves, support = m._leaves, m.support_indices()
        if m._simplifiable or leaves > len(support):
            if m._negated:
                return None
            terms = _position_terms(m.root, s.n)
            if not _factors(terms):
                return None
            support = frozenset().union(*terms)
            leaves = len(support)
        seen.update(support)
        occurrences += leaves
    return True if occurrences == len(seen) == s.n else None


@_nesting_guard("expand")
def _position_terms(root: Node, n: int) -> list[frozenset[int]]:
    """The absorbed monotone DNF of a negation-free ``root`` over a universe
    of ``n`` variables, its terms as sets of universe positions."""
    return list(_terms(root, range(n)))


@_nesting_guard("factor")
def _factors(terms: list[frozenset[int]]) -> bool:
    """Does the absorbed DNF ``terms`` have a read-once form?  Constants
    have one."""
    return not terms or frozenset() in terms or _factor(terms) is not None


@_nesting_guard("factor")
def factor_read_once(d: MonotoneDnf) -> Optional[Expression]:
    """Recursively factor an absorbed monotone DNF into a read-once form.

    Common variables are factored out of all terms; otherwise terms are split
    along connected components of variable co-occurrence.  A connected
    multi-term residue with no common variable fails (``None``): the
    procedure is sound but not known to be complete.
    """
    if not d.terms:
        return Expression(d.universe, Const(False))
    if frozenset() in d.terms:
        return Expression(d.universe, Const(True))
    node = _factor(list(map(frozenset, d.ordered_terms())))
    return None if node is None else Expression(d.universe, node)


def _conj(parts: list[Node]) -> Node:
    return parts[0] if len(parts) == 1 else And(tuple(parts))


def _factor(terms: list[frozenset[int]]) -> Optional[Node]:
    """The read-once form of ``terms``, sets of universe positions."""
    if len(terms) == 1:
        return _conj([var_node(i) for i in sorted(terms[0])])
    common = frozenset.intersection(*terms)
    if common:
        rest = _factor([t - common for t in terms])
        if rest is None:
            return None
        return _conj([var_node(i) for i in sorted(common)] + [rest])
    groups = _cooccurrence_groups(terms)
    if len(groups) == 1:
        return None
    parts = []
    for group in groups:
        sub = _factor(group)
        if sub is None:
            return None
        parts.append(sub)
    return Or(tuple(parts))


def _cooccurrence_groups(terms: list[frozenset[int]]) -> list[list[frozenset[int]]]:
    """Partition terms by connectivity of shared variables."""
    parent = list(range(len(terms)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    by_var: dict[int, int] = {}
    for i, t in enumerate(terms):
        for v in t:
            if v in by_var:
                parent[find(i)] = find(by_var[v])
            else:
                by_var[v] = i
    groups: dict[int, list[frozenset[int]]] = {}
    for i, t in enumerate(terms):
        groups.setdefault(find(i), []).append(t)
    return [groups[r] for r in sorted(groups)]
