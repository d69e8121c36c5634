"""Read-once structure detection and monotone read-once factorization.

Overall read-once, non-simplifiable expression sets are evasive; this module
provides the syntactic checks behind that sufficient condition and a
factorization procedure that rewrites monotone prime-implicant DNFs into
read-once form when the recursive common-factor/component split succeeds.
``evasive_by_read_once`` is one pass over the members: one walk of each
member's tree counts its variable occurrences and finds its constants, and a
member that fails the check as written is factored, when it has no ``Not``.
A factored form holds each of its DNF's variables once and no constant below
its root, so it is never walked.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from .expr import (
    And,
    Const,
    Expression,
    ExpressionSet,
    MonotoneDnf,
    Node,
    Or,
    Var,
    _nesting_guard,
    var_node,
    to_monotone_dnf,
    walk,
)


def _scan(e: Expression) -> tuple[Counter, bool]:
    """One walk of ``e``'s tree: the occurrences of each variable index, and
    whether a constant occurs below the root (``e`` is simplifiable)."""
    counts: Counter = Counter()
    constant = False
    for node in walk(e.root):
        kind = type(node)
        if kind is Var:
            counts[node.index] += 1
        elif kind is Const:
            constant = True
    return counts, constant and type(e.root) is not Const


def is_read_once(e: Expression) -> bool:
    """Does every variable occur at most once in the syntax tree?"""
    return all(c <= 1 for c in _scan(e)[0].values())


def is_overall_read_once(s: ExpressionSet) -> bool:
    """Does every variable occur at most once across all members?"""
    total: Counter = Counter()
    for m in s.members:
        total.update(_scan(m)[0])
    return all(c <= 1 for c in total.values())


def is_non_simplifiable(e: Expression) -> bool:
    """A constant, or an expression containing no constant occurrence."""
    return not _scan(e)[1]


def evasive_by_read_once(s: ExpressionSet) -> Optional[bool]:
    """Sufficient evasiveness test: ``True`` when the set is overall
    read-once, every member is non-simplifiable and every universe variable
    occurs; ``None`` when inconclusive (never ``False``).

    A member that is not read-once and non-simplifiable as written is
    rewritten via ``factor_read_once`` when it has no ``Not`` (evasiveness is
    preserved under equivalence), else the test is inconclusive.
    """
    total: Counter = Counter()
    for m in s.members:
        counts, simplifiable = _scan(m)
        if simplifiable or any(c > 1 for c in counts.values()):
            if m._negated:
                return None
            d = to_monotone_dnf(m)
            if factor_read_once(d) is None:
                return None
            counts = Counter(map(s.universe.index, set().union(*d.terms)))
        total.update(counts)
    if any(c > 1 for c in total.values()):
        return None
    return True if len(total) == s.n else None


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
