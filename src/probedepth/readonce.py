"""Read-once structure detection and monotone read-once factorization.

Overall read-once, non-simplifiable expression sets are evasive; this module
provides the syntactic checks behind that sufficient condition and a
factorization procedure that rewrites monotone prime-implicant DNFs into
read-once form when the recursive common-factor/component split succeeds.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .expr import (
    And,
    Const,
    Expression,
    ExpressionSet,
    MonotoneDnf,
    Node,
    Not,
    Or,
    Var,
    to_monotone_dnf,
    walk,
)


@dataclass(frozen=True)
class OccurrenceIndex:
    """Literal occurrence tallies, per member and across an expression set."""

    per_member: tuple[dict[str, int], ...]
    total: dict[str, int]

    @classmethod
    def of(cls, s: ExpressionSet) -> "OccurrenceIndex":
        per_member = tuple(_occurrences(m) for m in s.members)
        total: Counter = Counter()
        for counts in per_member:
            total.update(counts)
        return cls(per_member, dict(total))


def _occurrences(e: Expression) -> dict[str, int]:
    counts: Counter = Counter()
    for node in walk(e.root):
        if isinstance(node, Var):
            counts[e.universe.names[node.index]] += 1
    return dict(counts)


def is_read_once(e: Expression) -> bool:
    """Does every variable occur at most once in the syntax tree?"""
    return all(c <= 1 for c in _occurrences(e).values())


def is_overall_read_once(s: ExpressionSet) -> bool:
    """Does every variable occur at most once across all members?"""
    return all(c <= 1 for c in OccurrenceIndex.of(s).total.values())


def is_non_simplifiable(e: Expression) -> bool:
    """A constant, or an expression containing no constant occurrence."""
    if isinstance(e.root, Const):
        return True
    return not any(isinstance(n, Const) for n in walk(e.root))


def evasive_by_read_once(s: ExpressionSet) -> Optional[bool]:
    """Sufficient evasiveness test: ``True`` when the set is overall
    read-once, every member is non-simplifiable and every universe variable
    occurs; ``None`` when inconclusive (never ``False``).

    When the direct check fails, monotone members are first rewritten via
    ``factor_read_once`` (evasiveness is preserved under equivalence).
    """
    if _read_once_evasive(s.members, s):
        return True
    factored: list[Expression] = []
    for m in s.members:
        if is_read_once(m) and is_non_simplifiable(m):
            factored.append(m)
            continue
        if any(isinstance(n, Not) for n in walk(m.root)):
            return None
        f = factor_read_once(to_monotone_dnf(m))
        if f is None:
            return None
        factored.append(f)
    if _read_once_evasive(tuple(factored), s):
        return True
    return None


def _read_once_evasive(members: tuple[Expression, ...], s: ExpressionSet) -> bool:
    total: Counter = Counter()
    for m in members:
        if not is_non_simplifiable(m):
            return False
        total.update(_occurrences(m))
    if any(c > 1 for c in total.values()):
        return False
    return set(total) == set(s.universe.names)


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
    order = {n: i for i, n in enumerate(d.universe.names)}

    def conj(parts: list[Node]) -> Node:
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def go(terms: list[frozenset[str]]) -> Optional[Node]:
        if len(terms) == 1:
            return conj([Var(order[v]) for v in sorted(terms[0], key=order.get)])
        common = frozenset.intersection(*terms)
        if common:
            rest = go([t - common for t in terms])
            if rest is None:
                return None
            head = [Var(order[v]) for v in sorted(common, key=order.get)]
            return conj(head + [rest])
        groups = _cooccurrence_groups(terms)
        if len(groups) == 1:
            return None
        parts = []
        for group in groups:
            sub = go(group)
            if sub is None:
                return None
            parts.append(sub)
        return Or(tuple(parts))

    ordered = sorted(d.terms, key=lambda t: sorted(order[v] for v in t))
    try:
        node = go(ordered)
    finally:
        del go  # break the closure's reference to itself
    return None if node is None else Expression(d.universe, node)


def _cooccurrence_groups(terms: list[frozenset[str]]) -> list[list[frozenset[str]]]:
    """Partition terms by connectivity of shared variables."""
    parent = list(range(len(terms)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    by_var: dict[str, int] = {}
    for i, t in enumerate(terms):
        for v in t:
            if v in by_var:
                parent[find(i)] = find(by_var[v])
            else:
                by_var[v] = i
    groups: dict[int, list[frozenset[str]]] = {}
    for i, t in enumerate(terms):
        groups.setdefault(find(i), []).append(t)
    return [groups[r] for r in sorted(groups)]
