"""Generators for named expression families and the recursive log-depth
strategy.

The ``psi`` family doubles its variable count per level while its optimal
worst-case probe count grows by two, so it is exponentially far from evasive.
``path``, ``and`` and ``or`` generate the standard path / conjunction /
disjunction shapes.  Each family is generated as text, a ``vars:`` header and
one expression line, and read by the expression parser.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expr import ExpressionSet, parse_expressions
from .strategy import DecisionDiagram, DiagramNode, Leaf, Probe

MAX_PSI_LEVEL = 6

_KINDS = ("psi", "path", "and", "or")


class FamilyError(ValueError):
    pass


@dataclass(frozen=True)
class FamilySpec:
    kind: str
    parameter: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise FamilyError(f"unknown family kind {self.kind!r}")
        if self.kind == "psi":
            if not 0 <= self.parameter <= MAX_PSI_LEVEL:
                raise FamilyError(f"psi level must be in 0..{MAX_PSI_LEVEL}")
        elif self.parameter < 1:
            raise FamilyError(f"{self.kind} parameter must be at least 1")


def _psi_text(level: int, suffix: str = "") -> tuple[list[str], str]:
    """The variable names and the text of ``psi(level)``, each name ending
    in ``suffix``.  A level joins the previous one and a primed copy of it
    through two fresh variables u and v: u & psi | u & v | v & psi'."""
    if level == 0:
        w, x, y, z = names = [n + suffix for n in "wxyz"]
        return names, f"{w} & {x} | {x} & {y} | {y} & {z}"
    u, v = f"u{level - 1}{suffix}", f"v{level - 1}{suffix}"
    names, plain = _psi_text(level - 1, suffix)
    primed_names, primed = _psi_text(level - 1, f"p{level - 1}{suffix}")
    return [u, *names, v, *primed_names], f"{u} & ({plain}) | {u} & {v} | {v} & ({primed})"


def generate(spec: FamilySpec) -> ExpressionSet:
    """Build the expression set for a family instance, written as text with
    a ``vars:`` header and parsed."""
    n = spec.parameter
    if spec.kind == "psi":
        names, line = _psi_text(n)
    elif spec.kind == "path":
        names = [f"x{i}" for i in range(n + 1)]
        line = " | ".join(f"x{i} & x{i + 1}" for i in range(n))
    else:
        names = [f"x{i}" for i in range(1, n + 1)]
        line = (" & " if spec.kind == "and" else " | ").join(names)
    return parse_expressions(f"vars: {' '.join(names)}\n{line}\n")


def psi_strategy(level: int) -> DecisionDiagram:
    """The recursive optimal strategy for ``psi(level)``: probe the two fresh
    variables of each level, then recurse into whichever copy stays live.
    Diagram depth is ``2 * (level + 2) - 1``."""
    if not 0 <= level <= MAX_PSI_LEVEL:
        raise FamilyError(f"psi level must be in 0..{MAX_PSI_LEVEL}")
    nodes: list[DiagramNode] = [Leaf((False,)), Leaf((True,))]
    false_leaf, true_leaf = 0, 1

    def add(node: DiagramNode) -> int:
        nodes.append(node)
        return len(nodes) - 1

    def base(suffix: str) -> int:
        w, x, y, z = (n + suffix for n in "wxyz")
        # x True: (w | y) -- probe w then y
        probe_y_t = add(Probe(y, true_leaf, false_leaf))
        probe_w = add(Probe(w, true_leaf, probe_y_t))
        # x False: (y & z) -- probe y then z
        probe_z = add(Probe(z, true_leaf, false_leaf))
        probe_y_f = add(Probe(y, probe_z, false_leaf))
        return add(Probe(x, probe_w, probe_y_f))

    def build(lvl: int, suffix: str) -> int:
        if lvl == 0:
            return base(suffix)
        u, v = f"u{lvl - 1}{suffix}", f"v{lvl - 1}{suffix}"
        plain = build(lvl - 1, suffix)
        primed = build(lvl - 1, f"p{lvl - 1}{suffix}")
        # u True: psi | v -- v True decides, else recurse on the plain copy
        v_when_u = add(Probe(v, true_leaf, plain))
        # u False: v & psi' -- v False decides, else recurse on the primed copy
        v_when_not_u = add(Probe(v, primed, false_leaf))
        return add(Probe(u, v_when_u, v_when_not_u))

    try:
        root = build(level, "")
    finally:
        del build  # break the closure's reference to itself, which holds the node list
    return DecisionDiagram(tuple(nodes), root)


def psi_variable_count(level: int) -> int:
    """Closed form of the doubling recurrence: 6 * 2^level - 2."""
    return 6 * (1 << level) - 2
