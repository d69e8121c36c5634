"""Generators for named expression families and the recursive log-depth
strategy.

The ``psi`` family doubles its variable count per level while its optimal
worst-case probe count grows by two, so it is exponentially far from evasive.
``path``, ``and`` and ``or`` generate the standard path / conjunction /
disjunction shapes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expr import (And, Expression, ExpressionSet, Node, Or, Var, VariableUniverse,
                   _ast_to_node)
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


# name-level AST: ('var', name) | ('and', [..]) | ('or', [..])

def _psi_ast(level: int) -> tuple[list[str], tuple]:
    names = ["w", "x", "y", "z"]
    ast = ("or", [("and", [("var", "w"), ("var", "x")]),
                  ("and", [("var", "x"), ("var", "y")]),
                  ("and", [("var", "y"), ("var", "z")])])
    for i in range(level):
        u, v = f"u{i}", f"v{i}"
        primed_names = [n + f"p{i}" for n in names]
        primed = _rename_ast(ast, f"p{i}")
        ast = ("or", [("and", [("var", u), ast]),
                      ("and", [("var", u), ("var", v)]),
                      ("and", [("var", v), primed])])
        names = [u] + names + [v] + primed_names
    return names, ast


def _rename_ast(ast: tuple, suffix: str) -> tuple:
    kind = ast[0]
    if kind == "var":
        return ("var", ast[1] + suffix)
    return (kind, [_rename_ast(c, suffix) for c in ast[1]])


def generate(spec: FamilySpec) -> ExpressionSet:
    """Build the expression set for a family instance."""
    if spec.kind == "psi":
        names, ast = _psi_ast(spec.parameter)
        universe = VariableUniverse(tuple(names))
        member = Expression(universe, _ast_to_node(ast, universe))
        return ExpressionSet(universe, (member,))
    n = spec.parameter
    if spec.kind == "path":
        universe = VariableUniverse(tuple(f"x{i}" for i in range(n + 1)))
        terms = tuple(And((Var(i), Var(i + 1))) for i in range(n))
        root: Node = terms[0] if n == 1 else Or(terms)
        return ExpressionSet(universe, (Expression(universe, root),))
    universe = VariableUniverse(tuple(f"x{i}" for i in range(1, n + 1)))
    variables = tuple(Var(i) for i in range(n))
    if n == 1:
        root = variables[0]
    elif spec.kind == "and":
        root = And(variables)
    else:
        root = Or(variables)
    return ExpressionSet(universe, (Expression(universe, root),))


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

    root = build(level, "")
    return DecisionDiagram(tuple(nodes), root)


def psi_variable_count(level: int) -> int:
    """Closed form of the doubling recurrence: 6 * 2^level - 2."""
    return 6 * (1 << level) - 2
