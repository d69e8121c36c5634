"""Shared test helpers: independent oracles and seeded random generators.

The depth oracle here deliberately avoids the library's bitmask search: it
recurses on restricted expression sets and memoizes on the member truth
tables, so agreement with the optimized search is meaningful evidence.
"""

from __future__ import annotations

import contextlib
import json
import random
import sys
from importlib import resources
from typing import Optional

import pytest

from probedepth import expr as ex
from probedepth import provenance as pv
from probedepth import strategy
from probedepth.expr import And, Const, Expression, ExpressionSet, Not, Or, Var


# --- independent depth oracle ----------------------------------------------

def naive_depth(s: ExpressionSet, _memo=None) -> int:
    """Minimax probe depth by repeated restriction.  Usable up to ~8 support
    variables."""
    if _memo is None:
        _memo = {}
    key = tuple((t.names, t.bits) for t in (ex.truth_table(m) for m in s.members))
    if key in _memo:
        return _memo[key]
    if all(ex.is_constant(m) is not None for m in s.members):
        _memo[key] = 0
        return 0
    live: list[str] = []
    for m in s.members:
        for name in m.support():
            if name not in live:
                live.append(name)
    best = None
    for name in live:
        d = 1 + max(naive_depth(ex.restrict_set(s, name, True), _memo),
                    naive_depth(ex.restrict_set(s, name, False), _memo))
        if best is None or d < best:
            best = d
    _memo[key] = best
    return best


def reference_witness(s: ExpressionSet, depth: int) -> strategy.DecisionDiagram:
    """The exact witness of ``depth`` built by restricting at every node:
    one node per state ``(budget capped at r, held, tables)``, the children
    ``_restrict``'s, probing the memo's position where r is above the budget
    and the lowest position otherwise."""
    names, members, root = strategy._root(s, ex.DEFAULT_TABLE_CAP)
    memo: dict[tuple, int] = {}
    assert strategy._decide(memo, None, *root, depth)
    slot = {t: i for i, t in enumerate(dict.fromkeys(members))}
    labels = [slot[t] for t in members]

    def choose(state: tuple):
        k, held, tables = state
        if not held:
            return strategy.Leaf(tuple(tables[i] == 1 for i in labels))
        r = held.bit_count()
        rest = held
        for _ in range(0 if r <= k else memo[k, r, tables]):
            rest &= rest - 1
        p = (rest & -rest).bit_length() - 1
        after = [strategy._restrict(held, tables, p, a) for a in (True, False)]
        return p, *((min(k - 1, h.bit_count()), h, t) for h, t in after)

    held, tables = root
    return strategy._diagram(names, choose, (min(depth, held.bit_count()), held, tables))


def _live_names(s: ExpressionSet) -> set[str]:
    """Variables some non-constant member depends on, tested semantically."""
    live = set()
    for m in s.members:
        if ex.is_constant(m) is None:
            live.update(name for name in m.support()
                        if not ex.equivalent(ex.restrict(m, name, True),
                                             ex.restrict(m, name, False)))
    return live


def naive_greedy_probe(s: ExpressionSet) -> Optional[str]:
    """The greedy strategy's probe by its definition, or ``None`` where
    nothing is live: the live variable whose worse answer leaves the fewest
    live variables, the lowest universe index winning ties."""
    live = _live_names(s)
    best, best_score = None, None
    for name in s.universe.names:
        if name in live:
            score = max(len(_live_names(ex.restrict_set(s, name, value)))
                        for value in (True, False))
            if best_score is None or score < best_score:
                best, best_score = name, score
    return best


def absorb_pairwise(terms) -> frozenset:
    """Absorption by its definition: keep each term that no other term is a
    strict subset of."""
    terms = set(terms)
    return frozenset(t for t in terms if not any(other < t for other in terms))


def _operand_value_nested(op, columns, values):
    if isinstance(op, pv.Lit):
        return op.value
    if isinstance(op, pv.ColRef):
        return values[pv._col_index(columns, op.column)]
    raw = values[pv._col_index(columns, op.column)]
    text = str(raw)
    if len(text) < 4 or not text[:4].isdigit():
        raise pv.QueryError(f"cannot extract year from {raw!r}")
    return int(text[:4])


def _atom_holds_nested(atom, columns, values) -> bool:
    if isinstance(atom, pv.ContainsCI):
        cell = values[pv._col_index(columns, atom.column)]
        return atom.literal.lower() in str(cell).lower()
    lhs = _operand_value_nested(atom.lhs, columns, values)
    rhs = _operand_value_nested(atom.rhs, columns, values)
    if type(lhs) is not type(rhs):
        raise pv.QueryError(
            f"type mismatch in predicate: {lhs!r} {atom.op} {rhs!r}")
    return {"=": lhs == rhs, "!=": lhs != rhs, "<": lhs < rhs,
            "<=": lhs <= rhs, ">": lhs > rhs, ">=": lhs >= rhs}[atom.op]


def eval_nested(db, q):
    """SPJU evaluation by its definition, as ``provenance._eval`` did it with
    a nested-loop join: every left row meets every right row, and rows that
    agree on all ``on`` pairs conjoin.  Select resolves its columns per row."""

    def merge(rows, values, terms):
        rows[values] = ex.absorb(rows.get(values, frozenset()) | terms)

    if isinstance(q, pv.Scan):
        rel = db.relation(q.relation)
        prefix = f"{q.alias}." if q.alias else ""
        rows = {}
        for t in rel.tuples:
            merge(rows, t.values, frozenset([frozenset([t.annotation])]))
        return tuple(prefix + c for c in rel.columns), rows
    if isinstance(q, pv.Select):
        columns, rows = eval_nested(db, q.input)
        return columns, {values: terms for values, terms in rows.items()
                         if all(_atom_holds_nested(a, columns, values)
                                for a in q.predicate)}
    if isinstance(q, pv.Project):
        columns, rows = eval_nested(db, q.input)
        idx = [pv._col_index(columns, c) for c in q.columns]
        out = {}
        for values, terms in rows.items():
            merge(out, tuple(values[i] for i in idx), terms)
        return tuple(q.columns), out
    if isinstance(q, pv.Join):
        lcols, lrows = eval_nested(db, q.left)
        rcols, rrows = eval_nested(db, q.right)
        overlap = set(lcols) & set(rcols)
        if overlap:
            raise pv.QueryError(f"join inputs share column names: {sorted(overlap)}")
        pairs = [(pv._col_index(lcols, a), pv._col_index(rcols, b)) for a, b in q.on]
        out = {}
        for lv, lt in lrows.items():
            for rv, rt in rrows.items():
                if all(lv[i] == rv[j] for i, j in pairs):
                    merge(out, lv + rv, ex.absorb(a | b for a in lt for b in rt))
        return lcols + rcols, out
    if isinstance(q, pv.Union_):
        if not q.inputs:
            raise pv.QueryError("union needs at least one input")
        columns, rows = eval_nested(db, q.inputs[0])
        acc = dict(rows)
        for sub in q.inputs[1:]:
            cols, more = eval_nested(db, sub)
            if cols != columns:
                raise pv.QueryError(f"union schema mismatch: {cols} vs {columns}")
            for values, terms in more.items():
                merge(acc, values, terms)
        return columns, acc
    raise pv.QueryError(f"unknown query node: {q!r}")


def load_database_tuple_by_tuple(text: str) -> pv.AnnotatedDatabase:
    """``provenance.load_database`` as it checked every tuple in turn
    before its bulk checks: the first fault in document order is raised,
    except that an arity mismatch is raised only once its whole relation is
    read (by ``Relation``)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise pv.SchemaError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("relations"), list):
        raise pv.SchemaError('database document must be {"relations": [...]}')
    relations = []
    for raw in doc["relations"]:
        try:
            name = raw["name"]
            if not isinstance(name, str):
                raise pv.SchemaError(f"relation name must be a string: {name!r}")
            columns = pv._strings(raw["columns"], "columns must be a list of strings")
            tuples = []
            for t in raw["tuples"]:
                if not isinstance(t["values"], list):
                    raise pv.SchemaError(f"tuple values must be a list: {t['values']!r}")
                values = tuple(t["values"])
                annotation = t["annotation"]
                if not isinstance(annotation, str) or not ex._IDENT_RE.fullmatch(annotation):
                    raise pv.SchemaError(f"invalid annotation variable {annotation!r}")
                for v in values:
                    if not isinstance(v, (str, int)) or isinstance(v, bool):
                        raise pv.SchemaError(f"unsupported value {v!r}")
                tuples.append(pv.AnnotatedTuple(values, annotation))
        except (KeyError, TypeError) as exc:
            raise pv.SchemaError(f"malformed relation entry: {exc}") from None
        relations.append(pv.Relation(name, columns, tuple(tuples)))
    return pv.AnnotatedDatabase(tuple(relations))


def evasive_by_read_once_reference(s: ExpressionSet) -> Optional[bool]:
    """The read-once verdict by its definition: count every variable
    occurrence of each member; a member repeating a variable or holding a
    constant below its root is replaced, when it has no ``Not``, by its
    factored form's variables, or makes the verdict ``None`` when it does
    not factor.  ``True`` when no variable occurs twice in all and every
    universe variable occurs."""
    from collections import Counter

    from probedepth import readonce

    total: Counter = Counter()
    for m in s.members:
        nodes = list(ex.walk(m.root))
        counts = Counter(n.index for n in nodes if type(n) is Var)
        simplifiable = type(m.root) is not Const and any(type(n) is Const for n in nodes)
        if simplifiable or any(c > 1 for c in counts.values()):
            if any(type(n) is Not for n in nodes):
                return None
            d = ex.to_monotone_dnf(m)
            if readonce.factor_read_once(d) is None:
                return None
            counts = Counter(map(s.universe.index, set().union(*d.terms)))
        total.update(counts)
    if any(c > 1 for c in total.values()):
        return None
    return True if len(total) == s.n else None


def naive_evasive(s: ExpressionSet) -> bool:
    return naive_depth(s) == s.n


def single(e_text: str) -> ExpressionSet:
    return ex.parse_expressions(e_text)


def all_valuations(universe: ex.VariableUniverse):
    for i in range(1 << universe.n):
        yield ex.Valuation(universe, tuple(bool((i >> p) & 1) for p in range(universe.n)))


def dnf_holds(dnf: ex.MonotoneDnf, v: ex.Valuation) -> bool:
    """Direct DNF semantics, bypassing expression conversion."""
    return any(all(v.of(name) for name in term) for term in dnf.terms)


# --- random generators ------------------------------------------------------

def random_read_once_node(rng: random.Random, indices: list[int],
                          negate_p: float = 0.2):
    if len(indices) == 1:
        node = Var(indices[0])
    else:
        cut = rng.randint(1, len(indices) - 1)
        left = random_read_once_node(rng, indices[:cut], negate_p)
        right = random_read_once_node(rng, indices[cut:], negate_p)
        node = And((left, right)) if rng.random() < 0.5 else Or((left, right))
    if rng.random() < negate_p:
        node = Not(node)
    return node


def random_read_once_set(rng: random.Random, max_vars: int = 10) -> ExpressionSet:
    """Overall read-once, non-simplifiable set whose universe is its support."""
    n = rng.randint(1, max_vars)
    universe = ex.VariableUniverse(tuple(f"x{i}" for i in range(n)))
    indices = list(range(n))
    rng.shuffle(indices)
    member_count = rng.randint(1, min(3, n))
    cuts = sorted(rng.sample(range(1, n), member_count - 1)) if member_count > 1 else []
    members = []
    start = 0
    for end in cuts + [n]:
        members.append(Expression(universe,
                                  random_read_once_node(rng, indices[start:end])))
        start = end
    return ExpressionSet(universe, tuple(members))


def nested_read_once_dnf(levels: int) -> str:
    """The flat DNF of a0 & (b0 | a1 & (b1 | ... a_levels)), one line: its
    read-once form is nested ``levels`` times."""
    terms = [[f"a{j}" for j in range(i + 1)] + [f"b{i}"] for i in range(levels)]
    terms.append([f"a{j}" for j in range(levels + 1)])
    return " | ".join("&".join(t) for t in terms) + "\n"


@contextlib.contextmanager
def recursion_limit(frames: int):
    """Lower the recursion limit to ``frames`` above the current depth."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def random_cnf_dnf(rng: random.Random, conjunctive: bool) -> Expression:
    """Random 3-CNF or 3-DNF over 3..10 variables; may contain repeats."""
    n = rng.randint(3, 10)
    universe = ex.VariableUniverse(tuple(f"x{i}" for i in range(n)))
    clauses = []
    for _ in range(rng.randint(2, 3 * n)):
        lits = []
        for idx in rng.sample(range(n), 3):
            lit = Var(idx)
            if rng.random() < 0.5:
                lit = Not(lit)
            lits.append(lit)
        clauses.append(Or(tuple(lits)) if conjunctive else And(tuple(lits)))
    root = And(tuple(clauses)) if conjunctive else Or(tuple(clauses))
    return Expression(universe, root)


def random_monotone_dnf(rng: random.Random, max_vars: int = 8,
                        max_term: int = 3) -> ex.MonotoneDnf:
    """Non-constant monotone k-DNF with no empty term."""
    n = rng.randint(1, max_vars)
    universe = ex.VariableUniverse(tuple(f"x{i}" for i in range(n)))
    terms = set()
    for _ in range(rng.randint(1, 5)):
        size = rng.randint(1, min(max_term, n))
        terms.add(frozenset(f"x{i}" for i in rng.sample(range(n), size)))
    return ex.MonotoneDnf(universe, frozenset(terms))


def random_expression(rng: random.Random, universe: ex.VariableUniverse,
                      depth: int = 3):
    """Arbitrary expression node, possibly with repeats, negation, constants."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.1:
            return Const(rng.random() < 0.5)
        return Var(rng.randrange(universe.n))
    roll = rng.random()
    if roll < 0.2:
        return Not(random_expression(rng, universe, depth - 1))
    children = tuple(random_expression(rng, universe, depth - 1)
                     for _ in range(rng.randint(2, 3)))
    return And(children) if roll < 0.6 else Or(children)


_POOL = ("p", "q", "r", "s")


def random_annotated_db(rng: random.Random, max_tuples: int = 12, pool=_POOL):
    """Small annotated database with values from ``pool`` (strings by
    default) and distinct annotations."""
    from probedepth import provenance as pv

    relations = []
    counter = 0
    rel_count = rng.randint(1, 3)
    per_relation = max(1, rng.randint(2, max_tuples) // rel_count)
    for ri in range(rel_count):
        cols = tuple(f"c{j}" for j in range(rng.randint(1, 2)))
        tuples = []
        for _ in range(rng.randint(1, per_relation)):
            values = tuple(rng.choice(pool) for _ in cols)
            tuples.append(pv.AnnotatedTuple(values, f"x{counter}"))
            counter += 1
        relations.append(pv.Relation(f"R{ri}", cols, tuple(tuples)))
    return pv.AnnotatedDatabase(tuple(relations))


def random_spju_query(rng: random.Random, db, depth: int = 4, max_on: int = 1):
    """Random select/project/join/union tree over the database's schema.

    Scans get globally unique aliases so join inputs never collide.  A join
    has one ``on`` pair, or 0 to ``max_on`` pairs when ``max_on`` is not 1.
    """
    from itertools import count

    from probedepth import provenance as pv

    counter = count()

    def atoms(columns):
        out = []
        for _ in range(rng.randint(1, 2)):
            col = rng.choice(columns)
            if rng.random() < 0.5:
                out.append(pv.ContainsCI(col, rng.choice(_POOL)))
            else:
                op = rng.choice(("=", "!=", "<", "<=", ">", ">="))
                out.append(pv.Compare(pv.ColRef(col), op, pv.Lit(rng.choice(_POOL))))
        return tuple(out)

    def gen(d):
        if d == 0 or rng.random() < 0.3:
            rel = rng.choice(db.relations)
            alias = f"t{next(counter)}"
            return pv.Scan(rel.name, alias), tuple(f"{alias}.{c}" for c in rel.columns)
        roll = rng.random()
        if roll < 0.3:
            q, cols = gen(d - 1)
            return pv.Select(atoms(cols), q), cols
        if roll < 0.55:
            q, cols = gen(d - 1)
            keep = sorted(rng.sample(range(len(cols)), rng.randint(1, len(cols))))
            kept = tuple(cols[i] for i in keep)
            return pv.Project(kept, q), kept
        if roll < 0.8:
            lq, lcols = gen(d - 1)
            rq, rcols = gen(d - 1)
            if max_on == 1:
                on = ((rng.choice(lcols), rng.choice(rcols)),)
            else:
                on = tuple((rng.choice(lcols), rng.choice(rcols))
                           for _ in range(rng.randint(0, max_on)))
            return pv.Join(on, lq, rq), lcols + rcols
        q, cols = gen(d - 1)
        return pv.Union_((pv.Select(atoms(cols), q),
                          pv.Select(atoms(cols), q))), cols

    return gen(depth)[0]


def possible_worlds_agree(db, query, v) -> bool:
    """Def-4 check: a row's annotation is True under ``v`` exactly when the
    row appears in the query result over the possible world."""
    from probedepth import provenance as pv

    full = pv.eval_query(db, query)
    world_rows = {values for values, _ in
                  pv.eval_query(pv.possible_world(db, v), query).rows}
    claimed = {values for values, dnf in full.rows if dnf_holds(dnf, v)}
    return claimed == world_rows


# --- fixtures ---------------------------------------------------------------

def fixture_text(name: str) -> str:
    return resources.files("probedepth").joinpath(f"fixtures/{name}").read_text()


def load_schema(name: str) -> dict:
    raw = resources.files("probedepth").joinpath(f"schemas/{name}").read_text()
    return json.loads(raw)


@pytest.fixture
def rng():
    return random.Random(0)
