"""Annotated relational databases and SPJU evaluation with Boolean provenance.

Each tuple carries an annotation variable; query evaluation propagates
monotone DNF annotations: joins conjoin term-wise, duplicate-merging
projection and union disjoin with absorption.  The reverse construction
``dnf_to_database`` packs any monotone k-DNF into a two-relation database
plus a fixed k-ary join query whose single output row reproduces the DNF.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Union

from .expr import MonotoneDnf, Valuation, VariableUniverse, _IDENT_RE, absorb

ValueType = Union[str, int]


class ProvenanceError(ValueError):
    pass


class SchemaError(ProvenanceError):
    pass


class QueryError(ProvenanceError):
    pass


@dataclass(frozen=True)
class AnnotatedTuple:
    values: tuple[ValueType, ...]
    annotation: str


@dataclass(frozen=True)
class Relation:
    name: str
    columns: tuple[str, ...]
    tuples: tuple[AnnotatedTuple, ...]

    def __post_init__(self):
        for t in self.tuples:
            if len(t.values) != len(self.columns):
                raise SchemaError(
                    f"relation {self.name!r}: tuple arity {len(t.values)} "
                    f"!= column count {len(self.columns)}")


@dataclass(frozen=True)
class AnnotatedDatabase:
    relations: tuple[Relation, ...]

    @property
    def universe(self) -> VariableUniverse:
        """Annotation variables in order of first appearance."""
        names: list[str] = []
        seen: set[str] = set()
        for rel in self.relations:
            for t in rel.tuples:
                if t.annotation not in seen:
                    seen.add(t.annotation)
                    names.append(t.annotation)
        return VariableUniverse(tuple(names))

    def relation(self, name: str) -> Relation:
        for rel in self.relations:
            if rel.name == name:
                return rel
        raise QueryError(f"unknown relation {name!r}")


# --- query algebra ----------------------------------------------------------

@dataclass(frozen=True)
class ColRef:
    column: str


@dataclass(frozen=True)
class Lit:
    value: ValueType


@dataclass(frozen=True)
class Year:
    """Leading four digits of an ISO-8601 date column, as an integer."""
    column: str


Operand = Union[ColRef, Lit, Year]

_OPS = ("=", "!=", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class Compare:
    lhs: Operand
    op: str
    rhs: Operand

    def __post_init__(self):
        if self.op not in _OPS:
            raise QueryError(f"unknown comparison operator {self.op!r}")


@dataclass(frozen=True)
class ContainsCI:
    """Case-insensitive substring match on a column."""
    column: str
    literal: str


Atom = Union[Compare, ContainsCI]


@dataclass(frozen=True)
class Scan:
    relation: str
    alias: Optional[str] = None


@dataclass(frozen=True)
class Select:
    predicate: tuple[Atom, ...]
    input: "Query"


@dataclass(frozen=True)
class Project:
    columns: tuple[str, ...]
    input: "Query"


@dataclass(frozen=True)
class Join:
    on: tuple[tuple[str, str], ...]
    left: "Query"
    right: "Query"


@dataclass(frozen=True)
class Union_:
    inputs: tuple["Query", ...]


Query = Union[Scan, Select, Project, Join, Union_]


@dataclass(frozen=True)
class ProvenancedResult:
    columns: tuple[str, ...]
    rows: tuple[tuple[tuple[ValueType, ...], MonotoneDnf], ...]


# --- evaluation -------------------------------------------------------------

def _col_index(columns: tuple[str, ...], name: str) -> int:
    if name in columns:
        return columns.index(name)
    # allow an unqualified reference when it is unambiguous
    matches = [i for i, c in enumerate(columns) if c.split(".")[-1] == name]
    if len(matches) == 1:
        return matches[0]
    if len(matches) > 1:
        raise QueryError(f"ambiguous column reference {name!r}")
    raise QueryError(f"unknown column {name!r} (have {list(columns)})")


def _operand_value(op: Operand, columns, values) -> ValueType:
    if isinstance(op, Lit):
        return op.value
    if isinstance(op, ColRef):
        return values[_col_index(columns, op.column)]
    raw = values[_col_index(columns, op.column)]
    text = str(raw)
    if len(text) < 4 or not text[:4].isdigit():
        raise QueryError(f"cannot extract year from {raw!r}")
    return int(text[:4])


def _atom_holds(atom: Atom, columns, values) -> bool:
    if isinstance(atom, ContainsCI):
        cell = values[_col_index(columns, atom.column)]
        return atom.literal.lower() in str(cell).lower()
    lhs = _operand_value(atom.lhs, columns, values)
    rhs = _operand_value(atom.rhs, columns, values)
    if type(lhs) is not type(rhs):
        raise QueryError(
            f"type mismatch in predicate: {lhs!r} {atom.op} {rhs!r}")
    if atom.op == "=":
        return lhs == rhs
    if atom.op == "!=":
        return lhs != rhs
    if atom.op == "<":
        return lhs < rhs
    if atom.op == "<=":
        return lhs <= rhs
    if atom.op == ">":
        return lhs > rhs
    return lhs >= rhs


TermSet = frozenset[frozenset[str]]
Rows = dict[tuple[ValueType, ...], TermSet]


def _merge(rows: Rows, values: tuple[ValueType, ...], terms: TermSet):
    existing = rows.get(values, frozenset())
    rows[values] = absorb(existing | terms)


def _eval(db: AnnotatedDatabase, q: Query) -> tuple[tuple[str, ...], Rows]:
    if isinstance(q, Scan):
        rel = db.relation(q.relation)
        prefix = f"{q.alias}." if q.alias else ""
        columns = tuple(prefix + c for c in rel.columns)
        rows: Rows = {}
        for t in rel.tuples:
            _merge(rows, t.values, frozenset([frozenset([t.annotation])]))
        return columns, rows
    if isinstance(q, Select):
        columns, rows = _eval(db, q.input)
        kept: Rows = {}
        for values, terms in rows.items():
            if all(_atom_holds(a, columns, values) for a in q.predicate):
                kept[values] = terms
        return columns, kept
    if isinstance(q, Project):
        columns, rows = _eval(db, q.input)
        idx = [_col_index(columns, c) for c in q.columns]
        out: Rows = {}
        for values, terms in rows.items():
            _merge(out, tuple(values[i] for i in idx), terms)
        return tuple(q.columns), out
    if isinstance(q, Join):
        lcols, lrows = _eval(db, q.left)
        rcols, rrows = _eval(db, q.right)
        overlap = set(lcols) & set(rcols)
        if overlap:
            raise QueryError(f"join inputs share column names: {sorted(overlap)}")
        pairs = [(_col_index(lcols, a), _col_index(rcols, b)) for a, b in q.on]
        out = {}
        for lv, lt in lrows.items():
            for rv, rt in rrows.items():
                if all(lv[i] == rv[j] for i, j in pairs):
                    terms = absorb(a | b for a in lt for b in rt)
                    _merge(out, lv + rv, terms)
        return lcols + rcols, out
    if isinstance(q, Union_):
        if not q.inputs:
            raise QueryError("union needs at least one input")
        columns, rows = _eval(db, q.inputs[0])
        acc = dict(rows)
        for sub in q.inputs[1:]:
            cols, more = _eval(db, sub)
            if cols != columns:
                raise QueryError(f"union schema mismatch: {cols} vs {columns}")
            for values, terms in more.items():
                _merge(acc, values, terms)
        return columns, acc
    raise QueryError(f"unknown query node: {q!r}")


def eval_query(db: AnnotatedDatabase, q: Query) -> ProvenancedResult:
    """Evaluate an SPJU query, producing absorbed monotone DNF annotations."""
    universe = db.universe
    columns, rows = _eval(db, q)
    ordered = sorted(rows.items(), key=lambda kv: tuple(map(str, kv[0])))
    out = tuple((values, MonotoneDnf(universe, terms)) for values, terms in ordered)
    return ProvenancedResult(columns, out)


def max_term_size(r: ProvenancedResult) -> int:
    """Largest term cardinality over all row annotations."""
    return max((dnf.max_term_size for _, dnf in r.rows), default=0)


def possible_world(db: AnnotatedDatabase, v: Valuation) -> AnnotatedDatabase:
    """The sub-database of tuples whose annotation is True under ``v``."""
    relations = []
    for rel in db.relations:
        kept = tuple(t for t in rel.tuples if v.of(t.annotation))
        relations.append(Relation(rel.name, rel.columns, kept))
    return AnnotatedDatabase(tuple(relations))


def dnf_to_database(d: MonotoneDnf, k: int) -> tuple[AnnotatedDatabase, Query]:
    """Pack a monotone k-DNF into (R, S) relations plus the fixed k-ary join
    query whose single output row's annotation is equivalent to ``d``."""
    if not d.terms:
        raise ProvenanceError("empty DNF has no database encoding")
    if any(len(t) > k for t in d.terms):
        raise ProvenanceError(f"some term exceeds size {k}")
    if any(not t for t in d.terms):
        raise ProvenanceError("constant-True DNF has no database encoding")
    order = {n: i for i, n in enumerate(d.universe.names)}
    variables = d.variables()
    r_tuples = tuple(AnnotatedTuple((v,), v) for v in variables)
    s_tuples = []
    for term in sorted(d.terms, key=lambda t: sorted(order[v] for v in t)):
        vs = sorted(term, key=order.get)
        padded = vs + [vs[0]] * (k - len(vs))  # repeat a variable to pad
        s_tuples.append(AnnotatedTuple(tuple(padded), vs[0]))
    db = AnnotatedDatabase((
        Relation("S", tuple(f"z{i}" for i in range(1, k + 1)), tuple(s_tuples)),
        Relation("R", ("v",), r_tuples),
    ))
    query: Query = Scan("S", "s")
    for i in range(1, k + 1):
        query = Join(on=((f"s.z{i}", f"r{i}.v"),), left=query, right=Scan("R", f"r{i}"))
    return db, Project((), query)


# --- serialization ----------------------------------------------------------

def load_database(text: str) -> AnnotatedDatabase:
    """Load the JSON database format; the universe is the set of annotation
    variables in order of first appearance."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("relations"), list):
        raise SchemaError('database document must be {"relations": [...]}')
    relations = []
    for raw in doc["relations"]:
        try:
            name = raw["name"]
            columns = tuple(raw["columns"])
            tuples = []
            for t in raw["tuples"]:
                values = tuple(t["values"])
                annotation = t["annotation"]
                if not _IDENT_RE.fullmatch(annotation):
                    raise SchemaError(f"invalid annotation variable {annotation!r}")
                for v in values:
                    if not isinstance(v, (str, int)) or isinstance(v, bool):
                        raise SchemaError(f"unsupported value {v!r}")
                tuples.append(AnnotatedTuple(values, annotation))
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"malformed relation entry: {exc}") from None
        relations.append(Relation(name, columns, tuple(tuples)))
    return AnnotatedDatabase(tuple(relations))


def dump_database(db: AnnotatedDatabase) -> str:
    return json.dumps({"relations": [
        {"name": rel.name, "columns": list(rel.columns),
         "tuples": [{"values": list(t.values), "annotation": t.annotation}
                    for t in rel.tuples]}
        for rel in db.relations
    ]}, indent=2)


def _operand_from_json(raw) -> Operand:
    if isinstance(raw, dict):
        if "col" in raw:
            return ColRef(raw["col"])
        if "lit" in raw:
            return Lit(raw["lit"])
        if "year" in raw:
            return Year(raw["year"])
    raise SchemaError(f"malformed operand: {raw!r}")


def _atom_from_json(raw) -> Atom:
    if not isinstance(raw, dict):
        raise SchemaError(f"malformed predicate atom: {raw!r}")
    if raw.get("atom") == "contains_ci":
        return ContainsCI(raw["col"], raw["value"])
    return Compare(_operand_from_json(raw["lhs"]), raw["op"],
                   _operand_from_json(raw["rhs"]))


def query_from_json(text: str) -> Query:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from None
    return _query_node(doc)


def _query_node(raw) -> Query:
    try:
        op = raw["op"]
        if op == "scan":
            return Scan(raw["relation"], raw.get("alias"))
        if op == "select":
            return Select(tuple(_atom_from_json(a) for a in raw["pred"]),
                          _query_node(raw["input"]))
        if op == "project":
            return Project(tuple(raw["columns"]), _query_node(raw["input"]))
        if op == "join":
            return Join(tuple((a, b) for a, b in raw["on"]),
                        _query_node(raw["left"]), _query_node(raw["right"]))
        if op == "union":
            return Union_(tuple(_query_node(i) for i in raw["inputs"]))
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed query node: {exc}") from None
    raise SchemaError(f"unknown query operator {raw.get('op')!r}")


def _operand_to_json(op: Operand):
    if isinstance(op, ColRef):
        return {"col": op.column}
    if isinstance(op, Lit):
        return {"lit": op.value}
    return {"year": op.column}


def query_to_json(q: Query) -> str:
    def node(q: Query):
        if isinstance(q, Scan):
            out = {"op": "scan", "relation": q.relation}
            if q.alias:
                out["alias"] = q.alias
            return out
        if isinstance(q, Select):
            pred = []
            for a in q.predicate:
                if isinstance(a, ContainsCI):
                    pred.append({"atom": "contains_ci", "col": a.column, "value": a.literal})
                else:
                    pred.append({"lhs": _operand_to_json(a.lhs), "op": a.op,
                                 "rhs": _operand_to_json(a.rhs)})
            return {"op": "select", "pred": pred, "input": node(q.input)}
        if isinstance(q, Project):
            return {"op": "project", "columns": list(q.columns), "input": node(q.input)}
        if isinstance(q, Join):
            return {"op": "join", "on": [list(p) for p in q.on],
                    "left": node(q.left), "right": node(q.right)}
        return {"op": "union", "inputs": [node(i) for i in q.inputs]}

    return json.dumps(node(q), indent=2)


def result_to_json(r: ProvenancedResult) -> str:
    from .expr import format_node

    rows = []
    for values, dnf in r.rows:
        e = dnf.to_expression()
        rows.append({"values": list(values),
                     "annotation": format_node(e.root, e.universe)})
    return json.dumps({"columns": list(r.columns), "rows": rows}, indent=2)
