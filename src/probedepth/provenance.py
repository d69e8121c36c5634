"""Annotated relational databases and SPJU evaluation with Boolean provenance.

Each tuple carries an annotation variable; query evaluation propagates
monotone DNF annotations: joins conjoin term-wise, duplicate-merging
projection and union disjoin with absorption.  A join hashes its right input
on the ``on`` columns and visits only the matching pairs, so its cost is
linear in the inputs plus the output; an empty ``on`` is the cross product.
A selection resolves its columns once, before the first row.  A selection
directly above a join tests each matching pair before conjoining its
annotations, since a selection never changes an annotation, so a pair it
drops costs no conjunction.  A pair of single-term annotations conjoins to
one term, which needs no absorption.  A row seen once is stored as it is,
without absorption; only a second annotation for the same row is absorbed.
``load_database`` checks a relation's tuples in bulk: one name match over
all annotations and one type test over all values; only when a bulk check
fails does it check tuple by tuple, so the first fault in document order is
the one reported.  The
reverse construction ``dnf_to_database`` packs any monotone k-DNF into a
two-relation database plus a fixed k-ary join query whose single output row
reproduces the DNF.  A database or query document nested too deeply to
read, or a query too deeply to evaluate or write, raises one
``ProvenanceError``, which the CLI prints as one error line.
"""

from __future__ import annotations

import itertools
import json
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Union

from .expr import MonotoneDnf, Valuation, VariableUniverse, _IDENT_RE, _all_identifiers, absorb

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

    @cached_property
    def universe(self) -> VariableUniverse:
        """Annotation variables in order of first appearance, computed once."""
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


def _operand_getter(op: Operand, columns) -> Callable[[tuple], ValueType]:
    if isinstance(op, Lit):
        value = op.value
        return lambda values: value
    i = _col_index(columns, op.column)
    if isinstance(op, ColRef):
        return operator.itemgetter(i)

    def year(values):
        raw = values[i]
        text = str(raw)
        if len(text) < 4 or not text[:4].isdigit():
            raise QueryError(f"cannot extract year from {raw!r}")
        return int(text[:4])
    return year


_COMPARE = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
            "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _atom_test(atom: Atom, columns) -> Callable[[tuple], bool]:
    """Compile ``atom`` against ``columns``: every column reference is
    resolved here, so an unknown or ambiguous one raises even over no rows."""
    if isinstance(atom, ContainsCI):
        i = _col_index(columns, atom.column)
        needle = atom.literal.lower()
        return lambda values: needle in str(values[i]).lower()
    lhs = _operand_getter(atom.lhs, columns)
    rhs = _operand_getter(atom.rhs, columns)
    op, compare = atom.op, _COMPARE[atom.op]

    def test(values):
        a, b = lhs(values), rhs(values)
        if type(a) is not type(b):
            raise QueryError(f"type mismatch in predicate: {a!r} {op} {b!r}")
        return compare(a, b)
    return test


TermSet = frozenset[frozenset[str]]
Rows = dict[tuple[ValueType, ...], TermSet]


def _merge(rows: Rows, values: tuple[ValueType, ...], terms: TermSet):
    """Disjoin ``terms`` into the row ``values`` of ``rows``.

    Every ``Rows`` value, ``terms`` included, is absorbed already, so a new
    row stores ``terms`` as it is and only a second annotation is absorbed.
    """
    existing = rows.get(values)
    rows[values] = terms if existing is None else absorb(existing | terms)


def _join(q: Join, predicate: tuple[Atom, ...], left: tuple[tuple[str, ...], Rows],
          right: tuple[tuple[str, ...], Rows]) -> tuple[tuple[str, ...], Rows]:
    """Join ``left`` and ``right``, the evaluated inputs of ``q``, and keep the
    pairs that satisfy every atom of ``predicate``; each pair is tested
    before its annotations are conjoined.

    Join schema errors come before the predicate's column errors, and rows
    are tested in the join's visit order, so the first row error is the one
    a selection over the whole join would raise.  The caller evaluates the
    inputs, so a join level costs one ``_eval`` frame, as any other node.
    """
    (lcols, lrows), (rcols, rrows) = left, right
    overlap = set(lcols) & set(rcols)
    if overlap:
        raise QueryError(f"join inputs share column names: {sorted(overlap)}")
    pairs = [(_col_index(lcols, a), _col_index(rcols, b)) for a, b in q.on]
    lkey, rkey = _key([i for i, _ in pairs]), _key([j for _, j in pairs])
    columns = lcols + rcols
    tests = [_atom_test(a, columns) for a in predicate]
    # hash join: right rows by their key, each list in input order
    index: dict = {}
    for rv, rt in rrows.items():
        index.setdefault(rkey(rv), []).append((rv, rt))
    out: Rows = {}
    for lv, lt in lrows.items():
        for rv, rt in index.get(lkey(lv), ()):
            # lv + rv is a new key: lv and rv are distinct keys of their inputs
            values = lv + rv
            for test in tests:
                if not test(values):
                    break
            else:
                if len(lt) == 1 == len(rt):  # one term needs no absorption
                    (a,), (b,) = lt, rt
                    out[values] = frozenset([a | b])
                else:
                    out[values] = absorb(a | b for a in lt for b in rt)
    return columns, out


def _key(indices: list[int]) -> Callable[[tuple], object]:
    """The join key of a row: its values at ``indices``, a single value
    when there is one, and the same empty key for every row when there is
    none."""
    return operator.itemgetter(*indices) if indices else lambda values: ()


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
        if isinstance(q.input, Join):
            j = q.input
            return _join(j, q.predicate, _eval(db, j.left), _eval(db, j.right))
        columns, rows = _eval(db, q.input)
        tests = [_atom_test(a, columns) for a in q.predicate]
        kept: Rows = {}
        for values, terms in rows.items():
            if all(test(values) for test in tests):
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
        return _join(q, (), _eval(db, q.left), _eval(db, q.right))
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
    try:
        columns, rows = _eval(db, q)
    except RecursionError:
        raise QueryError("query nested too deeply to evaluate") from None
    ordered = sorted(rows.items(), key=lambda kv: tuple(map(str, kv[0])))
    # every row's terms are absorbed already (see ``_merge``)
    out = tuple((values, MonotoneDnf._of_absorbed(db.universe, terms))
                for values, terms in ordered)
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
    names = d.universe.names
    r_tuples = tuple(AnnotatedTuple((v,), v) for v in d.variables())
    s_tuples = []
    for term in d.ordered_terms():
        vs = [names[i] for i in term]
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
    except RecursionError:
        raise SchemaError("database document nested too deeply to read") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("relations"), list):
        raise SchemaError('database document must be {"relations": [...]}')
    relations = []
    for raw in doc["relations"]:
        try:
            name = raw["name"]
            if not isinstance(name, str):
                raise SchemaError(f"relation name must be a string: {name!r}")
            columns = _strings(raw["columns"], "columns must be a list of strings")
            tuples = _tuples(raw["tuples"])
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"malformed relation entry: {exc}") from None
        relations.append(Relation(name, columns, tuples))
    return AnnotatedDatabase(tuple(relations))


def _tuples(raw) -> tuple[AnnotatedTuple, ...]:
    """The tuples of one relation entry.  A relation of valid tuples passes
    a few checks over all of them at once; any other falls back to the
    check of each tuple in turn, which raises its first fault in document
    order."""
    try:
        values = [t["values"] for t in raw]
        annotations = [t["annotation"] for t in raw]
        if (_all_identifiers(annotations) and set(map(type, values)) == {list}
                and set(map(type, itertools.chain.from_iterable(values))) <= {str, int}):
            return tuple(map(AnnotatedTuple, map(tuple, values), annotations))
    except (KeyError, TypeError):
        pass
    tuples = []
    for t in raw:
        if not isinstance(t["values"], list):
            raise SchemaError(f"tuple values must be a list: {t['values']!r}")
        values = tuple(t["values"])
        annotation = t["annotation"]
        if not isinstance(annotation, str) or not _IDENT_RE.fullmatch(annotation):
            raise SchemaError(f"invalid annotation variable {annotation!r}")
        for v in values:
            if not isinstance(v, (str, int)) or isinstance(v, bool):
                raise SchemaError(f"unsupported value {v!r}")
        tuples.append(AnnotatedTuple(values, annotation))
    return tuple(tuples)


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
        if not isinstance(raw["value"], str):
            raise SchemaError(f"contains_ci value must be a string: {raw['value']!r}")
        return ContainsCI(raw["col"], raw["value"])
    return Compare(_operand_from_json(raw["lhs"]), raw["op"],
                   _operand_from_json(raw["rhs"]))


def query_from_json(text: str) -> Query:
    try:
        return _query_node(json.loads(text))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise SchemaError("query nested too deeply to read") from None


def _strings(raw, what: str, length: Optional[int] = None) -> tuple[str, ...]:
    if (not isinstance(raw, list) or not all(isinstance(s, str) for s in raw)
            or length is not None and len(raw) != length):
        raise SchemaError(f"{what}: {raw!r}")
    return tuple(raw)


def _query_node(raw) -> Query:
    try:
        op = raw["op"]
        if op == "scan":
            return Scan(raw["relation"], raw.get("alias"))
        if op == "select":
            return Select(tuple(_atom_from_json(a) for a in raw["pred"]),
                          _query_node(raw["input"]))
        if op == "project":
            return Project(_strings(raw["columns"], "columns must be a list of strings"),
                           _query_node(raw["input"]))
        if op == "join":
            if not isinstance(raw["on"], list):
                raise SchemaError(f"join on must be a list of pairs: {raw['on']!r}")
            on = tuple(_strings(p, "join on entry must be a pair of column names", 2)
                       for p in raw["on"])
            return Join(on, _query_node(raw["left"]), _query_node(raw["right"]))
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
    try:
        return json.dumps(_query_doc(q), indent=2)
    except RecursionError:
        raise QueryError("query nested too deeply to write") from None


def _query_doc(q: Query) -> dict:
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
        return {"op": "select", "pred": pred, "input": _query_doc(q.input)}
    if isinstance(q, Project):
        return {"op": "project", "columns": list(q.columns), "input": _query_doc(q.input)}
    if isinstance(q, Join):
        return {"op": "join", "on": [list(p) for p in q.on],
                "left": _query_doc(q.left), "right": _query_doc(q.right)}
    return {"op": "union", "inputs": [_query_doc(i) for i in q.inputs]}


def result_to_json(r: ProvenancedResult) -> str:
    from .expr import format_node

    rows = []
    for values, dnf in r.rows:
        e = dnf.to_expression()
        rows.append({"values": list(values),
                     "annotation": format_node(e.root, e.universe)})
    return json.dumps({"columns": list(r.columns), "rows": rows}, indent=2)
