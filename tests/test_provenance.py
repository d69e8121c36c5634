"""Unit and property tests for annotated databases and provenance evaluation."""

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from conftest import (dnf_holds, eval_nested, fixture_text, load_database_tuple_by_tuple,
                      random_annotated_db, random_monotone_dnf, random_spju_query)
from probedepth import expr as ex
from probedepth import provenance as pv
from probedepth.expr import Valuation, VariableUniverse

TABLE_ROWS = {
    ("A2Bdone", "U. Melbourne"): {
        frozenset(["a0", "r0", "e0"]),
        frozenset(["a0", "r1", "e1"]),
        frozenset(["a0", "r2", "e3"]),
    },
    ("A2Bdone", "U. Sau Paolo"): {frozenset(["a0", "r2", "e2"])},
    ("microBarg", "U. Melbourne"): {frozenset(["a1", "r3", "e3"])},
    ("microBarg", "U. Sau Paolo"): {
        frozenset(["a1", "r3", "e2"]),
        frozenset(["a1", "r4", "e4"]),
    },
}


@pytest.fixture(scope="module")
def fixture_db():
    return pv.load_database(fixture_text("acquisitions_db.json"))


@pytest.fixture(scope="module")
def fixture_query():
    return pv.query_from_json(fixture_text("founder_institutes_query.json"))


class TestFixtureEvaluation:
    def test_four_rows_with_exact_annotations(self, fixture_db, fixture_query):
        result = pv.eval_query(fixture_db, fixture_query)
        assert result.columns == ("a.Acquired", "e.Institute")
        got = {values: set(dnf.terms) for values, dnf in result.rows}
        assert got == TABLE_ROWS

    def test_max_term_size_is_three(self, fixture_db, fixture_query):
        assert pv.max_term_size(pv.eval_query(fixture_db, fixture_query)) == 3

    def test_universe_computed_once(self, fixture_db):
        assert fixture_db.universe is fixture_db.universe
        again = pv.load_database(pv.dump_database(fixture_db))
        assert again == fixture_db and hash(again) == hash(fixture_db)

    def test_universe_order(self, fixture_db):
        names = fixture_db.universe.names
        assert names[:4] == ("a0", "a1", "a2", "a3")
        assert names[4:10] == tuple(f"e{i}" for i in range(6))
        assert names[10:] == tuple(f"r{i}" for i in range(6))

    def test_acquisition_consent_denied_kills_all_rows(self, fixture_db,
                                                       fixture_query):
        # answers False for the 2017+ acquisitions, True elsewhere
        u = fixture_db.universe
        v = Valuation.from_dict(u, {n: n not in ("a0", "a1") for n in u.names})
        result = pv.eval_query(fixture_db, fixture_query)
        assert all(not dnf_holds(dnf, v) for _, dnf in result.rows)

    def test_single_consenting_world(self, fixture_db, fixture_query):
        u = fixture_db.universe
        v = Valuation.from_dict(u, {n: n in ("a0", "r0", "e0") for n in u.names})
        world = pv.possible_world(fixture_db, v)
        result = pv.eval_query(world, fixture_query)
        assert [values for values, _ in result.rows] == [("A2Bdone", "U. Melbourne")]

    def test_all_false_world_is_empty(self, fixture_db):
        u = fixture_db.universe
        v = Valuation.from_dict(u, {n: False for n in u.names})
        world = pv.possible_world(fixture_db, v)
        assert all(not rel.tuples for rel in world.relations)


class TestAlgebra:
    def db(self):
        return pv.AnnotatedDatabase((
            pv.Relation("R", ("A", "B"), (
                pv.AnnotatedTuple(("p", 1), "x0"),
                pv.AnnotatedTuple(("p", 2), "x1"),
                pv.AnnotatedTuple(("q", 1), "x2"),
            )),
            pv.Relation("S", ("C",), (
                pv.AnnotatedTuple(("p",), "y0"),
            )),
        ))

    def test_scan_annotations(self):
        result = pv.eval_query(self.db(), pv.Scan("R"))
        assert {v: set(d.terms) for v, d in result.rows} == {
            ("p", 1): {frozenset(["x0"])},
            ("p", 2): {frozenset(["x1"])},
            ("q", 1): {frozenset(["x2"])},
        }

    def test_projection_merges_with_disjunction(self):
        result = pv.eval_query(self.db(), pv.Project(("A",), pv.Scan("R")))
        got = {v: set(d.terms) for v, d in result.rows}
        assert got[("p",)] == {frozenset(["x0"]), frozenset(["x1"])}

    def test_join_conjoins(self):
        q = pv.Join((("r.A", "s.C"),), pv.Scan("R", "r"), pv.Scan("S", "s"))
        result = pv.eval_query(self.db(), q)
        got = {v: set(d.terms) for v, d in result.rows}
        assert got == {
            ("p", 1, "p"): {frozenset(["x0", "y0"])},
            ("p", 2, "p"): {frozenset(["x1", "y0"])},
        }

    def test_join_name_collision_rejected(self):
        q = pv.Join((("A", "A"),), pv.Scan("R"), pv.Scan("R"))
        with pytest.raises(pv.QueryError):
            pv.eval_query(self.db(), q)

    def test_union_requires_matching_schema(self):
        q = pv.Union_((pv.Scan("R"), pv.Scan("S")))
        with pytest.raises(pv.QueryError):
            pv.eval_query(self.db(), q)

    def test_union_merges(self):
        q = pv.Union_((pv.Project(("A",), pv.Scan("R")),
                       pv.Project(("A",), pv.Select(
                           (pv.Compare(pv.ColRef("B"), "=", pv.Lit(1)),),
                           pv.Scan("R")))))
        result = pv.eval_query(self.db(), q)
        got = {v: set(d.terms) for v, d in result.rows}
        assert got[("q",)] == {frozenset(["x2"])}

    def test_select_type_mismatch_rejected(self):
        q = pv.Select((pv.Compare(pv.ColRef("B"), "<", pv.Lit("zzz")),),
                      pv.Scan("R"))
        with pytest.raises(pv.QueryError):
            pv.eval_query(self.db(), q)

    def test_year_operand(self):
        db = pv.AnnotatedDatabase((
            pv.Relation("T", ("D",), (pv.AnnotatedTuple(("2019-05-01",), "t0"),)),
        ))
        q = pv.Select((pv.Compare(pv.Year("D"), "=", pv.Lit(2019)),), pv.Scan("T"))
        assert len(pv.eval_query(db, q).rows) == 1

    def test_contains_ci(self):
        q = pv.Select((pv.ContainsCI("A", "P"),), pv.Scan("R"))
        result = pv.eval_query(self.db(), q)
        assert {v[0] for v, _ in result.rows} == {"p"}

    def test_unknown_column(self):
        with pytest.raises(pv.QueryError):
            pv.eval_query(self.db(), pv.Project(("Z",), pv.Scan("R")))


class TestDnfToDatabase:
    def test_example_shape(self):
        s = ex.parse_expressions("(a&b)|c")
        d = ex.to_monotone_dnf(s.members[0])
        db, query = pv.dnf_to_database(d, 2)
        s_rel = db.relation("S")
        r_rel = db.relation("R")
        assert r_rel.columns == ("v",)
        assert {t.values for t in r_rel.tuples} == {("a",), ("b",), ("c",)}
        assert s_rel.columns == ("z1", "z2")
        assert {t.values for t in s_rel.tuples} == {("a", "b"), ("c", "c")}
        result = pv.eval_query(db, query)
        assert len(result.rows) == 1

    def test_constant_rejected(self):
        u = VariableUniverse(("a",))
        with pytest.raises(pv.ProvenanceError):
            pv.dnf_to_database(ex.MonotoneDnf(u, frozenset()), 2)
        with pytest.raises(pv.ProvenanceError):
            pv.dnf_to_database(ex.MonotoneDnf(u, frozenset([frozenset()])), 2)

    def test_oversized_term_rejected(self):
        u = VariableUniverse(("a", "b", "c"))
        d = ex.MonotoneDnf(u, frozenset([frozenset(u.names)]))
        with pytest.raises(pv.ProvenanceError):
            pv.dnf_to_database(d, 2)

    def test_roundtrip_random(self, rng):
        for _ in range(40):
            d = random_monotone_dnf(rng)
            db, query = pv.dnf_to_database(d, 3)
            result = pv.eval_query(db, query)
            assert len(result.rows) == 1
            back = result.rows[0][1]
            assert ref.equivalent(back.to_expression(), d.to_expression())


def _join_width(q) -> int:
    """Largest number of scans conjoined along any root-to-leaf join chain."""
    if isinstance(q, pv.Scan):
        return 1
    if isinstance(q, pv.Join):
        return _join_width(q.left) + _join_width(q.right)
    if isinstance(q, (pv.Select, pv.Project)):
        return _join_width(q.input)
    return max(_join_width(i) for i in q.inputs)


class TestPossibleWorlds:
    def test_random_triples(self, rng):
        from conftest import possible_worlds_agree, random_annotated_db, \
            random_spju_query
        for _ in range(60):
            db = random_annotated_db(rng)
            q = random_spju_query(rng, db)
            u = db.universe
            v = Valuation(u, tuple(rng.random() < 0.5 for _ in u.names))
            assert possible_worlds_agree(db, q, v)

    def test_term_width_bounded_by_join_chain(self, rng):
        from conftest import random_annotated_db, random_spju_query
        for _ in range(40):
            db = random_annotated_db(rng)
            q = random_spju_query(rng, db)
            result = pv.eval_query(db, q)
            assert pv.max_term_size(result) <= _join_width(q)

    def test_annotations_absorbed(self, rng):
        from conftest import random_annotated_db, random_spju_query
        for _ in range(20):
            db = random_annotated_db(rng)
            q = random_spju_query(rng, db)
            for _, dnf in pv.eval_query(db, q).rows:
                assert not any(a < b for a in dnf.terms for b in dnf.terms)


def _outcome(evaluate, db, q):
    """Columns and rows in insertion order, or the exception's type and text."""
    try:
        columns, rows = evaluate(db, q)
    except Exception as exc:  # the exception is the outcome
        return type(exc), str(exc)
    return columns, list(rows.items())


def _joins(q):
    if isinstance(q, pv.Join):
        yield q
        yield from _joins(q.left)
        yield from _joins(q.right)
    elif isinstance(q, (pv.Select, pv.Project)):
        yield from _joins(q.input)
    elif isinstance(q, pv.Union_):
        for sub in q.inputs:
            yield from _joins(sub)


class CountingInt(int):
    """An int that counts the equality tests made on it."""
    eq_calls = 0

    def __eq__(self, other):
        CountingInt.eq_calls += 1
        return int.__eq__(self, other)

    __hash__ = int.__hash__


class TestHashJoin:
    def test_matches_nested_loop_on_random_queries(self, rng):
        for _ in range(300):
            db = random_annotated_db(rng)
            q = random_spju_query(rng, db)
            got = _outcome(pv._eval, db, q)
            assert got == _outcome(eval_nested, db, q)
            assert not isinstance(got[0], type)  # these queries never raise

    def test_matches_nested_loop_on_wide_empty_and_mixed_keys(self, rng):
        # joins on zero, one or two column pairs over few distinct int and
        # str values: duplicate keys, cross products, and type mismatches in
        # selects (raised per row, so compared as exceptions)
        widths = set()
        errors = 0
        for _ in range(600):
            db = random_annotated_db(rng, 16, pool=("p", "q", 1, 2, "1"))
            q = random_spju_query(rng, db, max_on=2)
            got = _outcome(pv._eval, db, q)
            assert got == _outcome(eval_nested, db, q)
            errors += isinstance(got[0], type)
            widths.update(len(j.on) for j in _joins(q))
        assert widths == {0, 1, 2}
        assert 0 < errors < 400

    def test_duplicate_keys_keep_input_order(self):
        db = pv.AnnotatedDatabase((
            pv.Relation("L", ("A", "B"), tuple(
                pv.AnnotatedTuple((k, i), f"l{i}")
                for i, k in enumerate((1, "1", 1, 2))) + (
                pv.AnnotatedTuple((1, 0), "l9"),)),
            pv.Relation("R", ("C",), tuple(
                pv.AnnotatedTuple((k,), f"r{i}")
                for i, k in enumerate((2, 1, "1", 3))) + (
                pv.AnnotatedTuple((1,), "r9"),)),
        ))
        for on in ((("A", "C"),), (), (("A", "C"), ("B", "C"))):
            q = pv.Join(on, pv.Scan("L"), pv.Scan("R"))
            assert _outcome(pv._eval, db, q) == _outcome(eval_nested, db, q)
        q = pv.Join((("A", "C"),), pv.Scan("L"), pv.Scan("R"))
        _, rows = pv._eval(db, q)
        assert list(rows) == [(1, 0, 1), ("1", 1, "1"), (1, 2, 1), (2, 3, 2)]
        assert rows[(1, 0, 1)] == frozenset([frozenset(["l0", "r1"]),
                                            frozenset(["l9", "r1"]),
                                            frozenset(["l0", "r9"]),
                                            frozenset(["l9", "r9"])])

    def test_join_visits_matching_pairs_only(self):
        n = 300
        db = pv.AnnotatedDatabase((
            pv.Relation("L", ("A",), tuple(
                pv.AnnotatedTuple((CountingInt(i),), f"l{i}") for i in range(n))),
            pv.Relation("R", ("B",), tuple(
                pv.AnnotatedTuple((CountingInt(i),), f"r{i}") for i in range(n))),
        ))
        q = pv.Join((("A", "B"),), pv.Scan("L"), pv.Scan("R"))
        CountingInt.eq_calls = 0
        result = pv.eval_query(db, q)
        assert len(result.rows) == n
        # a nested loop makes n * n = 90 000 comparisons
        assert CountingInt.eq_calls < 10 * (n + n)

    def test_errors_as_before(self):
        db = TestAlgebra().db()
        for q in (pv.Join((("A", "A"),), pv.Scan("R"), pv.Scan("R")),
                  pv.Join((("r.Z", "s.C"),), pv.Scan("R", "r"), pv.Scan("S", "s")),
                  pv.Join((("r.A", "s.Z"),), pv.Scan("R", "r"), pv.Scan("S", "s")),
                  pv.Join((("r.A", "s.C"),), pv.Scan("R", "r"), pv.Scan("Q", "s"))):
            got = _outcome(pv._eval, db, q)
            assert got[0] is pv.QueryError
            assert got == _outcome(eval_nested, db, q)


MIXED = ("p", "q", 1, 2, "1")


def random_select_join_query(rng, db, depth=2):
    """Random SPJU tree whose root and every other Select is a Select
    directly over a Join.  Literals come from ``MIXED`` and atoms may compare
    two columns, so over a database with mixed values the comparisons fail
    per row with a type mismatch."""
    aliases = (f"t{i}" for i in itertools.count())

    def atoms(columns):
        out = []
        for _ in range(rng.choice((0, 1, 1, 2))):
            col = rng.choice(columns)
            roll = rng.random()
            if roll < 0.6:
                out.append(pv.ContainsCI(col, str(rng.choice(MIXED))))
            else:
                rhs = (pv.ColRef(rng.choice(columns)) if roll < 0.7
                       else pv.Lit(rng.choice(MIXED)))
                op = rng.choice(("=", "!=", "<", "<=", ">", ">="))
                out.append(pv.Compare(pv.ColRef(col), op, rhs))
        return tuple(out)

    def select_join(d):
        lq, lcols = gen(d - 1)
        rq, rcols = gen(d - 1)
        on = tuple((rng.choice(lcols), rng.choice(rcols))
                   for _ in range(rng.randint(0, 1)))
        cols = lcols + rcols
        return pv.Select(atoms(cols), pv.Join(on, lq, rq)), cols

    def gen(d):
        if d == 0 or rng.random() < 0.3:
            rel = rng.choice(db.relations)
            alias = next(aliases)
            return pv.Scan(rel.name, alias), tuple(f"{alias}.{c}" for c in rel.columns)
        roll = rng.random()
        if roll < 0.5:
            return select_join(d)
        if roll < 0.75:
            q, cols = gen(d - 1)
            kept = tuple(c for c in cols if rng.random() < 0.6) or cols[:1]
            return pv.Project(kept, q), kept
        q, cols = select_join(d)
        return pv.Union_((q, pv.Select(atoms(cols), q.input))), cols

    return select_join(depth)[0]


class TestSelectOverJoin:
    def test_matches_nested_loop_with_row_errors(self, rng):
        # each pair is tested before its annotations conjoin; rows, their
        # order and the first type-mismatch error stay as a selection over
        # the whole join gives them
        errors = nonempty = 0
        for _ in range(400):
            db = random_annotated_db(rng, 16, pool=MIXED)
            q = random_select_join_query(rng, db)
            got = _outcome(pv._eval, db, q)
            assert got == _outcome(eval_nested, db, q)
            errors += isinstance(got[0], type)
            nonempty += not isinstance(got[0], type) and bool(got[1])
        assert 0 < errors < 300 and nonempty > 20

    @pytest.mark.parametrize("join, message", [
        (pv.Join((("A", "A"),), pv.Scan("R"), pv.Scan("R")), "share column names"),
        (pv.Join((("r.Z", "s.C"),), pv.Scan("R", "r"), pv.Scan("S", "s")),
         "unknown column 'r.Z'"),
    ])
    def test_join_errors_before_column_errors(self, join, message):
        q = pv.Select((pv.Compare(pv.ColRef("Nope"), "=", pv.Lit("x")),), join)
        db = TestAlgebra().db()
        got = _outcome(pv._eval, db, q)
        assert got[0] is pv.QueryError and message in got[1]
        assert got == _outcome(eval_nested, db, q)

    def test_conjoins_only_kept_pairs(self, monkeypatch):
        # five keys a side, each on two tuples, so every annotation has two
        # terms; the selection keeps the one pair with key 3
        db = pv.AnnotatedDatabase(tuple(
            pv.Relation(name, (col,), tuple(
                pv.AnnotatedTuple((k,), f"{name.lower()}{k}{copy}")
                for k in range(5) for copy in "ab"))
            for name, col in (("L", "A"), ("R", "B"))))
        calls = []

        def counting_absorb(terms):
            calls.append(None)
            return ex.absorb(terms)

        def absorbs(q):
            calls.clear()
            rows = pv._eval(db, q)[1]
            return len(calls), rows

        monkeypatch.setattr(pv, "absorb", counting_absorb)
        merges = 0  # one per key's second tuple
        for name in ("L", "R"):
            count, rows = absorbs(pv.Scan(name))
            assert all(len(terms) == 2 for terms in rows.values())
            merges += count
        assert merges == 10
        join = pv.Join((("A", "B"),), pv.Scan("L"), pv.Scan("R"))
        assert absorbs(join)[0] == merges + 5  # every matching pair
        count, rows = absorbs(pv.Select(
            (pv.Compare(pv.ColRef("A"), "=", pv.Lit(3)),), join))
        assert count == merges + 1  # the kept pair only
        assert rows == {(3, 3): frozenset(
            frozenset([f"l3{x}", f"r3{y}"]) for x in "ab" for y in "ab")}

    @pytest.mark.parametrize("select", [False, True])
    def test_deep_join_chain_rejected(self, fixture_db, select):
        q = pv.Scan("Roles", "t0")
        for i in range(1, 3001):
            q = pv.Join((), q, pv.Scan("Roles", f"t{i}"))
            if select:
                q = pv.Select((), q)
        with pytest.raises(pv.QueryError, match="nested too deeply"):
            pv.eval_query(fixture_db, q)


class TestSelectColumns:
    def empty(self):
        return pv.AnnotatedDatabase((pv.Relation("R", ("A", "x.B", "y.B"), ()),))

    @pytest.mark.parametrize("atom, message", [
        (pv.Compare(pv.ColRef("Nope"), "=", pv.Lit("x")), "unknown column 'Nope'"),
        (pv.Compare(pv.Lit(1), "<", pv.Year("Nope")), "unknown column 'Nope'"),
        (pv.ContainsCI("Nope", "x"), "unknown column 'Nope'"),
        (pv.Compare(pv.ColRef("B"), "=", pv.Lit("x")), "ambiguous column reference 'B'"),
    ])
    def test_bad_column_raises_over_no_rows(self, atom, message):
        q = pv.Select((pv.Compare(pv.ColRef("A"), "=", pv.Lit("a")), atom),
                      pv.Scan("R"))
        with pytest.raises(pv.QueryError, match=message):
            pv.eval_query(self.empty(), q)

    def test_row_errors_stay_per_row(self):
        q = pv.Select((pv.Compare(pv.ColRef("A"), "<", pv.Lit(1)),
                       pv.Compare(pv.Year("A"), "=", pv.Lit(2019))), pv.Scan("R"))
        assert pv.eval_query(self.empty(), q).rows == ()
        db = pv.AnnotatedDatabase((pv.Relation(
            "R", ("A", "x.B", "y.B"), (pv.AnnotatedTuple(("zz", 1, 2), "t0"),)),))
        with pytest.raises(pv.QueryError, match="type mismatch"):
            pv.eval_query(db, q)
        q = pv.Select((pv.Compare(pv.Year("A"), "=", pv.Lit(2019)),), pv.Scan("R"))
        with pytest.raises(pv.QueryError, match="cannot extract year"):
            pv.eval_query(db, q)


class TestSerialization:
    def test_database_roundtrip(self, fixture_db):
        back = pv.load_database(pv.dump_database(fixture_db))
        assert back == fixture_db

    def test_query_roundtrip(self, fixture_query):
        back = pv.query_from_json(pv.query_to_json(fixture_query))
        assert back == fixture_query

    def test_bool_value_rejected(self):
        text = json.dumps({"relations": [{"name": "R", "columns": ["A"],
                                         "tuples": [{"values": [True],
                                                     "annotation": "x"}]}]})
        with pytest.raises(pv.SchemaError):
            pv.load_database(text)

    def test_bad_annotation_rejected(self):
        text = json.dumps({"relations": [{"name": "R", "columns": ["A"],
                                         "tuples": [{"values": ["ok"],
                                                     "annotation": "not an id"}]}]})
        with pytest.raises(pv.SchemaError):
            pv.load_database(text)

    def test_invalid_json_rejected(self):
        with pytest.raises(pv.SchemaError):
            pv.load_database("{nope")
        with pytest.raises(pv.SchemaError):
            pv.query_from_json("[1,2]")

    @pytest.mark.parametrize("doc, message", [
        ({"op": "project", "columns": "AB", "input": {"op": "scan", "relation": "R"}},
         "columns must be a list of strings"),
        ({"op": "project", "columns": ["A", 1], "input": {"op": "scan", "relation": "R"}},
         "columns must be a list of strings"),
        ({"op": "join", "on": [["A"]], "left": {"op": "scan", "relation": "R"},
          "right": {"op": "scan", "relation": "S"}}, "must be a pair"),
        ({"op": "join", "on": [["A", "C", "D"]], "left": {"op": "scan", "relation": "R"},
          "right": {"op": "scan", "relation": "S"}}, "must be a pair"),
        ({"op": "join", "on": "AC", "left": {"op": "scan", "relation": "R"},
          "right": {"op": "scan", "relation": "S"}}, "must be a list of pairs"),
        ({"op": "select", "input": {"op": "scan", "relation": "R"},
          "pred": [{"atom": "contains_ci", "col": "A", "value": 5}]},
         "value must be a string"),
    ])
    def test_malformed_query_fields_rejected(self, doc, message):
        with pytest.raises(pv.SchemaError, match=message):
            pv.query_from_json(json.dumps(doc))

    @pytest.mark.parametrize("relation, message", [
        ({"name": "R", "columns": "ab", "tuples": []}, "columns must be a list of strings"),
        ({"name": "R", "columns": ["a", 1], "tuples": []}, "columns must be a list of strings"),
        ({"name": "R", "columns": ["a", "b"], "tuples": [{"values": "ab", "annotation": "x"}]},
         "values must be a list"),
        ({"name": 7, "columns": ["a"], "tuples": []}, "name must be a string"),
        ({"name": ["R"], "columns": ["a"], "tuples": []}, "name must be a string"),
        ({"name": "R", "columns": ["a"], "tuples": [{"values": ["v"], "annotation": 5}]},
         "^invalid annotation variable 5$"),
        ({"name": "R", "columns": ["a"], "tuples": [{"values": ["v"], "annotation": None}]},
         "^invalid annotation variable None$"),
        ({"name": "R", "columns": ["a"], "tuples": [{"values": ["v"], "annotation": True}]},
         "^invalid annotation variable True$"),
    ])
    def test_malformed_relation_fields_rejected(self, relation, message):
        with pytest.raises(pv.SchemaError, match=message):
            pv.load_database(json.dumps({"relations": [relation]}))

    def test_deeply_nested_query_rejected(self, fixture_db):
        text = '{"op": "scan", "relation": "Roles"}'
        for _ in range(3000):
            text = '{"op": "select", "pred": [], "input": ' + text + '}'
        with pytest.raises(pv.SchemaError, match="nested too deeply"):
            pv.query_from_json(text)
        q = pv.Scan("Roles")
        for _ in range(5000):
            q = pv.Select((), q)
        with pytest.raises(pv.QueryError, match="nested too deeply"):
            pv.eval_query(fixture_db, q)

    def test_result_to_json_prints_expressions(self, fixture_db, fixture_query):
        doc = json.loads(pv.result_to_json(pv.eval_query(fixture_db, fixture_query)))
        assert doc["columns"] == ["a.Acquired", "e.Institute"]
        assert len(doc["rows"]) == 4
        assert all("&" in row["annotation"] for row in doc["rows"])


def _load_outcome(load, doc):
    """The loaded database, or the exception's type and text."""
    try:
        return load(json.dumps(doc))
    except Exception as exc:  # the exception is the outcome
        return type(exc), str(exc)


GOOD_TUPLE = {"values": ["v", 1], "annotation": "g"}

# one fault each, in a tuple of a relation with columns ("A", "B")
LOAD_FAULTS = {
    "bad-annotation": {"values": ["v", 1], "annotation": "not an id"},
    "number-annotation": {"values": ["v", 1], "annotation": 5},
    "values-not-list": {"values": "v1", "annotation": "x"},
    "bool-value": {"values": ["v", True], "annotation": "x"},
    "float-value": {"values": [1.5, 1], "annotation": "x"},
    "null-value": {"values": ["v", None], "annotation": "x"},
    "no-values": {"annotation": "x"},
    "no-annotation": {"values": ["v", 1]},
    "not-object": ["v", 1],
    "arity": {"values": ["v"], "annotation": "x"},
}


def _relation(*tuples):
    return {"name": "R", "columns": ["A", "B"], "tuples": list(tuples)}


class TestLoadFaultOrder:
    @pytest.mark.parametrize("first, second", itertools.permutations(LOAD_FAULTS, 2))
    @pytest.mark.parametrize("apart", [False, True])
    def test_first_fault_is_reported(self, first, second, apart):
        # two faults between good tuples, in one relation or in two
        a, b = LOAD_FAULTS[first], LOAD_FAULTS[second]
        if apart:
            relations = [_relation(GOOD_TUPLE, a), _relation(b, GOOD_TUPLE)]
        else:
            relations = [_relation(GOOD_TUPLE, a, GOOD_TUPLE, b, GOOD_TUPLE)]
        got = _load_outcome(pv.load_database, {"relations": relations})
        assert got == _load_outcome(load_database_tuple_by_tuple, {"relations": relations})
        # an arity mismatch is found once its relation is read, any other
        # fault as its tuple is read
        reported = second if first == "arity" and not apart else first
        alone = _load_outcome(pv.load_database,
                              {"relations": [_relation(LOAD_FAULTS[reported])]})
        assert got[0] is pv.SchemaError and got == alone

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_valid_documents_load_as_built(self, data):
        doc = data.draw(database_documents())
        want = pv.AnnotatedDatabase(tuple(
            pv.Relation(r["name"], tuple(r["columns"]), tuple(
                pv.AnnotatedTuple(tuple(t["values"]), t["annotation"]) for t in r["tuples"]))
            for r in doc["relations"]))
        got = pv.load_database(json.dumps(doc))
        assert got == want
        assert [type(v) for r in got.relations for t in r.tuples for v in t.values] == [
            type(v) for r in want.relations for t in r.tuples for v in t.values]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_faulty_documents_fail_as_tuple_by_tuple(self, data):
        # one or two faults anywhere among tuples of arity 2
        doc = data.draw(database_documents(arities=st.just(2), min_tuples=1))
        places = [(r, k) for r in doc["relations"] for k in range(len(r["tuples"]))]
        for r, k in data.draw(st.lists(st.sampled_from(places), min_size=1, max_size=2)):
            r["tuples"][k] = LOAD_FAULTS[data.draw(st.sampled_from(sorted(LOAD_FAULTS)))]
        got = _load_outcome(pv.load_database, doc)
        assert got[0] is pv.SchemaError
        assert got == _load_outcome(load_database_tuple_by_tuple, doc)


_ANNOTATIONS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True)
_VALUES = st.one_of(st.text(max_size=3), st.integers(-5, 5), st.integers())


@st.composite
def database_documents(draw, arities=st.integers(0, 3), min_tuples: int = 0):
    """Valid database documents of 1-3 relations whose arities are drawn
    from ``arities``, the first with at least ``min_tuples`` tuples;
    annotations may repeat across tuples, and values are of both types."""
    relations = []
    for i in range(draw(st.integers(1, 3))):
        arity = draw(arities)
        tuples = draw(st.lists(st.fixed_dictionaries({
            "values": st.lists(_VALUES, min_size=arity, max_size=arity),
            "annotation": _ANNOTATIONS}), min_size=min_tuples if i == 0 else 0, max_size=6))
        relations.append({"name": f"R{i}",
                          "columns": [f"c{j}" for j in range(arity)], "tuples": tuples})
    return {"relations": relations}
