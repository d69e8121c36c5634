"""Unit and property tests for annotated databases and provenance evaluation."""

import json
import random

import pytest

from conftest import (dnf_holds, eval_nested, fixture_text, random_annotated_db,
                      random_monotone_dnf, random_spju_query)
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
            assert ex.equivalent(back.to_expression(), d.to_expression())


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
