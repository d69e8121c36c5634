"""End-to-end tests of the command-line interface."""

import contextlib
import io
import json

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixture_text, load_schema
from probedepth import cli, graphdnf


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDepth:
    def test_plain(self, tmp_path, capsys):
        f = write(tmp_path, "e.txt", "vars: x y z\nx & y\nx | z\n")
        code, out, _ = run(capsys, "depth", f)
        assert code == 0
        assert "depth=2" in out and "evasive=false" in out

    def test_json_validates(self, tmp_path, capsys):
        f = write(tmp_path, "e.txt", "a & b\n")
        code, out, _ = run(capsys, "depth", f, "--json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("depth_report.schema.json"))
        assert doc["depth"] == 2 and doc["evasive"] is True

    def test_budget_failure_is_domain_error(self, tmp_path, capsys):
        f = write(tmp_path, "e.txt", "(a&b)|(c&d)|(e&f)\n")
        code, _, err = run(capsys, "depth", f, "--budget", "2")
        assert code == 1
        assert "error" in err

    def test_parse_error_is_usage_error(self, tmp_path, capsys):
        f = write(tmp_path, "e.txt", "a &\n")
        code, _, err = run(capsys, "depth", f)
        assert code == 2
        assert "parse error" in err

    def test_deep_nesting_is_usage_error(self, tmp_path, capsys):
        f = write(tmp_path, "e.txt", "(" * 3000 + "a" + ")" * 3000 + "\n")
        code, _, err = run(capsys, "depth", f)
        assert code == 2
        assert "parse error" in err

    def test_cap_env_override(self, tmp_path, capsys, monkeypatch):
        f = write(tmp_path, "e.txt", "a & b & c\n")
        monkeypatch.setenv("PROBEDEPTH_CAP", "2")
        code, _, err = run(capsys, "depth", f)
        assert code == 1
        assert "exceeds cap" in err


class TestEvasive:
    def test_acyclic_reports_pattern(self, tmp_path, capsys):
        f = write(tmp_path, "e.txt", "(w&x)|(x&y)|(y&z)\n")
        code, out, _ = run(capsys, "evasive", f, "--method", "acyclic")
        assert code == 0
        assert "evasive=false" in out
        assert "pattern:" in out

    def test_auto_picks_acyclic(self, tmp_path, capsys):
        f = write(tmp_path, "e.txt", "(a&b)|(b&c)\n")
        code, out, _ = run(capsys, "evasive", f, "--json")
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("evasive_report.schema.json"))
        assert doc["method"] == "acyclic"
        assert doc["evasive"] is True

    def test_auto_falls_back_to_brute(self, tmp_path, capsys):
        f = write(tmp_path, "e.txt", "!a | b\n")
        code, out, _ = run(capsys, "evasive", f, "--json")
        doc = json.loads(out)
        assert doc["method"] == "brute"
        assert code == 0

    def test_methods_agree_on_path(self, tmp_path, capsys):
        f = write(tmp_path, "e.txt",
                  "(x0&x1)|(x1&x2)|(x2&x3)|(x3&x4)\n")
        _, out_a, _ = run(capsys, "evasive", f, "--method", "acyclic", "--json")
        _, out_b, _ = run(capsys, "evasive", f, "--method", "brute", "--json")
        assert json.loads(out_a)["evasive"] == json.loads(out_b)["evasive"] is True

    def test_cyclic_input_rejected(self, tmp_path, capsys):
        f = write(tmp_path, "e.txt", "(a&b)|(b&c)|(c&a)\n")
        code, _, err = run(capsys, "evasive", f, "--method", "acyclic")
        assert code == 1
        assert "error" in err

    def test_detector_runs_once(self, tmp_path, capsys, monkeypatch):
        calls = {"_adjacency": 0, "find_pattern": 0}
        for name in calls:
            original = getattr(graphdnf, name)

            def counted(*a, name=name, original=original):
                calls[name] += 1
                return original(*a)

            monkeypatch.setattr(graphdnf, name, counted)
        f = write(tmp_path, "e.txt", "vars: a b c d e f\n(a&b)|(b&c)|(c&d)|(e&f)\n")
        code, out, _ = run(capsys, "evasive", f)
        assert code == 0 and "pattern:" in out
        assert calls == {"_adjacency": 1, "find_pattern": 1}


    def test_long_paths(self, tmp_path, capsys):
        # 2999 mod 3 != 0: evasive; 3000 edges: a witness 1001 levels deep
        for n, evasive in ((2999, True), (3000, False)):
            f = write(tmp_path, f"path{n}.txt",
                      " | ".join(f"x{i}&x{i + 1}" for i in range(n)) + "\n")
            code, out, err = run(capsys, "evasive", f)
            assert code == 0 and err == ""
            lines = out.splitlines()
            assert lines[0] == f"evasive={str(evasive).lower()} method=acyclic"
            if not evasive:
                assert lines[1].startswith("pattern: x0 -> (x3 -> (")


class TestStrategy:
    def test_dot_root_probe(self, tmp_path, capsys):
        f = write(tmp_path, "e.txt", "vars: x y z\nx & y\nx | z\n")
        code, out, _ = run(capsys, "strategy", f)
        assert code == 0
        assert out.startswith("digraph strategy {")
        assert 'label="x"' in out

    def test_json_validates(self, tmp_path, capsys):
        f = write(tmp_path, "e.txt", "a & b\n")
        code, out, _ = run(capsys, "strategy", f, "--out", "json")
        jsonschema.validate(json.loads(out), load_schema("diagram.schema.json"))

    def test_constant_single_leaf(self, tmp_path, capsys):
        f = write(tmp_path, "e.txt", "1\n")
        code, out, _ = run(capsys, "strategy", f)
        assert code == 0
        assert out.count("shape=ellipse") == 0

    def test_greedy(self, tmp_path, capsys):
        f = write(tmp_path, "e.txt", "(a&b)|(c&d)\n")
        code, out, _ = run(capsys, "strategy", f, "--greedy")
        assert code == 0 and "digraph" in out


class TestProbe:
    def test_answers_file_true_branch(self, tmp_path, capsys):
        f = write(tmp_path, "e.txt", "vars: x y z\nx & y\nx | z\n")
        a = write(tmp_path, "a.json", json.dumps({"x": True, "y": False, "z": True}))
        code, out, _ = run(capsys, "probe", f, "--answers", a)
        assert code == 0
        assert "probe x -> true" in out
        assert "probe y -> false" in out
        assert "probes: 2" in out

    def test_answers_file_false_branch(self, tmp_path, capsys):
        f = write(tmp_path, "e.txt", "vars: x y z\nx & y\nx | z\n")
        a = write(tmp_path, "a.json", json.dumps({"x": "no", "y": "yes", "z": "no"}))
        code, out, _ = run(capsys, "probe", f, "--answers", a)
        assert code == 0
        assert "probe x -> false" in out
        assert "probe z -> false" in out
        assert "labels: false false" in out

    def test_constant_zero_probes(self, tmp_path, capsys):
        f = write(tmp_path, "e.txt", "0\n")
        a = write(tmp_path, "a.json", "{}")
        code, out, _ = run(capsys, "probe", f, "--answers", a)
        assert code == 0
        assert "probes: 0" in out

    def test_missing_answer(self, tmp_path, capsys):
        f = write(tmp_path, "e.txt", "a & b\n")
        a = write(tmp_path, "a.json", json.dumps({"a": True}))
        code, _, err = run(capsys, "probe", f, "--answers", a)
        assert code == 1
        assert "no answer" in err

    def test_interactive_session(self, tmp_path, capsys, monkeypatch):
        f = write(tmp_path, "e.txt", "a & b\n")
        monkeypatch.setattr("sys.stdin", io.StringIO("Y\nFALSE\n"))
        code, out, _ = run(capsys, "probe", f)
        assert code == 0
        assert "labels: false" in out

    def test_probe_count_within_depth(self, tmp_path, capsys):
        f = write(tmp_path, "e.txt", "(a&b)|(c&d)\n")
        answers = {"a": True, "b": True, "c": False, "d": False}
        a = write(tmp_path, "a.json", json.dumps(answers))
        _, depth_out, _ = run(capsys, "depth", f, "--json")
        code, out, _ = run(capsys, "probe", f, "--answers", a)
        count = int(out.strip().rsplit(" ", 1)[-1])
        assert count <= json.loads(depth_out)["depth"]


class TestProv:
    def test_eval_fixture(self, tmp_path, capsys):
        db = write(tmp_path, "db.json", fixture_text("acquisitions_db.json"))
        q = write(tmp_path, "q.json", fixture_text("founder_institutes_query.json"))
        code, out, _ = run(capsys, "prov", "eval", "--db", db, "--query", q)
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("provenance_result.schema.json"))
        assert len(doc["rows"]) == 4

    def test_eval_empty_database(self, tmp_path, capsys):
        db = write(tmp_path, "db.json", json.dumps({"relations": [
            {"name": "R", "columns": ["A"], "tuples": []}]}))
        q = write(tmp_path, "q.json", json.dumps({"op": "scan", "relation": "R"}))
        code, out, _ = run(capsys, "prov", "eval", "--db", db, "--query", q)
        assert code == 0
        assert json.loads(out)["rows"] == []

    def test_to_db_roundtrip(self, tmp_path, capsys):
        f = write(tmp_path, "d.txt", "(a&b)|c\n")
        out_db = str(tmp_path / "out_db.json")
        out_q = str(tmp_path / "out_q.json")
        code, _, _ = run(capsys, "prov", "to-db", "--dnf", f, "--k", "2",
                         "--out-db", out_db, "--out-query", out_q)
        assert code == 0
        code, out, _ = run(capsys, "prov", "eval", "--db", out_db, "--query", out_q)
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 1

    def test_missing_file_is_domain_error(self, capsys):
        code, _, err = run(capsys, "prov", "eval", "--db", "/nonexistent.json",
                           "--query", "/nonexistent.json")
        assert code == 1


class TestFamilyAndFactor:
    def test_family_psi_output_reparses(self, tmp_path, capsys):
        code, out, _ = run(capsys, "family", "psi", "1")
        assert code == 0
        from probedepth import expr as ex
        s = ex.parse_expressions(out)
        assert s.universe.n == 10

    def test_family_strategy_dot(self, capsys):
        code, out, _ = run(capsys, "family", "psi", "1", "--strategy-dot")
        assert code == 0 and "digraph" in out

    def test_family_strategy_dot_rejected_for_path(self, capsys):
        code, _, err = run(capsys, "family", "path", "3", "--strategy-dot")
        assert code == 1

    def test_family_path_output_feeds_evasive(self, tmp_path, capsys):
        code, out, _ = run(capsys, "family", "path", "400")
        assert code == 0
        f = write(tmp_path, "path400.txt", out)
        code, out, _ = run(capsys, "evasive", f)
        assert code == 0
        assert out.startswith("evasive=true method=acyclic")

    def test_family_bad_parameter(self, capsys):
        code, _, err = run(capsys, "family", "and", "0")
        assert code == 1

    def test_factor(self, tmp_path, capsys):
        f = write(tmp_path, "e.txt", "(a&b)|(a&c)\n")
        code, out, _ = run(capsys, "factor", f)
        assert code == 0
        from probedepth import expr as ex
        from probedepth import readonce
        factored = ex.parse_expressions(out)
        assert readonce.is_read_once(factored.members[0])

    def test_factor_failure(self, tmp_path, capsys):
        f = write(tmp_path, "e.txt", "(a&b)|(b&c)|(c&a)\n")
        code, _, err = run(capsys, "factor", f)
        assert code == 1


class TestCrosscheck:
    def test_small_run(self, capsys):
        code, out, _ = run(capsys, "crosscheck", "--max-nodes", "4",
                           "--trials", "20", "--json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("crosscheck_report.schema.json"))
        # 1 + 1 + 3 + 16 labeled trees on 1..4 nodes
        assert doc["trees_checked"] == 21
        assert doc["forests_checked"] == 20
        assert doc["disagreements"] == 0

    def test_determinism(self, capsys):
        _, out1, _ = run(capsys, "crosscheck", "--max-nodes", "3",
                         "--trials", "10", "--seed", "7", "--json")
        _, out2, _ = run(capsys, "crosscheck", "--max-nodes", "3",
                         "--trials", "10", "--seed", "7", "--json")
        assert out1 == out2

    def test_node_cap(self, capsys):
        code, _, err = run(capsys, "crosscheck", "--max-nodes", "9")
        assert code == 1


ATOM_QUERY = json.dumps({"op": "select", "pred": ["x"],
                         "input": {"op": "scan", "relation": "R"}})


@pytest.mark.parametrize("argv, env, expected", [
    (["depth", "{expr}"], {"PROBEDEPTH_CAP": "abc"}, 2),
    (["depth", "{latin1}"], {}, 2),
    (["prov", "eval", "--db", "{latin1}", "--query", "{query}"], {}, 2),
    (["prov", "eval", "--db", "{db}", "--query", "{latin1}"], {}, 2),
    (["probe", "{expr}", "--answers", "{not_json}"], {}, 1),
    (["probe", "{expr}", "--answers", "{json_list}"], {}, 1),
    (["crosscheck", "--max-nodes", "0"], {}, 1),
    (["crosscheck", "--max-nodes", "-2"], {}, 1),
    (["prov", "eval", "--db", "{db}", "--query", "{atom_query}"], {}, 1),
], ids=["cap-not-int", "expr-not-utf8", "db-not-utf8", "query-not-utf8",
        "answers-not-json", "answers-not-object", "max-nodes-0",
        "max-nodes-negative", "atom-not-object"])
def test_bad_input_one_line_error(tmp_path, capsys, monkeypatch, argv, env, expected):
    files = {"expr": b"a & b\n", "latin1": "vars: \xe9\n".encode("latin-1"),
             "db": fixture_text("acquisitions_db.json").encode(),
             "query": fixture_text("founder_institutes_query.json").encode(),
             "not_json": b"{x", "json_list": b"[1]", "atom_query": ATOM_QUERY.encode()}
    paths = {}
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
        paths[name] = str(tmp_path / name)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    code, _, err = run(capsys, *(a.format(**paths) for a in argv))
    assert code == expected
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(("error:", "parse error:"))
    assert "Traceback" not in err


FUZZ_TOKENS = ("a", "b", "c", "x1", "vars:", " ", "\n", "&", "|", "!", "(", ")",
               "0", "1", ";", "#")


@settings(derandomize=True, deadline=None, max_examples=250)
@given(st.lists(st.sampled_from(FUZZ_TOKENS), max_size=24).map("".join))
def test_fuzz_every_input_ends_in_an_exit_code(tmp_path_factory, text):
    # only commands with a bounded cost: brute `evasive` and exact `strategy`
    # have no budget
    path = tmp_path_factory.getbasetemp() / "fuzz.txt"
    path.write_text(text)
    for argv in (["depth", str(path), "--budget", "2000", "--json"],
                 ["evasive", str(path), "--method", "acyclic"],
                 ["factor", str(path)]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 1, 2), (argv, text)
        assert "Traceback" not in err.getvalue()
