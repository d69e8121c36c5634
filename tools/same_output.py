"""Run a fixed, seeded corpus of CLI calls in two checkouts and report every
difference in stdout, stderr or exit code.

    python tools/same_output.py OLD_CHECKOUT NEW_CHECKOUT

Each call runs in a fresh process as ``PYTHONPATH=<checkout>/src python -m
probedepth ...``.  The corpus holds ``SETS`` random expression sets drawn from
seed ``SEED`` (with negation and constants, 1-4 members over at most 7
variables), a few sets whose combined support exceeds the table cap, and
psi(2) as printed by the first checkout's ``family psi 2``.  On each it runs
``depth --json``, ``strategy --out json`` with and without ``--greedy``,
``evasive`` plain and with ``--json``, and ``probe --answers`` on a seeded
answer file.  Wider sets get exact ``strategy --out json`` and ``probe
--answers`` only: path(12) and psi(1) as the first checkout's ``family``
prints them, two disjoint 8-variable paths, and two seeded 9-variable sets
with negation, one evasive and one of depth 7.  The exact witnesses of
path(12), psi(1) and the depth-7 set hold states with more positions than
their budget, whose probes the search chose, as well as states with no
more, which probe their lowest position; the evasive witnesses hold only
the latter.  A call may also set environment variables: psi(2) gets
``strategy --out json --greedy`` once more with ``PROBEDEPTH_CAP=22``, since
at the default cap of 20 its 22 variables give only the cap error.  Two
large files without a ``vars:`` header, a 300-edge tree 2-DNF and a
400-variable DNF of a read-once formula, get ``evasive`` plain and with
``--json``, and ``factor``.  Three forests for the acyclic
detector get ``evasive`` plain and with ``--json``: one whose later
component holds the first special root, one with a free variable, and a
triangle beside a path past the cap (exit 1).  One more forest, with a
header out of alphabetical order, singleton terms and a free variable, also
gets ``evasive --method acyclic``.  Monotone files written with negations
that simplify away (and one whose negation stays) get ``factor`` and
``evasive`` plain and with ``--json``, and one of them ``prov to-db --k 2``
and ``prov eval`` on what it wrote.  Malformed files get
``depth --json`` and ``evasive``, so that parse errors are compared; among
them are errors around comments.  A well-formed file with comments, CRLF
line endings and a ``vars:`` header gets ``depth --json`` and ``strategy
--out json``.  It also runs ``family``
for psi 0-3, path 1-12 and 400, and ``and`` and ``or`` 1-5, and ``prov eval``
on the shipped fixtures.  ``prov eval`` also runs two queries of its own on
the fixture database: a union of two selections over joins, and a selection
over a join that fails per row with a type mismatch (exit 1), so that the
rows and the error of a selection tested inside its join are compared.
The fixture query and the union query run too on ``PROV_DATABASES`` seeded databases of the
fixture's schema, scaled up, whose value rows repeat, so that scans and
projections merge rows and joins conjoin annotations of several terms; and
the fixture query runs on database documents with two faults each, in
both orders, in one relation or in two, so that the fault reported first
is compared.
Seeded monotone DNFs, ``DNFS`` each with terms of at most k = 2 and k = 3
variables and a ``vars:`` header out of alphabetical order, get ``prov
to-db`` at their k, which writes into the checkout's own directory, and then
``prov eval`` on what it wrote; the written files are compared too.  Inputs
past the recursion limit, 100 000 ``[`` as an answers file for ``probe`` and
as a database for ``prov eval``, and ``prov to-db --k 1000``, whose query
nests 1 000 joins, compare how each deep document ends; ``crosscheck
--trials -1`` and ``prov to-db --k -1`` compare how a negative count is
taken.  Where the stdout of ``strategy --out json``, exact or
``--greedy``, differs, it also reports whether both diagrams give the
same walk (probes, answers and labels) on every valuation, and both
diagrams' node counts, each with its number of dead probes (probe nodes
whose two answers lead to the same node).
Exits 1 if any call differs in any byte, 0 otherwise.  Uses the standard
library only; the inputs go to a temporary directory (``TMPDIR`` chooses
where).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Mapping

SEED = 0
SETS = 40
DNFS = 3


def random_node(rng: random.Random, names: list[str], depth: int) -> str:
    if depth == 0 or rng.random() < 0.3:
        return rng.choice("01") if rng.random() < 0.1 else rng.choice(names)
    roll = rng.random()
    if roll < 0.2:
        return "!" + random_node(rng, names, depth - 1)
    op = " & " if roll < 0.6 else " | "
    return "(" + op.join(random_node(rng, names, depth - 1)
                         for _ in range(rng.randint(2, 3))) + ")"


def corpus(rng: random.Random) -> dict[str, str]:
    """Expression files by name."""
    files = {}
    for k in range(SETS):
        names = [f"x{i}" for i in range(rng.randint(1, 7))]
        members = [random_node(rng, names, rng.randint(2, 4))
                   for _ in range(rng.randint(1, 4))]
        files[f"random{k}"] = f"vars: {' '.join(names)}\n" + "\n".join(members) + "\n"
    # combined support past the cap of 20; each member fits it
    for k, (count, size) in enumerate(((3, 8), (2, 11), (4, 6))):
        names = [f"v{i}" for i in range(count * size)]
        rng.shuffle(names)
        members = [" | ".join(f"{a}&{b}" for a, b in zip(part, part[1:]))
                   for part in (names[j * size:(j + 1) * size] for j in range(count))]
        files[f"wide{k}"] = f"vars: {' '.join(sorted(names))}\n" + "\n".join(members) + "\n"
    return files


# seeds of ``nine_variable_set`` whose set is evasive, and of depth 7
NINE_SEEDS = {"nine-evasive": 23, "nine-depth7": 34}


def nine_variable_set(seed: int) -> str:
    """An expression file of 1-3 random members over x0..x8."""
    rng = random.Random(seed)
    names = [f"x{i}" for i in range(9)]
    members = [random_node(rng, names, rng.randint(3, 5)) for _ in range(rng.randint(1, 3))]
    return f"vars: {' '.join(names)}\n" + "\n".join(members) + "\n"


def wide_exact(rng: random.Random) -> dict[str, str]:
    """Expression files for the exact witness past ``corpus``'s 7 variables,
    by name, besides the ``family`` outputs that ``main`` adds."""
    paths = [" | ".join(f"{v}{i}&{v}{i + 1}" for i in range(7)) for v in "ab"]
    names = [f"{v}{i}" for v in "ab" for i in range(8)]
    rng.shuffle(names)
    files = {"two-paths8": f"vars: {' '.join(names)}\n" + "\n".join(paths) + "\n"}
    files.update((name, nine_variable_set(seed)) for name, seed in NINE_SEEDS.items())
    return files


def monotone_dnfs(rng: random.Random) -> dict[str, tuple[str, int]]:
    """Expression files of monotone k-DNFs, with their k, by name."""
    files = {}
    for k in (2, 3):
        for j in range(DNFS):
            names = [f"d{i}" for i in range(rng.randint(3, 9))]
            rng.shuffle(names)
            # few unit terms, since each absorbs every other term it is in
            terms = {" & ".join(rng.sample(names, 1 if rng.random() < 0.15
                                           else rng.randint(2, k)))
                     for _ in range(rng.randint(3, 10))}
            files[f"dnf-k{k}-{j}"] = (f"vars: {' '.join(names)}\n"
                                      + " | ".join(sorted(terms)) + "\n", k)
    return files


def tree_text(rng: random.Random, edges: int) -> str:
    """A random tree on ``edges + 1`` shuffled names as a flat 2-DNF."""
    names = [f"t{i}" for i in range(edges + 1)]
    rng.shuffle(names)
    pairs = [(names[rng.randrange(i)], names[i]) for i in range(1, edges + 1)]
    rng.shuffle(pairs)
    return " | ".join(f"{a}&{b}" for a, b in pairs) + "\n"


def read_once_terms(rng: random.Random, names: list[str], conj: bool = False) -> list[list[str]]:
    """The DNF terms of a random monotone read-once formula over ``names``
    whose conjunctions hold one or two variables and one disjunction, so
    that the DNF stays about as long as the formula."""
    if len(names) == 1:
        return [names]
    if conj:
        lead = rng.randint(1, min(2, len(names) - 1))
        return [names[:lead] + t for t in read_once_terms(rng, names[lead:])]
    cuts = sorted(rng.sample(range(1, len(names)), rng.randint(2, min(4, len(names))) - 1))
    return [t for a, b in zip([0, *cuts], [*cuts, len(names)])
            for t in read_once_terms(rng, names[a:b], True)]


def large(rng: random.Random) -> dict[str, str]:
    """Header-less files past the table cap, by name."""
    names = [f"f{i}" for i in range(400)]
    rng.shuffle(names)
    terms = read_once_terms(rng, names)
    rng.shuffle(terms)
    return {"tree300": tree_text(rng, 300),
            "factor400": " | ".join("&".join(t) for t in terms) + "\n"}


# Acyclic detector inputs: the lowest component, the path a-b-c, has no special
# root, and the path p-q-r-s is rooted at q, which is not special, so its
# witness is rooted at p; a forest with the free variable f; and a triangle
# after a 21-vertex path, which the detector rejects and the search, past the
# cap, cannot take.
FORESTS = {"forest-later-root": "vars: a b c q p r s\n(a&b)|(b&c)|(p&q)|(q&r)|(r&s)\n",
           "forest-free": "vars: a b c d e f\n(a&b)|(b&c)|(d&e)\n",
           "path-and-triangle": " | ".join(f"x{i}&x{i + 1}" for i in range(20))
                                + " | t0&t1 | t1&t2 | t2&t0\n"}

# A forest whose header is out of alphabetical order, with the singleton
# terms t and e and the free variable f: an order of names in place of
# positions, or a singleton taken for a free variable, changes the witness.
MIXED_FOREST = "vars: t r f q a s b c p e\n(a&b)|(b&c)|(p&q)|(q&r)|(r&s)|t|e\n"

# Monotone inputs written with negations that simplify away (``!!a``,
# ``!(1 & !a)``, ``!0``), and one whose negation stays, so that the negation
# pre-pass of the DNF expansion is compared; the last is written as a DNF by
# ``prov to-db``.
NEGATED = {"negated-double": "!!a & b\n",
           "negated-constant": "!(1 & !a) | c\n",
           "negated-zero": "!0 & a\n",
           "negated-members": "vars: d c b a\n!!(a & b) | c & !0\n!(0 | !d)\n",
           "negated-absorbed": "a & !1 | b & !!c | !(!a | 0)\n",
           "negated-left": "!(!a | !b) | c\n",
           "negated-to-db": "vars: e d c b a\n!!(a & b) | !(1 & !(c & d)) | e & !0\n"}

# ``prov eval`` queries on the shipped fixture database, so that a selection
# over a join is compared on its rows and on its per-row error: companies
# with founders from U. Melbourne or acquired from 2018 on, and an education
# year compared with a string.
PROV_QUERIES = {
    "union-query": {"op": "union", "inputs": [
        {"op": "project", "columns": ["r.Organization"], "input": {
            "op": "select",
            "pred": [{"atom": "contains_ci", "col": "r.Role", "value": "found"},
                     {"lhs": {"col": "e.Institute"}, "op": "=",
                      "rhs": {"lit": "U. Melbourne"}}],
            "input": {"op": "join", "on": [["r.Member", "e.Alumni"]],
                      "left": {"op": "scan", "relation": "Roles", "alias": "r"},
                      "right": {"op": "scan", "relation": "Education", "alias": "e"}}}},
        {"op": "project", "columns": ["r.Organization"], "input": {
            "op": "select",
            "pred": [{"lhs": {"col": "a.Date"}, "op": ">=", "rhs": {"lit": "2018-01-01"}}],
            "input": {"op": "join", "on": [["a.Acquired", "r.Organization"]],
                      "left": {"op": "scan", "relation": "Acquisitions", "alias": "a"},
                      "right": {"op": "scan", "relation": "Roles", "alias": "r"}}}}]},
    "type-mismatch-query": {
        "op": "select",
        "pred": [{"lhs": {"col": "e.Year"}, "op": ">=", "rhs": {"lit": "2017"}}],
        "input": {"op": "join", "on": [["r.Member", "e.Alumni"]],
                  "left": {"op": "scan", "relation": "Roles", "alias": "r"},
                  "right": {"op": "scan", "relation": "Education", "alias": "e"}}},
}

# ``prov eval`` on seeded databases of the fixture's schema, scaled up
PROV_DATABASES = 3
COMPANIES = [f"C{i}" for i in range(8)]
PEOPLE = [f"P{i}" for i in range(10)]
ROLES = ("Founder", "Co-founder", "Founding member", "CTO")
INSTITUTES = ("U. Melbourne", "U. Sau Paolo", "U. Cape Town")


def fixture_schema_db(rng: random.Random) -> str:
    """A database of the fixture's three relations, scaled up.  Values come
    from small pools and about a third of the rows repeat an earlier row of
    their relation, so scans and projections merge rows and joins get
    inputs of several terms."""
    def rows(count, make):
        out = []
        for _ in range(count):
            out.append(rng.choice(out) if out and rng.random() < 0.3 else make())
        return out

    def date():
        return f"{rng.randint(2014, 2021)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"

    relations = [
        ("Acquisitions", ["Acquired", "Acquiring", "Date"], "a",
         rows(14, lambda: [rng.choice(COMPANIES), rng.choice(COMPANIES), date()])),
        ("Education", ["Alumni", "Institute", "Year"], "e",
         rows(24, lambda: [rng.choice(PEOPLE), rng.choice(INSTITUTES),
                           rng.randint(2005, 2020)])),
        ("Roles", ["Organization", "Role", "Member"], "r",
         rows(30, lambda: [rng.choice(COMPANIES), rng.choice(ROLES), rng.choice(PEOPLE)]))]
    return json.dumps({"relations": [
        {"name": name, "columns": columns,
         "tuples": [{"values": v, "annotation": f"{prefix}{i}"} for i, v in enumerate(tuples)]}
        for name, columns, prefix, tuples in relations]}, indent=1)


# Database documents with two faults each, for ``prov eval``: the first in
# document order is reported, except that an arity mismatch is found only
# once its whole relation is read.
_GOOD = {"values": ["C0", "C1", "2019-01-01"], "annotation": "a0"}
_FAULTS = {"bad-annotation": {"values": ["C0", "C1", "2019-01-01"], "annotation": "a b"},
           "number-annotation": {"values": ["C0", "C1", "2019-01-01"], "annotation": 5},
           "float-value": {"values": ["C0", 1.5, "2019-01-01"], "annotation": "a1"},
           "null-value": {"values": ["C0", None, "2019-01-01"], "annotation": "a1"},
           "bool-value": {"values": [True, "C1", "2019-01-01"], "annotation": "a1"},
           "values-not-list": {"values": "C0", "annotation": "a1"},
           "no-values": {"annotation": "a1"},
           "no-annotation": {"values": ["C0", "C1", "2019-01-01"]},
           "not-object": ["C0", "C1", "2019-01-01"],
           "arity": {"values": ["C0", "C1"], "annotation": "a1"}}
FAULT_PAIRS = [("bad-annotation", "float-value"), ("float-value", "bad-annotation"),
               ("number-annotation", "no-values"), ("no-values", "number-annotation"),
               ("null-value", "not-object"), ("not-object", "null-value"),
               ("arity", "bool-value"), ("bool-value", "arity"),
               ("values-not-list", "no-annotation"), ("no-annotation", "values-not-list"),
               ("arity", "arity")]


def malformed_databases() -> dict[str, str]:
    """Database documents with two faults, by name: in one relation, between
    good tuples, and, for each pair, in two relations."""
    docs = {}
    for first, second in FAULT_PAIRS:
        a, b = _FAULTS[first], _FAULTS[second]

        def relation(*tuples):
            return {"name": "Acquisitions", "columns": ["Acquired", "Acquiring", "Date"],
                    "tuples": list(tuples)}
        docs[f"db-{first}-{second}"] = json.dumps(
            {"relations": [relation(_GOOD, a, _GOOD, b)]})
        docs[f"db-{first}-then-relation-{second}"] = json.dumps(
            {"relations": [relation(_GOOD, a), relation(b, _GOOD)]})
    return docs


# Parse errors: positions after comments, tabs and CRLF, a bad character
# after an earlier syntax error, and the header's own errors.  The comment
# inputs put a bad character on a line after a comment, end the text in a
# comment after an operator, hide '@' and '#' in a comment before a syntax
# error, put ';' after a comment, and end a header in a comment before an
# undeclared name.
MALFORMED = {"comment-newline": "a & # c\n", "tab-bad-char": "a\t@",
             "late-bad-char": "a & )\n@", "bad-digit": "vars: a\nb & 2",
             "crlf": "a\r\n& )", "empty-header": "vars:\n",
             "duplicate-header": "vars: a a\n", "extra-token": "a b",
             "empty": "", "unclosed": "((((a",
             "comment-bad-char": "a\n# c\n@", "comment-end": "a | # c",
             "comment-holds-at": "a # c @ #\n)", "comment-semicolon": "a # c\n;",
             "comment-semicolon-error": "a # c\n; )",
             "header-comment-undeclared": "vars: a # c\nb"}

# A well-formed file with comments, CRLF line endings and a ``vars:`` header.
COMMENTED = ("# heading\r\nvars: b a c # the order\r\n\r\n"
             "(a & b) | !c # first\r\n#\r\nb | c ; a & c\r\n# the end")


def run(checkout: Path, argv: list[str], cwd: Path,
        overrides: Mapping[str, str] = {}) -> tuple[int, str, str]:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), **overrides)
    done = subprocess.run([sys.executable, "-m", "probedepth", *argv], env=env,
                          capture_output=True, text=True, cwd=cwd)
    return done.returncode, done.stdout, done.stderr


def outcome(checkout: Path, argv: list[str], cwd: Path, written, overrides) -> tuple:
    """Exit code, stdout and stderr of a call with the environment variables
    ``overrides`` set, then the text of each file in ``written`` it left in
    ``cwd`` (``None`` for one it did not write)."""
    return (*run(checkout, argv, cwd, overrides),
            *((cwd / f).read_text(encoding="utf-8") if (cwd / f).exists() else None
              for f in written))


def calls(path: str, answers: str) -> list[list[str]]:
    return [["depth", path, "--json"],
            ["strategy", path, "--out", "json"],
            ["strategy", path, "--out", "json", "--greedy"],
            ["evasive", path],
            ["evasive", path, "--json"],
            ["probe", path, "--answers", answers]]


FAMILIES = ([["family", "psi", str(i)] for i in range(4)]
            + [["family", "path", str(i)] for i in [*range(1, 13), 400]]
            + [["family", kind, str(i)] for kind in ("and", "or") for i in range(1, 6)])


def same_walks(old: str, new: str) -> bool:
    """Do two diagram JSON documents give the same walk on every valuation?
    Walks both in step from their roots, taking both answers at each probe.
    That checks every path; every path is some valuation's walk when no path
    probes a variable twice, which holds for the exact search and greedy
    alike (both probe only unanswered variables)."""
    a, b = json.loads(old), json.loads(new)
    pending, done = [(a["root"], b["root"])], set()
    while pending:
        pair = pending.pop()
        if pair in done:
            continue
        done.add(pair)
        x, y = a["nodes"][pair[0]], b["nodes"][pair[1]]
        if x["kind"] != y["kind"]:
            return False
        if x["kind"] == "leaf":
            if x["labels"] != y["labels"]:
                return False
        elif x["variable"] != y["variable"]:
            return False
        else:
            pending += [(x["true"], y["true"]), (x["false"], y["false"])]
    return True


def shape(doc: str) -> str:
    """A diagram JSON document's node count and, in parentheses, its number
    of dead probes: probe nodes whose two answers lead to the same node."""
    nodes = json.loads(doc)["nodes"]
    dead = sum(n["kind"] == "probe" and n["true"] == n["false"] for n in nodes)
    return f"{len(nodes)} ({dead})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    # the calls run in a work directory, so a relative checkout is resolved
    parser.add_argument("old", type=lambda text: Path(text).resolve())
    parser.add_argument("new", type=lambda text: Path(text).resolve())
    args = parser.parse_args(argv)
    rng = random.Random(SEED)
    differences = total = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        files = corpus(rng)
        # each checkout runs in a directory of its own, where the files it
        # writes go
        for side in ("old", "new"):
            (work / side).mkdir()
        code, psi2, err = run(args.old, ["family", "psi", "2"], work)
        if code != 0:
            print(f"family psi 2 failed in {args.old}: {err.strip()}", file=sys.stderr)
            return 1
        files["psi2"] = psi2
        # (what to report, call, files the call writes, environment overrides)
        runs = [(" ".join(call), call, (), {}) for call in FAMILIES]

        def add(name: str, text: str, make_calls) -> None:
            path = work / f"{name}.txt"
            path.write_text(text, encoding="utf-8", newline="")
            runs.extend((f"{name}: {' '.join(call[:1] + call[2:])}", call, (), {})
                        for call in make_calls(str(path)))

        def answers_for(name: str, text: str) -> str:
            names = text.splitlines()[0].split()[1:]  # each of these has a vars: header
            answers = work / f"{name}.answers.json"
            answers.write_text(json.dumps({n: rng.random() < 0.5 for n in names}))
            return str(answers)

        for name, text in files.items():
            answers = answers_for(name, text)
            add(name, text, lambda path: calls(path, answers))
        wide = wide_exact(random.Random(SEED + 3))
        for family in (["path", "12"], ["psi", "1"]):
            code, text, err = run(args.old, ["family", *family], work)
            if code != 0:
                print(f"family {' '.join(family)} failed in {args.old}: {err.strip()}",
                      file=sys.stderr)
                return 1
            wide["-".join(family)] = text
        for name, text in wide.items():
            answers = answers_for(name, text)
            add(name, text, lambda path: [["strategy", path, "--out", "json"],
                                          ["probe", path, "--answers", answers]])
        # past the default cap, greedy on psi(2) would only be the cap error
        runs.append(("psi2: strategy --out json --greedy with PROBEDEPTH_CAP=22",
                     ["strategy", str(work / "psi2.txt"), "--out", "json", "--greedy"], (),
                     {"PROBEDEPTH_CAP": "22"}))
        for name, text in large(random.Random(SEED + 1)).items():
            add(name, text, lambda path: [["evasive", path], ["evasive", path, "--json"],
                                          ["factor", path]])
        for name, text in FORESTS.items():
            add(name, text, lambda path: [["evasive", path], ["evasive", path, "--json"]])
        add("forest-mixed", MIXED_FOREST,
            lambda path: [["evasive", path], ["evasive", path, "--json"],
                          ["evasive", path, "--method", "acyclic"]])
        for name, text in NEGATED.items():
            add(name, text, lambda path: [["factor", path], ["evasive", path],
                                          ["evasive", path, "--json"]])
        written = ("negated.db.json", "negated.query.json")
        runs += [("negated-to-db: prov to-db --k 2",
                  ["prov", "to-db", "--dnf", str(work / "negated-to-db.txt"), "--k", "2",
                   "--out-db", written[0], "--out-query", written[1]], written, {}),
                 ("negated-to-db: prov eval of to-db",
                  ["prov", "eval", "--db", written[0], "--query", written[1]], (), {})]
        for name, text in MALFORMED.items():
            add(name, text, lambda path: [["depth", path, "--json"], ["evasive", path]])
        add("commented", COMMENTED,
            lambda path: [["depth", path, "--json"], ["strategy", path, "--out", "json"]])
        fixtures = args.old / "src" / "probedepth" / "fixtures"
        for fixture in ("acquisitions_db.json", "founder_institutes_query.json"):
            (work / fixture).write_bytes((fixtures / fixture).read_bytes())
        runs.append(("fixtures: prov eval", ["prov", "eval", "--db",
                     str(work / "acquisitions_db.json"), "--query",
                     str(work / "founder_institutes_query.json")], (), {}))
        for name, query in PROV_QUERIES.items():
            (work / f"{name}.json").write_text(json.dumps(query), encoding="utf-8")
            runs.append((f"{name}: prov eval", ["prov", "eval", "--db",
                         str(work / "acquisitions_db.json"), "--query",
                         str(work / f"{name}.json")], (), {}))
        queries = {"fixture-query": work / "founder_institutes_query.json",
                   "union-query": work / "union-query.json"}
        db_rng = random.Random(SEED + 4)
        for d in range(PROV_DATABASES):
            db = work / f"seeded-db{d}.json"
            db.write_text(fixture_schema_db(db_rng), encoding="utf-8")
            runs.extend((f"seeded-db{d}: prov eval {qname}",
                         ["prov", "eval", "--db", str(db), "--query", str(q)], (), {})
                        for qname, q in queries.items())
        for name, text in malformed_databases().items():
            (work / f"{name}.json").write_text(text, encoding="utf-8")
            runs.append((f"{name}: prov eval", ["prov", "eval", "--db",
                         str(work / f"{name}.json"), "--query",
                         str(queries["fixture-query"])], (), {}))
        for name, (text, k) in monotone_dnfs(random.Random(SEED + 2)).items():
            (work / f"{name}.txt").write_text(text, encoding="utf-8")
            written = (f"{name}.db.json", f"{name}.query.json")
            runs.append((f"{name}: prov to-db --k {k}",
                         ["prov", "to-db", "--dnf", str(work / f"{name}.txt"), "--k", str(k),
                          "--out-db", written[0], "--out-query", written[1]], written, {}))
            runs.append((f"{name}: prov eval of to-db",
                         ["prov", "eval", "--db", written[0], "--query", written[1]], (), {}))
        # inputs nested past the recursion limit, and a negative count
        (work / "deep.json").write_text("[" * 100_000, encoding="utf-8")
        written = ("deep-k.db.json", "deep-k.query.json")
        runs += [("deep answers: probe", ["probe", str(work / "random0.txt"), "--answers",
                                          str(work / "deep.json")], (), {}),
                 ("deep database: prov eval", ["prov", "eval", "--db", str(work / "deep.json"),
                  "--query", str(work / "founder_institutes_query.json")], (), {}),
                 ("dnf-k2-0: prov to-db --k 1000",
                  ["prov", "to-db", "--dnf", str(work / "dnf-k2-0.txt"), "--k", "1000",
                   "--out-db", written[0], "--out-query", written[1]], written, {}),
                 ("crosscheck --trials -1", ["crosscheck", "--max-nodes", "3", "--trials",
                                             "-1"], (), {}),
                 ("dnf-k2-0: prov to-db --k -1",
                  ["prov", "to-db", "--dnf", str(work / "dnf-k2-0.txt"), "--k", "-1",
                   "--out-db", written[0], "--out-query", written[1]], written, {})]
        for label, call, written, overrides in runs:
            total += 1
            old, new = (outcome(checkout, call, work / side, written, overrides)
                        for checkout, side in ((args.old, "old"), (args.new, "new")))
            for what, a, b in zip(("exit code", "stdout", "stderr", *written), old, new):
                if a != b:
                    differences += 1
                    print(f"{label}: {what} differs\n"
                          f"  old: {str(a)[:300]!r}\n  new: {str(b)[:300]!r}")
                    if what == "stdout" and call[0] == "strategy" and old[0] == new[0] == 0:
                        print("  same walk on every valuation: "
                              + ("yes" if same_walks(a, b) else "NO")
                              + f"; nodes (dead probes): {shape(a)} -> {shape(b)}")
    print(f"{total} calls, {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
