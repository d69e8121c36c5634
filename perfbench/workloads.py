"""The benchmark's four workloads.

Each builder takes the freshly imported library (``pd``), the workload seed
and a scratch directory, generates its inputs from the seed alone, writes
them, and returns the operations one pass asks in order.  An operation's
``call`` is what the closed loop times; its ``check`` runs afterwards, once
per operation, on the first result.

Why these four:

- ``deep_search``: exact minimax search is more than 99% of the time and its
  memo sets peak memory (CLI ``depth``, ``strategy`` and ``evasive``).
- ``many_small``: thousands of searches over at most 8 variables, dominated by
  per-call set-up, so work added to every search call shows here as a loss.
- ``provenance_rows``: SPJU evaluation of the fixture query and a union
  query over seeded databases, then per-row read-once and depth analysis.
- ``beyond_cap``: universes too large for exact search -- the acyclic
  detector, greedy diagrams and read-once factoring, where search does
  nothing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks as ck
from checks import expect


@dataclass
class CliResult:
    code: int
    out: str
    err: str


@dataclass
class Op:
    id: str
    call: Callable[[], object]
    check: Callable[[object], dict]  # raises WrongAnswer; returns exact counts
    canon: Callable[[object], object] = lambda r: r  # compared across passes
    cli: bool = False


@dataclass
class Workload:
    ops: list[Op]
    digest: str  # sha256 of every generated input
    probes: tuple[Op, ...] = ()  # known user-path defects, run untimed


def run_cli(pd, argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pd.cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def cli_op(pd, op_id: str, argv: list[str], check) -> Op:
    return Op(op_id, lambda: run_cli(pd, argv), check,
              canon=lambda r: (r.code, r.out), cli=True)


class Inputs:
    """Writes generated inputs and hashes them in order."""

    def __init__(self, work: Path):
        self.work = work
        self.hash = hashlib.sha256()
        work.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, text: str) -> str:
        path = self.work / name
        path.write_text(text, encoding="utf-8")
        self.hash.update(name.encode() + b"\0" + text.encode() + b"\0")
        return str(path)

    def note(self, data: str):
        self.hash.update(data.encode() + b"\0")


def expr_file(names: list[str], members: list) -> str:
    return "vars: " + " ".join(names) + "\n" + "".join(ck.fmt(m) + "\n" for m in members)


def support(names: list[str], members: list) -> list[str]:
    used = {v for m in members for v in ck.variables(m)}
    return [v for v in names if v in used]


def verified_depth(pd, s, d: int):
    """The exact depth is ``d``: depth d is achievable and d - 1 is not."""
    expect(pd.strategy.decide_depth_at_most(s, d), f"depth {d} is not achievable")
    expect(d == 0 or not pd.strategy.decide_depth_at_most(s, d - 1),
           f"depth {d - 1} already suffices")


# --- seeded generators --------------------------------------------------------

def tree_edges(rng: random.Random, names: list[str]) -> list[tuple[str, str]]:
    """A uniformly random labeled tree on ``names`` via a Prüfer sequence."""
    n = len(names)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = degree.index(1)
        edges.append((names[leaf], names[v]))
        degree[leaf] -= 1
        degree[v] -= 1
    last = [i for i in range(n) if degree[i] == 1]
    edges.append((names[last[0]], names[last[1]]))
    return edges


def cyclic_2dnf(rng, names, extra: int):
    """Spanning tree plus ``extra`` chords: a cyclic monotone 2-DNF using
    every variable."""
    edges = {frozenset(e) for e in tree_edges(rng, names)}
    while len(edges) < len(names) - 1 + extra:
        edges.add(frozenset(rng.sample(names, 2)))
    return ck.dnf_node(edges)


def dnf3(rng, names, count: int):
    """A monotone 3-DNF of ``count`` distinct terms covering every variable."""
    order = names[:]
    rng.shuffle(order)
    terms = {frozenset(order[i:i + 3] if i + 3 <= len(order) else order[-3:])
             for i in range(0, len(order), 3)}
    while len(terms) < count:
        terms.add(frozenset(rng.sample(names, 3)))
    return ck.dnf_node(terms)


def read_once(rng, names, op: str):
    """A random read-once formula: every variable occurs once, so each one
    matters; leaves are negated with probability 0.4 when ``op`` allows."""
    if len(names) == 1:
        return ("n", ("v", names[0])) if rng.random() < 0.4 else ("v", names[0])
    k = rng.randint(2, min(3, len(names)))
    cuts = sorted(rng.sample(range(1, len(names)), k - 1))
    parts = [names[a:b] for a, b in zip([0] + cuts, cuts + [len(names)])]
    other = "o" if op == "a" else "a"
    return (op, [read_once(rng, p, other) for p in parts])


def factorable(rng, names, op: str = "o"):
    """A random monotone read-once formula in the shape the library's
    factoring procedure handles: each conjunction is a few variables and at
    most one disjunction."""
    if len(names) == 1:
        return ("v", names[0])
    if op == "a":
        lead = rng.randint(1, min(2, len(names) - 1))
        return ("a", [("v", v) for v in names[:lead]] + [factorable(rng, names[lead:], "o")])
    k = rng.randint(2, min(4, len(names)))
    cuts = sorted(rng.sample(range(1, len(names)), k - 1))
    parts = [names[a:b] for a, b in zip([0] + cuts, cuts + [len(names)])]
    return ("o", [factorable(rng, p, "a") for p in parts])


# --- deep_search ------------------------------------------------------------------

# Support size and number per kind of the seeded instances.  Many cheap
# instances rather than a few dear ones keep the median and tail answer from
# moving with the cost of one drawn instance.
DEEP_VARS = 9
DEEP_PER_KIND = 8


def fixture_rows(pd):
    """Whole-result row set of the shipped fixture query: one member per row,
    over the live annotation variables."""
    fixtures = Path(pd.provenance.__file__).parent / "fixtures"
    db = pd.provenance.load_database((fixtures / "acquisitions_db.json").read_text())
    q = pd.provenance.query_from_json(
        (fixtures / "founder_institutes_query.json").read_text())
    result = pd.provenance.eval_query(db, q)
    live = {v for _, dnf in result.rows for t in dnf.terms for v in t}
    names = [v for v in db.universe.names if v in live]
    return names, [ck.dnf_node(dnf.terms) for _, dnf in result.rows]


def deep_search(pd, seed: int, work: Path) -> Workload:
    rng = random.Random(seed)
    inputs = Inputs(work)
    texts = {"fixture": expr_file(*fixture_rows(pd))}
    for kind, param in (("path", 10), ("psi", 1)):
        s = pd.families.generate(pd.families.FamilySpec(kind, param))
        texts[f"{kind}{param}"] = pd.expr.format_expression_set(s)
    names = [f"v{i}" for i in range(DEEP_VARS)]
    generated = {}
    for i in range(DEEP_PER_KIND):
        generated[f"cyclic2-{i}"] = [cyclic_2dnf(rng, names, extra=2 + i % 3)]
    for i in range(DEEP_PER_KIND):
        generated[f"dnf3-{i}"] = [dnf3(rng, names, count=5 + i % 3)]
    for i in range(DEEP_PER_KIND):
        order = names[:]
        rng.shuffle(order)
        generated[f"negated-{i}"] = [read_once(rng, order[:6], "o"),
                                     read_once(rng, order[4:], "a")]
    for key, members in generated.items():
        order = names[:]
        rng.shuffle(order)  # the header order is the search's variable order
        texts[key] = expr_file(order, members)

    ops = []
    for inst, text in texts.items():
        path = inputs.write(f"{inst}.txt", text)
        names_i, members = ck.parse_file(text)
        lib_set = pd.expr.parse_expressions(text)
        closed = {"path10": ("path", 10), "psi1": ("psi", 1)}.get(inst)

        def check_depth(r, names_i=names_i, s=lib_set, closed=closed):
            doc = json.loads(r.out)
            d, n = doc["depth"], len(names_i)
            expect(doc["n"] == n and doc["evasive"] == (d == n), f"inconsistent report {doc}")
            verified_depth(pd, s, d)
            if closed == ("psi", 1):
                expect(d == 2 * 1 + 3, "psi(k) must have depth 2k+3")
            if closed == ("path", 10):
                expect(doc["evasive"] == (10 % 3 != 0), "path(n) is evasive iff n mod 3 != 0")
            return {}

        def check_strategy(r, names_i=names_i, members=members, s=lib_set):
            nodes, root = ck.diagram_from_json(json.loads(r.out))
            sup = support(names_i, members)
            d = ck.check_diagram(nodes, root, sup, ck.tables(sup, members))
            verified_depth(pd, s, d)
            return {}

        def check_evasive(r, names_i=names_i, s=lib_set, closed=closed):
            evasive = r.out.split()[0] == "evasive=true"
            expect(evasive == (not pd.strategy.decide_depth_at_most(s, len(names_i) - 1)),
                   "evasiveness differs from the depth decision")
            if closed == ("path", 10):
                expect(evasive == (10 % 3 != 0), "path(n) is evasive iff n mod 3 != 0")
            return {}

        ops.append(cli_op(pd, f"{inst}:depth", ["depth", path, "--json"], check_depth))
        if inst != "fixture":  # 4-5 s per call; its depth op already covers it
            ops.append(cli_op(pd, f"{inst}:strategy", ["strategy", path, "--out", "json"],
                              check_strategy))
        ops.append(cli_op(pd, f"{inst}:evasive", ["evasive", path], check_evasive))
    return Workload(ops, inputs.hash.hexdigest())


# --- many_small -------------------------------------------------------------------

TREE_NODES = 6  # every labeled tree up to this many nodes: 1442 trees
FORESTS_PER_SIZE = 100  # random forests on exactly 1, 2, ..., 8 variables


def many_small(pd, seed: int, work: Path) -> Workload:
    rng = random.Random(seed)
    inputs = Inputs(work)
    cases = []
    for n in range(1, TREE_NODES + 1):
        for k, edges in enumerate(list(pd.treegen.all_labeled_trees(n))):
            g = pd.treegen.tree_graph_dnf(edges, n)
            cases.append((f"tree{n}-{k}", g.to_monotone_dnf(), g.universe))
    # A fixed quota per size keeps the cost of a pass from varying with the
    # seed through how many large forests were drawn.
    quota = dict.fromkeys(range(1, 9), FORESTS_PER_SIZE)
    while any(quota.values()):
        dnf, universe = pd.treegen.random_forest_dnf(rng, max_vars=8)
        if quota[universe.n]:
            quota[universe.n] -= 1
            cases.append((f"forest{universe.n}-{quota[universe.n]}", dnf, universe))

    def agree(r):
        expect(r[0] == r[1], f"detector says {r[0]}, brute force says {r[1]}")
        return {}

    ops = []
    for case_id, dnf, universe in cases:
        inputs.note(f"{case_id} {universe.names} {sorted(map(sorted, dnf.terms))}")
        oracle = pd.expr.ExpressionSet(universe, (dnf.to_expression(),))

        def call(dnf=dnf, universe=universe, oracle=oracle):
            return (pd.graphdnf.decide_evasive_acyclic(dnf, universe),
                    pd.strategy.is_evasive(oracle))

        ops.append(Op(case_id, call, agree))
    return Workload(ops, inputs.hash.hexdigest())


# --- provenance_rows -----------------------------------------------------------------

DATABASES = 8
COMPANIES = 70  # per database, with 5.25 tuples per company
WORLD_SAMPLES = 3
ROLES = ("Founder", "Co-founder", "Founding member", "CTO", "CEO", "Advisor")
INSTITUTES = tuple(f"Institute {i}" for i in range(8))

# companies founded by Institute 0 alumni, or acquired from 2018 on
UNION_QUERY = {"op": "union", "inputs": [
    {"op": "project", "columns": ["r.Organization"], "input": {
        "op": "select",
        "pred": [{"atom": "contains_ci", "col": "r.Role", "value": "found"},
                 {"lhs": {"col": "e.Institute"}, "op": "=", "rhs": {"lit": INSTITUTES[0]}}],
        "input": {"op": "join", "on": [["r.Member", "e.Alumni"]],
                  "left": {"op": "scan", "relation": "Roles", "alias": "r"},
                  "right": {"op": "scan", "relation": "Education", "alias": "e"}}}},
    {"op": "project", "columns": ["r.Organization"], "input": {
        "op": "select",
        "pred": [{"lhs": {"col": "a.Date"}, "op": ">=", "rhs": {"lit": "2018-01-01"}}],
        "input": {"op": "join", "on": [["a.Acquired", "r.Organization"]],
                  "left": {"op": "scan", "relation": "Acquisitions", "alias": "a"},
                  "right": {"op": "scan", "relation": "Roles", "alias": "r"}}}},
]}


def annotated_db(rng: random.Random) -> dict:
    """The fixture's three-relation schema, scaled up.  Relation sizes are
    fixed and only the contents are seeded, so the joins' cost does not vary
    with the seed."""
    people = [f"P{i}" for i in range(COMPANIES * 3 // 2)]
    acq, roles, edu = [], [], []
    for c in range(COMPANIES):
        name = f"C{c}"
        for _ in range((1, 1, 2, 0)[c % 4]):
            date = f"{rng.randint(2010, 2022)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
            acq.append([name, f"C{rng.randrange(COMPANIES)}", date])
        for _ in range(2):
            roles.append([name, rng.choice(ROLES), rng.choice(people)])
    for i, p in enumerate(people):
        for _ in range(1 + i % 2):
            edu.append([p, rng.choice(INSTITUTES), rng.randint(1995, 2020)])

    def relation(name, columns, rows, prefix):
        return {"name": name, "columns": columns,
                "tuples": [{"values": v, "annotation": f"{prefix}{i}"}
                           for i, v in enumerate(rows)]}

    return {"relations": [relation("Acquisitions", ["Acquired", "Acquiring", "Date"], acq, "a"),
                          relation("Education", ["Alumni", "Institute", "Year"], edu, "e"),
                          relation("Roles", ["Organization", "Role", "Member"], roles, "r")]}


@dataclass
class RowAnswer:
    db: object
    query: object
    rows: list  # (values, terms, names, read-once verdict, factored, DepthReport)


def analyse(pd, db_path: str, query_path: str) -> RowAnswer:
    with open(db_path, encoding="utf-8") as fh:
        db = pd.provenance.load_database(fh.read())
    with open(query_path, encoding="utf-8") as fh:
        q = pd.provenance.query_from_json(fh.read())
    rows = []
    for values, dnf in pd.provenance.eval_query(db, q).rows:
        universe = pd.expr.VariableUniverse(dnf.variables())
        row_dnf = pd.expr.MonotoneDnf(universe, dnf.terms)
        s = pd.expr.ExpressionSet(universe, (row_dnf.to_expression(),))
        rows.append((values, dnf.terms, universe.names, pd.readonce.evasive_by_read_once(s),
                     pd.readonce.factor_read_once(row_dnf), pd.strategy.optimal_depth(s)))
    return RowAnswer(db, q, rows)


def row_canon(r: RowAnswer):
    return tuple((values, tuple(sorted(map(sorted, terms))), ro, str(factored), rep.depth)
                 for values, terms, _, ro, factored, rep in r.rows)


def provenance_rows(pd, seed: int, work: Path) -> Workload:
    rng = random.Random(seed)
    inputs = Inputs(work)
    fixtures = Path(pd.provenance.__file__).parent / "fixtures"
    queries = {"fixture": inputs.write(
                   "fixture_query.json",
                   (fixtures / "founder_institutes_query.json").read_text()),
               "union": inputs.write("union_query.json", json.dumps(UNION_QUERY, indent=2))}
    ops = []
    for d in range(DATABASES):
        db_path = inputs.write(f"db{d}.json", json.dumps(annotated_db(rng), indent=1))
        for qname, q_path in queries.items():
            world_seed = rng.randrange(1 << 30)

            def check(r, world_seed=world_seed):
                wrng = random.Random(world_seed)
                universe = r.db.universe
                for _ in range(WORLD_SAMPLES):
                    values = tuple(wrng.random() < 0.7 for _ in universe.names)
                    truth = dict(zip(universe.names, values))
                    world = pd.provenance.possible_world(
                        r.db, pd.expr.Valuation(universe, values))
                    got = {v for v, _ in pd.provenance.eval_query(world, r.query).rows}
                    want = {v for v, terms, *_ in r.rows
                            if any(all(truth[x] for x in t) for t in terms)}
                    expect(got == want, "row annotations disagree with a possible world")
                for values, terms, names, ro, factored, rep in r.rows:
                    member = ck.dnf_node(terms)
                    names = list(names)
                    d = ck.check_diagram(*ck.diagram_from_library(rep.diagram), names,
                                         ck.tables(names, [member]))
                    expect(d == rep.depth, f"diagram depth {d} != reported {rep.depth}")
                    s = pd.expr.parse_expressions(expr_file(names, [member]))
                    verified_depth(pd, s, rep.depth)
                    expect(ro is None or (ro and rep.depth == len(names)),
                           "read-once shortcut contradicts the exact depth")
                    if factored is not None:
                        ck.check_factored(str(factored), terms)
                return {}

            ops.append(Op(f"db{d}:{qname}",
                          lambda db_path=db_path, q_path=q_path: analyse(pd, db_path, q_path),
                          check, canon=row_canon))
    return Workload(ops, inputs.hash.hexdigest())


# --- beyond_cap ------------------------------------------------------------------------

PATH_EDGES = (300, 301, 302, 304)  # every residue mod 3
# Random trees cost about as much as their size says, and they are the
# majority of a pass, so the median answer falls among them.
TREE_SIZES = tuple(range(200, 351, 10))
# Greedy cost swings up to 3x with the shape and with tie-breaking on the
# header order, so a handful of seeded sets made a pass's cost swing with the
# seed.  Each set is a 7-cycle plus a unicyclic 2-DNF on 7 other variables
# (greedy is optimal on the cycle but not always on the other); the shapes
# and header orders are fixed, and the seed draws the variable names.
GREEDY_SETS = 8
GREEDY_PART = 7
GREEDY_SHAPES_SEED = 12345
FACTOR_SETS = 2
FACTOR_VARS = 400


def evasive_check(edges, path_edges=None):
    def check(r):
        expect(r.out.startswith("evasive=") and "method=acyclic" in r.out,
               f"unexpected output {r.out[:80]!r}")
        evasive = r.out.startswith("evasive=true")
        if path_edges is not None:
            expect(evasive == (path_edges % 3 != 0), "path(n) is evasive iff n mod 3 != 0")
        expect(evasive == ck.tree_evasive(edges), "detector disagrees with the pattern definition")
        return {}
    return check


def greedy_check(pd, names, members):
    def check(r):
        nodes, root = ck.diagram_from_json(json.loads(r.out))
        d = ck.check_diagram(nodes, root, names, ck.tables(names, members))
        # members have disjoint supports, so the exact depth is the sum of
        # the members' exact depths
        exact = 0
        for m in members:
            sub = support(names, [m])
            s = pd.expr.parse_expressions(expr_file(sub, [m]))
            part = pd.strategy.optimal_depth(s).depth
            verified_depth(pd, s, part)
            exact += part
        expect(exact <= d <= len(names), f"greedy depth {d} outside [{exact}, {len(names)}]")
        return {"strategy.greedy.depth_excess": d - exact}
    return check


def factor_check(terms):
    def check(r):
        ck.check_factored(r.out.strip(), terms)
        return {}
    return check


def beyond_cap(pd, seed: int, work: Path) -> Workload:
    rng = random.Random(seed)
    inputs = Inputs(work)
    ops = []

    def relabel(n):
        names = [f"x{i}" for i in range(n)]
        rng.shuffle(names)
        return names

    graphs = []
    for n in PATH_EDGES:
        names = relabel(n + 1)
        graphs.append((f"path{n}", n, [(names[i], names[i + 1]) for i in range(n)]))
    for size in TREE_SIZES:
        graphs.append((f"tree{size}", None, tree_edges(rng, relabel(size))))
    for gid, path_edges, edges in graphs:
        rng.shuffle(edges)
        path = inputs.write(f"{gid}.txt", " | ".join(f"{a}&{b}" for a, b in edges) + "\n")
        ops.append(cli_op(pd, f"{gid}:evasive", ["evasive", path],
                          evasive_check(edges, path_edges)))

    shape_rng = random.Random(GREEDY_SHAPES_SEED)
    for k in range(GREEDY_SETS):
        slots = list(range(2 * GREEDY_PART))
        ring, other = slots[:GREEDY_PART], slots[GREEDY_PART:]
        shape = [{frozenset((ring[i], ring[i - 1])) for i in range(GREEDY_PART)},
                 ck.dnf_terms(cyclic_2dnf(shape_rng, other, extra=1))]
        shape_rng.shuffle(slots)  # the header order breaks greedy's ties
        names = relabel(2 * GREEDY_PART)
        header = [names[v] for v in slots]
        members = [ck.dnf_node({frozenset(names[v] for v in t) for t in terms})
                   for terms in shape]
        path = inputs.write(f"greedy{k}.txt", expr_file(header, members))
        ops.append(cli_op(pd, f"greedy{k}:strategy",
                          ["strategy", "--greedy", path, "--out", "json"],
                          greedy_check(pd, header, members)))

    for k in range(FACTOR_SETS):
        terms = ck.dnf_terms(factorable(rng, relabel(FACTOR_VARS)))
        flat = sorted(sorted(t) for t in terms)  # set order varies with string hashing
        rng.shuffle(flat)
        path = inputs.write(f"factor{k}.txt", " | ".join("&".join(t) for t in flat) + "\n")
        ops.append(cli_op(pd, f"factor{k}:factor", ["factor", path], factor_check(terms)))

    # Known defects on the user path, kept as counted failures until fixed:
    # piping `family path 400` into `evasive`, and greedy beyond 20 variables.
    family_path = str(work / "family-path400.txt")

    def piped():
        produced = run_cli(pd, ["family", "path", "400"])
        Path(family_path).write_text(produced.out, encoding="utf-8")
        return run_cli(pd, ["evasive", family_path])

    def piped_check(r):
        expect(r.out.startswith("evasive=true"), "path(400) is evasive (400 mod 3 != 0)")
        return {}

    psi2 = pd.families.generate(pd.families.FamilySpec("psi", 2))
    psi2_text = pd.expr.format_expression_set(psi2)
    psi2_path = inputs.write("psi2.txt", psi2_text)

    def psi2_check(r):
        names, members = ck.parse_file(psi2_text)
        nodes, root = ck.diagram_from_json(json.loads(r.out))
        d = ck.check_diagram(nodes, root, names, ck.tables(names, members))
        expect(d >= 2 * 2 + 3, "psi(k) has depth 2k+3; no diagram is shallower")
        return {}

    probes = (Op("family-path400|evasive", piped, piped_check, cli=True),
              cli_op(pd, "psi2:strategy-greedy",
                     ["strategy", "--greedy", psi2_path, "--out", "json"], psi2_check))
    return Workload(ops, inputs.hash.hexdigest(), probes)


BUILDERS = {"deep_search": deep_search, "many_small": many_small,
            "provenance_rows": provenance_rows, "beyond_cap": beyond_cap}
