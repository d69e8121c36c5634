"""Acceptance suite: one criterion per test, one pass/fail line each.

Each test prints "[PASS]"/"[FAIL] criterion NN: ..." on its own line (run
pytest with -s or read the captured output).  Stated runtime ceilings are
asserted alongside the functional checks.
"""

import random
import time

import reference as ref
from conftest import (
    all_valuations,
    dnf_holds,
    fixture_text,
    possible_worlds_agree,
    random_annotated_db,
    random_cnf_dnf,
    random_monotone_dnf,
    random_read_once_node,
    random_read_once_set,
    random_spju_query,
    single,
)
from probedepth import expr as ex
from probedepth import families, graphdnf, provenance as pv
from probedepth import readonce, strategy, treegen
from probedepth.expr import Expression, ExpressionSet, Valuation, VariableUniverse
from probedepth.strategy import Probe


def report(num: int, description: str, ok: bool):
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] criterion {num:02d}: {description}")
    assert ok, f"criterion {num:02d} failed: {description}"


def test_criterion_01_two_member_example():
    start = time.perf_counter()
    s = single("vars: x y z\nx & y\nx | z\n")
    r = strategy.optimal_depth(s)
    root = r.diagram.nodes[r.diagram.root]
    elapsed = time.perf_counter() - start
    ok = (r.depth == 2 and r.evasive is False
          and isinstance(root, Probe) and root.variable == "x"
          and elapsed < 1.0)
    report(1, "depth({x&y, x|z}) = 2, non-evasive, root probe x, < 1 s", ok)


def test_criterion_02_and_or_evasive():
    start = time.perf_counter()
    ok = True
    for n in range(1, 13):
        for kind in ("and", "or"):
            s = families.generate(families.FamilySpec(kind, n))
            r = strategy.optimal_depth(s)
            ok = ok and r.depth == n and r.evasive
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    report(2, "depth(and(n)) = depth(or(n)) = n for n <= 12, < 30 s", ok)


def test_criterion_03_psi0_depth():
    start = time.perf_counter()
    s = families.generate(families.FamilySpec("psi", 0))
    depth = strategy.optimal_depth(s).depth
    elapsed = time.perf_counter() - start
    ok = depth == 3 and elapsed < 1.0
    report(3, "depth(psi(0)) = 3 = 2k-1 with k=2, < 1 s", ok)


def test_criterion_04_psi1_exact():
    start = time.perf_counter()
    s = families.generate(families.FamilySpec("psi", 1))
    dnf = ex.to_monotone_dnf(s.members[0])
    ok = s.universe.n == 10 and dnf.max_term_size == 3
    ok = ok and strategy.optimal_depth(s).depth == 5
    d = families.psi_strategy(1)
    ok = ok and strategy.diagram_depth(d) == 5
    ok = ok and all(strategy.check_soundness(s, d, v)
                    for v in all_valuations(s.universe))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    report(4, "psi(1): 10 vars, max term 3, exact depth 5, strategy sound "
              "on all 2^10 valuations, < 60 s", ok)


def test_criterion_05_psi2_properties():
    rng = random.Random(5)
    s = families.generate(families.FamilySpec("psi", 2))
    d = families.psi_strategy(2)
    ok = strategy.diagram_depth(d) == 7
    for _ in range(10_000):
        v = Valuation(s.universe, tuple(rng.random() < 0.5
                                        for _ in s.universe.names))
        if not strategy.check_soundness(s, d, v):
            ok = False
            break
    bound = ref.monotone_depth_lower_bound(s.members[0])
    ok = ok and bound == 4
    report(5, "psi(2): strategy depth 7, sound on 10 000 random valuations, "
              "monotone lower bound 4", ok)


def test_criterion_06_detector_oracle_equivalence():
    start = time.perf_counter()
    disagreements = 0
    trees = 0
    for edges in treegen.all_labeled_trees(7):
        g = treegen.tree_graph_dnf(edges, 7)
        dnf = g.to_monotone_dnf()
        fast = graphdnf.decide_evasive_acyclic(dnf, g.universe)
        slow = strategy.is_evasive(
            ExpressionSet(g.universe, (dnf.to_expression(),)))
        trees += 1
        if fast != slow:
            disagreements += 1
    rng = random.Random(6)
    forests = 0
    for _ in range(1000):
        dnf, universe = treegen.random_forest_dnf(rng, max_vars=8)
        fast = graphdnf.decide_evasive_acyclic(dnf, universe)
        slow = strategy.is_evasive(
            ExpressionSet(universe, (dnf.to_expression(),)))
        forests += 1
        if fast != slow:
            disagreements += 1
    elapsed = time.perf_counter() - start
    ok = (trees == 16807 and forests == 1000 and disagreements == 0
          and elapsed < 600.0)
    report(6, "detector agrees with brute force on all 16 807 labeled 7-node "
              "trees and 1000 random forests, < 10 min", ok)


def test_criterion_07_path_divisibility():
    ok = True
    for n in range(1, 16):
        s = families.generate(families.FamilySpec("path", n))
        dnf = ex.to_monotone_dnf(s.members[0])
        combined = ex.MonotoneDnf(s.universe, dnf.terms)
        fast = graphdnf.decide_evasive_acyclic(combined)
        ok = ok and fast == (n % 3 != 0)
        if n <= 9:
            ok = ok and fast == strategy.is_evasive(s)
    report(7, "path(n) non-evasive iff n mod 3 = 0 for n in 1..15, "
              "brute cross-check for n <= 9", ok)


def test_criterion_08_read_once_evasive():
    rng = random.Random(8)
    ok = True
    for _ in range(200):
        s = random_read_once_set(rng, max_vars=10)
        if not strategy.is_evasive(s):
            ok = False
            break
    pairs = 0
    while ok and pairs < 1000:
        n = rng.randint(1, 8)
        universe = VariableUniverse(tuple(f"x{i}" for i in range(n)))
        indices = list(range(n))
        rng.shuffle(indices)
        e = Expression(universe, random_read_once_node(rng, indices))
        x = universe.names[rng.randrange(n)]
        pairs += 1
        good = False
        for value in (True, False):
            r = ref.restrict(e, x, value)
            if (ref.is_read_once(r) and ref.is_non_simplifiable(r)
                    and (n - 1 == 0 or len(r.support()) == n - 1)):
                good = True
                break
        ok = ok and good
    report(8, "200 read-once sets all evasive; induction step holds on "
              "1000 (expression, variable) pairs", ok)


def test_criterion_09_table_reproduction():
    db = pv.load_database(fixture_text("acquisitions_db.json"))
    query = pv.query_from_json(fixture_text("founder_institutes_query.json"))
    result = pv.eval_query(db, query)
    expected = {
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
    got = {values: set(dnf.terms) for values, dnf in result.rows}
    ok = got == expected
    u = db.universe
    # no consent for the two recent acquisitions: no surviving rows
    denied = Valuation.from_dict(u, {n: n not in ("a0", "a1") for n in u.names})
    ok = ok and all(not dnf_holds(dnf, denied) for _, dnf in result.rows)
    # consent only on the first tuple of each relation: one surviving row
    granted = Valuation.from_dict(u, {n: n in ("a0", "r0", "e0") for n in u.names})
    surviving = [values for values, dnf in result.rows if dnf_holds(dnf, granted)]
    ok = ok and surviving == [("A2Bdone", "U. Melbourne")]
    report(9, "fixture query reproduces the four expected rows and both "
              "spot-check valuations", ok)


def test_criterion_10_possible_worlds():
    rng = random.Random(10)
    ok = True
    for _ in range(500):
        db = random_annotated_db(rng)
        query = random_spju_query(rng, db)
        u = db.universe
        v = Valuation(u, tuple(rng.random() < 0.5 for _ in u.names))
        if not possible_worlds_agree(db, query, v):
            ok = False
            break
    report(10, "500 random (database, query, valuation) triples satisfy the "
               "possible-worlds equivalence", ok)


def test_criterion_11_dnf_database_roundtrip():
    rng = random.Random(11)
    ok = True
    for _ in range(100):
        d = random_monotone_dnf(rng, max_vars=8, max_term=3)
        db, query = pv.dnf_to_database(d, 3)
        result = pv.eval_query(db, query)
        if len(result.rows) != 1:
            ok = False
            break
        back = result.rows[0][1]
        if not ref.equivalent(back.to_expression(), d.to_expression()):
            ok = False
            break
    report(11, "100 random monotone 3-DNFs survive the database round trip", ok)


def test_criterion_12_depth_zero_iff_constant():
    rng = random.Random(12)
    ok = True
    for i in range(200):
        e = random_cnf_dnf(rng, conjunctive=(i % 2 == 0))
        s = ExpressionSet(e.universe, (e,))
        depth = strategy.optimal_depth(s).depth
        constant = all(ref.is_constant(m) is not None for m in s.members)
        if (depth == 0) != constant:
            ok = False
            break
    report(12, "200 random 3-CNF/3-DNF instances: depth 0 iff constant", ok)


def test_criterion_13_factorization_example():
    db = pv.load_database(fixture_text("acquisitions_db.json"))
    query = pv.query_from_json(fixture_text("founder_institutes_query.json"))
    result = pv.eval_query(db, query)
    u = db.universe
    first = result.rows[0][1]
    factored = readonce.factor_read_once(first)
    target = ex.parse_expressions(
        "vars: " + " ".join(u.names) +
        "\na0 & ((r0&e0)|(r1&e1)|(r2&e3))\n").members[0]
    ok = (factored is not None and ref.is_read_once(factored)
          and ref.equivalent(factored, target))
    members = tuple(dnf.to_expression() for _, dnf in result.rows)
    middle = ExpressionSet(u, (members[1], members[2]))
    ok = ok and ref.is_overall_read_once(middle)
    ok = ok and not ref.is_overall_read_once(ExpressionSet(u, members))
    report(13, "first fixture annotation factors read-once to the expected "
               "form; rows 2-3 are overall read-once, the full set is not", ok)
