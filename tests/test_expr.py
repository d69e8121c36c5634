"""Unit and property tests for the expression core."""

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from conftest import absorb_pairwise, all_valuations, random_expression
from probedepth import expr as ex
from probedepth import readonce, strategy
from probedepth.expr import (
    And,
    Const,
    Expression,
    ExpressionSet,
    MonotoneDnf,
    Not,
    Or,
    Valuation,
    Var,
    VariableUniverse,
)


def parse_one(text: str) -> Expression:
    return ex.parse_expressions(text).members[0]


# --- parsing ----------------------------------------------------------------

class TestParsing:
    def test_header_fixes_universe(self):
        s = ex.parse_expressions("vars: a b c\na | b\n")
        assert s.universe.names == ("a", "b", "c")

    def test_universe_defaults_to_occurrence_order(self):
        s = ex.parse_expressions("b & a\nc | a\n")
        assert s.universe.names == ("b", "a", "c")

    def test_precedence_not_over_and_over_or(self):
        e = parse_one("!a & b | c")
        assert isinstance(e.root, Or)
        left = e.root.children[0]
        assert isinstance(left, And)
        assert isinstance(left.children[0], Not)

    def test_semicolon_and_newline_separators(self):
        s = ex.parse_expressions("a; b\nc")
        assert len(s.members) == 3

    def test_comments_ignored(self):
        s = ex.parse_expressions("# heading\na & b # trailing\n")
        assert len(s.members) == 1

    def test_separator_after_comment(self):
        assert len(ex.parse_expressions("a # c\n;").members) == 1

    def test_constants(self):
        assert parse_one("0").root == Const(False)
        assert parse_one("1 & a").root == And((Const(True), Var(0)))

    def test_undeclared_variable_rejected(self):
        with pytest.raises(ex.ExprError) as info:
            ex.parse_expressions("vars: a\na | b\nc\n")
        assert type(info.value) is ex.ExprError  # not a ParseError
        assert str(info.value) == "variable 'b' not declared in vars header"

    def test_undeclared_after_header_comment(self):
        with pytest.raises(ex.ExprError) as info:
            ex.parse_expressions("vars: a # c\nb")
        assert type(info.value) is ex.ExprError  # not a ParseError
        assert str(info.value) == "variable 'b' not declared in vars header"

    def test_syntax_error_wins_over_undeclared_variable(self):
        with pytest.raises(ex.ParseError) as info:
            ex.parse_expressions("vars: a\nb\na &\n")
        assert info.value.line == 3

    def test_parse_error_carries_position(self):
        with pytest.raises(ex.ParseError) as info:
            ex.parse_expressions("a &\n")
        assert info.value.line == 1

    def test_empty_input_rejected(self):
        with pytest.raises(ex.ParseError):
            ex.parse_expressions("# only a comment\n")

    def test_garbage_rejected(self):
        with pytest.raises(ex.ParseError):
            ex.parse_expressions("a @ b")

    @pytest.mark.parametrize("text, message", [
        # the token after a comment keeps the comment's column
        ("a & # c\n", "1:5: expected expression, found '\\n'"),
        ("a & # c", "1:5: expected expression, found 'end of input'"),
        ("a\t@", "1:3: unexpected character '@'"),
        # a bad character anywhere wins over an earlier syntax error
        ("a & )\n@", "2:1: unexpected character '@'"),
        ("vars: a\nb & 2", "2:5: unexpected character '2'"),
        ("a\r\n& )", "2:1: expected expression, found '&'"),
        ("vars:\n", "2:1: vars header declares no variables"),
        ("vars: a a\n", "1:9: duplicate variable in vars header: 'a'"),
        ("vars: a ; b\na", "1:9: expected variable name or end of header"),
        ("a b", "1:3: unexpected token 'b'"),
        ("vars a\nb", "1:6: unexpected token 'a'"),
        ("", "1:1: empty input: no expressions"),
        ("  # only a comment\n\n", "3:1: empty input: no expressions"),
        ("((((a", "1:6: expected ')'"),
        ("a\n\n  )", "3:3: expected expression, found ')'"),
        ("!", "1:2: expected expression, found 'end of input'"),
        # comments: a bad character on a later line, the end of the text
        # after an operator, a comment holding '@' and '#', and ';' after one
        ("a\n# c\n@", "3:1: unexpected character '@'"),
        ("a | # c", "1:5: expected expression, found 'end of input'"),
        ("a # c @ #\n)", "2:1: expected expression, found ')'"),
        ("a # c\n; )", "2:3: expected expression, found ')'"),
    ])
    def test_parse_error_message(self, text, message):
        with pytest.raises(ex.ParseError) as info:
            ex.parse_expressions(text)
        assert str(info.value) == message

    def test_var_nodes_are_shared(self):
        # one node per index, from the parser, DNF printing and factoring
        a = parse_one("x & y | z")
        b = parse_one("vars: p q\nq")
        dnf = ex.to_monotone_dnf(a)
        factored = readonce.factor_read_once(dnf)
        assert b.root is a.root.children[0].children[1]
        assert dnf.to_expression().root.children[0].children[0] is a.root.children[0].children[0]
        assert factored.root.children[1] is a.root.children[1]

    def test_var_nodes_shared_across_threads(self):
        # threads filling the table at once may each make a node, but every
        # node handed back is the one for its index
        indices = range(10**6, 10**6 + 3000)
        got = []

        def fill():
            got.append([ex.var_node(i) for i in indices])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=fill) for _ in range(4)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers) and len(got) == 4
        assert all([node.index for node in nodes] == list(indices) for nodes in got)

    def test_deep_nesting_is_parse_error(self):
        # the column depends on the stack frames per level; only the text is pinned
        with pytest.raises(ex.ParseError, match=r"^\d+:\d+: expression nested too deeply$"):
            ex.parse_expressions("(" * 5000)


# --- semantics --------------------------------------------------------------

class TestSemantics:
    def test_evaluate_basic(self):
        e = parse_one("(a & b) | !c")
        u = e.universe
        assert ex.evaluate(e, Valuation.from_dict(u, {"a": True, "b": True, "c": True}))
        assert not ex.evaluate(e, Valuation.from_dict(u, {"a": True, "b": False, "c": True}))
        assert ex.evaluate(e, Valuation.from_dict(u, {"a": False, "b": False, "c": False}))

    # restriction, tables, constancy and equivalence are the tests'
    # reference definitions, which the oracle is built on

    def test_restrict_shrinks_universe(self):
        e = parse_one("vars: x y z\n(x&y)|(y&z)")
        r = ref.restrict(e, "y", False)
        assert r.universe.names == ("x", "z")
        assert ref.is_constant(r) is False

    def test_restrict_unknown_variable(self):
        with pytest.raises(ex.ExprError):
            ref.restrict(parse_one("a"), "zzz", True)

    def test_truth_table_bit_order(self):
        # bit i is the value under the little-endian decoding of i
        e = parse_one("vars: a b\na & !b")
        assert ref.truth_table(e) == (("a", "b"), 0b0010)

    def test_truth_table_support_only(self):
        e = parse_one("vars: a b c\na | c")
        assert ref.truth_table(e)[0] == ("a", "c")

    def test_support_cap_enforced(self):
        universe = VariableUniverse(tuple(f"x{i}" for i in range(6)))
        e = Expression(universe, Or(tuple(Var(i) for i in range(6))))
        with pytest.raises(ex.SupportTooLarge, match="^support size 6 exceeds cap 5$"):
            ex.within_cap(e.support_indices(), 5)

    def test_is_constant(self):
        assert ref.is_constant(parse_one("a | !a")) is True
        assert ref.is_constant(parse_one("a & !a")) is False
        assert ref.is_constant(parse_one("a & b")) is None

    def test_equivalent_across_universes(self):
        a = parse_one("vars: x y\nx & y")
        b = parse_one("vars: y x z\n!((!x) | (!y))")
        assert ref.equivalent(a, b)

    def test_deeply_nested_expression_support(self):
        e = _deeply_nested()
        assert e.support() == ("a", "b", "c")
        assert [type(n) for n in ex.walk(e.root)][:3] == [Not, And, Not]

    @pytest.mark.parametrize("call", [
        lambda e: strategy.optimal_depth(ExpressionSet(e.universe, (e,))),
        ref.truth_table,
        lambda e: ex.evaluate(e, Valuation(e.universe, (True, False, True))),
        lambda e: strategy.check_soundness(
            ExpressionSet(e.universe, (e,)),
            strategy.DecisionDiagram((strategy.Leaf((True,)),), 0),
            Valuation(e.universe, (True, False, True))),
        str,
        ex.to_monotone_dnf,
    ], ids=["optimal_depth", "truth_table", "evaluate",
            "check_soundness", "str", "to_monotone_dnf"])
    def test_deeply_nested_expression_is_expr_error(self, call):
        with pytest.raises(ex.NestingTooDeep, match="nested too deeply"):
            call(_deeply_nested())


def _deeply_nested() -> Expression:
    """5000 levels alternating Not and And, built through the API."""
    universe = VariableUniverse(("a", "b", "c"))
    node = Var(0)
    for level in range(5000):
        node = Not(node) if level % 2 else And((node, Var(1 + level % 4 // 2)))
    return Expression(universe, node)


# --- property tests ---------------------------------------------------------

def _expressions(max_vars=6, depth=3):
    @st.composite
    def build(draw):
        seed = draw(st.integers(0, 2**32 - 1))
        rng = random.Random(seed)
        n = rng.randint(1, max_vars)
        universe = VariableUniverse(tuple(f"x{i}" for i in range(n)))
        return Expression(universe, random_expression(rng, universe, depth))
    return build()


@settings(max_examples=100, deadline=None)
@given(_expressions(), st.integers(0, 2**32 - 1))
def test_restriction_commutes(e, seed):
    rng = random.Random(seed)
    if e.universe.n < 2:
        return
    x, y = rng.sample(e.universe.names, 2)
    a, b = rng.random() < 0.5, rng.random() < 0.5
    xy = ref.restrict(ref.restrict(e, x, a), y, b)
    yx = ref.restrict(ref.restrict(e, y, b), x, a)
    assert ref.truth_table(xy) == ref.truth_table(yx)


@settings(max_examples=100, deadline=None)
@given(_expressions())
def test_simplify_preserves_semantics(e):
    s = ref.simplify(e)
    assert ref.equivalent(e, s)
    if not isinstance(s.root, Const):
        assert not any(isinstance(n, Const) for n in ex.walk(s.root))


@settings(max_examples=100, deadline=None)
@given(_expressions())
def test_parse_print_roundtrip(e):
    s = ExpressionSet(e.universe, (e,))
    reparsed = ex.parse_expressions(ex.format_expression_set(s))
    assert reparsed.universe == s.universe
    for before, after in zip(s.members, reparsed.members):
        assert ref.truth_table(before) == ref.truth_table(after)
        assert after.root == before.root


# --- monotone DNF -----------------------------------------------------------

@st.composite
def _term_lists(draw):
    """Term lists with repeats, the empty term now and then, terms nested
    inside other drawn terms, and a hub variable shared by many terms of
    mixed sizes, so that some variables are in far more terms than others."""
    terms = draw(st.lists(st.frozensets(st.sampled_from("abcdef"), max_size=4),
                          max_size=12))
    nested = [frozenset(draw(st.sets(st.sampled_from(sorted(t)))))
              for t in terms if t and draw(st.booleans())]
    repeats = terms[:draw(st.integers(0, len(terms)))]
    spokes = draw(st.integers(0, 60))
    hub = [t | {"h"} for t in draw(st.lists(
        st.frozensets(st.sampled_from("abcdefghijkl"), max_size=4), min_size=spokes,
        max_size=spokes))]
    return draw(st.permutations(terms + nested + repeats + hub))


@settings(max_examples=300, deadline=None)
@given(_term_lists())
def test_absorb_matches_pairwise(terms):
    assert ex.absorb(terms) == absorb_pairwise(terms)
    assert ex.absorb(iter(terms)) == absorb_pairwise(terms)


def test_absorb_hub_matches_pairwise(rng):
    """Hundreds of terms of sizes 1 to 5 around one hub variable, so that
    absorb indexes its shorter terms."""
    spokes = [f"s{i}" for i in range(40)]
    terms = [frozenset(rng.sample(spokes, rng.randint(0, 4))) | {"h"} for _ in range(300)]
    terms += [frozenset(rng.sample(spokes, rng.randint(1, 3))) for _ in range(30)]
    assert ex.absorb(terms) == absorb_pairwise(terms)


def _minimal_true_points(e: Expression) -> frozenset:
    """The terms of the absorbed DNF of a monotone ``e``, read off its truth
    table: the true points with no true point directly below them."""
    names, bits = ref.truth_table(e)
    size = 1 << len(names)

    def true(row: int) -> bool:
        return bool(bits >> row & 1)

    below = [[row ^ (1 << i) for i in range(len(names)) if row >> i & 1]
             for row in range(size)]
    return frozenset(frozenset(name for i, name in enumerate(names) if row >> i & 1)
                     for row in range(size)
                     if true(row) and not any(map(true, below[row])))


@settings(max_examples=300, deadline=None)
@given(_expressions())
def test_expansion_matches_simplify_then_expand(e):
    """Negation-free trees expand unsimplified; the terms, or the error, are
    those of the simplified tree, and the terms are the minimal true points."""
    simple = ref.simplify(e)
    try:
        expected = ex.to_monotone_dnf(simple).terms
    except ex.ExprError as error:
        with pytest.raises(ex.ExprError) as info:
            ex.to_monotone_dnf(e)
        assert str(info.value) == str(error)
        return
    assert ex.to_monotone_dnf(e).terms == expected
    assert expected == _minimal_true_points(simple)


@settings(max_examples=100, deadline=None)
@given(_expressions())
def test_support_is_the_walked_support(e):
    walked = {node.index for node in ex.walk(e.root) if isinstance(node, Var)}
    assert e.support_indices() == tuple(sorted(walked))


@settings(max_examples=300, deadline=None)
@given(_expressions(max_vars=4, depth=6))
def test_stored_counts_are_the_walked_counts(e):
    # the read-once verdict reads these instead of walking the tree again
    assert e._leaves == sum(type(n) is Var for n in ex.walk(e.root))
    assert e._simplifiable is not ref.is_non_simplifiable(e)


@pytest.mark.parametrize("text, leaves, simplifiable", [
    ("0", 0, False), ("1", 0, False), ("!0", 0, True), ("a & 1 | a", 2, True),
    ("!(a | b) & a", 3, False)])
def test_stored_counts(text, leaves, simplifiable):
    # a bare constant is non-simplifiable; a constant below the root is not
    e = parse_one(text)
    assert (e._leaves, e._simplifiable) == (leaves, simplifiable)


class TestMonotoneDnf:
    def test_expansion(self):
        d = ex.to_monotone_dnf(parse_one("vars: a b c\na & (b | c)"))
        assert d.terms == frozenset([frozenset("ab"), frozenset("ac")])

    def test_absorption(self):
        d = ex.to_monotone_dnf(parse_one("a | (a & b)"))
        assert d.terms == frozenset([frozenset("a")])

    def test_negation_rejected(self):
        with pytest.raises(ex.ExprError):
            ex.to_monotone_dnf(parse_one("!a"))

    def test_double_negation_accepted(self):
        d = ex.to_monotone_dnf(parse_one("!!a"))
        assert d.terms == frozenset([frozenset("a")])

    @pytest.mark.parametrize("text, terms", [
        ("!(1 & !a)", {"a"}),
        ("0 & !a", set()),
        ("1 | !a", {""}),
    ])
    def test_negation_simplified_away(self, text, terms):
        d = ex.to_monotone_dnf(parse_one(text))
        assert d.terms == frozenset(frozenset(t) for t in terms)

    def test_negation_left_after_simplifying_rejected(self):
        with pytest.raises(ex.ExprError, match="^expression contains negation; not monotone$"):
            ex.to_monotone_dnf(parse_one("!(a & b)"))

    def test_top_level_terms_absorbed_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(ex, "absorb", lambda terms: calls.append(1) or absorb_pairwise(terms))
        e = parse_one("a&b | a&c&d | e | f&g")
        d = ex.to_monotone_dnf(e)
        assert len(calls) == 1
        assert d == ex.MonotoneDnf(e.universe, d.terms)

    def test_constants(self):
        assert ex.to_monotone_dnf(parse_one("0")).terms == frozenset()
        assert ex.to_monotone_dnf(parse_one("1")).terms == frozenset([frozenset()])

    def test_semantic_equality_random(self, rng):
        for _ in range(50):
            n = rng.randint(1, 5)
            universe = VariableUniverse(tuple(f"x{i}" for i in range(n)))
            # rejection-sample a negation-free expression
            while True:
                node = random_expression(rng, universe)
                e = Expression(universe, node)
                if not any(isinstance(m, Not) for m in ex.walk(node)):
                    break
            d = ex.to_monotone_dnf(e)
            assert not any(a < b for a in d.terms for b in d.terms)
            assert ref.equivalent(e, d.to_expression())

    def test_minimal_transversals(self):
        terms = frozenset([frozenset("ab"), frozenset("bc")])
        assert ref.minimal_transversals(terms) == frozenset([
            frozenset("b"), frozenset("ac")])

    def test_lower_bound_example(self):
        # (a&b)|(b&c): largest implicant 2, largest implicate 2
        assert ref.monotone_depth_lower_bound(parse_one("(a&b)|(b&c)")) == 2


class TestUniverseAndValuation:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ex.ExprError):
            VariableUniverse(("a", "a"))

    @pytest.mark.parametrize("names, message", [
        ((1,), "invalid variable name: 1"),
        (("a", None), "invalid variable name: None"),
        (("",), "invalid variable name: ''"),
        (("a b",), "invalid variable name: 'a b'"),
        (("a", "b c"), "invalid variable name: 'b c'"),
        (("1b",), "invalid variable name: '1b'"),
        (("a", "1b", "a"), "invalid variable name: '1b'"),  # the first bad name wins
        (("a", "a", "1b"), "duplicate variable name: 'a'"),
    ])
    def test_bad_names_rejected(self, names, message):
        with pytest.raises(ex.ExprError) as info:
            VariableUniverse(names)
        assert type(info.value) is ex.ExprError
        assert str(info.value) == message

    def test_valuation_must_be_total(self):
        u = VariableUniverse(("a", "b"))
        with pytest.raises(ex.ExprError):
            Valuation.from_dict(u, {"a": True})

    def test_all_valuations_helper(self):
        u = VariableUniverse(("a", "b"))
        assert len(list(all_valuations(u))) == 4
