"""Unit and property tests for read-once analysis and factorization."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from conftest import (
    evasive_by_read_once_reference,
    naive_depth,
    nested_read_once_dnf,
    random_monotone_dnf,
    random_read_once_set,
    recursion_limit,
    single,
)
from probedepth import expr as ex
from probedepth import readonce, strategy
from probedepth.expr import Const, Var, VariableUniverse


@st.composite
def read_once_text(draw, names: list[str], negate: bool) -> str:
    """A read-once formula over ``names``, each used once; with ``negate``,
    any subformula may be negated."""
    if len(names) == 1:
        text = names[0]
    else:
        cut = draw(st.integers(1, len(names) - 1))
        op = draw(st.sampled_from([" & ", " | "]))
        text = (f"({draw(read_once_text(names[:cut], negate))}{op}"
                f"{draw(read_once_text(names[cut:], negate))})")
    if negate and draw(st.booleans()):
        text = "!" + text
    return text


@st.composite
def candidate_sets(draw):
    """Sets of 1-3 read-once members over disjoint parts of up to 6
    variables, as they are or with a shared variable, negation or a
    constant, sometimes with a universe variable that occurs nowhere."""
    n = draw(st.integers(1, 6))
    names = draw(st.permutations([f"x{i}" for i in range(n)]))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=2))) if n > 1 else []
    kind = draw(st.sampled_from(["read_once", "shared", "negation", "constant"]))
    members = [draw(read_once_text(names[a:b], kind == "negation"))
               for a, b in zip([0, *cuts], [*cuts, n])]
    i = draw(st.integers(0, len(members) - 1))
    op = draw(st.sampled_from([" & ", " | "]))
    if kind == "shared":
        members[i] = f"({members[i]}{op}{draw(st.sampled_from(names))})"
    elif kind == "constant":
        members[i] = f"({members[i]}{op}{draw(st.sampled_from('01'))})"
    universe = [f"x{i}" for i in range(n)] + (["y"] if draw(st.booleans()) else [])
    return ex.parse_expressions(f"vars: {' '.join(universe)}\n" + "\n".join(members) + "\n")


@st.composite
def member_text(draw, names: list[str], negate: bool, depth: int) -> str:
    """A formula over ``names`` that may repeat them, with a constant leaf
    now and then and, with ``negate``, negations."""
    roll = draw(st.integers(0, 9))
    if depth == 0 or roll < 3:
        return draw(st.sampled_from("01")) if roll == 0 else draw(st.sampled_from(names))
    if negate and roll == 3:
        return "!" + draw(member_text(names, negate, depth - 1))
    op = draw(st.sampled_from([" & ", " | "]))
    parts = draw(st.lists(member_text(names, negate, depth - 1), min_size=2, max_size=3))
    return "(" + op.join(parts) + ")"


@st.composite
def mixed_sets(draw):
    """Sets of 1-4 members of up to 5 variables: repeated variables,
    constants and, in about half the sets, negation.  Some members are
    2-DNFs whose terms share variables, read-once only once factored (or
    never, as a path of three edges or a triangle is not).  In about half
    the sets each member has variables of its own, so that more sets get
    as far as factoring every member."""
    count = draw(st.integers(1, 4))
    disjoint = draw(st.booleans())
    pools = [[f"x{m}_{i}" if disjoint else f"x{i}" for i in range(draw(st.integers(1, 5)))]
             for m in range(count)]
    negate = draw(st.booleans())
    members = []
    for names in pools:
        if len(names) > 1 and draw(st.booleans()):  # a 2-DNF: a graph's edges
            terms = draw(st.lists(st.lists(st.sampled_from(names), min_size=2, max_size=2,
                                           unique=True), min_size=2, max_size=5))
            members.append(" | ".join(" & ".join(t) for t in terms))
        else:
            members.append(draw(member_text(names, negate, draw(st.integers(1, 4)))))
    # without a header the universe is the names that occur
    names = sorted(set().union(*pools))
    header = f"vars: {' '.join(names)}\n" if draw(st.booleans()) else ""
    return ex.parse_expressions(header + "\n".join(members) + "\n")


class TestChecks:
    def test_is_read_once(self):
        assert ref.is_read_once(single("(a&b)|c").members[0])
        assert not ref.is_read_once(single("(a&b)|(a&c)").members[0])

    def test_overall_read_once_across_members(self):
        s = single("a & b\nc | d\n")
        assert ref.is_overall_read_once(s)
        shared = single("a & b\na | c\n")
        assert not ref.is_overall_read_once(shared)

    def test_non_simplifiable(self):
        assert ref.is_non_simplifiable(single("a & b").members[0])
        assert ref.is_non_simplifiable(single("0").members[0])
        assert not ref.is_non_simplifiable(single("a & 1").members[0])


class TestEvasiveByReadOnce:
    def test_direct_positive(self):
        assert readonce.evasive_by_read_once(single("(a&b)|c")) is True

    def test_uncovered_universe_inconclusive(self):
        assert readonce.evasive_by_read_once(single("vars: a b c\na & b")) is None

    def test_factored_positive(self):
        # (a&b)|(a&c) is not read-once as written but factors to a&(b|c)
        assert readonce.evasive_by_read_once(single("(a&b)|(a&c)")) is True

    def test_unfactored_inconclusive(self):
        # each member covers its variables once it is factored, but the
        # triangle does not factor
        assert readonce.evasive_by_read_once(single("(a&b)|(b&c)|(c&a)\nd")) is None
        assert readonce.evasive_by_read_once(single("(a&b)|(b&c)\nd")) is True

    def test_inconclusive_is_never_false(self, rng):
        for _ in range(30):
            s = random_read_once_set(rng, max_vars=6)
            assert readonce.evasive_by_read_once(s) in (True, None)

    def test_true_implies_evasive(self, rng):
        confirmed = 0
        for _ in range(60):
            s = random_read_once_set(rng, max_vars=8)
            verdict = readonce.evasive_by_read_once(s)
            if verdict is True:
                confirmed += 1
                assert strategy.is_evasive(s)
        assert confirmed > 0

    @settings(max_examples=150, deadline=None)
    @given(candidate_sets())
    def test_true_is_sound(self, s):
        verdict = readonce.evasive_by_read_once(s)
        assert verdict in (True, None)
        if verdict:
            assert naive_depth(s) == s.n

    @settings(max_examples=300, deadline=None)
    @given(mixed_sets())
    def test_verdict_matches_reference(self, s):
        assert readonce.evasive_by_read_once(s) is evasive_by_read_once_reference(s)

    def test_induction_step(self, rng):
        # one restriction stays non-simplifiable read-once on n-1 variables
        for _ in range(100):
            s = random_read_once_set(rng, max_vars=8)
            if len(s.members) > 1:
                continue
            e = s.members[0]
            x = s.universe.names[rng.randrange(s.n)]
            ok = False
            for value in (True, False):
                r = ref.restrict(e, x, value)
                if not ref.is_read_once(r):
                    continue
                if not ref.is_non_simplifiable(r):
                    continue
                if s.n - 1 == 0 or len(r.support()) == s.n - 1:
                    ok = True
                    break
            assert ok, f"{e} restricted on {x}"


class TestFactorization:
    def factor(self, text):
        return readonce.factor_read_once(ex.to_monotone_dnf(single(text).members[0]))

    def test_common_variable(self):
        f = self.factor("(a&b)|(a&c)")
        assert f is not None
        assert ref.is_read_once(f)
        assert ref.equivalent(f, single("(a&b)|(a&c)").members[0])

    def test_component_split(self):
        f = self.factor("(a&b)|(c&d)")
        assert f is not None and ref.is_read_once(f)

    def test_constants(self):
        u = VariableUniverse(("a",))
        false_dnf = ex.MonotoneDnf(u, frozenset())
        true_dnf = ex.MonotoneDnf(u, frozenset([frozenset()]))
        assert readonce.factor_read_once(false_dnf).root == Const(False)
        assert readonce.factor_read_once(true_dnf).root == Const(True)

    def test_irreducible_returns_none(self):
        # connected, no common variable: the recursion gives up
        assert self.factor("(a&b)|(b&c)|(c&a)") is None

    def test_success_is_sound(self, rng):
        from conftest import random_monotone_dnf
        successes = 0
        for _ in range(80):
            d = random_monotone_dnf(rng, max_vars=6)
            f = readonce.factor_read_once(d)
            if f is None:
                continue
            successes += 1
            assert ref.is_read_once(f)
            assert ref.equivalent(f, d.to_expression())
        assert successes > 0

    def test_factored_form_holds_each_dnf_variable_once(self, rng):
        dnfs = [random_monotone_dnf(rng, max_vars=7) for _ in range(80)]
        for _ in range(40):  # DNFs of read-once formulas always factor
            s = random_read_once_set(rng, max_vars=8)
            for m in s.members:
                if not m._negated:
                    dnfs.append(ex.to_monotone_dnf(m))
        factored = 0
        for d in dnfs:
            f = readonce.factor_read_once(d)
            if f is None:
                continue
            factored += 1
            nodes = list(ex.walk(f.root))
            names = Counter(d.universe.names[n.index] for n in nodes if type(n) is Var)
            assert names == Counter(d.variables())
            assert not any(type(n) is Const for n in nodes[1:])
        assert factored > 60

    def test_deep_nesting_is_expr_error(self):
        # the factored form is 120 levels deep, each two frames of the
        # recursion; past the default limit this input takes long to build
        d = ex.to_monotone_dnf(single(nested_read_once_dnf(120)).members[0])
        with recursion_limit(150):
            with pytest.raises(ex.NestingTooDeep, match="nested too deeply to factor"):
                readonce.factor_read_once(d)
        f = readonce.factor_read_once(d)  # at the default limit it factors
        assert f is not None and ref.is_read_once(f)
