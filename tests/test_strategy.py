"""Unit and property tests for the depth search and strategy execution."""

import random

import pytest

from conftest import all_valuations, naive_depth, random_expression, single
from probedepth import expr as ex
from probedepth import strategy
from probedepth.expr import Expression, ExpressionSet, Valuation, VariableUniverse
from probedepth.strategy import DecisionDiagram, Leaf, Probe


class TestExamples:
    def test_two_member_depth_two(self):
        # {x&y, x|z}: one probe of x resolves a member either way
        s = single("vars: x y z\nx & y\nx | z\n")
        report = strategy.optimal_depth(s)
        assert report.depth == 2
        assert report.n == 3
        assert not report.evasive
        root = report.diagram.nodes[report.diagram.root]
        assert isinstance(root, Probe) and root.variable == "x"

    def test_constant_set_depth_zero(self):
        report = strategy.optimal_depth(single("vars: a\n1\n"))
        assert report.depth == 0
        assert isinstance(report.diagram.nodes[report.diagram.root], Leaf)

    def test_and_or_evasive(self):
        for text in ("a & b & c", "a | b | c"):
            report = strategy.optimal_depth(single(text))
            assert report.depth == 3
            assert report.evasive

    def test_free_variable_breaks_evasiveness(self):
        s = single("vars: a b\na\n")
        report = strategy.optimal_depth(s)
        assert report.depth == 1
        assert not report.evasive
        assert not strategy.is_evasive(s)

    def test_depth_at_most(self):
        s = single("a & b & c")
        assert strategy.decide_depth_at_most(s, 3)
        assert not strategy.decide_depth_at_most(s, 2)
        with pytest.raises(strategy.StrategyError):
            strategy.decide_depth_at_most(s, -1)

    def test_universe_cap(self):
        with pytest.raises(strategy.UniverseTooLarge):
            strategy.optimal_depth(single("a & b & c"), cap=2)

    def test_cap_counts_support_not_universe(self):
        # 25 universe variables, but the search tabulates only x0 and x1
        names = " ".join(f"x{i}" for i in range(25))
        report = strategy.optimal_depth(single(f"vars: {names}\nx0 & x1\n"))
        assert report.depth == 2
        assert not report.evasive
        assert strategy.diagram_depth(report.diagram) == 2

    def test_budget_exceeded(self):
        with pytest.raises(strategy.BudgetExceeded):
            strategy.optimal_depth(single("(a&b)|(c&d)|(e&f)"), budget=3)


class TestAgainstNaiveOracle:
    def test_random_instances(self, rng):
        for _ in range(60):
            n = rng.randint(1, 6)
            universe = VariableUniverse(tuple(f"x{i}" for i in range(n)))
            members = tuple(Expression(universe, random_expression(rng, universe))
                            for _ in range(rng.randint(1, 3)))
            s = ExpressionSet(universe, members)
            report = strategy.optimal_depth(s)
            assert report.depth == naive_depth(s)
            assert report.depth <= s.n
            assert report.evasive == (report.depth == s.n)
            assert strategy.diagram_depth(report.diagram) == report.depth

    def test_renaming_invariance(self, rng):
        for _ in range(20):
            n = rng.randint(1, 5)
            universe = VariableUniverse(tuple(f"x{i}" for i in range(n)))
            e = Expression(universe, random_expression(rng, universe))
            s = ExpressionSet(universe, (e,))
            new_names = [f"y{i}" for i in range(n)]
            rng.shuffle(new_names)
            renamed_universe = VariableUniverse(tuple(new_names))
            renamed = ExpressionSet(renamed_universe,
                                    (Expression(renamed_universe, e.root),))
            assert (strategy.optimal_depth(s).depth
                    == strategy.optimal_depth(renamed).depth)

    def test_duplication_invariance(self, rng):
        for _ in range(20):
            n = rng.randint(1, 5)
            universe = VariableUniverse(tuple(f"x{i}" for i in range(n)))
            e = Expression(universe, random_expression(rng, universe))
            s = ExpressionSet(universe, (e,))
            doubled = ExpressionSet(universe, (e, e))
            assert (strategy.optimal_depth(s).depth
                    == strategy.optimal_depth(doubled).depth)

    def test_monotone_lower_bound_respected(self, rng):
        for _ in range(30):
            n = rng.randint(1, 6)
            universe = VariableUniverse(tuple(f"x{i}" for i in range(n)))
            while True:
                node = random_expression(rng, universe)
                if not any(isinstance(m, ex.Not) for m in ex.walk(node)):
                    break
            e = Expression(universe, node)
            s = ExpressionSet(universe, (e,))
            assert (ex.monotone_depth_lower_bound(e)
                    <= strategy.optimal_depth(s).depth)


class TestSoundness:
    def test_exhaustive_soundness_small(self, rng):
        for _ in range(20):
            n = rng.randint(1, 5)
            universe = VariableUniverse(tuple(f"x{i}" for i in range(n)))
            members = tuple(Expression(universe, random_expression(rng, universe))
                            for _ in range(rng.randint(1, 2)))
            s = ExpressionSet(universe, members)
            d = strategy.optimal_depth(s).diagram
            for v in all_valuations(universe):
                assert strategy.check_soundness(s, d, v)

    def test_greedy_soundness_and_bound(self):
        s = single("vars: a b c d\n(a&b)|(c&d)\n")
        d = strategy.greedy_strategy(s)
        assert strategy.diagram_depth(d) <= s.n
        for v in all_valuations(s.universe):
            assert strategy.check_soundness(s, d, v)


class TestGreedy:
    def test_probes_only_live_variables(self):
        # the member reduces to !b & !c: a occurs but is irrelevant, d is free
        s = single("vars: a b c d\n!(c|b)|!(b|a|c)\n")
        d = strategy.greedy_strategy(s)
        assert strategy.diagram_depth(d) == 2 == strategy.optimal_depth(s).depth
        probed = {n.variable for n in d.nodes if isinstance(n, Probe)}
        assert not probed & {"a", "d"}

    def test_random_soundness_and_depth_bounds(self, rng):
        for _ in range(40):
            n = rng.randint(1, 6)
            universe = VariableUniverse(tuple(f"x{i}" for i in range(n)))
            members = tuple(Expression(universe, random_expression(rng, universe))
                            for _ in range(rng.randint(1, 3)))
            s = ExpressionSet(universe, members)
            d = strategy.greedy_strategy(s)
            for v in all_valuations(universe):
                assert strategy.check_soundness(s, d, v)
            assert naive_depth(s) <= strategy.diagram_depth(d) <= s.n

    def test_cap_applies_per_member(self):
        s = single("vars: a b c d e f\na & (b | c)\nd | (e & f)\n")
        d = strategy.greedy_strategy(s, cap=4)
        for v in all_valuations(s.universe):
            assert strategy.check_soundness(s, d, v)
        with pytest.raises(ex.SupportTooLarge):
            strategy.greedy_strategy(single("a & b & c & d & e"), cap=4)


class TestBoundedSearch:
    def test_decide_matches_naive_depth(self, rng):
        for _ in range(40):
            n = rng.randint(1, 6)
            universe = VariableUniverse(tuple(f"x{i}" for i in range(n)))
            members = tuple(Expression(universe, random_expression(rng, universe))
                            for _ in range(rng.randint(2, 3)))
            s = ExpressionSet(universe, members)
            d = naive_depth(s)
            assert strategy.decide_depth_at_most(s, d)
            assert d == 0 or not strategy.decide_depth_at_most(s, d - 1)

    def test_budget_is_exact(self):
        s = single("vars: a b c d e f\n(a&b)|(c&d)|(e&f)\n!a | (c & !e)\n")
        explored = strategy.optimal_depth(s).explored_states
        assert explored > 0
        assert strategy.optimal_depth(s, budget=explored).explored_states == explored
        with pytest.raises(strategy.BudgetExceeded):
            strategy.optimal_depth(s, budget=explored - 1)

    def test_explored_states_repeat(self):
        s = single("vars: a b c d e f g\n(a&b)|(b&c)|(c&d)|(d&e)|(e&f)|(f&g)\n")
        first = strategy.optimal_depth(s)
        second = strategy.optimal_depth(s)
        assert first.explored_states == second.explored_states
        assert first.diagram == second.diagram


class TestDiagramPlumbing:
    def test_malformed_dangling_index(self):
        d = DecisionDiagram((Probe("x", 5, 0), Leaf((True,))), 0)
        with pytest.raises(strategy.MalformedDiagram):
            strategy.diagram_depth(d)

    def test_malformed_cycle(self):
        d = DecisionDiagram((Probe("x", 0, 0),), 0)
        with pytest.raises(strategy.MalformedDiagram):
            strategy.diagram_depth(d)

    def test_json_roundtrip(self):
        d = strategy.optimal_depth(single("vars: x y z\nx & y\nx | z\n")).diagram
        back = strategy.from_json(strategy.to_json(d))
        assert back == d

    def test_dot_export_shape(self):
        d = strategy.optimal_depth(single("a & b")).diagram
        dot = strategy.to_dot(d)
        assert dot.startswith("digraph strategy {")
        assert "style=solid" in dot and "style=dashed" in dot

    def test_run_session_mapping_and_exhaustion(self):
        d = strategy.optimal_depth(single("a & b")).diagram
        t = strategy.run_session(d, {"a": True, "b": False})
        assert t.labels == (False,)
        assert t.probe_count == 2
        with pytest.raises(strategy.AnswersExhausted):
            strategy.run_session(d, {"a": True})
