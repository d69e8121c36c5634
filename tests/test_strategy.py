"""Unit and property tests for the depth search and strategy execution."""

import ast
import gc
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from conftest import (all_valuations, naive_depth, naive_greedy_probe, random_expression,
                      reference_witness, single)
from probedepth import expr as ex
from probedepth import families, readonce, strategy
from probedepth.expr import Const, Expression, ExpressionSet, Valuation, VariableUniverse
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
        with pytest.raises(ex.SupportTooLarge):
            strategy.optimal_depth(single("a & b & c"), cap=2)

    def test_cap_refusal_is_one_error(self):
        s = single("a & b & c")
        for refuse in (lambda: strategy.optimal_depth(s, cap=2),
                       lambda: strategy.decide_depth_at_most(s, 1, cap=2),
                       lambda: strategy.is_evasive(s, cap=2),
                       lambda: strategy.greedy_strategy(s, cap=2)):
            with pytest.raises(ex.SupportTooLarge) as refusal:
                refuse()
            assert str(refusal.value) == "support size 3 exceeds cap 2"

    @pytest.mark.parametrize("search", [strategy.optimal_depth, strategy.greedy_strategy],
                             ids=["exact", "greedy"])
    def test_cap_past_the_widest_table_builds_none(self, search, monkeypatch):
        # psi(3)'s one member has 46 variables: cap 200 must not build a
        # 2^46-row table, whatever the caller asks for
        s = families.generate(families.FamilySpec("psi", 3))
        monkeypatch.setattr(strategy, "table_bits", lambda *args: pytest.fail("built a table"))
        with pytest.raises(ex.SupportTooLarge) as refusal:
            search(s, cap=200)
        assert str(refusal.value) == f"support size 46 exceeds cap {ex.MAX_TABLE_CAP}"

    def test_cap_counts_support_not_universe(self):
        # 25 universe variables, but the search tabulates only x0 and x1
        names = " ".join(f"x{i}" for i in range(25))
        report = strategy.optimal_depth(single(f"vars: {names}\nx0 & x1\n"))
        assert report.depth == 2
        assert not report.evasive
        assert strategy.diagram_depth(report.diagram) == 2

    def test_budget_exceeded(self):
        # path(3) is not evasive and its root classes are balanced: 3 states
        s = single("(a&b)|(b&c)|(c&d)")
        assert strategy.optimal_depth(s, budget=3).explored_states == 3
        with pytest.raises(strategy.BudgetExceeded):
            strategy.optimal_depth(s, budget=2)


class TestAgainstNaiveOracle:
    def test_oracles_use_no_table_code(self, monkeypatch):
        # the oracles check the search, so they must answer with the
        # library's table code out of reach
        sets = [single(text) for text in (
            "vars: x y z\nx & y\nx | z\n", "!a & (b | 1)\n!(a | 0) | c\n", "a & !a | b & c\n",
            "vars: a b\n1\n!0 & b\n", "(a&b)|(b&c)|(c&d)\n!(a | !d) | 0\n")]
        expected = [(strategy.optimal_depth(s).depth, strategy.greedy_strategy(s)) for s in sets]

        def refuse(*args):
            raise AssertionError("an oracle called the library's table code")

        monkeypatch.setattr(ex, "table_bits", refuse)
        monkeypatch.setattr(ex, "table_frame", refuse)
        for s, (depth, greedy) in zip(sets, expected):
            root = greedy.nodes[greedy.root]
            assert naive_depth(s) == depth
            assert naive_greedy_probe(s) == (root.variable if isinstance(root, Probe) else None)

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

    @pytest.mark.parametrize("members", [
        ["x0 & x1", "x2 | x3"],  # disjoint supports still share one table width
        ["x0 & x1 | x2", "x0 | x1 & x3", "x0 & x2 | x3", "x1 | x2 & x3"],
    ])
    def test_one_search_slot(self, members):
        s = ex.parse_expressions("vars: x0 x1 x2 x3\n" + "\n".join(members))
        report = strategy.optimal_depth(s)
        assert report.depth == naive_depth(s)
        for v in all_valuations(s.universe):
            assert strategy.check_soundness(s, report.diagram, v)

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
            assert (ref.monotone_depth_lower_bound(e)
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

    def test_matches_naive_greedy_oracle(self, rng):
        for _ in range(150):
            n = rng.randint(1, 6)
            universe = VariableUniverse(tuple(f"x{i}" for i in range(n)))
            members = tuple(Expression(universe, random_expression(rng, universe))
                            for _ in range(rng.randint(1, 4)))
            s = ExpressionSet(universe, members)
            d = strategy.greedy_strategy(s)
            pending = [(d.root, s)]
            while pending:
                i, restricted = pending.pop()
                node, expected = d.nodes[i], naive_greedy_probe(restricted)
                if isinstance(node, Leaf):
                    assert expected is None
                    assert node.labels == tuple(ref.is_constant(m) for m in restricted.members)
                else:
                    assert node.variable == expected
                    for value, child in ((True, node.on_true), (False, node.on_false)):
                        pending.append((child, ref.restrict_set(restricted, node.variable, value)))

    def test_cap_applies_per_member(self):
        s = single("vars: a b c d e f\na & (b | c)\nd | (e & f)\n")
        d = strategy.greedy_strategy(s, cap=4)
        for v in all_valuations(s.universe):
            assert strategy.check_soundness(s, d, v)
        with pytest.raises(ex.SupportTooLarge):
            strategy.greedy_strategy(single("a & b & c & d & e"), cap=4)


class TestGreedySharing:
    """Greedy shares a node between states that leave every member the same
    residual function, so k disjoint paths give 13 * 2^k - 12 nodes: one copy
    of what remains per label vector of the members already constant, not
    the product of the members' diagrams."""

    @staticmethod
    def disjoint_paths(k: int) -> ExpressionSet:
        names = [f"v{i}" for i in range(6 * k)]
        members = [" | ".join(f"{a}&{b}" for a, b in zip(part, part[1:]))
                   for part in (names[6 * j:6 * j + 6] for j in range(k))]
        return ex.parse_expressions(f"vars: {' '.join(names)}\n" + "\n".join(members))

    @pytest.mark.parametrize("k, nodes", [(2, 40), (3, 92), (4, 196)])
    def test_disjoint_paths_node_count(self, k, nodes):
        d = strategy.greedy_strategy(self.disjoint_paths(k))
        assert len(d.nodes) == nodes
        assert strategy.diagram_depth(d) == 6 * k

    def test_disjoint_paths_sound_on_every_valuation(self):
        s = self.disjoint_paths(2)
        d = strategy.greedy_strategy(s)
        for v in all_valuations(s.universe):
            assert strategy.check_soundness(s, d, v)

    def test_disjoint_paths_sound_on_seeded_valuations(self):
        s = self.disjoint_paths(4)
        d = strategy.greedy_strategy(s)
        rng = random.Random(4)
        for _ in range(2000):
            v = Valuation(s.universe, tuple(rng.random() < 0.5 for _ in range(s.n)))
            assert strategy.check_soundness(s, d, v)

    def test_psi1_depth_is_2k_plus_3(self):
        d = strategy.greedy_strategy(families.generate(families.FamilySpec("psi", 1)))
        assert strategy.diagram_depth(d) == 5 == strategy.diagram_depth(families.psi_strategy(1))

    def test_psi2_depth_is_2k_plus_3_past_the_default_cap(self):
        s = families.generate(families.FamilySpec("psi", 2))  # one 22-variable member
        d = strategy.greedy_strategy(s, cap=22)
        assert strategy.diagram_depth(d) == 7 == strategy.diagram_depth(families.psi_strategy(2))
        assert len(d.nodes) == 36
        rng = random.Random(2)
        for _ in range(2000):
            v = Valuation(s.universe, tuple(rng.random() < 0.5 for _ in range(s.n)))
            assert strategy.check_soundness(s, d, v)

    def test_mux4(self):
        # 4 address and 16 data variables; the exact depth is 5 too
        address = [f"a{j}" for j in range(4)]
        terms = [" & ".join([a if i >> j & 1 else f"!{a}" for j, a in enumerate(address)]
                            + [f"d{i}"]) for i in range(16)]
        s = single(f"vars: {' '.join(address + [f'd{i}' for i in range(16)])}\n"
                   + " | ".join(terms) + "\n")
        d = strategy.greedy_strategy(s)
        assert (strategy.diagram_depth(d), len(d.nodes)) == (5, 33)
        rng = random.Random(5)
        for _ in range(500):
            v = Valuation(s.universe, tuple(rng.random() < 0.5 for _ in range(s.n)))
            assert strategy.check_soundness(s, d, v)

    def test_path_answers_with_one_residual_share_a_node(self):
        # probing v_i of the path v0-...-v12 and answering false leaves the
        # path after it whatever came before, so most of the tree merges
        d = strategy.greedy_strategy(families.generate(families.FamilySpec("path", 12)))
        assert len(d.nodes) == 28
        assert strategy.diagram_depth(d) == 13


class TestResidualTables:
    """``ex.table_frame``, ``_fix`` and ``_compact``, the one state form of
    the search and greedy, and the witness's level form of ``_spread`` and
    ``_skip_dead``, against enumerated rows, restriction of the syntax tree
    and a fresh truth table."""

    @pytest.mark.parametrize("r", range(9))
    def test_frame_rows(self, r):
        full, masks, even, swaps = ex.table_frame(r)
        rows = range(1 << r)
        assert full == sum(1 << x for x in rows)
        assert masks == tuple(sum(1 << x for x in rows if x >> j & 1) for j in range(r))
        assert even == sum(1 << x for x in rows if x.bit_count() % 2 == 0)
        assert swaps == tuple(sum(1 << x for x in rows if x >> j & 3 == 1)
                              for j in range(r - 1))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_fix_and_compact_match_restrict(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        universe = VariableUniverse(tuple(f"x{i}" for i in range(n)))
        e = Expression(universe, random_expression(rng, universe))
        support = e.support_indices()
        t = self.table(e, support)
        held = sum(1 << i for i in support)  # positions are universe indices here
        assert self.named(universe, strategy._compact(held, (t,))) == self.compacted(e)
        for rank, i in enumerate(support):
            name = universe.names[i]
            for value in (True, False):
                restricted = ref.restrict(e, name, value)
                rest = [restricted.universe.index(universe.names[j]) for j in support if j != i]
                fixed = strategy._fix(t, len(support), len(support) - 1 - rank, value)
                assert fixed == self.table(restricted, rest)
                assert self.named(universe, strategy._compact(held ^ 1 << i, (fixed,))) \
                    == self.compacted(restricted)
                assert strategy._restrict(held, (t,), i, value) \
                    == strategy._compact(held ^ 1 << i, (fixed,))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_flip_rows_give_what_restrict_keeps(self, seed):
        # greedy scores probes by _kept and restricts only the one it picks
        rng = random.Random(seed)
        universe = VariableUniverse(tuple(f"x{i}" for i in range(rng.randint(1, 7))))
        e = Expression(universe, random_expression(rng, universe, rng.randint(2, 4)))
        support = e.support_indices()
        held = sum(1 << i for i in support)  # may hold positions e ignores
        t = self.table(e, support)
        for state in ((held, (t,)), strategy._compact(held, (t,))):
            kept = strategy._kept(*state)
            assert sorted(kept) == [i for i in support if state[0] >> i & 1]
            for p, answers in kept.items():
                assert answers == tuple(strategy._restrict(*state, p, a)[0]
                                        for a in (True, False))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_spread_and_skip_dead_give_the_level_table(self, seed):
        # the table over every position from the lowest one e depends on,
        # from the compacted state and by halving the whole table
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        universe = VariableUniverse(tuple(f"x{i}" for i in range(n)))
        e = Expression(universe, random_expression(rng, universe, rng.randint(2, 4)))
        whole = self.table(e, list(range(n)))
        held, tables = strategy._compact((1 << n) - 1, (whole,))
        first = (held & -held).bit_length() - 1 if held else n
        for name in universe.names[:first]:
            e = ref.restrict(e, name, False)
        rest = [e.universe.index(name) for name in universe.names[first:]]
        level = n - first, (self.table(e, rest),)
        assert strategy._spread(held, tables, n) == level
        assert strategy._skip_dead(n, (whole,)) == level

    def test_compact_keeps_what_any_table_depends_on(self):
        # over a, b, c (a the top table variable): a & b and b | c drop
        # nothing together; alone, each drops the position it ignores
        s = ex.parse_expressions("vars: a b c\na & b\nb | c\n")
        first, second = (self.table(m, [0, 1, 2]) for m in s.members)
        assert strategy._compact(0b111, (first, second)) == (0b111, (first, second))
        assert strategy._compact(0b111, (first,)) == (0b011, (self.table(s.members[0], [0, 1]),))
        assert strategy._compact(0b111, (second,)) == (0b110, (self.table(s.members[1], [1, 2]),))

    @staticmethod
    def table(e: Expression, support: list[int]) -> int:
        """The table of ``e`` over the universe indices ``support``, the first
        as the top table variable."""
        k = len(support)
        return ex.table_bits(e.root, {j: k - 1 - q for q, j in enumerate(support)}, k)

    @staticmethod
    def named(universe: VariableUniverse, state):
        """A one-table ``_compact`` state with its positions as the names they
        index."""
        held, (t,) = state
        return tuple(name for i, name in enumerate(universe.names) if held >> i & 1), t

    @staticmethod
    def compacted(e: Expression):
        """The names ``e`` depends on and its table over exactly those, the
        first as the top table variable: the others are set to false."""
        for name in e.support():
            if ref.equivalent(ref.restrict(e, name, True), ref.restrict(e, name, False)):
                e = ref.restrict(e, name, False)
        return e.support(), TestResidualTables.table(e, e.support_indices())


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
        s = single("vars: a b c d e f g\n(a&b)|(b&c)|(c&d)|(d&e)|(e&f)|(f&g)\n")
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


class TestParityRule:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(st.integers(0, 2**32 - 1))
    def test_depth_matches_naive_depth(self, seed):
        rng = random.Random(seed)
        universe = VariableUniverse(tuple(f"x{i}" for i in range(rng.randint(1, 6))))
        members = tuple(Expression(universe, random_expression(rng, universe))
                        for _ in range(rng.randint(1, 3)))
        s = ExpressionSet(universe, members)
        report = strategy.optimal_depth(s)
        assert report.depth == naive_depth(s)
        assert strategy.diagram_depth(report.diagram) == report.depth

    @pytest.mark.parametrize("text, depth", [
        ("(a&b)|(b&c)|(c&d)", 3),  # path(3)
        ("(a&b)|(b&c)|(c&d)|(d&e)|(e&f)|(f&g)", 6),  # path(6)
        ("a&b&c | !a&!b&!c", 3),  # evasive
    ], ids=["path3", "path6", "evasive"])
    def test_balanced_root_classes(self, text, depth):
        # parity cannot refute the root, so the search decides below it
        s = single(text)
        held, (t,) = strategy._root(s, 20)[2]
        r = held.bit_count()
        full, _, even, _ = ex.table_frame(r)
        assert r == s.n and 0 < t < full
        assert all(2 * (c & even).bit_count() == c.bit_count() for c in (t, full ^ t))
        assert not strategy._refuted((t,), r, r - 1)
        report = strategy.optimal_depth(s)
        assert report.depth == naive_depth(s) == depth
        assert report.explored_states > 1
        assert strategy.diagram_depth(report.diagram) == depth
        for v in all_valuations(s.universe):
            assert strategy.check_soundness(s, report.diagram, v)

    @pytest.mark.parametrize("s", [families.generate(families.FamilySpec("path", 13)),
                                   single("(a&b)|(c&d)|(e&f)")], ids=["path13", "read_once"])
    def test_unbalanced_root_is_refuted_at_once(self, s):
        report = strategy.optimal_depth(s)
        assert report.evasive
        assert report.explored_states == 1


class TestDegreeRule:
    """Below parity: classes with a non-zero signed sum over all of a state's
    r positions but one (budget at most r - 2) or but two (at most r - 3)."""

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(st.integers(0, 2**32 - 1))
    def test_decide_matches_naive_depth_at_every_k(self, seed):
        rng = random.Random(seed)
        universe = VariableUniverse(tuple(f"x{i}" for i in range(rng.randint(1, 7))))
        members = tuple(Expression(universe, random_expression(rng, universe))
                        for _ in range(rng.randint(1, 3)))
        s = ExpressionSet(universe, members)
        d = naive_depth(s)
        assert [strategy.decide_depth_at_most(s, k) for k in range(s.n + 1)] == \
               [d <= k for k in range(s.n + 1)]

    @pytest.mark.parametrize("text, depth, states", [
        # degree 2 = depth: level r - 1 at budget r - 1 would refute the root
        ("(a&b)|(!a&c)", 2, 2),
        # budget r - 3 in the last round: level r - 2 at budget r - 2 gives
        # depth 7; level r - 1 or r - 2 only one budget lower, 32 or 19 states
        ("(a&b)|(b&c)|(c&d)\n(e&f)|(f&g)|(g&h)\n", 6, 13),
    ], ids=["mux", "two_paths4"])
    def test_level_thresholds(self, text, depth, states):
        s = single(text)
        report = strategy.optimal_depth(s)
        assert (report.depth, report.explored_states) == (depth, states)
        assert naive_depth(s) == depth
        assert strategy.diagram_depth(report.diagram) == depth

    @pytest.mark.parametrize("s, depth, states, budget", [
        (families.generate(families.FamilySpec("path", 15)), 15, 19, 20_000),
        (single("(a&b)|(b&c)|(c&d)|(d&e)|(e&f)|(f&g)\n"
                "(h&i)|(i&j)|(j&k)|(k&l)|(l&m)|(m&n)\n"), 12, 31, 50_000),
    ], ids=["path15", "two_paths7"])
    def test_non_evasive_refuted_early(self, s, depth, states, budget):
        # parity alone needs 2 934 and 1 976 states
        report = strategy.optimal_depth(s, budget=budget)
        assert (report.depth, report.explored_states) == (depth, states)

    def test_lazy_diagram_is_stable(self):
        s = families.generate(families.FamilySpec("path", 9))
        report = strategy.optimal_depth(s)
        assert report.diagram is report.diagram
        assert report.diagram == strategy.optimal_depth(s).diagram
        assert strategy.diagram_depth(report.diagram) == report.depth == 9


class TestTranspositions:
    """The search memoises states by their budget and the members' residual
    tables, and the witness shares nodes by those and the positions, so
    answers that leave every member the same function are searched once and
    drawn once."""

    @staticmethod
    def disjoint_paths(size: int) -> ExpressionSet:
        paths = [" | ".join(f"{v}{i} & {v}{i + 1}" for i in range(size - 1)) for v in "ab"]
        return ex.parse_expressions("\n".join(paths))

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(st.integers(0, 2**32 - 1))
    def test_shared_witness_is_exact_and_sound(self, seed):
        rng = random.Random(seed)
        universe = VariableUniverse(tuple(f"x{i}" for i in range(rng.randint(1, 6))))
        members = tuple(Expression(universe, random_expression(rng, universe))
                        for _ in range(rng.randint(1, 3)))
        s = ExpressionSet(universe, members)
        report = strategy.optimal_depth(s)
        assert report.depth == naive_depth(s)
        assert strategy.diagram_depth(report.diagram) == report.depth
        for v in all_valuations(universe):
            assert strategy.check_soundness(s, report.diagram, v)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(st.integers(0, 2**32 - 1))
    def test_witness_matches_restricting_reference(self, seed):
        # node for node: the level form of the states within their budget
        # keys the same nodes, in the same order, as restricting each state
        rng = random.Random(seed)
        universe = VariableUniverse(tuple(f"x{i}" for i in range(rng.randint(1, 9))))
        members = [Expression(universe, random_expression(rng, universe, rng.randint(2, 4)))
                   for _ in range(rng.randint(1, 3))]
        roll = rng.random()
        if roll < 0.2:
            members[-1] = members[0]
        elif roll < 0.3:
            members[-1] = Expression(universe, Const(rng.random() < 0.5))
        s = ExpressionSet(universe, tuple(members))
        report = strategy.optimal_depth(s)
        assert report.diagram == reference_witness(s, report.depth)

    def test_evasive_witness_restricts_nothing(self, monkeypatch):
        # every state of an evasive set's witness is within its budget, so
        # the witness takes table halves; restricting each state took 80
        # calls of _restrict
        s = ex.parse_expressions(
            "vars: v7 v2 v1 v4 v3 v6 v0 v5 v8\n"
            "v0&v6 | v0&v7 | v0&v8 | v1&v3 | v1&v5 | v2&v6 | v3&v4 | v3&v6 | v3&v8 "
            "| v4&v7 | v5&v8")
        report = strategy.optimal_depth(s)
        calls = []
        restrict = strategy._restrict
        monkeypatch.setattr(strategy, "_restrict", lambda *a: calls.append(a) or restrict(*a))
        d = report.diagram
        assert (report.depth, len(d.nodes), len(calls)) == (9, 42, 0)
        assert strategy.diagram_depth(d) == 9

    @pytest.mark.parametrize("s, depth, nodes", [
        (families.generate(families.FamilySpec("path", 10)), 11, 22),  # 573 keyed by answers
        (disjoint_paths(8), 16, 46),  # 34 303 keyed by answers
        (families.generate(families.FamilySpec("psi", 1)), 5, 15),
    ], ids=["path10", "two_paths8", "psi1"])
    def test_witness_node_count(self, s, depth, nodes):
        d = strategy.optimal_depth(s).diagram
        assert len(d.nodes) == nodes
        assert strategy.diagram_depth(d) == depth

    def test_twenty_positions_within_budget(self):
        # keyed by answers, this search decides 529 473 states
        report = strategy.optimal_depth(self.disjoint_paths(10), budget=50)
        assert (report.depth, report.explored_states) == (18, 49)
        assert strategy.diagram_depth(report.diagram) == 18


class TestNoDeadProbes:
    """States hold only the positions some member still depends on, so no
    probe of an exact witness or of a greedy diagram leads to one node on
    both answers."""

    @staticmethod
    def dead_probes(d: DecisionDiagram) -> int:
        return sum(isinstance(node, Probe) and node.on_true == node.on_false for node in d.nodes)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(st.integers(0, 2**32 - 1))
    def test_random_sets(self, seed):
        rng = random.Random(seed)
        universe = VariableUniverse(tuple(f"x{i}" for i in range(rng.randint(1, 6))))
        members = tuple(Expression(universe, random_expression(rng, universe))
                        for _ in range(rng.randint(1, 3)))
        s = ExpressionSet(universe, members)
        assert self.dead_probes(strategy.optimal_depth(s).diagram) == 0
        assert self.dead_probes(strategy.greedy_strategy(s)) == 0

    @pytest.mark.parametrize("s", [families.generate(families.FamilySpec("path", 12)),
                                   TestTranspositions.disjoint_paths(7)],
                             ids=["path12", "two_paths7"])
    def test_paths(self, s):
        # probing every position in turn where the budget allows it gave
        # 12 and 21 such probes
        assert self.dead_probes(strategy.optimal_depth(s).diagram) == 0
        assert self.dead_probes(strategy.greedy_strategy(s)) == 0


class TestNoReferenceCycles:
    """The search, the diagram builders and the other recursive walks leave
    nothing for the cyclic collector: each is a module function that takes
    the memo, the node table or the truth-table masks as arguments, so
    nothing holds them after return."""

    @pytest.mark.parametrize("call", [
        lambda s: strategy.optimal_depth(s).diagram,
        strategy.is_evasive,
        strategy.greedy_strategy,
        lambda s: ex.evaluate(s.members[0], Valuation(s.universe, (True,) * s.n)),
        lambda s: ex.to_monotone_dnf(s.members[0]),
        lambda s: readonce.factor_read_once(
            ex.to_monotone_dnf(ex.parse_expressions("a & b | a & c & d | a & c & e").members[0])),
        lambda s: strategy.diagram_depth(families.psi_strategy(0)),
        lambda s: families.psi_strategy(2),
    ], ids=["optimal_depth", "is_evasive", "greedy_strategy", "evaluate",
            "to_monotone_dnf", "factor_read_once", "diagram_depth", "psi_strategy"])
    def test_collector_finds_nothing(self, call):
        paths = [" | ".join(f"{v}{i} & {v}{i + 1}" for i in range(6)) for v in "ab"]
        s = ex.parse_expressions("\n".join(paths))  # two disjoint 7-variable paths
        gc.collect()
        gc.disable()
        try:
            call(s)
            assert gc.collect() == 0
        finally:
            gc.enable()


def test_no_nested_function_calls_itself():
    # a nested function that refers to its own name holds its closure cell,
    # a reference cycle with whatever else the closure holds
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for path in sorted(Path(strategy.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        nested = {f for outer in ast.walk(tree) if isinstance(outer, functions)
                  for f in ast.walk(outer) if f is not outer and isinstance(f, functions)}
        found += [f"{path.name}:{f.lineno} {f.name}" for f in nested
                  if any(isinstance(n, ast.Name) and n.id == f.name for n in ast.walk(f))]
    assert sorted(found) == []


class TestDiagramPlumbing:
    @pytest.mark.parametrize("nodes, root", [
        ((Probe("x", 5, 0), Leaf((True,))), 0),
        ((Probe("x", 0, 0),), 0),  # run_session would probe x for ever
        ((Leaf((True,)), Probe("x", 5, 0)), 1),
        ((Leaf((True,)), Probe("x", -1, 0)), 1),
        ((Leaf((True,)), Probe("x", 0, 1)), 1),
        ((Leaf((True,)), Probe("x", 2, 0), Probe("y", 1, 0)), 2),
        ((Probe("x", 1, 1), Probe("y", 2, 2), Leaf((True,))), 0),
        ((Leaf((True,)), Leaf((False,)), Probe("x", True, 0)), 2),
        ((Leaf((True,)),), 1),
        ((Leaf((True,)),), False),
        ((Leaf((True,)), ("x", 0, 0)), 1),
    ], ids=["dangling-index-first", "self-loop-only", "dangling-index", "negative-index",
            "self-loop", "two-node-cycle", "parent-first-chain", "boolean-index",
            "root-out-of-range", "boolean-root", "not-a-node"])
    def test_rejected_when_built(self, nodes, root):
        with pytest.raises(strategy.MalformedDiagram):
            DecisionDiagram(nodes, root)

    def test_long_chain(self):
        # probe i leads to probe i - 1 on both answers; the first to the leaf
        n = 3000
        d = DecisionDiagram((Leaf((True,)),) + tuple(Probe(f"x{i}", i, i) for i in range(n)), n)
        assert strategy.diagram_depth(d) == n

    def test_json_roundtrip(self):
        # each writer puts a node after the nodes it leads to, as reading requires
        for d in (strategy.optimal_depth(single("vars: x y z\nx & y\nx | z\n")).diagram,
                  strategy.greedy_strategy(single("vars: a b c d e\n(a&b)|(b&c)|(c&d)\n!e | a\n")),
                  families.psi_strategy(2)):
            assert strategy.from_json(strategy.to_json(d)) == d

    @pytest.mark.parametrize("doc", [
        '{"root": 0, "nodes": [{"kind": "probe", "variable": "x", "true": -1, "false": 1},'
        ' {"kind": "leaf", "labels": [true]}]}',
        '{"root": 0, "nodes": [{"kind": "probe", "variable": "x", "true": 5, "false": 1},'
        ' {"kind": "leaf", "labels": [true]}]}',
        '{"root": 0, "nodes": [{"kind": "probe", "variable": "x", "true": true, "false": 0}]}',
        '{"root": 2, "nodes": [{"kind": "leaf", "labels": [true]}]}',
        '{"root": 0, "nodes": [{"kind": "leaf"}]}',
        '{"root": 0, "nodes": [{"kind": "leaf", "labels": ["false"]}]}',
        '{"root": 0, "nodes": [{"kind": "leaf", "labels": "tf"}]}',
        '{"root": 0, "nodes": [{"kind": "probe", "variable": 3, "true": 0, "false": 0}]}',
        '{"root": 0, "nodes": [{"kind": "fork"}]}',
        '{"root": 0, "nodes": [[]]}',
        '{"root": 0, "nodes": {}}',
        '{"nodes": []}',
        '[]',
        '{"root": 0,',
        '[' * 100_000,
        '{"root": 0, "nodes": [{"kind": "probe", "variable": "x", "true": 0, "false": 0}]}',
        '{"root": 1, "nodes": [{"kind": "probe", "variable": "x", "true": 1, "false": 2},'
        ' {"kind": "probe", "variable": "y", "true": 0, "false": 2},'
        ' {"kind": "leaf", "labels": [true]}]}',
    ], ids=["negative-index", "dangling-index", "boolean-index", "dangling-root",
            "missing-labels", "string-label", "labels-not-list", "variable-not-string",
            "unknown-kind", "node-not-object", "nodes-not-list", "missing-root",
            "not-object", "invalid-json", "nested-too-deep", "self-loop", "two-node-cycle"])
    def test_from_json_rejects_malformed(self, doc):
        with pytest.raises(strategy.MalformedDiagram):
            strategy.from_json(doc)

    @staticmethod
    def dumped(d: DecisionDiagram) -> str:
        nodes = [{"kind": "leaf", "labels": list(node.labels)} if isinstance(node, Leaf)
                 else {"kind": "probe", "variable": node.variable,
                       "true": node.on_true, "false": node.on_false}
                 for node in d.nodes]
        return json.dumps({"root": d.root, "nodes": nodes}, indent=2)

    def test_json_matches_indented_dumps(self, rng):
        for _ in range(40):
            universe = VariableUniverse(tuple(f"x{i}" for i in range(rng.randint(1, 6))))
            members = tuple(Expression(universe, random_expression(rng, universe))
                            for _ in range(rng.randint(1, 3)))
            s = ExpressionSet(universe, members)
            for d in (strategy.optimal_depth(s).diagram, strategy.greedy_strategy(s)):
                assert strategy.to_json(d) == self.dumped(d)
        one_leaf = strategy.optimal_depth(single("vars: a\n1\n")).diagram
        assert len(one_leaf.nodes) == 1
        for d in (one_leaf, DecisionDiagram((Leaf(()),), 0)):
            assert strategy.to_json(d) == self.dumped(d)

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

    @pytest.mark.parametrize("answers", [{"a": None, "b": True}, lambda name: None],
                             ids=["mapping", "callable"])
    def test_run_session_none_is_no_answer(self, answers):
        d = strategy.optimal_depth(single("a & b")).diagram
        with pytest.raises(strategy.AnswersExhausted):
            strategy.run_session(d, answers)
