"""Unit and property tests for the acyclic 2-DNF pattern detector."""

import random

import pytest

from conftest import naive_evasive, single
from probedepth import expr as ex
from probedepth import graphdnf, strategy, treegen
from probedepth.expr import ExpressionSet, MonotoneDnf, VariableUniverse
from probedepth.graphdnf import GraphDnf, Pattern


def dnf_of(text: str) -> MonotoneDnf:
    s = single(text)
    d = ex.to_monotone_dnf(s.members[0])
    return MonotoneDnf(s.universe, d.terms)


class TestConstruction:
    def test_from_monotone_dnf(self):
        g = graphdnf.from_monotone_dnf(dnf_of("(a&b)|(b&c)|d"))
        assert g.edges == frozenset([frozenset("ab"), frozenset("bc")])
        assert g.singletons == frozenset("d")

    def test_singleton_subsumes_incident_edges(self):
        # a | (a&b): absorption removes the edge before the graph is built
        d = MonotoneDnf(VariableUniverse(("a", "b")),
                        frozenset([frozenset("a"), frozenset("ab")]))
        g = graphdnf.from_monotone_dnf(d)
        assert g.singletons == frozenset("a") and g.edges == frozenset()

    def test_wide_term_rejected(self):
        with pytest.raises(graphdnf.GraphDnfError):
            graphdnf.from_monotone_dnf(dnf_of("a & b & c"))

    def test_constant_true_rejected(self):
        with pytest.raises(graphdnf.GraphDnfError):
            graphdnf.from_monotone_dnf(dnf_of("1"))

    def test_singleton_touching_edge_rejected(self):
        u = VariableUniverse(("a", "b"))
        with pytest.raises(graphdnf.GraphDnfError):
            GraphDnf(u, frozenset([frozenset("ab")]), frozenset("a"))

    def test_acyclicity(self):
        assert graphdnf.is_acyclic(graphdnf.from_monotone_dnf(dnf_of("(a&b)|(b&c)")))
        triangle = dnf_of("(a&b)|(b&c)|(c&a)")
        assert not graphdnf.is_acyclic(graphdnf.from_monotone_dnf(triangle))

    @pytest.mark.parametrize("header, names", [
        ("vars: a b c d e f", [("a", "b", "c"), ("d", "e", "f")]),  # the path first
        ("vars: d e f a b c", [("d", "e", "f"), ("a", "b", "c")]),  # the triangle first
    ])
    def test_triangle_beside_path(self, header, names):
        g = graphdnf.from_monotone_dnf(dnf_of(f"{header}\n(a&b)|(b&c)|(d&e)|(e&f)|(f&d)"))
        assert not graphdnf.is_acyclic(g)
        with pytest.raises(graphdnf.GraphDnfError):
            graphdnf.find_pattern(g)
        comps, free = graphdnf.components(g)
        assert [c.universe.names for c in comps] == names
        assert frozenset().union(*(c.edges for c in comps)) == g.edges
        assert free == ()

    def test_components_and_free_variables(self):
        g = graphdnf.from_monotone_dnf(dnf_of("vars: a b c d e\n(a&b)|c"))
        comps, free = graphdnf.components(g)
        assert len(comps) == 2
        assert free == ("d", "e")

    def test_many_one_edge_components(self):
        names = [f"v{i}" for i in range(4000)]
        g = graphdnf.from_monotone_dnf(dnf_of(
            f"vars: {' '.join(names)}\n" + " | ".join(f"{a}&{b}" for a, b in zip(names[::2], names[1::2]))))
        comps, free = graphdnf.components(g)
        assert [c.universe.names for c in comps] == list(zip(names[::2], names[1::2]))
        assert [c.edges for c in comps] == [frozenset([frozenset(c.universe.names)]) for c in comps]
        assert free == ()


class TestPatternDetection:
    def test_path2_psi0_shape_has_pattern(self):
        # (w&x)|(x&y)|(y&z) is not evasive; a witness pattern exists
        g = graphdnf.from_monotone_dnf(dnf_of("(w&x)|(x&y)|(y&z)"))
        p = graphdnf.find_pattern(g)
        assert p is not None
        assert naive_evasive(single("(w&x)|(x&y)|(y&z)")) is False

    def test_single_edge_no_pattern(self):
        g = graphdnf.from_monotone_dnf(dnf_of("a & b"))
        assert graphdnf.find_pattern(g) is None

    def test_free_variable_leaf_pattern(self):
        g = graphdnf.from_monotone_dnf(dnf_of("vars: a b c\na & b"))
        p = graphdnf.find_pattern(g)
        assert p == Pattern("c")

    def test_singleton_component_no_pattern(self):
        g = GraphDnf(VariableUniverse(("a",)), frozenset(), frozenset("a"))
        assert graphdnf.find_pattern(g) is None

    def test_cyclic_rejected(self):
        g = graphdnf.from_monotone_dnf(dnf_of("(a&b)|(b&c)|(c&a)"))
        with pytest.raises(graphdnf.GraphDnfError):
            graphdnf.find_pattern(g)

    def test_path_divisibility_rule(self):
        for n in range(1, 16):
            terms = frozenset(frozenset((f"x{i}", f"x{i+1}")) for i in range(n))
            u = VariableUniverse(tuple(f"x{i}" for i in range(n + 1)))
            d = MonotoneDnf(u, terms)
            evasive = graphdnf.decide_evasive_acyclic(d)
            assert evasive == (n % 3 != 0), f"path with {n} edges"

    def test_decision_builds_one_graph(self, monkeypatch):
        built = []
        original = GraphDnf.__post_init__

        def counted(g):
            built.append(g)
            original(g)

        monkeypatch.setattr(GraphDnf, "__post_init__", counted)
        d = MonotoneDnf(VariableUniverse(("a", "b", "c")), frozenset([frozenset("ab")]))
        # over a wider universe, c is free: not evasive
        assert graphdnf.decide_evasive_acyclic(d, VariableUniverse(("c", "b", "a"))) is False
        assert graphdnf.decide_evasive_acyclic(d) is False
        assert [g.universe.names for g in built] == [("c", "b", "a"), ("a", "b", "c")]

    def test_witness_implies_non_evasive(self, rng):
        for _ in range(50):
            dnf, universe = treegen.random_forest_dnf(rng, max_vars=7)
            g = graphdnf.from_monotone_dnf(dnf)
            comps, free = graphdnf.components(g)
            s = ExpressionSet(universe, (dnf.to_expression(),))
            if free:
                assert not strategy.is_evasive(s)
                continue
            for comp in comps:
                if graphdnf.find_pattern(comp) is not None:
                    assert not strategy.is_evasive(s)
                    break

    def test_rerooting_every_witness_label_is_special(self, rng):
        found = 0
        while found < 20:
            n = rng.randint(3, 7)
            seq = tuple(rng.randrange(n) for _ in range(n - 2))
            g = treegen.tree_graph_dnf(treegen.prufer_decode(seq, n), n)
            p = graphdnf.find_pattern(g)
            if p is None:
                continue
            found += 1
            for label in p.labels():
                assert graphdnf.pattern_rooted_at(g, label) is not None

    def test_find_pattern_is_first_rooted_pattern(self, rng):
        # every labeled tree on 2-7 nodes, and random trees on 20-60 nodes
        trees = [(n, edges) for n in range(2, 8) for edges in treegen.all_labeled_trees(n)]
        for _ in range(200):
            n = rng.randint(20, 60)
            seq = tuple(rng.randrange(n) for _ in range(n - 2))
            trees.append((n, treegen.prufer_decode(seq, n)))
        for n, edges in trees:
            g = treegen.tree_graph_dnf(edges, n)
            expected = None
            for root in g.universe.names:
                expected = graphdnf.pattern_rooted_at(g, root)
                if expected is not None:
                    break
            assert graphdnf.find_pattern(g) == expected

    @pytest.mark.parametrize("edges, first, bound", [
        # evasive (301 mod 3 != 0): one rooted tree, no witness
        (301, (), 2),
        # non-evasive, but x1 and every x(3i+1), x(3i+2) come first in the
        # universe and are not special: the witness is rooted at x0
        (300, tuple(f"x{i}" for i in range(301) if i % 3), 3),
    ])
    def test_find_pattern_roots_each_component_once(self, monkeypatch,
                                                    edges, first, bound):
        calls = []
        original = graphdnf._rooted_tree

        def counted(adj, root):
            calls.append(root)
            return original(adj, root)

        monkeypatch.setattr(graphdnf, "_rooted_tree", counted)
        names = first + tuple(f"x{i}" for i in range(edges + 1) if f"x{i}" not in first)
        g = GraphDnf(VariableUniverse(names),
                     frozenset(frozenset((f"x{i}", f"x{i + 1}")) for i in range(edges)),
                     frozenset())
        p = graphdnf.find_pattern(g)
        assert (p is None) == (edges % 3 != 0)
        if p is not None:
            assert p.variable == "x0"
        assert len(calls) <= bound

    def test_deep_witness_labels_and_text(self):
        # a 3000-edge path: the witness x0 -> (x3 -> (... x3000)) is 1001
        # levels deep, past the default recursion limit
        n = 3000
        g = GraphDnf(VariableUniverse(tuple(f"x{i}" for i in range(n + 1))),
                     frozenset(frozenset((f"x{i}", f"x{i + 1}")) for i in range(n)),
                     frozenset())
        p = graphdnf.find_pattern(g)
        assert p.labels() == tuple(f"x{i}" for i in range(0, n + 1, 3))
        text = str(p)
        assert text.startswith("x0 -> (x3 -> (x6 -> (")
        assert text.endswith("x2997 -> (x3000)" + ")" * 999)
        assert "fillcolor=lightblue" in graphdnf.to_dot(g, p)

    def test_deep_witness_equality_hash_and_repr(self):
        # the same 1001-level witness: ==, hash and repr walk it without
        # recursion
        n = 3000
        g = GraphDnf(VariableUniverse(tuple(f"x{i}" for i in range(n + 1))),
                     frozenset(frozenset((f"x{i}", f"x{i + 1}")) for i in range(n)),
                     frozenset())
        labels = [f"x{i}" for i in range(0, n + 1, 3)]

        def chain(labels):
            p = Pattern(labels[-1])
            for v in reversed(labels[:-1]):
                p = Pattern(v, (p,))
            return p

        p, q = graphdnf.find_pattern(g), chain(labels)
        assert p == q and hash(p) == hash(q) and len({p, q}) == 1
        assert p != chain(labels[:-1] + ["x2999"])
        text = repr(p)
        assert text.startswith("Pattern(variable='x0', children=(Pattern(variable='x3'")
        assert text.endswith("Pattern(variable='x3000', children=())" + ",))" * 1000)

    def test_forest_free_variable_is_leaf_pattern(self):
        g = graphdnf.from_monotone_dnf(dnf_of("vars: a b c d e\n(a&b)|(b&c)|e"))
        assert graphdnf.find_pattern(g) == Pattern("d")

    def test_forest_skips_singleton_components(self):
        # the singleton term a would be a leaf pattern if it were tried
        g = graphdnf.from_monotone_dnf(dnf_of("vars: a b c\na|(b&c)"))
        assert graphdnf.find_pattern(g) is None

    def test_forest_first_component_witness(self):
        # both paths of three edges admit a pattern.  The path b-a-c-d holds
        # the lowest variable a, which is not special, and p (an end of the
        # other path) is: components are tried whole, so b roots the witness
        g = graphdnf.from_monotone_dnf(dnf_of(
            "vars: a p q r s b c d\n(a&b)|(a&c)|(c&d)|(p&q)|(q&r)|(r&s)"))
        assert graphdnf.pattern_rooted_at(g, "a") is None
        assert graphdnf.pattern_rooted_at(g, "p") is not None
        p = graphdnf.find_pattern(g)
        assert p.variable == "b" and set(p.labels()) <= set("abcd")

    def test_forest_with_cycle_rejected(self):
        g = graphdnf.from_monotone_dnf(dnf_of("vars: a b c d e\n(a&b)|(b&c)|(c&a)|(d&e)"))
        with pytest.raises(graphdnf.GraphDnfError):
            graphdnf.find_pattern(g)

    @pytest.mark.parametrize("allow_free", [False, True])
    def test_forest_detector_matches_oracle_and_components(self, rng, allow_free):
        for _ in range(60):
            dnf, universe = treegen.random_forest_dnf(rng, max_vars=8,
                                                      allow_free=allow_free)
            g = graphdnf.from_monotone_dnf(dnf)
            p = graphdnf.find_pattern(g)
            s = ExpressionSet(universe, (dnf.to_expression(),))
            assert (p is None) == strategy.is_evasive(s)
            if p is None:
                continue
            comps, free = graphdnf.components(g)
            expected = Pattern(free[0]) if free else next(
                w for c in comps if c.edges for root in c.universe.names
                for w in [graphdnf.pattern_rooted_at(c, root)] if w is not None)
            assert p == expected

    def test_component_rule(self, rng):
        for _ in range(60):
            dnf, universe = treegen.random_forest_dnf(rng, max_vars=8)
            fast = graphdnf.decide_evasive_acyclic(dnf)
            s = ExpressionSet(universe, (dnf.to_expression(),))
            assert fast == strategy.is_evasive(s)


class TestTreegen:
    def test_cayley_counts(self):
        assert len(list(treegen.all_labeled_trees(1))) == 1
        assert len(list(treegen.all_labeled_trees(2))) == 1
        assert len(list(treegen.all_labeled_trees(3))) == 3
        assert len(list(treegen.all_labeled_trees(5))) == 125

    def test_prufer_decode_tree_shape(self):
        edges = treegen.prufer_decode((0, 0), 4)  # star around node 0
        assert sorted(sorted(e) for e in edges) == [[0, 1], [0, 2], [0, 3]]

    def test_random_forest_is_acyclic(self, rng):
        for _ in range(50):
            dnf, _ = treegen.random_forest_dnf(rng)
            g = graphdnf.from_monotone_dnf(dnf)
            assert graphdnf.is_acyclic(g)


class TestPatternText:
    def test_labels_preorder_and_str(self):
        p = Pattern("a", (Pattern("b", (Pattern("c"),)), Pattern("d"), Pattern("e")))
        assert p.labels() == ("a", "b", "c", "d", "e")
        assert str(p) == "a -> (b -> (c), d, e)"
        assert str(Pattern("a")) == "a"

    def test_equality_hash_and_repr(self):
        p = Pattern("a", (Pattern("b", (Pattern("c"),)), Pattern("d")))
        assert p == Pattern("a", (Pattern("b", (Pattern("c"),)), Pattern("d")))
        assert hash(p) == hash(Pattern("a", (Pattern("b", (Pattern("c"),)),
                                             Pattern("d"))))
        # same labels in preorder, different shapes
        assert p != Pattern("a", (Pattern("b", (Pattern("c"), Pattern("d"))),))
        assert p != Pattern("a", (Pattern("b"), Pattern("c"), Pattern("d")))
        assert Pattern("a") != "a"
        assert repr(p) == (
            "Pattern(variable='a', children=(Pattern(variable='b', children="
            "(Pattern(variable='c', children=()),)), "
            "Pattern(variable='d', children=())))")


class TestDot:
    def test_dot_marks_singletons_and_pattern(self):
        g = graphdnf.from_monotone_dnf(dnf_of("(w&x)|(x&y)|(y&z)|q"))
        p = graphdnf.find_pattern(
            graphdnf.from_monotone_dnf(dnf_of("(w&x)|(x&y)|(y&z)")))
        dot = graphdnf.to_dot(g, p)
        assert "peripheries=2" in dot
        assert "fillcolor=lightblue" in dot
        assert "w -- x;" in dot

    def test_dot_follows_universe_order(self):
        # vertices in universe order; each edge from its lower end, the edges
        # in lexicographic order of their ends' positions, not of their names
        g = graphdnf.from_monotone_dnf(dnf_of("vars: d b g e a c f\n(a&b)|(b&d)|(c&e)|(d&e)|f"))
        assert graphdnf.to_dot(g, graphdnf.find_pattern(g)) == (
            "graph dnf {\n  d;\n  b;\n  g [style=filled, fillcolor=lightblue];\n  e;\n"
            "  a;\n  c;\n  f [peripheries=2];\n"
            "  d -- b;\n  d -- e;\n  b -- a;\n  e -- c;\n}\n")
