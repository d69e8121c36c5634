"""Labeled tree enumeration (Prüfer decoding) and seeded random forests.

Used by the cross-check harness to compare the pattern detector against the
brute-force evasiveness oracle on every small labeled tree.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Iterator

from .expr import MonotoneDnf, VariableUniverse
from .graphdnf import GraphDnf


def prufer_decode(seq: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    """Edges of the labeled tree on nodes 0..n-1 with Prüfer sequence ``seq``."""
    if n < 2:
        return []
    if len(seq) != n - 2:
        raise ValueError(f"sequence length {len(seq)} != n-2 = {n - 2}")
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        for leaf in range(n):
            if degree[leaf] == 1:
                edges.append((leaf, v))
                degree[leaf] -= 1
                degree[v] -= 1
                break
    last = [v for v in range(n) if degree[v] == 1]
    edges.append((last[0], last[1]))
    return edges


def all_labeled_trees(n: int) -> Iterator[list[tuple[int, int]]]:
    """All n^(n-2) labeled trees on n nodes (one tree for n in {1, 2})."""
    if n == 1:
        yield []
        return
    if n == 2:
        yield [(0, 1)]
        return
    for seq in product(range(n), repeat=n - 2):
        yield prufer_decode(seq, n)


def tree_graph_dnf(edges: list[tuple[int, int]], n: int) -> GraphDnf:
    """View a labeled tree as an all-binary-term graph DNF over x0..x(n-1)."""
    universe = VariableUniverse(tuple(f"x{i}" for i in range(n)))
    edge_set = frozenset(frozenset((f"x{a}", f"x{b}")) for a, b in edges)
    return GraphDnf(universe, edge_set, frozenset())


def random_forest_dnf(rng: random.Random, max_vars: int = 8,
                      allow_free: bool = False) -> tuple[MonotoneDnf, VariableUniverse]:
    """A seeded random acyclic monotone 2-DNF: a forest of random trees and
    singleton-term variables (and optionally free variables)."""
    n = rng.randint(1, max_vars)
    names = tuple(f"x{i}" for i in range(n))
    universe = VariableUniverse(names)
    indices = list(range(n))
    rng.shuffle(indices)
    terms: set[frozenset[str]] = set()
    i = 0
    while i < n:
        size = rng.randint(1, n - i)
        group = indices[i:i + size]
        i += size
        roll = rng.random()
        if size == 1 or roll < 0.2:
            if roll < 0.2:
                for v in group:
                    terms.add(frozenset([names[v]]))
            elif allow_free and roll < 0.5:
                pass  # leave the variable free
            else:
                terms.add(frozenset([names[group[0]]]))
            continue
        # random labeled tree on the group via a random Prüfer sequence
        if size == 2:
            edges = [(0, 1)]
        else:
            seq = tuple(rng.randrange(size) for _ in range(size - 2))
            edges = prufer_decode(seq, size)
        for a, b in edges:
            terms.add(frozenset((names[group[a]], names[group[b]])))
    return MonotoneDnf(universe, frozenset(terms)), universe
