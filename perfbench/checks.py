"""Answer checks that do not go through the library's own evaluator.

Expressions are read by a small parser of their own into tuples
``("v", name) | ("n", x) | ("a", [xs]) | ("o", [xs])``; truth tables over a
variable order are big integers, bit ``i`` holding the value under the
valuation whose bit ``p`` gives variable ``p``.
"""

from __future__ import annotations

import re
from collections import deque


class WrongAnswer(Exception):
    pass


def expect(ok: bool, message: str):
    if not ok:
        raise WrongAnswer(message)


# --- expressions ---------------------------------------------------------------

_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|[&|!()])")
_PREC = {"|": 1, "&": 2, "!": 3}
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def parse_formula(text: str):
    """Shunting-yard parse of one expression; iterative, so deep nesting is
    fine."""
    out: list = []
    ops: list[str] = []

    def reduce():
        op = ops.pop()
        if op == "!":
            out.append(("n", out.pop()))
            return
        b, a = out.pop(), out.pop()
        kind = "a" if op == "&" else "o"
        parts = (a[1] if a[0] == kind else [a]) + (b[1] if b[0] == kind else [b])
        out.append((kind, parts))

    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        expect(m is not None, f"cannot read formula at {text[pos:pos + 20]!r}")
        tok, pos = m.group(1), m.end()
        if tok == "(":
            ops.append(tok)
        elif tok == ")":
            while ops[-1] != "(":
                reduce()
            ops.pop()
        elif tok == "!":
            ops.append(tok)
        elif tok in "&|":
            while ops and ops[-1] != "(" and _PREC[ops[-1]] >= _PREC[tok]:
                reduce()
            ops.append(tok)
        else:
            out.append(("v", tok))
    while ops:
        reduce()
    expect(len(out) == 1, "malformed formula")
    return out[0]


def parse_file(text: str) -> tuple[list[str], list]:
    """(universe names, member formulas) of an expression file."""
    lines = [ln.split("#")[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    names = None
    if lines and lines[0].startswith("vars:"):
        names = lines.pop(0)[len("vars:"):].split()
    members = [parse_formula(ln) for ln in lines]
    if names is None:
        names = []
        for member in members:
            for v in variables(member):
                if v not in names:
                    names.append(v)
    return names, members


def variables(node) -> list[str]:
    seen: list[str] = []
    stack = [node]
    while stack:
        n = stack.pop()
        if n[0] == "v":
            if n[1] not in seen:
                seen.append(n[1])
        elif n[0] == "n":
            stack.append(n[1])
        else:
            stack.extend(reversed(n[1]))
    return seen


def fmt(node, ctx: str = "top") -> str:
    """Flat n-ary text: ``a&b | c&d``, parentheses only where needed."""
    kind = node[0]
    if kind == "v":
        return node[1]
    if kind == "n":
        return "!" + fmt(node[1], "not")
    if kind == "a":
        s = "&".join(fmt(c, "and") for c in node[1])
        return s if ctx in ("top", "or") else f"({s})"
    s = " | ".join(fmt(c, "or") for c in node[1])
    return s if ctx == "top" else f"({s})"


def dnf_node(terms) -> tuple:
    """A monotone DNF as a formula, terms and variables in sorted order."""
    ands = [("a", [("v", v) for v in sorted(t)]) if len(t) > 1 else ("v", next(iter(t)))
            for t in sorted(terms, key=sorted)]
    return ("o", ands) if len(ands) > 1 else ands[0]


def masks(m: int) -> list[int]:
    """Per variable p, the table of the projection x_p: blocks of 2^p zero
    bits and 2^p one bits, repeated by doubling up to 2^m bits."""
    out = []
    for p in range(m):
        mask, length = ((1 << (1 << p)) - 1) << (1 << p), 1 << (p + 1)
        while length < 1 << m:
            mask |= mask << length
            length <<= 1
        out.append(mask)
    return out


def table(node, position: dict[str, int], vmasks: list[int], full: int) -> int:
    kind = node[0]
    if kind == "v":
        return vmasks[position[node[1]]]
    if kind == "n":
        return full & ~table(node[1], position, vmasks, full)
    parts = [table(c, position, vmasks, full) for c in node[1]]
    acc = full if kind == "a" else 0
    for p in parts:
        acc = acc & p if kind == "a" else acc | p
    return acc


def tables(names: list[str], members: list) -> list[int]:
    vmasks = masks(len(names))
    full = (1 << (1 << len(names))) - 1
    position = {v: p for p, v in enumerate(names)}
    return [table(m, position, vmasks, full) for m in members]


def absorb(terms) -> frozenset:
    terms = set(terms)
    return frozenset(t for t in terms if not any(o < t for o in terms))


def dnf_terms(node) -> frozenset:
    """Absorbed term set of a negation-free formula."""
    kind = node[0]
    if kind == "v":
        return frozenset([frozenset([node[1]])])
    expect(kind != "n", "negation in a monotone formula")
    parts = [dnf_terms(c) for c in node[1]]
    if kind == "o":
        return absorb(t for p in parts for t in p)
    acc = frozenset([frozenset()])
    for p in parts:
        acc = absorb(a | b for a in acc for b in p)
    return acc


def check_factored(text: str, terms: frozenset):
    """``text`` is read-once and has exactly the DNF ``terms``."""
    names = _NAME.findall(text)
    expect(len(names) == len(set(names)), f"factored form is not read-once: {text[:80]}")
    expect(dnf_terms(parse_formula(text)) == terms, f"factored form is not equivalent: {text[:80]}")


# --- diagrams ------------------------------------------------------------------

def diagram_from_json(doc) -> tuple[list, int]:
    nodes = [("leaf", tuple(n["labels"])) if n["kind"] == "leaf"
             else ("probe", n["variable"], n["true"], n["false"]) for n in doc["nodes"]]
    return nodes, doc["root"]


def diagram_from_library(d) -> tuple[list, int]:
    nodes = [("probe", n.variable, n.on_true, n.on_false) if hasattr(n, "variable")
             else ("leaf", tuple(n.labels)) for n in d.nodes]
    return nodes, d.root


def check_diagram(nodes: list, root: int, names: list[str], member_tables: list[int]) -> int:
    """Depth of a sound diagram; raises ``WrongAnswer`` unless every one of
    the 2^m valuations reaches a leaf whose labels are the members' values."""
    position = {v: p for p, v in enumerate(names)}
    vmasks = masks(len(names))
    full = (1 << (1 << len(names))) - 1
    # reverse post-order from the root is a topological order
    order, state, stack = [], {}, [(root, False)]
    while stack:
        i, done = stack.pop()
        if done:
            state[i] = 2
            order.append(i)
            continue
        expect(0 <= i < len(nodes), f"diagram node {i} out of range")
        if state.get(i) == 2:
            continue
        expect(state.get(i) != 1, "diagram has a cycle")
        state[i] = 1
        stack.append((i, True))
        if nodes[i][0] == "probe":
            stack.append((nodes[i][3], False))
            stack.append((nodes[i][2], False))
    order.reverse()
    reach = {root: full}
    depth = {}
    for i in order:
        node, r = nodes[i], reach.pop(i, 0)  # 2^m-bit masks: keep only the frontier
        if node[0] == "leaf":
            expect(len(node[1]) == len(member_tables), "leaf label count differs")
            for label, t in zip(node[1], member_tables):
                expect((t & r) == (r if label else 0), "diagram is unsound")
            continue
        expect(node[1] in position, f"diagram probes unknown variable {node[1]!r}")
        vm = vmasks[position[node[1]]]
        reach[node[2]] = reach.get(node[2], 0) | (r & vm)
        reach[node[3]] = reach.get(node[3], 0) | (r & ~vm & full)
    for i in reversed(order):
        node = nodes[i]
        depth[i] = 0 if node[0] == "leaf" else 1 + max(depth[node[2]], depth[node[3]])
    return depth[root]


# --- graph DNFs -----------------------------------------------------------------

def tree_evasive(edges: list[tuple[str, str]]) -> bool:
    """Evasiveness of a connected tree 2-DNF from the pattern definition: a
    node is special when it is a leaf, or when every child has a special
    grandchild; the tree is evasive iff no root is special."""
    adj: dict[str, list[str]] = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    for root in adj:
        parent = {root: None}
        order = [root]
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w != parent[v]:
                    parent[w] = v
                    order.append(w)
                    queue.append(w)
        kids = {v: [w for w in adj[v] if w != parent[v]] for v in adj}
        special = {}
        for v in reversed(order):
            special[v] = all(any(special[w] for z in kids[y] for w in kids[z])
                             for y in kids[v])
        if special[root]:
            return False
    return True
