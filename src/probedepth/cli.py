"""Command-line front door.

Exit codes: 0 success, 1 domain failure (e.g. cyclic input to the acyclic
method), 2 usage or parse error.  ``--json`` emits exactly one JSON document
on stdout.  The environment variable ``PROBEDEPTH_CAP`` overrides the
table cap: on the combined support of the set for the exact search, on each
member's support for the greedy strategy.  A cap above
``expr.MAX_TABLE_CAP`` is a usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from typing import Optional

from . import expr as ex
from . import families, graphdnf, provenance, readonce, strategy, treegen

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


class DomainFailure(Exception):
    pass


class UsageError(Exception):
    pass


def _cap() -> int:
    """``PROBEDEPTH_CAP``: a count of variables, so a negative one is a usage
    error, as a negative ``--budget`` is, and so is one wider than the
    widest table, ``expr.MAX_TABLE_CAP``."""
    raw = os.environ.get("PROBEDEPTH_CAP")
    if not raw:
        return ex.DEFAULT_TABLE_CAP
    try:
        value = int(raw)
    except ValueError:
        raise UsageError(f"PROBEDEPTH_CAP must be an integer, got {raw!r}") from None
    if value < 0:
        raise UsageError(f"PROBEDEPTH_CAP must be non-negative, got {value}")
    if value > ex.MAX_TABLE_CAP:
        raise UsageError(f"PROBEDEPTH_CAP must be at most {ex.MAX_TABLE_CAP}, got {value}")
    return value


def _count(text: str) -> int:
    """``--budget``, ``--trials`` and ``--k``: counts, so a negative one is a
    usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError:
            raise UsageError(f"{path} is not UTF-8 text") from None


def _read_expressions(path: str) -> ex.ExpressionSet:
    return ex.parse_expressions(_read_text(path))


def cmd_depth(args) -> int:
    s = _read_expressions(args.exprfile)
    report = strategy.optimal_depth(s, budget=args.budget, cap=_cap())
    if args.json:
        print(json.dumps({"depth": report.depth, "n": report.n,
                          "evasive": report.evasive,
                          "explored_states": report.explored_states}))
    else:
        print(f"depth={report.depth} n={report.n} evasive={str(report.evasive).lower()} "
              f"explored_states={report.explored_states}")
    return EXIT_OK


def _acyclic_pattern(s: ex.ExpressionSet) -> Optional[graphdnf.Pattern]:
    """The acyclic detector's witness for a single monotone 2-DNF member;
    ``None`` means evasive."""
    if len(s.members) != 1:
        raise DomainFailure("acyclic method applies to a single expression")
    dnf = ex.to_monotone_dnf(s.members[0])  # raises on negation
    return graphdnf.find_pattern(graphdnf.from_monotone_dnf(dnf))


def cmd_evasive(args) -> int:
    s = _read_expressions(args.exprfile)
    method = args.method
    pattern: Optional[graphdnf.Pattern] = None
    if method != "brute":
        try:
            pattern = _acyclic_pattern(s)
            method = "acyclic"
        except (DomainFailure, ex.ExprError, graphdnf.GraphDnfError):
            if method == "acyclic":
                raise
            method = "brute"
    if method == "acyclic":
        evasive = pattern is None
    else:
        evasive = strategy.is_evasive(s, cap=_cap())
    if args.json:
        print(json.dumps({"evasive": evasive, "method": method,
                          "pattern": str(pattern) if pattern else None}))
    else:
        print(f"evasive={str(evasive).lower()} method={method}")
        if pattern is not None:
            print(f"pattern: {pattern}")
    return EXIT_OK


def _choose_diagram(s: ex.ExpressionSet, greedy: bool) -> strategy.DecisionDiagram:
    if greedy:
        return strategy.greedy_strategy(s, cap=_cap())
    return strategy.optimal_depth(s, cap=_cap()).diagram


def cmd_strategy(args) -> int:
    s = _read_expressions(args.exprfile)
    diagram = _choose_diagram(s, args.greedy)
    if args.out == "dot":
        sys.stdout.write(strategy.to_dot(diagram))
    else:
        print(strategy.to_json(diagram))
    return EXIT_OK


def _parse_answer(value: object) -> bool:
    """An answer line or answers-file value: an answer string, a JSON
    boolean, or the integer 0 or 1."""
    if type(value) in (bool, int) and value in (0, 1):
        return bool(value)
    lowered = value.strip().lower() if isinstance(value, str) else None
    if lowered in ("y", "yes", "true", "1"):
        return True
    if lowered in ("n", "no", "false", "0"):
        return False
    shown = json.dumps(value) if lowered is None else repr(value)
    raise DomainFailure(f"cannot interpret answer {shown}")


def cmd_probe(args) -> int:
    s = _read_expressions(args.exprfile)
    diagram = _choose_diagram(s, args.greedy)
    if args.answers:
        try:
            raw = json.loads(_read_text(args.answers))
        except json.JSONDecodeError as exc:
            raise DomainFailure(f"answers file is not JSON: {exc}") from None
        except RecursionError:
            raise DomainFailure("answers file nested too deeply to read") from None
        if not isinstance(raw, dict):
            raise DomainFailure("answers file must hold a JSON object")
        source = {k: _parse_answer(v) for k, v in raw.items()}
    else:
        def source(name: str) -> bool:
            sys.stdout.write(f"{name}? [y/n] ")
            sys.stdout.flush()
            line = sys.stdin.readline()
            if not line:
                raise strategy.AnswersExhausted(f"no answer for variable {name!r}")
            return _parse_answer(line)

    try:
        transcript = strategy.run_session(diagram, source)
    except strategy.AnswersExhausted as exc:
        raise DomainFailure(str(exc)) from None
    for name, value in transcript.probes:
        print(f"probe {name} -> {str(value).lower()}")
    labels = " ".join(str(b).lower() for b in transcript.labels)
    print(f"labels: {labels}")
    print(f"probes: {transcript.probe_count}")
    return EXIT_OK


def cmd_prov(args) -> int:
    if args.prov_command == "eval":
        db = provenance.load_database(_read_text(args.db))
        q = provenance.query_from_json(_read_text(args.query))
        result = provenance.eval_query(db, q)
        print(provenance.result_to_json(result))
        return EXIT_OK
    # to-db
    s = _read_expressions(args.dnf)
    if len(s.members) != 1:
        raise DomainFailure("to-db expects a single expression")
    dnf = ex.to_monotone_dnf(s.members[0])
    db, query = provenance.dnf_to_database(dnf, args.k)
    # both documents are built first, so that a failure writes neither file
    documents = ((args.out_db, provenance.dump_database(db)),
                 (args.out_query, provenance.query_to_json(query)))
    for path, text in documents:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(f"wrote {args.out_db} and {args.out_query}")
    return EXIT_OK


def cmd_family(args) -> int:
    spec = families.FamilySpec(args.kind, args.parameter)
    s = families.generate(spec)
    if args.strategy_dot:
        if args.kind != "psi":
            raise DomainFailure("--strategy-dot is only defined for the psi family")
        sys.stdout.write(strategy.to_dot(families.psi_strategy(args.parameter)))
    else:
        sys.stdout.write(ex.format_expression_set(s))
    return EXIT_OK


def cmd_factor(args) -> int:
    s = _read_expressions(args.exprfile)
    outputs = []
    for m in s.members:
        dnf = ex.to_monotone_dnf(m)
        factored = readonce.factor_read_once(dnf)
        if factored is None:
            raise DomainFailure(f"factorization procedure failed on: {m}")
        outputs.append(str(factored))
    print("\n".join(outputs))
    return EXIT_OK


def _crosscheck_cases(max_nodes: int, trials: int, seed: int):
    """``(kind, label, dnf, universe)`` for every labeled tree on up to
    ``max_nodes`` nodes, then ``trials`` seeded random forests."""
    for n in range(1, max_nodes + 1):
        for edges in treegen.all_labeled_trees(n):
            g = treegen.tree_graph_dnf(edges, n)
            yield "tree", f"n={n} edges={edges}", g.to_monotone_dnf(), g.universe
    rng = random.Random(seed)
    for _ in range(trials):
        dnf, universe = treegen.random_forest_dnf(rng, max_vars=max_nodes)
        yield "forest", str(sorted(map(sorted, dnf.terms))), dnf, universe


def cmd_crosscheck(args) -> int:
    if not 1 <= args.max_nodes <= 8:
        raise DomainFailure(f"crosscheck needs 1 to 8 nodes, got {args.max_nodes}")
    checked = {"tree": 0, "forest": 0}
    disagreements = 0
    for kind, label, dnf, universe in _crosscheck_cases(args.max_nodes, args.trials,
                                                        args.seed):
        fast = graphdnf.decide_evasive_acyclic(dnf, universe)
        slow = strategy.is_evasive(ex.ExpressionSet(universe, (dnf.to_expression(),)))
        checked[kind] += 1
        if fast != slow:
            disagreements += 1
            print(f"DISAGREEMENT on {kind} {label}", file=sys.stderr)
    trees, forests = checked["tree"], checked["forest"]
    if args.json:
        print(json.dumps({"trees_checked": trees, "forests_checked": forests,
                          "disagreements": disagreements}))
    else:
        print(f"trees={trees} forests={forests} disagreements={disagreements}")
    return EXIT_OK if disagreements == 0 else EXIT_DOMAIN


@functools.cache  # built once per process: building costs ~40x a parse
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="probedepth",
                                     description="worst-case probing analysis "
                                                 "of Boolean provenance")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("depth", help="exact minimum worst-case probe count")
    p.add_argument("exprfile")
    p.add_argument("--budget", type=_count, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_depth)

    p = sub.add_parser("evasive", help="decide evasiveness")
    p.add_argument("exprfile")
    p.add_argument("--method", choices=("brute", "acyclic", "auto"), default="auto")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_evasive)

    p = sub.add_parser("strategy", help="emit a probing strategy diagram")
    p.add_argument("exprfile")
    p.add_argument("--out", choices=("dot", "json"), default="dot")
    p.add_argument("--greedy", action="store_true")
    p.set_defaults(func=cmd_strategy)

    p = sub.add_parser("probe", help="run a probing session")
    p.add_argument("exprfile")
    p.add_argument("--answers", help="JSON file mapping variables to booleans")
    p.add_argument("--greedy", action="store_true")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("prov", help="provenance commands")
    prov_sub = p.add_subparsers(dest="prov_command", required=True)
    pe = prov_sub.add_parser("eval", help="evaluate a query with provenance")
    pe.add_argument("--db", required=True)
    pe.add_argument("--query", required=True)
    pe.set_defaults(func=cmd_prov)
    pt = prov_sub.add_parser("to-db", help="encode a monotone k-DNF as a database")
    pt.add_argument("--dnf", required=True, help="expression file")
    pt.add_argument("--k", type=_count, required=True)
    pt.add_argument("--out-db", required=True)
    pt.add_argument("--out-query", required=True)
    pt.set_defaults(func=cmd_prov)

    p = sub.add_parser("family", help="generate a named expression family")
    p.add_argument("kind", choices=("psi", "path", "and", "or"))
    p.add_argument("parameter", type=int)
    p.add_argument("--strategy-dot", action="store_true")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("factor", help="read-once factorization of monotone members")
    p.add_argument("exprfile")
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("crosscheck", help="pattern detector vs brute-force oracle")
    p.add_argument("--max-nodes", type=int, default=7)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_count, default=200)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_crosscheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ex.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainFailure, ex.ExprError, strategy.StrategyError,
            graphdnf.GraphDnfError, provenance.ProvenanceError,
            families.FamilyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
