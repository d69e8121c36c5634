"""Worst-case analysis of interactive evaluation for Boolean provenance."""

from .expr import (
    Expression,
    ExpressionSet,
    MonotoneDnf,
    Valuation,
    VariableUniverse,
    evaluate,
    parse_expressions,
    to_monotone_dnf,
)
from .strategy import (
    DecisionDiagram,
    DepthReport,
    decide_depth_at_most,
    diagram_depth,
    greedy_strategy,
    is_evasive,
    optimal_depth,
    run_session,
)
from .graphdnf import (
    GraphDnf,
    Pattern,
    decide_evasive_acyclic,
    find_pattern,
    from_monotone_dnf,
)
from .readonce import evasive_by_read_once, factor_read_once
from .provenance import (
    AnnotatedDatabase,
    ProvenancedResult,
    Query,
    dnf_to_database,
    eval_query,
    load_database,
    max_term_size,
    possible_world,
)
from .families import FamilySpec, generate, psi_strategy

__version__ = "0.1.0"
