"""Static satisfiability analysis for SPARQL 1.0 patterns.

The package decides pattern satisfiability exactly where the constraint
fragment allows it, produces a checkable witness graph for every SAT verdict,
handles well-designed patterns through their AND/FILTER core, and ships the
relation-algebra and CNF reduction machinery as executable generators backed
by a reference set-semantics evaluator.
"""

from .constraints import Failure, SortReq, consistent, solve_constraints
from .evaluator import compatible, evaluate, format_graph, join, parse_graph, satisfies, set_minus
from .normalize import normalize_filters
from .patterns import (
    And,
    AndExpr,
    Bound,
    Eq,
    EqC,
    Filter,
    FreshVars,
    Neq,
    NeqC,
    NegBound,
    NotExpr,
    Opaque,
    Opt,
    OrExpr,
    Pattern,
    Select,
    TriplePattern,
    Union,
    vars_of,
)
from .rewrites import (
    af_reduce,
    exists_rewrite,
    select_eliminate,
    union_free_split,
    wrong_literal_reduce,
)
from .satisfiability import (
    FragmentProfile,
    Route,
    Satisfiable,
    Unknown,
    Unsatisfiable,
    UnsatReason,
    Verdict,
    classify_fragment,
    constant_witness,
    decide_satisfiability,
    decide_well_designed,
    injective_witness,
    run_pipeline,
)
from .schemes import admits, candidate_schemes, filter_variables, pruned_schemes
from .syntax import parse_pattern, serialize_pattern
from .terms import (
    BlankNode,
    Iri,
    Literal,
    Mapping,
    RdfGraph,
    RdfTriple,
    Scheme,
    SolutionSet,
    Variable,
)
from .welldesigned import extract_constraints, is_well_designed, outside_vars

__version__ = "0.1.0"

#: The reduction lab's names, loaded with `dalab` on first use: deciding a
#: query never needs them.
_DALAB_NAMES = frozenset((
    "ChoiceCoverInstance", "DComp", "DDiff", "DUnion", "Rel", "bounded_sat_search", "choice_cover_solve",
    "choice_cover_to_pattern", "cnf_to_choice_cover", "da_eval", "emulate_eqc", "emulate_eqneq",
    "emulate_negbound", "graph_of_relation", "parse_da", "parse_dimacs", "result_pairs",
))


def __getattr__(name: str):
    if name in _DALAB_NAMES:
        from . import dalab

        return getattr(dalab, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted(globals().keys() | _DALAB_NAMES)
