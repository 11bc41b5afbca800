"""The well-designed core decision, kept as written before the per-arm
sample replaced it, as the reference the differential tests compare
against: the core's full scheme family decides the bound check, and the
sample is the least solution of the whole pattern on the witness that
extends the core model.

Evaluating the whole pattern is exponential in the optional arms over a
multi-valued property, so this is only for the small patterns the tests
generate.
"""

from __future__ import annotations

from sparqlsat.constraints import Failure, fresh_iris, solve_constraints
from sparqlsat.evaluator import evaluate
from sparqlsat.patterns import pattern_facts
from sparqlsat.rewrites import af_reduce
from sparqlsat.satisfiability import Satisfiable, Unsatisfiable, UnsatReason, _instantiate, _mapping_sort_key
from sparqlsat.schemes import candidate_schemes
from sparqlsat.terms import Mapping
from sparqlsat.welldesigned import derive_sort_map, extract_constraints


def decide_well_designed_core(pattern):
    """The verdict on a union-free well-designed pattern."""
    reduced = af_reduce(pattern)
    schemes = candidate_schemes(reduced)
    if not schemes:
        return Unsatisfiable(UnsatReason.EMPTY_SCHEMES)
    (scheme,) = schemes

    facts = pattern_facts(reduced)
    solved = solve_constraints(extract_constraints(reduced, facts=facts), derive_sort_map(reduced, facts=facts))
    if solved is Failure.SORT_CLASH:
        return Unsatisfiable(UnsatReason.SORT_CONFLICT)
    if isinstance(solved, Failure):
        return Unsatisfiable(UnsatReason.INCONSISTENT_CONSTRAINTS)

    pool = fresh_iris(facts.constants | frozenset(t for _, t in solved.items()))
    bindings = dict(solved.items())
    for var in sorted(scheme - solved.domain, key=lambda v: v.name):
        bindings[var] = next(pool)
    model = Mapping(bindings)

    witness = _instantiate(facts, model)
    extensions = [m for m in evaluate(pattern, witness) if m.extends(model)]
    if not extensions:
        raise AssertionError("witness graph lost the core solution")
    return Satisfiable(witness, min(extensions, key=_mapping_sort_key))
