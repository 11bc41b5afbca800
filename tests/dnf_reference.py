"""The decision pipeline as it stood when every composite filter was first
expanded to disjunctive normal form, kept as the reference the differential
tests compare `run_pipeline` against: `normalize_filters`, kept here as it
was, with its own walk that pushes negation to the atoms, rebuilds the
pattern with one UNION branch per DNF disjunct, and every later stage reads
the rebuilt pattern.  The DNF cap makes it answer Unknown on conditions
that the negation normal form decides.

One difference is meant: on the fragment routes, `well_designed` is read on
the pattern as written (after SELECT elimination and the wrong-literal
reduction), as the pipeline reads it there, and not on its DNF, in which a
composite filter under an operator was a nested UNION.
"""

from __future__ import annotations

from sparqlsat.errors import NormalizationBlowup, SchemeSetBlowup, UnsupportedOpaquePredicate
from sparqlsat.normalize import DEFAULT_DNF_CAP
from sparqlsat.patterns import (
    AndExpr,
    Bound,
    Eq,
    EqC,
    Filter,
    Neq,
    NeqC,
    NegBound,
    NotExpr,
    Opaque,
    OrExpr,
    Union,
    is_atomic,
    pattern_facts,
    rebuilt,
)
from sparqlsat.rewrites import select_eliminate_info, union_free_split, wrong_literal_reduce
from sparqlsat.satisfiability import (
    PipelineResult,
    Route,
    Satisfiable,
    Unknown,
    Unsatisfiable,
    UnsatReason,
    _blocking_feature,
    _constant_model,
    _decide_well_designed_core,
    _injective_model,
    _instantiate,
    _realized_solution,
    classify_fragment,
)
from sparqlsat.schemes import scheme_table


def run_reference(pattern, builtins_as_bound: bool = False) -> PipelineResult:
    """What the DNF pipeline reports on `pattern`."""
    core, fresh, _ = select_eliminate_info(pattern)
    try:
        normalized = normalize_filters(core, builtins_as_bound)
    except UnsupportedOpaquePredicate as exc:
        return PipelineResult(Unknown(str(exc)), None, None, False, "opaque-builtin")
    except NormalizationBlowup as exc:
        return PipelineResult(Unknown(str(exc)), None, None, False, "normalization-blowup")
    reduced = wrong_literal_reduce(normalized)
    if reduced is None:
        return PipelineResult(Unsatisfiable(UnsatReason.WRONG_LITERAL), classify_fragment(normalized), None, True, None)
    modified = reduced is not normalized
    profile = classify_fragment(reduced)
    blocking = _blocking_feature(union_free_split(reduced))

    if profile.route is not Route.NONE:
        well_designed = _blocking_feature(union_free_split(wrong_literal_reduce(core))) is None
        try:
            _, table = scheme_table(reduced)
        except SchemeSetBlowup as exc:
            return PipelineResult(Unknown(str(exc)), profile, well_designed, modified, "scheme-blowup")
        if not table[id(reduced)]:
            return PipelineResult(Unsatisfiable(UnsatReason.EMPTY_SCHEMES), profile, well_designed, modified, None)
        facts = pattern_facts(reduced)
        model = (_injective_model if profile.route is Route.NONEQUALITY else _constant_model)(facts)
        sample = _realized_solution(reduced, model, table).drop(fresh)
        return PipelineResult(Satisfiable(_instantiate(facts, model), sample), profile, well_designed, modified, None)

    if blocking is None:
        reasons = []
        for member in union_free_split(reduced):
            verdict = _decide_well_designed_core(member.pattern)
            if isinstance(verdict, Satisfiable):
                verdict = Satisfiable(verdict.witness, verdict.sample.drop(fresh))
                return PipelineResult(verdict, profile, True, modified, None)
            reasons.append(verdict.reason)
        return PipelineResult(Unsatisfiable(reasons[0]), profile, True, modified, None)
    kinds = ", ".join(sorted(k.value for k in profile.kinds))
    reason = f"constraint kinds {{{kinds}}} are outside the decidable fragments and {blocking}"
    return PipelineResult(Unknown(reason), profile, False, modified, blocking)


def normalize_filters(pattern, builtins_as_bound: bool = False):
    """Every composite filter as atomic FILTER chains under a balanced UNION
    of its DNF's disjuncts."""
    facts = pattern_facts(pattern)
    if all(is_atomic(condition) for condition in facts.conditions):
        return pattern
    done: dict = {}
    for node in facts.order:
        if type(node) is not Filter or is_atomic(node.condition):
            done[id(node)] = rebuilt(node, done)
            continue
        branches = []
        for conjunct in _to_dnf(node.condition, builtins_as_bound):
            branch = done[id(node.pattern)]
            for atom in conjunct:
                branch = Filter(branch, atom)
            branches.append(branch)
        while len(branches) > 1:
            branches = [
                Union(branches[i], branches[i + 1]) if i + 1 < len(branches) else branches[i]
                for i in range(0, len(branches), 2)
            ]
        done[id(node)] = branches[0]
    return done[id(pattern)]


_NEGATED = {Bound: NegBound, NegBound: Bound, Eq: Neq, Neq: Eq, EqC: NeqC, NeqC: EqC}


def _lowered(atom, builtins_as_bound: bool, negated: bool) -> list:
    """The conjunction an atom, or its negation, lowers to."""
    if isinstance(atom, Opaque):  # either polarity asks for its mentions bound
        if not builtins_as_bound:
            raise UnsupportedOpaquePredicate(f"opaque builtin call in filter: {atom.text!r}")
        return [Bound(v) for v in sorted(atom.mentions, key=lambda v: v.name)]
    if not negated:
        return [atom]
    if isinstance(atom, Eq) and atom.left == atom.right:  # never satisfied
        return [Bound(atom.left), NegBound(atom.left)]
    return [_NEGATED[type(atom)](*(getattr(atom, field) for field in atom.__slots__))]


def _to_dnf(condition, builtins_as_bound: bool) -> list:
    """The DNF of a condition by binary expansion, left operand first, on
    an explicit stack; an entry `(_and or _or, None)` combines the two DNFs
    just done."""
    done: list = []
    todo: list = [(condition, False)]
    while todo:
        expr, negated = todo.pop()
        if negated is None:
            right = done.pop()
            done.append(expr(done.pop(), right))
        elif isinstance(expr, NotExpr):
            todo.append((expr.operand, not negated))
        elif isinstance(expr, (AndExpr, OrExpr)):
            combine = _or if isinstance(expr, OrExpr) != negated else _and
            todo += ((combine, None), (expr.right, negated), (expr.left, negated))
        else:
            done.append([_lowered(expr, builtins_as_bound, negated)])
    return [list(dict.fromkeys(c)) for c in done.pop()]


def _or(left: list, right: list) -> list:
    if len(left) + len(right) > DEFAULT_DNF_CAP:
        raise NormalizationBlowup(f"DNF exceeds {DEFAULT_DNF_CAP} disjuncts")
    return left + right


def _and(left: list, right: list) -> list:
    if len(left) * len(right) > DEFAULT_DNF_CAP:
        raise NormalizationBlowup(f"DNF exceeds {DEFAULT_DNF_CAP} disjuncts")
    return [l + r for l in left for r in right]
