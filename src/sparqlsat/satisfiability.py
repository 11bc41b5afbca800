"""The satisfiability decision core.

For patterns whose filter constraints stay inside one of the two decidable
fragments, satisfiability is exactly nonemptiness of the (pruned) scheme
family, and a SAT verdict comes with a checkable witness graph: instantiate
every triple pattern under a constant mapping (equality fragment) or an
injective mapping into fresh IRIs (nonequality fragment).  A composite
condition is classified and decided on its negation normal form, a
monotone AND/OR of the fragment's atoms, so the pattern is not rebuilt.
Union-free well-designed patterns outside those fragments (route `none`)
are first expanded to disjunctive normal form, then reduce to their
AND/FILTER core, where a bound check and a consistency check of its value
constraints decide, and the sample is picked arm by arm.  Everything else
is answered Unknown, never guessed.  On the fragment routes,
`decide_satisfiability` (`check`) skips the well-designedness check, which
only the `well_designed` field of `run_pipeline`'s report (`analyze`) reads.

A pattern with no filter condition left after the rewrites is in both
fragments, and its scheme table is {∅} at every node.  Without a UNION as
well, the sample walk would reach every triple, so the pipeline takes the
whole witness model, whose variables are the triples', as the sample.
"""

from __future__ import annotations

import enum
from operator import attrgetter
from time import perf_counter_ns

from .constraints import Failure, fresh_iris, solve_constraints
from .errors import (
    NormalizationBlowup,
    NotNormalized,
    NotWellDesigned,
    PreconditionViolated,
    SchemeSetBlowup,
    UnsupportedOpaquePredicate,
)
# `candidate_schemes` and `evaluate` are not called here, but stay names of
# this module: bench/layertrace.py times the layers by rebinding them here
from .evaluator import _graph_index, _solutions, compatible, evaluate
from .normalize import negation_normal_forms, normalize_filters
from .patterns import (
    And,
    Bound,
    Eq,
    EqC,
    Filter,
    Neq,
    NeqC,
    NegBound,
    Opt,
    Pattern,
    PatternFacts,
    TriplePattern,
    Union,
    is_atomic,
    pattern_facts,
)
from .record import Record, _setattr
from .rewrites import af_core, select_eliminate_info, union_free_split, wrong_literal_reduce
from .schemes import candidate_schemes, scheme_sort_key, scheme_table
from .terms import Literal, Mapping, RdfGraph, RdfTriple, Scheme, Variable, format_term
from .welldesigned import derive_sort_map, extract_constraints, is_well_designed


class ConstraintKind(enum.Enum):
    BOUND = "bound"
    NEG_BOUND = "!bound"
    EQUALITY = "="
    NONEQUALITY = "!="
    CONSTANT_EQ = "=c"
    CONSTANT_NEQ = "!=c"


_KIND_OF = {
    Bound: ConstraintKind.BOUND,
    NegBound: ConstraintKind.NEG_BOUND,
    Eq: ConstraintKind.EQUALITY,
    Neq: ConstraintKind.NONEQUALITY,
    EqC: ConstraintKind.CONSTANT_EQ,
    NeqC: ConstraintKind.CONSTANT_NEQ,
}

EQUALITY_FRAGMENT = frozenset(
    (ConstraintKind.BOUND, ConstraintKind.EQUALITY, ConstraintKind.CONSTANT_NEQ)
)
NONEQUALITY_FRAGMENT = frozenset(
    (ConstraintKind.BOUND, ConstraintKind.NONEQUALITY, ConstraintKind.CONSTANT_NEQ)
)


class Route(enum.Enum):
    """Which decidable fragment's witness construction applies."""

    EQUALITY = "equality"
    NONEQUALITY = "nonequality"
    BOTH = "both"
    NONE = "none"


class FragmentProfile(Record):
    __slots__ = ("kinds", "route")

    def __init__(self, kinds: frozenset, route: Route):
        _setattr(self, "kinds", kinds)
        _setattr(self, "route", route)


def classify_fragment(
    pattern: Pattern, *, facts: PatternFacts | None = None, nnfs: dict | None = None
) -> FragmentProfile:
    """Collect the constraint kinds used and pick the decidable route, if any
    (`facts`, if given, are `pattern_facts(pattern)`).  A composite
    condition's kinds are its atoms' in `nnfs`, the negation normal forms
    of `negation_normal_forms`."""
    facts = facts or pattern_facts(pattern)
    kinds = set()
    for condition in facts.conditions:
        if is_atomic(condition):
            kinds.add(_KIND_OF[type(condition)])
        elif nnfs and id(condition) in nnfs:
            kinds.update(_KIND_OF[type(step)] for step in nnfs[id(condition)] if type(step) is not tuple)
        else:
            raise NotNormalized("classify_fragment requires atomic filter constraints")
    kinds = frozenset(kinds)
    in_eq = kinds <= EQUALITY_FRAGMENT
    in_neq = kinds <= NONEQUALITY_FRAGMENT
    if in_eq and in_neq:
        route = Route.BOTH
    elif in_eq:
        route = Route.EQUALITY
    elif in_neq:
        route = Route.NONEQUALITY
    else:
        route = Route.NONE
    return FragmentProfile(kinds, route)


# --- verdicts -----------------------------------------------------------------

class UnsatReason(enum.Enum):
    WRONG_LITERAL = "wrong-literal"
    EMPTY_SCHEMES = "empty-schemes"
    INCONSISTENT_CONSTRAINTS = "inconsistent-constraints"
    SORT_CONFLICT = "sort-conflict"


class Satisfiable(Record):
    """SAT verdict: the evaluator returns the `sample` mapping on the
    `witness` graph."""

    __slots__ = ("witness", "sample")

    def __init__(self, witness: RdfGraph, sample: Mapping):
        _setattr(self, "witness", witness)
        _setattr(self, "sample", sample)


class Unsatisfiable(Record):
    __slots__ = ("reason",)  # an UnsatReason


class Unknown(Record):
    __slots__ = ("reason",)  # a text


Verdict = Satisfiable | Unsatisfiable | Unknown


# --- witness graphs for the decidable fragments --------------------------------

def _instantiate(facts: PatternFacts, model: Mapping) -> RdfGraph:
    """The triple patterns with every variable replaced by its model value;
    a constant is not in the model and stands for itself."""
    image = model._map.get
    triples = []
    for tp in facts.triples:
        subject, predicate, obj = tp.subject, tp.predicate, tp.object
        try:
            triples.append(RdfTriple(image(subject, subject), image(predicate, predicate), image(obj, obj)))
        except ValueError as exc:
            raise PreconditionViolated(f"triple pattern instantiates outside RDF: {exc}") from exc
    return RdfGraph.of(triples)


def _witness(pattern: Pattern, fragment: frozenset, name: str, model_of) -> tuple[RdfGraph, Mapping]:
    facts = pattern_facts(pattern)
    profile = classify_fragment(pattern, facts=facts)
    if not profile.kinds <= fragment:
        raise PreconditionViolated(f"{name} requires constraint kinds within {sorted(k.value for k in fragment)}")
    if not scheme_table(pattern, facts=facts)[1][id(pattern)]:
        raise PreconditionViolated(f"{name} requires a nonempty scheme family")
    model = model_of(facts)
    return _instantiate(facts, model), model


#: A variable's name, read from its slot: the order of a mapping's items.
_name = attrgetter("_key")


def _constant_model(facts: PatternFacts) -> Mapping:
    constant = next(fresh_iris(facts.constants))
    return Mapping._trusted(tuple([(v, constant) for v in sorted(facts.variables, key=_name)]))


def _injective_model(facts: PatternFacts) -> Mapping:
    pool = fresh_iris(facts.constants)
    return Mapping._trusted(tuple([(v, next(pool)) for v in sorted(facts.variables, key=_name)]))


def constant_witness(pattern: Pattern) -> tuple[RdfGraph, Mapping]:
    """Witness for the bound/equality/constant-nonequality fragment.

    Maps every variable to one fresh IRI that avoids every constant of the
    pattern (in particular every constant-nonequality constant) and collects
    the instantiated triple patterns.
    """
    return _witness(pattern, EQUALITY_FRAGMENT, "constant_witness", _constant_model)


def injective_witness(pattern: Pattern) -> tuple[RdfGraph, Mapping]:
    """Witness for the bound/nonequality/constant-nonequality fragment.

    Maps the variables injectively to fresh IRIs disjoint from every constant
    of the pattern (the constant-nonequality constants in particular).
    """
    return _witness(pattern, NONEQUALITY_FRAGMENT, "injective_witness", _injective_model)


def _realized_solution(pattern: Pattern, model: Mapping, table: dict) -> Mapping:
    """A restriction of the witness model that the evaluator must return.

    Follows the inductive argument behind the witness construction: choose a
    maximal scheme at the root and descend with a worklist of (node, target).
    Every maximal scheme of a join, and of an optional join whose arm has
    schemes at all, is the union of maximal schemes of its two sides; the
    arm's solutions are restrictions of the same model, hence always
    compatible, so the arm is always joined.
    """
    realized: set = set()
    work = [(pattern, min(table[id(pattern)], key=scheme_sort_key))]
    while work:
        node, target = work.pop()
        kind = type(node)
        if kind is TriplePattern:
            for term in (node.subject, node.predicate, node.object):
                if type(term) is Variable:
                    realized.add(term)
        elif kind is Union:
            branch = node.left if target in table[id(node.left)] else node.right
            if target not in table[id(branch)]:
                raise AssertionError("target scheme lost in union branch")
            work.append((branch, target))
        elif kind is And or (kind is Opt and table[id(node.right)]):
            left, right = table[id(node.left)], table[id(node.right)]
            if len(left) == 1 == len(right):  # nothing to order
                (s1,), (s2,) = left, right
                if s1 | s2 != target:
                    raise AssertionError("target scheme not decomposable over a join")
                work += ((node.left, s1), (node.right, s2))
            else:
                work += _decompose(node, target, table)
        elif kind is Opt:  # the optional arm has no solutions
            work.append((node.left, target))
        elif kind is Filter:
            work.append((node.pattern, target))
        else:
            raise TypeError(f"not a pattern node: {node!r}")
    return model.restrict(realized)


def _decompose(node: Pattern, target: Scheme, table: dict) -> tuple:
    """The first maximal schemes of the two sides whose union is `target`."""
    for s1 in sorted(table[id(node.left)], key=scheme_sort_key):
        if not s1 <= target:
            continue
        for s2 in sorted(table[id(node.right)], key=scheme_sort_key):
            if s1 | s2 == target:
                return (node.left, s1), (node.right, s2)
    raise AssertionError("target scheme not decomposable over a join")


# --- the decision pipeline ------------------------------------------------------

class PipelineResult(Record):
    """Everything the batch analyzer wants to report about one pattern: the
    verdict, the FragmentProfile (None before classification), whether the
    pattern is well-designed (None if not known), whether the wrong-literal
    reduction modified it, and the blocking feature's text or None."""

    __slots__ = ("verdict", "profile", "well_designed", "wrong_literal_modified", "blocking")

    def __init__(self, verdict: Verdict, profile: FragmentProfile | None, well_designed: bool | None,
                 wrong_literal_modified: bool, blocking: str | None):
        _setattr(self, "verdict", verdict)
        _setattr(self, "profile", profile)
        _setattr(self, "well_designed", well_designed)
        _setattr(self, "wrong_literal_modified", wrong_literal_modified)
        _setattr(self, "blocking", blocking)


def decide_satisfiability(pattern: Pattern, *, builtins_as_bound: bool = False) -> Verdict:
    """Decide satisfiability where possible; Unknown names the blocker otherwise.
    The verdict is `run_pipeline`'s, without its well-designedness check on
    the fragment routes, where only the report reads it."""
    return _run_stages(pattern, builtins_as_bound, lambda stage: None, report=False).verdict


def run_pipeline(
    pattern: Pattern,
    *,
    builtins_as_bound: bool = False,
    stage_ns: dict | None = None,
) -> PipelineResult:
    """Rewrite, classify and decide one pattern.

    With a `stage_ns` dict, the nanoseconds spent in each stage are added
    to it under `wrong_literal` (SELECT elimination, normalization, the
    wrong-literal reduction and classification), `well_designed` (the
    union-free split, the well-designedness check and the well-designed core
    decision) and `schemes` (the scheme table, witness and sample of the
    fragment route); a stage left by an exception is charged up to the
    raise.  Without one, no clock is read.
    """
    if stage_ns is None:
        return _run_stages(pattern, builtins_as_bound, lambda stage: None)
    running = ["wrong_literal", perf_counter_ns()]

    def enter(stage):
        now = perf_counter_ns()
        stage_ns[running[0]] = stage_ns.get(running[0], 0) + now - running[1]
        running[:] = stage, now

    try:
        return _run_stages(pattern, builtins_as_bound, enter)
    finally:
        enter(None)


def _run_stages(pattern: Pattern, builtins_as_bound: bool, enter, report: bool = True) -> PipelineResult:
    """`run_pipeline`'s body; `enter(stage)` is called as each timed stage
    after the first begins.  Without `report`, the fragment routes leave
    `well_designed` None, as their verdict does not read it.  Each stage
    reads the facts of its input, which are collected again only when a
    rewrite returns a new pattern; SELECT elimination returns those of its
    result.

    Composite conditions are classified on their negation normal forms,
    which the fragment route decides as they stand.  Route `none`, and an
    opaque call without `builtins_as_bound`, take the disjunctive normal
    form of `normalize_filters` instead: the well-designed core needs
    atomic conjunctions, and the DNF names the opaque call or its own
    blowup.  Its atoms are the NNFs', so the route stays."""
    core, fresh_introduced, facts = select_eliminate_info(pattern, facts=pattern_facts(pattern))
    nnfs = negation_normal_forms(facts.conditions, builtins_as_bound)
    profile = None if nnfs is None else classify_fragment(core, facts=facts, nnfs=nnfs)
    if profile is None or (nnfs and profile.route is Route.NONE):
        try:  # with an opaque call and no `builtins_as_bound`, this raises
            normalized = normalize_filters(core, builtins_as_bound=builtins_as_bound, facts=facts)
        except UnsupportedOpaquePredicate as exc:
            return PipelineResult(Unknown(str(exc)), None, None, False, "opaque-builtin")
        except NormalizationBlowup as exc:
            return PipelineResult(Unknown(str(exc)), None, None, False, "normalization-blowup")
        core, facts, nnfs = normalized, pattern_facts(normalized), {}

    reduced = wrong_literal_reduce(core, facts=facts)
    if reduced is None:
        return PipelineResult(
            Unsatisfiable(UnsatReason.WRONG_LITERAL), profile, None, True, None
        )
    modified = reduced is not core
    if modified:
        facts = pattern_facts(reduced)
        profile = classify_fragment(reduced, facts=facts, nnfs=nnfs)
    well_designed = None
    if report or profile.route is Route.NONE:
        enter("well_designed")
        members = union_free_split(reduced, facts=facts)
        blocking = _blocking_feature(members)
        well_designed = blocking is None

    if profile.route is not Route.NONE:
        enter("schemes")
        try:
            _, table = scheme_table(reduced, facts=facts, nnfs=nnfs)
        except SchemeSetBlowup as exc:
            return PipelineResult(Unknown(str(exc)), profile, well_designed, modified, "scheme-blowup")
        if not table[id(reduced)]:
            verdict: Verdict = Unsatisfiable(UnsatReason.EMPTY_SCHEMES)
        else:
            if profile.route in (Route.EQUALITY, Route.BOTH):
                model = _constant_model(facts)
            else:
                model = _injective_model(facts)
            witness = _instantiate(facts, model)
            if facts.conditions or Union in facts.node_types:
                sample = _realized_solution(reduced, model, table)
            else:  # the walk would reach every triple, and the model binds their variables only
                sample = model
            verdict = Satisfiable(witness, sample.drop(fresh_introduced))
        return PipelineResult(verdict, profile, well_designed, modified, None)

    if well_designed:
        reasons = []
        for member in members:
            member_verdict = _decide_well_designed_core(member.pattern)
            if isinstance(member_verdict, Satisfiable):
                sample = member_verdict.sample.drop(fresh_introduced)
                verdict = Satisfiable(member_verdict.witness, sample)
                return PipelineResult(verdict, profile, True, modified, None)
            reasons.append(member_verdict.reason)
        return PipelineResult(
            Unsatisfiable(reasons[0]), profile, True, modified, None
        )

    kinds = ", ".join(sorted(k.value for k in profile.kinds))
    return PipelineResult(
        Unknown(f"constraint kinds {{{kinds}}} are outside the decidable fragments and {blocking}"),
        profile,
        False,
        modified,
        blocking,
    )


def _blocking_feature(members) -> str | None:
    """Why the members are not all union-free and well-designed; None if they are."""
    for member in members:
        if not member.union_free:
            return "a UNION is nested under another operator"
        if not member.opt_or_filter:  # nothing for either condition to reject
            continue
        ok, violations = is_well_designed(member.pattern, first=True)
        if not ok:
            return f"the pattern is not well-designed ({violations[0].describe()})"
    return None


def decide_well_designed(pattern: Pattern) -> Verdict:
    """Decide a union-free well-designed pattern via its AND/FILTER core.

    Expects atomic constraints, no SELECT, and no literal-subject triples
    (run the earlier pipeline stages first).
    """
    ok, violations = is_well_designed(pattern)  # also rejects UNION / SELECT
    if not ok:
        raise NotWellDesigned("; ".join(v.describe() for v in violations))
    if any(isinstance(tp.subject, Literal) for tp in pattern_facts(pattern).triples):
        raise PreconditionViolated("run wrong_literal_reduce before the well-designed decision")
    return _decide_well_designed_core(pattern)


def _decide_well_designed_core(pattern: Pattern) -> Verdict:
    """decide_well_designed without its checks: assumes a well-designed member.

    The member is read twice, over its AND/FILTER core only: `af_core` walks
    the core's edges, giving the core and its optional arms, and
    `pattern_facts` walks the core.  An arm's nodes are first visited when
    `_solutions` evaluates it.  The core's filters mention only its triples'
    variables, its one scheme, so only a `!bound` there empties its family.
    The arms on the core share only core variables, so the model's least
    extension is each arm's least."""
    reduced, arms = af_core(pattern)
    facts = pattern_facts(reduced)
    if NegBound in map(type, facts.conditions):
        return Unsatisfiable(UnsatReason.EMPTY_SCHEMES)

    solved = solve_constraints(extract_constraints(reduced, facts=facts), derive_sort_map(reduced, facts=facts))
    if solved is Failure.SORT_CLASH:
        return Unsatisfiable(UnsatReason.SORT_CONFLICT)
    if isinstance(solved, Failure):
        return Unsatisfiable(UnsatReason.INCONSISTENT_CONSTRAINTS)

    pool = fresh_iris(facts.constants | frozenset(t for _, t in solved.items()))
    bindings = dict(solved.items())
    for var in sorted(facts.variables - solved.domain, key=lambda v: v.name):
        bindings[var] = next(pool)
    model = Mapping(bindings)

    witness = _instantiate(facts, model)
    index = _graph_index(witness)
    for arm in arms:
        parts = [m.drop(facts.variables) for m in _solutions(arm, index) if compatible(m, model)]
        if parts:
            bindings.update(min(parts, key=_mapping_sort_key).items())
    return Satisfiable(witness, Mapping(bindings))


def _mapping_sort_key(mapping: Mapping):
    return (len(mapping), tuple((v.name, format_term(t)) for v, t in mapping.items()))
