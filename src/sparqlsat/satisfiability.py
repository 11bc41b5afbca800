"""The satisfiability decision core.

For patterns whose filter constraints stay inside one of the two decidable
fragments, satisfiability is exactly nonemptiness of the (pruned) scheme
family, and a SAT verdict comes with a checkable witness graph: instantiate
every triple pattern under a constant mapping (equality fragment) or an
injective mapping into fresh IRIs (nonequality fragment).  A composite
condition is classified and decided on its negation normal form (NNF), a
monotone AND/OR of the fragment's atoms, so the pattern is not rebuilt.
Union-free well-designed patterns outside those fragments (route `none`)
reduce to their AND/FILTER core, where a bound check and a consistency
check of its value constraints decide, searched over the choices of
disjuncts of the core's NNFs, and the sample is picked arm by arm.
Everything else is answered Unknown, never guessed.  On the fragment routes,
`decide_satisfiability` (`check`) skips the well-designedness check, which
only the `well_designed` field of `run_pipeline`'s report (`analyze`) reads.

A pattern with no filter condition left after the rewrites is in both
fragments, and its scheme table is {∅} at every node.  On a fragment route,
the sample walk of a union-free pattern whose optional arms all have
schemes reaches every triple, so the pipeline takes the witness model,
restricted to the triples' variables, as the sample, without the walk.

A witness holds the triple patterns and the model: its `RdfTriple`s are
built when something first reads the graph's triples, by comparing,
hashing, copying, pickling, iterating or sizing it too.  `graph_lines`,
which `check` and `analyze` print, and the evaluator's index, which route
`none` reads to pick the sample and a caller may read to replay the
witness, read the images and build none.  A triple outside RDF still
raises when the witness is made.
"""

from __future__ import annotations

import enum
from operator import attrgetter
from time import perf_counter_ns

from .constraints import Failure, fresh_iris, solve_constraints
from .errors import (
    NotNormalized,
    NotWellDesigned,
    PreconditionViolated,
    SchemeSetBlowup,
    UnsupportedOpaquePredicate,
)
# `candidate_schemes`, `evaluate`, `extract_constraints` and
# `normalize_filters` are not called here, but stay names of this module:
# bench/layertrace.py times the layers by rebinding them here
from .evaluator import _graph_index, _solutions, compatible, evaluate
from .normalize import fold_nnf, negation_normal_forms, normalize_filters
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
from .terms import Iri, Literal, Mapping, RdfGraph, Scheme, Variable
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

#: The one term class an RDF triple takes in every position.
_IRI_ONLY = frozenset((Iri,))
_subject = attrgetter("subject")


def _instantiate(facts: PatternFacts, model: Mapping) -> RdfGraph:
    """The triple patterns with every variable replaced by its model value,
    which binds every variable of `facts`; a constant is not in the model
    and stands for itself.

    The graph builds its triples when first read, and a triple outside RDF
    raises here.  A triple pattern's constants are IRIs and literals, and
    its predicate no literal, so when every model value is an IRI only a
    literal subject leaves RDF.  Otherwise, with a literal subject or a
    model value that is no IRI, as route `none`'s solved constants may be,
    the triples are built here."""
    witness = RdfGraph.instantiated(facts.triples, model)
    if not _IRI_ONLY.issuperset(map(type, model._map.values())) or (
        Literal in map(type, map(_subject, facts.triples))
    ):
        try:
            witness.triples  # built now: the first triple outside RDF raises
        except ValueError as exc:
            raise PreconditionViolated(f"triple pattern instantiates outside RDF: {exc}") from exc
    return witness


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


def _reaches_every_triple(facts: PatternFacts, table: dict) -> bool:
    """Whether `_realized_solution`'s descent reaches every triple: on a
    union-free pattern it leaves out only an optional arm without schemes."""
    if Union in facts.node_types:
        return False
    return Opt not in facts.node_types or all(table[id(node.right)] for node in facts.order if type(node) is Opt)


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
    result.  Every route reads a composite condition on its negation normal
    form, so no stage rebuilds the pattern for it."""
    core, fresh_introduced, facts = select_eliminate_info(pattern, facts=pattern_facts(pattern))
    try:
        nnfs = negation_normal_forms(facts, builtins_as_bound)
    except UnsupportedOpaquePredicate as exc:
        return PipelineResult(Unknown(str(exc)), None, None, False, "opaque-builtin")
    profile = classify_fragment(core, facts=facts, nnfs=nnfs)

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
            if _reaches_every_triple(facts, table):  # the model, on the triples' variables
                sample = model
                if facts.filter_variables:
                    in_triples = {term for tp in facts.triples for term in (tp.subject, tp.predicate, tp.object)}
                    sample = model.drop(facts.filter_variables - in_triples)
            else:
                sample = _realized_solution(reduced, model, table)
            verdict = Satisfiable(witness, sample.drop(fresh_introduced))
        return PipelineResult(verdict, profile, well_designed, modified, None)

    if well_designed:
        verdicts = []
        budget = [CHOICE_CHECK_BUDGET]  # the members share it
        for member in members:
            member_verdict = _decide_well_designed_core(member.pattern, nnfs, budget)
            if isinstance(member_verdict, Satisfiable):
                sample = member_verdict.sample.drop(fresh_introduced)
                verdict = Satisfiable(member_verdict.witness, sample)
                return PipelineResult(verdict, profile, True, modified, None)
            verdicts.append(member_verdict)
        for member_verdict in verdicts:
            if isinstance(member_verdict, Unknown):
                return PipelineResult(member_verdict, profile, True, modified, "choice-budget")
        return PipelineResult(verdicts[0], profile, True, modified, None)

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

    Expects no opaque builtin call, no SELECT, and no literal-subject
    triples (run the earlier pipeline stages first).
    """
    ok, violations = is_well_designed(pattern)  # also rejects UNION / SELECT
    if not ok:
        raise NotWellDesigned("; ".join(v.describe() for v in violations))
    if any(isinstance(tp.subject, Literal) for tp in pattern_facts(pattern).triples):
        raise PreconditionViolated("run wrong_literal_reduce before the well-designed decision")
    return _decide_well_designed_core(pattern)


#: How many consistency checks `_consistent_choice` makes for one pattern,
#: its UNION members together, before it answers Unknown: deciding a
#: well-designed pattern is NP-complete, and the search over the choices of
#: disjuncts is where that cost lies.
CHOICE_CHECK_BUDGET = 10_000


def _decide_well_designed_core(pattern: Pattern, nnfs: dict | None = None, budget: list | None = None) -> Verdict:
    """decide_well_designed without its checks: assumes a well-designed member.

    The member is read twice, over its AND/FILTER core only: `af_core` walks
    the core's edges, giving the core and its optional arms, and
    `pattern_facts` walks the core.  An arm's nodes are first visited when
    `_solutions` evaluates it.  The core's filters mention only its triples'
    variables, its one scheme, so a `bound` there holds and a `!bound`
    empties its family; `_consistent_choice` decides the core on its
    conditions' negation normal forms, `nnfs` by identity (made here if not
    given), within `budget`, a one-item list of the checks left.  The arms
    on the core share only core variables, so the model's least extension
    is each arm's least."""
    reduced, arms = af_core(pattern)
    facts = pattern_facts(reduced)
    if nnfs is None:
        nnfs = negation_normal_forms(facts, False)
    sorts = derive_sort_map(reduced, facts=facts)
    solved = _consistent_choice(facts.conditions, nnfs, sorts, budget or [CHOICE_CHECK_BUDGET])
    if type(solved) is not Mapping:
        return solved

    pool = fresh_iris(facts.constants | frozenset(t for _, t in solved.items()))
    bindings = dict(solved.items())
    for var in sorted(facts.variables - solved.domain, key=lambda v: v.name):
        bindings[var] = next(pool)
    model = Mapping(bindings)

    witness = _instantiate(facts, model)
    index = _graph_index(witness)
    for arm in arms:
        parts = [m.drop(facts.variables) for m in _solutions(arm, index, nnfs) if compatible(m, model)]
        if parts:
            bindings.update(min(parts, key=_mapping_sort_key).items())
    return Satisfiable(witness, Mapping(bindings))


def _consistent_choice(conditions, nnfs: dict, sorts, budget: list) -> Mapping | Unsatisfiable | Unknown:
    """A model of the value constraints of the first consistent choice of
    disjuncts of the AND/FILTER core's `conditions`, on which every
    variable is bound, or the verdict without one.

    The conditions form one conjunction of their negation normal forms,
    `nnfs` by identity.  A choice takes one operand of each disjunction it
    reaches; the choices are searched depth first with an explicit stack,
    the first operand first, so they come in the order of the DNF's
    disjuncts.  Each check (`_check`) reads the atoms chosen so far.  Once
    the first full choice has failed, a partial one is checked at each
    disjunction, and the search leaves it when it fails: adding atoms never
    mends a failure.  An UNSAT verdict names the first full choice's
    failure, as the DNF's first disjunct would.  Each check is taken from
    `budget[0]`, and when none is left the answer is Unknown; without any
    NNF to read, the atomic conditions are one check, not counted.

    `conditions` come in `pattern_facts` pre-order, so a group's FILTERs
    are read last-written first.  Which consistent choice is first, and so
    which model the sample and witness show, therefore depends on the
    written order of a group's FILTERs; whether one exists does not."""
    if not nnfs:  # atomic conditions only: their conjunction is the one choice
        return _check((conditions, None), sorts)
    operands = []  # of the root conjunction, each an atom or (all or any, operands)
    for condition in conditions:
        if is_atomic(condition):
            operands.append(condition)
            continue
        node = fold_nnf(nnfs[id(condition)], lambda atom: atom, lambda connective, kids: (connective, kids))
        operands += node[1] if type(node) is tuple and node[0] is all else (node,)

    first = None  # the first full choice's failure
    # each entry: the goals left and the atoms chosen, as linked (head,
    # rest) pairs whose heads are goals and lists of atoms
    stack: list = [(((all, operands), None), None)]
    while stack:
        goals, atoms = stack.pop()
        disjunction = None
        while goals is not None:
            node, goals = goals
            if type(node) is not tuple:
                atoms = ((node,), atoms)
            elif node[0] is any:
                disjunction = node
                break
            else:  # a conjunction's atoms at once, so every check reads them
                atoms = ([kid for kid in node[1] if type(kid) is not tuple], atoms)
                for kid in reversed(node[1]):
                    if type(kid) is tuple:
                        goals = (kid, goals)
        if disjunction is None or first is not None:  # the first full choice is checked whole
            if not budget[0]:
                return Unknown(f"budget exceeded: well-designed core, {CHOICE_CHECK_BUDGET} checks of disjunct choices")
            budget[0] -= 1
            solved = _check(atoms, sorts)
            if type(solved) is not Mapping:
                if first is None:
                    first = solved
                continue
            if disjunction is None:
                return solved
        stack += [((option, goals), atoms) for option in reversed(disjunction[1])]
    return first


def _check(atoms, sorts) -> Mapping | Unsatisfiable:
    """A model of the value constraints among `atoms`, a linked (list of
    atoms, rest) list, or why none exists: a `!bound` empties the core's
    schemes before any value is compared."""
    values = []
    while atoms is not None:
        chunk, atoms = atoms
        for atom in chunk:
            kind = type(atom)
            if kind is NegBound:
                return Unsatisfiable(UnsatReason.EMPTY_SCHEMES)
            if kind is not Bound:
                values.append(atom)
    solved = solve_constraints(values, sorts)
    if solved is Failure.SORT_CLASH:
        return Unsatisfiable(UnsatReason.SORT_CONFLICT)
    if isinstance(solved, Failure):
        return Unsatisfiable(UnsatReason.INCONSISTENT_CONSTRAINTS)
    return solved


def _mapping_sort_key(mapping: Mapping):
    return (len(mapping), tuple((v._key, t._text) for v, t in mapping.items()))
