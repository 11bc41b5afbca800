"""Seeded random generators and independent oracles shared by the test suites.

The oracles here deliberately reimplement their targets from scratch (direct
dictionary-based constraint checks, finite-pool enumeration) so that the
library is never checked against itself.
"""

from __future__ import annotations

import itertools
import random

from sparqlsat import (
    And,
    Bound,
    Eq,
    EqC,
    Filter,
    Iri,
    Literal,
    Neq,
    NeqC,
    NegBound,
    Opt,
    Pattern,
    RdfGraph,
    RdfTriple,
    Select,
    TriplePattern,
    Union,
    Variable,
    candidate_schemes,
    evaluate,
)
from sparqlsat.constraints import SortReq
from sparqlsat.patterns import (
    AndExpr,
    NotExpr,
    Opaque,
    OrExpr,
    children,
    condition_vars,
    constants_of,
    post_order,
    rebuilt,
    vars_of,
)

ALL_KINDS = ("bound", "negbound", "eq", "neq", "eqc", "neqc")
EQ_KINDS = ("bound", "eq", "neqc")
NEQ_KINDS = ("bound", "neq", "neqc")

VAR_POOL = tuple(Variable(name) for name in ("a", "b", "c", "d", "e", "f", "g", "h"))
IRI_POOL = tuple(Iri(name) for name in ("p", "q", "r", "s", "t"))
CONST_POOL = tuple(Iri(name) for name in ("k0", "k1", "k2")) + (Literal("11"), Literal("lit"))


def iter_subpatterns(pattern: Pattern):
    """Pre-order traversal of all subpattern occurrences, left child first."""
    stack = [pattern]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def random_constraint(rng: random.Random, kinds, variables, constants=CONST_POOL):
    kind = rng.choice(kinds)
    var = rng.choice(variables)
    if kind == "bound":
        return Bound(var)
    if kind == "negbound":
        return NegBound(var)
    if kind == "eq":
        return Eq(var, rng.choice(variables))
    if kind == "neq":
        other = rng.choice([v for v in variables if v != var] or [Variable(var.name + "x")])
        return Neq(var, other)
    if kind == "eqc":
        return EqC(var, rng.choice(constants))
    return NeqC(var, rng.choice(constants))


def random_triple(rng: random.Random, variables, literal_subject_rate=0.0) -> TriplePattern:
    if rng.random() < literal_subject_rate:
        subject = Literal(str(rng.randint(0, 99)))
    else:
        subject = rng.choice(variables) if rng.random() < 0.8 else rng.choice(IRI_POOL)
    predicate = rng.choice(IRI_POOL) if rng.random() < 0.8 else rng.choice(variables)
    roll = rng.random()
    if roll < 0.7:
        obj = rng.choice(variables)
    elif roll < 0.9:
        obj = rng.choice(IRI_POOL)
    else:
        obj = Literal(rng.choice(("11", "lit", "x")))
    return TriplePattern(subject, predicate, obj)


def random_pattern(
    rng: random.Random,
    depth: int,
    kinds=ALL_KINDS,
    variables=VAR_POOL,
    literal_subject_rate: float = 0.0,
    select_rate: float = 0.0,
) -> Pattern:
    """A random pattern with atomic constraints whose filter variables come
    from the whole pool, so schemes go empty at a healthy rate."""
    if depth == 0:
        return random_triple(rng, variables, literal_subject_rate)
    roll = rng.random()
    if roll < 0.30:
        return random_triple(rng, variables, literal_subject_rate)
    if roll < 0.45:
        return And(
            random_pattern(rng, depth - 1, kinds, variables, literal_subject_rate, select_rate),
            random_pattern(rng, depth - 1, kinds, variables, literal_subject_rate, select_rate),
        )
    if roll < 0.60:
        return Opt(
            random_pattern(rng, depth - 1, kinds, variables, literal_subject_rate, select_rate),
            random_pattern(rng, depth - 1, kinds, variables, literal_subject_rate, select_rate),
        )
    if roll < 0.75:
        return Union(
            random_pattern(rng, depth - 1, kinds, variables, literal_subject_rate, select_rate),
            random_pattern(rng, depth - 1, kinds, variables, literal_subject_rate, select_rate),
        )
    sub = random_pattern(rng, depth - 1, kinds, variables, literal_subject_rate, select_rate)
    if select_rate and rng.random() < select_rate:
        scheme = frozenset(rng.sample(variables, rng.randint(0, min(3, len(variables)))))
        return Select(scheme, sub)
    return Filter(sub, random_constraint(rng, kinds, variables))


def random_shared_pattern(rng: random.Random, depth: int, kinds=ALL_KINDS, select_rate: float = 0.0) -> Pattern:
    """Random patterns joined by random operators, each join reading any
    earlier node, so that subtrees sit under more than one parent."""
    pool = [random_pattern(rng, depth, kinds, select_rate=select_rate) for _ in range(3)]
    for _ in range(rng.randint(1, 4)):
        node = rng.choice((And, Opt, Union))(rng.choice(pool), rng.choice(pool))
        if rng.random() < 0.3:
            node = Filter(node, random_constraint(rng, kinds, VAR_POOL))
        pool.append(node)
    return pool[-1]


def random_condition(rng: random.Random, kinds, variables, depth: int = 3, opaque_rate: float = 0.15):
    """A random `&&`/`||`/`!` condition up to `depth` operators deep, over
    atoms of `kinds` and opaque calls that mention up to two variables."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < opaque_rate:
            mentions = rng.sample(variables, rng.randint(0, min(2, len(variables))))
            return Opaque(f"isIRI({', '.join('?' + v.name for v in mentions)})", frozenset(mentions))
        return random_constraint(rng, kinds, variables)
    roll = rng.random()
    if roll < 0.2:
        return NotExpr(random_condition(rng, kinds, variables, depth - 1, opaque_rate))
    operator = AndExpr if roll < 0.6 else OrExpr
    return operator(
        random_condition(rng, kinds, variables, depth - 1, opaque_rate),
        random_condition(rng, kinds, variables, depth - 1, opaque_rate),
    )


def with_composite_filters(
    rng: random.Random, pattern: Pattern, kinds, rate: float = 0.3, variables=None, opaque_rate: float = 0.15
):
    """`pattern` with a random composite filter over `rate` of its nodes;
    its variables come from `variables(node)` if given, else the pool, and
    `opaque_rate` of its atoms are opaque calls."""
    done: dict = {}
    for node in post_order(pattern):
        out = rebuilt(node, done)
        if type(node) is not Select and rng.random() < rate:
            pool = VAR_POOL if variables is None else sorted(variables(node), key=lambda v: v.name)
            if pool:
                out = Filter(out, random_condition(rng, kinds, pool, opaque_rate=opaque_rate))
        done[id(node)] = out
    return done[id(pattern)]


def random_graph(rng: random.Random, pattern: Pattern, max_triples: int = 6) -> RdfGraph:
    """A small graph built from the pattern's own constants plus extras."""
    from sparqlsat import BlankNode

    pattern_iris = sorted(
        (c for c in constants_of(pattern) if isinstance(c, Iri)), key=lambda c: c.name
    )
    subjects = pattern_iris + list(IRI_POOL[:3]) + [BlankNode("n")]
    predicates = pattern_iris + list(IRI_POOL)
    objects = (
        sorted(constants_of(pattern), key=str)
        + list(IRI_POOL[:2])
        + [Literal("11"), Literal("lit"), BlankNode("n")]
    )
    triples = []
    for _ in range(rng.randint(0, max_triples)):
        triples.append(
            RdfTriple(rng.choice(subjects), rng.choice(predicates), rng.choice(objects))
        )
    return RdfGraph.of(triples)


# --- well-designed generation ---------------------------------------------------

def random_well_designed(
    rng: random.Random,
    depth: int = 3,
    kinds=("bound", "eq", "neq", "eqc", "neqc"),
    negbound_rate: float = 0.0,
):
    """A union-free well-designed pattern, built by construction.

    Optional arms only reuse variables exposed by their mandatory side (plus
    arm-local fresh names never used again); filters only mention exposed
    variables of the pattern they apply to.  Both well-designedness
    conditions follow.
    """
    counter = itertools.count()

    def new_var() -> Variable:
        return Variable(f"v{next(counter)}")

    def block(pool: list) -> tuple[Pattern, frozenset]:
        pattern = None
        for _ in range(rng.randint(1, 2)):
            candidates = pool + [new_var()]
            subject = rng.choice(candidates) if rng.random() < 0.85 else rng.choice(IRI_POOL)
            obj = rng.choice(candidates + list(CONST_POOL))
            triple = TriplePattern(subject, rng.choice(IRI_POOL), obj)
            pattern = triple if pattern is None else And(pattern, triple)
        return pattern, vars_of(pattern)

    def build(pool: list, level: int) -> tuple[Pattern, frozenset]:
        if level == 0 or rng.random() < 0.25:
            return block(pool)
        roll = rng.random()
        if roll < 0.30:
            left, exposed_l = build(pool, level - 1)
            right, exposed_r = build(sorted(set(pool) | exposed_l, key=lambda v: v.name), level - 1)
            return And(left, right), exposed_l | exposed_r
        if roll < 0.65:
            left, exposed_l = build(pool, level - 1)
            shared = sorted(exposed_l, key=lambda v: v.name)
            arm_pool = rng.sample(shared, rng.randint(0, len(shared)))
            right, _ = build(arm_pool, level - 1)
            return Opt(left, right), exposed_l
        sub, exposed = build(pool, level - 1)
        filterable = sorted(exposed, key=lambda v: v.name)
        if not filterable:
            return sub, exposed
        if negbound_rate and rng.random() < negbound_rate:
            condition = NegBound(rng.choice(filterable))
        else:
            usable = kinds if len(filterable) > 1 else tuple(k for k in kinds if k != "neq")
            condition = random_constraint(rng, usable or ("bound",), filterable)
        return Filter(sub, condition), exposed

    pattern, _ = build([new_var()], depth)
    return pattern


# --- independent oracles -----------------------------------------------------------

def constraint_holds(constraint, assignment: dict) -> bool:
    """Direct constraint check on a total assignment (oracle-side reimplementation)."""
    if isinstance(constraint, Eq):
        return assignment[constraint.left] == assignment[constraint.right]
    if isinstance(constraint, Neq):
        return assignment[constraint.left] != assignment[constraint.right]
    if isinstance(constraint, EqC):
        return assignment[constraint.var] == constraint.constant
    if isinstance(constraint, NeqC):
        return assignment[constraint.var] != constraint.constant
    raise TypeError(constraint)


def enumerate_model(constraints, sorts, fresh_count: int | None = None) -> dict | None:
    """Exhaustive finite-pool search for a model of a value-constraint set.

    Pool: the constraints' own constants, fresh IRIs (five, or one per
    variable when there are more), one fresh literal.  Backtracking over
    variables with eager constraint checks; complete over the pool, and the
    pool suffices for purely (in)equational constraints.
    """
    constants = sorted(
        {c.constant for c in constraints if isinstance(c, (EqC, NeqC))}, key=str
    )
    if fresh_count is None:
        mentioned = {v for c in constraints for v in condition_vars(c)}
        fresh_count = max(5, len(mentioned))
    pool = constants + [Iri(f"urn:pool:{i}") for i in range(fresh_count)] + [Literal("freshlit")]
    variables = sorted(
        {v for c in constraints for v in condition_vars(c)}, key=lambda v: v.name
    )
    by_latest: dict = {v: [] for v in variables}
    for constraint in constraints:
        mentioned = sorted(condition_vars(constraint), key=lambda v: v.name)
        latest = max(mentioned, key=variables.index)
        by_latest[latest].append(constraint)

    assignment: dict = {}

    def backtrack(index: int) -> bool:
        if index == len(variables):
            return True
        var = variables[index]
        for value in pool:
            if sorts.get(var) == SortReq.IRI_REQUIRED and isinstance(value, Literal):
                continue
            assignment[var] = value
            if all(constraint_holds(c, assignment) for c in by_latest[var]):
                if backtrack(index + 1):
                    return True
            del assignment[var]
        return False

    return dict(assignment) if backtrack(0) else None


def random_value_constraints(rng: random.Random, max_vars: int = 5, max_constraints: int = 8):
    """A constraint set plus sort map for the consistency cross-check."""
    variables = VAR_POOL[: rng.randint(1, max_vars)]
    constants = CONST_POOL[:3] + (Literal("11"), Literal("lit"))
    constraints = []
    for _ in range(rng.randint(1, max_constraints)):
        constraints.append(
            random_constraint(rng, ("eq", "neq", "eqc", "neqc"), variables, constants)
        )
    sorts = {}
    for var in variables:
        if rng.random() < 0.3:
            sorts[var] = SortReq.IRI_REQUIRED
    return constraints, sorts


def witness_is_sound(pattern: Pattern, witness: RdfGraph, model) -> bool:
    """Does the witness carry a restriction of the model covering a scheme?"""
    solutions = evaluate(pattern, witness)
    if not solutions:
        return False
    family = candidate_schemes(pattern)
    return any(
        model.extends(m) and any(s <= m.domain for s in family) for m in solutions
    )
