"""Seeded random patterns and graphs for the benchmark's own inputs and checks.

The benchmark does not import the test suite: it owns its generators, so a
change to the tests never changes what the benchmark measures.  Patterns use
atomic filter constraints only, so the reference evaluator can run them as
they are.
"""

from __future__ import annotations

import itertools
import random

from sparqlsat.patterns import (
    And,
    Bound,
    Eq,
    EqC,
    Filter,
    Neq,
    NeqC,
    NegBound,
    Opt,
    Select,
    TriplePattern,
    Union,
    constants_of,
    vars_of,
)
from sparqlsat.terms import BlankNode, Iri, Literal, RdfGraph, RdfTriple, Variable

EQ_KINDS = ("bound", "eq", "neqc")
NEQ_KINDS = ("bound", "neq", "neqc")
ALL_KINDS = ("bound", "negbound", "eq", "neq", "eqc", "neqc")
WD_KINDS = ("bound", "eq", "neq", "eqc", "neqc")

VARIABLES = tuple(Variable(name) for name in "abcdefgh")
PREDICATES = tuple(Iri(name) for name in ("p", "q", "r", "s", "t"))
CONSTANTS = (Iri("k0"), Iri("k1"), Iri("k2"), Literal("11"), Literal("lit"))


def constraint(rng: random.Random, kinds, variables):
    kind = rng.choice(kinds)
    var = rng.choice(variables)
    if kind == "bound":
        return Bound(var)
    if kind == "negbound":
        return NegBound(var)
    if kind == "eq":
        return Eq(var, rng.choice(variables))
    if kind == "neq":
        others = [v for v in variables if v != var]
        return Neq(var, rng.choice(others)) if others else Bound(var)
    if kind == "eqc":
        return EqC(var, rng.choice(CONSTANTS))
    return NeqC(var, rng.choice(CONSTANTS))


def triple(rng: random.Random, literal_subject_rate: float = 0.0) -> TriplePattern:
    if rng.random() < literal_subject_rate:
        subject = Literal(str(rng.randint(0, 99)))
    elif rng.random() < 0.8:
        subject = rng.choice(VARIABLES)
    else:
        subject = rng.choice(PREDICATES)
    predicate = rng.choice(PREDICATES) if rng.random() < 0.8 else rng.choice(VARIABLES)
    roll = rng.random()
    if roll < 0.7:
        obj = rng.choice(VARIABLES)
    elif roll < 0.9:
        obj = rng.choice(PREDICATES)
    else:
        obj = rng.choice(CONSTANTS[3:])
    return TriplePattern(subject, predicate, obj)


def pattern(rng: random.Random, depth: int, kinds, literal_subject_rate=0.0, select_rate=0.0):
    """A random pattern over the whole variable pool, so filters often empty
    the scheme family and both verdicts occur."""
    if depth == 0 or rng.random() < 0.3:
        return triple(rng, literal_subject_rate)

    def sub():
        return pattern(rng, depth - 1, kinds, literal_subject_rate, select_rate)

    roll = rng.random()
    if roll < 0.2:
        return And(sub(), sub())
    if roll < 0.4:
        return Opt(sub(), sub())
    if roll < 0.6:
        return Union(sub(), sub())
    inner = sub()
    if rng.random() < select_rate:
        return Select(frozenset(rng.sample(VARIABLES, rng.randint(0, 3))), inner)
    return Filter(inner, constraint(rng, kinds, VARIABLES))


def well_designed(rng: random.Random, depth: int, kinds=WD_KINDS):
    """A union-free well-designed pattern, well-designed by construction.

    Optional arms reuse only variables their mandatory side exposes, plus
    arm-local fresh names; filters mention only variables of the pattern
    they apply to.
    """
    counter = itertools.count()

    def fresh() -> Variable:
        return Variable(f"w{next(counter)}")

    def block(pool):
        out = None
        for _ in range(rng.randint(1, 2)):
            names = pool + [fresh()]
            subject = rng.choice(names) if rng.random() < 0.85 else rng.choice(PREDICATES)
            tp = TriplePattern(subject, rng.choice(PREDICATES), rng.choice(names + list(CONSTANTS)))
            out = tp if out is None else And(out, tp)
        return out, vars_of(out)

    def build(pool, level):
        if level == 0 or rng.random() < 0.25:
            return block(pool)
        roll = rng.random()
        if roll < 0.3:
            left, exposed = build(pool, level - 1)
            right, more = build(sorted(set(pool) | exposed, key=lambda v: v.name), level - 1)
            return And(left, right), exposed | more
        if roll < 0.65:
            left, exposed = build(pool, level - 1)
            shared = sorted(exposed, key=lambda v: v.name)
            right, _ = build(rng.sample(shared, rng.randint(0, len(shared))), level - 1)
            return Opt(left, right), exposed
        inner, exposed = build(pool, level - 1)
        names = sorted(exposed, key=lambda v: v.name)
        if not names:
            return inner, exposed
        usable = kinds if len(names) > 1 else tuple(k for k in kinds if k != "neq")
        return Filter(inner, constraint(rng, usable, names)), exposed

    return build([fresh()], depth)[0]


def graph(rng: random.Random, pat, max_triples: int = 6) -> RdfGraph:
    """A small graph over the pattern's own constants plus a few extras, so
    random graphs can match the pattern's triples."""
    consts = sorted(constants_of(pat), key=str)
    iris = [c for c in consts if isinstance(c, Iri)]
    subjects = iris + list(PREDICATES[:3]) + [BlankNode("n")]
    predicates = iris + list(PREDICATES)
    objects = consts + list(PREDICATES[:2]) + [Literal("11"), Literal("lit"), BlankNode("n")]
    return RdfGraph.of(
        RdfTriple(rng.choice(subjects), rng.choice(predicates), rng.choice(objects))
        for _ in range(rng.randint(0, max_triples))
    )
