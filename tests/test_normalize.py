"""Filter lowering: negation pushing, DNF expansion, builtin handling."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randgen import random_constraint, random_graph, random_pattern
from sparqlsat import (
    And,
    Bound,
    Eq,
    EqC,
    Filter,
    Iri,
    Neq,
    NeqC,
    NegBound,
    Opaque,
    Opt,
    TriplePattern,
    Union,
    Variable,
    evaluate,
    normalize_filters,
)
from sparqlsat.errors import NormalizationBlowup, UnsupportedOpaquePredicate
from sparqlsat.patterns import (
    AndExpr,
    NotExpr,
    OrExpr,
    is_atomic,
    pattern_facts,
)

x, y, z = Variable("x"), Variable("y"), Variable("z")
base = TriplePattern(x, Iri("p"), y)


def test_conjunction_becomes_filter_chain():
    pattern = Filter(base, AndExpr(Bound(y), Bound(z)))
    assert normalize_filters(pattern) == Filter(Filter(base, Bound(y)), Bound(z))


def test_unchanged_nodes_are_returned_themselves():
    atomic = Filter(Opt(base, TriplePattern(y, Iri("q"), z)), Bound(z))
    assert normalize_filters(atomic) is atomic
    composite = Filter(base, OrExpr(Bound(x), Bound(y)))
    mixed = normalize_filters(And(atomic, composite))
    assert mixed.left is atomic
    assert mixed.right is not composite


def test_disjunction_becomes_union():
    pattern = Filter(base, OrExpr(Eq(x, y), EqC(x, Iri("c"))))
    assert normalize_filters(pattern) == Union(
        Filter(base, Eq(x, y)), Filter(base, EqC(x, Iri("c")))
    )


def test_negation_pushes_to_atoms():
    assert normalize_filters(Filter(base, NotExpr(Eq(x, y)))) == Filter(base, Neq(x, y))
    assert normalize_filters(Filter(base, NotExpr(Neq(x, y)))) == Filter(base, Eq(x, y))
    assert normalize_filters(Filter(base, NotExpr(Bound(x)))) == Filter(base, NegBound(x))
    assert normalize_filters(Filter(base, NotExpr(NegBound(x)))) == Filter(base, Bound(x))
    assert normalize_filters(Filter(base, NotExpr(EqC(x, Iri("c"))))) == Filter(base, NeqC(x, Iri("c")))


def test_de_morgan_with_double_negation():
    condition = NotExpr(OrExpr(Bound(x), NotExpr(Bound(y))))
    normalized = normalize_filters(Filter(base, condition))
    assert normalized == Filter(Filter(base, NegBound(x)), Bound(y))


def test_negated_reflexive_equality_is_never_satisfiable():
    normalized = normalize_filters(Filter(base, NotExpr(Eq(x, x))))
    rng = random.Random(5)
    for _ in range(25):
        g = random_graph(rng, base)
        assert evaluate(normalized, g) == frozenset()


def test_output_is_always_atomic():
    rng = random.Random(1)
    for _ in range(100):
        pattern = parse_pattern_with_boolean_filters(rng)
        normalized = normalize_filters(pattern, builtins_as_bound=True)
        conditions = pattern_facts(normalized).conditions
        assert all(is_atomic(c) for c in conditions)
        assert not any(isinstance(c, (NotExpr, AndExpr, OrExpr)) for c in conditions)


def parse_pattern_with_boolean_filters(rng):
    def cexpr(depth):
        if depth == 0 or rng.random() < 0.4:
            roll = rng.random()
            if roll < 0.85:
                return random_constraint(rng, ("bound", "negbound", "eq", "neq", "eqc", "neqc"), (x, y, z))
            return Opaque("check(?x)", frozenset((x,)))
        roll = rng.random()
        if roll < 0.33:
            return NotExpr(cexpr(depth - 1))
        if roll < 0.66:
            return AndExpr(cexpr(depth - 1), cexpr(depth - 1))
        return OrExpr(cexpr(depth - 1), cexpr(depth - 1))

    pattern = random_pattern(rng, 2, variables=(x, y, z))
    return Filter(pattern, cexpr(rng.randint(1, 3)))


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9))
def test_normalization_preserves_semantics(seed):
    # opaque-free boolean filters: lowering must not change any evaluation
    rng = random.Random(seed)

    def cexpr(depth):
        if depth == 0 or rng.random() < 0.45:
            return random_constraint(rng, ("bound", "negbound", "eq", "neq", "eqc", "neqc"), (x, y, z))
        roll = rng.random()
        if roll < 0.33:
            return NotExpr(cexpr(depth - 1))
        if roll < 0.66:
            return AndExpr(cexpr(depth - 1), cexpr(depth - 1))
        return OrExpr(cexpr(depth - 1), cexpr(depth - 1))

    inner = random_pattern(rng, 2, variables=(x, y, z))
    pattern = Filter(inner, cexpr(rng.randint(1, 3)))
    normalized = normalize_filters(pattern)

    def eval_with_three_valued(p, g):
        # oracle: evaluate the raw boolean condition per mapping
        def holds(cond, m):
            from sparqlsat import satisfies
            from sparqlsat.patterns import CONSTRAINT_TYPES

            if isinstance(cond, CONSTRAINT_TYPES):
                return satisfies(m, cond)
            if isinstance(cond, NotExpr):
                inner_value = holds_3(cond.operand, m)
                return inner_value is False
            raise TypeError(cond)

        def holds_3(cond, m):
            # three-valued: True / False / None (error)
            from sparqlsat import satisfies
            from sparqlsat.patterns import CONSTRAINT_TYPES
            from sparqlsat.patterns import condition_vars

            if isinstance(cond, CONSTRAINT_TYPES):
                if isinstance(cond, (Bound, NegBound)):
                    return satisfies(m, cond)
                if any(v not in m for v in condition_vars(cond)):
                    return None
                return satisfies(m, cond)
            if isinstance(cond, NotExpr):
                value = holds_3(cond.operand, m)
                return None if value is None else (not value)
            if isinstance(cond, AndExpr):
                left, right = holds_3(cond.left, m), holds_3(cond.right, m)
                if left is False or right is False:
                    return False
                if left is None or right is None:
                    return None
                return True
            left, right = holds_3(cond.left, m), holds_3(cond.right, m)
            if left is True or right is True:
                return True
            if left is None or right is None:
                return None
            return False

        return frozenset(m for m in evaluate(inner, g) if holds_3(pattern.condition, m) is True)

    for _ in range(4):
        g = random_graph(rng, inner)
        assert evaluate(normalized, g) == eval_with_three_valued(pattern, g)


def test_opaque_requires_the_flag():
    pattern = Filter(base, Opaque("langMatches(lang(?y))", frozenset((y,))))
    with pytest.raises(UnsupportedOpaquePredicate):
        normalize_filters(pattern)


def test_opaque_lowers_to_bound_checks_under_flag():
    pattern = Filter(base, Opaque("f(?y, ?x)", frozenset((x, y))))
    normalized = normalize_filters(pattern, builtins_as_bound=True)
    assert normalized == Filter(Filter(base, Bound(x)), Bound(y))


def test_negated_opaque_also_lowers_to_bound_checks():
    pattern = Filter(base, NotExpr(Opaque("f(?x)", frozenset((x,)))))
    assert normalize_filters(pattern, builtins_as_bound=True) == Filter(base, Bound(x))


def test_opaque_without_mentions_drops_away():
    pattern = Filter(base, Opaque("now()", frozenset()))
    assert normalize_filters(pattern, builtins_as_bound=True) == base


def test_dnf_cap_raises():
    condition = OrExpr(Bound(x), Bound(y))
    for _ in range(7):
        condition = AndExpr(condition, OrExpr(Bound(x), Bound(y)))
    with pytest.raises(NormalizationBlowup):
        normalize_filters(Filter(base, condition))


# --- negation normal form ------------------------------------------------------------

def _nnf(condition, builtins_as_bound=False):
    """The condition's NNF, None where it holds an opaque call that raises."""
    from sparqlsat.normalize import negation_normal_forms

    try:
        nnfs = negation_normal_forms(pattern_facts(Filter(base, condition)), builtins_as_bound)
    except UnsupportedOpaquePredicate:
        return None
    return nnfs[id(condition)]


def test_nested_connectives_flatten_to_one_step_each():
    # (x || y) || !(!z && !x): De Morgan turns the negated AND into an OR
    condition = OrExpr(OrExpr(Bound(x), Bound(y)), NotExpr(AndExpr(NotExpr(Bound(z)), NotExpr(Bound(x)))))
    assert _nnf(condition) == (Bound(x), Bound(y), Bound(z), Bound(x), (any, 4))
    condition = AndExpr(Bound(x), AndExpr(OrExpr(Eq(x, y), Bound(z)), Bound(y)))
    assert _nnf(condition) == (Bound(x), Eq(x, y), Bound(z), (any, 2), Bound(y), (all, 3))


def test_negation_flips_atoms_as_the_dnf_does():
    c = Iri("c")
    condition = NotExpr(OrExpr(AndExpr(Bound(x), Eq(x, y)), OrExpr(EqC(x, c), Eq(z, z))))
    assert _nnf(condition) == (
        NegBound(x), Neq(x, y), (any, 2), NeqC(x, c), Bound(z), NegBound(z), (all, 4)
    )


def test_opaque_calls_lower_to_bound_checks_or_true():
    call, none = Opaque("isIRI(?y, ?x)", frozenset((x, y))), Opaque("rand()", frozenset())
    assert _nnf(OrExpr(call, Bound(z))) is None
    assert _nnf(OrExpr(call, Bound(z)), True) == (Bound(x), Bound(y), (all, 2), Bound(z), (any, 2))
    assert _nnf(NotExpr(call), True) == (Bound(x), Bound(y), (all, 2))
    assert _nnf(OrExpr(none, Bound(z)), True) == ((all, 0), Bound(z), (any, 2))
    assert _nnf(AndExpr(none, Bound(z)), True) == (Bound(z),)
    assert _nnf(none, True) == ((all, 0),)


def test_a_deep_disjunction_needs_no_cap():
    condition = Bound(x)
    for _ in range(4999):
        condition = OrExpr(condition, Bound(y))
    nnf = _nnf(NotExpr(NotExpr(condition)))
    assert len(nnf) == 5001 and nnf[-1] == (any, 5000)
