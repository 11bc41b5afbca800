"""The one-walk facts record against a node-by-node reference."""

import random

from randgen import ALL_KINDS, VAR_POOL, iter_subpatterns, random_constraint, random_pattern, random_shared_pattern
from sparqlsat import And, AndExpr, Filter, NotExpr, Opaque, OrExpr, Select, TriplePattern, Union, normalize_filters
from sparqlsat.patterns import (
    EqC,
    NeqC,
    condition_vars,
    constants_of,
    contains_node,
    pattern_facts,
    post_order,
    vars_of,
)
from sparqlsat.schemes import filter_variables
from sparqlsat.terms import is_constant


def _composite(rng, atom):
    """Wrap an atomic condition into a boolean combination, maybe with a builtin."""
    opaque = Opaque("f()", frozenset(rng.sample(VAR_POOL, rng.randint(0, 2))))
    other = random_constraint(rng, ALL_KINDS, VAR_POOL)
    roll = rng.random()
    if roll < 0.2:
        return atom
    if roll < 0.4:
        return NotExpr(atom)
    if roll < 0.55:
        return opaque
    if roll < 0.8:
        return AndExpr(atom, NotExpr(OrExpr(other, opaque)))
    return OrExpr(NotExpr(other), atom)


def _with_composites(rng, node):
    if isinstance(node, TriplePattern):
        return node
    if isinstance(node, Filter):
        return Filter(_with_composites(rng, node.pattern), _composite(rng, node.condition))
    if isinstance(node, Select):
        return Select(node.scheme, _with_composites(rng, node.pattern))
    return type(node)(_with_composites(rng, node.left), _with_composites(rng, node.right))


def _condition_constants(condition):
    if isinstance(condition, (EqC, NeqC)):
        return {condition.constant}
    if isinstance(condition, NotExpr):
        return _condition_constants(condition.operand)
    if isinstance(condition, (AndExpr, OrExpr)):
        return _condition_constants(condition.left) | _condition_constants(condition.right)
    return set()


def _reference(pattern):
    """Every facts field but the order and the sharing, built node by node
    from `iter_subpatterns`, each distinct node at its first occurrence."""
    nodes, seen = [], set()
    for node in iter_subpatterns(pattern):
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
    triples = tuple(n for n in nodes if isinstance(n, TriplePattern))
    conditions = tuple(n.condition for n in nodes if isinstance(n, Filter))
    filter_vars = frozenset().union(*(condition_vars(c) for c in conditions))
    variables = frozenset().union(
        filter_vars,
        *(tp.variables() for tp in triples),
        *(n.scheme for n in nodes if isinstance(n, Select)),
    )
    constants = frozenset(t for tp in triples for t in tp.terms() if is_constant(t))
    constants = constants.union(*(_condition_constants(c) for c in conditions))
    return {
        "variables": variables,
        "constants": constants,
        "filter_variables": filter_vars,
        "conditions": conditions,
        "triples": triples,
        "node_types": frozenset(type(n) for n in nodes),
    }


def test_pattern_facts_equal_the_node_by_node_reference():
    rng = random.Random(5)
    seen = set()
    for _ in range(400):
        pattern = random_pattern(rng, depth=rng.randint(0, 5), select_rate=0.3)
        pattern = _with_composites(rng, pattern)
        facts = pattern_facts(pattern)
        expected = _reference(pattern)
        for field, value in expected.items():
            assert getattr(facts, field) == value, field
        assert vars_of(pattern) == facts.variables
        assert constants_of(pattern) == facts.constants
        assert filter_variables(pattern) == facts.filter_variables
        for kind in (Union, And, Filter, Select, (Union, Select)):
            assert contains_node(pattern, kind) == any(isinstance(n, kind) for n in iter_subpatterns(pattern))
        seen |= {type(c) for c in facts.conditions} | facts.node_types
    # the sample reached every node class and every composite condition form
    assert {Select, Union, Opaque, NotExpr, AndExpr, OrExpr, EqC, NeqC} <= seen


def test_pattern_facts_record_their_order_and_any_sharing():
    # `pattern_facts` reads every node as its one loop first reaches it; the
    # reference takes the order and the sharing from `post_order` and the
    # other fields from the distinct nodes in pre-order.  The patterns are
    # trees, random DAGs, and the DAGs normalization builds, whose UNION
    # branches share the pattern under a disjunctive filter.
    rng = random.Random(7)
    seen = set()
    for index in range(600):
        source = index % 3
        if source == 0:
            pattern = random_pattern(rng, depth=rng.randint(0, 5), select_rate=0.3)
        elif source == 1:
            pattern = random_shared_pattern(rng, depth=rng.randint(0, 3), select_rate=0.3)
        else:
            pattern = _with_composites(rng, random_pattern(rng, depth=rng.randint(1, 4), select_rate=0.3))
            pattern = normalize_filters(pattern, builtins_as_bound=True)
        shared: set = set()
        order = post_order(pattern, shared=shared)
        facts, expected = pattern_facts(pattern), _reference(pattern)
        assert list(map(id, facts.order)) == list(map(id, order))
        assert list(map(id, facts.triples)) == list(map(id, expected["triples"]))
        assert facts.shares == bool(shared)
        for field, value in expected.items():
            assert getattr(facts, field) == value, field
        seen.add((source, facts.shares))
    assert seen == {(0, False), (1, False), (1, True), (2, False), (2, True)}
