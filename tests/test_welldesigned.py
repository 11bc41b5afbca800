"""Well-designedness conditions, outside-variable sets, constraint extraction."""

import random
from collections import Counter

import pytest

import wd_reference
from randgen import ALL_KINDS, VAR_POOL, random_constraint, random_pattern, random_well_designed
from sparqlsat import (
    And,
    EqC,
    Filter,
    Iri,
    NeqC,
    Eq,
    Opt,
    Select,
    Variable,
    extract_constraints,
    is_well_designed,
    outside_vars,
    parse_pattern,
)
from sparqlsat.errors import InvalidPosition, NotAFPattern, NotUnionFree, PreconditionViolated
from sparqlsat.patterns import children

x, y, z, w = Variable("x"), Variable("y"), Variable("z"), Variable("w")


def test_simple_optional_is_well_designed():
    ok, violations = is_well_designed(parse_pattern("(?x p ?y) OPT (?x q ?z)"))
    assert ok and not violations


def test_escaping_optional_variable_violates_condition_two():
    pattern = parse_pattern("((?x p ?y) OPT (?y q ?z)) AND (?z r ?w)")
    ok, violations = is_well_designed(pattern)
    assert not ok
    assert any(v.kind == "optional-escape" and v.variable == z for v in violations)


def test_filter_variable_outside_subpattern_violates_condition_one():
    pattern = parse_pattern("((?x p ?y) OPT ((?x q ?z) FILTER ?y = ?z)) FILTER ?x != c")
    ok, violations = is_well_designed(pattern)
    assert not ok
    assert any(v.kind == "filter-unsafe" and v.variable == y for v in violations)


def test_union_is_rejected():
    with pytest.raises(NotUnionFree):
        is_well_designed(parse_pattern("(?x p ?y) UNION (?x q ?y)"))


def test_union_is_reported_before_select():
    projected = Select(frozenset((x,)), parse_pattern("(?x p ?y)"))
    union = parse_pattern("(?x q ?z) UNION (?x r ?z)")
    for pattern in (And(projected, union), And(union, projected), Select(frozenset((x,)), union)):
        with pytest.raises(NotUnionFree):
            is_well_designed(pattern)
    with pytest.raises(PreconditionViolated):
        is_well_designed(And(projected, parse_pattern("(?x q ?z)")))


def test_generated_well_designed_patterns_pass_the_check():
    rng = random.Random(99)
    for _ in range(300):
        pattern = random_well_designed(rng, depth=rng.randint(1, 4), negbound_rate=0.1)
        ok, violations = is_well_designed(pattern)
        assert ok, violations


def test_outside_vars_examples():
    pattern = parse_pattern("((?x p ?y) OPT (?y q ?z)) AND (?z r ?w)")
    assert outside_vars(pattern, (0, 1)) == {y, z}
    assert outside_vars(pattern, ()) == frozenset()
    with pytest.raises(InvalidPosition):
        outside_vars(pattern, (5, 5))


def test_outside_vars_distinguishes_duplicate_subtrees():
    pattern = parse_pattern("(?x p ?y) AND (?x p ?y)")
    # each occurrence sees the other occurrence's variables as outside
    assert outside_vars(pattern, (0,)) == {x, y}
    assert outside_vars(pattern, (1,)) == {x, y}


def test_extract_constraints_keeps_value_kinds_only():
    pattern = parse_pattern("((?x p ?y) FILTER ?x != c) FILTER bound(?y)")
    assert extract_constraints(pattern) == frozenset([NeqC(x, Iri("c"))])


def test_extract_constraints_on_filter_free_pattern():
    assert extract_constraints(parse_pattern("(?x p ?y) AND (?y q ?z)")) == frozenset()


def test_extract_constraints_collects_all_four_kinds():
    pattern = parse_pattern("(((?x p ?y) AND (?y q ?z)) FILTER ?x = ?z) FILTER ?x = c")
    assert extract_constraints(pattern) == frozenset([Eq(x, z), EqC(x, Iri("c"))])


def test_extract_constraints_rejects_non_af_patterns():
    with pytest.raises(NotAFPattern):
        extract_constraints(parse_pattern("(?x p ?y) OPT (?x q ?z)"))


def _positions(pattern):
    """Every occurrence's position, in pre-order."""
    todo = [(pattern, ())]
    while todo:
        node, position = todo.pop()
        yield position
        todo += [(kid, position + (i,)) for i, kid in reversed(list(enumerate(children(node))))]


def _outcome(check, *args):
    try:
        return check(*args)
    except (NotUnionFree, PreconditionViolated, InvalidPosition) as exc:
        return type(exc)


def test_well_designedness_matches_the_two_pass_reference():
    rng = random.Random(2024)
    seen = Counter()
    for _ in range(2000):
        pattern = random_pattern(rng, depth=rng.randint(0, 5), select_rate=0.15)
        if rng.random() < 0.2:  # one subtree at two positions
            pattern = rng.choice((And, Opt))(pattern, Filter(pattern, random_constraint(rng, ALL_KINDS, VAR_POOL)))
        expected = _outcome(wd_reference.is_well_designed, pattern)
        assert _outcome(is_well_designed, pattern) == expected
        seen[expected if isinstance(expected, type) else expected[0]] += 1
        seen.update(v.kind for v in ([] if isinstance(expected, type) else expected[1]))
        for position in list(_positions(pattern)) + [(2,), (0, 0, 0, 0, 0, 0, 0)]:
            assert _outcome(outside_vars, pattern, position) == _outcome(wd_reference.outside_vars, pattern, position)
    assert min(seen.values()) >= 50 and len(seen) == 6, seen
