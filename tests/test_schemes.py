"""Candidate scheme families, entailment, and filter-variable pruning."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randgen import random_pattern
from wide_shapes import basic_graph_pattern
from sparqlsat import (
    Bound,
    Eq,
    NeqC,
    NegBound,
    Iri,
    Variable,
    admits,
    candidate_schemes,
    filter_variables,
    parse_pattern,
    pruned_schemes,
    schemes,
)
from sparqlsat.errors import PreconditionViolated, SchemeSetBlowup
from sparqlsat.schemes import scheme_table

x, y, z, u = Variable("x"), Variable("y"), Variable("z"), Variable("u")


def family(*schemes):
    return frozenset(frozenset(s) for s in schemes)


def test_entailment_rules():
    assert not admits(frozenset((x, z)), Eq(y, z))
    assert admits(frozenset((x, y)), NeqC(x, Iri("c")))
    assert admits(frozenset(), NegBound(x))
    assert not admits(frozenset((x,)), NegBound(x))
    assert admits(frozenset((x,)), Bound(x))


def test_optional_union_family():
    pattern = parse_pattern("(?x p ?y) OPT ((?x q ?z) UNION (?x r ?u))")
    assert candidate_schemes(pattern) == family({x, y}, {x, y, z}, {x, y, u})


def test_filter_inside_optional_family():
    pattern = parse_pattern("((?x p ?y) OPT ((?x q ?z) FILTER ?y = ?z)) FILTER ?x != c")
    assert candidate_schemes(pattern) == family({x, y})


def test_union_under_bound_filters_is_empty():
    pattern = parse_pattern("((?x a_ ?y) UNION (?x b_ ?z)) FILTER bound(?y) FILTER bound(?z)")
    assert candidate_schemes(pattern) == frozenset()


def test_family_blowup_cap(monkeypatch):
    arms = " OPT ".join(f"(?s p{i} ?v{i})" for i in range(25))
    pattern = parse_pattern(arms)
    monkeypatch.setattr(schemes, "DEFAULT_SCHEME_CAP", 1 << 10)
    with pytest.raises(SchemeSetBlowup):
        candidate_schemes(pattern)
    # the pruned family of the same pattern is a single empty scheme
    assert pruned_schemes(pattern) == family(set())


def test_filter_variables_examples():
    assert filter_variables(parse_pattern("(?x p ?y)")) == frozenset()
    assert filter_variables(parse_pattern("(?x p ?y) FILTER ?x != c")) == {x}
    pattern = parse_pattern(
        "((?s p ?a) OPT (?s q ?b)) FILTER bound(?a) FILTER (?b != c || bound(?a))"
    )
    assert filter_variables(pattern) == {Variable("a"), Variable("b")}


def test_pruned_family_is_the_pointwise_intersection():
    rng = random.Random(2)
    for _ in range(200):
        pattern = random_pattern(rng, depth=rng.randint(0, 4))
        fv = filter_variables(pattern)
        full = candidate_schemes(pattern)
        assert pruned_schemes(pattern) == frozenset(s & fv for s in full)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_pruned_emptiness_matches_full_emptiness(seed):
    rng = random.Random(seed)
    pattern = random_pattern(rng, depth=rng.randint(0, 5))
    assert bool(pruned_schemes(pattern)) == bool(candidate_schemes(pattern))


def test_scheme_table_covers_every_node():
    pattern = parse_pattern("((?x p ?y) OPT (?x q ?z)) FILTER bound(?z)")
    _, table = scheme_table(pattern)
    assert table[id(pattern)] == family({z})
    assert table[id(pattern.pattern)] == family({z})


def maximal(schemes):
    return frozenset(s for s in schemes if not any(s < t for t in schemes))


UPWARD_CLOSED_KINDS = ("bound", "eq", "neq", "eqc", "neqc")


def test_scheme_table_holds_the_maximal_pruned_schemes_of_every_node():
    from randgen import iter_subpatterns

    rng = random.Random(4)
    checked = 0
    for _ in range(400):
        pattern = random_pattern(rng, depth=rng.randint(0, 5), kinds=UPWARD_CLOSED_KINDS)
        fv, table = scheme_table(pattern)
        assert fv == filter_variables(pattern)
        for node in iter_subpatterns(pattern):
            try:
                full = candidate_schemes(node)
            except SchemeSetBlowup:
                continue
            checked += 1
            assert table[id(node)] == maximal({s & fv for s in full})
    assert checked > 1500


def test_scheme_table_refuses_negated_bound():
    pattern = parse_pattern("((?x p ?y) OPT (?x q ?z)) FILTER !bound(?z)")
    with pytest.raises(PreconditionViolated):
        scheme_table(pattern)
    assert pruned_schemes(pattern) == family(set())


def figure_shaped_query(arms: int = 28) -> str:
    lines = ["?s a <http://dbpedia.org/ontology/University> ."]
    for i in range(arms):
        lines.append(f"OPTIONAL {{?s <http://dbpedia.org/property/p{i}> ?v{i} .}}")
    lines.append('FILTER ( langMatches(lang(?v1), "es") || langMatches(lang(?v1), "en") )')
    lines.append('FILTER ( langMatches(lang(?v2), "es") || langMatches(lang(?v2), "en") )')
    return "SELECT DISTINCT * WHERE {\n" + "\n".join(lines) + "\n}"


def test_deep_optional_nest_prunes_to_two_filter_variables():
    from sparqlsat import normalize_filters

    pattern = normalize_filters(parse_pattern(figure_shaped_query()), builtins_as_bound=True)
    fv = filter_variables(pattern)
    assert fv == {Variable("v1"), Variable("v2")}
    start = time.perf_counter()
    pruned = pruned_schemes(pattern)
    elapsed = time.perf_counter() - start
    assert pruned
    assert len(pruned) <= 4
    assert elapsed < 0.05


def test_a_filter_free_bgp_shares_one_family_and_joins_build_none(monkeypatch):
    # every node of a BGP without filters has the family {∅}: the table
    # maps each node to one shared family and builds none
    from sparqlsat import schemes

    pattern = parse_pattern(basic_graph_pattern(300))
    built = []

    def counting_frozenset(*args):
        built.append(args)
        return frozenset(*args)

    monkeypatch.setattr(schemes, "frozenset", counting_frozenset, raising=False)
    fv, table = scheme_table(pattern)
    monkeypatch.undo()
    assert fv == frozenset()
    assert len(table) == 300 + 299
    assert len({id(f) for f in table.values()}) == 1
    assert table[id(pattern)] == family(set())
    assert built == []  # no triple's family and no AND's
