"""Parsing and serialization of both grammars, plus round-trip properties."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randgen import random_pattern
from sparqlsat import (
    And,
    Bound,
    EqC,
    Filter,
    Iri,
    Literal,
    NeqC,
    Opaque,
    Opt,
    Select,
    TriplePattern,
    Union,
    Variable,
    parse_pattern,
    serialize_pattern,
)
from sparqlsat.errors import QuerySyntaxError, UnsupportedFeature
from sparqlsat.patterns import AndExpr, OrExpr, pattern_facts, vars_of


def tp(s, p, o):
    return TriplePattern(s, p, o)


x, y, z, u = Variable("x"), Variable("y"), Variable("z"), Variable("u")


def test_parse_single_triple():
    assert parse_pattern("(?x p ?y)") == tp(x, Iri("p"), y)


def test_parse_optional_union_nest():
    pattern = parse_pattern("(?x p ?y) OPT ((?x q ?z) UNION (?x r ?u))")
    expected = Opt(
        tp(x, Iri("p"), y),
        Union(tp(x, Iri("q"), z), tp(x, Iri("r"), u)),
    )
    assert pattern == expected


def test_parse_unbalanced_input_is_a_syntax_error():
    with pytest.raises(QuerySyntaxError):
        parse_pattern("(?x p")


def test_parse_literal_subject_triple():
    assert parse_pattern("(42 ?x ?y)") == tp(Literal("42"), x, y)


def test_parse_rejects_reserved_variable_prefix():
    with pytest.raises(QuerySyntaxError):
        parse_pattern("(?_g1 p ?y)")


def test_parse_filter_binds_tightest():
    pattern = parse_pattern("(?x p ?y) OPT (?x q ?z) FILTER bound(?z)")
    assert pattern == Opt(tp(x, Iri("p"), y), Filter(tp(x, Iri("q"), z), Bound(z)))


def test_parse_boolean_filter_structure():
    pattern = parse_pattern("(?x p ?y) FILTER (bound(?y) && ?x = c || ?x != ?y)")
    (condition,) = pattern_facts(pattern).conditions
    assert isinstance(condition, OrExpr)
    assert isinstance(condition.left, AndExpr)


def test_parse_select_node():
    pattern = parse_pattern("SELECT {?x} ((?x p ?y))")
    assert pattern == Select(frozenset([x]), tp(x, Iri("p"), y))


def test_parse_filter_exists_rewrites_to_projection():
    pattern = parse_pattern("(?x p ?y) FILTER EXISTS ((?x q ?z))")
    assert isinstance(pattern, Select)
    assert pattern.scheme == {x, y}
    assert pattern.pattern == And(tp(x, Iri("p"), y), tp(x, Iri("q"), z))


def test_parse_blank_nodes_become_fresh_variables():
    pattern = parse_pattern("(_:b p _:b) AND (_:c q ?x)")
    left, right = pattern.left, pattern.right
    assert left.subject == left.object
    assert left.subject.name.startswith("_g")
    assert right.subject != left.subject


def test_parse_opaque_builtin_captures_text_and_mentions():
    pattern = parse_pattern('(?x p ?y) FILTER langMatches(lang(?y), "es")')
    (condition,) = pattern_facts(pattern).conditions
    assert isinstance(condition, Opaque)
    assert condition.text == 'langMatches(lang(?y), "es")'
    assert condition.mentions == {y}


def test_parse_constant_comparisons():
    assert pattern_facts(parse_pattern("(?x p ?y) FILTER ?x = c")).conditions == (EqC(x, Iri("c")),)
    assert pattern_facts(parse_pattern("(?x p ?y) FILTER ?x != 42")).conditions == (
        NeqC(x, Literal("42")),
    )
    assert pattern_facts(parse_pattern("(?x p ?y) FILTER c = ?x")).conditions == (EqC(x, Iri("c")),)


# --- query subset ---------------------------------------------------------------

def test_surface_basic_select():
    pattern = parse_pattern("SELECT ?x WHERE { ?x <p> ?y . }")
    assert pattern == Select(frozenset([x]), tp(x, Iri("p"), y))


def test_surface_star_has_no_projection():
    pattern = parse_pattern("SELECT DISTINCT * WHERE { ?x <p> ?y }")
    assert pattern == tp(x, Iri("p"), y)


def test_surface_optional_and_filter_scope():
    pattern = parse_pattern(
        "SELECT * WHERE { ?x <p> ?y OPTIONAL { ?x <q> ?z } FILTER bound(?z) }"
    )
    assert pattern == Filter(Opt(tp(x, Iri("p"), y), tp(x, Iri("q"), z)), Bound(z))


def test_surface_union_groups():
    pattern = parse_pattern("SELECT * WHERE { { ?x <p> ?y } UNION { ?x <q> ?y } }")
    assert pattern == Union(tp(x, Iri("p"), y), tp(x, Iri("q"), y))


def test_surface_prefix_resolution_and_a_keyword():
    pattern = parse_pattern(
        "PREFIX dbo: <http://dbpedia.org/ontology/>\n"
        "SELECT * WHERE { ?x a dbo:University . }"
    )
    assert pattern.predicate == Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
    assert pattern.object == Iri("http://dbpedia.org/ontology/University")


def test_surface_predicate_and_object_lists():
    pattern = parse_pattern("SELECT * WHERE { ?x <p> ?y, ?z ; <q> ?u . }")
    triples = [node for node in (pattern.left.left, pattern.left.right, pattern.right)]
    assert triples == [tp(x, Iri("p"), y), tp(x, Iri("p"), z), tp(x, Iri("q"), u)]


def test_surface_unsupported_features():
    with pytest.raises(UnsupportedFeature):
        parse_pattern("SELECT * WHERE { ?x <p> ?y MINUS { ?x <q> ?y } }")
    with pytest.raises(UnsupportedFeature):
        parse_pattern("SELECT * WHERE { ?x <p> ?y } LIMIT 5")
    with pytest.raises(UnsupportedFeature):
        parse_pattern("ASK { ?x <p> ?y }")
    with pytest.raises(UnsupportedFeature):
        parse_pattern("SELECT * WHERE { ?x <p>/<q> ?y }")
    with pytest.raises(UnsupportedFeature):
        parse_pattern("SELECT * WHERE { ?x <p> ?y FILTER NOT EXISTS { ?x <q> ?y } }")


def test_surface_exists_filter():
    pattern = parse_pattern("SELECT * WHERE { ?x <p> ?y FILTER EXISTS { ?x <q> ?z } }")
    assert isinstance(pattern, Select)
    assert pattern.scheme == {x, y}


def test_surface_unknown_prefix_is_a_syntax_error():
    with pytest.raises(QuerySyntaxError):
        parse_pattern("SELECT * WHERE { ?x dbo:country ?y }")


# --- serialization ----------------------------------------------------------------

def test_serialize_single_triple():
    assert serialize_pattern(tp(x, Iri("p"), y)) == "(?x p ?y)"


def test_serialize_select_node():
    text = serialize_pattern(Select(frozenset([x]), tp(x, Iri("p"), y)))
    assert text == "SELECT {?x} ((?x p ?y))"


def test_serialize_quotes_awkward_terms():
    pattern = tp(Iri("http://example.org/p"), Iri("UNION"), Literal('say "hi"'))
    text = serialize_pattern(pattern)
    assert parse_pattern(text) == pattern


def test_roundtrip_of_the_optional_union_example():
    source = "(?x p ?y) OPT ((?x q ?z) UNION (?x r ?u))"
    pattern = parse_pattern(source)
    assert parse_pattern(serialize_pattern(pattern)) == pattern


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_roundtrip_random_patterns(seed):
    rng = random.Random(seed)
    pattern = random_pattern(rng, depth=rng.randint(0, 4), select_rate=0.2)
    assert parse_pattern(serialize_pattern(pattern)) == pattern


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_roundtrip_surface_queries(seed):
    # surface parsing produces the AST; its compact rendering must reparse equal
    from sparqlsat.corpus import generate_query

    rng = random.Random(seed)
    pattern = parse_pattern(generate_query(rng))
    assert parse_pattern(serialize_pattern(pattern)) == pattern


def test_roundtrip_preserves_every_variable():
    rng = random.Random(7)
    for _ in range(50):
        pattern = random_pattern(rng, depth=3)
        assert vars_of(parse_pattern(serialize_pattern(pattern))) == vars_of(pattern)
