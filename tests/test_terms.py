"""Core value types: terms, triples, graphs, mappings."""

import copy
import gc
import pickle
import sys
import threading
import weakref

import pytest

from sparqlsat import BlankNode, Iri, Literal, Mapping, RdfGraph, RdfTriple, TriplePattern, Variable
from sparqlsat.terms import RING_SIZE


def test_term_kinds_are_disjoint():
    assert Iri("a") != Literal("a")
    assert Iri("a") != BlankNode("a")
    assert Literal("a") != Variable("a")
    assert len({Iri("a"), Literal("a"), BlankNode("a"), Variable("a")}) == 4


def test_terms_are_interned_per_kind():
    assert Iri("a") is Iri("a")
    assert Variable("x") is Variable("x")
    assert Literal("a") is not Iri("a")
    assert Literal("a") == Literal("a") and Literal("a") != Literal("b")


@pytest.mark.parametrize("term", [Iri("a"), Literal("a"), BlankNode("a"), Variable("a")])
def test_copies_and_pickles_return_the_interned_term(term):
    assert copy.copy(term) is term
    assert copy.deepcopy(term) is term
    assert pickle.loads(pickle.dumps(term)) is term


def test_concurrent_construction_yields_one_instance():
    keys = [f"race{i}" for i in range(3000)]
    results = [None] * 8

    def build(slot):
        results[slot] = [Iri(key) for key in keys]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(slot,)) for slot in range(len(results))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for built in results[1:]:
        assert all(a is b for a, b in zip(results[0], built))


# The keys below are used nowhere else, so no leftover instance can stand in
# for the terms these tests build.

def test_a_dropped_term_lives_until_the_ring_turns_over():
    term = Literal("ring retention probe")
    ref = weakref.ref(term)
    del term
    gc.collect()
    assert ref() is not None and Literal("ring retention probe") is ref()  # a hit does not touch the ring
    for i in range(RING_SIZE - 1):
        Iri(f"ring retention filler {i}")
    gc.collect()
    assert ref() is not None
    Iri(f"ring retention filler {RING_SIZE - 1}")
    gc.collect()
    assert ref() is None


def test_the_intern_tables_hold_at_most_the_ring_beyond_live_terms():
    kinds = (Iri, Literal, BlankNode, Variable)
    tables = [kind._interned for kind in kinds]
    gc.collect()
    before = sum(map(len, tables))
    keys = [f"ring bound {i}" for i in range(10 * RING_SIZE)]
    for i, key in enumerate(keys):
        kinds[i % len(kinds)](key)
    gc.collect()
    survivors = [i for i, key in enumerate(keys) if key in tables[i % len(kinds)]]
    assert survivors == list(range(9 * RING_SIZE, 10 * RING_SIZE))  # one ring for every class
    assert sum(map(len, tables)) <= before + RING_SIZE


def test_variable_name_must_be_nonempty():
    with pytest.raises(ValueError):
        Variable("")


def test_rdf_triple_position_invariants():
    RdfTriple(Iri("s"), Iri("p"), Literal("42"))
    RdfTriple(BlankNode("b"), Iri("p"), BlankNode("c"))
    with pytest.raises(ValueError):
        RdfTriple(Literal("42"), Iri("p"), Iri("o"))
    with pytest.raises(ValueError):
        RdfTriple(Iri("s"), BlankNode("b"), Iri("o"))
    with pytest.raises(ValueError):
        RdfTriple(Iri("s"), Iri("p"), Variable("x"))


def test_graph_set_semantics():
    t = RdfTriple(Iri("s"), Iri("p"), Iri("o"))
    graph = RdfGraph.of([t, t, RdfTriple(Iri("s"), Iri("p"), Iri("o"))])
    assert len(graph) == 1
    assert t in graph


def test_triple_pattern_invariants():
    TriplePattern(Literal("42"), Variable("x"), Variable("y"))  # literal subject is a pattern, just unsatisfiable
    with pytest.raises(ValueError):
        TriplePattern(Variable("x"), Literal("p"), Variable("y"))
    with pytest.raises(ValueError):
        TriplePattern(BlankNode("b"), Iri("p"), Variable("y"))


def test_mapping_application_and_identity_on_constants():
    m = Mapping({Variable("x"): Iri("a")})
    assert m.apply(Variable("x")) == Iri("a")
    assert m.apply(Iri("c")) == Iri("c")
    assert m.apply(Literal("5")) == Literal("5")
    with pytest.raises(KeyError):
        m.apply(Variable("missing"))


def test_mapping_equality_is_extensional():
    m1 = Mapping([(Variable("x"), Iri("a")), (Variable("y"), Iri("b"))])
    m2 = Mapping([(Variable("y"), Iri("b")), (Variable("x"), Iri("a"))])
    assert m1 == m2
    assert hash(m1) == hash(m2)
    assert len({m1, m2}) == 1


def test_mapping_merge_and_restrict():
    m1 = Mapping({Variable("x"): Iri("a")})
    m2 = Mapping({Variable("y"): Iri("b")})
    merged = m1.merge(m2)
    assert merged.domain == {Variable("x"), Variable("y")}
    clash = Mapping({Variable("x"): Iri("z")})
    assert m1.merge(clash) is None
    assert merged.restrict(frozenset([Variable("x")])) == m1
    assert merged.drop(frozenset([Variable("x")])) == m2


def test_mapping_rejects_variable_values():
    with pytest.raises(TypeError):
        Mapping({Variable("x"): Variable("y")})
