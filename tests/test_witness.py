"""A fragment route's witness graph builds its RDF triples on first read:
until then it holds the triple patterns and the model, and prints, compares,
hashes, copies and pickles as the graph of the eagerly built triples."""

import copy
import pickle
import random

import pytest

from randgen import ALL_KINDS, random_pattern, random_well_designed, with_composite_filters
from sparqlsat import evaluate, parse_pattern
from sparqlsat.cli import main
from sparqlsat.corpus import generate_corpus
from sparqlsat.errors import PreconditionViolated, QuerySyntaxError, UnsupportedFeature
from sparqlsat.patterns import TriplePattern
from sparqlsat.satisfiability import Route, Satisfiable, constant_witness, injective_witness, run_pipeline
from sparqlsat.terms import Iri, Literal, RdfGraph, RdfTriple, Variable, _get_triples, _Instantiation, graph_lines
from wide_shapes import LADDER, basic_graph_pattern


def _corpus_patterns():
    for text in generate_corpus(2000, seed=777) + generate_corpus(2000, seed=7):
        try:
            yield parse_pattern(text)
        except (QuerySyntaxError, UnsupportedFeature):
            continue


def _random_patterns(count=3000):
    """Random patterns of every route: atomic filters of every kind,
    composite filters, and well-designed patterns, which route `none` reads."""
    rng = random.Random(30)
    for i in range(count):
        if i % 3 == 0:
            yield random_pattern(rng, 3, literal_subject_rate=0.1, select_rate=0.1)
        elif i % 3 == 1:
            yield with_composite_filters(rng, random_pattern(rng, 3), ALL_KINDS, opaque_rate=0)
        else:
            yield random_well_designed(rng, depth=rng.randint(1, 3))


def _assert_as_eager(witness: RdfGraph) -> bool:
    """Whether the witness was built when decided; if not, that it is the
    graph of the eagerly built triples."""
    held = _get_triples(witness)
    if type(held) is frozenset:
        return True
    assert type(held) is _Instantiation
    patterns, model = held
    eager = RdfGraph.of(
        RdfTriple(model.apply(tp.subject), model.apply(tp.predicate), model.apply(tp.object)) for tp in patterns
    )
    assert graph_lines(witness) == graph_lines(eager)
    assert type(_get_triples(witness)) is _Instantiation  # the lines built nothing
    assert repr(witness) == repr(eager)
    assert type(_get_triples(witness)) is frozenset  # read once, the patterns and model are dropped
    assert witness.triples == eager.triples and witness == eager and eager == witness
    assert not witness != eager and hash(witness) == hash(eager)
    assert graph_lines(witness) == graph_lines(eager) and len(witness) == len(eager)
    for clone in (copy.copy(witness), copy.deepcopy(witness), pickle.loads(pickle.dumps(witness))):
        assert type(_get_triples(clone)) is frozenset and clone == eager
    return False


def test_every_sat_witness_is_the_graph_of_the_eager_triples():
    patterns = list(_corpus_patterns()) + [parse_pattern(text) for _, text in LADDER] + list(_random_patterns())
    routes, built = set(), set()
    for pattern in patterns:
        for builtins_as_bound in (False, True):
            result = run_pipeline(pattern, builtins_as_bound=builtins_as_bound)
            if isinstance(result.verdict, Satisfiable):
                (built if _assert_as_eager(result.verdict.witness) else routes).add(result.profile.route)
    # only route `none` builds when deciding, where its model holds a literal
    assert routes == set(Route) and built == {Route.NONE}


@pytest.mark.parametrize("witness_of", [constant_witness, injective_witness])
def test_a_literal_subject_raises_when_decided(witness_of, monkeypatch):
    built = _count_triples(monkeypatch)
    pattern = TriplePattern(Literal("a"), Iri("p"), Variable("x"))
    with pytest.raises(PreconditionViolated, match="instantiates outside RDF: triple subject must be an IRI"):
        witness_of(pattern)
    assert built == [1]
    witness, model = witness_of(TriplePattern(Variable("x"), Iri("p"), Literal("a")))  # a literal object is fine
    assert graph_lines(witness) == [f'<{model[Variable("x")].name}> <p> "a" .'] and built == [1]


def _count_triples(monkeypatch) -> list:
    """A one-item list counting the `RdfTriple`s built from now on."""
    built = [0]
    original = RdfTriple.__init__

    def counted(self, *args):
        built[0] += 1
        original(self, *args)

    monkeypatch.setattr(RdfTriple, "__init__", counted)
    return built


def _first_sat_seed_777_query() -> str:
    for text in generate_corpus(20, seed=777):
        if isinstance(run_pipeline(parse_pattern(text), builtins_as_bound=True).verdict, Satisfiable):
            return text
    raise AssertionError("no SAT query")


# a literal in the triples: the images are checked position by position
_LITERAL_OBJECT = 'SELECT * WHERE { ?s <p> "a" . ?s <q> ?o FILTER (?o != "b") }'


@pytest.mark.parametrize(
    "text", [basic_graph_pattern(300), _first_sat_seed_777_query(), _LITERAL_OBJECT],
    ids=["bgp-300", "seed-777", "literal-object"],
)
def test_check_builds_no_triple(text, tmp_path, capsys, monkeypatch):
    query = tmp_path / "query.rq"
    query.write_text(text)
    built = _count_triples(monkeypatch)
    assert main(["check", "--builtins-as-bound", str(query)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("satisfiable\n") and built == [0]


def test_reading_the_triples_twice_builds_each_once(monkeypatch):
    pattern = parse_pattern(basic_graph_pattern(300))
    result = run_pipeline(pattern)
    built = _count_triples(monkeypatch)
    witness = result.verdict.witness
    assert result.verdict.sample in evaluate(pattern, witness)  # the evaluator reads the images
    assert built == [0]
    first = witness.triples
    assert witness.triples is first and len(first) == 300 and built == [300]
