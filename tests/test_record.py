"""The value classes on `record.Record`, and what `import sparqlsat.cli` loads."""

import copy
import os
import pickle
import subprocess
import sys

import pytest

import sparqlsat
from sparqlsat import corpus, dalab, patterns, report, rewrites, satisfiability, terms, welldesigned
from sparqlsat.patterns import (
    And,
    AndExpr,
    Bound,
    Eq,
    EqC,
    Filter,
    Neq,
    NeqC,
    NegBound,
    NotExpr,
    Opaque,
    Opt,
    OrExpr,
    Select,
    TriplePattern,
    Union,
)
from sparqlsat.record import Record
from sparqlsat.terms import Iri, Literal, RdfGraph, RdfTriple, Variable

X, Y, P = Variable("x"), Variable("y"), Iri("p")
T1, T2 = TriplePattern(X, P, Y), TriplePattern(Y, Iri("q"), X)
REL = dalab.Rel()


def _examples() -> list:
    """One object of every class on `Record`."""
    filtered = Filter(Opt(T1, T2), Bound(Y))
    triple = RdfTriple(Iri("a"), P, Literal("b"))
    entry = report.EntryRecord(1, "ok")
    return [
        T1, Bound(X), NegBound(X), Eq(X, Y), Neq(X, Y), EqC(X, Iri("a")), NeqC(X, Literal("b")),
        Opaque('regex(?x, "a")', frozenset({X})), NotExpr(Bound(X)), AndExpr(Bound(X), Eq(X, Y)),
        OrExpr(Bound(X), NegBound(Y)), Union(T1, T2), And(T1, T2), Opt(T1, T2), filtered,
        Select(frozenset({X}), T1), patterns.pattern_facts(filtered),
        triple, RdfGraph(frozenset({triple})),
        rewrites.UnionMember(T1, True, False),
        welldesigned.WdViolation("filter-unsafe", (0,), X),
        satisfiability.classify_fragment(filtered),
        satisfiability.decide_satisfiability(filtered),
        satisfiability.Unsatisfiable(satisfiability.UnsatReason.WRONG_LITERAL),
        satisfiability.Unknown("opaque builtin call in filter"),
        satisfiability.run_pipeline(filtered),
        corpus.entry_from_text(1, "SELECT * WHERE { ?x <p> ?y }"),
        report.PipelineOptions(builtins_as_bound=True),
        entry,
        report.ScalingResult([10, 20], [1.5, 3.0], 1.0),
        report.AnalysisReport(1, {"satisfiable": 1}, [entry]),
        REL, dalab.DUnion(REL, REL), dalab.DDiff(REL, REL), dalab.DComp(REL, dalab.DUnion(REL, REL)),
        dalab.ChoiceCoverInstance(frozenset({X, Y}), (frozenset({frozenset({X})}), frozenset({frozenset({Y})}))),
    ]


EXAMPLES = _examples()
MUTABLE = (report.EntryRecord, report.ScalingResult, report.AnalysisReport)


def _subclasses(cls) -> set:
    found = set(cls.__subclasses__())
    for sub in list(found):
        found |= _subclasses(sub)
    return found


def test_every_value_class_has_an_example():
    assert len(EXAMPLES) == 36
    assert {type(obj) for obj in EXAMPLES} == _subclasses(Record)


def _twin(obj):
    """An object of obj's class built from obj's fields."""
    return type(obj)(*(getattr(obj, name) for name in type(obj).__slots__))


@pytest.mark.parametrize("obj", EXAMPLES, ids=lambda obj: type(obj).__name__)
def test_value_class_behaves_as_a_value(obj):
    twin = _twin(obj)
    assert twin is not obj and twin == obj and not twin != obj
    if isinstance(obj, MUTABLE):
        with pytest.raises(TypeError):
            hash(obj)
        setattr(twin, type(obj).__slots__[0], None)
        assert twin != obj
    else:
        assert hash(twin) == hash(obj)
        for name in (type(obj).__slots__[:1] or ("anything",)):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
    assert not hasattr(obj, "__dict__")
    for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(clone) is type(obj) and clone == obj


def test_equal_fields_of_different_classes_are_not_equal():
    assert And(T1, T2) != Opt(T1, T2) and Eq(X, Y) != Neq(X, Y)
    assert dalab.DUnion(REL, REL) != dalab.DDiff(REL, REL)
    assert And(T1, T2) != (T1, T2)


def test_constructors_take_fields_by_name_and_defaults():
    assert TriplePattern(subject=X, predicate=P, object=Y) == T1
    assert report.PipelineOptions(repeats=0) == report.PipelineOptions(False, 0, ())
    assert corpus.CorpusEntry(1, "text", "ok", T1).error is None
    assert satisfiability.Unknown(reason="why") == satisfiability.Unknown("why")
    assert report.ScalingResult([1], pearson=1.0, total_ms=[2.0]) == report.ScalingResult([1], [2.0], 1.0)
    # a field missing, one too many, one given twice, an unknown name
    for args, kwargs in (
        (([1], [2.0]), {}), (([1], [2.0], 1.0, 0), {}), (([1], [2.0], 1.0), {"sizes": [1]}),
        (([1], [2.0]), {"pearson": 1.0, "extra": 0}),
    ):
        with pytest.raises(TypeError):
            report.ScalingResult(*args, **kwargs)
    with pytest.raises(TypeError):
        report.PipelineOptions(False, 5, (), "extra")
    with pytest.raises(TypeError):
        report.EntryRecord(1, "ok", entry_id=2)


def test_constructors_keep_their_checks():
    with pytest.raises(ValueError):
        TriplePattern(X, Literal("p"), Y)
    with pytest.raises(ValueError):
        Neq(X, X)
    with pytest.raises(ValueError):
        EqC(X, Y)
    with pytest.raises(ValueError):
        RdfTriple(Iri("a"), P, X)
    with pytest.raises(ValueError):
        dalab.ChoiceCoverInstance(frozenset({X}), (frozenset({frozenset({Y})}),))


def test_repr_is_unchanged():
    # the texts below are the reprs of the same objects before the value
    # classes were rewritten
    assert repr(Filter(And(T1, Opt(T1, T1)), Neq(X, Y))) == (
        "Filter(pattern=And(left=TriplePattern(subject=Variable('x'), predicate=Iri('p'), object=Variable('y')), "
        "right=Opt(left=TriplePattern(subject=Variable('x'), predicate=Iri('p'), object=Variable('y')), "
        "right=TriplePattern(subject=Variable('x'), predicate=Iri('p'), object=Variable('y')))), "
        "condition=Neq(left=Variable('x'), right=Variable('y')))"
    )
    assert repr(Select(frozenset({X}), T1)) == (
        "Select(scheme=frozenset({Variable('x')}), "
        "pattern=TriplePattern(subject=Variable('x'), predicate=Iri('p'), object=Variable('y')))"
    )
    assert repr(report.EntryRecord(1, "ok")) == (
        "EntryRecord(entry_id=1, status='ok', verdict=None, kinds=None, route=None, well_designed=None, "
        "wrong_literal_modified=None, stage_ns=None, error=None)"
    )
    assert repr(report.PipelineOptions()) == "PipelineOptions(builtins_as_bound=False, repeats=5, size_buckets=())"
    assert repr(dalab.DComp(REL, dalab.DUnion(REL, REL))) == "DComp(left=Rel(), right=DUnion(left=Rel(), right=Rel()))"
    assert repr(satisfiability.Unsatisfiable(satisfiability.UnsatReason.WRONG_LITERAL)) == (
        "Unsatisfiable(reason=<UnsatReason.WRONG_LITERAL: 'wrong-literal'>)"
    )
    assert repr(RdfTriple(Iri("a"), P, Literal("b"))) == (
        "RdfTriple(subject=Iri('a'), predicate=Iri('p'), object=Literal('b'))"
    )
    assert repr(report.ScalingResult([1, 2], [0.5, 1.0], 1.0)) == (
        "ScalingResult(sizes=[1, 2], total_ms=[0.5, 1.0], pearson=1.0)"
    )
    assert repr(Opaque('regex(?x, "a")', frozenset({X}))) == (
        """Opaque(text='regex(?x, "a")', mentions=frozenset({Variable('x')}))"""
    )


_FOOTPRINT = """
import sys
import sparqlsat.cli
print(sorted(name for name in ("dataclasses", "statistics", "sparqlsat.dalab") if name in sys.modules))
print(sorted(name for name in ("sparqlsat.syntax", "sparqlsat.satisfiability", "sparqlsat.report",
                               "sparqlsat.corpus") if name in sys.modules))
from sparqlsat import da_eval, emulate_eqneq
print(da_eval.__module__, emulate_eqneq.__module__)
sys.exit(sparqlsat.cli.main(["check", sys.argv[1]]))
"""


def test_cli_import_leaves_out_what_check_never_runs(tmp_path):
    query = tmp_path / "query.rq"
    query.write_text("SELECT * WHERE { ?x <p> ?y FILTER(bound(?y)) }\n")
    # the child imports the package this test imported, however pytest found it
    package_root = os.path.dirname(os.path.dirname(sparqlsat.__file__))
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT, str(query)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "[]"
    assert lines[1] == "['sparqlsat.corpus', 'sparqlsat.report', 'sparqlsat.satisfiability', 'sparqlsat.syntax']"
    assert lines[2] == "sparqlsat.dalab sparqlsat.dalab"
    assert lines[3] == "satisfiable"


def test_lazy_names_are_listed_and_missing_ones_raise():
    assert {"da_eval", "emulate_eqneq", "parse_da", "parse_pattern"} <= set(dir(sparqlsat))
    with pytest.raises(AttributeError):
        sparqlsat.no_such_name
    assert terms.Mapping is sparqlsat.Mapping
