"""Relation algebra, the difference-emulating compilers, and hardness generators."""

import itertools
import random
import sys
import time

import pytest

from randgen import random_graph
from sparqlsat import (
    And,
    Iri,
    TriplePattern,
    Variable,
    decide_satisfiability,
    evaluate,
    Satisfiable,
)
from sparqlsat.dalab import (
    ChoiceCoverInstance,
    DComp,
    DDiff,
    DUnion,
    Rel,
    ab_sat_wrapper,
    adom,
    bounded_sat_search,
    canonical_domain,
    choice_cover_solve,
    choice_cover_to_pattern,
    cnf_satisfiable,
    cnf_to_choice_cover,
    da_eval,
    da_text,
    emulate_eqc,
    emulate_eqneq,
    emulate_negbound,
    graph_of_relation,
    parse_da,
    parse_dimacs,
    result_pairs,
    two_sat_wrapper,
    RESULT_X,
    RESULT_Y,
)
from sparqlsat.cli import main
from sparqlsat.patterns import pattern_facts
from sparqlsat.errors import BoundTooLarge, EmptyChoiceSet, InvalidConstants, QuerySyntaxError

a, b, c, d = Iri("a"), Iri("b"), Iri("c"), Iri("d")
CHAIN_RELATION = frozenset([(a, b), (b, c), (a, c), (c, d)])
COMP_MINUS = parse_da("(R . R) - R")


def rel_names(relation):
    return sorted((x.name, y.name) for x, y in relation)


# --- evaluation ------------------------------------------------------------------

def test_da_eval_worked_example():
    assert rel_names(da_eval(COMP_MINUS, CHAIN_RELATION)) == [("a", "d"), ("b", "d")]


def test_da_eval_identity_and_self_difference():
    assert da_eval(Rel(), CHAIN_RELATION) == CHAIN_RELATION
    assert da_eval(DDiff(Rel(), Rel()), CHAIN_RELATION) == frozenset()


def test_da_parse_and_render_roundtrip():
    for text in ("R", "(R . R) - R", "R | (R - (R . R))", "((R . R) - R) . R - (R . R) . R"):
        expr = parse_da(text)
        assert parse_da(da_text(expr)) == expr


@pytest.mark.parametrize(
    "text, message",
    [
        ("R ..", "unexpected '.' in relation expression at offset 3"),
        ("R R", "trailing 'R' at offset 2"),
        ("(R", "expected ')', found end of input at offset 2"),
        ("(R R)", "expected ')', found 'R' at offset 3"),
        ("R -", "unexpected end of input in relation expression at offset 3"),
        ("", "unexpected end of input in relation expression at offset 0"),
        ("R .  x", "cannot read 'x' at offset 5"),
    ],
)
def test_da_syntax_errors_name_the_offending_token(text, message):
    with pytest.raises(QuerySyntaxError) as info:
        parse_da(text)
    assert str(info.value) == message


def test_graph_of_relation():
    assert len(graph_of_relation(CHAIN_RELATION)) == 4
    assert graph_of_relation(frozenset()) == graph_of_relation(frozenset())
    assert len(graph_of_relation(frozenset([(a, b)]))) == 1


# --- compilers ---------------------------------------------------------------------

def test_base_case_is_the_relation_triple():
    for compiler in (emulate_negbound, emulate_eqneq):
        assert compiler(Rel()) == TriplePattern(RESULT_X, Iri("r"), RESULT_Y)
    assert emulate_eqc(Rel(), a, b) == TriplePattern(RESULT_X, Iri("r"), RESULT_Y)


def test_composition_introduces_one_fresh_middle_variable():
    compiled = emulate_negbound(DComp(Rel(), Rel()))
    middle = Variable("_g1")
    assert compiled == And(
        TriplePattern(RESULT_X, Iri("r"), middle),
        TriplePattern(middle, Iri("r"), RESULT_Y),
    )


def test_difference_free_compilers_agree_structurally():
    expr = DUnion(DComp(Rel(), Rel()), Rel())
    assert emulate_negbound(expr) == emulate_eqneq(expr) == emulate_eqc(expr, a, b)


def test_eqc_constant_validation():
    with pytest.raises(InvalidConstants):
        emulate_eqc(Rel(), a, a)
    with pytest.raises(InvalidConstants):
        emulate_eqc(Rel(), Iri("r"), b)


def test_all_compilers_reproduce_the_worked_difference():
    graph = graph_of_relation(CHAIN_RELATION)
    for compiled in (
        emulate_negbound(COMP_MINUS),
        emulate_eqneq(COMP_MINUS),
        emulate_eqc(COMP_MINUS, a, b),
    ):
        assert rel_names(result_pairs(evaluate(compiled, graph))) == [("a", "d"), ("b", "d")]


def random_da_expr(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return Rel()
    node = rng.choice((DUnion, DDiff, DComp))
    return node(random_da_expr(rng, depth - 1), random_da_expr(rng, depth - 1))


def all_relations(size: int):
    domain = canonical_domain(size)
    pairs = [(p, q) for p in domain for q in domain]
    for mask in range(1 << len(pairs)):
        yield frozenset(pairs[i] for i in range(len(pairs)) if mask >> i & 1)


def test_result_variables_are_always_bound():
    rng = random.Random(5)
    for _ in range(40):
        expr = random_da_expr(rng, rng.randint(1, 3))
        for compiled in (emulate_negbound(expr), emulate_eqneq(expr), emulate_eqc(expr, a, b)):
            graph = random_graph(rng, compiled)
            for solution in evaluate(compiled, graph):
                assert RESULT_X in solution and RESULT_Y in solution


def test_compilers_only_see_the_relation_predicate():
    # evaluating a compiled pattern on any graph equals evaluating it on the
    # subgraph keeping relation-predicate triples only, for all three variants
    rng = random.Random(6)
    from sparqlsat import RdfGraph

    for _ in range(25):
        expr = random_da_expr(rng, rng.randint(1, 3))
        for compiled in (
            emulate_negbound(expr),
            emulate_eqneq(expr),
            emulate_eqc(expr, Iri("d1"), Iri("d2")),
        ):
            graph = random_graph(rng, compiled)
            restricted = RdfGraph.of(t for t in graph if t.predicate == Iri("r"))
            assert evaluate(compiled, graph) == evaluate(compiled, restricted)


def test_difference_emulation_on_small_relations():
    # spot-check the three variants across every relation on two elements
    rng = random.Random(8)
    exprs = [COMP_MINUS] + [random_da_expr(rng, 2) for _ in range(6)]
    for expr in exprs:
        negbound = emulate_negbound(expr)
        eqneq = emulate_eqneq(expr)
        eqc = emulate_eqc(expr, Iri("d1"), Iri("d2"))
        for relation in all_relations(2):
            graph = graph_of_relation(relation)
            expected = da_eval(expr, relation)
            assert result_pairs(evaluate(negbound, graph)) == expected
            if len(adom(relation)) >= 2:
                assert result_pairs(evaluate(eqneq, graph)) == expected
            if {Iri("d1"), Iri("d2")} <= adom(relation):
                assert result_pairs(evaluate(eqc, graph)) == expected


def test_a_shared_subexpression_compiles_as_two_occurrences():
    r = Rel()
    pairs = ((DComp(r, r), DComp(Rel(), Rel())), (DDiff(DComp(r, r), r), DDiff(DComp(Rel(), Rel()), Rel())))
    for shared, tree in pairs:
        assert da_text(shared) == da_text(tree)
        assert da_eval(shared, CHAIN_RELATION) == da_eval(tree, CHAIN_RELATION)
        assert emulate_negbound(shared) == emulate_negbound(tree)
        assert emulate_eqneq(shared) == emulate_eqneq(tree)
        assert emulate_eqc(shared, a, b) == emulate_eqc(tree, a, b)


def test_rename_vars_runs_at_most_once_per_compile(monkeypatch):
    from sparqlsat import dalab

    calls = []
    real = dalab.rename_vars
    monkeypatch.setattr(dalab, "rename_vars", lambda p, renamings: calls.append(p) or real(p, renamings))
    for text in ("R", "R - R", "((R . R) - R) . (R - (R . R))", " . ".join(["R"] * 50)):
        expr = parse_da(text)
        for compile_ in (emulate_negbound, emulate_eqneq, lambda e: emulate_eqc(e, a, b)):
            calls.clear()
            compile_(expr)
            assert len(calls) <= 1


CHAIN = " . ".join(["R"] * 2000)


def test_a_long_chain_compiles_in_linear_time():
    assert sys.getrecursionlimit() == 1000
    expr = parse_da(CHAIN)
    for compile_ in (emulate_negbound, emulate_eqneq, lambda e: emulate_eqc(e, a, b)):
        start = time.perf_counter()
        compiled = compile_(expr)
        assert time.perf_counter() - start < 0.5
        triples = pattern_facts(compiled).triples
        # ?x r ?_g1, ?_g1 r ?_g2, ..., ?_g1999 r ?y, left to right
        names = ["x"] + [f"_g{i}" for i in range(1, 2000)] + ["y"]
        assert [(t.subject.name, t.object.name) for t in triples] == list(zip(names, names[1:]))


def test_deep_expressions_parse_evaluate_and_print():
    assert parse_da("(" * 2000 + "R" + ")" * 2000) == Rel()
    expr = parse_da(CHAIN)
    assert da_eval(expr, CHAIN_RELATION) == frozenset()
    assert da_eval(expr, frozenset([(a, a)])) == frozenset([(a, a)])
    text = da_text(expr)  # texts are compared, not expressions, because node equality recurses
    assert text.count("R") == 2000 and da_text(parse_da(text)) == text


@pytest.mark.parametrize(
    "args",
    [["compile", "--expr", "(" * 2000 + "R" + ")" * 2000], ["eval", "--expr", CHAIN, "--relation", "{file}"]],
    ids=["compile-deep-parentheses", "eval-long-chain"],
)
def test_cli_reads_deep_expressions(args, tmp_path, capsys):
    relation = tmp_path / "rel.txt"
    relation.write_text("a a\nb c\n")
    assert main(["dalab"] + [arg.format(file=relation) for arg in args]) == 0
    assert capsys.readouterr().out in ("(?x r ?y)\n", "a a\n")


# --- bounded search -------------------------------------------------------------------

def test_search_finds_the_trivial_model():
    relation = bounded_sat_search(parse_da("R"), 3)
    assert rel_names(relation) == [("d1", "d1")]


def test_search_respects_the_guard():
    with pytest.raises(BoundTooLarge):
        bounded_sat_search(Rel(), 5)


def test_unsatisfiable_expression_has_no_small_model():
    expr = parse_da("((R . R) - R) . R - (R . R) . R")
    assert bounded_sat_search(expr, 3) is None


def test_search_agrees_with_exhaustive_enumeration():
    rng = random.Random(12)
    for _ in range(30):
        expr = random_da_expr(rng, rng.randint(1, 3))
        found = bounded_sat_search(expr, 2)
        exhaustive = any(
            da_eval(expr, relation) for size in (1, 2) for relation in all_relations(size)
        )
        assert (found is not None) == exhaustive
        if found is not None:
            assert da_eval(expr, found)


def test_two_sat_wrapper_tracks_two_element_models():
    rng = random.Random(21)
    for _ in range(6):
        expr = random_da_expr(rng, rng.randint(1, 2))
        two_sat = any(
            da_eval(expr, relation)
            for relation in all_relations(2)
            if len(adom(relation)) >= 2
        )
        wrapper = two_sat_wrapper(expr)
        wrapper_sat = any(
            evaluate(wrapper, graph_of_relation(relation))
            for size in (1, 2)
            for relation in all_relations(size)
        )
        assert wrapper_sat == two_sat


def test_two_sat_wrapper_at_the_three_element_bound():
    # satisfiable side of the same equivalence, one size up
    expr = COMP_MINUS
    assert any(
        da_eval(expr, relation)
        for size in (2, 3)
        for relation in all_relations(size)
        if len(adom(relation)) >= 2
    )
    wrapper = two_sat_wrapper(expr)
    assert any(
        evaluate(wrapper, graph_of_relation(relation))
        for size in (1, 2, 3)
        for relation in all_relations(size)
    )


def test_ab_sat_wrapper_at_the_three_element_bound():
    d1, d2 = Iri("d1"), Iri("d2")
    expr = COMP_MINUS
    assert any(
        da_eval(expr, relation)
        for size in (2, 3)
        for relation in all_relations(size)
        if {d1, d2} <= adom(relation)
    )
    wrapper = ab_sat_wrapper(expr, d1, d2)
    assert any(
        evaluate(wrapper, graph_of_relation(relation))
        for size in (1, 2, 3)
        for relation in all_relations(size)
    )


def test_ab_sat_wrapper_tracks_ab_models():
    rng = random.Random(22)
    d1, d2 = Iri("d1"), Iri("d2")
    for _ in range(6):
        expr = random_da_expr(rng, rng.randint(1, 2))
        ab_sat = any(
            da_eval(expr, relation)
            for relation in all_relations(2)
            if {d1, d2} <= adom(relation)
        )
        wrapper = ab_sat_wrapper(expr, d1, d2)
        wrapper_sat = any(
            evaluate(wrapper, graph_of_relation(relation))
            for size in (1, 2)
            for relation in all_relations(size)
        )
        assert wrapper_sat == ab_sat


# --- choice cover and CNF ---------------------------------------------------------------

def t(name):
    return Variable(name)


def test_choice_cover_trivial_cases():
    yes = ChoiceCoverInstance(frozenset([t("t1")]), (frozenset([frozenset([t("t1")]), frozenset()]),))
    assert choice_cover_solve(yes)
    no = ChoiceCoverInstance(
        frozenset([t("t1"), t("t2")]),
        (frozenset([frozenset([t("t1")]), frozenset([t("t2")])]),),
    )
    assert not choice_cover_solve(no)
    assert choice_cover_solve(ChoiceCoverInstance(frozenset(), ()))


def test_choice_cover_validates_subsets():
    with pytest.raises(ValueError):
        ChoiceCoverInstance(frozenset([t("t1")]), (frozenset([frozenset([t("zz")])]),))


def test_cnf_to_choice_cover_shapes():
    instance = cnf_to_choice_cover((frozenset({1}),))
    assert instance.ground == {t("c1")}
    assert instance.groups == (frozenset([frozenset([t("c1")]), frozenset()]),)

    contradiction = cnf_to_choice_cover((frozenset({1}), frozenset({-1})))
    assert not choice_cover_solve(contradiction)
    assert not cnf_satisfiable((frozenset({1}), frozenset({-1})))


def test_identical_groups_still_require_independent_picks():
    # two variables with mirrored polarities produce identical groups; the
    # family must keep both so the satisfying double pick remains available
    cnf = (frozenset({1, -2}), frozenset({-1, 2}))
    instance = cnf_to_choice_cover(cnf)
    assert len(instance.groups) == 2
    assert cnf_satisfiable(cnf) and choice_cover_solve(instance)


def test_cover_pattern_shapes_and_verdicts():
    yes = ChoiceCoverInstance(frozenset([t("x1")]), (frozenset([frozenset([t("x1")])]),))
    pattern = choice_cover_to_pattern(yes)
    from sparqlsat import serialize_pattern

    assert serialize_pattern(pattern) == "(?x1 c c) FILTER bound(?x1)"
    assert isinstance(decide_satisfiability(pattern), Satisfiable)

    contradiction = cnf_to_choice_cover((frozenset({1}), frozenset({-1})))
    from sparqlsat import candidate_schemes

    doomed = choice_cover_to_pattern(contradiction)
    assert candidate_schemes(doomed) == frozenset()


def test_cover_pattern_rejects_empty_groups():
    with pytest.raises(EmptyChoiceSet):
        choice_cover_to_pattern(
            ChoiceCoverInstance(frozenset([t("t1")]), (frozenset(),))
        )


def test_cover_pattern_uses_only_bound_filters_and_no_optionals():
    from sparqlsat.patterns import Bound, Opt, contains_node, pattern_facts

    cnf = (frozenset({1, 2}), frozenset({-1, 3}), frozenset({-2, -3}))
    pattern = choice_cover_to_pattern(cnf_to_choice_cover(cnf))
    assert not contains_node(pattern, Opt)
    assert all(isinstance(c, Bound) for c in pattern_facts(pattern).conditions)


def test_small_cnf_pipeline_equivalence():
    clauses = [frozenset(c) for c in ({1}, {-1}, {1, 2}, {-1, 2}, {-2, 1}, {-1, -2})]
    for count in (1, 2, 3):
        for combo in itertools.combinations(clauses, count):
            brute = cnf_satisfiable(combo)
            instance = cnf_to_choice_cover(combo)
            assert choice_cover_solve(instance) == brute
            verdict = decide_satisfiability(choice_cover_to_pattern(instance))
            assert isinstance(verdict, Satisfiable) == brute


def test_parse_dimacs():
    cnf = parse_dimacs("c comment\np cnf 3 2\n1 -2 0\n2 3 0\n")
    assert cnf == (frozenset({1, -2}), frozenset({2, 3}))
    with pytest.raises(Exception):
        parse_dimacs("1 -2 0")
