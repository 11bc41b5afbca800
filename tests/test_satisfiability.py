"""The decision core: fragments, witnesses, and both decision routes."""

import random
import sys
import time
import tracemalloc
from operator import attrgetter

import pytest

import wide_shapes
from wide_shapes import LADDER, basic_graph_pattern
from randgen import (
    EQ_KINDS,
    NEQ_KINDS,
    random_graph,
    random_pattern,
    random_shared_pattern,
    random_well_designed,
    with_composite_filters,
    witness_is_sound,
)
from sparqlsat import (
    Iri,
    Literal,
    Route,
    Satisfiable,
    Unknown,
    Unsatisfiable,
    UnsatReason,
    Variable,
    af_reduce,
    candidate_schemes,
    classify_fragment,
    constant_witness,
    decide_satisfiability,
    decide_well_designed,
    evaluate,
    injective_witness,
    normalize_filters,
    parse_pattern,
)
import realize_reference
import wd_core_reference
from sparqlsat.corpus import entry_from_text, generate_corpus
from sparqlsat.errors import NotWellDesigned, PreconditionViolated, UnsupportedOpaquePredicate
from sparqlsat.evaluator import format_graph
from sparqlsat.normalize import negation_normal_forms
from sparqlsat.patterns import Opt, Select, Union, children, pattern_facts
from sparqlsat.report import PipelineOptions, analyze_batch, format_verdict_text
from sparqlsat.rewrites import select_eliminate, select_eliminate_info, union_free_split, wrong_literal_reduce
from sparqlsat.satisfiability import (
    ConstraintKind,
    _blocking_feature,
    _constant_model,
    _decide_well_designed_core,
    _injective_model,
    _realized_solution,
    run_pipeline,
)
from sparqlsat.schemes import scheme_table
from sparqlsat.welldesigned import is_well_designed

x, y = Variable("x"), Variable("y")


# --- fragment classification -----------------------------------------------------

def test_classification_routes():
    def route_of(text):
        return classify_fragment(parse_pattern(text)).route

    assert route_of("(?x p ?y) FILTER bound(?x) FILTER ?x = ?y") is Route.EQUALITY
    assert route_of("(?x p ?y) FILTER ?x != ?y") is Route.NONEQUALITY
    assert route_of("(?x p ?y) FILTER bound(?x) FILTER ?x != c") is Route.BOTH
    assert route_of("(?x p ?y)") is Route.BOTH
    assert route_of("((?x p ?y) FILTER ?x = ?y) FILTER ?x != ?y") is Route.NONE
    assert route_of("(?x p ?y) FILTER !bound(?x)") is Route.NONE
    assert route_of("(?x p ?y) FILTER ?x = c") is Route.NONE


def test_classification_collects_kinds():
    profile = classify_fragment(parse_pattern("((?x p ?y) FILTER bound(?x)) FILTER ?x != c"))
    assert profile.kinds == {ConstraintKind.BOUND, ConstraintKind.CONSTANT_NEQ}


# --- witness constructions ----------------------------------------------------------

def test_constant_witness_reproduces_the_worked_example():
    pattern = parse_pattern("((?x p ?y) FILTER ?x != a) OPT ((?x q ?z) UNION (?x r ?u))")
    witness, model = constant_witness(pattern)
    constant = model[x]
    assert constant != Iri("a")
    assert len(set(model[v] for v in model.domain)) == 1
    rendered = format_graph(witness)
    assert rendered.splitlines() == [
        f"<{constant.name}> <p> <{constant.name}> .",
        f"<{constant.name}> <q> <{constant.name}> .",
        f"<{constant.name}> <r> <{constant.name}> .",
    ]
    assert witness_is_sound(pattern, witness, model)


def test_constant_witness_single_triple():
    witness, model = constant_witness(parse_pattern("(?x p ?y)"))
    assert len(witness) == 1


def test_injective_witness_forces_distinct_values():
    pattern = parse_pattern("(?x p ?y) FILTER ?x != ?y")
    witness, model = injective_witness(pattern)
    assert model[x] != model[y]
    assert witness_is_sound(pattern, witness, model)


def test_injective_witness_avoids_nonequality_constants():
    pattern = parse_pattern("(?x p ?y) FILTER ?x != w")
    _, model = injective_witness(pattern)
    assert Iri("w") not in {model[v] for v in model.domain}


def test_witness_preconditions_are_checked():
    with pytest.raises(PreconditionViolated):
        constant_witness(parse_pattern("(?x p ?y) FILTER ?x != ?y"))  # wrong fragment
    with pytest.raises(PreconditionViolated):
        injective_witness(parse_pattern("(?x p ?y) FILTER ?x = ?y"))  # wrong fragment
    with pytest.raises(PreconditionViolated):
        constant_witness(parse_pattern("(?x p ?y) FILTER bound(?z)"))  # empty schemes


# --- the decision pipeline -----------------------------------------------------------

def test_union_bound_example_is_unsatisfiable():
    verdict = decide_satisfiability(
        parse_pattern("((?x a_ ?y) UNION (?x b_ ?z)) FILTER bound(?y) FILTER bound(?z)")
    )
    assert verdict == Unsatisfiable(UnsatReason.EMPTY_SCHEMES)


def test_literal_subject_is_wrong_literal():
    assert decide_satisfiability(parse_pattern("(42 ?x ?y)")) == Unsatisfiable(
        UnsatReason.WRONG_LITERAL
    )


def test_satisfiable_verdict_carries_checkable_witness():
    pattern = parse_pattern("((?x p ?y) FILTER ?x != a) OPT ((?x q ?z) UNION (?x r ?u))")
    verdict = decide_satisfiability(pattern)
    assert isinstance(verdict, Satisfiable)
    assert len(verdict.witness) == 3
    assert verdict.sample in evaluate(pattern, verdict.witness)


def test_select_queries_get_projected_samples():
    pattern = parse_pattern("SELECT ?x WHERE { ?x <p> ?y FILTER (?y != <a>) }")
    verdict = decide_satisfiability(pattern)
    assert isinstance(verdict, Satisfiable)
    assert verdict.sample.domain <= {x, y}
    assert verdict.sample in evaluate(pattern, verdict.witness)


def test_prefixed_filter_constant_is_the_iri_it_names():
    pattern = parse_pattern(
        "PREFIX dbo: <http://dbpedia.org/ontology/> SELECT * WHERE "
        "{ ?x ?p ?y FILTER (?y = dbo:B && ?y != <http://dbpedia.org/ontology/B>) }"
    )
    assert decide_satisfiability(pattern) == Unsatisfiable(UnsatReason.INCONSISTENT_CONSTRAINTS)


def test_a_filter_true_on_a_subject_is_a_sort_conflict():
    # `true` reads as a literal in a filter as in a triple, and a subject
    # cannot be a literal
    pattern = parse_pattern("SELECT * WHERE { ?x <p> ?o FILTER(?x = true) }")
    assert decide_satisfiability(pattern) == Unsatisfiable(UnsatReason.SORT_CONFLICT)


def test_opaque_filters_without_flag_are_unknown():
    pattern = parse_pattern('(?x p ?y) FILTER regex(?y, "a")')
    verdict = decide_satisfiability(pattern)
    assert isinstance(verdict, Unknown)
    verdict = decide_satisfiability(pattern, builtins_as_bound=True)
    assert isinstance(verdict, Satisfiable)


def _pigeonhole(pigeons, holes, groups=1):
    """`pigeons` variables, each equal to one of `holes` constants by a
    disjunctive FILTER, and pairwise unequal: UNSAT when there are more
    pigeons than holes, which a search over the disjuncts must show.  With
    more `groups`, a UNION of that many copies over their own properties."""
    def group(k):
        triples = " . ".join(f"?s <p{k}> ?x{i}" for i in range(pigeons))
        equal = ["FILTER (" + " || ".join(f"?x{i} = <h{j}>" for j in range(holes)) + ")" for i in range(pigeons)]
        unequal = [f"FILTER (?x{i} != ?x{j})" for i in range(pigeons) for j in range(i + 1, pigeons)]
        return f"{{ {triples} {' '.join(equal + unequal)} }}"

    return f"SELECT * WHERE {{ {' UNION '.join(group(k) for k in range(groups))} }}"


def test_a_search_past_its_budget_is_reported_as_unknown():
    # route none searches the choices of disjuncts of the core's filters,
    # each choice checked for consistency, up to CHOICE_CHECK_BUDGET checks
    from sparqlsat.satisfiability import CHOICE_CHECK_BUDGET

    result = run_pipeline(parse_pattern(_pigeonhole(6, 5)))
    assert result.profile.route is Route.NONE and result.well_designed is True
    assert result.verdict == Unsatisfiable(UnsatReason.INCONSISTENT_CONSTRAINTS)
    assert isinstance(run_pipeline(parse_pattern(_pigeonhole(5, 5))).verdict, Satisfiable)
    # the members of a UNION share one budget
    for groups in (1, 4):
        pattern = parse_pattern(_pigeonhole(8, 7, groups))
        start = time.perf_counter()
        result = run_pipeline(pattern)
        elapsed = time.perf_counter() - start
        assert result.verdict == Unknown(
            f"budget exceeded: well-designed core, {CHOICE_CHECK_BUDGET} checks of disjunct choices"
        )
        assert result.blocking == "choice-budget" and result.well_designed is True
        assert elapsed < 2.0, f"{groups} groups: {elapsed:.3f} s"


def test_undecidable_kinds_without_well_designedness_are_unknown():
    pattern = parse_pattern("((?x p ?y) OPT (?y q ?z)) AND ((?z r ?w) FILTER ?z = c)")
    verdict = decide_satisfiability(pattern)
    assert isinstance(verdict, Unknown)
    assert "well-designed" in verdict.reason


def test_nested_union_outside_fragments_is_unknown():
    pattern = parse_pattern("(((?x p ?y) UNION (?x q ?y)) AND (?x r ?z)) FILTER ?x = c")
    verdict = decide_satisfiability(pattern)
    assert isinstance(verdict, Unknown)
    assert "UNION" in verdict.reason


def test_well_designed_route_through_the_pipeline():
    pattern = parse_pattern("((?x p ?y) OPT (?x q ?z)) FILTER ?x = c")
    result = run_pipeline(pattern)
    assert result.profile.route is Route.NONE
    assert result.well_designed is True
    assert isinstance(result.verdict, Satisfiable)
    assert result.verdict.sample in evaluate(pattern, result.verdict.witness)


def test_union_of_well_designed_members():
    pattern = parse_pattern("((?x p ?y) FILTER ?x = c) UNION ((?x q ?y) FILTER ?x = d)")
    verdict = decide_satisfiability(pattern)
    assert isinstance(verdict, Satisfiable)
    assert verdict.sample in evaluate(pattern, verdict.witness)


def test_unsat_union_of_well_designed_members():
    pattern = parse_pattern(
        "(((?x p ?y) FILTER ?x = c) FILTER ?x = d) UNION (((?x q ?y) FILTER ?x = c) FILTER ?x = d)"
    )
    assert decide_satisfiability(pattern) == Unsatisfiable(UnsatReason.INCONSISTENT_CONSTRAINTS)


# --- the well-designed decision --------------------------------------------------------

def test_decide_well_designed_inconsistent_constants():
    pattern = parse_pattern("((?u p ?v) FILTER ?u = a) FILTER ?u = b")
    assert decide_well_designed(pattern) == Unsatisfiable(UnsatReason.INCONSISTENT_CONSTRAINTS)


def test_decide_well_designed_sort_conflict():
    pattern = parse_pattern('((?y p ?z) AND (?x q ?y)) FILTER ?y = "42"')
    assert decide_well_designed(pattern) == Unsatisfiable(UnsatReason.SORT_CONFLICT)


def test_decide_well_designed_literal_on_object_only_variable_is_fine():
    pattern = parse_pattern('(?x p ?y) FILTER ?y = "42"')
    verdict = decide_well_designed(pattern)
    assert isinstance(verdict, Satisfiable)
    assert verdict.sample[y] == Literal("42")


def test_negated_bound_inside_well_designed_is_empty_schemes():
    pattern = parse_pattern("(?x p ?y) FILTER !bound(?y)")
    assert decide_well_designed(pattern) == Unsatisfiable(UnsatReason.EMPTY_SCHEMES)


def test_decide_well_designed_rejects_condition_violations():
    pattern = parse_pattern("((?x p ?y) OPT ((?x q ?z) FILTER ?y = ?z)) FILTER ?x != c")
    with pytest.raises(NotWellDesigned):
        decide_well_designed(pattern)
    # the underlying machinery still decides it, matching its reduction values
    from sparqlsat import af_reduce, extract_constraints

    reduced = af_reduce(pattern)
    assert candidate_schemes(reduced) == frozenset([frozenset([x, y])])
    assert extract_constraints(reduced) == frozenset([type(pattern.condition)(x, Iri("c"))])
    verdict = _decide_well_designed_core(pattern)
    assert isinstance(verdict, Satisfiable)
    assert verdict.sample in evaluate(pattern, verdict.witness)


def test_decide_well_designed_agrees_with_its_reduction():
    rng = random.Random(77)
    checked = 0
    for _ in range(250):
        pattern = random_well_designed(rng, depth=rng.randint(1, 3), negbound_rate=0.05)
        verdict = decide_well_designed(pattern)
        reduced_verdict = _decide_well_designed_core(pattern)
        assert isinstance(verdict, Satisfiable) == isinstance(reduced_verdict, Satisfiable)
        if isinstance(verdict, Satisfiable):
            checked += 1
            assert verdict.sample in evaluate(pattern, verdict.witness)
        else:
            for _ in range(15):
                graph = random_graph(rng, pattern)
                assert not evaluate(pattern, graph)
    assert checked > 50


def _with_matching_arms(rng, pattern):
    """`pattern` under one to three more optional arms, each a core triple
    with a fresh object, maybe itself under an arm of the same kind, so
    that the witness matches every arm at least once."""
    from sparqlsat import af_reduce
    from sparqlsat.patterns import Opt, TriplePattern

    triples = pattern_facts(af_reduce(pattern)).triples
    for i in range(rng.randint(1, 3)):
        first, second = rng.choice(triples), rng.choice(triples)
        arm = TriplePattern(first.subject, first.predicate, Variable(f"w{i}"))
        if rng.random() < 0.5:
            arm = Opt(arm, TriplePattern(second.subject, second.predicate, Variable(f"z{i}")))
        pattern = Opt(pattern, arm)
    return pattern


def test_the_per_arm_sample_matches_the_whole_pattern_reference(monkeypatch):
    # the reference folds the core's full scheme family and picks the least
    # solution of the whole pattern that extends the core model
    from sparqlsat import af_reduce, satisfiability

    rng = random.Random(23)
    reasons, extended = set(), 0
    for index in range(1200):
        pattern = random_well_designed(rng, depth=rng.randint(1, 4), negbound_rate=0.08)
        if index % 2:
            pattern = _with_matching_arms(rng, pattern)
        verdict = _decide_well_designed_core(pattern)
        assert verdict == wd_core_reference.decide_well_designed_core(pattern)
        if isinstance(verdict, Unsatisfiable):
            reasons.add(verdict.reason)
        else:  # some arm bound a variable outside the core
            extended += len(verdict.sample) > len(pattern_facts(af_reduce(pattern)).variables)
    assert {UnsatReason.EMPTY_SCHEMES, UnsatReason.INCONSISTENT_CONSTRAINTS} <= reasons
    assert extended > 400
    # route-none well-designed members of patterns that share subtrees
    checked = 0
    for _ in range(3000):
        pattern = random_shared_pattern(rng, depth=rng.randint(0, 3))
        result = run_pipeline(pattern)
        if result.profile is None or result.profile.route is not Route.NONE or not result.well_designed:
            continue
        checked += 1
        with monkeypatch.context() as patched:
            patched.setattr(
                satisfiability, "_decide_well_designed_core",
                lambda member, nnfs, budget: wd_core_reference.decide_well_designed_core(member),
            )
            assert run_pipeline(pattern) == result
    assert checked > 20


def _wd_nest(arms):
    """A core of `arms` triples under an equality and a nonequality, with
    `arms` two-triple optional arms that the witness does not match."""
    core = " . ".join(f"?s <c{i}> ?c{i}" for i in range(arms))
    optional = " ".join(f"OPTIONAL {{ ?s <p{i}> ?a{i} . ?a{i} <q{i}> ?b{i} }}" for i in range(arms))
    return f"SELECT * WHERE {{ {core} . {optional} FILTER (?c0 = <k>) FILTER (?c1 != ?c2) }}"


def _multi_valued(triples, arms):
    """`triples` values of one property in the core and `arms` optional
    arms over the same property: the whole pattern has triples ** arms
    solutions that extend the core model."""
    core = " . ".join(f"?s <p> ?o{i}" for i in range(triples))
    optional = " ".join(f"OPTIONAL {{ ?s <p> ?a{i} }}" for i in range(arms))
    return f"SELECT * WHERE {{ {core} . {optional} FILTER (?o0 = <k>) }}"


def test_a_well_designed_member_is_decided_without_the_fold_or_a_whole_pattern_evaluation(monkeypatch):
    from sparqlsat import evaluator, satisfiability, schemes

    calls = []
    for module, name in ((schemes, "_families"), (evaluator, "evaluate"), (satisfiability, "evaluate")):
        def counted(*args, _original=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    rng = random.Random(29)
    patterns = [parse_pattern(_wd_nest(20)), parse_pattern(_multi_valued(3, 3))]
    patterns += [random_well_designed(rng, depth=3, negbound_rate=0.08) for _ in range(300)]
    decided = 0
    for pattern in patterns:
        result = run_pipeline(pattern)
        if result.profile.route is Route.NONE:
            decided += 1
            assert result.well_designed is True and calls == []
        calls.clear()  # the fragment route reads the scheme table
    assert decided > 50

    # a member is read twice, over its core only: one walk along the core's
    # edges, then one facts walk of the core; no node inside an optional arm
    # is visited until `_solutions` evaluates that arm
    from sparqlsat import patterns

    deciding, evaluating, walks = [], [], []

    def during(active, original):
        def run(pattern, *args):
            active.append(pattern)
            try:
                return original(pattern, *args)
            finally:
                active.pop()

        return run

    for name, nodes in (("post_order", list), ("pattern_facts", attrgetter("order"))):
        original = getattr(patterns, name)

        def walked(*args, _original=original, _name=name, _nodes=nodes, **kwargs):
            result = _original(*args, **kwargs)
            if deciding and not evaluating:
                walks.append((_name, deciding[-1], _nodes(result)))
            return result

        for module in [module for key, module in sys.modules.items() if key.startswith("sparqlsat")]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, walked)
    monkeypatch.setattr(satisfiability, "_decide_well_designed_core", during(deciding, _decide_well_designed_core))
    monkeypatch.setattr(satisfiability, "_solutions", during(evaluating, satisfiability._solutions))
    result = run_pipeline(parse_pattern(_wd_nest(20)))
    monkeypatch.undo()
    assert isinstance(result.verdict, Satisfiable) and result.profile.route is Route.NONE
    member = walks[0][1]
    core, arms, todo = set(), set(), [(member, False)]
    while todo:  # the member's nodes, each on the core or inside an arm
        node, in_arm = todo.pop()
        (arms if in_arm else core).add(id(node))
        todo += [(kid, in_arm or (type(node) is Opt and kid is node.right)) for kid in children(node)]
    # the core: 20 triples, 19 ANDs, 20 OPTs and 2 FILTERs; its AND/FILTER
    # reduction drops the OPTs, and the 20 arms hold 60 nodes
    assert (len(core), len(arms)) == (61, 60)
    assert [(name, len(nodes)) for name, _, nodes in walks] == [("post_order", 61), ("pattern_facts", 41)]
    assert {id(node) for node in walks[0][2]} == core
    assert walks[1][2][-1] == af_reduce(member)
    assert not any(id(node) in arms for _, _, nodes in walks for node in nodes)


def test_many_arms_over_a_multi_valued_property_decide_fast():
    # each arm is evaluated alone, so 8 arms over 8 values cost 8 * 8
    # solutions, not the 8 ** 8 of the whole pattern
    assert sys.getrecursionlimit() == 1000
    pattern = parse_pattern(_multi_valued(8, 8))
    start = time.perf_counter()
    result = run_pipeline(pattern)
    elapsed = time.perf_counter() - start
    assert result.profile.route is Route.NONE and result.well_designed is True
    sample = result.verdict.sample
    assert len(sample) == 17
    # every arm takes the least value, the constant <k> that ?o0 is bound to
    assert all(sample[Variable(f"a{i}")] == sample[Variable("o0")] == Iri("k") for i in range(8))
    assert elapsed < 1.0, f"{elapsed:.3f} s"
    # the same shape small enough for the reference's whole-pattern evaluation
    small = parse_pattern(_multi_valued(3, 3))
    verdict = run_pipeline(small).verdict
    assert verdict.sample in evaluate(normalize_filters(small), verdict.witness)


def test_a_variable_unequal_to_itself_is_unsatisfiable():
    for text in ("SELECT * WHERE { ?x <p> ?y FILTER(?x != ?x) }", "(?x p ?y) FILTER ?x != ?x"):
        negated = text.replace("?x != ?x", "!(?x != ?x)")
        for builtins_as_bound in (False, True):
            verdict = decide_satisfiability(parse_pattern(text), builtins_as_bound=builtins_as_bound)
            assert format_verdict_text(verdict) == "unsatisfiable (empty-schemes)"
            verdict = decide_satisfiability(parse_pattern(negated), builtins_as_bound=builtins_as_bound)
            assert isinstance(verdict, Satisfiable)
            assert verdict.sample in evaluate(normalize_filters(parse_pattern(negated)), verdict.witness)


def test_every_scheme_is_covered_by_some_witness_solution():
    # for each scheme of the family there is a witness solution that restricts
    # the model and covers that scheme, exhaustively per pattern
    rng = random.Random(37)
    checked = 0
    for kinds in (EQ_KINDS, NEQ_KINDS):
        for _ in range(150):
            pattern = random_pattern(rng, depth=rng.randint(0, 4), kinds=kinds)
            family = candidate_schemes(pattern)
            if not family:
                continue
            checked += 1
            route = classify_fragment(pattern).route
            builder = (
                constant_witness if route in (Route.EQUALITY, Route.BOTH) else injective_witness
            )
            witness, model = builder(pattern)
            solutions = evaluate(pattern, witness)
            for scheme in family:
                assert any(
                    model.extends(m) and scheme <= m.domain for m in solutions
                ), (ss.serialize_pattern(pattern), sorted(v.name for v in scheme))
    assert checked > 150


def test_witness_model_restricts_into_every_subpattern():
    # for satisfiable AND/FILTER patterns, the sample restricted to each
    # subpattern's (unique) scheme is a solution of that subpattern
    from sparqlsat import af_reduce
    from randgen import iter_subpatterns

    rng = random.Random(61)
    checked = 0
    while checked < 150:
        pattern = af_reduce(random_well_designed(rng, depth=rng.randint(1, 3)))
        verdict = _decide_well_designed_core(pattern)
        if not isinstance(verdict, Satisfiable):
            continue
        checked += 1
        for node in iter_subpatterns(pattern):
            (scheme,) = candidate_schemes(node)
            restricted = verdict.sample.restrict(scheme)
            assert restricted in evaluate(node, verdict.witness)


def _random_select_free_pattern(rng, kinds, index):
    """Trees with SELECT nodes eliminated, or patterns that share subtrees."""
    if index % 2:
        pattern = random_pattern(rng, depth=rng.randint(0, 5), kinds=kinds, select_rate=0.3)
        return select_eliminate(pattern)
    return random_shared_pattern(rng, depth=rng.randint(0, 3), kinds=kinds)


def test_realized_solution_matches_the_always_sorting_reference():
    rng = random.Random(62)
    checked = 0
    for index in range(1200):
        kinds = EQ_KINDS if index % 4 < 2 else NEQ_KINDS
        pattern = _random_select_free_pattern(rng, kinds, index)
        facts = pattern_facts(pattern)
        _, table = scheme_table(pattern, facts=facts)
        if not table[id(pattern)]:
            continue
        checked += 1
        model = (_constant_model if kinds is EQ_KINDS else _injective_model)(facts)
        expected = realize_reference.realized_solution(pattern, model, table)
        assert _realized_solution(pattern, model, table) == expected
    assert checked > 600


def _blocking_reference(members):
    """`_blocking_feature` with the well-designedness check on every member."""
    for member in members:
        if not member.union_free:
            return "a UNION is nested under another operator"
        ok, violations = is_well_designed(member.pattern)
        if not ok:
            return f"the pattern is not well-designed ({violations[0].describe()})"
    return None


def test_blocking_feature_matches_checking_every_member():
    rng = random.Random(63)
    outcomes = set()
    for index in range(1200):
        if index % 3 == 2:
            pattern = random_well_designed(rng, depth=rng.randint(1, 3))
        else:
            pattern = _random_select_free_pattern(rng, ("bound", "eq", "neq", "eqc", "neqc"), index)
        members = union_free_split(pattern, facts=pattern_facts(pattern))
        blocking = _blocking_feature(members)
        assert blocking == _blocking_reference(members)
        outcomes.add(blocking if blocking is None else blocking.split(" (")[0])
        outcomes.update(member.opt_or_filter for member in members if member.union_free)
    assert outcomes == {
        None,
        "a UNION is nested under another operator",
        "the pattern is not well-designed",
        True,
        False,
    }


def _optional_nest_joined_again(arms: int) -> str:
    """An OPTIONAL nest whose arm variables are joined again after it, so
    every arm breaks well-designedness, under filters outside both fragments."""
    lines = ["?s <t> <T> ."] + [f"OPTIONAL {{ ?s <p{i}> ?v{i} . }}" for i in range(arms)]
    lines += [f"?v{i} <q> ?z{i} ." for i in range(arms)]
    lines += ["FILTER ( ?v0 = ?v1 )", "FILTER ( ?v0 != ?v2 )"]
    return "SELECT * WHERE {\n" + "\n".join(lines) + "\n}"


def test_the_pipeline_builds_the_position_of_one_violation_only(monkeypatch):
    # 4,000 arms break well-designedness, each at a position about 4,000
    # steps deep; the pipeline names the first violation and builds no other
    from sparqlsat import welldesigned

    pattern = parse_pattern(_optional_nest_joined_again(4000))
    calls = [0]
    original = welldesigned._position

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(welldesigned, "_position", counted)
    result = run_pipeline(pattern)
    monkeypatch.undo()
    assert calls[0] == 1
    ok, violations = is_well_designed(pattern)  # the full list stays the default
    assert not ok and len(violations) == 4000
    expected = f"the pattern is not well-designed ({violations[0].describe()})"
    assert expected.startswith("the pattern is not well-designed (?v3999 from the optional arm at ")
    assert result.blocking == expected
    assert isinstance(result.verdict, Unknown) and result.verdict.reason.endswith(expected)


def _descent_inputs(pattern):
    """The pipeline's reduced pattern on a fragment route, with its facts,
    scheme table, witness model and the variables SELECT elimination
    introduced; None where the pipeline takes another way."""
    core, fresh, facts = select_eliminate_info(pattern, facts=pattern_facts(pattern))
    try:
        nnfs = negation_normal_forms(facts, True)
    except UnsupportedOpaquePredicate:
        return None
    reduced = wrong_literal_reduce(core, facts=facts)
    if reduced is None:
        return None
    facts = pattern_facts(reduced)
    route = classify_fragment(reduced, facts=facts, nnfs=nnfs).route
    if route is Route.NONE:
        return None
    _, table = scheme_table(reduced, facts=facts, nnfs=nnfs)
    if not table[id(reduced)]:
        return None
    model = (_constant_model if route in (Route.EQUALITY, Route.BOTH) else _injective_model)(facts)
    return reduced, facts, table, model, fresh


def _descends(facts, table):
    """Whether the sample needs the descent: a UNION, or an optional arm
    without schemes, which the descent leaves out."""
    return Union in facts.node_types or any(not table[id(n.right)] for n in facts.order if type(n) is Opt)


def test_the_sample_without_the_descent_is_the_realized_solution():
    # a union-free pattern on a fragment route whose optional arms all have
    # schemes takes the witness model, restricted to its triples' variables,
    # as its sample; the descent gives the same
    texts = [text for _, text in LADDER] + generate_corpus(2000, 777)
    texts += [
        "SELECT * WHERE { ?s <p> ?o FILTER (bound(?z) || ?o != <a>) }",  # ?z is in no triple
        "SELECT * WHERE { ?s <p> ?o OPTIONAL { ?s <q> ?x FILTER (?x != <a>) } FILTER (?o = ?s) }",
    ]
    taken, with_conditions = [], 0
    for index, text in enumerate(texts):
        entry = entry_from_text(index, text)
        inputs = entry.pattern and _descent_inputs(entry.pattern)
        if inputs is None or _descends(*inputs[1:3]):
            continue
        reduced, facts, table, model, fresh = inputs
        taken.append(index)
        with_conditions += bool(facts.conditions)
        expected = _realized_solution(reduced, model, table).drop(fresh)
        assert run_pipeline(entry.pattern, builtins_as_bound=True).verdict.sample == expected
    ladder = [name for index, (name, _) in enumerate(LADDER) if index in taken]
    assert ladder == [name for name, _ in LADDER if not name.startswith("union-")]
    assert taken[-2:] == [len(texts) - 2, len(texts) - 1]
    # the 1,001 corpus queries without a condition, 696 with, and the 7 of
    # the ladder and the 2 above with one
    assert len(taken) - len(ladder) - 2 == 1001 + 696 and with_conditions == 696 + 7 + 2


def test_an_optional_arm_without_schemes_keeps_the_descent(monkeypatch):
    from sparqlsat import satisfiability

    calls = []
    monkeypatch.setattr(
        satisfiability, "_realized_solution",
        lambda *args, _original=_realized_solution: calls.append(1) or _original(*args),
    )
    # the arm's filter needs ?z, which no triple binds: the arm has no
    # solutions, and the sample leaves its variable out
    pattern = parse_pattern("SELECT * WHERE { ?s <p> ?o OPTIONAL { ?s <q> ?x FILTER (bound(?z)) } }")
    verdict = run_pipeline(pattern).verdict
    assert calls == [1] and Variable("x") not in verdict.sample
    assert verdict.sample in evaluate(pattern, verdict.witness)
    # a filter variable outside every triple leaves the sample too
    pattern = parse_pattern("SELECT * WHERE { ?s <p> ?o FILTER (bound(?z) || ?o != <a>) }")
    verdict = run_pipeline(pattern).verdict
    assert calls == [1] and verdict.sample.domain == {Variable("s"), Variable("o")}
    assert verdict.sample in evaluate(pattern, verdict.witness)


def test_a_filter_free_bgp_is_decided_without_the_fold_or_the_descent(monkeypatch):
    from sparqlsat import satisfiability, schemes

    calls = []
    for module, name in ((schemes, "_families"), (satisfiability, "_realized_solution")):
        def counted(*args, _original=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    text = basic_graph_pattern(300)
    result = run_pipeline(parse_pattern(text))
    assert isinstance(result.verdict, Satisfiable) and len(result.verdict.sample) == 301
    assert calls == []
    # one filter brings the fold back, and the sample still needs no descent
    run_pipeline(parse_pattern(text.replace("\n}", "\n  FILTER ( bound(?o0) )\n}")))
    assert calls == ["_families"]
    # a UNION brings the descent back
    calls.clear()
    result = run_pipeline(parse_pattern(text.replace("\n}", "\n  { ?s p:u ?u } UNION { ?s p:w ?w }\n}")))
    assert isinstance(result.verdict, Satisfiable) and len(result.verdict.sample) == 302
    assert calls == ["_realized_solution"]


def test_pipeline_walks_of_the_seed_777_corpus(monkeypatch):
    # how often `run_pipeline` collects a pattern's facts, per query: once,
    # plus once after each rewrite that returns a new pattern, but for the
    # body of a root SELECT that captures nothing (all 232 SELECTs here),
    # whose facts are read off the SELECT's; on the fragment routes the
    # queries with composite filters are not rebuilt, so none is walked twice
    import sparqlsat
    from sparqlsat import patterns
    from sparqlsat.corpus import generate_corpus

    walks = [0]

    def counted(pattern):
        walks[0] += 1
        return original(pattern)

    original = patterns.pattern_facts
    for name, module in list(sys.modules.items()):
        if name.startswith("sparqlsat") and getattr(module, "pattern_facts", None) is original:
            monkeypatch.setattr(module, "pattern_facts", counted)
    histogram = {}
    for text in generate_corpus(2000, 777):
        pattern = sparqlsat.parse_pattern(text)
        walks[0] = 0
        run_pipeline(pattern, builtins_as_bound=True)
        histogram[walks[0]] = histogram.get(walks[0], 0) + 1
    assert histogram == {1: 2000}


# --- composite filters on their negation normal form ----------------------------------

@pytest.mark.parametrize("builtins_as_bound", [False, True])
@pytest.mark.parametrize("kinds", [EQ_KINDS, NEQ_KINDS], ids=["eq-kinds", "neq-kinds"])
def test_the_negation_normal_form_decides_like_the_dnf_reference(kinds, builtins_as_bound):
    # random patterns with `&&`/`||`/`!` filters over 30% of their nodes,
    # and well-designed ones whose filters mention only their core's
    # variables; wherever the DNF reference decides, the pipeline decides
    # alike, and what only the pipeline decides is checked on the evaluator
    import dnf_reference

    rng = random.Random(len(kinds) * 2 + builtins_as_bound)
    graphs = random.Random(len(kinds) * 2 + builtins_as_bound + 100)
    seen = {"fragment route": 0, "well-designed core": 0, "opaque-builtin": 0, "new SAT": 0, "new UNSAT": 0}
    for index in range(2500):
        if index % 3:
            base = random_pattern(
                rng, depth=rng.randint(1, 4), kinds=kinds, literal_subject_rate=0.05, select_rate=0.1
            )
            pattern = with_composite_filters(rng, base, kinds)
        else:
            base = random_well_designed(rng, depth=3, kinds=kinds[1:])
            core_vars = lambda node: pattern_facts(af_reduce(node)).variables
            pattern = with_composite_filters(rng, base, EQ_KINDS + NEQ_KINDS, variables=core_vars)
        result = run_pipeline(pattern, builtins_as_bound=builtins_as_bound)
        reference = dnf_reference.run_reference(pattern, builtins_as_bound)
        if not isinstance(reference.verdict, Unknown):
            assert result == reference
        elif not isinstance(result.verdict, Unknown):  # decided on the NNF alone
            assert result.profile.route is Route.NONE and result.well_designed is True
            lowered = normalize_filters(pattern, builtins_as_bound=True) if builtins_as_bound else pattern
            verdict = result.verdict
            if isinstance(verdict, Satisfiable):
                seen["new SAT"] += 1
                assert verdict.sample in evaluate(lowered, verdict.witness)
            else:
                seen["new UNSAT"] += 1
                for _ in range(20):
                    assert not evaluate(lowered, random_graph(graphs, pattern))
        if result.blocking == "opaque-builtin":
            seen["opaque-builtin"] += 1
        elif not isinstance(result.verdict, Unknown) and result.well_designed is not None:
            seen["fragment route" if result.profile.route is not Route.NONE else "well-designed core"] += 1
    assert seen["fragment route"] > 1000 and seen["well-designed core"] > 20
    # over the four runs, 274 SATs and 132 UNSATs that the reference leaves Unknown
    assert seen["new SAT"] > 10 and seen["new UNSAT"] > 10, seen
    assert (seen["opaque-builtin"] == 0) == builtins_as_bound


def _permuted_filter_groups(rng, pattern):
    """`pattern` with the conditions of each chain of FILTERs, the FILTERs
    of one group, in a random order."""
    from sparqlsat.patterns import Filter, post_order, rebuilt

    done = {}
    for node in post_order(pattern):
        if type(node) is not Filter:
            done[id(node)] = rebuilt(node, done)
            continue
        conditions, base = [], node
        while type(base) is Filter:
            conditions.append(base.condition)
            base = base.pattern
        rng.shuffle(conditions)
        out = done[id(base)]
        for condition in conditions:
            out = Filter(out, condition)
        done[id(node)] = out
    return done[id(pattern)]


def test_the_order_of_a_groups_filters_never_changes_a_route_none_verdict():
    from sparqlsat.patterns import Filter
    from randgen import random_condition

    rng = random.Random(37)
    core_vars = lambda node: pattern_facts(af_reduce(node)).variables
    decided = {Satisfiable: 0, Unsatisfiable: 0}
    replayed = 0
    for _ in range(1500):
        base = random_well_designed(rng, depth=3)
        pattern = with_composite_filters(rng, base, EQ_KINDS + NEQ_KINDS, variables=core_vars, opaque_rate=0)
        pool = sorted(core_vars(pattern), key=attrgetter("name"))
        for _ in range(rng.randint(1, 3) if pool else 0):  # a group of root filters
            pattern = Filter(pattern, random_condition(rng, EQ_KINDS + NEQ_KINDS + ("eqc",), pool, opaque_rate=0))
        result = run_pipeline(pattern)
        if result.profile.route is not Route.NONE or not result.well_designed:
            continue
        if not isinstance(result.verdict, Unknown):
            decided[type(result.verdict)] += 1
        for _ in range(3):
            order = _permuted_filter_groups(rng, pattern)
            permuted = run_pipeline(order)
            assert type(permuted.verdict) is type(result.verdict)
            # the sample may differ with the order, but each order's holds
            if isinstance(permuted.verdict, Satisfiable):
                replayed += 1
                assert permuted.verdict.sample in evaluate(order, permuted.verdict.witness)
    assert decided[Satisfiable] > 100 and decided[Unsatisfiable] > 50, decided
    assert replayed == 3 * decided[Satisfiable]


def test_a_route_none_sample_follows_the_written_order_of_a_groups_filters():
    # the search reads the core's conditions last-written first, so each
    # order of the two FILTERs takes its own first consistent choice
    clauses = ["?o = <a> || ?r = <b>", "?o = <c> || ?r = <d>"]
    samples = []
    for first, second in (clauses, clauses[::-1]):
        pattern = parse_pattern(f"SELECT * WHERE {{ ?s <p> ?o . ?s <q> ?r . FILTER ({first}) FILTER ({second}) }}")
        result = run_pipeline(pattern)
        assert result.profile.route is Route.NONE and isinstance(result.verdict, Satisfiable)
        assert result.verdict.sample in evaluate(pattern, result.verdict.witness)
        samples.append({v.name: t.name for v, t in result.verdict.sample.items() if v.name in ("o", "r")})
    assert samples == [{"o": "c", "r": "b"}, {"o": "a", "r": "d"}]


@pytest.mark.parametrize("order", ["inequality first", "disjunction first"])
def test_two_filters_decide_alike_in_either_order(order):
    # as a DNF, the second filter's disjunction is a UNION nested under the
    # first filter, which the well-designed route cannot read
    filters = ["FILTER (?o != ?r)", "FILTER (?o = <a> || ?r = <b>)"]
    if order == "disjunction first":
        filters.reverse()
    pattern = parse_pattern(f"SELECT * WHERE {{ ?s <p> ?o . ?s <q> ?r . {' '.join(filters)} }}")
    result = run_pipeline(pattern)
    assert result.profile.route is Route.NONE and result.well_designed is True
    assert format_verdict_text(result.verdict).splitlines()[0] == "satisfiable"
    assert result.verdict.sample in evaluate(pattern, result.verdict.witness)


def _root_disjunction(clauses):
    """`?o != ?r` and `clauses` clauses `(?o = <a_i> || ?r = <b_i>)`: UNSAT
    from three clauses on, as each of ?o and ?r meets one clause at most."""
    disjunctions = " ".join(f"FILTER (?o = <a{i}> || ?r = <b{i}>)" for i in range(clauses))
    return f"SELECT * WHERE {{ ?s <p> ?o . ?s <q> ?r . FILTER (?o != ?r) {disjunctions} }}"


def test_a_root_disjunction_past_the_old_cap_is_unsatisfiable():
    # its DNF has 2^7 disjuncts, past `normalize.DEFAULT_DNF_CAP`
    for clauses, bound_s in ((7, 0.5), (40, 1.0)):
        start = time.perf_counter()
        result = run_pipeline(parse_pattern(_root_disjunction(clauses)))
        elapsed = time.perf_counter() - start
        assert result.verdict == Unsatisfiable(UnsatReason.INCONSISTENT_CONSTRAINTS)
        assert result.profile.route is Route.NONE and result.well_designed is True
        assert elapsed < bound_s, f"{clauses} clauses: {elapsed:.3f} s"
    assert isinstance(run_pipeline(parse_pattern(_root_disjunction(2))).verdict, Satisfiable)


def test_a_core_without_a_disjunction_is_checked_once(monkeypatch):
    from sparqlsat import satisfiability

    calls = []

    def counted(*args, _original=satisfiability.solve_constraints):
        calls.append(args)
        return _original(*args)

    monkeypatch.setattr(satisfiability, "solve_constraints", counted)
    atoms = ["?o != ?r"] + [f"?o != <c{i}>" for i in range(4998)] + ["?s = ?s"]
    pattern = parse_pattern(f"SELECT * WHERE {{ ?s <p> ?o . ?s <q> ?r FILTER ({' && '.join(atoms)}) }}")
    start = time.perf_counter()
    result = run_pipeline(pattern)
    elapsed = time.perf_counter() - start
    assert result.profile.route is Route.NONE and isinstance(result.verdict, Satisfiable)
    assert len(calls) == 1 and len(calls[0][0]) == 5000
    assert elapsed < 1.0, f"{elapsed:.3f} s"
    # the reasons in their order: a `!bound` needs no check, then a sort
    # clash, then a value clash
    for text, reason, checks in (
        ('(?x p ?y) FILTER (!bound(?y) && ?x = "1" && ?y = a && ?y != a)', UnsatReason.EMPTY_SCHEMES, 0),
        ('(?x p ?y) FILTER (?x = "1" && ?y != ?x)', UnsatReason.SORT_CONFLICT, 1),
        ('(?x p ?y) FILTER (?x = "1" && ?y = a && ?y != a)', UnsatReason.INCONSISTENT_CONSTRAINTS, 1),
    ):
        calls.clear()
        assert run_pipeline(parse_pattern(text)).verdict == Unsatisfiable(reason)
        assert len(calls) == checks


def test_an_arms_opaque_call_is_read_as_its_bound_checks():
    # under --builtins-as-bound the sample reads the arm's filter on the
    # pipeline's negation normal form, where `isIRI(?x)` is `bound(?x)`
    text = (
        "SELECT * WHERE { ?s <p> ?o . ?s <q> ?r "
        "OPTIONAL { ?s <p> ?x FILTER (isIRI(?x) && ?x != ?s) } FILTER (?o = <k>) FILTER (?o != ?r) }"
    )
    pattern = parse_pattern(text)
    assert isinstance(run_pipeline(pattern).verdict, Unknown)
    result = run_pipeline(pattern, builtins_as_bound=True)
    assert result.profile.route is Route.NONE and result.well_designed is True
    assert result.verdict.sample[Variable("x")] == Iri("k")
    assert result.verdict.sample in evaluate(normalize_filters(pattern, builtins_as_bound=True), result.verdict.witness)


@pytest.mark.parametrize("builtins_as_bound", [False, True])
def test_a_thousand_arm_bound_disjunction_is_decided_fast(builtins_as_bound):
    # the DNF stopped at 64 disjuncts; the negation normal form is linear
    for arms, bound_s in ((100, 0.1), (1000, 0.5)):
        pattern = parse_pattern(wide_shapes.bound_disjunction(arms))
        start = time.perf_counter()
        result = run_pipeline(pattern, builtins_as_bound=builtins_as_bound)
        elapsed = time.perf_counter() - start
        assert isinstance(result.verdict, Satisfiable), result.verdict
        assert result.profile.route is Route.BOTH and len(result.verdict.sample) == arms + 1
        assert elapsed < bound_s, f"{arms} arms: {elapsed:.3f} s"


def test_a_query_with_composite_filters_is_walked_once(monkeypatch):
    # no DNF rebuild: the facts of the SELECT-free pattern serve every stage
    walks = []
    for name, module in list(sys.modules.items()):
        if name.startswith("sparqlsat") and getattr(module, "pattern_facts", None) is pattern_facts:
            monkeypatch.setattr(module, "pattern_facts", lambda p: walks.append(p) or pattern_facts(p))
    for text in (wide_shapes.optional_nest(50), wide_shapes.bound_disjunction(20), _bound_or_join(4)):
        pattern = parse_pattern(text)
        assert pattern_facts(pattern).conditions and not isinstance(pattern, Select)
        walks.clear()
        result = run_pipeline(pattern, builtins_as_bound=True)
        assert isinstance(result.verdict, Satisfiable)
        assert walks == [pattern]


def test_the_first_opaque_call_in_post_order_is_named():
    # without --builtins-as-bound the DNF names the call it meets first,
    # in the inner filter, which the post-order lists before the outer one
    text = (
        'SELECT * WHERE { { ?s <p> ?o FILTER (bound(?o) || !(regex(?o, "in") && ?o != ?s)) } '
        'FILTER (regex(?s, "out") || bound(?s)) }'
    )
    result = run_pipeline(parse_pattern(text))
    assert result.verdict == Unknown("""opaque builtin call in filter: 'regex(?o, "in")'""")
    assert result.blocking == "opaque-builtin" and result.profile is None
    assert isinstance(run_pipeline(parse_pattern(text), builtins_as_bound=True).verdict, Satisfiable)
    # within one condition the call is named before any DNF is expanded,
    # even one past the cap to its left
    wide = " && ".join(["(bound(?s) || bound(?o))"] * 7)
    result = run_pipeline(parse_pattern(f'SELECT * WHERE {{ ?s <p> ?o FILTER (({wide}) && regex(?o, "x")) }}'))
    assert result.verdict == Unknown("""opaque builtin call in filter: 'regex(?o, "x")'""")


def test_well_designed_is_read_on_a_composite_filter_as_written():
    # the filter's DNF made the optional arm a UNION of two filters, nested
    # under the OPT, so the pattern read as not well-designed; as written,
    # the arm's filter mentions only the arm's variables
    text = "SELECT * WHERE { ?s <p> ?o OPTIONAL { ?s <q> ?v FILTER (bound(?v) || ?v != ?s) } }"
    pattern = parse_pattern(text)
    result = run_pipeline(pattern)
    assert result.profile.route is Route.NONEQUALITY and result.well_designed is True
    assert isinstance(result.verdict, Satisfiable)
    assert _blocking_feature(union_free_split(normalize_filters(pattern))) == (
        "a UNION is nested under another operator"
    )


# --- route consistency ------------------------------------------------------------------

def test_both_routes_certify_shared_fragment_patterns():
    rng = random.Random(13)
    certified = 0
    for _ in range(200):
        pattern = random_pattern(rng, depth=rng.randint(0, 4), kinds=("bound", "neqc"))
        if not candidate_schemes(pattern):
            continue
        certified += 1
        for builder in (constant_witness, injective_witness):
            witness, model = builder(pattern)
            assert witness_is_sound(pattern, witness, model)
    assert certified > 60


def test_decidable_routes_match_evaluator_verdicts():
    rng = random.Random(29)
    for kinds in (EQ_KINDS, NEQ_KINDS):
        sat = unsat = 0
        for _ in range(150):
            pattern = random_pattern(rng, depth=rng.randint(0, 4), kinds=kinds)
            verdict = decide_satisfiability(pattern)
            if isinstance(verdict, Satisfiable):
                sat += 1
                assert evaluate(pattern, verdict.witness)
                assert verdict.sample in evaluate(pattern, verdict.witness)
            else:
                unsat += 1
                assert verdict.reason is UnsatReason.EMPTY_SCHEMES
                for _ in range(20):
                    graph = random_graph(rng, pattern)
                    assert not evaluate(pattern, graph)
        assert sat > 30 and unsat > 10


def test_sixteen_way_bound_disjunction_is_decided_fast():
    # the scheme table keeps one maximal scheme per node, not 2^16
    arms = 16
    lines = ["?s a <http://example.org/Thing> ."]
    lines += [f"OPTIONAL {{ ?s <http://example.org/opt{i}> ?v{i} . }}" for i in range(arms)]
    lines.append("FILTER ( " + " || ".join(f"bound(?v{i})" for i in range(arms)) + " )")
    pattern = parse_pattern("SELECT * WHERE {\n  " + "\n  ".join(lines) + "\n}")
    start = time.perf_counter()
    verdict = decide_satisfiability(pattern)
    elapsed = time.perf_counter() - start
    assert isinstance(verdict, Satisfiable)
    assert elapsed < 0.5, f"{elapsed:.3f} s"
    assert verdict.sample in evaluate(normalize_filters(pattern), verdict.witness)
    assert len(verdict.sample) == arms + 1


def _bound_or_join(conjuncts):
    """A join of UNIONs, each filtered by a bound OR over its two arms: its
    maximal-scheme table doubles with every conjunct."""
    return "SELECT * WHERE { " + " ".join(
        f"{{ {{ ?s <p{i}> ?a{i} }} UNION {{ ?s <q{i}> ?b{i} }} FILTER (bound(?a{i}) || bound(?b{i})) }}"
        for i in range(conjuncts)
    ) + " }"


def test_a_scheme_cap_blowup_answers_unknown(monkeypatch, tmp_path, capsys):
    from sparqlsat import schemes
    from sparqlsat.cli import main

    monkeypatch.setattr(schemes, "DEFAULT_SCHEME_CAP", 4)
    text = _bound_or_join(3)
    result = run_pipeline(parse_pattern(text))
    assert result.verdict == Unknown("scheme family exceeds 4 schemes")
    assert result.blocking == "scheme-blowup"
    assert result.profile.kinds == {ConstraintKind.BOUND} and result.profile.route is Route.BOTH
    assert result.well_designed is False and result.wrong_literal_modified is False
    # the same query two conjuncts smaller stays under the cap
    assert isinstance(run_pipeline(parse_pattern(_bound_or_join(2))).verdict, Satisfiable)

    query = tmp_path / "query.rq"
    query.write_text(text)
    assert main(["check", str(query)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "unknown (scheme family exceeds 4 schemes)\n" and captured.err == ""


_PREFIX = "PREFIX p: <http://example.org/>\n"


def _bgp(triples):
    lines = [f"?s p:bgp{i} ?o{i} ." for i in range(triples)]
    return _PREFIX + "SELECT * WHERE {\n  " + "\n  ".join(lines) + "\n}"


def _optional_nest(arms):
    lines = ["?s a p:University .", "?s p:country p:Chile ."]
    lines += [f"OPTIONAL {{ ?s p:arm{i} ?v{i} . }}" for i in range(arms)]
    lines += [f'FILTER ( langMatches(lang(?v{i}), "es") || langMatches(lang(?v{i}), "en") )' for i in (1, 2)]
    return _PREFIX + "SELECT DISTINCT * WHERE {\n  " + "\n  ".join(lines) + "\n}"


def _union_group(arms):
    body = " UNION ".join(f"{{ ?s p:alt{i} ?o . }}" for i in range(arms))
    return _PREFIX + "SELECT ?s ?o WHERE {\n  " + body + "\n  ?s a p:Thing .\n}"


def _well_designed_opt_chain(arms):
    lines = ["?s p:name ?o ."] + [f"OPTIONAL {{ ?s p:arm{i} ?v{i} . }}" for i in range(arms)]
    return _PREFIX + "SELECT * WHERE {\n  " + "\n  ".join(lines) + "\n  FILTER ( ?o = p:c )\n}"


@pytest.mark.parametrize(
    "text, builtins_as_bound, route, bound_s",
    [
        pytest.param(_bgp(400), False, Route.BOTH, 1.0, id="bgp-400"),
        pytest.param(_bgp(2000), False, Route.BOTH, 2.0, id="bgp-2000"),
        pytest.param(_bgp(5000), False, Route.BOTH, 4.0, id="bgp-5000"),
        pytest.param(_optional_nest(1000), True, Route.BOTH, 2.0, id="optional-nest-1000"),
        pytest.param(_union_group(1000), False, Route.BOTH, 2.0, id="union-1000"),
        # route none: af_reduce, a bound check, the constraint solver and
        # one evaluation per optional arm decide it
        pytest.param(_well_designed_opt_chain(1000), False, Route.NONE, 2.0, id="wd-opt-chain-1000"),
        pytest.param(_wd_nest(3200), False, Route.NONE, 0.5, id="wd-nest-3200"),
    ],
)
def test_deep_patterns_are_decided_at_the_default_recursion_limit(text, builtins_as_bound, route, bound_s):
    # every pass walks with an explicit stack, so depth costs no frames
    assert sys.getrecursionlimit() == 1000
    pattern = parse_pattern(text)
    start = time.perf_counter()
    result = run_pipeline(pattern, builtins_as_bound=builtins_as_bound)
    elapsed = time.perf_counter() - start
    assert isinstance(result.verdict, Satisfiable), result.verdict
    assert result.profile.route is route
    assert elapsed < bound_s, f"{elapsed:.3f} s"
    lowered = normalize_filters(pattern, builtins_as_bound=builtins_as_bound)
    assert result.verdict.sample in evaluate(lowered, result.verdict.witness)


def test_five_thousand_triple_bgp_decides_in_little_memory():
    # one family object per distinct family, and a well-designedness index
    # linear in the pattern: the traced peak stays under 4 MB
    pattern = parse_pattern(_bgp(5000))
    tracemalloc.start()
    try:
        verdict = decide_satisfiability(pattern)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(verdict, Satisfiable)
    assert len(verdict.sample) == 5001
    assert peak < 4_000_000, f"{peak / 1e6:.2f} MB"


def _deep_filter(chain, depth):
    """A filter `depth` operators deep, and its depth-2 equivalent: an `&&`
    chain ending in a contradiction (unsatisfiable), or an even `!` chain
    (satisfiable)."""
    if chain == "and":
        conjuncts = ["bound(?o)"] * (depth - 1) + ["!bound(?o)"]
        condition, shallow = " && ".join(conjuncts), "bound(?o) && !bound(?o)"
    else:
        condition, shallow = "!" * depth + "bound(?o)", "!!bound(?o)"
    query = "SELECT * WHERE {{ ?s <p> ?o FILTER({}) }}"
    return query.format(condition), query.format(shallow)


@pytest.mark.parametrize("depth", [1000, 5000])
@pytest.mark.parametrize("chain, verdict", [("and", Unsatisfiable), ("not", Satisfiable)])
def test_deep_filters_decide_like_their_shallow_equivalents(chain, verdict, depth):
    # the parser reads `!` prefixes in a loop and DNF lowering keeps its own stack
    assert sys.getrecursionlimit() == 1000
    text, shallow = _deep_filter(chain, depth)
    start = time.perf_counter()
    deep_verdict = decide_satisfiability(parse_pattern(text))
    elapsed = time.perf_counter() - start
    assert isinstance(deep_verdict, verdict)
    assert format_verdict_text(deep_verdict) == format_verdict_text(decide_satisfiability(parse_pattern(shallow)))
    assert elapsed < 1.0, f"{elapsed:.3f} s"


def test_a_batch_with_deep_filters_reports_every_entry():
    ordinary = generate_corpus(20, seed=5)
    deep = [_deep_filter(chain, depth) for chain in ("and", "not") for depth in (1000, 5000)]
    queries = ordinary[:5] + [text for text, _ in deep] + ordinary[5:]
    options = PipelineOptions(repeats=0, builtins_as_bound=True)
    report = analyze_batch([entry_from_text(i + 1, q) for i, q in enumerate(queries)], options)
    assert report.total == len(queries) == len(report.entries)
    assert not any(
        str(record.verdict.get("reason", "")).startswith("RecursionError")
        for record in report.entries if record.verdict
    )
    assert [record.status for record in report.entries[5:9]] == ["ok"] * 4
    expected = analyze_batch([entry_from_text(1, shallow) for _, shallow in deep], options).entries
    assert [record.verdict for record in report.entries[5:9]] == [record.verdict for record in expected]


@pytest.mark.parametrize("operator", ["&&", "||"])
def test_a_deep_filter_under_a_projection_decides_like_select_star(operator, tmp_path, capsys):
    # SELECT elimination renames the projected-out ?o inside the condition
    # in the same explicit-stack walk as the pattern
    from sparqlsat.cli import main

    assert sys.getrecursionlimit() == 1000
    condition = f" {operator} ".join(["bound(?o)"] * 4999 + ["!bound(?o)"])
    texts = [f"SELECT {projection} WHERE {{ ?s <p> ?o FILTER({condition}) }}" for projection in ("?s", "*")]
    verdicts = [run_pipeline(parse_pattern(text)).verdict for text in texts]
    projected, star = verdicts
    # the first disjunct, `bound(?o)`, holds on the core
    assert type(projected) is type(star) is (Unsatisfiable if operator == "&&" else Satisfiable)
    if operator == "&&":
        assert format_verdict_text(projected) == format_verdict_text(star)
    else:  # the projection drops ?o from the sample
        for text, verdict in zip(texts, verdicts):
            assert verdict.sample in evaluate(parse_pattern(text), verdict.witness)
        assert star.sample.restrict({Variable("s")}) == projected.sample
    outputs = []
    for text in texts:
        query = tmp_path / "query.rq"
        query.write_text(text)
        assert main(["check", str(query)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs == [format_verdict_text(verdict) + "\n" for verdict in verdicts]
    report = analyze_batch([entry_from_text(i + 1, text) for i, text in enumerate(texts)], PipelineOptions(repeats=0))
    assert report.entries[0].verdict["status"] == report.entries[1].verdict["status"]
    assert report.entries[0].verdict["status"] == ("unsatisfiable" if operator == "&&" else "satisfiable")


# --- the verdict alone --------------------------------------------------------------

def _count_well_designedness_calls(monkeypatch) -> list:
    from sparqlsat import satisfiability

    calls = []
    for name in ("union_free_split", "is_well_designed"):
        def counted(*args, _original=getattr(satisfiability, name), _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(satisfiability, name, counted)
    return calls


@pytest.mark.parametrize(
    "name, report_calls",
    [
        ("optional-nest-50", ["union_free_split", "is_well_designed"]),
        ("bound-or-12", ["union_free_split", "is_well_designed"]),
        # the UNION nested under the join ends the check before `is_well_designed`
        ("union-64", ["union_free_split"]),
    ],
)
def test_a_verdict_alone_skips_the_well_designedness_check_on_the_fragment_routes(name, report_calls, monkeypatch):
    # on the fragment routes only the report reads `well_designed`
    calls = _count_well_designedness_calls(monkeypatch)
    pattern = parse_pattern(dict(LADDER)[name])
    result = run_pipeline(pattern, builtins_as_bound=True)
    assert calls == report_calls
    assert result.profile.route is Route.BOTH and result.well_designed is False
    calls.clear()
    assert decide_satisfiability(pattern, builtins_as_bound=True) == result.verdict
    assert calls == []


def test_route_none_checks_well_designedness_for_the_verdict_too(monkeypatch):
    calls = _count_well_designedness_calls(monkeypatch)
    pattern = parse_pattern("SELECT * WHERE { ?s <p> ?o . ?s <q> ?v FILTER (?s = ?o) FILTER (?o != ?v) }")
    result = run_pipeline(pattern)
    assert result.profile.route is Route.NONE and result.well_designed is True
    assert isinstance(result.verdict, Satisfiable)
    assert calls == ["union_free_split", "is_well_designed"]
    calls.clear()
    assert decide_satisfiability(pattern) == result.verdict
    assert calls == ["union_free_split", "is_well_designed"]


@pytest.mark.parametrize("builtins_as_bound", [False, True])
def test_the_verdict_alone_is_the_pipeline_verdict(builtins_as_bound):
    rng = random.Random(31 + builtins_as_bound)
    routes = set()
    for index in range(1500):
        if index % 3 == 0:
            pattern = random_well_designed(rng, depth=3, negbound_rate=0.05)
        else:
            pattern = random_pattern(rng, depth=rng.randint(1, 4), literal_subject_rate=0.05, select_rate=0.1)
        if index % 2:
            pattern = with_composite_filters(rng, pattern, EQ_KINDS + NEQ_KINDS, rate=0.2)
        result = run_pipeline(pattern, builtins_as_bound=builtins_as_bound)
        assert decide_satisfiability(pattern, builtins_as_bound=builtins_as_bound) == result.verdict
        if result.profile is not None:
            routes.add(result.profile.route)
    assert routes == set(Route)
