"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[PASS]`/`[FAIL]` line (run with `pytest -s` to see them
on success).  The random sweeps use fixed seeds so the suite is reproducible.
"""

import itertools
import random
import time

from randgen import (
    EQ_KINDS,
    NEQ_KINDS,
    enumerate_model,
    iter_subpatterns,
    random_graph,
    random_pattern,
    random_value_constraints,
    random_well_designed,
    witness_is_sound,
)
import sparqlsat as ss
from sparqlsat import (
    Iri,
    Route,
    Satisfiable,
    Unsatisfiable,
    UnsatReason,
    Variable,
    candidate_schemes,
    classify_fragment,
    constant_witness,
    consistent,
    decide_satisfiability,
    decide_well_designed,
    evaluate,
    injective_witness,
    parse_pattern,
    pruned_schemes,
)
from sparqlsat.constraints import solve_constraints
from sparqlsat.corpus import generate_corpus
from sparqlsat.dalab import (
    DComp,
    DDiff,
    DUnion,
    Rel,
    adom,
    bounded_sat_search,
    canonical_domain,
    choice_cover_solve,
    choice_cover_to_pattern,
    cnf_to_choice_cover,
    da_eval,
    emulate_eqc,
    emulate_eqneq,
    emulate_negbound,
    graph_of_relation,
    parse_da,
    result_pairs,
)
from sparqlsat.evaluator import satisfies
from sparqlsat.normalize import normalize_filters
from sparqlsat.patterns import Filter, NegBound
from sparqlsat.rewrites import af_reduce, wrong_literal_reduce
from sparqlsat.report import PipelineOptions, measure_scaling
from sparqlsat.satisfiability import run_pipeline
from sparqlsat.terms import Mapping


def report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def scheme_family(*schemes):
    return frozenset(frozenset(Variable(n) for n in s) for s in schemes)


def test_criterion_01_golden_scheme_families():
    cases = [
        (
            "(?x p ?y) OPT ((?x q ?z) UNION (?x r ?u))",
            scheme_family({"x", "y"}, {"x", "y", "z"}, {"x", "y", "u"}),
        ),
        (
            "((?x p ?y) OPT ((?x q ?z) FILTER ?y = ?z)) FILTER ?x != c",
            scheme_family({"x", "y"}),
        ),
        (
            "((?x a_ ?y) UNION (?x b_ ?z)) FILTER bound(?y) FILTER bound(?z)",
            frozenset(),
        ),
    ]
    candidate_schemes(parse_pattern(cases[0][0]))  # warm-up
    worst_ms = 0.0
    for text, expected in cases:
        pattern = parse_pattern(text)
        start = time.perf_counter()
        family = candidate_schemes(pattern)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        worst_ms = max(worst_ms, elapsed_ms)
        assert family == expected, text
        assert elapsed_ms < 1.0, f"{text}: {elapsed_ms:.3f} ms"
    report("criterion 1", True, f"3 golden scheme families exact, worst {worst_ms:.3f} ms")


def test_criterion_02_witness_soundness():
    start = time.perf_counter()
    rng = random.Random(1234)
    sat = unsat = 0
    for fragment in (EQ_KINDS, NEQ_KINDS):
        for _ in range(1000):
            pattern = random_pattern(rng, depth=rng.randint(0, 5), kinds=fragment)
            verdict = decide_satisfiability(pattern)
            if isinstance(verdict, Satisfiable):
                sat += 1
                route = classify_fragment(pattern).route
                builder = (
                    constant_witness
                    if route in (Route.EQUALITY, Route.BOTH)
                    else injective_witness
                )
                witness, model = builder(pattern)
                assert witness == verdict.witness
                assert witness_is_sound(pattern, verdict.witness, model), ss.serialize_pattern(pattern)
                assert verdict.sample in evaluate(pattern, verdict.witness)
            else:
                assert verdict == Unsatisfiable(UnsatReason.EMPTY_SCHEMES)
                unsat += 1
                for _ in range(200):
                    assert not evaluate(pattern, random_graph(rng, pattern))
    elapsed = time.perf_counter() - start
    assert sat + unsat == 2000
    assert elapsed < 60.0, f"{elapsed:.1f} s"
    report(
        "criterion 2",
        True,
        f"2000 patterns ({sat} SAT witnesses checked, {unsat} UNSAT x200 graphs), {elapsed:.1f} s",
    )


def _random_da_expr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return Rel()
    node = rng.choice((DUnion, DDiff, DComp))
    return node(_random_da_expr(rng, depth - 1), _random_da_expr(rng, depth - 1))


def _all_relations_up_to_three():
    domain = canonical_domain(3)
    pairs = [(p, q) for p in domain for q in domain]
    return [
        frozenset(pairs[i] for i in range(len(pairs)) if mask >> i & 1)
        for mask in range(1 << len(pairs))
    ]


def test_criterion_03_difference_emulation_exact():
    start = time.perf_counter()
    rng = random.Random(20260810)
    expressions = [parse_da("(R . R) - R")]
    seen = set()
    while len(expressions) < 9:
        expr = _random_da_expr(rng, rng.randint(1, 3))
        if expr not in seen:
            seen.add(expr)
            expressions.append(expr)
    relations = _all_relations_up_to_three()
    d1, d2 = Iri("d1"), Iri("d2")
    checks = 0
    for expr in expressions:
        negbound = emulate_negbound(expr)
        eqneq = emulate_eqneq(expr)
        eqc = emulate_eqc(expr, d1, d2)
        for relation in relations:
            graph = graph_of_relation(relation)
            expected = da_eval(expr, relation)
            assert result_pairs(evaluate(negbound, graph)) == expected
            checks += 1
            if len(adom(relation)) >= 2:
                assert result_pairs(evaluate(eqneq, graph)) == expected
                checks += 1
            if {d1, d2} <= adom(relation):
                assert result_pairs(evaluate(eqc, graph)) == expected
                checks += 1

    # the concrete worked instance
    a, b, c, d = Iri("a"), Iri("b"), Iri("c"), Iri("d")
    chain_relation = frozenset([(a, b), (b, c), (a, c), (c, d)])
    expr = parse_da("(R . R) - R")
    expected = frozenset([(b, d), (a, d)])
    assert da_eval(expr, chain_relation) == expected
    for compiled in (emulate_negbound(expr), emulate_eqneq(expr), emulate_eqc(expr, a, b)):
        assert result_pairs(evaluate(compiled, graph_of_relation(chain_relation))) == expected

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"{elapsed:.1f} s"
    report(
        "criterion 3",
        True,
        f"{checks} compiler/evaluator equalities over 9 expressions x 512 relations, {elapsed:.1f} s",
    )


def test_criterion_04_bounded_unsatisfiability():
    start = time.perf_counter()
    expr = parse_da("((R . R) - R) . R - (R . R) . R")
    found = bounded_sat_search(expr, 3)
    elapsed = time.perf_counter() - start
    assert found is None
    assert elapsed < 30.0, f"{elapsed:.1f} s"
    report("criterion 4", True, f"no model with |adom| <= 3, {elapsed:.2f} s")


def _brute_cnf_sat(cnf) -> bool:
    # independent truth-table oracle (kept separate from the library's)
    variables = sorted({abs(l) for clause in cnf for l in clause})
    for bits in itertools.product((False, True), repeat=len(variables)):
        assignment = dict(zip(variables, bits))
        if all(any(assignment[abs(l)] == (l > 0) for l in clause) for clause in cnf):
            return True
    return False


def test_criterion_05_cnf_pipeline_exhaustive():
    start = time.perf_counter()
    clauses = []
    for size in (1, 2, 3):
        for variables in itertools.combinations((1, 2, 3), size):
            for signs in itertools.product((1, -1), repeat=size):
                clauses.append(frozenset(v * s for v, s in zip(variables, signs)))
    assert len(clauses) == 26
    total = 0
    for count in (1, 2, 3, 4):
        for combo in itertools.combinations(clauses, count):
            total += 1
            expected = _brute_cnf_sat(combo)
            instance = cnf_to_choice_cover(combo)
            assert choice_cover_solve(instance) == expected, combo
            verdict = decide_satisfiability(choice_cover_to_pattern(instance))
            assert isinstance(verdict, Satisfiable) == expected, combo
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"{elapsed:.1f} s"
    report("criterion 5", True, f"{total} CNFs, SAT = cover = pattern verdict, {elapsed:.1f} s")


def test_criterion_06_well_designed_route():
    start = time.perf_counter()
    rng = random.Random(505)
    sat = unsat = negbound_nodes = 0
    for _ in range(1000):
        pattern = random_well_designed(rng, depth=rng.randint(1, 4), negbound_rate=0.08)
        ok, violations = ss.is_well_designed(pattern)
        assert ok, violations
        verdict = decide_well_designed(pattern)

        reduced = af_reduce(pattern)
        # schemes of the reduction are contained in every original scheme
        for small in candidate_schemes(reduced):
            for large in candidate_schemes(pattern):
                assert small <= large
        # negated bound checks inside well-designed patterns pin schemes empty
        for node in iter_subpatterns(pattern):
            if isinstance(node, Filter) and isinstance(node.condition, NegBound):
                negbound_nodes += 1
                assert not candidate_schemes(node)
        # the verdict equals satisfiability of the reduction, checked
        # against the independent scheme + finite-pool consistency oracle
        from sparqlsat.welldesigned import derive_sort_map, extract_constraints

        reduction_sat = bool(candidate_schemes(reduced)) and (
            enumerate_model(extract_constraints(reduced), derive_sort_map(reduced)) is not None
        )
        assert isinstance(verdict, Satisfiable) == reduction_sat

        if isinstance(verdict, Satisfiable):
            sat += 1
            assert verdict.sample in evaluate(pattern, verdict.witness)
        else:
            unsat += 1
            for _ in range(50):
                assert not evaluate(pattern, random_graph(rng, pattern))
    elapsed = time.perf_counter() - start
    assert sat + unsat == 1000 and negbound_nodes > 20
    report(
        "criterion 6",
        True,
        f"1000 well-designed patterns ({sat} SAT, {unsat} UNSAT x50 graphs, "
        f"{negbound_nodes} negated-bound nodes), {elapsed:.1f} s",
    )


def test_criterion_07_consistency_oracle():
    start = time.perf_counter()
    rng = random.Random(9090)
    cases = 10_000
    consistent_count = 0
    for _ in range(cases):
        constraints, sorts = random_value_constraints(rng, max_vars=5, max_constraints=8)
        expected = enumerate_model(constraints, sorts, fresh_count=5) is not None
        assert consistent(constraints, sorts) == expected, constraints
        solved = solve_constraints(constraints, sorts)
        assert isinstance(solved, Mapping) == expected
        if expected:
            consistent_count += 1
            for constraint in constraints:
                assert satisfies(solved, constraint)
    elapsed = time.perf_counter() - start
    report(
        "criterion 7",
        True,
        f"{cases} constraint sets vs finite-pool enumeration ({consistent_count} consistent), {elapsed:.1f} s",
    )


def test_criterion_08_wrong_literal_equivalence():
    start = time.perf_counter()
    rng = random.Random(808)
    reduced_count = erased = 0
    for _ in range(1000):
        pattern = random_pattern(rng, depth=rng.randint(1, 4), literal_subject_rate=0.3)
        reduced = wrong_literal_reduce(pattern)
        if reduced is None:
            erased += 1
        elif reduced != pattern:
            reduced_count += 1
        for _ in range(50):
            graph = random_graph(rng, pattern)
            if reduced is None:
                assert not evaluate(pattern, graph)
            else:
                assert evaluate(pattern, graph) == evaluate(reduced, graph)
    elapsed = time.perf_counter() - start
    assert erased > 100 and reduced_count > 100  # the injection actually bites
    report(
        "criterion 8",
        True,
        f"1000 patterns x50 graphs ({erased} erased, {reduced_count} rewritten), {elapsed:.1f} s",
    )


def test_criterion_09_linear_scaling():
    start = time.perf_counter()
    raw = generate_corpus(100_000, seed=777)
    options = PipelineOptions(builtins_as_bound=True, repeats=1)
    scaling = measure_scaling(raw, (5_000, 10_000, 50_000, 100_000), options)
    elapsed = time.perf_counter() - start
    detail = (
        "  ".join(f"{s}->{t:.0f}ms" for s, t in zip(scaling.sizes, scaling.total_ms))
        + f"  pearson={scaling.pearson:.6f}  ({elapsed:.0f} s)"
    )
    report("criterion 9", scaling.pearson >= 0.99, detail)


def test_criterion_10_pruning_equivalence_and_speed():
    rng = random.Random(606)
    compared = 0
    for _ in range(2000):
        pattern = random_pattern(rng, depth=rng.randint(0, 5))
        try:
            full = candidate_schemes(pattern)
        except ss.errors.SchemeSetBlowup:
            continue
        compared += 1
        assert bool(pruned_schemes(pattern)) == bool(full)

    arms = "\n".join(
        f"OPTIONAL {{?s <http://dbpedia.org/property/p{i}> ?v{i} .}}" for i in range(28)
    )
    query = (
        "SELECT DISTINCT * WHERE {\n?s a <http://dbpedia.org/ontology/University> .\n"
        + arms
        + '\nFILTER ( langMatches(lang(?v1), "es") || langMatches(lang(?v1), "en") )'
        + '\nFILTER ( langMatches(lang(?v2), "es") || langMatches(lang(?v2), "en") )'
        + "\n}"
    )
    pattern = parse_pattern(query)
    run_pipeline(pattern, builtins_as_bound=True)  # warm-up
    start = time.perf_counter()
    result = run_pipeline(pattern, builtins_as_bound=True)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    assert isinstance(result.verdict, Satisfiable)
    normalized = normalize_filters(ss.select_eliminate(pattern), builtins_as_bound=True)
    assert len(pruned_schemes(normalized)) <= 4
    assert elapsed_ms < 10.0, f"{elapsed_ms:.2f} ms"
    report(
        "criterion 10",
        True,
        f"pruned emptiness = full emptiness on {compared} patterns; "
        f"28-arm optional nest decided in {elapsed_ms:.2f} ms",
    )
