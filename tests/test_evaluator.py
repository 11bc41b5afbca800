"""Reference evaluator semantics, including the error-as-false filter rules."""

import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randgen import ALL_KINDS, IRI_POOL, random_constraint, random_graph, random_pattern
from sparqlsat import (
    Bound,
    EqC,
    Iri,
    Literal,
    Mapping,
    NegBound,
    Neq,
    NeqC,
    Eq,
    RdfGraph,
    RdfTriple,
    Variable,
    candidate_schemes,
    compatible,
    decide_satisfiability,
    evaluate,
    join,
    parse_graph,
    parse_pattern,
    satisfies,
    set_minus,
)
from sparqlsat.dalab import (
    _is_canonical,
    da_eval,
    emulate_eqc,
    emulate_eqneq,
    emulate_negbound,
    graph_of_relation,
    parse_da,
    relations_over,
    result_pairs,
)
from sparqlsat.errors import NotNormalized
from sparqlsat.evaluator import format_graph
from sparqlsat.report import format_verdict_text
from sparqlsat.patterns import And, Filter, Opt, Select, TriplePattern, Union, post_order, vars_of

x, y, z = Variable("x"), Variable("y"), Variable("z")
a, b, c = Iri("a"), Iri("b"), Iri("c")


def mapping(**kw):
    return Mapping({Variable(k): v for k, v in kw.items()})


def graph(*triples):
    return RdfGraph.of(RdfTriple(*t) for t in triples)


def solutions(*mappings):
    return frozenset(mappings)


# --- compatible / join / minus -------------------------------------------------

def test_compatible_examples():
    assert compatible(mapping(x=a), mapping(y=b))
    assert compatible(mapping(x=a), mapping(x=a, y=b))
    assert not compatible(mapping(x=a), mapping(x=b))


def test_join_examples():
    omega = solutions(mapping(x=a), mapping(x=b))
    assert join(omega, solutions(Mapping())) == omega
    assert join(solutions(mapping(x=a)), solutions(mapping(x=b))) == frozenset()
    assert join(solutions(mapping(x=a)), solutions(mapping(y=b))) == solutions(mapping(x=a, y=b))


def test_set_minus_examples():
    omega = solutions(mapping(x=a))
    assert set_minus(omega, frozenset()) == omega
    assert set_minus(omega, solutions(Mapping())) == frozenset()
    assert set_minus(solutions(mapping(x=a)), solutions(mapping(x=b))) == solutions(mapping(x=a))


# definitional (pairwise) implementations as the independent oracle
def naive_join(o1, o2):
    out = set()
    for m1 in o1:
        for m2 in o2:
            merged = m1.merge(m2)  # None when they disagree on a shared variable
            if merged is not None:
                out.add(merged)
    return frozenset(out)


def naive_minus(o1, o2):
    return frozenset(
        m1
        for m1 in o1
        if not any(
            all(m1[v] == m2[v] for v in m1.domain & m2.domain) for m2 in o2
        )
    )


def test_join_and_minus_match_their_definitions():
    rng = random.Random(41)
    values = (a, b, c, Literal("5"))
    for _ in range(120):
        def random_solutions():
            out = set()
            for _ in range(rng.randint(0, 5)):
                binding = {}
                for var in (x, y, z):
                    if rng.random() < 0.55:
                        binding[var] = rng.choice(values)
                out.add(Mapping(binding))
            return frozenset(out)

        o1, o2 = random_solutions(), random_solutions()
        assert join(o1, o2) == naive_join(o1, o2)
        assert set_minus(o1, o2) == naive_minus(o1, o2)


def test_join_commutative_and_associative():
    rng = random.Random(11)
    for _ in range(40):
        def random_solutions():
            out = set()
            for _ in range(rng.randint(0, 3)):
                binding = {}
                for var in (x, y, z):
                    if rng.random() < 0.6:
                        binding[var] = rng.choice((a, b, c))
                out.add(Mapping(binding))
            return frozenset(out)

        o1, o2, o3 = random_solutions(), random_solutions(), random_solutions()
        assert join(o1, o2) == join(o2, o1)
        assert join(join(o1, o2), o3) == join(o1, join(o2, o3))


# --- constraint satisfaction ------------------------------------------------------

def test_unbound_variable_fails_both_constant_comparisons():
    m = mapping(y=a)
    assert not satisfies(m, EqC(x, c))
    assert not satisfies(m, NeqC(x, c))


def test_satisfies_rules():
    m = mapping(x=c)
    assert satisfies(m, EqC(x, c))
    assert not satisfies(m, Eq(x, y))  # y unbound
    assert satisfies(m, Bound(x))
    assert not satisfies(m, Bound(y))
    assert satisfies(m, NegBound(y))
    assert not satisfies(m, NegBound(x))
    both = mapping(x=a, y=a)
    assert satisfies(both, Eq(x, y))
    assert not satisfies(both, Neq(x, y))


# --- evaluate ---------------------------------------------------------------------

def test_evaluate_triple_binds_variable_positions():
    g = graph((a, Iri("p"), b))
    assert evaluate(parse_pattern("(?x p ?y)"), g) == solutions(mapping(x=a, y=b))


def test_evaluate_repeated_variable_in_triple():
    g = graph((a, Iri("p"), a), (a, Iri("p"), b))
    assert evaluate(parse_pattern("(?x p ?x)"), g) == solutions(mapping(x=a))


def test_evaluate_optional_with_failing_arm():
    g = graph((a, Iri("p"), b))
    result = evaluate(parse_pattern("(?x p ?y) OPT (?y q ?z)"), g)
    assert result == solutions(mapping(x=a, y=b))


def test_evaluate_filtered_optional_union_on_constant_graph():
    pattern = parse_pattern("((?x p ?y) FILTER ?x != a) OPT ((?x q ?z) UNION (?x r ?u))")
    g = graph((c, Iri("p"), c), (c, Iri("q"), c), (c, Iri("r"), c))
    result = evaluate(pattern, g)
    mu1 = mapping(x=c, y=c, z=c)
    mu2 = Mapping({x: c, y: c, Variable("u"): c})
    assert result == solutions(mu1, mu2)


def test_variables_can_bind_blank_nodes_from_the_graph():
    from sparqlsat import BlankNode

    g = RdfGraph.of([RdfTriple(BlankNode("n"), Iri("p"), BlankNode("m"))])
    result = evaluate(parse_pattern("(?x p ?y)"), g)
    assert result == solutions(mapping(x=BlankNode("n"), y=BlankNode("m")))
    # blank nodes never appear in patterns themselves, only in graphs
    assert evaluate(parse_pattern("(?x p 11)"), g) == frozenset()


def test_evaluate_select_restricts_domains():
    g = graph((a, Iri("p"), b))
    pattern = parse_pattern("SELECT {?x} ((?x p ?y))")
    assert evaluate(pattern, g) == solutions(mapping(x=a))


def test_evaluate_rejects_composite_filters():
    pattern = parse_pattern("(?x p ?y) FILTER (bound(?x) && bound(?y))")
    with pytest.raises(NotNormalized):
        evaluate(pattern, graph((a, Iri("p"), b)))


def test_union_is_pointwise():
    rng = random.Random(3)
    for _ in range(30):
        p1 = random_pattern(rng, 2)
        p2 = random_pattern(rng, 2)
        from sparqlsat import Union

        g = random_graph(rng, Union(p1, p2))
        assert evaluate(Union(p1, p2), g) == evaluate(p1, g) | evaluate(p2, g)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_solution_domains_are_candidate_schemes(seed):
    # every solution's domain is one of the pattern's candidate schemes
    rng = random.Random(seed)
    pattern = random_pattern(rng, depth=rng.randint(0, 5))
    g = random_graph(rng, pattern)
    family = candidate_schemes(pattern)
    for solution in evaluate(pattern, g):
        assert solution.domain in family


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_optional_solutions_extend_mandatory_ones(seed):
    rng = random.Random(seed)
    left = random_pattern(rng, 2)
    right = random_pattern(rng, 2)
    pattern = Opt(left, right)
    g = random_graph(rng, pattern)
    left_solutions = evaluate(left, g)
    for solution in evaluate(pattern, g):
        assert any(
            solution.restrict(candidate.domain) == candidate for candidate in left_solutions
        )


def naive_evaluate(pattern, g):
    """Definitional evaluation: every join pairwise, every filter checked
    on the finished solutions of its child."""
    if isinstance(pattern, TriplePattern):
        return evaluate(pattern, g)
    if isinstance(pattern, Union):
        return naive_evaluate(pattern.left, g) | naive_evaluate(pattern.right, g)
    if isinstance(pattern, Filter):
        return frozenset(m for m in naive_evaluate(pattern.pattern, g) if satisfies(m, pattern.condition))
    if isinstance(pattern, Select):
        return frozenset(m.restrict(pattern.scheme & m.domain) for m in naive_evaluate(pattern.pattern, g))
    left, right = naive_evaluate(pattern.left, g), naive_evaluate(pattern.right, g)
    if isinstance(pattern, And):
        return naive_join(left, right)
    return naive_join(left, right) | naive_minus(left, right)


def _check_filter_over(kind, seed):
    """FILTER over a random `kind` node, against filtering its finished
    solutions: every condition kind, and the shapes the join treats apart:
    ?x = ?x, both variables on one side, one on each side, a variable on
    neither."""
    pool = (x, y, z, Variable("w"))
    nowhere = Variable("nowhere")
    nodes = (Iri("k0"), Iri("k1")) + IRI_POOL[:2]
    spo = [(s, p, o) for s in nodes for p in IRI_POOL for o in nodes + (Literal("11"),)]
    rng = random.Random(seed)
    nonempty = Counter()
    for _ in range(1500):
        left = random_pattern(rng, rng.randint(0, 2), variables=pool, select_rate=0.3)
        right = random_pattern(rng, rng.randint(0, 2), variables=pool, select_rate=0.3)
        shape = rng.randrange(4)
        if shape == 0:
            var = rng.choice(pool)
            condition = Eq(var, var)
        elif shape == 1:
            side = sorted(vars_of(rng.choice((left, right))), key=str) or list(pool)
            condition = random_constraint(rng, ALL_KINDS, side)
        else:
            condition = random_constraint(rng, ALL_KINDS, pool + (nowhere,) * (shape == 2))
        pattern = Filter(kind(left, right), condition)
        if rng.random() < 0.3:
            pattern = rng.choice((Opt, Union, And))(pattern, random_pattern(rng, 1, variables=pool))
        g = graph(*(rng.choice(spo) for _ in range(rng.randint(10, 40))))
        expected = naive_evaluate(pattern, g)
        assert evaluate(pattern, g) == expected, (pattern, format_graph(g))
        nonempty[type(condition).__name__] += bool(expected)
    assert len(nonempty) == 6 and min(nonempty.values()) >= 5, nonempty


def test_filter_over_join_matches_join_then_filter():
    # the join checks the condition on each compatible pair
    _check_filter_over(And, 20)


def test_filter_over_optional_matches_optional_then_filter():
    # a FILTER over an OPT is the filtered join united with the filtered
    # difference
    _check_filter_over(Opt, 21)


# --- differential checks against the definitional evaluation -------------------------

def test_difference_compilations_match_the_definitional_evaluation():
    # full solution sets, fresh variables included, of the three compilations
    # of both difference shapes, wherever each compiler is exact: every
    # relation on at most three elements for negbound and eqc (eqc needs d1
    # and d2 in the active domain), and for eqneq (two elements at least)
    # every relation on two elements and, up to isomorphism, those on three
    # with at most five pairs, where the pairwise oracle stays fast
    d1, d2 = Iri("d1"), Iri("d2")
    checked = Counter()
    for text in ("(R . R) - R", "R - (R . R)"):
        expr = parse_da(text)
        compiled = (emulate_negbound(expr), emulate_eqneq(expr), emulate_eqc(expr, d1, d2))
        for size in (1, 2, 3):
            for relation in relations_over(size):
                g = graph_of_relation(relation)
                variants = [("negbound", compiled[0])]
                if size == 2 or (size == 3 and len(relation) <= 5 and _is_canonical(relation, 3)):
                    variants.append(("eqneq", compiled[1]))
                if size >= 2:
                    variants.append(("eqc", compiled[2]))
                for name, pattern in variants:
                    expected = naive_evaluate(pattern, g)
                    assert evaluate(pattern, g) == expected, (text, name, sorted(relation, key=str))
                    assert result_pairs(expected) == da_eval(expr, relation)
                    checked[name] += 1
    assert checked == {"negbound": 2 * 483, "eqc": 2 * 482, "eqneq": 2 * (8 + 71)}, checked


def test_random_patterns_match_the_definitional_evaluation():
    # triples with a repeated variable, a variable predicate, or no variable
    # at all (the empty domain), under SELECT and every filter kind
    pool = (x, y, z)
    nodes = (Iri("k0"), Iri("k1")) + IRI_POOL[:3]
    spo = [(s, p, o) for s in nodes for p in IRI_POOL[:3] for o in nodes + (Literal("11"),)]
    rng = random.Random(23)
    seen = Counter()
    for _ in range(2000):
        pattern = random_pattern(rng, rng.randint(0, 3), variables=pool, select_rate=0.3)
        g = graph(*(rng.choice(spo) for _ in range(rng.randint(5, 30))))
        expected = naive_evaluate(pattern, g)
        assert evaluate(pattern, g) == expected, (pattern, format_graph(g))
        if not expected:
            continue
        for node in post_order(pattern):
            if isinstance(node, TriplePattern):
                variables = [t for t in node.terms() if isinstance(t, Variable)]
                seen["repeated variable"] += len(set(variables)) < len(variables)
                seen["variable predicate"] += isinstance(node.predicate, Variable)
                seen["no variable"] += not variables
            seen[type(node).__name__] += 1
    assert min(seen[k] for k in ("repeated variable", "variable predicate", "no variable", "Select")) >= 20, seen


def test_witness_of_a_3000_triple_bgp_replays_fast():
    # the graph is indexed by predicate, so each triple reads only its own
    # triples and the replay is linear in the pattern
    triples = [TriplePattern(x, Iri(f"p{i}"), Variable(f"o{i}")) for i in range(3000)]
    pattern = triples[0]
    for tp in triples[1:]:
        pattern = And(pattern, tp)
    verdict = decide_satisfiability(pattern)
    start = time.perf_counter()
    solutions = evaluate(pattern, verdict.witness)
    elapsed = time.perf_counter() - start
    assert verdict.sample in solutions
    assert elapsed < 2.0, f"{elapsed:.2f} s"


# --- graph fixture format ------------------------------------------------------------

def test_graph_fixture_roundtrip():
    g = graph((a, Iri("p"), Literal('say "hi"')), (Iri("http://e/x"), Iri("q"), b))
    assert parse_graph(format_graph(g)) == g


#: Characters a literal's escapes must survive: every one that
#: `str.splitlines` breaks a line at, the backslash and quote they are
#: written with, and the letters and digits of an escape.
_LEXICAL_ALPHABET = '\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\u2028\u2029\\"nru0BCE8 \ta.#<>'


def test_graph_fixture_literals_round_trip():
    rng = random.Random(20)
    for _ in range(5000):
        first, second = ("".join(rng.choice(_LEXICAL_ALPHABET) for _ in range(rng.randint(0, 10))) for _ in "ab")
        g = graph((a, Iri("p"), Literal(first)), (b, Iri("q"), Literal(second)))
        assert parse_graph(format_graph(g)) == g, (first, second)


@settings(max_examples=300, deadline=None)
@given(st.text())
def test_graph_fixture_reads_back_any_literal(lexical):
    g = graph((a, Iri("p"), Literal(lexical)))
    assert parse_graph(format_graph(g)) == g


def test_a_hand_written_literal_decodes_only_the_escapes_format_term_writes():
    # `\\`, `\"`, `\n`, `\r` and the upper-case `\uXXXX` of the other line
    # breaks are read back; any other backslash stays as it is
    lines = r'''<s> <p> "a\tb" .
<s> <p> "\u0041" .
<s> <p> "\u000b" .
<s> <p> "a\nb\r\u000B\u2028" .
<s> <p> "\\n \" \x" .'''
    objects = {t.object.lexical for t in parse_graph(lines)}
    assert objects == {"a\\tb", "\\u0041", "\\u000b", "a\nb\r\x0b\u2028", '\\n " \\x'}


def test_a_witness_literal_with_a_line_break_reads_back():
    verdict = decide_satisfiability(parse_pattern('SELECT * WHERE { ?s <p> "a\\nb" . ?s <q> "c\u2028d" }'))
    text = format_verdict_text(verdict)
    assert parse_graph(text.split("witness graph:\n", 1)[1]) == verdict.witness
    assert Literal("a\nb") in {t.object for t in verdict.witness}


def test_graph_fixture_parses_blank_nodes_and_bare_words():
    g = parse_graph("_:n <p> 42 .\ns p \"lit\" .")
    assert len(g) == 2
