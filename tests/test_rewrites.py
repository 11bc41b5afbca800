"""Pattern transformations: literal cleanup, projection removal, splitting."""

import gc
import itertools
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randgen import VAR_POOL, random_graph, random_pattern, random_shared_pattern
from select_reference import select_eliminate_reference
from sparqlsat import (
    And,
    Filter,
    Iri,
    Literal,
    NeqC,
    Opt,
    RdfGraph,
    RdfTriple,
    Satisfiable,
    Select,
    TriplePattern,
    Union,
    Unsatisfiable,
    Variable,
    af_reduce,
    candidate_schemes,
    decide_satisfiability,
    evaluate,
    exists_rewrite,
    parse_pattern,
    run_pipeline,
    select_eliminate,
    serialize_pattern,
    union_free_split,
    wrong_literal_reduce,
)
from sparqlsat.errors import NotUnionFree, PreconditionViolated
from sparqlsat.corpus import generate_corpus
from sparqlsat.patterns import (
    PatternFacts,
    bindable_vars,
    children,
    contains_node,
    is_reserved_name,
    pattern_facts,
    post_order,
    rebuilt,
    vars_of,
)
from sparqlsat.rewrites import af_core, select_eliminate_info

x, y, z = Variable("x"), Variable("y"), Variable("z")
g1, g2 = Variable("_g1"), Variable("_g2")


# --- wrong-literal reduction ------------------------------------------------------

def test_literal_subject_triple_reduces_to_nothing():
    assert wrong_literal_reduce(parse_pattern("(42 ?x ?y)")) is None


def test_optional_arm_with_literal_subject_is_dropped():
    reduced = wrong_literal_reduce(parse_pattern("(?a p ?b) OPT (42 ?x ?y)"))
    assert reduced == parse_pattern("(?a p ?b)")


def test_literal_free_pattern_is_unchanged():
    pattern = parse_pattern("((?x p ?y) UNION (?x q 42)) FILTER ?x != c")
    assert wrong_literal_reduce(pattern) == pattern


def test_reduction_returns_its_input_exactly_when_nothing_is_removed():
    pattern = parse_pattern("(((?x p ?y) OPT (?y q ?z)) AND (?x r 42)) FILTER ?x != c")
    assert wrong_literal_reduce(pattern) is pattern
    doomed_arm = parse_pattern("(((?x p ?y) OPT (42 q ?z)) AND (?x r 42)) FILTER ?x != c")
    reduced = wrong_literal_reduce(doomed_arm)
    assert reduced is not doomed_arm
    assert reduced == parse_pattern("((?x p ?y) AND (?x r 42)) FILTER ?x != c")


def test_union_keeps_the_clean_branch():
    reduced = wrong_literal_reduce(parse_pattern("(42 p ?y) UNION (?x q ?y)"))
    assert reduced == parse_pattern("(?x q ?y)")


def test_conjunction_with_doomed_side_is_doomed():
    assert wrong_literal_reduce(parse_pattern("(?x p ?y) AND (42 q ?y)")) is None


def test_filter_above_doomed_pattern_is_doomed():
    assert wrong_literal_reduce(parse_pattern("(42 p ?y) FILTER bound(?y)")) is None


def test_wrong_literal_requires_select_free():
    with pytest.raises(PreconditionViolated):
        wrong_literal_reduce(Select(frozenset(), parse_pattern("(?x p ?y)")))


def test_wrong_literal_rejects_a_select_beside_a_doomed_side():
    # the reduction never descends into the right side of a doomed AND,
    # so the SELECT there must still be caught
    pattern = And(parse_pattern("(42 p ?y)"), Select(frozenset((x,)), parse_pattern("(?x p ?y)")))
    with pytest.raises(PreconditionViolated):
        wrong_literal_reduce(pattern)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_wrong_literal_reduction_preserves_semantics(seed):
    rng = random.Random(seed)
    pattern = random_pattern(rng, depth=rng.randint(1, 4), literal_subject_rate=0.25)
    reduced = wrong_literal_reduce(pattern)
    for _ in range(5):
        graph = random_graph(rng, pattern)
        if reduced is None:
            assert evaluate(pattern, graph) == frozenset()
        else:
            assert evaluate(pattern, graph) == evaluate(reduced, graph)
    if reduced is not None:
        assert all(
            not isinstance(tp.subject, Literal)
            for tp in _triples(reduced)
        )
    literal_free = all(not isinstance(tp.subject, Literal) for tp in _triples(pattern))
    assert (reduced is pattern) == literal_free


def _triples(pattern):
    from sparqlsat.patterns import pattern_facts

    return pattern_facts(pattern).triples


# --- SELECT elimination --------------------------------------------------------------

def test_select_elimination_worked_example():
    pattern = parse_pattern(
        "(c p ?x) OPT (((?x p ?y) AND SELECT {?y} ((?y q ?z))) AND SELECT {?y} ((?y r ?z)))"
    )
    # the reserved prefix is rejected at parse time, so build the expectation manually
    expected = Opt(
        TriplePattern(Iri("c"), Iri("p"), x),
        And(
            And(TriplePattern(x, Iri("p"), y), TriplePattern(y, Iri("q"), g1)),
            TriplePattern(y, Iri("r"), g2),
        ),
    )
    assert select_eliminate(pattern) == expected


def test_select_free_pattern_is_untouched():
    pattern = parse_pattern("(?x p ?y) OPT (?x q ?z)")
    assert select_eliminate(pattern) is pattern or select_eliminate(pattern) == pattern


def test_select_free_pattern_is_returned_itself():
    pattern = parse_pattern("((?x p ?y) OPT (?x q ?z)) FILTER ?x != c")
    eliminated, fresh, _ = select_eliminate_info(pattern)
    assert eliminated is pattern
    assert fresh == frozenset()
    assert select_eliminate_info(Select(frozenset((x,)), pattern))[0] is not pattern


def test_select_elimination_refuses_a_shared_subtree_only_with_a_select():
    body = parse_pattern("(?x p ?y)")
    shared = And(body, body)
    assert select_eliminate_info(shared)[0] is shared
    with pytest.raises(PreconditionViolated, match="shares no subtree"):
        select_eliminate_info(Select(frozenset((x,)), shared))


def test_a_select_that_projects_nothing_out_is_its_body_itself():
    rng = random.Random(31)
    for _ in range(300):
        body = random_pattern(rng, depth=rng.randint(0, 4))
        scheme = vars_of(body) | frozenset(rng.sample(VAR_POOL, rng.randint(0, 2)))
        eliminated, fresh, _ = select_eliminate_info(Select(scheme, body))
        assert eliminated is body and fresh == frozenset()
        other = random_pattern(rng, depth=rng.randint(0, 2))
        eliminated, _, _ = select_eliminate_info(And(Select(scheme, body), Select(frozenset(), other)))
        assert eliminated.left is body


def test_select_elimination_returns_the_facts_of_its_result():
    # equal, field by field and the order and triples node by node, to a
    # walk of the result; the facts of a root SELECT's body are read off the
    # SELECT's, here for the corpus SELECTs and for random schemes that hold
    # variables the body lacks as well as all it holds
    rng = random.Random(37)
    patterns = [p for p in map(parse_pattern, generate_corpus(2000, 777)) if type(p) is Select]
    assert len(patterns) == 232
    extra = tuple(Variable(f"w{i}") for i in range(3))
    for _ in range(600):
        body = random_pattern(rng, depth=rng.randint(0, 5))
        patterns.append(Select(vars_of(body) | frozenset(rng.sample(VAR_POOL + extra, rng.randint(0, 4))), body))
        patterns.append(random_pattern(rng, depth=rng.randint(1, 5), select_rate=0.5))
    read_off = lacking = 0
    for pattern in patterns:
        eliminated, _, facts = select_eliminate_info(pattern)
        walked = pattern_facts(eliminated)
        for field in PatternFacts.__slots__:
            assert getattr(facts, field) == getattr(walked, field), field
        assert list(map(id, facts.order)) == list(map(id, walked.order))
        assert list(map(id, facts.triples)) == list(map(id, walked.triples))
        if type(pattern) is Select and eliminated is pattern.pattern:
            read_off += 1
            lacking += not pattern.scheme <= walked.variables
    assert read_off >= 832 and lacking > 100

def test_a_root_select_renames_exactly_the_body_variables_it_drops():
    rng = random.Random(33)
    for _ in range(300):
        body = random_pattern(rng, depth=rng.randint(0, 4))
        scheme = frozenset(rng.sample(VAR_POOL, rng.randint(0, 4)))
        eliminated, fresh, _ = select_eliminate_info(Select(scheme, body))
        assert len(fresh) == len(vars_of(body) - scheme)
        assert vars_of(eliminated) == (vars_of(body) & scheme) | fresh


def test_single_projection_renames_dropped_variable():
    pattern = parse_pattern("SELECT {?x} ((?x p ?y))")
    assert select_eliminate(pattern) == TriplePattern(x, Iri("p"), g1)


def test_projection_elimination_preserves_projected_solutions():
    rng = random.Random(23)
    pattern = parse_pattern("SELECT {?x} ((?x p ?y))")
    eliminated, fresh, _ = select_eliminate_info(pattern)
    for _ in range(30):
        graph = random_graph(rng, pattern)
        direct = evaluate(pattern, graph)
        projected = frozenset(m.drop(fresh) for m in evaluate(eliminated, graph))
        assert direct == projected


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9))
def test_select_elimination_hat_projection_law(seed):
    # dropping the fresh variables from the rewrite's solutions yields exactly
    # the original solutions, on every graph tried
    rng = random.Random(seed)
    pattern = random_pattern(rng, depth=rng.randint(1, 4), select_rate=0.5)
    eliminated, fresh, _ = select_eliminate_info(pattern)
    assert not contains_node(eliminated, Select)
    for _ in range(4):
        graph = random_graph(rng, pattern)
        direct = evaluate(pattern, graph)
        projected = frozenset(m.drop(fresh) for m in evaluate(eliminated, graph))
        assert direct == projected
        assert bool(direct) == bool(evaluate(eliminated, graph))  # equisatisfiable


def _has_nested_select(pattern) -> bool:
    return any(
        contains_node(node.pattern, Select) for node in pattern_facts(pattern).order if type(node) is Select
    )


def _fresh_names(pattern):
    return frozenset(v for v in vars_of(pattern) if is_reserved_name(v.name))


def _numbered_apart(text: str) -> str:
    """The text with its fresh names numbered by first occurrence."""
    names: dict = {}
    return re.sub(r"\?_g\d+", lambda m: names.setdefault(m.group(), f"?_g{len(names) + 1}"), text)


def test_select_elimination_matches_the_reference():
    # identical where no SELECT lies inside another; otherwise the reference
    # renames fresh names again at every enclosing SELECT, so the two agree
    # up to a one-to-one renaming of the fresh names
    rng = random.Random(47)
    nested = 0
    for _ in range(4000):
        pattern = random_pattern(rng, depth=rng.randint(1, 5), select_rate=0.5)
        eliminated, introduced, _ = select_eliminate_info(pattern)
        expected, _ = select_eliminate_reference(pattern)
        assert introduced == _fresh_names(eliminated)
        if _has_nested_select(pattern):
            nested += 1
            assert _numbered_apart(serialize_pattern(eliminated)) == _numbered_apart(serialize_pattern(expected))
        else:
            assert eliminated == expected
    assert nested > 100


def test_a_fresh_name_is_not_renamed_by_an_enclosing_select():
    w = Variable("w")
    inner = Select(frozenset((x,)), TriplePattern(x, Iri("q"), w))
    pattern = Select(frozenset(), And(TriplePattern(x, Iri("p"), y), inner))
    eliminated, introduced, _ = select_eliminate_info(pattern)
    # the inner SELECT names ?w first; the outer one captures ?x and ?y, not ?_g1
    g3 = Variable("_g3")
    assert eliminated == And(TriplePattern(g2, Iri("p"), g3), TriplePattern(g2, Iri("q"), g1))
    assert introduced == frozenset((g1, g2, g3))


def test_rename_vars_runs_at_most_once_per_elimination(monkeypatch):
    from sparqlsat import rewrites

    calls = []
    real = rewrites.rename_vars
    monkeypatch.setattr(rewrites, "rename_vars", lambda p, renamings: calls.append(p) or real(p, renamings))
    rng = random.Random(53)
    for _ in range(300):
        calls.clear()
        select_eliminate_info(random_pattern(rng, depth=rng.randint(1, 5), select_rate=0.5))
        assert len(calls) <= 1


def _exists_nest(depth: int, fresh: bool) -> str:
    level = (lambda i: f"(?x p ?v{i})") if fresh else (lambda i: "(?x p ?y)")
    return "".join(f"{level(i)} FILTER EXISTS (" for i in range(depth)) + "(?x p ?y)" + ")" * depth


def test_pipeline_collects_facts_as_often_at_any_nest_depth(monkeypatch):
    import sparqlsat

    calls = []

    def counting(pattern):
        calls.append(pattern)
        return pattern_facts(pattern)

    for module in list(vars(sparqlsat).values()):  # every module that calls it by name
        if hasattr(module, "pattern_facts"):
            monkeypatch.setattr(module, "pattern_facts", counting)
    counts = {}
    for depth in (10, 2000):
        pattern = parse_pattern(_exists_nest(depth, fresh=True))
        calls.clear()
        run_pipeline(pattern)
        counts[depth] = len(calls)
    assert counts[10] == counts[2000] > 0


@pytest.mark.parametrize("fresh", [False, True], ids=["shared-variables", "a-variable-per-level"])
def test_an_exists_nest_decides_in_linear_time(fresh):
    # the two depths interleave, each round in the other order (small,
    # large, large, small, ...), so that both meet the same load and the
    # same term table, and each run starts after a collection; the ratio is
    # read in this thread's CPU time, which time taken by other processes
    # does not inflate on either side, and the bound in wall time
    nests = [parse_pattern(_exists_nest(depth, fresh)) for depth in (1000, 5000)]
    wall, cpu = [float("inf")] * 2, [float("inf")] * 2
    for turn in range(5):
        for index in (0, 1) if turn % 2 == 0 else (1, 0):
            gc.collect()
            start, start_cpu = time.perf_counter(), time.thread_time()
            assert isinstance(run_pipeline(nests[index]).verdict, Satisfiable)
            cpu[index] = min(cpu[index], time.thread_time() - start_cpu)
            wall[index] = min(wall[index], time.perf_counter() - start)
    assert wall[1] < 1.0
    assert cpu[1] < 7 * cpu[0], f"{cpu[1] / cpu[0]:.1f}x"


# --- EXISTS rewrite ---------------------------------------------------------------

def test_exists_rewrite_shape():
    pattern = parse_pattern("(?x p ?y)")
    subquery = parse_pattern("(?x q ?z)")
    rewritten = exists_rewrite(pattern, subquery)
    assert rewritten == Select(frozenset((x, y)), And(pattern, subquery))


def test_exists_rewrite_semantics():
    rewritten = exists_rewrite(parse_pattern("(?x p ?y)"), parse_pattern("(?x q ?z)"))
    from sparqlsat import RdfGraph, RdfTriple

    g = RdfGraph.of(
        [
            RdfTriple(Iri("a"), Iri("p"), Iri("b")),
            RdfTriple(Iri("a"), Iri("q"), Iri("c")),
            RdfTriple(Iri("d"), Iri("p"), Iri("e")),
        ]
    )
    from sparqlsat import Mapping

    assert evaluate(rewritten, g) == frozenset(
        [Mapping({x: Iri("a"), y: Iri("b")})]
    )


def test_exists_rewrite_with_unsatisfiable_subquery_is_empty():
    rng = random.Random(4)
    rewritten = exists_rewrite(parse_pattern("(?x p ?y)"), parse_pattern("(42 q ?z)"))
    for _ in range(25):
        graph = random_graph(rng, rewritten)
        assert evaluate(rewritten, graph) == frozenset()


THREE_FILTERS = ("FILTER EXISTS { ?x <q> ?w }", "FILTER EXISTS { ?x <r> ?w }", "FILTER (?w != <c>)")


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_an_exists_filter_does_not_bind_an_earlier_ones_variables(order):
    # ?w is never bound in the group's solutions, so `?w != <c>` fails on all of them
    query = "SELECT * WHERE { ?x <p> ?y " + " ".join(THREE_FILTERS[i] for i in order) + " }"
    verdict = decide_satisfiability(parse_pattern(query))
    assert isinstance(verdict, Unsatisfiable)


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_an_exists_body_variable_stays_unbound_outside(order):
    query = (
        "SELECT * WHERE { { ?x <p> ?y " + " ".join(THREE_FILTERS[i] for i in order) + " } FILTER (!bound(?w)) }"
    )
    pattern = parse_pattern(query)
    graph = RdfGraph.of(
        RdfTriple(Iri("a"), Iri(p), Iri(o)) for p, o in (("p", "b"), ("q", "c"), ("r", "c"))
    )
    assert evaluate(pattern, graph)
    assert not isinstance(decide_satisfiability(pattern), Unsatisfiable)


def test_exists_projects_onto_what_its_left_side_binds():
    # not onto variables of filter conditions or of an earlier EXISTS body
    pattern = parse_pattern(
        "SELECT * WHERE { ?x <p> ?y FILTER (?z = <c>) FILTER EXISTS { ?x <q> ?w } FILTER EXISTS { ?y <q> ?v } }"
    )
    assert type(pattern) is Select and pattern.scheme == frozenset((x, y))
    assert pattern.pattern.left.scheme is pattern.scheme  # one set for the group
    assert bindable_vars(parse_pattern("SELECT {?x ?q} ((?x p ?y) OPT (?y q ?z)) FILTER bound(?w)")) == {x}


def test_sibling_exists_filters_parse_and_decide_in_linear_time():
    for text in (
        "SELECT * WHERE { ?x <p> ?y " + " ".join(f"FILTER EXISTS {{ ?x <q{i}> ?w{i} }}" for i in range(2000)) + " }",
        "(?x p ?y) " + " ".join(f"FILTER EXISTS ((?x q{i} ?w{i}))" for i in range(2000)),
    ):
        start = time.perf_counter()
        verdict = decide_satisfiability(parse_pattern(text))
        assert time.perf_counter() - start < 1.0
        assert isinstance(verdict, Satisfiable)


# --- union splitting ------------------------------------------------------------------

def test_union_chain_splits_completely():
    members = union_free_split(parse_pattern("(?x p ?y) UNION ((?x q ?y) UNION (?x r ?y))"))
    assert [m.pattern for m in members] == [
        parse_pattern("(?x p ?y)"),
        parse_pattern("(?x q ?y)"),
        parse_pattern("(?x r ?y)"),
    ]
    assert all(m.union_free for m in members)


def test_union_free_pattern_is_a_single_member():
    pattern = parse_pattern("(?x p ?y) OPT (?x q ?z)")
    members = union_free_split(pattern)
    assert len(members) == 1 and members[0].pattern == pattern and members[0].union_free


def test_nested_union_is_flagged():
    pattern = parse_pattern("((?x p ?y) UNION (?x q ?y)) AND (?x r ?z)")
    members = union_free_split(pattern)
    assert len(members) == 1 and not members[0].union_free


def test_union_split_flags_match_a_walk_of_each_member():
    rng = random.Random(32)
    seen = set()
    for index in range(600):
        if index % 2:
            pattern = random_pattern(rng, depth=rng.randint(0, 5), select_rate=0.3)
        else:
            pattern = random_shared_pattern(rng, depth=rng.randint(0, 3), select_rate=0.3)
        split = [
            [(id(m.pattern), m.union_free, m.opt_or_filter) for m in union_free_split(pattern, facts=facts)]
            for facts in (None, pattern_facts(pattern))
        ]
        assert split[0] == split[1]
        for member in union_free_split(pattern):
            assert member.union_free == (not contains_node(member.pattern, Union))
            assert member.opt_or_filter == contains_node(member.pattern, (Opt, Filter))
            seen.add((member.union_free, member.opt_or_filter))
    assert len(seen) == 4


# --- AND/FILTER reduction ---------------------------------------------------------------

def test_af_reduce_drops_optional_arms():
    pattern = parse_pattern("((?x p ?y) OPT (?x q ?z)) AND (?x s ?w)")
    assert af_reduce(pattern) == parse_pattern("(?x p ?y) AND (?x s ?w)")


def test_af_reduce_keeps_af_patterns():
    pattern = parse_pattern("((?x p ?y) AND (?y q ?z)) FILTER ?x = ?z")
    assert af_reduce(pattern) == pattern


def test_af_reduce_nested_filter_example():
    pattern = parse_pattern("((?x p ?y) OPT ((?x q ?z) FILTER ?y = ?z)) FILTER ?x != c")
    assert af_reduce(pattern) == Filter(TriplePattern(x, Iri("p"), y), NeqC(x, Iri("c")))


def test_af_reduce_rejects_unions():
    with pytest.raises(NotUnionFree):
        af_reduce(parse_pattern("(?x p ?y) UNION (?x q ?y)"))


def test_af_reduce_rejects_a_union_inside_an_optional_arm():
    # the reduction drops optional arms unread, so the check must see into them
    with pytest.raises(NotUnionFree):
        af_reduce(Opt(parse_pattern("(?x p ?y)"), parse_pattern("(?x q ?z) UNION (?x r ?z)")))


def test_af_reduce_rejects_a_select_inside_an_optional_arm():
    with pytest.raises(PreconditionViolated):
        af_reduce(Opt(parse_pattern("(?x p ?y)"), Select(frozenset((x,)), parse_pattern("(?x q ?z)"))))


def _af_core_reference(pattern):
    """The fold of every node, an OPT taking its left side's result, and the
    arms found by a recursive walk along AND, FILTER and OPT-left edges,
    each listed once, in post-order of the first OPT that has it; with the
    ids of the nodes on the core and of those inside each arm."""
    done: dict = {}
    for node in post_order(pattern):
        done[id(node)] = done[id(node.left)] if type(node) is Opt else rebuilt(node, done)
    arms, core = {}, set()

    def visit(node):
        if id(node) not in core:
            core.add(id(node))
            for kid in (node.left,) if type(node) is Opt else children(node):
                visit(kid)
            if type(node) is Opt:
                arms.setdefault(id(node.right), node.right)

    visit(pattern)
    inside = [{id(node) for node in post_order(arm)} for arm in arms.values()]
    return done[id(pattern)], list(arms.values()), core, inside


def test_af_reduce_output_is_and_filter_only():
    # trees, then DAGs whose subtrees sit both on the core and inside an
    # arm, or inside two arms: the core equals the fold of every node
    rng = random.Random(9)
    produced = on_core_and_in_arm = in_two_arms = 0
    while produced < 600:
        pattern = random_pattern(rng, depth=3) if produced < 60 else random_shared_pattern(rng, rng.randint(0, 2))
        if contains_node(pattern, Union) or contains_node(pattern, Select):
            continue
        produced += 1
        reduced = af_reduce(pattern)
        assert not contains_node(reduced, (Opt, Union, Select))
        core, arms = af_core(pattern)
        expected, expected_arms, on_core, inside = _af_core_reference(pattern)
        assert reduced == core == expected
        assert list(map(id, arms)) == list(map(id, expected_arms))
        on_core_and_in_arm += any(on_core & arm for arm in inside)
        in_two_arms += any(inside[i] & inside[j] for i in range(len(inside)) for j in range(i))
    assert on_core_and_in_arm > 100 and in_two_arms > 20


def test_af_reduction_schemes_shrink():
    # every scheme of the reduction is contained in every scheme of the original
    rng = random.Random(17)
    produced = 0
    while produced < 80:
        pattern = random_pattern(rng, depth=3)
        if contains_node(pattern, Union) or contains_node(pattern, Select):
            continue
        produced += 1
        reduced_family = candidate_schemes(af_reduce(pattern))
        family = candidate_schemes(pattern)
        for small in reduced_family:
            for large in family:
                assert small <= large
