"""The facts a surface parse collects, and their hand-over to `pattern_facts`.

`parse_pattern` leaves the `PatternFacts` the surface parser collected in
one slot; the first `pattern_facts` call on the pattern it returned takes
them instead of walking the tree.  They must be the walk's facts field by
field, with the very nodes of the tree in `order`, `triples` and
`conditions`.
"""

import operator
import random
import sys
import threading

import pytest

from sparqlsat import decide_satisfiability, parse_pattern, patterns
from sparqlsat.corpus import generate_corpus
from sparqlsat.errors import QuerySyntaxError, UnsupportedFeature
from sparqlsat.patterns import hand_over, pattern_facts, post_order
from sparqlsat.report import format_verdict_text
from wide_shapes import LADDER, basic_graph_pattern, optional_nest

_SET_FIELDS = ("variables", "constants", "filter_variables", "node_types", "shares")
_NODE_FIELDS = ("order", "triples", "conditions")


def _handed_facts(text: str):
    """The pattern `text` parses to, and the facts its parse handed over,
    with the slot left empty."""
    pattern = parse_pattern(text)
    handed = patterns._handed_over
    hand_over(None)
    return pattern, handed


def _assert_handed_over_as_walked(text: str) -> None:
    pattern, handed = _handed_facts(text)
    assert handed is not None and handed.order[-1] is pattern, text
    walked = pattern_facts(pattern)
    assert walked is not handed
    for field in _SET_FIELDS:
        assert getattr(handed, field) == getattr(walked, field), (field, text)
    for field in _NODE_FIELDS:
        ours, theirs = getattr(handed, field), getattr(walked, field)
        assert type(ours) is tuple and len(ours) == len(theirs), (field, text)
        assert all(a is b for a, b in zip(ours, theirs)), (field, text)


def _parsed_texts(texts):
    """The texts that parse to a pattern without FILTER EXISTS."""
    for text in texts:
        if "EXISTS" in text:
            continue
        try:
            parse_pattern(text)
        except (QuerySyntaxError, UnsupportedFeature):
            continue
        yield text


# --- the differential check -----------------------------------------------------------

def test_the_corpora_hand_over_the_facts_the_walk_collects():
    texts = list(_parsed_texts(generate_corpus(2000, 777) + generate_corpus(2000, 7, error_rate=0.2)))
    assert len(texts) > 3500
    for text in texts:
        _assert_handed_over_as_walked(text)


@pytest.mark.parametrize("text", [text for _, text in LADDER] + [basic_graph_pattern(n) for n in (350, 400, 5000)])
def test_the_wide_shapes_and_depth_probes_hand_over_the_walks_facts(text):
    _assert_handed_over_as_walked(text)


def _smoke_queries() -> list[str]:
    """The queries the CI smoke step decides with `sparqlsat check`."""
    nest = " . ".join(f"?s <c{i}> ?c{i}" for i in range(3200))
    nest_arms = " ".join(f"OPTIONAL {{ ?s <p{i}> ?a{i} . ?a{i} <q{i}> ?b{i} }}" for i in range(3200))
    arms = " ".join(f"OPTIONAL {{ ?s <p{i}> ?v{i} }}" for i in range(1000))
    test = " || ".join(f"bound(?v{i})" for i in range(1000))
    clauses = " ".join(f"FILTER (?o = <a{i}> || ?r = <b{i}>)" for i in range(40))
    return [
        "SELECT * WHERE { ?s <p> ?o0 . ?s <p> ?o1 . ?s <p> ?o2 . ?s <p> ?o3 . ?s <p> ?o4 . ?s <p> ?o5 .\n"
        "  OPTIONAL { ?s <p> ?a0 } OPTIONAL { ?s <p> ?a1 } OPTIONAL { ?s <p> ?a2 }\n"
        "  OPTIONAL { ?s <p> ?a3 } OPTIONAL { ?s <p> ?a4 } OPTIONAL { ?s <p> ?a5 } FILTER (?o0 = <k>) }",
        f"SELECT * WHERE {{ {nest} . {nest_arms} FILTER (?c0 = <k>) FILTER (?c1 != ?c2) }}",
        f"SELECT * WHERE {{ ?s a <T> . {arms} FILTER ({test}) }}",
        "SELECT * WHERE { ?s <p> ?o . ?s <q> ?r . FILTER (?o != ?r) FILTER (?o = <a> || ?r = <b>) }",
        "SELECT * WHERE { ?s <p> ?o . ?s <q> ?r . FILTER (?o = <a> || ?r = <b>) FILTER (?o != ?r) }",
        f"SELECT * WHERE {{ ?s <p> ?o . ?s <q> ?r . FILTER (?o != ?r) {clauses} }}",
        optional_nest(50),
        'SELECT * WHERE { ?s <p#x> ?o . # FILTER (regex(?o, "b"))\nFILTER (regex(?o,   "a")) }',
        'SELECT * WHERE { ?s <p> "a\\nb" }',
        'SELECT * WHERE { ?s <p> "q\\"b\\\\c\\rd\u2028e" }',
    ]


@pytest.mark.parametrize("index", range(10))
def test_the_smoke_queries_hand_over_the_walks_facts(index):
    _assert_handed_over_as_walked(_smoke_queries()[index])


# Random surface texts: every construct the parser folds or reads a term
# in, and conditions whose first term the parse reads and then keeps as a
# mention (`?a < 3`) or drops (`"x" < ?b`, `true || ...`), which must leave
# no term behind.
_VARS = ("?a", "?b", "$c", "?d", "?e")
_CONSTANTS = ("<http://e/k>", "p:k", "p:m", '"s"', '"t\\n"', "42", "-1.5", "true", "false", "bare", "a")
_PREDICATES = ("p:q", "<http://e/q>", "?a", "$c", "a", "bare", "true", "p:r")
_DROPPED = ("{v} < 3", "5 > {v}", '"x" < {v}', "p:k < {v}", "<http://e/z> >= {v}", "{v} = str({w})",
            "{v} != lang({w})", "true || bound({v})", "bare <= {v}", "{v} IN (1, 2)")


def _random_term(rng, pool):
    roll = rng.random()
    if roll < 0.45:
        return rng.choice(_VARS)
    if roll < 0.55:
        return rng.choice(("[ ]", "_:b1", "_:b2"))
    return rng.choice(pool)


def _random_condition(rng, depth):
    roll = rng.random()
    if depth and roll < 0.25:
        return f"({_random_condition(rng, depth - 1)} {rng.choice(('&&', '||'))} {_random_condition(rng, depth - 1)})"
    if depth and roll < 0.35:
        return f"!{_random_condition(rng, depth - 1)}"
    v, w = rng.choice(_VARS), rng.choice(_VARS)
    return rng.choice((
        f"bound({v})", f"!bound({v})", f"{v} = {w}", f"{v} != {w}", f"{v} = {rng.choice(_CONSTANTS)}",
        f"{rng.choice(_CONSTANTS)} != {v}", f'regex({v}, "a")', f"{v}", rng.choice(_DROPPED).format(v=v, w=w),
    ))


def _random_block(rng):
    parts = [_random_term(rng, _CONSTANTS)]
    for i in range(rng.randint(1, 3)):
        if i:
            parts.append(";")
        objects = [_random_term(rng, _CONSTANTS) for _ in range(rng.randint(1, 2))]
        parts += [rng.choice(_PREDICATES), " , ".join(objects)]
    return " ".join(parts) + rng.choice((" .", ""))


def _random_group(rng, depth):
    parts = [_random_block(rng)] if rng.random() < 0.85 else []  # else often empty, or OPTIONAL first
    for _ in range(rng.randint(0, 3)):
        roll = rng.random()
        if roll < 0.45 or not depth:
            parts.append(_random_block(rng))
        elif roll < 0.6:
            parts.append("OPTIONAL " + _random_group(rng, depth - 1))
        elif roll < 0.75:
            parts.append(" UNION ".join(_random_group(rng, depth - 1) for _ in range(rng.randint(1, 3))))
        elif roll < 0.95:
            parts.append(f"FILTER ({_random_condition(rng, 2)})")
        else:
            parts.append(f"FILTER EXISTS {_random_group(rng, depth - 1)}")
    return "{ " + " ".join(parts) + " }"


def _random_surface_text(rng) -> str:
    head = rng.choice(("SELECT * WHERE ", "SELECT ?a ?b WHERE ", "SELECT DISTINCT ?a $c ", "SELECT REDUCED * "))
    return "PREFIX p: <http://e/p/> " + head + _random_group(rng, rng.randint(1, 4))


def test_random_surface_texts_hand_over_the_walks_facts_or_nothing():
    rng = random.Random(29)
    handed = exists = failed = 0
    for _ in range(20_000):
        text = _random_surface_text(rng)
        before = patterns._handed_over
        try:
            pattern = parse_pattern(text)
        except (QuerySyntaxError, UnsupportedFeature):
            assert patterns._handed_over is before  # a failed parse leaves the slot as it was
            failed += 1
            continue
        if "EXISTS" in text:
            assert patterns._handed_over is None
            exists += 1
            continue
        assert patterns._handed_over.order[-1] is pattern
        _assert_handed_over_as_walked(text)
        handed += 1
    assert handed > 14_000 and exists > 1000 and failed > 2000, (handed, exists, failed)


# --- the hand-over rules --------------------------------------------------------------

_TEXT = "SELECT ?s WHERE { ?s <p> ?o OPTIONAL { ?o <q> ?r } FILTER (bound(?r) || ?o = <k>) }"


def test_the_facts_are_taken_once():
    pattern = parse_pattern(_TEXT)
    handed = patterns._handed_over
    assert handed.order[-1] is pattern
    assert pattern_facts(pattern) is handed and patterns._handed_over is None
    again = pattern_facts(pattern)  # walked
    assert again is not handed and again == handed


def test_a_pattern_decided_after_a_later_parse_is_walked_to_the_same_verdict():
    first = parse_pattern(_TEXT)
    second = parse_pattern("SELECT * WHERE { ?x <p> ?y FILTER (?y != ?x) }")
    held = patterns._handed_over
    assert held.order[-1] is second
    verdict = format_verdict_text(decide_satisfiability(first))
    assert patterns._handed_over is held  # the walk of `first` leaves the slot to `second`
    assert pattern_facts(second) is held
    assert verdict == format_verdict_text(decide_satisfiability(parse_pattern(_TEXT)))  # handed over


@pytest.mark.parametrize("text", [
    "SELECT * WHERE { ?s <p> ?o FILTER EXISTS { ?o <q> ?r } }",
    "(?s p ?o) FILTER bound(?o)",
    "(?s p ?o) FILTER EXISTS ((?o q ?r))",
])
def test_filter_exists_and_compact_queries_hand_over_nothing(text):
    parse_pattern(_TEXT)
    pattern = parse_pattern(text)
    assert patterns._handed_over is None
    assert pattern_facts(pattern) == pattern_facts(pattern)


@pytest.mark.parametrize("text", [
    "SELECT * WHERE { ?s <p> ?o FILTER (?o = ?s) OPTIONAL { ?s <q> ?r }",  # no closing brace
    "SELECT * WHERE { OPTIONAL { ?s <q> ?r } ?s <p> ?o }",  # OPTIONAL first, refused at the group's end
    "SELECT * WHERE { ?s <p> ?o } LIMIT 1",
    "(?s p ?o) AND",
])
def test_a_failed_parse_leaves_no_slot_for_its_text(text):
    earlier = parse_pattern(_TEXT)
    held = patterns._handed_over
    with pytest.raises((QuerySyntaxError, UnsupportedFeature)):
        parse_pattern(text)
    assert patterns._handed_over is held and held.order[-1] is earlier


def test_threads_racing_for_the_slot_get_their_own_patterns_facts():
    # four threads on two cores, switching often: each parses and takes the
    # facts of its own queries, and a lost or crossed hand-over may only
    # mean a walk, never the facts of another thread's pattern
    texts = generate_corpus(60, 29) + [text for _, text in LADDER[:4]]
    wrong, errors = [], []

    def work(offset):
        try:
            for text in (texts[offset:] + texts[:offset]) * 5:
                pattern = parse_pattern(text)
                facts = pattern_facts(pattern)
                if not all(map(operator.is_, facts.order, post_order(pattern))):
                    wrong.append(text)
        except Exception as exc:  # reported below; a thread's exception is otherwise lost
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(16 * i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and wrong == []
