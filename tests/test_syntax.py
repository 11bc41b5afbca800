"""Parsing and serialization of both grammars, plus round-trip properties."""

import hashlib
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deep_nests import DEPTH, deep_nests
from randgen import random_pattern
from sparqlsat import (
    And,
    Bound,
    EqC,
    Filter,
    Iri,
    Literal,
    NegBound,
    NeqC,
    NotExpr,
    Opaque,
    Opt,
    Select,
    TriplePattern,
    Union,
    Variable,
    parse_pattern,
    serialize_pattern,
)
import tokenize_reference
from sparqlsat.corpus import generate_corpus
from sparqlsat.errors import QuerySyntaxError, UnsupportedFeature
from sparqlsat.patterns import AndExpr, OrExpr, pattern_facts, vars_of
from sparqlsat import syntax
from sparqlsat.syntax import _Parser, _kind, _scan, _tokenize
from wide_shapes import LADDER


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


def test_surface_filter_constants_resolve_prefixed_names():
    pattern = parse_pattern(
        "PREFIX dbo: <http://dbpedia.org/ontology/>\n"
        "SELECT * WHERE { ?x <p> ?y FILTER (?y = dbo:B || dbo:C != ?y) }"
    )
    assert pattern.condition == OrExpr(
        EqC(y, Iri("http://dbpedia.org/ontology/B")), NeqC(y, Iri("http://dbpedia.org/ontology/C"))
    )


def test_surface_filter_constant_with_an_unknown_prefix_is_a_syntax_error():
    for condition in ("?y = dbo:B", "dbo:B != ?y"):
        text = f"SELECT * WHERE {{ ?x <p> ?y FILTER ({condition}) }}"
        with pytest.raises(QuerySyntaxError, match="unknown prefix 'dbo:'") as info:
            parse_pattern(text)
        assert info.value.position == text.index("dbo:B")


def test_surface_true_and_false_read_alike_in_triples_and_filters():
    pattern = parse_pattern("SELECT * WHERE { ?x <p> true ; <q> false FILTER(?y = true || false != ?y) }")
    (left, right), condition = (pattern.pattern.left, pattern.pattern.right), pattern.condition
    assert (left.object, right.object) == (Literal("true"), Literal("false"))
    assert condition == OrExpr(EqC(y, Literal("true")), NeqC(y, Literal("false")))
    assert condition.left.constant is left.object and condition.right.constant is right.object


def test_compact_true_is_the_iri_it_spells():
    pattern = parse_pattern("(?x p true) FILTER ?y = true")
    assert pattern == Filter(tp(x, Iri("p"), Iri("true")), EqC(y, Iri("true")))


@pytest.mark.parametrize("name", list(deep_nests(DEPTH)))
def test_deep_nesting_parses_and_round_trips(name):
    # the parsers keep their own stacks; texts are compared, not ASTs,
    # because node equality recurses
    assert sys.getrecursionlimit() == 1000
    once = serialize_pattern(parse_pattern(deep_nests(DEPTH)[name]))
    assert serialize_pattern(parse_pattern(once)) == once


@pytest.mark.parametrize(
    "negations, expected",
    [
        ("!", NegBound(y)),
        ("!!", NotExpr(NegBound(y))),
        ("!!!", NotExpr(NotExpr(NegBound(y)))),
        ("!(!", NotExpr(NegBound(y))),
    ],
)
def test_negations_apply_from_the_inside_out(negations, expected):
    closing = ")" * negations.count("(")
    assert parse_pattern(f"(?x p ?y) FILTER {negations}bound(?y){closing}").condition == expected
    assert parse_pattern(f"SELECT * WHERE {{ ?x <p> ?y FILTER({negations}bound(?y){closing}) }}").condition == expected


def test_a_deep_negation_chain_parses_without_recursion():
    condition = parse_pattern("(?x p ?y) FILTER " + "!" * 5000 + "bound(?y)").condition
    depth = 0
    while isinstance(condition, NotExpr):
        condition, depth = condition.operand, depth + 1
    assert (depth, condition) == (4999, NegBound(y))


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


def test_leading_optional_is_reported_at_its_keyword():
    text = "SELECT * WHERE { ?x <p> ?y . { OPTIONAL { ?x <q> ?z } } }"
    with pytest.raises(UnsupportedFeature, match="OPTIONAL without a preceding pattern") as info:
        parse_pattern(text)
    assert info.value.position == text.index("OPTIONAL")


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


def test_roundtrip_of_literals_with_control_characters_and_backslashes():
    # a NUL, a carriage return and a backslash before `n` each read back as
    # themselves; the serializer escapes only backslash, quote, newline, tab
    rng = random.Random(47)
    pieces = ["\x00", "\r", "\\n", "\\", '"', "\n", "\t", "\b", "\f", "'", "a", " "]
    lexicals = ["a\x00b", "a\rb", "a\\nb", "\\", "\x00\\\x00"]
    lexicals += ["".join(rng.choice(pieces) for _ in range(rng.randint(1, 8))) for _ in range(300)]
    for lexical in lexicals:
        pattern = Filter(tp(x, Iri("p"), Literal(lexical)), NeqC(y, Literal(lexical)))
        assert parse_pattern(serialize_pattern(pattern)) == pattern, repr(lexical)


def test_string_escapes_are_read_in_one_pass():
    # SPARQL's escapes, each read left to right, so `\\n` is a backslash
    # and an `n`; any other backslash stays
    for body, lexical in (
        (r"a\tb\bc\nd\re\ff", "a\tb\bc\nd\re\ff"),
        (r"\"\'\\", "\"'\\"),
        (r"a\\nb", "a\\nb"),
        (r"a\\\nb", "a\\\nb"),
        (r"\u0041\x", r"\u0041\x"),
    ):
        assert parse_pattern(f'(?x p "{body}")') == tp(x, Iri("p"), Literal(lexical)), body


def test_roundtrip_preserves_every_variable():
    rng = random.Random(7)
    for _ in range(50):
        pattern = random_pattern(rng, depth=3)
        assert vars_of(parse_pattern(serialize_pattern(pattern))) == vars_of(pattern)


def test_a_stray_character_after_a_query_is_trailing():
    with pytest.raises(QuerySyntaxError, match=r"^trailing '§' at offset 29$"):
        parse_pattern("SELECT * WHERE { ?x <p> ?y } §")
    with pytest.raises(QuerySyntaxError, match=r"^trailing '§' at offset 10$"):
        parse_pattern("(?x p ?y) §")


# --- tokens ---------------------------------------------------------------------------

#: Pieces random token texts are glued from: pnames and `^^` datatypes with
#: trailing dots, comments, escapes, and the two-character operators.
_TOKEN_PIECES = (
    "p:a", "p:a..b.", ":", "xsd:", ".", "..", "...", '"1"^^xsd:int.', '"x"^^', "^^", "^", "@en", "@",
    '"', "\\", '\\"', "\\n", "#", "# c\n", "\n", " ", "\t", "&&", "&", "||", "|", "!=", "!", "<=",
    ">=", "<", ">", "<a>", "=", "?", "?x", "$", "_:b", "_", "-", "+", "9", "1.5", "e3", "a", "(", ")",
    "{", "}", "[", "]", ",", ";", "*", "/", "§", "é",
)


#: Texts that end in whitespace or a comment, or hold no token.
_END_TEXTS = ["", "  \n", "# only a comment", "(?x p ?y) # trailing", "p:a."]


def _reference_texts(ladder):
    """The seed-777 corpus, the `ladder` shapes, and 50,000 texts glued
    from `_TOKEN_PIECES`."""
    rng = random.Random(11)
    random_texts = [
        "".join(rng.choice(_TOKEN_PIECES) for _ in range(rng.randint(1, 12))) for _ in range(50_000)
    ]
    return generate_corpus(2000, 777), [text for _, text in ladder], random_texts


def test_tokenizer_matches_the_reference(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    from workloads import LADDER

    for texts in _reference_texts(LADDER):
        mismatched = [text for text in texts if _tokenize(text) != tokenize_reference.tokenize(text)]
        assert mismatched == []


def test_the_scan_kinds_and_offsets_match_the_reference():
    # the parser's own view: the scanned strings, the kind read from each
    # one's first character, and the offsets it finds on demand
    for texts in (*_reference_texts(LADDER), _END_TEXTS):
        for text in texts:
            expected = tokenize_reference.tokenize(text)
            tokens = _scan(text)
            assert tokens == [value for _, value, _, _ in expected], text
            assert [_kind(token) for token in tokens] == [kind for kind, _, _, _ in expected], text
            parser = _Parser(text, tokens)
            offsets = [(parser.offset(i), parser.offset(i) + len(token)) for i, token in enumerate(tokens)]
            assert offsets == [(start, end) for _, _, start, end in expected], text


#: Pieces for the scan's fuzz: tokens whose first character starts two
#: alternatives, names that a backtracking branch could cut, `#` in an IRI
#: and in a comment, and whitespace to end a text in.
_SCAN_PIECES = (
    "_:a-b", "_a:b", "_:", "_", ":x.", ":", "p:", "p:a.b", "a", "ab-c", "<=", "<= ?x>", "<a#b>", "<", ">",
    "+1", "+", "-", "-2.5e3", "1", "\u0663", "?", "$", "?x", "$y", '"a"^^p:t.', '"a"@en-GB', '"', "\\",
    "#", "# c\n", "\n", " ", "\t", ".", "&&", "||", "!=", ">=", "!", "(", ")", "{", "}", "é", "§",
)


def test_the_scan_reads_as_its_backtracking_reference():
    # the reordered alternatives give the same tokens, all that `findall`
    # returns, at the same offsets
    rng = random.Random(41)
    fuzz = ["".join(rng.choice(_SCAN_PIECES) for _ in range(rng.randint(1, 8))) for _ in range(20_000)]
    for texts in (*_reference_texts(LADDER), _END_TEXTS, fuzz):
        for text in texts:
            spans = [(m.group(1), m.span(1)) for m in syntax._SCAN_RE.finditer(text)]
            assert spans == [(m.group(1), m.span(1)) for m in tokenize_reference.SCAN_RE.finditer(text)], text


@pytest.mark.parametrize(
    "token, kind",
    [
        ("", "eof"), ("<", "op"), ("<=", "op"), ("<>", "iriref"), ("<=>", "iriref"), ("<a>", "iriref"),
        ('"', "op"), ('""', "string"), ('"a"@en', "string"), ("?", "op"), ("?x", "var"), ("$", "op"),
        ("$x", "var"), ("_", "name"), ("_:", "name"), ("_:b", "blank"), ("_a:b", "name"), ("_a", "name"),
        ("+", "op"), ("-", "op"), ("+1", "number"), ("-1.5", "number"), ("7", "number"),
        ("\u0663", "number"), ("a", "name"), ("p:a", "name"), (":", "name"), (":a", "name"),
        ("&&", "op"), ("!=", "op"), (">=", "op"), ("!", "op"), (".", "op"), ("§", "op"), ("é", "op"),
    ],
)
def test_a_token_kind_is_read_from_its_first_character(token, kind):
    assert tokenize_reference.tokenize(token)[0][:2] == (kind, token)
    assert _kind(token) == kind


def test_offsets_are_found_only_for_errors_and_opaque_conditions(monkeypatch):
    # no ladder shape needs an offset but the OPTIONAL nests, whose filters
    # call builtins; a corpus query needs them once, for its first opaque
    # condition of more than one token, and keeps them for the others
    walks = []

    def counted(text, tokens):
        walks.append(text)
        return starts(text, tokens)

    starts = syntax._starts
    monkeypatch.setattr(syntax, "_starts", counted)
    for name, text in LADDER:
        parse_pattern(text)
        assert len(walks) == name.startswith("optional-nest"), name
        walks.clear()
    needing = []
    for text in generate_corpus(2000, 777):
        pattern = parse_pattern(text)
        todo = list(pattern_facts(pattern).conditions)
        while todo:
            condition = todo.pop()
            todo += [getattr(condition, name) for name in ("left", "right", "operand") if hasattr(condition, name)]
            if isinstance(condition, Opaque) and len(_scan(condition.text)) > 2:
                needing.append(text)
                break
    assert len(needing) == 333
    assert walks == needing
    walks.clear()
    with pytest.raises(QuerySyntaxError):
        parse_pattern("SELECT * WHERE { ?x <p> ?y . ?x }")
    assert len(walks) == 1


#: Texts where a token's text occurs before the token: in a comment, an
#: IRI or a string, some of them with no `#`; and strings with inner spaces.
_EARLIER_TEXTS = [
    "# ?x\n?x", "#?x ?x\n?x ?x", "<p#x> ?x", "<p#?x> ?x #?x", '"?x" ?x', '"?x"?x', "<?x> ?x", '"#" #\n"#"',
    '"a b" "a b"', '"a  b"  "a"  "b"', '(?s p "x y z") AND (?s p "x")', '"a\\" b" "a"',
    'SELECT * WHERE { ?s <p> "?s <p>" . ?s <p> ?o FILTER (regex(?o, "?o  a")) }',
    'SELECT * WHERE { ?s <p#x> ?o . # FILTER (regex(?o, "b"))\nFILTER (regex(?o,   "a")) }',
]


def _commented(text: str, rng: random.Random) -> str:
    """`text` with a `#` in a PREFIX IRI before it, and comments that copy
    a later token's text inserted before some of its tokens."""
    tokens = _scan(text)[:-1]
    pieces, pos = ["PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"], 0
    for index, token in enumerate(tokens):
        start = text.find(token, pos)
        if rng.random() < 0.2:
            pieces.append(f"{text[pos:start]} #{rng.choice(tokens[index:])}\n")
            pos = start
        pieces.append(text[pos:start + len(token)])
        pos = start + len(token)
    return "".join(pieces) + text[pos:]


def test_the_offsets_walk_matches_finditer():
    # each token is found from the end of the one before, and where a
    # comment lies between two tokens, matched there; either way the starts
    # are those of the scan's matches
    rng = random.Random(26)
    texts = [*generate_corpus(2000, 777), *generate_corpus(2000, 7, error_rate=0.2)]
    texts += [text for _, text in LADDER] + _EARLIER_TEXTS
    texts += [_commented(text, rng) for text in texts[::4]]
    assert sum(" #" in text for text in texts) > 900
    for text in texts:
        tokens = _scan(text)
        reference = [match.start(1) for match in syntax._SCAN_RE.finditer(text)][:len(tokens)]
        assert syntax._starts(text, tokens) == reference, text


def test_an_opaque_condition_keeps_its_source_text_past_a_commented_copy():
    pattern = parse_pattern(_EARLIER_TEXTS[-1])
    assert pattern.condition == Opaque('regex(?o,   "a")', frozenset((Variable("o"),)))


#: Queries whose first new term is wrong, in each position, with the
#: error's class, text and offset.
_NEW_TERM_OUTCOMES = [
    ('SELECT * WHERE { ?_g1 <p> ?o }', 'QuerySyntaxError', "variable name '?_g1' uses the reserved fresh-name prefix at offset 17", 17),
    ('SELECT * WHERE { ?s ?_g1 ?o }', 'QuerySyntaxError', "variable name '?_g1' uses the reserved fresh-name prefix at offset 20", 20),
    ('SELECT * WHERE { ?s <p> ?_g1 }', 'QuerySyntaxError', "variable name '?_g1' uses the reserved fresh-name prefix at offset 24", 24),
    ('SELECT * WHERE { q:x <p> ?o }', 'QuerySyntaxError', "unknown prefix 'q:' at offset 17", 17),
    ('SELECT * WHERE { ?s q:x ?o }', 'QuerySyntaxError', "unknown prefix 'q:' at offset 20", 20),
    ('SELECT * WHERE { ?s <p> q:x }', 'QuerySyntaxError', "unknown prefix 'q:' at offset 24", 24),
    ('SELECT * WHERE { ?s _a:b ?o }', 'QuerySyntaxError', "unknown prefix '_a:' at offset 20", 20),
    ('SELECT * WHERE { ?s <p> ?o FILTER (?o = q:y) }', 'QuerySyntaxError', "unknown prefix 'q:' at offset 40", 40),
    ('SELECT ?_g1 WHERE { ?s <p> ?o }', 'QuerySyntaxError', "variable name '?_g1' uses the reserved fresh-name prefix at offset 7", 7),
    ('SELECT * WHERE { ?s <p> ?o FILTER (regex(?_g3, "a")) }', 'QuerySyntaxError', "variable name '?_g3' uses the reserved fresh-name prefix at offset 41", 41),
    ('(a true ?_g1)', 'QuerySyntaxError', "variable name '?_g1' uses the reserved fresh-name prefix at offset 8", 8),
    ('SELECT * WHERE { ?s ? ?o }', 'QuerySyntaxError', "found '?' at offset 20 (expected a predicate)", 20),
    ('SELECT * WHERE { ?s [ ] ?o }', 'QuerySyntaxError', "found '[' at offset 20 (expected a predicate)", 20),
    ('SELECT * WHERE { ?s _:b ?o }', 'QuerySyntaxError', "found '_:b' at offset 20 (expected a predicate)", 20),
    ('SELECT * WHERE { ?s "x" ?o }', 'QuerySyntaxError', 'found \'"x"\' at offset 20 (expected a predicate)', 20),
    ('SELECT * WHERE { ?s <p> }', 'QuerySyntaxError', "found '}' at offset 24 (expected a term)", 24),
]

_s, _o, _p = Variable("s"), Variable("o"), Iri("p")

#: Terms the new-term reader builds, with the pattern each query parses to.
_NEW_TERM_PATTERNS = [
    ("SELECT * WHERE { foo <p> ?o }", tp(Iri("foo"), _p, _o)),
    ("SELECT * WHERE { ?s foo ?o }", tp(_s, Iri("foo"), _o)),
    ("SELECT * WHERE { ?s <p> foo }", tp(_s, _p, Iri("foo"))),
    ("SELECT * WHERE { ?s <p> true }", tp(_s, _p, Literal("true"))),
    ("SELECT * WHERE { ?s <p> false }", tp(_s, _p, Literal("false"))),
    ("SELECT * WHERE { ?s <p> a }", tp(_s, _p, Iri("a"))),
    ("SELECT * WHERE { ?s <p> [ ] }", tp(_s, _p, Variable("_g1"))),
    ("SELECT * WHERE { ?s <p> _:b }", tp(_s, _p, Variable("_g1"))),
    ("SELECT * WHERE { a a a }", tp(Iri("a"), syntax.RDF_TYPE, Iri("a"))),
    ("SELECT * WHERE { ?s true ?o . ?s ?p true }", And(tp(_s, Iri("true"), _o), tp(_s, Variable("p"), Literal("true")))),
    ("(?s p:x true)", tp(_s, Iri("p:x"), Iri("true"))),
    ("PREFIX _a: <http://u/> SELECT * WHERE { ?s _a:b ?o }", tp(_s, Iri("http://u/b"), _o)),
    ("SELECT * WHERE { ?s <p> ?o FILTER (?o = true) }", Filter(tp(_s, _p, _o), EqC(_o, Literal("true")))),
]


@pytest.mark.parametrize("text, error, message, offset", _NEW_TERM_OUTCOMES)
def test_a_new_term_raises_with_its_message_and_offset(text, error, message, offset):
    with pytest.raises((QuerySyntaxError, UnsupportedFeature)) as caught:
        parse_pattern(text)
    assert (type(caught.value).__name__, str(caught.value), caught.value.position) == (error, message, offset)


@pytest.mark.parametrize("text, expected", _NEW_TERM_PATTERNS)
def test_a_new_term_reads_by_its_position(text, expected):
    assert parse_pattern(text) == expected


def test_edited_queries_parse_or_raise_a_syntax_error():
    # the parser looks ahead without bounds checks; no edit may make it read
    # past the end marker
    rng = random.Random(12)
    queries = [serialize_pattern(random_pattern(rng, depth=rng.randint(0, 4))) for _ in range(500)]
    queries += generate_corpus(500, 12)
    words = ("(", ")", "{", "}", ".", "?x", "p:a", '"s"', "bound", "FILTER", "SELECT", "=", "!=", "regex(", "")
    for _ in range(10_000):
        parts = rng.choice(queries).split(" ")
        for _ in range(rng.randint(1, 3)):
            parts[rng.randrange(len(parts))] = rng.choice(words)
        try:
            parse_pattern(" ".join(parts))
        except (QuerySyntaxError, UnsupportedFeature):
            pass


@pytest.mark.parametrize("text", _END_TEXTS)
def test_tokenize_ends_in_exactly_one_end_marker(text):
    tokens = _tokenize(text)
    assert tokens[-1] == ("eof", "", len(text), len(text))
    assert [kind for kind, _, _, _ in tokens].count("eof") == 1


def test_the_seed_777_corpus_has_the_pinned_token_count():
    # the benchmark's `syntax.tokens_per_op` is `len(_tokenize(text)) - 1`
    assert sum(len(_tokenize(text)) - 1 for text in generate_corpus(2000, 777)) == 113_812


# --- pinned parse outcomes ----------------------------------------------------------

#: sha256 of every outcome `_parse_outcomes` lists, pinned so that a change to
#: the tokenizer or the parser cannot move a parse result or an error text.
PARSE_OUTCOMES_DIGEST = "fbf696926303400e3ffb0b11ddcad25928c705a95f5ef07cd5e5dad69c46bec1"

_EDIT_ALPHABET = ' \n\t.#"^\\:?$_<>(){}[],;!=&|*+-@§abzAZ019'


def _parse_outcomes():
    """One line per input: its compact serialization, or its error's class,
    text and offset.

    The inputs are the seed-777 corpus, a seed-7 corpus with malformed
    entries, and seeded one-character deletions and insertions of
    seed-777 queries, which reach error offsets across the whole text.
    """
    corpus = generate_corpus(2000, 777)
    texts = corpus + generate_corpus(2000, 7, error_rate=0.2)
    rng = random.Random(8)
    for _ in range(5000):
        text = rng.choice(corpus)
        at = rng.randrange(len(text))
        if rng.random() < 0.5:
            texts.append(text[:at] + text[at + 1:])
        else:
            texts.append(text[:at] + rng.choice(_EDIT_ALPHABET) + text[at:])
    for text in texts:
        try:
            yield serialize_pattern(parse_pattern(text))
        except (QuerySyntaxError, UnsupportedFeature) as exc:  # the class, text and offset are the outcome
            yield f"{type(exc).__name__}: {exc} @ {exc.position}"


def test_parse_outcomes_match_the_pinned_digest():
    digest = hashlib.sha256()
    for outcome in _parse_outcomes():
        digest.update(outcome.encode() + b"\0")
    assert digest.hexdigest() == PARSE_OUTCOMES_DIGEST
