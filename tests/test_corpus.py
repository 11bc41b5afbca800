"""Corpus splitting, ingestion, and the synthetic generator."""

import pytest

from sparqlsat.corpus import (
    generate_corpus,
    ingest_corpus,
    read_corpus,
    split_corpus,
    write_corpus,
)
from sparqlsat.errors import UnknownFormat


def test_delimiter_format_roundtrip(tmp_path):
    queries = ["SELECT * WHERE { ?x <p> ?y }", "SELECT * WHERE {\n  ?a <q> ?b .\n}"]
    path = tmp_path / "corpus.txt"
    write_corpus(str(path), queries, "delim")
    entries = ingest_corpus(str(path), "delim")
    assert [e.raw_text.strip() for e in entries] == [q.strip() for q in queries]
    assert all(e.status == "ok" for e in entries)
    assert [e.entry_id for e in entries] == [1, 2]


def test_lines_format_escapes_newlines(tmp_path):
    queries = ["SELECT * WHERE {\n ?x <p> ?y }", "SELECT * WHERE { ?a <q> \"x\\\\y\" }"]
    path = tmp_path / "corpus.lines"
    write_corpus(str(path), queries, "lines")
    assert "\\n" in path.read_text()
    entries = ingest_corpus(str(path), "lines")
    assert [e.raw_text for e in entries] == queries


def test_malformed_entries_are_recorded_not_fatal(tmp_path):
    path = tmp_path / "corpus.txt"
    write_corpus(
        str(path),
        [
            "SELECT * WHERE { ?x <p> ?y }",
            "SELECT WHERE {",
            "SELECT * WHERE { ?x <p> ?y MINUS { ?x <q> ?y } }",
        ],
        "delim",
    )
    entries = ingest_corpus(str(path))
    assert [e.status for e in entries] == ["ok", "syntax-error", "unsupported"]
    assert entries[1].pattern is None and entries[1].error


def test_unknown_format_is_rejected(tmp_path):
    with pytest.raises(UnknownFormat):
        ingest_corpus(str(tmp_path / "nope.txt"), "csv")
    with pytest.raises(UnknownFormat):
        split_corpus("", "csv")


@pytest.mark.parametrize("fmt", ["delim", "lines"])
def test_the_lazy_reader_splits_as_the_whole_text_is_split(fmt, tmp_path):
    # every line break `str.splitlines` knows, blank entries, a BOM, no final
    # newline, and enough text that lines and breaks straddle the read blocks
    body = "q1 a\r\nq1 b\n####\n \n####\r\nq2\x0bq2\x85q2\u2028q2\rq2 \\\\n\n  ####  \nq3\x1cq3\fq3\r"
    text = "\ufeff" + body * 3000 + "q4"
    path = tmp_path / "corpus.txt"
    path.write_bytes(text.encode())
    expected = split_corpus(text[1:].replace("\r\n", "\n").replace("\r", "\n"), fmt)
    assert len(expected) > 6000
    assert list(read_corpus(str(path), fmt)) == expected
    assert [entry.raw_text for entry in ingest_corpus(str(path), fmt)] == expected
    with pytest.raises(UnknownFormat):
        read_corpus(str(path), "csv")


def test_ten_thousand_query_corpus_ingests_completely(tmp_path):
    queries = generate_corpus(10_000, seed=20)
    path = tmp_path / "big.txt"
    write_corpus(str(path), queries, "delim")
    entries = ingest_corpus(str(path))
    assert len(entries) == 10_000
    assert all(e.status == "ok" for e in entries)


def test_generator_is_deterministic_and_counted():
    first = generate_corpus(250, seed=5)
    second = generate_corpus(250, seed=5)
    assert first == second
    assert len(first) == 250
    assert generate_corpus(250, seed=6) != first


def test_generator_output_parses_cleanly():
    from sparqlsat import parse_pattern

    for query in generate_corpus(300, seed=11):
        parse_pattern(query)


def test_generator_injects_errors_on_request():
    queries = generate_corpus(400, seed=3, error_rate=0.1)
    from sparqlsat.corpus import entry_from_text

    statuses = [entry_from_text(i, q).status for i, q in enumerate(queries)]
    assert statuses.count("syntax-error") > 10


def test_generator_covers_the_interesting_shapes():
    queries = generate_corpus(800, seed=1)
    assert any("OPTIONAL" in q and q.count("OPTIONAL") >= 40 for q in queries)
    assert any("UNION" in q for q in queries)
    assert any(q.split("WHERE")[1].strip().lstrip("{").strip()[0].isdigit() for q in queries)
