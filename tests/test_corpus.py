"""Corpus splitting, ingestion, and the synthetic generator."""

import pytest

from sparqlsat.corpus import (
    generate_corpus,
    ingest_corpus,
    read_corpus,
    read_text,
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


def test_every_reader_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_bytes(b"SELECT * WHERE { ?x <p> ?y }\n####\nSELECT * WHERE { ?x <p> \"caf\xe9\" }\n")
    for read in (ingest_corpus, lambda name: list(read_corpus(name)), read_text):
        with pytest.raises(OSError) as raised:
            read(str(path))
        assert str(raised.value) == f"{path}: not UTF-8 (line 3, byte 0xE9)"


#: Every line break of `str.splitlines` but "\n", and "\r\n".
LINE_BREAKS = ["\x0b", "\x0c", "\r", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r\n"]


def test_the_line_breaks_are_every_break_of_splitlines():
    breaks = [chr(code) for code in range(0x110000) if len(f"a{chr(code)}b".splitlines()) == 2]
    assert breaks == ["\n"] + LINE_BREAKS[:-1]


@pytest.mark.parametrize("fmt", ["delim", "lines"])
@pytest.mark.parametrize("line_break", LINE_BREAKS)
def test_a_written_query_reads_back_as_written_or_is_refused(line_break, fmt, tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("kept\n")
    queries = ["SELECT * WHERE { ?x <p> ?y }", f'SELECT * WHERE {{ ?x <p> "a{line_break}b" }}']
    if "\r" not in line_break:
        write_corpus(str(path), queries, fmt)
        assert [entry.raw_text for entry in ingest_corpus(str(path), fmt)] == queries
        assert list(read_corpus(str(path), fmt)) == queries
        return
    # reading a file reads "\r\n" and "\r" as "\n"
    with pytest.raises(ValueError) as raised:
        write_corpus(str(path), queries, fmt)
    assert str(raised.value) == "query 1 holds the line break '\\r', which a corpus file reads as '\\n'"
    assert path.read_bytes() == b"kept\n"


@pytest.mark.parametrize("fmt", ["delim", "lines"])
@pytest.mark.parametrize(
    "query, reason",
    [("", "is blank"), (" \n\t", "is blank"), ("SELECT * WHERE {\n  ####  \n?x <p> ?y }", "holds a #### line")],
    ids=["empty", "whitespace", "delimiter-line"],
)
def test_a_query_a_corpus_file_would_lose_is_refused_before_writing(query, reason, fmt, tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("kept\n")
    queries = ["SELECT * WHERE { ?x <p> ?y }", query]
    if fmt == "lines" and "####" in query:  # one escaped line keeps it
        write_corpus(str(path), queries, fmt)
        assert list(read_corpus(str(path), fmt)) == queries
        return
    with pytest.raises(ValueError) as raised:
        write_corpus(str(path), queries, fmt)
    assert str(raised.value).startswith(f"query 1 {reason}")
    assert path.read_bytes() == b"kept\n"


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
