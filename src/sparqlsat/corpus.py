"""Corpus ingestion and the synthetic query generator for the scaling harness."""

from __future__ import annotations

import itertools
import random
import re
from typing import Iterable, Iterator

from .errors import QuerySyntaxError, UnknownFormat, UnsupportedFeature
from .patterns import Pattern
from .record import Record, _setattr
from .syntax import parse_pattern

FORMATS = ("delim", "lines")
DELIMITER = "####"


class CorpusEntry(Record):
    #: `status` is "ok", "syntax-error" or "unsupported"; `pattern` is the
    #: parsed pattern of an "ok" entry, else None, and `error` the message
    #: of one that is not
    __slots__ = ("entry_id", "raw_text", "status", "pattern", "error")

    def __init__(self, entry_id: int, raw_text: str, status: str, pattern: Pattern | None, error: str | None = None):
        _setattr(self, "entry_id", entry_id)
        _setattr(self, "raw_text", raw_text)
        _setattr(self, "status", status)
        _setattr(self, "pattern", pattern)
        _setattr(self, "error", error)


def _entry_texts(lines: Iterable[str], fmt: str) -> Iterator[str]:
    """The raw entry texts of a corpus in format `fmt`, given its lines."""
    if fmt == "lines":
        for line in lines:
            if line.strip():
                yield _unescape_line(line)
        return
    current: list[str] = []
    for line in itertools.chain(lines, (DELIMITER,)):
        if line.strip() == DELIMITER:
            chunk = "\n".join(current)
            if chunk.strip():
                yield chunk
            current = []
        else:
            current.append(line)


def _unescape_line(line: str) -> str:
    return re.sub(r"\\([n\\])", lambda m: "\n" if m.group(1) == "n" else "\\", line)


def _escape_line(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _check_format(fmt: str) -> None:
    if fmt not in FORMATS:
        raise UnknownFormat(f"unknown corpus format: {fmt!r}")


def split_corpus(text: str, fmt: str) -> list[str]:
    r"""The raw entry texts of a corpus text in format `fmt`.  Its lines end
    at "\n", "\r\n" or "\r", as a file's lines end when Python reads it
    with universal newlines; the other line breaks of `str.splitlines` are
    text, so a query keeps them."""
    _check_format(fmt)
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not lines[-1]:  # the end of the last line, or of an empty text
        lines.pop()
    return list(_entry_texts(lines, fmt))


def entry_from_text(entry_id: int, raw: str) -> CorpusEntry:
    try:
        pattern = parse_pattern(raw)
    except UnsupportedFeature as exc:
        return CorpusEntry(entry_id, raw, "unsupported", None, str(exc))
    except QuerySyntaxError as exc:
        return CorpusEntry(entry_id, raw, "syntax-error", None, str(exc))
    return CorpusEntry(entry_id, raw, "ok", pattern)


def ingest_corpus(path: str, fmt: str = "delim") -> list[CorpusEntry]:
    """Read and parse a corpus file; bad entries are recorded, never fatal."""
    _check_format(fmt)
    with open(path, "rb") as handle:  # one decode of the bytes; `split_corpus` folds the line ends
        data = handle.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError:  # named as `read_text` names it
        raise _not_utf8(path) from None
    return [entry_from_text(i + 1, raw) for i, raw in enumerate(split_corpus(text, fmt))]


def read_text(path: str) -> str:
    """The text of the UTF-8 file at `path`, without a leading byte-order
    mark.  A file that is not UTF-8 raises an OSError, as an unreadable
    file does, naming the file, the line and the value of the first byte
    that does not decode."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return handle.read()
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def read_corpus(path: str, fmt: str = "delim") -> Iterator[str]:
    """The raw entry texts of the corpus file at `path`, read and split one
    at a time, as `ingest_corpus` splits them.  Reading fails as
    `read_text` does."""
    _check_format(fmt)
    return _entry_texts(_file_lines(path), fmt)


def _file_lines(path: str) -> Iterator[str]:
    """The lines of the UTF-8 file at `path`, read one at a time and split
    as `split_corpus` splits its whole text."""
    with open(path, encoding="utf-8-sig") as handle:
        try:
            for line in handle:
                yield line.removesuffix("\n")
        except UnicodeDecodeError:
            raise _not_utf8(path) from None


def _not_utf8(path: str) -> OSError:
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:  # its offset counts from the start of `data`
        line = data.count(b"\n", 0, exc.start) + 1
        return OSError(f"{path}: not UTF-8 (line {line}, byte 0x{data[exc.start]:02X})")
    return OSError(f"{path}: not UTF-8")  # the file changed while it was read


def write_corpus(path: str, queries: list[str], fmt: str = "delim"):
    r"""Write `queries` to a corpus file in format `fmt`.  A query the file
    would not give back as written raises ValueError, before the file is
    opened: one holding "\r", which reading takes for a line end; a blank
    one, which reading skips; and in `delim` format, one holding a
    delimiter line."""
    _check_format(fmt)
    for index, query in enumerate(queries):
        if "\r" in query:
            raise ValueError(f"query {index} holds the line break '\\r', which a corpus file reads as '\\n'")
        if not query or query.isspace():
            raise ValueError(f"query {index} is blank, and reading a corpus file skips blank entries")
        if fmt == "delim" and DELIMITER in query and any(line.strip() == DELIMITER for line in query.split("\n")):
            raise ValueError(f"query {index} holds a {DELIMITER} line, which ends an entry")
    if fmt == "delim":
        body = f"\n{DELIMITER}\n".join(queries) + "\n"
    else:
        body = "\n".join(_escape_line(q) for q in queries) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(body)


# --- synthetic corpus -------------------------------------------------------------

_VOCAB = (
    "abstract", "affiliation", "campus", "chairman", "city", "country", "dean",
    "endowment", "facultySize", "formerName", "head", "mascot", "motto",
    "president", "principal", "province", "rector", "sport", "state", "acronym",
    "address", "established", "logo", "website", "location", "lat", "long",
)
_RESOURCES = ("Brazil", "Chile", "Argentina", "Peru", "Uruguay", "Ecuador", "Bolivia")
_CLASSES = ("University", "EducationalInstitution", "City", "Person", "Company")


def generate_query(rng: random.Random) -> str:
    """One synthetic query in the shapes batch analysis meets in the wild."""
    roll = rng.random()
    if roll < 0.58:
        return _basic_query(rng)
    if roll < 0.83:
        return _optional_nest_query(rng)
    if roll < 0.93:
        return _union_query(rng)
    if roll < 0.97:
        return _filter_heavy_query(rng)
    return _wrong_literal_query(rng)


def _prefix() -> str:
    return "PREFIX dbo: <http://dbpedia.org/ontology/>\nPREFIX res: <http://dbpedia.org/resource/>\n"


def _basic_query(rng: random.Random) -> str:
    lines = [f"?s a dbo:{rng.choice(_CLASSES)} ."]
    for prop in rng.sample(_VOCAB, rng.randint(1, 4)):
        if rng.random() < 0.3:
            lines.append(f"?s dbo:{prop} res:{rng.choice(_RESOURCES)} .")
        else:
            lines.append(f"?s dbo:{prop} ?{prop} .")
    if rng.random() < 0.25:
        var = _last_var(lines) or "s"
        lines.append(f'FILTER (?{var} != res:{rng.choice(_RESOURCES)})')
    body = "\n  ".join(lines)
    return f"{_prefix()}SELECT DISTINCT * WHERE {{\n  {body}\n}}"


def _optional_nest_query(rng: random.Random) -> str:
    # mostly modest nests, occasionally the full 50-arm monster
    arms = 3 + int(47 * rng.random() ** 3)
    props = [rng.choice(_VOCAB) + str(i) for i in range(arms)]
    lines = [f"?s a dbo:{rng.choice(_CLASSES)} .", f"?s dbo:country res:{rng.choice(_RESOURCES)} ."]
    for prop in props:
        lines.append(f"OPTIONAL {{?s dbo:{prop} ?v_{prop} .}}")
    filtered = rng.sample(props, min(len(props), rng.randint(0, 2)))
    for prop in filtered:
        lines.append(f'FILTER ( langMatches(lang(?v_{prop}), "es") || langMatches(lang(?v_{prop}), "en") )')
    body = "\n  ".join(lines)
    return f"{_prefix()}SELECT DISTINCT * WHERE {{\n  {body}\n}}"


def _union_query(rng: random.Random) -> str:
    left = f"?s dbo:{rng.choice(_VOCAB)} ?value ."
    right = f"?s dbo:{rng.choice(_VOCAB)} ?value ."
    tail = f"?s a dbo:{rng.choice(_CLASSES)} ."
    return (
        f"{_prefix()}SELECT ?s ?value WHERE {{\n"
        f"  {{ {left} }} UNION {{ {right} }}\n  {tail}\n}}"
    )


def _filter_heavy_query(rng: random.Random) -> str:
    prop_a, prop_b = rng.sample(_VOCAB, 2)
    lines = [
        f"?s dbo:{prop_a} ?a .",
        f"OPTIONAL {{?s dbo:{prop_b} ?b .}}",
    ]
    kind = rng.random()
    if kind < 0.4:
        lines.append("FILTER (bound(?b) && ?a != ?b)")
    elif kind < 0.7:
        lines.append(f'FILTER (?a != res:{rng.choice(_RESOURCES)})')
    else:
        lines.append("FILTER (bound(?b))")
    body = "\n  ".join(lines)
    return f"{_prefix()}SELECT DISTINCT * WHERE {{\n  {body}\n}}"


def _wrong_literal_query(rng: random.Random) -> str:
    number = rng.randint(1, 99)
    return (
        f"{_prefix()}SELECT DISTINCT * WHERE {{ {number} dbo:wikiPageRedirects ?redirect . }}"
    )


def _last_var(lines: list[str]) -> str | None:
    for line in reversed(lines):
        if "?s dbo:" in line and line.rstrip(" .").split("?")[-1:]:
            parts = line.rstrip(" .").split("?")
            if len(parts) > 2:
                return parts[-1].strip()
    return None


def generate_corpus(count: int, seed: int, error_rate: float = 0.0) -> list[str]:
    """Deterministic synthetic corpus of the given size."""
    rng = random.Random(seed)
    queries = []
    for _ in range(count):
        if error_rate and rng.random() < error_rate:
            queries.append("SELECT WHERE { ?s ?p")  # deliberately malformed
        else:
            queries.append(generate_query(rng))
    return queries
