"""Corpus ingestion and the synthetic query generator for the scaling harness."""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from .errors import QuerySyntaxError, UnknownFormat, UnsupportedFeature
from .patterns import Pattern
from .syntax import parse_pattern

FORMATS = ("delim", "lines")
DELIMITER = "####"


@dataclass(frozen=True)
class CorpusEntry:
    entry_id: int
    raw_text: str
    status: str  # "ok" | "syntax-error" | "unsupported"
    pattern: Pattern | None
    error: str | None = None


def _split_delim(text: str) -> list[str]:
    chunks: list[str] = []
    current: list[str] = []
    for line in text.splitlines():
        if line.strip() == DELIMITER:
            chunks.append("\n".join(current))
            current = []
        else:
            current.append(line)
    chunks.append("\n".join(current))
    return [c for c in chunks if c.strip()]


def _unescape_line(line: str) -> str:
    return re.sub(r"\\([n\\])", lambda m: "\n" if m.group(1) == "n" else "\\", line)


def _escape_line(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def split_corpus(text: str, fmt: str) -> list[str]:
    if fmt == "delim":
        return _split_delim(text)
    if fmt == "lines":
        return [_unescape_line(line) for line in text.splitlines() if line.strip()]
    raise UnknownFormat(f"unknown corpus format: {fmt!r}")


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
    if fmt not in FORMATS:
        raise UnknownFormat(f"unknown corpus format: {fmt!r}")
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return ingest_text(text, fmt)


def ingest_text(text: str, fmt: str = "delim") -> list[CorpusEntry]:
    """Parse the text of a corpus file, as `ingest_corpus` does."""
    return [entry_from_text(i + 1, raw) for i, raw in enumerate(split_corpus(text, fmt))]


def write_corpus(path: str, queries: list[str], fmt: str = "delim"):
    if fmt == "delim":
        body = f"\n{DELIMITER}\n".join(queries) + "\n"
    elif fmt == "lines":
        body = "\n".join(_escape_line(q) for q in queries) + "\n"
    else:
        raise UnknownFormat(f"unknown corpus format: {fmt!r}")
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
