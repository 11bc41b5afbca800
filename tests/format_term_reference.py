"""The fixture-syntax term formatter, kept as written before each term
carried its text, as the reference the tests compare those texts against.
Its escape table is a copy too, so a change to the package's escapes shows
as a mismatch here.
"""

from __future__ import annotations

from sparqlsat.terms import Iri, Literal, Term

LITERAL_ESCAPES = {
    "\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r",
    **{c: f"\\u{ord(c):04X}" for c in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"},
}
_ESCAPE_TABLE = str.maketrans(LITERAL_ESCAPES)


def format_term(term: Term) -> str:
    """Render a term in the graph fixture syntax (IRIs angle-bracketed)."""
    if isinstance(term, Iri):
        return f"<{term.name}>"
    if isinstance(term, Literal):
        return f'"{term.lexical.translate(_ESCAPE_TABLE)}"'
    return str(term)
