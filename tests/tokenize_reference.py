"""The `match`-loop tokenizer, kept as written before the one-pass
`finditer` scan replaced it, as the reference the differential tests
compare against; and `SCAN_RE`, the scan's pattern as it was first
written, before its alternatives were reordered.

It strips a pname's trailing dots after matching them; the scan in
`sparqlsat.syntax` never matches them.  Tokens are returned as
`(kind, value, start, end)` tuples, the form the scan yields.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from sparqlsat.errors import QuerySyntaxError

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+|\#[^\n]*)
    | (?P<iriref><[^<>\s]*>)
    | (?P<string>"(?:[^"\\\n]|\\.)*"(?:@[A-Za-z]+(?:-[A-Za-z0-9]+)*|\^\^(?:<[^<>\s]*>|[A-Za-z0-9_:.-]+))?)
    | (?P<blank>_:[A-Za-z0-9_]+)
    | (?P<var>[?$][A-Za-z0-9_]+)
    | (?P<number>[+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
    | (?P<name>(?:[A-Za-z_][A-Za-z0-9_-]*)?:(?:[A-Za-z0-9_][A-Za-z0-9_.-]*)?|[A-Za-z_][A-Za-z0-9_-]*)
    | (?P<op>&&|\|\||!=|<=|>=|\S)
    """,
    re.VERBOSE,
)

#: The scan's pattern with the IRI, string, blank node, variable and number
#: first, and a name in two forms: a bare word fails the pname form, giving
#: its characters back one by one, before the second form reads it.
SCAN_RE = re.compile(
    r"""
    \s*(?:\#[^\n]*\s*)*
    (
      <[^<>\s]*>
    | "(?:[^"\\\n]|\\.)*"(?:@[A-Za-z]+(?:-[A-Za-z0-9]+)*|\^\^(?:<[^<>\s]*>|[A-Za-z0-9_:.-]*[A-Za-z0-9_:-]|(?=\.)))?
    | _:[A-Za-z0-9_]+
    | [?$][A-Za-z0-9_]+
    | [+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?
    | (?:[A-Za-z_][A-Za-z0-9_-]*)?:(?:[A-Za-z0-9_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?)?|[A-Za-z_][A-Za-z0-9_-]*
    | &&|\|\||!=|<=|>=|\S
    | \Z
    )
    """,
    re.VERBOSE,
)


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str
    value: str
    start: int
    end: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise QuerySyntaxError(f"cannot read {text[pos]!r}", pos)
        kind = match.lastgroup
        value = match.group()
        end = match.end()
        if kind in ("name", "string"):
            while value.endswith("."):  # pname locals must not end with a dot
                value = value[:-1]
                end -= 1
        if kind != "ws":
            tokens.append(_Token(kind, value, pos, end))
        pos = end
    tokens.append(_Token("eof", "", len(text), len(text)))
    return tokens


def tokenize(text: str) -> list[tuple]:
    return [(t.kind, t.value, t.start, t.end) for t in _tokenize(text)]
