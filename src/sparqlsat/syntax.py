"""Concrete syntax: a compact algebraic grammar and a pragmatic query subset.

The compact grammar is the canonical, fully round-trippable form used by the
test suite and the serializer:

    pattern := triple | '(' pattern ')'
             | pattern ('UNION'|'AND'|'OPT') pattern
             | pattern 'FILTER' cexpr
             | 'SELECT' '{' vars '}' '(' pattern ')'
    triple  := '(' term term term ')'

Binary operators are left-associative; OPT binds loosest, then UNION, then
AND, and FILTER binds tightest.  The query subset covers what log ingestion
needs: PREFIX declarations, SELECT with projection or '*', brace groups with
'.'-joined triple blocks, OPTIONAL, UNION, FILTER (including EXISTS), blank
nodes (replaced by fresh variables), and 'a' for rdf:type.  Anything else
raises UnsupportedFeature.

Tokens are plain strings, all read by one `findall` of `_SCAN_RE`, with
the empty string as the end marker.  `_kind` reads a token's kind (IRI,
string, blank node, variable, number, name or operator) from its first
character.  A lone `<`, `"`, `?`, `$`, `+` or `-`, and `<=`, are
operators although their first character starts another kind, and `_`
starts a blank node only when `:` and more follow.  Offsets in the text are
found only when something reads one: an error's position, or the source
text of an opaque condition; then `_starts` finds them all.  `_tokenize`
builds the `(kind, value, start, end)` form from the same scan.

Nothing here recurses: a group, SELECT body, EXISTS argument or condition
in parentheses saves what encloses it on its reader's own stack, so any
depth parses at the default recursion limit, and the writer keeps a stack.
"""

from __future__ import annotations

import re
from functools import partial

from .errors import QuerySyntaxError, UnsupportedFeature
from .patterns import (
    And,
    AndExpr,
    Bound,
    Eq,
    EqC,
    Filter,
    FilterCondition,
    Neq,
    NeqC,
    NegBound,
    NotExpr,
    Opaque,
    Opt,
    OrExpr,
    Pattern,
    Select,
    TriplePattern,
    Union,
    bindable_vars,
    is_reserved_name,
)
from .rewrites import exists_rewrite
from .terms import Iri, Literal, Term, Variable

RDF_TYPE = Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")

#: Each match is one token: the whitespace and comments before it, then
#: the token in the one group.  The alternatives read, in order, a variable,
#: a blank node, a name (a bare word, whose one branch never backtracks, or
#: a pname), an IRI, a string, a number and an operator; order matters only
#: where two share a first character, so a blank node precedes a name, and
#: an IRI (before `<=`), a string, a variable and a number (before `+`, `-`)
#: precede the lone operators.  At the end of the text the group matches
#: empty, so the greedy skip never gives a comment back for a later
#: alternative to read, and the empty string is the end marker.  A pname's
#: local part, and a `^^` datatype pname, never end in a dot: that dot ends
#: the triple.
_SCAN_RE = re.compile(
    r"""
    \s*(?:\#[^\n]*\s*)*
    (
      [?$][A-Za-z0-9_]+
    | _:[A-Za-z0-9_]+
    | [A-Za-z_][A-Za-z0-9_-]*(?::(?:[A-Za-z0-9_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?)?)?
    | :(?:[A-Za-z0-9_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?)?
    | <[^<>\s]*>
    | "(?:[^"\\\n]|\\.)*"(?:@[A-Za-z]+(?:-[A-Za-z0-9]+)*|\^\^(?:<[^<>\s]*>|[A-Za-z0-9_:.-]*[A-Za-z0-9_:-]|(?=\.)))?
    | [+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?
    | &&|\|\||!=|<=|>=|\S
    | \Z
    )
    """,
    re.VERBOSE,
)


def _scan(text: str) -> list[str]:
    """Every token of `text` in one scan, then exactly one end marker."""
    tokens = _SCAN_RE.findall(text)
    if len(tokens) > 1 and tokens[-2] == "":  # text that ends in whitespace or a comment matches
        tokens.pop()  # the end once past them and once more, empty, at the end
    return tokens


#: Kinds that a token's text decides alone: the end marker, and the tokens
#: whose first character starts a longer token of another kind.
_KIND_OF_TOKEN = {
    "": "eof", "<": "op", "<=": "op", '"': "op", "?": "op", "$": "op", "+": "op", "-": "op",
    "_": "name", "_:": "name",
}
#: The kind of any other token by its first character, for every printable
#: ASCII character but `_`, which starts a blank node or a name.
_KIND_OF_FIRST = {
    c: "name" if c.isalpha() or c == ":" else "number" if c.isdigit() or c in "+-" else "op"
    for c in map(chr, range(0x21, 0x7F)) if c != "_"
}
_KIND_OF_FIRST.update({"<": "iriref", '"': "string", "?": "var", "$": "var"})


def _kind(token: str) -> str:
    """The kind of a token that `_scan` read, from its first character:
    `eof`, `iriref`, `string`, `blank`, `var`, `number`, `name` or `op`."""
    kind = _KIND_OF_TOKEN.get(token) or _KIND_OF_FIRST.get(token[0])
    if kind is not None:
        return kind
    if token[0] == "_":
        return "blank" if token[1] == ":" else "name"
    return "number" if token[0].isdecimal() else "op"  # as `\d`, any Unicode decimal digit


def _starts(text: str, tokens: list[str]) -> list[int]:
    """Where each of the `tokens` that `_scan` read from `text` starts.

    The scan skips whitespace and comments between two tokens, and no token
    starts with either, so where `find` first meets a token past the end of
    the one before, with no `#` between, that token starts.  A `#` between
    starts a comment, which may hold the token's text; then `_SCAN_RE`
    matched from that end finds the token.  `sharp` is the first `#` at or
    past `pos`, the end of the token before; `hashes` ends in one, so there
    is always one.  The end marker starts at the end of the text.
    """
    starts, find, pos = [], text.find, 0
    hashes = text + "#"
    sharp = hashes.find("#")
    for token in tokens[:-1]:
        start = find(token, pos)
        if start > sharp:
            start = _SCAN_RE.match(text, pos).start(1)
        starts.append(start)
        pos = start + len(token)
        if pos > sharp:
            sharp = hashes.find("#", pos)
    starts.append(len(text))
    return starts


#: A token is `(kind, value, start, end)`.
_Token = tuple[str, str, int, int]


def _tokenize(text: str) -> list[_Token]:
    """Every token of `text` with its kind and offsets, then exactly one
    `eof` marker: the form the parser's strings stand for."""
    tokens = _scan(text)
    starts = _starts(text, tokens)
    return [(_kind(token), token, start, start + len(token)) for token, start in zip(tokens, starts)]


_COMPACT_RESERVED = frozenset(("UNION", "AND", "OPT", "FILTER", "SELECT", "EXISTS", "bound"))
#: Binary operators as (precedence, node class), all left-associative.
_PATTERN_OPS = {"OPT": (10, Opt), "UNION": (20, Union), "AND": (30, And)}
_CONDITION_OPS = {"||": (1, OrExpr), "&&": (2, AndExpr)}
_TERM_KINDS = frozenset(("var", "iriref", "string", "number", "blank", "name"))
#: The first characters of names, but `_`, which also starts a blank node.
_NAME_FIRST = frozenset(c for c, kind in _KIND_OF_FIRST.items() if kind == "name")
_CMP_OPS = frozenset(("=", "!=", "<", ">", "<=", ">="))
_SURFACE_UNSUPPORTED = frozenset(
    ("MINUS", "GRAPH", "SERVICE", "BIND", "VALUES", "ORDER", "GROUP",
     "HAVING", "LIMIT", "OFFSET", "ASK", "CONSTRUCT", "DESCRIBE", "INSERT",
     "DELETE", "CLEAR", "CREATE", "DROP", "LOAD", "WITH", "BASE")
)
_COND_STOP = frozenset((")", "}", "&&", "||", ".", ";", ","))
_COND_STOP_WORDS = frozenset(
    ("FILTER", "AND", "OPT", "UNION", "OPTIONAL", "MINUS", "GRAPH", "SERVICE", "BIND", "VALUES")
)
_BLOCK_STOP_WORDS = _SURFACE_UNSUPPORTED | {"OPTIONAL", "FILTER", "UNION"}
_LITERAL_RE = re.compile(r'"((?:[^"\\\n]|\\.)*)"(.*)$', re.S)
#: SPARQL's string escapes, each to the character it stands for.
_STRING_ESCAPES = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}
_STRING_ESCAPE_RE = re.compile(r"\\([tbnrf\"'\\])")


def _unescape_literal(raw: str) -> str:
    """A string token's lexical form and suffix: each escape read back in
    one left-to-right pass; any other backslash stays as it is."""
    body, suffix = _LITERAL_RE.match(raw).groups()
    if "\\" in body:
        body = _STRING_ESCAPE_RE.sub(lambda escape: _STRING_ESCAPES[escape[1]], body)
    return body + suffix


class _Parser:
    """Shared machinery: token cursor, terms, and the filter-condition grammar.

    The tokens are the strings `_scan` read, the empty end marker last, and
    `_kind` reads a token's kind from its first character.  The texts the
    parser looks for, operators and keywords, each occur as one kind of
    token only, so the cursor compares strings alone.  Offsets in the text
    are found only when something reads one: a `QuerySyntaxError`, an
    `UnsupportedFeature`, or the source text of an `Opaque` condition that
    spans several tokens.  The first such read finds every token's offset
    with `_starts`, and the parser keeps them.  A term is read once per
    text: `_terms` maps the text of each variable and pname read so far to
    its term, and `new_term()` reads any text it does not hold.
    """

    surface = False

    def __init__(self, text: str, tokens: list[str]):
        self.text = text
        self.tokens = tokens
        self.pos = 0
        self._starts: list[int] = []
        self._fresh = 1
        self._blanks: dict[str, Variable] = {}
        self._terms: dict[str, Term] = {}  # variable and pname texts to the terms they read as

    # -- cursor ---------------------------------------------------------------

    def peek(self, ahead: int = 0) -> str:
        # the parser looks past a token only once it has seen that the token
        # is not the end marker, so the index stays within the list
        return self.tokens[self.pos + ahead]

    def advance(self) -> str:
        token = self.tokens[self.pos]
        if token:  # the cursor stays on the end marker
            self.pos += 1
        return token

    def expect_op(self, op: str) -> None:
        token = self.tokens[self.pos]
        if token != op:
            raise QuerySyntaxError(f"found {token!r}", self.offset(self.pos), expected=repr(op))
        self.pos += 1

    def at(self, value: str) -> bool:
        return self.tokens[self.pos] == value

    def word(self) -> str:
        """The name at the cursor upper-cased, to compare with keywords; else ''."""
        token = self.tokens[self.pos]
        return token.upper() if _kind(token) == "name" else ""

    def operator(self, table: dict, operands: list, operators: list) -> bool:
        """Apply the pending operators that bind at least as tightly as the
        `table` operator at the cursor, then push it; with none, apply all."""
        op = table.get(self.tokens[self.pos])
        prec = 0 if op is None else op[0]
        while operators and operators[-1][0] >= prec:
            right = operands.pop()
            operands[-1] = operators.pop()[1](operands[-1], right)
        if op is None:
            return False
        self.pos += 1
        operators.append(op)
        return True

    # -- offsets --------------------------------------------------------------

    def offset(self, index: int) -> int:
        """Where token `index` starts in the text."""
        if not self._starts:
            self._starts = _starts(self.text, self.tokens)
        return self._starts[index]

    def source(self, first: int, last: int) -> str:
        """The text from the start of token `first` to the end of token `last`."""
        return self.text[self.offset(first):self.offset(last) + len(self.tokens[last])]

    # -- terms ----------------------------------------------------------------

    def fresh_var(self) -> Variable:
        var = Variable(f"_g{self._fresh}")
        self._fresh += 1
        return var

    def blank_var(self, label: str) -> Variable:
        if label not in self._blanks:
            self._blanks[label] = self.fresh_var()
        return self._blanks[label]

    def term(self) -> Term:
        """The term at the cursor, read alike in a triple and in a filter
        comparison: looked up in `_terms`, else read by `new_term()`."""
        token = self.tokens[self.pos]
        term = self._terms.get(token)
        if term is None:
            return self.new_term()
        self.pos += 1
        return term

    def new_term(self) -> Term:
        """The term at the cursor, whose text `_terms` does not hold, with the
        cursor past it.

        The first character tells a variable, and a name, from the rest.  A
        variable, and in a surface query a pname, is built and kept in
        `_terms`.  Any other token is read by its kind, and kept nowhere: a
        surface query reads `[ ]` as a fresh variable, `true` and `false` as
        literals, and any other bare name as the IRI it spells, as the
        compact grammar reads every name.
        """
        pos = self.pos
        token = self.tokens[pos]
        first = token[:1]
        if (first == "?" or first == "$") and len(token) > 1:
            if token.startswith("_g", 1) and is_reserved_name(token[1:]):
                raise QuerySyntaxError(f"variable name {token!r} uses the reserved fresh-name prefix", self.offset(pos))
            term = self._terms[token] = Variable(token[1:])
            self.pos = pos + 1
            return term
        kind = "name" if first in _NAME_FIRST else _kind(token)
        if kind == "name" and self.surface and ":" in token:
            prefix, _, local = token.partition(":")
            base = self.prefixes.get(prefix)
            if base is None:
                raise QuerySyntaxError(f"unknown prefix {prefix + ':'!r}", self.offset(pos))
            term = self._terms[token] = Iri(base + local)
            self.pos = pos + 1
            return term
        self.pos = pos + 1
        if kind == "name":
            return Literal(token) if self.surface and token in ("true", "false") else Iri(token)
        if kind == "iriref":
            return Iri(token[1:-1])
        if kind == "string":
            return Literal(_unescape_literal(token))
        if kind == "number":
            return Literal(token)
        if kind == "blank":
            return self.blank_var(token[2:])
        if token == "[" and self.surface:
            self.expect_op("]")
            return self.fresh_var()
        raise QuerySyntaxError(f"found {token!r}", self.offset(pos), expected="a term")

    def variables(self) -> set[Variable]:
        """The variables of a SELECT list at the cursor, commas optional."""
        found: set[Variable] = set()
        while _kind(self.peek()) == "var":
            found.add(self.term())
            if self.at(","):
                self.advance()
        return found

    # -- filter conditions -------------------------------------------------------

    def condition(self) -> FilterCondition:
        """The condition at the cursor; a `(` pushes a marker with its `!`s."""
        operands, operators = [], []
        while True:
            negations = 0
            while self.at("!"):
                self.advance()
                negations += 1
            if self.at("("):
                self.advance()
                operators.append((-1, negations))
                continue
            operand = self._cond_atom()
            while True:
                for _ in range(negations):  # the innermost `!` applies first
                    operand = NegBound(operand.var) if isinstance(operand, Bound) else NotExpr(operand)
                operands.append(operand)
                if self.operator(_CONDITION_OPS, operands, operators):
                    break
                if not operators:
                    return operands[0]
                self.expect_op(")")
                operand, negations = operands.pop(), operators.pop()[1]

    def _cond_atom(self) -> FilterCondition:
        token = self.peek()
        kind = _kind(token)
        bound_name = self.word() == "BOUND" if self.surface else token == "bound"
        if bound_name and self.peek(1) == "(":
            self.advance()
            self.expect_op("(")
            if _kind(self.peek()) != "var":
                raise QuerySyntaxError("bound() takes a variable", self.offset(self.pos))
            var = self.term()
            self.expect_op(")")
            return Bound(var)
        if kind == "var":
            return self._cond_from_var()
        if kind == "name" and self.peek(1) == "(":
            return self._opaque_call()
        if kind in ("iriref", "string", "number", "name"):
            return self._cond_from_constant()
        raise QuerySyntaxError(f"found {token!r} in a filter condition", self.offset(self.pos))

    def _cond_from_var(self) -> FilterCondition:
        first = self.pos
        var = self.term()
        op = self.peek()
        if op in ("=", "!="):
            rhs_kind = _kind(self.peek(1))
            if rhs_kind == "var":
                self.advance()
                other = self.term()
                if op == "=":
                    return Eq(var, other)
                if var == other:  # not an atomic form: the negated equality, always false
                    return NotExpr(Eq(var, var))
                return Neq(var, other)
            if rhs_kind in ("iriref", "string", "number") or (
                rhs_kind == "name" and self.peek(2) != "("
            ):
                self.advance()
                constant = self.term()
                return EqC(var, constant) if op == "=" else NeqC(var, constant)
            return self._opaque_until_stop(first)
        if op in _CMP_OPS or self.word() == "IN":
            return self._opaque_until_stop(first)
        # a bare variable used as an effective-boolean filter: its text is the token's
        return Opaque(self.tokens[first], frozenset((var,)))

    def _cond_from_constant(self) -> FilterCondition:
        first = self.pos
        constant = self.term()
        if self.peek() in ("=", "!=") and _kind(self.peek(1)) == "var":
            op = self.advance()
            var = self.term()
            return EqC(var, constant) if op == "=" else NeqC(var, constant)
        return self._opaque_until_stop(first)

    def _opaque_call(self) -> Opaque:
        first = self.pos
        self.advance()  # function name
        mentions = self._consume_balanced()
        last = self.pos - 1
        if self.peek() in _CMP_OPS:
            self.advance()
            rhs_kind = _kind(self.peek())
            if rhs_kind == "var":
                mentions |= {self.term()}
            elif rhs_kind == "name" and self.peek(1) == "(":
                self.advance()
                mentions |= self._consume_balanced()
            elif rhs_kind in ("iriref", "string", "number", "name"):
                self.advance()
            last = self.pos - 1
        return Opaque(self.source(first, last), frozenset(mentions))

    def _consume_balanced(self) -> frozenset:
        """Consume a parenthesized argument list, collecting mentioned variables."""
        self.expect_op("(")
        depth = 1
        mentions: set[Variable] = set()
        while depth:
            token = self.peek()
            if not token:
                raise QuerySyntaxError("unbalanced parentheses in builtin call", self.offset(self.pos))
            if _kind(token) == "var":
                mentions.add(self.term())
                continue
            self.pos += 1
            if token == "(":
                depth += 1
            elif token == ")":
                depth -= 1
        return frozenset(mentions)

    def _opaque_until_stop(self, first: int) -> Opaque:
        mentions: set[Variable] = set()
        depth = 0
        while True:
            token = self.peek()
            kind = _kind(token)
            if kind == "eof":
                break
            if kind == "op":
                if token == "(":
                    depth += 1
                elif token == ")":
                    if depth == 0:
                        break
                    depth -= 1
                elif depth == 0 and token in _COND_STOP:
                    break
            elif kind == "name" and depth == 0 and token.upper() in _COND_STOP_WORDS:
                break
            elif kind == "var":
                mentions.add(self.term())
                continue
            self.advance()
        return Opaque(self.source(first, self.pos - 1), frozenset(mentions))


class _CompactParser(_Parser):
    def parse(self) -> Pattern:
        """A `(`, SELECT or EXISTS pushes a marker with what to apply at its `)`."""
        operands, operators = [], []
        pattern = None  # the unit just read, until an operator or a `)` follows it
        scheme = None  # what `pattern`'s solutions bind, once an EXISTS filter needed it
        while True:
            if pattern is None:
                opened = self.pos
                open_token = self.advance()
                if open_token == "SELECT":
                    self.expect_op("{")
                    scheme = self.variables()
                    self.expect_op("}")
                    self.expect_op("(")
                    finish = partial(Select, frozenset(scheme))
                elif open_token != "(":
                    raise QuerySyntaxError(f"found {open_token!r}", self.offset(opened), expected="'(' or SELECT")
                elif self._looks_like_triple():
                    terms = (self.term(), self.term(), self.term())
                    self.expect_op(")")
                    try:
                        pattern, scheme = TriplePattern(*terms), None
                    except ValueError as exc:
                        raise QuerySyntaxError(str(exc), self.offset(opened)) from exc
                    continue
                else:
                    finish = None
            elif self.at("FILTER"):
                self.advance()
                if not self.at("EXISTS"):
                    pattern = Filter(pattern, self.condition())
                    continue
                self.advance()
                self.expect_op("(")
                scheme = bindable_vars(pattern) if scheme is None else scheme
                finish = partial(exists_rewrite, pattern, scheme=scheme)
            else:
                operands.append(pattern)
                pattern = None
                if self.operator(_PATTERN_OPS, operands, operators):
                    continue
                if not operators:
                    token = self.peek()
                    if token:
                        raise QuerySyntaxError(f"trailing {token!r}", self.offset(self.pos))
                    return operands[0]
                self.expect_op(")")
                pattern, finish = operands.pop(), operators.pop()[1]
                if finish is not None:
                    pattern = finish(pattern)
                # an EXISTS binds what its left side binds, the scheme it was given
                scheme = finish.keywords.get("scheme") if finish is not None else None
                continue
            operators.append((-1, finish))
            pattern = None

    def _looks_like_triple(self) -> bool:
        for ahead in range(3):
            token = self.peek(ahead)
            if _kind(token) not in _TERM_KINDS or token in _COMPACT_RESERVED:
                return False
        return self.peek(3) == ")"


class _SurfaceParser(_Parser):
    surface = True

    def __init__(self, text: str, tokens: list[str]):
        super().__init__(text, tokens)
        self.prefixes: dict[str, str] = {}

    def parse(self) -> Pattern:
        while self.word() == "PREFIX":
            self.advance()
            name = self.peek()
            if _kind(name) != "name" or not name.endswith(":"):
                raise QuerySyntaxError("malformed PREFIX declaration", self.offset(self.pos))
            self.advance()
            iri = self.peek()
            if _kind(iri) != "iriref":
                raise QuerySyntaxError("PREFIX needs an IRI", self.offset(self.pos))
            self.advance()
            self.prefixes[name[:-1]] = iri[1:-1]

        word = self.word()
        if word in _SURFACE_UNSUPPORTED:
            raise UnsupportedFeature(word, self.offset(self.pos))
        if word != "SELECT":
            raise QuerySyntaxError(f"found {self.peek()!r}", self.offset(self.pos), expected="a SELECT query")
        self.advance()
        if self.word() in ("DISTINCT", "REDUCED"):
            self.advance()
        scheme: frozenset | None = None
        if self.at("*"):
            self.advance()
        else:
            variables = self.variables()
            if not variables:
                raise QuerySyntaxError(f"found {self.peek()!r}", self.offset(self.pos), expected="'*' or variables")
            scheme = frozenset(variables)
        if self.word() == "WHERE":
            self.advance()
        body = self._braced_group()
        token = self.peek()
        if token:
            word = self.word()
            if word in _SURFACE_UNSUPPORTED:
                raise UnsupportedFeature(word, self.offset(self.pos))
            raise QuerySyntaxError(f"trailing {token!r}", self.offset(self.pos))
        return Select(scheme, body) if scheme is not None else body

    def _braced_group(self) -> Pattern:
        """A nested group saves its role ("opt", "exists", or "and" with the
        left side of its UNION) and the enclosing group's state."""
        self.expect_op("{")
        stack, elements, filters, leading_optional = [], [], [], -1
        while True:
            token = self.peek()
            kind = _kind(token)
            if kind == "var" or kind == "iriref":  # a subject; no keyword is either
                self._triple_block(elements)
                continue
            word = token.upper() if kind == "name" else ""
            if kind == "eof" or token == "}":
                pattern = self._group_pattern(elements, filters, leading_optional)
                self.expect_op("}")
                if not stack:
                    return pattern
                elements, filters, leading_optional, role, left = stack.pop()
                if role == "exists":
                    filters.append((exists_rewrite, pattern))
                    continue
                if left is not None:
                    pattern = Union(left, pattern)
                if role == "opt" or self.word() != "UNION":
                    elements.append((role, pattern))
                    continue
                self.advance()
                left = pattern
            elif word == "OPTIONAL":
                if not elements:
                    leading_optional = self.pos  # nothing precedes this OPTIONAL
                self.advance()
                role, left = "opt", None
            elif word == "FILTER":
                self.advance()
                word = self.word()
                if word == "EXISTS":
                    self.advance()
                    role, left = "exists", None
                elif word == "NOT":
                    raise UnsupportedFeature("NOT EXISTS", self.offset(self.pos))
                else:
                    filters.append((Filter, self.condition()))
                    continue
            elif word in _SURFACE_UNSUPPORTED:
                raise UnsupportedFeature(word, self.offset(self.pos))
            elif token == "{":
                role, left = "and", None
            elif token == ".":
                self.advance()
                continue
            elif kind in _TERM_KINDS or token == "[":
                self._triple_block(elements)
                continue
            else:
                raise QuerySyntaxError(f"found {token!r} in a group", self.offset(self.pos))
            stack.append((elements, filters, leading_optional, role, left))
            self.expect_op("{")
            elements, filters, leading_optional = [], [], -1

    def _group_pattern(self, elements: list, filters: list, leading_optional: int) -> Pattern:
        """Fold a group's elements left to right, then apply its filters;
        `leading_optional` is the index of an OPTIONAL token that nothing
        precedes in the group."""
        pattern: Pattern | None = None
        for kind, sub in elements:
            if kind == "and":
                pattern = sub if pattern is None else And(pattern, sub)
            else:
                if pattern is None:
                    raise UnsupportedFeature("OPTIONAL without a preceding pattern", self.offset(leading_optional))
                pattern = Opt(pattern, sub)
        if pattern is None:
            raise QuerySyntaxError("empty group pattern", self.offset(self.pos))
        scheme = None  # what the group's solutions bind: one set for all its EXISTS filters
        for make, payload in filters:  # `Filter` with a condition, `exists_rewrite` with a subquery
            if make is Filter:
                pattern = Filter(pattern, payload)
            else:
                scheme = bindable_vars(pattern) if scheme is None else scheme
                pattern = exists_rewrite(pattern, payload, scheme)
        return pattern

    def _triple_block(self, elements: list):
        """The triples of a subject's block, in one loop over the tokens.

        A term read before, a variable or a pname, is looked up by its text
        in `_terms`; `new_term()` and `_predicate()` read any other.  `_terms`
        never holds a bare name, so `true`, `false` and `a` read as those two
        read them in their position.
        """
        tokens, known = self.tokens, self._terms
        subject = known.get(tokens[self.pos])
        if subject is None:
            subject = self.new_term()
        else:
            self.pos += 1
        pos = self.pos
        while True:
            predicate = known.get(tokens[pos])
            if predicate is None:
                self.pos = pos
                predicate = self._predicate()
                pos = self.pos
            else:
                pos += 1
            if tokens[pos] in ("/", "|", "^", "*", "+", "?"):
                raise UnsupportedFeature("property paths", self.offset(pos))
            while True:  # an object, then one more after each ","
                obj = known.get(tokens[pos])
                if obj is None:
                    self.pos = pos
                    obj = self.new_term()
                    pos = self.pos
                else:
                    pos += 1
                try:
                    elements.append(("and", TriplePattern(subject, predicate, obj)))
                except ValueError as exc:
                    raise QuerySyntaxError(str(exc), self.offset(pos)) from exc
                if tokens[pos] != ",":
                    break
                pos += 1
            if tokens[pos] == ";":
                pos += 1
                self.pos = pos
                if _kind(tokens[pos]) in _TERM_KINDS and self.word() not in _BLOCK_STOP_WORDS:
                    continue
            break
        self.pos = pos + 1 if tokens[pos] == "." else pos

    def _predicate(self) -> Term:
        """The predicate at the cursor, whose text `_terms` does not hold:
        `a` is rdf:type and any other bare name the IRI it spells; a
        variable, a pname or an IRI is read by `new_term()`."""
        token = self.tokens[self.pos]
        name = token[:1] in _NAME_FIRST
        if name and ":" not in token:
            self.pos += 1
            return RDF_TYPE if token == "a" else Iri(token)
        if name or _kind(token) in ("var", "name", "iriref"):
            return self.new_term()
        raise QuerySyntaxError(f"found {token!r}", self.offset(self.pos), expected="a predicate")


def parse_pattern(text: str) -> Pattern:
    """Parse either grammar, told apart by its first tokens, into the
    pattern AST.

    Blank nodes in triple positions are replaced by fresh variables; FILTER
    EXISTS is rewritten to a projected conjunction at parse time.
    """
    tokens = _scan(text)
    return _detect_dialect(tokens)(text, tokens).parse()


def _detect_dialect(tokens: list[str]) -> type[_Parser]:
    first = tokens[0]
    if first == "{":
        return _SurfaceParser
    if _kind(first) == "name":
        word = first.upper()
        if word == "SELECT":  # a name is followed at least by the end marker
            return _CompactParser if tokens[1] == "{" else _SurfaceParser
        if word in _SURFACE_UNSUPPORTED or word == "PREFIX":
            return _SurfaceParser
    return _CompactParser


# --- serialization -------------------------------------------------------------

_SAFE_BARE_RE = re.compile(r"[A-Za-z][A-Za-z0-9_-]*")
_NUMBER_RE = re.compile(r"[+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")


def _term_compact(term: Term) -> str:
    if isinstance(term, Variable):
        return f"?{term.name}"
    if isinstance(term, Iri):
        name = term.name
        if _SAFE_BARE_RE.fullmatch(name) and name not in _COMPACT_RESERVED:
            return name
        if ">" in name:
            raise ValueError(f"cannot serialize IRI containing '>': {name!r}")
        return f"<{name}>"
    if isinstance(term, Literal):
        if _NUMBER_RE.fullmatch(term.lexical):
            return term.lexical
        escaped = (
            term.lexical.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
            .replace("\t", "\\t")
        )
        return f'"{escaped}"'
    raise ValueError(f"cannot serialize term: {term!r}")


def serialize_condition(condition: FilterCondition) -> str:
    """An atom's or opaque condition's text; `serialize_pattern` writes the rest."""
    if isinstance(condition, Bound):
        return f"bound(?{condition.var.name})"
    if isinstance(condition, NegBound):
        return f"!bound(?{condition.var.name})"
    if isinstance(condition, Eq):
        return f"?{condition.left.name} = ?{condition.right.name}"
    if isinstance(condition, Neq):
        return f"?{condition.left.name} != ?{condition.right.name}"
    if isinstance(condition, EqC):
        return f"?{condition.var.name} = {_term_compact(condition.constant)}"
    if isinstance(condition, NeqC):
        return f"?{condition.var.name} != {_term_compact(condition.constant)}"
    if isinstance(condition, Opaque):
        return condition.text
    raise ValueError(f"cannot serialize {condition!r}")


_OPERATOR_WORDS = {Union: " UNION ", And: " AND ", Opt: " OPT ", AndExpr: " && ", OrExpr: " || "}


def serialize_pattern(pattern: Pattern) -> str:
    """Render the compact form; parsing it back yields a structurally equal AST.

    The pieces are written left to right off an explicit stack of pending
    pieces, nodes and conditions, so depth costs no frames.
    """

    def wrapped(node: Pattern) -> tuple:  # an operand's pieces, reversed for the stack
        return (node,) if isinstance(node, TriplePattern) else (")", node, "(")

    out, todo = [], [pattern]
    while todo:
        node = todo.pop()
        if isinstance(node, str):
            out.append(node)
        elif isinstance(node, TriplePattern):
            terms = " ".join(_term_compact(t) for t in node.terms())
            out.append(f"({terms})")
        elif isinstance(node, (Union, And, Opt)):
            todo += (*wrapped(node.right), _OPERATOR_WORDS[type(node)], *wrapped(node.left))
        elif isinstance(node, Filter):
            todo += (node.condition, " FILTER ", *wrapped(node.pattern))
        elif isinstance(node, Select):
            names = ", ".join(f"?{v.name}" for v in sorted(node.scheme, key=lambda v: v.name))
            out.append(f"SELECT {{{names}}} (")
            todo += (")", node.pattern)
        elif isinstance(node, (AndExpr, OrExpr)):
            todo += (")", node.right, _OPERATOR_WORDS[type(node)], node.left, "(")
        elif isinstance(node, NotExpr):
            todo += (")", node.operand, "!(")
        else:
            out.append(serialize_condition(node))
    return "".join(out)
