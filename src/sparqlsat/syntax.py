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
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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
    is_reserved_name,
)
from .rewrites import exists_rewrite
from .terms import Iri, Literal, Term, Variable

RDF_TYPE = Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")

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


_COMPACT_RESERVED = frozenset(("UNION", "AND", "OPT", "FILTER", "SELECT", "EXISTS", "bound"))
_PATTERN_PREC = {"OPT": 10, "UNION": 20, "AND": 30}
_PATTERN_NODE = {"OPT": Opt, "UNION": Union, "AND": And}
_TERM_KINDS = frozenset(("var", "iriref", "string", "number", "blank", "name"))
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


def _unescape_literal(raw: str) -> str:
    match = re.match(r'"((?:[^"\\\n]|\\.)*)"(.*)$', raw, re.S)
    body = match.group(1)
    suffix = match.group(2)
    body = (
        body.replace("\\\\", "\x00")
        .replace('\\"', '"')
        .replace("\\n", "\n")
        .replace("\\t", "\t")
        .replace("\x00", "\\")
    )
    return body + suffix


class _Parser:
    """Shared machinery: token cursor, terms, and the filter-condition grammar."""

    surface = False

    def __init__(self, text: str, tokens: list[_Token]):
        self.text = text
        self.tokens = tokens
        self.pos = 0
        self._fresh = 1
        self._blanks: dict[str, Variable] = {}

    # -- cursor ---------------------------------------------------------------

    def peek(self, ahead: int = 0) -> _Token:
        index = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def expect_op(self, op: str) -> _Token:
        token = self.peek()
        if token.kind == "op" and token.value == op:
            return self.advance()
        raise QuerySyntaxError(f"found {token.value!r}", token.start, expected=repr(op))

    def at_op(self, op: str) -> bool:
        token = self.peek()
        return token.kind == "op" and token.value == op

    def at_word(self, *words: str) -> bool:
        token = self.peek()
        return token.kind == "name" and token.value.upper() in words and ":" not in token.value

    # -- terms ----------------------------------------------------------------

    def fresh_var(self) -> Variable:
        var = Variable(f"_g{self._fresh}")
        self._fresh += 1
        return var

    def make_var(self, token: _Token) -> Variable:
        name = token.value[1:]
        if is_reserved_name(name):
            raise QuerySyntaxError(
                f"variable name {token.value!r} uses the reserved fresh-name prefix", token.start
            )
        return Variable(name)

    def blank_var(self, label: str) -> Variable:
        if label not in self._blanks:
            self._blanks[label] = self.fresh_var()
        return self._blanks[label]

    # -- filter conditions -------------------------------------------------------

    def condition(self) -> FilterCondition:
        left = self._cond_and()
        while self.at_op("||"):
            self.advance()
            left = OrExpr(left, self._cond_and())
        return left

    def _cond_and(self) -> FilterCondition:
        left = self._cond_not()
        while self.at_op("&&"):
            self.advance()
            left = AndExpr(left, self._cond_not())
        return left

    def _cond_not(self) -> FilterCondition:
        if self.at_op("!"):
            self.advance()
            operand = self._cond_not()
            if isinstance(operand, Bound):
                return NegBound(operand.var)
            return NotExpr(operand)
        return self._cond_atom()

    def _cond_atom(self) -> FilterCondition:
        token = self.peek()
        if self.at_op("("):
            self.advance()
            inner = self.condition()
            self.expect_op(")")
            return inner
        bound_name = token.value.lower() == "bound" if self.surface else token.value == "bound"
        if token.kind == "name" and bound_name and self.peek(1).value == "(":
            self.advance()
            self.expect_op("(")
            var_token = self.peek()
            if var_token.kind != "var":
                raise QuerySyntaxError("bound() takes a variable", var_token.start)
            var = self.make_var(self.advance())
            self.expect_op(")")
            return Bound(var)
        if token.kind == "var":
            return self._cond_from_var(token)
        if token.kind == "name" and self.peek(1).kind == "op" and self.peek(1).value == "(":
            return self._opaque_call(token.start)
        if token.kind in ("iriref", "string", "number", "name"):
            return self._cond_from_constant(token)
        raise QuerySyntaxError(f"found {token.value!r} in a filter condition", token.start)

    def _cond_from_var(self, first: _Token) -> FilterCondition:
        start = first.start
        var = self.make_var(self.advance())
        op = self.peek()
        if op.kind == "op" and op.value in ("=", "!="):
            rhs = self.peek(1)
            if rhs.kind == "var":
                self.advance()
                other = self.make_var(self.advance())
                if op.value == "=":
                    return Eq(var, other)
                if var == other:  # ?x != ?x is not one of the atomic forms
                    return Opaque(self.text[start:rhs.end], frozenset((var,)))
                return Neq(var, other)
            if rhs.kind in ("iriref", "string", "number") or (
                rhs.kind == "name" and self.peek(2).value != "("
            ):
                self.advance()
                constant = self._constant(self.advance())
                return EqC(var, constant) if op.value == "=" else NeqC(var, constant)
            return self._opaque_until_stop(start)
        if op.kind == "op" and op.value in _CMP_OPS:
            return self._opaque_until_stop(start)
        if op.kind == "name" and op.value.upper() == "IN":
            return self._opaque_until_stop(start)
        # a bare variable used as an effective-boolean filter
        return Opaque(self.text[start:first.end], frozenset((var,)))

    def _cond_from_constant(self, first: _Token) -> FilterCondition:
        start = first.start
        constant = self._constant(self.advance())
        op = self.peek()
        if op.kind == "op" and op.value in ("=", "!=") and self.peek(1).kind == "var":
            self.advance()
            var = self.make_var(self.advance())
            return EqC(var, constant) if op.value == "=" else NeqC(var, constant)
        return self._opaque_until_stop(start)

    def _constant(self, token: _Token) -> Term:
        if token.kind == "iriref":
            return Iri(token.value[1:-1])
        if token.kind == "string":
            return Literal(_unescape_literal(token.value))
        if token.kind == "number":
            return Literal(token.value)
        if token.kind == "name":
            return Iri(token.value)
        raise QuerySyntaxError(f"found {token.value!r}", token.start, expected="a constant")

    def _opaque_call(self, start: int) -> Opaque:
        self.advance()  # function name
        mentions = self._consume_balanced()
        end = self.tokens[self.pos - 1].end
        op = self.peek()
        if op.kind == "op" and op.value in _CMP_OPS:
            self.advance()
            rhs = self.peek()
            if rhs.kind == "var":
                mentions |= {self.make_var(self.advance())}
            elif rhs.kind == "name" and self.peek(1).value == "(":
                self.advance()
                mentions |= self._consume_balanced()
            elif rhs.kind in ("iriref", "string", "number", "name"):
                self.advance()
            end = self.tokens[self.pos - 1].end
        return Opaque(self.text[start:end], frozenset(mentions))

    def _consume_balanced(self) -> frozenset:
        """Consume a parenthesized argument list, collecting mentioned variables."""
        self.expect_op("(")
        depth = 1
        mentions: set[Variable] = set()
        while depth:
            token = self.advance()
            if token.kind == "eof":
                raise QuerySyntaxError("unbalanced parentheses in builtin call", token.start)
            if token.kind == "op" and token.value == "(":
                depth += 1
            elif token.kind == "op" and token.value == ")":
                depth -= 1
            elif token.kind == "var":
                mentions.add(self.make_var(token))
        return frozenset(mentions)

    def _opaque_until_stop(self, start: int) -> Opaque:
        mentions: set[Variable] = set()
        depth = 0
        while True:
            token = self.peek()
            if token.kind == "eof":
                break
            if token.kind == "op":
                if token.value == "(":
                    depth += 1
                elif token.value == ")":
                    if depth == 0:
                        break
                    depth -= 1
                elif depth == 0 and token.value in _COND_STOP:
                    break
            elif token.kind == "name" and depth == 0 and token.value.upper() in _COND_STOP_WORDS:
                break
            elif token.kind == "var":
                mentions.add(self.make_var(token))
            self.advance()
        end = self.tokens[self.pos - 1].end
        return Opaque(self.text[start:end].strip(), frozenset(mentions))


class _CompactParser(_Parser):
    def parse(self) -> Pattern:
        pattern = self.pattern_expr(0)
        token = self.peek()
        if token.kind != "eof":
            raise QuerySyntaxError(f"trailing {token.value!r}", token.start)
        return pattern

    def pattern_expr(self, min_prec: int) -> Pattern:
        left = self.unit()
        while True:
            token = self.peek()
            if token.kind != "name" or token.value not in _PATTERN_PREC:
                return left
            prec = _PATTERN_PREC[token.value]
            if prec < min_prec:
                return left
            self.advance()
            right = self.pattern_expr(prec + 1)
            left = _PATTERN_NODE[token.value](left, right)

    def unit(self) -> Pattern:
        token = self.peek()
        if self.at_op("("):
            pattern = self._triple_or_group()
        elif token.kind == "name" and token.value == "SELECT":
            pattern = self._select()
        else:
            raise QuerySyntaxError(
                f"found {token.value!r}", token.start, expected="'(' or SELECT"
            )
        while self.peek().kind == "name" and self.peek().value == "FILTER":
            self.advance()
            if self.peek().kind == "name" and self.peek().value == "EXISTS":
                self.advance()
                self.expect_op("(")
                subquery = self.pattern_expr(0)
                self.expect_op(")")
                pattern = exists_rewrite(pattern, subquery)
            else:
                pattern = Filter(pattern, self.condition())
        return pattern

    def _looks_like_triple(self) -> bool:
        for ahead in range(3):
            token = self.peek(ahead)
            if token.kind not in _TERM_KINDS:
                return False
            if token.kind == "name" and token.value in _COMPACT_RESERVED:
                return False
        closing = self.peek(3)
        return closing.kind == "op" and closing.value == ")"

    def _triple_or_group(self) -> Pattern:
        open_token = self.expect_op("(")
        if self._looks_like_triple():
            subject = self._term()
            predicate = self._term()
            obj = self._term()
            self.expect_op(")")
            try:
                return TriplePattern(subject, predicate, obj)
            except ValueError as exc:
                raise QuerySyntaxError(str(exc), open_token.start) from exc
        pattern = self.pattern_expr(0)
        self.expect_op(")")
        return pattern

    def _term(self) -> Term:
        token = self.advance()
        if token.kind == "var":
            return self.make_var(token)
        if token.kind == "iriref":
            return Iri(token.value[1:-1])
        if token.kind == "string":
            return Literal(_unescape_literal(token.value))
        if token.kind == "number":
            return Literal(token.value)
        if token.kind == "blank":
            return self.blank_var(token.value[2:])
        if token.kind == "name":
            return Iri(token.value)
        raise QuerySyntaxError(f"found {token.value!r}", token.start, expected="a term")

    def _select(self) -> Pattern:
        self.advance()
        self.expect_op("{")
        scheme: set[Variable] = set()
        while self.peek().kind == "var":
            scheme.add(self.make_var(self.advance()))
            if self.at_op(","):
                self.advance()
        self.expect_op("}")
        self.expect_op("(")
        body = self.pattern_expr(0)
        self.expect_op(")")
        return Select(frozenset(scheme), body)


class _SurfaceParser(_Parser):
    surface = True

    def __init__(self, text: str, tokens: list[_Token]):
        super().__init__(text, tokens)
        self.prefixes: dict[str, str] = {}

    def parse(self) -> Pattern:
        while self.at_word("PREFIX"):
            self.advance()
            name_token = self.peek()
            if name_token.kind != "name" or not name_token.value.endswith(":"):
                raise QuerySyntaxError("malformed PREFIX declaration", name_token.start)
            self.advance()
            iri_token = self.peek()
            if iri_token.kind != "iriref":
                raise QuerySyntaxError("PREFIX needs an IRI", iri_token.start)
            self.advance()
            self.prefixes[name_token.value[:-1]] = iri_token.value[1:-1]

        token = self.peek()
        if self.at_word(*_SURFACE_UNSUPPORTED):
            raise UnsupportedFeature(token.value.upper(), token.start)
        if not self.at_word("SELECT"):
            raise QuerySyntaxError(
                f"found {token.value!r}", token.start, expected="a SELECT query"
            )
        self.advance()
        if self.at_word("DISTINCT", "REDUCED"):
            self.advance()
        scheme: frozenset | None = None
        if self.at_op("*"):
            self.advance()
        else:
            variables: set[Variable] = set()
            while self.peek().kind == "var":
                variables.add(self.make_var(self.advance()))
                if self.at_op(","):
                    self.advance()
            if not variables:
                raise QuerySyntaxError(
                    f"found {self.peek().value!r}", self.peek().start, expected="'*' or variables"
                )
            scheme = frozenset(variables)
        if self.at_word("WHERE"):
            self.advance()
        self.expect_op("{")
        body = self.group()
        self.expect_op("}")
        tail = self.peek()
        if tail.kind != "eof":
            if self.at_word(*_SURFACE_UNSUPPORTED):
                raise UnsupportedFeature(tail.value.upper(), tail.start)
            raise QuerySyntaxError(f"trailing {tail.value!r}", tail.start)
        return Select(scheme, body) if scheme is not None else body

    def group(self) -> Pattern:
        elements: list[tuple[str, Pattern]] = []
        filters: list[tuple[str, object]] = []
        while True:
            token = self.peek()
            if token.kind == "eof" or self.at_op("}"):
                break
            if self.at_word("OPTIONAL"):
                self.advance()
                self.expect_op("{")
                sub = self.group()
                self.expect_op("}")
                elements.append(("opt", sub))
            elif self.at_word("FILTER"):
                self.advance()
                if self.at_word("EXISTS"):
                    self.advance()
                    self.expect_op("{")
                    sub = self.group()
                    self.expect_op("}")
                    filters.append(("exists", sub))
                elif self.at_word("NOT"):
                    raise UnsupportedFeature("NOT EXISTS", self.peek().start)
                else:
                    filters.append(("cond", self.condition()))
            elif self.at_word(*_SURFACE_UNSUPPORTED):
                raise UnsupportedFeature(token.value.upper(), token.start)
            elif self.at_op("{"):
                elements.append(("and", self._braced_union()))
            elif self.at_op("."):
                self.advance()
            elif token.kind in _TERM_KINDS or self.at_op("["):
                self._triple_block(elements)
            else:
                raise QuerySyntaxError(f"found {token.value!r} in a group", token.start)

        pattern: Pattern | None = None
        for kind, sub in elements:
            if kind == "and":
                pattern = sub if pattern is None else And(pattern, sub)
            else:
                if pattern is None:
                    raise UnsupportedFeature("OPTIONAL without a preceding pattern", 0)
                pattern = Opt(pattern, sub)
        if pattern is None:
            raise QuerySyntaxError("empty group pattern", self.peek().start)
        for kind, payload in filters:
            if kind == "cond":
                pattern = Filter(pattern, payload)
            else:
                pattern = exists_rewrite(pattern, payload)
        return pattern

    def _braced_union(self) -> Pattern:
        self.expect_op("{")
        pattern = self.group()
        self.expect_op("}")
        while self.at_word("UNION"):
            self.advance()
            self.expect_op("{")
            right = self.group()
            self.expect_op("}")
            pattern = Union(pattern, right)
        return pattern

    def _triple_block(self, elements: list):
        subject = self._surface_term()
        while True:
            predicate = self._predicate()
            self._check_property_path()
            obj = self._surface_term()
            elements.append(("and", self._make_triple(subject, predicate, obj)))
            while self.at_op(","):
                self.advance()
                obj = self._surface_term()
                elements.append(("and", self._make_triple(subject, predicate, obj)))
            if self.at_op(";"):
                self.advance()
                if self.peek().kind in _TERM_KINDS and not self.at_word(
                    "OPTIONAL", "FILTER", "UNION", *(_SURFACE_UNSUPPORTED)
                ):
                    continue
            break
        if self.at_op("."):
            self.advance()

    def _make_triple(self, subject: Term, predicate: Term, obj: Term) -> TriplePattern:
        try:
            return TriplePattern(subject, predicate, obj)
        except ValueError as exc:
            raise QuerySyntaxError(str(exc), self.peek().start) from exc

    def _predicate(self) -> Term:
        token = self.peek()
        if token.kind == "name" and token.value == "a":
            self.advance()
            return RDF_TYPE
        if token.kind == "var":
            return self.make_var(self.advance())
        if token.kind == "iriref":
            return Iri(self.advance().value[1:-1])
        if token.kind == "name":
            return self._resolve_pname(self.advance())
        raise QuerySyntaxError(f"found {token.value!r}", token.start, expected="a predicate")

    def _check_property_path(self):
        token = self.peek()
        if token.kind == "op" and token.value in ("/", "|", "^", "*", "+", "?"):
            raise UnsupportedFeature("property paths", token.start)

    def _surface_term(self) -> Term:
        token = self.peek()
        if self.at_op("["):
            self.advance()
            self.expect_op("]")
            return self.fresh_var()
        self.advance()
        if token.kind == "var":
            return self.make_var(token)
        if token.kind == "iriref":
            return Iri(token.value[1:-1])
        if token.kind == "string":
            return Literal(_unescape_literal(token.value))
        if token.kind == "number":
            return Literal(token.value)
        if token.kind == "blank":
            return self.blank_var(token.value[2:])
        if token.kind == "name":
            if token.value in ("true", "false"):
                return Literal(token.value)
            return self._resolve_pname(token)
        raise QuerySyntaxError(f"found {token.value!r}", token.start, expected="a term")

    def _resolve_pname(self, token: _Token) -> Iri:
        if ":" not in token.value:
            return Iri(token.value)
        prefix, local = token.value.split(":", 1)
        base = self.prefixes.get(prefix)
        if base is None:
            raise QuerySyntaxError(f"unknown prefix {prefix + ':'!r}", token.start)
        return Iri(base + local)


def parse_pattern(text: str, dialect: str = "auto") -> Pattern:
    """Parse either grammar into the pattern AST.

    `dialect` is "compact", "surface", or "auto" (detect from the first
    tokens).  Blank nodes in triple positions are replaced by fresh
    variables; FILTER EXISTS is rewritten to a projected conjunction at
    parse time.
    """
    tokens = _tokenize(text)
    if dialect == "auto":
        dialect = _detect_dialect(tokens)
    if dialect == "compact":
        return _CompactParser(text, tokens).parse()
    if dialect == "surface":
        return _SurfaceParser(text, tokens).parse()
    raise ValueError(f"unknown dialect: {dialect!r}")


def _detect_dialect(tokens: list[_Token]) -> str:
    first = tokens[0]
    if first.kind == "op" and first.value in ("{",):
        return "surface"
    if first.kind == "name" and ":" not in first.value:
        word = first.value.upper()
        if word == "SELECT":
            second = tokens[1] if len(tokens) > 1 else first
            return "compact" if second.kind == "op" and second.value == "{" else "surface"
        if word in _SURFACE_UNSUPPORTED or word == "PREFIX":
            return "surface"
    return "compact"


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
    if isinstance(condition, NotExpr):
        return f"!({serialize_condition(condition.operand)})"
    if isinstance(condition, AndExpr):
        return f"({serialize_condition(condition.left)} && {serialize_condition(condition.right)})"
    if isinstance(condition, OrExpr):
        return f"({serialize_condition(condition.left)} || {serialize_condition(condition.right)})"
    raise ValueError(f"cannot serialize condition: {condition!r}")


_OPERATOR_WORDS = {Union: " UNION ", And: " AND ", Opt: " OPT "}


def serialize_pattern(pattern: Pattern) -> str:
    """Render the compact form; parsing it back yields a structurally equal AST.

    The pieces are written left to right off an explicit stack of pending
    pieces and nodes, so depth costs no frames and the text is built once.
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
            todo += (f" FILTER {serialize_condition(node.condition)}", *wrapped(node.pattern))
        elif isinstance(node, Select):
            names = ", ".join(f"?{v.name}" for v in sorted(node.scheme, key=lambda v: v.name))
            out.append(f"SELECT {{{names}}} (")
            todo += (")", node.pattern)
        else:
            raise ValueError(f"cannot serialize pattern: {node!r}")
    return "".join(out)
