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
    is_reserved_name,
)
from .rewrites import exists_rewrite
from .terms import Iri, Literal, Term, Variable

RDF_TYPE = Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")

#: Each match is one token: the whitespace and comments before it, then
#: the token in its named group, whose name is the token's kind.  At the
#: end of the text the `eof` group matches empty, so the greedy skip never
#: gives a comment back for a later alternative to read.  A pname's local
#: part, and a `^^` datatype pname, never end in a dot: that dot ends the
#: triple.
_TOKEN_RE = re.compile(
    r"""
    \s*(?:\#[^\n]*\s*)*
    (?:
      (?P<iriref><[^<>\s]*>)
    | (?P<string>"(?:[^"\\\n]|\\.)*"(?:@[A-Za-z]+(?:-[A-Za-z0-9]+)*|\^\^(?:<[^<>\s]*>|[A-Za-z0-9_:.-]*[A-Za-z0-9_:-]|(?=\.)))?)
    | (?P<blank>_:[A-Za-z0-9_]+)
    | (?P<var>[?$][A-Za-z0-9_]+)
    | (?P<number>[+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
    | (?P<name>(?:[A-Za-z_][A-Za-z0-9_-]*)?:(?:[A-Za-z0-9_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?)?|[A-Za-z_][A-Za-z0-9_-]*)
    | (?P<op>&&|\|\||!=|<=|>=|\S)
    | (?P<eof>\Z)
    )
    """,
    re.VERBOSE,
)

#: A token is `(kind, value, start, end)`.
_Token = tuple[str, str, int, int]


def _tokenize(text: str) -> list[_Token]:
    """Every token of `text` in one scan, then exactly one `eof` marker."""
    tokens = [
        (kind, m[kind], m.start(kind), m.end()) for m in _TOKEN_RE.finditer(text) if (kind := m.lastgroup)
    ]  # every match has a group: the condition only names it
    if len(tokens) > 1 and tokens[-2][0] == "eof":  # text that ends in whitespace or a comment matches
        tokens.pop()  # `eof` once past them and once more, empty, at the end
    return tokens


_COMPACT_RESERVED = frozenset(("UNION", "AND", "OPT", "FILTER", "SELECT", "EXISTS", "bound"))
#: Binary operators as (precedence, node class), all left-associative.
_PATTERN_OPS = {"OPT": (10, Opt), "UNION": (20, Union), "AND": (30, And)}
_CONDITION_OPS = {"||": (1, OrExpr), "&&": (2, AndExpr)}
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
_BLOCK_STOP_WORDS = _SURFACE_UNSUPPORTED | {"OPTIONAL", "FILTER", "UNION"}
_LITERAL_RE = re.compile(r'"((?:[^"\\\n]|\\.)*)"(.*)$', re.S)


def _unescape_literal(raw: str) -> str:
    match = _LITERAL_RE.match(raw)
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
    """Shared machinery: token cursor, terms, and the filter-condition grammar.

    The texts the parser looks for, operators and keywords, each occur as
    the value of one kind of token only, so the cursor compares values alone.
    """

    surface = False

    def __init__(self, text: str, tokens: list[_Token]):
        self.text = text
        self.tokens = tokens
        self.pos = 0
        self._fresh = 1
        self._blanks: dict[str, Variable] = {}
        self._terms: dict[str, Term] = {}  # variable and pname texts to the terms they read as

    # -- cursor ---------------------------------------------------------------

    def peek(self, ahead: int = 0) -> _Token:
        # the parser looks past a token only once it has seen that the token
        # is not the end marker, so the index stays within the list
        return self.tokens[self.pos + ahead]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        if token[0] != "eof":
            self.pos += 1
        return token

    def expect_op(self, op: str) -> None:
        token = self.tokens[self.pos]
        if token[1] != op:
            raise QuerySyntaxError(f"found {token[1]!r}", token[2], expected=repr(op))
        self.pos += 1

    def at(self, value: str) -> bool:
        return self.tokens[self.pos][1] == value

    def word(self) -> str:
        """The name at the cursor upper-cased, to compare with keywords; else ''."""
        kind, value, _, _ = self.tokens[self.pos]
        return value.upper() if kind == "name" else ""

    def operator(self, table: dict, operands: list, operators: list) -> bool:
        """Apply the pending operators that bind at least as tightly as the
        `table` operator at the cursor, then push it; with none, apply all."""
        op = table.get(self.tokens[self.pos][1])
        prec = 0 if op is None else op[0]
        while operators and operators[-1][0] >= prec:
            right = operands.pop()
            operands[-1] = operators.pop()[1](operands[-1], right)
        if op is None:
            return False
        self.pos += 1
        operators.append(op)
        return True

    # -- terms ----------------------------------------------------------------

    def fresh_var(self) -> Variable:
        var = Variable(f"_g{self._fresh}")
        self._fresh += 1
        return var

    def make_var(self, token: _Token) -> Variable:
        text = token[1]
        var = self._terms.get(text)
        if var is None:
            if is_reserved_name(text[1:]):
                raise QuerySyntaxError(
                    f"variable name {text!r} uses the reserved fresh-name prefix", token[2]
                )
            var = self._terms[text] = Variable(text[1:])
        return var

    def blank_var(self, label: str) -> Variable:
        if label not in self._blanks:
            self._blanks[label] = self.fresh_var()
        return self._blanks[label]

    def term(self) -> Term:
        """The term at the cursor, read alike in a triple and in a filter
        comparison.  A surface query reads `[ ]` as a fresh variable,
        `true` and `false` as literals, and resolves any other name as a
        pname; the compact grammar reads a name as the IRI it spells."""
        token = self.advance()
        kind, value, start, _ = token
        if kind == "var":
            return self.make_var(token)
        if kind == "name":
            if not self.surface:
                return Iri(value)
            if value in ("true", "false"):
                return Literal(value)
            return self._resolve_pname(token)
        if kind == "iriref":
            return Iri(value[1:-1])
        if kind == "string":
            return Literal(_unescape_literal(value))
        if kind == "number":
            return Literal(value)
        if kind == "blank":
            return self.blank_var(value[2:])
        if value == "[" and self.surface:
            self.expect_op("]")
            return self.fresh_var()
        raise QuerySyntaxError(f"found {value!r}", start, expected="a term")

    def variables(self) -> set[Variable]:
        """The variables of a SELECT list at the cursor, commas optional."""
        found: set[Variable] = set()
        while self.peek()[0] == "var":
            found.add(self.make_var(self.advance()))
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
        kind, value, start, _ = token
        bound_name = self.word() == "BOUND" if self.surface else value == "bound"
        if bound_name and self.peek(1)[1] == "(":
            self.advance()
            self.expect_op("(")
            var_token = self.peek()
            if var_token[0] != "var":
                raise QuerySyntaxError("bound() takes a variable", var_token[2])
            var = self.make_var(self.advance())
            self.expect_op(")")
            return Bound(var)
        if kind == "var":
            return self._cond_from_var(token)
        if kind == "name" and self.peek(1)[1] == "(":
            return self._opaque_call(start)
        if kind in ("iriref", "string", "number", "name"):
            return self._cond_from_constant(token)
        raise QuerySyntaxError(f"found {value!r} in a filter condition", start)

    def _cond_from_var(self, first: _Token) -> FilterCondition:
        _, _, start, first_end = first
        var = self.make_var(self.advance())
        op = self.peek()[1]
        if op in ("=", "!="):
            rhs_kind, _, _, rhs_end = self.peek(1)
            if rhs_kind == "var":
                self.advance()
                other = self.make_var(self.advance())
                if op == "=":
                    return Eq(var, other)
                if var == other:  # ?x != ?x is not one of the atomic forms
                    return Opaque(self.text[start:rhs_end], frozenset((var,)))
                return Neq(var, other)
            if rhs_kind in ("iriref", "string", "number") or (
                rhs_kind == "name" and self.peek(2)[1] != "("
            ):
                self.advance()
                constant = self.term()
                return EqC(var, constant) if op == "=" else NeqC(var, constant)
            return self._opaque_until_stop(start)
        if op in _CMP_OPS or self.word() == "IN":
            return self._opaque_until_stop(start)
        # a bare variable used as an effective-boolean filter
        return Opaque(self.text[start:first_end], frozenset((var,)))

    def _cond_from_constant(self, first: _Token) -> FilterCondition:
        start = first[2]
        constant = self.term()
        if self.peek()[1] in ("=", "!=") and self.peek(1)[0] == "var":
            op = self.advance()[1]
            var = self.make_var(self.advance())
            return EqC(var, constant) if op == "=" else NeqC(var, constant)
        return self._opaque_until_stop(start)

    def _opaque_call(self, start: int) -> Opaque:
        self.advance()  # function name
        mentions = self._consume_balanced()
        end = self.tokens[self.pos - 1][3]
        if self.peek()[1] in _CMP_OPS:
            self.advance()
            rhs_kind = self.peek()[0]
            if rhs_kind == "var":
                mentions |= {self.make_var(self.advance())}
            elif rhs_kind == "name" and self.peek(1)[1] == "(":
                self.advance()
                mentions |= self._consume_balanced()
            elif rhs_kind in ("iriref", "string", "number", "name"):
                self.advance()
            end = self.tokens[self.pos - 1][3]
        return Opaque(self.text[start:end], frozenset(mentions))

    def _consume_balanced(self) -> frozenset:
        """Consume a parenthesized argument list, collecting mentioned variables."""
        self.expect_op("(")
        depth = 1
        mentions: set[Variable] = set()
        while depth:
            token = self.advance()
            kind, value, start, _ = token
            if kind == "eof":
                raise QuerySyntaxError("unbalanced parentheses in builtin call", start)
            if value == "(":
                depth += 1
            elif value == ")":
                depth -= 1
            elif kind == "var":
                mentions.add(self.make_var(token))
        return frozenset(mentions)

    def _opaque_until_stop(self, start: int) -> Opaque:
        mentions: set[Variable] = set()
        depth = 0
        while True:
            token = self.peek()
            kind, value, _, _ = token
            if kind == "eof":
                break
            if kind == "op":
                if value == "(":
                    depth += 1
                elif value == ")":
                    if depth == 0:
                        break
                    depth -= 1
                elif depth == 0 and value in _COND_STOP:
                    break
            elif kind == "name" and depth == 0 and value.upper() in _COND_STOP_WORDS:
                break
            elif kind == "var":
                mentions.add(self.make_var(token))
            self.advance()
        end = self.tokens[self.pos - 1][3]
        return Opaque(self.text[start:end].strip(), frozenset(mentions))


class _CompactParser(_Parser):
    def parse(self) -> Pattern:
        """A `(`, SELECT or EXISTS pushes a marker with what to apply at its `)`."""
        operands, operators = [], []
        pattern = None  # the unit just read, until an operator or a `)` follows it
        while True:
            if pattern is None:
                open_token = self.advance()
                if open_token[1] == "SELECT":
                    self.expect_op("{")
                    scheme = self.variables()
                    self.expect_op("}")
                    self.expect_op("(")
                    finish = partial(Select, frozenset(scheme))
                elif open_token[1] != "(":
                    raise QuerySyntaxError(f"found {open_token[1]!r}", open_token[2], expected="'(' or SELECT")
                elif self._looks_like_triple():
                    terms = (self.term(), self.term(), self.term())
                    self.expect_op(")")
                    try:
                        pattern = TriplePattern(*terms)
                    except ValueError as exc:
                        raise QuerySyntaxError(str(exc), open_token[2]) from exc
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
                finish = partial(exists_rewrite, pattern)
            else:
                operands.append(pattern)
                pattern = None
                if self.operator(_PATTERN_OPS, operands, operators):
                    continue
                if not operators:
                    kind, value, start, _ = self.peek()
                    if kind != "eof":
                        raise QuerySyntaxError(f"trailing {value!r}", start)
                    return operands[0]
                self.expect_op(")")
                pattern, finish = operands.pop(), operators.pop()[1]
                if finish is not None:
                    pattern = finish(pattern)
                continue
            operators.append((-1, finish))
            pattern = None

    def _looks_like_triple(self) -> bool:
        for ahead in range(3):
            kind, value, _, _ = self.peek(ahead)
            if kind not in _TERM_KINDS or value in _COMPACT_RESERVED:
                return False
        return self.peek(3)[1] == ")"


class _SurfaceParser(_Parser):
    surface = True

    def __init__(self, text: str, tokens: list[_Token]):
        super().__init__(text, tokens)
        self.prefixes: dict[str, str] = {}

    def parse(self) -> Pattern:
        while self.word() == "PREFIX":
            self.advance()
            name_kind, name, name_start, _ = self.peek()
            if name_kind != "name" or not name.endswith(":"):
                raise QuerySyntaxError("malformed PREFIX declaration", name_start)
            self.advance()
            iri_kind, iri, iri_start, _ = self.peek()
            if iri_kind != "iriref":
                raise QuerySyntaxError("PREFIX needs an IRI", iri_start)
            self.advance()
            self.prefixes[name[:-1]] = iri[1:-1]

        _, value, start, _ = self.peek()
        word = self.word()
        if word in _SURFACE_UNSUPPORTED:
            raise UnsupportedFeature(word, start)
        if word != "SELECT":
            raise QuerySyntaxError(f"found {value!r}", start, expected="a SELECT query")
        self.advance()
        if self.word() in ("DISTINCT", "REDUCED"):
            self.advance()
        scheme: frozenset | None = None
        if self.at("*"):
            self.advance()
        else:
            variables = self.variables()
            if not variables:
                _, value, start, _ = self.peek()
                raise QuerySyntaxError(f"found {value!r}", start, expected="'*' or variables")
            scheme = frozenset(variables)
        if self.word() == "WHERE":
            self.advance()
        body = self._braced_group()
        kind, value, start, _ = self.peek()
        if kind != "eof":
            word = self.word()
            if word in _SURFACE_UNSUPPORTED:
                raise UnsupportedFeature(word, start)
            raise QuerySyntaxError(f"trailing {value!r}", start)
        return Select(scheme, body) if scheme is not None else body

    def _braced_group(self) -> Pattern:
        """A nested group saves its role ("opt", "exists", or "and" with the
        left side of its UNION) and the enclosing group's state."""
        self.expect_op("{")
        stack, elements, filters, leading_optional = [], [], [], -1
        while True:
            kind, value, start, _ = self.peek()
            word = self.word()
            if kind == "eof" or value == "}":
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
                    leading_optional = start  # nothing precedes this OPTIONAL
                self.advance()
                role, left = "opt", None
            elif word == "FILTER":
                self.advance()
                word = self.word()
                if word == "EXISTS":
                    self.advance()
                    role, left = "exists", None
                elif word == "NOT":
                    raise UnsupportedFeature("NOT EXISTS", self.peek()[2])
                else:
                    filters.append((Filter, self.condition()))
                    continue
            elif word in _SURFACE_UNSUPPORTED:
                raise UnsupportedFeature(word, start)
            elif value == "{":
                role, left = "and", None
            elif value == ".":
                self.advance()
                continue
            elif kind in _TERM_KINDS or value == "[":
                self._triple_block(elements)
                continue
            else:
                raise QuerySyntaxError(f"found {value!r} in a group", start)
            stack.append((elements, filters, leading_optional, role, left))
            self.expect_op("{")
            elements, filters, leading_optional = [], [], -1

    def _group_pattern(self, elements: list, filters: list, leading_optional: int) -> Pattern:
        """Fold a group's elements left to right, then apply its filters."""
        pattern: Pattern | None = None
        for kind, sub in elements:
            if kind == "and":
                pattern = sub if pattern is None else And(pattern, sub)
            else:
                if pattern is None:
                    raise UnsupportedFeature("OPTIONAL without a preceding pattern", leading_optional)
                pattern = Opt(pattern, sub)
        if pattern is None:
            raise QuerySyntaxError("empty group pattern", self.peek()[2])
        for make, payload in filters:  # `Filter` with a condition, `exists_rewrite` with a subquery
            pattern = make(pattern, payload)
        return pattern

    def _triple_block(self, elements: list):
        subject = self.term()
        while True:
            predicate = self._predicate()
            _, value, start, _ = self.peek()
            if value in ("/", "|", "^", "*", "+", "?"):
                raise UnsupportedFeature("property paths", start)
            obj = self.term()
            elements.append(("and", self._make_triple(subject, predicate, obj)))
            while self.at(","):
                self.advance()
                obj = self.term()
                elements.append(("and", self._make_triple(subject, predicate, obj)))
            if self.at(";"):
                self.advance()
                if self.peek()[0] in _TERM_KINDS and self.word() not in _BLOCK_STOP_WORDS:
                    continue
            break
        if self.at("."):
            self.advance()

    def _make_triple(self, subject: Term, predicate: Term, obj: Term) -> TriplePattern:
        try:
            return TriplePattern(subject, predicate, obj)
        except ValueError as exc:
            raise QuerySyntaxError(str(exc), self.peek()[2]) from exc

    def _predicate(self) -> Term:
        kind, value, start, _ = self.peek()
        if value == "a":
            self.advance()
            return RDF_TYPE
        if kind == "var":
            return self.make_var(self.advance())
        if kind == "iriref":
            self.advance()
            return Iri(value[1:-1])
        if kind == "name":
            return self._resolve_pname(self.advance())
        raise QuerySyntaxError(f"found {value!r}", start, expected="a predicate")

    def _resolve_pname(self, token: _Token) -> Iri:
        _, value, start, _ = token
        iri = self._terms.get(value)
        if iri is None:
            if ":" not in value:
                iri = Iri(value)
            else:
                prefix, local = value.split(":", 1)
                base = self.prefixes.get(prefix)
                if base is None:
                    raise QuerySyntaxError(f"unknown prefix {prefix + ':'!r}", start)
                iri = Iri(base + local)
            self._terms[value] = iri
        return iri


def parse_pattern(text: str) -> Pattern:
    """Parse either grammar, told apart by its first tokens, into the
    pattern AST.

    Blank nodes in triple positions are replaced by fresh variables; FILTER
    EXISTS is rewritten to a projected conjunction at parse time.
    """
    tokens = _tokenize(text)
    return _detect_dialect(tokens)(text, tokens).parse()


def _detect_dialect(tokens: list[_Token]) -> type[_Parser]:
    kind, value, _, _ = tokens[0]
    if value == "{":
        return _SurfaceParser
    if kind == "name":
        word = value.upper()
        if word == "SELECT":  # a name is followed at least by the end marker
            return _CompactParser if tokens[1][1] == "{" else _SurfaceParser
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
