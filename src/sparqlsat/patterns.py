"""The pattern algebra: triple patterns, constraints, and the pattern AST.

A pattern is a finite tree built from triple patterns with UNION, AND, OPT,
and FILTER, plus a SELECT projection node kept as a flagged extension so the
core analyses can insist on its absence.  Filter conditions are either one of
the six atomic constraint forms or a boolean combination of atoms awaiting
normalization.  `pattern_facts` collects what a pattern contains (variables,
constants, filter variables and conditions, triples, node classes) into one
`PatternFacts` record in a single walk, and the helpers here read from it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

from .terms import Constant, Iri, Literal, Scheme, Term, Variable, is_constant

#: Variables with this prefix are reserved for generated fresh names.
RESERVED_VAR_PREFIX = "_g"
_RESERVED_RE = re.compile(r"_g(\d+)$")


@dataclass(frozen=True, slots=True)
class TriplePattern:
    """A triple pattern; blank nodes are excluded (pre-replaced by variables)."""

    subject: Term
    predicate: Term
    object: Term

    def __post_init__(self):
        for position, term in (("subject", self.subject), ("predicate", self.predicate), ("object", self.object)):
            if not isinstance(term, (Iri, Literal, Variable)):
                raise ValueError(f"triple pattern {position} must be an IRI, literal, or variable: {term!r}")
        if isinstance(self.predicate, Literal):
            raise ValueError("triple pattern predicate must not be a literal")

    def terms(self) -> tuple[Term, Term, Term]:
        return (self.subject, self.predicate, self.object)

    def variables(self) -> Scheme:
        return frozenset(t for t in self.terms() if isinstance(t, Variable))


# --- atomic constraints (the six forms) -------------------------------------

@dataclass(frozen=True, slots=True)
class Bound:
    var: Variable


@dataclass(frozen=True, slots=True)
class NegBound:
    var: Variable


@dataclass(frozen=True, slots=True)
class Eq:
    left: Variable
    right: Variable


@dataclass(frozen=True, slots=True)
class Neq:
    left: Variable
    right: Variable

    def __post_init__(self):
        if self.left == self.right:
            raise ValueError("nonequality requires two distinct variables")


@dataclass(frozen=True, slots=True)
class EqC:
    var: Variable
    constant: Constant

    def __post_init__(self):
        if not is_constant(self.constant):
            raise ValueError(f"constraint constant must be an IRI or literal: {self.constant!r}")


@dataclass(frozen=True, slots=True)
class NeqC:
    var: Variable
    constant: Constant

    def __post_init__(self):
        if not is_constant(self.constant):
            raise ValueError(f"constraint constant must be an IRI or literal: {self.constant!r}")


Constraint = Bound | NegBound | Eq | Neq | EqC | NeqC
CONSTRAINT_TYPES = (Bound, NegBound, Eq, Neq, EqC, NeqC)


# --- composite filter conditions (pre-normalization surface forms) ----------

@dataclass(frozen=True, slots=True)
class Opaque:
    """A builtin call we do not interpret, with the variables it mentions."""

    text: str
    mentions: Scheme


@dataclass(frozen=True, slots=True)
class NotExpr:
    operand: "FilterCondition"


@dataclass(frozen=True, slots=True)
class AndExpr:
    left: "FilterCondition"
    right: "FilterCondition"


@dataclass(frozen=True, slots=True)
class OrExpr:
    left: "FilterCondition"
    right: "FilterCondition"


FilterCondition = Constraint | Opaque | NotExpr | AndExpr | OrExpr


def is_atomic(condition: FilterCondition) -> bool:
    return isinstance(condition, CONSTRAINT_TYPES)


def condition_vars(condition: FilterCondition) -> Scheme:
    """All variables mentioned by a filter condition, atomic or composite."""
    if isinstance(condition, (Bound, NegBound)):
        return frozenset((condition.var,))
    if isinstance(condition, (Eq, Neq)):
        return frozenset((condition.left, condition.right))
    if isinstance(condition, (EqC, NeqC)):
        return frozenset((condition.var,))
    if isinstance(condition, Opaque):
        return condition.mentions
    if isinstance(condition, NotExpr):
        return condition_vars(condition.operand)
    return condition_vars(condition.left) | condition_vars(condition.right)


# --- the pattern AST ---------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Union:
    left: "Pattern"
    right: "Pattern"


@dataclass(frozen=True, slots=True)
class And:
    left: "Pattern"
    right: "Pattern"


@dataclass(frozen=True, slots=True)
class Opt:
    left: "Pattern"
    right: "Pattern"


@dataclass(frozen=True, slots=True)
class Filter:
    pattern: "Pattern"
    condition: FilterCondition


@dataclass(frozen=True, slots=True)
class Select:
    """Projection extension node; core analyses require its prior elimination."""

    scheme: Scheme
    pattern: "Pattern"


Pattern = TriplePattern | Union | And | Opt | Filter | Select
BINARY_TYPES = (Union, And, Opt)

#: A tree position: a path of child indices from the root (0 = left/only child).
Position = tuple


def children(pattern: Pattern) -> tuple[Pattern, ...]:
    if isinstance(pattern, BINARY_TYPES):
        return (pattern.left, pattern.right)
    if isinstance(pattern, Filter):
        return (pattern.pattern,)
    if isinstance(pattern, Select):
        return (pattern.pattern,)
    return ()


def iter_subpatterns(pattern: Pattern) -> Iterator[Pattern]:
    """Pre-order traversal of all subpattern occurrences."""
    stack = [pattern]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


@dataclass(frozen=True, slots=True)
class PatternFacts:
    """What a pattern contains, collected by `pattern_facts` in one walk.

    `triples` and `conditions` keep pre-order with repeats, the order of
    `iter_subpatterns`; `filter_variables` are the variables of the filter
    conditions, and `variables` add those of triples and SELECT schemes.
    """

    variables: Scheme
    constants: frozenset
    filter_variables: Scheme
    conditions: tuple
    triples: tuple
    node_types: frozenset


def pattern_facts(pattern: Pattern) -> PatternFacts:
    """Collect the facts of a pattern in one pre-order walk, left child first."""
    variables, constants, filter_vars, node_types = set(), set(), set(), set()
    conditions, triples = [], []
    stack = [pattern]
    while stack:
        node = stack.pop()
        kind = type(node)
        node_types.add(kind)
        if kind is TriplePattern:
            triples.append(node)
            for term in (node.subject, node.predicate, node.object):
                (variables if type(term) is Variable else constants).add(term)
        elif kind is Filter:
            conditions.append(node.condition)
            todo = [node.condition]
            while todo:
                condition = todo.pop()
                if isinstance(condition, NotExpr):
                    todo.append(condition.operand)
                elif isinstance(condition, (AndExpr, OrExpr)):
                    todo += (condition.right, condition.left)
                else:
                    filter_vars.update(condition_vars(condition))
                    if isinstance(condition, (EqC, NeqC)):
                        constants.add(condition.constant)
            stack.append(node.pattern)
        elif kind is Select:
            variables.update(node.scheme)
            stack.append(node.pattern)
        elif kind in BINARY_TYPES:
            stack.append(node.right)
            stack.append(node.left)
    return PatternFacts(
        frozenset(variables | filter_vars), frozenset(constants), frozenset(filter_vars),
        tuple(conditions), tuple(triples), frozenset(node_types),
    )


def vars_of(pattern: Pattern) -> Scheme:
    """All variables occurring in triple patterns, filters, and SELECT schemes."""
    return pattern_facts(pattern).variables


def constants_of(pattern: Pattern) -> frozenset:
    """All constants occurring in triple patterns or filter conditions."""
    return pattern_facts(pattern).constants


def contains_node(pattern: Pattern, node_type) -> bool:
    return any(issubclass(kind, node_type) for kind in pattern_facts(pattern).node_types)


def rename_condition(condition: FilterCondition, renaming: dict[Variable, Variable]) -> FilterCondition:
    def r(v: Variable) -> Variable:
        return renaming.get(v, v)

    if isinstance(condition, Bound):
        return Bound(r(condition.var))
    if isinstance(condition, NegBound):
        return NegBound(r(condition.var))
    if isinstance(condition, Eq):
        return Eq(r(condition.left), r(condition.right))
    if isinstance(condition, Neq):
        return Neq(r(condition.left), r(condition.right))
    if isinstance(condition, EqC):
        return EqC(r(condition.var), condition.constant)
    if isinstance(condition, NeqC):
        return NeqC(r(condition.var), condition.constant)
    if isinstance(condition, Opaque):
        return Opaque(condition.text, frozenset(r(v) for v in condition.mentions))
    if isinstance(condition, NotExpr):
        return NotExpr(rename_condition(condition.operand, renaming))
    if isinstance(condition, AndExpr):
        return AndExpr(rename_condition(condition.left, renaming), rename_condition(condition.right, renaming))
    return OrExpr(rename_condition(condition.left, renaming), rename_condition(condition.right, renaming))


def rename_vars(pattern: Pattern, renaming: dict[Variable, Variable]) -> Pattern:
    """Apply a variable renaming throughout a pattern."""

    def term(t: Term) -> Term:
        return renaming.get(t, t) if isinstance(t, Variable) else t

    if isinstance(pattern, TriplePattern):
        return TriplePattern(term(pattern.subject), term(pattern.predicate), term(pattern.object))
    if isinstance(pattern, Union):
        return Union(rename_vars(pattern.left, renaming), rename_vars(pattern.right, renaming))
    if isinstance(pattern, And):
        return And(rename_vars(pattern.left, renaming), rename_vars(pattern.right, renaming))
    if isinstance(pattern, Opt):
        return Opt(rename_vars(pattern.left, renaming), rename_vars(pattern.right, renaming))
    if isinstance(pattern, Filter):
        return Filter(rename_vars(pattern.pattern, renaming), rename_condition(pattern.condition, renaming))
    return Select(frozenset(renaming.get(v, v) for v in pattern.scheme), rename_vars(pattern.pattern, renaming))


def is_reserved_name(name: str) -> bool:
    return _RESERVED_RE.fullmatch(name) is not None


class FreshVars:
    """Deterministic fresh-variable allocator with the reserved ``_g<N>`` prefix.

    The counter starts past the largest reserved index already present in the
    seed patterns and in `variables`, so repeated rewrites never collide.
    """

    def __init__(self, *patterns: Pattern, variables: Scheme = frozenset()):
        start = 0
        for var in variables.union(*(vars_of(pattern) for pattern in patterns)):
            match = _RESERVED_RE.fullmatch(var.name)
            if match:
                start = max(start, int(match.group(1)))
        self._next = start + 1

    def take(self) -> Variable:
        var = Variable(f"{RESERVED_VAR_PREFIX}{self._next}")
        self._next += 1
        return var
