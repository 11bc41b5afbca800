"""The pattern algebra: triple patterns, constraints, and the pattern AST.

A pattern is a finite tree built from triple patterns with UNION, AND, OPT,
and FILTER, plus a SELECT projection node kept as a flagged extension so the
core analyses can insist on its absence.  Filter conditions are either one of
the six atomic constraint forms or a boolean combination of atoms awaiting
normalization.

Every pass folds a pattern bottom-up along `post_order`, one explicit-stack
walk that lists each distinct node after its descendants, so no pass
recurses; `rebuilt` rebuilds a node only when a child changed.
`pattern_facts` collects what a pattern contains (variables, constants,
filter variables and conditions, triples, node classes, the post-order)
into one `PatternFacts` record in that walk; the helpers here read it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from .terms import Constant, Iri, Literal, Scheme, Term, Variable, is_constant

#: Variables with this prefix are reserved for generated fresh names.
RESERVED_VAR_PREFIX = "_g"
_RESERVED_RE = re.compile(r"_g(\d+)$")


#: The term classes a triple pattern takes by exact type, checked first;
#: anything else goes through the checks that name what is wrong.
_PATTERN_TERMS = frozenset((Iri, Literal, Variable))
_PATTERN_PREDICATES = frozenset((Iri, Variable))


@dataclass(frozen=True, slots=True)
class TriplePattern:
    """A triple pattern; blank nodes are excluded (pre-replaced by variables)."""

    subject: Term
    predicate: Term
    object: Term

    def __post_init__(self):
        if type(self.subject) in _PATTERN_TERMS and type(self.object) in _PATTERN_TERMS and (
            type(self.predicate) in _PATTERN_PREDICATES
        ):
            return
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
    if isinstance(condition, (Bound, NegBound, EqC, NeqC)):
        return frozenset((condition.var,))
    if isinstance(condition, (Eq, Neq)):
        return frozenset((condition.left, condition.right))
    if isinstance(condition, Opaque):
        return condition.mentions
    found = set()
    for node in post_order(condition, _rename_operands):  # a composite condition's nodes
        if isinstance(node, (Bound, NegBound, EqC, NeqC)):
            found.add(node.var)
        elif isinstance(node, (Eq, Neq)):
            found.update((node.left, node.right))
        elif isinstance(node, Opaque):
            found.update(node.mentions)
    return frozenset(found)


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
    kind = type(pattern)
    if kind is And or kind is Opt or kind is Union:
        return (pattern.left, pattern.right)
    if kind is Filter or kind is Select:
        return (pattern.pattern,)
    return ()


def post_order(pattern: Pattern, operands=children, shared: set | None = None, pre: list | None = None) -> list:
    """Each distinct node (by identity) once, after all of its `operands`
    (default `children`), left first; an explicit stack makes depth no limit.
    A node reached again, below a second parent, is skipped and its id added
    to `shared` if given; `pre`, if given, receives the nodes in pre-order.
    """
    post, seen, stack = [], set(), [pattern]
    shared = set() if shared is None else shared
    while stack:
        node = stack.pop()
        if type(node) is tuple:  # every operand of node[0] is listed
            post.append(node[0])
        elif id(node) in seen:
            shared.add(id(node))
        else:
            seen.add(id(node))
            if pre is not None:
                pre.append(node)
            kids = operands(node)
            if kids:
                stack.append((node,))
                stack.extend(kids[::-1])
            else:
                post.append(node)
    return post


def rebuilt(node: Pattern, done: dict) -> Pattern:
    """`node` over its children's results `done[id(child)]`; `node` itself
    when every child's result is that child."""
    kind = type(node)
    if kind in BINARY_TYPES:
        left, right = done[id(node.left)], done[id(node.right)]
        return node if left is node.left and right is node.right else kind(left, right)
    if kind is Filter or kind is Select:
        sub = done[id(node.pattern)]
        return node if sub is node.pattern else replace(node, pattern=sub)
    return node


@dataclass(frozen=True, slots=True)
class PatternFacts:
    """What a pattern contains, collected by `pattern_facts` in one walk.

    Each distinct node counts once.  `triples` and `conditions` keep
    pre-order, left child first; `filter_variables` are the variables of the
    filter conditions, and `variables` add those of triples and SELECT
    schemes; `order` is `post_order(pattern)`, for the passes that fold it,
    and `shares` tells whether a node is reached below two parents.
    """

    variables: Scheme
    constants: frozenset
    filter_variables: Scheme
    conditions: tuple
    triples: tuple
    node_types: frozenset
    order: tuple
    shares: bool


def pattern_facts(pattern: Pattern) -> PatternFacts:
    """Collect the facts of a pattern in one walk."""
    variables, constants, filter_vars, node_types = set(), set(), set(), set()
    conditions, triples, pre, shared = [], [], [], set()
    post = post_order(pattern, shared=shared, pre=pre)
    for node in pre:
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
        elif kind is Select:
            variables.update(node.scheme)
    return PatternFacts(
        frozenset(variables | filter_vars), frozenset(constants), frozenset(filter_vars),
        tuple(conditions), tuple(triples), frozenset(node_types), tuple(post), bool(shared),
    )


def vars_of(pattern: Pattern) -> Scheme:
    """All variables occurring in triple patterns, filters, and SELECT schemes."""
    return pattern_facts(pattern).variables


def constants_of(pattern: Pattern) -> frozenset:
    """All constants occurring in triple patterns or filter conditions."""
    return pattern_facts(pattern).constants


def contains_node(pattern: Pattern, node_type) -> bool:
    return any(issubclass(kind, node_type) for kind in pattern_facts(pattern).node_types)


def _rename_operands(node) -> tuple:
    """A pattern node's children, with a FILTER's condition after its
    pattern, and a composite condition's operands."""
    kind = type(node)
    if kind is Filter:
        return (node.pattern, node.condition)
    if kind is NotExpr:
        return (node.operand,)
    if kind is AndExpr or kind is OrExpr:
        return (node.left, node.right)
    return children(node)


def rename_vars(pattern: Pattern, renaming: dict[Variable, Variable]) -> Pattern:
    """Apply a variable renaming throughout a pattern and its filter
    conditions, in one walk over both."""
    done: dict = {}
    for node in post_order(pattern, _rename_operands):
        kind = type(node)
        if kind is TriplePattern:
            out = TriplePattern(*(renaming.get(t, t) for t in node.terms()))
        elif kind is Filter:
            out = Filter(done[id(node.pattern)], done[id(node.condition)])
        elif kind is Select:
            out = Select(frozenset(renaming.get(v, v) for v in node.scheme), done[id(node.pattern)])
        elif kind is NotExpr:
            out = NotExpr(done[id(node.operand)])
        elif kind is AndExpr or kind is OrExpr:
            out = kind(done[id(node.left)], done[id(node.right)])
        elif kind is Opaque:
            out = Opaque(node.text, frozenset(renaming.get(v, v) for v in node.mentions))
        elif kind in CONSTRAINT_TYPES:  # rename its variables, keep its constant
            out = kind(*(renaming.get(t, t) for t in (getattr(node, f) for f in node.__slots__)))
        else:
            out = rebuilt(node, done)
        done[id(node)] = out
    return done[id(pattern)]


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
