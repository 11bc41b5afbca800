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
into one `PatternFacts` record in one loop of the same shape, reading each
node as it first reaches it; the helpers here read the record.
`rename_vars` walks down and back up on its own stack, carrying the
renaming in force, so one call applies renamings scoped to many subtrees.
"""

from __future__ import annotations

import re
from operator import is_

from .record import Record, _setattr, slot_setters
from .terms import Constant, Iri, Literal, Scheme, Term, Variable, is_constant

#: Variables with this prefix are reserved for generated fresh names.
RESERVED_VAR_PREFIX = "_g"
_RESERVED_RE = re.compile(r"_g(\d+)$")


#: The term classes a triple pattern takes by exact type, checked first;
#: anything else goes through the checks that name what is wrong.
_PATTERN_TERMS = frozenset((Iri, Literal, Variable))
_PATTERN_PREDICATES = frozenset((Iri, Variable))


class TriplePattern(Record):
    """A triple pattern; blank nodes are excluded (pre-replaced by variables)."""

    __slots__ = ("subject", "predicate", "object")

    def __init__(self, subject: Term, predicate: Term, object: Term):
        if type(subject) not in _PATTERN_TERMS or type(object) not in _PATTERN_TERMS or (
            type(predicate) not in _PATTERN_PREDICATES
        ):
            for position, term in (("subject", subject), ("predicate", predicate), ("object", object)):
                if not isinstance(term, (Iri, Literal, Variable)):
                    raise ValueError(f"triple pattern {position} must be an IRI, literal, or variable: {term!r}")
            if isinstance(predicate, Literal):
                raise ValueError("triple pattern predicate must not be a literal")
        _set_subject(self, subject)
        _set_predicate(self, predicate)
        _set_object(self, object)

    def terms(self) -> tuple[Term, Term, Term]:
        return (self.subject, self.predicate, self.object)

    def variables(self) -> Scheme:
        return frozenset(t for t in self.terms() if isinstance(t, Variable))


_set_subject, _set_predicate, _set_object = slot_setters(TriplePattern)


# --- constructors shared by the node classes below ----------------------------

def _init_var(self, var: Variable):
    _setattr(self, "var", var)


def _pair_init_for(cls: type):
    """An `__init__` for `cls`, of the fields `left` and `right`, that sets
    them through their slot setters."""
    set_left, set_right = slot_setters(cls)

    def __init__(self, left, right):
        set_left(self, left)
        set_right(self, right)

    return __init__


def _init_var_constant(self, var: Variable, constant: Constant):
    if not is_constant(constant):
        raise ValueError(f"constraint constant must be an IRI or literal: {constant!r}")
    _setattr(self, "var", var)
    _setattr(self, "constant", constant)


# --- atomic constraints (the six forms) -------------------------------------

class Bound(Record):
    __slots__ = ("var",)
    __init__ = _init_var


class NegBound(Record):
    __slots__ = ("var",)
    __init__ = _init_var


class Eq(Record):
    __slots__ = ("left", "right")


class Neq(Record):
    __slots__ = ("left", "right")

    def __init__(self, left: Variable, right: Variable):
        if left == right:
            raise ValueError("nonequality requires two distinct variables")
        _init_neq(self, left, right)


class EqC(Record):
    __slots__ = ("var", "constant")
    __init__ = _init_var_constant


class NeqC(Record):
    __slots__ = ("var", "constant")
    __init__ = _init_var_constant


Constraint = Bound | NegBound | Eq | Neq | EqC | NeqC
CONSTRAINT_TYPES = (Bound, NegBound, Eq, Neq, EqC, NeqC)


# --- composite filter conditions (pre-normalization surface forms) ----------

class Opaque(Record):
    """A builtin call we do not interpret, with the variables it mentions."""

    __slots__ = ("text", "mentions")

    def __init__(self, text: str, mentions: Scheme):
        _setattr(self, "text", text)
        _setattr(self, "mentions", mentions)


class NotExpr(Record):
    __slots__ = ("operand",)


class AndExpr(Record):
    __slots__ = ("left", "right")


class OrExpr(Record):
    __slots__ = ("left", "right")


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

class Union(Record):
    __slots__ = ("left", "right")


class And(Record):
    __slots__ = ("left", "right")


class Opt(Record):
    __slots__ = ("left", "right")


for _pair in (Eq, AndExpr, OrExpr, Union, And, Opt):
    _pair.__init__ = _pair_init_for(_pair)
_init_neq = _pair_init_for(Neq)


class Filter(Record):
    __slots__ = ("pattern", "condition")

    def __init__(self, pattern: "Pattern", condition: FilterCondition):
        _set_pattern(self, pattern)
        _set_condition(self, condition)


_set_pattern, _set_condition = slot_setters(Filter)


class Select(Record):
    """Projection extension node; core analyses require its prior elimination."""

    __slots__ = ("scheme", "pattern")

    def __init__(self, scheme: Scheme, pattern: "Pattern"):
        _setattr(self, "scheme", scheme)
        _setattr(self, "pattern", pattern)


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


def post_order(pattern: Pattern, operands=children, shared: set | None = None) -> list:
    """Each distinct node (by identity) once, after all of its `operands`
    (default `children`), left first; an explicit stack makes depth no limit.
    A node reached again, below a second parent, is skipped and its id added
    to `shared` if given.
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
    if kind is Filter:
        sub = done[id(node.pattern)]
        return node if sub is node.pattern else Filter(sub, node.condition)
    if kind is Select:
        sub = done[id(node.pattern)]
        return node if sub is node.pattern else Select(node.scheme, sub)
    return node


class PatternFacts(Record):
    """What a pattern contains, collected by `pattern_facts` in one walk.

    Each distinct node counts once.  `triples` and `conditions` keep
    pre-order, left child first; `filter_variables` are the variables of the
    filter conditions, and `variables` add those of triples and SELECT
    schemes; `order` is `post_order(pattern)`, for the passes that fold it,
    and `shares` tells whether a node is reached below two parents.
    """

    __slots__ = (
        "variables", "constants", "filter_variables", "conditions", "triples", "node_types", "order", "shares",
    )

    def __init__(self, variables: Scheme, constants: frozenset, filter_variables: Scheme, conditions: tuple,
                 triples: tuple, node_types: frozenset, order: tuple, shares: bool):
        _setattr(self, "variables", variables)
        _setattr(self, "constants", constants)
        _setattr(self, "filter_variables", filter_variables)
        _setattr(self, "conditions", conditions)
        _setattr(self, "triples", triples)
        _setattr(self, "node_types", node_types)
        _setattr(self, "order", order)
        _setattr(self, "shares", shares)


def pattern_facts(pattern: Pattern) -> PatternFacts:
    """Collect the facts of a pattern in one walk: the loop of `post_order`,
    reading each node's facts when it first reaches the node, in pre-order."""
    variables, constants, filter_vars, node_types = set(), set(), set(), set()
    conditions, triples, post, seen, stack = [], [], [], set(), [pattern]
    shares = False
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is tuple:  # every child of node[0] is listed
            post.append(node[0])
            continue
        if id(node) in seen:
            shares = True
            continue
        seen.add(id(node))
        node_types.add(kind)
        if kind is TriplePattern:
            post.append(node)
            triples.append(node)
            for term in (node.subject, node.predicate, node.object):
                (variables if type(term) is Variable else constants).add(term)
            continue
        stack.append((node,))
        if kind is Filter:
            stack.append(node.pattern)
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
            stack.append(node.pattern)
            variables.update(node.scheme)
        else:
            stack += (node.right, node.left)
    return PatternFacts(
        frozenset(variables | filter_vars), frozenset(constants), frozenset(filter_vars),
        tuple(conditions), tuple(triples), frozenset(node_types), tuple(post), shares,
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


def rename_vars(pattern: Pattern, renamings: dict) -> Pattern:
    """Rename variables by scope: `renamings` maps a node's id to a renaming
    of the variables at and below that node, SELECT schemes and FILTER
    conditions included.  Where several renamings apply, the innermost one
    wins for the variables it names.  One walk, down and back up; a node in
    which nothing is renamed is returned itself, and a node reached below
    two parents is renamed in each parent's scope.
    """
    if not renamings:
        return pattern
    scope: dict = {}  # the renaming in force where the walk is
    results: list = []
    todo: list = [pattern]
    while todo:
        node = todo.pop()
        if type(node) is tuple:  # every child of the node is renamed, the last on top
            node, replaced = node
        else:
            own = renamings.get(id(node))
            replaced = None
            if own:  # in force below the node, undone after it
                replaced = {var: scope.get(var) for var in own}
                scope.update(own)
            kind = type(node)
            if kind is not TriplePattern:
                todo.append((node, replaced))
                todo += (node.pattern,) if kind is Filter or kind is Select else (node.right, node.left)
                continue
        kind = type(node)
        if kind is TriplePattern:
            s, p, o = node.subject, node.predicate, node.object
            if scope and (s in scope or p in scope or o in scope):
                node = TriplePattern(scope.get(s, s), scope.get(p, p), scope.get(o, o))
            results.append(node)
        elif kind is Filter:
            condition = _renamed_condition(node.condition, scope) if scope else node.condition
            if results[-1] is not node.pattern or condition is not node.condition:
                node = Filter(results[-1], condition)
            results[-1] = node
        elif kind is Select:
            scheme = frozenset(scope.get(v, v) for v in node.scheme)
            if results[-1] is not node.pattern or scheme != node.scheme:
                node = Select(scheme, results[-1])
            results[-1] = node
        else:
            right = results.pop()
            if results[-1] is not node.left or right is not node.right:
                node = kind(results[-1], right)
            results[-1] = node
        if replaced:
            for var, old in replaced.items():
                if old is None:
                    del scope[var]
                else:
                    scope[var] = old
    return results[0]


def _renamed_condition(condition: FilterCondition, scope: dict) -> FilterCondition:
    """A filter condition with `scope` applied; itself if nothing in it is renamed."""
    done: dict = {}
    for node in post_order(condition, _rename_operands):
        kind = type(node)
        if kind is Opaque:
            mentions = frozenset(scope.get(v, v) for v in node.mentions)
            out = node if mentions == node.mentions else Opaque(node.text, mentions)
        elif kind is NotExpr or kind is AndExpr or kind is OrExpr:
            operands = _rename_operands(node)
            renamed = [done[id(operand)] for operand in operands]
            out = node if all(map(is_, renamed, operands)) else kind(*renamed)
        else:  # an atomic constraint: rename its variables, keep its constant
            fields = [getattr(node, name) for name in node.__slots__]
            renamed = [scope.get(t, t) for t in fields]
            out = node if renamed == fields else kind(*renamed)
        done[id(node)] = out
    return done[id(condition)]


def bindable_vars(pattern: Pattern) -> Scheme:
    """The variables that a solution of `pattern` can bind: a triple's, both
    sides' for AND, OPT and UNION, a FILTER's pattern's, and a SELECT's
    scheme that its body can bind.  A variable that occurs only in a filter
    condition, or only below a SELECT that projects it out, is not one."""
    found: set = set()
    todo = [(pattern, found)]
    selects = []  # (scheme, what its body binds, where the bound part goes), in pre-order
    while todo:
        node, into = todo.pop()
        kind = type(node)
        if kind is TriplePattern:
            into.update(t for t in (node.subject, node.predicate, node.object) if type(t) is Variable)
        elif kind is Select:
            body: set = set()
            selects.append((node.scheme, body, into))
            todo.append((node.pattern, body))
        else:
            todo += [(child, into) for child in children(node)]
    for scheme, body, into in reversed(selects):  # inner SELECTs first
        into.update(scheme.intersection(body))
    return frozenset(found)


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
