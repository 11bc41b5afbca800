"""Executable reduction machinery: relation algebra and hardness generators.

Two families of constructions live here.

The first compiles expressions of the algebra of binary relations with union,
difference, and composition (the DA algebra) into patterns that emulate them,
in three variants distinguished by which constraint kind expresses the
difference operator: a negated bound check, a nonequality/equality pair, or
two constant equalities.  Each compiled pattern reads its input relation off
an RDF graph with one fixed predicate and returns the relation as the values
of the two reserved variables ?x and ?y.

The second turns CNF formulas into choice-cover instances and those into
OPT-free patterns whose only filters are bound checks, reproducing the
hardness pipeline at desk scale so the whole chain can be cross-checked
against brute force.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterator, Sequence

from .errors import BoundTooLarge, EmptyChoiceSet, InvalidConstants, PreconditionViolated, QuerySyntaxError
from .patterns import (
    And,
    Bound,
    Eq,
    EqC,
    Filter,
    FreshVars,
    Neq,
    NegBound,
    Opt,
    Pattern,
    TriplePattern,
    Union,
    post_order,
    rename_vars,
)
from .record import Record, _setattr
from .terms import Iri, RdfGraph, RdfTriple, SolutionSet, Variable

#: A finite binary relation over IRIs.
BinaryRelation = frozenset  # frozenset[tuple[Iri, Iri]]

DEFAULT_RELATION_PREDICATE = Iri("r")
RESULT_X = Variable("x")
RESULT_Y = Variable("y")


# --- the algebra ----------------------------------------------------------------

class Rel(Record):
    """The single relation symbol."""

    __slots__ = ()


class DUnion(Record):
    __slots__ = ("left", "right")


class DDiff(Record):
    __slots__ = ("left", "right")


class DComp(Record):
    __slots__ = ("left", "right")


DAExpr = Rel | DUnion | DDiff | DComp


def _da_operands(expr: DAExpr) -> tuple:
    return () if type(expr) is Rel else (expr.left, expr.right)


def da_eval(expr: DAExpr, relation: BinaryRelation) -> BinaryRelation:
    """Evaluate an expression on a finite binary relation, one fold over
    its distinct subexpressions."""
    values: dict = {}
    for node in post_order(expr, _da_operands):
        kind = type(node)
        if kind is Rel:
            value = frozenset(relation)
        elif kind is DUnion:
            value = values[id(node.left)] | values[id(node.right)]
        elif kind is DDiff:
            value = values[id(node.left)] - values[id(node.right)]
        else:
            by_first: dict = {}
            for y, z in values[id(node.right)]:
                by_first.setdefault(y, []).append(z)
            value = frozenset((x, z) for x, y in values[id(node.left)] for z in by_first.get(y, ()))
        values[id(node)] = value
    return values[id(expr)]


def adom(relation: BinaryRelation) -> frozenset:
    """Active domain: every element occurring in some pair."""
    return frozenset(itertools.chain.from_iterable(relation))


def graph_of_relation(relation: BinaryRelation, predicate: Iri = DEFAULT_RELATION_PREDICATE) -> RdfGraph:
    """One triple per pair, all under the fixed relation predicate."""
    return RdfGraph.of(RdfTriple(x, predicate, y) for x, y in relation)


def result_pairs(solutions: SolutionSet) -> BinaryRelation:
    """Project a solution set to the (?x, ?y) value pairs."""
    return frozenset((m[RESULT_X], m[RESULT_Y]) for m in solutions)


# --- expression surface syntax (for the CLI) ------------------------------------

_DA_TOKEN_RE = re.compile(r"R|[().|\-]|(\S)")  # the group catches a character no token starts with
_DA_OPS = {"|": (10, DUnion), "-": (20, DDiff), ".": (30, DComp)}
_DA_SYMBOLS = {kind: symbol for symbol, (_, kind) in _DA_OPS.items()}


def parse_da(text: str) -> DAExpr:
    """Parse `R`, `|` (union), `-` (difference), `.` (composition), parens,
    on an operator stack where a `(` pushes a marker; an error names the
    token that does not fit, or the end of input."""
    tokens = []  # (token, offset), then ("", end) for the end of input
    for match in _DA_TOKEN_RE.finditer(text):
        if match.group(1):
            raise QuerySyntaxError(f"cannot read {match.group()!r}", match.start())
        tokens.append((match.group(), match.start()))
    tokens.append(("", len(text)))

    def fail(message: str, at: int):
        token, offset = tokens[at]
        raise QuerySyntaxError(message.format(repr(token) if token else "end of input"), offset)

    operands, operators = [], []  # operators: (precedence, node class), or (-1, None) for a `(`
    index = 0
    while True:
        token = tokens[index][0]
        index += 1
        if token == "(":
            operators.append((-1, None))
            continue
        if token != "R":
            fail("unexpected {} in relation expression", index - 1)
        operands.append(Rel())
        while True:  # after an operand: apply what binds at least as tightly as the next token
            token = tokens[index][0]
            op = _DA_OPS.get(token)
            prec = 0 if op is None else op[0]
            while operators and operators[-1][0] >= prec:
                right = operands.pop()
                operands[-1] = operators.pop()[1](operands[-1], right)
            if op is not None:
                operators.append(op)
                index += 1
                break
            if not operators:
                if token:
                    fail("trailing {}", index)
                return operands[0]
            if token != ")":
                fail("expected ')', found {}", index)
            operators.pop()
            index += 1


def da_text(expr: DAExpr) -> str:
    """The expression with every operand but `R` in parentheses, written
    left to right off an explicit stack of pending pieces and expressions."""
    pieces: list = []
    todo: list = ["R" if type(expr) is Rel else expr]
    while todo:
        item = todo.pop()
        if type(item) is str:
            pieces.append(item)
            continue
        left, right = (("R",) if type(side) is Rel else ("(", side, ")") for side in (item.left, item.right))
        todo += reversed((*left, f" {_DA_SYMBOLS[type(item)]} ", *right))
    return "".join(pieces)


# --- the three difference-emulating compilers ------------------------------------

def _adom_gadget(var: Variable, aux_in: Variable, aux_out: Variable, predicate: Iri) -> Pattern:
    """Binds `var` to any active-domain element of the relation graph."""
    return Union(
        TriplePattern(var, predicate, aux_out),
        TriplePattern(aux_in, predicate, var),
    )


def _compile(expr: DAExpr, fresh: FreshVars, predicate: Iri, diff) -> Pattern:
    """One fold over the expression tree, each occurrence of a shared
    subexpression compiled on its own.  Every node is built over ?x and ?y;
    a composition takes its middle variable after both sides and records it
    for ?y on its left side and for ?x on its right, and one scoped renaming
    at the end applies them all."""
    renamings: dict = {}
    results: list = []
    todo = [(expr, False)]
    while todo:
        node, ready = todo.pop()
        kind = type(node)
        if kind is Rel:
            results.append(TriplePattern(RESULT_X, predicate, RESULT_Y))
        elif not ready:  # its sides first, the left one before the right one
            todo += ((node, True), (node.right, False), (node.left, False))
        else:
            right = results.pop()
            left = results.pop()
            if kind is DUnion:
                results.append(Union(left, right))
            elif kind is DComp:
                middle = fresh.take()
                renamings[id(left)], renamings[id(right)] = {RESULT_Y: middle}, {RESULT_X: middle}
                results.append(And(left, right))
            else:
                results.append(diff(left, right, fresh, predicate))
    return rename_vars(results[0], renamings)


def emulate_negbound(expr: DAExpr, predicate: Iri = DEFAULT_RELATION_PREDICATE) -> Pattern:
    """Difference via an optional probe filtered by a negated bound check."""

    def diff(left: Pattern, right: Pattern, fresh: FreshVars, pred: Iri) -> Pattern:
        probe, probe_obj = fresh.take(), fresh.take()
        return Filter(
            Opt(left, And(right, TriplePattern(probe, pred, probe_obj))),
            NegBound(probe),
        )

    return _compile(expr, FreshVars(), predicate, diff)


def emulate_eqneq(expr: DAExpr, predicate: Iri = DEFAULT_RELATION_PREDICATE) -> Pattern:
    """Difference via a nonequality inside the optional arm refuted by an
    outer equality; faithful on relations with at least two domain elements."""

    def diff(left: Pattern, right: Pattern, fresh: FreshVars, pred: Iri) -> Pattern:
        u, u2, v, v2, w, w2 = (fresh.take() for _ in range(6))
        adom_u = _adom_gadget(u, v, w, pred)
        adom_u2 = _adom_gadget(u2, v2, w2, pred)
        inner = Filter(And(And(right, adom_u), adom_u2), Neq(u, u2))
        return Filter(And(And(Opt(left, inner), adom_u), adom_u2), Eq(u, u2))

    return _compile(expr, FreshVars(), predicate, diff)


def emulate_eqc(
    expr: DAExpr,
    const_a: Iri,
    const_b: Iri,
    predicate: Iri = DEFAULT_RELATION_PREDICATE,
) -> Pattern:
    """Difference via two clashing constant equalities; faithful on relations
    whose active domain contains both constants."""
    if const_a == const_b or const_a == predicate or const_b == predicate:
        raise InvalidConstants(
            "the two constants must be distinct and differ from the relation predicate"
        )

    def diff(left: Pattern, right: Pattern, fresh: FreshVars, pred: Iri) -> Pattern:
        u, v, w = fresh.take(), fresh.take(), fresh.take()
        adom_u = _adom_gadget(u, v, w, pred)
        inner = Filter(And(right, adom_u), EqC(u, const_a))
        return Filter(And(Opt(left, inner), adom_u), EqC(u, const_b))

    return _compile(expr, FreshVars(), predicate, diff)


def two_sat_wrapper(expr: DAExpr, predicate: Iri = DEFAULT_RELATION_PREDICATE) -> Pattern:
    """Satisfiable on some relation graph iff the expression has a model with
    at least two active-domain elements (within the bound searched)."""
    compiled = emulate_eqneq(expr, predicate)
    fresh = FreshVars(compiled)
    u, u2, v, v2, w, w2 = (fresh.take() for _ in range(6))
    gadgets = And(_adom_gadget(u, v, w, predicate), _adom_gadget(u2, v2, w2, predicate))
    return And(compiled, Filter(gadgets, Neq(u, u2)))


def ab_sat_wrapper(
    expr: DAExpr,
    const_a: Iri,
    const_b: Iri,
    predicate: Iri = DEFAULT_RELATION_PREDICATE,
) -> Pattern:
    """Satisfiable on some relation graph iff the expression has a model whose
    active domain contains both constants (within the bound searched)."""
    compiled = emulate_eqc(expr, const_a, const_b, predicate)
    fresh = FreshVars(compiled)
    u, u2, v, v2, w, w2 = (fresh.take() for _ in range(6))
    gadgets = And(_adom_gadget(u, v, w, predicate), _adom_gadget(u2, v2, w2, predicate))
    return And(compiled, Filter(Filter(gadgets, EqC(u, const_a)), EqC(u2, const_b)))


# --- bounded satisfiability search ------------------------------------------------

MAX_SEARCH_ADOM = 4


def canonical_domain(size: int) -> tuple[Iri, ...]:
    return tuple(Iri(f"d{i + 1}") for i in range(size))


def relations_over(size: int) -> Iterator[BinaryRelation]:
    """All relations over the canonical domain of the given size, in a fixed
    order, whose active domain is exactly that domain."""
    domain = canonical_domain(size)
    pairs = [(a, b) for a in domain for b in domain]
    full = frozenset(domain)
    for mask in range(1 << len(pairs)):
        relation = frozenset(pairs[i] for i in range(len(pairs)) if mask >> i & 1)
        if adom(relation) == full:
            yield relation


def _is_canonical(relation: BinaryRelation, size: int) -> bool:
    domain = canonical_domain(size)
    key = sorted((x.name, y.name) for x, y in relation)
    for perm in itertools.permutations(domain):
        image = {domain[i]: perm[i] for i in range(size)}
        mapped = sorted((image[x].name, image[y].name) for x, y in relation)
        if mapped < key:
            return False
    return True


def bounded_sat_search(expr: DAExpr, max_adom: int) -> BinaryRelation | None:
    """First relation (domain sizes 1..max_adom, canonical forms only) on
    which the expression evaluates nonempty; None if there is none in range."""
    if max_adom > MAX_SEARCH_ADOM:
        raise BoundTooLarge(f"max_adom is capped at {MAX_SEARCH_ADOM}")
    for size in range(1, max_adom + 1):
        for relation in relations_over(size):
            if not _is_canonical(relation, size):
                continue
            if da_eval(expr, relation):
                return relation
    return None


# --- choice cover and the CNF pipeline ---------------------------------------------

class ChoiceCoverInstance(Record):
    """Pick one subset from each group so the picks cover the ground set.

    The `ground` set is a frozenset of variables, and the `groups` a tuple
    of frozensets of its subsets: an indexed family, not a set, so two
    groups with equal contents still demand independent picks.
    """

    __slots__ = ("ground", "groups")

    def __init__(self, ground: frozenset, groups: tuple):
        for group in groups:
            for subset in group:
                if not subset <= ground:
                    raise ValueError(f"group member {set(subset)!r} is not a subset of the ground set")
        _setattr(self, "ground", ground)
        _setattr(self, "groups", groups)


def choice_cover_solve(instance: ChoiceCoverInstance) -> bool:
    """Brute force over all pick combinations."""
    ordered_groups = [sorted(group, key=_subset_key) for group in instance.groups]
    for picks in itertools.product(*ordered_groups):
        union = frozenset().union(*picks) if picks else frozenset()
        if union == instance.ground:
            return True
    return False


def _subset_key(subset: frozenset):
    return (len(subset), tuple(sorted(v.name for v in subset)))


#: A CNF formula: clauses of nonzero integers, negative for negated variables.
Cnf = tuple  # tuple[frozenset[int], ...]


def cnf_to_choice_cover(cnf: Sequence[frozenset]) -> ChoiceCoverInstance:
    """Clauses become the ground set; each variable contributes the group
    {clauses it occurs in positively, clauses it occurs in negatively}."""
    if not cnf:
        raise ValueError("CNF must contain at least one clause")
    clause_vars = [Variable(f"c{i + 1}") for i in range(len(cnf))]
    used = sorted({abs(lit) for clause in cnf for lit in clause})
    groups = []
    for var in used:
        positive = frozenset(clause_vars[i] for i, clause in enumerate(cnf) if var in clause)
        negative = frozenset(clause_vars[i] for i, clause in enumerate(cnf) if -var in clause)
        groups.append(frozenset((positive, negative)))
    return ChoiceCoverInstance(frozenset(clause_vars), tuple(groups))


def choice_cover_to_pattern(instance: ChoiceCoverInstance, constant: Iri = Iri("c")) -> Pattern:
    """The OPT-free, bound-only pattern satisfiable iff the instance is a yes.

    An empty pick (or an empty family of groups) is encoded as the ground
    triple (c, c, c), the unit of conjunction on the intended witness graph.
    """
    if not instance.ground:
        raise PreconditionViolated("the ground set must be nonempty")
    for group in instance.groups:
        if not group:
            raise EmptyChoiceSet("every group must offer at least one pick")

    unit = TriplePattern(constant, constant, constant)

    def subset_pattern(subset: frozenset) -> Pattern:
        members = sorted(subset, key=lambda v: v.name)
        if not members:
            return unit
        pattern: Pattern = TriplePattern(members[0], constant, constant)
        for var in members[1:]:
            pattern = And(pattern, TriplePattern(var, constant, constant))
        return pattern

    def group_pattern(group: frozenset) -> Pattern:
        subsets = sorted(group, key=_subset_key)
        pattern = subset_pattern(subsets[0])
        for subset in subsets[1:]:
            pattern = Union(pattern, subset_pattern(subset))
        return pattern

    if instance.groups:
        pattern = group_pattern(instance.groups[0])
        for group in instance.groups[1:]:
            pattern = And(pattern, group_pattern(group))
    else:
        pattern = unit
    for var in sorted(instance.ground, key=lambda v: v.name):
        pattern = Filter(pattern, Bound(var))
    return pattern


def parse_dimacs(text: str) -> Cnf:
    """DIMACS-like CNF: `p cnf V C` header, clauses of signed ints ending in 0."""
    clauses: list[frozenset] = []
    current: set[int] = set()
    saw_header = False
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("p"):
            fields = stripped.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise QuerySyntaxError(f"malformed DIMACS header: {stripped!r}", 0)
            saw_header = True
            continue
        for field in stripped.split():
            literal = int(field)
            if literal == 0:
                clauses.append(frozenset(current))
                current = set()
            else:
                current.add(literal)
    if not saw_header:
        raise QuerySyntaxError("missing DIMACS `p cnf` header", 0)
    if current:
        clauses.append(frozenset(current))
    return tuple(clauses)


def cnf_satisfiable(cnf: Sequence[frozenset]) -> bool:
    """Brute-force CNF satisfiability over the variables that occur."""
    used = sorted({abs(lit) for clause in cnf for lit in clause})
    for bits in itertools.product((False, True), repeat=len(used)):
        assignment = dict(zip(used, bits))
        if all(
            any(assignment[abs(lit)] == (lit > 0) for lit in clause)
            for clause in cnf
        ):
            return True
    return False
