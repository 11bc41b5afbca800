"""Lowering of composite filter conditions to atomic constraints.

Negation is pushed to the atoms (`!bound` flips to the negated bound check,
`!(?x=?y)` to `?x!=?y`, and conversely; the three-valued error semantics makes
these flips exact), the result is expanded to disjunctive normal form, each
disjunct becomes a UNION branch, and each conjunct a chained FILTER.
"""

from __future__ import annotations

from .errors import NormalizationBlowup, UnsupportedOpaquePredicate
from .patterns import (
    AndExpr,
    Bound,
    Constraint,
    Eq,
    EqC,
    Filter,
    FilterCondition,
    Neq,
    NeqC,
    NegBound,
    NotExpr,
    Opaque,
    OrExpr,
    Pattern,
    PatternFacts,
    Union,
    is_atomic,
    pattern_facts,
    rebuilt,
)

DEFAULT_DNF_CAP = 64


def normalize_filters(
    pattern: Pattern,
    *,
    builtins_as_bound: bool = False,
    facts: PatternFacts | None = None,
) -> Pattern:
    """Rewrite every composite filter into atomic FILTER chains under UNIONs.

    Opaque builtin calls are only accepted when `builtins_as_bound` is set, in
    which case a call stands for "all mentioned variables are bound"; this is
    an analysis approximation, not a semantics-preserving step.  A node with
    no composite filter below it is returned itself, unwalked if the `facts`
    (`pattern_facts(pattern)`, computed if not given) show none at all.
    """
    facts = facts or pattern_facts(pattern)
    if all(is_atomic(condition) for condition in facts.conditions):
        return pattern
    done: dict = {}
    for node in facts.order:
        if type(node) is not Filter or is_atomic(node.condition):
            done[id(node)] = rebuilt(node, done)
            continue
        sub = done[id(node.pattern)]
        branches = []
        for conjunct in _to_dnf(node.condition, builtins_as_bound):
            branch = sub
            for atom in conjunct:
                branch = Filter(branch, atom)
            branches.append(branch)
        # fold balanced, so large disjunctions do not produce towers of unions
        while len(branches) > 1:
            branches = [
                Union(branches[i], branches[i + 1]) if i + 1 < len(branches) else branches[i]
                for i in range(0, len(branches), 2)
            ]
        done[id(node)] = branches[0]
    return done[id(pattern)]


_NEGATED = {Bound: NegBound, NegBound: Bound, Eq: Neq, Neq: Eq, EqC: NeqC, NeqC: EqC}


def _negate_atom(atom: Constraint | Opaque) -> list[Constraint] | Opaque:
    if isinstance(atom, Eq) and atom.left == atom.right:
        # !(?x=?x) is never satisfied; the bound/!bound pair encodes
        # that single always-false atom.
        return [Bound(atom.left), NegBound(atom.left)]
    if isinstance(atom, Opaque):
        # A negated builtin call still demands its arguments bound to come
        # out true, so under builtin-as-bound both polarities lower the same way.
        return atom
    return [_NEGATED[type(atom)](*(getattr(atom, field) for field in atom.__slots__))]


def _to_dnf(condition: FilterCondition, builtins_as_bound: bool) -> list[list[Constraint]]:
    def lower_atom(atom: Constraint | Opaque) -> list[Constraint]:
        if isinstance(atom, Opaque):
            if not builtins_as_bound:
                raise UnsupportedOpaquePredicate(
                    f"opaque builtin call in filter: {atom.text!r}"
                )
            return [Bound(v) for v in sorted(atom.mentions, key=lambda v: v.name)]
        return [atom]

    # Post-order over (expression, negated) on an explicit stack, left operand
    # first; an entry `(_and or _or, None)` combines the two DNFs just done.
    done: list[list[list[Constraint]]] = []
    todo: list = [(condition, False)]
    while todo:
        expr, negated = todo.pop()
        if negated is None:
            right = done.pop()
            done.append(expr(done.pop(), right))
        elif isinstance(expr, NotExpr):
            todo.append((expr.operand, not negated))
        elif isinstance(expr, (AndExpr, OrExpr)):
            # De Morgan: a negated AND disjoins, a negated OR conjoins
            combine = _or if isinstance(expr, OrExpr) != negated else _and
            todo += ((combine, None), (expr.right, negated), (expr.left, negated))
        elif negated:
            flipped = _negate_atom(expr)
            if isinstance(flipped, Opaque):
                done.append([lower_atom(flipped)])
            else:
                done.append([[a for atom in flipped for a in lower_atom(atom)]])
        else:
            done.append([lower_atom(expr)])
    return [list(dict.fromkeys(c)) for c in done.pop()]  # first-seen order


def _or(left: list[list[Constraint]], right: list[list[Constraint]]) -> list[list[Constraint]]:
    if len(left) + len(right) > DEFAULT_DNF_CAP:
        raise NormalizationBlowup(f"DNF exceeds {DEFAULT_DNF_CAP} disjuncts")
    return left + right


def _and(left: list[list[Constraint]], right: list[list[Constraint]]) -> list[list[Constraint]]:
    if len(left) * len(right) > DEFAULT_DNF_CAP:
        raise NormalizationBlowup(f"DNF exceeds {DEFAULT_DNF_CAP} disjuncts")
    return [l + r for l in left for r in right]

