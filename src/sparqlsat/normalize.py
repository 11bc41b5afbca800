"""Lowering of composite filter conditions to atomic constraints.

Negation is pushed to the atoms (`!bound` flips to the negated bound check,
`!(?x=?y)` to `?x!=?y`, and conversely; the three-valued error semantics makes
these flips exact), and nested `&&` and `||` flatten to n-ary connectives:
that is the negation normal form (NNF).  Every atom of the two decidable
fragments (bound, =, !=, !=c) only asks for its variables to be bound, and
SPARQL's `&&` and `||` are Kleene's, so a condition over them is a monotone
formula over "bound", and the fragment routes decide it on its NNF as it
stands (`negation_normal_forms`).  The well-designed route searches the
NNF's choices of disjuncts, and the evaluator reads it row by row.

`normalize_filters` expands each condition's NNF to disjunctive normal form
instead: each disjunct becomes a UNION branch, and each conjunct a chained
FILTER, up to `DEFAULT_DNF_CAP` disjuncts.  No decision reads it; it is
kept as a lowering to atomic filters.
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

    An opaque call, or a blowup, is reported in the filter that the
    post-order lists first.  Opaque builtin calls are only
    accepted when `builtins_as_bound` is set, in which case a call stands
    for "all mentioned variables are bound"; this is an analysis
    approximation, not a semantics-preserving step.  A node with no
    composite filter below it is returned itself, unwalked if the `facts`
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


def negation_normal_forms(facts: PatternFacts, builtins_as_bound: bool) -> dict:
    """The NNF of each composite filter condition of a pattern with these
    `facts`, by identity.  Without `builtins_as_bound`, an opaque builtin
    call raises UnsupportedOpaquePredicate, naming the first call of the
    first such FILTER in post-order, the first written of a group, as
    `normalize_filters` does."""
    nnfs: dict = {}
    conditions = facts.conditions  # in pre-order
    if not builtins_as_bound and not all(map(is_atomic, conditions)):  # where a call would raise
        conditions = [node.condition for node in facts.order if type(node) is Filter]
    for condition in conditions:
        if not is_atomic(condition) and id(condition) not in nnfs:
            nnfs[id(condition)] = _nnf(condition, builtins_as_bound)
    return nnfs


def _nnf(condition: FilterCondition, builtins_as_bound: bool) -> tuple:
    """A condition's NNF as a post-order of steps: an atomic constraint, or
    `(all, n)` or `(any, n)`, which combines the last n values; `(all, 0)`
    is "true".  Atoms keep their order in the condition.  Under
    `builtins_as_bound`, an opaque call in either polarity lowers to the
    `bound` checks on what it mentions; without it, it raises
    UnsupportedOpaquePredicate."""
    steps: list = []
    counts = [0]  # the operands done of each open connective, innermost last
    todo: list = [(condition, False, all)]  # (expression, negated, the connective above)
    while todo:
        expr, negated, outer = todo.pop()
        kind = type(expr)
        if negated is None:  # every operand of the connective `expr` is done
            steps.append((expr, counts.pop()))
            counts[-1] += 1
        elif kind is NotExpr:
            todo.append((expr.operand, not negated, outer))
        elif kind is AndExpr or kind is OrExpr:
            # De Morgan: a negated AND disjoins, a negated OR conjoins
            combine = any if (kind is OrExpr) != negated else all
            if combine is not outer:  # else its operands join the connective above
                counts.append(0)
                todo.append((combine, None, None))
            todo += ((expr.right, negated, combine), (expr.left, negated, combine))
        else:
            if kind is Opaque:
                if not builtins_as_bound:
                    raise UnsupportedOpaquePredicate(f"opaque builtin call in filter: {expr.text!r}")
                atoms = [Bound(v) for v in sorted(expr.mentions, key=lambda v: v.name)]
            else:
                atoms = _negate_atom(expr) if negated else [expr]
            if outer is all or len(atoms) == 1:
                counts[-1] += len(atoms)
            else:  # a conjunction of atoms, or "true", under a disjunction
                atoms.append((all, len(atoms)))
                counts[-1] += 1
            steps += atoms
    if counts[0] != 1:
        steps.append((all, counts[0]))
    return tuple(steps)


def fold_nnf(nnf: tuple, atom, combine):
    """Fold an NNF along its post-order of steps: `atom(step)` is the value
    of an atom, `combine(all or any, values)` that of a connective over
    its operands' values."""
    values: list = []
    for step in nnf:
        if type(step) is tuple:
            connective, count = step
            start = len(values) - count
            value = combine(connective, values[start:])
            del values[start:]
            values.append(value)
        else:
            values.append(atom(step))
    return values[0]


_NEGATED = {Bound: NegBound, NegBound: Bound, Eq: Neq, Neq: Eq, EqC: NeqC, NeqC: EqC}


def _negate_atom(atom: Constraint) -> list[Constraint]:
    if isinstance(atom, Eq) and atom.left == atom.right:
        # !(?x=?x) is never satisfied; the bound/!bound pair encodes
        # that single always-false atom.
        return [Bound(atom.left), NegBound(atom.left)]
    return [_NEGATED[type(atom)](*(getattr(atom, field) for field in atom.__slots__))]


def _to_dnf(condition: FilterCondition, builtins_as_bound: bool) -> list[list[Constraint]]:
    """The DNF of a condition, folded along its NNF; a connective's operands
    combine left to right, so the disjuncts come in the order of the binary
    expansion."""
    done: list[list[list[Constraint]]] = []
    for step in _nnf(condition, builtins_as_bound):
        if type(step) is not tuple:
            done.append([[step]])
            continue
        combine, count = step
        start = len(done) - count
        dnf = [[]] if combine is all else []
        for operand in done[start:]:
            dnf = _and(dnf, operand) if combine is all else _or(dnf, operand)
        del done[start:]
        done.append(dnf)
    return [list(dict.fromkeys(c)) for c in done.pop()]  # first-seen order


def _or(left: list[list[Constraint]], right: list[list[Constraint]]) -> list[list[Constraint]]:
    if len(left) + len(right) > DEFAULT_DNF_CAP:
        raise NormalizationBlowup(f"DNF exceeds {DEFAULT_DNF_CAP} disjuncts")
    return left + right


def _and(left: list[list[Constraint]], right: list[list[Constraint]]) -> list[list[Constraint]]:
    if len(left) * len(right) > DEFAULT_DNF_CAP:
        raise NormalizationBlowup(f"DNF exceeds {DEFAULT_DNF_CAP} disjuncts")
    return [l + r for l in left for r in right]
