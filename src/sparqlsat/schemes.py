"""Candidate solution schemes: the bound-variable analysis behind the decision.

Every pattern is assigned a finite family of schemes (variable sets), the
candidate domains of its solution mappings.  Every actual solution's domain
is one of the candidates, so an empty family proves unsatisfiability; for the
two decidable constraint fragments the converse holds as well.

The full family can grow exponentially in the number of UNION/OPT operators.
Only variables mentioned in filters can ever make it empty, so the pruned
family intersects every scheme with the filter variables.

The decision itself reads `scheme_table`, which keeps only the ⊆-maximal
pruned schemes of every node.  Every constraint kind of the two fragments
(bound, =, !=, !=c) only asks for variables to be bound, so the schemes a
filter admits are closed upwards.  Union, join and optional-join preserve
that order, so the maximal members of a node's family are computed from the
maximal members of its children alone:

* union: the maximal members of both sides;
* join: the maximal pairwise unions;
* optional join: the maximal pairwise unions when the optional arm's family
  is nonempty (each left-only scheme lies below one of them), else the left;
* filter: the admitted maximal schemes.

A composite condition over those kinds, in negation normal form (see
`normalize`), is a monotone AND/OR of them, so the schemes it admits are
closed upwards too, and a filter keeps the maximal schemes of its child
that its formula admits: no disjunctive normal form is needed.

A family is empty exactly when its maximal members are, so emptiness is
unchanged.  A chain of k optional arms under a k-way bound disjunction keeps
one scheme per node instead of 2^k.  The worst case stays exponential,
as NP-completeness requires: a join of UNIONs over disjoint variables has
exponentially many maximal schemes.  `!bound` is not upward-closed, so
`scheme_table` refuses it.

One fold along a post-order, `_families`, computes all three kinds of
family, one object per distinct family: a filter-free BGP's triples share {∅}.
A join of two one-scheme sides is {s1 ∪ s2} without forming products, and
so is an optional join's in the maximal table, where its left scheme lies
below that union.  When one of the two schemes contains the other, that
union is the larger scheme, so the node reuses that side's family object
and allocates nothing: the triples of a BGP whose variables no filter
mentions all have {∅}, and so does every AND above them.  `_maximal` runs
only at a node with more than one candidate, so a BGP's table costs at
most one set union per AND.  A pattern with no filter condition needs no
fold at all: every triple's pruned scheme is ∅, so `scheme_table` maps
every node to one shared family {∅}.
"""

from __future__ import annotations

from .errors import NotNormalized, PreconditionViolated, SchemeSetBlowup
from .normalize import fold_nnf
from .patterns import (
    And,
    Bound,
    Constraint,
    Eq,
    EqC,
    Filter,
    Neq,
    NeqC,
    NegBound,
    Opt,
    Pattern,
    PatternFacts,
    Select,
    TriplePattern,
    Union,
    is_atomic,
    pattern_facts,
)
from .terms import Scheme

#: Families beyond this many schemes raise SchemeSetBlowup.  The decision's
#: maximal-scheme table stays far below it unless UNIONs multiply under AND.
DEFAULT_SCHEME_CAP = 1 << 20

SchemeSet = frozenset  # frozenset[Scheme]

#: The family {∅}, shared by every node of a pattern without filters.
_EMPTY_ONLY: SchemeSet = frozenset((frozenset(),))


def admits(scheme: Scheme, constraint: Constraint) -> bool:
    """Syntactic entailment: can a mapping with this domain satisfy the constraint?"""
    if isinstance(constraint, (Bound, EqC, NeqC)):
        return constraint.var in scheme
    if isinstance(constraint, (Eq, Neq)):
        return constraint.left in scheme and constraint.right in scheme
    if isinstance(constraint, NegBound):
        return constraint.var not in scheme
    raise NotNormalized(f"not an atomic constraint: {constraint!r}")


def _holds(nnf: tuple, scheme: Scheme) -> bool:
    """Whether a mapping with this domain can satisfy a condition in
    negation normal form (`normalize.negation_normal_forms`) whose atoms
    only ask for variables to be bound."""
    return fold_nnf(nnf, lambda atom: admits(scheme, atom), lambda connective, values: connective(values))


def candidate_schemes(pattern: Pattern) -> SchemeSet:
    """The full scheme family of a SELECT-free pattern with atomic filters,
    the fold that keeps every variable of the pattern."""
    facts = pattern_facts(pattern)
    return _families(facts.order, facts.variables)[id(pattern)]


def pruned_schemes(pattern: Pattern) -> SchemeSet:
    """Scheme family intersected with the filter variables at every step.

    The result is the pointwise image of the full family under intersection
    with the filter variables, so it is empty exactly when the full family
    is, while its size is bounded by two to the number of filter variables.
    """
    facts = pattern_facts(pattern)
    return _families(facts.order, facts.filter_variables)[id(pattern)]


def _families(order, keep: Scheme, maximal: bool = False, nnfs: dict | None = None) -> dict[int, SchemeSet]:
    """The scheme family of every node of a post-order, by node identity, its
    schemes intersected with `keep`, ⊆-maximal ones if `maximal`.  A
    composite condition is read from `nnfs`, its monotone negation normal
    form by `id`.  A family beyond `DEFAULT_SCHEME_CAP` schemes raises
    SchemeSetBlowup."""
    table: dict[int, SchemeSet] = {}
    distinct: dict = {}
    for node in order:
        kind = type(node)
        if kind is TriplePattern:
            # `keep` holds variables only, so its members among the terms are the pruned scheme
            out = frozenset((keep.intersection((node.subject, node.predicate, node.object)),))
        elif kind is Filter:
            condition = node.condition
            if is_atomic(condition):
                if maximal and isinstance(condition, NegBound):
                    raise PreconditionViolated("scheme_table cannot keep maximal schemes under !bound")
                out = frozenset(s for s in table[id(node.pattern)] if admits(s, condition))
            elif nnfs and id(condition) in nnfs:
                nnf = nnfs[id(condition)]
                out = frozenset(s for s in table[id(node.pattern)] if _holds(nnf, s))
            else:
                raise NotNormalized("scheme analysis requires atomic filter constraints")
        elif kind is Union or kind is And or kind is Opt:
            left, right = table[id(node.left)], table[id(node.right)]
            if kind is Union:
                out = left | right
            elif len(left) == 1 == len(right) and (kind is And or maximal):
                (s1,), (s2,) = left, right  # an OPT's s1 lies below s1 | s2
                if s2 <= s1:
                    out = left
                elif s1 <= s2:
                    out = right
                else:
                    out = frozenset((s1 | s2,))
            else:
                out = _products(left, right)
                if kind is Opt:  # the left solutions that no arm solution extends
                    out |= left
            if maximal and len(out) > 1:
                out = _maximal(out)
        else:
            raise PreconditionViolated("scheme analysis requires a SELECT-free pattern")
        if len(out) > DEFAULT_SCHEME_CAP:
            raise SchemeSetBlowup(f"scheme family exceeds {DEFAULT_SCHEME_CAP} schemes")
        table[id(node)] = distinct.setdefault(out, out)
    return table


def _products(left: frozenset, right: frozenset) -> frozenset:
    out = set()
    for s1 in left:
        for s2 in right:
            out.add(s1 | s2)
            if len(out) > DEFAULT_SCHEME_CAP:
                raise SchemeSetBlowup(f"scheme family exceeds {DEFAULT_SCHEME_CAP} schemes")
    return frozenset(out)


def filter_variables(pattern: Pattern) -> Scheme:
    """All variables mentioned in any filter condition of the pattern."""
    return pattern_facts(pattern).filter_variables


def _maximal(schemes) -> SchemeSet:
    """The ⊆-maximal members of a collection of schemes."""
    kept: list[Scheme] = []
    for scheme in sorted(set(schemes), key=len, reverse=True):
        if not any(scheme <= other for other in kept):
            kept.append(scheme)
    return frozenset(kept)


def scheme_table(
    pattern: Pattern, *, facts: PatternFacts | None = None, nnfs: dict | None = None
) -> tuple[Scheme, dict[int, SchemeSet]]:
    """Maximal pruned schemes of every subpattern, keyed by node identity.

    Returns the filter-variable set and the per-node table; the table backs
    both the emptiness test and the witness sample construction.  A
    composite condition is read from `nnfs`, the negation normal forms of
    `negation_normal_forms`, whose atoms must all be of the two fragments'
    kinds.  Raises PreconditionViolated on SELECT and on `!bound`, whose
    admitted schemes are not closed upwards, and NotNormalized on a
    composite filter that `nnfs` lacks.
    """
    facts = facts or pattern_facts(pattern)
    fv = facts.filter_variables
    if facts.conditions:
        return fv, _families(facts.order, fv, maximal=True, nnfs=nnfs)
    if Select in facts.node_types:
        raise PreconditionViolated("scheme analysis requires a SELECT-free pattern")
    return fv, dict.fromkeys(map(id, facts.order), _EMPTY_ONLY)  # no filter: every pruned scheme is ∅


def scheme_sort_key(scheme: Scheme):
    return (len(scheme), tuple(sorted(v.name for v in scheme)))
