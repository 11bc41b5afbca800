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
most one set union per AND.
"""

from __future__ import annotations

from .errors import NotNormalized, PreconditionViolated, SchemeSetBlowup
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
    TriplePattern,
    Union,
    is_atomic,
    pattern_facts,
    post_order,
)
from .terms import Scheme, Variable

#: Families beyond this many schemes raise SchemeSetBlowup.  The decision's
#: maximal-scheme table stays far below it unless UNIONs multiply under AND.
DEFAULT_SCHEME_CAP = 1 << 20

SchemeSet = frozenset  # frozenset[Scheme]


def admits(scheme: Scheme, constraint: Constraint) -> bool:
    """Syntactic entailment: can a mapping with this domain satisfy the constraint?"""
    if isinstance(constraint, (Bound, EqC, NeqC)):
        return constraint.var in scheme
    if isinstance(constraint, (Eq, Neq)):
        return constraint.left in scheme and constraint.right in scheme
    if isinstance(constraint, NegBound):
        return constraint.var not in scheme
    raise NotNormalized(f"not an atomic constraint: {constraint!r}")


def candidate_schemes(pattern: Pattern, cap: int = DEFAULT_SCHEME_CAP) -> SchemeSet:
    """The full scheme family of a SELECT-free pattern with atomic filters."""
    return _families(post_order(pattern), None, cap)[id(pattern)]


def pruned_schemes(pattern: Pattern) -> SchemeSet:
    """Scheme family intersected with the filter variables at every step.

    The result is the pointwise image of the full family under intersection
    with the filter variables, so it is empty exactly when the full family
    is, while its size is bounded by two to the number of filter variables.
    """
    facts = pattern_facts(pattern)
    return _families(facts.order, facts.filter_variables, DEFAULT_SCHEME_CAP)[id(pattern)]


def _families(order, keep: Scheme | None, cap: int, maximal: bool = False) -> dict[int, SchemeSet]:
    """The scheme family of every node of a post-order, by node identity, its
    schemes intersected with `keep` unless None, ⊆-maximal ones if `maximal`."""
    table: dict[int, SchemeSet] = {}
    distinct: dict = {}
    for node in order:
        kind = type(node)
        if kind is TriplePattern:
            terms = (node.subject, node.predicate, node.object)
            # `keep` holds variables only, so its members among the terms are the pruned scheme
            scheme = frozenset(t for t in terms if type(t) is Variable) if keep is None else keep.intersection(terms)
            out = frozenset((scheme,))
        elif kind is Filter:
            condition = node.condition
            if not is_atomic(condition):
                raise NotNormalized("scheme analysis requires atomic filter constraints")
            if maximal and isinstance(condition, NegBound):
                raise PreconditionViolated("scheme_table cannot keep maximal schemes under !bound")
            out = frozenset(s for s in table[id(node.pattern)] if admits(s, condition))
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
                out = _products(left, right, cap)
                if kind is Opt:  # the left solutions that no arm solution extends
                    out |= left
            if maximal and len(out) > 1:
                out = _maximal(out)
        else:
            raise PreconditionViolated("scheme analysis requires a SELECT-free pattern")
        if len(out) > cap:
            raise SchemeSetBlowup(f"scheme family exceeds {cap} schemes")
        table[id(node)] = distinct.setdefault(out, out)
    return table


def _products(left: frozenset, right: frozenset, cap: int) -> frozenset:
    out = set()
    for s1 in left:
        for s2 in right:
            out.add(s1 | s2)
            if len(out) > cap:
                raise SchemeSetBlowup(f"scheme family exceeds {cap} schemes")
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


def scheme_table(pattern: Pattern, *, facts: PatternFacts | None = None) -> tuple[Scheme, dict[int, SchemeSet]]:
    """Maximal pruned schemes of every subpattern, keyed by node identity.

    Returns the filter-variable set and the per-node table; the table backs
    both the emptiness test and the witness sample construction.  Raises
    PreconditionViolated on SELECT and on `!bound`, whose admitted schemes
    are not closed upwards, and NotNormalized on composite filters.
    """
    facts = facts or pattern_facts(pattern)
    fv = facts.filter_variables
    return fv, _families(facts.order, fv, DEFAULT_SCHEME_CAP, maximal=True)


def scheme_sort_key(scheme: Scheme):
    return (len(scheme), tuple(sorted(v.name for v in scheme)))
