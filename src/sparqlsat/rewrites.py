"""Satisfiability- or equivalence-preserving pattern transformations.

SELECT elimination renames fresh what each SELECT captures: the variables
of its body that no inner SELECT captured and that its scheme lacks.  A
`FILTER EXISTS` becomes a SELECT over the join of its two sides, projected
onto what a solution of the left side can bind (`bindable_vars`), so a
variable seen only in a filter condition or in an earlier EXISTS body
stays unbound outside it.

The AND/FILTER reduction of a union-free pattern reads the core along its
own edges: AND, FILTER and the left side of an OPT.  The right side of an
OPT is an optional arm, listed but not entered.
"""

from __future__ import annotations

from operator import countOf

from .errors import NotUnionFree, PreconditionViolated
from .patterns import (
    And,
    Filter,
    FreshVars,
    Opt,
    Pattern,
    PatternFacts,
    Select,
    TriplePattern,
    Union,
    bindable_vars,
    children,
    condition_vars,
    pattern_facts,
    post_order,
    rebuilt,
    rename_vars,
)
from .record import Record, _setattr
from .terms import Literal, Scheme, Variable


def wrong_literal_reduce(pattern: Pattern, *, facts: PatternFacts | None = None) -> Pattern | None:
    """Remove triple patterns with a literal subject, preserving semantics.

    Returns None when the whole pattern is equivalent to the empty result on
    every graph; otherwise returns an equivalent pattern with no literal in
    any subject position, the pattern itself when nothing is removed.
    (Literal predicates are already ruled out by the triple-pattern type.)
    """
    facts = facts or pattern_facts(pattern)
    if Select in facts.node_types:
        raise PreconditionViolated("wrong_literal_reduce requires a SELECT-free pattern")
    if not any(isinstance(tp.subject, Literal) for tp in facts.triples):
        return pattern
    done: dict = {}
    for node in facts.order:
        kind = type(node)
        if kind is TriplePattern:
            out = None if isinstance(node.subject, Literal) else node
        elif kind is Filter:
            out = None if done[id(node.pattern)] is None else rebuilt(node, done)
        else:
            left, right = done[id(node.left)], done[id(node.right)]
            if left is None:  # AND needs both sides, OPT its left side
                out = right if kind is Union else None
            elif right is None:
                out = None if kind is And else left
            else:
                out = rebuilt(node, done)
        done[id(node)] = out
    return done[id(pattern)]


def select_eliminate(pattern: Pattern) -> Pattern:
    """Replace every SELECT node by renaming its projected-out variables fresh.

    The result is SELECT-free and equisatisfiable with the input; dropping the
    freshly introduced variables from any of its solutions yields a solution
    of the input.
    """
    return select_eliminate_info(pattern)[0]


def select_eliminate_info(
    pattern: Pattern, *, facts: PatternFacts | None = None
) -> tuple[Pattern, Scheme, PatternFacts]:
    """As select_eliminate, also reporting the fresh variables of the result
    and the result's facts; a SELECT-free pattern is returned itself, and a
    SELECT that captures no variable is its body.  With a SELECT, a subtree
    that two parents share raises PreconditionViolated (the parser builds
    trees).

    A SELECT *captures* the variables of its body that no inner SELECT
    captured and that its scheme lacks.  One fold over the post-order finds
    them and splices the SELECTs out; the captured variables are named fresh
    in post-order of their SELECTs, by name within one, and one scoped
    `rename_vars` renames them below their SELECT.  So a fresh name is never
    renamed again.
    """
    facts = facts or pattern_facts(pattern)
    if Select not in facts.node_types:
        return pattern, frozenset(), facts
    if facts.shares:  # each SELECT occurrence needs fresh names of its own
        raise PreconditionViolated("select_eliminate requires a pattern that shares no subtree")
    captures = []  # (a SELECT's body in the result, the variables it captures), in post-order
    if type(pattern) is Select and countOf(map(type, facts.order), Select) == 1:
        # a root SELECT over a SELECT-free body: the pattern's variables are
        # the body's and the scheme's, so no variable set is folded
        result = pattern.pattern
        captured = facts.variables - pattern.scheme
        if not captured:
            return result, frozenset(), _body_facts(pattern, facts)
        captures.append((result, captured))
    else:
        free: dict = {}  # id(node) -> the variables at and below it that no SELECT captured
        done: dict = {}
        for node in facts.order:
            kind = type(node)
            if kind is TriplePattern:
                below = {t for t in (node.subject, node.predicate, node.object) if type(t) is Variable}
                done[id(node)] = node
            elif kind is Select:
                below = free.pop(id(node.pattern))
                captured = below - node.scheme
                below -= captured
                done[id(node)] = done[id(node.pattern)]
                captures.append((done[id(node)], captured))
            elif kind is Filter:
                below = free.pop(id(node.pattern))
                below.update(condition_vars(node.condition))
                done[id(node)] = rebuilt(node, done)
            else:  # merge the smaller side's set into the larger's
                below, other = free.pop(id(node.left)), free.pop(id(node.right))
                if len(below) < len(other):
                    below, other = other, below
                below |= other
                done[id(node)] = rebuilt(node, done)
            free[id(node)] = below
        result = done[id(pattern)]
    fresh = FreshVars(variables=facts.variables)
    renamings: dict = {}
    for body, captured in captures:  # SELECTs directly nested capture disjoint sets
        if captured:
            renamings.setdefault(id(body), {}).update(
                (v, fresh.take()) for v in sorted(captured, key=lambda v: v.name)
            )
    introduced = frozenset(v for renaming in renamings.values() for v in renaming.values())
    result = rename_vars(result, renamings)
    return result, introduced, pattern_facts(result)


def _body_facts(select: Select, facts: PatternFacts) -> PatternFacts:
    """The facts of the body of `select`, a root SELECT over a SELECT-free
    body, read off `facts`, the SELECT's own, without a walk: the body has
    every node but the SELECT, which the post-order lists last, and its
    variables are those of its triples and conditions, which may lack some
    of the scheme's."""
    unseen = set(select.scheme - facts.filter_variables)  # scheme variables not yet found in the body
    for tp in facts.triples:  # they are most often found in the first triples
        if not unseen:
            break
        unseen.difference_update((tp.subject, tp.predicate, tp.object))
    return PatternFacts(
        facts.variables - unseen, facts.constants, facts.filter_variables, facts.conditions, facts.triples,
        facts.node_types - {Select}, facts.order[:-1], facts.shares,
    )


def exists_rewrite(pattern: Pattern, subquery: Pattern, scheme: Scheme | None = None) -> Pattern:
    """Rewrite `pattern FILTER EXISTS(subquery)` as a conjunction projected
    onto the variables that a solution of `pattern` can bind: `scheme` if
    given, else `bindable_vars(pattern)`.  Those are the same for every
    EXISTS filter of one group, so a parser computes them once."""
    return Select(bindable_vars(pattern) if scheme is None else scheme, And(pattern, subquery))


class UnionMember(Record):
    #: `opt_or_filter`: an OPT or a FILTER lies in the member; without either
    #: the member is well-designed as soon as it is union- and SELECT-free
    __slots__ = ("pattern", "union_free", "opt_or_filter")

    def __init__(self, pattern: Pattern, union_free: bool, opt_or_filter: bool):
        _setattr(self, "pattern", pattern)
        _setattr(self, "union_free", union_free)
        _setattr(self, "opt_or_filter", opt_or_filter)


#: The node classes `union_free_split` records below each node, as bits.
_UNION, _OPT_OR_FILTER = 1, 2
_BITS = {And: 0, Select: 0, Union: _UNION, Opt: _OPT_OR_FILTER, Filter: _OPT_OR_FILTER}


def union_free_split(pattern: Pattern, *, facts: PatternFacts | None = None) -> list[UnionMember]:
    """Distribute top-level UNION nodes into a list of members.

    Members that still contain UNION nested under other operators are flagged
    not union-free rather than rejected, so batch callers can report them.
    One fold over the post-order (`facts.order` when `facts`, which are
    `pattern_facts(pattern)`, are given) records which of UNION and
    OPT-or-FILTER lie at or below each node, and each member reads its flags
    there.  When `facts` show no UNION, the pattern is the one union-free
    member and is not walked.
    """
    if facts is not None and Union not in facts.node_types:
        kinds = facts.node_types
        return [UnionMember(pattern, True, Opt in kinds or Filter in kinds)]
    below: dict = {}
    for node in post_order(pattern) if facts is None else facts.order:
        kind = type(node)
        if kind is TriplePattern:
            below[id(node)] = 0
        elif kind is Filter or kind is Select:
            below[id(node)] = _BITS[kind] | below[id(node.pattern)]
        else:
            below[id(node)] = _BITS[kind] | below[id(node.left)] | below[id(node.right)]
    members: list[UnionMember] = []
    todo = [pattern]
    while todo:
        node = todo.pop()
        if type(node) is Union:
            todo += (node.right, node.left)
        else:
            bits = below[id(node)]
            members.append(UnionMember(node, not bits & _UNION, bool(bits & _OPT_OR_FILTER)))
    return members


def af_reduce(pattern: Pattern) -> Pattern:
    """Strip every optional arm, leaving the AND/FILTER core of the pattern.

    The UNION and SELECT checks see the whole pattern, arms included; the
    core itself is read along its own edges, by `af_core`."""
    facts = pattern_facts(pattern)
    if Union in facts.node_types:
        raise NotUnionFree("af_reduce requires a union-free pattern")
    if Select in facts.node_types:
        raise PreconditionViolated("af_reduce requires a SELECT-free pattern")
    return af_core(pattern)[0]


def af_core(pattern: Pattern) -> tuple[Pattern, list[Pattern]]:
    """The AND/FILTER core of a union- and SELECT-free pattern, and its
    distinct optional arms, from one walk along the core's edges.

    An OPT contributes its left side only: the walk does not enter its
    right side, which is an arm, listed once in post-order of the first OPT
    that has it.  No node inside an arm is visited."""
    order = post_order(pattern, lambda node: (node.left,) if type(node) is Opt else children(node))
    done: dict = {}
    for node in order:
        done[id(node)] = done[id(node.left)] if type(node) is Opt else rebuilt(node, done)
    return done[id(pattern)], list({id(node.right): node.right for node in order if type(node) is Opt}.values())
