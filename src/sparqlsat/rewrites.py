"""Satisfiability- or equivalence-preserving pattern transformations."""

from __future__ import annotations

from dataclasses import dataclass

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
    pattern_facts,
    post_order,
    rebuilt,
    rename_vars,
    vars_of,
)
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


def select_eliminate_info(pattern: Pattern, *, facts: PatternFacts | None = None) -> tuple[Pattern, Scheme]:
    """As select_eliminate, also reporting the set of fresh variables used;
    a SELECT-free pattern is returned itself, and a SELECT that projects no
    variable out is its body.  With a SELECT, a subtree that two parents
    share raises PreconditionViolated (the parser builds trees).
    """
    facts = facts or pattern_facts(pattern)
    if Select not in facts.node_types:
        return pattern, frozenset()
    if facts.shares:  # each SELECT occurrence needs fresh names of its own
        raise PreconditionViolated("select_eliminate requires a pattern that shares no subtree")
    fresh = FreshVars(variables=facts.variables)
    introduced: set[Variable] = set()
    done: dict = {}
    selects = 0
    for node in facts.order:
        if type(node) is not Select:
            done[id(node)] = rebuilt(node, done)
            continue
        body = done[id(node.pattern)]
        # a root SELECT over a SELECT-free body: the pattern's variables are
        # the body's and the scheme's, so the body is not walked
        variables = facts.variables if node is pattern and not selects else vars_of(body)
        selects += 1
        projected_out = sorted(variables - node.scheme, key=lambda v: v.name)
        if not projected_out:  # the projection keeps every variable
            done[id(node)] = body
            continue
        renaming = {v: fresh.take() for v in projected_out}
        introduced.update(renaming.values())
        done[id(node)] = rename_vars(body, renaming)
    return done[id(pattern)], frozenset(introduced)


def exists_rewrite(pattern: Pattern, subquery: Pattern) -> Pattern:
    """Rewrite `pattern FILTER EXISTS(subquery)` as a projected conjunction."""
    return Select(vars_of(pattern), And(pattern, subquery))


@dataclass(frozen=True, slots=True)
class UnionMember:
    pattern: Pattern
    union_free: bool
    #: an OPT or a FILTER lies in the member; without either the member is
    #: well-designed as soon as it is union- and SELECT-free
    opt_or_filter: bool


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
    """Strip every optional arm, leaving the AND/FILTER core of the pattern."""
    facts = pattern_facts(pattern)
    if Union in facts.node_types:
        raise NotUnionFree("af_reduce requires a union-free pattern")
    if Select in facts.node_types:
        raise PreconditionViolated("af_reduce requires a SELECT-free pattern")
    done: dict = {}
    for node in facts.order:  # an OPT keeps its mandatory side only
        done[id(node)] = done[id(node.left)] if type(node) is Opt else rebuilt(node, done)
    return done[id(pattern)]
