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
    contains_node,
    pattern_facts,
    rename_vars,
    vars_of,
)
from .terms import Literal, Scheme, Variable


def wrong_literal_reduce(pattern: Pattern) -> Pattern | None:
    """Remove triple patterns with a literal subject, preserving semantics.

    Returns None when the whole pattern is equivalent to the empty result on
    every graph; otherwise returns an equivalent pattern with no literal in
    any subject position.  (Literal predicates are already ruled out by the
    triple-pattern type.)
    """
    if contains_node(pattern, Select):
        raise PreconditionViolated("wrong_literal_reduce requires a SELECT-free pattern")
    return _reduce(pattern)


def _reduce(pattern: Pattern) -> Pattern | None:
    """As wrong_literal_reduce; returns `pattern` itself when nothing is removed."""
    if isinstance(pattern, TriplePattern):
        return None if isinstance(pattern.subject, Literal) else pattern
    if isinstance(pattern, Filter):
        sub = _reduce(pattern.pattern)
        if sub is None:
            return None
        return pattern if sub is pattern.pattern else Filter(sub, pattern.condition)
    if not isinstance(pattern, (Union, And, Opt)):
        raise TypeError(f"not a pattern: {pattern!r}")
    left = _reduce(pattern.left)
    if left is None and not isinstance(pattern, Union):
        return None  # AND needs both sides, OPT its left side
    right = _reduce(pattern.right)
    if left is None:
        return right
    if right is None:
        return None if isinstance(pattern, And) else left
    if left is pattern.left and right is pattern.right:
        return pattern
    return type(pattern)(left, right)


def select_eliminate(pattern: Pattern) -> Pattern:
    """Replace every SELECT node by renaming its projected-out variables fresh.

    The result is SELECT-free and equisatisfiable with the input; dropping the
    freshly introduced variables from any of its solutions yields a solution
    of the input.
    """
    return select_eliminate_info(pattern)[0]


def select_eliminate_info(pattern: Pattern) -> tuple[Pattern, Scheme]:
    """As select_eliminate, also reporting the set of fresh variables used;
    a SELECT-free pattern is returned itself."""
    facts = pattern_facts(pattern)
    if Select not in facts.node_types:
        return pattern, frozenset()
    fresh = FreshVars(variables=facts.variables)
    introduced: set[Variable] = set()

    def rec(node: Pattern) -> Pattern:
        if isinstance(node, TriplePattern):
            return node
        if isinstance(node, (Union, And, Opt)):
            return type(node)(rec(node.left), rec(node.right))
        if isinstance(node, Filter):
            return Filter(rec(node.pattern), node.condition)
        body = rec(node.pattern)
        projected_out = sorted(vars_of(body) - node.scheme, key=lambda v: v.name)
        renaming = {v: fresh.take() for v in projected_out}
        introduced.update(renaming.values())
        return rename_vars(body, renaming)

    return rec(pattern), frozenset(introduced)


def exists_rewrite(pattern: Pattern, subquery: Pattern) -> Pattern:
    """Rewrite `pattern FILTER EXISTS(subquery)` as a projected conjunction."""
    return Select(vars_of(pattern), And(pattern, subquery))


@dataclass(frozen=True, slots=True)
class UnionMember:
    pattern: Pattern
    union_free: bool


def union_free_split(pattern: Pattern, *, facts: PatternFacts | None = None) -> list[UnionMember]:
    """Distribute top-level UNION nodes into a list of members.

    Members that still contain UNION nested under other operators are flagged
    not union-free rather than rejected, so batch callers can report them.
    When `facts` (`pattern_facts(pattern)`) show no UNION, the pattern is the
    one union-free member and is not walked.
    """
    if facts is not None and Union not in facts.node_types:
        return [UnionMember(pattern, True)]
    members: list[UnionMember] = []

    def walk(node: Pattern):
        if isinstance(node, Union):
            walk(node.left)
            walk(node.right)
        else:
            members.append(UnionMember(node, not contains_node(node, Union)))

    walk(pattern)
    return members


def af_reduce(pattern: Pattern) -> Pattern:
    """Strip every optional arm, leaving the AND/FILTER core of the pattern."""
    node_types = pattern_facts(pattern).node_types
    if Union in node_types:
        raise NotUnionFree("af_reduce requires a union-free pattern")
    if Select in node_types:
        raise PreconditionViolated("af_reduce requires a SELECT-free pattern")

    def rec(node: Pattern) -> Pattern:
        if isinstance(node, TriplePattern):
            return node
        if isinstance(node, And):
            return And(rec(node.left), rec(node.right))
        if isinstance(node, Filter):
            return Filter(rec(node.pattern), node.condition)
        return rec(node.left)  # Opt: keep the mandatory side only

    return rec(pattern)
