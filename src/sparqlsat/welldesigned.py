"""Well-designedness checks and the constraint set of an AND/FILTER pattern.

Both scoping checks read one pre-order numbering of the node occurrences,
in which every subtree is a contiguous range.
"""

from __future__ import annotations

from bisect import bisect_left

from .constraints import SortMap, SortReq
from .errors import InvalidPosition, NotAFPattern, NotNormalized, NotUnionFree, PreconditionViolated
from .patterns import (
    Constraint,
    Eq,
    EqC,
    Filter,
    Neq,
    NeqC,
    Opt,
    Pattern,
    PatternFacts,
    Position,
    Select,
    TriplePattern,
    Union,
    children,
    condition_vars,
    is_atomic,
    pattern_facts,
)
from .record import Record
from .terms import Scheme, Variable


class WdViolation(Record):
    """One reason a pattern fails the well-designedness conditions: its
    `kind` ("filter-unsafe" or "optional-escape"), the `position` and the
    `variable`."""

    __slots__ = ("kind", "position", "variable")

    def describe(self) -> str:
        if self.kind == "filter-unsafe":
            return f"filter at {self.position or 'root'} mentions {self.variable} outside its subpattern"
        return f"{self.variable} from the optional arm at {self.position or 'root'} escapes to the outside"


def _preorder_index(pattern: Pattern):
    """Number the node occurrences in pre-order, left child first, so every
    subtree is a contiguous range.  Returns the nodes, each one's parent
    (-1 at the root), the end of each one's range, the nearest OPT above
    each that holds it in its optional arm (-1 if none), per variable the
    sorted numbers of the triples, filter conditions and SELECT schemes
    that mention it, and each filter's number and condition variables, in
    pre-order."""
    nodes, parents, arm_of, occurrences, filters = [], [], [], {}, []
    stack = [(pattern, -1, -1)]
    while stack:
        node, parent, arm = stack.pop()
        index = len(nodes)
        nodes.append(node)
        parents.append(parent)
        arm_of.append(arm)
        kind = type(node)
        if kind is TriplePattern:
            for term in (node.subject, node.predicate, node.object):
                if type(term) is Variable:
                    occurrences.setdefault(term, []).append(index)
        elif kind is Filter or kind is Select:
            if kind is Filter:
                mentioned = condition_vars(node.condition)
                filters.append((index, mentioned))
            else:
                mentioned = node.scheme
            for var in mentioned:
                occurrences.setdefault(var, []).append(index)
            stack.append((node.pattern, index, arm))
        else:  # an OPT's right child is its optional arm
            stack += ((node.right, index, index if kind is Opt else arm), (node.left, index, arm))
    ends = list(range(1, len(nodes) + 1))
    for index in range(len(nodes) - 1, 0, -1):  # children before parents
        ends[parents[index]] = max(ends[parents[index]], ends[index])
    return nodes, parents, ends, arm_of, occurrences, filters


def _occurs_in(places: list, start: int, stop: int) -> bool:
    k = bisect_left(places, start)
    return k < len(places) and places[k] < stop


def _position(parents: list, index: int) -> Position:
    path = []
    while (parent := parents[index]) >= 0:
        path.append(0 if index == parent + 1 else 1)
        index = parent
    return tuple(reversed(path))


def outside_vars(pattern: Pattern, position: Position) -> Scheme:
    """Variables of the addressed subpattern that also occur outside of it."""
    nodes, _, ends, _, occurrences, _ = _preorder_index(pattern)
    start = 0
    for step in position:
        if not 0 <= step < len(children(nodes[start])):
            raise InvalidPosition(f"no child {step} at {position}")
        start = start + 1 if step == 0 else ends[start + 1]
    stop = ends[start]
    return frozenset(
        var for var, places in occurrences.items()
        if _occurs_in(places, start, stop) and (places[0] < start or places[-1] >= stop)
    )


def is_well_designed(pattern: Pattern, *, first: bool = False) -> tuple[bool, list[WdViolation]]:
    """Check the two well-designedness conditions over all occurrences.

    Condition 1: each filter's variables occur in the pattern it applies to.
    Condition 2: a variable of an optional arm that also occurs outside that
    OPT node must occur in the mandatory arm.

    Over the pre-order numbering, "occurs in a subtree" is a bisection of
    the variable's sorted occurrences.  A condition-2 violation is found
    from the variable's first occurrence inside the OPT node, which lies in
    the optional arm, by climbing the OPT nodes that hold that occurrence in
    their optional arms: each step but the last finds one.  So the check
    takes O(n log n) time and O(n) memory, plus the violations' positions.
    Violations come in pre-order, by variable name within a node; with
    `first`, only the first one is listed, so only its position is built
    (a position is a path from the root, as long as the node is deep).  A
    UNION anywhere raises NotUnionFree; else a SELECT raises
    PreconditionViolated.
    """
    nodes, parents, ends, arm_of, occurrences, filters = _preorder_index(pattern)
    kinds = set(map(type, nodes))
    if Union in kinds:
        raise NotUnionFree("well-designedness is defined for union-free patterns")
    if Select in kinds:
        raise PreconditionViolated("run select_eliminate before the well-designedness check")
    found = []  # (node number, variable)
    for index, variables in filters:
        for var in variables:
            if not _occurs_in(occurrences[var], index + 1, ends[index]):
                found.append((index, var))
    for var, places in occurrences.items():
        previous = -1
        for place in places:
            opt = arm_of[place]
            # above the previous occurrence, `place` is the first one inside
            while opt > previous and (previous >= 0 or ends[opt] <= places[-1]):
                found.append((opt, var))  # and some occurrence lies outside
                opt = arm_of[opt]
            previous = place
    found.sort(key=lambda item: (item[0], item[1].name))
    if first:
        del found[1:]
    kind_of = {Filter: "filter-unsafe", Opt: "optional-escape"}
    violations = [WdViolation(kind_of[type(nodes[i])], _position(parents, i), var) for i, var in found]
    return (not violations, violations)


def extract_constraints(pattern: Pattern, *, facts: PatternFacts | None = None) -> frozenset:
    """The value constraints (four comparison kinds) in an AND/FILTER pattern.

    Bound checks are excluded: they influence the scheme analysis only
    (`facts`, if given, are `pattern_facts(pattern)`).
    """
    facts = facts or pattern_facts(pattern)
    if not facts.node_types.isdisjoint((Union, Opt, Select)):
        raise NotAFPattern("extract_constraints requires an AND/FILTER pattern")
    out: set[Constraint] = set()
    for condition in facts.conditions:
        if not is_atomic(condition):
            raise NotNormalized("extract_constraints requires atomic filter constraints")
        if isinstance(condition, (Eq, Neq, EqC, NeqC)):
            out.add(condition)
    return frozenset(out)


def derive_sort_map(pattern: Pattern, *, facts: PatternFacts | None = None) -> SortMap:
    """Positional sort requirements: subject/predicate variables need IRIs
    (`facts`, if given, are `pattern_facts(pattern)`)."""
    facts = facts or pattern_facts(pattern)
    sorts: SortMap = {}
    for node in facts.triples:
        if isinstance(node.subject, Variable):
            sorts[node.subject] = SortReq.IRI_REQUIRED
        if isinstance(node.predicate, Variable):
            sorts[node.predicate] = SortReq.IRI_REQUIRED
        if isinstance(node.object, Variable):
            sorts.setdefault(node.object, SortReq.ANY_VALUE)
    return sorts
