"""Well-designedness checks and the constraint set of an AND/FILTER pattern."""

from __future__ import annotations

from dataclasses import dataclass

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
    vars_of,
)
from .terms import Scheme, Variable


@dataclass(frozen=True, slots=True)
class WdViolation:
    """One reason a pattern fails the well-designedness conditions."""

    kind: str  # "filter-unsafe" | "optional-escape"
    position: Position
    variable: Variable

    def describe(self) -> str:
        if self.kind == "filter-unsafe":
            return f"filter at {self.position or 'root'} mentions {self.variable} outside its subpattern"
        return f"{self.variable} from the optional arm at {self.position or 'root'} escapes to the outside"


def outside_vars(pattern: Pattern, position: Position) -> Scheme:
    """Variables of the addressed subpattern that also occur outside of it."""
    outside: set[Variable] = set()
    node = pattern
    for index in position:  # the ancestors' own variables and their other children's
        kids = children(node)
        if index >= len(kids):
            raise InvalidPosition(f"no child {index} at {position}")
        if isinstance(node, Filter):
            outside.update(condition_vars(node.condition))
        elif isinstance(node, Select):
            outside.update(node.scheme)
        outside.update(*(vars_of(kid) for i, kid in enumerate(kids) if i != index))
        node = kids[index]
    return vars_of(node) & frozenset(outside)


def is_well_designed(pattern: Pattern) -> tuple[bool, list[WdViolation]]:
    """Check the two well-designedness conditions over all occurrences.

    Condition 1: each filter's variables occur in the pattern it applies to.
    Condition 2: a variable of an optional arm that also occurs outside that
    OPT node must occur in the mandatory arm.

    Runs in two linear passes: subtree variable sets bottom-up, then
    outside-occurring variable sets top-down.  A UNION anywhere raises
    NotUnionFree in the first pass, a SELECT PreconditionViolated in the second.
    """
    subtree: dict[int, frozenset] = {}

    def collect(node: Pattern) -> frozenset:
        if isinstance(node, TriplePattern):
            out = node.variables()
        elif isinstance(node, Filter):
            out = collect(node.pattern) | condition_vars(node.condition)
        elif isinstance(node, Union):
            raise NotUnionFree("well-designedness is defined for union-free patterns")
        elif isinstance(node, Select):
            out = collect(node.pattern)
        else:
            out = collect(node.left) | collect(node.right)
        subtree[id(node)] = out
        return out

    collect(pattern)
    violations: list[WdViolation] = []

    def check(node: Pattern, pos: Position, outside: frozenset):
        if isinstance(node, TriplePattern):
            return
        if isinstance(node, Select):
            raise PreconditionViolated("run select_eliminate before the well-designedness check")
        if isinstance(node, Filter):
            unsafe = condition_vars(node.condition) - subtree[id(node.pattern)]
            for var in sorted(unsafe, key=lambda v: v.name):
                violations.append(WdViolation("filter-unsafe", pos, var))
            check(node.pattern, pos + (0,), outside | condition_vars(node.condition))
            return
        left_vars = subtree[id(node.left)]
        right_vars = subtree[id(node.right)]
        if isinstance(node, Opt):
            escaped = (right_vars & outside) - left_vars
            for var in sorted(escaped, key=lambda v: v.name):
                violations.append(WdViolation("optional-escape", pos, var))
        check(node.left, pos + (0,), outside | right_vars)
        check(node.right, pos + (1,), outside | left_vars)

    check(pattern, (), frozenset())
    return (not violations, violations)


def extract_constraints(pattern: Pattern, *, facts: PatternFacts | None = None) -> frozenset:
    """The value constraints (four comparison kinds) in an AND/FILTER pattern.

    Bound checks are excluded: they influence the scheme analysis only
    (`facts`, if given, are `pattern_facts(pattern)`).
    """
    if facts is None:
        facts = pattern_facts(pattern)
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
    if facts is None:
        facts = pattern_facts(pattern)
    sorts: SortMap = {}
    for node in facts.triples:
        if isinstance(node.subject, Variable):
            sorts[node.subject] = SortReq.IRI_REQUIRED
        if isinstance(node.predicate, Variable):
            sorts[node.predicate] = SortReq.IRI_REQUIRED
        if isinstance(node.object, Variable):
            sorts.setdefault(node.object, SortReq.ANY_VALUE)
    return sorts
