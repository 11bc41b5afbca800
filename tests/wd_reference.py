"""The two-pass well-designedness check and the outside-variable sets, kept
as written before the pre-order index replaced them, as the reference the
differential tests compare against.

Both recurse on the pattern, so they are only for the small patterns the
tests generate.
"""

from __future__ import annotations

from sparqlsat.errors import InvalidPosition, NotUnionFree, PreconditionViolated
from sparqlsat.patterns import Filter, Opt, Select, TriplePattern, Union, children, condition_vars, vars_of
from sparqlsat.welldesigned import WdViolation


def outside_vars(pattern, position):
    """Variables of the addressed subpattern that also occur outside of it."""
    outside = set()
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


def is_well_designed(pattern):
    """Subtree variable sets bottom-up, then outside-occurring variable sets
    top-down.  A UNION anywhere raises NotUnionFree in the first pass, a
    SELECT PreconditionViolated in the second."""
    subtree = {}

    def collect(node):
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
    violations = []

    def check(node, pos, outside):
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
