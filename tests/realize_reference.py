"""The witness-sample descent, kept as written before its one-scheme fast
paths, as the reference the differential tests compare against: every
join's two sides are sorted, whatever their sizes.
"""

from __future__ import annotations

from sparqlsat.patterns import And, Filter, Opt, TriplePattern, Union
from sparqlsat.schemes import scheme_sort_key


def realized_solution(pattern, model, table):
    """A restriction of the witness model that the evaluator must return,
    found by descending from the root's first maximal scheme."""
    realized: set = set()
    work = [(pattern, min(table[id(pattern)], key=scheme_sort_key))]
    while work:
        node, target = work.pop()
        kind = type(node)
        if kind is TriplePattern:
            realized.update(node.variables())
        elif kind is Union:
            branch = node.left if target in table[id(node.left)] else node.right
            if target not in table[id(branch)]:
                raise AssertionError("target scheme lost in union branch")
            work.append((branch, target))
        elif kind is And or (kind is Opt and table[id(node.right)]):
            work += decompose(node, target, table)
        elif kind is Opt:  # the optional arm has no solutions
            work.append((node.left, target))
        elif kind is Filter:
            work.append((node.pattern, target))
        else:
            raise TypeError(f"not a pattern node: {node!r}")
    return model.restrict(realized)


def decompose(node, target, table):
    """The first maximal schemes of the two sides whose union is `target`."""
    for s1 in sorted(table[id(node.left)], key=scheme_sort_key):
        if not s1 <= target:
            continue
        for s2 in sorted(table[id(node.right)], key=scheme_sort_key):
            if s1 | s2 == target:
                return (node.left, s1), (node.right, s2)
    raise AssertionError("target scheme not decomposable over a join")
