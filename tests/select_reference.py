"""SELECT elimination, kept as written before its one renaming walk, as the
reference the differential tests compare against: each SELECT, in
post-order, walks its already eliminated body for its variables and renames
every one its scheme lacks, fresh names of inner SELECTs included.
"""

from __future__ import annotations

from sparqlsat.patterns import (
    CONSTRAINT_TYPES,
    AndExpr,
    Filter,
    FreshVars,
    NotExpr,
    Opaque,
    OrExpr,
    Select,
    TriplePattern,
    children,
    pattern_facts,
    post_order,
    rebuilt,
    vars_of,
)


def _operands(node) -> tuple:
    kind = type(node)
    if kind is Filter:
        return (node.pattern, node.condition)
    if kind is NotExpr:
        return (node.operand,)
    if kind is AndExpr or kind is OrExpr:
        return (node.left, node.right)
    return children(node)


def rename_everywhere(pattern, renaming):
    """One renaming applied throughout a pattern and its filter conditions."""
    done: dict = {}
    for node in post_order(pattern, _operands):
        kind = type(node)
        if kind is TriplePattern:
            out = TriplePattern(*(renaming.get(t, t) for t in node.terms()))
        elif kind is Filter:
            out = Filter(done[id(node.pattern)], done[id(node.condition)])
        elif kind is Select:
            out = Select(frozenset(renaming.get(v, v) for v in node.scheme), done[id(node.pattern)])
        elif kind is NotExpr:
            out = NotExpr(done[id(node.operand)])
        elif kind is AndExpr or kind is OrExpr:
            out = kind(done[id(node.left)], done[id(node.right)])
        elif kind is Opaque:
            out = Opaque(node.text, frozenset(renaming.get(v, v) for v in node.mentions))
        elif kind in CONSTRAINT_TYPES:
            out = kind(*(renaming.get(t, t) for t in (getattr(node, f) for f in node.__slots__)))
        else:
            out = rebuilt(node, done)
        done[id(node)] = out
    return done[id(pattern)]


def select_eliminate_reference(pattern):
    """The SELECT-free pattern and the set of fresh names taken."""
    facts = pattern_facts(pattern)
    if Select not in facts.node_types:
        return pattern, frozenset()
    fresh = FreshVars(variables=facts.variables)
    introduced: set = set()
    done: dict = {}
    for node in facts.order:
        if type(node) is not Select:
            done[id(node)] = rebuilt(node, done)
            continue
        body = done[id(node.pattern)]
        projected_out = sorted(vars_of(body) - node.scheme, key=lambda v: v.name)
        if not projected_out:
            done[id(node)] = body
            continue
        renaming = {v: fresh.take() for v in projected_out}
        introduced.update(renaming.values())
        done[id(node)] = rename_everywhere(body, renaming)
    return done[id(pattern)], frozenset(introduced)
