"""Reference set-based evaluator for patterns over RDF graphs.

This is a structural interpreter: each node is evaluated from its children's
solution sets, folding the pattern along `post_order` with no recursion,
and with no graph indexes and no join reordering.  It exists as
the ground-truth oracle that every static analysis in this package is
checked against, so its results are always the definitional ones.  Two
things keep it fast without changing them: `join` pairs mappings per pair
of domains, probing on the shared values and laying the merged items out
once per domain pair, and a FILTER directly over an AND hands its atomic
condition to that join, which checks it on each compatible pair before the
union is built.
"""

from __future__ import annotations

import re
from operator import itemgetter

from .errors import NotNormalized, QuerySyntaxError
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
    Select,
    TriplePattern,
    Union,
    children,
    condition_vars,
    is_atomic,
    post_order,
)
from .terms import (
    BlankNode,
    Iri,
    Literal,
    Mapping,
    RdfGraph,
    RdfTriple,
    SolutionSet,
    Variable,
    format_term,
)


def compatible(m1: Mapping, m2: Mapping) -> bool:
    """True iff the two mappings agree on the intersection of their domains."""
    small, large = (m1, m2) if len(m1) <= len(m2) else (m2, m1)
    for var, value in small.items():
        other = large.get(var)
        if other is not None and other != value:
            return False
    return True


def _by_domain(omega: SolutionSet) -> dict:
    groups: dict = {}
    for mapping in omega:
        groups.setdefault(mapping.domain, []).append(mapping)
    return groups


def _by_name(variables) -> tuple:
    return tuple(sorted(variables, key=lambda v: v._key))


def _no_key(values: dict) -> tuple:
    return ()


def _key_getter(keys: tuple):
    """Reads the values of `keys` from a mapping's dict, as one probe key."""
    return itemgetter(*keys) if keys else _no_key


def _value_index(group: list, keys: tuple, condition: Constraint | None = None) -> dict:
    """The mappings of one domain group by their values of `keys`, keeping
    only those that satisfy `condition` when one is given."""
    key_of = _key_getter(keys)
    index: dict = {}
    for mapping in group:
        if condition is None or satisfies(mapping, condition):
            index.setdefault(key_of(mapping._map), []).append(mapping)
    return index


def _merged_layout(domain1: frozenset, domain2: frozenset):
    """Picks the merged, name-sorted items out of `m1._items + m2._items`
    for any m1 over `domain1` and compatible m2 over `domain2`.  Needs
    neither domain to contain the other, so the merge has two items at least."""
    position = {v: i for i, v in enumerate(_by_name(domain1))}
    offset = len(position)
    for j, var in enumerate(_by_name(domain2)):
        position.setdefault(var, offset + j)
    return itemgetter(*(position[v] for v in _by_name(position)))


def _pair_plan(domain1: frozenset, domain2: frozenset, condition, condition_vars_: frozenset):
    """How to pair a domain-1 group with a domain-2 group under `condition`.

    Returns None when no pair can satisfy it, or (keys1, keys2, check1,
    unequal): the probe keys of each side, a condition to check on each
    domain-1 mapping alone, and a (var1, var2) pair whose values must differ.
    A condition over domain 2 alone is checked when the index is built.
    """
    shared = _by_name(domain1 & domain2)
    if condition_vars_ <= domain2:
        return shared, shared, None, None
    if condition_vars_ <= domain1:
        return shared, shared, condition, None
    if not condition_vars_ <= domain1 | domain2:
        # some variable stays unbound: only a negated bound check holds
        return (shared, shared, None, None) if isinstance(condition, NegBound) else None
    # two variables, one bound only on each side
    left, right = condition.left, condition.right
    var1, var2 = (left, right) if left in domain1 else (right, left)
    if isinstance(condition, Eq):
        return shared + (var1,), shared + (var2,), None, None
    return shared, shared, None, (var1, var2)


def join(omega1: SolutionSet, omega2: SolutionSet, condition: Constraint | None = None) -> SolutionSet:
    """All unions of compatible pairs drawn from the two solution sets; given
    an atomic `condition`, only the unions that satisfy it.

    Two mappings are compatible exactly when they agree on the shared part of
    their domains, so the pairs are found per pair of domain groups by
    probing on the shared variables' values (and on an equality's two
    variables when each side binds one).  The condition is checked on each
    compatible pair before its union is built, and the union's item layout
    is worked out once per pair of domains; the result is the definitional
    one, the join followed by the filter.
    """
    if not omega1 or not omega2:
        return frozenset()
    out = set()
    trusted = Mapping._trusted
    condition_vars_ = frozenset() if condition is None else condition_vars(condition)
    groups1 = _by_domain(omega1)
    for domain2, group2 in _by_domain(omega2).items():
        check2 = condition if condition_vars_ <= domain2 else None
        indexes: dict = {}  # probe keys -> index of group2
        for domain1, group1 in groups1.items():
            plan = _pair_plan(domain1, domain2, condition, condition_vars_)
            if plan is None:
                continue
            keys1, keys2, check1, unequal = plan
            index = indexes.get(keys2)
            if index is None:
                index = indexes[keys2] = _value_index(group2, keys2, check2)
            if not index:
                continue
            key_of = _key_getter(keys1)
            layout = None if domain2 <= domain1 or domain1 <= domain2 else _merged_layout(domain1, domain2)
            for m1 in group1:
                if check1 is not None and not satisfies(m1, check1):
                    continue
                matches = index.get(key_of(m1._map))
                if not matches:
                    continue
                if unequal is not None:
                    value, var2 = m1._map[unequal[0]], unequal[1]
                    matches = [m2 for m2 in matches if m2._map[var2] is not value]
                    if not matches:
                        continue
                if layout is not None:
                    items1 = m1._items
                    out.update([trusted(layout(items1 + m2._items)) for m2 in matches])
                elif domain2 <= domain1:
                    out.add(m1)  # the union of m1 and a compatible m2 is m1
                else:
                    out.update(matches)
    return frozenset(out)


def set_minus(omega1: SolutionSet, omega2: SolutionSet) -> SolutionSet:
    """Mappings of the first set compatible with nothing in the second."""
    if not omega2:
        return frozenset(omega1)
    indexes: dict = {}  # (domain1, domain2) -> shared-value index into omega2
    groups2 = _by_domain(omega2)
    survivors = []
    for m1 in omega1:
        domain1 = m1.domain
        hit = False
        for domain2, group2 in groups2.items():
            pair = (domain1, domain2)
            entry = indexes.get(pair)
            if entry is None:
                shared = _by_name(domain1 & domain2)
                entry = (_key_getter(shared), _value_index(group2, shared))
                indexes[pair] = entry
            key_of, index = entry
            if key_of(m1._map) in index:
                hit = True
                break
        if not hit:
            survivors.append(m1)
    return frozenset(survivors)


def satisfies(mapping: Mapping, constraint: Constraint) -> bool:
    """Constraint satisfaction under the error-as-false reading.

    When a mentioned variable is unbound, equalities and nonequalities (and
    their constant forms) are both unsatisfied; only the negated bound check
    holds on an unbound variable.
    """
    if isinstance(constraint, Bound):
        return constraint.var in mapping
    if isinstance(constraint, NegBound):
        return constraint.var not in mapping
    if isinstance(constraint, (Eq, Neq)):
        left, right = mapping.get(constraint.left), mapping.get(constraint.right)
    elif isinstance(constraint, (EqC, NeqC)):
        left, right = mapping.get(constraint.var), constraint.constant
    else:
        raise TypeError(f"not an atomic constraint: {constraint!r}")
    return left is not None and right is not None and (left == right) == isinstance(constraint, (Eq, EqC))


def _match_triple(tp: TriplePattern, graph: RdfGraph) -> SolutionSet:
    out = set()
    pattern_terms = tp.terms()
    for triple in graph:
        bindings: dict[Variable, object] = {}
        ok = True
        for pat_term, graph_term in zip(pattern_terms, (triple.subject, triple.predicate, triple.object)):
            if isinstance(pat_term, Variable):
                bound = bindings.get(pat_term)
                if bound is None:
                    bindings[pat_term] = graph_term
                elif bound != graph_term:
                    ok = False
                    break
            elif pat_term != graph_term:
                ok = False
                break
        if ok:
            out.add(Mapping(bindings))
    return frozenset(out)


def _operands(node: Pattern) -> tuple:
    """The nodes whose solutions `evaluate` needs for `node`: those of its
    children, except that a FILTER over an AND takes the AND's two sides."""
    kind = type(node)
    if kind is Filter:
        sub = node.pattern
        return (sub.left, sub.right) if type(sub) is And else (sub,)
    return () if kind is TriplePattern else children(node)


def evaluate(pattern: Pattern, graph: RdfGraph) -> SolutionSet:
    """The set of solution mappings of a pattern on a graph.

    Requires atomic filter constraints; normalize composite filters first.
    Each distinct node is evaluated once, along `post_order`; the solutions
    of a node with one parent are dropped as that parent reads them.
    """
    if type(pattern) is TriplePattern:  # one triple pattern needs no walk
        return _match_triple(pattern, graph)
    shared: set = set()
    solutions: dict = {}
    for node in post_order(pattern, _operands, shared):
        kind = type(node)
        if kind is TriplePattern:
            solutions[id(node)] = _match_triple(node, graph)
            continue
        args = [solutions[id(kid)] if id(kid) in shared else solutions.pop(id(kid)) for kid in _operands(node)]
        if kind is Union:
            out = args[0] | args[1]
        elif kind is And:
            out = join(*args)
        elif kind is Opt:
            out = join(*args) | set_minus(*args)
        elif kind is Filter:
            condition = node.condition
            if not is_atomic(condition):
                raise NotNormalized(f"composite filter condition in evaluate: {condition!r}")
            if type(node.pattern) is And:  # checked on each compatible pair before its union is built
                out = join(args[0], args[1], condition)
            else:
                out = frozenset(m for m in args[0] if satisfies(m, condition))
        elif kind is Select:
            out = frozenset(m.restrict(node.scheme & m.domain) for m in args[0])
        else:
            raise TypeError(f"not a pattern: {node!r}")
        solutions[id(node)] = out
    return solutions[id(pattern)]


# --- graph fixture format -----------------------------------------------------
#
# One triple per line: `<s> <p> <o> .` with IRIs angle-bracketed, literals
# quoted, and blank nodes written `_:label`.  Bare words are read as IRIs.

_TERM_RE = re.compile(
    r"""\s*(?:
        <(?P<iri>[^>]*)> |
        "(?P<lit>(?:[^"\\]|\\.)*)" |
        _:(?P<blank>\w+) |
        (?P<word>[^\s.]+)
    )""",
    re.VERBOSE,
)


def _read_term(text: str, offset: int):
    match = _TERM_RE.match(text, offset)
    if not match:
        raise QuerySyntaxError("expected a graph term", offset)
    if match.group("iri") is not None:
        term = Iri(match.group("iri"))
    elif match.group("lit") is not None:
        raw = match.group("lit")
        term = Literal(raw.replace('\\"', '"').replace("\\\\", "\\"))
    elif match.group("blank") is not None:
        term = BlankNode(match.group("blank"))
    else:
        word = match.group("word")
        term = Literal(word) if word[0].isdigit() or word[0] == "-" else Iri(word)
    return term, match.end()


def parse_graph(text: str) -> RdfGraph:
    """Parse the line-oriented graph fixture format."""
    triples = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        subject, offset = _read_term(line, 0)
        predicate, offset = _read_term(line, offset)
        obj, offset = _read_term(line, offset)
        rest = line[offset:].strip()
        if rest not in (".", ""):
            raise QuerySyntaxError(f"trailing content on line {lineno}: {rest!r}", offset)
        triples.append(RdfTriple(subject, predicate, obj))
    return RdfGraph.of(triples)


def format_graph(graph: RdfGraph) -> str:
    """Serialize a graph in the fixture format, deterministically ordered."""
    lines = sorted(
        f"{format_term(t.subject)} {format_term(t.predicate)} {format_term(t.object)} ."
        for t in graph
    )
    return "\n".join(lines)
