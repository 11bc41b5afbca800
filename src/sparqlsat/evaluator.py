"""Reference set-based evaluator for patterns over RDF graphs.

This is a structural interpreter: each node is evaluated from its children's
solutions, folding the pattern along `post_order` with no recursion and no
join reordering.  It exists as the ground-truth oracle that every static
analysis in this package is checked against, so its results are always the
definitional ones.

Inside `evaluate` the solutions of a node are a *table*: a dict from a
domain, a name-sorted tuple of variables, to the nonempty set of value
tuples of the mappings over it.  Only the root's rows become `Mapping`
objects.  The graph is indexed by predicate once per call, or once for
several patterns through `_solutions`, so a triple pattern with a constant
predicate reads only that predicate's triples.
AND, OPT and set difference pair two tables per pair of domains through a
plan made once per pair: the probe-key positions, the merged row layout,
and where an atomic filter condition is checked.  A FILTER directly over an
AND or an OPT hands its condition to that join, which checks it on each
compatible pair before the merged row is built.  A condition is read once
per domain, so a bound check keeps or drops a whole domain group without
touching its rows.  `join`, `set_minus` and `satisfies` on mappings are
thin wrappers over the same kernels.  Terms are interned, so `is` is term
equality.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from operator import attrgetter, itemgetter

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
    graph_lines,
    unescape_literal,
)

#: How `_pair_plan` makes a merged row when one domain holds the other.
_FIRST, _SECOND = "first", "second"

_name = attrgetter("_key")


def compatible(m1: Mapping, m2: Mapping) -> bool:
    """True iff the two mappings agree on the intersection of their domains."""
    small, large = (m1, m2) if len(m1) <= len(m2) else (m2, m1)
    for var, value in small.items():
        other = large.get(var)
        if other is not None and other != value:
            return False
    return True


def _no_key(row: tuple) -> tuple:
    return ()


def _key_getter(positions) -> object:
    """Reads the values at `positions` of a row, as one probe key."""
    return itemgetter(*positions) if positions else _no_key


def _condition_test(condition: Constraint, domain: tuple):
    """How an atomic `condition` reads the rows over `domain`: True or False
    when every row passes or fails alike, else a test on one row.

    This is the error-as-false reading: when a mentioned variable is unbound,
    equalities and nonequalities (and their constant forms) are both
    unsatisfied; only the negated bound check holds on an unbound variable.
    """
    kind = type(condition)
    if kind is Bound:
        return condition.var in domain
    if kind is NegBound:
        return condition.var not in domain
    if kind is Eq or kind is Neq:
        if condition.left not in domain or condition.right not in domain:
            return False
        i, j = domain.index(condition.left), domain.index(condition.right)
        if kind is Neq:
            return lambda row: row[i] is not row[j]
        return True if i == j else lambda row: row[i] is row[j]
    if kind is EqC or kind is NeqC:
        if condition.var not in domain:
            return False
        i, constant = domain.index(condition.var), condition.constant
        if kind is NeqC:
            return lambda row: row[i] is not constant
        return lambda row: row[i] is constant
    raise TypeError(f"not an atomic constraint: {condition!r}")


def _pair_plan(domain1: tuple, domain2: tuple, condition: Constraint | None):
    """How to pair rows over `domain1` with rows over `domain2` when their
    union must satisfy `condition` (None for no condition).

    Returns None when no pair can satisfy it, or (merged, layout, key1,
    keys2, key2, check1, check2, unequal): the merged domain; how a merged
    row is made, `_FIRST` for r1 itself when domain 2 is within domain 1,
    `_SECOND` for r2 when domain 1 is within domain 2, else an itemgetter
    over `r1 + r2`; the probe key of a domain-1 row, the probe-key positions
    of a domain-2 row and their getter; a test on r1 alone and one on r2
    alone, or None; and positions (i, j) such that `r1[i] is not r2[j]` must
    hold, or None.  Two rows are compatible exactly when they agree on the
    shared variables, which therefore make the probe key; an equality with
    one variable on each side adds a key, a nonequality becomes `unequal`.
    """
    # one bisection per variable of the shorter domain, and otherwise C-level
    # copies: a long chain of joins meets long domains
    first_longer = len(domain1) >= len(domain2)
    if first_longer:
        longer, shorter, base, other_base = domain1, domain2, 0, len(domain1)
    else:
        longer, shorter, base, other_base = domain2, domain1, len(domain1), 0
    merged = list(longer)
    positions = list(range(base, base + len(longer)))  # of the merged items in r1 + r2
    keys_longer, keys_shorter = [], []
    for j, var in enumerate(shorter):
        at = bisect_left(merged, var._key, key=_name)
        if at < len(merged) and merged[at] is var:
            keys_longer.append(positions[at] - base)
            keys_shorter.append(j)
        else:
            merged.insert(at, var)
            positions.insert(at, other_base + j)
    merged = tuple(merged)
    test = True if condition is None else _condition_test(condition, merged)
    if test is False:
        return None
    keys1, keys2 = (keys_longer, keys_shorter) if first_longer else (keys_shorter, keys_longer)
    check1 = check2 = unequal = None
    if test is not True:
        variables = condition_vars(condition)
        if variables.issubset(domain2):
            check2 = _condition_test(condition, domain2)
        elif variables.issubset(domain1):
            check1 = _condition_test(condition, domain1)
        else:  # two variables, one bound only on each side
            var1, var2 = condition.left, condition.right
            if var1 not in domain1:
                var1, var2 = var2, var1
            if type(condition) is Eq:
                keys1.append(domain1.index(var1))
                keys2.append(domain2.index(var2))
            else:
                unequal = (domain1.index(var1), domain2.index(var2))
    if len(merged) == len(longer):
        layout = _FIRST if first_longer else _SECOND
    else:  # neither domain holds the other, so the merge has two items at least
        layout = itemgetter(*positions)
    keys2 = tuple(keys2)
    return merged, layout, _key_getter(keys1), keys2, _key_getter(keys2), check1, check2, unequal


def _put(table: dict, domain: tuple, rows) -> None:
    """Adds `rows` to `table[domain]` without changing a set another table holds."""
    old = table.get(domain)
    table[domain] = rows if old is None else old | rows


def _union(table1: dict, table2: dict) -> dict:
    out = dict(table1)
    for domain, rows in table2.items():
        _put(out, domain, rows)
    return out


def _index(rows, key, check) -> dict:
    """The rows that pass `check` (all when it is None) by their probe key."""
    index: dict = {}
    for row in rows if check is None else filter(check, rows):
        index.setdefault(key(row), []).append(row)
    return index


def _join(table1: dict, table2: dict, condition: Constraint | None = None) -> dict:
    """The rows of all unions of compatible pairs that satisfy `condition`."""
    out: dict = {}
    for domain2, rows2 in table2.items():
        indexes: dict = {}  # probe-key positions -> index of rows2
        for domain1, rows1 in table1.items():
            plan = _pair_plan(domain1, domain2, condition)
            if plan is None:
                continue
            merged, layout, key1, keys2, key2, check1, check2, unequal = plan
            index = indexes.get(keys2)
            if index is None:
                index = indexes[keys2] = _index(rows2, key2, check2)
            if not index:
                continue
            found = []
            for r1 in rows1 if check1 is None else filter(check1, rows1):
                matches = index.get(key1(r1))
                if matches is None:
                    continue
                if unequal is not None:
                    value, j = r1[unequal[0]], unequal[1]
                    matches = [r2 for r2 in matches if r2[j] is not value]
                    if not matches:
                        continue
                if layout is _FIRST:
                    found.append(r1)
                elif layout is _SECOND:
                    found += matches
                else:
                    found += [layout(r1 + r2) for r2 in matches]
            if found:
                out.setdefault(merged, set()).update(found)
    return out


def _minus(table1: dict, table2: dict) -> dict:
    """The rows of the first table compatible with no row of the second."""
    out = {}
    probes: dict = {}  # (domain 2, its probe-key positions) -> the probe keys of its rows
    for domain1, rows1 in table1.items():
        rows = rows1
        for domain2, rows2 in table2.items():
            _, _, key1, keys2, key2, _, _, _ = _pair_plan(domain1, domain2, None)
            keys = probes.get((domain2, keys2))
            if keys is None:
                keys = probes[domain2, keys2] = set(map(key2, rows2))
            rows = [row for row in rows if key1(row) not in keys]
            if not rows:
                break
        if rows:
            out[domain1] = rows1 if rows is rows1 else set(rows)
    return out


def _filter(table: dict, condition: Constraint) -> dict:
    out = {}
    for domain, rows in table.items():
        test = _condition_test(condition, domain)
        if test is True:
            out[domain] = rows
        elif test is not False:
            kept = set(filter(test, rows))
            if kept:
                out[domain] = kept
    return out


def _project(table: dict, scheme) -> dict:
    out: dict = {}
    for domain, rows in table.items():
        positions = [i for i, var in enumerate(domain) if var in scheme]
        if len(positions) == len(domain):
            _put(out, domain, rows)
            continue
        if len(positions) > 1:
            projected = set(map(itemgetter(*positions), rows))
        elif positions:
            i = positions[0]
            projected = {(row[i],) for row in rows}
        else:
            projected = {()}
        _put(out, tuple(domain[i] for i in positions), projected)
    return out


def _domain_and_row(mapping: Mapping) -> tuple:
    items = mapping._items
    return tuple([var for var, _ in items]), tuple([value for _, value in items])


def _table(omega: SolutionSet) -> dict:
    table: dict = {}
    for mapping in omega:
        domain, row = _domain_and_row(mapping)
        table.setdefault(domain, set()).add(row)
    return table


def _mappings(table: dict) -> SolutionSet:
    trusted = Mapping._trusted
    return frozenset([trusted(tuple(zip(domain, row))) for domain, rows in table.items() for row in rows])


def join(omega1: SolutionSet, omega2: SolutionSet, condition: Constraint | None = None) -> SolutionSet:
    """All unions of compatible pairs drawn from the two solution sets; given
    an atomic `condition`, only the unions that satisfy it.  The condition is
    checked on each compatible pair before its union is built; the result is
    the definitional one, the join followed by the filter."""
    return _mappings(_join(_table(omega1), _table(omega2), condition))


def set_minus(omega1: SolutionSet, omega2: SolutionSet) -> SolutionSet:
    """Mappings of the first set compatible with nothing in the second."""
    return _mappings(_minus(_table(omega1), _table(omega2)))


def satisfies(mapping: Mapping, constraint: Constraint) -> bool:
    """Constraint satisfaction under the error-as-false reading of
    `_condition_test`: an equality or nonequality (or a constant form) over
    an unbound variable is unsatisfied, a negated bound check satisfied."""
    domain, row = _domain_and_row(mapping)
    test = _condition_test(constraint, domain)
    return test if type(test) is bool else test(row)


def _graph_index(graph: RdfGraph) -> dict:
    """The graph's (subject, object) pairs by predicate."""
    index: dict = {}
    for triple in graph.triples:
        index.setdefault(triple.predicate, []).append((triple.subject, triple.object))
    return index


def _match_triple(tp: TriplePattern, index: dict) -> dict:
    """The table of one triple pattern over a graph indexed by `_graph_index`:
    a constant predicate reads only its own pairs, a variable one all of them."""
    subject, predicate, obj = tp.subject, tp.predicate, tp.object
    if type(predicate) is not Variable:
        pairs = index.get(predicate, ())
        if type(subject) is not Variable:
            if type(obj) is not Variable:
                domain, rows = (), {() for s, o in pairs if s is subject and o is obj}
            else:
                domain, rows = (obj,), {(o,) for s, o in pairs if s is subject}
        elif type(obj) is not Variable:
            domain, rows = (subject,), {(s,) for s, o in pairs if o is obj}
        elif subject is obj:
            domain, rows = (subject,), {(s,) for s, o in pairs if s is o}
        elif subject._key < obj._key:
            domain, rows = (subject, obj), set(pairs)
        else:
            domain, rows = (obj, subject), {(o, s) for s, o in pairs}
        return {domain: rows} if rows else {}
    # a variable predicate: every predicate's pairs, tested as they are read;
    # a subject or object that is the predicate's variable must be the
    # predicate, a constant must be itself, an object that is the subject's
    # variable must be the subject, and a variable seen first is free
    s_is_p, o_is_p = subject is predicate, obj is predicate
    s_free = not s_is_p and type(subject) is Variable
    tie = s_free and obj is subject
    o_free = not o_is_p and not tie and type(obj) is Variable
    if s_free and o_free:
        free = sorted(((subject, 0), (predicate, 1), (obj, 2)), key=lambda pair: pair[0]._key)
        domain, row = tuple(var for var, _ in free), itemgetter(*[i for _, i in free])
    elif s_free or o_free:  # the predicate's variable and one more
        var, at = (subject, 0) if s_free else (obj, 2)
        if var._key < predicate._key:
            domain, row = (var, predicate), itemgetter(at, 1)
        else:
            domain, row = (predicate, var), itemgetter(1, at)
    else:
        domain, row = (predicate,), itemgetter(slice(1, 2))
    rows = {
        row((s, p, o))
        for p, pairs in index.items()
        for s, o in pairs
        if (s_free or s is (p if s_is_p else subject))
        and (o_free or o is (s if tie else p if o_is_p else obj))
    }
    return {domain: rows} if rows else {}


def _operands(node: Pattern) -> tuple:
    """The nodes whose solutions `evaluate` needs for `node`: those of its
    children, except that a FILTER over an AND or an OPT takes its two sides."""
    kind = type(node)
    if kind is Filter:
        sub = node.pattern
        return (sub.left, sub.right) if type(sub) is And or type(sub) is Opt else (sub,)
    return () if kind is TriplePattern else children(node)


def evaluate(pattern: Pattern, graph: RdfGraph) -> SolutionSet:
    """The set of solution mappings of a pattern on a graph.

    Requires atomic filter constraints; normalize composite filters first.
    Each distinct node is evaluated once, along `post_order`; the table of a
    node with one parent is dropped as that parent reads it.  A FILTER over
    an OPT is the filtered join united with the filtered difference, so the
    join rows the condition rejects are never built.
    """
    return _solutions(pattern, _graph_index(graph))


def _solutions(pattern: Pattern, index: dict) -> SolutionSet:
    """`evaluate` over a graph indexed by `_graph_index`."""
    if type(pattern) is TriplePattern:  # one triple pattern needs no walk
        return _mappings(_match_triple(pattern, index))
    shared: set = set()
    tables: dict = {}
    for node in post_order(pattern, _operands, shared):
        kind = type(node)
        if kind is TriplePattern:
            tables[id(node)] = _match_triple(node, index)
            continue
        args = [tables[id(kid)] if id(kid) in shared else tables.pop(id(kid)) for kid in _operands(node)]
        if kind is Union:
            out = _union(*args)
        elif kind is And:
            out = _join(*args)
        elif kind is Opt:
            out = _union(_join(*args), _minus(*args))
        elif kind is Filter:
            condition = node.condition
            if not is_atomic(condition):
                raise NotNormalized(f"composite filter condition in evaluate: {condition!r}")
            sub = type(node.pattern)
            if sub is And:
                out = _join(args[0], args[1], condition)
            elif sub is Opt:
                out = _union(_join(args[0], args[1], condition), _filter(_minus(*args), condition))
            else:
                out = _filter(args[0], condition)
        elif kind is Select:
            out = _project(args[0], node.scheme)
        else:
            raise TypeError(f"not a pattern: {node!r}")
        tables[id(node)] = out
    return _mappings(tables[id(pattern)])


# --- graph fixture format -----------------------------------------------------
#
# One triple per line: `<s> <p> <o> .` with IRIs angle-bracketed, literals
# quoted with the escapes of `terms.LITERAL_ESCAPES`, and blank nodes
# written `_:label`.  Bare words are read as IRIs.

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
        term = Literal(unescape_literal(match.group("lit")))
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
    return "\n".join(graph_lines(graph))
