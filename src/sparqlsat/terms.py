"""RDF terms, triples, graphs, and solution mappings.

Terms come in four disjoint kinds: IRIs, literals, blank nodes, and query
variables.  IRIs and literals together are the *constants*.  Literals are
compared by lexical form only; no datatype or language-tag semantics is
applied anywhere in this package.

The term classes are interned immutable values: each class keeps a weak table
from key to its one live instance, and constructing a term returns that
instance.  Equal terms are therefore the same object, so terms compare and
hash by identity, in C; they are the innermost objects of every join,
scheme, and solution-set operation.  Identity hashes differ from process to
process, so every output that lists terms sorts them explicitly.

The weak table alone would let a query's vocabulary die with the query, and
the next query would build it again, though finding a live term costs a
fraction of building one.  So one ring, shared by all term classes, holds
the last `RING_SIZE` terms built.  It is written only when a term is built,
so a lookup that finds its term costs nothing extra, and at most
`RING_SIZE` terms are kept alive that nothing else references.  The ring
pays only where one process handles many queries, as `analyze` and library
callers do; a single `check` builds each of its terms once either way.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from dataclasses import dataclass
from typing import Collection, Iterable, Iterator, Union

_INTERN_LOCK = threading.Lock()

#: How many of the most recently built terms are kept alive.
RING_SIZE = 4096
_RING = [None] * RING_SIZE
_RING_SLOTS = itertools.cycle(range(RING_SIZE))


class _Term:
    __slots__ = ("_key", "__weakref__")

    def __init_subclass__(cls):
        cls._interned = weakref.WeakValueDictionary()

    def __new__(cls, key: str):
        term = cls._interned.get(key)
        if term is None:
            with _INTERN_LOCK:  # two threads must not both create the instance
                term = cls._interned.get(key)
                if term is None:
                    term = object.__new__(cls)
                    object.__setattr__(term, "_key", key)
                    cls._interned[key] = term
                    _RING[next(_RING_SLOTS)] = term
        return term

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the intern table
        return (type(self), (self._key,))

    def __repr__(self):
        return f"{type(self).__name__}({self._key!r})"


class Iri(_Term):
    __slots__ = ()

    @property
    def name(self) -> str:
        return self._key

    def __str__(self) -> str:
        return self.name


class Literal(_Term):
    __slots__ = ()

    @property
    def lexical(self) -> str:
        return self._key

    def __str__(self) -> str:
        return '"%s"' % self.lexical


class BlankNode(_Term):
    __slots__ = ()

    @property
    def label(self) -> str:
        return self._key

    def __str__(self) -> str:
        return "_:" + self.label


class Variable(_Term):
    __slots__ = ()

    def __new__(cls, name: str):
        if not name:
            raise ValueError("variable name must be nonempty")
        return super().__new__(cls, name)

    @property
    def name(self) -> str:
        return self._key

    def __str__(self) -> str:
        return "?" + self.name


Term = Union[Iri, Literal, BlankNode, Variable]
Constant = Union[Iri, Literal]

#: A scheme is a finite set of variables.
Scheme = frozenset  # frozenset[Variable]


def is_constant(term: Term) -> bool:
    return isinstance(term, (Iri, Literal))


def format_term(term: Term) -> str:
    """Render a term in the graph fixture syntax (IRIs angle-bracketed)."""
    if isinstance(term, Iri):
        return f"<{term.name}>"
    if isinstance(term, Literal):
        escaped = term.lexical.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    return str(term)


#: The term classes an RDF triple takes by exact type, checked first;
#: anything else goes through the checks that name what is wrong.
_GRAPH_SUBJECTS = frozenset((Iri, BlankNode))
_GRAPH_OBJECTS = frozenset((Iri, Literal, BlankNode))


@dataclass(frozen=True, slots=True)
class RdfTriple:
    """A triple of an RDF graph: (IRI or blank) x IRI x any term but a variable."""

    subject: Term
    predicate: Term
    object: Term

    def __post_init__(self):
        if type(self.predicate) is Iri and type(self.subject) in _GRAPH_SUBJECTS and (
            type(self.object) in _GRAPH_OBJECTS
        ):
            return
        if not isinstance(self.subject, (Iri, BlankNode)):
            raise ValueError(f"triple subject must be an IRI or blank node: {self.subject}")
        if not isinstance(self.predicate, Iri):
            raise ValueError(f"triple predicate must be an IRI: {self.predicate}")
        if isinstance(self.object, Variable):
            raise ValueError(f"triple object must not be a variable: {self.object}")

    def __str__(self) -> str:
        return graph_lines((self,))[0]


def graph_lines(triples: Collection[RdfTriple], texts: dict | None = None) -> list[str]:
    """The triples in the graph fixture syntax, one `<s> <p> <o> .` line
    each, sorted.  Each distinct term is formatted once, into `texts`, a
    dict from terms to their `format_term` text that a caller may pass to
    read and extend."""
    texts = {} if texts is None else texts
    for triple in triples:
        for term in (triple.subject, triple.predicate, triple.object):
            if term not in texts:
                texts[term] = format_term(term)
    return sorted([f"{texts[t.subject]} {texts[t.predicate]} {texts[t.object]} ." for t in triples])


@dataclass(frozen=True, slots=True)
class RdfGraph:
    """A finite set of RDF triples (set semantics, no duplicates)."""

    triples: frozenset[RdfTriple]

    @classmethod
    def of(cls, triples: Iterable[RdfTriple]) -> "RdfGraph":
        return cls(frozenset(triples))

    def __iter__(self) -> Iterator[RdfTriple]:
        return iter(self.triples)

    def __len__(self) -> int:
        return len(self.triples)

    def __contains__(self, triple: RdfTriple) -> bool:
        return triple in self.triples


class Mapping:
    """A total function from a finite set of variables to non-variable terms.

    Mappings are immutable and hashable so that solution sets can be plain
    frozensets.  Applying a mapping to a constant returns the constant
    unchanged; applying it to a variable outside its domain is an error.
    """

    __slots__ = ("_map", "_items", "_hash")

    def __init__(self, bindings: "dict[Variable, Term] | Iterable[tuple[Variable, Term]]" = ()):
        pairs = bindings.items() if isinstance(bindings, dict) else bindings
        values: dict[Variable, Term] = {}
        for var, value in pairs:
            if not isinstance(var, Variable):
                raise TypeError(f"mapping keys must be variables: {var!r}")
            if isinstance(value, Variable):
                raise TypeError(f"mapping values must not be variables: {value!r}")
            if var in values and values[var] != value:
                raise ValueError(f"conflicting bindings for {var}")
            values[var] = value
        self._map = values
        self._items = tuple(sorted(values.items(), key=lambda kv: kv[0].name))
        self._hash = hash(self._items)

    @classmethod
    def _trusted(cls, items: tuple) -> "Mapping":
        """Internal: items must be name-sorted, conflict-free, pre-validated."""
        mapping = cls.__new__(cls)
        mapping._map = dict(items)
        mapping._items = items
        mapping._hash = hash(items)
        return mapping

    @property
    def domain(self) -> Scheme:
        return frozenset(self._map)

    def items(self) -> Iterator[tuple[Variable, Term]]:
        return iter(self._items)

    def get(self, var: Variable) -> Term | None:
        return self._map.get(var)

    def __getitem__(self, var: Variable) -> Term:
        return self._map[var]

    def __contains__(self, var: Variable) -> bool:
        return var in self._map

    def __len__(self) -> int:
        return len(self._map)

    def apply(self, term: Term) -> Term:
        """Image of a term: constants map to themselves, variables look up."""
        if isinstance(term, Variable):
            return self._map[term]
        return term

    def restrict(self, scheme: Scheme) -> "Mapping":
        return Mapping._trusted(tuple((v, t) for v, t in self._items if v in scheme))

    def drop(self, variables: Scheme) -> "Mapping":
        return Mapping._trusted(tuple((v, t) for v, t in self._items if v not in variables))

    def merge(self, other: "Mapping") -> "Mapping | None":
        """Union of two mappings, or None when they disagree on a shared variable."""
        left, right = self._items, other._items
        if not right:
            return self
        if not left:
            return other
        out = []
        i = j = 0
        len_left, len_right = len(left), len(right)
        while i < len_left and j < len_right:
            var_l, val_l = left[i]
            var_r, val_r = right[j]
            if var_l._key < var_r._key:
                out.append(left[i])
                i += 1
            elif var_r._key < var_l._key:
                out.append(right[j])
                j += 1
            else:
                if val_l != val_r:
                    return None
                out.append(left[i])
                i += 1
                j += 1
        out.extend(left[i:])
        out.extend(right[j:])
        return Mapping._trusted(tuple(out))

    def extends(self, other: "Mapping") -> bool:
        """True when this mapping agrees with `other` on all of `other`'s domain."""
        return all(self._map.get(v) == t for v, t in other._items)

    def __eq__(self, other) -> bool:
        return isinstance(other, Mapping) and self._items == other._items

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}: {format_term(t)}" for v, t in self._items)
        return "{%s}" % inner


#: A solution set is a finite set of mappings.
SolutionSet = frozenset  # frozenset[Mapping]
