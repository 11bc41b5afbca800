"""RDF terms, triples, graphs, and solution mappings.

Terms come in four disjoint kinds: IRIs, literals, blank nodes, and query
variables.  IRIs and literals together are the *constants*.  Literals are
compared by lexical form only; no datatype or language-tag semantics is
applied anywhere in this package.

The term classes are interned immutable values: each class keeps a plain
dict from key to a weak reference to its one live instance, whose callback
removes the entry when the instance dies, and constructing a term returns
that instance.  Equal terms are therefore the same object, so terms compare
and hash by identity, in C; they are the innermost objects of every join,
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

The parser, which reads a term per token, finds a live variable or IRI in
its class's table itself: `get`, then call the weak reference, about
0.06 µs, and it calls the constructor only when none is live.  A
constructor call that finds its term takes about 0.2 µs, and building a
term about 2 µs (300 live keys, best of 15; 2-core x86-64 box, Python
3.11.7).

Each term carries its text in the graph fixture syntax (`<iri>`,
`"escaped literal"`, `_:b`, `?v`), made once by its class's `_text_of`
when the term is built, which also checks the key; `format_term` returns
it, so printing a witness or a sample formats no term.  That is one string
per live term, about 73 bytes for a 24-character IRI's text.
"""

from __future__ import annotations

import itertools
import re
import threading
import weakref
from _weakref import _remove_dead_weakref
from typing import Collection, Iterable, Iterator, Union

from .record import Record, _setattr, slot_setters

_INTERN_LOCK = threading.Lock()

#: How many of the most recently built terms are kept alive.
RING_SIZE = 4096
_RING = [None] * RING_SIZE
_RING_SLOTS = itertools.cycle(range(RING_SIZE))


#: A literal's escapes in the graph fixture syntax: the backslash, the
#: quote, and every character that `str.splitlines` breaks a line at, so
#: that a literal stays on its triple's line.
LITERAL_ESCAPES = {
    "\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r",
    **{c: f"\\u{ord(c):04X}" for c in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"},
}
_ESCAPE_TABLE = str.maketrans(LITERAL_ESCAPES)
_UNESCAPED = {escape: char for char, escape in LITERAL_ESCAPES.items()}
_ESCAPE_RE = re.compile("|".join(map(re.escape, _UNESCAPED)))


class _Term:
    __slots__ = ("_key", "_text", "__weakref__")

    def __init_subclass__(cls):
        table = cls._interned = {}  # key -> weak reference to the live term

        # a term died: drop its entry, unless a new term took the key; bound
        # here, as module globals may be gone when the last terms die at exit
        def forget(ref, remove=_remove_dead_weakref):
            remove(table, ref.key)

        cls._forget = staticmethod(forget)

    def __new__(cls, key: str):
        ref = cls._interned.get(key)
        term = ref() if ref is not None else None
        if term is None:
            text = cls._text_of(key)  # checks the key, before any term is built
            with _INTERN_LOCK:  # two threads must not both create the instance
                ref = cls._interned.get(key)
                term = ref() if ref is not None else None
                if term is None:
                    term = object.__new__(cls)
                    object.__setattr__(term, "_key", key)
                    object.__setattr__(term, "_text", text)
                    cls._interned[key] = weakref.KeyedRef(term, cls._forget, key)
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

    @staticmethod
    def _text_of(name: str) -> str:
        return f"<{name}>"

    @property
    def name(self) -> str:
        return self._key

    def __str__(self) -> str:
        return self.name


class Literal(_Term):
    __slots__ = ()

    @staticmethod
    def _text_of(lexical: str) -> str:
        return f'"{lexical.translate(_ESCAPE_TABLE)}"'

    @property
    def lexical(self) -> str:
        return self._key

    def __str__(self) -> str:
        return '"%s"' % self.lexical


class BlankNode(_Term):
    __slots__ = ()

    @staticmethod
    def _text_of(label: str) -> str:
        return "_:" + label

    @property
    def label(self) -> str:
        return self._key

    def __str__(self) -> str:
        return "_:" + self.label


class Variable(_Term):
    __slots__ = ()

    @staticmethod
    def _text_of(name: str) -> str:
        if not name:
            raise ValueError("variable name must be nonempty")
        return "?" + name

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
    """Render a term in the graph fixture syntax (IRIs angle-bracketed):
    the text the term carries, made when it was built."""
    return term._text


def unescape_literal(body: str) -> str:
    """The lexical form of a literal's quoted `body` in the graph fixture
    syntax: each of the `LITERAL_ESCAPES` read back to its character in one
    left-to-right pass; any other backslash stays as it is."""
    return _ESCAPE_RE.sub(lambda escape: _UNESCAPED[escape[0]], body)


#: The term classes an RDF triple takes by exact type, checked first;
#: anything else goes through the checks that name what is wrong.
_GRAPH_SUBJECTS = frozenset((Iri, BlankNode))
_GRAPH_OBJECTS = frozenset((Iri, Literal, BlankNode))


class RdfTriple(Record):
    """A triple of an RDF graph: (IRI or blank) x IRI x any term but a variable."""

    __slots__ = ("subject", "predicate", "object")

    def __init__(self, subject: Term, predicate: Term, object: Term):
        if type(predicate) is not Iri or type(subject) not in _GRAPH_SUBJECTS or (
            type(object) not in _GRAPH_OBJECTS
        ):
            if not isinstance(subject, (Iri, BlankNode)):
                raise ValueError(f"triple subject must be an IRI or blank node: {subject}")
            if not isinstance(predicate, Iri):
                raise ValueError(f"triple predicate must be an IRI: {predicate}")
            if isinstance(object, Variable):
                raise ValueError(f"triple object must not be a variable: {object}")
        _set_subject(self, subject)
        _set_predicate(self, predicate)
        _set_object(self, object)

    # written out, as faster than the base's: every graph hashes its triples
    def __eq__(self, other):
        if type(other) is RdfTriple:
            return (self.subject, self.predicate, self.object) == (other.subject, other.predicate, other.object)
        return NotImplemented

    def __hash__(self):
        return hash((self.subject, self.predicate, self.object))

    def __str__(self) -> str:
        return graph_lines((self,))[0]


_set_subject, _set_predicate, _set_object = slot_setters(RdfTriple)


def graph_lines(triples: Collection[RdfTriple]) -> list[str]:
    """The triples in the graph fixture syntax, one `<s> <p> <o> .` line
    each, sorted; each term's text is the one it carries."""
    return sorted([f"{t.subject._text} {t.predicate._text} {t.object._text} ." for t in triples])


class RdfGraph(Record):
    """A finite set of RDF triples (set semantics, no duplicates)."""

    __slots__ = ("triples",)

    def __init__(self, triples: frozenset[RdfTriple]):
        _setattr(self, "triples", triples)

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
        """Without `variables`; the mapping itself when it binds none of them."""
        kept = tuple((v, t) for v, t in self._items if v not in variables) if variables else self._items
        return self if len(kept) == len(self._items) else Mapping._trusted(kept)

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
        inner = ", ".join(f"{v._text}: {t._text}" for v, t in self._items)
        return "{%s}" % inner


#: A solution set is a finite set of mappings.
SolutionSet = frozenset  # frozenset[Mapping]
