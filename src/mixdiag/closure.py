"""The inference closure of a snapshot: forward-chained semi-naively,
numbered and indexed for joins and queries (see ``_Closure``)."""

from __future__ import annotations

import weakref
from collections import defaultdict
from itertools import islice
from operator import itemgetter
from typing import TYPE_CHECKING, Collection, Iterable, Sequence

from .query import Pattern
from .terms import RDF_TYPE, RDFS_SUBCLASS_OF, Iri, Term, Triple, iri

if TYPE_CHECKING:
    from .kg import KnowledgeGraph

EX_EQUIVALENT_TO = iri("ex:equivalentTo")
EX_ATTRIBUTE_TO_CLASS = iri("ex:attributeToClass")
EX_RELATION_TO = iri("ex:relationTo")

_RULE_PREDICATES = (
    RDFS_SUBCLASS_OF, RDF_TYPE, EX_EQUIVALENT_TO, EX_RELATION_TO, EX_ATTRIBUTE_TO_CLASS
)
_SUB, _TYPE, _EQUIV, _RELATION, _ATTRIBUTE = range(len(_RULE_PREDICATES))


class _Closure:
    """A numbered inference closure with its join and query indexes.

    Rules: an attribute aligned to a class is an instance of it; subClassOf
    is transitive and types propagate along it; equivalence is symmetric and
    equivalent terms share every assertion in either position (which makes
    it transitive); properties propagate along ex:relationTo.  Derived
    triples with a literal subject are dropped.

    Terms are numbered, so joins hash small ints.  ``facts`` is an ordered
    set of numbered facts, and every index maps a term number to the facts
    it holds, in order of entry: ``by_subject``, ``by_object`` and
    ``by_predicate`` hold every fact; ``edges_from``, ``equivalents`` and
    ``generals`` hold, by subject, the edges (below), the equivalences and
    the ex:relationTo facts with IRI ends.  ``_index`` alone decides where a
    fact goes.  ``extend`` adds asserted triples and runs semi-naive forward
    chaining seeded with those not yet known: each round indexes the facts
    new since the last one and joins only them against the indexes of every
    fact so far.

    The state outlives the call: it stays on the snapshot that computed it.
    A graph with no materialized ancestor runs the loop once, seeded with
    every asserted triple.  A snapshot made by ``insert`` from a
    materialized one (through any snapshots not yet materialized) takes its
    ancestor's state over when it is inferred and seeds the loop with only
    the triples asserted since.  ``extend`` only appends, and ``facts``, the
    numbering and every index list keep the order they entered in, so the
    ancestor's closure stays the first ``n`` facts over the first ``m``
    terms.  When it needs its indexes again (a query, or another child) it
    cuts the state back to those prefixes: it pops each later fact, newest
    first, off the ends of the lists it entered, and the terms a discarded
    branch numbered go with it.  While a live snapshot still stands for a
    longer prefix (``sharers``), it leaves the state to that one and runs
    the loop afresh with every asserted triple instead.

    Transitivity is one walk: an *edge* is a subClassOf fact that entered by
    any rule but transitivity and equivalence sharing, and only a new edge
    joins to the left, against the subClassOf and type facts whose object
    is its subject.
    A new subclass or type fact ``(s, p, o)`` gives ``s`` every class that
    the edges known in its round reach from ``o`` (one walk per object and
    round); what a walk derives enters as the walk's, whatever else derived
    it, and does not walk again.  By induction on the round in which
    ``b subClassOf c`` entered, every known ``a subClassOf b`` gives
    ``a subClassOf c``: an edge is joined to the left if ``a``'s fact came
    no later, else reached by its walk from ``b`` or by the walk that
    derived it; a walk's fact came from an earlier ``b subClassOf w`` and a
    path of earlier edges from ``w``, which ``a subClassOf w`` follows; a
    transitive fact from an earlier ``b subClassOf w`` and edge from ``w``;
    a copy from an earlier fact of a term equivalent to ``b`` or ``c``,
    which ``a``'s fact is shared with too.  The same holds for types.  From
    scratch a chain of n classes closes in two rounds of O(n^2) steps, as
    many as its facts, and a leaf insert takes two rounds at any depth.

    Queries read the same indexes: a bound subject or object narrows a
    pattern to that term's facts, a bound predicate alone to its facts.
    """

    def __init__(self):
        self.number: dict[Term, int] = {t: i for i, t in enumerate(_RULE_PREDICATES)}
        self.terms: list[Term] = list(_RULE_PREDICATES)
        self.is_iri: list[bool] = [True] * len(_RULE_PREDICATES)
        self.facts: dict[tuple, None] = {}  # an ordered set: the facts in order of entry
        (self.by_subject, self.by_object, self.by_predicate, self.edges_from, self.equivalents,
         self.generals) = (defaultdict(list) for _ in range(6))
        # the snapshots whose closure this is, by id, each standing for a prefix
        self.sharers: weakref.WeakValueDictionary[int, KnowledgeGraph] = (
            weakref.WeakValueDictionary()
        )

    def _indexes(self) -> tuple[defaultdict, ...]:
        return (self.by_subject, self.by_object, self.by_predicate, self.edges_from,
                self.equivalents, self.generals)

    def _index(self, delta: list[tuple], edges: list[tuple]) -> None:
        is_iri = self.is_iri
        by_subject, by_object, by_predicate, edges_from, equivalents, generals = self._indexes()
        for t in edges:
            edges_from[t[0]].append(t)
        for t in delta:
            s, p, o = t
            by_subject[s].append(t)
            by_object[o].append(t)
            by_predicate[p].append(t)
            if p == _EQUIV:
                equivalents[s].append(t)
            elif p == _RELATION and is_iri[s] and is_iri[o]:
                generals[s].append(t)

    def size(self) -> tuple[int, int]:
        """How many facts and terms are known: the prefix that stands for
        this closure after another ``extend``."""
        return len(self.facts), len(self.terms)

    def needed_beyond(self, size: tuple[int, int]) -> bool:
        """Whether a live snapshot stands for more than the first ``size``."""
        return any(
            graph._closure is self and graph._size[0] > size[0]
            for graph in self.sharers.values()
        )

    def truncate(self, size: tuple[int, int]) -> None:
        """Cut back to the first facts and terms ``size`` counts: pop each
        later fact, newest first, off its subject's, object's and predicate's
        lists, and off its subject's list in its rule predicate's index when
        it ends that list, then drop the later terms' lists."""
        n_facts, n_terms = size
        facts, indexes = self.facts, self._indexes()
        by_subject, by_object, by_predicate, edges_from, equivalents, generals = indexes
        by_rule = {_SUB: edges_from, _EQUIV: equivalents, _RELATION: generals}
        while len(facts) > n_facts:
            fact = s, p, o = facts.popitem()[0]
            by_subject[s].pop()
            by_object[o].pop()
            by_predicate[p].pop()
            entries = by_rule[p].get(s) if p in by_rule else None
            if entries and entries[-1] == fact:  # a list holding it ends with it by now
                entries.pop()
        for term in range(n_terms, len(self.terms)):
            for index in indexes:
                index.pop(term, None)
        while len(self.number) > n_terms:
            self.number.popitem()
        del self.terms[n_terms:], self.is_iri[n_terms:]

    def extend(self, asserted: Iterable[Triple]) -> None:
        """Add ``asserted`` and close over it."""
        number, terms, is_iri, facts = self.number, self.terms, self.is_iri, self.facts
        seeds = {
            tuple(number.setdefault(term, len(number)) for term in (t.subject, t.predicate, t.object))
            for t in asserted
        }
        added = list(islice(number, len(terms), None))
        terms += added
        is_iri += [isinstance(term, Iri) for term in added]

        def admit(candidates: list[tuple]) -> list[tuple]:
            new = [t for t in dict.fromkeys(candidates) if t not in facts and is_iri[t[0]]]
            facts.update(dict.fromkeys(new))
            return new

        # asserted facts enter as they are, literal subjects too
        delta = climbing = [t for t in seeds if t not in facts]
        facts.update(dict.fromkeys(delta))
        by_subject, by_object, by_predicate, edges_from, equivalents, generals = self._indexes()
        edges = [t for t in delta if t[1] == _SUB]
        while delta:
            self._index(delta, edges)
            fresh: list[tuple] = []
            chained: list[tuple] = []  # transitivity's and sharing's: never an edge
            reached: list[tuple] = []  # the upward walk's: never walks again
            for s, p, o in edges:
                below = by_object.get(s, ())
                chained += [(x, p, o) for x, q, _ in below if q == _SUB]
                fresh += [(x, _TYPE, o) for x, q, _ in below if q == _TYPE]
            above: dict[int, list[int]] = {}  # the classes an object reaches by edges
            for s, p, o in climbing:
                if (p == _SUB or p == _TYPE) and o in edges_from:
                    if o not in above:
                        above[o] = self._above(o)
                    reached += [(s, p, sup) for sup in above[o]]
            for s, p, o in delta:
                if p in generals:
                    fresh += [(s, general, o) for _, _, general in generals[p]]
                if s in equivalents:
                    chained += [(x, p, o) for _, _, x in equivalents[s] if is_iri[x]]
                if o in equivalents:
                    chained += [(s, p, x) for _, _, x in equivalents[o]]
                if p == _ATTRIBUTE and is_iri[o]:
                    fresh.append((s, _TYPE, o))
                elif p == _EQUIV:
                    fresh.append((o, p, s))
                    if is_iri[o]:
                        chained += [(o, fp, fo) for _, fp, fo in by_subject.get(s, ())]
                    chained += [(fs, fp, o) for fs, fp, _ in by_object.get(s, ())]
                elif p == _RELATION and is_iri[s] and is_iri[o]:
                    fresh += [(fs, o, fo) for fs, _, fo in by_predicate.get(s, ())]
            delta = admit(reached)  # first, so what another rule derived too walks no more
            climbing = admit(fresh)
            edges = [t for t in climbing if t[1] == _SUB]
            climbing += admit(chained)
            delta += climbing

    def _above(self, term: int) -> list[int]:
        """Every class reachable from ``term`` by one edge or more."""
        edges_from, seen, stack = self.edges_from, {}, [term]
        while stack:
            for _, _, sup in edges_from.get(stack.pop(), ()):
                if sup not in seen:
                    seen[sup] = None
                    stack.append(sup)
        return list(seen)

    def _reader(self, shape: Sequence[str | None], bound: Collection[str]) -> tuple:
        """Where the facts that fit a pattern whose constants and ``bound``
        variables are given are read: the position of the subject, else the
        object, else the predicate, and its index (None: every fact), and a
        getter of the other given positions, which each fact is tested on."""
        s, p, o = shape
        s, p, o = s is None or s in bound, p is None or p in bound, o is None or o in bound
        if s:
            test = itemgetter(1, 2) if p and o else itemgetter(1 if p else 2) if p or o else None
            return 0, self.by_subject, test
        if o:
            return 2, self.by_object, itemgetter(1) if p else None
        return 1, self.by_predicate if p else None, None

    def count(self, pattern: Pattern, shape: Sequence[str | None]) -> int:
        """How many known facts fit ``pattern``'s constants."""
        ids = list(map(self.number.get, pattern))  # None: unknown, or a variable's (never read)
        at, index, test = self._reader(shape, ())
        facts = self.facts if index is None else index.get(ids[at], ())
        return len(facts) if test is None else list(map(test, facts)).count(test(ids))

    def join(
        self, pattern: Pattern, shape: Sequence[str | None], rows: list[dict],
        bound: Collection[str],
    ) -> list[dict]:
        """Extend each of ``rows``, which bind the variables in ``bound``, by
        every binding of ``pattern``'s other variables (``shape`` names
        them) by the known facts that fit it.  The index read and the
        positions tested are picked, and constants numbered, once per call;
        each row looks its bound terms' numbers up.  A free variable that
        occurs twice must take one term, which compares numbers, not terms."""
        number, terms = self.number, self.terms
        ids = list(map(number.get, pattern))  # a bound variable's is set per row
        keyed = [(i, name) for i, name in enumerate(shape) if name in bound]
        free = [(i, name) for i, name in enumerate(shape) if name is not None and name not in bound]
        at, index, test = self._reader(shape, bound)
        first = {name: i for i, name in reversed(free)}  # each free variable's first position
        twice = len(first) < len(free)
        if len(first) == 1:  # the common case
            (name, place), = first.items()
        joined: list[dict] = []
        for row in rows:
            for i, var in keyed:
                ids[i] = number.get(row[var])
            want = test(ids) if test else None
            for f in self.facts if index is None else index.get(ids[at], ()):
                if test and test(f) != want or twice and any(f[i] != f[first[n]] for i, n in free):
                    continue
                if len(first) == 1:
                    joined.append({**row, name: terms[f[place]]})
                else:
                    joined.append({**row, **{n: terms[f[i]] for n, i in first.items()}})
        return joined

    def knows(self, triple: tuple[Term, Term, Term]) -> bool:
        number = self.number
        s = number.get(triple[0])
        return s is not None and (s, number.get(triple[1]), number.get(triple[2])) in self.facts
