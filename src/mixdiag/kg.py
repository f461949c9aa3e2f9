"""An in-memory triple store and its query solving.

The store keeps asserted triples as a frozenset; every mutation returns a
new snapshot, so readers are never invalidated.  Query answering spans
three layers: asserted triples, the inference closure (``closure``), and
virtual observation triples from bound sensor CSV files (``virtual``).
A query joins its patterns in a fixed order, most constrained first.  Each
pattern is joined with all the rows so far at once by each source: the
closure unless no fact fits the pattern's constants, each bound log unless
they rule out all its rows (refreshed then, once per query).  A pattern's
shape (``Query.shapes``) is read once, when the query is built, and a
source picks the index it reads once per join; each row only looks its
terms up in the source's indexes, and a row a log extended keeps the row
number of the subject it bound, for the log's later patterns.  A log triple
the closure also holds is answered by the closure alone.  Answers are
sorted on one flat key per row.
"""

from __future__ import annotations

from itertools import islice
from operator import add, itemgetter
from typing import Iterable, Sequence

from .closure import EX_ATTRIBUTE_TO_CLASS, EX_EQUIVALENT_TO, EX_RELATION_TO, _Closure
from .errors import MixdiagError
from .query import Pattern, Query, _filter_accepts
from .terms import RDFS_SUBCLASS_OF, Iri, Term, Triple, term_sort_key
from .virtual import VirtualBinding

ALIGNMENT_PREDICATES = {
    "equivalent_to": EX_EQUIVALENT_TO,
    "subclass": RDFS_SUBCLASS_OF,
    "attribute_to_class": EX_ATTRIBUTE_TO_CLASS,
    "relation_to": EX_RELATION_TO,
}


class KnowledgeGraph:
    """Immutable-by-convention triple store; mutations return new snapshots."""

    def __init__(
        self,
        asserted: Iterable[Triple] = (),
        virtual_sources: Sequence[VirtualBinding] = (),
    ):
        self.asserted: frozenset[Triple] = frozenset(asserted)
        self.virtual_sources: tuple[VirtualBinding, ...] = tuple(virtual_sources)
        # the numbered closure whose first _size facts and terms are this
        # snapshot's
        self._closure: _Closure | None = None
        self._size = (0, 0)
        # the materialized snapshot this one extends, until it materializes
        self._base: KnowledgeGraph | None = None

    def __len__(self) -> int:
        return len(self.asserted)

    # -- mutations (copy-on-write) ------------------------------------------

    def insert(self, triples: Iterable[Triple]) -> "KnowledgeGraph":
        child = KnowledgeGraph(self.asserted | frozenset(triples), self.virtual_sources)
        child._base = self if self._closure is not None else self._base
        return child

    def align(self, mechanism: str, a: Iri, b: Iri) -> "KnowledgeGraph":
        """Assert one of the four alignment mechanisms between two IRIs."""
        try:
            predicate = ALIGNMENT_PREDICATES[mechanism]
        except KeyError:
            raise MixdiagError(f"unknown alignment mechanism {mechanism!r}") from None
        return self.insert([Triple(a, predicate, b)])

    def bind_virtual(self, binding: VirtualBinding) -> "KnowledgeGraph":
        return KnowledgeGraph(self.asserted, self.virtual_sources + (binding,))

    # -- inference ----------------------------------------------------------

    def infer(self) -> "KnowledgeGraph":
        """Materialize the inference closure on this snapshot and return it."""
        self._state()
        return self

    def all_triples(self) -> frozenset[Triple]:
        """Asserted plus inferred triples, built on each call."""
        terms = self._state().terms
        return frozenset(
            Triple(terms[s], terms[p], terms[o])
            for s, p, o in islice(self._closure.facts, self._size[0])
        )

    def _state(self) -> _Closure:
        """The numbered closure of this snapshot, computed on first use.
        When a child has extended it since, it is cut back to this
        snapshot's prefix; while a snapshot that stands for a longer prefix
        lives, this one computes its closure afresh instead."""
        closure = self._closure
        if closure is not None and closure.size() != self._size:
            if closure.needed_beyond(self._size):
                del closure.sharers[id(self)]
                closure = None
            else:
                closure.truncate(self._size)
        if closure is None:
            base, self._base = self._base, None
            if base is None:
                closure, delta = _Closure(), self.asserted
            else:
                closure, delta = base._state(), self.asserted - base.asserted
            closure.extend(delta)
            self._closure, self._size = closure, closure.size()
            closure.sharers[id(self)] = self
        return closure

    # -- query answering ------------------------------------------------------

    def _join(
        self, state: _Closure, pattern: Pattern, shape: Sequence[str | None], count: int,
        rows: list[dict], bound: set[str], fresh: set[VirtualBinding],
    ) -> list[dict]:
        """Extend each of ``rows``, which bind the variables in ``bound``, by
        every binding of ``pattern``.  Each source is asked once, with every
        row: the closure unless ``count``, its facts that fit, is 0, and
        each bound log unless the pattern's constants rule out its every
        row."""
        known = state if count else None
        joined = state.join(pattern, shape, rows, bound) if count else []
        for log in self.virtual_sources:
            if log.ready(pattern, shape, fresh):
                joined += log.join(pattern, shape, rows, bound, known)
        return joined

    def _solve(self, q: Query) -> list[dict]:
        # Evaluate the most constrained pattern first, and of those the one
        # with the fewest stored candidates for its constants (counted once:
        # no row changes them); result multiplicity does not depend on join
        # order.  A row may also hold a log's row number under a tuple key
        # (see VirtualBinding.join); callers read only named variables.
        state = self._state()
        steps = [(p, shape, state.count(p, shape)) for p, shape in zip(q.where, q.shapes)]
        bound: set[str] = set()
        fresh: set[VirtualBinding] = set()

        rows: list[dict] = [{}]
        while steps and rows:
            ranks = [  # fixed positions: the constants and the bound variables
                (shape.count(None) + sum(map(bound.__contains__, shape)), -count)
                for _, shape, count in steps
            ]
            best = steps.pop(ranks.index(max(ranks)))
            rows = self._join(state, *best, rows, bound, fresh)
            bound.update(set(best[1]) - {None})  # None stands at a constant
        return rows

    def query(self, q: Query) -> list[dict[str, Term]]:
        """Answer a query with bag semantics over asserted, inferred, and
        virtual triples.  Rows come back in a deterministic order: by the
        ``order_by`` variable when given (ties broken by the selected
        values), otherwise sorted by the selected values."""
        rows = self._solve(q)
        if q.filters:
            rows = [r for r in rows if all(_filter_accepts(r, f) for f in q.filters)]

        # A row's sort key is the ordering variable's key, then each selected
        # one's, laid end to end: term keys are all three long, so this
        # orders as the tuple of them does.
        first, *more = q.select if q.order_by is None else (q.order_by, *q.select)
        keys = list(map(term_sort_key, map(itemgetter(first), rows)))
        for name in more:
            keys = list(map(add, keys, map(term_sort_key, map(itemgetter(name), rows))))
        order = sorted(range(len(rows)), key=keys.__getitem__)[: q.limit]
        if len(q.select) == 1:  # a dict display builds a row in a third of the time
            (name,) = q.select
            return [{name: rows[i][name]} for i in order]
        return [{name: rows[i][name] for name in q.select} for i in order]
