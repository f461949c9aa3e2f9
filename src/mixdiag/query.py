"""Queries: basic graph patterns with comparison filters, and their JSON form."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from .errors import MixdiagError
from .terms import XSD_BOOLEAN, XSD_STRING, _TRUTH, Iri, Literal, PatternTerm, Term, Var
from .terms import term_from_jsonable, term_to_jsonable

_COMPARISON_OPS = ("<=", ">=", "!=", "=", "<", ">")


class QueryError(MixdiagError):
    """A query is structurally malformed."""


Pattern = tuple[PatternTerm, PatternTerm, PatternTerm]


@dataclass(frozen=True)
class Filter:
    var: str
    op: str
    constant: Term


@dataclass(frozen=True)
class Query:
    """A basic graph pattern with comparison filters.

    Every selected, filtered, or ordering variable must occur in a pattern.
    Patterns hold terms (``Iri``, ``Literal`` or ``Var``), a filter compares
    with an ``Iri`` or a ``Literal``, and ``limit`` is a non-negative
    ``int``; anything else raises ``QueryError`` instead of answering
    quietly (a plain ``"ex:p"`` matches nothing, and a tuple that spells out
    a term's fields would compare equal to it).  ``shapes`` holds each
    pattern's variable names by position, None at a constant.
    """

    select: tuple[str, ...]
    where: tuple[Pattern, ...]
    filters: tuple[Filter, ...] = ()
    order_by: str | None = None
    limit: int | None = None
    shapes: tuple[tuple[str | None, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.select:
            raise QueryError("select list is empty")
        if not self.where:
            raise QueryError("where clause is empty")
        seen: set[str] = set()
        shapes = []
        for pattern in self.where:
            if len(pattern) != 3:
                raise QueryError("patterns have exactly three positions")
            for term in pattern:
                if isinstance(term, Var):
                    seen.add(term.name)
                elif not isinstance(term, (Iri, Literal)):
                    raise QueryError(f"not a term: {term!r}")
            shapes.append(tuple(t.name if isinstance(t, Var) else None for t in pattern))
        object.__setattr__(self, "shapes", tuple(shapes))
        for name in self.select:
            if name not in seen:
                raise QueryError(f"selected variable ?{name} not used in any pattern")
        for f in self.filters:
            if f.op not in _COMPARISON_OPS:
                raise QueryError(f"unknown operator {f.op!r}")
            if f.var not in seen:
                raise QueryError(f"filtered variable ?{f.var} not used in any pattern")
            if not isinstance(f.constant, (Iri, Literal)):
                raise QueryError(f"a filter compares with an IRI or a literal, not {f.constant!r}")
        if self.order_by is not None and self.order_by not in seen:
            raise QueryError(f"ordering variable ?{self.order_by} not used in any pattern")
        limit = self.limit
        if limit is not None and (type(limit) is not int or limit < 0):
            raise QueryError(f"limit must be a non-negative integer, got {limit!r}")


def _var_name(raw) -> str:
    term = term_from_jsonable(raw)
    if not isinstance(term, Var):
        raise QueryError(f"expected a variable, got {raw!r}")
    return term.name


def _array(raw, what: str, length: int | None = None) -> list:
    """``raw`` if it is a JSON array (of ``length`` items, when given)."""
    if isinstance(raw, list) and length in (None, len(raw)):
        return raw
    raise QueryError(f"{what} must be an array{f' of {length} items' if length else ''}: {raw!r}")


def query_from_dict(doc: Mapping) -> Query:
    """Build a query from its JSON form; malformed input raises QueryError."""
    try:
        select = tuple(_var_name(v) for v in _array(doc["select"], "select"))
        where = tuple(
            tuple(term_from_jsonable(term) for term in _array(pattern, "a pattern", 3))
            for pattern in _array(doc["where"], "where")
        )
        filters = []
        for f in _array(doc.get("filters", []), "filters"):
            var, op, constant = _array(f, "a filter", 3)
            filters.append(Filter(_var_name(var), str(op), term_from_jsonable(constant)))
        order_raw = doc.get("order_by")
        order_by = None if order_raw is None else _var_name(order_raw)
        return Query(select, where, tuple(filters), order_by, doc.get("limit"))
    except QueryError:
        raise
    except (KeyError, TypeError, ValueError, MixdiagError) as exc:
        raise QueryError(f"malformed query: {exc}") from None


def query_to_dict(q: Query) -> dict:
    doc: dict = {
        "select": [f"?{name}" for name in q.select],
        "where": [[term_to_jsonable(t) for t in pattern] for pattern in q.where],
    }
    if q.filters:
        doc["filters"] = [
            [f"?{f.var}", f.op, term_to_jsonable(f.constant)] for f in q.filters
        ]
    if q.order_by is not None:
        doc["order_by"] = f"?{q.order_by}"
    if q.limit is not None:
        doc["limit"] = q.limit
    return doc


def _compare_terms(left: Term, right: Term) -> int | None:
    """Three-way comparison, or None when the terms are not comparable
    (a filter error, which drops the row)."""
    if isinstance(left, Iri) or isinstance(right, Iri):
        return None
    if left.is_numeric() and right.is_numeric():
        try:
            a, b = float(left.lexical), float(right.lexical)
        except ValueError:  # an ill-typed lexical form, such as "abc"^^xsd:double
            return None
        if math.isnan(a) or math.isnan(b):
            return None
    elif left.datatype == XSD_STRING and right.datatype == XSD_STRING:
        a, b = left.lexical, right.lexical
    elif left.datatype == XSD_BOOLEAN and right.datatype == XSD_BOOLEAN:
        a, b = _TRUTH.get(left.lexical), _TRUTH.get(right.lexical)
        if a is None or b is None:
            return None
    else:
        return None
    return (a > b) - (a < b)


def _filter_accepts(binding: Mapping[str, Term], f: Filter) -> bool:
    value = binding[f.var]
    if f.op in ("=", "!="):
        if isinstance(value, Iri) or isinstance(f.constant, Iri):
            equal = value == f.constant
        else:
            cmp = _compare_terms(value, f.constant)
            # a literal term equals itself, unless it is a number with no value
            if cmp is None and (value != f.constant or value.is_numeric()):
                return False
            equal = cmp is None or cmp == 0
        return equal if f.op == "=" else not equal
    cmp = _compare_terms(value, f.constant)
    if cmp is None:
        return False
    return {"<": cmp < 0, "<=": cmp <= 0, ">": cmp > 0, ">=": cmp >= 0}[f.op]
