"""Mapping rules: templates that turn CSV rows or JSON array items into
triples.  JSON sources are read by ``errors.parse_json``."""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import MixdiagError, ParseError, parse_json
from .terms import XSD_BOOLEAN, XSD_DOUBLE, XSD_INTEGER, _TRUTH, Iri, Literal, Term, Triple, iri


class MappingError(MixdiagError):
    """A mapping rule failed against its source."""

    def __init__(self, rule_id: str, row_index: int | None, reason: str):
        self.rule_id = rule_id
        self.row_index = row_index
        where = f"rule {rule_id}" + ("" if row_index is None else f", row {row_index}")
        super().__init__(f"{where}: {reason}")


@dataclass(frozen=True)
class MappingRule:
    """One template rule over a tabular or JSON source.

    ``iterator`` is ``"row"`` for CSV sources or a JSON pointer selecting an
    array for JSON sources.  Templates substitute ``{column}`` placeholders;
    an absent ``object_datatype`` makes the object an IRI.
    """

    id: str
    source_kind: str  # csv | json
    source: str
    iterator: str
    subject_template: str
    predicate: Iri
    object_template: str
    object_datatype: Iri | None = None


def _fill(template: str, values: Mapping[str, object], rule: MappingRule, row: int) -> str:
    try:
        return template.format_map(values)
    except KeyError as exc:
        raise MappingError(rule.id, row, f"unknown placeholder {{{exc.args[0]}}}") from None
    except (ValueError, IndexError, AttributeError, TypeError) as exc:
        raise MappingError(rule.id, row, f"bad template {template!r}: {exc}") from None


# xsd lexical forms with ASCII digits: no space or underscore, and no NaN
# or infinity in a double
_DOUBLE = re.compile(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?")
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _canonical_literal(lexical: str, datatype: Iri, rule: MappingRule, row: int) -> Literal:
    try:
        if datatype == XSD_DOUBLE and _DOUBLE.fullmatch(lexical):
            if math.isfinite(value := float(lexical)):
                return Literal.double(value)
        elif datatype == XSD_INTEGER and _INTEGER.fullmatch(lexical):
            return Literal.integer(int(lexical))
        elif datatype == XSD_BOOLEAN and lexical in _TRUTH:
            return Literal.boolean(_TRUTH[lexical])
        elif datatype not in (XSD_DOUBLE, XSD_INTEGER, XSD_BOOLEAN):
            return Literal(lexical, datatype)
    except ValueError as exc:  # an integer of more digits than int reads
        raise MappingError(rule.id, row, str(exc)) from None
    raise MappingError(rule.id, row, f"not an {datatype} lexical form: {lexical!r}")


def _json_pointer(doc, pointer: str, rule: MappingRule):
    node = doc
    if pointer in ("", "/"):
        return node
    for token in pointer.lstrip("/").split("/"):
        token = token.replace("~1", "/").replace("~0", "~")
        if isinstance(node, list):
            try:
                node = node[int(token)]
            except (ValueError, IndexError) as exc:
                raise MappingError(rule.id, None, f"bad pointer segment {token!r}: {exc}") from None
        elif isinstance(node, dict) and token in node:
            node = node[token]
        else:
            raise MappingError(rule.id, None, f"pointer {pointer!r} not found")
    return node


def _iter_rows(rule: MappingRule, sources: Mapping[str, str]) -> list[Mapping[str, object]]:
    if rule.source not in sources:
        raise MappingError(rule.id, None, f"source {rule.source!r} not provided")
    text = sources[rule.source]
    if rule.source_kind == "csv":
        if rule.iterator != "row":
            raise MappingError(rule.id, None, "csv sources iterate by 'row'")
        reader = csv.DictReader(io.StringIO(text))
        try:
            return [dict(r) for r in reader]
        except csv.Error as exc:
            message = f"line {reader.reader.line_num}: malformed CSV: {exc}"
            raise MappingError(rule.id, None, message) from None
    if rule.source_kind == "json":
        try:
            doc = parse_json(text)
        except ParseError as exc:
            raise MappingError(rule.id, None, str(exc)) from None
        node = _json_pointer(doc, rule.iterator, rule)
        if not isinstance(node, list):
            raise MappingError(rule.id, None, "iterator must select an array")
        rows = []
        for i, item in enumerate(node):
            if not isinstance(item, dict):
                raise MappingError(rule.id, i, "array items must be objects")
            rows.append(item)
        return rows
    raise MappingError(rule.id, None, f"unknown source kind {rule.source_kind!r}")


def _template_values(raw: Mapping[str, object]) -> dict[str, object]:
    out = {}
    for key, value in raw.items():
        if isinstance(value, bool):
            out[key] = "true" if value else "false"
        elif value is None:
            out[key] = ""
        else:
            out[key] = value
    return out


def apply_mappings(
    rules: Sequence[MappingRule], sources: Mapping[str, str]
) -> list[Triple]:
    """Run every rule over its source rows, in rule order then row order."""
    triples: list[Triple] = []
    for rule in rules:
        for row_index, raw in enumerate(_iter_rows(rule, sources)):
            values = _template_values(raw)
            subject_text = _fill(rule.subject_template, values, rule, row_index)
            object_text = _fill(rule.object_template, values, rule, row_index)
            try:
                subject = iri(subject_text)
            except MixdiagError as exc:
                raise MappingError(rule.id, row_index, str(exc)) from None
            if rule.object_datatype is None:
                try:
                    obj: Term = iri(object_text)
                except MixdiagError as exc:
                    raise MappingError(rule.id, row_index, str(exc)) from None
            else:
                obj = _canonical_literal(object_text, rule.object_datatype, rule, row_index)
            triples.append(Triple(subject, rule.predicate, obj))
    return triples
