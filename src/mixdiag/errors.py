"""Shared exception types for the mixdiag package, and the JSON reader
whose failures they name."""

import json


class MixdiagError(Exception):
    """Base class for all package-specific errors."""


class ParseError(MixdiagError):
    """Malformed input text (CSV logs, N-Triples, automaton or query JSON)."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def parse_json(text: str):
    """``json.loads(text)``; text that is not JSON, nests too deep or holds
    a number too long to convert raises ``ParseError``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno) from None
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
