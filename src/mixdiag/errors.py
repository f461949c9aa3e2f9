"""Shared exception types, and the one document boundary: :func:`decode`
reads every input file's bytes, :func:`parse_json` reads and :func:`dump_json`
writes every JSON document.  A byte that is not UTF-8 or text that is not
JSON raises ParseError, and so does a record whose fields are missing or of
the wrong JSON type: loaders read them with :func:`typed` and :func:`number`
inside :func:`reading`."""

import json
from contextlib import contextmanager
from pathlib import Path


class MixdiagError(Exception):
    """Base class for all package-specific errors."""


class ParseError(MixdiagError):
    """Malformed input text (CSV logs, N-Triples, automaton or query JSON)."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def decode(data: bytes, line: int = 1) -> str:
    """``data`` decoded as ``Path.read_text`` does: UTF-8, ``\\r\\n`` and ``\\r``
    read as ``\\n``; a byte that is not UTF-8 raises ParseError on its line,
    counted from ``line``, the one ``data`` starts on."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line += decode(data[:exc.start]).count("\n")
        raise ParseError(f"not UTF-8: byte {data[exc.start]:#04x}", line) from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def read_text(path) -> str:
    """The text of the file at ``path``, decoded by :func:`decode`."""
    return decode(Path(path).read_bytes())


def parse_json(text: str):
    """``json.loads(text)``; text that is not JSON, nests too deep or holds
    a number too long to convert raises ``ParseError``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno) from None
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from None


def typed(value, kind: type):
    """``value`` when its type is ``kind`` exactly, else TypeError: a JSON
    boolean is no integer, a float no integer and a string no boolean."""
    if type(value) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {value!r}")
    return value


def number(value) -> float:
    """``value`` as a float when it is a JSON number, an int or a float,
    else TypeError: a boolean or a string is no number.  An int too large
    for a float raises OverflowError."""
    if type(value) is not float and type(value) is not int:
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


@contextmanager
def reading(what: str):
    """Read a document's records: a missing field, or one of the wrong type
    or value, raises ``ParseError(f"{what}: ...")``.  A MixdiagError raised
    in the block keeps its type."""
    try:
        yield
    except MixdiagError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ParseError(f"{what}: {exc}") from None


def dump_json(doc) -> str:
    """The canonical text of ``doc``: indented, keys sorted, non-ASCII kept,
    ending in a line feed."""
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
