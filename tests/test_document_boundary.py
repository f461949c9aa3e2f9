"""Input files are decoded, and JSON documents read and written, in one
module: ``errors.py``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _boundary_uses(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (f"import {a.name}" for a in node.names if a.name.split(".")[0] == "json")
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            yield "from json import"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in ("read_text", "decode"):
                yield f".{node.func.attr}("
            elif node.func.attr == "dumps" and ast.unparse(node.func.value) == "json":
                yield "json.dumps("


def test_only_the_errors_module_decodes_files_or_handles_json():
    sources = sorted((ROOT / "src" / "mixdiag").glob("*.py"))
    assert sources
    offenders = [
        f"{path.name}: {use}"
        for path in sources
        if path.name != "errors.py"
        for use in _boundary_uses(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    ]
    assert offenders == []
    uses = set(_boundary_uses(ast.parse((ROOT / "src" / "mixdiag" / "errors.py").read_text())))
    assert uses == {"import json", ".decode(", "json.dumps("}


def _parse_error_handlers(tree: ast.AST):
    """``except`` clauses that catch ``KeyError`` or ``TypeError`` and raise
    ``ParseError``, by line."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler) or node.type is None:
            continue
        caught = {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
        raised = {
            n.id
            for stmt in node.body
            for r in ast.walk(stmt)
            if isinstance(r, ast.Raise) and r.exc is not None
            for n in ast.walk(r.exc)
            if isinstance(n, ast.Name)
        }
        if caught & {"KeyError", "TypeError"} and "ParseError" in raised:
            yield node.lineno


def test_only_the_errors_module_turns_bad_fields_into_parse_errors():
    """A record loader reads its fields inside ``errors.reading``, which
    holds the one list of exceptions that mark a malformed document."""
    offenders = [
        f"{path.name}:{line}"
        for path in sorted((ROOT / "src" / "mixdiag").glob("*.py"))
        if path.name != "errors.py"
        for line in _parse_error_handlers(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    ]
    assert offenders == []
    errors = ast.parse((ROOT / "src" / "mixdiag" / "errors.py").read_text(encoding="utf-8"))
    assert list(_parse_error_handlers(errors))
