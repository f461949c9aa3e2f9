"""Every definition in the package has a caller outside the tests."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# KnowledgeGraph.align asserts one of the paper's four alignment mechanisms
# by name; it is public API that nothing in the pipeline needs yet.
KEPT = ["align"]


def _texts(*directories):
    return [
        path.read_text(encoding="utf-8")
        for directory in directories
        for path in sorted((ROOT / directory).rglob("*.py"))
    ]


def _occurrences(name, texts):
    word = re.compile(rf"\b{re.escape(name)}\b")
    return sum(len(word.findall(text)) for text in texts)


def test_no_definition_is_named_only_where_it_is_defined():
    """A non-dunder function, method or class whose name occurs once in
    ``src/`` (its own definition) and never in ``bench/`` or ``scripts/`` is
    used by the tests alone, so it is dead code."""
    package = _texts("src")
    outside = _texts("bench", "scripts")
    names = {
        node.name
        for text in package
        for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }
    assert names
    dead = sorted(
        name
        for name in names
        if _occurrences(name, package) == 1 and _occurrences(name, outside) == 0
    )
    assert dead == KEPT
