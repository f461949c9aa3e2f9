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


def _without_imports(text):
    """``text`` with its import statements blanked: importing a name into
    another module is no use of it."""
    lines = text.split("\n")
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            lines[node.lineno - 1:node.end_lineno] = [""] * (node.end_lineno - node.lineno + 1)
    return "\n".join(lines)


def _occurrences(name, texts):
    word = re.compile(rf"\b{re.escape(name)}\b")
    return sum(len(word.findall(text)) for text in texts)


def test_no_definition_is_named_only_where_it_is_defined():
    """A non-dunder function, method, class or module-level name whose name
    occurs once in ``src/`` (its own definition) and never in ``bench/`` or
    ``scripts/`` is used by the tests alone, so it is dead code.  Import
    statements in ``src/`` do not count."""
    package = _texts("src")
    used = [_without_imports(text) for text in package]
    outside = _texts("bench", "scripts")
    names = {
        node.name
        for text in package
        for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    } | {
        target.id
        for text in package
        for node in ast.parse(text).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in ast.walk(node.targets[0] if isinstance(node, ast.Assign) else node.target)
        if isinstance(target, ast.Name)
    }
    names = {name for name in names if not (name.startswith("__") and name.endswith("__"))}
    assert names
    dead = sorted(
        name
        for name in names
        if _occurrences(name, used) == 1 and _occurrences(name, outside) == 0
    )
    assert dead == KEPT


def test_no_class_is_defined_inside_a_function():
    """A ``class`` statement in a function body builds a new class on every
    call."""
    nested = sorted(
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, ast.ClassDef)
    )
    assert nested == []
