"""Unused imports fail tier-1 (pyflakes' F401, without ruff).

Every module of the trees CI's lint job checks (``src``, ``tests``,
``benchmarks``, ``examples``) is parsed with :mod:`ast`; an imported
name that the module never references is reported as ``file:line name``.
A name counts as referenced when it is loaded anywhere in the module or
appears inside a string annotation (``"np.random.Generator | None"``).
Package ``__init__.py`` files are skipped, because their imports are the
package's re-exports, and so are ``from __future__`` imports.

The same walk finds dead definitions in ``src``: a module-level class,
undecorated function or UPPER_CASE constant that no module of ``src``,
``tests``, ``benchmarks``, ``examples`` or ``perfbench`` loads by name
(an ``ast.Name`` load or an ``ast.Attribute`` attribute) is reported as
``file:line name``.  A package's re-export does not count as a use, and
decorated functions are exempt, because their decorator registers them.
"""

from __future__ import annotations

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _annotation_names(node: ast.AST, out: "set[str]") -> None:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue  # a plain string, not a forward reference
            _annotation_names(parsed, out)


def unused_imports(source: str) -> "list[tuple[int, str]]":
    """``(line, name)`` of every import in ``source`` never referenced."""
    tree = ast.parse(source)
    imported = {}
    used: "set[str]" = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            _annotation_names(node.annotation, used)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            _annotation_names(node.returns, used)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scanner_sees_string_annotations_and_skips_future():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from typing import Dict, List, Optional\n"
        "def f(x: 'Optional[np.ndarray]') -> 'Dict[str, int]':\n"
        "    return {}\n"
    )
    assert unused_imports(source) == [(3, "List")]


def _modules(*trees: str) -> "list[pathlib.Path]":
    """Every non-``__init__`` module under ``trees`` (each must hold one)."""
    modules = [
        p
        for tree in trees
        for p in sorted((ROOT / tree).rglob("*.py"))
        if p.name != "__init__.py"
    ]
    assert {p.relative_to(ROOT).parts[0] for p in modules} == set(trees)
    return modules


def _unused_in(*trees: str) -> "list[str]":
    """``file:line name`` of every unused import under ``trees``."""
    modules = _modules(*trees)
    return [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in modules
        for line, name in unused_imports(path.read_text())
    ]


def test_src_has_no_unused_imports():
    found = _unused_in("src")
    assert not found, "unused imports:\n" + "\n".join(found)


def test_tests_benchmarks_and_examples_have_no_unused_imports():
    found = _unused_in("tests", "benchmarks", "examples")
    assert not found, "unused imports:\n" + "\n".join(found)


_CONSTANT = re.compile(r"_*[A-Z][A-Z0-9_]*")


def definitions(source: str) -> "list[tuple[int, str]]":
    """``(line, name)`` of the module-level classes, undecorated functions
    and UPPER_CASE constants ``source`` defines."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) or (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.decorator_list
        ):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and _CONSTANT.fullmatch(name.id):
                        found.append((node.lineno, name.id))
    return found


def loaded_names(source: str) -> "set[str]":
    """Every name ``source`` loads, or reads as an attribute."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_scanner_finds_definitions_nothing_loads():
    source = (
        "import functools\n"
        "LIMIT = 3\n"
        "_TAG, width = 1, 2\n"
        "class Used: pass\n"
        "def dead(): return Used()\n"
        "@functools.cache\n"
        "def registered(): pass\n"
    )
    assert definitions(source) == [
        (2, "LIMIT"), (3, "_TAG"), (4, "Used"), (5, "dead"),
    ]
    assert {"Used", "cache", "functools"} <= loaded_names(source)
    assert "dead" not in loaded_names(source)


def test_src_has_no_unreferenced_definitions():
    used = set()
    for path in _modules("src", "tests", "benchmarks", "examples", "perfbench"):
        used |= loaded_names(path.read_text())
    found = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in _modules("src")
        for line, name in definitions(path.read_text())
        if name not in used
    ]
    assert not found, "definitions nothing loads:\n" + "\n".join(found)
