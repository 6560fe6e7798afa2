"""No module under ``src/repro`` imports a name it never uses.

There is no linter in the toolchain, so this is the check: an AST walk of
every module, with the standard library's ``ast`` only.  A name counts as
used when the module reads it (a ``Name`` anywhere, annotations included),
names it in a string annotation (``"Breach"`` under ``TYPE_CHECKING``), or
lists it in ``__all__``; a package's ``__init__.py`` imports to re-export,
so its imports are not checked.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent


def imported_names(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                used |= used_names(ast.parse(annotation.value, mode="eval"))
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= {element.value for element in node.value.elts}
    return used


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    return [
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for name, line in imported_names(tree).items()
        if name not in used
    ]


def test_no_module_imports_a_name_it_never_uses():
    modules = [path for path in sorted(SRC.rglob("*.py")) if path.name != "__init__.py"]
    assert len(modules) > 100
    assert [entry for path in modules for entry in unused_imports(path)] == []


def test_the_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "from typing import TYPE_CHECKING, Any, Callable\n"
        "if TYPE_CHECKING:\n"
        "    from x import Breach\n"
        "__all__ = ['Callable']\n"
        "def f(b: 'Breach') -> None: ...\n"
    )
    tree = ast.parse(module.read_text())
    used = used_names(tree)
    assert sorted(set(imported_names(tree)) - used) == ["Any"]
