"""No attribute stored under ``src/repro`` is left unread.

A tally bumped on every ack or every segment costs a store per event and
shows nothing if no code reads it.  This is an AST walk of the program
(``src/repro``), with the standard library's ``ast`` only: every attribute
it stores, by plain, annotated or augmented assignment (``self.n = 0``,
``self.n += 1``), must be read somewhere in ``src/``, ``benchmarks/``,
``examples/`` or ``tests/``.  Attributes are matched by name, not by class,
so a read of ``x.served`` anywhere keeps every ``served`` attribute alive.
A read is an attribute load (``x.name``) or a ``getattr``/``hasattr`` call
with the name as a string constant.  A field declared on a ``@dataclass``
counts as read, because ``dataclasses.fields()`` and
``repro.bench.metrics.flat_dict`` read every field.  Any other reflective
read goes in ``ALLOW``, with the reader that reads the name.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
ROOT = SRC.parent.parent
READERS = ("src", "benchmarks", "examples", "tests")

#: attribute name -> the code that reads it reflectively.
ALLOW: dict[str, str] = {}


def stored_attributes(tree: ast.Module) -> list[tuple[str, int]]:
    stored = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store):
                    stored.append((sub.attr, sub.lineno))
    return stored


def is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def read_attributes(tree: ast.Module) -> set[str]:
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) in ("getattr", "hasattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
        ):
            read.add(node.args[1].value)
        elif isinstance(node, ast.ClassDef) and is_dataclass(node):
            read |= {
                statement.target.id
                for statement in node.body
                if isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name)
            }
    return read


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def write_only_attributes(root: Path, src: Path) -> list[str]:
    read = set(ALLOW)
    for directory in READERS:
        for path in sorted((root / directory).rglob("*.py")):
            read |= read_attributes(parse(path))
    return [
        f"{path.relative_to(src.parent)}:{line}: {name}"
        for path in sorted(src.rglob("*.py"))
        for name, line in stored_attributes(parse(path))
        if name not in read
    ]


def test_every_stored_attribute_is_read():
    assert len(list(SRC.rglob("*.py"))) > 100
    assert write_only_attributes(ROOT, SRC) == []


def test_the_check_sees_a_write_only_attribute(tmp_path):
    src = tmp_path / "src" / "pkg"
    src.mkdir(parents=True)
    (src / "module.py").write_text(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Stats:\n"
        "    shown: int = 0\n"
        "class Server:\n"
        "    def __init__(self, stats):\n"
        "        self.served = 0\n"
        "        self.busy = False\n"
        "        self.probed = 0\n"
        "        stats.shown = 1\n"
        "    def done(self):\n"
        "        self.served += 1\n"
        "        return self.busy or hasattr(self, 'probed')\n"
    )
    assert write_only_attributes(tmp_path, src) == [
        "pkg/module.py:7: served",
        "pkg/module.py:12: served",
    ]
