"""No dead names in `src/greenlint`: every top-level name, class method and
`__slots__` field is read somewhere in the package.

A top-level name counts as read where it is loaded as `name` or `x.name`,
a method or field only where it is loaded as `x.name`; an import, an
`__all__` entry or an assignment is not a read. Names are matched by
spelling, not by binding, so a read of any `x.span` keeps every `span`
field alive. Dunder methods are called by Python itself, and `main` is the
console entry point.
"""

from __future__ import annotations

import ast
from pathlib import Path

import greenlint

PACKAGE = Path(greenlint.__file__).parent
EXEMPT = {"main"}


def _modules() -> list[tuple[str, ast.Module]]:
    return [
        (str(path.relative_to(PACKAGE)), ast.parse(path.read_text(), str(path)))
        for path in sorted(PACKAGE.rglob("*.py"))
    ]


def _reads(modules: list[tuple[str, ast.Module]]) -> tuple[set[str], set[str]]:
    """The names loaded bare, and the names loaded as attributes."""
    bare: set[str] = set()
    attributes: set[str] = set()
    for _, tree in modules:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                bare.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    return bare, attributes


def _slots(cls: ast.ClassDef) -> list[str]:
    for stmt in cls.body:
        if (
            isinstance(stmt, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets)
            and isinstance(stmt.value, (ast.Tuple, ast.List))
        ):
            return [e.value for e in stmt.value.elts if isinstance(e, ast.Constant)]
    return []


def _definitions(modules: list[tuple[str, ast.Module]]) -> list[tuple[str, str, bool]]:
    """(shown name, bare name, is a member) of every top-level name, class
    method and slot field."""
    defs: list[tuple[str, str, bool]] = []
    for module, tree in modules:
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs.append((f"{module}:{stmt.name}", stmt.name, False))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defs += [
                    (f"{module}:{t.id}", t.id, False) for t in targets if isinstance(t, ast.Name)
                ]
            if isinstance(stmt, ast.ClassDef):
                for member in stmt.body:
                    if isinstance(member, ast.FunctionDef):
                        defs.append((f"{module}:{stmt.name}.{member.name}", member.name, True))
                defs += [(f"{module}:{stmt.name}.{slot}", slot, True) for slot in _slots(stmt)]
    return defs


def _dead_names(modules: list[tuple[str, ast.Module]]) -> list[str]:
    bare, attributes = _reads(modules)
    return [
        shown
        for shown, name, member in _definitions(modules)
        if name not in attributes
        and (member or name not in bare)
        and name not in EXEMPT
        and not (name.startswith("__") and name.endswith("__"))
    ]


def test_every_defined_name_is_read():
    assert _dead_names(_modules()) == []


def test_the_check_sees_a_dead_name():
    extra = ast.parse(
        "UNUSED = 1\n"
        "class K:\n"
        "    __slots__ = ('gone',)\n"
        "    def __init__(self): pass\n"
        "    def never_called(self): pass\n"
    )
    assert _dead_names(_modules() + [("x.py", extra)]) == [
        "x.py:UNUSED",
        "x.py:K",
        "x.py:K.never_called",
        "x.py:K.gone",
    ]
