"""Every module of the package reads each name it imports.

A name is read when it appears as a loaded ``ast.Name`` anywhere in the
module, annotations included.  The package's ``__init__.py`` imports only
to re-export, and ``from __future__ import annotations`` binds no name
that is read, so both are exempt.

Every name the benchmark's tracer binds, in ``perfbench/spans.py``,
resolves in the package too."""

import ast
import importlib.util
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "hfsurgery"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def imported_names(tree: ast.AST) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update((alias.asname or alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``.
            names.update(((alias.asname or alias.name.split(".")[0]), node.lineno) for alias in node.names)
    return names


def read_names(tree: ast.AST) -> set[str]:
    """Every name loaded in the module."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_read(module):
    tree = ast.parse((PACKAGE / module).read_text())
    read = read_names(tree)
    unread = {name: line for name, line in imported_names(tree).items() if name not in read}
    assert not unread, f"{module} imports names it never reads: {unread}"


def test_an_unread_import_is_found():
    tree = ast.parse("from bisect import bisect_left, bisect_right\nimport os.path\nx: os.PathLike = bisect_right")
    assert {name for name in imported_names(tree) if name not in read_names(tree)} == {"bisect_left"}


def _perfbench_spans():
    """The benchmark's tracer module, ``perfbench/spans.py``, loaded from
    its file without running anything but its imports and tables."""
    path = PACKAGE.parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_tracer_binds_resolves():
    # The benchmark's tracer patches the library's functions and methods by
    # name, so renaming or dropping one breaks the traced run; each of its
    # (module, attribute) and (module, class, method) bindings must name a
    # callable of the package.
    spans = _perfbench_spans()
    for module, attribute, _ in spans._FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"hfsurgery.{module}"), attribute, None)), (module, attribute)
    for module, cls, method, _ in spans._METHODS:
        owner = getattr(importlib.import_module(f"hfsurgery.{module}"), cls, None)
        assert callable(getattr(owner, method, None)), (module, cls, method)
