"""Every module reads every name it imports.

Package ``__init__`` files are export tables (``repro._namespace``)
and are skipped; so are ``from __future__`` imports. A name counts as
read when the module loads it, lists it in ``__all__``, or names it in
a string annotation (``"RecordChunk"`` under ``TYPE_CHECKING``).
"""

import ast
import os

import pytest

import repro

PACKAGE = os.path.dirname(repro.__file__)
MODULES = sorted(
    os.path.relpath(os.path.join(dirpath, name), PACKAGE)
    for dirpath, _, names in os.walk(PACKAGE)
    for name in names
    if name.endswith(".py") and name != "__init__.py"
)


def _imported(tree):
    """``{bound name: line}`` of the module's imports."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def _read(tree):
    """Names the module loads, exports, or quotes as an annotation."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(
                n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)
            )
    return names


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_read(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=module)
    read = _read(tree)
    unused = sorted(
        f"{name} (line {line})"
        for name, line in _imported(tree).items()
        if name not in read
    )
    assert not unused, f"{module} never reads {', '.join(unused)}"
