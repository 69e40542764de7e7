"""Every ``repro`` name the benchmark imports still exists.

``perfbench/`` is the benchmark's own code and is not edited with the
package, so a name deleted from ``src/`` would otherwise break it
silently: its workloads import inside functions, and a failed layer
probe logs ``failed`` instead of raising. This test parses
``perfbench/*.py`` and resolves every ``import repro…`` and
``from repro… import X`` against the package.
"""

import ast
import glob
import importlib
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Imports of modules deleted with the sharded pipeline; the layer
#: probe that makes them (``sharding.*`` / ``parallel.*``) is dead and
#: its removal is ROADMAP item 2(b).
DEAD_PROBES = {
    ("repro.core.sharding", "infer_sharded"),
    ("repro.parallel", "ShardExecutor"),
}


def _imports():
    """``(file:line, module, name or None)`` of every repro import."""
    found = []
    for path in sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        where = os.path.relpath(path, ROOT)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and (
                    node.module.split(".")[0] == "repro"):
                found.extend((f"{where}:{node.lineno}", node.module, a.name)
                             for a in node.names)
            elif isinstance(node, ast.Import):
                found.extend((f"{where}:{node.lineno}", a.name, None)
                             for a in node.names
                             if a.name.split(".")[0] == "repro")
    return found


IMPORTS = _imports()


def _resolves(module, name):
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return False
    if name is None or hasattr(mod, name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_perfbench_imports_something():
    assert len(IMPORTS) > 10


@pytest.mark.parametrize(
    "where, module, name", IMPORTS, ids=[f"{m}:{n}" for _, m, n in IMPORTS])
def test_perfbench_import_resolves(where, module, name):
    if (module, name) in DEAD_PROBES:
        assert not _resolves(module, name), (
            f"{where}: {module}.{name} resolves again; drop it from "
            "DEAD_PROBES")
        return
    assert _resolves(module, name), (
        f"{where}: perfbench imports {name or module} from {module}, "
        "which the package no longer defines")


def test_every_dead_probe_is_still_imported():
    imported = {(module, name) for _, module, name in IMPORTS}
    assert DEAD_PROBES <= imported, DEAD_PROBES - imported
