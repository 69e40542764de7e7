"""No function of either engine's step program exceeds 100 lines.

Both engines are a sequence of named phases over one state object
(``repro.fluid.batch`` and ``repro.emulator.core``); a phase that
grows past a screenful is the start of a new monolith, whose state no
test or profiler can see between steps. A function's length is its
``def`` line through its last line, docstring and comments included.
"""

import ast
import os

import pytest

import repro

PACKAGE = os.path.dirname(repro.__file__)
MODULES = ("fluid/batch.py", "emulator/core.py")
MAX_LINES = 100


@pytest.mark.parametrize("module", MODULES)
def test_no_function_is_longer_than_the_limit(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=module)
    too_long = sorted(
        f"{node.name} (line {node.lineno}: "
        f"{node.end_lineno - node.lineno + 1} lines)"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.end_lineno - node.lineno + 1 > MAX_LINES
    )
    assert not too_long, f"{module}: {', '.join(too_long)}"
