"""The number of values a caller can set in the library, pinned.

A settable value is a defaulted function parameter or a CLI argument
(one ``add_argument`` call), counted over the modules of ``fpgd``.  A
change that adds or removes one updates ``SETTABLE_VALUES`` in the same
diff and says why.
"""

import ast
from pathlib import Path

import fpgd

SETTABLE_VALUES = 30


def _settable_values(tree):
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument":
            count += 1
    return count


def test_settable_value_count_is_pinned():
    modules = sorted(Path(fpgd.__file__).parent.glob("*.py"))
    assert modules
    total = sum(_settable_values(ast.parse(path.read_text())) for path in modules)
    assert total == SETTABLE_VALUES
