"""The number of values a caller can set in the library, pinned.

A settable value is a defaulted function parameter or a CLI argument
(one ``add_argument`` call), counted over the modules of ``fpgd``; each
field of ``SolverConfig`` is one more, pinned apart.  A change that adds
or removes one updates ``SETTABLE_VALUES`` or ``SOLVER_CONFIG_FIELDS`` in
the same diff and says why.
"""

import ast
import dataclasses
from pathlib import Path

import fpgd
from fpgd.solver import SolverConfig

SETTABLE_VALUES = 28
SOLVER_CONFIG_FIELDS = 6


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


def test_solver_config_field_count_is_pinned():
    assert len(dataclasses.fields(SolverConfig)) == SOLVER_CONFIG_FIELDS
