"""No module of the package uses a private name of a sibling module, or copies an input rule.

A private helper is free to change with its module; a sibling that imports
it (``from .stm import _helper``) or reaches it through the module
(``harness._helper``) would break silently. Shared helpers are public.

The rules for a real scalar, a real array and a finite array live in
``config`` as ``is_real``, which needs no numpy, and in ``spectral`` as
``as_real_array`` and ``as_finite_array``.
Elsewhere, ``import numbers``, an ``np.asarray``/``np.array`` that widens to
``float64`` or ``bool``, or ``np.isfinite`` is a second copy of one of them;
such copies drifted apart before and let a string, a bool or a complex number
through, and worded the same fault four ways.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rankadapt"
MODULES = sorted(PACKAGE.glob("*.py"))
SIBLINGS = {path.stem for path in MODULES}


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_uses(source: str) -> list[str]:
    """Each ``from <sibling> import _name`` and ``<sibling>._name`` in ``source``."""
    tree = ast.parse(source)
    modules = set()  # local names bound to sibling modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            relative = node.level > 0
            module = node.module or ""
            if relative or module.split(".")[0] == "rankadapt":
                for alias in node.names:
                    if alias.name in SIBLINGS:  # from . import harness
                        modules.add(alias.asname or alias.name)
                    elif is_private(alias.name):
                        found.append(f"line {node.lineno}: from {'.' * node.level}{module} "
                                     f"import {alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "rankadapt" and len(parts) == 2 and parts[1] in SIBLINGS:
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and is_private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_of_a_sibling_module(path):
    assert private_uses(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, use", [
    ("from .stm import _apply_rule\n", "from .stm import _apply_rule"),
    ("from rankadapt.tensorio import MatrixBundle, _check_name\n",
     "from rankadapt.tensorio import _check_name"),
    ("from . import harness\nharness._forward([], 'tanh', None)\n", "harness._forward"),
    ("from . import tensorio as io\nio._read_manifest\n", "io._read_manifest"),
    ("import rankadapt.stm as stm\nstm._apply_rule\n", "stm._apply_rule"),
])
def test_scan_finds_private_use(source, use):
    assert [found.split(": ", 1)[1] for found in private_uses(source)] == [use]


def test_scan_ignores_own_and_public_names():
    source = ("from . import harness\nfrom .errors import ValidationError\n"
              "def _own():\n    return harness.mse_and_grads, _own, self._columns\n"
              "__all__ = []\n")
    assert private_uses(source) == []


RULE_HOMES = (PACKAGE / "config.py", PACKAGE / "spectral.py")
WIDENED_DTYPES = ("np.float64", "float", "bool")


def input_rule_copies(source: str) -> list[str]:
    """Each ``numbers`` import, widening ``np.asarray``/``np.array`` and ``np.isfinite``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"line {node.lineno}: import numbers"
                      for alias in node.names if alias.name == "numbers"]
        elif isinstance(node, ast.ImportFrom) and node.module == "numbers":
            found.append(f"line {node.lineno}: from numbers import")
        elif isinstance(node, ast.Call) and ast.unparse(node.func) in ("np.asarray", "np.array"):
            dtypes = [kw.value for kw in node.keywords if kw.arg == "dtype"] + node.args[1:2]
            found += [f"line {node.lineno}: {ast.unparse(node.func)} to {ast.unparse(d)}"
                      for d in dtypes if ast.unparse(d) in WIDENED_DTYPES]
        elif isinstance(node, ast.Attribute) and ast.unparse(node) == "np.isfinite":
            found.append(f"line {node.lineno}: np.isfinite")
    return found


@pytest.mark.parametrize("path", [p for p in MODULES if p not in RULE_HOMES],
                         ids=lambda p: p.name)
def test_input_rules_have_one_home(path):
    assert input_rule_copies(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, use", [
    ("import math, numbers\n", "import numbers"),
    ("from numbers import Real\n", "from numbers import"),
    ("np.asarray(x, dtype=np.float64)\n", "np.asarray to np.float64"),
    ("np.array(x, dtype=float, copy=True)\n", "np.array to float"),
    ("np.asarray(mask, bool)\n", "np.asarray to bool"),
    ("if not np.all(np.isfinite(x)):\n    pass\n", "np.isfinite"),
])
def test_scan_finds_input_rule_copy(source, use):
    assert [found.split(": ", 1)[1] for found in input_rule_copies(source)] == [use]


def test_scan_ignores_other_dtypes_and_the_rule_itself():
    source = ("import numpy as np\nfrom .spectral import as_real_array, is_real\n"
              "np.asarray(idx, dtype=int)\nnp.asarray(x)\nx.astype(np.float64)\n"
              "as_real_array(x, 'x', np.float64)\nmath.isfinite(loss)\n")
    assert input_rule_copies(source) == []
