"""No module of the package imports a name at module level that it never uses.

A scan of the syntax tree, since no linter ships with the package's
dependencies.  ``hda/__init__.py`` imports in order to re-export, and a
line marked ``# noqa: F401  (probe site)`` imports a name only so that
the benchmark's probes find it in that module; both are exempt.
"""

import ast
import os
import re

import pytest

import hda

PACKAGE_DIR = os.path.dirname(hda.__file__)
PROBE_SITE = re.compile(r"#\s*noqa:\s*F401\s+\(probe sites?\)")


def _unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of ``source`` and never read in it."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any(PROBE_SITE.search(line) for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def _modules() -> list[str]:
    return sorted(
        name for name in os.listdir(PACKAGE_DIR)
        if name.endswith(".py") and name != "__init__.py"
    )


def test_scan_finds_an_unused_import_and_spares_probe_sites():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from .worlds import encode, flatten_generator\n"
        "from .losses import hda_objective  # noqa: F401  (probe site)\n"
        "from .worlds import (  # noqa: F401  (probe sites)\n"
        "    encode_var,\n"
        ")\n"
        "def f(x: np.ndarray):\n"
        "    return encode(x)\n"
    )
    assert _unused_imports(source) == ["os (line 2)", "flatten_generator (line 4)"]


def test_package_scan_covers_every_module():
    assert {"engine.py", "losses.py", "diagnostics.py", "worlds.py"} <= set(_modules())


@pytest.mark.parametrize("module", _modules())
def test_module_has_no_unused_import(module):
    with open(os.path.join(PACKAGE_DIR, module), encoding="utf8") as fh:
        assert _unused_imports(fh.read()) == []
