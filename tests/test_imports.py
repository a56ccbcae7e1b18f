"""No module of the package imports a name at module level that it never uses,
no module defines a private module-level name that no module reads, no
function but ``MetricsReport.to_json_dict`` builds a JSON object by hand,
and the objective's tape oracle reads nothing of its closed form.

A scan of the syntax tree, since no linter ships with the package's
dependencies.  ``hda/__init__.py`` imports in order to re-export, and a
line marked ``# noqa: F401  (probe site)`` imports a name only so that
the benchmark's probes find it in that module; both are exempt.  A
private name is a ``_name`` (not a ``__dunder__``) bound at module level
by a function, a class or an assignment; it counts as read when any
module of the package loads it, takes it as an attribute or imports it.
Every other dataclass is written by ``files.json_doc``, which gives a
stored record its keys in field order.  The tape oracle of the objective
shares none of the closed form's stacking: neither it nor a function of
its own module that it reaches loads the stacking helpers.
"""

import ast
import json
import os
import re

import pytest

import hda
from hda.ablation import AblationRow, save_ablation
from hda.engine import default_adaptation_config, run_adaptation, save_run

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


def _source(module: str) -> str:
    with open(os.path.join(PACKAGE_DIR, module), encoding="utf8") as fh:
        return fh.read()


@pytest.mark.parametrize("module", _modules())
def test_module_has_no_unused_import(module):
    assert _unused_imports(_source(module)) == []


def _private_definitions(source: str) -> dict[str, int]:
    """Private module-level functions, classes and assigned names of ``source``, with their lines."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def _reads(source: str) -> set[str]:
    """Every name ``source`` loads, takes as an attribute or imports."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def _unread_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level names of ``sources`` (module name to text) that none of them reads."""
    read = set().union(*map(_reads, sources.values()))
    return [
        f"{module}: {name} (line {line})"
        for module, source in sources.items()
        for name, line in _private_definitions(source).items()
        if name not in read
    ]


def test_private_name_scan_finds_unread_names_and_spares_read_ones():
    sources = {
        "a.py": (
            "__all__ = ['f']\n"
            "_B, _D = 3, 5\n"
            "_SIZE: int = 4\n"
            "_UNUSED = 1\n"
            "def _helper(x):\n"
            "    return x * _B\n"
            "def _orphan():\n"
            "    pass\n"
            "class _Box:\n"
            "    pass\n"
            "class _Spare:\n"
            "    pass\n"
            "def f(x):\n"
            "    return _helper(x) + _Box()\n"
        ),
        "b.py": (
            "from . import a\n"
            "from .a import _Spare\n"
            "def g():\n"
            "    _UNUSED = 2\n"
            "    return a._D, _Spare\n"
        ),
    }
    assert _unread_private_names(sources) == [
        "a.py: _SIZE (line 3)",
        "a.py: _UNUSED (line 4)",
        "a.py: _orphan (line 7)",
    ]


def test_no_private_module_level_name_goes_unread():
    sources = {module: _source(module) for module in ["__init__.py", *_modules()]}
    assert _unread_private_names(sources) == []


#: The one hand-built JSON object: ``json_doc`` calls it for a report's rounded numbers.
HAND_BUILT_JSON = ["metrics.py: MetricsReport.to_json_dict"]


def _json_dict_functions(module: str, source: str) -> list[str]:
    """Functions and methods of ``source`` whose name contains ``json_dict``, qualified."""
    found = []

    def visit(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if "json_dict" in node.name:
                    found.append(f"{module}: {prefix}{node.name}")
                visit(node.body, f"{prefix}{node.name}.")

    visit(ast.parse(source).body, "")
    return found


def test_json_dict_scan_finds_functions_and_methods():
    source = (
        "def rows_to_json_dict(rows):\n"
        "    return []\n"
        "class Row:\n"
        "    def to_json_dict(self):\n"
        "        def _json_dict_part():\n"
        "            pass\n"
        "    def as_json(self):\n"
        "        pass\n"
    )
    assert _json_dict_functions("m.py", source) == [
        "m.py: rows_to_json_dict",
        "m.py: Row.to_json_dict",
        "m.py: Row.to_json_dict._json_dict_part",
    ]


def test_only_the_metrics_report_builds_json_by_hand():
    found = [f for module in _modules() for f in _json_dict_functions(module, _source(module))]
    assert found == HAND_BUILT_JSON


def test_stored_records_keep_their_key_order(tmp_path, world, subspaces):
    record = run_adaptation(default_adaptation_config(world, steps=1), world, subspaces)
    save_run(record, tmp_path, world_dir="w")
    with open(tmp_path / "run_record.json", encoding="utf8") as fh:
        run_keys = list(json.load(fh))
    assert run_keys == ["config", "world_dir", "dist", "direct", "snapshots", "checkpoints"]
    row = AblationRow("full", "ensemble", record.config.encoder_ids, 0.5, record.snapshot_at(1))
    save_ablation([row], tmp_path)
    with open(tmp_path / "ablation.json", encoding="utf8") as fh:
        (row_doc,) = json.load(fh)
    assert list(row_doc) == ["variant", "encoder_mode", "encoder_ids", "final_total", "report"]


#: The tape side of the objective, by module: the tape losses, the oracle
#: and the tape encoder.
ORACLE_ROOTS = {
    "losses.py": ("dist_loss", "direct_loss", "hybrid_dist_loss", "hybrid_direct_loss"),
    "diagnostics.py": ("tape_objective",),
    "worlds.py": ("encode_var",),
}
#: What stacks the domains and encoders for the closed form alone.
CLOSED_FORM_ONLY = {"_stacked_subspaces", "ObjectivePlan", "stack_encoders"}


def _closed_form_reads(sources: dict[str, str], roots: dict[str, tuple]) -> list[str]:
    """Names of :data:`CLOSED_FORM_ONLY` loaded by ``roots`` or the functions
    of their own module that they reach, as ``"module: function loads name"``."""
    found = []
    for module, names in roots.items():
        functions = {
            node.name: node for node in ast.parse(sources[module]).body
            if isinstance(node, ast.FunctionDef)
        }
        todo, seen = list(names), set()
        while todo:
            function = todo.pop()
            if function in seen:
                continue
            seen.add(function)
            for node in ast.walk(functions[function]):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name in CLOSED_FORM_ONLY:
                    found.append(f"{module}: {function} loads {name}")
                elif name in functions:
                    todo.append(name)
    return sorted(found)


def test_closed_form_scan_follows_helpers_and_spares_unreached_functions():
    source = (
        "from .losses import ObjectivePlan, _stacked_subspaces\n"
        "from . import worlds\n"
        "def _helper(x):\n"
        "    return _stacked_subspaces(x)\n"
        "def tape_loss(x):\n"
        "    return _helper(x) + _helper(x)\n"
        "def oracle(x):\n"
        "    return tape_loss(x) + worlds.stack_encoders(x)\n"
        "def closed_form(x):\n"
        "    return ObjectivePlan(x)\n"
    )
    assert _closed_form_reads({"m.py": source}, {"m.py": ("oracle",)}) == [
        "m.py: _helper loads _stacked_subspaces",
        "m.py: oracle loads stack_encoders",
    ]


def test_the_tape_oracle_reads_nothing_of_the_closed_form():
    sources = {module: _source(module) for module in ORACLE_ROOTS}
    assert _closed_form_reads(sources, ORACLE_ROOTS) == []
