"""No module of the package imports a name at module level that it never uses,
no module defines a private module-level name that no module reads, no
function but ``MetricsReport.to_json_dict`` builds a JSON object by hand,
the tape side reads nothing of the closed-form objective, the tape has no
primitive that the tape side never builds, and criterion 2's gradient
battery checks each primitive.

A scan of the syntax tree, since no linter ships with the package's
dependencies.  It covers ``hda/__init__.py`` too, which holds no
re-exports.  A line marked ``# noqa: F401  (probe site)`` imports a name
only so that the benchmark's probes find it in that module, and is
exempt.  A private name is a ``_name`` (not a ``__dunder__``) bound at
module level by a function, a class or an assignment; it counts as read
when any module of the package loads it, takes it as an attribute or
imports it.
Every other dataclass is written by ``files.json_doc``, which gives a
stored record its keys in field order.  The tape side (the tape generator
and encoder in ``worlds.py``) shares none of the closed form's stacking:
neither it nor a function of its own module that it reaches loads the
stacking helpers.  Every public ``autodiff`` function that appends a tape
node is called from that tape side, directly or through a helper, and
has exactly the rows of ``diagnostics._PRIMITIVE_BUILDERS`` that name it.
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
    return sorted(name for name in os.listdir(PACKAGE_DIR) if name.endswith(".py"))


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
    modules = {"__init__.py", "engine.py", "losses.py", "diagnostics.py", "worlds.py"}
    assert modules <= set(_modules())


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
    sources = {module: _source(module) for module in _modules()}
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


#: The tape side, by module: the tape generator and encoder.
TAPE_ROOTS = {"worlds.py": ("encode_var", "generator_forward_var")}
#: What stacks the domains and encoders for the closed form alone.
CLOSED_FORM_ONLY = {"_stacked_subspaces", "ObjectivePlan", "stack_encoders"}


def _functions(source: str) -> dict[str, ast.FunctionDef]:
    """The module-level functions of ``source`` by name."""
    return {
        node.name: node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)
    }


def _reach(functions: dict[str, ast.FunctionDef], names) -> dict[str, ast.FunctionDef]:
    """``names`` and the functions of their module that they reach by calls."""
    reached, todo = {}, list(names)
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached[name] = functions[name]
        todo.extend(
            node.id for node in ast.walk(functions[name])
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            and node.id in functions
        )
    return reached


def _closed_form_reads(sources: dict[str, str], roots: dict[str, tuple]) -> list[str]:
    """Names of :data:`CLOSED_FORM_ONLY` loaded by ``roots`` or the functions
    of their own module that they reach, as ``"module: function loads name"``."""
    found = set()
    for module, names in roots.items():
        for function, tree in _reach(_functions(sources[module]), names).items():
            for node in ast.walk(tree):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name in CLOSED_FORM_ONLY:
                    found.add(f"{module}: {function} loads {name}")
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


def test_the_tape_side_reads_nothing_of_the_closed_form():
    sources = {module: _source(module) for module in TAPE_ROOTS}
    assert _closed_form_reads(sources, TAPE_ROOTS) == []


def _appends(tree: ast.FunctionDef) -> bool:
    """Whether the function ``tree`` appends a tape node itself."""
    return any(isinstance(n, ast.Attribute) and n.attr == "_append" for n in ast.walk(tree))


def _node_primitives(source: str) -> list[str]:
    """Public functions of the ``autodiff.py`` text ``source`` that append a
    tape node, themselves or through the functions of ``source`` they reach."""
    tape = _functions(source)
    return sorted(
        name for name in tape
        if not name.startswith("_") and any(map(_appends, _reach(tape, [name]).values()))
    )


def _unbuilt_primitives(sources: dict[str, str], roots: dict[str, tuple]) -> list[str]:
    """:func:`_node_primitives` of ``autodiff.py`` that neither ``roots`` nor
    the functions they reach call, as ``ad.name`` or through the
    ``autodiff.py`` functions those calls reach."""
    tape = _functions(sources["autodiff.py"])
    called = {
        node.attr
        for module, names in roots.items()
        for tree in _reach(_functions(sources[module]), names).values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "ad"
    }
    built = _reach(tape, called & tape.keys())
    return [name for name in _node_primitives(sources["autodiff.py"]) if name not in built]


def test_primitive_scan_follows_helpers_and_spares_functions_without_nodes():
    # numpy's flip and negative share names with primitives but build neither
    sources = {
        "autodiff.py": (
            "def _binary(a, b):\n"
            "    return a.tape._append('op', a, b)\n"
            "def add(a, b):\n"
            "    return _binary(a, b)\n"
            "def mul(a, b):\n"
            "    return _binary(a, b)\n"
            "def twice(a):\n"
            "    return add(a, np.negative(-a))\n"
            "def negative(a):\n"
            "    return a.tape._append('negative', a)\n"
            "def flip(a):\n"
            "    return a.tape._append('flip', a)\n"
            "def rows(x):\n"
            "    return x\n"
        ),
        "losses.py": (
            "from . import autodiff as ad\n"
            "def _square(x):\n"
            "    return ad.mul(x, x)\n"
            "def loss(x):\n"
            "    return ad.twice(_square(np.flip(x)))\n"
            "def closed_form(x):\n"
            "    return ad.negative(ad.flip(x))\n"
        ),
    }
    assert _unbuilt_primitives(sources, {"losses.py": ("loss",)}) == ["flip", "negative"]


def test_every_tape_primitive_is_built_by_the_tape_side():
    sources = {module: _source(module) for module in ["autodiff.py", *TAPE_ROOTS]}
    assert _unbuilt_primitives(sources, TAPE_ROOTS) == []


def _battery_rows(source: str) -> dict[str, list[str]]:
    """Each key of the ``_PRIMITIVE_BUILDERS`` dict in ``source``, with the
    ``ad.name`` functions its builder names."""
    (battery,) = [
        node.value for node in ast.parse(source).body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["_PRIMITIVE_BUILDERS"]
    ]
    return {
        key.value: sorted({
            node.attr for node in ast.walk(value)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "ad"
        })
        for key, value in zip(battery.keys, battery.values)
    }


def test_battery_scan_names_each_rows_primitives():
    source = (
        "_B = 3\n"
        "_PRIMITIVE_BUILDERS = {\n"
        "    'add': _builder(ad.add, [(5,)]),\n"
        "    'pair': _builder(lambda a: ad.tanh(ad.relu(a)), [(_B,)]),\n"
        "    'none': _builder(np.add, [(5,)]),\n"
        "}\n"
    )
    assert _battery_rows(source) == {"add": ["add"], "pair": ["relu", "tanh"], "none": []}


def test_the_gradient_battery_checks_each_tape_primitive_and_nothing_else():
    rows = _battery_rows(_source("diagnostics.py"))
    assert [row for row, names in rows.items() if len(names) != 1] == []
    assert sorted({name for (name,) in rows.values()}) == _node_primitives(_source("autodiff.py"))
