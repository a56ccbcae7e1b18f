"""Every file the package reads or writes: JSON, dataclasses as JSON objects, and CSV.

Every write replaces its file whole through :func:`write_atomic` and
refuses a NaN or infinity before the file, or its directory, is touched.
"""
from __future__ import annotations

import json
import math
import os
import sys
import types
import typing
from dataclasses import MISSING, fields, is_dataclass

import numpy as np

from .errors import ConfigError, DimensionError, NumericalError


def read_json(path, kind: str):
    """The JSON document in the file ``path``, parsed but not yet checked.

    A missing file, or text that is not JSON, is a :class:`ConfigError`
    naming ``path``; ``kind`` says what the missing file should hold.
    """
    if not os.path.isfile(path):
        raise ConfigError(f"{path}: {kind} not found")
    with open(path, "r", encoding="utf8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc


def write_json(path, doc) -> None:
    """Replace ``path`` with ``doc`` as indented JSON.

    A NaN or infinity, which JSON cannot hold, is refused before ``path`` is touched.
    """
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"{path}: refusing to write a non-finite value: {exc}") from exc
    write_atomic(path, text + "\n")


def write_atomic(path, text: str) -> None:
    """Replace ``path`` through a temporary file beside it, never leaving a partial file.

    A missing parent directory is created first.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _csv_cell(path, value) -> str:
    if isinstance(value, str):
        return value
    value = float(value)
    if not math.isfinite(value):
        raise NumericalError(f"{path}: refusing to write a non-finite value")
    return repr(value)


def write_csv(path, header, rows) -> None:
    """Replace ``path`` with the line ``header`` and a line per row, each comma-separated.

    Strings are written as they are and numbers as ``repr(float(x))``; a
    NaN or infinity is refused before ``path`` is touched.
    """
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(path, value) for value in row))
    write_atomic(path, "\n".join(lines) + "\n")


def read_feature_csv(path) -> np.ndarray:
    """A ``(k, d)`` feature matrix from a CSV whose first line is ``d,k``."""
    try:
        with open(path, "r", encoding="utf8") as fh:
            # (file line number, text) of the non-blank lines, so errors name the file's line
            lines = [(i, line.strip()) for i, line in enumerate(fh, start=1) if line.strip()]
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    if not lines:
        raise ConfigError(f"{path}: empty feature file")
    header = lines[0][1].split(",")
    if len(header) != 2:
        raise ConfigError(f"{path}: header must be 'd,k'")
    try:
        d, k = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ConfigError(f"{path}: non-integer header") from exc
    if d < 0 or k < 0:
        raise ConfigError(f"{path}: header counts must be non-negative, got '{d},{k}'")
    if len(lines) - 1 != k:
        raise ConfigError(f"{path}: header promises {k} rows, found {len(lines) - 1}")
    rows = []
    for i, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != d:
            raise ConfigError(f"{path}: line {i} has {len(parts)} values, expected {d}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ConfigError(f"{path}: line {i} has a non-numeric value") from exc
        if not np.all(np.isfinite(rows[-1])):
            raise ConfigError(f"{path}: line {i} has a non-finite value")
    return np.array(rows, dtype=np.float64).reshape(k, d)


#: ``type: (accepted Python types, what the error asks for)`` of a scalar field
_SCALARS = {
    bool: ((bool,), "true or false"),
    int: ((int,), "a JSON integer"),
    float: ((int, float), "a finite number"),
    str: ((str,), "a string"),
}

_FLOAT_MAX = sys.float_info.max

#: ``class -> {JSON key: (field name, default, annotated type)}``
_FIELD_TABLES: dict[type, dict] = {}


def read_value(hint, value, key: str):
    """``value`` checked against the annotated type ``hint`` and converted to it."""
    if type(value) is hint and (hint is not float or -_FLOAT_MAX <= value <= _FLOAT_MAX):
        return value  # the common case, ahead of the general rules below
    if hint in _SCALARS:
        accepts, what = _SCALARS[hint]
        if isinstance(value, accepts) and (hint is bool or not isinstance(value, bool)):
            if hint is not float:
                return value
            # the bounds refuse NaN, infinities and integers too large for a float
            if -_FLOAT_MAX <= value <= _FLOAT_MAX:
                return float(value)
        raise ConfigError(f"{key} must be {what}, got {value!r}")
    if hint is np.ndarray:
        # object cells keep each JSON value's type, so a boolean is not read as 1.0,
        # and a ragged list leaves lists among them
        cells = np.array(value if isinstance(value, list) else None, dtype=object)
        if set(map(type, cells.flat)) <= {int, float}:
            try:
                return cells.astype(np.float64)
            except OverflowError:  # an integer too large for a float
                pass
        raise ConfigError(f"{key} must be a rectangular list of numbers")
    origin = typing.get_origin(hint)
    if origin is typing.Union or origin is types.UnionType:  # Optional[X] or X | None
        return None if value is None else read_value(typing.get_args(hint)[0], value, key)
    if origin is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        item = typing.get_args(hint)[0]
        return tuple(read_value(item, v, f"{key}[{i}]") for i, v in enumerate(value))
    if origin is dict:  # dict[str, X]; JSON object keys are strings
        if not isinstance(value, dict):
            raise ConfigError(f"{key} must be a JSON object, got {value!r}")
        item = typing.get_args(hint)[1]
        return {k: read_value(item, v, f"{key}[{k!r}]") for k, v in value.items()}
    try:
        return read_object(hint, value, hint.__name__)
    except ConfigError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def read_object(cls, data, kind: str):
    """An instance of the dataclass ``cls`` built from a JSON object.

    Each value is checked and converted by its field's annotated type:
    ``bool`` takes only ``true``/``false``, ``int`` only a JSON integer,
    ``float`` a finite number, ``str`` a string, ``tuple[X, ...]`` a
    list, ``dict[str, X]`` an object, an array a rectangular list of
    numbers, ``X | None`` also ``null``, and a nested dataclass this
    reader again, with its class name as ``kind``.  A field's JSON key
    is its ``"json"`` metadata, else its name.  An absent key takes the
    field's default, so each default is written once, in the dataclass.
    An unknown key (with a did-you-mean hint), a missing field without a
    default, or a value of the wrong type is a :class:`ConfigError`
    naming the key.  A :class:`DimensionError` from the constructor
    (sizes that disagree) becomes a ``ConfigError`` naming ``kind``.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{kind} must be a JSON object")
    table = _FIELD_TABLES.get(cls)
    if table is None:  # type hints are slow to resolve, so once per class
        hints = typing.get_type_hints(cls)
        table = _FIELD_TABLES[cls] = {
            f.metadata.get("json", f.name): (f.name, f.default, hints[f.name]) for f in fields(cls)
        }
    for key in data:
        if key not in table:
            import difflib  # only to phrase the error

            close = difflib.get_close_matches(str(key), table, n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise ConfigError(f"unknown {kind} key {key!r}{hint}")
    values = {}
    for key, (name, default, hint) in table.items():
        if key in data:
            values[name] = read_value(hint, data[key], key)
        elif default is not MISSING:
            values[name] = default
        else:
            raise ConfigError(f"{kind} is missing {key!r}")
    try:
        return cls(**values)
    except DimensionError as exc:
        raise ConfigError(f"{kind}: {exc}") from exc


def read_document(cls, path, kind: str):
    """``cls`` read by :func:`read_object` from the JSON file ``path``; errors name ``path``."""
    doc = read_json(path, kind)
    try:
        return read_object(cls, doc, kind)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def json_doc(obj) -> dict:
    """The JSON object :func:`read_object` reads back into ``obj``, keys in field order."""
    return {
        f.metadata.get("json", f.name): _json_value(getattr(obj, f.name)) for f in fields(obj)
    }


def _json_value(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [_json_value(item) for item in value]
    if isinstance(value, dict):
        return {key: _json_value(item) for key, item in value.items()}
    if hasattr(value, "to_json_dict"):
        return value.to_json_dict()
    if is_dataclass(value):
        return json_doc(value)
    return value
