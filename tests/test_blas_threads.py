"""The package pins numpy's OpenBLAS to one thread at import, and does nothing elsewhere."""

import ctypes
import os
import subprocess
import sys
import types

import numpy as np
import pytest

import hda

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# prints OpenBLAS's thread count once the package is imported
_READ_THREADS = """
import ctypes
from numpy._core import _multiarray_umath
import hda
print(ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_num_threads64_())
"""


def _blas_name():
    return np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name")


on_scipy_openblas = pytest.mark.skipif(
    _blas_name() != "scipy-openblas", reason=f"numpy's BLAS is {_blas_name()}, not scipy-openblas"
)


@on_scipy_openblas
def test_pinning_applies_and_openblas_runs_one_thread():
    from numpy._core import _multiarray_umath

    blas = ctypes.CDLL(_multiarray_umath.__file__)
    assert blas.scipy_openblas_get_num_threads64_() == 1
    assert hda._pin_blas_threads() is True
    assert blas.scipy_openblas_get_num_threads64_() == 1


@on_scipy_openblas
def test_the_pin_overrides_the_thread_count_of_the_environment():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "4", "PYTHONPATH": os.path.join(ROOT, "src")}
    child = subprocess.run(
        [sys.executable, "-c", _READ_THREADS], env=env, capture_output=True, text=True
    )
    assert child.returncode == 0, child.stderr[-1000:]
    assert child.stdout.strip() == "1"


@pytest.mark.parametrize("name", hda._BLAS_SETTERS)
def test_each_setter_is_called_once_with_one(name):
    calls = []

    def setter(n):
        calls.append(n)

    assert hda._pin_blas_threads(types.SimpleNamespace(**{name: setter})) is True
    assert calls == [1]


def test_a_library_without_a_setter_changes_nothing(capfd):
    assert hda._pin_blas_threads(types.SimpleNamespace()) is False
    assert capfd.readouterr() == ("", "")
