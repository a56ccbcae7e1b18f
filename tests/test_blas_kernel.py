"""The frozen sentinels under a second OpenBLAS kernel.

The sentinels in ``tests/test_regression.py`` hold at rel 1e-9, loose
enough for a change of BLAS kernel.  This runs them in a subprocess with
``OPENBLAS_CORETYPE=Sandybridge``, which a ``DYNAMIC_ARCH`` OpenBLAS
honours on any AVX machine: the Sandybridge kernels replace the machine's
own (Haswell or SkylakeX ones, say), and their products round differently.
The workload fingerprints, the bytes of the stock CLI files and the
``BENCH_*.json`` "kept its bits" claims are bound to one kernel; the
sentinels are not.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

KERNEL = "Sandybridge"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# prints the kernel of the OpenBLAS that numpy loaded
_READ_KERNEL = """
import ctypes, numpy
with open("/proc/self/maps") as fh:
    libs = sorted({line.split()[-1] for line in fh if "scipy_openblas" in line})
get_corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
get_corename.restype = ctypes.c_char_p
print(get_corename().decode())
"""


def _skip_unless_the_kernel_can_change():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    build = blas.get("openblas configuration", "")
    if blas.get("name") != "scipy-openblas" or "DYNAMIC_ARCH" not in build:
        pytest.skip(f"numpy's BLAS is not a DYNAMIC_ARCH scipy-openblas: {blas.get('name')} {build}")
    try:
        with open("/proc/cpuinfo", encoding="utf8") as fh:
            flags = {f for line in fh if line.startswith("flags") for f in line.split()}
    except OSError as exc:
        pytest.skip(f"cannot read /proc/cpuinfo: {exc}")
    if "avx" not in flags:
        pytest.skip(f"/proc/cpuinfo lists no avx, so OpenBLAS cannot run {KERNEL}")


def test_sentinels_hold_under_the_sandybridge_kernel():
    _skip_unless_the_kernel_can_change()
    env = {**os.environ, "OPENBLAS_CORETYPE": KERNEL}
    child = subprocess.run(
        [sys.executable, "-c", _READ_KERNEL], env=env, capture_output=True, text=True
    )
    kernel = child.stdout.strip()
    if child.returncode or kernel != KERNEL:
        pytest.skip(f"the child reads kernel {kernel!r}, not {KERNEL}: {child.stderr[-300:]}")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_regression.py"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-1000:]
