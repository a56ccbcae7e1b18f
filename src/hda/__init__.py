"""Few-shot hybrid domain adaptation of a toy generator.

Reference features of each target domain span an affine embedding
subspace; a copy of a frozen source generator is adapted so that its
embeddings move onto (a weighted blend of) those subspaces while the
direction of travel stays aligned with the source-to-target
displacement.  No discriminator is involved anywhere.

Importing the package pins glibc's allocator thresholds for the process
(:func:`_pin_malloc_thresholds`: mmap at 32 MiB, trim at 64 MiB), so the
temporaries of 128 KiB or more that each held-out evaluation allocates
are reused from the heap instead of being unmapped on ``free`` and
faulted back in page by page on the next call.  Off glibc it does
nothing.  It also runs numpy's OpenBLAS on one thread
(:func:`_pin_blas_threads`), so every product, however large, is one
serial BLAS call; off OpenBLAS that does nothing either.
"""

# glibc's mallopt parameters (malloc.h) and the values they are pinned to
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD


def _pin_malloc_thresholds(libc=None) -> bool:
    """Fix glibc's mmap threshold at 32 MiB and its trim threshold at 64 MiB; True if applied.

    Left dynamic, glibc serves an allocation of 128 KiB or more by a
    fresh ``mmap``, unmapped on ``free``, until freeing such a chunk
    raises the threshold to its size, and it trims the heap's top
    whenever more than twice the threshold is free there.  A 1,024-sample
    :func:`metrics.evaluate` call allocates about 2.4 MiB of such
    temporaries (up to ten 512 KiB pair blocks, the 256 KiB forward and
    encode hiddens, both augmented arrays), so each call faulted them
    back in page by page: 5,453 minor faults and 24.3 ms per
    ``eval_sweep`` pass of 9 calls, against 0 faults and 19.4 ms with
    the thresholds pinned, with the same bits (2-vCPU Xeon, glibc 2.36).
    Set through ``GLIBC_TUNABLES`` with the mmap threshold at 32 MiB, a
    trim threshold of 2 MiB still took 5,112 faults a pass and 4 MiB or
    more took 0; the mmap threshold alone, which leaves the trim
    threshold at 128 KiB, took 6,892.  32 MiB is the ceiling of glibc's
    dynamic threshold on 64-bit (``DEFAULT_MMAP_THRESHOLD_MAX``) and the
    trim threshold is twice it, as glibc's own rule sets it, so this fixes
    from the start the policy glibc converges to.

    ``libc`` is the C library to call, the process's own by default.
    Off glibc, or when ``mallopt`` is missing or refuses a value, this
    raises nothing, prints nothing and returns False.
    """
    import ctypes
    import platform

    if platform.libc_ver()[0] != "glibc":
        return False
    mallopt = getattr(ctypes.CDLL(None) if libc is None else libc, "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    pins = ((_M_MMAP_THRESHOLD, _MMAP_THRESHOLD), (_M_TRIM_THRESHOLD, _TRIM_THRESHOLD))
    return all(mallopt(param, value) for param, value in pins)


# OpenBLAS's thread-count setters: scipy-openblas's (numpy's wheels), then older builds'
_BLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                 "openblas_set_num_threads")


def _pin_blas_threads(blas=None) -> bool:
    """Run numpy's OpenBLAS on the calling thread alone; True if applied.

    OpenBLAS may wake its worker threads for a GEMM of over 2^18
    multiply-adds, which for the package's small matrices is slower and,
    on a busy box, erratic (the README has the measurements).  Pinned,
    every product is a plain ``@``: one serial BLAS call per matrix
    slice, so each slice of a stacked product equals its own 2-D product
    bit for bit.

    ``blas`` is the library to call, the one numpy's extension module
    loaded by default.  Off OpenBLAS, or when no setter is exported, this
    raises nothing, prints nothing and returns False.
    """
    import ctypes

    if blas is None:
        try:
            from numpy._core import _multiarray_umath
        except ImportError:  # numpy 1.x
            from numpy.core import _multiarray_umath
        try:
            blas = ctypes.CDLL(_multiarray_umath.__file__)
        except OSError:
            return False
    for name in _BLAS_SETTERS:
        setter = getattr(blas, name, None)
        if setter is not None:
            setter.argtypes, setter.restype = (ctypes.c_int,), None
            setter(1)
            return True
    return False


_pin_malloc_thresholds()
_pin_blas_threads()
