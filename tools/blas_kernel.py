"""The OpenBLAS kernel that numpy's and scipy's bundled libraries run.

Usage::

    python tools/blas_kernel.py

A ``DYNAMIC_ARCH`` OpenBLAS picks its kernel (``SkylakeX``, ``Haswell``, ...)
from the CPU when it loads, and two kernels can round the same product
differently, so hvsim's byte-identical outputs hold for one kernel and
library build.  ``tools/sha_corpus.py`` and ``tools/bench_against.py`` record
the names read here.  Each name comes from the library's own corename call,
through ctypes; a library or symbol that is not found reads ``unknown``.
"""

from __future__ import annotations

import ctypes
import importlib.util
from pathlib import Path

#: (package, its bundled OpenBLAS under site-packages, the corename symbol)
LIBRARIES = (
    ("numpy", "numpy.libs/libscipy_openblas64_*.so", "scipy_openblas_get_corename64_"),
    ("scipy", "scipy.libs/libscipy_openblas*.so", "scipy_openblas_get_corename"),
)


def corename(pattern: str, symbol: str) -> str:
    """The kernel name from ``symbol`` of the first library that ``pattern``
    matches under site-packages, or ``unknown``."""
    spec = importlib.util.find_spec("numpy")
    site = Path(spec.origin).parents[1] if spec and spec.origin else None
    for path in sorted(site.glob(pattern)) if site else ():
        try:
            get = getattr(ctypes.CDLL(str(path)), symbol)
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_char_p
        return (get() or b"unknown").decode().strip() or "unknown"
    return "unknown"


def kernels() -> dict:
    """``{package: kernel name}`` of numpy's and scipy's OpenBLAS."""
    return {package: corename(pattern, symbol) for package, pattern, symbol in LIBRARIES}


def describe() -> str:
    """One line naming each library's kernel, as the tools print it."""
    return "blas kernels: " + ", ".join(f"{k} {v}" for k, v in kernels().items())


if __name__ == "__main__":
    print(describe())
