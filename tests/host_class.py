"""The host class a pinned digest or golden file depends on.

The pinned bits come from numpy's SIMD ``exp``/``expm1`` and from the BLAS
kernel behind the dense tail-inflow product, and both are chosen per CPU.
So a pin that fails on a host of another class need not be a regression.
``host_class()`` names this host's class: numpy's ``AVX512F`` and
``AVX512_SKX`` dispatch, and the core numpy's bundled OpenBLAS runs on
(``unknown`` when that library or its symbol is missing).  ``RECORDED`` is
the class the pins were recorded on, and ``mismatch`` the message of a
failed pin.  Run it to print this host's line::

    PYTHONPATH=src python tests/host_class.py
"""

import ctypes
from pathlib import Path

import numpy as np

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

RECORDED = "AVX512F yes, AVX512_SKX yes, OpenBLAS core SkylakeX"


def openblas_core() -> str:
    """The core name numpy's bundled OpenBLAS reports, or ``unknown``."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    try:
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode()


def host_class() -> str:
    flags = ", ".join(f"{name} {'yes' if __cpu_features__.get(name) else 'no'}"
                      for name in ("AVX512F", "AVX512_SKX"))
    return f"{flags}, OpenBLAS core {openblas_core()}"


def mismatch(what: str) -> str:
    """The message of a failed pin ``what``, naming both host classes."""
    here = host_class()
    same = ("the same class" if here == RECORDED
            else "another class, whose bits may differ without a regression")
    return f"{what} differs from its pin; pins recorded on {RECORDED}; this host: {here} ({same})"


if __name__ == "__main__":
    print(f"host class: {host_class()} (pins recorded on {RECORDED})")
