"""The compiled RK4 kernel (``_rk4.c``): built once per host, cached, loaded through ctypes.

On first use the source is compiled with ``cc`` and ``FLAGS`` into
``${XDG_CACHE_HOME:-~/.cache}/flownet/``, under a name made of the SHA-256
of the source and the flags.  The library is written under a temporary
name and moved into place, so processes building at once never load half
a file; later processes load it without a compiler.  Nothing is built or
loaded before a run needs the kernel.

The kernel makes every IEEE operation of the numpy kernel it replaces, in
numpy's order, and hands numpy's own code the three operations whose bits
depend on the host: the float64 ``expm1`` and ``exp`` inner loops and the
float64 ``add`` loop (in reduce mode, as ``np.add.reduceat`` runs it), all
read out of the ufuncs, and the ``cblas_dgemv`` of numpy's bundled
OpenBLAS, which ``np.matmul`` calls for a matrix times a column.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_rk4.c")
COMPILER = "cc"
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
# numpy's bundled OpenBLAS (64-bit integers), resolved through numpy's own extension module
DGEMV = "scipy_cblas_dgemv64_"


class KernelLoadError(RuntimeError):
    """The RK4 kernel could not be built or loaded on this host."""


def cache_dir() -> Path:
    """``$XDG_CACHE_HOME/flownet``, or ``~/.cache/flownet`` where it is unset or empty."""
    return Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "flownet"


def library_path(source: bytes) -> Path:
    """Where the library built from ``source`` with ``FLAGS`` is cached."""
    key = hashlib.sha256(source + "\0".join(("",) + FLAGS).encode()).hexdigest()
    return cache_dir() / f"rk4-{key}.so"


def _build(path: Path) -> None:
    import subprocess
    import tempfile

    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=".rk4-", suffix=".so", dir=path.parent)
        os.close(fd)
    except OSError as exc:
        raise KernelLoadError(f"cannot build the RK4 kernel in {path.parent}: {exc}") from None
    try:
        try:
            proc = subprocess.run([COMPILER, *FLAGS, "-o", tmp, str(SOURCE)],
                                  capture_output=True, text=True)
        except OSError as exc:
            raise KernelLoadError(f"the RK4 kernel needs a C compiler: cannot run {COMPILER!r} "
                                   f"({exc.strerror or exc})") from None
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines()
            raise KernelLoadError(f"{COMPILER} failed to build the RK4 kernel (status "
                                   f"{proc.returncode})" + (f": {lines[-1]}" if lines else ""))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


class _UFunc(ctypes.Structure):
    """The head of numpy's ``PyUFuncObject``, up to its type signatures."""

    _fields_ = [("ob_refcnt", ctypes.c_ssize_t), ("ob_type", ctypes.c_void_p),
                ("nin", ctypes.c_int), ("nout", ctypes.c_int), ("nargs", ctypes.c_int),
                ("identity", ctypes.c_int),
                ("functions", ctypes.POINTER(ctypes.c_void_p)),
                ("data", ctypes.POINTER(ctypes.c_void_p)),
                ("ntypes", ctypes.c_int), ("reserved1", ctypes.c_int),
                ("name", ctypes.c_char_p), ("types", ctypes.POINTER(ctypes.c_char))]


def _float64_loop(ufunc: np.ufunc) -> tuple:
    """``(loop, data)`` of ``ufunc``'s first all-float64 inner loop, the one numpy
    selects for float64 operands, after checking the struct is that ufunc's."""
    head = _UFunc.from_address(id(ufunc))
    nargs = ufunc.nin + ufunc.nout
    if head.name != ufunc.__name__.encode() or (head.nin, head.nout, head.nargs) != \
            (ufunc.nin, ufunc.nout, nargs) or head.ntypes != ufunc.ntypes:
        raise KernelLoadError(f"numpy's {ufunc.__name__} ufunc has an unknown layout")
    want = bytes([np.dtype(np.float64).num]) * nargs
    for i in range(head.ntypes):
        if bytes(head.types[i * nargs + j][0] for j in range(nargs)) == want:
            return head.functions[i], head.data[i]
    raise KernelLoadError(f"numpy's {ufunc.__name__} ufunc has no float64 loop")


class Kernel(ctypes.Structure):
    """``struct rk4`` of ``_rk4.c``, field for field."""

    _fields_ = ([(name, ctypes.c_int64) for name in
                 ("members", "links", "groups", "origin_lo", "origin_hi")]
                + [(name, ctypes.c_void_p) for name in
                   ("group_start", "neg_rate", "neg_f_max", "neg_eta", "weight", "tail_head",
                    "flow", "inflow", "k1", "k2", "k3", "k4", "stage",
                    "expm1", "exp", "add", "expm1_data", "exp_data", "add_data", "dgemv")])


@functools.cache
def library():
    """``(lib, numpy_code)``: the loaded kernel, built first if not cached, and the
    addresses of the numpy code it calls, as ``Kernel`` field values."""
    source = SOURCE.read_bytes()
    path = library_path(source)
    if not path.exists():
        _build(path)
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        raise KernelLoadError(f"cannot load the RK4 kernel {path}: {exc}") from None
    lib.flownet_rk4_rhs.argtypes = [ctypes.c_void_p, ctypes.c_double, ctypes.c_void_p,
                                    ctypes.c_void_p]
    lib.flownet_rk4_rhs.restype = None
    lib.flownet_rk4_block.argtypes = ([ctypes.c_void_p] * 5 + [ctypes.c_int64] * 4
                                      + [ctypes.c_double, ctypes.c_void_p, ctypes.c_void_p,
                                         ctypes.c_double, ctypes.c_double])
    lib.flownet_rk4_block.restype = ctypes.c_int

    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath

    try:
        dgemv = ctypes.cast(getattr(ctypes.CDLL(_multiarray_umath.__file__), DGEMV),
                            ctypes.c_void_p).value
    except AttributeError:
        raise KernelLoadError(f"numpy's BLAS does not export {DGEMV}, which the RK4 kernel "
                               "calls") from None
    (expm1, expm1_data), (exp, exp_data), (add, add_data) = (
        _float64_loop(u) for u in (np.expm1, np.exp, np.add))
    return lib, dict(expm1=expm1, exp=exp, add=add, expm1_data=expm1_data, exp_data=exp_data,
                     add_data=add_data, dgemv=dgemv)
