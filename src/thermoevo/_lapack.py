"""The band and tridiagonal LAPACK/BLAS routines of the march and of the
oracle's spline: ``gbtrf``, ``gbtrs``, ``tbsv`` and ``gtsv``.

numpy 2 wheels link scipy-openblas, built with 64-bit integers
(``USE64BITINT``) and its symbols renamed ``scipy_<routine>_64_``.  Where
numpy's build reports that library and the symbols resolve in numpy's own
extension module, the routines are called there through :mod:`ctypes`, with
int64 sizes and pivots, and no further library loads.  Other builds (MKL,
Accelerate, conda) take them from ``scipy.linalg.lapack`` and
``scipy.linalg.blas``.

:func:`gbtrs` and :func:`tbsv` bind one matrix and the work vector they
overwrite, checked once for dtype, length, contiguity and writability; the
call they return takes no argument.  A march thus makes every argument once
per factorization, and each step passes ready pointers only.  The march
needs no banded product: in its congruence basis the instantaneous block
is diagonal (:class:`thermoevo.evolution._ImplicitStepper`).
"""

from __future__ import annotations

import ctypes
from ctypes import c_char_p, c_int64, c_size_t, c_void_p, cast, pointer
from functools import cache

import numpy as np

from .errors import SingularSystemError

__all__ = ["gbtrf", "gbtrs", "tbsv", "gtsv"]

#: argument types of each routine: Fortran takes every argument by
#: reference, and ``c_size_t`` is the hidden length of the one-character
#: ``trans``, ``uplo`` or ``diag`` argument
_SIGNATURES = {
    "dgbtrf": [c_void_p] * 8,
    "dgbtrs": [c_char_p, *[c_void_p] * 10, c_size_t],
    "dtbsv": [c_char_p, c_char_p, c_char_p, *[c_void_p] * 6, *[c_size_t] * 3],
    "dgtsv": [c_void_p] * 8,
}

#: the one-character arguments and their hidden length: "N" is no transpose
#: (``trans``) or a non-unit diagonal (``diag``), "U" upper (``uplo``) or a
#: unit diagonal (``diag``), "L" lower (``uplo``)
_NO_TRANSPOSE, _ONE_CHARACTER = c_char_p(b"N"), c_size_t(1)
_UPPER, _LOWER = c_char_p(b"U"), c_char_p(b"L")


@cache
def _openblas64():
    """numpy's scipy-openblas routines by name, or None where numpy links
    another LAPACK or one of them does not resolve."""
    try:
        lapack = np.__config__.CONFIG["Build Dependencies"]["lapack"]
        ilp64 = "USE64BITINT" in lapack.get("openblas configuration", "")
        if lapack["name"] != "scipy-openblas" or not ilp64:
            return None
        library = ctypes.CDLL(np._core._multiarray_umath.__file__)
        routines = {name: getattr(library, f"scipy_{name}_64_") for name in _SIGNATURES}
    except (AttributeError, KeyError, OSError, TypeError):
        return None
    for name, routine in routines.items():
        routine.argtypes = _SIGNATURES[name]
        routine.restype = None
    return routines


def _reference(value) -> c_void_p:
    """The address of ``value``; the pointer keeps it alive."""
    return cast(pointer(value), c_void_p)


def _ints(*values) -> list:
    return [_reference(c_int64(v)) for v in values]


def _address(array: np.ndarray) -> c_void_p:
    """The data address of ``array``; the pointer keeps the array alive."""
    return array.ctypes.data_as(c_void_p)


def _band(a: np.ndarray, rows: int) -> np.ndarray:
    """``a`` as a Fortran-ordered float64 band of at least ``rows`` rows."""
    if a.ndim != 2 or a.shape[0] < rows:
        raise ValueError(f"a band needs at least {rows} rows, got shape {a.shape}")
    return np.asfortranarray(a, dtype=float)


def _check_work(vector: np.ndarray, n: int) -> None:
    if (vector.dtype != np.float64 or vector.shape != (n,)
            or not (vector.flags.c_contiguous and vector.flags.writeable)):
        raise ValueError(f"a work vector must be a contiguous, writable float64 vector "
                         f"of {n} entries, got {vector.dtype} of shape {vector.shape}")


def gbtrf(ab: np.ndarray, kl: int, ku: int) -> tuple:
    """LU factorization with partial pivoting of the n x n band matrix held
    in rows ``kl:`` of ``ab`` (LAPACK band storage with ``2 kl + ku + 1``
    rows, Fortran order), overwriting ``ab``: ``(lu, piv, info)``, where
    ``piv`` are LAPACK's pivots, 1-based, and ``info > 0`` is the position of
    a zero pivot."""
    routines = _openblas64()
    ab = _band(ab, 2 * kl + ku + 1)
    if routines is None:
        from scipy.linalg.lapack import dgbtrf
        lu, piv, info = dgbtrf(ab, kl, ku, overwrite_ab=1)
        return lu, piv + 1, info
    n = ab.shape[1]
    piv = np.zeros(n, dtype=np.int64)
    info = c_int64()
    routines["dgbtrf"](*_ints(n, n, kl, ku), _address(ab), *_ints(ab.shape[0]),
                       _address(piv), _reference(info))
    return ab, piv, info.value


def gbtrs(lu: np.ndarray, piv: np.ndarray, kl: int, ku: int, b: np.ndarray):
    """The solve ``b <- A^-1 b`` of a factorization by :func:`gbtrf`, bound
    to the work vector ``b``."""
    lu = _band(lu, 2 * kl + ku + 1)
    n = lu.shape[1]
    _check_work(b, n)
    routines = _openblas64()
    if routines is None:
        from scipy.linalg.lapack import dgbtrs
        piv = piv - 1  # scipy's wrappers count from 0

        def solve():
            b[:] = dgbtrs(lu, kl, ku, b, piv, overwrite_b=1)[0]

        return solve
    if piv.dtype != np.int64 or piv.shape != (n,):
        raise ValueError(f"expected the {n} int64 pivots of gbtrf")
    routine = routines["dgbtrs"]
    args = (_NO_TRANSPOSE, *_ints(n, kl, ku, 1), _address(lu), *_ints(lu.shape[0]),
            _address(piv), _address(b), *_ints(n, 0), _ONE_CHARACTER)
    return lambda: routine(*args)


def tbsv(a: np.ndarray, k: int, lower: bool, x: np.ndarray):
    """The solve ``x <- T^-1 x`` of the n x n triangular band matrix T with
    ``k`` sub-diagonals and a unit diagonal (``lower``), or ``k``
    super-diagonals, bound to the work vector ``x``.

    ``a`` holds T's ``k + 1`` diagonals in BLAS band storage: T's diagonal
    in its first row (lower, not read) or its last (upper).  It may be a
    view of consecutive rows of a Fortran-ordered band, such as one factor of
    an LU held in one band."""
    if (a.dtype != np.float64 or a.ndim != 2 or a.shape[0] != k + 1
            or a.strides[0] != a.itemsize or a.strides[1] < (k + 1) * a.itemsize
            or a.strides[1] % a.itemsize):
        raise ValueError(f"a triangular band needs {k + 1} float64 rows of a Fortran-ordered "
                         f"band, got {a.dtype} of shape {a.shape}")
    n = a.shape[1]
    _check_work(x, n)
    routines = _openblas64()
    if routines is None:
        from scipy.linalg.blas import dtbsv
        a = np.asfortranarray(a)

        def sweep():
            x[:] = dtbsv(k, a, x, lower=int(lower), diag=int(lower), overwrite_x=1)

        return sweep
    routine = routines["dtbsv"]
    uplo, diag = (_LOWER, _UPPER) if lower else (_UPPER, _NO_TRANSPOSE)
    args = (uplo, _NO_TRANSPOSE, diag, *_ints(n, k), _address(a),
            *_ints(a.strides[1] // a.itemsize), _address(x), *_ints(1), *[_ONE_CHARACTER] * 3)
    return lambda: routine(*args)


def gtsv(dl: np.ndarray, d: np.ndarray, du: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The solution of the tridiagonal system with sub-, main and
    super-diagonals ``dl``, ``d``, ``du`` for the columns of ``b`` (n, m),
    by Gaussian elimination with partial pivoting; a zero pivot raises
    :class:`SingularSystemError`.  The arguments are not changed."""
    n = d.size
    if b.ndim != 2 or b.shape[0] != n or dl.size != max(n - 1, 0) or du.size != dl.size:
        raise ValueError("gtsv needs diagonals of n - 1, n, n - 1 entries and b of n rows")
    routines = _openblas64()
    if routines is None:
        from scipy.linalg.lapack import dgtsv
        *_, x, info = dgtsv(dl, d, du, b)
    else:
        dl, d, du = (np.array(v, dtype=float) for v in (dl, d, du))
        x = np.array(b, dtype=float, order="F")
        status = c_int64()
        routines["dgtsv"](*_ints(n, x.shape[1]), *(_address(v) for v in (dl, d, du, x)),
                          *_ints(max(n, 1)), _reference(status))
        info = status.value
    if info > 0:
        raise SingularSystemError(f"tridiagonal system not invertible: zero pivot {info}")
    return x
