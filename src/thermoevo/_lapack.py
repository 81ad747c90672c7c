"""The band and tridiagonal LAPACK/BLAS routines of the march and of the
oracle's spline: ``gbtrf``, ``gbtrs``, ``gbmv`` and ``gtsv``.

numpy 2 wheels link scipy-openblas, built with 64-bit integers
(``USE64BITINT``) and its symbols renamed ``scipy_<routine>_64_``.  Where
numpy's build reports that library and the symbols resolve in numpy's own
extension module, the routines are called there through :mod:`ctypes`, with
int64 sizes and pivots, and no further library loads.  Other builds (MKL,
Accelerate, conda) take them from ``scipy.linalg.lapack`` and
``scipy.linalg.blas``.

:func:`gbtrs` and :func:`gbmv` bind one matrix and the work vectors they
read and write, checked once for dtype, length, contiguity and
writability; the call they return takes no argument.  A march thus makes
every argument once per factorization, and each step passes ready pointers
only.
"""

from __future__ import annotations

import ctypes
from ctypes import c_char_p, c_double, c_int64, c_size_t, c_void_p, cast, pointer
from functools import cache

import numpy as np

from .errors import SingularSystemError

__all__ = ["gbtrf", "gbtrs", "gbmv", "gtsv"]

#: argument types of each routine: Fortran takes every argument by
#: reference, and ``c_size_t`` is the hidden length of the one-character
#: ``trans`` argument
_SIGNATURES = {
    "dgbtrf": [c_void_p] * 8,
    "dgbtrs": [c_char_p, *[c_void_p] * 10, c_size_t],
    "dgbmv": [c_char_p, *[c_void_p] * 12, c_size_t],
    "dgtsv": [c_void_p] * 8,
}

#: the ``trans`` argument "N" (no transpose) and its hidden length
_NO_TRANSPOSE, _ONE_CHARACTER = c_char_p(b"N"), c_size_t(1)


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
    ``info > 0`` is the position of a zero pivot.  ``lu`` and ``piv`` are for
    :func:`gbtrs` of the same binding."""
    routines = _openblas64()
    ab = _band(ab, 2 * kl + ku + 1)
    if routines is None:
        from scipy.linalg.lapack import dgbtrf
        return dgbtrf(ab, kl, ku, overwrite_ab=1)
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

        def solve():
            b[:] = dgbtrs(lu, kl, ku, b, piv, overwrite_b=1)[0]

        return solve
    if piv.dtype != np.int64 or piv.shape != (n,):
        raise ValueError(f"expected the {n} int64 pivots of gbtrf")
    routine = routines["dgbtrs"]
    args = (_NO_TRANSPOSE, *_ints(n, kl, ku, 1), _address(lu), *_ints(lu.shape[0]),
            _address(piv), _address(b), *_ints(n, 0), _ONE_CHARACTER)
    return lambda: routine(*args)


def gbmv(a: np.ndarray, kl: int, ku: int, x: np.ndarray, y: np.ndarray):
    """The product ``y <- y + A x`` of the n x n band matrix ``a``
    (``kl + ku + 1`` rows, Fortran order), bound to the work vectors ``x``
    and ``y``."""
    a = _band(a, kl + ku + 1)
    n = a.shape[1]
    _check_work(x, n)
    _check_work(y, n)
    routines = _openblas64()
    if routines is None:
        from scipy.linalg.blas import dgbmv

        # BLAS needs only LDA >= kl + ku + 1, the rows of ``a``; scipy's
        # wrapper also asks for that many rows of the product, so a smaller
        # matrix runs over zero rows past its own
        rows = max(n, kl + ku + 1)

        def product():
            out = np.concatenate([y, np.zeros(rows - n)]) if rows > n else y
            y[:] = dgbmv(rows, n, kl, ku, 1.0, a, x, beta=1.0, y=out, overwrite_y=1)[:n]

        return product
    routine = routines["dgbmv"]
    one, increment = _reference(c_double(1.0)), _ints(1)[0]
    args = (_NO_TRANSPOSE, *_ints(n, n, kl, ku), one, _address(a), *_ints(a.shape[0]),
            _address(x), increment, one, _address(y), increment, _ONE_CHARACTER)
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
