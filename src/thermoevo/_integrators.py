"""Exponential integrators for small dense linear systems.

Shared by the spectral reference solver and the memory marches of ``models``.
The phi matrices follow the usual convention

    phi_0(A) = expm(A),   phi_{k+1}(z) = (phi_k(z) - 1/k!) / z,

computed in one shot through the augmented-matrix trick, which stays
accurate for singular or nearly singular arguments.  The exponential is the
scaling-and-squaring [13/13] Pade approximant of Higham (SIAM J. Matrix
Anal. Appl. 26, 2005) over a stack of matrices, in numpy alone.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["expm", "phi_matrices", "exp_march_linear"]

#: coefficients b_0 .. b_13 of the [13/13] Pade approximant of exp, and the
#: largest 1-norm it takes to double precision unscaled (Higham 2005, Table 2.3)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm(a: np.ndarray) -> np.ndarray:
    """The matrix exponential of a square matrix or of a stack of them on
    leading axes.  Each matrix is scaled by the power of two 2^-s that brings
    its 1-norm to at most ``_THETA13``, exponentiated by the Pade
    approximant, and squared s times.  An upper triangular matrix gets the
    exponentials of its diagonal as its diagonal (Al-Mohy & Higham, SIAM J.
    Matrix Anal. Appl. 31, 2009, Code Fragment 2.1): a march multiplies by
    that diagonal once per step, so its last-bit error would grow with the
    step count."""
    a = np.asarray(a)
    d = a.shape[-1]
    stack = a.reshape((math.prod(a.shape[:-2]), d, d))
    mantissa, s = np.frexp(np.max(np.sum(np.abs(stack), axis=1), axis=1, initial=0.0)
                           / _THETA13)
    s = np.maximum(s - (mantissa == 0.5), 0)  # the least s with norm / 2^s <= _THETA13
    x = stack * (2.0 ** -s)[:, None, None]
    b = _PADE13
    eye = np.eye(d)
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
             + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * eye)
    v = x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2) + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for k in range(int(s.max(initial=0))):
        more = s > k
        r[more] = r[more] @ r[more]
    upper = ~np.any(np.tril(stack, -1), axis=(1, 2))
    np.einsum("kii->ki", r)[upper] = np.exp(np.einsum("kii->ki", stack)[upper])
    return r.reshape(a.shape)


def phi_matrices(a: np.ndarray, order: int) -> list[np.ndarray]:
    """Return [expm(a), phi_1(a), ..., phi_order(a)] for a square matrix or
    a stack of them on leading axes (one batched :func:`expm` call)."""
    d = a.shape[-1]
    size = d * (order + 1)
    aug = np.zeros(a.shape[:-2] + (size, size), dtype=np.promote_types(a.dtype, float))
    aug[..., :d, :d] = a
    for j in range(order):
        aug[..., j * d:(j + 1) * d, (j + 1) * d:(j + 2) * d] = np.eye(d)
    e = expm(aug)
    return [e[..., :d, j * d:(j + 1) * d] for j in range(order + 1)]


def exp_march_linear(a: np.ndarray, b: np.ndarray, u: np.ndarray, h: float) -> np.ndarray:
    """March x' = a x + b u(t) from x=0 with piecewise-linear forcing samples.

    ``u`` has shape (n, m); returns the state history with shape (n, d).
    A trailing axis, ``u`` of shape (n, m, k), marches k independent input
    columns at once and returns shape (n, d, k).
    Exact for the homogeneous part; local error O(h^3) from interpolating u.
    """
    d = a.shape[0]
    n = u.shape[0]
    out = np.zeros((n, d) + u.shape[2:], dtype=np.promote_types(np.asarray(u).dtype, a.dtype))
    if d == 0 or n == 0:
        return out
    e, p1, p2 = phi_matrices(h * a, 2)
    w_prev = h * (p1 - p2) @ b
    w_next = h * p2 @ b
    x = out[0]
    for k in range(n - 1):
        x = e @ x + w_prev @ u[k] + w_next @ u[k + 1]
        out[k + 1] = x
    return out
