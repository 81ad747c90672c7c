"""Exponential integrators for small dense linear systems.

Shared by the spectral reference solver and the memory marches of ``models``.
The phi matrices follow the usual convention

    phi_0(A) = expm(A),   phi_{k+1}(z) = (phi_k(z) - 1/k!) / z,

computed in one shot through the augmented-matrix trick, which stays
accurate for singular or nearly singular arguments.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

__all__ = ["phi_matrices", "exp_march_linear"]


def phi_matrices(a: np.ndarray, order: int) -> list[np.ndarray]:
    """Return [expm(a), phi_1(a), ..., phi_order(a)] for a square matrix or
    a stack of them on leading axes (one batched ``expm`` call)."""
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
