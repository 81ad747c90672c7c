"""Staggered one-dimensional discretization of the spatial block operator.

Velocity and temperature unknowns live at the interior grid nodes (their
boundary values are pinned to zero and omitted, realizing the Dirichlet
closures); stress and heat flux live at the cell midpoints.  The two-point
difference matrix and its exact negative transpose make the assembled block
operator antisymmetric to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import InputError

__all__ = [
    "Grid1D",
    "DiscreteSpatialOperator",
    "build_operators",
    "mode_decomposition",
    "node_modes",
]


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on (0, L) with ``n_cells`` cells."""

    length: float
    n_cells: int

    def __post_init__(self):
        if not (self.length > 0):
            raise InputError("domain length must be positive")
        if self.n_cells < 2:
            raise InputError("need at least 2 cells")

    @property
    def h(self) -> float:
        return self.length / self.n_cells

    @property
    def n_nodes(self) -> int:
        return self.n_cells - 1

    @property
    def n_faces(self) -> int:
        return self.n_cells

    @property
    def nodes(self) -> np.ndarray:
        return self.h * np.arange(1, self.n_cells)

    @property
    def faces(self) -> np.ndarray:
        return self.h * (np.arange(self.n_cells) + 0.5)


@dataclass(frozen=True)
class DiscreteSpatialOperator:
    """Assembled antisymmetric block operator and its difference blocks."""

    grid: Grid1D
    d_grad: sp.csr_matrix
    d_div: sp.csr_matrix
    a_h: sp.csr_matrix
    node_to_face: sp.csr_matrix
    block_sizes: tuple = field(init=False)

    def __post_init__(self):
        n_nodes, n_faces = self.grid.n_nodes, self.grid.n_faces
        object.__setattr__(self, "block_sizes", (n_nodes, n_faces, n_nodes, n_faces))

    @property
    def n_dof(self) -> int:
        return sum(self.block_sizes)

    def block_slices(self) -> list:
        offsets = np.concatenate([[0], np.cumsum(self.block_sizes)])
        return [slice(int(offsets[i]), int(offsets[i + 1])) for i in range(4)]


def build_operators(grid: Grid1D) -> DiscreteSpatialOperator:
    """Two-point staggered differences with Dirichlet closures on v and theta.

    The gradient maps interior-node values to cell midpoints using zero
    boundary values; the divergence is its exact negative transpose.  The
    block operator couples (v, sigma) and (theta, q) with the signs of the
    continuous skew-selfadjoint operator.
    """
    n = grid.n_cells
    inv_h = 1.0 / grid.h
    # cell f spans nodes f and f + 1; node j is column j - 1 (j = 1..n-1), so
    # row f holds columns f - 1 and f where they exist
    indptr = np.concatenate([[0], np.arange(1, 2 * n - 2, 2), [2 * n - 2]])
    indices = np.repeat(np.arange(n - 1), 2)
    d_grad = sp.csr_matrix((np.tile([-inv_h, inv_h], n)[1:-1], indices, indptr),
                           shape=(n, n - 1))
    d_div = (-d_grad.T).tocsr()
    node_to_face = sp.csr_matrix((np.full(2 * n - 2, 0.5), indices, indptr), shape=(n, n - 1))

    grad_t = d_grad.T.tocsr()
    a_h = sp.bmat(
        [
            [None, grad_t, None, None],
            [-d_grad, None, None, None],
            [None, None, None, -grad_t],
            [None, None, d_grad, None],
        ],
        format="csr",
    )
    return DiscreteSpatialOperator(grid, d_grad, d_div, a_h, node_to_face)


def node_modes(grid: Grid1D, k) -> np.ndarray:
    """Discrete sine modes over the interior nodes (DST-I basis).

    ``node_modes(grid, k)[j - 1] = sqrt(2/n) sin(j k pi / n)`` for node
    ``j = 1..n-1``; ``k`` is a mode number in ``1..n-1`` or an array of them
    (one column each).  Every mode is positive at the first node.
    """
    n = grid.n_cells
    j = np.arange(1, n)
    return np.sqrt(2.0 / n) * np.sin(np.multiply.outer(j, k) * (np.pi / n))


def mode_decomposition(op: DiscreteSpatialOperator) -> tuple:
    """Singular triplets of the difference matrix, ascending in wavenumber.

    Returns ``(s, node_vecs, face_vecs, face_null)`` in closed form: the
    discrete sine modes ``node_vecs`` (:func:`node_modes`, positive at the
    first node), the wavenumbers ``s[k-1] = (2/h) sin(k pi / 2n)``, the
    face vectors ``face_vecs = d_grad @ node_vecs / s`` (so ``d_grad @
    node_vecs[:, k] == s[k] * face_vecs[:, k]`` exactly by construction) and
    ``face_null = 1/sqrt(n)`` spanning the complement of the gradient's
    range (the discrete constant-flux direction).
    """
    grid = op.grid
    n = grid.n_cells
    k = np.arange(1, n)
    s = (2.0 / grid.h) * np.sin(k * (np.pi / (2 * n)))
    node_vecs = node_modes(grid, k)
    face_vecs = (op.d_grad @ node_vecs) / s[None, :]
    face_null = np.full((n, 1), 1.0 / np.sqrt(n))
    return s, node_vecs, face_vecs, face_null
