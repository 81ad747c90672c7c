"""Staggered one-dimensional discretization of the spatial block operator.

Velocity and temperature unknowns live at the interior grid nodes (their
boundary values are pinned to zero and omitted, realizing the Dirichlet
closures); stress and heat flux live at the cell midpoints.  Every operator
is a two-point difference or mean, applied in closed form; the block
operator pairs the gradient with its exact negative transpose, so it is
antisymmetric to the last bit.
"""

from __future__ import annotations

import sys

import numpy as np

from ._frozen import Frozen
from .errors import InputError
from .rational import real_array

__all__ = [
    "Grid1D",
    "DiscreteSpatialOperator",
    "build_operators",
    "mode_decomposition",
    "node_modes",
]


class Grid1D(Frozen):
    """Uniform grid on (0, L) with ``n_cells`` cells.

    ``length`` is read as a float64 (:func:`~thermoevo.rational.real_array`):
    a string, a bool, a complex or a value past the float range is refused."""

    def __init__(self, length: float, n_cells: int):
        if isinstance(n_cells, bool) or not isinstance(n_cells, (int, np.integer)):
            raise InputError(f"n_cells must be an integer, not {n_cells!r}")
        message = f"domain length must be positive and finite, not {length!r}"
        length = real_array(length, message)
        if length.ndim or not length > 0:
            raise InputError(message)
        vars(self).update(length=float(length), n_cells=n_cells)
        if self.n_cells < 2:
            raise InputError("need at least 2 cells")
        if self.n_cells > sys.float_info.max:
            raise InputError("n_cells is too large: it has no float value")
        # 1/h rounds to inf exactly when h <= 2**-1024
        if not self.h > 2.0**-1024:
            raise InputError(f"cell size L/n_cells = {self.length:g}/{self.n_cells} "
                             "is too small: its inverse is not finite")

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


class DiscreteSpatialOperator(Frozen):
    """The staggered difference and averaging operators of one grid.

    Each acts along the last axis of an array of node (or face) values, so a
    field sampled in time, ``(n_t, n_space)``, maps row by row.  Each is a
    closed-form two-point difference or mean, with zero Dirichlet values
    padded at both boundary nodes.
    """

    def __init__(self, grid: Grid1D):
        n_nodes, n_faces = grid.n_nodes, grid.n_faces
        vars(self).update(grid=grid, block_sizes=(n_nodes, n_faces, n_nodes, n_faces))

    @property
    def n_dof(self) -> int:
        return sum(self.block_sizes)

    def block_slices(self) -> list:
        offsets = np.concatenate([[0], np.cumsum(self.block_sizes)])
        return [slice(int(offsets[i]), int(offsets[i + 1])) for i in range(4)]

    def grad(self, u) -> np.ndarray:
        """Gradient at the faces, ``(u[f+1] - u[f]) / h`` of the padded node values."""
        padded = _padded(u, 1.0 / self.grid.h)
        return padded[..., 1:] - padded[..., :-1]

    def node_to_face(self, u) -> np.ndarray:
        """Mean of the two end nodes of each cell (zero at the boundary)."""
        padded = _padded(u, 0.5)
        return padded[..., :-1] + padded[..., 1:]

    def face_to_node(self, w) -> np.ndarray:
        """Transpose of :meth:`node_to_face`: the mean of each node's two faces."""
        half = 0.5 * np.asarray(w, dtype=float)
        return half[..., :-1] + half[..., 1:]


def _padded(u, scale: float) -> np.ndarray:
    """``scale * u`` between one zero at each end of the last axis."""
    u = np.asarray(u, dtype=float)
    padded = np.zeros(u.shape[:-1] + (u.shape[-1] + 2,))
    np.multiply(u, scale, out=padded[..., 1:-1])
    return padded


def build_operators(grid: Grid1D) -> DiscreteSpatialOperator:
    """Two-point staggered differences with Dirichlet closures on v and theta.

    The gradient maps interior-node values to cell midpoints using zero
    boundary values; the divergence is its exact negative transpose.  The
    block operator A_h couples (v, sigma) and (theta, q) with the signs of
    the continuous skew-selfadjoint operator; the time stepper writes its
    entries, ``+-1/h``, straight into its band.
    """
    return DiscreteSpatialOperator(grid)


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

    Returns ``(s, node_vecs, face_vecs)`` in closed form: the wavenumbers
    ``s[k-1] = (2/h) sin(k pi / 2n)``, the discrete sine modes
    ``node_vecs`` (:func:`node_modes`, positive at the first node) and the
    face vectors ``face_vecs[:, k] = grad(node_vecs[:, k]) / s[k]`` (so the
    gradient of each node mode is ``s[k]`` times its face vector, exactly by
    construction).
    """
    grid = op.grid
    n = grid.n_cells
    k = np.arange(1, n)
    s = (2.0 / grid.h) * np.sin(k * (np.pi / (2 * n)))
    node_vecs = node_modes(grid, k)
    face_vecs = np.ascontiguousarray(op.grad(node_vecs.T).T) / s[None, :]
    return s, node_vecs, face_vecs
