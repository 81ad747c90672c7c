"""Independent spectral reference solver for constant-coefficient runs.

The discrete difference matrix is diagonalized by its singular triplets,
known in closed form (discrete sine modes, see ``mode_decomposition``);
for laws whose instantaneous block does not couple unknowns across the two
staggered location sets (no thermoelastic coupling, no flux-temperature
coupling), the semidiscrete system splits into one small dense system per
mode, and the modes differ only by their wavenumber.  The source enters
the balance equations alone (profiles with sigma or q entries are rejected),
so each profile enters through its v and theta mode coefficients; only
the forcing's amplitudes are interpolated in time, by the not-a-knot cubic
spline built in this module with one tridiagonal ``gtsv`` solve.  Every
mode takes one exponential step per marching step that integrates that
cubic exactly (phi-function weights on the spline's polynomial
coefficients, all modes from one batched ``expm``), so the reference is
exact in time up to round-off for its interpolant while sharing the
spatial discretization exactly.  Without couplings the
instantaneous block M(0) = diag(rho0, 1/C, nu, a0) is diagonal; its
vanishing entries mark the index-1 algebraic rows, whose elimination (one
stacked inverse over the modes) is folded into the phi weights; they are
recovered from the same mode coefficients of the forcing.
"""

from __future__ import annotations

import math

import numpy as np

from ._frozen import Frozen
from ._integrators import phi_matrices
from ._lapack import gtsv
from .errors import InputError, OracleRejectionError
from .evolution import FIELD_BLOCKS, EvolutionProblem, Trajectory
from .models import SPECTRAL_CUTOFF
from .rational import realize_state_space
from .signals import WeightedSignal, weighted_norm
from .spatial import mode_decomposition

__all__ = ["spectral_solve", "compare", "ComparisonResult"]


def _uniform_law(problem: EvolutionProblem):
    law = problem.law
    if not law.is_uniform():
        raise OracleRejectionError("spectral reference requires spatially constant coefficients")
    if float(law.Gamma[0]) != 0.0 or float(law.zeta0[0]) != 0.0:
        raise OracleRejectionError(
            "spectral reference requires an uncoupled instantaneous block "
            "(thermoelastic and flux-temperature couplings mix the staggered mode families)"
        )
    return law


def _mode_systems(problem: EvolutionProblem, s: np.ndarray) -> tuple:
    """``(e_matrix, k_matrix, aux_sizes)`` of the systems E y' + K_k y = g of the
    modes of wavenumber in ``s``: y holds the four field coefficients, then
    ``aux_sizes`` temperature-damping and flux-resistance states; K_k differs
    between modes only by ``s[k]`` times a fixed skew pattern."""
    law = _uniform_law(problem)
    r1 = realize_state_space(law.a1[law.a1_index[0]])
    r2 = realize_state_space(law.a2[law.a2_index[0]])
    p1, p2 = r1.n_states, r2.n_states
    d = 4 + p1 + p2

    e_mat = np.eye(d)
    e_mat[:4, :4] = law.mass[0]
    k_mat = np.zeros((d, d))
    k_mat[2, 2] = r1.d
    k_mat[3, 3] = r2.d
    k_mat[2, 4:4 + p1] = r1.c
    k_mat[4:4 + p1, 2] = -r1.b
    k_mat[4:4 + p1, 4:4 + p1] = -np.diag(r1.a)
    k_mat[3, 4 + p1:] = r2.c
    k_mat[4 + p1:, 3] = -r2.b
    k_mat[4 + p1:, 4 + p1:] = -np.diag(r2.a)
    skew = np.zeros((d, d))  # the mode's difference symbol on (v, sigma) and (theta, q)
    skew[0, 1] = skew[3, 2] = 1.0
    skew[1, 0] = skew[2, 3] = -1.0
    return e_mat, k_mat + s[:, None, None] * skew, (p1, p2)


def _not_a_knot_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients ``(4, n - 1, m)`` of the not-a-knot cubic spline through
    the rows of ``y`` (shape ``(n, m)``) at the increasing nodes ``x``.

    ``c[3 - j, i]`` is the ``(x - x[i])**j`` coefficient on interval ``i``
    (de Boor, *A Practical Guide to Splines*).  The node slopes solve one
    tridiagonal system (``gtsv``, the LAPACK routine SciPy's
    ``solve_banded`` takes for it); the arithmetic follows SciPy's
    ``CubicSpline`` operation for operation, so ``c`` equals
    ``CubicSpline(x, y).c`` bitwise.
    """
    n = x.size
    dx = np.diff(x)
    dxr = dx[:, None]
    slope = np.diff(y, axis=0) / dxr
    if n == 2:  # a straight line
        s = np.concatenate((slope, slope))
    elif n == 3:  # both end conditions coincide: the parabola through the nodes
        a = np.array([[1.0, 1.0, 0.0], [dx[1], 2 * (dx[0] + dx[1]), dx[0]], [0.0, 1.0, 1.0]])
        b = np.stack((2 * slope[0], 3 * (dxr[0] * slope[1] + dxr[1] * slope[0]), 2 * slope[1]))
        s = np.linalg.solve(a, b)
    else:
        upper, main, lower = np.zeros(n - 1), np.zeros(n), np.zeros(n - 1)
        main[1:-1] = 2 * (dx[:-1] + dx[1:])
        upper[1:] = dx[:-1]
        lower[:-1] = dx[1:]
        b = np.empty_like(y)
        b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
        d = x[2] - x[0]
        main[0], upper[0] = dx[1], d
        b[0] = ((dxr[0] + 2 * d) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / d
        d = x[-1] - x[-3]
        main[-1], lower[-1] = dx[-2], d
        b[-1] = (dxr[-1] ** 2 * slope[-2] + (2 * d + dxr[-1]) * dxr[-2] * slope[-1]) / d
        s = gtsv(lower, main, upper, b)
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    return np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1]))


def spectral_solve(problem: EvolutionProblem) -> Trajectory:
    """Reference trajectory by exponential integration of all modes at once.

    The profiles of nonzero amplitudes must live in the v and theta blocks
    only (the canonical right-hand side shape); the profiles are projected
    onto the modes once, and the amplitude columns alone are interpolated in
    time by the not-a-knot cubic spline (one ``gtsv`` call, see
    :func:`_not_a_knot_coefficients`), which every step integrates exactly.
    Algebraic unknowns (null rows of the diagonal instantaneous block) are
    eliminated by one per-mode map folded into the phi weights and recovered
    from the amplitudes and projected profiles after the march.  The reference
    is computed with floating-point warnings off; one that is not finite
    (its systems overflow, as wavenumbers near the float range make them)
    raises :class:`OracleRejectionError`.  The reference's ``aux`` is built
    from a copy of the memory states' mode coefficients on its first read.
    """
    with np.errstate(all="ignore"):
        reference = _reference(problem)
    if not (np.isfinite(reference.states.max()) and np.isfinite(reference.states.min())):
        raise OracleRejectionError("spectral reference is not finite: its mode systems overflow")
    return reference


def _reference(problem: EvolutionProblem) -> Trajectory:
    """The trajectory of :func:`spectral_solve`, unchecked."""
    op = problem.op
    y, node_vecs, face_vecs, p1 = _mode_history(problem)
    n_t = y.shape[0]
    slices = op.block_slices()
    states = np.zeros((n_t, op.n_dof))
    states[:, slices[0]] = y[:, :, 0] @ node_vecs.T
    states[:, slices[1]] = y[:, :, 1] @ face_vecs.T
    states[:, slices[2]] = y[:, :, 2] @ node_vecs.T
    states[:, slices[3]] = y[:, :, 3] @ face_vecs.T
    aux_modes = y[..., 4:].copy()  # not all of y stays alive with the trajectory

    def aux():
        history = np.zeros((n_t, problem.aux_chain.n_aux))
        split = op.grid.n_faces * (aux_modes.shape[2] - p1)
        history[:, :split] = np.einsum("tmp,fm->tfp", aux_modes[..., p1:],
                                       face_vecs).reshape(n_t, -1)
        history[:, split:] = np.einsum("tmp,nm->tnp", aux_modes[..., :p1],
                                       node_vecs).reshape(n_t, -1)
        return history

    return Trajectory(problem, states, aux)


def _mode_history(problem: EvolutionProblem) -> tuple:
    """``(y, node_vecs, face_vecs, p1)`` of the marched modes: ``y`` is
    ``(n_t, n_modes, d)``, each mode's four field coefficients, then its
    ``p1`` temperature-damping and its flux-resistance states, with the
    node and face vectors of those modes; only modes with forcing are kept."""
    op = problem.op
    wavenumbers, node_vecs, face_vecs = mode_decomposition(op)
    e_matrix, k_matrix, (p1, p2) = _mode_systems(problem, wavenumbers)
    slices = op.block_slices()
    t, amplitudes = problem.forcing.amplitudes.t, problem.forcing.amplitudes.samples
    profiles = problem.forcing.profiles
    driven = profiles[np.any(amplitudes != 0.0, axis=0)]
    if np.any(driven[:, slices[1]] != 0.0) or np.any(driven[:, slices[3]] != 0.0):
        raise OracleRejectionError(
            "spectral reference supports forcing in the v and theta blocks only"
        )
    d = 4 + p1 + p2

    # the v and theta mode coefficients of each profile, (r, n_modes, 2);
    # unforced modes stay identically zero (zero history), so march only the
    # modes whose forcing can carry more than projection round-off
    modal = np.stack((profiles[:, slices[0]] @ node_vecs,
                      profiles[:, slices[2]] @ node_vecs), axis=-1)
    peak = np.max(np.abs(amplitudes), axis=0) @ np.max(np.abs(modal), axis=2)
    active = np.flatnonzero(peak > 1e-14 * np.max(peak, initial=0.0))
    n_modes = active.size
    node_vecs = node_vecs[:, active]
    face_vecs = face_vecs[:, active]
    if n_modes == 0:
        return np.zeros((t.size, 0, d)), node_vecs, face_vecs, p1
    modal = modal[:, active]
    k_all = k_matrix[active]

    # the uncoupled instantaneous block is diagonal, so its null rows are
    # the field unknowns with a vanishing diagonal entry (aux rows never are)
    lam = np.diag(e_matrix)
    null = np.zeros(d, dtype=bool)
    null[:4] = lam[:4] <= SPECTRAL_CUTOFF * lam[:4].max()
    diff = ~null
    m_red_inv = 1.0 / lam[diff]
    try:
        k_nn_inv = np.linalg.inv(k_all[:, null][:, :, null])
    except np.linalg.LinAlgError as exc:
        raise OracleRejectionError(
            "algebraic block not invertible; the law is not index-1 reducible"
        ) from exc
    k_rn_nn = k_all[:, diff][:, :, null] @ k_nn_inv
    k_nr = k_all[:, null][:, :, diff]
    k_red = k_all[:, diff][:, :, diff] - k_rn_nn @ k_nr

    # the forcing enters rows 0 (v) and 2 (theta); with the algebraic rows
    # eliminated, one (n_diff, 2) map per mode carries it to the reduced rows
    inject = np.zeros((d, 2))
    inject[0, 0] = inject[2, 1] = 1.0
    reduce = m_red_inv[:, None] * (inject[diff] - k_rn_nn @ inject[null])

    # with forcing g(t_k + tau) = sum_j g_j tau^j on a step of length h, the
    # exact step of w' = G w + g is
    #   w(t_k + h) = E w(t_k) + sum_j j! h^(j+1) phi_(j+1)(h G) g_j
    # (Hochbruck & Ostermann, Acta Numerica 2010), that map folded in.
    h = problem.dt
    e_step, *phis = phi_matrices(h * -(m_red_inv[:, None] * k_red), 4)
    weights = np.stack([math.factorial(j) * h ** (j + 1) * phi @ reduce
                        for j, phi in enumerate(phis)], axis=1)

    # spline_c[3 - j] holds every interval's tau^j coefficient of the
    # amplitudes; through the projected profiles, weights_j take it to a drive
    n_t = t.size
    spline_c = _not_a_knot_coefficients(t, amplitudes)
    drive = np.tensordot(spline_c[::-1].transpose(1, 0, 2),
                         np.einsum("mjic,rmc->jrmi", weights, modal), axes=2)
    w_coarse = np.zeros((n_t, n_modes, m_red_inv.size))
    for k in range(n_t - 1):
        w_coarse[k + 1] = np.einsum("mij,mj->mi", e_step, w_coarse[k]) + drive[k]

    # recover the algebraic components; mode coefficients to physical unknowns
    y = np.empty((n_t, n_modes, d))
    y[..., diff] = w_coarse
    y[..., null] = np.einsum("mij,tmj->tmi", k_nn_inv,
                             np.tensordot(amplitudes, modal @ inject[null].T, axes=1)
                             - np.einsum("mij,tmj->tmi", k_nr, w_coarse))
    return y, node_vecs, face_vecs, p1


class ComparisonResult(Frozen):
    def __init__(self, per_field: dict, overall: float):
        vars(self).update(per_field=per_field, overall=overall)


def compare(traj_a: Trajectory, traj_b: Trajectory) -> ComparisonResult:
    """Relative weighted space-time errors of ``traj_a`` against ``traj_b``."""
    if traj_a.t.shape != traj_b.t.shape or not np.array_equal(traj_a.t, traj_b.t):
        raise InputError("trajectories live on different time grids")
    if traj_a.states.shape != traj_b.states.shape:
        raise InputError("trajectories have different unknown counts")
    rho = traj_a.problem.rho
    per_field = {}
    num_sq = 0.0
    den_sq = 0.0
    for name in FIELD_BLOCKS:
        a = traj_a.block(name).samples
        b = traj_b.block(name).samples
        diff = weighted_norm(WeightedSignal(traj_a.t, a - b, rho))
        ref = weighted_norm(WeightedSignal(traj_a.t, b, rho))
        num_sq += diff ** 2
        den_sq += ref ** 2
        if ref == 0.0:
            per_field[name] = 0.0 if diff == 0.0 else float("inf")
        else:
            per_field[name] = diff / ref
    overall = 0.0 if den_sq == 0.0 else float(np.sqrt(num_sq / den_sq))
    return ComparisonResult(per_field, overall)
