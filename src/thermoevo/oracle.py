"""Independent spectral reference solver for constant-coefficient runs.

The discrete difference matrix is diagonalized by its singular triplets,
known in closed form (discrete sine modes, see ``mode_decomposition``);
for laws whose instantaneous block does not couple unknowns across the two
staggered location sets (no thermoelastic coupling, no flux-temperature
coupling), the semidiscrete system splits into one small dense system per
mode.  The forcing is interpolated in time by the not-a-knot cubic spline,
built in this module with one ``solve_banded`` call, and each mode takes one
exponential step per marching step that integrates that cubic exactly
(phi-function weights on the spline's polynomial coefficients), so the
reference is exact in time up to round-off for its interpolant while
sharing the spatial discretization exactly.  Index-1 algebraic rows
(degenerate instantaneous block) are eliminated through the eigenbasis
before integration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve, solve_banded

from ._integrators import phi_matrices
from .errors import InputError, OracleRejectionError
from .evolution import EvolutionProblem, Trajectory
from .models import SPECTRAL_CUTOFF
from .rational import realize_state_space
from .signals import WeightedSignal, weighted_norm
from .spatial import mode_decomposition

__all__ = ["ModeSystem", "build_mode_systems", "spectral_solve", "compare", "ComparisonResult"]

@dataclass(frozen=True)
class ModeSystem:
    """Dense per-mode system E y' + K y = g with reduction metadata.

    ``y`` holds the four field coefficients, then ``aux_sizes[0]``
    temperature-damping and ``aux_sizes[1]`` flux-resistance states.
    """

    index: int
    wavenumber: float
    e_matrix: np.ndarray
    k_matrix: np.ndarray
    constant_coefficients: bool = True
    aux_sizes: tuple = (0, 0)


def _uniform_cell(problem: EvolutionProblem):
    law = problem.law
    if not law.is_uniform():
        raise OracleRejectionError("spectral reference requires spatially constant coefficients")
    cell = law.cells[0]
    if float(cell.coupling[0, 0]) != 0.0 or float(cell.flux_coupling[0, 0]) != 0.0:
        raise OracleRejectionError(
            "spectral reference requires an uncoupled instantaneous block "
            "(thermoelastic and flux-temperature couplings mix the staggered mode families)"
        )
    return cell


def build_mode_systems(problem: EvolutionProblem) -> list:
    """Assemble the dense DAE for each discrete mode of the difference matrix."""
    return _mode_systems(problem, mode_decomposition(problem.op)[0])


def _mode_systems(problem: EvolutionProblem, s: np.ndarray) -> list:
    """:func:`build_mode_systems` on the given wavenumbers ``s``."""
    cell = _uniform_cell(problem)
    m0 = cell.mass().real
    r1 = realize_state_space(cell.theta_damping)
    r2 = realize_state_space(cell.flux_resistance)
    p1, p2 = r1.n_states, r2.n_states
    d = 4 + p1 + p2

    systems = []
    for k, wavenumber in enumerate(s):
        e_mat = np.zeros((d, d))
        e_mat[:4, :4] = m0
        e_mat[4:, 4:] = np.eye(p1 + p2)
        k_mat = np.zeros((d, d))
        k_mat[2, 2] = float(r1.d[0, 0])
        k_mat[3, 3] = float(r2.d[0, 0])
        a_k = np.array([
            [0.0, wavenumber, 0.0, 0.0],
            [-wavenumber, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, -wavenumber],
            [0.0, 0.0, wavenumber, 0.0],
        ])
        k_mat[:4, :4] += a_k
        if p1:
            k_mat[2, 4:4 + p1] = r1.c[0]
            k_mat[4:4 + p1, 2] = -r1.b[:, 0]
            k_mat[4:4 + p1, 4:4 + p1] = -r1.a
        if p2:
            k_mat[3, 4 + p1:] = r2.c[0]
            k_mat[4 + p1:, 3] = -r2.b[:, 0]
            k_mat[4 + p1:, 4 + p1:] = -r2.a
        systems.append(ModeSystem(k + 1, float(wavenumber), e_mat, k_mat,
                                  aux_sizes=(p1, p2)))
    return systems


def _not_a_knot_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients ``(4, n - 1, m)`` of the not-a-knot cubic spline through
    the rows of ``y`` (shape ``(n, m)``) at the increasing nodes ``x``.

    ``c[3 - j, i]`` is the ``(x - x[i])**j`` coefficient on interval ``i``
    (de Boor, *A Practical Guide to Splines*).  The node slopes solve one
    tridiagonal system; the arithmetic follows SciPy's ``CubicSpline``
    operation for operation, so ``c`` equals ``CubicSpline(x, y).c`` bitwise.
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
        s = solve(a, b, overwrite_a=True, overwrite_b=True, check_finite=False)
    else:
        ab = np.zeros((3, n))  # banded: upper, main and lower diagonals
        ab[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
        ab[0, 2:] = dx[:-1]
        ab[-1, :-2] = dx[1:]
        b = np.empty_like(y)
        b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
        d = x[2] - x[0]
        ab[1, 0], ab[0, 1] = dx[1], d
        b[0] = ((dxr[0] + 2 * d) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / d
        d = x[-1] - x[-3]
        ab[1, -1], ab[-1, -2] = dx[-2], d
        b[-1] = (dxr[-1] ** 2 * slope[-2] + (2 * d + dxr[-1]) * dxr[-2] * slope[-1]) / d
        s = solve_banded((1, 1), ab, b, overwrite_ab=True, overwrite_b=True,
                         check_finite=False)
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    return np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1]))


def spectral_solve(problem: EvolutionProblem) -> Trajectory:
    """Reference trajectory by per-mode exponential integration.

    The forcing must live in the v and theta blocks only (the canonical
    right-hand side shape); its per-mode coefficients are interpolated in
    time by the not-a-knot cubic spline (one ``solve_banded`` call, see
    :func:`_not_a_knot_coefficients`), which every step integrates exactly.
    Algebraic unknowns (kernel of the instantaneous block) are eliminated
    exactly and recovered after the march.
    """
    op = problem.op
    wavenumbers, node_vecs, face_vecs, _ = mode_decomposition(op)
    systems = _mode_systems(problem, wavenumbers)
    slices = op.block_slices()
    f_all = problem.forcing.samples
    if np.any(f_all[:, slices[1]] != 0.0) or np.any(f_all[:, slices[3]] != 0.0):
        raise OracleRejectionError(
            "spectral reference supports forcing in the v and theta blocks only"
        )

    p1, p2 = systems[0].aux_sizes
    d = 4 + p1 + p2

    # unforced modes stay identically zero (zero history); march only the
    # modes carrying more than projection round-off
    t = problem.forcing.t
    f_v_full = f_all[:, slices[0]] @ node_vecs
    f_th_full = f_all[:, slices[2]] @ node_vecs
    peak = max(np.max(np.abs(f_v_full), initial=0.0),
               np.max(np.abs(f_th_full), initial=0.0))
    gate = 1e-14 * peak
    active = np.flatnonzero(
        (np.max(np.abs(f_v_full), axis=0) > gate)
        | (np.max(np.abs(f_th_full), axis=0) > gate)
    )
    n_modes = active.size
    if n_modes == 0:
        return Trajectory(problem, np.zeros((t.size, op.n_dof)),
                          np.zeros((t.size, problem.aux_chain.n_aux)))
    node_vecs = node_vecs[:, active]
    face_vecs = face_vecs[:, active]
    systems = [systems[k] for k in active]

    m0 = systems[0].e_matrix[:4, :4]
    eigvals, v_basis = np.linalg.eigh(m0)
    cutoff = SPECTRAL_CUTOFF * float(eigvals[-1])
    null_mask = np.concatenate([eigvals <= cutoff, np.zeros(p1 + p2, dtype=bool)])
    diff_mask = ~null_mask
    t_full = np.eye(d)
    t_full[:4, :4] = v_basis
    lam = np.concatenate([eigvals, np.ones(p1 + p2)])

    n_null = int(np.sum(null_mask))
    n_red = d - n_null

    # per-mode reduced matrices.  With forcing g(t_k + tau) = sum_j g_j tau^j
    # on a step of length h, the exact step of w' = G w + g is
    #   w(t_k + h) = E w(t_k) + sum_j j! h^(j+1) phi_(j+1)(h G) g_j
    # (Hochbruck & Ostermann, Acta Numerica 2010).
    h = problem.dt
    poly_scale = [math.factorial(j) * h ** (j + 1) for j in range(4)]
    g_props, g_weights = [], []
    k_nn_inv, k_nr, k_rn = [], [], []
    m_red_inv = 1.0 / lam[diff_mask]
    for sys_k in systems:
        k_hat = t_full.T @ sys_k.k_matrix @ t_full
        knn = k_hat[np.ix_(null_mask, null_mask)]
        if n_null:
            try:
                knn_inv = np.linalg.inv(knn)
            except np.linalg.LinAlgError as exc:
                raise OracleRejectionError(
                    "algebraic block not invertible; the law is not index-1 reducible"
                ) from exc
        else:
            knn_inv = np.zeros((0, 0))
        krn = k_hat[np.ix_(diff_mask, null_mask)]
        knr = k_hat[np.ix_(null_mask, diff_mask)]
        k_red = k_hat[np.ix_(diff_mask, diff_mask)] - krn @ knn_inv @ knr
        g_mat = -(m_red_inv[:, None] * k_red)
        e_step, *phis = phi_matrices(h * g_mat, 4)
        g_props.append(e_step)
        g_weights.append([c * phi for c, phi in zip(poly_scale, phis)])
        k_nn_inv.append(knn_inv)
        k_nr.append(knr)
        k_rn.append(krn)
    g_props = np.stack(g_props)
    g_weights = np.array(g_weights)
    k_nn_inv = np.stack(k_nn_inv)
    k_nr = np.stack(k_nr)
    k_rn = np.stack(k_rn)

    # per-mode forcing coefficients on the coarse grid, then spline in time
    coeffs = np.zeros((t.size, n_modes, 4))
    coeffs[:, :, 0] = f_v_full[:, active]
    coeffs[:, :, 2] = f_th_full[:, active]
    spline_c = _not_a_knot_coefficients(t, coeffs.reshape(t.size, -1))

    v4 = t_full[:4, :4]

    def hat_forcing(values):  # (..., n_modes, 4) -> transformed, same shape padded to d
        hat = np.zeros(values.shape[:-1] + (d,))
        hat[..., :4] = values @ v4
        return hat

    def reduced_forcing(values):  # (..., n_modes, 4) -> (..., n_modes, n_red)
        hat = hat_forcing(values)
        g_r = hat[..., diff_mask]
        if n_null:
            g_r = g_r - np.einsum("mij,...mj->...mi", k_rn @ k_nn_inv, hat[..., null_mask])
        return m_red_inv * g_r

    n_t = t.size
    # spline_c[3 - j] holds every interval's tau^j coefficient; the forcing
    # reduction is linear, so it maps the coefficients directly
    poly = reduced_forcing(spline_c[::-1].reshape(4, n_t - 1, n_modes, 4))
    drive = np.einsum("mjil,jkml->kmi", g_weights, poly)
    w_coarse = np.zeros((n_t, n_modes, n_red))
    for k in range(n_t - 1):
        w_coarse[k + 1] = np.einsum("mij,mj->mi", g_props, w_coarse[k]) + drive[k]

    # recover algebraic components and map back to physical unknowns
    g_hat_coarse = hat_forcing(coeffs)
    y_hat = np.zeros((n_t, n_modes, d))
    y_hat[..., diff_mask] = w_coarse
    if n_null:
        g_n = g_hat_coarse[..., null_mask]
        y_n = np.einsum("mij,tmj->tmi", k_nn_inv, g_n - np.einsum("mij,tmj->tmi", k_nr, w_coarse))
        y_hat[..., null_mask] = y_n
    y_full = np.empty_like(y_hat)
    y_full[..., :4] = np.einsum("ij,tmj->tmi", v4, y_hat[..., :4])
    y_full[..., 4:] = y_hat[..., 4:]

    states = np.zeros((n_t, op.n_dof))
    states[:, slices[0]] = y_full[:, :, 0] @ node_vecs.T
    states[:, slices[1]] = y_full[:, :, 1] @ face_vecs.T
    states[:, slices[2]] = y_full[:, :, 2] @ node_vecs.T
    states[:, slices[3]] = y_full[:, :, 3] @ face_vecs.T

    aux = np.zeros((n_t, problem.aux_chain.n_aux))
    n_faces = op.grid.n_faces
    if p2:
        x2 = y_full[:, :, 4 + p1:4 + p1 + p2]
        aux[:, :n_faces * p2] = np.einsum("tmp,fm->tfp", x2, face_vecs).reshape(n_t, -1)
    if p1:
        x1 = y_full[:, :, 4:4 + p1]
        aux[:, n_faces * p2:] = np.einsum("tmp,nm->tnp", x1, node_vecs).reshape(n_t, -1)

    return Trajectory(problem, states, aux)


@dataclass(frozen=True)
class ComparisonResult:
    per_field: dict
    overall: float


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
    for name in ("v", "sigma", "theta_big", "q"):
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
