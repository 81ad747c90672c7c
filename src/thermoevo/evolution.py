"""Causal time integration of the assembled space-time system.

The semidiscrete system couples the instantaneous block under the time
derivative, the zero-order rational block realized through auxiliary
states, and the antisymmetric spatial operator:

    M_h dU/dt + D_h U + C x + A_h U = F(t),      dx/dt = P x + B U,

marched from zero history by one theta-scheme step (Hairer & Wanner,
Solving ODEs II, IV.3) of the augmented state z = (U, x): backward Euler is
theta = 1, the trapezoidal rule theta = 1/2.  Every block couples only
neighbouring cells, and each auxiliary state (one simple pole) only its
owner unknown, so with the unknowns ordered cell by cell and each auxiliary
state placed just before its owner, the step matrix is a band.  The march
carries w = L u in place of u, where M = L^T diag(D) L and L^-1 = I - N
exactly (:class:`_Congruence`): there the instantaneous block is the
diagonal D, so the step matrix is D/dt plus the congruent of the other
blocks, written entry by entry from their closed forms and N's, and a
step's right-hand side is a diagonal scaling plus the forcing, with no
banded product.  One banded LU of the congruent step matrix is reused
across steps: without pivoting where the step matrix is certified for it
(:class:`_ImplicitStepper`), so a solve is two triangular sweeps, and with
partial pivoting otherwise.
"""

from __future__ import annotations

import os
from functools import cached_property
from pathlib import Path

import numpy as np

from . import _lapack
from ._frozen import Frozen
from .errors import ArtifactWriteError, InputError, SingularSystemError
from .forcing import Forcing
from .models import COEFFICIENTS, MaterialLaw, compute_entropy, recover_theta
from .rational import realize_state_space
from .signals import (CHUNK_VALUES, WeightedSignal, _tables, map_row_chunks, row_peaks,
                      weighted_norm, write_csv)
from .spatial import DiscreteSpatialOperator
from .wellposed import WellPosednessReport, check_symbol_boundary

__all__ = [
    "EvolutionProblem",
    "Trajectory",
    "step_implicit",
    "solve",
    "energy_functional",
    "causality_test",
    "solution_bound_check",
    "CausalityResult",
    "BoundCheckResult",
    "BACKWARD_EULER",
    "TRAPEZOIDAL",
]

BACKWARD_EULER = "backward_euler"
TRAPEZOIDAL = "trapezoidal"

#: implicit weight of each scheme's theta-scheme step
_THETA = {BACKWARD_EULER: 1.0, TRAPEZOIDAL: 0.5}

FIELD_BLOCKS = ("v", "sigma", "theta_big", "q")


def __getattr__(name):
    # bench/tracer.py still wraps ``evolution.splu`` as its factorization span
    # until the benchmark moves that hook (ROADMAP item 6); import it only
    # when looked up, so that no untraced run loads scipy
    if name == "splu":
        from scipy.sparse.linalg import splu
        return splu
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _AuxChain(Frozen):
    """Diagonal realization states attached to individual unknowns."""

    def __init__(self, poles: np.ndarray, gain_in: np.ndarray, gain_out: np.ndarray,
                 owner: np.ndarray):
        vars(self).update(
            poles=poles,        # (n_aux,)
            gain_in=gain_in,    # (n_aux,) input weight on the owner unknown
            gain_out=gain_out,  # (n_aux,) output weight back onto the owner row
            owner=owner,        # (n_aux,) global dof indices
        )

    @property
    def n_aux(self) -> int:
        return self.poles.size


class _Congruence(Frozen):
    """The unit triangular factor L = I + N of the instantaneous block
    M = L^T diag(D) L, the march's basis (:class:`_ImplicitStepper`).

    N's only entries put ``half_gamma[f]`` (sigma rows) and ``half_zeta[f]``
    (q rows) on the two temperature nodes of face f, node j having face j
    on its left and face j + 1 on its right; so N^2 = 0 and L^-1 = I - N
    exactly.  ``sigma``, ``theta`` and ``q`` are the positions of those
    unknowns (block slices) along the last axis of the rows that the maps
    change in place.  Where N is zero every map leaves its rows untouched,
    signed zeros included.
    """

    def __init__(self, half_gamma: np.ndarray, half_zeta: np.ndarray, diagonal: np.ndarray,
                 sigma: slice, theta: slice, q: slice):
        vars(self).update(
            half_gamma=half_gamma,  # (n_cells,)
            half_zeta=half_zeta,    # (n_cells,)
            diagonal=diagonal,      # (n_dof,) D in block order
            sigma=sigma, theta=theta, q=q,
        )

    @cached_property
    def identity(self) -> bool:
        return not (np.any(self.half_gamma) or np.any(self.half_zeta))

    def by_row(self, positions: np.ndarray, n: int) -> list:
        """N by rows over an order of ``n`` positions that puts block-order
        dof i at ``positions[i]``: one ``(cols, values)`` pair for the left
        and one for the right end of each face, row i holding ``values[i]``
        at column ``cols[i]`` (a zero where it holds none)."""
        pairs = []
        for faces in (slice(1, None), slice(None, -1)):  # face j + 1, face j of node j
            cols, values = np.zeros(n, dtype=np.intp), np.zeros(n)
            for at, half in ((self.sigma, self.half_gamma), (self.q, self.half_zeta)):
                cols[positions[at][faces]] = positions[self.theta]
                values[positions[at][faces]] = half[faces]
            pairs.append((cols, values))
        return pairs

    def _lower(self, rows, add) -> np.ndarray:
        if not self.identity:
            theta = rows[..., self.theta]
            # theta_{f-1} + theta_f on face f: node j is the right end of
            # face j + 1 and the left end of face j
            faces = np.empty(theta.shape[:-1] + (theta.shape[-1] + 1,))
            faces[..., 0], faces[..., -1] = theta[..., 0], theta[..., -1]
            np.add(theta[..., :-1], theta[..., 1:], out=faces[..., 1:-1])
            for at, half in ((self.sigma, self.half_gamma), (self.q, self.half_zeta)):
                add(rows[..., at], half * faces, out=rows[..., at])
        return rows

    def lower(self, rows) -> np.ndarray:
        """``rows`` <- L ``rows``."""
        return self._lower(rows, np.add)

    def lower_inverse(self, rows) -> np.ndarray:
        """``rows`` <- L^-1 ``rows`` = ``rows - N rows``."""
        return self._lower(rows, np.subtract)

    def lower_inverse_transpose(self, rows) -> np.ndarray:
        """``rows`` <- L^-T ``rows`` = ``rows - N^T rows``: only the
        temperature unknowns change."""
        if not self.identity:
            faces = self.half_gamma * rows[..., self.sigma]
            faces += self.half_zeta * rows[..., self.q]
            rows[..., self.theta] -= faces[..., :-1] + faces[..., 1:]
        return rows


class EvolutionProblem(Frozen):
    """Material law, spatial operator, forcing and scheme for one run.

    The forcing's profiles span all block unknowns (components ordered v,
    sigma, theta_big, q); its amplitudes' uniform grid, starting at t = 0, is
    the run's, and their weight the run weight used for all norm accounting.
    A problem is immutable, so the pieces it caches (its stepper, its
    realizations, its congruence) always belong to its fields.
    """

    def __init__(self, law: MaterialLaw, op: DiscreteSpatialOperator, forcing: Forcing,
                 scheme: str = BACKWARD_EULER):
        vars(self).update(law=law, op=op, forcing=forcing, scheme=scheme)
        if scheme not in (BACKWARD_EULER, TRAPEZOIDAL):
            raise InputError(f"unknown scheme '{scheme}'")
        if forcing.profiles.shape[1] != op.n_dof:
            raise InputError(
                f"forcing has {forcing.profiles.shape[1]} components, "
                f"operator has {op.n_dof} unknowns"
            )
        if forcing.amplitudes.t[0] != 0:
            raise InputError("the time grid must start at t = 0 (zero history)")
        n = op.grid.n_cells
        if law.n_cells not in (1, n):
            raise InputError(f"law has {law.n_cells} cells, grid has {n}")
        if np.any(law.n0 != law.n0[0]) or np.any(law.a1_index != law.a1_index[0]):
            raise InputError(
                "per-cell variation of the temperature damping term is not supported"
            )

    @property
    def dt(self) -> float:
        return self.forcing.amplitudes.dt

    @property
    def rho(self) -> float:
        return self.forcing.amplitudes.rho

    @property
    def theta(self) -> float:
        """Implicit weight of the scheme's theta-scheme step."""
        return _THETA[self.scheme]

    @property
    def n_steps(self) -> int:
        return self.forcing.amplitudes.t.size - 1

    # -- assembled pieces ---------------------------------------------------

    @cached_property
    def node_coeffs(self) -> dict:
        """Cellwise coefficients sampled at node dofs (adjacent-cell mean)."""
        return {k: 0.5 * (v[:-1] + v[1:]) for k, v in self.face_coeffs.items()}

    @cached_property
    def face_coeffs(self) -> dict:
        """The law's coefficient arrays (:data:`~thermoevo.models.COEFFICIENTS`)
        over the grid's cells, that is at the face dofs."""
        return {name: np.broadcast_to(getattr(self.law, name), self.op.grid.n_cells)
                for name in COEFFICIENTS}

    @cached_property
    def _congruence(self) -> _Congruence:
        """The congruence factor L of the instantaneous block in block order."""
        face, node = self.face_coeffs, self.node_coeffs
        _, sigma, theta, q = self.op.block_slices()
        return _Congruence(0.5 * face["Gamma"], 0.5 * face["zeta0"],
                           np.concatenate([node["rho0"], 1.0 / face["C"], node["nu"], face["a0"]]),
                           sigma, theta, q)

    @cached_property
    def _realizations(self) -> tuple:
        """Feedthrough diagonal and aux chains for the zero-order block; each
        distinct law is realized once."""
        op, law = self.op, self.law
        sl = op.block_slices()
        # owner dofs and laws: flux resistance per face, then temperature damping per node
        owner = sl[3].start + np.arange(op.grid.n_cells)
        damping = law.a1[law.a1_index[0]]
        damped = np.any(damping.num)
        distinct = realize_state_space(law.a2 + ((damping,) if damped else ()))
        reals = [distinct[k] for k in np.broadcast_to(law.a2_index, owner.size)]
        if damped:
            owner = np.concatenate([owner, sl[2].start + np.arange(op.grid.n_nodes)])
            reals += [distinct[-1]] * op.grid.n_nodes
        feed = np.zeros(op.n_dof)
        feed[owner] = [real.d for real in reals]
        chain = _AuxChain(
            np.concatenate([real.a for real in reals]),
            np.concatenate([real.b for real in reals]),
            np.concatenate([real.c for real in reals]),
            np.repeat(owner, [real.n_states for real in reals]),
        )
        return feed, chain

    @property
    def feedthrough(self) -> np.ndarray:
        return self._realizations[0]

    @property
    def aux_chain(self) -> _AuxChain:
        return self._realizations[1]

    @cached_property
    def _stepper(self) -> "_ImplicitStepper":
        return _ImplicitStepper(self)


def _cell_positions(op: DiscreteSpatialOperator) -> tuple:
    """Cell-order positions of the v, sigma, theta_big and q unknowns.

    Cell j holds sigma_j, q_j, v_j, theta_j at 4j .. 4j + 3 (node j + 1 is
    its right end); the last cell has only sigma and q.  Every coupling of
    A_h, D and M then lies within four places of the diagonal."""
    nodes, faces = 4 * np.arange(op.grid.n_nodes), 4 * np.arange(op.grid.n_cells)
    return nodes + 2, faces, nodes + 3, faces + 1


def skew_entries(op: DiscreteSpatialOperator) -> tuple:
    """The entries ``(rows, cols, values)`` of the block operator A_h in
    block order, one per position and none on the diagonal.

    ``A_h[v, sigma] = grad^T`` and ``A_h[theta, q] = -grad^T``, each with the
    negated transpose below: every node unknown j meets the faces j and
    j + 1 with ``+-1/h``, so ``A_h^T = -A_h`` bit for bit.
    """
    inv_h = np.full(op.grid.n_nodes, 1.0 / op.grid.h)
    v, sigma, theta, q = (np.arange(at.start, at.stop) for at in op.block_slices())
    # v and theta against sigma and q on each node's left and right faces
    node_rows = [(v, sigma[:-1], inv_h), (v, sigma[1:], -inv_h),
                 (theta, q[:-1], -inv_h), (theta, q[1:], inv_h)]
    entries = [*node_rows, *((col, row, -val) for row, col, val in node_rows)]
    return tuple(np.concatenate(part) for part in zip(*entries))


def _band_storage(diagonal: np.ndarray, rows, cols, values) -> tuple:
    """``(k, ab)``: ``diag(diagonal)`` plus the entries ``(rows, cols,
    values)``, repeats summed, in LAPACK band storage with the k sub- and
    super-diagonals the entries reach: entry (i, j) at ``[k + i - j, j]``,
    Fortran-ordered so BLAS reads it in place."""
    n = diagonal.size
    k = int(np.max(np.abs(rows - cols), initial=0))
    at = np.concatenate([(k + rows - cols) + (2 * k + 1) * cols, k + (2 * k + 1) * np.arange(n)])
    ab = np.bincount(at, np.concatenate([values, diagonal]), minlength=(2 * k + 1) * n)
    return k, ab.reshape((-1, n), order="F")


#: the exponent budget of :func:`_lu_unpivoted`: no entry is scaled by more
#: than 2^256 either way
_SCALE_BUDGET = 256


def _lu_unpivoted(ab: np.ndarray, k: int):
    """The LU factorization without pivoting of the band matrix held in rows
    ``k:`` of ``ab`` (``gbtrf`` layout: ``3k + 1`` rows, k sub- and
    super-diagonals), which it overwrites: U in rows ``k:2k + 1`` and the
    multipliers of the unit lower factor in rows ``2k + 1:``.  None, with
    ``ab`` spoiled, where partial pivoting would swap rows, a pivot is zero
    or an entry is not finite.

    ``gbtrf`` factorizes D A D^-1 with D = diag(2^(-s i)), whose entry
    (i, j) is a_ij 2^(-s (i - j)), exact for a normal result.  Partial
    pivoting then keeps each diagonal pivot unless a multiplier l_ij of A's
    own unpivoted LU exceeds 2^(s (i - j)) in magnitude.  Where no row is
    swapped, the factors are D L D^-1 and D U D^-1, and scaling them back
    is exact too.  With ``max |a_ij|`` within 2^(+-512), no entry overflows,
    and one that underflows is changed by less than 2^-300 ``max |a_ij|``.
    """
    n = ab.shape[1]
    if not 2.0 ** -512 < max(ab.max(), -ab.min()) < 2.0 ** 512:
        return None
    exponents = max(1, _SCALE_BUDGET // max(k, 1)) * (np.arange(3 * k + 1) - 2 * k)[:, None]
    np.ldexp(ab, -exponents, out=ab)  # row r holds the offset i - j = r - 2k
    lu, piv, info = _lapack.gbtrf(ab, k, k)
    if info or not np.array_equal(piv, np.arange(1, n + 1)):
        return None
    np.ldexp(lu, exponents, out=lu)
    return lu if np.all(np.isfinite(lu)) else None


class _ImplicitStepper:
    """One factorized theta-scheme step of the augmented state z = (u, x),
    reused across the march, taken in the congruence basis w = T z.

    The memory states x are unknowns of the band: with E = blockdiag(M, I)
    and J = [[A_h + diag(D), C], [-B, -P]], a step solves

        (E/dt + theta J) z+ = (E/dt - (1-theta) J) z + theta f+ + (1-theta) f,

    its x rows multiplied by dt, so that the row of state i reads
    (1 - theta dt p_i) x_i+ - theta dt b_i u+ = (1 + (1-theta) dt p_i) x_i
    + (1-theta) dt b_i u at its owner dof.  Eliminating x gives the step
    matrix M/dt + K_theta, K_theta = theta (A_h + diag(D)) + diag(theta^2 dt
    C (I - theta dt P)^-1 B), and its right-hand side.

    z runs in the cell order of :func:`_cell_positions` with each memory
    state placed just before its owner dof (an owner repeats when its law has
    several poles): ``u_at`` and ``x_at`` give the z position of each
    block-order dof and of each memory state, and ``inv`` the cell-order
    position of each block-order dof.

    With T = blockdiag(L, I), L the congruence factor of M
    (:class:`_Congruence`), the march carries w = T z.  The instantaneous
    block becomes the diagonal ``c = (D/dt, 1)`` = T^-T (E/dt) T^-1 (the x
    rows times dt), and the step matrix ``step_band`` = T^-T (E/dt + theta
    J) T^-1 is ``diag(c) + theta T^-T J T^-1``, a band with ``band`` sub-
    and super-diagonals, formed from the closed-form entries of J
    (:func:`skew_entries`, the feedthrough and the memory states') and of
    N, two per sigma or q row (:func:`_congruent`), never as a dense
    matrix.  Backward Euler solves ``step_band w+ = c w + L^-T f+``; the
    trapezoidal rule, in its implicit-midpoint form, ``step_band s = 2 c w
    + L^-T (f+ + f)/2`` and sets ``w+ = s - w``.  A step is thus one
    scaling, one sum, the solve and one copy or difference: no banded
    product.

    The step matrix is factorized once.  Where every x pivot
    ``1 - theta dt p_i`` is positive and the symmetric part of the step
    matrix on u, ``M/dt + theta (diag(D) + the memory states' diagonal)``,
    is positive definite (:meth:`_positive_definite`, which judges it in
    the congruence basis; a congruence keeps it so), an LU without
    pivoting is stable (Golub & Van Loan, on matrices with a positive
    definite symmetric part): the x columns come first, so it leaves the
    step matrix of u alone, and each solve is two triangular sweeps
    (``tbsv``) on the factors (:func:`_lu_unpivoted`).  Otherwise, or
    where that LU meets a zero or non-finite pivot, ``gbtrf`` factorizes the
    same band with partial pivoting (``pivoted``) and ``gbtrs`` solves.

    The solve is bound here, once, to the work vector ``rhs``
    (:mod:`thermoevo._lapack`), which it overwrites with its solution; ``w``
    is the state a step starts from.  So a stepper takes one step at a
    time, never two at once from different threads.
    """

    def __init__(self, problem: EvolutionProblem):
        self.theta = theta = problem.theta
        self.dt = dt = problem.dt
        self.chain = chain = problem.aux_chain
        # inv maps each block-order dof to its cell-order position
        self.inv = np.concatenate(_cell_positions(problem.op))
        n_u, n_z = self.inv.size, self.inv.size + chain.n_aux
        # the z position of each cell-order dof and each memory state: the
        # states of an owner, consecutive in the chain, sit just before it
        owner = self.inv[chain.owner]
        counts = np.bincount(owner, minlength=n_u)
        cell_at = np.arange(n_u) + np.cumsum(counts)
        index = np.arange(chain.n_aux)
        first = np.maximum.accumulate(
            np.where(np.concatenate([[True], owner[1:] != owner[:-1]]), index, 0))
        self.x_at = cell_at[owner] - counts[owner] + index - first
        self.u_at = cell_at[self.inv]
        owner = cell_at[owner]

        # the entries (rows, cols, values) of theta J over z, its x rows
        # times dt: A_h + diag(D), then the memory states'
        rows, cols, values = skew_entries(problem.op)
        x_diagonal, x_input = dt * chain.poles, dt * chain.gain_in
        entries = [(self.u_at[rows], self.u_at[cols], theta * values),
                   (self.u_at, self.u_at, theta * problem.feedthrough),
                   (self.x_at, self.x_at, -theta * x_diagonal),
                   (self.x_at, owner, -theta * x_input),
                   (owner, self.x_at, theta * chain.gain_out)]
        congruence = problem._congruence
        # T^-T (E/dt) T^-1 is the diagonal c; theta J is structurally
        # symmetric, and so is its congruent
        c = np.ones(n_z)
        c[self.u_at] = congruence.diagonal / dt
        band, step_band = _band_storage(c, *_congruent(
            *(np.concatenate(part) for part in zip(*entries)), congruence.by_row(self.u_at, n_z)))
        step_band.flags.writeable = False
        self.band, self.step_band = band, step_band
        self.c = c / theta  # c, or the midpoint form's 2 c: exact
        self.w, self.rhs = np.zeros(n_z), np.zeros(n_z)
        ab = np.zeros((3 * band + 1, n_z), order="F")
        lu = None
        if np.all(theta * x_diagonal < 1.0) and self._positive_definite(problem):
            ab[band:] = step_band
            lu = _lu_unpivoted(ab, band)
        self.pivoted = lu is None
        if self.pivoted:
            ab[:band] = 0.0
            ab[band:] = step_band
            lu, piv, info = _lapack.gbtrf(ab, band, band)
            if info > 0:
                raise SingularSystemError(
                    f"step matrix not invertible at dt={dt:g}: zero pivot {info}"
                )
            self.solve = _lapack.gbtrs(lu, piv, band, band, self.rhs)
        else:
            lower = _lapack.tbsv(lu[2 * band:], band, True, self.rhs)
            upper = _lapack.tbsv(lu[band:2 * band + 1], band, False, self.rhs)

            def solve():
                lower()
                upper()

            self.solve = solve

    def _positive_definite(self, problem) -> bool:
        """Whether the symmetric part of the step matrix on u, ``M/dt + theta
        (diag(D) + the memory states' diagonal)``, is positive definite.

        It is judged over z on ``diag(c) / theta + T^-T (diag(D) + the memory
        states' diagonal) T^-1``: on u, its congruent over theta; on x, a
        positive diagonal.  A symmetric matrix is positive definite where
        its LU without pivoting has positive pivots only
        (:func:`_lu_unpivoted`, which reuses ``gbtrf``)."""
        theta, dt, chain, at = self.theta, self.dt, self.chain, self.u_at
        memory = theta * dt * chain.gain_out * chain.gain_in / (1.0 - theta * dt * chain.poles)
        owners = np.concatenate([at, at[chain.owner]])
        band, symmetric = _band_storage(self.c, *_congruent(
            owners, owners, np.concatenate([problem.feedthrough, memory]),
            problem._congruence.by_row(at, self.c.size)))
        ab = np.zeros((3 * band + 1, self.c.size), order="F")
        ab[band:] = symmetric
        lu = _lu_unpivoted(ab, band)
        return lu is not None and bool(np.all(lu[2 * band] > 0.0))

    def march(self, forcing, out) -> None:
        """Steps from the state ``w`` under each row of ``forcing`` in turn,
        the z-order ``L^-T (theta f+ + (1-theta) f)`` (:meth:`mix`), writing
        each new state to the next row of ``out``; ``w`` becomes the last."""
        c, rhs, solve, w = self.c, self.rhs, self.solve, self.w
        midpoint = self.theta != 1.0
        for row, new in zip(forcing, out):
            np.multiply(c, w, out=rhs)
            rhs += row
            solve()
            if midpoint:
                np.subtract(rhs, w, out=new)
            else:
                new[:] = rhs
            w = new
        self.w = w

    def mix(self, f_next, f_n) -> np.ndarray:
        """``theta f+ + (1-theta) f`` of block-order or row-stacked forcing;
        backward Euler does not read ``f_n``."""
        if self.theta == 1.0:
            return f_next
        mixed = self.theta * f_next
        mixed += (1.0 - self.theta) * f_n
        return mixed

    @cached_property
    def _aux_update(self) -> tuple:
        """(decay, growth, input) of :meth:`next_aux`."""
        theta, dt, chain = self.theta, self.dt, self.chain
        return (1.0 / (1.0 - theta * dt * chain.poles), 1.0 + (1.0 - theta) * dt * chain.poles,
                dt * chain.gain_in)

    def next_aux(self, x_n, u_next, u_n):
        """The memory states after a step from ``x_n``, given the block-order
        states at both ends of the step (backward Euler does not read
        ``u_n``): the x rows of the step solved for x+ alone."""
        decay, grow, gain = self._aux_update
        mixed = u_next[self.chain.owner]
        if self.theta != 1.0:
            mixed = self.theta * mixed + (1.0 - self.theta) * u_n[self.chain.owner]
        return decay * (grow * x_n + gain * mixed)

    def aux_history(self, states) -> np.ndarray:
        """The memory states along the block-order ``states`` of a march from
        zero history: :meth:`next_aux` replayed row by row.  The march solves
        them inside the band, in another order of operations, so the two
        agree to rounding, not to the bit."""
        aux = np.zeros((states.shape[0], self.chain.n_aux))
        for k in range(1, states.shape[0]):
            aux[k] = self.next_aux(aux[k - 1], states[k], states[k - 1])
        return aux


def _congruent(rows, cols, values, n_by_row) -> tuple:
    """The entries ``(rows, cols, values)`` of T^-T A T^-1, T^-1 = I - N,
    from those of A and N by rows (:meth:`_Congruence.by_row`); entries at
    one position are to be summed.  A T^-1 = A - A N: column t gains
    ``-A[:, k] N[k, t]``; then T^-T (A T^-1) gains ``-N[k, t]`` times row k
    of A T^-1 on row t."""
    for by_rows in (False, True):
        key = rows if by_rows else cols
        parts = [(rows, cols, values)]
        for n_cols, n_values in n_by_row:
            hit = np.flatnonzero(n_values[key])
            moved = n_cols[key[hit]]
            scaled = -(values[hit] * n_values[key[hit]])
            parts.append((moved, cols[hit], scaled) if by_rows else (rows[hit], moved, scaled))
        rows, cols, values = (np.concatenate(part) for part in zip(*parts))
    return rows, cols, values


def step_implicit(problem: EvolutionProblem, u_n, x_n, f_next, f_n):
    """Advance one implicit step in block order from the forcing at both ends
    (backward Euler does not read ``f_n``); the factorization is cached.
    The step maps ``u_n`` to ``L u_n`` (:class:`_Congruence`) and the new
    state back, so a chain of steps equals :func:`solve`, which carries
    ``L u``, to rounding past its first step, and bitwise where L = I."""
    stepper = problem._stepper
    congruence = problem._congruence
    forcing = np.zeros(stepper.rhs.size)
    # copies of f_next and u_n: the maps work in place
    forcing[stepper.u_at] = congruence.lower_inverse_transpose(
        stepper.mix(np.array(f_next, dtype=float), np.asarray(f_n, dtype=float)))
    w = np.zeros(stepper.rhs.size)
    w[stepper.u_at] = congruence.lower(np.array(u_n, dtype=float))
    w[stepper.x_at] = x_n
    stepper.w = w
    with np.errstate(over="ignore", invalid="ignore"):  # as BLAS, which never warns
        stepper.march(forcing[None], np.empty((1, w.size)))
        w = stepper.w
        return congruence.lower_inverse(w[stepper.u_at]), w[stepper.x_at]


class Trajectory:
    """Solved block states plus the history of the auxiliary realization states.

    ``states`` is ``(n_t, n_dof)``.  ``aux``, the ``(n_t, n_aux)`` history, is
    given either as an array or as a function of no arguments that returns
    one; :func:`solve` and :func:`~thermoevo.oracle.spectral_solve` give a
    function, so the history is built once, on its first read, and not at
    all by a run that never reads it.  A marched trajectory's history is a
    replay over ``states`` (:meth:`_ImplicitStepper.aux_history`): equal to
    the memory states of the march to rounding, not to the bit.
    """

    def __init__(self, problem: EvolutionProblem, states: np.ndarray, aux):
        self.problem = problem
        self.states = states
        self._aux = aux

    @property
    def aux(self) -> np.ndarray:
        if callable(self._aux):
            self._aux = self._aux()
        return self._aux

    @property
    def t(self) -> np.ndarray:
        return self.problem.forcing.amplitudes.t

    def block(self, name: str) -> WeightedSignal:
        sl = self.problem.op.block_slices()[FIELD_BLOCKS.index(name)]
        return WeightedSignal(self.t, self.states[:, sl], self.problem.rho)

    def displacement(self) -> WeightedSignal:
        """Scheme-consistent causal antiderivative: the theta-weighted cumulative sum of v."""
        v = self.block("v").samples
        theta = self.problem.theta
        u = np.zeros_like(v)
        u[1:] = self.problem.dt * np.cumsum(theta * v[1:] + (1.0 - theta) * v[:-1], axis=0)
        return WeightedSignal(self.t, u, self.problem.rho)

    def strain(self) -> WeightedSignal:
        return self._strain(self.displacement())

    def _strain(self, u: WeightedSignal) -> WeightedSignal:
        """The strain of the displacement ``u`` of this trajectory."""
        return u.with_samples(self.problem.op.grad(u.samples))

    def theta(self) -> WeightedSignal:
        return recover_theta(self.block("theta_big"), float(self.problem.law.n0[0]))

    def entropy(self) -> WeightedSignal:
        """Entropy at the interior nodes (uniform laws only)."""
        if not self.problem.law.is_uniform():
            raise InputError("entropy export supports uniform laws only")
        return self._entropy(self.strain())

    def _entropy(self, strain: WeightedSignal) -> WeightedSignal:
        """The entropy of this trajectory, whose strain is ``strain``."""
        face_to_node = self.problem.op.face_to_node
        eps_nodes = face_to_node(strain.samples)
        q_nodes = face_to_node(self.block("q").samples)
        rho = self.problem.rho
        return compute_entropy(
            self.problem.law,
            WeightedSignal(self.t, eps_nodes, rho),
            self.block("theta_big"),
            WeightedSignal(self.t, q_nodes, rho),
        )

    def space_time_norm(self) -> float:
        """Weighted space-time norm (h-weighted in space) of the states."""
        sig = WeightedSignal(self.t, self.states, self.problem.rho)
        return float(np.sqrt(self.problem.op.grid.h) * weighted_norm(sig))

    def export_csv(self, directory) -> list:
        """One CSV per field (primary and derived) plus the energy series.

        The displacement is computed once, and the strain and the entropy
        are derived from it.  The tables are dealt into one share per available CPU (:func:`_deal`);
        this process writes the first share and a forked writer each other
        one, so every file is written whole by one process with the bytes of
        :func:`write_csv`.  The paths are returned once every writer has
        exited.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        fields = {name: self.block(name) for name in FIELD_BLOCKS}
        fields["u"] = self.displacement()
        fields["epsilon"] = self._strain(fields["u"])
        fields["theta"] = self.theta()
        if self.problem.law.is_uniform():
            fields["eta"] = self._entropy(fields["epsilon"])
        jobs = [(directory / f"{name}.csv",
                 ["t", *(f"x_{i}" for i in range(signal.n_components))], signal.samples)
                for name, signal in fields.items()]
        jobs.append((directory / "energy.csv", ["t", "energy"], energy_functional(self)))
        # write_csv writes an all-zero table in about an eighth of the time of
        # a nonzero one of its size, at the benchmark's sizes
        shares = _deal([values.size + 7 * np.count_nonzero(values) for _, _, values in jobs],
                       _writer_count())
        _write_shares(self.t, jobs, shares)
        return [path for path, _, _ in jobs]


def _writer_count() -> int:
    """CSV writer processes: one per CPU this process may run on, or one
    where the platform cannot fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _deal(weights, n_shares: int) -> list:
    """Indices of ``weights`` dealt into at most ``n_shares`` non-empty shares:
    largest weight first (ties in order), each to the share of least load,
    then of fewest items, then the first."""
    shares = [[] for _ in range(max(1, min(n_shares, len(weights))))]
    loads = [0] * len(shares)
    for i in sorted(range(len(weights)), key=lambda i: -weights[i]):
        k = min(range(len(shares)), key=lambda k: (loads[k], len(shares[k])))
        shares[k].append(i)
        loads[k] += weights[i]
    return shares


def _write_tables(t, jobs) -> None:
    for path, columns, values in jobs:
        try:
            write_csv(path, columns, t, values)
        except OSError as exc:
            raise ArtifactWriteError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_shares(t, jobs, shares) -> None:
    """Write the ``jobs`` of ``shares[0]`` here and each other share in a
    forked writer; return, or raise the first writer's failure, only after
    every writer has been reaped."""
    _tables()  # the CSV encoder's tables, built here once for every writer to inherit
    local = list(shares[0])
    writers = []  # (pid, read end of the pipe carrying its failure, its share)
    try:
        for share in shares[1:]:
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: this share is written here
                os.close(read_end)
                os.close(write_end)
                local.extend(share)
                continue
            if pid == 0:  # the writer: its own share, and out through os._exit on every path
                status = 1
                try:
                    _write_tables(t, [jobs[i] for i in share])
                    status = 0
                except Exception as exc:
                    os.write(write_end, str(exc).encode())
                finally:
                    os._exit(status)
            os.close(write_end)
            writers.append((pid, read_end, share))
        _write_tables(t, [jobs[i] for i in local])
    finally:
        failures = [_reap(pid, read_end, [jobs[i][0] for i in share])
                    for pid, read_end, share in writers]
    for message in failures:
        if message:
            raise ArtifactWriteError(message)


def _reap(pid: int, read_end: int, paths) -> str:
    """Wait for one writer: '' when it wrote all of ``paths``, else why not."""
    with os.fdopen(read_end, "rb") as pipe:
        message = pipe.read().decode(errors="replace")
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status and not message:
        message = f"the writer of {', '.join(map(str, paths))} exited with status {status}"
    return message


def solve(problem: EvolutionProblem) -> Trajectory:
    """March the implicit scheme from zero initial data over the grid.

    The forcing's profiles are mapped by L^-T and spread to the z order of
    :class:`_ImplicitStepper` once; each row chunk of the forcing is then
    its amplitudes times those profiles, mixed as ``theta f+ + (1-theta) f``.
    That equals mapping each chunk's forcing by L^-T bitwise where L^-T
    leaves the profile rows alone (no sigma or q entries, as in every CLI
    forcing, or L = I), and to rounding where a profile with sigma or q
    entries meets a coupled law.  The marched states of a chunk, w = T z,
    are gathered into ``states`` in block order and mapped back by
    u = w - N w; ``states`` is read-only.  Only the current memory states
    are carried through the march, inside w; the trajectory's ``aux``
    replays their update over the stored states on its first read
    (:meth:`_ImplicitStepper.aux_history`).  A march whose state overflows
    raises :class:`InputError` naming the first step that is not finite."""
    t = problem.forcing.amplitudes.t
    stepper = problem._stepper
    states = np.zeros((t.size, problem.op.n_dof))
    amplitudes = problem.forcing.amplitudes.samples
    congruence = problem._congruence
    # the memory-state columns stay exact zeros, as step_implicit gives them
    profiles = np.zeros((amplitudes.shape[1], stepper.rhs.size))
    profiles[:, stepper.u_at] = congruence.lower_inverse_transpose(
        problem.forcing.profiles.copy())
    # a chunk's forcing, its mix and one temporary of the mix take CHUNK_VALUES
    chunk = max(1, CHUNK_VALUES // (3 * stepper.rhs.size))
    # and a chunk's marched states 1/3 CHUNK_VALUES more
    marched = np.zeros((min(chunk, t.size - 1), stepper.rhs.size))
    stepper.w = np.zeros(stepper.rhs.size)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        for start in range(0, t.size - 1, chunk):
            f = amplitudes[start:start + chunk + 1] @ profiles
            m = f.shape[0] - 1
            stepper.march(stepper.mix(f[1:], f[:-1]), marched)
            block = states[start + 1:start + 1 + m]
            np.take(marched[:m], stepper.u_at, axis=1, out=block, mode="clip")
            congruence.lower_inverse(block)
    if not (np.isfinite(states.max()) and np.isfinite(states.min())):
        k = int(np.argmin(np.all(np.isfinite(states), axis=1)))
        raise InputError(f"the march overflows: the state is not finite from step {k} "
                         f"(t = {t[k]:g})")
    states.flags.writeable = False
    return Trajectory(problem, states, lambda: stepper.aux_history(states))


def energy_functional(trajectory: Trajectory) -> np.ndarray:
    """Per-step quadratic form of the instantaneous block, h-weighted.

    Evaluated in the congruence form ``u^T M u = sum_i D_i (L u)_i^2``
    (:class:`_Congruence`): ``L u`` is ``u`` with ``gamma_f / 2`` and
    ``zeta_f / 2`` times the sum of Theta at the ends of face f added to
    sigma and q.
    For laws with constant Hermitian zero-order block and vanished forcing,
    backward Euler makes this sequence nonincreasing and the trapezoidal
    rule conserves it exactly (skew spatial part drops out).  Taken in row
    chunks (:func:`~thermoevo.signals.map_row_chunks`), so the trajectory is
    never copied whole.
    """
    problem = trajectory.problem
    congruence = problem._congruence

    def energy(chunk):
        lu = congruence.lower(chunk.copy())
        return np.einsum("ki,ki,i->k", lu, lu, congruence.diagonal)

    return problem.op.grid.h * map_row_chunks(trajectory.states, energy)


class CausalityResult(Frozen):
    def __init__(self, leakage: float, skipped: bool = False, reason: str = ""):
        vars(self).update(leakage=leakage, skipped=skipped, reason=reason)

    def __eq__(self, other):
        if type(other) is not CausalityResult:
            return NotImplemented
        return vars(self) == vars(other)


def causality_test(problem: EvolutionProblem, t0: float,
                   trajectory: Trajectory) -> CausalityResult:
    """Pre-support leakage ratio of the marched ``trajectory`` of ``problem``.

    Requires the forcing to vanish for t < t0 with t0 strictly inside the
    window; when the forcing support touches the window start the check is
    skipped with a diagnostic instead of reporting a meaningless ratio.  The
    support is where an amplitude of a nonzero profile is nonzero.
    """
    t = problem.forcing.amplitudes.t
    forced = np.any(problem.forcing.profiles != 0.0, axis=1)
    active = np.flatnonzero(np.any(problem.forcing.amplitudes.samples[:, forced] != 0.0, axis=1))
    if active.size == 0:
        return CausalityResult(0.0)
    t_first = float(t[active[0]])
    if t_first <= t[0]:
        return CausalityResult(float("nan"), skipped=True,
                               reason="forcing support touches the window start")
    if t_first < t0:
        return CausalityResult(float("nan"), skipped=True,
                               reason=f"forcing is nonzero before t0={t0:g}")
    if trajectory.problem is not problem:
        raise InputError("trajectory does not belong to the problem")
    magnitude = row_peaks(trajectory.states)
    peak = float(np.max(magnitude))
    if peak == 0.0:
        return CausalityResult(0.0)
    before = magnitude[t < t0 - 2.0 * problem.dt]
    if before.size == 0:
        return CausalityResult(float("nan"), skipped=True,
                               reason="no grid points before t0 - 2 dt")
    return CausalityResult(float(np.max(before)) / peak)


class BoundCheckResult(Frozen):
    def __init__(self, lhs: float, rhs: float, c_used: float, tail_ratio: float,
                 slack: float = 0.05):
        vars(self).update(lhs=lhs, rhs=rhs, c_used=c_used, tail_ratio=tail_ratio, slack=slack)

    @property
    def window_ok(self) -> bool:
        return self.tail_ratio <= 1e-6

    @property
    def ok(self) -> bool:
        """``lhs`` is finite and within ``rhs * (1 + slack)``.  The solution
        is causal, so on the window it is the restriction of the solution
        for all time that the bound covers: a window of any length is judged."""
        return bool(np.isfinite(self.lhs)) and self.lhs <= self.rhs * (1.0 + self.slack)


def solution_bound_check(
    problem: EvolutionProblem,
    report: WellPosednessReport,
    trajectory: Trajectory,
) -> BoundCheckResult:
    """A-priori bound check: norm of ``trajectory`` against forcing norm over c.

    The constant is a closed-form lower bound of the Hermitian part of the
    weighted symbol over Re s >= rho at the run weight, exact for every
    catalog family (:func:`~thermoevo.wellposed.check_symbol_boundary`).
    The weighted tail of the solution at the window end over its peak is
    reported as ``tail_ratio``.  The forcing norm is ``||a R^T||_rho`` with
    ``P^T = Q R``; the solution norm and the weighted envelope
    ``exp(-rho t) max |u(t)|`` are taken in row chunks
    (:func:`~thermoevo.signals.map_row_chunks`): the check adds no temporary
    the size of the trajectory.
    """
    if report.verdict != "satisfied":
        raise InputError("bound check requires a satisfied well-posedness verdict")
    if np.isfinite(report.rho_min) and problem.rho < report.rho_min:
        raise InputError(
            f"run weight rho={problem.rho:g} below certified rho_min={report.rho_min:g}"
        )
    if trajectory.problem is not problem:
        raise InputError("trajectory does not belong to the problem")
    c_used = check_symbol_boundary(problem.law, problem.rho)
    if c_used <= 0:
        raise InputError(
            f"positivity constant on Re s = {problem.rho:g} is not positive ({c_used:.6g})"
        )

    h = problem.op.grid.h
    lhs = trajectory.space_time_norm()
    a, r = problem.forcing.amplitudes, np.linalg.qr(problem.forcing.profiles.T, mode="r")
    rhs = float(np.sqrt(h) * weighted_norm(a.with_samples(a.samples @ r.T))) / c_used

    # max |c u_k| = c max |u_k| to the bit for c > 0: rounding is monotone
    envelope = np.exp(-problem.rho * trajectory.t) * row_peaks(trajectory.states)
    peak = float(np.max(envelope))
    tail = float(envelope[-1]) / peak if peak > 0 else 0.0
    return BoundCheckResult(lhs, rhs, float(c_used), tail)
