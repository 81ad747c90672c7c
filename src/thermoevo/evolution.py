"""Causal time integration of the assembled space-time system.

The semidiscrete system couples the instantaneous block under the time
derivative, the zero-order rational block realized through auxiliary
states, and the antisymmetric spatial operator:

    M_h dU/dt + D_h U + C x + A_h U = F(t),      dx/dt = P x + B U,

marched from zero history by backward Euler or the trapezoidal rule with
one sparse factorization reused across steps.  Auxiliary dynamics are
diagonal (one simple pole per state), so their elimination adds only a
diagonal correction to the step matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import InputError, SingularSystemError
from .models import MaterialLaw, compute_entropy, recover_theta
from .rational import realize_state_space
from .signals import WeightedSignal, weighted_norm, write_csv
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

FIELD_BLOCKS = ("v", "sigma", "theta_big", "q")


@dataclass(frozen=True)
class _AuxChain:
    """Diagonal realization states attached to individual unknowns."""

    poles: np.ndarray      # (n_aux,)
    gain_in: np.ndarray    # (n_aux,) input weight on the owner unknown
    gain_out: np.ndarray   # (n_aux,) output weight back onto the owner row
    owner: np.ndarray      # (n_aux,) global dof indices

    @property
    def n_aux(self) -> int:
        return self.poles.size


@dataclass
class EvolutionProblem:
    """Material law, spatial operator, forcing and scheme for one run.

    The forcing signal spans all block unknowns (components ordered v,
    sigma, theta_big, q) on a uniform grid starting at t = 0; its weight is
    the run weight used for all norm accounting.
    """

    law: MaterialLaw
    op: DiscreteSpatialOperator
    forcing: WeightedSignal
    scheme: str = BACKWARD_EULER

    def __post_init__(self):
        if self.scheme not in (BACKWARD_EULER, TRAPEZOIDAL):
            raise InputError(f"unknown scheme '{self.scheme}'")
        if not self.law.is_scalar:
            raise InputError("time integration requires scalar material blocks")
        if self.forcing.n_components != self.op.n_dof:
            raise InputError(
                f"forcing has {self.forcing.n_components} components, "
                f"operator has {self.op.n_dof} unknowns"
            )
        if abs(self.forcing.t_min) > 0:
            raise InputError("the time grid must start at t = 0 (zero history)")
        n = self.op.grid.n_cells
        if self.law.n_cells not in (1, n):
            raise InputError(f"law has {self.law.n_cells} cells, grid has {n}")
        first = self.law.cells[0]
        if any(cell.theta_lag != first.theta_lag
               or cell.theta_damping.key() != first.theta_damping.key()
               for cell in self.law.cells[1:]):
            raise InputError(
                "per-cell variation of the temperature damping term is not supported"
            )

    @property
    def dt(self) -> float:
        return self.forcing.dt

    @property
    def rho(self) -> float:
        return self.forcing.rho

    @property
    def n_steps(self) -> int:
        return self.forcing.t.size - 1

    # -- assembled pieces ---------------------------------------------------

    @cached_property
    def node_coeffs(self) -> dict:
        """Cellwise coefficients sampled at node dofs (adjacent-cell mean)."""
        per_cell = self.law.scalar_arrays(self.op.grid.n_cells)
        return {k: 0.5 * (v[:-1] + v[1:]) for k, v in per_cell.items()}

    @cached_property
    def face_coeffs(self) -> dict:
        return self.law.scalar_arrays(self.op.grid.n_cells)

    @cached_property
    def mass_matrix(self) -> sp.csr_matrix:
        """Assembled instantaneous block, symmetric positive semidefinite.

        Built through the triangular congruence so cellwise positivity is
        inherited exactly; the couplings act through the two-point node-to-
        face average, with coupling coefficients sampled at faces.
        """
        op = self.op
        n = op.n_dof
        sl = op.block_slices()
        avg = op.node_to_face.tocoo()

        gamma_f = self.face_coeffs["coupling"]
        zeta_f = self.face_coeffs["flux_coupling"]
        rows = np.concatenate([np.arange(n), sl[1].start + avg.row, sl[3].start + avg.row])
        cols = np.concatenate([np.arange(n), sl[2].start + avg.col, sl[2].start + avg.col])
        vals = np.concatenate([np.ones(n), gamma_f[avg.row] * avg.data,
                               zeta_f[avg.row] * avg.data])
        lmat = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))

        diag = np.concatenate([
            self.node_coeffs["rho0"],
            1.0 / self.face_coeffs["stiffness"],
            self.node_coeffs["heat_capacity"],
            self.face_coeffs["flux_inertia"],
        ])
        core = sp.diags(diag)
        m = (lmat.T @ core @ lmat).tocsr()
        return ((m + m.T) * 0.5).tocsr()

    @cached_property
    def _realizations(self) -> tuple:
        """Feedthrough diagonal and aux chains for the zero-order block."""
        op = self.op
        sl = op.block_slices()
        # owner dofs and laws: flux resistance per face, then temperature damping per node
        owner = sl[3].start + np.arange(op.grid.n_cells)
        laws = [self.law.cell(f).flux_resistance for f in range(op.grid.n_cells)]
        damping = self.law.cells[0].theta_damping
        if any(np.any(np.asarray(c) != 0) for c in damping.num):
            owner = np.concatenate([owner, sl[2].start + np.arange(op.grid.n_nodes)])
            laws += [damping] * op.grid.n_nodes
        reals = realize_state_space(laws)
        feed = np.zeros(op.n_dof)
        feed[owner] = [real.d[0, 0] for real in reals]
        chain = _AuxChain(
            np.concatenate([np.diagonal(real.a) for real in reals]),
            np.concatenate([real.b[:, 0] for real in reals]),
            np.concatenate([real.c[0] for real in reals]),
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


class _ImplicitStepper:
    """One factorized step matrix, reused across the march."""

    def __init__(self, problem: EvolutionProblem):
        self.problem = problem
        dt = problem.dt
        chain = problem.aux_chain
        n = problem.op.n_dof
        zero_order = sp.diags(problem.feedthrough) + problem.op.a_h

        if problem.scheme == BACKWARD_EULER:
            self.aux_decay = 1.0 / (1.0 - dt * chain.poles)
            correction = np.zeros(n)
            np.add.at(correction, chain.owner,
                      dt * chain.gain_out * chain.gain_in * self.aux_decay)
            system = problem.mass_matrix / dt + zero_order + sp.diags(correction)
            self.rhs_mass = problem.mass_matrix / dt
            self.explicit_part = None
        else:
            half = 0.5 * dt * chain.poles
            self.aux_decay = 1.0 / (1.0 - half)     # (I - dt/2 P)^-1
            self.aux_grow = 1.0 + half              # (I + dt/2 P)
            correction = np.zeros(n)
            np.add.at(correction, chain.owner,
                      0.25 * dt * chain.gain_out * chain.gain_in * self.aux_decay)
            k_half = 0.5 * zero_order + sp.diags(correction)
            system = problem.mass_matrix / dt + k_half
            self.rhs_mass = problem.mass_matrix / dt - k_half
            self.explicit_part = k_half

        try:
            self.lu = splu(system.tocsc())
        except RuntimeError as exc:
            raise SingularSystemError(
                f"step matrix not invertible at dt={dt:g}: {exc}"
            ) from exc

    def step(self, u_n, x_n, f_next, f_n=None):
        problem = self.problem
        chain = problem.aux_chain
        dt = problem.dt
        if problem.scheme == BACKWARD_EULER:
            rhs = f_next + self.rhs_mass @ u_n
            if chain.n_aux:
                np.subtract.at(rhs, chain.owner,
                               chain.gain_out * self.aux_decay * x_n)
            u_next = self.lu.solve(rhs)
            if chain.n_aux:
                x_next = self.aux_decay * (x_n + dt * chain.gain_in * u_next[chain.owner])
            else:
                x_next = x_n
        else:
            if f_n is None:
                raise InputError("trapezoidal stepping needs the forcing at both ends")
            rhs = 0.5 * (f_next + f_n) + self.rhs_mass @ u_n
            if chain.n_aux:
                np.subtract.at(rhs, chain.owner,
                               chain.gain_out * self.aux_decay * x_n)
            u_next = self.lu.solve(rhs)
            if chain.n_aux:
                x_next = self.aux_decay * (
                    self.aux_grow * x_n
                    + 0.5 * dt * chain.gain_in * (u_next[chain.owner] + u_n[chain.owner])
                )
            else:
                x_next = x_n
        return u_next, x_next


def step_implicit(problem: EvolutionProblem, u_n, x_n, f_next, f_n=None):
    """Advance one implicit step; the factorization is cached on the problem."""
    return problem._stepper.step(
        np.asarray(u_n, dtype=float),
        np.asarray(x_n, dtype=float),
        np.asarray(f_next, dtype=float),
        None if f_n is None else np.asarray(f_n, dtype=float),
    )


@dataclass(frozen=True)
class Trajectory:
    """Solved block states plus auxiliary realization states."""

    problem: EvolutionProblem
    states: np.ndarray  # (n_t, n_dof)
    aux: np.ndarray     # (n_t, n_aux)

    @property
    def t(self) -> np.ndarray:
        return self.problem.forcing.t

    def block(self, name: str) -> WeightedSignal:
        sl = self.problem.op.block_slices()[FIELD_BLOCKS.index(name)]
        return WeightedSignal(self.t, self.states[:, sl], self.problem.rho)

    def displacement(self) -> WeightedSignal:
        """Scheme-consistent causal antiderivative of the velocity block."""
        v = self.block("v").samples
        dt = self.problem.dt
        if self.problem.scheme == BACKWARD_EULER:
            u = dt * np.cumsum(v, axis=0) - dt * v[0]
        else:
            u = np.zeros_like(v)
            u[1:] = 0.5 * dt * np.cumsum(v[1:] + v[:-1], axis=0)
        return WeightedSignal(self.t, u, self.problem.rho)

    def strain(self) -> WeightedSignal:
        eps = (self.problem.op.d_grad @ self.displacement().samples.T).T
        return WeightedSignal(self.t, eps, self.problem.rho)

    def theta(self) -> WeightedSignal:
        return recover_theta(self.block("theta_big"), self.problem.law.theta_lag)

    def entropy(self) -> WeightedSignal:
        """Entropy at the interior nodes (uniform laws only)."""
        law = self.problem.law
        if not law.is_uniform():
            raise InputError("entropy export supports uniform laws only")
        face_to_node = self.problem.op.node_to_face.T  # face -> node mean
        eps_nodes = (face_to_node @ self.strain().samples.T).T
        q_nodes = (face_to_node @ self.block("q").samples.T).T
        uniform = MaterialLaw(law.family, (law.cells[0],))
        rho = self.problem.rho
        return compute_entropy(
            uniform,
            WeightedSignal(self.t, eps_nodes, rho),
            self.block("theta_big"),
            WeightedSignal(self.t, q_nodes, rho),
        )

    def space_time_norm(self, name: str = None) -> float:
        """Weighted space-time norm (h-weighted in space) of a block or of all."""
        h = self.problem.op.grid.h
        if name is None:
            sig = WeightedSignal(self.t, self.states, self.problem.rho)
        else:
            sig = self.block(name)
        return float(np.sqrt(h) * weighted_norm(sig))

    def export_csv(self, directory) -> list:
        """One CSV per field (primary and derived) plus the energy series."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        fields = {name: self.block(name) for name in FIELD_BLOCKS}
        fields["u"] = self.displacement()
        fields["epsilon"] = self.strain()
        fields["theta"] = self.theta()
        try:
            fields["eta"] = self.entropy()
        except InputError:
            pass
        tables = {name: (["t", *(f"x_{i}" for i in range(signal.n_components))],
                         signal.samples) for name, signal in fields.items()}
        tables["energy"] = (["t", "energy"], energy_functional(self))
        written = []
        for name, (columns, values) in tables.items():
            path = directory / f"{name}.csv"
            write_csv(path, columns, np.column_stack([self.t, values]))
            written.append(path)
        return written


def solve(problem: EvolutionProblem) -> Trajectory:
    """March the implicit scheme from zero initial data over the grid."""
    n_t = problem.forcing.t.size
    n = problem.op.n_dof
    chain = problem.aux_chain
    states = np.zeros((n_t, n))
    aux = np.zeros((n_t, chain.n_aux))
    stepper = problem._stepper
    f = problem.forcing.samples
    u = states[0]
    x = aux[0]
    for k in range(n_t - 1):
        u, x = stepper.step(u, x, f[k + 1], f[k])
        states[k + 1] = u
        aux[k + 1] = x
    return Trajectory(problem, states, aux)


def energy_functional(trajectory: Trajectory, law: MaterialLaw = None) -> np.ndarray:
    """Per-step quadratic form of the instantaneous block, h-weighted.

    For laws with constant Hermitian zero-order block and vanished forcing,
    backward Euler makes this sequence nonincreasing and the trapezoidal
    rule conserves it exactly (skew spatial part drops out).
    """
    problem = trajectory.problem
    if law is not None and law is not problem.law:
        raise InputError("law does not match the trajectory's problem")
    m = problem.mass_matrix
    h = problem.op.grid.h
    u = trajectory.states
    return h * np.einsum("ki,ki->k", u, (m @ u.T).T)


def _trajectory_of(problem: EvolutionProblem, trajectory: Trajectory = None) -> Trajectory:
    """The given trajectory, which must belong to ``problem``, or a new march."""
    if trajectory is None:
        return solve(problem)
    if trajectory.problem is not problem:
        raise InputError("trajectory does not belong to the problem")
    return trajectory


@dataclass(frozen=True)
class CausalityResult:
    leakage: float
    skipped: bool = False
    reason: str = ""


def causality_test(problem: EvolutionProblem, t0: float,
                   trajectory: Trajectory = None) -> CausalityResult:
    """Pre-support leakage ratio of the marched solution.

    Requires the forcing to vanish for t < t0 with t0 strictly inside the
    window; when the forcing support touches the window start the check is
    skipped with a diagnostic instead of reporting a meaningless ratio.
    A given ``trajectory`` of ``problem`` is used instead of marching again.
    """
    t = problem.forcing.t
    f = problem.forcing.samples
    active = np.flatnonzero(np.any(f != 0.0, axis=1))
    if active.size == 0:
        return CausalityResult(0.0)
    t_first = float(t[active[0]])
    if t_first <= t[0]:
        return CausalityResult(float("nan"), skipped=True,
                               reason="forcing support touches the window start")
    if t_first < t0:
        return CausalityResult(float("nan"), skipped=True,
                               reason=f"forcing is nonzero before t0={t0:g}")
    trajectory = _trajectory_of(problem, trajectory)
    magnitude = np.max(np.abs(trajectory.states), axis=1)
    peak = float(np.max(magnitude))
    if peak == 0.0:
        return CausalityResult(0.0)
    before = magnitude[t < t0 - 2.0 * problem.dt]
    if before.size == 0:
        return CausalityResult(float("nan"), skipped=True,
                               reason="no grid points before t0 - 2 dt")
    return CausalityResult(float(np.max(before)) / peak)


@dataclass(frozen=True)
class BoundCheckResult:
    lhs: float
    rhs: float
    c_used: float
    tail_ratio: float
    slack: float = 0.05

    @property
    def window_ok(self) -> bool:
        return self.tail_ratio <= 1e-6

    @property
    def ok(self) -> bool:
        return self.window_ok and self.lhs <= self.rhs * (1.0 + self.slack)


def solution_bound_check(
    problem: EvolutionProblem,
    report: WellPosednessReport,
    trajectory: Trajectory = None,
) -> BoundCheckResult:
    """A-priori bound check: solution norm against forcing norm over c.

    The constant is the infimum of the Hermitian part of the weighted
    symbol over Re s >= rho, taken on the line Re s = rho at the run weight
    (:func:`~thermoevo.wellposed.check_symbol_boundary`), the quantity the
    solution theory inverts.  The weighted tail of the solution at the
    window end is reported so short windows are flagged rather than
    silently accepted.
    """
    if report.verdict != "satisfied":
        raise InputError("bound check requires a satisfied well-posedness verdict")
    if np.isfinite(report.rho_min) and problem.rho < report.rho_min:
        raise InputError(
            f"run weight rho={problem.rho:g} below certified rho_min={report.rho_min:g}"
        )
    trajectory = _trajectory_of(problem, trajectory)
    c_used, _ = check_symbol_boundary(problem.law, problem.rho)
    if c_used <= 0:
        raise InputError(
            f"positivity constant on Re s = {problem.rho:g} is not positive ({c_used:.6g})"
        )

    h = problem.op.grid.h
    lhs = trajectory.space_time_norm()
    rhs = float(np.sqrt(h) * weighted_norm(problem.forcing)) / c_used

    weighted = np.exp(-problem.rho * trajectory.t)[:, None] * trajectory.states
    envelope = np.max(np.abs(weighted), axis=1)
    peak = float(np.max(envelope))
    tail = float(envelope[-1]) / peak if peak > 0 else 0.0
    return BoundCheckResult(lhs, rhs, float(c_used), tail)
