"""Causal time integration of the assembled space-time system.

The semidiscrete system couples the instantaneous block under the time
derivative, the zero-order rational block realized through auxiliary
states, and the antisymmetric spatial operator:

    M_h dU/dt + D_h U + C x + A_h U = F(t),      dx/dt = P x + B U,

marched from zero history by one theta-scheme step (Hairer & Wanner,
Solving ODEs II, IV.3): backward Euler is theta = 1, the trapezoidal rule
theta = 1/2.  The step matrix couples only neighbouring cells, so with the
unknowns ordered cell by cell it is a band with 4 sub- and 4 super-diagonals;
one banded LU in that order is reused across steps.  Auxiliary dynamics are
diagonal (one simple pole per state), so their elimination adds only a
diagonal correction to the step matrix.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgbtrf, dgbtrs
from scipy.sparse.linalg import splu  # noqa: F401  (bench/tracer.py hooks this name)

from .errors import ArtifactWriteError, InputError, SingularSystemError
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

#: implicit weight of each scheme's theta-scheme step
_THETA = {BACKWARD_EULER: 1.0, TRAPEZOIDAL: 0.5}

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
    def theta(self) -> float:
        """Implicit weight of the scheme's theta-scheme step."""
        return _THETA[self.scheme]

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


#: sub- and super-diagonals of the step matrix in cell order
_BAND = 4


class _ImplicitStepper:
    """One factorized theta-scheme step matrix, reused across the march.

    Eliminating x+ = (I - theta dt P)^-1 ((I + (1-theta) dt P) x + dt B (theta u+ + (1-theta) u))
    leaves (M/dt + K_theta) u+ = theta f+ + (1-theta) f + (M/dt - (1-theta)/theta K_theta) u
    - C (I - theta dt P)^-1 x, with K_theta = theta (diag(D) + A_h) + diag(theta^2 dt C
    (I - theta dt P)^-1 B).  An owner dof repeats when its law has several poles.

    The step matrix is factorized once as a LAPACK band (``dgbtrf``) in cell
    order: ``perm`` lists sigma_j, q_j, v_j, theta_j per cell j (node j + 1
    is the right end of cell j; the last cell has only sigma and q), so every
    coupling lies within 4 places of the diagonal.  The right-hand side stays
    in block order and only the solve is permuted.
    """

    def __init__(self, problem: EvolutionProblem):
        self.theta = theta = problem.theta
        dt = problem.dt
        chain = problem.aux_chain
        self.owner = chain.owner
        self.aux_decay = 1.0 / (1.0 - theta * dt * chain.poles)
        self.aux_grow = 1.0 + (1.0 - theta) * dt * chain.poles
        self.aux_in = dt * chain.gain_in
        self.aux_out = chain.gain_out * self.aux_decay
        correction = np.bincount(chain.owner, theta * theta * dt * chain.gain_out * chain.gain_in
                                 * self.aux_decay, minlength=problem.op.n_dof).astype(float)
        k_theta = (theta * (sp.diags(problem.feedthrough) + problem.op.a_h)
                   + sp.diags(correction))
        mass = problem.mass_matrix / dt
        self.rhs_mass = mass - ((1.0 - theta) / theta) * k_theta
        sl = problem.op.block_slices()
        cells = np.arange(problem.op.grid.n_cells)
        self.perm = np.column_stack([sl[1].start + cells, sl[3].start + cells,
                                     sl[0].start + cells, sl[2].start + cells]).ravel()[:-2]
        self.inv = np.argsort(self.perm)
        matrix = (mass + k_theta).tocoo()
        rows, cols = self.inv[matrix.row], self.inv[matrix.col]
        band = np.zeros((3 * _BAND + 1, self.perm.size))
        band[2 * _BAND + rows - cols, cols] = matrix.data
        self.lu, self.piv, info = dgbtrf(band, _BAND, _BAND)
        if info > 0:
            raise SingularSystemError(
                f"step matrix not invertible at dt={dt:g}: zero pivot {info}"
            )

    def step(self, u_n, x_n, f_next, f_n):
        theta = self.theta
        rhs = theta * f_next + (1.0 - theta) * f_n + self.rhs_mass @ u_n
        rhs -= np.bincount(self.owner, self.aux_out * x_n, minlength=rhs.size)
        u_next = dgbtrs(self.lu, _BAND, _BAND, rhs[self.perm], self.piv)[0][self.inv]
        mixed = theta * u_next[self.owner] + (1.0 - theta) * u_n[self.owner]
        return u_next, self.aux_decay * (self.aux_grow * x_n + self.aux_in * mixed)


def step_implicit(problem: EvolutionProblem, u_n, x_n, f_next, f_n=None):
    """Advance one implicit step; the factorization is cached on the problem.
    Backward Euler may omit ``f_n``, the trapezoidal rule needs it."""
    if f_n is None:
        if problem.theta != 1.0:
            raise InputError("trapezoidal stepping needs the forcing at both ends")
        f_n = f_next
    return problem._stepper.step(*(np.asarray(a, dtype=float) for a in (u_n, x_n, f_next, f_n)))


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
        """Scheme-consistent causal antiderivative: the theta-weighted cumulative sum of v."""
        v = self.block("v").samples
        theta = self.problem.theta
        u = np.zeros_like(v)
        u[1:] = self.problem.dt * np.cumsum(theta * v[1:] + (1.0 - theta) * v[:-1], axis=0)
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
        """One CSV per field (primary and derived) plus the energy series.

        The tables are dealt into one share per available CPU (:func:`_deal`);
        this process writes the first share and a forked writer each other
        one, so every file is written whole by one process with the bytes of
        :func:`write_csv`.  The paths are returned once every writer has
        exited.
        """
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
        jobs = [(directory / f"{name}.csv",
                 ["t", *(f"x_{i}" for i in range(signal.n_components))], signal.samples)
                for name, signal in fields.items()]
        jobs.append((directory / "energy.csv", ["t", "energy"], energy_functional(self)))
        # '%.17g' formats a zero in about a quarter of the time of a nonzero value
        shares = _deal([values.size + 3 * np.count_nonzero(values) for _, _, values in jobs],
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


def energy_functional(trajectory: Trajectory) -> np.ndarray:
    """Per-step quadratic form of the instantaneous block, h-weighted.

    For laws with constant Hermitian zero-order block and vanished forcing,
    backward Euler makes this sequence nonincreasing and the trapezoidal
    rule conserves it exactly (skew spatial part drops out).
    """
    problem = trajectory.problem
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
