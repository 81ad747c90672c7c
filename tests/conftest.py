"""Shared fixtures: the standard probe pulse, catalog law builders, the FFT
application of a rational symbol, the full material symbol of a cell built
from its parts, the realization and skew-adjointness checks, and the former one-at-a-time versions of batched computations, kept
as references: the Simpson exponential step, the per-frequency realization
check, the per-point symbol sampling on the boundary line, the per-cell
certification, condition and classification loops, the per-pole realization,
the entry-by-entry congruence factor of the assembled mass matrix, the
per-cell loops of the difference and averaging matrices and the block
operator assembled from them (all as ``scipy.sparse`` matrices), and the
two-branch backward-Euler / trapezoidal stepper with its displacement rule,
factorized through its own per-cell loop of the band order, and the
whole-array formulas of the weighted norm, the bound check's numbers and the
causality leakage, which the library takes in row chunks."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg.blas import dgbmv
from scipy.linalg.lapack import dgbtrf, dgbtrs

from thermoevo import (
    BACKWARD_EULER,
    Forcing,
    ModelFamily,
    ModelSpec,
    WeightedSignal,
    assemble_material_law,
    canonical_spec,
)
from thermoevo._integrators import exp_march_linear, phi_matrices
from thermoevo.errors import InputError, PoleProximityError
from thermoevo.models import SPECTRAL_CUTOFF, _block_slices
from thermoevo.rational import RationalMatrixFunction, StateSpaceRealization
from thermoevo.wellposed import Witness, WellPosednessReport, _rho_grid

#: families whose canonical coefficients satisfy the certified hypotheses
ALL_FAMILIES = [f for f in ModelFamily if f is not ModelFamily.CUSTOM]

#: single-hypothesis negations used as violated fixtures (one per named model)
NEGATED_COEFFS = {
    ModelFamily.LORD_SHULMAN: {"a0": -1.0},
    ModelFamily.GREEN_NAGHDI_I: {"k": -1.0},
    ModelFamily.GREEN_NAGHDI_II: {"k_star": -1.0},
    ModelFamily.GREEN_NAGHDI_III: {"k": -1.0},
    ModelFamily.GREEN_LINDSAY: {"h": -1.0},
    ModelFamily.DPL_I: {"n2": -0.25},
    ModelFamily.DPL_II: {"n2": -0.75},
}


#: per-cell coefficients of four-cell variants of the catalog families
PER_CELL_COEFFS = {
    ModelFamily.CLASSICAL: {"kappa": [0.5, 1.0, 2.0, 1.5]},
    ModelFamily.LORD_SHULMAN: {"kappa": [0.5, 1.0, 2.0, 1.5], "a0": [1.0, 0.5, 2.0, 0.25]},
    ModelFamily.GREEN_NAGHDI_I: {"k": [0.5, 1.0, 2.0, 1.5]},
    ModelFamily.GREEN_NAGHDI_II: {"k_star": [0.5, 1.0, 2.0, 1.5]},
    ModelFamily.GREEN_NAGHDI_III: {"k": [0.5, 1.0, 2.0, 1.5], "k_star": [1.0, 0.0, 0.5, 2.0]},
    ModelFamily.GREEN_LINDSAY: {"kappa": [0.5, 1.0, 2.0, 1.5], "d": [3.0, 2.5, 3.0, 4.0],
                                "n0": [0.5, 0.4, 0.5, 0.6]},
    ModelFamily.DPL_I: {"kappa": [0.5, 1.0, 2.0, 1.5], "n2": [0.25, 0.3, 0.2, 0.25]},
    ModelFamily.DPL_II: {"kappa": [0.5, 1.0, 2.0, 1.5], "n1": [0.5, 0.4, 0.6, 0.5]},
}


def per_cell_law(family):
    """Four-cell variant of the canonical law: per-cell stiffness and
    coupling plus the family's own coefficients of ``PER_CELL_COEFFS``."""
    return assemble_material_law(spec_with(family, C=[0.9, 1.1, 1.2, 0.8],
                                           Gamma=[0.5, 0.3, 0.0, 0.4],
                                           **PER_CELL_COEFFS[family]))


def spec_with(family, **overrides) -> ModelSpec:
    coeffs = dict(canonical_spec(family).coefficients)
    coeffs.update(overrides)
    return ModelSpec(family, coeffs)


def uncoupled_law(family):
    """Canonical law with the thermoelastic coupling turned off."""
    return assemble_material_law(spec_with(family, Gamma=0.0))


def negated_law(family):
    return assemble_material_law(spec_with(family, **NEGATED_COEFFS[family]))


def sampled_forcing(t: np.ndarray, samples: np.ndarray, rho: float = 1.0) -> Forcing:
    """The sampled field ``samples`` (one column per unknown) as a forcing:
    the field is the amplitudes and the profiles are the identity."""
    return Forcing(WeightedSignal(t, samples, rho), np.eye(np.shape(samples)[1]))


def make_probe(dt: float = 5e-4, rho: float = 1.0) -> WeightedSignal:
    """Standard smooth probe: Gaussian pulse well inside a [0, 4] window."""
    t = dt * np.arange(int(round(4.0 / dt)) + 1)
    return WeightedSignal(t, np.exp(-(((t - 1.25) / 0.25) ** 2)), rho)


def random_smooth(rng, t: np.ndarray, rho: float) -> WeightedSignal:
    """Random smooth compactly supported signal on the given grid."""
    span = t[-1] - t[0]
    center = t[0] + 0.5 * span
    envelope = np.zeros_like(t)
    x = (t - center) / (0.4 * span)
    inside = np.abs(x) < 1.0
    envelope[inside] = np.exp(-1.0 / (1.0 - x[inside] ** 2))
    waves = sum(
        rng.uniform(-1, 1) * np.sin(2 * np.pi * rng.uniform(0.2, 2.0) * t + rng.uniform(0, 7))
        for _ in range(4)
    )
    return WeightedSignal(t, envelope * waves, rho)


def simpson_weights(a: np.ndarray, h: float):
    """Propagator and forcing weights for one step of x' = a x + g(t).

    Returns (E, W0, Wm, W1) such that

        x(t+h) = E x(t) + W0 g(t) + Wm g(t+h/2) + W1 g(t+h)

    is exact when g is a quadratic polynomial on the step (degenerates to
    the Simpson rule for a = 0).
    """
    e, p1, p2, p3 = phi_matrices(h * a, 3)
    w0 = h * (p1 - 3.0 * p2 + 4.0 * p3)
    wm = h * (4.0 * p2 - 8.0 * p3)
    w1 = h * (4.0 * p3 - p2)
    return e, w0, wm, w1


#: relative decay required of the weighted samples at the window ends
DECAY_TOL = 1e-8
#: absolute guard against evaluating a symbol on top of a pole
POLE_TOL = 1e-12


class WindowDecayError(InputError):
    """A signal does not decay at the ends of its sampling window."""


def apply_symbol_fl(matrix_function, f: WeightedSignal) -> WeightedSignal:
    """Apply a rational symbol of the inverse time derivative via FFT.

    The signal is unweighted with exp(-rho*t), transformed, multiplied per
    frequency by ``matrix_function`` evaluated at z = 1/(i*omega + rho), and
    transformed back.  Zero padding to the next power of two (at least twice
    the signal length) suppresses circular wrap-around so that causality is
    preserved up to spectral leakage.

    Raises
    ------
    WindowDecayError
        If the weighted samples do not decay at the window ends.
    PoleProximityError
        If the symbol denominator nearly vanishes at a grid frequency.
    """
    if not isinstance(matrix_function, RationalMatrixFunction):
        raise InputError("symbol must be a RationalMatrixFunction")
    rows, cols = matrix_function.dims
    if cols != f.n_components:
        raise InputError(
            f"symbol acts on {cols} components, signal has {f.n_components}"
        )

    weighted = np.exp(-f.rho * f.t)[:, None] * f.samples
    peak = float(np.max(np.abs(weighted)))
    if peak > 0.0:
        edge = max(np.max(np.abs(weighted[0])), np.max(np.abs(weighted[-1])))
        if edge >= DECAY_TOL * peak:
            raise WindowDecayError(
                "weighted signal does not decay at the window ends "
                f"(edge/peak = {edge / peak:.2e}, required < {DECAY_TOL:.0e})"
            )

    # The weighted impulse response of an admissible symbol decays no slower
    # than exp(-rho*tau); pad past that decay length to suppress wrap-around.
    n = f.t.size
    tail = int(np.ceil(21.0 / (f.rho * f.dt)))
    n_fft = 1 << int(np.ceil(np.log2(n + max(n, tail))))
    omega = 2.0 * np.pi * np.fft.fftfreq(n_fft, d=f.dt)
    z = 1.0 / (1j * omega + f.rho)

    den_scale = max(float(np.max(np.abs(matrix_function.den))), 1.0)
    den_vals = np.polynomial.polynomial.polyval(z, matrix_function.den)
    if np.min(np.abs(den_vals)) < POLE_TOL * den_scale:
        worst = omega[int(np.argmin(np.abs(den_vals)))]
        raise PoleProximityError(
            f"symbol denominator vanishes near grid frequency omega={worst:.6g}"
        )

    spectrum = np.fft.fft(weighted, n=n_fft, axis=0)
    mats = horner_per_point(matrix_function, z)
    out_spec = np.einsum("krc,kc->kr", mats, spectrum)
    out = np.fft.ifft(out_spec, axis=0)[:n]

    real_input = not np.iscomplexobj(f.samples)
    real_symbol = has_real_coefficients(matrix_function)
    if real_input and real_symbol:
        out = out.real
    out = np.exp(f.rho * f.t)[:, None] * out
    if rows == f.n_components:
        return f.with_samples(out)
    return WeightedSignal(f.t, out, f.rho)


def has_real_coefficients(r: RationalMatrixFunction) -> bool:
    """Whether no coefficient of ``r`` has a complex dtype."""
    return not any(np.iscomplexobj(c) for c in (*r.num, r.den))


def validate_realization(
    r: RationalMatrixFunction,
    real: StateSpaceRealization,
    probe: WeightedSignal,
) -> float:
    """Maximum relative deviation between the two computation paths.

    The realization is marched with an exponential one-sided integrator on
    the probe grid; the reference is the frequency-domain application of the
    same function.  The probe must be smooth and decay inside its window.
    """
    states = exp_march_linear(real.a, real.b, probe.samples, probe.dt)
    direct = probe.samples @ real.d.T + states @ real.c.T
    reference = apply_symbol_fl(r, probe).samples
    scale = float(np.max(np.abs(reference)))
    if scale == 0.0:
        return float(np.max(np.abs(direct)))
    return float(np.max(np.abs(direct - reference)) / scale)


def verify_skew_adjoint(a_h, n_pairs: int = 100, seed: int = 0) -> float:
    """Maximum relative pairing residual |<A u, w> + <u, A w>| over random pairs."""
    a_h = sp.csr_matrix(a_h)
    n = a_h.shape[0]
    scale = sp.linalg.norm(a_h, 1)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_pairs):
        u = rng.standard_normal(n)
        w = rng.standard_normal(n)
        residual = abs(float((a_h @ u) @ w + u @ (a_h @ w)))
        worst = max(worst, residual / (np.linalg.norm(u) * np.linalg.norm(w) * scale))
    return worst


@pytest.fixture
def probe() -> WeightedSignal:
    return make_probe()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def horner_per_point(r, z):
    """Numerator over denominator of ``r`` at the points z, built as the
    former out-of-place Horner loop did."""
    z = np.asarray(z)
    num = np.zeros(z.shape + r.dims, dtype=np.result_type(z.dtype, r.num[0].dtype, float))
    for coeff in reversed(r.num):
        num = num * z[..., None, None] + coeff
    den = np.zeros(z.shape, dtype=np.result_type(z.dtype, r.den.dtype, float))
    for c in reversed(r.den):
        den = den * z + c
    return num / den[..., None, None]


def transfer_mismatch_per_frequency(r, real):
    """(worst, scale) of the realization self check, one frequency at a time."""
    pole_mags = np.abs(_pole_terms(r)[0])
    ref = max(float(np.max(pole_mags)) if pole_mags.size else 1.0, 1.0)
    freqs = 1j * ref * np.logspace(-2, 2, 32) + 0.311 * ref
    scale = 0.0
    worst = 0.0
    for s in freqs:
        want = horner_per_point(r, 1.0 / s)
        if real.n_states == 0:
            got = real.d.astype(complex)
        else:
            got = real.d + real.c @ np.linalg.solve(s * np.eye(real.n_states) - real.a, real.b)
        scale = max(scale, float(np.max(np.abs(want))))
        worst = max(worst, float(np.max(np.abs(want - got))))
    return worst, scale


def full_symbol(cell, z):
    """The full material symbol M(z) = mass + z * diag(0, 0, a1(z), a2(z))
    of ``cell`` at the points z, built from ``mass()``, ``theta_damping``
    and ``flux_resistance``."""
    z = np.asarray(z)
    mats = np.zeros(z.shape + cell.mass().shape, dtype=complex) + cell.mass()
    for block, part in zip(_block_slices(cell.block_dims)[2:],
                           (cell.theta_damping, cell.flux_resistance)):
        mats[..., block, block] += z[..., None, None] * horner_per_point(part, z)
    return mats


def line_samples(rho0, n_samples=257, decades=(-3, 6)):
    """Points 1/z = rho0 + i t of the line, t = 0 first, then a log-spaced
    positive half and its negative."""
    half = max((n_samples - 1) // 2, 1)
    t_pos = rho0 * np.logspace(*decades, half)
    return 1j * np.concatenate([[0.0], t_pos, -t_pos]) + rho0


def symbol_boundary_per_point(cells, rho0, n_samples=257):
    """(min_eigenvalue, worst_z) of the symbol sampling on the line
    Re 1/z = rho0, one cell and point at a time, after the same guards: a
    live pole p of a1 or a2 with Re p >= rho0 gives (-inf, 1/p), a1's
    before a2's, an indefinite M(0) (-inf, 0j).  Each point's matrix is
    rho0 * M(0) plus the Hermitian parts of a1(z) and a2(z) on their
    blocks."""
    z_inv = line_samples(rho0, n_samples)
    z = 1.0 / z_inv
    min_eig = np.inf
    worst_z = None
    for cell in cells:
        parts = (cell.theta_damping, cell.flux_resistance)
        poles = [p for part in parts for p in live_poles_per_pole(part) if p.real >= rho0]
        if poles:
            return -np.inf, complex(1.0 / poles[0])
        eigs = np.linalg.eigvalsh(cell.mass())
        if eigs[0] < -1e-10 * max(np.max(np.abs(eigs)), 1e-300):
            return -np.inf, 0j
        blocks = _block_slices(cell.block_dims)[2:]
        for k in range(z.size):
            mat = (rho0 * cell.mass()).astype(complex)
            for block, part in zip(blocks, parts):
                mat[block, block] += _herm(horner_per_point(part, z[k]))
            lowest = np.linalg.eigvalsh(mat)[0]
            if lowest < min_eig:
                min_eig = float(lowest)
                worst_z = complex(z[k])
    return min_eig, worst_z


def dense_line_minimum(cells, rho0, n_points=20001, decades=(-4, 7)):
    """Smallest eigenvalue of the Hermitian part of z^{-1} M(z), the full
    symbol evaluated densely, over ``n_points`` points of the line
    Re 1/z = rho0, t over eleven decades by default."""
    z_inv = line_samples(rho0, n_points, decades)
    lowest = np.inf
    for cell in cells:
        mats = z_inv[:, None, None] * full_symbol(cell, 1.0 / z_inv)
        herm = 0.5 * (mats + np.conj(np.swapaxes(mats, -1, -2)))
        lowest = min(lowest, float(np.min(np.linalg.eigvalsh(herm)[:, 0])))
    return lowest


def _pole_terms(r):
    """(poles, phi(p), psi'(p)) of R(1/s) = phi(s) / psi(s), pole by pole."""
    num_degree, den_degree = len(r.num) - 1, r.den.size - 1
    poles = np.asarray([1.0 / root for root in (
        np.polynomial.Polynomial(r.den).roots() if den_degree > 0 else [])]
        + [0.0] * max(num_degree - den_degree, 0), dtype=complex)
    deg = max(num_degree, den_degree)
    phi = np.zeros((deg + 1,) + r.dims, dtype=complex)
    for k, m in enumerate(r.num):
        phi[deg - k] += m
    psi = np.zeros(deg + 1, dtype=complex)
    for k, c in enumerate(r.den):
        psi[deg - k] += c
    dpsi = np.polynomial.Polynomial(psi).deriv()
    return poles, [np.tensordot(p ** np.arange(deg + 1), phi, axes=(0, 0)) for p in poles], \
        [dpsi(p) for p in poles]


def _live_terms(r):
    """(pole, phi(p), psi'(p)) of the poles whose residue the numerator does
    not cancel (or where psi' vanishes), one pole at a time."""
    scale = max(float(np.max(np.abs(r.num[0]))), float(np.max(np.abs(r.num[0] / r.den[0]))), 1.0)
    return [(p, phi, slope) for p, phi, slope in zip(*_pole_terms(r))
            if slope == 0 or np.max(np.abs(phi)) > 1e-12 * scale * abs(slope)]


def live_poles_per_pole(r):
    return [p for p, _, _ in _live_terms(r)]


def realize_per_pole(r):
    """The partial-fraction realization of ``r``, one pole at a time."""
    d = r.num[0] / r.den[0]
    rows, cols = r.dims
    a_blocks, b_blocks, c_blocks = [], [], []
    for pole, phi, slope in _live_terms(r):
        u, s, vh = np.linalg.svd(phi / slope)
        rank = int(np.sum(s > 1e-12 * s[0]))
        root_s = np.sqrt(s[:rank])
        c_blocks.append(u[:, :rank] * root_s)
        b_blocks.append(root_s[:, None] * vh[:rank])
        a_blocks.append(np.full(rank, pole))
    if a_blocks:
        a, b, c = np.diag(np.concatenate(a_blocks)), np.vstack(b_blocks), np.hstack(c_blocks)
    else:
        a, b, c = np.zeros((0, 0)), np.zeros((0, cols)), np.zeros((rows, 0))
    if (np.max(np.abs(a.imag)) if a.size else 0.0) < 1e-14 and \
            (np.max(np.abs(b.imag)) if b.size else 0.0) < 1e-12 and \
            (np.max(np.abs(c.imag)) if c.size else 0.0) < 1e-12 and has_real_coefficients(r):
        a, b, c, d = a.real, b.real, c.real, np.asarray(d).real
    return StateSpaceRealization(np.atleast_2d(d), a, b, c)


def _herm(a):
    return 0.5 * (a + a.conj().T)


def classify_per_cell(law):
    lam_min, lam_max = np.inf, 0.0
    for cell in law.cells:
        eigs = np.linalg.eigvalsh(cell.mass())
        lam_min = min(lam_min, float(eigs[0]))
        lam_max = max(lam_max, float(eigs[-1]))
    return "generic" if lam_min > SPECTRAL_CUTOFF * lam_max else "degenerate"


def condition_rho_per_cell(law, rho):
    """(min_eigenvalue, witness) of rho * M(0) + Re M'(0), one cell at a
    time, M'(0) = diag(0, 0, a1(0), a2(0))."""
    best = None
    for index, cell in enumerate(law.cells):
        values = [r.num[0] / r.den[0] for r in (cell.theta_damping, cell.flux_resistance)]
        m1 = np.zeros(cell.mass().shape, dtype=np.result_type(*values))
        for block, value in zip(_block_slices(cell.block_dims)[2:], values):
            m1[block, block] = value
        eigvals, eigvecs = np.linalg.eigh(rho * cell.mass() + _herm(m1))
        if best is None or eigvals[0] < best.eigenvalue:
            best = Witness(index, float(eigvals[0]), eigvecs[:, 0])
    return best.eigenvalue, best


def pole_floor_per_cell(law):
    return max((float(p.real) for cell in law.cells
                for r in (cell.theta_damping, cell.flux_resistance)
                for p in live_poles_per_pole(r)), default=-np.inf)


def certify_per_cell(law):
    """The certification report with every check run one cell at a time."""
    witnesses = []
    inconclusive = False
    checks = ("rho0_positive", "stiffness_positive", "heat_capacity_positive",
              "flux_inertia_pd_on_range", "flux_resistance_pd_on_kernel",
              "condition_rho_search")
    for index, cell in enumerate(law.cells):
        sl = _block_slices(cell.block_dims)

        def embed(vec, block):
            full = np.zeros(sl[-1].stop, dtype=complex)
            full[sl[block]] = vec
            return full

        for attr, block in (("rho0", 0), ("stiffness", 1)):
            block = np.asarray(getattr(cell, attr), dtype=complex)
            eigvals, eigvecs = np.linalg.eigh(_herm(block))
            scale = max(float(np.max(np.abs(eigvals))), 1e-300)
            if eigvals[0] <= SPECTRAL_CUTOFF * scale:
                witnesses.append(Witness(index, float(eigvals[0]), embed(eigvecs[:, 0], block)))
        eigvals, eigvecs = np.linalg.eigh(_herm(np.asarray(cell.heat_capacity, dtype=complex)))
        scale = max(float(np.max(np.abs(eigvals))), 1e-300)
        if eigvals[0] < -SPECTRAL_CUTOFF * scale:
            witnesses.append(Witness(index, float(eigvals[0]), embed(eigvecs[:, 0], 2)))
        elif eigvals[0] <= SPECTRAL_CUTOFF * scale:
            inconclusive = True
        eigvals, eigvecs = np.linalg.eigh(_herm(np.asarray(cell.flux_inertia, dtype=complex)))
        on_range = np.abs(eigvals) > SPECTRAL_CUTOFF * float(np.max(np.abs(eigvals)))
        for i in np.flatnonzero(on_range & (eigvals < 0)):
            witnesses.append(Witness(index, float(eigvals[i]), embed(eigvecs[:, i], 3)))
        kernel = eigvecs[:, ~on_range]
        if kernel.shape[1] > 0:
            a2 = cell.flux_resistance
            re_a2 = _herm(a2.num[0] / a2.den[0])
            a2_scale = float(np.max(np.abs(np.linalg.eigvalsh(re_a2))))
            k_eigvals, k_eigvecs = np.linalg.eigh(_herm(kernel.conj().T @ re_a2 @ kernel))
            if a2_scale == 0.0 or k_eigvals[0] <= SPECTRAL_CUTOFF * a2_scale:
                witnesses.append(Witness(index, float(k_eigvals[0]),
                                         embed(kernel @ k_eigvecs[:, 0], 3)))
    classification = classify_per_cell(law)
    if witnesses:
        witnesses.sort(key=lambda w: w.eigenvalue)
        return WellPosednessReport("violated", 0.0, float("inf"), classification,
                                   tuple(witnesses), checks)
    if not inconclusive:
        grid = _rho_grid()
        for rho in grid[grid > pole_floor_per_cell(law)]:
            min_eig, _ = condition_rho_per_cell(law, rho)
            if min_eig > 0.0:
                return WellPosednessReport("satisfied", float(min_eig), float(rho),
                                           classification, (), checks)
    return WellPosednessReport("inconclusive", 0.0, float("inf"), classification, (), checks)


def mass_matrix_lil(problem):
    """The assembled mass matrix with its congruence factor set entry by
    entry in a ``lil_matrix``."""
    op = problem.op
    n = op.n_dof
    sl = op.block_slices()
    avg = operators_per_cell(op.grid)[1].tocoo()
    lmat = sp.lil_matrix((n, n))
    lmat.setdiag(1.0)
    gamma_f = problem.face_coeffs["coupling"]
    zeta_f = problem.face_coeffs["flux_coupling"]
    for r, c, v in zip(avg.row, avg.col, avg.data):
        lmat[sl[1].start + r, sl[2].start + c] = gamma_f[r] * v
        lmat[sl[3].start + r, sl[2].start + c] = zeta_f[r] * v
    lmat = lmat.tocsr()
    diag = np.concatenate([problem.node_coeffs["rho0"], 1.0 / problem.face_coeffs["stiffness"],
                           problem.node_coeffs["heat_capacity"],
                           problem.face_coeffs["flux_inertia"]])
    m = (lmat.T @ sp.diags(diag) @ lmat).tocsr()
    return ((m + m.T) * 0.5).tocsr()


def operators_per_cell(grid):
    """(d_grad, node_to_face) assembled one cell at a time from COO lists."""
    n = grid.n_cells
    inv_h = 1.0 / grid.h
    rows, cols, vals = [], [], []
    for f in range(n):
        right = f + 1  # node index of the right end of cell f (1..n-1 interior)
        if right <= n - 1:
            rows.append(f)
            cols.append(right - 1)
            vals.append(inv_h)
        left = f
        if left >= 1:
            rows.append(f)
            cols.append(left - 1)
            vals.append(-inv_h)
    d_grad = sp.csr_matrix((vals, (rows, cols)), shape=(n, n - 1))
    avg_rows, avg_cols, avg_vals = [], [], []
    for f in range(n):
        for node in (f, f + 1):
            if 1 <= node <= n - 1:
                avg_rows.append(f)
                avg_cols.append(node - 1)
                avg_vals.append(0.5)
    node_to_face = sp.csr_matrix((avg_vals, (avg_rows, avg_cols)), shape=(n, n - 1))
    return d_grad, node_to_face


def skew_operator(grid):
    """The block operator A_h as a CSR matrix: the gradient of
    :func:`operators_per_cell` and its negative transpose, coupling
    (v, sigma) and (theta, q)."""
    d_grad = operators_per_cell(grid)[0]
    grad_t = d_grad.T.tocsr()
    return sp.bmat([[None, grad_t, None, None],
                    [-d_grad, None, None, None],
                    [None, None, None, -grad_t],
                    [None, None, d_grad, None]], format="csr")


def cell_order(op):
    """Dof indices cell by cell: sigma_j, q_j, v_j, theta_j for cell j, whose
    right end is node j + 1; the last cell has only sigma and q."""
    sl = op.block_slices()
    order = []
    for j in range(op.grid.n_cells):
        order += [sl[1].start + j, sl[3].start + j]
        if j < op.grid.n_cells - 1:
            order += [sl[0].start + j, sl[2].start + j]
    return np.array(order)


def bandwidth(matrix, order):
    """Largest distance of a stored entry from the diagonal once rows and
    columns follow ``order``."""
    place = np.argsort(order)
    a = sp.coo_matrix(matrix)
    return int(np.max(np.abs(place[a.row] - place[a.col])))


def band_of(matrix, order, band=4):
    """``matrix`` in BLAS band storage once rows and columns follow
    ``order``, filled entry by entry: entry (i, j) at ``[band + i - j, j]``."""
    place = np.argsort(order)
    a = sp.coo_matrix(matrix)
    ab = np.zeros((2 * band + 1, order.size), order="F")
    for r, c, value in zip(place[a.row], place[a.col], a.data):
        assert abs(r - c) <= band
        ab[band + r - c, c] = value
    return ab


def from_band(ab, order, band=4):
    """The CSR matrix in block order whose band in ``order`` is ``ab``."""
    n = order.size
    rows, cols = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    near = np.abs(rows - cols) <= band
    i, j = rows[near], cols[near]
    return sp.csr_matrix((ab[band + i - j, j], (order[i], order[j])), shape=(n, n))


def banded_solver(matrix, order, band=4):
    """The solve of ``matrix`` through one LAPACK band LU in ``order``."""
    place = np.argsort(order)
    ab = np.zeros((3 * band + 1, order.size))
    ab[band:] = band_of(matrix, order, band)
    lu, piv, info = dgbtrf(ab, band, band)
    assert info == 0
    return lambda rhs: dgbtrs(lu, band, band, rhs[order], piv)[0][place]


def band_product(ab, u, y, band=4):
    """``y + A u`` by ``dgbmv`` for A in band storage ``ab``, over at least
    ``2 band + 1`` rows (the least scipy's wrapper takes)."""
    n = u.size
    rows = max(n, 2 * band + 1)
    y = np.concatenate([y, np.zeros(rows - n)])
    return dgbmv(rows, n, band, band, 1.0, ab, u, beta=1.0, y=y)[:n]


def two_branch_system(problem):
    """(step matrix, right-hand-side mass, aux decay, aux growth) with one
    hand-written branch per scheme: backward Euler folds the aux correction
    into ``M/dt + K``, the trapezoidal rule into ``K/2``."""
    dt = problem.dt
    chain = problem.aux_chain
    zero_order = sp.diags(problem.feedthrough) + skew_operator(problem.op.grid)
    mass = from_band(problem.mass_band, cell_order(problem.op))
    correction = np.zeros(problem.op.n_dof)
    if problem.scheme == BACKWARD_EULER:
        decay = 1.0 / (1.0 - dt * chain.poles)
        np.add.at(correction, chain.owner, dt * chain.gain_out * chain.gain_in * decay)
        step = mass / dt + zero_order + sp.diags(correction)
        return step, mass / dt, decay, None
    half = 0.5 * dt * chain.poles
    decay = 1.0 / (1.0 - half)
    np.add.at(correction, chain.owner, 0.25 * dt * chain.gain_out * chain.gain_in * decay)
    k_half = 0.5 * zero_order + sp.diags(correction)
    return mass / dt + k_half, mass / dt - k_half, decay, 1.0 + half


def march_two_branch(problem):
    """(states, aux) of the march with one hand-written branch per scheme
    (:func:`two_branch_system`); the right-hand-side mass acts through its
    band in cell order (:func:`band_product`), aux outputs scatter with
    ``np.add.at``."""
    dt = problem.dt
    chain = problem.aux_chain
    n = problem.op.n_dof
    order = cell_order(problem.op)
    place = np.argsort(order)
    step, rhs_mass, decay, grow = two_branch_system(problem)
    solve = banded_solver(step, order)
    rhs_band = band_of(rhs_mass, order)
    f = problem.forcing.samples
    states = np.zeros((f.shape[0], n))
    aux = np.zeros((f.shape[0], chain.n_aux))
    for k in range(f.shape[0] - 1):
        u, x = states[k], aux[k]
        if problem.scheme == BACKWARD_EULER:
            forcing = f[k + 1]
        else:
            forcing = 0.5 * (f[k + 1] + f[k])
        rhs = band_product(rhs_band, u[order], forcing[order])[place]
        np.subtract.at(rhs, chain.owner, chain.gain_out * decay * x)
        states[k + 1] = solve(rhs)
        if problem.scheme == BACKWARD_EULER:
            aux[k + 1] = decay * (x + dt * chain.gain_in * states[k + 1][chain.owner])
        else:
            aux[k + 1] = decay * (grow * x + 0.5 * dt * chain.gain_in
                                  * (states[k + 1][chain.owner] + u[chain.owner]))
    return states, aux


def displacement_two_branch(problem, v):
    """The velocity's causal antiderivative, one formula per scheme."""
    dt = problem.dt
    if problem.scheme == BACKWARD_EULER:
        return dt * np.cumsum(v, axis=0) - dt * v[0]
    u = np.zeros_like(v)
    u[1:] = 0.5 * dt * np.cumsum(v[1:] + v[:-1], axis=0)
    return u


def weighted_norm_whole(f: WeightedSignal) -> float:
    """The weighted norm as one whole-array formula: every sample scaled by
    the power of two of the peak, squared, summed per row."""
    magnitude = np.abs(f.samples)
    _, exponent = np.frexp(np.max(magnitude, initial=0.0))
    unit = np.ldexp(magnitude, -exponent)
    density = np.exp(-2.0 * f.rho * f.t) * np.sum(unit ** 2, axis=1)
    return float(np.ldexp(np.sqrt(np.trapezoid(density, dx=f.dt)), exponent))


def bound_numbers_whole(problem, trajectory, c_used: float) -> tuple:
    """``(lhs, rhs, tail_ratio)`` of the bound check from whole-array
    formulas: the envelope is the row peak of the weighted states."""
    h = problem.op.grid.h
    lhs = float(np.sqrt(h) * weighted_norm_whole(
        WeightedSignal(trajectory.t, trajectory.states, problem.rho)))
    amplitudes = problem.forcing.amplitudes
    r = np.linalg.qr(problem.forcing.profiles.T, mode="r")
    rhs = float(np.sqrt(h) * weighted_norm_whole(
        amplitudes.with_samples(amplitudes.samples @ r.T))) / c_used
    weighted = np.exp(-problem.rho * trajectory.t)[:, None] * trajectory.states
    envelope = np.max(np.abs(weighted), axis=1)
    return lhs, rhs, float(envelope[-1]) / float(np.max(envelope))


def leakage_whole(problem, t0: float, trajectory) -> float:
    """The causality leakage from the whole-array magnitude of the states."""
    magnitude = np.max(np.abs(trajectory.states), axis=1)
    before = magnitude[trajectory.t < t0 - 2.0 * problem.dt]
    return float(np.max(before)) / float(np.max(magnitude))
