"""Shared fixtures: the standard probe pulse, catalog law builders, the FFT
application of a rational symbol, the instantaneous block and the full
material symbol of a cell built from its coefficients and parts, the
realization and skew-adjointness checks, and the former one-at-a-time
versions of batched computations, kept as references: the Simpson
exponential step, the per-frequency realization check, the per-point symbol
sampling on the boundary line, the per-cell certification, condition and
classification loops, the per-pole realization, the entry-by-entry
congruence factor of the assembled mass matrix, the per-cell loops of the
difference and averaging matrices and the block operator assembled from
them (all as ``scipy.sparse`` matrices), and the two-branch backward-Euler
/ trapezoidal stepper with its displacement rule, factorized through its
own per-cell loop of the band order, and the whole-array formulas of the
weighted norm, the bound check's numbers and the causality leakage, which
the library takes in row chunks."""

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
from thermoevo.evolution import skew_entries
from thermoevo.errors import InputError, PoleProximityError
from thermoevo.models import SPECTRAL_CUTOFF
from thermoevo.rational import RationalFunction, StateSpaceRealization
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


def apply_symbol_fl(symbol, f: WeightedSignal) -> WeightedSignal:
    """Apply a rational symbol of the inverse time derivative via FFT.

    The signal is unweighted with exp(-rho*t), transformed, each component
    multiplied per frequency by ``symbol`` evaluated at z = 1/(i*omega +
    rho), and transformed back.  Zero padding to the next power of two (at
    least twice the signal length) suppresses circular wrap-around so that
    causality is preserved up to spectral leakage.

    Raises
    ------
    WindowDecayError
        If the weighted samples do not decay at the window ends.
    PoleProximityError
        If the symbol denominator nearly vanishes at a grid frequency.
    """
    if not isinstance(symbol, RationalFunction):
        raise InputError("symbol must be a RationalFunction")

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

    den_scale = max(float(np.max(np.abs(symbol.den))), 1.0)
    den_vals = np.polynomial.polynomial.polyval(z, symbol.den)
    if np.min(np.abs(den_vals)) < POLE_TOL * den_scale:
        worst = omega[int(np.argmin(np.abs(den_vals)))]
        raise PoleProximityError(
            f"symbol denominator vanishes near grid frequency omega={worst:.6g}"
        )

    spectrum = np.fft.fft(weighted, n=n_fft, axis=0)
    out_spec = horner_per_point(symbol, z)[:, None] * spectrum
    out = np.fft.ifft(out_spec, axis=0)[:n]
    if not np.iscomplexobj(f.samples):
        out = out.real
    return f.with_samples(np.exp(f.rho * f.t)[:, None] * out)


def march_realization(real: StateSpaceRealization, f: WeightedSignal) -> np.ndarray:
    """``real`` applied to each component of ``f``, its states marched by the
    exponential one-sided integrator."""
    states = exp_march_linear(np.diag(real.a), real.b[:, None], f.samples[:, None, :], f.dt)
    return f.samples * real.d + real.c @ states


def validate_realization(
    r: RationalFunction,
    real: StateSpaceRealization,
    probe: WeightedSignal,
) -> float:
    """Maximum relative deviation between the two computation paths.

    The realization is marched with an exponential one-sided integrator on
    the probe grid; the reference is the frequency-domain application of the
    same function.  The probe must be smooth and decay inside its window.
    """
    direct = march_realization(real, probe)
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
    num = np.zeros(z.shape, dtype=np.result_type(z.dtype, float))
    for c in reversed(r.num):
        num = num * z + c
    den = np.zeros(z.shape, dtype=np.result_type(z.dtype, float))
    for c in reversed(r.den):
        den = den * z + c
    return num / den


def transfer_mismatch_per_frequency(r, real):
    """(worst, scale) of the realization self check, one frequency at a time."""
    pole_mags = np.abs(_pole_terms(r)[0])
    ref = max(float(np.max(pole_mags)) if pole_mags.size else 1.0, 1.0)
    freqs = 1j * ref * np.logspace(-2, 2, 32) + 0.311 * ref
    scale = 0.0
    worst = 0.0
    for s in freqs:
        want = horner_per_point(r, 1.0 / s)
        got = complex(real.d)
        if real.n_states:
            got += real.c @ np.linalg.solve(s * np.eye(real.n_states) - np.diag(real.a), real.b)
        scale = max(scale, abs(want))
        worst = max(worst, abs(want - got))
    return worst, scale


def cell_parts(law, j):
    """Cell j's temperature damping a1 and flux resistance a2."""
    return law.a1[law.a1_index[j]], law.a2[law.a2_index[j]]


def cell_mass(law, j):
    """Cell j's instantaneous block L^T diag(rho0, 1/C, nu, a0) L over (v,
    sigma, theta, q), L the unit triangular factor with Gamma at (sigma,
    theta) and zeta0 at (q, theta), symmetrized; one cell at a time."""
    lmat = np.eye(4)
    lmat[1, 2], lmat[3, 2] = law.Gamma[j], law.zeta0[j]
    core = np.diag([law.rho0[j], 1.0 / law.C[j], law.nu[j], law.a0[j]])
    m = lmat.T @ core @ lmat
    return 0.5 * (m + m.T)


def full_symbol(law, j, z):
    """The full material symbol M(z) = mass + z * diag(0, 0, a1(z), a2(z))
    of cell j of ``law`` at the points z, built from :func:`cell_mass` and
    :func:`cell_parts`."""
    z = np.asarray(z)
    mass = cell_mass(law, j)
    mats = np.zeros(z.shape + mass.shape, dtype=complex) + mass
    for k, part in zip((2, 3), cell_parts(law, j)):
        mats[..., k, k] += z * horner_per_point(part, z)
    return mats


def line_samples(rho0, n_samples=257, decades=(-3, 6)):
    """Points 1/z = rho0 + i t of the line, t = 0 first, then a log-spaced
    positive half and its negative."""
    half = max((n_samples - 1) // 2, 1)
    t_pos = rho0 * np.logspace(*decades, half)
    return 1j * np.concatenate([[0.0], t_pos, -t_pos]) + rho0


def simple_real_roots(min_size, max_size):
    """Hypothesis strategy: distinct real denominator roots in z, 1/20 to 20
    in size and apart by a quarter of the larger, so simple real poles
    1/root in s, far enough apart for the partial fractions to pass the
    transfer check."""
    import hypothesis.strategies as st
    return st.lists(st.floats(0.05, 20.0) | st.floats(-20.0, -0.05), min_size=min_size,
                    max_size=max_size).filter(lambda r: all(
                        abs(a - b) > 0.25 * max(abs(a), abs(b)) for i, a in enumerate(r)
                        for b in r[:i]))


def line_lowest(law, j, rho0, t):
    """Smallest eigenvalue of the Hermitian part of z^{-1} M(z), the full
    symbol of cell j of ``law``, at the points 1/z = rho0 + i t."""
    z_inv = 1j * np.asarray(t, dtype=float) + rho0
    mats = z_inv[:, None, None] * full_symbol(law, j, 1.0 / z_inv)
    herm = 0.5 * (mats + np.conj(np.swapaxes(mats, -1, -2)))
    return np.linalg.eigvalsh(herm)[:, 0]


def dense_line_minimum(law, rho0, n_points=20001, decades=(-4, 7)):
    """Smallest eigenvalue of the Hermitian part of z^{-1} M(z), the full
    symbol evaluated densely, over ``n_points`` points of the line
    Re 1/z = rho0, t over eleven decades by default, least over the cells."""
    t = line_samples(rho0, n_points, decades).imag
    return min(float(np.min(line_lowest(law, j, rho0, t))) for j in range(law.n_cells))


def refined_line_minimum(law, rho0, n_points=20001, decades=(-4, 7), steps=120):
    """:func:`dense_line_minimum` of real laws (whose line is symmetric in
    t), refined by golden-section search between the neighbours of each
    cell's least sample with t >= 0, and with the limit t -> inf,
    rho0 * M(0) plus the parts at z = 0 on their blocks."""
    t = line_samples(rho0, n_points, decades).imag[:(n_points + 1) // 2]
    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    lowest = np.inf
    for j in range(law.n_cells):
        values = line_lowest(law, j, rho0, t)
        k = int(np.argmin(values))
        lo, hi = t[max(k - 1, 0)], t[min(k + 1, t.size - 1)]
        for _ in range(steps):
            a, b = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
            f_a, f_b = line_lowest(law, j, rho0, [a, b])
            lo, hi = (lo, b) if f_a < f_b else (a, hi)
        limit = (rho0 * cell_mass(law, j)).astype(complex)
        for block, part in zip((2, 3), cell_parts(law, j)):
            limit[block, block] += horner_per_point(part, 0.0).real
        lowest = min(lowest, float(values[k]),
                     float(np.min(line_lowest(law, j, rho0, [lo, hi]))),
                     float(np.linalg.eigvalsh(limit)[0]))
    return lowest


def _pole_terms(r):
    """(poles, phi(p), psi'(p)) of R(1/s) = phi(s) / psi(s), pole by pole."""
    num_degree, den_degree = r.num.size - 1, r.den.size - 1
    poles = np.asarray([1.0 / root for root in (
        np.polynomial.Polynomial(r.den).roots() if den_degree > 0 else [])]
        + [0.0] * max(num_degree - den_degree, 0), dtype=complex)
    deg = max(num_degree, den_degree)
    phi = np.zeros(deg + 1, dtype=complex)
    for k, c in enumerate(r.num):
        phi[deg - k] += c
    psi = np.zeros(deg + 1, dtype=complex)
    for k, c in enumerate(r.den):
        psi[deg - k] += c
    dpsi = np.polynomial.Polynomial(psi).deriv()
    return poles, [p ** np.arange(deg + 1) @ phi for p in poles], [dpsi(p) for p in poles]


def _live_terms(r):
    """(pole, phi(p), psi'(p)) of the poles whose residue the numerator does
    not cancel (or where psi' vanishes), one pole at a time."""
    scale = float(np.max(np.abs(r.num)))
    return [(p, phi, slope) for p, phi, slope in zip(*_pole_terms(r))
            if slope == 0 or abs(phi) > 1e-12 * scale * abs(slope)]


def live_poles_per_pole(r):
    return [p for p, _, _ in _live_terms(r)]


def realize_per_pole(r):
    """The partial-fraction realization of ``r``, one pole at a time: a pole
    with a non-zero residue rho gets one state, its input gain sqrt|rho| and
    its output gain the rest of rho, sign(rho) sqrt|rho| for a real one."""
    terms = [(pole, phi / slope) for pole, phi, slope in _live_terms(r) if phi != 0]
    poles = np.array([pole for pole, _ in terms], dtype=complex)
    residues = np.array([residue for _, residue in terms], dtype=complex)
    root = np.sqrt(np.abs(residues))
    if np.all(np.abs(poles.imag) < 1e-14) and np.all(np.abs(residues.imag) < 1e-12 * root):
        poles, residues = poles.real, residues.real
    return StateSpaceRealization(float(r.num[0] / r.den[0]), poles, root, np.sign(residues) * root)


def _herm(a):
    return 0.5 * (a + a.conj().T)


def classify_per_cell(law):
    lam_min, lam_max = np.inf, 0.0
    for j in range(law.n_cells):
        eigs = np.linalg.eigvalsh(cell_mass(law, j))
        lam_min = min(lam_min, float(eigs[0]))
        lam_max = max(lam_max, float(eigs[-1]))
    return "generic" if lam_min > SPECTRAL_CUTOFF * lam_max else "degenerate"


def condition_rho_per_cell(law, rho):
    """(min_eigenvalue, witness) of rho * M(0) + Re M'(0), one cell at a
    time, M'(0) = diag(0, 0, a1(0), a2(0))."""
    best = None
    for index in range(law.n_cells):
        m1 = np.zeros((4, 4))
        for block, r in zip((2, 3), cell_parts(law, index)):
            m1[block, block] = r.num[0] / r.den[0]
        eigvals, eigvecs = np.linalg.eigh(rho * cell_mass(law, index) + _herm(m1))
        if best is None or eigvals[0] < best.eigenvalue:
            best = Witness(index, float(eigvals[0]), eigvecs[:, 0])
    return best.eigenvalue, best


def pole_floor_per_cell(law):
    return max((float(p.real) for j in range(law.n_cells) for r in cell_parts(law, j)
                for p in live_poles_per_pole(r)), default=-np.inf)


def certify_per_cell(law):
    """The certification report with every check run one cell at a time."""
    witnesses = []
    inconclusive = False
    checks = ("rho0_positive", "stiffness_positive", "heat_capacity_positive",
              "flux_inertia_pd_on_range", "flux_resistance_pd_on_kernel",
              "condition_rho_search")
    for index in range(law.n_cells):

        def embed(vec, block):
            full = np.zeros(4, dtype=complex)
            full[block] = vec[0]
            return full

        def as_block(name):
            return np.array([[getattr(law, name)[index]]], dtype=complex)

        for attr, block in (("rho0", 0), ("C", 1)):
            eigvals, eigvecs = np.linalg.eigh(_herm(as_block(attr)))
            scale = max(float(np.max(np.abs(eigvals))), 1e-300)
            if eigvals[0] <= SPECTRAL_CUTOFF * scale:
                witnesses.append(Witness(index, float(eigvals[0]), embed(eigvecs[:, 0], block)))
        eigvals, eigvecs = np.linalg.eigh(_herm(as_block("nu")))
        scale = max(float(np.max(np.abs(eigvals))), 1e-300)
        if eigvals[0] < -SPECTRAL_CUTOFF * scale:
            witnesses.append(Witness(index, float(eigvals[0]), embed(eigvecs[:, 0], 2)))
        elif eigvals[0] <= SPECTRAL_CUTOFF * scale:
            inconclusive = True
        eigvals, eigvecs = np.linalg.eigh(_herm(as_block("a0")))
        on_range = np.abs(eigvals) > SPECTRAL_CUTOFF * float(np.max(np.abs(eigvals)))
        for i in np.flatnonzero(on_range & (eigvals < 0)):
            witnesses.append(Witness(index, float(eigvals[i]), embed(eigvecs[:, i], 3)))
        kernel = eigvecs[:, ~on_range]
        if kernel.shape[1] > 0:
            a2 = cell_parts(law, index)[1]
            re_a2 = np.array([[a2.num[0] / a2.den[0]]])
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


def congruence_factor(problem):
    """The unit triangular congruence factor L of the mass matrix, set entry
    by entry in a ``lil_matrix``: gamma_f and zeta_f times the node-to-face
    average on the sigma and q rows."""
    op = problem.op
    n = op.n_dof
    sl = op.block_slices()
    avg = operators_per_cell(op.grid)[1].tocoo()
    lmat = sp.lil_matrix((n, n))
    lmat.setdiag(1.0)
    gamma_f = problem.face_coeffs["Gamma"]
    zeta_f = problem.face_coeffs["zeta0"]
    for r, c, v in zip(avg.row, avg.col, avg.data):
        lmat[sl[1].start + r, sl[2].start + c] = gamma_f[r] * v
        lmat[sl[3].start + r, sl[2].start + c] = zeta_f[r] * v
    return lmat.tocsr()


def mass_matrix_lil(problem):
    """The assembled mass matrix ``L^T diag(D) L`` with its congruence factor
    from :func:`congruence_factor`."""
    lmat = congruence_factor(problem)
    diag = np.concatenate([problem.node_coeffs["rho0"], 1.0 / problem.face_coeffs["C"],
                           problem.node_coeffs["nu"], problem.face_coeffs["a0"]])
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


def skew_matrix(op):
    """A_h as a CSR matrix in block order, built from the time stepper's own
    entries (:func:`~thermoevo.evolution.skew_entries`)."""
    rows, cols, values = skew_entries(op)
    return sp.csr_matrix((values, (rows, cols)), shape=(op.n_dof, op.n_dof))


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
    mass = mass_matrix_lil(problem)
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
