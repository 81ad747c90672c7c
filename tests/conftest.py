"""Shared fixtures: the standard probe pulse, catalog law builders, and the
former one-point-at-a-time versions of batched computations (the Simpson
exponential step, the per-frequency realization check and the per-point
symbol sampling on the boundary line), kept as references."""

from __future__ import annotations

import numpy as np
import pytest

from thermoevo import (
    ModelFamily,
    ModelSpec,
    WeightedSignal,
    assemble_material_law,
    canonical_spec,
)
from thermoevo._integrators import phi_matrices
from thermoevo.rational import _poles_in_s

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


def spec_with(family, **overrides) -> ModelSpec:
    coeffs = dict(canonical_spec(family).coefficients)
    coeffs.update(overrides)
    return ModelSpec(family, coeffs)


def uncoupled_law(family):
    """Canonical law with the thermoelastic coupling turned off."""
    return assemble_material_law(spec_with(family, Gamma=0.0))


def negated_law(family):
    return assemble_material_law(spec_with(family, **NEGATED_COEFFS[family]))


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
    pole_mags = np.abs(_poles_in_s(r))
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


def symbol_boundary_per_point(symbols, rho0, n_samples=257):
    """(min_eigenvalue, worst_z) of the symbol sampling on the line
    Re 1/z = rho0, one point at a time, after the same guards: a pole p
    with Re p >= rho0 gives (-inf, 1/p), an indefinite Herm M(0) (-inf, 0j)."""
    half = max((n_samples - 1) // 2, 1)
    t_pos = rho0 * np.logspace(-3, 6, half)
    t_grid = np.concatenate([[0.0], t_pos, -t_pos])
    z_inv = 1j * t_grid + rho0
    z = 1.0 / z_inv
    min_eig = np.inf
    worst_z = None
    for sym in symbols:
        poles = [p for p in _poles_in_s(sym) if p.real >= rho0]
        if poles:
            return -np.inf, complex(1.0 / poles[0])
        m0 = sym.at_zero()
        eigs = np.linalg.eigvalsh(0.5 * (m0 + m0.conj().T))
        if eigs[0] < -1e-10 * max(np.max(np.abs(eigs)), 1e-300):
            return -np.inf, 0j
        for k in range(t_grid.size):
            mat = z_inv[k] * horner_per_point(sym, z[k])
            lowest = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))[0]
            if lowest < min_eig:
                min_eig = float(lowest)
                worst_z = complex(z[k])
    return min_eig, worst_z


def dense_line_minimum(symbols, rho0, n_points=20001):
    """Smallest eigenvalue of the Hermitian part of z^{-1} M(z) over
    ``n_points`` points of the line Re 1/z = rho0, t over eleven decades."""
    half = (n_points - 1) // 2
    t_pos = rho0 * np.logspace(-4, 7, half)
    z_inv = 1j * np.concatenate([[0.0], t_pos, -t_pos]) + rho0
    lowest = np.inf
    for sym in symbols:
        mats = z_inv[:, None, None] * horner_per_point(sym, 1.0 / z_inv)
        herm = 0.5 * (mats + np.conj(np.swapaxes(mats, -1, -2)))
        lowest = min(lowest, float(np.min(np.linalg.eigvalsh(herm)[:, 0])))
    return lowest
