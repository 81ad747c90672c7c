"""Catalog of thermoelastic material laws.

Every supported model is reduced to the same two-part law: an instantaneous
Hermitian block ``mass`` acting under the time derivative, plus two rational
zero-order parts, the temperature damping a1(z) and the flux resistance
a2(z), that carry relaxation and lag effects on the theta and q blocks.
The block structure is fixed over the unknowns (v, sigma, theta_big, q):
velocity, stress, (possibly lag-relaxed) temperature, and heat flux.

Coefficients are cellwise (piecewise constant in space); scalar input means
a single uniform cell.  The catalog families are scalar-block; fully
matrix-valued blocks are supported for custom laws at the certification
level only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from ._integrators import exp_march_linear
from .errors import InputError
from .rational import RationalMatrixFunction, _live_poles, _stack_groups, realize_state_space
from .signals import WeightedSignal, antiderivative

__all__ = [
    "ModelFamily",
    "ModelSpec",
    "CellLaw",
    "MaterialLaw",
    "assemble_material_law",
    "zero_pattern",
    "recover_theta",
    "compute_entropy",
    "pattern_table",
    "canonical_spec",
    "BLOCK_NAMES",
]

BLOCK_NAMES = ("v", "sigma", "theta", "q")

#: the matrix coefficients of a cell law
_BLOCKS = ("rho0", "stiffness", "coupling", "heat_capacity", "flux_coupling", "flux_inertia")

#: relative spectral cutoff separating "zero" from "positive" eigenvalues
SPECTRAL_CUTOFF = 1e-10

GENERIC = "generic"
DEGENERATE = "degenerate"


class ModelFamily(str, Enum):
    CLASSICAL = "classical"
    LORD_SHULMAN = "lord_shulman"
    GREEN_NAGHDI_I = "green_naghdi_i"
    GREEN_NAGHDI_II = "green_naghdi_ii"
    GREEN_NAGHDI_III = "green_naghdi_iii"
    GREEN_LINDSAY = "green_lindsay"
    DPL_I = "dpl_i"
    DPL_II = "dpl_ii"
    CUSTOM = "custom"


_BASE_COEFFS = ("rho0", "nu", "C", "Gamma")

#: coefficient names each family accepts (and requires, unless in optional set)
_FAMILY_COEFFS = {
    ModelFamily.CLASSICAL: _BASE_COEFFS + ("kappa",),
    ModelFamily.LORD_SHULMAN: _BASE_COEFFS + ("kappa", "a0"),
    ModelFamily.GREEN_NAGHDI_I: _BASE_COEFFS + ("k",),
    ModelFamily.GREEN_NAGHDI_II: _BASE_COEFFS + ("k_star",),
    ModelFamily.GREEN_NAGHDI_III: _BASE_COEFFS + ("k", "k_star"),
    ModelFamily.GREEN_LINDSAY: ("rho0", "C", "Gamma", "kappa", "n0", "b", "d", "h"),
    ModelFamily.DPL_I: _BASE_COEFFS + ("kappa", "n1", "n2"),
    ModelFamily.DPL_II: _BASE_COEFFS + ("kappa", "n1", "n2"),
    ModelFamily.CUSTOM: _BASE_COEFFS + ("a0", "zeta0", "n0", "a1", "a2"),
}

_CUSTOM_OPTIONAL = {"a0", "zeta0", "n0", "a1", "a2"}

#: the only coefficients (of custom laws) that may be rational functions
_RATIONAL_COEFFS = {"a1", "a2"}


@dataclass(frozen=True)
class ModelSpec:
    """A named model family with its material coefficients.

    Coefficient values may be scalars (uniform) or sequences of per-cell
    values; all sequences must share one length.  Custom laws additionally
    accept square matrices (single cell) and rational functions for the
    zero-order entries.
    """

    family: ModelFamily
    coefficients: dict

    def __post_init__(self):
        family = ModelFamily(self.family)
        object.__setattr__(self, "family", family)
        allowed = _FAMILY_COEFFS[family]
        unknown = set(self.coefficients) - set(allowed)
        if unknown:
            raise InputError(
                f"coefficients {sorted(unknown)} are not accepted by family '{family.value}'"
            )
        optional = _CUSTOM_OPTIONAL if family is ModelFamily.CUSTOM else set()
        missing = set(allowed) - set(self.coefficients) - optional
        if missing:
            raise InputError(
                f"family '{family.value}' requires coefficients {sorted(missing)}"
            )
        rational_ok = _RATIONAL_COEFFS if family is ModelFamily.CUSTOM else set()
        for name, value in self.coefficients.items():
            if isinstance(value, RationalMatrixFunction) and name not in rational_ok:
                raise InputError(f"coefficient '{name}' cannot be a rational function")

    @property
    def n_cells(self) -> int:
        n = 1
        for value in self.coefficients.values():
            if isinstance(value, (list, tuple, np.ndarray)) and np.asarray(value).ndim == 1:
                m = np.asarray(value).shape[0]
                if n not in (1, m):
                    raise InputError("per-cell coefficient lists must share one length")
                n = max(n, m)
        return n


def _cell_values(value, n_cells: int) -> list:
    """``value`` in each of ``n_cells`` cells, converted once."""
    if isinstance(value, RationalMatrixFunction):
        return [value] * n_cells
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return [float(arr)] * n_cells
    if arr.ndim == 1:
        if arr.size == n_cells:
            return arr.tolist()
        if arr.size == 1:
            return [float(arr[0])] * n_cells
        raise InputError("per-cell coefficient length mismatch")
    if arr.ndim == 2:
        return [arr] * n_cells  # matrix block, single cell
    raise InputError("coefficient arrays must be scalar, per-cell vector, or matrix")


def _as_block(value, rows: int, cols: int) -> np.ndarray:
    """Normalize a scalar or matrix coefficient to a 2-d block."""
    arr = np.atleast_2d(np.asarray(value, dtype=complex if np.iscomplexobj(value) else float))
    if arr.shape != (rows, cols):
        if arr.shape == (1, 1) and rows == cols:
            return arr[0, 0] * np.eye(rows)
        raise InputError(f"block of shape {arr.shape} where {(rows, cols)} expected")
    return arr


def _as_rational(value, dim: int) -> RationalMatrixFunction:
    if value is None:
        return RationalMatrixFunction.zero(dim)
    if isinstance(value, RationalMatrixFunction):
        if value.dims != (dim, dim):
            raise InputError(f"rational block must be {dim}x{dim}, got {value.dims}")
        return value
    return RationalMatrixFunction.constant(_as_block(value, dim, dim))


@dataclass(frozen=True)
class CellLaw:
    """Material data of one spatial cell, in block form.

    ``mass`` couples (sigma, theta) through the thermoelastic tensor and
    (theta, q) through the flux-temperature coupling.  The zero-order parts
    ``theta_damping`` (a1) and ``flux_resistance`` (a2) act on the theta and
    q blocks alone, so the symbol is M(z) = mass + z * diag(0, 0, a1(z),
    a2(z)).
    """

    rho0: np.ndarray
    stiffness: np.ndarray
    coupling: np.ndarray
    heat_capacity: np.ndarray
    flux_coupling: np.ndarray
    flux_inertia: np.ndarray
    theta_damping: RationalMatrixFunction
    flux_resistance: RationalMatrixFunction
    theta_lag: float = 0.0

    @property
    def block_dims(self) -> tuple:
        return (
            self.rho0.shape[0],
            self.stiffness.shape[0],
            self.heat_capacity.shape[0],
            self.flux_inertia.shape[0],
        )

    @property
    def is_scalar(self) -> bool:
        return self.block_dims == (1, 1, 1, 1)

    def mass(self) -> np.ndarray:
        """Hermitian instantaneous block over (v, sigma, theta, q)."""
        m = _masses([self])[0]
        return m.real if np.max(np.abs(m.imag)) == 0.0 else m


def _stack(cells, attr: str) -> np.ndarray:
    return np.stack([getattr(cell, attr) for cell in cells])


def _congruence(cells) -> tuple:
    """Stacked unit-triangular factors L and diagonal cores D of cells that
    share block dims, L* D L = mass, both complex."""
    sl = _block_slices(cells[0].block_dims)
    n = sl[-1].stop
    lmat = np.zeros((len(cells), n, n), dtype=complex)
    lmat[:, range(n), range(n)] = 1.0
    lmat[:, sl[1], sl[2]] = _stack(cells, "coupling")
    lmat[:, sl[3], sl[2]] = _stack(cells, "flux_coupling")
    core = np.zeros_like(lmat)
    core[:, sl[0], sl[0]] = _stack(cells, "rho0")
    core[:, sl[1], sl[1]] = np.linalg.inv(_stack(cells, "stiffness"))
    core[:, sl[2], sl[2]] = _stack(cells, "heat_capacity")
    core[:, sl[3], sl[3]] = _stack(cells, "flux_inertia")
    return lmat, core


def _masses(cells) -> np.ndarray:
    """Stacked instantaneous blocks L* D L, Hermitian-symmetrized, complex."""
    lmat, core = _congruence(cells)
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.conj(lmat).swapaxes(-1, -2) @ core @ lmat
        m = 0.5 * (m + np.conj(m).swapaxes(-1, -2))
    if not np.all(np.isfinite(m)):
        raise InputError("instantaneous block is not finite: coefficient products overflow")
    return m


def _block_slices(dims) -> list:
    offsets = np.concatenate([[0], np.cumsum(dims)])
    return [slice(int(offsets[i]), int(offsets[i + 1])) for i in range(len(dims))]


@dataclass(frozen=True)
class _CellStack:
    """Cells of a law stacked on a leading axis: the cells' indices in the
    law, their instantaneous blocks, and ``parts``, the stacked numerator
    coefficients and denominators ``(nums, den)`` of their zero-order parts
    ``theta_damping`` and ``flux_resistance``, which act on the theta and q
    blocks."""

    index: np.ndarray
    cells: tuple
    mass: np.ndarray
    parts: tuple

    @cached_property
    def poles(self) -> tuple:
        """``(poles, live)`` of the parts (see
        :func:`thermoevo.rational._live_poles`), a1's columns first."""
        found = [_live_poles(nums, den)[:2] for nums, den in self.parts]
        return tuple(np.concatenate(arrays, axis=1) for arrays in zip(*found))

    @cached_property
    def dissipation_at_zero(self) -> np.ndarray:
        """The parts at z = 0 on their diagonal blocks, zero elsewhere."""
        values = [nums[0] / den[:, :1, None] for nums, den in self.parts]
        out = np.zeros(self.mass.shape, dtype=np.result_type(*values))
        for block, value in zip(_block_slices(self.cells[0].block_dims)[2:], values):
            out[:, block, block] = value
        return out


def _cell_stacks(cells) -> tuple:
    """The cells grouped by block dtypes, rational shapes and the realness
    of their instantaneous block, each group stacked, so a stacked LAPACK
    call sees every cell at the dtype it would have alone."""
    groups = {}
    for i, cell in enumerate(cells):
        shape = [getattr(cell, attr).dtype.str for attr in _BLOCKS]
        for r in (cell.theta_damping, cell.flux_resistance):
            shape += [r.den.size, r.den.dtype.str] + [m.dtype.str for m in r.num]
        groups.setdefault(tuple(shape), []).append(i)
    stacks = []
    for index in groups.values():
        group = [cells[i] for i in index]
        mass = _masses(group)
        parts = [_stack_groups([getattr(cell, attr) for cell in group])[0][1:]
                 for attr in ("theta_damping", "flux_resistance")]
        real = np.max(np.abs(mass.imag), axis=(1, 2)) == 0.0
        for part in (np.flatnonzero(real), np.flatnonzero(~real)):
            if part.size:
                stacks.append(_CellStack(
                    np.asarray(index)[part], tuple(group[j] for j in part),
                    mass[part].real if real[part[0]] else mass[part],
                    tuple(([m[part] for m in nums], den[part]) for nums, den in parts)))
    return tuple(stacks)


@dataclass(frozen=True)
class MaterialLaw:
    """Assembled cellwise material law with its positivity classification."""

    family: ModelFamily
    cells: tuple
    classification: str = field(init=False)

    def __post_init__(self):
        dims = self.cells[0].block_dims
        for cell in self.cells:
            if cell.block_dims != dims:
                raise InputError("all cells must share block dimensions")
        object.__setattr__(self, "classification", _classify(self.stacks))

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def block_dims(self) -> tuple:
        return self.cells[0].block_dims

    @property
    def is_scalar(self) -> bool:
        return self.cells[0].is_scalar

    @property
    def theta_lag(self) -> float:
        return self.cells[0].theta_lag

    def cell(self, index: int) -> CellLaw:
        return self.cells[index if self.n_cells > 1 else 0]

    @cached_property
    def stacks(self) -> tuple:
        """The cells stacked for one LAPACK call per cell group (one group
        unless cells differ in dtypes or rational shapes)."""
        return _cell_stacks(self.cells)

    def is_uniform(self) -> bool:
        if self.n_cells == 1:
            return True
        first = self.cells[0]
        return all(_cells_equal(first, c) for c in self.cells[1:])

    def scalar_arrays(self, n: int) -> dict:
        """Per-cell scalar coefficients broadcast to n cells (scalar laws only)."""
        if not self.is_scalar:
            raise InputError("grid assembly requires scalar blocks")
        if self.n_cells not in (1, n):
            raise InputError(
                f"law has {self.n_cells} cells, grid needs 1 or {n}"
            )
        idx = np.zeros(n, dtype=int) if self.n_cells == 1 else np.arange(n)
        return {attr: _stack(self.cells, attr)[idx, 0, 0].real.astype(float)
                for attr in _BLOCKS}


def _cells_equal(a: CellLaw, b: CellLaw) -> bool:
    if a.block_dims != b.block_dims or a.theta_lag != b.theta_lag:
        return False
    for attr in _BLOCKS:
        if not np.array_equal(getattr(a, attr), getattr(b, attr)):
            return False
    return (a.theta_damping.key() == b.theta_damping.key()
            and a.flux_resistance.key() == b.flux_resistance.key())


def _classify(stacks) -> str:
    eigs = [np.linalg.eigvalsh(stack.mass) for stack in stacks]
    lam_min = min(float(np.min(e[:, 0])) for e in eigs)
    lam_max = max(0.0, *(float(np.max(e[:, -1])) for e in eigs))
    return GENERIC if lam_min > SPECTRAL_CUTOFF * lam_max else DEGENERATE


def assemble_material_law(spec: ModelSpec) -> MaterialLaw:
    """Map a model family onto the common two-part law.

    Raises on structurally invalid coefficients (non-positive density,
    vanishing lag times, singular conductivity); hypothesis violations that
    merely break well-posedness assemble fine so the certifier can report
    them.
    """
    n = spec.n_cells
    columns = {name: _cell_values(v, n) for name, v in spec.coefficients.items()}
    cells = [_assemble_cell(spec.family, {name: column[i] for name, column in columns.items()})
             for i in range(n)]
    return MaterialLaw(spec.family, tuple(cells))


def _require_nonzero(value: float, name: str) -> float:
    if value == 0.0:
        raise InputError(f"coefficient '{name}' must be non-zero")
    return value


def _scalar(c: dict, name: str) -> float:
    value = c[name]
    if isinstance(value, np.ndarray):
        raise InputError(f"coefficient '{name}' must be scalar for catalog families")
    return float(value)


def _assemble_cell(family: ModelFamily, c: dict) -> CellLaw:
    if family is ModelFamily.CUSTOM:
        return _assemble_custom(c)

    rho0 = _scalar(c, "rho0")
    stiff = _scalar(c, "C")
    gamma = _scalar(c, "Gamma")
    if rho0 <= 0:
        raise InputError("rho0 must be positive cellwise")
    if stiff <= 0:
        raise InputError("C must be positive definite cellwise")

    nu = _scalar(c, "nu") if "nu" in c else None
    if nu is not None and nu < 0:
        raise InputError("nu must be non-negative cellwise")

    zero = RationalMatrixFunction.zero(1)
    a0 = 0.0
    zeta0 = 0.0
    n0 = 0.0
    a1 = zero

    if family is ModelFamily.CLASSICAL:
        kappa = _require_nonzero(_scalar(c, "kappa"), "kappa")
        a2 = RationalMatrixFunction.constant(1.0 / kappa)
    elif family is ModelFamily.LORD_SHULMAN:
        kappa = _require_nonzero(_scalar(c, "kappa"), "kappa")
        a0 = _scalar(c, "a0")
        a2 = RationalMatrixFunction.constant(1.0 / kappa)
    elif family is ModelFamily.GREEN_NAGHDI_I:
        k = _require_nonzero(_scalar(c, "k"), "k")
        a2 = RationalMatrixFunction.constant(1.0 / k)
    elif family is ModelFamily.GREEN_NAGHDI_II:
        k_star = _require_nonzero(_scalar(c, "k_star"), "k_star")
        a0 = 1.0 / k_star
        a2 = zero
    elif family is ModelFamily.GREEN_NAGHDI_III:
        k = _require_nonzero(_scalar(c, "k"), "k")
        k_star = _scalar(c, "k_star")
        # (z*k_star + k)^(-1): analytic at 0 because k != 0
        a2 = RationalMatrixFunction((np.eye(1),), np.array([k, k_star]))
    elif family is ModelFamily.GREEN_LINDSAY:
        kappa = _require_nonzero(_scalar(c, "kappa"), "kappa")
        n0 = _scalar(c, "n0")
        if n0 <= 0:
            raise InputError("Green-Lindsay requires a positive lag time n0")
        b = _scalar(c, "b")
        d = _scalar(c, "d")
        h = _scalar(c, "h")
        nu = h / n0
        a0 = n0 / kappa
        zeta0 = b / n0
        a2 = RationalMatrixFunction.constant(1.0 / kappa)
        a1_gain = d - (h + b * b / kappa) / n0
        a1 = RationalMatrixFunction((np.array([[a1_gain]]),), np.array([n0, 1.0]))
    elif family in (ModelFamily.DPL_I, ModelFamily.DPL_II):
        kappa = _require_nonzero(_scalar(c, "kappa"), "kappa")
        n1 = _scalar(c, "n1")
        n2 = _scalar(c, "n2")
        if n1 == 0.0 or n2 == 0.0:
            raise InputError("dual-phase-lag families require non-zero n1 and n2")
        if family is ModelFamily.DPL_I:
            a2 = RationalMatrixFunction(
                (np.array([[n1 / kappa]]), np.array([[1.0 / kappa]])),
                np.array([n2, 1.0]),
            )
        else:
            a0 = 0.5 * n1 * n1 / (n2 * kappa)
            lead = n1 - 0.5 * n1 * n1 / n2
            a2 = RationalMatrixFunction(
                (np.array([[lead / kappa]]), np.array([[1.0 / kappa]])),
                np.array([n2, 1.0]),
            )
    else:  # pragma: no cover
        raise InputError(f"unhandled family {family}")

    return CellLaw(
        rho0=np.array([[rho0]]),
        stiffness=np.array([[stiff]]),
        coupling=np.array([[gamma]]),
        heat_capacity=np.array([[nu]]),
        flux_coupling=np.array([[zeta0]]),
        flux_inertia=np.array([[a0]]),
        theta_damping=a1,
        flux_resistance=a2,
        theta_lag=n0,
    )


def _assemble_custom(c: dict) -> CellLaw:
    rho0, stiff, nu = (np.atleast_2d(np.asarray(c[name], dtype=float))
                       for name in ("rho0", "C", "nu"))
    for name, block in (("rho0", rho0), ("C", stiff), ("nu", nu)):
        if block.shape[0] != block.shape[1]:
            raise InputError(f"{name} must be a square matrix")
    dv, ds, dth = rho0.shape[0], stiff.shape[0], nu.shape[0]
    gamma = _as_block(c["Gamma"], ds, dth)

    dq = 1
    for probe in (c.get("a0"), c.get("zeta0")):
        if probe is not None and np.asarray(probe).ndim == 2:
            dq = np.asarray(probe).shape[0]
            break
    else:
        a2_probe = c.get("a2")
        if isinstance(a2_probe, RationalMatrixFunction):
            dq = a2_probe.dims[0]

    a0_raw = c.get("a0")
    a0 = _as_block(0.0 if a0_raw is None else a0_raw, dq, dq).astype(float)
    zeta0_raw = c.get("zeta0")
    zeta0 = _as_block(np.zeros((dq, dth)) if zeta0_raw is None else zeta0_raw, dq, dth)
    if np.min(np.linalg.eigvalsh(rho0)) <= 0:
        raise InputError("rho0 must be positive definite cellwise")
    if np.min(np.linalg.eigvalsh(0.5 * (stiff + stiff.T))) <= 0:
        raise InputError("C must be positive definite cellwise")
    if np.min(np.linalg.eigvalsh(0.5 * (nu + nu.T))) < 0:
        raise InputError("nu must be non-negative cellwise")
    n0 = _scalar(c, "n0") if c.get("n0") is not None else 0.0
    if n0 < 0:
        raise InputError("lag time n0 must be non-negative")
    return CellLaw(
        rho0=rho0,
        stiffness=stiff,
        coupling=gamma,
        heat_capacity=nu,
        flux_coupling=zeta0,
        flux_inertia=0.5 * (a0 + a0.T),
        theta_damping=_as_rational(c.get("a1"), dth),
        flux_resistance=_as_rational(c.get("a2"), dq),
        theta_lag=n0,
    )


def zero_pattern(law: MaterialLaw) -> tuple:
    """Boolean 4x4 block patterns of the symbol at zero and of its slope.

    An entry is True when that block is not identically zero across cells.
    """
    sl = _block_slices(law.block_dims)
    stars = []
    for blocks in ([st.mass for st in law.stacks],
                   [st.dissipation_at_zero for st in law.stacks]):
        stars.append(np.array([[any(np.any(m[:, sl[i], sl[j]] != 0) for m in blocks)
                                for j in range(4)] for i in range(4)]))
    return tuple(stars)


def recover_theta(theta_big: WeightedSignal, n0: float) -> WeightedSignal:
    """Invert the temperature-lag relation componentwise.

    For a positive lag time the relaxed unknown satisfies
    ``n0 * theta' + theta = theta_big`` with zero initial data; it is marched
    by :func:`~thermoevo._integrators.exp_march_linear`, the exact
    exponential step with linear interpolation of the input, whose phi
    functions come from one matrix exponential and so stay accurate for
    lags far longer than the step.  A zero lag returns the input unchanged.
    """
    if n0 < 0:
        raise InputError("lag time n0 must be non-negative")
    if n0 == 0.0:
        return theta_big.with_samples(theta_big.samples.copy())
    rate = np.array([[1.0 / n0]])
    return theta_big.with_samples(
        exp_march_linear(-rate, rate, theta_big.samples[:, None, :], theta_big.dt)[:, 0, :])


def compute_entropy(
    law: MaterialLaw,
    strain: WeightedSignal,
    theta_big: WeightedSignal,
    flux: WeightedSignal,
) -> WeightedSignal:
    """Entropy density recovered from co-located strain, temperature and flux.

    Evaluates, per component, the relation

        rho0 * eta = Gamma* eps + (nu + zeta0* a0 zeta0) Theta
                     + zeta0* a0 q + integral of (theta damping applied to Theta)

    with cellwise coefficients broadcast over the signal components.  All
    three fields must share the grid and component count.
    """
    if not law.is_scalar:
        raise InputError("entropy recovery supports scalar-block laws only")
    if not (strain.same_grid(theta_big) and strain.same_grid(flux)):
        raise InputError("strain, temperature and flux must share grid and weight")
    m = strain.n_components
    if theta_big.n_components != m or flux.n_components != m:
        raise InputError("strain, temperature and flux must share component count")
    if law.n_cells not in (1, m):
        raise InputError(f"law has {law.n_cells} cells; fields have {m} components")

    coeff = law.scalar_arrays(m)
    gamma = coeff["coupling"]
    nu = coeff["heat_capacity"]
    zeta0 = coeff["flux_coupling"]
    a0 = coeff["flux_inertia"]
    rho0 = coeff["rho0"]

    rho_eta = (
        gamma[None, :] * strain.samples
        + (nu + zeta0 * a0 * zeta0)[None, :] * theta_big.samples
        + (zeta0 * a0)[None, :] * flux.samples
    )

    # one realization and one march per distinct damping law
    groups = {}
    for j in range(m):
        damping = law.cell(j).theta_damping
        groups.setdefault(damping.key(), (damping, []))[1].append(j)
    memory = np.zeros_like(rho_eta)
    for damping, cols in groups.values():
        if all(np.all(np.asarray(c) == 0) for c in damping.num):
            continue
        real = realize_state_space(damping)
        theta = theta_big.samples[:, cols]
        states = exp_march_linear(real.a, real.b, theta[:, None, :], theta_big.dt)
        memory[:, cols] = theta * real.d[0, 0] + real.c[0] @ states
    if np.any(memory != 0):
        rho_eta = rho_eta + antiderivative(theta_big.with_samples(memory)).samples

    return strain.with_samples(rho_eta / rho0[None, :])


def pattern_table(law: MaterialLaw) -> str:
    """Human-readable star table of the zero patterns."""
    m0_stars, m1_stars = zero_pattern(law)
    width = max(len(n) for n in BLOCK_NAMES)
    lines = [f"family: {law.family.value}"]
    for title, stars in (("M(0)", m0_stars), ("M1(0)", m1_stars)):
        lines.append(f"{title}:")
        for i, name in enumerate(BLOCK_NAMES):
            row = " ".join("*" if stars[i, j] else "0" for j in range(4))
            lines.append(f"  {name.ljust(width)} | {row}")
    return "\n".join(lines) + "\n"


def canonical_spec(family: ModelFamily) -> ModelSpec:
    """Representative unit-scale coefficients for each named family."""
    family = ModelFamily(family)
    base = {"rho0": 1.0, "nu": 1.0, "C": 1.0, "Gamma": 0.5}
    extras = {
        ModelFamily.CLASSICAL: {"kappa": 1.0},
        ModelFamily.LORD_SHULMAN: {"kappa": 1.0, "a0": 1.0},
        ModelFamily.GREEN_NAGHDI_I: {"k": 1.0},
        ModelFamily.GREEN_NAGHDI_II: {"k_star": 1.0},
        ModelFamily.GREEN_NAGHDI_III: {"k": 1.0, "k_star": 1.0},
        ModelFamily.DPL_I: {"kappa": 1.0, "n1": 0.5, "n2": 0.25},
        ModelFamily.DPL_II: {"kappa": 1.0, "n1": 0.5, "n2": 0.75},
    }
    if family is ModelFamily.GREEN_LINDSAY:
        coeffs = {"rho0": 1.0, "C": 1.0, "Gamma": 0.5, "kappa": 1.0,
                  "n0": 0.5, "b": 0.4, "d": 3.0, "h": 1.0}
    elif family is ModelFamily.CUSTOM:
        raise InputError("no canonical coefficients for custom laws")
    else:
        coeffs = dict(base)
        coeffs.update(extras[family])
    return ModelSpec(family, coeffs)
