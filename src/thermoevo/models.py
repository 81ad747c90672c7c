"""Catalog of thermoelastic material laws.

Every supported model is reduced to the same rational material law
M(z) = M0 + z * diag(0, 0, a1(z), a2(z)) over the unknowns (v, sigma,
theta_big, q): velocity, stress, (possibly lag-relaxed) temperature, and
heat flux.  The instantaneous block M0 acts under the time derivative; the
scalar rational zero-order parts, the temperature damping a1(z) and the flux
resistance a2(z), carry relaxation and lag effects on the theta and q
unknowns.

Coefficients are cellwise (piecewise constant in space): real finite
numbers, or per-cell lists of them; scalar input means a single uniform
cell.  Custom laws also take rational functions for a1 and a2.  A
law holds one float array per coefficient over its cells, and for each
zero-order part the tuple of its distinct rational laws with the index of
each cell's law.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property

import numpy as np

from ._frozen import Frozen
from ._integrators import exp_march_linear
from .errors import InputError
from .rational import RationalFunction, real_array, realize_state_space
from .signals import WeightedSignal, antiderivative

__all__ = [
    "ModelFamily",
    "ModelSpec",
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

#: the coefficient arrays of a law: density, stiffness, thermoelastic
#: coupling, heat capacity, flux-temperature coupling and flux inertia
COEFFICIENTS = ("rho0", "C", "Gamma", "nu", "zeta0", "a0")

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


class ModelSpec(Frozen):
    """A named model family with its material coefficients.

    Coefficient values are real finite numbers (uniform) or lists of per-cell
    values, held as given (:func:`assemble_material_law` checks them); custom
    laws also accept rational functions for the zero-order parts a1 and a2.
    """

    def __init__(self, family: ModelFamily, coefficients: dict):
        family = ModelFamily(family)
        vars(self).update(family=family, coefficients=coefficients)
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
            if isinstance(value, RationalFunction) and name not in rational_ok:
                raise InputError(f"coefficient '{name}' cannot be a rational function")


def _column(name: str, value, n_cells: int):
    """Converted coefficient ``name`` over ``n_cells`` cells."""
    if isinstance(value, RationalFunction):
        return value
    if value.size not in (1, n_cells):
        raise InputError(f"coefficient '{name}' has {value.size} values for {n_cells} cells")
    return np.full(n_cells, value)


def _distinct_laws(num: list, den: list) -> tuple:
    """The distinct scalar laws sum_k num[k] z^k / sum_k den[k] z^k among the
    cells, given the per-cell arrays of their coefficients, one
    :class:`RationalFunction` each in order of first appearance, and the
    index of each cell's law.  Laws are told apart by the bytes of their
    coefficients, with 0.0 added so that -0.0 and 0.0 agree."""
    coeffs = np.stack(num + den, axis=1)
    rows = coeffs + 0.0
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0].tolist()
    first = {}
    for j, key in enumerate(keys):
        first.setdefault(key, j)
    slot = {key: k for k, key in enumerate(first)}
    split = len(num)
    laws = tuple(RationalFunction(coeffs[j, :split], coeffs[j, split:]) for j in first.values())
    return laws, np.array([slot[key] for key in keys], dtype=np.intp)


def _zero_part(n_cells: int) -> tuple:
    return (RationalFunction.constant(0.0),), np.zeros(n_cells, dtype=np.intp)


class MaterialLaw(Frozen):
    """Assembled cellwise material law with its positivity classification.

    ``rho0``, ``C``, ``Gamma``, ``nu``, ``zeta0``, ``a0`` and the temperature
    lag time ``n0`` are float arrays over the cells.  Cell j's instantaneous
    block is M0 = L^T diag(rho0, 1/C, nu, a0) L over (v, sigma, theta, q),
    with L the unit lower triangular factor that holds Gamma at (sigma,
    theta) and zeta0 at (q, theta) (:attr:`mass`).  ``a1`` and ``a2`` are
    the distinct scalar laws of the temperature damping and the flux
    resistance; cell j's are ``a1[a1_index[j]]`` and ``a2[a2_index[j]]``.
    """

    def __init__(self, family: ModelFamily, rho0: np.ndarray, C: np.ndarray,
                 Gamma: np.ndarray, nu: np.ndarray, zeta0: np.ndarray, a0: np.ndarray,
                 n0: np.ndarray, a1: tuple, a1_index: np.ndarray, a2: tuple,
                 a2_index: np.ndarray):
        vars(self).update(family=family, rho0=rho0, C=C, Gamma=Gamma, nu=nu, zeta0=zeta0,
                          a0=a0, n0=n0, a1=a1, a1_index=a1_index, a2=a2, a2_index=a2_index)
        vars(self)["classification"] = _classify(self.mass)

    @property
    def n_cells(self) -> int:
        return self.rho0.size

    @cached_property
    def mass(self) -> np.ndarray:
        """The cells' instantaneous blocks, stacked (n_cells, 4, 4): L^T D L
        by one stacked product, then symmetrized."""
        n = self.n_cells
        lmat = np.zeros((n, 4, 4))
        lmat[:, range(4), range(4)] = 1.0
        lmat[:, 1, 2] = self.Gamma
        lmat[:, 3, 2] = self.zeta0
        core = np.zeros((n, 4, 4))
        core[:, range(4), range(4)] = np.stack([self.rho0, 1.0 / self.C, self.nu, self.a0],
                                               axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            m = lmat.swapaxes(-1, -2) @ core @ lmat
            m = 0.5 * (m + m.swapaxes(-1, -2))
        if not np.all(np.isfinite(m)):
            raise InputError("instantaneous block is not finite: coefficient products overflow")
        return m

    @cached_property
    def at_zero(self) -> tuple:
        """``(a1(0), a2(0))``, the zero-order parts at z = 0, over the cells."""
        return tuple(np.array([r.num[0] / r.den[0] for r in laws])[index]
                     for laws, index in ((self.a1, self.a1_index), (self.a2, self.a2_index)))

    def is_uniform(self) -> bool:
        """Whether all cells share their coefficients and zero-order parts."""
        return all(np.all(values == values[0]) for values in (
            *(getattr(self, name) for name in COEFFICIENTS), self.n0,
            self.a1_index, self.a2_index))


def _classify(mass: np.ndarray) -> str:
    eigs = np.linalg.eigvalsh(mass)
    lam_min = float(np.min(eigs[:, 0]))
    lam_max = max(0.0, float(np.max(eigs[:, -1])))
    return GENERIC if lam_min > SPECTRAL_CUTOFF * lam_max else DEGENERATE


def assemble_material_law(spec: ModelSpec) -> MaterialLaw:
    """Map a model family onto the common two-part law.

    Each coefficient is converted once (:func:`~thermoevo.rational.real_array`),
    over as many cells as the most values given; a value that is not a real
    finite number or a list of them of length 1 or that count (or for a1 and
    a2 of a custom law a rational function) raises.  Raises on
    structurally invalid coefficients (non-positive density, vanishing lag
    times, singular conductivity); hypothesis violations that merely break
    well-posedness assemble fine so the certifier can report them.
    """
    c = {name: value if isinstance(value, RationalFunction) else real_array(
             value, f"coefficient '{name}' must be a real finite number or a list of them")
         for name, value in spec.coefficients.items()}
    n = max([1] + [value.size for value in c.values() if isinstance(value, np.ndarray)])
    c = {name: _column(name, value, n) for name, value in c.items()}
    if spec.family is ModelFamily.CUSTOM:
        return _assemble_custom(c, n)
    return _assemble_catalog(spec.family, c, n)


def _nonzero(c: dict, name: str) -> np.ndarray:
    if np.any(c[name] == 0.0):
        raise InputError(f"coefficient '{name}' must be non-zero")
    return c[name]


def _assemble_catalog(family: ModelFamily, c: dict, n: int) -> MaterialLaw:
    rho0, stiff = c["rho0"], c["C"]
    if np.any(rho0 <= 0):
        raise InputError("rho0 must be positive cellwise")
    if np.any(stiff <= 0):
        raise InputError("C must be positive definite cellwise")
    nu = c.get("nu")
    if nu is not None and np.any(nu < 0):
        raise InputError("nu must be non-negative cellwise")

    zero, one = np.zeros(n), np.ones(n)
    a0 = zeta0 = n0 = zero
    a1 = _zero_part(n)
    if family in (ModelFamily.CLASSICAL, ModelFamily.LORD_SHULMAN):
        a2 = _distinct_laws([1.0 / _nonzero(c, "kappa")], [one])
        if family is ModelFamily.LORD_SHULMAN:
            a0 = c["a0"]
    elif family is ModelFamily.GREEN_NAGHDI_I:
        a2 = _distinct_laws([1.0 / _nonzero(c, "k")], [one])
    elif family is ModelFamily.GREEN_NAGHDI_II:
        a0 = 1.0 / _nonzero(c, "k_star")
        a2 = _zero_part(n)
    elif family is ModelFamily.GREEN_NAGHDI_III:
        # (z*k_star + k)^(-1): analytic at 0 because k != 0
        a2 = _distinct_laws([one], [_nonzero(c, "k"), c["k_star"]])
    elif family is ModelFamily.GREEN_LINDSAY:
        kappa = _nonzero(c, "kappa")
        n0 = c["n0"]
        if np.any(n0 <= 0):
            raise InputError("Green-Lindsay requires a positive lag time n0")
        b, d, h = c["b"], c["d"], c["h"]
        nu = h / n0
        a0 = n0 / kappa
        zeta0 = b / n0
        a2 = _distinct_laws([1.0 / kappa], [one])
        a1 = _distinct_laws([d - (h + b * b / kappa) / n0], [n0, one])
    elif family in (ModelFamily.DPL_I, ModelFamily.DPL_II):
        kappa = _nonzero(c, "kappa")
        n1, n2 = c["n1"], c["n2"]
        if np.any(n1 == 0.0) or np.any(n2 == 0.0):
            raise InputError("dual-phase-lag families require non-zero n1 and n2")
        if family is ModelFamily.DPL_I:
            lead = n1
        else:
            a0 = 0.5 * n1 * n1 / (n2 * kappa)
            lead = n1 - 0.5 * n1 * n1 / n2
        a2 = _distinct_laws([lead / kappa, 1.0 / kappa], [n2, one])
    else:  # pragma: no cover
        raise InputError(f"unhandled family {family}")
    return MaterialLaw(family, rho0, stiff, c["Gamma"], nu, zeta0, a0, n0, *a1, *a2)


def _part(value, n: int) -> tuple:
    """A custom zero-order part: absent (zero), one rational law for every
    cell, or constant per-cell values."""
    if value is None:
        return _zero_part(n)
    if isinstance(value, RationalFunction):
        return (value,), np.zeros(n, dtype=np.intp)
    return _distinct_laws([value], [np.ones(n)])


def _assemble_custom(c: dict, n: int) -> MaterialLaw:
    zero = np.zeros(n)
    rho0, stiff, nu = c["rho0"], c["C"], c["nu"]
    if np.any(rho0 <= 0):
        raise InputError("rho0 must be positive definite cellwise")
    if np.any(stiff <= 0):
        raise InputError("C must be positive definite cellwise")
    if np.any(nu < 0):
        raise InputError("nu must be non-negative cellwise")
    n0 = c.get("n0", zero)
    if np.any(n0 < 0):
        raise InputError("lag time n0 must be non-negative")
    return MaterialLaw(ModelFamily.CUSTOM, rho0, stiff, c["Gamma"], nu, c.get("zeta0", zero),
                       c.get("a0", zero), n0, *_part(c.get("a1"), n), *_part(c.get("a2"), n))


def zero_pattern(law: MaterialLaw) -> tuple:
    """Boolean 4x4 block patterns of the symbol at zero and of its slope.

    An entry is True when that block is not identically zero across cells.
    """
    slope = np.zeros((4, 4), dtype=bool)
    slope[2, 2], slope[3, 3] = (bool(np.any(values != 0)) for values in law.at_zero)
    return np.any(law.mass != 0, axis=0), slope


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

    with cellwise coefficients broadcast over the signal components: the law
    has one cell per component, or is uniform.  All three fields must share
    the grid and component count.
    """
    if not (strain.same_grid(theta_big) and strain.same_grid(flux)):
        raise InputError("strain, temperature and flux must share grid and weight")
    m = strain.n_components
    if theta_big.n_components != m or flux.n_components != m:
        raise InputError("strain, temperature and flux must share component count")
    if law.n_cells == m:
        cells = np.arange(m)
    elif law.is_uniform():
        cells = np.zeros(m, dtype=np.intp)
    else:
        raise InputError(f"law has {law.n_cells} cells; fields have {m} components")
    gamma, nu, zeta0, a0, rho0 = (getattr(law, name)[cells]
                                  for name in ("Gamma", "nu", "zeta0", "a0", "rho0"))

    rho_eta = (
        gamma[None, :] * strain.samples
        + (nu + zeta0 * a0 * zeta0)[None, :] * theta_big.samples
        + (zeta0 * a0)[None, :] * flux.samples
    )

    # one realization and one march per distinct damping law; none where Theta is zero
    damping = law.a1_index[cells]
    memory = np.zeros_like(rho_eta)
    for k, law_k in enumerate(law.a1 if np.any(theta_big.samples) else ()):
        cols = np.flatnonzero(damping == k)
        if cols.size == 0 or not np.any(law_k.num):
            continue
        real = realize_state_space(law_k)
        theta = theta_big.samples[:, cols]
        states = exp_march_linear(np.diag(real.a), real.b[:, None], theta[:, None, :],
                                  theta_big.dt)
        memory[:, cols] = theta * real.d + real.c @ states
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
