"""Numerical certification of the solution-theory hypotheses.

Three layers of checking, from cheap to thorough:

* :func:`check_condition_rho` evaluates the Hermitian matrix
  ``rho * M(0) + Re M'(0)`` cellwise and reports its smallest eigenvalue,
  the rational-law simplification of the positivity condition.
* :func:`check_symbol_boundary` samples ``Re z^{-1} M(z)`` on the
  boundary line ``Re 1/z = rho0`` of the admissibility ball, where the
  maximum principle puts its infimum over the ball once poles and an
  indefinite ``M(0)`` are ruled out (a sampling of the line, not a proof).
* :func:`certify_wellposedness` runs the structural range/kernel conditions
  that guarantee a causal bounded inverse and combines everything into a
  :class:`WellPosednessReport`; its weight search stays strictly above the
  law's poles in ``s = 1/z``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _json
from .errors import InputError, UnreachableTargetError
from .models import MaterialLaw, SPECTRAL_CUTOFF, _block_slices, classify
from .rational import RationalMatrixFunction, _poles_in_s, eval_rational

__all__ = [
    "Witness",
    "WellPosednessReport",
    "check_condition_rho",
    "check_symbol_boundary",
    "certify_wellposedness",
    "find_min_rho",
]

SATISFIED = "satisfied"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"

#: search range for the weight rho
RHO_RANGE = (1e-3, 1e6)
#: log-spaced rho search grid resolution (points per decade)
RHO_GRID_PER_DECADE = 20


@dataclass(frozen=True)
class Witness:
    """A most-negative direction found during certification."""

    cell: int
    eigenvalue: float
    eigenvector: np.ndarray

    def as_dict(self) -> dict:
        return {
            "cell": self.cell,
            "eigenvalue": self.eigenvalue,
            "eigenvector": [float(x) for x in np.real(self.eigenvector)],
        }


@dataclass(frozen=True)
class WellPosednessReport:
    verdict: str
    c_estimate: float
    rho_min: float
    classification: str
    witnesses: tuple
    checks_run: tuple

    def to_json(self) -> str:
        return _json.dumps({
            "verdict": self.verdict,
            "c_estimate": self.c_estimate,
            "rho_min": self.rho_min,
            "classification": self.classification,
            "witnesses": [w.as_dict() for w in self.witnesses],
            "checks_run": list(self.checks_run),
        })


def _condition_matrix(cell, rho: float) -> np.ndarray:
    h = rho * cell.mass() + _herm(cell.dissipation().at_zero())
    return h


def _herm(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().T)


def check_condition_rho(law: MaterialLaw, rho: float) -> tuple:
    """Smallest eigenvalue of rho * M(0) + Re M'(0) over all cells.

    Returns ``(min_eigenvalue, witness)`` where the witness records the cell
    and eigenvector attaining the minimum.
    """
    if rho <= 0:
        raise InputError("rho must be positive")
    best = None
    for index, cell in enumerate(law.cells):
        h = _condition_matrix(cell, rho)
        eigvals, eigvecs = np.linalg.eigh(h)
        if best is None or eigvals[0] < best.eigenvalue:
            best = Witness(index, float(eigvals[0]), eigvecs[:, 0])
    return best.eigenvalue, best


def check_symbol_boundary(symbol, rho0: float, n_samples: int = 257) -> tuple:
    """Minimum of the Hermitian part of z^{-1} M(z) on the ball, from its
    boundary line.

    ``symbol`` may be a :class:`MaterialLaw` (checked cellwise), a single
    rational function, or a sequence of them.  With s = 1/z the ball is the
    half-plane Re s >= rho0.  Where every symbol is analytic there and
    Herm M(0) is positive semidefinite, the infimum over the half-plane lies
    on the line Re s = rho0 (maximum principle), so only 1/z = rho0 + i t is
    sampled, t on a symmetric log-spaced grid plus t = 0.  A symbol that
    fails either condition is unbounded below: a pole p with Re p >= rho0
    gives ``(-inf, 1/p)``, an indefinite Herm M(0) gives ``(-inf, 0j)``.
    Returns ``(min_eigenvalue, worst_z)``, the first occurrence in symbol
    and then t order; a sampling of the line, not a proof.  The result for a
    :class:`MaterialLaw` is kept on the law by the sampling arguments, so a
    repeated call evaluates nothing again.
    """
    if rho0 <= 0:
        raise InputError("rho0 must be positive")
    settings = (float(rho0), n_samples)
    if isinstance(symbol, MaterialLaw):
        found = symbol.boundary_minima
        if settings not in found:
            found[settings] = _line_minimum(
                [cell.symbol() for cell in symbol.cells], *settings)
        return found[settings]
    if isinstance(symbol, RationalMatrixFunction):
        symbol = [symbol]
    return _line_minimum(symbol, *settings)


def _line_minimum(symbols, rho0: float, n_samples: int) -> tuple:
    """Smallest of the symbols' line minima, at its first symbol."""
    z_inv = _boundary_samples(rho0, n_samples)
    min_eig = np.inf
    worst_z = None
    for sym in symbols:
        found = _unbounded_witness(sym, rho0) or _symbol_minimum(sym, z_inv)
        if found[0] < min_eig:
            min_eig, worst_z = found
            if min_eig == -np.inf:
                break
    return min_eig, worst_z


def _unbounded_witness(sym: RationalMatrixFunction, rho0: float):
    """``(-inf, z)`` when the line does not bound ``sym`` from below on
    Re s >= rho0: a pole there, or Herm M(0) not positive semidefinite."""
    for pole in _poles_in_s(sym):
        if pole.real >= rho0:
            return -np.inf, complex(1.0 / pole)
    eigvals = np.linalg.eigvalsh(_herm(sym.at_zero()))
    scale = max(float(np.max(np.abs(eigvals))), 1e-300)
    if eigvals[0] < -SPECTRAL_CUTOFF * scale:
        return -np.inf, 0j
    return None


def _boundary_samples(rho0: float, n_samples: int) -> np.ndarray:
    """Sample points 1/z = rho0 + i t on the boundary line."""
    half = max((n_samples - 1) // 2, 1)
    t_pos = rho0 * np.logspace(-3, 6, half)
    t_grid = np.concatenate([[0.0], t_pos, -t_pos])
    return 1j * t_grid + rho0


def _symbol_minimum(sym: RationalMatrixFunction, z_inv: np.ndarray) -> tuple:
    """Smallest eigenvalue of the Hermitian part of z^{-1} M(z) over all
    samples, at its first occurrence, with its z."""
    if sym.is_real:
        # M(conj z) = conj M(z): the samples at -t, which follow those at
        # t, repeat their eigenvalues
        z_inv = z_inv[:(z_inv.size + 1) // 2]
    z = 1.0 / z_inv
    mats = eval_rational(sym, z)
    # z_inv * mats in place, in that operand order: numpy's complex product
    # is not bitwise commutative
    np.multiply(z_inv[..., None, None], mats, out=mats)
    herm = np.conj(np.swapaxes(mats, -1, -2))
    herm += mats
    herm *= 0.5
    lowest = np.linalg.eigvalsh(herm)[..., 0]
    k = int(np.argmin(lowest))
    return float(lowest[k]), complex(z[k])


def _rho_grid() -> np.ndarray:
    lo, hi = RHO_RANGE
    decades = np.log10(hi) - np.log10(lo)
    return np.geomspace(lo, hi, int(decades * RHO_GRID_PER_DECADE) + 1)


def _pole_floor(law: MaterialLaw) -> float:
    """Largest real part of a pole in s of any cell's ``theta_damping`` or
    ``flux_resistance``; the law is analytic only for Re s above it, so an
    admissible weight rho lies strictly above.  -inf without poles."""
    return max((float(p.real) for cell in law.cells
                for r in (cell.theta_damping, cell.flux_resistance)
                for p in _poles_in_s(r)), default=-np.inf)


def certify_wellposedness(law: MaterialLaw) -> WellPosednessReport:
    """Certify the structural positivity hypotheses behind causal solvability.

    Per cell: density, stiffness and heat capacity must be strictly positive;
    the flux inertia must be positive definite on its range; and the Hermitian
    part of the flux resistance at zero must be strictly positive definite on
    the inertia's kernel.  A singular (but non-negative) heat capacity makes
    the verdict inconclusive rather than violated, since a compensating
    zero-order term lies outside the certified conditions.
    """
    witnesses = []
    inconclusive = False
    checks = [
        "rho0_positive",
        "stiffness_positive",
        "heat_capacity_positive",
        "flux_inertia_pd_on_range",
        "flux_resistance_pd_on_kernel",
        "condition_rho_search",
    ]

    for index, cell in enumerate(law.cells):
        dims = cell.block_dims
        sl = _block_slices(dims)
        n_total = sum(dims)

        def embed(vec, block):
            full = np.zeros(n_total, dtype=complex)
            full[sl[block]] = vec
            return full

        for attr, block in (("rho0", 0), ("stiffness", 1)):
            mat = _herm(np.asarray(getattr(cell, attr), dtype=complex))
            eigvals, eigvecs = np.linalg.eigh(mat)
            scale = max(float(np.max(np.abs(eigvals))), 1e-300)
            if eigvals[0] <= SPECTRAL_CUTOFF * scale:
                witnesses.append(Witness(index, float(eigvals[0]), embed(eigvecs[:, 0], block)))

        nu = _herm(np.asarray(cell.heat_capacity, dtype=complex))
        eigvals, eigvecs = np.linalg.eigh(nu)
        scale = max(float(np.max(np.abs(eigvals))), 1e-300)
        if eigvals[0] < -SPECTRAL_CUTOFF * scale:
            witnesses.append(Witness(index, float(eigvals[0]), embed(eigvecs[:, 0], 2)))
        elif eigvals[0] <= SPECTRAL_CUTOFF * scale:
            inconclusive = True

        a0 = _herm(np.asarray(cell.flux_inertia, dtype=complex))
        eigvals, eigvecs = np.linalg.eigh(a0)
        scale = float(np.max(np.abs(eigvals)))
        tol = SPECTRAL_CUTOFF * scale
        on_range = np.abs(eigvals) > tol
        negatives = on_range & (eigvals < 0)
        for i in np.flatnonzero(negatives):
            witnesses.append(Witness(index, float(eigvals[i]), embed(eigvecs[:, i], 3)))

        kernel = eigvecs[:, ~on_range]
        if kernel.shape[1] > 0:
            re_a2 = _herm(cell.flux_resistance.at_zero())
            a2_scale = float(np.max(np.abs(np.linalg.eigvalsh(re_a2)))) if re_a2.size else 0.0
            projected = kernel.conj().T @ re_a2 @ kernel
            k_eigvals, k_eigvecs = np.linalg.eigh(_herm(projected))
            if a2_scale == 0.0 or k_eigvals[0] <= SPECTRAL_CUTOFF * a2_scale:
                vec = kernel @ k_eigvecs[:, 0]
                witnesses.append(Witness(index, float(k_eigvals[0]), embed(vec, 3)))

    classification = classify(law)

    if witnesses:
        witnesses.sort(key=lambda w: w.eigenvalue)
        return WellPosednessReport(
            VIOLATED, 0.0, float("inf"), classification, tuple(witnesses), tuple(checks)
        )
    if inconclusive:
        return WellPosednessReport(
            INCONCLUSIVE, 0.0, float("inf"), classification, (), tuple(checks)
        )

    rho_min = float("inf")
    c_estimate = 0.0
    grid = _rho_grid()
    for rho in grid[grid > _pole_floor(law)]:
        min_eig, _ = check_condition_rho(law, rho)
        if min_eig > 0.0:
            rho_min = float(rho)
            c_estimate = float(min_eig)
            break
    if not np.isfinite(rho_min):
        # structural conditions hold but the sampled search failed; report
        # honestly rather than extrapolating
        return WellPosednessReport(
            INCONCLUSIVE, 0.0, float("inf"), classification, (), tuple(checks)
        )
    return WellPosednessReport(
        SATISFIED, c_estimate, rho_min, classification, (), tuple(checks)
    )


def find_min_rho(law: MaterialLaw, c_target: float, tol: float = 1e-6) -> float:
    """Smallest rho with min eig of rho*M(0) + Re M'(0) >= c_target.

    Bisection over the standard search range, strictly above the largest
    real part of the law's poles in s; valid because the minimum
    eigenvalue is nondecreasing in rho whenever M(0) is positive
    semidefinite (the satisfied-verdict situation).
    """
    if c_target <= 0:
        raise InputError("c_target must be positive")
    floor = _pole_floor(law)
    lo, hi = max(RHO_RANGE[0], floor), RHO_RANGE[1]

    def gap(rho):
        return check_condition_rho(law, rho)[0] - c_target

    if hi <= floor or gap(hi) < 0:
        raise UnreachableTargetError(
            f"positivity constant {c_target} not attainable for "
            f"{max(floor, 0.0):g} < rho <= {hi:g}"
        )
    if lo > floor and gap(lo) >= 0:
        return lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if gap(mid) >= 0:
            hi = mid
        else:
            lo = mid
    return hi
