"""Numerical certification of the solution-theory hypotheses.

Three layers of checking, from cheap to thorough:

* :func:`check_condition_rho` evaluates the Hermitian matrix
  ``rho * M(0) + Re M'(0)`` cellwise and reports its smallest eigenvalue,
  the rational-law simplification of the positivity condition.
* :func:`check_symbol_boundary` bounds ``Re z^{-1} M(z)`` of every cell
  of a scalar law from below on the admissibility ball: the smallest
  eigenvalue of ``rho0 * M(0)`` plus the infima of the zero-order parts
  a1(z), a2(z) on the boundary line ``Re 1/z = rho0``, in closed form from
  their partial fractions.
* :func:`certify_wellposedness` runs the structural range/kernel conditions
  that guarantee a causal bounded inverse and combines everything into a
  :class:`WellPosednessReport`; its weight search stays strictly above the
  law's poles in ``s = 1/z``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _json
from .errors import InputError
from .models import MaterialLaw, SPECTRAL_CUTOFF, _block_slices, _stack
from .rational import realize_state_space

__all__ = [
    "Witness",
    "WellPosednessReport",
    "check_condition_rho",
    "check_symbol_boundary",
    "certify_wellposedness",
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


def _herm(a: np.ndarray) -> np.ndarray:
    """Hermitian part of a matrix or of a stack of matrices."""
    return 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))


def check_condition_rho(law: MaterialLaw, rho: float) -> tuple:
    """Smallest eigenvalue of rho * M(0) + Re M'(0) over all cells.

    Returns ``(min_eigenvalue, witness)`` where the witness records the cell
    and eigenvector attaining the minimum, the first such cell on ties.
    """
    if not 0 < rho < np.inf:
        raise InputError("rho must be positive and finite")
    found = []
    for stack in law.stacks:
        eigvals, eigvecs = np.linalg.eigh(rho * stack.mass + _herm(stack.dissipation_at_zero))
        k = int(np.argmin(eigvals[:, 0]))
        found.append((float(eigvals[k, 0]), int(stack.index[k]), eigvecs[k, :, 0]))
    value, cell, vector = min(found, key=lambda entry: entry[:2])
    return value, Witness(cell, value, vector)


def check_symbol_boundary(law: MaterialLaw, rho0: float) -> float:
    """Lower bound of the Hermitian part of z^{-1} M(z) of the scalar
    ``law`` over the ball Re s >= rho0, s = 1/z, in closed form.

    A pole p >= rho0 of a1 or a2, or an indefinite M(0), gives -inf.  Else
    the infimum lies on the line s = rho0 + i t (maximum principle), where
    the matrix is rho0 M(0) + diag(0, 0, Re a1, Re a2).  In the partial
    fractions a(1/s) = d + sum_k r_k / (s - p_k) of each part (its
    :func:`~thermoevo.rational.realize_state_space`), Re a = d + sum_k w_k /
    (alpha_k + t^2), w_k = r_k (rho0 - p_k), alpha_k = (rho0 - p_k)^2, is
    least at t = 0, at t = inf or at a stationary point, which only residues
    of both signs give.  The constant is the least over cells of
    lambda_min(rho0 M(0) + diag(0, 0, inf Re a1, inf Re a2)): a lower bound
    of the infimum (Weyl's monotonicity theorem), equal to it when at most
    one part varies, as for every catalog family.  It is a lower bound only
    up to the accuracy of the realized partial fractions, a relative error
    of about eps |p| / (rho0 - p) near a pole p just below rho0: for a2 =
    -2/(s - 20) + 1/(s - 0.125) at rho0 = 20.25 it lies 4.1e-12 relative
    above the minimum found by refining a dense scan of the line.  A matrix
    law, or a rho0 M(0) past the float range, raises :class:`InputError`; a
    part the march cannot take raises
    :class:`~thermoevo.errors.RealizationError`.
    """
    if not 0 < rho0 < np.inf:
        raise InputError("rho0 must be positive and finite")
    if not law.is_scalar:
        raise InputError("the bound constant is computed for scalar laws only")
    # slot k holds a1 (k even) or a2 (k odd) of cell k // 2; a zero part is not realized
    parts = [part for cell in law.cells for part in (cell.theta_damping, cell.flux_resistance)]
    slots = [k for k, part in enumerate(parts) if any(np.any(c != 0) for c in part.num)]
    reals = realize_state_space([parts[k] for k in slots])
    owner = np.repeat(np.asarray(slots, dtype=int), [real.n_states for real in reals])
    poles = np.concatenate([np.diagonal(real.a) for real in reals] + [np.zeros(0)])
    if np.any(poles >= rho0):
        return -np.inf
    residues = np.concatenate([real.b[:, 0] * real.c[0] for real in reals] + [np.zeros(0)])
    feed = np.zeros(len(parts))
    feed[slots] = [real.d[0, 0] for real in reals]
    beta = rho0 - poles
    lowest = np.minimum(feed, feed + np.bincount(owner, residues / beta, minlength=feed.size))
    mixed = (np.bincount(owner, residues > 0, minlength=feed.size)
             * np.bincount(owner, residues < 0, minlength=feed.size))
    for slot in np.flatnonzero(mixed):
        at = owner == slot
        lowest[slot] = min(lowest[slot], _stationary_minimum(feed[slot], residues[at], beta[at]))

    found = []
    too_large = InputError(f"rho0={rho0:g} is too large: rho0 * M(0) is past the float range")
    for stack in law.stacks:
        eigvals = np.linalg.eigvalsh(stack.mass)
        scale = np.maximum(np.max(np.abs(eigvals), axis=1), 1e-300)
        if np.any(eigvals[:, 0] < -SPECTRAL_CUTOFF * scale):
            return -np.inf
        with np.errstate(over="ignore"):
            mats = rho0 * stack.mass
            mats[:, (2, 3), (2, 3)] += lowest.reshape(-1, 2)[stack.index]
        if not np.all(np.isfinite(mats)):
            raise too_large
        try:
            found.append(np.min(np.linalg.eigvalsh(mats)[:, 0]))
        except np.linalg.LinAlgError:
            raise too_large from None
    return float(min(found))


def _stationary_minimum(d: float, residues: np.ndarray, beta: np.ndarray) -> float:
    """Least value of d + sum_k r_k beta_k / (beta_k^2 + u) at the real parts,
    clipped at 0, of the roots of its derivative's numerator sum_k w_k
    prod_{j != k} (alpha_j + u)^2, in units of max(beta)^2 so that no power
    of rho0 overflows."""
    scale = np.max(beta)
    unit = beta / scale
    weights, alpha = residues * unit, unit * unit
    numerator = sum(w * np.poly(np.repeat(-np.delete(alpha, k), 2))
                    for k, w in enumerate(weights))
    u = np.maximum(np.roots(numerator).real, 0.0)
    values = d + np.sum(weights / (alpha + u[:, None]), axis=1) / scale
    return float(np.min(values, initial=np.inf))


def _rho_grid() -> np.ndarray:
    lo, hi = RHO_RANGE
    decades = np.log10(hi) - np.log10(lo)
    return np.geomspace(lo, hi, int(decades * RHO_GRID_PER_DECADE) + 1)


def _pole_floor(law: MaterialLaw) -> float:
    """Largest real part of a live pole in s (see
    :func:`thermoevo.rational._live_poles`) of any cell's ``theta_damping``
    or ``flux_resistance``; the law is analytic only for Re s above it, so
    an admissible weight rho lies strictly above.  -inf without poles."""
    floor = -np.inf
    for stack in law.stacks:
        poles, live = stack.poles
        if np.any(live):
            floor = max(floor, float(np.max(poles.real[live])))
    return floor


def _structural_witnesses(stack) -> tuple:
    """``(cell, check, i, witness)`` for every failed structural check over a
    stack of cells, and whether a singular heat capacity leaves the verdict
    open."""
    sl = _block_slices(stack.cells[0].block_dims)
    found = []

    def add(check, cells, eigvals, vecs, block, sub=None):
        full = np.zeros((len(cells), sl[-1].stop), dtype=complex)
        full[:, sl[block]] = vecs
        for j, cell in enumerate(cells):
            index = int(stack.index[cell])
            found.append((index, check, 0 if sub is None else int(sub[j]),
                          Witness(index, float(eigvals[j]), full[j])))

    def eigh(attr):
        return np.linalg.eigh(_herm(_stack(stack.cells, attr).astype(complex)))

    for check, attr in enumerate(("rho0", "stiffness", "heat_capacity")):
        eigvals, eigvecs = eigh(attr)
        low = eigvals[:, 0]
        tol = SPECTRAL_CUTOFF * np.maximum(np.max(np.abs(eigvals), axis=1), 1e-300)
        failed = low < -tol if attr == "heat_capacity" else low <= tol
        cells = np.flatnonzero(failed)
        add(check, cells, low[cells], eigvecs[cells, :, 0], check)
    # a singular heat capacity (the last check) leaves the verdict open
    undecided = bool(np.any(~failed & (low <= tol)))

    eigvals, eigvecs = eigh("flux_inertia")
    on_range = np.abs(eigvals) > SPECTRAL_CUTOFF * np.max(np.abs(eigvals), axis=1)[:, None]
    cells, sub = np.nonzero(on_range & (eigvals < 0))
    add(3, cells, eigvals[cells, sub], eigvecs[cells, :, sub], 3, sub)

    nums, den = stack.parts[1]
    re_a2 = _herm(nums[0] / den[:, :1, None])
    a2_scale = np.max(np.abs(np.linalg.eigvalsh(re_a2)), axis=1)
    n_kernel = np.sum(~on_range, axis=1)
    for k in sorted(set(n_kernel[n_kernel > 0].tolist())):
        cells = np.flatnonzero(n_kernel == k)
        # the kernel columns, in ascending order
        order = np.argsort(on_range[cells], axis=1, kind="stable")[:, None, :k]
        kernel = np.take_along_axis(eigvecs[cells], order, axis=2)
        projected = np.conj(kernel).swapaxes(-1, -2) @ re_a2[cells] @ kernel
        k_eigvals, k_eigvecs = np.linalg.eigh(_herm(projected))
        failed = (a2_scale[cells] == 0.0) | (k_eigvals[:, 0] <= SPECTRAL_CUTOFF * a2_scale[cells])
        vecs = (kernel[failed] @ k_eigvecs[failed][:, :, :1])[..., 0]
        add(4, cells[failed], k_eigvals[failed, 0], vecs, 3)
    return found, undecided


def certify_wellposedness(law: MaterialLaw) -> WellPosednessReport:
    """Certify the structural positivity hypotheses behind causal solvability.

    Per cell: density, stiffness and heat capacity must be strictly positive;
    the flux inertia must be positive definite on its range; and the Hermitian
    part of the flux resistance at zero must be strictly positive definite on
    the inertia's kernel.  A singular (but non-negative) heat capacity makes
    the verdict inconclusive rather than violated, since a compensating
    zero-order term lies outside the certified conditions.  Each check runs
    once over the stacked cells; the witnesses are listed by cell, then by
    check, and stably sorted by eigenvalue.
    """
    checks = (
        "rho0_positive",
        "stiffness_positive",
        "heat_capacity_positive",
        "flux_inertia_pd_on_range",
        "flux_resistance_pd_on_kernel",
        "condition_rho_search",
    )
    entries = []
    inconclusive = False
    for stack in law.stacks:
        found, undecided = _structural_witnesses(stack)
        entries += found
        inconclusive |= undecided
    classification = law.classification

    if entries:
        witnesses = [entry[3] for entry in sorted(entries, key=lambda entry: entry[:3])]
        witnesses.sort(key=lambda w: w.eigenvalue)
        return WellPosednessReport(
            VIOLATED, 0.0, float("inf"), classification, tuple(witnesses), checks
        )
    if inconclusive:
        return WellPosednessReport(INCONCLUSIVE, 0.0, float("inf"), classification, (), checks)

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
        return WellPosednessReport(INCONCLUSIVE, 0.0, float("inf"), classification, (), checks)
    return WellPosednessReport(SATISFIED, c_estimate, rho_min, classification, (), checks)
