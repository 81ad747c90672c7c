"""Numerical certification of the solution-theory hypotheses.

Three layers of checking, from cheap to thorough:

* :func:`check_condition_rho` evaluates the symmetric matrix
  ``rho * M(0) + Re M'(0)`` cellwise and reports its smallest eigenvalue,
  the rational-law simplification of the positivity condition.
* :func:`check_symbol_boundary` bounds ``Re z^{-1} M(z)`` of every cell
  from below on the admissibility ball: the smallest eigenvalue of
  ``rho0 * M(0)`` plus the infima of the zero-order parts a1(z), a2(z) on
  the boundary line ``Re 1/z = rho0``, in closed form from their partial
  fractions.
* :func:`certify_wellposedness` runs the structural range/kernel conditions
  that guarantee a causal bounded inverse and combines everything into a
  :class:`WellPosednessReport`; its weight search stays strictly above the
  law's poles in ``s = 1/z``.
"""

from __future__ import annotations

import numpy as np

from . import _json
from ._frozen import Frozen
from .errors import InputError
from .models import MaterialLaw, SPECTRAL_CUTOFF
from .rational import _live_poles, _stack_groups, realize_state_space

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


class Witness(Frozen):
    """A most-negative direction found during certification."""

    def __init__(self, cell: int, eigenvalue: float, eigenvector: np.ndarray):
        vars(self).update(cell=cell, eigenvalue=eigenvalue, eigenvector=eigenvector)

    def as_dict(self) -> dict:
        return {
            "cell": self.cell,
            "eigenvalue": self.eigenvalue,
            "eigenvector": [float(x) for x in np.real(self.eigenvector)],
        }


class WellPosednessReport(Frozen):
    def __init__(self, verdict: str, c_estimate: float, rho_min: float,
                 classification: str, witnesses: tuple, checks_run: tuple):
        vars(self).update(verdict=verdict, c_estimate=c_estimate, rho_min=rho_min,
                          classification=classification, witnesses=witnesses,
                          checks_run=checks_run)

    def to_json(self) -> str:
        return _json.dumps({
            "verdict": self.verdict,
            "c_estimate": self.c_estimate,
            "rho_min": self.rho_min,
            "classification": self.classification,
            "witnesses": [w.as_dict() for w in self.witnesses],
            "checks_run": list(self.checks_run),
        })


def check_condition_rho(law: MaterialLaw, rho: float) -> tuple:
    """Smallest eigenvalue of rho * M(0) + Re M'(0) over all cells.

    Returns ``(min_eigenvalue, witness)`` where the witness records the cell
    and eigenvector attaining the minimum, the first such cell on ties.
    """
    if not 0 < rho < np.inf:
        raise InputError("rho must be positive and finite")
    slope = np.zeros(law.mass.shape)
    slope[:, 2, 2], slope[:, 3, 3] = law.at_zero
    eigvals, eigvecs = np.linalg.eigh(rho * law.mass + slope)
    cell = int(np.argmin(eigvals[:, 0]))
    value = float(eigvals[cell, 0])
    return value, Witness(cell, value, eigvecs[cell, :, 0])


def check_symbol_boundary(law: MaterialLaw, rho0: float) -> float:
    """Lower bound of the Hermitian part of z^{-1} M(z) of ``law`` over the
    ball Re s >= rho0, s = 1/z, in closed form.

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
    above the minimum found by refining a dense scan of the line.  Each
    distinct part is realized once.  A rho0 M(0) past the float range
    raises :class:`InputError`; a part the march cannot take raises
    :class:`~thermoevo.errors.RealizationError`.
    """
    if not 0 < rho0 < np.inf:
        raise InputError("rho0 must be positive and finite")
    # slot k holds a1[k], slot len(a1) + k holds a2[k]; a zero part is not realized
    parts = law.a1 + law.a2
    slots = [k for k, part in enumerate(parts) if np.any(part.num)]
    reals = realize_state_space([parts[k] for k in slots])
    owner = np.repeat(np.asarray(slots, dtype=int), [real.n_states for real in reals])
    poles = np.concatenate([real.a for real in reals] + [np.zeros(0)])
    if np.any(poles >= rho0):
        return -np.inf
    residues = np.concatenate([real.b * real.c for real in reals] + [np.zeros(0)])
    feed = np.zeros(len(parts))
    feed[slots] = [real.d for real in reals]
    beta = rho0 - poles
    lowest = np.minimum(feed, feed + np.bincount(owner, residues / beta, minlength=feed.size))
    mixed = (np.bincount(owner, residues > 0, minlength=feed.size)
             * np.bincount(owner, residues < 0, minlength=feed.size))
    for slot in np.flatnonzero(mixed):
        at = owner == slot
        lowest[slot] = min(lowest[slot], _stationary_minimum(feed[slot], residues[at], beta[at]))

    eigvals = np.linalg.eigvalsh(law.mass)
    scale = np.maximum(np.max(np.abs(eigvals), axis=1), 1e-300)
    if np.any(eigvals[:, 0] < -SPECTRAL_CUTOFF * scale):
        return -np.inf
    too_large = InputError(f"rho0={rho0:g} is too large: rho0 * M(0) is past the float range")
    with np.errstate(over="ignore"):
        mats = rho0 * law.mass
        mats[:, 2, 2] += lowest[law.a1_index]
        mats[:, 3, 3] += lowest[len(law.a1) + law.a2_index]
    if not np.all(np.isfinite(mats)):
        raise too_large
    try:
        return float(np.min(np.linalg.eigvalsh(mats)[:, 0]))
    except np.linalg.LinAlgError:
        raise too_large from None


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
    :func:`thermoevo.rational._live_poles`) of the law's parts a1 and a2;
    the law is analytic only for Re s above it, so an admissible weight rho
    lies strictly above.  -inf without poles."""
    floor = -np.inf
    for _, nums, den in _stack_groups(law.a1 + law.a2):
        poles, live = _live_poles(nums, den)[:2]
        if np.any(live):
            floor = max(floor, float(np.max(poles.real[live])))
    return floor


def _structural_witnesses(law: MaterialLaw) -> tuple:
    """``(cell, check, witness)`` for every failed structural check, and
    whether a singular heat capacity leaves the verdict open.  Each check
    compares a value of each cell with a cutoff relative to that value; a
    witness's vector is the unit vector of the block its check reads."""
    checks = []
    for block, values in enumerate((law.rho0, law.C, law.nu)):
        tol = SPECTRAL_CUTOFF * np.maximum(np.abs(values), 1e-300)
        checks.append((values, block, values < -tol if block == 2 else values <= tol))
    # a singular heat capacity (the last check) leaves the verdict open
    undecided = bool(np.any(~checks[-1][2] & (law.nu <= tol)))
    on_range = np.abs(law.a0) > SPECTRAL_CUTOFF * np.abs(law.a0)
    checks.append((law.a0, 3, on_range & (law.a0 < 0)))
    # the flux resistance at zero must be positive where the inertia vanishes
    resistance = law.at_zero[1]
    scale = np.abs(resistance)
    checks.append((resistance, 3,
                   ~on_range & ((scale == 0.0) | (resistance <= SPECTRAL_CUTOFF * scale))))
    found = [(int(cell), check, Witness(int(cell), float(values[cell]), np.eye(4)[block]))
             for check, (values, block, failed) in enumerate(checks)
             for cell in np.flatnonzero(failed)]
    return found, undecided


def certify_wellposedness(law: MaterialLaw) -> WellPosednessReport:
    """Certify the structural positivity hypotheses behind causal solvability.

    Per cell: density, stiffness and heat capacity must be strictly positive;
    a non-zero flux inertia must be positive; and where the inertia vanishes
    the flux resistance at zero must be strictly positive.  A singular (but non-negative) heat capacity makes
    the verdict inconclusive rather than violated, since a compensating
    zero-order term lies outside the certified conditions.  Each check runs
    once over the cells' arrays; the witnesses are listed by cell, then by
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
    entries, inconclusive = _structural_witnesses(law)
    classification = law.classification

    if entries:
        witnesses = [entry[2] for entry in sorted(entries, key=lambda entry: entry[:2])]
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
