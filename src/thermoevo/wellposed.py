"""Numerical certification of the solution-theory hypotheses.

Three layers of checking, from cheap to thorough:

* :func:`check_condition_rho` evaluates the Hermitian matrix
  ``rho * M(0) + Re M'(0)`` cellwise and reports its smallest eigenvalue,
  the rational-law simplification of the positivity condition.
* :func:`check_symbol_boundary` samples ``Re z^{-1} M(z)`` of every cell
  of a law on the boundary line ``Re 1/z = rho0`` of the admissibility
  ball, where the maximum principle puts its infimum over the ball once
  poles and an indefinite ``M(0)`` are ruled out (a sampling of the line,
  not a proof).  On that line the sampled matrix is ``rho0 * M(0)`` plus
  the Hermitian parts of the two zero-order parts a1(z) and a2(z) on their
  diagonal blocks, evaluated from the parts themselves.
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
from .rational import _evaluate

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
#: sample points on the boundary line Re 1/z = rho0
LINE_SAMPLES = 257
#: symbols sampled per stacked evaluation of the boundary line: bounds its
#: arrays on laws with thousands of cells (a tracemalloc peak of about 5 MB
#: for 4x4 real blocks, whose line is halved, and 9 MB for complex ones)
LINE_CHUNK = 128


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


def check_symbol_boundary(law: MaterialLaw, rho0: float) -> tuple:
    """Minimum of the Hermitian part of z^{-1} M(z) on the ball, from its
    boundary line, over every cell of ``law``.

    With s = 1/z the ball is the half-plane Re s >= rho0.  Where every cell
    symbol is analytic there and M(0) is positive semidefinite, the infimum
    over the half-plane lies on the line Re s = rho0 (maximum principle), so
    only 1/z = rho0 + i t is sampled, at ``LINE_SAMPLES`` values of t on a
    symmetric log-spaced grid plus t = 0.  On that line the Hermitian part
    of z^{-1} M(z) = z^{-1} M(0) + diag(0, 0, a1(z), a2(z)) is
    ``rho0 * M(0)`` plus the Hermitian parts of a1(z) and a2(z) on the theta
    and q blocks, which is the matrix sampled.  A symbol that fails either
    condition is unbounded below: a live pole p of a1 or a2 (one the
    numerator does not cancel) with Re p >= rho0 gives ``(-inf, 1/p)``, a1's
    poles before a2's, an indefinite M(0) gives ``(-inf, 0j)``.  Returns
    ``(min_eigenvalue, worst_z)``, the first occurrence in cell and then t
    order; a sampling of the line, not a proof.  The cells are evaluated
    stacked, one group of equal shapes and dtypes at a time.  The result is
    kept on the law by ``rho0``, so a repeated call evaluates nothing again.
    A ``rho0`` whose largest line sample is past the float range raises
    :class:`InputError` and keeps nothing.
    """
    if not 0 < rho0 < np.inf:
        raise InputError("rho0 must be positive and finite")
    rho0 = float(rho0)
    found = law.boundary_minima
    if rho0 not in found:
        found[rho0] = _line_minimum(law.stacks, rho0)
    return found[rho0]


def _line_minimum(stacks: tuple, rho0: float) -> tuple:
    """Smallest of the cells' line minima, at its first cell."""
    z_inv = _boundary_samples(rho0)
    unbounded = [(stack.index[k], z) for stack in stacks
                 for k, z in [_unbounded_witness(stack, rho0)] if k is not None]
    if unbounded:
        return -np.inf, min(unbounded, key=lambda entry: entry[0])[1]
    found = []
    for stack in stacks:
        for start in range(0, len(stack.index), LINE_CHUNK):
            part = slice(start, start + LINE_CHUNK)
            lowest, z = _symbol_minima(stack, part, rho0, z_inv)
            k, t = np.unravel_index(np.argmin(lowest), lowest.shape)
            found.append((float(lowest[k, t]), stack.index[start + k], complex(z[t])))
    return min(found, key=lambda entry: entry[:2], default=(np.inf, None, None))[::2]


def _unbounded_witness(stack, rho0: float):
    """``(k, z)`` for the first stacked cell k whose symbol the line does
    not bound from below on Re s >= rho0: a live pole of a1 or a2 there
    (z = 1/p, its first such pole, a1's before a2's), or M(0) not positive
    semidefinite (z = 0); (None, None) if every symbol is bounded."""
    poles, live = stack.poles
    inside = live & (poles.real >= rho0)
    eigvals = np.linalg.eigvalsh(stack.mass)
    scale = np.maximum(np.max(np.abs(eigvals), axis=1), 1e-300)
    failed = np.flatnonzero(np.any(inside, axis=1) | (eigvals[:, 0] < -SPECTRAL_CUTOFF * scale))
    if failed.size == 0:
        return None, None
    k = failed[0]
    if np.any(inside[k]):
        return k, complex(1.0 / poles[k, np.argmax(inside[k])])
    return k, 0j


def _boundary_samples(rho0: float) -> np.ndarray:
    """Sample points 1/z = rho0 + i t on the boundary line; InputError if
    the largest t is past the float range."""
    half = (LINE_SAMPLES - 1) // 2
    with np.errstate(over="ignore"):
        t_pos = rho0 * np.logspace(-3, 6, half)
    if not np.isfinite(t_pos[-1]):
        raise InputError(f"rho0={rho0:g} is too large: the largest sample of the line "
                         "Re 1/z = rho0 is not finite")
    t_grid = np.concatenate([[0.0], t_pos, -t_pos])
    return 1j * t_grid + rho0


def _symbol_minima(stack, cells: slice, rho0: float, z_inv: np.ndarray) -> tuple:
    """Smallest eigenvalue of the Hermitian part of z^{-1} M(z) per cell of
    ``stack[cells]`` and sample ``z_inv`` of the line Re 1/z = rho0, with
    the sampled z."""
    arrays = [stack.mass] + [a for nums, den in stack.parts for a in nums + [den]]
    if not any(np.iscomplexobj(a) for a in arrays):
        # M(conj z) = conj M(z): the samples at -t, which follow those at
        # t, repeat their eigenvalues
        z_inv = z_inv[:(z_inv.size + 1) // 2]
    z = 1.0 / z_inv
    mass = stack.mass[cells]
    herm = np.empty((len(mass), z.size) + mass.shape[1:], dtype=complex)
    herm[...] = rho0 * mass[:, None]
    for block, (nums, den) in zip(_block_slices(stack.cells[0].block_dims)[2:], stack.parts):
        herm[..., block, block] += _herm(_evaluate(
            [m[cells] for m in nums], den[cells], np.broadcast_to(z, (len(mass), z.size))))
    return np.linalg.eigvalsh(herm)[..., 0], z


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
