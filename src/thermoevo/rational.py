"""Matrix-valued rational functions of the inverse time derivative.

A function is stored as a matrix polynomial numerator over a scalar
polynomial denominator, both with ascending coefficients in z.  The
denominator must not vanish at z = 0 so that the function is analytic
there (the admissibility requirement for causal material symbols).

State-space realizations translate a real scalar function with real
simple poles into a time-domain update ``y = D u + C x``, ``x' = A x + B u``
via partial fractions in the variable s = 1/z, one state per pole, which is
what the time steppers consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InputError, PoleProximityError, RealizationError

__all__ = [
    "RationalMatrixFunction",
    "StateSpaceRealization",
    "realize_state_space",
]

#: relative pole guard for pointwise evaluation
EVAL_POLE_TOL = 1e-14
#: relative tolerance of the transfer-match self check after realization
TRANSFER_MATCH_TOL = 1e-9


def _as_coeff_matrices(num) -> list[np.ndarray]:
    mats = [np.atleast_2d(np.asarray(c)) for c in num]
    if not mats:
        raise InputError("numerator needs at least one coefficient matrix")
    shape = mats[0].shape
    for m in mats:
        if m.shape != shape:
            raise InputError("numerator coefficient matrices must share a shape")
    return mats


def _coefficient_key(coeff: np.ndarray) -> tuple:
    value = coeff + 0.0
    return value.dtype.str, value.tobytes()


@dataclass(frozen=True)
class RationalMatrixFunction:
    """Ratio of a matrix polynomial and a scalar polynomial in z.

    ``num[k]`` is the matrix coefficient of z**k; ``den[k]`` the scalar one.
    """

    num: tuple
    den: np.ndarray
    dims: tuple = field(init=False)

    def __post_init__(self):
        mats = _as_coeff_matrices(self.num)
        den = np.atleast_1d(np.asarray(self.den))
        if den.ndim != 1 or den.size == 0:
            raise InputError("denominator must be a non-empty coefficient vector")
        # strip trailing (near-)zero denominator coefficients
        scale = np.max(np.abs(den))
        if scale == 0.0 or abs(den[0]) <= 1e-15 * scale:
            raise InputError("denominator must not vanish at z = 0 (symbol not analytic)")
        last = den.size
        while last > 1 and den[last - 1] == 0.0:
            last -= 1
        den = den[:last]
        den.flags.writeable = False
        for m in mats:
            m.flags.writeable = False
        object.__setattr__(self, "num", tuple(mats))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "dims", mats[0].shape)

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, value) -> "RationalMatrixFunction":
        return cls((np.atleast_2d(np.asarray(value)),), np.array([1.0]))

    @classmethod
    def zero(cls, dim: int) -> "RationalMatrixFunction":
        return cls((np.zeros((dim, dim)),), np.array([1.0]))

    def key(self) -> tuple:
        """Hashable identity of the coefficients; adding 0.0 maps integers to
        floats and -0.0 to 0.0, and the dtype tells a complex coefficient from
        two real ones, so equal keys mean equal coefficient values."""
        return self._key

    @cached_property
    def _key(self) -> tuple:
        # the coefficient arrays are read-only, so the key never changes
        return (self.dims, tuple(_coefficient_key(m) for m in self.num),
                _coefficient_key(self.den))


def _horner(coeffs: list, z: np.ndarray) -> np.ndarray:
    """Horner's rule for polynomials stacked on the leading axis:
    ``coeffs[k]``, of shape (G, ...), multiplies z**k; z has shape
    (G, points...)."""
    tail = coeffs[0].shape[1:]
    spread = (slice(None),) + (None,) * (z.ndim - 1)
    z_tail = z.reshape(z.shape + (1,) * len(tail))
    acc = np.zeros(z.shape + tail,
                   dtype=np.result_type(z.dtype, *(c.dtype for c in coeffs), float))
    for coeff in reversed(coeffs):
        acc *= z_tail
        acc += coeff[spread]
    return acc


def _evaluate(nums: list, den: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Values of stacked laws (numerator coefficients ``nums[k]`` of shape
    (G, rows, cols), denominators (G, D)) at points z of shape
    (G, points...), each law with its own pole-proximity guard."""
    den_val = _horner(list(den.T), z)
    guard = EVAL_POLE_TOL * np.max(np.abs(den), axis=1)
    near = np.abs(den_val) <= guard.reshape((-1,) + (1,) * (z.ndim - 1))
    if np.any(near):
        raise PoleProximityError(f"denominator nearly vanishes at z = {z[near][0]}")
    return _horner(nums, z) / den_val[..., None, None]


def _stack_groups(laws) -> list:
    """``(indices, numerators, denominators)`` per group of laws that share
    dims, coefficient counts and dtypes, stacked on a leading axis, in
    first-appearance order."""
    groups = {}
    for i, r in enumerate(laws):
        shape = (r.dims, r.den.size, r.den.dtype.str) + tuple(m.dtype.str for m in r.num)
        groups.setdefault(shape, []).append(i)
    return [(index, [np.stack(m) for m in zip(*(laws[i].num for i in index))],
             np.stack([laws[i].den for i in index])) for index in groups.values()]


@dataclass(frozen=True)
class StateSpaceRealization:
    """Time-domain realization y = D u + C x with x' = A x + B u.

    The arrays are real and A is diagonal: every state belongs to one real
    simple pole (the partial fractions of :func:`realize_state_space`)."""

    d: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    @property
    def n_states(self) -> int:
        return self.a.shape[-1]

    def transfer(self, s):
        """D + C (sI - A)^{-1} B; broadcasts over an array of frequencies s.
        Realizations stacked on leading axes broadcast against those of s."""
        s = np.asarray(s)
        if self.n_states == 0:
            return np.zeros(s.shape + self.d.shape[-2:], dtype=complex) + self.d
        # A is diagonal, so the resolvent divides each row of B by s - a
        poles = np.diagonal(self.a, axis1=-2, axis2=-1)
        resolvent = self.b / (s[..., None] - poles)[..., None]
        return self.d + self.c @ resolvent


def _poles(n_num: int, den: np.ndarray) -> np.ndarray:
    """Poles in s of stacked laws R(1/s) with ``n_num`` numerator
    coefficients over the denominators ``den`` (G, D): reciprocals of the
    denominator roots, as ``numpy.polynomial.Polynomial.roots`` finds them
    (closed form for degree 1, else sorted companion eigenvalues), then one
    pole at s = 0 per degree the numerator exceeds the denominator."""
    den = den.astype(np.result_type(den.dtype, float), copy=False)
    count, size = den.shape
    roots = np.zeros((count, 0))
    if size == 2:
        roots = -den[:, :1] / den[:, 1:]
    elif size > 2:
        companion = np.zeros((count, size - 1, size - 1), dtype=den.dtype)
        companion[:, np.arange(1, size - 1), np.arange(size - 2)] = 1
        companion[:, :, -1] -= den[:, :-1] / den[:, -1:]
        roots = np.sort(np.linalg.eigvals(companion), axis=-1)
    roots = 0.0 + 1.0 * roots  # Polynomial.roots maps its window onto its domain
    extra = np.zeros((count, max(n_num - size, 0)))
    return np.concatenate([1.0 / roots, extra], axis=1).astype(complex)


def _live_poles(nums: list, den: np.ndarray) -> tuple:
    """``(poles, live, phi(p), psi'(p))`` of stacked laws, R(1/s) =
    phi(s) / psi(s) with cleared denominators, so that phi(p) / psi'(p) is
    the residue at a simple pole p.  A pole is live unless the numerator
    cancels it (phi(p) vanishes against the largest numerator coefficient,
    e.g. for identical lag times; a law scaled by any factor keeps its
    poles) or psi' vanishes there (a repeated pole)."""
    poles = _poles(len(nums), den)
    count, size = den.shape
    deg = max(len(nums), size) - 1
    rows, cols = nums[0].shape[1:]
    phi = np.zeros((count, deg + 1, rows, cols), dtype=complex)
    phi[:, deg - np.arange(len(nums))] += np.stack(nums, axis=1)
    psi = np.zeros((count, deg + 1), dtype=complex)
    psi[:, deg - np.arange(size)] += den
    slope = np.arange(1, deg + 1) * psi[:, 1:]
    x = 0.0 + 1.0 * poles  # Horner as Polynomial.__call__ runs it, domain map first
    dpsi = slope[:, -1:] + x * 0
    for k in range(2, deg + 1):
        dpsi = slope[:, -k, None] + dpsi * x
    powers = poles[..., None] ** np.arange(deg + 1)
    phi_val = (powers[:, :, None, :] @ phi.reshape(count, 1, deg + 1, rows * cols)
               ).reshape(poles.shape + (rows, cols))
    scale = np.max(np.abs(np.stack(nums, axis=1)), axis=(1, 2, 3))
    tol = 1e-12 * scale[:, None] * np.abs(dpsi)
    live = (np.max(np.abs(phi_val), axis=(2, 3)) > tol) | (dpsi == 0)
    return poles, live, phi_val, dpsi


def realize_state_space(laws):
    """Partial-fraction state-space realization of y = R(inverse-derivative) u.

    Realizes real scalar laws with real simple poles in s = 1/z: the
    feedthrough is R(0), and each live pole p with residue r gets one state,
    a = p, b = sqrt|r|, c = sign(r) sqrt|r|.  Other laws raise
    :class:`RealizationError`.  The result is checked against direct
    evaluation at 32 sampled frequencies to ``TRANSFER_MATCH_TOL`` relative.

    ``laws`` is one :class:`RationalMatrixFunction`, for which one
    realization is returned, or a sequence of them, for which a tuple in the
    same order is returned.  Each law keeps its realization (read-only
    arrays), and equal laws in one call share one; the laws not yet realized
    are realized together, one stacked pass per group of equal degrees and
    dtypes.
    """
    single = isinstance(laws, RationalMatrixFunction)
    laws = [laws] if single else list(laws)
    found = {r.key(): vars(r)["_realization"] for r in laws if "_realization" in vars(r)}
    fresh = {r.key(): r for r in laws if r.key() not in found}
    order = list(fresh)
    for index, nums, den in _stack_groups(list(fresh.values())):
        found.update(zip([order[i] for i in index], _realize(nums, den)))
    reals = tuple(vars(r).setdefault("_realization", found[r.key()]) for r in laws)
    return reals[0] if single else reals


def _realize(nums: list, den: np.ndarray) -> list:
    """Realizations of laws of one dims, degrees and dtypes, stacked as
    ``nums``/``den``; only real scalar laws with real simple poles."""
    if nums[0].shape[1:] != (1, 1):
        rows, cols = nums[0].shape[1:]
        raise RealizationError(f"{rows}x{cols} law; only scalar laws are realized")
    if any(np.iscomplexobj(x) for x in (*nums, den)):
        raise RealizationError("complex coefficient; only real laws are realized")
    poles, live, phi_val, dpsi = _live_poles(nums, den)
    spread = np.max(np.abs(poles), axis=1, initial=1.0)[:, None, None]
    close = np.abs(poles[:, :, None] - poles[:, None, :]) <= 1e-8 * spread
    close &= np.triu(np.ones(close.shape[1:], dtype=bool), 1)
    if np.any(close):
        g, i, _ = np.argwhere(close)[0]
        raise RealizationError(
            f"repeated pole near s = {poles[g, i]:.6g}; only simple poles are supported")
    residue = phi_val[..., 0, 0] / dpsi
    # an exactly cancelling factor (e.g. identical lag times) keeps no state
    keep = live & (residue != 0)
    root = np.sqrt(np.abs(residue))
    complex_pole = keep & ((np.abs(poles.imag) >= 1e-14) | (np.abs(residue.imag) >= 1e-12 * root))
    if np.any(complex_pole):
        g, i = np.argwhere(complex_pole)[0]
        raise RealizationError(
            f"complex pole s = {poles[g, i]:.6g}; only real poles are realized")
    parts = np.cumsum(np.sum(keep, axis=1))[:-1]
    a, b, c = (np.split(x[keep], parts) for x in (poles.real, root, np.sign(residue.real) * root))
    reals = [StateSpaceRealization(d, np.diag(a_g), b_g[:, None], c_g[None])
             for d, a_g, b_g, c_g in zip(nums[0] / den[:, :1, None], a, b, c)]
    _check_transfer_match(nums, den, reals, poles)
    for real in reals:
        for arr in (real.d, real.a, real.b, real.c):
            arr.flags.writeable = False
    return reals


def _check_transfer_match(nums: list, den: np.ndarray, reals: list,
                          poles: np.ndarray) -> None:
    """Compare the realizations with the stacked laws ``nums``/``den`` at 32
    frequencies each, scaled by the largest of its ``poles`` (a row of
    ``_poles`` per law)."""
    ref = np.max(np.abs(poles), axis=1, initial=1.0)[:, None]
    freqs = 1j * ref * np.logspace(-2, 2, 32) + 0.311 * ref  # off the imaginary axis and spectrum
    want = _evaluate(nums, den, 1.0 / freqs)
    got = np.zeros_like(want)
    sizes = np.array([real.n_states for real in reals])
    for n in sorted(set(sizes.tolist())):
        index = np.flatnonzero(sizes == n)
        stacked = StateSpaceRealization(*(np.stack([getattr(reals[i], f) for i in index])[:, None]
                                          for f in "dabc"))
        got[index] = stacked.transfer(freqs[index])
    for w, sc in zip(np.max(np.abs(want - got), axis=(1, 2, 3)),
                     np.max(np.abs(want), axis=(1, 2, 3))):
        if w > TRANSFER_MATCH_TOL * max(sc, 1e-30):
            raise RealizationError(f"realization transfer mismatch {w:.3e} (scale {sc:.3e})")
