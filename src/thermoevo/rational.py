"""Scalar rational functions of the inverse time derivative.

A function is stored as a real numerator polynomial over a real
denominator polynomial, both with ascending coefficients in z.  The
denominator must not vanish at z = 0 so that the function is analytic
there (the admissibility requirement for causal material symbols).

State-space realizations translate a function with real simple poles into
a time-domain update ``y = d u + c . x``, ``x' = diag(a) x + b u`` via
partial fractions in the variable s = 1/z, one state per pole, which is
what the time steppers consume.
"""

from __future__ import annotations

import numpy as np

from ._frozen import Frozen
from .errors import InputError, PoleProximityError, RealizationError

__all__ = [
    "RationalFunction",
    "StateSpaceRealization",
    "realize_state_space",
]

#: relative pole guard for pointwise evaluation
EVAL_POLE_TOL = 1e-14
#: relative tolerance of the transfer-match self check after realization
TRANSFER_MATCH_TOL = 1e-9


#: the types of a real number; a bool (``bool`` or ``np.bool_``) is not one
_REAL = (int, float, np.integer, np.floating)


def real_array(value, message: str) -> np.ndarray:
    """``value`` as a read-only float64 array of at most one dimension: a
    Python or numpy int or float (an int becomes the double ``float()``
    gives), a list or tuple of them, or an int or float ndarray, judged by
    its dtype.  Anything else, a bool anywhere in it, a non-finite value or
    a nested list included, raises :class:`InputError` with ``message``."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind not in "iuf" or value.ndim > 1:
            raise InputError(message)
        with np.errstate(over="ignore"):  # a long double past the range: inf, refused below
            arr = value.astype(np.float64)
    else:
        items = value if isinstance(value, (list, tuple)) else [value]
        if not all(isinstance(v, _REAL) and not isinstance(v, bool) for v in items):
            raise InputError(message)
        try:
            with np.errstate(over="ignore"):
                arr = np.asarray(value, dtype=np.float64)
        except OverflowError:  # an int past the float range
            raise InputError(message) from None
    if not np.isfinite(arr).all():
        raise InputError(message)
    arr.flags.writeable = False
    return arr


def _coefficients(value, name: str) -> np.ndarray:
    message = f"{name} must be a non-empty list of real finite numbers"
    arr = real_array(value, message)
    if arr.ndim != 1 or arr.size == 0:
        raise InputError(message)
    return arr


class RationalFunction(Frozen):
    """Ratio of two real polynomials in z.

    ``num[k]`` and ``den[k]`` are the coefficients of z**k, held as
    read-only float64 vectors.  The constructor raises :class:`InputError`
    unless each is a non-empty 1-D list of real finite numbers and the
    denominator does not vanish at z = 0; it drops the denominator's
    trailing zeros.
    """

    def __init__(self, num, den):
        num = _coefficients(num, "numerator")
        den = _coefficients(den, "denominator")
        scale = np.abs(den).max()
        if scale == 0.0 or abs(den[0]) <= 1e-15 * scale:
            raise InputError("denominator must not vanish at z = 0 (symbol not analytic)")
        last = den.size
        while last > 1 and den[last - 1] == 0.0:
            last -= 1
        vars(self).update(num=num, den=den[:last])

    @classmethod
    def constant(cls, value: float) -> "RationalFunction":
        return cls([value], [1.0])


def _horner(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Horner's rule for polynomials stacked on the leading axis: column k of
    ``coeffs`` (G, K) multiplies z**k; z has shape (G, points...)."""
    spread = (slice(None),) + (None,) * (z.ndim - 1)
    acc = np.zeros(z.shape, dtype=np.result_type(z.dtype, float))
    for coeff in reversed(coeffs.T):
        acc *= z
        acc += coeff[spread]
    return acc


def _evaluate(nums: np.ndarray, den: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Values of stacked laws (numerators (G, N), denominators (G, D)) at
    points z of shape (G, points...), each law with its own pole-proximity
    guard."""
    den_val = _horner(den, z)
    guard = EVAL_POLE_TOL * np.max(np.abs(den), axis=1)
    near = np.abs(den_val) <= guard.reshape((-1,) + (1,) * (z.ndim - 1))
    if np.any(near):
        raise PoleProximityError(f"denominator nearly vanishes at z = {z[near][0]}")
    return _horner(nums, z) / den_val


def _stack_groups(laws) -> list:
    """``(indices, numerators, denominators)`` per group of laws with equal
    coefficient counts, stacked (G, N) and (G, D), in first-appearance
    order."""
    groups = {}
    for i, r in enumerate(laws):
        groups.setdefault((r.num.size, r.den.size), []).append(i)
    return [(index, np.stack([laws[i].num for i in index]), np.stack([laws[i].den for i in index]))
            for index in groups.values()]


class StateSpaceRealization(Frozen):
    """Time-domain realization y = d u + c . x with x' = diag(a) x + b u.

    ``d`` is a float and ``a``, ``b``, ``c`` are real vectors of length
    ``n_states``: state k belongs to the real simple pole ``a[k]`` (the
    partial fractions of :func:`realize_state_space`)."""

    def __init__(self, d: float, a: np.ndarray, b: np.ndarray, c: np.ndarray):
        vars(self).update(d=d, a=a, b=b, c=c)

    @property
    def n_states(self) -> int:
        return self.a.shape[-1]

    def transfer(self, s):
        """d + sum_k c_k b_k / (s - a_k); broadcasts over an array of
        frequencies s.  Realizations stacked on leading axes (``d`` of
        shape (..., 1)) broadcast against those of s."""
        s = np.asarray(s)
        return self.d + np.sum(self.c * (self.b / (s[..., None] - self.a)), axis=-1)


def _poles(n_num: int, den: np.ndarray) -> np.ndarray:
    """Poles in s of stacked laws R(1/s) with ``n_num`` numerator
    coefficients over the denominators ``den`` (G, D): reciprocals of the
    denominator roots, as ``numpy.polynomial.Polynomial.roots`` finds them
    (closed form for degree 1, else sorted companion eigenvalues), then one
    pole at s = 0 per degree the numerator exceeds the denominator."""
    count, size = den.shape
    roots = np.zeros((count, 0))
    if size == 2:
        roots = -den[:, :1] / den[:, 1:]
    elif size > 2:
        companion = np.zeros((count, size - 1, size - 1))
        companion[:, np.arange(1, size - 1), np.arange(size - 2)] = 1
        companion[:, :, -1] -= den[:, :-1] / den[:, -1:]
        roots = np.sort(np.linalg.eigvals(companion), axis=-1)
    roots = 0.0 + 1.0 * roots  # Polynomial.roots maps its window onto its domain
    extra = np.zeros((count, max(n_num - size, 0)))
    return np.concatenate([1.0 / roots, extra], axis=1).astype(complex)


def _live_poles(nums: np.ndarray, den: np.ndarray) -> tuple:
    """``(poles, live, phi(p), psi'(p))`` of stacked laws, R(1/s) =
    phi(s) / psi(s) with cleared denominators, so that phi(p) / psi'(p) is
    the residue at a simple pole p.  A pole is live unless the numerator
    cancels it (phi(p) vanishes against the largest numerator coefficient,
    e.g. for identical lag times; a law scaled by any factor keeps its
    poles) or psi' vanishes there (a repeated pole)."""
    count, n_num = nums.shape
    size = den.shape[1]
    poles = _poles(n_num, den)
    deg = max(n_num, size) - 1
    phi = np.zeros((count, deg + 1), dtype=complex)
    phi[:, deg - np.arange(n_num)] += nums
    psi = np.zeros((count, deg + 1), dtype=complex)
    psi[:, deg - np.arange(size)] += den
    slope = np.arange(1, deg + 1) * psi[:, 1:]
    x = 0.0 + 1.0 * poles  # Horner as Polynomial.__call__ runs it, domain map first
    dpsi = slope[:, -1:] + x * 0
    for k in range(2, deg + 1):
        dpsi = slope[:, -k, None] + dpsi * x
    powers = poles[..., None] ** np.arange(deg + 1)
    # the 4-D product rounds as the stacked matrix laws did; powers @ phi does not
    phi_val = (powers[:, :, None, :] @ phi[:, None, :, None])[..., 0, 0]
    tol = 1e-12 * np.max(np.abs(nums), axis=1)[:, None] * np.abs(dpsi)
    live = (np.abs(phi_val) > tol) | (dpsi == 0)
    return poles, live, phi_val, dpsi


def realize_state_space(laws):
    """Partial-fraction state-space realization of y = R(inverse-derivative) u.

    Realizes laws with real simple poles in s = 1/z: the feedthrough is
    R(0), and each live pole p with residue r gets one state, a = p,
    b = sqrt|r|, c = sign(r) sqrt|r|.  Other laws raise
    :class:`RealizationError`.  The result is checked against direct
    evaluation at 32 sampled frequencies to ``TRANSFER_MATCH_TOL`` relative.

    ``laws`` is one :class:`RationalFunction`, for which one realization is
    returned, or a sequence of them, for which a tuple in the same order is
    returned.  Each law object keeps its realization (read-only arrays); the
    objects not yet realized are realized together, one stacked pass per
    group of equal coefficient counts.
    """
    single = isinstance(laws, RationalFunction)
    laws = [laws] if single else list(laws)
    fresh = list({id(r): r for r in laws if "_realization" not in vars(r)}.values())
    for index, nums, den in _stack_groups(fresh):
        for i, real in zip(index, _realize(nums, den)):
            vars(fresh[i])["_realization"] = real
    reals = tuple(vars(r)["_realization"] for r in laws)
    return reals[0] if single else reals


def _realize(nums: np.ndarray, den: np.ndarray) -> list:
    """Realizations of laws of equal coefficient counts, stacked as
    ``nums``/``den``; only laws with real simple poles."""
    poles, live, phi_val, dpsi = _live_poles(nums, den)
    spread = np.max(np.abs(poles), axis=1, initial=1.0)[:, None, None]
    close = np.abs(poles[:, :, None] - poles[:, None, :]) <= 1e-8 * spread
    close &= np.triu(np.ones(close.shape[1:], dtype=bool), 1)
    if np.any(close):
        g, i, _ = np.argwhere(close)[0]
        raise RealizationError(
            f"repeated pole near s = {poles[g, i]:.6g}; only simple poles are supported")
    residue = phi_val / dpsi
    # an exactly cancelling factor (e.g. identical lag times) keeps no state
    keep = live & (residue != 0)
    root = np.sqrt(np.abs(residue))
    complex_pole = keep & ((np.abs(poles.imag) >= 1e-14) | (np.abs(residue.imag) >= 1e-12 * root))
    if np.any(complex_pole):
        g, i = np.argwhere(complex_pole)[0]
        raise RealizationError(
            f"complex pole s = {poles[g, i]:.6g}; only real poles are realized")
    states = np.stack([poles.real, root, np.sign(residue.real) * root])[:, keep]
    states.flags.writeable = False
    parts = np.cumsum(np.sum(keep, axis=1))[:-1]
    reals = [StateSpaceRealization(d, *abc) for d, abc in zip(
        (nums[:, 0] / den[:, 0]).tolist(), np.split(states, parts, axis=1))]
    _check_transfer_match(nums, den, reals, poles)
    return reals


def _check_transfer_match(nums: np.ndarray, den: np.ndarray, reals: list,
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
    for w, sc in zip(np.max(np.abs(want - got), axis=1), np.max(np.abs(want), axis=1)):
        if w > TRANSFER_MATCH_TOL * max(sc, 1e-30):
            raise RealizationError(f"realization transfer mismatch {w:.3e} (scale {sc:.3e})")
