"""Matrix-valued rational functions of the inverse time derivative.

A function is stored as a matrix polynomial numerator over a scalar
polynomial denominator, both with ascending coefficients in z.  The
denominator must not vanish at z = 0 so that the function is analytic
there (the admissibility requirement for causal material symbols).

State-space realizations translate such a function into a time-domain
update ``y = D u + C x``, ``x' = A x + B u`` via partial fractions in the
variable s = 1/z, which is what the time steppers consume.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ._integrators import exp_march_linear
from .errors import InputError, PoleProximityError, RealizationError
from .signals import WeightedSignal, apply_symbol_fl

__all__ = [
    "RationalMatrixFunction",
    "StateSpaceRealization",
    "eval_rational",
    "realize_state_space",
    "validate_realization",
]

#: relative pole guard for pointwise evaluation
EVAL_POLE_TOL = 1e-14
#: relative tolerance of the transfer-match self check after realization
TRANSFER_MATCH_TOL = 1e-9
#: realizations the memo keeps; a 128-cell per-cell law (the largest
#: measured, the api_sweep benchmark) realizes 128 distinct laws
REALIZATION_MEMO_SIZE = 256


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
    dims: tuple = None

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
    def zero(cls, rows: int = 1, cols: int = None) -> "RationalMatrixFunction":
        cols = rows if cols is None else cols
        return cls((np.zeros((rows, cols)),), np.array([1.0]))

    @classmethod
    def identity(cls, n: int = 1) -> "RationalMatrixFunction":
        return cls.constant(np.eye(n))

    @classmethod
    def variable(cls) -> "RationalMatrixFunction":
        """The scalar function z itself (causal integration symbol)."""
        return cls((np.zeros((1, 1)), np.ones((1, 1))), np.array([1.0]))

    # -- basic algebra -----------------------------------------------------

    @property
    def num_degree(self) -> int:
        return len(self.num) - 1

    @property
    def den_degree(self) -> int:
        return self.den.size - 1

    @property
    def is_real(self) -> bool:
        return not (
            any(np.iscomplexobj(m) for m in self.num) or np.iscomplexobj(self.den)
        )

    def num_at(self, z):
        """Horner evaluation of the matrix numerator; broadcasts over z arrays."""
        z = np.asarray(z)
        dtype = np.result_type(z.dtype, *(m.dtype for m in self.num), float)
        acc = np.zeros(z.shape + self.dims, dtype=dtype)
        for coeff in reversed(self.num):
            acc *= z[..., None, None]
            acc += coeff
        return acc

    def den_at(self, z):
        z = np.asarray(z)
        acc = np.zeros(z.shape, dtype=np.result_type(z.dtype, self.den.dtype, float))
        for c in reversed(self.den):
            acc = acc * z + c
        return acc

    def key(self) -> tuple:
        """Hashable identity of the coefficients; adding 0.0 maps integers to
        floats and -0.0 to 0.0, and the dtype tells a complex coefficient from
        two real ones, so equal keys mean equal coefficient values."""
        return (self.dims, tuple(_coefficient_key(m) for m in self.num),
                _coefficient_key(self.den))

    def at_zero(self) -> np.ndarray:
        """Value at z = 0 (always defined by the analyticity gate)."""
        return np.asarray(self.num[0]) / self.den[0]

    def scaled(self, factor: float) -> "RationalMatrixFunction":
        return RationalMatrixFunction(tuple(factor * m for m in self.num), self.den)

    def times_z(self) -> "RationalMatrixFunction":
        """The function z -> z * R(z)."""
        zero = np.zeros_like(self.num[0])
        return RationalMatrixFunction((zero,) + self.num, self.den)

    def plus_constant(self, value) -> "RationalMatrixFunction":
        """The function z -> R(z) + value."""
        value = np.atleast_2d(np.asarray(value))
        num = [m.copy() for m in self.num]
        for k, c in enumerate(self.den):
            if k < len(num):
                num[k] = num[k] + c * value
            else:
                num.append(c * value)
        return RationalMatrixFunction(tuple(num), self.den)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "num": [np.asarray(m).tolist() for m in self.num],
            "den": self.den.tolist(),
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "RationalMatrixFunction":
        payload = json.loads(text)
        if set(payload) != {"num", "den"}:
            raise InputError("rational function JSON must have exactly 'num' and 'den'")
        return cls(tuple(np.asarray(m, dtype=float) for m in payload["num"]),
                   np.asarray(payload["den"], dtype=float))


def eval_rational(r: RationalMatrixFunction, z: complex) -> np.ndarray:
    """Evaluate numerator(z)/denominator(z) with a pole-proximity guard;
    broadcasts over an array of points z."""
    den = r.den_at(z)
    guard = EVAL_POLE_TOL * float(np.max(np.abs(r.den)))
    near = np.ravel(np.abs(den) <= guard)
    if np.any(near):
        first = np.ravel(z)[np.argmax(near)]
        raise PoleProximityError(f"denominator nearly vanishes at z = {first}")
    return r.num_at(z) / np.asarray(den)[..., None, None]


@dataclass(frozen=True)
class StateSpaceRealization:
    """Time-domain realization y = D u + C x with x' = A x + B u."""

    d: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    @property
    def n_states(self) -> int:
        return self.a.shape[0]

    def transfer(self, s):
        """D + C (sI - A)^{-1} B; broadcasts over an array of frequencies s."""
        s = np.asarray(s)
        if self.n_states == 0:
            return np.zeros(s.shape + self.d.shape, dtype=complex) + self.d
        # b broadcast to a stack of matrices: numpy 1.x would read a 2-D b
        # against a 3-D stack as a stack of vectors
        resolvent = np.linalg.solve(s[..., None, None] * np.eye(self.n_states) - self.a,
                                    np.broadcast_to(self.b, s.shape + self.b.shape))
        return self.d + self.c @ resolvent


def _poles_in_s(r: RationalMatrixFunction) -> np.ndarray:
    """Poles of R(1/s): reciprocals of the denominator roots plus, when the
    numerator degree exceeds the denominator degree, poles at s = 0."""
    den_roots = np.polynomial.Polynomial(r.den).roots() if r.den_degree > 0 else np.array([])
    poles = [1.0 / root for root in den_roots]
    extra = r.num_degree - r.den_degree
    poles.extend([0.0] * max(extra, 0))
    return np.asarray(poles, dtype=complex)


#: realizations by ``RationalMatrixFunction.key()``, shared by every caller;
#: past ``REALIZATION_MEMO_SIZE`` entries the oldest is dropped
_REALIZATIONS: dict = {}


def realize_state_space(r: RationalMatrixFunction) -> StateSpaceRealization:
    """Partial-fraction state-space realization of y = R(inverse-derivative) u.

    The feedthrough is R(0); each simple pole of R(1/s) contributes a state
    block whose size is the rank of the matrix residue.  Repeated poles are
    rejected.  The result is checked against direct evaluation at 32 sampled
    frequencies and must match to ``TRANSFER_MATCH_TOL`` relative.

    Realizations are memoized on ``r.key()``, so equal laws share one
    realization, and its arrays are read-only.
    """
    key = r.key()
    real = _REALIZATIONS.get(key)
    if real is None:
        real = _realize(r)
        if len(_REALIZATIONS) >= REALIZATION_MEMO_SIZE:
            del _REALIZATIONS[next(iter(_REALIZATIONS))]
        _REALIZATIONS[key] = real
    return real


def _realize(r: RationalMatrixFunction) -> StateSpaceRealization:
    poles = _poles_in_s(r)
    if poles.size > 1:
        spread = max(np.max(np.abs(poles)), 1.0)
        for i in range(poles.size):
            for j in range(i + 1, poles.size):
                if abs(poles[i] - poles[j]) <= 1e-8 * spread:
                    raise RealizationError(
                        f"repeated pole near s = {poles[i]:.6g}; only simple poles are supported"
                    )

    d = r.at_zero()
    rows, cols = r.dims

    # clear denominators: R(1/s) = phi(s) / psi(s) with matching powers of s
    deg = max(r.num_degree, r.den_degree)
    phi = np.zeros((deg + 1, rows, cols), dtype=complex)
    for k, m in enumerate(r.num):
        phi[deg - k] += m
    psi = np.zeros(deg + 1, dtype=complex)
    for k, c in enumerate(r.den):
        psi[deg - k] += c
    dpsi = np.polynomial.Polynomial(psi).deriv()

    a_blocks, b_blocks, c_blocks = [], [], []
    residue_scale = max(float(np.max(np.abs(r.num_at(0.0)))), float(np.max(np.abs(d))), 1.0)
    for pole in poles:
        powers = pole ** np.arange(deg + 1)
        phi_val = np.tensordot(powers, phi, axes=(0, 0))
        residue = phi_val / dpsi(pole)
        if np.max(np.abs(residue)) <= 1e-12 * residue_scale:
            continue  # exactly cancelling factor, e.g. identical lag times
        u, s, vh = np.linalg.svd(residue)
        rank = int(np.sum(s > 1e-12 * s[0]))
        root_s = np.sqrt(s[:rank])
        c_blocks.append(u[:, :rank] * root_s)
        b_blocks.append(root_s[:, None] * vh[:rank])
        a_blocks.append(np.full(rank, pole))

    if a_blocks:
        a = np.diag(np.concatenate(a_blocks))
        b = np.vstack(b_blocks)
        c = np.hstack(c_blocks)
    else:
        a = np.zeros((0, 0))
        b = np.zeros((0, cols))
        c = np.zeros((rows, 0))

    if (np.max(np.abs(a.imag)) if a.size else 0.0) < 1e-14 and \
            (np.max(np.abs(b.imag)) if b.size else 0.0) < 1e-12 and \
            (np.max(np.abs(c.imag)) if c.size else 0.0) < 1e-12 and r.is_real:
        a, b, c = a.real, b.real, c.real
        d = np.asarray(d).real

    real = StateSpaceRealization(np.atleast_2d(d), a, b, c)
    _check_transfer_match(r, real, poles)
    for arr in (real.d, real.a, real.b, real.c):
        arr.flags.writeable = False
    return real


def _check_transfer_match(r: RationalMatrixFunction, real: StateSpaceRealization,
                          poles: np.ndarray) -> None:
    """Compare the realization with ``r`` at 32 frequencies scaled by the
    largest of ``poles`` (those of ``_poles_in_s(r)``)."""
    pole_mags = np.abs(poles)
    ref = max(float(np.max(pole_mags)) if pole_mags.size else 1.0, 1.0)
    freqs = 1j * ref * np.logspace(-2, 2, 32) + 0.311 * ref  # off the imaginary axis and spectrum
    want = eval_rational(r, 1.0 / freqs)
    scale = float(np.max(np.abs(want)))
    worst = float(np.max(np.abs(want - real.transfer(freqs))))
    if worst > TRANSFER_MATCH_TOL * max(scale, 1e-30):
        raise RealizationError(
            f"realization transfer mismatch {worst:.3e} (scale {scale:.3e})"
        )


def validate_realization(
    r: RationalMatrixFunction,
    real: StateSpaceRealization,
    probe: WeightedSignal,
) -> float:
    """Maximum relative deviation between the two computation paths.

    The realization is marched with an exponential one-sided integrator on
    the probe grid; the reference is the frequency-domain application of the
    same function.  The probe must be smooth and decay inside its window.
    """
    states = exp_march_linear(real.a, real.b, probe.samples, probe.dt)
    direct = probe.samples @ real.d.T + states @ real.c.T
    reference = apply_symbol_fl(r, probe).samples
    scale = float(np.max(np.abs(reference)))
    if scale == 0.0:
        return float(np.max(np.abs(direct)))
    return float(np.max(np.abs(direct - reference)) / scale)
