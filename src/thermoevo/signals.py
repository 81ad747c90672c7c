"""Time-signal calculus on exponentially weighted spaces.

A :class:`WeightedSignal` is a vector-valued time series on a uniform grid
together with the weight ``rho`` of the norm

    ||f||_rho^2 = integral exp(-2*rho*t) |f(t)|^2 dt,

approximated by trapezoidal quadrature over the sampled window.  The causal
antiderivative and the frequency-domain application of rational symbols are
the two workhorse operations; both act componentwise on the sample columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, PoleProximityError, WindowDecayError

__all__ = [
    "WeightedSignal",
    "weighted_norm",
    "antiderivative",
    "apply_symbol_fl",
    "read_signal_csv",
    "write_signal_csv",
    "write_csv",
]

#: relative decay required of the weighted samples at the window ends
DECAY_TOL = 1e-8
#: absolute guard against evaluating a symbol on top of a pole
POLE_TOL = 1e-12


@dataclass(frozen=True)
class WeightedSignal:
    """Sampled time signal living in an exponentially weighted space.

    Parameters
    ----------
    t : array, shape (n,)
        Uniform time grid, ``n >= 2``.
    samples : array, shape (n,) or (n, m)
        Signal values; a 1-d array is treated as a single component.
    rho : float
        Positive exponential weight of the ambient space.
    """

    t: np.ndarray
    samples: np.ndarray
    rho: float = 1.0
    dt: float = field(init=False)

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        samples = np.asarray(self.samples)
        if samples.ndim == 1:
            samples = samples[:, None]
        if samples.ndim != 2 or samples.shape[0] != t.shape[0]:
            raise InputError(
                f"samples shape {samples.shape} does not match grid of length {t.size}"
            )
        if t.ndim != 1 or t.size < 2:
            raise InputError("time grid needs at least 2 points")
        steps = np.diff(t)
        dt = steps[0]
        if dt <= 0 or not np.allclose(steps, dt, rtol=1e-9, atol=0.0):
            raise InputError("time grid must be uniform with positive step")
        if not (self.rho > 0):
            raise InputError(f"rho must be positive, got {self.rho}")
        if not np.all(np.isfinite(t)) or not np.all(np.isfinite(samples)):
            raise InputError("non-finite values in signal")
        t.flags.writeable = False
        samples.flags.writeable = False
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "dt", float(dt))

    @property
    def n_components(self) -> int:
        return self.samples.shape[1]

    @property
    def t_min(self) -> float:
        return float(self.t[0])

    @property
    def t_max(self) -> float:
        return float(self.t[-1])

    def with_samples(self, samples: np.ndarray) -> "WeightedSignal":
        """Same grid and weight, new sample values."""
        return WeightedSignal(self.t, samples, self.rho)

    def same_grid(self, other: "WeightedSignal") -> bool:
        return (
            self.t.shape == other.t.shape
            and np.array_equal(self.t, other.t)
            and self.rho == other.rho
        )


def weighted_norm(f: WeightedSignal) -> float:
    """Exponentially weighted L2 norm over the sampled window.

    Trapezoidal quadrature of ``exp(-2*rho*t) |f(t)|^2`` followed by a
    square root; exact up to O(dt^2) for smooth integrands.
    """
    density = np.exp(-2.0 * f.rho * f.t) * np.sum(np.abs(f.samples) ** 2, axis=1)
    return float(np.sqrt(np.trapezoid(density, dx=f.dt)))


def antiderivative(f: WeightedSignal) -> WeightedSignal:
    """Causal antiderivative g(t) = integral of f from the window start.

    The input is assumed to vanish before ``t_min`` (declared support), so
    cumulative trapezoidal integration from the first sample realizes the
    causal inverse of the time derivative on the window.
    """
    y = f.samples
    g = np.cumsum(f.dt * (y[1:] + y[:-1]) / 2.0, axis=0)
    return f.with_samples(np.concatenate([np.zeros_like(g[:1]), g]))


def apply_symbol_fl(matrix_function, f: WeightedSignal) -> WeightedSignal:
    """Apply a rational symbol of the inverse time derivative via FFT.

    The signal is unweighted with exp(-rho*t), transformed, multiplied per
    frequency by ``matrix_function`` evaluated at z = 1/(i*omega + rho), and
    transformed back.  Zero padding to the next power of two (at least twice
    the signal length) suppresses circular wrap-around so that causality is
    preserved up to spectral leakage.

    Raises
    ------
    WindowDecayError
        If the weighted samples do not decay at the window ends.
    PoleProximityError
        If the symbol denominator nearly vanishes at a grid frequency.
    """
    from .rational import RationalMatrixFunction, eval_rational

    if not isinstance(matrix_function, RationalMatrixFunction):
        raise InputError("symbol must be a RationalMatrixFunction")
    rows, cols = matrix_function.dims
    if cols != f.n_components:
        raise InputError(
            f"symbol acts on {cols} components, signal has {f.n_components}"
        )

    weighted = np.exp(-f.rho * f.t)[:, None] * f.samples
    peak = float(np.max(np.abs(weighted)))
    if peak > 0.0:
        edge = max(np.max(np.abs(weighted[0])), np.max(np.abs(weighted[-1])))
        if edge >= DECAY_TOL * peak:
            raise WindowDecayError(
                "weighted signal does not decay at the window ends "
                f"(edge/peak = {edge / peak:.2e}, required < {DECAY_TOL:.0e})"
            )

    # The weighted impulse response of an admissible symbol decays no slower
    # than exp(-rho*tau); pad past that decay length to suppress wrap-around.
    n = f.t.size
    tail = int(np.ceil(21.0 / (f.rho * f.dt)))
    n_fft = 1 << int(np.ceil(np.log2(n + max(n, tail))))
    omega = 2.0 * np.pi * np.fft.fftfreq(n_fft, d=f.dt)
    z = 1.0 / (1j * omega + f.rho)

    den_scale = max(float(np.max(np.abs(matrix_function.den))), 1.0)
    den_vals = matrix_function.den_at(z)
    if np.min(np.abs(den_vals)) < POLE_TOL * den_scale:
        worst = omega[int(np.argmin(np.abs(den_vals)))]
        raise PoleProximityError(
            f"symbol denominator vanishes near grid frequency omega={worst:.6g}"
        )

    spectrum = np.fft.fft(weighted, n=n_fft, axis=0)
    mats = eval_rational(matrix_function, z)
    out_spec = np.einsum("krc,kc->kr", mats, spectrum)
    out = np.fft.ifft(out_spec, axis=0)[:n]

    real_input = not np.iscomplexobj(f.samples)
    real_symbol = matrix_function.is_real
    if real_input and real_symbol:
        out = out.real
    out = np.exp(f.rho * f.t)[:, None] * out
    if rows == f.n_components:
        return f.with_samples(out)
    return WeightedSignal(f.t, out, f.rho)


def write_signal_csv(f: WeightedSignal, path_or_buffer) -> None:
    """Serialize to CSV with header ``t,component_0,...`` at 17 significant digits."""
    if np.iscomplexobj(f.samples):
        raise InputError("CSV export supports real-valued signals only")
    columns = ["t", *(f"component_{i}" for i in range(f.n_components))]
    write_csv(path_or_buffer, columns, f.t, f.samples)


def write_csv(path_or_buffer, columns, t: np.ndarray, values: np.ndarray) -> None:
    """Write a header of ``columns`` names, then one row per sample: ``t[k]``
    followed by ``values[k]`` (a 1-d ``values`` is one column), each at 17
    significant digits (``%.17g``, the bytes of ``format(v, '.17g')``),
    formatted and written one row at a time, never as one whole-file string
    or a stacked copy of the table."""
    if not hasattr(path_or_buffer, "write"):
        with open(path_or_buffer, "w", encoding="utf-8") as fh:
            write_csv(fh, columns, t, values)
        return
    if values.ndim == 1:
        values = values[:, None]
    line = ",".join(["%.17g"] * (1 + values.shape[1])) + "\n"
    path_or_buffer.write(",".join(columns) + "\n")
    for t_k, row in zip(t.tolist(), values, strict=True):
        path_or_buffer.write(line % (t_k, *row.tolist()))


def read_signal_csv(path, rho: float = 1.0) -> WeightedSignal:
    """Read a signal previously written by :func:`write_signal_csv`."""
    if hasattr(path, "read"):
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    else:
        with open(path, "r", encoding="utf-8") as fh:
            data = np.loadtxt(fh, delimiter=",", skiprows=1, ndmin=2)
    return WeightedSignal(data[:, 0], data[:, 1:], rho)
