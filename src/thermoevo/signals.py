"""Time-signal calculus on exponentially weighted spaces.

A :class:`WeightedSignal` is a vector-valued time series on a uniform grid
together with the weight ``rho`` of the norm

    ||f||_rho^2 = integral exp(-2*rho*t) |f(t)|^2 dt,

approximated by trapezoidal quadrature over the sampled window.  The causal
antiderivative acts componentwise on the sample columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

__all__ = [
    "WeightedSignal",
    "weighted_norm",
    "antiderivative",
    "write_csv",
]


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
    square root; exact up to O(dt^2) for smooth integrands.  The samples are
    squared after scaling by the power of two that brings their peak into
    [1/2, 1), and the root is scaled back: states near the ends of the float
    range neither underflow to 0 nor overflow when squared, and the result
    is otherwise the same to the bit.
    """
    magnitude = np.abs(f.samples)
    _, exponent = np.frexp(np.max(magnitude, initial=0.0))
    unit = np.ldexp(magnitude, -exponent)
    density = np.exp(-2.0 * f.rho * f.t) * np.sum(unit ** 2, axis=1)
    return float(np.ldexp(np.sqrt(np.trapezoid(density, dx=f.dt)), exponent))


def antiderivative(f: WeightedSignal) -> WeightedSignal:
    """Causal antiderivative g(t) = integral of f from the window start.

    The input is assumed to vanish before ``t_min`` (declared support), so
    cumulative trapezoidal integration from the first sample realizes the
    causal inverse of the time derivative on the window.
    """
    y = f.samples
    g = np.cumsum(f.dt * (y[1:] + y[:-1]) / 2.0, axis=0)
    return f.with_samples(np.concatenate([np.zeros_like(g[:1]), g]))


def write_csv(path, columns, t: np.ndarray, values: np.ndarray) -> None:
    """Write to ``path`` a header of ``columns`` names, then one row per
    sample: ``t[k]`` followed by ``values[k]`` (a 1-d ``values`` is one
    column), each at 17 significant digits (``%.17g``, the bytes of
    ``format(v, '.17g')``), formatted and written one row at a time, never
    as one whole-file string or a stacked copy of the table."""
    if values.ndim == 1:
        values = values[:, None]
    line = ",".join(["%.17g"] * (1 + values.shape[1])) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for t_k, row in zip(t.tolist(), values, strict=True):
            fh.write(line % (t_k, *row.tolist()))
