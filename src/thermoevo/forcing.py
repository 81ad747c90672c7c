"""Parameterized forcing library for simulation runs.

A :class:`Forcing` is r amplitude columns times r spatial profiles.  The
library builds one of two amplitudes (a Gaussian pulse or a delayed unit
step) times one spatial profile over the interior nodes (a smooth bump or a
single discrete mode), in the momentum block ("f") or the heat block ("h").
"""

from __future__ import annotations

import numpy as np

from ._frozen import Frozen
from .errors import InputError
from .signals import WeightedSignal
from .spatial import DiscreteSpatialOperator, node_modes

__all__ = [
    "Forcing",
    "gaussian_pulse",
    "spatial_profile",
    "assemble_forcing",
    "step_count",
    "time_grid",
]


class Forcing(Frozen):
    """The source ``F(t) = a(t) P``: the r columns of ``amplitudes`` a(t), on
    the run's time grid and weight, times the r rows of ``profiles`` P, shape
    ``(r, n_dof)``.  A sampled field is the identity's rows times its samples:
    ``Forcing(WeightedSignal(t, f, rho), np.eye(n_dof))``."""

    def __init__(self, amplitudes: WeightedSignal, profiles: np.ndarray):
        profiles = np.array(profiles, dtype=float)
        r = amplitudes.n_components
        if profiles.ndim != 2 or profiles.shape[0] != r or not np.all(np.isfinite(profiles)):
            raise InputError(f"profiles must be a finite array of {r} rows, got {profiles.shape}")
        profiles.flags.writeable = False
        vars(self).update(amplitudes=amplitudes, profiles=profiles)

    @property
    def samples(self) -> np.ndarray:
        """The dense ``(n_t, n_dof)`` field a(t) P, built anew on each access."""
        return self.amplitudes.samples @ self.profiles


def step_count(t_max: float, dt: float) -> int:
    """The number of steps of length ``dt`` that make up ``t_max``."""
    if not 0 < dt < t_max:  # NaN included
        raise InputError("need 0 < dt < t_max")
    ratio = t_max / dt
    if ratio == float("inf"):
        raise InputError(f"t_max={t_max:g} over dt={dt:g} is past the float range")
    n_steps = int(round(ratio))
    if abs(t_max - n_steps * dt) > 1e-9 * t_max:
        raise InputError(f"t_max={t_max:g} is not a multiple of dt={dt:g}")
    return n_steps


def time_grid(t_max: float, dt: float) -> np.ndarray:
    return dt * np.arange(step_count(t_max, dt) + 1)


def gaussian_pulse(t: np.ndarray, center: float, width: float) -> np.ndarray:
    """exp(-((t - center) / width)^2); an argument past the float range is
    an input error naming ``width`` when it is not finite or its reciprocal
    overflows, else ``center``."""
    if width <= 0:
        raise InputError("pulse width must be positive")
    if not np.isfinite(width):
        raise InputError(f"pulse width {width:g} is not finite")
    with np.errstate(over="ignore"):  # a square past the float range is exp(-inf) = 0
        offset = (t - center) / width
        if not np.all(np.isfinite(offset)):
            name, value = ("width", width) if np.isinf(1.0 / width) else ("center", center)
            raise InputError(f"pulse {name} {value:g} puts (t - center) / width "
                             "past the float range")
        return np.exp(-(offset ** 2))


def spatial_profile(op: DiscreteSpatialOperator, name: str) -> np.ndarray:
    """Interior-node profile: 'bump' or 'mode_<k>' (k-th discrete mode)."""
    grid = op.grid
    if name == "bump":
        x = grid.nodes
        width = grid.length / 8.0
        return np.exp(-(((x - grid.length / 2.0) / width) ** 2))
    if name.startswith("mode_"):
        digits = name[5:]
        if not (digits.isascii() and digits.isdigit()):  # int() takes '+1', ' 1', '1_0'
            raise InputError(f"bad spatial profile '{name}'")
        k = int(digits)
        if not 1 <= k <= grid.n_nodes:
            raise InputError(f"mode index {k} out of range 1..{grid.n_nodes}")
        return node_modes(grid, k)
    raise InputError(f"unknown spatial profile '{name}' (use 'bump' or 'mode_<k>')")


def assemble_forcing(
    op: DiscreteSpatialOperator,
    t: np.ndarray,
    rho: float,
    kind: str,
    block: str,
    profile: str,
    center: float = None,
    width: float = None,
    delay: float = None,
) -> Forcing:
    """One amplitude column times one profile over the block unknowns."""
    if kind == "gaussian_pulse":
        if center is None or width is None:
            raise InputError("gaussian_pulse needs 'center' and 'width'")
        if delay is not None:
            raise InputError("gaussian_pulse does not take 'delay'")
        amplitude = gaussian_pulse(t, center, width)
    elif kind == "delayed_step":
        if delay is None:
            raise InputError("delayed_step needs 'delay'")
        if center is not None or width is not None:
            raise InputError("delayed_step takes only 'delay'")
        if not np.isfinite(delay):
            raise InputError(f"step delay {delay:g} is not finite")
        amplitude = (t >= delay).astype(float)
    else:
        raise InputError(f"unknown forcing kind '{kind}'")

    space = spatial_profile(op, profile)
    if block not in ("f", "h"):
        raise InputError(f"forcing block must be 'f' or 'h', got '{block}'")
    profiles = np.zeros((1, op.n_dof))
    profiles[0, op.block_slices()[0 if block == "f" else 2]] = space
    return Forcing(WeightedSignal(t, amplitude, rho), profiles)
