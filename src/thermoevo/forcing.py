"""Parameterized forcing library for simulation runs.

Two time profiles (a Gaussian pulse and a delayed unit step) combined with
two spatial profiles over the interior nodes (a smooth bump or a single
discrete mode), targeting either the momentum block ("f") or the heat
block ("h").
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .signals import WeightedSignal
from .spatial import DiscreteSpatialOperator, node_modes

__all__ = [
    "gaussian_pulse",
    "delayed_step",
    "spatial_profile",
    "assemble_forcing",
    "time_grid",
]


def time_grid(t_max: float, dt: float) -> np.ndarray:
    if dt <= 0 or t_max <= dt:
        raise InputError("need 0 < dt < t_max")
    n_steps = int(round(t_max / dt))
    if abs(t_max - n_steps * dt) > 1e-9 * t_max:
        raise InputError(f"t_max={t_max:g} is not a multiple of dt={dt:g}")
    return dt * np.arange(n_steps + 1)


def gaussian_pulse(t: np.ndarray, center: float, width: float) -> np.ndarray:
    if width <= 0:
        raise InputError("pulse width must be positive")
    return np.exp(-(((t - center) / width) ** 2))


def delayed_step(t: np.ndarray, delay: float) -> np.ndarray:
    return (t >= delay).astype(float)


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
) -> WeightedSignal:
    """Forcing signal over the full block unknowns (v, sigma, theta, q)."""
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
        amplitude = delayed_step(t, delay)
    else:
        raise InputError(f"unknown forcing kind '{kind}'")

    space = spatial_profile(op, profile)
    samples = np.zeros((t.size, op.n_dof))
    slices = op.block_slices()
    if block == "f":
        samples[:, slices[0]] = amplitude[:, None] * space[None, :]
    elif block == "h":
        samples[:, slices[2]] = amplitude[:, None] * space[None, :]
    else:
        raise InputError(f"forcing block must be 'f' or 'h', got '{block}'")
    return WeightedSignal(t, samples, rho)
