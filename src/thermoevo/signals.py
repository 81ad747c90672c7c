"""Time-signal calculus on exponentially weighted spaces.

A :class:`WeightedSignal` is a vector-valued time series on a uniform grid
together with the weight ``rho`` of the norm

    ||f||_rho^2 = integral exp(-2*rho*t) |f(t)|^2 dt,

approximated by trapezoidal quadrature over the sampled window.  The causal
antiderivative acts componentwise on the sample columns.
"""

from __future__ import annotations

import re
from functools import cache
from types import SimpleNamespace

import numpy as np

from ._frozen import Frozen
from .errors import InputError

__all__ = [
    "WeightedSignal",
    "weighted_norm",
    "antiderivative",
    "write_csv",
]


class WeightedSignal(Frozen):
    """Sampled time signal living in an exponentially weighted space.

    Parameters
    ----------
    t : array, shape (n,)
        Uniform time grid, ``n >= 2``.
    samples : array, shape (n,) or (n, m)
        Signal values; a 1-d array is treated as a single component.
    rho : float
        Positive, finite exponential weight of the ambient space.
    """

    def __init__(self, t: np.ndarray, samples: np.ndarray, rho: float = 1.0):
        t = np.asarray(t, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise InputError("time grid needs at least 2 points")
        samples = np.asarray(samples)
        if samples.ndim == 1:
            samples = samples[:, None]
        if samples.ndim != 2 or samples.shape[0] != t.shape[0]:
            raise InputError(
                f"samples shape {samples.shape} does not match grid of length {t.size}"
            )
        steps = np.diff(t)
        dt = steps[0]
        if dt <= 0 or not np.allclose(steps, dt, rtol=1e-9, atol=0.0):
            raise InputError("time grid must be uniform with positive step")
        if not 0 < rho < np.inf:
            raise InputError(f"rho must be positive and finite, got {rho}")
        if not np.all(np.isfinite(t)) or not np.all(np.isfinite(samples)):
            raise InputError("non-finite values in signal")
        t.flags.writeable = False
        samples.flags.writeable = False
        vars(self).update(t=t, samples=samples, rho=rho, dt=float(dt))

    @property
    def n_components(self) -> int:
        return self.samples.shape[1]

    def with_samples(self, samples: np.ndarray) -> "WeightedSignal":
        """Same grid and weight, new sample values."""
        return WeightedSignal(self.t, samples, self.rho)

    def same_grid(self, other: "WeightedSignal") -> bool:
        return (
            self.t.shape == other.t.shape
            and np.array_equal(self.t, other.t)
            and self.rho == other.rho
        )


#: values per row chunk of a reduction over a whole trajectory
#: (:func:`map_row_chunks`): each chunk's temporaries stay in cache and none is
#: the size of the trajectory
CHUNK_VALUES = 2 ** 15


def map_row_chunks(samples: np.ndarray, per_row) -> np.ndarray:
    """One float per row of the 2-d ``samples``: ``per_row(chunk)`` of each
    run of consecutive rows holding about :data:`CHUNK_VALUES` values."""
    out = np.empty(samples.shape[0])
    rows = max(1, CHUNK_VALUES // max(1, samples.shape[1]))
    for start in range(0, out.size, rows):
        out[start:start + rows] = per_row(samples[start:start + rows])
    return out


def row_peaks(samples: np.ndarray) -> np.ndarray:
    """``max |x|`` of each row of ``samples`` (0 for rows with no columns)."""
    return map_row_chunks(samples, lambda chunk: np.max(np.abs(chunk), axis=1, initial=0.0))


def weighted_norm(f: WeightedSignal) -> float:
    """Exponentially weighted L2 norm over the sampled window.

    Trapezoidal quadrature of ``exp(-2*rho*t) |f(t)|^2`` followed by a
    square root; exact up to O(dt^2) for smooth integrands.  The samples are
    squared after scaling by the power of two that brings their peak into
    [1/2, 1), and the root is scaled back: states near the ends of the float
    range neither underflow to 0 nor overflow when squared, and the result
    is otherwise the same to the bit.  Two passes of :func:`map_row_chunks`
    take the row peaks and then the scaled row sums of squares, so no
    temporary is larger than a chunk; each row's arithmetic is that of the
    whole-array formula, and so is every bit of the result.
    """
    _, exponent = np.frexp(np.max(row_peaks(f.samples), initial=0.0))

    def scaled_squares(chunk):
        unit = np.ldexp(np.abs(chunk), -exponent)
        return np.sum(np.square(unit, out=unit), axis=1)

    density = np.exp(-2.0 * f.rho * f.t) * map_row_chunks(f.samples, scaled_squares)
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


#: values per chunk of :func:`write_csv`: each chunk of rows is formatted by
#: one set of numpy operations and written by one ``write``; its temporaries
#: (about 170 bytes a value) stay in cache.  Of 2**10 to 2**14, 2**12 wrote
#: the benchmark's tables fastest
CSV_CHUNK_VALUES = 2 ** 12

#: consecutive all-zero chunks whose times :func:`write_csv` encodes as one
#: column, at most: their text (2 bytes a zero) is then no longer than that of
#: a chunk of nonzero values (about 20 bytes each)
_ZERO_RUN = 8

#: bytes of a value's cell in the encoder: its sign, at most 23 bytes of
#: digits and notation, its separator
_CELL = 25

#: the decimal exponents k of the powers of ten 10**k the encoder scales by
_K_MIN, _K_MAX = -275, 267

#: Dekker's splitter: 2**27 + 1 cuts a double into two 26-bit halves
_SPLIT = 134217729.0

#: a scaled value's distance from a power of ten, or its fraction's from 1/2,
#: below which the encoder does not decide (the double-double errs by < 1e-13)
_MARGIN = 1e-6

#: '%.17g' layouts of a mantissa of 17 digits ('d') with decimal exponent X:
#: fixed notation for X in -4..16 (layout X + 4), then scientific with a two-
#: and a three-digit exponent ('x'), whose sign is written over the '+'
_LAYOUTS = (["0." + "0" * (-x - 1) + "d" * 17 for x in range(-4, 0)]
            + ["d" * (x + 1) + "." + "d" * (16 - x) for x in range(16)]
            + ["d" * 17, "d." + "d" * 16 + "e+xx", "d." + "d" * 16 + "e+xxx"])

#: the zero cell's row of the keep table, after 17 rows per layout (one per
#: count of trailing zeros)
_ZERO = len(_LAYOUTS) * 17


@cache
def _tables() -> SimpleNamespace:
    """The encoder's tables, built on its first use.

    ``powers``: rows hi, lo, head, tail over k in [_K_MIN, _K_MAX]: hi is
    10**k and lo is 10**k - hi, each correctly rounded (int / int true
    division rounds correctly and ``as_integer_ratio`` is exact), head + tail
    is hi cut into two 26-bit halves.  ``layout_of``: the layout of each
    decimal exponent from 16 - _K_MAX on.  ``digits``: the four ASCII digits
    of 0..9999 as one little-endian uint32; ``zeros``: their trailing zeros
    (4 for 0).  ``cells``: each layout's bytes after a '-' and before a ',',
    its digits to be written over, then the zero cell; ``runs``: per
    layout, (cell position, first digit, end digit) of each run of
    mantissa digits.  ``keep``: per layout and count of trailing zeros, then
    the zero cell, the bytes to keep (the sign's is set per value): the
    trailing zeros after the point are dropped, and the point when no digit
    is left after it."""
    powers = []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        hi = num / den
        p, q = hi.as_integer_ratio()
        powers.append((hi, (num * q - p * den) / (den * q)))
    hi, lo = np.array(powers).T
    split = _SPLIT * hi
    head = split - (split - hi)
    exponents = np.arange(16 - _K_MAX, 17 - _K_MIN)
    fixed = np.abs(exponents - 6) <= 10

    g = np.arange(10_000)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1) + ord("0")

    cells = np.full((len(_LAYOUTS) + 1, _CELL), ord("-"), np.uint8)
    cells[:, -1] = ord(",")
    cells[-1, 1] = ord("0")
    keep = np.zeros((len(_LAYOUTS), 17, _CELL), bool)
    runs = []
    for i, layout in enumerate(_LAYOUTS):
        cells[i, 1:1 + len(layout)] = np.frombuffer(layout.encode(), np.uint8)
        keep[i, :, 1:1 + len(layout)] = True
        runs.append([])
        for part in re.finditer("d+", layout):
            first = runs[-1][-1][2] if runs[-1] else 0
            runs[-1].append((1 + part.start(), first, first + len(part[0])))
        point = layout.find(".")
        if point >= 0:
            fraction = 1 + point + np.flatnonzero(np.array(list(layout[point:])) == "d")
            # the j-th of m fraction digits is dropped when at least m - j zeros trail
            dropped = np.arange(17)[:, None] >= fraction.size - np.arange(fraction.size)
            keep[i, :, fraction] = ~dropped.T
            keep[i, dropped.all(axis=1), 1 + point] = False
    keep = np.concatenate([keep.reshape(-1, _CELL), [np.arange(_CELL) == 1]])
    keep[:, -1] = True
    return SimpleNamespace(
        powers=np.stack([hi, lo, head, hi - head]),
        layout_of=np.where(fixed, exponents + 4, 21 + (np.abs(exponents) >= 100)),
        digits=digits.astype(np.uint8).view("<u4")[:, 0],
        zeros=sum(g % 10 ** j == 0 for j in range(1, 5)),
        cells=cells, runs=runs, keep=keep)


def _scale(x, e):
    """``x * 10**(16 - e)`` as a double-double hi + lo with ``|lo| <= ulp(hi)/2``:
    Dekker's exact product of x and hi of the power, plus x times its lo."""
    hi_p, lo_p, head_p, tail_p = np.take(_tables().powers, 16 - _K_MIN - e, axis=1)
    hi = x * hi_p
    split = _SPLIT * x
    head = split - (split - x)
    tail = x - head
    lo = ((head * head_p - hi) + head * tail_p + tail * head_p) + tail * tail_p + x * lo_p
    total = hi + lo
    return total, lo - (total - hi)


def _decimal(x):
    """For positive ``x`` in [1e-250, 1e290]: the 17-digit integer n in
    [10**16, 10**17) and exponent e such that n * 10**(e - 16) is ``x``
    rounded to 17 significant digits, and where that rounding is undecided
    here: the fraction dropped lies within :data:`_MARGIN` of 1/2 (exact ties
    round half to even in ``'%.17g'``)."""
    e = np.floor(np.log10(x)).astype(np.int64)
    hi, lo = _scale(x, e)
    while True:  # log10 is one off next to a power of ten
        # hi - 1e16 and hi - 1e17 are exact where the sign of the sum is close
        above = (hi - 1e17) + lo >= -_MARGIN
        moved = np.flatnonzero(above | ((hi - 1e16) + lo < -_MARGIN))
        if not moved.size:
            break
        e[moved] += np.where(above[moved], 1, -1)
        hi[moved], lo[moved] = _scale(x[moved], e[moved])
    whole = np.floor(lo)
    fraction = lo - whole
    n = hi.astype(np.int64) + whole.astype(np.int64) + (fraction > 0.5)
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    return n, e + carry, np.abs(fraction - 0.5) < _MARGIN


def _digits(n):
    """The 17 ASCII digits of each integer of ``n`` in [10**16, 10**17), as
    an (n.size, 17) uint8 view, and the count of its trailing zeros."""
    tables = _tables()
    high, low = np.divmod(n, 10 ** 8)  # the rest in doubles, exact below 2**53
    high, low = high.astype(float), low.astype(float)
    lead = np.floor(high / 1e8)
    high -= lead * 1e8
    groups = [np.floor(high / 1e4), None, np.floor(low / 1e4), None]
    groups[1], groups[3] = high - groups[0] * 1e4, low - groups[2] * 1e4
    groups = [group.astype(np.intp) for group in groups]
    words = np.empty((n.size, 5), "<u4")
    words[:, 0] = (lead.astype(np.uint32) + ord("0")) << 24
    for j, group in enumerate(groups, 1):
        words[:, j] = tables.digits[group]
    count = tables.zeros[groups[3]]
    for j, group in enumerate(groups[2::-1], 1):
        count += (count == 4 * j) * tables.zeros[group]
    return words.view(np.uint8)[:, 3:], count


def _layout(x):
    """Cells of the positive ``x`` (each in [1e-250, 1e290]), sorted by layout
    so that each layout's digits are written by slices: the permutation that
    sorts ``x``; the cells in that order, then the zero cell; their keys in
    the keep table; and whether :func:`_decimal` left their rounding
    undecided."""
    tables = _tables()
    n, e, undecided = _decimal(x)
    layout = np.take(tables.layout_of, e - (16 - _K_MAX))
    # integers stay int64 but for the sort's radix key: with uint8 and int16
    # arithmetic and searchsorted, a verify run peaked about 0.4 MB higher
    # (its peak, in the oracle, comes after the export)
    order = np.argsort(layout.astype(np.uint8), kind="stable")
    n, e, layout = n[order], e[order], layout[order]
    digits, zeros = _digits(n)
    built = np.empty((x.size + 1, _CELL), np.uint8)
    built[-1] = tables.cells[-1]
    bounds = np.concatenate([[0], np.cumsum(np.bincount(layout, minlength=len(_LAYOUTS)))])
    for i in np.flatnonzero(np.diff(bounds)):
        rows = slice(bounds[i], bounds[i + 1])
        block = built[rows]
        block[:] = tables.cells[i]
        for at, first, end in tables.runs[i]:
            block[:, at:at + end - first] = digits[rows, first:end]
        width = _LAYOUTS[i].count("x")
        if width:
            block[e[rows] < 0, 20] = ord("-")
            block[:, 21:21 + width] = (
                tables.digits[np.abs(e[rows])].view(np.uint8).reshape(-1, 4)[:, 4 - width:])
    return order, built, 17 * layout + zeros, undecided[order]


def _encode(table):
    """The CSV bytes of the rows of the 2-d float ``table``: each value as
    ``'%.17g' % v``, a ',' after each but the last of a row and a newline
    after that.

    Each value gets a cell of :data:`_CELL` bytes, and one boolean mask then
    drops the bytes no value uses.  A zero's cell is '0'.  Every other
    value in [1e-250, 1e290] is rounded by :func:`_decimal` and laid out by
    :func:`_layout`, by numpy operations on all of them at once.  Values
    outside that range, infinities, NaN and the values whose rounding is
    undecided are formatted by ``'%.17g'`` itself into their cells."""
    tables = _tables()
    rows, cols = table.shape
    v = table.ravel()
    magnitude = np.abs(v)
    in_range = (magnitude >= 1e-250) & (magnitude <= 1e290)
    main = np.flatnonzero(in_range)
    fallback = np.flatnonzero(~in_range & (magnitude != 0))
    source = np.full(v.size, main.size)  # the zero cell, last of ``built``
    key = np.full(v.size, _ZERO)
    built = tables.cells[-1:]
    if main.size:
        order, built, keys, undecided = _layout(magnitude[main])
        main = main[order]
        source[main] = np.arange(main.size)
        key[main] = keys
        fallback = np.concatenate([fallback, main[undecided]])
    out = np.take(built.view(f"V{_CELL}")[:, 0], source).view(np.uint8).reshape(-1, _CELL)
    mask = np.take(tables.keep.view(f"V{_CELL}")[:, 0], key).view(bool).reshape(-1, _CELL)
    mask[:, 0] = np.signbit(v)
    out.reshape(rows, cols, _CELL)[:, -1, -1] = ord("\n")
    for i in fallback.tolist():
        text = b"%.17g" % v[i]
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
        mask[i, :-1] = np.arange(_CELL - 1) < len(text)
    return out[mask]


def write_csv(path, columns, t: np.ndarray, values: np.ndarray) -> None:
    """Write to ``path`` a header of ``columns`` names, then one row per
    sample: ``t[k]`` followed by ``values[k]`` (a 1-d ``values`` is one
    column), each value as the bytes of Python's ``'%.17g' % v``.

    The rows are formatted in chunks of about :data:`CSV_CHUNK_VALUES`
    values, never as one whole-file string or a stacked copy of the table,
    by :func:`_encode`.  A chunk whose values are all +0.0 (every bit zero)
    is written from its times alone, ``,0`` per value before each newline;
    the times of up to :data:`_ZERO_RUN` such chunks in a row, and of no
    more than :data:`CSV_CHUNK_VALUES` rows, are encoded as one column."""
    t = np.asarray(t, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    if len(t) != len(values):
        raise ValueError(f"{len(t)} times for {len(values)} rows")
    if len(columns) != 1 + values.shape[1]:
        raise ValueError(f"{len(columns)} column names for {1 + values.shape[1]} columns")
    rows = max(1, CSV_CHUNK_VALUES // (1 + values.shape[1]))
    zero_rows = rows * min(_ZERO_RUN, CSV_CHUNK_VALUES // rows)
    zero_tail = ",0" * values.shape[1] + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        start = 0
        while start < len(t):
            stop = start + rows
            if values[start:stop].view(np.uint64).any():
                fh.write(str(_encode(np.column_stack([t[start:stop], values[start:stop]])).data,
                             "ascii"))
            else:
                while (stop < min(len(t), start + zero_rows)
                       and not values[stop:stop + rows].view(np.uint64).any()):
                    stop += rows
                fh.write(str(_encode(t[start:stop, None]).data, "ascii").replace("\n", zero_tail))
            start = stop
