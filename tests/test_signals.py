import os
import tracemalloc

import numpy as np
import pytest

from conftest import WindowDecayError, apply_symbol_fl, random_smooth, weighted_norm_whole
from thermoevo import RationalFunction, WeightedSignal, antiderivative, signals, weighted_norm
from thermoevo.signals import (CHUNK_VALUES, CSV_CHUNK_VALUES, map_row_chunks, row_peaks,
                               write_csv)
from thermoevo.errors import InputError, PoleProximityError


def uniform(t0, t1, dt):
    return t0 + dt * np.arange(int(round((t1 - t0) / dt)) + 1)


class TestWeightedSignal:
    def test_rejects_bad_grids(self):
        with pytest.raises(InputError):
            WeightedSignal(np.array([0.0]), np.array([1.0]), 1.0)
        with pytest.raises(InputError):
            WeightedSignal(np.array([0.0, 0.1, 0.3]), np.zeros(3), 1.0)
        with pytest.raises(InputError):
            WeightedSignal(np.array([0.0, 0.1]), np.zeros(2), rho=0.0)
        with pytest.raises(InputError):
            WeightedSignal(np.array([0.0, 0.1]), np.array([1.0, np.nan]), 1.0)

    def test_rejects_zero_dimensional_grid(self):
        with pytest.raises(InputError, match="at least 2 points"):
            WeightedSignal(np.array(0.0), np.zeros(2), 1.0)

    @pytest.mark.parametrize("rho", [np.inf, np.nan, -np.inf])
    def test_rejects_non_finite_weight(self, rho):
        with pytest.raises(InputError, match="positive and finite"):
            WeightedSignal(np.array([0.0, 0.1]), np.zeros(2), rho)


def per_value_csv(header, rows):
    """The former writer: one format(v, '.17g') call per value."""
    lines = [header]
    for row in rows:
        lines.append(",".join(format(v, ".17g") for v in row))
    return "\n".join(lines) + "\n"


def assert_bytes_match(tmp_path, values):
    """Write ``values`` (a 1-d one is one column) under a time column and
    compare the file byte for byte with the per-value writer, with every
    floating-point error raising."""
    t = np.arange(len(values)) * 2.0 ** -10
    rows = np.column_stack([t, values])
    columns = ["t"] + [f"x_{i}" for i in range(rows.shape[1] - 1)]
    with np.errstate(all="raise"):
        write_csv(tmp_path / "out.csv", columns, t, values)
    expected = per_value_csv(",".join(columns), rows).replace("\n", os.linesep)
    assert (tmp_path / "out.csv").read_bytes() == expected.encode()


def ulps_around(values, steps=3):
    """``values`` and the doubles 1 to ``steps`` ulp either side of each."""
    out = [values]
    down = up = values
    for _ in range(steps):
        down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
        out += [down, up]
    return np.concatenate(out)


#: value families where a formatter is likely to slip, each as a 1-d array
CSV_FAMILIES = {
    # exact ties at 17 digits: '%.17g' rounds half to even
    "ties": lambda: 12345678 + np.arange(-4096, 4096) / 1024,
    "powers_of_ten": lambda: ulps_around(np.array([float(f"1e{k}") for k in range(-323, 309)])),
    "near_2_53": lambda: ulps_around(2.0 ** 53 + np.arange(-64.0, 64.0)),
    # the switch between fixed and scientific notation
    "notation_switch": lambda: ulps_around(np.array([1e-5, 1e-4, 1e16, 1e17]), steps=40),
    # each of the 2048 exponent fields, subnormals, infinities and NaN included
    "every_exponent": lambda: (np.arange(2048, dtype=np.uint64).repeat(4) << np.uint64(52) | (
        np.random.default_rng(53).integers(0, 2 ** 52, 8192, dtype=np.uint64))).view(float),
    "three_digit_exponents": lambda: ulps_around(
        np.ldexp(1.0, np.arange(-1022, 1024, 7)) * 1.2345678901234567),
}

#: +-0, +-inf, quiet and signalling NaN, the smallest and largest subnormal
#: and the smallest and largest normal double
SPECIAL_BITS = [0, 1 << 63, 0x7FF0 << 48, 0xFFF0 << 48, 0x7FF8 << 48, 0x7FF0_0000_0000_0001,
                1, 0x000F_FFFF_FFFF_FFFF, 0x0010 << 48, 0x7FEF_FFFF_FFFF_FFFF]

EDGE_VALUES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e300, 1e-300,
               -1e300, 0.1, 1.0 / 3.0, 2.0 ** -1074 * 3, np.finfo(float).max]

#: rows of a chunk of a three-column table (four values a row with the time)
ZERO_ROWS = CSV_CHUNK_VALUES // 4


def zero_but(value):
    """Three chunks of three zero columns, the middle one holding ``value`` once."""
    def build(rng):
        values = np.zeros((3 * ZERO_ROWS, 3))
        values[ZERO_ROWS + 7, 1] = value
        return values
    return build


#: tables whose chunks are all +0.0, or all but one value
ZERO_CASES = {
    "table": lambda rng: np.zeros((3 * ZERO_ROWS + 5, 3)),
    "column": lambda rng: np.zeros(3 * (CSV_CHUNK_VALUES // 2) + 9),
    # chunks of 32 rows, so the times of several runs of all-zero chunks
    "wide_table": lambda rng: np.zeros((600, 127)),
    "negative_zero": zero_but(-0.0),
    "smallest_subnormal": zero_but(5e-324),
    "random_between_zeros": lambda rng: np.concatenate(
        [np.zeros((2 * ZERO_ROWS, 3)), rng.standard_normal((ZERO_ROWS, 3)),
         np.zeros((ZERO_ROWS + 3, 3))]),
}


class TestCsvWriter:
    @pytest.mark.parametrize("prefix", ["x", "component"])
    def test_matches_per_value_format(self, prefix, rng, tmp_path):
        values = np.array(EDGE_VALUES + list(rng.standard_normal(4)))
        rows = np.column_stack([np.arange(values.size) * 0.125, values,
                                values[::-1], -values])
        columns = ["t"] + [f"{prefix}_{i}" for i in range(3)]
        write_csv(tmp_path / "out.csv", columns, rows[:, 0], rows[:, 1:])
        assert (tmp_path / "out.csv").read_text(encoding="utf-8") == \
            per_value_csv(",".join(columns), rows)

    @pytest.mark.parametrize("family", sorted(CSV_FAMILIES))
    def test_families_match_per_value_format(self, family, tmp_path):
        values = CSV_FAMILIES[family]()
        values = np.concatenate([values, -values, np.zeros(-2 * values.size % 3)]).reshape(-1, 3)
        assert_bytes_match(tmp_path, values)

    @pytest.mark.parametrize("extra", [None, -1, 0, 1])
    @pytest.mark.parametrize("columns", [3, None], ids=["table", "energy"])
    def test_chunk_edges(self, columns, extra, rng, tmp_path):
        # None: one row; else the rows of one chunk and one less or one more
        per_chunk = CSV_CHUNK_VALUES // (1 + (columns or 1))
        n_rows = 1 if extra is None else per_chunk + extra
        shape = (n_rows,) if columns is None else (n_rows, columns)
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 20, shape)
        values.flat[::5] = 0.0
        assert_bytes_match(tmp_path, values)

    @pytest.mark.parametrize("case", sorted(ZERO_CASES))
    def test_all_zero_chunks(self, case, rng, tmp_path):
        assert_bytes_match(tmp_path, ZERO_CASES[case](rng))

    def test_all_zero_table_encodes_only_its_times(self, tmp_path, monkeypatch):
        # its values never reach the encoder, only its times as one column
        encoded, laid_out = [], []
        encode, layout = signals._encode, signals._layout
        monkeypatch.setattr(signals, "_encode", lambda table: encoded.append(table) or encode(table))
        monkeypatch.setattr(signals, "_layout", lambda x: laid_out.append(x) or layout(x))
        t = np.arange(3 * ZERO_ROWS) * 2.0 ** -10
        write_csv(tmp_path / "out.csv", ["t", "x_0", "x_1", "x_2"], t, np.zeros((t.size, 3)))
        assert all(table.shape[1] == 1 for table in encoded)
        assert np.array_equal(np.concatenate(encoded)[:, 0], t)
        assert np.array_equal(np.sort(np.concatenate(laid_out)), t[1:])

    def test_rejects_a_header_of_another_width(self, tmp_path):
        t = np.arange(4.0)
        with pytest.raises(ValueError, match="2 column names for 4 columns"):
            write_csv(tmp_path / "out.csv", ["t", "x_0"], t, np.ones((4, 3)))
        with pytest.raises(ValueError, match="3 column names for 2 columns"):
            write_csv(tmp_path / "out.csv", ["t", "x_0", "x_1"], t, np.ones(4))
        assert not (tmp_path / "out.csv").exists()

    def test_any_bit_pattern(self, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        # sign, exponent and mantissa fields drawn apart, so that every exponent is likely
        fields = st.builds(lambda sign, exponent, mantissa: sign << 63 | exponent << 52 | mantissa,
                           st.integers(0, 1), st.integers(0, 2047), st.integers(0, 2 ** 52 - 1))
        patterns = st.one_of(fields, st.integers(0, 2 ** 64 - 1), st.sampled_from(SPECIAL_BITS))

        @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @hypothesis.given(bits=st.lists(patterns, min_size=1, max_size=200), columns=st.integers(1, 4))
        def check(bits, columns):
            values = np.array(bits + [0] * (-len(bits) % columns), np.uint64).view(float)
            assert_bytes_match(tmp_path, values.reshape(-1, columns))

        check()

    def test_memory_does_not_grow_with_the_table(self, rng, tmp_path):
        # 2049 x 511, about 8 MB: only a chunk's temporaries (about 0.7 MB) at once
        values = rng.standard_normal((2049, 511))
        t = np.arange(2049) * 2.0 ** -10
        columns = ["t"] + [f"x_{i}" for i in range(511)]
        write_csv(tmp_path / "warm.csv", columns, t[:2], values[:2])
        tracemalloc.start()
        try:
            write_csv(tmp_path / "out.csv", columns, t, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < values.nbytes / 8


class TestWeightedNorm:
    def test_zero_signal(self):
        t = uniform(0.0, 3.0, 0.01)
        assert weighted_norm(WeightedSignal(t, np.zeros_like(t), 2.0)) == 0.0

    def test_constant_against_closed_form(self):
        # oracle: the integral of exp(-2t) over [0, 1] is (1 - e^-2)/2
        exact = float(np.sqrt((1.0 - np.exp(-2.0)) / 2.0))
        assert exact == pytest.approx(0.6575198539828996, abs=1e-15)
        dt = 1e-4
        t = uniform(0.0, 1.0, dt)
        value = weighted_norm(WeightedSignal(t, np.ones_like(t), 1.0))
        assert value == pytest.approx(exact, abs=10 * dt**2)

    def test_homogeneity(self):
        t = uniform(0.0, 2.0, 1e-3)
        f = WeightedSignal(t, np.sin(3 * t), 1.5)
        g = f.with_samples(3.0 * f.samples)
        assert weighted_norm(g) == pytest.approx(3.0 * weighted_norm(f), rel=1e-13)

    @pytest.mark.parametrize("scale", [1e-301, 1e200])
    def test_extreme_magnitudes_neither_underflow_nor_overflow(self, scale, rng):
        # squared as they are, these samples underflow to 0 or overflow to inf
        t = uniform(0.0, 1.0, 0.01)
        unit = rng.uniform(-1.0, 1.0, (t.size, 3))
        got = weighted_norm(WeightedSignal(t, scale * unit, 1.0))
        want = scale * weighted_norm(WeightedSignal(t, unit, 1.0))
        assert got == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_normal_range_equals_unscaled_formula_bitwise(self, rng):
        t = uniform(0.0, 2.0, 1e-3)
        for _ in range(10):
            f = WeightedSignal(t, rng.standard_normal((t.size, 4)) * 10.0 ** rng.uniform(-50, 50),
                               1.5)
            density = np.exp(-2.0 * f.rho * f.t) * np.sum(np.abs(f.samples) ** 2, axis=1)
            assert weighted_norm(f) == float(np.sqrt(np.trapezoid(density, dx=f.dt)))

    @pytest.mark.parametrize("columns", [1, 40, 1000])
    def test_row_chunks_equal_whole_array_formula_bitwise(self, columns, rng):
        # at least 8 chunks; a column-sliced view and its complex counterpart too
        t = uniform(0.0, 1.0, 1.0 / (8 * (CHUNK_VALUES // columns) + 4))
        samples = rng.standard_normal((t.size, columns + 2))
        chunks = []
        map_row_chunks(samples[:, 1:-1], lambda chunk: chunks.append(len(chunk)) or 0.0)
        assert len(chunks) >= 9 and sum(chunks) == t.size
        for values in (samples, samples[:, 1:-1], samples[:, 1:-1] * (1.0 - 2.0j)):
            f = WeightedSignal(t, values, 1.5)
            assert weighted_norm(f) == weighted_norm_whole(f)
            assert np.array_equal(row_peaks(values), np.max(np.abs(values), axis=1))

    def test_zero_columns(self):
        t = uniform(0.0, 1.0, 0.01)
        f = WeightedSignal(t, np.zeros((t.size, 0)), 1.0)
        assert weighted_norm(f) == weighted_norm_whole(f) == 0.0
        assert np.array_equal(row_peaks(f.samples), np.zeros(t.size))

    def test_positive_for_any_nonzero_sample(self, rng):
        t = uniform(0.0, 1.0, 0.05)
        for _ in range(10):
            samples = np.zeros((t.size, 2))
            samples[rng.integers(t.size), rng.integers(2)] = rng.uniform(0.5, 2.0)
            assert weighted_norm(WeightedSignal(t, samples, 3.0)) > 0.0


class TestAntiderivative:
    def test_zero(self):
        t = uniform(0.0, 1.0, 0.01)
        out = antiderivative(WeightedSignal(t, np.zeros_like(t), 1.0))
        assert np.all(out.samples == 0.0)

    def test_constant_gives_linear_growth(self):
        t = uniform(0.0, 2.0, 1e-3)
        out = antiderivative(WeightedSignal(t, np.ones_like(t), 1.0))
        np.testing.assert_allclose(out.samples[:, 0], t, atol=1e-12)

    @pytest.mark.parametrize("rho", [1.0, 2.0, 5.0])
    def test_operator_norm_bound(self, rho, rng):
        t = uniform(0.0, 8.0, 2**-8)
        for _ in range(10):
            f = random_smooth(rng, t, rho)
            lhs = weighted_norm(antiderivative(f))
            rhs = weighted_norm(f) / rho
            assert lhs <= rhs * (1.0 + 10.0 * f.dt)

    def test_causality(self):
        t = uniform(0.0, 4.0, 1e-3)
        samples = np.where(t >= 2.0, np.sin(t - 2.0), 0.0)
        out = antiderivative(WeightedSignal(t, samples, 1.0))
        peak = np.max(np.abs(out.samples))
        before = np.max(np.abs(out.samples[t < 2.0 - 2e-3]))
        assert before <= 1e-8 * peak

    def test_matches_scipy_cumulative_trapezoid(self, rng):
        from scipy.integrate import cumulative_trapezoid

        t = uniform(0.0, 1.0, 0.01)
        real = rng.standard_normal((t.size, 3))
        for samples in (real, real + 1j * rng.standard_normal(real.shape)):
            f = WeightedSignal(t, samples, 1.0)
            want = cumulative_trapezoid(samples, dx=f.dt, axis=0, initial=0.0)
            assert np.array_equal(antiderivative(f).samples, want)

    def test_linearity(self, rng):
        t = uniform(0.0, 2.0, 1e-3)
        f = random_smooth(rng, t, 1.0)
        g = random_smooth(rng, t, 1.0)
        combo = antiderivative(f.with_samples(2.0 * f.samples - 0.5 * g.samples))
        parts = 2.0 * antiderivative(f).samples - 0.5 * antiderivative(g).samples
        scale = np.max(np.abs(parts))
        assert np.max(np.abs(combo.samples - parts)) <= 1e-12 * scale


class TestApplySymbol:
    def test_identity_symbol(self, probe):
        out = apply_symbol_fl(RationalFunction.constant(1.0), probe)
        scale = np.max(np.abs(probe.samples))
        assert np.max(np.abs(out.samples - probe.samples)) <= 1e-10 * scale

    def test_integration_symbol_matches_antiderivative(self, probe):
        out = apply_symbol_fl(RationalFunction([0.0, 1.0], [1.0]), probe)
        ref = antiderivative(probe)
        scale = np.max(np.abs(ref.samples))
        assert np.max(np.abs(out.samples - ref.samples)) <= 1e-6 * scale

    def test_constant_symbol_scales(self, probe):
        out = apply_symbol_fl(RationalFunction.constant(0.25), probe)
        scale = np.max(np.abs(probe.samples))
        assert np.max(np.abs(out.samples - 0.25 * probe.samples)) <= 1e-12 * scale

    def test_linearity(self, probe):
        sym = RationalFunction([0.5, 1.0], [1.0, 1.0])
        doubled = apply_symbol_fl(sym, probe.with_samples(2.0 * probe.samples))
        single = apply_symbol_fl(sym, probe)
        scale = np.max(np.abs(single.samples))
        assert np.max(np.abs(doubled.samples - 2.0 * single.samples)) <= 1e-12 * scale

    def test_causality_of_symbol_application(self):
        t = uniform(0.0, 6.0, 1e-3)
        x = (t - 2.0) / 0.8
        samples = np.zeros_like(t)
        inside = np.abs(x) < 1.0
        samples[inside] = np.exp(-1.0 / (1.0 - x[inside] ** 2))
        sig = WeightedSignal(t, samples, 1.0)
        sym = RationalFunction([0.5, 1.0], [1.0, 1.0])
        out = apply_symbol_fl(sym, sig)
        peak = np.max(np.abs(out.samples))
        before = np.max(np.abs(out.samples[t < 1.2 - 2 * sig.dt]))
        assert before <= 1e-6 * peak

    def test_window_decay_required(self):
        t = uniform(0.0, 1.0, 1e-2)
        with pytest.raises(WindowDecayError):
            apply_symbol_fl(RationalFunction.constant(1.0),
                            WeightedSignal(t, np.ones_like(t), 1.0))

    def test_pole_on_grid_frequency_rejected(self, probe):
        # denominator vanishes at z = 1/rho, the zero-frequency sample
        sym = RationalFunction([1.0], [-1.0 / probe.rho, 1.0])
        with pytest.raises(PoleProximityError):
            apply_symbol_fl(sym, probe)
