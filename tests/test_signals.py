import numpy as np
import pytest

from conftest import WindowDecayError, apply_symbol_fl, make_probe, random_smooth
from thermoevo import RationalMatrixFunction, WeightedSignal, antiderivative, weighted_norm
from thermoevo.signals import write_csv
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


def per_value_csv(header, rows):
    """The former writer: one format(v, '.17g') call per value."""
    lines = [header]
    for row in rows:
        lines.append(",".join(format(v, ".17g") for v in row))
    return "\n".join(lines) + "\n"


EDGE_VALUES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e300, 1e-300,
               -1e300, 0.1, 1.0 / 3.0, 2.0 ** -1074 * 3, np.finfo(float).max]


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
        out = apply_symbol_fl(RationalMatrixFunction.constant(np.eye(1)), probe)
        scale = np.max(np.abs(probe.samples))
        assert np.max(np.abs(out.samples - probe.samples)) <= 1e-10 * scale

    def test_integration_symbol_matches_antiderivative(self, probe):
        out = apply_symbol_fl(RationalMatrixFunction((np.zeros((1, 1)), np.ones((1, 1))),
                                                np.array([1.0])), probe)
        ref = antiderivative(probe)
        scale = np.max(np.abs(ref.samples))
        assert np.max(np.abs(out.samples - ref.samples)) <= 1e-6 * scale

    def test_constant_symbol_scales(self, probe):
        out = apply_symbol_fl(RationalMatrixFunction.constant(0.25), probe)
        scale = np.max(np.abs(probe.samples))
        assert np.max(np.abs(out.samples - 0.25 * probe.samples)) <= 1e-12 * scale

    def test_linearity(self, probe):
        sym = RationalMatrixFunction((np.array([[0.5]]), np.array([[1.0]])),
                                     np.array([1.0, 1.0]))
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
        sym = RationalMatrixFunction((np.array([[0.5]]), np.array([[1.0]])),
                                     np.array([1.0, 1.0]))
        out = apply_symbol_fl(sym, sig)
        peak = np.max(np.abs(out.samples))
        before = np.max(np.abs(out.samples[t < 1.2 - 2 * sig.dt]))
        assert before <= 1e-6 * peak

    def test_window_decay_required(self):
        t = uniform(0.0, 1.0, 1e-2)
        with pytest.raises(WindowDecayError):
            apply_symbol_fl(RationalMatrixFunction.constant(np.eye(1)),
                            WeightedSignal(t, np.ones_like(t), 1.0))

    def test_pole_on_grid_frequency_rejected(self, probe):
        # denominator vanishes at z = 1/rho, the zero-frequency sample
        sym = RationalMatrixFunction((np.eye(1),), np.array([-1.0 / probe.rho, 1.0]))
        with pytest.raises(PoleProximityError):
            apply_symbol_fl(sym, probe)

    def test_component_mismatch(self, probe):
        with pytest.raises(InputError):
            apply_symbol_fl(RationalMatrixFunction.constant(np.eye(2)), probe)

    def test_matrix_symbol_mixes_components(self):
        base = make_probe()
        two = WeightedSignal(base.t, np.column_stack([base.samples[:, 0],
                                                      0.5 * base.samples[:, 0]]), 1.0)
        mix = RationalMatrixFunction.constant(np.array([[0.0, 2.0], [1.0, 0.0]]))
        out = apply_symbol_fl(mix, two)
        scale = np.max(np.abs(two.samples))
        assert np.max(np.abs(out.samples[:, 0] - 2.0 * two.samples[:, 1])) <= 1e-10 * scale
        assert np.max(np.abs(out.samples[:, 1] - two.samples[:, 0])) <= 1e-10 * scale
