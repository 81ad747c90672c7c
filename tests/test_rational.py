from fractions import Fraction

import numpy as np
import pytest

from conftest import ALL_FAMILIES, uncoupled_law
from thermoevo import (
    RationalMatrixFunction,
    apply_symbol_fl,
    eval_rational,
    realize_state_space,
    validate_realization,
)
from thermoevo.errors import InputError, PoleProximityError, RealizationError


def scalar_rational(num, den):
    return RationalMatrixFunction(tuple(np.array([[c]], float) for c in num),
                                  np.asarray(den, float))


def frac_eval(num, den, z: Fraction) -> Fraction:
    """Arbitrary-precision rational evaluation, the independent oracle."""
    top = sum(Fraction(c) * z**k for k, c in enumerate(num))
    bottom = sum(Fraction(c) * z**k for k, c in enumerate(den))
    return top / bottom


class TestEval:
    def test_conductivity_rate_law_at_zero(self):
        # 1 / (z*k_star + k) with k=2, k_star=1
        r = scalar_rational([1.0], [2.0, 1.0])
        assert frac_eval([1], [2, 1], Fraction(0)) == Fraction(1, 2)
        assert eval_rational(r, 0.0)[0, 0] == pytest.approx(0.5, abs=1e-15)
        want = frac_eval([1], [2, 1], Fraction(1, 4))
        assert eval_rational(r, 0.25)[0, 0] == pytest.approx(float(want), rel=1e-15)

    def test_identical_lags_cancel_to_fourier(self):
        # (z + n1)/(z + n2) / kappa with n1 == n2 is just 1/kappa
        kappa = 2.0
        r = scalar_rational([0.7 / kappa, 1.0 / kappa], [0.7, 1.0])
        for z in (0.0, 0.3, -0.2 + 0.4j, 1.5j):
            assert eval_rational(r, z)[0, 0] == pytest.approx(1.0 / kappa, rel=1e-13)

    def test_identity_polynomial(self):
        assert eval_rational(RationalMatrixFunction.variable(), 0.25)[0, 0] == 0.25

    def test_pole_proximity_guard(self):
        r = scalar_rational([1.0], [1.0, 1.0])  # pole at z = -1
        with pytest.raises(PoleProximityError):
            eval_rational(r, -1.0 + 1e-16)

    def test_numerator_linearity(self, rng):
        den = np.array([1.0, 0.4])
        n1 = rng.standard_normal((3, 2, 2))
        n2 = rng.standard_normal((3, 2, 2))
        r1 = RationalMatrixFunction(tuple(n1), den)
        r2 = RationalMatrixFunction(tuple(n2), den)
        rsum = RationalMatrixFunction(tuple(n1 + n2), den)
        z = 0.37 + 0.21j
        got = eval_rational(rsum, z)
        want = eval_rational(r1, z) + eval_rational(r2, z)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_analyticity_gate(self):
        with pytest.raises(InputError):
            scalar_rational([1.0], [0.0, 1.0])

    def test_key_identifies_equal_coefficients(self):
        r = scalar_rational([0.5, 0.0], [1.0, 2.0])
        assert r.key() == scalar_rational([0.5, -0.0], [1, 2]).key()
        assert r.key() != scalar_rational([0.5, 0.0], [1.0, 2.5]).key()
        assert r.key() != scalar_rational([0.5], [1.0, 2.0]).key()
        ints = RationalMatrixFunction((np.array([[1]]),), np.array([2, 1]))
        assert ints.key() == scalar_rational([1.0], [2.0, 1.0]).key()
        wide = RationalMatrixFunction((np.array([[1.0, 2.0]]),), np.array([1.0]))
        tall = RationalMatrixFunction((np.array([[1.0], [2.0]]),), np.array([1.0]))
        assert wide.key() != tall.key()
        assert hash(r.key()) == hash(scalar_rational([0.5, 0.0], [1.0, 2.0]).key())

    def test_json_round_trip(self):
        r = scalar_rational([0.5, 1.0], [1.0, 2.0])
        back = RationalMatrixFunction.from_json(r.to_json())
        assert all(np.array_equal(a, b) for a, b in zip(r.num, back.num))
        assert np.array_equal(r.den, back.den)


class TestRealize:
    def test_constant_is_feedthrough_only(self):
        real = realize_state_space(RationalMatrixFunction.constant(0.25))
        assert real.n_states == 0
        assert real.d[0, 0] == 0.25

    def test_two_lag_flux_law(self):
        # (z + n1)/(z + n2) / kappa, n1=0.5, n2=1, kappa=1
        r = scalar_rational([0.5, 1.0], [1.0, 1.0])
        real = realize_state_space(r)
        assert real.d[0, 0] == pytest.approx(0.5, abs=1e-14)
        assert real.n_states == 1
        assert real.a[0, 0] == pytest.approx(-1.0, abs=1e-12)

    def test_relaxed_temperature_damping(self):
        # c / (n0 + z), c=1, n0=2
        r = scalar_rational([1.0], [2.0, 1.0])
        real = realize_state_space(r)
        assert real.d[0, 0] == pytest.approx(0.5, abs=1e-14)
        assert real.n_states == 1
        assert real.a[0, 0] == pytest.approx(-0.5, abs=1e-12)

    def test_transfer_match_at_sampled_frequencies(self):
        r = scalar_rational([0.3, 1.0, 0.2], [1.0, 0.8, 0.15])
        real = realize_state_space(r)
        for omega in np.logspace(-2, 2, 32):
            s = 1j * omega + 0.17
            want = eval_rational(r, 1.0 / s)[0, 0]
            got = real.transfer(s)[0, 0]
            assert abs(got - want) <= 1e-9 * max(abs(want), 1.0)

    def test_poles_have_negative_real_part_for_positive_lags(self):
        for n2 in (0.25, 1.0, 3.0):
            r = scalar_rational([0.5, 1.0], [n2, 1.0])
            real = realize_state_space(r)
            assert np.all(np.diag(real.a).real < 0)
            assert real.a[0, 0] == pytest.approx(-1.0 / n2, rel=1e-12)

    def test_integration_symbol_realizes_as_integrator(self):
        real = realize_state_space(RationalMatrixFunction.variable())
        assert real.n_states == 1
        assert real.a[0, 0] == 0.0
        assert real.d[0, 0] == 0.0

    def test_repeated_pole_rejected(self):
        with pytest.raises(RealizationError):
            realize_state_space(scalar_rational([1.0], [1.0, 2.0, 1.0]))
        with pytest.raises(RealizationError):
            realize_state_space(
                RationalMatrixFunction((np.zeros((1, 1)), np.zeros((1, 1)), np.eye(1)),
                                       np.array([1.0]))
            )

    def test_cancelled_pole_drops_state(self):
        # identical numerator and denominator roots leave only feedthrough
        r = scalar_rational([0.7, 1.0], [0.7, 1.0])
        real = realize_state_space(r)
        assert real.n_states == 0
        assert real.d[0, 0] == pytest.approx(1.0, abs=1e-14)


class TestValidate:
    def test_constant_law(self, probe):
        r = RationalMatrixFunction.constant(2.0)
        assert validate_realization(r, realize_state_space(r), probe) <= 1e-10

    def test_two_lag_law_on_pulse(self, probe):
        r = scalar_rational([0.5, 1.0], [1.0, 1.0])
        assert validate_realization(r, realize_state_space(r), probe) <= 1e-5

    def test_catalog_zero_order_entries(self, probe):
        for family in ALL_FAMILIES:
            cell = uncoupled_law(family).cells[0]
            for r in (cell.theta_damping, cell.flux_resistance):
                err = validate_realization(r, realize_state_space(r), probe)
                assert err <= 1e-5, f"{family.value}: {err}"

    def test_series_expansion_converges_inside_disk(self):
        # c/(n0 + z) = (c/n0) * sum_j (-z/n0)^j for |z| < n0
        c, n0 = 1.0, 2.0
        r = scalar_rational([c], [n0, 1.0])
        z = 0.3
        want = eval_rational(r, z)[0, 0]
        partial = 0.0
        errors = []
        for j in range(40):
            partial += (c / n0) * (-z / n0) ** j
            errors.append(abs(partial - want))
        assert errors[-1] <= 1e-12
        assert errors[5] < errors[1]

    def test_laplace_and_time_paths_agree(self, probe):
        r = scalar_rational([0.5, 1.0], [1.0, 1.0])
        real = realize_state_space(r)
        from thermoevo._integrators import exp_march_linear

        states = exp_march_linear(real.a, real.b, probe.samples, probe.dt)
        direct = probe.samples @ real.d.T + states @ real.c.T
        spectral = apply_symbol_fl(r, probe).samples
        scale = np.max(np.abs(spectral))
        assert np.max(np.abs(direct - spectral)) <= 1e-5 * scale
