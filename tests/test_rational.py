from fractions import Fraction

import numpy as np
import pytest

from conftest import (ALL_FAMILIES, apply_symbol_fl, horner_per_point, per_cell_law,
                      realize_per_pole, spec_with, transfer_mismatch_per_frequency,
                      uncoupled_law, validate_realization)
from thermoevo import (
    ModelFamily,
    RationalMatrixFunction,
    StateSpaceRealization,
    assemble_material_law,
    canonical_spec,
    rational,
    realize_state_space,
)
from thermoevo.errors import InputError, PoleProximityError, RealizationError
from thermoevo.rational import (TRANSFER_MATCH_TOL, _check_transfer_match, _evaluate,
                                _poles, _stack_groups)


def scalar_rational(num, den):
    return RationalMatrixFunction(tuple(np.array([[c]], float) for c in num),
                                  np.asarray(den, float))


#: the scalar function z itself (the causal integration symbol)
VARIABLE = scalar_rational([0.0, 1.0], [1.0])


def evaluate(r, z):
    """``r`` at the points z through the stacked evaluation, its pole guard included."""
    (_, nums, den), = _stack_groups([r])
    return _evaluate(nums, den, np.asarray(z)[None])[0]


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
        assert evaluate(r, 0.0)[0, 0] == pytest.approx(0.5, abs=1e-15)
        want = frac_eval([1], [2, 1], Fraction(1, 4))
        assert evaluate(r, 0.25)[0, 0] == pytest.approx(float(want), rel=1e-15)

    def test_identical_lags_cancel_to_fourier(self):
        # (z + n1)/(z + n2) / kappa with n1 == n2 is just 1/kappa
        kappa = 2.0
        r = scalar_rational([0.7 / kappa, 1.0 / kappa], [0.7, 1.0])
        for z in (0.0, 0.3, -0.2 + 0.4j, 1.5j):
            assert evaluate(r, z)[0, 0] == pytest.approx(1.0 / kappa, rel=1e-13)

    def test_identity_polynomial(self):
        assert evaluate(VARIABLE, 0.25)[0, 0] == 0.25

    def test_pole_proximity_guard(self):
        r = scalar_rational([1.0], [1.0, 1.0])  # pole at z = -1
        with pytest.raises(PoleProximityError):
            evaluate(r, -1.0 + 1e-16)

    def test_numerator_linearity(self, rng):
        den = np.array([1.0, 0.4])
        n1 = rng.standard_normal((3, 2, 2))
        n2 = rng.standard_normal((3, 2, 2))
        r1 = RationalMatrixFunction(tuple(n1), den)
        r2 = RationalMatrixFunction(tuple(n2), den)
        rsum = RationalMatrixFunction(tuple(n1 + n2), den)
        z = 0.37 + 0.21j
        got = evaluate(rsum, z)
        want = evaluate(r1, z) + evaluate(r2, z)
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
            want = horner_per_point(r, 1.0 / s)[0, 0]
            got = real.transfer(s)[0, 0]
            assert abs(got - want) <= 1e-9 * max(abs(want), 1.0)

    def test_poles_have_negative_real_part_for_positive_lags(self):
        for n2 in (0.25, 1.0, 3.0):
            r = scalar_rational([0.5, 1.0], [n2, 1.0])
            real = realize_state_space(r)
            assert np.all(np.diag(real.a).real < 0)
            assert real.a[0, 0] == pytest.approx(-1.0 / n2, rel=1e-12)

    def test_integration_symbol_realizes_as_integrator(self):
        real = realize_state_space(VARIABLE)
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
        want = horner_per_point(r, z)[0, 0]
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


def zero_order_laws():
    """Temperature damping and flux resistance of every canonical family and
    of a per-cell dpl_i law, one entry per distinct law."""
    laws = [assemble_material_law(canonical_spec(f)) for f in ALL_FAMILIES]
    laws.append(assemble_material_law(spec_with(
        ModelFamily.DPL_I, kappa=[0.5, 1.3, 2.0], n2=[0.25, 0.3, 0.2])))
    found = {}
    for law in laws:
        for cell in law.cells:
            for r in (cell.theta_damping, cell.flux_resistance):
                found.setdefault(r.key(), r)
    return list(found.values())


def accepted(check, *args) -> bool:
    try:
        check(*args)
    except RealizationError:
        return False
    return True


class TestBatchedTransferCheck:
    def test_same_verdict_as_per_frequency_loop(self):
        for r in zero_order_laws():
            real = realize_state_space(r)
            worst, scale = transfer_mismatch_per_frequency(r, real)
            assert worst <= TRANSFER_MATCH_TOL * max(scale, 1e-30)
            assert accepted(_check_transfer_match, *_stack_groups([r])[0][1:], [real],
                            _poles(len(r.num), r.den[None]))

    def test_corrupted_realization_rejected(self):
        for r in zero_order_laws():
            real = realize_state_space(r)
            if real.n_states == 0:
                continue
            bad = StateSpaceRealization(real.d, real.a, real.b, real.c * (1.0 + 1e-6))
            worst, scale = transfer_mismatch_per_frequency(r, bad)
            assert worst > TRANSFER_MATCH_TOL * max(scale, 1e-30)
            with pytest.raises(RealizationError, match="transfer mismatch"):
                _check_transfer_match(*_stack_groups([r])[0][1:], [bad],
                                      _poles(len(r.num), r.den[None]))

    def test_one_perturbed_gain_rejected(self):
        # the check divides by s - a for a diagonal A; one input gain of a
        # two-state law off by 1e-6 must still fail it
        r = scalar_rational([0.3, 1.0, 0.2], [1.0, 0.8, 0.15])
        real = realize_state_space(r)
        assert real.n_states == 2 and np.count_nonzero(real.a) == 2
        for state in range(2):
            b = np.array(real.b)
            b[state, 0] *= 1.0 + 1e-6
            bad = StateSpaceRealization(real.d, real.a, b, real.c)
            with pytest.raises(RealizationError, match="transfer mismatch"):
                _check_transfer_match(*_stack_groups([r])[0][1:], [bad],
                                      _poles(len(r.num), r.den[None]))

    def test_diagonal_transfer_matches_solve(self):
        # every realization has a diagonal A, which transfer divides by
        freqs = 1j * np.logspace(-2, 2, 9) + 0.311
        for r in zero_order_laws():
            real = realize_state_space(r)
            if real.n_states == 0:
                continue
            assert np.array_equal(real.a, np.diag(np.diagonal(real.a)))
            for s in freqs:
                want = real.d + real.c @ np.linalg.solve(s * np.eye(real.n_states) - real.a,
                                                         real.b)
                np.testing.assert_allclose(real.transfer(s), want, rtol=1e-13, atol=0)

    def test_transfer_broadcasts_over_frequencies(self):
        real = realize_state_space(scalar_rational([0.3, 1.0, 0.2], [1.0, 0.8, 0.15]))
        freqs = 1j * np.logspace(-2, 2, 7) + 0.17
        stacked = real.transfer(freqs)
        assert stacked.shape == (7, 1, 1)
        for s, value in zip(freqs, stacked):
            assert np.array_equal(real.transfer(s), value)
        feedthrough = realize_state_space(RationalMatrixFunction.constant(0.25))
        assert np.array_equal(feedthrough.transfer(freqs), np.full((7, 1, 1), 0.25 + 0j))


def same_arrays(got, want) -> bool:
    return all(getattr(got, f).dtype == getattr(want, f).dtype
               and np.array_equal(getattr(got, f), getattr(want, f)) for f in "dabc")


def fresh_copy(r):
    """A new law object equal to ``r``, which holds no realization yet."""
    return RationalMatrixFunction(r.num, r.den)


class TestStackedRealization:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_stacked_call_equals_per_law_calls(self, family):
        law = per_cell_law(family)
        laws = [r for cell in law.cells for r in (cell.theta_damping, cell.flux_resistance)]
        stacked = realize_state_space(laws)
        assert len(stacked) == len(laws)
        for r, got in zip(laws, stacked):
            assert same_arrays(got, realize_state_space(fresh_copy(r)))
            assert same_arrays(got, realize_per_pole(r))

    def test_equal_laws_share_one_entry(self):
        laws = [scalar_rational([1.0], [1.0, lag]) for lag in (0.1, 0.2, 0.1)]
        reals = realize_state_space(laws)
        assert reals[0] is reals[2] and reals[0] is not reals[1]
        assert realize_state_space(laws[1]) is reals[1]
        assert same_arrays(realize_state_space(fresh_copy(laws[1])), reals[1])

    def test_repeated_pole_rejected_in_a_stack(self):
        with pytest.raises(RealizationError, match="repeated pole"):
            realize_state_space([scalar_rational([1.0], [1.0, 0.5]),
                                 scalar_rational([1.0], [1.0, 2.0, 1.0])])


class TestRealizationMemo:
    def test_equal_laws_share_one_read_only_realization(self):
        r = scalar_rational([0.5, 1.0], [0.37, 1.0])
        real = realize_state_space(r)
        assert realize_state_space(r) is real
        twins = realize_state_space([scalar_rational([0.5, 1.0], [0.37, 1.0]),
                                     scalar_rational([0.5, 1.0], [0.37, 1.0])])
        assert twins[0] is twins[1]
        assert same_arrays(twins[0], real)
        for arr in (real.d, real.a, real.b, real.c):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0.0

    def test_key_tells_complex_from_real_coefficients(self):
        # 1/(2 + 3z) and 1/(2 + 3j) hold the same bytes in their denominators
        real_den = scalar_rational([1.0], [2.0, 3.0])
        complex_den = RationalMatrixFunction((np.ones((1, 1)),), np.array([2.0 + 3.0j]))
        assert real_den.key() != complex_den.key()
        assert realize_state_space(real_den).n_states == 1
        with pytest.raises(RealizationError, match="complex coefficient"):
            realize_state_space(complex_den)


class TestRealizedLaws:
    """Only real scalar laws with real simple poles are realized."""

    def test_matrix_law_rejected(self):
        r = RationalMatrixFunction((np.eye(2), 0.5 * np.eye(2)), np.array([1.0, 0.4]))
        with pytest.raises(RealizationError, match="2x2 law; only scalar laws"):
            realize_state_space(r)

    def test_complex_coefficient_rejected(self):
        r = RationalMatrixFunction((np.array([[1.0 + 0.5j]]),), np.array([1.0, 0.4]))
        with pytest.raises(RealizationError, match="complex coefficient"):
            realize_state_space(r)

    def test_complex_pole_pair_rejected(self):
        # 1 / (1 + 0.2 z + z^2): poles s = -0.1 +- 0.994987j
        r = scalar_rational([1.0], [1.0, 0.2, 1.0])
        with pytest.raises(RealizationError) as info:
            realize_state_space(r)
        assert str(info.value) == "complex pole s = -0.1+0.994987j; only real poles are realized"
        assert "_realization" not in vars(r)

    def test_equals_per_pole_svd_reference(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        # distinct real denominator roots in z, 1/20 to 20 in size and apart
        # by a quarter of the larger: simple real poles 1/root in s, far
        # enough apart for the partial fractions to pass the transfer check
        roots = st.lists(st.floats(0.05, 20.0) | st.floats(-20.0, -0.05), min_size=1,
                         max_size=4).filter(lambda r: all(
                             abs(a - b) > 0.25 * max(abs(a), abs(b)) for i, a in enumerate(r)
                             for b in r[:i]))

        @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
        @hypothesis.given(roots=roots, extra=st.integers(0, 2),
                          num=st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6))
        def check(roots, extra, num):
            # a numerator up to one degree above the denominator adds a pole at s = 0
            den = np.polynomial.polynomial.polyfromroots(roots)
            r = scalar_rational(num[:len(roots) + extra], den)
            got = realize_state_space(r)
            assert same_arrays(got, realize_per_pole(fresh_copy(r)))
            assert all(getattr(got, f).dtype == np.float64 for f in "dabc")

        check()


class TestPoleMessage:
    def test_names_the_first_offending_point(self):
        r = scalar_rational([1.0], [1.0, 1.0])  # pole at z = -1
        with pytest.raises(PoleProximityError) as info:
            evaluate(r, np.array([[0.5, -1.0], [2.0, -1.0]]))
        assert str(info.value) == "denominator nearly vanishes at z = -1.0"
