import math

import numpy as np
import pytest

from conftest import ALL_FAMILIES, cell_mass, cell_parts, spec_with
from thermoevo import (
    ModelFamily,
    ModelSpec,
    RationalFunction,
    WeightedSignal,
    assemble_material_law,
    canonical_spec,
    compute_entropy,
    pattern_table,
    recover_theta,
    zero_pattern,
)
from thermoevo import models
from thermoevo._integrators import exp_march_linear
from thermoevo.errors import InputError
from thermoevo.rational import realize_state_space
from thermoevo.signals import antiderivative


def stars(rows):
    return np.array([[ch == "*" for ch in row] for row in rows])


# block sparsity of the symbol at zero and of its slope, per family
GOLDEN_PATTERNS = {
    ModelFamily.CLASSICAL: (["*000", "0**0", "0**0", "0000"],
                            ["0000", "0000", "0000", "000*"]),
    ModelFamily.LORD_SHULMAN: (["*000", "0**0", "0**0", "000*"],
                               ["0000", "0000", "0000", "000*"]),
    ModelFamily.GREEN_NAGHDI_I: (["*000", "0**0", "0**0", "0000"],
                                 ["0000", "0000", "0000", "000*"]),
    ModelFamily.GREEN_NAGHDI_II: (["*000", "0**0", "0**0", "000*"],
                                  ["0000", "0000", "0000", "0000"]),
    ModelFamily.GREEN_NAGHDI_III: (["*000", "0**0", "0**0", "0000"],
                                   ["0000", "0000", "0000", "000*"]),
    ModelFamily.GREEN_LINDSAY: (["*000", "0**0", "0***", "00**"],
                                ["0000", "0000", "00*0", "000*"]),
    ModelFamily.DPL_I: (["*000", "0**0", "0**0", "0000"],
                        ["0000", "0000", "0000", "000*"]),
    ModelFamily.DPL_II: (["*000", "0**0", "0**0", "000*"],
                         ["0000", "0000", "0000", "000*"]),
}


class TestAssembly:
    def test_flux_relaxation_blocks(self):
        law = assemble_material_law(ModelSpec(ModelFamily.LORD_SHULMAN, {
            "rho0": 1.0, "nu": 1.0, "C": 1.0, "Gamma": 0.0, "kappa": 1.0, "a0": 1.0}))
        mass = law.mass[0]
        assert mass[2, 3] == 0.0 and mass[3, 2] == 0.0
        assert mass[3, 3] == 1.0
        assert [values.tolist() for values in law.at_zero] == [[0.0], [1.0]]
        for part in cell_parts(law, 0):
            assert part.den.size == 1 and part.num.size == 1  # constant law

    def test_conservative_flux_law_has_no_zero_order_part(self):
        law = assemble_material_law(spec_with(ModelFamily.GREEN_NAGHDI_II, k_star=1.0))
        for part in cell_parts(law, 0):
            assert np.all(part.num == 0.0)

    def test_classical_reduction(self):
        law = assemble_material_law(ModelSpec(ModelFamily.CLASSICAL, {
            "rho0": 2.0, "nu": 0.5, "C": 4.0, "Gamma": 1.0, "kappa": 2.0}))
        mass = law.mass[0]
        np.testing.assert_array_equal(mass[3, :], np.zeros(4))
        np.testing.assert_array_equal(mass[:, 3], np.zeros(4))
        np.testing.assert_allclose(mass[:3, :3], np.array([
            [2.0, 0.0, 0.0],
            [0.0, 0.25, 0.25],
            [0.0, 0.25, 0.5 + 0.25],
        ]), atol=1e-15)
        assert [values.tolist() for values in law.at_zero] == [[0.0], [0.5]]

    def test_relaxed_temperature_maps(self):
        # nu, a0, zeta0 and the damping gain all derive from the lag primitives
        n0, b, d, h, kappa = 0.5, 0.4, 3.0, 1.0, 1.0
        law = assemble_material_law(ModelSpec(ModelFamily.GREEN_LINDSAY, {
            "rho0": 1.0, "C": 1.0, "Gamma": 0.5, "kappa": kappa,
            "n0": n0, "b": b, "d": d, "h": h}))
        assert law.nu[0] == pytest.approx(h / n0)
        assert law.a0[0] == pytest.approx(n0 / kappa)
        assert law.zeta0[0] == pytest.approx(b / n0)
        gain = d - (h + b * b / kappa) / n0
        damping = cell_parts(law, 0)[0]
        assert damping.num[0] == pytest.approx(gain)
        np.testing.assert_allclose(damping.den, [n0, 1.0])
        assert law.n0[0] == n0

    def test_coefficient_validation(self):
        with pytest.raises(InputError):  # user nu is not accepted for the lag family
            ModelSpec(ModelFamily.GREEN_LINDSAY, {
                "rho0": 1, "nu": 1, "C": 1, "Gamma": 0, "kappa": 1,
                "n0": 0.5, "b": 0, "d": 0, "h": 1})
        with pytest.raises(InputError):  # missing required coefficient
            ModelSpec(ModelFamily.LORD_SHULMAN, {
                "rho0": 1, "nu": 1, "C": 1, "Gamma": 0, "kappa": 1})
        with pytest.raises(InputError):  # extraneous coefficient
            ModelSpec(ModelFamily.CLASSICAL, {
                "rho0": 1, "nu": 1, "C": 1, "Gamma": 0, "kappa": 1, "k": 1})
        with pytest.raises(InputError):  # non-positive lag
            assemble_material_law(spec_with(ModelFamily.GREEN_LINDSAY, n0=-0.5))
        with pytest.raises(InputError):  # vanishing phase lag
            assemble_material_law(spec_with(ModelFamily.DPL_I, n1=0.0))
        with pytest.raises(InputError):  # singular conductivity
            assemble_material_law(spec_with(ModelFamily.CLASSICAL, kappa=0.0))
        with pytest.raises(InputError):  # negative density
            assemble_material_law(spec_with(ModelFamily.CLASSICAL, rho0=-1.0))

    def test_per_cell_coefficients(self):
        law = assemble_material_law(ModelSpec(ModelFamily.CLASSICAL, {
            "rho0": [1.0, 2.0, 3.0], "nu": 1.0, "C": 1.0, "Gamma": 0.0, "kappa": 1.0}))
        assert law.n_cells == 3
        assert law.rho0.tolist() == [1.0, 2.0, 3.0]
        with pytest.raises(InputError, match="coefficient 'rho0' has 2 values for 3 cells"):
            assemble_material_law(ModelSpec(ModelFamily.CLASSICAL, {
                "rho0": [1.0, 2.0], "nu": [1.0, 1.0, 1.0], "C": 1.0,
                "Gamma": 0.0, "kappa": 1.0}))

    def test_per_cell_lists_are_converted_per_coefficient(self, monkeypatch):
        # converting a whole per-cell list once per cell made assembly
        # quadratic in the cell count; and a law is built once per distinct
        # law, not per cell
        asarray, conversions = np.asarray, []

        def counted(value, *args, **kwargs):
            if isinstance(value, list) and len(value) > 1:
                conversions.append(len(value))
            return asarray(value, *args, **kwargs)

        build, built = RationalFunction.__init__, []

        def counted_build(law, *args):
            built.append(law)
            build(law, *args)

        monkeypatch.setattr(np, "asarray", counted)
        monkeypatch.setattr(RationalFunction, "__init__", counted_build)
        counts = []
        for n in (8, 64):
            conversions.clear()
            built.clear()
            rng = np.random.default_rng(n)
            # kappa takes n / 2 distinct values, each in two cells
            kappa = rng.permutation(np.repeat(rng.uniform(0.5, 2.0, n // 2), 2))
            law = assemble_material_law(ModelSpec(ModelFamily.DPL_I, {
                "rho0": 1.0, "nu": 1.0, "Gamma": 0.5, "n1": 0.5, "n2": 0.25,
                "C": rng.uniform(0.8, 1.25, n).tolist(), "kappa": kappa.tolist()}))
            assert law.n_cells == n
            counts.append(len(conversions))
            assert (len(law.a1), len(law.a2)) == (1, n // 2)
            assert len(built) == len(law.a1) + len(law.a2)
            assert [law.a2[k].num[1] for k in law.a2_index] == (1.0 / kappa).tolist()
        assert counts[0] == counts[1]


class TestPatternsAndClassification:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_patterns_match_golden(self, family):
        law = assemble_material_law(canonical_spec(family))
        m0, m1 = zero_pattern(law)
        want0, want1 = GOLDEN_PATTERNS[family]
        np.testing.assert_array_equal(m0, stars(want0))
        np.testing.assert_array_equal(m1, stars(want1))

    def test_classification_examples(self):
        for family, want in ((ModelFamily.LORD_SHULMAN, "generic"),
                             (ModelFamily.GREEN_NAGHDI_I, "degenerate"),
                             (ModelFamily.DPL_I, "degenerate")):
            assert assemble_material_law(canonical_spec(family)).classification == want

    def test_hermiticity(self):
        for family in ALL_FAMILIES:
            mass = assemble_material_law(canonical_spec(family)).mass[0]
            scale = np.max(np.abs(mass))
            assert np.max(np.abs(mass - mass.conj().T)) <= 1e-14 * scale

    def test_congruence_identity_random_draws(self, rng):
        for _ in range(20):
            spec = ModelSpec(ModelFamily.GREEN_LINDSAY, {
                "rho0": rng.uniform(0.5, 2.0), "C": rng.uniform(0.5, 2.0),
                "Gamma": rng.uniform(-1.0, 1.0), "kappa": rng.uniform(0.5, 2.0),
                "n0": rng.uniform(0.2, 2.0), "b": rng.uniform(-1.0, 1.0),
                "d": rng.uniform(-2.0, 2.0), "h": rng.uniform(0.3, 2.0)})
            law = assemble_material_law(spec)
            core = [law.rho0[0], 1.0 / law.C[0], law.nu[0], law.a0[0]]
            assert np.max(np.abs(cell_mass(law, 0) - law.mass[0])) <= 1e-12 * np.max(np.abs(core))

    def test_pattern_table_text(self):
        text = pattern_table(assemble_material_law(canonical_spec(ModelFamily.LORD_SHULMAN)))
        assert text.startswith("family: lord_shulman\n")
        assert "M(0):" in text and "M1(0):" in text
        assert text.count("|") == 8


class TestThetaRecovery:
    def test_zero_lag_is_identity(self, rng):
        t = 1e-3 * np.arange(2001)
        sig = WeightedSignal(t, rng.standard_normal((t.size, 2)), 1.0)
        out = recover_theta(sig, 0.0)
        np.testing.assert_array_equal(out.samples, sig.samples)

    def test_step_response(self):
        # oracle: n0 theta' + theta = 1, theta(0)=0 has solution 1 - exp(-t/n0)
        t = 1e-3 * np.arange(5001)
        sig = WeightedSignal(t, np.ones_like(t), 1.0)
        out = recover_theta(sig, 1.0)
        np.testing.assert_allclose(out.samples[:, 0], 1.0 - np.exp(-t), atol=1e-6)

    def test_linearity(self, rng):
        t = 1e-3 * np.arange(1001)
        a = WeightedSignal(t, rng.standard_normal(t.size), 1.0)
        b = WeightedSignal(t, rng.standard_normal(t.size), 1.0)
        combo = recover_theta(a.with_samples(2.0 * a.samples + 3.0 * b.samples), 0.7)
        parts = 2.0 * recover_theta(a, 0.7).samples + 3.0 * recover_theta(b, 0.7).samples
        scale = max(np.max(np.abs(parts)), 1e-30)
        assert np.max(np.abs(combo.samples - parts)) <= 1e-12 * scale

    def test_long_lag_matches_series_phi(self):
        # dt / n0 = 2.4e-8: the phi functions by difference quotients cancel
        # catastrophically, their Taylor series do not
        n0, dt = 1e4, 2.0**-12
        t = dt * np.arange(4097)
        samples = np.column_stack([np.sin(3.0 * t), np.exp(-t) * t])
        out = recover_theta(WeightedSignal(t, samples, 1.0), n0)
        z = -dt / n0
        phi1 = sum(z**k / math.factorial(k + 1) for k in range(8))
        phi2 = sum(z**k / math.factorial(k + 2) for k in range(8))
        w_prev, w_next = -z * (phi1 - phi2), -z * phi2
        want = np.zeros_like(samples)
        for k in range(t.size - 1):
            want[k + 1] = np.exp(z) * want[k] + w_prev * samples[k] + w_next * samples[k + 1]
        assert np.max(np.abs(out.samples - want)) <= 1e-13 * np.max(np.abs(want))

    def test_negative_lag_rejected(self):
        t = 1e-3 * np.arange(10)
        with pytest.raises(InputError):
            recover_theta(WeightedSignal(t, np.zeros(10), 1.0), -1.0)


class TestEntropy:
    def test_zero_fields(self):
        law = assemble_material_law(canonical_spec(ModelFamily.CLASSICAL))
        t = 1e-3 * np.arange(101)
        zero = WeightedSignal(t, np.zeros((t.size, 2)), 1.0)
        out = compute_entropy(law, zero, zero, zero)
        assert np.all(out.samples == 0.0)

    def test_classical_two_forms_agree(self, rng):
        # the stress-based and strain-based entropy expressions are the same
        # relation rewritten; with sigma = C eps - Gamma Theta they must match
        rho0, nu, c_el, gamma = 1.5, 0.7, 2.0, 0.6
        law = assemble_material_law(ModelSpec(ModelFamily.CLASSICAL, {
            "rho0": rho0, "nu": nu, "C": c_el, "Gamma": gamma, "kappa": 1.0}))
        t = 1e-3 * np.arange(2001)
        eps = np.sin(3 * t)[:, None] * rng.uniform(0.5, 1.0, 3)[None, :]
        theta = np.cos(2 * t)[:, None] * rng.uniform(0.5, 1.0, 3)[None, :]
        q = rng.standard_normal((t.size, 3))
        eta = compute_entropy(law,
                              WeightedSignal(t, eps, 1.0),
                              WeightedSignal(t, theta, 1.0),
                              WeightedSignal(t, q, 1.0))
        sigma = c_el * eps - gamma * theta
        other_form = (gamma / c_el * sigma + (gamma**2 / c_el + nu) * theta) / rho0
        scale = np.max(np.abs(other_form))
        assert np.max(np.abs(eta.samples - other_form)) <= 1e-9 * scale

    def test_vanishing_damping_gain_matches_instantaneous_branch(self):
        n0, h = 0.5, 1.0
        law = assemble_material_law(ModelSpec(ModelFamily.GREEN_LINDSAY, {
            "rho0": 2.0, "C": 1.0, "Gamma": 0.3, "kappa": 1.0,
            "n0": n0, "b": 0.0, "d": h / n0, "h": h}))
        assert np.all(cell_parts(law, 0)[0].num[0] == 0.0)
        t = 1e-3 * np.arange(501)
        eps = WeightedSignal(t, np.sin(t), 1.0)
        theta = WeightedSignal(t, np.cos(t), 1.0)
        q = WeightedSignal(t, np.sin(2 * t), 1.0)
        eta = compute_entropy(law, eps, theta, q)
        want = (0.3 * eps.samples + (h / n0) * theta.samples) / 2.0
        np.testing.assert_allclose(eta.samples, want, atol=1e-14)

    @staticmethod
    def per_column_entropy(law, strain, theta_big, flux):
        """The former column-by-column path: one realization and one march
        per component."""
        # a one-cell law holds in every component
        cells = np.arange(strain.n_components) % law.n_cells
        nu, zeta0, a0 = law.nu[cells], law.zeta0[cells], law.a0[cells]
        rho_eta = (law.Gamma[cells][None, :] * strain.samples
                   + (nu + zeta0 * a0 * zeta0)[None, :] * theta_big.samples
                   + (zeta0 * a0)[None, :] * flux.samples)
        memory = np.zeros_like(rho_eta)
        for j in range(strain.n_components):
            damping = cell_parts(law, cells[j])[0]
            if np.all(damping.num == 0):
                continue
            real = realize_state_space(damping)
            col = theta_big.samples[:, j:j + 1]
            states = exp_march_linear(np.diag(real.a), real.b[:, None], col, theta_big.dt)
            memory[:, j] = col[:, 0] * real.d + states @ real.c
        if np.any(memory != 0):
            rho_eta = rho_eta + antiderivative(theta_big.with_samples(memory)).samples
        return rho_eta / law.rho0[cells][None, :]

    @staticmethod
    def random_fields(rng, m, n_t=401):
        t = 1e-3 * np.arange(n_t)
        freqs = rng.uniform(1.0, 5.0, (3, m))
        return [WeightedSignal(t, np.sin(np.outer(t, f) + rng.uniform(0, 1, m)), 1.0)
                for f in freqs]

    @pytest.mark.parametrize("d_values, n_laws",
                             [(3.0, 1), ([3.0, 2.0, 3.0, 2.0, 2.0, 3.0], 2)],
                             ids=["uniform", "two_laws"])
    def test_batched_memory_matches_per_column_loop(self, d_values, n_laws, rng,
                                                    monkeypatch):
        """Green-Lindsay: uniform law, and a per-cell law whose damping gain
        takes two distinct values; each distinct law is realized once."""
        law = assemble_material_law(spec_with(ModelFamily.GREEN_LINDSAY, d=d_values))
        fields = self.random_fields(rng, 6)
        want = self.per_column_entropy(law, *fields)

        calls = []

        def counting(r):
            calls.append(id(r))
            return realize_state_space(r)

        monkeypatch.setattr(models, "realize_state_space", counting)
        got = compute_entropy(law, *fields).samples
        distinct = {id(cell_parts(law, j % law.n_cells)[0]) for j in range(6)}
        assert len(distinct) == n_laws
        assert sorted(calls) == sorted(distinct)
        assert np.array_equal(got, want)

    def test_grid_mismatch_rejected(self):
        law = assemble_material_law(canonical_spec(ModelFamily.CLASSICAL))
        t = 1e-3 * np.arange(101)
        a = WeightedSignal(t, np.zeros((t.size, 2)), 1.0)
        b = WeightedSignal(t, np.zeros((t.size, 3)), 1.0)
        with pytest.raises(InputError):
            compute_entropy(law, a, a, b)


class TestCustomLaws:
    def test_custom_requires_positive_density(self):
        with pytest.raises(InputError):
            assemble_material_law(ModelSpec(ModelFamily.CUSTOM, {
                "rho0": -1.0, "nu": 1.0, "C": 1.0, "Gamma": 0.0}))


#: coefficient values that are not real finite numbers or lists of them, each
#: with the family and coefficient it is given as
BAD_COEFFICIENTS = {
    "string": (ModelFamily.CLASSICAL, "C", "1"),
    "complex": (ModelFamily.CLASSICAL, "Gamma", 0.5 + 1j),
    "nan": (ModelFamily.CLASSICAL, "rho0", float("nan")),
    "inf": (ModelFamily.CLASSICAL, "kappa", float("inf")),
    "boolean": (ModelFamily.LORD_SHULMAN, "a0", True),
    "nan_in_list": (ModelFamily.CLASSICAL, "nu", [1.0, float("nan")]),
    "boolean_in_list": (ModelFamily.CLASSICAL, "kappa", [1.0, True]),
    "numpy_boolean_in_list": (ModelFamily.CLASSICAL, "C", [1.0, np.True_]),
    "ragged_list": (ModelFamily.CLASSICAL, "C", [[1.0], [1.0, 2.0]]),
    "matrix": (ModelFamily.CUSTOM, "a0", np.diag([1.0, 0.0])),
}

#: rational coefficients whose numerator is not a real finite vector, each
#: built inside the test: the law is refused when it is built
BAD_RATIONAL_NUMERATORS = {
    "matrix_rational": lambda: RationalFunction(np.diag([0.0, 1.0]), [1.0]),
    "complex_rational": lambda: RationalFunction([1.0, -0.5j], [1.0, 0.5]),
    "infinite_rational": lambda: RationalFunction([np.inf], [1.0]),
}


@pytest.mark.parametrize("case", sorted(BAD_COEFFICIENTS) + sorted(BAD_RATIONAL_NUMERATORS))
def test_bad_coefficient_names_itself(case):
    if case in BAD_RATIONAL_NUMERATORS:
        with pytest.raises(InputError, match="numerator must be"):
            BAD_RATIONAL_NUMERATORS[case]()
        return
    family, name, value = BAD_COEFFICIENTS[case]
    if family is ModelFamily.CUSTOM:
        spec = ModelSpec(family, {"rho0": 1.0, "nu": 1.0, "C": 1.0, "Gamma": 0.0, name: value})
    else:
        spec = spec_with(family, **{name: value})
    with pytest.raises(InputError, match=f"coefficient '{name}' must be"):
        assemble_material_law(spec)
