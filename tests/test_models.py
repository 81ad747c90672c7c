import math

import numpy as np
import pytest

from conftest import ALL_FAMILIES, spec_with
from thermoevo import (
    ModelFamily,
    ModelSpec,
    RationalMatrixFunction,
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
        mass = law.cells[0].mass()
        assert mass[2, 3] == 0.0 and mass[3, 2] == 0.0
        assert mass[3, 3] == 1.0
        m1 = law.cells[0].dissipation()
        np.testing.assert_array_equal(m1.num[0] / m1.den[0], np.diag([0.0, 0.0, 0.0, 1.0]))
        assert m1.den.size == 1 and len(m1.num) == 1  # constant law

    def test_conservative_flux_law_has_no_zero_order_part(self):
        law = assemble_material_law(spec_with(ModelFamily.GREEN_NAGHDI_II, k_star=1.0))
        m1 = law.cells[0].dissipation()
        assert all(np.all(np.asarray(c) == 0.0) for c in m1.num)

    def test_classical_reduction(self):
        law = assemble_material_law(ModelSpec(ModelFamily.CLASSICAL, {
            "rho0": 2.0, "nu": 0.5, "C": 4.0, "Gamma": 1.0, "kappa": 2.0}))
        mass = law.cells[0].mass()
        np.testing.assert_array_equal(mass[3, :], np.zeros(4))
        np.testing.assert_array_equal(mass[:, 3], np.zeros(4))
        np.testing.assert_allclose(mass[:3, :3], np.array([
            [2.0, 0.0, 0.0],
            [0.0, 0.25, 0.25],
            [0.0, 0.25, 0.5 + 0.25],
        ]), atol=1e-15)
        m1 = law.cells[0].dissipation()
        np.testing.assert_array_equal(m1.num[0] / m1.den[0], np.diag([0.0, 0.0, 0.0, 0.5]))

    def test_relaxed_temperature_maps(self):
        # nu, a0, zeta0 and the damping gain all derive from the lag primitives
        n0, b, d, h, kappa = 0.5, 0.4, 3.0, 1.0, 1.0
        law = assemble_material_law(ModelSpec(ModelFamily.GREEN_LINDSAY, {
            "rho0": 1.0, "C": 1.0, "Gamma": 0.5, "kappa": kappa,
            "n0": n0, "b": b, "d": d, "h": h}))
        cell = law.cells[0]
        assert cell.heat_capacity[0, 0] == pytest.approx(h / n0)
        assert cell.flux_inertia[0, 0] == pytest.approx(n0 / kappa)
        assert cell.flux_coupling[0, 0] == pytest.approx(b / n0)
        gain = d - (h + b * b / kappa) / n0
        assert cell.theta_damping.num[0][0, 0] == pytest.approx(gain)
        np.testing.assert_allclose(cell.theta_damping.den, [n0, 1.0])
        assert cell.theta_lag == n0

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
        assert [c.rho0[0, 0] for c in law.cells] == [1.0, 2.0, 3.0]
        with pytest.raises(InputError):  # mismatched list lengths
            ModelSpec(ModelFamily.CLASSICAL, {
                "rho0": [1.0, 2.0], "nu": [1.0, 1.0, 1.0], "C": 1.0,
                "Gamma": 0.0, "kappa": 1.0}).n_cells


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
            mass = assemble_material_law(canonical_spec(family)).cells[0].mass()
            scale = np.max(np.abs(mass))
            assert np.max(np.abs(mass - mass.conj().T)) <= 1e-14 * scale

    def test_congruence_identity_random_draws(self, rng):
        for _ in range(20):
            spec = ModelSpec(ModelFamily.GREEN_LINDSAY, {
                "rho0": rng.uniform(0.5, 2.0), "C": rng.uniform(0.5, 2.0),
                "Gamma": rng.uniform(-1.0, 1.0), "kappa": rng.uniform(0.5, 2.0),
                "n0": rng.uniform(0.2, 2.0), "b": rng.uniform(-1.0, 1.0),
                "d": rng.uniform(-2.0, 2.0), "h": rng.uniform(0.3, 2.0)})
            cell = assemble_material_law(spec).cells[0]
            (lmat,), (core,) = models._congruence([cell])
            rebuilt = lmat.conj().T @ core @ lmat
            assert np.max(np.abs(rebuilt - cell.mass())) <= 1e-12 * np.max(np.abs(core))

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
        assert np.all(law.cells[0].theta_damping.num[0] == 0.0)
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
        coeff = law.scalar_arrays(strain.n_components)
        nu, zeta0, a0 = coeff["heat_capacity"], coeff["flux_coupling"], coeff["flux_inertia"]
        rho_eta = (coeff["coupling"][None, :] * strain.samples
                   + (nu + zeta0 * a0 * zeta0)[None, :] * theta_big.samples
                   + (zeta0 * a0)[None, :] * flux.samples)
        memory = np.zeros_like(rho_eta)
        for j in range(strain.n_components):
            damping = law.cell(j).theta_damping
            if all(np.all(np.asarray(c) == 0) for c in damping.num):
                continue
            real = realize_state_space(damping)
            col = theta_big.samples[:, j:j + 1]
            states = exp_march_linear(real.a, real.b, col, theta_big.dt)
            memory[:, j] = (col @ real.d.T + states @ real.c.T)[:, 0]
        if np.any(memory != 0):
            rho_eta = rho_eta + antiderivative(theta_big.with_samples(memory)).samples
        return rho_eta / coeff["rho0"][None, :]

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
            calls.append(r.key())
            return realize_state_space(r)

        monkeypatch.setattr(models, "realize_state_space", counting)
        got = compute_entropy(law, *fields).samples
        distinct = {law.cell(j).theta_damping.key() for j in range(6)}
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
    def test_matrix_blocks_round_trip(self):
        law = assemble_material_law(ModelSpec(ModelFamily.CUSTOM, {
            "rho0": 1.0, "nu": 1.0, "C": 1.0, "Gamma": 0.0,
            "a0": np.diag([1.0, 0.0]),
            "a2": RationalMatrixFunction.constant(np.diag([0.0, 1.0]))}))
        assert law.block_dims == (1, 1, 1, 2)
        mass = law.cells[0].mass()
        assert mass.shape == (5, 5)
        assert np.max(np.abs(mass - mass.conj().T)) == 0.0

    @pytest.mark.filterwarnings("error")
    def test_complex_higher_term_keeps_imaginary_part(self):
        # a real constant term and a complex z term: the zero-order block is complex
        a2 = RationalMatrixFunction((np.eye(2), np.array([[0, -0.5j], [-0.5j, -1j]])), [1, 0.5])
        law = assemble_material_law(ModelSpec(ModelFamily.CUSTOM, {
            "rho0": 1.0, "nu": 1.0, "C": 1.0, "Gamma": 0.0, "a2": a2}))
        num = law.cells[0].dissipation().num
        np.testing.assert_array_equal(num[1][3:, 3:], a2.num[1])
        assert np.any(num[1].imag)

    def test_custom_requires_positive_density(self):
        with pytest.raises(InputError):
            assemble_material_law(ModelSpec(ModelFamily.CUSTOM, {
                "rho0": -1.0, "nu": 1.0, "C": 1.0, "Gamma": 0.0}))
