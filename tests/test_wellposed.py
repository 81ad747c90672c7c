import json

import numpy as np
import numpy.polynomial.polynomial as P
import pytest

from conftest import (
    ALL_FAMILIES,
    NEGATED_COEFFS,
    cell_mass,
    cell_parts,
    certify_per_cell,
    classify_per_cell,
    condition_rho_per_cell,
    dense_line_minimum,
    full_symbol,
    horner_per_point,
    negated_law,
    per_cell_law,
    refined_line_minimum,
    simple_real_roots,
    spec_with,
)
from thermoevo import (
    EvolutionProblem,
    Grid1D,
    MaterialLaw,
    ModelFamily,
    ModelSpec,
    RationalFunction,
    assemble_forcing,
    assemble_material_law,
    build_operators,
    canonical_spec,
    check_condition_rho,
    check_symbol_boundary,
    certify_wellposedness,
    solution_bound_check,
    solve,
    rational,
    time_grid,
    wellposed,
)
from thermoevo.errors import InputError, RealizationError


def unit_classical(gamma=0.0):
    return assemble_material_law(ModelSpec(ModelFamily.CLASSICAL, {
        "rho0": 1.0, "nu": 1.0, "C": 1.0, "Gamma": gamma, "kappa": 1.0}))


class TestConditionRho:
    @pytest.mark.parametrize("rho", [0.05, 0.25, 1.0, 4.0, 100.0])
    def test_unit_classical_closed_form(self, rho):
        # the matrix is diag(rho, rho, rho, 1); the dense eigensolver must
        # reproduce min(rho, 1) exactly
        min_eig, witness = check_condition_rho(unit_classical(), rho)
        assert min_eig == pytest.approx(min(rho, 1.0), abs=1e-12)
        assert witness.cell == 0
        assert witness.eigenvector.shape == (4,)

    def test_imaginary_resistance_never_positive(self):
        # Re a2(0) = 0 where the inertia vanishes: the condition matrix has a
        # zero q-row for every rho
        law = assemble_material_law(ModelSpec(ModelFamily.CUSTOM, {
            "rho0": 1.0, "nu": 1.0, "C": 1.0, "Gamma": 0.0, "a2": 0.0}))
        for rho in np.geomspace(1e-3, 1e6, 10):
            min_eig, _ = check_condition_rho(law, rho)
            assert min_eig <= 1e-14
        assert certify_wellposedness(law).verdict == "violated"

    def test_relaxed_flux_positive_for_moderate_rho(self):
        law = assemble_material_law(ModelSpec(ModelFamily.LORD_SHULMAN, {
            "rho0": 1.0, "nu": 1.0, "C": 1.0, "Gamma": 0.5, "kappa": 1.0, "a0": 1.0}))
        for rho in (1.0, 2.0, 10.0):
            min_eig, _ = check_condition_rho(law, rho)
            assert min_eig > 0.0

    def test_rejects_nonpositive_rho(self):
        with pytest.raises(InputError):
            check_condition_rho(unit_classical(), 0.0)

    @pytest.mark.parametrize("rho", [np.nan, np.inf])
    def test_rejects_non_finite_rho(self, rho):
        with pytest.raises(InputError, match="positive and finite"):
            check_condition_rho(unit_classical(), rho)


def custom_law(**coefficients):
    """Custom law with unit density, stiffness and heat capacity, uncoupled,
    plus ``coefficients``."""
    return assemble_material_law(ModelSpec(ModelFamily.CUSTOM, dict(
        {"rho0": 1.0, "nu": 1.0, "C": 1.0, "Gamma": 0.0}, **coefficients)))


class TestSymbolBoundary:
    def test_identity_bounded_below_by_rho0(self):
        assert check_symbol_boundary(custom_law(a0=1.0), 1.0) >= 1.0  # M(z) = I

    def test_sign_flip_detected(self):
        # a negative temperature damping a1 = -2 makes rho0 M(0) + Re M1 = 1 - 2
        # on the temperature row: a finite negative minimum, not a guard
        assert check_symbol_boundary(custom_law(a0=1.0, a1=-2.0), 1.0) < 0.0

    def test_unit_classical_positive(self):
        min_eig = check_symbol_boundary(unit_classical(), 1.0)
        assert min_eig > 0.0
        # consistency with the rational simplification at large rho: the
        # boundary values approach rho*M(0) + Re M'(0) as |z| -> 0
        cond, _ = check_condition_rho(unit_classical(), 1.0)
        assert min_eig == pytest.approx(min(cond, 1.0), rel=1e-6)

    def test_hermitian_part_identity(self):
        # for this block structure the bounded quantity collapses to
        # rho * M0 + Herm(M1(z)): verify the literal evaluation against that
        # closed form at a z-dependent law
        law = assemble_material_law(canonical_spec(ModelFamily.GREEN_NAGHDI_III))
        for t, rho in ((0.0, 1.5), (2.7, 1.03), (40.0, 2.0)):
            z_inv = 1j * t + rho
            value = z_inv * full_symbol(law, 0, 1.0 / z_inv)
            herm = 0.5 * (value + value.conj().T)
            want = (rho * cell_mass(law, 0)).astype(complex)
            for block, part in zip((2, 3), cell_parts(law, 0)):
                want[block, block] += horner_per_point(part, 1.0 / z_inv).real
            assert np.max(np.abs(herm - want)) <= 1e-12 * np.max(np.abs(want))


def one_cell_law(law, j):
    """Cell j of ``law`` as a law of its own."""
    cell = slice(j, j + 1)
    return MaterialLaw(law.family, law.rho0[cell], law.C[cell], law.Gamma[cell], law.nu[cell],
                       law.zeta0[cell], law.a0[cell], law.n0[cell],
                       law.a1, law.a1_index[cell], law.a2, law.a2_index[cell])


def least_one_cell_constant(law, rho0):
    """The least constant of the one-cell laws of ``law``'s cells."""
    return min(check_symbol_boundary(one_cell_law(law, j), rho0) for j in range(law.n_cells))


class TestBatchedSymbolBoundary:
    LAWS = {family.value: canonical_spec(family) for family in ALL_FAMILIES}
    LAWS["dpl_i_per_cell"] = spec_with(ModelFamily.DPL_I, C=[0.9, 1.1, 1.2],
                                       kappa=[0.5, 1.3, 2.0])

    @pytest.mark.parametrize("name", sorted(LAWS))
    @pytest.mark.parametrize("rho0", [0.3, 1.0, 4.0])
    def test_bitwise_equal_to_per_shell_loop(self, name, rho0):
        law = assemble_material_law(self.LAWS[name])
        got, want = check_symbol_boundary(law, rho0), least_one_cell_constant(law, rho0)
        assert got == want
        assert np.signbit(got) == np.signbit(want)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_per_cell_law_equals_least_cell(self, family):
        law = per_cell_law(family)
        for rho0 in (0.3, 1.0, 4.0):
            assert check_symbol_boundary(law, rho0) == least_one_cell_constant(law, rho0)

    def test_negated_law_negative(self):
        law = negated_law(ModelFamily.DPL_I)
        got = check_symbol_boundary(law, 1.0)
        assert got == least_one_cell_constant(law, 1.0)
        assert got < 0.0

    def test_repeated_bound_check_evaluates_once(self, monkeypatch):
        # the march realizes every part of the law, and the law keeps its
        # realizations: the bound checks realize nothing again
        law = assemble_material_law(spec_with(ModelFamily.DPL_I, C=[0.95, 1.05, 1.15, 0.85],
                                              kappa=[0.6, 1.7, 1.1, 0.9]))
        op = build_operators(Grid1D(1.0, 4))
        t = time_grid(0.25, 2**-6)
        forcing = assemble_forcing(op, t, 1.0, "gaussian_pulse", "f", "bump",
                                   center=0.05, width=0.02)
        report = certify_wellposedness(law)
        problem = EvolutionProblem(law, op, forcing)
        trajectory = solve(problem)

        calls = []

        def counting(*args):
            calls.append(args)
            return realize(*args)

        realize = rational._realize
        monkeypatch.setattr(rational, "_realize", counting)
        first = solution_bound_check(problem, report, trajectory)
        problem = EvolutionProblem(law, op, forcing, "trapezoidal")
        second = solution_bound_check(problem, report, solve(problem))
        assert calls == []
        assert second.c_used == first.c_used


def pole_at_two():
    """Custom law whose flux resistance 1 / (1 - 2z) has its pole at s = 2."""
    return assemble_material_law(ModelSpec(ModelFamily.CUSTOM, {
        "rho0": 1.0, "nu": 1.0, "C": 1.0, "Gamma": 0.0,
        "a2": RationalFunction([1.0], [1.0, -2.0])}))


def custom_resistance(a2):
    return assemble_material_law(ModelSpec(ModelFamily.CUSTOM, {
        "rho0": 1.0, "nu": 1.0, "C": 1.0, "Gamma": 0.0, "a2": a2}))


class TestLineConstant:
    LAWS = TestBatchedSymbolBoundary.LAWS

    @pytest.mark.parametrize("name", sorted(LAWS))
    @pytest.mark.parametrize("rho0", [0.3, 1.0, 4.0])
    def test_matches_dense_line(self, name, rho0):
        law = assemble_material_law(self.LAWS[name])
        want = dense_line_minimum(law, rho0)
        got = check_symbol_boundary(law, rho0)
        assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("make_a2, error, message", [
        (lambda: RationalFunction([1.0, 1j], [1.0]), InputError, "numerator must be"),
        (lambda: RationalFunction([1.0], [1.0, 0.2, 1.0]), RealizationError, "complex pole")],
        ids=["complex_coefficient", "complex_pole_pair"])
    def test_complex_part_rejected(self, make_a2, error, message):
        # the march takes real laws with real poles only, and so does the
        # bound: a complex coefficient is refused when the law is built, a
        # complex pole pair when the part is realized
        with pytest.raises(error, match=message):
            check_symbol_boundary(custom_resistance(make_a2()), 1.0)

    @pytest.mark.parametrize("rho0", [np.nan, np.inf, 0.0])
    def test_rejects_non_finite_or_nonpositive_weight(self, rho0):
        law = assemble_material_law(canonical_spec(ModelFamily.DPL_I))
        with pytest.raises(InputError, match="positive and finite"):
            check_symbol_boundary(law, rho0)

    @pytest.mark.filterwarnings("error")
    def test_rejects_weight_whose_line_overflows(self):
        # rho0 M(0) has the entry rho0 * (1 + Gamma^2 / nu) = 1.25 rho0
        law = assemble_material_law(canonical_spec(ModelFamily.LORD_SHULMAN))
        with pytest.raises(InputError, match=r"rho0=1\.7e\+308 is too large"):
            check_symbol_boundary(law, 1.7e308)
        assert np.isfinite(check_symbol_boundary(law, 1e305))

    def test_pole_inside_half_plane_unbounded(self):
        law = pole_at_two()
        assert check_symbol_boundary(law, 1.0) == -np.inf
        assert check_symbol_boundary(law, 2.0) == -np.inf
        min_eig = check_symbol_boundary(law, 3.0)
        assert np.isfinite(min_eig) and min_eig > 0.0

    def test_indefinite_value_at_zero_unbounded(self):
        assert check_symbol_boundary(custom_law(a0=-1.0), 1.0) == -np.inf


def from_partial_fractions(d, poles, residues):
    """The scalar law d + sum_k r_k / (1/z - p_k), over the denominator
    prod_k (1 - p_k z)."""
    den = P.polyfromroots(1.0 / np.asarray(poles)) * np.prod(-np.asarray(poles))
    num = d * den
    for k, r in enumerate(residues):
        rest = np.delete(np.asarray(poles), k)
        num = P.polyadd(num, r * P.polymulx(P.polyfromroots(1.0 / rest) * np.prod(-rest)))
    return RationalFunction(num, den)


class TestClosedFormConstant:
    #: a2 = (0.27 - 0.98 z) / (0.3496 + 1.75 z + z^2): poles s = -0.658 and
    #: -4.35 with residues of both signs, so Re a2 on the line is least at
    #: a stationary point between t = 0 and t = inf, which samples can miss
    TWO_POLE = RationalFunction([0.27, -0.98], [0.3496, 1.75, 1.0])

    def test_two_pole_law_not_above_dense_line(self):
        law = custom_law(a0=1.0, a2=self.TWO_POLE)
        got = check_symbol_boundary(law, 1.0)
        assert got <= dense_line_minimum(law, 1.0)
        assert got == pytest.approx(refined_line_minimum(law, 1.0), rel=1e-12)
        assert certify_wellposedness(law).verdict == "satisfied"

    def test_realizable_laws_bounded_by_line(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        residue = st.floats(0.1, 3.0) | st.floats(-3.0, -0.1)

        @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
        @hypothesis.given(roots_a1=simple_real_roots(0, 2), roots_a2=simple_real_roots(1, 3),
                          residues=st.lists(residue, min_size=5, max_size=5),
                          feed=st.lists(st.floats(0.0, 2.0), min_size=2, max_size=2),
                          gamma=st.floats(-1.0, 1.0), zeta0=st.just(0.0) | st.floats(-1.0, 1.0),
                          inertia=st.floats(0.2, 2.0), offset=st.floats(0.1, 3.0))
        def check(roots_a1, roots_a2, residues, feed, gamma, zeta0, inertia, offset):
            # poles 1/root in s, with residues of both signs where a part has two
            poles = [1.0 / np.asarray(roots_a1), 1.0 / np.asarray(roots_a2)]
            residues = [residues[:len(roots_a1)], residues[2:2 + len(roots_a2)]]
            for r in residues:
                if len(r) > 1:
                    r[-1] = -np.sign(r[0]) * abs(r[-1])
            parts = [from_partial_fractions(d, p, r) if len(p) else d
                     for d, p, r in zip(feed, poles, residues)]
            law = custom_law(Gamma=gamma, zeta0=zeta0, a0=inertia, a1=parts[0], a2=parts[1])
            # rho0 above the largest pole by a share of its size: a pole p near
            # rho0 enters the line through 1 / (rho0 - p), which magnifies the
            # rounding of the realized p by |p| / (rho0 - p)
            top = max(0.0, *poles[0], *poles[1])
            rho0 = top + offset * max(1.0, top)
            got = check_symbol_boundary(law, rho0)
            scale = max(1.0, abs(got))
            assert got <= dense_line_minimum(law, rho0) + 1e-12 * scale
            if zeta0 == 0.0 or not len(roots_a1):
                # a1 and a2 uncoupled in M(0), or a1 constant: the bound is the
                # infimum, which the dense line can miss by 1e-6 at a sharp minimum
                assert abs(got - refined_line_minimum(law, rho0)) <= 1e-12 * scale

        check()


class TestCertification:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_catalog_satisfied(self, family):
        report = certify_wellposedness(assemble_material_law(canonical_spec(family)))
        assert report.verdict == "satisfied"
        assert report.c_estimate > 0.0
        assert np.isfinite(report.rho_min)
        assert report.witnesses == ()

    @pytest.mark.parametrize("family", sorted(NEGATED_COEFFS, key=lambda f: f.value))
    def test_negated_hypotheses_violated(self, family):
        report = certify_wellposedness(negated_law(family))
        assert report.verdict == "violated"
        assert len(report.witnesses) >= 1
        assert report.witnesses[0].eigenvalue < 0.0

    def test_two_lag_sign_condition(self):
        # opposite-sign lags make the resistance at zero negative definite
        report = certify_wellposedness(assemble_material_law(
            spec_with(ModelFamily.DPL_I, n1=1.0, n2=-1.0)))
        assert report.verdict == "violated"
        assert report.witnesses[0].eigenvalue == pytest.approx(-1.0, abs=1e-12)

    def test_partial_inertia_toy(self):
        # inertia in one cell, resistance where the inertia vanishes
        law = assemble_material_law(ModelSpec(ModelFamily.CUSTOM, {
            "rho0": 1.0, "nu": 1.0, "C": 1.0, "Gamma": 0.0,
            "a0": [1.0, 0.0], "a2": [0.0, 1.0]}))
        assert certify_wellposedness(law).verdict == "satisfied"

    def test_singular_heat_capacity_inconclusive(self):
        law = assemble_material_law(ModelSpec(ModelFamily.CUSTOM, {
            "rho0": 1.0, "nu": 0.0, "C": 1.0, "Gamma": 0.0,
            "a0": 1.0, "a2": 1.0}))
        assert certify_wellposedness(law).verdict == "inconclusive"

    def test_consistency_with_condition_rho(self):
        for family in ALL_FAMILIES:
            law = assemble_material_law(canonical_spec(family))
            report = certify_wellposedness(law)
            for rho in np.geomspace(report.rho_min, 1e4, 6):
                assert check_condition_rho(law, rho)[0] > 0.0

    def test_congruence_invariance(self, rng):
        # verdict and classification depend only on the diagonal core data,
        # not on the triangular coupling entries
        for _ in range(10):
            base = {"rho0": 1.3, "nu": 0.8, "C": 2.0, "a0": 0.6, "a2": 1.5}
            verdicts = set()
            classifications = set()
            for _ in range(3):
                law = assemble_material_law(ModelSpec(ModelFamily.CUSTOM, {
                    **base,
                    "Gamma": rng.uniform(-2.0, 2.0),
                    "zeta0": rng.uniform(-2.0, 2.0)}))
                report = certify_wellposedness(law)
                verdicts.add(report.verdict)
                classifications.add(report.classification)
            assert len(verdicts) == 1
            assert len(classifications) == 1

    def test_report_json_schema(self):
        report = certify_wellposedness(negated_law(ModelFamily.DPL_I))
        payload = json.loads(report.to_json())
        assert list(payload) == ["verdict", "c_estimate", "rho_min",
                                 "classification", "witnesses", "checks_run"]
        assert payload["verdict"] == "violated"
        assert payload["rho_min"] == float("inf")
        witness = payload["witnesses"][0]
        assert list(witness) == ["cell", "eigenvalue", "eigenvector"]

    def test_rho_min_above_poles(self):
        # the law is analytic only for Re s > 2: the search starts above it
        report = certify_wellposedness(pole_at_two())
        assert report.verdict == "satisfied"
        grid = wellposed._rho_grid()
        assert report.rho_min == grid[grid > 2.0][0]

    def test_verdict_fields_consistent(self):
        report = certify_wellposedness(unit_classical(gamma=0.5))
        assert report.verdict == "satisfied"
        assert report.c_estimate > 0.0 and np.isfinite(report.rho_min)


#: heterogeneous per-cell laws with violated cells: one cell; two cells
#: failing different checks; two cells tied on one eigenvalue, in one check
#: and across two checks (the later check in the earlier cell)
VIOLATED_PER_CELL = {
    "one_cell": (ModelFamily.DPL_I, {"C": [1.0, 0.9, 1.1, 1.2], "Gamma": 0.5,
                                     "kappa": [1.0, 1.3, 0.7, 2.0],
                                     "n2": [0.25, -0.25, 0.3, 0.2]}),
    "two_checks": (ModelFamily.LORD_SHULMAN, {"a0": [1.0, -1.0, 0.0, 0.5],
                                              "kappa": [1.0, 1.0, -2.0, 1.0]}),
    "tie": (ModelFamily.LORD_SHULMAN, {"a0": [-1.0, 1.0, -1.0, 1.0]}),
    "tie_across_checks": (ModelFamily.LORD_SHULMAN, {"a0": [0.0, -1.0, 1.0, 1.0],
                                                     "kappa": [-1.0, 1.0, 1.0, 1.0]}),
}

STACKED_LAWS = {f"{family.value}_per_cell": (lambda f=family: per_cell_law(f))
                for family in ALL_FAMILIES}
STACKED_LAWS.update({
    f"violated_{name}": (lambda f=f, c=c: assemble_material_law(spec_with(f, **c)))
    for name, (f, c) in VIOLATED_PER_CELL.items()})


class TestStackedAgainstPerCell:
    @pytest.mark.parametrize("name", sorted(STACKED_LAWS))
    def test_report_bytes_and_witness_order(self, name):
        law = STACKED_LAWS[name]()
        got, want = certify_wellposedness(law), certify_per_cell(law)
        assert got.to_json() == want.to_json()
        assert [w.cell for w in got.witnesses] == [w.cell for w in want.witnesses]
        if name.startswith("violated"):
            assert got.verdict == "violated"

    @pytest.mark.parametrize("name, cells", [("violated_tie", [0, 2]),
                                             ("violated_tie_across_checks", [0, 1])])
    def test_tied_witnesses_keep_cell_order(self, name, cells):
        report = certify_wellposedness(STACKED_LAWS[name]())
        assert [w.cell for w in report.witnesses] == cells
        assert len({w.eigenvalue for w in report.witnesses}) == 1

    @pytest.mark.parametrize("name", sorted(STACKED_LAWS))
    def test_condition_threshold_and_classification(self, name):
        law = STACKED_LAWS[name]()
        for rho in (0.01, 1.0, 30.0):
            got_eig, got = check_condition_rho(law, rho)
            want_eig, want = condition_rho_per_cell(law, rho)
            assert (got_eig, got.cell) == (want_eig, want.cell)
            assert np.array_equal(got.eigenvector, want.eigenvector)
        assert law.classification == classify_per_cell(law)

    def test_mass_built_at_most_once_per_cell(self, monkeypatch, rng):
        law = assemble_material_law(spec_with(ModelFamily.DPL_I,
                                              C=rng.uniform(0.8, 1.25, 64).tolist(),
                                              kappa=rng.uniform(0.5, 2.0, 64).tolist()))
        # the blocks are built once, with the law (its classification reads
        # them): certification and the bound build none again
        mass, calls = MaterialLaw.__dict__["mass"], []
        build = mass.func

        def counting(law):
            calls.append(law)
            return build(law)

        monkeypatch.setattr(mass, "func", counting)
        assert certify_wellposedness(law).verdict == "satisfied"
        assert np.isfinite(check_symbol_boundary(law, 1.0))
        assert calls == []
        assert law.mass.shape == (law.n_cells, 4, 4)


class TestCancelledFactors:
    """(1 - 2z) / (1 - 2z) is the constant 1: its denominator root is no pole."""

    CANCELLED = RationalFunction([1.0, -2.0], [1.0, -2.0])

    def test_certified_like_the_constant(self):
        got = certify_wellposedness(custom_resistance(self.CANCELLED))
        want = certify_wellposedness(custom_resistance(1.0))
        assert got.rho_min == want.rho_min == wellposed.RHO_RANGE[0]
        assert got.c_estimate == pytest.approx(want.c_estimate, rel=1e-12)

    def test_boundary_constant_finite(self):
        got = check_symbol_boundary(custom_resistance(self.CANCELLED), 1.0)
        want = check_symbol_boundary(custom_resistance(1.0), 1.0)
        assert np.isfinite(got)
        assert got == pytest.approx(want, rel=1e-12)
