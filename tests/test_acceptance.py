"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.  Every tolerance is pinned here; nothing is
calibrated at runtime.
"""

import io
import time
from pathlib import Path

import numpy as np

from conftest import (
    ALL_FAMILIES,
    NEGATED_COEFFS,
    apply_symbol_fl,
    cell_order,
    from_band,
    make_probe,
    negated_law,
    random_smooth,
    uncoupled_law,
    validate_realization,
    verify_skew_adjoint,
)
from thermoevo import (
    BACKWARD_EULER,
    TRAPEZOIDAL,
    EvolutionProblem,
    Grid1D,
    ModelFamily,
    ModelSpec,
    RationalMatrixFunction,
    Trajectory,
    WeightedSignal,
    antiderivative,
    assemble_forcing,
    assemble_material_law,
    build_operators,
    canonical_spec,
    causality_test,
    check_condition_rho,
    certify_wellposedness,
    compare,
    energy_functional,
    realize_state_space,
    solution_bound_check,
    solve,
    spectral_solve,
    time_grid,
    weighted_norm,
)
from thermoevo import models
from thermoevo._integrators import exp_march_linear
from thermoevo.cli import RunConfig, run
from thermoevo.evolution import skew_band

GOLDEN = Path(__file__).parent / "data" / "golden_patterns.txt"


def report(criterion: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed <= budget else "FAIL"
    print(f"[acceptance] {criterion}: {status} ({detail}; {elapsed:.2f}s of {budget:.0f}s budget)")
    assert ok, detail
    assert elapsed <= budget, f"runtime {elapsed:.2f}s exceeds {budget}s budget"


def test_criterion_01_zero_pattern_fidelity():
    tic = time.time()
    stream = io.StringIO()
    config = RunConfig.from_dict({}, "patterns", all_families=True)
    status = run(config, stream)
    text = stream.getvalue()
    golden = GOLDEN.read_text()
    ok = status == 0 and text == golden
    report("criterion 1 zero-pattern fidelity", ok,
           f"{text.count('family:')} star tables vs golden file", time.time() - tic, 1.0)


def test_criterion_02_causal_integration_norm_bound():
    tic = time.time()
    rng = np.random.default_rng(42)
    t = 2**-8 * np.arange(int(8 / 2**-8) + 1)
    worst_margin = np.inf
    for rho in (1.0, 2.0, 5.0):
        for _ in range(50):
            f = random_smooth(rng, t, rho)
            lhs = weighted_norm(antiderivative(f))
            rhs = weighted_norm(f) / rho * (1.0 + 10.0 * f.dt)
            worst_margin = min(worst_margin, rhs - lhs)
    bound_ok = worst_margin >= 0.0

    # near-optimizer: unweighting a wide Gaussian concentrates the spectrum
    # at zero frequency where the integration gain attains 1/rho
    rho = 1.0
    dt = 2**-6
    t_opt = dt * np.arange(int(64 / dt) + 1)
    gauss = np.exp(-(((t_opt - 32.0) / 8.0) ** 2))
    f_opt = WeightedSignal(t_opt, np.exp(rho * t_opt) * gauss, rho)
    ratio = weighted_norm(antiderivative(f_opt)) / weighted_norm(f_opt)
    ratio_ok = abs(ratio - 1.0 / rho) <= 0.02 / rho

    report("criterion 2 integration operator norm", bound_ok and ratio_ok,
           f"min slack {worst_margin:.2e}, optimizer ratio {ratio:.4f}",
           time.time() - tic, 5.0)


def test_criterion_03_wellposedness_verdicts():
    tic = time.time()
    satisfied = all(
        certify_wellposedness(assemble_material_law(canonical_spec(f))).verdict == "satisfied"
        for f in ALL_FAMILIES
    )
    violated = all(
        certify_wellposedness(negated_law(f)).verdict == "violated" and
        len(certify_wellposedness(negated_law(f)).witnesses) > 0
        for f in NEGATED_COEFFS
    )
    unit = assemble_material_law(ModelSpec(ModelFamily.CLASSICAL, {
        "rho0": 1.0, "nu": 1.0, "C": 1.0, "Gamma": 0.0, "kappa": 1.0}))
    closed_form = all(
        abs(check_condition_rho(unit, rho)[0] - min(rho, 1.0)) <= 1e-12
        for rho in (0.05, 0.5, 1.0, 3.0, 50.0)
    )
    report("criterion 3 well-posedness verdicts", satisfied and violated and closed_form,
           f"8 satisfied, {len(NEGATED_COEFFS)} negated violated, closed form matched",
           time.time() - tic, 10.0)


def test_criterion_04_congruence_identity():
    tic = time.time()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        spec = ModelSpec(ModelFamily.GREEN_LINDSAY, {
            "rho0": rng.uniform(0.5, 2.0), "C": rng.uniform(0.5, 2.0),
            "Gamma": rng.uniform(-1.5, 1.5), "kappa": rng.uniform(0.5, 2.0),
            "n0": rng.uniform(0.2, 2.0), "b": rng.uniform(-1.5, 1.5),
            "d": rng.uniform(-2.0, 2.0), "h": rng.uniform(0.3, 2.0)})
        cell = assemble_material_law(spec).cells[0]
        (lmat,), (core,) = models._congruence([cell])
        err = np.max(np.abs(lmat.conj().T @ core @ lmat - cell.mass()))
        worst = max(worst, err / np.max(np.abs(cell.mass())))
    report("criterion 4 congruence identity", worst <= 1e-12,
           f"worst relative defect {worst:.2e} over 100 draws", time.time() - tic, 2.0)


def test_criterion_05_realization_fidelity():
    tic = time.time()
    probe = make_probe()
    worst = 0.0
    for family in ALL_FAMILIES:
        cell = uncoupled_law(family).cells[0]
        for r in (cell.theta_damping, cell.flux_resistance):
            worst = max(worst, validate_realization(r, realize_state_space(r), probe))
    fidelity_ok = worst <= 1e-5

    # frequency-domain vs time-domain path for the constant laws
    const_worst = 0.0
    for kappa in (1.0, 2.0):
        r = RationalMatrixFunction.constant(1.0 / kappa)
        real = realize_state_space(r)
        states = exp_march_linear(real.a, real.b, probe.samples, probe.dt)
        direct = probe.samples @ real.d.T + states @ real.c.T
        spectral = apply_symbol_fl(r, probe).samples
        const_worst = max(const_worst,
                          float(np.max(np.abs(direct - spectral))
                                / np.max(np.abs(spectral))))
    report("criterion 5 realization fidelity", fidelity_ok and const_worst <= 1e-6,
           f"catalog worst {worst:.2e}, constant-path worst {const_worst:.2e}",
           time.time() - tic, 10.0)


def test_criterion_06_solver_vs_oracle():
    tic = time.time()
    families = [ModelFamily.CLASSICAL, ModelFamily.LORD_SHULMAN,
                ModelFamily.GREEN_NAGHDI_II, ModelFamily.GREEN_NAGHDI_III,
                ModelFamily.DPL_I]
    op = build_operators(Grid1D(1.0, 64))
    dt_fine = 2**-10
    t_fine = time_grid(0.5, dt_fine)
    details = []
    ok = True
    for family in families:
        law = uncoupled_law(family)
        forcing_fine = assemble_forcing(op, t_fine, 1.0, "gaussian_pulse", "h",
                                        "mode_1", center=0.1, width=0.03)
        base = EvolutionProblem(law, op, forcing_fine, BACKWARD_EULER)
        reference = spectral_solve(base)
        for scheme, min_order, tag in ((BACKWARD_EULER, 0.9, "be"),
                                       (TRAPEZOIDAL, 1.9, "tr")):
            errors = []
            for stride in (4, 2, 1):
                t = t_fine[::stride]
                problem = EvolutionProblem(
                    law, op, WeightedSignal(t, forcing_fine.samples[::stride], 1.0),
                    scheme)
                sub = Trajectory(problem, reference.states[::stride],
                                 reference.aux[::stride])
                errors.append(compare(solve(problem), sub).overall)
            orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
            if errors[-1] > 1e-2 or np.any(orders < min_order):
                ok = False
            details.append(f"{family.value}/{tag}: err {errors[-1]:.1e} "
                           f"order {np.min(orders):.2f}")
    report("criterion 6 solver vs oracle", ok, "; ".join(details),
           time.time() - tic, 120.0)


def test_criterion_07_causality():
    tic = time.time()
    law = assemble_material_law(canonical_spec(ModelFamily.LORD_SHULMAN))
    op = build_operators(Grid1D(1.0, 16))
    t = time_grid(2.0, 2**-8)
    forcing = assemble_forcing(op, t, 1.0, "delayed_step", "h", "bump", delay=0.5)
    marching = [causality_test(EvolutionProblem(law, op, forcing, scheme), 0.5)
                for scheme in (BACKWARD_EULER, TRAPEZOIDAL)]
    marching_ok = all((not r.skipped) and r.leakage == 0.0 for r in marching)

    # frequency-domain path on the scalar relaxed flux law
    sym = RationalMatrixFunction((np.zeros((1, 1)), np.eye(1)), np.array([1.0, 1.0]))
    ts = 2**-10 * np.arange(int(6 / 2**-10) + 1)
    x = (ts - 2.0) / 0.7
    samples = np.zeros_like(ts)
    inside = np.abs(x) < 1.0
    samples[inside] = np.exp(-1.0 / (1.0 - x[inside] ** 2))
    out = apply_symbol_fl(sym, WeightedSignal(ts, samples, 1.0))
    leak = float(np.max(np.abs(out.samples[ts < 1.3 - 2**-9]))
                 / np.max(np.abs(out.samples)))
    laplace_ok = leak <= 1e-6
    report("criterion 7 causality", marching_ok and laplace_ok,
           f"marching leakage 0, frequency-path leakage {leak:.1e}",
           time.time() - tic, 10.0)


def test_criterion_08_a_priori_bound():
    tic = time.time()
    op = build_operators(Grid1D(1.0, 32))
    t = time_grid(4.0, 2**-9)
    details = []
    ok = True
    for family in ALL_FAMILIES:
        law = assemble_material_law(canonical_spec(family))
        report_wp = certify_wellposedness(law)
        if report_wp.verdict != "satisfied":
            ok = False
            details.append(f"{family.value}: verdict {report_wp.verdict}")
            continue
        forcing = assemble_forcing(op, t, 4.0, "gaussian_pulse", "h", "bump",
                                   center=0.2, width=0.05)
        problem = EvolutionProblem(law, op, forcing, BACKWARD_EULER)
        result = solution_bound_check(problem, report_wp)
        margin = result.rhs * 1.05 - result.lhs
        if not (result.window_ok and margin >= 0.0):
            ok = False
        details.append(f"{family.value}: lhs/rhs {result.lhs / result.rhs:.3f}")
    report("criterion 8 a-priori bound", ok, "; ".join(details),
           time.time() - tic, 60.0)


def test_criterion_09_energy_laws():
    tic = time.time()
    dt = 2**-9
    t_cut = 0.5
    t_max = t_cut + 1100 * dt  # more than 1000 steps after the cutoff
    op = build_operators(Grid1D(1.0, 16))
    t = time_grid(t_max, dt)

    def cutoff_problem(law, scheme):
        forcing = assemble_forcing(op, t, 1.0, "gaussian_pulse", "h", "bump",
                                   center=0.25, width=0.05)
        samples = forcing.samples.copy()
        samples[t > t_cut] = 0.0
        return EvolutionProblem(law, op, WeightedSignal(t, samples, 1.0), scheme)

    gn2 = cutoff_problem(assemble_material_law(canonical_spec(ModelFamily.GREEN_NAGHDI_II)),
                         TRAPEZOIDAL)
    energy = energy_functional(solve(gn2))
    start = np.searchsorted(t, t_cut) + 1
    drift = float(np.max(np.abs(energy[start:] - energy[start])) / energy[start])
    conservation_ok = drift <= 1e-8

    monotone_ok = True
    for family in (ModelFamily.LORD_SHULMAN, ModelFamily.CLASSICAL):
        problem = cutoff_problem(assemble_material_law(canonical_spec(family)),
                                 BACKWARD_EULER)
        e = energy_functional(solve(problem))
        increases = np.diff(e[start:])
        if not np.all(increases <= 64 * np.finfo(float).eps * np.max(e)):
            monotone_ok = False
    report("criterion 9 energy laws", conservation_ok and monotone_ok,
           f"conservative drift {drift:.1e} over {t[start:].size} steps, "
           "dissipative monotone per step", time.time() - tic, 60.0)


def test_criterion_10_skew_adjointness():
    tic = time.time()
    ok = True
    worst_pairing = 0.0
    for n_cells in (2, 64, 256):
        op = build_operators(Grid1D(1.0, n_cells))
        a_h = from_band(skew_band(op), cell_order(op))  # the time stepper's own entries
        if (a_h + a_h.T).nnz != 0:
            ok = False
        worst_pairing = max(worst_pairing, verify_skew_adjoint(a_h, n_pairs=100))
    report("criterion 10 skew-adjointness", ok and worst_pairing <= 1e-12,
           f"exact antisymmetry, pairing residual {worst_pairing:.1e}",
           time.time() - tic, 10.0)
