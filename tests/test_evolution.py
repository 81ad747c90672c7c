import os
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from conftest import (ALL_FAMILIES, apply_symbol_fl, band_of, bandwidth, bound_numbers_whole,
                      cell_order, displacement_two_branch, from_band, leakage_whole,
                      congruence_factor, march_realization, march_two_branch, mass_matrix_lil,
                      operators_per_cell, per_cell_law,
                      sampled_forcing, simpson_weights, skew_operator, spec_with,
                      two_branch_system, uncoupled_law, weighted_norm_whole)
from thermoevo import (
    BACKWARD_EULER,
    TRAPEZOIDAL,
    EvolutionProblem,
    Forcing,
    Grid1D,
    ModelFamily,
    ModelSpec,
    RationalFunction,
    Trajectory,
    WeightedSignal,
    assemble_forcing,
    assemble_material_law,
    build_operators,
    canonical_spec,
    causality_test,
    certify_wellposedness,
    check_symbol_boundary,
    energy_functional,
    realize_state_space,
    solution_bound_check,
    solve,
    spectral_solve,
    step_implicit,
    time_grid,
)
from thermoevo import _lapack, evolution, rational, signals
from thermoevo.errors import ArtifactWriteError, InputError, SingularSystemError
from thermoevo.forcing import gaussian_pulse


def pulse_problem(law, n_cells=16, dt=2**-9, t_max=1.0, rho=1.0,
                  scheme=BACKWARD_EULER, block="h", profile="bump",
                  center=0.25, width=0.05):
    op = build_operators(Grid1D(1.0, n_cells))
    t = time_grid(t_max, dt)
    forcing = assemble_forcing(op, t, rho, "gaussian_pulse", block, profile,
                               center=center, width=width)
    return EvolutionProblem(law, op, forcing, scheme)


def cutoff_forcing(problem, t_cut):
    amplitudes = problem.forcing.amplitudes
    samples = amplitudes.samples.copy()
    samples[amplitudes.t > t_cut] = 0.0
    forcing = Forcing(amplitudes.with_samples(samples), problem.forcing.profiles)
    return EvolutionProblem(problem.law, problem.op, forcing, problem.scheme)


def rows(forcing):
    """The forcing at each grid time, from its factors."""
    return forcing.amplitudes.samples @ forcing.profiles


class TestStepping:
    def test_zero_forcing_is_fixed_point(self):
        law = assemble_material_law(canonical_spec(ModelFamily.LORD_SHULMAN))
        op = build_operators(Grid1D(1.0, 8))
        t = time_grid(0.5, 2**-7)
        forcing = sampled_forcing(t, np.zeros((t.size, op.n_dof)))
        for scheme in (BACKWARD_EULER, TRAPEZOIDAL):
            traj = solve(EvolutionProblem(law, op, forcing, scheme))
            assert np.all(traj.states == 0.0)
            assert np.all(traj.aux == 0.0)

    def test_backward_euler_order_against_matrix_exponential(self):
        # single interior node: compare with a dense exponential integrator
        # for the equivalent small linear system
        law = assemble_material_law(canonical_spec(ModelFamily.LORD_SHULMAN))
        errors = []
        for dt in (2**-6, 2**-7, 2**-8):
            problem = pulse_problem(law, n_cells=2, dt=dt, t_max=1.0,
                                    profile="mode_1", center=0.25, width=0.06)
            traj = solve(problem)
            mass = mass_matrix_lil(problem).toarray()
            flow = -np.linalg.solve(mass, np.diag(problem.feedthrough)
                                    + skew_operator(problem.op.grid).toarray())
            h_fine = dt / 64.0
            prop, w0, wm, w1 = simpson_weights(flow, h_fine)
            mass_inv = np.linalg.inv(mass)
            base = mass_inv @ problem.forcing.profiles[0]

            def g(tv):
                return np.exp(-(((tv - 0.25) / 0.06) ** 2)) * base

            y = np.zeros(problem.op.n_dof)
            reference = np.zeros_like(traj.states)
            for k in range(64 * problem.n_steps):
                tk = k * h_fine
                y = prop @ y + w0 @ g(tk) + wm @ g(tk + 0.5 * h_fine) + w1 @ g(tk + h_fine)
                if (k + 1) % 64 == 0:
                    reference[(k + 1) // 64] = y
            errors.append(np.max(np.abs(traj.states - reference))
                          / np.max(np.abs(reference)))
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(orders >= 0.9)

    def test_public_step_matches_solve(self):
        law = assemble_material_law(canonical_spec(ModelFamily.DPL_I))
        problem = pulse_problem(law, n_cells=8, dt=2**-7, t_max=0.25)
        traj = solve(problem)
        f = rows(problem.forcing)
        u1, x1 = step_implicit(problem, traj.states[0], traj.aux[0], f[1], f[0])
        np.testing.assert_array_equal(u1, traj.states[1])
        # the step solves x inside the band, the replay by its own formula
        assert np.max(np.abs(x1 - traj.aux[1])) <= AUX_REPLAY_ULPS * EPS * np.max(np.abs(x1))

    def test_linearity_of_solve(self):
        law = uncoupled_law(ModelFamily.GREEN_NAGHDI_III)
        base = pulse_problem(law, n_cells=8, dt=2**-8, t_max=0.5)
        f1 = base.forcing
        t, samples = f1.amplitudes.t, rows(f1)
        rng = np.random.default_rng(7)
        f2 = rng.standard_normal(samples.shape) * 0.1
        alpha, beta = 2.0, -0.7
        combo = sampled_forcing(t, alpha * samples + beta * f2)
        f2 = sampled_forcing(t, f2)
        sol_combo = solve(EvolutionProblem(law, base.op, combo, base.scheme))
        sol_1 = solve(EvolutionProblem(law, base.op, f1, base.scheme))
        sol_2 = solve(EvolutionProblem(law, base.op, f2, base.scheme))
        want = alpha * sol_1.states + beta * sol_2.states
        scale = np.max(np.abs(want))
        assert np.max(np.abs(sol_combo.states - want)) <= 1e-10 * scale

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_unconditional_factorization(self, family):
        law = assemble_material_law(canonical_spec(family))
        op = build_operators(Grid1D(1.0, 16))
        for exponent in range(6, 13):
            dt = 2.0**-exponent
            t = time_grid(4 * dt, dt)
            forcing = sampled_forcing(t, np.zeros((t.size, op.n_dof)))
            for scheme in (BACKWARD_EULER, TRAPEZOIDAL):
                problem = EvolutionProblem(law, op, forcing, scheme)
                problem._stepper  # factorization must succeed

    def test_coupled_lag_model_self_convergence(self):
        # the spectral reference excludes coupled laws; the coupled path is
        # checked by Richardson self-convergence of the marching scheme
        law = assemble_material_law(canonical_spec(ModelFamily.GREEN_LINDSAY))
        trajectories = []
        for dt in (2**-7, 2**-8, 2**-9):
            problem = pulse_problem(law, n_cells=8, dt=dt, t_max=0.5,
                                    scheme=TRAPEZOIDAL, block="f")
            trajectories.append(solve(problem).states)
        diffs = [
            np.max(np.abs(trajectories[0] - trajectories[1][::2])),
            np.max(np.abs(trajectories[1] - trajectories[2][::2])),
        ]
        order = np.log2(diffs[0] / diffs[1])
        assert order >= 1.9

    def test_per_cell_density_runs(self):
        spec = ModelSpec(ModelFamily.CLASSICAL, {
            "rho0": list(np.linspace(1.0, 2.0, 16)), "nu": 1.0, "C": 1.0,
            "Gamma": 0.5, "kappa": 1.0})
        law = assemble_material_law(spec)
        problem = pulse_problem(law, n_cells=16, dt=2**-8, t_max=0.5)
        traj = solve(problem)
        assert np.all(np.isfinite(traj.states))
        energy = energy_functional(traj)
        assert np.all(energy >= 0.0)


def two_pole_resistance_law():
    """Custom law with flux inertia whose flux resistance has two simple
    poles, so one q dof owns two aux states."""
    return assemble_material_law(ModelSpec(ModelFamily.CUSTOM, {
        "rho0": 1.0, "nu": 1.0, "C": 1.0, "Gamma": 0.5, "a0": 1.0,
        "a2": RationalFunction([1.0, 0.5], [1.0, 3.0, 2.0])}))


#: unit roundoff of float64
EPS = np.finfo(float).eps

#: relative distance, in units of EPS, between the replayed memory states and
#: those the march solves in its band: both round a short formula per step
#: from the same states, and the pole contracts what is carried (at most 4.4
#: measured on the cases below)
AUX_REPLAY_ULPS = 8


def two_branch_bound(problem):
    """Largest relative distance of the march from :func:`march_two_branch`,
    which eliminates the memory states and pivots: a few ulps of the scale a
    step, damped by backward Euler (at most 0.7 n_steps EPS measured) and
    carried forward undamped, times -1 a step, by the trapezoidal rule on
    rows without mass (at most 8.2 n_steps EPS measured)."""
    massless = np.any(mass_matrix_lil(problem).diagonal() == 0.0)
    return (16 if problem.scheme == TRAPEZOIDAL and massless else 1) * problem.n_steps * EPS


class TestThetaScheme:
    """The theta-scheme step against the former two-branch stepper."""

    @staticmethod
    def marched(law, scheme, block):
        problem = pulse_problem(law, n_cells=16, dt=2**-8, t_max=0.5, scheme=scheme, block=block)
        traj = solve(problem)
        states, aux = march_two_branch(problem)
        want = (states, aux, displacement_two_branch(problem, traj.block("v").samples))
        return (traj.states, traj.aux, traj.displacement().samples), want

    @pytest.mark.parametrize("scheme", [BACKWARD_EULER, TRAPEZOIDAL])
    @pytest.mark.parametrize("block", ["f", "h"])
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_equals_two_branch_march(self, family, block, scheme):
        law = assemble_material_law(canonical_spec(family))
        got, want = self.marched(law, scheme, block)
        bound = two_branch_bound(pulse_problem(law, n_cells=16, dt=2**-8, t_max=0.5,
                                               scheme=scheme))
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w), initial=0.0) <= bound * np.max(np.abs(w), initial=0.0)

    @pytest.mark.parametrize("scheme", [BACKWARD_EULER, TRAPEZOIDAL])
    def test_two_poles_on_one_owner(self, scheme):
        law = two_pole_resistance_law()
        got, want = self.marched(law, scheme, "f")
        problem = pulse_problem(law, n_cells=16, dt=2**-8, t_max=0.5, scheme=scheme)
        owner = problem.aux_chain.owner
        assert np.unique(owner).size < owner.size
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= two_branch_bound(problem) * np.max(np.abs(w))

    def test_backward_euler_step_needs_no_previous_forcing(self):
        problem = pulse_problem(assemble_material_law(canonical_spec(ModelFamily.DPL_II)),
                                n_cells=8, dt=2**-7, t_max=0.25)
        traj = solve(problem)
        f = rows(problem.forcing)
        # the march's own memory states after step 1 (aux is a replay)
        u, x = step_implicit(problem, traj.states[0], traj.aux[0], f[1], f[0])
        u1, x1 = step_implicit(problem, u, x, f[2], f[1])
        u2, x2 = step_implicit(problem, u, x, f[2], f[2])
        np.testing.assert_array_equal(u1, u2)
        np.testing.assert_array_equal(x1, x2)
        # the first step from zero is the march's to the bit; the second
        # starts from L u of the march's state, not from its own L u
        np.testing.assert_array_equal(u, traj.states[1])
        scale = np.max(np.abs(traj.states[2]))
        assert np.max(np.abs(u1 - traj.states[2])) <= two_branch_bound(problem) * scale

    def test_trapezoidal_step_needs_previous_forcing(self):
        problem = pulse_problem(assemble_material_law(canonical_spec(ModelFamily.DPL_II)),
                                n_cells=8, dt=2**-7, t_max=0.25, scheme=TRAPEZOIDAL)
        traj = solve(problem)
        f = rows(problem.forcing)
        u, x = step_implicit(problem, traj.states[0], traj.aux[0], f[1], f[0])
        u1, _ = step_implicit(problem, u, x, f[2], f[1])
        u2, _ = step_implicit(problem, u, x, f[2], f[2])
        np.testing.assert_array_equal(u, traj.states[1])
        scale = np.max(np.abs(traj.states[2]))
        assert np.max(np.abs(u1 - traj.states[2])) <= two_branch_bound(problem) * scale
        assert not np.array_equal(u2, u1)

    def test_empty_aux_chain_stays_float(self):
        law = assemble_material_law(canonical_spec(ModelFamily.CLASSICAL))
        problem = pulse_problem(law, n_cells=8, dt=2**-7, t_max=0.25)
        assert problem.aux_chain.n_aux == 0
        # an int64 scatter would reach sp.diags, whose FutureWarning fails under -W error
        traj = solve(problem)
        assert traj.states.dtype == traj.aux.dtype == np.float64


def sweep_law(n_cells, seed=3):
    """Piecewise-constant coupled dpl_i law with per-cell kappa and C, as in
    the Python-API sweep."""
    rng = np.random.default_rng(seed)
    return assemble_material_law(ModelSpec(ModelFamily.DPL_I, {
        "rho0": 1.0, "nu": 1.0, "Gamma": 0.5, "n1": 0.5, "n2": 0.25,
        "C": rng.uniform(0.8, 1.25, n_cells).tolist(),
        "kappa": rng.uniform(0.5, 2.0, n_cells).tolist()}))


class TestAuxOnRead:
    """The march carries only the current memory states; ``aux`` replays
    their update over the stored states when it is first read.  The states
    equal those of the ``step_implicit`` chain (one core): bitwise where the
    congruence factor L is the identity and on the first step from zero;
    otherwise each chained step starts from L u of the state it is given,
    not from the march's own L u, so they agree to ``two_branch_bound``.
    The replayed memory states equal the chain's to ``AUX_REPLAY_ULPS``."""

    @staticmethod
    def step_chain(problem):
        """``(states, aux)`` of ``step_implicit`` taken step by step."""
        f = rows(problem.forcing)
        u, x = np.zeros(problem.op.n_dof), np.zeros(problem.aux_chain.n_aux)
        states, aux = [u], [x]
        for k in range(problem.n_steps):
            u, x = step_implicit(problem, u, x, f[k + 1], f[k])
            states.append(u)
            aux.append(x)
        return np.array(states), np.array(aux)

    @pytest.mark.parametrize("scheme", [BACKWARD_EULER, TRAPEZOIDAL])
    @pytest.mark.parametrize("family, n_t", [
        (ModelFamily.DPL_I, None), ("two_pole", None), (ModelFamily.CLASSICAL, None),
        (ModelFamily.DPL_I, 2), ("uncoupled", None)],
        ids=["dpl_i", "two_pole_owner", "no_aux", "one_step", "uncoupled"])
    def test_equals_the_step_chain_bitwise(self, family, n_t, scheme):
        if family == "two_pole":
            law = two_pole_resistance_law()
        elif family == "uncoupled":
            law = uncoupled_law(ModelFamily.DPL_I)
        else:
            law = assemble_material_law(canonical_spec(family))
        problem = pulse_problem(law, n_cells=8, dt=2**-7, t_max=0.25, scheme=scheme,
                                center=0.1, width=0.03)
        if n_t is not None:  # the grid's first n_t times
            amplitudes = problem.forcing.amplitudes
            forcing = Forcing(WeightedSignal(amplitudes.t[:n_t], amplitudes.samples[:n_t],
                                             amplitudes.rho), problem.forcing.profiles)
            problem = EvolutionProblem(law, problem.op, forcing, scheme)
        trajectory = solve(problem)
        states, aux = self.step_chain(problem)
        assert trajectory.aux.shape == (problem.n_steps + 1, problem.aux_chain.n_aux)
        assert (np.max(np.abs(trajectory.aux - aux), initial=0.0)
                <= AUX_REPLAY_ULPS * EPS * np.max(np.abs(aux), initial=0.0))
        assert trajectory.states[:2].tobytes() == states[:2].tobytes()
        if problem._congruence.identity:
            assert family == "uncoupled"
            assert trajectory.states.tobytes() == states.tobytes()
        else:
            assert (np.max(np.abs(trajectory.states - states))
                    <= two_branch_bound(problem) * np.max(np.abs(states)))
        assert trajectory.aux is trajectory.aux
        if problem.aux_chain.n_aux:
            assert np.max(np.abs(aux[-1])) > 0.0

    def test_march_holds_no_aux_history(self):
        problem = pulse_problem(sweep_law(128), n_cells=128, dt=2**-10, t_max=4.0)
        assert problem.aux_chain.n_aux >= 128
        problem._stepper  # realized and factorized before the march is traced
        tracemalloc.start()
        try:
            trajectory = solve(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        history = trajectory.aux.nbytes
        assert peak - trajectory.states.nbytes < history / 4

    def test_states_are_read_only(self):
        trajectory = solve(pulse_problem(assemble_material_law(
            canonical_spec(ModelFamily.DPL_I)), n_cells=8, dt=2**-7, t_max=0.25))
        with pytest.raises(ValueError, match="read-only"):
            trajectory.states[1] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            trajectory.states[:, 0] += 1.0


def negative_feedthrough_law():
    """Custom law without flux inertia whose flux resistance is -0.05: it is
    not certified, and the symmetric part of its step matrix is indefinite
    on the q rows."""
    return assemble_material_law(ModelSpec(ModelFamily.CUSTOM, {
        "rho0": 1.0, "nu": 1.0, "C": 1.0, "Gamma": 0.5, "a2": -0.05}))


def massless_problem():
    """An 8-cell problem whose step matrix is theta A_h alone: a custom law
    without coupling, zero-order part or memory states, with its congruence
    given a zero diagonal where cached_property keeps it (the problem is
    immutable).  A_h is singular: the grid has one more face than interior
    node."""
    law = assemble_material_law(ModelSpec(ModelFamily.CUSTOM, {
        "rho0": 1.0, "nu": 1.0, "C": 1.0, "Gamma": 0.0}))
    problem = pulse_problem(law, n_cells=8, dt=2**-7, t_max=0.25)
    assert problem.aux_chain.n_aux == 0 and not np.any(problem.feedthrough)
    congruence = problem._congruence
    vars(problem)["_congruence"] = evolution._Congruence(
        congruence.half_gamma, congruence.half_zeta, np.zeros(problem.op.n_dof),
        congruence.sigma, congruence.theta, congruence.q)
    return problem


def named_law(name, n_cells, seed=3):
    """A catalog family by name, "sweep" (:func:`sweep_law`) or
    "negative_feedthrough" (:func:`negative_feedthrough_law`)."""
    if name == "sweep":
        return sweep_law(n_cells, seed)
    if name == "negative_feedthrough":
        return negative_feedthrough_law()
    return assemble_material_law(canonical_spec(ModelFamily(name)))


#: the laws of the positivity decision beyond the catalog: no capacity (its
#: temperature rows hold mass only through the coupling), and a flux
#: resistance that is negative where the flux inertia is one
POSITIVITY_LAWS = {
    "massless_theta": lambda: assemble_material_law(ModelSpec(ModelFamily.CUSTOM, {
        "rho0": 1.0, "nu": 0.0, "C": 1.0, "Gamma": 0.5, "a2": 1.0})),
    "negative_resistance": lambda: assemble_material_law(ModelSpec(ModelFamily.CUSTOM, {
        "rho0": 1.0, "nu": 1.0, "C": 1.0, "Gamma": 0.5, "a0": 1.0, "a2": -0.5})),
}


#: (catalog family, "sweep" or "negative_feedthrough", n_cells) under both schemes
BANDED_CASES = [(name, n, scheme)
                for name, n in [*((f.value, 16) for f in ALL_FAMILIES), ("sweep", 32),
                                (ModelFamily.DPL_II.value, 2), ("negative_feedthrough", 16)]
                for scheme in (BACKWARD_EULER, TRAPEZOIDAL)]


class TestBandedStep:
    """The step matrix factorized as a band in cell order."""

    @staticmethod
    def problem(name, n_cells, scheme):
        return pulse_problem(named_law(name, n_cells), n_cells=n_cells, dt=2**-8, t_max=0.125,
                             scheme=scheme)

    @pytest.mark.parametrize("name, n_cells, scheme", BANDED_CASES)
    def test_cell_order_has_bandwidth_four(self, name, n_cells, scheme):
        problem = self.problem(name, n_cells, scheme)
        stepper = problem._stepper
        order = cell_order(problem.op)
        np.testing.assert_array_equal(order[stepper.inv], np.arange(problem.op.n_dof))
        assert bandwidth(two_branch_system(problem)[0], order) <= 4

    @pytest.mark.parametrize("name, n_cells, scheme", BANDED_CASES)
    def test_solve_matches_sparse_lu(self, name, n_cells, scheme):
        problem = self.problem(name, n_cells, scheme)
        n = problem.op.n_dof
        b = np.random.default_rng(n_cells).standard_normal(n)
        # from zero states the right-hand side is theta b + (1 - theta) b == b
        got, _ = step_implicit(problem, np.zeros(n), np.zeros(problem.aux_chain.n_aux), b, b)
        want = splu(sp.csc_matrix(two_branch_system(problem)[0])).solve(b)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("name, n_cells, scheme", BANDED_CASES)
    def test_certified_laws_take_the_sweeps(self, name, n_cells, scheme):
        # every catalog law passes the positivity test and its LU needs no
        # row swap; the negative feedthrough fails the test
        stepper = self.problem(name, n_cells, scheme)._stepper
        assert stepper.pivoted == (name == "negative_feedthrough")

    @pytest.mark.parametrize("dt", [2**-8, 2**-4])
    @pytest.mark.parametrize("scheme", [BACKWARD_EULER, TRAPEZOIDAL])
    @pytest.mark.parametrize("name", [*(f.value for f in ALL_FAMILIES), "negative_feedthrough",
                                      "massless_theta", "negative_resistance"])
    def test_positivity_decision_equals_dense_eigenvalues(self, name, scheme, dt):
        # the congruence basis decides as M/dt + theta (diag(D) + the memory
        # states' diagonal) in block order
        law = POSITIVITY_LAWS[name]() if name in POSITIVITY_LAWS else named_law(name, 16)
        problem = pulse_problem(law, n_cells=16, dt=dt, t_max=0.5, scheme=scheme)
        theta, chain = problem.theta, problem.aux_chain
        memory = np.zeros(problem.op.n_dof)
        np.add.at(memory, chain.owner, theta * dt * chain.gain_out * chain.gain_in
                  / (1.0 - theta * dt * chain.poles))
        symmetric = (mass_matrix_lil(problem).toarray() / dt
                     + theta * np.diag(problem.feedthrough + memory))
        want = np.linalg.eigvalsh(symmetric).min() > 0.0
        assert problem._stepper._positive_definite(problem) == want

    @pytest.mark.parametrize("name, coupled, band", [
        (ModelFamily.CLASSICAL.value, True, 5), (ModelFamily.DPL_I.value, True, 6),
        (ModelFamily.GREEN_LINDSAY.value, True, 7), (ModelFamily.DPL_I.value, False, 3)])
    def test_band_widths(self, name, coupled, band):
        # README: 5 without memory states, 6 with one per face, 7 with one
        # per node, 3 where L = I
        law = (assemble_material_law(canonical_spec(ModelFamily(name))) if coupled
               else uncoupled_law(ModelFamily(name)))
        problem = pulse_problem(law, n_cells=16, dt=2**-8, t_max=0.125)
        assert problem._congruence.identity is not coupled
        assert problem._stepper.band == band

    def test_unpivoted_lu_where_partial_pivoting_swaps(self):
        # a positive definite symmetric part under a large skew part: the
        # LU without pivoting exists, but partial pivoting swaps rows
        rng = np.random.default_rng(11)
        n, k = 12, 2
        skew = np.triu(rng.uniform(-20.0, 20.0, (n, n)), 1)
        dense = np.eye(n) * rng.uniform(1.0, 2.0, n) + skew - skew.T
        dense[np.abs(np.subtract.outer(np.arange(n), np.arange(n))) > k] = 0.0
        ab = np.zeros((3 * k + 1, n), order="F")
        ab[k:] = band_of(sp.csr_matrix(dense), np.arange(n), k)
        assert not np.array_equal(_lapack.gbtrf(ab.copy(order="F"), k, k)[1], np.arange(1, n + 1))
        lu = evolution._lu_unpivoted(ab, k)
        lower = np.tril(from_band(lu[k:], np.arange(n), k).toarray(), -1) + np.eye(n)
        upper = np.triu(from_band(lu[k:], np.arange(n), k).toarray())
        assert np.max(np.abs(lower @ upper - dense)) <= 8 * EPS * np.max(np.abs(dense))
        dense[0, 0] = 0.0
        ab[:] = 0.0
        ab[k:] = band_of(sp.csr_matrix(dense), np.arange(n), k)
        assert evolution._lu_unpivoted(ab, k) is None  # a zero first pivot
        huge = np.zeros((3 * k + 1, n), order="F")
        huge[2 * k] = 2.0 ** 600
        assert evolution._lu_unpivoted(huge, k) is None  # past the exact scaling

    def test_memory_states_sit_before_their_owners(self):
        problem = pulse_problem(two_pole_resistance_law(), n_cells=4, dt=2**-8, t_max=0.125)
        stepper, owner = problem._stepper, problem.aux_chain.owner
        order = np.argsort(np.concatenate([stepper.u_at, stepper.x_at]))
        n = problem.op.n_dof
        np.testing.assert_array_equal(order[order < n], cell_order(problem.op))
        # each owner's two states, in chain order, just before it
        np.testing.assert_array_equal(stepper.x_at, stepper.u_at[owner] - np.tile([2, 1], 4))
        # in the congruence basis theta_j meets v_{j-1} through sigma_j's row,
        # across theta_{j-1}, sigma_j, two states, q_j and v_j
        assert stepper.band == 7

    @pytest.mark.parametrize("scheme", [BACKWARD_EULER, TRAPEZOIDAL])
    def test_each_step_is_one_product_and_two_sweeps(self, scheme, monkeypatch):
        routines, calls = _lapack._openblas64(), {}
        if routines is None:
            pytest.skip("counts the ctypes calls into numpy's scipy-openblas")

        def counted(name):
            def call(*args):
                calls[name] = calls.get(name, 0) + 1
                return routines[name](*args)
            return call

        monkeypatch.setattr(_lapack, "_openblas64", lambda: {n: counted(n) for n in routines})
        problem = self.problem("sweep", 32, scheme)
        assert not problem._stepper.pivoted
        calls.clear()

        def forbidden(*args, **kwargs):
            raise AssertionError("memory-state arithmetic in the march")

        monkeypatch.setattr(evolution._ImplicitStepper, "next_aux", forbidden)
        monkeypatch.setattr(np, "bincount", forbidden)
        solve(problem)
        # the product is the diagonal scaling of the congruence basis: no dgbmv
        assert calls == {"dtbsv": 2 * problem.n_steps}

    def test_zero_step_matrix_raises(self):
        with pytest.raises(SingularSystemError, match="zero pivot 29"):
            massless_problem()._stepper


needs_numpy_openblas = pytest.mark.skipif(
    _lapack._openblas64() is None,
    reason="numpy's LAPACK is not scipy-openblas: the march binds scipy's wrappers only")


@needs_numpy_openblas
class TestLapackBinding:
    """The march through numpy's own scipy-openblas (ctypes) and through
    scipy's wrappers, which a patched detection forces."""

    @pytest.mark.parametrize("scheme", [BACKWARD_EULER, TRAPEZOIDAL])
    @pytest.mark.parametrize("name, n_cells, seed", [("sweep", 32, 3), ("sweep", 32, 7),
                                                     (ModelFamily.DPL_II.value, 2, None),
                                                     ("negative_feedthrough", 16, None)])
    def test_scipy_binding_marches_bitwise_alike(self, monkeypatch, name, n_cells, seed,
                                                 scheme):
        law = named_law(name, n_cells, seed)

        def march():
            problem = pulse_problem(law, n_cells=n_cells, dt=2**-8, t_max=0.25, scheme=scheme)
            return solve(problem), problem._stepper.pivoted

        native, pivoted = march()
        monkeypatch.setattr(_lapack, "_openblas64", lambda: None)
        fallback, fallback_pivoted = march()
        assert pivoted == fallback_pivoted == (name == "negative_feedthrough")
        assert np.any(native.states)
        np.testing.assert_array_equal(fallback.states, native.states)
        np.testing.assert_array_equal(fallback.aux, native.aux)

    def test_work_vectors_are_checked_when_bound(self):
        band = np.zeros((13, 6), order="F")
        band[8] = 2.0
        lu, piv, info = _lapack.gbtrf(band, 4, 4)
        read_only = np.ones(6)
        read_only.flags.writeable = False
        for bad in (np.ones(6, dtype=np.float32), np.ones(5), np.ones(12)[::2], read_only):
            with pytest.raises(ValueError, match="work vector"):
                _lapack.gbtrs(lu, piv, 4, 4, bad)
        b = np.full(6, 4.0)
        _lapack.gbtrs(lu, piv, 4, 4, b)()
        np.testing.assert_array_equal(b, np.full(6, 2.0))
        for bad in (np.ones(6, dtype=np.float32), np.ones(5), np.ones(12)[::2], read_only):
            with pytest.raises(ValueError, match="work vector"):
                _lapack.tbsv(band[4:9], 4, True, bad)
        with pytest.raises(ValueError, match="triangular band"):
            _lapack.tbsv(band[4:8], 4, True, np.ones(6))

    @pytest.mark.parametrize("native", [True, False], ids=["numpy", "scipy"])
    def test_triangular_sweeps(self, monkeypatch, native):
        if not native:
            monkeypatch.setattr(_lapack, "_openblas64", lambda: None)
        rng = np.random.default_rng(5)
        n, k = 9, 3
        lu = np.asfortranarray(rng.standard_normal((3 * k + 1, n)))
        lu[2 * k] = 2.0 + rng.random(n)
        dense = from_band(lu[k:], np.arange(n), k).toarray()
        lower, upper = np.tril(dense, -1) + np.eye(n), np.triu(dense)
        b = rng.standard_normal(n)
        x = b.copy()
        _lapack.tbsv(lu[2 * k:], k, True, x)()
        np.testing.assert_allclose(lower @ x, b, rtol=0, atol=1e-14 * np.max(np.abs(b)))
        y = x.copy()
        _lapack.tbsv(lu[k:2 * k + 1], k, False, y)()
        np.testing.assert_allclose(upper @ y, x, rtol=0, atol=1e-14 * np.max(np.abs(x)))

    def test_zero_pivot_raises(self):
        problem = massless_problem()
        band = np.zeros((13, problem.op.n_dof), order="F")
        assert _lapack.gbtrf(band, 4, 4)[2] == 1
        with pytest.raises(SingularSystemError, match="zero pivot 29"):
            problem._stepper


class TestEnergy:
    def test_trapezoidal_conserves_after_cutoff(self):
        law = uncoupled_law(ModelFamily.GREEN_NAGHDI_II)
        problem = cutoff_forcing(
            pulse_problem(law, n_cells=16, dt=2**-9, t_max=2.0, scheme=TRAPEZOIDAL),
            t_cut=0.5)
        energy = energy_functional(solve(problem))
        start = np.searchsorted(problem.forcing.amplitudes.t, 0.5) + 1
        drift = np.max(np.abs(energy[start:] - energy[start])) / energy[start]
        assert drift <= 1e-10

    @pytest.mark.parametrize("family", [
        ModelFamily.LORD_SHULMAN, ModelFamily.CLASSICAL,
        ModelFamily.GREEN_NAGHDI_I, ModelFamily.GREEN_NAGHDI_II])
    def test_backward_euler_monotone_after_cutoff(self, family):
        law = assemble_material_law(canonical_spec(family))
        problem = cutoff_forcing(
            pulse_problem(law, n_cells=16, dt=2**-9, t_max=2.0), t_cut=0.5)
        energy = energy_functional(solve(problem))
        start = np.searchsorted(problem.forcing.amplitudes.t, 0.5) + 1
        increases = np.diff(energy[start:])
        assert np.all(increases <= 64 * np.finfo(float).eps * np.max(energy))

    def test_backward_euler_dissipation_identity(self):
        # Delta E = -2 dt <D U+, U+> - <M dU, dU> holds step by step for
        # constant-coefficient zero-order parts (no auxiliary states)
        law = assemble_material_law(canonical_spec(ModelFamily.LORD_SHULMAN))
        problem = cutoff_forcing(
            pulse_problem(law, n_cells=8, dt=2**-8, t_max=1.0), t_cut=0.3)
        traj = solve(problem)
        energy = energy_functional(traj)
        h = problem.op.grid.h
        m = mass_matrix_lil(problem).toarray()
        d = problem.feedthrough
        start = np.searchsorted(problem.forcing.amplitudes.t, 0.3) + 1
        for k in range(start, traj.states.shape[0] - 1):
            u_next = traj.states[k + 1]
            du = u_next - traj.states[k]
            want = -2.0 * problem.dt * h * u_next @ (d * u_next) - h * du @ (m @ du)
            got = energy[k + 1] - energy[k]
            assert got == pytest.approx(want, abs=1e-12 * max(energy[start], 1e-30))

    def test_zero_states_zero_energy(self):
        law = assemble_material_law(canonical_spec(ModelFamily.CLASSICAL))
        op = build_operators(Grid1D(1.0, 8))
        t = time_grid(0.25, 2**-7)
        forcing = sampled_forcing(t, np.zeros((t.size, op.n_dof)))
        energy = energy_functional(solve(EvolutionProblem(law, op, forcing)))
        assert np.all(energy == 0.0)


class TestDerivedFields:
    @pytest.mark.parametrize("scheme", [BACKWARD_EULER, TRAPEZOIDAL])
    def test_stress_strain_temperature_relation(self, scheme):
        # sigma = C eps - Gamma (averaged Theta) holds to round-off when the
        # displacement uses the scheme-consistent antiderivative
        law = assemble_material_law(canonical_spec(ModelFamily.LORD_SHULMAN))
        problem = pulse_problem(law, n_cells=16, dt=2**-8, t_max=0.5,
                                scheme=scheme, block="f")
        traj = solve(problem)
        eps = traj.strain().samples
        sigma = traj.block("sigma").samples
        theta_faces = (traj.block("theta_big").samples
                       @ operators_per_cell(problem.op.grid)[1].T.toarray())
        want = 1.0 * eps - 0.5 * theta_faces
        scale = max(np.max(np.abs(sigma)), 1e-30)
        assert np.max(np.abs(sigma - want)) <= 1e-10 * scale

    def test_entropy_runs_on_trajectory(self):
        law = assemble_material_law(canonical_spec(ModelFamily.GREEN_LINDSAY))
        problem = pulse_problem(law, n_cells=8, dt=2**-8, t_max=0.5)
        eta = solve(problem).entropy()
        assert eta.samples.shape == (problem.n_steps + 1, 7)
        assert np.all(np.isfinite(eta.samples))

    def test_csv_export(self, tmp_path):
        law = assemble_material_law(canonical_spec(ModelFamily.CLASSICAL))
        problem = pulse_problem(law, n_cells=4, dt=2**-6, t_max=0.25)
        written = solve(problem).export_csv(tmp_path)
        names = sorted(p.name for p in written)
        assert names == sorted([
            "v.csv", "sigma.csv", "theta_big.csv", "q.csv",
            "u.csv", "epsilon.csv", "theta.csv", "eta.csv", "energy.csv"])
        header = (tmp_path / "v.csv").read_text().splitlines()[0]
        assert header == "t," + ",".join(f"x_{i}" for i in range(3))
        assert (tmp_path / "energy.csv").read_text().splitlines()[0] == "t,energy"

    def test_csv_export_derives_the_displacement_once(self, tmp_path, monkeypatch):
        law = assemble_material_law(canonical_spec(ModelFamily.GREEN_LINDSAY))
        traj = solve(pulse_problem(law, n_cells=6, dt=2**-6, t_max=0.25, block="f"))
        derived = [traj.strain(), traj.entropy()]
        calls, displacement = [], evolution.Trajectory.displacement
        monkeypatch.setattr(evolution.Trajectory, "displacement",
                            lambda self: calls.append(self) or displacement(self))
        traj.export_csv(tmp_path / "export")
        assert calls == [traj]
        # epsilon and eta as derived from it have the bytes of strain() and entropy()
        for name, signal in zip(["epsilon", "eta"], derived):
            path = tmp_path / f"{name}.csv"
            signals.write_csv(path, ["t", *(f"x_{i}" for i in range(signal.n_components))],
                      signal.t, signal.samples)
            assert (tmp_path / "export" / path.name).read_bytes() == path.read_bytes()

    def test_piecewise_law_exports_no_entropy(self, tmp_path):
        law = assemble_material_law(spec_with(ModelFamily.LORD_SHULMAN,
                                              kappa=[1.0, 2.0, 1.5, 0.5]))
        problem = pulse_problem(law, n_cells=4, dt=2**-6, t_max=0.25)
        names = {p.name for p in solve(problem).export_csv(tmp_path)}
        assert "eta.csv" not in names and "energy.csv" in names

    def test_strain_matches_dense_product(self):
        law = assemble_material_law(canonical_spec(ModelFamily.GREEN_LINDSAY))
        problem = pulse_problem(law, n_cells=12, dt=2**-8, t_max=0.25)
        traj = solve(problem)
        dense = traj.displacement().samples @ operators_per_cell(problem.op.grid)[0].T.toarray()
        scale = np.max(np.abs(dense))
        assert np.max(np.abs(traj.strain().samples - dense)) <= 1e-15 * scale


def with_cpus(monkeypatch, n):
    """Make the export see ``n`` CPUs in this process's affinity."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def counting_forks(monkeypatch):
    """Patch ``os.fork`` to record the pid of every writer it starts."""
    pids, fork = [], os.fork

    def counting():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def exported_bytes(written):
    return [(p.name, p.read_bytes()) for p in written]


def verify_uniform_problem():
    """Uniform dpl_i without coupling and a delayed step on f: the layout of
    the benchmark's verify workload, on which theta_big, q, theta and eta
    are all zero."""
    law = assemble_material_law(spec_with(ModelFamily.DPL_I, Gamma=0.0))
    op = build_operators(Grid1D(1.0, 16))
    t = time_grid(0.0625, 2**-10)
    forcing = assemble_forcing(op, t, 1.0, "delayed_step", "f", "bump", delay=2**-7)
    return EvolutionProblem(law, op, forcing, BACKWARD_EULER)


class TestParallelExport:
    @pytest.mark.parametrize("family", [*ALL_FAMILIES, "dpl_i_per_cell"], ids=str)
    def test_bytes_match_one_share_write(self, family, tmp_path, monkeypatch):
        if family == "dpl_i_per_cell":
            law, n_cells = per_cell_law(ModelFamily.DPL_I), 4
        else:
            law, n_cells = assemble_material_law(canonical_spec(family)), 8
        traj = solve(pulse_problem(law, n_cells=n_cells, dt=2**-7, t_max=0.25,
                                   scheme=TRAPEZOIDAL))
        with_cpus(monkeypatch, 1)
        one = exported_bytes(traj.export_csv(tmp_path / "one"))
        with_cpus(monkeypatch, 4)
        pids = counting_forks(monkeypatch)
        four = exported_bytes(traj.export_csv(tmp_path / "four"))
        assert len(pids) == 3
        assert four == one
        assert_no_child_left()

    def test_split_puts_a_heavy_table_in_each_share(self, tmp_path, monkeypatch):
        traj = solve(verify_uniform_problem())
        dealt = []
        monkeypatch.setattr(evolution, "_write_shares",
                            lambda t, jobs, shares: dealt.append((jobs, shares)))
        with_cpus(monkeypatch, 2)
        traj.export_csv(tmp_path)
        traj.export_csv(tmp_path)
        (jobs, shares), (_, again) = dealt
        assert shares == again
        names = [path.stem for path, _, _ in jobs]
        zero = {name for name, (_, _, values) in zip(names, jobs) if not values.any()}
        assert zero == {"theta_big", "q", "theta", "eta"}
        heavy = {"v", "sigma", "u", "epsilon"}
        assert len(shares) == 2 and sorted(i for s in shares for i in s) == list(range(len(jobs)))
        # an all-zero table is dealt an eighth of the weight of a nonzero one of
        # its size: each share gets two heavy tables, and the zero ones even out the rest
        assert [len(heavy & {names[i] for i in share}) for share in shares] == [2, 2]
        assert [len(zero & {names[i] for i in share}) for share in shares] == [2, 2]

    def test_deal_is_largest_first_to_least_loaded(self):
        assert evolution._deal([5, 0, 9, 4, 0, 1], 2) == [[2, 5], [0, 3, 1, 4]]
        assert evolution._deal([0, 0, 0], 2) == [[0, 2], [1]]
        assert evolution._deal([3, 1], 8) == [[0], [1]]
        assert evolution._deal([3, 1], 1) == [[0, 1]]

    def test_one_cpu_makes_no_fork(self, tmp_path, monkeypatch):
        law = assemble_material_law(canonical_spec(ModelFamily.CLASSICAL))
        traj = solve(pulse_problem(law, n_cells=4, dt=2**-6, t_max=0.25))

        def no_fork():
            raise AssertionError("os.fork called with one CPU")

        with_cpus(monkeypatch, 1)
        monkeypatch.setattr(os, "fork", no_fork)
        written = traj.export_csv(tmp_path)
        assert all(p.stat().st_size > 0 for p in written) and len(written) == 9

    def test_encoder_tables_are_built_before_the_fork(self, tmp_path, monkeypatch):
        law = assemble_material_law(canonical_spec(ModelFamily.CLASSICAL))
        traj = solve(pulse_problem(law, n_cells=4, dt=2**-6, t_max=0.25))
        built, fork = [], os.fork

        def recording():
            built.append(signals._tables.cache_info().currsize)
            return fork()

        signals._tables.cache_clear()
        with_cpus(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", recording)
        traj.export_csv(tmp_path)
        assert built == [1]  # the writer inherits the tables instead of building them
        assert_no_child_left()

    def test_failed_fork_writes_the_share_here(self, tmp_path, monkeypatch):
        law = assemble_material_law(canonical_spec(ModelFamily.CLASSICAL))
        traj = solve(pulse_problem(law, n_cells=4, dt=2**-6, t_max=0.25))
        with_cpus(monkeypatch, 1)
        one = exported_bytes(traj.export_csv(tmp_path / "one"))

        def no_process():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        with_cpus(monkeypatch, 4)
        monkeypatch.setattr(os, "fork", no_process)
        assert exported_bytes(traj.export_csv(tmp_path / "four")) == one

    def test_failed_writer_names_its_file_and_is_reaped(self, tmp_path):
        t = np.arange(3.0)
        blocked = tmp_path / "b.csv"
        blocked.mkdir()
        jobs = [(tmp_path / "a.csv", ["t", "x"], t), (blocked, ["t", "x"], t),
                (tmp_path / "c.csv", ["t", "x"], t)]
        with pytest.raises(ArtifactWriteError, match="cannot write .*b.csv"):
            evolution._write_shares(t, jobs, [[0], [1], [2]])
        assert_no_child_left()
        assert (tmp_path / "a.csv").read_text() == (tmp_path / "c.csv").read_text() \
            == "t,x\n0,0\n1,1\n2,2\n"


class TestPerCellLaws:
    def test_per_cell_temperature_damping_rejected(self):
        law = assemble_material_law(spec_with(ModelFamily.GREEN_LINDSAY,
                                              d=[3.0, 2.0, 3.0, 2.0]))
        with pytest.raises(InputError, match="temperature damping"):
            pulse_problem(law, n_cells=4, dt=2**-6, t_max=0.25)

    def test_one_realization_per_distinct_law(self, monkeypatch):
        # with b = 0 the temperature damping does not depend on kappa
        law = assemble_material_law(spec_with(ModelFamily.GREEN_LINDSAY, b=0.0,
                                              kappa=[1.0, 2.0, 1.0, 2.0]))
        problem = pulse_problem(law, n_cells=4, dt=2**-6, t_max=0.25)
        calls, realized = [], []
        realize = rational._realize

        def counting(laws):
            calls.append(laws)
            return realize_state_space(laws)

        def realizing(nums, den):
            realized.extend((nums[g].tobytes(), den[g].tobytes()) for g in range(len(den)))
            return realize(nums, den)

        monkeypatch.setattr(evolution, "realize_state_space", counting)
        monkeypatch.setattr(rational, "_realize", realizing)
        assert problem.aux_chain.n_aux > 0
        # one call for the problem; two distinct flux resistances plus the
        # shared temperature damping, each realized once
        assert len(calls) == 1
        assert len(realized) == len(set(realized)) == 3
        # each law keeps its realization: a second problem realizes nothing
        again = pulse_problem(law, n_cells=4, dt=2**-6, t_max=0.25)
        assert np.array_equal(again.aux_chain.poles, problem.aux_chain.poles)
        assert len(calls) == 2 and len(realized) == 3


#: (law name, n_cells, length): the 8 catalog families and a per-cell dpl_i law
CLOSED_FORM_CASES = [(name, n, length)
                     for name in [*(f.value for f in ALL_FAMILIES), "dpl_i_per_cell"]
                     for n in (2, 3, 17, 128) for length in (1.0, 0.3)]


def closed_form_problem(name, n_cells, length, scheme=BACKWARD_EULER):
    if name == "dpl_i_per_cell":
        law = sweep_law(n_cells)
    elif name == "uncoupled_classical":
        law = uncoupled_law(ModelFamily.CLASSICAL)
    else:
        law = assemble_material_law(canonical_spec(ModelFamily(name)))
    op = build_operators(Grid1D(length, n_cells))
    t = time_grid(4 * 2**-8, 2**-8)
    return EvolutionProblem(law, op, sampled_forcing(t, np.zeros((t.size, op.n_dof))), scheme)


class TestClosedForms:
    """Closed-form bands and energy against the entry-by-entry sparse assembly."""

    @pytest.mark.parametrize("name, n_cells, length", CLOSED_FORM_CASES)
    def test_congruence_equals_entrywise_assembly(self, name, n_cells, length):
        # L and D of M = L^T diag(D) L bitwise, read back through the maps
        # that the march applies: row k of lower(I) is L e_k
        problem = closed_form_problem(name, n_cells, length)
        congruence, n = problem._congruence, problem.op.n_dof
        lmat = congruence_factor(problem).toarray()
        np.testing.assert_array_equal(congruence.lower(np.eye(n)).T, lmat)
        np.testing.assert_array_equal(congruence.lower_inverse(np.eye(n)).T,
                                      2.0 * np.eye(n) - lmat)
        np.testing.assert_array_equal(congruence.lower_inverse_transpose(np.eye(n)).T,
                                      2.0 * np.eye(n) - lmat.T)
        node, face = problem.node_coeffs, problem.face_coeffs
        np.testing.assert_array_equal(congruence.diagonal, np.concatenate(
            [node["rho0"], 1.0 / face["C"], node["nu"], face["a0"]]))
        assert congruence.identity == np.array_equal(lmat, np.eye(n))
        assert bandwidth(mass_matrix_lil(problem), cell_order(problem.op)) <= 4

    @pytest.mark.parametrize("name, n_cells, length", CLOSED_FORM_CASES)
    def test_energy_equals_quadratic_form(self, name, n_cells, length):
        problem = closed_form_problem(name, n_cells, length)
        u = np.random.default_rng(n_cells).standard_normal((5, problem.op.n_dof))
        trajectory = Trajectory(problem, u, np.zeros((5, problem.aux_chain.n_aux)))
        m = mass_matrix_lil(problem)
        want = problem.op.grid.h * np.einsum("ki,ki->k", u, (m @ u.T).T)
        assert np.all(np.abs(energy_functional(trajectory) - want) <= 1e-14 * want)

    @pytest.mark.parametrize("name, n_cells, length", CLOSED_FORM_CASES)
    def test_energy_is_the_face_mean_form_bitwise(self, name, n_cells, length):
        # L u through the shared congruence factor rounds as the face-mean
        # form it replaced: gamma_f times the mean of Theta at face f's ends
        problem = closed_form_problem(name, n_cells, length)
        u = np.random.default_rng(n_cells).standard_normal((5, problem.op.n_dof))
        face, node, sl = problem.face_coeffs, problem.node_coeffs, problem.op.block_slices()
        lu = u.copy()
        theta_faces = problem.op.node_to_face(lu[:, sl[2]])
        lu[:, sl[1]] += face["Gamma"] * theta_faces
        lu[:, sl[3]] += face["zeta0"] * theta_faces
        weights = np.concatenate([node["rho0"], 1.0 / face["C"], node["nu"], face["a0"]])
        want = problem.op.grid.h * np.einsum("ki,ki,i->k", lu, lu, weights)
        trajectory = Trajectory(problem, u, np.zeros((5, problem.aux_chain.n_aux)))
        assert energy_functional(trajectory).tobytes() == want.tobytes()

    @pytest.mark.parametrize("scheme", [BACKWARD_EULER, TRAPEZOIDAL])
    @pytest.mark.parametrize("n_cells", [2, 3, 17])
    @pytest.mark.parametrize("name", ["uncoupled_classical", "green_lindsay"])
    def test_step_band_is_the_congruent_step_matrix(self, name, n_cells, scheme):
        # T^-T (E/dt + theta J) T^-1 formed densely, T = blockdiag(L, I) over
        # z, the x rows of E/dt + theta J times dt
        problem = closed_form_problem(name, n_cells, 1.0, scheme)
        stepper, chain = problem._stepper, problem.aux_chain
        theta, dt, n_z = problem.theta, problem.dt, stepper.rhs.size
        u_at, x_at, owner = stepper.u_at, stepper.x_at, stepper.u_at[chain.owner]
        step = np.zeros((n_z, n_z))
        step[np.ix_(u_at, u_at)] = (mass_matrix_lil(problem).toarray() / dt
                                    + theta * (np.diag(problem.feedthrough)
                                               + skew_operator(problem.op.grid).toarray()))
        step[x_at, x_at] = 1.0 - theta * dt * chain.poles
        step[x_at, owner] = -theta * dt * chain.gain_in
        step[owner, x_at] = theta * chain.gain_out
        t_inv = np.eye(n_z)
        t_inv[np.ix_(u_at, u_at)] = np.linalg.inv(congruence_factor(problem).toarray())
        want = t_inv.T @ step @ t_inv
        band = stepper.band
        got = from_band(stepper.step_band, np.arange(n_z), band).toarray()
        assert np.max(np.abs(got - want)) <= 8 * EPS * np.max(np.abs(want))
        # the band holds every entry: nothing of the dense matrix lies outside it
        near = np.abs(np.subtract.outer(np.arange(n_z), np.arange(n_z))) <= band
        assert np.all(want[~near] == 0.0)
        assert stepper.step_band.flags.f_contiguous

    def test_stepper_builds_no_dense_matrix(self):
        problem = closed_form_problem("dpl_i_per_cell", 512, 1.0)
        n_z = problem.op.n_dof + problem.aux_chain.n_aux
        problem._congruence, problem.aux_chain  # the law's own pieces, not the stepper's
        tracemalloc.start()
        try:
            problem._stepper
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n_z * n_z / 10


class TestCausality:
    def test_marching_is_exactly_causal(self):
        law = assemble_material_law(canonical_spec(ModelFamily.DPL_II))
        op = build_operators(Grid1D(1.0, 16))
        t = time_grid(2.0, 2**-8)
        forcing = assemble_forcing(op, t, 1.0, "delayed_step", "h", "bump", delay=0.5)
        for scheme in (BACKWARD_EULER, TRAPEZOIDAL):
            problem = EvolutionProblem(law, op, forcing, scheme)
            result = causality_test(problem, 0.5, solve(problem))
            assert not result.skipped
            assert result.leakage == 0.0

    def test_given_trajectory_is_not_marched_again(self, monkeypatch):
        law = assemble_material_law(canonical_spec(ModelFamily.DPL_II))
        op = build_operators(Grid1D(1.0, 8))
        forcing = assemble_forcing(op, time_grid(1.0, 2**-7), 1.0, "delayed_step", "h",
                                   "bump", delay=0.5)
        problem = EvolutionProblem(law, op, forcing, TRAPEZOIDAL)
        trajectory = solve(problem)
        calls = []
        monkeypatch.setattr(evolution, "solve", lambda p: calls.append(p))
        assert causality_test(problem, 0.5, trajectory) == evolution.CausalityResult(0.0)
        assert calls == []
        other = EvolutionProblem(law, op, forcing, TRAPEZOIDAL)
        with pytest.raises(InputError, match="does not belong"):
            causality_test(other, 0.5, trajectory)

    def test_support_touching_start_is_skipped(self):
        law = assemble_material_law(canonical_spec(ModelFamily.CLASSICAL))
        problem = pulse_problem(law, n_cells=8, dt=2**-7, t_max=0.5,
                                center=0.1, width=0.05)
        result = causality_test(problem, 0.1, solve(problem))
        assert result.skipped
        assert "window start" in result.reason

    def test_laplace_path_leakage_small(self):
        # scalar relaxed flux law q = M(d0^-1) g with M(z) = z/(a0 + z),
        # solved through the frequency domain on a delayed smooth input
        a0 = 1.0
        sym = RationalFunction([0.0, 1.0], [a0, 1.0])
        t = 2**-10 * np.arange(int(6 / 2**-10) + 1)
        x = (t - 2.0) / 0.7
        samples = np.zeros_like(t)
        inside = np.abs(x) < 1.0
        samples[inside] = np.exp(-1.0 / (1.0 - x[inside] ** 2))
        sig = WeightedSignal(t, samples, 1.0)
        out = apply_symbol_fl(sym, sig)
        peak = np.max(np.abs(out.samples))
        leak = np.max(np.abs(out.samples[t < 1.3 - 2 * sig.dt]))
        assert leak <= 1e-6 * peak
        # two-path agreement against the realization march
        direct = march_realization(realize_state_space(sym), sig)
        assert np.max(np.abs(direct - out.samples)) <= 1e-6 * peak


class TestBoundCheck:
    def test_classical_pulse_within_bound(self):
        law = assemble_material_law(canonical_spec(ModelFamily.CLASSICAL))
        problem = pulse_problem(law, n_cells=32, dt=2**-9, t_max=4.0, rho=4.0,
                                center=0.2, width=0.05)
        report = certify_wellposedness(law)
        result = solution_bound_check(problem, report, solve(problem))
        assert result.window_ok
        assert result.lhs <= result.rhs * 1.05

    def test_requires_satisfied_verdict(self):
        from conftest import negated_law

        law = negated_law(ModelFamily.DPL_I)
        problem = pulse_problem(law, n_cells=8, dt=2**-7, t_max=0.5)
        report = certify_wellposedness(law)
        trajectory = solve(problem)
        with pytest.raises(InputError, match="satisfied well-posedness verdict"):
            solution_bound_check(problem, report, trajectory)

    def test_zero_forcing_gives_zero_on_both_sides(self):
        law = assemble_material_law(canonical_spec(ModelFamily.CLASSICAL))
        op = build_operators(Grid1D(1.0, 8))
        t = time_grid(1.0, 2**-7)
        problem = EvolutionProblem(law, op, sampled_forcing(t, np.zeros((t.size, op.n_dof)), 2.0))
        result = solution_bound_check(problem, certify_wellposedness(law), solve(problem))
        assert result.lhs == 0.0 and result.rhs == 0.0
        assert result.ok

    def test_short_window_is_judged(self):
        # ok reads the bound alone, whatever the weighted tail at the window end
        assert evolution.BoundCheckResult(1.0, 2.0, 1.0, tail_ratio=0.5).ok
        assert not evolution.BoundCheckResult(3.0, 2.0, 1.0, tail_ratio=0.5).ok
        assert not evolution.BoundCheckResult(3.0, 2.0, 1.0, tail_ratio=0.0).ok
        for lhs in (np.nan, np.inf):
            assert not evolution.BoundCheckResult(lhs, np.inf, 1.0, tail_ratio=0.0).ok

    def test_forcing_homogeneity(self):
        law = assemble_material_law(canonical_spec(ModelFamily.LORD_SHULMAN))
        problem = pulse_problem(law, n_cells=8, dt=2**-8, t_max=4.0, rho=4.0,
                                center=0.2, width=0.05)
        report = certify_wellposedness(law)
        res1 = solution_bound_check(problem, report, solve(problem))
        amplitudes = problem.forcing.amplitudes
        doubled = EvolutionProblem(
            law, problem.op,
            Forcing(amplitudes.with_samples(2.0 * amplitudes.samples), problem.forcing.profiles),
            problem.scheme)
        res2 = solution_bound_check(doubled, report, solve(doubled))
        assert res2.lhs == pytest.approx(2.0 * res1.lhs, rel=1e-12)
        assert res2.rhs == pytest.approx(2.0 * res1.rhs, rel=1e-12)


@pytest.fixture(scope="module")
def chunked_run():
    """A sweep-law march of 4097 x 126 states (16 row chunks) under a
    delayed step, and the same trajectory with noise before the step."""
    law = sweep_law(32)
    op = build_operators(Grid1D(1.0, 32))
    forcing = assemble_forcing(op, time_grid(4.0, 2**-10), 1.0, "delayed_step", "f", "bump",
                               delay=0.5)
    problem = EvolutionProblem(law, op, forcing, BACKWARD_EULER)
    trajectory = solve(problem)
    noise = 1e-3 * np.random.default_rng(5).standard_normal(trajectory.states.shape)
    noisy = Trajectory(problem, trajectory.states + noise, trajectory.aux)
    return problem, certify_wellposedness(law), trajectory, noisy


class TestRowChunkedChecks:
    """Norms, envelope and leakage taken in row chunks equal the whole-array
    formulas to the bit and need no trajectory-sized temporary."""

    def test_space_time_norms_bitwise(self, chunked_run):
        problem, _, trajectory, noisy = chunked_run
        h = problem.op.grid.h
        for traj in (trajectory, noisy):
            whole = WeightedSignal(traj.t, traj.states, problem.rho)
            assert traj.space_time_norm() == float(np.sqrt(h) * weighted_norm_whole(whole))

    def test_bound_numbers_bitwise(self, chunked_run):
        problem, report, trajectory, noisy = chunked_run
        for traj in (trajectory, noisy):
            result = solution_bound_check(problem, report, traj)
            assert (result.lhs, result.rhs, result.tail_ratio) == bound_numbers_whole(
                problem, traj, result.c_used)
            assert result.tail_ratio > 0.0

    def test_leakage_bitwise(self, chunked_run):
        problem, _, trajectory, noisy = chunked_run
        assert causality_test(problem, 0.5, trajectory).leakage == 0.0
        result = causality_test(problem, 0.5, noisy)
        assert result.leakage > 0.0
        assert result.leakage == leakage_whole(problem, 0.5, noisy)

    def test_bound_check_allocates_under_half_the_states(self, chunked_run):
        # the whole-array formulas held about three copies of the states
        problem, report, trajectory, _ = chunked_run
        check_symbol_boundary(problem.law, problem.rho)
        tracemalloc.start()
        try:
            solution_bound_check(problem, report, trajectory)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * trajectory.states.nbytes


def dense_free_problem(scheme=BACKWARD_EULER):
    """An uncoupled law under a delayed step on f: every check applies."""
    law = uncoupled_law(ModelFamily.DPL_I)
    op = build_operators(Grid1D(1.0, 16))
    forcing = assemble_forcing(op, time_grid(0.5, 2**-8), 1.0, "delayed_step", "f", "bump",
                               delay=0.125)
    return EvolutionProblem(law, op, forcing, scheme)


class TestFactoredForcing:
    def test_assemble_forcing_holds_no_dense_array(self):
        op = build_operators(Grid1D(1.0, 64))
        t = time_grid(1.0, 2**-10)
        tracemalloc.start()
        try:
            forcing = assemble_forcing(op, t, 1.0, "gaussian_pulse", "h", "mode_3",
                                       center=0.1, width=0.03)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert forcing.amplitudes.samples.shape == (t.size, 1)
        assert forcing.profiles.shape == (1, op.n_dof)
        assert peak < 0.1 * 8 * t.size * op.n_dof

    def test_no_consumer_reads_the_dense_field(self, monkeypatch):
        def refuse(self):
            raise AssertionError("the dense forcing was built")

        problem = dense_free_problem()
        monkeypatch.setattr(Forcing, "samples", property(refuse))
        trajectory = solve(problem)
        assert spectral_solve(problem).states.shape == trajectory.states.shape
        assert causality_test(problem, 0.125, trajectory).leakage == 0.0
        assert solution_bound_check(problem, certify_wellposedness(problem.law),
                                    trajectory).ok

    @pytest.mark.parametrize("scheme", [BACKWARD_EULER, TRAPEZOIDAL])
    def test_identity_profiles_march_bitwise_as_factors(self, scheme):
        problem = dense_free_problem(scheme)
        amplitudes = problem.forcing.amplitudes
        sampled = EvolutionProblem(problem.law, problem.op,
                                   sampled_forcing(amplitudes.t, rows(problem.forcing)), scheme)
        got, want = solve(sampled), solve(problem)
        assert got.states.tobytes() == want.states.tobytes()
        assert got.aux.tobytes() == want.aux.tobytes()

    def test_forcing_norm_equals_the_dense_norm(self):
        problem = dense_free_problem()
        rng = np.random.default_rng(11)
        t = problem.forcing.amplitudes.t
        wide = Forcing(WeightedSignal(t, rng.standard_normal((t.size, 3)), 1.0),
                       np.vstack([problem.forcing.profiles,
                                  rng.standard_normal((2, problem.op.n_dof))]))
        report = certify_wellposedness(problem.law)
        for forcing in (problem.forcing, wide):
            other = EvolutionProblem(problem.law, problem.op, forcing)
            result = solution_bound_check(other, report, solve(other))
            dense = np.sqrt(other.op.grid.h) * weighted_norm_whole(
                WeightedSignal(t, rows(forcing), 1.0)) / result.c_used
            assert result.rhs == pytest.approx(dense, rel=1e-14)

    def test_profiles_are_checked(self):
        amplitudes = WeightedSignal(time_grid(0.25, 2**-6), np.ones((17, 2)), 1.0)
        with pytest.raises(InputError, match=r"array of 2 rows, got \(3, 5\)"):
            Forcing(amplitudes, np.ones((3, 5)))
        with pytest.raises(InputError, match="must be a finite array"):
            Forcing(amplitudes, np.full((2, 5), np.inf))

    @pytest.mark.parametrize("delay", [np.nan, np.inf])
    def test_non_finite_delay_is_refused(self, delay):
        # (t >= nan) and (t >= inf) are all False: a zero forcing
        op = build_operators(Grid1D(1.0, 8))
        with pytest.raises(InputError, match=r"^step delay (nan|inf) is not finite$"):
            assemble_forcing(op, time_grid(0.25, 2**-6), 1.0, "delayed_step", "f", "bump",
                             delay=delay)

    @pytest.mark.parametrize("width", [np.nan, np.inf])
    def test_non_finite_width_is_named(self, width):
        # a NaN width was reported as the center's; an infinite one gave a constant
        with pytest.raises(InputError, match=r"^pulse width (nan|inf) is not finite$"):
            gaussian_pulse(time_grid(0.25, 2**-6), 0.1, width)


class TestValidation:
    def test_scheme_cannot_be_reassigned(self):
        # the problem caches its stepper: a new scheme on a solved problem
        # would march with the old scheme's step matrix
        problem = pulse_problem(uncoupled_law(ModelFamily.LORD_SHULMAN), n_cells=8,
                                dt=2**-6, t_max=0.25)
        states = solve(problem).states
        for scheme in (TRAPEZOIDAL, "bogus"):
            with pytest.raises(AttributeError, match="cannot assign to field 'scheme'"):
                problem.scheme = scheme
        assert problem.scheme == BACKWARD_EULER and problem.theta == 1.0
        assert solve(problem).states.tobytes() == states.tobytes()

    @pytest.mark.parametrize("t_max, dt", [(np.nan, 0.1), (1.0, np.nan), (np.nan, np.nan)])
    def test_time_grid_refuses_nan(self, t_max, dt):
        with pytest.raises(InputError, match="need 0 < dt < t_max"):
            time_grid(t_max, dt)

    def test_component_count_checked(self):
        law = assemble_material_law(canonical_spec(ModelFamily.CLASSICAL))
        op = build_operators(Grid1D(1.0, 8))
        t = time_grid(0.25, 2**-6)
        with pytest.raises(InputError):
            EvolutionProblem(law, op, sampled_forcing(t, np.zeros((t.size, 3))))

    def test_grid_must_start_at_zero(self):
        law = assemble_material_law(canonical_spec(ModelFamily.CLASSICAL))
        op = build_operators(Grid1D(1.0, 8))
        t = 1.0 + 2**-6 * np.arange(17)
        with pytest.raises(InputError):
            EvolutionProblem(law, op, sampled_forcing(t, np.zeros((t.size, op.n_dof))))

    def test_cell_count_mismatch(self):
        spec = ModelSpec(ModelFamily.CLASSICAL, {
            "rho0": [1.0, 2.0, 3.0], "nu": 1.0, "C": 1.0, "Gamma": 0.0, "kappa": 1.0})
        law = assemble_material_law(spec)
        op = build_operators(Grid1D(1.0, 8))
        t = time_grid(0.25, 2**-6)
        with pytest.raises(InputError):
            EvolutionProblem(law, op, sampled_forcing(t, np.zeros((t.size, op.n_dof))))
