import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.linalg import expm

from conftest import mass_matrix_lil, simpson_weights, skew_operator, spec_with, uncoupled_law
from thermoevo import (
    BACKWARD_EULER,
    EvolutionProblem,
    Grid1D,
    ModelFamily,
    ModelSpec,
    Trajectory,
    WeightedSignal,
    assemble_forcing,
    assemble_material_law,
    build_operators,
    canonical_spec,
    compare,
    mode_decomposition,
    solve,
    spectral_solve,
    time_grid,
)
from thermoevo.errors import OracleRejectionError
from thermoevo.forcing import spatial_profile
from thermoevo import oracle
from thermoevo import _integrators
from thermoevo._integrators import phi_matrices
from thermoevo.oracle import _mode_systems, _not_a_knot_coefficients


def mode_problem(law, n_cells=16, dt=2**-9, t_max=0.5, profile="mode_1",
                 scheme=BACKWARD_EULER, block="h"):
    op = build_operators(Grid1D(1.0, n_cells))
    t = time_grid(t_max, dt)
    forcing = assemble_forcing(op, t, 1.0, "gaussian_pulse", block, profile,
                               center=0.1, width=0.03)
    return EvolutionProblem(law, op, forcing, scheme)


def physical_system(problem):
    """Dense E z' + K z = (f, 0) over the field unknowns and aux states z."""
    chain = problem.aux_chain
    n, n_aux = problem.op.n_dof, chain.n_aux
    e_mat = np.eye(n + n_aux)
    e_mat[:n, :n] = mass_matrix_lil(problem).toarray()
    k_mat = np.zeros((n + n_aux, n + n_aux))
    k_mat[:n, :n] = np.diag(problem.feedthrough) + skew_operator(problem.op.grid).toarray()
    aux = n + np.arange(n_aux)
    k_mat[chain.owner, aux] = chain.gain_out
    k_mat[aux, chain.owner] = -chain.gain_in
    k_mat[aux, aux] = -chain.poles
    return e_mat, k_mat


def simpson_march(problem, substeps):
    """Field states from Simpson exponential substeps through the cubic
    spline of the forcing, with the massless rows of an uncoupled (diagonal
    mass) law eliminated exactly: the oracle's former time stepping."""
    e_mat, k_mat = physical_system(problem)
    lam = np.diag(e_mat)
    null = lam == 0.0
    n = problem.op.n_dof
    t = problem.forcing.t
    k_nn_inv = np.linalg.inv(k_mat[np.ix_(null, null)])
    k_rn = k_mat[np.ix_(~null, null)]
    k_nr = k_mat[np.ix_(null, ~null)]
    flow = -(k_mat[np.ix_(~null, ~null)] - k_rn @ k_nn_inv @ k_nr) / lam[~null, None]

    def full(values):
        out = np.zeros(values.shape[:-1] + (lam.size,))
        out[..., :n] = values
        return out

    def reduced(values):
        g = full(values)
        return (g[..., ~null] - g[..., null] @ (k_rn @ k_nn_inv).T) / lam[~null]

    h = problem.dt / substeps
    n_fine = substeps * (t.size - 1)
    spline = CubicSpline(t, problem.forcing.samples, axis=0)
    g_fine = reduced(spline(t[0] + h * np.arange(2 * n_fine + 1) / 2.0))
    prop, w0, wm, w1 = simpson_weights(flow, h)
    w = np.zeros(flow.shape[0])
    w_coarse = np.zeros((t.size, w.size))
    for j in range(n_fine):
        w = prop @ w + w0 @ g_fine[2 * j] + wm @ g_fine[2 * j + 1] + w1 @ g_fine[2 * j + 2]
        if (j + 1) % substeps == 0:
            w_coarse[(j + 1) // substeps] = w
    z = np.zeros((t.size, lam.size))
    z[:, ~null] = w_coarse
    z[:, null] = (full(problem.forcing.samples)[:, null] - w_coarse @ k_nr.T) @ k_nn_inv.T
    return z[:, :n]


class TestRejections:
    def test_coupled_mass_rejected(self):
        law = assemble_material_law(canonical_spec(ModelFamily.LORD_SHULMAN))
        with pytest.raises(OracleRejectionError):
            spectral_solve(mode_problem(law))

    def test_varying_coefficients_rejected(self):
        spec = ModelSpec(ModelFamily.CLASSICAL, {
            "rho0": list(np.linspace(1, 2, 16)), "nu": 1.0, "C": 1.0,
            "Gamma": 0.0, "kappa": 1.0})
        law = assemble_material_law(spec)
        with pytest.raises(OracleRejectionError):
            spectral_solve(mode_problem(law))

    def test_not_index_one_reducible_rejected(self):
        # nu = 0 and no temperature damping: the algebraic theta row's block
        # is singular in every mode
        law = assemble_material_law(ModelSpec(ModelFamily.CUSTOM, {
            "rho0": 1.0, "nu": 0.0, "C": 1.0, "Gamma": 0.0, "a0": 1.0, "a2": 1.0}))
        with pytest.raises(OracleRejectionError, match="not index-1 reducible"):
            spectral_solve(mode_problem(law, n_cells=8))

    def test_flux_block_forcing_rejected(self):
        law = uncoupled_law(ModelFamily.CLASSICAL)
        problem = mode_problem(law, n_cells=8)
        samples = problem.forcing.samples.copy()
        samples[:, problem.op.block_slices()[3]] = 1e-3
        bad = EvolutionProblem(law, problem.op,
                               WeightedSignal(problem.forcing.t, samples, 1.0))
        with pytest.raises(OracleRejectionError):
            spectral_solve(bad)


class TestSpline:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 257])
    @pytest.mark.parametrize("dt", [2**-10, 0.1])
    def test_coefficients_equal_cubic_spline(self, n, dt):
        x = dt * np.arange(n)
        y = np.random.default_rng(n).standard_normal((n, 6))
        assert np.array_equal(_not_a_knot_coefficients(x, y), CubicSpline(x, y, axis=0).c)


class TestModeSystems:
    def test_structure(self):
        law = uncoupled_law(ModelFamily.DPL_I)
        problem = mode_problem(law, n_cells=8)
        systems = _mode_systems(problem, mode_decomposition(problem.op)[0])
        assert systems.wavenumbers.shape == (7,)
        assert systems.k_matrix.shape[0] == 7
        for k_mat in systems.k_matrix:
            a_part = k_mat[:4, :4] - np.diag(np.diag(k_mat[:4, :4]))
            assert np.max(np.abs(a_part + a_part.T)) == 0.0
        assert np.max(np.abs(systems.e_matrix - systems.e_matrix.T)) == 0.0

    def test_zero_forcing_zero_output(self):
        law = uncoupled_law(ModelFamily.CLASSICAL)
        op = build_operators(Grid1D(1.0, 8))
        t = time_grid(0.25, 2**-7)
        problem = EvolutionProblem(law, op,
                                   WeightedSignal(t, np.zeros((t.size, op.n_dof)), 1.0))
        traj = spectral_solve(problem)
        assert np.all(traj.states == 0.0)

    def test_single_mode_confinement(self):
        law = uncoupled_law(ModelFamily.LORD_SHULMAN)
        problem = mode_problem(law, n_cells=16, profile="mode_3")
        traj = spectral_solve(problem)
        _, node_vecs, _ = mode_decomposition(problem.op)
        theta_modes = traj.block("theta_big").samples @ node_vecs
        energy = np.sum(theta_modes**2, axis=0)
        others = np.delete(energy, 2)
        assert np.max(others) <= 1e-12 * energy[2]

    def test_one_mode_decomposition_per_solve(self, monkeypatch):
        calls = []

        def counting(op):
            calls.append(op)
            return mode_decomposition(op)

        monkeypatch.setattr(oracle, "mode_decomposition", counting)
        spectral_solve(mode_problem(uncoupled_law(ModelFamily.DPL_I), n_cells=8))
        assert len(calls) == 1

    def test_one_phi_matrices_call_per_solve(self, monkeypatch):
        calls = []

        def counting(a, order):
            calls.append(a.shape)
            return phi_matrices(a, order)

        monkeypatch.setattr(oracle, "phi_matrices", counting)
        spectral_solve(mode_problem(uncoupled_law(ModelFamily.DPL_I), n_cells=8))
        assert len(calls) == 1
        assert len(calls[0]) == 3  # one stack over the modes

    def test_spline_carries_two_columns_per_active_mode(self, monkeypatch):
        # only the v and theta mode coefficients are splined; the symmetric
        # bump excites the 4 odd modes of the 7
        widths = []

        def recording(x, y):
            widths.append(y.shape[1])
            return _not_a_knot_coefficients(x, y)

        monkeypatch.setattr(oracle, "_not_a_knot_coefficients", recording)
        spectral_solve(mode_problem(uncoupled_law(ModelFamily.DPL_I), n_cells=8,
                                    profile="bump"))
        assert widths == [2 * 4]

    @pytest.mark.parametrize("spec", [
        spec_with(ModelFamily.GREEN_NAGHDI_III, Gamma=0.0),
        # nu = 0: the forced theta row is algebraic (a1 makes it index-1)
        ModelSpec(ModelFamily.CUSTOM, {
            "rho0": 1.0, "nu": 0.0, "C": 1.0, "Gamma": 0.0, "a0": 1.0, "a1": 1.0, "a2": 1.0}),
    ], ids=["green_naghdi_iii", "custom_algebraic_theta"])
    @pytest.mark.parametrize("substeps", [64, 128])
    def test_matches_simpson_substep_march(self, substeps, spec):
        problem = mode_problem(assemble_material_law(spec), n_cells=8, dt=2**-8, t_max=0.25)
        states = spectral_solve(problem).states
        reference = simpson_march(problem, substeps)
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(states - reference)) <= 1e-9 * scale


class TestPhiMatrices:
    @pytest.mark.parametrize("order", [1, 4])
    def test_stack_equals_single_calls(self, order):
        a = np.random.default_rng(order).standard_normal((5, 6, 6))
        a[1] *= 40.0  # another scaling-and-squaring depth than its neighbours
        stacked = phi_matrices(a, order)
        for m in range(a.shape[0]):
            for got, want in zip(stacked, phi_matrices(a[m], order)):
                assert np.array_equal(got[m], want)


class TestExpm:
    @pytest.mark.parametrize("scale, tol", [(1e-3, 1e-15), (1.0, 1e-14), (8.0, 1e-13)])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_scipy(self, scale, tol, dtype, rng):
        a = scale * rng.standard_normal((6, 7, 7))
        if dtype is complex:
            a = a + 1j * scale * rng.standard_normal((6, 7, 7))
        got, want = _integrators.expm(a), expm(a)
        assert got.dtype == want.dtype
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))

    def test_upper_triangular_diagonal_is_exp(self, rng):
        # a march multiplies by this diagonal once per step
        a = np.triu(rng.standard_normal((4, 5, 5)))
        a[:, 0, 0] = -2.0**-12 / 1e4
        a[1] *= 40.0
        got = _integrators.expm(a)
        np.testing.assert_array_equal(np.diagonal(got, axis1=1, axis2=2),
                                      np.exp(np.diagonal(a, axis1=1, axis2=2)))
        assert np.max(np.abs(got - expm(a))) <= 1e-13 * np.max(np.abs(expm(a)))

    def test_empty_and_zero(self):
        assert _integrators.expm(np.zeros((3, 0, 0))).shape == (3, 0, 0)
        np.testing.assert_array_equal(_integrators.expm(np.zeros((2, 2))), np.eye(2))


class TestExactness:
    @pytest.mark.parametrize("family", [ModelFamily.LORD_SHULMAN, ModelFamily.DPL_II])
    def test_cubic_forcing_matches_matrix_exponential(self, family):
        # a cubic in time is its own spline interpolant, so the oracle must
        # reproduce the exact semidiscrete solution: the exponential of the
        # system augmented by the monomials m_j = t^j / j! (m_j' = m_(j-1))
        law = uncoupled_law(family)
        op = build_operators(Grid1D(1.0, 8))
        t = time_grid(0.25, 2**-6)
        poly = np.array([0.0, 1.0, -3.0, 5.0])
        space = np.zeros(op.n_dof)
        space[op.block_slices()[2]] = spatial_profile(op, "mode_2")
        amplitude = sum(c * t**j for j, c in enumerate(poly))
        problem = EvolutionProblem(law, op, WeightedSignal(t, np.outer(amplitude, space), 1.0))
        traj = spectral_solve(problem)

        e_mat, k_mat = physical_system(problem)
        size = e_mat.shape[0]
        aug = np.zeros((size + 4, size + 4))
        aug[:size, :size] = -np.linalg.solve(e_mat, k_mat)
        drive = np.linalg.solve(e_mat, np.concatenate([space, np.zeros(size - op.n_dof)]))
        aug[:size, size:] = np.outer(drive, poly * [1.0, 1.0, 2.0, 6.0])
        aug[size + np.arange(1, 4), size + np.arange(3)] = 1.0
        start = np.zeros(size + 4)
        start[size] = 1.0
        exact = np.array([expm(tk * aug) @ start for tk in t])[:, :size]
        got = np.hstack([traj.states, traj.aux])
        assert np.max(np.abs(got - exact)) <= 1e-12 * np.max(np.abs(exact))


class TestCompare:
    def test_identical_trajectories(self):
        law = uncoupled_law(ModelFamily.CLASSICAL)
        problem = mode_problem(law, n_cells=8, dt=2**-7, t_max=0.25)
        traj = solve(problem)
        result = compare(traj, traj)
        assert result.overall == 0.0
        assert all(v == 0.0 for v in result.per_field.values())

    def test_negation_gives_two(self):
        law = uncoupled_law(ModelFamily.CLASSICAL)
        problem = mode_problem(law, n_cells=8, dt=2**-7, t_max=0.25)
        traj = solve(problem)
        negated = Trajectory(problem, -traj.states, -traj.aux)
        assert compare(negated, traj).overall == pytest.approx(2.0, rel=1e-12)

    def test_grid_mismatch_rejected(self):
        law = uncoupled_law(ModelFamily.CLASSICAL)
        p1 = mode_problem(law, n_cells=8, dt=2**-7, t_max=0.25)
        p2 = mode_problem(law, n_cells=8, dt=2**-6, t_max=0.25)
        from thermoevo.errors import InputError

        with pytest.raises(InputError):
            compare(solve(p1), solve(p2))


class TestAgainstSolver:
    @pytest.mark.parametrize("family", [
        ModelFamily.CLASSICAL,
        ModelFamily.LORD_SHULMAN,
        ModelFamily.GREEN_NAGHDI_II,
        ModelFamily.GREEN_NAGHDI_III,
        ModelFamily.DPL_I,
        ModelFamily.DPL_II,
        ModelFamily.GREEN_NAGHDI_I,
    ])
    def test_backward_euler_small_grid(self, family):
        law = uncoupled_law(family)
        problem = mode_problem(law, n_cells=8, dt=2**-9, t_max=0.5)
        error = compare(solve(problem), spectral_solve(problem)).overall
        assert error <= 2e-2

    def test_lag_family_without_flux_coupling(self):
        # zero coupling strength also removes the flux-temperature block
        law = assemble_material_law(spec_with(ModelFamily.GREEN_LINDSAY,
                                              Gamma=0.0, b=0.0))
        problem = mode_problem(law, n_cells=8, dt=2**-9, t_max=0.5)
        error = compare(solve(problem), spectral_solve(problem)).overall
        assert error <= 2e-2

    def test_temporal_order_backward_euler(self):
        law = uncoupled_law(ModelFamily.LORD_SHULMAN)
        fine = mode_problem(law, n_cells=8, dt=2**-9, t_max=0.5)
        reference = spectral_solve(fine)
        errors = []
        for stride in (4, 2, 1):
            t = fine.forcing.t[::stride]
            problem = EvolutionProblem(
                law, fine.op,
                WeightedSignal(t, fine.forcing.samples[::stride], 1.0))
            sub = Trajectory(problem, reference.states[::stride], reference.aux[::stride])
            errors.append(compare(solve(problem), sub).overall)
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(orders >= 0.9)

    def test_fine_resolution_classical(self):
        # matches the marching solution to 1e-3 at 256 cells, dt = 2^-12
        law = uncoupled_law(ModelFamily.CLASSICAL)
        problem = mode_problem(law, n_cells=256, dt=2**-12, t_max=1.0)
        op = problem.op
        t = time_grid(1.0, 2**-12)
        forcing = assemble_forcing(op, t, 1.0, "gaussian_pulse", "h", "mode_1",
                                   center=0.3, width=0.1)
        problem = EvolutionProblem(law, op, forcing, BACKWARD_EULER)
        error = compare(solve(problem), spectral_solve(problem)).overall
        assert error <= 1e-3
        assert np.all(np.isfinite(solve(problem).states))
