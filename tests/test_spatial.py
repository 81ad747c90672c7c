
import numpy as np
import pytest
import scipy.sparse as sp
from conftest import band_of, cell_order, from_band, operators_per_cell, skew_operator, \
    verify_skew_adjoint

from thermoevo import Grid1D, build_operators, mode_decomposition
from thermoevo.errors import InputError
from thermoevo.evolution import skew_band


def block_operator(op):
    """A_h as a CSR matrix in block order, read from the stepper's band."""
    return from_band(skew_band(op), cell_order(op))


class TestGrid:
    def test_counts_and_positions(self):
        grid = Grid1D(2.0, 4)
        assert grid.h == 0.5
        assert grid.n_nodes == 3 and grid.n_faces == 4
        np.testing.assert_allclose(grid.nodes, [0.5, 1.0, 1.5])
        np.testing.assert_allclose(grid.faces, [0.25, 0.75, 1.25, 1.75])

    def test_validation(self):
        with pytest.raises(InputError):
            Grid1D(-1.0, 4)
        with pytest.raises(InputError):
            Grid1D(1.0, 1)


#: (n_cells, length) of the closed-form checks against the per-cell assembly
GRIDS = [(n, length) for n in (2, 3, 17, 128) for length in (1.0, 0.3)]
#: the same plus one large grid, for the checks that need no dense matrix
LARGE_GRIDS = [*GRIDS, (2048, 1.0)]


class TestOperators:
    @pytest.mark.parametrize("n_cells", [2, 64, 256])
    def test_exact_antisymmetry(self, n_cells):
        a_h = block_operator(build_operators(Grid1D(1.0, n_cells)))
        residual = a_h + a_h.T
        assert residual.nnz == 0  # entries cancel bit for bit

    def test_smallest_grid_shape(self):
        op = build_operators(Grid1D(1.0, 2))
        assert op.block_sizes == (1, 2, 1, 2)
        assert skew_band(op).shape == (9, 6)

    @pytest.mark.parametrize("n_cells, length", LARGE_GRIDS)
    def test_actions_equal_per_cell_assembly(self, n_cells, length):
        grid = Grid1D(length, n_cells)
        op = build_operators(grid)
        d_grad, node_to_face = operators_per_cell(grid)
        rng = np.random.default_rng(n_cells)
        nodes = rng.standard_normal((5, n_cells - 1))
        faces = rng.standard_normal((5, n_cells))
        # time-major fields map row by row; a single vector maps alone
        for got, want in [(op.grad(nodes), (d_grad @ nodes.T).T),
                          (op.node_to_face(nodes), (node_to_face @ nodes.T).T),
                          (op.face_to_node(faces), (node_to_face.T @ faces.T).T),
                          (op.grad(nodes[0]), d_grad @ nodes[0]),
                          (op.face_to_node(faces[0]), node_to_face.T @ faces[0])]:
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n_cells, length", GRIDS)
    def test_face_to_node_is_transpose(self, n_cells, length):
        op = build_operators(Grid1D(length, n_cells))
        # row j of each is the image of the j-th unit vector
        to_faces = op.node_to_face(np.eye(n_cells - 1))
        to_nodes = op.face_to_node(np.eye(n_cells))
        np.testing.assert_array_equal(to_faces, to_nodes.T)

    @pytest.mark.parametrize("n_cells, length", LARGE_GRIDS)
    def test_skew_band_equals_per_cell_assembly(self, n_cells, length):
        op = build_operators(Grid1D(length, n_cells))
        band = skew_band(op)
        np.testing.assert_array_equal(band, band_of(skew_operator(op.grid), cell_order(op)))
        # entry (i, j) sits at [4 + i - j, j]: the mirror of each diagonal is its negation
        for offset in range(1, 5):
            np.testing.assert_array_equal(band[4 - offset, offset:], -band[4 + offset, :-offset])
        assert not band[4].any()

    def test_gradient_second_order(self):
        length = 1.0
        errors = []
        for n in (32, 64, 128):
            grid = Grid1D(length, n)
            op = build_operators(grid)
            u = np.sin(np.pi * grid.nodes / length)
            exact = (np.pi / length) * np.cos(np.pi * grid.faces / length)
            errors.append(np.max(np.abs(op.grad(u) - exact)))
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(orders >= 1.9)

    def test_constants_in_gradient_kernel_interior(self):
        op = build_operators(Grid1D(1.0, 16))
        grad = op.grad(np.ones(op.grid.n_nodes))
        assert np.all(grad[1:-1] == 0.0)

    @pytest.mark.parametrize("n_cells", [2, 64, 256])
    def test_random_pairing_residual(self, n_cells):
        op = build_operators(Grid1D(1.0, n_cells))
        assert verify_skew_adjoint(block_operator(op), n_pairs=100) <= 1e-12

    def test_flipped_boundary_sign_detected(self):
        op = build_operators(Grid1D(1.0, 8))
        broken = block_operator(op).tolil()
        sl = op.block_slices()
        broken[sl[1].start, 0] = -broken[sl[1].start, 0]  # one wrong sign
        assert verify_skew_adjoint(broken.tocsr(), n_pairs=100) > 1e-6

    @pytest.mark.parametrize("n_cells", [8, 32, 64])
    def test_spectrum_purely_imaginary(self, n_cells):
        op = build_operators(Grid1D(1.0, n_cells))
        a_h = block_operator(op)
        eigs = np.linalg.eigvals(a_h.toarray())
        scale = sp.linalg.norm(a_h, 1)
        assert np.max(np.abs(eigs.real)) <= 1e-10 * scale


class TestModeDecomposition:
    def test_triplet_consistency(self):
        op = build_operators(Grid1D(1.0, 32))
        s, node_vecs, face_vecs = mode_decomposition(op)
        residual = op.grad(node_vecs.T).T - face_vecs * s[None, :]
        assert np.max(np.abs(residual)) <= 1e-13 * s[-1]

    def test_singular_values_approach_continuum(self):
        # discrete values (2/h) sin(k pi h / 2L) approximate k pi / L at O(h^2)
        length = 1.0
        for k in (1, 2, 3):
            errors = []
            for n in (32, 64, 128):
                op = build_operators(Grid1D(length, n))
                s, _, _ = mode_decomposition(op)
                errors.append(abs(s[k - 1] - k * np.pi / length))
            orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
            assert np.all(orders >= 1.9)

    @pytest.mark.parametrize("n_cells", [2, 3, 12, 64])
    def test_closed_form_matches_dense_svd(self, n_cells):
        op = build_operators(Grid1D(1.0, n_cells))
        s, node_vecs, face_vecs = mode_decomposition(op)
        w_mat, s_desc, vt = np.linalg.svd(operators_per_cell(op.grid)[0].toarray())
        order = np.argsort(s_desc)
        np.testing.assert_allclose(s, s_desc[order], rtol=1e-13)
        # singular vectors are unique up to sign; the closed form fixes it
        sign = np.sign(np.sum(node_vecs * vt[order].T, axis=0))
        assert np.max(np.abs(node_vecs - sign * vt[order].T)) <= 1e-12
        assert np.max(np.abs(face_vecs - sign * w_mat[:, order])) <= 1e-12
        assert np.all(node_vecs[0] > 0)

    def test_exact_discrete_formula(self):
        n = 64
        op = build_operators(Grid1D(1.0, n))
        s, _, _ = mode_decomposition(op)
        k = np.arange(1, n)
        want = 2 * n * np.sin(k * np.pi / (2 * n))
        np.testing.assert_allclose(s, want, rtol=1e-13)
