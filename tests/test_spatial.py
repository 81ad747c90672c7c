
import numpy as np
import pytest
import scipy.sparse as sp
from conftest import operators_per_cell, verify_skew_adjoint

from thermoevo import Grid1D, build_operators, mode_decomposition
from thermoevo.errors import InputError


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


class TestOperators:
    @pytest.mark.parametrize("n_cells", [2, 64, 256])
    def test_exact_antisymmetry(self, n_cells):
        op = build_operators(Grid1D(1.0, n_cells))
        residual = op.a_h + op.a_h.T
        assert residual.nnz == 0  # entries cancel bit for bit

    def test_smallest_grid_shape(self):
        op = build_operators(Grid1D(1.0, 2))
        assert op.block_sizes == (1, 2, 1, 2)
        assert op.a_h.shape == (6, 6)

    @pytest.mark.parametrize("n_cells", [2, 3, 12, 128, 2048])
    def test_csr_arrays_equal_per_cell_assembly(self, n_cells):
        grid = Grid1D(1.0, n_cells)
        op = build_operators(grid)
        for got, want in zip((op.d_grad, op.node_to_face), operators_per_cell(grid)):
            for name in ("data", "indices", "indptr"):
                got_arr, want_arr = getattr(got, name), getattr(want, name)
                assert got_arr.dtype == want_arr.dtype
                np.testing.assert_array_equal(got_arr, want_arr)

    def test_divergence_is_negative_transpose(self):
        op = build_operators(Grid1D(1.0, 8))
        assert (op.d_div + op.d_grad.T).nnz == 0

    def test_gradient_second_order(self):
        length = 1.0
        errors = []
        for n in (32, 64, 128):
            grid = Grid1D(length, n)
            op = build_operators(grid)
            u = np.sin(np.pi * grid.nodes / length)
            exact = (np.pi / length) * np.cos(np.pi * grid.faces / length)
            errors.append(np.max(np.abs(op.d_grad @ u - exact)))
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(orders >= 1.9)

    def test_constants_in_gradient_kernel_interior(self):
        op = build_operators(Grid1D(1.0, 16))
        grad = op.d_grad @ np.ones(op.grid.n_nodes)
        assert np.all(grad[1:-1] == 0.0)

    @pytest.mark.parametrize("n_cells", [2, 64, 256])
    def test_random_pairing_residual(self, n_cells):
        op = build_operators(Grid1D(1.0, n_cells))
        assert verify_skew_adjoint(op.a_h, n_pairs=100) <= 1e-12

    def test_flipped_boundary_sign_detected(self):
        op = build_operators(Grid1D(1.0, 8))
        broken = op.a_h.tolil()
        sl = op.block_slices()
        broken[sl[1].start, 0] = -broken[sl[1].start, 0]  # one wrong sign
        assert verify_skew_adjoint(broken.tocsr(), n_pairs=100) > 1e-6

    @pytest.mark.parametrize("n_cells", [8, 32, 64])
    def test_spectrum_purely_imaginary(self, n_cells):
        op = build_operators(Grid1D(1.0, n_cells))
        eigs = np.linalg.eigvals(op.a_h.toarray())
        scale = sp.linalg.norm(op.a_h, 1)
        assert np.max(np.abs(eigs.real)) <= 1e-10 * scale


class TestModeDecomposition:
    def test_triplet_consistency(self):
        op = build_operators(Grid1D(1.0, 32))
        s, node_vecs, face_vecs, face_null = mode_decomposition(op)
        residual = op.d_grad @ node_vecs - face_vecs * s[None, :]
        assert np.max(np.abs(residual)) <= 1e-13 * s[-1]
        assert face_null.shape == (32, 1)
        assert np.max(np.abs(op.d_grad.T @ face_null)) <= 1e-13 * s[-1]

    def test_singular_values_approach_continuum(self):
        # discrete values (2/h) sin(k pi h / 2L) approximate k pi / L at O(h^2)
        length = 1.0
        for k in (1, 2, 3):
            errors = []
            for n in (32, 64, 128):
                op = build_operators(Grid1D(length, n))
                s, _, _, _ = mode_decomposition(op)
                errors.append(abs(s[k - 1] - k * np.pi / length))
            orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
            assert np.all(orders >= 1.9)

    @pytest.mark.parametrize("n_cells", [2, 3, 12, 64])
    def test_closed_form_matches_dense_svd(self, n_cells):
        op = build_operators(Grid1D(1.0, n_cells))
        s, node_vecs, face_vecs, face_null = mode_decomposition(op)
        w_mat, s_desc, vt = np.linalg.svd(op.d_grad.toarray())
        order = np.argsort(s_desc)
        np.testing.assert_allclose(s, s_desc[order], rtol=1e-13)
        # singular vectors are unique up to sign; the closed form fixes it
        sign = np.sign(np.sum(node_vecs * vt[order].T, axis=0))
        assert np.max(np.abs(node_vecs - sign * vt[order].T)) <= 1e-12
        assert np.max(np.abs(face_vecs - sign * w_mat[:, order])) <= 1e-12
        null_ref = w_mat[:, n_cells - 1:]
        assert np.max(np.abs(face_null - np.sign(null_ref[0]) * null_ref)) <= 1e-13
        assert np.all(node_vecs[0] > 0)

    def test_exact_discrete_formula(self):
        n = 64
        op = build_operators(Grid1D(1.0, n))
        s, _, _, _ = mode_decomposition(op)
        k = np.arange(1, n)
        want = 2 * n * np.sin(k * np.pi / (2 * n))
        np.testing.assert_allclose(s, want, rtol=1e-13)
