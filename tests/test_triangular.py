import tracemalloc

import numpy as np
import pytest

from ceslab import InvalidDimensionError, LowerTriangularMatrix, apply, cesaro_matrix
from conftest import cesaro_section, random_triangular, random_vector


def dense_from_generators(A):
    """Oracle: d on the diagonal, u_i v_j exp(shift_b(j) - shift_b(i)) below it."""
    block = np.searchsorted(A.starts, np.arange(A.n), side="right") - 1
    scale = np.cumprod(A.ratios)[block]  # exp(shift_0 - shift_b(k))
    strict = np.tril(np.outer(A.u * scale, A.v / scale), k=-1)
    return strict + np.diag(A.d)


class TestConstruction:
    def test_zero_size_rejected(self):
        with pytest.raises(InvalidDimensionError):
            cesaro_matrix(0)
        with pytest.raises(InvalidDimensionError):
            LowerTriangularMatrix(np.zeros(0), np.zeros(0), np.zeros(0))

    def test_factor_lengths_enforced(self):
        with pytest.raises(InvalidDimensionError):
            LowerTriangularMatrix(np.zeros(3), np.zeros(3), np.zeros(2))
        with pytest.raises(InvalidDimensionError):
            LowerTriangularMatrix(np.zeros(3), np.zeros(4), np.zeros(3))

    def test_nonfinite_entries_rejected(self):
        ones = np.ones(2, dtype=complex)
        with pytest.raises(ValueError):
            LowerTriangularMatrix(np.array([1.0, np.nan]), ones, ones)
        with pytest.raises(ValueError):
            LowerTriangularMatrix(ones, ones, np.array([1.0, np.inf * 1j]))

    def test_entry_above_diagonal_is_zero(self):
        C = cesaro_matrix(3).dense()
        assert C[0, 2] == 0
        assert C[1, 0] == 0.5

    @pytest.mark.parametrize("blocks", [1, 3])
    def test_dense_matches_generator_entries(self, rng, blocks):
        A = random_triangular(rng, 12, blocks=blocks)
        np.testing.assert_allclose(A.dense(), dense_from_generators(A), rtol=1e-14)

    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("blocks", [1, 3])
    def test_dense_is_the_product_with_identity(self, rng, blocks, real):
        # bit for bit: the ratios are carried in the order a running sum applies them
        A = random_triangular(rng, 30, real=real, blocks=blocks)
        expected = A.matvec(np.eye(30))
        dense = A.dense()
        assert dense.dtype == expected.dtype
        np.testing.assert_array_equal(dense, expected)

    @pytest.mark.parametrize("real", [False, True])
    def test_dense_allocates_little_beyond_its_result(self, rng, real):
        A = random_triangular(rng, 512, real=real, blocks=2)
        tracemalloc.start()
        try:
            dense = A.dense()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * dense.nbytes


class TestCesaroMatrix:
    def test_size_one(self):
        np.testing.assert_array_equal(cesaro_matrix(1).dense(), [[1.0]])

    def test_size_three_rows(self):
        C = cesaro_matrix(3).dense()
        np.testing.assert_array_equal(C[0], [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(C[1], [0.5, 0.5, 0.0])
        np.testing.assert_array_equal(C[2], [1 / 3, 1 / 3, 1 / 3])

    def test_matches_plain_numpy_section(self):
        np.testing.assert_array_equal(cesaro_matrix(40).dense(), cesaro_section(40))


class TestApply:
    def test_constant_sequence_fixed(self):
        y = apply(cesaro_matrix(2), np.ones(2))
        np.testing.assert_array_equal(y, np.ones(2))

    def test_first_basis_vector(self):
        y = apply(cesaro_matrix(3), [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(y, [1.0, 0.5, 1 / 3])

    def test_identity(self, rng):
        x = random_vector(rng, 9)
        identity = LowerTriangularMatrix(np.ones(9), np.zeros(9), np.zeros(9))
        np.testing.assert_array_equal(apply(identity, x), x)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidDimensionError):
            apply(cesaro_matrix(3), np.ones(4))

    def test_matches_dense_product(self, rng):
        for blocks in (1, 2):
            A = random_triangular(rng, 20, blocks=blocks)
            x = random_vector(rng, 20)
            M = dense_from_generators(A)
            np.testing.assert_allclose(apply(A, x), M @ x, rtol=1e-13)
            np.testing.assert_allclose(A.rmatvec(x), M.conj().T @ x, rtol=1e-13)


class TestModulus:
    def test_positive_matrix_fixed(self):
        C = cesaro_matrix(4)
        np.testing.assert_array_equal(C.modulus().dense(), C.dense())

    def test_mixed_entries(self):
        B = LowerTriangularMatrix(np.array([-1.0, -2.0]), np.array([0.0, 1j]), np.ones(2))
        np.testing.assert_array_equal(B.modulus().dense(), [[1.0, 0.0], [1.0, 2.0]])

    def test_application_domination(self, rng):
        # |Bx| <= |B| |x| coordinatewise: the inequality chain behind
        # transferring continuity from a dominating positive matrix
        for blocks in (1, 2) * 5:
            B = random_triangular(rng, 15, blocks=blocks)
            x = random_vector(rng, 15)
            lhs = np.abs(apply(B, x))
            rhs = apply(B.modulus(), np.abs(x)).real
            assert np.all(lhs <= rhs + 1e-12 * rhs.max())


class TestDominates:
    def test_modulus_dominates_source(self, rng):
        B = random_triangular(rng, 12, blocks=2)
        absB = B.modulus().dense()
        assert np.all(absB.imag == 0)
        assert np.all(np.abs(B.dense()) <= absB.real + 1e-12)
