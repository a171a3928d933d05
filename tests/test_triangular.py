import numpy as np
import pytest

from ceslab import (
    InvalidDimensionError,
    LowerTriangularMatrix,
    apply,
    cesaro_matrix,
    dominates,
    modulus,
)
from conftest import random_triangular, random_vector

class TestConstruction:
    def test_zero_size_rejected(self):
        with pytest.raises(InvalidDimensionError):
            cesaro_matrix(0)
        with pytest.raises(InvalidDimensionError):
            LowerTriangularMatrix.zeros(0)

    def test_packed_length_enforced(self):
        with pytest.raises(InvalidDimensionError):
            LowerTriangularMatrix(3, np.zeros(5, dtype=complex))

    def test_nonfinite_entries_rejected(self):
        data = np.array([1.0, np.nan, 1.0], dtype=complex)
        with pytest.raises(ValueError):
            LowerTriangularMatrix(2, data)
        data = np.array([1.0, np.inf * 1j, 1.0], dtype=complex)
        with pytest.raises(ValueError):
            LowerTriangularMatrix(2, data)

    def test_entry_above_diagonal_is_zero(self):
        C = cesaro_matrix(3)
        assert C.entry(0, 2) == 0
        assert C.entry(1, 0) == 0.5

    def test_from_dense_round_trip(self, rng):
        A = random_triangular(rng, 7)
        assert LowerTriangularMatrix.from_dense(A.dense()) == A

    def test_from_dense_rejects_upper_junk(self):
        bad = np.eye(3, dtype=complex)
        bad[0, 2] = 1.0
        with pytest.raises(ValueError):
            LowerTriangularMatrix.from_dense(bad)


class TestCesaroMatrix:
    def test_size_one(self):
        np.testing.assert_array_equal(cesaro_matrix(1).dense(), [[1.0]])

    def test_size_three_rows(self):
        C = cesaro_matrix(3)
        np.testing.assert_array_equal(C.row(0), [1.0])
        np.testing.assert_array_equal(C.row(1), [0.5, 0.5])
        np.testing.assert_array_equal(C.row(2), [1 / 3, 1 / 3, 1 / 3])


class TestApply:
    def test_constant_sequence_fixed(self):
        y = apply(cesaro_matrix(2), np.ones(2))
        np.testing.assert_array_equal(y, np.ones(2))

    def test_first_basis_vector(self):
        y = apply(cesaro_matrix(3), [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(y, [1.0, 0.5, 1 / 3])

    def test_identity(self, rng):
        x = random_vector(rng, 9)
        np.testing.assert_array_equal(apply(LowerTriangularMatrix.identity(9), x), x)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidDimensionError):
            apply(cesaro_matrix(3), np.ones(4))

    def test_matches_dense_product(self, rng):
        A = random_triangular(rng, 20)
        x = random_vector(rng, 20)
        np.testing.assert_allclose(apply(A, x), A.dense() @ x, rtol=1e-13)


class TestModulus:
    def test_positive_matrix_fixed(self):
        C = cesaro_matrix(4)
        assert modulus(C) == C

    def test_mixed_entries(self):
        B = LowerTriangularMatrix(2, np.array([-1.0, 1j, -2.0]))
        np.testing.assert_array_equal(modulus(B).data, [1.0, 1.0, 2.0])

    def test_application_domination(self, rng):
        # |Bx| <= |B| |x| coordinatewise: the inequality chain behind
        # transferring continuity from a dominating positive matrix
        for _ in range(10):
            B = random_triangular(rng, 15)
            x = random_vector(rng, 15)
            lhs = np.abs(apply(B, x))
            rhs = apply(modulus(B), np.abs(x)).real
            assert np.all(lhs <= rhs + 1e-12 * rhs.max())


class TestDominates:
    def test_modulus_dominates_source(self, rng):
        B = random_triangular(rng, 12)
        assert dominates(modulus(B), B)

    def test_zero_fails_on_nonzero(self):
        B = LowerTriangularMatrix(2, np.array([0.0, 0.5, 0.0]))
        assert not dominates(LowerTriangularMatrix.zeros(2), B)

    def test_requires_real_entries(self):
        A = LowerTriangularMatrix(1, np.array([1j]))
        with pytest.raises(ValueError):
            dominates(A, A)

    def test_size_mismatch(self):
        with pytest.raises(InvalidDimensionError):
            dominates(cesaro_matrix(2), cesaro_matrix(3))
