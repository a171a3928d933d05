import tracemalloc

import numpy as np
import pytest

from ceslab import (
    InvalidDimensionError,
    LowerTriangularMatrix,
    apply,
    cesaro_matrix,
    stack,
)
from ceslab.triangular import row_spans
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
        expected = A.matvec(np.eye(30)).T
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


class TestRowBlock:
    """A row block is the slice of the dense form, bit for bit, at every height and width."""

    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("blocks", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 30, 31])
    def test_equals_dense_slices(self, rng, n, blocks, real):
        A = random_triangular(rng, n, real=real, blocks=min(blocks, n))
        dense = A.dense()
        # the product with I carries the ratios in the order of a running sum
        np.testing.assert_array_equal(dense, A.matvec(np.eye(n)).T)
        for height in sorted({1, min(7, n), n}):
            for lo in range(0, n, height):
                hi = min(lo + height, n)
                for cols in sorted({0, 1, lo, hi - 1, hi, n}):
                    block = A.row_block(lo, hi, cols)
                    assert block.shape == (hi - lo, cols) and block.dtype == dense.dtype
                    np.testing.assert_array_equal(block, dense[lo:hi, :cols])
        np.testing.assert_array_equal(A.row_block(0, n, n), dense)


class TestRowSpans:
    @pytest.mark.parametrize("first", [0, 1])
    @pytest.mark.parametrize("itemsize", [8, 16])
    # budgets below one row (1 B; 100 B at n = 300), of 7 rows and a few bytes, and the default
    @pytest.mark.parametrize("budget", [1, 100, 7 * 8 * 300 + 5, 1 << 18])
    @pytest.mark.parametrize("n", [1, 2, 300])
    def test_cover_the_rows_once_in_order(self, monkeypatch, n, budget, itemsize, first):
        import ceslab.triangular

        monkeypatch.setattr(ceslab.triangular, "_ROW_BLOCK_BYTES", budget)
        spans = list(row_spans(n, itemsize, first))
        assert [i for lo, hi in spans for i in range(lo, hi)] == list(range(first, n))
        most = max(1, budget // (itemsize * n))
        assert all(1 <= hi - lo <= most for lo, hi in spans)


class TestStack:
    """A stack's products are its matrices' own products, bit for bit."""

    # (blocks, real): scale blocks start at 0, 10, 15 and 20 for n = 31
    KINDS = [(1, False), (2, True), (3, False), (2, False), (3, True)]

    def matrices(self, rng, n):
        return [random_triangular(rng, n, real=r, blocks=b) for b, r in self.KINDS]

    @pytest.mark.parametrize("real_x", [False, True])
    def test_rows_are_the_single_products(self, rng, real_x):
        ms = self.matrices(rng, 31)
        S = stack(ms)
        assert S.starts == (0, 10, 15, 20)
        X = rng.standard_normal((4, len(ms), 31))
        if not real_x:
            X = X + 1j * rng.standard_normal(X.shape)
        forward, adjoint = S.matvec(X), S.rmatvec(X)
        for i, A in enumerate(ms):
            np.testing.assert_array_equal(forward[:, i], A.matvec(X[:, i]))
            np.testing.assert_array_equal(adjoint[:, i], A.rmatvec(X[:, i]))

    @pytest.mark.parametrize(
        "rows", [np.array([4, 0, 2]), np.array([True, False, True, True, False])]
    )
    def test_indexing_gives_a_fresh_stack(self, rng, rows):
        ms = self.matrices(rng, 31)
        S = stack(ms)
        chosen = np.arange(len(ms))[rows]
        sub, fresh = S[rows], stack([ms[i] for i in chosen])
        assert sub.starts == S.starts
        shape = (4, len(chosen), 31)
        X = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        forward, adjoint = sub.matvec(X), sub.rmatvec(X)
        np.testing.assert_array_equal(forward, fresh.matvec(X))
        np.testing.assert_array_equal(adjoint, fresh.rmatvec(X))
        for j, i in enumerate(chosen):
            np.testing.assert_array_equal(forward[:, j], ms[i].matvec(X[:, j]))
            np.testing.assert_array_equal(adjoint[:, j], ms[i].rmatvec(X[:, j]))

    def test_an_int_gives_one_matrix(self, rng):
        ms = self.matrices(rng, 31)
        for i, A in enumerate(ms):
            one = stack(ms)[i]
            assert one.d.shape == (31,)
            X = rng.standard_normal((4, 31)) + 1j * rng.standard_normal((4, 31))
            np.testing.assert_array_equal(one.matvec(X), A.matvec(X))
            np.testing.assert_array_equal(one.rmatvec(X), A.rmatvec(X))
            np.testing.assert_array_equal(one.matvec(X), stack([A]).matvec(X[:, None])[:, 0])
            np.testing.assert_array_equal(one.dense(), A.dense())

    def test_modulus_is_the_stack_of_moduli(self, rng):
        ms = self.matrices(rng, 31)
        S, T = stack(ms).modulus(), stack([A.modulus() for A in ms])
        for f in "duv":
            np.testing.assert_array_equal(getattr(S, f), getattr(T, f))
        assert S.starts == T.starts
        np.testing.assert_array_equal(S.ratios, T.ratios)

    def test_sizes_must_agree(self):
        with pytest.raises(InvalidDimensionError):
            stack([cesaro_matrix(3), cesaro_matrix(4)])


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
