import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from ceslab import (
    InvalidDimensionError,
    LambdaInSigmaZeroError,
    UnsupportedParameterError,
    comparison_operator,
    diagonal_part,
    gamma,
    residual,
    resolvent_operator,
)
from ceslab.triangular import _ROW_BLOCK_BYTES, LowerTriangularMatrix, row_spans
from conftest import cesaro_section, log_domain_e, random_vector, sample_lambda

EPS = np.finfo(np.float64).eps


def dense_section_inverse(lam, n):
    """Oracle: invert the n x n section of (C - lambda I) by triangular solve."""
    A = cesaro_section(n).astype(complex)
    A[np.diag_indices(n)] -= lam
    return solve_triangular(A, np.eye(n, dtype=complex), lower=True)


class TestGamma:
    def test_right_of_one(self):
        assert gamma(2.0) == 1.0

    def test_member_is_zero(self):
        assert gamma(1 / 3) == 0.0
        assert gamma(0.0) == 0.0

    def test_between_reciprocals(self):
        # nearest pole of 0.4 is 1/3, not 1/2
        assert gamma(0.4) == pytest.approx(1 / 15, rel=1e-12)

    def test_left_half_plane_distance_to_origin(self):
        assert gamma(-3 + 4j) == 5.0

    def test_alpha_undefined_at_zero(self):
        from ceslab.resolvent import alpha_of

        with pytest.raises(UnsupportedParameterError):
            alpha_of(0.0)
        assert alpha_of(2 + 2j) == pytest.approx(0.25, rel=1e-15)

    def test_matches_brute_force_oracle(self, rng):
        # the two bracketing candidates really do contain the argmin
        for _ in range(200):
            lam = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            poles = 1.0 / np.arange(1, 10**5)
            brute = min(abs(lam), np.abs(lam - poles).min())
            assert gamma(lam) == pytest.approx(brute, rel=0, abs=1e-15)


class TestDiagonalPart:
    def test_hand_values(self):
        np.testing.assert_allclose(
            diagonal_part(-1.0, 2), [0.5, 2 / 3], rtol=0, atol=1e-16
        )
        np.testing.assert_array_equal(diagonal_part(2.0, 1), [-1.0])

    def test_refuses_pole_shadow(self):
        with pytest.raises(LambdaInSigmaZeroError):
            diagonal_part(0.5, 4)
        with pytest.raises(LambdaInSigmaZeroError):
            diagonal_part(1 / 3 + 1e-12j, 4)

    def test_gamma_bound_large_truncation(self):
        # |d_kk| <= 1/gamma, scanned at n = 10^4
        lam = 0.4 + 0.0j
        d = diagonal_part(lam, 10**4)
        assert np.abs(d).max() <= 1.0 / gamma(lam) + 1e-12

    def test_invalid_size(self):
        with pytest.raises(InvalidDimensionError):
            diagonal_part(-1.0, 0)


class TestEPart:
    def test_first_entry_at_minus_one(self):
        E = comparison_operator(-1.0, 2).dense()
        assert E[1, 0] == pytest.approx(1 / 6, abs=1e-15)

    def test_first_row_and_diagonal_zero(self, rng):
        for _ in range(5):
            lam = sample_lambda(rng)
            E = comparison_operator(lam, 30).dense()
            assert np.all(E[0] == 0)
            assert np.all(np.diag(E) == 0)
            assert np.all(np.triu(E) == 0)

    def test_nonnegative_on_real_axis_right_of_one(self):
        # lambda = 1/alpha with 0 < alpha < 1: every factor 1 - alpha/k > 0
        for alpha in (0.1, 0.5, 0.9):
            E = comparison_operator(1.0 / alpha, 60).dense()
            assert np.all(E.imag == 0) and np.all(E.real >= 0)

    def test_dominated_by_cesaro_on_left_region(self, rng):
        # |e_nm| <= 1/n whenever Re(1/lambda) <= 0
        for _ in range(5):
            lam = sample_lambda(rng, predicate=lambda z: (1 / z).real <= 0)
            E = comparison_operator(lam, 40).dense()
            assert np.all(np.abs(E) <= cesaro_section(40) + 1e-12)

    def test_direct_and_log_paths_agree(self):
        # the generator multiplies its factors out directly; the oracle sums
        # their logs
        for lam, n, rtol in (
            (-1.0 + 0j, 120, 1e-11),
            (2 + 1j, 120, 1e-11),
            (0.3 + 0.4j, 120, 1e-11),
        ):
            E = comparison_operator(lam, n).dense()
            np.testing.assert_allclose(E, log_domain_e(lam, n), rtol=rtol, atol=1e-300)

    def test_auto_switches_to_log_above_threshold(self):
        # sizes that once needed log-domain evaluation: the blocked direct
        # products still match the log-domain oracle, up to path rounding
        lam = 1.5 + 0.5j
        E = comparison_operator(lam, 600).dense()
        np.testing.assert_allclose(E, log_domain_e(lam, 600), rtol=1e-10, atol=1e-300)

    def test_refuses_pole_shadow(self):
        with pytest.raises(LambdaInSigmaZeroError):
            comparison_operator(0.25, 8)

    def test_overflow_reported_with_location(self):
        # Re(1/lambda) = 1500: entries grow past double range around n ~ 4e3
        from ceslab import ProductOverflowError

        lam = 1.0 / complex(1500.0, 1500.0)
        with pytest.raises(ProductOverflowError) as info:
            comparison_operator(lam, 4300)
        assert 1 <= info.value.col < info.value.row <= 4300

    @pytest.mark.parametrize("lam", [1e160 + 1e160j, -1e200, 3e154j])
    def test_rejects_lambda_whose_square_overflows(self, lam):
        for build in (comparison_operator, resolvent_operator):
            with pytest.raises(UnsupportedParameterError, match="lambda="):
                build(lam, 8)

    def test_reference_point_identity(self):
        # on the level curve Re(1/lambda) = alpha the comparison matrix at the
        # real point 1/alpha satisfies E = (D - R)/alpha^2 (the resolvent
        # identity rearranged at lambda = 1/alpha)
        alpha = 0.4
        lam = 1.0 / alpha
        n = 30
        E = comparison_operator(lam, n).dense()
        D = np.diag(diagonal_part(lam, n))
        R = resolvent_operator(lam, n).dense()
        np.testing.assert_allclose((D - R) / alpha**2, E, rtol=0, atol=1e-14)


class TestResolventMatrix:
    def test_hand_inverse_two_by_two(self):
        # oracle: [[2, 0], [1/2, 3/2]]^(-1) = [[1/2, 0], [-1/6, 2/3]]
        R = resolvent_operator(-1.0, 2)
        expected = np.array([[0.5, 0.0], [-1 / 6, 2 / 3]])
        np.testing.assert_allclose(R.dense(), expected, rtol=0, atol=1e-15)

    def test_size_one(self):
        np.testing.assert_array_equal(resolvent_operator(2.0, 1).dense(), [[-1.0]])

    def test_assembly_identity_exact(self):
        # R = diag(d) - E/lambda^2: the diagonal is d exactly; below it R and
        # E share the factors F_{m-1} and differ only in where 1/lambda^2
        # is rounded in
        lam = 1 + 2j
        R = resolvent_operator(lam, 50).dense()
        d = diagonal_part(lam, 50)
        E = comparison_operator(lam, 50).dense()
        np.testing.assert_array_equal(np.diag(R), d)
        manual = np.diag(d) - E / lam**2
        assert np.all(np.abs(R - manual) <= 4 * EPS * np.abs(R))

    @pytest.mark.parametrize("lam", [1 + 2j, 0.34 + 0.002j, -0.5 + 0.1j])
    def test_one_pole_check_per_build(self, monkeypatch, lam):
        import ceslab.resolvent

        calls, nearest = [], ceslab.resolvent.nearest_pole
        monkeypatch.setattr(
            ceslab.resolvent, "nearest_pole", lambda z: calls.append(z) or nearest(z)
        )
        R = resolvent_operator(lam, 64)
        assert len(calls) == 1
        np.testing.assert_array_equal(R.d, diagonal_part(lam, 64), strict=True)

    def test_matches_triangular_solve_oracle(self, rng):
        for _ in range(5):
            lam = sample_lambda(rng)
            R = resolvent_operator(lam, 128).dense()
            oracle = dense_section_inverse(lam, 128)
            scale = np.abs(R).max()
            assert np.abs(R - oracle).max() <= 1e-9 * scale

    def test_action_decomposes(self, rng):
        # R x = d .* x - (1/lambda^2) E x within 1e-12 relative
        lam = -0.7 + 1.3j
        R = resolvent_operator(lam, 80)
        x = random_vector(rng, 80)
        pieces = (
            diagonal_part(lam, 80) * x - comparison_operator(lam, 80).matvec(x) / lam**2
        )
        np.testing.assert_allclose(R.matvec(x), pieces, rtol=1e-12)


class TestResidual:
    def test_tiny_at_hand_example(self):
        assert residual(-1.0, 2) <= 1e-15

    def test_small_far_from_spectrum(self):
        assert residual(2 + 1j, 100) <= 1e-9

    def test_small_inside_disk(self):
        # resolvent norms grow here, the identity still holds entrywise
        assert residual(0.4 + 0.3j, 256) <= 1e-8

    def test_random_sample(self, rng):
        for _ in range(10):
            lam = sample_lambda(rng)
            assert residual(lam, 128) <= 1e-10

    # one row block of residual() holds exactly this many rows at n = FULL_BLOCK
    FULL_BLOCK = math.isqrt(_ROW_BLOCK_BYTES // 16)
    SEVERAL_SCALE_BLOCKS = 1 / complex(-1000.0, 0.5)

    @staticmethod
    def dense_residual(lam, n):
        """Oracle: the backward error from the dense C - lambda and BLAS products."""
        R = resolvent_operator(lam, n).dense()
        A = cesaro_section(n).astype(complex)
        A[np.diag_indices(n)] -= lam
        eye = np.eye(n)
        size = lambda M: np.linalg.norm(M, np.inf)
        return max(size(A @ R - eye), size(R @ A - eye)) / (size(A) * size(R))

    def test_full_block_is_one_block(self):
        rows = _ROW_BLOCK_BYTES // (16 * self.FULL_BLOCK)
        assert rows == self.FULL_BLOCK

    @pytest.mark.parametrize(
        "lam, n",
        [(0.8 + 0.6j, n) for n in (1, 2, 3, FULL_BLOCK - 1, FULL_BLOCK, FULL_BLOCK + 1, 300, 512)]
        + [(1 / 3 + 2e-9j, n) for n in (3, 300, 512)]
        + [(-1.0, n) for n in (FULL_BLOCK + 1, 512)]
        + [(SEVERAL_SCALE_BLOCKS, 300), (SEVERAL_SCALE_BLOCKS, 512)],
        ids=str,
    )
    def test_agrees_with_dense_products(self, lam, n):
        if lam == self.SEVERAL_SCALE_BLOCKS:
            assert len(resolvent_operator(lam, n).starts) >= 3
        ours, dense = residual(lam, n), self.dense_residual(lam, n)
        assert ours <= 8 * n * EPS and dense <= 8 * n * EPS
        assert abs(ours - dense) <= 4 * n * EPS

    def test_holds_little_besides_r(self):
        # the dense R alone would take 256 MiB at n = 4096; R is streamed
        # from its O(n) generators a few rows at a time
        tracemalloc.start()
        try:
            residual(0.8 + 0.6j, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    @pytest.mark.parametrize("lam", [0.8 + 0.6j, -1.0, SEVERAL_SCALE_BLOCKS])
    def test_row_blocks_are_zero_above_the_diagonal(self, lam):
        # residual() reads block (lo, hi) only up to column hi
        n = 2 * self.FULL_BLOCK + 1
        R = resolvent_operator(lam, n)
        for lo, hi in row_spans(n, 16):
            block = R.row_block(lo, hi, n)
            above = np.arange(lo, hi)[:, None] < np.arange(n)[None, :]
            assert np.all(block[above] == 0)

    @pytest.mark.parametrize("where", ["first row", "last row", "last corner", "block edge"])
    @pytest.mark.parametrize("lam", [0.8 + 0.6j, -1.0])
    def test_every_perturbed_entry_counts(self, monkeypatch, lam, where):
        n = 2 * self.FULL_BLOCK + 1  # several row blocks
        edge = _ROW_BLOCK_BYTES // (16 * n)  # the first row of the second block
        i, j = {
            "first row": (0, 0),
            "last row": (n - 1, 0),
            "last corner": (n - 1, n - 1),
            "block edge": (edge, edge - 1),
        }[where]
        assert residual(lam, n) <= 8 * n * EPS
        shift = 1e-6 * np.abs(resolvent_operator(lam, n).dense()).max()
        fill, reads = LowerTriangularMatrix._fill_rows, []

        def perturbed(self, out, lo):
            """Every row block of R, with entry (i, j) moved by 1e-6 max |R|."""
            fill(self, out, lo)
            if lo <= i < lo + out.shape[0] and j < out.shape[1]:
                out[i - lo, j] += shift
                reads.append(lo)
            return out

        monkeypatch.setattr(LowerTriangularMatrix, "_fill_rows", perturbed)
        assert residual(lam, n) > 8 * n * EPS
        assert len(reads) == 1
