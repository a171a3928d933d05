import numpy as np
import pytest
from scipy.linalg import solve_triangular

from ceslab import (
    InvalidDimensionError,
    LambdaInSigmaZeroError,
    LowerTriangularMatrix,
    UnsupportedParameterError,
    cesaro_matrix,
    comparison_operator,
    diagonal_part,
    dominates,
    gamma,
    in_sigma_zero,
    residual,
    resolvent_operator,
)
from conftest import log_domain_e, random_vector, sample_lambda

EPS = np.finfo(np.float64).eps


def dense_section_inverse(lam, n):
    """Oracle: invert the n x n section of (C - lambda I) by triangular solve."""
    A = cesaro_matrix(n).dense()
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

    def test_membership_at_float_resolution(self):
        assert in_sigma_zero(1 / 7)
        assert in_sigma_zero(0.0)
        assert not in_sigma_zero(1 / 7 + 1e-13)
        assert not in_sigma_zero(1j)
        assert not in_sigma_zero(-0.5)

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
            E = LowerTriangularMatrix.from_dense(comparison_operator(lam, 40).dense())
            assert dominates(cesaro_matrix(40), E)

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
