import numpy as np
import pytest

from ceslab import (
    ces,
    diag_norm_equality_check,
    diag_operator,
    diag_spectrum,
    diagonal_part,
    linf,
    lp,
)
from conftest import random_vector


class TestDiagOperator:
    def test_identity_from_ones(self):
        np.testing.assert_array_equal(diag_operator([1.0, 1.0]).dense(), np.eye(2))

    def test_reciprocal_multiplier_action(self):
        from ceslab import apply

        phi = np.array([1.0, 0.5, 1 / 3])
        y = apply(diag_operator(phi), np.ones(3))
        np.testing.assert_array_equal(y, phi.astype(complex))

    def test_keeps_the_multipliers_dtype(self):
        for phi in ([1.0, -0.5], np.arange(1, 4)):
            assert diag_operator(phi).d.dtype == np.float64
        assert diag_operator([1.0, 2j]).d.dtype == np.complex128

    def test_shares_representation_with_resolvent_diagonal(self):
        lam = -2.0 + 1.0j
        d = diagonal_part(lam, 8)
        assert np.diag(diag_operator(d).dense()) == pytest.approx(d)


class TestDiagSpectrum:
    def test_value_set(self):
        assert diag_spectrum([1.0, 0.5, 1 / 3]) == {1.0, 0.5, 1 / 3}

    def test_constant_multiplier(self):
        assert diag_spectrum([2j, 2j, 2j]) == {2j}

    def test_resolvent_diagonal_values(self):
        d = diagonal_part(0.4 + 0.2j, 6)
        assert diag_spectrum(d) == {complex(v) for v in d}


def _product(A, B):
    """The dense matrix of x -> A(Bx), one basis vector at a time."""
    return np.column_stack([A.matvec(B.matvec(e)) for e in np.eye(A.n)])


class TestDiagonalAlgebra:
    def test_product_is_entrywise(self, rng):
        phi = random_vector(rng, 10)
        psi = random_vector(rng, 10)
        product = _product(diag_operator(phi), diag_operator(psi))
        np.testing.assert_allclose(np.diag(product), phi * psi, rtol=1e-15)
        off_diag = product.copy()
        np.fill_diagonal(off_diag, 0.0)
        assert np.abs(off_diag).max() == 0.0

    def test_commutative(self, rng):
        phi = random_vector(rng, 10)
        psi = random_vector(rng, 10)
        ab = _product(diag_operator(phi), diag_operator(psi))
        ba = _product(diag_operator(psi), diag_operator(phi))
        np.testing.assert_allclose(ab, ba, rtol=1e-15)

    def test_inverse_closed_at_finite_size(self, rng):
        phi = random_vector(rng, 12)
        phi += np.sign(phi.real) + 1j * 0  # push away from zero
        inverse = diag_operator(1.0 / phi)
        product = _product(diag_operator(phi), inverse)
        np.testing.assert_allclose(product, np.eye(12), rtol=0, atol=1e-14)


class TestNormEquality:
    def test_phases_wash_out_in_l2(self):
        report = diag_norm_equality_check(lp(2), [-1.0, 1j])
        assert report.equality_holds
        assert report.matches_max_modulus
        assert report.op_norm == pytest.approx(1.0, rel=1e-14)

    def test_max_norm_picks_largest(self):
        report = diag_norm_equality_check(linf(), [3.0, -4.0])
        assert report.equality_holds
        assert report.matches_max_modulus
        assert report.op_norm == pytest.approx(4.0, rel=1e-14)

    def test_ces_path_equality_without_max_claim(self):
        report = diag_norm_equality_check(ces(2), [1.0, 0.5, 1 / 3])
        assert report.equality_holds
        assert report.matches_max_modulus is None
        assert report.op_norm > 0

    def test_random_multipliers(self, rng):
        for _ in range(20):
            phi = random_vector(rng, 16)
            for space in (lp(2), linf()):
                report = diag_norm_equality_check(space, phi)
                assert report.equality_holds
                assert report.matches_max_modulus
