"""The O(n) generator resolvent against a log-domain oracle and a dense solve.

Lambdas are drawn from every regime: the left half-plane, the circles
Re(1/lambda) = alpha (alpha = +-200 included, where F_k over- and
underflows while the entries stay finite), and the shadow of a pole down
to a distance of 1e-8.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from ceslab import (
    CeslabError,
    LowerTriangularMatrix,
    ProductOverflowError,
    cesaro_matrix,
    comparison_operator,
)
from ceslab.resolvent import gamma, resolvent_operator
from conftest import cesaro_section, closed_form_resolvent, log_domain_e

EPS = np.finfo(np.float64).eps

left_half_plane = st.builds(
    complex, st.floats(-5.0, -1e-3), st.floats(-5.0, 5.0)
)
on_circle = st.builds(
    lambda alpha, t: 1.0 / complex(alpha, t),
    st.sampled_from([-200.0, -3.0, -0.5, 0.25, 0.5, 0.9, 3.0, 200.0]),
    st.floats(-50.0, 50.0),
)
near_pole = st.builds(
    lambda k, dist, angle: 1.0 / k + dist * np.exp(1j * angle),
    st.integers(1, 60),
    st.floats(1e-8, 1e-2),
    st.floats(0.0, 2 * np.pi),
)
# a circle point with t = 0 is 1/alpha, itself a pole for alpha = 3
lambdas = st.one_of(left_half_plane, on_circle, near_pole).filter(
    lambda lam: gamma(lam) >= 1e-8
)
sizes = st.integers(1, 80)


def _first_nonfinite(lam, n, chunk=128):
    """1-based (row, col) of the oracle's first non-finite entry of E, or None."""
    for lo in range(0, n, chunk):
        bad = ~np.isfinite(log_domain_e(lam, n, range(lo, min(n, lo + chunk))))
        if bad.any():
            row, col = np.argwhere(bad)[0]
            return lo + int(row) + 1, int(col) + 1
    return None


def _pair(lam, n):
    """(generator, oracle dense R) for one lambda, or None when E overflows.

    The generator must then reject lambda at the oracle's first non-finite
    entry.
    """
    R = closed_form_resolvent(lam, n)
    if not np.all(np.isfinite(R)):
        with pytest.raises(ProductOverflowError) as raised:
            resolvent_operator(lam, n)
        assert (raised.value.row, raised.value.col) == _first_nonfinite(lam, n)
        return None
    return resolvent_operator(lam, n), R


def _close(got, want, scale, n):
    assert np.abs(got - want).max() <= 16 * n * EPS * scale


@settings(max_examples=150, deadline=None)
@given(lambdas, sizes, st.integers(0, 2**32 - 1))
def test_products_match_log_domain_oracle(lam, n, seed):
    pair = _pair(lam, n)
    if pair is None:
        return
    G, R = pair
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    absR = np.abs(R)
    _close(G.dense(), R, absR.max(), n)
    _close(G.modulus().dense(), absR, absR.max(), n)
    _close(G.matvec(x), R @ x, (absR @ np.abs(x)).max(), n)
    _close(G.rmatvec(x), R.conj().T @ x, (absR.T @ np.abs(x)).max(), n)
    ones = np.ones(n)
    _close(G.modulus().matvec(ones), absR.sum(axis=1), absR.sum(axis=1).max(), n)
    _close(G.modulus().rmatvec(ones), absR.sum(axis=0), absR.sum(axis=0).max(), n)
    assert G.modulus().is_real()


@settings(max_examples=100, deadline=None)
@given(lambdas, sizes, st.integers(0, 2**32 - 1))
def test_matvec_matches_triangular_solve(lam, n, seed):
    pair = _pair(lam, n)
    if pair is None:
        return
    G, R = pair
    A = cesaro_section(n).astype(complex)
    A[np.diag_indices(n)] -= lam
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    solved = solve_triangular(A, b, lower=True)
    # both sides are accurate to the condition number of C - lambda
    kappa = np.linalg.norm(A, np.inf) * np.linalg.norm(R, np.inf)
    err = np.abs(G.matvec(b) - solved).max() / np.abs(solved).max()
    assert err <= 16 * n * EPS * kappa
    # and the generator's inverse has a backward error of a few n eps
    X = G.dense()
    eta = np.linalg.norm(A @ X - np.eye(n), np.inf) / kappa
    assert eta <= 8 * n * EPS


@pytest.mark.parametrize("t", [-40.0, 0.5, 7.0])
def test_products_across_scale_blocks(t):
    # alpha = 200: F_k falls by e^358 between k = 100 and 600, so the
    # largest entries of R pair indices from different scale blocks
    lam = 1.0 / complex(200.0, t)
    G, R = _pair(lam, 600)
    assert len(G.starts) > 1
    x = np.random.default_rng(600).standard_normal(600) + 0j
    absR = np.abs(R)
    _close(G.dense(), R, absR.max(), 600)
    _close(G.matvec(x), R @ x, (absR @ np.abs(x)).max(), 600)
    _close(G.rmatvec(x), R.conj().T @ x, (absR.T @ np.abs(x)).max(), 600)
    _close(G.modulus().rmatvec(np.ones(600)), absR.sum(axis=0), absR.sum(axis=0).max(), 600)


def test_large_alpha_blocks_keep_entries_finite():
    # F_k ~ k^(-alpha) leaves the double range long before n = 3000, yet
    # every entry near the diagonal stays moderate
    lam = 1.0 / complex(-200.0, 7.0)
    G = resolvent_operator(lam, 3000)
    assert len(G.starts) > 1
    x = np.zeros(3000, dtype=complex)
    x[-2] = 1.0
    y = G.matvec(x)
    assert np.all(np.isfinite(y.view(np.float64)))
    entry = -log_domain_e(lam, 3000, [2999])[0, 2998] / lam**2
    assert y[-1] == pytest.approx(entry, rel=1e-12)


def test_overflow_located_like_log_domain_oracle():
    lam = 1.0 / complex(1500.0, 1500.0)
    expected = _first_nonfinite(lam, 4300)
    assert expected is not None
    for build in (resolvent_operator, comparison_operator):
        with pytest.raises(ProductOverflowError) as raised:
            build(lam, 4300)
        assert (raised.value.row, raised.value.col) == expected


def test_cesaro_matrix_shares_the_generator_form():
    C = cesaro_matrix(5)
    dense = cesaro_section(5)
    x = np.arange(1.0, 6.0)
    np.testing.assert_allclose(C.matvec(x), dense @ x, rtol=1e-15)
    np.testing.assert_allclose(C.rmatvec(x), dense.T @ x, rtol=1e-15)
    ones = np.ones(5)
    np.testing.assert_allclose(C.modulus().rmatvec(ones), dense.sum(axis=0), rtol=1e-15)
    np.testing.assert_allclose(C.modulus().matvec(ones), ones, rtol=1e-15)
    assert C.is_real()
    for A in (C, C.modulus(), resolvent_operator(2.0, 5), comparison_operator(2.0, 5)):
        assert type(A) is LowerTriangularMatrix


def test_generator_of_size_one():
    G = resolvent_operator(2.0, 1)
    assert isinstance(G, LowerTriangularMatrix)
    np.testing.assert_array_equal(G.dense(), [[-1.0]])


def test_diagonal_bound_is_relative_near_a_pole():
    # |d| exceeded 1/gamma + 1e-9 by rounding alone at gamma ~ 2.7e-8
    lam = complex(0.058823544111141136, 2.3078740349828933e-08)
    assert resolvent_operator(lam, 64).n == 64


def test_diagonal_bound_violation_is_a_ceslab_error():
    from ceslab.resolvent import _check_diagonal_bound, diagonal_part

    lam = 2.0 + 1.0j
    d = diagonal_part(lam, 4)
    with pytest.raises(CeslabError, match="d_1"):
        _check_diagonal_bound(lam, d * 1e6, 1e-3)
