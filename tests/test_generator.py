"""The O(n) generator resolvent against the packed matrix and a dense solve.

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
    e_part,
    resolvent_matrix,
)
from ceslab.resolvent import GeneratorMatrix, gamma, resolvent_operator

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


def _pair(lam, n):
    """(generator, packed dense) for one lambda, or None when E overflows.

    Both constructions must then reject lambda at the same entry.
    """
    try:
        R = resolvent_matrix(lam, n).dense()
    except ProductOverflowError as packed:
        with pytest.raises(ProductOverflowError) as raised:
            resolvent_operator(lam, n)
        assert (raised.value.row, raised.value.col) == (packed.row, packed.col)
        return None
    return resolvent_operator(lam, n), R


def _close(got, want, scale, n):
    assert np.abs(got - want).max() <= 16 * n * EPS * scale


@settings(max_examples=150, deadline=None)
@given(lambdas, sizes, st.integers(0, 2**32 - 1))
def test_products_match_packed_matrix(lam, n, seed):
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
    _close(G.abs_row_sums(), absR.sum(axis=1), absR.sum(axis=1).max(), n)
    _close(G.abs_col_sums(), absR.sum(axis=0), absR.sum(axis=0).max(), n)
    assert G.modulus().is_real()


@settings(max_examples=100, deadline=None)
@given(lambdas, sizes, st.integers(0, 2**32 - 1))
def test_matvec_matches_triangular_solve(lam, n, seed):
    pair = _pair(lam, n)
    if pair is None:
        return
    G, R = pair
    A = cesaro_matrix(n).dense()
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
    _close(G.abs_col_sums(), absR.sum(axis=0), absR.sum(axis=0).max(), 600)


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
    entry = resolvent_matrix(lam, 3000).entry(2999, 2998)
    assert y[-1] == pytest.approx(entry, rel=1e-12)


def test_overflow_located_like_e_part():
    lam = 1.0 / complex(1500.0, 1500.0)
    with pytest.raises(ProductOverflowError) as packed:
        e_part(lam, 4300)
    with pytest.raises(ProductOverflowError) as generator:
        resolvent_operator(lam, 4300)
    located = (generator.value.row, generator.value.col)
    assert located == (packed.value.row, packed.value.col)


def test_packed_matrix_offers_the_same_interface():
    C = cesaro_matrix(5)
    x = np.arange(1.0, 6.0)
    np.testing.assert_allclose(C.matvec(x), C.dense() @ x, rtol=1e-15)
    np.testing.assert_allclose(C.rmatvec(x), C.dense().T @ x, rtol=1e-15)
    np.testing.assert_allclose(C.abs_col_sums(), C.dense().sum(axis=0), rtol=1e-15)
    np.testing.assert_allclose(C.abs_row_sums(), np.ones(5), rtol=1e-15)
    assert isinstance(C.modulus(), LowerTriangularMatrix)


def test_generator_of_size_one():
    G = resolvent_operator(2.0, 1)
    assert isinstance(G, GeneratorMatrix)
    np.testing.assert_array_equal(G.dense(), [[-1.0]])


def test_diagonal_bound_is_relative_near_a_pole():
    # |d| exceeded 1/gamma + 1e-9 by rounding alone at gamma ~ 2.7e-8
    lam = complex(0.058823544111141136, 2.3078740349828933e-08)
    assert resolvent_operator(lam, 64).n == 64


def test_diagonal_bound_violation_is_a_ceslab_error():
    from ceslab.resolvent import ResolventParts, diagonal_part, e_part as e_of

    lam = 2.0 + 1.0j
    d = diagonal_part(lam, 4)
    with pytest.raises(CeslabError, match="d_1"):
        ResolventParts(lam, 0.4, 1e-3, 4, d * 1e6, e_of(lam, 4))
