import numpy as np
import pytest

from ceslab import LowerTriangularMatrix
from ceslab.resolvent import gamma


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def random_triangular(rng, n, real=False, blocks=1):
    """Random real or complex generators d, u, v of size n.

    With ``blocks`` > 1 they span that many scale blocks of equal length,
    joined by random ratios in (0.25, 4).
    """

    def draw():
        x = rng.standard_normal(n)
        return x if real else x + 1j * rng.standard_normal(n)

    d, u, v = draw(), draw(), draw()
    starts = tuple(q * n // blocks for q in range(blocks))
    ratios = (1.0,) + tuple(4.0 ** rng.uniform(-1.0, 1.0, blocks - 1))
    return LowerTriangularMatrix(d, u, v, starts, ratios)


def cesaro_section(n):
    """The n x n averaging matrix in plain numpy, apart from the library's."""
    k = np.arange(1, n + 1, dtype=np.float64)
    return np.tril(np.ones((n, n))) / k[:, None]


def random_vector(rng, n, real=False):
    v = rng.standard_normal(n)
    if not real:
        v = v + 1j * rng.standard_normal(n)
    return v.astype(np.complex128)


def log_domain_e(lam, n, rows=None):
    """Oracle for the dense E: e_nm = exp(log F_{m-1} - log F_n - log n).

    Returns the 0-based ``rows`` of E (all n by default) as an array of
    shape (len(rows), n).  The factors 1 - 1/(k lambda) are taken as
    (lambda - 1/k)/lambda, which keeps them accurate near a pole.  Entries
    beyond the double range come out non-finite.
    """
    k = np.arange(1, n + 1, dtype=np.float64)
    prefix = np.concatenate(([0j], np.cumsum(np.log((lam - 1.0 / k) / lam))))
    rows = range(n) if rows is None else rows
    E = np.zeros((len(rows), n), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for r, i in enumerate(rows):
            E[r, :i] = np.exp(prefix[:i] - prefix[i + 1] - np.log(i + 1.0))
    return E


def closed_form_resolvent(lam, n):
    """Oracle for the dense R = diag(1/(1/k - lambda)) - E/lambda^2."""
    k = np.arange(1, n + 1, dtype=np.float64)
    return np.diag(1.0 / (1.0 / k - lam)) - log_domain_e(lam, n) / lam**2


def sample_lambda(rng, max_abs=5.0, min_gamma=0.05, predicate=None):
    """Uniform draw from the disk of radius max_abs, away from the poles."""
    while True:
        z = complex(rng.uniform(-max_abs, max_abs), rng.uniform(-max_abs, max_abs))
        if abs(z) > max_abs or gamma(z) < min_gamma:
            continue
        if predicate is not None and not predicate(z):
            continue
        return z
