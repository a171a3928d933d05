"""Entrywise inequality checks for the resolvent comparison matrices.

Each proof-carrying inequality gets a scan over a full truncation that
reports the worst margin and where it occurs:

* ``diag_36``   — |d_kk| <= 1/gamma(lambda) on the diagonal
* ``alpha_43``  — |e_nm| <= beta_hat / (n^(1-alpha) m^alpha), alpha < 1
* ``rho1_54``   — |e_nm| <= 1/n on the closed left half-plane of 1/lambda
* ``gamma_56``  — |e_nm(lambda)| <= e_nm(1/alpha) on the circle Re(1/lambda) = alpha
* ``rowsum_46`` — the row sums of the comparison matrix stay bounded
* ``collimit_49`` — its columns decay toward zero

The constants P(alpha), Q(alpha) and beta(lambda) are never numeric in the
source material; they are defined here as finite-horizon extrema whose
stability under horizon doubling is itself part of the test suite.
"""

from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedParameterError, WrongRegimeError
from .resolvent import (
    _factor_sequence,
    _require_off_sigma_zero,
    alpha_of,
    comparison_operator,
    diagonal_part,
)
from .triangular import row_spans

__all__ = [
    "BOUND_KINDS",
    "BOUND_TOLERANCE",
    "ProductProfile",
    "product_profile",
    "profile_report",
    "beta_estimate",
    "check_entry_bounds",
    "comparison_matrix_report",
    "remark41",
    "remark41_report",
    "gamma_circle_point",
]

BOUND_KINDS = ("diag_36", "alpha_43", "rho1_54", "gamma_56", "rowsum_46", "collimit_49")

# Margins are float differences of float bounds; below this they count as ties.
BOUND_TOLERANCE = 1e-12


@dataclass(frozen=True)
class ProductProfile:
    """Running products pi_n = prod_{k<=n} |1 - 1/(k lambda)| and their rescaling.

    ``scaled`` is n^alpha * pi_n; its extrema are the empirical constants
    bracketing the product from below and above.
    """

    lam: complex
    alpha: float
    pi: np.ndarray
    scaled: np.ndarray

    @property
    def p_hat(self):
        return float(self.scaled.min())

    @property
    def q_hat(self):
        return float(self.scaled.max())


def _off_double_range(what, alpha):
    """The refusal of a quantity that leaves the double range at this alpha."""
    return UnsupportedParameterError(f"{what} leaves the double range at alpha = {alpha:.17g}")


def product_profile(lam, N):
    """Profile of the factor products up to N, evaluated in the log domain."""
    lam = complex(lam)
    _require_off_sigma_zero(lam)
    alpha = alpha_of(lam)
    logpi = np.cumsum(np.log(np.abs(_factor_sequence(lam, N))))
    logn = np.log(np.arange(1, N + 1, dtype=np.float64))
    # beyond the double range the entries come out as inf or 0
    with np.errstate(over="ignore", under="ignore"):
        return ProductProfile(lam, alpha, np.exp(logpi), np.exp(alpha * logn + logpi))


def profile_report(lam, n):
    """The band test of the profile n^alpha pi_n up to n, as a JSON-ready dict.

    The profile holds when it is positive and, from the end of its first
    tenth on, stays within [0.9 p0, 1.1 q0], where p0 and q0 are its
    extrema over that first tenth; ``worst_margin`` is the smaller
    distance to the band's two edges.  A profile that leaves the double
    range (large |alpha|) is refused with an error naming alpha.
    """
    lam = complex(lam)
    if n < 2:
        raise UnsupportedParameterError(f"the profile band test needs n >= 2, got {n}")
    profile = product_profile(lam, n)
    if not (np.isfinite(profile.scaled).all() and profile.scaled.min() > 0):
        raise _off_double_range(f"the profile n^alpha pi_n up to n = {n}", profile.alpha)
    head = max(2, n // 10)
    p0 = float(profile.scaled[:head].min())
    q0 = float(profile.scaled[:head].max())
    tail = profile.scaled[head - 1 :]
    margin = min(float(tail.min()) - 0.9 * p0, 1.1 * q0 - float(tail.max()))
    return {
        "kind": "profile_38",
        "lambda_re": lam.real,
        "lambda_im": lam.imag,
        "n_max": n,
        "p_hat": profile.p_hat,
        "q_hat": profile.q_hat,
        "holds": bool(profile.p_hat > 0 and margin >= 0),
        "worst_margin": margin,
    }


def beta_estimate(lam, N):
    """Smallest constant b with |e_nm| <= b / (n^(1-alpha) m^alpha) up to N.

    Computed as sup over 1 <= m < n <= N of |e_nm| n^(1-alpha) m^alpha.  The
    entry factorizes through prefix products, so the sup reduces to a
    running maximum and costs O(N) instead of a full triangle scan.  A sup
    off the double range (large negative alpha) is refused.
    """
    lam = complex(lam)
    _require_off_sigma_zero(lam)
    alpha = alpha_of(lam)
    if alpha >= 1.0:
        raise UnsupportedParameterError(
            f"beta bound needs Re(1/lambda) < 1, got {alpha}"
        )
    if N < 2:
        raise UnsupportedParameterError("need N >= 2 for a nonempty strict triangle")
    logpi = np.cumsum(np.log(np.abs(_factor_sequence(lam, N))))
    prefix = np.concatenate(([0.0], logpi))
    logj = np.log(np.arange(1, N + 1, dtype=np.float64))
    # |e_nm| n^(1-alpha) m^alpha = [|F_{m-1}| m^alpha] * [n^(-alpha) / |F_n|]
    log_a = prefix[:N] + alpha * logj
    log_b = -alpha * logj - prefix[1:]
    best_a = np.maximum.accumulate(log_a)
    with np.errstate(over="ignore"):
        beta = float(np.exp((log_b[1:] + best_a[:-1]).max()))
    if not np.isfinite(beta):
        raise _off_double_range(f"beta up to N = {N}", alpha)
    return beta


def _report(kind, lam, n, margin, witness):
    """The JSON-ready dict of one scan, with lambda's parts when there is one.

    ``witness`` is the 1-based (n, m) position of the tightest entry and
    ``margin`` the smallest bound - |entry|; the bound holds above -BOUND_TOLERANCE.
    """
    report = {
        "kind": kind,
        "n_max": n,
        "holds": bool(margin >= -BOUND_TOLERANCE),
        "worst_margin": margin,
        "witness_n": witness[0],
        "witness_m": witness[1],
    }
    if lam is not None:
        report["lambda_re"] = lam.real
        report["lambda_im"] = lam.imag
    return report


def _strict_lower_scan(lam, n, bound):
    """Worst margin of bound - |e_nm| over E's strict lower triangle.

    The triangle is scanned in the row blocks of ``row_spans``, each built
    from the generators of |E| by ``row_block`` with only the columns left
    of its last row, so no n x n array is formed; ``bound(lo, hi)`` gives
    the bounds of that block, as an array that broadcasts to its shape.
    As with one argmin over the whole triangle, the first NaN margin wins,
    and otherwise the first of equal margins in row-major order.
    """
    abs_e = comparison_operator(lam, n).modulus()
    idx = np.arange(n)
    worst, witness = np.nan, None
    for lo, hi in row_spans(n, abs_e.d.itemsize, first=1):
        margins = bound(lo, hi) - abs_e.row_block(lo, hi, hi - 1)  # row i: columns < i
        np.copyto(margins, np.inf, where=idx[: hi - 1] >= idx[lo:hi, None])
        k = int(np.argmin(margins))  # the first NaN, if there is one
        margin = float(margins.flat[k])
        if witness is None or not margin >= worst:  # smaller, or NaN
            worst, witness = margin, (lo + k // (hi - 1) + 1, k % (hi - 1) + 1)
        if np.isnan(worst):
            break
    return worst, witness


def check_entry_bounds(lam, n, kind):
    """Scan one inequality over the full truncation of size n, as a report dict.

    ``rho1_54`` requires Re(1/lambda) <= 0 and ``gamma_56`` requires
    0 < Re(1/lambda) < 1; outside those regions a WrongRegimeError names
    the region instead of producing a vacuous report.  The scans of E's
    strict lower triangle need n >= 2, and ``alpha_43`` refuses an alpha
    whose bound factors beta n^(alpha-1) or m^(-alpha) leave the double
    range.
    """
    if kind not in BOUND_KINDS:
        raise ValueError(f"unknown bound kind {kind!r}; expected one of {BOUND_KINDS}")
    lam = complex(lam)
    g = _require_off_sigma_zero(lam)
    alpha = alpha_of(lam)
    if kind == "diag_36":
        margins = 1.0 / g - np.abs(diagonal_part(lam, n))
        k = int(np.argmin(margins))
        return _report(kind, lam, n, float(margins[k]), (k + 1, k + 1))
    if kind in ("rowsum_46", "collimit_49"):
        return _comparison_report(kind, lam, alpha, n)

    if n < 2:
        raise UnsupportedParameterError(f"entry scans need n >= 2, got {n}")
    if kind == "alpha_43":
        if alpha >= 1.0:
            raise WrongRegimeError(
                f"alpha bound undefined at Re(1/lambda) = {alpha}",
                "Re(1/lambda) < 1",
            )
        # beta and the powers of k over- or underflow at large |alpha|; 0 * inf
        # would make the bound NaN, so a factor off the double range is refused
        try:
            beta = beta_estimate(lam, 2 * n)
        except UnsupportedParameterError:  # beta itself is off the double range
            beta = np.inf
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            k = np.arange(1.0, n + 1.0)
            row_factors, col_factors = beta * k ** (alpha - 1.0), k ** (-alpha)
        if not (np.isfinite(row_factors).all() and np.isfinite(col_factors).all()):
            raise _off_double_range(f"the alpha_43 bound up to n = {n}", alpha)
        bound = lambda lo, hi: row_factors[lo:hi, None] * col_factors[: hi - 1]
    elif kind == "rho1_54":
        if alpha > 0.0:
            raise WrongRegimeError(
                f"lambda has Re(1/lambda) = {alpha} > 0",
                "rho1: lambda != 0 with Re(1/lambda) <= 0",
            )
        inverse = 1.0 / np.arange(1.0, n + 1.0)
        bound = lambda lo, hi: inverse[lo:hi, None]
    else:
        if not 0.0 < alpha < 1.0:
            raise WrongRegimeError(
                f"lambda has Re(1/lambda) = {alpha}",
                "a circle point: 0 < Re(1/lambda) < 1",
            )
        ref = comparison_operator(1.0 / alpha, n).modulus()
        bound = lambda lo, hi: ref.row_block(lo, hi, hi - 1)
    return _report(kind, lam, n, *_strict_lower_scan(lam, n, bound))


def _row_sums(alpha, N):
    m = np.arange(1, N + 1, dtype=np.float64)
    return np.cumsum(m**-alpha) * m ** (alpha - 1.0)


def _comparison_report(kind, lam, alpha, n):
    """Finite proxies for the comparison matrix r^(alpha-1) m^(-alpha), alpha < 1.

    rowsum_46: the row sums must have stabilized over the second half of
    the horizon; collimit_49: the columns must have decayed by the
    expected factor 2^(alpha-1).
    """
    if alpha >= 1.0:
        raise WrongRegimeError(
            f"comparison matrix undefined at alpha = {alpha}", "alpha < 1"
        )
    if n < 2:
        raise UnsupportedParameterError(f"the {kind} test needs n >= 2, got {n}")
    half = max(2, n // 2)
    # m^-alpha overflows at large negative alpha: such a horizon is refused
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "rowsum_46":
            values = _row_sums(alpha, n)
        else:
            m = np.arange(1, half + 1, dtype=np.float64)
            values = half ** (alpha - 1.0) * m**-alpha - n ** (alpha - 1.0) * m**-alpha
    if not np.isfinite(values).all():
        raise _off_double_range(f"the {kind} test up to n = {n}", alpha)
    if kind == "rowsum_46":
        sup_half, sup_full = float(values[:half].max()), float(values.max())
        margin = 0.05 * sup_full - (sup_full - sup_half)
        return _report(kind, lam, n, margin, (int(np.argmax(values)) + 1, 1))
    k = int(np.argmin(values))
    return _report(kind, lam, n, float(values[k]), (n, k + 1))


def comparison_matrix_report(kind, alpha, n):
    """Row-sum / column-decay report driven by alpha directly (no lambda)."""
    if kind not in ("rowsum_46", "collimit_49"):
        raise ValueError(f"kind must be rowsum_46 or collimit_49, got {kind!r}")
    alpha = float(alpha)
    if not np.isfinite(alpha):
        raise UnsupportedParameterError(f"alpha must be finite, got {alpha}")
    return _comparison_report(kind, None, alpha, n)


def remark41(lam, b):
    """The half-plane/disk equivalence: Re(1/lambda) < 1/b iff |lambda - b/2| > b/2.

    Returns the two booleans; they agree for every lambda != 0 and b > 0,
    with equality cases Re(1/lambda) = 1/b iff |lambda - b/2| = b/2.
    """
    lam = complex(lam)
    if lam == 0:
        raise UnsupportedParameterError("lambda must be nonzero")
    b = float(b)
    if not 0 < b < np.inf:
        raise UnsupportedParameterError(f"b must be positive and finite, got {b}")
    alpha = alpha_of(lam)
    if not np.isfinite(alpha):
        raise UnsupportedParameterError(f"Re(1/lambda) is not finite at lambda={lam}")
    return (alpha < 1.0 / b, abs(lam - b / 2.0) > b / 2.0)


def remark41_report(lam, b):
    """The equivalence of :func:`remark41` at one lambda, as a JSON-ready dict.

    It holds when the two sides agree; ``worst_margin`` is the distance
    |Re(1/lambda) - 1/b| from the threshold.
    """
    inside, outside = remark41(lam, b)
    return {
        "kind": "remark41",
        "lambda_re": lam.real,
        "lambda_im": lam.imag,
        "b": b,
        "alpha_below_threshold": inside,
        "outside_disk": outside,
        "holds": bool(inside == outside),
        "worst_margin": abs(alpha_of(lam) - 1.0 / b),
    }


def gamma_circle_point(alpha, t):
    """The point 1/(alpha + it) on the circle Re(1/lambda) = alpha.

    Parametrizing by t keeps Re(1/lambda) = alpha exact up to rounding;
    the circle has center and radius 1/(2 alpha).
    """
    alpha, t = float(alpha), float(t)
    if not alpha > 0:
        raise UnsupportedParameterError(f"circle parameter must be > 0, got {alpha}")
    if not (alpha < np.inf and np.isfinite(t)):
        raise UnsupportedParameterError(
            f"circle parameters must be finite, got alpha = {alpha}, t = {t}"
        )
    return 1.0 / complex(alpha, t)
