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

__all__ = [
    "BOUND_KINDS",
    "BOUND_TOLERANCE",
    "ProductProfile",
    "BoundReport",
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


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one entrywise scan.

    ``witness`` is the 1-based (n, m) position of the tightest entry and
    ``worst_margin`` the smallest value of bound - |entry| encountered;
    the bound holds when that margin is above -BOUND_TOLERANCE.
    """

    kind: str
    lam: complex | None
    n_max: int
    holds: bool
    worst_margin: float
    witness: tuple[int, int]

    def as_dict(self):
        d = {
            "kind": self.kind,
            "n_max": self.n_max,
            "holds": self.holds,
            "worst_margin": self.worst_margin,
            "witness_n": self.witness[0],
            "witness_m": self.witness[1],
        }
        if self.lam is not None:
            d["lambda_re"] = self.lam.real
            d["lambda_im"] = self.lam.imag
        return d


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
        raise UnsupportedParameterError(
            f"the profile n^alpha pi_n up to n = {n} leaves the double range "
            f"at alpha = {profile.alpha:.17g}"
        )
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
    running maximum and costs O(N) instead of a full triangle scan.
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
    return float(np.exp((log_b[1:] + best_a[:-1]).max()))


def _strict_lower_scan(lam, n, bound):
    """Worst margin of bound - |e_nm| over E's strict lower triangle.

    ``bound(rows, cols)`` gets the 0-based indices as a column and a row
    and returns the bounds as an array that broadcasts to (n, n).
    """
    abs_e = comparison_operator(lam, n).modulus().dense()
    if n < 2:
        raise UnsupportedParameterError("entry scans need n >= 2")
    idx = np.arange(n)
    margins = bound(idx[:, None], idx[None, :]) - abs_e
    margins[~np.tri(n, k=-1, dtype=bool)] = np.inf
    k = int(np.argmin(margins))  # row-major: the first of equal margins
    return float(margins.flat[k]), (k // n + 1, k % n + 1)


def check_entry_bounds(lam, n, kind):
    """Scan one inequality over the full truncation of size n.

    ``rho1_54`` requires Re(1/lambda) <= 0 and ``gamma_56`` requires
    0 < Re(1/lambda) < 1; outside those regions a WrongRegimeError names
    the region instead of producing a vacuous report.
    """
    lam = complex(lam)
    _require_off_sigma_zero(lam)
    alpha = alpha_of(lam)

    if kind == "diag_36":
        d = diagonal_part(lam, n)
        g = _require_off_sigma_zero(lam)
        margins = 1.0 / g - np.abs(d)
        k = int(np.argmin(margins))
        worst, witness = float(margins[k]), (k + 1, k + 1)
    elif kind == "alpha_43":
        if alpha >= 1.0:
            raise WrongRegimeError(
                f"alpha bound undefined at Re(1/lambda) = {alpha}",
                "Re(1/lambda) < 1",
            )
        beta = beta_estimate(lam, 2 * n)
        bound = lambda r, c: beta * (r + 1.0) ** (alpha - 1.0) * (c + 1.0) ** (-alpha)
        worst, witness = _strict_lower_scan(lam, n, bound)
    elif kind == "rho1_54":
        if alpha > 0.0:
            raise WrongRegimeError(
                f"lambda has Re(1/lambda) = {alpha} > 0",
                "rho1: lambda != 0 with Re(1/lambda) <= 0",
            )
        worst, witness = _strict_lower_scan(lam, n, lambda r, c: 1.0 / (r + 1.0))
    elif kind == "gamma_56":
        if not 0.0 < alpha < 1.0:
            raise WrongRegimeError(
                f"lambda has Re(1/lambda) = {alpha}",
                "a circle point: 0 < Re(1/lambda) < 1",
            )
        ref = comparison_operator(1.0 / alpha, n).modulus().dense()
        worst, witness = _strict_lower_scan(lam, n, lambda r, c: ref)
    elif kind in ("rowsum_46", "collimit_49"):
        if alpha >= 1.0:
            raise WrongRegimeError(
                f"comparison matrix undefined at Re(1/lambda) = {alpha}",
                "Re(1/lambda) < 1",
            )
        return _profile_bound_report(kind, lam, alpha, n)
    else:
        raise ValueError(f"unknown bound kind {kind!r}; expected one of {BOUND_KINDS}")

    return BoundReport(
        kind=kind,
        lam=lam,
        n_max=n,
        holds=bool(worst >= -BOUND_TOLERANCE),
        worst_margin=worst,
        witness=witness,
    )


def _row_sums(alpha, N):
    m = np.arange(1, N + 1, dtype=np.float64)
    return np.cumsum(m**-alpha) * m ** (alpha - 1.0)


def _profile_bound_report(kind, lam, alpha, n):
    # Finite proxies for the boundedness/decay of the comparison matrix:
    # row sums must have stabilized over the second half of the horizon,
    # columns must have decayed by the expected factor 2^(alpha-1).
    half = max(2, n // 2)
    sums = _row_sums(alpha, n)
    if kind == "rowsum_46":
        sup_half = float(sums[:half].max())
        sup_full = float(sums.max())
        margin = 0.05 * sup_full - (sup_full - sup_half)
        witness = (int(np.argmax(sums)) + 1, 1)
    else:
        m = np.arange(1, half + 1, dtype=np.float64)
        row_half = half ** (alpha - 1.0) * m**-alpha
        row_full = n ** (alpha - 1.0) * m**-alpha
        margins = row_half - row_full
        k = int(np.argmin(margins))
        margin = float(margins[k])
        witness = (n, k + 1)
    return BoundReport(
        kind=kind,
        lam=lam,
        n_max=n,
        holds=bool(margin >= -BOUND_TOLERANCE),
        worst_margin=margin,
        witness=witness,
    )


def comparison_matrix_report(kind, alpha, n):
    """Row-sum / column-decay report driven by alpha directly (no lambda)."""
    if kind not in ("rowsum_46", "collimit_49"):
        raise ValueError(f"kind must be rowsum_46 or collimit_49, got {kind!r}")
    alpha = float(alpha)
    if alpha >= 1.0:
        raise WrongRegimeError(
            f"comparison matrix undefined at alpha = {alpha}", "alpha < 1"
        )
    return _profile_bound_report(kind, None, alpha, n)


def remark41(lam, b):
    """The half-plane/disk equivalence: Re(1/lambda) < 1/b iff |lambda - b/2| > b/2.

    Returns the two booleans; they agree for every lambda != 0 and b > 0,
    with equality cases Re(1/lambda) = 1/b iff |lambda - b/2| = b/2.
    """
    lam = complex(lam)
    if lam == 0:
        raise UnsupportedParameterError("lambda must be nonzero")
    b = float(b)
    if not b > 0:
        raise UnsupportedParameterError(f"b must be positive, got {b}")
    return (alpha_of(lam) < 1.0 / b, abs(lam - b / 2.0) > b / 2.0)


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
    alpha = float(alpha)
    if not alpha > 0:
        raise UnsupportedParameterError(f"circle parameter must be > 0, got {alpha}")
    return 1.0 / complex(alpha, t)
