"""Closed-form resolvent truncations of the averaging operator.

For lambda outside Sigma0 = {0} u {1/n : n >= 1} the inverse of (C - lambda I)
is lower triangular with explicit entries: the diagonal is 1/((1/n) - lambda)
and the strict lower triangle is -(1/lambda^2) e_nm(lambda) with

    e_nm(lambda) = 1 / (n * prod_{k=m}^{n} (1 - 1/(k lambda))),   1 <= m < n,

and a zero first row.  Because the matrices are lower triangular the n x n
truncation of the inverse is exactly the inverse of the n x n truncation,
so every identity here can be checked by plain matrix arithmetic.

Products are evaluated per row by an incremental recurrence; above a size
threshold the accumulation moves to the log domain (log-modulus plus
argument), where the factors' n^(+-alpha) growth cannot over- or underflow.

The strict lower part is also separable: with
F_k = prod_{j<=k} (1 - 1/(j lambda)) the entry e_nm equals F_{m-1} / (n F_n).
:func:`resolvent_operator` keeps only the diagonal and the two factor
sequences (a :class:`GeneratorMatrix`), so products with R, R* and |R|
cost O(n) time and memory.
"""

import numpy as np

from .errors import (
    CeslabError,
    InvalidDimensionError,
    LambdaInSigmaZeroError,
    ProductOverflowError,
    UnsupportedParameterError,
)
from .triangular import LowerTriangularMatrix, cesaro_matrix, row_offsets

__all__ = [
    "GAMMA_FLOOR",
    "LOG_DOMAIN_THRESHOLD",
    "gamma",
    "nearest_pole",
    "in_sigma_zero",
    "alpha_of",
    "diagonal_part",
    "e_part",
    "resolvent_matrix",
    "resolvent_parts",
    "ResolventParts",
    "GeneratorMatrix",
    "resolvent_operator",
    "residual",
    "g_matrix",
]

# Below this distance to a pole the diagonal entries 1/((1/n) - lambda)
# lose all double-precision digits; construction is refused.
GAMMA_FLOOR = 1e-9

# Direct products are exact enough (and faster) up to this size; beyond it
# rows are accumulated as log-modulus + argument.
LOG_DOMAIN_THRESHOLD = 512

# 1/Re(lambda) beyond this exceeds exact integer resolution of doubles; the
# reciprocals 1/n are then denser than float spacing around Re(lambda).
_MAX_INDEX = 1e15

# Generator factors are stored as mantissas times one scale exp(shift) per
# block of indices; a block ends where |log| of its mantissas would exceed
# this, so a product of two mantissas stays far inside the double range.
_BLOCK_LOG_WINDOW = 256.0

_LOG_MAX = float(np.log(np.finfo(np.float64).max))

# Rounding slack, in units of machine epsilon, of |d_kk| <= 1/gamma: both
# sides are built from the same difference 1/k - lambda.
_DIAG_BOUND_ULPS = 8


def nearest_pole(lam):
    """The point of {0} u {1/n} nearest to lambda, with its distance.

    Returns ``(point, distance)`` where ``point`` is 0.0 or the float 1/n.
    For Re(lambda) <= 0 the nearest point is always 0; otherwise only the
    reciprocals bracketing 1/Re(lambda) can be nearest, so two adjacent
    integer candidates (clamped to n >= 1) are examined.
    """
    lam = complex(lam)
    best_point = 0.0
    best_dist = abs(lam)
    re = lam.real
    if re > 0.0:
        hi = 1.0 / re
        if hi > _MAX_INDEX:
            # Some 1/n agrees with Re(lambda) to the last float digit.
            if abs(lam.imag) < best_dist:
                best_point, best_dist = re, abs(lam.imag)
        else:
            n0 = int(hi)
            for n in (n0 - 1, n0, n0 + 1, n0 + 2):
                if n >= 1:
                    d = abs(lam - 1.0 / n)
                    if d < best_dist:
                        best_point, best_dist = 1.0 / n, d
    return best_point, best_dist


def gamma(lam):
    """Distance from lambda to {0} u {1/n : n >= 1}; zero on the set itself."""
    return nearest_pole(lam)[1]


def in_sigma_zero(lam, n_max=10**12):
    """Exact membership of lambda in {0} u {1/n : n <= n_max}, at float resolution."""
    lam = complex(lam)
    if lam == 0:
        return True
    if lam.imag != 0.0:
        return False
    re = lam.real
    if re <= 0.0:
        return False
    n0 = int(1.0 / re)
    for n in (n0 - 1, n0, n0 + 1, n0 + 2):
        if 1 <= n <= n_max and re == 1.0 / n:
            return True
    return False


def alpha_of(lam):
    """Re(1/lambda), the single parameter governing growth and disk membership."""
    lam = complex(lam)
    if lam == 0:
        raise UnsupportedParameterError("alpha undefined at lambda = 0")
    return (1.0 / lam).real


def _require_off_sigma_zero(lam, floor=GAMMA_FLOOR):
    point, dist = nearest_pole(lam)
    if dist <= floor:
        raise LambdaInSigmaZeroError(lam, dist, point)
    return dist


def diagonal_part(lam, n):
    """Diagonal resolvent entries d_kk = 1/((1/k) - lambda), k = 1..n.

    Every entry is bounded in modulus by 1/gamma(lambda).
    """
    lam = complex(lam)
    if n < 1:
        raise InvalidDimensionError(f"size must be >= 1, got {n}")
    _require_off_sigma_zero(lam)
    k = np.arange(1, n + 1, dtype=np.float64)
    return 1.0 / (1.0 / k - lam)


def _factor_sequence(lam, n):
    k = np.arange(1, n + 1, dtype=np.float64)
    f = 1.0 - 1.0 / (k * lam)
    # Near a pole 1 - 1/(k lambda) cancels.  There it is taken as
    # (lambda - 1/k)/lambda instead, from the same difference as the
    # diagonal entry 1/(1/k - lambda), so that both carry one rounding.
    # Elsewhere the first form is kept: dividing every factor by the same
    # rounded lambda would bias long products by about n eps.
    near = np.abs(f) * np.abs(k * lam) < 0.25
    f[near] = (lam - 1.0 / k[near]) / lam
    return f.astype(np.complex128)


def _e_data_direct(lam, n):
    """Strict-lower products by the row recurrence S(m, n+1) = S(m, n) f_{n+1}."""
    f = _factor_sequence(lam, n)
    data = np.zeros(n * (n + 1) // 2, dtype=np.complex128)
    if n < 2:
        return data
    row = np.array([f[0] * f[1]], dtype=np.complex128)  # S(1, 2)
    data[1] = 1.0 / (2.0 * row[0])
    for i in range(2, n):  # row i holds S(m, i+1), m = 1..i
        row = np.concatenate((row * f[i], [f[i - 1] * f[i]]))
        off = i * (i + 1) // 2
        data[off : off + i] = 1.0 / ((i + 1) * row)
    return data


def _e_data_log(lam, n):
    """Same entries via prefix sums of complex logs; safe at any size."""
    f = _factor_sequence(lam, n)
    prefix = np.concatenate(([0.0 + 0.0j], np.cumsum(np.log(f))))
    data = np.zeros(n * (n + 1) // 2, dtype=np.complex128)
    for i in range(1, n):
        off = i * (i + 1) // 2
        data[off : off + i] = np.exp(prefix[:i] - prefix[i + 1] - np.log(i + 1.0))
    return data


def e_part(lam, n, method="auto"):
    """The strictly-lower comparison matrix E_lambda at truncation n.

    Row 1 and the diagonal are identically zero.  For real lambda = 1/alpha
    with 0 < alpha < 1 all entries are nonnegative, since every factor
    1 - alpha/k is positive.

    Parameters
    ----------
    method : "auto", "direct" or "log"
        "auto" uses direct products up to LOG_DOMAIN_THRESHOLD and the log
        domain beyond; the explicit values force one path (used in tests).
    """
    lam = complex(lam)
    if n < 1:
        raise InvalidDimensionError(f"size must be >= 1, got {n}")
    _require_off_sigma_zero(lam)
    if method == "auto":
        method = "direct" if n <= LOG_DOMAIN_THRESHOLD else "log"
    with np.errstate(over="ignore", invalid="ignore"):
        # entries beyond double range surface as a located error below
        if method == "direct":
            data = _e_data_direct(lam, n)
        elif method == "log":
            data = _e_data_log(lam, n)
        else:
            raise ValueError(f"unknown method {method!r}")
    bad = ~np.isfinite(data.view(np.float64))
    if bad.any():
        flat = int(np.flatnonzero(bad)[0] // 2)
        # recover 1-based (row, col) from the packed position
        i = int((np.sqrt(8.0 * flat + 1) - 1) // 2)
        raise ProductOverflowError(i + 1, flat - i * (i + 1) // 2 + 1)
    return LowerTriangularMatrix(n, data)


def _check_diagonal_bound(lam, d_diag, gamma):
    """Every |d_kk| is at most 1/gamma, up to a few ulps of rounding."""
    bound = (1.0 + _DIAG_BOUND_ULPS * np.finfo(np.float64).eps) / gamma
    excess = np.abs(d_diag) > bound
    if excess.any():
        k = int(np.argmax(excess))
        raise CeslabError(
            f"diagonal entry d_{k + 1} = {d_diag[k]} at lambda={lam} exceeds "
            f"the bound 1/gamma = {1.0 / gamma:.17g}"
        )


class ResolventParts:
    """lambda with its derived quantities and both resolvent pieces.

    Bundles alpha = Re(1/lambda), gamma = dist(lambda, poles), the diagonal
    entries and the strictly-lower matrix, ready to be assembled into
    diag - (1/lambda^2) E.
    """

    __slots__ = ("lam", "alpha", "gamma", "size", "d_diag", "e_matrix")

    def __init__(self, lam, alpha, gamma, size, d_diag, e_matrix):
        if not gamma > 0:
            raise LambdaInSigmaZeroError(lam, gamma, nearest_pole(lam)[0])
        if e_matrix.n != size or d_diag.shape != (size,):
            raise InvalidDimensionError("resolvent parts sizes disagree")
        offs = row_offsets(size)
        if np.any(e_matrix.data[offs + np.arange(size)] != 0) or np.any(
            e_matrix.data[:1] != 0
        ):
            raise ValueError("e_matrix must have zero diagonal and zero first row")
        _check_diagonal_bound(lam, d_diag, gamma)
        self.lam = lam
        self.alpha = alpha
        self.gamma = gamma
        self.size = size
        self.d_diag = d_diag
        self.e_matrix = e_matrix

    def assemble(self):
        """diag(d) - (1/lambda^2) E as a packed matrix."""
        data = self.e_matrix.data * (-1.0 / self.lam**2)
        data[row_offsets(self.size) + np.arange(self.size)] = self.d_diag
        return LowerTriangularMatrix(self.size, data)


def resolvent_parts(lam, n, method="auto"):
    lam = complex(lam)
    dist = _require_off_sigma_zero(lam)
    return ResolventParts(
        lam,
        alpha_of(lam),
        dist,
        n,
        diagonal_part(lam, n),
        e_part(lam, n, method=method),
    )


def resolvent_matrix(lam, n, method="auto"):
    """The inverse of the n x n section of (C - lambda I), in closed form."""
    return resolvent_parts(lam, n, method=method).assemble()


def _carried_sums(z, starts, ratios, reverse=False):
    """Exclusive running sums of z along axis 0, carried across scale blocks.

    Forward, out[i] = sum over j < i of z_j; with ``reverse``, out[j] = sum
    over i > j of z_i.  Each block holds its terms in its own scale, so a
    carry entering block q is multiplied by ratios[q] (forward) or by
    ratios[q + 1] (reverse), both exp(shift_{q-1} - shift_q) for the pair
    of blocks crossed.
    """
    out = np.empty_like(z)
    ends = starts[1:] + (z.shape[0],)
    order = range(len(starts) - 1, -1, -1) if reverse else range(len(starts))
    for q in order:
        seg, dst = z[starts[q] : ends[q]], out[starts[q] : ends[q]]
        if reverse:
            seg, dst = seg[::-1], dst[::-1]
        np.cumsum(seg[:-1], axis=0, out=dst[1:])
        if q == order[0]:
            dst[0] = 0.0
        else:
            carry = carry * ratios[q + 1 if reverse else q]
            dst[0] = carry
            dst[1:] += carry
        carry = dst[-1] + seg[-1]
    return out


class GeneratorMatrix:
    """Lower-triangular matrix: a diagonal plus a separable strict lower part.

    Entry (i, j) with j < i (0-based) is u_i v_j exp(shift_b(j) - shift_b(i)),
    where b(k) is the block holding index k: blocks start at ``starts``, and
    ``ratios[q]`` = exp(shift_{q-1} - shift_q) rescales a running sum that
    enters block q.  Storing the factors per block keeps them finite where
    the products they stand for over- or underflow.  Every product with the
    matrix, its adjoint or its modulus is a running sum: O(n) time and
    memory.  Instances are immutable.
    """

    __slots__ = ("n", "d", "u", "v", "starts", "ratios")

    def __init__(self, d, u, v, starts=(0,), ratios=(1.0,)):
        self.n = int(d.shape[0])
        self.d = d
        self.u = u
        self.v = v
        self.starts = tuple(starts)
        self.ratios = tuple(ratios)

    def matvec(self, x):
        """The product A x; ``x`` is a vector or an (n, k) block of columns."""
        x = np.asarray(x)
        col = (lambda a: a[:, None]) if x.ndim == 2 else (lambda a: a)
        y = col(self.u) * _carried_sums(col(self.v) * x, self.starts, self.ratios)
        y += col(self.d) * x
        return y

    def rmatvec(self, y):
        """The adjoint product A* y; ``y`` is a vector or an (n, k) block."""
        y = np.asarray(y)
        col = (lambda a: a[:, None]) if y.ndim == 2 else (lambda a: a)
        z = col(self.u).conj() * y
        x = _carried_sums(z, self.starts, self.ratios, reverse=True)
        x *= col(self.v).conj()
        x += col(self.d).conj() * y
        return x

    def modulus(self):
        """The entrywise modulus |A|, again in generator form."""
        return GeneratorMatrix(
            np.abs(self.d), np.abs(self.u), np.abs(self.v), self.starts, self.ratios
        )

    def abs_row_sums(self):
        return self.modulus().matvec(np.ones(self.n))

    def abs_col_sums(self):
        return self.modulus().rmatvec(np.ones(self.n))

    def dense(self):
        """The dense (n, n) array: the product with I, all columns at once."""
        return self.matvec(np.eye(self.n))

    def is_real(self):
        factors = (self.d, self.u, self.v)
        return not any(np.iscomplexobj(a) and np.any(a.imag) for a in factors)

    def __repr__(self):
        return f"GeneratorMatrix(n={self.n}, blocks={len(self.starts)})"


def _blocked_products(f, log_abs):
    """Prefix products F_k = f_1 ... f_k, k = 0..n-1, as blocked mantissas.

    ``log_abs[k]`` is log|F_k|.  A block ends where log|F| leaves a window
    of _BLOCK_LOG_WINDOW around its value at the block's start; the next
    block's mantissas start again at modulus 1.  Returns the mantissas, the
    block starts and the ratios exp(shift_{q-1} - shift_q), each taken
    as the reciprocal of an actual modulus rather than from logs.
    """
    n = f.shape[0]
    mant = np.empty(n, dtype=np.complex128)
    starts, ratios = [], []
    lo, head, ratio = 0, 1.0 + 0.0j, 1.0
    while lo < n:
        outside = np.abs(log_abs[lo:n] - log_abs[lo]) > _BLOCK_LOG_WINDOW
        hi = lo + int(np.argmax(outside)) if outside.any() else n
        mant[lo] = head
        mant[lo + 1 : hi] = head * np.cumprod(f[lo : hi - 1])
        starts.append(lo)
        ratios.append(ratio)
        if hi < n:
            following = mant[hi - 1] * f[hi - 1]  # F_hi in this block's scale
            ratio = 1.0 / abs(following)
            head = following * ratio
        lo = hi
    return mant, tuple(starts), tuple(ratios)


def _first_overflow(log_prefix, n):
    """1-based (row, col) of the first non-finite entry of E, or None.

    An entry is evaluated as e_part's log path does, exp(log F_{m-1} -
    log F_n - log n).  A running maximum of Re log F bounds each row's
    largest entry, so only rows that come within a factor e of the double
    range are evaluated.
    """
    if n < 2:
        return None
    rows = np.arange(1, n)  # 0-based rows holding strict-lower entries
    log_abs = log_prefix.real
    row_max = (
        np.maximum.accumulate(log_abs[: n - 1]) - log_abs[2:] - np.log(rows + 1.0)
    )
    with np.errstate(over="ignore", invalid="ignore"):
        for i in rows[row_max > _LOG_MAX - 1.0]:
            entries = np.exp(log_prefix[:i] - log_prefix[i + 1] - np.log(i + 1.0))
            bad = ~np.isfinite(entries.view(np.float64))
            if bad.any():
                return int(i) + 1, int(np.flatnonzero(bad)[0] // 2) + 1
    return None


def resolvent_operator(lam, n):
    """The closed-form resolvent of the n x n section as a GeneratorMatrix.

    The same matrix as :func:`resolvent_matrix` in O(n) storage: the
    diagonal d and, for m < n, the entry a_n b_m with a_n =
    -1/(lambda^2 n F_n) and b_m = F_{m-1}.  An entry of E whose log-domain
    value is not finite raises ProductOverflowError at its (row, col), as
    e_part does.
    """
    lam = complex(lam)
    if n < 1:
        raise InvalidDimensionError(f"size must be >= 1, got {n}")
    dist = _require_off_sigma_zero(lam)
    d = diagonal_part(lam, n)
    _check_diagonal_bound(lam, d, dist)
    f = _factor_sequence(lam, n)
    log_prefix = np.concatenate(([0.0j], np.cumsum(np.log(f))))  # log F_0..F_n
    located = _first_overflow(log_prefix, n)
    if located is not None:
        raise ProductOverflowError(*located)
    v, starts, ratios = _blocked_products(f, log_prefix.real)
    # a_i in the scale of index i: F_{i+1} = F_i f_{i+1} there
    k = np.arange(1, n + 1, dtype=np.float64)
    u = -1.0 / (lam**2 * k * (v * f))
    return GeneratorMatrix(d, u, v, starts, ratios)


def residual(lam, n):
    """Normwise backward error of the closed-form resolvent R.

    max(||(C - lambda) R - I||, ||R (C - lambda) - I||) / (||C - lambda|| ||R||)
    in the max-row-sum norm.  An inverse computed stably keeps it at a
    modest multiple of n eps however ill-conditioned C - lambda is
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 14);
    exact arithmetic would give zero.
    """
    lam = complex(lam)
    R = resolvent_matrix(lam, n).dense()
    A = cesaro_matrix(n).dense()
    A[np.diag_indices(n)] -= lam
    eye = np.eye(n)
    size = lambda M: np.linalg.norm(M, np.inf)
    deviation = max(size(A @ R - eye), size(R @ A - eye))
    return float(deviation / (size(A) * size(R)))


def g_matrix(alpha, n):
    """Comparison matrix with entries r^(alpha-1) m^(-alpha) for m <= r.

    At alpha = 0 this is exactly the averaging matrix.  Dominates the
    modulus of E_lambda up to a constant whenever Re(1/lambda) = alpha < 1.
    """
    alpha = float(alpha)
    if alpha >= 1.0:
        raise UnsupportedParameterError(f"requires alpha < 1, got {alpha}")
    if n < 1:
        raise InvalidDimensionError(f"size must be >= 1, got {n}")
    mpow = np.arange(1, n + 1, dtype=np.float64) ** (-alpha)
    data = np.empty(n * (n + 1) // 2, dtype=np.complex128)
    for i in range(n):
        off = i * (i + 1) // 2
        data[off : off + i + 1] = (i + 1.0) ** (alpha - 1.0) * mpow[: i + 1]
    return LowerTriangularMatrix(n, data)
