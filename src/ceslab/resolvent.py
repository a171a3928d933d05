"""Closed-form resolvent truncations of the averaging operator.

For lambda outside Sigma0 = {0} u {1/n : n >= 1} the inverse of (C - lambda I)
is lower triangular with explicit entries: the diagonal is 1/((1/n) - lambda)
and the strict lower triangle is -(1/lambda^2) e_nm(lambda) with

    e_nm(lambda) = 1 / (n * prod_{k=m}^{n} (1 - 1/(k lambda))),   1 <= m < n,

and a zero first row.  Because the matrices are lower triangular the n x n
truncation of the inverse is exactly the inverse of the n x n truncation,
so every identity here can be checked by plain matrix arithmetic.

The strict lower part is separable: with F_k = prod_{j<=k} (1 - 1/(j lambda))
the entry e_nm equals F_{m-1} / (n F_n).  Both E (:func:`comparison_operator`)
and R (:func:`resolvent_operator`) are built from these factor sequences
only, in the generator form of
:class:`~ceslab.triangular.LowerTriangularMatrix`: F_k is kept as mantissas
times one scale per block of indices, so the factors stay finite where the
n^(+-alpha) growth of F_k over- or underflows, and products with the matrix,
its adjoint and its modulus cost O(n) time and memory.  At real lambda E and
R are real, with float64 generators, and their consumers follow that dtype.
"""

import cmath

import numpy as np

from .errors import (
    CeslabError,
    InvalidDimensionError,
    LambdaInSigmaZeroError,
    ProductOverflowError,
    UnsupportedParameterError,
)
from .triangular import LowerTriangularMatrix, row_spans

__all__ = [
    "GAMMA_FLOOR",
    "gamma",
    "nearest_pole",
    "alpha_of",
    "diagonal_part",
    "comparison_operator",
    "resolvent_operator",
    "residual",
]

# Below this distance to a pole the diagonal entries 1/((1/n) - lambda)
# lose all double-precision digits; construction is refused.
GAMMA_FLOOR = 1e-9

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


def alpha_of(lam):
    """Re(1/lambda), the single parameter governing growth and disk membership."""
    lam = complex(lam)
    if lam == 0:
        raise UnsupportedParameterError("alpha undefined at lambda = 0")
    return (1.0 / lam).real


def _require_off_sigma_zero(lam):
    if not cmath.isfinite(lam):
        raise UnsupportedParameterError(f"lambda={lam} is not finite")
    point, dist = nearest_pole(lam)
    if dist <= GAMMA_FLOOR:
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


def _blocked_products(f, log_abs):
    """Prefix products F_k = f_1 ... f_k, k = 0..n-1, as blocked mantissas.

    ``log_abs[k]`` is log|F_k|.  A block ends where log|F| leaves a window
    of _BLOCK_LOG_WINDOW around its value at the block's start; the next
    block's mantissas start again at modulus 1.  Returns the mantissas, the
    block starts and the ratios exp(shift_{q-1} - shift_q), each taken
    as the reciprocal of an actual modulus rather than from logs.
    """
    n = f.shape[0]
    mant = np.empty(n, dtype=f.dtype)
    starts, ratios = [], []
    lo, head, ratio = 0, 1.0, 1.0
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

    An entry is evaluated in the log domain, exp(log F_{m-1} - log F_n -
    log n).  A running maximum of Re log F bounds each row's
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


def _generator_factors(lam, n):
    """The factors f_k and the blocked prefix products F_0..F_{n-1} of E.

    Returns ``(f, v, starts, ratios, gamma)``: v holds F_{k-1} in the scale
    of index k (see :class:`LowerTriangularMatrix`), gamma the checked
    distance to the nearest pole; at real lambda f and v are real, bit for
    bit the real parts of the complex ones.  Raises ProductOverflowError at
    the (row, col) of the first entry of E whose log-domain value is not
    finite, and UnsupportedParameterError when lambda^2 is not.
    """
    if n < 1:
        raise InvalidDimensionError(f"size must be >= 1, got {n}")
    dist = _require_off_sigma_zero(lam)
    if not cmath.isfinite(lam * lam):
        raise UnsupportedParameterError(
            f"lambda={lam} is too large: lambda^2 is not a finite double"
        )
    f = _factor_sequence(lam, n)
    log_prefix = np.concatenate(([0.0j], np.cumsum(np.log(f))))  # log F_0..F_n
    located = _first_overflow(log_prefix, n)
    if located is not None:
        raise ProductOverflowError(*located)
    f = f.real if lam.imag == 0 else f  # real division would round near-pole factors otherwise
    v, starts, ratios = _blocked_products(f, log_prefix.real)
    return f, v, starts, ratios, dist


def comparison_operator(lam, n):
    """The strictly-lower comparison matrix E_lambda of size n, in generator form.

    Zero diagonal, and for m < n the entry u_n v_m with u_n = 1/(n F_n)
    and v_m = F_{m-1}; row 1 is identically zero.  For real lambda =
    1/alpha with 0 < alpha < 1 all entries are nonnegative, since every
    factor 1 - alpha/k is positive.  Real at real lambda, else complex.
    """
    lam = complex(lam)
    f, v, starts, ratios, _ = _generator_factors(lam, n)
    k = np.arange(1, n + 1, dtype=np.float64)
    u = 1.0 / (k * (v * f))
    return LowerTriangularMatrix(np.zeros(n, dtype=f.dtype), u, v, starts, ratios)


def resolvent_operator(lam, n):
    """The closed-form resolvent diag(d) - (1/lambda^2) E of the n x n section.

    In generator form: the diagonal d and, for m < n, the entry a_n b_m
    with a_n = -1/(lambda^2 n F_n) and b_m = F_{m-1}, in O(n) storage.
    Real at real lambda (d and a the real parts of their complex values), else complex.
    """
    lam = complex(lam)
    f, v, starts, ratios, dist = _generator_factors(lam, n)
    k = np.arange(1, n + 1, dtype=np.float64)
    d = 1.0 / (1.0 / k - lam)  # diagonal_part, from the pole check already made
    _check_diagonal_bound(lam, d, dist)
    # a_i in the scale of index i: F_{i+1} = F_i f_{i+1} there
    u = -1.0 / (lam**2 * k * (v * f))
    if f.dtype != d.dtype:  # real lambda
        d, u = d.real, u.real
    return LowerTriangularMatrix(d, u, v, starts, ratios)


def residual(lam, n):
    """Normwise backward error of the closed-form resolvent R.

    max(||(C - lambda) R - I||, ||R (C - lambda) - I||) / (||C - lambda|| ||R||)
    in the max-row-sum norm.  An inverse computed stably keeps it at a
    modest multiple of n eps however ill-conditioned C - lambda is
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 14);
    exact arithmetic would give zero.

    Neither R nor C is formed.  R is streamed from its generators in the
    blocks of b rows of ``row_spans``; R is lower triangular, so block
    (lo, hi) ends at column hi.  A product with C - lambda is an inclusive
    running sum less lambda times R: row i of (C - lambda) R is
    (1/i) sum_{k<=i} R_k - lambda R_i, and column j of R (C - lambda) is
    sum_{k>=j} R_{:,k}/k - lambda R_{:,j}.  The first is taken as column
    sums carried from block to block, the second as reverse sums along
    each row.  ||C - lambda|| has the closed form
    max_i ((i - 1)/i + |1/i - lambda|).  O(n^2) time and O(n b) memory in
    three fixed complex buffers, for the block (overwritten by
    (C - lambda) R), for R (C - lambda) and for lambda R, and one real one;
    complex at real lambda too, where R is real.
    """
    lam = complex(lam)
    op = resolvent_operator(lam, n)
    k = np.arange(1, n + 1, dtype=np.float64)
    inv = 1.0 / k
    spans = list(row_spans(n, np.dtype(np.complex128).itemsize))
    size = max((hi - lo) * hi for lo, hi in spans)
    # one allocation for the three complex buffers and the real one: once freed,
    # glibc's malloc keeps a chunk this size for the next call, while four
    # separate ones were trimmed back to the system and faulted in each call
    raw = np.empty(7 * size)
    flat = np.split(raw[: 6 * size].view(np.complex128), 3)
    modulus = raw[6 * size :]
    carry = np.zeros(n, dtype=np.complex128)  # column sums of the rows of R above the block
    left = right = size_r = 0.0
    for lo, hi in spans:
        # contiguous views of the fixed buffers: temporaries of a new width per block cost RSS
        block, product, scaled = (a[: (hi - lo) * hi].reshape(hi - lo, hi) for a in flat)
        op.row_block(lo, hi, hi, out=block)
        size_r = max(size_r, _max_abs_row_sum(block, modulus))
        np.multiply(block, lam, out=scaled)
        # R (C - lambda): sums along each row of R_{:,k}/k from column j on
        np.multiply(block, inv[:hi], out=product)
        np.cumsum(product[:, ::-1], axis=1, out=product[:, ::-1])
        product -= scaled
        product.reshape(-1)[lo :: hi + 1] -= 1.0  # the entries (i, i) of the block
        right = max(right, _max_abs_row_sum(product, modulus))
        # (C - lambda) R, in place of the block: column sums of the rows up to each row
        block[0] += carry[:hi]
        np.cumsum(block, axis=0, out=block)
        carry[:hi] = block[-1]
        block *= inv[lo:hi, None]
        block -= scaled
        block.reshape(-1)[lo :: hi + 1] -= 1.0
        left = max(left, _max_abs_row_sum(block, modulus))
    size_a = float(np.max((k - 1.0) / k + np.abs(inv - lam)))
    return float(max(left, right) / (size_a * size_r))


def _max_abs_row_sum(block, modulus):
    """The largest row sum of |block|, taken in the front of the real buffer ``modulus``."""
    absolute = modulus[: block.size].reshape(block.shape)
    np.abs(block, out=absolute)
    return float(absolute.sum(axis=1).max())
