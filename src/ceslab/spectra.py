"""Spectral disks, operator-norm estimation and the lambda-grid sweep engine.

The spectrum of the averaging operator in every supported space is a closed
disk tangent to the origin with center and radius p'/2 (p' = 1 for the
max-norm spaces).  Finite sections cannot certify membership, but the
growth of resolvent-norm estimates across increasing truncation sizes is an
honest directional proxy: bounded inside the resolvent set, growing inside
the open disk.

Operator norms are exact where a closed form exists (max row sums, the
ces(0) majorant sum of a positive operator), else certified lower bounds
with an upper bound where one is known.  In l^2 they come from
:func:`_lockstep_lanczos`, thick-restarted Lanczos bidiagonalization of a
whole chunk, run until each Ritz residual is at the rounding level;
elsewhere from a dual-exponent ascent.  Both use numpy.  Every report also
carries the regular norm || |A| ||.

There is one norm-report path, :func:`_norm_reports`, for one operator or
a sweep chunk of L of one size, always given as one matrix with (L, n)
generators (:func:`~ceslab.triangular.stack`), stacked once per chunk.  It
takes the row sums and l^p upper bounds from the modulus of the stack,
and runs Lanczos on one (L, n) block per step, or the block power method
:func:`_lockstep_ascent` on one (k, L, n) block of iterates, keeping one
best per operator; both drop finished operators by indexing the stack.
:mod:`ceslab.spaces` owns each norm's calculus (the norms of a vector or
a stack, the ascent's norming functionals, dual maps and vertex starts), so
the ascent never tests the space.  The disk's radius comes from the space's
exponent.

Every estimator uses only a small operator interface: ``n``, ``matvec``,
``rmatvec`` (the adjoint), ``modulus()`` and ``row_block()``, which the
generator form of :class:`~ceslab.triangular.LowerTriangularMatrix`
provides, and each follows the stack's dtype: a stack of resolvents at real
lambda runs in real arithmetic.  No estimator stores an operator densely:
the ces(0) column scan reads |A| in the row blocks of ``row_spans`` and
carries its column sums between them.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, InvalidDimensionError, UnsupportedParameterError
from .resolvent import resolvent_operator
from .resolvent import gamma as gamma_of
from .spaces import _norming_functionals, _norms, _primal_directions, _vertex_starts
from .spaces import dual_exponent
from .triangular import LowerTriangularMatrix, row_spans, stack

__all__ = [
    "SpectralDisk",
    "SweepRecord",
    "GrowthVerdict",
    "GridSpec",
    "NormEstimate",
    "spectrum_disk",
    "in_spectrum",
    "operator_norm_report",
    "sweep",
    "classify_growth",
]

logger = logging.getLogger(__name__)

# Grid points closer than this to a pole are skipped (not errored) so that
# sweeps over rectangles meeting (0, 1] complete.
SWEEP_GAMMA_SKIP = 1e-3

DISK_TOLERANCE = 1e-12

# The regular-norm ratio thresholds of classify_growth.
GROWING_RATIO = 1.5
BOUNDED_RATIO = 1.1

# A lambda grid may hold at most this many points (the README grid has 441).
GRID_POINTS_MAX = 10**6

# A Lanczos row stops once its Ritz residual is at most LANCZOS_RTOL times
# its top Ritz value, or after LANCZOS_MAX_PRODUCTS products with its
# operator.
LANCZOS_RTOL = 4 * np.finfo(float).eps
LANCZOS_MAX_PRODUCTS = 20000

# Each ascent starts from the ones vector and ASCENT_RESTARTS - 1 seeded
# random vectors, and a start stops once its ratio rises by no more than
# ASCENT_RTOL times max(ratio, 1) or after ASCENT_MAX_ITER products.  Once
# none of an operator's running starts holds its best ratio, a start also
# stops when _ASCENT_REACH times its last rise, kept up for every product
# left, still falls short of that best.
ASCENT_RESTARTS = 5
ASCENT_RTOL = 1e-10
ASCENT_MAX_ITER = 200
_ASCENT_REACH = 10

# The l^p upper bound is rounded outward by the factor 1 + _UPPER_SLACK_NEPS
# n eps.  It and the norm ratio it caps are both built from running sums of
# n terms, each within about n eps of its exact value, and where the two
# agree in exact arithmetic (a diagonal, n = 1) the rounded ratio can
# otherwise land above the rounded bound.
_UPPER_SLACK_NEPS = 8

# A sweep runs the lambdas of one size in chunks whose (k, L, n) block of
# complex iterates takes at most this many bytes; the Lanczos basis sizes
# its blocks by it too.
_LOCKSTEP_BYTES = 2 * 1024 * 1024


@dataclass(frozen=True)
class SpectralDisk:
    """The closed disk |lambda - center| <= radius, tangent to the origin."""

    center: float
    radius: float

    def contains(self, lam):
        return abs(complex(lam) - self.center) <= self.radius + DISK_TOLERANCE


def spectrum_disk(space):
    """Spectrum of the averaging operator in ``space``: the disk of radius p'/2.

    The max-norm spaces (l-infinity, c0, ces(0)) all have p' = 1 and share
    the disk of radius 1/2.
    """
    half = dual_exponent(space.exponent) / 2.0
    return SpectralDisk(center=half, radius=half)


def in_spectrum(space, lam):
    return spectrum_disk(space).contains(lam)


@dataclass
class NormEstimate:
    """A norm estimate with its provenance.

    ``value`` is exact for the max-norm row sums and the ces(0) majorant
    sum of a positive A, else a certified lower bound, the norm ratio at an
    actual vector; in l^2 the ratio at the unit top Ritz vector, with
    ``converged`` false when the product cap came before the residual test;
    in an ascent ``converged`` is false when a start holding the best ratio
    was still running at the product cap.
    ``upper`` is an upper bound when one is available: colmax^(1/p)
    rowmax^(1/p') in l^p, || |A| || rounded outward in ces(0), the row sum
    in l-infinity and c0.  ``regular``, never below ``value``, is || |A| ||:
    exact in the max-norm spaces, else ``value`` if A is its own modulus or
    an estimate like it on |A|.
    """

    value: float
    upper: float | None
    regular: float
    method: str
    exact: bool
    converged: bool
    best_vector: np.ndarray | None = None


def _orthogonalize(basis, x):
    """Subtract from each row of x (w, n) its projection on the orthonormal rows
    of its basis (w, j, n), in place; only x is conjugated."""
    c = np.matmul(basis, x.conj()[..., None])  # conj <b_i, x>, shape (w, j, 1)
    x -= np.matmul(c.conj().swapaxes(-1, -2), basis)[:, 0]


def _lanczos_depth(w, n):
    # the deepest basis whose P and Q blocks, 2 (w, m, n) complex, fit
    # _LOCKSTEP_BYTES, but at least 20 and at most n deep
    return min(n, max(20, _LOCKSTEP_BYTES // (32 * w * n)))


def _lockstep_lanczos(A, seeds):
    """Largest singular values of the L matrices of the stack A, in lockstep.

    Golub-Kahan-Lanczos bidiagonalization A P = Q B, A* Q = P B^T + r e^T,
    with full reorthogonalization, thick-restarted (Baglama and Reichel,
    SIAM J. Sci. Comput. 27, 2005): at depth m the top m // 2 Ritz pairs
    (sigma_i, x_i, y_i) stay, B becomes diag(sigma) with the couplings
    rho_i = beta u_{m,i} in the next column, and the bidiagonalization goes
    on from r / beta.  Operator i's rows of P and Q are row i of (w, n)
    blocks, so each step is one product with the stack and one with its
    adjoint.  B is kept dense as (w, m, m): one batched SVD gives every
    row's top triplet and its residual ||A* y - sigma x|| = beta |u_{j,1}|.
    A row stops once that residual is at most LANCZOS_RTOL sigma, and leaves
    the block and the stack; each restart deepens the basis to what the rows
    still running fit into _LOCKSTEP_BYTES.  The SVD is taken at each
    restart, and in between once the steps since the last one have touched
    j^2 vector entries, so that it never costs much more than the steps.

    Returns (value, unit vector, converged) per operator: the norm ratio
    ||A x|| at the unit top Ritz vector x, a certified lower bound, and
    whether the residual test passed within LANCZOS_MAX_PRODUCTS products.
    """
    L, n = len(seeds), A.n
    m = _lanczos_depth(L, n)
    dtype = A.d.dtype
    P, Q, B = np.empty((L, m + 1, n), dtype), np.empty((L, m, n), dtype), np.zeros((L, m, m))
    complex_rows = np.any([a.imag.any(axis=-1) for a in (A.d, A.u, A.v)], axis=0)
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        if complex_rows[i]:
            x = x + 1j * rng.standard_normal(n)
        P[i, 0] = x / np.linalg.norm(x)
    owner = np.arange(L)  # the operator of each block row
    results = [None] * L
    first = checked = products = 0
    while True:
        for j in range(first, m):
            q = A.matvec(P[:, j])
            # A p_j - sum_i B[i, j] q_i: only q_{j-1}, or after a restart every kept q_i
            lo = j - 1 if j > first else 0
            q -= np.matmul(B[:, None, lo:j, j], Q[:, lo:j])[:, 0]
            _orthogonalize(Q[:, :j], q)
            alpha = np.linalg.norm(q, axis=-1)
            Q[:, j] = q * (1.0 / np.where(alpha > 0, alpha, 1.0))[:, None]
            B[:, j, j] = alpha
            r = A.rmatvec(Q[:, j])
            r -= alpha[:, None] * P[:, j]
            _orthogonalize(P[:, : j + 1], r)
            beta = np.linalg.norm(r, axis=-1)
            products += 1
            capped = products >= LANCZOS_MAX_PRODUCTS
            if j + 1 == m or capped or not beta.all() or (products - checked) * n >= j * j:
                checked = products
                U, s, Vh = np.linalg.svd(B[:, : j + 1, : j + 1])
                converged = beta * np.abs(U[:, j, 0]) <= LANCZOS_RTOL * s[:, 0]
                done = converged | capped
                if done.any():
                    x = np.matmul(Vh[:, :1], P[:, : j + 1])[done, 0]  # no copy of P[done]
                    x *= (1.0 / np.linalg.norm(x, axis=-1))[:, None]
                    values = np.linalg.norm(A[done].matvec(x), axis=-1)
                    for i, v, xi, c in zip(owner[done], values.tolist(), x, converged[done]):
                        results[i] = (v, xi, bool(c))
                    run = ~done
                    owner = owner[run]
                    if not len(owner):
                        return results
                    P, Q, B, r, beta, U, s, Vh = (a[run] for a in (P, Q, B, r, beta, U, s, Vh))
                    A = A[run]
            if j + 1 < m:
                B[:, j, j + 1] = beta
                P[:, j + 1] = r * (1.0 / beta)[:, None]
        # thick restart at j = m - 1: the top Ritz pairs, then r / beta coupled to them
        w, first = len(owner), m // 2
        kept = np.arange(first)
        P[:, :first] = np.matmul(Vh[:, :first], P[:, :m])
        Q[:, :first] = np.matmul(U[:, :, :first].swapaxes(-1, -2), Q[:, :m])
        P[:, first] = r * (1.0 / beta)[:, None]
        B[:] = 0.0
        B[:, kept, kept] = s[:, :first]
        B[:, kept, first] = beta[:, None] * U[:, m - 1, :first]
        depth = _lanczos_depth(w, n)
        if depth > m:  # rows have left: the rest get a deeper basis
            P = np.concatenate((P[:, : first + 1], np.empty((w, depth - first, n), dtype)), axis=1)
            Q = np.concatenate((Q[:, :first], np.empty((w, depth - first, n), dtype)), axis=1)
            B = np.pad(B, ((0, 0), (0, depth - m), (0, depth - m)))
            m = depth


def _ascent_starts(space, n, seeds, escorts=None):
    """The (k, L, n) start block of an ascent of L operators of size n.

    Block rows, in order: the ones vector, ASCENT_RESTARTS - 1 random
    positive vectors (operator i's from its own generator seeded by
    ``seeds[i]``), the (L, n) ``escorts`` if given, and the space's vertex
    starts (:func:`~ceslab.spaces._vertex_starts`).
    """
    L = len(seeds)
    draws = [np.random.default_rng(s).standard_normal((ASCENT_RESTARTS - 1, n)) for s in seeds]
    blocks = [np.ones((1, L, n)), np.abs(np.stack(draws, axis=1))]
    if escorts is not None:
        blocks.append(np.asarray(escorts)[None])
    vertices = np.array(_vertex_starts(space, n)).reshape(-1, 1, n)
    blocks.append(np.broadcast_to(vertices, (len(vertices), L, n)))
    return np.concatenate(blocks)


def _lockstep_ascent(space, A, starts):
    """Dual-exponent power ascents of the L matrices of the stack A, in lockstep.

    ``starts`` is a (k, L, n) block (:func:`_ascent_starts`), column i
    operator i's, and so are the running iterates: every product is one
    running sum over the block.  Each (start, operator) row runs the rule
    of a single ascent (Higham, Numer. Math. 62, 1992): it runs while its
    ratio is finite and still rising by more than ASCENT_RTOL and its next
    iterate has a positive norm.  Once none of an operator's running rows
    holds its best ratio, a row also stops where _ASCENT_REACH times its
    last rise, kept up for every product left before ASCENT_MAX_ITER, falls
    short of the best: a trailing restart that cannot reach it stops
    early, and the row holding the best never stops by this rule.  Both
    rules read only the operator's own rows, so each operator gets the
    result of its own L = 1 run.  Stopped rows leave the block, and so does
    an operator once all its rows have stopped; the stack is indexed down
    to the operators still running.

    Every iterate is a unit vector, so each ratio is a certified lower
    bound.  Returns (value, best_vector, converged) per operator: the
    largest ratio; the iterate of the earliest step that reached it, of
    that step's running rows the first in start order (None if no ratio
    was positive); and whether every row stopped, by either rule, within
    ASCENT_MAX_ITER products.
    """
    k, L, n = starts.shape
    # real operators with real starts keep real iterates
    X = starts.astype(np.result_type(A.d, starts))
    del starts  # as large as the iterates; _norm_reports passes it on without holding it
    scale = _norms(space, X)[0]
    live = scale > 0
    X /= np.where(live, scale, 1.0)[..., None]
    prev = np.full((k, L), -np.inf)
    best, best_x = np.zeros(L), np.zeros((L, n), dtype=X.dtype)
    owner = np.arange(L)  # the operator of each block column
    converged = np.zeros(L, dtype=bool)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for step in range(ASCENT_MAX_ITER):
            y = A.matvec(X)
            est, w = _norms(space, y)
            live &= np.isfinite(est)
            # each operator's best: the first running row with the top ratio, if larger
            running = np.where(live, est, -np.inf)
            row, top = running.argmax(axis=0), running.max(axis=0)
            up = np.flatnonzero(top > best[owner])
            best[owner[up]] = top[up]
            best_x[owner[up]] = X[row[up], up]
            rise = est - prev
            live &= rise > ASCENT_RTOL * np.maximum(est, 1.0)
            # trailing rows whose rise, kept up to the cap, cannot reach their best
            held = np.where(live, est, -np.inf).max(axis=0) >= best[owner]
            reach = _ASCENT_REACH * rise * (ASCENT_MAX_ITER - 1 - step)
            live &= held | (reach >= best[owner] - est)
            prev = est
            # step along the norm's subgradient, pulled back through A*
            z = A.rmatvec(_norming_functionals(space, y, est, w))
            z = _primal_directions(space, z)
            scale = _norms(space, z)[0]
            live &= scale > 0
            X = z
            X /= scale[..., None]  # stopped rows go stale: no ratio of theirs counts

            counts = live.sum(axis=0)
            width = counts.max()
            if width < live.shape[0] or not counts.all():
                # running rows first, in start order; the block narrows to them
                keep = np.flatnonzero(counts)
                converged[owner[counts == 0]] = True
                if not len(keep):
                    break
                order = np.argsort(~live[:, keep], axis=0, kind="stable")[:width]
                X, prev = X[order, keep], prev[order, keep]
                live = np.arange(width)[:, None] < counts[keep]
                if len(keep) < len(owner):
                    owner = owner[keep]
                    A = A[keep]
    return [(float(v), x if v > 0 else None, bool(c)) for v, x, c in zip(best, best_x, converged)]


def _ces0_column_sup(A):
    # the best spike, sup_m m || averages of |A e_m| ||_max, and the ces(0)
    # norm of |A|: by LP duality max{b.x : x >= 0, Cx <= 1}, b a row of C|A|,
    # is the sum of b's least nonincreasing majorant, max_{j >= m} b_j
    absA = A.modulus()
    rows = np.arange(1.0, A.n + 1.0)
    sums = np.zeros(A.n)  # column sums of the rows of |A| above the block
    best_averages = np.zeros(A.n)
    regular = 0.0
    for lo, hi in row_spans(A.n, absA.d.itemsize):
        block = absA.row_block(lo, hi, hi)  # columns from hi on are 0 in these rows
        block[0] += sums[:hi]
        np.cumsum(block, axis=0, out=block)
        sums[:hi] = block[-1]
        block /= rows[lo:hi, None]  # the running averages down each column
        np.maximum(best_averages[:hi], block.max(axis=0), out=best_averages[:hi])
        np.maximum.accumulate(block[:, ::-1], axis=1, out=block[:, ::-1])  # majorants
        regular = max(regular, float(block.sum(axis=1).max()))
    per_column = best_averages * rows
    m_best = int(np.argmax(per_column))
    spike = np.zeros(A.n, dtype=np.complex128)
    spike[m_best] = m_best + 1.0
    return float(per_column[m_best]), spike, regular


def _norm_reports(space, A, seeds):
    """Norm reports of the L matrices of the stack A, acting from ``space`` to itself.

    ``seeds[i]`` seeds operator i's random starts or Lanczos start vector.
    The max-norm row sums and the l^p upper bound colmax^(1/p) rowmax^(1/p'),
    rounded outward by _UPPER_SLACK_NEPS n eps, come from the row and column
    sums of ``A.modulus()``, and the best spike and || |A| || from the ces(0)
    column scan.  Only here is it decided how || |A| || is obtained: the row
    sum in l-infinity and c0, the scan in ces(0), the operator norm where the
    stack is its own modulus (in ces(0) then exact, with no ascent), else
    one more pass on ``A.modulus()``, whose ascent also starts from |x*|,
    the operator's best vector.  Where B^q overflows, with B = m 2^e the
    largest absolute row or column sum and q the largest finite one of p,
    p' and 2, the matrix is scaled by 2^-e (exact, and so is its modulus)
    and its report back by 2^e; where no B^q overflows the stack is used as
    given.
    """
    kind = space.kind
    for seed in seeds:
        if seed < 0:
            raise InvalidConfigError(f"seed must be >= 0, got {seed}")
    absA, ones = A.modulus(), np.ones(A.n)
    rows = absA.matvec(ones).max(axis=-1)
    if kind in ("linf", "c0"):
        return [NormEstimate(v, v, v, "rowsum", True, True) for v in rows.tolist()]
    cols, p = absA.rmatvec(ones).max(axis=-1), space.exponent
    big, q = np.maximum(rows, cols), max(x for x in (p, dual_exponent(p), 2.0) if x < np.inf)
    shifts = np.where(big > np.finfo(float).max ** (1 / q), np.frexp(big)[1], 0)
    if shifts.any():
        scale = np.ldexp(1.0, -shifts)[:, None]  # of d and u; 2^0 = 1 where B^q is finite
        A = LowerTriangularMatrix(A.d * scale, A.u * scale, A.v, A.starts, A.ratios)
        absA = A.modulus()
        rows, cols = absA.matvec(ones).max(axis=-1), absA.rmatvec(ones).max(axis=-1)
    slack = 1.0 + _UPPER_SLACK_NEPS * A.n * np.finfo(float).eps
    uppers = (cols ** (1.0 / p) * rows ** (1.0 / dual_exponent(p)) * slack).tolist()
    positive = A.d.dtype.kind == "f" and min(map(np.min, (A.d, A.u, A.v))) >= 0
    regulars = None  # None: each regular norm is the operator norm
    if kind == "ces0":
        scans = [_ces0_column_sup(A[i]) for i in range(len(seeds))]
        regulars = [regular for *_, regular in scans]
        uppers = [regular * slack for regular in regulars]
    exact = kind == "ces0" and positive
    if exact:
        results, method = [(v, None, True) for v in regulars], "majorant"
    elif kind == "lp" and p == 2.0:
        results, method = _lockstep_lanczos(A, seeds), "lanczos"
        if not positive:
            regulars = [v for v, *_ in _lockstep_lanczos(absA, seeds)]
    else:
        results, method = _lockstep_ascent(space, A, _ascent_starts(space, A.n, seeds)), "ascent"
        if kind != "ces0" and not positive:
            escorts = np.abs([np.zeros(A.n) if x is None else x for _, x, _ in results])
            runs = _lockstep_ascent(space, absA, _ascent_starts(space, A.n, seeds, escorts))
            regulars = [v for v, *_ in runs]
    reports = []
    for i, (value, vector, converged) in enumerate(results):
        if kind == "ces0" and not exact and scans[i][0] > value:
            value, vector = scans[i][:2]
        upper = uppers[i] if kind in ("lp", "ces0") else None
        # ||A|| <= || |A| || on these lattices, so value bounds the regular norm too
        regular = value if regulars is None else max(regulars[i], value)
        reports.append(NormEstimate(value, upper, regular, method, exact, converged, vector))
    for r, e in zip(reports, shifts.tolist()):
        r.value, r.upper = float(np.ldexp(r.value, e)), r.upper and float(np.ldexp(r.upper, e))
        r.regular = float(np.ldexp(r.regular, e))
    return reports


def operator_norm_report(space, A, seed=0):
    """Operator norm of A acting from ``space`` to itself: the L = 1 report.

    Exact for the max-norm row sums and a positive A in ces(0); in l^2 the
    largest singular value to rounding, from Lanczos started at a vector
    seeded by ``seed``; elsewhere the best lower bound found by
    dual-exponent ascent with restarts seeded by ``seed``.  The report's
    ``regular`` is the norm of ``A.modulus()``, the least positive operator
    dominating A on these coordinatewise lattices.
    """
    return _norm_reports(space, stack([A]), [seed])[0]


@dataclass(frozen=True)
class GridSpec:
    """Rectangular lambda grid with uniform step, traversed row-major.

    A zero-extent axis contributes the single value at its minimum, so
    one-point grids are expressed as degenerate rectangles.
    """

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    step: float

    def __post_init__(self):
        for name in ("re_min", "re_max", "im_min", "im_max", "step"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise InvalidConfigError(f"grid {name} must be finite, got {value}")
        if not self.step > 0:
            raise InvalidConfigError(f"grid step must be positive, got {self.step}")
        if self.re_min > self.re_max or self.im_min > self.im_max:
            raise InvalidConfigError("grid extents must satisfy min <= max")
        count = 1.0
        for lo, hi in ((self.re_min, self.re_max), (self.im_min, self.im_max)):
            extent = hi - lo
            if 0.0 < extent < self.step:
                raise InvalidConfigError(
                    f"step {self.step} exceeds grid extent {extent}; empty grid"
                )
            count *= self._count(lo, hi)
        if not count <= GRID_POINTS_MAX:
            raise InvalidConfigError(
                f"step {self.step} gives {count:.3g} grid points (max {GRID_POINTS_MAX})"
            )

    def _count(self, lo, hi):
        # points on one axis, as a float that is inf where extent / step overflows
        return 1.0 if hi == lo else np.floor((hi - lo) / self.step + 1e-9) + 1.0

    def _axis(self, lo, hi):
        if hi == lo:
            return np.array([lo])
        return lo + self.step * np.arange(int(self._count(lo, hi)))

    def points(self):
        """Grid points ordered row-major: imaginary part outer, real inner."""
        res = self._axis(self.re_min, self.re_max)
        ims = self._axis(self.im_min, self.im_max)
        return [complex(re, im) for im in ims for re in res]


@dataclass(frozen=True)
class SweepRecord:
    """One (lambda, n) sample of the sweep engine."""

    lam: complex
    n: int
    gamma: float
    op_norm_est: float
    reg_norm_est: float
    in_disk: bool


@dataclass(frozen=True)
class GrowthVerdict:
    """Growth classification of one lambda across truncation sizes."""

    lam: complex
    ratios: tuple[float, ...]
    verdict: str


# wrapped by perfbench/tracer.py, which times each call as span spectra.sweep_task
def _sweep_task(space, n, chunk):
    """Records of one chunk of (lambda, gamma, seed, in_disk) tasks at size n.

    The chunk's resolvents are stacked once, and one :func:`_norm_reports`
    call gives every record's operator norm and regular norm.
    """
    R = stack([resolvent_operator(lam, n) for lam, *_ in chunk])
    reports = _norm_reports(space, R, [seed for _, _, seed, _ in chunk])
    return [
        SweepRecord(lam, n, gamma, report.value, report.regular, in_disk)
        for (lam, gamma, _, in_disk), report in zip(chunk, reports)
    ]


def _max_workers():
    # read by perfbench/child.py, which records it as the run's worker count
    return 1


def sweep(space, grid, sizes, seed=0):
    """Resolvent-norm sweep over a lambda grid at several truncation sizes.

    Points within SWEEP_GAMMA_SKIP of a pole are skipped and logged.  Each
    retained (lambda, n) task builds the closed-form resolvent in generator
    form (:func:`~ceslab.resolvent.resolvent_operator`) and records
    operator- and regular-norm estimates plus disk membership.  Task
    (i, j), the i-th retained lambda at the j-th size, seeds its restarts
    with ``seed + 1000003 i + j``.  The tasks of one size run in
    chunks of consecutive lambdas whose (k, L, n) block of iterates fits
    _LOCKSTEP_BYTES; the ascents or Lanczos runs of a chunk go in lockstep.  Chunks
    run in grid order on the calling thread, and the records come back in
    row-major grid order, sizes ascending within each lambda.
    """
    if seed < 0:
        raise InvalidConfigError(f"seed must be >= 0, got {seed}")
    sizes = [int(s) for s in sizes]
    if not sizes or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise InvalidConfigError(f"sizes must be nonempty ascending, got {sizes}")
    if sizes[0] < 1:
        raise InvalidDimensionError(f"sizes must be positive, got {sizes}")
    points = grid.points() if isinstance(grid, GridSpec) else list(grid)
    if not points:
        raise InvalidConfigError("empty lambda grid")

    retained = []  # (lambda, gamma, in_disk), each taken once per lambda
    for lam in points:
        g = gamma_of(lam)
        if g <= SWEEP_GAMMA_SKIP:
            logger.info("skipping lambda=%s: gamma=%.3e within the pole shadow", lam, g)
            continue
        retained.append((lam, g, in_spectrum(space, lam)))

    records = {}
    for j, n in enumerate(sizes):
        tasks = [
            (lam, g, seed + 1000003 * i + j, in_disk)
            for i, (lam, g, in_disk) in enumerate(retained)
        ]
        # an ascent's starts size the chunks, with the |x*| start of a regular
        # pass outside ces(0), whose regular norm comes from its column scan
        k = ASCENT_RESTARTS + (space.kind != "ces0") + len(_vertex_starts(space, n))
        length = max(1, _LOCKSTEP_BYTES // (16 * k * n))
        for lo in range(0, len(tasks), length):
            chunk_records = _sweep_task(space, n, tasks[lo : lo + length])
            for i, record in enumerate(chunk_records, start=lo):
                records[i, j] = record
    return [records[i, j] for i in range(len(retained)) for j in range(len(sizes))]


def classify_growth(records):
    """Classify one lambda's records by successive regular-norm ratios.

    Growing requires the final ratio to reach GROWING_RATIO; bounded
    requires every ratio at or below BOUNDED_RATIO; anything else is
    inconclusive.
    """
    records = list(records)
    if len(records) < 2:
        raise UnsupportedParameterError("growth classification needs >= 2 sizes")
    lams = {r.lam for r in records}
    if len(lams) != 1:
        raise UnsupportedParameterError("records must belong to one lambda")
    ns = [r.n for r in records]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise UnsupportedParameterError("sizes must be strictly increasing")
    values = [r.reg_norm_est for r in records]
    ratios = tuple(
        float(b / a) if a > 0 else float("inf") for a, b in zip(values, values[1:])
    )
    if ratios[-1] >= GROWING_RATIO:
        verdict = "growing"
    elif all(r <= BOUNDED_RATIO for r in ratios):
        verdict = "bounded"
    else:
        verdict = "inconclusive"
    return GrowthVerdict(lam=records[0].lam, ratios=ratios, verdict=verdict)
