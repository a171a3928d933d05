"""Spectral disks, operator-norm estimation and the lambda-grid sweep engine.

The spectrum of the averaging operator in every supported space is a closed
disk tangent to the origin with center and radius p'/2 (p' = 1 for the
max-norm spaces).  Finite sections cannot certify membership, but the
growth of resolvent-norm estimates across increasing truncation sizes is an
honest directional proxy: bounded inside the resolvent set, growing inside
the open disk.

Operator norms are exact where a closed form exists (max row sums on the
max-norm spaces, singular values on l^2) and otherwise estimated by a
dual-exponent ascent iteration that returns the best certified lower bound,
paired with a row-sum-style upper bound where one is available.  Above
``NormOptions.svd_cutoff`` the l^2 norm comes from Lanczos
bidiagonalization (ARPACK through ``scipy.sparse.linalg.svds``) instead of
a dense SVD.

Every estimator uses only a small operator interface: ``n``, ``matvec``,
``rmatvec`` (the adjoint), ``modulus()``, ``abs_row_sums()``,
``abs_col_sums()``, ``is_real()`` and ``dense()``, which the generator
form of :class:`~ceslab.triangular.LowerTriangularMatrix` provides at O(n)
cost per product.  An operator is stored densely only where that is faster:
the dense SVD up to the cutoff and the ascents up to DENSE_PRODUCTS_MAX.
The ces(0) column scan forms |A| _COLUMN_BLOCK columns at a time, so it
needs O(n _COLUMN_BLOCK) memory instead of O(n^2).
"""

import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, svds

from .errors import InvalidConfigError, UnsupportedParameterError
from .resolvent import gamma as gamma_of
from .resolvent import resolvent_operator
from .spaces import cesaro_averages, dual_exponent, norm

__all__ = [
    "SpectralDisk",
    "SweepRecord",
    "GrowthVerdict",
    "GridSpec",
    "NormOptions",
    "NormEstimate",
    "spectrum_disk",
    "in_spectrum",
    "operator_norm_estimate",
    "operator_norm_report",
    "regular_norm_estimate",
    "sweep",
    "classify_growth",
]

logger = logging.getLogger(__name__)

# Grid points closer than this to a pole are skipped (not errored) so that
# sweeps over rectangles meeting (0, 1] complete.
SWEEP_GAMMA_SKIP = 1e-3

DISK_TOLERANCE = 1e-12

# Up to this size the ascents apply one dense copy of the operator: a BLAS
# product then beats the few numpy calls of an O(n) running sum (the two
# cost the same near n = 200 on a 2-CPU Xeon).
DENSE_PRODUCTS_MAX = 200

# The ces(0) column scan forms this many columns of |A| at a time.
_COLUMN_BLOCK = 256


@dataclass(frozen=True)
class SpectralDisk:
    """The closed disk |lambda - center| <= radius, tangent to the origin."""

    center: float
    radius: float

    def contains(self, lam, tol=DISK_TOLERANCE):
        return abs(complex(lam) - self.center) <= self.radius + tol


def spectrum_disk(space):
    """Spectrum of the averaging operator in ``space``: the disk of radius p'/2.

    The max-norm spaces (l-infinity, c0, ces(0)) all have p' = 1 and share
    the disk of radius 1/2.
    """
    if space.kind in ("lp", "ces"):
        half = dual_exponent(space.p) / 2.0
    elif space.kind in ("linf", "c0", "ces0"):
        half = 0.5
    else:
        raise ValueError(f"unknown space kind {space.kind!r}")
    return SpectralDisk(center=half, radius=half)


def in_spectrum(space, lam, tol=DISK_TOLERANCE):
    return spectrum_disk(space).contains(lam, tol=tol)


@dataclass(frozen=True)
class NormOptions:
    """Options for the iterative norm estimators.

    ``seed`` drives the random restarts and the Lanczos start vector,
    making every estimate reproducible; ``svd_cutoff`` is the size up to
    which l^2 norms use a full singular value decomposition of the dense
    matrix.  Above it they use Lanczos bidiagonalization run to machine
    precision, which needs only products with the matrix and its adjoint.
    """

    seed: int = 0
    restarts: int = 5
    max_iter: int = 200
    rtol: float = 1e-10
    svd_cutoff: int = 64


@dataclass
class NormEstimate:
    """A norm estimate with its provenance.

    ``value`` is exact for the closed-form paths and a certified lower
    bound for the ascent paths (it is the norm ratio at an actual vector).
    The Lanczos path reports the largest singular value to rounding when
    ARPACK converges, and otherwise the norm ratio at its last iterate
    with ``converged`` false.  ``upper`` is a row-sum-based upper bound
    when one is available.
    """

    value: float
    upper: float | None
    method: str
    exact: bool
    converged: bool
    best_vector: np.ndarray | None = None


def _phase(v):
    out = np.zeros_like(v)
    np.divide(v, np.abs(v), out=out, where=np.abs(v) > 0)
    return out


def _l2_estimate(A, opts):
    n = A.n
    real = A.is_real()
    if n <= opts.svd_cutoff:
        dense = A.dense()
        if real:
            dense = dense.real  # real SVD is about twice as fast
        value = float(scipy.linalg.svdvals(dense)[0])
        return NormEstimate(value, value, "svd", True, True)
    dtype = np.float64 if real else np.complex128
    cast = np.real if real else np.asarray
    operator = LinearOperator(
        (n, n),
        matvec=lambda x: cast(A.matvec(np.ravel(x))),
        rmatvec=lambda y: cast(A.rmatvec(np.ravel(y))),
        dtype=dtype,
    )
    rng = np.random.default_rng(opts.seed)
    v0 = rng.standard_normal(n)
    if not real:
        v0 = v0 + 1j * rng.standard_normal(n)
    try:
        _, s, vh = svds(operator, k=1, tol=0, v0=v0)
        value, vector, converged = float(s[0]), vh[0].conj(), True
    except ArpackNoConvergence as exc:
        # report the norm ratio at the last iterate, a certified lower bound
        found = np.asarray(exc.eigenvectors)
        vector = found[:, -1] if found.ndim == 2 and found.shape[1] else v0
        vector = vector / np.linalg.norm(vector)
        value, converged = float(np.linalg.norm(A.matvec(vector))), False
    upper = float(np.sqrt(A.abs_row_sums().max() * A.abs_col_sums().max()))
    return NormEstimate(value, upper, "lanczos", False, converged, vector)


def _products(A):
    """The products x -> A x and y -> A* y that the ascents iterate."""
    if A.n > DENSE_PRODUCTS_MAX:
        return A.matvec, A.rmatvec
    # complex like the iterates, so that no product casts the matrix again
    dense = A.dense().astype(np.complex128, copy=False)
    return dense.__matmul__, dense.conj().T.__matmul__


def _lp_dual_map(z, p_dual):
    # maximizer of Re<z, x> over the unit p-ball, up to normalization
    return _phase(z) * np.abs(z) ** (p_dual - 1.0)


def _ascent_starts(n, opts, extra_starts):
    starts = [np.ones(n, dtype=np.complex128)]
    rng = np.random.default_rng(opts.seed)
    for _ in range(max(0, opts.restarts - 1)):
        starts.append(np.abs(rng.standard_normal(n)).astype(np.complex128))
    for vec in extra_starts:
        v = np.asarray(vec, dtype=np.complex128)
        if v.shape == (n,) and np.abs(v).max() > 0:
            starts.append(v)
    return starts


def _ascent_lp(A, p, opts, extra_starts):
    """Dual-exponent power-type ascent for the p -> p operator norm.

    Each iterate is a unit vector, so every evaluated ratio is a certified
    lower bound; the estimate sequence is nondecreasing along a run.
    """
    matvec, rmatvec = _products(A)
    p_dual = dual_exponent(p)
    best = 0.0
    best_x = None
    converged = True
    for x0 in _ascent_starts(A.n, opts, extra_starts):
        x = x0 / np.linalg.norm(x0, p)
        prev = -np.inf
        for it in range(opts.max_iter):
            y = matvec(x)
            est = float(np.linalg.norm(y, p))
            if est > best:
                best, best_x = est, x.copy()
            if est == 0.0 or est - prev <= opts.rtol * max(est, 1.0):
                break
            prev = est
            psi = _lp_dual_map(y, p)  # direction of the norm's subgradient
            z = rmatvec(psi)
            if np.abs(z).max() == 0:
                break
            x = _lp_dual_map(z, p_dual)
            x /= np.linalg.norm(x, p)
        else:
            converged = False
    upper = float(
        A.abs_col_sums().max() ** (1.0 / p) * A.abs_row_sums().max() ** (1.0 / p_dual)
    )
    return NormEstimate(best, upper, "ascent", False, converged, best_x)


def _ces_dual_transpose(g, n):
    # (C^T g)_m = sum_{j >= m} g_j / j, 1-based
    weighted = g / np.arange(1, n + 1, dtype=np.float64)
    return np.cumsum(weighted[::-1])[::-1]


def _ascent_ces(A, space, opts, extra_starts):
    """Ascent for the ces(p)/ces(0) operator norm via averaged norms.

    The update follows the chain rule through the averaging matrix; the
    reported value is the best norm ratio over all evaluated unit vectors,
    hence a valid lower bound regardless of the heuristic's dynamics.
    """
    matvec, rmatvec = _products(A)
    n = A.n
    max_type = space.kind == "ces0"
    best = 0.0
    best_x = None
    converged = True

    starts = _ascent_starts(n, opts, extra_starts)
    if max_type:
        starts.extend(_ces0_vertex_starts(n))

    for x0 in starts:
        nx = norm(space, x0)
        if nx == 0:
            continue
        x = x0 / nx
        prev = -np.inf
        for it in range(opts.max_iter):
            y = matvec(x)
            w = cesaro_averages(y)
            if max_type:
                est = float(w.max())
            else:
                est = float(np.linalg.norm(w, space.p))
            if est > best:
                best, best_x = est, x.copy()
            if est == 0.0 or est - prev <= opts.rtol * max(est, 1.0):
                break
            prev = est
            if max_type:
                g = np.zeros(n)
                g[int(np.argmax(w))] = 1.0
            else:
                g = (w / est) ** (space.p - 1.0)
            z = rmatvec(_phase(y) * _ces_dual_transpose(g, n))
            if np.abs(z).max() == 0:
                break
            if max_type:
                x = z.copy()  # align with the subgradient; renormalized below
            else:
                x = _lp_dual_map(z, dual_exponent(space.p))
            nx = norm(space, x)
            if nx == 0:
                break
            x = x / nx
        else:
            converged = False
    return NormEstimate(best, None, "ascent", False, converged, best_x)


def _ces0_vertex_starts(n):
    # extreme rays of the ces(0) unit ball reachable in closed form:
    # scaled basis spikes m e_m and tail-ones vectors
    starts = []
    m = 1
    while m <= n:
        spike = np.zeros(n, dtype=np.complex128)
        spike[m - 1] = m
        starts.append(spike)
        m *= 2
    tail = np.ones(n, dtype=np.complex128)
    starts.append(tail)
    m = 2
    while m <= n:
        t = np.zeros(n, dtype=np.complex128)
        t[m - 1 :] = 1.0
        starts.append(t)
        m *= 4
    return starts


def _ces0_column_sup(A):
    # best single-column input: sup_m m * || averages of |A e_m| ||_max,
    # exact over the spike directions m e_m of the ces(0) unit sphere
    absA = A.modulus()
    rows = np.arange(1, A.n + 1)
    best_averages = np.empty(A.n)
    for lo in range(0, A.n, _COLUMN_BLOCK):
        hi = min(A.n, lo + _COLUMN_BLOCK)
        columns = np.zeros((A.n, hi - lo))
        columns[lo:hi] = np.eye(hi - lo)
        block = absA.matvec(columns).real
        best_averages[lo:hi] = (np.cumsum(block, axis=0) / rows[:, None]).max(axis=0)
    per_column = best_averages * rows
    m_best = int(np.argmax(per_column))
    spike = np.zeros(A.n, dtype=np.complex128)
    spike[m_best] = m_best + 1.0
    return float(per_column[m_best]), spike


def operator_norm_report(space, A, opts=None, extra_starts=()):
    """Full norm-estimation report; see :func:`operator_norm_estimate`."""
    opts = opts or NormOptions()
    kind = space.kind
    if kind in ("linf", "c0"):
        value = float(A.abs_row_sums().max())
        return NormEstimate(value, value, "rowsum", True, True)
    if kind == "lp":
        if space.p == 2.0:
            return _l2_estimate(A, opts)
        return _ascent_lp(A, space.p, opts, extra_starts)
    if kind == "ces":
        return _ascent_ces(A, space, opts, extra_starts)
    if kind == "ces0":
        report = _ascent_ces(A, space, opts, extra_starts)
        spike_value, spike = _ces0_column_sup(A)
        if spike_value > report.value:
            report.value = spike_value
            report.best_vector = spike
        return report
    raise ValueError(f"unknown space kind {space.kind!r}")


def operator_norm_estimate(space, A, opts=None):
    """Operator norm of A acting from ``space`` to itself.

    Exact for the max-norm spaces (largest absolute row sum) and for l^2
    (largest singular value: a dense SVD up to the cutoff, Lanczos above
    it); elsewhere the value is the best lower bound found by
    dual-exponent ascent with seeded restarts.  ``A`` is any operator
    with the interface described in the module docstring.
    """
    return operator_norm_report(space, A, opts).value


def regular_norm_estimate(space, A, opts=None):
    """Regular norm of A: the operator norm of its entrywise modulus.

    On these coordinatewise lattices the modulus matrix is the least
    positive operator dominating A, so its norm realizes the infimum
    defining the regular norm; for positive A the two norms coincide.
    """
    return operator_norm_report(space, A.modulus(), opts).value


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
        if not self.step > 0:
            raise InvalidConfigError(f"grid step must be positive, got {self.step}")
        if self.re_min > self.re_max or self.im_min > self.im_max:
            raise InvalidConfigError("grid extents must satisfy min <= max")
        for lo, hi in ((self.re_min, self.re_max), (self.im_min, self.im_max)):
            extent = hi - lo
            if 0.0 < extent < self.step:
                raise InvalidConfigError(
                    f"step {self.step} exceeds grid extent {extent}; empty grid"
                )

    def _axis(self, lo, hi):
        if hi == lo:
            return np.array([lo])
        count = int(np.floor((hi - lo) / self.step + 1e-9)) + 1
        return lo + self.step * np.arange(count)

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


def _sweep_task(space, lam, n, opts, in_disk):
    R = resolvent_operator(lam, n)
    op = operator_norm_report(space, R, opts)
    escort = ()
    if op.best_vector is not None:
        # feeding |x*| to the modulus ascent pins reg >= op structurally
        escort = (np.abs(op.best_vector),)
    reg = operator_norm_report(space, R.modulus(), opts, extra_starts=escort)
    return SweepRecord(
        lam=lam,
        n=n,
        gamma=gamma_of(lam),
        op_norm_est=op.value,
        reg_norm_est=reg.value,
        in_disk=in_disk,
    )


def _max_workers():
    env = os.environ.get("CESLAB_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            logger.warning("ignoring non-integer CESLAB_THREADS=%r", env)
    return min(8, os.cpu_count() or 1)


def sweep(space, grid, sizes, opts=None):
    """Resolvent-norm sweep over a lambda grid at several truncation sizes.

    Points within SWEEP_GAMMA_SKIP of a pole are skipped and logged.  Each
    retained (lambda, n) task builds the closed-form resolvent in generator
    form (:func:`~ceslab.resolvent.resolvent_operator`) and records
    operator- and regular-norm estimates plus disk membership.  Tasks run
    on a thread pool (capped by the CESLAB_THREADS environment variable)
    and results are merged back into deterministic row-major grid order,
    sizes ascending within each lambda.
    """
    opts = opts or NormOptions()
    sizes = [int(s) for s in sizes]
    if not sizes or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise InvalidConfigError(f"sizes must be nonempty ascending, got {sizes}")
    if sizes[0] < 1:
        raise InvalidConfigError(f"sizes must be positive, got {sizes}")
    points = grid.points() if isinstance(grid, GridSpec) else list(grid)
    if not points:
        raise InvalidConfigError("empty lambda grid")

    retained = []
    for lam in points:
        g = gamma_of(lam)
        if g <= SWEEP_GAMMA_SKIP:
            logger.info(
                "skipping lambda=%s: gamma=%.3e within the pole shadow", lam, g
            )
            continue
        retained.append(lam)

    tasks = []
    for i, lam in enumerate(retained):
        in_disk = in_spectrum(space, lam)
        for j, n in enumerate(sizes):
            task_opts = replace(opts, seed=opts.seed + 1000003 * i + j)
            tasks.append((i * len(sizes) + j, space, lam, n, task_opts, in_disk))

    results = {}
    with ThreadPoolExecutor(max_workers=_max_workers()) as pool:
        futures = {
            pool.submit(_sweep_task, space, lam, n, task_opts, in_disk): key
            for key, space, lam, n, task_opts, in_disk in tasks
        }
        for future, key in futures.items():
            results[key] = future.result()
    return [results[k] for k in sorted(results)]


def classify_growth(records, growing_threshold=1.5, bounded_threshold=1.1):
    """Classify one lambda's records by successive regular-norm ratios.

    Growing requires the final ratio to reach ``growing_threshold``;
    bounded requires every ratio at or below ``bounded_threshold``;
    anything else is inconclusive.
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
    if ratios[-1] >= growing_threshold:
        verdict = "growing"
    elif all(r <= bounded_threshold for r in ratios):
        verdict = "bounded"
    else:
        verdict = "inconclusive"
    return GrowthVerdict(lam=records[0].lam, ratios=ratios, verdict=verdict)
