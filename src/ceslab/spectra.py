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
SVD_CUTOFF the l^2 norm comes from Lanczos bidiagonalization (ARPACK
through ``scipy.sparse.linalg.svds``) instead of a dense SVD.

There is one norm-report path, :func:`_norm_reports`, for one operator or
a sweep chunk of L of one size: it stacks them into one matrix with (L, n)
generators (:func:`~ceslab.triangular.stack`), takes the row sums and l^p
upper bounds from the stack, and runs Lanczos per operator or the block
power method :func:`_lockstep_ascent` on one (k, L, n) block of iterates.
Every norm of a vector or a stack is taken by :mod:`ceslab.spaces`, and
the disk's radius comes from the space's exponent.

Every estimator uses only a small operator interface: ``n``, ``matvec``,
``rmatvec`` (the adjoint), ``modulus()``, ``abs_row_sums()``,
``abs_col_sums()``, ``is_real()`` and ``dense()``, which the generator
form of :class:`~ceslab.triangular.LowerTriangularMatrix` provides at O(n)
cost per product.  Only the dense SVD up to SVD_CUTOFF stores an operator
densely.  The ces(0) column scan forms |A| _COLUMN_BLOCK columns at a
time, so it needs O(n _COLUMN_BLOCK) memory instead of O(n^2).
"""

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, svds

from .errors import InvalidConfigError, InvalidDimensionError, UnsupportedParameterError
from .resolvent import gamma as gamma_of
from .resolvent import resolvent_operator
from .spaces import _norms, cesaro_averages, dual_exponent
from .triangular import stack

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

# Up to this size l^2 norms use a full SVD of the dense matrix; above it
# Lanczos bidiagonalization run to machine precision, which needs only
# products with the matrix and its adjoint.
SVD_CUTOFF = 64

# Each ascent starts from the ones vector and ASCENT_RESTARTS - 1 seeded
# random vectors, and a start stops once its ratio rises by no more than
# ASCENT_RTOL times max(ratio, 1) or after ASCENT_MAX_ITER products.
ASCENT_RESTARTS = 5
ASCENT_RTOL = 1e-10
ASCENT_MAX_ITER = 200

# The ces(0) column scan forms this many columns of |A| at a time.
_COLUMN_BLOCK = 256

# A sweep runs the lambdas of one size in chunks whose (k, L, n) block of
# complex iterates takes at most this many bytes.
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


def _l2_estimate(A, seed, upper):
    n = A.n
    real = A.is_real()
    if n <= SVD_CUTOFF:
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
    rng = np.random.default_rng(seed)
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
    return NormEstimate(value, upper, "lanczos", False, converged, vector)


def _lp_dual_map(z, p_dual):
    # maximizer of Re<z, x> over the unit p-ball, up to normalization
    return _phase(z) * np.abs(z) ** (p_dual - 1.0)


def _ces_dual_transpose(g):
    # (C^T g)_m = sum_{j >= m} g_j / j, 1-based, along the last axis
    weighted = g / np.arange(1, g.shape[-1] + 1, dtype=np.float64)
    return np.cumsum(weighted[..., ::-1], axis=-1)[..., ::-1]


def _ascent_starts(space, n, seed, extra_starts):
    """The start vectors of one ascent, as the rows of a (k, n) array.

    In order: the ones vector, ASCENT_RESTARTS - 1 seeded random positive
    vectors, the nonzero ``extra_starts`` of length n and, for ces(0), the
    vertex starts.
    """
    starts = [np.ones(n)]
    rng = np.random.default_rng(seed)
    for _ in range(ASCENT_RESTARTS - 1):
        starts.append(np.abs(rng.standard_normal(n)))
    for vec in extra_starts:
        v = np.asarray(vec)
        if v.shape == (n,) and np.abs(v).max() > 0:
            starts.append(v)
    if space.kind == "ces0":
        starts.extend(_ces0_vertex_starts(n))
    return np.array(starts)


def _lockstep_ascent(space, operators, starts):
    """Dual-exponent power ascents of L operators of one size, in lockstep.

    ``starts[i]`` holds the (k_i, n) start vectors of operator i.  The
    operators form one stacked matrix with (L, n) generators, and the
    running iterates one (k, L, n) block, so that every product is one
    running sum over the whole block.  Each (start, operator) row runs the
    rule of a single ascent (Higham, Numer. Math. 62, 1992): it stops when
    its ratio stops rising by more than ASCENT_RTOL or a step vanishes, and
    it keeps its own best ratio.  Stopped rows leave the block, and so does
    an operator once all its rows have stopped; the stack is rebuilt from
    the operators still running.

    Every iterate is a unit vector, so each ratio is a certified lower
    bound.  Returns (value, best_vector, converged) per operator: the
    largest ratio, the first iterate in start order that reached it (None
    if no ratio was positive), and whether every row stopped within
    ASCENT_MAX_ITER products.
    """
    L, n = len(operators), operators[0].n
    k = max(len(s) for s in starts)
    A = stack(operators)
    # real operators with real starts keep real iterates
    dtype = np.result_type(A.d, *starts)
    X = np.zeros((k, L, n), dtype=dtype)
    live = np.zeros((k, L), dtype=bool)
    for i, s in enumerate(starts):
        X[: len(s), i] = s
        live[: len(s), i] = True
    scale, _ = _norms(space, X)
    live &= scale > 0
    X /= np.where(live, scale, 1.0)[..., None]
    prev = np.full((k, L), -np.inf)
    # best ratio and first iterate reaching it of every (operator, start);
    # block row (j, i) keeps them at flat position slot[j, i] = i k + j
    best = np.zeros(L * k)
    best_x = np.zeros((L * k, n), dtype=dtype)
    slot = np.arange(L * k).reshape(L, k).T
    owner = np.arange(L)  # the operator of each block column
    converged = np.zeros(L, dtype=bool)

    p, max_type = space.p, space.kind == "ces0"
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(ASCENT_MAX_ITER):
            y = A.matvec(X)
            est, w = _norms(space, y)
            better = live & (est > best[slot])
            best[slot[better]] = est[better]
            best_x[slot[better]] = X[better]
            live &= (est > 0.0) & (est - prev > ASCENT_RTOL * np.maximum(est, 1.0))
            prev = est
            # step along the norm's subgradient, pulled back through A*
            if space.kind == "lp":
                z = A.rmatvec(_lp_dual_map(y, p))
            else:
                if max_type:
                    g = np.zeros_like(w)
                    np.put_along_axis(g, w.argmax(axis=-1)[..., None], 1.0, axis=-1)
                else:
                    g = (w / est[..., None]) ** (p - 1.0)
                z = A.rmatvec(_phase(y) * _ces_dual_transpose(g))
            live &= np.abs(z).max(axis=-1) > 0
            if not max_type:
                z = _lp_dual_map(z, dual_exponent(p))
            scale, _ = _norms(space, z)
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
                rows = order, keep
                X, prev, slot = X[rows], prev[rows], slot[rows]
                live = np.arange(width)[:, None] < counts[keep]
                if len(keep) < len(owner):
                    owner = owner[keep]
                    A = stack([operators[i] for i in owner])
    # each operator's largest ratio and the first row in start order reaching it
    best, best_x = best.reshape(L, k), best_x.reshape(L, k, n)
    top = np.arange(L), best.argmax(axis=1)
    return [
        (float(v), x if v > 0 else None, bool(c))
        for v, x, c in zip(best[top], best_x[top], converged)
    ]


def _ces0_vertex_starts(n):
    # extreme rays of the ces(0) unit ball reachable in closed form:
    # scaled basis spikes m e_m and tail-ones vectors
    starts = []
    m = 1
    while m <= n:
        spike = np.zeros(n)
        spike[m - 1] = m
        starts.append(spike)
        m *= 2
    starts.append(np.ones(n))
    m = 2
    while m <= n:
        t = np.zeros(n)
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
        spikes = np.zeros((hi - lo, A.n))
        spikes[:, lo:hi] = np.eye(hi - lo)
        block = absA.matvec(spikes).real  # row m is column m of |A|
        best_averages[lo:hi] = cesaro_averages(block).max(axis=-1)
    per_column = best_averages * rows
    m_best = int(np.argmax(per_column))
    spike = np.zeros(A.n, dtype=np.complex128)
    spike[m_best] = m_best + 1.0
    return float(per_column[m_best]), spike


def _norm_reports(space, operators, seeds, extra_starts):
    """Norm reports of L operators of one size acting from ``space`` to itself.

    ``seeds[i]`` seeds operator i's random starts or Lanczos start vector,
    and ``extra_starts[i]`` adds ascent starts of its own.  The max-norm
    row sums and the l^p upper bound colmax^(1/p) rowmax^(1/p') come from
    one stack of all L operators.  ces(0) reports take the exact best
    spike start when it beats the ascent.
    """
    kind = space.kind
    for seed in seeds:
        if seed < 0:
            raise InvalidConfigError(f"seed must be >= 0, got {seed}")
    uppers = [None] * len(operators)
    if kind in ("lp", "linf", "c0"):
        stacked = stack(operators)
        rows = stacked.abs_row_sums().max(axis=-1)
        if kind != "lp":
            return [NormEstimate(v, v, "rowsum", True, True) for v in rows.tolist()]
        cols = stacked.abs_col_sums().max(axis=-1)
        uppers = (cols ** (1.0 / space.p) * rows ** (1.0 / dual_exponent(space.p))).tolist()
        if space.p == 2.0:
            return [_l2_estimate(A, s, u) for A, s, u in zip(operators, seeds, uppers)]
    triples = zip(operators, seeds, extra_starts)
    starts = [_ascent_starts(space, A.n, seed, extra) for A, seed, extra in triples]
    ascents = _lockstep_ascent(space, operators, starts)
    reports = []
    for A, upper, (value, vector, converged) in zip(operators, uppers, ascents):
        if kind == "ces0":
            spike_value, spike = _ces0_column_sup(A)
            if spike_value > value:
                value, vector = spike_value, spike
        reports.append(NormEstimate(value, upper, "ascent", False, converged, vector))
    return reports


def operator_norm_report(space, A, seed=0, extra_starts=()):
    """Operator norm of A acting from ``space`` to itself: the L = 1 report.

    Exact for the max-norm spaces (largest absolute row sum) and for l^2
    (largest singular value); elsewhere the best lower bound found by
    dual-exponent ascent with restarts seeded by ``seed``.  The regular
    norm of A is the norm of ``A.modulus()``, the least positive operator
    dominating A on these coordinatewise lattices.
    """
    return _norm_reports(space, [A], [seed], [extra_starts])[0]


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
    """Records of one chunk of (lambda, seed, in_disk) tasks at size n.

    One :func:`_norm_reports` call gives every operator norm of the chunk,
    and a second every regular norm, whose ascent also starts from the
    escort |x*| of its operator's best vector; that pins reg >= op.
    """
    resolvents = [resolvent_operator(lam, n) for lam, _, _ in chunk]
    seeds = [seed for _, seed, _ in chunk]
    ops = _norm_reports(space, resolvents, seeds, [()] * len(chunk))
    escorts = [() if op.best_vector is None else (np.abs(op.best_vector),) for op in ops]
    regs = _norm_reports(space, [R.modulus() for R in resolvents], seeds, escorts)
    return [
        SweepRecord(
            lam=lam,
            n=n,
            gamma=gamma_of(lam),
            op_norm_est=op.value,
            reg_norm_est=reg.value,
            in_disk=in_disk,
        )
        for (lam, _, in_disk), op, reg in zip(chunk, ops, regs)
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
    _LOCKSTEP_BYTES; the ascents of a chunk run in lockstep.  Chunks
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

    retained = []
    for lam in points:
        g = gamma_of(lam)
        if g <= SWEEP_GAMMA_SKIP:
            logger.info(
                "skipping lambda=%s: gamma=%.3e within the pole shadow", lam, g
            )
            continue
        retained.append(lam)
    in_disk = [in_spectrum(space, lam) for lam in retained]

    records = {}
    for j, n in enumerate(sizes):
        tasks = [
            (lam, seed + 1000003 * i + j, in_disk[i])
            for i, lam in enumerate(retained)
        ]
        # k counts the starts of a regular-norm ascent, escort included
        k = len(_ascent_starts(space, n, seed, [np.ones(n)]))
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
