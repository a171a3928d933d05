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

There is one ascent code path, :func:`_lockstep_ascent`, the block form of
the power method: it runs L operators of one size with all their start
vectors as one (L, k, n) block of iterates.  A single norm report is its
L = 1 case; a sweep hands it a chunk of lambdas at once.

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
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, svds

from .errors import InvalidConfigError, UnsupportedParameterError
from .resolvent import gamma as gamma_of
from .resolvent import resolvent_operator
from .spaces import cesaro_averages, dual_exponent

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

# A sweep runs the lambdas of one size in chunks whose (L, n, n) stack of
# dense operators takes at most this many bytes.
_LOCKSTEP_BYTES = 2 * 1024 * 1024


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


def _lp_dual_map(z, p_dual):
    # maximizer of Re<z, x> over the unit p-ball, up to normalization
    return _phase(z) * np.abs(z) ** (p_dual - 1.0)


def _ces_dual_transpose(g):
    # (C^T g)_m = sum_{j >= m} g_j / j, 1-based, along the last axis
    weighted = g / np.arange(1, g.shape[-1] + 1, dtype=np.float64)
    return np.cumsum(weighted[..., ::-1], axis=-1)[..., ::-1]


def _ascent_norms(space, x):
    # the norm of ``space`` of every row of a stack of vectors
    if space.kind == "lp":
        return np.linalg.norm(x, space.p, axis=-1)
    averages = cesaro_averages(x)
    if space.kind == "ces0":
        return averages.max(axis=-1)
    return np.linalg.norm(averages, space.p, axis=-1)


def _ascent_starts(space, n, opts, extra_starts):
    """The start vectors of one ascent, as the rows of a (k, n) array.

    In order: the ones vector, ``opts.restarts - 1`` seeded random positive
    vectors, the nonzero ``extra_starts`` of length n and, for ces(0), the
    vertex starts.
    """
    starts = [np.ones(n)]
    rng = np.random.default_rng(opts.seed)
    for _ in range(max(0, opts.restarts - 1)):
        starts.append(np.abs(rng.standard_normal(n)))
    for vec in extra_starts:
        v = np.asarray(vec)
        if v.shape == (n,) and np.abs(v).max() > 0:
            starts.append(v)
    if space.kind == "ces0":
        starts.extend(_ces0_vertex_starts(n))
    return np.array(starts)


def _lockstep_ascent(space, operators, starts, opts):
    """Dual-exponent power ascents of L operators of one size, in lockstep.

    ``starts[i]`` holds the (k_i, n) start vectors of operator i.  The
    running iterates form one (L, k, n) block, a row per start, and every
    product is one batched call: up to DENSE_PRODUCTS_MAX a matrix product
    with a stack of the dense operators, above it each operator's
    generator product on its rows.  Each row runs the rule of a single
    ascent (Higham, Numer. Math. 62, 1992): it stops when its ratio stops
    rising by more than ``opts.rtol`` or a step vanishes, and it keeps its
    own best ratio.  Stopped rows leave the block, and so does an operator
    once all its rows have stopped; the dense stack is compacted in place.

    Every iterate is a unit vector, so each ratio is a certified lower
    bound.  Returns (value, best_vector, converged) per operator: the
    largest ratio, the first iterate in start order that reached it (None
    if no ratio was positive), and whether every row stopped within
    ``opts.max_iter`` products.
    """
    L, n = len(operators), operators[0].n
    k = max(len(s) for s in starts)
    # real operators with real starts keep real iterates
    real = not any(np.iscomplexobj(a) for a in (*starts, *(A.d for A in operators)))
    dtype = np.float64 if real else np.complex128
    X = np.zeros((L, k, n), dtype=dtype)
    live = np.zeros((L, k), dtype=bool)
    for i, s in enumerate(starts):
        X[i, : len(s)] = s
        live[i, : len(s)] = True
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = _ascent_norms(space, X)
    live &= scale > 0
    X /= np.where(live, scale, 1.0)[..., None]
    prev = np.full((L, k), -np.inf)
    # best ratio and first iterate reaching it of every (operator, start);
    # block row (i, j) keeps them at flat position slot[i, j]
    best = np.zeros(L * k)
    best_x = np.zeros((L * k, n), dtype=dtype)
    slot = np.arange(L * k).reshape(L, k)
    owner = np.arange(L)  # the operator of each block row
    converged = np.zeros(L, dtype=bool)

    if n <= DENSE_PRODUCTS_MAX:
        stack = np.empty((L, n, n), dtype=dtype)
        for i, A in enumerate(operators):
            stack[i] = A.dense()

        def forward(x):
            return x @ stack[: len(x)].transpose(0, 2, 1)

        def adjoint(y):
            # rows of A* y are the conjugated rows of conj(y) A
            return np.conj(np.conj(y) @ stack[: len(y)])

    else:

        def forward(x):
            return np.stack([operators[i].matvec(r.T).T for i, r in zip(owner, x)])

        def adjoint(y):
            return np.stack([operators[i].rmatvec(r.T).T for i, r in zip(owner, y)])

    p, max_type = space.p, space.kind == "ces0"
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(opts.max_iter):
            y = forward(X)
            if space.kind == "lp":
                est = np.linalg.norm(y, p, axis=-1)
            else:
                w = cesaro_averages(y)
                est = w.max(axis=-1) if max_type else np.linalg.norm(w, p, axis=-1)
            better = live & (est > best[slot])
            best[slot[better]] = est[better]
            best_x[slot[better]] = X[better]
            live &= (est > 0.0) & (est - prev > opts.rtol * np.maximum(est, 1.0))
            prev = est
            # step along the norm's subgradient, pulled back through A*
            if space.kind == "lp":
                z = adjoint(_lp_dual_map(y, p))
            else:
                if max_type:
                    g = np.zeros_like(w)
                    np.put_along_axis(g, w.argmax(axis=-1)[..., None], 1.0, axis=-1)
                else:
                    g = (w / est[..., None]) ** (p - 1.0)
                z = adjoint(_phase(y) * _ces_dual_transpose(g))
            live &= np.abs(z).max(axis=-1) > 0
            if not max_type:
                z = _lp_dual_map(z, dual_exponent(p))
            scale = _ascent_norms(space, z)
            live &= scale > 0
            X = z
            X /= scale[..., None]  # stopped rows go stale: no ratio of theirs counts

            counts = live.sum(axis=1)
            width = counts.max()
            if width < live.shape[1] or not counts.all():
                # running rows first, in start order; the block narrows to them
                keep = np.flatnonzero(counts)
                converged[owner[counts == 0]] = True
                order = np.argsort(~live[keep], axis=1, kind="stable")[:, :width]
                rows = keep[:, None], order
                X, prev, slot = X[rows], prev[rows], slot[rows]
                live = np.arange(width) < counts[keep][:, None]
                owner = owner[keep]
                if n <= DENSE_PRODUCTS_MAX:
                    for new, old in enumerate(keep):
                        if new != old:
                            stack[new] = stack[old]  # in place: new < old
                if not len(keep):
                    break
    best, best_x = best.reshape(L, k), best_x.reshape(L, k, n)
    return [_best_of(best[i], best_x[i], bool(converged[i])) for i in range(L)]


def _best_of(best, best_x, converged):
    # the largest ratio of one operator and the first row that reached it
    j = int(np.argmax(best))
    if best[j] > 0:
        return float(best[j]), best_x[j].copy(), converged
    return 0.0, None, converged


def _ascent_reports(space, operators, opts, extra_starts):
    """Ascent norm reports of L operators of one size in l^p, ces(p) or ces(0).

    ``opts[i]`` seeds operator i's random starts and ``extra_starts[i]``
    adds starts of its own; ``max_iter`` and ``rtol`` come from
    ``opts[0]``.  l^p reports carry a row/column-sum upper bound; ces(0)
    reports take the exact best spike start when it beats the ascent.
    """
    starts = [
        _ascent_starts(space, A.n, o, extra)
        for A, o, extra in zip(operators, opts, extra_starts)
    ]
    reports = []
    for A, (value, vector, converged) in zip(
        operators, _lockstep_ascent(space, operators, starts, opts[0])
    ):
        upper = None
        if space.kind == "lp":
            upper = float(
                A.abs_col_sums().max() ** (1.0 / space.p)
                * A.abs_row_sums().max() ** (1.0 / dual_exponent(space.p))
            )
        if space.kind == "ces0":
            spike_value, spike = _ces0_column_sup(A)
            if spike_value > value:
                value, vector = spike_value, spike
        reports.append(NormEstimate(value, upper, "ascent", False, converged, vector))
    return reports


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
    if kind == "lp" and space.p == 2.0:
        return _l2_estimate(A, opts)
    if kind in ("lp", "ces", "ces0"):
        return _ascent_reports(space, [A], [opts], [extra_starts])[0]
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


# wrapped by perfbench/tracer.py, which times each call as span spectra.sweep_task
def _sweep_task(space, n, chunk):
    """Records of one chunk of (lambda, opts, in_disk) tasks at size n.

    Every operator-norm report of the chunk comes first, then every
    regular-norm report, whose ascent also starts from the escort |x*| of
    its operator's best vector; that pins reg >= op structurally.  Ascent
    spaces run each pass as one lockstep block; l^2 and the row sums run
    per lambda.
    """
    resolvents = [resolvent_operator(lam, n) for lam, _, _ in chunk]
    opts = [task_opts for _, task_opts, _ in chunk]
    ascent = space.kind in ("ces", "ces0") or (space.kind == "lp" and space.p != 2.0)

    def reports(operators, extra_starts):
        if ascent:
            return _ascent_reports(space, operators, opts, extra_starts)
        return [operator_norm_report(space, A, o) for A, o in zip(operators, opts)]

    ops = reports(resolvents, [()] * len(chunk))
    escorts = [() if op.best_vector is None else (np.abs(op.best_vector),) for op in ops]
    regs = reports([R.modulus() for R in resolvents], escorts)
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


def sweep(space, grid, sizes, opts=None):
    """Resolvent-norm sweep over a lambda grid at several truncation sizes.

    Points within SWEEP_GAMMA_SKIP of a pole are skipped and logged.  Each
    retained (lambda, n) task builds the closed-form resolvent in generator
    form (:func:`~ceslab.resolvent.resolvent_operator`) and records
    operator- and regular-norm estimates plus disk membership.  Task
    (i, j), the i-th retained lambda at the j-th size, seeds its restarts
    with ``opts.seed + 1000003 i + j``.  The tasks of one size run in
    chunks of consecutive lambdas whose (L, n, n) stack of dense operators
    fits _LOCKSTEP_BYTES; the ascents of a chunk run in lockstep.  Chunks
    run in grid order on the calling thread, and the records come back in
    row-major grid order, sizes ascending within each lambda.
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
    in_disk = [in_spectrum(space, lam) for lam in retained]

    records = {}
    for j, n in enumerate(sizes):
        tasks = [
            (lam, replace(opts, seed=opts.seed + 1000003 * i + j), in_disk[i])
            for i, lam in enumerate(retained)
        ]
        length = max(1, _LOCKSTEP_BYTES // (16 * n * n))
        for lo in range(0, len(tasks), length):
            chunk_records = _sweep_task(space, n, tasks[lo : lo + length])
            for i, record in enumerate(chunk_records, start=lo):
                records[i, j] = record
    return [records[i, j] for i in range(len(retained)) for j in range(len(sizes))]


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
