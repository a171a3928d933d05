"""Correctness checks for ceslab's CLI output, computed apart from ceslab.

Nothing here imports ceslab.  The resolvent is the inverse of the n x n
averaging section minus lambda, obtained with
``scipy.linalg.solve_triangular``; pole distances are brute-force minima in
mpmath; sampled entries of E are mpmath products.  Where the program's value
is an estimate, the check is a property the method must have (a lower bound
it always evaluates, an upper bound no norm can exceed).

Every ``check_*`` function takes the operation's parameters and the
command's stdout and returns a list of problems; an empty list means the
output passed.  Tolerances are multiples of n * eps times the size of the
quantity they guard.
"""

import csv
import io
import json
import math

import mpmath
import numpy as np
import scipy.linalg
import scipy.sparse.linalg

EPS = float(np.finfo(np.float64).eps)

# Multiples of n * eps.  On the workloads' lambdas the closed-form resolvent
# and the triangular solve agree on norms to 0.16 n * eps at worst, and every
# bound check passes at 1 n * eps (README.md lists the figures); 8 leaves
# room while a relative error of 1e-6 is still far outside.
NORM_TOL = 8.0
ENTRY_TOL = 8.0
GAMMA_TOL = 4.0  # units of eps * (|lambda| + gamma)

# The program skips grid points this close to a pole (README: 1e-3).
SWEEP_GAMMA_SKIP = 1e-3
GROWING, BOUNDED = 1.5, 1.1  # README growth thresholds on successive ratios

mpmath.mp.dps = 40


# ---------------------------------------------------------------------------
# independent reference quantities


def dual(p):
    return p / (p - 1.0)


def space_info(label):
    """(kind, p, p') for a CLI space label such as "lp:3" or "ces0"."""
    if ":" in label:
        kind, _, arg = label.partition(":")
        p = float(arg)
        return kind, p, dual(p)
    return label, None, 1.0


def largest_singular_value(M):
    """sigma_max by Lanczos bidiagonalization (ARPACK), run to full accuracy."""
    if M.shape[0] <= 256:
        return float(scipy.linalg.svdvals(M)[0])
    try:
        s = scipy.sparse.linalg.svds(M, k=1, tol=0, v0=np.ones(M.shape[1]), return_singular_vectors=False)
    except scipy.sparse.linalg.ArpackNoConvergence:
        return float(scipy.linalg.svdvals(M)[0])
    return float(s[0])


def cesaro_section(n):
    rows = np.arange(1, n + 1, dtype=np.float64)
    return np.tril(np.ones((n, n))) / rows[:, None]


class Resolvents:
    """Inverse of (C_n - lambda I) by triangular solve, cached per lambda.

    The n x n section of a lower-triangular inverse is the inverse of the
    n x n section, so one solve at the largest size serves every smaller n.
    """

    def __init__(self):
        self._cache = {}

    def get(self, lam, n):
        key = complex(lam)
        have = self._cache.get(key)
        if have is None or have.shape[0] < n:
            A = cesaro_section(n).astype(np.complex128)
            A[np.diag_indices(n)] -= key
            have = scipy.linalg.solve_triangular(A, np.eye(n, dtype=np.complex128), lower=True)
            self._cache[key] = have
        return have[:n, :n]


def pole_distance(lam):
    """Distance from lambda to {0} u {1/k : k >= 1}, by brute force in mpmath."""
    lam = complex(lam)
    z = mpmath.mpc(lam.real, lam.imag)
    best = abs(z)
    if lam.real > 0:
        kmax = min(int(2.0 / lam.real) + 3, 10**6)
        k = np.arange(1, kmax + 1)
        for kk in k[np.argsort(np.abs(lam - 1.0 / k))[:3]]:
            best = min(best, abs(z - mpmath.mpf(1) / int(kk)))
    return float(best)


def space_norm(kind, p, y):
    """Norm of finite vector ``y`` in l^p, l^inf/c0, ces(p) or ces(0)."""
    a = np.abs(y)
    if kind in ("linf", "c0"):
        return float(a.max())
    if kind in ("ces", "ces0"):
        a = np.cumsum(a) / np.arange(1, a.shape[0] + 1)
        if kind == "ces0":
            return float(a.max())
    return float(np.sum(a**p) ** (1.0 / p))


def ones_ratio(kind, p, M):
    """Norm ratio at the all-ones vector, the ascent's first start."""
    x = np.ones(M.shape[0])
    return space_norm(kind, p, M @ x) / space_norm(kind, p, x)


def log_abs_e(lam, N):
    """log|e_nm| on 1 <= m < n <= N (1-based), -inf elsewhere.

    e_nm = 1/(n prod_{k=m}^{n} (1 - 1/(k lambda))); the modulus is taken
    through prefix sums of log|1 - 1/(k lambda)|.
    """
    k = np.arange(1, N + 1, dtype=np.float64)
    prefix = np.concatenate(([0.0], np.cumsum(np.log(np.abs(1.0 - 1.0 / (k * complex(lam)))))))
    n = k[:, None]
    m = k[None, :]
    out = -np.log(n) - (prefix[1:, None] - prefix[None, :-1])
    out[m >= n] = -np.inf
    return out


def mp_e(lam, n, m):
    """e_nm as an mpmath product, 1 <= m < n."""
    z = mpmath.mpc(complex(lam).real, complex(lam).imag)
    prod = mpmath.mpf(1)
    for k in range(m, n + 1):
        prod *= 1 - 1 / (k * z)
    return 1 / (n * prod)


# ---------------------------------------------------------------------------
# helpers


def _rel_close(got, want, tol):
    return abs(got - want) <= tol * max(abs(want), 1e-300)


def _check_gamma(lam, got, where, problems):
    want = pole_distance(lam)
    tol = GAMMA_TOL * EPS * (abs(lam) + want)
    if not abs(got - want) <= tol:
        problems.append(f"{where}: gamma {got!r} differs from brute force {want!r} by more than {tol:.3g}")


def _check_disk(lam, p_dual, got, where, problems):
    c = p_dual / 2.0
    dist = abs(complex(lam) - c)
    if abs(dist - c) <= 1e-9 * c:
        return  # on the circle to working accuracy: either answer stands
    if got != (dist <= c):
        problems.append(f"{where}: in_disk={got} but |lambda - {c}| = {dist!r}")


def _grid_axis(lo, hi, step):
    if hi == lo:
        return [lo]
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return [lo + step * k for k in range(count)]


# ---------------------------------------------------------------------------
# sweep


def parse_sweep(text, fmt):
    if fmt == "json":
        return json.loads(text)["records"]
    rows = list(csv.DictReader(io.StringIO(text)))
    out = []
    for r in rows:
        out.append(
            {
                "lambda_re": float(r["lambda_re"]),
                "lambda_im": float(r["lambda_im"]),
                "n": int(r["n"]),
                "gamma": float(r["gamma"]),
                "op_norm_est": float(r["op_norm_est"]),
                "reg_norm_est": float(r["reg_norm_est"]),
                "in_disk": r["in_disk"] == "true",
                "verdict": r["verdict"],
            }
        )
    return out


def check_sweep(params, text, resolvents=None):
    """Check every record of one sweep against independent computations."""
    problems = []
    resolvents = resolvents or Resolvents()
    kind, p, p_dual = space_info(params["space"])
    sizes = list(params["sizes"])
    try:
        records = parse_sweep(text, params["format"])
    except (ValueError, KeyError) as exc:
        return [f"unparsable sweep output: {exc!r}"]

    re_min, re_max, im_min, im_max, step = params["grid"]
    expected = [
        complex(re, im)
        for im in _grid_axis(im_min, im_max, step)
        for re in _grid_axis(re_min, re_max, step)
    ]
    expected = [z for z in expected if pole_distance(z) > SWEEP_GAMMA_SKIP]
    if len(records) != len(expected) * len(sizes):
        return [f"{len(records)} records, expected {len(expected)} lambdas x {len(sizes)} sizes"]

    by_lambda = {}
    for idx, rec in enumerate(records):
        lam = complex(rec["lambda_re"], rec["lambda_im"])
        want_lam = expected[idx // len(sizes)]
        want_n = sizes[idx % len(sizes)]
        where = f"record {idx} (lambda={lam}, n={rec['n']})"
        if abs(lam - want_lam) > 8 * EPS * (abs(want_lam) + step):
            problems.append(f"{where}: expected lambda {want_lam}")
        if rec["n"] != want_n:
            problems.append(f"{where}: expected n={want_n}")
            continue
        n = want_n
        _check_gamma(lam, rec["gamma"], where, problems)
        _check_disk(lam, p_dual, rec["in_disk"], where, problems)

        op, reg = rec["op_norm_est"], rec["reg_norm_est"]
        tol = NORM_TOL * n * EPS
        if not reg >= op * (1.0 - tol):
            problems.append(f"{where}: regular norm {reg!r} below operator norm {op!r}")
        R = resolvents.get(lam, sizes[-1])[:n, :n]
        absR = np.abs(R)
        if kind == "lp" and p == 2.0:
            for label, got, M in (("operator", op, R), ("regular", reg, absR)):
                want = largest_singular_value(M)
                if not _rel_close(got, want, tol):
                    problems.append(f"{where}: {label} norm {got!r}, largest singular value {want!r}")
        elif kind in ("linf", "c0"):
            want = float(absR.sum(axis=1).max())
            for label, got in (("operator", op), ("regular", reg)):
                if not _rel_close(got, want, tol):
                    problems.append(f"{where}: {label} norm {got!r}, max row sum {want!r}")
        else:
            for label, got, M in (("operator", op, R), ("regular", reg, absR)):
                floor = ones_ratio(kind, p, M)
                if not got >= floor * (1.0 - tol):
                    problems.append(f"{where}: {label} ascent {got!r} below the ones ratio {floor!r}")
                if kind == "lp":
                    # Riesz-Thorin: ||M||_p <= ||M||_1^(1/p) ||M||_inf^(1/p')
                    ceiling = absR.sum(axis=0).max() ** (1 / p) * absR.sum(axis=1).max() ** (1 / p_dual)
                    if not got <= ceiling * (1.0 + tol):
                        problems.append(f"{where}: {label} ascent {got!r} above {ceiling!r}")
        by_lambda.setdefault(idx // len(sizes), []).append(rec)

    for group in by_lambda.values():
        if len(group) < len(sizes):
            continue
        regs = [r["reg_norm_est"] for r in group]
        ratios = [b / a if a > 0 else math.inf for a, b in zip(regs, regs[1:])]
        if not ratios:
            want = "inconclusive"
        elif ratios[-1] >= GROWING:
            want = "growing"
        elif all(r <= BOUNDED for r in ratios):
            want = "bounded"
        else:
            want = "inconclusive"
        for r in group:
            if r["verdict"] != want:
                problems.append(
                    f"lambda={r['lambda_re']}+{r['lambda_im']}i: verdict {r['verdict']}, "
                    f"ratios {ratios} give {want}"
                )
    return problems


# ---------------------------------------------------------------------------
# bounds


def _margin_problem(where, got, want, tol, problems):
    if not abs(got - want) <= tol:
        problems.append(f"{where}: worst_margin {got!r}, independent {want!r} (tol {tol:.3g})")


def _witness_entry(where, lam, report, bound_at, problems):
    """The reported margin at the witness must match an mpmath entry."""
    n, m = report["witness_n"], report["witness_m"]
    if not 1 <= m < n <= report["n_max"]:
        problems.append(f"{where}: witness ({n}, {m}) outside the strict triangle")
        return
    entry = float(abs(mp_e(lam, n, m)))
    bound = bound_at(n, m)
    tol = ENTRY_TOL * n * EPS * bound
    if not abs((bound - entry) - report["worst_margin"]) <= tol:
        problems.append(
            f"{where}: margin {report['worst_margin']!r} at witness ({n}, {m}) but "
            f"bound - |e_nm| = {bound - entry!r} with mpmath |e_nm| = {entry!r}"
        )


def check_bounds(params, text):
    problems = []
    kind, N = params["kind"], params["n"]
    where = f"bounds {kind} n={N}"
    try:
        report = json.loads(text)
    except ValueError as exc:
        return [f"{where}: unparsable output {exc!r}"]
    if report.get("kind") != kind or report.get("n_max") != N:
        return [f"{where}: report is for {report.get('kind')} n={report.get('n_max')}"]
    if report.get("holds") is not True:
        problems.append(f"{where}: holds={report.get('holds')} in a regime where the bound is proved")
    got = report["worst_margin"]
    scale_eps = ENTRY_TOL * N * EPS

    if kind in ("rho1_54", "gamma_56", "alpha_43", "diag_36", "profile_38"):
        lam = complex(report["lambda_re"], report["lambda_im"])
        if kind == "gamma_56":
            want_lam = 1.0 / complex(params["alpha"], params["t"])
            if abs(lam - want_lam) > 4 * EPS * abs(want_lam):
                problems.append(f"{where}: lambda {lam} is not 1/(alpha + it) = {want_lam}")
        elif lam != params["lam"]:
            problems.append(f"{where}: lambda {lam} differs from the input {params['lam']}")

    if kind == "rho1_54":
        e = np.exp(log_abs_e(lam, N))
        bound = np.broadcast_to(1.0 / np.arange(1, N + 1)[:, None], e.shape)
        mask = np.tril(np.ones((N, N), dtype=bool), -1)
        margins = (bound - e)[mask]
        k = int(np.argmin(margins))
        want = float(margins[k])
        _margin_problem(where, got, want, scale_eps * float(bound[mask][k]), problems)
        _witness_entry(where, lam, report, lambda n, m: 1.0 / n, problems)
    elif kind == "gamma_56":
        alpha = params["alpha"]
        ref = 1.0 / alpha
        mask = np.tril(np.ones((N, N), dtype=bool), -1)
        e = np.exp(log_abs_e(lam, N))
        e_ref = np.exp(log_abs_e(ref, N))
        margins = (e_ref - e)[mask]
        k = int(np.argmin(margins))
        want = float(margins[k])
        _margin_problem(where, got, want, scale_eps * float(e_ref[mask][k]), problems)
        _witness_entry(where, lam, report, lambda n, m: float(abs(mp_e(ref, n, m))), problems)
    elif kind == "alpha_43":
        alpha = (1.0 / lam).real
        logs = log_abs_e(lam, 2 * N)
        n = np.arange(1, 2 * N + 1, dtype=np.float64)
        weight = (1.0 - alpha) * np.log(n)[:, None] + alpha * np.log(n)[None, :]
        beta = float(np.exp((logs + weight).max()))
        mask = np.tril(np.ones((N, N), dtype=bool), -1)
        bound = beta * np.exp(-weight[:N, :N])
        margins = (bound - np.exp(logs[:N, :N]))[mask]
        k = int(np.argmin(margins))
        want = float(margins[k])
        _margin_problem(where, got, want, scale_eps * float(bound[mask][k]), problems)
        _witness_entry(
            where, lam, report, lambda n, m: beta * n ** (alpha - 1.0) * m ** (-alpha), problems
        )
    elif kind == "diag_36":
        gamma = pole_distance(lam)
        z = mpmath.mpc(lam.real, lam.imag)
        d = np.abs(1.0 / (1.0 / np.arange(1, N + 1) - lam))
        k = int(np.argmax(d)) + 1
        want = float(1 / mpmath.mpf(gamma) - abs(1 / (mpmath.mpf(1) / k - z)))
        _margin_problem(where, got, want, ENTRY_TOL * EPS / gamma, problems)
    elif kind in ("rowsum_46", "collimit_49"):
        alpha = mpmath.mpf(params["alpha"])
        half = max(2, N // 2)
        if kind == "rowsum_46":
            sums, acc = [], mpmath.mpf(0)
            for r in range(1, N + 1):
                acc += mpmath.mpf(r) ** (-alpha)
                sums.append(acc * mpmath.mpf(r) ** (alpha - 1))
            sup_full, sup_half = max(sums), max(sums[:half])
            want = float(mpmath.mpf("0.05") * sup_full - (sup_full - sup_half))
            tol = scale_eps * float(sup_full)
        else:
            factor = mpmath.mpf(half) ** (alpha - 1) - mpmath.mpf(N) ** (alpha - 1)
            ends = [factor * mpmath.mpf(m) ** (-alpha) for m in (1, half)]
            want = float(min(ends))  # m^(-alpha) is monotone in m
            tol = scale_eps * float(max(abs(e) for e in ends) + mpmath.mpf(half) ** (alpha - 1))
        _margin_problem(where, got, want, tol, problems)
    elif kind == "profile_38":
        z = mpmath.mpc(lam.real, lam.imag)
        alpha = (1 / z).real
        pi, scaled = mpmath.mpf(1), []
        for k in range(1, N + 1):
            pi *= abs(1 - 1 / (k * z))
            scaled.append(float(mpmath.mpf(k) ** alpha * pi))
        scaled = np.array(scaled)
        head = max(2, N // 10)
        p0, q0 = scaled[:head].min(), scaled[:head].max()
        tail = scaled[head - 1 :]
        margin = min(tail.min() - 0.9 * p0, 1.1 * q0 - tail.max())
        for key, want in (("p_hat", scaled.min()), ("q_hat", scaled.max())):
            if not _rel_close(report[key], float(want), scale_eps):
                problems.append(f"{where}: {key} {report[key]!r}, mpmath {float(want)!r}")
        _margin_problem(where, got, float(margin), scale_eps * float(scaled.max()), problems)
        if not (scaled.min() > 0 and margin >= 0):
            problems.append(f"{where}: independent profile does not hold (margin {margin!r})")
    return problems


# ---------------------------------------------------------------------------
# verify


def parse_verify(text):
    fields = {}
    verdict = None
    for line in text.splitlines():
        if "=" in line and not line.startswith(("PASS", "FAIL")):
            key, _, value = line.partition("=")
            fields[key.strip()] = value.strip()
        elif line.startswith(("PASS", "FAIL")):
            verdict = line.split()[0]
    re_s, _, im_s = fields["lambda"].partition(" + ")
    return {
        "lam": complex(float(re_s), float(im_s.rstrip("i"))),
        "n": int(fields["n"]),
        "gamma": float(fields["gamma"]),
        "alpha": float(fields["alpha"]),
        "residual": float(fields["residual"]),
        "verdict": verdict,
    }


def check_verify(params, text, resolvents=None):
    problems = []
    resolvents = resolvents or Resolvents()
    lam, n = complex(params["lam"]), params["n"]
    where = f"verify lambda={lam} n={n}"
    try:
        out = parse_verify(text)
    except (ValueError, KeyError) as exc:
        return [f"{where}: unparsable output {exc!r}"]
    if out["lam"] != lam or out["n"] != n:
        problems.append(f"{where}: output is for lambda={out['lam']} n={out['n']}")
    _check_gamma(lam, out["gamma"], where, problems)
    z = mpmath.mpc(lam.real, lam.imag)
    alpha = float((1 / z).real)
    if not abs(out["alpha"] - alpha) <= 4 * EPS * float(abs(1 / z)):
        problems.append(f"{where}: alpha {out['alpha']!r}, Re(1/lambda) = {alpha!r}")
    # (C - lambda) R - I in floating point: each entry is a sum of n products
    R = resolvents.get(lam, n)
    ceiling = NORM_TOL * n * EPS * (1.0 + abs(lam)) * float(np.abs(R).max())
    if not 0.0 <= out["residual"] <= ceiling:
        problems.append(f"{where}: residual {out['residual']!r} above n-eps ceiling {ceiling!r}")
    want = "PASS" if out["residual"] <= 1e-9 else "FAIL"
    if out["verdict"] != want or want != "PASS":
        problems.append(f"{where}: verdict {out['verdict']} for residual {out['residual']!r}")
    return problems


# ---------------------------------------------------------------------------
# norms


def check_norms(params, text):
    problems = []
    try:
        out = json.loads(text)
    except ValueError as exc:
        return [f"norms: unparsable output {exc!r}"]
    sizes, labels = list(params["sizes"]), list(params["spaces"])
    want_labels = [label.replace(":", "(") + ")" if ":" in label else label for label in labels]
    if out.get("sizes") != sizes or out.get("spaces") != want_labels:
        return [f"norms: table is for sizes {out.get('sizes')} spaces {out.get('spaces')}"]
    table = out["norms"]
    for n, row in zip(sizes, table):
        C = cesaro_section(n)
        tol = NORM_TOL * n * EPS
        for label, value in zip(labels, row):
            kind, p, p_dual = space_info(label)
            where = f"norms n={n} {label}"
            ceiling = p_dual  # Hardy: ||C||_p <= p'; 1 for the max-norm spaces
            if not value <= ceiling * (1.0 + tol):
                problems.append(f"{where}: {value!r} above the Hardy bound {ceiling!r}")
            if kind == "lp" and p == 2.0:
                want = largest_singular_value(C)
                if not _rel_close(value, want, tol):
                    problems.append(f"{where}: {value!r}, largest singular value {want!r}")
            elif kind in ("linf", "c0"):
                want = float(C.sum(axis=1).max())
                if not _rel_close(value, want, tol):
                    problems.append(f"{where}: {value!r}, max row sum {want!r}")
            else:
                floor = ones_ratio(kind, p, C)
                if not value >= floor * (1.0 - tol):
                    problems.append(f"{where}: ascent {value!r} below the ones ratio {floor!r}")
    if "lp:2" in labels:
        col = [row[labels.index("lp:2")] for row in table]
        if any(b <= a for a, b in zip(col, col[1:])):
            problems.append(f"norms: l2 column {col} does not increase with n")
    return problems


CHECKERS = {"sweep": check_sweep, "bounds": check_bounds, "verify": check_verify, "norms": check_norms}


def check_op(op, text, resolvents):
    """Dispatch on the operation kind; the resolvent cache is shared."""
    if op.kind in ("sweep", "verify"):
        return CHECKERS[op.kind](op.params, text, resolvents)
    return CHECKERS[op.kind](op.params, text)
