"""Seeded inputs for the three benchmark workloads.

A workload is a fixed list of ``ceslab`` command lines.  Every number in it
is drawn from ``numpy.random.default_rng((seed, salt))``, so one seed always
gives the same commands; the draws only move the lambdas a little inside
fixed regions, so the amount of work per round does not depend on the seed.

Each operation carries, next to its argv, the parameters the correctness
checks need (space, grid, sizes, ...) so that the checks never parse the
command line back.
"""

import math
from dataclasses import dataclass

import numpy as np

NAMES = ("sweep-l2-large", "sweep-grid", "scan")

# Every benchmark process runs this command once before timing starts: the
# first SVD pays OpenBLAS/LAPACK start-up, the first ascent warms numpy.
WARMUP = ["norms", "--sizes=16,256", "--spaces=lp:2,lp:3,linf,ces:2,ces0", "--json"]

# The README's lambda rectangle, swept whole in every space.
GRID_SPACES = ("ces:2", "ces0", "lp:3", "linf", "lp:2")
GRID_SIZES = (32, 128)
GRID_STEP = 0.75
GRID_EXTENT = 3.0  # 5 x 5 points

L2_SIZES = (1024, 1280)

SCAN_SIZES = (256, 1024)  # on both sides of LOG_DOMAIN_THRESHOLD = 512
VERIFY_SIZES = tuple(range(256, 513, 32))  # 9 sizes, all <= 512
NORMS_SIZES = (64, 256, 1024)
NORMS_SPACES = ("lp:2", "lp:3", "linf", "ces:2", "ces0")


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what the checks need to know about it."""

    kind: str  # "sweep", "bounds", "verify" or "norms"
    argv: tuple
    params: dict


def _num(x):
    """Shortest text that parses back to the same double."""
    return repr(float(x))


def _lam(z):
    return f"{_num(z.real)}{'+' if z.imag >= 0 else '-'}{_num(abs(z.imag))}i"


def _rng(seed, salt):
    return np.random.default_rng((int(seed), salt))


def _sweep_op(space, grid, sizes, seed, fmt):
    re_min, re_max, im_min, im_max, step = grid
    argv = (
        "sweep",
        f"--space={space}",
        f"--re-min={_num(re_min)}",
        f"--re-max={_num(re_max)}",
        f"--im-min={_num(im_min)}",
        f"--im-max={_num(im_max)}",
        f"--step={_num(step)}",
        "--sizes=" + ",".join(str(n) for n in sizes),
        f"--seed={seed}",
        f"--format={fmt}",
    )
    params = {"space": space, "grid": grid, "sizes": tuple(sizes), "format": fmt}
    return Op("sweep", argv, params)


def sweep_l2_large(seed):
    """One lp:2 sweep over three lambdas on a horizontal line at height h.

    The first point lies well inside the disk |lambda - 1| <= 1, the second
    just inside its edge (distance 0.97-0.99 from the centre), the third
    outside it; the points are equally spaced so a one-row grid holds them.
    """
    rng = _rng(seed, 11)
    h = 0.45 + 0.2 * rng.random()
    re0 = 1.0 + 0.2 * (rng.random() - 0.5)
    rho = 0.97 + 0.02 * rng.random()
    step = 1.0 + math.sqrt(rho * rho - h * h) - re0
    grid = (re0, re0 + 2.0 * step, h, h, step)
    return [_sweep_op("lp:2", grid, L2_SIZES, seed, "json")]


def sweep_grid(seed):
    """The README's rectangle at a coarser step, one command per space.

    Each space gets one sweep of the whole 5 x 5 grid at two sizes, as the
    README runs it.  The seeded offset moves the grid by less than 0.05 and
    keeps every row at least 0.05 away from the real axis: no point falls in
    the pole shadow and every seed sweeps 5 x 5 points per space.
    """
    rng = _rng(seed, 22)
    re_min = -0.5 + 0.05 * rng.random()
    im_min = -1.45 + 0.05 * rng.random()
    grid = (re_min, re_min + GRID_EXTENT, im_min, im_min + GRID_EXTENT, GRID_STEP)
    return [_sweep_op(space, grid, GRID_SIZES, seed, "csv") for space in GRID_SPACES]


def scan(seed):
    """Bound scans, resolvent verification and the norm table; no sweeps.

    Each lambda is drawn inside the regime where the paper proves its bound:
    rho1_54 in the closed left half-plane, gamma_56 on a circle
    Re(1/lambda) = alpha in (0, 1), alpha_43 and profile_38 at moderate
    |lambda| with Re(1/lambda) < 1, rowsum_46 / collimit_49 at alpha < 1.
    """
    rng = _rng(seed, 33)
    u = rng.random(12)
    left = complex(-(0.3 + 1.2 * u[0]), -1.0 + 2.0 * u[1])
    alpha56, t56 = 0.2 + 0.6 * u[2], -2.0 + 4.0 * u[3]
    mid = complex(1.2 + 0.6 * u[4], 0.5 + 0.6 * u[5])
    near_pole = complex(1.0 / 3.0, 0.01 + 0.02 * u[6])
    alpha_rows = -0.5 + u[7]
    profile = complex(-0.8 + 2.4 * u[8], 0.6 + 0.8 * u[9])
    verify = complex(0.5 + 0.6 * u[10], 0.4 + 0.4 * u[11])

    ops = []
    for n in SCAN_SIZES:
        bound_args = (
            ("rho1_54", ("--lambda=" + _lam(left),), {"lam": left}),
            (
                "gamma_56",
                ("--alpha=" + _num(alpha56), "--t=" + _num(t56)),
                {"alpha": alpha56, "t": t56},
            ),
            ("alpha_43", ("--lambda=" + _lam(mid),), {"lam": mid}),
            ("diag_36", ("--lambda=" + _lam(near_pole),), {"lam": near_pole}),
            ("rowsum_46", ("--alpha=" + _num(alpha_rows),), {"alpha": alpha_rows}),
            ("collimit_49", ("--alpha=" + _num(alpha_rows),), {"alpha": alpha_rows}),
            ("profile_38", ("--lambda=" + _lam(profile),), {"lam": profile}),
        )
        for kind, extra, params in bound_args:
            argv = ("bounds", f"--kind={kind}", *extra, f"--n={n}")
            ops.append(Op("bounds", argv, {"kind": kind, "n": n, **params}))
    for n in VERIFY_SIZES:
        ops.append(
            Op("verify", ("verify", "--lambda=" + _lam(verify), f"--n={n}"), {"lam": verify, "n": n})
        )
    argv = (
        "norms",
        "--sizes=" + ",".join(str(n) for n in NORMS_SIZES),
        "--spaces=" + ",".join(NORMS_SPACES),
        f"--seed={seed}",
        "--json",
    )
    ops.append(Op("norms", argv, {"sizes": NORMS_SIZES, "spaces": NORMS_SPACES}))
    return ops


BUILDERS = {"sweep-l2-large": sweep_l2_large, "sweep-grid": sweep_grid, "scan": scan}


def build(name, seed):
    """The operations of one round of workload ``name`` for ``seed``."""
    return BUILDERS[name](seed)
