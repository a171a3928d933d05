"""Sequence-space norms evaluated on finite vectors.

Five norms are supported: the p-norms for 1 < p < inf, the max norm (both
as l-infinity and as the finite stand-in for c0, which coincide on finite
vectors), and the Cesaro-average norms ces(p) and ces(0), which apply the
averaging matrix to the modulus of the vector before taking the p-norm or
max norm.

All of them are lattice norms: they depend only on the entrywise modulus
and are monotone under entrywise domination.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, UnsupportedExponentError

__all__ = [
    "Space",
    "lp",
    "linf",
    "c0",
    "ces",
    "ces0",
    "dual_exponent",
    "norm",
    "cesaro_averages",
    "parse_space",
]

# p' = p/(p-1) overflows double for p this close to 1; smaller p are refused.
_MIN_P_GAP = 1e-6


def _check_exponent(p):
    p = float(p)
    if math.isinf(p) and p > 0:
        return p
    if not p > 1.0:
        raise UnsupportedExponentError(f"exponent must satisfy p > 1, got {p}")
    if p < 1.0 + _MIN_P_GAP:
        raise UnsupportedExponentError(
            f"exponent {p} too close to 1; dual exponent would overflow"
        )
    return p


@dataclass(frozen=True)
class Space:
    """Tag naming which norm is in force.

    ``kind`` is one of "lp", "linf", "c0", "ces", "ces0"; ``p`` is set for
    the two parametrized families and None otherwise.  Build instances via
    the factory functions :func:`lp`, :func:`linf`, :func:`c0`, :func:`ces`,
    :func:`ces0`.
    """

    kind: str
    p: float | None = None

    def label(self):
        if self.p is not None:
            return f"{self.kind}({self.p:g})"
        return self.kind

    def __str__(self):
        return self.label()


def lp(p):
    """The l^p space, 1 < p < inf."""
    p = _check_exponent(p)
    if math.isinf(p):
        return linf()
    return Space("lp", p)


def linf():
    """The bounded-sequence space with the max norm."""
    return Space("linf")


def c0():
    """Null sequences; at finite length the norm equals the max norm.

    The vanishing-tail condition that separates c0 from l-infinity is not
    expressible on finite vectors — it lives in the column-limit check of
    the bounds module instead.
    """
    return Space("c0")


def ces(p):
    """The Cesaro space ces(p): p-norm of the running averages of |x|."""
    p = _check_exponent(p)
    if math.isinf(p):
        raise UnsupportedExponentError("ces(p) requires finite p > 1")
    return Space("ces", p)


def ces0():
    """The Cesaro space ces(0): max of the running averages of |x|."""
    return Space("ces0")


def dual_exponent(p):
    """The conjugate exponent p' with 1/p + 1/p' = 1; p' = 1 for p = inf."""
    p = _check_exponent(p)
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def cesaro_averages(x):
    """Running averages (|x_1| + ... + |x_k|)/k of the modulus, as a real array.

    A stack of vectors is averaged along its last axis.
    """
    absx = np.abs(np.asarray(x))
    return np.cumsum(absx, axis=-1) / np.arange(1, absx.shape[-1] + 1)


def _as_finite_vector(x):
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {x.shape}")
    if not np.all(np.isfinite(x.view(np.float64))):
        raise ValueError("vector coordinates must be finite")
    return x


def norm(space, x):
    """Evaluate the norm of ``space`` on a finite vector.

    ces(p) and ces(0) are evaluated through the running-average recursion
    (cumulative sums), which agrees with applying the averaging matrix up
    to roundoff.
    """
    x = _as_finite_vector(x)
    if x.shape[0] == 0:
        return 0.0
    kind = space.kind
    if kind == "lp":
        return float(np.linalg.norm(x, space.p))
    if kind in ("linf", "c0"):
        return float(np.abs(x).max())
    if kind == "ces":
        return float(np.linalg.norm(cesaro_averages(x), space.p))
    if kind == "ces0":
        return float(cesaro_averages(x).max())
    raise ValueError(f"unknown space kind {space.kind!r}")


def parse_space(text):
    """Parse a space label: "lp:2", "lp:1.5", "linf", "c0", "ces:2", "ces0"."""
    text = text.strip().lower()
    if ":" in text:
        kind, _, arg = text.partition(":")
        kind = kind.strip()
        try:
            p = float(arg)
        except ValueError:
            raise UnsupportedExponentError(f"cannot parse exponent {arg!r}") from None
        if kind == "lp":
            return lp(p)
        if kind == "ces":
            return ces(p)
        raise InvalidConfigError(f"unknown parametrized space {kind!r} in {text!r}")
    if text == "linf":
        return linf()
    if text == "c0":
        return c0()
    if text == "ces0":
        return ces0()
    raise InvalidConfigError(f"cannot parse space {text!r}")
