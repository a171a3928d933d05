"""Diagonal multiplication operators over counting measure on {1..n}.

A bounded multiplier acts coordinatewise, its matrix is diagonal and its
spectrum at finite truncation is simply the set of diagonal values.  The
operator norm and the regular norm of a multiplier agree, because the
constant multiple max|phi_k| of the identity is already a majorant of it.
"""

from dataclasses import dataclass

import numpy as np

from .spectra import operator_norm_report
from .triangular import LowerTriangularMatrix

__all__ = [
    "diag_operator",
    "diag_spectrum",
    "diag_norm_equality_check",
    "DiagNormReport",
]

EQUALITY_TOLERANCE = 1e-12


def diag_operator(phi):
    """The diagonal matrix of the multiplier sequence phi, real for a real phi."""
    phi = np.asarray(phi)
    zero = np.zeros(phi.shape)
    return LowerTriangularMatrix(phi, zero, zero)


def diag_spectrum(phi):
    """The value set {phi_k}: the full spectrum of the truncated multiplier.

    At finite n the essential range reduces to the plain set of values
    (closure is trivial), so no measure machinery is involved.
    """
    return {complex(v) for v in np.asarray(phi, dtype=np.complex128)}


@dataclass(frozen=True)
class DiagNormReport:
    """Operator/regular norm comparison for one multiplier in one space."""

    space_label: str
    op_norm: float
    reg_norm: float
    difference: float
    max_modulus: float
    equality_holds: bool
    matches_max_modulus: bool | None


def diag_norm_equality_check(space, phi, seed=0):
    """Check op-norm/regular-norm equality of diag(phi) in ``space``.

    For the lp/linf/c0 spaces both norms must additionally equal
    max|phi_k|; in the Cesaro spaces the common value is reported but not
    compared against the max (the finite sections need not realize it).
    """
    phi = np.asarray(phi)
    A = diag_operator(phi)
    op = operator_norm_report(space, A, seed).value
    reg = operator_norm_report(space, A.modulus(), seed).value
    max_mod = float(np.abs(phi).max()) if phi.size else 0.0
    difference = abs(op - reg)
    matches = None
    if space.kind in ("lp", "linf", "c0"):
        matches = bool(
            abs(op - max_mod) <= EQUALITY_TOLERANCE * max(1.0, max_mod)
            and abs(reg - max_mod) <= EQUALITY_TOLERANCE * max(1.0, max_mod)
        )
    return DiagNormReport(
        space_label=space.label(),
        op_norm=op,
        reg_norm=reg,
        difference=difference,
        max_modulus=max_mod,
        equality_holds=bool(difference <= EQUALITY_TOLERANCE * max(1.0, op, reg)),
        matches_max_modulus=matches,
    )
