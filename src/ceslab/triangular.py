"""Lower-triangular matrices in generator form.

Lower-triangular matrices are the universal representation here: the
averaging operator, its resolvents and every comparison matrix are lower
triangular, and the leading n x n block of a product of two lower-triangular
matrices depends only on the leading n x n blocks of the factors.  Finite
sections are therefore exact under composition, which is what makes
truncation a faithful model.

All of them also share one structure: a diagonal plus a separable strict
lower part, entry (n, m) = u_n v_m for m < n.  The averaging matrix has
u_n = 1/n and v_m = 1; the resolvent's comparison matrix E has
u_n = 1/(n F_n) and v_m = F_{m-1}.  A matrix is stored by these generators
alone (a semiseparable representation; Vandebril, Van Barel and
Mastronardi, Matrix Computations and Semiseparable Matrices, 2008), so it
takes O(n) memory and every product with it is a running sum.
"""

import numpy as np

from .errors import InvalidDimensionError

__all__ = ["LowerTriangularMatrix", "cesaro_matrix", "apply"]


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


class LowerTriangularMatrix:
    """Lower-triangular n x n matrix: a diagonal plus a separable strict lower part.

    Entry (i, i) is d_i, and entry (i, j) with j < i (0-based) is
    u_i v_j exp(shift_b(j) - shift_b(i)), where b(k) is the block holding
    index k: blocks start at ``starts``, and ``ratios[q]`` =
    exp(shift_{q-1} - shift_q) rescales a running sum that enters block q.
    Storing the factors per block keeps them finite where the products they
    stand for over- or underflow.  Every product with the matrix, its
    adjoint or its modulus is a running sum: O(n) time and memory.
    Instances are immutable.

    Parameters
    ----------
    d, u, v : 1-D arrays of length n >= 1, real or complex, all finite
    starts, ratios : the scale blocks; one block by default
    """

    __slots__ = ("n", "d", "u", "v", "starts", "ratios")

    def __init__(self, d, u, v, starts=(0,), ratios=(1.0,)):
        # one dtype for all three, so that no in-place sum in the products
        # has to cast a complex term into a real array
        d, u, v = np.asarray(d), np.asarray(u), np.asarray(v)
        dtype = np.result_type(d, u, v, np.float64)
        d, u, v = (a.astype(dtype, copy=False) for a in (d, u, v))
        if d.ndim != 1 or d.shape[0] < 1:
            raise InvalidDimensionError(f"matrix size must be >= 1, got {d.shape}")
        n = d.shape[0]
        if u.shape != (n,) or v.shape != (n,):
            raise InvalidDimensionError(
                f"generators of size {n} must have length {n}, "
                f"got shapes {u.shape} and {v.shape}"
            )
        if not all(np.isfinite(a).all() for a in (d, u, v)):
            raise ValueError("matrix generators must be finite (no NaN/Inf)")
        self.n = int(n)
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
        """The entrywise modulus |A|, the least positive matrix dominating A."""
        return LowerTriangularMatrix(
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
        return f"LowerTriangularMatrix(n={self.n}, blocks={len(self.starts)})"


def cesaro_matrix(n):
    """The n x n averaging matrix: row i (0-based) is the constant 1/(i+1).

    Applying it to a vector produces the running arithmetic means
    (x_1 + ... + x_k)/k.  In generator form d = u = 1/k and v = 1.
    """
    if n < 1:
        raise InvalidDimensionError(f"matrix size must be >= 1, got {n}")
    inverse = 1.0 / np.arange(1, n + 1, dtype=np.float64)
    return LowerTriangularMatrix(inverse, inverse, np.ones(n))


def apply(A, x):
    """Matrix-vector product y_i = sum_{j <= i} a_ij x_j (finite sums only)."""
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (A.n,):
        raise InvalidDimensionError(
            f"vector of length {x.shape} does not match matrix size {A.n}"
        )
    return A.matvec(x)
