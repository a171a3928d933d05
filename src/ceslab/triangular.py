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

__all__ = ["LowerTriangularMatrix", "cesaro_matrix", "apply", "stack"]

_ROW_BLOCK_BYTES = 1 << 18  # the bytes of one row block of a scan, see row_spans


def row_spans(n, itemsize, first=0):
    """The (lo, hi) spans that walk rows first..n-1 of an n x n matrix once, in order:
    max(1, _ROW_BLOCK_BYTES // (itemsize n)) rows each, the last one fewer."""
    rows = max(1, _ROW_BLOCK_BYTES // (itemsize * n))
    for lo in range(first, n, rows):
        yield lo, min(lo + rows, n)


def _carried_sums(z, starts, ratios, reverse=False):
    """Exclusive running sums of z along its last axis, carried across scale blocks.

    Forward, out[i] = sum over j < i of z_j; with ``reverse``, out[j] = sum
    over i > j of z_i.  Each block holds its terms in its own scale, so a
    carry entering block q is multiplied by ratios[q] (forward) or by
    ratios[q + 1] (reverse), both exp(shift_{q-1} - shift_q) for the pair
    of blocks crossed.  A ratio may be an array over the leading axes.  The
    carry seeds the block's running sum, so a block boundary with ratio 1.0
    leaves every sum bit for bit as it would be without the boundary.
    """
    out = np.empty_like(z)
    ends = starts[1:] + (z.shape[-1],)
    order = range(len(starts) - 1, -1, -1) if reverse else range(len(starts))
    for q in order:
        seg, dst = z[..., starts[q] : ends[q]], out[..., starts[q] : ends[q]]
        if reverse:
            seg, dst = seg[..., ::-1], dst[..., ::-1]
        if q == order[0]:
            dst[..., 0] = 0.0
            np.cumsum(seg[..., :-1], axis=-1, out=dst[..., 1:])
        else:
            carry = carry * ratios[q + 1 if reverse else q]
            seeded = np.concatenate((carry[..., None], seg[..., :-1]), axis=-1)
            np.cumsum(seeded, axis=-1, out=dst)
        carry = dst[..., -1] + seg[..., -1]
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

    Generators with leading axes stand for a batch of matrices of one size
    (see :func:`stack`); the ratios are then arrays over the batch.

    Parameters
    ----------
    d, u, v : arrays of one shape (..., n), n >= 1, real or complex, all finite
    starts, ratios : the scale blocks; one block by default
    """

    __slots__ = ("n", "d", "u", "v", "starts", "ratios")

    def __init__(self, d, u, v, starts=(0,), ratios=(1.0,)):
        # one dtype for all three, so that no in-place sum in the products
        # has to cast a complex term into a real array
        d, u, v = np.asarray(d), np.asarray(u), np.asarray(v)
        dtype = np.result_type(d, u, v, np.float64)
        d, u, v = (a.astype(dtype, copy=False) for a in (d, u, v))
        if d.ndim < 1 or d.shape[-1] < 1:
            raise InvalidDimensionError(f"matrix size must be >= 1, got {d.shape}")
        n = d.shape[-1]
        if u.shape != d.shape or v.shape != d.shape:
            raise InvalidDimensionError(
                f"generators u and v must have the shape {d.shape} of d, "
                f"got {u.shape} and {v.shape}"
            )
        if not all(np.isfinite(a).all() for a in (d, u, v)):
            raise ValueError("matrix generators must be finite (no NaN/Inf)")
        self.n = int(n)
        self.d = d
        self.u = u
        self.v = v
        self.starts = tuple(starts)
        self.ratios = tuple(ratios)

    def __getitem__(self, rows):
        """Matrix ``rows`` of a stack (an int), or the sub-stack at an index array or mask.

        The block starts stay: a matrix has ratio 1.0 at a start foreign to
        it, so its products are bit for bit those of a fresh :func:`stack`.
        The slots are filled directly: rows of a valid stack need no new
        cast or check.
        """
        sub = object.__new__(LowerTriangularMatrix)
        sub.n, sub.starts = self.n, self.starts
        sub.d, sub.u, sub.v = self.d[rows], self.u[rows], self.v[rows]
        sub.ratios = tuple(r[rows] for r in self.ratios)
        return sub

    def matvec(self, x):
        """The product A x along the last axis of ``x``, broadcast over the rest."""
        y = self.u * _carried_sums(self.v * x, self.starts, self.ratios)
        y += self.d * x
        return y

    def rmatvec(self, y):
        """The adjoint product A* y along the last axis of ``y``."""
        x = _carried_sums(self.u.conj() * y, self.starts, self.ratios, reverse=True)
        x *= self.v.conj()
        x += self.d.conj() * y
        return x

    def modulus(self):
        """The entrywise modulus |A|, the least positive matrix dominating A."""
        return LowerTriangularMatrix(
            np.abs(self.d), np.abs(self.u), np.abs(self.v), self.starts, self.ratios
        )

    def row_block(self, lo, hi, cols):
        """Rows lo..hi-1 and columns 0..cols-1 of a single matrix, as a dense array.

        Bit for bit ``dense()[lo:hi, :cols]``, but only this block is formed:
        O((hi - lo) cols) memory, and O(n) more for the v_j of earlier scale
        blocks.  Those carry the ratios in the order a running sum applies
        them, so the entries are bit for bit those of the product with I.
        Each scale block's rows top..bottom-1 are masked only in the band of
        columns from top on: every column left of top is below the diagonal
        of all these rows.  So the one temporary besides the result, a
        boolean mask of the entries on or above the diagonal, has at most
        (bottom - top)^2 entries.
        """
        return self._fill_rows(np.empty((hi - lo, cols), dtype=self.d.dtype), lo)

    def _fill_rows(self, out, lo):
        """:meth:`row_block` written into ``out``, whose shape gives hi - lo and cols."""
        hi, cols = lo + out.shape[0], out.shape[1]
        starts = self.starts
        ends = starts[1:] + (self.n,)
        scaled = self.v[:0]  # v_j, j < cols, of the blocks already passed, in this block's scale
        for q, (first, last) in enumerate(zip(starts, ends)):
            if first >= hi:
                break
            if q:
                prev = self.v[starts[q - 1] : min(first, cols)]
                scaled = np.concatenate((scaled, prev)) * self.ratios[q]
            top, bottom = max(lo, first), min(hi, last)
            if top >= bottom:
                continue
            rows, dst = self.u[top:bottom, None], out[top - lo : bottom - lo]
            left, right = min(first, cols), min(bottom, cols)  # this block's columns below the diagonal
            # both factors 2-D: a 1 x 1 product with a broadcast factor takes
            # numpy's scalar loop, whose complex product rounds differently
            np.multiply(rows, scaled[None, :], out=dst[:, :left])
            np.multiply(rows, self.v[None, left:right], out=dst[:, left:right])
            band = max(left, min(top, right))  # every column left of top is below every row's diagonal
            on_or_above = np.less_equal.outer(np.arange(top, bottom), np.arange(band, right))
            np.copyto(dst[:, band:right], 0, where=on_or_above)
            dst[:, right:] = 0
        diag = np.arange(lo, min(hi, cols))
        out[diag - lo, diag] = self.d[diag]
        return out

    def dense(self):
        """The dense (n, n) array of a single matrix, for tests: :meth:`row_block` of all rows."""
        return self.row_block(0, self.n, self.n)

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


def stack(matrices):
    """One matrix with (L, n) generators whose products act on L matrices at once.

    Row i of ``stack(ms).matvec(X)`` is ``ms[i].matvec(X[..., i, :])``, bit
    for bit.  The blocks are the union of the matrices' block starts; a
    matrix has ratio 1.0 at a start that is not its own, which leaves its
    running sums unchanged.
    """
    n = matrices[0].n
    if any(A.n != n for A in matrices):
        raise InvalidDimensionError("stacked matrices must share one size")
    own = [dict(zip(A.starts, A.ratios)) for A in matrices]
    starts = sorted(set().union(*own))
    ratios = [np.array([r.get(s, 1.0) for r in own]) for s in starts]
    d, u, v = (np.stack([getattr(A, f) for A in matrices]) for f in "duv")
    return LowerTriangularMatrix(d, u, v, starts, ratios)
