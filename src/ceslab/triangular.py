"""Exact finite-section algebra of lower-triangular complex matrices.

Lower-triangular matrices are the universal representation here: the
averaging operator, its resolvents and every comparison matrix are lower
triangular, and the leading n x n block of a product of two lower-triangular
matrices depends only on the leading n x n blocks of the factors.  Finite
sections are therefore exact under composition, which is what makes
truncation a faithful model.

Storage is packed row-major: row i (0-based) holds i + 1 entries, so a
matrix of size n keeps n(n+1)/2 complex numbers.  This halves memory and
keeps sizes around 10^4 workable.
"""

import numpy as np
from scipy.linalg.blas import ztpmv

from .errors import InvalidDimensionError

__all__ = [
    "LowerTriangularMatrix",
    "RegularSplit",
    "cesaro_matrix",
    "apply",
    "compose",
    "modulus",
    "split_regular",
    "dominates",
    "packed_indices",
]

# Additive slack for entrywise comparisons: the dominating matrices are
# themselves float-evaluated, so exact inequalities need a guard.
DOMINATION_TOLERANCE = 1e-12


def _packed_length(n):
    return n * (n + 1) // 2


def row_offsets(n):
    """Start index of each packed row: offsets[i] = i(i+1)/2."""
    i = np.arange(n, dtype=np.int64)
    return i * (i + 1) // 2


def packed_indices(n):
    """(rows, cols) arrays aligned with packed storage, both 0-based.

    Useful for vectorized scans over a whole triangle: entry k of the
    packed data sits at matrix position (rows[k], cols[k]).
    """
    rows = np.repeat(np.arange(n, dtype=np.int64), np.arange(1, n + 1))
    cols = np.arange(_packed_length(n), dtype=np.int64) - row_offsets(n)[rows]
    return rows, cols


class LowerTriangularMatrix:
    """A finite n x n complex matrix with zero entries above the diagonal.

    Entries are stored packed row-major in ``data``; the implicit upper
    triangle is exactly zero by construction.  Instances are treated as
    immutable: no method mutates ``data``, and sharing across threads is
    safe.

    Parameters
    ----------
    n : int
        Matrix size, at least 1.
    data : array-like of complex, length n(n+1)/2
        Packed rows; every entry must be finite.
    """

    __slots__ = ("n", "data")

    def __init__(self, n, data):
        if n < 1:
            raise InvalidDimensionError(f"matrix size must be >= 1, got {n}")
        data = np.ascontiguousarray(data, dtype=np.complex128)
        if data.shape != (_packed_length(n),):
            raise InvalidDimensionError(
                f"packed data for size {n} must have length {_packed_length(n)}, "
                f"got shape {data.shape}"
            )
        if not np.all(np.isfinite(data.view(np.float64))):
            raise ValueError("matrix entries must be finite (no NaN/Inf)")
        self.n = int(n)
        self.data = data

    @classmethod
    def zeros(cls, n):
        if n < 1:
            raise InvalidDimensionError(f"matrix size must be >= 1, got {n}")
        return cls(n, np.zeros(_packed_length(n), dtype=np.complex128))

    @classmethod
    def identity(cls, n):
        if n < 1:
            raise InvalidDimensionError(f"matrix size must be >= 1, got {n}")
        data = np.zeros(_packed_length(n), dtype=np.complex128)
        data[row_offsets(n) + np.arange(n)] = 1.0
        return cls(n, data)

    @classmethod
    def from_dense(cls, array):
        """Pack a dense lower-triangular array; the upper triangle must be zero."""
        array = np.asarray(array, dtype=np.complex128)
        if array.ndim != 2 or array.shape[0] != array.shape[1]:
            raise InvalidDimensionError(f"expected a square matrix, got {array.shape}")
        n = array.shape[0]
        if n >= 2 and np.any(array[np.triu_indices(n, k=1)] != 0):
            raise ValueError("upper triangle must be exactly zero")
        rows, cols = packed_indices(n)
        return cls(n, array[rows, cols])

    @classmethod
    def diagonal(cls, values):
        """Diagonal matrix from a 1-D vector of entries."""
        values = np.asarray(values, dtype=np.complex128)
        n = values.shape[0]
        data = np.zeros(_packed_length(n), dtype=np.complex128)
        data[row_offsets(n) + np.arange(n)] = values
        return cls(n, data)

    def row(self, i):
        """Packed row i (0-based): the i + 1 entries a_{i,0..i}."""
        off = i * (i + 1) // 2
        return self.data[off : off + i + 1]

    def entry(self, i, j):
        """Entry at (row i, column j), 0-based; zero above the diagonal."""
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"index ({i}, {j}) out of range for size {self.n}")
        if j > i:
            return 0j
        return complex(self.data[i * (i + 1) // 2 + j])

    def diag(self):
        """The diagonal as a 1-D array."""
        return self.data[row_offsets(self.n) + np.arange(self.n)].copy()

    def dense(self):
        """Unpack to a dense (n, n) complex array."""
        out = np.zeros((self.n, self.n), dtype=np.complex128)
        rows, cols = packed_indices(self.n)
        out[rows, cols] = self.data
        return out

    # Row-major packed lower storage is the column-major packed upper storage
    # of the transpose, so BLAS tpmv applies the matrix without unpacking.

    def matvec(self, x):
        """The product A x of a vector of length n."""
        return ztpmv(self.n, self.data, np.asarray(x, dtype=np.complex128), trans=1)

    def rmatvec(self, y):
        """The adjoint product A* y of a vector of length n."""
        y = np.conj(np.asarray(y, dtype=np.complex128))
        return np.conj(ztpmv(self.n, self.data, y))

    def modulus(self):
        """The entrywise modulus |A|, the least positive matrix dominating A."""
        return LowerTriangularMatrix(self.n, np.abs(self.data).astype(np.complex128))

    def abs_row_sums(self):
        return np.add.reduceat(np.abs(self.data), row_offsets(self.n))

    def abs_col_sums(self):
        return self.modulus().rmatvec(np.ones(self.n)).real

    def leading_block(self, m):
        """The leading m x m section, itself a packed lower-triangular matrix."""
        if not (1 <= m <= self.n):
            raise InvalidDimensionError(f"block size {m} not in [1, {self.n}]")
        return LowerTriangularMatrix(m, self.data[: _packed_length(m)].copy())

    def is_real(self, tol=0.0):
        return bool(np.all(np.abs(self.data.imag) <= tol))

    def is_nonnegative(self, tol=0.0):
        return self.is_real(tol) and bool(np.all(self.data.real >= -tol))

    def max_abs(self):
        return float(np.abs(self.data).max())

    def __eq__(self, other):
        if not isinstance(other, LowerTriangularMatrix):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.data, other.data))

    __hash__ = None  # mutable ndarray payload; compare by value only

    def __repr__(self):
        return f"LowerTriangularMatrix(n={self.n})"


class RegularSplit:
    """Four entrywise-nonnegative matrices reconstructing a complex one.

    ``(s - u) + i(v - w)`` equals the source matrix entrywise exactly, and
    each part is dominated by the modulus matrix of the source.
    """

    __slots__ = ("s", "u", "v", "w")

    def __init__(self, s, u, v, w):
        sizes = {s.n, u.n, v.n, w.n}
        if len(sizes) != 1:
            raise InvalidDimensionError(f"split parts must share one size, got {sizes}")
        for name, part in (("s", s), ("u", u), ("v", v), ("w", w)):
            if not part.is_nonnegative():
                raise ValueError(f"split part {name} must be real and >= 0")
        self.s = s
        self.u = u
        self.v = v
        self.w = w

    def reconstruct(self):
        data = (self.s.data - self.u.data) + 1j * (self.v.data - self.w.data)
        return LowerTriangularMatrix(self.s.n, data)

    def parts(self):
        return (self.s, self.u, self.v, self.w)


def cesaro_matrix(n):
    """The n x n averaging matrix: row i (0-based) is the constant 1/(i+1).

    Applying it to a vector produces the running arithmetic means
    (x_1 + ... + x_k)/k.
    """
    if n < 1:
        raise InvalidDimensionError(f"matrix size must be >= 1, got {n}")
    rows = np.repeat(np.arange(1, n + 1, dtype=np.float64), np.arange(1, n + 1))
    return LowerTriangularMatrix(n, 1.0 / rows)


def apply(A, x):
    """Matrix-vector product y_i = sum_{j <= i} a_ij x_j (finite sums only)."""
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (A.n,):
        raise InvalidDimensionError(
            f"vector of length {x.shape} does not match matrix size {A.n}"
        )
    return A.matvec(x)


def compose(A, B):
    """Matrix product A @ B, again lower triangular of the same size.

    Triangularity means the leading n x n block of a product of two larger
    lower-triangular matrices equals the product of the leading blocks, so
    composing finite sections is exact.  Evaluated densely; intended for
    sizes up to a few thousand.
    """
    if A.n != B.n:
        raise InvalidDimensionError(f"size mismatch: {A.n} vs {B.n}")
    product = A.dense() @ B.dense()
    rows, cols = packed_indices(A.n)
    return LowerTriangularMatrix(A.n, product[rows, cols])


def modulus(B):
    """The entrywise modulus matrix |B|, the least positive matrix dominating B."""
    return B.modulus()


def split_regular(B):
    """Decompose B = (s - u) + i(v - w) with all four parts entrywise >= 0.

    s, u are the positive/negative parts of Re B and v, w those of Im B.
    Reconstruction is exact (positive/negative parts subtract back without
    rounding), and every part is dominated by modulus(B).
    """
    re = B.data.real
    im = B.data.imag
    make = lambda arr: LowerTriangularMatrix(B.n, arr.astype(np.complex128))
    return RegularSplit(
        make(np.maximum(re, 0.0)),
        make(np.maximum(-re, 0.0)),
        make(np.maximum(im, 0.0)),
        make(np.maximum(-im, 0.0)),
    )


def dominates(A, B, tol=DOMINATION_TOLERANCE):
    """True iff |b_ij| <= a_ij + tol for every stored entry.

    A must have real entries.  The additive slack covers dominating
    matrices that are themselves computed in floating point.
    """
    if A.n != B.n:
        raise InvalidDimensionError(f"size mismatch: {A.n} vs {B.n}")
    if not A.is_real():
        raise ValueError("dominating matrix must have real entries")
    return bool(np.all(np.abs(B.data) <= A.data.real + tol))
