"""Exact dense linear algebra over a prime field F_p.

Matrices are thin wrappers around numpy int64 arrays with entries reduced
mod p; numpy is the interface, for products, stacking and slicing, but
the resolution window build runs on Python int rows.
Entries are reduced once, where data enters: the public Matrix(a, p) and
every product, negation, scale and transpose reduce, since their
entries may leave [0, p).  The functions here that allocate a fresh array
from entries already in [0, p) (rref, kernel_basis, solve, hstack, zeros,
identity, units) wrap it as it is, through Matrix._reduced.
Gaussian elimination has one implementation, _eliminate, and every
reader runs it once: rref builds the array of its reduced rows, rank and
new_columns read its pivots alone, and kernel_basis and solve write their
results from its rows; row_new_columns and row_kernel are new_columns and
kernel_basis on int rows.  It runs on Python int rows: the matrices
eliminated here are small (a median of 4 x 4 on the resolution path), so
a numpy update of the whole array per pivot costs more than reducing, in
plain ints, only the rows with a nonzero entry in the pivot column.
Asymptotics never matter, exactness does.  Empty (0 x n and n x 0)
matrices are first-class citizens because zero modules show up constantly.
"""

from __future__ import annotations

import numpy as np


def is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))


def inv_mod(a: int, p: int) -> int:
    """Inverse of a nonzero residue, via Fermat (p is prime)."""
    a %= p
    if a == 0:
        raise ZeroDivisionError("inverse of 0 in F_%d" % p)
    return pow(a, p - 2, p)


class Matrix:
    """Dense matrix over F_p.  Immutable by convention: no method mutates."""

    __slots__ = ("a", "p")

    def __init__(self, a, p: int):
        arr = np.asarray(a, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError("matrix data must be 2-dimensional, got shape %s" % (arr.shape,))
        self.a = arr % p
        self.p = p

    @classmethod
    def _reduced(cls, arr: np.ndarray, p: int) -> "Matrix":
        """Wraps, without reducing or copying, a 2-d int64 array that the
        caller has just allocated, every entry already in [0, p)."""
        m = cls.__new__(cls)
        m.a = arr
        m.p = p
        return m

    # -- constructors -------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int, p: int) -> "Matrix":
        return Matrix._reduced(np.zeros((rows, cols), dtype=np.int64), p)

    @staticmethod
    def identity(n: int, p: int) -> "Matrix":
        return Matrix._reduced(np.eye(n, dtype=np.int64), p)

    @staticmethod
    def units(rows: int, cols: int, ones: list[tuple[int, int]], p: int) -> "Matrix":
        """The 0/1 matrix with a 1 at each (row, column) in ones."""
        a = np.zeros((rows, cols), dtype=np.int64)
        for r, c in ones:
            a[r, c] = 1
        return Matrix._reduced(a, p)

    # -- shape --------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def is_zero(self) -> bool:
        return not self.a.any()

    # -- arithmetic ---------------------------------------------------

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._same_field(other)
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product: %dx%d @ %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        return Matrix(self.a @ other.a, self.p)

    def __neg__(self) -> "Matrix":
        return Matrix(-self.a, self.p)

    def scale(self, c: int) -> "Matrix":
        return Matrix(self.a * (c % self.p), self.p)

    @property
    def T(self) -> "Matrix":
        return Matrix(self.a.T, self.p)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.p == other.p and self.a.shape == other.a.shape and bool((self.a == other.a).all())

    def __hash__(self):
        return hash((self.p, self.a.shape, self.a.tobytes()))

    def __repr__(self):
        return "Matrix(%r, p=%d)" % (self.a.tolist(), self.p)

    def _same_field(self, other: "Matrix"):
        if self.p != other.p:
            raise ValueError("mixed moduli %d and %d" % (self.p, other.p))

    # -- block assembly -----------------------------------------------

    def hstack(self, other: "Matrix") -> "Matrix":
        self._same_field(other)
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return Matrix._reduced(np.hstack([self.a, other.a]), self.p)


def _eliminate(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan elimination, in place, of rows of Python ints in [0, p):
    returns the rows, now in reduced row-echelon form, and the pivots."""
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        for pr in range(r, nrows):
            if rows[pr][c]:
                break
        else:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = inv_mod(rows[r][c], p)
        if inv != 1:
            rows[r] = [v * inv % p for v in rows[r]]
        pivot = rows[r]
        for i in range(nrows):
            f = rows[i][c]
            if f and i != r:
                rows[i] = [(u - f * v) % p for u, v in zip(rows[i], pivot)]
        pivots.append(c)
        r += 1
    return rows, pivots


def rref(m: Matrix) -> tuple[Matrix, int, list[int]]:
    """Reduced row-echelon form.

    Returns (R, rank, pivot_columns).  Row space is preserved; R has
    leading 1 in each pivot column and zeros elsewhere in that column.
    The only reader that builds an array of the eliminated rows; RREF is
    unique, so R does not depend on how the elimination is carried out.
    """
    rows, pivots = _eliminate(m.a.tolist(), m.p)
    return Matrix._reduced(np.array(rows, dtype=np.int64).reshape(m.a.shape), m.p), len(pivots), pivots


def row_rank(rows: list[list[int]], p: int) -> int:
    """The rank of int rows in [0, p), eliminated in place."""
    return len(_eliminate(rows, p)[1])


def rank(m: Matrix) -> int:
    return row_rank(m.a.tolist(), m.p)


def row_new_columns(rows: list[list[int]], split: int, p: int) -> list[int]:
    """new_columns on the int rows of [a | b], a of width split, in place."""
    return [c - split for c in _eliminate(rows, p)[1] if c >= split]


def new_columns(a: Matrix, b: Matrix) -> list[int]:
    """Indices of the columns of b independent of the columns of a and of
    b's earlier columns: the columns a greedy left-to-right span adds, read
    off the pivots of [a | b] past a's columns."""
    return row_new_columns(a.hstack(b).a.tolist(), a.cols, a.p)


def row_kernel(rows: list[list[int]], cols: int, p: int) -> list[list[int]]:
    """kernel_basis on int rows in [0, p) of width cols, eliminated in place."""
    rows, pivots = _eliminate(rows, p)
    free = [j for j in range(cols) if j not in pivots]
    basis = [[0] * len(free) for _ in range(cols)]
    for k, j in enumerate(free):
        basis[j][k] = 1
    for row, pc in zip(rows, pivots):
        basis[pc] = [-row[j] % p for j in free]
    return basis


def kernel_basis(m: Matrix) -> Matrix:
    """Columns form a basis of the null space {x : m x = 0}.

    Returns a cols(m) x (cols(m) - rank) matrix; the standard free-variable
    parametrization read off the eliminated rows.
    """
    basis = row_kernel(m.a.tolist(), m.cols, m.p)
    width = len(basis[0]) if basis else 0
    return Matrix._reduced(np.array(basis, dtype=np.int64).reshape(m.cols, width), m.p)


def solve(m: Matrix, rhs: Matrix) -> Matrix | None:
    """Some solution x of m x = rhs (column-wise), or None if unsolvable.

    rhs may have several columns; a solution must exist for all of them
    simultaneously.  Free variables are set to zero.
    """
    if rhs.rows != m.rows:
        raise ValueError("rhs has %d rows, expected %d" % (rhs.rows, m.rows))
    if rhs.p != m.p:
        raise ValueError("mixed moduli")
    rows, pivots = _eliminate(m.hstack(rhs).a.tolist(), m.p)
    if any(pc >= m.cols for pc in pivots):
        return None
    x = [[0] * rhs.cols for _ in range(m.cols)]
    for row, pc in zip(rows, pivots):
        x[pc] = row[m.cols:]
    return Matrix._reduced(np.array(x, dtype=np.int64).reshape(m.cols, rhs.cols), m.p)
