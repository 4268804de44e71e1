"""Exact dense linear algebra over a prime field F_p.

Matrices are thin wrappers around numpy int64 arrays with entries reduced
mod p; numpy is the interface, for products, stacking and slicing.
Gaussian elimination is the algorithm of record, and rref runs it on
Python int rows: the matrices eliminated here are small (a median of
4 x 4 on the resolution path), so a numpy update of the whole array per
pivot costs more than reducing, in plain ints, only the rows with a
nonzero entry in the pivot column.  Asymptotics never matter, exactness
does.  Empty (0 x n and n x 0) matrices are first-class citizens because
zero modules show up constantly.
"""

from __future__ import annotations

import numpy as np

_PRIME_CACHE: dict[int, bool] = {}


def is_prime(p: int) -> bool:
    if p not in _PRIME_CACHE:
        _PRIME_CACHE[p] = p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))
    return _PRIME_CACHE[p]


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

    # -- constructors -------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int, p: int) -> "Matrix":
        return Matrix(np.zeros((rows, cols), dtype=np.int64), p)

    @staticmethod
    def identity(n: int, p: int) -> "Matrix":
        return Matrix(np.eye(n, dtype=np.int64), p)

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

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_field(other)
        return Matrix(self.a + other.a, self.p)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_field(other)
        return Matrix(self.a - other.a, self.p)

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
        return Matrix(np.hstack([self.a, other.a]), self.p)

    def vstack(self, other: "Matrix") -> "Matrix":
        self._same_field(other)
        if self.cols != other.cols:
            raise ValueError("column mismatch in vstack")
        return Matrix(np.vstack([self.a, other.a]), self.p)

    def column(self, j: int) -> np.ndarray:
        return self.a[:, j].copy()

    def take_rows(self, idx) -> "Matrix":
        idx = list(idx)
        return Matrix(self.a[idx, :].reshape(len(idx), self.cols), self.p)


def rref(m: Matrix) -> tuple[Matrix, int, list[int]]:
    """Reduced row-echelon form.

    Returns (R, rank, pivot_columns).  Row space is preserved; R has
    leading 1 in each pivot column and zeros elsewhere in that column.
    Eliminates on the rows as lists of Python ints and returns R as an
    int64 Matrix; RREF is unique, so the result does not depend on how the
    elimination is carried out.
    """
    p = m.p
    nrows, ncols = m.a.shape
    rows = m.a.tolist()
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
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
    return Matrix(np.array(rows, dtype=np.int64).reshape(nrows, ncols), p), len(pivots), pivots


def rank(m: Matrix) -> int:
    return rref(m)[1]


def kernel_basis(m: Matrix) -> Matrix:
    """Columns form a basis of the null space {x : m x = 0}.

    Returns a cols(m) x (cols(m) - rank) matrix; the standard free-variable
    parametrization read off the RREF.
    """
    p = m.p
    R, r, pivots = rref(m)
    n = m.cols
    free = [j for j in range(n) if j not in pivots]
    basis = np.zeros((n, len(free)), dtype=np.int64)
    for k, j in enumerate(free):
        basis[j, k] = 1
        for i, pc in enumerate(pivots):
            basis[pc, k] = (-R.a[i, j]) % p
    return Matrix(basis, p)


def solve(m: Matrix, rhs: Matrix) -> Matrix | None:
    """Some solution x of m x = rhs (column-wise), or None if unsolvable.

    rhs may have several columns; a solution must exist for all of them
    simultaneously.  Free variables are set to zero.
    """
    if rhs.rows != m.rows:
        raise ValueError("rhs has %d rows, expected %d" % (rhs.rows, m.rows))
    if rhs.p != m.p:
        raise ValueError("mixed moduli")
    aug = m.hstack(rhs)
    R, r, pivots = rref(aug)
    if any(pc >= m.cols for pc in pivots):
        return None
    x = np.zeros((m.cols, rhs.cols), dtype=np.int64)
    for i, pc in enumerate(pivots):
        x[pc, :] = R.a[i, m.cols:]
    return Matrix(x, m.p)


class SpanTracker:
    """Incremental column span with membership tests.

    Keeps a reduced generating set keyed by leading index; add() performs
    one round of Gaussian reduction, so the total cost stays quadratic in
    the ambient dimension.
    """

    def __init__(self, dim: int, p: int):
        self.dim = dim
        self.p = p
        self._lead: dict[int, np.ndarray] = {}

    def _reduce(self, v: np.ndarray) -> np.ndarray:
        v = v % self.p
        for lead in sorted(self._lead):
            if v[lead]:
                v = (v - v[lead] * self._lead[lead]) % self.p
        return v

    def contains(self, v) -> bool:
        return not self._reduce(np.asarray(v, dtype=np.int64)).any()

    def add(self, v) -> bool:
        """Add a vector; True if it enlarged the span."""
        v = self._reduce(np.asarray(v, dtype=np.int64))
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return False
        lead = int(nz[0])
        v = (v * inv_mod(int(v[lead]), self.p)) % self.p
        # re-reduce stored vectors against the new one to keep them reduced
        for k in self._lead:
            w = self._lead[k]
            if w[lead]:
                self._lead[k] = (w - w[lead] * v) % self.p
        self._lead[lead] = v
        return True

    def add_columns(self, m: Matrix) -> int:
        added = 0
        for j in range(m.cols):
            added += self.add(m.a[:, j])
        return added

    @property
    def rank(self) -> int:
        return len(self._lead)
