import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tricomplete.linalg import (
    Matrix,
    inv_mod,
    kernel_basis,
    new_columns,
    rank,
    row_kernel,
    row_new_columns,
    row_rank,
    rref,
    solve,
)


def mat(rows, p):
    if not rows:
        return Matrix.zeros(0, 0, p)
    return Matrix(np.array(rows, dtype=np.int64).reshape(len(rows), -1), p)


def test_rref_identity():
    m = Matrix.identity(2, 2)
    r, rk, piv = rref(m)
    assert r == m
    assert rk == 2
    assert piv == [0, 1]


def test_rref_zero():
    m = Matrix.zeros(3, 3, 5)
    r, rk, piv = rref(m)
    assert r == m
    assert rk == 0
    assert piv == []


def test_rref_rank_one_over_f2():
    # [[1,1],[1,1]] over F_2: one pivot in column 0
    m = mat([[1, 1], [1, 1]], 2)
    r, rk, piv = rref(m)
    assert rk == 1
    assert piv == [0]
    assert r == mat([[1, 1], [0, 0]], 2)


def reference_rref(m: Matrix) -> tuple[Matrix, int, list[int]]:
    """The numpy elimination rref used before it moved to Python int rows:
    a full-array update per pivot."""
    p = m.p
    A = m.a.copy()
    nrows, ncols = A.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            A[[r, pr]] = A[[pr, r]]
        A[r] = (A[r] * inv_mod(int(A[r, c]), p)) % p
        col = A[:, c].copy()
        col[r] = 0
        A = (A - np.outer(col, A[r])) % p
        pivots.append(c)
        r += 1
    return Matrix(A, p), len(pivots), pivots


def rref_cases(p):
    rng = np.random.default_rng(p)
    for n in range(6):
        yield np.zeros((0, n), dtype=np.int64)
        yield np.zeros((n, 0), dtype=np.int64)
    for _ in range(60):
        rows, cols = (int(v) for v in rng.integers(1, 41, size=2))
        full = rng.integers(0, p, size=(rows, cols))
        yield full
        # low rank, with zero columns, so pivots skip columns
        k = int(rng.integers(0, min(rows, cols) + 1))
        low = rng.integers(0, p, size=(rows, k)) @ rng.integers(0, p, size=(k, cols))
        low[:, rng.random(cols) < 0.3] = 0
        yield low
    yield np.eye(40, dtype=np.int64)
    yield rng.integers(0, p, size=(40, 40))


def reference_kernel(m: Matrix) -> np.ndarray:
    """The free-variable kernel basis read off reference_rref's array."""
    R, rk, piv = reference_rref(m)
    free = [j for j in range(m.cols) if j not in piv]
    K = np.zeros((m.cols, len(free)), dtype=np.int64)
    K[free, np.arange(len(free))] = 1
    K[piv, :] = -R.a[:rk][:, free] % m.p
    return K


def reference_split(m: Matrix, s: int) -> tuple[list[int], np.ndarray | None]:
    """For m = [a | b] split after column s, read off reference_rref(m):
    the new columns of b beside a, and the solution of a x = b with free
    variables zero (None when a pivot lies in b)."""
    R, rk, piv = reference_rref(m)
    new = [c - s for c in piv if c >= s]
    if new:
        return new, None
    X = np.zeros((s, m.cols - s), dtype=np.int64)
    X[piv, :] = R.a[:rk, s:]
    return new, X


def assert_same_array(got: Matrix, want: np.ndarray, p: int, *context):
    assert got.p == p and got.a.dtype == want.dtype == np.int64, context
    assert got.a.shape == want.shape and got.a.tobytes() == want.tobytes(), context


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_rref_matches_numpy_reference_byte_for_byte(p):
    # every reader of the elimination, not rref alone: rank, new_columns,
    # kernel_basis and solve, against what reference_rref's array says
    solved = unsolved = 0
    for arr in rref_cases(p):
        m = Matrix(arr, p)
        got, want = rref(m), reference_rref(m)
        assert got[0].a.dtype == want[0].a.dtype == np.int64
        assert got[0].a.shape == want[0].a.shape == arr.shape
        assert got[0].a.tobytes() == want[0].a.tobytes(), arr
        assert got[1:] == want[1:], arr
        assert got[0].p == p
        assert rank(m) == want[1], arr
        assert_same_array(kernel_basis(m), reference_kernel(m), p, arr)
        for s in sorted({0, m.cols // 2, m.cols}):
            a, b = Matrix(arr[:, :s], p), Matrix(arr[:, s:], p)
            new, X = reference_split(m, s)
            assert new_columns(a, b) == new, (arr, s)
            x = solve(a, b)
            if X is None:
                assert x is None, (arr, s)
                unsolved += 1
            else:
                assert_same_array(x, X, p, arr, s)
                solved += 1
    assert solved > 100 and unsolved > 100


def test_every_reader_runs_the_one_engine_once(monkeypatch):
    import sys

    from tricomplete import cli, complexes, linalg, randomgen, rmodule  # noqa: F401  (every module)

    engine, calls = linalg._eliminate, []
    monkeypatch.setattr(linalg, "_eliminate", lambda rows, p: calls.append(p) or engine(rows, p))
    m, b = Matrix([[1, 2, 0], [2, 1, 1]], 3), Matrix([[1], [0]], 3)
    readers = {"rref": lambda: rref(m), "rank": lambda: rank(m), "new_columns": lambda: new_columns(m, b),
               "kernel_basis": lambda: kernel_basis(m), "solve": lambda: solve(m, b),
               "row_kernel": lambda: row_kernel(m.a.tolist(), m.cols, 3),
               "row_rank": lambda: row_rank(m.a.tolist(), 3),
               "row_new_columns": lambda: row_new_columns(m.hstack(b).a.tolist(), m.cols, 3)}
    for name, read in readers.items():
        calls.clear()
        read()
        assert calls == [3], name
    # the Matrix readers are wrappers of the row-level cores
    assert kernel_basis(m).a.tolist() == row_kernel(m.a.tolist(), m.cols, 3)
    assert new_columns(m, b) == row_new_columns(m.hstack(b).a.tolist(), m.cols, 3)
    # modules bind the readers by name, the row-level cores included, never
    # the engine: the window build reaches it through row_kernel and free_cover,
    # and every type read off a rank profile (the cut syzygy, each H^i)
    # through profile_type, which runs it once, through row_new_columns
    # (span_type lays out H^i's rows for it), every support read off block
    # ranks through row_rank; the canonical route to H^i is
    # gone from complexes, and rmodule reads images and cokernels as
    # kernels, with k-duality its own (dual_map), and binds no rref
    assert complexes.row_kernel is linalg.row_kernel and rmodule.row_new_columns is linalg.row_new_columns
    assert complexes.row_rank is linalg.row_rank
    assert complexes.span_type is rmodule.span_type and complexes.profile_type is rmodule.profile_type
    assert not hasattr(complexes, "quotient_canonicalize")
    assert not hasattr(rmodule, "rref") and complexes.dual_map is rmodule.dual_map
    via = []
    monkeypatch.setattr(rmodule, "row_new_columns", lambda *args: via.append(args[2]) or linalg.row_new_columns(*args))
    calls.clear()
    ring = rmodule.Ring(3, 2)  # R e / x R e, with U = x R e
    assert rmodule.span_type([[0], [1]], [[1], [0]], (2,), ring) == rmodule.RModule(ring, (1,))
    assert calls == via == [3]
    binders = [name for name, mod in sys.modules.items()
               if name.split(".")[0] == "tricomplete" and name != "tricomplete.linalg"
               and any(v is engine or k == "_eliminate" for k, v in vars(mod).items())]
    assert binders == []


def test_rref_leaves_its_input_alone():
    m = Matrix([[2, 1], [1, 1]], 3)
    before = m.a.copy()
    rref(m)
    assert np.array_equal(m.a, before)


def test_kernel_identity_empty():
    assert kernel_basis(Matrix.identity(4, 3)).cols == 0


def test_kernel_zero_full():
    k = kernel_basis(Matrix.zeros(3, 3, 2))
    assert k.cols == 3
    assert rank(k) == 3


def test_kernel_sum_over_f2():
    # x + y = 0 over F_2: kernel spanned by (1,1)
    k = kernel_basis(mat([[1, 1]], 2))
    assert k.cols == 1
    assert k.a[:, 0].tolist() == [1, 1]


def test_solve_identity():
    rhs = mat([[1], [2]], 3)
    x = solve(Matrix.identity(2, 3), rhs)
    assert x == rhs


def test_solve_zero_matrix_no_solution():
    assert solve(Matrix.zeros(2, 2, 2), mat([[1], [0]], 2)) is None


def test_solve_underdetermined_verified_by_substitution():
    m = mat([[1, 1], [0, 0]], 2)
    rhs = mat([[1], [0]], 2)
    x = solve(m, rhs)
    assert x is not None
    assert m @ x == rhs


def test_solve_shape_mismatch():
    with pytest.raises(ValueError):
        solve(Matrix.zeros(2, 2, 2), Matrix.zeros(3, 1, 2))


def test_empty_matrices_are_first_class():
    e = Matrix.zeros(0, 3, 2)
    assert rref(e)[1] == 0
    assert kernel_basis(e).cols == 3
    f = Matrix.zeros(3, 0, 2)
    assert kernel_basis(f).cols == 0
    assert (f @ Matrix.zeros(0, 2, 2)).rows == 3


# -- reduced once: what skips the reduction allocates from reduced entries ----


def reduced_once_cases(p):
    """(name, inputs, output) for every function that wraps its fresh array
    without reducing it, on sampled matrices built from entries in
    -3p..3p, so every input went through the public constructor."""
    rng = np.random.default_rng(100 + p)
    for _ in range(40):
        rows, cols, more = (int(v) for v in rng.integers(0, 7, size=3))
        m = Matrix(rng.integers(-3 * p, 3 * p, size=(rows, cols)), p)
        right = Matrix(rng.integers(-3 * p, 3 * p, size=(rows, more)), p)
        ones = np.argwhere(rng.integers(0, 2, size=(rows, cols))).tolist()
        yield "rref", (m,), rref(m)[0]
        yield "kernel_basis", (m,), kernel_basis(m)
        yield "hstack", (m, right), m.hstack(right)
        yield "units", (), Matrix.units(rows, cols, ones, p)
        rhs = m @ Matrix(rng.integers(0, p, size=(cols, more)), p)
        yield "solve", (m, rhs), solve(m, rhs)
        yield "zeros", (), Matrix.zeros(rows, cols, p)
        yield "identity", (), Matrix.identity(rows, p)


@pytest.mark.parametrize("p", (2, 3, 5))
def test_reduced_once_outputs_are_reduced_and_own_their_arrays(p):
    seen = set()
    for name, inputs, out in reduced_once_cases(p):
        seen.add(name)
        assert out.p == p and out.a.ndim == 2, name
        assert out.a.dtype == np.int64, name
        assert ((0 <= out.a) & (out.a < p)).all(), (name, out)
        assert not any(np.shares_memory(out.a, m.a) for m in inputs), name
    assert seen == {"rref", "kernel_basis", "hstack", "units", "solve", "zeros", "identity"}


@pytest.mark.parametrize("p", (2, 3, 5))
def test_matrix_still_reduces_what_enters(p):
    rng = np.random.default_rng(p)
    raw = rng.integers(-5 * p, 5 * p, size=(6, 5))
    raw[0, 0], raw[0, 1] = -1, p
    m = Matrix(raw, p)
    assert m.a.dtype == np.int64 and m.a.tolist() == (raw % p).tolist()
    assert m.a[0, 0] == p - 1 and m.a[0, 1] == 0
    assert Matrix(raw.tolist(), p) == m
    assert not np.shares_memory(m.a, raw)
    # products, negation, scaling and the transpose reduce too
    n = Matrix(rng.integers(-5 * p, 5 * p, size=(5, 6)), p)
    for out, want in ((m @ n, raw @ n.a), (-m, -raw), (m.scale(-1), -raw), (m.T, raw.T)):
        assert out.a.tolist() == (want % p).tolist()
        assert not np.shares_memory(out.a, m.a)


@st.composite
def matrices(draw, pmax=7):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    r = draw(st.integers(0, 6))
    c = draw(st.integers(0, 6))
    data = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=c, max_size=c),
                         min_size=r, max_size=r))
    arr = np.array(data, dtype=np.int64).reshape(r, c)
    return Matrix(arr, p)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rank_nullity_and_kernel_annihilation(m):
    k = kernel_basis(m)
    assert rank(m) + k.cols == m.cols
    assert (m @ k).is_zero()
    assert rank(k) == k.cols  # columns independent


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_rref_idempotent(m):
    r1 = rref(m)[0]
    assert rref(r1)[0] == r1


@settings(max_examples=100, deadline=None)
@given(matrices(), st.randoms(use_true_random=False))
def test_solve_exact_when_solvable(m, rng):
    # build a guaranteed-solvable rhs, then check m x = rhs exactly
    x0 = Matrix(np.array([[rng.randrange(m.p)] for _ in range(m.cols)],
                         dtype=np.int64).reshape(m.cols, 1), m.p)
    rhs = m @ x0
    x = solve(m, rhs)
    assert x is not None
    assert m @ x == rhs


class SpanTracker:
    """The incremental column span the library chose independent columns
    with before new_columns read them off rref's pivots: one round of
    Gaussian reduction per added vector, on numpy vectors."""

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


def greedy_new_columns(a: Matrix, b: Matrix) -> list[int]:
    """The columns of b that enlarge the span of a's columns and b's earlier
    ones, added one at a time to a SpanTracker."""
    span = SpanTracker(a.rows, a.p)
    span.add_columns(a)
    return [j for j in range(b.cols) if span.add(b.a[:, j])]


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_new_columns_is_the_greedy_span_choice(p):
    rng = np.random.default_rng(100 + p)
    for _ in range(150):
        rows = int(rng.integers(0, 9))
        ka, kb = (int(v) for v in rng.integers(0, 8, size=2))
        # low rank with repeated and zero columns, so many columns are dependent
        r = int(rng.integers(0, rows + 1))
        both = rng.integers(0, p, size=(rows, r)) @ rng.integers(0, p, size=(r, ka + kb))
        both[:, rng.random(ka + kb) < 0.2] = 0
        if ka + kb > 1 and rng.random() < 0.5:
            i, j = (int(v) for v in rng.choice(ka + kb, size=2, replace=False))
            both[:, j] = both[:, i] * int(rng.integers(1, p))
        a, b = Matrix(both[:, :ka], p), Matrix(both[:, ka:], p)
        assert new_columns(a, b) == greedy_new_columns(a, b), (both, ka)
    for rows in range(4):
        full = Matrix(rng.integers(0, p, size=(rows, 5)), p)
        empty = Matrix.zeros(rows, 0, p)
        assert new_columns(empty, full) == greedy_new_columns(empty, full)
        assert new_columns(full, empty) == []


def test_span_tracker_matches_rank():
    rng = np.random.default_rng(7)
    for _ in range(25):
        p = 3
        arr = rng.integers(0, p, size=(5, 8))
        m = Matrix(arr, p)
        tr = SpanTracker(5, p)
        tr.add_columns(m)
        assert tr.rank == rank(m)
        for j in range(m.cols):
            assert tr.contains(m.a[:, j])
