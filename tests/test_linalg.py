import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tricomplete.linalg import Matrix, SpanTracker, inv_mod, kernel_basis, rank, rref, solve


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


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_rref_matches_numpy_reference_byte_for_byte(p):
    for arr in rref_cases(p):
        m = Matrix(arr, p)
        got, want = rref(m), reference_rref(m)
        assert got[0].a.dtype == want[0].a.dtype == np.int64
        assert got[0].a.shape == want[0].a.shape == arr.shape
        assert got[0].a.tobytes() == want[0].a.tobytes(), arr
        assert got[1:] == want[1:], arr
        assert got[0].p == p


def test_rref_leaves_its_input_alone():
    m = Matrix([[2, 1], [1, 1]], 3)
    before = m.a.copy()
    rref(m)
    assert np.array_equal(m.a, before)


def test_take_rows_accepts_a_generator():
    m = Matrix(np.arange(12).reshape(4, 3), 13)
    got = m.take_rows(i for i in (3, 1))
    assert got == Matrix([[9, 10, 11], [3, 4, 5]], 13)
    assert m.take_rows(iter(())).a.shape == (0, 3)


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
    assert k.column(0).tolist() == [1, 1]


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
