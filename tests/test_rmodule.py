import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_linalg import SpanTracker

from tricomplete.linalg import Matrix, kernel_basis, rank, rref, solve
from tricomplete.rmodule import (
    RModule,
    RModuleMap,
    Ring,
    direct_sum,
    free_cover,
    free_module,
    hom_basis,
    identity_map,
    jordan_basis,
    omega_power,
    projective_cover_and_syzygy,
    shift_rows,
    stable_hom,
    subquotient,
    subspace_canonicalize,
    syzygy_type,
    zero_map,
    zero_module,
)
from tricomplete.complexes import zero_complex
from tricomplete.randomgen import Sampler
from tricomplete.workspace import _Parser, parse_workspace_text

from reference import add, commutes_with_x, quotient_canonicalize

R22 = Ring(2, 2)
R23 = Ring(2, 3)


def jordan_type_from_ranks(a: Matrix, dim: int) -> tuple[int, ...]:
    """Jordan type of a nilpotent matrix from the rank profile of its powers,
    the oracle for jordan_basis: #blocks of size >= t is
    rank(a^(t-1)) - rank(a^t)."""
    ranks = [dim]
    power = Matrix.identity(dim, a.p)
    while ranks[-1] > 0:
        power = power @ a
        ranks.append(rank(power))
    blocks = []
    for t in range(1, len(ranks)):
        ge_t = ranks[t - 1] - ranks[t]
        gt_t = ranks[t] - ranks[t + 1] if t + 1 < len(ranks) else 0
        blocks.extend([t] * (ge_t - gt_t))
    return tuple(sorted(blocks, reverse=True))


def hom_dim_closed_form(m: RModule, nn: RModule) -> int:
    """dim Hom(m, nn) = sum over block pairs of min(j_i, j_l)."""
    return sum(min(a, b) for a in m.blocks for b in nn.blocks)


def rings():
    return st.builds(Ring, st.sampled_from([2, 3, 5]), st.integers(1, 4))


@st.composite
def modules(draw, ring=None, max_blocks=3):
    r = ring or draw(rings())
    k = draw(st.integers(0, max_blocks))
    blocks = tuple(draw(st.integers(1, r.n)) for _ in range(k))
    return RModule(r, blocks)


def test_ring_validation():
    with pytest.raises(ValueError):
        Ring(4, 2)
    with pytest.raises(ValueError):
        Ring(2, 0)


def test_x_action_is_nilpotent_shift():
    m = RModule(R22, (2, 1))
    x = m.x_action()
    assert x.a.tolist() == [[0, 0, 0], [1, 0, 0], [0, 0, 0]]
    assert (x @ x).is_zero()


def test_x_action_is_read_only():
    # one array per Jordan type serves every caller: a write would corrupt
    # every later x_action of that type and every map validated against it
    m = RModule(Ring(2, 2), (2,))
    with pytest.raises(ValueError):
        m.x_action().a[0, 1] = 1
    assert m.x_action().a.tolist() == [[0, 0], [1, 0]]
    with pytest.raises(ValueError):
        identity_map(m).matrix.a[0, 1] = 1


def test_map_validation_rejects_non_linear():
    m = RModule(R22, (2,))
    bad = Matrix([[0, 1], [0, 0]], 2)  # sends xe to e: not R-linear
    with pytest.raises(ValueError):
        RModuleMap(m, m, bad)


@pytest.mark.parametrize("ring, diag", [(Ring(3, 2), [1, 4]), (Ring(5, 3), [1, 6, 11])])
def test_map_validation_reads_commutator_mod_p(ring, diag):
    # The check is A X_src - X_tgt A = 0 over F_p, not over the integers:
    # diag(1, 1 + p, ...) given as integers has commutator p * (nonzero).
    m = RModule(ring, (ring.n,))
    a = np.diag(diag)
    x = m.x_action().a
    commutator = a @ x - x @ a
    assert commutator.any() and not (commutator % ring.p).any()
    assert RModuleMap(m, m, Matrix(a, ring.p)).matrix == identity_map(m).matrix
    bad = np.diag([1, 2] + [2] * (ring.n - 2))  # x-coefficients 1 and 2 differ mod p
    with pytest.raises(ValueError, match="not R-linear"):
        RModuleMap(m, m, Matrix(bad, ring.p))


@pytest.mark.parametrize("ring", (R22, Ring(3, 3), Ring(2, 4), Ring(5, 2)), ids=str)
def test_map_validation_agrees_with_the_product_check(ring):
    # every pair of Jordan types with <= 3 blocks: a random matrix, a random
    # combination of the Hom basis, and that combination with one entry changed
    rng = random.Random(ring.p * 59 + ring.n)
    types = [RModule(ring, blocks) for k in range(4)
             for blocks in itertools.combinations_with_replacement(range(1, ring.n + 1), k)]
    verdicts = set()
    for m, nn in itertools.product(types, types):
        combo = sum((rng.randrange(ring.p) * f.matrix.a for f in hom_basis(m, nn)),
                    np.zeros((nn.dim, m.dim), dtype=np.int64)) % ring.p
        changed = combo.copy()
        if changed.size:
            changed.flat[rng.randrange(changed.size)] += rng.randrange(1, ring.p)
        noise = np.array([rng.randrange(ring.p) for _ in range(nn.dim * m.dim)]).reshape(nn.dim, m.dim)
        for a in (noise, combo, changed):
            matrix = Matrix(a, ring.p)
            linear = commutes_with_x(matrix, m, nn)
            try:
                RModuleMap(m, nn, matrix)
                assert linear, (m, nn, a)
            except ValueError as e:
                assert not linear and str(e) == "matrix does not commute with the x-actions (not R-linear)"
            verdicts.add(linear)
    assert verdicts == {True, False}


# -- Jordan canonicalization ------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(modules())
def test_jordan_basis_recovers_canonical_action(m):
    x = m.x_action()
    blocks, J = jordan_basis(x)
    assert blocks == m.blocks
    assert jordan_type_from_ranks(x, m.dim) == m.blocks


@settings(max_examples=60, deadline=None)
@given(modules(), st.randoms(use_true_random=False))
def test_jordan_basis_of_conjugated_action(m, rng):
    # scramble the canonical action by a random invertible matrix
    d = m.dim
    p = m.ring.p
    while True:
        g = Matrix(np.array([[rng.randrange(p) for _ in range(d)] for _ in range(d)],
                            dtype=np.int64).reshape(d, d), p)
        if rank(g) == d:
            break
    ginv = solve(g, Matrix.identity(d, p))
    a = g @ m.x_action() @ ginv
    blocks, J = jordan_basis(a)
    assert blocks == m.blocks
    # a J = J X_canonical
    assert a @ J == J @ m.x_action()
    assert rank(J) == d


# -- Hom --------------------------------------------------------------------


def test_hom_R_R_dimension_two():
    # maps R -> R over (2,2): multiplication by 1 and by x
    R = free_module(R22, 1)
    basis = hom_basis(R, R)
    assert len(basis) == 2


def test_hom_k_into_R_hits_socle():
    k = RModule(R22, (1,))
    R = free_module(R22, 1)
    basis = hom_basis(k, R)
    assert len(basis) == 1
    # the image must land in the socle xR
    assert basis[0].matrix.a[:, 0].tolist() == [0, 1]


def test_hom_into_zero_empty():
    m = RModule(R22, (2, 1))
    assert hom_basis(m, zero_module(R22)) == []


def test_hom_ring_mismatch():
    with pytest.raises(ValueError):
        hom_basis(RModule(R22, (1,)), RModule(R23, (1,)))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_hom_dim_matches_closed_form(data):
    ring = data.draw(rings())
    m = data.draw(modules(ring=ring))
    nn = data.draw(modules(ring=ring))
    basis = hom_basis(m, nn)
    assert len(basis) == hom_dim_closed_form(m, nn)
    # basis maps are independent
    if basis:
        stacked = Matrix(np.column_stack([f.matrix.a.ravel() for f in basis]), ring.p)
        assert rank(stacked) == len(basis)


def reference_hom_basis(m, nn):
    """Hom basis by elimination: the reference for hom_basis's closed form.

    Free source: generator images run over the target basis vectors, the
    generator's column t holding X_nn^t times the image.  Otherwise the
    free-variable basis of the commutation system X_nn F = F X_m.
    """
    ring = m.ring
    p = ring.p
    dm, dn = m.dim, nn.dim
    if dm == 0 or dn == 0:
        return []
    if m.is_free():
        xn = nn.x_action()
        out = []
        for gstart in m.block_starts():
            powers = [Matrix.identity(dn, p)]
            for _ in range(ring.n - 1):
                powers.append(xn @ powers[-1])
            for v in range(dn):
                f = np.zeros((dn, dm), dtype=np.int64)
                for t in range(ring.n):
                    f[:, gstart + t] = powers[t].a[:, v]
                out.append(RModuleMap(m, nn, Matrix(f, p)))
        return out
    xm, xn = m.x_action(), nn.x_action()
    # row-major vec: vec(A F) = (A (x) I) vec(F), vec(F B) = (I (x) B^T) vec(F)
    system = np.kron(xn.a, np.eye(dm, dtype=np.int64)) - np.kron(np.eye(dn, dtype=np.int64), xm.a.T)
    null = kernel_basis(Matrix(system, p))
    return [RModuleMap(m, nn, Matrix(null.a[:, j].reshape(dn, dm), p)) for j in range(null.cols)]


def jordan_types(ring, max_blocks):
    return [RModule(ring, blocks) for k in range(max_blocks + 1)
            for blocks in itertools.combinations_with_replacement(range(ring.n, 0, -1), k)]


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 3), (2, 4), (3, 4), (5, 3), (2, 5)])
def test_hom_basis_equals_elimination_byte_for_byte(p, n):
    # the order is part of the contract: samplers draw from these bases
    ring = Ring(p, n)
    for m in jordan_types(ring, 3):
        for nn in jordan_types(ring, 2):
            got, want = hom_basis(m, nn), reference_hom_basis(m, nn)
            assert len(got) == len(want), (m, nn)
            for f, g in zip(got, want):
                assert f.matrix.a.dtype == g.matrix.a.dtype
                assert f.matrix.a.tobytes() == g.matrix.a.tobytes(), (m, nn)


def test_hom_basis_eliminates_nothing(monkeypatch):
    import tricomplete.linalg as linalg

    def refuse(*args):
        raise AssertionError("hom_basis eliminated")

    monkeypatch.setattr(linalg, "_eliminate", refuse)
    for ring in (R22, Ring(3, 4)):
        for m in jordan_types(ring, 2):
            if not m.is_free():
                for nn in jordan_types(ring, 2):
                    assert len(hom_basis(m, nn)) == hom_dim_closed_form(m, nn)


# -- vector choices against the SpanTracker that made them before ------------


def span_tracker_jordan_basis(a: Matrix) -> tuple[tuple[int, ...], Matrix]:
    """jordan_basis as it chose chain heads before new_columns: each height
    t adds ker(a^(t-1)) and the pushed-down tails to a SpanTracker, then
    keeps the columns of the basis of ker(a^t) that enlarge it."""
    p, d = a.p, a.rows
    if d == 0:
        return (), Matrix.zeros(0, 0, p)
    kernels = [Matrix.zeros(d, 0, p)]
    power = Matrix.identity(d, p)
    while kernels[-1].cols < d:
        power = power @ a
        kernels.append(kernel_basis(power))
    heads = []
    for t in range(len(kernels) - 1, 0, -1):
        span = SpanTracker(d, p)
        span.add_columns(kernels[t - 1])
        for v, h in heads:
            w = v.copy()
            for _ in range(h - t):
                w = (a.a @ w) % p
            span.add(w)
        for j in range(kernels[t].cols):
            v = kernels[t].a[:, j]
            if span.add(v):
                heads.append((v.copy(), t))
    heads.sort(key=lambda vh: -vh[1])
    cols = []
    for v, h in heads:
        w = v.copy()
        for _ in range(h):
            cols.append(w.copy())
            w = (a.a @ w) % p
    return tuple(h for _, h in heads), Matrix(np.column_stack(cols), p)


def span_tracker_quotient_canonicalize(action: Matrix, sub_basis: Matrix, ring: Ring):
    """quotient_canonicalize as it was before new_columns: an RREF basis
    of the subspace, completed by standard vectors through a SpanTracker."""
    d, p = action.rows, ring.p
    R_, rk, _ = rref(sub_basis.T)
    sub = Matrix(R_.a[:rk, :].T, p) if rk else Matrix.zeros(d, 0, p)
    if rk == d:
        return zero_module(ring), Matrix.zeros(0, d, p), Matrix.zeros(d, 0, p)
    span = SpanTracker(d, p)
    span.add_columns(sub)
    comp_cols = []
    for i in range(d):
        e = np.zeros(d, dtype=np.int64)
        e[i] = 1
        if span.add(e):
            comp_cols.append(e)
    C = Matrix(np.column_stack(comp_cols), p)
    T = sub.hstack(C) if sub.cols else C
    P = Matrix(solve(T, Matrix.identity(d, p)).a[rk:], p)
    blocks, J = span_tracker_jordan_basis(P @ action @ C)
    Jinv = solve(J, Matrix.identity(J.rows, p))
    return RModule(ring, blocks), Jinv @ P, C @ J


def span_tracker_stable_hom(m: RModule, nn: RModule) -> tuple[int, list[RModuleMap]]:
    """stable_hom as it was before new_columns: the maps factoring through
    the cover of nn go into a SpanTracker, then each basis map that
    enlarges it is a coset representative."""
    basis = hom_basis(m, nn)
    if not basis:
        return 0, []
    P, cover, _, _ = projective_cover_and_syzygy(nn)
    span = SpanTracker(nn.dim * m.dim, m.ring.p)
    for g in hom_basis(m, P):
        span.add((cover.matrix @ g.matrix).a.ravel())
    reps = [f for f in basis if span.add(f.matrix.a.ravel())]
    return len(reps), reps


def same_bytes(got: Matrix, want: Matrix) -> bool:
    return got.a.dtype == want.a.dtype and got.a.shape == want.a.shape \
        and got.a.tobytes() == want.a.tobytes()


def random_invertible(d: int, p: int, rng) -> Matrix:
    while True:
        g = Matrix(rng.integers(0, p, size=(d, d)), p)
        if rank(g) == d:
            return g


def nilpotent_actions(ring: Ring, rng):
    """Every canonical action with at most 3 blocks, each also scrambled by
    a random invertible matrix, then conjugates of random strictly lower
    triangular matrices of nilpotency index at most n, so their Jordan
    types are modules over ring."""
    for m in jordan_types(ring, 3):
        g = random_invertible(m.dim, ring.p, rng)
        yield m.x_action()
        yield g @ m.x_action() @ solve(g, Matrix.identity(m.dim, ring.p))
    found = 0
    while found < 40:
        d = int(rng.integers(1, 9))
        low = Matrix(np.tril(rng.integers(0, ring.p, size=(d, d)), -1), ring.p)
        low = Matrix(low.a * (rng.random((d, d)) < 0.4), ring.p)
        power = Matrix.identity(d, ring.p)
        for _ in range(ring.n):
            power = power @ low
        if power.is_zero():
            g = random_invertible(d, ring.p, rng)
            found += 1
            yield g @ low @ solve(g, Matrix.identity(d, ring.p))


def stable_spans(a: Matrix, rng):
    """Action-stable column spans with dependent columns: the chains of 0
    to 3 random vectors, and all of the space."""
    d, p = a.rows, a.p
    for k in range(4):
        v = rng.integers(0, p, size=(d, k))
        chain = [v]
        for _ in range(d):
            chain.append((a.a @ chain[-1]) % p)
        yield Matrix(np.hstack(chain), p)
    yield Matrix.identity(d, p)


@pytest.mark.parametrize("p,n", [(2, 2), (3, 3), (2, 4), (3, 4), (5, 3)])
def test_vector_choices_match_the_span_tracker_byte_for_byte(p, n):
    ring = Ring(p, n)
    rng = np.random.default_rng(10 * p + n)
    for a in nilpotent_actions(ring, rng):
        got, want = jordan_basis(a), span_tracker_jordan_basis(a)
        assert got[0] == want[0] and same_bytes(got[1], want[1]), a
        for sub in stable_spans(a, rng):
            got, want = quotient_canonicalize(a, sub, ring), span_tracker_quotient_canonicalize(a, sub, ring)
            assert got[0] == want[0], (a, sub)
            assert same_bytes(got[1], want[1]) and same_bytes(got[2], want[2]), (a, sub)
    # every pair of types with at most 2 blocks, and every 3-block type
    # against every single block, either way round
    for m, nn in itertools.product(jordan_types(ring, 3), repeat=2):
        if len(m.blocks) * len(nn.blocks) > 4:
            continue
        got, want = stable_hom(m, nn), span_tracker_stable_hom(m, nn)
        assert got[0] == want[0], (m, nn)
        assert all(same_bytes(f.matrix, g.matrix) for f, g in zip(got[1], want[1])), (m, nn)


# -- subquotients -----------------------------------------------------------


def test_kernel_of_identity_is_zero():
    m = RModule(R22, (2, 1))
    ker, incl = subquotient(identity_map(m), "kernel")
    assert ker.is_zero()
    assert incl.matrix.cols == 0


def test_cokernel_of_zero_map_is_target():
    m = RModule(R22, (2, 1))
    cok, proj = subquotient(zero_map(zero_module(R22), m), "cokernel")
    assert cok == m
    assert rank(proj.matrix) == m.dim


def test_kernel_of_x_on_R_is_socle():
    R = free_module(R22, 1)
    xmap = RModuleMap(R, R, R.x_action())
    ker, incl = subquotient(xmap, "kernel")
    assert ker == RModule(R22, (1,))
    assert (xmap.matrix @ incl.matrix).is_zero()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_subquotient_dimensions(data):
    ring = data.draw(rings())
    m = data.draw(modules(ring=ring))
    nn = data.draw(modules(ring=ring))
    basis = hom_basis(m, nn)
    if not basis:
        return
    coeffs = data.draw(st.lists(st.integers(0, ring.p - 1),
                                min_size=len(basis), max_size=len(basis)))
    f = zero_map(m, nn)
    for c, b in zip(coeffs, basis):
        f = add(f, RModuleMap(m, nn, b.matrix.scale(c)))
    ker, ki = subquotient(f, "kernel")
    img, ii = subquotient(f, "image")
    cok, cp = subquotient(f, "cokernel")
    assert ker.dim + img.dim == m.dim
    assert img.dim + cok.dim == nn.dim
    assert (f.matrix @ ki.matrix).is_zero()
    assert (cp.matrix @ f.matrix).is_zero()
    assert (cp.matrix @ ii.matrix).is_zero()


@pytest.mark.parametrize("ring", (Ring(2, 2), Ring(3, 3), Ring(2, 4), Ring(5, 2), Ring(3, 4)), ids=str)
def test_cokernels_and_images_read_as_kernels_match_the_quotient_route(ring):
    # cokernels by k-duality (D coker f = ker Df) and images as ker coker f,
    # on a random map for every pair of types with at most 3 blocks: their
    # types equal the complement route's (quotient_canonicalize) and those
    # of rref + subspace_canonicalize; q f = 0, q is onto, and ker q = im f
    rng = random.Random(ring.p * 37 + ring.n)
    seen = {"proper": 0, "zero map": 0}
    for m, nn in itertools.product(jordan_types(ring, 3), repeat=2):
        f = zero_map(m, nn).matrix
        for b in hom_basis(m, nn):
            f = add(f, b.matrix.scale(rng.randrange(ring.p)))
        g = RModuleMap(m, nn, f)
        (cok, q), (img, incl) = subquotient(g, "cokernel"), subquotient(g, "image")
        assert cok == quotient_canonicalize(nn.x_action(), f, ring)[0], (m, nn, f)
        R_, rk, _ = rref(f.T)
        assert img == subspace_canonicalize(nn.x_action(), Matrix(R_.a[:rk, :].T, ring.p), ring)[0], (m, nn, f)
        assert (q.source, q.target, incl.source, incl.target) == (nn, cok, img, nn)
        assert (q.matrix @ f).is_zero() and rank(q.matrix) == cok.dim, (m, nn, f)
        # im f lies in ker q, which has dimension dim nn - rank q; the image's
        # inclusion spans im f
        assert rank(f) == nn.dim - cok.dim == img.dim == rank(f.hstack(incl.matrix)), (m, nn, f)
        seen["proper"] += 0 < img.dim < nn.dim
        seen["zero map"] += f.is_zero() and not m.is_zero() and not nn.is_zero()
    assert seen["proper"] >= 40 and seen["zero map"] >= 1, seen


# -- covers and syzygies ----------------------------------------------------


@pytest.mark.parametrize("ring", (Ring(2, 2), Ring(3, 3), Ring(2, 4), Ring(5, 2)), ids=str)
def test_shift_rows_is_the_power_of_the_x_action(ring):
    # every Jordan type with at most three blocks, the zero module included,
    # on random matrices of 0 to 3 columns, for x^0 up to x^n
    rng = random.Random(ring.p * 41 + ring.n)
    sizes = range(ring.n, 0, -1)
    for blocks in (b for k in range(4) for b in itertools.combinations_with_replacement(sizes, k)):
        m = RModule(ring, blocks)
        for width in range(4):
            M = Matrix([[rng.randrange(ring.p) for _ in range(width)] for _ in range(m.dim)], ring.p) \
                if m.dim else Matrix.zeros(0, width, ring.p)
            rows, power = M.a.tolist(), Matrix.identity(m.dim, ring.p)
            for t in range(ring.n + 1):
                assert shift_rows(rows, m.blocks, t) == (power @ M).a.tolist(), (blocks, width, t)
                power = m.x_action() @ power
            assert rows == M.a.tolist()


def test_free_cover_of_kernels_and_whole_modules():
    # E is an R-map F -> ambient onto W modulo U, and F has one generator
    # per block of W/U.  U is empty, or the image of a random endomorphism
    # h of W in canonical form, carried into the ambient space
    nonzero = 0
    for ring in (R23, Ring(3, 4), Ring(5, 2)):
        rng = random.Random(ring.p * 10 + ring.n)

        def module():
            return RModule(ring, tuple(rng.randint(1, ring.n) for _ in range(rng.randint(0, 3))))

        def combination(m, nn):
            f = Matrix.zeros(nn.dim, m.dim, ring.p)
            for b in hom_basis(m, nn):
                f = add(f, b.matrix.scale(rng.randrange(ring.p)))
            return f

        for _ in range(15):
            m, nn = module(), module()
            f = combination(m, nn)
            action = m.x_action()
            for basis in (kernel_basis(f), Matrix.identity(m.dim, ring.p)):
                W, emb = subspace_canonicalize(action, basis, ring)
                for h in (Matrix.zeros(W.dim, 0, ring.p), combination(W, W)):
                    span = emb @ h
                    F, rows = free_cover(m.blocks, basis.a.tolist(), span.a.tolist(), ring)
                    E = Matrix(np.array(rows, dtype=np.int64).reshape(m.dim, F.dim), ring.p)
                    assert F.is_free()
                    assert action @ E == E @ F.x_action()
                    assert rank(E.hstack(span)) == rank(basis) == rank(E.hstack(span).hstack(basis))
                    assert len(F.blocks) == len(quotient_canonicalize(W.x_action(), h, ring)[0].blocks)
                    nonzero += not span.is_zero()
    assert nonzero >= 20


def test_cover_of_free_module_has_zero_syzygy():
    R = free_module(R22, 1)
    F, cover, syz, incl = projective_cover_and_syzygy(R)
    assert F == R
    assert syz.is_zero()


def test_syzygy_of_k_over_22():
    k = RModule(R22, (1,))
    F, cover, syz, incl = projective_cover_and_syzygy(k)
    assert F == free_module(R22, 1)
    assert syz == k  # kernel of R ->> k is (x) = k
    assert (cover.matrix @ incl.matrix).is_zero()


def test_syzygy_of_length_two_over_23():
    m = RModule(R23, (2,))  # k[x]/(x^2) over (2,3)
    _, _, syz, _ = projective_cover_and_syzygy(m)
    assert syz == RModule(R23, (1,))


@settings(max_examples=50, deadline=None)
@given(modules())
def test_syzygy_matches_closed_form_and_omega_squared(m):
    _, _, syz, _ = projective_cover_and_syzygy(m)
    assert syz.blocks == syzygy_type(m)
    if not m.is_free() and all(j < m.ring.n for j in m.blocks):
        # Omega^2 = identity on types without free blocks
        _, _, syz2, _ = projective_cover_and_syzygy(syz)
        assert syz2.blocks == m.blocks


def test_omega_two_periodic_all_block_sizes_up_to_5():
    for n in range(2, 6):
        ring = Ring(2, n)
        for j in range(1, n):
            m = RModule(ring, (j,))
            assert syzygy_type(m) == (n - j,)
            assert syzygy_type(RModule(ring, (n - j,))) == (j,)


def test_is_free():
    assert free_module(R22, 1).is_free()
    assert not RModule(R22, (1,)).is_free()
    assert not RModule(R22, (2, 1)).is_free()  # R (+) k
    assert zero_module(R22).is_free()  # vacuously
    assert RModule(Ring(5, 1), (1, 1)).is_free()  # field case


def test_resolution_extends_under_deeper_cut():
    from tricomplete.complexes import module_complex, projective_resolution

    for blocks in ((1,), (2, 1), (1, 1)):
        x = module_complex(RModule(R23, blocks), 0)
        shallow = projective_resolution(x, -2)
        deep = projective_resolution(x, -5)
        for i in range(-1, 1):
            assert deep.complex.component(i) == shallow.complex.component(i)
            assert deep.complex.differential(i).matrix == shallow.complex.differential(i).matrix


# -- stable hom ------------------------------------------------------------


def test_stable_hom_from_projective_vanishes():
    R = free_module(R22, 1)
    for blocks in [(), (1,), (2,), (2, 1)]:
        dim, _ = stable_hom(R, RModule(R22, blocks))
        assert dim == 0


def test_stable_hom_k_k_over_22():
    k = RModule(R22, (1,))
    dim, reps = stable_hom(k, k)
    assert dim == 1


def test_stable_hom_field_case_vanishes():
    ring = Ring(2, 1)
    k = free_module(ring, 1)
    dim, _ = stable_hom(k, k)
    assert dim == 0


def test_zero_inputs_give_what_their_general_paths_give():
    # zero modules, empty bases and empty entry lists take each reader's
    # general path, which must return the zero objects pinned here
    for ring in (R22, Ring(3, 3), Ring(5, 2)):
        p = ring.p
        blocks, J = jordan_basis(Matrix.zeros(0, 0, p))
        assert (blocks, J) == ((), Matrix.zeros(0, 0, p)) and J.a.dtype == np.int64
        for rank_ in range(3):
            action = free_module(ring, rank_).x_action()
            mod, emb = subspace_canonicalize(action, Matrix.zeros(action.rows, 0, p), ring)
            assert (mod, emb) == (zero_module(ring), Matrix.zeros(action.rows, 0, p))
        for blocks in ((), (1,), (ring.n,), (ring.n, 1)):
            m = RModule(ring, blocks)
            assert stable_hom(m, zero_module(ring)) == stable_hom(zero_module(ring), m) == (0, [])
        assert Sampler(ring, random.Random(p)).complex(-2, 2, max_blocks=0) == zero_complex(ring)
    for rows, cols in ((0, 0), (2, 0), (0, 3)):
        assert _Parser("")._matrix([], rows, cols, 3, "empty") == Matrix.zeros(rows, cols, 3)
    ws = parse_workspace_text("RING 3 3\nMODULE K 2 1\nCOMPLEX zero\nEND\nCOMPLEX k0\n  AT 0 K\nEND\n"
                              "MAP f zero k0\n  AT 0\nEND\n")
    f = ws.get("map", "f")
    assert f.is_zero() and f.component(0).matrix == Matrix.zeros(3, 0, 3)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_stable_hom_vanishes_when_either_side_free(data):
    ring = data.draw(rings())
    m = data.draw(modules(ring=ring))
    f = free_module(ring, data.draw(st.integers(0, 2)))
    assert stable_hom(f, m)[0] == 0
    assert stable_hom(m, f)[0] == 0


# -- direct sums ------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_direct_sum_structure(data):
    ring = data.draw(rings())
    parts = [data.draw(modules(ring=ring, max_blocks=2)) for _ in range(3)]
    total, injs, projs = direct_sum(parts, ring)
    assert total.dim == sum(p_.dim for p_ in parts)
    assert sorted(total.blocks) == sorted(b for p_ in parts for b in p_.blocks)
    for i, (inj, proj) in enumerate(zip(injs, projs)):
        assert (proj @ inj) == identity_map(parts[i])
        for j2, proj2 in enumerate(projs):
            if j2 != i and not (proj2 @ inj).matrix.is_zero():
                raise AssertionError("cross projection nonzero")


def test_direct_sum_returns_fresh_lists_of_cached_maps():
    from tricomplete.rmodule import _direct_sum

    parts = [RModule(R23, (3, 1)), RModule(R23, (2,)), RModule(R23, ())]
    total, injs, projs = direct_sum(parts, R23)
    injs.clear()
    projs.append(None)
    again, injs2, projs2 = direct_sum(parts, R23)
    assert again == total and len(injs2) == len(projs2) == 3
    assert injs2 is not direct_sum(parts, R23)[1]
    uncached = _direct_sum.__wrapped__(tuple(parts), R23)
    assert (again, injs2, projs2) == (uncached[0], list(uncached[1]), list(uncached[2]))
    # the shared structure maps are read-only
    with pytest.raises(ValueError):
        injs2[0].matrix.a[0, 0] = 1


def test_direct_sum_keys_on_the_ring():
    blocks = (2, 1)
    m2 = direct_sum([RModule(Ring(2, 2), blocks)] * 2, Ring(2, 2))
    m3 = direct_sum([RModule(Ring(3, 2), blocks)] * 2, Ring(3, 2))
    assert m2[0].ring == Ring(2, 2) and m3[0].ring == Ring(3, 2)
    assert [f.matrix.p for f in m2[1] + m2[2]] == [2] * 4
    assert [f.matrix.p for f in m3[1] + m3[2]] == [3] * 4
    assert [f.matrix.a.tolist() for f in m2[1]] == [f.matrix.a.tolist() for f in m3[1]]


def test_zero_module_is_one_instance_per_ring():
    assert zero_module(R22) is zero_module(R22)
    assert zero_module(R22) != zero_module(R23)
    assert zero_module(Ring(3, 2)).ring == Ring(3, 2) and zero_module(Ring(3, 2)).is_zero()


SHARED_RINGS = (Ring(2, 2), Ring(3, 3), Ring(2, 4), Ring(5, 2))


def fresh_zero_map(source, target):
    return RModuleMap(source, target, Matrix(np.zeros((target.dim, source.dim), dtype=np.int64),
                                             source.ring.p))


def fresh_identity_map(m):
    return RModuleMap(m, m, Matrix(np.eye(m.dim, dtype=np.int64), m.ring.p))


def same_map(got: RModuleMap, want: RModuleMap) -> bool:
    return ((got.source, got.target) == (want.source, want.target)
            and got.matrix.p == want.matrix.p
            and got.matrix.a.dtype == want.matrix.a.dtype
            and got.matrix.a.shape == want.matrix.a.shape
            and got.matrix.a.tobytes() == want.matrix.a.tobytes())


def refuses_writes(f: RModuleMap) -> bool:
    if f.matrix.a.size:
        with pytest.raises(ValueError):
            f.matrix.a[0, 0] = 1
    return not f.matrix.a.flags.writeable


@pytest.mark.parametrize("ring", SHARED_RINGS, ids=str)
def test_shared_closed_forms_match_a_fresh_build(ring):
    from tricomplete.rmodule import _hom_basis

    types = jordan_types(ring, 3)
    for r in range(4):
        free = free_module(ring, r)
        assert free == RModule(ring, (ring.n,) * r) and free is free_module(ring, r)
    for m in types:
        ident = identity_map(m)
        assert same_map(ident, fresh_identity_map(m)) and refuses_writes(ident)
        assert identity_map(m) is ident
        for nn in types:
            zero = zero_map(m, nn)
            assert same_map(zero, fresh_zero_map(m, nn)) and refuses_writes(zero)
            assert zero_map(m, nn) is zero
            basis = hom_basis(m, nn)
            want = _hom_basis.__wrapped__(m, nn)  # the closed form, built afresh
            assert len(basis) == len(want) == hom_dim_closed_form(m, nn), (m, nn)
            assert all(same_map(f, g) and refuses_writes(f) for f, g in zip(basis, want)), (m, nn)
            # a fresh list of the same shared maps on every call
            again = hom_basis(m, nn)
            assert again is not basis and all(f is g for f, g in zip(again, basis))
            basis.clear()
            assert len(hom_basis(m, nn)) == len(want)


def test_shared_closed_forms_still_refuse_a_ring_mismatch():
    a, b = RModule(R22, (1,)), RModule(R23, (1,))
    hom_basis(a, a), zero_map(a, a)  # cached on R22
    for call in (lambda: hom_basis(a, b), lambda: hom_basis(b, a), lambda: zero_map(a, b),
                 lambda: direct_sum([a, b], R22)):
        with pytest.raises(ValueError):
            call()


def test_omega_power_matches_iterated_syzygies():
    # every Jordan type with <= 3 blocks: zero, free, mixed and free-free
    for p, n in ((2, 2), (3, 3), (2, 4), (5, 3)):
        ring = Ring(p, n)
        for r in range(4):
            for blocks in itertools.combinations_with_replacement(range(n, 0, -1), r):
                m = RModule(ring, blocks)
                it = m
                for t in range(13):
                    assert omega_power(m, t) == it, (p, n, blocks, t)
                    it = RModule(ring, syzygy_type(it))
