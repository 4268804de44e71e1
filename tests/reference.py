"""Operations that only the tests perform: sums and negatives of maps
and matrices, direct sums of complexes with their injection and
projection chain maps, the homotopy pushout square built from them (the
oracle of the cartesian check's block ranks), composites along a tower,
amplitudes, shifted ball families, the separating stalks of an
equivalence report, the numpy window build that the int-row build is checked against, a resolution
built by an independent elimination, the periodic tail below a given
embedding as a generator, the eagerly spliced resolution that bands are
read against, derived Hom through the Hom complex for every target, the
cut syzygy's type by a Jordan profile of the cut kernel, quotients
canonicalized by a complement of the subspace (the route cokernels took
before they became kernels of the dual), H^i in canonical bases on it,
the maps it induces and whether an R-map is an isomorphism (the oracles
of the rank-profile cohomology and of induces_iso), R-linearity by the
products with the x-actions, and an exhaustive set of small complexes.  The library, its
CLI and its benchmark never perform them; the tests build inputs and
references with them."""

from itertools import combinations_with_replacement, product

import numpy as np

from tricomplete.complexes import (
    ChainMap,
    Complex,
    PreconditionError,
    _build_free_approximation,
    _composite,
    _sum_complex,
    cone,
    hom_complex,
    identity_chain_map,
    module_complex,
    projective_resolution,
)
from tricomplete.linalg import Matrix, kernel_basis, new_columns, rank, solve
from tricomplete.metric import GoodMetric
from tricomplete.rmodule import (
    RModule,
    RModuleMap,
    _chains,
    _tail_stage,
    cover_matrix,
    direct_sum,
    free_cover,
    free_module,
    hom_basis,
    jordan_basis,
    subspace_canonicalize,
    syzygy_type,
    zero_map,
    zero_module,
)


def add(f, g):
    """f + g, for two chain maps, two R-module maps with the same ends, or
    two matrices of one shape over one field."""
    if isinstance(f, ChainMap):
        if (g.source, g.target) != (f.source, f.target):
            raise PreconditionError("chain maps not addable")
        degs = set(g._components) | set(f._components)
        return ChainMap(f.source, f.target, {i: add(f.component(i), g.component(i)) for i in degs})
    if isinstance(f, Matrix):
        if f.p != g.p or f.a.shape != g.a.shape:
            raise ValueError("matrices not addable")
        return Matrix(f.a + g.a, f.p)
    if (g.source, g.target) != (f.source, f.target):
        raise ValueError("maps not addable")
    return RModuleMap(f.source, f.target, add(f.matrix, g.matrix))


def neg(f):
    """-f, for a chain map or an R-module map."""
    if isinstance(f, ChainMap):
        return ChainMap(f.source, f.target, {i: neg(c) for i, c in f._components.items()})
    return RModuleMap(f.source, f.target, -f.matrix)


def direct_sum_complex(parts, ring):
    """Degreewise direct sum with its injection chain maps."""
    total, injs, _ = _sum_complex(parts, ring)
    return total, [ChainMap(x, total, {i: injs[i][k] for i in x.degrees}) for k, x in enumerate(parts)]


def sum_projections(total, parts):
    """Projection chain maps total -> parts[k] of direct_sum_complex(parts),
    which returns only injections: degreewise, direct_sum's projections."""
    return [ChainMap(total, x, {i: direct_sum([y.component(i) for y in parts], total.ring)[2][k]
                                for i in x.degrees})
            for k, x in enumerate(parts)]


def homotopy_pushout(f, h):
    """The square on B <-f- A -h-> C: u = (-f, h) : A -> B (+) C and the
    induced g : C -> D into its cone D = cone(u).z, built from the
    direct-sum structure maps: u^i = iota_C h^i - iota_B f^i and
    g^i = iota^i iota_C^i with iota the cone's injection of B (+) C.  The
    oracle of pushout_cone_support, which builds none of them."""
    if f.source != h.source:
        raise PreconditionError("maps do not share a source")
    a, ring = f.source, f.source.ring
    bc, injs, _ = _sum_complex([f.target, h.target], ring)
    comps = {}
    for i in f._components.keys() | h._components.keys():
        arr = _composite(injs[i][1], h._components.get(i)) - _composite(injs[i][0], f._components.get(i))
        comps[i] = RModuleMap._trusted(a.component(i), bc.component(i), Matrix(arr, ring.p))
    u = ChainMap._trusted(a, bc, comps)
    tri = cone(u)
    g = ChainMap._trusted(h.target, tri.z, {i: tri._injs[i][1] @ injs[i][1] for i in h.target.degrees})
    return u, g


def composite(tower, i, j):
    """The composite X_i -> X_j of a tower's connecting maps."""
    acc = identity_chain_map(tower.complex_at(i))
    for k in range(i, j):
        acc = tower.map_at(k) @ acc
    return acc


def amplitude(x):
    """max degree - min degree of a complex's nonzero components; 0 for 0."""
    return 0 if x.is_zero() else x.max_degree - x.min_degree


def shifted_family(m, t):
    """The family {T^t B_n}: the effective endpoints translated by -t."""
    raw = t if m.dual else -t
    return GoodMetric("T^%d(%s)" % (t, m.name),
                      [(p[0],) + tuple(e + raw for e in p[1:]) for p in m.pieces], dual=m.dual)


def separating_complexes(report, ring):
    """The separating family of an EquivalenceReport: simple stalks k at the
    recorded degrees (arbitrarily short in one metric, long in the other)."""
    k = RModule(ring, (1,))
    return [(mm, module_complex(k, deg)) for _, mm, deg in report.separating]


# -- a resolution built by another algorithm ------------------------------------


def numpy_free_cover(action, basis, span, ring):
    """free_cover as the library computed it on numpy arrays, from the
    x-action matrix: the heads are the columns of basis new beside those of
    action @ basis and span, and E holds the chains action^t of each head,
    column k*n + t.  Returns (F, E) with E a Matrix."""
    heads = new_columns((action @ basis).hstack(span), basis)
    E = _chains(action, basis.a[:, heads], ring.n)
    return free_module(ring, len(heads)), Matrix(E, ring.p)


def numpy_free_approximation(x, depth):
    """_build_free_approximation as the library computed it before its
    window build ran on int rows: the same pullbacks and covers, assembled
    with numpy arrays and numpy_free_cover.  Returns (ranks, diffs, eps)."""
    ring = x.ring
    p, n = ring.p, ring.n
    top = x.max_degree
    empty = np.zeros((0, 0), dtype=np.int64)
    ranks, diffs, eps = {top + 1: 0}, {top + 1: empty}, {top + 1: empty}
    for i in range(top, depth - 1, -1):
        comp = x.component(i)
        (rows, da), below = diffs[i + 1].shape, eps[i + 1].shape[0]
        system = np.zeros((rows + below, da + comp.dim), dtype=np.int64)
        system[:rows, :da] = diffs[i + 1]
        system[rows:, :da] = eps[i + 1]
        system[rows:, da:] = -x.differential(i).matrix.a
        pullback = kernel_basis(Matrix(system, p))
        action = RModule(ring, (n,) * ranks[i + 1] + comp.blocks).x_action()  # free blocks sort first
        dx = x.differential(i - 1).matrix
        boundaries = Matrix(np.vstack([np.zeros((da, dx.cols), dtype=np.int64), dx.a]), p)
        F, E = numpy_free_cover(action, pullback, boundaries, ring)
        ranks[i] = len(F.blocks)
        diffs[i] = E.a[:da, :]
        eps[i] = E.a[da:, :]
        if not ranks[i] and i <= x.min_degree:
            break
    return ranks, diffs, eps


def full_pullback_cover(x, depth):
    """The free approximation of x above depth that the library built
    before it built its window minimal.  Returns (ranks, diffs, eps) as
    _build_free_approximation does.

    Top down, F^i covers all of W_i = { (u, v) in ker d^(i+1) x X^i :
    eps(u) = d_X(v) } modulo xW_i, so the comparison is degreewise
    surjective.  The generators that cover the boundaries (0, d_X v') pair
    off as contractible summands R -> R at unit entries of the
    differentials, which split_unit_entries removes."""
    ring = x.ring
    p, n = ring.p, ring.n
    top = x.max_degree
    empty = np.zeros((0, 0), dtype=np.int64)
    ranks, diffs, eps = {top + 1: 0}, {top + 1: empty}, {top + 1: empty}
    for i in range(top, depth - 1, -1):
        da = ranks[i + 1] * n
        comp = x.component(i)
        K = kernel_basis(Matrix(diffs[i + 1], p))
        null = kernel_basis((Matrix(eps[i + 1], p) @ K).hstack(-x.differential(i).matrix))
        u_part = K @ Matrix(null.a[:K.cols, :], p)
        v_part = Matrix(null.a[K.cols:, :], p)
        whole = Matrix(np.vstack([u_part.a, v_part.a]), p)
        F, rows = free_cover((n,) * ranks[i + 1] + comp.blocks, whole.a.tolist(), [[]] * whole.rows, ring)
        E = Matrix(np.array(rows, dtype=np.int64).reshape(whole.rows, F.dim), p)
        ranks[i] = len(F.blocks)
        diffs[i] = E.a[:da, :]
        eps[i] = E.a[da:, :]
        if not ranks[i] and i <= x.min_degree:
            break
    return ranks, diffs, eps


def split_unit_entries(ranks, diffs, eps, ring):
    """Split off contractible R -> R summands at unit entries of the
    differentials, adjusting neighbours and the comparison map.

    Degrees go up from the lowest; within d^i the split is at the first
    block (r, c), in row-major order, whose n x n block u has a unit
    constant term.  Clearing row r and column c of d^i by base changes and
    dropping the pair is one Schur complement:
      d^i   <- d^i[~r, ~c] - d^i[~r, c] u^-1 d^i[r, ~c],
      eps^i <- eps^i[:, ~c] - eps^i[:, c] u^-1 d^i[r, ~c].
    The base change of F^i changes only row c of d^(i-1); afterwards row r
    of d^i is u e_c, so d^i d^(i-1) = 0 makes row c zero and d^(i-1) just
    loses the rows of c.  Dually d^(i+1) and eps^(i+1) just lose the
    columns of r.  Deleting zero rows creates no unit, so the degrees below
    i stay minimal.
    """
    n, p = ring.n, ring.p
    for i in sorted(diffs):
        while True:
            d = diffs[i]
            units = np.argwhere(d[::n, ::n] % p)
            if units.size == 0:
                break
            r, c = (int(v) for v in units[0])
            r_blk, c_blk = np.arange(r * n, (r + 1) * n), np.arange(c * n, (c + 1) * n)
            keep_r = np.delete(np.arange(d.shape[0]), r_blk)
            keep_c = np.delete(np.arange(d.shape[1]), c_blk)
            t = solve(Matrix(d[np.ix_(r_blk, c_blk)], p), Matrix(d[np.ix_(r_blk, keep_c)], p)).a
            diffs[i] = (d[np.ix_(keep_r, keep_c)] - d[np.ix_(keep_r, c_blk)] @ t) % p
            eps[i] = (eps[i][:, keep_c] - eps[i][:, c_blk] @ t) % p
            if i - 1 in diffs:
                diffs[i - 1] = np.delete(diffs[i - 1], c_blk, axis=0)
            diffs[i + 1] = np.delete(diffs[i + 1], r_blk, axis=1)
            eps[i + 1] = np.delete(eps[i + 1], r_blk, axis=1)
            ranks[i] -= 1
            ranks[i + 1] -= 1
    return ranks, diffs, eps


def periodic_tail(m, embedding):
    """The minimal free resolution below a submodule m of a free F_0, in
    closed form: for t = 1, 2, ... yields (rank F_t, d_t, Omega^t m), where
    F_t covers Omega^(t-1) m, d_t : F_t -> F_(t-1) is that cover followed
    by the embedding of Omega^(t-1) m in F_(t-1) (the given one for t = 1,
    syzygy_embedding after it), and Omega^t m = ker d_t.  Blocks x^j and
    x^(n-j) alternate; nothing is eliminated.  Every stage after the first
    is read from _tail_stage, so its d_t is shared and refuses writes."""
    omega = RModule(m.ring, syzygy_type(m))
    yield len(m.blocks), embedding @ cover_matrix(m), omega
    while True:
        rank_t, d, m, omega = _tail_stage(m)
        yield rank_t, d, omega


def eager_splice(x, depth):
    """The resolution of x down to depth as the library held it before its
    bands read the window lazily: the window's arrays, the cut kernel in
    canonical form with its embedding, and every tail array from cut-1 down
    to depth spliced through periodic_tail.  Returns (ranks, diffs, eps,
    syzygy), the syzygy ker d^depth with free summands stripped."""
    ring, cut = x.ring, x.min_degree - 1
    ranks, diffs, eps = _build_free_approximation(x, cut)
    syz, emb = zero_module(ring), Matrix.zeros(0, 0, ring.p)
    if ranks.get(cut, 0):
        kernel = kernel_basis(Matrix(diffs[cut], ring.p))
        syz, emb = subspace_canonicalize(free_module(ring, ranks[cut]).x_action(), kernel, ring)
    if not syz.is_zero():
        tail = periodic_tail(syz, emb)
        for i in range(cut - 1, depth - 1, -1):
            ranks[i], d, syz = next(tail)
            diffs[i] = d.a
    return ranks, diffs, eps, syz


def eager_band(ring, ranks, diffs, lo, hi):
    """The brutal truncation to [lo, hi] of an eager_splice, validated."""
    comps = {i: free_module(ring, r) for i, r in ranks.items() if r and lo <= i <= hi}
    maps = {i: RModuleMap(comps[i], comps[i + 1], Matrix(d, ring.p))
            for i, d in diffs.items() if i in comps and i + 1 in comps}
    return Complex(ring, comps, maps)


def hom_complex_derived_hom(a, b, d):
    """derived_hom(a, b, d) the way the library computed it for every b
    before a stalk of k^m read a Betti number: H^0 of Hom(P, T^d b) =
    dim Hom^d - rk delta^d - rk delta^(d-1), out of the band of a's
    resolution P in degrees [b.min - d - 1, b.max - d + 1]."""
    if a.is_zero() or b.is_zero():
        return 0
    lo, hi = b.min_degree - d - 1, b.max_degree - d + 1
    pc = projective_resolution(a, min(a.min_degree - 1, lo)).band(lo, hi)
    _, dd = hom_complex(pc, b, d)
    _, dm1 = hom_complex(pc, b, d - 1)
    return dd.cols - rank(dd) - rank(dm1)


# -- quotients and H^i in canonical bases ---------------------------------------------


def quotient_canonicalize(action, sub_basis, ring):
    """Canonicalize the quotient of a coordinate space by a stable span.

    Returns (Q, proj, section): proj maps ambient coordinates onto the
    canonical coordinates of Q, section is a linear (not R-linear) right
    inverse picking representatives.  sub_basis columns may be dependent.

    The pivots of one rref([sub_basis | I]) pick the independent columns
    of sub_basis and then the standard vectors that complete them to a
    basis T; the quotient coordinates are the complement's rows of T^-1,
    the projection along span(sub_basis) whichever of its bases T holds.
    """
    d, p = action.rows, ring.p
    both = sub_basis.hstack(Matrix.identity(d, p))
    picked = new_columns(Matrix.zeros(d, 0, p), both)
    rk = sum(c < sub_basis.cols for c in picked)
    if rk == d:
        return zero_module(ring), Matrix.zeros(0, d, p), Matrix.zeros(d, 0, p)
    T = Matrix(both.a[:, picked], p)
    C = Matrix(T.a[:, rk:], p)
    Tinv = solve(T, Matrix.identity(d, p))
    assert Tinv is not None
    P = Matrix(Tinv.a[rk:], p)  # ambient coords -> quotient coords
    induced = P @ action @ C
    blocks, J = jordan_basis(induced)
    Jinv = solve(J, Matrix.identity(J.rows, p))
    assert Jinv is not None
    return RModule(ring, blocks), Jinv @ P, C @ J


def canonical_cohomology(x, i):
    """H^i with canonical bases, as cohomology_data built it before it read
    the type off a rank profile: (module, cycles, to_classes, lift), with
    cycles a kernel basis of d^i, to_classes from cycle coordinates onto
    the module's canonical coordinates, and lift from those back to
    representatives in X^i."""
    ring, comp = x.ring, x.component(i)
    cycles = kernel_basis(x.differential(i).matrix)
    if cycles.cols == 0:
        return zero_module(ring), cycles, Matrix.zeros(0, 0, ring.p), Matrix.zeros(comp.dim, 0, ring.p)
    action = solve(cycles, comp.x_action() @ cycles)
    boundaries = solve(cycles, x.differential(i - 1).matrix)
    module, proj, section = quotient_canonicalize(action, boundaries, ring)
    return module, cycles, proj, cycles @ section


def cohomology_map(f, i, src=None, tgt=None):
    """The induced map H^i(f) in the bases of canonical_cohomology, which
    src and tgt may pass in: the oracle of induces_iso."""
    a, _, _, lift = src or canonical_cohomology(f.source, i)
    b, cycles, to_classes, _ = tgt or canonical_cohomology(f.target, i)
    if a.is_zero() or b.is_zero():
        return zero_map(a, b)
    coords = solve(cycles, f.component(i).matrix @ lift)
    assert coords is not None  # chain maps send cycles to cycles
    return RModuleMap(a, b, to_classes @ coords)


def is_isomorphism(f):
    """Whether the R-map f is an isomorphism: equal types and full rank."""
    return f.source.blocks == f.target.blocks and rank(f.matrix) == f.source.dim


# -- oracles of the cut syzygy and of R-linearity -------------------------------------


def subspace_type(action, basis, ring):
    """What subspace_canonicalize returns for the span W of the independent
    columns B of basis under the action A, less the Jordan basis: the cut
    syzygy's type as the window read it off kernel_basis(d^cut).  x^t W is
    spanned by the columns of A^s B for s >= t, so the pivots of
    one elimination of [A^(n-1) B | ... | A B] in its first n - t groups
    count dim x^t W, and dim x^t W - dim x^(t+1) W blocks have size > t."""
    d, n, k = action.rows, ring.n, basis.cols
    if k == 0:
        return zero_module(ring)
    powers = _chains(action, basis.a, n).reshape(d, k, n)[:, :, :0:-1].transpose(0, 2, 1)
    picked = new_columns(Matrix.zeros(d, 0, ring.p), Matrix(powers.reshape(d, (n - 1) * k), ring.p))
    dims = [k] + [sum(c < (n - t) * k for c in picked) for t in range(1, n)] + [0]
    taller = [dims[t] - dims[t + 1] for t in range(n)]  # blocks of size > t
    return RModule(ring, tuple(sum(c >= j for c in taller) for j in range(1, taller[0] + 1)))


def commutes_with_x(matrix, source, target):
    """RModuleMap's R-linearity check as two dense products: a X_source =
    X_target a."""
    a = matrix.a
    return not np.any((a @ source.x_action().a - target.x_action().a @ a) % matrix.p)


# -- an exhaustive small world ----------------------------------------------------


def small_modules(ring, max_dim):
    """Every R-module of dimension <= max_dim, by Jordan type, 0 included."""
    return [RModule(ring, blocks) for k in range(max_dim + 1)
            for blocks in combinations_with_replacement(range(1, ring.n + 1), k)
            if sum(blocks) <= max_dim]


def two_term_complexes(ring, max_dim=2):
    """Every complex X^0 -> X^1 whose components have dimension <= max_dim,
    as component types times differentials, not up to isomorphism: each
    differential is one F_p-combination of the hom_basis maps.  Over
    F_2[x]/(x^2) and F_3[x]/(x^2) with max_dim 2 there are 49 and 142."""
    mods = small_modules(ring, max_dim)
    for a, b in product(mods, mods):
        basis = [f.matrix.a for f in hom_basis(a, b)]
        for coeffs in product(range(ring.p), repeat=len(basis)):
            d = sum((c * f for c, f in zip(coeffs, basis)), np.zeros((b.dim, a.dim), dtype=np.int64))
            yield Complex(ring, {0: a, 1: b}, {0: RModuleMap(a, b, Matrix(d, ring.p))})
