"""One resolution per complex: the cached window, the closed-form periodic
tail spliced below it, TruncationTail as the module case of that tail, and
stable Hom by formula, each checked against an elimination-based
reference."""

import functools
import random
from itertools import combinations_with_replacement, product

import numpy as np
import pytest

from tricomplete import complexes, linalg, rmodule
from tricomplete.cauchy import TruncationTail
from tricomplete.completion import (
    has_bounded_injective_resolution,
    is_perfect,
    sing_hom,
    syzygy_class,
)
from tricomplete.complexes import (
    Complex,
    _build_free_approximation,
    _minimize_free_complex,
    cone,
    derived_hom,
    hom_complex,
    identity_chain_map,
    module_complex,
    projective_resolution,
    shift,
)
from tricomplete.linalg import Matrix, kernel_basis, rank
from tricomplete.randomgen import Sampler
from tricomplete.rmodule import (
    RModule,
    RModuleMap,
    Ring,
    cover_matrix,
    free_module,
    hom_basis,
    omega_power,
    periodic_tail,
    projective_cover_and_syzygy,
    stable_hom,
    stable_hom_dim,
    subspace_canonicalize,
    syzygy_embedding,
    syzygy_type,
    zero_module,
)

from reference import amplitude, direct_sum_complex

SPLICE_RINGS = (Ring(2, 2), Ring(3, 3), Ring(3, 4), Ring(5, 3))
FORMULA_RINGS = (Ring(2, 2), Ring(3, 3), Ring(2, 4), Ring(3, 4), Ring(5, 3), Ring(2, 5))


def jordan_types(ring, max_blocks):
    for k in range(max_blocks + 1):
        yield from combinations_with_replacement(range(1, ring.n + 1), k)


# -- TruncationTail against the cover/kernel chain ---------------------------------


def reference_truncation(m: RModule, k: int) -> Complex:
    """The chain TruncationTail used before the closed form: per stage a
    projective cover of Omega^t M, its kernel canonicalized by elimination,
    and d : F_t ->> Omega^t M >-> F_(t-1)."""
    frees, covers, incls, omega = [], [], [], m
    for _ in range(k + 1):
        free, cover, omega, incl = projective_cover_and_syzygy(omega)
        frees.append(free)
        covers.append(cover)
        incls.append(incl)
    comps = {-t: frees[t] for t in range(k + 1) if not frees[t].is_zero()}
    diffs = {-t: incls[t - 1] @ covers[t] for t in range(1, k + 1)
             if not frees[t].is_zero() and not frees[t - 1].is_zero()}
    return Complex(m.ring, comps, diffs)


@pytest.mark.parametrize("ring", SPLICE_RINGS, ids=str)
def test_truncation_tail_matches_cover_kernel_chain(ring):
    for blocks in jordan_types(ring, 3):
        m = RModule(ring, blocks)
        tail = TruncationTail(m)
        for k in range(6):
            x = tail.complex_at(k)
            ref = reference_truncation(m, k)
            assert x == ref, (m, k)
            for t in range(k + 1):
                assert np.array_equal(x.differential(-t).matrix.a, ref.differential(-t).matrix.a)
        # ranks follow the closed-form syzygies
        omega = m
        for t in range(6):
            assert len(omega_power(m, t).blocks) == len(omega.blocks), (m, t)
            assert x.component(-t) == free_module(ring, len(omega.blocks))
            omega = RModule(ring, syzygy_type(omega))


def test_truncation_tail_block_permutation():
    # Omega of type (3, 2, 1) over F_3[x]/(x^4) is (3, 2, 1) again, listed
    # in reverse: generator l of F_1 goes to x^j e_s with (l, s, j) below
    ring = Ring(3, 4)
    d = TruncationTail(RModule(ring, (3, 2, 1))).complex_at(1).differential(-1).matrix.a
    want = np.zeros((12, 12), dtype=np.int64)
    for l, (s, j) in enumerate([(2, 1), (1, 2), (0, 3)]):
        for t in range(4 - j):
            want[4 * s + j + t, 4 * l + t] = 1
    assert np.array_equal(d, want)


# -- the splice against a direct build at the same depth ---------------------------


def kernel_module(ranks: dict[int, int], diffs: dict[int, np.ndarray], i: int, ring: Ring):
    """ker d^i in canonical form with its embedding in F^i = R^ranks[i]."""
    if not ranks.get(i, 0):
        return zero_module(ring), Matrix.zeros(0, 0, ring.p)
    kernel = kernel_basis(Matrix(diffs[i], ring.p))
    return subspace_canonicalize(free_module(ring, ranks[i]).x_action(), kernel, ring)


def direct_resolution(x: Complex, depth: int):
    """Build and minimize down to depth in one elimination pass, as every
    cut was resolved before the window was cached."""
    ranks, diffs, _ = _minimize_free_complex(*_build_free_approximation(x, depth), x.ring)
    ranks = {i: r for i, r in ranks.items() if r}
    syz = kernel_module(ranks, diffs, depth, x.ring)[0].strip_free()
    comps = {i: free_module(x.ring, r) for i, r in ranks.items()}
    maps = {i: RModuleMap(comps[i], comps[i + 1], Matrix(d, x.ring.p))
            for i, d in diffs.items() if d.size}
    return Complex(x.ring, comps, maps), syz


def hom_h0(free: Complex, b: Complex, d: int) -> int:
    """H^0 of Hom(free, T^d b): the count derived_hom takes."""
    tb = shift(b, d)
    _, d0 = hom_complex(free, tb, 0)
    _, dm1 = hom_complex(free, tb, -1)
    return d0.cols - rank(d0) - rank(dm1)


def splice_samples(ring, seed, count=6):
    s = Sampler(ring, random.Random(seed))
    contractible = cone(identity_chain_map(s.complex(-1, 0, max_blocks=2))).z
    out = []
    while len(out) < count:
        x = s.complex(-1, 1, max_blocks=2)
        if x.is_zero():
            continue
        if len(out) % 2:
            x, _ = direct_sum_complex([x, contractible], ring)
        out.append(x)
    return out


@pytest.mark.parametrize("ring", SPLICE_RINGS, ids=str)
def test_spliced_resolution_matches_direct_build(ring):
    k = module_complex(RModule(ring, (1,)), 0)
    nonperfect = 0
    for x in splice_samples(ring, seed=ring.p * 10 + ring.n):
        nonperfect += not is_perfect(x)
        probe = Sampler(ring, random.Random(ring.n)).complex(-1, 1, max_blocks=1)
        for depth in range(x.min_degree - 1, x.min_degree - 6, -1):
            res = projective_resolution(x, depth)
            free, syz = direct_resolution(x, depth)
            assert res.complex.degrees == free.degrees, (x, depth)
            for i in free.degrees:
                assert res.complex.component(i) == free.component(i), (x, depth, i)
            assert res.syzygy == syz, (x, depth)
            for b in (k, probe):
                if b.is_zero():
                    continue
                d = b.min_degree - depth - 2
                assert hom_h0(res.complex, b, d) == hom_h0(free, b, d), (x, b, depth)
        # with T^d b sitting high, derived_hom still cuts at min-1: the window
        for d in range(k.min_degree - x.min_degree - 4, k.min_degree - x.min_degree - 1):
            assert derived_hom(x, k, d) == hom_h0(direct_resolution(x, x.min_degree - 1)[0], k, d)
    assert nonperfect >= 2


def test_spliced_resolution_is_minimal_and_exact_below_the_cut():
    for ring in SPLICE_RINGS:
        for x in splice_samples(ring, seed=ring.p + ring.n, count=4):
            res = projective_resolution(x, x.min_degree - 5)
            for i in range(x.min_degree - 5, x.min_degree):
                f = res.complex._diffs.get(i)
                if f is not None:
                    assert not (f.matrix.a[::ring.n, ::ring.n] % ring.p).any()
                h = complexes.cohomology(res.complex, i)
                assert h.is_zero() or i == x.min_degree - 5, (x, i, h)


def test_second_resolution_of_a_complex_does_no_elimination(monkeypatch):
    ring = Ring(3, 4)
    x = splice_samples(ring, seed=5, count=2)[1]
    calls = {"build": 0, "kernel": 0, "rref": 0, "jordan": 0}
    # the window's cut kernel is the one subspace_canonicalize in complexes
    build, kernel = complexes._build_free_approximation, complexes.subspace_canonicalize
    rref, jordan = linalg.rref, rmodule.jordan_basis

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(complexes, "_build_free_approximation", counting("build", build))
    monkeypatch.setattr(complexes, "subspace_canonicalize", counting("kernel", kernel))
    first = syzygy_class(x)
    assert calls["build"] == 1 and calls["kernel"] == 1 and not first.is_zero()
    # every derived_hom out of x reads the window or its tail, however high
    # T^d b sits; only the Hom complex is eliminated
    k = module_complex(RModule(ring, (1,)), 0)
    for d in range(-x.min_degree - 6, -x.min_degree + 2):
        derived_hom(x, k, d)
    assert calls["build"] == 1 and calls["kernel"] == 1
    monkeypatch.setattr(linalg, "rref", counting("rref", rref))
    monkeypatch.setattr(rmodule, "rref", counting("rref", rref))
    monkeypatch.setattr(rmodule, "jordan_basis", counting("jordan", jordan))
    assert syzygy_class(x) == first
    assert is_perfect(x) == first.is_zero()
    for depth in range(x.min_degree - 1, x.min_degree - 6, -1):
        projective_resolution(x, depth)
    assert calls == {"build": 1, "kernel": 1, "rref": 0, "jordan": 0}


def test_syzygy_read_of_a_resolved_complex_builds_nothing(count_calls):
    built = count_calls(complexes.Complex, complexes.ChainMap, RModuleMap)
    for ring in SPLICE_RINGS:
        for x in splice_samples(ring, seed=ring.p * 7 + ring.n, count=4):
            first = syzygy_class(x)
            built.clear()
            assert syzygy_class(x) == first
            assert is_perfect(x) == first.is_zero()
            for depth in range(x.min_degree - 1, x.min_degree - 4, -1):
                assert projective_resolution(x, depth).syzygy.is_zero() == first.is_zero()
            assert not built, (ring, x)


def test_inj_boundedness_of_a_resolved_complex_eliminates_nothing(monkeypatch):
    # R is self-injective, so inj-boundedness is perfection: it reads the
    # window is_perfect cached and resolves no dual
    builds = []
    build = complexes._build_free_approximation
    monkeypatch.setattr(complexes, "_build_free_approximation",
                        lambda x, depth: builds.append(x) or build(x, depth))
    for ring in SPLICE_RINGS:
        for x in splice_samples(ring, seed=ring.p * 13 + ring.n, count=4):
            perfect = is_perfect(x)
            before = len(builds)
            assert has_bounded_injective_resolution(x) == perfect
            assert len(builds) == before, (ring, x)
    assert builds


def test_a_second_derived_hom_builds_no_hom_basis_maps(count_calls, rebind):
    # Hom bases depend only on Jordan types: a fresh complex with the types
    # of one already read reads the maps that first derived_hom built
    built = count_calls(RModuleMap)
    in_bases = []

    def counting_hom_basis(m, nn):
        before = built["RModuleMap"]
        basis = hom_basis(m, nn)
        in_bases.append(built["RModuleMap"] - before)
        return basis

    rebind(hom_basis, counting_hom_basis)
    first_builds = 0
    for ring in SPLICE_RINGS:
        k = module_complex(RModule(ring, (1,)))
        for x in splice_samples(ring, seed=ring.p * 11 + ring.n, count=4):
            for d in (-1, 0, 1, 2):
                in_bases.clear()
                first = derived_hom(x, k, d)
                asked, first_builds = len(in_bases), first_builds + sum(in_bases)
                fresh = Complex(ring, {i: x.component(i) for i in x.degrees},
                                {i: x.differential(i) for i in x.degrees})
                in_bases.clear()
                assert derived_hom(fresh, k, d) == first
                assert in_bases == [0] * asked, (ring, x, d)
    assert first_builds


# -- the periodic tail, one stage per syzygy type ------------------------------------


def fresh_tail(m: RModule, embedding: Matrix):
    """periodic_tail's recurrence with no memo: every stage rebuilt from
    cover_matrix and syzygy_embedding."""
    while True:
        rank_t, cover = len(m.blocks), cover_matrix(m)
        m, next_embedding = syzygy_embedding(m)
        yield rank_t, embedding @ cover, m
        embedding = next_embedding


@pytest.mark.parametrize("ring", SPLICE_RINGS, ids=str)
def test_periodic_tail_matches_a_fresh_recurrence(ring):
    for blocks in jordan_types(ring, 3):
        m = RModule(ring, blocks)
        tail, ref = periodic_tail(*syzygy_embedding(m)), fresh_tail(*syzygy_embedding(m))
        for t in range(1, 7):
            (rank_t, d, omega), (ref_rank, ref_d, ref_omega) = next(tail), next(ref)
            assert (rank_t, omega) == (ref_rank, ref_omega), (m, t)
            assert d.p == ref_d.p and d.a.dtype == ref_d.a.dtype and d.a.shape == ref_d.a.shape
            assert d.a.tobytes() == ref_d.a.tobytes(), (m, t)
            # stages below the first are shared: they refuse writes (of
            # the same value, so a failing check corrupts no later test)
            if t > 1 and d.a.size:
                with pytest.raises(ValueError):
                    d.a[0, 0] = d.a[0, 0]


def test_tail_stages_are_built_once_per_syzygy_type(monkeypatch):
    calls = []
    monkeypatch.setattr(rmodule, "cover_matrix", lambda m: calls.append(m) or cover_matrix(m))
    for ring in SPLICE_RINGS:
        x = next(x for x in splice_samples(ring, seed=ring.p * 17 + ring.n, count=6)
                 if not is_perfect(x))
        # R -> R in degrees min, min+1: a different complex with the same cut
        r = module_complex(free_module(ring, 1), x.min_degree + 1)
        y, _ = direct_sum_complex([x, cone(identity_chain_map(r)).z], ring)
        syz = syzygy_class(x).module
        assert syzygy_class(y).module == syz
        stages = {syz, RModule(ring, syzygy_type(syz))}  # Omega^2 syz = syz
        rmodule._tail_stage.cache_clear()
        calls.clear()
        first = projective_resolution(x, x.min_degree - 9)
        assert len(calls) == 1 + len(stages)  # the cover of syz, then one per stage type
        calls.clear()
        second = projective_resolution(y, y.min_degree - 9)
        assert calls == [syz]  # only the first stage, under y's own embedding
        assert rmodule._tail_stage.cache_info().misses == len(stages)
        for res in (first, second):
            cut = res.target.min_degree - 1
            assert res.syzygy == syz  # Omega^8 of the cut syzygy
            for i in range(res.depth, cut - 1):  # memoized stages: shared, read-only
                with pytest.raises(ValueError):
                    res.diffs[i][0, 0] = res.diffs[i][0, 0]
            # the band still builds and validates a Complex from them
            band = res.band(res.depth, cut)
            assert band.degrees == list(range(res.depth, cut + 1))
        for i in range(second.depth, y.min_degree - 2):
            assert second.diffs[i] is first.diffs[i]


def test_ext_probe_into_k_reads_the_ranks_of_the_minimal_resolution():
    # F is minimal, so Hom(F, k) has zero differential and
    # Hom(x, T^d k) = Hom(F^(-d), k) = k^(rank F^(-d)); below the window
    # F^(cut - t) covers Omega^(t-1) of the cut syzygy
    for ring in SPLICE_RINGS:
        k = module_complex(RModule(ring, (1,)), 0)
        stalks = band_sources(ring, seed=ring.n)[2:]
        for x in splice_samples(ring, seed=ring.p * 19 + ring.n) + stalks:
            cut = x.min_degree - 1
            free, syz = direct_resolution(x, cut)
            for i in range(cut - 4, x.max_degree + 2):
                want = len(free.component(i).blocks) if i >= cut else \
                    len(omega_by_elimination(syz, cut - 1 - i).blocks)
                assert derived_hom(x, k, -i) == want, (ring, x, i)


def band_sources(ring, seed):
    """Two sampled complexes and two modules, one of them k."""
    stalks = [module_complex(RModule(ring, blocks), 0) for blocks in ((1,), (ring.n - 1, 1))]
    return splice_samples(ring, seed, count=2) + stalks


def band_targets(ring, seed):
    """A sampled b with a nonzero differential, and b = R (+) T^-1 R with
    d = 0.  Free at both ends: a cycle P^lo -> b^min has to vanish on
    im d_P, and a homotopy P^hi -> b^max reaches Hom^0 through d_P."""
    s = Sampler(ring, random.Random(seed))
    while True:
        b = s.complex(-1, 1, max_blocks=2)
        if amplitude(b) >= 1 and b._diffs:
            break
    split = Complex(ring, {0: free_module(ring, 1), 1: free_module(ring, 1)}, {})
    return [b, split]


@pytest.mark.parametrize("ring", SPLICE_RINGS, ids=str)
def test_derived_hom_on_its_band_matches_a_deep_direct_build(ring):
    # T^d b in degrees [b.min - d, b.max - d] runs from below a's window
    # [a.min - 1, a.max], across it, to above it
    seen = set()
    for a in band_sources(ring, seed=ring.p * 3 + ring.n):
        for b in band_targets(ring, seed=ring.p * 5 + ring.n):
            shifts = range(b.min_degree - a.max_degree - 2, b.max_degree - a.min_degree + 4)
            deep = min(a.min_degree - 1, b.min_degree - shifts[-1] - 1) - 1
            free = direct_resolution(a, deep)[0]
            for d in shifts:
                got = derived_hom(a, b, d)
                assert got == hom_h0(free, b, d), (a, b, d)
                seen.add((b.max_degree - d < a.min_degree - 1, b.min_degree - d > a.max_degree, got > 0))
    assert {(True, False), (False, False), (False, True)} <= {k[:2] for k in seen}
    assert (False, False, True) in seen


def test_window_cut_kernel_with_free_summand_is_refused(monkeypatch):
    ring = Ring(2, 2)
    x = module_complex(RModule(ring, (1,)), 0)
    real = complexes.subspace_canonicalize

    def with_free(action, basis, ring_):
        mod, emb = real(action, basis, ring_)
        return RModule(ring_, mod.blocks + (ring_.n,)), emb

    monkeypatch.setattr(complexes, "subspace_canonicalize", with_free)
    with pytest.raises(complexes.PreconditionError):
        projective_resolution(x, -1)


# -- stable Hom by formula -----------------------------------------------------------


@pytest.mark.parametrize("ring", FORMULA_RINGS, ids=str)
def test_stable_hom_formula_matches_elimination(ring):
    types = [RModule(ring, b) for b in jordan_types(ring, 2)]
    for m, nn in product(types, types):
        assert stable_hom_dim(m, nn) == stable_hom(m, nn)[0], (m, nn)


def omega_by_elimination(m: RModule, t: int) -> RModule:
    for _ in range(t):
        m = projective_cover_and_syzygy(m)[2]
    return m


@pytest.mark.parametrize("ring", (Ring(2, 2), Ring(2, 3), Ring(3, 3), Ring(2, 4)), ids=str)
def test_sing_hom_of_shifted_classes_is_stable_hom_of_syzygies(ring):
    # Buchweitz: in D_sg, M[-s] -> N[-t] is stable Hom(Omega^(s-t) M, N) or
    # stable Hom(M, Omega^(t-s) N); the syzygies here come by elimination
    types = [RModule(ring, b) for b in jordan_types(ring, 2) if b]
    classes = {(m, s): syzygy_class(module_complex(m, s)) for m in types for s in range(3)}
    # each oracle value is eliminated once and read by every pair that needs it
    omega, stable = functools.cache(omega_by_elimination), functools.cache(stable_hom)
    for (m, s), (nn, t) in product(classes, classes):
        want = stable(omega(m, max(0, s - t)), omega(nn, max(0, t - s)))[0]
        assert sing_hom(classes[m, s], classes[nn, t]) == want, (m, s, nn, t)

