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
    cohomology_support,
    cone,
    cone_support,
    derived_hom,
    dualize,
    hom_complex,
    identity_chain_map,
    module_complex,
    projective_resolution,
    shift,
)
from tricomplete.linalg import Matrix, kernel_basis, new_columns, rank
from tricomplete.randomgen import Sampler
from tricomplete.rmodule import (
    RModule,
    RModuleMap,
    Ring,
    cover_matrix,
    free_module,
    hom_basis,
    omega_power,
    projective_cover_and_syzygy,
    stable_hom,
    stable_hom_dim,
    subspace_canonicalize,
    syzygy_embedding,
    syzygy_type,
    zero_module,
)

from reference import (
    amplitude,
    direct_sum_complex,
    eager_band,
    eager_splice,
    full_pullback_cover,
    hom_complex as numpy_hom_complex,
    hom_complex_derived_hom,
    numpy_free_approximation,
    split_unit_entries,
    subspace_type,
    two_term_complexes,
)

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
    """Build and minimize down to depth in one elimination pass, by the
    reference's full-pullback cover, as every cut was resolved before the
    window was cached."""
    ranks, diffs, _ = split_unit_entries(*full_pullback_cover(x, depth), x.ring)
    ranks = {i: r for i, r in ranks.items() if r}
    syz = kernel_module(ranks, diffs, depth, x.ring)[0].strip_free()
    comps = {i: free_module(x.ring, r) for i, r in ranks.items()}
    maps = {i: RModuleMap(comps[i], comps[i + 1], Matrix(d, x.ring.p))
            for i, d in diffs.items() if d.size}
    return Complex(x.ring, comps, maps), syz


def hom_h0(free: Complex, b: Complex, d: int) -> int:
    """H^0 of Hom(free, T^d b): the count derived_hom takes."""
    tb = shift(b, d)
    _, d0 = numpy_hom_complex(free, tb, 0)
    _, dm1 = numpy_hom_complex(free, tb, -1)
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


def check_window(x: Complex) -> int:
    """The window built at the cut has no unit entry, the ranks and the cut
    syzygy of the full-pullback cover minimized, and a comparison that is
    a quasi-isomorphism above the cut.  Returns the number of generators
    the full-pullback cover builds beyond the window's."""
    ring, cut = x.ring, x.min_degree - 1
    ranks, diffs, _ = _build_free_approximation(x, cut)
    for i, d in diffs.items():
        assert not (d[::ring.n, ::ring.n] % ring.p).any(), (x, i)
    cover = full_pullback_cover(x, cut)
    surplus = sum(cover[0].values()) - sum(ranks.values())
    ref_ranks, ref_diffs, _ = split_unit_entries(*cover, ring)
    assert {i: r for i, r in ranks.items() if r} == {i: r for i, r in ref_ranks.items() if r}, x
    syz = kernel_module(ranks, diffs, cut, ring)[0]
    assert syz == kernel_module(ref_ranks, ref_diffs, cut, ring)[0], x
    # H^(cut-1) of the cone is H^cut of the band, ker d^cut
    res = projective_resolution(x, cut)
    assert cone_support(res.comparison) == (frozenset() if syz.is_zero() else {cut - 1}), x
    return surplus


@pytest.mark.parametrize("ring", SPLICE_RINGS, ids=str)
def test_window_is_built_minimal(ring):
    # the contractible summands of every other sample are what a cover of
    # the whole pullback builds and then has to split off
    surplus = [check_window(x) for x in splice_samples(ring, seed=ring.p * 23 + ring.n, count=8)]
    assert min(surplus) >= 0 and sum(surplus[1::2]) > 0, surplus


# -- the int-row window build against the numpy build -------------------------------


ORACLE_RINGS = (Ring(2, 2), Ring(3, 3), Ring(2, 4), Ring(5, 2), Ring(3, 4), Ring(2, 1))


def oracle_samples(ring):
    """Every two-term complex over F_2[x]/(x^2) and F_3[x]/(x^2), and 60
    sampled complexes on degrees -1..1 over every ring."""
    if (ring.p, ring.n) in ((2, 2), (3, 2)):
        yield from (x for x in two_term_complexes(ring) if not x.is_zero())
    s = Sampler(ring, random.Random(ring.p * 43 + ring.n))
    for _ in range(60):
        x = s.complex(-1, 1, max_blocks=3)
        if not x.is_zero():
            yield x


@pytest.mark.parametrize("ring", ORACLE_RINGS + (Ring(3, 2),), ids=str)
def test_window_build_matches_the_numpy_build_byte_for_byte(ring):
    built = 0
    for x in oracle_samples(ring):
        cut = x.min_degree - 1
        for depth in (cut, cut - 2):
            got, want = _build_free_approximation(x, depth), numpy_free_approximation(x, depth)
            assert got[0] == want[0], (x, depth)
            for arrays, ref in zip(got[1:], want[1:]):
                assert arrays.keys() == ref.keys(), (x, depth)
                for i, a in arrays.items():
                    assert a.dtype == ref[i].dtype == np.int64, (x, depth, i)
                    assert a.shape == ref[i].shape and a.tobytes() == ref[i].tobytes(), (x, depth, i)
            built += 1
        window = complexes._resolve_window(x)
        for a in (*window.diffs.values(), *window.eps.values()):
            assert not a.flags.writeable, x
            if a.size:
                with pytest.raises(ValueError):
                    a[0, 0] = a[0, 0]
    assert built >= 80, built


def test_window_build_runs_the_eliminations_of_the_numpy_build(count_calls):
    # two per degree, a pullback kernel and a cover: the int rows remove
    # glue, not eliminations
    counts = count_calls(linalg._eliminate)
    for ring in ORACLE_RINGS:
        for x in splice_samples(ring, seed=ring.p * 47 + ring.n):
            for depth in (x.min_degree - 1, x.min_degree - 3):
                counts.clear()
                numpy_free_approximation(x, depth)
                want = counts["_eliminate"]
                counts.clear()
                ranks = _build_free_approximation(x, depth)[0]
                assert counts["_eliminate"] == want == 2 * (len(ranks) - 1), (x, depth)


EXT_RINGS = (Ring(2, 2), Ring(3, 3), Ring(2, 4), Ring(5, 2), Ring(3, 4))


def k_stalks(ring):
    """k, k^2 and k^3 at degrees -1, 0 and 2, each with its m."""
    return [(m, module_complex(RModule(ring, (1,) * m), j)) for m in (1, 2, 3) for j in (-1, 0, 2)]


def check_ext_into_k(x, stalks, parities):
    """derived_hom into each stalk for d in -1..4 against the Hom-complex
    route; adds to parities the syzygy parity cut - 1 - i of every degree i
    below x's cut that a probe of a non-perfect x reads."""
    cut = x.min_degree - 1
    for m, b in stalks:
        for d in range(-1, 5):
            assert derived_hom(x, b, d) == hom_complex_derived_hom(x, b, d), (x, m, b.min_degree, d)
            if b.min_degree - d < cut and not is_perfect(x):
                parities.add((cut - 1 - b.min_degree + d) % 2)


@pytest.mark.parametrize("ring", (Ring(2, 2), Ring(3, 2)), ids=str)
def test_every_two_term_complex_has_a_minimal_window(ring):
    k = module_complex(RModule(ring, (1,)), 0)
    seen, parities, stalks = 0, set(), k_stalks(ring)
    for x in two_term_complexes(ring):
        if x.is_zero():
            continue
        check_window(x)
        free = direct_resolution(x, -4)[0]  # deep enough for T^2 k's band
        for d in range(-1, 3):
            assert derived_hom(x, k, d) == hom_h0(free, k, d), (x, d)
        check_ext_into_k(x, stalks, parities)
        seen += 1
    assert seen == {2: 48, 3: 141}[ring.p]
    assert parities == {0, 1}


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
    cut = x.min_degree - 1
    calls = {"build": 0, "embed": 0, "eliminate": 0, "jordan": 0}
    # the cut kernel's embedding is the one subspace_canonicalize in complexes
    build, embed = complexes._build_free_approximation, complexes.subspace_canonicalize
    eliminate, jordan = linalg._eliminate, rmodule.jordan_basis

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(complexes, "_build_free_approximation", counting("build", build))
    monkeypatch.setattr(complexes, "subspace_canonicalize", counting("embed", embed))
    first = syzygy_class(x)
    assert calls["build"] == 1 and calls["embed"] == 0 and not first.is_zero()
    # Ext into k reads ranks alone: no probe, at any d, builds the embedding
    k = module_complex(RModule(ring, (1,)), 0)
    for d in range(-x.max_degree - 2, -cut + 8):
        derived_hom(x, k, d)
    assert calls["build"] == 1 and calls["embed"] == 0
    # every derived_hom into R out of x reads the window or its tail, however
    # high T^d R sits; only the Hom complex is eliminated.  Its band
    # [-d-1, -d+1] holds both cut-1 and cut only for d = -cut, -cut+1: no
    # other probe reads d^(cut-1), so none builds the embedding
    r = module_complex(RModule(ring, (ring.n,)), 0)
    for d in [*range(-x.max_degree - 2, -cut), *range(-cut + 2, -cut + 8)]:
        derived_hom(x, r, d)
    assert calls["build"] == 1 and calls["embed"] == 0
    for d in (-cut, -cut + 1, -cut):
        derived_hom(x, r, d)
    assert calls["build"] == 1 and calls["embed"] == 1
    monkeypatch.setattr(linalg, "_eliminate", counting("eliminate", eliminate))
    monkeypatch.setattr(rmodule, "jordan_basis", counting("jordan", jordan))
    assert syzygy_class(x) == first
    assert is_perfect(x) == first.is_zero()
    for depth in range(x.min_degree - 1, x.min_degree - 6, -1):
        projective_resolution(x, depth).band(depth, x.max_degree)
    assert calls == {"build": 1, "embed": 1, "eliminate": 0, "jordan": 0}


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


def test_a_second_derived_hom_builds_no_hom_basis_maps(monkeypatch):
    # Hom bases depend only on Jordan types: a fresh complex with the types
    # of one already read asks hom_complex for the unit tables that first
    # derived_hom built, and builds none; no derived_hom builds a hom_basis
    # map.  The target is R, not k: Ext into k reads ranks and asks no Hom
    # basis
    table, built = rmodule._hom_units, []

    def counting_units(*key):
        before = table.cache_info().misses
        units = table(*key)
        built.append(table.cache_info().misses - before)
        return units

    monkeypatch.setattr(complexes, "_hom_units", counting_units)
    first_builds = 0
    for ring in SPLICE_RINGS:
        r = module_complex(RModule(ring, (ring.n,)))
        for x in splice_samples(ring, seed=ring.p * 11 + ring.n, count=4):
            for d in (-1, 0, 1, 2):
                built.clear()
                first = derived_hom(x, r, d)
                asked, first_builds = len(built), first_builds + sum(built)
                fresh = Complex(ring, {i: x.component(i) for i in x.degrees},
                                {i: x.differential(i) for i in x.degrees})
                built.clear()
                assert derived_hom(fresh, r, d) == first
                assert built == [0] * asked, (ring, x, d)
    assert first_builds
    assert rmodule._hom_basis.cache_info().misses == 0


# -- the periodic tail, one stage per syzygy type ------------------------------------


def fresh_tail(m: RModule, embedding: Matrix):
    """The periodic tail's recurrence with no memo: every stage rebuilt from
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
        for k in range(1, 7):
            x, ref = TruncationTail(m).complex_at(k), fresh_tail(*syzygy_embedding(m))
            assert x.component(0) == free_module(ring, len(blocks))
            assert all(-k <= i <= 0 for i in x.degrees), (m, k)
            for t in range(1, k + 1):
                ref_rank, ref_d, _ = next(ref)
                d = x.differential(-t).matrix
                assert x.component(-t) == free_module(ring, ref_rank), (m, k, t)
                assert d.p == ref_d.p and d.a.dtype == ref_d.a.dtype and d.a.shape == ref_d.a.shape
                assert d.a.tobytes() == ref_d.a.tobytes(), (m, k, t)
                # every stage is shared, the first included: it refuses
                # writes (of the same value, so a failing check corrupts no
                # later test)
                if d.a.size:
                    with pytest.raises(ValueError):
                        d.a[0, 0] = d.a[0, 0]


def test_tail_stages_are_built_once_per_syzygy_type(monkeypatch):
    calls = []
    monkeypatch.setattr(complexes, "cover_matrix", lambda m: calls.append(m) or cover_matrix(m))
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
        assert calls == []  # a resolution reads its arrays when a band does
        bands = [first.band(first.depth, x.min_degree - 1)]
        assert len(calls) == 1 + len(stages)  # the cover of syz, then one per stage type
        calls.clear()
        second = projective_resolution(y, y.min_degree - 9)
        bands.append(second.band(second.depth, y.min_degree - 1))
        assert calls == [syz]  # only the first stage, under y's own embedding
        assert rmodule._tail_stage.cache_info().misses == len(stages)
        for res, band in zip((first, second), bands):
            cut = res.target.min_degree - 1
            assert res.syzygy == syz  # Omega^8 of the cut syzygy
            for i in range(res.depth, cut - 1):  # memoized stages: shared, read-only
                with pytest.raises(ValueError):
                    res.window.differential(i)[0, 0] = res.window.differential(i)[0, 0]
            # the band still builds and validates a Complex from them
            assert band.degrees == list(range(res.depth, cut + 1))
        for i in range(second.depth, y.min_degree - 2):
            assert second.window.differential(i) is first.window.differential(i)


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


@pytest.mark.parametrize("ring", EXT_RINGS, ids=str)
def test_ext_into_a_stalk_of_k_matches_the_hom_complex_route(ring):
    parities = set()
    for x in splice_samples(ring, seed=ring.p * 31 + ring.n, count=8):
        check_ext_into_k(x, k_stalks(ring), parities)
    assert parities == {0, 1}


def test_ext_into_k_of_a_resolved_complex_eliminates_and_builds_nothing(count_calls):
    # the probe is m rank P^(j-d): one window build on a fresh complex, and
    # on a complex is_perfect has resolved a lookup at every d, however deep
    counts = count_calls(complexes._build_free_approximation, linalg._eliminate, hom_complex,
                         hom_basis, Complex, complexes.ChainMap, RModuleMap)
    for ring in SPLICE_RINGS:
        stalks = [b for _, b in k_stalks(ring)]
        fresh, resolved = splice_samples(ring, seed=ring.p * 37 + ring.n, count=2)
        counts.clear()
        derived_hom(fresh, stalks[0], 3)
        assert counts["_build_free_approximation"] == 1 and not counts["hom_complex"], ring
        is_perfect(resolved)
        counts.clear()
        for x in (fresh, resolved):
            for b in stalks:
                for d in range(-x.max_degree - 3, -x.min_degree + 12):
                    derived_hom(x, b, d)
        assert not counts, (ring, counts)


@pytest.mark.parametrize("ring", EXT_RINGS, ids=str)
def test_hom_out_of_k_is_a_betti_number_of_the_dual(ring):
    # k-duality: Hom(k^m at i, T^d F) = Hom(D F, T^(-i-d) k^m), so it is m
    # times the rank at -i-d of the minimal resolution of dualize(F).  The
    # left side runs the Hom-complex route out of the stalk for every F but
    # a stalk of k^m (6 of these 100 samples)
    s = Sampler(ring, random.Random(ring.p * 41 + ring.n))
    stalk = functools.cache(lambda m, i: module_complex(RModule(ring, (1,) * m), i))
    seen = 0
    while seen < 20:
        f = s.complex(-1, 1, max_blocks=2)
        if f.is_zero():
            continue
        seen += 1
        window = complexes._resolve_window(dualize(f))
        for m, i in product((1, 2), range(f.min_degree - 2, f.max_degree + 6)):
            for d in range(-1, 3):
                assert derived_hom(stalk(m, i), f, d) == m * window.rank(-i - d), (f, m, i, d)


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


# -- the cut syzygy's Jordan type, and bands read lazily ------------------------------


def test_cut_syzygy_is_omega_of_the_image_of_d_cut():
    # the oracle is the route the window took before: a Jordan profile of
    # kernel_basis(d^cut).  d^cut covers its image W minimally, so it has
    # one generator per block of W, and its kernel is Omega W
    nonzero = 0
    for ring in (Ring(3, 2),) + EXT_RINGS:
        for x in oracle_samples(ring):
            window = complexes._resolve_window(x)
            r = window.rank(window.cut)
            if not r:
                assert window.syzygy.is_zero(), x
                continue
            assert window.syzygy == subspace_type(free_module(ring, r).x_action(), window.kernel, ring), x
            d = Matrix(window.diffs[window.cut], ring.p)
            image = Matrix(d.a[:, new_columns(Matrix.zeros(d.rows, 0, ring.p), d)], ring.p)
            w = subspace_type(free_module(ring, window.rank(window.cut + 1)).x_action(), image, ring)
            assert len(w.blocks) == r and window.syzygy == RModule(ring, syzygy_type(w)), x
            nonzero += not window.syzygy.is_zero()
    assert nonzero >= 100, nonzero


def test_resolving_profiles_d_cut_once_and_builds_no_kernel(count_calls, monkeypatch):
    # one elimination beyond the build's own, and no kernel: that waits for
    # the first band that holds both cut-1 and cut, which builds it once
    counts = count_calls(linalg._eliminate)
    kernels = []
    monkeypatch.setattr(complexes, "kernel_basis", lambda m: kernels.append(m) or kernel_basis(m))
    nonperfect = 0
    for ring in SPLICE_RINGS:
        for x in splice_samples(ring, seed=ring.p * 53 + ring.n, count=4):
            cut = x.min_degree - 1
            counts.clear()
            _build_free_approximation(x, cut)
            build = counts["_eliminate"]
            counts.clear()
            window = complexes._resolve_window(x)
            assert counts["_eliminate"] == build + (window.rank(cut) > 0) and not kernels, (ring, x)
            res = projective_resolution(x, cut - 3)
            res.band(cut, x.max_degree)
            res.band(cut - 3, cut - 1)
            assert not kernels and "kernel" not in vars(window), (ring, x)
            res.band(cut - 1, cut)
            res.band(cut - 3, x.max_degree)
            assert len(kernels) == (not window.syzygy.is_zero()), (ring, x)
            nonperfect += bool(kernels)
            kernels.clear()
    assert nonperfect >= len(SPLICE_RINGS)


@pytest.mark.parametrize("ring", sorted(set(SPLICE_RINGS + FORMULA_RINGS), key=str), ids=str)
def test_subspace_type_matches_canonicalization(ring):
    # kernels and images of random R-linear maps, 0 and the whole space
    rng = random.Random(ring.p * 29 + ring.n)
    types = [RModule(ring, blocks) for blocks in jordan_types(ring, 3)]
    seen = set()
    for _ in range(40):
        m, nn = rng.choice(types), rng.choice(types)
        basis = hom_basis(m, nn)
        f = Matrix(sum((rng.randrange(ring.p) * g.matrix.a for g in basis),
                       np.zeros((nn.dim, m.dim), dtype=np.int64)), ring.p)
        image = Matrix(f.a[:, new_columns(Matrix.zeros(nn.dim, 0, ring.p), f)], ring.p)
        for action, span in ((m.x_action(), kernel_basis(f)), (nn.x_action(), image),
                             (m.x_action(), Matrix.zeros(m.dim, 0, ring.p)),
                             (m.x_action(), Matrix.identity(m.dim, ring.p))):
            want = subspace_canonicalize(action, span, ring)[0]
            assert subspace_type(action, span, ring) == want, (m, nn, span)
            seen.add(want.blocks)
    assert len(seen) >= 10 and any(len(set(blocks)) > 1 for blocks in seen), seen


@pytest.mark.parametrize("ring", (Ring(2, 2), Ring(3, 2)), ids=str)
def test_cut_type_of_every_two_term_window_matches_canonicalization(ring):
    nonzero = 0
    for x in two_term_complexes(ring):
        if x.is_zero():
            continue
        window = complexes._resolve_window(x)
        want = kernel_module(window.ranks, window.diffs, window.cut, ring)[0]
        assert window.syzygy == want, x
        nonzero += not want.is_zero()
    assert nonzero


@pytest.mark.parametrize("ring", SPLICE_RINGS, ids=str)
def test_every_band_matches_the_eager_splice(ring):
    # byte for byte, down to min-9, at and across the cut and the window
    nonperfect = 0
    for x in splice_samples(ring, seed=ring.p * 37 + ring.n, count=4):
        nonperfect += not is_perfect(x)
        depth = x.min_degree - 10
        ranks, diffs, eps, _ = eager_splice(x, depth)
        for cut in range(x.min_degree - 1, depth - 1, -1):
            res = projective_resolution(x, cut)
            assert res.syzygy == eager_splice(x, cut)[3], (x, cut)
        res = projective_resolution(x, depth)
        for lo in range(depth, x.max_degree + 2):
            for hi in range(lo - 1, x.max_degree + 2):
                got, want = res.band(lo, hi), eager_band(ring, ranks, diffs, lo, hi)
                assert got == want, (x, lo, hi)
                for i, f in want._diffs.items():
                    assert got._diffs[i].matrix.a.tobytes() == f.matrix.a.tobytes(), (x, lo, hi, i)
        assert res.complex == eager_band(ring, ranks, diffs, depth, x.max_degree)
        assert all(np.array_equal(res.comparison.component(i).matrix.a, e) for i, e in eps.items() if e.size)
    assert nonperfect >= 2


def test_a_deep_cut_costs_nothing_until_it_is_read():
    types = 0
    for ring in SPLICE_RINGS:
        # k has Omega k = [n-1] and Omega^2 k = k: two stage types for n > 2
        sample = next(x for x in splice_samples(ring, seed=ring.p * 41 + ring.n, count=6)
                      if not is_perfect(x))
        for x in (sample, module_complex(RModule(ring, (1,)), 0)):
            cut, syz = x.min_degree - 1, syzygy_class(x).module
            rmodule._tail_stage.cache_clear()
            for depth in (cut - 10**6, cut - 10**6 - 1):
                assert projective_resolution(x, depth).syzygy == omega_power(syz, cut - depth)
            info = rmodule._tail_stage.cache_info()
            assert info.hits + info.misses == 0 and "embedding" not in vars(x._window)
            # a band reads only its own degrees, each from one of two stage types
            deep = projective_resolution(x, cut - 10**6).band(cut - 10**6, cut - 10**6 + 4)
            info = rmodule._tail_stage.cache_info()
            assert info.hits + info.misses == 4 and info.misses <= 2
            assert "embedding" not in vars(x._window)
            types += info.misses
            # and by 2-periodicity it is the band as deep as the eager splice goes
            ranks, diffs, _, _ = eager_splice(x, cut - 8)
            near = eager_band(ring, ranks, diffs, cut - 8, cut - 4)
            assert deep == shift(near, 10**6 - 8), (ring, x)
    assert types > 2 * len(SPLICE_RINGS)


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


@pytest.mark.parametrize("ring", FORMULA_RINGS, ids=str)
def test_stable_hom_dim_is_invariant_under_omega_on_either_side(ring):
    # what sing_hom rests on when it aligns no shifts: Omega, by elimination,
    # moves neither side's stable Hom dimension, free blocks included
    types = [RModule(ring, b) for b in jordan_types(ring, 2)]
    omega = {m: omega_by_elimination(m, 1) for m in types}
    for m, nn in product(types, types):
        want = stable_hom_dim(m, nn)
        assert stable_hom_dim(omega[m], nn) == want == stable_hom_dim(m, omega[nn]), (m, nn)


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


# -- Ext above the amplitude is stable Hom --------------------------------------------


def test_ext_above_the_amplitude_is_stable_hom():
    # R is self-injective, so Hom_D(X, T^d Y) is Hom in D_sg once d >
    # max H(Y) - min H(X) (Buchweitz): derived_hom's band and Hom complex,
    # or its Betti number for Y = k, against sing_hom's closed form on the
    # cut syzygies, T^d moving Y's cut, and so its class, by -d.  At
    # d = bound the two may differ.
    seen = {"checked": 0, "differ at the bound": 0}

    def check(x, y):
        bound = max(cohomology_support(y)) - min(cohomology_support(x))
        cls = syzygy_class(y)
        for d in range(bound, bound + 5):
            shifted = syzygy_class(shift(y, d))
            assert (shifted.module, shifted.shift) == (cls.module, cls.shift - d), (y, d)
            same = derived_hom(x, y, d) == sing_hom(syzygy_class(x), shifted)
            if d > bound:
                assert same, (x, y, d)
                seen["checked"] += 1
            else:
                seen["differ at the bound"] += not same

    for ring in (Ring(2, 2), Ring(3, 2)):
        k = module_complex(RModule(ring, (1,)), 0)
        xs = [x for x in two_term_complexes(ring) if cohomology_support(x)]
        for idx, x in enumerate(xs):
            check(x, k)
            check(x, xs[7 * idx % len(xs)])
    for seed, ring in enumerate(EXT_RINGS, start=11):
        s, k, drawn = Sampler(ring, random.Random(seed)), module_complex(RModule(ring, (1,)), 0), 0
        while drawn < 8:
            x, y = s.complex(-1, 1, max_blocks=2), s.complex(-2, 1, max_blocks=2)
            if cohomology_support(x) and cohomology_support(y):
                check(x, y)
                check(x, k)
                drawn += 1
    assert seen["checked"] >= 1300 and seen["differ at the bound"] >= 70, seen
