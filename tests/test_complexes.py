import random
from dataclasses import replace

import numpy as np
import pytest

from tricomplete.linalg import Matrix, rank
from tricomplete.rmodule import (
    RModule,
    RModuleMap,
    Ring,
    free_module,
    hom_basis,
    identity_map,
    zero_map,
)
from tricomplete.complexes import (
    ChainMap,
    Complex,
    PreconditionError,
    ValidationError,
    chain_map_space,
    cohomology,
    cohomology_data,
    cohomology_support,
    cone,
    cone_support,
    derived_hom,
    dual_map,
    dualize,
    hom_complex,
    identity_chain_map,
    induces_iso,
    is_acyclic,
    is_null_homotopic,
    is_quasi_iso,
    module_complex,
    projective_resolution,
    shift,
    zero_complex,
)

from reference import (
    add,
    canonical_cohomology,
    cohomology_map,
    direct_sum_complex,
    hom_complex as numpy_hom_complex,
    is_isomorphism,
    kernel_sample,
    neg,
    quotient_canonicalize,
    two_term_complexes,
)

R22 = Ring(2, 2)
R23 = Ring(2, 3)
K22 = RModule(R22, (1,))


def x_on_R(ring):
    """The complex R --x--> R in degrees -1, 0."""
    R = free_module(ring, 1)
    d = RModuleMap(R, R, R.x_action())
    return Complex(ring, {-1: R, 0: R}, {-1: d})


def test_d_squared_validated_on_construction():
    R = free_module(R22, 1)
    ident = identity_map(R)
    with pytest.raises(ValidationError):
        Complex(R22, {0: R, 1: R, 2: R}, {0: ident, 1: ident})


def test_d_squared_checked_mod_p():
    # d^1 d^0 is 3 as an integer product, so 0 over F_3
    ring = Ring(3, 1)
    k = free_module(ring, 1)
    k2 = free_module(ring, 2)
    d0 = RModuleMap(k, k2, Matrix([[1], [1]], 3))
    d1 = RModuleMap(k2, k, Matrix([[1, 2]], 3))
    x = Complex(ring, {0: k, 1: k2, 2: k}, {0: d0, 1: d1})
    assert is_acyclic(x)  # k -> k^2 -> k is exact


def scaled_x_on_R(ring, c):
    """The complex R --c x--> R in degrees 0, 1."""
    R = free_module(ring, 1)
    return Complex(ring, {0: R, 1: R}, {0: RModuleMap(R, R, R.x_action().scale(c))})


def test_chain_map_rejects_non_commuting_square():
    ring = Ring(3, 2)
    x = scaled_x_on_R(ring, 1)
    R = x.component(0)
    two = RModuleMap(R, R, Matrix.identity(2, 3).scale(2))
    with pytest.raises(ValidationError, match="square at degrees"):
        ChainMap(x, x, {0: identity_map(R), 1: two})


def test_trusted_constructions_are_rechecked_under_the_tests():
    # conftest re-runs every check on the trusted path, so each fault below
    # raises here although _trusted itself checks nothing
    R = free_module(R22, 1)
    ident, x_act = identity_map(R), RModuleMap(R, R, R.x_action())
    with pytest.raises(ValueError, match="not R-linear"):
        RModuleMap._trusted(R, R, Matrix([[1, 1], [0, 0]], 2))
    with pytest.raises(ValidationError, match="d\\^2 != 0"):
        Complex._trusted(R22, {0: R, 1: R, 2: R}, {0: ident, 1: ident})
    x = Complex(R22, {0: R, 1: R}, {0: x_act})
    with pytest.raises(ValidationError, match="square at degrees"):
        ChainMap._trusted(x, x, {0: ident})
    # a matrix wrapped without reduction: 2 is zero mod 2, yet not dropped
    two = RModuleMap._trusted(K22, K22, Matrix._reduced(np.array([[2]]), 2))
    with pytest.raises(ValidationError, match="stores a zero component"):
        ChainMap._trusted(module_complex(K22), module_complex(K22), {0: two})
    with pytest.raises(ValidationError, match="stores a zero component"):
        Complex._trusted(R22, {0: K22, 1: K22}, {0: two})


def test_chain_map_square_checked_mod_p():
    # f^1 d_X = 4x and d_Y f^0 = x agree only mod 3
    ring = Ring(3, 2)
    x, y = scaled_x_on_R(ring, 2), scaled_x_on_R(ring, 1)
    R = x.component(0)
    two = RModuleMap(R, R, Matrix.identity(2, 3).scale(2))
    f = ChainMap(x, y, {0: identity_map(R), 1: two})
    assert is_quasi_iso(f)


def test_cohomology_of_stalk():
    x = module_complex(K22, 0)
    assert cohomology(x, 0) == K22
    assert cohomology(x, 1).is_zero()
    assert cohomology(x, -1).is_zero()


def test_cohomology_of_x_multiplication():
    x = x_on_R(R22)
    assert cohomology(x, -1) == K22  # kernel of x is the socle
    assert cohomology(x, 0) == K22  # cokernel of x
    assert cohomology_support(x) == frozenset({-1, 0})


def test_cone_of_identity_acyclic():
    x = x_on_R(R22)
    assert is_acyclic(cone(identity_chain_map(x)).z)


def test_cone_of_zero_map_from_zero():
    y = module_complex(K22, 3)
    tri = cone(ChainMap(zero_complex(R22), y, {}))
    assert tri.z == y


def test_cone_of_x_on_modules():
    # x : R -> R as modules in degree 0 over (2,2): cone has H = k at -1, 0
    R = free_module(R22, 1)
    f = ChainMap(module_complex(R, 0), module_complex(R, 0),
                 {0: RModuleMap(R, R, R.x_action())})
    z = cone(f).z
    assert cohomology(z, -1) == K22
    assert cohomology(z, 0) == K22
    assert cohomology_support(z) == frozenset({-1, 0})


def test_cone_differential_signs_over_F3():
    # d = [[-d_X, 0], [f, d_Y]]: over F_3 a flip of either sign changes it
    ring = Ring(3, 1)
    k = free_module(ring, 1)
    assert cone(identity_chain_map(module_complex(k, 0))).z.differential(-1).matrix == Matrix([[1]], 3)
    x = Complex(ring, {0: k, 1: k}, {0: identity_map(k)})
    assert cone(ChainMap(x, zero_complex(ring), {})).z.differential(-1).matrix == Matrix([[2]], 3)


def test_shift_bookkeeping():
    x = module_complex(K22, 0)
    assert shift(x, 0) == x
    s = shift(x, 5)
    assert s.degrees == [-5]
    y = x_on_R(R23)
    for t in (-2, -1, 1, 3):
        for i in range(-4, 4):
            assert cohomology(shift(y, t), i) == cohomology(y, i + t)


def test_shift_sign_gives_valid_complex():
    y = x_on_R(R23)
    assert shift(shift(y, 1), -1) == y


def test_null_homotopy_zero_map():
    x = x_on_R(R22)
    ok, s = is_null_homotopic(ChainMap(x, x, {}))
    assert ok and s == {}


def test_identity_on_zero_differential_complex_not_null_homotopic():
    x = module_complex(K22, 0)
    ok, _ = is_null_homotopic(identity_chain_map(x))
    assert not ok


def test_identity_on_cone_of_identity_null_homotopic():
    R = free_module(R22, 1)
    x = module_complex(R, 0)
    z = cone(identity_chain_map(x)).z
    ok, s = is_null_homotopic(identity_chain_map(z))
    assert ok
    # verify the witness: id = d s + s d degreewise
    for i in z.degrees:
        ds = z.differential(i - 1).matrix @ s[i].matrix if i in s else None
        acc = Matrix.zeros(z.component(i).dim, z.component(i).dim, 2)
        if i in s:
            acc = add(acc, z.differential(i - 1).matrix @ s[i].matrix)
        if i + 1 in s:
            acc = add(acc, s[i + 1].matrix @ z.differential(i).matrix)
        assert acc == Matrix.identity(z.component(i).dim, 2)


def ds_plus_sd(x, y, s, i):
    """Degree i of d s + s d for a degree -1 family s : X^j -> Y^(j-1)."""
    def at(j):
        return s[j] if j in s else zero_map(x.component(j), y.component(j - 1))
    return add(y.differential(i - 1) @ at(i), at(i + 1) @ x.differential(i))


def flat(g):
    """The components of a chain map as one vector, in degree order of its source."""
    return np.concatenate([np.zeros(0, dtype=np.int64)]
                          + [g.component(i).matrix.a.ravel() for i in g.source.degrees])


@pytest.mark.parametrize("ring", [Ring(3, 3), R22])
def test_random_null_homotopies_have_witnesses(ring):
    # over F_3 a wrong sign in d s + s d would leave f unsolvable or the
    # witness wrong; over F_2 the sign cannot be seen
    from tricomplete.randomgen import Sampler

    rng = random.Random(70 + ring.p)
    sampler = Sampler(ring, rng)
    multi_degree = 0
    for _ in range(25):
        x, y = sampler.complex(-2, 2), sampler.complex(-2, 2)
        s = {}
        for i in x.degrees:
            for b in hom_basis(x.component(i), y.component(i - 1)):
                scaled = RModuleMap(b.source, b.target, b.matrix.scale(rng.randrange(ring.p)))
                s[i] = add(s[i], scaled) if i in s else scaled
        f = ChainMap(x, y, {i: ds_plus_sd(x, y, s, i) for i in x.degrees})
        multi_degree += len(f._components) >= 2
        ok, w = is_null_homotopic(f)
        assert ok
        for i in x.degrees:
            assert ds_plus_sd(x, y, w, i) == f.component(i)
        # f is a chain map, so it lies in the span of chain_map_space(X, Y)
        span = [flat(g) for g in chain_map_space(x, y)]
        assert rank(Matrix(np.array(span + [flat(f)]), ring.p)) == len(span)
    assert multi_degree >= 5


# -- chain-map algebra ----------------------------------------------------------


def union_product(g, f):
    """g o f composed at every degree where either factor is nonzero: the
    reference for ChainMap.__matmul__."""
    degs = set(f._components) | set(g._components)
    return ChainMap(f.source, g.target, {i: g.component(i) @ f.component(i) for i in degs})


@pytest.mark.parametrize("g_degs, f_degs", [({1}, {0}), ({1}, {0, 1}), ({0, 1}, {0, 1})],
                         ids=["disjoint", "partial", "equal"])
def test_composite_composes_only_where_both_factors_are_nonzero(count_calls, g_degs, f_degs):
    R = free_module(R22, 1)
    x = Complex(R22, {0: R, 1: R}, {})
    f = ChainMap(x, x, {i: identity_map(R) for i in f_degs})
    g = ChainMap(x, x, {i: RModuleMap(R, R, R.x_action()) for i in g_degs})
    counts = count_calls(RModuleMap)
    gf = g @ f
    assert counts["RModuleMap"] == len(g_degs & f_degs)
    assert gf == union_product(g, f) and set(gf._components) == g_degs & f_degs


@pytest.mark.parametrize("ring", [R22, Ring(3, 3), Ring(2, 4), Ring(5, 2)], ids=str)
def test_composite_equals_the_union_based_product(ring):
    from tricomplete.randomgen import Sampler

    s = Sampler(ring, random.Random(80 + ring.p + ring.n))
    zero = zero_complex(ring)
    for _ in range(12):
        f, g = s.composable_pair(-2, 2, max_blocks=2)
        for a, b in ((g, f), (f, identity_chain_map(f.source)), (identity_chain_map(f.target), f),
                     (ChainMap(f.target, zero, {}), f), (f, ChainMap(zero, f.source, {}))):
            assert a @ b == union_product(a, b)


def test_sum_of_chain_maps_between_different_complexes_refused():
    # same components, different differentials: the sum used to return a
    # map x -> x (over F_2 the zero map) instead of refusing
    R = free_module(R22, 1)
    x = Complex(R22, {0: R, 1: R}, {})
    y = scaled_x_on_R(R22, 1)
    with pytest.raises(PreconditionError, match="chain maps not addable"):
        add(identity_chain_map(x), identity_chain_map(y))
    assert add(identity_chain_map(y), identity_chain_map(y)).is_zero()


# -- long exact sequence of the cone -----------------------------------------


def sample_chain_maps(ring, seed, count):
    from tricomplete.randomgen import Sampler

    rng = random.Random(seed)
    s = Sampler(ring, rng)
    out = []
    for _ in range(count):
        x = s.complex(-2, 2, max_blocks=2)
        y = s.complex(-2, 2, max_blocks=2)
        out.append(s.chain_map(x, y))
    return out


def test_cone_long_exact_sequence():
    # over F_3 the sign of -d_X in the cone can be seen; over F_2 it cannot
    maps = (sample_chain_maps(R22, seed=11, count=12) + sample_chain_maps(R23, seed=12, count=6)
            + sample_chain_maps(Ring(3, 3), seed=13, count=6))
    for f in maps:
        tri = cone(f)
        degs = range(-4, 5)
        for i in degs:
            hf = cohomology_map(tri.f, i)
            hg = cohomology_map(tri.g, i)
            hh = cohomology_map(tri.h, i)
            hf_next = cohomology_map(tri.f, i + 1)
            # H^i(h) lands in H^(i+1)(X) = H^i(TX)
            assert hh.target == cohomology(shift(tri.x, 1), i)
            # exactness at Y, Z, TX slots by rank counting
            assert rank(hf.matrix) == hf.target.dim - rank(hg.matrix)
            assert rank(hg.matrix) == hg.target.dim - rank(hh.matrix)
            assert rank(hh.matrix) == hh.target.dim - rank(hf_next.matrix)


@pytest.mark.parametrize("ring", [R22, Ring(3, 3), Ring(3, 4)])
def test_cone_triangle_maps_built_on_first_read(ring):
    from tricomplete.rmodule import direct_sum

    for f in sample_chain_maps(ring, seed=14, count=6):
        tri = cone(f)
        tx = shift(f.source, 1)
        sums = {i: direct_sum([tx.component(i), f.target.component(i)], ring) for i in tri.z.degrees}
        assert tri.g == ChainMap(f.target, tri.z, {i: sums[i][1][1] for i in f.target.degrees})
        assert tri.h == ChainMap(tri.z, tx, {i: sums[i][2][0] for i in tx.degrees})
        assert tri.g is tri.g and tri.h is tri.h


def test_length_builds_no_chain_map(count_calls):
    from tricomplete.metric import length, metric_i

    maps = sample_chain_maps(R22, seed=15, count=6)
    counts = count_calls(ChainMap)
    lengths = [length(f, metric_i()) for f in maps]
    assert counts["ChainMap"] == 0
    assert any(lengths)  # the samples include maps that are not quasi-isos


@pytest.mark.parametrize("k", [1, 2, 3])
def test_direct_sum_complex_builds_one_chain_map_per_part(count_calls, k):
    parts = [module_complex(RModule(R22, (2, 1)), -j) for j in range(k)]
    counts = count_calls(ChainMap)
    total, injs = direct_sum_complex(parts, R22)
    assert counts["ChainMap"] == k
    assert [f.source for f in injs] == parts and all(f.target is total for f in injs)


@pytest.mark.parametrize("ring", [R22, Ring(3, 3)], ids=str)
def test_hom_complex_asks_hom_basis_only_for_nonzero_targets(monkeypatch, ring):
    # hom_complex asks the unit table of each nonzero factor once, and reads
    # or builds no hom_basis map
    from tricomplete import complexes, rmodule
    from tricomplete.randomgen import Sampler

    asked, table = [], rmodule._hom_units

    def counting(*key):
        asked.append(key)
        return table(*key)

    monkeypatch.setattr(complexes, "_hom_units", counting)
    s = Sampler(ring, random.Random(17))
    skipped = 0
    for _ in range(12):
        x, y = s.complex(-2, 1), s.complex(-1, 2)
        for k in (-1, 0, 1):
            asked.clear()
            maps_before = rmodule._hom_basis.cache_info()
            basis, delta, cols = complexes.hom_complex(x, y, k)
            assert rmodule._hom_basis.cache_info() == maps_before
            want = [i for i in x.degrees if i + k in y.degrees]
            skipped += len(x.degrees) - len(want)
            assert asked == [(x.component(i).blocks, y.component(i + k).blocks, ring.n) for i in want]
            # the layout is unchanged: every nonzero factor, in increasing i,
            # its maps' ones in hom_basis's order
            assert [i for i, *_ in basis] == want
            for i, m, nn, units in basis:
                assert (m, nn) == (x.component(i), y.component(i + k))
                assert units == tuple(tuple(map(tuple, np.argwhere(b.matrix.a).tolist()))
                                      for b in hom_basis(m, nn))
            assert cols == sum(len(units) for *_, units in basis)
            assert len(delta) == sum(x.component(i).dim * y.component(i + k + 1).dim for i in x.degrees)
    assert skipped >= 10


HOM_RINGS = [R22, Ring(3, 3), Ring(2, 4), Ring(5, 2), Ring(3, 4)]


@pytest.mark.parametrize("ring", HOM_RINGS, ids=str)
def test_hom_complex_rows_equal_the_numpy_reference(ring):
    # delta^k's int rows, shape and basis order against the numpy build of
    # d_Y b - (-1)^k b d_X, entry for entry, zero complexes included
    from tricomplete.randomgen import Sampler

    s = Sampler(ring, random.Random(40 + ring.p * ring.n))
    pairs = [(zero_complex(ring), s.complex(-1, 1)), (s.complex(-1, 1), zero_complex(ring)),
             (zero_complex(ring), zero_complex(ring))]
    pairs += [(s.complex(-2, 1), s.complex(-1, 2, max_blocks=3)) for _ in range(16)]
    signed = {(-1) ** k: 0 for k in (0, 1)}
    for x, y in pairs:
        for k in range(-2, 2):
            basis, rows, cols = hom_complex(x, y, k)
            ref_basis, ref = numpy_hom_complex(x, y, k)
            assert [i for i, *_ in basis] == [i for i, _ in ref_basis]
            for (i, m, nn, units), (_, bs) in zip(basis, ref_basis):
                assert (m, nn) == (bs[0].source, bs[0].target)
                assert units == tuple(tuple(map(tuple, np.argwhere(b.matrix.a).tolist())) for b in bs)
            assert (len(rows), cols) == ref.a.shape
            assert rows == ref.a.tolist(), (x, y, k)
            if x._diffs and y._diffs and ref.a.any():
                signed[(-1) ** k] += 1
    assert min(signed.values()) >= 5, signed


def same_maps(f, g):
    """Equal stored maps, matrix bytes, dtype and shape included."""
    return f.keys() == g.keys() and all(
        (f[i].source, f[i].target) == (g[i].source, g[i].target)
        and (f[i].matrix.a.dtype, f[i].matrix.a.shape, f[i].matrix.a.tobytes())
        == (g[i].matrix.a.dtype, g[i].matrix.a.shape, g[i].matrix.a.tobytes()) for i in f)


@pytest.mark.parametrize("ring", HOM_RINGS, ids=str)
def test_sampler_draws_what_the_numpy_kernel_draw_draws(ring):
    # same seed, same complexes and chain maps, byte for byte, as sampling
    # off the numpy Hom complex with a kernel_basis product
    from tricomplete.randomgen import Sampler

    class NumpySampler(Sampler):
        def _kernel_sample(self, x, y):
            return kernel_sample(self.rng, x, y)

    nonzero = 0
    for seed in range(20):
        got, want = Sampler(ring, random.Random(seed)), NumpySampler(ring, random.Random(seed))
        drawn = []
        for s in (got, want):
            x, y = s.complex(-2, 2), s.complex(-1, 1, max_blocks=3)
            ball = s.complex(0, 0, degrees=[-3, 1, 2])
            drawn.append([x, y, ball, s.chain_map(x, y), s.chain_map(shift(ball, -1), y),
                          *s.composable_pair(), *s.corner(-1, 1)])
        for a, b in zip(*drawn):
            if isinstance(a, Complex):
                assert a == b and a._components == b._components and same_maps(a._diffs, b._diffs)
                nonzero += bool(a._diffs)
            else:
                assert (a.source, a.target) == (b.source, b.target) and same_maps(a._components, b._components)
                nonzero += bool(a._components)
        assert got.rng.getstate() == want.rng.getstate()
    assert nonzero >= 60


@pytest.mark.parametrize("ring", [R22, Ring(3, 3), Ring(5, 2)])
def test_cohomology_support_matches_cohomology(ring):
    # the rank formula against the Jordan-canonical quotients
    from tricomplete.randomgen import Sampler

    s = Sampler(ring, random.Random(80 + ring.p))
    nonzero = 0
    for _ in range(30):
        x = s.complex(-2, 2, max_blocks=3)
        expected = frozenset(i for i in range(-3, 4) if not cohomology(x, i).is_zero())
        assert cohomology_support(x) == expected
        nonzero += bool(x._diffs)
    assert nonzero >= 10


# -- H^i off one rank profile ---------------------------------------------------


PROFILE_RINGS = (R22, Ring(3, 3), Ring(2, 4), Ring(5, 2), Ring(3, 4))


def profile_samples():
    """Every two-term complex over F_2[x]/(x^2) and F_3[x]/(x^2), and 20
    sampled complexes on degrees -1..1 over each of five rings."""
    from tricomplete.randomgen import Sampler

    yield from two_term_complexes(R22)
    yield from two_term_complexes(Ring(3, 2))
    for k, ring in enumerate(PROFILE_RINGS):
        s = Sampler(ring, random.Random(60 + k))
        yield from (s.complex(-1, 1, max_blocks=3) for _ in range(20))


def test_cohomology_types_equal_the_canonical_route():
    # the rank profile against the Jordan basis of the canonical quotient,
    # at every degree from one below a complex to one above it
    seen = {"degrees": 0, "nonzero": 0, "mixed": 0}
    for x in profile_samples():
        for i in range(-1, 3) if x.is_zero() else range(x.min_degree - 1, x.max_degree + 2):
            got, want = cohomology(x, i), canonical_cohomology(x, i)[0]
            assert (got.ring, got.blocks) == (want.ring, want.blocks), (x, i)
            seen["degrees"] += 1
            seen["nonzero"] += not got.is_zero()
            seen["mixed"] += len(set(got.blocks)) >= 2
    assert seen["degrees"] >= 1150 and seen["nonzero"] >= 350 and seen["mixed"] >= 40, seen


def iso_samples():
    """Identities, sampled endomorphisms and maps, maps into and out of 0 and
    resolution comparisons, over the sampled complexes and every two-term
    complex of profile_samples."""
    from tricomplete.randomgen import Sampler

    for k, ring in enumerate(PROFILE_RINGS):
        s = Sampler(ring, random.Random(70 + k))
        zero = zero_complex(ring)
        for _ in range(10):
            x, y = s.complex(-1, 1, max_blocks=2), s.complex(-1, 1, max_blocks=2)
            yield from (identity_chain_map(x), s.chain_map(x, x), s.chain_map(x, y),
                        ChainMap(x, zero, {}), ChainMap(zero, x, {}))
            if not x.is_zero():
                yield projective_resolution(x, x.min_degree - 2).comparison
    for ring in (R22, Ring(3, 2)):
        s = Sampler(ring, random.Random(78 + ring.p))
        for x in two_term_complexes(ring):
            yield from (identity_chain_map(x), s.chain_map(x, x))


def test_induces_iso_equals_the_induced_map_test():
    seen = {"iso": 0, "zero side": 0, "same type, no iso": 0, "types differ": 0}
    for f in iso_samples():
        for i in range(-3, 3):
            want = is_isomorphism(cohomology_map(f, i))
            assert induces_iso(f, i) == want, (f.source, f.target, i)
            a, b = cohomology(f.source, i), cohomology(f.target, i)
            if want and not a.is_zero():
                seen["iso"] += 1
            elif a.is_zero() or b.is_zero():
                seen["zero side"] += 1
            elif not want:
                seen["same type, no iso" if a == b else "types differ"] += 1
    assert seen["iso"] >= 400 and seen["zero side"] >= 250, seen
    assert seen["same type, no iso"] >= 40 and seen["types differ"] >= 20, seen


def test_cohomology_runs_two_eliminations_per_degree_and_builds_no_basis(count_calls):
    # one kernel and one rank profile per degree, none where X^i = 0, no
    # Jordan basis and no solve; with both sides built, induces_iso runs one
    # elimination, or none when a side is 0 or the types differ
    from tricomplete import linalg
    from tricomplete.rmodule import jordan_basis

    counts = count_calls(linalg._eliminate, linalg.solve, jordan_basis, quotient_canonicalize)
    profiled = bare = 0
    for f in iso_samples():
        for i in range(-2, 3):
            for x in (f.source, f.target):
                counts.clear()
                cohomology_data(x, i)
                most = 0 if x.component(i).is_zero() else 2
                assert counts["_eliminate"] <= most and set(counts) <= {"_eliminate"}, (x, i, counts)
                profiled += counts["_eliminate"] == 2
                bare += most == 0
            counts.clear()
            induces_iso(f, i)
            a, b = cohomology(f.source, i), cohomology(f.target, i)
            assert counts["_eliminate"] == int(a == b and not a.is_zero()), (f.source, f.target, i)
            assert set(counts) <= {"_eliminate"}
    assert profiled >= 600 and bare >= 100, (profiled, bare)


def cone_support_samples(ring, seed):
    """Chain maps of every shape the length path meets: sampled maps,
    composites g f, identities, maps with a zero source or target, and the
    twisted u : A -> B (+) C of the cartesian check with its g : C -> cone(u)."""
    from tricomplete.randomgen import Sampler

    s = Sampler(ring, random.Random(seed))
    zero = zero_complex(ring)
    out = []
    for _ in range(6):
        f, g = s.composable_pair(-2, 2, max_blocks=2)
        x = f.source
        out += [f, g, g @ f, identity_chain_map(x), ChainMap(zero, x, {}), ChainMap(x, zero, {})]
        f, h = s.corner(-2, 2, max_blocks=2)
        _, injs = direct_sum_complex([f.target, h.target], ring)
        u = add(injs[0] @ neg(f), injs[1] @ h)
        out += [u, cone(u).g @ injs[1]]
    return out


@pytest.mark.parametrize("ring", [R22, Ring(3, 3), Ring(2, 4), Ring(5, 2)], ids=str)
def test_cone_support_matches_the_built_cone(ring):
    # over F_3 and F_5 the sign of -d_X in the cone can be seen
    from tricomplete.metric import length, metric_i, metric_ii, metric_iii, object_length

    metrics = [metric_i(), metric_ii(), metric_iii(), metric_i(dual=True)]
    shapes = {"nonzero": 0, "acyclic": 0}
    for f in cone_support_samples(ring, seed=90 + ring.p + ring.n):
        z = cone(f).z
        supp = cone_support(f)
        assert supp == cohomology_support(z)
        assert is_quasi_iso(f) == is_acyclic(z)
        for m in metrics:
            assert length(f, m) == object_length(z, m)
        shapes["nonzero" if supp else "acyclic"] += 1
    assert min(shapes.values()) >= 5


def test_quasi_iso_composition():
    # resolutions give quasi-isos; compose two and check the composite
    x = module_complex(K22, 0)
    res = projective_resolution(x, -4)
    f = res.comparison
    assert not is_quasi_iso(f)  # truncated at -4, H^-4 of the free part survives
    res2 = projective_resolution(x, -6)
    # comparison is an iso on H^i for i > depth
    for i in range(-3, 2):
        assert is_isomorphism(cohomology_map(res2.comparison, i))


def test_composition_of_quasi_isos_is_quasi_iso():
    from tricomplete.randomgen import Sampler

    rng = random.Random(41)
    s = Sampler(R22, rng)
    for _ in range(8):
        x = s.complex(-2, 2, max_blocks=2)
        c1 = cone(identity_chain_map(s.complex(-2, 2, max_blocks=1)))
        c2 = cone(identity_chain_map(s.complex(-1, 1, max_blocks=1)))
        y, injs = direct_sum_complex([x, c1.z], R22)
        z, injs2 = direct_sum_complex([y, c2.z], R22)
        q1 = injs[0]   # x -> x (+) contractible
        q2 = injs2[0]  # y -> y (+) contractible
        assert is_quasi_iso(q1)
        assert is_quasi_iso(q2)
        assert is_quasi_iso(q2 @ q1)


# -- duality ------------------------------------------------------------------


def test_dualize_stalk_simple():
    x = module_complex(K22, 0)
    assert dualize(x) == x


def test_dualize_R_self_dual():
    x = module_complex(free_module(R22, 1), 0)
    d = dualize(x)
    assert d.component(0) == free_module(R22, 1)


def test_dualize_involution_and_cohomology_exchange():
    for ring in (R23, Ring(3, 3), Ring(3, 4), Ring(5, 3)):
        for f in sample_chain_maps(ring, seed=21, count=8):
            x = f.source
            dd = dualize(dualize(x))
            assert dd == x
            dx = dualize(x)
            for i in range(-4, 5):
                assert cohomology(dx, i) == cohomology(x, -i), (ring, i)


def dualize_chain_map(f: ChainMap) -> ChainMap:
    comps = {-i: dual_map(g) for i, g in f._components.items()}
    return ChainMap(dualize(f.target), dualize(f.source), comps)


def shift_chain_map(f: ChainMap, t: int) -> ChainMap:
    return ChainMap(shift(f.source, t), shift(f.target, t),
                    {i - t: g for i, g in f._components.items()})


def test_dualize_and_shift_act_on_chain_maps():
    for f in sample_chain_maps(R22, seed=22, count=6):
        # construction re-validates the commuting squares
        df = dualize_chain_map(f)
        assert df.source == dualize(f.target)
        assert df.target == dualize(f.source)
        assert is_quasi_iso(df) == is_quasi_iso(f)
        sf = shift_chain_map(f, 2)
        assert sf.source == shift(f.source, 2)
        for i in range(-4, 5):
            assert rank(cohomology_map(sf, i).matrix) == rank(cohomology_map(f, i + 2).matrix)


# -- resolutions --------------------------------------------------------------


def test_resolution_of_free_stalk_is_itself():
    R = free_module(R22, 1)
    x = module_complex(R, 0)
    res = projective_resolution(x, -3)
    assert res.complex == x
    assert res.syzygy.is_zero()


def test_resolution_of_k_is_periodic():
    x = module_complex(K22, 0)
    res = projective_resolution(x, -3)
    assert res.complex.degrees == [-3, -2, -1, 0]
    for i in res.complex.degrees:
        assert res.complex.component(i) == free_module(R22, 1)
    for i in range(-3, 0):
        # differentials are multiplication by x
        assert res.complex.differential(i).matrix == free_module(R22, 1).x_action()
    assert res.syzygy == K22


def test_resolution_of_acyclic_is_contractible():
    R = free_module(R22, 1)
    x = module_complex(R, 0)
    z = cone(identity_chain_map(x)).z
    res = projective_resolution(z, -4)
    assert res.complex.is_zero()
    assert res.syzygy.is_zero()


def test_resolution_comparison_iso_above_cut():
    rng = random.Random(31)
    from tricomplete.randomgen import Sampler

    s = Sampler(R22, rng)
    for _ in range(8):
        x = s.complex(-1, 2, max_blocks=2)
        if x.is_zero():
            continue
        res = projective_resolution(x, x.min_degree - 2)
        for i in range(x.min_degree - 1, (x.max_degree or 0) + 2):
            assert is_isomorphism(cohomology_map(res.comparison, i)), (x, i)
        # the free part is a complex of frees with no unit entries
        for i in res.complex.degrees:
            assert res.complex.component(i).is_free()


def test_resolution_complex_and_comparison_built_on_first_read():
    x = module_complex(RModule(R23, (2, 1)), 0)
    res = projective_resolution(x, -3)
    assert "complex" not in vars(res) and "comparison" not in vars(res)
    assert res.comparison.source is res.complex
    assert res.complex is res.complex and res.comparison is res.comparison
    assert res.complex == res.band(-3, 0)
    assert res.band(-1, -1) == Complex(R23, {-1: res.complex.component(-1)}, {})


def test_resolution_built_from_arrays_is_validated():
    # a stored degree above the cut is forged: d^cut is where the cut
    # kernel is read, so a forged d^cut would not reach validation
    y = Complex(R23, {0: RModule(R23, (2, 1)), 1: RModule(R23, (1,))}, {})
    res = projective_resolution(y, -3)
    # on a copied window, d^0 sends each generator of F^0 = R^3 to that of
    # F^1 = R: R-linear, but d^0 d^-1 != 0
    forged = np.hstack([np.eye(R23.n, dtype=np.int64)] * 3)
    assert (forged @ res.window.diffs[-1] % R23.p).any()
    bad_d = replace(res, window=replace(res.window, diffs={**res.window.diffs, 0: forged}))
    with pytest.raises(ValidationError):
        bad_d.complex
    x = module_complex(RModule(R23, (2, 1)), 0)
    res = projective_resolution(x, -3)
    window = res.window
    # swapping the two generators of F^0 = R^2 is R-linear but moves im d^-1
    bad_eps = replace(res, window=replace(window, eps={**window.eps, 0: np.roll(window.eps[0], R23.n, axis=1)}))
    with pytest.raises(ValidationError):
        bad_eps.comparison
    assert projective_resolution(x, -3).comparison.target is x
    # the window's arrays are shared by every resolution of x
    with pytest.raises(ValueError):
        projective_resolution(x, -1).window.diffs[-1][0, 0] = 1


def test_resolution_depth_precondition():
    x = module_complex(K22, 0)
    with pytest.raises(PreconditionError):
        projective_resolution(x, 1)
    # a cut at the lowest degree is refused too: every cut reads the window
    # [min-1, max] or splices below it
    with pytest.raises(PreconditionError, match="must be <= -1"):
        projective_resolution(x, 0)
    assert projective_resolution(x, -1).syzygy == K22


def test_resolution_stress_minimality_and_syzygy_recursion():
    from tricomplete.rmodule import Ring, RModule, syzygy_type
    from tricomplete.randomgen import Sampler

    for ring in (R22, R23, Ring(3, 2), Ring(5, 3)):
        rng = random.Random(ring.p * 100 + ring.n)
        s = Sampler(ring, rng)
        for _ in range(20):
            x = s.complex(-2, 2, max_blocks=2)
            if x.is_zero():
                continue
            d1 = x.min_degree - 1
            r1 = projective_resolution(x, d1)
            r2 = projective_resolution(x, d1 - 2)
            for res in (r1, r2):
                for i in res.complex.degrees:
                    assert res.complex.component(i).is_free()
                    f = res.complex._diffs.get(i)
                    if f is not None:
                        # the constant terms of the R-matrix entries
                        units = f.matrix.a[::ring.n, ::ring.n] % ring.p
                        assert not units.any(), "unit entry survived"
            # two cuts deeper, the syzygy has turned over twice
            expect = r1.syzygy.blocks
            for _ in range(2):
                expect = syzygy_type(RModule(ring, expect))
            assert r2.syzygy.blocks == expect, (x, r1.syzygy, r2.syzygy)


def test_minimal_resolution_ranks_follow_syzygy_closed_form():
    # the minimal resolution of a module M has F^(-t) = R^(#blocks of Omega^t M)
    from itertools import combinations_with_replacement

    from tricomplete.rmodule import syzygy_type

    for ring in (R22, Ring(3, 3), Ring(2, 4)):
        for k in (1, 2):
            for blocks in combinations_with_replacement(range(1, ring.n + 1), k):
                m = RModule(ring, blocks)
                res = projective_resolution(module_complex(m, 0), -3)
                omega = m
                for t in range(4):
                    assert res.complex.component(-t) == free_module(ring, len(omega.blocks)), (m, t)
                    omega = RModule(ring, syzygy_type(omega))
                assert res.syzygy == omega, m


# -- derived hom --------------------------------------------------------------


def ext_dim_oracle(mi: int, mj: int, d: int, ring: Ring) -> int:
    """Ext^d(R/x^mi, R/x^mj) via the explicit 2-periodic resolution of R/x^mi.

    The resolution alternates multiplication by x^mi and x^(n-mi); applying
    Hom(-, R/x^mj) gives an alternating sequence of multiplications whose
    kernels and images have closed-form dimensions.
    """
    n = ring.n
    if mi == n:  # free: no higher Ext
        return min(mi, mj) if d == 0 else 0
    ker = lambda a: min(a, mj)  # dim ker(x^a : R/x^mj -> R/x^mj)
    im = lambda a: mj - min(a, mj)
    if d == 0:
        return ker(mi)
    if d % 2 == 1:
        return ker(n - mi) - im(mi)
    return ker(mi) - im(n - mi)


def ext_dim_modules(m: RModule, nn: RModule, d: int) -> int:
    return sum(ext_dim_oracle(a, b, d, m.ring) for a in m.blocks for b in nn.blocks)


def test_ext_k_k_periodic():
    # deep cuts read the spliced periodic tail
    for ring in (R22, Ring(3, 3), Ring(3, 4), Ring(5, 3)):
        k = module_complex(RModule(ring, (1,)), 0)
        for d in range(0, 7):
            assert derived_hom(k, k, d) == 1, (ring, d)


def test_derived_hom_matches_periodic_oracle():
    rng = random.Random(5)
    for ring in (R22, R23, Ring(3, 2)):
        for _ in range(10):
            m = RModule(ring, tuple(rng.randint(1, ring.n) for _ in range(rng.randint(0, 2))))
            nn = RModule(ring, tuple(rng.randint(1, ring.n) for _ in range(rng.randint(0, 2))))
            d = rng.randint(0, 4)
            got = derived_hom(module_complex(m), module_complex(nn), d)
            assert got == ext_dim_modules(m, nn, d), (ring, m, nn, d)


def shifted_derived_hom(a, b, d):
    """derived_hom through the shifted complex: H^0 of Hom(P, T^d b) on
    the same band of P, the reference for reading Hom^d(P, b)."""
    if a.is_zero() or b.is_zero():
        return 0
    lo, hi = b.min_degree - d - 1, b.max_degree - d + 1
    pc = projective_resolution(a, min(a.min_degree - 1, lo)).band(lo, hi)
    tb = shift(b, d)
    _, d0 = numpy_hom_complex(pc, tb, 0)
    _, dm1 = numpy_hom_complex(pc, tb, -1)
    return d0.cols - rank(d0) - rank(dm1)


@pytest.mark.parametrize("ring", [R22, Ring(3, 3), Ring(3, 4), Ring(5, 2)], ids=str)
def test_derived_hom_reads_hom_d_of_b_without_shifting(ring):
    # Hom^k(P, T^d b) is Hom^(k+d)(P, b) with the same basis and rows, and
    # delta^k there is (-1)^d delta^(k+d) here
    from tricomplete.randomgen import Sampler

    rng = random.Random(90 + ring.p + ring.n)
    s = Sampler(ring, rng)
    nonzero = 0
    for _ in range(80):
        a, b = s.complex(-1, 1, max_blocks=2), s.complex(-1, 1, max_blocks=2)
        d = rng.randint(-3, 4)
        got = derived_hom(a, b, d)
        assert got == shifted_derived_hom(a, b, d), (a, b, d)
        nonzero += got > 0
        if not a.is_zero():
            pc = projective_resolution(a, a.min_degree - 3).complex
            for k in (-1, 0):
                (basis, delta, cols), (sbasis, sdelta, scols) = hom_complex(pc, b, k + d), \
                    hom_complex(pc, shift(b, d), k)
                assert [i for i, *_ in basis] == [i for i, *_ in sbasis]
                assert (len(delta), cols) == (len(sdelta), scols)
                assert all((u * (-1) ** d - v) % ring.p == 0
                           for row, srow in zip(delta, sdelta) for u, v in zip(row, srow))
    assert nonzero >= 20


def test_derived_hom_negative_degrees_vanish_for_modules():
    m = module_complex(RModule(R22, (2, 1)), 0)
    nn = module_complex(RModule(R22, (1, 1)), 0)
    for d in (-1, -2, -3):
        assert derived_hom(m, nn, d) == 0


def test_derived_hom_representability_of_cohomology():
    # Hom(R, T^d B) = H^d(B) as F_p dimensions
    rng = random.Random(6)
    from tricomplete.randomgen import Sampler

    s = Sampler(R22, rng)
    Rstalk = module_complex(free_module(R22, 1), 0)
    for _ in range(6):
        b = s.complex(-2, 2, max_blocks=2)
        for d in range(-3, 4):
            assert derived_hom(Rstalk, b, d) == cohomology(b, d).dim


def test_derived_hom_quasi_iso_invariance():
    rng = random.Random(7)
    from tricomplete.randomgen import Sampler

    s = Sampler(R22, rng)
    for _ in range(5):
        a = s.complex(-1, 1, max_blocks=2)
        b = s.complex(-1, 1, max_blocks=2)
        if a.is_zero():
            continue
        base = derived_hom(a, b, 1)
        ares = projective_resolution(a, a.min_degree - 3).complex
        assert derived_hom(ares, b, 1) == base


def test_derived_hom_duality_exchange():
    rng = random.Random(8)
    from tricomplete.randomgen import Sampler

    s = Sampler(R22, rng)
    for _ in range(5):
        a = s.complex(-1, 1, max_blocks=1)
        b = s.complex(-1, 1, max_blocks=1)
        for d in range(0, 3):
            assert derived_hom(a, b, d) == derived_hom(dualize(b), dualize(a), d)
