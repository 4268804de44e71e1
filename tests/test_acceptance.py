"""Acceptance suite.

One test per criterion; each prints a PASS/FAIL line (run with ``pytest -s``
to see them streamed).  Exact arithmetic throughout: every comparison is on
integers, Jordan types or Fraction lengths, tolerance zero.
"""

import functools
import random
from fractions import Fraction

from tricomplete.linalg import rank
from tricomplete.rmodule import RModule, Ring, free_module, stable_hom
from tricomplete.complexes import (
    cohomology,
    cone,
    derived_hom,
    dualize,
    identity_chain_map,
    module_complex,
)
from tricomplete.metric import (
    check_good_axioms,
    equivalent,
    in_ball,
    metric_i,
    metric_ii,
    metric_iii,
    object_length,
    strong_triangle_check,
    cartesian_invariance_check,
)
from tricomplete.cauchy import colimit, is_cauchy, truncation_tower
from tricomplete.completion import (
    Verdict,
    complete,
    has_bounded_injective_resolution,
    in_S,
    is_perfect,
    sing_hom,
    syzygy_class,
)
from tricomplete.randomgen import Sampler

from reference import amplitude, composite, direct_sum_complex, separating_complexes, shifted_family

R22 = Ring(2, 2)
R33 = Ring(3, 3)
R34 = Ring(3, 4)
R53 = Ring(5, 3)
K22 = RModule(R22, (1,))

METRICS = {"i": metric_i, "ii": metric_ii, "iii": metric_iii}


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*a, **kw):
            try:
                detail = fn(*a, **kw)
            except BaseException:
                print("ACCEPTANCE %d %s: FAIL" % (num, name))
                raise
            suffix = " (%s)" % detail if detail else ""
            print("ACCEPTANCE %d %s: PASS%s" % (num, name, suffix))
        return wrapper
    return deco


@criterion(1, "good-metric axioms")
def test_criterion_1_good_metric_axioms():
    checked = 0
    for r, ring in enumerate((R22, R33)):
        for m, (name, ctor) in enumerate(METRICS.items()):
            rep = check_good_axioms(ctor(), ring, levels=50, samples=200,
                                    seed=len(METRICS) * r + m)
            assert rep.ok, (name, ring, rep.shift_violations, rep.fuzz_violations)
            assert rep.levels_checked == 50
            assert rep.fuzz_samples >= 200
            checked += rep.fuzz_samples
    return "6 metric/ring pairs, %d fuzz triangles" % checked


@criterion(2, "strong triangle inequality and cartesian invariance")
def test_criterion_2_strong_triangle_and_cartesian():
    pair_count = square_count = 0
    for name, ctor in METRICS.items():
        m = ctor()
        rng = random.Random(1000 + len(name))
        s = Sampler(R22, rng)
        for _ in range(500):
            f, g = s.composable_pair(-2, 2, max_blocks=1)
            rep = strong_triangle_check(f, g, m)
            assert rep.ok, (name, rep)
            pair_count += 1
        for _ in range(200):
            f, h = s.corner(-2, 2, max_blocks=1)
            rep = cartesian_invariance_check(f, h, m)
            assert rep.ok, (name, rep)
            square_count += 1
    return "%d composable pairs, %d squares, zero violations" % (pair_count, square_count)


@criterion(3, "metric (in)equivalence and duality")
def test_criterion_3_equivalence_and_duality():
    # pairwise inequivalent, with honest separating families
    pairs = [("i", "ii"), ("i", "iii"), ("ii", "iii")]
    for a, b in pairs:
        m1, m2 = METRICS[a](), METRICS[b]()
        rep = equivalent(m1, m2, levels=12, search_bound=80)
        assert not rep.equivalent, (a, b)
        assert rep.separating
        for mm, x in separating_complexes(rep, R22):
            direction = rep.separating[0][0]
            inner, outer = (m1, m2) if direction == "1->2" else (m2, m1)
            assert in_ball(x, mm, inner)
            assert not in_ball(x, rep.fail_level, outer)
    # {B_n} equivalent to {T B_n} with witness m(n) = n + 1
    for name, ctor in METRICS.items():
        base = ctor()
        rep = equivalent(base, shifted_family(base, 1), levels=20, search_bound=60)
        assert rep.equivalent, name
        assert rep.witness[1] == 1
        for n in range(2, 21):
            assert rep.witness[n] == n + 1, (name, n, rep.witness[n])
    # duality bridges on >= 100 random complexes
    total = 0
    for ring, seed in ((R22, 31), (Ring(3, 2), 37)):
        s = Sampler(ring, random.Random(seed))
        for _ in range(60):
            x = s.complex(-3, 3, max_blocks=2)
            dx = dualize(x)
            for n in range(1, 7):
                assert in_ball(dx, n, metric_i()) == in_ball(x, n, metric_ii())
                assert in_ball(dx, n, metric_ii()) == in_ball(x, n, metric_i())
                assert in_ball(dx, n, metric_iii()) == in_ball(x, n, metric_iii())
            total += 1
    return "3 inequivalent pairs, shift-equivalence witness n+1, %d dualized complexes" % total


def _all_jordan_types(ring, max_dim=3):
    out = []

    def rec(prefix, smallest, left):
        for j in range(min(smallest, ring.n, left), 0, -1):
            t = prefix + (j,)
            out.append(t)
            rec(t, j, left - j)

    rec((), max_dim, max_dim)
    return [tuple(sorted(t, reverse=True)) for t in out]


@criterion(4, "completion flagship: S(Perf R) recovers the modules")
def test_criterion_4_completion_flagship():
    # the k-tower over F_2[x]/(x^2), in full detail
    m = metric_i()
    t = truncation_tower(K22)
    cert = is_cauchy(t, m, horizon=20, levels=10)
    assert cert.is_cauchy and cert.conclusive
    for n in range(1, 11):
        assert cert.thresholds[n] == n
    # measured lengths exactly 1/(k+1), via honest cone computations
    for k in range(1, 6):
        for j in range(k + 1, 7):
            z = cone(composite(t, k, j)).z
            assert object_length(z, m) == Fraction(1, k + 1)
    c = complete(t, m, horizon=12, levels=6)
    assert c.table.support() == [0]
    assert c.table.module_at(0) == K22
    assert in_S(c) is Verdict.YES
    assert not is_perfect(c.representative)
    cls = syzygy_class(c.representative)
    assert sing_hom(cls, cls) == 1
    # repeat over every Jordan type of total dimension <= 3, n <= 3
    towers = 0
    for ring in (Ring(2, 1), Ring(2, 2), Ring(2, 3)):
        for blocks in _all_jordan_types(ring):
            mod = RModule(ring, blocks)
            tw = truncation_tower(mod)
            cert = is_cauchy(tw, metric_i(), horizon=12, levels=6)
            assert cert.is_cauchy and cert.conclusive, (ring, blocks)
            want = (lambda n: 1) if mod.is_free() else (lambda n: n)
            for n in range(1, 7):
                assert cert.thresholds[n] == want(n), (ring, blocks, n)
            c = complete(tw, metric_i(), horizon=12, levels=6)
            assert c.table.support() == ([0] if not mod.is_zero() else [])
            assert c.table.module_at(0) == mod
            assert in_S(c) is Verdict.YES
            assert is_perfect(c.representative) == mod.is_free()
            cls = syzygy_class(c.representative)
            assert cls.is_zero() == mod.is_free()
            expected = stable_hom(mod.strip_free(), mod.strip_free())[0]
            assert sing_hom(cls, cls) == expected, (ring, blocks)
            towers += 1
    assert towers >= 10
    return "flagship + %d towers over n <= 3" % towers


def _sample_300(seed=424, ring=R22, count=300):
    rng = random.Random(seed)
    s = Sampler(ring, rng)
    out = []
    while len(out) < count:
        lo = rng.randint(-4, 0)
        x = s.complex(lo, lo + rng.randint(0, 4), max_blocks=3)
        if x.is_zero():
            continue
        assert amplitude(x) <= 4
        assert all(x.component(i).dim <= 3 * ring.n for i in x.degrees)
        out.append(x)
    return out


@criterion(5, "perfection: syzygy cut agrees with the Ext probe")
def test_criterion_5_perfection_oracle():
    k_stalk = module_complex(K22, 0)
    disagreements = 0
    for x in _sample_300():
        a, b = x.min_degree, x.max_degree
        base = (b - a) + 3 + max(0, -b)
        hit0 = derived_hom(x, k_stalk, base)
        hit1 = derived_hom(x, k_stalk, base + 1)
        # a hit in two consecutive probe degrees certifies non-perfection
        assert (hit0 == 0) == (hit1 == 0), (x, hit0, hit1)
        probe_perfect = hit0 == 0 and hit1 == 0
        if is_perfect(x) != probe_perfect:
            disagreements += 1
    assert disagreements == 0
    return "300 complexes, zero disagreements"


@criterion(6, "injective boundedness equals perfection")
def test_criterion_6_inj_bounded_equals_perfect():
    # R is self-injective, so has_bounded_injective_resolution reads
    # is_perfect(x); the bounded projective resolution of dualize(x) is
    # the independent leg
    samples = _sample_300() + [x for r, ring in enumerate((R33, R34, R53))
                               for x in _sample_300(seed=r, ring=ring, count=30)]
    for x in samples:
        perfect = is_perfect(x)
        assert has_bounded_injective_resolution(x) == perfect, x
        assert is_perfect(dualize(x)) == perfect, x
    return "%d complexes over 4 rings, zero disagreements" % len(samples)


@criterion(7, "degenerate ring n = 1")
def test_criterion_7_field_case():
    for p in (2, 3):
        ring = Ring(p, 1)
        s = Sampler(ring, random.Random(600 + p))
        for _ in range(25):
            x = s.complex(-2, 2, max_blocks=2)
            assert is_perfect(x)
            cls = syzygy_class(x)
            assert cls.is_zero()
            assert sing_hom(cls, cls) == 0
        for blocks in ((1,), (1, 1), (1, 1, 1)):
            mod = RModule(ring, blocks)
            tw = truncation_tower(mod)
            cert = is_cauchy(tw, metric_i(), horizon=8, levels=4)
            assert cert.is_cauchy
            table = colimit(tw, (-2, 1), 8, cert)
            # the tower is eventually (immediately) constant: the colimit is
            # its eventual value
            assert table.module_at(0) == mod
            assert table.support() == [0]
            assert in_S(complete(tw, metric_i(), horizon=8, levels=4)) is Verdict.YES
    return "everything perfect, all sing-homs zero, colimits eventual"


@criterion(8, "derived hom sanity and quasi-isomorphism invariance")
def test_criterion_8_derived_hom():
    k_stalk = module_complex(K22, 0)
    for d in range(0, 7):
        assert derived_hom(k_stalk, k_stalk, d) == 1, d
    # invariance under quasi-isomorphic replacement: inflate either side by
    # a contractible summand (an honest quasi-isomorphism)
    rng = random.Random(808)
    s = Sampler(R22, rng)
    samples = 0
    while samples < 100:
        a = s.complex(-1, 1, max_blocks=2)
        b = s.complex(-1, 1, max_blocks=2)
        w = s.complex(-1, 1, max_blocks=1)
        if w.is_zero():
            continue
        contractible = cone(identity_chain_map(w)).z
        d = rng.randint(-1, 2)
        base = derived_hom(a, b, d)
        if samples % 2 == 0:
            a2, _ = direct_sum_complex([a, contractible], R22)
            assert derived_hom(a2, b, d) == base, (a, b, d)
        else:
            b2, _ = direct_sum_complex([b, contractible], R22)
            assert derived_hom(a, b2, d) == base, (a, b, d)
        samples += 1
    return "Ext^d(k,k) = 1 for d <= 6; %d replacement samples" % samples
