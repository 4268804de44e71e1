import random
from fractions import Fraction

import pytest

from tricomplete.rmodule import RModule, Ring, direct_sum, free_module
from tricomplete.complexes import (
    ChainMap,
    PreconditionError,
    cohomology_support,
    cone,
    dualize,
    identity_chain_map,
    module_complex,
    shift,
    zero_complex,
)
from tricomplete.metric import (
    GoodMetric,
    LinearExpr,
    VanishingSpec,
    _witness_degree,
    cartesian_invariance_check,
    check_good_axioms,
    equivalent,
    first_shift_violation,
    in_ball,
    length,
    metric_i,
    metric_ii,
    metric_iii,
    object_length,
    shifted_family,
    standard_metric,
    strong_triangle_check,
)
from tricomplete.randomgen import Sampler

R22 = Ring(2, 2)
K = RModule(R22, (1,))


def sum_projections(total, parts):
    """Projection chain maps total -> parts[k] of direct_sum_complex(parts),
    which returns only injections: degreewise, direct_sum's projections."""
    return [ChainMap(total, x, {i: direct_sum([y.component(i) for y in parts], total.ring)[2][k]
                                for i in x.degrees})
            for k, x in enumerate(parts)]


def k_at(deg, ring=R22):
    return module_complex(RModule(ring, (1,)), deg)


# -- vanishing specs ----------------------------------------------------------


def test_spec_membership_and_shift():
    s = VanishingSpec.ray_above(-3)
    assert s.contains(-2) and s.contains(10) and not s.contains(-3)
    assert s.shifted(2).contains(0) and not s.shifted(2).contains(-1)
    assert s.negated().contains(2) and not s.negated().contains(3)
    i = VanishingSpec.interval(-2, 2)
    assert i.contains(0) and i.contains(1) and not i.contains(2)
    assert VanishingSpec.interval(0, 1).is_empty()


def test_spec_subset():
    assert VanishingSpec.ray_above(0).is_subset(VanishingSpec.ray_above(-2))
    assert not VanishingSpec.ray_above(-2).is_subset(VanishingSpec.ray_above(0))
    assert VanishingSpec.interval(-2, 2).is_subset(VanishingSpec.interval(-3, 3))
    assert not VanishingSpec.ray_above(0).is_subset(VanishingSpec.interval(-100, 100))
    u = VanishingSpec.ray_above(5).union(VanishingSpec.interval(2, 6))
    assert u.is_subset(VanishingSpec.ray_above(2))
    assert VanishingSpec.interval(0, 200001).is_subset(VanishingSpec.ray_above(-1))
    # adjacent runs of the target merge; a gap between them does not
    v = VanishingSpec.interval(-5, 0).union(VanishingSpec.ray_above(-1))
    assert VanishingSpec.ray_above(-5).is_subset(v)
    assert not VanishingSpec.ray_above(-5).is_subset(
        VanishingSpec.interval(-5, 0).union(VanishingSpec.ray_above(0)))


def test_witness_degree_exact():
    assert _witness_degree(VanishingSpec.ray_above(0), VanishingSpec.interval(0, 600)) == 600
    assert _witness_degree(VanishingSpec.ray_below(0), VanishingSpec.interval(-700, 0)) == -700
    # the first piece of the source is fully covered: the witness comes
    # from the second
    src = VanishingSpec.interval(0, 5).union(VanishingSpec.ray_above(8))
    tgt = VanishingSpec.interval(-1, 20).union(VanishingSpec.interval(20, 30))
    assert _witness_degree(src, tgt) == 20
    assert _witness_degree(VanishingSpec.interval(0, 5), tgt) is None


# -- ball membership -----------------------------------------------------------


def test_ball_one_is_everything():
    for m in (metric_i(), metric_ii(), metric_iii()):
        assert in_ball(k_at(0), 1, m)
        assert in_ball(k_at(17), 1, m)


def test_k_at_zero_outside_metric_i_ball_two():
    assert not in_ball(k_at(0), 2, metric_i())


def test_acyclic_in_every_ball():
    x = module_complex(free_module(R22, 1), 0)
    z = cone(identity_chain_map(x)).z
    for m in (metric_i(), metric_ii(), metric_iii()):
        for n in (1, 2, 5, 20):
            assert in_ball(z, n, m)


def test_ball_membership_examples():
    # k at degree -5: in B_n of metric i iff n <= 5
    x = k_at(-5)
    for n in range(1, 9):
        assert in_ball(x, n, metric_i()) == (n <= 5)
        assert in_ball(x, n, metric_ii()) == (n == 1)
        assert in_ball(x, n, metric_iii()) == (n <= 5)


# -- lengths --------------------------------------------------------------------


def test_length_of_identity_zero():
    x = k_at(0)
    assert length(identity_chain_map(x), metric_i()) == 0


def test_length_of_zero_to_deep_stalk():
    f = ChainMap(zero_complex(R22), k_at(-5), {})
    assert length(f, metric_i()) == Fraction(1, 5)


def test_length_of_zero_to_k_at_origin():
    f = ChainMap(zero_complex(R22), k_at(0), {})
    assert length(f, metric_i()) == 1


def _custom(name, pieces, dual=False):
    return GoodMetric(name, [(p[0],) + tuple(LinearExpr(*e) for e in p[1:]) for p in pieces],
                      dual=dual)


CUSTOM_GOOD = [
    _custom("steep", [("above", (-2, 1))]),
    _custom("steep-below", [("below", (2, -3))], dual=True),
    _custom("wide", [("interval", (-2, 1), (1, 5))]),
    _custom("union", [("above", (-1, 7)), ("interval", (-2, -4), (2, -9))]),
    _custom("union", [("below", (1, 2)), ("interval", (-1, 3), (2, 0))], dual=True),
]


def test_closed_forms_agree_with_exhaustive_ball_scan():
    rng = random.Random(99)
    metrics = [metric_i(), metric_ii(), metric_iii(),
               metric_i(dual=True), metric_ii(dual=True), metric_iii(dual=True),
               shifted_family(metric_i(), 1), shifted_family(metric_iii(), -2)] + CUSTOM_GOOD
    assert all(first_shift_violation(m) is None for m in metrics)
    for ring in (R22, Ring(3, 2)):
        s = Sampler(ring, rng)
        for _ in range(12):
            x = s.complex(-4, 4, max_blocks=1)
            supp = cohomology_support(x)
            if not supp:
                continue
            for m in metrics:
                lvl = m.ball_level(supp)
                for n in range(1, 51):
                    assert in_ball(x, n, m) == (lvl is None or n <= lvl), (m.name, supp, n)


def test_length_invariant_under_quasi_iso_composition():
    from tricomplete.complexes import direct_sum_complex

    rng = random.Random(43)
    s = Sampler(R22, rng)
    for _ in range(12):
        x = s.complex(-2, 2, max_blocks=1)
        y = s.complex(-2, 2, max_blocks=1)
        f = s.chain_map(x, y)
        c = cone(identity_chain_map(s.complex(-1, 1, max_blocks=1))).z
        # pre-compose with the quasi-iso projection (x (+) contractible) -> x
        xc, _ = direct_sum_complex([x, c], R22)
        projs = sum_projections(xc, [x, c])
        pre = f @ projs[0]
        # post-compose with the quasi-iso inclusion y -> (y (+) contractible)
        yc, injs = direct_sum_complex([y, c], R22)
        post = injs[0] @ f
        for m in (metric_i(), metric_ii(), metric_iii()):
            assert length(pre, m) == length(f, m)
            assert length(post, m) == length(f, m)


def test_length_values_are_unit_fractions():
    rng = random.Random(5)
    s = Sampler(R22, rng)
    for _ in range(20):
        x = s.complex(-3, 3, max_blocks=2)
        y = s.complex(-3, 3, max_blocks=2)
        f = s.chain_map(x, y)
        for m in (metric_i(), metric_ii(), metric_iii()):
            l = length(f, m)
            assert l == 0 or (l.numerator == 1 and l.denominator >= 1)
            assert l <= 1


# -- duality bridges -------------------------------------------------------------


def test_duality_bridge_i_ii_and_iii_self_dual():
    rng = random.Random(13)
    s = Sampler(R22, rng)
    for _ in range(25):
        x = s.complex(-3, 3, max_blocks=2)
        dx = dualize(x)
        for n in range(1, 8):
            assert in_ball(dx, n, metric_i()) == in_ball(x, n, metric_ii())
            assert in_ball(dx, n, metric_ii()) == in_ball(x, n, metric_i())
            assert in_ball(dx, n, metric_iii()) == in_ball(x, n, metric_iii())


def test_dual_flag_realizes_opposite_family():
    # family (i) measured on the opposite side is family (ii), symbolically
    m1d = metric_i(dual=True)
    m2 = metric_ii()
    for n in range(1, 30):
        a, b = m1d.effective_spec(n), m2.effective_spec(n)
        assert a.is_subset(b) and b.is_subset(a)


# -- axioms -----------------------------------------------------------------------


def test_good_axioms_pass_for_standard_metrics():
    for ring in (R22, Ring(3, 3)):
        for m in (metric_i(), metric_ii(), metric_iii()):
            rep = check_good_axioms(m, ring, levels=50, samples=30, seed=4)
            assert rep.ok, rep


def test_broken_family_reports_shift_violation():
    broken = GoodMetric("broken", [("above", LinearExpr(0, 0))])
    rep = check_good_axioms(broken, R22, levels=10, samples=0, seed=0)
    assert not rep.ok
    n, t, deg = rep.shift_violations[0]
    # verify the witness honestly: k at deg is in B_(n+1) but its t-shift
    # escapes B_n
    w = k_at(deg)
    assert in_ball(w, n + 1, broken)
    assert not in_ball(shift(w, t), n, broken)


def test_late_shift_violation_reported_past_checked_levels():
    # up to level 99 the interval piece joins the ray; at level 100 a gap
    # opens at degree -100, so B_100 is not inside B_99
    late2 = _custom("late2", [("above", (-1, 0)), ("interval", (-3, 0), (-2, 100))])
    for levels in (8, 50):
        rep = check_good_axioms(late2, R22, levels=levels, samples=0, seed=0)
        assert not rep.ok
        assert rep.shift_violations == [(99, -1, -100)]
    n, t, deg = rep.shift_violations[0]
    w = k_at(deg)
    assert in_ball(w, n + 1, late2)
    assert not in_ball(shift(w, t), n, late2)
    # within the checked levels, the report is every violation found there
    rep = check_good_axioms(late2, R22, levels=100, samples=0, seed=0)
    assert [v[0] for v in rep.shift_violations] == [99, 99, 99, 100, 100, 100]


def test_shifted_family_is_shift_of_balls():
    rng = random.Random(31)
    s = Sampler(R22, rng)
    xs = [s.complex(-4, 4, max_blocks=1) for _ in range(10)]
    for m in [metric_i(), metric_ii(), metric_iii(), metric_i(dual=True),
              metric_ii(dual=True), metric_iii(dual=True)] + CUSTOM_GOOD:
        for t in (1, -2):
            mt = shifted_family(m, t)
            for x in xs:
                for n in range(1, 8):
                    assert in_ball(x, n, mt) == in_ball(shift(x, -t), n, m), (m.display_name(), t, n)


# -- equivalence -------------------------------------------------------------------


def test_metric_equivalent_to_itself_with_identity_witness():
    for m in (metric_i(), metric_ii(), metric_iii()):
        rep = equivalent(m, m, levels=12)
        assert rep.equivalent
        assert all(rep.witness[n] == n for n in range(1, 13))


def test_metrics_i_ii_iii_pairwise_inequivalent():
    pairs = [(metric_i(), metric_ii()), (metric_i(), metric_iii()), (metric_ii(), metric_iii())]
    for m1, m2 in pairs:
        rep = equivalent(m1, m2, levels=10, search_bound=60)
        assert not rep.equivalent
        assert rep.separating
        # verify the separating family honestly
        for mm, x in rep.separating_complexes(R22):
            direction, _, _ = rep.separating[0]
            inner, outer = (m1, m2) if direction == "1->2" else (m2, m1)
            assert in_ball(x, mm, inner)
            assert not in_ball(x, rep.fail_level, outer)


def test_shifted_family_equivalent_with_witness_n_plus_one():
    for base in (metric_i(), metric_ii(), metric_iii()):
        rep = equivalent(base, shifted_family(base, 1), levels=12, search_bound=40)
        assert rep.equivalent
        for n in range(2, 13):
            assert rep.witness[n] == n + 1, (base.name, n, rep.witness)


def test_standard_metric_parser():
    assert standard_metric("i").name == "i"
    assert standard_metric("iii:dual").dual
    with pytest.raises(ValueError):
        standard_metric("iv")


# -- strong triangle and cartesian invariance ---------------------------------------


def test_strong_triangle_identity_edge():
    x = k_at(-2)
    f = identity_chain_map(x)
    g = ChainMap(x, k_at(-3), {})
    rep = strong_triangle_check(f, g, metric_i())
    assert rep.ok
    assert rep.length_f == 0


def test_strong_triangle_non_composable_rejected():
    with pytest.raises(PreconditionError):
        strong_triangle_check(identity_chain_map(k_at(0)), identity_chain_map(k_at(1)),
                              metric_i())


def test_strong_triangle_fuzz_small():
    rng = random.Random(17)
    s = Sampler(R22, rng)
    for m in (metric_i(), metric_ii(), metric_iii()):
        for _ in range(40):
            f, g = s.composable_pair(-2, 2, max_blocks=1)
            rep = strong_triangle_check(f, g, m)
            assert rep.ok, (m.name, rep)


def test_cartesian_invariance_identity_corner():
    rng = random.Random(19)
    s = Sampler(R22, rng)
    for _ in range(10):
        a = s.complex(-2, 2, max_blocks=1)
        b = s.complex(-2, 2, max_blocks=1)
        f = s.chain_map(a, b)
        rep = cartesian_invariance_check(f, identity_chain_map(a), metric_i())
        assert rep.ok


def test_cartesian_invariance_zero_corner_is_defining_reduction():
    # h = 0 into the zero complex: g is 0 -> cone(f), the defining reduction
    rng = random.Random(23)
    s = Sampler(R22, rng)
    for _ in range(10):
        a = s.complex(-2, 2, max_blocks=1)
        b = s.complex(-2, 2, max_blocks=1)
        f = s.chain_map(a, b)
        h = ChainMap(a, zero_complex(R22), {})
        rep = cartesian_invariance_check(f, h, metric_i())
        assert rep.ok
        assert rep.length_f == object_length(cone(f).z, metric_i())


def test_cartesian_invariance_fuzz_small():
    rng = random.Random(29)
    s = Sampler(R22, rng)
    for m in (metric_i(), metric_iii()):
        for _ in range(25):
            f, h = s.corner(-2, 2, max_blocks=1)
            rep = cartesian_invariance_check(f, h, m)
            assert rep.ok, (m.name, rep)
