import dataclasses
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from tricomplete import metric
from tricomplete.rmodule import RModule, Ring, free_module
from tricomplete.complexes import (
    ChainMap,
    PreconditionError,
    cohomology_support,
    cone,
    cone_support,
    dualize,
    identity_chain_map,
    module_complex,
    pushout_cone_support,
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
    shift_violations,
    standard_metric,
    strong_triangle_check,
)
from tricomplete.randomgen import Sampler

from reference import (
    add,
    composite,
    direct_sum_complex,
    homotopy_pushout,
    neg,
    separating_complexes,
    shifted_family,
    sum_projections,
)

R22 = Ring(2, 2)
K = RModule(R22, (1,))


def k_at(deg, ring=R22):
    return module_complex(RModule(ring, (1,)), deg)


# -- vanishing specs ----------------------------------------------------------


INF = math.inf


def spec(*runs):
    return VanishingSpec(tuple(runs))


def test_spec_membership_and_shift():
    s = spec((-2, INF))
    assert s.contains(-2) and s.contains(10) and not s.contains(-3)
    assert s.shifted(2).contains(0) and not s.shifted(2).contains(-1)
    i = spec((-1, 1))
    assert i.contains(0) and i.contains(1) and not i.contains(2)
    assert not any(VanishingSpec.empty().contains(d) for d in range(-5, 6))


def test_spec_subset():
    assert spec((1, INF)).is_subset(spec((-1, INF)))
    assert not spec((-1, INF)).is_subset(spec((1, INF)))
    assert spec((-1, 1)).is_subset(spec((-2, 2)))
    assert not spec((1, INF)).is_subset(spec((-99, 99)))
    assert spec((6, INF), (3, 5)).is_subset(spec((3, INF)))
    assert spec((1, 200000)).is_subset(spec((0, INF)))
    # adjacent runs of the target merge; a gap between them does not
    assert spec((-4, INF)).is_subset(spec((-4, -1), (0, INF)))
    assert not spec((-4, INF)).is_subset(spec((-4, -1), (1, INF)))


def test_witness_degree_exact():
    assert _witness_degree(spec((1, INF)), spec((1, 599))) == 600
    assert _witness_degree(spec((-INF, -1)), spec((-699, -1))) == -700
    # the first run of the source is fully covered: the witness comes
    # from the second
    tgt = spec((0, 19), (21, 29))
    assert _witness_degree(spec((1, 4), (9, INF)), tgt) == 20
    assert _witness_degree(spec((1, 4)), tgt) is None


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


# -- closed runs against the tagged piece form they replaced --------------------


def reference_negate_piece(p):
    kind = {"above": "below", "below": "above", "interval": "interval"}[p[0]]
    return (kind,) + tuple(-e for e in reversed(p[1:]))


@dataclass(frozen=True)
class ReferenceVanishingSpec:
    """The tagged vanishing spec: ("above", a) = {i > a}, ("below", b) =
    {i < b}, ("interval", a, b) = {a < i < b}; the reference for the
    closed runs of VanishingSpec."""

    pieces: tuple = ()

    def contains(self, i):
        return any(p[0] == "above" and i > p[1] or p[0] == "below" and i < p[1]
                   or p[0] == "interval" and p[1] < i < p[2] for p in self.pieces)

    def shifted(self, t):
        return ReferenceVanishingSpec(tuple((p[0],) + tuple(e + t for e in p[1:])
                                            for p in self.pieces))

    def runs(self):
        spans = sorted((p[1] + 1, math.inf) if p[0] == "above"
                       else (-math.inf, p[1] - 1) if p[0] == "below"
                       else (p[1] + 1, p[2] - 1) for p in self.pieces)
        merged = []
        for lo, hi in spans:
            if merged and lo <= merged[-1][1] + 1:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        return [tuple(r) for r in merged]

    def is_subset(self, other):
        target = other.runs()
        return all(any(lo >= olo and hi <= ohi for olo, ohi in target) for lo, hi in self.runs())


def reference_effective_pieces(m):
    return tuple(reference_negate_piece(p) for p in m.pieces) if m.dual else m.pieces


def reference_effective_spec(m, n):
    if n < 1:
        raise PreconditionError("ball level must be >= 1, got %d" % n)
    if n == 1:
        return ReferenceVanishingSpec()
    at_n = [(p[0],) + tuple(e(n) for e in p[1:]) for p in reference_effective_pieces(m)]
    return ReferenceVanishingSpec(tuple(q for q in at_n if q[0] != "interval" or q[2] - q[1] > 1))


def reference_least_level(constraints):
    lo, hi = 2, math.inf
    for c in constraints:
        if c.a > 0:
            lo = max(lo, -((c.b - 1) // c.a))
        elif c.a < 0:
            hi = min(hi, (1 - c.b) // c.a)
        elif c.b <= 0:
            return None
    return lo if lo <= hi else None


def reference_interval_nonempty(p):
    return LinearExpr(p[2].a - p[1].a, p[2].b - p[1].b - 1)


def reference_meeting_constraints(p, d, ray):
    if p[0] == "below":
        return [] if ray else [LinearExpr(p[1].a, p[1].b - d)]
    out = [LinearExpr(-p[1].a, d - p[1].b)]
    if p[0] == "interval":
        out.append(reference_interval_nonempty(p) if ray else LinearExpr(p[2].a, p[2].b - d))
    return out


def reference_ball_level(m, supp, below=None):
    """The least level some tagged piece meets, minus 1: exact for nested
    families only."""
    probes = [(d, False) for d in supp] + ([] if below is None else [(below, True)])
    hits = [reference_least_level(reference_meeting_constraints(p, d, ray))
            for p in reference_effective_pieces(m) for d, ray in probes]
    first = min((n for n in hits if n is not None), default=None)
    return None if first is None else first - 1


def reference_witness_degree(a, b):
    runs = b.runs()
    for p in a.pieces:
        if p[0] == "below":
            i = p[1] - 1
            for lo, hi in reversed(runs):
                if lo <= i <= hi:
                    i = lo - 1
            if i > -math.inf:
                return i
        else:
            i = p[1] + 1
            for lo, hi in runs:
                if lo <= i <= hi:
                    i = hi + 1
            if i < (math.inf if p[0] == "above" else p[2]):
                return i
    return None


def reference_fail_level(inner, outer):
    def first_nonempty(m):
        hits = [2 if p[0] != "interval" else reference_least_level([reference_interval_nonempty(p)])
                for p in reference_effective_pieces(m)]
        return min((n for n in hits if n is not None), default=None)

    rays_in, rays_out = ({p[0] for p in reference_effective_pieces(m)} - {"interval"}
                         for m in (inner, outer))
    if not rays_out <= rays_in:
        return 2
    return first_nonempty(outer) if first_nonempty(inner) is None else None


def draw_metric(rng):
    """A family of one to three pieces with endpoints a*n + b, a in -3..3
    and b in -4..4, dual 30% of the time; good or not."""
    pieces = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("above", "below", "interval"))
        pieces.append((kind,) + tuple(LinearExpr(rng.randint(-3, 3), rng.randint(-4, 4))
                                      for _ in range(2 if kind == "interval" else 1)))
    return GoodMetric("drawn", pieces, dual=rng.random() < 0.3)


def metric_outputs(pool):
    """Every verdict the pool's specs decide: spec sets and runs, shift
    violations, axiom reports and equivalence reports (or refusals)."""
    out = []
    for m in pool:
        out.append([(sorted(i for i in range(-40, 41) if m.effective_spec(n).contains(i)),
                     m.effective_spec(n).runs()) for n in range(1, 9)])
        out.append([shift_violations(m, n) for n in range(1, 12)])
        out.append(first_shift_violation(m))
        out.append(dataclasses.asdict(check_good_axioms(m, R22, levels=6, samples=0)))
    for m1 in pool:
        for m2 in pool:
            try:
                out.append(dataclasses.asdict(equivalent(m1, m2, levels=6, search_bound=40)))
            except PreconditionError as e:
                out.append(str(e))
    return out


def test_closed_runs_decide_what_the_tagged_pieces_decided(draw_good_metric, monkeypatch):
    rng = random.Random(2024)
    draws = [draw_good_metric(rng) for _ in range(24)] + [draw_metric(rng) for _ in range(16)]
    draws += [metric_i(), metric_ii(dual=True), metric_iii()] + CUSTOM_GOOD

    def fresh():  # new objects, so no cached goodness crosses over
        return [GoodMetric(m.name, m.pieces, m.dual) for m in draws]

    with monkeypatch.context() as patched:
        patched.setattr(GoodMetric, "effective_spec", reference_effective_spec)
        patched.setattr(metric, "_witness_degree", reference_witness_degree)
        patched.setattr(metric, "_fail_level", reference_fail_level)
        want = metric_outputs(fresh())
    assert metric_outputs(fresh()) == want
    assert sum(first_shift_violation(m) is None for m in draws) > 24  # good pairs are compared


def brute_ball_level(m, supp, below=None, top=60):
    """Every level 1..top scanned on the tagged spec: which balls hold the
    support (and the degrees <= below), and the ball level that implies.
    Past level 20 no constraint of the drawn families changes sign, so a
    ball at top holds at every deeper level."""
    inside = {n: not any(reference_effective_spec(m, n).contains(d) for d in supp)
              and (below is None or all(lo > below for lo, _ in reference_effective_spec(m, n).runs()))
              for n in range(1, top + 1)}
    return inside, None if inside[top] else max(n for n in inside if inside[n])


def test_ball_levels_equal_a_level_scan_on_every_family(draw_good_metric):
    rng = random.Random(77)
    gaps = 0
    for k in range(600):
        good = k % 3 == 0
        m = draw_good_metric(rng) if good else draw_metric(rng)
        supp = frozenset(rng.sample(range(-8, 9), rng.randint(0, 3)))
        below = rng.choice([None, rng.randint(-8, 8)])
        inside, level = brute_ball_level(m, supp, below)
        assert m.ball_level(supp, below) == level, (m.effective_pieces, supp, below)
        if below is None:
            assert all(m.holds_support(supp, n) == inside[n] for n in inside)
        # nested here: the balls holding the support are B_1..B_level
        nested = all(inside[n] == (level is None or n <= level) for n in inside)
        assert nested or not good
        assert (reference_ball_level(m, supp, below) == level) == nested
        gaps += not nested
    assert gaps > 20


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
        for mm, x in separating_complexes(rep, R22):
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


def _scan_equivalence(runs1, runs2, levels):
    """Brute force over the runs of spec(1..bound) of two metrics: per
    level, the least witness m <= bound in each direction, by set
    comparison; stops at the first level where a direction has none."""

    def least(n, inner, outer):
        return next((k for k in range(1, len(inner))
                     if all(any(ilo <= lo and hi <= ihi for ilo, ihi in inner[k])
                            for lo, hi in outer[n])), None)

    witness = {}
    for n in range(1, levels + 1):
        a, b = least(n, runs1, runs2), least(n, runs2, runs1)
        if a is None or b is None:
            return False, n, "1->2" if a is None else "2->1", witness
        witness[n] = max(a, b)
    return True, None, None, witness


def test_equivalence_agrees_with_a_far_scan_on_random_good_metrics(draw_good_metric):
    # the closed form decides every level; the scan sees 12 levels and
    # witnesses up to 300, past every witness and fail level here
    rng = random.Random(13)
    pool = [draw_good_metric(rng) for _ in range(30)] + [
        GoodMetric("e", []),                                          # every ball is everything
        _custom("late5", [("interval", (-1, 4), (1, -4))]),           # nonempty from level 5
        _custom("late7", [("interval", (-1, 6), (1, -6))], dual=True),
        _custom("wide2", [("interval", (-2, 3), (2, -3))]),           # nonempty from level 2
    ]
    runs = [[None] + [m.effective_spec(k).runs() for k in range(1, 301)] for m in pool]
    later = 0
    for i, m1 in enumerate(pool):
        for j in range(i, len(pool)):
            m2 = pool[j]
            rep = equivalent(m1, m2, levels=4)
            ok, fail, direction, witness = _scan_equivalence(runs[i], runs[j], 12)
            assert rep.equivalent == ok, (m1.effective_pieces, m2.effective_pieces)
            assert rep.fail_level == fail
            assert all(w <= 100 for w in witness.values())
            if ok:
                assert rep.witness == {n: witness[n] for n in range(1, 5)}
            else:
                inner, outer = (m1, m2) if direction == "1->2" else (m2, m1)
                for d, mm, deg in rep.separating:
                    assert d == direction
                    assert not inner.effective_spec(mm).contains(deg)
                    assert outer.effective_spec(fail).contains(deg)
                later += fail > 4
    assert later  # some pairs part only past the witness table


def test_equivalence_past_the_probe_bound_and_the_table():
    a1 = _custom("a1", [("above", (-1, 0))])
    a5 = _custom("a5", [("above", (-5, 0))])
    rep = equivalent(a1, a5, levels=50, search_bound=200)
    assert rep.equivalent
    assert rep.witness[1] == 1 and all(rep.witness[n] == 5 * n for n in range(2, 51))
    for levels in (0, 1):
        rep = equivalent(metric_i(), metric_ii(), levels=levels)
        assert not rep.equivalent and rep.fail_level == 2 and rep.witness == {}


def test_a_wrong_pass_raises_an_internal_error_and_does_not_hang(monkeypatch, capsys):
    # i and ii fail from level 2; with _fail_level passing them, no m puts
    # B(i)_m in B(ii)_2, and the scan stops at its bound s + K(2) = 2 + 2
    from tricomplete.cli import main

    monkeypatch.setattr(metric, "_fail_level", lambda inner, outer: None)
    with pytest.raises(RuntimeError, match=r"no m <= 4 puts B\(i\)_m inside B\(ii\)_2"):
        equivalent(metric_i(), metric_ii(), levels=3)
    assert main(["--format", "structured", "metric-equiv", "i", "ii"]) == 3
    assert json.loads(capsys.readouterr().out)["error"]["kind"] == "internal"
    # a pair that passes by right stays well inside its bound
    assert equivalent(metric_iii(), metric_iii(dual=True), levels=20).witness[20] == 20


def test_separating_probes_are_sorted_distinct_and_within_the_bound():
    probes = {b: [mm for _, mm, _ in equivalent(metric_i(), metric_ii(), search_bound=b).separating]
              for b in (1, 3, 16, 40, 60, 200)}
    assert probes == {1: [1], 3: [1, 2, 3], 16: [1, 2, 4, 8, 16], 40: [1, 2, 4, 8, 20, 40],
                      60: [1, 2, 4, 8, 30, 60], 200: [1, 2, 4, 8, 100, 200]}


def test_equivalence_refuses_a_metric_that_is_not_good():
    flat = _custom("flat", [("above", (0, 0))])
    with pytest.raises(PreconditionError, match="metric flat is not good: at level 2,"):
        equivalent(flat, metric_i())
    with pytest.raises(PreconditionError, match="metric flat is not good"):
        equivalent(metric_i(), flat)


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


def composite_square(f, h):
    """u, cone(u).z and g of the square on f and h, built from chain-map
    algebra: u = inj_B (-f) + inj_C h and g = (cone(u).g) inj_C.  The
    reference for homotopy_pushout, which builds u and g directly."""
    _, injs = direct_sum_complex([f.target, h.target], f.source.ring)
    u = add(injs[0] @ neg(f), injs[1] @ h)
    tri = cone(u)
    return u, tri.z, tri.g @ injs[1]


def complex_bytes(x):
    return (sorted((i, m.blocks) for i, m in x._components.items()), maps_bytes(x._diffs))


def maps_bytes(maps):
    return sorted((i, f.source.blocks, f.target.blocks, f.matrix.a.dtype.str, f.matrix.a.shape,
                   f.matrix.a.tobytes()) for i, f in maps.items())


def chain_map_bytes(f):
    """A chain map as bytes: the Jordan types, differentials and
    components of its source, target and degreewise maps."""
    return complex_bytes(f.source), complex_bytes(f.target), maps_bytes(f._components)


def square_corners(ring, seed, count=10):
    """Random corners f : A -> B, h : A -> C, then corners with A, B, C
    and all three zero."""
    s = Sampler(ring, random.Random(seed))
    zero = zero_complex(ring)
    out = [s.corner(-2, 2, max_blocks=2) for _ in range(count)]
    for _ in range(2):
        a, b, c = (s.complex(-2, 2, max_blocks=2) for _ in range(3))
        out += [(ChainMap(zero, b, {}), ChainMap(zero, c, {})),
                (ChainMap(a, zero, {}), s.chain_map(a, c)),
                (s.chain_map(a, b), ChainMap(a, zero, {}))]
    out.append((ChainMap(zero, zero, {}), ChainMap(zero, zero, {})))
    return out


@pytest.mark.parametrize("ring", [R22, Ring(3, 3), Ring(2, 4), Ring(5, 2)], ids=str)
def test_homotopy_pushout_equals_the_composite_square(ring):
    # over F_3 and F_5 the sign of -f in u can be seen
    metrics = (metric_i(), metric_ii(), metric_iii(), metric_i(dual=True))
    nonzero = 0
    for f, h in square_corners(ring, seed=60 + ring.p + ring.n):
        u, g = homotopy_pushout(f, h)
        u_ref, z_ref, g_ref = composite_square(f, h)
        assert u == u_ref and g.target == z_ref and g == g_ref
        assert chain_map_bytes(u) == chain_map_bytes(u_ref)
        assert complex_bytes(g.target) == complex_bytes(z_ref)
        assert chain_map_bytes(g) == chain_map_bytes(g_ref)
        nonzero += not u.is_zero() and not g.is_zero()
        for m in metrics:
            lf, lg = length(f, m), length(g_ref, m)
            rep = cartesian_invariance_check(f, h, m)
            assert (rep.ok, rep.length_f, rep.length_g) == (lf == lg, lf, lg)
    assert nonzero >= 5


def test_homotopy_pushout_refuses_maps_without_a_common_source():
    f, h = identity_chain_map(k_at(0)), identity_chain_map(k_at(1))
    with pytest.raises(PreconditionError, match="share a source"):
        homotopy_pushout(f, h)
    with pytest.raises(PreconditionError, match="share a source"):
        cartesian_invariance_check(f, h, metric_i())


@pytest.mark.parametrize("ring", [R22, Ring(3, 3), Ring(2, 4), Ring(5, 2)], ids=str)
def test_pushout_cone_support_matches_the_built_square(ring):
    # the support read off f and h is the built g's cone support, on
    # random corners, on corners with A, B, C or all three zero, and with
    # f = id, where cone(g) is acyclic
    shapes = {"nonzero": 0, "acyclic": 0}
    for f, h in square_corners(ring, seed=80 + ring.p + ring.n):
        for f in (f, identity_chain_map(f.source)):
            supp = pushout_cone_support(f, h)
            assert supp == cone_support(homotopy_pushout(f, h)[1])
            shapes["nonzero" if supp else "acyclic"] += 1
    assert min(shapes.values()) >= 10, shapes


def unsorted_embeddings(tri, inner=()):
    """P[i]: the columns of tri.z^i in the unsorted order of the block
    readers, as a 0/1 array: the injection of tri's first summand, then
    that of its second, refined through the injections of each triangle
    in inner (the first summand of each, then the rest)."""
    out = {}
    for i in tri.z.degrees:
        cols, rest = [tri._injs[i][0].matrix.a], tri._injs[i][1].matrix.a
        for injs in inner:
            if i in injs:
                first, second = (inj.matrix.a for inj in injs[i])
            else:  # the summand is zero at i, and so are both its pieces
                first = second = np.zeros((rest.shape[1], 0), dtype=np.int64)
            cols.append(rest @ first)
            rest = rest @ second
        out[i] = np.hstack(cols + [rest])
    return out


@pytest.mark.parametrize("ring", [R22, Ring(3, 3), Ring(2, 4), Ring(5, 2)], ids=str)
def test_block_readers_eliminate_the_built_differential_unsorted(rebind, ring):
    # the rows a block reader eliminates are, degree by degree, the built
    # cone's d^i with its basis put in the unsorted order, P^T d P, sign for
    # sign: over F_3 and F_5 the signs of -d_X, -d_A and -f show, which no
    # rank sees
    from tricomplete import linalg
    from tricomplete.complexes import _sum_complex

    seen = []
    real = linalg.row_rank

    def recorded(rows, p):
        block = np.array(rows, dtype=np.int64)
        seen.append((block.shape, block.tobytes()))
        return real(rows, p)

    def check(support, tri, inner=()):
        seen.clear()
        support()
        emb = unsorted_embeddings(tri, inner)
        want = [emb[i + 1].T @ d.matrix.a @ emb[i] % ring.p for i, d in tri.z._diffs.items()]
        want = [(block.shape, block.tobytes()) for block in want]
        assert sorted(seen) == sorted(want)
        return len(want)

    rebind(real, recorded)
    arrays = 0
    for f, h in square_corners(ring, seed=60 + ring.p + ring.n):
        arrays += check(lambda: cone_support(f), cone(f))
        u, g = homotopy_pushout(f, h)
        bc_injs = _sum_complex([f.target, h.target], ring)[1]
        arrays += check(lambda: pushout_cone_support(f, h), cone(g), (cone(u)._injs, bc_injs))
    assert arrays >= 20


@pytest.mark.parametrize("ring", [R22, Ring(3, 3)], ids=str)
def test_checks_build_only_the_chain_maps_their_lengths_read(count_calls, ring):
    # a cartesian check builds no chain map, sum or cone, a strong-triangle
    # check only g o f, and both eliminate exactly what the composite-built
    # square did
    from tricomplete import complexes, linalg

    counts = count_calls(ChainMap, linalg._eliminate, complexes._sum_complex, complexes.cone)

    def measure(run):
        counts.clear()
        run()
        return Counter(counts)

    eliminations = 0
    for f, h in square_corners(ring, seed=70 + ring.p):
        for m in (metric_i(), metric_ii(), metric_iii()):
            seen = measure(lambda: cartesian_invariance_check(f, h, m))
            was = measure(lambda: (length(f, m), length(composite_square(f, h)[2], m)))
            assert seen["ChainMap"] == 0 and was["ChainMap"] == 8
            assert seen["_sum_complex"] == seen["cone"] == 0 and was["_sum_complex"] > 0
            assert seen["_eliminate"] == was["_eliminate"]
            eliminations += seen["_eliminate"]
    assert eliminations > 0
    s = Sampler(ring, random.Random(71))
    for _ in range(6):
        f, g = s.composable_pair(-2, 2, max_blocks=2)
        seen = measure(lambda: strong_triangle_check(f, g, metric_i()))
        assert seen["ChainMap"] == 1 and seen["_eliminate"] > 0


# -- lengths read ranks, not cones ------------------------------------------------


def extension_fuzz_inputs(m, ring, samples, seed):
    """The (level, map) pairs the extension fuzz of check_good_axioms draws,
    in its order: its loop without the measurement."""
    rng = random.Random(seed)
    sampler = Sampler(ring, rng)
    out = []
    for k in range(samples):
        n = (2, 3, 4, 5)[k % 4]
        spec = m.effective_spec(n)
        allowed = [i for i in range(-(n + 6), n + 7) if not spec.contains(i)]
        if allowed:
            degs = rng.sample(allowed, k=min(3, len(allowed)))
            b = sampler.complex(0, 0, max_blocks=2, degrees=degs)
            b2 = sampler.complex(0, 0, max_blocks=2, degrees=degs)
            out.append((n, sampler.chain_map(shift(b2, -1), b)))
    return out


def test_lengths_build_no_cone_and_run_the_same_eliminations(count_calls):
    # length, is_quasi_iso, prefix-only is_cauchy and the extension fuzz
    # build no Complex beyond their inputs and call no cone, yet eliminate
    # exactly what the cone-building path eliminated
    from tricomplete import linalg
    from tricomplete.cauchy import is_cauchy, prefix_tower, truncation_tower
    from tricomplete.complexes import Complex, is_acyclic, is_quasi_iso

    counts = count_calls(Complex, cone, linalg._eliminate)

    def measure(run):
        counts.clear()
        return run(), Counter(counts)

    ring = Ring(3, 3)
    s = Sampler(ring, random.Random(41))
    maps = [s.chain_map(s.complex(-2, 2, max_blocks=2), s.complex(-2, 2, max_blocks=2))
            for _ in range(8)]
    metrics = (metric_i(), metric_ii(), metric_iii())
    new, seen = measure(lambda: [length(f, m) for f in maps for m in metrics]
                        + [is_quasi_iso(f) for f in maps])
    old, was = measure(lambda: [object_length(cone(f).z, m) for f in maps for m in metrics]
                       + [is_acyclic(cone(f).z) for f in maps])
    assert new == old and any(new)
    assert seen["Complex"] == seen["cone"] == 0 and was["cone"] == 0  # cone itself is not rebound
    assert seen["_eliminate"] == was["_eliminate"] > 0

    t = truncation_tower(RModule(ring, (2, 1)))
    tower = prefix_tower([t.complex_at(k) for k in range(1, 5)], [t.map_at(k) for k in range(1, 4)])
    cert, seen = measure(lambda: is_cauchy(tower, metric_i(), horizon=4, levels=3))
    old, was = measure(lambda: {(i, j): object_length(cone(composite(tower, i, j)).z, metric_i())
                                for i in range(1, 5) for j in range(i, 5)})
    assert cert.sup_lengths == {i: max(old[i, j] for j in range(i, 5)) for i in range(1, 5)}
    assert seen["Complex"] == seen["cone"] == 0
    assert seen["_eliminate"] == was["_eliminate"] > 0

    for m in (metric_i(), metric_iii()):
        rep, seen = measure(lambda: check_good_axioms(m, ring, levels=5, samples=16, seed=7))
        inputs, drawn = measure(lambda: extension_fuzz_inputs(m, ring, 16, 7))
        supports, was = measure(lambda: [cohomology_support(cone(w).z) for _, w in inputs])
        assert rep.ok and any(supports)
        assert seen["cone"] == 0 and seen["Complex"] == drawn["Complex"]
        assert seen["_eliminate"] == drawn["_eliminate"] + was["_eliminate"]
