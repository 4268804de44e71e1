import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from tricomplete.rmodule import RModule, Ring, direct_sum, free_module, zero_module
from tricomplete.complexes import (
    ChainMap,
    PreconditionError,
    cohomology,
    cohomology_data,
    cohomology_map,
    cone,
    identity_chain_map,
    module_complex,
)
from tricomplete.metric import length, metric_i, metric_ii, metric_iii, object_length
from tricomplete.cauchy import (
    CauchyCertificate,
    ColimitTable,
    ConstantTail,
    Tower,
    TruncationTail,
    colimit,
    constant_tower,
    is_cauchy,
    prefix_tower,
    truncation_tower,
)
from tricomplete.randomgen import Sampler

R22 = Ring(2, 2)
R23 = Ring(2, 3)
K = RModule(R22, (1,))


def scan_colimit(tower, window, horizon):
    """The colimit table by a scan, the reference for colimit: H^i of every
    entry from the first one the tail rule fixes around degree i (entry 1
    without a tail) up to the horizon, and the least index from which every
    connecting map up to the horizon is checked to be an isomorphism on H^i."""
    lo, hi = window
    h = tower.available_horizon(horizon)
    table = ColimitTable(ring=tower.ring, window=window, horizon=h)
    if isinstance(tower.tail, TruncationTail):
        table.outside_window_vanishes = lo <= 0 <= hi
    elif isinstance(tower.tail, ConstantTail):
        x = tower.tail.complex
        table.outside_window_vanishes = x.is_zero() or (lo <= x.min_degree and x.max_degree <= hi)
    for i in range(lo, hi + 1):
        if isinstance(tower.tail, TruncationTail):
            k_start = max(1, abs(i) + 1) if i <= 0 else 1
        else:
            k_start = 1
        k_i = None
        if k_start <= h - 1:
            datas = {k: cohomology_data(tower.complex_at(k), i) for k in range(k_start, h + 1)}
            for k0 in range(k_start, h):
                if all(cohomology_map(tower.map_at(k), i, datas[k], datas[k + 1]).is_isomorphism()
                       for k in range(k0, h)):
                    k_i = k0
                    break
        if k_i is None:
            table.inconclusive.append(i)
        else:
            table.entries[i] = (datas[k_i].module, k_i)
    return table


def sum_projections(total, parts):
    """Projection chain maps total -> parts[k] of direct_sum_complex(parts),
    which returns only injections: degreewise, direct_sum's projections."""
    return [ChainMap(total, x, {i: direct_sum([y.component(i) for y in parts], total.ring)[2][k]
                                for i in x.degrees})
            for k, x in enumerate(parts)]


def test_truncation_tower_of_zero_is_constant_zero():
    t = truncation_tower(zero_module(R22))
    for k in (1, 2, 5):
        assert t.complex_at(k).is_zero()
    cert = is_cauchy(t, metric_i(), horizon=6, levels=4)
    assert cert.is_cauchy and cert.conclusive
    assert all(cert.thresholds[n] == 1 for n in range(1, 5))


def test_truncation_tower_of_free_module_constant():
    R = free_module(R22, 1)
    t = truncation_tower(R)
    for k in (1, 3):
        assert t.complex_at(k) == module_complex(R, 0)
    cert = is_cauchy(t, metric_i(), horizon=6, levels=4)
    assert cert.is_cauchy
    assert all(cert.thresholds[n] == 1 for n in range(1, 5))


def test_truncation_tower_of_k_shape():
    t = truncation_tower(K)
    for k in (1, 2, 4):
        x = t.complex_at(k)
        assert x.degrees == list(range(-k, 1))
        for i in x.degrees:
            assert x.component(i) == free_module(R22, 1)
    # connecting maps are the subcomplex inclusions
    f = t.map_at(2)
    assert f.source == t.complex_at(2) and f.target == t.complex_at(3)


def test_truncation_tower_lengths_closed_form_vs_harness():
    # measured cone lengths must be exactly 1/(i+1), independent of j
    t = truncation_tower(K)
    m = metric_i()
    for i in range(1, 5):
        for j in range(i + 1, 6):
            z = cone(t.composite(i, j)).z
            assert object_length(z, m) == Fraction(1, i + 1), (i, j)
    cert = is_cauchy(t, m, horizon=8, levels=6)
    for i in range(1, 9):
        assert cert.sup_lengths[i] == Fraction(1, i + 1)


def test_truncation_tower_cauchy_metric_i_with_threshold_n():
    cert = is_cauchy(truncation_tower(K), metric_i(), horizon=20, levels=10)
    assert cert.is_cauchy and cert.conclusive
    for n in range(1, 11):
        assert cert.thresholds[n] == n


def test_truncation_tower_not_cauchy_metric_ii():
    cert = is_cauchy(truncation_tower(K), metric_ii(), horizon=10, levels=4)
    assert cert.verdict == "not_cauchy"
    n, i, j, ln = cert.violation
    assert ln >= Fraction(1, n)
    # the reported composite really is that long
    if j != "inf":
        t = truncation_tower(K)
        z = cone(t.composite(i, j)).z
        assert object_length(z, metric_ii()) == ln


def test_truncation_tower_cauchy_metric_iii():
    cert = is_cauchy(truncation_tower(K), metric_iii(), horizon=12, levels=6)
    assert cert.is_cauchy
    for n in range(1, 7):
        assert cert.thresholds[n] == n


def test_certificate_thresholds_monotone():
    for m in (metric_i(), metric_iii()):
        cert = is_cauchy(truncation_tower(RModule(R23, (2, 1))), m, horizon=14, levels=8)
        assert cert.is_cauchy
        for n in range(1, 8):
            assert cert.thresholds[n] <= cert.thresholds[n + 1]


def test_tail_sup_lengths_never_increase(draw_good_metric):
    # tail_support(i+1) lies in tail_support(i) for both tails (a point and
    # a downward ray that shrink, or nothing), so ball levels never fall
    rng = random.Random(21)
    metrics = [draw_good_metric(rng) for _ in range(40)]
    for ring in (R22, Ring(3, 3), Ring(2, 4)):
        s = Sampler(ring, rng)
        n = ring.n
        towers = [truncation_tower(RModule(ring, blocks))
                  for blocks in ((1,), (n,), (n - 1, 1), (n, 1), ())]
        towers.append(constant_tower(s.complex(-2, 2, max_blocks=2)))
        for t in towers:
            for m in metrics:
                sup = is_cauchy(t, m, horizon=20, levels=1).sup_lengths
                assert all(sup[i + 1] <= sup[i] for i in range(1, 20)), m.effective_pieces


def test_constant_tower_cauchy_every_metric():
    rng = random.Random(3)
    s = Sampler(R22, rng)
    x = s.complex(-2, 1, max_blocks=2)
    t = constant_tower(x)
    for m in (metric_i(), metric_ii(), metric_iii()):
        cert = is_cauchy(t, m, horizon=6, levels=5)
        assert cert.is_cauchy and cert.conclusive
        assert all(cert.thresholds[n] == 1 for n in range(1, 6))


def test_prefix_tower_inconclusive():
    t = truncation_tower(K)
    entries = [t.complex_at(k) for k in range(1, 5)]
    maps = [t.map_at(k) for k in range(1, 4)]
    p = prefix_tower(entries, maps)
    cert = is_cauchy(p, metric_i(), horizon=10, levels=3)
    assert cert.verdict == "inconclusive"
    assert not cert.conclusive
    # measured data still matches the closed form within the prefix
    # (the last entry sees no j > i inside the horizon, so only i < 4)
    for i in range(1, 4):
        assert cert.sup_lengths[i] == Fraction(1, i + 1)


def composite_prefix_certificate(tower, m, horizon, levels):
    """is_cauchy on a prefix-only tower with every X_i -> X_j rebuilt by
    tower.composite(i, j): the reference for its running composites."""
    h = tower.available_horizon(horizon)
    measured = {(i, j): length(tower.composite(i, j), m)
                for i in range(1, h + 1) for j in range(i, h + 1)}
    cert = CauchyCertificate(metric=m.display_name(), horizon=h, levels=levels,
                             verdict="inconclusive", conclusive=False,
                             note="prefix-only tower: behaviour beyond entry %d is unknown" % h)
    cert.sup_lengths = {i: max(measured[(i, j)] for j in range(i, h + 1)) for i in range(1, h + 1)}
    for n in range(1, levels + 1):
        for M in range(1, h + 1):
            if all(measured[(i, j)] < Fraction(1, n) for i in range(M, h + 1) for j in range(i, h + 1)):
                cert.thresholds[n] = M
                break
    return cert


def test_prefix_certificate_keeps_one_running_composite_per_entry(count_calls):
    t = truncation_tower(K)
    s = Sampler(Ring(3, 3), random.Random(43))
    xs = [s.complex(-2, 2, max_blocks=2) for _ in range(8)]
    towers = [prefix_tower([t.complex_at(k) for k in range(1, 9)], [t.map_at(k) for k in range(1, 8)]),
              prefix_tower(xs, [s.chain_map(xs[k], xs[k + 1]) for k in range(7)])]
    counts = count_calls(ChainMap)
    thresholds = 0
    for tower in towers:
        for m in (metric_i(), metric_ii(), metric_iii()):
            for horizon in (8, 12):
                counts.clear()
                cert = is_cauchy(tower, m, horizon=horizon, levels=4)
                built = counts["ChainMap"]
                counts.clear()
                ref = composite_prefix_certificate(tower, m, horizon, 4)
                assert dataclasses.asdict(cert) == dataclasses.asdict(ref)
                assert (built, counts["ChainMap"]) == (8 * 9 // 2, 8 * 9 * 10 // 6)
                thresholds += len(cert.thresholds)
    assert thresholds > 0


def test_horizon_too_small_is_inconclusive_not_wrong():
    cert = is_cauchy(truncation_tower(K), metric_i(), horizon=3, levels=8)
    assert cert.verdict == "inconclusive"
    assert "horizon" in cert.note


def test_prefix_validation():
    t = truncation_tower(K)
    with pytest.raises(PreconditionError):
        Tower(R22, prefix=[t.complex_at(2)], tail=t.tail)  # entry 1 must match the rule


def test_prefix_maps_must_agree_with_the_tail_rule():
    # a zero map X_1 -> X_2 in a constant tower would make length(X_1 ->
    # X_2) = 1 under a certificate that claims it is 0
    ring = Ring(3, 3)
    x = module_complex(RModule(ring, (1,)), 0)
    with pytest.raises(PreconditionError, match="connecting map 1 disagrees with the tail rule"):
        Tower(ring, prefix=[x, x], prefix_maps=[ChainMap(x, x, {})], tail=ConstantTail(x))
    t = truncation_tower(K)
    entries = [t.complex_at(k) for k in range(1, 4)]
    wrong = [t.map_at(1), ChainMap(entries[1], entries[2], {})]
    with pytest.raises(PreconditionError, match="connecting map 2 disagrees with the tail rule"):
        Tower(R22, prefix=entries, prefix_maps=wrong, tail=t.tail)
    # agreeing maps, built afresh, are accepted
    Tower(ring, prefix=[x, x], prefix_maps=[identity_chain_map(x)], tail=ConstantTail(x))
    Tower(R22, prefix=entries, prefix_maps=[TruncationTail(K).map_at(k, entries[k - 1], entries[k])
                                            for k in (1, 2)], tail=t.tail)


# -- colimits -------------------------------------------------------------------


def test_colimit_of_truncation_tower_k():
    t = truncation_tower(K)
    cert = is_cauchy(t, metric_i(), horizon=10, levels=5)
    table = colimit(t, (-3, 2), 10, cert)
    assert table.conclusive
    assert table.module_at(0) == K
    for i in (-3, -2, -1, 1, 2):
        assert table.module_at(i).is_zero()
    assert table.support() == [0]


def test_colimit_of_truncation_tower_R():
    R = free_module(R22, 1)
    t = truncation_tower(R)
    cert = is_cauchy(t, metric_i(), horizon=8, levels=4)
    table = colimit(t, (-2, 1), 8, cert)
    assert table.conclusive
    assert table.module_at(0) == R
    assert table.support() == [0]


def test_colimit_of_constant_tower_is_cohomology():
    rng = random.Random(8)
    s = Sampler(R23, rng)
    x = s.complex(-2, 2, max_blocks=2)
    t = constant_tower(x)
    cert = is_cauchy(t, metric_i(), horizon=6, levels=3)
    table = colimit(t, (-3, 3), 6, cert)
    assert table.conclusive
    for i in range(-3, 4):
        assert table.module_at(i) == cohomology(x, i)


def test_colimit_requires_cauchy_provenance():
    t = truncation_tower(K)
    cert = is_cauchy(t, metric_ii(), horizon=8, levels=3)
    with pytest.raises(PreconditionError):
        colimit(t, (-2, 2), 8, cert)


def test_colimit_stabilization_indices_truncation():
    t = truncation_tower(RModule(R23, (1,)))
    cert = is_cauchy(t, metric_i(), horizon=12, levels=4)
    table = colimit(t, (-4, 1), 12, cert)
    assert table.conclusive
    for i in range(-4, 2):
        mod, k_i = table.entries[i]
        assert k_i <= abs(i) + 1 if i <= 0 else k_i == 1


def test_colimit_invariant_under_levelwise_contractible_inflation():
    # same tower with a contractible summand glued on levelwise
    from tricomplete.complexes import direct_sum_complex

    t = truncation_tower(K)
    c = cone(identity_chain_map(module_complex(free_module(R22, 1), 0))).z
    entries, maps = [], []
    for k in range(1, 7):
        xk, _ = direct_sum_complex([t.complex_at(k), c], R22)
        entries.append(xk)
    for k in range(1, 6):
        xk, xk1 = entries[k - 1], entries[k]
        # connecting map: tower map on the first summand, identity on the second
        projs1 = sum_projections(xk, [t.complex_at(k), c])
        _, injs2 = direct_sum_complex([t.complex_at(k + 1), c], R22)
        from tricomplete.complexes import identity_chain_map as icm

        f = (injs2[0] @ t.map_at(k) @ projs1[0]) + (injs2[1] @ icm(c) @ projs1[1])
        maps.append(f)
    p = prefix_tower(entries, maps)
    cert = is_cauchy(p, metric_i(), horizon=6, levels=2)
    table = colimit(p, (-2, 1), 6, cert)
    tref = colimit(truncation_tower(K), (-2, 1), 6,
                   is_cauchy(truncation_tower(K), metric_i(), 6, 2))
    for i in range(-2, 2):
        assert table.module_at(i) == tref.module_at(i)


def _colimit_towers(ring, rng):
    """Truncation towers of every Jordan type with <= 3 blocks (the zero
    module too), 6 sampled constant towers, and the same rules behind an
    agreeing prefix, plus prefix-only copies of a few of them."""
    n = ring.n
    types = [b for r in range(4) for b in itertools.combinations_with_replacement(range(n, 0, -1), r)]
    s = Sampler(ring, rng)
    towers = [truncation_tower(RModule(ring, b)) for b in types]
    towers += [constant_tower(s.complex(-2, 2, max_blocks=2)) for _ in range(6)]
    for t in towers[1:4] + towers[-2:]:
        entries = [t.complex_at(k) for k in range(1, 4)]
        maps = [t.map_at(k) for k in (1, 2)]
        towers.append(Tower(ring, prefix=entries, prefix_maps=maps, tail=t.tail))
        towers.append(prefix_tower(entries, maps))
    return towers


def test_colimit_matches_the_scan_to_the_horizon():
    rng = random.Random(15)
    tables = 0
    for ring in (R22, Ring(3, 3), Ring(2, 4), Ring(5, 3)):
        for t in _colimit_towers(ring, rng):
            for h in (2, 3, 4, 6):
                cert = is_cauchy(t, metric_i(), h, 2)
                for window in ((-4, 2), (-1, 1), (1, 3)):
                    new, ref = colimit(t, window, h, cert), scan_colimit(t, window, h)
                    assert (new.entries, new.inconclusive, new.outside_window_vanishes, new.horizon) \
                        == (ref.entries, ref.inconclusive, ref.outside_window_vanishes, ref.horizon)
                    tables += 1
    assert tables >= 1308


def test_tail_colimit_computes_each_degree_once(monkeypatch):
    from tricomplete import cauchy

    degrees = []

    def counted(x, i):
        degrees.append(i)
        return cohomology_data(x, i)

    monkeypatch.setattr(cauchy, "cohomology_data", counted)
    x = Sampler(R23, random.Random(4)).complex(-2, 2, max_blocks=2)
    for t in (truncation_tower(RModule(R23, (2, 1))), constant_tower(x)):
        degrees.clear()
        table = colimit(t, (-4, 2), 12, is_cauchy(t, metric_i(), 12, 3))
        assert not table.inconclusive
        assert sorted(degrees) == list(range(-4, 3))
