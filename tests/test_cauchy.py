import dataclasses
import functools
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from tricomplete.rmodule import RModule, Ring, free_module, zero_module
from tricomplete.complexes import (
    ChainMap,
    PreconditionError,
    cohomology,
    cohomology_data,
    cohomology_map,
    cone,
    identity_chain_map,
    module_complex,
    zero_complex,
)
from tricomplete.metric import equivalent, length, metric_i, metric_ii, metric_iii, object_length
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
from tricomplete.completion import complete
from tricomplete.randomgen import Sampler

from reference import add, composite, direct_sum_complex, sum_projections

R22 = Ring(2, 2)
R23 = Ring(2, 3)
K = RModule(R22, (1,))


def scan_colimit(tower, window, horizon):
    """The colimit table by a scan, the reference for colimit: H^i of every
    entry from the first one the tail rule fixes around degree i (entry 1
    without a tail) up to the horizon, and the least index from which every
    connecting map up to the horizon is checked to be an isomorphism on H^i.
    Each entry and connecting map is built once per call, whatever the
    degree that reads it."""
    lo, hi = window
    h = tower.available_horizon(horizon)
    entry, step = functools.cache(tower.complex_at), functools.cache(tower.map_at)
    table = ColimitTable(ring=tower.ring, window=window, horizon=h)
    if isinstance(tower.tail, TruncationTail):
        table.outside_window_vanishes = tower.tail.module.is_zero() or lo <= 0 <= hi
    elif isinstance(tower.tail, ConstantTail):
        x = tower.tail.complex
        table.outside_window_vanishes = all(cohomology(x, i).is_zero() for i in x.degrees if not lo <= i <= hi)
    for i in range(lo, hi + 1):
        if isinstance(tower.tail, TruncationTail):
            k_start = max(1, abs(i) + 1) if i <= 0 else 1
        else:
            k_start = 1
        k_i = None
        if k_start <= h - 1:
            datas = {k: cohomology_data(entry(k), i) for k in range(k_start, h + 1)}
            for k0 in range(k_start, h):
                if all(cohomology_map(step(k), i, datas[k], datas[k + 1]).is_isomorphism()
                       for k in range(k0, h)):
                    k_i = k0
                    break
        if k_i is None:
            table.inconclusive.append(i)
        else:
            table.entries[i] = (datas[k_i].module, k_i)
    return table


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
            z = cone(composite(t, i, j)).z
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
        z = cone(composite(t, i, j)).z
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
    composite(tower, i, j): the reference for its running composites."""
    h = tower.available_horizon(horizon)
    measured = {(i, j): length(composite(tower, i, j), m)
                for i in range(1, h + 1) for j in range(i, h + 1)}
    cert = CauchyCertificate(metric=m.display_name(), horizon=h, levels=levels,
                             verdict="inconclusive",
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
    Tower(R22, prefix=entries, prefix_maps=[t.map_at(k) for k in (1, 2)], tail=t.tail)


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

        f = add(injs2[0] @ t.map_at(k) @ projs1[0], injs2[1] @ icm(c) @ projs1[1])
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
    # a tail tower's table is exact at any horizon: it equals the scan at a
    # horizon past every stable index (5 for degree -4), and it differs
    # from the scan at its own horizon only in degrees the scan cannot
    # reach there.  A prefix-only tower's table is the scan's.
    rng = random.Random(15)
    tables = 0
    for ring in (R22, Ring(3, 3), Ring(2, 4), Ring(5, 3)):
        for t in _colimit_towers(ring, rng):
            windows = ((-4, 2), (-1, 1), (1, 3))
            deep = {window: scan_colimit(t, window, 8) for window in windows}
            for h in (2, 3, 4, 6):
                cert = is_cauchy(t, metric_i(), h, 2)
                for window in windows:
                    new, ref = colimit(t, window, h, cert), scan_colimit(t, window, h)
                    assert new.horizon == ref.horizon == t.available_horizon(h)
                    if t.tail is None:
                        assert (new.entries, new.inconclusive, new.outside_window_vanishes) \
                            == (ref.entries, ref.inconclusive, ref.outside_window_vanishes)
                    else:
                        assert (new.entries, new.inconclusive, new.outside_window_vanishes) \
                            == (deep[window].entries, [], deep[window].outside_window_vanishes)
                        assert all(new.entries[i] == e for i, e in ref.entries.items())
                        assert all(t.tail.stable_from(i) > h - 1 for i in ref.inconclusive)
                    tables += 1
    assert tables >= 1308


def test_prefix_colimit_reads_each_connecting_map_once(count_calls):
    # k0 -> ... -> k0 -> 0: only the last map fails on H^0, which a scan
    # from every start would find h - 1 times
    for ring in (R22, Ring(3, 3)):
        x = module_complex(RModule(ring, (1,)), 0)
        for h in (4, 8, 16):
            zero = zero_complex(ring)
            t = prefix_tower([x] * (h - 1) + [zero],
                             [identity_chain_map(x)] * (h - 2) + [ChainMap(x, zero, {})])
            cert = is_cauchy(t, metric_i(), h, 2)
            counts = count_calls(cohomology_map)
            for i in (-1, 0, 1):
                counts.clear()
                table = colimit(t, (i, i), h, cert)
                assert counts["cohomology_map"] <= h - 1, (ring, h, i)
                ref = scan_colimit(t, (i, i), h)
                assert (table.entries, table.inconclusive) == (ref.entries, ref.inconclusive)
            assert colimit(t, (-1, 1), h, cert).inconclusive == [0]


def test_prefix_colimit_builds_only_the_cohomology_its_walk_reads(count_calls):
    # k0 -> ... -> k0 -> 0: on H^0 the walk stops at the last map, so it
    # reads X_(h-1) and X_h; on H^-1 and H^1 every map is an isomorphism
    # and the walk reads every entry once
    for ring in (R22, Ring(3, 3)):
        x = module_complex(RModule(ring, (1,)), 0)
        for h in (4, 8, 16):
            zero = zero_complex(ring)
            t = prefix_tower([x] * (h - 1) + [zero],
                             [identity_chain_map(x)] * (h - 2) + [ChainMap(x, zero, {})])
            cert = is_cauchy(t, metric_i(), h, 2)
            counts = count_calls(cohomology_data)
            for i, built in ((-1, h), (0, 2), (1, h)):
                counts.clear()
                table = colimit(t, (i, i), h, cert)
                assert counts["cohomology_data"] == built, (ring, h, i)
                ref = scan_colimit(t, (i, i), h)
                assert (table.entries, table.inconclusive) == (ref.entries, ref.inconclusive)


def test_tail_colimits_do_not_depend_on_the_horizon():
    rng = random.Random(16)
    for ring in (R22, Ring(3, 3), Ring(2, 4)):
        for t in _colimit_towers(ring, rng):
            if t.tail is None:
                continue
            for window in ((-6, 2), (-1, 1)):
                short = colimit(t, window, 2, is_cauchy(t, metric_i(), 2, 2))
                long = colimit(t, window, 30, is_cauchy(t, metric_i(), 30, 2))
                assert not short.inconclusive
                assert (short.entries, short.outside_window_vanishes) \
                    == (long.entries, long.outside_window_vanishes)


def test_bench_workspace_tail_colimit_is_exact_at_a_small_horizon(capsys):
    # degrees -4..-2 stabilize only from X_3..X_5 on, past horizon 3; the
    # tail builds those entries on demand
    from tricomplete.cli import main

    ws = str(Path(__file__).resolve().parents[1] / "bench" / "cli_session" / "workspace.txt")
    code = main(["-w", ws, "colimit", "towerK", "--metric", "i", "--horizon", "3", "--window=-4..1",
                 "--format", "structured"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0, report
    table = report["table"]
    assert (table["horizon"], table["inconclusive-degrees"], table["support"]) == (3, [], [0])
    assert [table["entries"][str(i)]["stable-from"] for i in range(-4, 2)] == [5, 4, 3, 2, 1, 1]


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


# -- one threshold rule, and the tail rules' own representative and window -----


def reference_is_cauchy(tower, m, horizon, levels):
    """is_cauchy with a separate rule per branch, the reference for the
    shared threshold rule: a tail tower scans M per level over its
    non-increasing sup lengths and finds a below ray by its open lower end; a
    prefix-only tower rescans its table of measured composites for every
    (n, M) (composite_prefix_certificate)."""
    if tower.tail is None:
        return composite_prefix_certificate(tower, m, horizon, levels)
    sup = {i: m.support_length(*tower.tail.tail_support(i)) for i in range(1, horizon + 1)}
    cert = CauchyCertificate(metric=m.display_name(), horizon=horizon, levels=levels,
                             verdict="cauchy", sup_lengths=sup)
    _, escape = tower.tail.tail_support(horizon)
    if escape is not None and any(lo is None for lo, _ in m.effective_pieces):
        top = max(min(hi, escape) for lo, hi in m.effective_spec(2).runs() if lo <= escape)
        cert.verdict = "not_cauchy"
        cert.violation = (1, horizon, -top, Fraction(1))
        return cert
    for n in range(1, levels + 1):
        found = next((M for M in range(1, horizon + 1) if sup[M] < Fraction(1, n)), None)
        if found is None:
            cert.verdict = "inconclusive"
            cert.note = "horizon %d too small to certify level %d" % (horizon, n)
            return cert
        cert.thresholds[n] = found
    return cert


def reference_complete(tower, metric, horizon, levels):
    """complete with the window and representative chosen by the tail's
    class, the reference for the tail rules' own window and
    representative: (window, representative, certificate, table)."""
    cert = reference_is_cauchy(tower, metric, horizon, levels)
    if isinstance(tower.tail, ConstantTail):
        x = tower.tail.complex
        window = (x.min_degree - 1, x.max_degree + 1) if not x.is_zero() else (-1, 1)
    else:
        window = (-2, 2)
    rep = None
    if isinstance(tower.tail, TruncationTail):
        mod = tower.tail.module
        rep = module_complex(mod, 0) if not mod.is_zero() else zero_complex(tower.ring)
    elif isinstance(tower.tail, ConstantTail):
        rep = tower.tail.complex
    return window, rep, cert, colimit(tower, window, horizon, cert)


def _certificate_towers(ring, rng):
    """Truncation towers of every Jordan type with <= 3 blocks (the zero
    module too), constant towers at the zero complex and at 3 sampled
    complexes, two of them behind an agreeing prefix, and prefix-only
    towers of lengths 3 and 4."""
    n = ring.n
    types = [b for r in range(4) for b in itertools.combinations_with_replacement(range(n, 0, -1), r)]
    s = Sampler(ring, rng)
    towers = [truncation_tower(RModule(ring, b)) for b in types]
    towers += [constant_tower(zero_complex(ring))]
    towers += [constant_tower(s.complex(-2, 2, max_blocks=2)) for _ in range(3)]
    for t, length_ in ((towers[n], 3), (towers[-1], 4)):  # the simple module; a sampled complex
        entries = [t.complex_at(k) for k in range(1, length_ + 1)]
        maps = [t.map_at(k) for k in range(1, length_)]
        towers.append(Tower(ring, prefix=entries, prefix_maps=maps, tail=t.tail))
    xs = [s.complex(-1, 1, max_blocks=2) for _ in range(3)]
    towers.append(prefix_tower(xs, [s.chain_map(xs[k], xs[k + 1]) for k in range(2)]))
    t = truncation_tower(RModule(ring, (1,)))
    towers.append(prefix_tower([t.complex_at(k) for k in range(1, 5)], [t.map_at(k) for k in (1, 2, 3)]))
    return towers


def _certificate_metrics(rng, draw_good_metric, draws):
    return [std(dual=d) for std in (metric_i, metric_ii, metric_iii) for d in (False, True)] \
        + [draw_good_metric(rng) for _ in range(draws)]


@pytest.mark.parametrize("ring", [R22, Ring(3, 3), Ring(2, 4)], ids=str)
def test_certificates_equal_the_per_branch_reference(ring, draw_good_metric):
    # every horizon 2..12 (a prefix-only tower's stops past its length),
    # each with a level that rotates with the tower, so every level 0..8
    # meets every tower kind
    rng = random.Random(ring.p * 10 + ring.n)
    metrics = _certificate_metrics(rng, draw_good_metric, 4)
    verdicts = set()
    for index, t in enumerate(_certificate_towers(ring, rng)):
        for m in metrics:
            for horizon in range(2, 13 if t.tail is not None else 6):
                levels = (horizon + index) % 9
                cert = is_cauchy(t, m, horizon, levels)
                assert dataclasses.asdict(cert) == dataclasses.asdict(
                    reference_is_cauchy(t, m, horizon, levels)), (t.tail, m.pieces, horizon, levels)
                assert cert.conclusive == (cert.verdict != "inconclusive")
                verdicts.add((t.tail is None, cert.verdict, cert.note.split(" ")[0]))
    assert verdicts == {(False, "cauchy", ""), (False, "not_cauchy", ""),
                        (False, "inconclusive", "horizon"),
                        (True, "inconclusive", "prefix-only")}


@pytest.mark.parametrize("ring", [R22, Ring(3, 3), Ring(2, 4)], ids=str)
def test_complete_reads_window_and_representative_off_the_tail_rule(ring, draw_good_metric):
    rng = random.Random(ring.p * 10 + ring.n + 1)
    metrics = _certificate_metrics(rng, draw_good_metric, 2)
    completed = 0
    for t in _certificate_towers(ring, rng):
        for m in metrics:
            for horizon, levels in ((2, 0), (3, 4), (9, 8)):
                if reference_is_cauchy(t, m, horizon, levels).verdict == "not_cauchy":
                    with pytest.raises(PreconditionError, match="not Cauchy"):
                        complete(t, m, horizon, levels)
                    continue
                window, rep, cert, table = reference_complete(t, m, horizon, levels)
                c = complete(t, m, horizon, levels)
                assert (c.table.window, c.representative) == (window, rep)
                assert dataclasses.asdict(c.certificate) == dataclasses.asdict(cert)
                assert dataclasses.asdict(c.table) == dataclasses.asdict(table)
                completed += 1
    assert completed > 0


def test_equivalent_metrics_give_equal_conclusive_verdicts(draw_good_metric):
    # the completion is built from Cauchy sequences and balls, so it
    # depends only on a metric's class under equivalent: within a class no
    # two conclusive verdicts differ, and every Cauchy verdict reads the
    # same colimit table.  inconclusive is allowed: a prefix-only tower is
    # always, and a tail tower may be at a horizon too small for a level
    # (ROADMAP item 2)
    rng = random.Random(17)
    classes = []
    for m in _certificate_metrics(rng, draw_good_metric, 12):
        same = next((c for c in classes if equivalent(c[0], m, levels=0).equivalent), None)
        if same is None:
            classes.append([m])
        else:
            same.append(m)
    classes = [c for c in classes if len(c) > 1]
    seen = set()
    for ring in (R22, Ring(3, 3), Ring(2, 4)):
        for t in _colimit_towers(ring, rng):
            for c in classes:
                certs = [is_cauchy(t, m, 6, 3) for m in c]
                verdicts = {cert.verdict for cert in certs if cert.conclusive}
                assert len(verdicts) <= 1, (t.tail, [m.pieces for m in c], [cert.verdict for cert in certs])
                tables = [dataclasses.asdict(colimit(t, (-2, 2), 6, cert))
                          for cert in certs if cert.verdict == "cauchy"]
                assert all(table == tables[0] for table in tables), (t.tail, [m.pieces for m in c])
                seen |= verdicts
    assert len(classes) >= 3 and seen == {"cauchy", "not_cauchy"}
