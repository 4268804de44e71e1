"""Good metrics as families of cohomology-vanishing specifications.

A ball family assigns to each level n >= 1 the set of degrees where
cohomology must vanish; membership of a bounded complex in the n-th ball
is then a finite check on its cohomology support.  Every family is a union
of closed degree runs [lo(n), hi(n)] (rays have one open end) with ends
integer-linear in n, so a run holds a degree on one range of levels: ball
membership and ball levels read these ranges, exactly for every family,
and inclusions and the good-metric axioms are linear inequalities in n.
Lengths of morphisms are exact rationals 1/n read off the cone's support.

The three standard families, for a homological functor H:
  i)   vanish in degrees i > -n,
  ii)  vanish in degrees i < n,
  iii) vanish in degrees -n < i < n,
with family (iii) self-dual and families (i)/(ii) exchanged by k-linear
dualization.  Family (i) of the opposite category equals family (ii); the
dual flag realizes opposite-side measurement by degree negation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .rmodule import Ring
from .complexes import (
    ChainMap,
    Complex,
    PreconditionError,
    cohomology_support,
    cone_support,
    homotopy_pushout,
    module_complex,
    shift,
)
from .rmodule import RModule


@dataclass(frozen=True)
class LinearExpr:
    """a*n + b, evaluated at ball level n."""

    a: int
    b: int

    def __call__(self, n: int) -> int:
        return self.a * n + self.b

    def __add__(self, t: int) -> "LinearExpr":
        return LinearExpr(self.a, self.b + t)

    def __neg__(self) -> "LinearExpr":
        return LinearExpr(-self.a, -self.b)

    def __str__(self):
        if self.a == 0:
            return str(self.b)
        an = {1: "n", -1: "-n"}.get(self.a, "%d*n" % self.a)
        if self.b == 0:
            return an
        return "%s%+d" % (an, self.b)


def _closed_run(p: tuple, dual: bool) -> tuple:
    """The declared piece p as a closed run (lo, hi), None at a ray's open
    end: ("above", a) is [a+1, ...), ("below", b) is (..., b-1] and
    ("interval", a, b) is [a+1, b-1]; negated to (-hi, -lo) under dual."""
    kind, *ends = p
    lo = None if kind == "below" else ends[0] + 1
    hi = None if kind == "above" else ends[-1] + (-1)
    if dual:
        lo, hi = (None if hi is None else -hi), (None if lo is None else -lo)
    return lo, hi


def _merged(spans) -> list[tuple]:
    """The closed integer spans (lo, hi) as sorted, disjoint, non-adjacent runs."""
    merged: list[tuple] = []
    for lo, hi in sorted(spans):
        if merged and lo <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


@dataclass(frozen=True)
class VanishingSpec:
    """Finite union of closed degree runs (lo, hi) = {i : lo <= i <= hi}, in
    declared order and unmerged; a ray's open end is -inf or +inf."""

    pieces: tuple[tuple, ...] = ()

    @staticmethod
    def empty() -> "VanishingSpec":
        return VanishingSpec(())

    def contains(self, i: int) -> bool:
        return any(lo <= i <= hi for lo, hi in self.pieces)

    def shifted(self, t: int) -> "VanishingSpec":
        return VanishingSpec(tuple((lo + t, hi + t) for lo, hi in self.pieces))

    def negated(self) -> "VanishingSpec":
        return VanishingSpec(tuple((-hi, -lo) for lo, hi in self.pieces))

    def runs(self) -> list[tuple]:
        """The degrees as sorted, disjoint, non-adjacent runs [lo, hi] of
        integers; the ends of rays are -inf/+inf."""
        return _merged(self.pieces)

    def is_subset(self, other: "VanishingSpec") -> bool:
        target = other.runs()
        return all(any(lo >= olo and hi <= ohi for olo, ohi in target)
                   for lo, hi in self.runs())


def _level_range(constraints: list[tuple[int, int]]) -> tuple | None:
    """The levels n >= 2 with a*n + b > 0 for every constraint (a, b), as an
    integer range (first, last) where last may be inf; None when there are
    none."""
    lo, hi = 2, math.inf
    for a, b in constraints:
        # a*n + b > 0 over the integers is a*n >= 1 - b
        if a > 0:
            lo = max(lo, -((b - 1) // a))
        elif a < 0:
            hi = min(hi, (1 - b) // a)
        elif b <= 0:
            return None
    return (lo, hi) if lo <= hi else None


def _meeting_constraints(run: tuple, d: int, below: bool) -> list[tuple[int, int]]:
    """Conditions on n for the run (lo, hi) at level n to hold degree d, or
    (below) to hold some degree <= d; each condition (a, b) reads a*n + b > 0."""
    lo, hi = run
    out = [] if lo is None else [(-lo.a, d + 1 - lo.b)]  # lo(n) <= d
    if hi is not None and not below:
        out.append((hi.a, hi.b + 1 - d))  # d <= hi(n)
    elif hi is not None and lo is not None:
        out.append((hi.a - lo.a, hi.b + 1 - lo.b))  # lo(n) <= hi(n)
    return out


class GoodMetric:
    """Ball family: level n maps to the vanishing spec cutting out B_n.

    pieces are the declared ("above", a), ("below", b) and ("interval", a, b)
    with LinearExpr endpoints (the workspace grammar); they cut out B_n for
    n >= 2, and B_1 is everything.  effective_pieces, the one form the
    algorithms read, holds them as closed runs (lo, hi), negated under the
    dual flag, which measures on the opposite side.
    """

    def __init__(self, name: str, pieces, dual: bool = False):
        self.name = name
        self.pieces = tuple(pieces)
        self.dual = dual
        self.effective_pieces = tuple(_closed_run(p, dual) for p in self.pieces)

    def effective_spec(self, n: int) -> VanishingSpec:
        if n < 1:
            raise PreconditionError("ball level must be >= 1, got %d" % n)
        if n == 1:
            return VanishingSpec.empty()
        at_n = ((-math.inf if lo is None else lo(n), math.inf if hi is None else hi(n))
                for lo, hi in self.effective_pieces)
        return VanishingSpec(tuple(r for r in at_n if r[0] <= r[1]))

    def display_name(self) -> str:
        return self.name + (":dual" if self.dual else "")

    # -- ball membership & lengths ----------------------------------------

    def _level_ranges(self, supp: frozenset, below: int | None = None) -> list[tuple]:
        """Per run and probe, the range of levels n >= 2 where the run holds
        the support degree (for the below probe, a degree <= below)."""
        probes = [(d, False) for d in supp] + ([] if below is None else [(below, True)])
        return [r for run in self.effective_pieces for d, ray in probes
                if (r := _level_range(_meeting_constraints(run, d, ray))) is not None]

    def ball_level(self, supp: frozenset, below: int | None = None) -> int | None:
        """Largest n with the support, and every degree <= below when given,
        inside B_n; None when inside B_n for infinitely many n.

        B_n misses them exactly at the levels in the ranges; when those end
        in an unbounded run from s, B_(s-1) is the deepest ball holding them.
        Exact for every family; for a nested one every range is a ray."""
        runs = _merged(self._level_ranges(supp, below))
        return runs[-1][0] - 1 if runs and runs[-1][1] == math.inf else None

    def support_length(self, supp: frozenset, below: int | None = None) -> Fraction:
        """1/ball_level(supp, below), or 0 when inside infinitely many balls."""
        level = self.ball_level(supp, below)
        return Fraction(0) if level is None else Fraction(1, level)

    def holds_support(self, supp: frozenset, n: int) -> bool:
        """Whether a complex with this cohomology support lies in B_n: n is
        in no level range (so B_1 is everything)."""
        if n < 1:
            raise PreconditionError("ball level must be >= 1, got %d" % n)
        return not any(first <= n <= last for first, last in self._level_ranges(supp))


def in_ball(x: Complex, n: int, m: GoodMetric) -> bool:
    """Membership of a complex in the n-th ball (B_1 is everything)."""
    return m.holds_support(cohomology_support(x), n)


def object_length(x: Complex, m: GoodMetric) -> Fraction:
    """Length of 0 -> x: the infimum of 1/n over balls containing x."""
    return m.support_length(cohomology_support(x))


def length(f: ChainMap, m: GoodMetric) -> Fraction:
    """Length of a morphism: 0 for quasi-isos, else 1/(deepest ball of the
    cone), read off cone_support without building the cone."""
    return m.support_length(cone_support(f))


# -- the standard families ---------------------------------------------------


def metric_i(dual: bool = False) -> GoodMetric:
    return GoodMetric("i", [("above", LinearExpr(-1, 0))], dual=dual)


def metric_ii(dual: bool = False) -> GoodMetric:
    return GoodMetric("ii", [("below", LinearExpr(1, 0))], dual=dual)


def metric_iii(dual: bool = False) -> GoodMetric:
    return GoodMetric("iii", [("interval", LinearExpr(-1, 0), LinearExpr(1, 0))], dual=dual)


def shifted_family(m: GoodMetric, t: int) -> GoodMetric:
    """The family {T^t B_n}: the effective endpoints translated by -t."""
    raw = t if m.dual else -t
    return GoodMetric("T^%d(%s)" % (t, m.name),
                      [(p[0],) + tuple(e + raw for e in p[1:]) for p in m.pieces], dual=m.dual)


def standard_metric(spec: str) -> GoodMetric:
    """Parse "i", "ii", "iii", optionally suffixed ":dual"."""
    name, _, flag = spec.partition(":")
    if flag not in ("", "dual"):
        raise ValueError("unknown metric flag %r" % flag)
    dual = flag == "dual"
    table = {"i": metric_i, "ii": metric_ii, "iii": metric_iii}
    if name not in table:
        raise ValueError("unknown metric %r" % spec)
    return table[name](dual=dual)


# -- axiom checking -----------------------------------------------------------


@dataclass
class AxiomReport:
    metric: str
    levels_checked: int
    shift_violations: list = field(default_factory=list)  # (n, shift, witness degree)
    fuzz_samples: int = 0
    fuzz_violations: list = field(default_factory=list)  # (sample, n, support of bad cone)

    @property
    def ok(self) -> bool:
        return not self.shift_violations and not self.fuzz_violations


def _witness_degree(a: VanishingSpec, b: VanishingSpec) -> int | None:
    """The first degree of a outside b, walking each run of a from its
    finite end: up from its lower end, or down from a below ray's upper
    end."""
    runs = b.runs()
    for lo, hi in a.pieces:
        if lo == -math.inf:
            i = hi
            for rlo, rhi in reversed(runs):
                if rlo <= i <= rhi:
                    i = rlo - 1
        else:
            i = lo
            for rlo, rhi in runs:
                if rlo <= i <= rhi:
                    i = rhi + 1
        if lo <= i <= hi and math.isfinite(i):
            return i
    return None


def shift_violations(m: GoodMetric, n: int) -> list[tuple[int, int, int]]:
    """The failures (n, t, witness degree) of T^t B_(n+1) inside B_n, t = -1, 0, 1.

    On effective specs the inclusion is spec(n) shifted by t inside
    spec(n+1); the witness degree carries a complex of B_(n+1) whose
    t-shift leaves B_n."""
    spec, target = m.effective_spec(n), m.effective_spec(n + 1)
    out = []
    for t in (-1, 0, 1):
        src = spec.shifted(t)
        if not src.is_subset(target):
            out.append((n, t, _witness_degree(src, target)))
    return out


def first_shift_violation(m: GoodMetric, start: int = 1) -> tuple[int, int, int] | None:
    """The first failure of the shift axiom at a level >= start, over all
    levels.

    Deciding the axiom at level n compares endpoints a*n+b of spec(n) and
    a'*(n+1)+b' of spec(n+1), each up to a constant of at most 3; each
    comparison has the sign of (a-a')n + c with |c| <= |b|+|a'|+|b'|+3 <=
    2M+3, where M bounds |a|+|b| over all endpoints.  No comparison changes
    sign past 2M+3, so the levels up to 2M+4 decide every level.
    """
    bound = 2 * max((abs(e.a) + abs(e.b) for p in m.pieces for e in p[1:]), default=0) + 4
    for n in range(start, bound + 1):
        bad = shift_violations(m, n)
        if bad:
            return bad[0]
    return None


def require_good(m: GoodMetric) -> None:
    """Refuse a metric that is not good, naming the first level where its
    shift axiom fails (certificates and equivalence need good metrics)."""
    bad = first_shift_violation(m)
    if bad is not None:
        n, t, deg = bad
        raise PreconditionError(
            "metric %s is not good: at level %d, T^%d B_%d is not inside B_%d (witness degree %d)"
            % (m.display_name(), n, t, n + 1, n, deg))


def check_good_axioms(m: GoodMetric, ring: Ring, levels: int = 50,
                      samples: int = 200, seed: int = 0) -> AxiomReport:
    """Verify the good-metric axioms.

    Axiom (ii), the shrinking condition T^-1 B_(n+1), B_(n+1), T B_(n+1)
    inside B_n, is decided symbolically: it amounts to spec(n) and both its
    unit shifts being contained in spec(n+1).  Every violation up to the
    given level is reported; when there is none, the first violation at any
    deeper level is, so the verdict holds for all n.  Axiom (i), closure of
    balls under extensions, holds symbolically for every vanishing-spec
    family by the long exact sequence of the cone (the support of an
    extension lies in the union of the supports); it is additionally fuzzed
    on random triangles with both ends in a ball.  levels and samples must
    be >= 0.
    """
    from .randomgen import Sampler

    if levels < 0:
        raise PreconditionError("levels (--levels) must be >= 0, got %d" % levels)
    if samples < 0:
        raise PreconditionError("samples (--samples) must be >= 0, got %d" % samples)
    report = AxiomReport(metric=m.display_name(), levels_checked=levels)
    for n in range(1, levels + 1):
        report.shift_violations.extend(shift_violations(m, n))
    if not report.shift_violations:
        deeper = first_shift_violation(m, start=levels + 1)
        if deeper is not None:
            report.shift_violations.append(deeper)
    # fuzz axiom (i) on random triangles b -> z -> b' with b, b' in B_n
    rng = random.Random(seed)
    sampler = Sampler(ring, rng)
    done = 0
    level_cycle = [2, 3, 4, 5]
    while done < samples:
        n = level_cycle[done % len(level_cycle)]
        spec = m.effective_spec(n)
        allowed = [i for i in range(-(n + 6), n + 7) if not spec.contains(i)]
        if not allowed:
            done += 1
            continue
        degs = rng.sample(allowed, k=min(3, len(allowed)))
        b = sampler.complex(0, 0, max_blocks=2, degrees=degs)
        b2 = sampler.complex(0, 0, max_blocks=2, degrees=degs)
        supp = cone_support(sampler.chain_map(shift(b2, -1), b))
        if not m.holds_support(supp, n):
            report.fuzz_violations.append((done, n, sorted(supp)))
        done += 1
    report.fuzz_samples = done
    return report


# -- equivalence ---------------------------------------------------------------


@dataclass
class EquivalenceReport:
    """witness[n], n <= levels, is the least m putting each metric's B_m in
    the other's B_n; fail_level may exceed levels; search_bound only sizes
    the separating family's probes."""

    metric1: str
    metric2: str
    equivalent: bool
    levels: int
    search_bound: int
    witness: dict[int, int] = field(default_factory=dict)  # n -> m
    fail_level: int | None = None
    separating: list = field(default_factory=list)  # (direction, m, degree)

    def separating_complexes(self, ring: Ring) -> list[tuple[int, Complex]]:
        """Materialize the separating family: simple stalks k at the
        recorded degrees (arbitrarily short in one metric, long in the other)."""
        k = RModule(ring, (1,))
        return [(mm, module_complex(k, deg)) for _, mm, deg in self.separating]


def _first_nonempty_level(m: GoodMetric) -> int | None:
    """The least level n >= 2 with spec(n) nonempty, or None."""
    ranges = [_level_range([] if lo is None or hi is None else
                           [(hi.a - lo.a, hi.b + 1 - lo.b)])  # lo(n) <= hi(n)
              for lo, hi in m.effective_pieces]
    return min((r[0] for r in ranges if r is not None), default=None)


def _fail_level(inner: GoodMetric, outer: GoodMetric) -> int | None:
    """The least n with no m putting B(inner)_m inside B(outer)_n, or None."""
    rays_in, rays_out = ({k for run in m.effective_pieces for k, end in enumerate(run) if end is None}
                         for m in (inner, outer))  # open ends: 0 below, 1 above
    if not rays_out <= rays_in:
        return 2
    return _first_nonempty_level(outer) if _first_nonempty_level(inner) is None else None


def equivalent(m1: GoodMetric, m2: GoodMetric, levels: int = 20,
               search_bound: int = 200) -> EquivalenceReport:
    """Decide equivalence of two good metrics (require_good) at every level.

    B(in)_m inside B(out)_n iff spec_out(n) lies in spec_in(m) (effective
    specs; spec(1) is empty).  By the shift axiom spec(m+1) contains
    spec(m) and both its unit shifts: once nonempty, a spec's runs grow by
    at least one degree on each side per level, so they eventually cover
    any finite set and the finite ends of its rays move outward without
    bound.  Pieces are never dropped, so spec(n) has the same rays (above,
    below) at every n >= 2.  So some m serves a level n >= 2 iff rays(out)
    lies in rays(in), and spec_out(n) is empty or some spec_in(m) is not.

    A direction thus fails from level 2 if a ray is missing, else from the
    least level with spec_out nonempty; the report names the earlier one
    ("1->2": B(1) inside B(2); "1->2" on a tie) with stalk degrees that
    separate it at inner levels up to search_bound.  Otherwise the witness
    table holds, for n <= levels, the max over both directions of the
    least m: containment is monotone in m and the least m never falls as
    n grows, so each level's scan starts at the previous witness.
    search_bound must be >= 1 and levels >= 0.
    """
    if search_bound < 1:
        raise PreconditionError("search_bound (--bound) must be >= 1, got %d" % search_bound)
    if levels < 0:
        raise PreconditionError("levels (--levels) must be >= 0, got %d" % levels)
    require_good(m1)
    require_good(m2)
    report = EquivalenceReport(metric1=m1.display_name(), metric2=m2.display_name(),
                               equivalent=True, levels=levels, search_bound=search_bound)
    f12, f21 = _fail_level(m1, m2), _fail_level(m2, m1)
    if f12 is not None or f21 is not None:
        n = min(f for f in (f12, f21) if f is not None)
        direction, inner, outer = ("1->2", m1, m2) if f12 == n else ("2->1", m2, m1)
        report.equivalent = False
        report.fail_level = n
        report.separating = [
            (direction, mm, _witness_degree(outer.effective_spec(n), inner.effective_spec(mm)))
            for mm in sorted({1, 2, 4, 8, max(16, search_bound // 2), search_bound})
            if mm <= search_bound]
        return report
    least = {(m1, m2): 1, (m2, m1): 1}  # (inner, outer) -> least m at the last level
    for n in range(1, levels + 1):
        for inner, outer in least:
            spec_out = outer.effective_spec(n)
            while not spec_out.is_subset(inner.effective_spec(least[inner, outer])):
                least[inner, outer] += 1
        report.witness[n] = max(least.values())
    return report


# -- metric checks on morphisms -------------------------------------------------


@dataclass
class TriangleInequalityCheck:
    ok: bool
    length_f: Fraction
    length_g: Fraction
    length_gf: Fraction


def strong_triangle_check(f: ChainMap, g: ChainMap, m: GoodMetric) -> TriangleInequalityCheck:
    """length(g o f) <= max(length(f), length(g))."""
    if f.target != g.source:
        raise PreconditionError("maps are not composable")
    lf = length(f, m)
    lg = length(g, m)
    lgf = length(g @ f, m)
    return TriangleInequalityCheck(lgf <= max(lf, lg), lf, lg, lgf)


@dataclass
class CartesianInvarianceCheck:
    ok: bool
    length_f: Fraction
    length_g: Fraction


def cartesian_invariance_check(f: ChainMap, h: ChainMap, m: GoodMetric) -> CartesianInvarianceCheck:
    """Homotopy pushout invariance: the induced g : C -> D in the square
    built on f : A -> B and h : A -> C has the same length as f.

    The square is complexes.homotopy_pushout: u : A -> B (+) C and g are
    built once each from the direct-sum maps, so a check builds two chain
    maps and one cone."""
    _, g = homotopy_pushout(f, h)
    lf = length(f, m)
    lg = length(g, m)
    return CartesianInvarianceCheck(lf == lg, lf, lg)
