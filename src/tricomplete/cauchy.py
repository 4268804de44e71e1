"""Towers of complexes, Cauchy certification and degreewise colimits.

A tower is a composable sequence X_1 -> X_2 -> ... given by an explicit
finite prefix plus an optional structured tail rule that generates entries
on demand:

  * truncation tail of a module M: X_k is the brutal truncation to degrees
    >= -k of the minimal free resolution of M (below the cover the
    resolution is the closed-form 2-periodic tail, read from the stages
    rmodule._tail_stage shares with resolution bands, so any X_k costs no
    elimination);
  * constant tail at a bounded complex X: X_k = X.

Every tail's X_k is a subcomplex of X_(k+1), so Tower builds every
connecting map past the prefix by one rule, the inclusion: the identity
on each component of X_k.  The tail kinds live here, and this module is
the one place that knows what a tail kind implies (the workspace table
_TAILS only maps a TAIL keyword to its class).  Each tail rule answers
the rest for itself: the cohomology support of every cone X_i -> X_j
(tail_support), the entry from which H^i is stable (stable_from), and
the representative of its colimit with a default window around it.  For tail towers the cone of X_i -> X_j is the
quotient complex, so certificates are unconditional: the union over all
j > i of these supports (a point and a ray escaping to -infinity) is
measured exactly, once per i, and colimits read H^i off the one entry
from which the tail is constant around degree i, whatever the horizon.
Certificates are issued only for good metrics, and every threshold M(n)
is read from the sup lengths by one rule.  Prefix-only towers can only
ever be measured (and their colimits scanned) up to the horizon, and
their certificates say so rather than guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .rmodule import (
    RModule,
    RModuleMap,
    Ring,
    _tail_stage,
    free_module,
    identity_map,
)
from .complexes import (
    ChainMap,
    Complex,
    PreconditionError,
    cohomology_data,
    cohomology_support,
    identity_chain_map,
    induces_iso,
    module_complex,
)
from .metric import GoodMetric, length, require_good


class TruncationTail:
    """Generates brutal truncations of the minimal free resolution of M.

    F_0 = R^(#blocks of M) and below it the closed-form periodic tail:
    F_t covers Omega^t M, and d : F_t -> F_(t-1) is that cover followed by
    the embedding of Omega^t M in F_(t-1): the t-th rmodule._tail_stage
    walked from M, shared and read-only.  Its colimit is M in degree 0,
    and the default colimit window is [-2, 2].  Its stages are built
    trusted.
    """

    window = (-2, 2)

    def __init__(self, module: RModule):
        self.module = module
        self.ring = module.ring

    def complex_at(self, k: int) -> Complex:
        comps = {0: free_module(self.ring, len(self.module.blocks))}
        diffs, m = {}, self.module
        for t in range(1, k + 1):
            rank_t, d, m, _ = _tail_stage(m)
            comps[-t] = free_module(self.ring, rank_t)
            diffs[-t] = RModuleMap._trusted(comps[-t], comps[-t + 1], d)
        return Complex._trusted(self.ring, comps, diffs)

    def tail_support(self, i: int) -> tuple[frozenset, int | None]:
        """Union over all j > i of the cohomology supports of cone(X_i -> X_j),
        as a finite set plus the top of a ray of degrees escaping to -infinity.

        The cone is the quotient complex in degrees [-j, -i-1]: its top
        cohomology is the covered syzygy Omega^(i+1) M, its bottom is
        Omega^(j+1) M, and middle degrees are exact.  For i >= 0 both are
        nonzero exactly when M is neither free nor zero, since the syzygies
        of such a module never vanish; then -j runs over every degree <= -i-1,
        and the top, -i-1, lies on that ray.
        """
        escapes = not self.module.is_free() and not self.module.is_zero()
        return frozenset(), (-i - 1 if escapes else None)

    def stable_from(self, i: int) -> int:
        """From X_k with k >= this on, degrees i-1..i+1 are all in X_k."""
        return max(1, 1 - i)

    def representative(self) -> Complex:
        return module_complex(self.module, 0)


class ConstantTail:
    """X_k = X for all k.  Its colimit is X, and the default colimit window
    is X's hull widened by 1 on each side ([-1, 1] when X is zero)."""

    def __init__(self, x: Complex):
        self.complex = x
        self.ring = x.ring
        self.window = (-1, 1) if x.is_zero() else (x.min_degree - 1, x.max_degree + 1)

    def complex_at(self, k: int) -> Complex:
        return self.complex

    def tail_support(self, i: int) -> tuple[frozenset, int | None]:
        return frozenset(), None

    def stable_from(self, i: int) -> int:
        return 1

    def representative(self) -> Complex:
        return self.complex


def _inclusion(xk: Complex, xk1: Complex) -> ChainMap:
    """A tail's connecting map X_k -> X_(k+1): the identity on every
    component of X_k, a subcomplex of X_(k+1) (X_(k+1) = X_k for a
    constant tail)."""
    return ChainMap._trusted(xk, xk1, {i: identity_map(xk.component(i)) for i in xk.degrees})


class Tower:
    """Cauchy-sequence candidate: finite prefix plus optional tail rule."""

    def __init__(self, ring: Ring, prefix: list[Complex] | None = None,
                 prefix_maps: list[ChainMap] | None = None,
                 tail: TruncationTail | ConstantTail | None = None):
        self.ring = ring
        self.prefix = list(prefix or [])
        self.prefix_maps = list(prefix_maps or [])
        self.tail = tail
        if not self.prefix and tail is None:
            raise PreconditionError("a tower needs a prefix entry or a tail rule")
        if len(self.prefix_maps) != max(len(self.prefix) - 1, 0):
            raise PreconditionError("need exactly one connecting map between consecutive prefix entries")
        for k, f in enumerate(self.prefix_maps):
            if f.source != self.prefix[k] or f.target != self.prefix[k + 1]:
                raise PreconditionError("connecting map %d does not match prefix entries" % (k + 1))
        if tail is not None:
            for k, x in enumerate(self.prefix, start=1):
                if x != tail.complex_at(k):
                    raise PreconditionError("prefix entry %d disagrees with the tail rule" % k)
            for k, f in enumerate(self.prefix_maps, start=1):
                if f != _inclusion(self.prefix[k - 1], self.prefix[k]):
                    raise PreconditionError("connecting map %d disagrees with the tail rule" % k)

    def available_horizon(self, requested: int) -> int:
        if self.tail is not None:
            return requested
        return min(requested, len(self.prefix))

    def complex_at(self, k: int) -> Complex:
        if k < 1:
            raise PreconditionError("tower entries start at 1")
        if k <= len(self.prefix):
            return self.prefix[k - 1]
        if self.tail is None:
            raise PreconditionError("tower entry %d beyond prefix of length %d (no tail rule)"
                                    % (k, len(self.prefix)))
        return self.tail.complex_at(k)

    def map_at(self, k: int) -> ChainMap:
        """Connecting map X_k -> X_(k+1): past the prefix, the inclusion."""
        if k < 1:
            raise PreconditionError("tower entries start at 1")
        if k < len(self.prefix):
            return self.prefix_maps[k - 1]
        if self.tail is None:
            raise PreconditionError("connecting map %d beyond prefix (no tail rule)" % k)
        return _inclusion(self.complex_at(k), self.complex_at(k + 1))


def truncation_tower(m: RModule) -> Tower:
    return Tower(m.ring, tail=TruncationTail(m))


def constant_tower(x: Complex) -> Tower:
    return Tower(x.ring, tail=ConstantTail(x))


def prefix_tower(complexes: list[Complex], maps: list[ChainMap]) -> Tower:
    if not complexes:
        raise PreconditionError("a prefix tower needs at least one entry")
    return Tower(complexes[0].ring, prefix=complexes, prefix_maps=maps)


# -- Cauchy certification ------------------------------------------------------


@dataclass
class CauchyCertificate:
    metric: str
    horizon: int
    levels: int
    verdict: str  # "cauchy" | "not_cauchy" | "inconclusive"
    thresholds: dict[int, int] = field(default_factory=dict)  # n -> M(n)
    sup_lengths: dict[int, Fraction] = field(default_factory=dict)  # i -> sup over j of length
    violation: tuple | None = None  # (n, i, j, length)
    note: str = ""

    @property
    def is_cauchy(self) -> bool:
        return self.verdict == "cauchy"

    @property
    def conclusive(self) -> bool:
        return self.verdict != "inconclusive"


def is_cauchy(tower: Tower, m: GoodMetric, horizon: int, levels: int) -> CauchyCertificate:
    """Certify the Cauchy condition per level n: a threshold M(n) beyond
    which all composites are shorter than 1/n.

    Only good metrics are certified: a metric whose shift axiom fails at
    some level is refused.  Each branch gives sup_lengths, the sup over
    j >= i of length(X_i -> X_j) for i up to the horizon h: a tail tower
    reads it off the closed-form cone supports, exactly; a prefix-only
    tower measures one running composite per entry within the available
    prefix.  M(n) is then the least M with every sup_lengths[i], i >= M,
    below 1/n.  A tail tower's certificate is unconditional, and
    inconclusive only when some level n finds no M up to the horizon; a
    prefix-only tower's is always inconclusive (never a false positive).
    horizon must be >= 2 and levels >= 0.
    """
    if horizon < 2:
        raise PreconditionError("horizon (--horizon) must be >= 2, got %d" % horizon)
    if levels < 0:
        raise PreconditionError("levels (--levels) must be >= 0, got %d" % levels)
    require_good(m)
    h = tower.available_horizon(horizon)
    cert = CauchyCertificate(metric=m.display_name(), horizon=h, levels=levels, verdict="cauchy")
    if tower.tail is not None:
        # exact: the balls of a good metric are nested, so the least level
        # over the union of all cone supports is the least level over each
        cert.sup_lengths = {i: m.support_length(*tower.tail.tail_support(i)) for i in range(1, h + 1)}
        _, escape = tower.tail.tail_support(h)
        runs = m.effective_spec(2).runs()
        if escape is not None and runs and runs[0][0] == -math.inf:
            # a below ray meets the escaping ray at every level, so lengths
            # stay 1 arbitrarily deep.  Witness: the least j > h with -j in
            # spec(2), i.e. its greatest degree <= -h-1
            top = max(min(hi, escape) for lo, hi in runs if lo <= escape)
            cert.verdict = "not_cauchy"
            cert.violation = (1, h, -top, Fraction(1))
            return cert
    else:
        for i in range(1, h + 1):  # one running composite X_i -> X_j per i
            acc = identity_chain_map(tower.complex_at(i))
            cert.sup_lengths[i] = length(acc, m)
            for j in range(i + 1, h + 1):
                acc = tower.map_at(j - 1) @ acc
                cert.sup_lengths[i] = max(cert.sup_lengths[i], length(acc, m))
        cert.verdict = "inconclusive"
        cert.note = "prefix-only tower: behaviour beyond entry %d is unknown" % h
    beyond = {h + 1: Fraction(0)}  # beyond[M] = max(sup_lengths[M..h])
    for i in range(h, 0, -1):
        beyond[i] = max(beyond[i + 1], cert.sup_lengths[i])
    for n in range(1, levels + 1):
        found = next((M for M in range(1, h + 1) if beyond[M] < Fraction(1, n)), None)
        if found is None:
            if tower.tail is not None:
                cert.verdict = "inconclusive"
                cert.note = "horizon %d too small to certify level %d" % (h, n)
            break
        cert.thresholds[n] = found
    return cert


# -- colimits --------------------------------------------------------------------


@dataclass
class ColimitTable:
    ring: Ring
    window: tuple[int, int]
    horizon: int
    entries: dict[int, tuple[RModule, int]] = field(default_factory=dict)  # i -> (H, k_i)
    inconclusive: list[int] = field(default_factory=list)
    outside_window_vanishes: bool = False

    @property
    def conclusive(self) -> bool:
        return not self.inconclusive and self.outside_window_vanishes

    def module_at(self, i: int) -> RModule | None:
        entry = self.entries.get(i)
        return entry[0] if entry else None

    def support(self) -> list[int]:
        return sorted(i for i, (mod, _) in self.entries.items() if not mod.is_zero())


def colimit(tower: Tower, window: tuple[int, int], horizon: int,
            certificate: CauchyCertificate) -> ColimitTable:
    """Degreewise stabilized cohomology of the tower over the window: entry
    i is (H^i(X_k), k) with H^i of every connecting map from X_k on an
    isomorphism, and i is inconclusive when no such k <= h - 1 is known.

    A tail tower takes k = tail.stable_from(i), however large, and computes
    H^i once, on X_k, so its table does not depend on the horizon.  This
    is exact for every later map, not just up to the horizon:
    for k' >= k, X_k' and X_(k'+1) have the same components in degrees
    i-1..i+1 and the same d^(i-1) and d^i (a truncation adds components
    only below -k' <= i-1, a constant tail none), and the connecting map,
    which Tower checks against the rule, is the identity there, so H^i of
    it is the identity on the same data.  The tail tower's colimit
    vanishes outside the window iff its representative's cohomology
    support lies inside it.  A prefix-only tower is scanned: the least k
    whose maps up to the horizon are isomorphisms on H^i, found by walking
    down from the horizon, so each connecting map is read at most once, by
    induces_iso, and H^i of each entry, a type, only when the walk reaches it.
    """
    if certificate.verdict == "not_cauchy":
        raise PreconditionError("tower is not Cauchy for %s: no colimit in the completion"
                                % certificate.metric)
    lo, hi = window
    if lo > hi:
        raise PreconditionError("empty window")
    h = tower.available_horizon(horizon)
    table = ColimitTable(ring=tower.ring, window=window, horizon=h)
    if tower.tail is not None:
        table.outside_window_vanishes = all(
            lo <= i <= hi for i in cohomology_support(tower.tail.representative()))
    for i in range(lo, hi + 1):
        if tower.tail is not None:
            k_i = tower.tail.stable_from(i)
            data = cohomology_data(tower.complex_at(k_i), i)
        else:
            k_i, upper = h, cohomology_data(tower.complex_at(h), i) if h > 1 else None
            while k_i > 1:
                lower = cohomology_data(tower.complex_at(k_i - 1), i)
                if not induces_iso(tower.map_at(k_i - 1), i, lower, upper):
                    break
                k_i, upper = k_i - 1, lower
            data = upper if k_i < h else None
        if data is None:
            table.inconclusive.append(i)
        else:
            table.entries[i] = (data.module, k_i)
    return table
