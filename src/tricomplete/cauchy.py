"""Towers of complexes, Cauchy certification and degreewise colimits.

A tower is a composable sequence X_1 -> X_2 -> ... given by an explicit
finite prefix plus an optional structured tail rule that generates entries
on demand:

  * truncation tail of a module M: X_k is the brutal truncation to degrees
    >= -k of the minimal free resolution of M, with subcomplex inclusions
    as connecting maps (below the cover the resolution is the closed-form
    2-periodic tail, so any X_k costs no elimination);
  * constant tail at a bounded complex X: X_k = X with identity maps.

For tail towers the cone of X_i -> X_j is the quotient complex, whose
cohomology support has a closed form, so certificates are unconditional:
the union over all j > i of these supports (a point and a ray escaping to
-infinity) is measured exactly, once per i, and colimits read H^i off the
one entry from which the tail is constant around degree i.  Certificates
are issued only for good metrics.  Prefix-only towers can only ever be
measured (and their colimits scanned) up to the horizon, and their
certificates say so rather than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .rmodule import (
    RModule,
    RModuleMap,
    Ring,
    free_module,
    identity_map,
    omega_power,
    periodic_tail,
    syzygy_embedding,
)
from .complexes import (
    ChainMap,
    Complex,
    PreconditionError,
    cohomology_data,
    cohomology_map,
    identity_chain_map,
)
from .metric import GoodMetric, length, require_good


class TruncationTail:
    """Generates brutal truncations of the minimal free resolution of M.

    F_0 = R^(#blocks of M) and below it the closed-form periodic tail of
    Omega M >-> F_0 (rmodule.periodic_tail): F_t covers Omega^t M, and
    d : F_t -> F_(t-1) is that cover followed by the syzygy_embedding of
    Omega^t M in F_(t-1).
    """

    def __init__(self, module: RModule):
        self.module = module
        self.ring = module.ring

    def free(self, t: int) -> RModule:
        return free_module(self.ring, len(omega_power(self.module, t).blocks))

    def complex_at(self, k: int) -> Complex:
        comps = {0: free_module(self.ring, len(self.module.blocks))}
        diffs = {}
        tail = periodic_tail(*syzygy_embedding(self.module))
        for t in range(1, k + 1):
            rank_t, d, _ = next(tail)
            comps[-t] = free_module(self.ring, rank_t)
            diffs[-t] = RModuleMap(comps[-t], comps[-t + 1], d)
        return Complex(self.ring, comps, diffs)

    def map_at(self, k: int, xk: Complex, xk1: Complex) -> ChainMap:
        return ChainMap(xk, xk1, {i: identity_map(xk.component(i)) for i in xk.degrees})

    def tail_support(self, i: int) -> tuple[frozenset, int | None]:
        """Union over all j > i of the cohomology supports of cone(X_i -> X_j),
        as a finite set plus the top of a ray of degrees escaping to -infinity.

        The cone is the quotient complex in degrees [-j, -i-1]: its top
        cohomology is the covered syzygy (nonzero iff F_(i+1) is), its
        bottom is Omega^(j+1) M, and middle degrees are exact.  The syzygies
        of a module that is neither free nor zero never vanish, so -j runs
        over every degree <= -i-1.
        """
        supp = frozenset() if self.free(i + 1).is_zero() else frozenset({-i - 1})
        escapes = not self.module.is_free() and not self.module.is_zero()
        return supp, (-i - 1 if escapes else None)

    def stable_from(self, i: int) -> int:
        """From X_k with k >= this on, degrees i-1..i+1 are all in X_k."""
        return max(1, 1 - i)

    def vanishes_outside(self, lo: int, hi: int) -> bool:
        return lo <= 0 <= hi


class ConstantTail:
    """X_k = X for all k, with identity connecting maps."""

    def __init__(self, x: Complex):
        self.complex = x
        self.ring = x.ring

    def complex_at(self, k: int) -> Complex:
        return self.complex

    def map_at(self, k: int, xk: Complex, xk1: Complex) -> ChainMap:
        return identity_chain_map(self.complex)

    def tail_support(self, i: int) -> tuple[frozenset, int | None]:
        return frozenset(), None

    def stable_from(self, i: int) -> int:
        return 1

    def vanishes_outside(self, lo: int, hi: int) -> bool:
        x = self.complex
        return x.is_zero() or (lo <= x.min_degree and x.max_degree <= hi)


class Tower:
    """Cauchy-sequence candidate: finite prefix plus optional tail rule."""

    def __init__(self, ring: Ring, prefix: list[Complex] | None = None,
                 prefix_maps: list[ChainMap] | None = None,
                 tail: TruncationTail | ConstantTail | None = None):
        self.ring = ring
        self.prefix = list(prefix or [])
        self.prefix_maps = list(prefix_maps or [])
        self.tail = tail
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
                if f != tail.map_at(k, self.prefix[k - 1], self.prefix[k]):
                    raise PreconditionError("connecting map %d disagrees with the tail rule" % k)
        self._cplx_cache: dict[int, Complex] = {}
        self._map_cache: dict[int, ChainMap] = {}

    @property
    def has_tail(self) -> bool:
        return self.tail is not None

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
        if k not in self._cplx_cache:
            self._cplx_cache[k] = self.tail.complex_at(k)
        return self._cplx_cache[k]

    def map_at(self, k: int) -> ChainMap:
        """Connecting map X_k -> X_(k+1)."""
        if k < len(self.prefix):
            return self.prefix_maps[k - 1]
        if self.tail is None:
            raise PreconditionError("connecting map %d beyond prefix (no tail rule)" % k)
        if k not in self._map_cache:
            self._map_cache[k] = self.tail.map_at(k, self.complex_at(k), self.complex_at(k + 1))
        return self._map_cache[k]

    def composite(self, i: int, j: int) -> ChainMap:
        """The composite X_i -> X_j."""
        acc = identity_chain_map(self.complex_at(i))
        for k in range(i, j):
            acc = self.map_at(k) @ acc
        return acc


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
    conclusive: bool
    thresholds: dict[int, int] = field(default_factory=dict)  # n -> M(n)
    sup_lengths: dict[int, Fraction] = field(default_factory=dict)  # i -> sup over j of length
    violation: tuple | None = None  # (n, i, j, length)
    note: str = ""

    @property
    def is_cauchy(self) -> bool:
        return self.verdict == "cauchy"


def is_cauchy(tower: Tower, m: GoodMetric, horizon: int, levels: int) -> CauchyCertificate:
    """Certify the Cauchy condition per level n: a threshold M(n) beyond
    which all composites are shorter than 1/n.

    Only good metrics are certified: a metric whose shift axiom fails at
    some level is refused.  Tail towers get unconditional certificates from
    the closed-form cone supports; prefix-only towers are measured within
    the horizon and the certificate is explicitly inconclusive (never a
    false positive).  horizon must be >= 2 and levels >= 0.
    """
    if horizon < 2:
        raise PreconditionError("horizon (--horizon) must be >= 2, got %d" % horizon)
    if levels < 0:
        raise PreconditionError("levels (--levels) must be >= 0, got %d" % levels)
    require_good(m)
    name = m.display_name()
    if tower.has_tail:
        # sup over j >= i of length(X_i -> X_j), exactly: the balls of a
        # good metric are nested, so the least level over the union of all
        # cone supports is the least level over each of them
        sup = {i: m.support_length(*tower.tail.tail_support(i)) for i in range(1, horizon + 1)}
        cert = CauchyCertificate(metric=name, horizon=horizon, levels=levels,
                                 verdict="cauchy", conclusive=True, sup_lengths=sup)
        _, escape = tower.tail.tail_support(horizon)
        if escape is not None and any(p[0] == "below" for p in m.effective_pieces):
            # the escaping ray meets every ball's spec, so lengths stay 1
            # arbitrarily deep.  Witness: the least j > horizon with -j in
            # spec(2), i.e. its greatest degree <= -horizon-1
            top = max(min(hi, escape) for lo, hi in m.effective_spec(2).runs() if lo <= escape)
            cert.verdict = "not_cauchy"
            cert.violation = (1, horizon, -top, Fraction(1))
            return cert
        for n in range(1, levels + 1):
            # tail_support(i+1) lies in tail_support(i), so sup is
            # non-increasing and the first M below 1/n is the threshold
            found = next((M for M in range(1, horizon + 1) if sup[M] < Fraction(1, n)), None)
            if found is None:
                cert.verdict = "inconclusive"
                cert.conclusive = False
                cert.note = "horizon %d too small to certify level %d" % (horizon, n)
                return cert
            cert.thresholds[n] = found
        return cert
    # prefix-only: measure within the horizon, never certify beyond it
    h = tower.available_horizon(horizon)
    measured = {(i, j): length(tower.composite(i, j), m)
                for i in range(1, h + 1) for j in range(i, h + 1)}
    cert = CauchyCertificate(metric=name, horizon=h, levels=levels,
                             verdict="inconclusive", conclusive=False,
                             note="prefix-only tower: behaviour beyond entry %d is unknown" % h)
    cert.sup_lengths = {i: max((measured[(i, j)] for j in range(i, h + 1)), default=Fraction(0))
                        for i in range(1, h + 1)}
    for n in range(1, levels + 1):
        eps = Fraction(1, n)
        for M in range(1, h + 1):
            if all(measured[(i, j)] < eps for i in range(M, h + 1) for j in range(i, h + 1)):
                cert.thresholds[n] = M
                break
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

    A tail tower takes k = tail.stable_from(i) and computes H^i once, on
    X_k.  This is exact for every later map, not just up to the horizon:
    for k' >= k, X_k' and X_(k'+1) have the same components in degrees
    i-1..i+1 and the same d^(i-1) and d^i (a truncation adds components
    only below -k' <= i-1, a constant tail none), and the connecting map,
    which Tower checks against the rule, is the identity there, so H^i of
    it is the identity on the same data.  A prefix-only tower is scanned:
    the least k whose maps up to the horizon are isomorphisms on H^i.
    """
    if certificate.verdict == "not_cauchy":
        raise PreconditionError("tower is not Cauchy for %s: no colimit in the completion"
                                % certificate.metric)
    lo, hi = window
    if lo > hi:
        raise PreconditionError("empty window")
    h = tower.available_horizon(horizon)
    table = ColimitTable(ring=tower.ring, window=window, horizon=h)
    table.outside_window_vanishes = tower.has_tail and tower.tail.vanishes_outside(lo, hi)
    for i in range(lo, hi + 1):
        if tower.has_tail:
            k_i = tower.tail.stable_from(i)
            data = cohomology_data(tower.complex_at(k_i), i) if k_i <= h - 1 else None
        else:
            datas = {k: cohomology_data(tower.complex_at(k), i) for k in range(1, h + 1) if h > 1}
            k_i = next((k0 for k0 in range(1, h) if all(
                cohomology_map(tower.map_at(k), i, datas[k], datas[k + 1]).is_isomorphism()
                for k in range(k0, h))), None)
            data = datas.get(k_i)
        if data is None:
            table.inconclusive.append(i)
        else:
            table.entries[i] = (data.module, k_i)
    return table
