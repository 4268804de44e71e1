"""Membership in the completion, perfection, and the singularity category.

The completion pipeline: certify a tower Cauchy, take its degreewise
colimit table, and test compact support as bounded finitely generated
cohomology; membership in the triangulated completion is the conjunction
of Cauchy provenance and compact support.  Over R = F_p[x]/(x^n) the
perfection test reduces to one deep syzygy: a bounded complex is perfect
iff the cut syzygy of its minimal free resolution vanishes, since a
nonzero non-free syzygy regenerates itself 2-periodically and the
resolution never terminates.  Each complex is resolved once: the window
[min-1, max] is eliminated and cached on the complex with its cut
syzygy's Jordan type, and a deeper cut reads the closed-form periodic
tail only where a band reaches it, so is_perfect, syzygy_class and
derived_hom share one elimination pass per complex; Ext into a stalk of
k^m is a Betti number of that window and eliminates nothing more.
is_perfect, the injective test (the same condition, since R is
self-injective) and syzygy_class read only that Jordan type; they build
no Jordan basis, free Complex, comparison ChainMap or RModuleMap.

The singularity quotient is modelled through the stable module category
(R is self-injective): a complex maps to its deep syzygy with a shift
bookkeeping integer, and Hom in the quotient is stable Hom of the two
syzygies, the closed form sum of min(a, b, n-a, n-b) over block pairs
(rmodule.stable_hom_dim).  Omega, which moves a class to another shift,
sends each block j to n - j and so leaves that sum alone: the dimension
never reads the shifts.  The elimination-based rmodule.stable_hom stays
public as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .rmodule import RModule, stable_hom_dim, zero_module
from .complexes import Complex, PreconditionError, cohomology, projective_resolution
from .metric import GoodMetric
from .cauchy import CauchyCertificate, ColimitTable, Tower, colimit, is_cauchy


class Verdict(Enum):
    YES = "yes"
    NO = "no"
    INCONCLUSIVE = "inconclusive"

    def __bool__(self):
        return self is Verdict.YES


@dataclass
class CompletionObject:
    """A colimit of a certified Cauchy tower, with its provenance."""

    tower: Tower
    metric: GoodMetric
    certificate: CauchyCertificate
    table: ColimitTable
    representative: Complex | None = None

    def __post_init__(self):
        if self.representative is not None:
            for i, (mod, _) in self.table.entries.items():
                if cohomology(self.representative, i) != mod:
                    raise PreconditionError(
                        "representative cohomology at degree %d disagrees with the colimit table" % i)


def complete(tower: Tower, metric: GoodMetric, horizon: int = 12, levels: int = 6,
             window: tuple[int, int] | None = None) -> CompletionObject:
    """Run the completion pipeline on a tower.

    A tail tower's representative and default window come from its tail
    rule; a prefix-only tower has no representative, and its window
    defaults to [-2, 2].
    """
    cert = is_cauchy(tower, metric, horizon, levels)
    tail = tower.tail
    if window is None:
        window = (-2, 2) if tail is None else tail.window
    table = colimit(tower, window, horizon, cert)
    return CompletionObject(tower, metric, cert, table, None if tail is None else tail.representative())


def is_compactly_supported(c: CompletionObject) -> Verdict:
    """Bounded, finitely generated stabilized cohomology.

    All table entries are finitely generated by construction, so the test
    is finite support: the table must be conclusive, meaning every window
    degree stabilized and the tail rule guarantees vanishing outside the
    window.
    """
    return Verdict.YES if c.table.conclusive else Verdict.INCONCLUSIVE


def in_S(c: CompletionObject) -> Verdict:
    """Membership in the triangulated completion.

    Membership in the plain completion comes from provenance: the object is
    a colimit of a certified Cauchy tower.  Non-Cauchy towers are rejected
    outright; what remains is compact support.
    """
    if c.certificate.verdict == "not_cauchy":
        raise PreconditionError("tower is not Cauchy for %s: no completion provenance"
                                % c.certificate.metric)
    if c.certificate.verdict == "inconclusive":
        return Verdict.INCONCLUSIVE
    return is_compactly_supported(c)


# -- perfection and the singularity category ----------------------------------


def is_perfect(x: Complex) -> bool:
    """Quasi-isomorphic to a bounded complex of frees.

    Detected by the syzygy at the cut one degree below the support: over
    local Artinian R a minimal resolution continues forever exactly when
    that syzygy is nonzero.
    """
    return syzygy_class(x).is_zero()


def has_bounded_injective_resolution(x: Complex) -> bool:
    """Quasi-isomorphic to a bounded complex of injectives: exactly when x
    is perfect.

    R = F_p[x]/(x^n) is self-injective (a Frobenius algebra), so a finitely
    generated R-module is injective iff it is projective.  The bounded
    complexes of injectives are then the bounded complexes of projectives,
    K^b(inj) = K^b(proj) inside D^b(mod R), and x has a bounded injective
    resolution iff it has a bounded projective one.  So this reads the cut
    syzygy of x's own window and resolves nothing new; the route through
    the dual, is_perfect(dualize(x)), stays in the tests as the oracle.
    """
    return is_perfect(x)


@dataclass(frozen=True)
class SingClass:
    """Class in the singularity category: stable syzygy representative plus
    the degree bookkeeping of the cut."""

    module: RModule
    shift: int

    def __post_init__(self):
        if any(j == self.module.ring.n for j in self.module.blocks):
            raise PreconditionError("singularity class representative has a free summand")

    def is_zero(self) -> bool:
        return self.module.is_zero()


def syzygy_class(x: Complex) -> SingClass:
    """Deep syzygy with its cut degree; zero exactly for perfect complexes.

    Reads only the syzygy of the resolution, so after the first call on a
    complex it is a lookup in the cached window."""
    if x.is_zero():
        return SingClass(zero_module(x.ring), 0)
    cut = x.min_degree - 1
    return SingClass(projective_resolution(x, cut).syzygy, cut)


def sing_hom(a: SingClass, b: SingClass) -> int:
    """Hom dimension in the singularity category.

    The syzygy functor inverts the shift on the stable category, so Hom is
    stable Hom of the representatives once one is moved by Omega to the
    other's shift.  That move never changes the dimension: stable_hom_dim
    sums min(a, b, n-a, n-b) over block pairs, Omega sends a block j < n to
    n - j, and a class has no free block.  So no shift is aligned.
    """
    if a.module.ring != b.module.ring:
        raise PreconditionError("singularity classes over different rings")
    return stable_hom_dim(a.module, b.module)
