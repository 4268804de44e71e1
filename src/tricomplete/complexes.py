"""Bounded cochain complexes over mod R and the triangulated operations.

Complexes are stored sparsely: only nonzero components and nonzero
differentials.  Morphisms of the derived category are realized as strict
chain maps out of a projective resolution; the resolution machinery at the
bottom of this file (build, minimize, cut, once per complex, then splice
the periodic tail) is the engine behind perfection tests, syzygy classes
and derived Hom.  Lengths and quasi-iso tests need only where the cone's
cohomology vanishes: cone_support reads it off the cone's block ranks
without building the cone.

Sign conventions, fixed once:
  * shift:   (T^t X)^i = X^(i+t), differential scaled by (-1)^t;
  * cone(f): cone^i = X^(i+1) (+) Y^i with differential
             [[-d_X, 0], [f, d_Y]], g : Y -> cone the inclusion and
             h : cone -> TX the projection, both built on first read;
  * Hom complex: Hom^k(X, Y) = prod_i Hom(X^i, Y^(i+k)) with
             delta^k(f) = d_Y f - (-1)^k f d_X, so chain maps are
             ker delta^0 and f = d s + s d is f = delta^(-1)(s).
All tests are relative to these conventions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import Matrix, kernel_basis, rank, solve
from .rmodule import (
    RModule,
    RModuleMap,
    Ring,
    direct_sum,
    free_cover,
    free_module,
    hom_basis,
    identity_map,
    periodic_tail,
    quotient_canonicalize,
    subspace_canonicalize,
    zero_map,
    zero_module,
)


class ValidationError(ValueError):
    """A structural invariant of a complex or chain map is violated."""


class PreconditionError(ValueError):
    """An operation was called outside its contract."""


def _composite(g: RModuleMap | None, f: RModuleMap | None):
    """The integer array of g f, or 0 when either stored map is absent."""
    return 0 if g is None or f is None else g.matrix.a @ f.matrix.a


class Complex:
    """Bounded cochain complex of RModules with R-linear differentials, zero
    components and differentials dropped.  The constructor runs _check;
    _trusted, for a complex valid by construction, skips it."""

    def __init__(self, ring: Ring, components: dict[int, RModule], diffs: dict[int, RModuleMap]):
        self._store(ring, components, diffs)
        self._check(diffs)

    @classmethod
    def _trusted(cls, ring: Ring, components: dict[int, RModule], diffs: dict[int, RModuleMap]) -> "Complex":
        return cls.__new__(cls)._store(ring, components, diffs)

    def _store(self, ring, components, diffs) -> "Complex":
        self.ring = ring
        self._components = {i: m for i, m in components.items() if not m.is_zero()}
        self._diffs = {i: f for i, f in diffs.items() if not f.is_zero()}
        self._coh_cache: dict[int, "CohomologyData"] = {}
        self._window: "_Window | None" = None
        return self

    def _check(self, diffs: dict[int, RModuleMap]):
        for i, m in self._components.items():
            if m.ring != self.ring:
                raise ValidationError("component at degree %d lives over %s, not %s" % (i, m.ring, self.ring))
        for i, f in diffs.items():
            if f.source != self.component(i) or f.target != self.component(i + 1):
                raise ValidationError("differential at degree %d does not match components" % i)
        for i, f in self._diffs.items():
            g = self._diffs.get(i + 1)
            if g is not None and np.any((g.matrix.a @ f.matrix.a) % self.ring.p):
                raise ValidationError("d^2 != 0 between degrees %d and %d" % (i, i + 2))

    # -- access ---------------------------------------------------------

    def component(self, i: int) -> RModule:
        m = self._components.get(i)
        return m if m is not None else zero_module(self.ring)

    def differential(self, i: int) -> RModuleMap:
        f = self._diffs.get(i)
        if f is not None:
            return f
        return zero_map(self.component(i), self.component(i + 1))

    @property
    def degrees(self) -> list[int]:
        return sorted(self._components)

    def is_zero(self) -> bool:
        return not self._components

    @property
    def min_degree(self) -> int | None:
        return min(self._components) if self._components else None

    @property
    def max_degree(self) -> int | None:
        return max(self._components) if self._components else None

    def __eq__(self, other):
        if not isinstance(other, Complex):
            return NotImplemented
        return (self.ring == other.ring and self._components == other._components
                and self._diffs == other._diffs)

    def __repr__(self):
        if self.is_zero():
            return "Complex(0)"
        parts = ["%d:%s" % (i, self.component(i)) for i in self.degrees]
        return "Complex(%s)" % ", ".join(parts)


def zero_complex(ring: Ring) -> Complex:
    return Complex._trusted(ring, {}, {})


def module_complex(m: RModule, degree: int = 0) -> Complex:
    """A module viewed as a complex concentrated in one degree."""
    return Complex._trusted(m.ring, {degree: m}, {})


def shift(x: Complex, t: int) -> Complex:
    """(T^t X)^i = X^(i+t); the differential picks up the sign (-1)^t."""
    if t == 0:
        return x
    sgn = 1 if t % 2 == 0 else -1
    comps = {i - t: m for i, m in x._components.items()}
    diffs = {}
    for i, f in x._diffs.items():
        diffs[i - t] = RModuleMap._trusted(f.source, f.target, f.matrix.scale(sgn))
    return Complex._trusted(x.ring, comps, diffs)


class ChainMap:
    """Degreewise R-linear map commuting with the differentials, zero
    components dropped.  _trusted, for a chain map by construction, skips _check."""

    def __init__(self, source: Complex, target: Complex, components: dict[int, RModuleMap]):
        self._store(source, target, components)
        self._check(components)

    @classmethod
    def _trusted(cls, source: Complex, target: Complex, components: dict[int, RModuleMap]) -> "ChainMap":
        return cls.__new__(cls)._store(source, target, components)

    def _store(self, source, target, components) -> "ChainMap":
        self.source, self.target = source, target
        self._components = {i: f for i, f in components.items() if not f.is_zero()}
        return self

    def _check(self, components: dict[int, RModuleMap]):
        if self.source.ring != self.target.ring:
            raise ValidationError("chain map between different rings")
        for i, f in components.items():
            if f.source != self.source.component(i) or f.target != self.target.component(i):
                raise ValidationError("chain map component at degree %d has wrong (co)domain" % i)
        for i in set(self.source.degrees) | set(self._components):
            f1, d0 = self._components.get(i + 1), self.source._diffs.get(i)
            d1, f0 = self.target._diffs.get(i), self._components.get(i)
            if (f1 is None or d0 is None) and (d1 is None or f0 is None):
                continue  # both composites are absent, so 0
            if np.any((_composite(f1, d0) - _composite(d1, f0)) % self.source.ring.p):
                raise ValidationError("square at degrees (%d, %d) does not commute" % (i, i + 1))

    def component(self, i: int) -> RModuleMap:
        f = self._components.get(i)
        if f is not None:
            return f
        return zero_map(self.source.component(i), self.target.component(i))

    def __matmul__(self, other: "ChainMap") -> "ChainMap":
        """self o other, composed only at the degrees where both factors
        are nonzero: everywhere else the composite is 0, which ChainMap
        leaves out."""
        if other.target != self.source:
            raise PreconditionError("chain maps not composable")
        comps = {i: self._components[i] @ f for i, f in other._components.items()
                 if i in self._components}
        return ChainMap._trusted(other.source, self.target, comps)

    def is_zero(self) -> bool:
        return not self._components

    def __eq__(self, other):
        if not isinstance(other, ChainMap):
            return NotImplemented
        return (self.source, self.target, self._components) == (other.source, other.target, other._components)


def identity_chain_map(x: Complex) -> ChainMap:
    return ChainMap._trusted(x, x, {i: identity_map(x.component(i)) for i in x.degrees})


# -- direct sums, cones, triangles ------------------------------------------


def _sum_complex(parts: list[Complex], ring: Ring, twist: ChainMap | None = None):
    """Degreewise direct sum with the block differential diag(d_k), plus
    twist^(i+1) : parts[0]^i -> parts[1]^(i+1) below the diagonal if given.

    Each differential is one F_p array, and d^2 = 0 as twist is a chain map:
    the sum is built trusted.  Returns (complex, injs, projs): injs[i][k],
    projs[i][k] are direct_sum's maps at degree i.
    """
    degs = sorted({i for x in parts for i in x.degrees})
    comps, injs, projs = {}, {}, {}
    for i in degs:
        comps[i], injs[i], projs[i] = direct_sum([x.component(i) for x in parts], ring)
    diffs = {}
    for i in degs:
        if i + 1 not in comps:
            continue
        blocks = [(k, k, x._diffs.get(i)) for k, x in enumerate(parts)]
        if twist is not None:
            blocks.append((0, 1, twist._components.get(i + 1)))
        d = sum(injs[i + 1][t].matrix.a @ g.matrix.a @ projs[i][s].matrix.a
                for s, t, g in blocks if g is not None)
        if np.any(d % ring.p):
            diffs[i] = RModuleMap._trusted(comps[i], comps[i + 1], Matrix(d, ring.p))
    return Complex._trusted(ring, comps, diffs), injs, projs


@dataclass
class Triangle:
    """X --f--> Y --g--> Z --h--> TX with Z the cone of f.

    g and h are built on first read, as validated chain maps out of the
    direct-sum structure maps kept from the cone.  Lengths, quasi-iso tests
    and Cauchy checks build no Triangle: they read cone_support.
    """

    x: Complex
    y: Complex
    z: Complex
    f: ChainMap
    tx: Complex
    _injs: dict[int, list[RModuleMap]] = field(repr=False, compare=False)
    _projs: dict[int, list[RModuleMap]] = field(repr=False, compare=False)

    @cached_property
    def g(self) -> ChainMap:
        return ChainMap(self.y, self.z, {i: self._injs[i][1] for i in self.y.degrees})

    @cached_property
    def h(self) -> ChainMap:
        return ChainMap(self.z, self.tx, {i: self._projs[i][0] for i in self.tx.degrees})


def cone(f: ChainMap) -> Triangle:
    """Mapping cone TX (+) Y twisted by f, with the standard triangle maps."""
    x, y = f.source, f.target
    tx = shift(x, 1)
    z, injs, projs = _sum_complex([tx, y], x.ring, twist=f)
    return Triangle(x, y, z, f, tx, injs, projs)


def homotopy_pushout(f: ChainMap, h: ChainMap) -> tuple[ChainMap, ChainMap]:
    """The square on B <-f- A -h-> C: u = (-f, h) : A -> B (+) C and the
    induced g : C -> D into its cone D = cone(u).z.

    u and g are built once each, from the direct-sum structure maps:
    u^i = iota_C h^i - iota_B f^i, one F_p array per degree where f or h
    is nonzero, and g^i = iota^i iota_C^i with iota the cone's injection
    of B (+) C.  Both are chain maps by construction and built trusted; no
    composite, sum or injection chain map is built on the way.
    """
    if f.source != h.source:
        raise PreconditionError("maps do not share a source")
    a, ring = f.source, f.source.ring
    bc, injs, _ = _sum_complex([f.target, h.target], ring)
    comps = {}
    for i in f._components.keys() | h._components.keys():
        arr = _composite(injs[i][1], h._components.get(i)) - _composite(injs[i][0], f._components.get(i))
        comps[i] = RModuleMap._trusted(a.component(i), bc.component(i), Matrix(arr, ring.p))
    u = ChainMap._trusted(a, bc, comps)
    tri = cone(u)
    g = ChainMap._trusted(h.target, tri.z, {i: tri._injs[i][1] @ injs[i][1] for i in h.target.degrees})
    return u, g


# -- cohomology --------------------------------------------------------------


@dataclass
class CohomologyData:
    """H^i with enough structure to induce maps on classes.

    cycles: basis of ker d^i in component coordinates.
    to_classes: cycle coordinates -> canonical coordinates of the module.
    lift: canonical coordinates -> component coordinates (representatives).
    """

    module: RModule
    cycles: Matrix
    to_classes: Matrix
    lift: Matrix


def cohomology_data(x: Complex, i: int) -> CohomologyData:
    cached = x._coh_cache.get(i)
    if cached is not None:
        return cached
    ring = x.ring
    comp = x.component(i)
    cyc = kernel_basis(x.differential(i).matrix)
    if cyc.cols == 0:
        z = zero_module(ring)
        e = Matrix.zeros(comp.dim, 0, ring.p)
        data = CohomologyData(z, cyc, Matrix.zeros(0, 0, ring.p), e)
    else:
        action = solve(cyc, comp.x_action() @ cyc)
        assert action is not None  # kernels of R-maps are x-stable
        boundaries = solve(cyc, x.differential(i - 1).matrix)
        assert boundaries is not None  # d^2 = 0 puts boundaries inside cycles
        mod, proj, section = quotient_canonicalize(action, boundaries, ring)
        data = CohomologyData(mod, cyc, proj, cyc @ section)
    x._coh_cache[i] = data
    return data


def cohomology(x: Complex, i: int) -> RModule:
    """ker(d^i)/im(d^(i-1)) as a canonical-form RModule."""
    return cohomology_data(x, i).module


def cohomology_support(x: Complex) -> frozenset[int]:
    """The degrees with H^i != 0: dim X^i > rk d^i + rk d^(i-1)."""
    ranks = {i: rank(f.matrix) for i, f in x._diffs.items()}
    return frozenset(i for i in x.degrees
                     if x.component(i).dim > ranks.get(i, 0) + ranks.get(i - 1, 0))


def is_acyclic(x: Complex) -> bool:
    return not cohomology_support(x)


def cohomology_map(f: ChainMap, i: int, src_data: CohomologyData | None = None,
                   tgt_data: CohomologyData | None = None) -> RModuleMap:
    """The induced map H^i(f)."""
    a = src_data or cohomology_data(f.source, i)
    b = tgt_data or cohomology_data(f.target, i)
    if a.module.is_zero() or b.module.is_zero():
        return zero_map(a.module, b.module)
    image = f.component(i).matrix @ a.lift
    coords = solve(b.cycles, image)
    assert coords is not None  # chain maps send cycles to cycles
    return RModuleMap(a.module, b.module, b.to_classes @ coords)


def cone_support(f: ChainMap) -> frozenset[int]:
    """cohomology_support(cone(f).z), read off ranks without building the
    cone: cone^i = X^(i+1) (+) Y^i, and d^i has the rank of the unsorted
    block array [[d_X^(i+1), 0], [f^(i+1), d_Y^i]], since reordering the
    blocks and negating d_X change no rank.  Its d^2 = 0 needs no check:
    f is a chain map.  One rank per nonzero array, as for the
    built cone."""
    x, y, p = f.source, f.target, f.source.ring.p
    xdim = {i: m.dim for i, m in x._components.items()}
    dims = {i - 1: d for i, d in xdim.items()}
    for i, m in y._components.items():
        dims[i] = dims.get(i, 0) + m.dim
    ranks = {}
    for i in dims:
        dx, fi, dy = x._diffs.get(i + 1), f._components.get(i + 1), y._diffs.get(i)
        if dx is None and fi is None and dy is None:
            continue
        top, left = xdim.get(i + 2, 0), xdim.get(i + 1, 0)
        a = np.zeros((dims[i + 1], dims[i]), dtype=np.int64)
        if dx is not None:
            a[:top, :left] = dx.matrix.a
        if fi is not None:
            a[top:, :left] = fi.matrix.a
        if dy is not None:
            a[top:, left:] = dy.matrix.a
        ranks[i] = rank(Matrix(a, p))
    return frozenset(i for i, dim in dims.items() if dim > ranks.get(i, 0) + ranks.get(i - 1, 0))


def is_quasi_iso(f: ChainMap) -> bool:
    return not cone_support(f)


# -- the Hom complex -------------------------------------------------------------


def hom_complex(x: Complex, y: Complex, k: int) -> tuple[list[tuple[int, list[RModuleMap]]], Matrix]:
    """Basis of Hom^k(X, Y) = prod_i Hom(X^i, Y^(i+k)) and the matrix of
    delta^k(f) = d_Y f - (-1)^k f d_X : Hom^k -> Hom^(k+1).

    The basis is a list of (i, hom_basis(X^i, Y^(i+k))) in increasing i,
    empty factors left out; its concatenation indexes the columns.  The
    rows are the entries of the maps X^i -> Y^(i+k+1), one row-major block
    per degree of X in increasing order.  kernel_basis and solve depend only
    on the row space and the column order, so every caller's bases and
    witnesses are fixed by this layout.
    """
    basis, row_at, rows = [], {}, 0
    for i in x.degrees:
        row_at[i] = rows
        rows += y.component(i + k + 1).dim * x.component(i).dim
        if i + k in y._components:  # Hom of nonzero modules over R is nonzero
            basis.append((i, hom_basis(x.component(i), y.component(i + k))))
    delta = np.zeros((rows, sum(len(bs) for _, bs in basis)), dtype=np.int64)
    sign = -1 if k % 2 == 0 else 1  # -(-1)^k
    col = 0
    for i, bs in basis:
        stack = np.stack([b.matrix.a for b in bs])
        cols = slice(col, col + len(bs))
        col += len(bs)
        dy = y._diffs.get(i + k)
        if dy is not None:  # d_Y f lands in the block of X^i
            block = (dy.matrix.a @ stack).reshape(len(bs), -1).T
            delta[row_at[i]:row_at[i] + block.shape[0], cols] = block
        dx = x._diffs.get(i - 1)
        if dx is not None:  # f d_X lands in the block of X^(i-1)
            block = (stack @ dx.matrix.a).reshape(len(bs), -1).T
            delta[row_at[i - 1]:row_at[i - 1] + block.shape[0], cols] = sign * block
    return basis, Matrix(delta, x.ring.p)


def hom_combination(basis: list[tuple[int, list[RModuleMap]]], coeffs: np.ndarray) -> dict[int, RModuleMap]:
    """The degreewise maps sum_k coeffs[k] B_k over a hom_complex basis,
    one RModuleMap per degree; zero maps are left out."""
    out, at = {}, 0
    for i, bs in basis:
        c = coeffs[at:at + len(bs)] % bs[0].ring.p
        at += len(bs)
        if c.any():  # hom_basis is a basis, so the sum is nonzero
            matrix = np.tensordot(c, np.stack([b.matrix.a for b in bs]), axes=1)
            out[i] = RModuleMap._trusted(bs[0].source, bs[0].target, Matrix(matrix, bs[0].ring.p))
    return out


def is_null_homotopic(f: ChainMap) -> tuple[bool, dict[int, RModuleMap] | None]:
    """Solve f = d s + s d = delta^(-1)(s) for a degree -1 family s of
    R-module maps.

    Returns (True, witness) with witness[i] : X^i -> Y^(i-1), or (False, None).
    """
    x = f.source
    basis, delta = hom_complex(x, f.target, -1)
    rhs = np.concatenate([np.zeros(0, dtype=np.int64)]
                         + [f.component(i).matrix.a.ravel() for i in x.degrees])
    sol = solve(delta, Matrix(rhs.reshape(-1, 1), x.ring.p))
    if sol is None:
        return False, None
    return True, hom_combination(basis, sol.a[:, 0])


def chain_map_space(x: Complex, y: Complex) -> list[ChainMap]:
    """F_p basis of the space of chain maps X -> Y: the kernel of delta^0.

    Only tests call it.  It stays here while bench/tracer.py wraps it by
    name, until the tracer traces hom_complex instead (ROADMAP item 4)."""
    basis, delta = hom_complex(x, y, 0)
    null = kernel_basis(delta)
    return [ChainMap(x, y, hom_combination(basis, null.a[:, j])) for j in range(null.cols)]


# -- duality ------------------------------------------------------------------


def _reversal(m: RModule) -> Matrix:
    """Blockwise antidiagonal; conjugates the transposed x-action back to
    canonical form.  Self-inverse."""
    d = m.dim
    arr = np.zeros((d, d), dtype=np.int64)
    at = 0
    for j in m.blocks:
        for t in range(j):
            arr[at + j - 1 - t, at + t] = 1
        at += j
    return Matrix(arr, m.ring.p)


def dual_map(f: RModuleMap) -> RModuleMap:
    """F_p-linear dual in canonical bases: target' -> source'."""
    ra, rb = _reversal(f.source), _reversal(f.target)
    return RModuleMap(f.target, f.source, ra @ f.matrix.T @ rb)


def dualize(x: Complex) -> Complex:
    """Degreewise k-linear dual with negated degrees.

    H^i(dualize X) is the dual of H^(-i)(X); dualize is an involution up
    to equality of representations.
    """
    comps = {-i: m for i, m in x._components.items()}
    diffs = {}
    for i, f in x._diffs.items():
        # d' at degree -(i+1): dual of d^i : X^i -> X^(i+1)
        diffs[-(i + 1)] = dual_map(f)
    return Complex(x.ring, comps, diffs)


# -- projective resolutions ---------------------------------------------------


@dataclass
class Resolution:
    """Free complex quasi-isomorphic to the target above the cut degree,
    held as F_p arrays: F^i = R^ranks[i] for depth <= i <= max, diffs[i]
    the matrix of d^i : F^i -> F^(i+1) and eps[i] that of the comparison
    F^i -> X^i, which induces isomorphisms on H^i for i > depth.

    syzygy is ker(d^depth) with free summands stripped; for cuts below the
    lowest degree of the target it is the obstruction to perfection, and
    reading it builds nothing.  complex and comparison are built trusted
    on first read, valid by construction; band(lo, hi) builds
    the brutal truncation to [lo, hi] alone, which is all derived_hom reads.

    Every Resolution of a complex is a brutal truncation of one minimal
    resolution: the window [min-1, max], eliminated once and cached on the
    complex, and below it the closed-form 2-periodic tail of the cut
    syzygy (see projective_resolution).
    """

    target: Complex
    depth: int
    ranks: dict[int, int] = field(repr=False, compare=False)
    diffs: dict[int, np.ndarray] = field(repr=False, compare=False)
    eps: dict[int, np.ndarray] = field(repr=False, compare=False)
    syzygy: RModule

    def band(self, lo: int, hi: int) -> Complex:
        """The free complex in degrees [lo, hi], with the differentials
        between them; d^hi and d^(lo-1) are dropped."""
        ring = self.target.ring
        comps = {i: free_module(ring, r) for i, r in self.ranks.items() if r and lo <= i <= hi}
        diffs = {i: RModuleMap._trusted(comps[i], comps[i + 1], Matrix(d, ring.p))
                 for i, d in self.diffs.items() if i in comps and i + 1 in comps}
        return Complex._trusted(ring, comps, diffs)

    @cached_property
    def complex(self) -> Complex:
        return self.band(self.depth, max(self.ranks, default=self.depth))

    @cached_property
    def comparison(self) -> ChainMap:
        free, x, p = self.complex, self.target, self.target.ring.p
        comps = {i: RModuleMap._trusted(free.component(i), x.component(i), Matrix(e, p))
                 for i, e in self.eps.items() if e.any()}
        return ChainMap._trusted(free, x, comps)


def _build_free_approximation(x: Complex, depth: int):
    """Top-down construction of a degreewise-surjective quasi-isomorphism
    from a complex of frees, one free cover of a pullback at a time.  Not
    yet minimal.

    Returns (ranks, diffs, eps): F^i = R^ranks[i], diffs[i] the F_p matrix
    of d^i : F^i -> F^(i+1) and eps[i] that of the comparison F^i -> X^i,
    from the cut up to F^(top+1) = 0.
    """
    ring = x.ring
    p, n = ring.p, ring.n
    top = x.max_degree
    empty = np.zeros((0, 0), dtype=np.int64)
    ranks, diffs, eps = {top + 1: 0}, {top + 1: empty}, {top + 1: empty}
    for i in range(top, depth - 1, -1):
        da = ranks[i + 1] * n
        comp = x.component(i)
        # W = { (u, v) in ker(d^(i+1)) x X^i : eps(u) = d(v) }
        K = kernel_basis(Matrix(diffs[i + 1], p))
        sysmat = (Matrix(eps[i + 1], p) @ K).hstack(-x.differential(i).matrix)
        null = kernel_basis(sysmat)
        u_part = K @ Matrix(null.a[:K.cols, :], p)
        v_part = Matrix(null.a[K.cols:, :], p)
        act = np.zeros((da + comp.dim, da + comp.dim), dtype=np.int64)
        act[:da, :da] = free_module(ring, ranks[i + 1]).x_action().a
        act[da:, da:] = comp.x_action().a
        F, E = free_cover(Matrix(act, p), u_part.vstack(v_part), ring)
        ranks[i] = len(F.blocks)
        diffs[i] = E.a[:da, :]
        eps[i] = E.a[da:, :]
        if not ranks[i] and i <= x.min_degree:
            break
    return ranks, diffs, eps


def _minimize_free_complex(ranks: dict[int, int], diffs: dict[int, np.ndarray],
                           eps: dict[int, np.ndarray], ring: Ring):
    """Split off contractible R -> R summands at unit entries of the
    differentials, adjusting neighbours and the comparison map.

    Degrees go up from the lowest; within d^i the split is at the first
    block (r, c), in row-major order, whose n x n block u has a unit
    constant term.  Clearing row r and column c of d^i by base changes and
    dropping the pair is one Schur complement:
      d^i   <- d^i[~r, ~c] - d^i[~r, c] u^-1 d^i[r, ~c],
      eps^i <- eps^i[:, ~c] - eps^i[:, c] u^-1 d^i[r, ~c].
    The base change of F^i changes only row c of d^(i-1); afterwards row r
    of d^i is u e_c, so d^i d^(i-1) = 0 makes row c zero and d^(i-1) just
    loses the rows of c.  Dually d^(i+1) and eps^(i+1) just lose the
    columns of r.  Deleting zero rows creates no unit, so the degrees below
    i stay minimal.
    """
    n, p = ring.n, ring.p
    for i in sorted(diffs):
        while True:
            d = diffs[i]
            units = np.argwhere(d[::n, ::n] % p)
            if units.size == 0:
                break
            r, c = (int(v) for v in units[0])
            r_blk, c_blk = np.arange(r * n, (r + 1) * n), np.arange(c * n, (c + 1) * n)
            keep_r = np.delete(np.arange(d.shape[0]), r_blk)
            keep_c = np.delete(np.arange(d.shape[1]), c_blk)
            t = solve(Matrix(d[np.ix_(r_blk, c_blk)], p), Matrix(d[np.ix_(r_blk, keep_c)], p)).a
            diffs[i] = (d[np.ix_(keep_r, keep_c)] - d[np.ix_(keep_r, c_blk)] @ t) % p
            eps[i] = (eps[i][:, keep_c] - eps[i][:, c_blk] @ t) % p
            if i - 1 in diffs:
                diffs[i - 1] = np.delete(diffs[i - 1], c_blk, axis=0)
            diffs[i + 1] = np.delete(diffs[i + 1], r_blk, axis=1)
            eps[i + 1] = np.delete(eps[i + 1], r_blk, axis=1)
            ranks[i] -= 1
            ranks[i + 1] -= 1
    return ranks, diffs, eps


@dataclass
class _Window:
    """The minimal resolution of a complex in degrees [min-1, max], as F_p
    arrays (see _build_free_approximation), with its cut kernel Omega in
    canonical form and the embedding Omega >-> F^(min-1).  Every
    Resolution of the complex shares the arrays, so they are read-only."""

    ranks: dict[int, int]
    diffs: dict[int, np.ndarray]
    eps: dict[int, np.ndarray]
    syzygy: RModule
    embedding: Matrix


def _resolve_window(x: Complex) -> _Window:
    """Build, minimize and cache the window of x; later calls are lookups.

    The cut kernel has no free summand.  At the cut c = min-1 the component
    X^c is 0, so the unminimized F^c is the minimal free cover of the
    pullback W, and d^c is that cover followed by W >-> F^(c+1).  Its
    kernel lies in x F^c: a kernel element with a unit coefficient at some
    generator would make the generators dependent modulo xW.  Minimizing
    splits off pairs R -> R, and at the cut only pairs in degrees (c, c+1),
    on which d^c is injective; so the minimized kernel is isomorphic to
    the cover's, and a submodule of x F^c has no block of size n.  A
    deeper resolution maps F^(c-1) onto that kernel inside x F^c, so
    d^(c-1) has no unit entry: no deeper minimization could split a
    summand off F^c, and the tail spliced below keeps the resolution
    minimal.  The check below only guards this argument; it never strips
    a summand.
    """
    if x._window is not None:
        return x._window
    ring = x.ring
    cut = x.min_degree - 1
    ranks, diffs, eps = _minimize_free_complex(*_build_free_approximation(x, cut), ring)
    syz, emb = zero_module(ring), Matrix.zeros(0, 0, ring.p)
    if ranks.get(cut, 0):  # ker d^cut in canonical form, embedded in F^cut
        kernel = kernel_basis(Matrix(diffs[cut], ring.p))
        syz, emb = subspace_canonicalize(free_module(ring, ranks[cut]).x_action(), kernel, ring)
    if syz != syz.strip_free():
        raise PreconditionError("cut kernel %s of the minimal window has a free summand" % syz)
    for arr in (*diffs.values(), *eps.values()):
        arr.flags.writeable = False
    x._window = _Window(ranks, diffs, eps, syz, emb)
    return x._window


def projective_resolution(x: Complex, depth: int) -> Resolution:
    """Minimal complex of frees in degrees >= depth, quasi-isomorphic to x
    above the cut, with the cut syzygy.

    Returns the arrays and the syzygy only; the Complex and ChainMap are
    built when .complex, .comparison or band() is read.  The depth must
    be at most min-1, one below the lowest degree.  The window [min-1,
    max] is resolved once per complex (_resolve_window) and a cut at
    min-1 reads it.  Below min-1 every cut splices on the minimal
    resolution of the cut syzygy Omega with no elimination, since X^i = 0
    there: d^(min-2) is the canonical cover of Omega followed by its
    embedding in F^(min-1), and every deeper differential is the cover of
    the next syzygy followed by its syzygy_embedding, x^j or x^(n-j) block
    by block (Eisenbud's matrix factorizations; rmodule.periodic_tail).
    Those deeper arrays depend only on the syzygy's Jordan type, so they
    are shared and read-only, like the window's.
    """
    ring = x.ring
    if x.is_zero():
        return Resolution(x, depth, {}, {}, {}, zero_module(ring))
    cut = x.min_degree - 1
    if depth > cut:
        raise PreconditionError("resolution depth %d must be <= %d, one below the lowest degree"
                                % (depth, cut))
    window = _resolve_window(x)
    ranks = {i: r for i, r in window.ranks.items() if i >= depth}
    diffs = {i: d for i, d in window.diffs.items() if i >= depth}
    eps = {i: e for i, e in window.eps.items() if i >= depth}
    syz = window.syzygy
    if not syz.is_zero():
        tail = periodic_tail(syz, window.embedding)
        for i in range(cut - 1, depth - 1, -1):  # F^i covers ker d^(i+1)
            ranks[i], d, syz = next(tail)
            diffs[i] = d.a
    return Resolution(x, depth, ranks, diffs, eps, syz)


# -- derived Hom --------------------------------------------------------------


def derived_hom(a: Complex, b: Complex, d: int = 0) -> int:
    """dim over F_p of Hom in the derived category from a to T^d b.

    Computed as H^d of the Hom complex out of a projective resolution P of
    a into b: dim Hom^d - rk delta^d - rk delta^(d-1).  Hom^k(P, T^d b) is
    Hom^(k+d)(P, b), with delta changed only by the sign (-1)^d, so this is
    H^0 of Hom(P, T^d b) and no shifted copy of b is built.  Hom^(d-1),
    Hom^d, Hom^(d+1) and both deltas see P only in degrees [lo, hi], for
    lo = b.min - d - 1 and hi = b.max - d + 1, so only that band of P is
    built.  The cut min(a.min - 1, lo) is at least one below a's support,
    so the arrays come from a's cached window or its spliced tail.
    """
    if a.is_zero() or b.is_zero():
        return 0
    lo, hi = b.min_degree - d - 1, b.max_degree - d + 1
    pc = projective_resolution(a, min(a.min_degree - 1, lo)).band(lo, hi)
    _, dd = hom_complex(pc, b, d)
    _, dm1 = hom_complex(pc, b, d - 1)
    return dd.cols - rank(dd) - rank(dm1)
