"""Bounded cochain complexes over mod R and the triangulated operations.

Complexes are stored sparsely: only nonzero components and nonzero
differentials.  Morphisms of the derived category are realized as strict
chain maps out of a projective resolution; the resolution machinery at the
bottom of this file (build the minimal window down to the cut once per
complex, then read the periodic tail below it where a band reaches) is the
engine behind perfection tests, syzygy classes and derived Hom.  Lengths,
quasi-iso tests and the cartesian check need only where a cone's
cohomology vanishes: one block-rank reader reads it without building it.
H^i is a Jordan type off one rank profile, as the cut syzygy is, and an
induced map is only asked whether it is an isomorphism (induces_iso).

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

from .linalg import Matrix, kernel_basis, new_columns, row_kernel, row_rank, solve
from .rmodule import (
    RModule,
    RModuleMap,
    Ring,
    _hom_units,
    _tail_stage,
    cover_matrix,
    direct_sum,
    dual_map,
    free_cover,
    free_module,
    identity_map,
    omega_power,
    profile_type,
    span_type,
    subspace_canonicalize,
    syzygy_type,
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
    diffs = {i - t: RModuleMap._trusted(f.source, f.target, f.matrix.scale(sgn)) for i, f in x._diffs.items()}
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
        # only a square with a composite f^(i+1) d^i or d^i f^i can fail
        for i in ({i for i in self.source._diffs if i + 1 in self._components}
                  | {i for i in self.target._diffs if i in self._components}):
            f1, d0 = self._components.get(i + 1), self.source._diffs.get(i)
            d1, f0 = self.target._diffs.get(i), self._components.get(i)
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
    direct-sum structure maps kept from the cone.  Lengths, quasi-iso tests,
    cartesian and Cauchy checks build no Triangle: they read block ranks.
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


# -- cohomology --------------------------------------------------------------


@dataclass
class CohomologyData:
    """H^i = Z/B by its Jordan type, and the spans an induced map reads:
    cycles, a basis of Z = ker d^i, and boundaries, d^(i-1), whose columns
    span B, both in the coordinates of X^i."""

    module: RModule
    cycles: Matrix
    boundaries: Matrix


def cohomology_data(x: Complex, i: int) -> CohomologyData:
    """H^i off one kernel and one rank profile: span_type of G = Z, U = B."""
    if i in x._coh_cache:
        return x._coh_cache[i]
    d, boundaries = x.differential(i).matrix, x.differential(i - 1).matrix
    cycles = kernel_basis(d) if d.cols else Matrix.zeros(0, 0, d.p)  # X^i = 0: nothing to eliminate
    module = span_type(boundaries.a.tolist(), cycles.a.tolist(), x.component(i).blocks, x.ring)
    x._coh_cache[i] = data = CohomologyData(module, cycles, boundaries)
    return data


def cohomology(x: Complex, i: int) -> RModule:
    """ker(d^i)/im(d^(i-1)) as a canonical-form RModule."""
    return cohomology_data(x, i).module


def _block_support(parts: list[tuple[Complex, int]], blocks: list[tuple], p: int) -> frozenset[int]:
    """The degrees with H^i != 0 of a complex met only as block arrays:
    piece k of its degree-i component is X^(i+t) for (X, t) = parts[k],
    and d^i has, for each (r, c, sign, maps, t) in blocks with i + t in
    maps, the block sign * maps[i + t] from column piece c to row piece r;
    sign 0 marks the identity of piece c, maps then holding modules.
    H^i != 0 iff dim > rk d^i + rk d^(i-1), with one rank, on int rows,
    per degree where a block is present: elsewhere d^i = 0."""
    dims, total = [], {}
    for x, t in parts:
        dims.append(part := {i - t: m.dim for i, m in x._components.items()})
        for i, d in part.items():
            total[i] = total.get(i, 0) + d
    ranks = {}
    for i in {k - t for _, _, _, maps, t in blocks for k in maps}:
        row_at, col_at = [0], [0]
        for part in dims:
            row_at.append(row_at[-1] + part.get(i + 1, 0))
            col_at.append(col_at[-1] + part.get(i, 0))
        rows = [[0] * col_at[-1] for _ in range(row_at[-1])]
        for r, c, sign, maps, t in blocks:
            if i + t not in maps:
                continue
            if sign:
                a = maps[i + t].matrix.a
                for k, vals in enumerate((a if sign > 0 else -a % p).tolist(), row_at[r]):
                    rows[k][col_at[c]:col_at[c + 1]] = vals
            else:  # the identity of piece c
                for k in range(col_at[c + 1] - col_at[c]):
                    rows[row_at[r] + k][col_at[c] + k] = 1
        ranks[i] = row_rank(rows, p)
    return frozenset(i for i, dim in total.items() if dim > ranks.get(i, 0) + ranks.get(i - 1, 0))


def cohomology_support(x: Complex) -> frozenset[int]:
    """The degrees with H^i != 0: dim X^i > rk d^i + rk d^(i-1)."""
    return _block_support([(x, 0)], [(0, 0, 1, x._diffs, 0)], x.ring.p)


def is_acyclic(x: Complex) -> bool:
    return not cohomology_support(x)


def induces_iso(f: ChainMap, i: int, src: CohomologyData | None = None,
                tgt: CohomologyData | None = None) -> bool:
    """Whether H^i(f) is an isomorphism: both H^i have the same type and
    its image (f Z_X + B_Y)/B_Y, of dim rank [B_Y | f Z_X] - rank B_Y (one
    elimination), has dim H^i(X).  A zero side eliminates nothing."""
    a = src or cohomology_data(f.source, i)
    b = tgt or cohomology_data(f.target, i)
    if a.module != b.module or a.module.is_zero():
        return a.module == b.module
    return len(new_columns(b.boundaries, f.component(i).matrix @ a.cycles)) == a.module.dim


def cone_support(f: ChainMap) -> frozenset[int]:
    """cohomology_support(cone(f).z) without building the cone: on the
    unsorted basis X^(i+1) (+) Y^i of cone^i, d^i is the block array
    [[-d_X^(i+1), 0], [f^(i+1), d_Y^i]], the cone's differential with its
    basis reordered (direct_sum only sorts), so every rank is the same."""
    x, y = f.source, f.target
    return _block_support([(x, 1), (y, 0)], [
        (0, 0, -1, x._diffs, 1), (1, 0, 1, f._components, 1), (1, 1, 1, y._diffs, 0)], x.ring.p)


def pushout_cone_support(f: ChainMap, h: ChainMap) -> frozenset[int]:
    """cone_support(g) for g : C -> D = cone(u) the inclusion and
    u = (-f, h) : A -> B (+) C, off f and h alone, building no sum, cone or
    map.  On the unsorted basis C^(i+1) (+) A^(i+1) (+) B^i (+) C^i of
    cone(g)^i, the definitions of u, cone(u) and g make d^i the array
    [[-d_C^(i+1), 0, 0, 0], [0, -d_A^(i+1), 0, 0], [0, -f^(i+1), d_B^i, 0],
    [I, h^(i+1), 0, d_C^i]]; cone(g) ~ cone(f) is never used."""
    if f.source != h.source:
        raise PreconditionError("maps do not share a source")
    a, b, c = f.source, f.target, h.target
    return _block_support([(c, 1), (a, 1), (b, 0), (c, 0)], [
        (0, 0, -1, c._diffs, 1), (1, 1, -1, a._diffs, 1), (2, 1, -1, f._components, 1),
        (2, 2, 1, b._diffs, 0), (3, 0, 0, c._components, 1), (3, 1, 1, h._components, 1),
        (3, 3, 1, c._diffs, 0)], a.ring.p)


def is_quasi_iso(f: ChainMap) -> bool:
    return not cone_support(f)


# -- the Hom complex -------------------------------------------------------------


def hom_complex(x: Complex, y: Complex, k: int) -> tuple[list[tuple], list[list[int]], int]:
    """Basis of Hom^k(X, Y) = prod_i Hom(X^i, Y^(i+k)), the int rows of
    delta^k(f) = d_Y f - (-1)^k f d_X : Hom^k -> Hom^(k+1), and their width.

    The basis lists (i, X^i, Y^(i+k), the ones of each hom_basis map) in
    increasing i, empty factors left out; its maps index the columns.  The
    rows are the entries of the maps X^i -> Y^(i+k+1), one row-major block
    per degree of X in increasing order.  row_kernel, solve and row_rank
    depend only on the row space and the column order, so every caller's
    bases and witnesses are fixed by this layout.
    """
    if x.ring != y.ring:
        raise ValueError("ring mismatch")
    p, basis, row_at, nrows = x.ring.p, [], {}, 0
    for i in x.degrees:
        m, nn, after = x._components[i], y._components.get(i + k), y._components.get(i + k + 1)
        row_at[i], nrows = nrows, nrows + (after.dim * m.dim if after else 0)
        if nn:  # Hom of nonzero modules over R is nonzero
            basis.append((i, m, nn, _hom_units(m.blocks, nn.blocks, x.ring.n)))
    cols = sum(len(units) for *_, units in basis)
    rows = [[0] * cols for _ in range(nrows)]
    col = 0
    for i, m, nn, units in basis:  # a zero d_Y or d_X has empty columns or rows
        dy, dx = y._diffs.get(i + k), x._diffs.get(i - 1)
        dy_cols = dy.matrix.a.T.tolist() if dy else [()] * nn.dim
        dx_rows = (dx.matrix.a if k % 2 else -dx.matrix.a % p).tolist() if dx else [()] * m.dim  # times -(-1)^k
        for ones in units:
            for r, c in ones:  # column r of d_Y at rows u dim X^i + c, row c of d_X at row r of X^(i-1)'s block
                for u, v in enumerate(dy_cols[r]):
                    rows[row_at[i] + u * m.dim + c][col] = v
                for at, v in enumerate(dx_rows[c], row_at.get(i - 1, 0) + r * len(dx_rows[c])):
                    rows[at][col] = v
            col += 1
    return basis, rows, cols


def hom_combination(basis: list[tuple], coeffs: list[int]) -> dict[int, RModuleMap]:
    """sum_k coeffs[k] B_k over a hom_complex basis, one RModuleMap per nonzero
    degree: the B_k have disjoint ones, so c_k mod p is written at B_k's ones."""
    out, coeffs = {}, iter(coeffs)
    for i, m, nn, units in basis:
        flat = [0] * (nn.dim * m.dim)
        for ones, c in zip(units, coeffs):  # units first: zip takes no coefficient past them
            for r, col in ones:
                flat[r * m.dim + col] = c % m.ring.p
        if any(flat):  # hom_basis is a basis, so the sum is nonzero
            matrix = Matrix._reduced(np.array(flat, dtype=np.int64).reshape(nn.dim, m.dim), m.ring.p)
            out[i] = RModuleMap._trusted(m, nn, matrix)
    return out


def is_null_homotopic(f: ChainMap) -> tuple[bool, dict[int, RModuleMap] | None]:
    """Solve f = d s + s d = delta^(-1)(s) for a degree -1 family s of
    R-module maps.

    Returns (True, witness) with witness[i] : X^i -> Y^(i-1), or (False, None).
    """
    x, p = f.source, f.source.ring.p
    basis, delta, cols = hom_complex(x, f.target, -1)
    rhs = [v for i in x.degrees for v in f.component(i).matrix.a.ravel().tolist()]
    sol = solve(Matrix(np.reshape(delta, (len(delta), cols)), p), Matrix(np.reshape(rhs, (-1, 1)), p))
    if sol is None:
        return False, None
    return True, hom_combination(basis, sol.a[:, 0].tolist())


def chain_map_space(x: Complex, y: Complex) -> list[ChainMap]:
    """F_p basis of the space of chain maps X -> Y: the kernel of delta^0.

    Only tests call it.  It stays here while bench/tracer.py wraps it by
    name, until the tracer traces hom_complex instead (ROADMAP item 4)."""
    basis, delta, cols = hom_complex(x, y, 0)
    return [ChainMap(x, y, hom_combination(basis, v)) for v in zip(*row_kernel(delta, cols, x.ring.p))]


# -- duality ------------------------------------------------------------------


def dualize(x: Complex) -> Complex:
    """Degreewise k-linear dual with negated degrees.

    H^i(dualize X) is the dual of H^(-i)(X); dualize is an involution up
    to equality of representations.
    """
    comps = {-i: m for i, m in x._components.items()}
    diffs = {-(i + 1): dual_map(f) for i, f in x._diffs.items()}  # d' at -(i+1): dual of d^i
    return Complex(x.ring, comps, diffs)


# -- projective resolutions ---------------------------------------------------


@dataclass
class Resolution:
    """Free complex quasi-isomorphic to the target above the cut degree:
    F^i, d^i : F^i -> F^(i+1) for depth <= i <= max and the comparison
    F -> X, an isomorphism on H^i for i > depth, all read off the target's
    window, a brutal truncation of which it is.  syzygy is ker(d^depth),
    free summands stripped: for cuts below the target the obstruction to
    perfection, read without building anything.  complex and comparison
    are built trusted on first read, valid by construction; band(lo, hi)
    reads the arrays of [lo, hi] alone, which is all derived_hom reads
    into a target other than a stalk of k^m (that one reads ranks alone).
    """

    target: Complex
    depth: int
    window: "_Window" = field(repr=False, compare=False)

    @property
    def syzygy(self) -> RModule:
        return self.window.syzygies[(self.window.cut - self.depth) % 2]

    def band(self, lo: int, hi: int) -> Complex:
        """The free complex in degrees [lo, hi], with the differentials
        between them; d^hi and d^(lo-1) are dropped."""
        ring, w = self.target.ring, self.window
        comps = {i: free_module(ring, r) for i in range(max(lo, self.depth), hi + 1) if (r := w.rank(i))}
        diffs = {i: RModuleMap._trusted(comps[i], comps[i + 1], Matrix(w.differential(i), ring.p))
                 for i in comps if i + 1 in comps}
        return Complex._trusted(ring, comps, diffs)

    @cached_property
    def complex(self) -> Complex:
        return self.band(self.depth, max(self.window.ranks, default=self.depth))

    @cached_property
    def comparison(self) -> ChainMap:
        free, x, p = self.complex, self.target, self.target.ring.p
        comps = {i: RModuleMap._trusted(free.component(i), x.component(i), Matrix(e, p))
                 for i, e in self.window.eps.items() if e.any()}
        return ChainMap._trusted(free, x, comps)


def _build_free_approximation(x: Complex, depth: int):
    """Top-down construction of the minimal free resolution of x above
    depth, one free cover of a pullback at a time, on Python int rows.

    At degree i, F^i covers the pullback W_i = { (u, v) in ker d^(i+1) x
    X^i : eps(u) = d_X(v) }, one row_kernel of [[d^(i+1), 0], [eps^(i+1),
    -d_X^i]], modulo xW_i + B_i, where B_i = 0 (+) d_X(X^(i-1)), and
    (d^i, eps^i) is that cover E, built on int rows with x as a block shift
    (free_cover) and carried to degree i-1 as rows.  Why this is exact:
      * cover: by Nakayama the image of E plus B_i is W_i, so the cone of
        the comparison stays exact and the comparison is a
        quasi-isomorphism above the cut.  It is not degreewise surjective.
      * minimal: say a generator (u, v) of W_(i-1) had a unit coefficient
        c_k at a generator e_k of F^i.  Then E(u) = (0, d_X v) lies in B_i.
        But E(u) = sum_k c_k h_k mod xW_i, against the choice of the heads
        h_k.  So no d^i has a unit entry, and nothing is ever split.
      * cut: at the window's cut c = min-1, X^c = 0 and B_c = 0, so W_c
        lies in F^(c+1), d^c is a minimal free cover of W_c and ker d^c is
        Omega W_c: a block n - j for each block j < n of W_c, none of size n.

    Returns (ranks, diffs, eps): F^i = R^ranks[i], diffs[i] the F_p matrix
    of d^i : F^i -> F^(i+1) and eps[i] that of the comparison F^i -> X^i,
    from the cut up to F^(top+1) = 0.
    """
    ring = x.ring
    p, n = ring.p, ring.n
    top = x.max_degree
    empty = np.zeros((0, 0), dtype=np.int64)
    ranks, diffs, eps = {top + 1: 0}, {top + 1: empty}, {top + 1: empty}
    d_rows, e_rows = [], []  # d^(i+1) and eps^(i+1)
    for i in range(top, depth - 1, -1):
        comp, da, dx = x.component(i), ranks[i + 1] * n, x.differential(i).matrix.a.tolist()
        system = [r + [0] * comp.dim for r in d_rows] + [r + [-v % p for v in b] for r, b in zip(e_rows, dx)]
        pullback = row_kernel(system, da + comp.dim, p)
        boundaries = x.differential(i - 1).matrix
        span = [[0] * boundaries.cols for _ in range(da)] + boundaries.a.tolist()
        F, E = free_cover((n,) * ranks[i + 1] + comp.blocks, pullback, span, ring)  # free blocks sort first
        stored, d_rows, e_rows = np.array(E, dtype=np.int64).reshape(len(E), F.dim), E[:da], E[da:]
        ranks[i], diffs[i], eps[i] = len(F.blocks), stored[:da], stored[da:]
        if not ranks[i] and i <= x.min_degree:
            break
    return ranks, diffs, eps


@dataclass
class _Window:
    """The minimal resolution of a complex in degrees [cut, max], cut =
    min-1: the F_p arrays _build_free_approximation builds, shared by every
    Resolution of the complex and so read-only, and the Jordan type Omega
    of ker d^cut, the cut syzygy.  The cut kernel's basis and embedding
    are built with the first band that holds both cut-1 and cut.

    Below the cut nothing is stored: F^(cut-1-t) covers Omega^t Omega,
    d^(cut-1) is the cover of Omega followed by its embedding in F^cut, and
    each deeper d^i the _tail_stage of the syzygy it covers, shared per
    Jordan type and read at any degree by 2-periodicity.
    """

    cut: int
    ranks: dict[int, int]
    diffs: dict[int, np.ndarray]
    eps: dict[int, np.ndarray]
    syzygy: RModule

    @cached_property
    def kernel(self) -> Matrix:
        """A basis of ker d^cut, for F^cut nonzero."""
        return kernel_basis(Matrix(self.diffs[self.cut], self.syzygy.ring.p))

    @cached_property
    def embedding(self) -> Matrix:
        """Omega >-> F^cut in canonical form, built by the first band reaching cut-1 and cut."""
        ring = self.syzygy.ring
        return subspace_canonicalize(free_module(ring, self.ranks[self.cut]).x_action(), self.kernel, ring)[1]

    @cached_property
    def syzygies(self) -> tuple[RModule, RModule]:
        """Omega^t Omega for even and odd t: with no free summand, Omega^2 Omega = Omega."""
        return self.syzygy, omega_power(self.syzygy, 1)

    def rank(self, i: int) -> int:
        if i >= self.cut:
            return self.ranks.get(i, 0)
        return len(self.syzygies[(self.cut - 1 - i) % 2].blocks)

    def differential(self, i: int) -> np.ndarray:
        """d^i, for F^i and F^(i+1) both nonzero."""
        if i >= self.cut:
            return self.diffs[i]
        if i == self.cut - 1:
            return (self.embedding @ cover_matrix(self.syzygy)).a
        return _tail_stage(self.syzygies[(self.cut - 2 - i) % 2])[1].a


def _resolve_window(x: Complex) -> _Window:
    """Build and cache the window of x; later calls are lookups.

    The cut syzygy is Omega W for the image W = R{w_k} of d^cut, a minimal
    free cover of W (see _build_free_approximation), with w_k = d^cut e_k.
    W's type is span_type's for G = the w_k and U = 0, but x^t w_k is
    already column k*n + t of d^cut: one gather of its columns in the order
    t = n-1, ..., 0 gives profile_type the rows span_type would build.  The
    cut kernel and its embedding wait for a reader.
    """
    if x._window is not None:
        return x._window
    ring, n = x.ring, x.ring.n
    cut = x.min_degree - 1
    ranks, diffs, eps = _build_free_approximation(x, cut)
    r = ranks.get(cut, 0)
    order = [k * n + t for t in range(n - 1, -1, -1) for k in range(r)]
    image = profile_type(diffs[cut][:, order].tolist(), 0, r, ring) if r else zero_module(ring)
    for arr in (*diffs.values(), *eps.values()):
        arr.flags.writeable = False
    x._window = _Window(cut, ranks, diffs, eps, RModule(ring, syzygy_type(image)))
    return x._window


def projective_resolution(x: Complex, depth: int) -> Resolution:
    """Minimal complex of frees in degrees >= depth, quasi-isomorphic to x
    above the cut, with the cut syzygy.

    The depth must be at most min-1, one below the lowest degree.  The
    window [min-1, max] is resolved once per complex (_resolve_window);
    below it the resolution is that of the cut syzygy Omega, with no
    elimination since X^i = 0 there: the cover of Omega into F^(min-1),
    then syzygy_embedding's x^j or x^(n-j) block by block (Eisenbud's
    matrix factorizations).  Nothing is built here and a band reads its
    own degrees only, so a deep cut costs nothing until it is read.
    """
    ring = x.ring
    if x.is_zero():
        return Resolution(x, depth, _Window(depth, {}, {}, {}, zero_module(ring)))
    cut = x.min_degree - 1
    if depth > cut:
        raise PreconditionError("resolution depth %d must be <= %d, one below the lowest degree"
                                % (depth, cut))
    return Resolution(x, depth, _resolve_window(x))


# -- derived Hom --------------------------------------------------------------


def derived_hom(a: Complex, b: Complex, d: int = 0) -> int:
    """dim over F_p of Hom in the derived category from a to T^d b.

    Computed as H^d of the Hom complex out of the minimal free resolution
    P of a into b.  When b is one stalk of k^m at degree j, every
    differential of Hom(P, b) is 0, since no d_P has a unit entry, so the
    answer is m rank P^(j-d), a Betti number read off a's cached window
    or the block count of its tail: nothing is eliminated or built.

    Otherwise it is dim Hom^d - rk delta^d - rk delta^(d-1).
    Hom^k(P, T^d b) is Hom^(k+d)(P, b), with delta changed only by the
    sign (-1)^d, so this is H^0 of Hom(P, T^d b) and no shifted copy of b
    is built.  Hom^(d-1), Hom^d, Hom^(d+1) and both deltas see P only in
    degrees [lo, hi], for lo = b.min - d - 1 and hi = b.max - d + 1, so
    only that band of P is built.  The cut min(a.min - 1, lo) is at least
    one below a's support, so the arrays come from a's cached window or
    its spliced tail.
    """
    if a.is_zero() or b.is_zero():
        return 0
    j = b.min_degree
    if len(b._components) == 1 and set(b.component(j).blocks) == {1}:
        return len(b.component(j).blocks) * _resolve_window(a).rank(j - d)
    lo, hi = j - d - 1, b.max_degree - d + 1
    pc = projective_resolution(a, min(a.min_degree - 1, lo)).band(lo, hi)
    _, dd, cols = hom_complex(pc, b, d)
    _, dm1, _ = hom_complex(pc, b, d - 1)
    return cols - row_rank(dd, b.ring.p) - row_rank(dm1, b.ring.p)
