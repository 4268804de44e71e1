"""The abelian category mod R for R = F_p[x]/(x^n).

Finitely generated R-modules are classified by Jordan type: a multiset of
block sizes 1 <= j <= n.  A module is stored as that multiset (sorted
descending); its canonical basis lists each block as e, xe, ..., x^(j-1)e,
so the x-action is the block-diagonal lower shift matrix.  Morphisms carry
an F_p matrix in canonical bases and must commute with the x-actions.

Everything downstream (complexes, cones, resolutions) reduces to the
operations here: k-duality of maps, kernels/images/cokernels
re-canonicalized to Jordan type (all three as kernels, by
subspace_canonicalize), Hom bases, projective covers and syzygies, and
Hom modulo projectives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .linalg import Matrix, is_prime, kernel_basis, new_columns, row_new_columns, solve


@dataclass(frozen=True)
class Ring:
    """R = F_p[x]/(x^n).  n = 1 is the field case (every module free)."""

    p: int
    n: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError("p = %d is not prime" % self.p)
        if self.n < 1:
            raise ValueError("nilpotency degree must be >= 1, got %d" % self.n)

    def __str__(self):
        return "F_%d[x]/(x^%d)" % (self.p, self.n)


@dataclass(frozen=True)
class RModule:
    """Module given by Jordan type; blocks kept sorted descending."""

    ring: Ring
    blocks: tuple[int, ...]

    def __post_init__(self):
        if any(not (1 <= j <= self.ring.n) for j in self.blocks):
            raise ValueError("block sizes must lie in 1..%d, got %s" % (self.ring.n, self.blocks))
        object.__setattr__(self, "blocks", tuple(sorted(self.blocks, reverse=True)))

    @property
    def dim(self) -> int:
        return sum(self.blocks)

    def is_zero(self) -> bool:
        return not self.blocks

    def is_free(self) -> bool:
        """Projective = free over local R: every block of full size n."""
        return all(j == self.ring.n for j in self.blocks)

    def strip_free(self) -> "RModule":
        return RModule(self.ring, tuple(j for j in self.blocks if j < self.ring.n))

    def x_action(self) -> Matrix:
        return _x_action(self.ring, self.blocks)

    def block_starts(self) -> list[int]:
        return [0, *accumulate(self.blocks)][:-1]

    def __str__(self):
        return "0" if not self.blocks else "+".join("[%d]" % j for j in self.blocks)


def _frozen(matrix: Matrix) -> Matrix:
    """A cached closed form, shared by every caller: its array refuses writes."""
    matrix.a.flags.writeable = False
    return matrix


@lru_cache(maxsize=None)
def _x_action(ring: Ring, blocks: tuple[int, ...]) -> Matrix:
    """The lower shift: row r takes row r - 1 unless r starts a block."""
    offsets = [u for j in blocks for u in range(j)]
    ones = [(r, r - 1) for r, u in enumerate(offsets) if u]
    return _frozen(Matrix.units(len(offsets), len(offsets), ones, ring.p))


@lru_cache(maxsize=None)
def zero_module(ring: Ring) -> RModule:
    """The zero module over ring, one shared (frozen) instance per ring."""
    return RModule(ring, ())


@lru_cache(maxsize=1024)
def free_module(ring: Ring, rank_: int) -> RModule:
    """R^rank_, one shared (frozen) instance per ring and rank."""
    return RModule(ring, (ring.n,) * rank_)


@dataclass(frozen=True)
class RModuleMap:
    """R-linear map in canonical bases.  The constructor runs _check;
    _trusted, for a map R-linear by construction, skips it."""

    source: RModule
    target: RModule
    matrix: Matrix

    def __post_init__(self):
        self._check()

    @classmethod
    def _trusted(cls, source: RModule, target: RModule, matrix: Matrix) -> "RModuleMap":
        f = cls.__new__(cls)
        vars(f).update(source=source, target=target, matrix=matrix)  # frozen: no __setattr__
        return f

    def _check(self):
        if self.source.ring != self.target.ring:
            raise ValueError("ring mismatch: %s vs %s" % (self.source.ring, self.target.ring))
        if (self.matrix.rows, self.matrix.cols) != (self.target.dim, self.source.dim):
            raise ValueError("matrix is %dx%d, expected %dx%d"
                             % (self.matrix.rows, self.matrix.cols, self.target.dim, self.source.dim))
        if self.matrix.p != self.ring.p:
            raise ValueError("mixed moduli %d and %d" % (self.matrix.p, self.ring.p))
        flat = self.matrix.a.ravel()
        repeated = np.append(flat, 0)[_linear_entries(self.source.blocks, self.target.blocks, self.ring.n)]
        if repeated.tobytes() != flat.tobytes():
            raise ValueError("matrix does not commute with the x-actions (not R-linear)")

    @property
    def ring(self) -> Ring:
        return self.source.ring

    def __matmul__(self, other: "RModuleMap") -> "RModuleMap":
        if other.target != self.source:
            raise ValueError("maps not composable")
        return RModuleMap._trusted(other.source, self.target, self.matrix @ other.matrix)

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    def __eq__(self, other):
        if not isinstance(other, RModuleMap):
            return NotImplemented
        return (self.source, self.target, self.matrix) == (other.source, other.target, other.matrix)


@lru_cache(maxsize=1024)
def _linear_entries(source: tuple[int, ...], target: tuple[int, ...], n: int) -> np.ndarray:
    """R-linearity as a table over Jordan types: for each row-major entry,
    the index of the coordinate entry an R-linear map repeats there, or one
    past the last index where it is 0.  Each hom_basis map repeats its
    first one at all its ones, and they span Hom."""
    dm, dn = sum(source), sum(target)
    table = np.full(dn * dm, dn * dm, dtype=np.int64)
    for ones in _hom_units(source, target, n):
        table[[r * dm + c for r, c in ones]] = ones[0][0] * dm + ones[0][1]
    return table


@lru_cache(maxsize=1024)
def zero_map(source: RModule, target: RModule) -> RModuleMap:
    """The zero map source -> target: built once per pair of Jordan types,
    then shared, its matrix read-only."""
    if source.ring != target.ring:
        raise ValueError("ring mismatch: %s vs %s" % (source.ring, target.ring))
    return RModuleMap._trusted(source, target, _frozen(Matrix.zeros(target.dim, source.dim, source.ring.p)))


@lru_cache(maxsize=1024)
def identity_map(m: RModule) -> RModuleMap:
    """The identity of m: built once per Jordan type, then shared, its
    matrix read-only."""
    return RModuleMap._trusted(m, m, _frozen(Matrix.identity(m.dim, m.ring.p)))


# -- Jordan canonicalization ----------------------------------------------


def _chains(action: Matrix, heads: np.ndarray, length: int) -> np.ndarray:
    """The chains v, action v, ..., action^(length-1) v of the columns v of
    heads, chain by chain: column k*length + t is action^t of head k."""
    powers = [heads]
    for _ in range(length - 1):
        powers.append((action.a @ powers[-1]) % action.p)
    return np.stack(powers, axis=2).reshape(action.rows, heads.shape[1] * length)


def jordan_basis(a: Matrix) -> tuple[tuple[int, ...], Matrix]:
    """Jordan type and basis of a nilpotent matrix.

    Returns (blocks, J) with J invertible and a @ J = J @ X where X is the
    canonical lower-shift action for the returned type: column order is
    chain by chain, v, a v, a^2 v, ..., blocks sorted descending.

    Chain heads are chosen top height down: the heads of height t are the
    columns of the basis of ker(a^t) that are new (new_columns) beside
    ker(a^(t-1)) and the tails of the taller chains pushed down to height
    t, so together they complete those to a basis of ker(a^t).
    """
    p, d = a.p, a.rows
    kernels = [Matrix.zeros(d, 0, p)]
    power = Matrix.identity(d, p)
    while kernels[-1].cols < d:
        power = power @ a
        kernels.append(kernel_basis(power))
    blocks: list[int] = []
    chains = [kernels[0].a]  # d x 0, so that the zero module stacks too
    tails = Matrix.zeros(d, 0, p)  # the heads so far, pushed down to height t
    for t in range(len(kernels) - 1, 0, -1):
        heads = kernels[t].a[:, new_columns(kernels[t - 1].hstack(tails), kernels[t])]
        blocks += [t] * heads.shape[1]
        chains.append(_chains(a, heads, t))
        tails = a @ tails.hstack(Matrix(heads, p))
    return tuple(blocks), Matrix(np.hstack(chains), p)


def subspace_canonicalize(action: Matrix, basis: Matrix, ring: Ring) -> tuple[RModule, Matrix]:
    """Canonicalize an action-stable subspace given by independent columns.

    action is the (nilpotent) x-action on the ambient coordinate space.
    Returns (M, E) with M canonical and E an embedding matrix in ambient
    coordinates satisfying action @ E = E @ M.x_action().
    """
    induced = solve(basis, action @ basis)
    if induced is None:
        raise ValueError("subspace is not x-stable")
    blocks, J = jordan_basis(induced)
    return RModule(ring, blocks), basis @ J


def direct_sum(summands: list[RModule], ring: Ring) -> tuple[RModule, list[RModuleMap], list[RModuleMap]]:
    """Direct sum in canonical form, with injections and projections.

    Blocks of the sum are re-sorted, so the structural maps are the
    block-permutation matrices realizing the canonical ordering.  They
    depend only on the summands' Jordan types and the ring, so each is
    built once per key (_direct_sum); every call returns
    fresh lists of those shared, frozen maps.
    """
    total, injections, projections = _direct_sum(tuple(summands), ring)
    return total, list(injections), list(projections)


@lru_cache(maxsize=1024)
def _direct_sum(summands: tuple[RModule, ...], ring: Ring):
    if any(m.ring != ring for m in summands):
        raise ValueError("ring mismatch: summands must lie over %s" % ring)
    # (size, summand index, start within summand), in canonical order: sizes descending, ties by summand
    tagged = sorted(((size, si, start) for si, m in enumerate(summands)
                     for size, start in zip(m.blocks, m.block_starts())), key=lambda b: (-b[0], b[1]))
    total = RModule(ring, tuple(size for size, _, _ in tagged))
    ones = [[] for _ in summands]  # injection si sends start + t to at + t
    at = 0
    for size, si, start in tagged:
        ones[si] += [(at + t, start + t) for t in range(size)]
        at += size
    injs = [_frozen(Matrix.units(total.dim, m.dim, o, ring.p)) for m, o in zip(summands, ones)]
    injections = tuple(RModuleMap._trusted(m, total, e) for m, e in zip(summands, injs))
    projections = tuple(RModuleMap._trusted(total, m, _frozen(e.T)) for m, e in zip(summands, injs))
    return total, injections, projections


# -- Hom groups -------------------------------------------------------------


def hom_basis(m: RModule, nn: RModule) -> list[RModuleMap]:
    """F_p basis of Hom_R(m, nn), written down in closed form.

    For a source block R/x^a at start sa and a target block R/x^b at start
    sb, the maps e -> x^s f with max(0, b - a) <= s < b are a basis of
    Hom(R/x^a, R/x^b); each is the 0/1 matrix with entries at
    (sb + s + t, sa + t) for t < b - s.

    The order is fixed, because samplers draw random combinations of these
    maps and any other order changes every sampled input.  A free source
    orders by generator, then by target basis vector (the image of the
    generator): the column-major index of the first nonzero entry.  Any
    other source orders by the row-major index of the last nonzero entry,
    the free variable an elimination of X_nn F = F X_m would pick.

    The basis depends only on the two Jordan types and n, so its ones are
    listed (_hom_units, which hom_complex and the R-linearity check read)
    and its maps built from them (_hom_basis) once per pair; every call
    returns a fresh list of those shared maps, whose matrices refuse writes.
    """
    if m.ring != nn.ring:
        raise ValueError("ring mismatch")
    return list(_hom_basis(m, nn))


@lru_cache(maxsize=1024)
def _hom_basis(m: RModule, nn: RModule) -> tuple[RModuleMap, ...]:
    return tuple(RModuleMap._trusted(m, nn, _frozen(Matrix.units(nn.dim, m.dim, ones, m.ring.p)))
                 for ones in _hom_units(m.blocks, nn.blocks, m.ring.n))


@lru_cache(maxsize=1024)
def _hom_units(source: tuple[int, ...], target: tuple[int, ...], n: int) -> tuple[tuple, ...]:
    """The ones (r, c) of each hom_basis map between Jordan types over
    F_p[x]/(x^n), in order: the one place the order rule is written."""
    dm, dn, free, keyed = sum(source), sum(target), all(a == n for a in source), []
    for a, sa in zip(source, [0, *accumulate(source)]):
        for b, sb in zip(target, [0, *accumulate(target)]):
            for s in range(max(0, b - a), b):
                keyed.append((sa * dn + sb + s if free else (sb + b - 1) * dm + sa + b - s - 1,
                              tuple((sb + s + t, sa + t) for t in range(b - s))))
    return tuple(ones for _, ones in sorted(keyed, key=lambda kf: kf[0]))


# -- kernels, images, cokernels --------------------------------------------


def _reversal(m: RModule) -> Matrix:
    """Blockwise antidiagonal; conjugates the transposed x-action back to
    canonical form.  Self-inverse."""
    ones = [(s + j - 1 - t, s + t) for j, s in zip(m.blocks, m.block_starts()) for t in range(j)]
    return Matrix.units(m.dim, m.dim, ones, m.ring.p)


def dual_map(f: RModuleMap) -> RModuleMap:
    """F_p-linear dual in canonical bases: target' -> source'."""
    ra, rb = _reversal(f.source), _reversal(f.target)
    return RModuleMap(f.target, f.source, ra @ f.matrix.T @ rb)


def subquotient(f: RModuleMap, which: str) -> tuple[RModule, RModuleMap]:
    """Kernel, image or cokernel of a map, re-canonicalized to Jordan type.

    kernel:   (K, inclusion K -> source)
    image:    (I, inclusion I -> target)
    cokernel: (C, projection target -> C)

    Only the kernel is canonicalized (subspace_canonicalize); the others
    are kernels too.  By k-duality D coker f = ker Df, and the dual of that
    kernel's inclusion is onto, with kernel im f; and im f = ker coker f.
    """
    if which == "kernel":
        mod, emb = subspace_canonicalize(f.source.x_action(), kernel_basis(f.matrix), f.ring)
        return mod, RModuleMap(mod, f.source, emb)
    if which == "cokernel":
        mod, incl = subquotient(dual_map(f), "kernel")
        return mod, dual_map(incl)
    if which == "image":
        return subquotient(subquotient(f, "cokernel")[1], "kernel")
    raise ValueError("which must be kernel|image|cokernel, got %r" % which)


def shift_rows(rows: list[list[int]], blocks: tuple[int, ...], t: int) -> list[list[int]]:
    """x^t M for the int rows of M in canonical coordinates of type blocks:
    row s + u of a block at s is row s + u - t of M, or 0 if u < t.  M's
    rows are reused, not copied."""
    offsets = [u for j in blocks for u in range(j)]
    return [rows[r - t] if u >= t else [0] * len(rows[r]) for r, u in enumerate(offsets)]


def span_type(span: list[list[int]], gens: list[list[int]], blocks: tuple[int, ...], ring: Ring) -> RModule:
    """Jordan type of (RG + U)/U, G and the x-stable U the columns of gens and
    span (width 0 for U = 0), int rows of type blocks: profile_type of the rows
    [U | x^(n-1)G | ... | G], x^t G holding G's row r - t at block offsets >= t."""
    n, g = ring.n, len(gens[0]) if gens else 0
    if not g:
        return zero_module(ring)
    rows = [sum((gens[r - t] for t in range(u, -1, -1)), span[r] + [0] * g * (n - 1 - u))
            for r, u in enumerate(u for j in blocks for u in range(j))]
    return profile_type(rows, len(span[0]), g, ring)


def profile_type(rows: list[list[int]], split: int, g: int, ring: Ring) -> RModule:
    """Jordan type of (RG + U)/U off one elimination of the int rows of
    [U | x^(n-1)G | ... | xG | G], U of width split and G of width g: the
    columns up to the group x^t G span U + x^t RG, so its pivots count
    dim(x^t RG + U) - dim(x^(t+1) RG + U), the blocks of size > t."""
    n, picked = ring.n, row_new_columns(rows, split, ring.p)
    taller = [sum(c // g == n - 1 - t for c in picked) for t in range(n)]  # blocks of size > t
    return RModule(ring, tuple(sum(c >= j for c in taller) for j in range(1, taller[0] + 1)))


def free_cover(blocks: tuple[int, ...], basis: list[list[int]], span: list[list[int]],
               ring: Ring) -> tuple[RModule, list[list[int]]]:
    """Minimal free cover of the x-stable span W of the columns of basis,
    modulo an x-stable U inside W spanned by the columns of span.

    basis and span are int rows in the canonical coordinates of Jordan type
    blocks, where x is shift_rows.  The generators w_k are the columns of
    basis independent modulo xW + U, read off one elimination of
    [xB | span | B]: they lift a basis of the top of W/U.  Returns (F, E),
    F = R^(#generators) and E the int rows with column k*n + t = x^t w_k,
    so x E = E F.x_action() and, by Nakayama, the columns of E and of span
    together span W.  An empty span (rows of width 0) covers W itself.
    """
    stacked = [xb + u + b for xb, u, b in zip(shift_rows(basis, blocks, 1), span, basis)]
    heads = row_new_columns(stacked, len(basis[0]) + len(span[0]) if basis else 0, ring.p)
    w = [[row[h] for h in heads] for row in basis]  # the columns w_k
    chains = zip(*(shift_rows(w, blocks, t) for t in range(ring.n)))
    return free_module(ring, len(heads)), [[c[k] for k in range(len(heads)) for c in cs] for cs in chains]


def projective_cover_and_syzygy(m: RModule) -> tuple[RModule, RModuleMap, RModule, RModuleMap]:
    """Projective cover F -> m and its kernel.

    Returns (F, cover, syzygy, incl) with F = R^(#blocks), cover the
    canonical surjection (the free cover of the identity basis, sending
    generator i onto the i-th block generator) and incl : syzygy -> F the
    kernel inclusion.  The syzygy of block j is block n - j, so it never
    contains a free summand.
    """
    p = m.ring.p
    F, E = free_cover(m.blocks, Matrix.identity(m.dim, p).a.tolist(), [[]] * m.dim, m.ring)
    cover = RModuleMap(F, m, Matrix(np.array(E, dtype=np.int64).reshape(m.dim, F.dim), p))
    syz, incl = subquotient(cover, "kernel")
    return F, cover, syz, incl


def syzygy_type(m: RModule) -> tuple[int, ...]:
    """Closed form: Omega(block j) = block (n - j), free blocks die."""
    n = m.ring.n
    return tuple(sorted((n - j for j in m.blocks if j < n), reverse=True))


def omega_power(m: RModule, t: int) -> RModule:
    """Omega^t m in canonical form, by the closed-form syzygy_type; as Omega
    drops free blocks and swaps j, n - j, Omega^(t+2) = Omega^t for t >= 1."""
    for _ in range(min(t, 2 - t % 2)):
        m = RModule(m.ring, syzygy_type(m))
    return m


def cover_matrix(m: RModule) -> Matrix:
    """The canonical cover R^(#blocks) ->> m in closed form: x^t e_s goes to
    x^t times the generator of block s, and to 0 once t reaches its size."""
    n = m.ring.n
    ones = [(start + t, s * n + t)
            for s, (b, start) in enumerate(zip(m.blocks, m.block_starts())) for t in range(b)]
    return Matrix.units(m.dim, len(m.blocks) * n, ones, m.ring.p)


def syzygy_embedding(m: RModule) -> tuple[RModule, Matrix]:
    """Omega m in canonical form and its embedding in R^(#blocks of m) as
    the kernel of the canonical cover, both in closed form.

    The cover sends e_s to the generator of block s, of size b_s, so its
    kernel is the sum of x^(b_s) R e_s = R/x^(n - b_s) over the blocks with
    b_s < n.  In canonical order (sizes descending, ties by s) the l-th
    generator of Omega m goes to x^(b_s) e_s: a 0/1 matrix, and the basis
    the Jordan canonicalization of the cover's kernel picks.  A minimal
    resolution's differential is an embedding times the next cover_matrix;
    iterated, blocks x^j and x^(n - j) alternate (2-periodicity).
    """
    n = m.ring.n
    heads = sorted((s for s, b in enumerate(m.blocks) if b < n), key=lambda s: m.blocks[s])
    omega = RModule(m.ring, tuple(n - m.blocks[s] for s in heads))
    ones = [(s * n + m.blocks[s] + t, start + t)
            for s, start in zip(heads, omega.block_starts()) for t in range(n - m.blocks[s])]
    return omega, Matrix.units(len(m.blocks) * n, omega.dim, ones, m.ring.p)


@lru_cache(maxsize=1024)
def _tail_stage(m: RModule) -> tuple[int, Matrix, RModule, RModule]:
    """The tail stage below Omega m >-> R^(#blocks of m): (rank F, d, Omega m,
    Omega^2 m) with F covering Omega m and d that cover followed by
    syzygy_embedding(m).  It depends only on the Jordan type of m and the
    ring, so each is built once per key, as _direct_sum's maps are.  The
    one reader of the 2-periodic tail: resolution bands and truncation
    towers both walk m -> Omega^2 m through it, eliminating nothing."""
    omega, embedding = syzygy_embedding(m)
    d = _frozen(embedding @ cover_matrix(omega))
    return len(omega.blocks), d, omega, RModule(m.ring, syzygy_type(omega))


def stable_hom_dim(m: RModule, nn: RModule) -> int:
    """dim of Hom(m, nn) modulo projectives: sum over block pairs of
    min(a, b, n - a, n - b) (Buchweitz).  stable_hom computes the same space
    by elimination and is the oracle this closed form is tested against."""
    n = m.ring.n
    return sum(min(a, b, n - a, n - b) for a in m.blocks for b in nn.blocks)


def stable_hom(m: RModule, nn: RModule) -> tuple[int, list[RModuleMap]]:
    """Hom(m, nn) modulo maps factoring through a projective.

    A map factors through a projective iff it factors through the
    projective cover P(nn) ->> nn, so the factoring subspace is
    {cover o g : g in Hom(m, P(nn))}.  Returns (dimension, coset reps):
    the hom_basis maps new beside that subspace and the earlier basis maps.
    """
    if m.ring != nn.ring:
        raise ValueError("ring mismatch")
    basis = hom_basis(m, nn)
    P, cover, _, _ = projective_cover_and_syzygy(nn)

    def flattened(mats: list[Matrix]) -> Matrix:  # one column per map
        flat = np.array([f.a.ravel() for f in mats]).reshape(len(mats), nn.dim * m.dim)
        return Matrix(flat.T, m.ring.p)

    factoring = flattened([cover.matrix @ g.matrix for g in hom_basis(m, P)])
    reps = [basis[k] for k in new_columns(factoring, flattened([f.matrix for f in basis]))]
    return len(reps), reps
