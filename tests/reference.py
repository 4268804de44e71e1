"""Operations that only the tests perform: sums and negatives of maps,
direct sums of complexes with their injection and projection chain maps,
composites along a tower, amplitudes, shifted ball families, and the
separating stalks of an equivalence report.  The library, its CLI and its
benchmark never perform them; the tests build inputs and references with
them."""

from tricomplete.complexes import ChainMap, PreconditionError, _sum_complex, identity_chain_map, module_complex
from tricomplete.metric import GoodMetric
from tricomplete.rmodule import RModule, RModuleMap, direct_sum


def add(f, g):
    """f + g, for two chain maps or two R-module maps with the same ends."""
    if isinstance(f, ChainMap):
        if (g.source, g.target) != (f.source, f.target):
            raise PreconditionError("chain maps not addable")
        degs = set(g._components) | set(f._components)
        return ChainMap(f.source, f.target, {i: add(f.component(i), g.component(i)) for i in degs})
    if (g.source, g.target) != (f.source, f.target):
        raise ValueError("maps not addable")
    return RModuleMap(f.source, f.target, f.matrix + g.matrix)


def neg(f):
    """-f, for a chain map or an R-module map."""
    if isinstance(f, ChainMap):
        return ChainMap(f.source, f.target, {i: neg(c) for i, c in f._components.items()})
    return RModuleMap(f.source, f.target, -f.matrix)


def direct_sum_complex(parts, ring):
    """Degreewise direct sum with its injection chain maps."""
    total, injs, _ = _sum_complex(parts, ring)
    return total, [ChainMap(x, total, {i: injs[i][k] for i in x.degrees}) for k, x in enumerate(parts)]


def sum_projections(total, parts):
    """Projection chain maps total -> parts[k] of direct_sum_complex(parts),
    which returns only injections: degreewise, direct_sum's projections."""
    return [ChainMap(total, x, {i: direct_sum([y.component(i) for y in parts], total.ring)[2][k]
                                for i in x.degrees})
            for k, x in enumerate(parts)]


def composite(tower, i, j):
    """The composite X_i -> X_j of a tower's connecting maps."""
    acc = identity_chain_map(tower.complex_at(i))
    for k in range(i, j):
        acc = tower.map_at(k) @ acc
    return acc


def amplitude(x):
    """max degree - min degree of a complex's nonzero components; 0 for 0."""
    return 0 if x.is_zero() else x.max_degree - x.min_degree


def shifted_family(m, t):
    """The family {T^t B_n}: the effective endpoints translated by -t."""
    raw = t if m.dual else -t
    return GoodMetric("T^%d(%s)" % (t, m.name),
                      [(p[0],) + tuple(e + raw for e in p[1:]) for p in m.pieces], dual=m.dual)


def separating_complexes(report, ring):
    """The separating family of an EquivalenceReport: simple stalks k at the
    recorded degrees (arbitrarily short in one metric, long in the other)."""
    k = RModule(ring, (1,))
    return [(mm, module_complex(k, deg)) for _, mm, deg in report.separating]
