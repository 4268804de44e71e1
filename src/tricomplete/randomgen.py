"""Seeded random objects for the fuzz harnesses and property tests.

Everything is driven by an explicit random.Random instance: same seed,
same objects, byte-stable reports.  Differentials are sampled from the
exact solution space of d^2 = 0, one degree at a time, so every generated
complex is valid by construction rather than by rejection, and built trusted:
the kernel of delta^0 on a Hom complex's int rows, combined on ints.
"""

from __future__ import annotations

import random

from .linalg import row_kernel
from .rmodule import RModule, RModuleMap, Ring
from .complexes import ChainMap, Complex, hom_combination, hom_complex, module_complex


class Sampler:
    def __init__(self, ring: Ring, rng: random.Random):
        self.ring = ring
        self.rng = rng

    def module(self, max_blocks: int = 2) -> RModule:
        k = self.rng.randint(0, max_blocks)
        return RModule(self.ring, tuple(self.rng.randint(1, self.ring.n) for _ in range(k)))

    def _kernel_sample(self, x: Complex, y: Complex) -> dict[int, RModuleMap]:
        """Uniform random element of ker delta^0 : Hom^0(X, Y) -> Hom^1(X, Y),
        one coefficient drawn per kernel basis vector, in order."""
        basis, delta, cols = hom_complex(x, y, 0)
        null = row_kernel(delta, cols, self.ring.p)
        coeffs = [self.rng.randrange(self.ring.p) for _ in range(len(null[0]) if null else 0)]
        return hom_combination(basis, [sum(v * c for v, c in zip(row, coeffs)) for row in null])

    def complex(self, lo: int, hi: int, max_blocks: int = 2,
                degrees: list[int] | None = None) -> Complex:
        """Random bounded complex with components in the given degree window.

        degrees, when given, replaces the window: only they, in any range,
        may carry a nonzero component (to sample inside metric balls).  The
        admissible d^i are the chain maps from X^(i-1) -> X^i into X^(i+1) in degree i.
        """
        allowed = sorted(degrees) if degrees is not None else list(range(lo, hi + 1))
        comps = {}
        for i in allowed:
            m = self.module(max_blocks=max_blocks)
            if not m.is_zero():
                comps[i] = m
        diffs: dict[int, RModuleMap] = {}
        for i in sorted(comps):
            if i + 1 not in comps:
                continue
            prev = {i - 1: diffs[i - 1]} if i - 1 in diffs else {}
            two_term = Complex._trusted(self.ring, {j: comps[j] for j in (i - 1, i) if j in comps}, prev)
            d = self._kernel_sample(two_term, module_complex(comps[i + 1], i)).get(i)
            if d is not None:
                diffs[i] = d
        return Complex._trusted(self.ring, comps, diffs)

    def chain_map(self, x: Complex, y: Complex) -> ChainMap:
        return ChainMap._trusted(x, y, self._kernel_sample(x, y))

    def composable_pair(self, lo: int = -2, hi: int = 2,
                        max_blocks: int = 2) -> tuple[ChainMap, ChainMap]:
        """f : X -> Y and g : Y -> Z sharing the middle complex."""
        x = self.complex(lo, hi, max_blocks)
        y = self.complex(lo, hi, max_blocks)
        z = self.complex(lo, hi, max_blocks)
        return self.chain_map(x, y), self.chain_map(y, z)

    def corner(self, lo: int = -2, hi: int = 2,
               max_blocks: int = 2) -> tuple[ChainMap, ChainMap]:
        """f : A -> B and h : A -> C sharing the source."""
        a = self.complex(lo, hi, max_blocks)
        b = self.complex(lo, hi, max_blocks)
        c = self.complex(lo, hi, max_blocks)
        return self.chain_map(a, b), self.chain_map(a, c)
