"""Test models of constructions the library does not need, built from its
public API only.

The tests read them to check the paper's lemmas: the reflection swaps the
ranks of v_hat and h_hat, the flip is a chain isomorphism between HatA(s)
and HatA(-s), the j-level regions factor h_hat, and t has a case formula
when b = 1.
"""

from dataclasses import dataclass

from hfsurgery.cfk import CfkComplex, DiffTerm, FilteredChainMap, Generator, HatA, RegionComplex
from hfsurgery.f2 import F2Matrix
from hfsurgery.surgery import Slope, nu_surrogate


def reflected(c: CfkComplex) -> CfkComplex:
    """The complex with the two filtration roles exchanged.

    Generator x keeps its id with alexander grading negated; a term with
    drops (k, d_j) becomes a term with drops (d_j, k).  For every s the maps
    v_hat(s) of the result and h_hat(-s) of the original have the same rank
    and kernel dimension.
    """
    c.require_valid()
    c.require_flip()
    gens = [Generator(g.id, -g.alexander) for g in c.generators]
    terms = [
        DiffTerm(t.source, t.target, t.upower + c.alexander[t.source] - c.alexander[t.target])
        for t in c.differential
    ]
    return CfkComplex(gens, terms, c.flip_pairs, f"reflected({c.name})")


def region_flip_equivalence(c: CfkComplex, s: int) -> FilteredChainMap:
    """The chain isomorphism HatA(s) -> HatA(-s) given by U^s then the flip."""
    source, target = c.region_complex(HatA(s)), c.region_complex(HatA(-s))
    c.require_flip()
    masks = [0] * target.dim
    for col, (gid, k) in enumerate(source.basis):
        masks[target.position(c.flip_map[gid], max(0, s - c.alexander[gid]))] |= 1 << col
    return FilteredChainMap(source, target, F2Matrix(source.dim, tuple(masks)))


@dataclass(frozen=True)
class JLevel:
    """The region j = s; ``CfkComplex.region_complex`` does not own this tag."""

    s: int


def j_level_region(c: CfkComplex, s: int) -> RegionComplex:
    """The region j = s: one basis element (x, alexander(x) - s) per
    generator, keeping the differential terms that stay in it."""
    c.require_valid()
    basis = tuple((g.id, g.alexander - s) for g in c.generators)
    index = {elem: i for i, elem in enumerate(basis)}
    masks = [0] * len(basis)
    for t in c.differential:
        k = c.alexander[t.source] - s
        row = index.get((t.target, k + t.upower))
        if row is not None:
            masks[row] ^= 1 << index[(t.source, k)]
    return RegionComplex(JLevel(s), basis, F2Matrix(len(basis), tuple(masks)))


def t_closed_form(c: CfkComplex, slope: Slope) -> int:
    """Case formula for t when b = 1: p when nu = 0, else max(0, p - (2 nu - 1) q)."""
    nu = nu_surrogate(c)
    if nu == 0:
        return slope.p
    return max(0, slope.p - (2 * nu - 1) * slope.q)
