"""The whole chain-level boundary of a mapping cone, as a test reference.

The chain route never assembles the boundary.  It adds the HatA blocks'
own boundary ranks to the ranks its sweep adds, block by block, from the
HatB rows on the cycle bases of the HatA blocks
(``MappingCone.total_boundary(key)``), each residue class of j mod p
carrying one canonical block.  This module assembles every row in the
original basis, so tests can check that split against the full matrix,
and replays the sweep's steps from the memo the chain route leaves.
On every complex tried, real cones leave every carry of either route's
sweep empty, so ``random_induced_boundary`` gives the homological route
rows whose carries matter.
"""

import random

from hfsurgery.cfk import HatA, HatB
from hfsurgery.f2 import F2Matrix


def full_boundary(cone) -> F2Matrix:
    """Every row of the cone's boundary, laid out in the chain order of the
    ``surgery`` module docstring.  HatB row block j holds
    h_hat((j - p) // q) on HatA block j - p, the HatB boundary on its own
    block and v_hat(j // q) on HatA block j."""
    c, p, q = cone.complex, cone.slope.p, cone.slope.q
    b_region = c.region_complex(HatB())

    def a_region(j):
        return c.region_complex(HatA(j // q))

    a_off, b_off = {}, {}
    pos = 0
    for i in range(p):
        for j in cone.a_columns[i::p]:
            if j in cone.b_columns:
                b_off[j] = pos
                pos += b_region.dim
            a_off[j] = pos
            pos += a_region(j).dim
    masks = [0] * pos
    for j, oa in a_off.items():
        rows = a_region(j).boundary.data
        masks[oa : oa + len(rows)] = [row << oa for row in rows]
    for j, ob in b_off.items():
        h_rows = c.h_hat((j - p) // q).matrix.data
        v_rows = c.v_hat(j // q).matrix.data
        masks[ob : ob + b_region.dim] = [
            (h << a_off[j - p]) | (d << ob) | (v << a_off[j])
            for h, d, v in zip(h_rows, b_region.boundary.data, v_rows)
        ]
    return F2Matrix(pos, tuple(masks))


def sweep_increments(cone) -> list[list[int]]:
    """The rank each HatB block adds in the chain route's sweep, block by
    block for each residue class of j mod p, replayed from the memo that
    ``cone_rank_chain`` left on the complex for this cone's window.  A
    missing step raises ``KeyError``."""
    c, p, q = cone.complex, cone.slope.p, cone.slope.q
    hi = cone.a_columns[-1]
    classes = []
    for first in cone.a_columns[:p]:
        carry, steps = (), []
        for j in range(first + p, hi + 1, p):
            increment, carry = c._memo[("sweep", carry, ((j - p) // q, j // q))]
            steps.append(increment)
        classes.append(steps)
    return classes


def random_induced_boundary(seed):
    """A stand-in for ``MappingCone.induced_boundary``: random rows of one
    HatB block on the homology coordinates [HatA(key[0]) | HatA(key[1])],
    fixed by the seed and the key, and the column where the second block
    starts."""

    def rows(cone, key):
        h_width, v_width = (cone.complex.region_complex(HatA(s)).homology.dim for s in key)
        rng = random.Random(f"{seed} {key}")
        count = rng.randint(0, h_width + v_width)
        data = tuple(rng.getrandbits(h_width + v_width) for _ in range(count))
        return F2Matrix(h_width + v_width, data), h_width

    return rows
