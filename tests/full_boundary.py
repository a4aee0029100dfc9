"""Test references for the mapping cone: its whole chain-level boundary,
the symmetric windows of the truncation argument and the induced block
matrix.

The chain route never assembles the boundary.  It adds the HatA blocks'
own boundary ranks and HatB's, once per HatB block, to the ranks its
sweep adds, block by block, from the rows of HatB's b cocycle classes on
the HatA blocks (the rows of two ``cocycle_side`` matrices side by side,
which ``MappingCone.total_boundary`` assembles), each residue class
of j mod p carrying one canonical block.  This module assembles every row in the original basis,
reading each map's dense view from ``models.dense``, so tests can check
that split against the full matrix, and replays the sweep's steps from
the memo the chain route leaves.
On every complex tried, real cones leave every carry of either route's
sweep empty, so ``random_side`` gives either route random side matrices,
patched in for ``cocycle_side`` or ``induced_side``, whose carries
matter; the blocks that ``total_boundary`` and
``models.induced_boundary`` assemble follow the patched sides.

The rank routes use only the tight window.  ``build_cone`` gives the same
cone on the symmetric window -q*level < j < q*level of the truncation
argument, exact for every level from ``truncation_bound`` up, and the
tests check the tight window's rank against the full boundary there,
which runs no sweep.  ``block_matrix`` assembles the induced block matrix
from the rows of ``models.induced_boundary``, so a test that patches
``induced_side`` patches the matrix too, and ``flatten`` packs a kernel
element into its columns.
"""

import random

from hfsurgery.f2 import F2Matrix
from hfsurgery.surgery import MappingCone, _sweep
from models import dense, induced_boundary, sweep_table


def truncation_bound(c, slope) -> int:
    """The smallest level whose symmetric window is exact,
    ceil(genus + p/q + 1)."""
    return c.genus() + 1 + -(-slope.p // slope.q)


class SymmetricCone(MappingCone):
    """A cone whose window :func:`build_cone` widens.  Its lo is not a
    multiple of q, so the first floor is cut as well as the last, and the
    run memo's form, q columns per floor up to the last run, does not hold:
    it sums its own floors instead, floor s counting the columns of
    [sq, sq + q - 1] in the window, and leaves the memo alone."""

    def _per_column(self, name, term):
        c, q = self.complex, self.slope.q
        lo, hi = self.a_columns[0], self.a_columns[-1]
        return sum(
            (min(hi, s * q + q - 1) + 1 - max(lo, s * q)) * term(c.region_complex(s))
            for s in range(lo // q, hi // q + 1)
        )


def build_cone(c, slope, level=None) -> MappingCone:
    """The cone on the symmetric window -q*level < j < q*level, the HatB
    columns being those p further right; ``level=None`` means
    :func:`truncation_bound`.  It is the tight cone with its window
    widened, so it reads the genus and checks the flip first, and every
    view of the cone works on it."""
    cone = SymmetricCone(c, slope)
    q = slope.q
    level = truncation_bound(c, slope) if level is None else level
    lo, hi = -q * level + 1, q * level - 1
    cone.a_columns = range(lo, hi + 1)
    cone.b_columns = range(lo + slope.p, hi + 1)
    return cone


def full_boundary(cone) -> F2Matrix:
    """Every row of the cone's boundary, laid out in the chain order of the
    ``surgery`` module docstring.  HatB row block j holds
    h_hat((j - p) // q) on HatA block j - p, the HatB boundary on its own
    block and v_hat(j // q) on HatA block j."""
    c, p, q = cone.complex, cone.slope.p, cone.slope.q
    b_region = c.region_complex(c.top)

    def a_region(j):
        return c.region_complex(j // q)

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
        h_rows = dense(c.h_hat((j - p) // q)).data
        v_rows = dense(c.v_hat(j // q)).data
        masks[ob : ob + b_region.dim] = [
            (h << a_off[j - p]) | (d << ob) | (v << a_off[j])
            for h, d, v in zip(h_rows, b_region.boundary.data, v_rows)
        ]
    return F2Matrix(pos, tuple(masks))


def replayed_steps(cone, tag="sweep", side=None) -> list[list[tuple]]:
    """Each HatB block's step in route ``tag``'s sweep of the cone,
    replayed from the memo that the route left on the cone's complex,
    decoded by ``models.sweep_table``: for each residue class of j mod p
    that owns a HatB block, in the order of the classes' first HatB
    blocks, the blocks in chain order as (j, key, increment, next carry),
    key being the step's (carry, h side, v side).  The sweep keys block j
    on the values of its side matrices at (j - p) // q and j // q, so the
    replay reads each one by ``side``, ``cone.cocycle_side`` unless given.
    A missing step raises ``KeyError``."""
    p, q, side = cone.slope.p, cone.slope.q, side or cone.cocycle_side
    table = sweep_table(cone.complex, tag)
    classes = []
    for first in cone.b_columns[:p]:
        carry, steps = (), []
        for j in range(first, cone.b_columns.stop, p):
            key = carry, side("h", (j - p) // q), side("v", j // q)
            increment, carry = table[key]
            steps.append((j, key, increment, carry))
        classes.append(steps)
    return classes


def random_side(seed, homology=False):
    """A stand-in for ``MappingCone.cocycle_side``, or with ``homology``
    for ``induced_side``: a random side matrix for each kind and Alexander
    class, fixed by the seed, the kind and the class, as wide as the
    class's region, or its homology.  Every side of a complex has the same
    number of rows, as every real one has b, but that number is drawn from
    the seed, from 1 to twice the generator count, so that the carries
    matter."""

    def side(cone, kind, s):
        c = cone.complex
        region = c.region_complex(s)
        width = region.homology.dim if homology else region.dim
        count = random.Random(seed).randint(1, 2 * len(c.columns[0][0]))
        rng = random.Random(f"{seed} {kind} {c.alexander_class(s)}")
        return F2Matrix(width, tuple(rng.getrandbits(width) for _ in range(count)))

    return side


def sweep_rank(cone) -> int:
    """The chain route's rank, swept on the cone's own window: what
    ``cone_rank_chain`` computes on the tight one."""
    added = _sweep(cone, "sweep", cone.cocycle_side)
    return cone.total_dim - 2 * (cone.boundary_rank + added)


def _hom_offsets(cone) -> tuple[dict[int, int], int]:
    """The block matrix's column offset of each HatA column, in plain
    column order, each block as wide as its homology, and the width."""
    q = cone.slope.q
    a_off, pos = {}, 0
    for j in cone.a_columns:
        a_off[j] = pos
        pos += cone.complex.region_complex(j // q).homology.dim
    return a_off, pos


def block_matrix(cone) -> F2Matrix:
    """The induced block matrix on homology.  HatB row block j holds the
    rows ``models.induced_boundary`` gives for its key, the h part on HatA
    column j - p and the v part on HatA column j; both always lie in the
    window.  Column order changes neither its rank nor its kernel's
    dimension."""
    a_off, width = _hom_offsets(cone)
    p, q = cone.slope.p, cone.slope.q
    masks = []
    for j in cone.b_columns:
        rows, _, v_start = induced_boundary(cone, ((j - p) // q, j // q))
        h_mask = (1 << v_start) - 1
        masks += [
            ((row & h_mask) << a_off[j - p]) | ((row >> v_start) << a_off[j])
            for row in rows
        ]
    return F2Matrix(width, tuple(masks))


def flatten(cone, element: dict[int, int]) -> int:
    """Pack a column-indexed homology element into the block matrix's
    columns."""
    a_off, _ = _hom_offsets(cone)
    out = 0
    for j, coeff in element.items():
        out |= coeff << a_off[j]
    return out
