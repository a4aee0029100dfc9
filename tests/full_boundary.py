"""Test references for the mapping cone: its whole chain-level boundary,
the symmetric windows of the truncation argument and the induced block
matrix.

The chain route never assembles the boundary.  It adds the HatA blocks'
own boundary ranks and HatB's, once per HatB block, to the ranks its
sweep adds, block by block, from the rows of HatB's b cocycle classes on
the cycle bases of the HatA blocks (``MappingCone.total_boundary(key)``), each
residue class of j mod p carrying one canonical block.  This module
assembles every row in the original basis, reading each map's dense view
from ``models.dense``, so tests can check that split against the full
matrix, and replays the sweep's steps from the memo the chain route
leaves.
On every complex tried, real cones leave every carry of either route's
sweep empty, so ``random_induced_boundary`` gives the homological route
rows whose carries matter.

The rank routes use only the tight window.  ``build_cone`` gives the same
cone on the symmetric window -q*level < j < q*level of the truncation
argument, exact for every level from ``truncation_bound`` up, and the
tests check the tight window's rank against the full boundary there,
which runs no sweep.  ``block_matrix`` assembles the induced block matrix
from the rows of ``MappingCone.induced_boundary``, so a test that patches
those rows patches the matrix too, and ``flatten`` packs a kernel element
into its columns.
"""

import random

from hfsurgery.f2 import F2Matrix
from hfsurgery.surgery import MappingCone, _sweep
from models import dense, sweep_table


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


def sweep_increments(cone) -> list[list[int]]:
    """The rank each HatB block adds in the chain route's sweep, block by
    block for each residue class of j mod p that owns one, in the order of
    the classes' first HatB blocks, replayed from the memo that
    ``cone_rank_chain`` left on the complex for this cone's window, decoded
    by ``models.sweep_table``.  The sweep keys block j on the Alexander
    classes of (j - p) // q and j // q, so the replay looks each one up.  A
    missing step raises ``KeyError``."""
    c, p, q = cone.complex, cone.slope.p, cone.slope.q
    table = sweep_table(c, "sweep")
    classes = []
    for first in cone.b_columns[:p]:
        carry, steps = (), []
        for j in range(first, cone.b_columns.stop, p):
            key = (c.alexander_class((j - p) // q), c.alexander_class(j // q))
            increment, carry = table[carry, key]
            steps.append(increment)
        classes.append(steps)
    return classes


def random_induced_boundary(seed):
    """A stand-in for ``MappingCone.induced_boundary``: random rows of one
    HatB block on the homology coordinates [HatA(key[0]) | HatA(key[1])],
    fixed by the seed and the key, their width and the column where the
    second block starts."""

    def rows(cone, key):
        h_width, v_width = (cone.complex.region_complex(s).homology.dim for s in key)
        rng = random.Random(f"{seed} {key}")
        count = rng.randint(0, h_width + v_width)
        data = tuple(rng.getrandbits(h_width + v_width) for _ in range(count))
        return data, h_width + v_width, h_width

    return rows


def sweep_rank(cone) -> int:
    """The chain route's rank, swept on the cone's own window: what
    ``cone_rank_chain`` computes on the tight one."""
    added = _sweep(cone, "sweep", cone.total_boundary)
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
    rows ``cone.induced_boundary`` gives for its key, the h part on HatA
    column j - p and the v part on HatA column j; both always lie in the
    window.  Column order changes neither its rank nor its kernel's
    dimension."""
    a_off, width = _hom_offsets(cone)
    p, q = cone.slope.p, cone.slope.q
    masks = []
    for j in cone.b_columns:
        rows, _, v_start = cone.induced_boundary(((j - p) // q, j // q))
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
