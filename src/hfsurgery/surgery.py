"""Surgery ranks from the truncated mapping cone, by two independent routes.

For a slope p/q the mapping cone has a HatA(floor(j/q)) column and a HatB
column for every integer j; column j maps to the HatB column j by v_hat
and to the HatB column j+p by h_hat.  A truncated cone keeps the HatA
columns of a window lo <= j <= hi and the HatB columns lo+p <= j <= hi.
The drop rule is membership in ``MappingCone.b_columns``: the v block of
column j exists exactly when j is in it and the h block exactly when
j + p is, so the columns j < lo+p lose v and the columns j > hi-p lose h
(a window of fewer than 2p columns has columns that lose both).

Both rank routes use the tight window of :func:`cone_window`.  With g the
genus, lo = -(g-1)q and hi = max(gq-1, lo+p-1), which keeps
max((2g-1)q, p) HatA columns.  It is exact by the truncation argument of
Ozsvath-Szabo (arXiv math/0504404), with both cuts placed at the genus.
v_hat(s) is a homology isomorphism for s >= g, so the columns j > hi with
their HatB columns form a subcomplex whose boundary is triangular with
quasi-isomorphisms on the diagonal, which makes it acyclic.  h_hat(s) is
one for s <= -g, so in the quotient the columns j < lo with the HatB
columns j < lo+p form an acyclic subcomplex in the same way; those HatB
columns survive the first cut because hi >= lo+p-1.  Dropping both leaves
the homology unchanged.  A symmetric level c keeps the window
[-qc+1, qc-1] instead, which contains the tight one and is exact for every
c >= :func:`truncation_bound`; passing a level is how the rank is checked
to stay put as the window grows.

Route one treats the whole cone as a single chain complex and computes
its homology from the chain-level boundary D, without assembling all of
it.  A HatA row of D (a target in some HatA block) has entries only in
its own block, because the boundary of a HatA element leaves the block
only through v_hat and h_hat, into HatB.  So the HatA rows of D are the
block-diagonal sum of the regions' own boundaries d.  Change the basis of
each HatA block so that its last vectors are a basis N of its cycles, the
kernel of d.  On the other basis vectors the block's rows have full
column rank, so row operations with them clear every HatB entry there
and change nothing else.  Hence, exactly over any field,

    rank D = sum over the HatA columns j of rank d(HatA(floor(j/q)))
             + rank of the HatB rows [h_hat N(j-p) | d(HatB) | v_hat N(j)].

The first term is each block's dimension less its number of cycles,
``MappingCone.a_boundary_rank``, and the second is what the sweep below
adds up, so the rank of the cone's homology is its dimension less twice
the sum of the two.  The cycle basis is taken once per region and each
map's product with it once per map.  A map's row vanishes on the cycles
exactly when it lies in the row space of d, so a HatB row is zero
exactly when it lies in the span of the HatA rows, and only the nonzero
ones are eliminated.  Their columns are laid out in chain order: for
each residue class of j mod p, the columns j of that class in ascending
order, each as its HatB block (when it exists) and then its HatA block,
as wide as its cycles.  Column j maps only to HatB blocks j and j + p,
both in the class of j, so the cone is block-diagonal over j mod p, and
a HatB row j has entries only in the HatA blocks j - p and j on either
side of it.

So each class is ranked by a sweep over its HatB blocks in chain order,
eliminating by lowest set bit.  A row is only ever reduced by pivots at
or above its lowest bit.  The rows of block j start at HatA block j - p
and every later row of the class starts further right, so once block j
arrives each pivot below the start of block j - p is dead: no later row
can reach it.  The live pivots are those supported on HatA block j - p.
They span the *carry*: the row space so far cut down to the vectors
supported on that block, since such a vector reduces to zero against the
pivots at or above its lowest bit.  Held as its reduced row-echelon form,
the carry depends only on that subspace, not on the rows that led to it.
The rank block j adds is rank [carry; rows of block j] less the carry's
dimension, and the next carry is the part of that row space with no bit
below HatA block j: the reduced rows whose pivot lies in block j.  Both
are functions of the carry and the key (floor((j - p) / q), floor(j / q))
that fixes block j's rows, so each step is memoized on the complex under
("sweep", carry, key), shared across classes, slopes and windows.  Only the
distinct steps are ever eliminated, and no step's matrix spans more than
three blocks.
Route one reads homology only through the genus, which fixes the window,
and never builds the cone's induced maps.

Route two counts kernel plus cokernel of the induced block matrix on
homology.  Over a field the two always agree, so route one continuously
validates the homology-level bookkeeping route two relies on.  Both start
from the same object: each region's cycle basis, ``RegionComplex.cycles``,
is taken once, and its homology quotients that same basis.  From there
the routes part: route one multiplies each map by the basis
(``on_cycles``), route two applies each map to the homology
representatives, so a fault in either product shows as a disagreement.

The block matrix has the cone's shape without the HatB blocks: its row
block j is [h_hat((j - p) // q)_* | v_hat(j // q)_*] on the homology of
HatA blocks j - p and j, so it too is block-diagonal over j mod p and
bidiagonal within each class, and the same sweep ranks it.
(:meth:`MappingCone.block_matrix` lays its columns out in plain column
order, a permutation that changes neither its rank nor its kernel's
dimension.)  Its carry is the row space so far cut down to HatA block
j - p in homology coordinates, and its steps are memoized under
("hsweep", carry, key), apart from the chain route's ("sweep", carry,
key).  Each memo miss is eliminated once by ``f2.rref``: the rank it
adds is the pivot count less the carry's size, and the next carry the
reduced rows with their pivot in the v block.  The chain route reads its
increment from an ``f2.rank`` call instead, the call the benchmark's
tracer counts as the cone elimination.  Route two never builds the block
matrix; :meth:`MappingCone.block_matrix` assembles the same per-key rows
for the tests, which check the routes and the kernel construction
against it.

A cone reads its window's HatA regions from one memo entry per range of s,
a dict shared by every cone on that range, so building a cone costs two
lookups however many regions it spans.

The closed form, the kernel construction and the monotonicity scan need
the image-containment hypothesis: :func:`hypothesis_verdicts` owns its one
memoized verdict and :func:`require_hypothesis` its one error.  The verdict
and t both read how the images of v_hat and h_hat meet in H(HatB), from the
one memo of :func:`_meet`.

Preconditions follow the policy stated in ``cfk``: every function here
reads a region, a chain map or the genus before it returns, so ``cfk``
raises for an invalid complex or a missing flip.  The one guard kept here
is the flip check in ``MappingCone``, because a cone reads its h-maps only
when the rows of a HatB block are built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

from . import f2
from .cfk import CfkComplex, HatA, HatB
from .f2 import F2Matrix


class SlopeError(ValueError):
    """Slopes must be coprime positive fractions p/q."""


class TruncationError(ValueError):
    """The requested truncation level is below the safe bound."""


class FormulaNotApplicableError(ValueError):
    """The image-containment hypothesis fails, so the closed form is not asserted."""


class NotApplicableError(ValueError):
    """The invariant is only defined when the ambient homology has rank one."""


class InternalInvariantError(RuntimeError):
    """A cancellation the containment hypothesis promises is missing; the
    hypothesis check lied."""


@dataclass(frozen=True)
class Slope:
    p: int
    q: int

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise SlopeError(f"slope {self.p}/{self.q} must have positive p and q")
        if math.gcd(self.p, self.q) != 1:
            raise SlopeError(f"slope {self.p}/{self.q} is not in lowest terms")

    @classmethod
    def parse(cls, text: str) -> "Slope":
        parts = text.split("/")
        if len(parts) == 1:
            parts.append("1")
        if len(parts) != 2:
            raise SlopeError(f"cannot parse slope {text!r}; expected P/Q")
        try:
            p, q = int(parts[0]), int(parts[1])
        except ValueError:
            raise SlopeError(f"cannot parse slope {text!r}; expected P/Q") from None
        return cls(p, q)

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


def coprime_slopes(pmax: int, qmax: int):
    """All slopes with 1 <= p <= pmax, 1 <= q <= qmax, sorted by (p, q)."""
    return [
        Slope(p, q)
        for p in range(1, pmax + 1)
        for q in range(1, qmax + 1)
        if math.gcd(p, q) == 1
    ]


def truncation_bound(c: CfkComplex, slope: Slope) -> int:
    """Smallest safe truncation level, ceil(genus + p/q + 1)."""
    return c.genus() + 1 + -(-slope.p // slope.q)


def cone_window(c: CfkComplex, slope: Slope, level: int | None = None) -> tuple[int, int]:
    """HatA column window (lo, hi) of the truncated cone.

    With no level, the tight window lo = -(g-1)q, hi = max(gq-1, lo+p-1);
    with a level c, the symmetric window [-qc+1, qc-1], refused below
    :func:`truncation_bound`.  The module docstring says why both are exact.
    """
    p, q = slope.p, slope.q
    if level is None:
        g = c.genus()
        lo = -(g - 1) * q
        return lo, max(g * q - 1, lo + p - 1)
    bound = truncation_bound(c, slope)
    if level < bound:
        raise TruncationError(
            f"truncation level {level} is below the safe bound {bound} for slope {slope}"
        )
    return -q * level + 1, q * level - 1


class MappingCone:
    """The truncated cone for one slope, with chain and homology views.

    Its HatA columns are the window :func:`cone_window` gives for
    ``level``: with ``level=None`` the tight window of the rank routes,
    with a level the symmetric window of that level, refused below
    :func:`truncation_bound`."""

    def __init__(self, complex_: CfkComplex, slope: Slope, level: int | None = None):
        # The window reads the genus, which validates the complex first.
        lo, hi = cone_window(complex_, slope, level)
        # The cone reads h-maps only when the rows of a HatB block are
        # built, so the flip is checked here, before any window region is
        # built.
        complex_.require_flip()
        self.complex = complex_
        self.slope = slope
        # Ranges: ``j in self.b_columns`` is an O(1) membership test.
        self.a_columns = range(lo, hi + 1)
        self.b_columns = range(lo + slope.p, hi + 1)
        # Column j is a copy of HatA(j // q): one region per s, not per
        # column, and the window's regions are one memo entry, read only,
        # shared by every cone on the same range of s.
        s_lo, s_hi = lo // slope.q, hi // slope.q
        self._a_regions = complex_.cached(
            ("a_regions", s_lo, s_hi),
            lambda: {s: complex_.region_complex(HatA(s)) for s in range(s_lo, s_hi + 1)},
        )
        self._b_region = complex_.region_complex(HatB())

    # -- chain-level view ---------------------------------------------------

    def _per_column(self, term) -> int:
        """Sum of ``term(region)`` over the HatA columns: region s is copied
        by the q columns j with j // q = s, less the columns the window
        cuts off its first and last regions."""
        q = self.slope.q
        lo, hi = self.a_columns[0], self.a_columns[-1]
        regions = self._a_regions
        cut = lo % q * term(regions[lo // q]) + (q - 1 - hi % q) * term(regions[hi // q])
        return q * sum(map(term, regions.values())) - cut

    @property
    def total_dim(self) -> int:
        """The cone's dimension, each HatA block at its full width."""
        return self._per_column(lambda region: region.dim) + self._b_region.dim * len(self.b_columns)

    @property
    def a_boundary_rank(self) -> int:
        """Rank of the boundary's HatA rows: the boundary rank of each
        column's region, its dimension less its cycles, summed over the
        columns."""
        return self._per_column(lambda region: region.dim - len(region.cycles))

    def total_boundary(self, key: tuple[int, int]) -> tuple[F2Matrix, int]:
        """The nonzero HatB rows of one block of the cone's boundary, on the
        HatA cycle bases, and the column where their v block starts.

        A HatB row block j with key = ((j - p) // q, j // q) is
        ``[h_hat(key[0]) | HatB boundary | v_hat(key[1])]``, each map on the
        cycle basis of its source region: the HatA block j - p, the HatB
        block j and the HatA block j, side by side in chain order.  Rows
        that lie in the span of the HatA rows are zero here and dropped.
        The rows depend on the key alone, and the chain route's sweep reads
        them only on a memo miss, so they are built on every call."""
        h_map = self.complex.h_hat(key[0]).on_cycles
        v_map = self.complex.v_hat(key[1]).on_cycles
        b_shift = h_map.cols
        v_start = b_shift + self._b_region.dim
        rows = [
            row
            for h, d, v in zip(h_map.data, self._b_region.boundary.data, v_map.data)
            if (row := h | (d << b_shift) | (v << v_start))
        ]
        return F2Matrix(v_start + v_map.cols, tuple(rows)), v_start

    # -- homology-level view --------------------------------------------------

    def induced_boundary(self, key: tuple[int, int]) -> tuple[F2Matrix, int]:
        """One HatB row block of the induced block matrix, and the column
        where its v block starts.

        Block j with key = ((j - p) // q, j // q) is
        ``[h_hat(key[0])_* | v_hat(key[1])_*]`` on the homology bases: the
        HatA block j - p, then the HatA block j.  Like
        :meth:`total_boundary` it depends on the key alone and is built on
        every call."""
        h_ind = self.complex.h_hat(key[0]).induced
        return h_ind.hstack(self.complex.v_hat(key[1]).induced), h_ind.cols

    @cached_property
    def _hom_offsets(self) -> dict[int, int]:
        """The HatA block offset of each column, in column order, each block
        as wide as its homology.  The block matrix's columns are HatA alone;
        their order leaves its rank unchanged, and flatten reads the same
        offsets."""
        q = self.slope.q
        a_off, pos = {}, 0
        for j in self.a_columns:
            a_off[j] = pos
            pos += self._a_regions[j // q].homology.dim
        return a_off

    @property
    def a_homology_dim(self) -> int:
        return self._per_column(lambda region: region.homology.dim)

    @property
    def b_homology_dim(self) -> int:
        return self._b_region.homology.dim * len(self.b_columns)

    @cached_property
    def _block_matrix(self) -> F2Matrix:
        a_off = self._hom_offsets
        q, p = self.slope.q, self.slope.p
        masks = []
        for j in self.b_columns:
            rows, v_start = self.induced_boundary(((j - p) // q, j // q))
            h_mask = (1 << v_start) - 1
            masks += [
                ((row & h_mask) << a_off[j - p]) | ((row >> v_start) << a_off[j])
                for row in rows.data
            ]
        return F2Matrix(self.a_homology_dim, tuple(masks))

    def block_matrix(self) -> F2Matrix:
        """Induced block matrix on homology, from the rows of
        :meth:`induced_boundary` placed at the offsets of their columns.

        HatB row block j receives the induced v_hat from column j and the
        induced h_hat from column j - p; both source columns always exist
        inside the truncation window.  The rank routes never build it.
        """
        return self._block_matrix

    def flatten(self, element: dict[int, int]) -> int:
        """Pack a column-indexed homology element into block coordinates."""
        a_off = self._hom_offsets
        out = 0
        for j, coeff in element.items():
            out |= coeff << a_off[j]
        return out

    def block_apply(self, element: dict[int, int]) -> int:
        return self.block_matrix().apply(self.flatten(element))


def build_cone(c: CfkComplex, slope: Slope, level: int | None = None) -> MappingCone:
    """The cone on the symmetric window of ``level``; ``level=None`` means
    the safe bound :func:`truncation_bound`, the width
    :func:`kernel_basis_construction` walks on."""
    return MappingCone(c, slope, truncation_bound(c, slope) if level is None else level)


def _sweep(cone: MappingCone, tag: str, rows, rank) -> int:
    """The rank of a route's HatB rows: the sum of what each HatB block
    adds, each residue class of j mod p swept in chain order, as the module
    docstring explains.

    ``rows(key)`` gives one block's rows and the column where their v block
    starts, and ``rank(m, pivots)`` the rank of m = [carry; rows] with the
    pivots of its rref.  Each (carry, key) step is memoized on the complex
    under ``(tag, carry, key)``, so only the distinct steps are eliminated."""
    c, p, q = cone.complex, cone.slope.p, cone.slope.q

    def step(carry: tuple[int, ...], key: tuple[int, int]) -> tuple[int, tuple[int, ...]]:
        block, v_start = rows(key)
        m = F2Matrix(block.cols, carry + block.data)
        reduced, pivots = f2.rref(m)
        # The next carry: the reduced rows with no bit below the v block.
        carry_out = tuple(row >> v_start for row, pivot in zip(reduced, pivots) if pivot >= v_start)
        return rank(m, pivots) - len(carry), carry_out

    added = 0
    hi = cone.a_columns[-1]
    for first in cone.a_columns[:p]:
        carry = ()
        for j in range(first + p, hi + 1, p):
            key = ((j - p) // q, j // q)
            increment, carry = c.cached((tag, carry, key), lambda: step(carry, key))
            added += increment
    return added


def cone_rank_chain(c: CfkComplex, slope: Slope, level: int | None = None) -> int:
    """Total homology rank of the cone, from the chain-level boundary only.

    The cone is on the tight window, or on the symmetric window of
    ``level`` when one is given.  Each residue class of j mod p is swept
    in chain order, one memoized ("sweep", carry, key) step per HatB block,
    as the module docstring explains."""

    def compute() -> int:
        cone = MappingCone(c, slope, level)
        # The increment is read from an f2.rank call, made while this route
        # runs, not off the pivots: perfbench's tracer counts exactly an
        # f2.rank call directly under the chain route as the cone
        # elimination (f2.elim_cone).
        added = _sweep(cone, "sweep", cone.total_boundary, lambda m, pivots: f2.rank(m))
        # The dimension less twice the boundary rank: the HatA rows' rank
        # plus what the sweep adds.
        return cone.total_dim - 2 * (cone.a_boundary_rank + added)

    return c.cached(("cone_rank_chain", slope.p, slope.q, level), compute)


def cone_rank_homological(c: CfkComplex, slope: Slope) -> int:
    """Kernel plus cokernel of the induced block matrix on homology, on the
    tight window.  Its rank is swept class by class like the chain route's,
    one memoized ("hsweep", carry, key) step per HatB block, from the rows
    of :meth:`MappingCone.induced_boundary`; the block matrix itself is
    never built."""

    def compute() -> int:
        cone = MappingCone(c, slope)
        r = _sweep(cone, "hsweep", cone.induced_boundary, lambda m, pivots: len(pivots))
        return (cone.a_homology_dim - r) + (cone.b_homology_dim - r)

    return c.cached(("cone_rank_homological", slope.p, slope.q), compute)


def _meet(c: CfkComplex, a: int, b: int) -> int:
    """dim(im v_hat(a) meet im h_hat(b)) on homology, memoized per pair.

    v_hat(a) is onto for a >= genus and h_hat(b) for b <= -genus, so the
    clamped pair a <= genus, b >= -genus has the same meet and reads no map
    beyond the genus.  The meet is rank v + rank h - rank [v | h], as in
    ``f2.image_intersection_rank``, but with the ranks the maps cache.
    """
    g = c.genus()
    a, b = min(a, g), max(b, -g)

    def compute() -> int:
        v, h = c.v_hat(a), c.h_hat(b)
        return v.induced_rank() + h.induced_rank() - f2.rank(v.induced.hstack(h.induced))

    return c.cached(("meet", a, b), compute)


def t_invariant(c: CfkComplex, slope: Slope) -> int:
    """Sum over j = 0..p-1 of dim(im v_hat(j/q) meet im h_hat((j-p)/q)) in
    the homology of HatB."""
    q, p = slope.q, slope.p
    return sum(_meet(c, j // q, (j - p) // q) for j in range(p))


@dataclass(frozen=True)
class HypothesisReport:
    """Image-containment verdicts per s, and overall; shared, so read only."""

    h_in_v: dict[int, bool]
    v_in_h: dict[int, bool]

    @property
    def overall(self) -> bool:
        return all(self.h_in_v.values()) and all(self.v_in_h.values())

    def to_json_dict(self) -> dict:
        return {
            "h_image_in_v_image": {str(s): ok for s, ok in sorted(self.h_in_v.items())},
            "v_image_in_h_image": {str(s): ok for s, ok in sorted(self.v_in_h.items())},
            "overall": self.overall,
        }


def hypothesis_verdicts(c: CfkComplex) -> HypothesisReport:
    """Per-s image containments: im h_hat(s) inside im v_hat(s) for
    0 <= s <= genus, and im v_hat(s) inside im h_hat(s) for -genus <= s <= 0.

    Outside this window the containments are forced by the genus
    finiteness of the maps.  im h lies in im v exactly when the meet of the
    two images has the rank of h, and im v in im h exactly when it has the
    rank of v.
    """

    def compute() -> HypothesisReport:
        g = c.genus()
        return HypothesisReport(
            {s: _meet(c, s, s) == c.h_hat(s).induced_rank() for s in range(g + 1)},
            {s: _meet(c, s, s) == c.v_hat(s).induced_rank() for s in range(-g, 1)},
        )

    return c.cached("hypothesis", compute)


def hypothesis_holds(c: CfkComplex) -> bool:
    return hypothesis_verdicts(c).overall


def require_hypothesis(c: CfkComplex) -> None:
    if not hypothesis_holds(c):
        raise FormulaNotApplicableError(
            f"complex {c.name!r} fails the image-containment hypothesis; "
            "the closed-form rank is not asserted (the cone oracles still apply)"
        )


def _v_sum(c: CfkComplex, slope: Slope, term) -> int:
    """q*term(v_hat(0)) + 2q * sum over s = 1..g-1 of term(v_hat(s))."""
    q = slope.q
    return q * term(c.v_hat(0)) + 2 * q * sum(term(c.v_hat(s)) for s in range(1, c.genus()))


def rank_formula(c: CfkComplex, slope: Slope) -> int:
    """Closed-form surgery rank.

        q*(ker v0 + b - rk v0)
      + 2q * sum over s = 1..g-1 of (ker vs + b - rk vs)
      + 2*t - p*b

    where ker/rk are kernel dimension and rank of the induced v_hat(s),
    b is the homology rank of HatB, and t is t_invariant.  Each term is
    read as dim H(HatA(s)) + b - 2 rk vs, one rank per s.  Only asserted
    when the image-containment hypothesis holds.
    """
    require_hypothesis(c)
    b = c.b_rank()
    total = _v_sum(c, slope, lambda v: v.source.homology.dim + b - 2 * v.induced_rank())
    return total + 2 * t_invariant(c, slope) - slope.p * b


def nu_surrogate(c: CfkComplex) -> int:
    """Least s >= 0 with v_hat(s) surjective on homology (b_rank 1 only)."""
    if c.b_rank() != 1:
        raise NotApplicableError(
            f"nu needs a complex with b_rank 1, got {c.b_rank()}"
        )
    s = 0
    while c.v_hat(s).induced_rank() < 1:
        s += 1
    return s


def kernel_rank(c: CfkComplex, slope: Slope) -> int:
    """Dimension of the kernel of the induced block matrix, in closed form:
    q*ker(v0) + 2q*sum(s=1..g-1) ker(vs) + t."""
    require_hypothesis(c)
    return _v_sum(c, slope, lambda v: v.induced_kernel_dim()) + t_invariant(c, slope)


def kernel_basis_construction(c: CfkComplex, slope: Slope) -> list[dict[int, int]]:
    """Explicit spanning set of the kernel of the induced block matrix.

    Elements are column-indexed homology classes (coefficient masks with
    respect to the HatA homology bases).  Kernel classes of v_hat on
    nonnegative columns are completed by rightward cancellation tails,
    kernel classes of h_hat on negative columns by leftward tails, and for
    each residue column 0 <= j <= p-1 one element per dimension of
    im v_hat(j/q) meet im h_hat((j-p)/q) is built from a matched pair and
    cancelled in both directions.

    The walks run on :func:`build_cone`'s symmetric window, not the tight
    window of the rank routes: they need the columns -p..p-1 and must not be
    cut off early.  On figure_eight at 1/1 the tight window {0} widened to
    {-1, 0} still stops the matched element's rightward walk at column 0.
    Kernels are seeded on -(g-1)q <= j <= gq-1 only: beyond it v_hat and
    h_hat are isomorphisms, so no region there is built for a seed.
    """
    require_hypothesis(c)
    q, p = slope.q, slope.p
    g = c.genus()
    lo, hi = cone_window(c, slope, truncation_bound(c, slope))

    def ind_v(j: int) -> F2Matrix:
        return c.v_hat(j // q).induced

    def ind_h(j: int) -> F2Matrix:
        return c.h_hat(j // q).induced

    def extend(element: dict[int, int], j: int, coeff: int, step: int) -> None:
        """Cancel the image of ``coeff`` at column j, column by column:
        rightward (step p) along h_hat, solved against v_hat, or leftward
        (step -p) along v_hat, solved against h_hat.  The walk stops where
        the outgoing block, into HatB column j + row, is dropped, so every
        column it reaches lies in the window."""
        if step > 0:
            row, out_ind, back_ind, way = p, ind_h, ind_v, "rightward"
        else:
            row, out_ind, back_ind, way = 0, ind_v, ind_h, "leftward"
        while lo + p <= j + row <= hi:
            target = out_ind(j).apply(coeff)
            if target == 0:
                return
            j += step
            coeff = f2.solve(back_ind(j), target)
            if coeff is None:
                raise InternalInvariantError(
                    f"no {way} cancellation at column {j}; containment check was wrong"
                )
            element[j] = element.get(j, 0) ^ coeff

    basis: list[dict[int, int]] = []
    for j in range(max(lo, -(g - 1) * q), min(hi, g * q - 1) + 1):
        ind, step = (ind_v, p) if j >= 0 else (ind_h, -p)
        for vec in f2.kernel_basis(ind(j)):
            element = {j: vec}
            extend(element, j, vec, step)
            basis.append(element)
    for j in range(p):
        v_ind = ind_v(j)
        h_ind = ind_h(j - p)
        for w in f2.image_intersection_basis(v_ind, h_ind):
            y = f2.solve(v_ind, w)
            z = f2.solve(h_ind, w)
            if y is None or z is None:
                raise InternalInvariantError(
                    f"intersection class at column {j} has no matched pair"
                )
            element = {j: y, j - p: z}
            extend(element, j, y, p)
            extend(element, j - p, z, -p)
            basis.append(element)
    return basis


@dataclass
class RankReport:
    """Everything one surgery computation produced, ready to serialize."""

    name: str
    slope: Slope
    oracle_rank: int
    formula_rank: int | None
    t_value: int
    nu: int | None
    hypothesis_ok: bool
    b: int
    genus: int
    # The same caveat for every report, serialized as the JSON "note" key.
    note: ClassVar[str] = "t computed from the supplied flip involution"

    # The TSV columns are the JSON keys of the same names, in the same order.
    TSV_COLUMNS = ("name", "p", "q", "oracle", "formula", "t", "nu", "hypothesis", "b", "genus")
    TSV_HEADER = "\t".join(TSV_COLUMNS)

    @property
    def consistent(self) -> bool:
        return self.formula_rank is None or self.formula_rank == self.oracle_rank

    def tsv_row(self) -> str:
        data = self.to_json_dict()
        data["hypothesis"] = "pass" if self.hypothesis_ok else "fail"
        return "\t".join("-" if data[k] is None else str(data[k]) for k in self.TSV_COLUMNS)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "p": self.slope.p,
            "q": self.slope.q,
            "oracle": self.oracle_rank,
            "formula": self.formula_rank,
            "t": self.t_value,
            "nu": self.nu,
            "hypothesis": self.hypothesis_ok,
            "b": self.b,
            "genus": self.genus,
            "note": self.note,
        }


def compute_rank_report(c: CfkComplex, slope: Slope) -> RankReport:
    """Run both routes plus the auxiliary invariants for one slope."""
    oracle = cone_rank_chain(c, slope)
    hyp = hypothesis_holds(c)
    formula = rank_formula(c, slope) if hyp else None
    b = c.b_rank()
    return RankReport(
        name=c.name,
        slope=slope,
        oracle_rank=oracle,
        formula_rank=formula,
        t_value=t_invariant(c, slope),
        nu=nu_surrogate(c) if b == 1 else None,
        hypothesis_ok=hyp,
        b=b,
        genus=c.genus(),
    )
