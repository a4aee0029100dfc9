"""Surgery ranks from the truncated mapping cone, by two independent routes.

For a slope p/q the mapping cone has a HatA(floor(j/q)) column and a HatB
column for every integer j; column j maps to the HatB column j by v_hat
and to the HatB column j+p by h_hat.  A truncated cone keeps the HatA
columns of a window lo <= j <= hi and the HatB columns lo+p <= j <= hi.
The drop rule is membership in ``MappingCone.b_columns``: the v block of
column j exists exactly when j is in it and the h block exactly when
j + p is, so the columns j < lo+p lose v and the columns j > hi-p lose h
(a window of fewer than 2p columns has columns that lose both).

Both rank routes use the tight window, which ``MappingCone`` computes.
With g the genus, lo = -(g-1)q and hi = max(gq-1, lo+p-1), which keeps
max((2g-1)q, p) HatA columns.  It is exact by the truncation argument of
Ozsvath-Szabo (arXiv math/0504404), with both cuts placed at the genus.
v_hat(s) is a homology isomorphism for s >= g, so the columns j > hi with
their HatB columns form a subcomplex whose boundary is triangular with
quasi-isomorphisms on the diagonal, which makes it acyclic.  h_hat(s) is
one for s <= -g, so in the quotient the columns j < lo with the HatB
columns j < lo+p form an acyclic subcomplex in the same way; those HatB
columns survive the first cut because hi >= lo+p-1.  Dropping both leaves
the homology unchanged.  The argument's own symmetric window
[-qc+1, qc-1], exact for every level c >= ceil(g + p/q + 1), contains the
tight one; the tests check the tight window's rank against the full
boundary of the symmetric window at several such levels.

Route one treats the whole cone as a single chain complex and computes
its homology from the chain-level boundary D, without assembling all of
it.  A HatA row of D (a target in some HatA block) has entries only in
its own block, because the boundary of a HatA element leaves the block
only through v_hat and h_hat, into HatB.  So the HatA rows of D are the
block-diagonal sum of the regions' own boundaries d.  Change the basis of
each HatA block so that its last vectors are a basis N of its cycles, the
kernel of d.  On the other basis vectors the block's rows have full
column rank, so row operations with them clear every HatB entry there
and change nothing else.  That leaves, for each HatB block j, the rows
[h_hat N(j-p) | d_B | v_hat N(j)], d_B being HatB's own boundary on the
columns of HatB block j, which no other row meets.  So d_B splits off
the same way from the other side.  Change the basis of the rows of block
j so that its last vectors are a basis Y of HatB's cocycles, the row
vectors y with y d_B = 0.  The other rows have full row rank on the
columns of block j, so column operations with those columns clear the
rest of them and change nothing else, and the rows of Y are zero there.
Hence, exactly over any field,

    rank D = sum over the HatA columns j of rank d(HatA(floor(j/q)))
             + (number of HatB columns) * rank d_B
             + rank of the rows y [h_hat N(j-p) | v_hat N(j)], y in Y.

A cocycle that is a coboundary, y = z d_B, gives the zero row:
d_B f = f d for f = v_hat or h_hat, so z d_B f N = z f d N = 0.  Y is
spanned by the coboundaries and any b cocycles independent modulo them,
one per class of HatB's cohomology, so those b cocycles alone give the
same row space, and each HatB block has at most b nonzero rows.

The first two terms are ``MappingCone.boundary_rank``: each block's
dimension less its number of cycles, and rank d_B, read once per complex
by ``f2.rank`` and checked against b, HatB's number of cocycle classes,
dim - 2 rank d_B.  The third is what the sweep below adds up, so the
rank of the cone's homology is its dimension less twice the sum.  The
cycle basis is taken once per region, the b cocycle classes once, on
HatB, and each map's rows between the two once per map.  Only the
nonzero rows are eliminated.  Their columns are laid out in chain order:
for each residue class of j mod p, the HatA columns j of that class in
ascending order, each as wide as its cycles.  Column j maps only to HatB
blocks j and j + p, both in the class of j, so the cone is
block-diagonal over j mod p, and the rows of HatB block j have entries
only in the HatA blocks j - p and j on either side of it.

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
are functions of the carry and of the maps h_hat((j - p) // q) and
v_hat(j // q) that fix block j's rows.  ``cfk`` builds those once per
Alexander class of s, or once per mirror pair (see below), so a step is
fixed by the carry and the classes of the two floors, and the sweep is an
automaton with one transition table per complex and route, shared across
residue classes, slopes and windows.  Its states are the carries,
numbered as they are first met, the empty carry being 0.  Each class has
a number, ``CfkComplex.class_number``, the count of cuts at or below it,
read from one table per range of floors; there are k classes, one more
than the cuts.  The transition from state n on the classes numbered h and
v is keyed by the one int n k^2 + h k + v and holds the rank the block
adds and the next state.  Block j's h floor is the v floor of the block
before it in its residue class, so a block costs one floor division and
one probe of the table, and builds no tuple.  Only the distinct
transitions are ever eliminated, so a run of blocks in the same two
classes costs one elimination per distinct carry, and no step's matrix
spans more than three blocks.
Route one reads no homology and no split.  The genus, which fixes the
window, tests each v_hat(s) by its rows between HatB's cocycle classes and
the cycles of HatA(s), the rows the sweep reads (``cfk`` has the rule),
on the whole complex, and the route never builds a homology basis or the
cone's induced maps.

Route two counts kernel plus cokernel of the induced block matrix on
homology.  Over a field the two always agree, so route one continuously
validates the homology-level bookkeeping route two relies on.  Both start
from the same object: one elimination of each region's boundary, column
by column, gives its cycle basis, ``RegionComplex.cycles``, and the
boundary space that its homology quotients that same basis by.  From
there the routes part.  ``cfk`` holds each map as a generator index map,
each element of HatA(s) going to one element of HatB or to zero, so
neither route multiplies a map by a matrix.  Route one reads each map
between HatB's b cocycle classes and the source's cycle basis
(``on_cocycles``): y is moved through the index to its preimage, and
bit k of its row is the parity of that preimage on cycle k, so no
region keeps its cycles as rows.  Route two moves the bits of each
homology representative through the index (``induced``).  A fault
in either read shows as a disagreement, and the tests check both against
the dense element-by-element matrices of a reference model.

A class s below its mirror class m, the class of -s, is read as m with v
and h swapped: ``cfk`` serves HatA(s) as the region of HatA(m), v_hat(s) as
h_hat(m) and h_hat(s) as v_hat(m), which are the maps of s composed with
the inverse of the chain isomorphism Phi_s = U^s o flip (the ``cfk``
docstring has the proof).  So a cone column of class s is the column the
cone would have had, moved by Phi_s, and no rank changes.  A complex with
a flip thus builds the regions and maps of the middle class, the run that
contains 0, and of the classes above it alone.  The mirror is looked up
only where a region or map is a memo miss, never on a hit.

The block matrix has the cone's shape without the HatB blocks: its row
block j is [h_hat((j - p) // q)_* | v_hat(j // q)_*] on the homology of
HatA blocks j - p and j, so it too is block-diagonal over j mod p and
bidiagonal within each class, and the same sweep ranks it.  Its carry
is the row space so far cut down to HatA block j - p in homology
coordinates, and its transitions have a table of their own, under
"hsweep", apart from the chain route's, under "sweep".  In both routes a
transition missing from the table is eliminated once, by ``f2.rref`` cut
at the v block: the rank it adds is the pivot count less the carry's
size, and the next carry the reduced rows with their pivot in the v
block, the only rows the cut back-substitutes, numbered if it is new; the
rows with a pivot left of it reach no later block.  The tier-1 tests
decode every transition and rebuild it from the full form.  No
step calls ``f2.rank``: past the genus, the chain route's one such call
is rank d_B, once per complex, checked against b.  Route two never
builds the block matrix; the tests assemble it from the same per-key
rows and check the routes, and the kernel construction in
``tests/models.py``, against it.

A cone is its class runs.  Column j copies HatA(j // q), which ``cfk``
serves once per Alexander class, and the runs of a class from lo // q to
hi // q, ``CfkComplex.class_runs``, start at the same floors for every
hi // q of one class; only the last run's length differs.  So a cone keeps
its ranges and its run-table key, (lo // q, the class of hi // q), and
reads each sum over its HatA columns, the HatA boundary ranks of route one
and the homology dimensions of route two, from one memo entry per key:
(inner, last, s_last), inner being the sum over every run but the last of
its length in floors times the term of its region, last the term of the
last run's region and s_last that run's start.  lo = -(g-1)q is a
multiple of q, so every floor before the last run holds q columns and the
sum is q * inner + (hi + 1 - s_last * q) * last.  Only the first cone of
a key reads regions, one per run, each through ``region_complex``, which
memoizes it once per class; a region may serve more than one run: HatB
the two top classes, and a class's region each class below its mirror
that it serves.  The dimension reads none: every region holds one element
per generator.  The sweep visits only the residue classes that own a HatB
block, so however large p is and however far apart the Alexander
gradings are, a cone reads at most one region per class run and sweeps
at most (2g-1)q HatB blocks.  For p >= (2g-1)q the window has no HatB
column at all, and the rank is the large-surgery sum of dim H(HatA(j // q))
over the window.

The cone is additive over flip-invariant direct summands.  If the complex
is P + Z as a bifiltered complex and the flip maps each summand to itself,
then HatA(s), HatB, v_hat(s) and h_hat(s) all split, and so do the cone on
any window, its induced block matrix and t.
``cfk`` finds the essential summand P, the components with b > 0, and
keeps of the rest Z only the sum
z = sum over |s| < g of dim H(HatA(s)) of Z, g being the whole genus.  The
b = 0 rule: on Z, H(HatB) = 0, so v_hat(s) and h_hat(s) vanish on
homology and Z's block matrix is zero.  Every HatA class of Z is then
kernel and there is no cokernel, so Z's part of the cone's homology is the
sum of H(HatA(j // q)) over the window's columns j.  H(HatA(s)) of Z is 0
for |s| >= g_Z, Z's genus, since v_hat(s) is an isomorphism onto
H(HatB) = 0 for s >= g_Z and h_hat(s) one for s <= -g_Z.  The tight
window from lo = -(g-1)q, with g >= g_Z, holds exactly q columns of every
floor -(g-1)..g-1 and adds only floors at or above g for larger p, so Z
adds q * z at every slope p/q.  Hence route two, the closed form and
:func:`kernel_rank` read P and add q * z, while t and nu read P
alone; none of them builds a region's homology or a map of the
whole complex when it splits.  b is the count of HatB's cocycle classes
on the whole complex, which builds no split; only route two reads its
own, off P's homology basis.  Route one reads neither the split nor any
homology: it ranks the whole complex's cone, on a window whose genus is
read off the whole complex's cocycle rows too, so every query checks the
b = 0 rule, and route two's homology, against an independent
computation.

The closed form, the kernel rank and t rest on the image-containment
hypothesis of the paper (arXiv 2401.10395): im h_hat(s)_* inside
im v_hat(s)_* for s >= 0, and im v_hat(s)_* inside im h_hat(s)_* for
s <= 0.  Here it is a theorem, because the flip inside h_hat is the
conjugation symmetry that ``cfk`` validates.  Proof, in two lemmas.
First, iota_s: HatA(s) -> HatA(s+1), which keeps the element of x when
A(x) <= s and sends the rest to 0, is a chain map.  A kept x is the
element x in both regions.  A term x -> U^k y stays in HatA(s+1) only
with k = 0, since A(y) - k <= A(x) <= s, and then A(y) <= s, so it stays
in HatA(s) too, to a kept element; in HatA(s) it may also stay with
k >= 1, but only to the element of a y with A(y) = s + k > s, which
iota_s drops.  A term from the element of x, A(x) > s, stays in HatA(s)
only to the element of a y with A(y) > s, dropped too.  And
v_hat(s) = v_hat(s+1) o iota_s, as both keep x exactly when A(x) <= s, so
im v_hat(s)_* grows with s.  Second, h_hat(-s) o Phi_s = v_hat(s)
exactly, Phi_s = U^s o flip being the chain isomorphism
HatA(s) -> HatA(-s) of the ``cfk`` mirror paragraph: element i goes to
flip[i] and on to flip[flip[i]] = i when A(flip(x_i)) = -A(x_i) >= -s.
So im h_hat(s)_* = im v_hat(-s)_*, which lies in im v_hat(s)_* for
s >= 0; the mirror containment holds for s <= 0; and, the images being
nested, dim(im v_hat(a)_* meet im h_hat(b)_*) is rank v_hat(min(a, -b))_*
for every a and b.  So :func:`t_invariant` is a sum by parts of ranks of
v_hat, one per Alexander cut below its bound, and the report of
:func:`hypothesis_verdicts` passes every s and holds only the genus.  A
flip map apart from the conjugation would make the containment a real
condition again.

Preconditions follow the policy stated in ``cfk``: every function here
reads a region, a chain map or the genus before it returns, so ``cfk``
raises for an invalid complex or a missing flip.  The guards kept here
are the flip checks of ``MappingCone``, which reads its h-maps only when
the rows of a HatB block are built, and of :func:`t_invariant` and
:func:`hypothesis_verdicts`, which read none.  The slope limits are checked
where no region is built yet: :func:`require_sweep` for one cone and
:func:`require_grid_sweep` for a scan's grid.  ``MappingCone`` makes the
first check, and route two makes it on the whole complex before it reads
the essential summand, whose search reads HatB, so both routes refuse the
same slopes.
"""

from __future__ import annotations

import math

from . import f2
from .cfk import CfkComplex, memoized
from .f2 import F2Matrix
from .records import Frozen, Record, setters


class SlopeError(ValueError):
    """Slopes must be coprime positive fractions p/q, the sweeps of a cone,
    or of a grid's cones, must stay within :data:`MAX_HAT_B_BLOCKS` HatB
    blocks, and a grid within :data:`MAX_GRID_CELLS` cells."""


class NotApplicableError(ValueError):
    """The invariant is only defined when the ambient homology has rank one."""


class Slope(Frozen):
    __slots__ = __match_args__ = ("p", "q")

    def __init__(self, p: int, q: int):
        if p < 1 or q < 1:
            raise SlopeError(f"slope {p}/{q} must have positive p and q")
        if math.gcd(p, q) != 1:
            raise SlopeError(f"slope {p}/{q} is not in lowest terms")
        _set_p(self, p)
        _set_q(self, q)

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


_set_p, _set_q = setters(Slope)


def coprime_slopes(pmax: int, qmax: int):
    """All slopes with 1 <= p <= pmax, 1 <= q <= qmax, sorted by (p, q)."""
    return [
        Slope(p, q)
        for p in range(1, pmax + 1)
        for q in range(1, qmax + 1)
        if math.gcd(p, q) == 1
    ]


# The most HatB blocks a cone may sweep.  The sweep costs one probe of its
# transition table per block, under 2 s for this many: ``hfsurgery rank``
# on t25 at 1/3333333, 9,999,998 blocks, took 1.2-1.3 s through
# ``cli.main`` in one process on a shared 2-core Xeon with Python 3.11.7
# (2.4 s when each block built a tuple key).
MAX_HAT_B_BLOCKS = 10**7

# The most cells, pmax * qmax, coprime or not, a scan's grid may hold.  A
# scan builds one report per slope whether or not its cones sweep any HatB
# block: ``hfsurgery scan unknot`` took 1.3 s for 10**5 cells and 13.6 s
# for 10**6 in one process on a 2-core Xeon with Python 3.11.7.
MAX_GRID_CELLS = 10**5


def require_sweep(c: CfkComplex, slope: Slope) -> None:
    """Refuse with :class:`SlopeError`, before any region is built, a slope
    whose cone on c may sweep more than :data:`MAX_HAT_B_BLOCKS` HatB blocks.

    The window holds (2g - 1)q - p HatB blocks, or none, and the genus g is
    at most the top grading, which the cuts give without building a region;
    reading them validates the complex."""
    if (blocks := (2 * c.top - 1) * slope.q - slope.p) > MAX_HAT_B_BLOCKS:
        raise SlopeError(f"slope {slope} may sweep {blocks} HatB blocks, over the limit {MAX_HAT_B_BLOCKS}")


def require_grid_sweep(c: CfkComplex, pmax: int, qmax: int) -> None:
    """Refuse with :class:`SlopeError`, before any region is built, a grid
    of slopes p/q, p <= pmax and q <= qmax, whose cones may sweep more
    than :data:`MAX_HAT_B_BLOCKS` HatB blocks in all, or whose grid holds
    more than :data:`MAX_GRID_CELLS` cells.

    A cone sweeps at most max(0, aq - p) blocks, a = 2 top - 1, as
    :func:`require_sweep` says, so the grid at most their sum over every p
    and q, coprime or not, found with no loop.  For one q, with m = aq and
    k = min(pmax, m), the sum over p is km - k(k + 1)/2: (m^2 - m)/2 for
    the q <= n = pmax // a, where k = m, and pmax m - pmax(pmax + 1)/2
    above them, and each form sums over q by the sums of q and q^2."""
    a = 2 * c.top - 1  # reading the top grading validates
    blocks = 0
    if a > 0:
        n = min(qmax, pmax // a)
        blocks = (a * a * n * (n + 1) * (2 * n + 1) // 6 - a * n * (n + 1) // 2) // 2
        blocks += pmax * a * (qmax * (qmax + 1) - n * (n + 1)) // 2 - (qmax - n) * (pmax * (pmax + 1) // 2)
    if blocks > MAX_HAT_B_BLOCKS:
        raise SlopeError(
            f"slopes p/q with p <= {pmax}, q <= {qmax} may sweep {blocks} HatB blocks, "
            f"over the limit {MAX_HAT_B_BLOCKS}"
        )
    if (cells := pmax * qmax) > MAX_GRID_CELLS:
        raise SlopeError(
            f"slopes p/q with p <= {pmax}, q <= {qmax} fill {cells} grid cells, over the limit {MAX_GRID_CELLS}"
        )


class MappingCone:
    """The truncated cone for one slope on the tight window, with chain and
    homology views.  The module docstring says why the window is exact.

    The slope is checked by :func:`require_sweep` before any region is
    built."""

    def __init__(self, complex_: CfkComplex, slope: Slope):
        require_sweep(complex_, slope)
        g, p, q = complex_.genus(), slope.p, slope.q
        lo = -(g - 1) * q
        hi = max(g * q - 1, lo + p - 1)
        # The cone reads h-maps only when the rows of a HatB block are
        # built, so the flip is checked here, when the cone is made.
        complex_.require_flip()
        self.complex = complex_
        self.slope = slope
        # Ranges: ``j in self.b_columns`` is an O(1) membership test.
        self.a_columns = range(lo, hi + 1)
        self.b_columns = range(lo + p, hi + 1)
        # The run table's key: every cone with it has the same class runs,
        # from the same starts, but for the last run's length.
        self._runs = (lo // q, complex_.alexander_class(hi // q))

    # -- chain-level view ---------------------------------------------------

    def _per_column(self, name: str, term) -> int:
        """Sum of ``term(HatA(j // q))`` over the HatA columns j, from the
        memo entry ``(name, *key)`` of the run-table key, (inner, last,
        s_last), as the module docstring explains.  On a miss each class
        run's region is read through ``region_complex``, which memoizes it
        once per class; on a hit no region is read and no term evaluated."""
        c, q, hi = self.complex, self.slope.q, self.a_columns[-1]
        if (sums := c._memo.get(key := (name, *self._runs))) is None:
            *runs, (s_last, _) = c.class_runs(self._runs[0], hi // q)
            inner = sum(n * term(c.region_complex(s)) for s, n in runs)
            sums = c._memo[key] = inner, term(c.region_complex(s_last)), s_last
        inner, last, s_last = sums
        return q * inner + (hi + 1 - s_last * q) * last

    @property
    def total_dim(self) -> int:
        """The cone's dimension: every region, each HatA block and HatB
        alike, holds one element per generator, so no region is read.  The
        HatA columns are counted from the window's bounds, since ``len`` of
        a range fails past ``sys.maxsize``, and for p that large the window
        has p HatA columns; the HatB columns are at most
        :data:`MAX_HAT_B_BLOCKS`."""
        a, b = self.a_columns, self.b_columns
        return len(self.complex.columns[0][0]) * (a.stop - a.start + len(b))

    @property
    def boundary_rank(self) -> int:
        """Rank of the boundary's rows that the sweep does not read: the
        boundary rank of each column's HatA region, its dimension less its
        cycles, summed over the columns, and rank d_B once per HatB column,
        as the module docstring proves."""
        a_rank = self._per_column("a_rank", lambda region: region.dim - len(region.cycles))
        return a_rank + len(self.b_columns) * _hat_b_boundary_rank(self.complex)

    def total_boundary(self, key: tuple[int, int]) -> tuple[tuple[int, ...], int, int]:
        """The nonzero rows that one HatB block of the cone's boundary gives
        the sweep, at most b, on HatB's cocycle classes and the HatA cycle
        bases: the rows, their width and the column where their v block
        starts.

        A HatB row block j with key = ((j - p) // q, j // q), or the
        Alexander classes of the two, which give the same maps, gives
        ``y [h_hat(key[0]) | v_hat(key[1])]`` for each of HatB's b cocycle
        classes y, each map on the cycle basis of its source region: the
        HatA block j - p and the HatA block j, side by side in chain order.
        HatB's own boundary is ranked in :attr:`boundary_rank` instead, the
        coboundaries, whose rows are zero, are never read, and a zero row
        of a class is dropped.  The rows depend on the key alone, and the
        chain route's sweep reads them only for a missing transition, so
        they are built on every call, as bare masks: the sweep validates the
        one matrix it eliminates."""
        h_rows = self.complex.h_hat(key[0]).on_cocycles
        v_rows = self.complex.v_hat(key[1]).on_cocycles
        v_start = h_rows.cols
        rows = tuple(row for h, v in zip(h_rows.data, v_rows.data) if (row := h | (v << v_start)))
        return rows, v_start + v_rows.cols, v_start

    # -- homology-level view --------------------------------------------------

    def induced_boundary(self, key: tuple[int, int]) -> tuple[tuple[int, ...], int, int]:
        """One HatB row block of the induced block matrix: its rows, their
        width and the column where their v block starts.

        Block j with key = ((j - p) // q, j // q), or their classes, is
        ``[h_hat(key[0])_* | v_hat(key[1])_*]`` on the homology bases: the
        HatA block j - p, then the HatA block j.  Like
        :meth:`total_boundary` it depends on the key alone and is built on
        every call, as bare masks."""
        h_ind = self.complex.h_hat(key[0]).induced
        v_ind = self.complex.v_hat(key[1]).induced
        v_start = h_ind.cols
        rows = tuple(h | (v << v_start) for h, v in zip(h_ind.data, v_ind.data))
        return rows, v_start + v_ind.cols, v_start

    @property
    def a_homology_dim(self) -> int:
        return self._per_column("a_homology", lambda region: region.homology.dim)

    @property
    def b_homology_dim(self) -> int:
        return self.complex.region_complex(self.complex.top).homology.dim * len(self.b_columns)


def _sweep(cone: MappingCone, tag: str, rows) -> int:
    """The rank of a route's HatB rows: the sum of what each HatB block
    adds, each residue class of j mod p that owns one swept in chain order
    from its first HatB block, as the module docstring explains.

    ``rows(key)`` gives the rows of a block whose floors have the classes
    key, their width and the column where their v block starts.  The
    complex keeps the route's transition table under ``tag``:
    ``(carry_numbers, carries, transitions)``, the number of each carry
    met, the carries by number, and each transition, keyed by
    state * k**2 + h * k + v, as (increment, next state), k being
    ``len(alexander_cuts) + 1``.  Only a missing transition is
    eliminated, by :func:`_transition`."""
    c, p, q, b = cone.complex, cone.slope.p, cone.slope.q, cone.b_columns
    # The class number of every floor the HatB blocks read, from one table
    # memoized per range of floors rather than a lookup per block, filled
    # one class run at a time.  With a HatB column the tight window's
    # floors are -(g-1)..g-1, so every such cone shares one table.
    if not b:
        return 0
    first, last = (b.start - p) // q, (b.stop - 1) // q
    if (numbers := c._memo.get(table := ("class_numbers", first, last))) is None:
        numbers = c._memo[table] = [i for s, n in c.class_runs(first, last) for i in [c.class_number(s)] * n]
    if (automaton := c._memo.get(tag)) is None:
        automaton = c._memo[tag] = {(): 0}, [()], {}
    transitions, k = automaton[2], len(c.alexander_cuts) + 1
    kk = k * k
    # One probe of the table per HatB block.  j runs shifted by first * q,
    # so that floor s is entry s - first, and h is held times k: it is the
    # v number of the block before in the class.
    get, shift = transitions.get, first * q
    added = 0
    for start in b[:p]:
        state, h = 0, numbers[(start - shift - p) // q] * k
        for j in range(start - shift, b.stop - shift, p):
            v = numbers[j // q]
            if (entry := get(key := state * kk + h + v)) is None:
                entry = transitions[key] = _transition(c, automaton, rows, key, k)
            increment, state = entry
            added += increment
            h = v * k
    return added


def _transition(c: CfkComplex, automaton, rows, key: int, k: int) -> tuple[int, int]:
    """Transition ``key`` of a route's table, (increment, next state).  It
    builds one matrix, m = [carry; rows], so its rows are validated once,
    and eliminates it once, by ``f2.rref`` cut at the v block: the block
    adds the pivot count less the carry's size.  The next carry is
    numbered if it is new."""
    carry_numbers, carries, _ = automaton
    state, hv = divmod(key, k * k)
    carry, classes = carries[state], c.numbered_classes
    block, width, v_start = rows((classes[hv // k], classes[hv % k]))
    m = F2Matrix(width, carry + block)
    # The next carry is the reduced rows with no bit below the v block, the
    # only rows the cut form back-substitutes.
    reduced, pivots = f2.rref(m, v_start)
    carry_out = tuple(row >> v_start for row in reduced)
    if (number := carry_numbers.get(carry_out)) is None:
        number = carry_numbers[carry_out] = len(carries)
        carries.append(carry_out)
    return len(pivots) - len(carry), number


@memoized("hat_b_boundary_rank")
def _hat_b_boundary_rank(c: CfkComplex) -> int:
    """rank d_B, the rank of HatB's boundary, memoized on the complex: one
    ``f2.rank`` call per complex, the only one the chain route makes once
    the genus is read.  The call stays because it is a real check: it
    eliminates d_B apart from the tracked elimination that found HatB's
    cocycle classes, and compares their count b, :meth:`CfkComplex.b_rank`,
    with dim - 2 rank d_B, which it equals exactly when the classes are
    independent modulo the coboundaries, as the sweep needs."""
    region = c.region_complex(c.top)
    rank = f2.rank(region.boundary)
    if (b := c.b_rank()) != region.dim - 2 * rank:
        raise f2.DimensionError(f"HatB has {b} cocycle classes, need {region.dim - 2 * rank}")
    return rank


def cone_rank_chain(c: CfkComplex, slope: Slope) -> int:
    """Total homology rank of the cone, from the chain-level boundary only.

    The cone is on the tight window.  Each residue class of j mod p is swept
    in chain order, one transition of the complex's "sweep" table per HatB
    block, as the module docstring explains."""
    if (rank := c._memo.get(key := ("cone_rank_chain", slope.p, slope.q))) is not None:
        return rank
    cone = MappingCone(c, slope)
    added = _sweep(cone, "sweep", cone.total_boundary)
    # The dimension less twice the boundary rank: the rank of the HatA
    # rows and of d_B, whose f2.rank call is made here on the first
    # cone of the complex, plus what the sweep adds.
    rank = c._memo[key] = cone.total_dim - 2 * (cone.boundary_rank + added)
    return rank


def cone_rank_homological(c: CfkComplex, slope: Slope) -> int:
    """Kernel plus cokernel of the induced block matrix on homology: that of
    the essential summand on its own tight window, plus q * z for the
    acyclic rest, as the module docstring explains.  The summand's rank is
    swept class by class like the chain route's, one transition of the
    summand's "hsweep" table per HatB block, from the rows of
    :meth:`MappingCone.induced_boundary`; the block matrix itself is never
    built.  The slope is checked on the whole complex first, as the chain
    route checks it, since finding the summand reads HatB."""
    if (rank := c._memo.get(key := ("cone_rank_homological", slope.p, slope.q))) is not None:
        return rank
    require_sweep(c, slope)
    cone = MappingCone(c.essential_summand, slope)
    r = _sweep(cone, "hsweep", cone.induced_boundary)
    rank = c._memo[key] = (cone.a_homology_dim - r) + (cone.b_homology_dim - r) + slope.q * c.acyclic_sum()
    return rank


def t_invariant(c: CfkComplex, slope: Slope) -> int:
    """Sum over j = 0..p-1 of dim(im v_hat(j/q) meet im h_hat((j-p)/q)) in
    the homology of HatB, memoized per slope.

    The images are nested, so the meet at j is R(m(j)), with
    R(x) = rank v_hat(x)_* and m(j) = min(j // q, ceil((p - j) / q)), as the
    module docstring proves.  Sum by parts over x: with N(x) the number of
    j in [0, p) with m(j) >= x,

        t = sum over x >= 0 of R(x) (N(x) - N(x + 1))
          = p R(0) + sum over x >= 1 of (R(x) - R(x - 1)) N(x).

    N(0) = p, as m(j) >= 0.  For x >= 1, m(j) >= x holds exactly when
    xq <= j < p - (x - 1)q, so N(x) = max(0, p - (2x - 1)q), positive
    exactly when x <= (p + q - 1) // (2q).  R changes only at an Alexander
    cut, so R(x - 1) is R at the cut before x, or at 0 when no cut lies in
    (0, x); and R = b from the genus g up, where v_hat is onto.  So only
    the cuts x in (0, min(g, (p + q - 1) // (2q))] add a term: t reads
    v_hat(0) and at most one v_hat per cut, however large the genus, and
    for q >= p the sum is empty and t = p R(0).  The ranks are read on the
    essential summand, which holds all of v_hat's rank, with its cuts and
    genus.  t reads no h-map, so it checks the flip itself, once reading
    the summand has validated the complex."""
    p, q = slope.p, slope.q
    if (t := c._memo.get(key := ("t", p, q))) is not None:
        return t
    e = c.essential_summand
    c.require_flip()
    top = min(e.genus(), (p + q - 1) // (2 * q))
    t = p * (last := e.v_hat(0).induced_rank)
    for x in e.alexander_cuts:
        if 0 < x <= top:
            t += ((rank := e.v_hat(x).induced_rank) - last) * (p - (2 * x - 1) * q)
            last = rank
    c._memo[key] = t
    return t


class HypothesisReport(Frozen):
    """The image-containment verdicts of a complex of genus g; shared, so
    read only.

    The containment is a theorem of the model (the module docstring has the
    proof), so every verdict passes, and the report holds only the genus,
    which fixes the s it covers: 0..g for im h_hat(s) inside im v_hat(s)
    and -g..0 for the mirror containment.  ``overall`` is True for every
    report, and :meth:`to_json_dict` writes one passing key per s, so only
    the JSON follows the genus."""

    __slots__ = __match_args__ = ("genus",)
    overall = True

    def __init__(self, genus: int):
        _set_genus(self, genus)

    def to_json_dict(self) -> dict:
        sides = {"h_image_in_v_image": range(self.genus + 1), "v_image_in_h_image": range(-self.genus, 1)}
        return {**{key: dict.fromkeys(map(str, side), True) for key, side in sides.items()}, "overall": True}


(_set_genus,) = setters(HypothesisReport)


@memoized("hypothesis")
def hypothesis_verdicts(c: CfkComplex) -> HypothesisReport:
    """Per-s image containments: im h_hat(s) inside im v_hat(s) for
    0 <= s <= genus, and im v_hat(s) inside im h_hat(s) for -genus <= s <= 0.

    Every one holds, as the module docstring proves, so the report is the
    genus.  The verdict still needs a valid complex with a flip: reading
    the genus validates, and the flip is checked after it."""
    g = c.genus()
    c.require_flip()
    return HypothesisReport(g)


def _v_sum(c: CfkComplex, slope: Slope, name: str, term) -> int:
    """q*term(v_hat(0)) + 2q * sum over s = 1..g-1 of term(v_hat(s)).  The
    sum over s does not depend on the slope, so it is memoized on the
    complex under ("v_sum", name), and only the first slope reads maps.
    v_hat(s) is one map across a class run, so the sum reads it once per
    run of 1..g-1, weighted by the run's length."""
    if (per_q := c._memo.get(key := ("v_sum", name))) is None:
        per_q = c._memo[key] = term(c.v_hat(0)) + 2 * sum(
            n * term(c.v_hat(s)) for s, n in c.class_runs(1, c.genus() - 1)
        )
    return slope.q * per_q


def rank_formula(c: CfkComplex, slope: Slope) -> int:
    """Closed-form surgery rank.

        q*(ker v0 + b - rk v0)
      + 2q * sum over s = 1..g-1 of (ker vs + b - rk vs)
      + 2*t - p*b

    where ker/rk are kernel dimension and rank of the induced v_hat(s),
    b is the homology rank of HatB, and t is t_invariant.  Each term is
    read as dim H(HatA(s)) + b - 2 rk vs, one rank per class run of s, on
    the essential summand, and the acyclic rest adds q * z.
    """
    b = c.b_rank()
    total = _v_sum(c.essential_summand, slope, "formula", lambda v: v.source.homology.dim + b - 2 * v.induced_rank)
    return total + 2 * t_invariant(c, slope) - slope.p * b + slope.q * c.acyclic_sum()


@memoized("nu")
def nu_surrogate(c: CfkComplex) -> int:
    """Least s >= 0 with v_hat(s) surjective on homology (b_rank 1 only).

    v_hat(s) is one map across a class run, so the least such s is the
    start of the first run of 0..genus whose map has nonzero rank, read on
    the essential summand, where v_hat has all its rank.  Memoized, so
    only a complex with b_rank 1 has a value to hit."""
    if c.b_rank() != 1:
        raise NotApplicableError(f"nu needs a complex with b_rank 1, got {c.b_rank()}")
    e = c.essential_summand
    # v_hat(genus) is an isomorphism, so the scan stops by then.
    return next(s for s, _ in e.class_runs(0, e.genus()) if e.v_hat(s).induced_rank)


def kernel_rank(c: CfkComplex, slope: Slope) -> int:
    """Dimension of the kernel of the induced block matrix, in closed form:
    q*ker(v0) + 2q*sum(s=1..g-1) ker(vs) + t on the essential summand, plus
    q * z for the acyclic rest, whose whole homology is kernel."""
    kernel = _v_sum(c.essential_summand, slope, "kernel", lambda v: v.source.homology.dim - v.induced_rank)
    return kernel + t_invariant(c, slope) + slope.q * c.acyclic_sum()


class RankReport(Record):
    """Everything one surgery computation produced, ready to serialize."""

    __slots__ = __match_args__ = (
        "name", "slope", "oracle_rank", "formula_rank", "t_value", "nu", "hypothesis_ok", "b", "genus",
    )
    # The same caveat for every report, serialized as the JSON "note" key.
    note = "t computed from the supplied flip involution"

    def __init__(
        self, name: str, slope: Slope, oracle_rank: int, formula_rank: int, t_value: int,
        nu: int | None, hypothesis_ok: bool, b: int, genus: int,
    ):
        self.name = name
        self.slope = slope
        self.oracle_rank = oracle_rank
        self.formula_rank = formula_rank
        self.t_value = t_value
        self.nu = nu
        self.hypothesis_ok = hypothesis_ok
        self.b = b
        self.genus = genus

    # The TSV columns are the JSON keys of the same names, in the same order:
    # the fields zipped onto them, the slope split into p and q.
    TSV_COLUMNS = ("name", "p", "q", "oracle", "formula", "t", "nu", "hypothesis", "b", "genus")
    TSV_HEADER = "\t".join(TSV_COLUMNS)

    @property
    def consistent(self) -> bool:
        return self.formula_rank == self.oracle_rank

    def __str__(self) -> str:
        return f"oracle={self.oracle_rank} formula={self.formula_rank}"

    def tsv_row(self) -> str:
        data = self.to_json_dict()
        data["hypothesis"] = "pass" if self.hypothesis_ok else "fail"
        return "\t".join("-" if data[k] is None else str(data[k]) for k in self.TSV_COLUMNS)

    def to_json_dict(self) -> dict:
        name, slope, *values = self._values(self)
        return dict(zip(self.TSV_COLUMNS, (name, slope.p, slope.q, *values)), note=self.note)


def compute_rank_report(c: CfkComplex, slope: Slope) -> RankReport:
    """Run both routes plus the auxiliary invariants for one slope."""
    oracle = cone_rank_chain(c, slope)
    hyp = hypothesis_verdicts(c).overall
    b = c.b_rank()
    return RankReport(
        name=c.name,
        slope=slope,
        oracle_rank=oracle,
        formula_rank=rank_formula(c, slope),
        t_value=t_invariant(c, slope),
        nu=nu_surrogate(c) if b == 1 else None,
        hypothesis_ok=hyp,
        b=b,
        genus=c.genus(),
    )
