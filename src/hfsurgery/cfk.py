"""Bifiltered knot Floer complexes over GF(2) and their finite regions.

A complex is generated over F2[U, U^-1] by named generators.  The U^0
copy of a generator x sits at lattice point (0, alexander(x)) and U^k x
sits at (-k, alexander(x) - k), so j - i = alexander(x) along the whole
U-tower.  Differentials are U-equivariant and every term strictly drops
at least one filtration coordinate (the complex is reduced).

A :class:`CfkComplex` is its columns, in generator order: the ids,
Alexander gradings and Maslov gradings, the differential's term columns
(source id, target id, upower) and the flip's pair columns.  It has one
constructor, which takes the columns as given and does not copy them.
JSON, ``knots`` and the essential summand hand their columns over to it,
and validation reads them, one loop per check naming each issue.  The
positions and arcs the regions are indexed by are built on first read.
The columns hold str ids and name, int gradings and upowers, and an int
or None for each Maslov grading; every parse and builder gives only these
types.  :meth:`CfkComplex.to_json`, the one serializer, writes its text
from the columns, one call of json's C encoder per column, and for these
types the text is byte for byte ``json.dumps(indent=2)`` of the reference
mapping its docstring names; for others it is not guaranteed.

The finite hat-flavor regions that the surgery mapping cone reads are
level sets of the (i, j) filtration:

    HatA(s)  max(i, j - s) = 0      one basis element per generator
    HatB     i = 0                  one basis element per generator

with the induced differential keeping exactly the components that stay
inside the region.  HatA(s) and HatB hold one copy of each generator, in
the complex's generator order: element i is U^k x_i with
k = max(0, alexander(x_i) - s) in HatA(s) and k = 0 in HatB.  A region
keeps only its boundary, its rows written by one loop over the arcs.  For
s at or above the top Alexander grading every upower is
0, and HatA(s) is HatB element for element, so HatB is
the region at the top grading, ``region_complex(top)``, one object with
one kernel and one homology basis.  A region is named by its grading s
alone: there are no region tag types.  The maps v_hat(s) and h_hat(s)
from HatA(s) to HatB are the vertical projection and the horizontal
projection composed with U^s and the flip involution, built straight
from that order.  Each sends an element to one element or to zero, so
it is held as a generator index map, with no matrix: v_hat(s) keeps
element i when alexander(x_i) <= s, and h_hat(s) sends it to the
position of flip(x_i) when alexander(x_i) >= s.  The chain-map check,
the maps' rows on HatB's cocycle classes, b of them, and their matrices
on homology all read the index; the one preimage a map builds, for its
check, also pulls the classes for those rows.  Each row is a pulled
class in its canonical form modulo the source's coboundaries, which
stands for its pairing with the source's cycles
(``FilteredChainMap.on_cocycles`` proves it), so the chain route and the
genus build no cycle basis, and no region keeps its cycles as rows.

HatA(s), v_hat(s) and h_hat(s) change with s only where s crosses an
Alexander grading.  The cuts are a and a + 1 for every grading a, and the
Alexander class of s is the largest cut at or below s, or the lowest cut
less one below them all; all three are memoized under the class of s, so
s and its class give one object.  Proof: a class is a single grading or
a run of s that meets none, so v_hat (keep x when alexander(x) <= s) and
h_hat (when alexander(x) >= s) keep the same generators across it, and
an arc x -> U^k y, which stays in HatA(s) exactly when
max(0, A(y) - s) = max(0, A(x) - s) + k, could switch only at
A(x) < s = A(y) - k, which the filtration rule A(y) - k <= A(x) forbids.
So a scan over a range of s reads one object per run of a class, and
:meth:`CfkComplex.class_runs` is the one place that finds the runs.  The
classes are numbered in ascending order from 0, the class of s by the
count of cuts at or below s, and :attr:`CfkComplex.numbered_classes`
lists them by number.

A complex with a flip has the conjugation symmetry of Ozsvath-Szabo (arXiv
math/0504404), and ``cfk`` builds only half of the regions and maps
through it.  The flip sends U^k x to U^(k - A(x)) flip(x), which sits at
(j, i) when U^k x sits at (i, j), so Phi_s = U^s o flip sends (i, j) to
(j - s, i - s) and the level set max(i, j - s) = 0 onto
max(i', j' + s) = 0.  Validation checks that the flip commutes with the
differential, so Phi_s is a chain isomorphism HatA(s) -> HatA(-s), and it
sends the one copy of x_i to the one copy of flip(x_i): element i goes to
element flip[i], the flip permutation of the generator order.  Validation
also checks A(flip(x)) = -A(x), so the gradings, and with them the cuts a
and a + 1, are symmetric under s -> 1 - s: the run of a class from a cut
c to the next cut c' - 1 goes to the run from 1 - c' to -c, and the
classes mirror exactly.  The run that contains 0 goes to itself; it is the
one self-conjugate class, the middle one.

A class s below its mirror class m = ``alexander_class(-s)`` is its
mirror, with v and h swapped.  Read HatA(s) through Phi_s, as the region
of HatA(m): the flip is an involution, so element i of HatA(m) is Phi_s of
element flip[i] of HatA(s).  v_hat(s) keeps that element when
A(flip(x_i)) = -A(x_i) <= s and sends it to element flip[i] of HatB, so
v_hat(s) o Phi_s^-1 sends i to flip[i] exactly when A(x_i) >= -s, which,
-s lying in the class m, is h_hat(m)'s index map.  h_hat(s) sends element
flip[i] to flip[flip[i]] = i when A(flip(x_i)) >= s, so
h_hat(s) o Phi_s^-1 sends i to i exactly when A(x_i) <= -s, v_hat(m)'s
index map.  So HatA(s) is served as the region of HatA(m), v_hat(s) is
h_hat(m) and h_hat(s) is v_hat(m), the same objects.  Composing with the
isomorphism Phi_s^-1 changes no rank and no image in H(HatB), and a cone
column of class s read this way is the old column moved by Phi_s, so the
cone changes only by an isomorphism.  The same index reading, for every
s, gives h_hat(-s) o Phi_s = v_hat(s) exactly, so im h_hat(-s)_* is
im v_hat(s)_*: one half of the proof in ``surgery`` that the
image-containment hypothesis holds for every complex with a flip.  The
middle class and the classes at or above their mirrors build their
regions and both maps themselves, as does every class of a complex
without a flip.

A complex with a flip splits along the connected components of the graph
with one edge per differential arc and one per flip pair.  Each component
is closed under the differential and the flip, so it is a flip-invariant
direct summand: every region, v_hat(s) and h_hat(s) is the direct sum of
its pieces on the components.  Each entry of a region's coboundary table
lies in one component, by the induction the next paragraph makes for the
cocycles: a boundary row has its bits in its element's component, and a
row is only ever reduced by the entry stored at one of its own bits.  The
entries are independent and span the coboundaries, the direct sum of
each component's own, so the entries in a component C are independent in
C's coboundaries, and as their counts add up to rank d = sum of rank d_C,
C holds exactly rank d_C of them, each keyed at one of C's elements.  A
component's homology in a region of n of its elements holding k keys of
the table therefore has dimension n - 2k.

b, the dimension of H(HatB), has one reading, the count of HatB's cocycle
classes on the whole complex (:meth:`CfkComplex.b_rank`), and the classes
also tell which components have b > 0.  Proof: an arc joins two elements
of one component, so the boundary's row at an element has its bits in that
element's component.  :attr:`RegionComplex.cocycles` eliminates those
rows, each carrying the mask of the rows added into it, and a vector is
only ever reduced by the pivot stored at one of its own bits; so, by
induction, every pivot and its mask, every cocycle and every coboundary
the table holds, lies in one component.  Each cocycle is then reduced
against the table the same way and kept unreduced, so each class lies in
one component.  The coboundaries are the direct sum of each component's
own, so the classes in a component C are independent modulo C's
coboundaries, and there are at most b_C of them; as b of them make up
b = sum of b_C, C holds exactly b_C.  The *essential summand* P is the
union of the components that hold a class, so it is what one search over
the arcs and flip pairs reaches from the lowest bit of each class, with
no other record of the components; it is built once as a complex of its
own in this complex's generator order; the acyclic rest Z, whose HatB has
no homology, is never built.  Z's v_hat(s) and h_hat(s) vanish on
homology, so Z adds nothing to the ranks of v_hat that t sums, or to
nu, and those read P.  What Z does add is H(HatA(s)), and
:meth:`CfkComplex.acyclic_sum` sums its dimensions over |s| < genus, read
off the coboundary tables of this complex's own regions, which the chain
route builds anyway.  b and the genus read no split: each has one rule on
the whole complex, Z included.  P is the complex itself when it has no
flip, or when the search reaches no element or every element: when no
component, or every component, holds a class, a connected complex among
them.

This module owns the precondition policy and checks it where data is
built.  Regions, the genus and the hfk counts need a valid complex
(:meth:`CfkComplex.require_valid`); h_hat also needs a flip
(:meth:`CfkComplex.require_flip`).  A memoized value implies that its
checks passed, so a memo hit repeats none of them: a hit is one
``dict.get`` of the complex's ``_memo`` as soon as the key is known, with
no closure and no further call, made by :func:`memoized` for a constant
key and at the top of the function for a key built from its arguments.
A value is stored only once its computation returns, and none is None.
A ``try`` probe costs about as much on a hit but some 0.4 us more on a
miss, which raises KeyError (shared 2-core Intel Xeon, Python 3.11.7),
and a key built from arguments sees at most 9 hits per miss in a
``scan-grid`` pass of ``perfbench``.  A caller that reads
a region, a chain map or the genus therefore raises InvalidComplexError
for an invalid complex, and FlipRequiredError once it reads an h-map of
a complex without a flip, with no guard of its own.  Only code that
returns before reading any of these keeps its own guard.
"""

from __future__ import annotations

import json
import unicodedata
from bisect import bisect_right
from collections import Counter
from functools import wraps
from itertools import compress, repeat
from operator import add, sub

from . import f2
from .f2 import F2Matrix, HomologyBasis, InvalidComplexError
from .records import Frozen, setters


class FlipRequiredError(ValueError):
    """The operation needs a flip involution and none was supplied."""


class ComplexTooWideError(ValueError):
    """The complex is too wide to rank: its regions would weigh more than
    :data:`MAX_REGION_WEIGHT`."""


# The most a complex's regions may weigh, n**2 * k for n generators and k
# Alexander classes meeting [0, top].  Every query on the acceptance
# corpora built at most k regions of the complex and k of its essential
# summand, and a region holds up to n entries of its coboundary table
# and, once its homology is read, up to n of the basis's table.  At this
# limit ``hfsurgery rank`` at 1/1 peaked at 78 MB on the 1,259-generator
# staircase, each of whose 630 regions holds its coboundary table beside
# its homology, and at 553 MB on 31,622 dots, whose b = n homology the
# closed form also reads; 3 * 10**9 let 54,772 dots through at 2.4 GB
# (2-core Xeon, Python 3.11.7).  The 6,125-generator rung weighs
# 4.1 * 10**8.
MAX_REGION_WEIGHT = 10**9


class ValidationIssue(Frozen):
    __slots__ = __match_args__ = ("code", "message")

    def __init__(self, code: str, message: str):
        _set_code(self, code)
        _set_message(self, message)

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


class ValidationReport(Frozen):
    __slots__ = __match_args__ = ("issues",)

    def __init__(self, issues: tuple[ValidationIssue, ...]):
        _set_issues(self, issues)

    @property
    def ok(self) -> bool:
        return not self.issues

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(str(issue) for issue in self.issues)


_set_code, _set_message = setters(ValidationIssue)
(_set_issues,) = setters(ValidationReport)


def memoized(key):
    """Memoize a function of a complex under the constant ``key`` of its
    ``_memo``.  A hit is one probe of the memo: no closure and no further
    call.  On a miss the value is stored only once the function returns,
    so a check it makes, such as :meth:`CfkComplex.require_valid`, is not
    repeated on a hit.  No memoized value is None, so None marks a miss."""

    def decorate(compute):
        @wraps(compute)
        def probe(c):
            if (value := c._memo.get(key)) is None:
                value = c._memo[key] = compute(c)
            return value

        return probe

    return decorate


class lazy:
    """An attribute computed on its first read and then stored in the
    instance's ``__dict__``, where every later read finds it as a plain
    attribute: a non-data descriptor, so the stored value wins.  Read on the
    class, it is the descriptor itself, with the function's docstring.

    It takes no lock.  ``functools.cached_property`` takes one ``RLock``
    per attribute, shared by every instance, on each first read on Python
    3.8-3.11, and a fresh ``survey-fresh`` complex makes about 29 such
    reads.  Two threads that read one attribute at once may both compute
    it; each computation gives the same value, and the one stored last is
    kept.  The one table that a computation hands to another, a map's
    ``_pulled``, is taken with ``pop``, and a reader that finds it gone
    builds it again."""

    def __init__(self, compute):
        self.compute = compute
        self.name = compute.__name__
        self.__doc__ = compute.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.compute(instance)
        return value


def move_bits(masks, to) -> list[int]:
    """Each mask with each bit b moved to bit ``to[b]``, or dropped where
    that is -1: a chain map for ``to = index`` and its transpose for the
    preimage.

    There is one path for every map.  A projection branch for v_hat(s),
    one AND with a mask of the kept elements, cost more than it saved,
    since finding the mask scans the index twice on every map built:
    without it, ``survey-fresh`` ``wall_s`` read 0.489 -> 0.473 s
    median (faster in 9 of 10 alternating pairs of 20 s ``perfbench``
    runs, seeds 2901-2910, on a shared 2-core Intel Xeon with Python
    3.11.7), and ``scan-grid`` and ``cli`` stayed within 1.5%.
    """
    out = []
    for mask in masks:
        moved = 0
        while mask:
            low = mask & -mask
            b = to[low.bit_length() - 1]
            if b >= 0:
                moved |= 1 << b
            mask ^= low
        out.append(moved)
    return out


class RegionComplex:
    """A finite GF(2) complex cut out of the (i, j) lattice.

    ``boundary`` keeps the differential components that stay in the
    region.  Components leaving the region are dropped, and nothing can
    enter from outside because regions are differences of upward closed
    sets.  Element i of HatA(s) or HatB is a copy of generator i; its
    U-power is not kept, because one HatA region serves a whole Alexander
    class of s, whose members put different powers on it.

    What a region caches is read off its boundary on first use: the pivot
    table of its coboundaries, its cocycle classes and its homology; it
    keeps no cycles, as a list or as rows.  The chain route and the genus
    read the coboundary table alone, one untracked elimination of the
    boundary's rows, and build no cycle basis.  The homological route reads
    the homology, which :class:`f2.HomologyBasis` builds from the boundary
    alone by one elimination of its columns, and the basis keeps no cycle
    list either.  A region also serves the classes below its mirror class,
    read through the flip (the module docstring says how), so it is built
    only for a class at or above its mirror's.  The boundary's columns are
    its transpose's rows, built only when the homology eliminates them,
    since the chain route never reads them.

    ``tag`` is a free label, printed by ``repr`` and in the chain-map
    error: ``cfk`` passes the grading s of the class it built.
    """

    def __init__(self, tag, boundary: F2Matrix):
        self.tag = tag
        self.boundary = boundary
        self.dim = boundary.cols

    @lazy
    def coboundaries(self) -> dict[int, int]:
        """The pivot table of the coboundaries y . boundary, the boundary's
        row space, keyed on lowest set bits: ``f2._eliminate`` of the rows,
        with no mask tracked, built on first read.  Its size is
        rank(boundary), so the region has dim - size cycles and
        dim - 2 size homology.  ``on_cocycles`` reduces each pulled class
        against it; the chain route, the genus and
        :meth:`CfkComplex.acyclic_sum` read it in place of the cycles."""
        return f2._eliminate(self.boundary.data)

    @lazy
    def homology(self) -> HomologyBasis:
        """Homology basis, built on first read from the boundary alone:
        ``HomologyBasis(boundary)``, one elimination of the boundary's
        columns, the rows of its one transpose.  The chain route,
        :meth:`CfkComplex.genus` and :meth:`CfkComplex.b_rank` never read
        it."""
        return HomologyBasis(self.boundary)

    @lazy
    def cocycles(self) -> tuple[int, ...]:
        """Cocycles, the row vectors y with y . boundary = 0, as masks over
        the region's elements, one for each class of its cohomology, built
        on first read.  One elimination of the boundary's rows, which are
        the columns of its transpose, so none is built, gives a basis of
        all the cocycles and the pivot table of the coboundaries, the
        boundary's row space; each cocycle is reduced against the table and
        kept when it survives, its reduction then joining the table.  So
        the kept ones are independent modulo the coboundaries, and there
        are dim - 2 rank(boundary) of them, b for HatB.  No
        :class:`f2.HomologyBasis` is built, and the table the kept classes
        join is this read's own, not :attr:`coboundaries`.  Only HatB's are
        read: their count is b, the genus and the chain route read them
        through ``on_cocycles``, and the essential summand by the component each
        lies in (the module docstring proves that each lies in one).  So
        b, the genus and the chain route stay apart from the homology the
        other route reads."""
        cocycles, coboundaries = f2.column_elimination(self.boundary.data)
        classes = []
        for y in cocycles:
            reduced = f2._reduce(coboundaries, y)
            if reduced:
                f2._insert(coboundaries, reduced)
                classes.append(y)
        return tuple(classes)

    def __repr__(self) -> str:
        return f"RegionComplex({self.tag}, dim={self.dim})"


class FilteredChainMap:
    """A chain map between region complexes that sends each source element
    to one target element or to zero, held as a generator index map:
    ``index[i]`` is the target element that source element i goes to, or
    -1, and no two source elements go to the same one.  No dense matrix is
    kept.  v_hat(s) and h_hat(s) alike are applied, checked and transposed
    by the one bit-moving loop of :func:`move_bits`, with no projection
    branch for v_hat(s) (see :func:`move_bits` for why).  On homology a map
    answers one cached number, :attr:`induced_rank`.

    The one check of f∘∂ = ∂∘f is here, made on every map built.  Row r of
    the map's matrix holds the bit of r's preimage, or none, so row r of
    f∘∂ is the source boundary row of that preimage, and row r of ∂∘f is
    the target boundary row r with each bit moved to its own preimage, or
    dropped.  The check compares the two masks row by row.

    A map builds its preimage once, for the check, and the same preimage
    pulls the target's cocycle classes, b of them for HatB, that
    :attr:`on_cocycles` reads.  The map holds those b pulled classes, as
    ``_pulled``, not the preimage, and only until :attr:`on_cocycles`
    takes them; a read that finds them gone, taken by another thread,
    builds the preimage again.
    """

    def __init__(self, source: RegionComplex, target: RegionComplex, index):
        self.source = source
        self.target = target
        self.index = tuple(index)
        if len(self.index) != source.dim:
            raise f2.DimensionError(f"index map has {len(self.index)} entries for {source.dim} elements")
        preimage = self._preimage()
        boundary = source.boundary.data
        left = [boundary[i] if i >= 0 else 0 for i in preimage]
        if left != move_bits(target.boundary.data, preimage):
            raise f2.NotAChainMapError(
                f"map {source.tag} -> {target.tag} does not commute with boundaries"
            )
        self._pulled = move_bits(target.cocycles, preimage)

    def _preimage(self) -> list[int]:
        """``preimage[r]``: the source element that goes to target element
        r, or -1.  Built for the check and not kept; rebuilt only by
        :attr:`on_cocycles` when the pulled classes are gone."""
        preimage = [-1] * self.target.dim
        for i, r in enumerate(self.index):
            if r >= 0:
                if preimage[r] >= 0:
                    raise ValueError(f"index map sends elements {preimage[r]} and {i} to {r}")
                preimage[r] = i
        return preimage

    def apply(self, vec: int) -> int:
        """The image of a source vector, given as a bit mask."""
        return move_bits((vec,), self.index)[0]

    @property
    def rows(self) -> int:
        return self.target.dim

    @property
    def cols(self) -> int:
        return self.source.dim

    @lazy
    def induced(self) -> F2Matrix:
        """Matrix on homology, built on first read; the map is applied to
        each homology representative by index."""
        return f2.induced_map_on_homology(self, self.source.homology, self.target.homology)

    @lazy
    def on_cocycles(self) -> F2Matrix:
        """The map from the target's cocycle classes to the source's
        cocycles modulo coboundaries, one row per vector y of
        ``target.cocycles``, b of them for HatB, as wide as the source,
        built on first read.  Row y is y . f, y's bits moved to their
        preimages (the classes the constructor pulled, taken here), in its
        canonical form modulo the source's coboundaries: ``f2._canonical``
        against :attr:`RegionComplex.coboundaries`, zero at every lowest
        bit of a nonzero coboundary.  Only the classes are read because a
        target coboundary, z . d, gives z . d . f = z . f . d, a source
        coboundary, whose canonical form is zero.

        These rows stand for y . f . N, N a basis of the source's cycles,
        with no N built.  Proof.  A cochain x vanishes on every cycle
        exactly when it is a coboundary, as row(d) lies in (ker d)^perp and
        both have dimension rank d; so x -> x . N maps the cochains modulo
        row(d) isomorphically onto the rows over N.  The canonical form is
        unique: the keys, the lowest bits of row(d)'s nonzero vectors,
        belong to the space, and two forms of one coset differ by a vector
        of row(d) whose lowest bit would be a key where both are zero, so
        they differ by zero.  The vectors zero at every key form a subspace
        that meets row(d) in zero and has its complementary dimension, so a
        sum of canonical forms is canonical, and x -> x . N is injective on
        it.  Hence every set of these rows, and every set of rows built
        block by block from them, side by side with other blocks, has the
        rank of the same set over N, and so has every subspace cut down
        to some blocks: each sweep transition adds the increment it would
        add over the cycles.  A carry, the part of a step's row space with
        no bit below the v block, is a sum of rows, so it is canonical in
        each block too.  A class served through its mirror reads the
        mirror's map, reduced against the mirror's region, the same
        object.  Only the chain route and the genus read it; the
        homological route applies the map to each homology representative
        instead."""
        pulled = vars(self).pop("_pulled", None)
        if pulled is None:
            pulled = move_bits(self.target.cocycles, self._preimage())
        table, canonical = self.source.coboundaries, f2._canonical
        return F2Matrix(self.source.dim, tuple(canonical(table, y) for y in pulled))

    @lazy
    def induced_rank(self) -> int:
        """Rank of the induced map, the one elimination of that matrix, built
        on first read.  It is the one rank a map answers: a caller that needs
        the kernel dimension or whether the map is an isomorphism reads them
        off it and the homology dimensions."""
        return f2.rank(self.induced)


# json's C encoder, which json.dumps leaves unused once it indents: with
# "\n" between items a list comes out one value per line, and no value
# holds a raw newline, since the encoder escapes control characters.
_encode = json.JSONEncoder(separators=("\n", ": ")).encode

# One entry of each list of the JSON text, as indent=2 lays it out.
_GENERATOR = '    {\n      "id": %s,\n      "alexander": %s,\n      "maslov": %s\n    }'
_UNGRADED = '    {\n      "id": %s,\n      "alexander": %s\n    }'
_TERM = '    {\n      "from": %s,\n      "to": %s,\n      "upower": %s\n    }'
_PAIR = '    {\n      "from": %s,\n      "to": %s\n    }'


def _cells(column) -> list[str]:
    """Each value of a column as JSON text, by one call of the C encoder."""
    text = _encode(column)
    return text[1:-1].split("\n") if text != "[]" else []


def _array(entries: list[str]) -> str:
    """A list of the JSON text's top-level mapping, its entries filled in."""
    return "[\n" + ",\n".join(entries) + "\n  ]" if entries else "[]"


class CfkComplex:
    """A reduced bifiltered complex, never changed once built.

    A complex is its ``columns``, in generator order: the generator columns
    (ids, Alexander gradings, Maslov gradings or None), the term columns of
    the differential (source id, target id, upower) and the flip columns
    (source id, target id), or None without a flip.  Ids are kept as names,
    so an invalid complex holds them as given.  Beside them it keeps
    ``alexander`` (each id's grading, the first one of a repeated id) and
    ``flip_map`` (each id's partner), which validation reads.  Built on
    first read: the positions the regions are indexed by, and the essential
    summand.

    Derived regions, maps and homology data are memoized; every public
    operation is pure, so sharing one instance between threads is safe.
    No lock is taken: two threads may compute one memo entry or
    :class:`lazy` attribute at once, each gets the same value, and a table
    handed from one computation to the next is rebuilt by a reader that
    finds it taken.
    """

    def __init__(self, generators, differential, flip=None, name: str = "complex"):
        """The complex of these columns, kept as given, not copied:
        ``generators`` is (ids, alexander, maslov), ``differential`` is
        (sources, targets, upowers) and ``flip`` is (sources, targets) or
        None, each column a sequence in its own order.  The caller hands the
        columns over and changes none of them afterwards, and a complex
        built from another, by ``renamed``, ``mirror`` or the essential
        summand, may share them: ``alexander``, ``flip_map`` and everything
        built on first read would stop agreeing with a changed column."""
        # The name is printed on its own line and as a TSV cell, so it holds
        # no control character (Cc) and no line or paragraph separator
        # (Zl, Zp), which str.splitlines() also splits on, and no lone
        # surrogate (Cs), which UTF-8 cannot encode.  A printable string
        # holds none of them.
        if not isinstance(name, str):
            raise ValueError(f"'name' must be a string, got {name!r}")
        if not name.isprintable():
            categories = set(map(unicodedata.category, name))
            if categories & {"Cc", "Zl", "Zp"}:
                raise ValueError(
                    f"'name' must not contain control characters or line separators, got {name!r}"
                )
            if "Cs" in categories:
                surrogate = next(ch for ch in name if unicodedata.category(ch) == "Cs")
                raise ValueError(f"'name' must not contain the lone surrogate {surrogate!r}, got {name!r}")
        self.columns = (generators, differential, flip)
        self.name = name
        ids, alexander, _ = generators
        self.alexander: dict[str, int] = dict(zip(ids, alexander))
        if len(self.alexander) < len(ids):  # a repeated id keeps its first grading
            self.alexander.update(zip(reversed(ids), reversed(alexander)))
        self.flip_map: dict[str, str] | None = None
        self._flip_issues: list[ValidationIssue] = []
        if flip is not None:
            self._build_flip_map()
        self._memo: dict = {}

    # -- construction helpers -------------------------------------------

    def _build_flip_map(self):
        """Each pair is read both ways in turn, so a generator's last partner
        wins, and each second partner is named as a flip-conflict."""
        mapping: dict[str, str] = {}
        for pair in zip(*self.columns[2]):
            for a, b in (pair, pair[::-1]):
                if a in mapping and mapping[a] != b:
                    message = f"generator {a!r} paired with both {mapping[a]!r} and {b!r}"
                    self._flip_issues.append(ValidationIssue("flip-conflict", message))
                mapping[a] = b
        self.flip_map = mapping

    def renamed(self, name: str) -> "CfkComplex":
        return CfkComplex(*self.columns, name)

    # -- validation ------------------------------------------------------

    @memoized("validation")
    def validate(self) -> ValidationReport:
        """Check every structural invariant; collects failures, never raises."""
        issues: list[ValidationIssue] = []
        (ids, _, _), differential, flip = self.columns
        if not ids:
            # HatB would be zero, and HF-hat of a closed 3-manifold never is.
            issues.append(ValidationIssue("empty", "complex has no generators"))
        seen_ids = set()
        for gid in ids:
            if gid in seen_ids:
                issues.append(ValidationIssue("duplicate-id", f"generator {gid!r} repeated"))
            seen_ids.add(gid)
        seen_terms = set()
        alexander = self.alexander
        for key in zip(*differential):
            source, target, upower = key
            if key in seen_terms:
                issues.append(
                    ValidationIssue("duplicate-term", f"term {source!r}->{target!r} U^{upower} repeated")
                )
            seen_terms.add(key)
            if source not in alexander or target not in alexander:
                issues.append(
                    ValidationIssue("unknown-generator", f"term {source!r}->{target!r} names a missing generator")
                )
                continue
            if upower < 0:
                issues.append(
                    ValidationIssue("negative-upower", f"term {source!r}->{target!r} has U^{upower}")
                )
                continue
            a_from, a_to = alexander[source], alexander[target]
            if a_to - upower > a_from:
                issues.append(
                    ValidationIssue("filtration", f"term {source!r}->{target!r} U^{upower} raises the j filtration")
                )
            if upower == 0 and a_to == a_from:
                issues.append(
                    ValidationIssue("reduced", f"term {source!r}->{target!r} drops neither filtration coordinate")
                )
        terms_ok = not any(
            i.code in ("unknown-generator", "negative-upower") for i in issues
        )
        if terms_ok:
            issues.extend(self._check_d_squared())
        if flip is not None:
            issues.extend(self._check_flip(terms_ok))
        return ValidationReport(tuple(issues))

    def _check_d_squared(self) -> list[ValidationIssue]:
        # Every path x -> U^k1 y -> U^(k1 + k2) z is counted at once, by one
        # Counter over a list of (x, z, k1 + k2).  Only the odd counts are
        # sorted: by x in generator order, then by (z, k1 + k2).
        terms: dict[str, list[tuple[str, int]]] = {gid: [] for gid in self.alexander}
        for source, target, upower in zip(*self.columns[1]):
            terms[source].append((target, upower))
        paths = Counter([(x, z, k1 + k2) for x, out in terms.items() for y, k1 in out for z, k2 in terms[y]])
        odd = [(x, z, k, count) for (x, z, k), count in paths.items() if count % 2]
        order = {x: i for i, x in enumerate(terms)} if odd else {}
        return [
            ValidationIssue("d-squared", f"d^2({x!r}) contains U^{k} {z!r} with odd multiplicity {count}")
            for x, z, k, count in sorted(odd, key=lambda item: (order[item[0]], item[1], item[2]))
        ]

    def _check_flip(self, terms_ok: bool) -> list[ValidationIssue]:
        mapping, alexander = self.flip_map, self.alexander
        issues = self._flip_issues + [
            ValidationIssue("flip-missing", f"generator {gid!r} has no flip partner")
            for gid in self.columns[0][0]
            if gid not in mapping
        ]
        # Named in the order of x; only what is found is sorted.
        found = []
        for x, y in mapping.items():
            if y not in alexander:
                found.append((x, "flip-unknown", f"flip maps {x!r} to missing {y!r}"))
            elif mapping.get(y) != x:
                found.append((x, "flip-involution", f"flip is not an involution at {x!r}"))
            elif x in alexander and alexander[y] != -alexander[x]:
                message = f"flip pairs {x!r} (A={alexander[x]}) with {y!r} (A={alexander[y]})"
                found.append((x, "flip-alexander", message))
        issues += [ValidationIssue(code, message) for _, code, message in sorted(found)]
        if issues or not terms_ok:
            return issues
        # Commutation of the induced module map with the differential, at
        # generator level: compare U-exponents relative to the source tower.
        # A term s -> U^m w gives (w, m + A(s)) to flip(s)'s side, since
        # A(flip(s)) = -A(s), and (flip(w), m - A(w)) to s's side.  The sides
        # agree mod 2 at x exactly when each of x's keys is counted an even
        # number of times, so a duplicated term cancels itself.
        sources, targets, upowers = self.columns[1]
        get = alexander.__getitem__
        counts = Counter(zip(map(mapping.get, sources), targets, map(add, upowers, map(get, sources))))
        counts.update(zip(sources, map(mapping.get, targets), map(sub, upowers, map(get, targets))))
        odd = {x for (x, _, _), count in counts.items() if count % 2}
        return [
            ValidationIssue("flip-commute", f"flip does not commute with the differential at {x!r}")
            for x in alexander
            if x in odd
        ]

    def require_valid(self) -> None:
        report = self.validate()
        if not report.ok:
            raise InvalidComplexError(f"complex {self.name!r} is invalid:\n{report}")

    @property
    def has_flip(self) -> bool:
        return self.columns[2] is not None

    def require_flip(self) -> None:
        if not self.has_flip:
            raise FlipRequiredError(
                f"complex {self.name!r} has no flip involution; horizontal maps are unavailable"
            )

    # -- basic invariants --------------------------------------------------

    def hfk_hat(self, s: int) -> int:
        """Rank of the associated graded piece in Alexander grading s.

        Reducedness makes the graded differential vanish, so this is a
        generator count.
        """
        return self.hfk_profile().get(s, 0)

    def hfk_profile(self) -> dict[int, int]:
        self.require_valid()
        profile: dict[int, int] = {}
        for a in sorted(self.columns[0][1]):
            profile[a] = profile.get(a, 0) + 1
        return profile

    # -- regions -----------------------------------------------------------

    @lazy
    def _order(self) -> tuple:
        """The generator order that HatA(s) and HatB are indexed by:
        ``(ids, alexander, index, units, arcs)``: the generator columns, the
        position ``index`` of each id, ``units[i] = 1 << i`` and the
        differential as arcs (source position, target position, upower),
        read off the term columns.  Built on the first region or map of a
        valid complex, not when the complex is made, and only after the
        cuts, which refuse a complex too wide to rank: ``units`` alone holds
        about n**2 / 15 bytes for n generators."""
        self.alexander_cuts  # validates, and refuses a complex too wide
        (ids, alexander, _), (sources, targets, upowers), _ = self.columns
        index = dict(zip(ids, range(len(ids))))
        arcs = tuple(zip(map(index.__getitem__, sources), map(index.__getitem__, targets), upowers))
        return ids, alexander, index, tuple(1 << i for i in range(len(ids))), arcs

    @lazy
    def alexander_cuts(self) -> tuple[int, ...]:
        """The sorted cuts, a and a + 1 for every Alexander grading a, where
        the class of s can change.  Every region, map, cone and genus reads
        them first, so reading them validates the complex and refuses with
        :class:`ComplexTooWideError` one whose regions would weigh more than
        :data:`MAX_REGION_WEIGHT`, before any region is built."""
        self.require_valid()
        n = len(alexander := self.columns[0][1])
        cuts = tuple(sorted({cut for a in alexander for cut in (a, a + 1)}))
        # The classes meeting [0, top]: one from 0, and one at each cut in
        # (0, top], top = cuts[-1] - 1.
        k = 1 + sum(0 < cut < cuts[-1] for cut in cuts)
        if (weight := n * n * k) > MAX_REGION_WEIGHT:
            raise ComplexTooWideError(
                f"a complex of n = {n} generators and k = {k} Alexander classes in [0, {cuts[-1] - 1}] "
                f"weighs n**2 * k = {weight}, over the limit {MAX_REGION_WEIGHT}"
            )
        return cuts

    def class_runs(self, lo: int, hi: int) -> list[tuple[int, int]]:
        """The runs of one Alexander class in lo..hi, as (start, length): one
        run starts at lo and one at each cut above it, and there is none when
        lo > hi.  HatA(s), v_hat(s) and h_hat(s) are one object across a run,
        so every scan over s reads these runs, one region or map per run."""
        cuts = self.alexander_cuts
        starts = [lo, *cuts[bisect_right(cuts, lo):bisect_right(cuts, hi)], hi + 1]
        return [(s, stop - s) for s, stop in zip(starts, starts[1:]) if lo <= hi]

    @lazy
    def numbered_classes(self) -> tuple[int, ...]:
        """The classes by number: the lowest cut less one, then every cut."""
        cuts = self.alexander_cuts
        return (cuts[0] - 1, *cuts)

    def alexander_class(self, s: int) -> int:
        """The class of s: the largest cut at or below s, or the lowest cut
        less one below them all: the entry of :attr:`numbered_classes` at
        the count of cuts at or below s.  The module docstring says why s
        and its class give the same region and maps."""
        return self.numbered_classes[bisect_right(self.alexander_cuts, s)]

    @lazy
    def top(self) -> int:
        """The top Alexander grading, the last cut less one.  HatB is the
        region at it, ``region_complex(top)``.  Reading it reads the cuts,
        so it validates the complex and refuses one too wide to rank."""
        return self.alexander_cuts[-1] - 1

    def region_complex(self, s: int) -> RegionComplex:
        """The region HatA(s), memoized under the class of s.  HatB is
        ``region_complex(top)``: at and above the top grading every upower
        is 0, so HatA(s) is HatB element for element.  A region is named by
        its grading alone; there is no other kind of region."""
        if (region := self._memo.get(key := ("region", self.alexander_class(s)))) is None:
            region = self._memo[key] = self._build_region(key[1])
        return region

    def _build_region(self, s: int) -> RegionComplex:
        """The region of class s: the class above the top grading is served
        as the region at top, a class below its mirror as its mirror's
        region, and every other class builds its own, its boundary's rows
        written by one loop over the arcs."""
        if s > (top := self.top):
            # Every upower is 0 above top as at it: serve that one region,
            # with its one kernel and homology.
            return self.region_complex(top)
        if (mirror := self._mirror_class(s)) > s:
            # A class below its mirror is read through the flip as its
            # mirror's region, as the module docstring proves.
            return self.region_complex(mirror)
        _, alexander, _, units, arcs = self._order
        upowers = [a - s if a > s else 0 for a in alexander]
        # One element per generator, so a term stays inside exactly when it
        # lands on its target's one upower.
        masks = [0] * len(units)
        for col, row, m in arcs:
            if upowers[row] == upowers[col] + m:
                # A row's first bit keeps the shared unit mask, so the
                # single-bit rows of every region share one int per
                # generator; 0 ^ unit would make a fresh int.
                mask = masks[row]
                masks[row] = mask ^ units[col] if mask else units[col]
        return RegionComplex(s, F2Matrix(len(units), tuple(masks)))

    def _mirror_class(self, s: int) -> int:
        """The mirror of class s, the class of -s, for a complex with a flip;
        s itself without one, since only the flip maps HatA(s) to HatA(-s)."""
        return self.alexander_class(-s) if self.flip_map is not None else s

    @lazy
    def _flip_index(self) -> tuple[int, ...]:
        """The flip as a permutation of the generator order: entry i is the
        position of flip(x_i), one of the ints of ``index``.  Read only on a
        valid complex with a flip."""
        ids, _, index, _, _ = self._order
        flip = self.flip_map
        return tuple(index[flip[gid]] for gid in ids)

    # -- the canonical maps -------------------------------------------------

    def _from_hat_a(self, s: int, index: list[int]) -> FilteredChainMap:
        """The chain map HatA(s) -> HatB with this index map."""
        return FilteredChainMap(self.region_complex(s), self.region_complex(self.top), index)

    def v_hat(self, s: int) -> FilteredChainMap:
        """Vertical projection HatA(s) -> HatB: keep the i = 0 part.  Element
        i goes to element i when alexander(x_i) <= s, and to zero otherwise.
        For a class below its mirror class m it is h_hat(m), as the module
        docstring proves.

        Memoized under the class of s; finding it validates the complex."""
        s = self.alexander_class(s)
        if (v := self._memo.get(("v", s))) is not None:
            return v
        if (mirror := self._mirror_class(s)) > s:
            v = self.h_hat(mirror)
        else:
            _, alexander, index, _, _ = self._order
            # The positions are the ints of ``index``, shared by every map.
            v = self._from_hat_a(s, [i if a <= s else -1 for i, a in zip(index.values(), alexander)])
        self._memo["v", s] = v
        return v

    def h_hat(self, s: int) -> FilteredChainMap:
        """Horizontal map HatA(s) -> HatB.

        Project onto the j = s part, shift it to j = 0 with U^s, then
        apply the flip.  On the canonical bases the composite sends
        (x, k) to (flip(x), 0) exactly when alexander(x) >= s, so element
        i goes to element index(flip(x_i)) then, and to zero otherwise.
        For a class below its mirror class m it is v_hat(m), as the module
        docstring proves.  Memoized under the class of s, which validates
        the complex before the flip check.
        """
        s = self.alexander_class(s)
        if (h := self._memo.get(("h", s))) is not None:
            return h
        self.require_flip()
        if (mirror := self._mirror_class(s)) > s:
            h = self.v_hat(mirror)
        else:
            alexander = self._order[1]
            h = self._from_hat_a(s, [f if a >= s else -1 for f, a in zip(self._flip_index, alexander)])
        self._memo["h", s] = h
        return h

    # -- the essential summand --------------------------------------------------

    @lazy
    def _split(self) -> tuple:
        """``(P, zmask)``: the essential summand P and the mask of the
        generator positions of the acyclic rest Z, as the module docstring
        defines them.  Found on first read, which validates the complex, by
        one search over the arcs and the flip pairs from the lowest bit of
        each of HatB's cocycle classes: each class lies in one component,
        and P is what the search reaches.  When it reaches every element or
        none, P is the complex itself and the pair is (None, 0): holding the
        complex here would put it in a reference cycle, freed only by the
        garbage collector, with every region and map it holds."""
        ids, _, index, units, arcs = self._order
        if self.flip_map is None:
            return None, 0
        neighbours = [[f] for f in self._flip_index]
        for a, b, _ in arcs:
            neighbours[a].append(b)
            neighbours[b].append(a)
        kept = [False] * len(ids)
        stack = [y.bit_length() - 1 for y in self.region_complex(self.top).cocycles]
        while stack:
            if not kept[i := stack.pop()]:
                kept[i] = True
                stack += neighbours[i]
        if all(kept) or not any(kept):
            return None, 0
        # P is cut out of the columns by position: a generator, a term by its
        # source and a flip pair by its first generator.
        generators, differential, flip = self.columns

        def cut(columns, keep):
            return [list(compress(column, keep)) for column in columns]

        summand = CfkComplex(
            cut(generators, kept),
            cut(differential, [kept[a] for a, _, _ in arcs]),
            cut(flip, [kept[index[x]] for x in flip[0]]),
            self.name,
        )
        # A direct summand of a valid complex is valid, and has no smaller
        # summand with b = 0.
        summand._memo["validation"] = self.validate()
        vars(summand)["_split"] = (None, 0)
        return summand, sum(unit for unit, keep in zip(units, kept) if not keep)

    @property
    def essential_summand(self) -> "CfkComplex":
        """P: the union of the flip-invariant components with b > 0, which
        every homology-level read goes through.  Reading it validates."""
        return self._split[0] or self

    @memoized("acyclic_sum")
    def acyclic_sum(self) -> int:
        """z: the sum of dim H(HatA(s)) of the acyclic rest Z over |s| <
        genus, read one class run at a time, or 0 when nothing splits off.
        Z's cone has rank q * z at every slope p/q (``surgery`` says why).
        H(HatA(s)) of Z is read off this complex's own HatA(s): Z has
        |Z| - (the coboundary table's keys in Z) cycles, so its dimension
        is |Z| - 2 * (those keys), as the module docstring proves.
        Memoized, and found only when read, not by :meth:`genus`."""
        zmask = self._split[1]
        if not zmask:
            return 0
        g, size = self.genus(), zmask.bit_count()
        return sum(
            n * (size - 2 * sum(zmask >> key & 1 for key in self.region_complex(s).coboundaries))
            for s, n in self.class_runs(1 - g, g - 1)
        )

    # -- derived invariants ---------------------------------------------------

    @memoized("b_rank")
    def b_rank(self) -> int:
        """b, the total rank of the homology of HatB: the number of HatB's
        cocycle classes on the whole complex, memoized.  The genus, the
        chain route's check of rank d_B and the ambient rank of
        ``complement`` read it, and no split or homology basis is built;
        route two reads its own b off the essential summand's homology
        basis."""
        return len(self.region_complex(self.top).cocycles)

    @memoized("genus")
    def genus(self) -> int:
        """Largest s with v_hat(s - 1) not a homology isomorphism, or 0,
        read off HatB's cocycle classes and the coboundary table of each
        HatA(t), on the whole complex: no cycle basis or homology basis is
        built and no split read.

        Let y range over HatB's b cocycle classes and N over a basis of
        the cycles of HatA(t).  y . v_hat(t) . N pairs the classes of
        H(HatB) with the cycles, and a boundary pairs to zero, so its rank
        is the rank of v_hat(t) on homology, and the map's
        ``on_cocycles`` has that rank (its docstring proves it).  And
        dim H(HatA(t)) = dim - 2 rank d, rank d being the size of the
        region's coboundary table.  So v_hat(t) is a
        homology isomorphism exactly when both equal b.  A direct sum's map
        is one exactly when each summand's is, so a complex that splits
        needs no rule of its own.

        Whether v_hat(t) is one is constant on each class run of t, so the
        scan reads v_hat at the start of each run of 0..top - 1, from the
        top grading down, and a run from t of length n whose map is not one
        gives s = t + n.  v_hat(top) is the identity of HatB, so the scan
        stops below it and never builds it.
        """
        top = self.top  # validates first
        b = self.b_rank()
        for s, n in reversed(self.class_runs(0, top - 1)):
            if not f2.rank((v := self.v_hat(s)).on_cocycles) == b == v.source.dim - 2 * len(v.source.coboundaries):
                return s + n
        return 0

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        """The complex as JSON text, byte for byte
        ``json.dumps(data, indent=2) + "\\n"`` of the reference mapping
        ``data``: ``name``, then ``generators`` (``id``, ``alexander``, and
        ``maslov`` where it is not None), ``differential`` (``from``, ``to``,
        ``upower``) and, for a complex with a flip, ``flip`` (``from``,
        ``to``, one entry per generator with a partner, in generator order).

        The text is written from the columns.  ``indent`` turns json's C
        encoder off, so each column is encoded by one call of it instead,
        one value per line, and one template per generator, term and flip
        entry places the values.  The bytes are guaranteed for the types
        every parse and builder gives: str ids and name, int gradings and
        upowers, and an int or None for each Maslov grading.  An invalid
        complex is written too, its columns as they are."""
        (ids, alexander, maslov), differential, _ = self.columns
        generators = [
            _GENERATOR % cells if cells[2] != "null" else _UNGRADED % cells[:2]
            for cells in zip(_cells(ids), _cells(alexander), _cells(maslov))
        ]
        terms = [_TERM % cells for cells in zip(*map(_cells, differential))]
        text = '{\n  "name": %s,\n  "generators": %s,\n  "differential": %s' % (
            _encode(self.name),
            _array(generators),
            _array(terms),
        )
        if (flip := self.flip_map) is not None:
            paired = [gid for gid in ids if gid in flip]
            pairs = zip(_cells(paired), _cells([flip[gid] for gid in paired]))
            text += ',\n  "flip": ' + _array([_PAIR % cells for cells in pairs])
        return text + "\n}\n"

    @classmethod
    def from_json_dict(cls, data: dict) -> "CfkComplex":
        """Build a complex from parsed JSON, its columns filled straight from
        the entries.  Data of the wrong shape raises ValueError; the complex
        axioms are left to :meth:`validate`.

        Each list's shape is checked by the exact types of its entries and
        of each of their fields, one pass over the list each, so a bool
        never passes for an int, nor a subclass of int, str, list or dict
        for its base; no JSON text gives one.  The columns come from that
        pass alone.  A list that fails it is walked entry by entry by the
        same types, which names the first bad entry and raises."""
        if not isinstance(data, dict):
            raise ValueError(f"a complex must be a JSON object, not {type(data).__name__}")

        def columns(key: str, fields: dict, optional: str = "") -> list[list]:
            # One column per field of data[key], and one for ``optional``, a
            # field that may be missing or an int, checked after the shape
            # of every entry.
            items = data.get(key, [])
            names = [*fields, optional] if optional else [*fields]
            kinds = [(kind,) for kind in fields.values()] + [(int, type(None))]
            if type(items) is list and set(map(type, items)) <= {dict}:
                found = [list(map(dict.get, items, repeat(name))) for name in names]
                if all(set(map(type, column)).issubset(k) for column, k in zip(found, kinds)):
                    return found
            # The pass failed.  Walk the entries by the same exact types,
            # name the first one it failed on and raise.
            if type(items) is not list:
                raise ValueError(f"{key!r} must be a list")
            for item in items:
                if type(item) is not dict:
                    raise ValueError(f"every {key!r} entry must be an object, got {item!r}")
                for name, kind in fields.items():
                    if type(item.get(name)) is not kind:
                        raise ValueError(f"{key!r} entry {item!r} needs {kind.__name__} field {name!r}")
            # Every entry has its fields, so the pass failed on ``optional``.
            item = next(item for item in items if type(item.get(optional)) not in kinds[-1])
            raise ValueError(f"{key!r} entry {item!r} has a {optional} field that is not an int")

        return cls(
            columns("generators", {"id": str, "alexander": int}, "maslov"),
            columns("differential", {"from": str, "to": str, "upower": int}),
            columns("flip", {"from": str, "to": str}) if "flip" in data else None,
            data.get("name", "complex"),
        )

    @classmethod
    def from_json(cls, text: str) -> "CfkComplex":
        return cls.from_json_dict(json.loads(text))

    def __repr__(self) -> str:
        return f"CfkComplex({self.name!r}, {len(self.columns[0][0])} generators)"
