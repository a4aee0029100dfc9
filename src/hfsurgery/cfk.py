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
keeps only its boundary.  For s at or above the top Alexander grading
every upower is 0, and HatA(s) is the HatB region itself, one object
with one kernel and one homology basis.  The maps v_hat(s) and h_hat(s)
from HatA(s) to HatB are the vertical projection and the horizontal
projection composed with U^s and the flip involution, built straight
from that order.  Each sends an element to one element or to zero, so
it is held as a generator index map, with no matrix: v_hat(s) keeps
element i when alexander(x_i) <= s, and h_hat(s) sends it to the
position of flip(x_i) when alexander(x_i) >= s.  The chain-map check,
the maps' rows between HatB's cocycle classes, b of them, and the cycle
basis, and their matrices on homology all read the index.  The rows are
read off the cycles themselves, so no region keeps its cycles as rows.

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
:meth:`CfkComplex.class_runs` is the one place that finds the runs.

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
isomorphism Phi_s^-1 changes no rank, no image in H(HatB) and no meet of
images, and a cone column of class s read this way is the old column
moved by Phi_s, so the cone changes only by an isomorphism.  The middle
class and the classes at or above their mirrors build their regions and
both maps themselves, as does every class of a complex without a flip.

A complex with a flip splits along the connected components of the graph
with one edge per differential arc and one per flip pair.  Each component
is closed under the differential and the flip, so it is a flip-invariant
direct summand: every region, v_hat(s) and h_hat(s) is the direct sum of
its pieces on the components, and the cycles that one elimination of a
region's columns gives each lie in one component.  A component's homology
in a region of n of its elements with k of those cycles therefore has
dimension 2k - n.

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
union of the components that hold a class, built once as a complex of its
own in this complex's generator order; the acyclic rest Z, whose HatB has
no homology, is never built.  Z's v_hat(s) and h_hat(s) vanish on
homology, so Z adds nothing to the images the containment check and t
compare, or to nu, and those read P.  What Z does add is H(HatA(s)), and
:meth:`CfkComplex.acyclic_sum` sums its dimensions over |s| < genus, read
off the cycles of this complex's own regions, which the chain route
eliminates anyway.  b and the genus read no split: each has one rule on
the whole complex, Z included.  P is the complex itself when it has no
flip, when it is connected, or when no component, or every component,
holds a class.

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
from functools import cached_property, wraps
from itertools import chain, compress, repeat
from operator import add, itemgetter, sub

from . import f2
from .f2 import F2Matrix, HomologyBasis, InvalidComplexError
from .records import Frozen, setters


class FlipRequiredError(ValueError):
    """The operation needs a flip involution and none was supplied."""


class UnknownRegionError(ValueError):
    """The region tag is not one of the supported kinds."""


class HatA(tuple):
    """The tag of the region HatA(s), a memo key: the tuple (HatA, s),
    hashed and compared in C, so it equals no int, no (s,) and no HatB."""

    __slots__ = ()
    s = property(itemgetter(1))

    def __new__(cls, s: int):
        return tuple.__new__(cls, (cls, s))

    def __getnewargs__(self):
        return (self[1],)

    def __repr__(self) -> str:
        return f"HatA(s={self[1]!r})"


class HatB(tuple):
    """The tag of the region HatB, the tuple (HatB,)."""

    __slots__ = ()

    def __new__(cls):
        return tuple.__new__(cls, (cls,))

    def __getnewargs__(self):
        return ()

    def __repr__(self) -> str:
        return "HatB()"


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

    What a region caches is read off its boundary on first use: its
    cycles, its cocycle classes and its homology; it keeps no cycle rows.
    One elimination of the boundary's columns,
    :func:`f2.column_elimination`, gives both the cycles and the boundary
    space that the homology quotients them by, so whichever of the two is
    read first, the boundary is eliminated once.  The boundary space is
    held from the read of the cycles until the homology takes it over.  A
    region also serves the classes below its mirror class, read through
    the flip (the module docstring says how), so it is built only for a
    class at or above its mirror's.
    """

    def __init__(self, tag, boundary: F2Matrix):
        self.tag = tag
        self.boundary = boundary

    @cached_property
    def homology(self) -> HomologyBasis:
        """Homology basis, built on first read as the quotient of
        :attr:`cycles`.  The chain route, :meth:`CfkComplex.genus` and
        :meth:`CfkComplex.b_rank` included, never reads it."""
        cycles = self.cycles
        # Taken, not shared: the basis extends the table in place.  Two
        # threads may build the basis at once, and the one that finds the
        # table taken eliminates the boundary again.
        image = vars(self).pop("_image", None)
        if image is None:
            image = f2.column_elimination(self.boundary.transpose().data)[1]
        return HomologyBasis(self.boundary, cycles, image)

    @cached_property
    def cycles(self) -> tuple[int, ...]:
        """The region's one basis of its boundary's kernel, as column masks,
        built on first read: ``f2.kernel_basis(boundary)``, whose
        elimination leaves the boundary space for :attr:`homology`."""
        cycles, self._image = f2.column_elimination(self.boundary.transpose().data)
        return tuple(cycles)

    @cached_property
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
        :class:`f2.HomologyBasis` is built.  Only HatB's are read: their
        count is b, the genus and the chain route read them through
        ``on_cocycles``, and the essential summand by the component each
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

    @property
    def dim(self) -> int:
        return self.boundary.cols

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

    def _preimage(self) -> list[int]:
        """``preimage[r]``: the source element that goes to target element
        r, or -1.  Rebuilt on each read, not kept."""
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

    @cached_property
    def induced(self) -> F2Matrix:
        """Matrix on homology, built on first read; the map is applied to
        each homology representative by index."""
        return f2.induced_map_on_homology(self, self.source.homology, self.target.homology)

    @cached_property
    def on_cocycles(self) -> F2Matrix:
        """The map between the target's cocycle classes and the source's
        cycles, y . f . N, one row per vector y of ``target.cocycles``, b
        of them for HatB, and one column per vector of ``source.cycles``,
        built on first read.  Bit k of row y is the parity of f^T y & N_k,
        f^T y being y's bits moved to their preimages.  Only the classes
        are read because a coboundary, z . d, gives zero, since
        d . f = f . d and d . N = 0.  Only the chain route and the genus
        read it; the homological route applies the map to each homology
        representative instead."""
        cycles = self.source.cycles
        rows = tuple(
            sum(((pulled & cycle).bit_count() & 1) << k for k, cycle in enumerate(cycles))
            for pulled in move_bits(self.target.cocycles, self._preimage())
        )
        return F2Matrix(len(cycles), rows)

    @cached_property
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

    @cached_property
    def _order(self) -> tuple:
        """The generator order that HatA(s) and HatB are indexed by:
        ``(ids, alexander, index, units, arcs)``: the generator columns, the
        position ``index`` of each id, ``units[i] = 1 << i`` and the
        differential as arcs (source position, target position, upower),
        read off the term columns.  Built on the first region or map of a
        valid complex, not when the complex is made."""
        self.require_valid()
        (ids, alexander, _), (sources, targets, upowers), _ = self.columns
        index = dict(zip(ids, range(len(ids))))
        arcs = tuple(zip(map(index.__getitem__, sources), map(index.__getitem__, targets), upowers))
        return ids, alexander, index, tuple(1 << i for i in range(len(ids))), arcs

    @cached_property
    def alexander_cuts(self) -> tuple[int, ...]:
        """The sorted cuts, a and a + 1 for every Alexander grading a, where
        the class of s can change.  Read off the generator order, so
        reading them validates the complex."""
        return tuple(sorted({cut for a in self._order[1] for cut in (a, a + 1)}))

    def class_runs(self, lo: int, hi: int) -> list[tuple[int, int]]:
        """The runs of one Alexander class in lo..hi, as (start, length): one
        run starts at lo and one at each cut above it, and there is none when
        lo > hi.  HatA(s), v_hat(s) and h_hat(s) are one object across a run,
        so every scan over s reads these runs, one region or map per run."""
        cuts = self.alexander_cuts
        starts = [lo, *cuts[bisect_right(cuts, lo):bisect_right(cuts, hi)], hi + 1]
        return [(s, stop - s) for s, stop in zip(starts, starts[1:]) if lo <= hi]

    def alexander_class(self, s: int) -> int:
        """The class of s: the largest cut at or below s, or the lowest cut
        less one below them all.  The module docstring says why s and its
        class give the same region and maps."""
        i = bisect_right(self.alexander_cuts, s)
        return self.alexander_cuts[i - 1] if i else self.alexander_cuts[0] - 1

    def region_complex(self, tag) -> RegionComplex:
        """The region of this tag, HatA(s) memoized under the class of s."""
        if isinstance(tag, HatA):
            s = self.alexander_class(tag.s)
            tag = tag if s == tag.s else HatA(s)
        if (region := self._memo.get(key := ("region", tag))) is None:
            region = self._memo[key] = self._build_region(tag)
        return region

    def _build_region(self, tag) -> RegionComplex:
        _, alexander, _, units, arcs = self._order
        top = self.alexander_cuts[-1] - 1  # the top Alexander grading
        if isinstance(tag, HatA):
            if tag.s >= top:
                # Every upower is 0, so HatA(s) is HatB element for element:
                # serve that one region, with its one kernel and homology.
                return self.region_complex(HatB())
            if (mirror := self._mirror_class(tag.s)) > tag.s:
                # A class below its mirror is read through the flip as its
                # mirror's region, as the module docstring proves.
                return self.region_complex(HatA(mirror))
        elif not isinstance(tag, HatB):
            raise UnknownRegionError(f"unknown region tag {tag!r}")
        # HatB has every upower 0, as HatA(top) has.
        s = tag.s if isinstance(tag, HatA) else top
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
        return RegionComplex(tag, F2Matrix(len(units), tuple(masks)))

    def _mirror_class(self, s: int) -> int:
        """The mirror of class s, the class of -s, for a complex with a flip;
        s itself without one, since only the flip maps HatA(s) to HatA(-s)."""
        return self.alexander_class(-s) if self.flip_map is not None else s

    @cached_property
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
        return FilteredChainMap(self.region_complex(HatA(s)), self.region_complex(HatB()), index)

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

    @cached_property
    def _split(self) -> tuple:
        """``(P, zmask)``: the essential summand P and the mask of the
        generator positions of the acyclic rest Z, as the module docstring
        defines them.  Found on first read, which validates the complex, by
        one union-find over the arcs and the flip pairs.  When P is the
        complex itself the pair is (None, 0): holding the complex here would
        put it in a reference cycle, freed only by the garbage collector,
        with every region and map it holds."""
        ids, _, index, units, arcs = self._order
        if self.flip_map is None:
            return None, 0
        n = parts = len(ids)
        # Each root is the least position of its component, so one pass in
        # ascending order then points every position at its root.  Most
        # knot complexes are connected, so the edges stop at one component.
        root = list(range(n))
        for a, b in chain(((a, b) for a, b, _ in arcs), enumerate(self._flip_index)):
            if parts == 1:
                break
            while root[a] != a:
                root[a] = a = root[root[a]]
            while root[b] != b:
                root[b] = b = root[root[b]]
            if a != b:
                root[max(a, b)] = min(a, b)
                parts -= 1
        if parts == 1:
            return None, 0
        for i in range(n):
            root[i] = root[root[i]]
        # A component has b > 0 exactly when it holds one of HatB's cocycle
        # classes.  Their elimination reduces a vector only by the pivot at
        # one of its own bits, and a boundary row's bits lie in its
        # element's component, so every pivot, cocycle and coboundary lies
        # in one component, and so does each class.  The classes in a
        # component C are independent modulo C's coboundaries, so there are
        # at most b_C of them, and b of them in all: exactly b_C.
        essential = {root[y.bit_length() - 1] for y in self.region_complex(HatB()).cocycles}
        if not essential or len(essential) == parts:
            return None, 0
        # P is cut out of the columns by position: a generator, a term by its
        # source and a flip pair by its first generator.
        kept = [r in essential for r in root]
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
        H(HatA(s)) of Z is read off this complex's own HatA(s): its
        dimension is 2 * (the cycles in Z) - (Z's size).  Memoized, and
        found only when read, not by :meth:`genus`."""
        zmask = self._split[1]
        if not zmask:
            return 0
        g = self.genus()
        return sum(
            n * (2 * sum(1 for c in self.region_complex(HatA(s)).cycles if c & zmask) - zmask.bit_count())
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
        return len(self.region_complex(HatB()).cocycles)

    @memoized("genus")
    def genus(self) -> int:
        """Largest s with v_hat(s - 1) not a homology isomorphism, or 0,
        read off HatB's cocycle classes and the cycles of each HatA(t), on
        the whole complex: no homology basis is built and no split read.

        Let y range over HatB's b cocycle classes and N over the cycles of
        HatA(t).  y . v_hat(t) . N, the map's ``on_cocycles``, pairs the
        classes of H(HatB) with the cycles, and a boundary pairs to zero,
        so its rank is the rank of v_hat(t) on homology; and
        dim H(HatA(t)) = |N| - rank d = 2|N| - dim.  So v_hat(t) is a
        homology isomorphism exactly when both equal b.  A direct sum's map
        is one exactly when each summand's is, so a complex that splits
        needs no rule of its own.

        Whether v_hat(t) is one is constant on each class run of t, so the
        scan reads v_hat at the start of each run of 0..top - 1, from the
        top grading down, and a run from t of length n whose map is not one
        gives s = t + n.  v_hat(top) is the identity of HatB, so the scan
        stops below it and never builds it.
        """
        top = self.alexander_cuts[-1] - 1  # validates first
        b = self.b_rank()
        for s, n in reversed(self.class_runs(0, top - 1)):
            if not f2.rank((v := self.v_hat(s)).on_cocycles) == b == 2 * len(v.source.cycles) - v.source.dim:
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
