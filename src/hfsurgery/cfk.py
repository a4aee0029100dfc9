"""Bifiltered knot Floer complexes over GF(2) and their finite regions.

A complex is generated over F2[U, U^-1] by named generators.  The U^0
copy of a generator x sits at lattice point (0, alexander(x)) and U^k x
sits at (-k, alexander(x) - k), so j - i = alexander(x) along the whole
U-tower.  Differentials are U-equivariant and every term strictly drops
at least one filtration coordinate (the complex is reduced).

The finite hat-flavor regions that the surgery mapping cone reads are
level sets of the (i, j) filtration:

    HatA(s)  max(i, j - s) = 0      one basis element per generator
    HatB     i = 0                  one basis element per generator

with the induced differential keeping exactly the components that stay
inside the region.  HatA(s) and HatB hold one copy of each generator, in
the complex's generator order: element i is U^k x_i with
k = max(0, alexander(x_i) - s) in HatA(s) and k = 0 in HatB.  A region
keeps only its boundary.  For s at or above the top Alexander grading
every upower is 0, and HatA(s) is the HatB region itself, one object with one kernel and one
homology basis.  The maps v_hat(s) and h_hat(s) from HatA(s) to HatB are
the vertical projection and the horizontal projection composed with U^s
and the flip involution, built straight from that order.  Each sends an
element to one element or to zero, so it is held as a generator index
map, with no matrix: v_hat(s) keeps element i when alexander(x_i) <= s,
and h_hat(s) sends it to the position of flip(x_i) when
alexander(x_i) >= s.  The chain-map check, the maps' rows between HatB's
cocycle classes, b of them, and the cycle basis, and their matrices on
homology all read the index.  The rows are read off the cycles
themselves, so no region keeps its cycles as rows.

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
math/0504404), and ``cfk`` reads h_hat(s) and half of the regions' cycles
through it.  The flip sends U^k x to U^(k - A(x)) flip(x), which sits at
(j, i) when U^k x sits at (i, j), so Phi_s = U^s o flip sends (i, j) to
(j - s, i - s) and the level set max(i, j - s) = 0 onto
max(i', j' + s) = 0.  Validation checks that the flip commutes with the
differential, so Phi_s is a chain isomorphism HatA(s) -> HatA(-s), and it
sends the one copy of x_i to the one copy of flip(x_i): element i goes to
element flip[i], the flip permutation of the generator order.  It lands
in i' = 0 exactly when j = s, so h_hat(s) = v_hat(-s) o Phi_s: v_hat(-s)
keeps element flip[i] when A(flip(x_i)) = -A(x_i) <= -s, which is
h_hat(s)'s rule.  Validation also checks A(flip(x)) = -A(x), so the
gradings, and with them the cuts a and a + 1, are symmetric under
s -> 1 - s: the run of a class from a cut c to the next cut c' - 1 goes
to the run from 1 - c' to -c, and the classes mirror exactly.  The run
that contains 0 goes to itself; it is the one self-conjugate class, the
middle one.
A region whose class lies below its mirror's (``alexander_class(-s) > s``)
is a :class:`MirroredRegion`: it takes the mirror's cycles moved through
the flip permutation, in the mirror's order, and their rows permuted,
with no elimination.  Phi_s being a chain isomorphism, they are a basis
of its cycles.  The two bases then correspond under Phi_s on every class
but the middle one, and so do the homology bases built on them: a
:class:`f2.HomologyBasis` picks cycle k exactly when it is independent of
the boundary space and the cycles picked before it, Phi_s maps boundary
space onto boundary space, so both sides pick the same k, and ``coords``
of Phi_s(z) on one side is ``coords`` of z on the other.  Hence every
matrix a map out of HatA(-s) has on the cycle basis or on homology is the
matrix of that map composed with Phi_s, and h_hat(s)'s ``on_cocycles``,
``induced`` and ``induced_rank`` are exactly those of v_hat of the mirror
class.  :meth:`CfkComplex.h_read` returns that map; h_hat(s) itself is
built, and chain-map checked, only where it is asked for, which the rank
routes do for the middle class alone: there HatA(s) is its own mirror,
and Phi_s is an automorphism of it that need not fix its one basis.

A complex with a flip splits along the connected components of the graph
with one edge per differential arc and one per flip pair.  Each component
is closed under the differential and the flip, so it is a flip-invariant
direct summand: every region, v_hat(s) and h_hat(s) is the direct sum of
its pieces on the components, and the cycles that one elimination of a
region's columns gives each lie in one component.  A component's homology
in a region of n of its elements with k of those cycles therefore has
dimension 2k - n.  Read off the cycles of HatB, that is the component's b.
The *essential summand* P is the union of the components with b > 0,
built once as a complex of its own in this complex's generator order; the
acyclic rest Z, whose HatB has no homology, is never built.  Z's v_hat(s)
and h_hat(s) vanish on homology, so Z adds nothing to b, to the images
the containment check and t compare, or to nu, and all of those read P.
What Z does add is H(HatA(s)): its genus is one more than the largest
s >= 0 with H(HatA(s)) of Z nonzero, and :meth:`CfkComplex.acyclic_sum`
sums its dimensions over |s| < genus, both read off the cycles of this
complex's own regions, which the chain route eliminates anyway.  P is the
complex itself when it has no flip, when it is connected, or when no
component, or every component, has b = 0.

This module owns the precondition policy and checks it where data is
built.  Regions, the genus and the hfk counts need a valid complex
(:meth:`CfkComplex.require_valid`); h_hat and h_read also need a flip
(:meth:`CfkComplex.require_flip`).  A memoized value implies that its
checks passed, so a memo hit repeats none of them.  A caller that reads
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
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from . import f2
from .f2 import F2Matrix, HomologyBasis, InvalidComplexError


class FlipRequiredError(ValueError):
    """The operation needs a flip involution and none was supplied."""


class UnknownRegionError(ValueError):
    """The region tag is not one of the supported kinds."""


@dataclass(frozen=True)
class Generator:
    """One F2[U, U^-1] generator; maslov is metadata and never computed with."""

    id: str
    alexander: int
    maslov: int | None = None


@dataclass(frozen=True)
class DiffTerm:
    """The differential of ``source`` contains the term U^upower * target."""

    source: str
    target: str
    upower: int


@dataclass(frozen=True)
class FlipPair:
    """Generator pairing inducing the filtration-swapping involution.

    The involution sends x to U^(-alexander(x)) * partner(x), extended
    U-equivariantly; it must commute with the differential.
    """

    source: str
    target: str


@dataclass(frozen=True)
class HatA:
    s: int


@dataclass(frozen=True)
class HatB:
    pass


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.issues

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(str(issue) for issue in self.issues)


def move_bits(masks, to) -> list[int]:
    """Each mask with each bit b moved to bit ``to[b]``, or dropped where
    that is -1: a chain map for ``to = index`` and its transpose for the
    preimage, and the flip permutation for a mirrored region's cycles.

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
    :class:`MirroredRegion` reads its cycles off its mirror instead, and
    eliminates its boundary only if its homology is read.
    """

    def __init__(self, tag, boundary: F2Matrix):
        self.tag = tag
        self.boundary = boundary

    @cached_property
    def homology(self) -> HomologyBasis:
        """Homology basis, built on first read as the quotient of
        :attr:`cycles`: the chain route never reads it beyond the regions
        that :meth:`CfkComplex.genus` inspects."""
        cycles = self.cycles
        # Taken, not shared: the basis extends the table in place.  Two
        # threads may build the basis at once, and the one that finds the
        # table taken eliminates the boundary again.  A mirrored region
        # never holds one.
        image = vars(self).pop("_image", None)
        if image is None:
            image = f2.column_elimination(self.boundary.transpose().data)[1]
        return HomologyBasis(self.boundary, cycles, image)

    @cached_property
    def cycles(self) -> tuple[int, ...]:
        """The region's one basis of its boundary's kernel, as column masks,
        built on first read: ``f2.kernel_basis(boundary)`` for a region
        built directly, whose elimination leaves the boundary space for
        :attr:`homology`.  A :class:`MirroredRegion` moves its mirror's
        basis instead, which is a basis of the same kernel but not, in
        general, the one ``kernel_basis`` gives."""
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
        :class:`f2.HomologyBasis` is built, so the chain route, which alone
        reads them (HatB's, through ``on_cocycles``), stays apart from the
        homology the other route reads."""
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


class MirroredRegion(RegionComplex):
    """HatA(s) for a class s below its mirror class, whose cycles are its
    mirror's moved through the flip permutation ``flip``.

    The ``cfk`` module docstring proves that element i of HatA(s) going to
    element flip[i] of HatA(-s) is a chain isomorphism, so the moved basis
    is a basis of this region's cycles, in the mirror's order.  Cycle k here
    is the image of the mirror's cycle k, read with no elimination.
    """

    def __init__(self, tag, boundary: F2Matrix, mirror: RegionComplex, flip: tuple[int, ...]):
        super().__init__(tag, boundary)
        self.mirror = mirror
        self.flip = flip

    @cached_property
    def cycles(self) -> tuple[int, ...]:
        return tuple(move_bits(self.mirror.cycles, self.flip))


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
        d . f = f . d and d . N = 0.  Only the chain route reads it; the
        homological route applies the map to each homology representative
        instead."""
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


class CfkComplex:
    """A reduced bifiltered complex, immutable once built.

    Derived regions, maps and homology data are memoized; every public
    operation is pure, so sharing one instance between threads is safe.
    """

    def __init__(self, generators, differential, flip=None, name: str = "complex"):
        # The name is printed on its own line and as a TSV cell, so it holds
        # no control character (Cc) and no line or paragraph separator
        # (Zl, Zp), which str.splitlines() also splits on.
        if not isinstance(name, str):
            raise ValueError(f"'name' must be a string, got {name!r}")
        if any(unicodedata.category(ch) in ("Cc", "Zl", "Zp") for ch in name):
            raise ValueError(
                f"'name' must not contain control characters or line separators, got {name!r}"
            )
        self.generators: tuple[Generator, ...] = tuple(generators)
        self.differential: tuple[DiffTerm, ...] = tuple(differential)
        self.flip_pairs: tuple[FlipPair, ...] | None = (
            tuple(flip) if flip is not None else None
        )
        self.name = name
        self.alexander: dict[str, int] = {}
        for g in self.generators:
            self.alexander.setdefault(g.id, g.alexander)
        self._terms_by_source: dict[str, list[tuple[str, int]]] = {
            g.id: [] for g in self.generators
        }
        for t in self.differential:
            if t.source in self._terms_by_source:
                self._terms_by_source[t.source].append((t.target, t.upower))
        self.flip_map: dict[str, str] | None = None
        self._flip_issues: list[ValidationIssue] = []
        if self.flip_pairs is not None:
            self._build_flip_map()
        self._memo: dict = {}

    def cached(self, key, compute):
        """The value memoized under ``key``, computed by ``compute()`` on a miss.

        A value is stored only once ``compute`` returns, so a check it makes,
        such as :meth:`require_valid`, need not be repeated on a hit."""
        try:
            return self._memo[key]
        except KeyError:
            pass
        value = self._memo[key] = compute()
        return value

    # -- construction helpers -------------------------------------------

    def _build_flip_map(self):
        mapping: dict[str, str] = {}
        for pair in self.flip_pairs:
            for a, b in ((pair.source, pair.target), (pair.target, pair.source)):
                if a in mapping and mapping[a] != b:
                    self._flip_issues.append(
                        ValidationIssue(
                            "flip-conflict",
                            f"generator {a!r} paired with both {mapping[a]!r} and {b!r}",
                        )
                    )
                mapping[a] = b
        for g in self.generators:
            if g.id not in mapping:
                self._flip_issues.append(
                    ValidationIssue("flip-missing", f"generator {g.id!r} has no flip partner")
                )
        self.flip_map = mapping

    def renamed(self, name: str) -> "CfkComplex":
        return CfkComplex(self.generators, self.differential, self.flip_pairs, name)

    # -- validation ------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Check every structural invariant; collects failures, never raises."""
        return self.cached("validation", self._collect_issues)

    def _collect_issues(self) -> ValidationReport:
        issues: list[ValidationIssue] = []
        if not self.generators:
            # HatB would be zero, and HF-hat of a closed 3-manifold never is.
            issues.append(ValidationIssue("empty", "complex has no generators"))
        seen_ids = set()
        for g in self.generators:
            if g.id in seen_ids:
                issues.append(ValidationIssue("duplicate-id", f"generator {g.id!r} repeated"))
            seen_ids.add(g.id)
        seen_terms = set()
        for t in self.differential:
            key = (t.source, t.target, t.upower)
            if key in seen_terms:
                issues.append(
                    ValidationIssue("duplicate-term", f"term {t.source!r}->{t.target!r} U^{t.upower} repeated")
                )
            seen_terms.add(key)
            if t.source not in self.alexander or t.target not in self.alexander:
                issues.append(
                    ValidationIssue("unknown-generator", f"term {t.source!r}->{t.target!r} names a missing generator")
                )
                continue
            if t.upower < 0:
                issues.append(
                    ValidationIssue("negative-upower", f"term {t.source!r}->{t.target!r} has U^{t.upower}")
                )
                continue
            a_from = self.alexander[t.source]
            a_to = self.alexander[t.target]
            if a_to - t.upower > a_from:
                issues.append(
                    ValidationIssue(
                        "filtration",
                        f"term {t.source!r}->{t.target!r} U^{t.upower} raises the j filtration",
                    )
                )
            if t.upower == 0 and a_to == a_from:
                issues.append(
                    ValidationIssue(
                        "reduced",
                        f"term {t.source!r}->{t.target!r} drops neither filtration coordinate",
                    )
                )
        terms_ok = not any(
            i.code in ("unknown-generator", "negative-upower") for i in issues
        )
        if terms_ok:
            issues.extend(self._check_d_squared())
        if self.flip_pairs is not None:
            issues.extend(self._check_flip(terms_ok))
        return ValidationReport(tuple(issues))

    def _check_d_squared(self) -> list[ValidationIssue]:
        # A plain dict per generator: a Counter costs a Python-level call
        # per term.  Only the odd counts are sorted.
        issues = []
        terms = self._terms_by_source
        for x, out in terms.items():
            acc: dict[tuple[str, int], int] = {}
            for y, k1 in out:
                for z, k2 in terms.get(y, ()):
                    key = (z, k1 + k2)
                    acc[key] = acc.get(key, 0) + 1
            odd = [item for item in acc.items() if item[1] % 2]
            for (z, k), count in sorted(odd):
                issues.append(
                    ValidationIssue(
                        "d-squared",
                        f"d^2({x!r}) contains U^{k} {z!r} with odd multiplicity {count}",
                    )
                )
        return issues

    def _check_flip(self, terms_ok: bool) -> list[ValidationIssue]:
        issues = list(self._flip_issues)
        mapping = self.flip_map or {}
        for x, y in sorted(mapping.items()):
            if y not in self.alexander:
                issues.append(ValidationIssue("flip-unknown", f"flip maps {x!r} to missing {y!r}"))
            elif mapping.get(y) != x:
                issues.append(ValidationIssue("flip-involution", f"flip is not an involution at {x!r}"))
            elif x in self.alexander and self.alexander[y] != -self.alexander[x]:
                issues.append(
                    ValidationIssue(
                        "flip-alexander",
                        f"flip pairs {x!r} (A={self.alexander[x]}) with {y!r} (A={self.alexander[y]})",
                    )
                )
        if issues or not terms_ok:
            return issues
        # Commutation of the induced module map with the differential, at
        # generator level: compare U-exponents relative to the source tower.
        # Each term of either side toggles its key in one parity set, so the
        # sides agree mod 2 exactly when the set ends empty, and a duplicated
        # term cancels itself.
        terms, alexander = self._terms_by_source, self.alexander
        for x, out in terms.items():
            odd: set[tuple[str, int]] = set()
            a_x = alexander[x]
            for w, m in terms.get(mapping[x], ()):
                key = (w, m - a_x)
                if key in odd:
                    odd.remove(key)
                else:
                    odd.add(key)
            for y, k in out:
                key = (mapping[y], k - alexander[y])
                if key in odd:
                    odd.remove(key)
                else:
                    odd.add(key)
            if odd:
                issues.append(
                    ValidationIssue("flip-commute", f"flip does not commute with the differential at {x!r}")
                )
        return issues

    def require_valid(self) -> None:
        report = self.validate()
        if not report.ok:
            raise InvalidComplexError(f"complex {self.name!r} is invalid:\n{report}")

    @property
    def has_flip(self) -> bool:
        return self.flip_pairs is not None

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
        for g in sorted(self.generators, key=lambda g: g.alexander):
            profile[g.alexander] = profile.get(g.alexander, 0) + 1
        return profile

    # -- regions -----------------------------------------------------------

    @cached_property
    def _order(self) -> tuple:
        """The generator order that HatA(s) and HatB are indexed by:
        ``(ids, alexander, index, units, arcs)``, with ``index`` the position
        of each id, ``units[i] = 1 << i`` and the differential as arcs
        (source position, target position, upower).  Built on the first
        region or map of a valid complex, not when the complex is made."""
        self.require_valid()
        ids = tuple(g.id for g in self.generators)
        index = {gid: i for i, gid in enumerate(ids)}
        arcs = tuple((index[t.source], index[t.target], t.upower) for t in self.differential)
        alexander = tuple(g.alexander for g in self.generators)
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
        return self.cached(("region", tag), lambda: self._build_region(tag))

    def _build_region(self, tag) -> RegionComplex:
        _, alexander, _, units, arcs = self._order
        top = self.alexander_cuts[-1] - 1  # the top Alexander grading
        if isinstance(tag, HatA) and tag.s >= top:
            # Every upower is 0, so HatA(s) is HatB element for element:
            # serve that one region, with its one kernel and homology.
            return self.region_complex(HatB())
        if not isinstance(tag, (HatA, HatB)):
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
        boundary = F2Matrix(len(units), tuple(masks))
        if self.flip_map is not None and (mirror := self.alexander_class(-s)) > s:
            # A class below its mirror: its cycles are the mirror's, moved.
            return MirroredRegion(tag, boundary, self.region_complex(HatA(mirror)), self._flip_index)
        return RegionComplex(tag, boundary)

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

        Memoized under the class of s; finding it validates the complex."""
        s = self.alexander_class(s)

        def build() -> FilteredChainMap:
            _, alexander, index, _, _ = self._order
            # The positions are the ints of ``index``, shared by every map.
            return self._from_hat_a(s, [i if a <= s else -1 for i, a in zip(index.values(), alexander)])

        return self.cached(("v", s), build)

    def h_hat(self, s: int) -> FilteredChainMap:
        """Horizontal map HatA(s) -> HatB.

        Project onto the j = s part, shift it to j = 0 with U^s, then
        apply the flip.  On the canonical bases the composite sends
        (x, k) to (flip(x), 0) exactly when alexander(x) >= s, so element
        i goes to element index(flip(x_i)) then, and to zero otherwise.
        Memoized under the class of s, which validates the complex before
        the flip check.  The rank routes read it through :meth:`h_read`.
        """
        s = self.alexander_class(s)

        def build() -> FilteredChainMap:
            alexander = self._order[1]
            self.require_flip()
            return self._from_hat_a(s, [f if a >= s else -1 for f, a in zip(self._flip_index, alexander)])

        return self.cached(("h", s), build)

    def h_read(self, s: int) -> FilteredChainMap:
        """The map to read h_hat(s) off: its ``on_cocycles``, ``induced`` and
        ``induced_rank`` are h_hat(s)'s.  For every class but the middle one
        it is v_hat of the mirror class, h_hat(s) = v_hat(-s) o Phi_s, as the
        module docstring proves; only the middle class builds h_hat itself.
        Finding the class validates the complex before the flip check."""
        s = self.alexander_class(s)
        self.require_flip()
        mirror = self.alexander_class(-s)
        return self.h_hat(s) if mirror == s else self.v_hat(mirror)

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
        size = Counter(root)
        kernel = Counter(root[c.bit_length() - 1] for c in self.region_complex(HatB()).cycles)
        essential = {r for r, k in kernel.items() if 2 * k > size[r]}
        if not essential or len(essential) == len(size):
            return None, 0
        kept = {i for i in range(n) if root[i] in essential}
        summand = CfkComplex(
            [g for i, g in enumerate(self.generators) if i in kept],
            [t for t, (a, _, _) in zip(self.differential, arcs) if a in kept],
            [pair for pair in self.flip_pairs if index[pair.source] in kept],
            self.name,
        )
        # A direct summand of a valid complex is valid, and has no smaller
        # summand with b = 0.
        summand._memo["validation"] = self.validate()
        vars(summand)["_split"] = (None, 0)
        return summand, sum(units[i] for i in range(n) if i not in kept)

    @property
    def essential_summand(self) -> "CfkComplex":
        """P: the union of the flip-invariant components with b > 0, which
        every homology-level read goes through.  Reading it validates."""
        return self._split[0] or self

    def _acyclic_homology(self, s: int) -> int:
        """dim H(HatA(s)) of the acyclic rest Z, from the cycles of this
        complex's own HatA(s): 2 * (its cycles in Z) - (Z's size)."""
        zmask = self._split[1]
        return 2 * sum(1 for c in self.region_complex(HatA(s)).cycles if c & zmask) - zmask.bit_count()

    def acyclic_sum(self) -> int:
        """z: the sum of dim H(HatA(s)) of the acyclic rest Z over |s| <
        genus, read one class run at a time, or 0 when nothing splits off.
        Z's cone has rank q * z at every slope p/q (``surgery`` says why).
        Memoized, and found only when read, not by :meth:`genus`."""
        if self._split[0] is None:
            return 0

        def total() -> int:
            g = self.genus()
            return sum(n * self._acyclic_homology(s) for s, n in self.class_runs(1 - g, g - 1))

        return self.cached("acyclic_sum", total)

    # -- derived invariants ---------------------------------------------------

    def b_rank(self) -> int:
        """Total rank of the homology of HatB, read on the essential summand
        and memoized."""
        return self.cached("b_rank", lambda: self.essential_summand.region_complex(HatB()).homology.dim)

    def genus(self) -> int:
        """Largest s with v_hat(s - 1) not a homology isomorphism, or 0.

        Whether v_hat(t) is one is constant on each class run of t, so the
        scan reads v_hat at the start of each run of 0..top grading, from the
        top, and a run from t of length n whose map is not one gives
        s = t + n.  v_hat(top grading) is already the identity of HatB, so
        the scan stops there: going past it would build one more identity.

        A direct sum's map is an isomorphism exactly when each summand's
        is, so a complex that splits has the larger of the genus of its
        essential summand P and that of its acyclic rest Z.  Z's v_hat(t)
        is one exactly when H(HatA(t)) of Z is 0, so Z is scanned, on this
        complex's own regions, only from the top down to P's genus.
        """

        def scan() -> int:
            essential, top = self.essential_summand, self.alexander_cuts[-1] - 1  # validates first
            if essential is not self:
                g = essential.genus()
                runs = reversed(self.class_runs(g, top - 1))
                return next((s + n for s, n in runs if self._acyclic_homology(s)), g)
            for s, n in reversed(self.class_runs(0, top)):
                if not (v := self.v_hat(s)).induced_rank == v.source.homology.dim == v.target.homology.dim:
                    return s + n
            return 0

        return self.cached("genus", scan)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        data: dict = {
            "name": self.name,
            "generators": [
                {"id": g.id, "alexander": g.alexander}
                | ({"maslov": g.maslov} if g.maslov is not None else {})
                for g in self.generators
            ],
            "differential": [
                {"from": t.source, "to": t.target, "upower": t.upower}
                for t in self.differential
            ],
        }
        if self.flip_pairs is not None:
            data["flip"] = [
                {"from": g.id, "to": self.flip_map[g.id]}
                for g in self.generators
                if g.id in self.flip_map
            ]
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    @classmethod
    def from_json_dict(cls, data: dict) -> "CfkComplex":
        """Build a complex from parsed JSON.  Data of the wrong shape raises
        ValueError; the complex axioms are left to :meth:`validate`."""
        if not isinstance(data, dict):
            raise ValueError(f"a complex must be a JSON object, not {type(data).__name__}")

        def entries(key: str, fields: dict) -> list[dict]:
            items = data.get(key, [])
            if not isinstance(items, list):
                raise ValueError(f"{key!r} must be a list")
            for item in items:
                if not isinstance(item, dict):
                    raise ValueError(f"every {key!r} entry must be an object, got {item!r}")
                for name, kind in fields.items():
                    value = item.get(name)
                    if not isinstance(value, kind) or isinstance(value, bool):
                        raise ValueError(
                            f"{key!r} entry {item!r} needs {kind.__name__} field {name!r}"
                        )
            return items

        gens = []
        for g in entries("generators", {"id": str, "alexander": int}):
            maslov = g.get("maslov")
            if maslov is not None and (not isinstance(maslov, int) or isinstance(maslov, bool)):
                raise ValueError(f"'generators' entry {g!r} has a maslov field that is not an int")
            gens.append(Generator(g["id"], g["alexander"], maslov))
        terms = [
            DiffTerm(t["from"], t["to"], t["upower"])
            for t in entries("differential", {"from": str, "to": str, "upower": int})
        ]
        flip = None
        if "flip" in data:
            flip = [FlipPair(p["from"], p["to"]) for p in entries("flip", {"from": str, "to": str})]
        return cls(gens, terms, flip, data.get("name", "complex"))

    @classmethod
    def from_json(cls, text: str) -> "CfkComplex":
        return cls.from_json_dict(json.loads(text))

    def __repr__(self) -> str:
        return f"CfkComplex({self.name!r}, {len(self.generators)} generators)"
