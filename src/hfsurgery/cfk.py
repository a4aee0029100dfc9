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
alexander(x_i) >= s.  The chain-map check and the maps' matrices on the
cycle basis and on homology all read the index.

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

This module owns the precondition policy and checks it where data is
built.  Regions, the genus and the hfk counts need a valid complex
(:meth:`CfkComplex.require_valid`); h_hat also needs a flip
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


class RegionComplex:
    """A finite GF(2) complex cut out of the (i, j) lattice.

    ``boundary`` keeps the differential components that stay in the
    region.  Components leaving the region are dropped, and nothing can
    enter from outside because regions are differences of upward closed
    sets.  Element i of HatA(s) or HatB is a copy of generator i; its
    U-power is not kept, because one HatA region serves a whole Alexander
    class of s, whose members put different powers on it.

    What a region caches is read off its boundary on first use: its
    cycles, their rows, and its homology.  One elimination of the
    boundary's columns, :func:`f2.column_elimination`, gives both the
    cycles and the boundary space that the homology quotients them by, so
    whichever of the two is read first, the boundary is eliminated once.
    The boundary space is held from the read of the cycles until the
    homology takes it over.
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
        # table taken eliminates the boundary again.
        image = vars(self).pop("_image", None)
        if image is None:
            image = f2.column_elimination(self.boundary)[1]
        return HomologyBasis(self.boundary, cycles, image)

    @cached_property
    def cycles(self) -> tuple[int, ...]:
        """The region's one basis of its boundary's kernel,
        ``f2.kernel_basis(boundary)`` as column masks, built on first read.
        The same elimination leaves the boundary space for :attr:`homology`."""
        cycles, self._image = f2.column_elimination(self.boundary)
        return tuple(cycles)

    @cached_property
    def cycle_rows(self) -> tuple[int, ...]:
        """The cycles as rows, built on first read: row i has bit k set
        when cycle k holds element i.  Every map out of the region reads
        its rows on the cycle basis from these (``on_cycles``)."""
        return F2Matrix.from_columns(self.cycles, self.dim).data

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
    by the one bit-moving loop of :meth:`_move`, with no projection branch
    for v_hat(s) (see :meth:`_move` for why).

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
        if left != self._move(target.boundary.data, preimage):
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

    def _move(self, masks, to) -> list[int]:
        """Each mask with each bit b moved to bit ``to[b]``, or dropped where
        that is -1: the map itself for ``to = index``, and its transpose
        for the preimage.

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

    def apply(self, vec: int) -> int:
        """The image of a source vector, given as a bit mask."""
        return self._move((vec,), self.index)[0]

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
    def on_cycles(self) -> F2Matrix:
        """The map on the source's cycle basis, one column per vector of
        ``source.cycles``, built on first read: row r is the source's cycle
        row (``source.cycle_rows``) of r's preimage, or zero.  A row of it
        is zero exactly when that row of the map lies in the row space of
        the source's boundary.  Only the chain route reads it; the
        homological route applies the map to each homology representative
        instead."""
        cycle_rows = self.source.cycle_rows
        return F2Matrix(len(self.source.cycles), tuple(cycle_rows[i] if i >= 0 else 0 for i in self._preimage()))

    @cached_property
    def _rank(self) -> int:
        """Rank of the induced map, the one elimination of that matrix."""
        return f2.rank(self.induced)

    def induced_rank(self) -> int:
        return self._rank

    def induced_kernel_dim(self) -> int:
        return self.source.homology.dim - self._rank

    def is_induced_iso(self) -> bool:
        return self._rank == self.source.homology.dim == self.target.homology.dim


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
        issues = []
        for x in self._terms_by_source:
            acc: Counter = Counter()
            for y, k1 in self._terms_by_source[x]:
                for z, k2 in self._terms_by_source.get(y, ()):
                    acc[(z, k1 + k2)] += 1
            for (z, k), count in sorted(acc.items()):
                if count % 2:
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
        for x in self._terms_by_source:
            lhs: Counter = Counter()
            rhs: Counter = Counter()
            for w, m in self._terms_by_source.get(mapping[x], ()):
                lhs[(w, m - self.alexander[x])] += 1
            for y, k in self._terms_by_source[x]:
                rhs[(mapping[y], k - self.alexander[y])] += 1
            keys = set(lhs) | set(rhs)
            for key in sorted(keys):
                if (lhs[key] - rhs[key]) % 2:
                    issues.append(
                        ValidationIssue(
                            "flip-commute",
                            f"flip does not commute with the differential at {x!r}",
                        )
                    )
                    break
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
        return RegionComplex(tag, F2Matrix(len(units), tuple(masks)))

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
        the flip check.
        """
        s = self.alexander_class(s)

        def build() -> FilteredChainMap:
            ids, alexander, index, _, _ = self._order
            self.require_flip()
            flip = self.flip_map
            return self._from_hat_a(s, [index[flip[gid]] if a >= s else -1 for gid, a in zip(ids, alexander)])

        return self.cached(("h", s), build)

    # -- derived invariants ---------------------------------------------------

    def b_rank(self) -> int:
        """Total rank of the homology of HatB."""
        return self.region_complex(HatB()).homology.dim

    def genus(self) -> int:
        """Largest s with v_hat(s - 1) not a homology isomorphism, or 0.

        Whether v_hat(s - 1) is one is constant on the class of s - 1, and
        the largest s of each such run is a cut, so the scan tests only the
        cuts s >= 1, from the top.  Above the top cut, one past the top
        grading, v_hat(s - 1) is the identity of HatB.
        """

        def scan() -> int:
            tops = [s for s in reversed(self.alexander_cuts) if s >= 1]  # validates first
            return next((s for s in tops if not self.v_hat(s - 1).is_induced_iso()), 0)

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
