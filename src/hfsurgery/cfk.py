"""Bifiltered knot Floer complexes over GF(2) and their finite regions.

A complex is generated over F2[U, U^-1] by named generators.  The U^0
copy of a generator x sits at lattice point (0, alexander(x)) and U^k x
sits at (-k, alexander(x) - k), so j - i = alexander(x) along the whole
U-tower.  Differentials are U-equivariant and every term strictly drops
at least one filtration coordinate (the complex is reduced).

The finite hat-flavor regions are level sets of the (i, j) filtration:

    HatA(s)      max(i, j - s) = 0      one basis element per generator
    HatB         i = 0                  one basis element per generator
    Quadrant(t)  i < 0 and j >= t       finitely many elements

with the induced differential keeping exactly the components that stay
inside the region.  Element i of a region is U^upowers[i] times the
generator ids[i].  HatA(s) and HatB hold one copy of each generator, in
the complex's generator order, and share its one id tuple: element i is
(x_i, max(0, alexander(x_i) - s)) in HatA(s) and (x_i, 0) in HatB.  For
s >= max_alexander every upower is 0, and HatA(s) is the HatB region
itself, one object with one kernel and one homology basis.  The
maps v_hat(s) and h_hat(s) from HatA(s) to HatB are the vertical
projection and the horizontal projection composed with U^s and the flip
involution, built straight from that order.

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
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from . import f2
from .f2 import F2Matrix, HomologyBasis, InvalidComplexError


class FlipRequiredError(ValueError):
    """The operation needs a flip involution and none was supplied."""


class UnknownRegionError(ValueError):
    """The region tag is not one of the supported kinds."""


class UndefinedRegionError(ValueError):
    """The requested region is not defined for this complex."""


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
class Quadrant:
    """The region i < 0, j >= min_j."""

    min_j: int


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

    Element i is the lattice element ``(ids[i], upowers[i])``, U^upowers[i]
    times the generator ids[i]; ``boundary`` keeps the differential
    components that stay in the region.  Components leaving the region are
    dropped, and nothing can enter from outside because regions are
    differences of upward closed sets.  HatA(s) and HatB share their
    complex's id tuple, so element i of either is a copy of generator i.
    """

    def __init__(self, tag, ids: tuple[str, ...], upowers: tuple[int, ...], boundary: F2Matrix):
        self.tag = tag
        self.ids = ids
        self.upowers = upowers
        self.boundary = boundary

    @property
    def basis(self) -> tuple[tuple[str, int], ...]:
        """The elements as (generator id, upower) pairs, built on each read."""
        return tuple(zip(self.ids, self.upowers))

    @cached_property
    def homology(self) -> HomologyBasis:
        """Homology basis, built on first read as the quotient of
        :attr:`cycles`: the chain route never reads it beyond the regions
        that :meth:`CfkComplex.genus` inspects."""
        return HomologyBasis(self.boundary, self.cycles)

    @cached_property
    def cycles(self) -> tuple[int, ...]:
        """The region's one basis of its boundary's kernel,
        ``f2.kernel_basis(boundary)`` as column masks, built on first read.
        Both rank routes read it, so the boundary is eliminated once for
        its cycles."""
        return tuple(f2.kernel_basis(self.boundary))

    @property
    def dim(self) -> int:
        return len(self.ids)

    def __repr__(self) -> str:
        return f"RegionComplex({self.tag}, dim={self.dim})"


class FilteredChainMap:
    """A chain map between region complexes; the one check of f∘∂ = ∂∘f is here."""

    def __init__(self, source: RegionComplex, target: RegionComplex, matrix: F2Matrix):
        left = matrix @ source.boundary
        right = target.boundary @ matrix
        if left.data != right.data:
            raise f2.NotAChainMapError(
                f"map {source.tag} -> {target.tag} does not commute with boundaries"
            )
        self.source = source
        self.target = target
        self.matrix = matrix

    @cached_property
    def induced(self) -> F2Matrix:
        """Matrix on homology, built on first read."""
        return f2.induced_map_on_homology(
            self.matrix, self.source.homology, self.target.homology
        )

    @cached_property
    def on_cycles(self) -> F2Matrix:
        """The matrix on the source's cycle basis, one column per vector of
        ``source.cycles``, built on first read.  A row of it is zero exactly
        when that row of the matrix lies in the row space of the source's
        boundary.  Only the chain route reads it; the homological route
        applies the matrix to each homology representative instead."""
        return self.matrix @ F2Matrix.from_columns(self.source.cycles, self.source.dim)

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

    @property
    def max_alexander(self) -> int:
        if not self.generators:
            return 0
        return max(g.alexander for g in self.generators)

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

    def region_complex(self, tag) -> RegionComplex:
        return self.cached(("region", tag), lambda: self._build_region(tag))

    def _build_region(self, tag) -> RegionComplex:
        if isinstance(tag, Quadrant):
            return self._build_quadrant(tag)
        ids, alexander, _, units, arcs = self._order
        if isinstance(tag, HatA):
            if tag.s >= self.max_alexander:
                # Every upower is 0, so HatA(s) is HatB element for element:
                # serve that one region, with its one kernel and homology.
                return self.region_complex(HatB())
            upowers = tuple([a - tag.s if a > tag.s else 0 for a in alexander])
        elif isinstance(tag, HatB):
            upowers = (0,) * len(ids)
        else:
            raise UnknownRegionError(f"unknown region tag {tag!r}")
        # One element per generator, so a term stays inside exactly when it
        # lands on its target's one upower.
        masks = [0] * len(ids)
        for col, row, m in arcs:
            if upowers[row] == upowers[col] + m:
                # A row's first bit keeps the shared unit mask, as the rows of
                # v_hat do; 0 ^ unit would make a fresh int.
                mask = masks[row]
                masks[row] = mask ^ units[col] if mask else units[col]
        return RegionComplex(tag, ids, upowers, F2Matrix(len(ids), tuple(masks)))

    def _build_quadrant(self, tag: Quadrant) -> RegionComplex:
        ids, alexander, _, _, arcs = self._order
        # i = -k < 0 and j = alexander - k >= min_j pin k to [1, A - min_j].
        members = [(i, k) for i, a in enumerate(alexander) for k in range(1, a - tag.min_j + 1)]
        index = {elem: pos for pos, elem in enumerate(members)}
        masks = [0] * len(members)
        for col, row, m in arcs:
            for k in range(1, alexander[col] - tag.min_j + 1):
                pos = index.get((row, k + m))
                if pos is not None:
                    masks[pos] ^= 1 << index[(col, k)]
        region_ids, upowers = tuple(ids[i] for i, _ in members), tuple(k for _, k in members)
        return RegionComplex(tag, region_ids, upowers, F2Matrix(len(members), tuple(masks)))

    # -- the canonical maps -------------------------------------------------

    def _from_hat_a(self, s: int, rows: list[int]) -> FilteredChainMap:
        """The chain map HatA(s) -> HatB with these row masks."""
        source, target = self.region_complex(HatA(s)), self.region_complex(HatB())
        return FilteredChainMap(source, target, F2Matrix(source.dim, tuple(rows)))

    def v_hat(self, s: int) -> FilteredChainMap:
        """Vertical projection HatA(s) -> HatB: keep the i = 0 part.  Row i
        is the unit mask 1 << i when alexander(x_i) <= s, and zero otherwise.

        Reading the generator order validates the complex."""

        def build() -> FilteredChainMap:
            _, alexander, _, units, _ = self._order
            return self._from_hat_a(s, [u if a <= s else 0 for a, u in zip(alexander, units)])

        return self.cached(("v", s), build)

    def h_hat(self, s: int) -> FilteredChainMap:
        """Horizontal map HatA(s) -> HatB.

        Project onto the j = s part, shift it to j = 0 with U^s, then
        apply the flip.  On the canonical bases the composite sends
        (x, k) to (flip(x), 0) exactly when alexander(x) >= s, so row
        index(flip(x_i)) gets the unit mask 1 << i then.
        """

        def build() -> FilteredChainMap:
            ids, alexander, index, units, _ = self._order  # validates first
            self.require_flip()
            rows = [0] * len(ids)
            # A valid flip is a bijection, so each row gets at most one unit
            # mask, and it keeps the shared one.
            for gid, a, u in zip(ids, alexander, units):
                if a >= s:
                    rows[index[self.flip_map[gid]]] = u
            return self._from_hat_a(s, rows)

        return self.cached(("h", s), build)

    # -- derived invariants ---------------------------------------------------

    def b_rank(self) -> int:
        """Total rank of the homology of HatB."""
        return self.region_complex(HatB()).homology.dim

    def genus(self) -> int:
        """Largest s with v_hat(s - 1) not a homology isomorphism, or 0.

        The scan starts at max_alexander + 1; reducedness bounds the
        filtration support, so everything above is an isomorphism.
        """

        def scan() -> int:
            self.require_valid()
            for s in range(self.max_alexander + 1, 0, -1):
                if not self.v_hat(s - 1).is_induced_iso():
                    return s
            return 0

        return self.cached("genus", scan)

    def single_point_region_rank(self) -> int:
        """Homology rank of the quadrant i < 0, j >= genus - 1.

        For a reduced complex of positive genus the region collapses to
        the lattice point (-1, genus - 1), so this equals hfk_hat(genus).
        """
        g = self.genus()
        if g < 1:
            raise UndefinedRegionError("the quadrant region needs genus >= 1")
        return self.region_complex(Quadrant(g - 1)).homology.dim

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
