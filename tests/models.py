"""Test models of constructions the library does not need, built on its
API, a few private helpers included.

The tests read them to check the paper's lemmas: the reflection swaps the
ranks of v_hat and h_hat, the flip is a chain isomorphism between HatA(s)
and HatA(-s), the j-level regions factor h_hat, the quadrant
i < 0, j >= genus - 1 collapses to the top Alexander grading, and, when
b = 1, the rank and t have case formulas in nu (``rank_os_b1``).  The reference regions and maps build HatA(s),
HatB, Quadrant(t), v_hat and h_hat element by element, through an
(id, upower) index, and ``assert_matches_reference`` checks the library's
generator-indexed HatA(s), HatB and maps against them; the library builds
no quadrant, so ``single_point_region_rank`` reads the reference one.
The library holds a map as a generator index map, so ``dense`` builds its
matrix, and ``assert_maps_match_dense`` checks the map's rows between
HatB's cocycles and the cycles, and its homology matrix, against the
reference matrix's.
A library region keeps only its boundary, so its (id, upower) elements
are ``reference_members`` of its tag, rebuilt from s itself.
The library serves a class s below its mirror class m as m, with v and h
swapped: HatA(s) is the region of HatA(m), v_hat(s) is h_hat(m) and
h_hat(s) is v_hat(m).  So the reference builds the true HatA(s) itself,
``region_flip_equivalence`` is the isomorphism Phi_s = U^s o flip from it
onto HatA(-s), and ``as_read`` composes a reference map with the inverse
of Phi_s, the map the library reads on the mirror's region;
``assert_conjugation_symmetry`` checks that every lower class is its
mirror and that its maps have the reference ranks on the true HatA(s).
A map caches only its induced rank, so ``kernel_dim`` and ``is_iso`` read
the kernel dimension and whether it is an isomorphism off it.
The library scans s one Alexander class run at a time, so
``reference_class_runs``, ``reference_genus``, ``reference_verdicts``,
``reference_v_sum`` and ``reference_nu`` scan every s instead, and
``assert_runs_match_per_s`` checks the library's scans against them.
The library finds the essential summand's components by HatB's cocycle
classes, so ``reference_essential`` finds them by the count of HatB's
cycles in each component instead.
The library writes a complex's JSON text straight from its columns, so
``to_json_dict`` is the reference mapping that text is ``json.dumps`` of,
with ``indent=2``, and the tests compare ``CfkComplex.to_json`` against it.
``tensor_of`` builds the tensor product of builtins named in order.
``borromean`` is B_1, the Borromean knot of genus 1, whose component
{x, z} has b = 2, and ``borromean_corpus`` its tensors.
The containment hypothesis is a theorem of the library's model, so
``assert_containment_lemmas`` checks the two lemmas of its proof at chain
level on the reference regions, with ``precompose`` composing a map's rows
with an index map and ``library_map`` reading the library's maps on the
true HatA(s).
``dot_and_box`` and ``dot_and_pair`` are the wide complexes, 5 and 9
generators with gradings as far as n from 0, on which the tests
check that the cost follows the generator count, not the size of the
gradings.
``rank_os_b1`` is a fourth rank oracle for b = 1, Ozsvath-Szabo's formula
in nu and the homology of each HatA(s), read off the reference model, and
gives the formula's t term beside the rank.
``image_intersection_rank`` is the plain meet of two column spaces, which
the tests compare the library's ranks of v_hat and t against, and
``reference_kernel_basis`` and ``reference_solve`` read a kernel basis and
a solution off the reduced row-echelon form, which the tests compare
``f2.kernel_basis`` and ``f2.solve`` against.  ``assert_no_kernel_list``
checks that a region keeps no cycles and that its homology basis, once
built, holds no list of them.
The library counts the kernel of the induced block matrix in closed form,
``surgery.kernel_rank``, and builds none of its elements, so
``kernel_basis_construction`` builds them, with its one exception
``InternalInvariantError`` and its one helper ``image_intersection_basis``,
the meet of two column spaces as matched pairs; the tests check its
elements against ``kernel_rank`` and the block matrix.
The sweep eliminates each step by ``f2.rref`` cut at the v block, so
``full_form_sweep_step`` reads a step off the full form instead, of the
block that ``side_block`` assembles from the two side matrices, and
``assert_sweep_steps_match_full_form`` checks every memoized step of the
chain route's and the homological route's sweeps against it.  The sweep
keeps its steps as one numbered transition table per route, keyed by the
numbers of the carry and of the two side matrices, so ``sweep_table``
decodes a route's table into (carry, h side, v side) ->
(increment, next carry), and ``reference_sweep`` is the sweep keyed by
those tuples, each block's sides read at its floors, which the tests
compare the table against.  ``induced_boundary`` is one block of the
induced block matrix, assembled from the homological route's sides.
A cone reads its totals from one memo entry per class-run table, so
``recount_totals`` counts them column by column instead.
"""

import functools
import weakref
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

from hfsurgery.cfk import CfkComplex, FilteredChainMap, RegionComplex
from hfsurgery import f2, surgery
from hfsurgery.f2 import DimensionError, F2Matrix
from hfsurgery.knots import BUILTIN_NAMES, _box, builtin, tensor
from hfsurgery.surgery import MappingCone, Slope


def to_json_dict(c: CfkComplex) -> dict:
    """The complex as the mapping its JSON text encodes: each entry built
    from the columns, and a generator's ``maslov`` only where it is not
    None."""
    generators, differential, _ = c.columns
    data: dict = {
        "name": c.name,
        "generators": [
            {"id": gid, "alexander": a} | ({"maslov": m} if m is not None else {})
            for gid, a, m in zip(*generators)
        ],
        "differential": [
            {"from": x, "to": y, "upower": k} for x, y, k in zip(*differential)
        ],
    }
    if c.flip_map is not None:
        data["flip"] = [
            {"from": gid, "to": c.flip_map[gid]}
            for gid in generators[0]
            if gid in c.flip_map
        ]
    return data


def tensor_of(*names: str) -> CfkComplex:
    """The tensor product of the named builtins, left to right."""
    return functools.reduce(tensor, map(builtin, names))


def borromean() -> CfkComplex:
    """B_1, the Borromean knot of genus 1 in #^2 S^1 x S^2.  HFK_hat(B_1)
    is Lambda^* H^1(T^2) with zero differential (Ozsvath-Szabo, arXiv
    math/0209056): four generators x, y1, y2, z at A = 1, 0, 0, -1, no
    differential, and the flip x <-> z, fixing y1 and y2.  b = 4, the genus
    is 1, and the flip-invariant component {x, z} has b = 2, where every
    component of the builtins, staircases and random complexes has
    b <= 1.  Ungraded: no Maslov grading is recorded."""
    generators = (["x", "y1", "y2", "z"], [1, 0, 0, -1], [None] * 4)
    return CfkComplex(generators, ([], [], []), (["x", "y1", "y2"], ["z", "y1", "y2"]), "B_1")


def borromean_corpus() -> dict:
    """Builders of B_1's tensors, by name: B_1 # B_1, B_1 # each builtin and
    B_1 # B_1 # (B_1 # trefoil_rh), up to 192 generators and b = 64."""
    def with_builtin(name: str) -> CfkComplex:
        return tensor(borromean(), builtin(name))

    return {
        "B_1#B_1": lambda: tensor(borromean(), borromean()),
        **{f"B_1#{name}": functools.partial(with_builtin, name) for name in BUILTIN_NAMES},
        "B_1#B_1#(B_1#trefoil_rh)": lambda: tensor(tensor(borromean(), borromean()), with_builtin("trefoil_rh")),
    }


def dot_and_box(n: int) -> CfkComplex:
    """A dot and one symmetric box of side n: 5 generators, genus n."""
    ids, alex, terms = _box("b", n, n, 0)
    flip = (["e0", "b1", "b2", "b4"], ["e0", "b1", "b3", "b4"])
    return CfkComplex((["e0", *ids], [0, *alex], [None] * 5), terms, flip, "dot+box")


def dot_and_pair(n: int) -> CfkComplex:
    """A dot and two unit boxes at offsets +-n, paired as in random_complex:
    9 generators, genus n + 1."""
    up_ids, up_alex, up_terms = _box("b0", 1, 1, n)
    down_ids, down_alex, down_terms = _box("c0", 1, 1, -n)
    generators = (["e0", *up_ids, *down_ids], [0, *up_alex, *down_alex], [None] * 9)
    terms = tuple(up + down for up, down in zip(up_terms, down_terms))
    flip = (["e0", "b01", "b02", "b03", "b04"], ["e0", "c01", "c03", "c02", "c04"])
    return CfkComplex(generators, terms, flip, "dot+pair")


def reflected(c: CfkComplex) -> CfkComplex:
    """The complex with the two filtration roles exchanged.

    Each generator keeps its id with its alexander grading negated; a
    term with drops (k, d_j) becomes a term with drops (d_j, k).  For every
    s the maps v_hat(s) of the result and h_hat(-s) of the original have
    the same rank and kernel dimension.
    """
    c.require_valid()
    c.require_flip()
    (ids, alexander, _), (sources, targets, upowers), flip = c.columns
    a = c.alexander
    upowers = [k + a[x] - a[y] for x, y, k in zip(sources, targets, upowers)]
    generators = (ids, [-x for x in alexander], [None] * len(ids))
    return CfkComplex(generators, (sources, targets, upowers), flip, f"reflected({c.name})")


def region_flip_equivalence(c: CfkComplex, s: int) -> FilteredChainMap:
    """The chain isomorphism Phi_s: HatA(s) -> HatA(-s) given by U^s then
    the flip, between the reference regions; building it checks that it
    is a chain map."""
    source, target = reference_complex(c, HatA(s)), reference_complex(c, HatA(-s))
    c.require_flip()
    index = [
        position(c, HatA(-s), c.flip_map[gid], max(0, s - c.alexander[gid]))
        for gid, _ in reference_members(c, HatA(s))
    ]
    return FilteredChainMap(source, target, index)


def below_mirror(c: CfkComplex, s: int) -> bool:
    """Whether the library serves s as its mirror class: a complex with a
    flip, and the class of s below the class of -s."""
    return c.has_flip and c.alexander_class(-s) > c.alexander_class(s)


def as_read(c: CfkComplex, s: int, masks: tuple[int, ...]) -> tuple[int, ...]:
    """Row masks over the reference HatA(s) as the library reads them: as
    they are for a class at or above its mirror, and for a class below it
    composed with the inverse of Phi_s, so over HatA(-s), the mirror's
    region, bit i moved to bit index[i] of ``region_flip_equivalence``."""
    if not below_mirror(c, s):
        return masks
    index = region_flip_equivalence(c, s).index
    return tuple(sum(1 << index[i] for i in f2.bits(mask)) for mask in masks)


def boundary_as_read(c: CfkComplex, tag) -> tuple[int, ...]:
    """The reference boundary of the region as the library reads it: as it
    is, or for HatA(s) of a class below its mirror moved through Phi_s,
    rows and columns, onto the mirror's region HatA(-s)."""
    masks = reference_region(c, tag)[1]
    if not (isinstance(tag, HatA) and below_mirror(c, tag.s)):
        return masks
    index = region_flip_equivalence(c, tag.s).index
    moved = [0] * len(masks)
    for row, mask in zip(index, masks):
        moved[row] = sum(1 << index[i] for i in f2.bits(mask))
    return tuple(moved)


def assert_conjugation_symmetry(c: CfkComplex) -> int:
    """Every Alexander class s below its mirror class m is read as m with v
    and h swapped: HatA(s) is the region of HatA(m), v_hat(s) is h_hat(m)
    and h_hat(s) is v_hat(m).  On the true HatA(s), built by the
    reference, Phi_s is an isomorphism on homology onto HatA(-s), and the
    reference v_hat(s) and h_hat(s) have the induced ranks of the maps the
    library reads.  Every other class, the middle one among them, is
    served its own region, or HatB at or above the top grading.  Returns
    the number of classes below their mirrors."""
    cuts, top = c.alexander_cuts, max(c.columns[0][1])
    b = reference_complex(c, HatB()).homology
    checked = 0
    for s, _ in c.class_runs(cuts[0] - 1, cuts[-1]):
        mirror, region = c.alexander_class(-s), c.region_complex(s)
        if not below_mirror(c, s):
            assert region.tag == min(s, top), s
            continue
        assert region is c.region_complex(mirror), s
        assert c.v_hat(s) is c.h_hat(mirror) and c.h_hat(s) is c.v_hat(mirror), s
        assert is_iso(region_flip_equivalence(c, s)), s
        source = reference_complex(c, HatA(s))
        for kind, m in (("v", c.v_hat(s)), ("h", c.h_hat(s))):
            matrix = F2Matrix(source.dim, reference_map(c, kind, s))
            assert f2.rank(f2.induced_map_on_homology(matrix, source.homology, b)) == m.induced_rank, (kind, s)
        checked += 1
    return checked


def side_block(h: F2Matrix, v: F2Matrix) -> tuple[tuple[int, ...], int, int]:
    """The nonzero rows of [h | v], assembled here apart from the
    library's: h's row r beside v's row r, the v block starting at h.cols.
    Returns the rows, their width and where the v block starts."""
    assert h.rows == v.rows, (h.rows, v.rows)
    block = tuple(row for a, b in zip(h.data, v.data) if (row := a | b << h.cols))
    return block, h.cols + v.cols, h.cols


def induced_boundary(cone: MappingCone, key: tuple[int, int]) -> tuple[tuple[int, ...], int, int]:
    """One HatB row block of the induced block matrix: block j with
    key = ((j - p) // q, j // q), or their classes, is
    ``[h_hat(key[0])_* | v_hat(key[1])_*]`` on the homology bases, the two
    ``MappingCone.induced_side`` matrices side by side, by
    :func:`side_block`: its nonzero rows, their width and the column where
    the v block starts.  It depends on the key alone."""
    return side_block(cone.induced_side("h", key[0]), cone.induced_side("v", key[1]))


def full_form_sweep_step(rows: tuple[tuple[int, ...], int, int], carry: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """One sweep step read off the full reduced row-echelon form of
    m = [carry; block]: the pivot count less the carry's size, and the
    reduced rows whose pivot lies in the v block, shifted down to it.
    ``rows`` is what :func:`side_block`, or ``MappingCone.total_boundary``,
    gives for the step's two side matrices: the block, its width and where
    its v block starts."""
    block, width, v_start = rows
    reduced, pivots = f2.rref(F2Matrix(width, carry + block))
    carry_out = tuple(row >> v_start for row, p in zip(reduced, pivots) if p >= v_start)
    return len(pivots) - len(carry), carry_out


def sweep_table(x: CfkComplex, tag: str) -> dict:
    """The transition table of route ``tag``, ``"sweep"`` or ``"hsweep"``,
    on x, decoded: (carry, h side, v side) -> (increment, next carry), the
    sides being the route's side matrices.  Transition
    ``(state * n + h) * n + v``, n = 2 * (``len(alexander_cuts)`` + 1),
    goes from carry number ``state`` on the side matrices numbered h and
    v.  Empty when the route has swept no HatB block of x."""
    if (automaton := x._memo.get(tag)) is None:
        return {}
    _, carries, transitions, _, sides = automaton
    n = 2 * (len(x.alexander_cuts) + 1)
    return {
        (carries[key // (n * n)], sides[key // n % n], sides[key % n]): (increment, carries[state])
        for key, (increment, state) in transitions.items()
    }


def reference_sweep(cone: MappingCone, side) -> tuple[int, dict]:
    """The sweep with every step keyed by the tuple (carry, h side, v side),
    the sides being ``side("h", (j - p) // q)`` and ``side("v", j // q)``
    read at block j's floors: the sum of what each HatB block adds, and the
    steps, (carry, h side, v side) -> (increment, next carry), kept in a
    dict of its own rather than in the complex's memo.  Each step is
    eliminated as the library's is, by ``f2.rref`` cut at the v block of
    the rows :func:`side_block` assembles."""
    p, q, b = cone.slope.p, cone.slope.q, cone.b_columns
    steps, added = {}, 0
    for start in b[:p]:
        carry = ()
        for j in range(start, b.stop, p):
            key = (carry, side("h", (j - p) // q), side("v", j // q))
            if (entry := steps.get(key)) is None:
                block, width, v_start = side_block(*key[1:])
                reduced, pivots = f2.rref(F2Matrix(width, carry + block), v_start)
                entry = steps[key] = len(pivots) - len(carry), tuple(row >> v_start for row in reduced)
            increment, carry = entry
            added += increment
    return added, steps


def assert_sweep_steps_match_full_form(c: CfkComplex) -> int:
    """Every transition of the chain route's table on c or on its essential
    summand, decoded by :func:`sweep_table`, equals
    :func:`full_form_sweep_step` of its carry and of the block
    :func:`side_block` assembles from its two side matrices, and so does
    every transition of the homological route's table.  Returns the number
    of transitions checked per route."""
    checked = {"sweep": 0, "hsweep": 0}
    for x in {id(x): x for x in (c, c.essential_summand)}.values():
        for tag in checked:
            for (carry, h, v), entry in sweep_table(x, tag).items():
                assert entry == full_form_sweep_step(side_block(h, v), carry), (tag, carry)
                checked[tag] += 1
    return checked


def recount_totals(cone: MappingCone) -> tuple[int, int, int, int]:
    """The cone's ``total_dim``, ``boundary_rank``, ``a_homology_dim`` and
    ``b_homology_dim``, counted column by column: every HatA column j reads
    ``region_complex(j // q)`` and every HatB column HatB, each region
    ranked by ``f2.rank`` of its boundary once.  Reading the homology builds
    it for every region of the window."""
    c, q = cone.complex, cone.slope.q
    rank = functools.cache(lambda region: f2.rank(region.boundary))
    dim = boundary = homology = 0
    for j in cone.a_columns:
        region = c.region_complex(j // q)
        dim += region.dim
        boundary += rank(region)
        homology += region.homology.dim
    b, n = c.region_complex(c.top), len(cone.b_columns)
    return dim + n * b.dim, boundary + n * rank(b), homology, n * b.homology.dim


def kernel_dim(m: FilteredChainMap) -> int:
    """Dimension of the kernel of the map on homology, read off the one rank
    the map caches."""
    return m.source.homology.dim - m.induced_rank


def is_iso(m: FilteredChainMap) -> bool:
    """Whether the map is an isomorphism on homology: its rank is both
    homology dimensions."""
    return m.induced_rank == m.source.homology.dim == m.target.homology.dim


def dense(m: FilteredChainMap) -> F2Matrix:
    """The dense matrix of a chain map held as an index map: row r has the
    bit of each source element that goes to target element r."""
    masks = [0] * m.target.dim
    for col, row in enumerate(m.index):
        if row >= 0:
            masks[row] |= 1 << col
    return F2Matrix(m.source.dim, tuple(masks))


@dataclass(frozen=True)
class HatA:
    """The reference tag of the region HatA(s), max(i, j - s) = 0; the
    library names it by s alone, ``region_complex(s)``."""

    s: int


@dataclass(frozen=True)
class HatB:
    """The reference tag of the region HatB, i = 0; the library serves it
    as the region at the top grading, ``region_complex(top)``."""


@dataclass(frozen=True)
class JLevel:
    """The reference tag of the region j = s, which the library never builds."""

    s: int


@dataclass(frozen=True)
class Quadrant:
    """The reference tag of the region i < 0, j >= min_j, which the library
    never builds."""

    min_j: int


def j_level_region(c: CfkComplex, s: int) -> RegionComplex:
    """The region j = s: one basis element (x, alexander(x) - s) per
    generator, keeping the differential terms that stay in it."""
    return reference_complex(c, JLevel(s))


def position(c: CfkComplex, tag, gen_id: str, upower: int) -> int | None:
    """The index of the element U^upower * gen_id in the region, or None."""
    try:
        return reference_members(c, tag).index((gen_id, upower))
    except ValueError:
        return None


def reference_members(c: CfkComplex, tag) -> list[tuple[str, int]]:
    """The (id, upower) elements of HatA(s), HatB, JLevel(s) or
    Quadrant(t), one per lattice element, in generator order: the library's
    order for HatA(s) and HatB."""
    generators = list(zip(*c.columns[0][:2]))
    if isinstance(tag, HatA):
        return [(x, max(0, a - tag.s)) for x, a in generators]
    if isinstance(tag, HatB):
        return [(x, 0) for x, _ in generators]
    if isinstance(tag, JLevel):
        return [(x, a - tag.s) for x, a in generators]
    assert isinstance(tag, Quadrant)
    return [(x, k) for x, a in generators for k in range(1, a - tag.min_j + 1)]


def reference_region(c: CfkComplex, tag) -> tuple[tuple[tuple[str, int], ...], tuple[int, ...]]:
    """The region's elements and boundary row masks: each term of each
    element is looked up in an (id, upower) index and kept when it lands
    inside."""
    c.require_valid()
    members = reference_members(c, tag)
    index = {elem: i for i, elem in enumerate(members)}
    masks = [0] * len(members)
    for (gid, k), col in index.items():
        for source, target, upower in zip(*c.columns[1]):
            row = index.get((target, k + upower)) if source == gid else None
            if row is not None:
                masks[row] ^= 1 << col
    return tuple(members), tuple(masks)


def reference_complex(c: CfkComplex, tag) -> RegionComplex:
    """The reference region of this tag as a complex of its own."""
    members, masks = reference_region(c, tag)
    return RegionComplex(tag, F2Matrix(len(members), masks))


def reference_map(c: CfkComplex, kind: str, s: int) -> tuple[int, ...]:
    """The row masks of v_hat(s) (``kind`` "v") or h_hat(s) ("h"): each
    element (x, k) of HatA(s) goes to the HatB position of (x, 0) when
    k = 0, or of (flip(x), 0) when alexander(x) >= s."""
    c.require_valid()
    index = {elem: i for i, elem in enumerate(reference_members(c, HatB()))}
    masks = [0] * len(index)
    for col, (gid, k) in enumerate(reference_members(c, HatA(s))):
        if kind == "v" and k == 0:
            masks[index[(gid, 0)]] |= 1 << col
        elif kind == "h" and c.alexander[gid] >= s:
            masks[index[(c.flip_map[gid], 0)]] |= 1 << col
    return tuple(masks)


def precompose(masks: tuple[int, ...], index) -> tuple[int, ...]:
    """Row masks of f o g, for f given by its row masks over g's target and
    g by its index map: bit i of a row is the bit of f at index[i], or 0
    where index[i] is -1."""
    return tuple(sum(1 << i for i, r in enumerate(index) if r >= 0 and mask >> r & 1) for mask in masks)


def library_map(c: CfkComplex, kind: str, s: int) -> tuple[int, ...]:
    """The row masks of the library's v_hat(s) (``kind`` "v") or h_hat(s)
    ("h") on the true HatA(s): its dense rows, and for a class below its
    mirror, served on the mirror's region, those rows moved back through
    Phi_s, the inverse of :func:`as_read`."""
    masks = dense(c.v_hat(s) if kind == "v" else c.h_hat(s)).data
    return precompose(masks, region_flip_equivalence(c, s).index) if below_mirror(c, s) else masks


def assert_containment_lemmas(c: CfkComplex) -> int:
    """The two lemmas that prove the containment hypothesis, at chain level
    on the reference regions, for |s| <= genus + 2.  iota_s, which keeps the
    element of x when A(x) <= s and sends the rest to 0, and Phi_s, the
    library's flip permutation, construct as chain maps HatA(s) ->
    HatA(s+1) and HatA(s) -> HatA(-s) (the constructor checks it), and
    v_hat(s) = v_hat(s+1) o iota_s = h_hat(-s) o Phi_s, both for the
    reference maps and for the library's, read on the true HatA(s) by
    :func:`library_map`.  Returns the number of gradings checked."""
    g, alexander = c.genus(), c.columns[0][1]
    window = range(-g - 2, g + 3)
    for s in window:
        source = reference_complex(c, HatA(s))
        kept = [i if a <= s else -1 for i, a in enumerate(alexander)]
        iota = FilteredChainMap(source, reference_complex(c, HatA(s + 1)), kept)
        phi = FilteredChainMap(source, reference_complex(c, HatA(-s)), c._flip_index)
        for read in (functools.partial(reference_map, c), functools.partial(library_map, c)):
            v = read("v", s)
            assert v == precompose(read("v", s + 1), iota.index), (read.func.__name__, s)
            assert v == precompose(read("h", -s), phi.index), (read.func.__name__, s)
    return len(window)


def single_point_region_rank(c: CfkComplex) -> int:
    """Homology rank of the reference Quadrant(genus - 1), for genus >= 1.

    For a reduced complex of positive genus the region collapses to the
    lattice point (-1, genus - 1), so this equals hfk_hat(genus)."""
    g = c.genus()
    assert g >= 1, "the quadrant region needs genus >= 1"
    return reference_complex(c, Quadrant(g - 1)).homology.dim


def assert_matches_reference(c: CfkComplex) -> None:
    """Every HatA(s) with |s| <= genus + 1 and HatB has the reference
    boundary, one element per reference element, and every v_hat(s) and
    h_hat(s) the reference matrix, read by :func:`boundary_as_read` and
    :func:`as_read`: a class below its mirror is served the mirror's
    region."""
    g = c.genus()
    window = range(-g - 1, g + 2)
    for tag in [HatA(s) for s in window] + [HatB()]:
        region = c.region_complex(c.top if isinstance(tag, HatB) else tag.s)
        if isinstance(tag, HatA) and below_mirror(c, tag.s):
            assert region is c.region_complex(-tag.s), tag
        assert region.boundary.data == boundary_as_read(c, tag), tag
        assert region.dim == len(reference_members(c, tag)), tag
    for s in window:
        assert dense(c.v_hat(s)).data == as_read(c, s, reference_map(c, "v", s)), s
        assert dense(c.h_hat(s)).data == as_read(c, s, reference_map(c, "h", s)), s


def dense_map(c: CfkComplex, kind: str, s: int) -> F2Matrix:
    """The dense element-by-element reference matrix of v_hat(s) (``kind``
    "v") or h_hat(s) ("h"), read by :func:`as_read` on the region the
    library serves."""
    return F2Matrix(c.region_complex(s).dim, as_read(c, s, reference_map(c, kind, s)))


def lowest_bit_basis(rows) -> dict[int, int]:
    """The reduced basis of the span of ``rows`` keyed on lowest bits: each
    vector has its key as its lowest bit and no bit at another's key.  The
    keys are the lowest bits of the span's nonzero vectors, so they and the
    basis depend on the span alone.  Built by a dense elimination of its
    own, with no ``f2`` loop: each row is cleared at every key, then, if it
    is left nonzero, it clears its own lowest bit from the vectors before
    it and joins them."""
    basis: dict[int, int] = {}
    for row in rows:
        row = canonical_form(basis, row)
        if row:
            low = row & -row
            for key, vec in basis.items():
                if vec & low:
                    basis[key] = vec ^ row
            basis[low.bit_length() - 1] = row
    return basis


def canonical_form(basis: dict[int, int], vec: int) -> int:
    """``vec`` cleared at every key of a :func:`lowest_bit_basis`: one XOR
    per key it holds, since no basis vector holds another's key.  It is
    the one vector of vec's coset modulo the span that is zero at every
    key."""
    for key, row in basis.items():
        if vec >> key & 1:
            vec ^= row
    return vec


def dense_on_cocycles(m: FilteredChainMap, matrix: F2Matrix) -> F2Matrix:
    """Y^T . matrix, Y being the target's cocycle basis as columns, each row
    in its :func:`canonical_form` modulo the rows of the source's boundary:
    what ``m.on_cocycles`` must be when ``matrix`` is m's dense matrix."""
    pulled = F2Matrix(m.target.dim, m.target.cocycles) @ matrix
    basis = lowest_bit_basis(m.source.boundary.data)
    return F2Matrix(m.source.dim, tuple(canonical_form(basis, y) for y in pulled.data))


def assert_maps_match_dense(c: CfkComplex) -> None:
    """Every v_hat(s) and h_hat(s) with |s| <= genus + 1, applied by its
    index map, agrees with its :func:`dense_map`: ``on_cocycles`` is
    :func:`dense_on_cocycles` of it, and ``induced`` is
    ``f2.induced_map_on_homology`` run on it."""
    g = c.genus()
    for s in range(-g - 1, g + 2):
        for kind, m in (("v", c.v_hat(s)), ("h", c.h_hat(s))):
            matrix = dense_map(c, kind, s)
            assert m.on_cocycles == dense_on_cocycles(m, matrix), (kind, s)
            induced = f2.induced_map_on_homology(matrix, m.source.homology, m.target.homology)
            assert m.induced == induced, (kind, s)


def assert_classes_hold(c: CfkComplex, margin: int = 3) -> None:
    """The Alexander class rule, checked against the reference model.

    The cuts are a and a + 1 for each grading a, and the class of s is the
    largest cut at or below s, or the lowest cut less one.  For every s
    within ``margin`` of the gradings, HatA(s), v_hat(s) and h_hat(s) are
    the objects memoized at the class of s, and they have the reference
    boundary and matrices of s itself, read by :func:`boundary_as_read`
    and :func:`as_read`, so s and its class agree.  The genus
    is also the largest s >= 1 with v_hat(s - 1) not an isomorphism found
    by testing every s from the top grading + 1 down, not only the cuts."""
    grades = c.columns[0][1]
    cuts = sorted({x for a in grades for x in (a, a + 1)})
    assert c.alexander_cuts == tuple(cuts)
    for s in range(min(grades) - margin, max(grades) + margin + 1):
        rep = max([cut for cut in cuts if cut <= s], default=cuts[0] - 1)
        assert c.alexander_class(s) == rep, s
        region = c.region_complex(s)
        assert region is c.region_complex(rep), s
        assert region.boundary.data == boundary_as_read(c, HatA(s)), s
        assert c.v_hat(s) is c.v_hat(rep) and c.h_hat(s) is c.h_hat(rep), s
        assert dense(c.v_hat(s)).data == as_read(c, s, reference_map(c, "v", s)), s
        assert dense(c.h_hat(s)).data == as_read(c, s, reference_map(c, "h", s)), s
    assert c.genus() == reference_genus(c)


def reference_class_runs(c: CfkComplex, lo: int, hi: int) -> list[tuple[int, int]]:
    """The class runs of lo..hi found s by s: a run ends where the class of
    s changes."""
    runs: list[list[int]] = []
    for s in range(lo, hi + 1):
        if runs and c.alexander_class(s) == c.alexander_class(runs[-1][0]):
            runs[-1][1] += 1
        else:
            runs.append([s, 1])
    return [(s, n) for s, n in runs]


def reference_genus(c: CfkComplex) -> int:
    """The largest s >= 1 with v_hat(s - 1) not an isomorphism, or 0, found
    by testing every s from one past the top grading down."""
    top = max(c.columns[0][1])
    return next((s for s in range(top + 1, 0, -1) if not is_iso(c.v_hat(s - 1))), 0)


def reference_essential(c: CfkComplex) -> list[str]:
    """The essential summand's generators by the count it used to be read
    by: a flip-invariant component of n elements holding k of HatB's cycles
    has b = 2k - n, and P is the components with b > 0, or the whole
    complex when it has no flip, or when none or all of the components
    have b > 0.  Each cycle lies in one component, found here by a
    union-find of its own, kept as a reference independent of the library,
    which searches out from the lowest bit of each of HatB's cocycle
    classes."""
    ids = c.columns[0][0]
    if not c.has_flip:
        return list(ids)
    index = {x: i for i, x in enumerate(ids)}
    root = list(range(len(ids)))

    def find(i: int) -> int:
        while root[i] != i:
            i = root[i]
        return i

    for x, y in chain(zip(*c.columns[1][:2]), zip(*c.columns[2])):
        root[find(index[x])] = find(index[y])
    component = [find(i) for i in range(len(ids))]
    size = Counter(component)
    cycles = Counter(component[z.bit_length() - 1] for z in f2.kernel_basis(c.region_complex(c.top).boundary))
    essential = {r for r, k in cycles.items() if 2 * k > size[r]}
    if not essential or len(essential) == len(size):
        return list(ids)
    return [x for x, r in zip(ids, component) if r in essential]


def reference_verdicts(c: CfkComplex) -> tuple[dict[int, bool], dict[int, bool]]:
    """The containment verdicts checked at every s of the window: h in v for
    0 <= s <= genus, v in h for -genus <= s <= 0, each by the meet of the
    two images from :func:`image_intersection_rank`."""
    g = c.genus()

    def meet(s: int) -> int:
        return image_intersection_rank(c.v_hat(s).induced, c.h_hat(s).induced)

    return (
        {s: meet(s) == c.h_hat(s).induced_rank for s in range(g + 1)},
        {s: meet(s) == c.v_hat(s).induced_rank for s in range(-g, 1)},
    )


def reference_v_sum(c: CfkComplex, term) -> int:
    """term(v_hat(0)) + 2 * sum over every s = 1..genus-1 of term(v_hat(s)),
    the sum that ``surgery._v_sum`` takes per unit q."""
    return term(c.v_hat(0)) + 2 * sum(term(c.v_hat(s)) for s in range(1, c.genus()))


def reference_nu(c: CfkComplex) -> int:
    """The least s >= 0 with v_hat(s) of nonzero rank, testing every s."""
    return next(s for s in range(c.genus() + 1) if c.v_hat(s).induced_rank)


def assert_runs_match_per_s(c: CfkComplex) -> None:
    """Every scan over s that the library makes by class runs equals the
    scan over every s: the runs themselves on ranges around the gradings,
    the genus, both sides of the containment report expanded by
    ``to_json_dict`` in the same order, the ``_v_sum`` terms and, when
    b = 1, nu."""
    g, grades = c.genus(), c.columns[0][1]
    bottom, top = min(grades), max(grades)
    ranges = [(0, g), (-g, 0), (1, g - 1), (1, 0), (bottom - 2, top + 2), (bottom + 1, top - 1)]
    for lo, hi in ranges:
        assert c.class_runs(lo, hi) == reference_class_runs(c, lo, hi), (lo, hi)
    assert g == reference_genus(c)
    data = surgery.hypothesis_verdicts(c).to_json_dict()
    for key, verdicts in zip(("h_image_in_v_image", "v_image_in_h_image"), reference_verdicts(c)):
        assert list(data[key].items()) == [(str(s), ok) for s, ok in verdicts.items()], key
    b = c.b_rank()
    terms = {
        "rank": lambda v: v.induced_rank,
        "kernel": kernel_dim,
        "formula": lambda v: v.source.homology.dim + b - 2 * v.induced_rank,
    }
    for name, term in terms.items():
        # A name of its own, so the memo of the library's own sums is not read.
        assert surgery._v_sum(c, Slope(1, 3), ("per-s", name), term) == 3 * reference_v_sum(c, term), name
    if b == 1:
        assert surgery.nu_surrogate(c) == reference_nu(c)


def hstack(m1: F2Matrix, m2: F2Matrix) -> F2Matrix:
    """The matrix [m1 | m2]: m1's columns, then m2's."""
    if m1.rows != m2.rows:
        raise DimensionError("hstack needs equal row counts")
    masks = tuple(a | (b << m1.cols) for a, b in zip(m1.data, m2.data))
    return F2Matrix(m1.cols + m2.cols, masks)


def image_intersection_rank(m1: F2Matrix, m2: F2Matrix) -> int:
    """Dimension of the intersection of the two column spaces.

    Computed as rank(m1) + rank(m2) - rank([m1 | m2]); both matrices must
    map into the same target space (equal row counts).
    """
    if m1.rows != m2.rows:
        raise DimensionError(
            f"image intersection needs equal row counts, got {m1.rows} and {m2.rows}"
        )
    return f2.rank(m1) + f2.rank(m2) - f2.rank(hstack(m1, m2))


def image_intersection_basis(m1: F2Matrix, m2: F2Matrix) -> list[tuple[int, int]]:
    """Deterministic basis of the intersection of the two column spaces, as
    matched pairs.

    Every kernel vector (a | b) of [m1 | m2] satisfies m1 a = m2 b, an
    element of the intersection.  The pairs (a, b) are kept, in kernel-basis
    order, while their common images stay independent; those images form
    the basis.
    """
    if m1.rows != m2.rows:
        raise DimensionError(
            f"image intersection needs equal row counts, got {m1.rows} and {m2.rows}"
        )
    stacked = hstack(m1, m2)
    low_mask = (1 << m1.cols) - 1
    table: dict[int, int] = {}
    pairs: list[tuple[int, int]] = []
    for pair in f2.kernel_basis(stacked):
        a = pair & low_mask
        reduced = f2._reduce(table, m1.apply(a))
        if reduced:
            f2._insert(table, reduced)
            pairs.append((a, pair >> m1.cols))
    return pairs


BASIS_HOLDS = {"differential", "_cycle_mask", "_table", "reps", "dim"}


def assert_no_kernel_list(region: RegionComplex) -> None:
    """A region keeps no cycles, as a list or as the boundary space left
    over from eliminating them, and its homology basis, when built, holds
    only its differential, its table and its representatives."""
    held = vars(region)
    assert "cycles" not in held and "_image" not in held, region
    if "homology" in held:
        assert set(vars(held["homology"])) == BASIS_HOLDS, region


def reference_kernel_basis(m: F2Matrix) -> list[int]:
    """The right kernel read off the reduced row-echelon form of the rows.

    One vector per free column, taken in ascending column order: its own
    bit and the pivot of each reduced row that holds it.
    """
    rows, pivots = f2.rref(m)
    free_mask = (1 << m.cols) - 1
    for p in pivots:
        free_mask ^= 1 << p
    basis = {free: 1 << free for free in f2.bits(free_mask)}
    # A reduced row holds no pivot bit but its own.
    for row, p in zip(rows, pivots):
        for free in f2.bits(row ^ (1 << p)):
            basis[free] |= 1 << p
    return list(basis.values())


def reference_solve(m: F2Matrix, target: int) -> int | None:
    """One solution of ``m x = target`` read off the reduced row-echelon
    form of ``[m | target]``, or None when there is none.

    There is none when the target column holds a pivot; else the pivot
    coordinates of ``x`` are the target bits of their rows and the free
    coordinates are zero.
    """
    rows, pivots = f2.rref(hstack(m, F2Matrix.from_columns([target], m.rows)))
    if pivots and pivots[-1] == m.cols:
        return None
    x = 0
    for row, p in zip(rows, pivots):
        x |= ((row >> m.cols) & 1) << p
    return x


class InternalInvariantError(RuntimeError):
    """A cancellation the containment hypothesis promises is missing, or a
    walk runs past the columns the genus allows: an induced map is wrong."""


def kernel_basis_construction(c: CfkComplex, slope: Slope) -> list[dict[int, int]]:
    """Explicit spanning set of the kernel of the induced block matrix.

    Elements are column-indexed homology classes (coefficient masks with
    respect to the HatA homology bases).  Kernel classes of v_hat on
    nonnegative columns are completed by rightward cancellation tails,
    kernel classes of h_hat on negative columns by leftward tails, and for
    each residue column 0 <= j <= p-1 one element per dimension of
    im v_hat(j/q) meet im h_hat((j-p)/q) is built from a matched pair and
    cancelled in both directions.

    Kernels are seeded on -(g-1)q <= j <= gq-1 only: beyond it v_hat and
    h_hat are isomorphisms, so no region there is built for a seed.  A walk
    reads no window: it runs until the outgoing induced image is zero.
    Every walk ends, because on homology v_hat(s) vanishes for s <= -g-1
    and h_hat(s) for s >= g+1, past the genus; so a walk reaches only the
    columns -gq-p <= j < (g+1)q+p.  That holds only when the maps are
    right, so a walk that leaves those columns raises
    ``InternalInvariantError`` rather than run on.

    Column j reads its maps at s = j // q, which ``cfk`` memoizes under the
    Alexander class of s, so however large p is the construction builds
    one region and one map of each kind per class.  Its coefficients are
    on the homology basis of the region ``cfk`` serves as HatA(j // q),
    the source of both of that class's maps, which for a class below its
    mirror class is the mirror's region, read through the flip.
    The columns of a class run read the same few induced maps, so
    ``f2.kernel_basis``, ``f2.solve`` and :func:`image_intersection_basis`
    are cached for this call only: each distinct (matrix, target) is
    eliminated once, and nothing is kept on the complex.
    """
    q, p, g = slope.q, slope.p, c.genus()
    # Read at each call, so a wrapper put on f2 or here is what is cached.
    kernel_basis, solve, meet_basis = map(functools.cache, (f2.kernel_basis, f2.solve, image_intersection_basis))

    def ind(j: int, step: int) -> F2Matrix:
        """The induced map column j solves against on a walk of this step:
        v_hat for step > 0, h_hat for step < 0."""
        return (c.v_hat(j // q) if step > 0 else c.h_hat(j // q)).induced

    def extend(element: dict[int, int], j: int, coeff: int, step: int) -> None:
        """Cancel the image of ``coeff`` at column j, column by column:
        rightward (step p) out along h_hat, solved against v_hat, or
        leftward (step -p) out along v_hat, solved against h_hat, each
        read by ``ind``.  Every column the walk reaches is new to its
        element: a seed's walk moves away from its seed, and a matched
        element's two walks leave j and j - p in opposite directions."""
        way = "rightward" if step > 0 else "leftward"
        while target := ind(j, -step).apply(coeff):
            j += step
            if not -g * q - p <= j < (g + 1) * q + p:
                raise InternalInvariantError(
                    f"{way} walk reached column {j}, outside -gq-p <= j < (g+1)q+p; an induced map is wrong"
                )
            coeff = solve(ind(j, step), target)
            if coeff is None:
                raise InternalInvariantError(
                    f"no {way} cancellation at column {j}; an induced map is wrong"
                )
            element[j] = coeff

    basis: list[dict[int, int]] = []
    for j in range(-(g - 1) * q, g * q):
        step = p if j >= 0 else -p
        for vec in kernel_basis(ind(j, step)):
            element = {j: vec}
            extend(element, j, vec, step)
            basis.append(element)
    for j in range(p):
        # A matched pair (y, z) has v_hat y = h_hat z, one class of the meet.
        for y, z in meet_basis(ind(j, p), ind(j - p, -p)):
            element = {j: y, j - p: z}
            extend(element, j, y, p)
            extend(element, j - p, z, -p)
            basis.append(element)
    return basis


class OsB1(NamedTuple):
    """Ozsvath-Szabo's rank for b = 1 and the t term it is read through."""

    rank: int
    t: int


def rank_os_b1(c: CfkComplex, slope: Slope) -> OsB1:
    """The rank of p/q surgery on a valid complex with b = 1, by
    Ozsvath-Szabo's formula (arXiv math/0504404, Prop. 9.6), and its t term:

        p + 2 max(0, (2 nu - 1) q - p) + q * sum over s of (dim H(HatA(s)) - 1)
      = 2 t - p + q * (2 max(0, 2 nu - 1) + sum over s of (dim H(HatA(s)) - 1)),

    with t = p when nu = 0 and t = max(0, p - (2 nu - 1) q) otherwise, the
    case formula of the library's ``t_invariant`` when b = 1.  The two lines
    agree since p + 2 max(0, m - p) = 2 max(0, p - m) + 2m - p, and for
    nu = 0 both read p + q * the sum.

    A fourth oracle: it reads no cone, no block matrix and no meet of
    images, and nu and every dim H(HatA(s)) come from the reference regions
    and maps, built element by element.  nu is the least s >= 0 with
    v_hat(s) nonzero on homology."""
    c.require_valid()
    if c not in _OS_B1_TERMS:
        _OS_B1_TERMS[c] = _os_b1_terms(c)
    nu, excess = _OS_B1_TERMS[c]
    p, q = slope.p, slope.q
    t = p if nu == 0 else max(0, p - (2 * nu - 1) * q)
    return OsB1(2 * t - p + q * (2 * max(0, 2 * nu - 1) + excess), t)


# Held by weak keys, so a complex that ``rank_os_b1`` ranks is freed once
# its caller drops it.
_OS_B1_TERMS: "weakref.WeakKeyDictionary[CfkComplex, tuple[int, int]]" = weakref.WeakKeyDictionary()


def _os_b1_terms(c: CfkComplex) -> tuple[int, int]:
    """(nu, sum over s of dim H(HatA(s)) - 1) on the reference model, read
    once per complex by ``rank_os_b1``.  Outside the Alexander gradings
    HatA(s) is HatB, or its image under the flip, so the sum runs over the
    gradings alone, and v_hat at the top grading is the identity of HatB,
    so nu is found by then."""
    grades = c.columns[0][1]
    b = reference_complex(c, HatB()).homology
    assert b.dim == 1, "rank_os_b1 needs b = 1"

    def v_rank(s: int) -> int:
        a = reference_complex(c, HatA(s))
        matrix = F2Matrix(a.dim, reference_map(c, "v", s))
        return f2.rank(f2.induced_map_on_homology(matrix, a.homology, b))

    nu = next(s for s in range(max(grades) + 1) if v_rank(s))
    excess = sum(reference_complex(c, HatA(s)).homology.dim - 1 for s in range(min(grades), max(grades) + 1))
    return nu, excess
