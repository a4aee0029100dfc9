"""Property tests over random dots-and-boxes complexes and random slopes.

The structural laws here mirror what the acceptance battery checks on a
fixed 100-seed corpus, but with hypothesis searching the RandomSpec space.
"""

import contextlib
import json
import math
from itertools import combinations_with_replacement, compress

import pytest
from hypothesis import example, given, settings, strategies as st

from hfsurgery import f2
from hfsurgery.cfk import CfkComplex, FilteredChainMap, RegionComplex
from hfsurgery.f2 import F2Matrix
from hfsurgery.knots import BUILTIN_NAMES, RandomSpec, builtin, mirror, random_complex, staircase, tensor
from hfsurgery.surgery import (
    MappingCone,
    Slope,
    _sweep,
    cone_rank_chain,
    coprime_slopes,
    cone_rank_homological,
    kernel_rank,
    rank_formula,
    t_invariant,
)

import models
from models import kernel_basis_construction
from full_boundary import (
    block_matrix,
    build_cone,
    flatten,
    full_boundary,
    random_side,
    replayed_steps,
    sweep_rank,
    truncation_bound,
)

specs = st.builds(
    RandomSpec,
    seed=st.integers(0, 10**6),
    dots=st.integers(1, 3),
    boxes=st.integers(0, 2),
    max_side=st.integers(1, 2),
    max_offset=st.integers(0, 2),
)

complexes = specs.map(random_complex)

# Boxes far from the centre: long runs of s between gradings, where one
# Alexander class stands for many s.
wide_complexes = st.builds(
    RandomSpec,
    seed=st.integers(0, 10**6),
    dots=st.integers(1, 3),
    boxes=st.integers(0, 3),
    max_side=st.integers(1, 3),
    max_offset=st.integers(9, 30),
).map(random_complex)

# Boxes anywhere from the centre to 30 away: class runs of one s beside
# long ones.
spread_complexes = st.builds(
    RandomSpec,
    seed=st.integers(0, 10**6),
    dots=st.integers(1, 3),
    boxes=st.integers(0, 3),
    max_side=st.integers(1, 3),
    max_offset=st.integers(0, 30),
).map(random_complex)

slopes = (
    st.tuples(st.integers(1, 5), st.integers(1, 5))
    .filter(lambda pq: math.gcd(*pq) == 1)
    .map(lambda pq: Slope(*pq))
)


@settings(max_examples=60, deadline=None)
@given(complexes)
def test_random_complexes_validate(c):
    assert c.validate().ok


@settings(max_examples=40, deadline=None)
@given(complexes)
def test_v_h_rank_symmetry(c):
    g = c.genus()
    for s in range(-g - 1, g + 2):
        v = c.v_hat(s)
        h = c.h_hat(-s)
        assert v.induced_rank == h.induced_rank
        assert models.kernel_dim(v) == models.kernel_dim(h)


@settings(max_examples=40, deadline=None)
@given(complexes)
def test_image_monotonicity(c):
    g = c.genus()
    for s in range(-g - 1, g + 1):
        v_small = c.v_hat(s).induced
        v_big = c.v_hat(s + 1).induced
        assert models.image_intersection_rank(v_small, v_big) == f2.rank(v_small)
        h_small = c.h_hat(s).induced
        h_big = c.h_hat(s + 1).induced
        assert models.image_intersection_rank(h_small, h_big) == f2.rank(h_big)


@settings(max_examples=40, deadline=None)
@given(complexes)
def test_genus_thresholds(c):
    g = c.genus()
    assert models.is_iso(c.v_hat(g))
    assert models.is_iso(c.h_hat(-g))
    assert c.h_hat(g + 1).induced.is_zero()
    assert c.v_hat(-g - 1).induced.is_zero()


@settings(max_examples=40, deadline=None)
@given(complexes)
def test_a_region_stabilizes_at_b(c):
    g, b = c.genus(), c.b_rank()
    for s in (g, g + 1, -g, -g - 1):
        assert c.region_complex(s).homology.dim == b


@settings(max_examples=40, deadline=None)
@given(complexes)
def test_homology_quotients_the_region_cycles(c):
    # The homology picks its representatives among the region's one cycle
    # basis, the one f2.kernel_basis gives, and keeps no list of it.
    g = c.genus()
    for s in [c.top, *range(-g - 1, g + 2)]:
        region = c.region_complex(s)
        cycles = f2.kernel_basis(region.boundary)
        assert set(region.homology.reps) <= set(cycles), s
        assert region.homology.dim == len(cycles) - f2.rank(region.boundary), s
        models.assert_no_kernel_list(region)


@settings(max_examples=40, deadline=None)
@given(complexes)
def test_hfk_symmetry(c):
    profile = c.hfk_profile()
    for s, count in profile.items():
        assert profile.get(-s, 0) == count


@settings(max_examples=40, deadline=None)
@given(complexes)
def test_single_point_region_is_top_hfk(c):
    if c.genus() >= 1:
        assert models.single_point_region_rank(c) == c.hfk_hat(c.genus()) > 0


@settings(max_examples=30, deadline=None)
@given(complexes, slopes)
def test_oracles_agree(c, slope):
    assert cone_rank_chain(c, slope) == cone_rank_homological(c, slope)


@settings(max_examples=60, deadline=None)
@given(
    st.builds(
        RandomSpec,
        seed=st.integers(0, 10**6),
        dots=st.integers(1, 3),
        boxes=st.integers(0, 4),
        max_side=st.integers(1, 2),
        max_offset=st.integers(0, 3),
    )
)
def test_containment_hypothesis_holds_on_random_complexes(spec):
    # The containment is a theorem of the model (``surgery`` has the
    # proof): the reference meet passes it at every s of the window.
    verdicts = models.reference_verdicts(random_complex(spec))
    assert all(ok for side in verdicts for ok in side.values())


builtin_tensors = st.tuples(st.sampled_from(BUILTIN_NAMES), st.sampled_from(BUILTIN_NAMES)).map(
    lambda names: tensor(builtin(names[0]), builtin(names[1]))
)

slopes_to_8 = (
    st.tuples(st.integers(1, 8), st.integers(1, 8))
    .filter(lambda pq: math.gcd(*pq) == 1)
    .map(lambda pq: Slope(*pq))
)

slopes_to_12 = (
    st.tuples(st.integers(1, 12), st.integers(1, 12))
    .filter(lambda pq: math.gcd(*pq) == 1)
    .map(lambda pq: Slope(*pq))
)


@settings(max_examples=100, deadline=None)
@given(st.one_of(complexes, spread_complexes, builtin_tensors), slopes_to_8)
def test_rank_parity_is_p_times_b(c, slope):
    """rank HF(Y_{p/q}) = p * b (mod 2) by both rank routes, a law that
    needs no elimination.

    The tight window keeps the HatA columns lo..hi and the HatB columns
    lo+p..hi with hi >= lo+p-1, so it has p more HatA than HatB columns:
    #A = #B + p.  Every block, HatA(s) or HatB, has n elements, one per
    generator, so the cone has dimension n(#A + #B) = n(2#B + p), which is
    n*p mod 2.  The chain route's rank is that dimension less twice a
    boundary rank, so it is n*p mod 2.  The homological route's rank is
    dim H(A) + dim H(B) less twice the block matrix's rank, and each
    block's homology is its dimension n less twice its boundary rank, so
    it is n(#A + #B) mod 2 as well.  Last, b = dim H(HatB) = n less twice
    the rank of HatB's boundary, so n = b mod 2, and both ranks are p*b
    mod 2.
    """
    cone = MappingCone(c, slope)
    n, p = len(c.columns[0][0]), slope.p
    assert len(cone.a_columns) == len(cone.b_columns) + p
    assert cone.total_dim == n * (len(cone.a_columns) + len(cone.b_columns))
    assert n % 2 == c.b_rank() % 2
    for route in (cone_rank_chain, cone_rank_homological):
        assert route(c, slope) % 2 == p * c.b_rank() % 2, route.__name__


# A dot and two components that the flip swaps: x -> U y across (i drops)
# and its image x' -> y' down (j drops).  HatB keeps x and y but kills
# x' -> y', so only the first holds cocycle classes, and P reaches the
# second through the flip pairs alone.
SWAPPED_PAIR = CfkComplex(
    (["d", "x", "y", "x'", "y'"], [0, 0, 1, 0, -1], [None] * 5),
    (["x", "x'"], ["y", "y'"], [1, 0]),
    (["d", "x", "y"], ["d", "x'", "y'"]),
    "swapped pair",
)


@settings(max_examples=80, deadline=None)
@given(st.one_of(complexes, spread_complexes, builtin_tensors), slopes_to_8)
@example(SWAPPED_PAIR, Slope(3, 2))
def test_essential_summand_and_acyclic_rest(c, slope):
    """The essential summand P and the acyclic rest Z partition the
    generators, each closed under the differential and the flip; P's
    generators, found by HatB's cocycle classes, are those the count of
    HatB's cycles per component gives; Z, built here as a complex of its
    own, has b = 0 and a chain rank of q * z; the genus, read on the whole
    complex with no split, is the genus found s by s off homology bases;
    and the homological route, read on P plus q * z, is the rank of the
    whole complex's induced block matrix."""
    e = c.essential_summand
    generators, terms, flip = c.columns
    kept = set(e.columns[0][0])
    assert e.columns[0][0] == models.reference_essential(c)
    rest = [x not in kept for x in generators[0]]
    for side in (kept, set(compress(generators[0], rest))):
        assert all(c.flip_map[x] in side for x in side)
    assert all((x in kept) == (y in kept) for x, y in zip(*terms[:2]))
    assert e.b_rank() == c.b_rank()
    if any(rest):

        def cut(columns, keep):
            return [list(compress(column, keep)) for column in columns]

        z = CfkComplex(
            cut(generators, rest),
            cut(terms, [x not in kept for x in terms[0]]),
            cut(flip, [x not in kept for x in flip[0]]),
            "acyclic rest",
        )
        assert z.validate().ok and z.b_rank() == 0
        assert cone_rank_chain(z, slope) == slope.q * c.acyclic_sum()
    else:
        assert e is c and c.acyclic_sum() == 0
    assert c.genus() == models.reference_genus(c)
    cone = MappingCone(c, slope)
    r = f2.rank(block_matrix(cone))
    assert cone_rank_homological(c, slope) == (cone.a_homology_dim - r) + (cone.b_homology_dim - r)


@settings(max_examples=30, deadline=None)
@given(complexes, slopes)
def test_formula_matches_oracle_under_hypothesis(c, slope):
    assert rank_formula(c, slope) == cone_rank_chain(c, slope)


@settings(max_examples=20, deadline=None)
@given(complexes, slopes)
def test_truncation_stability(c, slope):
    # The tight window's rank is the full boundary's on the symmetric
    # window of the safe bound and of two levels above it.
    bound = truncation_bound(c, slope)
    base = cone_rank_chain(c, slope)
    for level in (bound, bound + 1, bound + 3):
        full = full_boundary(build_cone(c, slope, level))
        assert full.cols - 2 * f2.rank(full) == base


def assert_totals_recount(cone: MappingCone) -> None:
    totals = (cone.total_dim, cone.boundary_rank, cone.a_homology_dim, cone.b_homology_dim)
    assert totals == models.recount_totals(cone), (cone.complex.name, cone.slope, cone.a_columns)


@settings(max_examples=40, deadline=None)
@given(st.one_of(wide_complexes, spread_complexes), st.lists(slopes_to_8, min_size=2, max_size=4))
def test_cone_totals_equal_the_column_recount(c, slopes):
    """A cone's four totals, read from one memo entry per class-run table,
    equal the column-by-column recount, on the tight window of each slope
    in turn, so a later slope reads what an earlier one left, and on the
    symmetric windows, which sum their own columns."""
    for slope in slopes:
        assert_totals_recount(MappingCone(c, slope))
    for extra in (0, 2):
        assert_totals_recount(build_cone(c, slopes[0], truncation_bound(c, slopes[0]) + extra))


@pytest.mark.parametrize("names", [(name,) for name in BUILTIN_NAMES] + list(combinations_with_replacement(BUILTIN_NAMES, 2)))
def test_cone_totals_equal_the_column_recount_on_knots(names):
    c = builtin(names[0]) if len(names) == 1 else tensor(*map(builtin, names))
    for slope in coprime_slopes(9, 9):
        assert_totals_recount(MappingCone(c, slope))
    assert_totals_recount(build_cone(c, Slope(2, 3)))


def test_cone_totals_equal_the_column_recount_without_a_hat_b_column():
    # At 200001/1 the tight window of t27 (genus 3) is 200,001 columns
    # wide and has no HatB column; its last class run holds all but six.
    c = builtin("t27")
    cone = MappingCone(c, Slope(200001, 1))
    assert not cone.b_columns and len(cone.a_columns) == 200001
    assert_totals_recount(cone)


@settings(max_examples=30, deadline=None)
@given(complexes, slopes, st.sampled_from([None, 0, 1, 2]))
def test_chain_route_equals_rank_of_full_boundary(c, slope, extra):
    # On the tight window and on symmetric windows from the safe bound up,
    # the sweep on the cone's own window and the chain route's tight rank
    # both give the cone's dimension less twice its full boundary's rank.
    if extra is None:
        cone = MappingCone(c, slope)
    else:
        cone = build_cone(c, slope, truncation_bound(c, slope) + extra)
    expected = cone.total_dim - 2 * f2.rank(full_boundary(cone))
    assert cone_rank_chain(c, slope) == sweep_rank(cone) == expected


@settings(max_examples=40, deadline=None)
@given(st.one_of(complexes, builtin_tensors))
def test_hat_b_cocycles_and_the_coboundary_lemma(c):
    """The chain route's split of d_B: HatB's cocycles y have y d_B = 0,
    there are dim - 2 rank(d_B) of them, which is b, and they are
    independent modulo the coboundaries, the span of d_B's rows, and pair
    invertibly with route two's homology representatives, so they are one
    basis of HatB's cohomology and every map's ``on_cocycles`` has b rows.
    The coboundary lemma is what lets the route read b rows and no more:
    a coboundary, a sum of d_B rows, gives the zero row y f N under every
    v_hat(s) and h_hat(s), f read densely and N the source's cycle basis.
    Row r of d_B is the coboundary e_r d_B and the rows span them all, so
    d_B f N = 0 is the whole lemma, and every vector of the full cocycle
    basis ``f2.kernel_basis`` of d_B's transpose that lies in their span
    has a zero row.  The rows are read by the library on that full basis
    too, whose vectors hold several elements, where the classes often
    hold one, so that a row read with a wrong parity shows: each is y f
    in its canonical form modulo the source's coboundaries, which is zero
    for a vector in the span, pairs with N as y f N does, and is the
    dense reference's canonical form."""
    region = c.region_complex(c.top)
    d, cocycles, b = region.boundary, region.cocycles, c.b_rank()
    cocycle_rows, d_rank = F2Matrix(region.dim, cocycles), f2.rank(d)
    assert (cocycle_rows @ d).is_zero()
    assert len(cocycles) == region.dim - 2 * d_rank == b == f2.rank(cocycle_rows)
    assert f2.rank(F2Matrix(region.dim, d.data + cocycles)) == d_rank + b
    reps = region.homology.reps
    pairing = [sum(((y & z).bit_count() & 1) << k for k, z in enumerate(reps)) for y in cocycles]
    assert len(reps) == b and f2.rank(F2Matrix(b, tuple(pairing))) == b
    full = tuple(f2.kernel_basis(d.transpose()))
    full_rows = F2Matrix(region.dim, full)
    full_region = RegionComplex(region.tag, d)
    full_region.cocycles = full
    assert (full_rows @ d).is_zero() and len(full) == region.dim - d_rank == f2.rank(full_rows)
    in_span = [f2.rank(F2Matrix(region.dim, d.data + (y,))) == d_rank for y in full]
    g = c.genus()
    for s in range(-g - 1, g + 2):
        for m in (c.v_hat(s), c.h_hat(s)):
            matrix = models.dense(m)
            cycles = F2Matrix.from_columns(f2.kernel_basis(m.source.boundary), m.source.dim)
            assert (d @ matrix @ cycles).is_zero(), s
            rows = (full_rows @ matrix @ cycles).data
            assert all(row == 0 for row, inside in zip(rows, in_span) if inside), s
            full_map = FilteredChainMap(m.source, full_region, m.index)
            read = full_map.on_cocycles
            assert all(row == 0 for row, inside in zip(read.data, in_span) if inside), s
            assert (read @ cycles).data == rows, s
            assert read == models.dense_on_cocycles(full_map, matrix), s
            assert m.on_cocycles.rows == b, s


@settings(max_examples=40, deadline=None)
@given(st.one_of(specs.filter(lambda s: s.dots == 1).map(random_complex), builtin_tensors), slopes_to_8)
def test_fourth_oracle_for_b_one(c, slope):
    """Ozsvath-Szabo's formula for b = 1 (``models.rank_os_b1``), read off
    the reference model with no cone, equals both cone routes."""
    assert c.b_rank() == 1
    assert models.rank_os_b1(c, slope).rank == cone_rank_chain(c, slope) == cone_rank_homological(c, slope)


@settings(max_examples=30, deadline=None)
@given(complexes, slopes, st.sampled_from([None, 1]))
def test_sweep_carries_are_canonical(c, slope, extra):
    # Every carry the sweep returns at block j is its own reduced row-echelon
    # form on the elements of HatA(j // q), and every carry it reads is on
    # those of HatA((j - p) // q).  Each carry row is a sum of the rows' v
    # blocks, so it is in its canonical form modulo that region's
    # coboundaries too, zero at every lowest bit of one, which the
    # reference reads off its own elimination of the region's boundary
    # rows.  The replay of the cones swept meets every transition.
    cones = [MappingCone(c, slope)]
    cone_rank_chain(c, slope)
    if extra is not None:
        cones.append(build_cone(c, slope, truncation_bound(c, slope) + extra))
        sweep_rank(cones[-1])
    met, p, q = set(), slope.p, slope.q
    for cone in cones:
        for j, key, increment, carry in (step for blocks in replayed_steps(cone) for step in blocks):
            met.add(key)
            for rows, region in ((key[0], c.region_complex((j - p) // q)), (carry, c.region_complex(j // q))):
                assert all(0 < row < 1 << region.dim for row in rows)
                assert tuple(f2.rref(f2.F2Matrix(region.dim, rows))[0]) == rows
                basis = models.lowest_bit_basis(region.boundary.data)
                assert all(models.canonical_form(basis, row) == row for row in rows)
            assert increment >= 0
    assert met == set(models.sweep_table(c, "sweep"))


# Each route's table tag and side method, route one on the complex and
# route two on its essential summand.
SWEEP_ROUTES = (("sweep", "cocycle_side"), ("hsweep", "induced_side"))


@contextlib.contextmanager
def random_sides(seed):
    """Both routes' side matrices replaced by ``random_side(seed)`` within
    the block, or left real when seed is None."""
    with pytest.MonkeyPatch.context() as patch:
        if seed is not None:
            patch.setattr(MappingCone, "cocycle_side", random_side(seed))
            patch.setattr(MappingCone, "induced_side", random_side(seed, homology=True))
        yield


@settings(max_examples=30, deadline=None)
@given(st.one_of(complexes, builtin_tensors), slopes, st.one_of(st.none(), st.integers(0, 10**6)))
def test_homological_sweep_carries_are_canonical(c, slope, seed):
    # Every carry the homological sweep returns at block j is its own
    # reduced row-echelon form on the homology coordinates of HatA(j // q),
    # and every carry it reads is on those of HatA((j - p) // q).  Real
    # rows have left every carry empty, so a seed swaps in random side
    # matrices on the same coordinates; either way the sweep gives the
    # block matrix's rank.  The sweep runs on the essential summand, whose
    # memo holds its steps; the acyclic rest adds q * z to the complex's
    # rank.  A random complex's summand is its dots, of genus 0, which
    # sweep no block, so tensors of builtins are drawn too.
    e = c.essential_summand
    with random_sides(seed):
        rank = cone_rank_homological(e, slope)
        assert cone_rank_homological(c, slope) == rank + slope.q * c.acyclic_sum()
        cone = MappingCone(e, slope)
        r = f2.rank(block_matrix(cone))
        steps = [step for blocks in replayed_steps(cone, "hsweep", cone.induced_side) for step in blocks]
        assert {key for _, key, _, _ in steps} == set(models.sweep_table(e, "hsweep"))
    assert rank == (cone.a_homology_dim - r) + (cone.b_homology_dim - r)
    p, q = slope.p, slope.q
    for j, key, increment, carry in steps:
        widths = [e.region_complex(s).homology.dim for s in ((j - p) // q, j // q)]
        for rows, width in ((key[0], widths[0]), (carry, widths[1])):
            assert all(0 < row < 1 << width for row in rows)
            assert tuple(f2.rref(f2.F2Matrix(width, rows))[0]) == rows
        assert increment >= 0


def assert_table_is_the_tuple_keyed_sweep(c: CfkComplex, slope: Slope, seed) -> dict:
    """Each route's numbered transition table gives the rank of the sweep
    keyed by (carry, h side, v side) tuples, ``models.reference_sweep``,
    and decodes to the same steps, on the tight window and then on the
    symmetric one, which meets the steps the first made.  A seed swaps in
    random side matrices of the same shape, where the carries matter.  The
    complex is fresh, so each table holds the steps of these two cones
    alone.  Returns each route's decoded table."""
    e, tables = c.essential_summand, {}
    with random_sides(seed):
        for x, (tag, side) in zip((c, e), SWEEP_ROUTES):
            steps = {}
            for cone in (MappingCone(x, slope), build_cone(x, slope)):
                added, made = models.reference_sweep(cone, getattr(cone, side))
                assert _sweep(cone, tag, getattr(cone, side)) == added, (tag, cone.a_columns)
                steps |= made
            tables[tag] = models.sweep_table(x, tag)
            assert tables[tag] == steps, tag
    return tables


@settings(max_examples=40, deadline=None)
@given(st.one_of(complexes, spread_complexes, builtin_tensors), slopes, st.one_of(st.none(), st.integers(0, 10**6)))
def test_numbered_table_equals_the_tuple_keyed_sweep(c, slope, seed):
    # A random complex's essential summand is its dots, of genus 0, which
    # sweep no block, so tensors of builtins are drawn for route two.
    assert_table_is_the_tuple_keyed_sweep(c, slope, seed)


@pytest.mark.parametrize("seed", [None, 7])
def test_numbered_table_equals_the_tuple_keyed_sweep_on_a_tensor(seed):
    # A pinned example on which route two sweeps: t25#t27's summand has
    # genus 5, so both tables fill, real or random.
    tables = assert_table_is_the_tuple_keyed_sweep(models.tensor_of("t25", "t27"), Slope(2, 3), seed)
    assert tables["sweep"] and tables["hsweep"]


def floor_tables(x: CfkComplex, tag: str) -> list[tuple]:
    """The keys of route ``tag``'s floor tables in x's memo, each the tag
    followed by the table's first floor and last floor."""
    return [key for key in x._memo if isinstance(key, tuple) and key[0] == tag]


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(complexes, spread_complexes, builtin_tensors),
    st.lists(slopes_to_8, min_size=2, max_size=4),
    st.integers(1, 3),
    st.integers(0, 2),
)
@example(models.tensor_of("t25", "t27"), [Slope(1, 2), Slope(3, 2)], 1, 0)
def test_floor_tables_are_shared_across_slopes_and_windows(c, slopes, between, extra):
    # One complex ranks each slope by both routes in the drawn order, with
    # the chain route swept on a symmetric window between two of them.
    # Every rank is the one the slope gets on a fresh copy of the complex,
    # so no cone is served another's floors.  Every tight cone with a HatB
    # column sweeps the floors -(g-1)..g-1, whatever its p // q, so each
    # route keeps one floor table there, and the chain route one more for
    # the symmetric window, whose floors reach past them.
    e = c.essential_summand
    between = min(between, len(slopes) - 1)
    for i, slope in enumerate(slopes):
        fresh = c.renamed(c.name)
        assert cone_rank_chain(c, slope) == cone_rank_chain(fresh, slope), str(slope)
        assert cone_rank_homological(c, slope) == cone_rank_homological(fresh, slope), str(slope)
        if i == between - 1:
            cone = build_cone(c, slope, truncation_bound(c, slope) + extra)
            assert sweep_rank(cone) == cone_rank_chain(c.renamed(c.name), slope), str(slope)
    for x, (tag, _) in zip((c, e), SWEEP_ROUTES):
        g = x.genus()
        swept = any(MappingCone(x, slope).b_columns for slope in slopes)
        tight = [key for key in floor_tables(x, tag) if (key[1], key[-1]) == (1 - g, g - 1)]
        assert len(tight) == swept, tag
        assert len(floor_tables(x, tag)) == swept + (tag == "sweep"), tag


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(complexes, spread_complexes, builtin_tensors), slopes_to_12, st.one_of(st.none(), st.integers(0, 10**6))
)
def test_each_transition_is_one_full_form_step(c, slope, seed):
    # The sweep eliminates a step once per distinct value of its carry and
    # its two side matrices, not once per pair of classes.  On both routes
    # its rank is that of the reference sweep, which eliminates every step
    # in a dict of its own; every transition of the table is the full
    # form's step of its carry and the block [h | v] assembled here; and
    # f2.rref runs once for each transition.  A seed swaps in random side
    # matrices, where the carries matter.  A random complex's essential
    # summand sweeps no block, so tensors of builtins are drawn for route
    # two.
    e = c.essential_summand
    with random_sides(seed), pytest.MonkeyPatch.context() as patch:
        for x, (tag, side) in zip((c, e), SWEEP_ROUTES):
            cone = MappingCone(x, slope)
            added, _ = models.reference_sweep(cone, getattr(cone, side))
            calls, rref = [], f2.rref
            patch.setattr(f2, "rref", lambda *args: calls.append(args) or rref(*args))
            assert _sweep(cone, tag, getattr(cone, side)) == added, tag
            patch.setattr(f2, "rref", rref)
            steps = models.sweep_table(x, tag)
            for (carry, h, v), entry in steps.items():
                assert entry == models.full_form_sweep_step(models.side_block(h, v), carry), tag
            assert len(steps) == len(calls), tag


@settings(max_examples=20, deadline=None)
@given(complexes, slopes)
def test_tight_window_equals_symmetric(c, slope):
    cone = build_cone(c, slope)
    full = full_boundary(cone)
    assert cone_rank_chain(c, slope) == full.cols - 2 * f2.rank(full)
    r = f2.rank(block_matrix(cone))
    assert cone_rank_homological(c, slope) == (cone.a_homology_dim - r) + (cone.b_homology_dim - r)


@settings(max_examples=20, deadline=None)
@given(complexes, slopes)
def test_kernel_construction_counts(c, slope):
    cone = build_cone(c, slope)
    basis = kernel_basis_construction(c, slope)
    block = block_matrix(cone)
    true_kernel = cone.a_homology_dim - f2.rank(block)
    assert len(basis) == kernel_rank(c, slope) == true_kernel
    flattened = [flatten(cone, e) for e in basis]
    for vec in flattened:
        assert block.apply(vec) == 0
    stacked = f2.F2Matrix.from_columns(flattened, cone.a_homology_dim)
    assert f2.rank(stacked) == len(basis)


@settings(max_examples=30, deadline=None)
@given(complexes, slopes)
def test_kernel_walks_stay_within_the_genus_thresholds(c, slope):
    # A walk stops where the outgoing induced image vanishes, which it does
    # past the genus: v_hat(s) for s <= -g-1 and h_hat(s) for s >= g+1.
    # So every column lies in -gq-p <= j < (g+1)q+p, which the symmetric
    # window of the safe bound contains.
    g, p, q = c.genus(), slope.p, slope.q
    window = build_cone(c, slope).a_columns
    for element in kernel_basis_construction(c, slope):
        for j in element:
            assert -g * q - p <= j < (g + 1) * q + p, (c.name, slope, j)
            assert j in window


@settings(max_examples=30, deadline=None)
@given(specs.filter(lambda s: s.dots == 1).map(random_complex), slopes)
def test_t_closed_form_for_b_one(c, slope):
    assert t_invariant(c, slope) == models.rank_os_b1(c, slope).t


# p up to 60 passes (2g - 1)q, so t's term at the genus is checked, as is
# q >= p, where t is p R(0) with no term from a cut; at genus 0 (dots only:
# boxes=0, or the unknot) t is p R(0) too.
wide_slopes = (
    st.tuples(st.integers(1, 60), st.integers(1, 8))
    .filter(lambda pq: math.gcd(*pq) == 1)
    .map(lambda pq: Slope(*pq))
)


@settings(max_examples=40, deadline=None)
@given(complexes, wide_slopes)
@example(builtin("unknot"), Slope(59, 7))
@example(random_complex(RandomSpec(seed=5, dots=3, boxes=0)), Slope(60, 1))
@example(builtin("t27"), Slope(47, 4))
@example(builtin("t27"), Slope(5, 9))
@example(tensor(builtin("t25"), builtin("figure_eight")), Slope(61, 4))
# p = (2x - 1)q -+ 1 at a cut x, where N(x) = max(0, p - (2x - 1)q) is 0 or
# 1: t27 at its genus 3, the one cut where its rank of v_hat changes, and
# B_1 # t25 at its cut 2, one of three cuts where its rank changes.
@example(builtin("t27"), Slope(19, 4))
@example(builtin("t27"), Slope(21, 4))
@example(tensor(models.borromean(), builtin("t25")), Slope(8, 3))
@example(tensor(models.borromean(), builtin("t25")), Slope(10, 3))
def test_t_is_the_unclamped_sum_of_image_meets(c, slope):
    p, q = slope.p, slope.q
    unclamped = sum(
        models.image_intersection_rank(c.v_hat(j // q).induced, c.h_hat((j - p) // q).induced)
        for j in range(p)
    )
    assert t_invariant(c, slope) == unclamped


@settings(max_examples=40, deadline=None)
@given(complexes)
def test_json_round_trip(c):
    text = c.to_json()
    assert CfkComplex.from_json(text).to_json() == text


# Ids with quotes, backslashes, control characters, non-ASCII characters and
# lone surrogates, all of which the writer escapes; names the same but for
# the control characters, line separators and surrogates the constructor
# refuses.
QUOTED = st.sampled_from('"\\\u00e9\ufeff\U0001f600')
CONTROL = st.sampled_from("\n\t\x00\x1f\x7f\u2028")
json_ids = st.text(QUOTED | CONTROL | st.characters() | st.characters(categories=["Cs"]), max_size=4)
json_names = st.text(QUOTED | st.characters(exclude_categories=["Cc", "Zl", "Zp", "Cs"]), max_size=6)


@st.composite
def column_complexes(draw) -> CfkComplex:
    """A complex of any columns of the types the parse and the builders
    give, valid or not: ids may repeat, terms and flip pairs may name any
    id, a missing one too, and a generator may get two flip partners."""
    ids = draw(st.lists(st.sampled_from("ab") | json_ids, max_size=5))
    some_id = st.sampled_from(ids) | json_ids if ids else json_ids
    generators = (
        ids,
        draw(st.lists(st.integers(), min_size=len(ids), max_size=len(ids))),
        draw(st.lists(st.none() | st.integers(), min_size=len(ids), max_size=len(ids))),
    )
    terms = draw(st.lists(st.tuples(some_id, some_id, st.integers()), max_size=5))
    pairs = draw(st.none() | st.lists(st.tuples(some_id, some_id), max_size=5))
    flip = None if pairs is None else tuple(list(column) for column in zip(*pairs)) or ([], [])
    differential = tuple(list(column) for column in zip(*terms)) or ([], [], [])
    return CfkComplex(generators, differential, flip, draw(json_names))


@settings(max_examples=200, deadline=None)
@given(st.one_of(column_complexes(), complexes))
@example(CfkComplex(([], [], []), ([], [], []), ([], []), "empty"))
@example(CfkComplex((["x"], [0], [-2]), ([], [], []), None, "flipless"))
@example(CfkComplex((["a", "a"], [0, 1], [None, 2]), (["a"], ["a"], [0]), (["a"], ["a"]), "duplicate-id"))
@example(CfkComplex((["a", "b", "c"], [0, 0, 0], [None] * 3), ([], [], []), (["a", "a"], ["b", "c"]), "flip-conflict"))
@example(CfkComplex((["a"], [0], [None]), ([], [], []), (["a"], ["z"]), "flip to a missing id"))
def test_json_text_is_the_reference_mapping_indented(c):
    assert c.to_json() == json.dumps(models.to_json_dict(c), indent=2) + "\n"


@settings(max_examples=30, deadline=None)
@given(complexes)
def test_reflected_swaps_v_and_h(c):
    r = models.reflected(c)
    assert r.validate().ok
    g = c.genus()
    for s in range(-g - 1, g + 2):
        assert r.v_hat(s).induced_rank == c.h_hat(-s).induced_rank
        assert models.kernel_dim(r.v_hat(s)) == models.kernel_dim(c.h_hat(-s))


@settings(max_examples=40, deadline=None)
@given(complexes)
def test_regions_and_maps_match_the_reference_model(c):
    models.assert_matches_reference(c)


@settings(max_examples=40, deadline=None)
@given(complexes)
def test_index_maps_match_the_dense_reference(c):
    models.assert_maps_match_dense(c)


@settings(max_examples=40, deadline=None)
@given(wide_complexes)
def test_regions_and_maps_repeat_within_each_alexander_class(c):
    models.assert_classes_hold(c)


@settings(max_examples=60, deadline=None)
@given(spread_complexes)
def test_scans_by_class_run_equal_the_scans_over_every_s(c):
    models.assert_runs_match_per_s(c)


@settings(max_examples=30, deadline=None)
@given(wide_complexes, slopes)
def test_wide_complexes_agree_on_every_route(c, slope):
    rank = cone_rank_chain(c, slope)
    assert rank == cone_rank_homological(c, slope) == rank_formula(c, slope)


# The builtins and the 15 pairwise tensors of the five nontrivial ones.
KNOT_NAMES = (*BUILTIN_NAMES, *(f"{a}#{b}" for a, b in combinations_with_replacement(BUILTIN_NAMES[1:], 2)))


def knot(name: str) -> CfkComplex:
    return models.tensor_of(*name.split("#"))


@pytest.mark.parametrize("name", KNOT_NAMES)
def test_h_hat_reads_as_v_hat_of_the_mirror_class_on_knots(name):
    # Phi_s = U^s o flip takes HatA(s) to HatA(-s) element by element, so a
    # class below its mirror is read as the mirror with v and h swapped; the
    # ``cfk`` module docstring proves it, and the model checks the ranks on
    # the true HatA(s).
    models.assert_conjugation_symmetry(knot(name))


@settings(max_examples=60, deadline=None)
@given(st.one_of(complexes, spread_complexes))
def test_h_hat_reads_as_v_hat_of_the_mirror_class(c):
    models.assert_conjugation_symmetry(c)
    models.assert_conjugation_symmetry(c.essential_summand)


def assert_sweep_steps_at_every_slope(c: CfkComplex) -> dict:
    """Run both rank routes at every coprime p, q <= 8, then check every
    sweep step they memoized against the full-form step of ``models``.
    Returns the count checked per route."""
    for slope in coprime_slopes(8, 8):
        assert cone_rank_chain(c, slope) == cone_rank_homological(c, slope)
    return models.assert_sweep_steps_match_full_form(c)


@pytest.mark.parametrize("name", KNOT_NAMES)
def test_sweep_steps_are_the_full_form_steps_on_knots(name):
    # The sweep cuts f2.rref at the v block and keeps only the rows it
    # carries, so its increments and carries must be those of the full
    # reduced row-echelon form.  Only the unknot, of genus 0, has no HatB
    # column at these slopes, and route two sweeps every knot whose
    # essential summand has a positive genus: all but the unknot, the
    # figure-eight and its square.
    c = knot(name)
    checked = assert_sweep_steps_at_every_slope(c)
    assert checked["sweep"] or c.genus() == 0
    assert checked["hsweep"] or c.essential_summand.genus() == 0


@settings(max_examples=25, deadline=None)
@given(st.one_of(complexes, spread_complexes, builtin_tensors))
def test_sweep_steps_are_the_full_form_steps(c):
    # A random complex's essential summand is its dots, of genus 0, which
    # sweep no block, so tensors of builtins are drawn for route two.
    assert_sweep_steps_at_every_slope(c)


def assert_connected_sum_law(c: CfkComplex) -> None:
    """c tensored with k dots at A = 0, each its own flip partner, is K in
    Y # Y' with rank HF(Y') = k: the cone of the product is c's cone k times
    over, so both routes rank it k times c's at every slope, b scales by k
    and the genus is c's.  For b >= 2 no other oracle checks the ranks."""
    for k in (2, 3):
        summed = tensor(c, random_complex(RandomSpec(seed=0, dots=k)))
        assert summed.b_rank() == k * c.b_rank(), (c.name, k)
        assert summed.genus() == c.genus(), (c.name, k)
        for slope in coprime_slopes(3, 3):
            for route in (cone_rank_chain, cone_rank_homological):
                assert route(summed, slope) == k * route(c, slope), (c.name, k, slope, route.__name__)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_connected_sum_with_dots_on_knots(name):
    assert_connected_sum_law(builtin(name))


@settings(max_examples=20, deadline=None)
@given(complexes)
def test_connected_sum_with_dots(c):
    assert_connected_sum_law(c)


def farey_triples(n: int) -> list[tuple[tuple[int, int], ...]]:
    """Every triple of slopes p/q, r/s and (p+r)/(q+s) with |ps - qr| = 1
    and every numerator and denominator at most n, as (p, q) pairs; 1/0 is
    (1, 0)."""
    fracs = [(p, q) for p in range(1, n + 1) for q in range(n + 1) if math.gcd(p, q) == 1]
    return [
        ((p, q), (r, s), (p + r, q + s))
        for i, (p, q) in enumerate(fracs)
        for r, s in fracs[i + 1:]
        if abs(p * s - q * r) == 1 and p + r <= n and q + s <= n
    ]


def test_farey_triples():
    triples = farey_triples(7)
    assert len(triples) == 28 and ((1, 0), (1, 1), (2, 1)) in triples
    for (p, q), (r, s), (m, n) in triples:
        assert abs(p * s - q * r) == abs(p * n - q * m) == abs(r * n - s * m) == 1


def assert_exact_triangle(c: CfkComplex, n: int) -> None:
    """The surgery exact triangle (Ozsvath-Szabo, arXiv math/0105202): for
    slopes at pairwise distance one, each of the three ranks is at most the
    sum of the other two.  The 1/0 surgery is the ambient manifold, whose
    rank is b.  Read by the chain route, the oracle, at every triple of
    ``farey_triples(n)``."""

    def rank(p: int, q: int) -> int:
        return c.b_rank() if q == 0 else cone_rank_chain(c, Slope(p, q))

    for triple in farey_triples(n):
        ranks = [rank(*slope) for slope in triple]
        assert all(2 * r <= sum(ranks) for r in ranks), (triple, ranks)


@pytest.mark.parametrize("name", KNOT_NAMES)
def test_surgery_exact_triangle_on_knots(name):
    assert_exact_triangle(knot(name), 7)


# Knot complexes beyond the builtins: staircases (L-space knots), their
# mirrors, and either tensored with a builtin.  The triangle is a theorem
# for complexes of knots; random dots-and-boxes complexes are not all known
# to be, so they are left out.
def staircase_knot(half: list[int], mirrored: bool, other: str) -> CfkComplex:
    c = staircase(half + half[::-1])
    return tensor(mirror(c) if mirrored else c, builtin(other))


knot_complexes = st.builds(
    staircase_knot,
    st.lists(st.integers(1, 2), min_size=1, max_size=3),
    st.booleans(),
    st.sampled_from(BUILTIN_NAMES),
)


@settings(max_examples=15, deadline=None)
@given(knot_complexes)
def test_surgery_exact_triangle(c):
    assert_exact_triangle(c, 6)
