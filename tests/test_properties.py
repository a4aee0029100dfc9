"""Property tests over random dots-and-boxes complexes and random slopes.

The structural laws here mirror what the acceptance battery checks on a
fixed 100-seed corpus, but with hypothesis searching the RandomSpec space.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from hfsurgery import f2
from hfsurgery.cfk import CfkComplex, HatA, HatB
from hfsurgery.knots import RandomSpec, builtin, random_complex
from hfsurgery.obstructions import hypothesis_check
from hfsurgery.surgery import (
    MappingCone,
    Slope,
    build_cone,
    cone_rank_chain,
    cone_rank_homological,
    hypothesis_holds,
    kernel_basis_construction,
    kernel_rank,
    rank_formula,
    t_invariant,
    truncation_bound,
)

import models
from full_boundary import full_boundary, random_induced_boundary

specs = st.builds(
    RandomSpec,
    seed=st.integers(0, 10**6),
    dots=st.integers(1, 3),
    boxes=st.integers(0, 2),
    max_side=st.integers(1, 2),
    max_offset=st.integers(0, 2),
)

complexes = specs.map(random_complex)

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
        assert v.induced_rank() == h.induced_rank()
        assert v.induced_kernel_dim() == h.induced_kernel_dim()


@settings(max_examples=40, deadline=None)
@given(complexes)
def test_image_monotonicity(c):
    g = c.genus()
    for s in range(-g - 1, g + 1):
        v_small = c.v_hat(s).induced
        v_big = c.v_hat(s + 1).induced
        assert f2.image_intersection_rank(v_small, v_big) == f2.rank(v_small)
        h_small = c.h_hat(s).induced
        h_big = c.h_hat(s + 1).induced
        assert f2.image_intersection_rank(h_small, h_big) == f2.rank(h_big)


@settings(max_examples=40, deadline=None)
@given(complexes)
def test_genus_thresholds(c):
    g = c.genus()
    assert c.v_hat(g).is_induced_iso()
    assert c.h_hat(-g).is_induced_iso()
    assert c.h_hat(g + 1).induced.is_zero()
    assert c.v_hat(-g - 1).induced.is_zero()


@settings(max_examples=40, deadline=None)
@given(complexes)
def test_a_region_stabilizes_at_b(c):
    g, b = c.genus(), c.b_rank()
    for s in (g, g + 1, -g, -g - 1):
        assert c.region_complex(HatA(s)).homology.dim == b


@settings(max_examples=40, deadline=None)
@given(complexes)
def test_homology_quotients_the_region_cycles(c):
    # Both rank routes start from one cycle basis per region: the homology
    # picks its representatives among those cycles.
    g = c.genus()
    for tag in [HatB()] + [HatA(s) for s in range(-g - 1, g + 2)]:
        region = c.region_complex(tag)
        assert set(region.homology.reps) <= set(region.cycles), tag
        assert region.homology.dim == len(region.cycles) - f2.rank(region.boundary), tag


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
        assert c.single_point_region_rank() == c.hfk_hat(c.genus()) > 0


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
    # A random complex is a direct sum of dots and boxes, summands with
    # b <= 1, and for b <= 1 the containments follow from the rank symmetry
    # rk v_s = rk h_-s and the monotone images; a direct sum inherits them.
    assert hypothesis_holds(random_complex(spec))


@settings(max_examples=30, deadline=None)
@given(complexes, slopes)
def test_formula_matches_oracle_under_hypothesis(c, slope):
    if hypothesis_check(c).overall:
        assert rank_formula(c, slope) == cone_rank_chain(c, slope)


@settings(max_examples=20, deadline=None)
@given(complexes, slopes)
def test_truncation_stability(c, slope):
    bound = truncation_bound(c, slope)
    base = cone_rank_chain(c, slope, bound)
    assert cone_rank_chain(c, slope, bound + 1) == base
    assert cone_rank_chain(c, slope, bound + 3) == base


@settings(max_examples=30, deadline=None)
@given(complexes, slopes, st.sampled_from([None, 0, 1, 2]))
def test_chain_route_equals_rank_of_full_boundary(c, slope, extra):
    level = None if extra is None else truncation_bound(c, slope) + extra
    cone = MappingCone(c, slope, level)
    expected = cone.total_dim - 2 * f2.rank(full_boundary(cone))
    assert cone_rank_chain(c, slope, level) == expected


@settings(max_examples=30, deadline=None)
@given(complexes, slopes, st.sampled_from([None, 1]))
def test_sweep_carries_are_canonical(c, slope, extra):
    # Every carry the sweep returns is its own reduced row-echelon form on
    # the cycle coordinates of HatA(key[1]), and every carry it reads is
    # on those of HatA(key[0]).
    level = None if extra is None else truncation_bound(c, slope) + extra
    cone_rank_chain(c, slope, level)
    steps = [(k, v) for k, v in c._memo.items() if k[0] == "sweep"]
    for (_, carry_in, key), (increment, carry) in steps:
        widths = [len(c.region_complex(HatA(s)).cycles) for s in key]
        for rows, width in ((carry_in, widths[0]), (carry, widths[1])):
            assert all(0 < row < 1 << width for row in rows)
            assert tuple(f2.rref(f2.F2Matrix(width, rows))[0]) == rows
        assert increment >= 0


@settings(max_examples=30, deadline=None)
@given(complexes, slopes, st.one_of(st.none(), st.integers(0, 10**6)))
def test_homological_sweep_carries_are_canonical(c, slope, seed):
    # Every carry the homological sweep returns is its own reduced
    # row-echelon form on the homology coordinates of HatA(key[1]), and
    # every carry it reads is on those of HatA(key[0]).  Real rows have
    # left every carry empty, so a seed swaps in random rows on the same
    # coordinates; either way the sweep gives the block matrix's rank.
    with pytest.MonkeyPatch.context() as patch:
        if seed is not None:
            patch.setattr(MappingCone, "induced_boundary", random_induced_boundary(seed))
        rank = cone_rank_homological(c, slope)
        cone = MappingCone(c, slope)
        r = f2.rank(cone.block_matrix())
    assert rank == (cone.a_homology_dim - r) + (cone.b_homology_dim - r)
    steps = [(k, v) for k, v in c._memo.items() if k[0] == "hsweep"]
    for (_, carry_in, key), (increment, carry) in steps:
        widths = [c.region_complex(HatA(s)).homology.dim for s in key]
        for rows, width in ((carry_in, widths[0]), (carry, widths[1])):
            assert all(0 < row < 1 << width for row in rows)
            assert tuple(f2.rref(f2.F2Matrix(width, rows))[0]) == rows
        assert increment >= 0


@settings(max_examples=20, deadline=None)
@given(complexes, slopes)
def test_tight_window_equals_symmetric(c, slope):
    assert cone_rank_chain(c, slope) == cone_rank_chain(c, slope, truncation_bound(c, slope))
    cone = build_cone(c, slope)
    r = f2.rank(cone.block_matrix())
    assert cone_rank_homological(c, slope) == (cone.a_homology_dim - r) + (cone.b_homology_dim - r)


@settings(max_examples=20, deadline=None)
@given(complexes, slopes)
def test_kernel_construction_counts(c, slope):
    if not hypothesis_check(c).overall:
        return
    cone = build_cone(c, slope)
    basis = kernel_basis_construction(c, slope)
    true_kernel = cone.a_homology_dim - f2.rank(cone.block_matrix())
    assert len(basis) == kernel_rank(c, slope) == true_kernel
    for element in basis:
        assert cone.block_apply(element) == 0
    stacked = f2.F2Matrix.from_columns(
        [cone.flatten(e) for e in basis], cone.a_homology_dim
    )
    assert f2.rank(stacked) == len(basis)


@settings(max_examples=30, deadline=None)
@given(specs.filter(lambda s: s.dots == 1).map(random_complex), slopes)
def test_t_closed_form_for_b_one(c, slope):
    assert t_invariant(c, slope) == models.t_closed_form(c, slope)


@settings(max_examples=30, deadline=None)
@given(complexes, slopes)
def test_t_is_the_unclamped_sum_of_image_meets(c, slope):
    p, q = slope.p, slope.q
    unclamped = sum(
        f2.image_intersection_rank(c.v_hat(j // q).induced, c.h_hat((j - p) // q).induced)
        for j in range(p)
    )
    assert t_invariant(c, slope) == unclamped


@settings(max_examples=40, deadline=None)
@given(complexes)
def test_json_round_trip(c):
    text = c.to_json()
    assert CfkComplex.from_json(text).to_json() == text


@settings(max_examples=30, deadline=None)
@given(complexes)
def test_reflected_swaps_v_and_h(c):
    r = models.reflected(c)
    assert r.validate().ok
    g = c.genus()
    for s in range(-g - 1, g + 2):
        assert r.v_hat(s).induced_rank() == c.h_hat(-s).induced_rank()
        assert r.v_hat(s).induced_kernel_dim() == c.h_hat(-s).induced_kernel_dim()


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["unknot", "trefoil_rh", "trefoil_lh", "figure_eight", "t25"]), slopes)
def test_builtin_oracle_agreement(name, slope):
    c = builtin(name)
    assert cone_rank_chain(c, slope) == cone_rank_homological(c, slope) == rank_formula(c, slope)


@settings(max_examples=40, deadline=None)
@given(complexes)
def test_regions_and_maps_match_the_reference_model(c):
    models.assert_matches_reference(c)
