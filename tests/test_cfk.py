"""Unit tests for the bifiltered complex data model and its regions."""

from itertools import combinations

import pytest

from hfsurgery import f2
from hfsurgery.cfk import (
    CfkComplex,
    DiffTerm,
    FlipPair,
    FlipRequiredError,
    Generator,
    HatA,
    HatB,
    MirroredRegion,
    UnknownRegionError,
    move_bits,
)
from hfsurgery.f2 import F2Matrix, InvalidComplexError
from hfsurgery.knots import BUILTIN_NAMES, builtin, tensor
from hfsurgery.surgery import Slope, compute_rank_report, cone_rank_homological

import models


@pytest.fixture
def unknot():
    return builtin("unknot")


@pytest.fixture
def trefoil():
    return builtin("trefoil_rh")


@pytest.fixture
def fig8():
    return builtin("figure_eight")


class TestValidate:
    def test_unknot_valid(self, unknot):
        assert unknot.validate().ok
        assert str(unknot.validate()) == "valid"

    def test_trefoil_valid(self, trefoil):
        # d^2(b) = U d(a) + d(c) = 0 by inspection
        assert trefoil.validate().ok

    def test_reducedness_violation(self, trefoil):
        bad = CfkComplex(
            trefoil.generators,
            list(trefoil.differential) + [DiffTerm("b", "b", 0)],
            trefoil.flip_pairs,
            "bad",
        )
        report = bad.validate()
        assert not report.ok
        assert any(issue.code == "reduced" for issue in report.issues)

    def test_d_squared_violation(self):
        c = CfkComplex(
            [Generator("x", 1), Generator("y", 0), Generator("z", -1)],
            [DiffTerm("x", "y", 0), DiffTerm("y", "z", 0)],
            None,
            "not-a-complex",
        )
        report = c.validate()
        assert any(issue.code == "d-squared" for issue in report.issues)

    def test_filtration_violation(self):
        c = CfkComplex(
            [Generator("x", 0), Generator("y", 3)],
            [DiffTerm("x", "y", 1)],
            None,
            "raises-j",
        )
        assert any(i.code == "filtration" for i in c.validate().issues)

    def test_duplicate_ids_flagged(self):
        c = CfkComplex([Generator("x", 0), Generator("x", 0)], [], None, "dup")
        assert any(i.code == "duplicate-id" for i in c.validate().issues)

    def test_flip_must_negate_alexander(self):
        c = CfkComplex(
            [Generator("x", 1), Generator("y", 0)],
            [],
            [FlipPair("x", "x"), FlipPair("y", "y")],
            "bad-flip",
        )
        assert any(i.code == "flip-alexander" for i in c.validate().issues)

    def test_flip_must_commute(self):
        # x sits at A = 1 with partner y at A = -1, but the differential
        # only leaves x, so the induced involution cannot commute.
        c = CfkComplex(
            [Generator("x", 1), Generator("y", -1), Generator("w", 0)],
            [DiffTerm("x", "w", 0)],
            [FlipPair("x", "y"), FlipPair("w", "w")],
            "non-commuting",
        )
        assert any(i.code == "flip-commute" for i in c.validate().issues)

    def test_validate_never_raises(self):
        c = CfkComplex([], [DiffTerm("ghost", "ghost", 0)], None, "broken")
        report = c.validate()
        assert not report.ok

    def test_validate_never_raises_with_flip_and_bad_term(self):
        c = CfkComplex(
            [Generator("x", 0)],
            [DiffTerm("x", "ghost", 1)],
            [FlipPair("x", "x")],
            "broken-with-flip",
        )
        report = c.validate()
        assert any(i.code == "unknown-generator" for i in report.issues)

    def test_empty_complex_is_invalid(self):
        # HF-hat of a closed 3-manifold is never zero, so b_rank >= 1.
        c = CfkComplex([], [], [], "empty")
        assert [i.code for i in c.validate().issues] == ["empty"]
        with pytest.raises(InvalidComplexError):
            c.require_valid()

    def test_require_valid_raises(self):
        c = CfkComplex([Generator("x", 0), Generator("x", 0)], [], None, "dup")
        with pytest.raises(InvalidComplexError):
            c.require_valid()


def after_both_routes():
    """t25 # t27 after both rank routes at four slopes."""
    c = tensor(builtin("t25"), builtin("t27"))
    for slope in (Slope(1, 1), Slope(2, 1), Slope(3, 2), Slope(5, 3)):
        compute_rank_report(c, slope)
        cone_rank_homological(c, slope)
    return c


class TestRegions:
    def test_trefoil_hat_a0(self, trefoil):
        region = trefoil.region_complex(HatA(0))
        members = models.reference_members(trefoil, HatA(0))
        assert set(members) == {("a", 1), ("b", 0), ("c", 0)} and region.dim == 3
        col = models.position(trefoil, HatA(0), "b", 0)
        image = [row for row in range(region.dim) if region.boundary.data[row] >> col & 1]
        assert {members[r] for r in image} == {("a", 1), ("c", 0)}
        assert region.homology.dim == 1

    def test_trefoil_hat_b(self, trefoil):
        region = trefoil.region_complex(HatB())
        members = models.reference_members(trefoil, HatB())
        assert set(members) == {("a", 0), ("b", 0), ("c", 0)} and region.dim == 3
        # the U a component has i = -1 and is dropped
        col = models.position(trefoil, HatB(), "b", 0)
        image = [row for row in range(region.dim) if region.boundary.data[row] >> col & 1]
        assert {members[r] for r in image} == {("c", 0)}
        assert region.homology.dim == 1

    def test_unknot_j_level(self, unknot):
        region = models.j_level_region(unknot, 0)
        assert region.dim == 1 and region.homology.dim == 1

    def test_quadrant_single_point(self, trefoil):
        members, _ = models.reference_region(trefoil, models.Quadrant(0))
        assert members == (("a", 1),)

    @pytest.mark.parametrize(
        "tag",
        ["nonsense", models.JLevel(0), models.Quadrant(0)],
        ids=["nonsense", "j-level", "quadrant"],
    )
    def test_unknown_tag(self, trefoil, tag):
        with pytest.raises(UnknownRegionError):
            trefoil.region_complex(tag)

    def test_region_memoized(self, trefoil):
        assert trefoil.region_complex(HatA(0)) is trefoil.region_complex(HatA(0))

    def test_hat_regions_keep_only_their_boundary(self):
        # After both rank routes, every memoized HatA and HatB region
        # holds its tag, its boundary with one column per generator and
        # what it caches from the boundary, its cycles, its cocycle
        # classes (HatB's alone are read) and its homology: no cycle rows,
        # no per-element data, which a region shared by a whole Alexander
        # class could not have, and no boundary space apart from the
        # homology's.  A region
        # below its mirror class holds, besides, the mirror region it reads
        # its cycles off and the complex's flip permutation, and no boundary
        # space at all.
        c = after_both_routes()
        regions = [
            value
            for key, value in c._memo.items()
            if isinstance(key, tuple) and key[0] == "region" and isinstance(key[1], (HatA, HatB))
        ]
        direct = [region for region in regions if not isinstance(region, MirroredRegion)]
        mirrored = [region for region in regions if isinstance(region, MirroredRegion)]
        assert len(direct) > 2 and len(mirrored) > 2
        for region in direct:
            assert region.dim == len(c.generators)
            assert set(vars(region)) <= {"tag", "boundary", "cycles", "cocycles", "homology"}
        for region in mirrored:
            assert region.dim == len(c.generators)
            assert set(vars(region)) <= {"tag", "boundary", "cycles", "homology", "mirror", "flip"}
            assert region.mirror is c.region_complex(HatA(-region.tag.s))
            assert not isinstance(region.mirror, MirroredRegion)
            assert region.flip is c._flip_index

    def test_hat_maps_keep_only_their_index(self):
        # After both rank routes, every memoized v_hat and h_hat holds its
        # two regions, its index map and what it caches from them: no
        # mask or other per-kind data beside the index.
        c = after_both_routes()
        maps = {key: value for key, value in c._memo.items() if isinstance(key, tuple) and key[0] in ("v", "h")}
        assert {kind for kind, _ in maps} == {"v", "h"} and len(maps) > 2
        for m in maps.values():
            assert set(vars(m)) <= {"source", "target", "index", "induced", "on_cocycles", "induced_rank"}

    @pytest.mark.parametrize("name", BUILTIN_NAMES + ("t25#t27",))
    def test_hat_a_at_or_above_the_top_grading_is_hat_b(self, name):
        # Every upower of HatA(s) is 0 once s reaches the top grading, so it is
        # served as the HatB region itself; below that it is its own region.
        first, *rest = name.split("#")
        c = builtin(first)
        for part in rest:
            c = tensor(c, builtin(part))
        top = max(g.alexander for g in c.generators)
        for s in range(top - 2, top + 3):
            assert (c.region_complex(HatA(s)) is c.region_complex(HatB())) == (s >= top), s

    def test_single_bit_boundary_rows_share_the_unit_masks(self):
        # A boundary row with one set bit is the complex's one unit mask for
        # that bit, the same int object in every region, not a copy.
        c = tensor(builtin("t25"), builtin("t27"))
        units = {}
        single = 0
        for tag in (HatB(), HatA(0), HatA(1)):
            for row in c.region_complex(tag).boundary.data:
                if row.bit_count() == 1:
                    assert units.setdefault(row, row) is row, (tag, row)
                    single += 1
        # Some unit masks are read in more than one region.
        assert single > len(units)

    def test_cycles_and_homology_share_one_kernel_basis(self, fig8, monkeypatch):
        # A fresh region eliminates its boundary's columns once, whichever
        # of cycles and homology is read first: the homology quotients the
        # region's own cycles by the boundary space that pass left.
        calls = []
        column_elimination = f2.column_elimination

        def counting(columns):
            calls.append(len(columns))
            return column_elimination(columns)

        monkeypatch.setattr(f2, "column_elimination", counting)
        for tag, first in ((HatA(0), "cycles"), (HatB(), "homology")):
            region = fig8.region_complex(tag)
            getattr(region, first)
            assert set(region.homology.reps) <= set(region.cycles)
            assert list(region.cycles) == models.reference_kernel_basis(region.boundary)
            assert calls == [region.dim], tag
            assert "_image" not in vars(region), tag
            calls.clear()
        # A read that finds the boundary space taken, as a second thread
        # building the same homology can, eliminates the boundary again and
        # builds the same basis.  HatA(-1) of the figure-eight is read off
        # its mirror, so the region here is t25's HatA(1), built directly.
        t25 = builtin("t25")
        region = t25.region_complex(HatA(1))
        assert not isinstance(region, MirroredRegion)
        region.cycles
        vars(region).pop("_image")
        fresh = models.reference_complex(t25, HatA(1))
        assert region.homology.reps == fresh.homology.reps
        assert [region.homology.coords(v) for v in region.cycles] == [
            fresh.homology.coords(v) for v in fresh.cycles
        ]
        assert calls == [region.dim, region.dim, region.dim]
        calls.clear()
        # HatA(-1) of the figure-eight lies below its mirror class, whose
        # region is HatB: its cycles are HatB's moved through the flip, read
        # with no elimination and holding no boundary space.  They are a
        # basis of its cycles, in HatB's order; its homology eliminates its
        # own boundary once and picks the moved representatives.
        region, mirror = fig8.region_complex(HatA(-1)), fig8.region_complex(HatB())
        assert isinstance(region, MirroredRegion) and region.mirror is mirror
        region.cycles
        assert calls == [] and "_image" not in vars(region)
        assert list(region.cycles) == move_bits(mirror.cycles, region.flip)
        rows = F2Matrix.from_columns(region.cycles, region.dim)
        assert (region.boundary @ rows).is_zero()
        assert len(region.cycles) == region.dim - f2.rank(region.boundary) == f2.rank(F2Matrix(region.dim, region.cycles))
        assert list(region.homology.reps) == move_bits(mirror.homology.reps, region.flip)
        assert set(region.homology.reps) <= set(region.cycles)
        assert calls == [region.dim] and "_image" not in vars(region)

    def test_cocycles_read_the_boundary_rows(self, monkeypatch):
        # HatB's cocycles eliminate the boundary's rows as they stand, the
        # columns of its transpose, so reading them builds no matrix.  The
        # classes are those of eliminating the columns of the built
        # transpose, the path through two transposes.
        c = tensor(builtin("t25"), builtin("t27"))
        region = c.region_complex(HatB())
        assert "cocycles" not in vars(region)
        calls = []
        from_columns = F2Matrix.from_columns.__func__

        def counting(cls, col_masks, rows):
            calls.append(rows)
            return from_columns(cls, col_masks, rows)

        monkeypatch.setattr(F2Matrix, "from_columns", classmethod(counting))
        classes = region.cocycles
        assert calls == []
        monkeypatch.undo()
        cocycles, coboundaries = f2.column_elimination(region.boundary.transpose().transpose().data)
        expected = []
        for y in cocycles:
            reduced = f2._reduce(coboundaries, y)
            if reduced:
                f2._insert(coboundaries, reduced)
                expected.append(y)
        assert classes == tuple(expected)
        assert len(classes) == c.b_rank()


class TestVhat:
    def test_unknot_identity(self, unknot):
        for s in range(0, 4):
            assert unknot.v_hat(s).induced.data == (1,)

    def test_trefoil_zero_at_0(self, trefoil):
        # [U a] generates H(HatA(0)) and projects to [c] = d(b) = 0 in H(HatB)
        v0 = trefoil.v_hat(0)
        assert v0.induced.data == (0,)
        assert v0.induced_rank == 0 and models.kernel_dim(v0) == 1

    def test_trefoil_iso_at_1(self, trefoil):
        assert models.is_iso(trefoil.v_hat(1))

    def test_works_without_flip(self):
        c = CfkComplex(
            [Generator("a", 1), Generator("b", 0), Generator("c", -1)],
            [DiffTerm("b", "a", 1), DiffTerm("b", "c", 0)],
            None,
            "flipless",
        )
        assert c.v_hat(0).induced.data == (0,)
        assert c.genus() == 1


class TestHhat:
    def test_unknot_identity_nonpositive(self, unknot):
        for s in (0, -1, -2):
            assert unknot.h_hat(s).induced.data == (1,)

    def test_trefoil_zero_at_0(self, trefoil):
        # U a projects to U a in the j = 0 level, flips to c, and [c] = 0
        assert trefoil.h_hat(0).induced.data == (0,)

    def test_trefoil_iso_at_minus_1(self, trefoil):
        assert models.is_iso(trefoil.h_hat(-1))

    def test_missing_flip(self):
        c = CfkComplex([Generator("x", 0)], [], None, "flipless")
        with pytest.raises(FlipRequiredError):
            c.h_hat(0)

    def test_matches_three_stage_composite(self, fig8):
        """h_hat agrees with projection, U^s shift, then flip, assembled
        explicitly through the j-level regions of ``models``."""
        for s in (-1, 0, 1):
            source = fig8.region_complex(HatA(s))
            j_s = models.j_level_region(fig8, s)
            j_0 = models.j_level_region(fig8, 0)
            target = fig8.region_complex(HatB())
            proj = [0] * j_s.dim
            for col, (gid, k) in enumerate(models.reference_members(fig8, HatA(s))):
                if fig8.alexander[gid] - k == s:
                    proj[models.position(fig8, j_s.tag, gid, fig8.alexander[gid] - s)] |= 1 << col
            shift = [0] * j_0.dim
            for col, (gid, k) in enumerate(models.reference_members(fig8, j_s.tag)):
                shift[models.position(fig8, j_0.tag, gid, fig8.alexander[gid])] |= 1 << col
            flip = [0] * target.dim
            for col, (gid, k) in enumerate(models.reference_members(fig8, j_0.tag)):
                flip[models.position(fig8, HatB(), fig8.flip_map[gid], 0)] |= 1 << col
            composite = (
                f2.F2Matrix(j_0.dim, tuple(flip))
                @ f2.F2Matrix(j_s.dim, tuple(shift))
                @ f2.F2Matrix(source.dim, tuple(proj))
            )
            assert composite.data == models.dense(fig8.h_hat(s)).data


class TestInvariants:
    def test_hfk_unknot(self, unknot):
        assert unknot.hfk_hat(0) == 1 and unknot.hfk_hat(1) == 0

    def test_hfk_trefoil(self, trefoil):
        assert [trefoil.hfk_hat(s) for s in (-1, 0, 1)] == [1, 1, 1]

    def test_hfk_fig8(self, fig8):
        assert [fig8.hfk_hat(s) for s in (1, 0, -1)] == [1, 3, 1]

    def test_b_rank(self, unknot, trefoil):
        assert unknot.b_rank() == 1
        assert trefoil.b_rank() == 1

    def test_b_rank_dots(self):
        gens = [Generator(f"e{i}", 0) for i in range(3)]
        c = CfkComplex(gens, [], [FlipPair(g.id, g.id) for g in gens], "dots")
        assert c.b_rank() == 3

    def test_genus(self, unknot, trefoil, fig8):
        assert unknot.genus() == 0
        assert trefoil.genus() == 1
        assert fig8.genus() == 1
        assert builtin("t25").genus() == 2

    def test_single_point_region(self, trefoil, fig8):
        assert models.single_point_region_rank(trefoil) == 1
        assert models.single_point_region_rank(fig8) == 1
        assert models.single_point_region_rank(builtin("t25")) == 1


class TestEssentialSummand:
    def test_figure_eight_splits_off_its_box(self, fig8):
        # The dot e has b = 1 and the unit box b = 0.  The box's only
        # homology in a HatA region is H(HatA(0)), of dimension 2, so its
        # cone adds 2q: rank p + 2q at p/q.
        e = fig8.essential_summand
        assert [g.id for g in e.generators] == ["e"]
        assert e.essential_summand is e and e.acyclic_sum() == 0
        assert fig8.acyclic_sum() == 2
        assert (fig8.genus(), fig8.b_rank(), e.genus(), e.b_rank()) == (1, 1, 0, 1)

    @pytest.mark.parametrize("name", ["unknot", "trefoil_rh", "t27", "t25#t27", "no flip", "three dots"])
    def test_complexes_that_do_not_split_are_their_own_summand(self, name):
        # Connected, flipless, or with no component of b = 0.
        if name == "no flip":
            t = builtin("trefoil_rh")
            c = CfkComplex(t.generators, t.differential, None, name)
        elif name == "three dots":
            gens = [Generator(f"e{i}", 0) for i in range(3)]
            c = CfkComplex(gens, [], [FlipPair(g.id, g.id) for g in gens], name)
        elif name == "t25#t27":
            c = tensor(builtin("t25"), builtin("t27"))
        else:
            c = builtin(name)
        assert c.essential_summand is c and c.acyclic_sum() == 0

    def test_summand_keeps_the_order_flip_and_validation(self):
        c = tensor(builtin("trefoil_rh"), builtin("figure_eight"))
        e = c.essential_summand
        kept = [g.id for g in e.generators]
        assert kept == [g.id for g in c.generators if g.id.endswith("|e")] and len(kept) == 3
        assert e.flip_map == {x: c.flip_map[x] for x in kept}
        assert e.validate() is c.validate() and e.name == c.name
        assert all(t.source in kept and t.target in kept for t in e.differential)

    def test_invalid_complex_raises_before_any_split(self):
        c = CfkComplex([Generator("a", 1)], [], [FlipPair("a", "a")], "bad flip")
        with pytest.raises(InvalidComplexError):
            c.essential_summand

    def test_wide_box_rest(self):
        # A dot and a box of side n: the box's HatA homology is 2 at each
        # |s| < n, and the genus is n; rank 1 + (4n - 2) at 1/1.
        n = 1000
        c = models.dot_and_box(n)
        assert [g.id for g in c.essential_summand.generators] == ["e0"]
        assert c.genus() == n and c.acyclic_sum() == 4 * n - 2


class TestReflected:
    def test_unknot_fixed(self, unknot):
        r = models.reflected(unknot)
        assert r.validate().ok
        assert r.hfk_profile() == unknot.hfk_profile()

    def test_trefoil_relabels_staircase(self, trefoil):
        r = models.reflected(trefoil)
        assert r.validate().ok
        # the staircase is flip symmetric: swapping i and j relabels a and c
        assert r.alexander == {"a": -1, "b": 0, "c": 1}
        assert set(r.differential) == {DiffTerm("b", "a", 0), DiffTerm("b", "c", 1)}

    def test_rank_symmetry_with_h(self, trefoil, fig8):
        for c in (trefoil, fig8, builtin("t25")):
            r = models.reflected(c)
            for s in range(-3, 4):
                assert r.v_hat(s).induced_rank == c.h_hat(-s).induced_rank
                assert models.kernel_dim(r.v_hat(s)) == models.kernel_dim(c.h_hat(-s))

    def test_requires_flip(self):
        c = CfkComplex([Generator("x", 0)], [], None, "flipless")
        with pytest.raises(FlipRequiredError):
            models.reflected(c)


class TestFlipEquivalence:
    def test_induced_invertible(self, trefoil, fig8):
        # the flip conjugated with U^s is a chain homotopy equivalence
        # HatA(s) -> HatA(-s); its induced matrix must be invertible
        for c in (trefoil, fig8):
            for s in range(-2, 3):
                eq = models.region_flip_equivalence(c, s)
                assert models.is_iso(eq)


class TestJson:
    def test_round_trip_bit_exact(self, trefoil, fig8):
        for c in (trefoil, fig8, builtin("t27")):
            text = c.to_json()
            again = CfkComplex.from_json(text)
            assert again.to_json() == text

    def test_maslov_survives(self):
        c = CfkComplex([Generator("x", 0, maslov=-2)], [], None, "graded")
        again = CfkComplex.from_json(c.to_json())
        assert again.generators[0].maslov == -2

    def test_flipless_has_no_flip_key(self):
        c = CfkComplex([Generator("x", 0)], [], None, "flipless")
        assert "flip" not in c.to_json_dict()


class TestReferenceModel:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtins(self, name):
        models.assert_matches_reference(builtin(name))

    @pytest.mark.parametrize("pair", list(combinations(BUILTIN_NAMES, 2)), ids="#".join)
    def test_builtin_tensors(self, pair):
        models.assert_matches_reference(tensor(builtin(pair[0]), builtin(pair[1])))

    @pytest.mark.parametrize("pair", list(combinations(BUILTIN_NAMES, 2)), ids="#".join)
    def test_builtin_tensor_index_maps_match_the_dense_reference(self, pair):
        models.assert_maps_match_dense(tensor(builtin(pair[0]), builtin(pair[1])))

    @pytest.mark.parametrize(
        "parts", [(name,) for name in BUILTIN_NAMES] + list(combinations(BUILTIN_NAMES, 2)), ids="#".join
    )
    def test_regions_and_maps_repeat_within_each_alexander_class(self, parts):
        c = builtin(parts[0])
        for part in parts[1:]:
            c = tensor(c, builtin(part))
        models.assert_classes_hold(c)
