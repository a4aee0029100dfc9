"""Unit tests for the bifiltered complex data model and its regions."""

import functools
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations, combinations_with_replacement

import pytest

from hfsurgery import cfk, f2
from hfsurgery.cfk import (
    CfkComplex,
    ComplexTooWideError,
    FilteredChainMap,
    FlipRequiredError,
    RegionComplex,
)
from hfsurgery.f2 import F2Matrix, InvalidComplexError
from hfsurgery.knots import BUILTIN_NAMES, RandomSpec, builtin, mirror, random_complex, staircase, tensor
from hfsurgery.obstructions import complement_check, hypothesis_check
from hfsurgery.surgery import (
    Slope,
    SlopeError,
    compute_rank_report,
    cone_rank_chain,
    cone_rank_homological,
    rank_formula,
)

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


class TestConstructor:
    """The constructor keeps the column lists it is given, and a complex
    built from another shares them, so no column is copied."""

    def test_keeps_the_lists_it_is_given(self):
        ids, alexander, maslov = ["x", "y"], [0, 0], [None, None]
        terms, flip = ([], [], []), (["x", "y"], ["x", "y"])
        c = CfkComplex((ids, alexander, maslov), terms, flip, "given")
        assert c.columns[0][0] is ids
        given = ((ids, alexander, maslov), terms, flip)
        assert all(a is b for mine, theirs in zip(c.columns, given) for a, b in zip(mine, theirs))

    def test_renamed_shares_every_column(self, trefoil):
        r = trefoil.renamed("other")
        assert r.name == "other" and trefoil.name == "trefoil_rh"
        assert all(a is b for mine, theirs in zip(r.columns, trefoil.columns) for a, b in zip(mine, theirs))

    def test_mirror_shares_ids_terms_and_flip(self, trefoil):
        (ids, _, _), (sources, targets, upowers), flip = trefoil.columns
        (m_ids, _, _), (m_sources, m_targets, m_upowers), m_flip = mirror(trefoil).columns
        assert m_ids is ids
        assert m_sources is targets and m_targets is sources and m_upowers is upowers
        assert all(a is b for a, b in zip(m_flip, flip))


class TestValidate:
    def test_unknot_valid(self, unknot):
        assert unknot.validate().ok
        assert str(unknot.validate()) == "valid"

    def test_trefoil_valid(self, trefoil):
        # d^2(b) = U d(a) + d(c) = 0 by inspection
        assert trefoil.validate().ok

    def test_reducedness_violation(self, trefoil):
        generators, terms, flip = trefoil.columns
        bad = CfkComplex(generators, [column + [end] for column, end in zip(terms, ("b", "b", 0))], flip, "bad")
        report = bad.validate()
        assert not report.ok
        assert any(issue.code == "reduced" for issue in report.issues)

    def test_d_squared_violation(self):
        c = CfkComplex(
            (["x", "y", "z"], [1, 0, -1], [None] * 3),
            (["x", "y"], ["y", "z"], [0, 0]),
            None,
            "not-a-complex",
        )
        report = c.validate()
        assert any(issue.code == "d-squared" for issue in report.issues)

    def test_filtration_violation(self):
        c = CfkComplex((["x", "y"], [0, 3], [None] * 2), (["x"], ["y"], [1]), None, "raises-j")
        assert any(i.code == "filtration" for i in c.validate().issues)

    def test_duplicate_ids_flagged(self):
        c = CfkComplex((["x", "x"], [0, 0], [None] * 2), ([], [], []), None, "dup")
        assert any(i.code == "duplicate-id" for i in c.validate().issues)

    def test_flip_must_negate_alexander(self):
        c = CfkComplex((["x", "y"], [1, 0], [None] * 2), ([], [], []), (["x", "y"], ["x", "y"]), "bad-flip")
        assert any(i.code == "flip-alexander" for i in c.validate().issues)

    def test_flip_must_commute(self):
        # x sits at A = 1 with partner y at A = -1, but the differential
        # only leaves x, so the induced involution cannot commute.
        c = CfkComplex(
            (["x", "y", "w"], [1, -1, 0], [None] * 3),
            (["x"], ["w"], [0]),
            (["x", "w"], ["y", "w"]),
            "non-commuting",
        )
        assert any(i.code == "flip-commute" for i in c.validate().issues)

    def test_validate_never_raises(self):
        c = CfkComplex(([], [], []), (["ghost"], ["ghost"], [0]), None, "broken")
        report = c.validate()
        assert not report.ok

    def test_validate_never_raises_with_flip_and_bad_term(self):
        c = CfkComplex((["x"], [0], [None]), (["x"], ["ghost"], [1]), (["x"], ["x"]), "broken-with-flip")
        report = c.validate()
        assert any(i.code == "unknown-generator" for i in report.issues)

    def test_empty_complex_is_invalid(self):
        # HF-hat of a closed 3-manifold is never zero, so b_rank >= 1.
        c = CfkComplex(([], [], []), ([], [], []), ([], []), "empty")
        assert [i.code for i in c.validate().issues] == ["empty"]
        with pytest.raises(InvalidComplexError):
            c.require_valid()

    def test_require_valid_raises(self):
        c = CfkComplex((["x", "x"], [0, 0], [None] * 2), ([], [], []), None, "dup")
        with pytest.raises(InvalidComplexError):
            c.require_valid()


def after_both_routes():
    """t25 # t27 after both rank routes at four slopes."""
    c = tensor(builtin("t25"), builtin("t27"))
    for slope in (Slope(1, 1), Slope(2, 1), Slope(3, 2), Slope(5, 3)):
        compute_rank_report(c, slope)
        cone_rank_homological(c, slope)
    return c


# Complexes whose maps pull b >= 3 cocycle classes: b = 16 and b = 3.
B_HEAVY = {
    "B_1#B_1": models.borromean_corpus()["B_1#B_1"],
    "dots#trefoil_rh": lambda: tensor(random_complex(RandomSpec(seed=1, dots=3)), builtin("trefoil_rh")),
}


class TestRegions:
    def test_trefoil_hat_a0(self, trefoil):
        region = trefoil.region_complex(0)
        members = models.reference_members(trefoil, models.HatA(0))
        assert set(members) == {("a", 1), ("b", 0), ("c", 0)} and region.dim == 3
        col = models.position(trefoil, models.HatA(0), "b", 0)
        image = [row for row in range(region.dim) if region.boundary.data[row] >> col & 1]
        assert {members[r] for r in image} == {("a", 1), ("c", 0)}
        assert region.homology.dim == 1

    def test_trefoil_hat_b(self, trefoil):
        region = trefoil.region_complex(trefoil.top)
        members = models.reference_members(trefoil, models.HatB())
        assert set(members) == {("a", 0), ("b", 0), ("c", 0)} and region.dim == 3
        # the U a component has i = -1 and is dropped
        col = models.position(trefoil, models.HatB(), "b", 0)
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
        ["nonsense", models.JLevel(0), models.Quadrant(0), models.HatA(0), models.HatB()],
        ids=["nonsense", "j-level", "quadrant", "hat-a", "hat-b"],
    )
    def test_unknown_tag(self, trefoil, tag):
        # A region is named by its grading alone: any other label, the
        # reference tags of tests/models.py among them, is refused before a
        # region is built or memoized.
        with pytest.raises(TypeError):
            trefoil.region_complex(tag)
        assert not [key for key in trefoil._memo if isinstance(key, tuple) and key[0] == "region"]

    def test_region_memoized(self, trefoil):
        assert trefoil.region_complex(0) is trefoil.region_complex(0)

    def test_a_region_key_is_a_key_of_its_own(self):
        # The memo is one dict for every kind of value: a "region" key holds
        # a region and no other kind of key does, after both rank routes.
        c = after_both_routes()
        for key, value in c._memo.items():
            is_region_key = isinstance(key, tuple) and key[:1] == ("region",)
            assert is_region_key == isinstance(value, RegionComplex), key
            if is_region_key:
                assert len(key) == 2 and type(key[1]) is int and key[1] == c.alexander_class(key[1]), key

    @pytest.mark.parametrize("name", BUILTIN_NAMES + ("t25#t27#figure_eight", "flipless"))
    def test_a_region_is_named_by_its_grading_alone(self, name):
        # HatB is the region at the top grading: every s at or above it is
        # served that one region.  The memo keeps one "region" entry per
        # Alexander class read, keyed by the class alone, the classes a
        # region is served to through a redirect included.
        if name == "flipless":
            c = CfkComplex(*models.tensor_of("t25", "t27").columns[:2], None, name)
        else:
            c = models.tensor_of(*name.split("#"))
        top = c.top
        assert top == max(c.columns[0][1]) and c.region_complex(top).tag == top
        for s in range(top, top + 4):
            assert c.region_complex(s) is c.region_complex(top), s
        grades = range(c.alexander_cuts[0] - 2, top + 4)
        for s in grades:
            c.region_complex(s)
        classes = [key[1] for key in c._memo if isinstance(key, tuple) and key[0] == "region"]
        assert sorted(classes) == sorted({c.alexander_class(s) for s in grades})

    def test_hat_regions_keep_only_their_boundary(self):
        # After both rank routes, every memoized region holds its grading
        # as its tag, its boundary with one column per generator and
        # what it caches from the boundary, its coboundary table, its
        # cocycle classes (HatB's alone are read) and its homology: no
        # cycles, as a list or as rows, no per-element data, which a region
        # shared by a whole Alexander class could not have, and no boundary
        # space apart from the homology's, whose basis keeps no cycle list.
        # A class below its mirror class is served the mirror's region, so
        # every region built has a tag at or above its mirror's.  It also
        # holds its dim, set once, and no columns of its boundary: only its
        # homology reads them, from one transpose.
        c = after_both_routes()
        classes = {
            key[1]: value for key, value in c._memo.items() if isinstance(key, tuple) and key[0] == "region"
        }
        regions = {id(region): region for region in classes.values()}.values()
        assert len(regions) > 2 and len(classes) > len(regions)
        kept = {"tag", "boundary", "dim", "coboundaries", "cocycles", "homology"}
        for region in regions:
            assert region.dim == len(c.columns[0][0])
            held = set(vars(region))
            assert {"tag", "boundary", "dim"} <= held <= kept
            models.assert_no_kernel_list(region)
            assert region.tag == c.top or c.alexander_class(-region.tag) <= region.tag
        assert any("homology" in vars(region) for region in regions)
        for s, region in classes.items():
            if c.alexander_class(-s) > s:
                assert region is c.region_complex(-s), s

    def test_hat_maps_keep_only_their_index(self):
        # After both rank routes, every memoized v_hat and h_hat holds its
        # two regions, its index map and what it caches from them: no
        # mask or other per-kind data beside the index, and no preimage.
        # The cocycle classes its check's preimage pulled are held only
        # until on_cocycles takes them.
        c = after_both_routes()
        maps = {key: value for key, value in c._memo.items() if isinstance(key, tuple) and key[0] in ("v", "h")}
        assert {kind for kind, _ in maps} == {"v", "h"} and len(maps) > 2
        for m in maps.values():
            held = set(vars(m))
            assert held <= {"source", "target", "index", "_pulled", "induced", "on_cocycles", "induced_rank"}
            assert "_pulled" not in held or "on_cocycles" not in held, m

    @pytest.mark.parametrize("name", BUILTIN_NAMES + ("t25#t27",))
    def test_hat_a_at_or_above_the_top_grading_is_hat_b(self, name):
        # Every upower of HatA(s) is 0 once s reaches the top grading, so it is
        # served as the HatB region itself; below that it is its own region,
        # or its mirror's, the HatB region again when the mirror class is at
        # or above the top grading.
        c = models.tensor_of(*name.split("#"))
        top = max(c.columns[0][1])
        for s in range(-top - 3, top + 3):
            served = max(s, c.alexander_class(-s))
            assert (c.region_complex(s) is c.region_complex(c.top)) == (served >= top), s
            assert c.region_complex(s).tag == (top if served >= top else c.alexander_class(served))

    def test_single_bit_boundary_rows_share_the_unit_masks(self):
        # A boundary row with one set bit is the complex's one unit mask for
        # that bit, the same int object in every region, not a copy.
        c = tensor(builtin("t25"), builtin("t27"))
        units = {}
        single = 0
        for s in (c.top, 0, 1):
            for row in c.region_complex(s).boundary.data:
                if row.bit_count() == 1:
                    assert units.setdefault(row, row) is row, (s, row)
                    single += 1
        # Some unit masks are read in more than one region.
        assert single > len(units)

    def test_cycles_and_homology_share_one_kernel_basis(self, fig8, monkeypatch):
        # A fresh region's homology eliminates its boundary's columns once:
        # its representatives are drawn from the one kernel basis that
        # f2.kernel_basis gives, the reduced row-echelon form's, and after
        # the read neither the region nor the basis holds that basis.
        calls = []
        column_elimination = f2.column_elimination

        def counting(columns):
            calls.append(len(columns))
            return column_elimination(columns)

        monkeypatch.setattr(f2, "column_elimination", counting)
        for s in (0, fig8.top):
            region = fig8.region_complex(s)
            reps = region.homology.reps
            assert calls == [region.dim], s
            models.assert_no_kernel_list(region)
            kernel = f2.kernel_basis(region.boundary)
            assert set(reps) <= set(kernel)
            assert kernel == models.reference_kernel_basis(region.boundary)
            calls.clear()
        # HatA(-1) of the figure-eight lies below its mirror class, whose
        # region is HatB: it is that region, with the homology already
        # read, so reading it again eliminates nothing.
        region = fig8.region_complex(-1)
        assert region is fig8.region_complex(fig8.top)
        assert region.homology and calls == []

    def test_only_the_homology_transposes_the_boundary(self, monkeypatch):
        # A region keeps no columns.  Its homology eliminates the
        # boundary's columns from one transpose, the only one a region
        # makes, once per region: the genus and the chain route read its
        # coboundary table, off the rows, and transpose nothing.
        transposes = []
        from_columns = F2Matrix.from_columns.__func__

        def counting(cls, col_masks, rows):
            transposes.append(rows)
            return from_columns(cls, col_masks, rows)

        monkeypatch.setattr(F2Matrix, "from_columns", classmethod(counting))
        c = tensor(builtin("t25"), builtin("t27"))
        c.genus()
        cone_rank_chain(c, Slope(5, 3))
        assert transposes == []
        for s in (0, 1, 2, c.top):
            region = c.region_complex(s)
            assert "_columns" not in vars(region) and "homology" not in vars(region), s
            reps = region.homology.reps
            assert region.homology.reps is reps and transposes == [region.dim], s
            assert set(reps) <= set(models.reference_kernel_basis(region.boundary)), s
            transposes.clear()

    @pytest.mark.parametrize("name", B_HEAVY)
    def test_on_cocycles_with_the_pulled_classes_or_a_fresh_preimage(self, name, monkeypatch):
        # A fresh map holds the b cocycle classes its check's preimage
        # pulled, and on_cocycles takes them with no preimage of its own.
        # A map whose classes are gone, as when another thread took them,
        # builds the preimage again.  Both give the dense Y^T . f, each row
        # in its canonical form modulo the source's coboundaries.
        preimages = []
        preimage = FilteredChainMap._preimage

        def counting(m):
            preimages.append(m)
            return preimage(m)

        reference = B_HEAVY[name]()
        b = reference.b_rank()
        assert b >= 3
        for kind in ("v", "h"):
            for s in class_starts(reference):
                kept, taken = B_HEAVY[name](), B_HEAVY[name]()
                maps = [x.v_hat(s) if kind == "v" else x.h_hat(s) for x in (kept, taken)]
                expected = models.dense_on_cocycles(maps[0], models.dense_map(reference, kind, s))
                assert [len(m._pulled) for m in maps] == [b, b], (kind, s)
                vars(maps[1]).pop("_pulled")
                monkeypatch.setattr(FilteredChainMap, "_preimage", counting)
                assert [m.on_cocycles for m in maps] == [expected, expected], (kind, s)
                assert preimages == [maps[1]] and all("_pulled" not in vars(m) for m in maps), (kind, s)
                monkeypatch.undo()
                preimages.clear()

    @pytest.mark.parametrize("build", [models.borromean_corpus()["B_1#B_1"], lambda: models.tensor_of("t25", "t27")])
    def test_the_genus_and_the_chain_route_build_no_cycle_basis(self, build):
        # Both read each region's coboundary table and eliminate no column:
        # no region holds a homology basis, cycles or a boundary space, and
        # every region read holds its table.
        c = build()
        c.genus()
        cone_rank_chain(c, Slope(5, 3))
        regions = [value for key, value in c._memo.items() if isinstance(key, tuple) and key[0] == "region"]
        assert regions
        for region in regions:
            held = vars(region)
            assert "homology" not in held, region
            models.assert_no_kernel_list(region)
            assert region.tag == c.top or "coboundaries" in held, region

    def test_cocycles_read_the_boundary_rows(self, monkeypatch):
        # HatB's cocycles eliminate the boundary's rows as they stand, the
        # columns of its transpose, so reading them builds no matrix.  The
        # classes are those of eliminating the columns of the built
        # transpose, the path through two transposes.
        c = tensor(builtin("t25"), builtin("t27"))
        region = c.region_complex(c.top)
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


class TestLazyReads:
    """Regions, maps and complexes compute their lazy attributes on first
    read with ``cfk.lazy``, which takes no lock."""

    def test_the_descriptor_computes_once_and_is_itself_on_the_class(self):
        calls = []

        class Probe:
            @cfk.lazy
            def value(self):
                """The value, computed on first read."""
                calls.append(self)
                return len(calls)

        probe = Probe()
        assert (probe.value, probe.value) == (1, 1) and calls == [probe]
        assert vars(probe) == {"value": 1}
        assert Probe().value == 2 and len(calls) == 2
        assert isinstance(Probe.value, cfk.lazy) and Probe.value.__doc__ == "The value, computed on first read."
        assert RegionComplex.homology.__doc__.startswith("Homology basis, built on first read from the boundary alone")

    def test_four_threads_on_one_fresh_complex_rank_as_one_thread(self):
        # Four threads read one fresh complex's lazy attributes, taken
        # tables and memos at once, with the interpreter switching threads
        # as often as it can; each ranks as a single thread on a complex
        # of its own does.
        slopes = (Slope(1, 1), Slope(5, 3), Slope(8, 5))

        def ranks(c):
            return [(cone_rank_chain(c, p), cone_rank_homological(c, p), rank_formula(c, p)) for p in slopes]

        expected = ranks(models.tensor_of("t25", "t27"))
        c = models.tensor_of("t25", "t27")
        start = threading.Barrier(4)

        def run(_):
            start.wait(timeout=60)
            return ranks(c)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(run, range(4), timeout=300))
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected] * 4


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
        c = CfkComplex((["a", "b", "c"], [1, 0, -1], [None] * 3), (["b", "b"], ["a", "c"], [1, 0]), None, "flipless")
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
        c = CfkComplex((["x"], [0], [None]), ([], [], []), None, "flipless")
        with pytest.raises(FlipRequiredError):
            c.h_hat(0)

    def test_matches_three_stage_composite(self, fig8):
        """h_hat agrees with projection, U^s shift, then flip, assembled
        explicitly through the j-level regions of ``models`` on the true
        HatA(s), and read on the mirror's region below the mirror class."""
        for s in (-1, 0, 1):
            source = models.reference_complex(fig8, models.HatA(s))
            j_s = models.j_level_region(fig8, s)
            j_0 = models.j_level_region(fig8, 0)
            target = fig8.region_complex(fig8.top)
            proj = [0] * j_s.dim
            for col, (gid, k) in enumerate(models.reference_members(fig8, models.HatA(s))):
                if fig8.alexander[gid] - k == s:
                    proj[models.position(fig8, j_s.tag, gid, fig8.alexander[gid] - s)] |= 1 << col
            shift = [0] * j_0.dim
            for col, (gid, k) in enumerate(models.reference_members(fig8, j_s.tag)):
                shift[models.position(fig8, j_0.tag, gid, fig8.alexander[gid])] |= 1 << col
            flip = [0] * target.dim
            for col, (gid, k) in enumerate(models.reference_members(fig8, j_0.tag)):
                flip[models.position(fig8, models.HatB(), fig8.flip_map[gid], 0)] |= 1 << col
            composite = (
                f2.F2Matrix(j_0.dim, tuple(flip))
                @ f2.F2Matrix(j_s.dim, tuple(shift))
                @ f2.F2Matrix(source.dim, tuple(proj))
            )
            assert models.as_read(fig8, s, composite.data) == models.dense(fig8.h_hat(s)).data


def _h_index(c, s, flip_index):
    """ĥ(s)'s index map as ``CfkComplex.h_hat`` builds it, from the flip
    permutation given: element i goes to flip_index[i] when its Alexander
    grading is at least s, and to zero otherwise."""
    return [f if a >= s else -1 for f, a in zip(flip_index, c._order[1])]


class TestChainMapMutations:
    """``FilteredChainMap`` refuses a map that does not commute with the
    boundaries.  Each case mutates one piece of a true v̂(s) or ĥ(s) and
    must raise.  Some mutations leave a chain map, so each is picked to
    break one: on t25 at s = 0, clearing the lowest bit of HatA(0)'s first
    nonzero boundary row leaves v̂(0) a chain map, dropping element 2 from
    v̂(0)'s index does too, and so does swapping the flip entries 2 and 4
    or 3 and 4 for ĥ(0)."""

    CASES = [("t25", 0), ("t25", 1), ("t27", 0), ("t27", 1)]

    @staticmethod
    def _maps(c, s):
        source, target = c.region_complex(s), c.region_complex(c.top)
        assert source.tag == s  # s at or above its mirror, below the top
        return source, target, {"v": c.v_hat(s).index, "h": c.h_hat(s).index}

    @pytest.mark.parametrize("kind", ["v", "h"])
    @pytest.mark.parametrize("name, s", CASES)
    def test_a_source_boundary_bit_cleared_or_set(self, name, s, kind):
        # Row i of the source boundary is compared exactly when the map
        # keeps element i, so one bit flipped in such a row shows: cleared
        # as the lowest bit of the first nonzero kept row, set as the
        # lowest unset bit of the first kept row.
        c = builtin(name)
        source, target, indices = self._maps(c, s)
        index = indices[kind]
        rows = source.boundary.data
        kept = [i for i, r in enumerate(index) if r >= 0]
        cleared = next(i for i in kept if rows[i])
        first = kept[0]
        for i, bit in ((cleared, rows[cleared] & -rows[cleared]), (first, ~rows[first] & (rows[first] + 1))):
            assert bit < 1 << source.dim
            mutated = list(rows)
            mutated[i] ^= bit
            region = RegionComplex(source.tag, F2Matrix(source.dim, tuple(mutated)))
            with pytest.raises(f2.NotAChainMapError):
                FilteredChainMap(region, target, index)
        FilteredChainMap(source, target, index)

    @pytest.mark.parametrize("name, s", CASES)
    def test_a_kept_element_of_v_hat_sent_to_zero(self, name, s):
        # The first kept element that lies in some element's boundary: its
        # boundary row, which the map carried, is no longer carried.
        c = builtin(name)
        source, target, indices = self._maps(c, s)
        index = list(indices["v"])
        i = next(i for i, r in enumerate(index) if r >= 0 and source.boundary.data[i])
        index[i] = -1
        with pytest.raises(f2.NotAChainMapError):
            FilteredChainMap(source, target, index)

    @pytest.mark.parametrize("name, s", CASES)
    def test_two_flip_entries_of_h_hat_swapped(self, name, s):
        # The flip images of the first two elements ĥ(s) keeps, swapped.
        c = builtin(name)
        source, target, indices = self._maps(c, s)
        assert list(indices["h"]) == _h_index(c, s, c._flip_index)
        i, j = [i for i, r in enumerate(indices["h"]) if r >= 0][:2]
        flip = list(c._flip_index)
        flip[i], flip[j] = flip[j], flip[i]
        with pytest.raises(f2.NotAChainMapError):
            FilteredChainMap(source, target, _h_index(c, s, flip))

    def test_the_maps_that_stay_chain_maps_on_t25_at_0(self):
        # The mutations the cases above avoid, for the record.
        c = builtin("t25")
        source, target, indices = self._maps(c, 0)
        rows = list(source.boundary.data)
        first = next(i for i, row in enumerate(rows) if row)
        rows[first] &= rows[first] - 1
        region = RegionComplex(source.tag, F2Matrix(source.dim, tuple(rows)))
        FilteredChainMap(region, target, indices["v"])
        with pytest.raises(f2.NotAChainMapError):
            FilteredChainMap(region, target, indices["h"])
        FilteredChainMap(source, target, [-1 if i == 2 else r for i, r in enumerate(indices["v"])])
        for i, j in ((2, 4), (3, 4)):
            flip = list(c._flip_index)
            flip[i], flip[j] = flip[j], flip[i]
            FilteredChainMap(source, target, _h_index(c, 0, flip))


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
        ids = ["e0", "e1", "e2"]
        c = CfkComplex((ids, [0] * 3, [None] * 3), ([], [], []), (ids, ids), "dots")
        assert c.b_rank() == 3

    def test_genus(self, unknot, trefoil, fig8):
        assert unknot.genus() == 0
        assert trefoil.genus() == 1
        assert fig8.genus() == 1
        assert builtin("t25").genus() == 2

    # The genus read off HatB's cocycle classes and each HatA(s)'s cycles
    # against the genus read off homology bases and induced maps s by s.
    # Each clause of the rule is needed: with no dimension clause,
    # figure_eight and trefoil_lh read genus 0, and with no rank clause,
    # trefoil_rh, t25 and t27 do.
    @pytest.mark.parametrize(
        "names",
        [(name,) for name in BUILTIN_NAMES] + list(combinations_with_replacement(BUILTIN_NAMES, 2)),
        ids="#".join,
    )
    def test_genus_is_the_homological_genus_on_knots(self, names):
        c = models.tensor_of(*names)
        assert c.genus() == models.reference_genus(c)

    def test_genus_is_the_homological_genus_on_survey_complexes(self):
        # The 120 shapes of the benchmark's survey-fresh workload: 1-3 dots
        # and 2-6 boxes, so every one splits off an acyclic rest.
        for i in range(120):
            spec = RandomSpec(seed=20240119 + i, dots=1 + i % 3, boxes=2 + (i // 3) % 5, max_side=2, max_offset=3)
            c = random_complex(spec)
            assert c.genus() == models.reference_genus(c), spec

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 1000])
    @pytest.mark.parametrize("build", [models.dot_and_box, models.dot_and_pair], ids=["dot+box", "dot+pair"])
    def test_genus_is_the_homological_genus_on_wide_complexes(self, build, n):
        c = build(n)
        assert c.genus() == models.reference_genus(c) == n + (build is models.dot_and_pair)

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
        assert e.columns[0][0] == ["e"]
        assert e.essential_summand is e and e.acyclic_sum() == 0
        assert fig8.acyclic_sum() == 2
        assert (fig8.genus(), fig8.b_rank(), e.genus(), e.b_rank()) == (1, 1, 0, 1)

    @pytest.mark.parametrize("name", ["unknot", "trefoil_rh", "t27", "t25#t27", "no flip", "three dots"])
    def test_complexes_that_do_not_split_are_their_own_summand(self, name):
        # Connected, flipless, or with no component of b = 0.
        if name == "no flip":
            t = builtin("trefoil_rh")
            c = CfkComplex(*t.columns[:2], None, name)
        elif name == "three dots":
            ids = ["e0", "e1", "e2"]
            c = CfkComplex((ids, [0] * 3, [None] * 3), ([], [], []), (ids, ids), name)
        elif name == "t25#t27":
            c = tensor(builtin("t25"), builtin("t27"))
        else:
            c = builtin(name)
        assert c.essential_summand is c and c.acyclic_sum() == 0

    def test_summand_keeps_the_order_flip_and_validation(self):
        c = tensor(builtin("trefoil_rh"), builtin("figure_eight"))
        e = c.essential_summand
        kept = e.columns[0][0]
        assert kept == [x for x in c.columns[0][0] if x.endswith("|e")] and len(kept) == 3
        assert e.flip_map == {x: c.flip_map[x] for x in kept}
        assert e.validate() is c.validate() and e.name == c.name
        sources, targets, _ = e.columns[1]
        assert set(sources) | set(targets) <= set(kept)

    def test_invalid_complex_raises_before_any_split(self):
        c = CfkComplex((["a"], [1], [None]), ([], [], []), (["a"], ["a"]), "bad flip")
        with pytest.raises(InvalidComplexError):
            c.essential_summand

    def test_wide_box_rest(self):
        # A dot and a box of side n: the box's HatA homology is 2 at each
        # |s| < n, and the genus is n; rank 1 + (4n - 2) at 1/1.
        n = 1000
        c = models.dot_and_box(n)
        assert c.essential_summand.columns[0][0] == ["e0"]
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
        assert set(zip(*r.columns[1])) == {("b", "a", 0), ("b", "c", 1)}

    def test_rank_symmetry_with_h(self, trefoil, fig8):
        for c in (trefoil, fig8, builtin("t25")):
            r = models.reflected(c)
            for s in range(-3, 4):
                assert r.v_hat(s).induced_rank == c.h_hat(-s).induced_rank
                assert models.kernel_dim(r.v_hat(s)) == models.kernel_dim(c.h_hat(-s))

    def test_requires_flip(self):
        c = CfkComplex((["x"], [0], [None]), ([], [], []), None, "flipless")
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


# The complexes the mirror-class tests rank: the builtins, their pairwise
# tensors, and random dots-and-boxes complexes of the acceptance corpus's
# shapes and of the survey's wider ones.
MIRROR_CORPORA = {
    "builtins": lambda: [builtin(name) for name in BUILTIN_NAMES],
    "tensors": lambda: [tensor(builtin(a), builtin(b)) for a, b in combinations(BUILTIN_NAMES, 2)],
    "acceptance": lambda: [
        random_complex(RandomSpec(seed=i, dots=1 + i % 3, boxes=i % 3, max_side=1 + i % 2, max_offset=i % 3))
        for i in range(100)
    ],
    "survey": lambda: [
        random_complex(RandomSpec(seed=20240119 + i, dots=1 + i % 3, boxes=2 + (i // 3) % 5, max_side=2, max_offset=3))
        for i in range(120)
    ],
}


def class_starts(c):
    """Every Alexander class of c, from below the lowest cut to the top
    one."""
    cuts = c.alexander_cuts
    return [s for s, _ in c.class_runs(cuts[0] - 1, cuts[-1])]


class TestMirrorClasses:
    """A class below its mirror class is its mirror, with v and h swapped:
    no region of its own is built, and its maps are the mirror's."""

    @pytest.mark.parametrize("corpus", MIRROR_CORPORA)
    def test_no_region_below_its_mirror_class_is_built(self, corpus, monkeypatch):
        built = []
        init = RegionComplex.__init__

        def counting(self, tag, boundary):
            built.append(tag)
            init(self, tag, boundary)

        monkeypatch.setattr(RegionComplex, "__init__", counting)
        lower = 0
        for c in MIRROR_CORPORA[corpus]():
            for slope in (Slope(1, 1), Slope(2, 3), Slope(5, 3)):
                compute_rank_report(c, slope)
                cone_rank_homological(c, slope)
            complement_check(c, 2)
            # Every region built is memoized, by the complex or its essential
            # summand, and its tag is at or above its mirror's class.
            regions = {
                id(region): (x, region)
                for x in (c, c.essential_summand)
                for key, region in x._memo.items()
                if isinstance(key, tuple) and key[0] == "region"
            }
            assert len(built) == len(regions), c.name
            for x, region in regions.values():
                assert region.tag == x.top or x.alexander_class(-region.tag) <= region.tag, (c.name, region)
            built.clear()
            for x in {id(x): x for x in (c, c.essential_summand)}.values():
                for s in class_starts(x):
                    if (m := x.alexander_class(-s)) > s:
                        assert x.region_complex(s) is x.region_complex(m), (c.name, s)
                        assert x.v_hat(s) is x.h_hat(m) and x.h_hat(s) is x.v_hat(m), (c.name, s)
                        lower += 1
            assert not built, c.name
        assert lower > 0

    @pytest.mark.parametrize("name", ["trefoil_rh", "figure_eight", "t25", "t25#t27"])
    def test_a_flipless_complex_builds_every_region_itself(self, name, monkeypatch):
        c = models.tensor_of(*name.split("#"))
        c = CfkComplex(*c.columns[:2], None, name)
        built = []
        init = RegionComplex.__init__
        monkeypatch.setattr(
            RegionComplex,
            "__init__",
            lambda self, tag, boundary: built.append(tag) or init(self, tag, boundary),
        )
        top = max(c.columns[0][1])
        c.genus()
        for s in class_starts(c):
            v = c.v_hat(s)
            assert v.source is c.region_complex(s), s
            assert v.source.tag == min(s, top), s
        # One region per class below the top grading, and HatB.
        assert len(built) == len(set(built)) == sum(s < top for s in class_starts(c)) + 1


class TestJson:
    def test_round_trip_bit_exact(self, trefoil, fig8):
        for c in (trefoil, fig8, builtin("t27")):
            text = c.to_json()
            again = CfkComplex.from_json(text)
            assert again.to_json() == text

    def test_maslov_survives(self):
        c = CfkComplex((["x"], [0], [-2]), ([], [], []), None, "graded")
        again = CfkComplex.from_json(c.to_json())
        assert again.columns[0][2] == [-2]

    def test_flipless_has_no_flip_key(self):
        c = CfkComplex((["x"], [0], [None]), ([], [], []), None, "flipless")
        assert "flip" not in json.loads(c.to_json())


class TestReferenceModel:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtins(self, name):
        models.assert_matches_reference(builtin(name))

    @pytest.mark.parametrize("pair", list(combinations(BUILTIN_NAMES, 2)), ids="#".join)
    def test_builtin_tensors(self, pair):
        models.assert_matches_reference(tensor(builtin(pair[0]), builtin(pair[1])))

    # The last pair, t27 and 50 dots, has 350 generators and b = 50, so
    # HatB's maps have 50 cocycle rows.
    @pytest.mark.parametrize(
        "pair",
        [*combinations(BUILTIN_NAMES, 2), ("t27", RandomSpec(seed=1, dots=50))],
        ids=lambda pair: "#".join(part if isinstance(part, str) else f"{part.dots}_dots" for part in pair),
    )
    def test_builtin_tensor_index_maps_match_the_dense_reference(self, pair):
        left, right = (builtin(part) if isinstance(part, str) else random_complex(part) for part in pair)
        models.assert_maps_match_dense(tensor(left, right))

    @pytest.mark.parametrize("name", B_HEAVY)
    def test_maps_that_pull_three_or_more_classes_match_the_dense_reference(self, name):
        # Each map holds the b classes its check's preimage pulled until
        # on_cocycles takes them, and the rows read off them are the dense
        # reference's.
        c = B_HEAVY[name]()
        b = c.b_rank()
        assert b >= 3 and len(c.h_hat(0)._pulled) == b
        models.assert_maps_match_dense(c)

    @pytest.mark.parametrize(
        "parts", [(name,) for name in BUILTIN_NAMES] + list(combinations(BUILTIN_NAMES, 2)), ids="#".join
    )
    def test_regions_and_maps_repeat_within_each_alexander_class(self, parts):
        models.assert_classes_hold(models.tensor_of(*parts))


# The pairing corpus: the builtins, their pairwise tensors, B_1's tensors,
# three dots tensored with the right-handed trefoil, and one triple tensor,
# trefoil_rh # trefoil_rh # trefoil_lh, where two of the pulled classes
# reduce to a free bit with a coboundary's lowest bit above it, so a
# reduction that stops at the first free bit leaves a row that is not
# canonical; on the rest it never does.
PAIRING_CORPUS = {
    **{name: functools.partial(builtin, name) for name in BUILTIN_NAMES},
    **{"#".join(pair): functools.partial(models.tensor_of, *pair) for pair in combinations(BUILTIN_NAMES, 2)},
    **models.borromean_corpus(),
    "dots#trefoil_rh": B_HEAVY["dots#trefoil_rh"],
    "trefoil_rh#trefoil_rh#trefoil_lh": functools.partial(models.tensor_of, "trefoil_rh", "trefoil_rh", "trefoil_lh"),
}


class TestPairing:
    """``on_cocycles`` reads each map's rows modulo its source's
    coboundaries, so its rows stand for the rows over a cycle basis N that
    no route builds.  Checked against the dense reference: R . N is
    Y^T . f . N for the reference cycle basis N, every prefix of R has the
    rank of the same prefix of Y^T . f . N, so that the sweep, which
    eliminates the rows in order, adds the same ranks, and each row is
    canonical, zero at every lowest bit of a coboundary, read off the
    reference's own elimination of the source's boundary rows."""

    @pytest.mark.parametrize("name", PAIRING_CORPUS)
    def test_rows_pair_with_the_reference_cycles_as_the_dense_rows_do(self, name):
        c = PAIRING_CORPUS[name]()
        for s in class_starts(c):
            for kind, m in (("v", c.v_hat(s)), ("h", c.h_hat(s))):
                source = m.source.dim
                cycles = F2Matrix.from_columns(models.reference_kernel_basis(m.source.boundary), source)
                paired = F2Matrix(m.target.dim, m.target.cocycles) @ models.dense_map(c, kind, s) @ cycles
                rows = m.on_cocycles
                assert rows.cols == source and (rows @ cycles) == paired, (kind, s)
                basis = models.lowest_bit_basis(m.source.boundary.data)
                assert all(models.canonical_form(basis, row) == row for row in rows.data), (kind, s)
                for k in range(1, rows.rows + 1):
                    ranks = [len(models.lowest_bit_basis(x.data[:k])) for x in (rows, paired)]
                    assert ranks[0] == ranks[1], (kind, s, k)


WIDTH_QUERIES = {
    "genus": lambda c: c.genus(),
    "b_rank": lambda c: c.b_rank(),
    "HatB": lambda c: c.region_complex(c.top).dim,
    "v_hat": lambda c: c.v_hat(0).induced_rank,
    "essential_summand": lambda c: c.essential_summand.name,
    "chain": lambda c: cone_rank_chain(c, Slope(1, 1)),
    "homological": lambda c: cone_rank_homological(c, Slope(2, 3)),
    "formula": lambda c: rank_formula(c, Slope(3, 2)),
    "report": lambda c: compute_rank_report(c, Slope(1, 2)).oracle_rank,
    "complement": lambda c: complement_check(c, 2).verdict,
    "hypothesis": lambda c: hypothesis_check(c).overall,
}


class TestWidthRefusal:
    """A complex whose regions would weigh n**2 * k past
    ``cfk.MAX_REGION_WEIGHT`` is refused where its Alexander cuts are
    first read, before any region or the generator order is built."""

    # Gradings -2..2, so the classes from 0, 1 and 2 meet [0, 2].
    WEIGHT = 5**2 * 3

    @pytest.mark.parametrize("query", WIDTH_QUERIES.values(), ids=WIDTH_QUERIES)
    def test_at_the_limit_accepted_and_one_past_it_refused(self, query, monkeypatch):
        expected = query(staircase([1] * 4))
        monkeypatch.setattr(cfk, "MAX_REGION_WEIGHT", self.WEIGHT)
        assert query(staircase([1] * 4)) == expected
        monkeypatch.setattr(cfk, "MAX_REGION_WEIGHT", self.WEIGHT - 1)
        c, built = staircase([1] * 4), []
        init = RegionComplex.__init__
        monkeypatch.setattr(RegionComplex, "__init__", lambda self, *args: built.append(self) or init(self, *args))
        with pytest.raises(ComplexTooWideError) as refusal:
            query(c)
        assert str(refusal.value) == (
            "a complex of n = 5 generators and k = 3 Alexander classes in [0, 2] weighs n**2 * k = 75, over the limit 74"
        )
        assert built == [] and "_order" not in vars(c)

    def test_the_refusal_is_a_usage_error_of_its_own(self):
        assert issubclass(ComplexTooWideError, ValueError)
        assert not issubclass(ComplexTooWideError, (InvalidComplexError, SlopeError))

    def test_validation_profile_and_json_read_no_cuts(self, monkeypatch):
        monkeypatch.setattr(cfk, "MAX_REGION_WEIGHT", 0)
        c = staircase([1] * 4)
        assert c.validate().ok and c.hfk_profile() == {-2: 1, -1: 1, 0: 1, 1: 1, 2: 1}
        assert CfkComplex.from_json(c.to_json()).to_json() == c.to_json()
        with pytest.raises(ComplexTooWideError):
            c.alexander_cuts

    def test_an_invalid_complex_is_named_invalid_first(self, monkeypatch):
        monkeypatch.setattr(cfk, "MAX_REGION_WEIGHT", 0)
        c = CfkComplex((["x", "x"], [0, 0], [None, None]), ([], [], []), None, "repeated")
        with pytest.raises(InvalidComplexError):
            c.genus()
