"""Unit tests for the mapping cone, the two rank routes and the closed forms."""

import functools
import itertools
import math
import random

import pytest

from hfsurgery import f2, surgery
from hfsurgery.cfk import CfkComplex, FilteredChainMap, FlipRequiredError, RegionComplex
from hfsurgery.knots import BUILTIN_NAMES, RandomSpec, builtin, mirror, random_complex, staircase, tensor
from hfsurgery.obstructions import complement_check, cosmetic_pair_check
from hfsurgery.surgery import (
    HypothesisReport,
    MappingCone,
    NotApplicableError,
    RankReport,
    Slope,
    SlopeError,
    compute_rank_report,
    cone_rank_chain,
    cone_rank_homological,
    coprime_slopes,
    hypothesis_verdicts,
    kernel_rank,
    nu_surrogate,
    rank_formula,
    t_invariant,
)

import models
from models import kernel_basis_construction, sweep_table
from full_boundary import (
    block_matrix,
    build_cone,
    flatten,
    full_boundary,
    random_induced_boundary,
    sweep_increments,
    sweep_rank,
    truncation_bound,
)

SMALL_SLOPES = [Slope(p, q) for p in range(1, 5) for q in range(1, 5) if math.gcd(p, q) == 1]


class TestSlope:
    def test_coprime_required(self):
        with pytest.raises(SlopeError):
            Slope(2, 4)

    def test_positive_required(self):
        with pytest.raises(SlopeError):
            Slope(0, 1)
        with pytest.raises(SlopeError):
            Slope(1, -1)

    def test_parse(self):
        assert Slope.parse("3/2") == Slope(3, 2)
        assert Slope.parse("5") == Slope(5, 1)
        for text in ("x/y", "1/2/3"):
            with pytest.raises(SlopeError, match="expected P/Q"):
                Slope.parse(text)


class TestTruncationBound:
    def test_unknot(self):
        assert truncation_bound(builtin("unknot"), Slope(1, 1)) == 2

    def test_trefoil(self):
        assert truncation_bound(builtin("trefoil_rh"), Slope(1, 1)) == 3

    def test_t25_seven_halves(self):
        assert truncation_bound(builtin("t25"), Slope(7, 2)) == 7


class TestBuildCone:
    def test_unknot_column_counts(self):
        cone = build_cone(builtin("unknot"), Slope(1, 1), 2)
        assert len(cone.a_columns) == 3 and len(cone.b_columns) == 2

    def test_trefoil_column_counts(self):
        cone = build_cone(builtin("trefoil_rh"), Slope(1, 1), 3)
        assert len(cone.a_columns) == 5 and len(cone.b_columns) == 4

    def test_trefoil_half_column_counts(self):
        cone = build_cone(builtin("trefoil_rh"), Slope(1, 2), 3)
        assert len(cone.a_columns) == 11 and len(cone.b_columns) == 10

    @pytest.mark.parametrize(
        "name, slope, a_columns, b_columns",
        [
            ("unknot", Slope(1, 1), [1], []),  # g = 0, so the window starts at q
            ("trefoil_rh", Slope(1, 1), [0], []),
            ("trefoil_rh", Slope(1, 2), [0, 1], [1]),
            ("t25", Slope(7, 2), list(range(-2, 5)), []),  # max((2g-1)q, p) = 7 columns
        ],
    )
    def test_tight_window_columns(self, name, slope, a_columns, b_columns):
        c = builtin(name)
        cone = MappingCone(c, slope)
        assert list(cone.a_columns) == a_columns
        assert list(cone.b_columns) == b_columns

    def test_rank_routes_build_the_tight_window(self, monkeypatch):
        windows = []

        class Recording(MappingCone):
            def __init__(self, complex_, slope):
                super().__init__(complex_, slope)
                windows.append((self.a_columns[0], self.a_columns[-1]))

        monkeypatch.setattr(surgery, "MappingCone", Recording)
        c = builtin("t25")
        cone_rank_chain(c, Slope(7, 2))
        cone_rank_homological(c, Slope(7, 2))
        assert windows == [(-2, 4), (-2, 4)]

    def test_cones_on_one_range_of_s_share_their_regions(self):
        # The sums read off the window's HatA regions, one per class run, are
        # memo entries per lo // q and Alexander class of hi // q: a second
        # cone on the same range of s reads the same entries, though its
        # window, and so the number of columns of each run, differs.  Each
        # run's region is the one ``region_complex`` memoizes for its
        # class; the class -1 lies below its mirror class 1, so its run
        # reads HatA(1)'s region.
        c = builtin("t25")
        first, second = MappingCone(c, Slope(1, 2)), MappingCone(c, Slope(1, 3))
        assert (first.a_columns, second.a_columns) == (range(-2, 4), range(-3, 6))
        assert first._runs == second._runs == (-1, 1)
        d_b = surgery._hat_b_boundary_rank(c)
        first_rank, second_rank = first.boundary_rank, second.boundary_rank
        runs = c.class_runs(-1, 1)
        regions = [c.region_complex(s) for s, _ in runs]
        assert [region.tag for region in regions] == [1, 0, 1]
        assert [s for s, _ in runs] == [-1, 0, 1]
        assert regions[0] is regions[2]
        terms = [region.dim - len(region.cycles) for region in regions]
        assert c._memo[("a_rank", -1, 1)] == (terms[0] + terms[1], terms[2], 1)
        # Each floor holds q columns, and the last run the columns from
        # s_last * q to hi: two and three per floor.
        assert first_rank == 2 * sum(terms) + len(first.b_columns) * d_b
        assert second_rank == 3 * sum(terms) + len(second.b_columns) * d_b
        for cone in (first, second):
            assert (cone.total_dim, cone.boundary_rank, cone.a_homology_dim, cone.b_homology_dim) == models.recount_totals(cone)

    def test_a_second_cone_on_one_run_table_reads_no_region(self, monkeypatch):
        # On a memo hit the constructor and all four totals read no HatA
        # region and evaluate no term: total_dim reads no region at all,
        # and boundary_rank and a_homology_dim one memo entry each.
        evaluated = []

        class Counting(MappingCone):
            def _per_column(self, name, term):
                return super()._per_column(name, lambda region: evaluated.append(name) or term(region))

        def totals(cone):
            return cone.total_dim, cone.boundary_rank, cone.a_homology_dim, cone.b_homology_dim

        for name, slopes in (("t25", (Slope(1, 2), Slope(1, 3))), ("t25#t27#figure_eight", (Slope(5, 3), Slope(1, 2)))):
            c = _complex(name)
            first = Counting(c, slopes[0])
            assert totals(first) == models.recount_totals(first)
            assert {"a_rank", "a_homology"} <= set(evaluated)
            evaluated.clear()
            calls = []
            lookup = CfkComplex.region_complex
            monkeypatch.setattr(CfkComplex, "region_complex", lambda self, s: calls.append(s) or lookup(self, s))
            second = Counting(c, slopes[1])
            got = totals(second)
            assert set(calls) <= {c.top}, calls
            assert evaluated == []
            monkeypatch.undo()
            assert second._runs == first._runs and second.a_columns != first.a_columns
            assert got == models.recount_totals(second)

    def test_large_p_cones_keep_only_their_distinct_regions(self):
        # A region is memoized under the Alexander class of s, so however far
        # p stretches the window a cone keeps one entry per class run:
        # t25#t27#figure_eight (genus 6, gradings -6..6) reads the classes
        # -5..7, where 200001/1 used to leave one memo entry per s.  Each
        # class -5..-1 is served its mirror's region and the two top
        # classes, 6 and 7, the HatB region, the region at the top grading
        # 6, so 7 regions are built: those of the classes 0..6.
        c = _complex("t25#t27#figure_eight")
        for slope in (Slope(11, 1), Slope(23, 2), Slope(200001, 1)):
            cone_rank_chain(c, slope)
        regions = {key[1]: value for key, value in c._memo.items() if key[0] == "region"}
        assert all(c.alexander_class(s) == s for s in regions)
        assert set(regions) == set(range(-5, 8))
        assert len({id(region) for region in regions.values()}) == 7
        cone = MappingCone(c, Slope(200001, 1))
        runs = c.class_runs(cone._runs[0], cone.a_columns[-1])
        assert [s for s, _ in runs] == list(range(-5, 8))
        regions = [c.region_complex(s) for s, _ in runs]
        assert regions[:5] == [c.region_complex(s) for s in range(5, 0, -1)]
        assert regions[-2] is regions[-1] is c.region_complex(c.top)
        # Twelve runs of one column each, and the last run the other
        # 200001 - 12 columns, from 7 to hi.
        terms = [region.dim - len(region.cycles) for region in regions]
        assert c._memo[("a_rank", *cone._runs)] == (sum(terms[:-1]), terms[-1], 7)
        assert not cone.b_columns
        assert cone.boundary_rank == sum(terms[:-1]) + (200001 - 12) * terms[-1]

    def test_a_cone_keeps_no_second_cache_of_its_regions(self):
        # A cone reads each run's region through region_complex, whose
        # ("region", tag) entry is the one cache of it, so rank and
        # obstruction queries leave no ("a_regions", ...) entry.
        c = _complex("t25#t27#figure_eight")
        slopes = coprime_slopes(4, 4)
        for slope in slopes:
            compute_rank_report(c, slope)
            cone_rank_homological(c, slope)
            complement_check(c, slope.q)
        for r, s in itertools.combinations(slopes, 2):
            cosmetic_pair_check(c, r, s)
        keys = [key for x in (c, c.essential_summand) for key in x._memo]
        kinds = {key[0] if isinstance(key, tuple) else key for key in keys}
        assert {"region", "a_rank", "a_homology"} <= kinds and "a_regions" not in kinds

    def test_missing_flip(self):
        c = CfkComplex((["x"], [0], [None]), ([], [], []), None, "flipless")
        with pytest.raises(FlipRequiredError):
            MappingCone(c, Slope(1, 1))

    def test_total_boundary_squares_to_zero(self):
        # The full boundary is a differential, and the chain route's split,
        # the HatA and HatB boundary ranks plus the rows of HatB's cocycle
        # classes on the HatA cycle bases swept class by class, gives its
        # rank, on the tight window and on the symmetric window of the safe
        # bound.  There it also gives the tight window's rank.  The HatB
        # term is rank d_B once per HatB column.
        complexes = [builtin(name) for name in ("unknot", "trefoil_rh", "figure_eight", "t25")]
        complexes.append(tensor(builtin("trefoil_rh"), builtin("figure_eight")))
        for c in complexes:
            for slope in (Slope(1, 1), Slope(2, 3), Slope(3, 1), Slope(1, 4)):
                rank = cone_rank_chain(c, slope)
                for cone in (build_cone(c, slope), MappingCone(c, slope)):
                    full = full_boundary(cone)
                    assert full.cols == cone.total_dim
                    assert (full @ full).is_zero(), (c.name, slope)
                    assert rank == full.cols - 2 * f2.rank(full), (c.name, slope)
                    sweep_rank(cone)
                    swept = sum(map(sum, sweep_increments(cone)))
                    assert f2.rank(full) == cone.boundary_rank + swept, (c.name, slope)
                    a_rank = sum(f2.rank(c.region_complex(j // slope.q).boundary) for j in cone.a_columns)
                    b_rank = f2.rank(c.region_complex(c.top).boundary)
                    assert cone.boundary_rank == a_rank + len(cone.b_columns) * b_rank, (c.name, slope)

    def test_total_boundary_rows_are_narrow(self):
        # A key's rows are HatB's cocycle classes read on HatA j - p and
        # HatA j side by side, each HatA block as wide as its cycles, so the
        # v block starts where the h block ends, no row reaches further than
        # those two blocks, there is at most one row per class, b in all,
        # and zero rows are dropped.
        complexes = [builtin(name) for name in BUILTIN_NAMES]
        complexes.append(tensor(builtin("trefoil_rh"), builtin("figure_eight")))
        for c in complexes:
            for slope in SMALL_SLOPES:
                cone = build_cone(c, slope)
                p, q = slope.p, slope.q
                a_width = max(
                    len(c.region_complex(j // q).cycles) for j in cone.a_columns
                )
                limit = 2 * a_width
                cocycles = len(c.region_complex(c.top).cocycles)
                assert cocycles == c.b_rank()
                for key in {((j - p) // q, j // q) for j in cone.b_columns}:
                    rows, width, v_start = cone.total_boundary(key)
                    h_width, v_width = (len(c.region_complex(s).cycles) for s in key)
                    assert v_start == h_width
                    assert width == v_start + v_width <= limit
                    assert len(rows) <= cocycles
                    for r in rows:
                        assert r, (c.name, slope)
                        assert r.bit_length() <= width, (c.name, slope)

    def test_boundary_columns_drop_single_block(self):
        # leftmost p columns have no v target; rightmost p have no h target.
        # Column j keeps its v block when j is a HatB column, its h block
        # when j + p is.
        slope = Slope(3, 2)
        p = slope.p
        cone = build_cone(builtin("trefoil_rh"), slope)
        lo, hi = cone.a_columns[0], cone.a_columns[-1]
        for j in range(lo, lo + p):
            assert j not in cone.b_columns and j + p in cone.b_columns
        for j in range(hi - p + 1, hi + 1):
            assert j + p not in cone.b_columns and j in cone.b_columns
        for j in range(lo + p, hi - p + 1):
            assert j in cone.b_columns and j + p in cone.b_columns


class TestConeRanks:
    def test_unknot_gives_p(self):
        c = builtin("unknot")
        for slope in SMALL_SLOPES:
            assert cone_rank_chain(c, slope) == slope.p
            assert cone_rank_homological(c, slope) == slope.p

    def test_trefoil_one_surgery(self):
        # Hand elimination of the induced 4x5 block (columns A_-2..A_2,
        # rows B_-1..B_2, all blocks 1x1): h(-2)=1, h(-1)=1, v(1)=1,
        # v(2)=1 and v(0)=h(0)=0 leave rank 4, kernel 1, cokernel 0.
        assert cone_rank_chain(builtin("trefoil_rh"), Slope(1, 1)) == 1

    def test_figure_eight_one_surgery(self):
        # H(HatA(0)) is 3 dimensional; v and h each have rank 1 with the
        # same image, so the kernel contributes 2 + 1 matched class.
        assert cone_rank_chain(builtin("figure_eight"), Slope(1, 1)) == 3

    def test_homological_examples(self):
        assert cone_rank_homological(builtin("unknot"), Slope(5, 3)) == 5
        assert cone_rank_homological(builtin("trefoil_rh"), Slope(1, 2)) == 3
        assert cone_rank_homological(builtin("figure_eight"), Slope(2, 1)) == 4

    def test_routes_agree_on_builtins(self):
        for name in BUILTIN_NAMES + ("trefoil_rh#figure_eight",):
            c = _complex(name)
            for slope in SMALL_SLOPES:
                assert cone_rank_chain(c, slope) == cone_rank_homological(c, slope), (name, slope)

    def test_tight_window_equals_symmetric_on_builtins_and_tensors(self):
        complexes = [builtin(name) for name in BUILTIN_NAMES]
        pairs = itertools.combinations(BUILTIN_NAMES, 2)
        complexes += [tensor(builtin(a), builtin(b)) for a, b in pairs]
        assert len(complexes) == 21
        for c in complexes:
            for slope in coprime_slopes(5, 5):
                cone = build_cone(c, slope)
                full = full_boundary(cone)
                assert cone_rank_chain(c, slope) == full.cols - 2 * f2.rank(full), (c.name, slope)
                r = f2.rank(block_matrix(cone))
                symmetric = (cone.a_homology_dim - r) + (cone.b_homology_dim - r)
                assert cone_rank_homological(c, slope) == symmetric, (c.name, slope)

    def test_truncation_stability(self):
        # The tight window's rank is the full boundary's on the symmetric
        # window of every level tried from the safe bound up.
        for name in ("trefoil_rh", "figure_eight", "t25"):
            c = builtin(name)
            for slope in (Slope(1, 1), Slope(2, 3)):
                bound = truncation_bound(c, slope)
                base = cone_rank_chain(c, slope)
                for extra in (0, 1, 3):
                    full = full_boundary(build_cone(c, slope, bound + extra))
                    assert full.cols - 2 * f2.rank(full) == base, (name, slope, extra)

    @pytest.mark.parametrize("name", ["t25", "figure_eight", "random"])
    def test_chain_route_builds_no_homology_basis(self, monkeypatch, name):
        # t25 is connected; figure_eight and the random dots-and-boxes
        # complex split off an acyclic rest.  On each, the genus and the
        # chain route at 1/2, then the sweep on the symmetric window, which
        # builds fresh regions and maps, build no homology basis, read no
        # induced map and never find the split.
        built = []
        init = f2.HomologyBasis.__init__

        def counting_init(self, *args):
            built.append(self)
            init(self, *args)

        def refuse(*args, **kwargs):
            raise AssertionError("the chain route read an induced map")

        monkeypatch.setattr(f2.HomologyBasis, "__init__", counting_init)
        monkeypatch.setattr(f2, "induced_map_on_homology", refuse)
        c = random_complex(RandomSpec(seed=3, dots=3, boxes=3)) if name == "random" else builtin(name)
        slope = Slope(1, 2)
        rank = cone_rank_chain(c, slope)
        assert sweep_rank(build_cone(c, slope)) == rank
        assert built == [] and "_split" not in vars(c)
        monkeypatch.undo()
        assert (c.essential_summand is c) == (name == "t25")
        assert cone_rank_homological(c, slope) == rank

    @pytest.mark.parametrize("name", ["t25", "dots#trefoil_rh#trefoil_lh"])
    def test_a_missing_cocycle_class_fails_the_d_b_check(self, name):
        # The sweep needs one row per class of HatB's cohomology, so the
        # chain route checks b, the count of the classes, against
        # dim - 2 rank d_B.  With one class dropped before anything reads
        # them, b is one short and the check raises.
        if name == "t25":
            c = builtin(name)
        else:
            dots = random_complex(RandomSpec(seed=1, dots=3))
            c = tensor(tensor(dots, builtin("trefoil_rh")), builtin("trefoil_lh"))
        region = c.region_complex(c.top)
        vars(region)["cocycles"] = region.cocycles[1:]
        with pytest.raises(f2.DimensionError, match="cocycle classes") as excinfo:
            cone_rank_chain(c, Slope(3, 5))
        assert "_hat_b_boundary_rank" in [entry.name for entry in excinfo.traceback]


class TestRefusedSweep:
    """A cone whose window may hold more HatB blocks than
    ``surgery.MAX_HAT_B_BLOCKS`` is refused before any region is built: the
    genus is at most the top grading, so (2 top - 1)q - p bounds the blocks."""

    HUGE = Slope(1, 99999999999999999999)

    @pytest.mark.parametrize("route", [cone_rank_chain, cone_rank_homological])
    @pytest.mark.parametrize("name", ["t25", "figure_eight", "figure_eight#t25"])
    def test_refused_before_any_region(self, monkeypatch, route, name):
        # figure_eight and figure_eight#t25 split, so route two would read
        # the essential summand, off HatB's cocycle classes, if the slope
        # were not refused on the whole complex first; figure_eight's
        # summand, one dot of genus 0, sweeps no HatB block at any slope,
        # so both routes refuse the same slopes only by that check.
        c = tensor(builtin("figure_eight"), builtin("t25")) if name == "figure_eight#t25" else builtin(name)
        built = []
        init = RegionComplex.__init__

        def counting_init(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(RegionComplex, "__init__", counting_init)
        with pytest.raises(SlopeError, match="HatB blocks"):
            route(c, self.HUGE)
        assert built == []

    def test_the_limit_is_inclusive(self, monkeypatch):
        # t25 has top grading 2: 1/2 sweeps 3 * 2 - 1 = 5 blocks, 1/3 eight.
        monkeypatch.setattr(surgery, "MAX_HAT_B_BLOCKS", 5)
        c = builtin("t25")
        assert cone_rank_chain(c, Slope(1, 2)) == 1 + 2 * (3 * 2 - 1)
        with pytest.raises(SlopeError):
            cone_rank_chain(c, Slope(1, 3))

    def test_a_long_sweep_below_the_limit_still_ranks(self):
        assert cone_rank_chain(builtin("t25"), Slope(1, 10**5)) == 1 + 2 * (3 * 10**5 - 1)

    @pytest.mark.parametrize("name", ["unknot", "trefoil_rh", "figure_eight", "t25", "t27", "t27#t27"])
    def test_a_grid_is_refused_exactly_past_the_limit_on_its_summed_blocks(self, monkeypatch, name):
        # The closed form against the sum it stands for, over every p and q,
        # coprime or not, of each cone's bound max(0, (2 top - 1)q - p).
        c = tensor(builtin("t27"), builtin("t27")) if name == "t27#t27" else builtin(name)
        a = 2 * (c.alexander_cuts[-1] - 1) - 1
        for pmax, qmax in itertools.product([1, 2, 3, 5, 8, 13, 40], [1, 2, 3, 7, 8, 21]):
            blocks = sum(max(0, a * q - p) for p in range(1, pmax + 1) for q in range(1, qmax + 1))
            monkeypatch.setattr(surgery, "MAX_HAT_B_BLOCKS", blocks)
            surgery.require_grid_sweep(c, pmax, qmax)
            if blocks:
                monkeypatch.setattr(surgery, "MAX_HAT_B_BLOCKS", blocks - 1)
                with pytest.raises(SlopeError, match=f"may sweep {blocks} HatB blocks"):
                    surgery.require_grid_sweep(c, pmax, qmax)

    def test_every_scan_of_the_tests_and_benchmark_is_far_below_the_limit(self):
        # t27 at 8x8 sums to 1,158 blocks; a grid of 2 * 10**5 q at t25 to
        # about 6 * 10**10, refused before any region is built.
        c = builtin("t27")
        surgery.require_grid_sweep(c, 8, 8)
        c = builtin("t25")
        with pytest.raises(SlopeError, match="60000100000 HatB blocks"):
            surgery.require_grid_sweep(c, 1, 200000)
        assert not [key for key in c._memo if key[0] == "region"]

    @pytest.mark.parametrize("name", ["unknot", "t25"])
    def test_a_grid_is_refused_exactly_past_the_limit_on_its_cells(self, monkeypatch, name):
        # pmax * qmax cells, coprime or not, checked after the blocks, and
        # refused before any region is built.
        c = builtin(name)
        for pmax, qmax in ((6, 1), (2, 3), (1, 6)):
            monkeypatch.setattr(surgery, "MAX_GRID_CELLS", 6)
            surgery.require_grid_sweep(c, pmax, qmax)
            monkeypatch.setattr(surgery, "MAX_GRID_CELLS", 5)
            with pytest.raises(SlopeError, match=f"p <= {pmax}, q <= {qmax} fill 6 grid cells, over the limit 5"):
                surgery.require_grid_sweep(c, pmax, qmax)
        assert not [key for key in c._memo if key[0] == "region"]

    def test_the_blocks_are_checked_before_the_cells(self):
        # t25 at 1 x 200000 passes both limits, and the error names the
        # blocks; the unknot sweeps none, so its grid stops at 10**5 cells.
        with pytest.raises(SlopeError, match="60000100000 HatB blocks"):
            surgery.require_grid_sweep(builtin("t25"), 1, 200000)
        surgery.require_grid_sweep(builtin("unknot"), 1000, 100)
        with pytest.raises(SlopeError, match="100001 grid cells"):
            surgery.require_grid_sweep(builtin("unknot"), 100001, 1)


def _shifted_blocks(cone, first, rows="total_boundary"):
    """The HatB blocks j of the residue class of column ``first``, in chain
    order: each block's rows, read from the cone method named ``rows``,
    shifted to the start of HatA block j - p in the class's own layout,
    with j."""
    p, q = cone.slope.p, cone.slope.q
    base = 0
    for j in range(first + p, cone.a_columns[-1] + 1, p):
        narrow, _, v_start = getattr(cone, rows)(((j - p) // q, j // q))
        yield j, [row << base for row in narrow]
        base += v_start


def _matrix(rows):
    return f2.F2Matrix(max(map(int.bit_length, rows), default=0), tuple(rows))


def _v_hat_reads(monkeypatch) -> list:
    """The gradings of every ``CfkComplex.v_hat`` read from here on, on any
    complex, logged as they are read."""
    reads, v_hat = [], CfkComplex.v_hat
    monkeypatch.setattr(CfkComplex, "v_hat", lambda self, s: reads.append(s) or v_hat(self, s))
    return reads


def _complex(name):
    """A fresh builtin, or a fresh tensor of builtins joined by '#'."""
    return models.tensor_of(*name.split("#"))


class TestSweep:
    @pytest.mark.parametrize(
        "name", ["trefoil_rh", "figure_eight", "t25", "t27", "trefoil_rh#figure_eight"]
    )
    def test_increments_are_the_ranks_each_block_adds(self, name):
        # Each residue class laid out in chain order, every HatB row
        # shifted to the start of its HatA block j - p: the rank that the
        # rows of block j add to those before them is the sweep's
        # increment there, so the carry loses nothing the later rows read.
        c = _complex(name)
        for slope in (Slope(1, 1), Slope(2, 3), Slope(3, 2), Slope(1, 4), Slope(5, 2)):
            cone = MappingCone(c, slope)
            cone_rank_chain(c, slope)
            for first, steps in zip(cone.a_columns[:slope.p], sweep_increments(cone)):
                rows, before = [], 0
                for (j, block), increment in zip(_shifted_blocks(cone, first), steps, strict=True):
                    rows += block
                    rank = f2.rank(_matrix(rows))
                    assert rank - before == increment, (name, slope, j)
                    before = rank

    @pytest.mark.parametrize("name", ["t25", "trefoil_rh#figure_eight"])
    def test_carry_is_exact_on_arbitrary_blocks(self, monkeypatch, name):
        # On the builtins every carry happens to meet the next block's rows
        # trivially, so here each key gets random rows of the same shape,
        # whose carries do matter: at most as many rows as the h block is
        # wide, on the cycle coordinates of HatA(key[0]) and then
        # HatA(key[1]).  A real block has at most b rows, one per HatB
        # cocycle class, and b = 1 here, which leaves too few rows for a
        # carry, so the count has a bound of its own.  The sweep must still
        # give the rank of each class's rows laid out in chain order.
        def random_rows(cone, key):
            widths = [len(cone.complex.region_complex(s).cycles) for s in key]
            v_start = widths[0]
            rng = random.Random(f"{seed} {key}")
            count = rng.randint(0, v_start)
            rows = [rng.getrandbits(v_start + widths[1]) for _ in range(count)]
            return tuple(r for r in rows if r), v_start + widths[1], v_start

        monkeypatch.setattr(MappingCone, "total_boundary", random_rows)
        carried = 0
        for seed in range(8):
            c = _complex(name)  # a fresh memo for each seed's rows
            for slope in (Slope(1, 1), Slope(1, 3), Slope(2, 3), Slope(3, 2), Slope(5, 4)):
                cone = MappingCone(c, slope)
                ranked = sum(
                    f2.rank(_matrix([row for _, block in _shifted_blocks(cone, first) for row in block]))
                    for first in cone.a_columns[:slope.p]
                )
                expected = cone.total_dim - 2 * (cone.boundary_rank + ranked)
                assert cone_rank_chain(c, slope) == expected, (seed, slope)
            carried += sum(1 for carry, _ in sweep_table(c, "sweep") if carry)
        assert carried

    def test_rows_depend_on_the_key_alone(self):
        c = builtin("t25")
        cones = [MappingCone(c, s) for s in (Slope(1, 3), Slope(5, 2))]
        cones.append(build_cone(c, Slope(2, 1)))
        for key in ((-1, -1), (-1, 0), (0, 0), (0, 1), (1, 1)):
            first, *others = (cone.total_boundary(key) for cone in cones)
            assert all(other == first for other in others), key

    def test_memo_stays_bounded_as_q_grows(self):
        # Only the distinct transitions of the table are eliminated, and on
        # t27 the slopes 1/q for q up to 20 already make every one of them.
        c = builtin("t27")
        for q in range(1, 21):
            cone_rank_chain(c, Slope(1, q))
        entries = len(sweep_table(c, "sweep"))
        assert entries > 0
        for q in range(21, 301):
            cone_rank_chain(c, Slope(1, q))
        assert len(sweep_table(c, "sweep")) == entries
        assert cone_rank_chain(c, Slope(1, 300)) == 1 + 2 * (5 * 300 - 1)

    def test_readme_step_counts(self):
        # The README's figures: on t25#t27#figure_eight the chain route's
        # table holds 21 transitions after 1/20, and the same 21 serve 1/400
        # and 1/2000; the homological route's, on the essential summand,
        # holds 17 throughout.
        c = _complex("t25#t27#figure_eight")
        for q in (20, 400, 2000):
            cone_rank_chain(c, Slope(1, q))
            cone_rank_homological(c, Slope(1, q))
            assert len(sweep_table(c, "sweep")) == 21, q
            assert len(sweep_table(c.essential_summand, "hsweep")) == 17, q

    def test_one_rank_call_per_complex(self, monkeypatch):
        # Each sweep step reads its increment off the pivots of the one
        # rref that gives its next carry, so with the genus and b read
        # first, the only f2.rank call of the chain route is rank d_B.
        c = tensor(builtin("t25"), builtin("t27"))
        c.genus()
        c.b_rank()
        calls = []
        rank = f2.rank
        monkeypatch.setattr(f2, "rank", lambda m: calls.append(m) or rank(m))
        assert cone_rank_chain(c, Slope(5, 3)) == 85
        assert calls == [c.region_complex(c.top).boundary]
        assert sweep_table(c, "sweep")

    def test_no_hatb_column_means_no_step(self):
        # On trefoil_rh at 7/1 the tight window is 0..6, shorter than 2p,
        # so no column keeps a HatB block: the rank is the cone dimension.
        c = builtin("trefoil_rh")
        assert cone_rank_chain(c, Slope(7, 1)) == 7
        assert sweep_table(c, "sweep") == {}


class TestHomologicalSweep:
    @pytest.mark.parametrize("name", ["t25", "trefoil_rh#figure_eight"])
    def test_carry_is_exact_on_arbitrary_blocks(self, monkeypatch, name):
        # Real cones have left every carry empty, so each key gets random
        # rows on its two HatA homology blocks.  The sweep must still give the
        # rank of each class's rows laid out in chain order, and so must the
        # block matrix built from the same rows.  The sweep runs on the
        # essential summand (all of t25, the dot of the figure-eight times
        # the trefoil), and the acyclic rest adds q * z.
        carried = 0
        for seed in range(8):
            monkeypatch.setattr(MappingCone, "induced_boundary", random_induced_boundary(seed))
            c = _complex(name)  # a fresh memo for each seed's rows
            e = c.essential_summand
            for slope in (Slope(1, 1), Slope(1, 3), Slope(2, 3), Slope(3, 2), Slope(5, 4)):
                cone = MappingCone(e, slope)
                classes = (_shifted_blocks(cone, first, "induced_boundary") for first in cone.a_columns[:slope.p])
                ranked = sum(f2.rank(_matrix([row for _, block in blocks for row in block])) for blocks in classes)
                assert f2.rank(block_matrix(cone)) == ranked, (seed, slope)
                expected = cone.a_homology_dim + cone.b_homology_dim - 2 * ranked
                assert cone_rank_homological(c, slope) == expected + slope.q * c.acyclic_sum(), (seed, slope)
            carried += sum(1 for carry, _ in sweep_table(e, "hsweep") if carry)
        assert carried

    def test_memo_stays_bounded_as_q_grows(self):
        # On t27 the slopes 1/q for q up to 20 already make every
        # transition that q up to 300 reads.
        c = builtin("t27")
        for q in range(1, 21):
            cone_rank_homological(c, Slope(1, q))
        entries = sweep_table(c, "hsweep")
        assert entries
        for q in range(21, 301):
            cone_rank_homological(c, Slope(1, q))
        assert sweep_table(c, "hsweep") == entries
        assert cone_rank_homological(c, Slope(1, 300)) == 1 + 2 * (5 * 300 - 1)


class TestTInvariant:
    def test_unknot(self):
        c = builtin("unknot")
        for slope in SMALL_SLOPES:
            assert t_invariant(c, slope) == slope.p

    def test_figure_eight_nu_zero(self):
        c = builtin("figure_eight")
        for slope in SMALL_SLOPES:
            assert t_invariant(c, slope) == slope.p

    def test_trefoil_case_formula(self):
        c = builtin("trefoil_rh")
        for slope in SMALL_SLOPES:
            assert t_invariant(c, slope) == max(0, slope.p - slope.q)

    @pytest.mark.parametrize(
        ("build", "slope", "most"),
        [
            (lambda: builtin("t27"), Slope(47, 4), 4),
            (lambda: random_complex(RandomSpec(seed=5, dots=3, boxes=0)), Slope(60, 1), 1),
        ],
        ids=["t27", "genus 0"],
    )
    def test_a_miss_reads_one_meet_per_segment(self, monkeypatch, build, slope, most):
        # t adds a term only at the Alexander cuts in (0, g], so a memo miss
        # reads at most g + 1 meets, each one rank of v_hat: v_hat(0) and
        # one per cut, and exactly one at genus 0.
        c = build()
        c.essential_summand.genus()
        reads = _v_hat_reads(monkeypatch)
        t_invariant(c, slope)
        assert 0 < len(reads) <= most == c.essential_summand.genus() + 1
        reads.clear()
        t_invariant(c, slope)
        assert reads == []

    def test_a_miss_reads_one_meet_per_alexander_cut(self, monkeypatch):
        # Genus 100000 on three generators: the cuts in (0, g] are 1 and
        # 100000, so t reads three ranks of v_hat at 400001/1, at 0, 1 and
        # 100000, not one per multiple of q up to the genus.
        c = staircase([100000, 100000])
        c.genus()
        reads = _v_hat_reads(monkeypatch)
        assert t_invariant(c, Slope(400001, 1)) == 200002
        assert c.genus() == 100000 and reads == [0, 1, 100000]

    @pytest.mark.parametrize(
        ("build", "slope"),
        [
            (lambda: staircase([20, 20]), Slope(101, 2)),
            (lambda: staircase([3, 17, 17, 3]), Slope(127, 3)),
            (lambda: staircase([1, 1, 25, 25, 1, 1]), Slope(121, 2)),
            (lambda: tensor(staircase([20, 20]), mirror(staircase([12, 12]))), Slope(39, 2)),
            (lambda: tensor(staircase([20, 20]), mirror(staircase([12, 12]))), Slope(121, 2)),
            (lambda: tensor(staircase([20, 20]), mirror(staircase([3, 3]))), Slope(127, 3)),
        ],
        ids=["20-20", "3-17-17-3", "1-1-25-25-1-1", "20-20#-12-12-top-below-g", "20-20#-12-12", "20-20#-3-3"],
    )
    def test_sparse_cuts_sum_to_the_meet_of_every_j(self, monkeypatch, build, slope):
        # Complexes whose cuts lie far apart, at slopes where t > 0, with
        # the last cut read at the genus and, at 39/2, below it: t summed by
        # parts over the cuts is the meet summed over every j, read with
        # v_hat(0) and at most one rank of v_hat per cut x in (0, top],
        # top = min(g, (p + q - 1) // (2q)), the last x whose N(x) > 0.
        c = build()
        p, q = slope.p, slope.q
        every_j = sum(
            models.image_intersection_rank(c.v_hat(j // q).induced, c.h_hat((j - p) // q).induced)
            for j in range(p)
        )
        e = c.essential_summand
        top = min(e.genus(), (p + q - 1) // (2 * q))
        reads = _v_hat_reads(monkeypatch)
        assert t_invariant(c, slope) == every_j
        assert len(reads) <= 1 + sum(1 for x in e.alexander_cuts if 0 < x <= top)


# The corpus of the containment lemmas: the builtins, their pairwise
# tensors, random complexes and B_1's tensors, whose components reach b = 2.
BORROMEAN = models.borromean_corpus()
LEMMA_CORPUS = {
    **{name: functools.partial(builtin, name) for name in BUILTIN_NAMES},
    **{"#".join(pair): functools.partial(models.tensor_of, *pair) for pair in itertools.combinations(BUILTIN_NAMES, 2)},
    **{
        f"random-{seed}": functools.partial(random_complex, RandomSpec(seed, dots=1 + seed % 3, boxes=1 + seed % 3))
        for seed in range(6)
    },
    **BORROMEAN,
}


class TestContainmentLemmas:
    @pytest.mark.parametrize("build", LEMMA_CORPUS.values(), ids=LEMMA_CORPUS)
    def test_iota_and_phi_are_chain_maps_that_factor_v_hat(self, build):
        # iota_s and Phi_s are chain maps with v_hat(s) = v_hat(s+1) o iota_s
        # = h_hat(-s) o Phi_s, the two lemmas of the containment proof.
        c = build()
        assert models.assert_containment_lemmas(c) == 2 * c.genus() + 5

    @pytest.mark.parametrize("build", LEMMA_CORPUS.values(), ids=LEMMA_CORPUS)
    def test_every_meet_is_one_rank_of_v_hat(self, build):
        # The images of v_hat grow with s and im h_hat(b)_* is
        # im v_hat(-b)_*, so the meet of im v_hat(a)_* and im h_hat(b)_* is
        # rank v_hat(min(a, -b))_*, and both containments hold at every s.
        c = build()
        g = c.genus()
        for a in range(-g - 2, g + 3):
            for b in range(-g - 2, g + 3):
                meet = models.image_intersection_rank(c.v_hat(a).induced, c.h_hat(b).induced)
                assert meet == c.v_hat(min(a, -b)).induced_rank, (a, b)
        assert all(ok for side in models.reference_verdicts(c) for ok in side.values())

    @pytest.mark.parametrize("build", BORROMEAN.values(), ids=BORROMEAN)
    def test_routes_agree_on_borromean_tensors(self, build):
        c = build()
        for slope in coprime_slopes(4, 4):
            chain = cone_rank_chain(c, slope)
            assert chain == cone_rank_homological(c, slope) == rank_formula(c, slope), slope

    def test_borromean_values(self):
        # B_1 is valid, with b = 4, genus 1 and itself as its essential
        # summand, and has these ranks by all three routes.
        c = models.borromean()
        assert c.validate().ok and c.b_rank() == 4 and c.genus() == 1 and c.essential_summand is c
        for slope, rank in {Slope(1, 1): 4, Slope(2, 1): 8, Slope(5, 3): 20, Slope(1, 2): 6}.items():
            assert cone_rank_chain(c, slope) == cone_rank_homological(c, slope) == rank_formula(c, slope) == rank
        assert complement_check(c, 2).ranks == (6, 4)


class TestMeets:
    def test_memo_stays_small_on_a_wide_box(self):
        # A dot and one symmetric box of side 100000 (genus 100000): t reads
        # its ranks of v_hat per Alexander class, and the verdict reads only
        # the genus, so the memo stays small.
        n = 100000
        c = models.dot_and_box(n)
        report = hypothesis_verdicts(c)
        for slope in (Slope(1, 1), Slope(3, 2), Slope(2 * n + 1, 1)):
            t_invariant(c, slope)
        assert c.genus() == n and len(c._memo) <= 50
        assert report.overall

    @pytest.mark.parametrize("build", [models.dot_and_box, models.dot_and_pair], ids=["dot+box", "dot+pair"])
    def test_verdicts_held_as_class_runs_on_wide_complexes(self, build):
        # Gradings 100000 apart: the report holds only the genus, not one
        # entry per s, and only the JSON expands it, to one key for every s
        # of the window.
        c = build(100000)
        g = c.genus()
        report = hypothesis_verdicts(c)
        data = report.to_json_dict()
        assert report == HypothesisReport(g)
        assert list(data["h_image_in_v_image"]) == [str(s) for s in range(g + 1)]
        assert list(data["v_image_in_h_image"]) == [str(s) for s in range(-g, 1)]
        # Each verdict is the plain meet of the two induced maps at s itself.
        near = {s + d for s in (*c.alexander_cuts, 0, g // 2, -g // 2) for d in (-1, 0, 1)}
        for s in sorted(x for x in near if -g <= x <= g):
            v, h = c.v_hat(s).induced, c.h_hat(s).induced
            meet = models.image_intersection_rank(v, h)
            if s >= 0:
                assert data["h_image_in_v_image"][str(s)] == (meet == f2.rank(h)), s
            if s <= 0:
                assert data["v_image_in_h_image"][str(s)] == (meet == f2.rank(v)), s

    @pytest.mark.parametrize(
        ("build", "ranks"),
        [(models.dot_and_box, (399999, 799999)), (models.dot_and_pair, (5, 11))],
        ids=["dot+box", "dot+pair"],
    )
    def test_closed_form_work_follows_the_class_runs_on_wide_complexes(self, build, ranks, monkeypatch):
        # The closed form, t and nu scan s one class run at a time, so their
        # work follows the generator count, not the gradings 100000 apart:
        # a per-s scan read over 200,000 meets and made 800,000 class
        # lookups here.
        c = build(100000)
        lookups, alexander_class = [], CfkComplex.alexander_class
        reads = _v_hat_reads(monkeypatch)
        monkeypatch.setattr(CfkComplex, "alexander_class", lambda self, s: lookups.append(s) or alexander_class(self, s))
        reports = [compute_rank_report(c, slope) for slope in (Slope(1, 1), Slope(3, 2))]
        kernel_rank(c, Slope(1, 1))
        assert [(r.oracle_rank, r.formula_rank) for r in reports] == [(rank, rank) for rank in ranks]
        assert len(reads) <= 50 and len(lookups) <= 200, (len(reads), len(lookups))


@pytest.mark.parametrize(
    "parts", [(name,) for name in BUILTIN_NAMES] + list(itertools.combinations(BUILTIN_NAMES, 2)), ids="#".join
)
def test_scans_by_class_run_equal_the_scans_over_every_s(parts):
    models.assert_runs_match_per_s(models.tensor_of(*parts))


class TestRankFormula:
    def test_unknot_gives_p(self):
        c = builtin("unknot")
        for slope in SMALL_SLOPES:
            assert rank_formula(c, slope) == slope.p

    def test_trefoil_closed_form(self):
        c = builtin("trefoil_rh")
        for slope in SMALL_SLOPES:
            expected = 2 * slope.q + 2 * max(0, slope.p - slope.q) - slope.p
            assert rank_formula(c, slope) == expected
        assert rank_formula(c, Slope(1, 1)) == 1

    def test_figure_eight_closed_form(self):
        c = builtin("figure_eight")
        for slope in SMALL_SLOPES:
            assert rank_formula(c, slope) == 2 * slope.q + slope.p
        assert rank_formula(c, Slope(1, 1)) == 3

    def test_matches_oracles_on_a_fuzz_survey(self):
        # The builtins are criterion 1's; these 50 complexes, up to three
        # boxes each, are in no other fixed corpus.
        for seed in range(50):
            spec = RandomSpec(seed, dots=1 + seed % 3, boxes=seed % 4, max_side=1 + seed % 2, max_offset=seed % 3)
            c = random_complex(spec)
            assert c.validate().ok and hypothesis_verdicts(c).overall, spec
            for slope in (Slope(1, 1), Slope(1, 2), Slope(2, 1), Slope(3, 2)):
                assert rank_formula(c, slope) == cone_rank_chain(c, slope), (spec, slope)

    def test_matches_oracles_on_connected_sums(self):
        from hfsurgery.knots import tensor

        sums = [
            tensor(builtin("trefoil_rh"), builtin("trefoil_rh")),
            tensor(builtin("trefoil_rh"), builtin("trefoil_lh")),
            tensor(builtin("trefoil_rh"), builtin("figure_eight")),
        ]
        for c in sums:
            assert hypothesis_verdicts(c).overall, c.name
            for slope in (Slope(1, 1), Slope(2, 1), Slope(3, 2), Slope(1, 3)):
                chain = cone_rank_chain(c, slope)
                assert chain == cone_rank_homological(c, slope), (c.name, slope)
                assert chain == rank_formula(c, slope), (c.name, slope)


class TestNu:
    def test_values(self):
        assert nu_surrogate(builtin("unknot")) == 0
        assert nu_surrogate(builtin("trefoil_rh")) == 1
        assert nu_surrogate(builtin("trefoil_lh")) == 0
        assert nu_surrogate(builtin("figure_eight")) == 0
        assert nu_surrogate(builtin("t25")) == 2

    def test_needs_b_one(self):
        ids = ["e0", "e1"]
        c = CfkComplex((ids, [0, 0], [None] * 2), ([], [], []), (ids, ids), "dots")
        with pytest.raises(NotApplicableError):
            nu_surrogate(c)


class TestTClosedForm:
    def test_trefoil(self):
        c = builtin("trefoil_rh")
        assert models.rank_os_b1(c, Slope(5, 1)).t == 4
        assert models.rank_os_b1(c, Slope(1, 3)).t == 0

    def test_figure_eight(self):
        assert models.rank_os_b1(builtin("figure_eight"), Slope(3, 2)).t == 3

    def test_agrees_with_intersection_sum(self):
        for name in ("unknot", "trefoil_rh", "trefoil_lh", "figure_eight", "t25"):
            c = builtin(name)
            for slope in SMALL_SLOPES:
                assert models.rank_os_b1(c, slope).t == t_invariant(c, slope), (name, slope)


class TestKernel:
    def test_kernel_rank_examples(self):
        assert kernel_rank(builtin("unknot"), Slope(1, 1)) == 1
        assert kernel_rank(builtin("trefoil_rh"), Slope(1, 1)) == 1
        assert kernel_rank(builtin("figure_eight"), Slope(1, 1)) == 3

    def test_kernel_rank_unknot_is_p(self):
        # only the matched intersection classes contribute
        c = builtin("unknot")
        for slope in SMALL_SLOPES:
            assert kernel_rank(c, slope) == slope.p

    def test_unknot_single_matched_class(self):
        basis = kernel_basis_construction(builtin("unknot"), Slope(1, 1))
        assert len(basis) == 1
        assert sorted(basis[0]) == [-1, 0, 1]

    def test_trefoil_empty_tail(self):
        # the v kernel class at column 0 has zero h image, so no tail
        basis = kernel_basis_construction(builtin("trefoil_rh"), Slope(1, 1))
        assert len(basis) == 1
        assert sorted(basis[0]) == [0]

    def test_figure_eight_split(self):
        basis = kernel_basis_construction(builtin("figure_eight"), Slope(1, 1))
        spans = sorted(tuple(sorted(e)) for e in basis)
        assert spans == [(-1, 0, 1), (0,), (0,)]

    def test_counts_and_membership(self):
        # The builtins' gradings lie in -3..3, so 11/1, 13/2 and 17/3 read
        # v_hat and h_hat at their outermost Alexander classes, checked
        # against the block matrix.
        slopes = (Slope(1, 1), Slope(2, 1), Slope(3, 2), Slope(2, 3), Slope(5, 2), Slope(11, 1), Slope(13, 2), Slope(17, 3))
        for name in ("unknot", "trefoil_rh", "trefoil_lh", "figure_eight", "t25"):
            c = builtin(name)
            for slope in slopes:
                cone = build_cone(c, slope)
                basis = kernel_basis_construction(c, slope)
                block = block_matrix(cone)
                true_kernel = cone.a_homology_dim - f2.rank(block)
                assert len(basis) == kernel_rank(c, slope) == true_kernel, (name, slope)
                flattened = [flatten(cone, e) for e in basis]
                for vec in flattened:
                    assert block.apply(vec) == 0
                stacked = f2.F2Matrix.from_columns(flattened, cone.a_homology_dim)
                assert f2.rank(stacked) == len(basis), (name, slope, "independence")

    def test_seeds_read_no_map_beyond_the_genus(self):
        # Regions and maps are memoized under the Alexander class of s, so
        # beyond the genus 2 of t25 (gradings -2..2) means the classes 3
        # and -3 of every s >= 3 and s <= -3.
        c = builtin("t25")
        slope = Slope(1, 4)
        cone_rank_chain(c, slope)
        cone_rank_homological(c, slope)
        rank_formula(c, slope)
        before = set(c._memo)
        kernel_basis_construction(c, slope)
        above = {c.alexander_class(s) for s in range(3, 8)}
        below = {c.alexander_class(s) for s in range(-8, -2)}
        assert (above, below) == ({3}, {-3})
        beyond = {("region", s) for s in above | below}
        beyond |= {("v", s) for s in above} | {("h", s) for s in below}
        assert not (set(c._memo) - before) & beyond

    def test_memo_stays_bounded_as_p_grows(self):
        # Every region and map is memoized under the Alexander class of s,
        # one of the cuts -3..4 of t27 (gradings -3..3) or -4 below them,
        # so a larger p builds no new region or map.
        c = builtin("t27")

        def reads():
            return {key for key in c._memo if isinstance(key, tuple) and key[0] in ("region", "v", "h")}

        kernel_basis_construction(c, Slope(201, 1))
        before = reads()
        kernel_basis_construction(c, Slope(2001, 1))
        assert reads() == before
        classes = set(range(-4, 5))
        assert {s for _, s in before} <= classes

    @pytest.mark.parametrize(
        ("name", "slope", "rank"),
        [("trefoil_lh#trefoil_lh#trefoil_lh", Slope(1, 2000), 40001), ("t25#t27#figure_eight", Slope(20001, 1), 20083)],
    )
    def test_each_distinct_map_eliminated_once(self, monkeypatch, name, slope, rank):
        # 1/2000 seeds 10,001 columns and walks across 10,000 more, and
        # 20001/1 meets 20,001 residue columns, but every column reads one
        # of a few induced maps per Alexander class, so each distinct
        # (matrix, target) is eliminated once.
        c = _complex(name)
        homes = {"kernel_basis": f2, "solve": f2, "image_intersection_basis": models}
        calls = {name: 0 for name in homes}
        for name, home in homes.items():

            def counted(*args, _name=name, _fn=getattr(home, name)):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(home, name, counted)
        basis = kernel_basis_construction(c, slope)
        assert len(basis) == kernel_rank(c, slope) == rank
        assert all(n <= 20 for n in calls.values()), calls

    @pytest.mark.parametrize(
        "name, message",
        [
            ("unknot", "no rightward cancellation at column 1"),
            ("trefoil_lh#trefoil_lh", "no leftward cancellation at column -2"),
        ],
    )
    def test_missing_cancellation_raises(self, monkeypatch, name, message):
        # A walk whose next column cannot cancel its image names its direction
        # and the column.
        c = tensor(*map(builtin, name.split("#"))) if "#" in name else builtin(name)
        monkeypatch.setattr(f2, "solve", lambda m, target: None)
        with pytest.raises(models.InternalInvariantError, match=message):
            kernel_basis_construction(c, Slope(1, 1))

    @pytest.mark.parametrize("name, column", [("unknot", -2), ("figure_eight", -3), ("trefoil_lh#trefoil_lh", -4)])
    def test_a_walk_past_the_genus_raises(self, monkeypatch, name, column):
        # With v_hat(s) of a class below its mirror class m served as
        # v_hat(m) instead of h_hat(m), a leftward walk never meets a
        # vanishing v_hat: it is stopped at the first column past -gq-p
        # instead of running on.
        c = _complex(name)
        v_hat = CfkComplex.v_hat

        def wrong(self, s):
            s, m = self.alexander_class(s), self.alexander_class(-s)
            return v_hat(self, m if m > s else s)

        monkeypatch.setattr(CfkComplex, "v_hat", wrong)
        with pytest.raises(models.InternalInvariantError, match=f"leftward walk reached column {column}, outside"):
            kernel_basis_construction(c, Slope(1, 1))

    def test_leftward_tails_on_a_tensor(self):
        # h_hat kernel classes on negative columns of trefoil_lh # trefoil_lh
        # cancel leftward over more than one column, solving against h_hat
        c = tensor(builtin("trefoil_lh"), builtin("trefoil_lh"))
        for q in (1, 2, 3):
            slope = Slope(1, q)
            cone = build_cone(c, slope)
            basis = kernel_basis_construction(c, slope)
            block = block_matrix(cone)
            assert len(basis) == cone.a_homology_dim - f2.rank(block)
            for element in basis:
                assert block.apply(flatten(cone, element)) == 0
            assert any(sum(j < 0 for j in e) >= 2 for e in basis), slope


class TestLargeSurgeryWindow:
    def test_integer_slope_count(self):
        # for n >= 2g + 2 the rank is the total H(HatA) mass on |s| <= g
        # plus (n - 2g - 1) copies of b, by every route; at 200001/1 the
        # window reads only the distinct regions and t its clamped meets
        for name in ("trefoil_rh", "trefoil_lh", "figure_eight", "t25", "t27"):
            c = builtin(name)
            g, b = c.genus(), c.b_rank()
            window = sum(c.region_complex(s).homology.dim for s in range(-g, g + 1))
            for n in (2 * g + 2, 2 * g + 4) + ((200001,) if name == "t27" else ()):
                expected = window + (n - (2 * g + 1)) * b
                for route in (rank_formula, cone_rank_chain, cone_rank_homological):
                    assert route(c, Slope(n, 1)) == expected, (name, n, route.__name__)

    @pytest.mark.parametrize("slope", [Slope(2**63, 1), Slope(2**63 + 1, 2)])
    def test_p_past_the_word_size(self, slope):
        # The window holds p HatA columns, more than sys.maxsize, so its
        # range has no len(); every route still gives p, the rank of a
        # slope this large on t25, whose b is 1 and whose HatA(s) have
        # homology of rank 1.
        c = builtin("t25")
        for route in (cone_rank_chain, cone_rank_homological, rank_formula):
            assert route(c, slope) == slope.p, route.__name__


class TestRankReport:
    def test_t_computed_once_per_slope(self, monkeypatch):
        # t reads v_hat(0) and one rank of v_hat per cut in
        # (0, min(g, (p + q - 1) // (2q))]: t25 (genus 2) at 3/2 reads the
        # cut 1, and at 3/4 no cut.  A report at a slope it has seen reads
        # no map at all.
        c = builtin("t25")
        c.genus()
        reads = _v_hat_reads(monkeypatch)
        t_invariant(c, Slope(3, 2))
        assert reads == [0, 1]
        report = compute_rank_report(c, Slope(3, 2))
        assert report.formula_rank == report.oracle_rank
        reads.clear()
        assert compute_rank_report(c, Slope(3, 2)) == report and reads == []
        t_invariant(c, Slope(3, 4))
        assert reads == [0]

    def test_each_induced_matrix_ranked_once(self, monkeypatch):
        # Ranked matrices are kept alive, so that no id is reused.
        ranked = {}
        rank = f2.rank

        def keeping(m, *args):
            ranked.setdefault(id(m), []).append(m)
            return rank(m, *args)

        monkeypatch.setattr(f2, "rank", keeping)
        c = tensor(builtin("t25"), builtin("figure_eight"))
        for slope in coprime_slopes(8, 8):
            compute_rank_report(c, slope)
            cone_rank_homological(c, slope)
        # The induced maps are those of the essential summand, t25 times the
        # figure-eight's dot.
        maps = [m for m in c.essential_summand._memo.values() if isinstance(m, FilteredChainMap)]
        assert any(id(m.induced) in ranked for m in maps)
        assert all(len(ms) == 1 for ms in ranked.values())

    @pytest.mark.parametrize(
        "c",
        [tensor(builtin("figure_eight"), builtin("t27")), random_complex(RandomSpec(seed=6, dots=1, boxes=6, max_offset=3))],
        ids=["figure_eight#t27", "1 dot 6 boxes"],
    )
    def test_no_homology_basis_of_the_whole_complex(self, monkeypatch, c):
        # Both complexes split: the figure-eight's box and every random box
        # have b = 0.  The rank report and the homological route read
        # homology on the essential summand only, and the acyclic rest's
        # H(HatA(s)) off the whole complex's cycles, so no homology basis
        # as wide as the whole complex is built.
        widths = []
        init = f2.HomologyBasis.__init__

        def counting(self, differential, cycles, image):
            widths.append(differential.cols)
            init(self, differential, cycles, image)

        monkeypatch.setattr(f2.HomologyBasis, "__init__", counting)
        n = len(c.columns[0][0])
        assert len(c.essential_summand.columns[0][0]) < n
        for slope in (Slope(1, 1), Slope(3, 2), Slope(5, 3), Slope(2, 7)):
            compute_rank_report(c, slope)
            cone_rank_homological(c, slope)
        assert widths and n not in widths

    @pytest.mark.parametrize(
        "c",
        [tensor(builtin("t25"), builtin("t27")), random_complex(RandomSpec(seed=2301, dots=2, boxes=5, max_offset=3))],
        ids=["t25#t27", "2 dots 5 boxes"],
    )
    @pytest.mark.parametrize("slope", [Slope(1, 1), Slope(5, 3)], ids=str)
    def test_a_repeated_query_is_a_pure_memo_read(self, monkeypatch, c, slope):
        # The first query fills the memos; the repeat reads them and builds
        # nothing, so no key is added to the complex or its summand.
        compute_rank_report(c, slope)
        cone_rank_homological(c, slope)
        e = c.essential_summand
        keys = [list(c._memo), list(e._memo)]
        built = []
        for cls in (RegionComplex, FilteredChainMap, MappingCone, f2.HomologyBasis, f2.F2Matrix):
            init = cls.__init__

            def counting(self, *args, init=init, **kwargs):
                built.append(type(self).__name__)
                init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        again = compute_rank_report(c, slope), cone_rank_homological(c, slope)
        monkeypatch.undo()
        assert built == [] and [list(c._memo), list(e._memo)] == keys
        assert again == (compute_rank_report(c, slope), cone_rank_homological(c, slope))

    def test_trefoil_report(self):
        report = compute_rank_report(builtin("trefoil_rh"), Slope(1, 1))
        assert report.oracle_rank == 1 and report.formula_rank == 1
        assert report.consistent and report.hypothesis_ok
        assert report.nu == 1 and report.b == 1 and report.genus == 1

    def test_tsv_row_matches_header(self):
        report = compute_rank_report(builtin("figure_eight"), Slope(2, 1))
        header = RankReport.TSV_HEADER.split("\t")
        row = report.tsv_row().split("\t")
        assert len(header) == len(row)
        assert row[header.index("oracle")] == "4"

    def test_json_content_matches_tsv(self):
        reports = [
            compute_rank_report(builtin("t25"), Slope(3, 2)),
            compute_rank_report(random_complex(RandomSpec(seed=3, dots=2)), Slope(2, 1)),
        ]
        assert reports[1].nu is None
        for report in reports:
            data = report.to_json_dict()
            row = report.tsv_row().split("\t")
            assert len(row) == len(RankReport.TSV_HEADER.split("\t"))
            for column, cell in zip(RankReport.TSV_HEADER.split("\t"), row):
                value = data[column]
                if column == "hypothesis":
                    assert cell == ("pass" if value else "fail")
                else:
                    assert cell == ("-" if value is None else str(value)), column

    def test_report_notes_flip_dependence(self):
        report = compute_rank_report(builtin("unknot"), Slope(1, 1))
        assert "flip" in report.note


def test_coprime_slopes_count():
    assert len(coprime_slopes(4, 4)) == 11


def test_concurrent_scans_share_one_complex():
    """Parallel slope scans over a shared complex match a sequential run."""
    from concurrent.futures import ThreadPoolExecutor

    c = builtin("t25")
    slopes = coprime_slopes(5, 5)
    sequential = [cone_rank_chain(builtin("t25"), s) for s in slopes]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda s: cone_rank_chain(c, s), slopes))
    assert parallel == sequential
