"""Unit tests for the hypothesis check and the rank obstructions."""

import pytest

from hfsurgery import f2
from hfsurgery.cfk import CfkComplex, FlipRequiredError
from hfsurgery.knots import builtin, random_complex, RandomSpec, tensor
from hfsurgery.obstructions import (
    CONSISTENT,
    NOT_APPLICABLE,
    OBSTRUCTED,
    complement_check,
    cosmetic_pair_check,
    detect_unknot,
    hypothesis_check,
    monotonicity_scan,
)
from hfsurgery.surgery import (
    FormulaNotApplicableError,
    HypothesisReport,
    Slope,
    hypothesis_holds,
    hypothesis_verdicts,
)

NONTRIVIAL = ("trefoil_rh", "trefoil_lh", "figure_eight", "t25", "t27")


class TestHypothesisCheck:
    def test_builtins_pass(self):
        for name in ("unknot",) + NONTRIVIAL:
            report = hypothesis_check(builtin(name))
            assert report.overall, name
            assert all(ok for _, _, ok in report.h_in_v + report.v_in_h), name

    def test_builtin_tensors_pass(self):
        # A tensor of two builtins has b = 1, where rk v_s = rk h_-s and the
        # images growing with s force both containments.
        names = ("unknot",) + NONTRIVIAL
        for a in names:
            for b in names:
                assert hypothesis_holds(tensor(builtin(a), builtin(b))), (a, b)

    def test_verdict_range_covers_genus_window(self):
        # t25 has a cut at every s in -2..3, so each s of the window is a
        # class run of its own, and the JSON has one key per s.
        c = builtin("t25")
        report = hypothesis_check(c)
        assert [(s, n) for s, n, _ in report.h_in_v] == [(0, 1), (1, 1), (2, 1)]
        assert [(s, n) for s, n, _ in report.v_in_h] == [(-2, 1), (-1, 1), (0, 1)]
        data = report.to_json_dict()
        assert list(data["h_image_in_v_image"]) == ["0", "1", "2"]
        assert list(data["v_image_in_h_image"]) == ["-2", "-1", "0"]

    def test_overall_is_conjunction(self):
        report = hypothesis_check(builtin("figure_eight"))
        assert report.overall == all(ok for _, _, ok in report.h_in_v + report.v_in_h)
        # One failing run on either side fails the whole report.
        passing, failing = ((0, 2, True),), ((0, 1, True), (1, 3, False))
        assert HypothesisReport(passing, passing).overall
        assert not HypothesisReport(passing, failing).overall
        assert not HypothesisReport(failing, passing).overall

    def test_requires_flip(self):
        c = CfkComplex((["x"], [0], [None]), ([], [], []), None, "flipless")
        with pytest.raises(FlipRequiredError):
            hypothesis_check(c)

    def test_one_record_for_every_reader(self):
        for c in (builtin("t25"), random_complex(RandomSpec(seed=3, dots=2))):
            report = hypothesis_check(c)
            assert report is hypothesis_verdicts(c)
            assert hypothesis_holds(c) == report.overall

    def test_json_dict(self):
        data = hypothesis_check(builtin("trefoil_rh")).to_json_dict()
        assert data["overall"] is True
        assert "0" in data["h_image_in_v_image"]


class TestDetectUnknot:
    def test_unknot(self):
        assert detect_unknot(builtin("unknot"))

    def test_trefoil(self):
        assert not detect_unknot(builtin("trefoil_rh"))

    def test_figure_eight(self):
        # v_hat(0) has a two dimensional kernel
        assert not detect_unknot(builtin("figure_eight"))

    def test_two_dots_counts_as_trivial(self):
        c = random_complex(RandomSpec(seed=1, dots=2, boxes=0))
        assert detect_unknot(c)


class TestCosmetic:
    def test_trefoil_obstructed(self):
        v = cosmetic_pair_check(builtin("trefoil_rh"), Slope(1, 1), Slope(1, 2))
        assert v.verdict == OBSTRUCTED and v.ranks == (1, 3)

    def test_unknot_consistent(self):
        v = cosmetic_pair_check(builtin("unknot"), Slope(1, 1), Slope(1, 2))
        assert v.verdict == CONSISTENT and v.ranks == (1, 1)

    def test_figure_eight_obstructed(self):
        v = cosmetic_pair_check(builtin("figure_eight"), Slope(2, 1), Slope(2, 3))
        assert v.verdict == OBSTRUCTED and v.ranks == (4, 8)

    def test_trefoil_consistent_above_slope_one(self):
        v = cosmetic_pair_check(builtin("trefoil_rh"), Slope(5, 1), Slope(5, 2))
        assert v.verdict == CONSISTENT and v.ranks == (5, 5)
        assert v.reason == "total ranks agree (5); both slopes exceed 1, where the rank obstruction is silent"

    def test_equal_ranks_at_slope_one_contradict_the_bound(self, monkeypatch):
        # The trefoil's ranks at 1/1 and 1/2 differ (1 vs 3); patched equal,
        # they reach the caveat for a slope <= 1.
        monkeypatch.setattr("hfsurgery.obstructions.cone_rank_chain", lambda c, slope: 3)
        v = cosmetic_pair_check(builtin("trefoil_rh"), Slope(1, 1), Slope(1, 2))
        assert v.verdict == CONSISTENT and v.ranks == (3, 3)
        assert v.reason == (
            "total ranks agree (3); equal ranks at a slope <= 1 on a nontrivial complex "
            "would contradict the cosmetic bound when the containment hypothesis holds"
        )

    def test_different_p_short_circuits(self):
        v = cosmetic_pair_check(builtin("t27"), Slope(2, 1), Slope(3, 1))
        assert v.verdict == NOT_APPLICABLE and v.ranks is None

    def test_equal_slopes_rejected(self):
        with pytest.raises(ValueError):
            cosmetic_pair_check(builtin("unknot"), Slope(1, 1), Slope(1, 1))

    def test_obstructed_only_when_ranks_differ(self):
        for name in ("unknot",) + NONTRIVIAL:
            c = builtin(name)
            v = cosmetic_pair_check(c, Slope(3, 1), Slope(3, 4))
            if v.verdict == OBSTRUCTED:
                assert v.ranks[0] != v.ranks[1]
            elif v.verdict == CONSISTENT:
                assert v.ranks[0] == v.ranks[1]

    def test_json_dict(self):
        v = cosmetic_pair_check(builtin("trefoil_rh"), Slope(1, 1), Slope(1, 2))
        data = v.to_json_dict()
        assert data["verdict"] == OBSTRUCTED and data["ranks"] == [1, 3]


class TestComplement:
    def test_trefoil_q2(self):
        v = complement_check(builtin("trefoil_rh"), 2)
        assert v.verdict == OBSTRUCTED and v.ranks == (3, 1)

    def test_unknot_all_q(self):
        for q in (1, 2, 3, 4, 5):
            assert complement_check(builtin("unknot"), q).verdict == CONSISTENT

    def test_figure_eight_q1(self):
        # dim H(HatA(0)) = 3 > b = 1 forces the q = 1 obstruction
        v = complement_check(builtin("figure_eight"), 1)
        assert v.verdict == OBSTRUCTED and v.ranks == (3, 1)

    def test_trefoil_q1_consistent(self):
        # genus 1 with dim H(HatA(0)) = b: the q = 1 case makes no claim
        assert complement_check(builtin("trefoil_rh"), 1).verdict == CONSISTENT

    def test_q1_for_higher_genus(self):
        for name in ("t25", "t27"):
            assert complement_check(builtin(name), 1).verdict == OBSTRUCTED

    @pytest.mark.parametrize(
        "names, rank",
        [(["figure_eight"], 5), (["trefoil_rh", "figure_eight"], 15)],
        ids=["figure_eight", "trefoil_rh#figure_eight"],
    )
    def test_ambient_rank_builds_no_split_and_no_homology(self, monkeypatch, names, rank):
        # Both complexes split off an acyclic box.  b is the count of HatB's
        # cocycle classes on the whole complex, so neither b_rank() nor the
        # check, whose chain route reads the classes too, finds the split or
        # builds a homology basis, each on a fresh complex.
        built = []
        init = f2.HomologyBasis.__init__

        def counting_init(self, *args):
            built.append(self)
            init(self, *args)

        def fresh():
            c = builtin(names[0])
            for name in names[1:]:
                c = tensor(c, builtin(name))
            return c

        monkeypatch.setattr(f2.HomologyBasis, "__init__", counting_init)
        c = fresh()
        assert c.b_rank() == 1
        assert "_split" not in vars(c) and built == []
        c = fresh()
        assert complement_check(c, 2).ranks == (rank, 1)
        assert "_split" not in vars(c) and built == []
        monkeypatch.undo()
        assert c.essential_summand is not c


class TestMonotonicityScan:
    def test_unknot_constant(self):
        assert monotonicity_scan(builtin("unknot"), 1, 5) == [(q, 1) for q in range(1, 6)]

    def test_trefoil(self):
        assert monotonicity_scan(builtin("trefoil_rh"), 1, 4) == [
            (1, 1), (2, 3), (3, 5), (4, 7),
        ]

    def test_figure_eight(self):
        assert monotonicity_scan(builtin("figure_eight"), 1, 3) == [(1, 3), (2, 5), (3, 7)]

    @pytest.mark.parametrize("p, qmax", [(0, 3), (1, 0), (-2, -1)])
    def test_needs_positive_p_and_qmax(self, p, qmax):
        with pytest.raises(ValueError, match="monotonicity scan needs positive p and qmax"):
            monotonicity_scan(builtin("unknot"), p, qmax)

    def test_skips_non_coprime(self):
        scan = monotonicity_scan(builtin("unknot"), 2, 6)
        assert [q for q, _ in scan] == [1, 3, 5]

    def test_strictly_increasing_for_nontrivial(self):
        for name in NONTRIVIAL:
            c = builtin(name)
            for p in (1, 2):
                values = [r for q, r in monotonicity_scan(c, p, 6) if q >= p]
                assert all(a < b for a, b in zip(values, values[1:])), (name, p)

    def test_gated_on_hypothesis(self, monkeypatch):
        import hfsurgery.obstructions as obstructions

        monkeypatch.setattr("hfsurgery.surgery.hypothesis_holds", lambda c: False)
        with pytest.raises(FormulaNotApplicableError):
            obstructions.monotonicity_scan(builtin("trefoil_rh"), 1, 3)


class TestTheoremOneBranches:
    def test_q_less_p_less_qprime(self):
        # strictly larger rank at p/q' whenever q < p < q' on nontrivial knots
        for name in ("trefoil_rh", "figure_eight"):
            c = builtin(name)
            for p, q, qp in [(3, 1, 4), (3, 2, 4), (5, 2, 7)]:
                from hfsurgery.surgery import cone_rank_chain

                assert cone_rank_chain(c, Slope(p, qp)) > cone_rank_chain(c, Slope(p, q))
