"""Acceptance suite: every exit criterion, exact values, one line each.

Every expected value below is either an independently derived golden
(hand Gaussian elimination recorded in comments), a closed-form count
forced by the structure of the model, or an internal cross-check between
the two independent rank routes.  All comparisons are exact; there are
no tolerances because every quantity is an integer rank.
"""

import time

from hfsurgery import f2
from hfsurgery.cfk import RegionComplex
from hfsurgery.knots import BUILTIN_NAMES, RandomSpec, builtin, random_complex, tensor
from hfsurgery.obstructions import (
    CONSISTENT,
    OBSTRUCTED,
    complement_check,
    detect_unknot,
    hypothesis_check,
    monotonicity_scan,
)
from hfsurgery.surgery import (
    Slope,
    cone_rank_chain,
    cone_rank_homological,
    coprime_slopes,
    kernel_rank,
    rank_formula,
    t_invariant,
)

import models
from models import kernel_basis_construction
from full_boundary import block_matrix, build_cone, flatten, full_boundary, truncation_bound

NONTRIVIAL = ("trefoil_rh", "trefoil_lh", "figure_eight", "t25", "t27")

# Fixed fuzz corpus shared by criteria 7 and 8: one hundred seeded
# dots-and-boxes complexes with varying b, genus and box shapes.
CORPUS_SPECS = [
    RandomSpec(
        seed=i,
        dots=1 + i % 3,
        boxes=i % 3,
        max_side=1 + i % 2,
        max_offset=i % 3,
    )
    for i in range(100)
]


def corpus():
    return [random_complex(spec) for spec in CORPUS_SPECS]


def test_criterion_1_formula_equals_both_oracles():
    """All built-ins, all coprime 1 <= p, q <= 8: the closed form and the
    two independent cone routes agree exactly, within the time budget."""
    start = time.perf_counter()
    slopes = coprime_slopes(8, 8)
    for name in BUILTIN_NAMES:
        c = builtin(name)
        for slope in slopes:
            chain = cone_rank_chain(c, slope)
            homological = cone_rank_homological(c, slope)
            formula = rank_formula(c, slope)
            assert chain == homological == formula, (name, str(slope), chain, homological, formula)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 1 took {elapsed:.1f}s"
    print(f"ACCEPTANCE 1 formula==oracle grid (elapsed {elapsed:.2f}s): PASS")


def test_criterion_2_unknot_lens_count():
    """Unknot surgery at p/q has rank p for all coprime pairs up to 12."""
    c = builtin("unknot")
    for slope in coprime_slopes(12, 12):
        assert cone_rank_chain(c, slope) == slope.p, str(slope)
    print("ACCEPTANCE 2 unknot lens count: PASS")


def test_criterion_3_trefoil_goldens():
    """Right-handed trefoil golden ranks.

    Hand elimination for 1/1 (truncation level 3, columns A_-2..A_2 over
    rows B_-1..B_2, every homology one dimensional): the induced blocks
    are h(-2) = 1 into B_-1, h(-1) = 1 into B_0, v(0) = h(0) = 0,
    v(1) = 1 into B_1, v(2) = 1 into B_2.  The four rows are pivoted by
    the columns A_-2, A_-1, A_1, A_2, so the rank is 4 out of a 5 column,
    4 row block: kernel 1, cokernel 0, total 1.  Scaling the same block
    pattern gives 2q - 1 at 1/q and 2q + 2 max(0, p - q) - p in general.
    """
    c = builtin("trefoil_rh")
    assert cone_rank_chain(c, Slope(1, 1)) == 1
    assert cone_rank_chain(c, Slope(1, 2)) == 3
    assert cone_rank_chain(c, Slope(3, 1)) == 3
    assert cone_rank_chain(c, Slope(5, 1)) == 5
    for q in range(1, 6):
        assert cone_rank_chain(c, Slope(1, q)) == 2 * q - 1, q
    print("ACCEPTANCE 3 trefoil goldens: PASS")


def test_criterion_4_figure_eight_goldens():
    """Figure-eight rank is 2q + p on every coprime pair up to 6."""
    c = builtin("figure_eight")
    for slope in coprime_slopes(6, 6):
        assert cone_rank_chain(c, slope) == 2 * slope.q + slope.p, str(slope)
    assert cone_rank_chain(c, Slope(1, 1)) == 3
    print("ACCEPTANCE 4 figure-eight goldens: PASS")


def test_criterion_5_t_consistency():
    """t agrees with the nu case formula: max(0, p - (2 nu - 1) q) on the
    trefoil (nu = 1) and p on the figure-eight and unknot (nu = 0)."""
    slopes = coprime_slopes(8, 8)
    tref = builtin("trefoil_rh")
    for slope in slopes:
        assert t_invariant(tref, slope) == max(0, slope.p - slope.q), str(slope)
    for name in ("figure_eight", "unknot"):
        c = builtin(name)
        for slope in slopes:
            assert t_invariant(c, slope) == slope.p, (name, str(slope))
    print("ACCEPTANCE 5 t consistency: PASS")


def test_criterion_6_complement_suite():
    """1/q surgery is rank-obstructed from returning the ambient manifold
    for every nontrivial built-in at q = 2..5, at q = 1 where the theorem
    asserts it, and never for the unknot."""
    for name in NONTRIVIAL:
        c = builtin(name)
        for q in (2, 3, 4, 5):
            verdict = complement_check(c, q)
            assert verdict.verdict == OBSTRUCTED, (name, q, verdict)
    for name in ("t25", "t27", "figure_eight"):
        # genus >= 2 for the torus knots; dim H(HatA(0)) = 3 > b = 1 for 4_1
        assert complement_check(builtin(name), 1).verdict == OBSTRUCTED, name
    unknot = builtin("unknot")
    for q in (1, 2, 3, 4, 5):
        assert complement_check(unknot, q).verdict == CONSISTENT, q
    print("ACCEPTANCE 6 complement suite: PASS")


def test_criterion_7_cosmetic_suite():
    """Monotonicity in q, the q < p < q' strict jump, and the p in {1, 2}
    corollary over the fuzz corpus."""
    # strict increase along q >= p for nontrivial built-ins
    for name in NONTRIVIAL:
        c = builtin(name)
        for p in (1, 2, 3):
            tail = [r for q, r in monotonicity_scan(c, p, 7) if q >= p]
            assert all(a < b for a, b in zip(tail, tail[1:])), (name, p, tail)
    # q < p < q' branch on the two standard examples
    for name in ("trefoil_rh", "figure_eight"):
        c = builtin(name)
        for p, q, qp in [(3, 1, 4), (3, 2, 4), (5, 2, 7)]:
            assert cone_rank_chain(c, Slope(p, qp)) > cone_rank_chain(c, Slope(p, q)), (name, p, q, qp)
    # p in {1, 2} corollary: equal ranks at distinct q only for trivial complexes
    for c in corpus():
        for p in (1, 2):
            values = [r for _, r in monotonicity_scan(c, p, 5)]
            has_repeat = any(a == b for a, b in zip(values, values[1:]))
            if len(set(values)) < len(values) or has_repeat:
                assert detect_unknot(c), (c.name, p, values)
    print("ACCEPTANCE 7 cosmetic suite: PASS")


def test_criterion_8_structural_invariants():
    """The lemma-level battery over the corpus plus all built-ins."""
    complexes = [builtin(name) for name in BUILTIN_NAMES] + corpus()
    for c in complexes:
        g, b = c.genus(), c.b_rank()
        # rank and kernel symmetry between v(s) and h(-s)
        for s in range(-g - 1, g + 2):
            v, h = c.v_hat(s), c.h_hat(-s)
            assert v.induced_rank == h.induced_rank, (c.name, s)
            assert models.kernel_dim(v) == models.kernel_dim(h), (c.name, s)
        # image monotonicity
        for s in range(-g - 1, g + 1):
            v_small, v_big = c.v_hat(s).induced, c.v_hat(s + 1).induced
            assert models.image_intersection_rank(v_small, v_big) == f2.rank(v_small), (c.name, s)
            h_small, h_big = c.h_hat(s).induced, c.h_hat(s + 1).induced
            assert models.image_intersection_rank(h_small, h_big) == f2.rank(h_big), (c.name, s)
        # iso and vanishing thresholds
        assert models.is_iso(c.v_hat(g)), c.name
        assert models.is_iso(c.h_hat(-g)), c.name
        assert c.h_hat(g + 1).induced.is_zero(), c.name
        assert c.v_hat(-g - 1).induced.is_zero(), c.name
        # A-region homology stabilizes at b
        for s in (g, g + 1, -g, -g - 1):
            assert c.region_complex(s).homology.dim == b, (c.name, s)
        # top of the filtration support
        if g >= 1:
            assert models.single_point_region_rank(c) == c.hfk_hat(g) > 0, c.name
        # truncation stability: the tight window's rank is the full
        # boundary's on the symmetric windows of three levels from the bound
        slope = Slope(1, 1)
        bound = truncation_bound(c, slope)
        base = cone_rank_chain(c, slope)
        for level in (bound, bound + 1, bound + 3):
            full = full_boundary(build_cone(c, slope, level))
            assert full.cols - 2 * f2.rank(full) == base, (c.name, level)
        # the kernel construction at one slope
        cone = build_cone(c, slope)
        basis = kernel_basis_construction(c, slope)
        block = block_matrix(cone)
        block_kernel = cone.a_homology_dim - f2.rank(block)
        assert len(basis) == kernel_rank(c, slope) == block_kernel, c.name
        flattened = [flatten(cone, e) for e in basis]
        for vec in flattened:
            assert block.apply(vec) == 0, c.name
        stacked = f2.F2Matrix.from_columns(flattened, cone.a_homology_dim)
        assert f2.rank(stacked) == len(basis), c.name
    # a second slope on a sample of the corpus exercises q > 1 kernels
    for c in [builtin("t25")] + corpus()[::10]:
        slope = Slope(3, 2)
        cone = build_cone(c, slope)
        basis = kernel_basis_construction(c, slope)
        block_kernel = cone.a_homology_dim - f2.rank(block_matrix(cone))
        assert len(basis) == kernel_rank(c, slope) == block_kernel, c.name
    print("ACCEPTANCE 8 structural invariants: PASS")


def test_criterion_9_genus_detection():
    """Genus values on the built-ins and additivity under tensor."""
    expected = {
        "unknot": 0,
        "trefoil_rh": 1,
        "trefoil_lh": 1,
        "figure_eight": 1,
        "t25": 2,
        "t27": 3,
    }
    for name, genus in expected.items():
        assert builtin(name).genus() == genus, name
    squared = tensor(builtin("trefoil_rh"), builtin("trefoil_rh"))
    assert squared.genus() == 2
    print("ACCEPTANCE 9 genus detection: PASS")


def test_regions_built_stay_within_the_width_estimate(monkeypatch):
    """The width refusal of ``cfk`` weighs a complex as n**2 * k, k the
    Alexander classes meeting [0, top]: every route at every coprime
    p, q <= 8 and the containment check build at most k(c) + k(P) regions,
    P the essential summand, over the built-ins, their pairwise tensors
    and the fuzz corpus, and exactly that many on some of them."""
    built = []
    init = RegionComplex.__init__
    monkeypatch.setattr(RegionComplex, "__init__", lambda self, *args: built.append(self) or init(self, *args))

    def classes(c):
        gradings = c.columns[0][1]
        top = max(gradings)
        return 1 + len({cut for a in gradings for cut in (a, a + 1) if 0 < cut <= top})

    builtins = [builtin(name) for name in BUILTIN_NAMES]
    tensors = [tensor(a, b) for i, a in enumerate(builtins) for b in builtins[i + 1:]]
    tight = 0
    for c in builtins + tensors + corpus():
        del built[:]
        for slope in coprime_slopes(8, 8):
            for route in (cone_rank_chain, cone_rank_homological, rank_formula):
                route(c, slope)
        hypothesis_check(c)
        bound = classes(c) + classes(c.essential_summand)
        assert 0 < len(built) <= bound, (c.name, len(built), bound)
        tight += len(built) == bound
    assert tight > 0
