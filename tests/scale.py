"""Checks at the scale where regressions show, run by ``test_scale.py``
each in a fresh process of its own, so that the peak resident memory they
are held to is theirs alone and never the test runner's.

``run`` starts ``python`` in such a process and reads its peak from
``os.wait4``; the Python checks run as ``run("-c", "import scale;
scale.big_cones()")`` and the CLI as ``run("-m", "hfsurgery", ...)``.
``RUNG`` names the builtins of the generator-count rung, whose tensors
``models.tensor_of`` builds.  ``big_cones``, ``wide_complexes`` and
``rung`` assert their checks, so a failed check exits the child with a
traceback.
"""

import os
import subprocess
import sys

from hfsurgery import f2
from hfsurgery.f2 import F2Matrix
from hfsurgery.knots import RandomSpec, builtin, random_complex, tensor
from hfsurgery.surgery import (
    MappingCone,
    Slope,
    compute_rank_report,
    cone_rank_chain,
    cone_rank_homological,
    kernel_rank,
    rank_formula,
)

from models import (
    assert_no_kernel_list,
    dot_and_box,
    dot_and_pair,
    full_form_sweep_step,
    kernel_basis_construction,
    recount_totals,
    side_block,
    sweep_table,
    tensor_of,
)

TESTS = os.path.dirname(os.path.abspath(__file__))
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join((os.path.join(os.path.dirname(TESTS), "src"), TESTS)))

# The generator-count rung: t25#t27#figure_eight#t25 has 875 generators
# and t25#t27#figure_eight#t27#figure_eight 6,125.
RUNG = (("t25", "t27", "figure_eight", "t25"), ("t25", "t27", "figure_eight", "t27", "figure_eight"))

# A child's ru_maxrss counts the peak of the process that started it,
# hundreds of MB for a test runner, so a bare interpreter starts each
# child, reaps it and prints its exit code and ru_maxrss as the last line.
LAUNCH = """import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def run(*args: str) -> tuple[int, str, float]:
    """Run ``python *args`` in a fresh child with src and tests on its
    path, and return its exit code, its stdout and its peak resident
    memory in MB, read from ``os.wait4`` (``ru_maxrss`` is in KiB on
    Linux).  The child gets none of this interpreter's -X or -W flags, so
    a debug allocator here moves no peak there.  Its pipe is closed and
    it is reaped before this returns."""
    with subprocess.Popen([sys.executable, "-c", LAUNCH, *args], stdout=subprocess.PIPE, text=True, env=ENV) as launcher:
        out = launcher.stdout.read()
    cut = out.rfind("\n", 0, -1) + 1
    code, peak_kib = map(int, out[cut:].split())
    return code, out[:cut], peak_kib / 1024


def big_cones() -> None:
    """All three routes agree at 5/3, 1/20, 1/2000 and 200001/1 on
    t25#t27#figure_eight, the kernel construction is complete up to
    20001/1 and at 1/2000, and each cone's four totals equal the
    column-by-column recount."""
    c = tensor_of("t25", "t27", "figure_eight")
    # 1/2000 is a cone of 7.7 million dimensions; the chain route's sweep
    # makes 4 transitions, each eliminated once, and the homological route
    # sweeps its induced block matrix the same way, in 7 (``TestSweep`` in
    # test_surgery.py pins the counts).  200001/1 has no HatB column: a cone
    # reads one HatA region per Alexander class, HatA(0..5) serving
    # the classes -5..5 with their mirrors and the HatB region its two
    # top classes share, and t sums one meet per segment between its
    # cuts instead of looping over p.  The homological route builds
    # HomologyBasis on the 175-generator regions.
    expected = {Slope(1, 20): 1999, Slope(1, 2000): 199999, Slope(200001, 1): 200083, Slope(5, 3): 295}
    for route in (cone_rank_chain, cone_rank_homological, rank_formula):
        for slope, want in expected.items():
            assert route(c, slope) == want, (route.__name__, slope)
    # The kernel walks read no window: each stops where its outgoing
    # image vanishes, past the genus g, so every column j lies in
    # -gq-p <= j < (g+1)q+p.  Each column reads v_hat and h_hat under
    # the Alexander class of j // q, so 20001/1 builds one region and
    # map of each kind per class, not per column.
    g = c.genus()
    for slope in (Slope(5, 3), Slope(1, 20), Slope(20001, 1)):
        basis = kernel_basis_construction(c, slope)
        p, q, want = slope.p, slope.q, kernel_rank(c, slope)
        assert all(-g * q - p <= j < (g + 1) * q + p for element in basis for j in element), slope
        assert len(basis) == want == {Slope(20001, 1): 20083}.get(slope, want), slope
    # The walks above stop at once, since each outgoing image is already
    # zero, so they never call f2.solve.  On trefoil_lh^3 at 1/2000 the
    # walks solve their way across 10,000 columns, each against one of a
    # few induced maps.
    t3 = tensor_of("trefoil_lh", "trefoil_lh", "trefoil_lh")
    assert len(kernel_basis_construction(t3, Slope(1, 2000))) == kernel_rank(t3, Slope(1, 2000)) == 40001
    # A cone reads its HatA sums from one memo entry per class-run table,
    # filled by the routes above, so each total is recounted column by
    # column, every column j reading HatA(j // q).
    for slope in (Slope(5, 3), Slope(1, 2000), Slope(200001, 1)):
        cone = MappingCone(c, slope)
        totals = (cone.total_dim, cone.boundary_rank, cone.a_homology_dim, cone.b_homology_dim)
        assert totals == recount_totals(cone), slope


def wide_complexes() -> None:
    """Both rank routes at 1/1, and the closed form against the chain
    route at 1/1 and 3/2, on a dot and one symmetric box of side n (5
    generators, rank 4n - 1 at 1/1 and 8n - 1 at 3/2) and a dot and two
    unit boxes at offsets +-n, paired as in random_complex (9 generators,
    rank 5 and 11)."""
    # Gradings 100000 apart: regions, maps and sweep steps are memoized
    # per Alexander class, so the cost follows the generator count, not
    # the size of the gradings.  t, nu and the closed form scan s one
    # Alexander class run at a time, so they too cost what 5 or 9
    # generators cost.
    n = 100000
    for c, wants in ((dot_and_box(n), (4 * n - 1, 8 * n - 1)), (dot_and_pair(n), (5, 11))):
        for route in (cone_rank_chain, cone_rank_homological):
            assert route(c, Slope(1, 1)) == wants[0], (c.name, route.__name__)
        for slope, want in zip((Slope(1, 1), Slope(3, 2)), wants):
            report = compute_rank_report(c, slope)
            assert report.oracle_rank == report.formula_rank == want, (c.name, slope)


def rung() -> None:
    """The rung ranks at 5/3, and a complex with b = 3 at 3/5, by all
    three routes, the genus and the chain route building no homology
    basis and no cycle basis; every region built, the essential summand's
    too, lies at or above its mirror class, holds no kernel list, nor does
    its homology basis, and has dim - rank(boundary) cycles, each one
    closed, and a coboundary table of rank(boundary) entries; HatB has dim - 2 rank(boundary) = b cocycle classes, each one
    closed under the transpose; and every sweep step equals the full
    form's, one of the b = 3 complex's carrying two or more rows."""
    # On a 2-core Xeon with Python 3.11.7 the chain route on 6,125
    # generators peaks at 56 MB; the homological route then reads the
    # 245-generator essential summand, and the checks below, the sweep
    # steps rebuilt from the full form among them, lift the peak to
    # 86 MB.  The rungs' sweep steps at 5/3 carry at most one row each,
    # so they cannot show an f2.rref cut misplaced by one column.  Three
    # dots tensored with both trefoils, 27 generators with b = 3, carries
    # up to three rows at 3/5, and there f2.rref(m, v_start + 1) and
    # f2.rref(m, v_start - 1) in _transition each change a step.
    cases = [(tensor_of(*names), Slope(5, 3), want) for names, want in zip(RUNG, (1363, 9247))]
    dots = random_complex(RandomSpec(seed=1, dots=3))
    cases.append((tensor(tensor(dots, builtin("trefoil_rh")), builtin("trefoil_lh")), Slope(3, 5), 69))
    # The genus and the chain route read HatB's cocycle classes and each
    # region's coboundary table, never a homology basis or a cycle basis,
    # so every basis built is counted, and one built before the
    # homological route fails, as does a region holding a kernel list.
    init, bases = f2.HomologyBasis.__init__, []

    def counting_init(self, *args):
        bases.append(self)
        init(self, *args)

    f2.HomologyBasis.__init__ = counting_init
    for c, slope, want in cases:
        del bases[:]
        c.genus()
        assert cone_rank_chain(c, slope) == want, c.name
        assert not bases, f"{c.name}: genus() and cone_rank_chain built {len(bases)} homology bases"
        regions = [r for key, r in c._memo.items() if isinstance(key, tuple) and key[0] == "region"]
        for r in regions:
            assert_no_kernel_list(r)
        assert cone_rank_homological(c, slope) == rank_formula(c, slope) == want, c.name
        # The homological route and the closed form read the essential
        # summand, the flip-invariant components with b > 0: 245 of the
        # 6,125 generators.  A class below its mirror class is served the
        # mirror's region and maps, with v and h swapped, so every region
        # built has a class at or above its mirror's.  No region or basis
        # keeps its kernel, so the check builds it by f2.kernel_basis, and
        # f2.rank eliminates the boundary's rows, so the count of cycles is
        # found independently too.
        regions = {
            id(r): (x, r)
            for x in (c, c.essential_summand)
            for key, r in x._memo.items()
            if isinstance(key, tuple) and key[0] == "region"
        }
        for x, r in regions.values():
            assert r.tag == x.top or x.alexander_class(-r.tag) <= r.tag, (x.name, r.tag)
            assert_no_kernel_list(r)
            cycles = f2.kernel_basis(r.boundary)
            assert len(cycles) == r.dim - f2.rank(r.boundary), (x.name, r.tag)
            assert (r.boundary @ F2Matrix.from_columns(cycles, r.dim)).is_zero(), (x.name, r.tag)
            assert len(r.coboundaries) == r.dim - len(cycles), (x.name, r.tag)
        # The chain route ranks HatB's boundary once and sweeps only the
        # rows of one cocycle per class of HatB's cohomology, so each
        # cocycle y is checked to be closed under the transpose,
        # boundary^T . y = 0, read as the row y . boundary = 0, and their
        # count to be dim - 2 rank(boundary), the rank found by f2.rank
        # again, and b, which the homological route reads.
        b = c.region_complex(c.top)
        assert len(b.cocycles) == b.dim - 2 * f2.rank(b.boundary) == c.b_rank(), c.name
        assert (F2Matrix(b.dim, b.cocycles) @ b.boundary).is_zero(), c.name
        # The sweep cuts f2.rref at the v block and back-substitutes only
        # the rows it carries, so every transition of the chain route's
        # table is rebuilt from its two side matrices' rows and the full
        # form: the pivot count less the carry's, and the reduced rows
        # whose pivot lies in the v block, shifted down to it.
        steps = list(sweep_table(c, "sweep").items())
        assert steps, c.name
        for (carry, h, v), entry in steps:
            assert entry == full_form_sweep_step(side_block(h, v), carry), (c.name, carry)
        assert c.b_rank() < 2 or max(len(entry[1]) for _, entry in steps) >= 2, c.name
