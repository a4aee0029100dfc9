"""Unit tests for the GF(2) linear algebra engine."""

import pytest
from hypothesis import given, settings, strategies as st

from hfsurgery import f2
from hfsurgery.cfk import FilteredChainMap, RegionComplex
from hfsurgery.f2 import (
    DimensionError,
    F2Matrix,
    HomologyBasis,
    InvalidComplexError,
    NotAChainMapError,
)

import models


def mat(rows, cols, entries):
    masks = [0] * rows
    for r, c in entries:
        masks[r] |= 1 << c
    return F2Matrix(cols, tuple(masks))


@pytest.mark.parametrize("cols, data", [(2, (0b100,)), (3, (0b1, -1)), (0, (1,))])
def test_row_mask_outside_column_range(cols, data):
    with pytest.raises(DimensionError, match="outside the column range"):
        F2Matrix(cols, data)


def _homology(d: F2Matrix) -> HomologyBasis:
    return HomologyBasis(d, *f2.column_elimination(d.transpose().data))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: F2Matrix(-1, ()), "column count must be nonnegative"),
        (lambda: F2Matrix(2, (1, 2)) @ F2Matrix(2, (1,)), "cannot multiply 2x2 by 1x2"),
        (lambda: F2Matrix(1, (1,)).hstack(F2Matrix(1, (1, 0))), "hstack needs equal row counts"),
        (lambda: f2.solve(F2Matrix(1, (1,)), 0b10), "target vector has bits outside the row range"),
        (
            lambda: models.image_intersection_basis(F2Matrix(1, (1,)), F2Matrix(1, (1, 0))),
            "image intersection needs equal row counts, got 1 and 2",
        ),
        (lambda: HomologyBasis(F2Matrix(2, (0,)), [], {}), "a differential must be square"),
        (
            lambda: f2.induced_map_on_homology(
                F2Matrix(2, (0,)), _homology(F2Matrix(1, (0,))), _homology(F2Matrix(1, (0,)))
            ),
            "chain map shape does not match the two complexes",
        ),
    ],
    ids=["negative-columns", "matmul", "hstack", "solve", "image-intersection", "homology", "induced"],
)
def test_shape_guards(call, message):
    # Each entry point refuses a matrix of the wrong shape before any work.
    with pytest.raises(DimensionError, match=message):
        call()


def test_row_masks_inside_column_range():
    assert F2Matrix(3, (0b111, 0)).data == (0b111, 0)
    assert F2Matrix(3, ()).rows == 0
    assert F2Matrix(0, (0,)).cols == 0


class TestRank:
    def test_zero(self):
        assert f2.rank(F2Matrix(3, (0, 0, 0))) == 0

    def test_identity(self):
        assert f2.rank(F2Matrix(3, (1, 2, 4))) == 3

    def test_all_ones(self):
        # the two rows are equal over GF(2)
        assert f2.rank(F2Matrix(2, (0b11, 0b11))) == 1

    def test_bounds(self):
        m = mat(2, 5, [(0, 0), (0, 3), (1, 1)])
        assert f2.rank(m) <= min(2, 5)


class TestKernel:
    def test_identity_has_trivial_kernel(self):
        assert f2.kernel_basis(F2Matrix(4, (1, 2, 4, 8))) == []

    def test_zero_matrix(self):
        basis = f2.kernel_basis(F2Matrix(2, (0, 0)))
        assert len(basis) == 2
        assert f2.rank(F2Matrix.from_columns(basis, 2)) == 2

    def test_all_ones(self):
        assert f2.kernel_basis(F2Matrix(2, (0b11, 0b11))) == [0b11]

    def test_members_annihilated(self):
        m = mat(3, 4, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 3)])
        basis = f2.kernel_basis(m)
        assert len(basis) == 4 - f2.rank(m)
        for vec in basis:
            assert m.apply(vec) == 0


class TestImageIntersection:
    def test_same_space(self):
        i2 = F2Matrix(2, (1, 2))
        assert models.image_intersection_rank(i2, i2) == 2

    def test_complementary_axes(self):
        e1 = F2Matrix.from_columns([0b01], 2)
        e2 = F2Matrix.from_columns([0b10], 2)
        assert models.image_intersection_rank(e1, e2) == 0

    def test_diagonal_line(self):
        # im (1,1) inside GF(2)^2 = {00, 11}; the full plane meets it in 1 dim.
        m1 = F2Matrix.from_columns([0b11], 2)
        m2 = F2Matrix(2, (1, 2))
        assert models.image_intersection_rank(m1, m2) == 1

    def test_row_mismatch(self):
        with pytest.raises(DimensionError):
            models.image_intersection_rank(F2Matrix(1, (0, 0)), F2Matrix(1, (0, 0, 0)))

    def test_basis_matches_rank(self):
        m1 = mat(3, 2, [(0, 0), (1, 0), (1, 1), (2, 1)])
        m2 = mat(3, 2, [(0, 0), (1, 0), (2, 1)])
        pairs = models.image_intersection_basis(m1, m2)
        assert len(pairs) == models.image_intersection_rank(m1, m2)
        # every basis vector m1 a is m2 b, so it lies in both column spaces
        basis = [m1.apply(a) for a, _ in pairs]
        for (a, b), vec in zip(pairs, basis):
            assert m2.apply(b) == vec
            for m in (m1, m2):
                assert f2.rank(m.hstack(F2Matrix.from_columns([vec], 3))) == f2.rank(m)
        assert f2.rank(F2Matrix.from_columns(basis, 3)) == len(basis)


class TestSolve:
    def test_consistent(self):
        m = F2Matrix(3, (0b011, 0b110))
        x = f2.solve(m, 0b11)
        assert x is not None and m.apply(x) == 0b11

    def test_inconsistent(self):
        assert f2.solve(F2Matrix(2, (0, 0)), 0b01) is None

    def test_zero_target(self):
        assert f2.solve(F2Matrix(3, (1, 2, 4)), 0) == 0


class TestHomologyBasis:
    def test_differential_must_square_to_zero(self):
        d = F2Matrix(2, (1, 2))
        with pytest.raises(InvalidComplexError):
            HomologyBasis(d, *f2.column_elimination(d.transpose().data))

    def test_segment(self):
        # d(e0) = e1 kills two of four dimensions
        d = mat(4, 4, [(1, 0)])
        assert HomologyBasis(d, *f2.column_elimination(d.transpose().data)).dim == 2

    @pytest.mark.parametrize("change", [lambda k: k[:-1], lambda k: k + k[:1]], ids=["few", "many"])
    def test_needs_exactly_one_cycle_per_kernel_dimension(self, change):
        # d(e0) = e1: rank 1, so a kernel basis has 4 - 1 = 3 cycles.
        d = mat(4, 4, [(1, 0)])
        cycles, image = f2.column_elimination(d.transpose().data)
        assert len(cycles) == 3
        with pytest.raises(DimensionError, match="need 3 cycles"):
            HomologyBasis(d, change(cycles), image)

    def test_coords_rejects_non_cycles(self):
        d = mat(2, 2, [(1, 0)])
        hb = HomologyBasis(d, *f2.column_elimination(d.transpose().data))
        with pytest.raises(ValueError):
            hb.coords(0b01)  # e0 is not a cycle

    def test_box_as_square_differential(self):
        # The four-generator box, one source, two middles, one sink, as an
        # ungraded 4x4 differential of rank 2: total homology vanishes.
        d = mat(4, 4, [(1, 0), (2, 0), (3, 1), (3, 2)])
        assert HomologyBasis(d, *f2.column_elimination(d.transpose().data)).dim == 0


class TestInducedMap:
    def test_identity_chain_map(self):
        d = mat(4, 4, [(1, 0)])
        hb = HomologyBasis(d, *f2.column_elimination(d.transpose().data))
        ind = f2.induced_map_on_homology(F2Matrix(4, (1, 2, 4, 8)), hb, hb)
        assert ind.data == tuple(1 << i for i in range(hb.dim))

    def test_zero_chain_map(self):
        d = mat(4, 4, [(1, 0)])
        hb = HomologyBasis(d, *f2.column_elimination(d.transpose().data))
        ind = f2.induced_map_on_homology(F2Matrix(4, (0, 0, 0, 0)), hb, hb)
        assert ind.is_zero()

    def test_non_chain_map_rejected(self):
        # FilteredChainMap is the one place that checks f∘∂ = ∂∘f.
        region = RegionComplex("segment", mat(2, 2, [(1, 0)]))
        assert repr(region) == "RegionComplex(segment, dim=2)"
        # The swap of the two elements, as an index map: element 0 goes to
        # element 1 and element 1 to element 0.
        with pytest.raises(NotAChainMapError):
            FilteredChainMap(region, region, (1, 0))
        # A projection is checked too: keeping element 0 alone drops the
        # boundary of element 0.
        with pytest.raises(NotAChainMapError):
            FilteredChainMap(region, region, (0, -1))
        # The identity index map applies as the identity, and so does the
        # map it induces: a segment and a lone element have one class.
        identity = FilteredChainMap(region, region, (0, 1))
        assert [identity.apply(vec) for vec in range(4)] == [0, 1, 2, 3]
        with_point = RegionComplex("segment+point", mat(3, 3, [(1, 0)]))
        assert FilteredChainMap(with_point, with_point, (0, 1, 2)).induced == F2Matrix(1, (1,))

    def test_index_map_guards(self):
        region = RegionComplex("segment", mat(2, 2, [(1, 0)]))
        with pytest.raises(DimensionError, match="index map has 1 entries for 2 elements"):
            FilteredChainMap(region, region, (0,))
        with pytest.raises(ValueError, match="sends elements 0 and 1 to 1"):
            FilteredChainMap(region, region, (1, 1))


small = st.integers(min_value=0, max_value=5)


@st.composite
def matrices(draw, rows=None, cols=None):
    r = draw(small) if rows is None else rows
    c = draw(small) if cols is None else cols
    data = tuple(draw(st.integers(0, (1 << c) - 1)) for _ in range(r))
    return F2Matrix(c, data)


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_rank_equals_transpose_rank(m):
    assert f2.rank(m) == f2.rank(m.transpose())


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_composition_rank_bound(data):
    a = data.draw(matrices())
    b = data.draw(matrices(rows=a.cols))
    assert f2.rank(a @ b) <= min(f2.rank(a), f2.rank(b))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_intersection_rank_identity(data):
    rows = data.draw(small)
    m1 = data.draw(matrices(rows=rows))
    m2 = data.draw(matrices(rows=rows))
    expected = f2.rank(m1) + f2.rank(m2) - f2.rank(m1.hstack(m2))
    assert models.image_intersection_rank(m1, m2) == expected
    pairs = models.image_intersection_basis(m1, m2)
    assert len(pairs) == expected
    # Each pair's two images agree, and those images are independent.
    images = [m1.apply(a) for a, _ in pairs]
    assert images == [m2.apply(b) for _, b in pairs]
    assert f2.rank(F2Matrix.from_columns(images, rows)) == expected


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_containment_by_joint_rank(data):
    # im m2 inside im m1 exactly when appending m2 adds no rank, and back.
    rows = data.draw(small)
    m1 = data.draw(matrices(rows=rows))
    m2 = data.draw(matrices(rows=rows))
    joint = f2.rank(m1.hstack(m2))
    meet = models.image_intersection_rank(m1, m2)
    assert (joint == f2.rank(m1)) == (meet == f2.rank(m2))
    assert (joint == f2.rank(m2)) == (meet == f2.rank(m1))


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_transpose_reads_rows_as_columns(m):
    t = m.transpose()
    assert t == F2Matrix.from_columns(m.data, m.cols)
    assert (t.rows, t.cols) == (m.cols, m.rows)
    assert all(t.data[c] >> r & 1 == m.data[r] >> c & 1 for r in range(m.rows) for c in range(m.cols))


@pytest.mark.parametrize("columns", [[0b01, 0b100], [0b01, -1]], ids=["wide", "negative"])
def test_from_columns_rejects_bits_outside_row_range(columns):
    with pytest.raises(DimensionError, match="outside the row range"):
        F2Matrix.from_columns(columns, 2)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_column_elimination_is_the_rref_kernel_and_the_transpose_table(data):
    # On rectangular matrices up to 12 x 12: the kernel of the one tracked
    # pass over the columns is the basis read off the reduced row-echelon
    # form, vector for vector, and its table is the pivot table of the
    # transpose's rows.
    rows, cols = data.draw(st.integers(0, 12)), data.draw(st.integers(0, 12))
    m = data.draw(matrices(rows=rows, cols=cols))
    kernel, image = f2.column_elimination(m.transpose().data)
    assert kernel == models.reference_kernel_basis(m)
    assert f2.kernel_basis(m) == kernel
    assert image == f2._eliminate(m.transpose().data)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_kernel_image_counts(data):
    m = data.draw(matrices())
    r = f2.rank(m)
    assert len(f2.kernel_basis(m)) == m.cols - r


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rref_is_reduced_echelon_form(data):
    m = data.draw(matrices())
    rows, pivots = f2.rref(m)
    r = len(pivots)
    assert len(rows) == r  # one row per pivot, no zero rows
    assert pivots == sorted(set(pivots))
    for i, p in enumerate(pivots):
        assert rows[i] & -rows[i] == 1 << p  # the pivot leads its row
        assert [(row >> p) & 1 for row in rows] == [int(k == i) for k in range(r)]
    # same row space: the reduced rows are independent and add nothing to m
    assert f2.rank(m) == r
    assert f2.rank(F2Matrix(m.cols, m.data + tuple(rows))) == r
    x = data.draw(st.integers(0, (1 << m.cols) - 1))
    y = f2.solve(m, m.apply(x))
    assert y is not None and m.apply(y) == m.apply(x)


def assert_rref_cuts_are_the_full_form_cut(m: F2Matrix, starts) -> None:
    """``rref(m, start)`` gives every pivot of the full form and, of its
    rows, exactly those whose pivot is at or above ``start``."""
    full_rows, full_pivots = f2.rref(m)
    assert f2.rref(m, 0) == (full_rows, full_pivots)
    for start in starts:
        rows, pivots = f2.rref(m, start)
        assert pivots == full_pivots
        assert rows == [row for row, p in zip(full_rows, full_pivots) if p >= start]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rref_cut_on_dense_matrices(data):
    # Every start from 0 to the column count, on matrices up to 12 x 12.
    rows, cols = data.draw(st.integers(0, 12)), data.draw(st.integers(0, 12))
    m = data.draw(matrices(rows=rows, cols=cols))
    assert_rref_cuts_are_the_full_form_cut(m, range(m.cols + 1))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_solve_matches_the_rref_reference(data):
    # A target in the column space and a random one, which is often not,
    # on matrices with 0 to 5 rows and columns.
    m = data.draw(matrices())
    x = data.draw(st.integers(0, (1 << m.cols) - 1))
    noise = data.draw(st.integers(0, (1 << m.rows) - 1))
    for target in (m.apply(x), noise):
        assert f2.solve(m, target) == models.reference_solve(m, target)


@pytest.mark.parametrize("m", [F2Matrix(0, ()), F2Matrix(3, ()), F2Matrix(0, (0, 0))], ids=["0x0", "0x3", "2x0"])
def test_solve_with_no_rows_or_no_columns(m):
    # Every target: only the zero one is reached, by the zero vector.
    for target in range(1 << m.rows):
        assert f2.solve(m, target) == models.reference_solve(m, target) == (0 if target == 0 else None)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rank_modulo_a_row_space_is_rank_on_the_kernel(data):
    # The chain route's split: a vector lies in the row space of m exactly
    # when it vanishes on ker m, so the rank of vectors modulo that row
    # space is the rank of their products with a kernel basis.
    m = data.draw(matrices())
    vecs = data.draw(st.lists(st.integers(0, (1 << m.cols) - 1), max_size=6))
    cycles = F2Matrix.from_columns(f2.kernel_basis(m), m.cols)
    on_kernel = F2Matrix(m.cols, tuple(vecs)) @ cycles
    r = f2.rank(m)
    for vec, form in zip(vecs, on_kernel.data):
        in_row_space = f2.rank(F2Matrix(m.cols, m.data + (vec,))) == r
        assert (form == 0) == in_row_space
    stacked = F2Matrix(m.cols, m.data + tuple(vecs))
    assert f2.rank(stacked) == r + f2.rank(on_kernel)


def reference_rank(rows: list[set[int]]) -> int:
    """Rank by elimination on sets of column indices, pivoting on the
    highest column: no bit masks, and the opposite pivot rule to ``f2``."""
    table: dict[int, set[int]] = {}
    for row in rows:
        row = set(row)
        while row:
            top = max(row)
            if top not in table:
                table[top] = row
                break
            row ^= table[top]
    return len(table)


@st.composite
def wide_sparse_rows(draw):
    """Rows of at most three entries, on columns spread over thousands of
    bits, with some rows the sum of two others, in a random order."""
    n = draw(st.integers(1, 12))
    columns = draw(st.lists(st.integers(0, 4000), min_size=n, max_size=n, unique=True))
    offset = draw(st.integers(0, 4000))
    rows = draw(st.lists(st.sets(st.integers(0, n - 1), max_size=3), min_size=1, max_size=12))
    for a, b in draw(st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), max_size=4)):
        rows.append(rows[a % len(rows)] ^ rows[b % len(rows)])
    rows = draw(st.permutations(rows))
    return [{offset + columns[c] for c in row} for row in rows]


@settings(max_examples=200, deadline=None)
@given(wide_sparse_rows())
def test_rank_of_wide_sparse_rows(rows):
    m = F2Matrix(8001, tuple(sum(1 << c for c in row) for row in rows))
    expected = reference_rank(rows)
    assert f2.rank(m) == expected
    assert f2.rank(m.transpose()) == expected


@settings(max_examples=200, deadline=None)
@given(wide_sparse_rows(), st.integers(0, 8001))
def test_rref_cut_on_wide_sparse_rows(rows, start):
    # The cut's answer changes only where start passes a pivot, so each
    # pivot and the column after it, both ends and one drawn start cover
    # every start from 0 to the column count.
    m = F2Matrix(8001, tuple(sum(1 << c for c in row) for row in rows))
    pivots = f2.rref(m)[1]
    starts = {0, m.cols, start, *pivots, *(p + 1 for p in pivots)}
    assert_rref_cuts_are_the_full_form_cut(m, sorted(starts))
