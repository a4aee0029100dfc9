"""Exact linear algebra over the two-element field.

Vectors are Python ints used as bit masks (bit ``i`` is coordinate ``i``)
and matrices keep one mask per row.  Arbitrary-precision ints give
word-packed XOR row operations for free, which is all the Gaussian
elimination here needs.  Everything is exact; there is no floating point
anywhere in this package.

An :class:`F2Matrix` is a frozen record of its column count and its row
masks, a slotted class on ``records.Frozen``, not a dataclass: every
sweep step builds one, and its constructor checks the masks and fills
its two slots through their setters.

There is one elimination loop, ``_eliminate``, which builds a pivot table
keyed on the bit position of each entry's lowest set bit, and two forms
of it: ``_reduce``, which reduces a row without adding it, and
``column_elimination``, which runs the loop over the column vectors it is
given and tracks which columns were added into each.  Rank is the table
size, the row-echelon form is the table after back-substitution, the
kernel is the tracked masks of the columns that vanish, a homology basis
extends the tracked loop's table, and every other routine here reads its
answer off one of these.  ``column_elimination`` takes the columns
themselves, not a matrix: ``kernel_basis``, ``solve`` and a region's
cycles pass a matrix's columns, ``m.transpose().data``, the one transpose
each makes, and ``solve`` appends its target as one more column.  ``cfk``
passes HatB's boundary rows, ``boundary.data``, which are the columns of
its transpose, and so reads with no transpose the cocycles and the pivot
table of the coboundaries, against which it reduces the cocycles to keep
one per cohomology class.  ``rref`` serves only the rank routes' sweep.

``kernel_basis`` and ``solve`` have no reader in the library: the rank
routes read kernels off ``column_elimination``.  They stay public because
the benchmark's tracer binds both by name, and the tests' kernel
construction of the induced block matrix reads them from this module at
call time.  ``F2Matrix.apply`` stays because
``induced_map_on_homology`` takes any map with ``apply``, and the dense
reference maps the tests pass it are ``F2Matrix`` objects.

``rref`` takes a cut, ``start``.  It returns every pivot, but it
back-substitutes and returns only the rows whose pivot is at or above
``start``: the reduced basis of the row space cut down to the vectors
with no bit below ``start``.  The sweep cuts at the v block, whose rows
are its next carry, and reads the rank as the pivot count.  Replaying
the 2,578 step matrices of one ``survey-fresh`` pass (seed 2301, 47,796
pivots, on a shared 2-core Intel Xeon with Python 3.11.7), the full form
plus keeping its rows past the cut took 38-46 ms, the cut form 18-22 ms
and bare ``_eliminate`` 11-14 ms, minima over three replays.  The cut
keeps the per-bit back-substitution, one XOR per pivot bit of the row as
it was before any XOR: the rows above hold no pivot bit but their own,
so recomputing ``row & pivot_mask`` after each XOR finds no new bit, and
it measured no faster on the same replay.

The table stores each entry shifted down by its key, so that bit 0 is
set, and the loop strips a row's trailing zeros after every XOR.  A step
therefore costs the row's span (highest set bit minus lowest), not its
highest bit: a sparse row far out in a wide matrix is as cheap as the
same row at the start of a narrow one.

``_reduce`` keeps its own copy of the loop, and the entries stay
shifted, on purpose.  The rank routes now eliminate only their distinct
sweep steps, so most eliminations are small, and both simpler forms were
measured slower there, in alternating pairs of 10 s ``perfbench`` runs on
a shared 2-core Intel Xeon with Python 3.11.7:

- ``_eliminate`` written as ``_reduce`` plus ``_insert`` per row, on the
  shifted storage, took ``survey-fresh`` ``wall_s`` from 0.587 to
  0.645 s (+10%, slower in 6 of 6 pairs, seeds 4501-4506; run again,
  0.565 -> 0.621 s, slower in 4 of 4, seeds 5601-5604);
- one unshifted loop keyed on bit positions, serving both, read
  ``survey-fresh`` ``wall_s`` +3.4% (slower in 7 of 8 pairs, seeds
  4601-4608) with ``peak_rss_mb`` 30.27 -> 30.67 MB (higher in 8 of 8),
  and ``scan-grid`` ``wall_s`` +4.2% (slower in 6 of 6, seeds 4701-4706).

``column_elimination`` keeps its own copy of the loop too, with its masks
in a dict of their own.  It replaced a row ``rref`` for the kernel and a
second elimination of the transpose for the homology, and the simpler
and the denser forms measured worse, on the same machine:

- one tracked loop serving ``_eliminate`` as well, so that every rank
  and ``rref`` tracks masks it then drops, read ``survey-fresh``
  ``wall_s`` 0.499 -> 0.511 s (+2.3%, slower in 8 of 10 pairs of 10 s
  runs, seeds 7101-7104 and 7111-7116) and ``scan-grid`` ``wall_s``
  +2.4% (slower in 6 of 10, seeds 7201-7204 and 7211-7216); replaying
  the row eliminations of one pass, the tracked loop took 0.070 s
  against 0.052 s on ``survey-fresh`` and 0.0083 s against 0.0063 s on
  ``scan-grid``;
- each mask packed into its entry, above the column's rows, made every
  entry as wide as the matrix and raised the peak RSS of ranking the
  6,125-generator tensor t25#t27#figure_eight#t27#figure_eight at 5/3
  from 163 to 180 MB.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Sequence

from .records import Frozen, setters


class DimensionError(ValueError):
    """Shapes of the operands do not line up."""


class InvalidComplexError(ValueError):
    """Boundary maps fail the square-zero axiom."""


class NotAChainMapError(ValueError):
    """A map does not commute with the boundary maps."""


def bits(mask: int):
    """Yield the positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class F2Matrix(Frozen):
    """A matrix over GF(2) with bit-packed rows, a frozen record of
    ``cols`` and ``data``.

    ``data[r]`` has bit ``c`` set exactly when entry ``(r, c)`` is 1, so a
    row mask doubles as the row vector and XOR is row addition.
    """

    __slots__ = __match_args__ = ("cols", "data")

    def __init__(self, cols: int, data: tuple[int, ...]):
        if cols < 0:
            raise DimensionError("column count must be nonnegative")
        # One C-level pass each for min and max, not one comparison per row.
        if data and (min(data) < 0 or max(data) >> cols):
            raise DimensionError("row mask has bits outside the column range")
        _set_cols(self, cols)
        _set_data(self, data)

    @property
    def rows(self) -> int:
        return len(self.data)

    @classmethod
    def from_columns(cls, col_masks: Sequence[int], rows: int) -> "F2Matrix":
        masks = [0] * rows
        unit = 1
        for col in col_masks:
            # One check per column; a negative mask shifts to -1, not 0.
            if col >> rows:
                raise DimensionError("column mask has bits outside the row range")
            # The loop of ``bits`` inlined, as in ``__matmul__``.
            while col:
                low = col & -col
                masks[low.bit_length() - 1] |= unit
                col ^= low
            unit <<= 1
        return cls(len(col_masks), tuple(masks))

    def transpose(self) -> "F2Matrix":
        """The rows of this matrix, read as the columns of the result."""
        return F2Matrix.from_columns(self.data, self.cols)

    def apply(self, vec: int) -> int:
        """Multiply by a column vector given as a bit mask over the columns."""
        out = 0
        for r in range(self.rows):
            out |= ((self.data[r] & vec).bit_count() & 1) << r
        return out

    def __matmul__(self, other: "F2Matrix") -> "F2Matrix":
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        # The loop of ``bits`` inlined: most rows of a region's boundary hold
        # one or two bits.
        masks = []
        for row in self.data:
            acc = 0
            while row:
                low = row & -row
                acc ^= other.data[low.bit_length() - 1]
                row ^= low
            masks.append(acc)
        return F2Matrix(other.cols, tuple(masks))

    def hstack(self, other: "F2Matrix") -> "F2Matrix":
        if self.rows != other.rows:
            raise DimensionError("hstack needs equal row counts")
        masks = tuple(a | (b << self.cols) for a, b in zip(self.data, other.data))
        return F2Matrix(self.cols + other.cols, masks)

    def is_zero(self) -> bool:
        return all(mask == 0 for mask in self.data)


_set_cols, _set_data = setters(F2Matrix)


def _eliminate(rows: Iterable[int]) -> dict[int, int]:
    """Pivot table of ``rows``, keyed on the position of lowest set bits.

    Each row is reduced by the entry owning its lowest set bit until it
    vanishes or that bit is free, and then owns that bit.  An entry is
    stored shifted down by its key, so bit 0 is set and the int is only as
    wide as the row's span; every step strips the row's trailing zeros, so
    it costs the span too.  Shifted back, the entries are independent and
    span the rows.
    """
    table: dict[int, int] = {}
    for row in rows:
        pos = 0
        while row:
            low = (row & -row).bit_length() - 1
            row >>= low
            pos += low
            pivot = table.get(pos)
            if pivot is None:
                table[pos] = row
                break
            row ^= pivot
    return table


def _reduce(table: dict[int, int], row: int) -> int:
    """The elimination loop of :func:`_eliminate`, without adding the row.

    Returns the reduced row, unshifted; it is zero exactly when ``row``
    lies in the span of the table.
    """
    pos = 0
    while row:
        low = (row & -row).bit_length() - 1
        row >>= low
        pos += low
        pivot = table.get(pos)
        if pivot is None:
            break
        row ^= pivot
    return row << pos


def _insert(table: dict[int, int], row: int) -> None:
    """Store a nonzero row that :func:`_reduce` returned, shifted down,
    under its lowest set bit, which no entry owns yet."""
    low = (row & -row).bit_length() - 1
    table[low] = row >> low


def rank(m: F2Matrix) -> int:
    """GF(2) rank: the size of the pivot table of the rows."""
    return len(_eliminate(m.data))


def rref(m: F2Matrix, start: int = 0) -> tuple[list[int], list[int]]:
    """Reduced row-echelon form, cut at column ``start``.

    Returns ``(rows, pivot_cols)``: every pivot column index in ascending
    order, and one reduced row mask for each pivot at or above ``start``,
    in the same order, so the rows pair with the last ``len(rows)``
    pivots.  Those rows are the reduced basis of the row space cut down to
    the vectors with no bit below ``start``; with ``start=0`` they are the
    whole form.  The form is unique, so it does not depend on how the
    pivot table was built.
    """
    table = _eliminate(m.data)
    pivots = sorted(table)
    kept = pivots[bisect_left(pivots, start):]
    rows = {p: table[p] << p for p in kept}
    # Back-substitution from the highest pivot down: every row reduced so
    # far holds no pivot bit but its own, so one XOR clears each pivot bit.
    # A row has no bit below its pivot, so only higher pivots reach it and
    # the rows below ``start`` are never needed.
    pivot_mask = 0
    for p in reversed(kept):
        for q in bits(rows[p] & pivot_mask):
            rows[p] ^= rows[q]
        pivot_mask |= 1 << p
    return [rows[p] for p in kept], pivots


def column_elimination(columns: Sequence[int]) -> tuple[list[int], dict[int, int]]:
    """The kernel and the pivot table of the column vectors ``columns``,
    from one elimination of them.

    The columns are eliminated, in the order given, by the loop of
    :func:`_eliminate`, each carrying, in an int of its own, the mask of
    the columns added into it.  The table is therefore
    ``_eliminate(columns)``, the pivot table of their span.  A column that
    vanishes gives its mask as a kernel vector: its own bit plus earlier
    pivot columns, since every stored mask holds only pivot columns.  For
    the columns of a matrix m, ``m.transpose().data``, that vector is
    unique, so the kernel is the one basis of m's right kernel that the
    reduced row-echelon form gives, one vector per free column in
    ascending order, and there are ``cols - rank(m)`` of them.
    """
    table: dict[int, int] = {}
    combos: dict[int, int] = {}
    kernel: list[int] = []
    unit = 1
    for col in columns:
        combo = unit
        unit <<= 1
        pos = 0
        while col:
            low = (col & -col).bit_length() - 1
            col >>= low
            pos += low
            pivot = table.get(pos)
            if pivot is None:
                table[pos] = col
                combos[pos] = combo
                break
            col ^= pivot
            combo ^= combos[pos]
        else:
            kernel.append(combo)
    return kernel, table


def kernel_basis(m: F2Matrix) -> list[int]:
    """Deterministic basis of the right kernel, as masks over the columns:
    the kernel of :func:`column_elimination` of m's columns.  Each vector
    is a free column's own bit plus earlier pivot columns, in ascending
    order of the free column, and each is annihilated by ``m``."""
    return column_elimination(m.transpose().data)[0]


def solve(m: F2Matrix, target: int) -> int | None:
    """One solution ``x`` of ``m x = target``, or None when there is none.

    Read off :func:`column_elimination` of the columns of ``m`` with the
    target appended as one more: ``m x = target`` exactly when ``x`` plus
    the target's own bit is in the kernel.  The target column vanishes
    exactly when it lies in the column space, and its kernel vector, the
    last one, then holds the target's bit and pivot columns only, so the
    solution is that vector less the target's bit: the unique one
    supported on the pivot columns, with the free coordinates zero.
    """
    if target < 0 or target >> m.rows:
        raise DimensionError("target vector has bits outside the row range")
    n = m.cols
    kernel = column_elimination((*m.transpose().data, target))[0]
    if kernel and kernel[-1] >> n:
        return kernel[-1] ^ (1 << n)
    return None


class HomologyBasis:
    """A deterministic basis of ker(d) / im(d) for one square differential.

    ``cycles`` and ``image`` are what :func:`column_elimination` gives for
    d's columns: a basis of ker(d) as column masks and the pivot table of
    im(d), the span of those columns.  The basis takes the table over and extends it,
    so d is eliminated only by that one call.  The chosen representatives
    are cycles that extend a basis of the boundary space, picked greedily
    in the order given.  ``coords`` expresses any cycle in the chosen
    basis, which is what makes induced-map matrices reproducible.
    """

    def __init__(self, differential: F2Matrix, cycles: Sequence[int], image: dict[int, int]):
        if differential.rows != differential.cols:
            raise DimensionError("a differential must be square")
        if not (differential @ differential).is_zero():
            raise InvalidComplexError("differential does not square to zero")
        self.differential = differential
        n = differential.cols
        self._cycle_mask = (1 << n) - 1
        # A table row is a cycle in its low n bits and, above them, the
        # representatives it is congruent to modulo the boundary space.
        # Boundary rows carry no representative, and every key is below
        # bit n, so a row reduced to zero in its low part stops reducing.
        self._table = image
        # The table's size is rank(d), so a kernel basis has n - rank(d) vectors.
        if len(cycles) != n - len(self._table):
            raise DimensionError(f"need {n - len(self._table)} cycles, got {len(cycles)}")
        reps: list[int] = []
        for cycle in cycles:
            row = _reduce(self._table, cycle)
            if row & self._cycle_mask:
                row ^= 1 << (n + len(reps))
                _insert(self._table, row)
                reps.append(cycle)
        self.reps: tuple[int, ...] = tuple(reps)
        self.dim: int = len(reps)

    def coords(self, vec: int) -> int:
        """Coordinates of the class of ``vec`` in the chosen basis."""
        row = _reduce(self._table, vec)
        if vec & ~self._cycle_mask or row & self._cycle_mask:
            raise ValueError("vector is not a cycle of this differential")
        return row >> self.differential.cols


def induced_map_on_homology(
    f: F2Matrix, source: HomologyBasis, target: HomologyBasis
) -> F2Matrix:
    """Matrix of the map induced by the chain map ``f`` on homology.

    ``f`` is any linear map with ``rows``, ``cols`` and ``apply(vec)``: an
    :class:`F2Matrix`, or a ``cfk.FilteredChainMap``, which applies itself
    by its generator index map instead of a loop over rows.  Each homology
    representative is applied once.  ``f`` must commute with the stored
    differentials; the caller checks that (``cfk.FilteredChainMap`` does,
    where chain maps are built).  The matrix is taken with respect to the
    bases chosen by the two :class:`HomologyBasis` objects, so its rank and
    kernel dimension are basis-independent invariants of the map.
    """
    if f.cols != source.differential.cols or f.rows != target.differential.cols:
        raise DimensionError("chain map shape does not match the two complexes")
    col_masks = [target.coords(f.apply(rep)) for rep in source.reps]
    return F2Matrix.from_columns(col_masks, target.dim)
