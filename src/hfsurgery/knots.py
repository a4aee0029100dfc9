"""Built-in complexes plus staircase, mirror, tensor and random constructors.

Chirality convention: the trefoil model whose v_hat(0) induces the zero
map on homology is labeled right-handed (so nu = 1 for trefoil_rh and
nu = 0 for trefoil_lh).
"""

from __future__ import annotations

import random

from .cfk import CfkComplex
from .records import Frozen, setters


class UnknownBuiltinError(ValueError):
    """No built-in complex has the requested name."""


# The most generators a RandomSpec may make: a dot is one generator and a
# box with its reflection at most eight.  10**5 generators build in about
# half a second at under 100 MB; 10**6 took 4.3 s at a 693 MB peak.
MAX_RANDOM_GENERATORS = 10**5


class RandomSpec(Frozen):
    """Seeded recipe for a direct sum of dots and flip-symmetric boxes.

    ``dots`` generators sit at Alexander grading 0 with zero differential.
    Each box draws side lengths up to ``max_side`` and an Alexander offset
    up to ``max_offset``; off-center or lopsided boxes are emitted together
    with their reflection so the whole complex always carries a flip.
    """

    __slots__ = __match_args__ = ("seed", "dots", "boxes", "max_side", "max_offset")

    def __init__(self, seed: int, dots: int = 1, boxes: int = 0, max_side: int = 2, max_offset: int = 2):
        if dots < 1:
            raise ValueError("need at least one dot generator")
        if boxes < 0 or max_side < 1 or max_offset < 0:
            raise ValueError("box parameters out of range")
        if (most := dots + 8 * boxes) > MAX_RANDOM_GENERATORS:
            raise ValueError(
                f"dots={dots} and boxes={boxes} may make {most} generators, "
                f"over the limit {MAX_RANDOM_GENERATORS}"
            )
        _set_seed(self, seed)
        _set_dots(self, dots)
        _set_boxes(self, boxes)
        _set_max_side(self, max_side)
        _set_max_offset(self, max_offset)


_set_seed, _set_dots, _set_boxes, _set_max_side, _set_max_offset = setters(RandomSpec)


def staircase(steps: list[int] | tuple[int, ...]) -> CfkComplex:
    """Staircase complex with the given steps, alternating horizontal and
    vertical, horizontal first; the list must read the same reversed.  The
    genus is the sum of the horizontal (odd-position) step lengths and
    b_rank is 1."""
    steps = tuple(steps)
    if len(steps) % 2:
        raise ValueError("staircase needs an even number of steps")
    if any(s < 1 for s in steps):
        raise ValueError("staircase steps must be positive")
    if steps[::-1] != steps:
        raise ValueError("staircase step list must be palindromic")
    n = len(steps) // 2
    name = "staircase-" + "-".join(map(str, steps)) if steps else "staircase-empty"
    genus = sum(steps[0::2])
    alex = [genus]
    for i in range(n):
        h, v = steps[2 * i], steps[2 * i + 1]
        alex.append(alex[-1] - h)   # b_{i+1}, reached by a horizontal step
        alex.append(alex[-1] - v)   # a_{i+1}, reached by a vertical step
    ids = [f"a{i // 2}" if i % 2 == 0 else f"b{(i + 1) // 2}" for i in range(2 * n + 1)]
    # b_i -> U^h a_(i-1), h the i-th horizontal step, and b_i -> a_i.
    terms = (
        [f"b{i}" for i in range(1, n + 1) for _ in range(2)],
        [f"a{j}" for i in range(1, n + 1) for j in (i - 1, i)],
        [k for h in steps[0::2] for k in (h, 0)],
    )
    flip = (
        [f"a{i}" for i in range(n + 1)] + [f"b{i}" for i in range(1, n + 1)],
        [f"a{n - i}" for i in range(n + 1)] + [f"b{n + 1 - i}" for i in range(1, n + 1)],
    )
    return CfkComplex((ids, alex, [None] * len(ids)), terms, flip, name)


def mirror(c: CfkComplex) -> CfkComplex:
    """The dual complex: arrows transposed, Alexander and Maslov gradings
    negated.

    Each term keeps its U power; the flip pairing carries over.  Applying
    mirror twice gives back the generators, gradings, differential and
    flip; only the name gains ``mirror(...)`` twice.
    """
    c.require_valid()
    (ids, alexander, maslov), (sources, targets, upowers), flip = c.columns
    return CfkComplex(
        (ids, [-a for a in alexander], [None if m is None else -m for m in maslov]),
        (targets, sources, upowers),
        flip,
        f"mirror({c.name})",
    )


def tensor(c1: CfkComplex, c2: CfkComplex) -> CfkComplex:
    """Tensor product complex (connected sum model).

    Generators are pairs with additive Alexander grading, and additive
    Maslov grading when both factors carry one (None otherwise); the
    differential follows the Leibniz rule (no signs over GF(2)) and the
    flip is the product of the two flips.
    """
    c1.require_valid()
    c2.require_valid()
    c1.require_flip()
    c2.require_flip()

    def pid(xs, ys) -> list[str]:
        return [f"{x}|{y}" for x in xs for y in ys]

    (ids1, a1, m1), (s1, t1, k1), _ = c1.columns
    (ids2, a2, m2), (s2, t2, k2), _ = c2.columns
    ids = pid(ids1, ids2)
    generators = (
        ids,
        [x + y for x in a1 for y in a2],
        [None if None in (x, y) else x + y for x in m1 for y in m2],
    )
    terms = (
        pid(s1, ids2) + pid(ids1, s2),
        pid(t1, ids2) + pid(ids1, t2),
        [k for k in k1 for _ in ids2] + [k for _ in ids1 for k in k2],
    )
    flip = pid([c1.flip_map[x] for x in ids1], [c2.flip_map[y] for y in ids2])
    return CfkComplex(generators, terms, (ids, flip), f"{c1.name}#{c2.name}")


def _box(prefix: str, m: int, n: int, offset: int):
    """One box: four generators spanning an m-by-n rectangle of arrows, as
    their ids, their Alexander gradings and the (sources, targets, upowers)
    columns of its terms.

    Corner 1 maps down to 2 (j drops by n) and across to 3 (i drops by m);
    2 and 3 both map to 4, closing the square.
    """
    p1, p2, p3, p4 = ids = [f"{prefix}{k}" for k in range(1, 5)]
    alexander = [offset, offset - n, offset + m, offset + m - n]
    terms = ([p1, p1, p2, p3], [p2, p3, p4, p4], [0, m, m, 0])
    return ids, alexander, terms


def random_complex(spec: RandomSpec) -> CfkComplex:
    """Deterministic dots-plus-boxes complex for the given spec.

    Always validates, b_rank equals the dot count, and identical specs
    produce byte-identical JSON.
    """
    rng = random.Random(spec.seed)
    ids = [f"e{i}" for i in range(spec.dots)]
    alex = [0] * spec.dots
    terms: tuple[list, list, list] = ([], [], [])
    flip = (ids[:], ids[:])
    for i in range(spec.boxes):
        m = rng.randint(1, spec.max_side)
        n = rng.randint(1, spec.max_side)
        offset = rng.randint(-spec.max_offset, spec.max_offset)
        boxes = [_box(f"b{i}", m, n, offset)]
        if m == n and offset == 0:
            pairs = [(f"b{i}1", f"b{i}1"), (f"b{i}2", f"b{i}3"), (f"b{i}4", f"b{i}4")]
        else:
            boxes.append(_box(f"c{i}", n, m, -offset))
            pairs = [(f"b{i}1", f"c{i}1"), (f"b{i}2", f"c{i}3"), (f"b{i}3", f"c{i}2"), (f"b{i}4", f"c{i}4")]
        for box_ids, box_alex, box_terms in boxes:
            ids += box_ids
            alex += box_alex
            for column, new in zip(terms, box_terms):
                column += new
        for column, new in zip(flip, zip(*pairs)):
            column += new
    name = f"random-s{spec.seed}-d{spec.dots}-x{spec.boxes}"
    return CfkComplex((ids, alex, [None] * len(ids)), terms, flip, name)


def _unknot() -> CfkComplex:
    return CfkComplex((["u"], [0], [None]), ([], [], []), (["u"], ["u"]), "unknot")


def _trefoil_rh() -> CfkComplex:
    return CfkComplex(
        (["a", "b", "c"], [1, 0, -1], [None] * 3),
        (["b", "b"], ["a", "c"], [1, 0]),
        (["a", "b"], ["c", "b"]),
        "trefoil_rh",
    )


def _trefoil_lh() -> CfkComplex:
    return mirror(_trefoil_rh()).renamed("trefoil_lh")


def _figure_eight() -> CfkComplex:
    """A unit box centred at Alexander grading 0, plus the dot e."""
    ids, alex, terms = _box("b", 1, 1, 0)
    return CfkComplex(
        (ids + ["e"], alex + [0], [None] * 5),
        terms,
        (["b1", "b2", "b4", "e"], ["b1", "b3", "b4", "e"]),
        "figure_eight",
    )


_BUILTINS = {
    "unknot": _unknot,
    "trefoil_rh": _trefoil_rh,
    "trefoil_lh": _trefoil_lh,
    "figure_eight": _figure_eight,
    "t25": lambda: staircase([1, 1, 1, 1]).renamed("t25"),
    "t27": lambda: staircase([1, 1, 1, 1, 1, 1]).renamed("t27"),
}

BUILTIN_NAMES = tuple(_BUILTINS)


def builtin(name: str) -> CfkComplex:
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise UnknownBuiltinError(
            f"unknown builtin {name!r}; available: {', '.join(BUILTIN_NAMES)}"
        ) from None
    return factory()
