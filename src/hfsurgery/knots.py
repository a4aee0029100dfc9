"""Built-in complexes plus staircase, mirror, tensor and random constructors.

Chirality convention: the trefoil model whose v_hat(0) induces the zero
map on homology is labeled right-handed (so nu = 1 for trefoil_rh and
nu = 0 for trefoil_lh).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .cfk import CfkComplex, DiffTerm, FlipPair, Generator


class UnknownBuiltinError(ValueError):
    """No built-in complex has the requested name."""


@dataclass(frozen=True)
class RandomSpec:
    """Seeded recipe for a direct sum of dots and flip-symmetric boxes.

    ``dots`` generators sit at Alexander grading 0 with zero differential.
    Each box draws side lengths up to ``max_side`` and an Alexander offset
    up to ``max_offset``; off-center or lopsided boxes are emitted together
    with their reflection so the whole complex always carries a flip.
    """

    seed: int
    dots: int = 1
    boxes: int = 0
    max_side: int = 2
    max_offset: int = 2

    def __post_init__(self):
        if self.dots < 1:
            raise ValueError("need at least one dot generator")
        if self.boxes < 0 or self.max_side < 1 or self.max_offset < 0:
            raise ValueError("box parameters out of range")


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
    gens = []
    for i in range(2 * n + 1):
        gid = f"a{i // 2}" if i % 2 == 0 else f"b{(i + 1) // 2}"
        gens.append(Generator(gid, alex[i]))
    terms = []
    for i in range(1, n + 1):
        h = steps[2 * (i - 1)]
        terms.append(DiffTerm(f"b{i}", f"a{i - 1}", h))
        terms.append(DiffTerm(f"b{i}", f"a{i}", 0))
    flip = [FlipPair(f"a{i}", f"a{n - i}") for i in range(n + 1)]
    flip += [FlipPair(f"b{i}", f"b{n + 1 - i}") for i in range(1, n + 1)]
    return CfkComplex(gens, terms, flip, name)


def mirror(c: CfkComplex) -> CfkComplex:
    """The dual complex: arrows transposed, Alexander and Maslov gradings
    negated.

    Each term keeps its U power; the flip pairing carries over.  Applying
    mirror twice gives back the generators, gradings, differential and
    flip; only the name gains ``mirror(...)`` twice.
    """
    c.require_valid()
    gens = [Generator(g.id, -g.alexander, None if g.maslov is None else -g.maslov)
            for g in c.generators]
    terms = [DiffTerm(t.target, t.source, t.upower) for t in c.differential]
    return CfkComplex(gens, terms, c.flip_pairs, f"mirror({c.name})")


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

    def pid(x: str, y: str) -> str:
        return f"{x}|{y}"

    gens = [
        Generator(pid(g1.id, g2.id), g1.alexander + g2.alexander,
                  None if None in (g1.maslov, g2.maslov) else g1.maslov + g2.maslov)
        for g1 in c1.generators
        for g2 in c2.generators
    ]
    terms = []
    for t in c1.differential:
        for g2 in c2.generators:
            terms.append(DiffTerm(pid(t.source, g2.id), pid(t.target, g2.id), t.upower))
    for g1 in c1.generators:
        for t in c2.differential:
            terms.append(DiffTerm(pid(g1.id, t.source), pid(g1.id, t.target), t.upower))
    flip = [
        FlipPair(pid(g1.id, g2.id), pid(c1.flip_map[g1.id], c2.flip_map[g2.id]))
        for g1 in c1.generators
        for g2 in c2.generators
    ]
    return CfkComplex(gens, terms, flip, f"{c1.name}#{c2.name}")


def _box(prefix: str, m: int, n: int, offset: int):
    """One box: four generators spanning an m-by-n rectangle of arrows.

    Corner 1 maps down to 2 (j drops by n) and across to 3 (i drops by m);
    2 and 3 both map to 4, closing the square.
    """
    a1 = offset
    gens = [
        Generator(f"{prefix}1", a1),
        Generator(f"{prefix}2", a1 - n),
        Generator(f"{prefix}3", a1 + m),
        Generator(f"{prefix}4", a1 + m - n),
    ]
    terms = [
        DiffTerm(f"{prefix}1", f"{prefix}2", 0),
        DiffTerm(f"{prefix}1", f"{prefix}3", m),
        DiffTerm(f"{prefix}2", f"{prefix}4", m),
        DiffTerm(f"{prefix}3", f"{prefix}4", 0),
    ]
    return gens, terms


def random_complex(spec: RandomSpec) -> CfkComplex:
    """Deterministic dots-plus-boxes complex for the given spec.

    Always validates, b_rank equals the dot count, and identical specs
    produce byte-identical JSON.
    """
    rng = random.Random(spec.seed)
    gens: list[Generator] = []
    terms: list[DiffTerm] = []
    flip: list[FlipPair] = []
    for i in range(spec.dots):
        gid = f"e{i}"
        gens.append(Generator(gid, 0))
        flip.append(FlipPair(gid, gid))
    for i in range(spec.boxes):
        m = rng.randint(1, spec.max_side)
        n = rng.randint(1, spec.max_side)
        offset = rng.randint(-spec.max_offset, spec.max_offset)
        g, t = _box(f"b{i}", m, n, offset)
        gens += g
        terms += t
        if m == n and offset == 0:
            flip += [
                FlipPair(f"b{i}1", f"b{i}1"),
                FlipPair(f"b{i}2", f"b{i}3"),
                FlipPair(f"b{i}4", f"b{i}4"),
            ]
        else:
            g, t = _box(f"c{i}", n, m, -offset)
            gens += g
            terms += t
            flip += [
                FlipPair(f"b{i}1", f"c{i}1"),
                FlipPair(f"b{i}2", f"c{i}3"),
                FlipPair(f"b{i}3", f"c{i}2"),
                FlipPair(f"b{i}4", f"c{i}4"),
            ]
    name = f"random-s{spec.seed}-d{spec.dots}-x{spec.boxes}"
    return CfkComplex(gens, terms, flip, name)


def _unknot() -> CfkComplex:
    return CfkComplex([Generator("u", 0)], [], [FlipPair("u", "u")], "unknot")


def _trefoil_rh() -> CfkComplex:
    return CfkComplex(
        [Generator("a", 1), Generator("b", 0), Generator("c", -1)],
        [DiffTerm("b", "a", 1), DiffTerm("b", "c", 0)],
        [FlipPair("a", "c"), FlipPair("b", "b")],
        "trefoil_rh",
    )


def _trefoil_lh() -> CfkComplex:
    return mirror(_trefoil_rh()).renamed("trefoil_lh")


def _figure_eight() -> CfkComplex:
    """A unit box centred at Alexander grading 0, plus the dot e."""
    gens, terms = _box("b", 1, 1, 0)
    return CfkComplex(
        gens + [Generator("e", 0)],
        terms,
        [
            FlipPair("b1", "b1"),
            FlipPair("b2", "b3"),
            FlipPair("b4", "b4"),
            FlipPair("e", "e"),
        ],
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
