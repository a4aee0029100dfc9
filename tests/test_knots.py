"""Unit tests for the built-in models and constructors."""

import hashlib

import pytest

from hfsurgery.cfk import CfkComplex
from hfsurgery.knots import (
    BUILTIN_NAMES,
    MAX_RANDOM_GENERATORS,
    RandomSpec,
    UnknownBuiltinError,
    builtin,
    mirror,
    random_complex,
    staircase,
    tensor,
)

import models


def graded_trefoil() -> CfkComplex:
    """The right-handed trefoil with maslov gradings 2, 1, 0 on a, b, c."""
    data = models.to_json_dict(builtin("trefoil_rh"))
    for g, maslov in zip(data["generators"], (2, 1, 0)):
        g["maslov"] = maslov
    return CfkComplex.from_json_dict(data)


class TestBuiltin:
    def test_all_validate(self):
        for name in BUILTIN_NAMES:
            c = builtin(name)
            assert c.validate().ok, name
            assert c.name == name

    def test_unknot(self):
        c = builtin("unknot")
        assert len(c.columns[0][0]) == 1
        assert c.genus() == 0 and c.b_rank() == 1

    def test_trefoil_profile(self):
        c = builtin("trefoil_rh")
        assert [c.hfk_hat(s) for s in (-1, 0, 1)] == [1, 1, 1]
        assert c.genus() == 1

    def test_t25(self):
        c = builtin("t25")
        assert c.genus() == 2
        assert all(c.hfk_hat(s) == 1 for s in range(-2, 3))
        terms = set(zip(*c.columns[1]))
        assert ("b1", "a0", 1) in terms
        assert ("b1", "a1", 0) in terms
        assert ("b2", "a1", 1) in terms
        assert ("b2", "a2", 0) in terms

    def test_unknown_name(self):
        with pytest.raises(UnknownBuiltinError):
            builtin("granny")

    def test_chirality_convention(self):
        # right-handed: v_hat(0) induces zero; left-handed: it is onto
        assert builtin("trefoil_rh").v_hat(0).induced_rank == 0
        assert builtin("trefoil_lh").v_hat(0).induced_rank == 1


class TestStaircase:
    def test_two_steps_is_trefoil(self):
        c = staircase([1, 1])
        assert len(c.columns[0][0]) == 3
        assert c.genus() == 1 and c.b_rank() == 1

    def test_four_steps_is_t25(self):
        c = staircase([1, 1, 1, 1])
        assert len(c.columns[0][0]) == 5
        assert c.genus() == 2

    def test_empty_is_unknot(self):
        c = staircase([])
        assert len(c.columns[0][0]) == 1 and c.genus() == 0

    def test_longer_steps(self):
        c = staircase([2, 1, 1, 2])
        assert c.validate().ok
        assert c.genus() == 3  # horizontal steps 2 + 1
        assert c.b_rank() == 1

    def test_staircases_satisfy_containment_hypothesis(self):
        for steps in ([1, 1], [1, 1, 1, 1], [2, 1, 1, 2], [1, 2, 2, 1]):
            c = staircase(steps)
            assert c.b_rank() == 1
            assert all(ok for side in models.reference_verdicts(c) for ok in side.values()), steps

    def test_non_palindromic_rejected(self):
        with pytest.raises(ValueError):
            staircase((1, 2))

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            staircase((1, 1, 1))

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            staircase((0, 0))


class TestMirror:
    def test_unknot_fixed(self):
        m = mirror(builtin("unknot"))
        assert m.validate().ok
        assert m.hfk_profile() == builtin("unknot").hfk_profile()

    def test_trefoil_transpose(self):
        m = mirror(builtin("trefoil_rh"))
        assert m.validate().ok
        assert m.alexander == {"a": -1, "b": 0, "c": 1}
        # arrows reverse and keep their U powers
        assert set(zip(*m.columns[1])) == {("a", "b", 1), ("c", "b", 0)}

    def test_involution(self):
        # The builtins carry no maslov; a trefoil that does must keep it too.
        graded = graded_trefoil()
        for c in [builtin(name) for name in ("trefoil_rh", "figure_eight", "t25")] + [graded]:
            mm = mirror(mirror(c))
            again, data = models.to_json_dict(mm), models.to_json_dict(c)
            assert again["generators"] == data["generators"]
            assert again["differential"] == data["differential"]
        assert mirror(graded).columns[0][2] == [-2, -1, 0]

    def test_fig8_amphichiral_profile(self):
        c = builtin("figure_eight")
        m = mirror(c)
        assert m.hfk_profile() == c.hfk_profile()
        assert m.genus() == c.genus() == 1


class TestTensor:
    def test_unknot_is_unit(self):
        c = builtin("trefoil_rh")
        t = tensor(builtin("unknot"), c)
        assert t.validate().ok
        assert t.hfk_profile() == c.hfk_profile()
        assert t.genus() == c.genus() and t.b_rank() == c.b_rank()

    def test_trefoil_squared(self):
        t = tensor(builtin("trefoil_rh"), builtin("trefoil_rh"))
        assert t.validate().ok
        assert t.genus() == 2 and t.b_rank() == 1
        profile = t.hfk_profile()
        assert [profile.get(s, 0) for s in range(-2, 3)] == [1, 2, 3, 2, 1]

    def test_opposite_trefoils(self):
        t = tensor(builtin("trefoil_rh"), builtin("trefoil_lh"))
        assert t.validate().ok
        profile = t.hfk_profile()
        assert [profile.get(s, 0) for s in range(-2, 3)] == [1, 2, 3, 2, 1]
        assert t.genus() == 2

    def test_maslov_additive(self):
        # A factor without maslov, as every builtin is, leaves it unset.
        graded = graded_trefoil()
        square = tensor(graded, graded)
        assert square.columns[0][2] == [4, 3, 2, 3, 2, 1, 2, 1, 0]
        assert mirror(square).columns[0][2] == [-4, -3, -2, -3, -2, -1, -2, -1, 0]
        assert set(tensor(graded, builtin("trefoil_rh")).columns[0][2]) == {None}

    def test_genus_additive(self):
        pairs = [("trefoil_rh", "figure_eight"), ("t25", "trefoil_lh")]
        for n1, n2 in pairs:
            c1, c2 = builtin(n1), builtin(n2)
            assert tensor(c1, c2).genus() == c1.genus() + c2.genus()


class TestRandomComplex:
    def test_single_dot_is_unknot_like(self):
        c = random_complex(RandomSpec(seed=5, dots=1, boxes=0))
        assert c.genus() == 0 and c.b_rank() == 1

    def test_two_dots(self):
        c = random_complex(RandomSpec(seed=5, dots=2, boxes=0))
        assert c.b_rank() == 2
        for s in range(0, 3):
            assert models.is_iso(c.v_hat(s))

    def test_unit_box_matches_figure_eight_profile(self):
        c = random_complex(RandomSpec(seed=0, dots=1, boxes=1, max_side=1, max_offset=0))
        assert c.region_complex(0).homology.dim == 3
        assert c.b_rank() == 1

    def test_always_validates(self):
        for seed in range(60):
            spec = RandomSpec(seed=seed, dots=1 + seed % 3, boxes=seed % 4)
            c = random_complex(spec)
            assert c.validate().ok, (seed, str(c.validate()))
            assert c.b_rank() == spec.dots

    def test_reproducible_bytes(self):
        spec = RandomSpec(seed=123, dots=2, boxes=3)
        assert random_complex(spec).to_json() == random_complex(spec).to_json()

    def test_needs_a_dot(self):
        with pytest.raises(ValueError):
            RandomSpec(seed=0, dots=0)

    def test_at_the_generator_limit(self):
        c = random_complex(RandomSpec(seed=0, dots=MAX_RANDOM_GENERATORS))
        assert len(c.columns[0][0]) == MAX_RANDOM_GENERATORS
        # dots + 8 * boxes at the limit too: 8 dots and 12,499 boxes.
        assert RandomSpec(seed=0, dots=MAX_RANDOM_GENERATORS - 8 * 12499, boxes=12499).dots == 8

    def test_needs_nonnegative_boxes(self):
        with pytest.raises(ValueError, match="box parameters out of range"):
            RandomSpec(seed=0, boxes=-1)


# sha256 of to_json(), pinned so that a rewrite of a constructor must keep
# its output byte for byte.
BUILTIN_JSON_SHA256 = {
    "unknot": "4f6c5b57092457786026406fde8941a6c072ed90cd3b93a22e5c2aaf5ce9ad38",
    "trefoil_rh": "16b958f94f9db6782c51448b8444382550a867682bc35de8a899b52479d0e36d",
    "trefoil_lh": "30faa177d3c86c18424e0f2e878705ebc0a1fecc5b34e1f90fc49efb98995b4c",
    "figure_eight": "a8f083e0618107433098d2429b0da57d606d7eb49e5373d9d9c485afadf0045d",
    "t25": "514be5ed7f5e5094b88ceb468708937cc7e258876f901ac9b036ba21bd234d3c",
    "t27": "a222e005a3549e7a7b395756bba6b33bb1ede39f284528a0e8e0dcefa03cd5ca",
}

RANDOM_JSON_SHA256 = [
    (RandomSpec(seed=0), "a7fc8124e2d32dc08f556fe810631120d5d71f4344952d6d320f2fb1f3b4bfd0"),
    (
        RandomSpec(seed=7, dots=2, boxes=3),
        "120c00ef5578b2c1d22b015feecb7db72efec0d27c116e0e0c3e739a0f3327c1",
    ),
    (
        RandomSpec(seed=20240119, dots=1, boxes=4, max_side=2, max_offset=3),
        "065dd52137715ccb6d90870ce3e92c19e72a68962c01a51e702c0fdd5ea9b4d1",
    ),
    (
        RandomSpec(seed=42, dots=3, boxes=5, max_side=3, max_offset=2),
        "220e70d546f88919ec17aefe97c8e29ee44ff3b38ffdfc6afc2832e477ab1ea2",
    ),
]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_json_is_pinned(name):
    assert _sha256(builtin(name).to_json()) == BUILTIN_JSON_SHA256[name]


@pytest.mark.parametrize("spec, digest", RANDOM_JSON_SHA256)
def test_random_complex_json_is_pinned(spec, digest):
    assert _sha256(random_complex(spec).to_json()) == digest
