"""The precondition policy, pinned at every public entry point.

Derived data is built only for a valid complex, and h-maps only for a
complex with a flip; ``cfk`` enforces both where the data is built.  An
invalid complex must raise InvalidComplexError everywhere, flip or not,
and so must a complex whose flip names a missing generator, leaves one
out or is not an involution: h-maps index HatB by the flip partner's
position, so reading one before the check would raise KeyError instead.
A valid complex without a flip must raise FlipRequiredError wherever an
h-map or a cone is read, and must still work wherever it is not.
The test references that the other tests read, the t case formula of
``models`` and the symmetric window and its bound of ``full_boundary``,
are held to the same policy, so that none of them gets round a check.
"""

import pytest

from hfsurgery import builtin, mirror
from hfsurgery.cfk import CfkComplex, FlipRequiredError
from hfsurgery.f2 import InvalidComplexError
from hfsurgery.obstructions import complement_check, cosmetic_pair_check, monotonicity_scan
from hfsurgery.surgery import (
    MappingCone,
    Slope,
    compute_rank_report,
    cone_rank_chain,
    cone_rank_homological,
    hypothesis_verdicts,
    kernel_rank,
    nu_surrogate,
    rank_formula,
    t_invariant,
)

import models
from models import kernel_basis_construction
from full_boundary import build_cone, truncation_bound

SLOPE = Slope(1, 2)

NEEDS_VALID = {
    "genus": lambda c: c.genus(),
    "b_rank": lambda c: c.b_rank(),
    "v_hat": lambda c: c.v_hat(0),
    "nu_surrogate": nu_surrogate,
    "rank_os_b1": lambda c: models.rank_os_b1(c, SLOPE),
    "truncation_bound": lambda c: truncation_bound(c, SLOPE),
    "hfk_profile": lambda c: c.hfk_profile(),
    "mirror": mirror,
}

NEEDS_FLIP = {
    "h_hat": lambda c: c.h_hat(0),
    "t_invariant": lambda c: t_invariant(c, SLOPE),
    "hypothesis_verdicts": hypothesis_verdicts,
    "rank_formula": lambda c: rank_formula(c, SLOPE),
    "kernel_rank": lambda c: kernel_rank(c, SLOPE),
    "kernel_basis_construction": lambda c: kernel_basis_construction(c, SLOPE),
    "compute_rank_report": lambda c: compute_rank_report(c, SLOPE),
    "build_cone": lambda c: build_cone(c, SLOPE),
    "MappingCone": lambda c: MappingCone(c, SLOPE),
    "cone_rank_chain": lambda c: cone_rank_chain(c, SLOPE),
    "cone_rank_homological": lambda c: cone_rank_homological(c, SLOPE),
    "complement_check": lambda c: complement_check(c, 2),
    "monotonicity_scan": lambda c: monotonicity_scan(c, 1, 3),
    "cosmetic_same_p": lambda c: cosmetic_pair_check(c, Slope(1, 1), Slope(1, 2)),
    "cosmetic_different_p": lambda c: cosmetic_pair_check(c, Slope(1, 1), Slope(2, 1)),
}

ENTRY_POINTS = {**NEEDS_VALID, **NEEDS_FLIP}


def bad_complex(valid: bool, flip: bool) -> CfkComplex:
    """The right-handed trefoil, with a term that drops neither filtration
    coordinate when ``valid`` is false, and without its flip when ``flip``
    is false.  It has b_rank 1, so nu is defined."""
    generators, terms, pairs = builtin("trefoil_rh").columns
    if not valid:
        terms = [column + [end] for column, end in zip(terms, ("a", "a", 0))]
    return CfkComplex(generators, terms, pairs if flip else None, "bad")


# Flips of the right-handed trefoil (a, b, c at A = 1, 0, -1) that fail
# validation, by the issue code they raise, as (sources, targets) columns.
BAD_FLIPS = {
    "flip-unknown": (["a", "b"], ["c", "z"]),
    "flip-involution": (["a", "c"], ["c", "b"]),
    "flip-missing": (["a"], ["c"]),
}


def warm(c: CfkComplex) -> None:
    """Fill the memo with everything that can be built without a flip, so
    that a memo hit cannot skip a check."""
    for call in NEEDS_VALID.values():
        try:
            call(c)
        except InvalidComplexError:
            pass


@pytest.mark.parametrize("warmed", [False, True], ids=["fresh", "warm"])
@pytest.mark.parametrize("flip", [True, False], ids=["flip", "flipless"])
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_invalid_complex_raises_everywhere(name, flip, warmed):
    c = bad_complex(valid=False, flip=flip)
    if warmed:
        warm(c)
    with pytest.raises(InvalidComplexError, match="complex 'bad' is invalid:\nreduced: "):
        ENTRY_POINTS[name](c)


@pytest.mark.parametrize("warmed", [False, True], ids=["fresh", "warm"])
@pytest.mark.parametrize("name", NEEDS_FLIP)
def test_flipless_complex_raises_where_h_is_read(name, warmed):
    c = bad_complex(valid=True, flip=False)
    if warmed:
        warm(c)
    with pytest.raises(FlipRequiredError, match="complex 'bad' has no flip involution"):
        NEEDS_FLIP[name](c)


@pytest.mark.parametrize("name", NEEDS_VALID)
def test_flipless_complex_works_without_h(name):
    NEEDS_VALID[name](bad_complex(valid=True, flip=False))


@pytest.mark.parametrize("warmed", [False, True], ids=["fresh", "warm"])
@pytest.mark.parametrize("defect", BAD_FLIPS)
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_bad_flip_raises_invalid_everywhere(name, defect, warmed):
    c = CfkComplex(*builtin("trefoil_rh").columns[:2], BAD_FLIPS[defect], "bad")
    if warmed:
        warm(c)
    with pytest.raises(InvalidComplexError, match="complex 'bad' is invalid:\n") as info:
        ENTRY_POINTS[name](c)
    assert f"\n{defect}: " in str(info.value)
