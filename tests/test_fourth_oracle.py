"""The fourth rank oracle for b = 1 on a grid.

``models.rank_os_b1`` is Ozsvath-Szabo's formula (arXiv math/0504404,
Prop. 9.6), read off the reference model with no cone and no block
matrix.  Every builtin and every pairwise tensor of the builtins has
b = 1, and at every coprime p, q <= 8 the formula equals both cone
routes.  The oracle's memo holds no complex it ranked once its caller
drops it.
"""

import gc
import itertools
import weakref

from hfsurgery.knots import BUILTIN_NAMES, builtin, tensor
from hfsurgery.surgery import Slope, cone_rank_chain, cone_rank_homological, coprime_slopes

import models


def test_rank_os_b1_equals_both_cone_routes_on_builtins_and_their_tensors():
    complexes = [builtin(name) for name in BUILTIN_NAMES]
    pairs = itertools.combinations_with_replacement(BUILTIN_NAMES, 2)
    complexes += [tensor(builtin(a), builtin(b)) for a, b in pairs]
    assert len(complexes) == 27
    slopes = coprime_slopes(8, 8)
    for c in complexes:
        assert c.b_rank() == 1, c.name
        for slope in slopes:
            want = models.rank_os_b1(c, slope).rank
            assert want == cone_rank_chain(c, slope) == cone_rank_homological(c, slope), (c.name, str(slope))


def test_a_complex_ranked_by_rank_os_b1_is_freed_once_dropped():
    c = tensor(builtin("trefoil_rh"), builtin("figure_eight"))
    first = models.rank_os_b1(c, Slope(3, 2))
    assert models.rank_os_b1(c, Slope(3, 2)) == first
    ref = weakref.ref(c)
    del c
    gc.collect()
    assert ref() is None
