"""Cosmetic-surgery and knot-complement obstructions from total ranks.

Total hat-flavor rank is an invariant of the underlying unoriented
three-manifold, so equality of ranks never confirms anything: verdicts
are three-valued and "consistent" only means the obstruction failed to
fire.  Slope pairs with different p are settled by first homology alone
and never reach a rank computation.

The containment verdict and its error belong to ``surgery``, looked up on
the module at call time so that every caller reads the one verdict.
"""

from __future__ import annotations

import math

from . import surgery
from .cfk import CfkComplex
from .records import Frozen, setters
from .surgery import HypothesisReport, Slope, cone_rank_chain

OBSTRUCTED = "obstructed"
CONSISTENT = "consistent"
NOT_APPLICABLE = "not-applicable"


class ObstructionVerdict(Frozen):
    __slots__ = __match_args__ = ("kind", "slopes", "ranks", "verdict", "reason")

    def __init__(self, kind: str, slopes: tuple[str, ...], ranks: tuple[int, ...] | None, verdict: str, reason: str):
        _set_kind(self, kind)
        _set_slopes(self, slopes)
        _set_ranks(self, ranks)
        _set_verdict(self, verdict)
        _set_reason(self, reason)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "slopes": list(self.slopes),
            "ranks": list(self.ranks) if self.ranks is not None else None,
            "verdict": self.verdict,
            "reason": self.reason,
        }

    def __str__(self) -> str:
        ranks = "" if self.ranks is None else f" ranks={','.join(map(str, self.ranks))}"
        return f"verdict={self.verdict}{ranks} reason={self.reason}"


_set_kind, _set_slopes, _set_ranks, _set_verdict, _set_reason = setters(ObstructionVerdict)


def hypothesis_check(c: CfkComplex) -> HypothesisReport:
    """The containment verdict the closed form needs, from ``surgery``."""
    return surgery.hypothesis_verdicts(c)


def detect_unknot(c: CfkComplex) -> bool:
    """True exactly when every v_hat(s), s >= 0, is a homology isomorphism,
    that is, when the genus is zero."""
    return c.genus() == 0


def cosmetic_pair_check(c: CfkComplex, r: Slope, s: Slope) -> ObstructionVerdict:
    """Compare total surgery ranks at two distinct positive slopes."""
    if r == s:
        raise ValueError("cosmetic check needs two distinct slopes")
    c.require_valid()
    c.require_flip()
    ranks = None
    if r.p != s.p:
        verdict, reason = NOT_APPLICABLE, (
            f"first homology distinguishes the surgeries already "
            f"(orders differ by Z/{r.p} vs Z/{s.p}); no rank comparison needed"
        )
    else:
        rank_r, rank_s = ranks = (cone_rank_chain(c, r), cone_rank_chain(c, s))
        if rank_r != rank_s:
            verdict = OBSTRUCTED
            reason = f"total ranks differ ({rank_r} vs {rank_s}); the surgeries cannot be homeomorphic"
        else:
            if detect_unknot(c):
                caveat = "the complex is trivial, so equal ranks are expected at every slope"
            elif min(r.p / r.q, s.p / s.q) <= 1:
                caveat = (
                    "equal ranks at a slope <= 1 on a nontrivial complex would "
                    "contradict the cosmetic bound when the containment hypothesis holds"
                )
            else:
                caveat = "both slopes exceed 1, where the rank obstruction is silent"
            verdict, reason = CONSISTENT, f"total ranks agree ({rank_r}); {caveat}"
    return ObstructionVerdict("cosmetic", (str(r), str(s)), ranks, verdict, reason)


def complement_check(c: CfkComplex, q: int) -> ObstructionVerdict:
    """Compare the rank of 1/q surgery with the rank of the unsurgered manifold.

    ``Slope`` refuses q < 1 before any work."""
    slope = Slope(1, q)
    surgered = cone_rank_chain(c, slope)
    ambient = c.b_rank()
    if surgered != ambient:
        verdict, reason = OBSTRUCTED, (
            f"rank {surgered} at slope {slope} differs from the ambient rank {ambient}; "
            "the surgery cannot return the original manifold"
        )
    else:
        verdict = CONSISTENT
        reason = f"rank {surgered} at slope {slope} matches the ambient rank; no obstruction"
    return ObstructionVerdict("complement", (str(slope),), (surgered, ambient), verdict, reason)


def monotonicity_scan(c: CfkComplex, p: int, qmax: int) -> list[tuple[int, int]]:
    """Ranks at p/q for coprime q up to qmax.

    On the q >= p tail the list is nondecreasing, strictly increasing
    unless the complex is trivial; this requires the containment
    hypothesis, so it is checked up front.
    """
    if p < 1 or qmax < 1:
        raise ValueError("monotonicity scan needs positive p and qmax")
    surgery.require_hypothesis(c)
    return [
        (q, cone_rank_chain(c, Slope(p, q)))
        for q in range(1, qmax + 1)
        if math.gcd(p, q) == 1
    ]
