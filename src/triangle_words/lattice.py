"""The finite lattice H = (1/k Z/Z) + (1/l Z/Z) + (1/m Z/Z) inside (R/Z)^3:
region membership for the open simplex and its negative, the zero-sum set,
multiplier sets, and fiber counts.

All comparisons are exact integer arithmetic after clearing denominators
by k*l*m; floating point never enters this module.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from ._kernels import backend
from .residue import InternalInconsistencyError, UnitResidue, as_unit, unit_group


class InvalidFiberError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class TriangleSignature:
    k: int
    l: int
    m: int

    def __post_init__(self):
        if min(self.k, self.l, self.m) < 2:
            raise ValueError(f"signature entries must be >= 2, got {self}")

    @property
    def lcm(self) -> int:
        return math.lcm(self.k, self.l, self.m)

    def is_spherical(self) -> bool:
        # 1/k + 1/l + 1/m > 1
        k, l, m = self.k, self.l, self.m
        return l * m + k * m + k * l > k * l * m

    def is_hyperbolic(self) -> bool:
        k, l, m = self.k, self.l, self.m
        return l * m + k * m + k * l < k * l * m


@dataclass(frozen=True, order=True)
class LatticePoint:
    """(a/k, b/l, c/m) with components reduced modulo k, l, m."""

    signature: TriangleSignature
    a: int
    b: int
    c: int

    def __post_init__(self):
        sig = self.signature
        object.__setattr__(self, "a", self.a % sig.k)
        object.__setattr__(self, "b", self.b % sig.l)
        object.__setattr__(self, "c", self.c % sig.m)

    def scaled(self, r) -> "LatticePoint":
        r = int(r) if isinstance(r, UnitResidue) else r
        return LatticePoint(self.signature, r * self.a, r * self.b, r * self.c)


class RegionTag(enum.Enum):
    S = "S"
    NEG_S = "-S"
    T = "T"
    NONE = "none"


def region_of(p: LatticePoint) -> RegionTag:
    """Classify a point as lying in the open simplex (S), its negative,
    the zero-sum set (T), or none of these.

    Points with a zero coordinate are never in S, -S or T.
    """
    if p.a == 0 or p.b == 0 or p.c == 0:
        return RegionTag.NONE
    k, l, m = p.signature.k, p.signature.l, p.signature.m
    klm = k * l * m
    w = p.a * l * m + p.b * k * m + p.c * k * l  # sum of coords, times klm
    if w % klm == 0:
        return RegionTag.T
    if w < klm:
        return RegionTag.S
    if w > 2 * klm:
        return RegionTag.NEG_S
    return RegionTag.NONE


def all_points(sig: TriangleSignature):
    """All of H, in lexicographic (a, b, c) order."""
    for a in range(sig.k):
        for b in range(sig.l):
            for c in range(sig.m):
                yield LatticePoint(sig, a, b, c)


def bset_points(sig: TriangleSignature) -> list[LatticePoint]:
    """Points of H tagged S, -S or T; these correspond bijectively to the
    class triples of torsion elements of PSL2(R) multiplying to 1."""
    return [p for p in all_points(sig) if region_of(p) is not RegionTag.NONE]


def multiplier_set(sig: TriangleSignature) -> set[UnitResidue]:
    """Units r mod lcm(k,l,m) with r * (H n (S u -S)) = H n (S u -S),
    by testing every unit on the points of H n S, enumerated fiber by
    fiber."""
    lcm = sig.lcm
    return {
        UnitResidue(lcm, r) for r in backend.multiplier_units(sig.k, sig.l, sig.m)
    }


def n_set(k: int, m: int) -> set[UnitResidue]:
    """Units r mod lcm(k,m) for which (a,b,c) -> (-ra, ra, rc) preserves the
    tagged part of H for the signature (k, k, m).

    Computed directly by enumeration, and cross-checked against the closed
    criterion: the full unit group when the tagged set is empty, the empty
    set otherwise.
    """
    sig = TriangleSignature(k, k, m)
    tagged = bset_points(sig)
    tagged_set = set(tagged)
    lcm = math.lcm(k, m)
    direct = set()
    for r in unit_group(lcm):
        rv = r.value
        if all(
            LatticePoint(sig, -rv * p.a, rv * p.a, rv * p.c) in tagged_set
            for p in tagged
        ):
            direct.add(r)
    shortcut = unit_group(lcm) if not tagged else set()
    if direct != shortcut:
        raise InternalInconsistencyError(f"n_set mismatch for (k,m)=({k},{m})")
    return direct


def fiber_count(sig: TriangleSignature, a: int, b: int) -> tuple[int, int]:
    """Number of third coordinates z with (a/k, b/l, z) in the open simplex,
    both enumerated and in closed form ceil(m - am/k - bm/l) - 1.

    The two values are checked equal and returned as a pair.
    """
    k, l, m = sig.k, sig.l, sig.m
    if not (0 < a < k and 0 < b < l and a * l + b * k < k * l):
        raise InvalidFiberError(f"invalid fiber base (a={a}, b={b}) for {sig}")
    counted = sum(
        1 for c in range(1, m) if region_of(LatticePoint(sig, a, b, c)) is RegionTag.S
    )
    # ceil((mkl - alm - bkm) / kl) - 1, exactly
    num = m * k * l - a * l * m - b * k * m
    formula = -((-num) // (k * l)) - 1
    if counted != formula:
        raise InternalInconsistencyError(
            f"fiber count mismatch for {sig}, a={a}, b={b}"
        )
    return counted, formula
