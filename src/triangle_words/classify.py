"""Closed-form classification of when every group has the conjugate-power
lifting property for products (Burnside-type) and commutators (Honda-type)."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .groups import InternalInconsistencyError
from .residue import NotCoprimeError, UnitResidue, as_unit, crt_star


class Reason(enum.Enum):
    SUM_AT_LEAST_ONE = "SUM_AT_LEAST_ONE"
    R_IS_PM1 = "R_IS_PM1"
    RSTAR_IS_PM1 = "RSTAR_IS_PM1"
    NONE = "NONE"


def _check_reason(universal: bool, reason: Reason) -> None:
    if universal != (reason is not Reason.NONE):
        raise InternalInconsistencyError(
            f"verdict universal={universal} with reason {reason.value}"
        )


@dataclass(frozen=True)
class BurnsideVerdict:
    universal: bool
    reason: Reason

    def __post_init__(self):
        _check_reason(self.universal, self.reason)


@dataclass(frozen=True)
class HondaVerdict:
    universal: bool
    reason: Reason

    def __post_init__(self):
        _check_reason(self.universal, self.reason)


class InvalidRError(NotCoprimeError):
    pass


def _coerce(r, modulus: int) -> UnitResidue:
    try:
        return as_unit(r, modulus)
    except NotCoprimeError as exc:
        raise InvalidRError(str(exc)) from exc


def _is_pm1(r: UnitResidue) -> bool:
    return r.value == 1 or r.value == r.modulus - 1


def classify_burnside(k: int, l: int, m: int, r) -> BurnsideVerdict:
    """Universal iff 1/k + 1/l + 1/m >= 1 or r = +-1 mod lcm(k,l,m).

    Reasons follow the clause order of the characterization.
    """
    r = _coerce(r, math.lcm(k, l, m))
    if l * m + k * m + k * l >= k * l * m:
        return BurnsideVerdict(True, Reason.SUM_AT_LEAST_ONE)
    if _is_pm1(r):
        return BurnsideVerdict(True, Reason.R_IS_PM1)
    return BurnsideVerdict(False, Reason.NONE)


def classify_honda(k: int, m: int, r) -> HondaVerdict:
    """Universal iff 2/k + 1/m >= 1, or r = +-1, or gcd(k,m) <= 2 and the
    twisted residue r* = +-1 mod lcm(k,m)."""
    r = _coerce(r, math.lcm(k, m))
    if 2 * m + k >= k * m:
        return HondaVerdict(True, Reason.SUM_AT_LEAST_ONE)
    if _is_pm1(r):
        return HondaVerdict(True, Reason.R_IS_PM1)
    if math.gcd(k, m) <= 2 and _is_pm1(crt_star(k, m, r)):
        return HondaVerdict(True, Reason.RSTAR_IS_PM1)
    return HondaVerdict(False, Reason.NONE)


def classify_honda_via_burnside(k: int, m: int, r) -> HondaVerdict:
    """Same verdict as classify_honda, derived through the (k,k,m) product
    classification applied to r and, when gcd(k,m) <= 2, to r*."""
    r = _coerce(r, math.lcm(k, m))
    b = classify_burnside(k, k, m, r)
    if b.universal:
        return HondaVerdict(True, b.reason)
    if math.gcd(k, m) <= 2:
        bstar = classify_burnside(k, k, m, crt_star(k, m, r))
        if bstar.universal:
            # only reachable through the r* clause: the sum condition does
            # not depend on r
            return HondaVerdict(True, Reason.RSTAR_IS_PM1)
    return HondaVerdict(False, Reason.NONE)
