"""Exact arithmetic in unit groups of Z/nZ: the residue twist r -> r*,
coprime lifts, and the segment-permutation test."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from ._kernels import backend


class InvalidModulusError(ValueError):
    pass


class NotCoprimeError(ValueError):
    pass


class StarUndefinedError(ValueError):
    """gcd(k, m) > 2: the twist r -> r* does not exist."""


class InvalidSegmentError(ValueError):
    pass


class InternalInconsistencyError(RuntimeError):
    """A result guaranteed by the mathematics failed its own check, such as
    a witness that must exist and was not found."""


@dataclass(frozen=True, order=True)
class UnitResidue:
    """A unit of Z/nZ, stored as its least positive representative."""

    modulus: int
    value: int

    def __post_init__(self):
        if self.modulus < 2:
            raise InvalidModulusError(f"modulus must be >= 2, got {self.modulus}")
        v = self.value % self.modulus
        if math.gcd(v, self.modulus) != 1:
            raise NotCoprimeError(f"{self.value} is not a unit mod {self.modulus}")
        object.__setattr__(self, "value", v)

    def __int__(self) -> int:
        return self.value

    def __mul__(self, other: "UnitResidue") -> "UnitResidue":
        if self.modulus != other.modulus:
            raise InvalidModulusError("cannot multiply units of different moduli")
        return UnitResidue(self.modulus, self.value * other.value)

    def __neg__(self) -> "UnitResidue":
        return UnitResidue(self.modulus, -self.value)

    def inverse(self) -> "UnitResidue":
        return UnitResidue(self.modulus, pow(self.value, -1, self.modulus))


def as_unit(r, n: int) -> UnitResidue:
    """Coerce an int (or a UnitResidue, possibly of another modulus) to a
    unit mod n."""
    if isinstance(r, UnitResidue):
        r = r.value
    return UnitResidue(n, r)


def unit_group(n: int) -> set[UnitResidue]:
    """All units of Z/nZ."""
    if n < 2:
        raise InvalidModulusError(f"modulus must be >= 2, got {n}")
    return {UnitResidue(n, v) for v in range(1, n) if math.gcd(v, n) == 1}


@lru_cache(maxsize=None)
def _star_table(k: int, m: int) -> dict[tuple[int, int], int]:
    # One scan over [1, lcm(k,m)] builds the full map (x mod k, x mod m) -> x
    # and doubles as an existence/uniqueness check for every r at once.
    lcm = math.lcm(k, m)
    table: dict[tuple[int, int], int] = {}
    for x in range(1, lcm + 1):
        if math.gcd(x, lcm) != 1:
            continue
        key = (x % k, x % m)
        if key in table:
            raise InternalInconsistencyError(
                f"twist not unique for {key} mod ({k},{m})"
            )
        table[key] = x % lcm
    return table


def crt_star(k: int, m: int, r) -> UnitResidue:
    """The unique unit r* mod lcm(k,m) with r* = r (mod k) and r* = -r (mod m).

    Only defined when gcd(k, m) <= 2; otherwise the combined congruence has
    no solution for some r and we refuse outright.
    """
    if k < 2 or m < 2:
        raise InvalidModulusError("k and m must be >= 2")
    if math.gcd(k, m) > 2:
        raise StarUndefinedError(
            f"gcd({k},{m}) = {math.gcd(k, m)} > 2: r* is not defined"
        )
    lcm = math.lcm(k, m)
    r = as_unit(r, lcm)
    star = _star_table(k, m)[(r.value % k, (-r.value) % m)]
    return UnitResidue(lcm, star)


def lift_coprime(r: int, n: int, primes: Iterable[int]) -> int:
    """A representative r' of r mod n avoiding divisibility by the given
    primes: r' = r + n * prod{p in primes : p does not divide r}."""
    if math.gcd(r, n) != 1:
        raise NotCoprimeError(f"gcd({r},{n}) != 1")
    q = math.prod(p for p in set(primes) if r % p != 0)
    return r + n * q


def segment_perm_check(m: int, r, c: int) -> bool:
    """Whether {1,...,c} and {r, 2r, ..., cr} coincide as subsets of Z/mZ."""
    if m < 3:
        raise InvalidModulusError(f"m must be >= 3, got {m}")
    if not 1 <= c <= m - 2:
        raise InvalidSegmentError(f"need 1 <= c <= m-2, got c={c}, m={m}")
    r = as_unit(r, m)
    return backend.segment_perm_check(m, r.value, c)
