"""Elliptic conjugacy classes in PSL2(R): the exact solvability criterion
for class-triple products, and an independent floating-point verifier that
solves for a conjugator g = diag(e^s, e^-s) in closed form and re-verifies it
on the explicit 2x2 matrix product.

The exact test and the numeric search are deliberately kept apart: verdicts
come from exact rational arithmetic only, the numeric side exists to
cross-check them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ._kernels import backend
from .groups import InternalInconsistencyError

# Numeric verdicts: a class-parameter match within TOLERANCE counts, and sums
# of representatives within BOUNDARY_MARGIN of 1 or 2 get no verdict.
TOLERANCE = 1e-3
BOUNDARY_MARGIN = 0.02

Matrix = tuple[tuple[float, float], tuple[float, float]]


class InvalidAngleError(ValueError):
    pass


class NotEllipticError(ValueError):
    pass


class InconclusiveError(ValueError):
    """Sum of representatives too close to a boundary for the numeric
    search to be trustworthy."""


@dataclass(frozen=True, order=True)
class Angle:
    """Rational rotation parameter in [0, 1), exact."""

    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value) % 1)

    @classmethod
    def parse(cls, text: str) -> "Angle":
        try:
            return cls(Fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidAngleError(f"bad angle {text!r}: {exc}") from exc

    @property
    def rep(self) -> Fraction:
        """Representative in [0, 1)."""
        return self.value

    def __str__(self):
        return str(self.value)


def _reps_nonzero(a: Angle, b: Angle, c: Angle):
    reps = (a.rep, b.rep, c.rep)
    if any(x == 0 for x in reps):
        raise InvalidAngleError("angles must be nonzero")
    return reps


def orevkov_solvable(a: Angle, b: Angle, c: Angle) -> bool:
    """Whether the three elliptic classes multiply to the identity:
    true iff the sum of the (0,1) representatives avoids the open
    interval (1, 2).  Exact rational arithmetic."""
    ra, rb, rc = _reps_nonzero(a, b, c)
    s = ra + rb + rc
    return not (1 < s < 2)


def _rotation(turns: float) -> Matrix:
    t = math.pi * turns
    return ((math.cos(t), -math.sin(t)), (math.sin(t), math.cos(t)))


def _matmul(x: Matrix, y: Matrix) -> Matrix:
    return (
        (x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
        (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]),
    )


def _sl2_inverse(x: Matrix) -> Matrix:
    return ((x[1][1], -x[0][1]), (-x[1][0], x[0][0]))


def sigma_matrix(a: Angle) -> Matrix:
    """Rotation matrix with angle rep(a) * pi."""
    return _rotation(float(a.rep))


def class_of(w: Matrix) -> float:
    """Class parameter theta in (0, 1) of an elliptic matrix: normalize the
    sign so the lower-left entry is positive, then arccos(trace/2) / pi."""
    tr = w[0][0] + w[1][1]
    if abs(tr) >= 2:
        raise NotEllipticError(f"trace {tr} not in (-2, 2)")
    ll = w[1][0]
    if ll == 0:
        raise NotEllipticError("zero lower-left entry")
    if ll < 0:
        tr = -tr
    return math.acos(max(-1.0, min(1.0, tr / 2.0))) / math.pi


def numeric_conjugator(a: Angle, b: Angle, c: Angle) -> float | None:
    """A conjugator g = diag(e^s, e^-s), as s, for which
    sigma_a * g sigma_b g^-1 lies in the class inverse to c, or None when
    there is none.  The kernel solves the trace equation in closed form; its
    s is re-verified here on the explicit matrix product, independently of
    the exact criterion.  No rotation R(phi*pi) g is needed: it changes
    neither the trace nor the sign of the lower-left entry of an elliptic
    product."""
    ra, rb, rc = _reps_nonzero(a, b, c)
    total = ra + rb + rc
    if min(abs(float(total) - 1), abs(float(total) - 2)) < BOUNDARY_MARGIN:
        raise InconclusiveError(
            f"representative sum {total} within {BOUNDARY_MARGIN} of a boundary"
        )
    s = backend.grid_class_distance(float(ra), float(rb), float(rc))
    if s is None:
        return None
    g = ((math.exp(s), 0.0), (0.0, math.exp(-s)))
    p = _matmul(sigma_matrix(a), _matmul(g, _matmul(sigma_matrix(b), _sl2_inverse(g))))
    try:
        theta = class_of(_sl2_inverse(p))
    except NotEllipticError:
        theta = math.nan
    if not abs(theta - float(rc)) < TOLERANCE:
        raise InternalInconsistencyError(
            f"conjugator s={s} for {a}, {b}, {c} gives class {theta}, not {float(rc)}"
        )
    return s


def numeric_triple_solvable(a: Angle, b: Angle, c: Angle) -> bool:
    """Whether the numeric search finds a re-verified conjugator (see
    ``numeric_conjugator``)."""
    return numeric_conjugator(a, b, c) is not None
