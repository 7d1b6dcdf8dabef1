"""Unit tests for the elliptic-class module: exact solvability, matrix
class parameters, and the numeric conjugator search."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from triangle_words.psl2 import (
    BOUNDARY_MARGIN,
    TOLERANCE,
    Angle,
    InconclusiveError,
    InvalidAngleError,
    NotEllipticError,
    class_of,
    numeric_conjugator,
    numeric_triple_solvable,
    orevkov_solvable,
    sigma_matrix,
)

IDENTITY = ((1.0, 0.0), (0.0, 1.0))


def A(p, q=None):
    return Angle(Fraction(p, q) if q else Fraction(p))


def mat_mul(*ms):
    out = IDENTITY
    for m in ms:
        out = tuple(
            tuple(sum(out[i][k] * m[k][j] for k in range(2)) for j in range(2))
            for i in range(2)
        )
    return out


def mat_inv(m):
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return ((m[1][1] / det, -m[0][1] / det), (-m[1][0] / det, m[0][0] / det))


def mat_neg(m):
    return tuple(tuple(-x for x in row) for row in m)


def assert_close(m, want, atol):
    for i in range(2):
        for j in range(2):
            assert abs(m[i][j] - want[i][j]) <= atol, (m, want)


class TestAngle:
    def test_normalized_mod_one(self):
        assert A(5, 4).rep == Fraction(1, 4)
        assert A(-1, 3).rep == Fraction(2, 3)

    def test_parse(self):
        assert Angle.parse("3/7").rep == Fraction(3, 7)
        with pytest.raises(InvalidAngleError):
            Angle.parse("x/y")
        with pytest.raises(InvalidAngleError):
            Angle.parse("1/0")


class TestOrevkovSolvable:
    def test_third_triple(self):
        assert orevkov_solvable(A(1, 3), A(1, 3), A(1, 3)) is True

    def test_half_triple(self):
        assert orevkov_solvable(A(1, 2), A(1, 2), A(1, 2)) is False

    def test_hyperbolic_triple(self):
        assert orevkov_solvable(A(1, 2), A(1, 3), A(1, 7)) is True

    def test_zero_angle_rejected(self):
        with pytest.raises(InvalidAngleError):
            orevkov_solvable(A(0), A(1, 2), A(1, 2))

    def test_symmetric(self):
        rng = random.Random(3)
        for _ in range(100):
            angles = [
                A(rng.randrange(1, q), q)
                for q in (rng.randrange(2, 9) for _ in range(3))
            ]
            base = orevkov_solvable(*angles)
            rng.shuffle(angles)
            assert orevkov_solvable(*angles) == base

    def test_t_case_sum_one(self):
        a, b = Fraction(1, 3), Fraction(1, 4)
        c = 1 - a - b
        assert orevkov_solvable(Angle(a), Angle(b), Angle(c)) is True


class TestSigmaAndClassOf:
    def test_sigma_half(self):
        assert_close(sigma_matrix(A(1, 2)), ((0, -1), (1, 0)), atol=1e-15)

    def test_sigma_zero(self):
        assert_close(sigma_matrix(A(0)), IDENTITY, atol=1e-15)

    def test_sigma_third(self):
        m = sigma_matrix(A(1, 3))
        assert abs(m[0][0] - 0.5) <= 1e-12
        assert abs(m[1][0] - math.sqrt(3) / 2) <= 1e-12

    def test_class_roundtrip(self):
        assert abs(class_of(sigma_matrix(A(1, 3))) - 1 / 3) < 1e-12

    def test_sign_normalization(self):
        assert abs(class_of(mat_neg(sigma_matrix(A(1, 3)))) - 1 / 3) < 1e-12

    def test_conjugation_invariance(self):
        rng = random.Random(12)
        for _ in range(200):
            # random SL2 matrix via LU-style factors
            a, b, c = (rng.uniform(-2, 2) for _ in range(3))
            g = mat_mul(
                ((1.0, a), (0.0, 1.0)),
                ((1.0, 0.0), (b, 1.0)),
                ((math.exp(c), 0.0), (0.0, math.exp(-c))),
            )
            m = mat_mul(g, sigma_matrix(A(1, 4)), mat_inv(g))
            assert abs(class_of(m) - 0.25) < 1e-9

    def test_not_elliptic(self):
        with pytest.raises(NotEllipticError):
            class_of(((2.0, 0.0), (0.0, 0.5)))
        with pytest.raises(NotEllipticError):
            class_of(IDENTITY)


class TestNumericSearch:
    def test_small_sum_solvable(self):
        assert numeric_triple_solvable(A(1, 4), A(1, 4), A(1, 4)) is True

    def test_half_triple_unsolvable(self):
        assert numeric_triple_solvable(A(1, 2), A(1, 2), A(1, 2)) is False

    def test_hyperbolic_triple(self):
        assert numeric_triple_solvable(A(1, 2), A(1, 3), A(1, 7)) is True

    def test_boundary_abstains(self):
        with pytest.raises(InconclusiveError):
            numeric_triple_solvable(A(1, 3), A(1, 3), A(1, 3))
        with pytest.raises(InconclusiveError):
            numeric_triple_solvable(A(2, 3), A(2, 3), A(2, 3))

    def test_agreement_sample(self):
        rng = random.Random(8)
        checked = 0
        while checked < 15:
            angles = [
                A(rng.randrange(1, q), q)
                for q in (rng.randrange(2, 9) for _ in range(3))
            ]
            s = float(sum(x.rep for x in angles))
            if abs(s - 1) < 0.02 or abs(s - 2) < 0.02:
                continue
            assert numeric_triple_solvable(*angles) == orevkov_solvable(*angles)
            checked += 1


def reverify(a, b, phi, s):
    """Class of (sigma_a * g sigma_b g^-1)^-1 for g = R(phi*pi) diag(e^s, e^-s),
    from the explicit matrix product."""
    t = math.pi * phi
    g = mat_mul(
        ((math.cos(t), -math.sin(t)), (math.sin(t), math.cos(t))),
        ((math.exp(s), 0.0), (0.0, math.exp(-s))),
    )
    p = mat_mul(sigma_matrix(a), g, sigma_matrix(b), mat_inv(g))
    return class_of(mat_inv(p))


angles = st.integers(2, 1000).flatmap(
    lambda q: st.integers(1, q - 1).map(lambda p: A(p, q))
)


@settings(max_examples=400, deadline=None)
@given(angles, angles, angles)
@example(A(1, 300), A(1, 300), A(1, 300))
@example(A(1, 1000), A(1, 1000), A(1, 1000))
def test_numeric_matches_exact(a, b, c):
    """Differential test: off the boundary, the numeric search finds a
    conjugator exactly when the exact criterion says solvable, and every
    conjugator it returns re-verifies on the explicit product.  Small
    angles need a large s: 5.25 for (1/300)^3, 6.46 for (1/1000)^3."""
    total = float(a.rep + b.rep + c.rep)
    if abs(total - 1) < BOUNDARY_MARGIN or abs(total - 2) < BOUNDARY_MARGIN:
        with pytest.raises(InconclusiveError):
            numeric_conjugator(a, b, c)
        return
    found = numeric_conjugator(a, b, c)
    assert (found is not None) == orevkov_solvable(a, b, c)
    if found is not None:
        assert abs(reverify(a, b, 0.0, found) - float(c.rep)) < TOLERANCE


def test_rotation_leaves_class_unchanged():
    """Rotating the conjugator g = diag(e^s, e^-s) to R(phi*pi) g changes
    neither the trace nor the sign of the lower-left entry of an elliptic
    product, so its class is the same: why the numeric conjugator has no
    rotation."""
    rng = random.Random(21)
    checked = 0
    while checked < 500:
        qa, qb = rng.randrange(2, 61), rng.randrange(2, 61)
        a, b = A(rng.randrange(1, qa), qa), A(rng.randrange(1, qb), qb)
        s = rng.uniform(0.0, 2.0)
        ra, rb = math.pi * float(a.rep), math.pi * float(b.rep)
        half = math.cos(ra) * math.cos(rb)
        half -= math.sin(ra) * math.sin(rb) * math.cosh(2 * s)
        if abs(half) > 0.99:
            continue
        theta = reverify(a, b, 0.0, s)
        for phi in (0.25, 0.5, 0.75):
            assert abs(reverify(a, b, phi, s) - theta) < 1e-9, (a, b, s, phi)
        checked += 1
