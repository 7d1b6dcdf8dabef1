"""Unit tests for the closed-form universality classifiers."""

import math
from fractions import Fraction

import pytest

from triangle_words.classify import (
    InvalidRError,
    Reason,
    classify_burnside,
    classify_honda,
    classify_honda_via_burnside,
)


class TestClassifyBurnside:
    def test_hyperbolic_non_pm1(self):
        v = classify_burnside(2, 3, 7, 5)
        assert v.universal is False
        assert v.reason is Reason.NONE

    def test_spherical(self):
        v = classify_burnside(2, 3, 5, 7)
        assert v.universal is True
        assert v.reason is Reason.SUM_AT_LEAST_ONE

    def test_r_one(self):
        v = classify_burnside(5, 5, 5, 1)
        assert v.universal is True
        assert v.reason is Reason.R_IS_PM1

    def test_r_minus_one(self):
        v = classify_burnside(2, 3, 7, 41)
        assert v.universal and v.reason is Reason.R_IS_PM1

    def test_euclidean_sum_exactly_one(self):
        # 1/3 + 1/3 + 1/3 = 1 is inside the >= 1 clause
        v = classify_burnside(3, 3, 3, 2)
        assert v.universal and v.reason is Reason.SUM_AT_LEAST_ONE

    def test_non_coprime_r(self):
        with pytest.raises(InvalidRError):
            classify_burnside(2, 3, 7, 6)

    def test_symmetric_in_klm(self):
        for r in (1, 5, 11, 41):
            base = classify_burnside(2, 3, 7, r).universal
            assert classify_burnside(3, 7, 2, r).universal == base
            assert classify_burnside(7, 2, 3, r).universal == base

    def test_matches_fraction_condition(self):
        for k in range(2, 9):
            for l in range(2, 9):
                for m in range(2, 9):
                    lcm = math.lcm(k, l, m)
                    s = Fraction(1, k) + Fraction(1, l) + Fraction(1, m)
                    for r in range(1, lcm + 1):
                        if math.gcd(r, lcm) != 1:
                            continue
                        expect = s >= 1 or r % lcm in (1 % lcm, (lcm - 1) % lcm)
                        assert classify_burnside(k, l, m, r).universal == expect


class TestClassifyHonda:
    def test_rstar_clause(self):
        v = classify_honda(3, 4, 5)
        assert v.universal and v.reason is Reason.RSTAR_IS_PM1

    def test_sum_clause(self):
        for r in (1, 5):
            v = classify_honda(2, 3, r)
            assert v.universal and v.reason is Reason.SUM_AT_LEAST_ONE

    def test_r_pm1_clause(self):
        v = classify_honda(4, 4, 3)
        assert v.universal and v.reason is Reason.R_IS_PM1

    def test_negative(self):
        v = classify_honda(5, 7, 2)
        assert not v.universal and v.reason is Reason.NONE

    def test_gcd_big_skips_star_clause(self):
        # gcd(4,8) = 4: only the first two clauses can fire
        v = classify_honda(4, 8, 3)
        assert not v.universal

    def test_non_coprime_r(self):
        with pytest.raises(InvalidRError):
            classify_honda(3, 4, 6)


class TestViaBurnside:
    def test_agreement_small(self):
        for k in range(2, 16):
            for m in range(2, 16):
                lcm = math.lcm(k, m)
                for r in range(1, lcm + 1):
                    if math.gcd(r, lcm) != 1:
                        continue
                    direct = classify_honda(k, m, r)
                    derived = classify_honda_via_burnside(k, m, r)
                    assert direct.universal == derived.universal, (k, m, r)

    def test_examples(self):
        assert classify_honda_via_burnside(3, 4, 5).universal is True
        assert classify_honda_via_burnside(5, 7, 2).universal is False
        assert classify_honda_via_burnside(2, 9, 1).universal is True


def test_verdict_invariant_enforced():
    from triangle_words.classify import BurnsideVerdict, HondaVerdict
    from triangle_words.groups import InternalInconsistencyError

    with pytest.raises(InternalInconsistencyError):
        BurnsideVerdict(True, Reason.NONE)
    with pytest.raises(InternalInconsistencyError):
        HondaVerdict(False, Reason.RSTAR_IS_PM1)
