"""Unit tests for the lattice module: region tagging, multiplier sets,
the N set, and fiber counts."""

import math
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from triangle_words import lattice
from triangle_words.groups import InternalInconsistencyError
from triangle_words.lattice import (
    InvalidFiberError,
    LatticePoint,
    RegionTag,
    TriangleSignature,
    all_points,
    bset_points,
    fiber_count,
    multiplier_set,
    n_set,
    region_of,
)
from triangle_words.residue import unit_group


class TestTriangleSignature:
    def test_rejects_small_entries(self):
        with pytest.raises(ValueError):
            TriangleSignature(1, 2, 3)

    def test_spherical_hyperbolic_partition(self):
        sph = TriangleSignature(2, 3, 5)
        hyp = TriangleSignature(2, 3, 7)
        euc = TriangleSignature(3, 3, 3)
        assert sph.is_spherical() and not sph.is_hyperbolic()
        assert hyp.is_hyperbolic() and not hyp.is_spherical()
        assert not euc.is_spherical() and not euc.is_hyperbolic()

    def test_lcm(self):
        assert TriangleSignature(4, 6, 10).lcm == 60


class TestLatticePoint:
    def test_components_reduced(self):
        p = LatticePoint(TriangleSignature(2, 3, 7), 5, -1, 9)
        assert (p.a, p.b, p.c) == (1, 2, 2)

    def test_scaled(self):
        p = LatticePoint(TriangleSignature(2, 3, 7), 1, 1, 1)
        q = p.scaled(5)
        assert (q.a, q.b, q.c) == (1, 2, 5)


class TestRegionOf:
    def test_example_s(self):
        p = LatticePoint(TriangleSignature(2, 3, 7), 1, 1, 1)
        assert region_of(p) is RegionTag.S

    def test_example_none(self):
        p = LatticePoint(TriangleSignature(2, 2, 2), 1, 1, 1)
        assert region_of(p) is RegionTag.NONE

    def test_example_t(self):
        p = LatticePoint(TriangleSignature(3, 3, 3), 1, 1, 1)
        assert region_of(p) is RegionTag.T

    def test_zero_coordinate_is_none(self):
        sig = TriangleSignature(3, 4, 5)
        assert region_of(LatticePoint(sig, 0, 1, 1)) is RegionTag.NONE
        assert region_of(LatticePoint(sig, 1, 0, 1)) is RegionTag.NONE
        assert region_of(LatticePoint(sig, 1, 1, 0)) is RegionTag.NONE

    def test_neg_s_is_mirror_of_s(self):
        # p in S iff -p in -S, over a few signatures
        for k, l, m in [(2, 3, 7), (3, 4, 5), (5, 5, 5)]:
            sig = TriangleSignature(k, l, m)
            for p in all_points(sig):
                neg = LatticePoint(sig, -p.a, -p.b, -p.c)
                if region_of(p) is RegionTag.S:
                    assert region_of(neg) is RegionTag.NEG_S
                if region_of(p) is RegionTag.NEG_S:
                    assert region_of(neg) is RegionTag.S

    def test_matches_fraction_arithmetic(self):
        from fractions import Fraction

        for k, l, m in [(2, 3, 7), (4, 4, 4), (2, 5, 6)]:
            sig = TriangleSignature(k, l, m)
            for p in all_points(sig):
                got = region_of(p)
                if 0 in (p.a, p.b, p.c):
                    assert got is RegionTag.NONE
                    continue
                s = Fraction(p.a, k) + Fraction(p.b, l) + Fraction(p.c, m)
                if s.denominator == 1:
                    assert got is RegionTag.T
                elif s < 1:
                    assert got is RegionTag.S
                elif s > 2:
                    assert got is RegionTag.NEG_S
                else:
                    assert got is RegionTag.NONE


class TestMultiplierSet:
    def test_hyperbolic_237(self):
        ms = {u.value for u in multiplier_set(TriangleSignature(2, 3, 7))}
        assert ms == {1, 41}

    def test_spherical_235_full(self):
        ms = multiplier_set(TriangleSignature(2, 3, 5))
        assert ms == unit_group(30)
        assert len(ms) == 8

    def test_euclidean_333(self):
        ms = {u.value for u in multiplier_set(TriangleSignature(3, 3, 3))}
        assert ms == {1, 2}

    def test_is_subgroup_containing_minus_one(self):
        for k, l, m in [(2, 3, 7), (3, 4, 5), (2, 4, 5), (4, 4, 4)]:
            sig = TriangleSignature(k, l, m)
            ms = multiplier_set(sig)
            vals = {u.value for u in ms}
            assert (sig.lcm - 1) in vals
            for x in ms:
                for y in ms:
                    assert x * y in ms
                assert x.inverse() in ms

    def test_against_naive_enumeration(self):
        # reference implementation straight from the definition
        for k, l, m in [(2, 3, 7), (3, 4, 5), (2, 2, 6), (5, 5, 5)]:
            sig = TriangleSignature(k, l, m)
            tagged = {
                p
                for p in all_points(sig)
                if region_of(p) in (RegionTag.S, RegionTag.NEG_S)
            }
            naive = {
                r
                for r in unit_group(sig.lcm)
                if {p.scaled(r) for p in tagged} == tagged
            }
            assert multiplier_set(sig) == naive


class TestNSet:
    def test_2_3_full(self):
        assert {u.value for u in n_set(2, 3)} == {1, 5}

    def test_4_4_empty(self):
        assert n_set(4, 4) == set()

    def test_emptiness_criterion(self):
        for k in range(2, 8):
            for m in range(2, 8):
                tagged = bset_points(TriangleSignature(k, k, m))
                got = n_set(k, m)
                if tagged:
                    assert got == set()
                else:
                    assert got == unit_group(math.lcm(k, m))

    def test_mismatch_raises(self, monkeypatch):
        # tagging every point gives a nonempty tagged set that every unit
        # preserves, against the closed criterion
        monkeypatch.setattr(lattice, "region_of", lambda p: RegionTag.S)
        with pytest.raises(InternalInconsistencyError):
            n_set(2, 3)


class TestFiberCount:
    def test_example_237(self):
        assert fiber_count(TriangleSignature(2, 3, 7), 1, 1) == (1, 1)

    def test_example_236(self):
        assert fiber_count(TriangleSignature(2, 3, 6), 1, 1) == (0, 0)

    def test_invalid_base(self):
        with pytest.raises(InvalidFiberError):
            fiber_count(TriangleSignature(2, 2, 3), 1, 1)

    def test_mismatch_raises(self, monkeypatch):
        # no point in S: the count 0 disagrees with the formula's 1
        monkeypatch.setattr(lattice, "region_of", lambda p: RegionTag.NONE)
        with pytest.raises(InternalInconsistencyError):
            fiber_count(TriangleSignature(2, 3, 7), 1, 1)

    @given(
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=2, max_value=30),
        st.data(),
    )
    def test_formula_matches_enumeration(self, k, l, m, data):
        a = data.draw(st.integers(min_value=1, max_value=k - 1))
        b = data.draw(st.integers(min_value=1, max_value=l - 1))
        sig = TriangleSignature(k, l, m)
        if a * l + b * k >= k * l:
            with pytest.raises(InvalidFiberError):
                fiber_count(sig, a, b)
            return
        counted, formula = fiber_count(sig, a, b)
        assert counted == formula


def test_bset_examples():
    assert bset_points(TriangleSignature(2, 2, 2)) == []
    sig = TriangleSignature(3, 3, 3)
    assert LatticePoint(sig, 1, 1, 1) in bset_points(sig)


def test_bset_deterministic_order():
    sig = TriangleSignature(2, 3, 5)
    assert bset_points(sig) == bset_points(sig)
