"""Unit tests for the finite-group engine, class-product counting,
von Dyck realizations and witness constructions."""

import json
import math
import random
from itertools import product

import pytest

from triangle_words import groups
from triangle_words.groups import (
    CORPUS_NAMES,
    GroupError,
    InternalInconsistencyError,
    InvalidSError,
    NotFiniteError,
    TooLargeError,
    VonDyckRealization,
    burnside_count_check,
    corpus_group,
    count_products,
    enumerate_group,
    from_table,
    group_from_dict,
    lemma42_check,
    load_group,
    multiplier_set_finite,
    universal_witness,
    vondyck,
    witness_r_minus_one,
)


class TestEnumerateGroup:
    def test_s3(self):
        G = enumerate_group([(1, 0, 2), (1, 2, 0)])
        assert G.order == 6
        assert len(G.conjugacy_classes()) == 3

    def test_d4(self):
        G = enumerate_group([(1, 2, 3, 0), (2, 1, 0, 3)])
        assert G.order == 8
        assert len(G.conjugacy_classes()) == 5

    def test_trivial(self):
        G = enumerate_group([], degree=1)
        assert G.order == 1

    def test_cap(self):
        with pytest.raises(TooLargeError):
            enumerate_group([(1, 2, 3, 4, 0)], cap=3)

    def test_cap_env(self, monkeypatch):
        monkeypatch.setenv("TRIANGLE_WORDS_CAP", "3")
        with pytest.raises(TooLargeError):
            enumerate_group([(1, 2, 3, 4, 0)])

    def test_invalid_permutation(self):
        with pytest.raises(GroupError):
            enumerate_group([(0, 0, 1)])


class TestFiniteGroup:
    def test_identity_and_inverse(self):
        G = corpus_group("s3")
        for g in range(G.order):
            assert G.mul(g, G.inv(g)) == 0
            assert G.mul(0, g) == g

    def test_power(self):
        G = corpus_group("s3")
        for g in range(G.order):
            assert G.power(g, G.order_of(g)) == 0
            assert G.power(g, -1) == G.inv(g)

    def test_exponent(self):
        assert corpus_group("s3").exponent() == 6
        assert corpus_group("q8").exponent() == 4
        assert corpus_group("a5").exponent() == 30

    def test_classes_partition(self):
        for name in CORPUS_NAMES:
            G = corpus_group(name)
            members = [x for C in G.conjugacy_classes() for x in C.members]
            assert sorted(members) == list(range(G.order))

    def test_class_of_constant_on_class(self):
        G = corpus_group("s4")
        for C in G.conjugacy_classes():
            for x in C.members:
                assert G.class_of(x) == C

    def test_rejects_bad_table(self):
        with pytest.raises(GroupError):
            from_table([[0, 1], [1, 1]])
        with pytest.raises(GroupError):
            from_table([[1, 0], [0, 1]])


class TestCorpus:
    def test_orders(self):
        expected = {"s3": 6, "d4": 8, "q8": 8, "a4": 12, "d5": 10, "s4": 24, "a5": 60}
        for name, order in expected.items():
            assert corpus_group(name).order == order

    def test_q8_is_table_based(self):
        G = corpus_group("q8")
        assert G.perms is None
        assert G.order_of(1) == 2  # the central -1
        assert sum(1 for g in range(8) if G.order_of(g) == 4) == 6


class TestGroupFiles:
    def test_load_permutation_file(self, tmp_path):
        path = tmp_path / "c4.json"
        path.write_text(json.dumps({"permutations": [[2, 3, 4, 1]], "degree": 4}))
        G = load_group(path)
        assert G.order == 4

    def test_load_table_file(self, tmp_path):
        path = tmp_path / "c2.json"
        path.write_text(json.dumps({"table": [[0, 1], [1, 0]]}))
        assert load_group(path).order == 2

    def test_rejects_unknown_shape(self):
        with pytest.raises(GroupError):
            group_from_dict({"generators": []})


class TestCountProducts:
    def test_s3_transpositions_to_threecycle(self):
        G = corpus_group("s3")
        transpositions = next(
            C for C in G.conjugacy_classes() if G.order_of(C.representative) == 2
        )
        threecycles = next(
            C for C in G.conjugacy_classes() if G.order_of(C.representative) == 3
        )
        z = threecycles.representative
        assert count_products(transpositions, transpositions, z) == 3
        assert count_products(transpositions, transpositions, 0) == 3

    def test_identity_classes(self):
        G = corpus_group("a4")
        E = G.class_of(0)
        assert count_products(E, E, 0) == 1

    def test_mixed_groups_rejected(self):
        C = corpus_group("s3").class_of(1)
        D = corpus_group("a4").class_of(1)
        with pytest.raises(groups.MixedGroupError):
            count_products(C, D, 0)

    def test_total_count_is_class_product(self):
        G = corpus_group("s4")
        for C in G.conjugacy_classes():
            for D in G.conjugacy_classes():
                total = sum(count_products(C, D, z) for z in range(G.order))
                assert total == len(C) * len(D)


def burnside_all_pairs(G, s):
    """Oracle: the counting identity compared at every member pair (z, z')
    of a class E and its power class E^s, with product counts tabulated
    over all of G."""

    def product_counts(C, D):
        counts = [0] * G.order
        for x in C.members:
            for y in D.members:
                counts[G.mul(x, y)] += 1
        return counts

    classes = G.conjugacy_classes()
    counts = {(C.members, D.members): product_counts(C, D) for C in classes for D in classes}
    for C in classes:
        Cs = C.power(s)
        for D in classes:
            Ds = D.power(s)
            base = counts[(C.members, D.members)]
            powd = counts[(Cs.members, Ds.members)]
            for E in classes:
                Es = E.power(s)
                for z in E.members:
                    for z2 in Es.members:
                        if base[z] != powd[z2]:
                            return False
    return True


def symmetric_group(n):
    return enumerate_group([(1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,)])


class TestBurnsideCountCheck:
    def test_s3(self):
        assert burnside_count_check(corpus_group("s3"), 5)

    def test_s_one(self):
        for name in CORPUS_NAMES:
            assert burnside_count_check(corpus_group(name), 1)

    def test_s4(self):
        assert burnside_count_check(corpus_group("s4"), 5)

    def test_rejects_non_coprime(self):
        with pytest.raises(InvalidSError):
            burnside_count_check(corpus_group("s3"), 2)

    def test_matches_all_pairs_oracle(self):
        for G in [corpus_group(name) for name in CORPUS_NAMES] + [symmetric_group(5)]:
            e = G.exponent()
            for s in range(1, e + 1):
                if math.gcd(s, e) == 1:
                    assert burnside_count_check(G, s) == burnside_all_pairs(G, s), (G, s)

    def test_false_on_a_power_map_that_moves_counts(self, monkeypatch):
        # swapping the transpositions with the 3-cycles is no class power
        # map of S3, so the identity fails, and both versions must see it
        G = symmetric_group(3)
        t = next(g for g in range(6) if G.order_of(g) == 2)
        c = next(g for g in range(6) if G.order_of(g) == 3)
        swap = {2: c, 3: t}
        monkeypatch.setattr(G, "power", lambda a, n: swap.get(G.order_of(a), a))
        assert burnside_all_pairs(G, 1) is False
        assert burnside_count_check(G, 1) is False

    def test_class_counts_match_count_products(self):
        # the per-class table read at one representative must hold for
        # every member z of the class
        for name in CORPUS_NAMES:
            G = corpus_group(name)
            classes = G.conjugacy_classes()
            counts = groups._class_product_counts(G)
            for c, C in enumerate(classes):
                for d, D in enumerate(classes):
                    for e, E in enumerate(classes):
                        for z in E.members:
                            assert counts[c][e][d] == count_products(C, D, z)


class TestMultiplierSetFinite:
    def test_s3_223(self):
        got = {u.value for u in multiplier_set_finite(corpus_group("s3"), 2, 2, 3)}
        assert got == {1, 5}

    def test_vacuous_full(self):
        # Q8 has no elements of order 3, so G[3] classes are empty
        got = {u.value for u in multiplier_set_finite(corpus_group("q8"), 3, 3, 3)}
        assert got == {1, 2}

    def test_a4_233_full(self):
        got = {u.value for u in multiplier_set_finite(corpus_group("a4"), 2, 3, 3)}
        assert got == {1, 5}

    def test_subgroup_containing_minus_one(self):
        for name in ("s3", "d4", "a4"):
            G = corpus_group(name)
            ms = multiplier_set_finite(G, 2, 3, 4)
            vals = {u.value for u in ms}
            assert 11 in vals
            for x in ms:
                for y in ms:
                    assert x * y in ms


class TestVonDyck:
    def test_233_realization(self):
        real = vondyck(2, 3, 3)
        assert real.group.order == 12
        assert real.group.perms[real.a_id] == (1, 0, 3, 2)
        assert real.group.perms[real.c_id] == (1, 2, 0, 3)

    def test_dihedral(self):
        assert vondyck(2, 2, 5).group.order == 10
        assert vondyck(2, 2, 2).group.order == 4
        assert vondyck(5, 2, 2).group.order == 10

    def test_not_finite(self):
        with pytest.raises(NotFiniteError):
            vondyck(2, 3, 7)
        with pytest.raises(NotFiniteError):
            vondyck(3, 3, 3)

    def test_all_spherical_up_to_12(self):
        for k, l, m in product(range(2, 13), repeat=3):
            if l * m + k * m + k * l > k * l * m:
                real = vondyck(k, l, m)
                expected = 2 * k * l * m // (l * m + k * m + k * l - k * l * m)
                assert real.group.order == expected

    def test_memoised(self):
        assert vondyck(2, 3, 5) is vondyck(2, 3, 5)

    def test_cap_holds_on_cache_hit(self, monkeypatch):
        assert vondyck(2, 2, 20).group.order == 40
        monkeypatch.setenv("TRIANGLE_WORDS_CAP", "10")
        with pytest.raises(TooLargeError):
            vondyck(2, 2, 20)
        assert vondyck(2, 2, 5).group.order == 10

    def test_wrong_generator_raises(self):
        real = vondyck(2, 3, 3)
        with pytest.raises(InternalInconsistencyError):
            VonDyckRealization(real.group, real.c_id, real.c_id, 2, 3, 3)
        with pytest.raises(InternalInconsistencyError):
            VonDyckRealization(real.group, real.a_id, real.c_id, 2, 3, 4)


class TestWitnesses:
    def test_identity_witness(self):
        assert universal_witness(2, 2, 3, 1) == (0, 0)

    def test_225_r3_verifies(self):
        real = vondyck(2, 2, 5)
        G = real.group
        g, h = universal_witness(2, 2, 5, 3)
        A = G.power(real.a_id, 3)
        X = G.power(G.mul(G.inv(real.a_id), real.c_id), 3)
        assert G.mul(A, G.conj(g, X)) == G.conj(h, G.power(real.c_id, 3))

    def test_235_r7(self):
        real = vondyck(2, 3, 5)
        G = real.group
        rv = 7
        g, h = universal_witness(2, 3, 5, rv)
        A = G.power(real.a_id, rv)
        X = G.power(G.mul(G.inv(real.a_id), real.c_id), rv)
        assert G.mul(A, G.conj(g, X)) == G.conj(h, G.power(real.c_id, rv))

    def test_non_spherical(self):
        with pytest.raises(NotFiniteError):
            universal_witness(2, 3, 7, 1)

    def test_cached_matches_fresh_build(self, monkeypatch):
        rng = random.Random(3)
        triples = [(2, 3, 3), (2, 3, 4), (2, 3, 5), (5, 3, 2), (3, 2, 4), (2, 2, 2)]
        triples += [rng.choice([(2, 2, n), (2, n, 2), (n, 2, 2)]) for n in range(3, 16)]
        cases = [
            (k, l, m, r)
            for k, l, m in triples
            for r in range(1, math.lcm(k, l, m) + 1)
            if math.gcd(r, math.lcm(k, l, m)) == 1
        ]
        cached = [universal_witness(*case) for case in cases]
        monkeypatch.setattr(groups, "_build_vondyck", groups._build_vondyck.__wrapped__)
        assert vondyck(2, 3, 5) is not vondyck(2, 3, 5)
        assert [universal_witness(*case) for case in cases] == cached


class TestLemma42:
    def test_r_one(self):
        assert lemma42_check(2, 3, 1)

    def test_dihedral(self):
        assert lemma42_check(2, 5, 3)

    def test_332(self):
        assert lemma42_check(3, 2, 5)

    def test_all_spherical_kkm(self):
        for k in range(2, 13):
            for m in range(2, 13):
                if 2 * m + k <= k * m:
                    continue
                lcm = math.lcm(k, m)
                for r in range(1, lcm + 1):
                    if math.gcd(r, lcm) != 1:
                        continue
                    assert lemma42_check(k, m, r), (k, m, r)


class TestWitnessRMinusOne:
    def test_identity(self):
        G = corpus_group("s3")
        w, triple = witness_r_minus_one(G, 0, 0)
        assert w == 0 and triple == (0, 0, 0)

    @staticmethod
    def s3_pair():
        G = corpus_group("s3")
        x = next(g for g in range(6) if G.order_of(g) == 2)
        u = next(g for g in range(6) if G.order_of(g) == 3)
        return G, x, u

    def test_s3(self):
        G, x, u = self.s3_pair()
        w, (xp, yp, zp) = witness_r_minus_one(G, x, u)
        assert w == G.mul(x, u)
        assert G.mul(xp, yp) == zp

    def test_first_identity_checked(self, monkeypatch):
        G, x, u = self.s3_pair()
        # z = xu breaks [x^-1, xu] = z^-1: x^-1 xu = u, not u^-1 x^-1
        monkeypatch.setattr(G, "commutator", lambda x, u: G.mul(x, u))
        with pytest.raises(InternalInconsistencyError):
            witness_r_minus_one(G, x, u)

    def test_second_identity_checked(self, monkeypatch):
        G, x, u = self.s3_pair()
        z = G.commutator(x, u)
        # x' = x^-1 and y' = x y^-1 x^-1 = x z^-1 for y = x^-1 z; a product
        # table wrong only at (x', y') breaks x'y' = z' = z^-1 != 1
        xp, yp = G.inv(x), G.mul(x, G.inv(z))
        mul = G.mul
        monkeypatch.setattr(
            G, "mul", lambda a, b: 0 if (a, b) == (xp, yp) else mul(a, b)
        )
        with pytest.raises(InternalInconsistencyError):
            witness_r_minus_one(G, x, u)

    def test_q8_random(self):
        G = corpus_group("q8")
        rng = random.Random(7)
        for _ in range(50):
            witness_r_minus_one(G, rng.randrange(8), rng.randrange(8))
