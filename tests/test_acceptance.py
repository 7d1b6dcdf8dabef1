"""Acceptance suite: the ten headline checks, one per test, each printing a
single PASS/FAIL line with its runtime.  Run with `pytest tests/test_acceptance.py -v -s`
to see the lines as they complete."""

import math
import random
import time
from fractions import Fraction
from itertools import product

import pytest

from triangle_words import classify, groups, lattice, psl2, residue, words
from triangle_words.groups import FiniteGroup, corpus_group, from_table
from triangle_words.residue import unit_group
from triangle_words.words import (
    ReducedWord,
    TwistedAutomorphism,
    apply_twisted,
    conjugate,
    construct_vw,
    eliminate_b,
    invert,
    multiply,
    normalize,
    search_twisted_solution,
    twisted_order_check,
    word,
)

from oracles import automorphism_group
from test_words import all_automorphisms, naive_reduce, random_letters, random_reduced


def report(number, label, started, limit):
    elapsed = time.time() - started
    if not elapsed < limit:
        pytest.fail(f"criterion {number} exceeded time limit: {elapsed:.1f}s")
    line = f"[criterion {number:2d}] PASS ({elapsed:6.1f}s / limit {limit:.0f}s): {label}"
    print(line, flush=True)


def units(n):
    return [r for r in range(1, n + 1) if math.gcd(r, n) == 1]


def test_criterion_01_burnside_equivalence():
    started = time.time()
    for k, l, m in product(range(2, 11), repeat=3):
        sig = lattice.TriangleSignature(k, l, m)
        mset = {u.value for u in lattice.multiplier_set(sig)}
        for r in units(sig.lcm):
            assert classify.classify_burnside(k, l, m, r).universal == (
                r % sig.lcm in mset
            ), (k, l, m, r)
    report(1, "classify_burnside matches multiplier_set for k,l,m <= 10", started, 120)


def test_criterion_02_multiplier_set_structure():
    started = time.time()
    for k, l, m in product(range(2, 13), repeat=3):
        sig = lattice.TriangleSignature(k, l, m)
        mset = lattice.multiplier_set(sig)
        vals = {u.value for u in mset}
        if sig.is_hyperbolic():
            assert vals == {1 % sig.lcm, (sig.lcm - 1) % sig.lcm}, (k, l, m)
        elif sig.is_spherical():
            assert mset == unit_group(sig.lcm), (k, l, m)
    report(2, "multiplier_set is {+-1} hyperbolic / full unit group spherical", started, 60)


def test_criterion_03_honda_equivalence():
    started = time.time()
    for k in range(2, 51):
        for m in range(2, 51):
            lcm = math.lcm(k, m)
            for r in units(lcm):
                a = classify.classify_honda(k, m, r).universal
                b = classify.classify_honda_via_burnside(k, m, r).universal
                assert a == b, (k, m, r)
    report(3, "classify_honda agrees with the via-Burnside route for k,m <= 50", started, 60)


def test_criterion_04_ceiling_formula():
    started = time.time()
    checked = 0
    for k in range(2, 13):
        for l in range(2, 13):
            for m in range(2, 31):
                sig = lattice.TriangleSignature(k, l, m)
                for a in range(1, k):
                    for b in range(1, l):
                        if a * l + b * k >= k * l:
                            continue
                        counted, formula = lattice.fiber_count(sig, a, b)
                        assert counted == formula
                        checked += 1
    assert checked > 10000
    report(4, f"ceiling formula matches enumeration on {checked} fibers", started, 120)


def test_criterion_05_segment_permutation():
    started = time.time()
    for m in range(3, 201):
        for r in units(m):
            if r == 1:
                continue
            for c in range(1, m - 1):
                assert not residue.segment_perm_check(m, r, c), (m, r, c)
    report(5, "segment_perm_check false for every non-identity unit, m <= 200", started, 120)


def test_criterion_06_burnside_counting_corpus():
    started = time.time()
    for name in groups.CORPUS_NAMES:
        G = corpus_group(name)
        exponent = G.exponent()
        for s in units(exponent):
            assert groups.burnside_count_check(G, s), (name, s)
        for k, l, m in product((2, 3, 4, 5), repeat=3):
            lcm = math.lcm(k, l, m)
            got = groups.multiplier_set_finite(G, k, l, m)
            assert got == unit_group(lcm), (name, k, l, m)
    report(6, "class-product counting and full multiplier sets on the 7-group corpus", started, 120)


def test_criterion_07_word_suite():
    started = time.time()
    G = corpus_group("s3")
    rng = random.Random(0xABCDEF)
    autos = all_automorphisms(G)
    identity_phi = tuple(range(G.order))

    def phi_order(phi):
        d, cur = 1, phi
        while cur != identity_phi:
            cur = tuple(phi[x] for x in cur)
            d += 1
        return d

    for _ in range(10_000):
        letters = random_letters(rng, G)
        w = normalize(letters, G)
        assert w == naive_reduce(letters, G)

        v = random_reduced(rng, G)
        prod, n = multiply(w, v)
        assert len(prod) == len(w) + len(v) - 2 * n
        assert 0 <= n <= min(len(w), len(v))
        assert len(invert(w)) == len(w)
        assert multiply(w, invert(w))[0].is_identity()

        t = TwistedAutomorphism(G, rng.choice(autos), rng.randrange(G.order))
        pw = apply_twisted(t, w)
        assert len(pw) == len(w)
        assert multiply(pw, apply_twisted(t, v))[0] == apply_twisted(
            t, multiply(w, v)[0]
        )

        d = phi_order(t.phi)
        prod_elem = 0
        power = identity_phi
        powers = [identity_phi]
        for _ in range(d - 1):
            power = tuple(t.phi[x] for x in power)
            powers.append(power)
        for i in range(d):
            prod_elem = G.mul(prod_elem, powers[d - 1 - i][t.p])
        assert twisted_order_check(t, d) == (prod_elem == 0)
    report(7, "10^4 randomized word-suite checks over S3", started, 60)


def _cyclic(n):
    return from_table([[(i + j) % n for j in range(n)] for i in range(n)], name=f"c{n}")


def test_criterion_08_b_elimination():
    started = time.time()
    pool = [
        _cyclic(2),
        _cyclic(3),
        _cyclic(4),
        _cyclic(5),
        _cyclic(6),
        _cyclic(12),
        from_table(  # Klein four group
            [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]], name="v4"
        ),
        corpus_group("s3"),
        corpus_group("d4"),
        corpus_group("q8"),
        corpus_group("d5"),
        corpus_group("a4"),
    ]
    autos = {G.name: automorphism_group(G) for G in pool}
    # weight sampling toward small orders so the bounded search stays cheap
    weights = [1.0 / G.order for G in pool]
    rng = random.Random(0x5EED)
    sound = complete_hits = 0
    for _ in range(1000):
        G = rng.choices(pool, weights)[0]
        phi = rng.choice(autos[G.name])
        p = rng.randrange(G.order)
        q = rng.randrange(G.order)
        t = TwistedAutomorphism(G, phi, p)
        sol = eliminate_b(t, q)
        if sol is not None:
            # soundness: the constructed words satisfy the equation
            v, w = construct_vw(G, *sol)
            lhs = multiply(apply_twisted(t, v), invert(v))[0]
            assert lhs == conjugate(w, word(G, q)), (G.name, phi, p, q, sol)
            sound += 1
        else:
            # bounded completeness: no target w q w^-1 with short w may be
            # reachable as psi(v) v^-1 with len(v) <= 3
            targets = [word(G, q)]
            for _ in range(2):
                w = random_reduced(rng, G, max_len=1)
                targets.append(conjugate(w, word(G, q)))
            for u in targets:
                found = search_twisted_solution(t, u, max_len=3)
                assert found is None, (G.name, phi, p, q, found)
            complete_hits += 1
    assert sound + complete_hits == 1000
    report(
        8,
        f"b-elimination sound on {sound} solvable / search-empty on {complete_hits} unsolvable instances",
        started,
        30,
    )


def test_criterion_09_spherical_witnesses():
    started = time.time()
    for k, l, m in product(range(2, 13), repeat=3):
        if l * m + k * m + k * l <= k * l * m:
            continue
        real = groups.vondyck(k, l, m)
        G = real.group
        lcm = math.lcm(k, l, m)
        for r in units(lcm):
            g, h = groups.universal_witness(k, l, m, r)
            A = G.power(real.a_id, r)
            X = G.power(G.mul(G.inv(real.a_id), real.c_id), r)
            assert G.mul(A, G.conj(g, X)) == G.conj(h, G.power(real.c_id, r))
    for k in range(2, 13):
        for m in range(2, 13):
            if 2 * m + k <= k * m:
                continue
            for r in units(math.lcm(k, m)):
                assert groups.lemma42_check(k, m, r), (k, m, r)
    report(9, "witnesses verify on all spherical triples up to 12", started, 120)


def test_criterion_10_orevkov_numeric_agreement():
    started = time.time()
    reps = sorted(
        {
            Fraction(p, q)
            for q in range(2, 9)
            for p in range(1, q)
        }
    )
    checked = 0
    for ra, rb, rc in product(reps, repeat=3):
        s = float(ra + rb + rc)
        if abs(s - 1.0) < 0.02 or abs(s - 2.0) < 0.02:
            continue
        a, b, c = psl2.Angle(ra), psl2.Angle(rb), psl2.Angle(rc)
        exact = psl2.orevkov_solvable(a, b, c)
        numeric = psl2.numeric_triple_solvable(a, b, c)
        assert exact == numeric, (ra, rb, rc, exact, numeric)
        checked += 1
    assert checked > 300
    report(10, f"numeric conjugator search agrees with the exact test on {checked} triples", started, 30)
