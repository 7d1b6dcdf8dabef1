"""Unit tests for the free-product word machinery: normalization against a
naive fixpoint oracle, length identities, twisted automorphisms, and
b-elimination."""

import random
from itertools import product

import pytest

from triangle_words import words
from triangle_words.groups import (
    InternalInconsistencyError,
    MixedGroupError,
    corpus_group,
    from_table,
)
from triangle_words.words import (
    BaseLetter,
    BLetter,
    InvalidLetterError,
    InvalidOrderError,
    ReducedWord,
    TwistedAutomorphism,
    apply_twisted,
    conjugate,
    construct_vw,
    eliminate_b,
    format_word,
    identity_word,
    invert,
    multiply,
    normalize,
    parse_word,
    search_twisted_solution,
    twisted_order_check,
    word,
)

from oracles import automorphism_group, eliminate_b_all_pairs


def cyclic_group(n):
    return from_table(
        [[(i + j) % n for j in range(n)] for i in range(n)], name=f"c{n}"
    )


def naive_reduce(letters, G):
    """Independent oracle: rewrite the letter list to a fixpoint with the
    three obviously-sound rules, then pad to the alternating shape."""
    seq = list(letters)
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(seq):
            cur = seq[i]
            if isinstance(cur, BaseLetter) and cur.elem == 0:
                del seq[i]
                changed = True
                continue
            if i + 1 < len(seq):
                nxt = seq[i + 1]
                if isinstance(cur, BaseLetter) and isinstance(nxt, BaseLetter):
                    seq[i : i + 2] = [BaseLetter(G.mul(cur.elem, nxt.elem))]
                    changed = True
                    continue
                if (
                    isinstance(cur, BLetter)
                    and isinstance(nxt, BLetter)
                    and cur.exp == -nxt.exp
                ):
                    del seq[i : i + 2]
                    changed = True
                    continue
            i += 1
    bases, exps = [], []
    pending = 0
    for letter in seq:
        if isinstance(letter, BaseLetter):
            pending = letter.elem
        else:
            bases.append(pending)
            exps.append(letter.exp)
            pending = 0
    bases.append(pending)
    return ReducedWord(G, tuple(bases), tuple(exps))


def random_letters(rng, G, max_len=12):
    out = []
    for _ in range(rng.randrange(max_len + 1)):
        kind = rng.random()
        if kind < 0.5:
            out.append(BaseLetter(rng.randrange(G.order)))
        elif kind < 0.75:
            out.append(BLetter(1))
        else:
            out.append(BLetter(-1))
    return out


def random_reduced(rng, G, max_len=4):
    s = rng.randrange(max_len + 1)
    while True:
        bases = tuple(rng.randrange(G.order) for _ in range(s + 1))
        exps = tuple(rng.choice((1, -1)) for _ in range(s))
        try:
            return ReducedWord(G, bases, exps)
        except InvalidLetterError:
            continue


def all_automorphisms(G):
    """Brute-force automorphism search; fine for tiny groups."""
    out = []
    for phi in product(range(G.order), repeat=G.order):
        if phi[0] != 0 or sorted(phi) != list(range(G.order)):
            continue
        if all(
            phi[G.mul(x, y)] == G.mul(phi[x], phi[y])
            for x in range(G.order)
            for y in range(G.order)
        ):
            out.append(phi)
    return out


class TestReducedWord:
    def test_shape_enforced(self):
        G = corpus_group("s3")
        with pytest.raises(InvalidLetterError):
            ReducedWord(G, (1, 2), ())
        with pytest.raises(InvalidLetterError):
            ReducedWord(G, (1, 0, 2), (1, -1))

    def test_adjacent_same_exponent_allowed(self):
        G = corpus_group("s3")
        w = ReducedWord(G, (1, 0, 2), (1, 1))
        assert len(w) == 2

    def test_letters_roundtrip(self):
        G = corpus_group("s3")
        w = ReducedWord(G, (1, 2, 3), (1, -1))
        assert normalize(w.letters, G) == w


class TestNormalize:
    def test_cancellation_example(self):
        G = corpus_group("s3")
        g, h = 1, 2
        w = normalize([BaseLetter(g), BLetter(1), BLetter(-1), BaseLetter(h)], G)
        assert w == ReducedWord(G, (G.mul(g, h),), ())

    def test_empty(self):
        G = corpus_group("s3")
        assert normalize([], G) == identity_word(G)

    def test_no_reduction(self):
        G = corpus_group("s3")
        w = normalize([BLetter(1), BaseLetter(3), BLetter(1)], G)
        assert w == ReducedWord(G, (0, 3, 0), (1, 1))

    def test_against_oracle_randomized(self):
        G = corpus_group("s3")
        rng = random.Random(2024)
        for _ in range(2000):
            letters = random_letters(rng, G)
            assert normalize(letters, G) == naive_reduce(letters, G)


class TestMultiplyInvert:
    def test_full_cancellation(self):
        G = corpus_group("s3")
        u = ReducedWord(G, (1, 0), (1,))
        v = ReducedWord(G, (0, 2), (-1,))
        w, n = multiply(u, v)
        assert n == 1
        assert w == ReducedWord(G, (G.mul(1, 2),), ())

    def test_no_cancellation(self):
        G = corpus_group("s3")
        u = ReducedWord(G, (1,), ())
        v = ReducedWord(G, (2,), ())
        w, n = multiply(u, v)
        assert n == 0 and w == ReducedWord(G, (G.mul(1, 2),), ())

    def test_word_times_inverse(self):
        G = corpus_group("s3")
        u = ReducedWord(G, (0, 3, 0), (1, 1))
        w, n = multiply(u, invert(u))
        assert w.is_identity() and n == 2

    def test_invert_formula(self):
        G = corpus_group("s3")
        u = ReducedWord(G, (1, 2), (1,))
        assert invert(u) == ReducedWord(G, (G.inv(2), G.inv(1)), (-1,))

    def test_invert_identity(self):
        G = corpus_group("s3")
        assert invert(identity_word(G)) == identity_word(G)

    def test_mixed_groups(self):
        with pytest.raises(MixedGroupError):
            multiply(identity_word(corpus_group("s3")), identity_word(corpus_group("a4")))

    def test_length_identities_randomized(self):
        G = corpus_group("s3")
        rng = random.Random(99)
        for _ in range(500):
            u = random_reduced(rng, G)
            v = random_reduced(rng, G)
            w, n = multiply(u, v)
            assert len(w) == len(u) + len(v) - 2 * n
            assert 0 <= n <= min(len(u), len(v))
            assert len(invert(u)) == len(u)

    def test_associativity_randomized(self):
        G = corpus_group("s3")
        rng = random.Random(5)
        for _ in range(300):
            u, v, w = (random_reduced(rng, G) for _ in range(3))
            left = multiply(multiply(u, v)[0], w)[0]
            right = multiply(u, multiply(v, w)[0])[0]
            assert left == right


class TestTwistedAutomorphism:
    def test_validation(self):
        G = corpus_group("s3")
        with pytest.raises(InvalidLetterError):
            TwistedAutomorphism(G, (1, 0, 2, 3, 4, 5), 0)  # moves identity
        with pytest.raises(InvalidLetterError):
            TwistedAutomorphism(G, (0, 2, 1, 3, 4, 5), 0)  # not multiplicative

    def test_apply_example_z2(self):
        Z2 = cyclic_group(2)
        t = TwistedAutomorphism(Z2, (0, 1), 1)
        v = ReducedWord(Z2, (0, 0), (1,))
        assert apply_twisted(t, v) == ReducedWord(Z2, (1, 0), (1,))

    def test_apply_example_z2_negative(self):
        Z2 = cyclic_group(2)
        t = TwistedAutomorphism(Z2, (0, 1), 1)
        v = ReducedWord(Z2, (0, 0), (-1,))
        assert apply_twisted(t, v) == ReducedWord(Z2, (0, 1), (-1,))

    def test_single_letter(self):
        G = corpus_group("s3")
        for phi in all_automorphisms(G)[:3]:
            t = TwistedAutomorphism(G, phi, 2)
            assert apply_twisted(t, ReducedWord(G, (4,), ())) == ReducedWord(
                G, (phi[4],), ()
            )

    def test_length_preserved_and_multiplicative(self):
        G = corpus_group("s3")
        rng = random.Random(31)
        autos = all_automorphisms(G)
        for _ in range(300):
            t = TwistedAutomorphism(G, rng.choice(autos), rng.randrange(G.order))
            u = random_reduced(rng, G)
            v = random_reduced(rng, G)
            pu = apply_twisted(t, u)
            assert len(pu) == len(u)
            lhs = apply_twisted(t, multiply(u, v)[0])
            rhs = multiply(pu, apply_twisted(t, v))[0]
            assert lhs == rhs


class TestTwistedOrderCheck:
    def test_z2_true(self):
        Z2 = cyclic_group(2)
        assert twisted_order_check(TwistedAutomorphism(Z2, (0, 1), 1), 2)

    def test_z3_false(self):
        Z3 = cyclic_group(3)
        assert not twisted_order_check(TwistedAutomorphism(Z3, (0, 1, 2), 1), 2)

    def test_trivial_p(self):
        G = corpus_group("s3")
        for phi in all_automorphisms(G):
            d = 1
            cur = phi
            while cur != tuple(range(G.order)):
                cur = tuple(phi[x] for x in cur)
                d += 1
            assert twisted_order_check(TwistedAutomorphism(G, phi, 0), d)

    def test_rejects_bad_d(self):
        Z3 = cyclic_group(3)
        t = TwistedAutomorphism(Z3, (0, 2, 1), 0)
        with pytest.raises(InvalidOrderError):
            twisted_order_check(t, 0)
        with pytest.raises(InvalidOrderError):
            twisted_order_check(t, 3)


class TestEliminateB:
    def test_z3_example(self):
        Z3 = cyclic_group(3)
        t = TwistedAutomorphism(Z3, (0, 1, 2), 1)
        assert eliminate_b(t, 1) == (2, 0, 0)

    def test_z3_unsolvable(self):
        Z3 = cyclic_group(3)
        t = TwistedAutomorphism(Z3, (0, 1, 2), 0)
        assert eliminate_b(t, 1) is None

    def test_identity_q(self):
        G = corpus_group("s3")
        t = TwistedAutomorphism(G, tuple(range(6)), 3)
        assert eliminate_b(t, 0) == (1, 0, 0)

    def test_construct_vw_shapes(self):
        G = corpus_group("s3")
        v, w = construct_vw(G, 1, 2, 3)
        assert (v.bases, v.exps) == ((2,), ())
        assert (w.bases, w.exps) == ((3,), ())
        v, w = construct_vw(G, 4, 2, 3)
        assert (v.bases, v.exps) == ((0, 2, 0), (-1, 1))
        assert (w.bases, w.exps) == ((0, 3), (-1,))

    def test_construct_vw_bad_case(self):
        G = corpus_group("s3")
        with pytest.raises(InvalidLetterError):
            construct_vw(G, 5, 0, 0)

    def test_matches_all_pairs_oracle(self):
        # the class-index shortcut returns the first (case, x, y) of the
        # all-pairs search on every (phi, p, q)
        groups = [cyclic_group(n) for n in range(2, 7)] + [
            corpus_group(name) for name in ("s3", "d4", "q8")
        ]
        for G in groups:
            for phi in automorphism_group(G):
                for p in range(G.order):
                    t = TwistedAutomorphism(G, phi, p)
                    for q in range(G.order):
                        assert eliminate_b(t, q) == eliminate_b_all_pairs(t, q), (
                            G.name, phi, p, q,
                        )

    def test_solutions_verify(self):
        # every eliminate_b hit satisfies psi(v) v^-1 = w q w^-1
        G = corpus_group("s3")
        autos = all_automorphisms(G)
        for phi in autos:
            for p in range(G.order):
                t = TwistedAutomorphism(G, phi, p)
                for q in range(G.order):
                    sol = eliminate_b(t, q)
                    if sol is None:
                        continue
                    v, w = construct_vw(G, *sol)
                    lhs = multiply(apply_twisted(t, v), invert(v))[0]
                    rhs = conjugate(w, word(G, q))
                    assert lhs == rhs


class TestSearchTwistedSolution:
    def test_finds_planted_solutions(self):
        G = corpus_group("s3")
        rng = random.Random(11)
        autos = all_automorphisms(G)
        for _ in range(40):
            t = TwistedAutomorphism(G, rng.choice(autos), rng.randrange(G.order))
            v = random_reduced(rng, G, max_len=3)
            u = multiply(apply_twisted(t, v), invert(v))[0]
            got = search_twisted_solution(t, u)
            assert got is not None  # re-verified inside the search

    def test_wrong_kernel_result_raises(self, monkeypatch):
        # the re-verification on the words is an explicit check, so it also
        # holds under python -O
        G = corpus_group("s3")
        t = TwistedAutomorphism(G, tuple(range(G.order)), 1)
        u = multiply(apply_twisted(t, word(G, "b")), invert(word(G, "b")))[0]
        monkeypatch.setattr(
            words.backend, "twisted_search", lambda *args: ((2, 0), (1,))
        )
        with pytest.raises(InternalInconsistencyError):
            search_twisted_solution(t, u)

    def test_no_solution(self):
        Z3 = cyclic_group(3)
        t = TwistedAutomorphism(Z3, (0, 1, 2), 0)
        # psi = id, so psi(v) v^-1 = 1 always; any non-identity target fails
        assert search_twisted_solution(t, ReducedWord(Z3, (1,), ())) is None


class TestTextFormat:
    def test_roundtrip(self):
        G = corpus_group("s3")
        rng = random.Random(1)
        for _ in range(100):
            w = random_reduced(rng, G)
            assert parse_word(format_word(w), G) == w

    def test_parse_normalizes(self):
        G = corpus_group("s3")
        assert parse_word("g:1 b b- g:2", G) == ReducedWord(G, (G.mul(1, 2),), ())

    def test_parse_rejects_garbage(self):
        G = corpus_group("s3")
        with pytest.raises(InvalidLetterError):
            parse_word("g:1 q", G)
        with pytest.raises(InvalidLetterError):
            parse_word("g:9", G)
