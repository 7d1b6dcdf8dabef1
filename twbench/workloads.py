"""The four workloads: what each builds at set-up, how it makes its cases
from a seed, how it calls the program on one case, and how it checks the
outputs against ``reference``.

``fixtures()`` builds the program objects a user would build before the
first query (the groups) and is part of set-up time.  ``blocks(fx, seed,
count)`` yields ``count`` lists of cases; a block is about one second of
calls on the reference machine, and a run of ``--seconds S`` does S blocks,
so the work is fixed by the seed and S and never by a clock.  ``call(fx,
case)`` makes only program calls and is the part that is timed; ``check(fx,
case, out)`` returns an error message or None.  The program is reached
through module attributes (``groups.vondyck(...)``) so that the traced
run's wrappers see every call.  Each workload imports the program modules
it uses inside its own methods, so that set-up loads only what
``import triangle_words.cli`` and the workload's fixtures load.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import reference as ref


class Workload:
    name = ""

    def fixtures(self) -> dict:
        return {}

    def check_fixtures(self, fx):
        return None

    def blocks(self, fx, seed: int, count: int):
        raise NotImplementedError

    def call(self, fx, case):
        raise NotImplementedError

    def check(self, fx, case, out):
        raise NotImplementedError


# -- classify-sweep ------------------------------------------------------------
# Distinct signatures (k,l,m) from the box [2, 30]^3, so no input repeats in
# a run.  Per signature: the multiplier set, Burnside verdicts for up to 48
# units r, Honda verdicts on both routes for (k, m) and up to 48 units, four
# fiber counts and four segment tests.  Numpy is never needed here.

SWEEP_BOX = range(2, 31)
SWEEP_PER_BLOCK = 300
SWEEP_UNITS = 48


def _sample_units(rng, n):
    us = ref.units(n) if n > 2 else [1]
    if len(us) <= SWEEP_UNITS:
        return us
    ends = {1, n - 1}
    return sorted(ends | set(rng.sample([u for u in us if u not in ends], SWEEP_UNITS - 2)))


class ClassifySweep(Workload):
    name = "classify-sweep"

    def blocks(self, fx, seed, count):
        rng = random.Random(seed)
        box = [(k, l, m) for k in SWEEP_BOX for l in SWEEP_BOX for m in SWEEP_BOX]
        picks = rng.sample(box, min(len(box), count * SWEEP_PER_BLOCK))
        for start in range(0, len(picks), SWEEP_PER_BLOCK):
            yield [self._case(rng, *sig) for sig in picks[start:start + SWEEP_PER_BLOCK]]

    @staticmethod
    def _case(rng, k, l, m):
        fibers = [(a, b) for a in range(1, k) for b in range(1, l) if a * l + b * k < k * l]
        segments = []
        if m >= 3:
            segments = [(rng.choice(ref.units(m)), rng.randrange(1, m - 1)) for _ in range(4)]
        return (
            (k, l, m),
            _sample_units(rng, math.lcm(k, l, m)),
            _sample_units(rng, math.lcm(k, m)),
            rng.sample(fibers, min(4, len(fibers))),
            segments,
        )

    def call(self, fx, case):
        from triangle_words import classify, lattice, residue

        (k, l, m), burnside_rs, honda_rs, fibers, segments = case
        sig = lattice.TriangleSignature(k, l, m)
        mset = lattice.multiplier_set(sig)
        burnside = [classify.classify_burnside(k, l, m, r) for r in burnside_rs]
        honda = [
            (classify.classify_honda(k, m, r), classify.classify_honda_via_burnside(k, m, r))
            for r in honda_rs
        ]
        fiber = [lattice.fiber_count(sig, a, b) for a, b in fibers]
        segment = [residue.segment_perm_check(m, r, c) for r, c in segments]
        return mset, burnside, honda, fiber, segment

    def check(self, fx, case, out):
        (k, l, m), burnside_rs, honda_rs, fibers, segments = case
        mset, burnside, honda, fiber, segment = out
        values = {u.value for u in mset}
        if values != ref.multiplier_property(k, l, m):
            return f"multiplier_set{(k, l, m)} = {sorted(values)}"
        for r, verdict in zip(burnside_rs, burnside):
            want = ref.burnside_rule(k, l, m, r)
            if verdict.reason.value != want or verdict.universal != (r in values):
                return f"classify_burnside{(k, l, m, r)} = {verdict}, rule {want}"
        for r, (direct, via) in zip(honda_rs, honda):
            want = ref.honda_rule(k, m, r)
            if direct.reason.value != want or via.reason.value != want:
                return f"classify_honda{(k, m, r)} = {direct} / {via}, rule {want}"
        for (a, b), got in zip(fibers, fiber):
            want = ref.fiber_size(k, l, m, a, b)
            if got != (want, want):
                return f"fiber_count{(k, l, m, a, b)} = {got}, want {want}"
        for (r, c), got in zip(segments, segment):
            if got != ref.segment_rule(m, r, c):
                return f"segment_perm_check{(m, r, c)} = {got}"
        return None


# -- group-witness ---------------------------------------------------------------
# A ten-block cycle covers, in seeded order: the dihedral families (2,2,n)
# for n in 14..33, each twice in seeded orientations, four per block, two
# below 24 and two above; the fifteen other spherical signatures once; each
# for every unit r; lemma 4.2 on (2,2,m) for m in 14..23, three seeded units
# each, and on (3,3,2).  Signatures repeat across r, so a realization cache
# would show here only.  Each block adds one Burnside counting check on a
# small group, four multiplier_set_finite calls, and on two seeded blocks of
# the cycle a Burnside counting check on S6, the costly tail.  The dihedral
# witness cases are most of all cases (the README gives the measured share
# and span), so the median and p90 both fall inside that one band.

DIHEDRAL_SMALL = tuple(range(14, 24))
DIHEDRAL_LARGE = tuple(range(24, 34))
LEMMA_M = tuple(range(14, 24))
LEMMA_UNITS = 3
TABLE_SIGNATURES = tuple(
    sig
    for base in ((2, 3, 3), (2, 3, 4), (2, 3, 5))
    for sig in sorted(
        {(base[i], base[j], base[3 - i - j]) for i in range(3) for j in range(3) if i != j}
    )
)
CYCLE = 10


def _symmetric_generators(n):
    swap = (1, 0) + tuple(range(2, n))
    cycle = tuple(range(1, n)) + (0,)
    return [swap, cycle]


class GroupWitness(Workload):
    name = "group-witness"

    def fixtures(self):
        from triangle_words import groups

        fx = {
            "S5": groups.enumerate_group(_symmetric_generators(5), name="S5"),
            "S6": groups.enumerate_group(_symmetric_generators(6), name="S6"),
        }
        for name in groups.CORPUS_NAMES:
            fx[name] = groups.corpus_group(name)
        return fx

    def check_fixtures(self, fx):
        for name, n in (("S5", 5), ("S6", 6)):
            G = fx[name]
            if G.order != math.factorial(n) or len(G.conjugacy_classes()) != ref.partitions(n):
                return f"{name}: order {G.order}, {len(G.conjugacy_classes())} classes"
        return None

    def blocks(self, fx, seed, count):
        from triangle_words import groups

        rng = random.Random(seed)
        small = list(groups.CORPUS_NAMES) + ["S5"]
        for start in range(0, count, CYCLE):
            small_n = rng.sample(DIHEDRAL_SMALL, CYCLE)
            large_n = rng.sample(DIHEDRAL_LARGE, CYCLE)
            lemma = rng.sample(LEMMA_M, CYCLE)
            table = rng.sample(TABLE_SIGNATURES, len(TABLE_SIGNATURES))
            s6_blocks = set(rng.sample(range(CYCLE), 2))
            for j in range(min(CYCLE, count - start)):
                family = (small_n[j], large_n[j], small_n[-1 - j], large_n[-1 - j])
                sigs = [rng.choice([(2, 2, n), (2, n, 2), (n, 2, 2)]) for n in family]
                sigs += table[j * len(table) // CYCLE:(j + 1) * len(table) // CYCLE]
                block = [
                    ("witness", k, l, m, r)
                    for k, l, m in sigs
                    for r in ref.units(math.lcm(k, l, m))
                ]
                units = ref.units(math.lcm(2, lemma[j]))
                block += [("lemma42", 2, lemma[j], r) for r in rng.sample(units, LEMMA_UNITS)]
                if j == 0:
                    block += [("lemma42", 3, 2, r) for r in ref.units(6)]
                for name in [rng.choice(small)] + (["S6"] if j in s6_blocks else []):
                    block.append(("bcc", name, rng.choice(ref.units(fx[name].exponent()))))
                for _ in range(4):
                    name = rng.choice(small + ["S6"])
                    block.append(("msf", name) + tuple(rng.randrange(2, 7) for _ in range(3)))
                rng.shuffle(block)
                yield block

    def call(self, fx, case):
        from triangle_words import groups

        kind = case[0]
        if kind == "witness":
            _, k, l, m, r = case
            return groups.vondyck(k, l, m), groups.universal_witness(k, l, m, r)
        if kind == "lemma42":
            return groups.lemma42_check(*case[1:])
        if kind == "bcc":
            return groups.burnside_count_check(fx[case[1]], case[2])
        return groups.multiplier_set_finite(fx[case[1]], *case[2:])

    def check(self, fx, case, out):
        kind = case[0]
        if kind == "witness":
            _, k, l, m, r = case
            real, (g, h) = out
            perms = real.group.perms
            a, c = perms[real.a_id], perms[real.c_id]
            if real.group.order != ref.realization_order(k, l, m):
                return f"vondyck{(k, l, m)} has order {real.group.order}"
            if not ref.relations_hold(a, c, k, l, m):
                return f"vondyck{(k, l, m)} generators break the relations"
            if not ref.witness_holds(a, c, perms[g], perms[h], r):
                return f"universal_witness{(k, l, m, r)} = {(g, h)} does not verify"
            return None
        if kind == "msf":
            got = {u.value for u in out}
            return None if got == set(ref.units(math.lcm(*case[2:]))) else f"{case}: {sorted(got)}"
        return None if out is True else f"{case} returned {out!r}"


# -- word-elim -------------------------------------------------------------------
# Per block, for each of ten small groups: ten instances (G, phi, p, q) that
# b-elimination solves and five it does not, drawn by the reference's own
# solvability test.  Each unsolvable instance also gets the exhaustive
# search on two targets; max_len is 3 up to order 5 and 2 above, which keeps
# one search under about 25 ms.  Every case adds six normalize / multiply /
# apply_twisted round trips on seeded random letter strings.

WORD_SOLVED = 10
WORD_UNSOLVED = 5
WORD_TRIPS = 6
WORD_CYCLIC = (2, 3, 4, 5, 6)
WORD_CORPUS = ("s3", "d4", "q8", "d5", "a4")


def _cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def _program_letters(seq):
    from triangle_words import words

    return [words.BaseLetter(x) if kind == "g" else words.BLetter(x) for kind, x in seq]


class WordElim(Workload):
    name = "word-elim"

    def fixtures(self):
        from triangle_words import groups

        pool = [groups.from_table(_cyclic_table(n), name=f"c{n}") for n in WORD_CYCLIC]
        return {"pool": pool + [groups.corpus_group(name) for name in WORD_CORPUS]}

    def blocks(self, fx, seed, count):
        from triangle_words import groups

        rng = random.Random(seed)
        # The reference's own tables: the cyclic ones as built here, the
        # corpus ones composed from their permutations or read from the file.
        fx["ref"] = [ref.RefGroup(_cyclic_table(n)) for n in WORD_CYCLIC]
        data = Path(groups.__file__).resolve().parent / "data" / "groups"
        for G, name in zip(fx["pool"][len(WORD_CYCLIC):], WORD_CORPUS):
            if G.perms is not None:
                fx["ref"].append(ref.RefGroup.from_perms(G.perms))
            else:
                fx["ref"].append(ref.RefGroup(json.loads((data / f"{name}.json").read_text())["table"]))
        info = [(R, R.automorphisms(), R.classes()) for R in fx["ref"]]
        for _ in range(count):
            block = []
            for gi, (R, autos, classes) in enumerate(info):
                want = {True: WORD_SOLVED, False: WORD_UNSOLVED}
                while any(want.values()):
                    phi, p, q = rng.choice(autos), rng.randrange(R.order), rng.randrange(R.order)
                    first = ref.elimination_first(R, phi, p, q, classes)
                    if want[first is not None]:
                        want[first is not None] -= 1
                        block.append(self._case(rng, gi, R.order, phi, p, q, first))
            rng.shuffle(block)
            yield block

    @staticmethod
    def _case(rng, gi, order, phi, p, q, first):
        def letters():
            return [
                ("g", rng.randrange(order)) if rng.random() < 0.5 else ("b", rng.choice((1, -1)))
                for _ in range(rng.randrange(3, 10))
            ]

        trips = [(letters(), letters()) for _ in range(WORD_TRIPS)]
        conj = [("b", rng.choice((1, -1))), ("g", rng.randrange(order))]
        max_len = 3 if order <= 5 else 2
        return gi, phi, p, q, first, conj, max_len, trips

    def call(self, fx, case):
        from triangle_words import words

        gi, phi, p, q, first, conj, max_len, trips = case
        G = fx["pool"][gi]
        t = words.TwistedAutomorphism(G, phi, p)
        sol = words.eliminate_b(t, q)
        searched = vw = None
        if sol is None:
            target = words.word(G, q)
            w = words.normalize(_program_letters(conj), G)
            conjugated = words.multiply(words.multiply(w, target)[0], words.invert(w))[0]
            searched = [
                words.search_twisted_solution(t, u, max_len) for u in (target, conjugated)
            ]
        else:
            vw = words.construct_vw(G, *sol)
        trip_out = []
        for left, right in trips:
            u = words.normalize(_program_letters(left), G)
            v = words.normalize(_program_letters(right), G)
            trip_out.append(
                (u, v, words.multiply(u, v), words.apply_twisted(t, u),
                 words.multiply(u, words.invert(u))[0])
            )
        return sol, vw, searched, trip_out

    def check(self, fx, case, out):
        gi, phi, p, q, first, conj, max_len, trips = case
        G, R = fx["pool"][gi], fx["ref"][gi]
        sol, vw, searched, trip_out = out
        if sol != first:
            return f"eliminate_b on {G.name} phi={phi} p={p} q={q}: {sol}, reference {first}"
        if sol is None:
            if searched != [None, None]:
                return f"search_twisted_solution found {searched} for an unsolvable instance"
        else:
            v, w = (ref.letters_of(x.bases, x.exps) for x in vw)
            lhs = ref.twist_letters(phi, p, R, v) + ref.invert_letters(R, v)
            rhs = w + [("g", q)] + ref.invert_letters(R, w)
            if ref.reduce_word(R, lhs) != ref.reduce_word(R, rhs):
                return f"construct_vw{sol} on {G.name} does not solve psi(v) v^-1 = w q w^-1"
        for (left, right), (u, v, (uv, cancelled), tu, unit) in zip(trips, trip_out):
            want_u, want_v = ref.reduce_word(R, left), ref.reduce_word(R, right)
            want_uv = ref.reduce_word(R, left + right)
            want_tu = ref.reduce_word(R, ref.twist_letters(phi, p, R, ref.letters_of(*want_u)))
            if (u.bases, u.exps) != want_u or (v.bases, v.exps) != want_v:
                return f"normalize on {G.name}: {left} -> {(u.bases, u.exps)}, want {want_u}"
            if (uv.bases, uv.exps) != want_uv or len(u) + len(v) - 2 * cancelled != len(uv):
                return f"multiply on {G.name}: {left} * {right}"
            if (tu.bases, tu.exps) != want_tu:
                return f"apply_twisted on {G.name}: {left}"
            if (unit.bases, unit.exps) != ((0,), ()):
                return f"u * u^-1 on {G.name} is {(unit.bases, unit.exps)}"
        return None


# -- numeric-crosscheck ----------------------------------------------------------
# Per block, 32 elliptic triples with representatives p/q, q <= 12, whose sum
# lies in (1, 2) and 32 whose sum lies outside, all at least 0.05 from the
# boundary where the numeric search declines to answer.

NUMERIC_SIDE = 32
NUMERIC_MARGIN = Fraction(1, 20)


class NumericCrosscheck(Workload):
    name = "numeric-crosscheck"

    def blocks(self, fx, seed, count):
        rng = random.Random(seed)
        reps = sorted({Fraction(p, q) for q in range(2, 13) for p in range(1, q)})
        for _ in range(count):
            want = {True: NUMERIC_SIDE, False: NUMERIC_SIDE}
            block = []
            while any(want.values()):
                triple = tuple(rng.choice(reps) for _ in range(3))
                s = sum(triple)
                if abs(s - 1) < NUMERIC_MARGIN or abs(s - 2) < NUMERIC_MARGIN:
                    continue
                solvable = ref.orevkov_rule(*triple)
                if want[solvable]:
                    want[solvable] -= 1
                    block.append(triple)
            yield block

    def call(self, fx, case):
        from triangle_words import psl2

        a, b, c = (psl2.Angle(x) for x in case)
        return psl2.orevkov_solvable(a, b, c), psl2.numeric_triple_solvable(a, b, c)

    def check(self, fx, case, out):
        want = ref.orevkov_rule(*case)
        if out != (want, want):
            return f"orevkov {case}: exact/numeric {out}, rule {want}"
        return None


WORKLOADS = {
    w.name: w for w in (ClassifySweep(), GroupWitness(), WordElim(), NumericCrosscheck())
}
