"""Reference computations the benchmark checks the program against.

Nothing here imports ``triangle_words``: each rule is recomputed from its
definition, with ``Fraction`` for the rational inequalities, a direct
search for the twisted residue r*, permutation composition for the
finite-group identities and a stack for free-product reduction.
``python3 twbench/reference.py`` runs the hand-checked self-test.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm


def units(n: int) -> list[int]:
    """Least positive representatives of the units of Z/nZ, n >= 2."""
    return [r for r in range(1, n) if gcd(r, n) == 1]


def _is_pm1(r: int, n: int) -> bool:
    return r % n in (1 % n, n - 1)


# -- arithmetic core --------------------------------------------------------

def burnside_rule(k: int, l: int, m: int, r: int) -> str:
    """Reason tag of the product classification: the sum clause first,
    then r = +-1 mod lcm(k,l,m)."""
    if Fraction(1, k) + Fraction(1, l) + Fraction(1, m) >= 1:
        return "SUM_AT_LEAST_ONE"
    if _is_pm1(r, lcm(k, l, m)):
        return "R_IS_PM1"
    return "NONE"


def twist(k: int, m: int, r: int) -> int:
    """r* mod lcm(k,m) by direct search: the unique x = r (mod k) with
    x = -r (mod m), walking the residues r, r+k, r+2k, ... below lcm."""
    n = lcm(k, m)
    found = [x for x in range(r % k, n, k) if (x + r) % m == 0]
    if len(found) != 1:
        raise ValueError(f"r*={found} for k={k}, m={m}, r={r}")
    return found[0]


def honda_rule(k: int, m: int, r: int) -> str:
    """Reason tag of the commutator classification."""
    if Fraction(2, k) + Fraction(1, m) >= 1:
        return "SUM_AT_LEAST_ONE"
    n = lcm(k, m)
    if _is_pm1(r, n):
        return "R_IS_PM1"
    if gcd(k, m) <= 2 and _is_pm1(twist(k, m, r), n):
        return "RSTAR_IS_PM1"
    return "NONE"


def multiplier_property(k: int, l: int, m: int) -> set[int]:
    """What the multiplier set must be: {+-1} on hyperbolic signatures and
    the whole unit group otherwise."""
    n = lcm(k, l, m)
    if Fraction(1, k) + Fraction(1, l) + Fraction(1, m) < 1:
        return {1 % n, n - 1}
    return set(units(n))


def fiber_size(k: int, l: int, m: int, a: int, b: int) -> int:
    """#{c in 1..m-1 : a/k + b/l + c/m < 1}."""
    base = Fraction(a, k) + Fraction(b, l)
    return sum(1 for c in range(1, m) if base + Fraction(c, m) < 1)


def segment_rule(m: int, r: int, c: int) -> bool:
    """Whether {1..c} and {r, 2r, ..., cr} coincide mod m."""
    return {r * i % m for i in range(1, c + 1)} == set(range(1, c + 1))


# -- finite groups -----------------------------------------------------------

def realization_order(k: int, l: int, m: int) -> int:
    """Order 2klm / (lm + km + kl - klm) of the spherical von Dyck group."""
    q = Fraction(2 * k * l * m, l * m + k * m + k * l - k * l * m)
    if q.denominator != 1 or q <= 0:
        raise ValueError(f"({k},{l},{m}) is not spherical")
    return int(q)


def compose(p, q):
    """The product p*q of 0-based permutations: q acts first, then p."""
    return tuple(p[x] for x in q)


def perm_inverse(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def perm_power(p, n: int):
    if n < 0:
        p, n = perm_inverse(p), -n
    out = tuple(range(len(p)))
    for _ in range(n):
        out = compose(out, p)
    return out


def witness_holds(a, c, g, h, r: int) -> bool:
    """a^r g (a^-1 c)^r g^-1 == h c^r h^-1, evaluated on permutations."""
    lhs = compose(
        perm_power(a, r),
        compose(compose(g, perm_power(compose(perm_inverse(a), c), r)), perm_inverse(g)),
    )
    rhs = compose(compose(h, perm_power(c, r)), perm_inverse(h))
    return lhs == rhs


def relations_hold(a, c, k: int, l: int, m: int) -> bool:
    """a^k = (a^-1 c)^l = c^m = 1."""
    ident = tuple(range(len(a)))
    return (
        perm_power(a, k) == ident
        and perm_power(c, m) == ident
        and perm_power(compose(perm_inverse(a), c), l) == ident
    )


def partitions(n: int) -> int:
    """The partition number p(n), which is the class count of S_n."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


class RefGroup:
    """A finite group given by its own multiplication table (ids 0..n-1,
    0 the identity), kept apart from the program's tables."""

    def __init__(self, table):
        self.table = [list(row) for row in table]
        self.order = len(self.table)
        self.inv = [row.index(0) for row in self.table]

    @classmethod
    def from_perms(cls, perms):
        index = {tuple(p): i for i, p in enumerate(perms)}
        return cls([[index[compose(p, q)] for q in perms] for p in perms])

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def conj(self, y: int, x: int) -> int:
        return self.table[self.table[y][x]][self.inv[y]]

    def classes(self) -> list[int]:
        """Class index of every element."""
        out = [-1] * self.order
        count = 0
        for g in range(self.order):
            if out[g] < 0:
                for y in range(self.order):
                    out[self.conj(y, g)] = count
                count += 1
        return out

    def automorphisms(self) -> list[tuple[int, ...]]:
        """All automorphisms, by trying every image of a generating set."""
        gens, reached = [], {0}
        for g in range(1, self.order):
            if g not in reached:
                gens.append(g)
                reached = self._closure(gens)
        words = {0: ()}
        frontier = [0]
        while frontier:
            cur = frontier.pop(0)
            for gi, g in enumerate(gens):
                nxt = self.mul(cur, g)
                if nxt not in words:
                    words[nxt] = words[cur] + (gi,)
                    frontier.append(nxt)
        out = []
        for images in product(range(self.order), repeat=len(gens)):
            phi = [0] * self.order
            for e, w in words.items():
                cur = 0
                for gi in w:
                    cur = self.mul(cur, images[gi])
                phi[e] = cur
            if sorted(phi) == list(range(self.order)) and all(
                phi[self.mul(x, y)] == self.mul(phi[x], phi[y])
                for x in range(self.order)
                for y in range(self.order)
            ):
                out.append(tuple(phi))
        return out

    def _closure(self, gens):
        reached, frontier = {0}, [0]
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = self.mul(cur, g)
                if nxt not in reached:
                    reached.add(nxt)
                    frontier.append(nxt)
        return reached


# -- words in G * <b> --------------------------------------------------------
# A letter is ("g", id) or ("b", +-1); a reduced word is (bases, exps) with
# one more base letter than b-letters, identities filling the gaps.

def reduce_word(G: RefGroup, letters) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Free-product reduction with a stack, left to right."""
    stack: list[tuple[str, int]] = []
    for kind, x in letters:
        if kind == "g":
            if stack and stack[-1][0] == "g":
                x = G.mul(stack.pop()[1], x)
            if x != 0:
                stack.append(("g", x))
        elif stack and stack[-1] == ("b", -x):
            stack.pop()
        else:
            stack.append(("b", x))
    bases, exps, pending = [], [], 0
    for kind, x in stack:
        if kind == "g":
            pending = x
        else:
            bases.append(pending)
            exps.append(x)
            pending = 0
    bases.append(pending)
    return tuple(bases), tuple(exps)


def letters_of(bases, exps) -> list[tuple[str, int]]:
    out = [("g", bases[0])]
    for e, x in zip(exps, bases[1:]):
        out += [("b", e), ("g", x)]
    return out


def invert_letters(G: RefGroup, letters):
    return [("g", G.inv[x]) if kind == "g" else ("b", -x) for kind, x in reversed(letters)]


def twist_letters(phi, p: int, G: RefGroup, letters):
    """psi letter by letter: g -> phi(g), b -> p b, b^-1 -> b^-1 p^-1."""
    out = []
    for kind, x in letters:
        if kind == "g":
            out.append(("g", phi[x]))
        elif x == 1:
            out += [("g", p), ("b", 1)]
        else:
            out += [("b", -1), ("g", G.inv[p])]
    return out


def elimination_first(G: RefGroup, phi, p: int, q: int, classes):
    """First (case, x, y) solving one of the four base-group equations of
    b-elimination, or None; ``classes`` is G.classes()."""
    pinv = G.inv[p]
    forms = (
        lambda x: G.mul(phi[x], G.inv[x]),
        lambda x: G.mul(G.mul(phi[x], p), G.inv[x]),
        lambda x: G.mul(G.mul(pinv, phi[x]), G.inv[x]),
        lambda x: G.mul(G.mul(G.mul(pinv, phi[x]), p), G.inv[x]),
    )
    for case, form in enumerate(forms, start=1):
        for x in range(G.order):
            lhs = form(x)
            if classes[lhs] == classes[q]:
                y = next(y for y in range(G.order) if G.conj(y, q) == lhs)
                return case, x, y
    return None


# -- PSL2(R) -------------------------------------------------------------------

def orevkov_rule(a: Fraction, b: Fraction, c: Fraction) -> bool:
    """Elliptic classes with representatives in (0,1) multiply to 1 iff
    their sum avoids the open interval (1, 2)."""
    return not 1 < a + b + c < 2


# -- self-test on hand-checked cases -------------------------------------------

def selftest() -> None:
    """Raise ValueError on the first rule that disagrees with a case
    checked by hand."""
    cyc3 = RefGroup([[(i + j) % 3 for j in range(3)] for i in range(3)])
    s3 = RefGroup.from_perms([
        (0, 1, 2), (1, 0, 2), (0, 2, 1), (1, 2, 0), (2, 0, 1), (2, 1, 0),
    ])
    checks = [
        ("units(12)", units(12), [1, 5, 7, 11]),
        ("burnside (2,3,5)", burnside_rule(2, 3, 5, 7), "SUM_AT_LEAST_ONE"),
        ("burnside (2,3,7) r=41", burnside_rule(2, 3, 7, 41), "R_IS_PM1"),
        ("burnside (2,3,7) r=5", burnside_rule(2, 3, 7, 5), "NONE"),
        # k=4, m=5, r=3: x = 3 (mod 4) and x = 2 (mod 5) give x = 7
        ("twist(4,5,3)", twist(4, 5, 3), 7),
        ("twist(3,4,1)", twist(3, 4, 1), 7),
        ("honda (3,4) r=1", honda_rule(3, 4, 1), "R_IS_PM1"),
        ("honda (3,4) r=5", honda_rule(3, 4, 5), "RSTAR_IS_PM1"),
        ("honda (5,5) r=2", honda_rule(5, 5, 2), "NONE"),
        ("honda (2,7) r=3", honda_rule(2, 7, 3), "SUM_AT_LEAST_ONE"),
        ("multiplier (2,3,7)", multiplier_property(2, 3, 7), {1, 41}),
        ("multiplier (2,3,4)", multiplier_property(2, 3, 4), {1, 5, 7, 11}),
        ("fiber (2,3,7) a=1 b=1", fiber_size(2, 3, 7, 1, 1), 1),
        ("fiber (3,3,4) a=1 b=1", fiber_size(3, 3, 4, 1, 1), 1),
        ("segment 7,1,3", segment_rule(7, 1, 3), True),
        ("segment 7,6,3", segment_rule(7, 6, 3), False),
        ("segment 5,4,3", segment_rule(5, 4, 3), False),
        ("order (2,3,5)", realization_order(2, 3, 5), 60),
        ("order (2,2,7)", realization_order(2, 2, 7), 14),
        ("order (2,3,3)", realization_order(2, 3, 3), 12),
        ("p(5), p(6)", (partitions(5), partitions(6)), (7, 11)),
        ("compose", compose((1, 2, 0), (1, 0, 2)), (2, 1, 0)),
        ("power", perm_power((1, 2, 0), 2), (2, 0, 1)),
        ("relations D3", relations_hold((1, 0, 2), (0, 2, 1), 2, 3, 2), True),
        ("witness r=1", witness_holds((1, 0, 2), (0, 2, 1), (0, 1, 2), (0, 1, 2), 1), True),
        ("S3 classes", len(set(s3.classes())), 3),
        ("S3 automorphisms", len(s3.automorphisms()), 6),
        ("C3 automorphisms", sorted(cyc3.automorphisms()), [(0, 1, 2), (0, 2, 1)]),
        ("reduce g1 b b-", reduce_word(cyc3, [("g", 1), ("b", 1), ("b", -1), ("g", 2)]), ((0,), ())),
        ("reduce b g0 b", reduce_word(cyc3, [("b", 1), ("g", 0), ("b", 1)]), ((0, 0, 0), (1, 1))),
        ("reduce b g1 b-", reduce_word(cyc3, [("b", 1), ("g", 1), ("b", -1)]), ((0, 1, 0), (1, -1))),
        ("twist b-", twist_letters((0, 2, 1), 1, cyc3, [("b", -1)]), [("b", -1), ("g", 2)]),
        # phi = id, p = 0: phi(x) x^-1 = 1 is conjugate to q only for q = 1
        ("eliminate id q=0", elimination_first(cyc3, (0, 1, 2), 0, 0, cyc3.classes()), (1, 0, 0)),
        ("eliminate id q=1", elimination_first(cyc3, (0, 1, 2), 0, 1, cyc3.classes()), None),
        # phi = id, p = 1: phi(x) p x^-1 = 1 for the second form
        ("eliminate p=1 q=1", elimination_first(cyc3, (0, 1, 2), 1, 1, cyc3.classes()), (2, 0, 0)),
        ("orevkov 1/2 1/3 1/7", orevkov_rule(Fraction(1, 2), Fraction(1, 3), Fraction(1, 7)), True),
        ("orevkov 1/2 1/2 1/2", orevkov_rule(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)), False),
    ]
    for label, got, want in checks:
        if got != want:
            raise ValueError(f"reference self-test failed: {label}: {got!r} != {want!r}")


if __name__ == "__main__":
    selftest()
    print("reference self-test passed")
