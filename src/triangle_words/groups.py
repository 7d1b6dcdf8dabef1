"""Finite-group engine: permutation-group enumeration, conjugacy classes,
class-product counting, spherical von Dyck realizations and witness searches.

Elements are integer ids with 0 = identity.  Groups are immutable after
construction.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources

from .residue import InternalInconsistencyError, UnitResidue, as_unit

DEFAULT_CAP = 10000


class GroupError(ValueError):
    pass


class TooLargeError(GroupError):
    pass


class MixedGroupError(GroupError):
    pass


class InvalidSError(GroupError):
    pass


class NotFiniteError(GroupError):
    """The von Dyck group for this signature is infinite."""


def _compose(p, q):
    # apply q first, then p
    return tuple(p[q[x]] for x in range(len(p)))


def group_order_cap() -> int:
    value = os.environ.get("TRIANGLE_WORDS_CAP")
    return int(value) if value else DEFAULT_CAP


class FiniteGroup:
    """Enumerated finite group with multiplication and inverse tables.

    ``perms`` holds a 0-based permutation per element when the group was
    built from permutation generators (used for printable witnesses).
    """

    def __init__(self, table, perms=None, name="group"):
        self.order = len(table)
        self._mul = [list(row) for row in table]
        self.perms = list(perms) if perms is not None else None
        self.name = name
        self._validate()
        self._inv = [row.index(0) for row in self._mul]
        self._element_orders = [self._compute_order(i) for i in range(self.order)]
        self._classes = self._conjugacy_partition()
        self._class_index = [0] * self.order
        for ci, cls in enumerate(self._classes):
            for g in cls:
                self._class_index[g] = ci

    def _validate(self):
        n = self.order
        ids = range(n)
        for i in ids:
            if sorted(self._mul[i]) != list(ids):
                raise GroupError(f"row {i} is not a permutation of element ids")
            if self._mul[0][i] != i or self._mul[i][0] != i:
                raise GroupError("element 0 is not an identity")
            if 0 not in self._mul[i]:
                raise GroupError(f"element {i} has no inverse")
        rng = random.Random(0xC0FFEE)
        for _ in range(min(200, n * n)):
            a, b, c = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            if self._mul[self._mul[a][b]][c] != self._mul[a][self._mul[b][c]]:
                raise GroupError("multiplication table is not associative")

    def _compute_order(self, g):
        k, x = 1, g
        while x != 0:
            x = self._mul[x][g]
            k += 1
        return k

    def _conjugacy_partition(self):
        seen = [False] * self.order
        classes = []
        for g in range(self.order):
            if seen[g]:
                continue
            orbit = {self._mul[self._mul[h][g]][self._inv[h]] for h in range(self.order)}
            for x in orbit:
                seen[x] = True
            classes.append(tuple(sorted(orbit)))
        return classes

    # -- basic operations ------------------------------------------------
    def mul(self, a, b):
        return self._mul[a][b]

    def inv(self, a):
        return self._inv[a]

    def power(self, a, n):
        if n < 0:
            a, n = self._inv[a], -n
        out = 0
        for _ in range(n):
            out = self._mul[out][a]
        return out

    def conj(self, g, x):
        """g x g^-1"""
        return self._mul[self._mul[g][x]][self._inv[g]]

    def commutator(self, x, u):
        """x u x^-1 u^-1"""
        return self._mul[self._mul[x][u]][self._mul[self._inv[x]][self._inv[u]]]

    def order_of(self, g):
        return self._element_orders[g]

    def exponent(self):
        return math.lcm(*self._element_orders)

    def conjugacy_classes(self):
        return [ConjClass(self, members) for members in self._classes]

    def class_of(self, g):
        return ConjClass(self, self._classes[self._class_index[g]])

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return id(self)

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


@dataclass(frozen=True)
class ConjClass:
    group: FiniteGroup = field(compare=False)
    members: tuple[int, ...]

    @property
    def representative(self) -> int:
        return self.members[0]

    def power(self, n: int) -> "ConjClass":
        return self.group.class_of(self.group.power(self.representative, n))

    def __len__(self):
        return len(self.members)

    def __hash__(self):
        return hash((id(self.group), self.members))


def from_table(table, name="group") -> FiniteGroup:
    return FiniteGroup(table, name=name)


def enumerate_group(generators, degree=None, cap=None, name="group") -> FiniteGroup:
    """Breadth-first closure of 0-based permutation generators.

    With no generators the trivial group is returned.  Raises TooLargeError
    when the closure exceeds the cap (TRIANGLE_WORDS_CAP or 10000).
    """
    cap = cap if cap is not None else group_order_cap()
    gens = [tuple(g) for g in generators]
    for g in gens:
        if sorted(g) != list(range(len(g))):
            raise GroupError(f"not a permutation: {g}")
    if degree is None:
        degree = len(gens[0]) if gens else 1
    if any(len(g) != degree for g in gens):
        raise GroupError("generators have mixed degrees")
    ident = tuple(range(degree))
    elems = [ident]
    index = {ident: 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                h = _compose(e, g)
                if h not in index:
                    if len(elems) >= cap:
                        raise TooLargeError(f"group closure exceeds cap {cap}")
                    index[h] = len(elems)
                    elems.append(h)
                    nxt.append(h)
        frontier = nxt
    table = [[index[_compose(p, q)] for q in elems] for p in elems]
    return FiniteGroup(table, perms=elems, name=name)


# -- group files ---------------------------------------------------------

def load_group(path, name=None) -> FiniteGroup:
    """Group file: {"permutations": [[...], ...], "degree": n} with 1-based
    one-line images, or {"table": [[...]]} with 0 = identity."""
    with open(path) as f:
        data = json.load(f)
    return group_from_dict(data, name=name or os.path.basename(str(path)))


def group_from_dict(data, name="group") -> FiniteGroup:
    if "permutations" in data:
        degree = data.get("degree")
        gens = [tuple(x - 1 for x in images) for images in data["permutations"]]
        return enumerate_group(gens, degree=degree, name=name)
    if "table" in data:
        return from_table(data["table"], name=name)
    raise GroupError("group file needs a 'permutations' or 'table' field")


CORPUS_NAMES = ("s3", "d4", "q8", "a4", "d5", "s4", "a5")


@lru_cache(maxsize=None)
def corpus_group(name: str) -> FiniteGroup:
    path = resources.files("triangle_words.data").joinpath(f"groups/{name}.json")
    with path.open() as f:
        data = json.load(f)
    return group_from_dict(data, name=name)


# -- conjugacy-class products --------------------------------------------

def count_products(C: ConjClass, D: ConjClass, z: int) -> int:
    """#{(x, y) in C x D : xy = z}, by double loop."""
    if C.group is not D.group:
        raise MixedGroupError("classes belong to different groups")
    G = C.group
    return sum(1 for x in C.members for y in D.members if G.mul(x, y) == z)


def _class_product_counts(G: FiniteGroup):
    """counts[c][e][d] = #{(x, y) in C_c x C_d : xy = z}, for z the first
    member of C_e.  The count is a class function of z, so one
    representative stands for the whole class; it is found as
    #{x in C_c : x^-1 z in C_d}."""
    index = G._class_index
    n = len(G._classes)
    counts = []
    for C in G._classes:
        per_e = []
        for E in G._classes:
            z, row = E[0], [0] * n
            for x in C:
                row[index[G._mul[G._inv[x]][z]]] += 1
            per_e.append(row)
        counts.append(per_e)
    return counts


def burnside_count_check(G: FiniteGroup, s: int) -> bool:
    """The classical counting identity: raising classes to a power coprime
    to the exponent preserves all class-product multiplicities."""
    if math.gcd(s, G.exponent()) != 1:
        raise InvalidSError(f"s={s} is not coprime to the exponent {G.exponent()}")
    power = [G._class_index[G.power(C[0], s)] for C in G._classes]
    counts = _class_product_counts(G)
    n = len(power)
    return all(
        counts[c][e][d] == counts[power[c]][power[e]][power[d]]
        for c in range(n)
        for e in range(n)
        for d in range(n)
    )


def _torsion_classes(G: FiniteGroup, n: int):
    """Nonidentity classes inside G[n] (classes have uniform element order)."""
    return [
        C
        for C in G.conjugacy_classes()
        if C.representative != 0 and n % G.order_of(C.representative) == 0
    ]


def multiplier_set_finite(G: FiniteGroup, k: int, l: int, m: int) -> set[UnitResidue]:
    """Units r mod lcm(k,l,m) under which every identity-product class
    triple (C, D, E) with orders dividing (k, l, m) stays one."""
    lcm = math.lcm(k, l, m)

    def one_in_product(C, D, E):
        members = set(E.members)
        return any(
            G.inv(G.mul(x, y)) in members for x in C.members for y in D.members
        )

    triples = {
        (C, D, E)
        for C in _torsion_classes(G, k)
        for D in _torsion_classes(G, l)
        for E in _torsion_classes(G, m)
        if one_in_product(C, D, E)
    }
    out = set()
    for r in range(1, lcm + 1):
        if math.gcd(r, lcm) != 1:
            continue
        if all((C.power(r), D.power(r), E.power(r)) in triples for C, D, E in triples):
            out.add(UnitResidue(lcm, r))
    return out


# -- spherical von Dyck realizations -------------------------------------

# Frozen 0-based generator permutations (a, c) per non-dihedral spherical
# signature; relations and order are re-verified at construction.
_SPHERICAL_TABLE = {
    (2, 3, 3): ((1, 0, 3, 2), (1, 2, 0, 3)),
    (2, 3, 4): ((0, 1, 3, 2), (1, 2, 3, 0)),
    (2, 3, 5): ((0, 2, 1, 4, 3), (1, 2, 3, 4, 0)),
    (2, 4, 3): ((0, 1, 3, 2), (1, 2, 0, 3)),
    (2, 5, 3): ((0, 2, 1, 4, 3), (1, 3, 2, 0, 4)),
    (3, 2, 3): ((0, 2, 3, 1), (1, 3, 2, 0)),
    (3, 2, 4): ((0, 2, 3, 1), (1, 2, 3, 0)),
    (3, 2, 5): ((0, 1, 3, 4, 2), (2, 3, 1, 4, 0)),
    (3, 3, 2): ((0, 2, 3, 1), (1, 0, 3, 2)),
    (3, 4, 2): ((0, 2, 3, 1), (1, 0, 2, 3)),
    (3, 5, 2): ((0, 1, 3, 4, 2), (2, 3, 0, 1, 4)),
    (4, 2, 3): ((1, 2, 3, 0), (0, 2, 3, 1)),
    (4, 3, 2): ((1, 2, 3, 0), (0, 1, 3, 2)),
    (5, 2, 3): ((1, 2, 3, 4, 0), (0, 2, 4, 3, 1)),
    (5, 3, 2): ((1, 2, 3, 4, 0), (0, 2, 1, 4, 3)),
}


def _dihedral_pair(k, l, m):
    """Generator permutations for the signature families with two 2s."""
    if (k, l, m) == (2, 2, 2):
        return (1, 0, 3, 2), (2, 3, 0, 1)
    n = max(k, l, m)
    rot = tuple((i + 1) % n for i in range(n))
    refl = tuple((n - i) % n for i in range(n))
    refl_rot = tuple((n - 1 - i) % n for i in range(n))
    if (k, l) == (2, 2):
        return refl, rot
    if (k, m) == (2, 2):
        return refl, refl_rot
    return rot, refl


@dataclass(frozen=True)
class VonDyckRealization:
    """A realization is built once per signature and shared by every caller
    of ``vondyck``; treat it, and its group, as read-only."""

    group: FiniteGroup
    a_id: int
    c_id: int
    k: int
    l: int
    m: int

    def __post_init__(self):
        G, k, l, m = self.group, self.k, self.l, self.m
        if G.power(self.a_id, k) != 0:
            raise InternalInconsistencyError(f"a^{k} != 1 in {G.name}")
        if G.power(self.c_id, m) != 0:
            raise InternalInconsistencyError(f"c^{m} != 1 in {G.name}")
        if G.power(G.mul(G.inv(self.a_id), self.c_id), l) != 0:
            raise InternalInconsistencyError(f"(a^-1 c)^{l} != 1 in {G.name}")
        expected = _spherical_order(k, l, m)
        if G.order != expected:
            raise InternalInconsistencyError(f"order {G.order} != {expected}")


def _spherical_order(k: int, l: int, m: int) -> int:
    return 2 * k * l * m // (l * m + k * m + k * l - k * l * m)


def vondyck(k: int, l: int, m: int) -> VonDyckRealization:
    """Concrete permutation realization of the finite (spherical) von Dyck
    group with presentation a^k = (a^-1 c)^l = c^m = 1.

    Realizations are memoised per signature.  The order cap is checked on
    the closed-form order before the cache is consulted, so a lowered
    TRIANGLE_WORDS_CAP also holds for signatures built earlier."""
    if l * m + k * m + k * l <= k * l * m or not (
        sorted((k, l, m))[:2] == [2, 2] or (k, l, m) in _SPHERICAL_TABLE
    ):
        raise NotFiniteError(f"({k},{l},{m}) has no finite realization")
    order, cap = _spherical_order(k, l, m), group_order_cap()
    if order > cap:
        raise TooLargeError(f"vondyck({k},{l},{m}) has order {order} > cap {cap}")
    return _build_vondyck(k, l, m)


@lru_cache(maxsize=64)
def _build_vondyck(k: int, l: int, m: int) -> VonDyckRealization:
    if sorted((k, l, m))[:2] == [2, 2]:
        a, c = _dihedral_pair(k, l, m)
    else:
        a, c = _SPHERICAL_TABLE[(k, l, m)]
    G = enumerate_group([a, c], name=f"vondyck({k},{l},{m})")
    index = {p: i for i, p in enumerate(G.perms)}
    return VonDyckRealization(G, index[a], index[c], k, l, m)


# -- witnesses ------------------------------------------------------------

def universal_witness(k: int, l: int, m: int, r) -> tuple[int, int]:
    """Lexicographically first (g, h) in the spherical realization with
    a^r * g (a^-1 c)^r g^-1 = h c^r h^-1."""
    real = vondyck(k, l, m)
    G = real.group
    rv = as_unit(r, math.lcm(k, l, m)).value
    A = G.power(real.a_id, rv)
    X = G.power(G.mul(G.inv(real.a_id), real.c_id), rv)
    Cr = G.power(real.c_id, rv)
    for g in range(G.order):
        lhs = G.mul(A, G.conj(g, X))
        for h in range(G.order):
            if lhs == G.conj(h, Cr):
                return g, h
    raise InternalInconsistencyError(
        f"no witness for ({k},{l},{m}), r={rv}; this should be impossible"
    )


def lemma42_check(k: int, m: int, r) -> bool:
    """In the spherical (k,k,m) realization with c_i = a^i c a^-i, compare
    c_{r-1} ... c_1 c_0 against a^r (a^-1 c)^r."""
    real = vondyck(k, k, m)
    G = real.group
    rv = as_unit(r, math.lcm(k, m)).value
    lhs = 0
    for i in range(rv):
        c_i = G.conj(G.power(real.a_id, i), real.c_id)
        lhs = G.mul(c_i, lhs)
    rhs = G.mul(
        G.power(real.a_id, rv),
        G.power(G.mul(G.inv(real.a_id), real.c_id), rv),
    )
    return lhs == rhs


def witness_r_minus_one(G: FiniteGroup, x: int, u: int):
    """The explicit r = -1 formulas: with z = [x,u], w = xu satisfies
    [x^-1, w] = z^-1, and (x^-1, x y^-1 x^-1, z^-1) re-solves the product
    equation for y = x^-1 z.  Both identities are checked."""
    z = G.commutator(x, u)
    w = G.mul(x, u)
    if G.commutator(G.inv(x), w) != G.inv(z):
        raise InternalInconsistencyError(f"[x^-1, xu] != [x, u]^-1 for x={x}, u={u}")
    y = G.mul(G.inv(x), z)
    xp = G.inv(x)
    yp = G.mul(G.mul(x, G.inv(y)), G.inv(x))
    zp = G.inv(z)
    if G.mul(xp, yp) != zp:
        raise InternalInconsistencyError(f"x'y' != z' for x={x}, u={u}")
    return w, (xp, yp, zp)
