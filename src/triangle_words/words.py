"""Reduced words in G * <b> over a finite base group: normalization via the
letter-by-letter group action, multiplication with cancellation counting,
twisted automorphisms, and b-elimination.

A word of length s is the alternating sequence (u_0, u_1, ..., u_{2s}) with
base-group letters at even positions and b^{+-1} at odd positions; it is
reduced when no inner base letter is the identity flanked by cancelling
b-letters.  Words are stored as the base-letter ids plus the b-exponents.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ._kernels import backend
from .groups import FiniteGroup, InternalInconsistencyError, MixedGroupError


class InvalidLetterError(ValueError):
    pass


class InvalidOrderError(ValueError):
    pass


@dataclass(frozen=True)
class BaseLetter:
    elem: int


@dataclass(frozen=True)
class BLetter:
    exp: int

    def __post_init__(self):
        if self.exp not in (1, -1):
            raise InvalidLetterError(f"b-exponent must be +-1, got {self.exp}")


Letter = BaseLetter | BLetter


@dataclass(frozen=True)
class ReducedWord:
    group: FiniteGroup = field(compare=False)
    bases: tuple[int, ...]
    exps: tuple[int, ...]

    def __post_init__(self):
        if len(self.bases) != len(self.exps) + 1:
            raise InvalidLetterError("need one more base letter than b-letters")
        for x in self.bases:
            if not 0 <= x < self.group.order:
                raise InvalidLetterError(f"base element id {x} out of range")
        for i in range(1, len(self.exps)):
            if self.bases[i] == 0 and self.exps[i - 1] == -self.exps[i]:
                raise InvalidLetterError(f"word is not reduced at position {2 * i}")

    def __len__(self):
        return len(self.exps)

    @property
    def letters(self) -> tuple[Letter, ...]:
        out: list[Letter] = [BaseLetter(self.bases[0])]
        for e, x in zip(self.exps, self.bases[1:]):
            out.append(BLetter(e))
            out.append(BaseLetter(x))
        return tuple(out)

    def is_identity(self) -> bool:
        return not self.exps and self.bases[0] == 0

    def __hash__(self):
        return hash((id(self.group), self.bases, self.exps))


def identity_word(base: FiniteGroup) -> ReducedWord:
    return ReducedWord(base, (0,), ())


def word(base: FiniteGroup, *letters) -> ReducedWord:
    """Normalized word from a loose letter sequence; ints are base-element
    ids, 'b' and 'b-' strings are b-letters."""
    seq: list[Letter] = []
    for item in letters:
        if isinstance(item, (BaseLetter, BLetter)):
            seq.append(item)
        elif item == "b":
            seq.append(BLetter(1))
        elif item == "b-":
            seq.append(BLetter(-1))
        else:
            seq.append(BaseLetter(int(item)))
    return normalize(seq, base)


def normalize(letters, base: FiniteGroup) -> ReducedWord:
    """Unique reduced word of a letter product, computed by acting with the
    letters, right to left, on the identity word."""
    bases = [0]
    exps: list[int] = []
    for letter in reversed(list(letters)):
        if isinstance(letter, BLetter):
            if exps and bases[0] == 0 and exps[0] == -letter.exp:
                bases.pop(0)
                exps.pop(0)
            else:
                bases.insert(0, 0)
                exps.insert(0, letter.exp)
        elif isinstance(letter, BaseLetter):
            if not 0 <= letter.elem < base.order:
                raise InvalidLetterError(f"base element id {letter.elem} out of range")
            bases[0] = base.mul(letter.elem, bases[0])
        else:
            raise InvalidLetterError(f"not a letter: {letter!r}")
    return ReducedWord(base, tuple(bases), tuple(exps))


def multiply(u: ReducedWord, v: ReducedWord) -> tuple[ReducedWord, int]:
    """Reduced word of u*v plus the number of cancelled b-letter pairs n;
    the result has length len(u) + len(v) - 2n."""
    if u.group is not v.group:
        raise MixedGroupError("words over different base groups")
    G = u.group
    left_b, left_e = list(u.bases), list(u.exps)
    right_b, right_e = list(v.bases), list(v.exps)
    n = 0
    mid = G.mul(left_b.pop(), right_b.pop(0))
    while left_e and right_e and mid == 0 and left_e[-1] == -right_e[0]:
        # reduction can only fail at the junction, with identity middle
        # letter and cancelling b-letters around it
        left_e.pop()
        right_e.pop(0)
        n += 1
        mid = G.mul(left_b.pop(), right_b.pop(0))
    result = ReducedWord(
        G, tuple(left_b) + (mid,) + tuple(right_b), tuple(left_e) + tuple(right_e)
    )
    if len(result) != len(u) + len(v) - 2 * n:
        raise InternalInconsistencyError(
            f"product of lengths {len(u)} and {len(v)} with {n} cancelled "
            f"pairs has length {len(result)}"
        )
    return result, n


def invert(u: ReducedWord) -> ReducedWord:
    """Letterwise-inverted reversal; already reduced."""
    G = u.group
    return ReducedWord(
        G,
        tuple(G.inv(x) for x in reversed(u.bases)),
        tuple(-e for e in reversed(u.exps)),
    )


def conjugate(w: ReducedWord, q: ReducedWord) -> ReducedWord:
    return multiply(multiply(w, q)[0], invert(w))[0]


@dataclass(frozen=True)
class TwistedAutomorphism:
    """(phi, p): base-group automorphism phi plus p in G, inducing the
    automorphism psi of G * <b> with psi|_G = phi and psi(b) = p*b."""

    group: FiniteGroup = field(compare=False)
    phi: tuple[int, ...]
    p: int

    def __post_init__(self):
        G = self.group
        if sorted(self.phi) != list(range(G.order)):
            raise InvalidLetterError("phi is not a bijection on element ids")
        if self.phi[0] != 0:
            raise InvalidLetterError("phi does not fix the identity")
        if not 0 <= self.p < G.order:
            raise InvalidLetterError(f"p={self.p} out of range")
        for x in range(G.order):
            for y in range(G.order):
                if self.phi[G.mul(x, y)] != G.mul(self.phi[x], self.phi[y]):
                    raise InvalidLetterError("phi is not multiplicative")

    def __hash__(self):
        return hash((id(self.group), self.phi, self.p))

    def _p_eps(self, eps: int) -> int:
        return self.p if eps == 1 else 0

    def compose_phi(self, times: int) -> tuple[int, ...]:
        out = tuple(range(self.group.order))
        for _ in range(times):
            out = tuple(self.phi[x] for x in out)
        return out


def apply_twisted(t: TwistedAutomorphism, v: ReducedWord) -> ReducedWord:
    """psi(v), via the direct letter formulas; same length as v, and the
    resulting letter sequence is reduced as-is."""
    if t.group is not v.group:
        raise MixedGroupError("automorphism and word over different base groups")
    G, phi = t.group, t.phi
    s = len(v)
    if s == 0:
        return ReducedWord(G, (phi[v.bases[0]],), ())
    bases = [G.mul(phi[v.bases[0]], t._p_eps(v.exps[0]))]
    for i in range(1, s):
        left = G.inv(t._p_eps(-v.exps[i - 1]))
        bases.append(G.mul(G.mul(left, phi[v.bases[i]]), t._p_eps(v.exps[i])))
    bases.append(G.mul(G.inv(t._p_eps(-v.exps[s - 1])), phi[v.bases[s]]))
    return ReducedWord(G, tuple(bases), v.exps)


def twisted_order_check(t: TwistedAutomorphism, d: int) -> bool:
    """Whether psi^d is the identity automorphism, given that phi^d is;
    equivalently whether phi^{d-1}(p) ... phi(p) * p = 1."""
    if d < 1:
        raise InvalidOrderError(f"d must be >= 1, got {d}")
    G = t.group
    if t.compose_phi(d) != tuple(range(G.order)):
        raise InvalidOrderError(f"phi^{d} is not the identity")
    prod = 0
    for i in range(d):
        prod = G.mul(prod, t.compose_phi(d - 1 - i)[t.p])
    by_product = prod == 0
    # cross-check on the word (1, b, 1)
    w = ReducedWord(G, (0, 0), (1,))
    for _ in range(d):
        w = apply_twisted(t, w)
    if by_product != (w == ReducedWord(G, (0, 0), (1,))):
        raise InternalInconsistencyError(
            f"psi^{d} on the word b disagrees with the product test ({by_product})"
        )
    return by_product


def eliminate_b(t: TwistedAutomorphism, q: int):
    """First (case, x, y) in lexicographic order solving one of the four
    base-group equations
        phi(x) x^-1 = y q y^-1          phi(x) p x^-1 = y q y^-1
        p^-1 phi(x) x^-1 = y q y^-1     p^-1 phi(x) p x^-1 = y q y^-1
    or None when none is solvable.  A y exists exactly when the left side
    is conjugate to q, so y is searched for only at the first such x."""
    G, phi, p = t.group, t.phi, t.p
    index = G._class_index
    forms = [(0, 0), (0, p), (G.inv(p), 0), (G.inv(p), p)]
    for case, (left, right) in enumerate(forms, start=1):
        for x in range(G.order):
            lhs = G.mul(G.mul(G.mul(left, phi[x]), right), G.inv(x))
            if index[lhs] == index[q]:
                y = next(y for y in range(G.order) if G.conj(y, q) == lhs)
                return case, x, y
    return None


def construct_vw(base: FiniteGroup, case: int, x: int, y: int):
    """The words (v, w) realizing psi(v) v^-1 = w q w^-1 for a solution
    (case, x, y) of eliminate_b."""
    if case == 1:
        return word(base, x), word(base, y)
    if case == 2:
        return word(base, x, "b"), word(base, y)
    if case == 3:
        return word(base, "b-", x), word(base, "b-", y)
    if case == 4:
        return word(base, "b-", x, "b"), word(base, "b-", y)
    raise InvalidLetterError(f"case must be 1..4, got {case}")


def search_twisted_solution(t: TwistedAutomorphism, u: ReducedWord, max_len: int = 3):
    """The first reduced word v with len(v) <= max_len and psi(v) v^-1 = u,
    in the order of ``backend.twisted_search``, which solves the equation
    position by position; the result is re-verified on the words.
    Independent of eliminate_b."""
    if t.group is not u.group:
        raise MixedGroupError("automorphism and word over different base groups")
    G = t.group
    found = backend.twisted_search(
        G.order, G._mul, G._inv, list(t.phi), t.p, u.bases, u.exps, max_len
    )
    if found is None:
        return None
    v = ReducedWord(G, tuple(found[0]), tuple(found[1]))
    check = multiply(apply_twisted(t, v), invert(v))[0]
    if check != u:
        raise InternalInconsistencyError(
            f"twisted search returned v = {format_word(v)}, but psi(v) v^-1 is "
            f"{format_word(check)}, not {format_word(u)}"
        )
    return v


# -- text format ----------------------------------------------------------

def parse_word(text: str, base: FiniteGroup) -> ReducedWord:
    """Whitespace-separated tokens: g:<id>, b, b-.  Missing flanking
    identities are supplied by normalization."""
    letters: list[Letter] = []
    for token in text.split():
        if token == "b":
            letters.append(BLetter(1))
        elif token == "b-":
            letters.append(BLetter(-1))
        elif token.startswith("g:"):
            try:
                letters.append(BaseLetter(int(token[2:])))
            except ValueError:
                raise InvalidLetterError(f"bad base-letter token: {token!r}")
        else:
            raise InvalidLetterError(f"unrecognized token: {token!r}")
    return normalize(letters, base)


def format_word(w: ReducedWord) -> str:
    parts = [f"g:{w.bases[0]}"]
    for e, x in zip(w.exps, w.bases[1:]):
        parts.append("b" if e == 1 else "b-")
        parts.append(f"g:{x}")
    return " ".join(parts)
