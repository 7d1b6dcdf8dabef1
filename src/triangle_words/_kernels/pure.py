"""The hot kernels: the segment-permutation test, the multiplier-unit scan,
the twisted-word search and the PSL2(R) conjugator search.  Standard
library only."""

from __future__ import annotations

import math


def segment_perm_check(m: int, r: int, c: int) -> bool:
    # {1..c} == {r*i mod m : i <= c} iff every r*i lands in [1, c]
    # (the c residues are distinct and nonzero since r is a unit).
    for i in range(1, c + 1):
        if (r * i) % m > c:
            return False
    return True


def multiplier_units(k: int, l: int, m: int) -> list[int]:
    """Units r mod lcm(k,l,m) whose scalar action preserves the set of
    lattice points lying in the open simplex S or its negative -S.

    -S is the negative of S and r(-p) = -(rp), so it suffices that r maps
    every point of S into S u -S.  A point (a/k, b/l, c/m) with nonzero
    coordinates lies in S u -S iff klm times its coordinate sum lies
    outside [klm, 2klm]."""
    lcm = math.lcm(k, l, m)
    lm, km, kl, klm = l * m, k * m, k * l, k * l * m
    pts = [
        (a, b, c)
        for a in range(1, k)
        for b in range(1, l)
        # the fiber over (a, b) holds the c below (klm - a*lm - b*km) / kl
        for c in range(1, -((a * lm + b * km - klm) // kl))
    ]
    out = []
    for r in range(1, lcm + 1):
        if math.gcd(r, lcm) != 1:
            continue
        for a, b, c in pts:
            if klm <= (r * a % k) * lm + (r * b % l) * km + (r * c % m) * kl <= 2 * klm:
                break
        else:
            out.append(r % lcm)
    return out


def twisted_search(order, mul, inv, phi, p, u_bases, u_exps, max_len=3):
    """First reduced word v with at most ``max_len`` b-letters satisfying
    psi(v) * v^-1 == u, for a reduced u, where psi extends phi with
    b -> p*b; first in the order (length, exponents, bases), each
    lexicographic with exponent 1 before -1.

    Returns (bases, exps) or None.  Tables are index-based with 0 = identity.

    Letter i of psi(v) is L_i phi(v_i) R_i, with L_i = p^-1 after a b^-1
    and R_i = p before a b.  In psi(v) v^-1 the b-letters cancel from the
    junction outwards while the middle letter is 1, so with len(u) = 2t
    every v starts with u's first t exponents, and each base letter is
    constrained on its own: v_i = u_{2t-i}^-1 is forced for i < t, v_t
    solves psi_t(x) x^-1 = u_t and every later v_j solves psi_j(x) = x.
    The first v for given exponents therefore takes the least solution at
    every position.

    Only s = t and s = t + 1 (tail b) need trying.  s = t solves position
    t with right factor 1, and a tail starting b^-1 meets that same
    equation there, so it fails wherever s = t fails.  A tail starting b
    meets the equation with right factor p at every s >= t + 1, and at
    s = t + 1 the last letter v_{t+1} = 1 solves phi(x) = x.
    """
    ub = tuple(u_bases)
    t = len(u_exps) // 2
    head = tuple(u_exps[:t])
    if tuple(u_exps) != head + tuple(-e for e in reversed(head)):
        return None
    pinv = inv[p]
    for s in range(t, min(max_len, t + 1) + 1):
        exps = head + (1,) * (s - t)
        bases = []
        for i in range(s + 1):
            left = pinv if i and exps[i - 1] == -1 else 0
            right = p if i < s and exps[i] == 1 else 0
            # reducedness: no inner identity between cancelling b-letters
            low = 1 if 0 < i < s and exps[i - 1] == -exps[i] else 0
            if i < t:
                x = inv[ub[2 * t - i]]
                if x < low or mul[mul[left][phi[x]]][right] != ub[i]:
                    break
            else:
                target = ub[t] if i == t else 0
                x = next(
                    (
                        x
                        for x in range(low, order)
                        if mul[mul[mul[left][phi[x]]][right]][inv[x]] == target
                    ),
                    None,
                )
                if x is None:
                    break
            bases.append(x)
        else:
            return tuple(bases), exps
    return None


def grid_class_distance(rep_a, rep_b, rep_c):
    """The s >= 0 for which (sigma_a * g sigma_b g^-1)^-1, g = diag(e^s, e^-s),
    lies in the class rep_c, or None.  The name predates the closed form;
    ``twbench/tracing.py`` wraps the kernel by it.

    With ca = cos(pi rep_a) and so on, the product's trace is
    2(ca cb - sa sb cosh 2s) and its lower-left entry -(sa cb + ca sb e^-2s).
    Its class is rep_c iff the trace is 2 sigma cc, sigma the sign of that
    entry: each sigma fixes cosh 2s and gives a solution iff cosh 2s >= 1 and
    the entry there has sign sigma.  Rotating g changes neither the trace nor
    that sign.
    """
    ca, sa = math.cos(math.pi * rep_a), math.sin(math.pi * rep_a)
    cb, sb = math.cos(math.pi * rep_b), math.sin(math.pi * rep_b)
    cc = math.cos(math.pi * rep_c)
    for sign in (1.0, -1.0):
        cosh_2s = (ca * cb - sign * cc) / (sa * sb)
        if cosh_2s < 1.0:
            continue
        s = 0.5 * math.acosh(cosh_2s)
        if sign * (sa * cb + ca * sb * math.exp(-2.0 * s)) < 0.0:
            return s
    return None
