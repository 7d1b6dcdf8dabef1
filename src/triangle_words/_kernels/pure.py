"""The hot kernels: the segment-permutation test, the multiplier-unit scan,
the twisted-word search and the PSL2(R) conjugator search.  Standard
library only."""

from __future__ import annotations

import math
from itertools import product


def segment_perm_check(m: int, r: int, c: int) -> bool:
    # {1..c} == {r*i mod m : i <= c} iff every r*i lands in [1, c]
    # (the c residues are distinct and nonzero since r is a unit).
    for i in range(1, c + 1):
        if (r * i) % m > c:
            return False
    return True


def multiplier_units(k: int, l: int, m: int) -> list[int]:
    """Units r mod lcm(k,l,m) whose scalar action preserves the set of
    lattice points lying in the open simplex or its negative."""
    lcm = math.lcm(k, l, m)
    klm = k * l * m
    member = bytearray(klm)
    pts = []
    for a in range(1, k):
        wa = a * l * m
        for b in range(1, l):
            wb = b * k * m
            for c in range(1, m):
                w = wa + wb + c * k * l
                if w < klm or w > 2 * klm:
                    member[(a * l + b) * m + c] = 1
                    pts.append((a, b, c))
    out = []
    for r in range(1, lcm + 1):
        if math.gcd(r, lcm) != 1:
            continue
        ok = True
        for a, b, c in pts:
            if not member[((r * a % k) * l + r * b % l) * m + r * c % m]:
                ok = False
                break
        if ok:
            out.append(r % lcm)
    return sorted(out)


def twisted_search(order, mul, inv, phi, p, u_bases, u_exps, max_len=3):
    """First reduced word v with at most ``max_len`` b-letters satisfying
    psi(v) * v^-1 == u, where psi extends phi with b -> p*b.

    Returns (bases, exps) or None.  Tables are index-based with 0 = identity.
    """
    ub = tuple(u_bases)
    ue = tuple(u_exps)
    p_pos = p  # p_eps for eps = +1
    p_neg = 0  # ... and eps = -1
    for s in range(max_len + 1):
        for exps in product((1, -1), repeat=s):
            for bases in product(range(order), repeat=s + 1):
                if any(
                    bases[i] == 0 and exps[i - 1] == -exps[i] for i in range(1, s)
                ):
                    continue
                if s == 0:
                    w = [phi[bases[0]]]
                else:
                    w = [mul[phi[bases[0]]][p_pos if exps[0] == 1 else p_neg]]
                    for i in range(1, s):
                        left = inv[p_neg if exps[i - 1] == 1 else p_pos]
                        w.append(
                            mul[mul[left][phi[bases[i]]]][
                                p_pos if exps[i] == 1 else p_neg
                            ]
                        )
                    left = inv[p_neg if exps[s - 1] == 1 else p_pos]
                    w.append(mul[left][phi[bases[s]]])
                # psi(v) * v^-1 with cancellation at the junction
                left_b = w
                left_e = list(exps)
                right_b = [inv[x] for x in reversed(bases)]
                right_e = [-e for e in reversed(exps)]
                mid = mul[left_b.pop()][right_b.pop(0)]
                while left_e and right_e and mid == 0 and left_e[-1] == -right_e[0]:
                    left_e.pop()
                    right_e.pop(0)
                    mid = mul[left_b.pop()][right_b.pop(0)]
                if (
                    tuple(left_b) + (mid,) + tuple(right_b) == ub
                    and tuple(left_e) + tuple(right_e) == ue
                ):
                    return tuple(bases), tuple(exps)
    return None


# Conjugators g = R(phi*pi) * diag(e^s, e^-s) tried by grid_class_distance.
S_MAX = 5.0
PHIS = (0.0, 0.25, 0.5, 0.75)
BISECTIONS = 60


def _inverse_entries(ca, sa, cb, sb, phi, s):
    """Trace and lower-left entry of w = (sigma_a * g sigma_b g^-1)^-1."""
    ct, st = math.cos(math.pi * phi), math.sin(math.pi * phi)
    e2 = math.exp(2.0 * s)
    # M = diag(e^s, e^-s) B diag(e^-s, e^s)
    m01 = -sb * e2
    m10 = sb / e2
    # u = R(phi*pi) M R(-phi*pi)
    u00 = ct * (cb * ct - m01 * st) - st * (m10 * ct - cb * st)
    u01 = ct * (cb * st + m01 * ct) - st * (m10 * st + cb * ct)
    u10 = st * (cb * ct - m01 * st) + ct * (m10 * ct - cb * st)
    u11 = st * (cb * st + m01 * ct) + ct * (m10 * st + cb * ct)
    # P = A u, with A the rotation by rep_a * pi; w = P^-1 has P's trace
    # and lower-left entry -P10
    return (ca * u00 - sa * u10) + (sa * u01 + ca * u11), -(sa * u00 + ca * u10)


def grid_class_distance(rep_a, rep_b, rep_c):
    """Best match (distance, phi, s) between rep_c and the class parameter
    of (sigma_a * g sigma_b g^-1)^-1 over conjugators
    g = R(phi*pi) * diag(e^s, e^-s) with 0 <= s <= S_MAX; the distance is
    inf when no candidate is elliptic.

    The trace does not depend on phi and falls strictly as s grows, so for
    each sign of the lower-left entry one bisection in s finds the only s
    whose trace matches rep_c; each phi of PHIS is then tried at that s.
    """
    ca, sa = math.cos(math.pi * rep_a), math.sin(math.pi * rep_a)
    cb, sb = math.cos(math.pi * rep_b), math.sin(math.pi * rep_b)
    best = (math.inf, math.nan, math.nan)
    for sign in (1.0, -1.0):
        target = 2.0 * sign * math.cos(math.pi * rep_c)
        lo, hi = 0.0, S_MAX
        if not (
            _inverse_entries(ca, sa, cb, sb, 0.0, hi)[0]
            <= target
            <= _inverse_entries(ca, sa, cb, sb, 0.0, lo)[0]
        ):
            continue
        for _ in range(BISECTIONS):
            mid = 0.5 * (lo + hi)
            if _inverse_entries(ca, sa, cb, sb, 0.0, mid)[0] > target:
                lo = mid
            else:
                hi = mid
        s = 0.5 * (lo + hi)
        for phi in PHIS:
            tr, ll = _inverse_entries(ca, sa, cb, sb, phi, s)
            if abs(tr) >= 2.0 or ll == 0.0:
                continue
            half = tr / 2.0 if ll > 0 else -tr / 2.0
            dist = abs(math.acos(max(-1.0, min(1.0, half))) / math.pi - rep_c)
            if dist < best[0]:
                best = (dist, phi, s)
    return best
