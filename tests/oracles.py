"""Brute-force references for the tests: the automorphisms of a small group,
and exhaustive versions of the twisted-word search and of b-elimination.
The exhaustive versions search their whole space in the order the fast
ones promise, so differential tests can require the same first result."""

from itertools import product


def _generating_set(G):
    gens = []
    reached = {0}
    for g in range(1, G.order):
        if g in reached:
            continue
        gens.append(g)
        frontier = list(reached)
        reached = set(reached)
        while frontier:
            cur = frontier.pop()
            for h in gens:
                nxt = G.mul(cur, h)
                if nxt not in reached:
                    reached.add(nxt)
                    frontier.append(nxt)
        if len(reached) == G.order:
            break
    return gens


def automorphism_group(G):
    """All automorphisms, found by extending generator images; groups here
    are tiny so candidate filtering by element order is enough."""
    gens = _generating_set(G)
    # express every element as a word in the generators
    expr = {0: ()}
    frontier = [0]
    while frontier:
        cur = frontier.pop(0)
        for gi, g in enumerate(gens):
            nxt = G.mul(cur, g)
            if nxt not in expr:
                expr[nxt] = expr[cur] + (gi,)
                frontier.append(nxt)
    out = []
    candidates = [
        [h for h in range(G.order) if G.order_of(h) == G.order_of(g)] for g in gens
    ]
    for images in product(*candidates):
        phi = [0] * G.order
        for e, wrd in expr.items():
            cur = 0
            for gi in wrd:
                cur = G.mul(cur, images[gi])
            phi[e] = cur
        if sorted(phi) != list(range(G.order)):
            continue
        if all(
            phi[G.mul(x, y)] == G.mul(phi[x], phi[y])
            for x in range(G.order)
            for y in range(G.order)
        ):
            out.append(tuple(phi))
    return out


def twisted_search_exhaustive(order, mul, inv, phi, p, u_bases, u_exps, max_len=3):
    """First reduced word v with at most ``max_len`` b-letters satisfying
    psi(v) * v^-1 == u, where psi extends phi with b -> p*b, found by trying
    every (length, exponents, bases) in lexicographic order.

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


def eliminate_b_all_pairs(t, q):
    """First (case, x, y) in lexicographic order solving one of the four
    base-group equations of ``words.eliminate_b``, by trying every (x, y)."""
    G, phi, p = t.group, t.phi, t.p
    pinv = G.inv(p)
    forms = [
        lambda x: G.mul(phi[x], G.inv(x)),
        lambda x: G.mul(G.mul(phi[x], p), G.inv(x)),
        lambda x: G.mul(G.mul(pinv, phi[x]), G.inv(x)),
        lambda x: G.mul(G.mul(G.mul(pinv, phi[x]), p), G.inv(x)),
    ]
    for case, lhs_of in enumerate(forms, start=1):
        for x in range(G.order):
            lhs = lhs_of(x)
            for y in range(G.order):
                if lhs == G.conj(y, q):
                    return case, x, y
    return None
