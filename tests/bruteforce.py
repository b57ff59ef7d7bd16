"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the library's own algorithms: covers come from
enumerating every subset of the support, memberships from raw divisibility,
symbolic powers from pairwise intersection of the prime powers.
"""

from itertools import combinations, combinations_with_replacement
from operator import le

from genlink import Monomial


def support_sets(ideal):
    return [frozenset(g.support()) for g in ideal.gens]


def brute_minimal_covers(ideal):
    """All minimal transversals of the generator supports, by subset enumeration."""
    supports = support_sets(ideal)
    vertices = sorted(set().union(*supports))
    assert len(vertices) <= 14, "brute force capped at 14 variables"
    covers = []
    for k in range(len(vertices) + 1):
        for combo in combinations(vertices, k):
            s = frozenset(combo)
            if all(s & e for e in supports):
                covers.append(s)
    return {c for c in covers if not any(o < c for o in covers)}


def brute_is_cover(subset, ideal):
    return all(set(subset) & g.support() for g in ideal.gens)


def all_monomials(variables, max_degree):
    """Every monomial over the variables of total degree at most max_degree."""
    vs = list(variables)

    def rec(i, budget):
        if i == len(vs):
            yield ()
            return
        for e in range(budget + 1):
            for rest in rec(i + 1, budget - e):
                yield ((vs[i], e),) + rest if e else rest

    for exps in rec(0, max_degree):
        yield Monomial(exps)


def pairwise_symbolic_power(primes, level):
    """Generators of the intersection of the level-th powers of the primes.

    Each prime power is generated by every degree-``level`` product of the
    prime's variables; the generator lists are intersected pairwise (lcm of
    every pair) in a left fold, keeping the divisibility-minimal ones after
    every step. Exponents are tuples over the sorted variables of the primes.
    """
    order = sorted(set().union(*primes))
    pos = {v: i for i, v in enumerate(order)}

    def vec(mon):
        out = [0] * len(order)
        for v, e in mon.items():
            out[pos[v]] = e
        return tuple(out)

    current = [(0,) * len(order)]
    for prime in primes:
        power = [vec(Monomial.of(*c)) for c in combinations_with_replacement(sorted(prime), level)]
        candidates = sorted({tuple(map(max, u, w)) for u in current for w in power}, key=sum)
        kept = []
        for u in candidates:
            support = {i for i, e in enumerate(u) if e}
            if not any(s <= support and all(map(le, w, u)) for s, w in kept):
                kept.append((support, u))
        current = [u for _, u in kept]
    return {Monomial(zip(order, u)) for u in current}
