"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the library's own algorithms: covers come from
enumerating every subset of the support, memberships from raw divisibility,
symbolic powers from pairwise intersection of the prime powers, term orders
from comparators that walk the sorted joint support of two monomials,
minimal generators from a pairwise scan over the kept vectors, products,
intersections and colons from tuple arithmetic on every pair of generators,
the square-bracket colon criterion from squaring every generator of a
pairwise power, the chain normal form of selectors from meet/join
exchanges, the lead terms of the link rows from a scan over every term
of every minor, and the link generator families as monomials straight from
the band and staircase definitions of ``genlink.linkage``.
"""

from itertools import combinations, combinations_with_replacement, permutations
from operator import add, le

from genlink import Monomial, xvar, yvar
from genlink.monomial import X_FAMILY, Y_FAMILY


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


def _support_mask(vec):
    return sum(1 << i for i, e in enumerate(vec) if e)


def scan_minimalize(vecs):
    """The divisibility-minimal exponent vectors, by a pairwise scan.

    Distinct vectors sorted by (degree, support mask, vector); a vector is
    kept unless some already kept one divides it. Same order as the
    library's reduction, which this scan was before it grew an index.
    """
    kept = []
    for _, mask, vec in sorted((sum(v), _support_mask(v), v) for v in set(vecs)):
        if not any(km & mask == km and all(map(le, kv, vec)) for km, kv in kept):
            kept.append((mask, vec))
    return [vec for _, vec in kept]


def pairwise_product(a, b):
    """Minimal generators of ``(a) * (b)``: the sum of every pair, reduced."""
    return scan_minimalize([tuple(map(add, u, v)) for u in a for v in b])


def pairwise_intersect(a, b):
    """Minimal generators of ``(a) ∩ (b)``: the lcm of every pair, reduced."""
    return scan_minimalize([tuple(map(max, u, v)) for u in a for v in b])


def pairwise_colon(a, b):
    """Minimal generators of ``(a) : (b)`` for nonempty ``b``: a left fold of
    :func:`pairwise_intersect` over ``(a) : v`` for each ``v`` in ``b``,
    which ``max(u - v, 0)`` for every ``u`` in ``a`` generates."""
    pieces = [scan_minimalize([tuple(max(x - y, 0) for x, y in zip(u, v)) for u in a]) for v in b]
    current = pieces[0]
    for piece in pieces[1:]:
        current = pairwise_intersect(current, piece)
    return current


def vec_divides_some(gens, vec):
    """Raw divisibility: does some exponent vector of ``gens`` divide ``vec``?"""
    return any(all(map(le, g, vec)) for g in gens)


def square_colon_holds(gens, r):
    """nu in (W^(r+1))^[2] : W^(2r+1), nu the product of all variables, by
    the definition: the powers of W from pairwise products, every generator
    of W^(r+1) squared, and for every generator t of W^(2r+1) some square
    dividing nu * t = t + 1. ``gens`` are W's exponent vectors."""
    powers = [list(gens)]  # powers[k] generates W^(k+1)
    for _ in range(2 * r):
        powers.append(pairwise_product(powers[-1], gens))
    squares = [tuple(2 * e for e in s) for s in powers[r]]
    return all(vec_divides_some(squares, tuple(e + 1 for e in t)) for t in powers[2 * r])


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


def bubble_chain_normal_form(selectors):
    """The componentwise-sorted chain of a list of selectors, by repeated
    meet/join exchanges on out-of-order adjacent pairs until none is left."""
    arr = list(selectors)
    changed = True
    while changed:
        changed = False
        for i in range(len(arr) - 1):
            a, b = arr[i], arr[i + 1]
            if not all(map(le, a, b)):
                arr[i], arr[i + 1] = tuple(map(min, a, b)), tuple(map(max, a, b))
                changed = True
    return tuple(arr)


def _ascending_rank(v):
    # x below Y, then row, then column: x[1,1] is the smallest variable
    return (0 if v.family == X_FAMILY else 1, v.row, v.col)


def revlex_compare(u, v):
    """Graded reverse lex: higher degree wins; at equal degree the first
    variable from the bottom where the exponents differ decides, and the
    larger exponent there loses. Returns -1, 0 or 1."""
    du, dv = u.degree(), v.degree()
    if du != dv:
        return 1 if du > dv else -1
    for w in sorted(u.support() | v.support(), key=_ascending_rank):
        eu, ev = u.exponent(w), v.exponent(w)
        if eu != ev:
            return -1 if eu > ev else 1
    return 0


def diaglex_compare(u, v):
    """Lex on Y parts with Y[1,1] > Y[2,2] > ... > the other Y row-major,
    ties broken by graded reverse lex on the x parts."""

    def descending_rank(w):
        return (0, w.row, 0) if w.row == w.col else (1, w.row, w.col)

    y_support = [w for w in u.support() | v.support() if w.family == Y_FAMILY]
    for w in sorted(y_support, key=descending_rank):
        eu, ev = u.exponent(w), v.exponent(w)
        if eu != ev:
            return 1 if eu > ev else -1
    ux = Monomial((w, e) for w, e in u.items() if w.family == X_FAMILY)
    vx = Monomial((w, e) for w, e in v.items() if w.family == X_FAMILY)
    return revlex_compare(ux, vx)


def scan_row_leads(inst):
    """For each row j of a link instance, the diagonal-lex largest
    ``Y[j,k] * t`` over every minor k and every term t of it, by a full scan
    with :func:`diaglex_compare`. Terms are the products one-per-row over
    the minor's columns, in every order."""
    leads = []
    for j in range(1, inst.g + 1):
        best = None
        for k, cols in enumerate(inst.column_sets, start=1):
            for perm in permutations(cols):
                term = Monomial.of(yvar(j, k), *(xvar(i + 1, c) for i, c in enumerate(perm)))
                if best is None or diaglex_compare(term, best) > 0:
                    best = term
        leads.append(best)
    return leads


# -- the link generator families, from the definitions --------------------------


def band(m, n):
    """The band {(i,j) : m-i < j <= n-i+1} of the m-by-n grid."""
    return [(i, j) for i in range(1, m + 1) for j in range(1, n + 1) if m - i < j <= n - i + 1]


def antidiagonal_monomial(m, cols):
    """The lead term of the m-minor on columns c_1 < ... < c_m: its
    antidiagonal x[m,c_1] * x[m-1,c_2] * ... * x[1,c_m]."""
    return Monomial.of(*(xvar(m - k, c) for k, c in enumerate(cols)))


def complement_monomial(m, n, A):
    """beta(A): the product of the band variables outside the staircase
    D(A) = {(i,j) in band : a_{m-i} <= j < a_{m-i+1}}, where a_0 = 1,
    a_1, ..., a_{m-1} is the selector A and a_m = n+1."""
    a = (1, *A, n + 1)
    return Monomial.of(*(xvar(i, j) for i, j in band(m, n) if not a[m - i] <= j < a[m - i + 1]))


def diag_generator(m, j):
    """Y[j,j] times the antidiagonal on the window of columns j, ..., j+m-1."""
    return Monomial.of(yvar(j, j)) * antidiagonal_monomial(m, range(j, j + m))


def staircase_generator(m, n, A):
    """mu * beta(A), mu = Y[1,1] * ... * Y[g,g] with g = n-m+1."""
    mu = Monomial.of(*(yvar(k, k) for k in range(1, n - m + 2)))
    return mu * complement_monomial(m, n, A)
