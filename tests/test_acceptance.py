"""Acceptance suite: one test per criterion, exact tolerances, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass lines.
"""

import random
import time
from math import comb

from bruteforce import all_monomials, brute_minimal_covers, complement_monomial, prime_degree_member
from genlink import (
    DiagLexOrder,
    GradedRevLex,
    LinkInstance,
    Monomial,
    Universe,
    antidiagonal_divisor,
    betti_table,
    chain_normal_form,
    first_symbolic_gap,
    ideal,
    resolution_ranks,
    square_colon_scan,
    square_divisor,
    straighten_holds,
    xvar,
    yvar,
)
from genlink.verify import (
    resolve_staircase_powers,
    verify_counts_and_degrees,
    verify_lead_terms,
)

SEED = 2024


def _line(number, text):
    print(f"criterion {number:>2}: PASS - {text}")


def triangle_ideal():
    u = Universe.x_grid(1, 3)
    x1, x2, x3 = (xvar(1, j) for j in (1, 2, 3))
    return ideal(u, [Monomial.of(x1, x2), Monomial.of(x1, x3), Monomial.of(x2, x3)])


def test_criterion_01_colon_oracle():
    instances = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5)]
    t0 = time.perf_counter()
    for m, n in instances:
        inst = LinkInstance(m, n)
        computed = inst.sequence_initial.colon(inst.minors_initial)
        assert set(computed.gens) == set(inst.link_initial.gens), (m, n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _line(1, f"colon oracle equality on {len(instances)} instances in {elapsed:.2f}s")


def test_criterion_02_golden_betti():
    table = betti_table(LinkInstance(2, 4))
    assert table.entries == {(1, 3): 3, (1, 5): 3, (2, 6): 11, (3, 7): 6}
    _line(2, "Betti table of (2,4) matches the golden values exactly")


def test_criterion_03_counts_and_degrees():
    checked = 0
    for m in range(1, 5):
        for n in range(m + 1, 9):
            inst = LinkInstance(m, n)
            W = inst.link_initial
            g = inst.g
            counts: dict[int, int] = {}
            for t in W.gens:
                counts[t.degree()] = counts.get(t.degree(), 0) + 1
            expected = {m + 1: g}
            high = m * (n - m) + 1
            expected[high] = expected.get(high, 0) + comb(n - 1, m - 1)
            assert counts == expected, (m, n, counts)
            assert len(W.gens) == g + comb(n - 1, m - 1)
            assert resolution_ranks(m, g)[g] == comb(n - 1, m - 1)
            checked += 1
    # m = n is degenerate: the two generator families collapse onto (Y[1,1])
    for m in range(1, 5):
        inst = LinkInstance(m, m)
        assert inst.link_initial.gens == (Monomial.of(yvar(1, 1)),)
        assert verify_counts_and_degrees(inst).passed
    _line(3, f"generator counts/degrees and tail rank on {checked} instances (m<n), "
             "degenerate m=n collapse confirmed")


def test_criterion_04_symbolic_equals_ordinary():
    plan = [((1, 3), 3), ((2, 3), 3), ((2, 4), 3), ((3, 4), 3), ((3, 5), 2)]
    t0 = time.perf_counter()
    for (m, n), upto in plan:
        W = LinkInstance(m, n).link_initial
        assert first_symbolic_gap(W, upto) is None, (m, n)
    _line(4, f"symbolic = ordinary up to the stated bounds on 5 instances "
             f"in {time.perf_counter() - t0:.2f}s")


def test_criterion_05_square_colon_criterion():
    for (m, n), _ in [((1, 3), 3), ((2, 3), 3), ((2, 4), 3), ((3, 4), 3), ((3, 5), 2)]:
        W = LinkInstance(m, n).link_initial
        assert square_colon_scan(W, 2) is None, (m, n)
    failing = square_colon_scan(triangle_ideal(), 2)
    assert failing is not None and failing <= 2
    _line(5, f"square-bracket colon criterion holds for r<=2 on the link ideals "
             f"and fails at r={failing} on the triangle ideal")


def test_criterion_06_staircase_power_resolution():
    unequal = resolve_staircase_powers(LinkInstance(3, 5))
    assert unequal.passed
    assert unequal.witnesses["equal_at_2"] is False
    assert unequal.witnesses["supported_conditions"] == ["m<=2 or n<=m+1"]
    nu = unequal.witnesses["nu_witness"]
    assert nu["nu_in_symbolic"] and nu["pairs_share_column3"] and not nu["nu_in_square"]

    equal = resolve_staircase_powers(LinkInstance(3, 4))
    assert equal.passed
    assert equal.witnesses["equal_at_2"] is True
    assert "m<=2 or n<=m+1" in equal.witnesses["supported_conditions"]
    _line(6, "staircase-power brute force: unequal at (3,5), equal at (3,4); "
             "the data supports the condition 'm<=2 or n<=m+1' and the "
             "all-variables witness agrees")


def test_criterion_07_straightening_and_chains():
    for m, n in [(3, 5), (4, 6)]:
        inst = LinkInstance(m, n)
        for A in inst.selectors:
            for B in inst.selectors:
                assert straighten_holds(inst, A, B), (m, n, A, B)
    rng = random.Random(SEED)
    checked = 0
    for _ in range(500):
        inst = LinkInstance(*rng.choice([(3, 5), (4, 6)]))
        r = rng.randrange(4)  # 2r+1 <= 7
        chain = chain_normal_form(
            [inst.selectors[rng.randrange(len(inst.selectors))] for _ in range(2 * r + 1)]
        )
        even = Monomial.one()
        for k in range(1, r + 1):
            even = even * complement_monomial(inst.m, inst.n, chain[2 * k - 1])
        full = Monomial.one()
        for A in chain:
            full = full * complement_monomial(inst.m, inst.n, A)
        assert (even ** 2).divides(full)
        checked += 1
    _line(7, f"straightening on all pairs at (3,5) and (4,6); even-position square "
             f"divisibility on {checked} seeded chains (seed {SEED})")


def test_criterion_08_witness_suites():
    for m, n in [(2, 3), (2, 4), (3, 4)]:
        inst = LinkInstance(m, n)
        for cols in inst.column_sets:
            for A in inst.selectors:
                antidiagonal_divisor(inst, cols, A)

    frozen = square_divisor(LinkInstance(4, 7), (), ((2, 4, 5), (2, 5, 7), (2, 6, 7)))
    assert frozen.case == "interior_cell"
    assert (frozen.cell, frozen.lo, frozen.hi, frozen.bridge) == ((2, 5), 2, 3, (2, 5, 6))

    inst = LinkInstance(3, 5)
    rng = random.Random(SEED)
    for _ in range(200):
        r = rng.randrange(3)
        total = 2 * r + 1
        a = rng.randrange(min(total, inst.g) + 1)
        diag = tuple(sorted(rng.sample(range(1, inst.g + 1), a)))
        chain = chain_normal_form(
            [inst.selectors[rng.randrange(len(inst.selectors))] for _ in range(total - a)]
        ) if total - a else ()
        square_divisor(inst, diag, chain)
    _line(8, "antidiagonal divisors exhaustive at (2,3),(2,4),(3,4); interior-cell "
             "witness at (4,7) reproduces cell (2,5), cuts 2/3, bridge (2,5,6); "
             f"200 seeded square-divisor samples at (3,5) (seed {SEED})")


def test_criterion_09_order_properties_and_lead_terms():
    ten = Universe.full(2, 3, 2, 2)
    assert len(ten) == 10
    monomials = list(all_monomials(ten.variables, 4))
    assert len(monomials) == comb(14, 4)
    one = Monomial.one()
    orders = (GradedRevLex(), DiagLexOrder())
    # compare(u, v) is the sign of key(u) vs key(v), so the laws are checked
    # on keys, each computed once per monomial.
    caches = [{} for _ in orders]

    def key(k, mon):
        cache = caches[k]
        if mon not in cache:
            cache[mon] = orders[k].key(mon)
        return cache[mon]

    def sign(a, b):
        return (a > b) - (a < b)

    for k in range(len(orders)):
        keys = [key(k, u) for u in monomials]
        for u, ku in zip(monomials, keys):
            if not u.is_unit():
                assert sign(key(k, one), ku) < 0
        # totality and antisymmetry on every unordered pair
        for i, ku in enumerate(keys):
            u = monomials[i]
            for j in range(i, len(keys)):
                c = sign(ku, keys[j])
                assert c in (-1, 0, 1)
                assert c == -sign(keys[j], ku)
                assert (c == 0) == (u == monomials[j])
    # multiplicativity on seeded triples
    rng = random.Random(SEED)
    for _ in range(20_000):
        u, v, w = (monomials[rng.randrange(len(monomials))] for _ in range(3))
        for k in range(len(orders)):
            assert sign(key(k, u * w), key(k, v * w)) == sign(key(k, u), key(k, v))
    for m, n in [(2, 3), (2, 4), (3, 5)]:
        assert verify_lead_terms(LinkInstance(m, n)).passed, (m, n)
    _line(9, f"order totality/antisymmetry on all {len(monomials)} monomials of "
             "degree <= 4 over 10 variables, multiplicativity on 20000 seeded "
             "triples, minimality everywhere; lead terms verified at (2,3),(2,4),(3,5)")


def test_criterion_10_oracle_cross_checks():
    subjects = [
        triangle_ideal(),
        LinkInstance(3, 4).staircase_ideal,
        LinkInstance(3, 5).staircase_ideal,
        LinkInstance(2, 3).link_initial,
        LinkInstance(2, 4).link_initial,
        LinkInstance(3, 4).link_initial,
        LinkInstance(2, 5).link_initial,
    ]
    for W in subjects:
        support = set().union(*(g.support() for g in W.gens))
        assert len(support) <= 14
        assert set(W.minimal_primes()) == brute_minimal_covers(W)

    small = [
        triangle_ideal(),
        ideal(Universe.x_grid(1, 3), [Monomial.of(xvar(1, 1), xvar(1, 2))]),
        LinkInstance(2, 3).staircase_ideal,
        LinkInstance(3, 4).staircase_ideal,
    ]
    for W in small:
        primes = brute_minimal_covers(W)
        for level in (1, 2, 3):
            S = W.symbolic_power(level)
            for u in all_monomials(sorted(W.universe.variables), 4):
                assert prime_degree_member(primes, u, level) == S.contains(u)
    _line(10, f"minimal primes match subset enumeration on {len(subjects)} ideals; "
              "prime-degree membership matches symbolic-power containment exhaustively")
