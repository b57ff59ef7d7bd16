from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from bruteforce import (
    antidiagonal_monomial,
    bubble_chain_normal_form,
    complement_monomial,
    diag_generator,
    scan_minimalize,
    staircase_generator,
)
from genlink import (
    LinkInstance,
    Monomial,
    antidiagonal_divisor,
    betti_table,
    chain_exponent,
    chain_normal_form,
    join,
    leq,
    meet,
    odd_part_reduction,
    resolution_ranks,
    side_of,
    staircase_power_conditions,
    straighten_holds,
    unit_ideal,
    xvar,
    yvar,
)
from genlink.ideals import DEFAULT_CANDIDATE_CAP, MonomialIdeal


def beta(inst, A):
    return complement_monomial(inst.m, inst.n, A)


# -- band and staircases ------------------------------------------------------


def test_band_23():
    assert LinkInstance(2, 3).band == {(1, 2), (1, 3), (2, 1), (2, 2)}


def test_band_single_row():
    assert LinkInstance(1, 5).band == {(1, j) for j in range(1, 6)}


def test_band_size():
    for m in range(1, 5):
        for n in range(m, 9):
            inst = LinkInstance(m, n)
            assert len(inst.band) == m * inst.g


def test_staircase_35():
    inst = LinkInstance(3, 5)
    assert inst.staircase((2, 3)) == {(1, 3), (1, 4), (1, 5), (2, 2), (3, 1)}


def test_staircase_has_n_cells():
    for m in range(1, 5):
        for n in range(m, 8):
            inst = LinkInstance(m, n)
            for A in inst.selectors:
                assert len(inst.staircase(A)) == n


def test_staircase_single_row_is_whole_band():
    inst = LinkInstance(1, 4)
    assert inst.staircase(()) == inst.band
    assert beta(inst, ()) == Monomial.one()


def test_staircase_rejects_bad_selector():
    with pytest.raises(ValueError):
        LinkInstance(3, 5).staircase((1, 3))
    with pytest.raises(ValueError):
        LinkInstance(3, 5).staircase((2,))
    with pytest.raises(ValueError):
        straighten_holds(LinkInstance(3, 5), (1, 3), (2, 3))
    with pytest.raises(ValueError):
        straighten_holds(LinkInstance(3, 5), (2, 3), (2,))
    with pytest.raises(ValueError):
        odd_part_reduction(LinkInstance(3, 5), {}, {(1, 3): 1})


# -- antidiagonals and complements ----------------------------------------------


def test_antidiagonal_examples():
    def antidiagonal(inst, cols):
        return inst.universe.monomial(inst._antidiagonal_vec(cols))

    first = Monomial.of(xvar(1, 3), xvar(2, 2), xvar(3, 1))
    assert antidiagonal(LinkInstance(3, 5), (1, 2, 3)) == first
    assert antidiagonal_monomial(3, (1, 2, 3)) == first
    assert antidiagonal(LinkInstance(1, 4), (3,)) == Monomial.of(xvar(1, 3))
    assert antidiagonal(LinkInstance(2, 3), (2, 3)) == Monomial.of(xvar(2, 2), xvar(1, 3))
    inst = LinkInstance(2, 3)
    for cols in [(3, 2), (2, 2), (0, 1), (2, 4), (1,)]:
        with pytest.raises(ValueError):
            antidiagonal_divisor(inst, cols, (2,))
    # diagonal generator indices run over 1..g
    with pytest.raises(ValueError):
        odd_part_reduction(inst, {3: 1}, {})


def test_complement_examples():
    i35 = LinkInstance(3, 5)
    assert beta(i35, (2, 3)) == Monomial.of(xvar(2, 3), xvar(2, 4), xvar(3, 2), xvar(3, 3))
    i23 = LinkInstance(2, 3)
    assert beta(i23, (2,)) == Monomial.of(xvar(2, 2))
    assert beta(i23, (3,)) == Monomial.of(xvar(1, 2))


def test_complement_degree():
    for m in range(1, 5):
        for n in range(m, 8):
            inst = LinkInstance(m, n)
            mu_deg = inst.g
            for A in inst.selectors:
                assert beta(inst, A).degree() + mu_deg == m * (n - m) + 1


# -- the ideals -------------------------------------------------------------------


def test_minors_initial_23():
    got = set(LinkInstance(2, 3).minors_initial.gens)
    assert got == {
        Monomial.of(xvar(2, 1), xvar(1, 2)),
        Monomial.of(xvar(2, 1), xvar(1, 3)),
        Monomial.of(xvar(2, 2), xvar(1, 3)),
    }


def test_minors_initial_single_row():
    got = LinkInstance(1, 4).minors_initial.gens
    assert set(got) == {Monomial.of(xvar(1, j)) for j in range(1, 5)}


def test_minors_initial_35_consecutive_windows_first():
    inst = LinkInstance(3, 5)
    assert len(inst.minors_initial.gens) == 10
    for j in range(1, 4):
        cols = inst.column_sets[j - 1]
        assert cols == tuple(range(j, j + 3))
        assert inst.universe.monomial(inst._diag_vecs[j - 1]) == (
            Monomial.of(yvar(j, j)) * antidiagonal_monomial(3, cols)
        )


def test_link_initial_single_row():
    inst = LinkInstance(1, 3)
    mu = Monomial.of(yvar(1, 1), yvar(2, 2), yvar(3, 3))
    assert set(inst.link_initial.gens) == {
        Monomial.of(yvar(1, 1), xvar(1, 1)),
        Monomial.of(yvar(2, 2), xvar(1, 2)),
        Monomial.of(yvar(3, 3), xvar(1, 3)),
        mu,
    }


def test_link_initial_23():
    inst = LinkInstance(2, 3)
    assert set(inst.link_initial.gens) == {
        Monomial.of(yvar(1, 1), xvar(2, 1), xvar(1, 2)),
        Monomial.of(yvar(2, 2), xvar(2, 2), xvar(1, 3)),
        Monomial.of(yvar(1, 1), yvar(2, 2), xvar(2, 2)),
        Monomial.of(yvar(1, 1), yvar(2, 2), xvar(1, 2)),
    }


def test_link_initial_35_families():
    inst = LinkInstance(3, 5)
    assert inst.selectors == ((2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5))
    degs = sorted(inst.link_initial.degrees())
    assert degs == [4, 4, 4, 7, 7, 7, 7, 7, 7]


def test_link_initial_degenerate_square():
    for m in (1, 2, 3):
        inst = LinkInstance(m, m)
        assert inst.link_initial.gens == (Monomial.of(yvar(1, 1)),)


def test_generator_vectors_match_the_definitions():
    for m in range(1, 5):
        for n in range(m, 8):
            inst = LinkInstance(m, n)

            def gens(vecs):
                return list(map(inst.universe.monomial, vecs))

            cols = inst.column_sets
            assert gens(map(inst._antidiagonal_vec, cols)) == [
                antidiagonal_monomial(m, c) for c in cols
            ]
            assert gens(inst._diag_vecs) == [diag_generator(m, j) for j in range(1, inst.g + 1)]
            assert gens(inst._complement_vecs.values()) == [
                complement_monomial(m, n, A) for A in inst._complement_vecs
            ]
            assert gens(inst._staircase_vecs.values()) == [
                staircase_generator(m, n, A) for A in inst._staircase_vecs
            ]


def test_closed_form_families_are_minimal():
    # the ideals wrap these lists unreduced, so each must be its own
    # minimalization; for m = n the link families collapse onto Y[1,1]
    for m in range(1, 6):
        for n in range(m, 9):
            inst = LinkInstance(m, n)
            families = [
                (inst.minors_initial, list(map(inst._antidiagonal_vec, inst.column_sets))),
                (inst.sequence_initial, list(inst._diag_vecs)),
                (inst.staircase_ideal, list(inst._complement_vecs.values())),
            ]
            link = [*inst._diag_vecs, *inst._staircase_vecs.values()]
            if m < n:
                families.append((inst.link_initial, link))
            for W, vecs in families:
                assert sorted(vecs) == sorted(scan_minimalize(vecs)), (m, n)
                assert sorted(W.vecs) == sorted(vecs), (m, n)
            if m == n:
                y11 = tuple(int(v == yvar(1, 1)) for v in inst.universe.variables)
                assert scan_minimalize(link) == [y11]
                assert inst.link_initial.vecs == (y11,)


def test_link_initial_power_builds_each_power_once(monkeypatch):
    W = LinkInstance(2, 4).link_initial
    # the reference products go through no kept power
    expected = [unit_ideal(W.universe), W]
    for _ in range(2):
        expected.append(expected[-1].product(W))
    calls = []
    original = MonomialIdeal.product

    def counting(self, other, cap=DEFAULT_CANDIDATE_CAP):
        calls.append(other)
        return original(self, other, cap=cap)

    monkeypatch.setattr(MonomialIdeal, "product", counting)
    for k in (3, 1, 2, 3, 0, 2):
        assert W.power(k) == expected[k]
    # W^2 and W^3, each one product with W
    assert len(calls) == 2 and all(V is W for V in calls)
    with pytest.raises(ValueError):
        W.power(-1)


def test_complements_avoid_minors_ideal():
    for m in range(1, 5):
        for n in range(m, 8):
            inst = LinkInstance(m, n)
            for A in inst.selectors:
                assert not inst.minors_initial.contains(beta(inst, A))


def test_staircase_ideal_examples():
    assert set(LinkInstance(2, 3).staircase_ideal.gens) == {
        Monomial.of(xvar(2, 2)),
        Monomial.of(xvar(1, 2)),
    }
    # degenerate: single-row and square instances give the unit ideal
    assert LinkInstance(1, 4).staircase_ideal.is_unit()
    assert LinkInstance(3, 3).staircase_ideal.is_unit()


def test_staircase_ideal_height():
    primes = LinkInstance(3, 5).staircase_ideal.minimal_primes()
    assert min(len(p) for p in primes) == 2


def test_staircase_square_equals_chain_products():
    inst = LinkInstance(3, 5)
    N = inst.staircase_ideal
    chains = [
        beta(inst, A) * beta(inst, B)
        for A in inst.selectors
        for B in inst.selectors
        if leq(A, B)
    ]
    from genlink import ideal

    assert N.power(2) == ideal(inst.universe, chains)


def test_link_minimal_primes_unmixed_23():
    primes = LinkInstance(2, 3).link_initial.minimal_primes()
    assert all(len(p) == 2 for p in primes)


# -- selector lattice ----------------------------------------------------------------


def test_meet_join_examples():
    assert meet((2, 5), (3, 4)) == (2, 4)
    assert join((2, 5), (3, 4)) == (3, 5)
    assert meet((2, 3), (2, 4)) == (2, 3)
    assert join((2, 3), (2, 4)) == (2, 4)


def test_straightening_exhaustive_35():
    inst = LinkInstance(3, 5)
    for A in inst.selectors:
        for B in inst.selectors:
            assert straighten_holds(inst, A, B)


def test_chain_normal_form_examples():
    assert chain_normal_form([(3, 4), (2, 5)]) == ((2, 4), (3, 5))
    assert chain_normal_form([(2, 3), (2, 4)]) == ((2, 3), (2, 4))
    inst = LinkInstance(3, 5)
    before = [(4, 5), (2, 3), (3, 4)]
    after = chain_normal_form(before)
    assert all(leq(a, b) for a, b in zip(after, after[1:]))
    prod = Monomial.one()
    for A in before:
        prod = prod * beta(inst, A)
    prod2 = Monomial.one()
    for A in after:
        prod2 = prod2 * beta(inst, A)
    assert prod == prod2


@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda m: st.lists(
            st.sets(st.integers(min_value=2, max_value=9), min_size=m - 1, max_size=m - 1)
            .map(sorted).map(tuple),
            min_size=1, max_size=8,
        )
    )
)
@settings(max_examples=200)
def test_chain_normal_form_matches_the_exchange_oracle(selectors):
    # strictly increasing selectors of one size m - 1, m from 1 to 5
    assert chain_normal_form(selectors) == bubble_chain_normal_form(selectors)


def test_chain_normal_form_keeps_one_empty_selector_per_input():
    assert chain_normal_form([(), (), ()]) == ((), (), ())
    with pytest.raises(ValueError):
        chain_normal_form([(2, 3), (2,)])


@given(st.data())
@settings(max_examples=60)
def test_chain_normal_form_preserves_product(data):
    inst = LinkInstance(3, 5)
    picks = data.draw(
        st.lists(st.sampled_from(inst.selectors), min_size=1, max_size=5)
    )
    after = chain_normal_form(picks)
    assert all(leq(a, b) for a, b in zip(after, after[1:]))
    prod_before = Monomial.one()
    for A in picks:
        prod_before = prod_before * beta(inst, A)
    prod_after = Monomial.one()
    for A in after:
        prod_after = prod_after * beta(inst, A)
    assert prod_before == prod_after


# -- sides and chain exponents ----------------------------------------------------------


def test_side_of_examples():
    i35 = LinkInstance(3, 5)
    assert side_of(i35, (2, 3), (2, 3)) == "right"
    assert side_of(i35, (2, 4), (2, 3)) == "inside"
    assert side_of(i35, (4, 5), (1, 4)) == "left"
    with pytest.raises(ValueError):
        side_of(i35, (2, 3), (3, 5))


def test_side_monotone_under_selector_order():
    inst = LinkInstance(3, 5)
    for A in inst.selectors:
        for B in inst.selectors:
            if not leq(A, B):
                continue
            for cell in sorted(inst.band):
                if side_of(inst, B, cell) == "right":
                    assert side_of(inst, A, cell) == "right"
                if side_of(inst, A, cell) == "left":
                    assert side_of(inst, B, cell) == "left"


def test_chain_exponent_example():
    inst = LinkInstance(3, 5)
    assert chain_exponent(inst, [(2, 3), (2, 4)], (2, 3)) == 1


def test_chain_exponent_singletons_and_inside():
    inst = LinkInstance(3, 5)
    for A in inst.selectors:
        for cell in sorted(inst.band):
            e = chain_exponent(inst, [A], cell)
            assert e == beta(inst, A).exponent(xvar(*cell))
    # a cell inside every staircase of the chain has exponent 0
    assert chain_exponent(inst, [(2, 3), (2, 3)], (3, 1)) == 0


def test_chain_exponent_rejects_unsorted():
    inst = LinkInstance(3, 5)
    with pytest.raises(ValueError):
        chain_exponent(inst, [(3, 4), (2, 5)], (2, 3))


@given(st.data())
@settings(max_examples=60)
def test_chain_exponent_matches_product(data):
    inst = data.draw(st.sampled_from([LinkInstance(3, 5), LinkInstance(2, 4), LinkInstance(4, 6)]))
    picks = data.draw(st.lists(st.sampled_from(inst.selectors), min_size=1, max_size=5))
    chain = chain_normal_form(picks)
    prod = Monomial.one()
    for A in chain:
        prod = prod * beta(inst, A)
    for cell in sorted(inst.band):
        assert chain_exponent(inst, chain, cell) == prod.exponent(xvar(*cell))


# -- Betti tables ------------------------------------------------------------------------


def test_betti_golden_24():
    table = betti_table(LinkInstance(2, 4))
    assert table.entries == {(1, 3): 3, (1, 5): 3, (2, 6): 11, (3, 7): 6}


def test_betti_single_row():
    table = betti_table(LinkInstance(1, 2))
    assert sum(table.degree_counts().values()) == 3
    table4 = betti_table(LinkInstance(1, 4))
    # n linear-syzygy generators in degree 2 plus one in degree n
    assert table4.entries[(1, 2)] == 4
    assert table4.entries[(1, 4)] == 1


def test_betti_tail_rank_identity():
    for m in range(1, 5):
        for n in range(m, 9):
            inst = LinkInstance(m, n)
            ranks = resolution_ranks(inst.m, inst.g)
            assert ranks[inst.g] == comb(n - 1, m - 1)


def test_betti_first_column_matches_generator_degrees():
    for m in range(1, 5):
        for n in range(m, 9):
            inst = LinkInstance(m, n)
            counts = {}
            for t in inst.link_initial.gens:
                counts[t.degree()] = counts.get(t.degree(), 0) + 1
            assert betti_table(inst).degree_counts() == counts


# -- power-equality shape conditions ------------------------------------------------------


def test_staircase_power_conditions():
    c35 = staircase_power_conditions(LinkInstance(3, 5))
    assert c35.printed_corollary is True
    assert c35.printed_example is True
    assert c35.derived is False
    c2n = staircase_power_conditions(LinkInstance(2, 7))
    assert c2n.printed_corollary and c2n.printed_example and c2n.derived
    c34 = staircase_power_conditions(LinkInstance(3, 4))
    assert c34.derived is True


def test_instance_validation():
    with pytest.raises(ValueError):
        LinkInstance(3, 2)
    with pytest.raises(ValueError):
        LinkInstance(0, 2)
