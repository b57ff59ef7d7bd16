import gc
import random
from functools import reduce
from itertools import combinations
from operator import le, mul

import pytest

import genlink.verify
from bruteforce import (
    antidiagonal_monomial,
    brute_multichains,
    complement_monomial,
    diag_generator,
    staircase_generator,
    vec_divides_some,
)
from genlink import (
    LinkInstance,
    Monomial,
    MonomialIdeal,
    VerifyBounds,
    antidiagonal_divisor,
    chain_normal_form,
    odd_part_reduction,
    square_divisor,
    xvar,
    yvar,
)
from genlink.ideals import WordCache
from genlink.linkage import _bridge_selector, _interior_cell, leq
from genlink.verify import EXHAUSTIVE_CAP, _square_inputs, verify_witnesses


def test_antidiagonal_divisor_single_row():
    inst = LinkInstance(1, 4)
    for k in range(1, 5):
        assert antidiagonal_divisor(inst, (k,), ()) == k


def test_antidiagonal_divisor_exhaustive_small():
    for m, n in [(2, 3), (2, 4), (3, 4), (3, 5)]:
        inst = LinkInstance(m, n)
        for cols in inst.column_sets:
            for A in inst.selectors:
                j = antidiagonal_divisor(inst, cols, A)
                assert 1 <= j <= inst.g
                target = antidiagonal_monomial(m, cols) * complement_monomial(m, n, A)
                assert antidiagonal_monomial(m, range(j, j + m)).divides(target)


def test_antidiagonal_divisor_smallest_columns():
    inst = LinkInstance(3, 5)
    j = antidiagonal_divisor(inst, (1, 2, 3), (2, 3))
    assert antidiagonal_monomial(3, range(j, j + 3)).divides(
        antidiagonal_monomial(3, (1, 2, 3)) * complement_monomial(3, 5, (2, 3))
    )


def test_antidiagonal_divisor_builds_no_antidiagonal_per_call(monkeypatch):
    # every antidiagonal is packed once, in the instance's word table, so
    # once the table is built a call builds none; a call on columns that
    # are no column set still builds them, to raise the ValueError
    built = []
    build = LinkInstance._antidiagonal_vec

    def counted(self, cols):
        built.append(tuple(cols))
        return build(self, cols)

    monkeypatch.setattr(LinkInstance, "_antidiagonal_vec", counted)
    inst = LinkInstance(3, 5)
    antidiagonal_divisor(inst, (1, 2, 3), (2, 3))  # warm-up
    for cols in inst.column_sets:
        for A in inst.selectors:
            built.clear()
            antidiagonal_divisor(inst, cols, A)
            assert built == []
    for cols in [(1, 2), (2, 1, 3), (0, 1, 2), (3, 4, 6)]:
        with pytest.raises(ValueError):
            antidiagonal_divisor(inst, cols, (2, 3))


# -- square divisors -------------------------------------------------------------


def test_square_divisor_r0_single_generator():
    inst = LinkInstance(2, 4)
    w = square_divisor(inst, (2,), ())
    assert w.case == "coprime_block" or w.case == "single_antidiagonal"
    assert w.delta == diag_generator(2, 2)
    assert (w.delta ** 2).divides(w.gamma)


def test_square_divisor_interior_cell_47():
    w = square_divisor(LinkInstance(4, 7), (), ((2, 4, 5), (2, 5, 7), (2, 6, 7)))
    assert w.case == "interior_cell"
    assert w.cell == (2, 5)
    assert w.lo == 2
    assert w.hi == 3
    assert w.bridge == (2, 5, 6)


def test_square_divisor_all_antidiagonals_35():
    inst = LinkInstance(3, 5)
    w = square_divisor(inst, (1, 2, 3), ())
    assert w.case == "coprime_block"
    assert w.r == 1
    expected = Monomial.one()
    for j in (1, 2, 3):
        expected = expected * diag_generator(3, j)
    assert w.delta == expected


def test_square_divisor_exhaustive_small_instances():
    for m, n in [(2, 3), (2, 4), (3, 4)]:
        inst = LinkInstance(m, n)
        for r in (0, 1):
            total = 2 * r + 1
            for a in range(min(total, inst.g) + 1):
                for diag in combinations(range(1, inst.g + 1), a):
                    for chain in brute_multichains(inst.selectors, total - a):
                        square_divisor(inst, diag, chain)


def test_square_divisor_gamma_is_nu_times_the_generators():
    # the witness keeps exponent vectors; its monomials must be the products
    # the docstring names, multiplied here as monomials
    for m, n in [(2, 3), (2, 4), (3, 4)]:
        inst = LinkInstance(m, n)
        for r in (0, 1):
            total = 2 * r + 1
            for a in range(min(total, inst.g) + 1):
                for diag in combinations(range(1, inst.g + 1), a):
                    for chain in brute_multichains(inst.selectors, total - a):
                        w = square_divisor(inst, diag, chain)
                        gamma = Monomial.of(*inst.universe.variables)
                        for i in diag:
                            gamma = gamma * diag_generator(m, i)
                        for A in chain:
                            gamma = gamma * staircase_generator(m, n, A)
                        assert w.gamma == gamma, (m, n, diag, chain)
                        assert (w.delta ** 2).divides(gamma)
                        assert inst.link_initial.power(r + 1).contains(w.delta)
                        assert w.r == r


def test_interior_cell_witness_names_its_off_staircase_variables():
    inst = LinkInstance(4, 7)
    w = square_divisor(inst, (), ((2, 4, 5), (2, 5, 7), (2, 6, 7)))
    # cell (2,5), cuts lo = 2 and hi = 3: the rows 1 and 4 of antidiagonal 7
    assert w.off_staircase == Monomial.of(xvar(1, 6), xvar(4, 3))
    assert square_divisor(inst, (1,), ()).off_staircase is None


def test_square_divisor_sampled_35():
    inst = LinkInstance(3, 5)
    rng = random.Random(11)
    for _ in range(200):
        r = rng.randrange(3)
        total = 2 * r + 1
        a = rng.randrange(min(total, inst.g) + 1)
        diag = tuple(sorted(rng.sample(range(1, inst.g + 1), a)))
        chain = chain_normal_form(
            [inst.selectors[rng.randrange(len(inst.selectors))] for _ in range(total - a)]
        ) if total - a else ()
        w = square_divisor(inst, diag, chain)
        assert (w.delta ** 2).divides(w.gamma)


def test_square_divisor_sampled_47():
    inst = LinkInstance(4, 7)
    rng = random.Random(23)
    for _ in range(60):
        r = rng.randrange(3)
        total = 2 * r + 1
        a = rng.randrange(min(total, inst.g) + 1)
        diag = tuple(sorted(rng.sample(range(1, inst.g + 1), a)))
        chain = chain_normal_form(
            [inst.selectors[rng.randrange(len(inst.selectors))] for _ in range(total - a)]
        ) if total - a else ()
        w = square_divisor(inst, diag, chain)
        assert (w.delta ** 2).divides(w.gamma)


# the instances of the factor oracles, the degenerate (3,3) and (1,4) included
FACTOR_ORACLE_INSTANCES = [(2, 3), (2, 4), (3, 3), (1, 4), (3, 5)]


def _assert_factors_certify(inst, vec, factors):
    """By brute force: the factors sum to ``vec``, and each lies in iniJ."""
    assert tuple(map(sum, zip(*factors))) == vec if factors else not any(vec)
    assert all(vec_divides_some(inst.link_initial.vecs, f) for f in factors)


def test_square_divisor_factors_against_the_link_power():
    for m, n in FACTOR_ORACLE_INSTANCES:
        inst = LinkInstance(m, n)
        every = _square_inputs(inst, 2, random.Random(0), 0, exhaustive_cap=10**6)
        for diag, chain in every:
            w = square_divisor(inst, diag, chain)
            assert len(w.factor_vecs) >= w.r + 1, (m, n, diag, chain)
            _assert_factors_certify(inst, w.delta_vec, w.factor_vecs)
            assert inst.link_initial.power(w.r + 1).contains(w.delta)
            assert "factor" not in repr(w)


def test_odd_part_root_factors_against_the_link_power():
    rng = random.Random(29)
    for m, n in FACTOR_ORACLE_INSTANCES:
        inst = LinkInstance(m, n)
        # every multiplicity 1 and an odd count: r - s = 0, the root has no factor
        ones = ({k: 1 for k in range(1, inst.g + 1)},
                {A: 1 for A in inst.selectors[:1 - inst.g % 2]})
        assert odd_part_reduction(inst, *ones).root_factor_vecs == ()
        multisets = [ones]
        for _ in range(60):
            diag = {k: rng.randrange(5) for k in range(1, inst.g + 1)}
            sel = {A: rng.randrange(5) for A in rng.sample(inst.selectors, 1)}
            if (sum(diag.values()) + sum(sel.values())) % 2 == 0:
                diag[1] += 1
            multisets.append((diag, sel))
        for diag, sel in multisets:
            red = odd_part_reduction(inst, diag, sel)
            total = sum(diag.values()) + sum(sel.values())
            level = (total - 1) // 2 - (red.odd_count - 1) // 2
            assert len(red.root_factor_vecs) == level
            _assert_factors_certify(inst, red.square_root_vec, red.root_factor_vecs)
            assert inst.link_initial.power(level).contains(red.square_root)
            assert "factor" not in repr(red)


def test_odd_part_failure_names_the_square_root(monkeypatch):
    inst = LinkInstance(2, 4)
    monkeypatch.setattr(MonomialIdeal, "_divides_into", lambda self, vec: False)
    root = diag_generator(2, 1)
    with pytest.raises(AssertionError) as caught:
        odd_part_reduction(inst, {1: 3}, {})
    assert str(caught.value) == f"square root {root} escaped power 1"

    monkeypatch.setattr(genlink.verify, "square_divisor", lambda inst, diag, chain: None)
    rep = verify_witnesses(inst, VerifyBounds(square_colon_rmax=1))
    assert rep.status == "fail"
    error = rep.witnesses["error"]
    assert error.startswith("square root ") and " escaped power " in error
    assert "Y[" in error and "(0," not in error


def test_square_divisor_checks_the_square_on_vectors():
    # double an exponent of Y[1,1]*antidiagonal(1) after the link ideal is
    # built: delta stays in the power, but delta^2 no longer divides gamma
    inst = LinkInstance(3, 5)
    inst.link_initial.power(2)
    first = list(inst._diag_vecs[0])
    first[inst.universe.index[yvar(1, 1)]] = 2
    inst.__dict__["_diag_vecs"] = (tuple(first), *inst._diag_vecs[1:])
    with pytest.raises(AssertionError, match=r"delta\^2 does not divide gamma: .*Y\[1,1\]\^2"):
        square_divisor(inst, (1, 2, 3), ())


@pytest.mark.parametrize("e", [63, 64, 127, 128])
def test_square_divisor_checks_a_planted_exponent_at_a_field_boundary(e):
    # as above with Y[1,1]^e: 2*delta puts 2e at Y[1,1], at or past the top
    # bit of a one-byte field, against e+1 in gamma
    inst = LinkInstance(3, 5)
    inst.link_initial.power(2)
    first = list(inst._diag_vecs[0])
    first[inst.universe.index[yvar(1, 1)]] = e
    inst.__dict__["_diag_vecs"] = (tuple(first), *inst._diag_vecs[1:])
    message = (rf"delta\^2 does not divide gamma: SquareDivisorWitness\(delta=Monomial\(Y\[1,1\]\^{e}\*"
               rf".*gamma=Monomial\(Y\[1,1\]\^{e + 1}\*")
    with pytest.raises(AssertionError, match=message):
        square_divisor(inst, (1, 2, 3), ())


def test_word_sums_widen_their_fields_at_the_top_bit():
    # count * top below 128 fits a byte, up to 32767 two bytes; a field
    # never borrows from its neighbour
    formats = []
    cases = [(127, 1), (64, 2), (1, 127), (1, 128), (255, 1), (128, 2), (300, 7), (40000, 1)]
    for top, count in cases:
        table = WordCache({"v": (top, 0, 1), "x": (0, 1, 0), "z": (0, 0, 1), "t": (top, 0, 0)})
        sums = table.sums(count)
        total = sums.sum(["v"] * count)
        assert total == sums.sum(["v"], [count])
        assert sums.unpack(total) == (top * count, 0, count)
        assert sums.fits(total, total) and sums.fits(sums.sum(["v"]), total, count)
        assert not sums.fits(sums.sum(["x"]), total)
        assert not sums.fits(sums.sum(["z"]), sums.sum(["t"]))
        assert total == sums.sum(["v"], [count - 1]) + sums.sum(["v"])
        assert table.sums(count) is sums  # packed once per field size
        formats.append(sums.words["x"])  # 2 ** (8 * field size)
    assert [formats.index(x) for x in formats] == [0, 1, 0, 1, 1, 1, 1, 7]
    assert formats[0] == 2 ** 8 and formats[1] == 2 ** 16 and formats[-1] == 2 ** 24


def test_word_caches_leave_no_cyclic_garbage():
    # a run packs the instance's words once per field size; dropping the
    # instance frees them by reference counts alone
    gc.collect()
    gc.disable()
    try:
        inst = LinkInstance(3, 5)
        assert verify_witnesses(inst).passed
        del inst
        assert gc.collect() == 0
    finally:
        gc.enable()


def _brute_square_inputs(inst, r_max, cap):
    """Every (diag indices, chain) input of an odd total up to
    ``2 * r_max + 1``, in the witness suite's order, from the brute-force
    chains; None once there are more than ``cap``."""
    inputs = []
    for r in range(r_max + 1):
        for a in range(min(2 * r + 1, inst.g) + 1):
            chains = brute_multichains(inst.selectors, 2 * r + 1 - a)
            inputs += [(diag, c) for diag in combinations(range(1, inst.g + 1), a) for c in chains]
        if len(inputs) > cap:
            return None
    return inputs


def test_square_inputs_list_the_brute_force_chains(monkeypatch):
    # the listing, order included, at every instance and r_max that lists,
    # m = 1 (one empty selector) and m = n among them; one cap less draws.
    # Each call compares every pair of selectors once, at any r_max.
    compared = []
    monkeypatch.setattr(genlink.verify, "leq", lambda A, B: compared.append(1) or leq(A, B))
    cases = []
    for m in range(1, 5):
        for n in range(m, 8):
            inst = LinkInstance(m, n)
            for r_max in range(4):
                every = _brute_square_inputs(inst, r_max, EXHAUSTIVE_CAP)
                if every is None:
                    continue
                compared.clear()
                assert _square_inputs(inst, r_max, random.Random(0), 1, len(every)) == every
                assert len(compared) == len(inst.selectors) ** 2
                drawn = _square_inputs(inst, r_max, random.Random(0), len(every) + 1, len(every) - 1)
                assert len(drawn) == len(every) + 1, (m, n, r_max)
                assert len(compared) == 2 * len(inst.selectors) ** 2
                cases.append((m, n, r_max))
    assert {(1, 1, 3), (1, 7, 3), (4, 4, 3), (4, 7, 1)} <= set(cases)


def _generator_monomials(inst):
    """Each generator vector the witnesses sum, mapped to its monomial as
    the definitions build it."""
    m, n = inst.m, inst.n
    gens = [diag_generator(m, j) for j in range(1, inst.g + 1)]
    gens += [staircase_generator(m, n, A) for A in inst.selectors]
    return {inst.universe.vector(gen): gen for gen in gens}


def _product(monomials):
    return reduce(mul, monomials, Monomial.one())


@pytest.mark.parametrize("m, n", [(2, 4), (3, 5), (3, 3), (4, 6), (1, 3)])
def test_word_sums_match_monomial_products(m, n):
    # seeded inputs of up to 2 * 70 + 1 generators and multiplicities up to
    # 300, so that exponents pass 127 and 255 and the fields widen; the
    # witnesses also match their vector-level reference there
    inst = LinkInstance(m, n)
    vector, gens = inst.universe.vector, _generator_monomials(inst)
    nu = Monomial.of(*inst.universe.variables)
    rng = random.Random(10 * m + n)
    tops = []
    for r in (0, 1, 2, 5, 63, 64, 70):
        total = 2 * r + 1
        a = rng.randrange(min(total, inst.g) + 1)
        diag = tuple(sorted(rng.sample(range(1, inst.g + 1), a)))
        chain = chain_normal_form([rng.choice(inst.selectors) for _ in range(total - a)]) if total > a else ()
        w = square_divisor(inst, diag, chain)
        gamma = nu * _product(gens[inst._diag_vec(i)] for i in diag)
        gamma = gamma * _product(staircase_generator(m, n, A) for A in chain)
        assert w.gamma_vec == vector(gamma) and w.gamma == gamma, (diag, chain)
        assert w.delta_vec == vector(_product(map(gens.__getitem__, w.factor_vecs))), (diag, chain)
        _assert_matches_the_reference(inst, diag, chain)
        tops.append(max(w.gamma_vec))
    for most in (1, 4, 130, 300):
        diag = {k: rng.randrange(most + 1) for k in range(1, inst.g + 1)}
        sel = {A: rng.randrange(most + 1) for A in rng.sample(inst.selectors, 1)}
        if (sum(diag.values()) + sum(sel.values())) % 2 == 0:
            diag[1] += 1
        red = odd_part_reduction(inst, diag, sel)
        factors = [(diag_generator(m, k), e) for k, e in diag.items()]
        factors += [(staircase_generator(m, n, A), e) for A, e in sel.items()]
        parts = [_product(gen ** (e % 2) for gen, e in factors),
                 _product(gen ** (e // 2) for gen, e in factors),
                 _product(gen ** e for gen, e in factors)]
        assert (red.odd_part_vec, red.square_root_vec, red.product_vec) == tuple(map(vector, parts))
        assert (red.product_vec, red.odd_part_vec, red.square_root_vec,
                red.root_factor_vecs) == _reference_odd_part(inst, diag, sel), (diag, sel)
        tops.append(max(red.product_vec))
    assert max(tops) > 255


def test_square_divisor_input_validation():
    inst = LinkInstance(3, 5)
    with pytest.raises(ValueError):
        square_divisor(inst, (1, 2), ())  # even total
    with pytest.raises(ValueError):
        square_divisor(inst, (2, 1, 3), ())  # not increasing
    with pytest.raises(ValueError):
        square_divisor(inst, (), ((3, 4), (2, 5), (2, 3)))  # unsorted chain
    with pytest.raises(ValueError):
        square_divisor(inst, (), ((1, 3),))  # not a selector


def test_even_position_squares_divide_odd_chains():
    # chains of odd length 2r+1: the product over even positions, squared,
    # divides the full product
    rng = random.Random(5)
    for inst in (LinkInstance(3, 5), LinkInstance(4, 6)):
        for _ in range(250):
            r = rng.randrange(4)
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


# -- odd part reduction ------------------------------------------------------------


def test_odd_part_all_multiplicity_one():
    inst = LinkInstance(2, 4)
    red = odd_part_reduction(inst, {1: 1, 2: 1}, {(2,): 1})
    assert red.square_root == Monomial.one()
    assert red.odd_part == red.product
    assert red.odd_count == 3


def test_odd_part_single_generator_cubed():
    inst = LinkInstance(2, 4)
    gen = diag_generator(2, 1)
    red = odd_part_reduction(inst, {1: 3}, {})
    assert red.odd_part == gen
    assert red.square_root == gen
    assert red.product == gen ** 3


def test_odd_part_mixed_multiset():
    inst = LinkInstance(2, 4)
    red = odd_part_reduction(inst, {1: 2}, {(2,): 2, (3,): 1})
    assert red.odd_count == 1
    assert red.odd_part * red.square_root ** 2 == red.product


def test_odd_part_parts_match_monomial_products():
    rng = random.Random(17)
    for inst in (LinkInstance(2, 4), LinkInstance(3, 5)):
        for _ in range(100):
            diag = {k: rng.randrange(4) for k in rng.sample(range(1, inst.g + 1), 2)}
            sel = {A: rng.randrange(4) for A in rng.sample(inst.selectors, 2)}
            if (sum(diag.values()) + sum(sel.values())) % 2 == 0:
                diag[1] = diag.get(1, 0) + 1
            factors = [(diag_generator(inst.m, k), e) for k, e in diag.items()]
            factors += [(staircase_generator(inst.m, inst.n, A), e) for A, e in sel.items()]
            red = odd_part_reduction(inst, diag, sel)
            product = odd = root = Monomial.one()
            for gen, e in factors:
                product = product * gen ** e
                odd = odd * gen ** (e % 2)
                root = root * gen ** (e // 2)
            assert (red.product, red.odd_part, red.square_root) == (product, odd, root)
            assert red.odd_count == sum(e % 2 for _, e in factors)


def test_witness_indices_do_not_wrap_around():
    # the generators are looked up at [k - 1]; k = 0 must not reach the last one
    inst = LinkInstance(2, 4)
    with pytest.raises(ValueError):
        square_divisor(inst, (0,), ())
    with pytest.raises(ValueError):
        odd_part_reduction(inst, {0: 1}, {})
    with pytest.raises(ValueError):
        odd_part_reduction(inst, {0: 0, 1: 1}, {})
    with pytest.raises(ValueError):
        odd_part_reduction(inst, {inst.g + 1: 1}, {})


def test_odd_part_rejects_even_total():
    with pytest.raises(ValueError):
        odd_part_reduction(LinkInstance(2, 4), {1: 2}, {})
    with pytest.raises(ValueError):
        odd_part_reduction(LinkInstance(2, 4), {}, {(1,): 1})  # not a selector


# -- the word table against vector arithmetic ---------------------------------------


def _vec_sum(vecs, width):
    return tuple(map(sum, zip(*vecs))) if vecs else (0,) * width


def _reference_square_divisor(inst, diag, chain):
    """square_divisor's witness on exponent vectors: the generators picked
    by the accessors and added position by position."""
    width, m = len(inst.universe), inst.m
    diag_vecs = [inst._diag_vec(i) for i in diag]
    stair_vecs = [inst._staircase_vec(A) for A in chain]
    a, b = len(diag), len(chain)
    cell = lo = hi = bridge = None
    if a >= 2:
        case, factors = "coprime_block", diag_vecs + stair_vecs[1:b - 1:2]
    elif a == 1:
        extra = tuple(range(diag[0] + 1, diag[0] + m))
        case = "single_antidiagonal"
        picked = chain_normal_form((*chain, extra))[1::2]
        factors = [diag_vecs[0], *map(inst._staircase_vec, picked)]
    else:
        found = _interior_cell(inst, chain)
        if found is None:
            case, factors = "chain_ends", stair_vecs[::2]
        else:
            cell = found[0]
            lo, hi, bridge = _bridge_selector(inst, chain[0], chain[-1], cell)
            case = "interior_cell"
            factors = [inst._diag_vec(sum(cell) - m), inst._staircase_vec(bridge),
                       *stair_vecs[2:-1:2]]
    gamma = _vec_sum([(1,) * width, *diag_vecs, *stair_vecs], width)
    return (_vec_sum(factors, width), gamma, tuple(factors), case, cell, lo, hi, bridge)


def _reference_odd_part(inst, diag_mult, sel_mult):
    """odd_part_reduction's parts on exponent vectors."""
    width = len(inst.universe)
    items = [(inst._diag_vec(k), e) for k, e in sorted(diag_mult.items())]
    items += [(inst._staircase_vec(A), e) for A, e in sorted(sel_mult.items())]
    product = [vec for vec, e in items for _ in range(e)]
    odd = [vec for vec, e in items if e % 2]
    root = [vec for vec, e in items for _ in range(e // 2)]
    return (_vec_sum(product, width), _vec_sum(odd, width), _vec_sum(root, width), tuple(root))


def _assert_matches_the_reference(inst, diag, chain):
    w = square_divisor(inst, diag, chain)
    delta, gamma, factors, *rest = _reference_square_divisor(inst, diag, chain)
    assert (w.delta_vec, w.gamma_vec, w.factor_vecs) == (delta, gamma, factors), (diag, chain)
    assert (w.case, w.cell, w.lo, w.hi, w.bridge) == tuple(rest), (diag, chain)
    assert w.r == (len(diag) + len(chain) - 1) // 2


@pytest.mark.parametrize("m, n", [(1, 3), (2, 4), (3, 3), (3, 5)])
def test_witnesses_match_vector_arithmetic_on_every_input(m, n):
    inst = LinkInstance(m, n)
    for diag, chain in _square_inputs(inst, 2, random.Random(0), 0, exhaustive_cap=10**6):
        _assert_matches_the_reference(inst, diag, chain)
    for cols in inst.column_sets:
        gen = inst._antidiagonal_vec(cols)
        for A in inst.selectors:
            j = antidiagonal_divisor(inst, cols, A)
            # the scan rule's index, and the window divides on vectors
            eps = next(i for i in range(1, m + 1) if i == m or cols[i - 1] + 1 < A[i - 1])
            assert j == cols[eps - 1] - eps + 1
            window = inst._antidiagonal_vec(range(j, j + m))
            target = [u + v for u, v in zip(gen, inst._complement_vecs[A])]
            assert all(map(le, window, target)), (cols, A)


def test_witness_records_are_immutable():
    inst = LinkInstance(3, 5)
    w = square_divisor(inst, (), ((2, 4), (2, 5), (3, 5)))
    red = odd_part_reduction(inst, {1: 3}, {(2, 3): 2})
    fields = [(w, "case"), (w, "delta_word"), (red, "odd_count"), (red, "product_word")]
    for record, field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert repr(w).startswith("SquareDivisorWitness(delta=Monomial(")
    assert repr(red).startswith("OddPartReduction(product=Monomial(")
