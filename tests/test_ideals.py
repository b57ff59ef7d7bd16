import hashlib
from functools import lru_cache, reduce
from itertools import chain, combinations, combinations_with_replacement
from operator import add, and_
from random import Random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bruteforce import (
    all_monomials,
    brute_minimal_covers,
    pairwise_colon,
    pairwise_intersect,
    pairwise_product,
    pairwise_symbolic_power,
    prime_degree_member,
    scan_minimalize,
    square_colon_holds,
    vec_divides_some,
)
from genlink import (
    LinkInstance,
    Monomial,
    MonomialIdeal,
    NotSquarefree,
    SizeGuardExceeded,
    Universe,
    UniverseMismatch,
    first_symbolic_gap,
    ideal,
    square_colon_scan,
    unit_ideal,
    xvar,
    zero_ideal,
)
from genlink import ideals
from genlink.ideals import DEFAULT_CANDIDATE_CAP, _DivisorIndex, _minimalize, _minimalize_words

U3 = Universe.x_grid(1, 3)
U4 = Universe.x_grid(1, 4)
X1, X2, X3 = xvar(1, 1), xvar(1, 2), xvar(1, 3)


def mono(*vs):
    return Monomial.of(*vs)


def triangle():
    return ideal(U3, [mono(X1, X2), mono(X1, X3), mono(X2, X3)])


squarefree_ideals = st.builds(
    lambda gens: ideal(U4, [Monomial.of(*g) for g in gens]),
    st.lists(
        st.sets(st.sampled_from([xvar(1, j) for j in range(1, 5)]), min_size=1, max_size=3),
        min_size=1,
        max_size=4,
    ),
)

U6 = Universe.x_grid(1, 6)

# up to 6 generators of degree 1 to 4 over 6 variables, so that some
# variables are often unused
sparse_squarefree_ideals = st.builds(
    lambda gens: ideal(U6, [Monomial.of(*g) for g in gens]),
    st.lists(
        st.sets(st.sampled_from(U6.variables), min_size=1, max_size=4),
        min_size=1,
        max_size=6,
    ),
)


small_ideals = st.builds(
    lambda gens: ideal(U3, gens),
    st.lists(
        st.builds(
            Monomial,
            st.dictionaries(
                st.sampled_from([X1, X2, X3]),
                st.integers(min_value=1, max_value=3),
                min_size=1,
                max_size=3,
            ),
        ),
        min_size=1,
        max_size=4,
    ),
)


# -- reduction ----------------------------------------------------------------


def test_reduce_examples():
    assert ideal(U3, [mono(X1), mono(X1, X2)]).gens == (mono(X1),)
    assert ideal(U3, []).is_zero()
    got = ideal(U3, [mono(X1, X2), mono(X2, X3), mono(X1, X2, X3)])
    assert set(got.gens) == {mono(X1, X2), mono(X2, X3)}


def test_reduce_universe_mismatch():
    with pytest.raises(UniverseMismatch):
        ideal(U3, [mono(xvar(1, 4))])


MIXED = Universe.full(2, 2, 2, 2)  # x variables first, but Y sorts first

mixed_ideals = st.builds(
    lambda gens: ideal(MIXED, gens),
    st.lists(
        st.builds(
            Monomial,
            st.dictionaries(
                st.sampled_from(MIXED.variables),
                st.integers(min_value=1, max_value=3),
                max_size=4,
            ),
        ),
        max_size=6,
    ),
)


def by_degree_then_vector(vecs):
    return sorted(vecs, key=lambda v: (sum(v), v))


@given(mixed_ideals)
@example(ideal(MIXED, [mono(xvar(1, 2)), mono(xvar(1, 1))]))
@settings(max_examples=80)
def test_vectors_masks_and_gens_agree(W):
    # vecs are in (degree, exponent vector) order, and masks and gens line
    # up with them; on the example, sorting the monomials by variable would
    # put x[1,1] first instead
    assert list(W.vecs) == by_degree_then_vector(W.vecs)
    assert len(W.vecs) == len(W.masks) == len(W.gens)
    for vec, mask, g in zip(W.vecs, W.masks, W.gens):
        assert vec == tuple(g.exponent(v) for v in MIXED.variables)
        assert mask == sum(1 << i for i, e in enumerate(vec) if e)
    assert ideal(MIXED, W.gens) == W


@given(squarefree_ideals, squarefree_ideals)
@settings(max_examples=40, deadline=None)
def test_every_constructor_keeps_the_generator_order(A, B):
    built = [A.product(B), A.power(2), A.power(3), A.colon(B), A.intersect(B)]
    built += [A.symbolic_power(level) for level in (1, 2, 3)]
    built.append(ideal(U4, reversed(A.gens + B.gens)))
    inst = LinkInstance(2, 4)
    built += [inst.minors_initial, inst.sequence_initial, inst.staircase_ideal, inst.link_initial]
    for W in built:
        assert list(W.vecs) == by_degree_then_vector(W.vecs)


@given(small_ideals)
def test_reduce_idempotent_antichain(W):
    assert ideal(W.universe, W.gens).gens == W.gens
    for a in W.gens:
        for b in W.gens:
            assert a == b or not a.divides(b)


# -- divisor index ----------------------------------------------------------------


seeds = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def degree_bands(draw, squarefree):
    """Exponent vectors whose degrees mostly lie in a narrow band, so that
    many are pairwise incomparable and the kept antichain often outgrows the
    index switch (4 per variable); a few free vectors prune the band.
    Returns ``(width, vecs)``; the vectors come from a drawn seed."""
    rng = Random(draw(seeds))
    count = draw(st.integers(min_value=1, max_value=400))
    if squarefree:
        width = draw(st.integers(min_value=8, max_value=11))
        degree = draw(st.integers(min_value=3, max_value=width - 4))

        def band():
            support = rng.sample(range(width), degree + rng.randint(0, 2))
            return tuple(int(i in support) for i in range(width))

        def free():
            return tuple(rng.randint(0, 1) for _ in range(width))
    else:
        width = draw(st.integers(min_value=3, max_value=4))
        degree = draw(st.integers(min_value=6, max_value=6 * (width - 1)))

        def band():
            head = [rng.randint(0, 6) for _ in range(width - 1)]
            last = min(max(degree + rng.randint(0, 2) - sum(head), 0), 6)
            return (*head, last)

        def free():
            return tuple(rng.randint(0, 6) for _ in range(width))
    vecs = [band() for _ in range(count)]
    vecs += [free() for _ in range(draw(st.integers(min_value=0, max_value=3)))]
    return width, vecs


def reduction_order(vec):
    # the generator order of every ideal: by degree, then exponents in vector
    # order; the scan reference sorts by degree, then support mask
    return sum(vec), vec


def scan_reference(vecs):
    return sorted(scan_minimalize(vecs), key=reduction_order)


def minimalized(vecs, cap=DEFAULT_CANDIDATE_CAP):
    # _minimalize returns its antichain in no set order; ideal() sorts it
    return sorted(_minimalize(vecs, cap), key=reduction_order)


def reduced_against(seed, candidates, cap=DEFAULT_CANDIDATE_CAP):
    """The antichain ``seed``, then the distinct candidates that no seed
    vector and no other candidate divides, as _minimalize_words keeps them
    on packed words."""
    vecs = seed + candidates
    if not vecs:
        return []
    codec = ideals._packing(ideals._top(vecs), len(vecs[0]))
    got = codec.unpack(_minimalize_words(codec.pack(seed), sorted(set(codec.pack(candidates))), codec, cap))
    return got[:len(seed)] + sorted(got[len(seed):], key=reduction_order)


@given(st.booleans().flatmap(degree_bands))
# Words are reduced in integer order, not by degree. Here (1, 0, 0) is the
# larger word but of lower degree than (0, 1, 1); and 14 words free of the
# first variable pass the index switch (12 kept at width 3) before the
# degree-2 word (2, 0, 0), which must still beat its multiples there.
@example((3, [(3, 0, 0), (0, 1, 1), (1, 0, 0)]))
@example((3, [(0, b, 13 - b) for b in range(14)] + [(1, 0, 13), (2, 0, 0), (2, 1, 0), (3, 0, 0)]))
@settings(max_examples=120, deadline=None)
def test_minimalize_matches_scan_reference(band):
    _, vecs = band
    assert minimalized(vecs) == scan_reference(vecs)


def assert_seeded_matches_scan(vecs, cut):
    # The seed is the antichain of the first ``cut`` vectors; candidates
    # dividing a seed vector are dropped, as _minimalize_words requires.
    seed = scan_minimalize(vecs[:cut])
    candidates = [c for c in vecs[cut:] if not any(vec_divides_some([c], s) for s in seed)]
    got = reduced_against(seed, candidates)
    assert got[:len(seed)] == seed
    assert got[len(seed):] == [v for v in scan_reference(seed + candidates) if v not in seed]


@given(st.booleans().flatmap(degree_bands), st.integers(min_value=0, max_value=400))
@settings(max_examples=80, deadline=None)
def test_minimalize_with_seed_matches_scan_reference(band, cut):
    _, vecs = band
    assert_seeded_matches_scan(vecs, cut)


# byte fields end at 127; 2^40 would need 2^40 index slices per variable
WIDE_EXPONENTS = st.sampled_from([0, 1, 2, 127, 128, 255, 256, 2**40])


@given(
    st.integers(min_value=1, max_value=4).flatmap(
        # at most 4 vectors per variable, so the scan never reaches the index
        lambda width: st.lists(st.tuples(*[WIDE_EXPONENTS] * width), max_size=4 * width)
    ),
    st.integers(min_value=0, max_value=16),
)
@settings(max_examples=200)
def test_minimalize_packs_wide_exponents(vecs, cut):
    assert minimalized(vecs) == scan_reference(vecs)
    assert_seeded_matches_scan(vecs, cut)


def test_minimalize_scans_past_the_switch_above_the_index_exponent(monkeypatch):
    monkeypatch.setattr(ideals, "_minimalize_indexed", None)  # must not be reached
    level5 = [(a, b, 5 - a - b, 0) for a in range(6) for b in range(6 - a)]  # 21 vectors
    vecs = level5 + [(0, 0, 0, 2**40), (1, 0, 0, 2**40), (0, 0, 6, 0)]
    assert minimalized(vecs) == scan_reference(vecs)
    assert len(_minimalize(vecs)) == 22


def test_minimalize_refuses_a_long_scan_above_the_index_exponent():
    # with no index to fall back on, the scan refuses before it starts when
    # candidates times (kept + candidates) exceeds the cap
    level5 = [(a, b, 5 - a - b, 0) for a in range(6) for b in range(6 - a)]  # 21 vectors
    huge = level5 + [(0, 0, 0, 2**40)]
    with pytest.raises(SizeGuardExceeded) as refused:
        _minimalize(huge, cap=22 * 22 - 1)
    assert refused.value.estimate == 22 * 22
    assert len(_minimalize(huge, cap=22 * 22)) == 22
    seed, candidates = huge[:10], huge[10:]
    with pytest.raises(SizeGuardExceeded) as refused:
        reduced_against(seed, candidates, cap=12 * 22 - 1)
    assert refused.value.estimate == 12 * 22
    assert reduced_against(seed, candidates, cap=12 * 22) == seed + scan_reference(candidates)
    # up to the index exponent the index takes over and the cap is not consulted
    assert len(_minimalize(level5 + [(0, 0, 0, 255)], cap=1)) == 22


def test_divisor_index_refuses_exponents_above_its_cap():
    big = Monomial({xvar(1, 4): 2**40})
    W = ideal(U4, [big, mono(X1)])
    # a generator is found by lookup, so asking for it builds no index
    assert W.contains(big) and W.contains(mono(X1))
    assert "_index" not in W.__dict__
    with pytest.raises(SizeGuardExceeded) as refused:
        W.contains(mono(X2))
    assert refused.value.estimate == 2**40 + 1
    assert ideal(U4, [Monomial({xvar(1, 4): 255}), mono(X1)]).contains(Monomial({xvar(1, 4): 256}))


def test_minimalize_switches_after_four_kept_per_variable(monkeypatch):
    entered = []
    original = ideals._minimalize_indexed

    def spy(kept, items, codec):
        entered.append(len(kept))
        return original(kept, items, codec)

    monkeypatch.setattr(ideals, "_minimalize_indexed", spy)
    level4 = [(a, b, 4 - a - b) for a in range(5) for b in range(5 - a)]  # 15 vectors
    top = (0, 0, 6)  # divided by level4[0] == (0, 0, 4)
    for size, switched in ((12, False), (13, True)):
        entered.clear()
        vecs = level4[:size] + [top]
        assert minimalized(vecs) == scan_reference(vecs)
        assert entered == ([size] if switched else [])


def test_minimalize_matches_scan_on_link_powers_3_5():
    W = LinkInstance(3, 5).link_initial
    power, reached = W, 0
    for _ in range(2, 6):
        candidates = [tuple(map(add, u, v)) for u in power.vecs for v in W.vecs]
        got = minimalized(candidates)
        assert got == scan_reference(candidates)
        reached += len(got) > 4 * len(W.universe)
        power = power.product(W)
    assert reached >= 2  # W^4 and W^5 reduce through the index


@given(
    st.lists(
        st.lists(st.tuples(*[st.integers(min_value=0, max_value=4)] * 3), max_size=12),
        max_size=5,
    ),
    st.lists(st.tuples(*[st.integers(min_value=0, max_value=7)] * 3), min_size=1, max_size=20),
)
@settings(max_examples=150)
def test_divisor_index_batches_match_raw_divisibility(batches, queries):
    index = _DivisorIndex(3)
    added = []
    for batch in batches:
        index.add(batch)
        added += batch
        for q in queries:
            assert index.divides_some(q) == vec_divides_some(added, q)


# each exponent is a boundary of the one-byte translate tables: 0 and 255
# the ends, 127/128 where fields widen, 254/255 the last two slices
INDEX_EXPONENTS = st.sampled_from([0, 1, 127, 128, 254, 255])


@given(st.lists(st.lists(st.tuples(*[INDEX_EXPONENTS] * 3), max_size=10), max_size=4))
@settings(max_examples=60, deadline=None)
def test_divisor_index_slices_match_their_definition(batches):
    # bit i of below[k][e] is set iff vector i has exponent at most e at k,
    # for e up to tops[k], the largest exponent indexed at k
    index = _DivisorIndex(3)
    added = []
    for batch in batches:
        index.add(batch)
        added += batch
        assert index.size == len(added)
        for k, col in enumerate(index.below):
            assert index.tops[k] == max((v[k] for v in added), default=0)
            assert len(col) == index.tops[k] + 1
            for e, bits in enumerate(col):
                assert bits == sum(1 << i for i, v in enumerate(added) if v[k] <= e), (k, e)


@given(st.booleans().flatmap(degree_bands), seeds)
@settings(max_examples=60, deadline=None)
def test_contains_matches_raw_divisibility(band, seed):
    width, vecs = band
    rng = Random(seed)
    U = Universe.x_grid(1, width)
    W = ideal(U, [Monomial(zip(U.variables, v)) for v in vecs])
    top = max(max(v) for v in W.vecs)
    # queries reach above every generator's exponent, exercising the clamp
    queries = [tuple(rng.randint(0, top + 2) for _ in range(width)) for _ in range(50)]
    near = rng.sample(W.vecs, min(10, len(W.vecs)))
    queries += [tuple(e + rng.randint(0, 1) for e in v) for v in near]
    queries += W.vecs  # answered by lookup, not by the index
    for q in queries:
        assert W.contains(Monomial(zip(U.variables, q))) == vec_divides_some(vecs, q)


def test_contains_on_zero_and_unit_ideals():
    for mon in (Monomial.one(), mono(X1), Monomial({X1: 9, X2: 4, X3: 1})):
        assert not zero_ideal(U3).contains(mon)
        assert unit_ideal(U3).contains(mon)
    empty = Universe(1, 1, 0, 0, ())
    assert unit_ideal(empty).contains(Monomial.one())
    assert not zero_ideal(empty).contains(Monomial.one())


# -- product / power / bracket -------------------------------------------------


def test_product_power_examples():
    assert ideal(U3, [mono(X1)]).product(ideal(U3, [mono(X2)])).gens == (mono(X1, X2),)
    sq = ideal(U3, [mono(X1), mono(X2)]).power(2)
    assert set(sq.gens) == {Monomial({X1: 2}), mono(X1, X2), Monomial({X2: 2})}
    assert triangle().power(0).is_unit()
    W = triangle()
    assert W.power(1) is W


@given(small_ideals, small_ideals)
@settings(max_examples=60)
def test_product_commutative(A, B):
    assert A.product(B) == B.product(A)


@given(small_ideals, small_ideals, small_ideals)
@settings(max_examples=40)
def test_product_associative(A, B, C):
    assert A.product(B).product(C) == A.product(B.product(C))


# -- colon / intersect -----------------------------------------------------------


def test_colon_examples():
    W = ideal(U3, [mono(X1, X2), mono(X2, X3)])
    assert set(W.colon(ideal(U3, [mono(X2)])).gens) == {mono(X1), mono(X3)}
    assert W.colon(unit_ideal(U3)) == W
    with pytest.raises(ValueError):
        W.colon(zero_ideal(U3))


def test_intersect_examples():
    assert ideal(U3, [mono(X1)]).intersect(ideal(U3, [mono(X2)])).gens == (mono(X1, X2),)
    W = triangle()
    assert W.intersect(W) == W
    got = ideal(U3, [Monomial({X1: 2}), mono(X2)]).intersect(ideal(U3, [mono(X1)]))
    assert set(got.gens) == {Monomial({X1: 2}), mono(X1, X2)}


@given(small_ideals, small_ideals)
@settings(max_examples=60)
def test_colon_intersect_galois(W, V):
    if V.is_zero():
        return

    def contained(inner, outer):
        return all(vec_divides_some(outer.vecs, v) for v in inner.vecs)

    Q = W.colon(V)
    assert contained(V.product(Q), W)
    assert contained(W, Q)
    meet_ = W.intersect(V)
    assert contained(meet_, W)
    assert contained(meet_, V)


# 127/128 cross from one-byte to two-byte fields, 65535/65536 a byte inside
# a three-byte field, and 2^40 needs six; the divisor index ends at 255, so
# above it reduction scans under its own cap
KERNEL_EXPONENTS = st.sampled_from([0, 1, 2, 127, 128, 255, 256, 65535, 65536, 2**40])


@st.composite
def kernel_operands(draw):
    """Two ideals of at most 5 generators over 0 to 4 variables, exponents
    from ``KERNEL_EXPONENTS``; either may be zero or the unit ideal."""
    width = draw(st.integers(min_value=0, max_value=4))
    U = Universe.x_grid(1, width) if width else Universe(1, 1, 0, 0, ())
    vecs = st.lists(st.tuples(*[KERNEL_EXPONENTS] * width), max_size=5)
    A, B = (ideal(U, [Monomial(zip(U.variables, v)) for v in draw(vecs)]) for _ in range(2))
    return A, B


@given(kernel_operands(), st.one_of(st.just(DEFAULT_CANDIDATE_CAP), st.integers(min_value=1, max_value=40)))
@settings(max_examples=300, deadline=None)
def test_product_and_intersect_match_pairwise_oracles(operands, cap):
    A, B = operands
    for op, combine, oracle in (("product", add, pairwise_product), ("intersect", max, pairwise_intersect)):
        pairs = [tuple(map(combine, u, v)) for u in A.vecs for v in B.vecs]
        # above the index exponent, reduction scans distinct candidates pairwise
        scan = len(set(pairs)) ** 2 if max(chain(*pairs), default=0) > 255 else 0
        if len(pairs) > cap or scan > cap:
            with pytest.raises(SizeGuardExceeded):
                getattr(A, op)(B, cap=cap)
        else:
            assert sorted(getattr(A, op)(B, cap=cap).vecs) == sorted(oracle(A.vecs, B.vecs))


@given(kernel_operands())
@settings(max_examples=300, deadline=None)
def test_colon_matches_pairwise_oracle(operands):
    # at most 5 generators a side keep every step far below the default cap
    A, B = operands
    if B.is_zero():
        with pytest.raises(ValueError):
            A.colon(B)
    else:
        assert sorted(A.colon(B).vecs) == sorted(pairwise_colon(A.vecs, B.vecs))


# -- membership -------------------------------------------------------------------


def test_contains_examples():
    W = ideal(U3, [mono(X1, X2)])
    assert W.contains(Monomial({X1: 2, X2: 1}))
    assert not W.contains(mono(X1))
    assert not zero_ideal(U3).contains(mono(X1))
    assert unit_ideal(U3).contains(Monomial.one())


# -- minimal primes ------------------------------------------------------------------


def test_minimal_primes_examples():
    W = ideal(U3, [mono(X1, X2)])
    assert set(W.minimal_primes()) == {frozenset({X1}), frozenset({X2})}
    got = set(triangle().minimal_primes())
    assert got == {frozenset({X1, X2}), frozenset({X1, X3}), frozenset({X2, X3})}
    with pytest.raises(NotSquarefree):
        ideal(U3, [Monomial({X1: 2})]).minimal_primes()
    with pytest.raises(ValueError):
        unit_ideal(U3).minimal_primes()
    with pytest.raises(ValueError):
        zero_ideal(U3).minimal_primes()


def test_height_unmixed_examples():
    assert {len(p) for p in triangle().minimal_primes()} == {2}
    mixed = ideal(U3, [mono(X1), mono(X2, X3)])
    assert set(mixed.minimal_primes()) == {frozenset({X1, X2}), frozenset({X1, X3})}


@given(squarefree_ideals)
@settings(max_examples=80)
def test_minimal_primes_vs_bruteforce(W):
    if W.is_zero() or W.is_unit():
        return
    assert set(W.minimal_primes()) == brute_minimal_covers(W)


def test_minimal_primes_vs_bruteforce_link_instances():
    for m, n in [(2, 3), (2, 4), (3, 4), (2, 5)]:
        W = LinkInstance(m, n).link_initial
        assert set(W.minimal_primes()) == brute_minimal_covers(W)


@given(squarefree_ideals)
@settings(max_examples=80)
def test_minimal_primes_come_by_size_then_sorted_variables(W):
    if W.is_zero() or W.is_unit():
        return
    primes = W.minimal_primes()
    assert list(primes) == sorted(primes, key=lambda p: (len(p), sorted(p)))
    index = W.universe.index
    assert W._prime_columns == [sorted(index[v] for v in p) for p in primes]


# sha256 of the minimal primes, as sorted variable names, and of the prime
# columns of iniJ, N and iniI at every m <= 4, n <= 7 (6,977 primes in all),
# recorded while the columns were still derived from the variable sets
PRIMES_ON_LINK_IDEALS = "89e0b7c42d52ef64951f6eae8dff350aa274aab222d1706b734b15f67b577de5"


def test_prime_columns_and_minimal_primes_match_the_recorded_digest():
    digest = hashlib.sha256()
    for m in range(1, 5):
        for n in range(m, 8):
            inst = LinkInstance(m, n)
            for W in (inst.link_initial, inst.staircase_ideal, inst.sequence_initial):
                if W.is_unit():
                    continue
                primes = W.minimal_primes()
                digest.update(repr([sorted(map(str, p)) for p in primes]).encode())
                digest.update(repr(W._prime_columns).encode())
    assert digest.hexdigest() == PRIMES_ON_LINK_IDEALS


def test_minimal_primes_order_on_link_instances():
    # the universe lists x before Y, sorted variables put Y first
    for m, n in [(2, 4), (3, 5), (3, 6)]:
        inst = LinkInstance(m, n)
        for W in (inst.link_initial, inst.staircase_ideal, inst.minors_initial):
            primes = W.minimal_primes()
            assert list(primes) == sorted(primes, key=lambda p: (len(p), sorted(p)))


# -- symbolic powers ---------------------------------------------------------------


def test_symbolic_power_examples():
    W = triangle()
    assert W.symbolic_power(1) == W
    xyz = mono(X1, X2, X3)
    assert W.symbolic_power(2).contains(xyz)
    assert not W.power(2).contains(xyz)
    prime = ideal(U3, [mono(X1), mono(X2)])
    assert prime.symbolic_power(3) == prime.power(3)


def test_prime_degree_oracle_matches_symbolic_power_exhaustively():
    for W in (triangle(), ideal(U3, [mono(X1, X2)]), ideal(U3, [mono(X1), mono(X2, X3)])):
        primes = brute_minimal_covers(W)
        for level in (1, 2, 3):
            S = W.symbolic_power(level)
            for u in all_monomials(sorted(U3.variables), 4):
                assert prime_degree_member(primes, u, level) == S.contains(u)


@given(squarefree_ideals, st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_power_inside_symbolic(W, level):
    if W.is_zero() or W.is_unit():
        return
    primes = brute_minimal_covers(W)
    P = W.power(level)
    for g in P.gens:
        assert prime_degree_member(primes, g, level)


def test_first_symbolic_gap():
    assert first_symbolic_gap(triangle(), 2) == (2, U3.vector(mono(X1, X2, X3)))
    prime = ideal(U3, [mono(X1), mono(X2)])
    assert first_symbolic_gap(prime, 3) is None


def test_first_symbolic_gap_computes_no_prime(monkeypatch):
    def refuse(*args):
        raise AssertionError("a minimal prime was computed")

    # _prime_columns and minimal_primes search the covers, so they raise too
    monkeypatch.setattr(ideals, "_minimal_covers", refuse)
    monkeypatch.setattr(MonomialIdeal, "_prime_fold", refuse)
    assert first_symbolic_gap(triangle(), 1) is None
    assert first_symbolic_gap(triangle(), 3) == (2, U3.vector(mono(X1, X2, X3)))
    assert first_symbolic_gap(LinkInstance(2, 4).link_initial, 3) is None


def test_first_symbolic_gap_passes_equal_generator_tuples_on_sight(monkeypatch):
    # W^(k) and W^k come as minimal generators in one order, so equal
    # tuples prove both inclusions: no generator is tested by itself
    calls = []

    def spy(original):
        def counted(*args):
            calls.append(original.__name__)
            return original(*args)
        return counted

    monkeypatch.setattr(ideals, "_all_covered", spy(ideals._all_covered))
    monkeypatch.setattr(MonomialIdeal, "_divides_into", spy(MonomialIdeal._divides_into))
    assert first_symbolic_gap(LinkInstance(2, 5).link_initial, 3) is None
    assert calls == []
    # where the tuples differ, the spies see the generator-by-generator test
    assert first_symbolic_gap(triangle(), 2) == (2, U3.vector(mono(X1, X2, X3)))
    assert set(calls) == {"_divides_into"}


@given(sparse_squarefree_ideals)
@example(ideal(U6, [Monomial.of(*g) for g in [(X1, X2), (X1, X3), (X2, X3)] + [
    (xvar(1, 4), xvar(1, 5)), (xvar(1, 4), xvar(1, 6)), (xvar(1, 5), xvar(1, 6))
]]))
@settings(max_examples=60, deadline=None)
def test_first_symbolic_gap_matches_pairwise_reference_hypothesis(W):
    # the first level whose symbolic power, from the pairwise prime-power
    # intersection, has a generator outside the pairwise ordinary power; the
    # witness is the least such generator by (degree, exponent vector), so
    # on the two triangles of the example x[1,4]*x[1,5]*x[1,6]
    if W.is_unit():
        return
    primes = brute_minimal_covers(W)
    power, want = list(W.vecs), None
    for level in range(2, 4):
        power = pairwise_product(power, W.vecs)
        missing = [
            g for g in pairwise_symbolic_power(primes, level)
            if not vec_divides_some(power, U6.vector(g))
        ]
        if missing:
            want = (level, U6.vector(min(missing, key=lambda g: (g.degree(), U6.vector(g)))))
            break
    assert first_symbolic_gap(W, 3) == want


@pytest.mark.parametrize("W", [ideal(U3, []), unit_ideal(U3), ideal(U3, [mono(X1, X1)])])
def test_first_symbolic_gap_needs_a_proper_nonzero_squarefree_ideal(W):
    with pytest.raises(ValueError):
        first_symbolic_gap(W, 1)


@pytest.mark.parametrize("below", [1, 2])
def test_scans_refuse_a_bound_that_checks_nothing(below):
    # a bound below the first level would return "no gap" unchecked, even
    # for an ideal that is not squarefree
    with pytest.raises(ValueError, match="upto"):
        first_symbolic_gap(ideal(U3, [mono(X1, X1)]), 1 - below)
    with pytest.raises(ValueError, match="r_max"):
        square_colon_scan(triangle(), -below)


@given(squarefree_ideals)
@settings(max_examples=40, deadline=None)
def test_symbolic_power_1_is_the_ideal(W):
    if W.is_zero() or W.is_unit():
        return
    assert W.symbolic_power(1) == W
    assert pairwise_symbolic_power(brute_minimal_covers(W), 1) == set(W.gens)


@pytest.mark.parametrize("level", [1, 2, 3])
def test_symbolic_power_matches_pairwise_reference(level):
    for n in range(1, 6):
        for m in range(1, n + 1):
            inst = LinkInstance(m, n)
            for W in (inst.link_initial, inst.staircase_ideal):
                if W.is_unit():
                    continue
                want = pairwise_symbolic_power(W.minimal_primes(), level)
                assert set(W.symbolic_power(level).gens) == want, (m, n)


@pytest.mark.parametrize("m, level", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_symbolic_power_matches_pairwise_reference_at_n_6(m, level):
    inst = LinkInstance(m, 6)
    subjects = [inst.staircase_ideal]
    if level == 2:  # at level 3 the pairwise reference needs 5-10 s for iniJ
        subjects.append(inst.link_initial)
    for W in subjects:
        want = pairwise_symbolic_power(W.minimal_primes(), level)
        assert set(W.symbolic_power(level).gens) == want


def test_symbolic_power_matches_pairwise_reference_at_4_6():
    W = LinkInstance(4, 6).link_initial
    assert set(W.symbolic_power(2).gens) == pairwise_symbolic_power(W.minimal_primes(), 2)


@given(squarefree_ideals, st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_symbolic_power_matches_pairwise_reference_hypothesis(W, level):
    if W.is_zero() or W.is_unit():
        return
    want = pairwise_symbolic_power(brute_minimal_covers(W), level)
    assert set(W.symbolic_power(level).gens) == want


@pytest.mark.parametrize("level", [127, 128, 255, 256, 300])
def test_symbolic_power_across_field_widths(level):
    # one word format holds the whole fold: one-byte fields up to 127, two
    # bytes from 128; above 255 reduction scans instead of indexing
    assert ideal(U3, [mono(X1, X2)]).symbolic_power(level).vecs == ((level, level, 0),)
    W = ideal(U3, [mono(X1, X2), mono(X2, X3)])  # primes (x2) and (x1, x3)
    want = pairwise_symbolic_power(W.minimal_primes(), level)
    assert set(W.symbolic_power(level).gens) == want
    assert len(want) == level + 1
    square = Monomial({X1: level, X2: level})
    primes = [{X1}, {X2}]
    assert prime_degree_member(primes, square, level)
    assert not prime_degree_member(primes, square, level + 1)


@pytest.mark.parametrize("level, estimate", [(127, 1_056_640), (128, 1_081_536), (255, 8_421_120)])
def test_symbolic_power_refusal_across_field_widths(level, estimate):
    # primes (x1, x3) and (x2, x3): the second step lifts x1^a x3^(level-a)
    # by every degree-a monomial in x2, x3, for a = 1..level
    with pytest.raises(SizeGuardExceeded) as refused:
        ideal(U3, [mono(X1, X2), mono(X3)]).symbolic_power(level)
    assert refused.value.estimate == estimate


@pytest.mark.parametrize("level", [1_000, 16_000, 64_000])
def test_prime_fold_refuses_a_high_level_before_it_lifts(monkeypatch, level):
    # primes (x2) and (x1, x3): the second step would lift x2^level by the
    # level + 1 monomials of that degree in x1, x3, and with exponents above
    # 255 the reducer would scan them pairwise; the step guard counts that
    # scan, lifted * (kept + lifted), and refuses before a lift is built
    built = []
    degree_words = ideals._degree_words

    def spy(units, cols, e):
        built.append((tuple(cols), e))
        return degree_words(units, cols, e)

    monkeypatch.setattr(ideals, "_degree_words", spy)
    with pytest.raises(SizeGuardExceeded) as refused:
        ideal(U3, [mono(X1, X2), mono(X2, X3)]).symbolic_power(level)
    assert refused.value.estimate == (level + 1) * (0 + level + 1)
    assert f"reducing {level + 1} lifted candidates against {level + 1} kept generators" in str(refused.value)
    assert built == [((1,), level)]  # the first step's x2^level only


def test_degree_words_are_the_monomials_of_that_degree():
    codec = ideals._packing(5, 4)
    units = ideals._unit_words(codec)
    for size in range(1, 5):
        for cols in combinations(range(4), size):
            for e in range(1, 6):
                want = sorted(sum(units[c] for c in w) for w in combinations_with_replacement(cols, e))
                got = ideals._degree_words(units, list(cols), e)
                assert sorted(got) == want and len(got) == len(want), (cols, e)


def _record_packing(monkeypatch):
    """Every vector any codec packs from now on, in order."""
    packed = []
    original = ideals._packing

    def recording(top, width):
        codec = original(top, width)

        def pack(vecs):
            vecs = list(vecs)
            packed.extend(vecs)
            return codec.pack(vecs)
        return codec._replace(pack=pack)

    monkeypatch.setattr(ideals, "_packing", recording)
    return packed


def test_symbolic_power_packs_no_generator_twice(monkeypatch):
    # The prime fold packs the unit start and the lift monomials, of degree
    # at most the level, and carries every generator from step to step packed.
    W = LinkInstance(2, 5).link_initial
    want = W.symbolic_power(2)
    packed = _record_packing(monkeypatch)
    assert W._prime_fold(2, DEFAULT_CANDIDATE_CAP) == want
    assert packed and max(map(sum, packed)) <= 2
    assert min(map(sum, want.vecs)) >= 3


def test_variable_fold_packs_only_exponents_up_to_2(monkeypatch):
    # The variable fold packs the ideal's generators once, and the unit
    # vectors, and carries every generator from step to step packed.
    W = LinkInstance(2, 5).link_initial
    want = W.symbolic_power(2)
    packed = _record_packing(monkeypatch)
    assert W._variable_fold(DEFAULT_CANDIDATE_CAP) == want
    assert packed and max(chain.from_iterable(packed)) <= 2
    assert sorted(v for v in packed if sum(v) > 1) == sorted(W.vecs)
    assert max(chain.from_iterable(want.vecs)) == 2


SYMBOLIC_SUBJECTS = {
    "iniJ": lambda inst: inst.link_initial,
    "N": lambda inst: inst.staircase_ideal,
    "iniI": lambda inst: inst.minors_initial,
}


@pytest.mark.parametrize("m, n", [(m, n) for m in range(2, 5) for n in range(4, 8) if m < n])
def test_variable_fold_matches_prime_fold(m, n):
    inst = LinkInstance(m, n)
    for name, subject in SYMBOLIC_SUBJECTS.items():
        W = subject(inst)
        if W.is_unit():
            continue
        assert W._variable_fold(DEFAULT_CANDIDATE_CAP) == W._prime_fold(2, DEFAULT_CANDIDATE_CAP), (name, m, n)


@given(sparse_squarefree_ideals)
@settings(max_examples=80, deadline=None)
def test_variable_fold_matches_pairwise_reference_hypothesis(W):
    if W.is_unit():
        return
    want = pairwise_symbolic_power(brute_minimal_covers(W), 2)
    assert set(W._variable_fold(DEFAULT_CANDIDATE_CAP).gens) == want


def test_variable_fold_with_a_linear_generator_and_unused_variables():
    # primes (x1, x2) and (x1, x3); x4 is in no generator
    W = ideal(U4, [mono(X1), mono(X2, X3)])
    want = pairwise_symbolic_power(W.minimal_primes(), 2)
    assert set(W._variable_fold(DEFAULT_CANDIDATE_CAP).gens) == want
    assert len(W._support_columns) == 3


@given(sparse_squarefree_ideals, st.integers(min_value=3, max_value=4))
@settings(max_examples=60, deadline=None)
def test_seeded_variable_fold_matches_pairwise_reference_hypothesis(W, level):
    # the Zariski-Nagata step of I^(k-1) is I^(k)
    if W.is_unit():
        return
    want = pairwise_symbolic_power(brute_minimal_covers(W), level)
    seed = W.symbolic_power(level - 1)
    assert set(seed._variable_fold(DEFAULT_CANDIDATE_CAP).gens) == want


@pytest.mark.parametrize("m, n", [(m, n) for m in range(1, 5) for n in range(m + 1, 7)])
def test_variable_fold_of_the_square_matches_prime_fold_at_level_3(m, n):
    # iniJ^(2) = iniJ^2, so the step of the ordinary square is iniJ^(3)
    W = LinkInstance(m, n).link_initial
    assert W.power(2)._variable_fold(DEFAULT_CANDIDATE_CAP) == W._prime_fold(3, DEFAULT_CANDIDATE_CAP)


def test_symbolic_power_picks_the_fold_by_level(monkeypatch):
    taken = []
    for name in ("_prime_fold", "_variable_fold"):
        original = getattr(MonomialIdeal, name)

        def spy(self, *args, name=name, original=original):
            taken.append(name)
            return original(self, *args)
        monkeypatch.setattr(MonomialIdeal, name, spy)
    covers = ideals._minimal_covers

    def spy_covers(edges):
        taken.append("_minimal_covers")
        return covers(edges)
    monkeypatch.setattr(ideals, "_minimal_covers", spy_covers)
    # iniJ(2,5) has 76 primes over 12 variables and N(4,8) 60 over 18: level
    # 2 takes the variable fold however many primes there are per variable
    for W in (LinkInstance(2, 5).link_initial, LinkInstance(4, 8).staircase_ideal):
        taken.clear()
        assert W.symbolic_power(1) is W
        assert taken == []
        W.symbolic_power(2)
        assert taken == ["_variable_fold"]
    # level 3 folds over the minimal primes
    taken.clear()
    LinkInstance(2, 5).link_initial.symbolic_power(3)
    assert taken == ["_prime_fold", "_minimal_covers"]


@pytest.mark.parametrize("level", [1, 2, 3])
def test_symbolic_power_needs_a_proper_nonzero_squarefree_ideal(level):
    with pytest.raises(NotSquarefree):
        ideal(U3, [Monomial({X1: 2})]).symbolic_power(level)
    for W in (zero_ideal(U3), unit_ideal(U3)):
        with pytest.raises(ValueError):
            W.symbolic_power(level)


def test_nu_in_the_symbolic_square_three_ways():
    # nu, the product of all variables, lies in W^(2) iff no minimal prime of
    # W is a single variable, that is, iff no variable divides every generator.
    # It lies in N^(2) for every proper staircase ideal N here; the cone
    # (x1*x2, x1*x3) has the prime (x1).
    subjects = [triangle(), ideal(U3, [mono(X1, X2), mono(X1, X3)])]
    for m in range(1, 5):
        for n in range(m, 9):
            subjects.append(LinkInstance(m, n).staircase_ideal)
    seen = set()
    for W in subjects:
        if W.is_unit():
            continue
        by_masks = not reduce(and_, W.masks)
        nu = (1,) * len(W.universe)
        assert by_masks == W.symbolic_power(2)._divides_into(nu), W.gens
        if len(W._support_columns) <= 14:
            assert by_masks == all(len(P) >= 2 for P in brute_minimal_covers(W)), W.gens
        seen.add(by_masks)
    assert seen == {False, True}


# -- the square-bracket colon criterion ------------------------------------------------
# "the square-colon check" in a test name is the criterion at a level, as
# square_colon_scan checks it; tests/bruteforce.square_colon_holds is its oracle


def first_failing(W, r_max):
    """The first r <= r_max at which the criterion fails by the oracle, or None."""
    return next((r for r in range(r_max + 1) if not square_colon_holds(W.vecs, r)), None)


def test_square_colon_examples():
    W = ideal(U3, [mono(X1), mono(X2)])
    assert square_colon_holds(W.vecs, 0)
    assert square_colon_scan(W, 0) is None
    assert square_colon_scan(W, 2) is None
    failing = square_colon_scan(triangle(), 2)
    assert failing is not None and failing <= 2


def test_square_colon_scan_agrees_with_the_oracle():
    subjects = [triangle(), ideal(U3, [mono(X1), mono(X2)])]
    subjects += [LinkInstance(m, n).link_initial for m, n in [(1, 3), (2, 3), (2, 4)]]
    subjects += [LinkInstance(3, 5).staircase_ideal]
    for W in subjects:
        assert square_colon_scan(W, 2) == first_failing(W, 2)


def scan_or_refusal(W, r_max, cap):
    try:
        return square_colon_scan(W, r_max, cap=cap)
    except SizeGuardExceeded as refused:
        return "refused", refused.estimate


def assert_level_or_refusal(W, r_max, cap):
    """At any cap the scan gives the oracle's first failing level, or a
    refusal whose estimate is above the cap: a level's own guard counts
    what it has taken or tested, W^2's product guard what it would build."""
    got = scan_or_refusal(W, r_max, cap)
    if isinstance(got, tuple):
        assert got[1] > cap, got
    else:
        assert got == first_failing(W, r_max), got
    return got


def spy_on_halves(monkeypatch):
    """The halves each level takes from the clique stream, one count per
    level in order."""
    taken = []
    peel = ideals._all_in_power

    def all_in_power(halves, *args):
        taken.append(0)

        def counted():
            for h in halves:
                taken[-1] += 1
                yield h
        return peel(counted(), *args)

    monkeypatch.setattr(ideals, "_all_in_power", all_in_power)
    return taken


def spy_on_products(monkeypatch):
    """The right operand of each product call."""
    calls = []
    original = MonomialIdeal.product

    def counting(self, other, cap=DEFAULT_CANDIDATE_CAP):
        calls.append(other)
        return original(self, other, cap=cap)

    monkeypatch.setattr(MonomialIdeal, "product", counting)
    return calls


@given(
    st.one_of(small_ideals, mixed_ideals, squarefree_ideals, sparse_squarefree_ideals),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=1, max_value=400),
)
@settings(max_examples=120, deadline=None)
def test_square_colon_check_matches_bracket_power_oracle(W, r, cap):
    # non-squarefree ideals too: the scan must hold to the definition
    # whatever the exponents. One that is not squarefree fails at r = 0, as
    # ceil(t/2) properly divides a generator t; the squarefree ones here
    # pass or fail at r = 1
    assert square_colon_scan(W, r) == first_failing(W, r)
    assert_level_or_refusal(W, r, cap)


@given(
    st.one_of(small_ideals, mixed_ideals, squarefree_ideals, sparse_squarefree_ideals),
    st.integers(min_value=1, max_value=400),
)
@settings(max_examples=120, deadline=None)
def test_square_colon_scan_matches_the_check_and_the_oracle(W, cap):
    # the scan over r_max = 2 at once: uncapped it gives the oracle's first
    # failing level, at any cap that level or a refusal above the cap, and
    # the same outcome whether or not W keeps W^2 already
    assert square_colon_scan(W, 2) == first_failing(W, 2)
    fresh = assert_level_or_refusal(MonomialIdeal(W.universe, W.vecs), 2, cap)
    kept = MonomialIdeal(W.universe, W.vecs)
    kept.power(2)
    assert scan_or_refusal(kept, 2, cap) == fresh


# exponents above 255 take a field of two bytes or more
WIDE_SQUARE_EXPONENTS = st.sampled_from([1, 2, 255, 256, 300, 511, 2**16])


@given(
    st.lists(
        st.dictionaries(st.sampled_from([X1, X2, X3]), WIDE_SQUARE_EXPONENTS, min_size=1, max_size=3),
        min_size=1,
        max_size=4,
    ),
    st.integers(min_value=0, max_value=2),
)
@example([{xvar(1, 3): 256}, {X1: 1}], 0)
@settings(max_examples=80, deadline=None)
def test_square_colon_scan_matches_the_oracle_above_byte_exponents(gens, r):
    # the peel works on packed words of any field width, so an exponent
    # above 255 is answered, not refused; an ideal with one is not
    # squarefree, so the scan and the oracle find it failing at r = 0
    W = ideal(U3, [Monomial(g) for g in gens])
    assume(max(map(max, W.vecs)) > 255)
    assert square_colon_scan(W, r) == first_failing(W, r) == 0


def link_ideals_up_to_3_5():
    for m in range(1, 4):
        for n in range(m, 6):
            inst = LinkInstance(m, n)
            for W in (inst.minors_initial, inst.sequence_initial,
                      inst.staircase_ideal, inst.link_initial):
                yield (m, n), W


@lru_cache(maxsize=1)
def square_colon_oracle_on_link_ideals():
    """(label, W, r, the oracle's first failing level <= r) for r <= 2."""
    out = []
    for label, W in link_ideals_up_to_3_5():
        want = None
        for r in range(3):
            if want is None and not square_colon_holds(W.vecs, r):
                want = r
            out.append((label, W, r, want))
    return out


def test_square_colon_check_matches_bracket_power_oracle_on_link_ideals():
    for label, W, r, want in square_colon_oracle_on_link_ideals():
        assert square_colon_scan(W, r) == want, (label, r)


def test_square_colon_check_in_chunks_matches_the_oracle_on_link_ideals(monkeypatch):
    # at any cap a level takes at most cap + 1 halves, and the scan gives
    # the oracle's level or refuses above the cap
    taken = spy_on_halves(monkeypatch)
    refused = 0
    for label, W, r, want in square_colon_oracle_on_link_ideals():
        for cap in (1, 10, 50, 200, 1000):
            taken.clear()
            refused += isinstance(assert_level_or_refusal(W, r, cap), tuple)
            assert max(taken, default=0) <= cap + 1, (label, r, cap)
    assert refused > 0


def test_square_colon_check_fails_beyond_the_first_chunk(monkeypatch):
    # x3 and a triangle on x1, x2, x4: the 4 halves of level 0 pass, and
    # level 1 fails at the triangle among its 4 triples. 16 is the least cap
    # under which W^2 is built; level 1 then makes 19 divisibility tests
    W = ideal(U4, [mono(xvar(1, 3)), mono(X1, X2), mono(X1, xvar(1, 4)), mono(X2, xvar(1, 4))])
    taken = spy_on_halves(monkeypatch)
    assert square_colon_scan(W, 1) == 1 == first_failing(W, 1)
    assert taken == [4, 4]
    assert scan_or_refusal(W, 1, 15) == ("refused", 16)
    assert scan_or_refusal(W, 1, 18) == ("refused", 19)
    assert square_colon_scan(W, 1, cap=19) == 1


def test_square_colon_check_on_zero_and_unit_ideals():
    for W in (zero_ideal(U3), unit_ideal(U3)):
        for r in range(3):
            assert square_colon_holds(W.vecs, r)
            assert square_colon_scan(W, r, cap=1) is None
        assert square_colon_scan(W, 2) is None


def test_square_colon_scan_refuses_past_cap_halves_or_tests(monkeypatch):
    taken = spy_on_halves(monkeypatch)
    # level 0 of (x1, x2) at cap 1: x1 takes one test, then the second half
    # is one more than the cap
    W = ideal(U3, [mono(X1), mono(X2)])
    with pytest.raises(SizeGuardExceeded, match=r"W\^1 would enumerate about 2 halves") as refused:
        square_colon_scan(W, 0, cap=1)
    assert refused.value.estimate == 2
    # x2 takes two tests
    with pytest.raises(SizeGuardExceeded, match=r"W\^1 would enumerate about 3 divisibility tests") as refused:
        square_colon_scan(W, 0, cap=2)
    assert refused.value.estimate == 3
    assert square_colon_scan(W, 0, cap=3) is None
    assert taken == [2, 2, 2]


def test_square_colon_chunks_hold_at_most_cap_sums(monkeypatch):
    taken = spy_on_halves(monkeypatch)
    # iniI(3,6): 20 generators and 650 good triangles; r = 1 must admit
    # 20 * 20 candidates for W^2
    W = LinkInstance(3, 6).minors_initial
    for cap in (400, 500, 649, 650, 1000, 5000):
        taken.clear()
        assert_level_or_refusal(W, 1, cap)
        assert max(taken) <= cap + 1
    assert taken == [20, 650]
    # (x1, ..., x60) has C(60, 5) = 5,461,512 good 5-sets at r = 2; a level
    # takes at most cap + 1 halves before it is refused
    U = Universe.x_grid(1, 60)
    for cap in (1000, DEFAULT_CANDIDATE_CAP):
        taken.clear()
        refused, estimate = scan_or_refusal(ideal(U, [mono(v) for v in U.variables]), 2, cap)
        assert estimate > cap
        assert max(taken) <= cap + 1


# halves above 255 take a second byte: 256 and 300 are covered at every
# exponent a vector here may have
HALF_EXPONENTS = st.sampled_from([0, 1, 2, 127, 128, 254, 255, 256, 300, 511])


@given(
    # products_covered hands over no words only when a or b is zero
    st.lists(st.tuples(*[HALF_EXPONENTS] * 3), min_size=1, max_size=12),
    st.lists(st.tuples(*[st.integers(0, 255)] * 3), max_size=4),
)
@settings(max_examples=100)
def test_all_covered_matches_its_definition(halves, vecs):
    codec = ideals._packing(511, 3)
    want = all(any(all(h[k] >= e for k, e in enumerate(v)) for v in vecs) for h in halves)
    assert ideals._all_covered(vecs, set(codec.pack(halves)), codec) == want


def test_square_colon_scan_builds_each_power_once(monkeypatch):
    calls = spy_on_products(monkeypatch)
    W = LinkInstance(2, 4).link_initial
    assert square_colon_scan(W, 2) is None
    # W^2 only, one product with W, for the good pairs: every level peels
    # its halves, and no W^3, W^4 or W^5 is built
    assert len(calls) == 1 and calls[0] is W
    assert len(W._powers) == 1


@pytest.mark.parametrize("m, n, r_max", [(4, 8, 4), (3, 10, 5)])
def test_square_colon_scan_reaches_the_clique_bound_at_the_default_cap(monkeypatch, m, n, r_max):
    # r_max = n // 2, past which no level has a clique of 2 r_max + 1
    # vertices; the scan to it builds W^2 and no other power
    calls = spy_on_products(monkeypatch)
    W = LinkInstance(m, n).link_initial
    assert square_colon_scan(W, r_max) is None
    assert len(calls) == 1 and calls[0] is W


def test_square_colon_scan_fails_first_at_the_odd_cycle():
    # the edge ideal of a (2k+1)-cycle first fails at r = k
    for k in (1, 2, 3):
        U = Universe.x_grid(1, 2 * k + 1)
        W = ideal(U, [mono(a, b) for a, b in zip(U.variables, U.variables[1:] + U.variables[:1])])
        assert square_colon_scan(W, 3) == k == first_failing(W, k)


def test_square_colon_scan_fails_beyond_the_first_chunk(monkeypatch):
    # seven variables, then a triangle on x1, x2, x3: the generators come
    # by degree, so the triangle is the last of the 120 triples of level 1,
    # and the only one failing. At a cap of 100 halves it lies beyond what
    # the level may take, so the scan refuses and does not pass
    W = ideal(Universe.x_grid(1, 10), [
        *(mono(xvar(1, j)) for j in range(4, 11)), mono(X1, X2), mono(X1, X3), mono(X2, X3),
    ])
    taken = spy_on_halves(monkeypatch)
    assert square_colon_scan(W, 1) == 1 == first_failing(W, 1)
    assert taken == [10, 120]
    taken.clear()
    refused, estimate = scan_or_refusal(W, 1, 100)
    assert estimate > 100 and taken[-1] <= 101


def test_square_colon_scan_checks_few_halves_in_chunks_of_at_most_cap(monkeypatch):
    taken = spy_on_halves(monkeypatch)
    # the 9 generators, then the 50 good triangles and the 21 good 5-sets
    assert square_colon_scan(LinkInstance(3, 5).link_initial, 2) is None
    assert taken == [9, 50, 21]
    # every triple of twelve variables is a clique, with its own half; at
    # r = 1 the cap must admit 12 * 12 candidates for W^2
    W = ideal(Universe.x_grid(1, 12), [mono(xvar(1, j)) for j in range(1, 13)])
    taken.clear()
    assert square_colon_scan(W, 1) is None
    assert taken == [12, 220]
    for cap in (144, 150, 219, 220):
        taken.clear()
        assert_level_or_refusal(W, 1, cap)
        assert max(taken) <= cap + 1


# -- size guard --------------------------------------------------------------------------


def test_size_guard_trips():
    W = LinkInstance(2, 4).link_initial
    with pytest.raises(SizeGuardExceeded):
        W.power(3, cap=10)


def test_kept_powers_refuse_like_fresh_ones():
    W = LinkInstance(2, 4).link_initial
    with pytest.raises(SizeGuardExceeded) as fresh:
        ideal(W.universe, W.gens).power(3, cap=10)
    W.power(3)
    with pytest.raises(SizeGuardExceeded) as kept:
        W.power(3, cap=10)
    assert kept.value.estimate == fresh.value.estimate == 36  # |W|^2 at step 2
    with pytest.raises(SizeGuardExceeded) as first:
        W.power(2, cap=5)
    assert first.value.estimate == 6  # step 1, 1 * W


def test_symbolic_power_guard_refuses_quadratic_step():
    with pytest.raises(SizeGuardExceeded) as refused:
        LinkInstance(2, 3).link_initial.symbolic_power(60)
    assert refused.value.estimate > DEFAULT_CANDIDATE_CAP


def test_symbolic_power_guard_admits_4_7_at_level_2():
    # The largest step of the prime fold of iniJ(4,7) at level 2 has lifted
    # candidates times antichain size 31,816, well inside the default cap.
    W = LinkInstance(4, 7).link_initial
    assert 31_816 < DEFAULT_CANDIDATE_CAP
    assert len(W._prime_fold(2, cap=31_816).gens) == 174
    with pytest.raises(SizeGuardExceeded) as refused:
        W._prime_fold(2, cap=31_815)
    assert refused.value.estimate == 31_816


def test_variable_fold_guard_at_4_7():
    # The largest step of the variable fold of iniJ(4,7) lifts its short
    # generators by 390 generators of iniJ in all and reduces 107 distinct
    # lifted candidates: 497.
    W = LinkInstance(4, 7).link_initial
    assert len(W._variable_fold(cap=497).gens) == 174
    with pytest.raises(SizeGuardExceeded) as refused:
        W._variable_fold(cap=496)
    assert refused.value.estimate == 497


def test_variable_fold_guard_refuses_before_the_lift(monkeypatch):
    # The step of iniJ(4,7)^2, that is iniJ^(3): its largest step pairs its
    # short generators with 14,464 generators of iniJ^2 and reduces 663
    # lifted candidates; its first step makes 7,623 pairs.
    K = LinkInstance(4, 7).link_initial.power(2)
    assert len(K._variable_fold(cap=15_127).gens) == 776
    with pytest.raises(SizeGuardExceeded) as refused:
        K._variable_fold(cap=15_126)
    assert refused.value.estimate == 15_127
    reduced = []
    original = ideals._minimalize_words

    def spy(*args):
        reduced.append(args)
        return original(*args)

    monkeypatch.setattr(ideals, "_minimalize_words", spy)
    with pytest.raises(SizeGuardExceeded) as refused:
        K._variable_fold(cap=7_622)
    # refused on the pairs alone, before a single part is made
    assert (refused.value.estimate, reduced) == (7_623, [])


@pytest.mark.parametrize("m, n, gens", [(4, 8, 355), (3, 9, 315)])
def test_variable_fold_admits_what_the_prime_fold_computes(m, n, gens):
    # The largest steps count 1,779 and 1,024 pairs and lifted candidates.
    assert len(LinkInstance(m, n).link_initial.symbolic_power(2).gens) == gens
