from operator import add
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from bruteforce import (
    all_monomials,
    brute_minimal_covers,
    pairwise_symbolic_power,
    scan_minimalize,
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
    square_colon_check,
    square_colon_scan,
    unit_ideal,
    xvar,
    zero_ideal,
)
from genlink import ideals
from genlink.ideals import DEFAULT_CANDIDATE_CAP, _DivisorIndex, _minimalize

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


@given(mixed_ideals)
@settings(max_examples=80)
def test_vectors_masks_and_gens_agree(W):
    # gens are in canonical_key order, and vecs and masks line up with them
    assert list(W.gens) == sorted(W.gens, key=Monomial.canonical_key)
    assert len(W.vecs) == len(W.masks) == len(W.gens)
    for vec, mask, g in zip(W.vecs, W.masks, W.gens):
        assert vec == tuple(g.exponent(v) for v in MIXED.variables)
        assert mask == sum(1 << i for i, e in enumerate(vec) if e)
    assert ideal(MIXED, W.gens) == W


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
    # _minimalize returns its antichain by degree, then exponents in vector
    # order; the scan reference sorts by degree, then support mask
    return sum(vec), vec


def scan_reference(vecs):
    return sorted(scan_minimalize(vecs), key=reduction_order)


@given(st.booleans().flatmap(degree_bands))
@settings(max_examples=120, deadline=None)
def test_minimalize_matches_scan_reference(band):
    _, vecs = band
    assert _minimalize(vecs) == scan_reference(vecs)


def assert_seeded_matches_scan(vecs, cut):
    # The seed is the antichain of the first ``cut`` vectors; candidates
    # dividing a seed vector are dropped, as _minimalize requires.
    seed = scan_minimalize(vecs[:cut])
    candidates = [c for c in vecs[cut:] if not any(vec_divides_some([c], s) for s in seed)]
    got = _minimalize(candidates, seed)
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
    assert _minimalize(vecs) == scan_reference(vecs)
    assert_seeded_matches_scan(vecs, cut)


def test_minimalize_scans_past_the_switch_above_the_index_exponent(monkeypatch):
    monkeypatch.setattr(ideals, "_minimalize_indexed", None)  # must not be reached
    level5 = [(a, b, 5 - a - b, 0) for a in range(6) for b in range(6 - a)]  # 21 vectors
    vecs = level5 + [(0, 0, 0, 2**40), (1, 0, 0, 2**40), (0, 0, 6, 0)]
    assert _minimalize(vecs) == scan_reference(vecs)
    assert len(_minimalize(vecs)) == 22


def test_minimalize_refuses_a_long_scan_above_the_index_exponent():
    # with no index to fall back on, the scan refuses before it starts when
    # candidates times (seed + candidates) exceeds the cap
    level5 = [(a, b, 5 - a - b, 0) for a in range(6) for b in range(6 - a)]  # 21 vectors
    huge = level5 + [(0, 0, 0, 2**40)]
    with pytest.raises(SizeGuardExceeded) as refused:
        _minimalize(huge, cap=22 * 22 - 1)
    assert refused.value.estimate == 22 * 22
    assert len(_minimalize(huge, cap=22 * 22)) == 22
    seed, candidates = huge[:10], huge[10:]
    with pytest.raises(SizeGuardExceeded) as refused:
        _minimalize(candidates, seed, cap=12 * 22 - 1)
    assert refused.value.estimate == 12 * 22
    assert _minimalize(candidates, seed, cap=12 * 22) == seed + scan_reference(candidates)
    # up to the index exponent the index takes over and the cap is not consulted
    assert len(_minimalize(level5 + [(0, 0, 0, 255)], cap=1)) == 22


def test_divisor_index_refuses_exponents_above_its_cap():
    W = ideal(U4, [Monomial({xvar(1, 4): 2**40}), mono(X1)])
    with pytest.raises(SizeGuardExceeded) as refused:
        W.contains(mono(X2))
    assert refused.value.estimate == 2**40 + 1
    assert ideal(U4, [Monomial({xvar(1, 4): 255}), mono(X1)]).contains(Monomial({xvar(1, 4): 256}))


def test_minimalize_switches_after_four_kept_per_variable(monkeypatch):
    entered = []
    original = ideals._minimalize_indexed

    def spy(kept, items):
        entered.append(len(kept))
        return original(kept, items)

    monkeypatch.setattr(ideals, "_minimalize_indexed", spy)
    level4 = [(a, b, 4 - a - b) for a in range(5) for b in range(5 - a)]  # 15 vectors
    top = (0, 0, 6)  # divided by level4[0] == (0, 0, 4)
    for size, switched in ((12, False), (13, True)):
        entered.clear()
        vecs = level4[:size] + [top]
        assert _minimalize(vecs) == scan_reference(vecs)
        assert entered == ([size] if switched else [])


def test_minimalize_matches_scan_on_link_powers_3_5():
    W = LinkInstance(3, 5).link_initial
    power, reached = W, 0
    for _ in range(2, 6):
        candidates = [tuple(map(add, u, v)) for u in power.vecs for v in W.vecs]
        got = _minimalize(candidates)
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


def test_bracket_power():
    W = ideal(U3, [mono(X1), mono(X2)])
    assert set(W.bracket_power(2).gens) == {Monomial({X1: 2}), Monomial({X2: 2})}
    assert W.bracket_power(1) == W
    V = ideal(U3, [mono(X1, X2), mono(X3)])
    assert set(V.bracket_power(2).gens) == {
        Monomial({X1: 2, X2: 2}),
        Monomial({X3: 2}),
    }
    with pytest.raises(ValueError):
        W.bracket_power(0)


@given(mixed_ideals, st.integers(min_value=1, max_value=3))
@settings(max_examples=60)
def test_bracket_power_needs_no_reduction(W, q):
    # the scaled generators, left unreduced, equal the reduced ideal
    assert W.bracket_power(q) == ideal(MIXED, [g ** q for g in W.gens])


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


# -- symbolic powers ---------------------------------------------------------------


def test_symbolic_power_examples():
    W = triangle()
    assert W.symbolic_power(1) == W
    xyz = mono(X1, X2, X3)
    assert W.symbolic_power(2).contains(xyz)
    assert not W.power(2).contains(xyz)
    prime = ideal(U3, [mono(X1), mono(X2)])
    assert prime.symbolic_power(3) == prime.power(3)


def test_symbolic_member_matches_symbolic_power_exhaustively():
    for W in (triangle(), ideal(U3, [mono(X1, X2)]), ideal(U3, [mono(X1), mono(X2, X3)])):
        for level in (1, 2, 3):
            S = W.symbolic_power(level)
            for u in all_monomials(sorted(U3.variables), 4):
                assert W.symbolic_member(u, level) == S.contains(u)


@given(squarefree_ideals, st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_power_inside_symbolic(W, level):
    if W.is_zero() or W.is_unit():
        return
    P = W.power(level)
    for g in P.gens:
        assert W.symbolic_member(g, level)


def test_first_symbolic_gap():
    assert first_symbolic_gap(triangle(), 2) == (2, mono(X1, X2, X3))
    prime = ideal(U3, [mono(X1), mono(X2)])
    assert first_symbolic_gap(prime, 3) is None


def test_first_symbolic_gap_finds_primes_once_per_symbolic_power(monkeypatch):
    calls = []
    original = MonomialIdeal.minimal_primes

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(MonomialIdeal, "minimal_primes", counting)
    assert first_symbolic_gap(LinkInstance(2, 4).link_initial, 2) is None
    # once per ideal: the ordinary-power check and both symbolic powers
    # read the same cached prime columns
    assert len(calls) == 1


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


# -- the square-bracket colon criterion ------------------------------------------------


def test_square_colon_examples():
    W = ideal(U3, [mono(X1), mono(X2)])
    assert square_colon_check(W, 0)
    assert square_colon_scan(W, 2) is None
    failing = square_colon_scan(triangle(), 2)
    assert failing is not None and failing <= 2


def test_square_colon_scan_agrees_with_check():
    subjects = [triangle(), ideal(U3, [mono(X1), mono(X2)])]
    subjects += [LinkInstance(m, n).link_initial for m, n in [(1, 3), (2, 3), (2, 4)]]
    subjects += [LinkInstance(3, 5).staircase_ideal]
    for W in subjects:
        want = next((r for r in range(3) if not square_colon_check(W, r)), None)
        assert square_colon_scan(W, 2) == want


def test_square_colon_scan_builds_each_power_once(monkeypatch):
    calls = []
    original = MonomialIdeal.product

    def counting(self, other, cap=DEFAULT_CANDIDATE_CAP):
        calls.append(other)
        return original(self, other, cap=cap)

    monkeypatch.setattr(MonomialIdeal, "product", counting)
    W = LinkInstance(2, 4).link_initial
    assert square_colon_scan(W, 2) is None
    # W^2, ..., W^5, each one product with W
    assert len(calls) == 4 and all(V is W for V in calls)


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
    # The largest step of iniJ(4,7) at level 2 has lifted candidates times
    # antichain size 31,816, well inside the default cap.
    W = LinkInstance(4, 7).link_initial
    assert 31_816 < DEFAULT_CANDIDATE_CAP
    assert len(W.symbolic_power(2, cap=31_816).gens) == 174
    with pytest.raises(SizeGuardExceeded) as refused:
        W.symbolic_power(2, cap=31_815)
    assert refused.value.estimate == 31_816
