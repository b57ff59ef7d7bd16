from functools import cmp_to_key

from hypothesis import given, settings, strategies as st

from bruteforce import all_monomials, diaglex_compare, revlex_compare
from genlink import DiagLexOrder, GradedRevLex, Monomial, Universe, xvar, yvar
from genlink.orders import diaglex_vector_key

REVLEX = GradedRevLex()
DIAGLEX = DiagLexOrder()

SMALL = Universe.full(2, 2, 0, 0)  # 4 variables
TEN = Universe.full(2, 3, 2, 2)  # 6 x-vars + 4 Y-vars
WIDE = Universe.full(2, 3, 3, 3)  # 6 x-vars + 3 diagonal and 6 off-diagonal Y-vars

small_monomials = st.builds(
    Monomial,
    st.dictionaries(
        st.sampled_from(TEN.variables), st.integers(min_value=1, max_value=3), max_size=4
    ),
)


def test_diag_lex_diagonal_ranking():
    assert DIAGLEX.compare(Monomial.of(yvar(1, 1)), Monomial.of(yvar(2, 2))) > 0
    assert DIAGLEX.compare(Monomial.of(yvar(2, 2)), Monomial.of(yvar(1, 2))) > 0
    # off-diagonal row-major tie ranking
    assert DIAGLEX.compare(Monomial.of(yvar(1, 2)), Monomial.of(yvar(2, 1))) > 0


def test_revlex_grid_ranking():
    # bottom row beats top row: x[2,3] > x[1,1] at (m,n) = (2,3)
    assert REVLEX.compare(Monomial.of(xvar(2, 3)), Monomial.of(xvar(1, 1))) > 0
    assert REVLEX.compare(Monomial.of(xvar(2, 2)), Monomial.of(xvar(2, 1))) > 0
    # antidiagonal of the 2x2 minor beats the diagonal
    diag = Monomial.of(xvar(1, 1), xvar(2, 2))
    anti = Monomial.of(xvar(2, 1), xvar(1, 2))
    assert REVLEX.compare(anti, diag) > 0


def test_unit_is_minimum():
    one = Monomial.one()
    for order in (REVLEX, DIAGLEX):
        for mon in all_monomials(TEN.variables, 2):
            if not mon.is_unit():
                assert order.compare(one, mon) < 0
                assert order.compare(mon, one) > 0


def test_diag_lex_y_part_dominates():
    # a huge x-monomial still loses to a single diagonal Y
    big_x = Monomial({xvar(2, 3): 9, xvar(1, 1): 9})
    assert DIAGLEX.compare(Monomial.of(yvar(2, 2)), big_x) > 0


def test_totality_antisymmetry_exhaustive_small():
    mons = list(all_monomials(SMALL.variables, 3))
    for order in (REVLEX, DIAGLEX):
        for u in mons:
            for v in mons:
                c, cr = order.compare(u, v), order.compare(v, u)
                assert c in (-1, 0, 1)
                assert c == -cr
                assert (c == 0) == (u == v)


def test_multiplicativity_exhaustive_small():
    mons = list(all_monomials(SMALL.variables, 2))
    for order in (REVLEX, DIAGLEX):
        for u in mons:
            for v in mons:
                c = order.compare(u, v)
                for w in mons:
                    assert order.compare(u * w, v * w) == c


@given(small_monomials, small_monomials, small_monomials)
@settings(max_examples=150)
def test_multiplicativity_property(u, v, w):
    for order in (REVLEX, DIAGLEX):
        assert order.compare(u * w, v * w) == order.compare(u, v)


@given(small_monomials, small_monomials)
@settings(max_examples=300)
def test_keys_agree_with_reference_comparators(u, v):
    for order, reference in ((REVLEX, revlex_compare), (DIAGLEX, diaglex_compare)):
        ku, kv = order.key(u), order.key(v)
        want = reference(u, v)
        assert (ku > kv) - (ku < kv) == want
        assert order.compare(u, v) == want


def test_sorting_by_key_matches_reference_comparators():
    mons = list(all_monomials(TEN.variables, 2))
    for order, reference in ((REVLEX, revlex_compare), (DIAGLEX, diaglex_compare)):
        assert sorted(mons, key=order.key) == sorted(mons, key=cmp_to_key(reference))


@st.composite
def vector_pairs(draw):
    """A universe listing WIDE's variables in any order, and two exponent
    vectors over it that share a random part, so that Y parts often tie."""
    variables = tuple(draw(st.permutations(WIDE.variables)))
    universe = Universe(WIDE.m, WIDE.n, WIDE.y_rows, WIDE.y_cols, variables)
    sparse = st.dictionaries(
        st.integers(0, len(variables) - 1), st.integers(min_value=1, max_value=3), max_size=4
    )
    shared = draw(sparse)

    def vec(own):
        exps = {**shared, **own}
        return tuple(exps.get(p, 0) for p in range(len(variables)))

    return universe, vec(draw(sparse)), vec(draw(sparse))


@given(vector_pairs())
@settings(max_examples=300)
def test_vector_key_is_the_monomial_key(pair):
    universe, u, v = pair
    key = diaglex_vector_key(universe.variables)
    mu, mv = universe.monomial(u), universe.monomial(v)
    assert key(u) == DIAGLEX.key(mu)
    assert key(v) == DIAGLEX.key(mv)
    ku, kv = key(u), key(v)
    assert (ku > kv) - (ku < kv) == diaglex_compare(mu, mv)
