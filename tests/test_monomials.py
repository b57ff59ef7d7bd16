import pytest
from hypothesis import given, strategies as st

import genlink
import genlink.ideals
import genlink.monomial
from genlink import Monomial, Universe, UniverseMismatch, parse_variable, xvar, yvar

VARS = [xvar(i, j) for i in (1, 2) for j in (1, 2, 3)] + [yvar(1, 1), yvar(2, 2)]

monomials = st.builds(
    Monomial,
    st.dictionaries(st.sampled_from(VARS), st.integers(min_value=1, max_value=4), max_size=5),
)


def test_unit_and_basic():
    one = Monomial.one()
    assert one.is_unit() and one.degree() == 0 and one.is_squarefree()
    m = Monomial.of(xvar(1, 2), xvar(1, 2), yvar(1, 1))
    assert m.degree() == 3
    assert m.exponent(xvar(1, 2)) == 2
    assert not m.is_squarefree()
    assert str(m) == "Y[1,1]*x[1,2]^2"


def test_zero_exponents_dropped_negative_rejected():
    assert Monomial({xvar(1, 1): 0}) == Monomial.one()
    with pytest.raises(ValueError):
        Monomial({xvar(1, 1): -1})


def test_parse_roundtrip_examples():
    assert parse_variable("x[1,2]") == xvar(1, 2)
    assert parse_variable("Y[3,10]") == yvar(3, 10)
    m = Monomial.from_text("x[1,2]^2*Y[1,1]")
    assert m == Monomial({xvar(1, 2): 2, yvar(1, 1): 1})
    assert Monomial.from_text("1") == Monomial.one()
    with pytest.raises(ValueError):
        parse_variable("z[1,2]")
    with pytest.raises(ValueError):
        Monomial.from_text("x[1,2]^0")


@pytest.mark.parametrize("text", ["x[1,1]^1_0", "x[1,1]^+2", "x[1,1]^\u0662", "x[1,1]^", "x[\u0661,1]"])
def test_from_text_takes_only_ascii_digits(text):
    # int() would read 10, 2 and 2, and an empty exponent as 1
    with pytest.raises(ValueError):
        Monomial.from_text(text)
    assert Monomial.from_text(" x[1,2] ^ 2 * Y[1,1] ") == Monomial({xvar(1, 2): 2, yvar(1, 1): 1})


@given(monomials)
def test_text_roundtrip(m):
    assert Monomial.from_text(str(m)) == m


@given(monomials, monomials)
def test_mul_degree_and_divisibility(a, b):
    p = a * b
    assert p.degree() == a.degree() + b.degree()
    assert a.divides(p) and b.divides(p)


def test_universe_validation():
    u = Universe.x_grid(2, 3)
    assert len(u) == 6
    with pytest.raises(ValueError):
        Universe(2, 3, 0, 0, (xvar(3, 1),))
    with pytest.raises(ValueError):
        Universe(2, 3, 0, 0, (xvar(1, 1), xvar(1, 1)))
    with pytest.raises(ValueError):
        Universe(2, 3, 0, 0, (yvar(1, 1),))


@given(monomials, monomials, st.integers(min_value=0, max_value=3))
def test_arithmetic_matches_validated_constructor(a, b, k):
    # products and powers skip re-validation; each must equal the monomial
    # the checking constructor builds from the same map
    da, db = dict(a.items()), dict(b.items())
    keys = da.keys() | db.keys()
    cases = [
        (a * b, {v: da.get(v, 0) + db.get(v, 0) for v in keys}),
        (a ** k, {v: e * k for v, e in da.items()}),
    ]
    for got, exps in cases:
        want = Monomial(exps)
        assert got == want and got.items() == want.items() and hash(got) == hash(want)


def test_constructor_rejects_bad_input():
    with pytest.raises(TypeError):
        Monomial({"x[1,1]": 1})
    with pytest.raises(TypeError):
        Monomial({xvar(1, 1): 1.0})
    with pytest.raises(ValueError):
        Monomial([(xvar(1, 1), -2)])
    with pytest.raises(TypeError):
        Monomial.of(xvar(1, 1)) ** 2.0


MIXED = Universe.full(2, 2, 2, 2)  # x variables first, but Y sorts first


@st.composite
def universe_pairs(draw):
    """MIXED or a universe listing its variables in any order, with a
    monomial in those variables and an exponent vector over the universe."""
    permuted = Universe(2, 2, 2, 2, tuple(draw(st.permutations(MIXED.variables))))
    U = draw(st.sampled_from([MIXED, permuted]))
    exps = st.dictionaries(st.sampled_from(U.variables), st.integers(min_value=1, max_value=4), max_size=5)
    vec = st.lists(st.integers(min_value=0, max_value=4), min_size=len(U), max_size=len(U))
    return U, draw(st.builds(Monomial, exps)), tuple(draw(vec))


@given(universe_pairs())
def test_vector_and_monomial_invert_each_other(case):
    # equal monomials keep equal pairs, so the first assert also checks that
    # the monomial's pairs come sorted by variable, not in universe order
    U, mon, vec = case
    assert U.monomial(U.vector(mon)) == mon
    assert U.vector(U.monomial(vec)) == vec
    assert U.monomial(vec) == Monomial(zip(U.variables, vec))


@pytest.mark.parametrize("vec", [(1, 0, 0, 5), (1, 0)])
def test_monomial_rejects_a_vector_of_the_wrong_length(vec):
    # unchecked, a longer vector would lose its last exponent and a shorter
    # one would run out of positions
    with pytest.raises(UniverseMismatch, match="length"):
        Universe.x_grid(1, 3).monomial(vec)


def test_universe_mismatch_is_one_class():
    assert genlink.UniverseMismatch is genlink.ideals.UniverseMismatch is genlink.monomial.UniverseMismatch
