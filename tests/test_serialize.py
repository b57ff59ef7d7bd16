import json

import pytest
from hypothesis import example, given, settings, strategies as st

from genlink import (
    LinkInstance,
    Monomial,
    Universe,
    betti_table,
    ideal,
    unit_ideal,
    xvar,
    yvar,
    zero_ideal,
)
from genlink.serialize import (
    SchemaError,
    betti_to_csv,
    betti_to_json,
    betti_to_text,
    ideal_from_json,
    ideal_to_csv,
    ideal_to_dict,
    ideal_to_json,
    ideal_to_tex,
    ideal_to_text,
    sorted_generators,
)


def triangle():
    u = Universe.x_grid(1, 3)
    x1, x2, x3 = (xvar(1, j) for j in (1, 2, 3))
    return ideal(u, [Monomial.of(x1, x2), Monomial.of(x1, x3), Monomial.of(x2, x3)])


def test_json_roundtrip_triangle():
    W = triangle()
    assert ideal_from_json(ideal_to_json(W)) == W


def test_json_roundtrip_link_instance():
    W = LinkInstance(2, 4).link_initial
    again = ideal_from_json(ideal_to_json(W))
    assert again == W
    assert again.universe.y_rows == 3 and again.universe.y_cols == 6


def test_json_deterministic():
    W = LinkInstance(2, 3).link_initial
    assert ideal_to_json(W) == ideal_to_json(W)


def test_generators_sorted_diag_lex_descending():
    inst = LinkInstance(1, 3)
    texts = [str(g) for g in sorted_generators(inst.link_initial)]
    assert texts == [
        "Y[1,1]*Y[2,2]*Y[3,3]",
        "Y[1,1]*x[1,1]",
        "Y[2,2]*x[1,2]",
        "Y[3,3]*x[1,3]",
    ]


def test_text_and_csv_and_tex():
    W = triangle()
    assert ideal_to_text(W).splitlines() == ["x[1,2]*x[1,3]", "x[1,1]*x[1,3]", "x[1,1]*x[1,2]"]
    lines = ideal_to_csv(W).splitlines()
    assert lines[0] == "generator,degree"
    assert len(lines) == 4
    # monomial text contains commas, so csv must quote
    assert lines[1] == '"x[1,2]*x[1,3]",2'
    assert ideal_to_tex(W).startswith("$(")
    assert ideal_to_text(zero_ideal(W.universe)) == "0\n"
    assert Monomial({xvar(1, 2): 3, yvar(1, 1): 1}).tex() == "Y_{1,1} x_{1,2}^{3}"
    assert Monomial().tex() == "1"


WIDE = Universe.full(2, 11, 3, 12)  # x[1,10] sorts before x[1,2], and Y before x


@st.composite
def wide_ideals(draw):
    """An ideal over a universe with up to 12 columns and a Y grid, listing
    its variables in any order, generated by monomials with exponents up
    to 300; the zero and the unit ideal among them."""
    m = draw(st.integers(1, 3))
    n = draw(st.one_of(st.integers(m, 4), st.integers(10, 12)))
    y_rows, y_cols = draw(st.integers(0, 3)), draw(st.integers(0, 12))
    full = Universe.full(m, n, y_rows, y_cols)
    u = Universe(m, n, y_rows, y_cols, tuple(draw(st.permutations(full.variables))))
    exponents = st.one_of(st.just(1), st.integers(1, 300))
    monomials = st.dictionaries(st.sampled_from(u.variables), exponents, max_size=6)
    return ideal(u, map(Monomial, draw(st.lists(monomials, max_size=8))))


@given(wide_ideals())
@example(zero_ideal(WIDE))
@example(unit_ideal(WIDE))
@example(ideal(WIDE, [Monomial({xvar(1, 10): 300, xvar(1, 2): 1}), Monomial.of(xvar(2, 11))]))
@settings(max_examples=200, deadline=None)
def test_json_and_tex_writers_match_their_references(W):
    assert ideal_to_json(W) == json.dumps(ideal_to_dict(W), indent=2, sort_keys=True) + "\n"
    assert ideal_from_json(ideal_to_json(W)) == W
    gens = sorted_generators(W)
    tex = "$(" + ",\\; ".join(g.tex() for g in gens) + ")$\n" if gens else "$(0)$\n"
    assert ideal_to_tex(W) == tex


def test_schema_errors_carry_location():
    with pytest.raises(SchemaError) as err:
        ideal_from_json("{}")
    assert "schema_version" in str(err.value)
    with pytest.raises(SchemaError) as err:
        ideal_from_json(
            '{"schema_version": 1, "universe": {"m": 1, "n": 1, '
            '"family_sizes": {"X": [1,1], "Y": [0,0]}, "variables": ["x[1,1]"]}, '
            '"generators": [{"x[1,1]": 0}]}'
        )
    assert "generators[0]" in str(err.value)
    with pytest.raises(SchemaError):
        ideal_from_json("not json")


def test_schema_rejects_variable_outside_universe():
    with pytest.raises(SchemaError) as err:
        ideal_from_json(
            '{"schema_version": 1, "universe": {"m": 1, "n": 1, '
            '"family_sizes": {"X": [1,1], "Y": [0,0]}, "variables": ["x[1,1]"]}, '
            '"generators": [{"x[1,2]": 1}]}'
        )
    assert "generators[0]" in str(err.value)


VALID = {
    "schema_version": 1,
    "universe": {
        "m": 1, "n": 2, "family_sizes": {"X": [1, 2], "Y": [0, 0]},
        "variables": ["x[1,1]", "x[1,2]"],
    },
    "generators": [{"x[1,1]": 1, "x[1,2]": 2}],
}


def test_valid_schema_loads():
    W = ideal_from_json(json.dumps(VALID))
    assert [str(g) for g in W.gens] == ["x[1,1]*x[1,2]^2"]


@pytest.mark.parametrize("path, value, location", [
    ((), {"schema_version": True}, "schema_version"),
    (("generators", 0), {"x[1,1]": True}, "generators[0].x[1,1]"),
    (("universe",), {"m": 1.9}, "universe.m"),
    (("universe",), {"m": "1"}, "universe.m"),
    (("universe", "family_sizes"), {"Y": [0.5, 0]}, "universe.family_sizes.Y[0]"),
    (("universe", "family_sizes"), {"X": "zz"}, "universe.family_sizes.X"),
    (("universe", "family_sizes"), {"X": [5, 7]}, "universe.family_sizes.X"),
    (("generators", 0), {" x[1,1]": 2}, "generators[0]. x[1,1]"),
    # Arabic-Indic digits, which \d and int() would read as x[1,1]
    (("universe",), {"variables": ["x[\u0661,\u0661]", "x[1,2]"]}, "universe.variables[0]"),
], ids=["bool-version", "bool-exponent", "float-m", "string-m", "float-Y",
        "string-X", "wrong-X", "variable-twice", "other-script-digits"])
def test_schema_rejects_what_it_would_coerce(path, value, location):
    data = json.loads(json.dumps(VALID))
    target = data
    for key in path:
        target = target[key]
    target.update(value)
    with pytest.raises(SchemaError) as err:
        ideal_from_json(json.dumps(data))
    assert err.value.location == location


def test_schema_rejects_a_key_given_twice():
    text = json.dumps(VALID).replace('"x[1,2]": 2', '"x[1,1]": 2')
    with pytest.raises(SchemaError) as err:
        ideal_from_json(text)
    assert err.value.location == "x[1,1]"


def test_betti_formats():
    table = betti_table(LinkInstance(2, 4))
    csv_lines = betti_to_csv(table).splitlines()
    assert csv_lines[0] == "i,j,value"
    assert csv_lines[1:] == ["1,3,3", "1,5,3", "2,6,11", "3,7,6"]
    text = betti_to_text(table)
    rows = text.splitlines()
    assert rows[0].split() == ["0", "1", "2", "3"]
    # row index j - i; the unit sits at row 0, the tail entries at row 4
    assert rows[1].split() == ["0", "1", "-", "-", "-"]
    assert rows[5].split() == ["4", "-", "3", "11", "6"]
    assert '"d": 2' in betti_to_json(table) or '"d":2' in betti_to_json(table)
