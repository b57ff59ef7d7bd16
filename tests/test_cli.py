import json
import time
from itertools import combinations_with_replacement

import pytest

import genlink.cli
from genlink.cli import main
from genlink.serialize import _betti_grid, ideal_to_json
from genlink import LinkInstance, Monomial, Universe, betti_table, ideal, unit_ideal, xvar, zero_ideal


@pytest.fixture
def triangle_file(tmp_path):
    u = Universe.x_grid(1, 3)
    x1, x2, x3 = (xvar(1, j) for j in (1, 2, 3))
    W = ideal(u, [Monomial.of(x1, x2), Monomial.of(x1, x3), Monomial.of(x2, x3)])
    path = tmp_path / "triangle.json"
    path.write_text(ideal_to_json(W))
    return str(path)


def test_generate_single_row_link(capsys):
    assert main(["generate", "1", "3", "iniJ"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "Y[1,1]*Y[2,2]*Y[3,3]",
        "Y[1,1]*x[1,1]",
        "Y[2,2]*x[1,2]",
        "Y[3,3]*x[1,3]",
    ]


def test_generate_betti_csv(capsys):
    assert main(["generate", "2", "4", "betti", "--format", "csv"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["i,j,value", "1,3,3", "1,5,3", "2,6,11", "3,7,6"]


def test_generate_staircase(capsys):
    assert main(["generate", "2", "3", "N"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert sorted(out) == ["x[1,2]", "x[2,2]"]


def test_generate_invalid_sizes(capsys):
    assert main(["generate", "5", "3", "iniJ"]) == 2
    assert main(["generate", "2", "3", "bogus"]) == 2


def test_generate_refuses_before_it_enumerates(monkeypatch, capsys):
    # iniJ(2,6) lists g + C(5,1) = 10 generators, iniJ(3,6) lists 4 + C(5,2) = 14
    monkeypatch.setattr(genlink.cli, "DEFAULT_CANDIDATE_CAP", 10)
    assert main(["generate", "2", "6", "iniJ"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 10

    def enumerated(inst):
        raise AssertionError("a refused target listed its selectors")

    monkeypatch.setattr(LinkInstance, "selectors", property(enumerated))
    assert main(["generate", "3", "6", "iniJ"]) == 3
    assert capsys.readouterr().err == "refused: iniJ would enumerate about 14 generators (cap 10)\n"


def test_generate_refuses_a_large_universe_before_it_builds(monkeypatch, capsys):
    def built(inst):
        raise AssertionError("a refused target built its universe")

    monkeypatch.setattr(LinkInstance, "universe", property(built))
    # 200,000 generators pass the generator cap, but with the universe's own
    # vector they hold 200,001 * (200,000 + 200,000) exponent entries
    start = time.perf_counter()
    assert main(["generate", "1", "200000", "iniI"]) == 3
    assert time.perf_counter() - start < 0.1
    assert capsys.readouterr().err == (
        "refused: iniI would enumerate about 80000400000 exponent entries (cap 10000000)\n"
    )
    # one generator more is refused by the generator count, as before
    assert main(["generate", "1", "200001", "iniI"]) == 3
    assert capsys.readouterr().err == "refused: iniI would enumerate about 200001 generators (cap 200000)\n"


def test_generate_entry_cap_is_inclusive(monkeypatch, capsys):
    # iniJ(2,4): (3 + 3 + 1) generator and universe vectors of 8 + 3 entries
    monkeypatch.setattr(genlink.cli, "MAX_GENERATE_ENTRIES", 77)
    assert main(["generate", "2", "4", "iniJ"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 6
    monkeypatch.setattr(genlink.cli, "MAX_GENERATE_ENTRIES", 76)
    assert main(["generate", "2", "4", "iniJ"]) == 3
    assert capsys.readouterr().err == "refused: iniJ would enumerate about 77 exponent entries (cap 76)\n"


@pytest.mark.parametrize("m, n", [(1, 1), (1, 3), (2, 3), (2, 4), (3, 7), (4, 9)])
def test_betti_count_is_the_grid_the_tables_lay_out(m, n):
    inst = LinkInstance(m, n)
    rows, cols, _ = _betti_grid(betti_table(inst))
    _, count, unit = genlink.cli.GENERATE_TARGETS["betti"]
    assert (count(inst), unit) == (len(rows) * len(cols), "table cells")


def test_generate_counts_are_the_generators_built():
    # iniJ at m = n counts g + 1 = 2 generators: the sequence lead term, and
    # Y[1,1] times the single beta, which is 1. Y[1,1] divides the lead
    # term, so the ideal built is (Y[1,1])
    for m in range(1, 9):
        for n in range(m, 9):
            inst = LinkInstance(m, n)
            for target in ("iniI", "iniA", "iniJ", "N"):
                build, count, _ = genlink.cli.GENERATE_TARGETS[target]
                built = len(build(inst).vecs)
                assert (count(inst), built) == ((2, 1) if (target, m) == ("iniJ", n) else (built, built))


def test_generate_betti_refuses_a_large_grid_before_it_builds(monkeypatch, capsys, tmp_path):
    def built(inst):
        raise AssertionError("a refused table was built")

    original = genlink.cli.GENERATE_TARGETS["betti"]
    monkeypatch.setitem(genlink.cli.GENERATE_TARGETS, "betti", (built, *original[1:]))
    # g = 999: (2 * 998 + 1) * 1000 cells, in every format
    for fmt in genlink.cli.FORMATS:
        assert main(["generate", "2", "1000", "betti", "--format", fmt]) == 3
        assert capsys.readouterr().err == "refused: betti would enumerate about 1997000 table cells (cap 200000)\n"
    # g = 299: 597 * 300 = 179,100 cells pass the cap
    monkeypatch.setitem(genlink.cli.GENERATE_TARGETS, "betti", original)
    assert main(["generate", "2", "300", "betti", "--format", "json", "--out", str(tmp_path / "b.json")]) == 0


def test_generate_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["generate", "2", "4", "iniJ", "--format", "json", "--out", str(a)]) == 0
    assert main(["generate", "2", "4", "iniJ", "--format", "json", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_colon_exit_zero(capsys, tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "colon", "2", "3", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["reports"][0]["check"] == "colon"
    assert data["reports"][0]["status"] == "pass"
    assert "elapsed_ms" in data["reports"][0]


def test_verify_all_with_bounds(tmp_path):
    out = tmp_path / "report.json"
    code = main([
        "verify", "all", "2", "4",
        "--Lmax", "2", "--rmax", "2", "--seed", "7", "--samples", "20",
        "--out", str(out),
    ])
    assert code == 0
    data = json.loads(out.read_text())
    assert {r["status"] for r in data["reports"]} == {"pass"}
    assert len(data["reports"]) == 7


def test_verify_cor412_reports_discrepancy(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "cor412", "3", "5", "--out", str(out)]) == 0
    report = json.loads(out.read_text())["reports"][0]
    assert report["witnesses"]["equal_at_2"] is False
    assert report["witnesses"]["supported_conditions"] == ["m<=2 or n<=m+1"]


def test_verify_refusal_exit_code(tmp_path):
    # tiny candidate cap forces a refusal
    out = tmp_path / "report.json"
    code = main(["verify", "symbolic", "2", "4", "--max-gens", "4", "--out", str(out)])
    assert code == 3
    assert json.loads(out.read_text())["reports"][0]["status"] == "refused"


@pytest.mark.parametrize(
    "suite, flag, value, field",
    [
        ("symbolic", "--Lmax", "0", "symbolic_upto"),
        ("symbolic", "--rmax", "-1", "square_colon_rmax"),
        ("witnesses", "--samples", "0", "witness_samples"),
        ("symbolic", "--max-gens", "0", "candidate_cap"),
    ],
)
def test_verify_refuses_a_bound_that_checks_nothing(capsys, tmp_path, suite, flag, value, field):
    out = tmp_path / "report.json"
    assert main(["verify", suite, "2", "4", flag, value, "--out", str(out)]) == 2
    assert f"{field} must be at least" in capsys.readouterr().err
    assert not out.exists()


def test_verify_takes_the_least_meaningful_bounds():
    # the benchmark's square-colon workload runs at --Lmax 1
    assert main(["verify", "symbolic", "2", "4", "--Lmax", "1", "--rmax", "0"]) == 0
    assert main(["verify", "witnesses", "2", "4", "--rmax", "0", "--samples", "1"]) == 0


def test_compare_symbolic_includes_full_product(triangle_file, capsys):
    assert main(["compare", triangle_file, "--op", "symbolic:2"]) == 0
    data = json.loads(capsys.readouterr().out)
    gens = [g for g in data["generators"]]
    assert {"x[1,1]": 1, "x[1,2]": 1, "x[1,3]": 1} in gens


def test_compare_colon_by_unit_and_product_with_unit(tmp_path, triangle_file, capsys):
    u = Universe.x_grid(1, 3)
    unit_path = tmp_path / "unit.json"
    unit_path.write_text(ideal_to_json(ideal(u, [Monomial.one()])))
    assert main(["compare", str(unit_path), triangle_file, "--op", "colon"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["generators"] == [{}]  # the unit ideal
    assert main(["compare", triangle_file, str(unit_path), "--op", "product"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["generators"]) == 3


def test_compare_schema_violation(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": 2}')
    assert main(["compare", str(bad), "--op", "symbolic:2"]) == 2
    err = capsys.readouterr().err
    assert "schema_version" in err


@pytest.mark.parametrize("level", [1, 2, 3])
def test_compare_symbolic_of_a_non_squarefree_ideal(tmp_path, capsys, level):
    square = tmp_path / "square.json"
    square.write_text(ideal_to_json(ideal(Universe.x_grid(1, 3), [Monomial({xvar(1, 1): 2})])))
    assert main(["compare", str(square), "--op", f"symbolic:{level}"]) == 2
    assert "squarefree" in capsys.readouterr().err


def test_compare_missing_second_file(triangle_file):
    assert main(["compare", triangle_file, "--op", "colon"]) == 2


def test_compare_symbolic_refuses_a_second_file(tmp_path, triangle_file, capsys):
    # refused before either file is read, whether the second exists or not
    missing = str(tmp_path / "missing.json")
    for second in (triangle_file, missing):
        assert main(["compare", triangle_file, second, "--op", "symbolic:2"]) == 2
        assert "'symbolic:2' takes one ideal file" in capsys.readouterr().err


def test_compare_bad_op(triangle_file):
    assert main(["compare", triangle_file, "--op", "frobnicate"]) == 2
    assert main(["compare", triangle_file, "--op", "symbolic:0"]) == 2


@pytest.mark.parametrize("level", ["1_0", "+2", " 2", "\u0662"])
def test_compare_takes_only_ascii_digits_for_the_level(triangle_file, capsys, level):
    # int() would read levels 10, 2, 2 and 2
    assert main(["compare", triangle_file, "--op", f"symbolic:{level}"]) == 2
    assert "bad symbolic level" in capsys.readouterr().err


def test_no_partial_file_on_failure(tmp_path, triangle_file):
    target = tmp_path / "result.json"
    # second file missing -> usage error before any write
    assert main(["compare", triangle_file, "--op", "colon", "--out", str(target)]) == 2
    assert not target.exists()
    assert not any(p.name.startswith(".tmp-genlink-") for p in tmp_path.iterdir())


@pytest.mark.parametrize("command, target", [
    (lambda _: ["generate", "2", "4", "iniJ"], "dir"),
    (lambda _: ["verify", "counts", "2", "4"], "missing/report.json"),
    (lambda triangle: ["compare", triangle, "--op", "symbolic:2"], "dir"),
], ids=["generate", "verify", "compare"])
def test_unwritable_out_is_a_usage_error(tmp_path, triangle_file, capsys, command, target):
    # no traceback, and no temporary file left next to the target
    (tmp_path / "dir").mkdir()
    out = tmp_path / target
    assert main([*command(triangle_file), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {out}: ")
    assert not any(p.name.startswith(".tmp-genlink-") for p in tmp_path.iterdir())


def test_compare_product_with_a_huge_exponent(tmp_path, capsys):
    # 22 generators outgrow the index switch of 4 variables; an index over
    # the exponent 2^40 would allocate 2^40 bitsets, so the reduction scans
    u = Universe.x_grid(1, 4)
    x11 = Monomial.of(xvar(1, 1))
    gens = [Monomial.of(*c) for c in combinations_with_replacement([xvar(1, j) for j in (1, 2, 3)], 5)]
    gens.append(Monomial({xvar(1, 4): 2**40}))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(ideal_to_json(ideal(u, gens)))
    b.write_text(ideal_to_json(ideal(u, [x11])))
    assert main(["compare", str(a), str(b), "--op", "product"]) == 0
    got = {frozenset(g.items()) for g in json.loads(capsys.readouterr().out)["generators"]}
    assert got == {frozenset((str(v), e) for v, e in (g * x11).items()) for g in gens}


def test_compare_refuses_a_large_product_with_a_huge_exponent(tmp_path, capsys):
    # 301 generators load (301 * 301 pairs scanned), but their product with
    # (x[1,1], x[1,4]) would scan 602 distinct candidates against up to 602
    u = Universe.x_grid(1, 4)
    gens = [Monomial.of(*c) for c in combinations_with_replacement([xvar(1, j) for j in (1, 2, 3)], 23)]
    gens.append(Monomial({xvar(1, 4): 2**40}))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(ideal_to_json(ideal(u, gens)))
    b.write_text(ideal_to_json(ideal(u, [Monomial.of(xvar(1, 1)), Monomial.of(xvar(1, 4))])))
    assert main(["compare", str(a), str(b), "--op", "product"]) == 3
    assert "about 362404 comparisons" in capsys.readouterr().err


@pytest.mark.parametrize(
    "first, second, op, generators",
    [
        ("unit", "unit", "product", [{}]),
        ("unit", "unit", "intersect", [{}]),
        ("unit", "unit", "colon", [{}]),
        ("unit", "zero", "product", []),
        ("zero", "unit", "intersect", []),
        ("zero", "unit", "colon", []),
        ("zero", "zero", "product", []),
    ],
)
def test_compare_over_the_empty_universe(tmp_path, capsys, first, second, op, generators):
    # no variables: the only ideals are the zero and the unit ideal
    empty = Universe(1, 1, 0, 0, ())
    for name, W in (("unit", unit_ideal(empty)), ("zero", zero_ideal(empty))):
        (tmp_path / f"{name}.json").write_text(ideal_to_json(W))
    assert '"variables": []' in (tmp_path / "unit.json").read_text()
    argv = ["compare", str(tmp_path / f"{first}.json"), str(tmp_path / f"{second}.json"), "--op", op]
    assert main(argv) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["generators"] == generators
    assert data["universe"]["variables"] == []


def test_compare_colon_by_the_zero_ideal_is_a_usage_error(tmp_path, capsys):
    empty = Universe(1, 1, 0, 0, ())
    unit, zero = tmp_path / "unit.json", tmp_path / "zero.json"
    unit.write_text(ideal_to_json(unit_ideal(empty)))
    zero.write_text(ideal_to_json(zero_ideal(empty)))
    assert main(["compare", str(unit), str(zero), "--op", "colon"]) == 2
    assert "colon by the zero ideal" in capsys.readouterr().err
