import json
import os
import re
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

from bruteforce import scan_row_leads
from genlink import LinkInstance, Monomial, VerifyBounds, first_symbolic_gap, xvar, yvar
from genlink import ideals
from genlink.cli import main
from genlink.ideals import DEFAULT_CANDIDATE_CAP, MonomialIdeal, ideal
from genlink.verify import (
    MAX_UNIVERSE_VARS,
    SUITES,
    _row_leads,
    _square_inputs,
    resolve_staircase_powers,
    run_suite,
    verify_betti,
    verify_colon_link,
    verify_counts_and_degrees,
    verify_lead_terms,
    verify_symbolic_scan,
    verify_witnesses,
)


def test_colon_link_small():
    for m, n in [(1, 2), (1, 3), (2, 3), (3, 3)]:
        rep = verify_colon_link(LinkInstance(m, n))
        assert rep.passed, rep
        assert rep.witnesses["set_equal"]
        assert rep.witnesses["claimed_in_colon"]
        assert rep.witnesses["computed_in_claimed"]


def test_colon_link_counts_35():
    rep = verify_colon_link(LinkInstance(3, 5))
    assert rep.passed
    assert rep.witnesses["computed_generators"] == 9


def test_symbolic_scan_pass_and_report_shape():
    bounds = VerifyBounds(symbolic_upto=2, square_colon_rmax=1)
    rep = verify_symbolic_scan(LinkInstance(2, 3), bounds)
    assert rep.passed
    assert rep.params == {"upto": 2, "r_max": 1}
    data = rep.to_dict()
    json.dumps(data)  # must be machine-serializable
    assert data["status"] == "pass"
    assert data["instance"] == {"m": 2, "n": 3, "g": 2, "r": 3}


def test_symbolic_suite_passes_at_4_6(capsys):
    # W^5 of iniJ(4,6) reduces through the divisor index
    assert main(["verify", "symbolic", "4", "6", "--Lmax", "2", "--rmax", "2"]) == 0
    assert capsys.readouterr().out.startswith("symbolic (4,6): pass")


def test_symbolic_suite_builds_each_power_once(monkeypatch, capsys):
    calls = []
    original = MonomialIdeal.product

    def counting(self, other, cap=DEFAULT_CANDIDATE_CAP):
        calls.append(other)
        return original(self, other, cap=cap)

    monkeypatch.setattr(MonomialIdeal, "product", counting)
    assert main(["verify", "symbolic", "2", "4", "--Lmax", "2", "--rmax", "2"]) == 0
    # W^2 only: the symbolic comparison builds it, and the square-colon
    # scan reads it and covers its top level by the sums of W^2 and W
    assert len(calls) == 1


def test_counts_and_degrees():
    assert verify_counts_and_degrees(LinkInstance(3, 5)).passed
    rep = verify_counts_and_degrees(LinkInstance(3, 3))
    assert rep.passed
    assert rep.witnesses["degenerate_collapse"] is True


def test_betti_golden_flag():
    rep = verify_betti(LinkInstance(2, 4))
    assert rep.passed
    assert rep.witnesses["golden_match"] is True


def test_lead_terms_small():
    assert verify_lead_terms(LinkInstance(1, 3)).passed
    assert verify_lead_terms(LinkInstance(2, 3)).passed


@pytest.mark.parametrize(
    "m, n", [(1, 1), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5), (4, 4), (2, 6), (4, 6)]
)
def test_row_leads_match_the_full_scan(m, n):
    # one scan per minor, then one product per (row, minor), against the
    # comparator over every product of every term
    inst = LinkInstance(m, n)
    variables = inst.universe.variables
    leads = [
        Monomial.of(yvar(j, k), *(variables[p] for p in term))
        for j, (k, term) in enumerate(_row_leads(inst), start=1)
    ]
    assert leads == scan_row_leads(inst)


def test_lead_terms_refusal_keeps_the_full_scan_estimate():
    rep = verify_lead_terms(LinkInstance(6, 12))
    assert rep.status == "refused"
    assert rep.witnesses["estimate"] == 924 * 720 * 7


def test_suites_compute_on_exponent_vectors(monkeypatch):
    calls = []
    for name in ("__mul__", "__pow__", "divides"):
        original = getattr(Monomial, name)

        def counting(self, other, _name=name, _original=original):
            calls.append(_name)
            return _original(self, other)

        monkeypatch.setattr(Monomial, name, counting)
    assert (Monomial.of(xvar(1, 1)) ** 2).divides(Monomial.of(xvar(1, 1)) * Monomial.of(xvar(1, 1)))
    assert calls == ["__pow__", "__mul__", "divides"]  # the counters are live
    calls.clear()
    witnesses = verify_witnesses(LinkInstance(3, 5), VerifyBounds(square_colon_rmax=2))
    colon = verify_colon_link(LinkInstance(3, 5))
    counts = verify_counts_and_degrees(LinkInstance(3, 5))
    assert witnesses.passed and colon.passed and counts.passed
    assert witnesses.witnesses == {"antidiagonal": 60, "square": 819, "odd_part": 200}
    assert calls == []


def test_failed_witness_postcondition_names_monomials(monkeypatch):
    monkeypatch.setattr(MonomialIdeal, "_divides_into", lambda self, vec: False)
    rep = verify_witnesses(LinkInstance(2, 3), VerifyBounds(square_colon_rmax=1))
    assert rep.status == "fail"
    error = rep.witnesses["error"]
    assert error.startswith("delta not in the (r+1)-st power: SquareDivisorWitness(delta=Monomial(")
    assert "Y[" in error
    assert "(0, " not in error and "_vec" not in error


def test_counts_reject_generators_that_are_not_an_antichain():
    # swap one staircase generator of iniJ(2,4) for a multiple of Y[1,1]*x[2,1]*x[1,2]
    # of the same degree, 5: squarefree, same degree counts, but one generator divides
    # another, which only the antichain test sees
    inst = LinkInstance(2, 4)
    W = inst.link_initial
    index = inst.universe.index
    multiple = list(W.vecs[0])
    for v in (xvar(1, 1), xvar(2, 4)):
        multiple[index[v]] = 1
    assert sum(multiple) == 5 and sum(W.vecs[-1]) == 5
    inst.__dict__["link_initial"] = MonomialIdeal(W.universe, W.vecs[:-1] + (tuple(multiple),))
    rep = verify_counts_and_degrees(inst)
    assert rep.status == "fail"
    assert rep.witnesses["degree_counts"] == {"3": 3, "5": 3}


def test_colon_link_flags_a_claim_outside_the_colon():
    inst = LinkInstance(2, 3)
    W = inst.link_initial
    outside = [0] * len(inst.universe)
    outside[inst.universe.index[xvar(1, 1)]] = 1
    inst.__dict__["link_initial"] = MonomialIdeal(W.universe, W.vecs + (tuple(outside),))
    rep = verify_colon_link(inst)
    assert rep.status == "fail"
    assert rep.witnesses["claimed_in_colon"] is False
    assert rep.witnesses["computed_in_claimed"] is True


def test_staircase_resolution_flags_disagreement():
    rep = resolve_staircase_powers(LinkInstance(3, 5))
    assert rep.passed  # internally consistent
    assert rep.witnesses["equal_at_2"] is False
    assert rep.witnesses["supported_conditions"] == ["m<=2 or n<=m+1"]
    nu = rep.witnesses["nu_witness"]
    assert nu["nu_in_symbolic"] and nu["pairs_share_column3"] and not nu["nu_in_square"]


def test_staircase_resolution_sees_a_pair_off_column_3():
    # a stand-in staircase ideal whose second generator has no column-3 variable
    inst = LinkInstance(3, 5)
    gens = [Monomial.of(xvar(1, 1), xvar(2, 2), xvar(3, 3)), Monomial.of(xvar(1, 4), xvar(2, 5))]
    inst.__dict__["staircase_ideal"] = ideal(inst.universe, gens)
    rep = resolve_staircase_powers(inst)
    assert rep.witnesses["nu_witness"]["pairs_share_column3"] is False


def test_staircase_resolution_boundary():
    rep = resolve_staircase_powers(LinkInstance(3, 4))
    assert rep.passed
    assert rep.witnesses["equal_at_2"] is True


def test_staircase_resolution_degenerate_unit():
    rep = resolve_staircase_powers(LinkInstance(1, 3))
    assert rep.passed
    assert rep.witnesses["staircase_ideal_unit"] is True


def test_witnesses_deterministic_given_seed():
    bounds = VerifyBounds(square_colon_rmax=1, witness_samples=25)
    a = verify_witnesses(LinkInstance(2, 4), bounds, seed=3)
    b = verify_witnesses(LinkInstance(2, 4), bounds, seed=3)
    assert a.passed and b.passed
    assert a.witnesses == b.witnesses
    assert a.seed == 3


def test_square_inputs_are_exhaustive_up_to_the_cap():
    inst = LinkInstance(2, 4)
    everything = _square_inputs(inst, 1, Random(0), 7, 10_000)
    assert len(everything) == 44
    assert _square_inputs(inst, 1, Random(0), 7, 44) == everything
    assert len(_square_inputs(inst, 1, Random(0), 7, 43)) == 7  # sampled


def test_size_guard_refusal():
    # the universe guard refuses (5,8), with 40 x variables and 4 diagonal Y
    # variables, before any ideal is built
    assert len(LinkInstance(5, 8).universe) == 44 > MAX_UNIVERSE_VARS
    ideals = {"minors_initial", "sequence_initial", "staircase_ideal", "link_initial"}
    guarded = [suite for suite in SUITES if suite != "leads"]  # leads guards its own work
    assert len(guarded) == 6
    for suite in guarded:
        inst = LinkInstance(5, 8)
        (rep,) = run_suite(suite, inst)
        assert (rep.status, rep.witnesses["estimate"]) == ("refused", 44), suite
        assert not ideals & inst.__dict__.keys(), suite
        assert "universe" not in inst.__dict__, suite


def test_universe_guard_counts_before_it_builds(capsys):
    # (1000,3000) has 1000 * 3000 x variables and 2001 diagonal Y: the
    # guard counts them and refuses with no universe built
    inst = LinkInstance(1000, 3000)
    rep = verify_counts_and_degrees(inst)
    assert (rep.status, rep.witnesses["estimate"]) == ("refused", 3_002_001)
    assert rep.witnesses["reason"] == "universe would enumerate about 3002001 variables (cap 40)"
    assert "universe" not in inst.__dict__
    assert main(["verify", "counts", "1000", "3000"]) == 3
    assert re.fullmatch(r"counts \(1000,3000\): refused \[\d+ ms\]\n", capsys.readouterr().out)


def test_candidate_cap_refusal():
    bounds = VerifyBounds(candidate_cap=5, symbolic_upto=2, square_colon_rmax=1)
    rep = verify_symbolic_scan(LinkInstance(2, 4), bounds)
    assert rep.status == "refused"


def test_witnesses_pass_under_a_small_candidate_cap(tmp_path):
    # the witnesses certify power membership from their own factors, so no
    # iniJ^2 (9 * 9 candidates) is built for the cap to refuse
    out = tmp_path / "report.json"
    argv = ["verify", "witnesses", "3", "5", "--rmax", "2", "--max-gens", "10", "--out", str(out)]
    assert main(argv) == 0
    (rep,) = json.loads(out.read_text())["reports"]
    assert rep["status"] == "pass"
    assert rep["witnesses"] == {"antidiagonal": 60, "square": 819, "odd_part": 200}


def test_witness_suite_builds_no_power(monkeypatch):
    calls = []
    for name in ("power", "product"):
        original = getattr(MonomialIdeal, name)

        def counting(self, *args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(MonomialIdeal, name, counting)
    for (m, n), bounds in (((3, 5), VerifyBounds(square_colon_rmax=2)),
                           ((4, 7), VerifyBounds())):
        rep = verify_witnesses(LinkInstance(m, n), bounds)
        assert rep.passed, rep
    assert calls == []


def test_witness_factors_that_are_generators_query_no_index(monkeypatch):
    # for m < n every factor is a generator of iniJ, found by lookup; at m = n
    # iniJ collapses to (Y[1,1]) and the diagonal factors still query the index
    queried = []
    original = ideals._DivisorIndex.divides_some

    def spy(self, vec):
        queried.append(vec)
        return original(self, vec)

    monkeypatch.setattr(ideals._DivisorIndex, "divides_some", spy)
    assert verify_witnesses(LinkInstance(3, 5)).passed
    assert queried == []
    for m in (2, 3):
        inst = LinkInstance(m, m)
        rep = verify_witnesses(inst)
        assert rep.passed, rep
        assert queried and not set(queried) & set(inst.link_initial.vecs)
        queried.clear()


def test_colon_refuses_the_claimed_products_at_the_candidate_cap(tmp_path):
    # the colon itself fits a cap of 50 at (3,5); the check that every claimed
    # generator times every minors generator (9 * 10) lies in the sequence
    # ideal refuses before it streams a product
    out = tmp_path / "report.json"
    assert main(["verify", "colon", "3", "5", "--max-gens", "50", "--out", str(out)]) == 3
    (rep,) = json.loads(out.read_text())["reports"]
    assert (rep["status"], rep["witnesses"]["estimate"]) == ("refused", 90)
    assert rep["witnesses"]["reason"].startswith("product would enumerate about 90")


def test_run_suite_all():
    bounds = VerifyBounds(symbolic_upto=2, square_colon_rmax=1, witness_samples=10)
    reports = run_suite("all", LinkInstance(2, 3), bounds, seed=1)
    assert [r.check for r in reports] == [
        "colon", "symbolic", "cor412", "counts", "betti", "leads", "witnesses",
    ]
    assert all(r.passed for r in reports)


def test_run_suite_unknown():
    with pytest.raises(ValueError):
        run_suite("nope", LinkInstance(2, 3))


def test_postcondition_failure_becomes_fail_report(monkeypatch, tmp_path):
    import genlink.verify

    def broken(inst, diag, chain):
        raise AssertionError(f"square divisor escaped at diag={diag} chain={chain}")

    monkeypatch.setattr(genlink.verify, "square_divisor", broken)
    rep = verify_witnesses(LinkInstance(2, 3), VerifyBounds(square_colon_rmax=1))
    assert rep.status == "fail"
    assert rep.witnesses["error"].startswith("square divisor escaped at diag=")

    out = tmp_path / "report.json"
    assert main(["verify", "witnesses", "2", "3", "--rmax", "1", "--out", str(out)]) == 1
    (report,) = json.loads(out.read_text())["reports"]
    assert report["status"] == "fail"
    assert report["witnesses"]["error"] == rep.witnesses["error"]


def _masked(text):
    data = json.loads(text)
    for report in data["reports"]:
        report["elapsed_ms"] = 0
    return data


def _assert_same_under_optimization(tmp_path, argv):
    """``genlink argv`` under ``python -O`` writes the report that an
    in-process run writes, up to elapsed times."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    optimized = tmp_path / "optimized.json"
    subprocess.run(
        [sys.executable, "-O", "-m", "genlink", *argv, "--out", str(optimized)],
        check=True, env=env, capture_output=True,
    )
    plain = tmp_path / "plain.json"
    assert main([*argv, "--out", str(plain)]) == 0
    assert _masked(optimized.read_text()) == _masked(plain.read_text())


def test_suites_run_the_same_under_optimization(tmp_path):
    # the checks raise explicitly, so -O, which strips asserts, changes nothing
    _assert_same_under_optimization(
        tmp_path, ["verify", "all", "2", "4", "--Lmax", "2", "--rmax", "1"]
    )


def test_variable_fold_runs_the_same_under_optimization(tmp_path):
    # iniJ(2,5) takes the variable fold at level 2
    _assert_same_under_optimization(
        tmp_path, ["verify", "symbolic", "2", "5", "--Lmax", "2", "--rmax", "1"]
    )


def test_verify_symbolic_computes_no_prime(monkeypatch):
    calls = []
    original = ideals._minimal_covers

    def spy(edges):
        calls.append(edges)
        return original(edges)

    monkeypatch.setattr(ideals, "_minimal_covers", spy)
    assert main(["verify", "symbolic", "2", "5", "--Lmax", "3", "--rmax", "1"]) == 0
    # every suite; cor412 takes N^(2) and nu's place in it without a prime
    assert main(["verify", "all", "4", "7", "--Lmax", "2", "--rmax", "2"]) == 0
    assert calls == []


# Drops the last generator of every computed symbolic power, so that the
# same generator of the ordinary power lies outside it.
PLANT_A_GENERATOR = """
from genlink.ideals import MonomialIdeal, _from_vecs

computed = MonomialIdeal._variable_fold


def planted(self, cap):
    symbolic = computed(self, cap)
    return _from_vecs(symbolic.universe, symbolic.vecs[:-1])
"""


def test_generator_outside_the_symbolic_power_becomes_fail_report(monkeypatch, tmp_path):
    scope = {}
    exec(PLANT_A_GENERATOR, scope)
    monkeypatch.setattr(MonomialIdeal, "_variable_fold", scope["planted"])
    inst = LinkInstance(2, 4)
    W = inst.link_initial
    # W^(2) = W^2, so the dropped generator is the last of W^2, and no
    # other generator of the antichain W^2 divides it
    bad = W.power(2).gens[-1]
    message = f"ordinary power generator {bad} escaped symbolic power 2"
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        first_symbolic_gap(W, 2)
    rep = verify_symbolic_scan(inst, VerifyBounds(symbolic_upto=2, square_colon_rmax=1))
    assert (rep.status, rep.witnesses["error"]) == ("fail", message)

    # the same under python -O, which strips asserts
    argv = ["verify", "symbolic", "2", "4", "--Lmax", "2", "--rmax", "1"]
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    optimized = tmp_path / "optimized.json"
    script = PLANT_A_GENERATOR + (
        "MonomialIdeal._variable_fold = planted\n"
        "import sys\n"
        "from genlink.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-O", "-c", script, *argv, "--out", str(optimized)],
        env=env, capture_output=True,
    )
    plain = tmp_path / "plain.json"
    assert done.returncode == main([*argv, "--out", str(plain)]) == 1
    assert _masked(optimized.read_text()) == _masked(plain.read_text())
    (report,) = json.loads(optimized.read_text())["reports"]
    assert (report["status"], report["witnesses"]["error"]) == ("fail", message)


def plant_in_each_fold(monkeypatch, extra):
    """Make every computed symbolic power W^(k) carry one more generator,
    ``extra(K, W^(k))`` for the seed K, unreduced, as PLANT_A_GENERATOR
    drops one."""
    computed = MonomialIdeal._variable_fold

    def planted(self, cap):
        symbolic = computed(self, cap)
        return ideals._from_vecs(symbolic.universe, [*symbolic.vecs, extra(self, symbolic)])

    monkeypatch.setattr(MonomialIdeal, "_variable_fold", planted)


def test_a_non_minimal_symbolic_generator_changes_no_verdict(monkeypatch):
    # a multiple of the first generator: the tuples differ from those of
    # W^k, the ideals do not, so both inclusions are tested and hold
    plant_in_each_fold(monkeypatch, lambda K, symbolic: (symbolic.vecs[0][0] + 1, *symbolic.vecs[0][1:]))
    inst = LinkInstance(2, 4)
    assert first_symbolic_gap(inst.link_initial, 3) is None
    assert verify_symbolic_scan(inst, VerifyBounds(symbolic_upto=3, square_colon_rmax=1)).passed


def test_a_symbolic_generator_outside_the_ordinary_power_is_the_gap(monkeypatch):
    # the seed's first generator: at level 2 a generator of W, of degree 3,
    # while W^2 starts at degree 6
    plant_in_each_fold(monkeypatch, lambda K, symbolic: K.vecs[0])
    inst = LinkInstance(2, 4)
    W = inst.link_initial
    assert first_symbolic_gap(W, 3) == (2, W.vecs[0])
    rep = verify_symbolic_scan(inst, VerifyBounds(symbolic_upto=3, square_colon_rmax=1))
    assert (rep.status, rep.witnesses["gap_level"]) == ("fail", 2)
    assert rep.witnesses["gap_witness"] == str(W.gens[0])


def test_grid_script_writes_the_cli_report(tmp_path):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out_dir = tmp_path / "grid"
    subprocess.run(
        [sys.executable, str(root / "scripts" / "run_verification_grid.py"),
         "--max-m", "2", "--max-n", "3", "--out-dir", str(out_dir)],
        check=True, env=env, capture_output=True,
    )
    cli_out = tmp_path / "cli.json"
    # the script's bounds are the CLI's defaults
    assert main(["verify", "all", "2", "3", "--out", str(cli_out)]) == 0
    grid = _masked((out_dir / "verify_2_3.json").read_text())
    assert grid == _masked(cli_out.read_text())
    assert [r["status"] for r in grid["reports"]] == ["pass"] * 7
    assert sorted(p.name for p in out_dir.iterdir()) == [
        f"verify_{m}_{n}.json" for m, n in [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3)]
    ]


def test_grid_script_prints_the_header_of_an_empty_grid():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_verification_grid.py"), "--max-m", "0"],
        env=env, capture_output=True, text=True,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.split() == ["instance", *SUITES]
