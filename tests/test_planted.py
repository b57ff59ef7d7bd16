"""Planted defects: every suite must report ``fail`` on the defect it rules out.

Each test plants one defect in a closed form (a ``LinkInstance`` ideal or
generator vector, or a helper the suite reads), at instances beyond the
golden (2,4), and asserts that the report is ``fail``: a ``pass`` would
certify the defect, and a ``refused`` would skip the check.
"""

from collections import Counter
from functools import cached_property

import pytest

from genlink import LinkInstance, Monomial, verify
from genlink.ideals import ideal, products_covered
from genlink.linkage import BettiTable, betti_table
from genlink.monomial import xvar
from genlink.verify import (
    verify_betti,
    verify_colon_link,
    verify_counts_and_degrees,
    verify_lead_terms,
    verify_symbolic_scan,
    verify_witnesses,
)

INSTANCES = [(2, 6), (3, 5), (4, 7)]


def plant(monkeypatch, name, change):
    """Replace the cached closed form ``LinkInstance.<name>`` by
    ``change(inst, true value)`` for every instance made from now on."""
    true = getattr(LinkInstance, name).func
    planted = cached_property(lambda inst: change(inst, true(inst)))
    planted.__set_name__(LinkInstance, name)
    monkeypatch.setattr(LinkInstance, name, planted)


def assert_fails(suite, m, n):
    rep = suite(LinkInstance(m, n))
    assert rep.status == "fail", rep
    return rep.witnesses


@pytest.mark.parametrize("m, n", INSTANCES)
def test_colon_fails_a_dropped_generator(monkeypatch, m, n):
    plant(monkeypatch, "link_initial", lambda inst, W: ideal(inst.universe, W.gens[1:]))
    witnesses = assert_fails(verify_colon_link, m, n)
    assert not witnesses["set_equal"] and not witnesses["computed_in_claimed"]


@pytest.mark.parametrize("m, n", INSTANCES)
def test_colon_fails_a_monomial_outside_the_colon(monkeypatch, m, n):
    inst = LinkInstance(m, n)
    x11 = Monomial.of(xvar(1, 1))
    # x[1,1] does not multiply iniI into iniA
    assert not products_covered(ideal(inst.universe, [x11]), inst.minors_initial,
                                inst.sequence_initial, cap=10**6)
    plant(monkeypatch, "link_initial", lambda inst, W: ideal(inst.universe, [*W.gens, x11]))
    witnesses = assert_fails(verify_colon_link, m, n)
    assert not witnesses["set_equal"] and not witnesses["claimed_in_colon"]


def _cycle(inst, length):
    """The edge ideal of the cycle on the first ``length`` variables."""
    v = inst.universe.variables
    return ideal(inst.universe, [Monomial.of(v[i], v[(i + 1) % length]) for i in range(length)])


@pytest.mark.parametrize("m, n", INSTANCES)
@pytest.mark.parametrize("length, gap_level, failed_r", [(3, 2, 1), (5, 3, 2)])
def test_symbolic_fails_an_odd_cycle(monkeypatch, m, n, length, gap_level, failed_r):
    # the odd cycle on 2k+1 vertices first has W^(k+1) != W^(k+1): the
    # triangle's x1*x2*x3 lies in W^(2) but not in W^2, the 5-cycle's
    # x1*...*x5 in W^(3) but not in W^3
    plant(monkeypatch, "link_initial", lambda inst, W: _cycle(inst, length))
    witnesses = assert_fails(verify_symbolic_scan, m, n)
    product = "*".join(f"x[1,{j}]" for j in range(1, length + 1))
    assert (witnesses["gap_level"], witnesses["gap_witness"]) == (gap_level, product)
    assert witnesses["failed_r"] == failed_r


@pytest.mark.parametrize("m, n", INSTANCES)
def test_counts_fails_a_shifted_degree(monkeypatch, m, n):
    def shift(inst, W):
        # the last generator, of degree m(n-m)+1, times the first variable it lacks
        vec = W.vecs[-1]
        k = vec.index(0)
        shifted = inst.universe.monomial((*vec[:k], 1, *vec[k + 1:]))
        return ideal(inst.universe, [*W.gens[:-1], shifted])

    plant(monkeypatch, "link_initial", shift)
    witnesses = assert_fails(verify_counts_and_degrees, m, n)
    high = m * (n - m) + 1
    assert witnesses["degree_counts"][str(high + 1)] == 1


@pytest.mark.parametrize("m, n", INSTANCES)
def test_witnesses_fail_a_broken_factor(monkeypatch, m, n):
    # the first diagonal generator loses its Y[1,1]: antidiagonal(1) alone
    # is no generator of iniJ, so a witness built on it must not certify
    true = LinkInstance._diag_vec
    monkeypatch.setattr(LinkInstance, "_diag_vec",
                        lambda inst, j: inst._window_vecs[0] if j == 1 else true(inst, j))
    witnesses = assert_fails(verify_witnesses, m, n)
    assert witnesses["error"].startswith("delta not in the (r+1)-st power")


@pytest.mark.parametrize("m, n", INSTANCES)
def test_leads_fail_a_wrong_row_lead(monkeypatch, m, n):
    true = verify._row_leads

    def wrong(inst):
        # row 1 keeps its minor but takes row 2's term
        leads = true(inst)
        leads[0] = (leads[0][0], leads[1][1])
        return leads

    monkeypatch.setattr(verify, "_row_leads", wrong)
    assert_fails(verify_lead_terms, m, n)


@pytest.mark.parametrize("m, n, corner", [(3, 5, (3, 9)), (4, 7, (4, 16))])
def test_betti_fails_a_shifted_entry(monkeypatch, m, n, corner):
    # 1 added to the top-corner entry breaks the Herzog–Kühl sums: to
    # (-1, -9, -81) at (3,5) and (1, 16, 256, 4096) at (4,7)
    def planted(inst):
        table = betti_table(inst)
        entries = Counter(table.entries)
        entries[corner] += 1
        return BettiTable(dict(entries), table.d, table.g)

    assert corner in betti_table(LinkInstance(m, n)).entries
    monkeypatch.setattr(verify, "betti_table", planted)
    assert_fails(verify_betti, m, n)
