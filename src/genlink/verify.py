"""Independent machine checks tying the closed-form link model to the
generic monomial-ideal algorithms.

Each check is a plain function ``(inst, bounds, seed) -> (ok, witnesses)``
declared once by :func:`_suite`, with its suite name, the report params it
reads from :class:`VerifyBounds`, whether its report records the seed and
whether the universe guard applies. The declared runner, in ``SUITES`` and
under the check's public name, is the one place where a suite is guarded,
timed and reported. The universe guard counts the variables, ``m*n + g``,
against ``MAX_UNIVERSE_VARS`` before any universe or ideal is built. Every
guard refuses through :func:`~genlink.ideals.check_cap`, whose
:class:`SizeGuardExceeded` carries the estimate and becomes a ``refused``
report; a failed postcondition (an :class:`AssertionError`) becomes a
``fail`` report with its message. Reports are deterministic given
(instance, seed, bounds), apart from ``elapsed_ms``.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from dataclasses import dataclass
from functools import reduce, wraps
from itertools import combinations, islice, permutations, product
from math import comb, factorial
from operator import and_, getitem
from typing import Callable, Iterable

from .ideals import (
    DEFAULT_CANDIDATE_CAP,
    SizeGuardExceeded,
    check_cap,
    first_symbolic_gap,
    is_antichain,
    products_covered,
    square_colon_scan,
)
from .linkage import (
    LinkInstance,
    Selector,
    antidiagonal_divisor,
    betti_table,
    chain_normal_form,
    leq,
    odd_part_reduction,
    resolution_ranks,
    square_divisor,
    staircase_power_conditions,
)
from .monomial import xvar, yvar
from .orders import _ascending_rank, _negated_y_rank


@dataclass(frozen=True)
class VerifyBounds:
    """The candidate cap and the scan bounds shared by the verification
    checks; the universe guard is ``MAX_UNIVERSE_VARS``."""

    candidate_cap: int = DEFAULT_CANDIDATE_CAP
    symbolic_upto: int = 3
    square_colon_rmax: int = 3
    witness_samples: int = 200

    def __post_init__(self) -> None:
        # below these a check checks nothing, or the cap refuses every input
        for name, least in (("candidate_cap", 1), ("symbolic_upto", 1),
                            ("square_colon_rmax", 0), ("witness_samples", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")


DEFAULT_BOUNDS = VerifyBounds()

# The witness suite enumerates its inputs when there are at most this many.
EXHAUSTIVE_CAP = 4000

# Every suite but leads refuses an instance whose universe has more
# variables than this, before it builds any ideal.
MAX_UNIVERSE_VARS = 40

# The leads suite refuses when it would compare more products than this.
MAX_LEAD_PRODUCTS = 500_000

PASS, FAIL, REFUSED = "pass", "fail", "refused"


@dataclass
class Report:
    check: str
    instance: tuple[int, int]
    params: dict
    status: str
    witnesses: dict
    seed: int | None
    elapsed_ms: int

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def to_dict(self) -> dict:
        m, n = self.instance
        return {
            "check": self.check,
            "instance": {"m": m, "n": n, "g": n - m + 1, "r": comb(n, m)},
            "params": self.params,
            "status": self.status,
            "witnesses": self.witnesses,
            "seed": self.seed,
            "elapsed_ms": self.elapsed_ms,
        }

    def summary(self) -> str:
        return f"{self.check} ({self.instance[0]},{self.instance[1]}): {self.status} [{self.elapsed_ms} ms]"


def reports_to_json(reports: Iterable[Report]) -> str:
    """The report file: the reports in a versioned envelope, canonical JSON."""
    doc = {"schema_version": 1, "reports": [r.to_dict() for r in reports]}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


Verdict = tuple[bool, dict]  # a check's (ok, witnesses)

SUITES: dict[str, Callable[[LinkInstance, VerifyBounds, int], Report]] = {}


def _suite(name: str, params: tuple[tuple[str, str], ...] = (), seeded: bool = False,
           guarded: bool = True):
    """Declare a check ``(inst, bounds, seed) -> (ok, witnesses)`` as the
    suite ``name``. The check's name is bound to its runner, which returns
    the :class:`Report`, and ``SUITES`` gains the runner in declaration order.

    ``params`` are the report's (key, ``VerifyBounds`` field) pairs; the
    report records the seed only when ``seeded``; the universe guard runs
    first unless ``guarded`` is false."""
    def declare(check: Callable[[LinkInstance, VerifyBounds, int], Verdict]):
        @wraps(check)
        def run(inst: LinkInstance, bounds: VerifyBounds = DEFAULT_BOUNDS, seed: int = 0) -> Report:
            t0 = time.perf_counter()
            try:
                if guarded:  # the universe's size, counted before it is built
                    check_cap(inst.m * inst.n + inst.g, MAX_UNIVERSE_VARS, "universe", "variables")
                ok, witnesses = check(inst, bounds, seed)
                status = PASS if ok else FAIL
            except SizeGuardExceeded as e:
                status, witnesses = REFUSED, {"reason": str(e), "estimate": e.estimate}
            except AssertionError as e:
                # a failed postcondition; its message names the offending input
                status, witnesses = FAIL, {"error": str(e)}
            elapsed = int((time.perf_counter() - t0) * 1000)
            return Report(name, (inst.m, inst.n), {key: getattr(bounds, field) for key, field in params},
                          status, witnesses, seed if seeded else None, elapsed)

        SUITES[name] = run
        return run

    return declare


# -- the checks -----------------------------------------------------------------


@_suite("colon")
def verify_colon_link(inst: LinkInstance, bounds: VerifyBounds, seed: int) -> Verdict:
    """The colon of the sequence lead ideal by the minors lead ideal must equal
    the closed-form link initial ideal, as sets of minimal generators.

    The equality is checked three ways so it does not lean on the reducer:
    the computed colon's generator set, membership of every claimed generator
    in the colon (by definition: it multiplies the minors ideal into the
    sequence ideal), and membership of every computed generator in the claim.
    """
    seq = inst.sequence_initial
    minors = inst.minors_initial
    claimed = inst.link_initial
    computed = seq.colon(minors, cap=bounds.candidate_cap)
    set_equal = set(computed.vecs) == set(claimed.vecs)
    claimed_in_colon = products_covered(claimed, minors, seq, bounds.candidate_cap)
    computed_in_claimed = all(claimed._divides_into(c) for c in computed.vecs)
    ok = set_equal and claimed_in_colon and computed_in_claimed
    return ok, {
        "computed_generators": len(computed.vecs),
        "claimed_generators": len(claimed.vecs),
        "set_equal": set_equal,
        "claimed_in_colon": claimed_in_colon,
        "computed_in_claimed": computed_in_claimed,
    }


@_suite("symbolic", params=(("upto", "symbolic_upto"), ("r_max", "square_colon_rmax")))
def verify_symbolic_scan(inst: LinkInstance, bounds: VerifyBounds, seed: int) -> Verdict:
    """Symbolic powers of the link initial ideal equal ordinary powers up to
    ``bounds.symbolic_upto``, and the square-bracket colon criterion holds
    for r <= ``bounds.square_colon_rmax``."""
    upto, r_max = bounds.symbolic_upto, bounds.square_colon_rmax
    W = inst.link_initial
    gap = first_symbolic_gap(W, upto, cap=bounds.candidate_cap)
    failed_r = square_colon_scan(W, r_max, cap=bounds.candidate_cap)
    ok = gap is None and failed_r is None
    witnesses: dict = {"upto": upto, "r_max": r_max}
    if gap is not None:
        witnesses["gap_level"] = gap[0]
        witnesses["gap_witness"] = str(W.universe.monomial(gap[1]))
    if failed_r is not None:
        witnesses["failed_r"] = failed_r
    return ok, witnesses


@_suite("cor412")
def resolve_staircase_powers(inst: LinkInstance, bounds: VerifyBounds, seed: int) -> Verdict:
    """Decide N^(2) = N^2 for the staircase ideal N by brute force and report
    which of the three candidate shape conditions the data supports.

    When m > 2 and n > m+1 the product-of-all-variables witness argument is
    exercised as well: nu lies in the second symbolic power, every product of
    two staircase generators repeats a column-3 variable, hence nu is not in
    the square; its verdict must agree with the brute force. The check fails
    only on internal inconsistency, not on inequality.
    """
    N = inst.staircase_ideal
    witnesses: dict = {}
    if N.is_unit():
        # Degenerate m = 1 or m = n: the staircase ideal is the unit ideal.
        witnesses["staircase_ideal_unit"] = True
        square, equal = N, True
    else:
        symbolic = N.symbolic_power(2, cap=bounds.candidate_cap)
        square = N.power(2, cap=bounds.candidate_cap)
        equal = symbolic == square
    conds = staircase_power_conditions(inst)
    witnesses["equal_at_2"] = equal
    witnesses["conditions"] = {
        "m<=2 or m<=n-1": conds.printed_corollary,
        "m<=2 or m<=n+1": conds.printed_example,
        "m<=2 or n<=m+1": conds.derived,
    }
    witnesses["supported_conditions"] = [
        text for text, predicted in witnesses["conditions"].items() if predicted == equal
    ]
    ok = True
    if inst.m > 2 and inst.n > inst.m + 1:
        # nu, the product of all variables, has degree |P| on each
        # minimal prime P, so it lies in N^(2) iff no prime is a single
        # variable, that is, iff no variable divides every generator
        nu_in_symbolic = not reduce(and_, N.masks)
        index = inst.universe.index
        column3 = sum(1 << index[xvar(i, 3)] for i in range(max(1, inst.m - 2), inst.m + 1))
        pairs_share_column3 = all(a & b & column3 for a in N.masks for b in N.masks)
        nu_in_square = square._divides_into((1,) * len(inst.universe))
        witnesses["nu_witness"] = {
            "nu_in_symbolic": nu_in_symbolic,
            "pairs_share_column3": pairs_share_column3,
            "nu_in_square": nu_in_square,
        }
        witness_says_unequal = nu_in_symbolic and pairs_share_column3 and not nu_in_square
        witnesses["nu_witness_says_unequal"] = witness_says_unequal
        ok = witness_says_unequal == (not equal)
    return ok, witnesses


@_suite("counts")
def verify_counts_and_degrees(inst: LinkInstance, bounds: VerifyBounds, seed: int) -> Verdict:
    """Generator counts, degrees, squarefreeness, and the antichain property
    of the link initial ideal; the staircase complements avoid the minors
    ideal. For m = n the two generator families collapse onto (Y[1,1])."""
    W = inst.link_initial
    m, n, g = inst.m, inst.n, inst.g
    witnesses: dict = {"generators": len(W.vecs)}
    checks = []
    checks.append(W.is_squarefree())
    checks.append(is_antichain(W))  # pairwise, not via the reducer
    checks.append(not any(
        map(inst.minors_initial._divides_into, inst._complement_vecs.values())
    ))
    if m < n:
        # for n = m+1 both families share the degree m+1, so accumulate
        expected: dict[int, int] = {m + 1: g}
        high = m * (n - m) + 1
        expected[high] = expected.get(high, 0) + comb(n - 1, m - 1)
        actual = Counter(W.degrees())
        checks.append(actual == expected)
        witnesses["degree_counts"] = {str(k): v for k, v in sorted(actual.items())}
    else:
        collapsed = W.vecs == (inst._indicator([inst._diag_y_position(1)]),)
        checks.append(collapsed)
        witnesses["degenerate_collapse"] = collapsed
    return all(checks), witnesses


@_suite("betti")
def verify_betti(inst: LinkInstance, bounds: VerifyBounds, seed: int) -> Verdict:
    """Betti table is integral, carries b_g = C(n-1, m-1), and its first
    column reproduces the generator degrees of the link initial ideal."""
    table = betti_table(inst)
    ranks = resolution_ranks(inst.m, inst.g)
    checks = []
    checks.append(ranks[inst.g] == comb(inst.n - 1, inst.m - 1))
    checks.append(table.degree_counts() == Counter(inst.link_initial.degrees()))
    witnesses: dict = {
        "entries": {f"{i},{j}": v for (i, j), v in sorted(table.entries.items())},
        "b_g": ranks[inst.g],
    }
    if (inst.m, inst.n) == (2, 4):
        golden = {(1, 3): 3, (1, 5): 3, (2, 6): 11, (3, 7): 6}
        checks.append(table.entries == golden)
        witnesses["golden_match"] = table.entries == golden
    return all(checks), witnesses


@_suite("leads", guarded=False)
def verify_lead_terms(inst: LinkInstance, bounds: VerifyBounds, seed: int) -> Verdict:
    """For each generic row j, the largest monomial Y[j,k] * (term of the k-th
    minor) under the diagonal-lex order is Y[j,j] * antidiagonal(j).

    The check guards its own work, not the universe: it counts every product,
    r * m! * g, an upper bound on the r * m! + g * r keys the scan compares
    (see :func:`_row_leads`).
    """
    check_cap(inst.r * factorial(inst.m) * inst.g, MAX_LEAD_PRODUCTS, "lead-term scan", "products")
    leads = _row_leads(inst)
    # Y[j,k] is in the universe only for k = j
    rows_ok = [
        k == j and inst._indicator((*term, inst._diag_y_position(j))) == inst._diag_vec(j)
        for j, (k, term) in enumerate(leads, start=1)
    ]
    return all(rows_ok), {"rows": len(rows_ok), "minors": inst.r}


def _row_leads(inst: LinkInstance) -> list[tuple[int, tuple[int, ...]]]:
    """For each row j, the largest Y[j,k] * t over the minors k and their
    terms t under the diagonal-lex order, as k and the grid positions of t.

    A term of the minor on ``cols`` takes x[i, perm[i-1]] from each row i,
    for a permutation ``perm`` of ``cols``. Each product is keyed by the
    tuple ``DiagLexOrder.key`` gives its monomial, built from a rank per
    cell, and no monomial is made. The order is multiplicative, so for
    every row the product is largest at the largest term of minor k: each
    minor is scanned once, then each row takes the largest of its r
    products. A winning term is returned as the grid positions of its cells
    in the universe."""
    m = inst.m
    # ranked[i-1][c]: the key's (rank, -exponent) pair for x[i, c]
    ranked = [
        [None, *((_ascending_rank(xvar(i, c)), -1) for c in range(1, inst.n + 1))]
        for i in range(1, m + 1)
    ]

    def x_key(perm: tuple[int, ...]) -> tuple:  # the x part: degree, then pairs by rank
        return (m, tuple(sorted(map(getitem, ranked, perm))))

    minor_leads = [max(permutations(cols), key=x_key) for cols in inst.column_sets]
    x_keys = list(map(x_key, minor_leads))
    leads = []
    for j in range(1, inst.g + 1):
        # the key of Y[j,k] * (lead of minor k)
        k = max(
            range(1, inst.r + 1),
            key=lambda k: (((_negated_y_rank(yvar(j, k)), 1),), x_keys[k - 1]),
        )
        leads.append((k, tuple(inst._cell_positions(enumerate(minor_leads[k - 1], start=1)))))
    return leads


@_suite("witnesses", params=(("r_max", "square_colon_rmax"), ("samples", "witness_samples")),
        seeded=True)
def verify_witnesses(inst: LinkInstance, bounds: VerifyBounds, seed: int) -> Verdict:
    """Run the divisor-witness constructions and assert their postconditions.

    Antidiagonal divisors run over (column set, selector) pairs and square
    divisors over (diag indices, chain) pairs, each picked by
    :func:`_every_or_drawn`: all of them up to ``EXHAUSTIVE_CAP``, else
    ``bounds.witness_samples`` seeded draws (a drawn chain sorts uniform
    selector samples through the straightening normal form). Odd-part
    reductions run on seeded samples. Chains have up to
    ``2 * bounds.square_colon_rmax + 1`` factors. Each witness certifies its
    power membership from the generator factors it keeps, so the suite
    builds no link power and ``bounds.candidate_cap`` does not bound it.
    """
    r_max, samples = bounds.square_colon_rmax, bounds.witness_samples
    rng = random.Random(seed)
    pairs = _every_or_drawn(
        product(inst.column_sets, inst.selectors),
        lambda: (inst.column_sets[rng.randrange(inst.r)],
                 inst.selectors[rng.randrange(len(inst.selectors))]),
        samples, EXHAUSTIVE_CAP,
    )
    for cols, A in pairs:
        antidiagonal_divisor(inst, cols, A)
    square_inputs = _square_inputs(inst, r_max, rng, samples, EXHAUSTIVE_CAP)
    for diag, chain in square_inputs:
        square_divisor(inst, diag, chain)
    odd_inputs = _odd_part_inputs(inst, r_max, rng, samples)
    for diag_mult, sel_mult in odd_inputs:
        odd_part_reduction(inst, diag_mult, sel_mult)
    return True, {"antidiagonal": len(pairs), "square": len(square_inputs), "odd_part": len(odd_inputs)}


def _every_or_drawn(every: Iterable, draw: Callable[[], object], samples: int, cap: int) -> list:
    """Every input when there are at most ``cap``, else ``samples`` draws."""
    inputs = list(islice(every, cap + 1))
    return inputs if len(inputs) <= cap else [draw() for _ in range(samples)]


def _multichains(elements: tuple[Selector, ...], length: int) -> Iterable[tuple[Selector, ...]]:
    """All sorted chains of the given length from a selector lattice; each
    selector's successors, the B with A <= B, are found once per call."""
    ordered = sorted(elements)
    successors = {A: [B for B in ordered if leq(A, B)] for A in ordered}

    def rec(prefix: tuple[Selector, ...], after: list[Selector]) -> Iterable[tuple[Selector, ...]]:
        if len(prefix) == length:
            yield prefix
            return
        for e in after:
            yield from rec(prefix + (e,), successors[e])

    yield from rec((), ordered)


def _square_inputs(inst, r_max, rng, samples, exhaustive_cap):
    """(diag indices, chain) pairs with an odd total, exhaustive or sampled."""
    def draw():
        total = 2 * rng.randrange(r_max + 1) + 1
        a = rng.randrange(min(total, inst.g) + 1)
        diag = tuple(sorted(rng.sample(range(1, inst.g + 1), a)))
        chosen = [inst.selectors[rng.randrange(len(inst.selectors))] for _ in range(total - a)]
        return diag, chain_normal_form(chosen) if chosen else ()

    every_input = (
        (diag, chain)
        for r in range(r_max + 1)
        for a in range(min(2 * r + 1, inst.g) + 1)
        for diag in combinations(range(1, inst.g + 1), a)
        for chain in _multichains(inst.selectors, 2 * r + 1 - a)
    )
    return _every_or_drawn(every_input, draw, samples, exhaustive_cap)


def _odd_part_inputs(inst, r_max, rng, samples):
    """Generator multisets with odd total multiplicity."""
    picks = []
    n_sel = len(inst.selectors)
    for _ in range(samples):
        total = 2 * rng.randrange(r_max + 1) + 1
        diag_mult: dict[int, int] = {}
        sel_mult: dict[Selector, int] = {}
        for _ in range(total):
            if rng.random() < 0.5 or n_sel == 0:
                k = rng.randrange(1, inst.g + 1)
                diag_mult[k] = diag_mult.get(k, 0) + 1
            else:
                A = inst.selectors[rng.randrange(n_sel)]
                sel_mult[A] = sel_mult.get(A, 0) + 1
        picks.append((diag_mult, sel_mult))
    return picks


def run_suite(
    suite: str, inst: LinkInstance, bounds: VerifyBounds = DEFAULT_BOUNDS, seed: int = 0
) -> list[Report]:
    """Run one named suite, or all of them, returning the reports; ``seed``
    drives the sampled inputs of the witness suite."""
    if suite == "all":
        return [SUITES[name](inst, bounds, seed) for name in SUITES]
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)} or 'all'")
    return [SUITES[suite](inst, bounds, seed)]
