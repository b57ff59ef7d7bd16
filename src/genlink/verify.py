"""Independent machine checks tying the closed-form link model to the
generic monomial-ideal algorithms.

Every check produces a :class:`Report` with a pass/fail/refused status and
machine-readable witnesses; refusals come from explicit size guards (maximum
universe size and a cap on intermediate generator candidates) that fail fast
with an estimate instead of letting intersections blow up; a failed
postcondition (an :class:`AssertionError`) becomes a ``fail`` report with
its message. Reports are deterministic given (instance, seed, bounds).
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, islice, permutations
from math import comb, factorial
from operator import and_, getitem
from typing import Callable, Iterable

from .ideals import (
    DEFAULT_CANDIDATE_CAP,
    SizeGuardExceeded,
    _is_antichain,
    _products_covered,
    first_symbolic_gap,
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


def _run(check: str, inst: LinkInstance, params: dict, seed: int | None,
         body: Callable[[], tuple[bool, dict]]) -> Report:
    t0 = time.perf_counter()
    try:
        ok, witnesses = body()
        status = PASS if ok else FAIL
    except SizeGuardExceeded as e:
        status, witnesses = REFUSED, {"reason": str(e), "estimate": e.estimate}
    except AssertionError as e:
        # a failed postcondition; its message names the offending input
        status, witnesses = FAIL, {"error": str(e)}
    elapsed = int((time.perf_counter() - t0) * 1000)
    return Report(check, (inst.m, inst.n), params, status, witnesses, seed, elapsed)


def _guard_universe(inst: LinkInstance) -> None:
    size = len(inst.universe)
    if size > MAX_UNIVERSE_VARS:
        raise SizeGuardExceeded(
            f"universe has {size} variables (guard {MAX_UNIVERSE_VARS})", size
        )


# -- the checks -----------------------------------------------------------------


def verify_colon_link(inst: LinkInstance, bounds: VerifyBounds = DEFAULT_BOUNDS) -> Report:
    """The colon of the sequence lead ideal by the minors lead ideal must equal
    the closed-form link initial ideal, as sets of minimal generators.

    The equality is checked three ways so it does not lean on the reducer:
    the computed colon's generator set, membership of every claimed generator
    in the colon (by definition: it multiplies the minors ideal into the
    sequence ideal), and membership of every computed generator in the claim.
    """
    def body():
        _guard_universe(inst)
        seq = inst.sequence_initial
        minors = inst.minors_initial
        claimed = inst.link_initial
        computed = seq.colon(minors, cap=bounds.candidate_cap)
        set_equal = set(computed.vecs) == set(claimed.vecs)
        claimed_in_colon = _products_covered(claimed, minors, seq)
        computed_in_claimed = all(claimed._divides_into(c) for c in computed.vecs)
        ok = set_equal and claimed_in_colon and computed_in_claimed
        return ok, {
            "computed_generators": len(computed.vecs),
            "claimed_generators": len(claimed.vecs),
            "set_equal": set_equal,
            "claimed_in_colon": claimed_in_colon,
            "computed_in_claimed": computed_in_claimed,
        }

    return _run("colon", inst, {}, None, body)


def verify_symbolic_scan(inst: LinkInstance, bounds: VerifyBounds = DEFAULT_BOUNDS) -> Report:
    """Symbolic powers of the link initial ideal equal ordinary powers up to
    ``bounds.symbolic_upto``, and the square-bracket colon criterion holds
    for r <= ``bounds.square_colon_rmax``."""
    upto, r_max = bounds.symbolic_upto, bounds.square_colon_rmax

    def body():
        _guard_universe(inst)
        W = inst.link_initial
        gap = first_symbolic_gap(W, upto, cap=bounds.candidate_cap)
        failed_r = square_colon_scan(W, r_max, cap=bounds.candidate_cap)
        ok = gap is None and failed_r is None
        witnesses: dict = {"upto": upto, "r_max": r_max}
        if gap is not None:
            witnesses["gap_level"] = gap[0]
            witnesses["gap_witness"] = str(gap[1])
        if failed_r is not None:
            witnesses["failed_r"] = failed_r
        return ok, witnesses

    return _run("symbolic", inst, {"upto": upto, "r_max": r_max}, None, body)


def resolve_staircase_powers(
    inst: LinkInstance, bounds: VerifyBounds = DEFAULT_BOUNDS
) -> Report:
    """Decide N^(2) = N^2 for the staircase ideal N by brute force and report
    which of the three candidate shape conditions the data supports.

    When m > 2 and n > m+1 the product-of-all-variables witness argument is
    exercised as well: nu lies in the second symbolic power, every product of
    two staircase generators repeats a column-3 variable, hence nu is not in
    the square; its verdict must agree with the brute force. The check fails
    only on internal inconsistency, not on inequality.
    """
    def body():
        _guard_universe(inst)
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

    return _run("cor412", inst, {}, None, body)


def verify_counts_and_degrees(inst: LinkInstance, bounds: VerifyBounds = DEFAULT_BOUNDS) -> Report:
    """Generator counts, degrees, squarefreeness, and the antichain property
    of the link initial ideal; the staircase complements avoid the minors
    ideal. For m = n the two generator families collapse onto (Y[1,1])."""
    def body():
        _guard_universe(inst)
        W = inst.link_initial
        m, n, g = inst.m, inst.n, inst.g
        witnesses: dict = {"generators": len(W.vecs)}
        checks = []
        checks.append(W.is_squarefree())
        checks.append(_is_antichain(W))  # pairwise, not via the reducer
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

    return _run("counts", inst, {}, None, body)


def verify_betti(inst: LinkInstance, bounds: VerifyBounds = DEFAULT_BOUNDS) -> Report:
    """Betti table is integral, carries b_g = C(n-1, m-1), and its first
    column reproduces the generator degrees of the link initial ideal."""
    def body():
        _guard_universe(inst)
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

    return _run("betti", inst, {}, None, body)


def verify_lead_terms(inst: LinkInstance, bounds: VerifyBounds = DEFAULT_BOUNDS) -> Report:
    """For each generic row j, the largest monomial Y[j,k] * (term of the k-th
    minor) under the diagonal-lex order is Y[j,j] * antidiagonal(j).

    The guard counts every product, r * m! * g; the scan itself compares
    r * m! + g * r keys (see :func:`_row_leads`), so the guard is an upper
    bound on it.
    """
    def body():
        work = inst.r * factorial(inst.m) * inst.g
        if work > 500_000:
            raise SizeGuardExceeded(f"lead-term scan would compare {work} monomials", work)
        leads = _row_leads(inst)
        # Y[j,k] is in the universe only for k = j
        rows_ok = [
            k == j and inst._indicator((*term, inst._diag_y_position(j))) == inst._diag_vec(j)
            for j, (k, term) in enumerate(leads, start=1)
        ]
        return all(rows_ok), {"rows": len(rows_ok), "minors": inst.r}

    return _run("leads", inst, {}, None, body)


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


def verify_witnesses(
    inst: LinkInstance, bounds: VerifyBounds = DEFAULT_BOUNDS, seed: int = 0
) -> Report:
    """Run the divisor-witness constructions and assert their postconditions.

    Antidiagonal divisors run exhaustively over (column set, selector) pairs
    when that grid is small, sampled otherwise. Square divisors and odd-part
    reductions run on exhaustively enumerated inputs for small instances and
    on seeded samples otherwise; chains are produced by sorting uniform
    selector samples through the straightening normal form. Chains have
    up to ``2 * bounds.square_colon_rmax + 1`` factors; a sampled input set
    has ``bounds.witness_samples`` members.
    """
    r_max, samples = bounds.square_colon_rmax, bounds.witness_samples

    def body():
        _guard_universe(inst)
        rng = random.Random(seed)
        counts = {"antidiagonal": 0, "square": 0, "odd_part": 0}

        pairs = inst.r * len(inst.selectors)
        if pairs <= EXHAUSTIVE_CAP:
            for cols in inst.column_sets:
                for A in inst.selectors:
                    antidiagonal_divisor(inst, cols, A)
                    counts["antidiagonal"] += 1
        else:
            for _ in range(samples):
                cols = inst.column_sets[rng.randrange(inst.r)]
                A = inst.selectors[rng.randrange(len(inst.selectors))]
                antidiagonal_divisor(inst, cols, A)
                counts["antidiagonal"] += 1

        square_inputs = _square_inputs(inst, r_max, rng, samples, EXHAUSTIVE_CAP)
        for diag, chain in square_inputs:
            square_divisor(inst, diag, chain)
            counts["square"] += 1

        for diag_mult, sel_mult in _odd_part_inputs(inst, r_max, rng, samples):
            odd_part_reduction(inst, diag_mult, sel_mult)
            counts["odd_part"] += 1

        return True, counts

    return _run("witnesses", inst, {"r_max": r_max, "samples": samples}, seed, body)


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
    every_input = (
        (diag, chain)
        for r in range(r_max + 1)
        for a in range(min(2 * r + 1, inst.g) + 1)
        for diag in combinations(range(1, inst.g + 1), a)
        for chain in _multichains(inst.selectors, 2 * r + 1 - a)
    )
    exhaustive = list(islice(every_input, exhaustive_cap + 1))
    if len(exhaustive) <= exhaustive_cap:
        return exhaustive
    picks = []
    for _ in range(samples):
        r = rng.randrange(r_max + 1)
        total = 2 * r + 1
        a = rng.randrange(min(total, inst.g) + 1)
        diag = tuple(sorted(rng.sample(range(1, inst.g + 1), a)))
        chosen = [inst.selectors[rng.randrange(len(inst.selectors))] for _ in range(total - a)]
        chain = chain_normal_form(chosen) if chosen else ()
        picks.append((diag, chain))
    return picks


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


SUITES: dict[str, Callable[[LinkInstance, VerifyBounds, int], Report]] = {
    "colon": lambda inst, bounds, seed: verify_colon_link(inst, bounds),
    "symbolic": lambda inst, bounds, seed: verify_symbolic_scan(inst, bounds),
    "cor412": lambda inst, bounds, seed: resolve_staircase_powers(inst, bounds),
    "counts": lambda inst, bounds, seed: verify_counts_and_degrees(inst, bounds),
    "betti": lambda inst, bounds, seed: verify_betti(inst, bounds),
    "leads": lambda inst, bounds, seed: verify_lead_terms(inst, bounds),
    "witnesses": verify_witnesses,
}


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
