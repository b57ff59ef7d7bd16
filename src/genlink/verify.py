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
from itertools import chain, combinations, permutations, product
from math import comb
from operator import and_
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
from .orders import _negated_y_rank, diaglex_vector_key


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

# The witness suite refuses when its draws, ``samples`` of up to
# ``2 * r_max + 1`` generators each, could hold more summands than this.
MAX_WITNESS_SUMMANDS = 500_000

# The largest integer a JSON reader that parses numbers as doubles holds
# exactly; a report writes a larger r = C(n, m) as its decimal string.
MAX_JSON_INT = 2**53 - 1

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
        r = comb(n, m)
        return {
            "check": self.check,
            "instance": {"m": m, "n": n, "g": n - m + 1, "r": r if r <= MAX_JSON_INT else str(r)},
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
    The claimed generators' test runs first, so its product guard refuses
    before the colon is built.
    """
    seq = inst.sequence_initial
    minors = inst.minors_initial
    claimed = inst.link_initial
    claimed_in_colon = products_covered(claimed, minors, seq, bounds.candidate_cap)
    computed = seq.colon(minors, cap=bounds.candidate_cap)
    set_equal = set(computed.vecs) == set(claimed.vecs)
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
    witnesses["equal_at_2"] = equal
    witnesses["conditions"] = staircase_power_conditions(inst)
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
    """Betti table is integral, carries b_g = C(n-1, m-1), its first column
    reproduces the generator degrees of the link initial ideal, and it meets
    the equations of Herzog and Kühl ("On the Betti numbers of finite pure
    and linear resolutions", Comm. Algebra, 1984): J, linked to I, has height
    g, so (1 - t)^g divides the Hilbert numerator sum (-1)^i beta_ij t^j of
    R/J, and sum_{i,j} (-1)^i beta_ij j^k = 0 for 0 <= k < g, beta_00 = 1."""
    table = betti_table(inst)
    ranks = resolution_ranks(inst.m, inst.g)
    checks = []
    checks.append(ranks[inst.g] == comb(inst.n - 1, inst.m - 1))
    checks.append(table.degree_counts() == Counter(inst.link_initial.degrees()))
    entries = [((0, 0), 1), *table.entries.items()]
    checks += [sum((-1) ** i * v * j**k for (i, j), v in entries) == 0 for k in range(inst.g)]
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
    r * m! * g, an upper bound on the g * (r + m!) keys the scan compares
    (see :func:`_row_leads`), as a running product, refused at the first
    partial product past the cap: a lower bound, so a small estimate.
    """
    m, n, count = inst.m, inst.n, 1
    binomial = ((n - k + 1, k) for k in range(1, min(m, n - m) + 1))  # C(n, k) after k
    for num, den in chain(binomial, [(inst.g, 1)], ((k, 1) for k in range(2, m + 1))):
        count = count * num // den
        check_cap(count, MAX_LEAD_PRODUCTS, "lead-term scan", "products")
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

    The order compares Y parts first, and each term of the row's sum_k
    Y[j,k] * (minor k) holds exactly one Y variable, so the lead is Y[j,k] *
    (lead of minor k) for the highest-ranked Y[j,k]: only that minor's m!
    terms, x[i, perm[i-1]] for the permutations ``perm`` of its columns, are
    keyed, by :func:`~genlink.orders.diaglex_vector_key` on their vectors."""
    key = diaglex_vector_key(inst.universe.variables)
    leads = []
    for j in range(1, inst.g + 1):
        k = max(range(1, inst.r + 1), key=lambda k: _negated_y_rank(yvar(j, k)))
        terms = (tuple(inst._cell_positions(enumerate(perm, start=1)))
                 for perm in permutations(inst.column_sets[k - 1]))
        leads.append((k, max(terms, key=lambda term: key(inst._indicator(term)))))
    return leads


@_suite("witnesses", params=(("r_max", "square_colon_rmax"), ("samples", "witness_samples")),
        seeded=True)
def verify_witnesses(inst: LinkInstance, bounds: VerifyBounds, seed: int) -> Verdict:
    """Run the divisor-witness constructions and assert their postconditions.

    Antidiagonal divisors run over (column set, selector) pairs, and square
    divisors over (diag indices, chain) pairs. Each kind is counted before
    any input is listed, the pairs as ``r * |selectors|`` and the square
    inputs level by level in :func:`_square_inputs`: all of them up to
    ``EXHAUSTIVE_CAP``, else ``bounds.witness_samples`` seeded draws (a
    drawn chain sorts uniform selector samples through the straightening
    normal form). Odd-part reductions run on seeded samples. Chains have
    up to ``2 * bounds.square_colon_rmax + 1`` factors. Each witness
    certifies its power membership from the generator factors it keeps, so
    the suite builds no link power and ``bounds.candidate_cap`` does not
    bound it.
    Every input is picked before any witness is built: first
    ``samples * (2 * r_max + 1)`` is checked against
    ``MAX_WITNESS_SUMMANDS``, and the summands of the square divisors'
    exhaustive listing are counted against it before they are listed.
    """
    r_max, samples = bounds.square_colon_rmax, bounds.witness_samples
    check_cap(samples * (2 * r_max + 1), MAX_WITNESS_SUMMANDS, "witness draws", "summands")
    rng = random.Random(seed)
    if inst.r * len(inst.selectors) <= EXHAUSTIVE_CAP:
        pairs = list(product(inst.column_sets, inst.selectors))
    else:
        pairs = [(inst.column_sets[rng.randrange(inst.r)],
                  inst.selectors[rng.randrange(len(inst.selectors))]) for _ in range(samples)]
    square_inputs = _square_inputs(inst, r_max, rng, samples, EXHAUSTIVE_CAP)
    odd_inputs = _odd_part_inputs(inst, r_max, rng, samples)
    for cols, A in pairs:
        antidiagonal_divisor(inst, cols, A)
    for diag, chain in square_inputs:
        square_divisor(inst, diag, chain)
    for diag_mult, sel_mult in odd_inputs:
        odd_part_reduction(inst, diag_mult, sel_mult)
    return True, {"antidiagonal": len(pairs), "square": len(square_inputs), "odd_part": len(odd_inputs)}


def _square_inputs(inst, r_max, rng, samples, exhaustive_cap):
    """(diag indices, chain) pairs with an odd total of at most
    ``2 * r_max + 1`` factors: every one when there are at most
    ``exhaustive_cap``, refused before they are listed if they hold more
    than ``MAX_WITNESS_SUMMANDS`` summands, else ``samples`` draws.

    One order relation drives the count and the listing: ``above[q]`` holds
    the positions of the selectors at or above the q-th, in sorted order.
    The count goes level by level and lists nothing: ``ends[q]`` counts the
    chains of the current length that end at the q-th selector, and a chain
    one longer ends at a selector above its last one. Each level has an
    input, so the count stops after at most ``exhaustive_cap + 1`` levels.
    The chains of each length extend those one shorter by the selectors
    above their last one, which keeps them in lexicographic order."""
    def draw():
        total = 2 * rng.randrange(r_max + 1) + 1
        a = rng.randrange(min(total, inst.g) + 1)
        diag = tuple(sorted(rng.sample(range(1, inst.g + 1), a)))
        chosen = [inst.selectors[rng.randrange(len(inst.selectors))] for _ in range(total - a)]
        return diag, chain_normal_form(chosen) if chosen else ()

    ordered = sorted(inst.selectors)
    above = [[p for p, B in enumerate(ordered) if leq(A, B)] for A in ordered]
    ends = [1] * len(ordered)
    counts = [1, len(ordered)]  # multichains of length 0 and 1
    inputs = summands = 0
    for r in range(r_max + 1):
        while len(counts) < 2 * r + 2:
            pushed = [0] * len(ordered)
            for q, count in enumerate(ends):
                for p in above[q]:
                    pushed[p] += count
            ends = pushed
            counts.append(sum(ends))
        level = sum(
            comb(inst.g, a) * counts[2 * r + 1 - a] for a in range(min(2 * r + 1, inst.g) + 1)
        )
        inputs, summands = inputs + level, summands + level * (2 * r + 1)
        if inputs > exhaustive_cap:
            return [draw() for _ in range(samples)]
    check_cap(summands, MAX_WITNESS_SUMMANDS, "witness listing", "summands")
    # chains[k]: the chains of length k, each with the positions that extend it
    chains = [[((), range(len(ordered)))]]
    while len(chains) < len(counts):
        chains.append([((*c, ordered[p]), above[p]) for c, ps in chains[-1] for p in ps])
    return [
        (diag, c)
        for r in range(r_max + 1)
        for a in range(min(2 * r + 1, inst.g) + 1)
        for diag in combinations(range(1, inst.g + 1), a)
        for c, _ in chains[2 * r + 1 - a]
    ]


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
