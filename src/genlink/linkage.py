"""The combinatorial model of the generic link of maximal minors.

For an m-by-n grid of variables (m <= n) let g = n-m+1 and r = C(n,m).  The
lead terms of the m-minors of the grid, under the bottom-up reverse
lexicographic order, are the antidiagonals; the generic link of the minors
ideal is cut out by g generic row combinations, and at the lead-term level
everything becomes squarefree monomial combinatorics on the diagonal band

    band = {(i,j) : m-i < j <= n-i+1}

of the grid.  A staircase selector is a set A = {a_1 < ... < a_{m-1}} inside
{2,...,n}; with sentinels a_0 = 1 and a_m = n+1 it selects the staircase
region D(A) = {(i,j) in band : a_{m-i} <= j < a_{m-i+1}} and the complement
monomial beta(A) = product of the band variables outside D(A).

This module builds those objects, the three initial ideals of interest (of
the minors, of the generic regular sequence, and of the link), the staircase
ideal generated by the beta(A), the lattice operations and straightening of
selectors, the closed-form graded Betti table of the link quotient, and the
explicit divisor witnesses used to certify, power by power, that symbolic
and ordinary powers of the link's initial ideal agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, permutations
from math import comb, prod
from typing import Mapping, Sequence

from .ideals import MonomialIdeal, ideal
from .monomial import Monomial, Universe, xvar, yvar

Cell = tuple[int, int]
Selector = tuple[int, ...]


@dataclass(frozen=True)
class LinkInstance:
    """All derived structures of one m-by-n grid, m <= n.

    Ideals live over the working universe consisting of the full x grid plus
    the g diagonal Y variables, the only Y variables that can appear in any
    generator here.  The Y grid bounds are still declared as g-by-r so that
    off-diagonal Y variables parse and compare correctly.
    """

    m: int
    n: int

    def __post_init__(self) -> None:
        if not (1 <= self.m <= self.n):
            raise ValueError(f"need 1 <= m <= n, got ({self.m}, {self.n})")

    @property
    def g(self) -> int:
        return self.n - self.m + 1

    @property
    def r(self) -> int:
        return comb(self.n, self.m)

    @cached_property
    def universe(self) -> Universe:
        vs = tuple(xvar(i, j) for i in range(1, self.m + 1) for j in range(1, self.n + 1))
        vs += tuple(yvar(j, j) for j in range(1, self.g + 1))
        return Universe(self.m, self.n, self.g, self.r, vs)

    # -- the band and its staircases ---------------------------------------

    @cached_property
    def band(self) -> frozenset[Cell]:
        return frozenset(
            (i, j)
            for i in range(1, self.m + 1)
            for j in range(1, self.n + 1)
            if self.m - i < j <= self.n - i + 1
        )

    @cached_property
    def selectors(self) -> tuple[Selector, ...]:
        """All staircase selectors, i.e. (m-1)-subsets of {2,...,n}, sorted."""
        return tuple(combinations(range(2, self.n + 1), self.m - 1))

    @cached_property
    def _selector_set(self) -> frozenset[Selector]:
        return frozenset(self.selectors)

    def check_selector(self, A: Selector) -> None:
        if A not in self._selector_set:
            raise ValueError(f"not a staircase selector for ({self.m},{self.n}): {A}")

    def sentinels(self, A: Selector) -> tuple[int, ...]:
        """a_0 = 1, the selector, a_m = n+1."""
        return (1, *A, self.n + 1)

    def staircase(self, A: Selector) -> frozenset[Cell]:
        self.check_selector(A)
        a = self.sentinels(A)
        return frozenset(
            (i, j) for (i, j) in self.band
            if a[self.m - i] <= j < a[self.m - i + 1]
        )

    def complement_monomial(self, A: Selector) -> Monomial:
        """Product of the band variables outside the staircase of A."""
        self.check_selector(A)
        return self._complements[A]

    @cached_property
    def _complements(self) -> dict[Selector, Monomial]:
        return {
            A: Monomial.of(*(xvar(i, j) for i, j in self.band - self.staircase(A)))
            for A in self.selectors
        }

    def antidiagonal(self, j: int) -> Monomial:
        """The degree-m antidiagonal monomial starting at column j of the bottom row."""
        if not (1 <= j <= self.g):
            raise ValueError(f"antidiagonal index out of range: {j}")
        return self.antidiagonal_for_columns(range(j, j + self.m))

    def antidiagonal_for_columns(self, cols: Sequence[int]) -> Monomial:
        """The antidiagonal monomial on the given strictly increasing columns."""
        cols = tuple(cols)
        if len(cols) != self.m or any(b <= a for a, b in zip(cols, cols[1:])):
            raise ValueError(f"need {self.m} strictly increasing columns, got {cols}")
        if not (1 <= cols[0] and cols[-1] <= self.n):
            raise ValueError(f"columns out of range: {cols}")
        return Monomial.of(*(xvar(self.m - i + 1, cols[i - 1]) for i in range(1, self.m + 1)))

    def diag_generator(self, j: int) -> Monomial:
        """Y[j,j] * antidiagonal(j), the lead term of the j-th row combination."""
        if not (1 <= j <= self.g):
            raise ValueError(f"antidiagonal index out of range: {j}")
        return self._diag_generators[j - 1]

    @cached_property
    def _diag_generators(self) -> tuple[Monomial, ...]:
        return tuple(
            Monomial.of(yvar(j, j)) * self.antidiagonal(j) for j in range(1, self.g + 1)
        )

    def staircase_generator(self, A: Selector) -> Monomial:
        """mu * beta(A), mu the product of the diagonal Y variables."""
        self.check_selector(A)
        return self._staircase_generators[A]

    @cached_property
    def _staircase_generators(self) -> dict[Selector, Monomial]:
        mu = Monomial.of(*(yvar(j, j) for j in range(1, self.g + 1)))
        return {A: mu * beta for A, beta in self._complements.items()}

    @cached_property
    def all_variables_product(self) -> Monomial:
        return self.universe.product_of_variables()

    # -- minors and their term monomials ------------------------------------

    @cached_property
    def column_sets(self) -> tuple[tuple[int, ...], ...]:
        """Column sets of the m-minors: the g consecutive windows first, the
        rest in colexicographic order."""
        consecutive = [tuple(range(j, j + self.m)) for j in range(1, self.g + 1)]
        seen = set(consecutive)
        rest = sorted(
            (c for c in combinations(range(1, self.n + 1), self.m) if c not in seen),
            key=lambda c: tuple(reversed(c)),
        )
        return tuple(consecutive + rest)

    def minor_term_monomials(self, cols: Sequence[int]) -> tuple[Monomial, ...]:
        """The m! products one-per-row over the given columns (signs dropped)."""
        cols = tuple(cols)
        return tuple(
            Monomial.of(*(xvar(i + 1, perm[i]) for i in range(self.m)))
            for perm in permutations(cols)
        )

    # -- the ideals ----------------------------------------------------------

    @cached_property
    def minors_initial(self) -> MonomialIdeal:
        """Lead terms of the m-minors: all antidiagonals, C(n,m) generators."""
        return ideal(
            self.universe, [self.antidiagonal_for_columns(c) for c in self.column_sets]
        )

    @cached_property
    def sequence_initial(self) -> MonomialIdeal:
        """Lead terms of the g generic row combinations: Y[j,j] * antidiagonal(j)."""
        return ideal(self.universe, [self.diag_generator(j) for j in range(1, self.g + 1)])

    @cached_property
    def staircase_ideal(self) -> MonomialIdeal:
        """The ideal generated by the complement monomials beta(A)."""
        return ideal(self.universe, [self.complement_monomial(A) for A in self.selectors])

    @cached_property
    def link_initial(self) -> MonomialIdeal:
        """Initial ideal of the generic link: the sequence lead terms together
        with (product of diagonal Y) * beta(A) for every selector A.

        For m < n this list is already minimal: g generators of degree m+1
        and C(n-1,m-1) of degree m(n-m)+1. For m = n the single beta is 1 and
        the list collapses to (Y[1,1])."""
        gens = [self.diag_generator(j) for j in range(1, self.g + 1)]
        gens += [self.staircase_generator(A) for A in self.selectors]
        return ideal(self.universe, gens)


# -- selector lattice ---------------------------------------------------------


def meet(A: Selector, B: Selector) -> Selector:
    if len(A) != len(B):
        raise ValueError("selector size mismatch")
    return tuple(min(a, b) for a, b in zip(A, B))


def join(A: Selector, B: Selector) -> Selector:
    if len(A) != len(B):
        raise ValueError("selector size mismatch")
    return tuple(max(a, b) for a, b in zip(A, B))


def leq(A: Selector, B: Selector) -> bool:
    return all(a <= b for a, b in zip(A, B))


def straighten_holds(inst: LinkInstance, A: Selector, B: Selector) -> bool:
    """beta(A) * beta(B) == beta(meet) * beta(join), checked by multiplication."""
    lhs = inst.complement_monomial(A) * inst.complement_monomial(B)
    rhs = inst.complement_monomial(meet(A, B)) * inst.complement_monomial(join(A, B))
    return lhs == rhs


def chain_normal_form(selectors: Sequence[Selector]) -> tuple[Selector, ...]:
    """Rewrite a list of selectors into a componentwise-sorted chain.

    Repeated meet/join exchanges on out-of-order adjacent pairs terminate and
    keep the multiset of values in every coordinate, hence the product of the
    complement monomials.
    """
    if not selectors:
        raise ValueError("empty selector list")
    arr = list(selectors)
    changed = True
    while changed:
        changed = False
        for i in range(len(arr) - 1):
            if not leq(arr[i], arr[i + 1]):
                arr[i], arr[i + 1] = meet(arr[i], arr[i + 1]), join(arr[i], arr[i + 1])
                changed = True
    return tuple(arr)


# -- sides and exponents -------------------------------------------------------

INSIDE, LEFT, RIGHT = "inside", "left", "right"


def side_of(inst: LinkInstance, A: Selector, cell: Cell) -> str:
    """Trichotomy of a band cell relative to the staircase of A."""
    if cell not in inst.band:
        raise ValueError(f"cell {cell} is outside the band")
    inst.check_selector(A)
    i, j = cell
    a = inst.sentinels(A)
    lo, hi = a[inst.m - i], a[inst.m - i + 1]
    if j < lo:
        return LEFT
    if j >= hi:
        return RIGHT
    return INSIDE


def chain_exponent(inst: LinkInstance, chain: Sequence[Selector], cell: Cell) -> int:
    """Exponent of the cell's variable in the product of complement monomials
    of a sorted chain, evaluated by the two-sided prefix/suffix rule.

    Along a chain, being right of a staircase is a downward-closed property
    of the position and being left is upward-closed, so the exponent is
    (length of the right prefix) + (length of the left suffix).
    """
    chain = tuple(chain)
    if any(not leq(a, b) for a, b in zip(chain, chain[1:])):
        raise ValueError("chain is not sorted")
    length = len(chain)
    sides = [side_of(inst, A, cell) for A in chain]
    right_max = max((k for k in range(1, length + 1) if sides[k - 1] == RIGHT), default=0)
    left_min = min((k for k in range(1, length + 1) if sides[k - 1] == LEFT), default=length + 1)
    return right_max + length - left_min + 1


# -- divisor witnesses ----------------------------------------------------------


def antidiagonal_divisor(inst: LinkInstance, cols: Sequence[int], A: Selector) -> int:
    """Index j with antidiagonal(j) dividing (antidiagonal on cols) * beta(A).

    The index is produced by the scan rule: take the least row position i
    whose column satisfies cols[i] + 1 < a_i (the selector entry; the
    condition is vacuously true at i = m), and set j = cols[i] - i + 1.
    Divisibility is checked before returning.
    """
    cols = tuple(cols)
    inst.check_selector(A)
    gen = inst.antidiagonal_for_columns(cols)
    eps = None
    for i in range(1, inst.m + 1):
        if i == inst.m or cols[i - 1] + 1 < A[i - 1]:
            eps = i
            break
    if eps is None:
        raise AssertionError(f"scan rule found no row for cols={cols}, A={A}")
    j = cols[eps - 1] - eps + 1
    if not (1 <= j <= inst.g):
        raise AssertionError(f"witness index out of range: {j}")
    target = gen * inst.complement_monomial(A)
    if not inst.antidiagonal(j).divides(target):
        raise AssertionError(
            f"antidiagonal({j}) does not divide {target} for cols={cols}, A={A}"
        )
    return j


@dataclass(frozen=True)
class SquareDivisorWitness:
    """Certificate that delta in link_initial^(r+1) has delta^2 | gamma."""

    delta: Monomial
    gamma: Monomial
    r: int
    case: str
    cell: Cell | None = None
    lo: int | None = None
    hi: int | None = None
    bridge: Selector | None = None
    off_staircase: Monomial | None = None


def square_divisor(
    inst: LinkInstance,
    diag_indices: Sequence[int],
    chain: Sequence[Selector],
) -> SquareDivisorWitness:
    """Exhibit delta in link_initial^(r+1) with delta^2 dividing gamma, where

        gamma = nu * prod_k Y[i_k,i_k]*antidiagonal(i_k) * prod_h mu*beta(A_h)

    for strictly increasing diag indices i_1 < ... < i_a, a sorted chain
    A_1 <= ... <= A_b, a + b = 2r+1 odd, nu the product of all variables and
    mu the product of the diagonal Y. Three constructions apply depending on
    a; the returned witness records which, and both postconditions are
    verified by direct division before returning.
    """
    diag_indices = tuple(diag_indices)
    chain = tuple(chain)
    a, b = len(diag_indices), len(chain)
    total = a + b
    if total % 2 == 0 or total < 1:
        raise ValueError("need an odd number of factors")
    if any(y <= x for x, y in zip(diag_indices, diag_indices[1:])):
        raise ValueError("diagonal indices must be strictly increasing")
    if any(not (1 <= i <= inst.g) for i in diag_indices):
        raise ValueError("diagonal index out of range")
    if any(not leq(x, y) for x, y in zip(chain, chain[1:])):
        raise ValueError("selector chain is not sorted")
    r = (total - 1) // 2

    diag_gens = [inst.diag_generator(i) for i in diag_indices]
    stair_gens = [inst.staircase_generator(A) for A in chain]
    gamma = prod(diag_gens + stair_gens, start=inst.all_variables_product)

    witness: SquareDivisorWitness
    if a >= 2:
        # the staircase generators at odd positions 1, 3, ... below b - 1
        delta = prod(diag_gens + stair_gens[1:b - 1:2], start=Monomial.one())
        witness = SquareDivisorWitness(delta, gamma, r, "coprime_block")
    elif a == 1:
        i1 = diag_indices[0]
        extra = tuple(range(i1 + 1, i1 + inst.m))
        sorted_chain = chain_normal_form((*chain, extra))
        delta = prod(
            (inst.staircase_generator(A) for A in sorted_chain[1::2]),
            start=inst.diag_generator(i1),
        )
        witness = SquareDivisorWitness(delta, gamma, r, "single_antidiagonal")
    else:
        found = _interior_cell(inst, chain)
        if found is None:
            delta = prod(stair_gens[::2], start=Monomial.one())
            witness = SquareDivisorWitness(delta, gamma, r, "chain_ends")
        else:
            cell, _ = found
            i, j = cell
            lo, hi, bridge = _bridge_selector(inst, chain[0], chain[-1], cell)
            off = Monomial.of(
                *(xvar(p, i + j - p) for p in range(1, inst.m + 1) if p < lo or p > hi)
            )
            s = i + j - inst.m
            delta = prod(
                stair_gens[2:-1:2],
                start=inst.diag_generator(s) * inst.staircase_generator(bridge),
            )
            witness = SquareDivisorWitness(
                delta, gamma, r, "interior_cell",
                cell=cell, lo=lo, hi=hi, bridge=bridge, off_staircase=off,
            )

    if not inst.link_initial.power(r + 1).contains(witness.delta):
        raise AssertionError(f"delta not in the (r+1)-st power: {witness}")
    if not (witness.delta ** 2).divides(witness.gamma):
        raise AssertionError(f"delta^2 does not divide gamma: {witness}")
    return witness


def _interior_cell(
    inst: LinkInstance, chain: Sequence[Selector]
) -> tuple[Cell, int] | None:
    """First band cell lying in a middle staircase but in neither end one."""
    first, last = inst.staircase(chain[0]), inst.staircase(chain[-1])
    for k in range(2, len(chain)):
        middle = inst.staircase(chain[k - 1])
        hits = sorted(middle - first - last)
        if hits:
            return hits[0], k
    return None


def _bridge_selector(
    inst: LinkInstance, low: Selector, high: Selector, cell: Cell
) -> tuple[int, int, Selector]:
    """Merge the two end selectors across the antidiagonal through the cell.

    Returns (lo, hi, bridge): lo is the least selector position where the
    upper end pushes past the cell's antidiagonal, hi the greatest position
    where the lower end stays below it, and the bridge takes the upper end
    before lo, the antidiagonal columns between, and the lower end after hi.
    """
    i, j = cell
    m = inst.m
    lo = min(p for p in range(1, m) if m - p + high[p - 1] > i + j)
    hi = max(p for p in range(1, m) if m - p + low[p - 1] < i + j)
    bridge = tuple(
        high[p - 1] if p < lo else (i + j + p - m if p <= hi else low[p - 1])
        for p in range(1, m)
    )
    inst.check_selector(bridge)
    return lo, hi, bridge


@dataclass(frozen=True)
class OddPartReduction:
    """Split of a generator power product into its odd part and a square."""

    product: Monomial
    odd_part: Monomial
    square_root: Monomial
    odd_count: int  # |P| + |Q| = 2s+1; the square root lies in power r-s


def odd_part_reduction(
    inst: LinkInstance,
    diag_multiplicities: Mapping[int, int],
    selector_multiplicities: Mapping[Selector, int],
) -> OddPartReduction:
    """Reduce a generator multiset with odd total to distinct generators.

    The product with multiplicities r_k on the degree-(m+1) generators and
    s_A on the staircase generators factors as (odd part) * (square), where
    the odd part takes one copy of each odd-multiplicity generator and the
    square's root is a product of (r - s) generators, 2r+1 the total and
    2s+1 the number of odd multiplicities. Both facts are verified.
    """
    total = sum(diag_multiplicities.values()) + sum(selector_multiplicities.values())
    if total % 2 == 0 or total < 1:
        raise ValueError("multiplicities must sum to an odd positive number")
    if any(e < 0 for e in diag_multiplicities.values()):
        raise ValueError("negative multiplicity")
    if any(e < 0 for e in selector_multiplicities.values()):
        raise ValueError("negative multiplicity")
    product = Monomial.one()
    odd_part = Monomial.one()
    root = Monomial.one()
    odd_count = 0
    root_factors = 0
    items: list[tuple[Monomial, int]] = []
    for k, rk in sorted(diag_multiplicities.items()):
        items.append((inst.diag_generator(k), rk))
    for A, sA in sorted(selector_multiplicities.items()):
        items.append((inst.staircase_generator(A), sA))
    for gen, mult in items:
        if not mult:
            continue
        product = product * gen ** mult
        if mult % 2:
            odd_part = odd_part * gen
            odd_count += 1
        half = mult // 2
        root = root * gen ** half
        root_factors += half
    r = (total - 1) // 2
    s = (odd_count - 1) // 2
    if odd_part * root ** 2 != product:
        raise AssertionError(f"{odd_part} * ({root})^2 is not the product {product}")
    if root_factors != r - s:
        raise AssertionError(f"square root has {root_factors} factors, expected {r - s}")
    if not inst.link_initial.power(r - s).contains(root):
        raise AssertionError("square root escaped the expected power")
    return OddPartReduction(product, odd_part, root, odd_count)


# -- Betti table ------------------------------------------------------------------


@dataclass(frozen=True)
class BettiTable:
    """Graded Betti numbers of the link quotient, from the mapping-cone formula.

    ``entries`` maps (homological index i, internal degree j) to the Betti
    number, for i >= 1; the unit entry (0,0) = 1 is implicit.
    """

    entries: dict[tuple[int, int], int]
    d: int
    g: int

    def degree_counts(self) -> dict[int, int]:
        """Generator degrees with multiplicity: j -> beta_{1,j}."""
        return {j: v for (i, j), v in sorted(self.entries.items()) if i == 1}


def resolution_ranks(d: int, g: int) -> dict[int, int]:
    """Ranks b_s = prod_{r != s} (d+r-1)/|r-s| of the length-g linear resolution."""
    out = {}
    for s in range(1, g + 1):
        val = Fraction(1)
        for r in range(1, g + 1):
            if r != s:
                val *= Fraction(d + r - 1, abs(r - s))
        if val.denominator != 1:
            raise ArithmeticError(f"non-integral rank b_{s} = {val}")
        out[s] = int(val)
    return out


def betti_table(inst: LinkInstance) -> BettiTable:
    """Closed-form graded Betti table of the link quotient.

    With d = m and g = n-m+1: beta_{i, dg-d+i} = b_{g-i+1} for i != g-1,
    beta_{g-1, dg-d+g-1} = b_2 + g, and beta_{i, di+i} = C(g,i) for i < g-1.
    All other entries vanish.
    """
    d, g = inst.m, inst.g
    b = resolution_ranks(d, g)
    entries: dict[tuple[int, int], int] = {}
    for i in range(1, g + 1):
        if i != g - 1:
            entries[(i, d * g - d + i)] = b[g - i + 1]
        else:
            entries[(i, d * g - d + g - 1)] = b[2] + g
        if i < g - 1:
            entries[(i, d * i + i)] = entries.get((i, d * i + i), 0) + comb(g, i)
    return BettiTable(entries, d, g)


# -- shape conditions for staircase-power equality -----------------------------------


@dataclass(frozen=True)
class StaircasePowerConditions:
    """Three candidate closed-form shape conditions for when the second
    symbolic and ordinary powers of the staircase ideal coincide. They
    disagree on some instances; ground truth is never read off these, it is
    computed by brute force in the verification harness."""

    printed_corollary: bool  # m <= 2 or m <= n-1
    printed_example: bool    # m <= 2 or m <= n+1
    derived: bool            # m <= 2 or n <= m+1


def staircase_power_conditions(inst: LinkInstance) -> StaircasePowerConditions:
    m, n = inst.m, inst.n
    return StaircasePowerConditions(
        printed_corollary=m <= 2 or m <= n - 1,
        printed_example=m <= 2 or m <= n + 1,
        derived=m <= 2 or n <= m + 1,
    )
