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

The generators are kept once per instance as exponent vectors over the
universe, and the four ideals are wrapped around them unreduced: each
family is a list of distinct monomials of one degree, and no antidiagonal
divides a beta(A), so each list is minimal except the link's at m = n.
The witnesses add those vectors as packed words, from one table per
instance (a ``WordCache`` from :mod:`genlink.ideals`) keyed by generator:
the diagonal index j, the selector A, the column set of an antidiagonal,
and ``NU`` for nu. A witness carries keys through its case logic; a
product is an integer sum of the words at its keys, a square divides when
one guarded subtraction finds every doubled exponent fits, and the
odd-part check is one int comparison. The fields hold a call's count of
summands times the table's largest exponent, so no exponent bound is
assumed. A witness keeps the generator vectors it is the sum of, so
membership in a power is read off them: a sum of k vectors, each in the
ideal (a lookup for m < n), lies in its k-th power, and no power is
built. Vectors are fetched only for those factors, and vectors and
monomials are unpacked only for what a witness returns and for the
message of a failed check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb, factorial, prod
from operator import add, le
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .ideals import MonomialIdeal, Vec, WordCache, WordSums, _from_vecs
from .monomial import Monomial, Universe, xvar, yvar

Cell = tuple[int, int]
Selector = tuple[int, ...]

# the key of nu, the product of all variables, in an instance's word table
NU = "nu"


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

    @cached_property
    def _staircases(self) -> dict[Selector, frozenset[Cell]]:
        return {A: self.staircase(A) for A in self.selectors}

    # The generators are kept once, as exponent vectors over the universe,
    # which the ideals and the witnesses are built from. Each lookup by
    # index or selector checks its argument first.
    # The universe lists the x grid row-major, so x[i,j] sits at grid
    # position (i-1)*n + j-1, and then Y[1,1], ..., Y[g,g]; the two
    # position helpers below are the only code that knows this layout.

    def _indicator(self, positions: Iterable[int]) -> Vec:
        """The exponent vector of the product of the variables at distinct positions."""
        vec = [0] * len(self.universe)
        for p in positions:
            vec[p] = 1
        return tuple(vec)

    def _cell_positions(self, cells: Iterable[Cell]) -> Iterator[int]:
        n = self.n
        return ((i - 1) * n + j - 1 for i, j in cells)

    def _diag_y_position(self, j: int) -> int:
        return self.m * self.n + j - 1

    @cached_property
    def _complement_vecs(self) -> dict[Selector, Vec]:
        """beta(A) for every selector A: the band variables outside its staircase."""
        return {
            A: self._indicator(self._cell_positions(self.band - cells))
            for A, cells in self._staircases.items()
        }

    def _antidiagonal_vec(self, cols: Sequence[int]) -> Vec:
        """The antidiagonal on strictly increasing columns: x[m, cols[0]],
        x[m-1, cols[1]], ..., x[1, cols[-1]]."""
        cols = tuple(cols)
        if len(cols) != self.m or any(b <= a for a, b in zip(cols, cols[1:])):
            raise ValueError(f"need {self.m} strictly increasing columns, got {cols}")
        if not (1 <= cols[0] and cols[-1] <= self.n):
            raise ValueError(f"columns out of range: {cols}")
        return self._indicator(
            self._cell_positions((self.m - i, col) for i, col in enumerate(cols))
        )

    def check_diag_index(self, j: int) -> None:
        if not (1 <= j <= self.g):
            raise ValueError(f"antidiagonal index out of range: {j}")

    def _diag_vec(self, j: int) -> Vec:
        self.check_diag_index(j)
        return self._diag_vecs[j - 1]

    @cached_property
    def _window_vecs(self) -> tuple[Vec, ...]:
        """antidiagonal(j), on the consecutive columns j, ..., j+m-1, for j = 1..g."""
        return tuple(self._antidiagonal_vec(range(j, j + self.m)) for j in range(1, self.g + 1))

    @cached_property
    def _diag_vecs(self) -> tuple[Vec, ...]:
        """Y[j,j] * antidiagonal(j), the lead term of row combination j = 1..g."""
        return tuple(
            tuple(map(add, self._indicator([self._diag_y_position(j)]), window))
            for j, window in enumerate(self._window_vecs, start=1)
        )

    def _staircase_vec(self, A: Selector) -> Vec:
        self.check_selector(A)
        return self._staircase_vecs[A]

    @cached_property
    def _staircase_vecs(self) -> dict[Selector, Vec]:
        """mu * beta(A) for every selector A, mu the product of the diagonal Y."""
        mu = self._indicator(map(self._diag_y_position, range(1, self.g + 1)))
        return {A: tuple(map(add, mu, beta)) for A, beta in self._complement_vecs.items()}

    @cached_property
    def _word_cache(self) -> WordCache:
        """The packed words of the vectors the witnesses add, keyed by
        generator: j for Y[j,j] * antidiagonal(j), a selector A for
        mu * beta(A), a column set for its antidiagonal and ``NU`` for nu,
        the product of all variables. It is built on first use through the
        accessors above, so a changed accessor is packed as it is."""
        table: dict = {j: self._diag_vec(j) for j in range(1, self.g + 1)}
        table.update((A, self._staircase_vec(A)) for A in self.selectors)
        table.update(zip(self.column_sets, self._window_vecs))  # the windows come first
        table.update((cols, self._antidiagonal_vec(cols)) for cols in self.column_sets[self.g:])
        table[NU] = (1,) * len(self.universe)
        return WordCache(table)

    # -- the minors ----------------------------------------------------------

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

    # -- the ideals ----------------------------------------------------------

    @cached_property
    def minors_initial(self) -> MonomialIdeal:
        """Lead terms of the m-minors: all antidiagonals, C(n,m) generators."""
        return _from_vecs(self.universe, map(self._antidiagonal_vec, self.column_sets))

    @cached_property
    def sequence_initial(self) -> MonomialIdeal:
        """Lead terms of the g generic row combinations: Y[j,j] * antidiagonal(j)."""
        return _from_vecs(self.universe, self._diag_vecs)

    @cached_property
    def staircase_ideal(self) -> MonomialIdeal:
        """The ideal generated by the complement monomials beta(A)."""
        return _from_vecs(self.universe, self._complement_vecs.values())

    @cached_property
    def link_initial(self) -> MonomialIdeal:
        """Initial ideal of the generic link: the sequence lead terms together
        with (product of diagonal Y) * beta(A) for every selector A.

        For m < n this list is already minimal: g generators of degree m+1
        and C(n-1,m-1) of degree m(n-m)+1, and no antidiagonal divides a
        beta(A). For m = n the single beta is 1 and the list collapses to
        (Y[1,1])."""
        if self.m == self.n:
            return _from_vecs(self.universe, self._staircase_vecs.values())
        return _from_vecs(self.universe, [*self._diag_vecs, *self._staircase_vecs.values()])


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
    return all(map(le, A, B))


def straighten_holds(inst: LinkInstance, A: Selector, B: Selector) -> bool:
    """beta(A) * beta(B) == beta(meet) * beta(join), checked on exponent vectors."""
    inst.check_selector(A)
    inst.check_selector(B)
    beta = inst._complement_vecs
    lhs = tuple(map(add, beta[A], beta[B]))
    return lhs == tuple(map(add, beta[meet(A, B)], beta[join(A, B)]))


def chain_normal_form(selectors: Sequence[Selector]) -> tuple[Selector, ...]:
    """Rewrite a list of selectors into a componentwise-sorted chain by
    sorting each coordinate.

    This is the chain that meet/join exchanges on out-of-order adjacent
    pairs reach, so it keeps the product of the complement monomials, as
    each exchange does (see :func:`straighten_holds`). The proof has two
    steps. First, an exchange keeps the multiset of values in every
    coordinate, and a chain is sorted in every coordinate, so only one
    chain has given multisets: each coordinate sorted. Second, sorting each
    coordinate keeps every selector strictly increasing: if the k-th
    smallest values of coordinates i and i + 1 are a and b, then at least
    k selectors have coordinate i + 1 at most b, and their coordinate i is
    below b, so a < b. For m = 1 the selectors are empty, the sort gives
    no selector at all, and they are returned as they are.
    """
    if not selectors:
        raise ValueError("empty selector list")
    if len(set(map(len, selectors))) > 1:
        raise ValueError("selector size mismatch")
    return tuple(zip(*map(sorted, zip(*selectors)))) or tuple(selectors)


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
    if not all(map(leq, chain, chain[1:])):
        raise ValueError("chain is not sorted")
    length = len(chain)
    sides = [side_of(inst, A, cell) for A in chain]
    right_max = max((k for k in range(1, length + 1) if sides[k - 1] == RIGHT), default=0)
    left_min = min((k for k in range(1, length + 1) if sides[k - 1] == LEFT), default=length + 1)
    return right_max + length - left_min + 1


# -- divisor witnesses ----------------------------------------------------------


def _unpacked(word: str) -> property:
    """The exponent vector a witness keeps as the packed ``word``, unpacked on access."""
    return property(lambda self: self.sums.unpack(getattr(self, word)))


def _monomial(vec: str) -> property:
    """The monomial of a witness's exponent vector ``vec``, built on access."""
    return property(lambda self: self.universe.monomial(getattr(self, vec)))


def _repr_with(obj: object, names: Sequence[str]) -> str:
    """``Name(a=..., b=...)`` over the given attributes, monomials included."""
    return f"{type(obj).__name__}({', '.join(f'{k}={getattr(obj, k)!r}' for k in names)})"


def antidiagonal_divisor(inst: LinkInstance, cols: Sequence[int], A: Selector) -> int:
    """Index j with antidiagonal(j) dividing (antidiagonal on cols) * beta(A).

    The index is produced by the scan rule: take the least row position i
    whose column satisfies cols[i] + 1 < a_i (the selector entry; the
    condition is vacuously true at i = m), and set j = cols[i] - i + 1.
    Divisibility is checked on packed words before returning.
    """
    cols = tuple(cols)
    inst.check_selector(A)
    sums = inst._word_cache.sums(2)
    words = sums.words
    if len(cols) != inst.m or cols not in words:
        inst._antidiagonal_vec(cols)  # raises: cols is no column set
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
    # the word of A is mu * beta(A); an antidiagonal has no Y, so the window
    # on columns j, ..., j+m-1 (the j-th column set) divides the target
    # times mu iff it divides the target
    if not sums.fits(words[inst.column_sets[j - 1]], words[cols] + words[A]):
        target = map(add, inst._antidiagonal_vec(cols), inst._complement_vecs[A])
        raise AssertionError(
            f"antidiagonal({j}) does not divide {inst.universe.monomial(tuple(target))} "
            f"for cols={cols}, A={A}"
        )
    return j


class SquareDivisorWitness(NamedTuple):
    """Certificate that delta in link_initial^(r+1) has delta^2 | gamma.

    delta and gamma are kept as packed words of ``sums``; their exponent
    vectors over ``universe`` and their monomials are built on access, as
    is ``off_staircase`` in the interior-cell case: the variables of the
    cell's antidiagonal in the rows p < lo and p > hi. ``factor_vecs`` are
    the r+1 or more generator vectors whose sum is delta, which certify it
    in link_initial^(r+1).
    """

    universe: Universe
    sums: WordSums
    delta_word: int
    gamma_word: int
    factor_vecs: tuple[Vec, ...]
    r: int
    case: str
    cell: Cell | None = None
    lo: int | None = None
    hi: int | None = None
    bridge: Selector | None = None

    delta_vec, gamma_vec = _unpacked("delta_word"), _unpacked("gamma_word")
    delta, gamma = _monomial("delta_vec"), _monomial("gamma_vec")

    @property
    def off_staircase(self) -> Monomial | None:
        if self.cell is None:
            return None
        i, j = self.cell
        rows = range(1, self.universe.m + 1)
        return Monomial.of(*(xvar(p, i + j - p) for p in rows if p < self.lo or p > self.hi))

    def __repr__(self) -> str:
        return _repr_with(
            self, ("delta", "gamma", "r", "case", "cell", "lo", "hi", "bridge", "off_staircase")
        )


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
    a; the returned witness records which. Each picks the generators of
    delta by their keys in the instance's word table, and gamma and delta
    are integer sums of the words at those keys. Both postconditions are
    verified before returning: there are at least r+1 such factors, each in
    link_initial (a lookup per distinct generator, a divisor query only at
    m = n, and no power built), and 2*delta fits in gamma, one guarded
    subtraction.
    """
    diag_indices = tuple(diag_indices)
    chain = tuple(chain)
    a, b = len(diag_indices), len(chain)
    total = a + b
    if total % 2 == 0 or total < 1:
        raise ValueError("need an odd number of factors")
    if any(y <= x for x, y in zip(diag_indices, diag_indices[1:])):
        raise ValueError("diagonal indices must be strictly increasing")
    if diag_indices and not (1 <= diag_indices[0] and diag_indices[-1] <= inst.g):
        raise ValueError("diagonal index out of range")
    if not all(map(leq, chain, chain[1:])):
        raise ValueError("selector chain is not sorted")
    for A in chain:
        inst.check_selector(A)
    r = (total - 1) // 2

    cell = lo = hi = bridge = None
    if a >= 2:
        # the staircase generators at odd positions 1, 3, ... below b - 1
        case, factors = "coprime_block", [*diag_indices, *chain[1:b - 1:2]]
    elif a == 1:
        i1 = diag_indices[0]
        extra = tuple(range(i1 + 1, i1 + inst.m))
        case, factors = "single_antidiagonal", [i1, *chain_normal_form((*chain, extra))[1::2]]
    else:
        found = _interior_cell(inst, chain)
        if found is None:
            case, factors = "chain_ends", chain[::2]
        else:
            cell, _ = found
            i, j = cell
            lo, hi, bridge = _bridge_selector(inst, chain[0], chain[-1], cell)
            case, factors = "interior_cell", [i + j - inst.m, bridge, *chain[2:-1:2]]
    table = inst._word_cache
    # the fields hold gamma and 2*delta
    sums = table.sums(max(total + 1, 2 * len(factors)))
    delta, gamma = sums.sum(factors), sums.sum((NU, *diag_indices, *chain))
    vecs = table.vecs
    witness = SquareDivisorWitness(
        inst.universe, sums, delta, gamma, tuple(map(vecs.__getitem__, factors)), r, case,
        cell, lo, hi, bridge,
    )

    # membership, not minimality, is asked: link_initial collapses at m = n
    divides_into = inst.link_initial._divides_into
    if len(factors) < r + 1 or not all(divides_into(vecs[key]) for key in set(factors)):
        raise AssertionError(f"delta not in the (r+1)-st power: {witness}")
    if not sums.fits(delta, gamma, 2):
        raise AssertionError(f"delta^2 does not divide gamma: {witness}")
    return witness


def _interior_cell(
    inst: LinkInstance, chain: Sequence[Selector]
) -> tuple[Cell, int] | None:
    """First band cell lying in a middle staircase but in neither end one;
    the chain's selectors must be valid."""
    stairs = inst._staircases
    ends = stairs[chain[0]] | stairs[chain[-1]]
    for k in range(2, len(chain)):
        hits = sorted(stairs[chain[k - 1]] - ends)
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


class OddPartReduction(NamedTuple):
    """Split of a generator power product into its odd part and a square.

    The three parts are kept as packed words of ``sums``; their exponent
    vectors over ``universe`` and their monomials are built on access.
    ``root_factor_vecs`` are the r-s generator vectors, each taken
    ``mult // 2`` times, whose sum is the square root, which certify it in
    link_initial^(r-s).
    """

    universe: Universe
    sums: WordSums
    product_word: int
    odd_part_word: int
    square_root_word: int
    root_factor_vecs: tuple[Vec, ...]
    odd_count: int  # |P| + |Q| = 2s+1; the square root lies in power r-s

    product_vec, product = _unpacked("product_word"), _monomial("product_vec")
    odd_part_vec, odd_part = _unpacked("odd_part_word"), _monomial("odd_part_vec")
    square_root_vec, square_root = _unpacked("square_root_word"), _monomial("square_root_vec")

    def __repr__(self) -> str:
        return _repr_with(self, ("product", "odd_part", "square_root", "odd_count"))


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
    2s+1 the number of odd multiplicities. The root is the sum of the r-s
    factors the reduction keeps; the three parts are integer sums of the
    words at the generators' keys in the instance's word table. Both facts
    are verified: the parts multiply back to the product, one int
    comparison, and each factor lies in link_initial (no power is built).
    """
    total = sum(diag_multiplicities.values()) + sum(selector_multiplicities.values())
    if total % 2 == 0 or total < 1:
        raise ValueError("multiplicities must sum to an odd positive number")
    if any(e < 0 for e in diag_multiplicities.values()):
        raise ValueError("negative multiplicity")
    if any(e < 0 for e in selector_multiplicities.values()):
        raise ValueError("negative multiplicity")
    items = [*sorted(diag_multiplicities.items()), *sorted(selector_multiplicities.items())]
    for k in diag_multiplicities:
        inst.check_diag_index(k)
    for A in selector_multiplicities:
        inst.check_selector(A)
    keys, mults = [key for key, _ in items], [mult for _, mult in items]
    table = inst._word_cache
    # the fields hold the product, which bounds the odd part and the root
    sums = table.sums(total)
    product = sums.sum(keys, mults)
    odd_part = sums.sum(keys, [mult % 2 for mult in mults])
    root = sums.sum(keys, [mult // 2 for mult in mults])
    root_keys = [key for key, mult in items for _ in range(mult // 2)]
    odd_count = sum(mult % 2 for mult in mults)
    r = (total - 1) // 2
    s = (odd_count - 1) // 2
    vecs = table.vecs
    reduction = OddPartReduction(
        inst.universe, sums, product, odd_part, root, tuple(map(vecs.__getitem__, root_keys)),
        odd_count,
    )
    if product != odd_part + 2 * root:
        raise AssertionError(
            f"{reduction.odd_part} * ({reduction.square_root})^2 is not the product "
            f"{reduction.product}"
        )
    if len(root_keys) != r - s:
        raise AssertionError(f"square root has {len(root_keys)} factors, expected {r - s}")
    if not all(inst.link_initial._divides_into(vecs[key]) for key in set(root_keys)):
        raise AssertionError(f"square root {reduction.square_root} escaped power {r - s}")
    return reduction


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
    """Ranks b_s = prod_{r != s} (d+r-1)/|r-s| of the length-g linear resolution,
    in integers: the denominator is (s-1)! (g-s)!."""
    out = {}
    for s in range(1, g + 1):
        num = prod(d + r - 1 for r in range(1, g + 1) if r != s)
        den = factorial(s - 1) * factorial(g - s)
        out[s], rest = divmod(num, den)
        if rest:
            raise ArithmeticError(f"non-integral rank b_{s} = {num}/{den}")
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


# Three candidate closed-form shape conditions for when the second symbolic
# and ordinary powers of the staircase ideal coincide, by the text a report
# gives them: the printed corollary's, the printed example's, the derived one.
STAIRCASE_POWER_CONDITIONS = {
    "m<=2 or m<=n-1": lambda m, n: m <= 2 or m <= n - 1,
    "m<=2 or m<=n+1": lambda m, n: m <= 2 or m <= n + 1,
    "m<=2 or n<=m+1": lambda m, n: m <= 2 or n <= m + 1,
}


def staircase_power_conditions(inst: LinkInstance) -> dict[str, bool]:
    """Whether each of :data:`STAIRCASE_POWER_CONDITIONS` holds at ``inst``,
    by its text. They disagree on some instances; ground truth is never read
    off these, it is computed by brute force in the verification harness."""
    return {text: holds(inst.m, inst.n) for text, holds in STAIRCASE_POWER_CONDITIONS.items()}
