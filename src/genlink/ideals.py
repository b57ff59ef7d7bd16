"""Exact arithmetic on monomial ideals over a finite variable universe.

Ideals are kept as minimal generating sets (divisibility antichains).
Operations: product, power, bracket power, colon, intersection, membership,
minimal primes of squarefree ideals (minimal vertex covers of the support
clutter), symbolic powers (a left fold over the minimal primes that lifts
each generator into the next prime power and reduces only the lifted
ones), a symbolic-vs-ordinary scan, and the square-bracket colon criterion
certifying symbolic = ordinary for squarefree ideals.

An ideal holds its minimal generators once, as dense exponent vectors over
the universe; their support bitmasks, :class:`Monomial` form and minimal
primes are derived on first use. Every operation works on the vectors:
monomials enter only through :func:`ideal`,
:meth:`~MonomialIdeal.contains` and :meth:`~MonomialIdeal.symbolic_member`.
Reduction to minimal generators scans small antichains pairwise on packed
exponent words, one subtraction and one AND per pair, and switches to a
bit-sliced divisor index once the antichain is large; the same index,
built over an ideal's generators on first use, answers membership. All
sizes here are desk scale; an explicit candidate cap guards against
intersection blowup before anything is enumerated, and the index refuses
exponents whose bitsets would not fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, combinations_with_replacement, groupby, repeat
from math import comb
from operator import add, itemgetter
from typing import Callable, Iterable, Sequence

from .monomial import Monomial, Universe, Variable

DEFAULT_CANDIDATE_CAP = 200_000


class UniverseMismatch(ValueError):
    """Raised when monomials or ideals do not share one universe."""


class NotSquarefree(ValueError):
    """Raised when an operation defined for squarefree ideals gets a general one."""


class SizeGuardExceeded(RuntimeError):
    """Raised before an intermediate computation would exceed the candidate cap."""

    def __init__(self, message: str, estimate: int):
        super().__init__(message)
        self.estimate = estimate


Vec = tuple[int, ...]


def _mask(vec: Vec) -> int:
    m = 0
    for i, e in enumerate(vec):
        if e:
            m |= 1 << i
    return m


def _packing(top: int, width: int) -> tuple[Callable[[Iterable[Vec]], list[int]], int]:
    """Pack vectors with exponents at most ``top`` into ints; return the
    packer, which packs a list of vectors, and the guard mask.

    Each exponent takes a field of whole bytes, the first exponent the most
    significant, wide enough to leave the field's top bit clear; a byte for
    exponents below 128. ``guards`` has every field's top bit set. For
    packed ``U`` and ``V``, ``v`` divides ``u`` iff
    ``((U | guards) - V) & guards == guards``: no field of ``U | guards`` is
    below its guard bit, so each field subtracts without borrowing from the
    next and keeps its guard bit iff ``u`` is at least ``v`` there. Fields
    have one width, so packed words order like the vectors.
    """
    size = (top.bit_length() + 8) // 8
    guards = int.from_bytes((b"\x80" + bytes(size - 1)) * width, "big")
    # One-byte fields pack through bytes(), about 6x faster per vector than
    # the general packer. With the general packer alone the benchmark's
    # wall_s rose from 0.0133 to 0.0203 s on symbolic-fold and from 0.0197
    # to 0.0233 s on square-colon (medians of 5 alternating pairs each,
    # every pair slower; 2-core x86-64 VM, Python 3.11).
    if size == 1:
        return lambda vecs: list(map(int.from_bytes, map(bytes, vecs), repeat("big"))), guards

    def pack(vecs: Iterable[Vec]) -> list[int]:
        return [int.from_bytes(b"".join(e.to_bytes(size, "big") for e in v), "big") for v in vecs]
    return pack, guards


# An index keeps one bitset per variable and exponent up to the largest
# exponent it holds. Above this exponent it refuses to be built, so its
# memory does not grow with exponent size; _minimalize scans instead.
_INDEX_MAX_EXPONENT = 255


class _DivisorIndex:
    """Bit-sliced index answering "does some indexed vector divide v?".

    Vector i of the index is bit i. ``below[k][e]`` is the bitset of the
    vectors whose exponent at position k is at most e, for e up to the
    largest exponent indexed at k, where every bit is set. A query ANDs
    ``below[k][min(v[k], top)]`` over k and stops once nothing is left, so
    it costs a few big-int ANDs instead of a pass over every vector.
    Vectors are added in batches; each batch's bitsets are built on bit 0
    and shifted into place once. A batch with an exponent above
    ``_INDEX_MAX_EXPONENT`` raises :class:`SizeGuardExceeded` before
    anything is allocated.
    """

    __slots__ = ("below", "size")

    def __init__(self, width: int, vecs: Sequence[Vec] = ()):
        self.below: list[list[int]] = [[0] for _ in range(width)]
        self.size = 0
        self.add(vecs)

    def add(self, vecs: Sequence[Vec]) -> None:
        if not vecs:
            return
        tops = [max(exps) for exps in zip(*vecs)]
        slices = max(tops, default=0) + 1
        if slices > _INDEX_MAX_EXPONENT + 1:
            raise SizeGuardExceeded(
                f"divisor index would hold {slices} exponent slices per variable "
                f"(cap {_INDEX_MAX_EXPONENT + 1})", slices,
            )
        shift, old_all = self.size, (1 << self.size) - 1
        for col, exps, top in zip(self.below, zip(*vecs), tops):
            at = [0] * (top + 1)
            for i, e in enumerate(exps):
                at[e] |= 1 << i
            acc = 0
            for e, bits in enumerate(at):
                acc |= bits
                if e < len(col):
                    col[e] |= acc << shift
                else:
                    col.append(old_all | acc << shift)
            for e in range(len(at), len(col)):
                col[e] |= acc << shift
        self.size += len(vecs)

    def divides_some(self, vec: Vec) -> bool:
        hits = (1 << self.size) - 1
        for col, e in zip(self.below, vec):
            if e < len(col):  # above the top, below[k][top] is every vector
                hits &= col[e]
                if not hits:
                    return False
        return hits != 0


# _minimalize switches from the pairwise scan to the index once the kept
# antichain has more than this many members per variable. Measured on the
# captured reduction inputs of the benchmark's symbolic-fold (154 calls,
# median 9 lifted candidates against a seed of 7) and square-colon (5 calls)
# workloads, best of 15 interleaved runs, two sweeps, on a 2-core x86-64 VM
# under Python 3.11, with the packed-word scan:
#   switch at   1x: 14.7-15.1 / 8.3-8.5 ms   2x: 9.9-10.8 / 7.9-8.4 ms
#               4x: 8.3-8.3 / 9.1-9.2 ms     8x: 8.4-10.0 / 10.2-10.4 ms
#   scan only:      7.8-9.0 / 33.7-36.3 ms
# Below the switch, building an index costs more than the scan it saves.
_INDEX_PER_VARIABLE = 4


def _minimalize(
    vecs: Iterable[Vec], seed: Sequence[Vec] = (), cap: int = DEFAULT_CANDIDATE_CAP
) -> list[Vec]:
    """Reduce candidates against an antichain ``seed`` and each other.

    ``seed`` must be an antichain that no candidate divides; the result is
    ``seed`` followed by the candidates that no seed vector and no other
    candidate divides, in order of degree, then exponents in vector order.
    Candidates are taken in that order, and a candidate is kept unless a
    kept vector divides it; while few are kept they are scanned pairwise on
    packed words (see :func:`_packing`). Once more than
    ``_INDEX_PER_VARIABLE`` per variable are kept, the kept vectors go into
    a :class:`_DivisorIndex` and the rest are tested against it one degree
    at a time, each degree's survivors added in one batch: distinct vectors
    of equal degree never divide each other, so a degree only needs the
    kept vectors of lower degree. Exponents above ``_INDEX_MAX_EXPONENT``
    keep the scan throughout; then :class:`SizeGuardExceeded` is raised
    first if the candidates times the seed and candidates, a bound on the
    pairs scanned, exceed ``cap``.
    """
    items = sorted((sum(v), v) for v in set(vecs))
    kept = list(seed)
    if not items:
        return kept
    candidates = [v for _, v in items]
    width = len(candidates[0])
    top = max(items[-1][0], max(map(sum, kept), default=0))  # bounds every exponent
    switch = _INDEX_PER_VARIABLE * width
    if top > _INDEX_MAX_EXPONENT and max(map(max, chain(kept, candidates))) > _INDEX_MAX_EXPONENT:
        switch = len(kept) + len(candidates)  # the index would refuse: scan throughout
        work = len(candidates) * switch
        if work > cap:
            raise SizeGuardExceeded(
                f"reduction would scan {len(candidates)} candidates with exponents above "
                f"{_INDEX_MAX_EXPONENT} against up to {switch} vectors, about {work} "
                f"comparisons (cap {cap})",
                work,
            )
    if len(kept) > switch:
        return _minimalize_indexed(kept, items)
    pack, guards = _packing(top, width)
    words = pack(kept)
    for pos, (vec, word) in enumerate(zip(candidates, pack(candidates))):
        guarded = word | guards
        for k in words:
            if (guarded - k) & guards == guards:
                break
        else:
            kept.append(vec)
            if len(kept) > switch:
                return _minimalize_indexed(kept, items[pos + 1:])
            words.append(word)
    return kept


def _minimalize_indexed(kept: list[Vec], items: list[tuple[int, Vec]]) -> list[Vec]:
    """Extend ``kept`` by the vectors of ``(degree, vector)`` ``items`` that
    no kept vector and no earlier item divides; ``items`` are sorted by
    degree, and none divides a kept vector."""
    index = _DivisorIndex(len(kept[0]), kept)
    for _, group in groupby(items, key=itemgetter(0)):
        survivors = [vec for _, vec in group if not index.divides_some(vec)]
        index.add(survivors)
        kept += survivors
    return kept


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by its minimal generators over a universe.

    ``vecs`` are the generators' exponent vectors, sorted by
    :meth:`Monomial.canonical_key`; ``masks`` and ``gens`` are their support
    bitmasks and monomials, in the same order; membership queries go
    through a :class:`_DivisorIndex` over ``vecs``, built on first use, and
    the powers W^2, W^3, ... are kept once :meth:`power` builds them. The
    zero ideal has no generators, the unit ideal has the single generator 1.
    Construct through :func:`ideal`, which reduces an arbitrary generating
    set.
    """

    universe: Universe
    vecs: tuple[Vec, ...]

    @cached_property
    def gens(self) -> tuple[Monomial, ...]:
        return tuple(_to_monomial(self.universe, v) for v in self.vecs)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        return tuple(_mask(v) for v in self.vecs)

    # -- basic predicates -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.vecs

    def is_unit(self) -> bool:
        return len(self.vecs) == 1 and not any(self.vecs[0])

    def is_squarefree(self) -> bool:
        return all(e <= 1 for v in self.vecs for e in v)

    def degrees(self) -> tuple[int, ...]:
        return tuple(sum(v) for v in self.vecs)

    def _same_universe(self, other: "MonomialIdeal") -> None:
        if self.universe != other.universe:
            raise UniverseMismatch("ideals live over different universes")

    # -- membership -------------------------------------------------------

    def contains(self, mon: Monomial) -> bool:
        """True iff some minimal generator divides ``mon``."""
        return self._divides_into(_to_vec(self.universe, mon))

    @cached_property
    def _index(self) -> _DivisorIndex:
        return _DivisorIndex(len(self.universe), self.vecs)

    def _divides_into(self, vec: Vec) -> bool:
        """True iff some minimal generator divides the exponent vector ``vec``."""
        return self._index.divides_some(vec)

    # -- ring operations --------------------------------------------------

    def product(self, other: "MonomialIdeal", cap: int = DEFAULT_CANDIDATE_CAP) -> "MonomialIdeal":
        self._same_universe(other)
        a, b = self.vecs, other.vecs
        _check_cap(len(a) * len(b), cap, "product")
        candidates = [tuple(x + y for x, y in zip(u, v)) for u in a for v in b]
        return _from_vecs(self.universe, _minimalize(candidates, cap=cap))

    def power(self, s: int, cap: int = DEFAULT_CANDIDATE_CAP) -> "MonomialIdeal":
        """W^s; W^0 is the unit ideal and W^1 the ideal itself.

        Each higher power is built once, as W^(s-1) * W, and kept on the
        ideal. The cap is checked at every step, built or kept, so a refusal
        does not depend on which powers were asked for before.
        """
        if s < 0:
            raise ValueError("negative power")
        if s == 0:
            return unit_ideal(self.universe)
        _check_cap(len(self.vecs), cap, "product")  # W^1 = 1 * W
        power = self
        for k in range(2, s + 1):
            _check_cap(len(power.vecs) * len(self.vecs), cap, "product")
            if len(self._powers) < k - 1:
                self._powers.append(power.product(self, cap=cap))
            power = self._powers[k - 2]
        return power

    @cached_property
    def _powers(self) -> list["MonomialIdeal"]:
        """W^2, W^3, ... as far as built; W^1 stays out, so no ideal refers
        to itself."""
        return []

    def bracket_power(self, q: int) -> "MonomialIdeal":
        """The ideal generated by the q-th powers of the minimal generators;
        scaling keeps divisibility and the generator order, so no reduction."""
        if q < 1:
            raise ValueError("bracket power needs q >= 1")
        return MonomialIdeal(self.universe, tuple(tuple(q * e for e in v) for v in self.vecs))

    def colon(self, other: "MonomialIdeal", cap: int = DEFAULT_CANDIDATE_CAP) -> "MonomialIdeal":
        """W : V, the ideal of monomials multiplying V into W."""
        self._same_universe(other)
        if other.is_zero():
            raise ValueError("colon by the zero ideal")
        pieces = []
        for v in other.vecs:
            pieces.append(_minimalize(
                (tuple(max(x - y, 0) for x, y in zip(u, v)) for u in self.vecs), cap=cap
            ))
        folded = _tree_fold_intersect(pieces, cap)
        return _from_vecs(self.universe, folded)

    def intersect(self, other: "MonomialIdeal", cap: int = DEFAULT_CANDIDATE_CAP) -> "MonomialIdeal":
        self._same_universe(other)
        folded = _intersect_vecs(self.vecs, other.vecs, cap)
        return _from_vecs(self.universe, folded)

    # -- squarefree combinatorics ------------------------------------------

    def minimal_primes(self) -> tuple[frozenset[Variable], ...]:
        """Minimal transversals of the support clutter of a squarefree ideal.

        Each returned variable set is a minimal prime; none contains another.
        """
        if self.is_zero() or self.is_unit():
            raise ValueError("minimal primes need a proper nonzero ideal")
        if not self.is_squarefree():
            raise NotSquarefree("minimal primes implemented for squarefree ideals only")
        covers = _minimal_covers(list(self.masks))
        vars_ = self.universe.variables
        out = []
        for cover in covers:
            out.append(frozenset(vars_[i] for i in range(len(vars_)) if cover >> i & 1))
        out.sort(key=lambda s: (len(s), sorted(s)))
        return tuple(out)

    def symbolic_power(self, level: int, cap: int = DEFAULT_CANDIDATE_CAP) -> "MonomialIdeal":
        """Intersection of the level-th powers of the minimal primes.

        For a squarefree ideal this is the level-th symbolic power
        (Herzog-Hibi-Trung). The intersection is a left fold from the unit
        ideal over the primes in :meth:`minimal_primes` order. Each step
        lifts the current antichain into ``P^level``: a generator ``u`` of
        P-degree ``d >= level`` is kept as it is, any other ``u`` becomes
        ``u * w`` for every degree-``(level - d)`` monomial ``w`` in P's
        variables, which generates ``(u) ∩ P^level``. Only the lifted
        candidates are reduced, against the kept generators and each other:
        no lifted ``u * w`` divides a kept ``v``, since then ``u`` would
        divide ``v`` in the previous antichain.

        Before a step enumerates anything the guard refuses when its lifted
        count times the current antichain size exceeds ``cap``. This bounds
        the candidates a step produces, weighted by the antichain they are
        reduced against; it is not a count of comparisons, since the lifted
        candidates are also reduced against each other and the antichain
        grows as they are kept. Kept generators are not counted, as they
        are not reduced. Above the index switch of :func:`_minimalize` a
        step costs less, but the bound is kept so that refusals do not
        depend on how reduction is done.
        """
        if level < 1:
            raise ValueError("symbolic power needs level >= 1")
        width = len(self.universe)
        current: list[Vec] = [(0,) * width]
        for cols in self._prime_columns:
            kept, short = [], []
            for u in current:
                deficit = level - sum(u[c] for c in cols)
                if deficit > 0:
                    short.append((u, deficit))
                else:
                    kept.append(u)
            lifted = sum(comb(e + len(cols) - 1, e) for _, e in short)
            work = lifted * len(current)
            if work > cap:
                raise SizeGuardExceeded(
                    f"symbolic power step would reduce {lifted} lifted candidates "
                    f"against {len(current)} generators, estimate {work} (cap {cap})",
                    work,
                )
            # a degree-e monomial in P's variables is a multiset of e columns
            lifts = {}
            for e in {e for _, e in short}:
                lifts[e] = []
                for w in combinations_with_replacement(cols, e):
                    step = [0] * width
                    for c in w:
                        step[c] += 1
                    lifts[e].append(step)
            candidates = [tuple(map(add, u, step)) for u, e in short for step in lifts[e]]
            current = _minimalize(candidates, kept, cap)
        return _from_vecs(self.universe, current)

    def symbolic_member(self, mon: Monomial, level: int) -> bool:
        """Membership in the level-th symbolic power via per-prime degree sums."""
        if level < 1:
            raise ValueError("symbolic power needs level >= 1")
        return _in_symbolic_power(_to_vec(self.universe, mon), self._prime_columns, level)

    @cached_property
    def _prime_columns(self) -> list[list[int]]:
        """Each minimal prime as its sorted vector positions, found once per ideal."""
        idx = self.universe.index
        return [sorted(idx[v] for v in prime) for prime in self.minimal_primes()]


def ideal(universe: Universe, gens: Iterable[Monomial]) -> MonomialIdeal:
    """Build an ideal from any generating set, reduced to minimal generators."""
    vecs = [_to_vec(universe, g) for g in gens]
    return _from_vecs(universe, _minimalize(vecs))


def zero_ideal(universe: Universe) -> MonomialIdeal:
    return MonomialIdeal(universe, ())


def unit_ideal(universe: Universe) -> MonomialIdeal:
    return MonomialIdeal(universe, ((0,) * len(universe),))


# -- scans and certificates ------------------------------------------------


def first_symbolic_gap(
    W: MonomialIdeal, upto: int, cap: int = DEFAULT_CANDIDATE_CAP
) -> tuple[int, Monomial] | None:
    """First level <= upto where the symbolic power exceeds the ordinary one.

    Returns ``(level, witness)`` with a witness generator of the symbolic
    power missing from the ordinary power, or ``None`` if all levels pass.
    The containment ordinary <= symbolic holds always; it is checked on the
    ordinary generators against the minimal primes, found once, and a
    generator that fails it raises :class:`AssertionError`.
    """
    columns = W._prime_columns
    for level in range(1, upto + 1):
        power = W.power(level, cap=cap)
        for v in power.vecs:
            if not _in_symbolic_power(v, columns, level):
                raise AssertionError(
                    f"ordinary power generator {_to_monomial(W.universe, v)} "
                    f"escaped symbolic power {level}"
                )
        symbolic = W.symbolic_power(level, cap=cap)
        for v in symbolic.vecs:
            if not power._divides_into(v):
                return level, _to_monomial(W.universe, v)
    return None


def square_colon_check(W: MonomialIdeal, r: int, cap: int = DEFAULT_CANDIDATE_CAP) -> bool:
    """Check nu in (W^(r+1))^[2] : W^(2r+1), nu the product of all variables.

    For a squarefree proper ideal, this holding for every r >= 0 is
    equivalent to the equality of all symbolic and ordinary powers; a single
    r is checked here and callers scan r up to a bound. Membership in the
    colon is decided generator by generator, which is the definition.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    bracket = W.power(r + 1, cap=cap).bracket_power(2)
    # nu * t is t + 1 everywhere
    return all(
        bracket._divides_into(tuple(e + 1 for e in t))
        for t in W.power(2 * r + 1, cap=cap).vecs
    )


def square_colon_scan(
    W: MonomialIdeal, r_max: int, cap: int = DEFAULT_CANDIDATE_CAP
) -> int | None:
    """First r <= r_max failing :func:`square_colon_check`, or None."""
    return next((r for r in range(r_max + 1) if not square_colon_check(W, r, cap)), None)


# -- internals ---------------------------------------------------------------


def _in_symbolic_power(vec: Vec, columns: Iterable[Sequence[int]], level: int) -> bool:
    """True iff ``vec`` has degree at least ``level`` on every prime's columns."""
    return all(sum(vec[c] for c in cols) >= level for cols in columns)


def _to_vec(universe: Universe, mon: Monomial) -> Vec:
    idx = universe.index
    vec = [0] * len(universe.variables)
    for var, e in mon.items():
        pos = idx.get(var)
        if pos is None:
            raise UniverseMismatch(f"{var} is not in the universe")
        vec[pos] = e
    return tuple(vec)


def _to_monomial(universe: Universe, vec: Vec) -> Monomial:
    vars_ = universe.variables
    return Monomial((vars_[i], e) for i, e in enumerate(vec) if e)


@lru_cache(maxsize=64)
def _variable_order(universe: Universe) -> tuple[int, ...]:
    """Vector positions sorted by variable, as ``Monomial.items`` lists them."""
    return tuple(sorted(range(len(universe)), key=universe.variables.__getitem__))


_ABSENT = float("inf")


def _from_vecs(universe: Universe, vecs: Iterable[Vec]) -> MonomialIdeal:
    """Wrap minimal generators in :meth:`Monomial.canonical_key` order.

    At equal degree that key compares exponents in variable order, a missing
    variable counting above any exponent (the other monomial must still have
    degree left for later variables).
    """
    order = _variable_order(universe)
    return MonomialIdeal(universe, tuple(sorted(
        vecs, key=lambda v: (sum(v), [v[i] or _ABSENT for i in order])
    )))


def _check_cap(count: int, cap: int, what: str) -> None:
    if count > cap:
        raise SizeGuardExceeded(
            f"{what} would enumerate about {count} candidate generators "
            f"(cap {cap})", count,
        )


def _intersect_vecs(a: Sequence[Vec], b: Sequence[Vec], cap: int) -> list[Vec]:
    _check_cap(len(a) * len(b), cap, "intersection")
    candidates = [tuple(max(x, y) for x, y in zip(u, v)) for u in a for v in b]
    return _minimalize(candidates, cap=cap)


def _tree_fold_intersect(pieces: list[list[Vec]], cap: int) -> list[Vec]:
    """Intersect many generator lists pairwise in a balanced tree.

    Used by :meth:`MonomialIdeal.colon` only. There it measured faster than
    a left fold: 0.171 s against 0.288 s, summed over the 26 link colons
    (iniA : iniI) of the benchmark's ``breadth`` workload. Symbolic powers
    use per-prime lifting instead, which needs no pairwise enumeration.
    """
    if not pieces:
        raise ValueError("nothing to intersect")
    level = pieces
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(_intersect_vecs(level[i], level[i + 1], cap))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def _minimal_covers(edges: list[int]) -> list[int]:
    """All minimal vertex covers (as bitmasks) of a clutter of edge bitmasks."""
    results: set[int] = set()

    def bits(mask: int):
        while mask:
            low = mask & -mask
            yield low
            mask ^= low

    def rec(remaining: list[int], included: int, excluded: int) -> None:
        if not remaining:
            results.add(included)
            return
        edge = remaining[0]
        if edge & excluded == edge and not edge & included:
            return  # every vertex of this edge is forbidden
        banned = excluded
        for v in bits(edge):
            if v & banned:
                continue
            rec([e for e in remaining if not e & v], included | v, banned)
            banned |= v

    rec(edges, 0, 0)
    # Irredundant branching can still emit non-minimal covers; keep the antichain.
    out = []
    for c in sorted(results, key=lambda c: (bin(c).count("1"), c)):
        if not any(prev & c == prev for prev in out):
            out.append(c)
    return out
