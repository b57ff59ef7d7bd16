"""Exact arithmetic on monomial ideals over a finite variable universe.

Ideals are kept as minimal generating sets (divisibility antichains).
Operations: product, power, colon, intersection, membership,
minimal primes of squarefree ideals (minimal vertex covers of the support
clutter), symbolic powers of squarefree ideals (the ideal itself at level
1, a fold over the variables by the Zariski-Nagata test at level 2, and
above that a left fold over the minimal primes that lifts each generator
into the next prime power and reduces only the lifted ones), a
symbolic-vs-ordinary scan that computes no prime: it builds each W^(k) by
the Zariski-Nagata fold over the variables, seeded from the ordinary power
W^(k-1), which equals W^(k-1) once the level below has passed, and passes
a level whose W^(k) and W^k have equal generators. Last, a scan of the
square-bracket colon criterion certifying symbolic = ordinary for
squarefree ideals. It builds no power but W^2: at each level s it checks
the sums of the odd cliques, the sets of 2s+1 distinct generators whose
pairs all give a minimal generator of W^2, each its least pair, and asks
whether their halves lie in W^(s+1) by peeling generators of W off them.

An ideal holds its minimal generators once, as dense exponent vectors over
the universe; their support bitmasks, :class:`Monomial` form and minimal
primes are derived on first use. Every kernel takes and returns vectors.
Monomials enter only through :func:`ideal` and
:meth:`~MonomialIdeal.contains` and leave only as
:attr:`~MonomialIdeal.gens` and in failure texts; the universe converts
both ways (``Universe.vector``, ``Universe.monomial``). The kernels work on
packed exponent words (see :func:`_packing`): product, intersection and the
quotients of a colon combine each pair of generators in a few big-int
operations, the symbolic folds lift and test generators on words, and
all of them reduce their distinct results with one word-level reducer
(:func:`_minimalize_words`), unpacking only the minimal generators. The
reducer takes the words in integer order, which puts every divisor first,
scans small antichains pairwise, one subtraction and one AND per pair,
and switches to a bit-sliced divisor index once the antichain is large;
the same index, built over an ideal's generators on first use, answers
membership (a generator itself by set lookup) and tells the variable fold
which generators to lift.
All sizes here are desk scale; an explicit candidate cap guards against
intersection blowup before anything is enumerated, and the index refuses
exponents whose bitsets would not fit. Every refusal is raised by
:func:`check_cap`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, combinations, compress, repeat
from math import comb
from operator import mul
from typing import Callable, Collection, Iterable, Iterator, NamedTuple, Sequence

from .monomial import Monomial, Universe, UniverseMismatch, Variable

DEFAULT_CANDIDATE_CAP = 200_000


class NotSquarefree(ValueError):
    """Raised when an operation defined for squarefree ideals gets a general one."""


class SizeGuardExceeded(RuntimeError):
    """A refusal, raised by :func:`check_cap` alone, with its ``estimate``."""

    def __init__(self, message: str, estimate: int):
        super().__init__(message)
        self.estimate = estimate


def check_cap(count: int, cap: int, what: str, unit: str = "candidate generators") -> None:
    """The one size guard: refuse ``what`` with :class:`SizeGuardExceeded`
    when its ``count`` of ``unit`` exceeds ``cap``. The count is the
    estimate, taken before the work it bounds, or, for a scan that counts
    as it goes, the work done so far."""
    if count > cap:
        raise SizeGuardExceeded(f"{what} would enumerate about {count} {unit} (cap {cap})", count)


Vec = tuple[int, ...]


def _mask(vec: Vec) -> int:
    m = 0
    for i, e in enumerate(vec):
        if e:
            m |= 1 << i
    return m


class _Codec(NamedTuple):
    """A word format, made by :func:`_packing`."""

    pack: Callable[[Iterable[Vec]], list[int]]
    unpack: Callable[[Iterable[int]], list[Vec]]
    guards: int
    shift: int
    top: int
    width: int

    @property
    def ones(self) -> int:  # every field 1
        return self.guards >> self.shift

    @property
    def values(self) -> int:  # every field's value bits
        return self.guards - self.ones


def _packing(top: int, width: int) -> _Codec:
    """The word format for ``width``-long vectors with exponents at most
    ``top``: the packer, which packs vectors into ints, its inverse, the
    guard mask ``G`` and the shift ``s`` from a field's guard bit to its
    lowest bit, with ``top`` and ``width``.

    Each exponent takes a field of whole bytes, ``size`` of them, the first
    exponent the most significant, wide enough to leave the field's top
    bit clear; a byte for exponents below 128. ``G`` has every field's top
    bit set and ``s = 8 * size - 1``. For packed ``U`` and ``V``, no field
    of ``U | G`` is below its guard bit, so ``(U | G) - V`` subtracts each
    field without borrowing from the next and keeps its guard bit iff
    ``u >= v`` there. Hence, with ``ge = ((U | G) - V) & G`` and
    ``fill = ge - (ge >> s)``, the value bits of the fields where
    ``u >= v``:

    - ``v`` divides ``u`` iff ``ge == G``;
    - ``U + V`` packs ``u * v``, if ``top`` bounds its exponents too;
    - ``V ^ ((U ^ V) & fill)`` packs ``lcm(u, v)``;
    - ``((U | G) - V) & fill`` packs ``max(u - v, 0)``;
    - ``U & M``, for ``M`` the value bits of some fields, packs ``u`` on
      those fields alone.

    Fields have one width, so packed words order like the vectors, and a
    divisor is the smaller word (see :func:`_minimalize_words`).
    """
    size = (top.bit_length() + 8) // 8
    guards = int.from_bytes((b"\x80" + bytes(size - 1)) * width, "big")
    shift = 8 * size - 1
    # One-byte fields pack through bytes(), about 6x faster per vector than
    # the general packer. With the general packer alone the benchmark's
    # wall_s rose from 0.0133 to 0.0203 s on symbolic-fold and from 0.0197
    # to 0.0233 s on square-colon (medians of 5 alternating pairs each,
    # every pair slower; 2-core x86-64 VM, Python 3.11).
    if size == 1:
        def pack(vecs: Iterable[Vec]) -> list[int]:
            return list(map(int.from_bytes, map(bytes, vecs), repeat("big")))

        def unpack(words: Iterable[int]) -> list[Vec]:
            return [tuple(w.to_bytes(width, "big")) for w in words]
        return _Codec(pack, unpack, guards, shift, top, width)

    def pack(vecs: Iterable[Vec]) -> list[int]:
        return [int.from_bytes(b"".join(e.to_bytes(size, "big") for e in v), "big") for v in vecs]

    def unpack(words: Iterable[int]) -> list[Vec]:
        starts = range(0, size * width, size)
        raws = [w.to_bytes(size * width, "big") for w in words]
        return [tuple(int.from_bytes(raw[i:i + size], "big") for i in starts) for raw in raws]
    return _Codec(pack, unpack, guards, shift, top, width)


def _top(vecs: Iterable[Vec]) -> int:
    """The largest exponent in ``vecs``, 0 if there is none."""
    return max(chain.from_iterable(vecs), default=0)


# An index keeps one bitset per variable and exponent up to the largest
# exponent it holds. Above this exponent it refuses to be built, so its
# memory does not grow with exponent size; _minimalize_words scans instead.
_INDEX_MAX_EXPONENT = 255


class _DivisorIndex:
    """Bit-sliced index answering "does some indexed vector divide v?".

    Vector i of the index is bit i. ``below[k][e]`` is the bitset of the
    vectors whose exponent at position k is at most e, for e up to
    ``tops[k]``, the largest exponent indexed at k, where every bit is set.
    A query ANDs ``below[k][v[k]]`` over the k with ``v[k] < tops[k]`` and
    stops once nothing is left, so it costs a few big-int ANDs instead of a
    pass over every vector.
    Vectors are added in batches; each batch's bitsets are built on bit 0
    and shifted into place once. A batch with an exponent above
    ``_INDEX_MAX_EXPONENT`` raises :class:`SizeGuardExceeded` before
    anything is allocated.
    """

    __slots__ = ("below", "tops", "size")

    def __init__(self, width: int, vecs: Sequence[Vec] = ()):
        self.below: list[list[int]] = [[0] for _ in range(width)]
        self.tops = [0] * width
        self.size = 0
        self.add(vecs)

    def add(self, vecs: Sequence[Vec]) -> None:
        if not vecs:
            return
        tops = [max(exps) for exps in zip(*vecs)]
        if (highest := max(tops, default=0)) > _INDEX_MAX_EXPONENT:
            check_cap(highest + 1, _INDEX_MAX_EXPONENT + 1, "divisor index", "exponent slices per variable")
        shift, old_all = self.size, (1 << self.size) - 1
        new_all = ((1 << len(vecs)) - 1) << shift
        for col, exps, top in zip(self.below, zip(*vecs), tops):
            # one digit per vector, the last one first, so that vector i is bit i
            raw = bytes(exps)[::-1]
            for e in range(top + 1):
                bits = int(raw.translate(_at_most(e)), 2) << shift if e < top else new_all
                if e < len(col):
                    col[e] |= bits
                else:
                    col.append(old_all | bits)
            for e in range(top + 1, len(col)):
                col[e] |= new_all
        self.tops = list(map(max, self.tops, tops))
        self.size += len(vecs)

    def divides_some(self, vec: Vec) -> bool:
        hits = (1 << self.size) - 1
        for col, top, e in zip(self.below, self.tops, vec):
            if e < top:  # from the top up, below[k][e] is every vector
                hits &= col[e]
                if not hits:
                    return False
        return hits != 0


@lru_cache(maxsize=_INDEX_MAX_EXPONENT)
def _at_most(e: int) -> bytes:
    """The ``bytes.translate`` table taking a byte to ``b"1"`` if it is at
    most ``e``, else to ``b"0"``."""
    return b"1" * (e + 1) + b"0" * (255 - e)


# _minimalize_words switches from the pairwise scan to the index once the
# kept antichain has more than this many members per variable. Measured on
# the reducer's captured inputs, ms summed over the calls, for the
# benchmark's symbolic-fold (155 calls, median 10 candidates against 7 kept
# words) / square-colon (59 calls) workloads / symbolic_power(2) of
# iniJ(3,8) (4,068 calls, median 75 against 53); best of 5 to 15
# interleaved runs, ranges over four sweeps (two for iniJ(3,8)), on a
# 2-core x86-64 VM under Python 3.11:
#   switch at  1x: 8.7-10.8 / 4.0-4.8 / 1893-2873
#              2x: 4.2-5.1 / 4.0-5.4 / 1576-2064
#              4x: 3.2-3.5 / 4.2-5.0 / 988-1250
#              8x: 3.1-3.6 / 5.2-6.6 / 953-1346
#             16x: 3.2-4.4 / 10.2-14.1 / 968-1306
#   scan only:     3.2-4.2 / 25.2-36.1 / 1015-1453
# Below the switch, building an index costs more than the scan it saves;
# 4x is within the spread of the best on all three.
_INDEX_PER_VARIABLE = 4

def _minimalize(vecs: Iterable[Vec], cap: int = DEFAULT_CANDIDATE_CAP) -> list[Vec]:
    """The vectors of ``vecs`` that no other one divides, each once, in no
    set order: they are packed (see :func:`_packing`), reduced by
    :func:`_minimalize_words` and unpacked."""
    distinct = list(set(vecs))
    if not distinct:
        return []
    codec = _packing(_top(distinct), len(distinct[0]))
    return codec.unpack(_minimalize_words([], sorted(codec.pack(distinct)), codec, cap))


def _minimalize_words(kept: list[int], words: list[int], codec: _Codec, cap: int) -> list[int]:
    """Extend the packed antichain ``kept`` by the candidate ``words`` that
    no kept word and no other candidate divides, and return it.

    ``words`` are distinct words in ``codec``'s format, in ascending integer
    order, and none divides a kept word. That order takes every divisor of
    a candidate first. If ``v`` divides ``u``, no field of ``u`` is below
    v's, so ``U - V`` subtracts each field without borrowing from the next:
    it packs the vector ``u - v``, which is at least 0, and is 0 only if
    ``u = v``. So a candidate is kept unless a kept word divides it: a
    candidate dividing it came earlier, and was either kept or divided by
    a kept word. While few are kept they are scanned pairwise, one
    subtraction and one AND per pair. Once more than
    ``_INDEX_PER_VARIABLE`` per variable are kept, the rest go to
    :func:`_minimalize_indexed`. Exponents above ``_INDEX_MAX_EXPONENT``
    keep the scan throughout; then :class:`SizeGuardExceeded` is raised
    first if the candidates times the kept words and candidates, a bound on
    the pairs scanned, exceed ``cap``.
    """
    if not words:
        return kept
    switch = _INDEX_PER_VARIABLE * codec.width
    if codec.top > _INDEX_MAX_EXPONENT and _top(codec.unpack(chain(kept, words))) > _INDEX_MAX_EXPONENT:
        switch = len(kept) + len(words)  # the index would refuse: scan throughout
        check_cap(len(words) * switch, cap, f"reduction of {len(words)} candidates with exponents "
                  f"above {_INDEX_MAX_EXPONENT} against up to {switch} vectors", "comparisons")
    if len(kept) > switch:
        return _minimalize_indexed(kept, words, codec)
    guards = codec.guards
    for pos, word in enumerate(words):
        guarded = word | guards
        for k in kept:
            if (guarded - k) & guards == guards:
                break
        else:
            kept.append(word)
            if len(kept) > switch:
                return _minimalize_indexed(kept, words[pos + 1:], codec)
    return kept


def _minimalize_indexed(kept: list[int], words: list[int], codec: _Codec) -> list[int]:
    """Extend ``kept`` by the distinct ``words`` that no kept word and no
    other word divides, through a :class:`_DivisorIndex` grown one degree
    at a time: distinct vectors of equal degree never divide each other, so
    a degree only needs the kept vectors of lower degree. The words are
    bucketed by the degrees of the vectors they unpack to. None of them
    divides a kept word."""
    index = _DivisorIndex(codec.width, codec.unpack(kept))
    by_degree: dict[int, list[tuple[int, Vec]]] = {}
    for word, vec in zip(words, codec.unpack(words)):
        by_degree.setdefault(sum(vec), []).append((word, vec))
    for degree in sorted(by_degree):
        survivors = [(word, vec) for word, vec in by_degree[degree] if not index.divides_some(vec)]
        index.add([vec for _, vec in survivors])
        kept += [word for word, _ in survivors]
    return kept


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by its minimal generators over a universe.

    ``vecs`` are the generators' exponent vectors in the one generator
    order of every ideal, ``(degree, exponent vector)``: by degree, then as
    tuples, as :func:`_from_vecs` sorts them. ``masks`` are their support
    bitmasks and ``gens`` their monomials, which the universe converts, in
    the same order. A membership query of a generator is a set lookup;
    any other goes through a :class:`_DivisorIndex` over ``vecs``, built
    on first use. The powers W^2, W^3, ... are kept once
    :meth:`power` builds them. The zero ideal has no generators, the unit
    ideal has the single generator 1. Construct through :func:`ideal`,
    which reduces an arbitrary generating set.
    """

    universe: Universe
    vecs: tuple[Vec, ...]

    @cached_property
    def gens(self) -> tuple[Monomial, ...]:
        return tuple(map(self.universe.monomial, self.vecs))

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
        return self._divides_into(self.universe.vector(mon))

    @cached_property
    def _index(self) -> _DivisorIndex:
        return _DivisorIndex(len(self.universe), self.vecs)

    @cached_property
    def _vec_set(self) -> frozenset[Vec]:
        return frozenset(self.vecs)

    def _divides_into(self, vec: Vec) -> bool:
        """True iff some minimal generator divides the exponent vector
        ``vec``; a generator itself is found by lookup, with no index built."""
        return vec in self._vec_set or self._index.divides_some(vec)

    # -- ring operations --------------------------------------------------

    def product(self, other: "MonomialIdeal", cap: int = DEFAULT_CANDIDATE_CAP) -> "MonomialIdeal":
        self._same_universe(other)
        a, b = self.vecs, other.vecs
        check_cap(len(a) * len(b), cap, "product")
        codec = _packing(_top(a) + _top(b), len(self.universe))
        words = codec.pack(b)
        candidates = {u + v for u in codec.pack(a) for v in words}
        reduced = _minimalize_words([], sorted(candidates), codec, cap)
        return _from_vecs(self.universe, codec.unpack(reduced))

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
        check_cap(len(self.vecs), cap, "product")  # W^1 = 1 * W
        power = self
        for k in range(2, s + 1):
            check_cap(len(power.vecs) * len(self.vecs), cap, "product")
            if len(self._powers) < k - 1:
                self._powers.append(power.product(self, cap=cap))
            power = self._powers[k - 2]
        return power

    @cached_property
    def _powers(self) -> list["MonomialIdeal"]:
        """W^2, W^3, ... as far as built; W^1 stays out, so no ideal refers
        to itself."""
        return []

    def colon(self, other: "MonomialIdeal", cap: int = DEFAULT_CANDIDATE_CAP) -> "MonomialIdeal":
        """W : V, the ideal of monomials multiplying V into W."""
        self._same_universe(other)
        if other.is_zero():
            raise ValueError("colon by the zero ideal")
        codec = _packing(max(_top(self.vecs), _top(other.vecs)), len(self.universe))
        guards, shift = codec.guards, codec.shift
        guarded = [u | guards for u in codec.pack(self.vecs)]
        pieces = []
        for v in codec.pack(other.vecs):
            diffs = [g - v for g in guarded]
            # max(u - v, 0) for every u, see _packing
            quotients = {d & ((ge := d & guards) - (ge >> shift)) for d in diffs}
            pieces.append(_minimalize_words([], sorted(quotients), codec, cap))
        folded = _tree_fold_intersect(pieces, codec, cap)
        return _from_vecs(self.universe, codec.unpack(folded))

    def intersect(self, other: "MonomialIdeal", cap: int = DEFAULT_CANDIDATE_CAP) -> "MonomialIdeal":
        self._same_universe(other)
        a, b = self.vecs, other.vecs
        codec = _packing(max(_top(a), _top(b)), len(self.universe))
        folded = _intersect_words(codec.pack(a), codec.pack(b), codec, cap)
        return _from_vecs(self.universe, codec.unpack(folded))

    # -- squarefree combinatorics ------------------------------------------

    def minimal_primes(self) -> tuple[frozenset[Variable], ...]:
        """Minimal transversals of the support clutter of a squarefree ideal.

        Each returned variable set is a minimal prime; none contains another.
        They come by size, then by their sorted variables, as
        :attr:`_prime_columns` lists them.
        """
        vars_ = self.universe.variables
        return tuple(frozenset(map(vars_.__getitem__, cols)) for cols in self._prime_columns)

    def symbolic_power(self, level: int, cap: int = DEFAULT_CANDIDATE_CAP) -> "MonomialIdeal":
        """The level-th symbolic power of a proper nonzero squarefree ideal:
        the intersection of the level-th powers of its minimal primes
        (Herzog-Hibi-Trung).

        The level alone picks the computation. Level 1 is the ideal itself,
        as a squarefree ideal is radical. Level 2 is the Zariski-Nagata step
        of the ideal (:meth:`_variable_fold`), one step per variable, and
        needs no prime. Higher levels fold over the minimal primes
        (:meth:`_prime_fold`). Each fold refuses with
        :class:`SizeGuardExceeded` before a step would exceed ``cap``. The
        zero and unit ideals raise :class:`ValueError`, any other ideal that
        is not squarefree :class:`NotSquarefree`.
        """
        if level < 1:
            raise ValueError("symbolic power needs level >= 1")
        self._require_squarefree()
        if level == 1:
            return self
        if level == 2:
            return self._variable_fold(cap)
        return self._prime_fold(level, cap)

    def _prime_fold(self, level: int, cap: int) -> "MonomialIdeal":
        """The level-th symbolic power as a left fold from the unit ideal
        over the primes in :meth:`minimal_primes` order. Each step lifts the
        current antichain into ``P^level``: a generator ``u`` of P-degree
        ``d >= level`` is kept as it is, any other ``u`` becomes ``u * w``
        for every degree-``(level - d)`` monomial ``w`` in P's variables,
        which generates ``(u) ∩ P^level``. Only the lifted candidates are
        reduced, against the kept generators and each other
        (:func:`_minimalize_words`): no lifted ``u * w`` divides a kept
        ``v``, since then ``u`` would divide ``v`` in the previous antichain.

        The antichain stays packed (see :func:`_packing`) from the first
        prime to the last and is unpacked once, at the end: every ``u * w``
        has exponents at most ``level``, so one word format fits the whole
        fold. A P-degree is read from the unpacked ``u``, and a lift
        ``u * w`` is the sum ``u + w`` of words; the distinct lifts go to
        the reducer in integer order.

        Before a step enumerates anything the guard refuses when its lifted
        count times the current antichain size exceeds ``cap``. This bounds
        the candidates a step produces, weighted by the antichain they are
        reduced against; it is not a count of comparisons, since the lifted
        candidates are also reduced against each other and the antichain
        grows as they are kept. Kept generators are not counted, as they
        are not reduced. Above the index switch of :func:`_minimalize_words`
        a step costs less, but the bound is kept so that refusals do not
        depend on how reduction is done. Above ``_INDEX_MAX_EXPONENT`` the
        reducer may have no index and scan pairwise, refusing when its
        candidates times the kept words and candidates exceed ``cap``; there
        the step guard counts ``lifted * (kept + lifted)``, which bounds that
        count, so such a step refuses before it lists its lifts.
        """
        width = len(self.universe)
        codec = _packing(level, width)
        units = _unit_words(codec)
        current = codec.pack([(0,) * width])
        for cols in self._prime_columns:
            kept, short = [], []
            for u, vec in zip(current, codec.unpack(current)):
                deficit = level - sum(map(vec.__getitem__, cols))
                if deficit > 0:
                    short.append((u, deficit))
                else:
                    kept.append(u)
            lifted = sum(comb(e + len(cols) - 1, e) for _, e in short)
            if level > _INDEX_MAX_EXPONENT:  # the reducer may scan: count as its guard does
                against, what = len(kept) + lifted, "kept generators and lifted candidates"
            else:
                against, what = len(current), "generators"
            if (work := lifted * against) > cap:
                check_cap(work, cap, f"symbolic power step reducing {lifted} lifted "
                          f"candidates against {against} {what}", "candidate pairs")
            lifts = {e: _degree_words(units, cols, e) for e in {e for _, e in short}}
            lifted_words = {u + w for u, e in short for w in lifts[e]}  # deduplicated as words
            current = _minimalize_words(kept, sorted(lifted_words), codec, cap)
        return _from_vecs(self.universe, codec.unpack(current))

    def _variable_fold(self, cap: int) -> "MonomialIdeal":
        """The Zariski-Nagata step of this ideal ``K``: the ideal of the
        ``u`` in ``K`` with ``u / x_i`` in ``K`` for every variable ``x_i``
        of K's support that divides ``u``. It is a left fold from ``K`` over
        those variables, one step per variable.

        For a squarefree ``I`` and ``k >= 2``, ``u`` lies in ``I^(k)`` iff
        ``u`` and every such ``u / x_i`` lie in ``I^(k-1)``: on a prime P
        with ``deg_P(u) >= k - 1 >= 1`` some ``x_i`` of P divides ``u``, and
        ``u / x_i`` has P-degree one less. This is the monomial form of
        Zariski-Nagata. So the step of ``K = I`` is ``I^(2)``, and the step
        of ``K = I^(k-1)`` is ``I^(k)``.

        The step for ``x_i`` intersects the current antichain with
        ``K_i + x_i * K``, the ``u`` of ``K`` that ``x_i`` does not divide
        or with ``u / x_i`` in ``K``, where ``K_i`` is generated by the
        generators of ``K`` free of ``x_i``. A generator ``u`` is kept if
        ``x_i`` does not divide it or ``q = u / x_i`` lies in ``K``, which
        K's divisor index tells. Any other ``u`` becomes
        ``x_i * lcm(q, v) = u + max(v - q, 0)`` for every generator ``v`` of
        ``K``, which generates ``(u) ∩ (K_i + x_i * K)``. A generator of
        ``K`` that divides ``u`` but not ``q`` has the part
        ``max(v - q, 0) = x_i``, which divides the part of every ``v`` with
        more ``x_i`` than ``q``. So ``u`` becomes ``u * x_i``, and ``u``
        times the parts of the ``v`` with at most q's exponent of ``x_i``.
        Only the minimal parts are kept, reduced per ``u``
        (:func:`_minimalize_words`, which takes words in integer order and
        so needs no degree). The lifted candidates are then reduced against
        the kept generators and each other; no lifted word divides a kept
        one, by the antichain argument of :meth:`_prime_fold`.

        The variables come in :attr:`_support_columns` order, those in the
        most generators first, which keeps the early antichains small: on
        iniJ(3,8) the step of ``iniJ`` takes 12 ms in that order and 30 ms
        in universe order. Every exponent stays at most one above K's
        largest, so one word format (see :func:`_packing`) serves the whole
        fold, and the antichain is unpacked once, at the end.

        The guard counts one word per pair of a short generator and a
        generator of ``K`` it is lifted by, and one index query (or a scan
        of at most the index switch) per distinct lifted candidate. It
        refuses with :class:`SizeGuardExceeded` when the pairs exceed
        ``cap``, before they are enumerated, and when the pairs and lifted
        candidates do, before those are reduced.
        """
        top = _top(self.vecs)
        codec = _packing(top + 1, len(self.universe))
        guards, shift = codec.guards, codec.shift
        units = _unit_words(codec)
        gens = codec.pack(self.vecs)
        index = self._index
        current = gens
        for col in self._support_columns:
            unit = units[col]
            field = unit * ((1 << shift) - 1)  # the value bits of x_i's field
            # the generators of K with exponent at most e at col, e <= top
            at_most = [[v for v, vec in zip(gens, self.vecs) if vec[col] <= e] for e in range(top + 1)]
            kept = [u for u in current if not u & field]
            divisible = [u for u in current if u & field]
            short = []
            for u, q in zip(divisible, codec.unpack([u - unit for u in divisible])):
                if index.divides_some(q):
                    kept.append(u)
                else:
                    short.append((u, at_most[q[col]]))
            pairs = sum(len(vs) for _, vs in short)
            check_cap(pairs, cap, "symbolic power step")
            lifted = {u + unit for u, _ in short}
            for u, vs in short:
                q = u - unit
                # max(v - q, 0), see _packing
                parts = {d & ((ge := d & guards) - (ge >> shift)) for d in [(v | guards) - q for v in vs]}
                lifted.update([u + w for w in _minimalize_words([], sorted(parts), codec, cap)])
            check_cap(pairs + len(lifted), cap, "symbolic power step")
            current = _minimalize_words(kept, sorted(lifted), codec, cap)
        return _from_vecs(self.universe, codec.unpack(current))

    def _require_squarefree(self) -> None:
        """Raise unless this is a proper nonzero squarefree ideal, the
        ideals whose symbolic powers and minimal primes are computed here."""
        if self.is_zero() or self.is_unit():
            raise ValueError("squarefree symbolic powers need a proper nonzero ideal")
        if not self.is_squarefree():
            raise NotSquarefree("symbolic powers implemented for squarefree ideals only")

    @cached_property
    def _support_columns(self) -> list[int]:
        """The vector positions some generator uses, those used by the most
        generators first."""
        counts = [sum(map(bool, exps)) for exps in zip(*self.vecs)]
        return sorted((i for i, c in enumerate(counts) if c), key=lambda i: -counts[i])

    @cached_property
    def _prime_columns(self) -> list[list[int]]:
        """Each minimal prime as its sorted vector positions, found once per
        ideal from the cover bitmasks (see :meth:`minimal_primes`), by size,
        then by sorted variables."""
        self._require_squarefree()
        variables = self.universe.variables
        # a cover's bits come lowest first, so its positions are sorted
        covers = [
            [b.bit_length() - 1 for b in _bits(cover)]
            for cover in _minimal_covers(list(self.masks))
        ]
        covers.sort(key=lambda cols: (len(cols), sorted(map(variables.__getitem__, cols))))
        return covers


def ideal(universe: Universe, gens: Iterable[Monomial]) -> MonomialIdeal:
    """Build an ideal from any generating set, reduced to minimal generators."""
    return _from_vecs(universe, _minimalize(map(universe.vector, gens)))


def zero_ideal(universe: Universe) -> MonomialIdeal:
    return MonomialIdeal(universe, ())


@lru_cache(maxsize=64)
def unit_ideal(universe: Universe) -> MonomialIdeal:
    """The unit ideal, one per universe, so its divisor index is built once."""
    return MonomialIdeal(universe, ((0,) * len(universe),))


# -- scans and certificates ------------------------------------------------


def first_symbolic_gap(
    W: MonomialIdeal, upto: int, cap: int = DEFAULT_CANDIDATE_CAP
) -> tuple[int, Vec] | None:
    """First level <= upto where the symbolic power exceeds the ordinary one.

    Returns ``(level, witness)`` with the exponent vector of a generator of
    the symbolic power missing from the ordinary power, or ``None`` if all
    levels pass.
    No minimal prime is computed. Level 1 passes once W is a proper nonzero
    squarefree ideal, else :class:`ValueError` (:class:`NotSquarefree`) is
    raised: a squarefree ideal is radical, so W^(1) = W. Each level k >= 2
    builds W^(k) as the Zariski-Nagata step
    (:meth:`~MonomialIdeal._variable_fold`) of ``W.power(k - 1)``, which
    equals W^(k-1) since level k - 1 passed both inclusions.
    W^(k) and W^k both come as minimal generators sorted by
    ``(degree, exponent vector)``, so equal ``vecs`` pass the level.
    Otherwise ordinary <= symbolic, which holds always, is tested first: a
    generator of W^k outside W^(k) raises :class:`AssertionError`. Then the
    witness is the first generator of W^(k) outside W^k in that order, one
    of least degree. An ``upto`` below 1 raises :class:`ValueError`, as it
    would check nothing.
    """
    if upto < 1:
        raise ValueError("upto must be at least 1")
    for level in range(1, upto + 1):
        power = W.power(level, cap=cap)
        if level == 1:
            W._require_squarefree()
            continue
        symbolic = W.power(level - 1, cap=cap)._variable_fold(cap)
        if symbolic.vecs == power.vecs:
            continue
        for v in power.vecs:
            if not symbolic._divides_into(v):
                raise AssertionError(
                    f"ordinary power generator {W.universe.monomial(v)} "
                    f"escaped symbolic power {level}"
                )
        for v in symbolic.vecs:
            if not power._divides_into(v):
                return level, v
    return None


def _all_covered(vecs: Sequence[Vec], words: Collection[int], codec: _Codec) -> bool:
    """True iff every packed word of ``words`` is at least, fieldwise, some
    vector of ``vecs``.

    The words are bit-sliced, one bit per word: the bitset of the words at
    least ``e`` at column ``k`` is read straight from their bytes, one
    ``bytes.translate`` of the column's low field bytes, or-ed with the
    words whose field there exceeds 255. A vector covers the AND of its
    support ``(column, exponent)`` pairs' bitsets, and only the bitsets the
    vectors read are built. Vectors are taken in turn against the words not
    yet covered, until none is left. The exponents of ``vecs`` must be at
    most ``_INDEX_MAX_EXPONENT``; the caller refuses larger ones before it
    calls.
    """
    size = (codec.shift + 1) // 8
    stride = size * codec.width
    raw = b"".join(map(int.to_bytes, words, repeat(stride), repeat("big")))
    everyone = (1 << len(words)) - 1
    at_least: dict[tuple[int, int], int] = {}
    uncovered = everyone
    for v in vecs:
        covered = uncovered
        for pair in compress(enumerate(v), v):
            bits = at_least.get(pair)
            if bits is None:
                k, e = pair
                bits = everyone ^ int(raw[k * size + size - 1::stride].translate(_at_most(e - 1)), 2)
                for b in range(k * size, k * size + size - 1):  # the field's higher bytes
                    bits |= everyone ^ int(raw[b::stride].translate(_at_most(0)), 2)
                at_least[pair] = bits
            covered &= bits
            if not covered:
                break
        uncovered ^= covered
        if not uncovered:
            break
    return not uncovered


def products_covered(a: MonomialIdeal, b: MonomialIdeal, into: MonomialIdeal, cap: int) -> bool:
    """True iff ``into`` holds every product of a generator of ``a`` and one
    of ``b``, tested by :func:`_all_covered` with no reducer. Refuses with
    :class:`SizeGuardExceeded` when there are more than ``cap`` products,
    or when an exponent of ``into`` is above ``_INDEX_MAX_EXPONENT``."""
    check_cap(len(a.vecs) * len(b.vecs), cap, "product")
    check_cap(_top(into.vecs) + 1, _INDEX_MAX_EXPONENT + 1, "cover test", "exponent slices per variable")
    codec = _packing(_top(a.vecs) + _top(b.vecs), len(a.universe))
    words = codec.pack(b.vecs)
    return _all_covered(into.vecs, {t + v for t in codec.pack(a.vecs) for v in words}, codec)


def is_antichain(W: MonomialIdeal) -> bool:
    """True iff no generator of ``W`` divides another, tested pairwise on
    packed words with no reducer (see :func:`_packing`)."""
    codec = _packing(_top(W.vecs), len(W.universe))
    guards, words = codec.guards, codec.pack(W.vecs)
    return not any(a != b and ((b | guards) - a) & guards == guards for a in words for b in words)


def square_colon_scan(
    W: MonomialIdeal, r_max: int, cap: int = DEFAULT_CANDIDATE_CAP
) -> int | None:
    """First r <= r_max at which the square-bracket colon criterion fails,
    or None.

    The criterion at r is nu in (W^(r+1))^[2] : W^(2r+1), nu the product of
    all variables. For a squarefree proper ideal it holds for every r >= 0
    iff all symbolic and ordinary powers agree. For a monomial t, some s^2
    with s in W^(r+1) divides nu * t = t + 1 iff 2s <= t + 1, that is
    ``s <= ceil(t / 2)``, so t passes iff ceil(t / 2) lies in W^(r+1), and
    passing is upward closed in t. Every minimal generator of W^(2r+1) is a
    sum of 2r+1 minimal generators of W, and every such sum lies in
    W^(2r+1). So level r holds iff every multiset M of 2r+1 generators
    passes; say M fails when ``ceil(sum(M) / 2)`` is not in W^(r+1).

    Level s = 0, 1, ... tests only the sets D of 2s+1 distinct generators
    that are cliques of the good-pair graph (:func:`_good_pairs`): a < b, in
    the order of ``W.vecs``, is good when a + b is a minimal generator of
    W^2, equals no square 2c of a generator, and (a, b) is the
    lexicographically least pair with that sum. The first s with a failing
    D is the first failing r:

    (i) a multiset M of 2r+1 generators is D + 2E, D its generators of odd
        multiplicity, 2s+1 of them for some s <= r, and
        ``ceil(sum(M) / 2) = ceil(sum(D) / 2) + sum(E)`` with sum(E) in
        W^(r-s); so if M fails, D fails at level s. Level r fails iff some
        M fails, so at the first failing r some D fails with s = r: a
        repeated generator never fails first;
    (ii) a failing D at level s is a failing multiset, so level s fails;
    (iii) at the first failing s, take the failing D that is least by
        sum(D) under divisibility, then by its sorted index tuple. Were a
        pair a < b in D not good, swap it for (c, d): a pair whose sum
        properly divides a + b, the square (c, c) with 2c = a + b, or the
        least pair with the sum a + b. The half does not grow, so the new
        multiset fails; with a repeat, its odd part would fail at a lower
        level by (i), which (ii) rules out; without one, it has a smaller
        sum, or the same sum and a smaller sorted index tuple (c < a, or
        c = a and d < b, and c, d are not in D). Either way D was not
        least, so D is a clique.

    Level s takes the halves ``(sum(D) + 1) >> 1`` from the clique stream
    and answers each by peeling generators off it (:func:`_all_in_power`),
    so it builds no W^(s+1): h lies in W^(s+1) iff some generator g of W
    divides h and h - g lies in W^s. The one power built is W^2, by
    :meth:`MonomialIdeal.power` with its product guard, for the good pairs;
    it is reused when W keeps it already. A level refuses with
    :class:`SizeGuardExceeded` once it has taken more than ``cap`` halves,
    or once its peel has made more than ``cap`` divisibility tests; the
    estimate is that count, a lower bound on the level's work. A negative
    ``r_max`` raises :class:`ValueError`, as it would check nothing.
    """
    if r_max < 0:
        raise ValueError("r_max must be nonnegative")
    gens = W.vecs
    above: list[int] = []
    for s in range(r_max + 1):
        codec = _packing((2 * s + 1) * _top(gens), len(W.universe))
        words = codec.pack(gens)
        if s == 1:
            above = _good_pairs(words, codec.pack(W.power(2, cap=cap).vecs))
        # ceil(t / 2) = (t + 1) >> 1 fieldwise: the sums carry the + 1, which
        # may reach a field's guard bit but not carry past it, and the low bit
        # each field shifts into the guard bit of the field below is masked off
        values = codec.values
        sums = _clique_sums(words, above, 2 * s + 1, codec.ones, (1 << len(words)) - 1)
        if not _all_in_power(((t >> 1) & values for t in sums), words, s + 1, codec.guards, cap):
            return s
    return None


def _all_in_power(halves: Iterable[int], words: list[int], j: int, guards: int, cap: int) -> bool:
    """True iff every word of ``halves`` lies in W^j, ``j >= 1``, for the
    ideal W of the packed generators ``words`` with guard mask ``guards``
    (see :func:`_packing`).

    A word h lies in W^j iff some generator g divides h and h - g lies in
    W^(j-1); at j = 1 that is a plain divisor test. The generators are
    tried in turn, one divisibility test each, until one answers, and each
    depth keeps one dict of the words it has answered, so no word is peeled
    twice at one depth. :class:`SizeGuardExceeded` is raised once more than
    ``cap`` halves are taken, or once more than ``cap`` tests are made.
    """
    memos: list[dict[int, bool]] = [{} for _ in range(j + 1)]
    tests = 0

    def member(h: int, depth: int) -> bool:
        nonlocal tests
        memo = memos[depth]
        found = memo.get(h)
        if found is None:
            guarded, found, count = h | guards, False, 0
            for count, g in enumerate(words, 1):
                if (guarded - g) & guards == guards and (depth == 1 or member(h - g, depth - 1)):
                    found = True
                    break
            tests += count
            if tests > cap:
                check_cap(tests, cap, f"square-colon scan for W^{j}", "divisibility tests")
            memo[h] = found
        return found

    for taken, h in enumerate(halves, 1):
        if taken > cap:
            check_cap(taken, cap, f"square-colon scan for W^{j}", "halves")
        if not member(h, j):
            return False
    return True


def _good_pairs(words: list[int], square: list[int]) -> list[int]:
    """The good pairs of :func:`square_colon_scan`: for each index a of the
    packed generators ``words``, the bitmask of the b > a with (a, b) good.
    ``square`` holds the packed minimal generators of W^2."""
    least: dict[int, tuple[int, int]] = {}
    for a, b in combinations(range(len(words)), 2):
        least.setdefault(words[a] + words[b], (a, b))
    for w in words:
        least.pop(w + w, None)
    above = [0] * len(words)
    for t in square:
        if t in least:
            a, b = least[t]
            above[a] |= 1 << b
    return above


def _clique_sums(words: list[int], above: list[int], size: int, total: int, among: int) -> Iterator[int]:
    """``total`` plus the words of each clique of ``size`` vertices in the
    bitmask ``among``, for the graph whose vertex j has the neighbours
    ``above[j]``, all above j."""
    while among:
        low = among & -among
        among ^= low
        j = low.bit_length() - 1
        if size == 1:
            yield total + words[j]
        elif (rest := among & above[j]).bit_count() >= size - 1:
            yield from _clique_sums(words, above, size - 1, total + words[j], rest)


# -- internals ---------------------------------------------------------------


def _unit_words(codec: _Codec) -> list[int]:
    """The packed unit vectors, the i-th one at position i."""
    width = codec.width
    return codec.pack(tuple(int(i == c) for i in range(width)) for c in range(width))


def _degree_words(units: list[int], cols: list[int], e: int) -> list[int]:
    """The packed degree-``e`` monomials in the variables at ``cols``, one
    per placement of ``p - 1`` bars ``b_0 < ... < b_(p-2)`` among
    ``e + p - 1`` slots, ``p = len(cols)`` (stars and bars). With
    ``b_(-1) = -1`` and ``b_(p-1) = e + p - 1``, the exponent of
    ``u_i = units[cols[i]]`` is ``b_i - b_(i-1) - 1``, so the word is
    ``sum(b_i * (u_i - u_(i+1)) for i < p - 1)`` plus a constant: p - 1
    products per word, where summing its e unit words would take e."""
    us = [units[c] for c in cols]
    end = e + len(us) - 1
    base = end * us[-1] + us[0] - sum(us)
    steps = [u - v for u, v in zip(us, us[1:])]
    return [sum(map(mul, bars, steps), base) for bars in combinations(range(end), len(us) - 1)]


def _bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask`` as one-bit masks, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _from_vecs(universe: Universe, vecs: Iterable[Vec]) -> MonomialIdeal:
    """Wrap minimal generators in ``(degree, exponent vector)`` order."""
    return MonomialIdeal(universe, tuple(sorted(sorted(vecs), key=sum)))


def _intersect_words(a: list[int], b: list[int], codec: _Codec, cap: int) -> list[int]:
    """Minimal generators of the intersection of two packed antichains."""
    check_cap(len(a) * len(b), cap, "intersection")
    guards, shift = codec.guards, codec.shift
    # lcm(u, v) for every pair, see _packing
    lcms = {
        v ^ ((u ^ v) & ((ge := ((u | guards) - v) & guards) - (ge >> shift)))
        for u in a for v in b
    }
    return _minimalize_words([], sorted(lcms), codec, cap)


def _tree_fold_intersect(pieces: list[list[int]], codec: _Codec, cap: int) -> list[int]:
    """Intersect many packed generator lists pairwise in a balanced tree.

    Used by :meth:`MonomialIdeal.colon` only. There it measured faster than
    a left fold: 53-63 ms against 97-99 ms, summed over the 26 link colons
    (iniA : iniI) of the benchmark's ``breadth`` workload (best of 15, two
    runs, 2-core x86-64 VM, Python 3.11). The symbolic folds intersect
    with one prime power or one ``x_i * I + I_i`` at a time by lifting each
    generator that is not in it, and need no pairwise enumeration.
    """
    if not pieces:
        raise ValueError("nothing to intersect")
    level = pieces
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(_intersect_words(level[i], level[i + 1], codec, cap))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def _minimal_covers(edges: list[int]) -> list[int]:
    """All minimal vertex covers (as bitmasks) of a clutter of edge bitmasks."""
    results: set[int] = set()

    def rec(remaining: list[int], included: int, excluded: int) -> None:
        if not remaining:
            # Irredundant branching can still reach non-minimal covers. A
            # cover is minimal iff each of its vertices is the only one it
            # has on some edge.
            private = 0
            for e in edges:
                hit = e & included
                if not hit & (hit - 1):
                    private |= hit
            if private == included:
                results.add(included)
            return
        edge = remaining[0]
        if edge & excluded == edge and not edge & included:
            return  # every vertex of this edge is forbidden
        banned = excluded
        for v in _bits(edge):
            if v & banned:
                continue
            rec([e for e in remaining if not e & v], included | v, banned)
            banned |= v

    rec(edges, 0, 0)
    return sorted(results, key=lambda c: (bin(c).count("1"), c))
