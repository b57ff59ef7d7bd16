"""Term orders on grid monomials, as sort keys.

Two orders are provided.

``GradedRevLex`` is the graded reverse-lexicographic order whose variable
ranking reads the grids bottom-up and right-to-left: every Y variable ranks
above every x variable, and within a family ``row`` descending then ``col``
descending, so that x[m,n] > x[m,n-1] > ... > x[m,1] > x[m-1,n] > ... > x[1,1].
Under this order the lead term of an m-minor of the x grid is its
antidiagonal.

``DiagLexOrder`` compares the Y parts of two monomials lexicographically with
the ranking Y[1,1] > Y[2,2] > ... (diagonal first, by row) followed by the
remaining Y variables row-major, and breaks ties with ``GradedRevLex`` on the
x parts.

Each order is one function ``key(mon)`` returning a tuple with
``key(u) < key(v)`` exactly when ``u < v``; ``compare`` derives from it, and
sorting by ``key`` computes each key once. Both orders are total,
multiplicative, and have the unit monomial as unique minimum. Keys are
rule-based on (family, row, col), so monomials need not belong to a declared
universe.

``diaglex_vector_key(variables)`` is the one body of the diagonal-lex key:
it ranks the positions of a variable sequence once and returns a key on
exponent vectors over it. The serializer sorts generators by it over the
universe's variables, with no monomial built, and ``DiagLexOrder.key(mon)``
is the same key over the monomial's own variables. The tests check it
against the brute-force ``bruteforce.diaglex_compare``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .monomial import Monomial, Variable, X_FAMILY, Y_FAMILY


def _ascending_rank(v: Variable) -> tuple:
    # Ascending = smallest variable first: x[1,1] is the global minimum.
    return (0 if v.family == X_FAMILY else 1, v.row, v.col)


def _revlex_key(items) -> tuple:
    """Degree, then (ascending rank, -exponent) over the support: at equal
    degree the first differing variable from the bottom decides, and the
    monomial with the larger exponent there is the smaller one."""
    return (sum(e for _, e in items), tuple(sorted((_ascending_rank(v), -e) for v, e in items)))


def _negated_y_rank(v: Variable) -> tuple:
    # Diagonal Y first by row, then the remaining Y row-major; negated so
    # that the highest variable has the largest rank.
    return (0, -v.row, 0) if v.row == v.col else (-1, -v.row, -v.col)


class _KeyedOrder:
    def compare(self, u: Monomial, v: Monomial) -> int:
        ku, kv = self.key(u), self.key(v)
        return (ku > kv) - (ku < kv)


@dataclass(frozen=True)
class GradedRevLex(_KeyedOrder):
    def key(self, mon: Monomial) -> tuple:
        return _revlex_key(mon.items())


@dataclass(frozen=True)
class DiagLexOrder(_KeyedOrder):
    """Lex on Y parts (diagonal Y first), ties broken by revlex on x parts.

    The key lists the Y part as (negated rank, exponent) pairs, highest
    variable first: a larger exponent, or a higher variable present where
    the other monomial has none, makes the larger key.
    """

    def key(self, mon: Monomial) -> tuple:
        items = mon.items()
        return diaglex_vector_key([v for v, _ in items])([e for _, e in items])


def diaglex_vector_key(variables: Sequence[Variable]) -> Callable[[Sequence[int]], tuple]:
    """The key of :class:`DiagLexOrder` on exponent vectors over ``variables``.

    The positions are ranked here, once; the key then reads a vector's Y
    positions highest variable first and its x positions lowest first: the
    Y part as (negated rank, exponent) pairs, and the x part as the graded
    revlex key of ``GradedRevLex``.
    """
    y_ranked = sorted(
        ((_negated_y_rank(v), p) for p, v in enumerate(variables) if v.family == Y_FAMILY),
        reverse=True,
    )
    x_ranked = sorted(
        (_ascending_rank(v), p) for p, v in enumerate(variables) if v.family == X_FAMILY
    )

    def key(vec: Sequence[int]) -> tuple:
        x_part = tuple([(rank, -e) for rank, p in x_ranked if (e := vec[p])])
        return (
            tuple([(rank, e) for rank, p in y_ranked if (e := vec[p])]),
            (-sum([neg_e for _, neg_e in x_part]), x_part),
        )

    return key
