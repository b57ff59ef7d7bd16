"""Brute-force reference results for the `compare` operations.

These share no code with genlink: every result is found by enumerating a
box of exponent vectors and testing the defining property directly, so a
fast kernel that drifts from the mathematics cannot agree with it by
accident. Sizes are tiny (at most nine variables), so plain loops suffice.

An ideal is a list of exponent tuples over a fixed variable order.
"""

from __future__ import annotations

from itertools import product as cartesian

Vec = tuple[int, ...]


def _divides(a: Vec, b: Vec) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _member(gens: list[Vec], u: Vec) -> bool:
    return any(_divides(g, u) for g in gens)


def minimal(vecs) -> set[Vec]:
    """The minimal generators of the ideal the vectors generate."""
    uniq = set(vecs)
    return {v for v in uniq if not any(w != v and _divides(w, v) for w in uniq)}


def _minimal_members(nvars: int, top: int, is_member) -> set[Vec]:
    """Minimal generators of an ideal given by a membership test, whose
    generators all lie in the box [0, top]^nvars. An ideal is closed upward,
    so a member is minimal iff lowering any one exponent leaves the ideal."""
    members = {u for u in cartesian(range(top + 1), repeat=nvars) if is_member(u)}
    return {
        u for u in members
        if not any(u[i] and u[:i] + (u[i] - 1,) + u[i + 1:] in members for i in range(nvars))
    }


def product(a: list[Vec], b: list[Vec]) -> set[Vec]:
    return minimal(tuple(x + y for x, y in zip(u, v)) for u in a for v in b)


def intersect(a: list[Vec], b: list[Vec]) -> set[Vec]:
    return minimal(tuple(max(x, y) for x, y in zip(u, v)) for u in a for v in b)


def colon(a: list[Vec], b: list[Vec]) -> set[Vec]:
    """Monomials u with u*v in A for every generator v of B.

    Minimal generators of A : B never exceed A's largest exponent, so the
    box up to that exponent holds all of them.
    """
    return _minimal_members(
        len(a[0]), max(max(g) for g in a),
        lambda u: all(_member(a, tuple(x + y for x, y in zip(u, v))) for v in b),
    )


def minimal_primes(a: list[Vec]) -> list[frozenset[int]]:
    """Minimal vertex covers of the supports, by trying every variable subset."""
    nvars = len(a[0])
    supports = [frozenset(i for i, e in enumerate(g) if e) for g in a]
    covers = [
        frozenset(i for i in range(nvars) if mask >> i & 1)
        for mask in range(1 << nvars)
    ]
    covers = [c for c in covers if all(c & s for s in supports)]
    return [c for c in covers if not any(d < c for d in covers)]


def symbolic_power(a: list[Vec], level: int) -> set[Vec]:
    """Monomials of degree >= level on every minimal prime (squarefree A)."""
    primes = minimal_primes(a)
    return _minimal_members(
        len(a[0]), level, lambda u: all(sum(u[i] for i in p) >= level for p in primes)
    )
