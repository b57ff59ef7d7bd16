"""Grid-indexed variables, exact monomials, and variable universes.

Variables are positions in one of two integer grids: a lower-case ``x`` grid
of shape m-by-n and an upper-case ``Y`` grid. A monomial is a finite map from
variables to positive integer exponents (the empty map is the unit monomial).
A universe is an ordered list of variables fixing the ambient polynomial
ring; ideals and serialization are always relative to a universe.

Everything is an immutable value and safe to share between threads.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

X_FAMILY = "x"
Y_FAMILY = "Y"


class Variable(NamedTuple):
    family: str
    row: int
    col: int

    def __str__(self) -> str:
        return f"{self.family}[{self.row},{self.col}]"

    def tex(self) -> str:
        return f"{self.family}_{{{self.row},{self.col}}}"


def xvar(row: int, col: int) -> Variable:
    return Variable(X_FAMILY, row, col)


def yvar(row: int, col: int) -> Variable:
    return Variable(Y_FAMILY, row, col)


# ASCII digits only: \d would also read other scripts' digits
_VARIABLE_RE = re.compile(r"\s*([xY])\[([0-9]+),([0-9]+)\]\s*$")


def parse_variable(text: str) -> Variable:
    """Parse the canonical text form ``x[i,j]`` / ``Y[i,j]``, indices in
    ASCII digits, with whitespace allowed around it."""
    m = _VARIABLE_RE.match(text)
    if m is None:
        raise ValueError(f"not a variable: {text!r}")
    return Variable(m.group(1), int(m.group(2)), int(m.group(3)))


class Monomial:
    """A finite map from :class:`Variable` to positive integer exponents.

    Zero exponents are dropped on construction; negative exponents are
    rejected. The unit monomial is ``Monomial()``.
    """

    __slots__ = ("_exps",)

    def __init__(self, exps: Mapping[Variable, int] | Iterable[tuple[Variable, int]] = ()):
        acc: dict[Variable, int] = {}
        items = exps.items() if isinstance(exps, Mapping) else exps
        for var, e in items:
            if not isinstance(var, Variable):
                raise TypeError(f"not a Variable: {var!r}")
            if not isinstance(e, int):
                raise TypeError(f"exponent of {var} must be an int, got {e!r}")
            if e < 0:
                raise ValueError(f"negative exponent for {var}: {e}")
            if e:
                acc[var] = acc.get(var, 0) + e
        self._exps: tuple[tuple[Variable, int], ...] = tuple(sorted(acc.items()))

    @classmethod
    def _trusted(cls, exps: tuple[tuple[Variable, int], ...]) -> "Monomial":
        """Wrap exponent pairs already sorted by variable, each exponent a
        positive int; for results of arithmetic on valid monomials."""
        mon = cls.__new__(cls)
        mon._exps = exps
        return mon

    @classmethod
    def one(cls) -> "Monomial":
        return cls()

    @classmethod
    def of(cls, *variables: Variable) -> "Monomial":
        """Product of the given variables, repetitions accumulating."""
        return cls((v, 1) for v in variables)

    def items(self) -> tuple[tuple[Variable, int], ...]:
        return self._exps

    def exponent(self, var: Variable) -> int:
        for v, e in self._exps:
            if v == var:
                return e
        return 0

    def degree(self) -> int:
        return sum(e for _, e in self._exps)

    def support(self) -> frozenset[Variable]:
        return frozenset(v for v, _ in self._exps)

    def is_unit(self) -> bool:
        return not self._exps

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self._exps)

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not isinstance(other, Monomial):
            return NotImplemented
        acc = dict(self._exps)
        for v, e in other._exps:
            acc[v] = acc.get(v, 0) + e
        return Monomial._trusted(tuple(sorted(acc.items())))

    def __pow__(self, k: int) -> "Monomial":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise ValueError("negative power")
        if not k:
            return Monomial()
        return Monomial._trusted(tuple((v, e * k) for v, e in self._exps))

    def divides(self, other: "Monomial") -> bool:
        return all(other.exponent(v) >= e for v, e in self._exps)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Monomial) and self._exps == other._exps

    def __hash__(self) -> int:
        return hash(self._exps)

    def __str__(self) -> str:
        if not self._exps:
            return "1"
        return "*".join(str(v) if e == 1 else f"{v}^{e}" for v, e in self._exps)

    def tex(self) -> str:
        if not self._exps:
            return "1"
        return " ".join(v.tex() if e == 1 else f"{v.tex()}^{{{e}}}" for v, e in self._exps)

    def __repr__(self) -> str:
        return f"Monomial({self})"

    @classmethod
    def from_text(cls, text: str) -> "Monomial":
        """Parse ``*``-joined powers, e.g. ``x[1,2]^2*Y[1,1]``; ``1`` is the unit.
        An exponent is positive, in ASCII digits, with whitespace allowed
        around it as around a variable."""
        text = text.strip()
        if text == "1":
            return cls()
        acc: dict[Variable, int] = {}
        for factor in text.split("*"):
            base, caret, exp = factor.partition("^")
            var = parse_variable(base)
            exp = exp.strip()  # int() would also take signs, "_" and other scripts' digits
            if caret and not (exp.isascii() and exp.isdigit() and int(exp)):
                raise ValueError(f"bad exponent in {factor!r}")
            e = int(exp) if caret else 1
            acc[var] = acc.get(var, 0) + e
        return cls(acc)


@dataclass(frozen=True)
class Universe:
    """An ordered list of variables together with the declared grid bounds.

    ``m``-by-``n`` bounds the x grid, ``y_rows``-by-``y_cols`` the Y grid.
    The variable list may be any subset of the two grids (e.g. only the
    diagonal of the Y grid); bounds are validity limits, not coverage claims.
    """

    m: int
    n: int
    y_rows: int
    y_cols: int
    variables: tuple[Variable, ...]

    def __post_init__(self) -> None:
        seen = set()
        for v in self.variables:
            if v in seen:
                raise ValueError(f"duplicate variable {v}")
            seen.add(v)
            if v.family == X_FAMILY:
                if not (1 <= v.row <= self.m and 1 <= v.col <= self.n):
                    raise ValueError(f"{v} outside the {self.m}x{self.n} x-grid")
            elif v.family == Y_FAMILY:
                if not (1 <= v.row <= self.y_rows and 1 <= v.col <= self.y_cols):
                    raise ValueError(f"{v} outside the {self.y_rows}x{self.y_cols} Y-grid")
            else:
                raise ValueError(f"unknown family {v.family!r}")

    @classmethod
    def x_grid(cls, m: int, n: int) -> "Universe":
        """All x[i,j] of an m-by-n grid, row-major."""
        vs = tuple(xvar(i, j) for i in range(1, m + 1) for j in range(1, n + 1))
        return cls(m, n, 0, 0, vs)

    @classmethod
    def full(cls, m: int, n: int, y_rows: int, y_cols: int) -> "Universe":
        """The full x grid followed by the full Y grid, row-major."""
        vs = tuple(xvar(i, j) for i in range(1, m + 1) for j in range(1, n + 1))
        vs += tuple(yvar(i, j) for i in range(1, y_rows + 1) for j in range(1, y_cols + 1))
        return cls(m, n, y_rows, y_cols, vs)

    @cached_property
    def index(self) -> dict[Variable, int]:
        return {v: i for i, v in enumerate(self.variables)}

    def __len__(self) -> int:
        return len(self.variables)

    def __contains__(self, var: Variable) -> bool:
        return var in self.index
