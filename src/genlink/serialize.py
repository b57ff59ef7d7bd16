"""Canonical serialization of ideals and Betti tables.

Ideal JSON schema (version 1): a ``universe`` header carrying the grid
bounds ``m``, ``n``, ``family_sizes`` and the ordered variable list, plus a
``generators`` array of exponent maps keyed by the canonical variable text
``x[i,j]`` / ``Y[i,j]``. Generators are emitted sorted descending under the
diagonal-lex order, so serialized output is byte-identical across runs.
They are sorted as exponent vectors. JSON and TeX write each generator
straight from its vector, with each variable's key or TeX built once per
call, so they build no monomial and no per-generator dict: JSON takes a
generator's keys in ``sort_keys`` order, by variable text, and TeX goes
through :meth:`Universe.tex_texts`. The text and CSV formats build one
monomial per generator to print. :func:`ideal_to_dict` and
:func:`sorted_generators` are the references the writers are tested
against.

Betti tables serialize as CSV rows ``i,j,value``, as JSON, as TeX, and as a
text pretty print with row index j - i in the style of computer-algebra
Betti displays.
"""

from __future__ import annotations

import csv
import io
import json
from json.encoder import encode_basestring_ascii
from typing import Any

from .ideals import MonomialIdeal, Vec, ideal
from .linkage import BettiTable
from .monomial import Monomial, Universe, Variable, parse_variable
from .orders import diaglex_vector_key

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """A serialization schema violation, carrying the JSON location."""

    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")
        self.location = location


def _sorted_vecs(W: MonomialIdeal) -> list[Vec]:
    """Generator vectors sorted descending under the diagonal-lex order."""
    return sorted(W.vecs, key=diaglex_vector_key(W.universe.variables), reverse=True)


def sorted_generators(W: MonomialIdeal) -> list[Monomial]:
    """Generators sorted descending under the diagonal-lex order."""
    return list(map(W.universe.monomial, _sorted_vecs(W)))


# -- ideal formats ---------------------------------------------------------


def _envelope(u: Universe, names: list[str]) -> dict:
    """The ideal JSON document without its generators; ``names`` are the
    texts of the variables of ``u``."""
    return {
        "schema_version": SCHEMA_VERSION,
        "universe": {
            "m": u.m,
            "n": u.n,
            "family_sizes": {"X": [u.m, u.n], "Y": [u.y_rows, u.y_cols]},
            "variables": names,
        },
    }


def ideal_to_dict(W: MonomialIdeal) -> dict:
    names = [str(v) for v in W.universe.variables]
    doc = _envelope(W.universe, names)
    doc["generators"] = [
        {names[p]: e for p, e in enumerate(vec) if e} for vec in _sorted_vecs(W)
    ]
    return doc


def ideal_to_json(W: MonomialIdeal) -> str:
    """``json.dumps(ideal_to_dict(W), indent=2, sort_keys=True)`` and a
    newline, with the generators written straight from their vectors: each
    key is quoted once per call, as ``json`` quotes it, and a generator's
    keys are taken in the order of their text, as ``sort_keys`` takes them.
    The ``"generators"`` entry, first in key order, goes before the envelope."""
    names = [str(v) for v in W.universe.variables]
    keys = [
        (p, f"      {encode_basestring_ascii(name)}: ")
        for name, p in sorted(zip(names, range(len(names))))
    ]
    gens = []
    for vec in _sorted_vecs(W):
        body = ",\n".join([f"{key}{e}" for p, key in keys if (e := vec[p])])
        gens.append(f"{{\n{body}\n    }}" if body else "{}")
    listed = "[\n    " + ",\n    ".join(gens) + "\n  ]" if gens else "[]"
    envelope = json.dumps(_envelope(W.universe, names), indent=2, sort_keys=True)
    return f'{{\n  "generators": {listed},\n{envelope[2:]}\n'


def _integer(value: Any, loc: str, least: int = 0) -> int:
    """``value`` if it is an int of at least ``least``; a bool or a float is
    not read as one."""
    if type(value) is not int or value < least:
        raise SchemaError(loc, f"expected an integer >= {least}, got {value!r}")
    return value


def _pair(value: Any, loc: str) -> tuple[int, int]:
    if not isinstance(value, list) or len(value) != 2:
        raise SchemaError(loc, f"expected a pair of integers, got {value!r}")
    return _integer(value[0], f"{loc}[0]"), _integer(value[1], f"{loc}[1]")


def ideal_from_dict(data: Any) -> MonomialIdeal:
    if not isinstance(data, dict):
        raise SchemaError("$", "expected an object")
    version = data.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise SchemaError("schema_version", f"expected {SCHEMA_VERSION}, got {version!r}")
    uni = data.get("universe")
    if not isinstance(uni, dict):
        raise SchemaError("universe", "expected an object")
    for field_name in ("m", "n", "family_sizes", "variables"):
        if field_name not in uni:
            raise SchemaError(f"universe.{field_name}", "missing")
    m, n = _integer(uni["m"], "universe.m"), _integer(uni["n"], "universe.n")
    sizes = uni["family_sizes"]
    if not isinstance(sizes, dict) or "X" not in sizes or "Y" not in sizes:
        raise SchemaError("universe.family_sizes", "expected X and Y entries")
    if _pair(sizes["X"], "universe.family_sizes.X") != (m, n):
        raise SchemaError("universe.family_sizes.X", f"expected [m, n] = [{m}, {n}]")
    y_rows, y_cols = _pair(sizes["Y"], "universe.family_sizes.Y")
    if not isinstance(uni["variables"], list):
        raise SchemaError("universe.variables", "expected a list")
    variables = []
    for k, text in enumerate(uni["variables"]):
        try:
            variables.append(parse_variable(text))
        except (TypeError, ValueError) as e:
            raise SchemaError(f"universe.variables[{k}]", str(e))
    try:
        universe = Universe(m, n, y_rows, y_cols, tuple(variables))
    except ValueError as e:
        raise SchemaError("universe", str(e))
    gens_data = data.get("generators")
    if not isinstance(gens_data, list):
        raise SchemaError("generators", "expected a list")
    gens = []
    for k, entry in enumerate(gens_data):
        if not isinstance(entry, dict):
            raise SchemaError(f"generators[{k}]", "expected an exponent map")
        exps: dict[Variable, int] = {}
        for var_text, e in entry.items():
            loc = f"generators[{k}].{var_text}"
            try:
                var = parse_variable(var_text)
            except ValueError as err:
                raise SchemaError(loc, str(err))
            e = _integer(e, loc, least=1)
            if var not in universe:
                raise SchemaError(loc, "variable not in the universe")
            if var in exps:
                raise SchemaError(loc, f"{var} named twice in one generator")
            exps[var] = e
        gens.append(Monomial(exps))
    return ideal(universe, gens)


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object as a dict; a key given twice, which ``json`` would
    silently read as its last value, is a schema error."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise SchemaError(key, "key given twice in one object")
        data[key] = value
    return data


def ideal_from_json(text: str) -> MonomialIdeal:
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as e:
        raise SchemaError("$", f"invalid JSON: {e}")
    return ideal_from_dict(data)


def ideal_to_text(W: MonomialIdeal) -> str:
    lines = [str(g) for g in sorted_generators(W)]
    return "\n".join(lines) + "\n" if lines else "0\n"


def ideal_to_csv(W: MonomialIdeal) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["generator", "degree"])
    for g in sorted_generators(W):
        writer.writerow([str(g), g.degree()])
    return out.getvalue()


def ideal_to_tex(W: MonomialIdeal) -> str:
    gens = W.universe.tex_texts(_sorted_vecs(W))
    if not gens:
        return "$(0)$\n"
    return "$(" + ",\\; ".join(gens) + ")$\n"


# -- Betti table formats -----------------------------------------------------


def betti_to_csv(table: BettiTable) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["i", "j", "value"])
    for (i, j), v in sorted(table.entries.items()):
        writer.writerow([i, j, v])
    return out.getvalue()


def betti_to_dict(table: BettiTable) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "d": table.d,
        "g": table.g,
        "entries": [
            {"i": i, "j": j, "value": v} for (i, j), v in sorted(table.entries.items())
        ],
    }


def betti_to_json(table: BettiTable) -> str:
    return json.dumps(betti_to_dict(table), indent=2, sort_keys=True) + "\n"


def _betti_grid(table: BettiTable) -> tuple[list[int], list[int], dict[tuple[int, int], int]]:
    """Rows indexed by j - i, every one from 0 to the largest, columns by i,
    including the implicit unit."""
    cells = {(0, 0): 1}
    cells.update(table.entries)
    cols = sorted({i for i, _ in cells})
    rows = list(range(max(j - i for i, j in cells) + 1))
    grid = {(j - i, i): v for (i, j), v in cells.items()}
    return rows, cols, grid


def betti_to_text(table: BettiTable) -> str:
    """Pretty print with row index j - i, '-' marking zero entries."""
    rows, cols, grid = _betti_grid(table)
    width = max(
        [len(str(v)) for v in grid.values()] + [len(str(c)) for c in cols] + [1]
    )
    header = "    " + " ".join(f"{c:>{width}}" for c in cols)
    lines = [header]
    for rrow in rows:
        cells = [f"{grid.get((rrow, c), '-'):>{width}}" for c in cols]
        lines.append(f"{rrow:>3} " + " ".join(cells))
    return "\n".join(lines) + "\n"


def betti_to_tex(table: BettiTable) -> str:
    rows, cols, grid = _betti_grid(table)
    head = " & ".join(str(c) for c in cols)
    lines = [
        "\\begin{tabular}{l" + "l" * len(cols) + "}",
        "\\hline",
        f" & {head} \\\\ \\hline",
    ]
    for rrow in rows:
        cells = " & ".join(str(grid.get((rrow, c), "-")) for c in cols)
        lines.append(f"{rrow} & {cells} \\\\ \\hline")
    lines.append("\\end{tabular}")
    return "\n".join(lines) + "\n"
