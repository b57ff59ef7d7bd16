"""Command-line interface.

Subcommands:

    generate M N {iniI,iniA,iniJ,N,betti} [--format json|csv|text|tex] [--out F]
    verify {colon,symbolic,cor412,counts,betti,leads,witnesses,all} M N
           [--Lmax K] [--rmax K] [--seed S] [--samples C] [--max-gens CAP] [--out F]
    compare FILE_A [FILE_B] --op {colon,intersect,product,symbolic:L} [--out F]

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage or
schema error, 3 refusal by a size guard. Output files are written to a
temporary sibling and renamed, so failures never leave partial files.
Identical arguments (and seed) produce byte-identical generate/compare
output; verify reports additionally carry elapsed wall time.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import tempfile
from math import comb

from .ideals import DEFAULT_CANDIDATE_CAP, MonomialIdeal, SizeGuardExceeded, check_cap
from .linkage import LinkInstance, betti_table
from .serialize import (
    SchemaError,
    betti_to_csv,
    betti_to_json,
    betti_to_tex,
    betti_to_text,
    ideal_from_json,
    ideal_to_csv,
    ideal_to_json,
    ideal_to_tex,
    ideal_to_text,
)
from .verify import DEFAULT_BOUNDS, SUITES, VerifyBounds, reports_to_json, run_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_REFUSED = 3

GENERATE_TARGETS = {
    "iniI": lambda inst: inst.minors_initial,
    "iniA": lambda inst: inst.sequence_initial,
    "iniJ": lambda inst: inst.link_initial,
    "N": lambda inst: inst.staircase_ideal,
    "betti": betti_table,
}
_OUTPUT_COUNTS = {  # target -> what it lists and how many, counted before any is built
    "iniI": lambda inst: (inst.r, "generators"),
    "iniA": lambda inst: (inst.g, "generators"),
    "iniJ": lambda inst: (inst.g + comb(inst.n - 1, inst.m - 1), "generators"),
    "N": lambda inst: (comb(inst.n - 1, inst.m - 1), "generators"),
    # the grid of the text and TeX tables: rows j - i from 0 to m(g - 1),
    # columns i from 0 to g
    "betti": lambda inst: ((inst.m * (inst.g - 1) + 1) * (inst.g + 1), "table cells"),
}
FORMATS = {  # format -> (ideal writer, Betti table writer)
    "json": (ideal_to_json, betti_to_json),
    "csv": (ideal_to_csv, betti_to_csv),
    "text": (ideal_to_text, betti_to_text),
    "tex": (ideal_to_tex, betti_to_tex),
}
COMPARE_OPS = ("colon", "intersect", "product")


def _write_output(path: str | None, payload: str) -> None:
    """Write to stdout, or atomically to a file (write then rename); a file
    that cannot be written is a :class:`UsageError`, as an unreadable input
    is, and leaves no temporary file behind."""
    if path is None:
        sys.stdout.write(payload)
        return
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-genlink-")
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except OSError as e:
        raise UsageError(f"{path}: {e.strerror or e}") from e
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _instance(args) -> LinkInstance:
    try:
        return LinkInstance(args.m, args.n)
    except ValueError as e:
        raise UsageError(str(e))


class UsageError(Exception):
    pass


def _cmd_generate(args) -> int:
    inst = _instance(args)
    count, what = _OUTPUT_COUNTS[args.target](inst)
    check_cap(count, DEFAULT_CANDIDATE_CAP, args.target, what)
    target = GENERATE_TARGETS[args.target](inst)
    write_ideal, write_betti = FORMATS[args.format]
    payload = write_betti(target) if args.target == "betti" else write_ideal(target)
    _write_output(args.out, payload)
    return EXIT_OK


def _cmd_verify(args) -> int:
    inst = _instance(args)
    bounds = VerifyBounds(
        candidate_cap=args.max_gens,
        symbolic_upto=args.Lmax,
        square_colon_rmax=args.rmax,
        witness_samples=args.samples,
    )
    reports = run_suite(args.suite, inst, bounds, seed=args.seed)
    for report in reports:
        print(report.summary())
    if args.out:
        _write_output(args.out, reports_to_json(reports))
    statuses = {r.status for r in reports}
    if "fail" in statuses:
        return EXIT_FAIL
    if "refused" in statuses:
        return EXIT_REFUSED
    return EXIT_OK


def _read_ideal(path: str) -> MonomialIdeal:
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as e:
        raise UsageError(f"{path}: {e}")
    try:
        return ideal_from_json(text)
    except SchemaError as e:
        raise UsageError(f"{path}: {e}")


def _cmd_compare(args) -> int:
    op = args.op
    level = None
    if op.startswith("symbolic:"):
        digits = op.split(":", 1)[1]
        if not (digits.isascii() and digits.isdigit()):  # int() also takes " 2", "+2", "1_0"
            raise UsageError(f"bad symbolic level in {op!r}")
        level = int(digits)
        if level < 1:
            raise UsageError("symbolic level must be >= 1")
        if args.file_b is not None:
            raise UsageError(f"op {op!r} takes one ideal file")
        op = "symbolic"
    elif op not in COMPARE_OPS:
        raise UsageError(f"unknown op {args.op!r}")

    a = _read_ideal(args.file_a)
    if op == "symbolic":
        result = a.symbolic_power(level)
    else:
        if args.file_b is None:
            raise UsageError(f"op {op!r} needs a second ideal file")
        b = _read_ideal(args.file_b)
        if op == "colon":
            result = a.colon(b)
        elif op == "intersect":
            result = a.intersect(b)
        else:
            result = a.product(b)
    _write_output(args.out, ideal_to_json(result))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged.

    The cache saves about 1 ms per :func:`main` call, so it helps only
    callers that run :func:`main` many times in one process (the tests,
    ``perfbench``); a one-shot ``genlink`` run builds the parser once
    either way.
    """
    parser = argparse.ArgumentParser(
        prog="genlink",
        description="Exact monomial-ideal computations for the initial ideal "
        "of the generic link of maximal minors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit an ideal or Betti table for an instance")
    gen.add_argument("m", type=int)
    gen.add_argument("n", type=int)
    gen.add_argument("target", choices=tuple(GENERATE_TARGETS))
    gen.add_argument("--format", choices=tuple(FORMATS), default="text")
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=_cmd_generate)

    ver = sub.add_parser("verify", help="run a verification suite on an instance")
    ver.add_argument("suite", choices=(*SUITES, "all"))
    ver.add_argument("m", type=int)
    ver.add_argument("n", type=int)
    ver.add_argument("--Lmax", type=int, default=DEFAULT_BOUNDS.symbolic_upto,
                     help="symbolic/ordinary comparison bound")
    ver.add_argument("--rmax", type=int, default=DEFAULT_BOUNDS.square_colon_rmax,
                     help="square-bracket colon scan bound")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--samples", type=int, default=DEFAULT_BOUNDS.witness_samples)
    ver.add_argument("--max-gens", type=int, default=DEFAULT_BOUNDS.candidate_cap,
                     help="cap on each kernel's count: candidate generators, fold-step "
                     "pairs, reducer comparisons, square-colon halves and tests (the universe, "
                     "lead-term and index guards keep fixed caps; witnesses builds no power)")
    ver.add_argument("--out", default=None, help="write the JSON report here")
    ver.set_defaults(func=_cmd_verify)

    cmp_ = sub.add_parser("compare", help="apply an operation to serialized ideals")
    cmp_.add_argument("file_a")
    cmp_.add_argument("file_b", nargs="?", default=None)
    cmp_.add_argument("--op", required=True,
                      help="colon | intersect | product | symbolic:L")
    cmp_.add_argument("--out", default=None)
    cmp_.set_defaults(func=_cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except SizeGuardExceeded as e:
        print(f"refused: {e}", file=sys.stderr)
        return EXIT_REFUSED
    except ValueError as e:
        # inapplicable operation for the given input (unit/zero ideal etc.)
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
