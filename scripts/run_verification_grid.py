#!/usr/bin/env python3
"""Run every verification suite over a grid of instances and tabulate results.

Writes one JSON report file per instance into the output directory and
prints a summary table. Instances where a check trips a size guard show as
'refused' rather than failing. The bounds default to those of
`genlink verify`, so each report is the one the CLI writes.

    python scripts/run_verification_grid.py --max-m 3 --max-n 5 --out-dir reports
"""

import argparse
import os
import sys

from genlink import LinkInstance
from genlink.cli import _write_output
from genlink.verify import DEFAULT_BOUNDS, SUITES, VerifyBounds, reports_to_json, run_suite


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-m", type=int, default=3)
    parser.add_argument("--max-n", type=int, default=5)
    parser.add_argument("--Lmax", type=int, default=DEFAULT_BOUNDS.symbolic_upto)
    parser.add_argument("--rmax", type=int, default=DEFAULT_BOUNDS.square_colon_rmax)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=DEFAULT_BOUNDS.witness_samples)
    parser.add_argument("--out-dir", default=None)
    args = parser.parse_args()

    try:
        bounds = VerifyBounds(
            symbolic_upto=args.Lmax,
            square_colon_rmax=args.rmax,
            witness_samples=args.samples,
        )
    except ValueError as e:
        parser.error(str(e))
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)

    rows = []
    any_fail = False
    for m in range(1, args.max_m + 1):
        for n in range(m, args.max_n + 1):
            inst = LinkInstance(m, n)
            reports = run_suite("all", inst, bounds, seed=args.seed)
            rows.append(((m, n), {r.check: r.status for r in reports}))
            any_fail |= any(r.status == "fail" for r in reports)
            if args.out_dir:
                path = os.path.join(args.out_dir, f"verify_{m}_{n}.json")
                _write_output(path, reports_to_json(reports))

    # the suites in the order run_suite("all") runs them, so an empty grid
    # prints the header too
    width = max(map(len, SUITES)) + 1
    print("instance " + "".join(f"{s:>{width}}" for s in SUITES))
    marks = {"pass": "ok", "fail": "FAIL", "refused": "ref"}
    for (m, n), statuses in rows:
        cells = "".join(f"{marks[statuses[s]]:>{width}}" for s in SUITES)
        print(f"({m},{n})   " + cells)
    return 1 if any_fail else 0


if __name__ == "__main__":
    sys.exit(main())
