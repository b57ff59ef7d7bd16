"""Record the digest of every generate and verify output of every workload
into expected.json. Run it on a commit whose outputs are known good:

    python3 perfbench/record_expected.py

compare outputs are not recorded: their inputs change with the seed, so the
benchmark checks them against the brute-force oracle instead.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import worker
import workloads


def main() -> int:
    cli = worker.import_genlink()
    expected = {}
    with tempfile.TemporaryDirectory(dir=worker.ROOT) as tmp:
        workdir = Path(tmp)
        for name in workloads.WORKLOADS:
            for op in workloads.plan(name, 0, workdir):
                if op.kind == "compare":
                    continue
                code, output = worker.invoke(cli, op, workdir / "report.json")[:2]
                if code != 0 or output is None:
                    print(f"{op.key}: exit code {code}", file=sys.stderr)
                    return 1
                if op.kind == "verify":
                    output = workloads.normalized_report(output, 0)
                expected[op.key] = workloads.digest(output)
    workloads.EXPECTED_FILE.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(expected)} digests in {workloads.EXPECTED_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
