"""Golden digests of `genlink verify` reports.

``verify_digests.json`` holds, for each command below, its exit code and
the sha256 of its report file (``--out``) with every ``elapsed_ms``
removed, the one field that varies between runs. The digests were recorded
before the square-colon check dropped the bracket power and the link
ideals stopped being reduced again, the first two symbolic-only commands
before the ordinary-in-symbolic check became bit-sliced, and the two
level-3 commands at (3,6) and (4,6) while level 3 still folded over the
minimal primes, and the two cor412 commands while N^(2) and nu's place in
it were still read from the minimal primes of N, and the three commands at
the CLI defaults (``--Lmax 3 --rmax 3``) while the square-colon scan still
checked every sum of generators of W^r and W^(r+1), so a change that
alters a status, a witness or a refusal estimate fails here. The
``--max-gens 350`` command was recorded once the square-colon scan peeled
its halves and built no power but W^2; while it built W^3 it was refused
there, with estimate 351. The witnesses command at ``--rmax 70`` was
recorded while the witnesses still summed exponent vectors position by
position; its sums pass 127, so the packed words they now add take fields
wider than a byte.
To print the digests of the current tree:

    PYTHONPATH=src python tests/test_verify_golden.py
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from genlink.cli import main

COMMANDS = (
    *(
        f"verify all {m} {n} --Lmax 2 --rmax 2 --seed 0"
        for m, n in ((1, 3), (2, 4), (3, 5), (4, 4), (3, 6))
    ),
    # levels 1-3 of the symbolic check; iniJ(4,6) takes the variable fold
    "verify symbolic 2 5 --Lmax 3 --rmax 1",
    "verify symbolic 4 6 --Lmax 2 --rmax 1",
    "verify symbolic 3 6 --Lmax 3 --rmax 1",
    "verify symbolic 4 6 --Lmax 3 --rmax 1",
    # the square-colon scan builds W^2 alone, for the good pairs: 9 * 9 = 81
    # candidates pass a cap of 350 and are refused under a cap of 80
    "verify symbolic 3 5 --Lmax 1 --rmax 2 --max-gens 350",
    "verify symbolic 3 5 --Lmax 1 --rmax 2 --max-gens 80",
    # N^(2) and the nu witness; N(4,8) has the most primes per variable
    # (60 over 18) of the staircase ideals up to n = 8
    "verify cor412 4 7",
    "verify cor412 4 8",
    # the CLI defaults, --Lmax 3 --rmax 3: the square-colon scan up to r = 3
    "verify symbolic 3 6",
    "verify symbolic 4 6",
    "verify symbolic 4 7",
    # chains of up to 141 generators: the witness sums need two-byte fields
    "verify witnesses 2 4 --rmax 70 --samples 50 --seed 0",
)
DIGESTS = Path(__file__).resolve().parent / "verify_digests.json"


def _run(command):
    """The exit code and the report file, ``elapsed_ms`` removed, of one command."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([*command.split(), "--out", str(out)])
        doc = json.loads(out.read_text())
    for report in doc["reports"]:
        del report["elapsed_ms"]
    return code, doc


def _digest(command):
    code, doc = _run(command)
    text = json.dumps(doc, indent=2, sort_keys=True)
    return {"exit": code, "sha256": hashlib.sha256(text.encode()).hexdigest()}


@pytest.mark.parametrize(
    "command",
    COMMANDS,
    ids=[
        "verify_all_1_3",
        "verify_all_2_4",
        "verify_all_3_5",
        "verify_all_4_4",
        "verify_all_3_6",
        "verify_symbolic_2_5",
        "verify_symbolic_4_6",
        "verify_symbolic_3_6",
        "verify_symbolic_4_6_--Lmax_3_--rmax_1",
        "verify_symbolic_3_5",
        "verify_symbolic_3_5_--max-gens_80",
        "verify_cor412_4_7",
        "verify_cor412_4_8",
        "verify_symbolic_3_6_defaults",
        "verify_symbolic_4_6_defaults",
        "verify_symbolic_4_7_defaults",
        "verify_witnesses_2_4_--rmax_70",
    ],
)
def test_verify_report_matches_the_recorded_digest(command):
    assert _digest(command) == json.loads(DIGESTS.read_text())[command]


def test_every_command_is_recorded():
    assert set(json.loads(DIGESTS.read_text())) == set(COMMANDS)


def test_square_colon_refusal_estimate():
    code, doc = _run("verify symbolic 3 5 --Lmax 1 --rmax 2 --max-gens 80")
    (report,) = doc["reports"]
    assert (code, report["status"], report["witnesses"]["estimate"]) == (3, "refused", 81)


if __name__ == "__main__":
    print(json.dumps({command: _digest(command) for command in COMMANDS}, indent=2, sort_keys=True))
