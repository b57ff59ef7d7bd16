"""Golden digests of `genlink generate`: every target in every format.

``generate_digests.json`` holds the sha256 of the stdout of
``genlink generate M N TARGET --format FMT`` for each instance below. The
digests were recorded before the serializer and the instance ideals moved
onto exponent vectors, so a change that alters one byte of any output
fails here. (2,10) was recorded before the writers rendered generators
from exponent vectors: its x[1,10] and x[2,10] are the first variable
texts whose sorted order is not the grid order. To print the digests of
the current tree:

    PYTHONPATH=src python tests/test_generate_golden.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from genlink.cli import FORMATS, GENERATE_TARGETS, main

INSTANCES = ((1, 1), (1, 3), (2, 4), (3, 5), (4, 4), (4, 6), (2, 10))
DIGESTS = Path(__file__).resolve().parent / "generate_digests.json"


def _key(m, n, target, fmt):
    return f"generate {m} {n} {target} --format {fmt}"


def _digest(m, n, target, fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["generate", str(m), str(n), target, "--format", fmt]) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def _cases():
    for m, n in INSTANCES:
        for target in GENERATE_TARGETS:
            for fmt in FORMATS:
                yield m, n, target, fmt


@pytest.mark.parametrize("m, n", INSTANCES)
def test_generate_output_matches_the_recorded_digests(m, n):
    expected = json.loads(DIGESTS.read_text())
    for case in _cases():
        if case[:2] == (m, n):
            assert _digest(*case) == expected[_key(*case)], _key(*case)


def test_every_instance_target_and_format_is_recorded():
    keys = {_key(*case) for case in _cases()}
    assert set(json.loads(DIGESTS.read_text())) == keys
    assert len(keys) == len(INSTANCES) * 5 * 4


if __name__ == "__main__":
    digests = {_key(*case): _digest(*case) for case in _cases()}
    print(json.dumps(digests, indent=2, sort_keys=True))
