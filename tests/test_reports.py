"""Every invocation ends in a report, never a traceback.

A suite returns a ``pass``, ``fail`` or ``refused`` report whatever its
bounds, and a size guard refuses before the work it bounds, so a refusal
comes fast. The CLI's ``generate`` and ``compare`` exit with 0-3 on any
arguments and any input file, malformed JSON included.
"""

import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from genlink import LinkInstance, VerifyBounds
from genlink.cli import GENERATE_TARGETS, FORMATS, main
from genlink.ideals import DEFAULT_CANDIDATE_CAP
from genlink.serialize import ideal_to_json
from genlink.verify import FAIL, PASS, REFUSED, run_suite

# instances with n <= 5; every suite runs each in well under a second
small_instances = st.integers(1, 5).flatmap(lambda n: st.tuples(st.integers(1, n), st.just(n)))

# bounds at desk scale, past the --rmax 600 at which m = 1 once listed
# chains deep enough to overflow the stack, or samples far enough out that
# the witness draw guard must refuse. The square-colon scan of the symbolic
# suite stops at its first level with no clique, so --rmax may go far
# beyond any instance's clique bound
suite_bounds = st.builds(
    VerifyBounds,
    candidate_cap=st.one_of(st.integers(1, 2000), st.just(DEFAULT_CANDIDATE_CAP)),
    symbolic_upto=st.integers(1, 3),
    square_colon_rmax=st.one_of(st.integers(0, 3), st.integers(0, 100_000)),
    witness_samples=st.one_of(st.integers(1, 50), st.integers(10**6, 10**9)),
)


@settings(max_examples=100, deadline=None)
@given(small_instances, suite_bounds, st.integers(0, 2**32 - 1))
@example((1, 3), VerifyBounds(square_colon_rmax=300, witness_samples=1), 0)
@example((1, 3), VerifyBounds(square_colon_rmax=600, witness_samples=1), 0)
@example((1, 3), VerifyBounds(square_colon_rmax=100_000, witness_samples=1), 0)
def test_every_suite_ends_in_a_report(mn, bounds, seed):
    for report in run_suite("all", LinkInstance(*mn), bounds, seed):
        assert report.status in (PASS, FAIL, REFUSED), report
        if report.status == REFUSED:
            assert report.elapsed_ms <= 100, report
            assert report.witnesses["estimate"] > 0, report


def _run(argv):
    with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
        return main(argv)


@settings(max_examples=100, deadline=None)
@given(st.integers(-1, 9), st.integers(-1, 9), st.sampled_from(sorted(GENERATE_TARGETS)),
       st.sampled_from(sorted(FORMATS)))
def test_generate_exits_with_a_code(m, n, target, fmt):
    assert _run(["generate", str(m), str(n), target, "--format", fmt]) in (0, 1, 2, 3)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**20) | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=3)),
    max_leaves=6,
)


def _replace_one(doc, value, pick):
    """``doc`` with the value at one of its places, chosen by ``pick``, replaced."""
    places = []

    def walk(node):
        if isinstance(node, dict):
            items = node.items()
        else:
            items = enumerate(node) if isinstance(node, list) else ()
        for key, child in items:
            places.append((node, key))
            walk(child)

    walk(doc)
    if not places:
        return value
    node, key = places[pick % len(places)]
    node[key] = value
    return doc


ideal_texts = st.builds(
    lambda mn, target: ideal_to_json(GENERATE_TARGETS[target][0](LinkInstance(*mn))),
    st.integers(1, 4).flatmap(lambda n: st.tuples(st.integers(1, n), st.just(n))),
    st.sampled_from(["iniI", "iniA", "iniJ", "N"]),
)
input_texts = st.one_of(
    ideal_texts,
    st.text(max_size=60),
    st.tuples(ideal_texts, st.integers(0, 2000)).map(lambda p: p[0][:p[1]]),
    st.tuples(ideal_texts, json_values, st.integers(0, 10**6)).map(
        lambda p: json.dumps(_replace_one(json.loads(p[0]), p[1], p[2]))
    ),
)


@settings(max_examples=120, deadline=None)
@given(input_texts, st.one_of(st.none(), input_texts),
       st.sampled_from(["colon", "intersect", "product", "symbolic:1", "symbolic:2",
                        "symbolic:3", "symbolic:0", "symbolic:x", "sum"]))
def test_compare_exits_with_a_code(text_a, text_b, op):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["compare"]
        for name, text in (("a.json", text_a), ("b.json", text_b)):
            if text is not None:
                path = Path(tmp, name)
                path.write_text(text)
                argv.append(str(path))
        assert _run([*argv, "--op", op]) in (0, 1, 2, 3)
