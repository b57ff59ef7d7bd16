"""The benchmark's workloads: which CLI invocations make up one pass, the
seeded inputs they read, and the check applied to every output.

One operation is one `genlink.cli.main(argv)` call. A pass runs every
operation of the workload once, in a fixed order. See WORKLOADS.md for why
each workload exists and which layer it stresses.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

import oracle

WORKLOADS = ("symbolic-fold", "square-colon", "witnesses", "breadth")

EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"

# breadth: every instance with 1 <= m <= 4 and m <= n <= 8
BREADTH_INSTANCES = tuple((m, n) for m in range(1, 5) for n in range(m, 9))
GENERATE_TARGETS = ("iniI", "iniA", "iniJ", "N", "betti")
GENERATE_FORMATS = ("json", "tex")
BREADTH_SUITES = ("colon", "cor412", "counts", "betti", "leads")
COMPARE_PAIRS = 6
COMPARE_OPS = ("colon", "intersect", "product", "symbolic:2")
COMPARE_GRIDS = ((2, 3), (2, 4), (3, 3))

SEED_MARK = "<seed>"


@dataclass(frozen=True)
class Op:
    """One CLI invocation. ``key`` names it in expected.json and does not
    depend on the seed or on where files live."""

    key: str
    argv: tuple[str, ...]
    kind: str  # "generate" | "verify" | "compare"
    inputs: tuple[str, ...] = ()  # compare: the ideal files read


def _verify(suite: str, m: int, n: int, *flags: str, seed: int | None = None) -> Op:
    argv = ("verify", suite, str(m), str(n), *flags)
    key = " ".join(argv)
    if seed is not None:
        argv += ("--seed", str(seed))
        key += " --seed " + SEED_MARK
    return Op(key, argv, "verify")


def plan(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The operations of one pass. Writes the seeded input files they read."""
    if workload == "symbolic-fold":
        return [_verify("symbolic", 2, 5, "--Lmax", "2", "--rmax", "1")]
    if workload == "square-colon":
        return [_verify("symbolic", 3, 5, "--Lmax", "1", "--rmax", "2")]
    if workload == "witnesses":
        return [_verify("witnesses", 3, 5, "--rmax", "2", "--samples", "200", seed=seed)]
    if workload == "breadth":
        return _breadth(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def _breadth(seed: int, workdir: Path) -> list[Op]:
    ops = []
    for m, n in BREADTH_INSTANCES:
        for target in GENERATE_TARGETS:
            for fmt in GENERATE_FORMATS:
                argv = ("generate", str(m), str(n), target, "--format", fmt)
                ops.append(Op(" ".join(argv), argv, "generate"))
    for m, n in BREADTH_INSTANCES:
        for suite in BREADTH_SUITES:
            ops.append(_verify(suite, m, n))
    for k, (a, b) in enumerate(write_compare_inputs(seed, workdir)):
        for op in COMPARE_OPS:
            files = (a,) if op.startswith("symbolic") else (a, b)
            argv = ("compare", *files, "--op", op)
            ops.append(Op(f"compare pair{k} --op {op}", argv, "compare", files))
    return ops


# -- seeded inputs --------------------------------------------------------------


def random_ideal_json(rng: random.Random, m: int, n: int) -> str:
    """A proper nonzero squarefree ideal over the m-by-n x grid, as the
    ideal JSON schema (version 1) that `genlink compare` reads."""
    variables = [f"x[{i},{j}]" for i in range(1, m + 1) for j in range(1, n + 1)]
    gens = []
    for _ in range(rng.randint(3, 6)):
        support = rng.sample(variables, rng.randint(2, 3))
        gens.append({v: 1 for v in support})
    doc = {
        "schema_version": 1,
        "universe": {
            "m": m, "n": n,
            "family_sizes": {"X": [m, n], "Y": [0, 0]},
            "variables": variables,
        },
        "generators": gens,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_compare_inputs(seed: int, workdir: Path) -> list[tuple[str, str]]:
    """Write COMPARE_PAIRS pairs of seeded ideal files; return their paths."""
    rng = random.Random(seed)
    pairs = []
    for k in range(COMPARE_PAIRS):
        m, n = COMPARE_GRIDS[rng.randrange(len(COMPARE_GRIDS))]
        paths = []
        for side in "ab":
            path = workdir / f"pair{k}-{side}.json"
            path.write_text(random_ideal_json(rng, m, n))
            paths.append(str(path))
        pairs.append((paths[0], paths[1]))
    return pairs


# -- output checks --------------------------------------------------------------


def load_expected() -> dict[str, str]:
    return json.loads(EXPECTED_FILE.read_text())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def normalized_report(text: str, seed: int) -> str:
    """The verify report with `elapsed_ms` removed and `seed` checked and
    masked, so that its digest is the same on every run and every seed."""
    doc = json.loads(text)
    for report in doc["reports"]:
        del report["elapsed_ms"]
        if report["seed"] is not None:
            if report["seed"] != seed:
                raise ValueError(f"report carries seed {report['seed']}, not {seed}")
            report["seed"] = SEED_MARK
    return json.dumps(doc, sort_keys=True)


def _ideal_vecs(doc: dict, variables: list[str]) -> list[tuple[int, ...]]:
    index = {v: i for i, v in enumerate(variables)}
    vecs = []
    for gen in doc["generators"]:
        vec = [0] * len(variables)
        for var, e in gen.items():
            vec[index[var]] = e
        vecs.append(tuple(vec))
    return vecs


def oracle_result(op: Op) -> tuple[list[str], set[tuple[int, ...]]]:
    """The variable list and the generator set `op` must produce."""
    docs = [json.loads(Path(p).read_text()) for p in op.inputs]
    variables = docs[0]["universe"]["variables"]
    a = _ideal_vecs(docs[0], variables)
    name = op.argv[-1]
    if name.startswith("symbolic:"):
        return variables, oracle.symbolic_power(a, int(name.split(":")[1]))
    b = _ideal_vecs(docs[1], variables)
    return variables, getattr(oracle, name)(a, b)


class Checker:
    """Decides whether one operation's output is correct.

    generate and verify outputs must match the digests recorded in
    expected.json. compare outputs, whose inputs depend on the seed, must
    hold exactly the generators the brute-force oracle finds and must be
    byte-identical on every pass.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.expected = load_expected()
        self._oracle: dict[str, tuple[list[str], set[tuple[int, ...]]]] = {}
        self._compare_digest: dict[str, str] = {}

    def oracle(self, op: Op) -> tuple[list[str], set[tuple[int, ...]]]:
        """The brute-force result for a compare op, computed once."""
        if op.key not in self._oracle:
            self._oracle[op.key] = oracle_result(op)
        return self._oracle[op.key]

    def problem(self, op: Op, code: int, output: str | None) -> str | None:
        """None if the output is correct, else a one-line reason."""
        if code != 0:
            return f"exit code {code}"
        if output is None:
            return "no output"
        try:
            if op.kind == "compare":
                return self._compare_problem(op, output)
            text = output
            if op.kind == "verify":
                statuses = [r["status"] for r in json.loads(output)["reports"]]
                if any(s != "pass" for s in statuses):
                    return f"status {statuses}"
                text = normalized_report(output, self.seed)
        except (ValueError, KeyError, TypeError) as e:
            return f"malformed output: {e}"
        want = self.expected.get(op.key)
        if want is None:
            return "no expected digest recorded"
        if digest(text) != want:
            return "output differs from the recorded digest"
        return None

    def _compare_problem(self, op: Op, output: str) -> str | None:
        seen = self._compare_digest.get(op.key)
        if seen is not None:
            return None if digest(output) == seen else "output changed between passes"
        variables, want = self.oracle(op)
        doc = json.loads(output)
        if doc["universe"]["variables"] != variables:
            return "output universe differs from the input's"
        got = _ideal_vecs(doc, variables)
        if len(got) != len(set(got)) or set(got) != want:
            return "generators differ from the brute-force oracle"
        self._compare_digest[op.key] = digest(output)
        return None
