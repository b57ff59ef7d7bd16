"""Tests of the benchmark itself. They are not part of the repository's
test suite (the file name keeps pytest's default collection away); run

    python3 -m pytest -q perfbench/selftest.py

They take about half a minute: each workload runs an untraced and a traced
pass in a worker process, two such processes for all but symbolic-fold.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _traced_run(workload: str, hashseed: str, workdir: Path) -> dict:
    """One untraced and one traced pass in a fresh worker process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", "5",
         "--workdir", str(workdir), "--trace", "1", "--seconds", "0",
         "--trace-file", str(workdir / "spans.jsonl")],
        capture_output=True, text=True, timeout=170, check=True,
        env={**os.environ, "PYTHONHASHSEED": hashseed},
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failures"] == []
    assert (workdir / "spans.jsonl").stat().st_size > 0
    return result["traced"][0]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Traced pass summaries per workload: two processes with different
    hash seeds, one for symbolic-fold."""
    out = {}
    for name, runs in (("square-colon", 2), ("witnesses", 2), ("breadth", 2),
                       ("symbolic-fold", 1)):
        out[name] = [_traced_run(name, str(k), tmp_path_factory.mktemp(name))
                     for k in range(runs)]
    return out


def _counts(summary: dict) -> dict:
    return {k: v for k, v in summary.items() if not k.endswith("_s")}


def test_counts_repeat_exactly_between_runs(traced):
    for name in ("square-colon", "witnesses", "breadth"):
        first, second = traced[name]
        assert _counts(first) == _counts(second), name


def test_named_counts(traced):
    fold = traced["symbolic-fold"][0]
    square = traced["square-colon"][0]
    wit = traced["witnesses"][0]
    assert fold["ideals.minimal_primes.primes_out"] == 76 * fold["ideals.minimal_primes.calls"]
    assert square["ideals.minimal_primes.primes_out"] == 54 * square["ideals.minimal_primes.calls"]
    assert wit["linkage.square_divisor.calls"] == 819
    assert wit["linkage.antidiagonal_divisor.calls"] == 60
    assert wit["linkage.odd_part_reduction.calls"] == 200


def _share(summary: dict, *names: str) -> float:
    total = sum(v for k, v in summary.items() if k.endswith(".self_s") and k.count(".") == 1)
    return sum(summary.get(n + ".self_s", 0.0) for n in names) / total


def test_each_workload_stresses_its_layer(traced):
    fold = traced["symbolic-fold"][0]
    assert _share(fold, "ideals.symbolic_power") >= 0.8
    square = traced["square-colon"][0]
    build = ("ideals.product", "ideals.power", "ideals.bracket_power", "ideals.contains")
    assert _share(square, *build) >= 0.7
    assert _share(square, "ideals.symbolic_power") < 0.05
    assert _share(traced["witnesses"][0], "linkage", "ideals.contains") >= 0.7


def test_self_time_subtracts_children():
    spans = [
        (0, -1, "cli.main", "cli.main", 0.0, 10.0, 0),
        (1, 0, "ideals.MonomialIdeal.power", "ideals.power", 1.0, 6.0, 0),
        (2, 1, "ideals.MonomialIdeal.product", "ideals.product", 2.0, 5.0, 0),
        (3, 0, "ideals.MonomialIdeal.contains", "ideals.contains", 7.0, 8.0, 0),
    ]
    got = tracing.summarize(spans, {"ideals.contains.hits": 1})
    assert got["cli.main.self_s"] == 4.0
    assert got["ideals.power.self_s"] == 2.0
    assert got["ideals.product.self_s"] == 3.0
    assert got["ideals.self_s"] == 6.0
    assert got["ideals.contains.calls"] == 1
    assert got["ideals.contains.hits"] == 1


def test_speedometer_takes_probes_out_of_the_call():
    speedometer = speed.Speedometer()

    def busy():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.05:
            pass
        return 7

    result, wall, cpu, probe_wall, probe_cpu = speedometer.call(busy)
    assert result == 7
    inside = speedometer.walls[1:-1]
    assert len(inside) >= 2
    assert abs(wall + sum(inside) - 0.05) < 0.005
    assert cpu <= wall + 0.005
    assert probe_wall == pytest.approx(sum(speedometer.walls) / len(speedometer.walls))
    assert probe_cpu == pytest.approx(sum(speedometer.cpus) / len(speedometer.cpus))


def test_calibrated_pass_counts_in_probes():
    # two operations over three passes: (wall, cpu, probe wall, probe cpu)
    passes = [
        [(0.2, 0.1, 0.001, 0.001), (0.03, 0.03, 0.001, 0.001)],
        [(0.4, 0.2, 0.002, 0.002), (0.06, 0.06, 0.002, 0.002)],
        [(0.9, 0.3, 0.001, 0.001), (0.02, 0.02, 0.001, 0.001)],
    ]
    wall, cpu = worker.calibrated_pass(passes)
    assert wall == pytest.approx((200 + 30) * speed.REFERENCE_PROBE_S)
    assert cpu == pytest.approx((100 + 30) * speed.REFERENCE_PROBE_S)


def test_seeded_inputs(tmp_path):
    def files(seed, sub):
        workdir = tmp_path / sub
        workdir.mkdir()
        workloads.write_compare_inputs(seed, workdir)
        return {p.name: p.read_bytes() for p in workdir.iterdir()}

    first = files(3, "a")
    assert files(3, "b") == first
    assert files(4, "c") != first


def test_breadth_ops_read_only_generated_files(tmp_path):
    ops = workloads.plan("breadth", 1, tmp_path)
    compare = [op for op in ops if op.kind == "compare"]
    assert len(compare) == workloads.COMPARE_PAIRS * len(workloads.COMPARE_OPS)
    for op in compare:
        assert all(Path(p).parent == tmp_path for p in op.inputs)
        assert set(op.inputs) <= set(op.argv)


def test_checker_rejects_wrong_outputs(tmp_path):
    cli = worker.import_genlink()
    checker = workloads.Checker(seed=9)
    ops = workloads.plan("breadth", 9, tmp_path)
    by_kind = {op.kind: op for op in ops}
    for op in by_kind.values():
        code, output = worker.invoke(cli, op, tmp_path / "report.json")[:2]
        assert checker.problem(op, code, output) is None, op.key
        assert checker.problem(op, 1, output) is not None
        assert checker.problem(op, 0, None) is not None
    gen = by_kind["generate"]
    output = worker.invoke(cli, gen, tmp_path / "report.json")[1]
    assert checker.problem(gen, 0, output + " ") is not None
    ver = by_kind["verify"]
    output = worker.invoke(cli, ver, tmp_path / "report.json")[1]
    assert checker.problem(ver, 0, output.replace('"pass"', '"fail"')) is not None
    cmp_ = by_kind["compare"]
    output = worker.invoke(cli, cmp_, tmp_path / "report.json")[1]
    wrong = output.replace('": 1', '": 2', 1)
    assert workloads.Checker(seed=9).problem(cmp_, 0, wrong) == (
        "generators differ from the brute-force oracle")
    assert checker.problem(cmp_, 0, wrong) == "output changed between passes"


def test_refuses_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.iterdir():
        if path.is_file():
            (bench / path.name).write_bytes(path.read_bytes())
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "breadth", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert time.monotonic() - start < 60


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
