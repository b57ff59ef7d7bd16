"""genlink's benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

NAME is one of symbolic-fold, square-colon, witnesses, breadth, or `all`,
which runs each in turn. Every operation's output is checked (see
workloads.Checker); the run exits 1 if any operation failed.

With --trace 0 the end-to-end metrics are measured with no spans installed:

    setup_s      time for a fresh interpreter to start, import genlink and
                 build the workload's inputs; median over SETUP_PROBES
    wall_s       wall time of one pass, each operation at its median over
                 the passes of the run
    cpu_s        process CPU time of one pass, counted the same way
    peak_rss_mb  peak resident memory of the workload process

The three times are calibrated: the cores of the machine the benchmark was
made on run a thread at one of two speeds, and how much of a run falls on
the slow one changes from minute to minute. Each operation and set-up
process is timed in units of a fixed loop of plain Python run next to it
(and inside long operations), and the count is reported as seconds on a
reference core, one that runs the loop in speed.REFERENCE_PROBE_S. See
speed.py and WORKLOADS.md.

With --trace 1 spans wrap genlink's public functions (see tracing.py) and
the per-layer metrics are reported per traced pass. The last line of stdout
is the JSON result; the lines above it repeat the metrics for a reader, with
a results entry that records the Python version, git SHA, nproc and seed.
The last traced pass's spans and every results entry are written under
.perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import fmean, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 11
SPEED_PROBES = 10  # speed probes before and after each set-up process
RUN_BUDGET_S = 170  # every run must end well inside 180 s

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# name -> unit; values are per traced pass (least over traced passes for times).
PER_LAYER = {
    "ideals.symbolic_power.self_s": "s",
    "ideals.symbolic_power.calls": "count",
    "ideals.symbolic_power.gens_out": "count",
    "ideals.minimal_primes.self_s": "s",
    "ideals.minimal_primes.calls": "count",
    "ideals.minimal_primes.primes_out": "count",
    "ideals.product.self_s": "s",
    "ideals.product.calls": "count",
    "ideals.product.gens_out": "count",
    "ideals.product.keep_ratio": "ratio",
    "ideals.power.self_s": "s",
    "ideals.bracket_power.self_s": "s",
    "ideals.contains.self_s": "s",
    "ideals.contains.calls": "count",
    "ideals.contains.hit_ratio": "ratio",
    "ideals.colon.self_s": "s",
    "ideals.intersect.self_s": "s",
    "ideals.first_symbolic_gap.self_s": "s",
    "ideals.square_colon_check.self_s": "s",
    "linkage.square_divisor.self_s": "s",
    "linkage.square_divisor.calls": "count",
    "linkage.odd_part_reduction.self_s": "s",
    "linkage.antidiagonal_divisor.self_s": "s",
    "linkage.link_initial_power.self_s": "s",
    "linkage.link_initial_power.calls": "count",
    "orders.compare.self_s": "s",
    "orders.compare.calls": "count",
    "serialize.self_s": "s",
    "serialize.bytes_out": "bytes",
    "verify.run_suite.self_s": "s",
    "cli.main.self_s": "s",
    "ideals.self_s": "s",
    "linkage.self_s": "s",
    "orders.self_s": "s",
    "verify.self_s": "s",
    "cli.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(untraced_wall: list[float], traced: list[dict]) -> dict[str, float]:
    """Per-layer metrics from the per-pass trace summaries. Times are the
    least over traced passes, not calibrated: a speed probe would land
    inside whatever span is open. Counts are the first pass's,
    since every pass runs the same operations. primes_out is primes per
    call."""
    first = traced[0]
    out = {}
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            out[name] = min(s.get(name, 0.0) for s in traced)
        else:
            out[name] = first.get(name, 0)
    out["ideals.minimal_primes.primes_out"] = _ratio(
        first.get("ideals.minimal_primes.primes_out", 0), first.get("ideals.minimal_primes.calls", 0))
    out["ideals.product.keep_ratio"] = _ratio(
        first.get("ideals.product.gens_out", 0), first.get("ideals.product.candidates", 0))
    out["ideals.contains.hit_ratio"] = _ratio(
        first.get("ideals.contains.hits", 0), first.get("ideals.contains.calls", 0))
    out["trace.spans"] = sum(v for k, v in first.items() if k.endswith(".calls"))
    out["trace.overhead_s"] = min(s["wall_s"] for s in traced) - min(untraced_wall)
    return out


def _worker(workload: str, seed: int, workdir: Path, *extra: str, timeout: float):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir), *extra]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, check=False)


def measure_setup(workload: str, seed: int, timeout: float) -> float:
    """Time for a fresh interpreter to import genlink and build the
    workload's inputs, on the reference core like wall_s: each of
    SETUP_PROBES processes is timed in units of the speed probes taken just
    before and after it on the same CPU; the median is scaled by
    REFERENCE_PROBE_S. Processes take the CPUs in turn, as passes do."""
    cpus = sorted(os.sched_getaffinity(0))
    speedometer = speed.Speedometer()
    ratios = []
    try:
        for k in range(SETUP_PROBES):
            os.sched_setaffinity(0, {cpus[k % len(cpus)]})
            first = len(speedometer.walls)
            for _ in range(SPEED_PROBES):
                speedometer.probe()
            t0 = time.perf_counter()
            proc = _worker(workload, seed, OUT / "work" / f"probe-{k}", "--setup-only",
                           timeout=timeout)
            elapsed = time.perf_counter() - t0
            if proc.returncode != 0:
                raise RuntimeError(f"set-up failed:\n{proc.stderr}")
            for _ in range(SPEED_PROBES):
                speedometer.probe()
            ratios.append(elapsed / fmean(speedometer.walls[first:]))
    finally:
        os.sched_setaffinity(0, cpus)
    return median(ratios) * speed.REFERENCE_PROBE_S


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; a
    checkout without .git reports "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(workload: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    """One run of one workload; returns its results entry."""
    OUT.mkdir(exist_ok=True)
    metrics: dict[str, float] = {}
    speeds: dict[str, float] = {}
    if not trace:
        metrics["setup_s"] = measure_setup(workload, seed, deadline - time.monotonic())
    workdir = OUT / "work" / "run"
    extra = ["--seconds", str(seconds), "--trace", str(int(trace))]
    if trace:
        extra += ["--trace-file", str(OUT / f"spans-{workload}.jsonl")]
    proc = _worker(workload, seed, workdir, *extra, timeout=deadline - time.monotonic())
    if proc.returncode != 0:
        raise RuntimeError(f"workload process failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if trace:
        metrics.update(layer_metrics(result["untraced_wall_s"], result["traced"]))
    else:
        metrics["wall_s"] = result["wall_s"]
        metrics["cpu_s"] = result["cpu_s"]
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
        speeds = {k: result[k] for k in ("probes", "probe_min_s", "probe_median_s")}
    return {
        "pass_wall_s": result["untraced_wall_s"] if trace else result["pass_wall_s"],
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": len(result["traced"] if trace else result["pass_wall_s"]),
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "failures": result["failures"][:20],
        "metrics": metrics,
        "speed_probes": speeds,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="genlink benchmark")
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "genlink" / "cli.py").is_file():
        print(f"error: no genlink sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = PER_LAYER if args.trace else END_TO_END
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_BUDGET_S * len(names)
    entries = []
    for name in names:
        try:
            entry = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
        except (RuntimeError, subprocess.TimeoutExpired) as e:
            print(f"error: {name}: {e}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(OUT / "work", ignore_errors=True)
        entries.append(entry)
        with open(OUT / "results.jsonl", "a") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
        print("results entry: " + json.dumps(
            {k: v for k, v in entry.items() if k not in ("metrics", "pass_wall_s")}))
        for metric, value in entry["metrics"].items():
            print(f"{name:14} {metric:36} {value:.6g} {units[metric]}")
        for failure in entry["failures"]:
            print(f"FAILED {name}: {failure}")

    attempted = sum(e["attempted"] for e in entries)
    failed = sum(e["failed"] for e in entries)
    prefix = len(entries) > 1
    metrics = {
        (f"{e['workload']}.{k}" if prefix else k): {"value": v, "unit": units[k]}
        for e in entries for k, v in e["metrics"].items()
    }
    print(f"fail_ratio {failed}/{attempted}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
