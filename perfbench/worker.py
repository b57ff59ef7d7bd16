"""The workload process: imports genlink from the checkout, builds one
workload's inputs and runs whole passes of it in-process, from one thread.

    python3 perfbench/worker.py --workload W --seed S --workdir DIR
                                (--setup-only | --seconds T --trace 0|1 [--trace-file F])

--setup-only stops after the inputs are built; run.py times such processes
to get setup_s. Otherwise passes run until --seconds have gone by, at least
one, and the last line of stdout is a JSON summary for run.py: every pass's
wall time and the calibrated wall and CPU time of one pass (see
calibrated_pass and speed.py). With --trace 1 no speed probes run; the
first half of the time runs untraced passes and the rest runs traced ones,
so that the tracing overhead can be read off.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def import_genlink():
    """genlink.cli, which must come from this checkout's src/."""
    from genlink import cli

    if Path(cli.__file__).resolve().parent != ROOT / "src" / "genlink":
        raise ImportError(f"genlink imported from {cli.__file__}, not from {ROOT / 'src'}")
    return cli


def invoke(cli, op: workloads.Op, report_path: Path, speedometer: speed.Speedometer | None = None):
    """Run one operation through `cli.main`. Return its exit code, its
    output (stdout, or the report file for verify), its wall and CPU
    seconds and, given a speedometer, the mean wall and CPU seconds of the
    probes taken around and inside it (else None twice); the probes' own
    time is not counted in the operation's."""
    argv = list(op.argv)
    if op.kind == "verify":
        argv += ["--out", str(report_path)]
    sink, errors = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(errors):
        if speedometer is None:
            wall0, cpu0 = time.perf_counter(), time.process_time()
            code = cli.main(argv)
            cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
            probe_wall = probe_cpu = None
        else:
            code, wall, cpu, probe_wall, probe_cpu = speedometer.call(lambda: cli.main(argv))
    if op.kind == "verify":
        output = report_path.read_text() if report_path.exists() else None
        report_path.unlink(missing_ok=True)
    else:
        output = sink.getvalue()
    return code, output, wall, cpu, probe_wall, probe_cpu


class Runner:
    """Runs passes of one workload and checks every operation's output."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.cli = import_genlink()
        workdir.mkdir(parents=True, exist_ok=True)
        self.ops = workloads.plan(workload, seed, workdir)
        self.checker = workloads.Checker(seed)
        self.report_path = workdir / "report.json"
        self.attempted = 0
        self.failures: list[str] = []
        self.tracer = None
        self.speedometer: speed.Speedometer | None = None
        self.cpus = sorted(os.sched_getaffinity(0))
        self.passes_run = 0

    def run_op(self, op: workloads.Op) -> tuple:
        """Run and check one operation; return its wall and CPU seconds and
        those of the probes around it (see invoke)."""
        code, output, *times = invoke(self.cli, op, self.report_path, self.speedometer)
        self.attempted += 1
        problem = self.checker.problem(op, code, output)
        if problem is not None:
            self.failures.append(f"{op.key}: {problem}")
        return tuple(times)

    def run_pass(self) -> list[tuple]:
        """Every operation once; their times (see run_op). Passes take the
        process's CPUs in turn, so that one core slowed for a while by
        whatever else shares it cannot hold every sample of an operation."""
        os.sched_setaffinity(0, {self.cpus[self.passes_run % len(self.cpus)]})
        self.passes_run += 1
        times = []
        for op in self.ops:
            if self.tracer is not None:
                self.tracer.op += 1
            times.append(self.run_op(op))
        return times

    def run_until(self, deadline: float) -> list[list[tuple]]:
        """Whole passes until the perf_counter deadline; at least one."""
        passes = [self.run_pass()]
        while time.perf_counter() < deadline:
            passes.append(self.run_pass())
        return passes


def pass_walls(passes) -> list[float]:
    return [sum(times[0] for times in op_times) for op_times in passes]


def calibrated_pass(passes) -> tuple[float, float]:
    """Wall and CPU seconds of one pass on the reference core (see
    speed.py): each operation's time in probes, median over the passes,
    summed and scaled by REFERENCE_PROBE_S."""
    per_op = list(zip(*passes))
    wall = sum(median(w / pw for w, _, pw, _ in runs) for runs in per_op)
    cpu = sum(median(c / pc for _, c, _, pc in runs) for runs in per_op)
    return wall * speed.REFERENCE_PROBE_S, cpu * speed.REFERENCE_PROBE_S


def traced_pass(runner: Runner) -> dict[str, float]:
    """One pass with spans installed (runner.tracer set); its summary."""
    tracer = runner.tracer
    tracer.start_pass()
    wall = pass_walls([runner.run_pass()])[0]
    summary = tracing.summarize(tracer.spans, tracer.counts)
    summary["wall_s"] = wall
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace-file", type=Path, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    runner = Runner(args.workload, args.seed, args.workdir)
    if args.setup_only:
        return 0
    # The oracle's memory peak should fall before the timed passes.
    for op in runner.ops:
        if op.kind == "compare":
            runner.checker.oracle(op)
    result: dict = {}
    start = time.perf_counter()
    if args.trace:
        untraced = runner.run_until(start + args.seconds / 2)
        runner.tracer = tracing.Tracer()
        runner.tracer.install()
        summaries = [traced_pass(runner)]
        while time.perf_counter() < start + args.seconds:
            summaries.append(traced_pass(runner))
        result["untraced_wall_s"] = pass_walls(untraced)
        result["traced"] = summaries
        if args.trace_file is not None:
            runner.tracer.write(args.trace_file)
    else:
        runner.speedometer = speed.Speedometer()
        passes = runner.run_until(start + args.seconds)
        result["pass_wall_s"] = pass_walls(passes)
        result["wall_s"], result["cpu_s"] = calibrated_pass(passes)
        result["probes"] = len(runner.speedometer.walls)
        result["probe_min_s"] = min(runner.speedometer.walls)
        result["probe_median_s"] = median(runner.speedometer.walls)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["attempted"] = runner.attempted
    result["failures"] = runner.failures
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
