"""Benchmark of the spatialbsa CLI: four workloads, each command in a fresh interpreter.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload bsa_lossy --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all            # every workload, one table

The program is imported from ``src/`` of the checkout; nothing is installed.
With ``--trace 0`` a run reports the end-to-end metrics (``units_per_s``,
``setup_s``, ``peak_rss_mb``); with ``--trace 1`` it reports the per-layer
metrics of the span tracer in ``spans.py``.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it name every failure with its
reason and record the environment.  See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = BENCH_DIR / "child.py"
OUT_DIR = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"

DEFAULT_SEED = 1
# Median CPU time, on the reference host, of a child's interpreter start
# plus ``import numpy``: a 2-core "Intel(R) Xeon(R) Processor" VM with Python
# 3.11.7 and NumPy 2.4.6.  Any constant would do; it only fixes the scale.
NOMINAL_CALIBRATION_S = 0.13
# A run must end within this many seconds, whatever --seconds says.
RUN_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


def host_speed(calibration_s: float) -> float:
    """How fast the host ran one child, relative to the reference host.

    On a shared host the same command runs up to half again as long from
    one minute to the next, and every phase of one process slows together.
    The calibration is the main thread's CPU time for interpreter start
    plus ``import numpy``.  It runs no program code, so a change to the
    program cannot move it, and as CPU time it leaves out waits for the
    disk.  Every time measured in that child is multiplied by this factor.
    """
    return NOMINAL_CALIBRATION_S / calibration_s


class Child:
    """Spawns ``child.py`` in fresh interpreters, one at a time."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        OUT_DIR.mkdir(exist_ok=True)
        self.result_path = OUT_DIR / f"child-{os.getpid()}.json"
        self.stdout_path = OUT_DIR / f"stdout-{os.getpid()}.txt"

    def spawn(self, mode: str, argv=()) -> tuple[dict, str]:
        """Run one child; return its record and the program's stdout."""
        self.result_path.unlink(missing_ok=True)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run deadline passed")
        with open(self.stdout_path, "wb") as out:
            start = time.monotonic()
            try:
                proc = subprocess.run(
                    [sys.executable, str(CHILD), str(self.result_path), str(SRC), mode, "--", *argv],
                    stdout=out,
                    stderr=subprocess.PIPE,
                    cwd=ROOT,
                    timeout=timeout,
                )
            except subprocess.TimeoutExpired:
                raise BenchError(f"{mode} child passed the run deadline") from None
        if proc.returncode != 0 or not self.result_path.exists():
            stderr = proc.stderr.decode(errors="replace").strip().splitlines()
            raise BenchError(
                f"{mode} child exited {proc.returncode}: {stderr[-1] if stderr else 'no output'}"
            )
        record = json.loads(self.result_path.read_text())
        if not record["spatialbsa_file"].startswith(str(SRC) + os.sep):
            raise BenchError(f"spatialbsa imported from {record['spatialbsa_file']}, not {SRC}")
        record["setup_s"] = record["setup_done"] - start
        record["speed"] = host_speed(record["calibration_s"])
        return record, self.stdout_path.read_text()

    def close(self) -> None:
        self.result_path.unlink(missing_ok=True)
        self.stdout_path.unlink(missing_ok=True)


class Checker:
    """Checks each command's output and counts failures, naming each one.

    At the default seed and full size every command must match the stored
    reference; at any seed, every repeat of a command within the run must
    match its first run.
    """

    def __init__(self, workload: str, seed: int, size: str, cycle):
        self.workload = workload
        self.first: dict[int, dict] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.reference = None
        if seed == DEFAULT_SEED and size == "full":
            stored = json.loads(REFERENCE.read_text())[workload]
            if [entry["argv"] for entry in stored] != cycle:
                raise BenchError(f"{REFERENCE.name} holds other inputs for {workload}")
            self.reference = [entry["fields"] for entry in stored]

    def __call__(self, index: int, argv, record: dict, text: str) -> int:
        """Check one command; return the units its output confirms."""
        self.attempted += 1
        code = record["exit_code"]
        units, reasons, fields = workloads.check(self.workload, argv, code, text)
        if code == "exception":
            reasons.append(record["traceback"].strip().splitlines()[-1])
        if fields is not None:
            if self.reference is not None:
                reasons += [f"reference: {d}" for d in workloads.compare(self.reference[index], fields)]
            if index in self.first:
                reasons += [f"repeat differs: {d}" for d in workloads.compare(self.first[index], fields)]
            else:
                self.first[index] = fields
        if reasons:
            message = f"FAILED {self.workload} command {index} ({argv[0]}): " + "; ".join(reasons)
            self.failures.append(message)
            print(message, flush=True)
            return 0
        return units

    @property
    def failed(self) -> int:
        return len(self.failures)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def run_end_to_end(workload, seed, seconds, size, child: Child) -> dict:
    """Commands in a closed loop, one at a time, each in a fresh interpreter.

    Times are scaled by each child's host speed; the raw times are kept in
    the result record.
    """
    cycle = workloads.commands(workload, seed, size)
    checker = Checker(workload, seed, size, cycle)
    start = time.monotonic()
    setups, rates, rss, details = [], [], [], []
    i = 0
    while i < len(cycle) or time.monotonic() - start < seconds:
        index = i % len(cycle)
        record, text = child.spawn("run", cycle[index])
        units = checker(index, cycle[index], record, text)
        setups.append(record["setup_s"] * record["speed"])
        rates.append(units / (record["main_s"] * record["speed"]))
        rss.append(record["maxrss_kb"] / 1024.0)
        details.append({key: record[key] for key in (
            "exit_code", "main_s", "setup_s", "calibration_s", "speed", "maxrss_kb")})
        details[-1].update(command=index, units=units)
        i += 1
    metrics = {
        "units_per_s": (median(rates), "1/s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (median(rss), "MB"),
    }
    samples = {name: f"median of {len(rates)} commands" for name in metrics}
    return {"checker": checker, "metrics": metrics, "samples": samples, "commands": details,
            "argv": cycle}


def run_traced(workload, seed, seconds, size, child: Child) -> dict:
    """Whole cycles, each command once untraced and once traced.

    Counts and ratios come from the first cycle and must repeat exactly in
    every later one; times, scaled by host speed, are medians over cycles.
    """
    cycle = workloads.commands(workload, seed, size)
    checker = Checker(workload, seed, size, cycle)
    start = time.monotonic()
    per_cycle = []
    while not per_cycle or time.monotonic() - start < seconds:
        summaries, speeds, untraced_s = [], [], 0.0
        for index, argv in enumerate(cycle):
            plain, text = child.spawn("run", argv)
            checker(index, argv, plain, text)
            traced, text = child.spawn("trace", argv)
            checker(index, argv, traced, text)
            untraced_s += plain["main_s"] * plain["speed"]
            summaries.append(traced["trace"])
            speeds.append(traced["speed"])
        per_cycle.append(spans.layer_metrics(summaries, speeds, untraced_s))
    metrics = {}
    for name, first in per_cycle[0].items():
        values = [m[name] for m in per_cycle]
        if spans.is_exact(name):
            if any(v != first for v in values):
                message = f"FAILED {workload}: {name} differs between traced cycles: {values}"
                checker.failures.append(message)
                print(message, flush=True)
            value = first
        else:
            value = median(values)
        metrics[name] = (value, spans.metric_unit(name))
    samples = {name: f"{len(per_cycle)} traced cycles" for name in metrics}
    return {"checker": checker, "metrics": metrics, "samples": samples, "argv": cycle,
            "cycles": per_cycle}


def environment(seed: int, child: Child) -> dict:
    # Where bytecode caching is on, this first child also writes the
    # program's cache, so no measured child pays for compiling it.
    record, _ = child.spawn("setup")
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": record["python_version"],
        "numpy": record["numpy_version"],
        "spatialbsa": record["spatialbsa_version"],
        "git_commit": commit,
        "bytecode_cache": not sys.dont_write_bytecode,
        "workload_seed": seed,
    }


def run_workload(workload, seed, seconds, trace, size, child: Child, env: dict) -> dict:
    runner = run_traced if trace else run_end_to_end
    outcome = runner(workload, seed, seconds, size, child)
    checker = outcome["checker"]
    result = {
        "correct": checker.failed == 0 and checker.attempted > 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in outcome["metrics"].items()
        },
    }
    record = {
        "workload": workload,
        "size": size,
        "trace": trace,
        "seconds": seconds,
        "environment": env,
        "argv": outcome["argv"],
        "samples": outcome["samples"],
        "failures": checker.failures,
        "result": result,
        **{key: outcome[key] for key in ("commands", "cycles") if key in outcome},
    }
    print(f"argv {workload} " + json.dumps(outcome["argv"]), flush=True)
    name = f"result-{workload}-seed{seed}-trace{int(trace)}{'-tiny' if size == 'tiny' else ''}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1))
    return {"result": result, "samples": outcome["samples"], "failed_frac": checker.failed / checker.attempted}


def print_table(workload: str, outcome: dict) -> None:
    print(f"== {workload}")
    for name, metric in outcome["result"]["metrics"].items():
        print(f"  {name:36s} {metric['value']:>16.6g} {metric['unit']:<15s}"
              f" ({outcome['samples'][name]})")
    result = outcome["result"]
    print(f"  {'failed_frac':36s} {outcome['failed_frac']:>16.6g} {'ratio':<15s}"
          f" ({result['failed']} of {result['attempted']} commands)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed; {DEFAULT_SEED} also checks the stored reference")
    parser.add_argument("--seconds", type=float, default=25.0, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)

    # On SIGTERM, unwind so that subprocess.run kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "spatialbsa" / "cli.py").is_file():
        print(f"error: no spatialbsa sources under {SRC}", file=sys.stderr)
        return 1
    size = "tiny" if args.tiny else "full"
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    child = Child(time.monotonic() + RUN_DEADLINE_S * len(names))
    try:
        env = environment(args.seed, child)
        print("environment " + json.dumps(env), flush=True)
        outcomes = {}
        for workload in names:
            outcomes[workload] = run_workload(
                workload, args.seed, args.seconds, bool(args.trace), size, child, env)
            print_table(workload, outcomes[workload])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        child.close()
    if args.workload == "all":
        print(json.dumps({name: outcome["result"] for name, outcome in outcomes.items()}))
    else:
        print(json.dumps(outcomes[args.workload]["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
