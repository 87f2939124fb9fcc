"""Benchmark entry point: cold passes over one workload, one process and thread each.

    python3 perfbench/run.py --workload springer-ladder --seed 1 --seconds 40 --trace 0

Cold passes, each in a fresh interpreter, run one after another until
the next one would end past ``--seconds`` (at least one runs). Set-up is
timed by launches of ``cold_pass.py --setup-only`` (interpreter start,
``import poincare_series``, input generation): a few before the first
pass and a few after each pass, so that the samples are spread over the
run like the passes are; ``setup_s`` is their median.

Every time is scaled to the reference speed (``speed.py``), because the
machine's own speed drifts. ``wall_s`` is the median over the run's
passes of the pass's summed request latencies; ``request_p50_s`` the
median latency over every request of every pass; ``request_max_s`` the
largest, over the requests, of a request's median latency across passes.

With ``--trace 1`` untraced and traced passes alternate; per-layer times
are medians over the traced passes, each scaled by its pass's
scaled-to-measured ratio, counts come from the first traced pass (they
repeat exactly), and ``trace.overhead_s`` is the median traced ``wall_s``
minus the median untraced one.

Output checks run inside each pass after its timed region. A line with
the environment, the error rate, the output digests and every pass's
numbers precedes the final JSON line, which holds ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import Span

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_LAUNCHES_FIRST = 8
SETUP_LAUNCHES_PER_ROUND = 3
# every run must end well inside the 180 s a run is allowed
HARD_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "request_p50_s": "s",
    "request_max_s": "s",
    "peak_rss_mb": "MB",
}
# units of per-layer metrics that are exact counts rather than times
COUNT_UNITS = ("count", "degree", "bits")


class BenchError(Exception):
    pass


def launch(args: list[str], deadline: float) -> str:
    """Run cold_pass.py in a fresh interpreter; its stdout, or BenchError."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "cold_pass.py"), *args]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising
        raise BenchError(f"pass did not finish in time: {' '.join(args)}") from None
    if done.returncode != 0:
        raise BenchError(f"pass failed with exit code {done.returncode}:\n{done.stderr.strip()}")
    return done.stdout


def time_setup(base: list[str], deadline: float) -> float:
    """Scaled seconds of one set-up launch."""
    with Span(sample=False) as span:
        launch(base + ["--setup-only"], deadline)
    return span.scaled


def run_passes(workload: str, seed: int, seconds: float, traced: bool, deadline: float):
    """Cold passes until the next one would overrun.

    Returns the set-up samples and the untraced and traced pass reports.
    """
    plain, with_trace = [], []
    base = ["--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    setup = [time_setup(base, deadline) for _ in range(SETUP_LAUNCHES_FIRST)]
    rounds = []
    while True:
        round_start = time.perf_counter()
        plain.append(json.loads(launch(base, deadline)))
        if traced:
            with_trace.append(json.loads(launch(base + ["--trace"], deadline)))
        setup += [time_setup(base, deadline) for _ in range(SETUP_LAUNCHES_PER_ROUND)]
        rounds.append(time.perf_counter() - round_start)
        projected = time.perf_counter() + statistics.median(rounds)
        if projected - start > seconds or projected > deadline:
            return setup, plain, with_trace


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "commit": commit()}


def commit() -> str:
    """HEAD of the checkout's git repository; 'unknown' outside one."""
    try:
        # the ceiling keeps git from reporting a repository that encloses the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def pass_wall(report: dict) -> float:
    return sum(report["scaled_latencies_s"])


def end_to_end(setup: list, passes: list) -> dict:
    # every pass of a run sends the same requests, so latencies line up by position
    per_request = zip(*(p["scaled_latencies_s"] for p in passes))
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(pass_wall(p) for p in passes),
        "request_p50_s": statistics.median(t for p in passes for t in p["scaled_latencies_s"]),
        "request_max_s": max(statistics.median(samples) for samples in per_request),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(plain: list, with_trace: list) -> dict:
    """Counts and sizes from the first traced pass (they repeat exactly), times as medians."""
    metrics = {}
    for name, first in with_trace[0]["layers"].items():
        if first["unit"] in COUNT_UNITS:
            metrics[name] = first
        else:
            value = statistics.median(
                p["layers"][name]["value"] * pass_wall(p) / sum(p["latencies_s"])
                for p in with_trace
            )
            metrics[name] = {"value": value, "unit": first["unit"]}
    overhead = (statistics.median(pass_wall(p) for p in with_trace)
                - statistics.median(pass_wall(p) for p in plain))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "poincare_series" / "__init__.py").is_file():
        print("perfbench: src/poincare_series not found; run from a full checkout", file=sys.stderr)
        return 2
    # passes, set-up launches and the speed samples around them share one CPU,
    # so the samples see the speed of the CPU the work ran on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    deadline = time.perf_counter() + HARD_LIMIT_S
    try:
        setup, plain, with_trace = run_passes(
            args.workload, args.seed, args.seconds, bool(args.trace), deadline
        )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    passes = plain + with_trace
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    digests = sorted({p["sha256"] for p in passes})
    for failure in failures[:20]:
        print(f"perfbench: failed: {failure}", file=sys.stderr)
    if len(digests) > 1:
        print("perfbench: passes of one seed produced different outputs", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": environment(),
        "error_rate": {"value": len(failures) / attempted, "unit": "ratio"},
        "output_sha256": digests,
        "end_to_end": end_to_end(setup, plain),
        "setup_samples_s": setup,
        "untraced_passes": [
            {key: p[key] for key in ("latencies_s", "scaled_latencies_s", "peak_rss_mb")}
            for p in plain
        ],
        "traced_passes": len(with_trace),
    }
    print(json.dumps(info))
    metrics = per_layer(plain, with_trace) if args.trace else info["end_to_end"]
    result = {
        "correct": not failures and len(digests) == 1,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
