"""
The knotcover benchmark.  From the root of a checkout:

    python3 knotbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metrics are declared in BENCHMARK.json at the root.  With
--trace 0 the run measures set-up in several fresh interpreters, then runs
the workload untraced in one more and reports the end-to-end metrics; with
--trace 1 it reports the per-layer metrics from a traced run.  All worker
interpreters run one after another; none uses threads.  Every answer is
checked by the oracle.

End-to-end times are divided by the machine slowdown that the calibration
probe (probe.py) saw around each timed call, so that they stay comparable
when the host's speed changes; the values as measured are printed too.
Per-layer times are as measured, with the slowdown reported beside them.

Output: a run record (Python version, host, CPUs, commit, source digest,
seed), one line per metric, and last the JSON result with the keys correct,
attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src" / "knotcover"
# Set-up is measured in this many fresh interpreters besides the timed one.
SETUP_SPAWNS = 6
# A whole run, workers included, ends within this many seconds.
RUN_LIMIT_S = 170.0


def nearest_rank(values: list[float], percent: int) -> float:
    """
    The smallest sample with at least `percent` % of the samples at or below it.

    >>> nearest_rank([4.0, 1.0, 3.0, 2.0], 50), nearest_rank(list(range(1, 101)), 90)
    (2.0, 90)
    """
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * percent // 100))
    return ordered[rank - 1]


def end_to_end(setups: list[dict], run: dict, normalize: bool = True) -> dict[str, tuple[float, str]]:
    """
    The end-to-end metrics (value, unit) of an untraced run.  With
    `normalize` every time is first divided by the machine slowdown the
    calibration probes saw around it (see probe.py).
    """
    lat = run["latencies"]
    setup = [s["setup_s"] for s in setups]
    if normalize:
        lat = [t / f for t, f in zip(lat, run["slowdowns"])]
        setup = [t / s["setup_slowdown"] for t, s in zip(setup, setups)]
    return {
        "queries_per_s": (len(lat) / sum(lat), "1/s"),
        "query_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "query_p90_ms": (nearest_rank(lat, 90) * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "correct_ratio": ((run["attempted"] - run["failed"]) / run["attempted"], "ratio"),
    }


def source_digest() -> str:
    """sha256 over the package sources, naming the code measured without git."""
    h = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SOURCE).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def run_record(args: argparse.Namespace) -> dict:
    return {
        "python": platform.python_version(),
        "host": platform.node(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class WorkerError(RuntimeError):
    """A worker interpreter failed or ran out of time."""


def spawn(mode: str, args: argparse.Namespace, deadline: float) -> dict:
    """Run one worker interpreter to completion and return its result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), mode, args.workload,
           str(args.seed), str(args.seconds)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker ran out of time") from None
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args: argparse.Namespace) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    if args.trace:
        run = spawn("trace", args, deadline)
        metrics = {k: tuple(v) for k, v in run["metrics"].items()}
    else:
        setups = [spawn("setup", args, deadline) for _ in range(SETUP_SPAWNS)]
        run = spawn("run", args, deadline)
        setups.append(run)
        metrics = end_to_end(setups, run)
        raw = end_to_end(setups, run, normalize=False)
        print("as measured, before dividing by the machine slowdown (median "
              f"{statistics.median(run['slowdowns']):.3f}): "
              + ", ".join(f"{k} = {v:.6g} {u}" for k, (v, u) in raw.items()))
    for failure in run["failures"]:
        print(f"FAILED {' '.join(failure['argv'])}: {failure['reason']}", file=sys.stderr)
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "cli.py").is_file():
        print(f"error: no knotcover sources at {SOURCE.relative_to(ROOT)}", file=sys.stderr)
        return 2
    print(json.dumps({"run_record": run_record(args)}), flush=True)
    try:
        result = measure(args)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(f"checked {result['attempted']} answers, {result['failed']} wrong")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
