"""
One fresh benchmark interpreter.  It imports knotcover, loads the default
table and answers the workload's fixed warm-up query (that is set-up), then
runs the workload as a closed loop: one client calls knotcover.cli.main(argv)
in-process with stdout and stderr captured, and sends the next query only
after the previous one returned.  Every answer is checked by the oracle
between queries, outside the timed calls.  The last stdout line is a JSON
object for run.py.

    python3 knotbench/worker.py setup WORKLOAD SEED SECONDS
    python3 knotbench/worker.py run   WORKLOAD SEED SECONDS
    python3 knotbench/worker.py trace WORKLOAD SEED SECONDS

setup stops after set-up; run times the untraced loop; trace runs every
query twice, untraced and traced in alternating order, to give the per-layer
metrics and the tracing overhead, then times the selftest criteria traced.
"""
from __future__ import annotations

import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from oracle import Oracle, call_cli
from probe import probe, slowdown
from tracer import Stats, Tracer, layer_metrics
from workloads import WARMUP, blocks

ROOT = Path(__file__).resolve().parent.parent

# The 90th-percentile latency needs ten queries beyond it.
MIN_QUERIES = 100
# No new block starts after this much wall time, so a run always ends.
WALL_LIMIT_S = 120.0
# The selftest criteria timed in a traced run, by number.
CRITERIA = (1, 2, 3, 5, 6, 7, 9, 10, 11)


def run_query(argv: list[str]) -> tuple[int, str, str, float]:
    """(exit code, stdout, stderr, seconds) of one in-process CLI call."""
    start = time.perf_counter()
    code, out, err = call_cli(argv)
    return code, out, err, time.perf_counter() - start


def setup(workload: str) -> tuple[tuple[int, str, str, float], float, float]:
    """
    Import the CLI, load the default table and answer the warm-up query;
    returns the warm-up answer, the seconds set-up took and the machine
    slowdown the probes on either side of it saw.
    """
    before = probe()
    start = time.perf_counter()
    importlib.import_module("knotcover.cli")
    importlib.import_module("knotcover.knots").KnotTable.default()
    warm = run_query(WARMUP[workload])
    seconds = time.perf_counter() - start
    return warm, seconds, slowdown((before + probe()) / 2)


class Checker:
    """Runs the oracle on answers and keeps the first few failures."""

    def __init__(self) -> None:
        self.oracle = Oracle()
        self.attempted = 0
        self.failed = 0
        self.examples: list[dict] = []

    def check(self, argv: list[str], code: int, out: str, err: str) -> None:
        self.attempted += 1
        reason = self.oracle.check(argv, code, out, err)
        if reason is not None:
            self.fail(argv, reason)

    def fail(self, argv: list[str], reason: str) -> None:
        self.failed += 1
        if len(self.examples) < 5:
            self.examples.append({"argv": argv, "reason": reason})


def closed_loop(checker: Checker, workload: str, seed: int,
                seconds: float, min_queries: int = MIN_QUERIES) -> tuple[list[float], list[float]]:
    """
    Whole blocks until the calls have taken `seconds` and at least
    `min_queries` queries have run.  Returns the latency of every call and
    the machine slowdown around it, from probes between the calls.
    """
    latencies: list[float] = []
    probes = [probe()]
    busy, wall_start = 0.0, time.monotonic()
    stream = blocks(workload, seed)
    while (busy < seconds or len(latencies) < min_queries) \
            and time.monotonic() - wall_start < WALL_LIMIT_S:
        for argv in next(stream):
            code, out, err, dt = run_query(argv)
            probes.append(probe())
            latencies.append(dt)
            busy += dt
            checker.check(argv, code, out, err)
    slowdowns = [slowdown((a + b) / 2) for a, b in zip(probes, probes[1:])]
    return latencies, slowdowns


def _cyclotomic_cache() -> tuple[int, int]:
    """(hits, misses) of the cyclotomic-polynomial cache; zeros without one."""
    cyclotomic = getattr(getattr(importlib.import_module("knotcover.laurent_poly"),
                                 "IntPoly", None), "cyclotomic", None)
    info = getattr(cyclotomic, "cache_info", None)
    return (info().hits, info().misses) if info else (0, 0)


def traced_loop(checker: Checker, workload: str, seed: int,
                seconds: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, the tracing overhead and traced criterion times."""
    tracer = Tracer()
    stats = Stats()
    plain_s = traced_s = 0.0
    probes = [probe()]
    cache_before = _cyclotomic_cache()
    stream = blocks(workload, seed)
    tracer.install()
    try:
        while plain_s + traced_s < seconds:
            for argv in next(stream):
                answers = {}
                for traced in ((False, True) if stats.queries % 2 == 0 else (True, False)):
                    if traced:
                        with tracer.query(stats):
                            answers[traced] = run_query(argv)
                    else:
                        answers[traced] = run_query(argv)
                probes.append(probe())
                plain_s += answers[False][3]
                traced_s += answers[True][3]
                for code, out, err, _ in answers.values():
                    checker.check(argv, code, out, err)
                if answers[False][:3] != answers[True][:3]:
                    checker.fail(argv, "tracing changed the answer")
        cache_after = _cyclotomic_cache()
        metrics = layer_metrics(stats)
        for k in CRITERIA:
            start = time.perf_counter()
            with tracer.query(Stats()):
                (result,) = importlib.import_module("knotcover.acceptance").run_criteria([k])
            metrics[f"acceptance.criterion_{k}_s"] = (time.perf_counter() - start, "s")
            checker.attempted += 1
            if not result.passed:
                checker.fail(["selftest", "--only", str(k)], result.detail)
    finally:
        tracer.uninstall()
    hits = cache_after[0] - cache_before[0]
    lookups = hits + cache_after[1] - cache_before[1]
    metrics["laurent_poly.cyclotomic_hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    metrics["trace.overhead_pct"] = ((traced_s / plain_s - 1) * 100, "%")
    metrics["trace.queries"] = (stats.queries, "count")
    # Per-layer times are as measured; this says how slow the machine ran.
    metrics["trace.machine_slowdown"] = (slowdown(statistics.median(probes)), "ratio")
    return metrics


def main(argv: list[str]) -> int:
    mode, workload, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    sys.path.insert(0, str(ROOT / "src"))
    warm, setup_s, setup_slowdown = setup(workload)
    result: dict = {"setup_s": setup_s, "setup_slowdown": setup_slowdown}
    if mode == "setup":
        print(json.dumps(result))
        return 0
    checker = Checker()
    checker.check(WARMUP[workload], *warm[:3])
    if mode == "run":
        result["latencies"], result["slowdowns"] = closed_loop(checker, workload, seed, seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    elif mode == "trace":
        result["metrics"] = traced_loop(checker, workload, seed, seconds)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    result.update(attempted=checker.attempted, failed=checker.failed, failures=checker.examples)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
