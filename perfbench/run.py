"""Benchmark of the monobound CLI, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The load is a closed loop with one
client: this process runs one `python -m monobound.cli ...` child at a
time, with `src` on PYTHONPATH, and checks every answer against the
independent oracles in `oracles.py`.  The query list of a workload is
built from the seed alone (`workloads.py`).

A pass runs the workload's query list once, in order.  A run makes one
whole pass, then goes on through the list while each next query's
previous time still fits in S seconds.  The queries workload gets a
fresh scan-cache file per pass.

--trace 0 reports the end-to-end metrics:
  wall_s       time to answer the query list once: the sum over queries
               of each query's median process wall time
  query_p50_s  median over queries of that per-query median
  peak_rss_mb  largest max-RSS of any child process
  setup_s      median wall time of `python -c "import monobound.cli"`,
               which every query pays before any work, timed about
               two dozen times per pass between the queries
--trace 1 alternates whole untraced and traced passes while another pair
fits, and reports the per-layer metrics of `layers.py` (medians over
traced passes) plus trace.overhead_s (traced minus untraced wall_s).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  `attempted` counts the queries of the
list and `failed` those with a failed attempt: an exit code, error type
or output that differs from the oracle, or a run past the query's time
limit ("timeout").  `correct` is false only when the program gave a
wrong answer, not when it refused to answer.  Lines before it give
provenance, query_p90_s (where at least ten queries lie beyond p90),
failed_frac and every failed query.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import layers
import oracles
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"
SCRATCH = ROOT / ".perfbench_tmp"

E2E_UNITS = {"wall_s": "s", "query_p50_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
SETUP_CODE = "import monobound.cli"
# set-up is timed this many times per pass, spread evenly between the
# queries, so that its median covers the whole run and not one moment
SETUP_PROBES_PER_PASS = 24
# queries still waiting when this much time has passed are recorded as
# timeouts without being started, so that a run always ends in time
RUN_DEADLINE_S = 150.0


@dataclass
class Attempt:
    qid: str
    status: str  # "ok", "error", "wrong" or "timeout"
    wall_s: float
    reason: str = ""
    trace: Optional[dict] = None


def child_env(cache_path: Optional[str] = None) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("MONOBOUND_CACHE", None)
    if cache_path:
        env["MONOBOUND_CACHE"] = cache_path
    return env


class Runner:
    """Runs queries one at a time and checks each answer."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self._verified: Dict[tuple, tuple] = {}
        self.setup_times: List[float] = []
        self._last_wall: Dict[str, float] = {}

    def probe_setup(self) -> None:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=self.workdir, env=child_env(),
                       capture_output=True, timeout=60, check=True)
        self.setup_times.append(time.perf_counter() - start)

    def run(self, query: workloads.Query, env: Dict[str, str],
            traced: bool = False) -> Attempt:
        limit = min(query.timeout_s, self.deadline - time.perf_counter())
        if limit <= 0:
            return Attempt(query.qid, "timeout", query.timeout_s, "run deadline reached")
        spans_path = self.workdir / f"{query.qid}.spans.json"
        if traced:
            cmd = [sys.executable, str(TRACED_CLI), str(spans_path), query.qid]
        else:
            cmd = [sys.executable, "-m", "monobound.cli"]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd + list(query.argv), stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                cwd=ROOT, env=env, text=True)
        try:
            stdout, _ = proc.communicate(query.stdin, timeout=limit)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return Attempt(query.qid, "timeout", time.perf_counter() - start,
                           f"over its {limit:.1f} s limit")
        wall = time.perf_counter() - start
        # answers are deterministic, so each distinct answer is checked once
        key = (query.qid, proc.returncode, stdout)
        if key not in self._verified:
            self._verified[key] = oracles.verdict(query.expect, proc.returncode, stdout)
        status, reason = self._verified[key]
        trace = None
        if traced and spans_path.exists():
            trace = json.loads(spans_path.read_text(encoding="utf-8"))
            spans_path.unlink()
        return Attempt(query.qid, status, wall, reason, trace)

    def run_pass(self, workload: str, queries: List[workloads.Query], traced: bool,
                 index: int, end: Optional[float] = None) -> List[Attempt]:
        """One pass over the query list.

        With `end`, the pass stops at the first query whose previous
        wall time would carry it past `end`.
        """
        cache = str(self.workdir / f"scan-{index}.cache") if workload == "queries" else None
        env = child_env(cache)
        stride = max(1, len(queries) // SETUP_PROBES_PER_PASS)
        attempts = []
        for i, query in enumerate(queries):
            if end is not None and time.perf_counter() + self._last_wall[query.qid] > end:
                break
            if i % stride == 0:
                self.probe_setup()
            attempt = self.run(query, env, traced)
            self._last_wall[query.qid] = attempt.wall_s
            attempts.append(attempt)
        return attempts


def check_setup(workdir: Path) -> None:
    """Fail fast when the CLI cannot be imported; also writes bytecode caches."""
    if not (SRC / "monobound" / "cli.py").is_file():
        raise RuntimeError(f"no monobound sources under {SRC}")
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=workdir, env=child_env(),
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import monobound.cli from {SRC}:\n{proc.stderr}")


def provenance(workload: str, seed: int) -> dict:
    init = (SRC / "monobound" / "__init__.py").read_text(encoding="utf-8")
    version = re.search(r'__version__ = "([^"]+)"', init)
    return {"workload": workload, "seed": seed,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "monobound": version.group(1) if version else "unknown",
            "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout's .git directory, or "unknown" without one."""
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


def per_query_medians(passes: List[List[Attempt]]) -> Dict[str, float]:
    samples: Dict[str, List[float]] = {}
    for attempt in (a for p in passes for a in p):
        samples.setdefault(attempt.qid, []).append(attempt.wall_s)
    return {qid: statistics.median(walls) for qid, walls in samples.items()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the result plus report-only extras."""
    queries = workloads.build(workload, seed)
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        check_setup(workdir)
        start = time.perf_counter()
        end = start + min(seconds, RUN_DEADLINE_S)
        runner = Runner(workdir, start + RUN_DEADLINE_S)
        plain: List[List[Attempt]] = []
        traced: List[List[Attempt]] = []
        if trace:  # whole untraced and traced passes, alternating
            while True:
                plain.append(runner.run_pass(workload, queries, False, 2 * len(plain)))
                traced.append(runner.run_pass(workload, queries, True, 2 * len(plain) - 1))
                elapsed = time.perf_counter() - start
                if start + elapsed * (len(plain) + 1) / len(plain) > end:
                    break
        else:  # one whole pass, then on through the list while queries fit
            plain.append(runner.run_pass(workload, queries, False, 0))
            while len(plain[-1]) == len(queries):
                more = runner.run_pass(workload, queries, False, len(plain), end)
                if not more:
                    break
                plain.append(more)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:  # another run is still using it
            pass

    attempts = [a for p in plain + traced for a in p]
    failures = [a for a in attempts if a.status != "ok"]
    # a query of the list fails when any of its attempts does
    failed = len({a.qid for a in failures})
    medians = per_query_medians(plain)
    wall_s = sum(medians.values())
    if trace:
        per_pass = [layers.pass_metrics((a.wall_s, a.trace) for a in p) for p in traced]
        metrics = {name: statistics.median(m[name] for m in per_pass)
                   for name in per_pass[0]}
        traced_wall = sum(per_query_medians(traced).values())
        metrics["trace.overhead_s"] = traced_wall - wall_s
        units = layers.UNITS
    else:
        metrics = {"wall_s": wall_s,
                   "query_p50_s": statistics.median(medians.values()),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
                   "setup_s": statistics.median(runner.setup_times)}
        units = E2E_UNITS
    extras = {"passes": len(plain), "samples": sum(map(len, plain)), "wall_s": wall_s,
              "failed_frac": failed / len(queries)}
    # ten queries beyond p90 need at least 100 queries
    if len(medians) >= 100:
        extras["query_p90_s"] = statistics.quantiles(medians.values(), n=10)[-1]
    if trace:
        extras["traced_wall_s"] = traced_wall
    return {
        "result": {
            "correct": not any(a.status == "wrong" for a in attempts),
            "attempted": len(queries),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        },
        "failures": failures,
        "extras": extras,
        "provenance": provenance(workload, seed),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1
    for attempt in out["failures"]:
        print(f"failed {attempt.qid}: {attempt.status}: {attempt.reason}", file=sys.stderr)
    print("provenance " + json.dumps(out["provenance"], sort_keys=True))
    print("extras " + json.dumps(out["extras"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
