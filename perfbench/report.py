"""Print every end-to-end and per-layer metric, with its unit, for every workload.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs `run.py` once untraced and once traced per workload, each in its
own process so that peak RSS is per run, and prints one table.  A
per-layer time is followed by its share of that workload's traced wall_s.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import layers
import run
import workloads

BENCH = Path(__file__).resolve().parent


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          capture_output=True, text=True, cwd=run.ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    for line in lines[:-1]:
        key, _, value = line.partition(" ")
        out[key] = json.loads(value)
    return out


def main(argv=None) -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    names = sorted(workloads.BUILDERS)
    plain, traced = {}, {}
    for w in names:
        plain[w] = _run(w, args.seed, args.seconds, 0)
        traced[w] = _run(w, args.seed, args.seconds, 1)
        print(f"# {w}: provenance {json.dumps(plain[w]['provenance'], sort_keys=True)}",
              file=sys.stderr)

    def cell(value, share_of=None):
        if value is None:
            return "-"
        text = f"{value:.6g}"
        if share_of:
            text += f" ({100 * value / share_of:.1f}%)"
        return text

    rows = []
    for name, unit in run.E2E_UNITS.items():
        rows.append((name, unit, [cell(plain[w]["metrics"][name]["value"]) for w in names]))
    rows.append(("query_p90_s", "s",
                 [cell(plain[w]["extras"].get("query_p90_s")) for w in names]))
    rows.append(("failed_frac", "ratio",
                 [cell(plain[w]["failed"] / plain[w]["attempted"]) for w in names]))
    rows.append(("correct", "bool", [str(plain[w]["correct"]) for w in names]))
    for name, unit, _ in layers.PER_LAYER:
        rows.append((name, unit, [
            cell(traced[w]["metrics"][name]["value"],
                 traced[w]["extras"]["traced_wall_s"]
                 if unit == "s" and name != "trace.overhead_s" else None)
            for w in names]))

    widths = [max(len(r[0]) for r in rows), 6] + [
        max(len(w), *(len(r[2][i]) for r in rows)) for i, w in enumerate(names)]
    header = ("metric", "unit", *names)
    for row in [header] + [(n, u, *vals) for n, u, vals in rows]:
        print("  ".join(str(c).ljust(width) for c, width in zip(row, widths)).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
