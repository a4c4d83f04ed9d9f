"""Trace report: where each workload's time goes, layer by layer.

    python3 perfbench/report.py [--seed N] [--seconds S] [--workload NAME ...]

Runs ``run.py --trace 1`` once per workload (one after another, each in
its own process), then prints for each workload every traced entry with
its share of the traced pass's wall time spent in its own code (self
time), its exact counts, and trace.overhead_s.  Shares of all entries
do not add up to 100%: the rest is harness code and laxkit code outside
any traced entry.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import EXTRA_STATS, entry_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def traced_summary(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    summary = json.loads((HERE / "out" / f"trace-{workload}-seed{seed}.json").read_text())
    summary["correct"] = result["correct"]
    return summary


def format_report(workload: str, summary: dict, top: int = 0) -> str:
    m = summary["metrics"]
    wall = summary["traced_wall_s"]
    rows = []
    for name in entry_names():
        calls = m[f"{name}.calls"]
        if not calls:
            continue
        extras = ", ".join(
            f"{s}={m[f'{name}.{s}']:.4g}" for s in EXTRA_STATS.get(name, ())
        )
        rows.append((m[f"{name}.self_s"] / wall, name, calls, m[f"{name}.total_s"], extras))
    rows.sort(reverse=True)
    if top:
        rows = rows[:top]
    lines = [
        f"== {workload}  (seed {summary['meta']['seed']}, "
        f"PYTHONHASHSEED {summary['meta']['pythonhashseed']}, correct={summary['correct']})",
        f"   untraced pass {summary['untraced_wall_s']:.3f} s, traced pass {wall:.3f} s, "
        f"trace.overhead_s {m['trace.overhead_s']:.3f}",
        f"   {'self %':>7}  {'entry':<52} {'calls':>8} {'total_s':>9}  extra",
    ]
    for share, name, calls, total, extras in rows:
        lines.append(f"   {100 * share:6.1f}%  {name:<52} {calls:>8} {total:9.3f}  {extras}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=1.0,
                    help="run length per workload (at least one pass each way)")
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--top", type=int, default=0, help="show only the top N entries")
    args = ap.parse_args(argv)
    for workload in args.workload or list(WORKLOADS):
        summary = traced_summary(workload, args.seed, args.seconds)
        print(format_report(workload, summary, args.top), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
