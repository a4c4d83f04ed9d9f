"""laxkit benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a laxkit checkout.  One caller runs the workload's
items one after another (the next only after the previous returns),
pass after pass, until S seconds have gone by; at least one pass always
runs.  Every item checks its results exactly.

--trace 0 reports the end-to-end metrics: setup_s (median of several
fresh imports of laxkit plus input generation), wall_s (median pass
time) and peak_rss_mb.  Both times are scaled to a fixed host speed: a
short calibration loop is timed after every set-up and, from a sampling
thread on the same CPU, every SAMPLE_INTERVAL_S during the passes; a
time is reported as if the loops around it had taken
CALIBRATION_NOMINAL_S (see README.md).  --trace 1 runs untraced passes
for half the time and traced passes for the other half, and reports the
per-layer metrics of the traced passes (median per metric) plus
trace.overhead_s; its spans and a summary go to perfbench/out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 when the run
completed (even with failed items, which `correct` and `failed` report),
and 2 when it could not run at all.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

# fresh imports of laxkit (plus input generation) timed per run for setup_s
SETUP_REPEATS = 9

# The shared host's speed drifts: on a 2-vCPU VM each vCPU's speed
# switched between modes about 40% apart within seconds, and raw pass
# times moved by 20% and more over minutes.  A fixed pure-Python loop
# timed on the same CPU while the passes run sees the same drift, so pass
# times divided by its median hold steady.  The loop takes about 1.5 ms
# on a quiet 2-vCPU x86-64 VM under Python 3.11; scaled times read as
# seconds on a host where it takes exactly that.
CALIBRATION_ITERATIONS = 20000
CALIBRATION_NOMINAL_S = 0.0015
# calibration loops after each set-up
SETUP_CALIBRATIONS = 5
# Seconds between calibration loops during the passes.  The sampling
# thread holds the GIL for one loop, so the passes run 3-5% slower than
# they would alone, the same share in every run.
SAMPLE_INTERVAL_S = 0.05


def calibrate() -> float:
    """Time one calibration loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ITERATIONS):
        acc = (acc * 31 + i) % 1000003
    return time.perf_counter() - start


class HostSampler:
    """Times a calibration loop every SAMPLE_INTERVAL_S on a thread of
    its own while the `with` block runs, so that host speed is sampled
    evenly in time, inside long items too."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            self.samples.append(calibrate())

    def __enter__(self) -> "HostSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def pin_to_one_cpu() -> str:
    """Keep this process, and the threads it starts later, on one CPU, so
    that the sampling thread times the CPU the passes run on."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError) as exc:
        return f"not pinned ({exc})"
    return str(cpu)


def host_scaled(seconds: float, calibrations: List[float]) -> float:
    """`seconds` as it would read at the nominal host speed."""
    return seconds * CALIBRATION_NOMINAL_S / statistics.median(calibrations)


def git_sha(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_meta(workload: str, seed: int, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "git_sha": git_sha(ROOT),
        "nproc": len(os.sched_getaffinity(0)),
        # recorded, not pinned: factor_atoms seeds its RNG from hash()
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "unset (random)"),
    }


def drop_laxkit() -> None:
    """Forget any earlier import of laxkit and free its memory, so that
    peak_rss_mb does not count it."""
    for name in [m for m in sys.modules if m == "laxkit" or m.startswith("laxkit.")]:
        del sys.modules[name]
    gc.collect()


def fresh_laxkit():
    """Import laxkit from scratch, dropping any earlier import."""
    drop_laxkit()
    return importlib.import_module("laxkit")


def timed_setup(workloads, name: str, seed: int, workdir: str, reduced: bool):
    """Set up SETUP_REPEATS times, with calibration loops after each;
    return (package, modules, items, times, calibrations)."""
    times, calibrations = [], []
    for _ in range(SETUP_REPEATS):
        drop_laxkit()
        start = time.perf_counter()
        pkg = importlib.import_module("laxkit")
        lk = workloads.modules(pkg)
        items = workloads.WORKLOADS[name](lk, seed, workdir, reduced)
        times.append(time.perf_counter() - start)
        calibrations += [calibrate() for _ in range(SETUP_CALIBRATIONS)]
    return pkg, lk, items, times, calibrations


def run_pass(items):
    """Run every item once; return (seconds, attempted, failed names)."""
    failed = []
    start = time.perf_counter()
    for name, check in items:
        try:
            ok = check()
        except Exception:  # an item that raises counts as failed
            ok = False
            sys.stderr.write(f"item {name} raised:\n{traceback.format_exc()}")
        if not ok:
            failed.append(name)
    return time.perf_counter() - start, len(items), failed


@dataclass
class Passes:
    wall: List[float] = field(default_factory=list)  # seconds per pass
    scaled: List[float] = field(default_factory=list)  # the same, host_scaled
    layers: List[dict] = field(default_factory=list)  # traced passes only
    attempted: int = 0
    failed: List[str] = field(default_factory=list)


def run_passes(items, seconds: float, log, passes: Passes, tracer=None) -> None:
    """Closed loop: passes until `seconds` have elapsed, at least one,
    host speed sampled meanwhile.  Each pass is scaled by the calibration
    loops timed during it.  With a tracer, the per-layer metrics of each
    pass are kept too."""
    deadline = time.perf_counter() + seconds
    label = "traced pass" if tracer else "pass"
    with HostSampler() as sampler:
        while True:
            if tracer:
                tracer.reset()
            first = len(sampler.samples)
            dt, n, bad = run_pass(items)
            calibrations = sampler.samples[first:] or [calibrate()]
            if tracer:
                passes.layers.append(tracer.metrics())
            passes.wall.append(dt)
            passes.scaled.append(host_scaled(dt, calibrations))
            passes.attempted += n
            passes.failed += bad
            log(f"{label} {len(passes.wall)}: {dt:.4f} s, {passes.scaled[-1]:.4f} s "
                f"host-scaled, {n} items, {len(bad)} failed {bad or ''}")
            if time.perf_counter() >= deadline:
                return


def measure(name: str, seed: int, seconds: float, trace: bool,
            reduced: bool = False, log=print) -> dict:
    """Run one benchmark run in this process and return its result object
    (the dict printed as the last line).  Used by main() and smoke.py."""
    for path in (str(HERE), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import tracer as tracer_mod
    import workloads

    meta = run_meta(name, seed, int(trace))
    meta["cpu"] = pin_to_one_cpu()
    log("meta: " + json.dumps(meta, sort_keys=True))
    workdir = str(OUT_DIR / f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    untraced = Passes()
    try:
        pkg, lk, items, setup_times, setup_cal = timed_setup(
            workloads, name, seed, workdir, reduced)
        log(f"setup: {len(items)} items, "
            + ", ".join(f"{t:.4f}" for t in setup_times) + " s, calibration median "
            + f"{statistics.median(setup_cal) * 1e3:.4f} ms")
        if not trace:
            run_passes(items, seconds, log, untraced)
            log(f"wall: median pass {statistics.median(untraced.wall):.4f} s")
            metrics = {
                "setup_s": {"value": host_scaled(statistics.median(setup_times), setup_cal),
                            "unit": "s"},
                "wall_s": {"value": statistics.median(untraced.scaled), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
            }
            done = [untraced]
        else:
            run_passes(items, seconds / 2, log, untraced)
            traced = Passes()
            tr = tracer_mod.Tracer(pkg)
            tr.install()
            try:
                run_passes(items, seconds / 2, log, traced, tr)
            finally:
                tr.uninstall()
            overhead = statistics.median(traced.scaled) - statistics.median(untraced.scaled)
            metrics = {
                k: {"value": statistics.median(p[k] for p in traced.layers),
                    "unit": tracer_mod.metric_unit(k)}
                for k in traced.layers[0]
            }
            metrics[tracer_mod.OVERHEAD_METRIC] = {"value": overhead, "unit": "s"}
            stem = f"trace-{name}-seed{seed}" + ("-reduced" if reduced else "")
            write_trace(tr, stem, meta, untraced.wall, traced.wall, metrics)
            done = [untraced, traced]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(p.attempted for p in done)
    failed = [f for p in done for f in p.failed]
    log(f"fail_frac: {len(failed) / attempted:.6f} ({len(failed)} of {attempted} items)")
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def write_trace(tr, stem_name, meta, untraced, traced, metrics) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / stem_name
    summary = {
        "meta": meta,
        "untraced_wall_s": statistics.median(untraced),
        "traced_wall_s": statistics.median(traced),
        "metrics": {k: v["value"] for k, v in metrics.items()},
    }
    stem.with_suffix(".json").write_text(json.dumps(summary, indent=1, sort_keys=True))
    # spans of the last traced pass
    tr.write_spans(str(stem) + ".spans.jsonl", meta)


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "laxkit" / "__init__.py").is_file():
        sys.stderr.write(f"error: no laxkit sources under {ROOT / 'src'}; "
                         "run from a laxkit checkout\n")
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
