"""Fast self-check of the benchmark harness on reduced inputs.

    python3 perfbench/smoke.py

For every workload, on reduced inputs and one pass each way, it checks
that:

* an untraced run emits exactly the end-to-end metrics of BENCHMARK.json
  and a traced run exactly its per-layer metrics, all results correct;
* every negative control is caught: with laxkit's verify_rtt replaced by
  one that accepts everything (exchange_*) or mat_equal replaced by one
  that says equal to everything (construct_cli), the control items, and
  only they, fail.

Exits 0 when all checks hold, 1 otherwise.  Takes well under a minute.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 1


def _quiet(_line: str) -> None:
    pass


def _accept_all_verify_rtt(*args, **kwargs):
    return SimpleNamespace(ok=True, failures=[])


def _always_equal(a, b) -> bool:
    return True


# workload -> (module, attribute, stand-in) that makes its control fail
SABOTAGE = {
    "exchange_rational": ("rtt", "verify_rtt", _accept_all_verify_rtt),
    "exchange_trig": ("rtt", "verify_rtt", _accept_all_verify_rtt),
    "construct_cli": ("algebra", "mat_equal", _always_equal),
}


def check_metrics(errors: list, spec: dict) -> None:
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    for name in workloads.WORKLOADS:
        for trace, expected in ((False, e2e), (True, layers)):
            res = run.measure(name, SEED, 0, trace, reduced=True, log=_quiet)
            got = set(res["metrics"])
            if got != expected:
                errors.append(f"{name} trace={int(trace)}: missing "
                              f"{sorted(expected - got)}, extra {sorted(got - expected)}")
            if not res["correct"] or res["failed"]:
                errors.append(f"{name} trace={int(trace)}: {res['failed']} items failed")
            for k, v in res["metrics"].items():
                if not isinstance(v["value"], (int, float)) or not v["unit"]:
                    errors.append(f"{name}: bad metric {k}={v}")


def check_controls(errors: list) -> None:
    workdir = run.OUT_DIR / "smoke-work"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name, (mod, attr, stand_in) in SABOTAGE.items():
            lk = workloads.modules(run.fresh_laxkit())
            items = workloads.WORKLOADS[name](lk, SEED, str(workdir), True)
            controls = sorted(n for n, _ in items if n.startswith("control:"))
            if not controls:
                errors.append(f"{name}: no negative control")
                continue
            _, _, failed = run.run_pass(items)
            if failed:
                errors.append(f"{name}: items failed before sabotage: {failed}")
            setattr(getattr(lk, mod), attr, stand_in)
            _, _, failed = run.run_pass(items)
            if sorted(failed) != controls:
                errors.append(f"{name}: with {mod}.{attr} sabotaged, failed "
                              f"{sorted(failed)}, expected exactly {controls}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    errors: list = []
    check_metrics(errors, spec)
    check_controls(errors)
    for e in errors:
        print("FAIL", e)
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
