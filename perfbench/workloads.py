"""The four benchmark workloads.

A workload's ``setup`` takes the imported laxkit modules, the workload
seed and a scratch directory, and returns the list of items one pass
runs.  An item is ``(name, check)``; ``check()`` runs the work and returns
True only when every result it produced is exactly right (for a negative
control: only when the defect was caught).  Items call laxkit through
module attributes at call time, so the tracer's wrappers see them.

Why each workload exists is written up in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
from types import SimpleNamespace
from typing import Callable, List, Tuple

Item = Tuple[str, Callable[[], bool]]

# Per pass, each kernel property family runs the acceptance battery's own
# cases (the suite's default seeds) plus KERNEL_SEEDED_CASES cases from a
# seed derived from the benchmark seed.  The cost of one gauge case has a
# coefficient of variation of about 1.5: with 200 seeded cases per family
# pass time moved by +-15% from seed to seed, and 50 still moved it by
# +-6%.  A small seeded share keeps that below the machine's own noise.
KERNEL_BATTERY_CASES = 200
KERNEL_SEEDED_CASES = 20
KERNEL_FAMILIES = (
    ("kernel_ring_axioms", 11),
    ("kernel_shift_automorphism", 12),
    ("kernel_gauge_automorphism", 13),
)

# the Gelfand-Tsetlin cases of the acceptance battery
GT_CASES = (("1,1", 2), ("2,0", 2), ("2,1,0", 3))


def _shuffled(items: List[Item], seed: int) -> List[Item]:
    random.Random(seed).shuffle(items)
    return items


def _corrupted(lk, T):
    """T with 1 added to entry (1,2), as tests/test_rtt.py corrupts one."""
    sig = T.signature
    broken = [list(row) for row in T.entries]
    broken[0][1] = broken[0][1] + lk.algebra.AlgebraElement.one(sig)
    return type(T)(sig, T.divisor, broken)


# ---------------------------------------------------------------------------
# exchange_rational


def setup_exchange_rational(lk, seed: int, workdir: str, reduced: bool = False) -> List[Item]:
    suite = lk.suite
    divisors = suite.rtt_rational_divisors()
    if reduced:
        divisors = suite.enumerate_linear_divisors(2, 2)
    items: List[Item] = []
    for k, div in enumerate(divisors):
        items.append((f"rtt:{k}", _rtt_item(lk, "rational", div)))

    def fused():
        toda = lk.lax_rational.build_lax(suite.toda_divisor())
        delta = lk.rtt.coproduct(toda, lk.lax_rational.build_lax(suite.toda_divisor()))
        return lk.rtt.verify_rtt(delta).ok is True

    def control():
        bad = _corrupted(lk, lk.lax_rational.build_lax(suite.toda_divisor()))
        rep = lk.rtt.verify_rtt(bad)
        return not rep.ok and bool(rep.failures)

    items.append(("fused:toda*toda", fused))
    items.append(("control:corrupted-toda", control))
    # the coproduct generator formulas of the acceptance battery; the only
    # workload path that reaches TruncSeries.inverse
    generator_cases = [("toda", suite.toda_divisor())]
    if not reduced:
        generator_cases.append(("first_example3", suite.first_example_divisor(3)))
    for label, div in generator_cases:
        items.append((f"generators:{label}", _generators_item(lk, div)))
    return _shuffled(items, seed)


def _generators_item(lk, div) -> Callable[[], bool]:
    def check():
        return lk.rtt.verify_coproduct_generators(div, div).ok is True

    return check


def _rtt_item(lk, mode: str, div) -> Callable[[], bool]:
    def check():
        if mode == "rational":
            T = lk.lax_rational.build_lax(div)
        else:
            T = lk.lax_trig.build_lax_trig(div)
        return lk.rtt.verify_rtt(T).ok is True

    return check


# ---------------------------------------------------------------------------
# exchange_trig


def trig_exchange_divisors(suite) -> list:
    return (
        suite.rtt_trig_divisors()
        + suite.enumerate_linear_divisors(3, 1, "trig")
        + suite.enumerate_linear_divisors(4, 1, "trig")
    )


def setup_exchange_trig(lk, seed: int, workdir: str, reduced: bool = False) -> List[Item]:
    suite = lk.suite
    divisors = suite.rtt_trig_divisors() if reduced else trig_exchange_divisors(suite)
    cases = (2, 4) if reduced else range(1, 7)
    items: List[Item] = []
    for k, div in enumerate(divisors):
        items.append((f"rtt:{k}", _rtt_item(lk, "trig", div)))
    for k in cases:
        items.append((f"finite:case{k}", _finite_item(lk, k)))

    def fused():
        t2 = lk.lax_trig.build_lax_trig(suite.trig_case_divisor(2))
        delta = lk.rtt.coproduct(t2, lk.lax_trig.build_lax_trig(suite.trig_case_divisor(3)))
        return lk.rtt.verify_rtt(delta).ok is True

    def control():
        bad = _corrupted(lk, lk.lax_trig.build_lax_trig(suite.trig_case_divisor(4)))
        rep = lk.rtt.verify_rtt(bad)
        return not rep.ok and bool(rep.failures)

    items.append(("fused:trig2*trig3", fused))
    items.append(("control:corrupted-trig4", control))
    return _shuffled(items, seed)


def _finite_item(lk, k: int) -> Callable[[], bool]:
    def check():
        lt = lk.lax_trig
        T = lt.normalize_and_check_polynomial_trig(
            lt.build_lax_trig(lk.suite.trig_case_divisor(k))
        )
        tp, tm = lt.split_finite_rtt(T)
        return lk.rtt.verify_finite_rtt(tp, tm, T.signature).ok is True

    return check


# ---------------------------------------------------------------------------
# construct_cli


def construct_divisors(suite) -> List[Tuple[object, bool]]:
    """The 44 divisors, each with whether `lax linear` applies (degree 1:
    every divisor here except the double coroot and the two with an
    index-0 summand)."""
    double = suite.double_coroot_divisor().to_json()
    out = [(d, d.to_json() != double) for d in suite.rtt_rational_divisors()]
    out += [(d, True) for d in trig_exchange_divisors(suite)]
    out += [(suite.rational_pizero_divisor(), False), (suite.trig_pizero_divisor(), False)]
    out += [(d, True) for d in suite.enumerate_linear_divisors(4, 1)]
    return out


def _cli(lk, argv: List[str]) -> Tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = lk.cli.main(argv)
    return code, buf.getvalue()


def _read_matrix(lk, path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return lk.textio.matrix_from_json(json.load(fh))


def _reference_build(lk, div):
    if div.mode == "rational":
        return lk.lax_rational.normalize_and_check_polynomial(lk.lax_rational.build_lax(div))
    return lk.lax_trig.normalize_and_check_polynomial_trig(lk.lax_trig.build_lax_trig(div))


def setup_construct_cli(lk, seed: int, workdir: str, reduced: bool = False) -> List[Item]:
    suite = lk.suite
    divisors = construct_divisors(suite)
    if reduced:
        # per mode, one linear divisor with a finite point and one with an
        # index-0 summand
        divisors = [divisors[0], divisors[16], divisors[-6], divisors[-5]]
    items: List[Item] = []
    for k, (div, linear) in enumerate(divisors):
        path = os.path.join(workdir, f"divisor{k}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(div.to_json(), fh)
        items.append((f"divisor:{k}", _construct_item(lk, div, linear, path, workdir, k)))
    for young, n in GT_CASES[:1] if reduced else GT_CASES:
        items.append((f"gt:{young}", _gt_item(lk, young, n)))
    toda_path = os.path.join(workdir, "control_divisor.json")
    with open(toda_path, "w", encoding="utf-8") as fh:
        json.dump(suite.toda_divisor().to_json(), fh)
    items.append(("control:altered-matrix", _altered_item(lk, toda_path, workdir)))
    return _shuffled(items, seed)


def _construct_item(lk, div, linear: bool, path: str, workdir: str, k: int):
    out = os.path.join(workdir, f"matrix{k}.json")
    lim = os.path.join(workdir, f"limit{k}.json")
    lin = os.path.join(workdir, f"linear{k}.json")

    def check() -> bool:
        mat_equal = lk.algebra.mat_equal
        ref = _reference_build(lk, div)
        code, _ = _cli(lk, ["build", "--divisor", path, "--out", out, "--quiet"])
        if code != 0 or not mat_equal(_read_matrix(lk, out).entries, ref.entries):
            return False
        if linear:
            code, _ = _cli(lk, ["linear", "--divisor", path, "--out", lin, "--quiet"])
            if code != 0 or not mat_equal(_read_matrix(lk, lin).entries, ref.entries):
                return False
        if div.mode == "rational" or div.n == 2:
            code, text = _cli(lk, ["qdet", "--divisor", path])
            if code != 0 or lk.textio.parse_ratfun(text.strip()).is_zero():
                return False
        if div.summands:
            # `lax limit` on a divisor with no finite point raises an
            # uncaught ValueError (see README.md); it is issued only here
            code, _ = _cli(lk, ["limit", "--divisor", path, "--out", lim, "--quiet"])
            if code != 0 or _read_matrix(lk, lim).n != div.n:
                return False
        if div.mode == "trig":
            code, _ = _cli(lk, ["degenerate", "--divisor", path, "--quiet"])
            if code != 0:
                return False
        return True

    return check


def _gt_item(lk, young: str, n: int):
    def check() -> bool:
        code, text = _cli(lk, ["gt-compare", "--young", young, "--n", str(n)])
        return code == 0 and "FAIL" not in text and "PASS" in text

    return check


def _altered_item(lk, divisor_path: str, workdir: str):
    """Round-trip a matrix whose file was altered in one entry: the
    comparison with the in-process build must come out unequal."""
    out = os.path.join(workdir, "control_matrix.json")

    def check() -> bool:
        code, _ = _cli(lk, ["build", "--divisor", divisor_path, "--out", out, "--quiet"])
        if code != 0:
            return False
        with open(out, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        ref = _reference_build(lk, lk.coweight.Divisor.from_json(data["divisor"]))
        sig = lk.textio.signature_from_json(data["signature"])
        entry = lk.textio.parse_element(data["entries"][0][1], sig)
        data["entries"][0][1] = lk.textio.render_element(
            entry + lk.algebra.AlgebraElement.one(sig)
        )
        return not lk.algebra.mat_equal(lk.textio.matrix_from_json(data).entries, ref.entries)

    return check


# ---------------------------------------------------------------------------
# kernel_random


def setup_kernel_random(lk, seed: int, workdir: str, reduced: bool = False) -> List[Item]:
    rng = random.Random(seed)
    items: List[Item] = []
    for family, battery_seed in KERNEL_FAMILIES:
        sub = rng.randrange(2 ** 31)
        if reduced:
            items.append((f"{family}:{sub}", _kernel_item(lk, family, 10, sub)))
            continue
        items.append((f"{family}:battery",
                      _kernel_item(lk, family, KERNEL_BATTERY_CASES, battery_seed)))
        items.append((f"{family}:{sub}", _kernel_item(lk, family, KERNEL_SEEDED_CASES, sub)))
    return _shuffled(items, seed)


def _kernel_item(lk, family: str, cases: int, seed: int):
    def check() -> bool:
        ok, _ = getattr(lk.suite, family)(cases, seed)
        return ok is True

    return check


WORKLOADS = {
    "exchange_rational": setup_exchange_rational,
    "exchange_trig": setup_exchange_trig,
    "construct_cli": setup_construct_cli,
    "kernel_random": setup_kernel_random,
}


def modules(laxkit_pkg) -> SimpleNamespace:
    """The laxkit submodules the workloads call, from one import."""
    names = ("algebra", "cli", "coweight", "lax_rational", "lax_trig", "rtt",
             "suite", "textio")
    return SimpleNamespace(
        **{n: importlib.import_module(f"{laxkit_pkg.__name__}.{n}") for n in names}
    )
