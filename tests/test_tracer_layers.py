"""The benchmark tracer's entry-point table still matches the package.

perfbench/tracer.py wraps each LAYERS entry by function identity in its
home module (or class).  An entry that has moved or been renamed is only
reported on stderr and traced as zeros; an entry that has become an alias
of another is wrapped twice.  This test reads the table without running
the tracer and fails in both cases.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_entry_is_its_own_function():
    seen = {}
    for _, home, qual in _layers():
        owner = importlib.import_module(f"laxkit.{home}")
        owner_name, _, attr = qual.rpartition(".")
        if owner_name:
            owner = vars(owner)[owner_name]
        assert attr in vars(owner), f"{home}.{qual} is gone from its home"
        fn = vars(owner)[attr]
        fn = getattr(fn, "__func__", fn)  # unwrap staticmethod
        assert fn not in seen, f"{home}.{qual} is an alias of {seen.get(fn)}"
        seen[fn] = f"{home}.{qual}"
