"""Layer tracing by wrapping laxkit's public entry points at run time.

Nothing under ``src/`` is edited.  ``Tracer.install`` replaces each
entry point listed in ``LAYERS`` on every laxkit module namespace (and
class) that holds it, so calls made through any import path are seen.
Each wrapped call is a span: (entry, parent span, start, end).  Spans are
kept in memory in flat arrays and written out when the run ends.

Per entry the tracer keeps:

* ``calls``   -- number of calls;
* ``total_s`` -- wall time of the outermost activations (a recursive
  call inside an open span of the same entry is not counted twice);
* ``self_s``  -- span duration minus the time covered by child spans.

``ratfun.poly_div_exact`` also counts ``hits`` and ``misses`` of the trial
divisions made directly by ``RatFun._make`` (its other callers are the
factorizer, counted only in ``calls``), ``hit_ratio`` = hits / (hits +
misses), and ``dividend_terms`` (terms of every dividend, summed over all
calls).  ``ratfun.Poly.__mul__`` also counts ``terms_out`` (terms of
every product).
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter
from typing import Dict, List, Tuple

# (metric module, defining module, qualified name).  The metric module is
# the layer the entry belongs to; it differs from the defining module only
# for RatFun.eps_series, which lives in ratfun.py but is the series layer's
# entry point for the trig-to-rational degeneration.
LAYERS: List[Tuple[str, str, str]] = [
    ("ratfun", "ratfun", "poly_div_exact"),
    ("ratfun", "ratfun", "RatFun._make"),
    ("ratfun", "ratfun", "RatFun.__add__"),
    ("ratfun", "ratfun", "RatFun.__mul__"),
    ("ratfun", "ratfun", "Poly.__mul__"),
    ("ratfun", "ratfun", "RatFun.shift_slot"),
    ("ratfun", "ratfun", "factor_atoms"),
    ("series", "series", "TruncSeries.inverse"),
    ("series", "ratfun", "RatFun.eps_series"),
    ("algebra", "algebra", "AlgebraElement.__mul__"),
    ("algebra", "algebra", "AlgebraElement.__add__"),
    ("rtt", "rtt", "verify_rtt"),
    ("rtt", "rtt", "sp_mul"),
    ("rtt", "rtt", "verify_finite_rtt"),
    ("lax_rational", "lax_rational", "build_lax"),
    ("lax_rational", "lax_rational", "normalize_and_check_polynomial"),
    ("lax_rational", "lax_rational", "build_linear_lax"),
    ("lax_rational", "lax_rational", "qdet_image"),
    ("lax_rational", "lax_rational", "normalized_limit"),
    ("lax_rational", "lax_rational", "fuse"),
    ("lax_trig", "lax_trig", "build_lax_trig"),
    ("lax_trig", "lax_trig", "normalize_and_check_polynomial_trig"),
    ("lax_trig", "lax_trig", "limits_trig"),
    ("lax_trig", "lax_trig", "degenerate_to_rational"),
    ("lax_trig", "lax_trig", "split_finite_rtt"),
    ("coweight", "coweight", "Divisor.from_json"),
    ("textio", "textio", "matrix_to_json"),
    ("textio", "textio", "matrix_from_json"),
    ("textio", "textio", "render_element"),
    ("gelfand_tsetlin", "gelfand_tsetlin", "gauge_and_compare"),
    ("cli", "cli", "main"),
]

BASE_STATS = ("calls", "total_s", "self_s")
EXTRA_STATS = {
    "ratfun.poly_div_exact": ("hits", "misses", "hit_ratio", "dividend_terms"),
    "ratfun.Poly.__mul__": ("terms_out",),
}
OVERHEAD_METRIC = "trace.overhead_s"


def entry_names() -> List[str]:
    return [f"{layer}.{qual}" for layer, _, qual in LAYERS]


def metric_names() -> List[str]:
    """Every per-layer metric a traced run emits, in a fixed order."""
    out = []
    for name in entry_names():
        out += [f"{name}.{s}" for s in BASE_STATS + EXTRA_STATS.get(name, ())]
    return out + [OVERHEAD_METRIC]


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("hit_ratio"):
        return "ratio"
    return "count"


class _Stat:
    __slots__ = ("calls", "total_s", "self_s", "depth", "hits", "misses",
                 "terms")

    def __init__(self):
        self.depth = 0
        self.clear()

    def clear(self) -> None:
        self.calls = self.hits = self.misses = self.terms = 0
        self.total_s = self.self_s = 0.0


class Tracer:
    """Wraps the entry points of one imported laxkit package."""

    def __init__(self, laxkit_pkg):
        self.pkg = laxkit_pkg
        self.names = entry_names()
        self.stats: Dict[str, _Stat] = {n: _Stat() for n in self.names}
        # open spans: [entry index, span id, time covered by child spans]
        self._stack: List[list] = []
        # closed spans, one slot each: span id, entry index, parent span id,
        # start, end
        self.span_id = array("q")
        self.span_entry = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._next_id = 0
        self._saved: List[Tuple[object, str, object]] = []

    # -- installation

    def _modules(self):
        prefix = self.pkg.__name__ + "."
        mods = [self.pkg]
        mods += [m for k, m in sorted(sys.modules.items())
                 if k.startswith(prefix) and m is not None]
        return mods

    def install(self) -> None:
        """Wrap every entry of LAYERS.  An entry that no longer exists where
        LAYERS says is reported on stderr and left at zero."""
        mods = self._modules()
        for idx, (_, home, qual) in enumerate(LAYERS):
            home_mod = sys.modules.get(f"{self.pkg.__name__}.{home}")
            owner_name, _, attr = qual.rpartition(".")
            owner = getattr(home_mod, owner_name, None) if owner_name else home_mod
            if owner is None or attr not in vars(owner):
                sys.stderr.write(f"tracer: {home}.{qual} not found, not traced\n")
                continue
            raw = vars(owner)[attr]
            static = isinstance(raw, staticmethod)
            fn = raw.__func__ if static else raw
            wrapped = self._wrapper(idx, fn)
            if owner_name:
                # a method, with aliases such as __radd__ = __add__
                targets = [owner]
                new_val = staticmethod(wrapped) if static else wrapped
            else:
                # a function, on every module that imported it
                targets = mods
                new_val = wrapped
            for target in targets:
                for name, val in list(vars(target).items()):
                    if (val.__func__ if isinstance(val, staticmethod) else val) is fn:
                        self._saved.append((target, name, val))
                        setattr(target, name, new_val)

    def uninstall(self) -> None:
        for owner, name, val in reversed(self._saved):
            setattr(owner, name, val)
        self._saved.clear()

    def _wrapper(self, idx: int, fn):
        name = self.names[idx]
        stat = self.stats[name]
        stack = self._stack
        tracer = self
        make_idx = self.names.index("ratfun.RatFun._make")
        if name == "ratfun.poly_div_exact":
            def after(args, result):
                stat.terms += len(args[0].terms)
                if len(stack) > 0 and stack[-1][0] == make_idx:
                    if result is None:
                        stat.misses += 1
                    else:
                        stat.hits += 1
        elif name == "ratfun.Poly.__mul__":
            def after(args, result):
                stat.terms += len(result.terms)
        else:
            after = None

        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1][1] if stack else -1
            stat.depth += 1
            frame = [idx, span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                stat.calls += 1
                stat.self_s += dur - frame[2]
                stat.depth -= 1
                if not stat.depth:
                    stat.total_s += dur
                if stack:
                    stack[-1][2] += dur
                tracer.span_id.append(span_id)
                tracer.span_entry.append(idx)
                tracer.span_parent.append(parent)
                tracer.span_start.append(start)
                tracer.span_end.append(end)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- results

    def reset(self) -> None:
        """Zero the counters and drop recorded spans (between passes)."""
        for st in self.stats.values():
            st.clear()
        for arr in (self.span_id, self.span_entry, self.span_parent,
                    self.span_start, self.span_end):
            del arr[:]

    def metrics(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name in self.names:
            st = self.stats[name]
            out[f"{name}.calls"] = st.calls
            out[f"{name}.total_s"] = st.total_s
            out[f"{name}.self_s"] = st.self_s
        div = self.stats["ratfun.poly_div_exact"]
        tried = div.hits + div.misses
        out["ratfun.poly_div_exact.hits"] = div.hits
        out["ratfun.poly_div_exact.misses"] = div.misses
        out["ratfun.poly_div_exact.hit_ratio"] = div.hits / tried if tried else 0.0
        out["ratfun.poly_div_exact.dividend_terms"] = div.terms
        out["ratfun.Poly.__mul__.terms_out"] = self.stats["ratfun.Poly.__mul__"].terms
        return out

    def write_spans(self, path: str, meta: dict) -> None:
        """Write the recorded spans as JSON lines: one header line, then
        one ``[span id, entry, parent id, start, end]`` line per span in
        closing order."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta, "entries": self.names}) + "\n")
            for k in range(len(self.span_entry)):
                fh.write(
                    f"[{self.span_id[k]},{self.span_entry[k]},{self.span_parent[k]},"
                    f"{self.span_start[k]!r},{self.span_end[k]!r}]\n"
                )

