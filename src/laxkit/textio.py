"""Canonical text rendering and parsing.

The grammar is exactly what the renderer emits; parse(render(x)) == x
bit-exactly.  Variables print as z, w, v, eps, x[label], p[i,r] (or
p[t,i,r] inside tensor algebras), and the half generator wh[i,r]; even
powers of wh render through the full variable, w[i,r]^k == wh[i,r]^(2k).
Rational functions print as NUM or (NUM) / (ATOM * ATOM^2 * ...) with the
numerator in descending canonical term order.  Difference-operator
elements print one term per shift monomial:

    (coeff) * e^{q[1,1]} e^{-2q[2,1]} + (coeff)        [rational mode]
    (coeff) * D[1,1]^2 D[2,1]^-1 + (coeff)             [trig mode]
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, List, Tuple

from .errors import NotAtomFactorable, ParseError
from .monomials import FW, HALF, Var, pack_mono
from .poly import _q
from .ratfun import (
    EPS,
    Poly,
    RatFun,
    V,
    W,
    Z,
    is_linear_form,
    p_var,
    wh_var,
    x_var,
)

# ---------------------------------------------------------------------------
# rendering


def render_var_power(v, e: int) -> str:
    kind = v[0]
    if kind in ("z", "w", "v", "eps"):
        base = kind
    elif kind == "x":
        base = f"x[{v[1]}]"
    elif kind in ("p", "wh"):
        _, slot, i, r = v
        if kind == "wh" and e % 2 == 0:
            kind, e = "w", e // 2
        base = f"{kind}[{i},{r}]" if slot == 1 else f"{kind}[{slot};{i},{r}]"
    else:
        raise ValueError(f"unknown variable {v!r}")
    if e == 1:
        return base
    return f"{base}^{e}"


def _render_mono(items) -> str:
    """items: ((var, exp), ...) in var_precedence order."""
    return "*".join(render_var_power(v, e) for v, e in items)


def render_poly(p: Poly) -> str:
    if p.is_zero():
        return "0"
    parts: List[str] = []
    for m, c in p.ordered_terms():
        neg = c < 0
        c_abs = -c if neg else c
        if not m:
            body = str(c_abs)
        elif c_abs == 1:
            body = _render_mono(m)
        else:
            body = f"{c_abs}*{_render_mono(m)}"
        if not parts:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(parts)


def render_ratfun(f: RatFun) -> str:
    num = render_poly(f.num)
    if not f.den:
        return num
    factors = []
    for a in sorted(f.den, key=lambda a: a.key):
        m = f.den[a]
        s = f"({render_poly(a.poly)})"
        factors.append(s if m == 1 else f"{s}^{m}")
    return f"({num}) / ({' * '.join(factors)})"


def render_shift(shift, mode: str, tensor: bool) -> str:
    """Render a shift monomial; empty product renders as '1'."""
    items = sorted(shift.exps.items())
    if not items:
        return "1"
    parts = []
    for (slot, i, r), m in items:
        idx = f"{i},{r}" if not tensor else f"{slot};{i},{r}"
        if mode == "rational":
            if m == 1:
                parts.append(f"e^{{q[{idx}]}}")
            elif m == -1:
                parts.append(f"e^{{-q[{idx}]}}")
            else:
                parts.append(f"e^{{{m}q[{idx}]}}")
        else:
            parts.append(f"D[{idx}]" if m == 1 else f"D[{idx}]^{m}")
    return " ".join(parts)


def render_element(elem) -> str:
    """Canonical text of a difference-operator algebra element."""
    sig = elem.signature
    tensor = sig.tensor_factors > 1
    if not elem.terms:
        return "0"
    parts = []
    for shift in sorted(elem.terms, key=lambda s: sorted(s.exps.items())):
        coeff = elem.terms[shift]
        body = f"({render_ratfun(coeff)})"
        if shift.exps:
            body += f" * {render_shift(shift, sig.mode, tensor)}"
        parts.append(body)
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# parsing
#
# One compiled regex reads the token at a position: a coefficient
# (with the "*" that may follow it), a variable, shift generator or ")"
# (each with the power and the "*" that may follow it), or one other
# character.  Whitespace (space, tab, newline) may stand before any
# token.  Numerator terms are summed in one packed term dict, and a
# fraction is assembled by RatFun.quotient: each denominator factor is
# split once and the whole is reduced once.

_S = r"[ \t\n]*"
_INT = r"[-+]?[0-9]+"
_TAIL = rf"(?:{_S}\^{_S}(?P<exp>{_INT}))?(?P<more>{_S}\*)?"
_TOKEN = re.compile(
    rf"{_S}(?:"
    rf"(?P<num>[0-9]+)(?:{_S}/{_S}(?P<den>[0-9]+))?(?P<nmore>{_S}\*)?"
    rf"|(?:(?P<var>wh|w|p|D|e\^\{{{_S}(?P<neg>-?){_S}(?P<mult>[0-9]*){_S}q)"
    rf"{_S}\[{_S}(?P<a>{_INT}){_S}(?:;{_S}(?P<b>{_INT}){_S})?,{_S}(?P<c>{_INT}){_S}\]"
    rf"(?P<close>{_S}\}})?"
    rf"|(?P<name>[^\W\d]\w*)(?P<label>{_S}\[)?"
    rf"|(?P<rp>\))){_TAIL}"
    rf"|(?P<op>.)"
    rf"|$)",
    re.S,
)
_AFTER_LABEL = re.compile(_TAIL)

# CPython's default limit on int/str conversions, so that every version
# reads the same texts
_MAX_DIGITS = 4300
_NAMED = {"z": Z, "w": W, "v": V, "eps": EPS}


def _int(digits: str) -> int:
    if len(digits) > _MAX_DIGITS:
        raise ParseError(f"integer of {len(digits)} digits (at most {_MAX_DIGITS})")
    return int(digits)


def _expect(text: str, pos: int, ch: str) -> int:
    t = _TOKEN.match(text, pos)
    if t.group().lstrip(" \t\n") != ch:
        raise ParseError(f"expected {ch!r} at {text[pos : pos + 24]!r}")
    return t.end()


def _at_end(text: str, pos: int) -> None:
    if text[pos:].strip(" \t\n"):
        raise ParseError(f"trailing input {text[pos:]!r}")


def _slot(t) -> Tuple[int, int, int]:
    """(slot, i, r) of an index [i,r] or [slot;i,r]."""
    a, b = _int(t["a"]), t["b"]
    return (a, _int(b), _int(t["c"])) if b is not None else (1, a, _int(t["c"]))


def _variable(text: str, t) -> Tuple[Var, int, object]:
    """(variable, exponent, tail match) of a variable token; wh-even
    rendering w[i,r]^k is wh[i,r]^(2k)."""
    kind, name, label = t.group("var", "name", "label")
    if name is not None and label is None:
        var, mult = _NAMED.get(name), 1
        if var is None:
            raise ParseError(f"unknown variable {name!r}")
    elif name == "x":
        start = end = t.end("label")
        while True:
            end = text.find("]", end)
            if end < 0:
                raise ParseError(f"unclosed label x[{text[start:]}")
            if text.count("[", start, end) == text.count("]", start, end):
                break
            end += 1
        var, mult = x_var(text[start:end]), 1
        t = _AFTER_LABEL.match(text, end + 1)
    elif kind in ("p", "wh", "w") and t["close"] is None:
        slot, i, r = _slot(t)
        var = p_var(i, r, slot) if kind == "p" else wh_var(i, r, slot)
        mult = 2 if kind == "w" else 1
    else:
        raise ParseError(f"expected a variable at {text[t.start() : t.start() + 24]!r}")
    exp = t["exp"]
    return var, mult if exp is None else mult * _int(exp), t


def _poly_at(text: str, pos: int, seen: set) -> Tuple[Poly, int]:
    """The polynomial at pos and the position after it; its variables are
    added to seen."""
    match = _TOKEN.match
    terms: Dict[int, object] = {}
    eb = 0
    sign = 1
    t = match(text, pos)
    if t["op"] == "-":
        sign = -1
        t = match(text, t.end())
    while True:
        c = sign
        if t["op"] in ("+", "-") and text[t.end() : t.end() + 1].isdigit():
            c = -sign if t["op"] == "-" else sign  # a signed leading integer
            t = match(text, t.end())
        exps: Dict[Var, int] = {}
        num, den, more = t.group("num", "den", "nmore")
        if num is not None:
            c *= _int(num)
            if den is not None:
                d = _int(den)
                if not d:
                    raise ParseError(f"zero denominator in {num}/{den}")
                c = Fraction(c, d)
            pos = t.end()
            if more is not None:
                t = match(text, pos)
        else:
            more = True
        while more is not None:
            if t["var"] is None and t["name"] is None:
                raise ParseError(f"expected a term at {text[t.start() : t.start() + 24]!r}")
            v, e, t = _variable(text, t)
            exps[v] = exps.get(v, 0) + e
            pos = t.end()
            more = t["more"]
            if more is not None:
                t = match(text, pos)
        b = max(map(abs, exps.values()), default=0)
        if b >= HALF:
            raise ParseError(f"exponent {b} does not fit a {FW}-bit field")
        if b > eb:
            eb = b
        seen.update(exps)
        m = pack_mono(exps.items())
        nc = terms.get(m, 0) + c
        if nc:
            terms[m] = nc
        else:
            terms.pop(m, None)  # a zero coefficient, or a cancelled term
        t = match(text, pos)
        op = t["op"]
        if op == "+":
            sign = 1
        elif op == "-":
            sign = -1
        else:
            return Poly({m: _q(c) for m, c in terms.items()}, eb), pos
        t = match(text, t.end())


def _ratfun_at(text: str, pos: int, seen: set) -> Tuple[RatFun, int]:
    """A bare polynomial or (NUM) / ((ATOM)^k * ...) at pos, and the
    position after it; its variables are added to seen."""
    factors = []
    t = _TOKEN.match(text, pos)
    if t["op"] == "(":
        num, pos = _poly_at(text, t.end(), seen)
        pos = _expect(text, pos, ")")
        pos = _expect(text, pos, "/")
        pos = _expect(text, pos, "(")
        while True:
            pos = _expect(text, pos, "(")
            f, pos = _poly_at(text, pos, seen)
            if not f:
                raise ParseError("zero denominator factor")
            t = _TOKEN.match(text, pos)
            if t["rp"] is None:
                raise ParseError(f"expected ')' at {text[pos : pos + 24]!r}")
            k = 1 if t["exp"] is None else _int(t["exp"])
            if not 1 <= k < HALF:
                raise ParseError(f"atom multiplicity {k} is outside 1..{HALF - 1}")
            factors.append((f, k))
            pos = t.end()
            if t["more"] is None:
                break
        pos = _expect(text, pos, ")")
    else:
        num, pos = _poly_at(text, pos, seen)
    try:
        return RatFun.quotient(num, factors), pos
    except (NotAtomFactorable, OverflowError) as exc:
        raise ParseError(f"bad fraction: {exc}") from None


def parse_poly(text: str) -> Poly:
    p, pos = _poly_at(text, 0, set())
    _at_end(text, pos)
    return p


def parse_ratfun(text: str) -> RatFun:
    f, pos = _ratfun_at(text, 0, set())
    _at_end(text, pos)
    return f


def parse_element(text: str, signature) -> "AlgebraElement":
    """Inverse of render_element over the given signature."""
    from .algebra import AlgebraElement, ShiftMonomial

    t = _TOKEN.match(text, 0)
    if t["num"] == "0" and t["den"] is None and t["nmore"] is None:
        _at_end(text, t.end())
        return AlgebraElement.zero(signature)
    rational = signature.mode == "rational"
    terms = {}
    seen = set()
    pos = 0
    while True:
        pos = _expect(text, pos, "(")
        coeff, pos = _ratfun_at(text, pos, seen)
        if rational:
            # every rational atom is a linear form, so prime (see ratfun)
            for a in coeff.den:
                if not is_linear_form(a.poly):
                    raise ParseError(f"denominator atom ({render_poly(a.poly)}) is not"
                                     " a linear form, as rational atoms are")
        t = _TOKEN.match(text, pos)
        if t["rp"] is None or t["exp"] is not None:
            raise ParseError(f"expected ')' at {text[pos : pos + 24]!r}")
        pos = t.end()
        exps = {}
        if t["more"] is not None:
            while True:
                t = _TOKEN.match(text, pos)
                kind = t["var"]
                if kind is None or kind[0] != ("e" if rational else "D"):
                    break
                # e^{mq[i,r]} closes with "}" and takes no power; D[i,r]^m
                if (t["close"] is None) == rational or t["more"] or (rational and t["exp"]):
                    raise ParseError(f"malformed shift generator at {text[pos : pos + 24]!r}")
                if rational:
                    m = (-1 if t["neg"] else 1) * (_int(t["mult"]) if t["mult"] else 1)
                else:
                    m = 1 if t["exp"] is None else _int(t["exp"])
                slot, i, r = _slot(t)
                _check_slot(signature, "shift generator", slot, i, r)
                exps[(slot, i, r)] = exps.get((slot, i, r), 0) + m
                pos = t.end()
        shift = ShiftMonomial(exps)
        cur = terms.get(shift)
        terms[shift] = coeff if cur is None else cur + coeff
        t = _TOKEN.match(text, pos)
        if t["op"] != "+":
            break
        pos = t.end()
    _at_end(text, pos)
    _check_slot_vars(seen, signature)
    return AlgebraElement(signature, terms)


def _check_slot(signature, what: str, slot: int, i: int, r: int) -> None:
    if not signature.has_slot(slot, i, r):
        raise ParseError(f"{what} [{slot};{i},{r}] is not in the signature")


def _check_slot_vars(variables, signature) -> None:
    """Slot variables of an element: p in rational mode, wh in trig mode,
    each at a slot of the signature."""
    kind = "p" if signature.mode == "rational" else "wh"
    for v in variables:
        if v[0] not in ("p", "wh"):
            continue
        if v[0] != kind:
            raise ParseError(f"{v[0]} variables do not occur in {signature.mode} mode")
        _check_slot(signature, f"{v[0]}-variable", *v[1:])


# ---------------------------------------------------------------------------
# matrix JSON and LaTeX surfaces


def signature_to_json(sig) -> dict:
    return {
        "n": sig.n,
        "mode": sig.mode,
        "slot_counts": [list(a) for a in sig.slot_counts],
        "points": list(sig.points),
    }


def signature_from_json(data: dict):
    """Inverse of signature_to_json; malformed data raises ParseError.  n
    and the slot counts are integers as Divisor.from_json reads them (ints
    or integer strings, never bools or floats), n >= 1 and every count
    >= 0; there is at least one slot vector, and the points are strings."""
    from .algebra import AlgebraSignature
    from .coweight import _json_int

    if not isinstance(data, dict) or any(
        k not in data for k in ("n", "mode", "slot_counts")
    ):
        raise ParseError("a signature needs 'n', 'mode' and 'slot_counts'")
    n = _json_int(data["n"], "n")
    if n < 1:
        raise ParseError(f"n must be positive, got {n}")
    vectors = data["slot_counts"]
    if not (isinstance(vectors, list) and vectors
            and all(isinstance(a, list) for a in vectors)):
        raise ParseError("slot_counts must be a nonempty list of slot vectors")
    counts = tuple(tuple(_json_int(x, "a slot count") for x in a) for a in vectors)
    if any(x < 0 for a in counts for x in a):
        raise ParseError(f"slot counts must be nonnegative, got {vectors!r}")
    points = data.get("points", [])
    if not (isinstance(points, list) and all(isinstance(p, str) for p in points)):
        raise ParseError(f"points must be a list of strings, got {points!r}")
    try:
        return AlgebraSignature(n, data["mode"], counts, tuple(points))
    except ValueError as exc:
        raise ParseError(f"bad signature: {exc}") from None


def matrix_to_json(mat) -> dict:
    """Matrix of algebra elements with embedded signature; entries are the
    canonical text forms, so files diff cleanly and round-trip exactly."""
    sig = mat.signature
    data = {
        "signature": signature_to_json(sig),
        "entries": [[render_element(e) for e in row] for row in mat.entries],
    }
    if mat.divisor is not None:
        data["divisor"] = mat.divisor.to_json()
    return data


def matrix_from_json(data: dict):
    from .coweight import Divisor
    from .lax_rational import LaxMatrix

    if not isinstance(data, dict) or "signature" not in data:
        raise ParseError("a matrix needs a 'signature'")
    sig = signature_from_json(data["signature"])
    rows = data.get("entries")
    if not (
        isinstance(rows, list)
        and len(rows) == sig.n
        and all(
            isinstance(row, list)
            and len(row) == sig.n
            and all(isinstance(text, str) for text in row)
            for row in rows
        )
    ):
        raise ParseError(f"a matrix needs {sig.n} rows of {sig.n} entry strings")
    entries = [[parse_element(text, sig) for text in row] for row in rows]
    div = data.get("divisor")
    if div is not None:
        div = Divisor.from_json(div)
    # only n and mode must match: a fused matrix carries its merged
    # one-factor divisor on a two-factor signature
    if div is not None and (div.n, div.mode) != (sig.n, sig.mode):
        raise ParseError(f"the divisor (n = {div.n}, {div.mode}) does not match the"
                         f" signature (n = {sig.n}, {sig.mode})")
    return LaxMatrix(sig, div, entries)


def latex_var_power(v, e: int) -> str:
    kind = v[0]
    if kind in ("z", "w", "v"):
        base = kind
    elif kind == "eps":
        base = r"\epsilon"
    elif kind == "x":
        base = f"x_{{{v[1]}}}"
    elif kind == "p":
        _, slot, i, r = v
        sub = f"{i},{r}" if slot == 1 else f"{slot};{i},{r}"
        base = f"p_{{{sub}}}"
    elif kind == "wh":
        _, slot, i, r = v
        sub = f"{i},{r}" if slot == 1 else f"{slot};{i},{r}"
        if e % 2 == 0:
            base = f"w_{{{sub}}}"
            e //= 2
        else:
            base = f"w_{{{sub}}}^{{1/2}}"
            if e != 1:
                return f"w_{{{sub}}}^{{{Fraction(e,2)}}}"
            return base
    else:
        raise ValueError(v)
    return base if e == 1 else f"{base}^{{{e}}}"


def latex_poly(p: Poly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for m, c in p.ordered_terms():
        neg = c < 0
        c_abs = -c if neg else c
        mono = " ".join(latex_var_power(v, e) for v, e in m)
        if not m:
            body = _latex_frac(c_abs)
        elif c_abs == 1:
            body = mono
        else:
            body = f"{_latex_frac(c_abs)} {mono}"
        parts.append(("-" if neg else "+") + body)
    out = " ".join(parts)
    return out[1:].strip() if out.startswith("+") else out


def _latex_frac(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return rf"\tfrac{{{c.numerator}}}{{{c.denominator}}}"


def latex_ratfun(f: RatFun) -> str:
    num = latex_poly(f.num)
    if not f.den:
        return num
    factors = []
    for a in sorted(f.den, key=lambda a: a.key):
        m = f.den[a]
        s = f"({latex_poly(a.poly)})"
        factors.append(s if m == 1 else f"{s}^{{{m}}}")
    return rf"\frac{{{num}}}{{{''.join(factors)}}}"


def latex_element(elem) -> str:
    sig = elem.signature
    if not elem.terms:
        return "0"
    parts = []
    for shift in sorted(elem.terms, key=lambda s: sorted(s.exps.items())):
        coeff = elem.terms[shift]
        body = latex_ratfun(coeff)
        if shift.exps:
            if coeff.is_const() and coeff.const_value() == 1:
                body = ""
            elif coeff.is_const() and coeff.const_value() == -1:
                body = "-"
            elif len(coeff.num.terms) > 1 or coeff.den:
                body = f"\\left({body}\\right)"
            factors = []
            for (slot, i, r), m in sorted(shift.exps.items()):
                sub = f"{i},{r}" if sig.tensor_factors == 1 else f"{slot};{i},{r}"
                if sig.mode == "rational":
                    arg = f"q_{{{sub}}}" if abs(m) == 1 else f"{abs(m)}q_{{{sub}}}"
                    factors.append(f"e^{{{'-' if m < 0 else ''}{arg}}}")
                else:
                    factors.append(
                        f"D_{{{sub}}}" if m == 1 else f"D_{{{sub}}}^{{{m}}}"
                    )
            body += " " + " ".join(factors)
        parts.append(body)
    return " + ".join(parts)


def latex_matrix(mat) -> str:
    rows = [
        " & ".join(latex_element(e) for e in row) for row in mat.entries
    ]
    body = " \\\\\n".join(rows)
    return "\\begin{pmatrix}\n" + body + "\n\\end{pmatrix}"
