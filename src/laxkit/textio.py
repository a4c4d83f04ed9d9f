"""Canonical text rendering and parsing.

The renderer emits one canonical text per value, and parse(render(x)) ==
x bit-exactly.  The reader accepts that text and a superset of it:
whitespace between any two tokens; numerator terms in any order, like
terms summed, a repeated variable's exponents added and a negative power
of a non-unit variable moved to the denominator; a term's sign followed
by a signed integer's own sign (--3 and - -3 read as 3, -+3*z as -3*z);
shift generators in any order, a repeated generator's exponents added,
and terms that repeat a shift monomial summed; and a "*" after an
element's coefficient with no generator after it ((z) * reads as (z),
(z) * + (1) as (z + 1)).  Variables print as z, w, v, eps, x[label], p[i,r] (or
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
from .monomials import FW, HALF, PREC, UNIT_KINDS, VARS, Var, grlex, pack_mono, unpacked
from .poly import _P_ZERO, _q
from .ratfun import (
    EPS,
    Poly,
    RatFun,
    V,
    W,
    Z,
    _memo,
    is_linear_form,
    p_var,
    wh_var,
    x_var,
)

# The monomial text table, shared by the reader and the writer: the text
# of a monomial as read -> (packed monomial, its variables, its |exponent|
# bound, whether a non-unit exponent is negative), and a packed monomial
# -> its canonical text.  Packed monomials hold for the process that made
# them, and so does the table; it is capped by ratfun._memo.
_MONOS: Dict[object, object] = {}

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


def _mono_text(m: int) -> str:
    """Canonical text of the packed monomial m != 0: its variable powers
    in var_precedence order."""
    return "*".join(render_var_power(VARS[k], e)
                    for k, e in sorted(unpacked(m), key=lambda ke: PREC[ke[0]]))


def render_poly(p: Poly) -> str:
    """Terms in descending canonical order, each monomial's text taken from
    the monomial text table."""
    if p.is_zero():
        return "0"
    terms = p.terms
    parts: List[str] = []
    for m in sorted(terms, key=grlex(p._fields()), reverse=True):
        c = terms[m]
        sign, c = ("- ", -c) if c < 0 else ("+ ", c)
        if m:
            mono = _MONOS.get(m) or _memo(_MONOS, m, _mono_text, m)
            parts.append(f"{sign}{mono}" if c == 1 else f"{sign}{c}*{mono}")
        else:
            parts.append(f"{sign}{c}")
    out = " ".join(parts)  # the first term reads "-x", not "- x", and "x", not "+ x"
    return out[2:] if out[0] == "+" else "-" + out[2:]


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
# A polynomial is read a term at a time: one match of _TERM reads its
# sign, the sign of a signed integer, the coefficient and the monomial
# text, which the monomial text table maps to its packed monomial.  On a
# miss, and from a label whose brackets nest (x[a[b]]: a label runs to
# the first "]" at which its brackets balance), _monomial_at reads the
# monomial a variable at a time.  Whitespace (space, tab, newline) may
# stand between any two tokens.  A numerator without denominator or
# negative power of a non-unit variable is the fraction as read; any
# other goes through RatFun.quotient, which splits each denominator
# factor once and reduces the whole once.

_S = r"[ \t\n]*"
_INT = r"[-+]?[0-9]+"
_IDX = rf"{_S}\[{_S}(?P<a>{_INT}){_S}(?:;{_S}(?P<b>{_INT}){_S})?,{_S}(?P<c>{_INT}){_S}\]"
_POW = rf"(?:{_S}\^{_S}(?P<exp>{_INT}))?"
_VAR_POWER = rf"[^\W\d]\w*(?:{_S}\[[^\[\]]*\])?(?:{_S}\^{_S}{_INT})?"
_TERM = re.compile(
    rf"{_S}(?P<sep>[-+]?)(?:{_S}(?P<sgn>[-+])(?=[0-9]))?"
    rf"(?:{_S}(?P<num>[0-9]+)(?:{_S}/{_S}(?P<den>[0-9]+))?(?P<star>{_S}\*)?)?"
    rf"(?:{_S}(?P<mono>{_VAR_POWER}(?:{_S}\*{_S}{_VAR_POWER})*))?(?P<nest>{_S}\[)?"
)
_VAR = re.compile(rf"{_S}(?:(?P<kind>wh|w|p){_IDX}|(?P<name>[^\W\d]\w*)(?P<label>{_S}\[)?)")
_POWER = re.compile(rf"{_POW}(?P<more>{_S}\*)?")
_OPEN = re.compile(rf"{_S}\(")
_CLOSE = re.compile(rf"{_S}\)(?P<more>{_S}\*)?")
_OVER = re.compile(rf"{_S}\){_S}/{_S}\({_S}\(")
_FACTOR_CLOSE = re.compile(rf"{_S}\){_POW}{_S}(?:(?P<more>\*{_S}\()|\))")
_PLUS = re.compile(rf"{_S}\+")
_SHIFT = {
    "rational": re.compile(rf"{_S}e\^\{{{_S}(?P<neg>-?){_S}(?P<mult>[0-9]*){_S}q{_IDX}{_S}\}}"),
    "trig": re.compile(rf"{_S}D{_IDX}{_POW}"),
}

# CPython's default limit on int/str conversions, so that every version
# reads the same texts
_MAX_DIGITS = 4300
_NAMED = {"z": Z, "w": W, "v": V, "eps": EPS}


def _int(digits: str) -> int:
    if len(digits) > _MAX_DIGITS:
        raise ParseError(f"integer of {len(digits)} digits (at most {_MAX_DIGITS})")
    return int(digits)


def _at_end(text: str, pos: int) -> None:
    if text[pos:].strip(" \t\n"):
        raise ParseError(f"trailing input {text[pos:]!r}")


def _slot(t) -> Tuple[int, int, int]:
    """(slot, i, r) of an index [i,r] or [slot;i,r]."""
    a, b = _int(t["a"]), t["b"]
    return (a, _int(b), _int(t["c"])) if b is not None else (1, a, _int(t["c"]))


def _monomial_at(text: str, pos: int) -> tuple:
    """The monomial text table's entry of the monomial at pos (packed
    monomial, its variables, its |exponent| bound, whether a non-unit
    exponent is negative) and the position after it.  A repeated variable
    adds its exponents; w[i,r]^k is wh[i,r]^(2k)."""
    exps: Dict[Var, int] = {}
    more = True
    while more:
        t = _VAR.match(text, pos)
        if t is None:
            raise ParseError(f"expected a variable at {text[pos : pos + 24]!r}")
        kind, name, label = t.group("kind", "name", "label")
        pos, mult = t.end(), 1
        if kind is not None:
            slot, i, r = _slot(t)
            var = p_var(i, r, slot) if kind == "p" else wh_var(i, r, slot)
            mult = 2 if kind == "w" else 1
        elif label is None:
            var = _NAMED.get(name)
            if var is None:
                raise ParseError(f"unknown variable {name!r}")
        elif name == "x":
            end = text.find("]", pos)
            while end >= 0 and text.count("[", pos, end) != text.count("]", pos, end):
                end = text.find("]", end + 1)
            if end < 0:
                raise ParseError(f"unclosed label x[{text[pos:]}")
            var, pos = x_var(text[pos:end]), end + 1
        else:
            raise ParseError(f"expected a variable at {text[t.start() : t.start() + 24]!r}")
        t = _POWER.match(text, pos)
        exps[var] = exps.get(var, 0) + mult * (1 if t["exp"] is None else _int(t["exp"]))
        pos, more = t.end(), t["more"]
    b = max(map(abs, exps.values()))
    if b >= HALF:
        raise ParseError(f"exponent {b} does not fit a {FW}-bit field")
    neg = any(e < 0 and v[0] not in UNIT_KINDS for v, e in exps.items())
    return (pack_mono(exps.items()), frozenset(exps), b, neg), pos


def _poly_at(text: str, pos: int, seen: set) -> Tuple[Poly, int, bool]:
    """The polynomial at pos, the position after it, and whether a term
    holds a negative power of a non-unit variable; the variable sets of
    its monomials are added to seen."""
    terms: Dict[int, object] = {}
    eb, neg, frac = 0, False, False
    t = _TERM.match(text, pos)
    # "-" may open a polynomial, "+" only a signed integer ("+3")
    if t["sep"] == "+" and (t["sgn"] or t.start("num") != t.end("sep")):
        raise ParseError(f"expected a term at {text[pos : pos + 24]!r}")
    while True:
        sep, sgn, num, den, star, mono = t.group("sep", "sgn", "num", "den", "star", "mono")
        c = -1 if (sep == "-") != (sgn == "-") else 1
        if num is not None:
            c *= _int(num)
            if den is not None:
                if not (d := _int(den)):
                    raise ParseError(f"zero denominator in {num}/{den}")
                c, frac = Fraction(c, d), True
            if star is None:  # a constant term
                mono, pos = None, t.end("num" if den is None else "den")
        if mono is None:
            if num is None or star is not None:
                raise ParseError(f"expected a term at {text[pos : pos + 24]!r}")
            m = 0
        else:
            if t["nest"] is None:
                entry = _MONOS.get(mono) or _memo(_MONOS, mono, lambda: _monomial_at(mono, 0)[0])
                pos = t.end("mono")
            else:  # a label whose brackets nest
                entry, pos = _monomial_at(text, t.start("mono"))
            m, variables, b, lifted = entry
            seen.add(variables)
            eb, neg = max(eb, b), neg or lifted
        c += terms.get(m, 0)
        if c:
            terms[m] = c
        else:
            terms.pop(m, None)  # a zero coefficient, or a cancelled term
        t = _TERM.match(text, pos)
        if not t["sep"]:
            return Poly({m: _q(c) for m, c in terms.items()} if frac else terms, eb), pos, neg


def _ratfun_at(text: str, pos: int, seen: set) -> Tuple[RatFun, int]:
    """A bare polynomial or (NUM) / ((ATOM)^k * ...) at pos, and the
    position after it; the variable sets of its monomials are added to
    seen."""
    factors = []
    t = _OPEN.match(text, pos)
    if t is None:
        num, pos, neg = _poly_at(text, pos, seen)
        if not neg:
            return RatFun(num if num.terms else _P_ZERO, {}), pos
    else:
        num, pos, _ = _poly_at(text, t.end(), seen)
        t = _OVER.match(text, pos)
        if t is None:
            raise ParseError(f"expected ') / ((' at {text[pos : pos + 24]!r}")
        while True:
            f, pos, _ = _poly_at(text, t.end(), seen)
            if not f:
                raise ParseError("zero denominator factor")
            t = _FACTOR_CLOSE.match(text, pos)
            if t is None:
                raise ParseError(f"expected ')' at {text[pos : pos + 24]!r}")
            k = 1 if t["exp"] is None else _int(t["exp"])
            if not 1 <= k < HALF:
                raise ParseError(f"atom multiplicity {k} is outside 1..{HALF - 1}")
            factors.append((f, k))
            if t["more"] is None:
                break
        pos = t.end()
    try:
        return RatFun.quotient(num, factors), pos
    except (NotAtomFactorable, OverflowError) as exc:
        raise ParseError(f"bad fraction: {exc}") from None


def parse_poly(text: str) -> Poly:
    p, pos, _ = _poly_at(text, 0, set())
    _at_end(text, pos)
    return p


def parse_ratfun(text: str) -> RatFun:
    f, pos = _ratfun_at(text, 0, set())
    _at_end(text, pos)
    return f


def parse_element(text: str, signature) -> "AlgebraElement":
    """Inverse of render_element over the given signature."""
    from .algebra import AlgebraElement, ShiftMonomial

    if text.strip(" \t\n") == "0":
        return AlgebraElement.zero(signature)
    rational = signature.mode == "rational"
    shift_at = _SHIFT[signature.mode].match
    terms = {}
    seen = set()
    pos = 0
    while True:
        t = _OPEN.match(text, pos)
        if t is None:
            raise ParseError(f"expected '(' at {text[pos : pos + 24]!r}")
        coeff, pos = _ratfun_at(text, t.end(), seen)
        if rational:
            # every rational atom is a linear form, so prime (see ratfun)
            for a in coeff.den:
                if not is_linear_form(a.poly):
                    raise ParseError(f"denominator atom ({render_poly(a.poly)}) is not"
                                     " a linear form, as rational atoms are")
        t = _CLOSE.match(text, pos)
        if t is None:
            raise ParseError(f"expected ')' at {text[pos : pos + 24]!r}")
        pos = t.end()
        exps = {}
        # e^{mq[i,r]} ... in rational mode, D[i,r]^m ... in trig mode
        while t["more"] is not None and (g := shift_at(text, pos)) is not None:
            if rational:
                m = (-1 if g["neg"] else 1) * (_int(g["mult"]) if g["mult"] else 1)
            else:
                m = 1 if g["exp"] is None else _int(g["exp"])
            slot, i, r = _slot(g)
            _check_slot(signature, "shift generator", slot, i, r)
            exps[(slot, i, r)] = exps.get((slot, i, r), 0) + m
            pos = g.end()
        shift = ShiftMonomial(exps)
        cur = terms.get(shift)
        terms[shift] = coeff if cur is None else cur + coeff
        t = _PLUS.match(text, pos)
        if t is None:
            break
        pos = t.end()
    _at_end(text, pos)
    _check_slot_vars(frozenset().union(*seen), signature)
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
    canonical text forms, so files diff cleanly and round-trip exactly.
    A normalized matrix says so ("normalized": true), since its quantum
    determinant's closed form depends on it; a raw matrix has no such key."""
    sig = mat.signature
    data = {
        "signature": signature_to_json(sig),
        "entries": [[render_element(e) for e in row] for row in mat.entries],
    }
    if mat.divisor is not None:
        data["divisor"] = mat.divisor.to_json()
    if mat.normalized:
        data["normalized"] = True
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
    normalized = data.get("normalized", False)
    if not isinstance(normalized, bool):
        raise ParseError(f"'normalized' must be true or false, got {normalized!r}")
    return LaxMatrix(sig, div, entries, normalized)


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
