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

from fractions import Fraction
from typing import List, Tuple

from .errors import ParseError
from .ratfun import (
    EPS,
    Poly,
    RatFun,
    V,
    W,
    Z,
    p_var,
    wh_var,
    x_var,
)

# ---------------------------------------------------------------------------
# rendering


def render_var_power(v, e: int) -> str:
    kind = v[0]
    if kind == "z":
        base = "z"
    elif kind == "w":
        base = "w"
    elif kind == "v":
        base = "v"
    elif kind == "eps":
        base = "eps"
    elif kind == "x":
        base = f"x[{v[1]}]"
    elif kind == "p":
        _, slot, i, r = v
        base = f"p[{i},{r}]" if slot == 1 else f"p[{slot};{i},{r}]"
    elif kind == "wh":
        _, slot, i, r = v
        if e % 2 == 0:
            base = f"w[{i},{r}]" if slot == 1 else f"w[{slot};{i},{r}]"
            e //= 2
        else:
            base = f"wh[{i},{r}]" if slot == 1 else f"wh[{slot};{i},{r}]"
    else:
        raise ValueError(f"unknown variable {v!r}")
    if e == 1:
        return base
    return f"{base}^{e}"


def _render_mono(items) -> str:
    """items: ((var, exp), ...) in var_precedence order."""
    return "*".join(render_var_power(v, e) for v, e in items)


def _render_coeff(c: Fraction) -> str:
    return str(c)


def render_poly(p: Poly) -> str:
    if p.is_zero():
        return "0"
    parts: List[str] = []
    for m, c in p.ordered_terms():
        neg = c < 0
        c_abs = -c if neg else c
        if not m:
            body = _render_coeff(c_abs)
        elif c_abs == 1:
            body = _render_mono(m)
        else:
            body = f"{_render_coeff(c_abs)}*{_render_mono(m)}"
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


class _Tok:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        return self.text[self._skip() : self.pos + 1]

    def take(self, s: str) -> bool:
        if self.text.startswith(s, self._skip()):
            self.pos += len(s)
            return True
        return False

    def expect(self, s: str):
        if not self.take(s):
            raise ParseError(f"expected {s!r} at ...{self.text[self.pos:self.pos+24]!r}")

    def _skip(self) -> int:
        while self.pos < len(self.text) and self.text[self.pos] in " \t\n":
            self.pos += 1
        return self.pos

    def integer(self) -> int:
        self._skip()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError(f"expected integer at {self.text[start:start+16]!r}")
        return int(self.text[start : self.pos])

    def fraction(self) -> Fraction:
        n = self.integer()
        save = self.pos
        if self.take("/"):
            # only a plain denominator digit run counts as a fraction here
            self._skip()
            if self.pos < len(self.text) and self.text[self.pos].isdigit():
                d = self.integer()
                if not d:
                    raise ParseError(f"zero denominator in {n}/{d}")
                return Fraction(n, d)
            self.pos = save
        return Fraction(n)

    def ident(self) -> str:
        self._skip()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start : self.pos]

    def at_end(self) -> bool:
        self.peek()
        return self.pos >= len(self.text)


def _parse_indices(tok: _Tok) -> Tuple[int, int, int]:
    tok.expect("[")
    a = tok.integer()
    if tok.take(";"):
        slot = a
        i = tok.integer()
        tok.expect(",")
        r = tok.integer()
    else:
        slot = 1
        tok.expect(",")
        i = a
        r = tok.integer()
    tok.expect("]")
    return slot, i, r


def _parse_var(tok: _Tok):
    """Returns (var, exp_multiplier) where wh-even rendering gives 2."""
    name = tok.ident()
    if name == "z":
        return Z, 1
    if name == "w" and tok.peek() != "[":
        return W, 1
    if name == "v":
        return V, 1
    if name == "eps":
        return EPS, 1
    if name == "x":
        tok.expect("[")
        start = tok.pos
        depth = 1
        while depth:
            if tok.pos == len(tok.text):
                raise ParseError(f"unclosed label x[{tok.text[start:]}")
            ch = tok.text[tok.pos]
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            if depth:
                tok.pos += 1
        label = tok.text[start : tok.pos]
        tok.expect("]")
        return x_var(label), 1
    if name == "p":
        slot, i, r = _parse_indices(tok)
        return p_var(i, r, slot), 1
    if name == "w":
        slot, i, r = _parse_indices(tok)
        return wh_var(i, r, slot), 2
    if name == "wh":
        slot, i, r = _parse_indices(tok)
        return wh_var(i, r, slot), 1
    raise ParseError(f"unknown variable {name!r}")


def _parse_power(tok: _Tok) -> int:
    if tok.take("^"):
        return tok.integer()
    return 1


def _parse_term(tok: _Tok, sign: int) -> Poly:
    coeff = Fraction(sign)
    mono = {}
    saw_any = False
    first = True
    while True:
        ch = tok.peek()
        if first and (ch.isdigit() or ch == "-" or ch == "+"):
            coeff *= tok.fraction()
            saw_any = True
            first = False
            if not tok.take("*"):
                break
            continue
        if ch.isalpha():
            v, mult = _parse_var(tok)
            e = _parse_power(tok) * mult
            mono[v] = mono.get(v, 0) + e
            saw_any = True
            first = False
            if not tok.take("*"):
                break
            continue
        break
    if not saw_any:
        raise ParseError(f"empty term at {tok.text[tok.pos:tok.pos+16]!r}")
    m = tuple(sorted((v, e) for v, e in mono.items() if e))
    return Poly.monomial(m, coeff)


def parse_poly(text_or_tok) -> Poly:
    tok = text_or_tok if isinstance(text_or_tok, _Tok) else _Tok(text_or_tok)
    total = Poly.zero()
    sign = 1
    if tok.take("-"):
        sign = -1
    while True:
        total = total + _parse_term(tok, sign)
        if tok.take("+"):
            sign = 1
        elif tok.take("-"):
            sign = -1
        else:
            break
    if isinstance(text_or_tok, str) and not tok.at_end():
        raise ParseError(f"trailing input {tok.text[tok.pos:]!r}")
    return total


def parse_ratfun(text: str) -> RatFun:
    tok = _Tok(text)
    f = _parse_ratfun_tok(tok)
    if not tok.at_end():
        raise ParseError(f"trailing input {tok.text[tok.pos:]!r}")
    return f


def parse_element(text: str, signature) -> "AlgebraElement":
    """Inverse of render_element over the given signature."""
    from .algebra import AlgebraElement, ShiftMonomial

    tok = _Tok(text)
    if tok.take("0"):
        if not tok.at_end():
            raise ParseError("trailing input after zero element")
        return AlgebraElement.zero(signature)
    terms = {}
    while True:
        tok.expect("(")
        coeff = _parse_ratfun_tok(tok)
        tok.expect(")")
        _check_slot_vars(coeff, signature)
        exps = {}
        if tok.take("*"):
            while True:
                if signature.mode == "rational":
                    if not tok.take("e^{"):
                        break
                    m = _parse_shift_exponent(tok)
                    tok.expect("q")
                    slot, i, r = _parse_indices(tok)
                    tok.expect("}")
                else:
                    if not tok.take("D"):
                        break
                    slot, i, r = _parse_indices(tok)
                    m = tok.integer() if tok.take("^") else 1
                _check_slot(signature, "shift generator", slot, i, r)
                exps[(slot, i, r)] = exps.get((slot, i, r), 0) + m
        shift = ShiftMonomial(exps)
        cur = terms.get(shift)
        terms[shift] = coeff if cur is None else cur + coeff
        if not tok.take("+"):
            break
    if not tok.at_end():
        raise ParseError(f"trailing input {tok.text[tok.pos:]!r}")
    return AlgebraElement(signature, terms)


def _parse_shift_exponent(tok: _Tok) -> int:
    ch = tok.peek()
    if ch == "-":
        tok.take("-")
        if tok.peek().isdigit():
            return -tok.integer()
        return -1
    if ch.isdigit():
        return tok.integer()
    return 1


def _check_slot(signature, what: str, slot: int, i: int, r: int) -> None:
    if not signature.has_slot(slot, i, r):
        raise ParseError(f"{what} [{slot};{i},{r}] is not in the signature")


def _check_slot_vars(coeff: RatFun, signature) -> None:
    """Slot variables of a coefficient: p in rational mode, wh in trig mode,
    each at a slot of the signature."""
    kind = "p" if signature.mode == "rational" else "wh"
    for poly in [coeff.num] + [atom.poly for atom in coeff.den]:
        for v in poly.variables():
            if v[0] not in ("p", "wh"):
                continue
            if v[0] != kind:
                raise ParseError(f"{v[0]} variables do not occur in {signature.mode} mode")
            _check_slot(signature, f"{v[0]}-variable", *v[1:])


def _parse_ratfun_tok(tok: _Tok) -> RatFun:
    if tok.peek() == "(":
        save = tok.pos
        tok.expect("(")
        num = parse_poly(tok)
        tok.expect(")")
        if tok.take("/"):
            tok.expect("(")
            out = RatFun.ratio(num, 1)
            while True:
                tok.expect("(")
                atom_poly = parse_poly(tok)
                tok.expect(")")
                if atom_poly.is_zero():
                    raise ParseError("zero denominator factor")
                k = _parse_power(tok)
                out = out * RatFun.ratio(Poly.const(1), atom_poly) ** k
                if not tok.take("*"):
                    break
            tok.expect(")")
            return out
        tok.pos = save
    # bare polynomial
    start = tok.pos
    depth = 0
    while tok.pos < len(tok.text):
        ch = tok.text[tok.pos]
        if ch == "(":
            depth += 1
        elif ch == ")":
            if depth == 0:
                break
            depth -= 1
        tok.pos += 1
    segment = tok.text[start : tok.pos]
    return RatFun.ratio(parse_poly(segment), 1)


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
    """Inverse of signature_to_json; malformed data raises ParseError."""
    from .algebra import AlgebraSignature

    if not isinstance(data, dict) or any(
        k not in data for k in ("n", "mode", "slot_counts")
    ):
        raise ParseError("a signature needs 'n', 'mode' and 'slot_counts'")
    try:
        return AlgebraSignature(
            int(data["n"]),
            data["mode"],
            tuple(tuple(int(x) for x in a) for a in data["slot_counts"]),
            tuple(data.get("points", [])),
        )
    except (TypeError, ValueError) as exc:
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
    div = Divisor.from_json(data["divisor"]) if data.get("divisor") else None
    return LaxMatrix(sig, div, entries)


def latex_var_power(v, e: int) -> str:
    kind = v[0]
    if kind == "z":
        base = "z"
    elif kind == "w":
        base = "w"
    elif kind == "v":
        base = "v"
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
