"""Sparse polynomials over exact rationals, and exact division.

Monomials are packed ints over one process-wide variable index (see
monomials.py): a product is an int sum, and every Poly shares one
layout, so no operand is ever repacked.  The canonical term order is
graded lexicographic in var_precedence rank, read from decoded fields
(monomials.grlex), never from int comparison; it fixes leading terms,
rendering and Atom keys, which hold decoded monomials, so results are
the same in every process.  Every product checks a per-Poly bound on
|exponent| first, so a field that would overflow raises OverflowError
instead of wrapping.  A product with a one-term operand skips the
accumulation loop: exponents add, so no two products collide.  When
both operands have only int coefficients, a product by 1 is the other
operand itself; a Fraction coefficient still goes through _q, so
p * Poly.const(1) is p made canonical.

Exact division is only ever by an atom (see ratfun), which has one of
two shapes, and each has its synthetic division: by a prime atom
A*u + B (see rejection) in u (synthetic_div), by a two-term atom
c1*m1 + c2*m2 along the chains m0 + j*(m1 - m2) of the dividend
(binomial_div).  Either returns the quotient, or None when the atom
does not divide.

Coefficients are exact rationals stored as plain ints whenever they are
integral and as reduced Fractions only otherwise (_q enforces this, and
every coefficient quotient goes through _qdiv); nothing here is ever
floating point.  The formulas are products of linear forms with small
integer coefficients, so nearly all arithmetic stays on Python ints.
Since Fraction(2) == 2 and hash(Fraction(2)) == hash(2), the choice of
representation is invisible to equality, Atom keys and rendering.

Exponents of unit variables ('v' and 'wh', see ratfun) may be negative;
all other exponents are non-negative.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Dict, Iterable, List, Optional, Tuple, Union

from . import monomials as mono
from .monomials import (
    FW,
    HALF,
    MASK,
    UNIT_KINDS,
    VARS,
    Monomial,
    Var,
    by_precedence,
    exact_bound,
    field_of,
    grlex,
    pack_mono,
)

Coeff = Union[int, Fraction]

Q0 = 0
Q1 = 1


def _q(c):
    """c as a coefficient: an int when c is integral, otherwise a reduced
    Fraction."""
    if c.__class__ is int:
        return c
    if c.__class__ is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _qdiv(a, b):
    """Exact quotient a / b of two coefficients (int / int never becomes
    a float)."""
    if a.__class__ is int and b.__class__ is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _q(a / b)


def is_unit_var(v: Var) -> bool:
    return v[0] in UNIT_KINDS


def _bounded(combine, *polys) -> int:
    """combine(exponent bounds of polys) when it fits a field.  Cached
    bounds that are too loose are first recomputed exactly; exact ones
    that are too large raise OverflowError."""
    b = combine(*(p._eb for p in polys))
    if b >= HALF:
        for p in polys:
            p._eb = exact_bound(p.terms)
        b = combine(*(p._eb for p in polys))
        if b >= HALF:
            raise OverflowError(f"exponents up to {b} do not fit a {FW}-bit field")
    return b


# ---------------------------------------------------------------------------


class Poly:
    """Immutable sparse polynomial: dict packed monomial -> coefficient
    (int, or Fraction when not integral), no zeros.

    _eb is an upper bound on |exponent| over all terms (exact when not
    given); _ks caches the fields of the variables that occur, in
    var_precedence order."""

    __slots__ = ("terms", "_eb", "_ks")

    def __init__(self, terms: Dict[Monomial, Coeff], eb: Optional[int] = None):
        self.terms = terms
        self._eb = exact_bound(terms) if eb is None else eb
        self._ks = None

    # -- constructors

    @staticmethod
    def zero() -> "Poly":
        return _P_ZERO

    @staticmethod
    def const(c) -> "Poly":
        c = _q(c)
        return Poly({0: c}, 0) if c else _P_ZERO

    @staticmethod
    def variable(v: Var, exp: int = 1) -> "Poly":
        if exp == 0:
            return _P_ONE
        return Poly({pack_mono(((v, exp),)): Q1}, abs(exp))

    @staticmethod
    def monomial(m: Iterable[Tuple[Var, int]], c=Q1) -> "Poly":
        """c * m for m given as ((var, exp), ...)."""
        c = _q(c)
        return Poly({pack_mono(m): c}) if c else _P_ZERO

    @staticmethod
    def sum_of_monomials(terms: Iterable[Tuple[Tuple[Tuple[Var, int], ...], Coeff]]) -> "Poly":
        """The sum of c * m over the (m, c) terms, m given as ((var, exp),
        ...), with the bound max over m of sum |exp| (no decoding)."""
        out: Dict[Monomial, Coeff] = {}
        eb = 0
        for m, c in terms:
            if c:
                k = pack_mono(m)
                out[k] = out.get(k, 0) + c
                b = 0
                for _, e in m:
                    b += e if e > 0 else -e
                if b > eb:
                    eb = b
        return Poly({k: _q(c) for k, c in out.items() if c}, eb)

    # -- predicates / views

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def const_value(self) -> Coeff:
        if not self.terms:
            return Q0
        if len(self.terms) == 1 and 0 in self.terms:
            return self.terms[0]
        raise ValueError("not a constant polynomial")

    def _fields(self) -> tuple:
        """Fields of the variables of self, in var_precedence order."""
        ks = self._ks
        if ks is None:
            # (m + bias) ^ bias has a zero field exactly where m has one
            bias = mono.BIAS
            acc = 0
            for m in self.terms:
                acc |= (m + bias) ^ bias
            found = []
            k = 0
            while acc:
                if acc & MASK:
                    found.append(k)
                acc >>= FW
                k += 1
            ks = self._ks = by_precedence(found)
        return ks

    def variables(self) -> frozenset:
        return frozenset(VARS[k] for k in self._fields())

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- ring operations

    def __add__(self, other) -> "Poly":
        other = _as_poly(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for m, c in other.terms.items():
            nc = out.get(m, 0) + c
            if nc:
                out[m] = _q(nc)
            else:
                out.pop(m, None)
        return Poly(out, max(self._eb, other._eb))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()}, self._eb)

    def __sub__(self, other) -> "Poly":
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) - self

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            c = _q(other)
            if not c:
                return _P_ZERO
            if c == 1:
                return self
            return Poly({m: _q(cc * c) for m, cc in self.terms.items()}, self._eb)
        other = _as_poly(other)
        at = self.terms
        bt = other.terms
        if not at or not bt:
            return _P_ZERO
        eb = self._eb + other._eb
        if eb >= HALF:
            eb = _bounded(int.__add__, self, other)
        if len(at) == 1 or len(bt) == 1:
            # at: the one-term operand, other's when both are and it is 1
            if len(bt) == 1 and (len(at) > 1 or bt.get(0) == 1):
                at, bt, other = bt, at, self
            (ma, ca), = at.items()
            if ca == 1 and not ma:
                for c in bt.values():
                    if c.__class__ is not int:
                        break
                else:
                    return other
            out = {}
            for m, c in bt.items():
                c *= ca
                out[m + ma] = c if c.__class__ is int else _q(c)
            return Poly(out, eb)
        out: Dict[Monomial, Coeff] = {}
        for ma, ca in at.items():
            for mb, cb in bt.items():
                m = ma + mb
                nc = out.get(m, 0) + ca * cb
                if nc:
                    out[m] = _q(nc)
                else:
                    out.pop(m, None)
        return Poly(out, eb)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power of a Poly")
        out = _P_ONE
        base = self
        while k:
            if k & 1:
                out = base if out is _P_ONE else out * base
            k >>= 1
            if k:
                base = base * base
        return out

    # -- per-variable structure (each decodes only the field of v)

    def _shift_of(self, v: Var) -> Optional[int]:
        """Bit offset of v's field, or None when v does not occur."""
        k = mono.FIELD.get(v)
        return None if k is None or k not in self._fields() else FW * k

    def degree(self, v: Var) -> int:
        """Largest exponent of v (0 when absent; min 0 even for Laurent)."""
        s = self._shift_of(v)
        if s is None:
            return 0
        bias = mono.BIAS
        return max(0, max(((m + bias) >> s & MASK) for m in self.terms) - HALF)

    def min_exp(self, v: Var) -> int:
        """True minimum exponent of v over all terms (0 for the zero poly)."""
        s = self._shift_of(v)
        if s is None:
            return 0
        bias = mono.BIAS
        return min(((m + bias) >> s & MASK) for m in self.terms) - HALF

    def decompose(self, v: Var) -> Dict[int, "Poly"]:
        """Write self = sum_k coeff_k * v^k; coefficients omit v."""
        s = self._shift_of(v)
        if s is None:
            return {0: self} if self.terms else {}
        bias = mono.BIAS
        out: Dict[int, Dict[Monomial, Coeff]] = {}
        for m, c in self.terms.items():
            e = ((m + bias) >> s & MASK) - HALF
            out.setdefault(e, {})[m - (e << s)] = c
        return {k: Poly(t, self._eb) for k, t in out.items()}

    def coeff_of(self, v: Var, k: int) -> "Poly":
        return self.decompose(v).get(k, _P_ZERO)

    def ordered_terms(self) -> List[Tuple[Tuple[Tuple[Var, int], ...], Coeff]]:
        """Terms in descending canonical order, each monomial decoded to
        ((var, exp), ...) in var_precedence order."""
        ks = self._fields()
        bias = mono.BIAS
        shifts = [(VARS[k], FW * k) for k in ks]
        out = []
        for m in sorted(self.terms, key=grlex(ks), reverse=True):
            y = m + bias
            items = []
            for v, s in shifts:
                e = ((y >> s) & MASK) - HALF
                if e:
                    items.append((v, e))
            out.append((tuple(items), self.terms[m]))
        return out

    # -- substitutions

    def shift_var(self, v: Var, c: Coeff) -> "Poly":
        """v -> v + c (the one-move case of shift_vars)."""
        return self.shift_vars(((v, c),))

    def shift_vars(self, moves: Iterable[Tuple[Var, Coeff]]) -> "Poly":
        """v -> v + c over the (v, c) moves (v non-Laurent, a repeated v adds
        its shifts), in one pass: each v^k of a term is expanded binomially."""
        shifts: Dict[int, Coeff] = {}  # bit offset of v -> c
        for v, c in moves:
            s = self._shift_of(v)
            if s is not None:
                shifts[s] = _q(shifts.get(s, 0) + c)
        # per move, k -> the pairs (offset of v^(k-j), C(k, j) c^(k-j)) of v^k
        steps = [(s, c, {}) for s, c in shifts.items() if c]
        if not steps:
            return self
        bias = mono.BIAS
        out: Dict[Monomial, Coeff] = {}
        for m, coeff in self.terms.items():
            y = m + bias
            pairs = None  # the expansion of the term's moved variables
            for s, c, rows in steps:
                k = (y >> s & MASK) - HALF
                if not k:
                    continue
                row = rows.get(k)
                if row is None:
                    if k < 0:
                        raise ValueError("additive shift of a Laurent exponent")
                    row = rows[k] = [(i << s, comb(k, i) * c ** i) for i in range(k + 1)]
                pairs = row if pairs is None else [
                    (d + e, f * g) for d, f in pairs for e, g in row]
            for d, f in pairs or ((0, 1),):
                nm = m - d
                nc = out.get(nm, 0) + coeff * f
                if nc:
                    out[nm] = _q(nc)
                else:
                    out.pop(nm, None)
        return Poly(out, self._eb)

    def scale_var(self, v: Var, unit: Iterable[Tuple[Var, int]]) -> "Poly":
        """v -> unit * v (the one-move case of scale_vars)."""
        return self.scale_vars(((v, unit),))

    def scale_vars(self, moves: Iterable[Tuple[Var, Iterable[Tuple[Var, int]]]]) -> "Poly":
        """v -> unit * v over the (v, unit) moves in one pass, the v
        distinct and each unit ((var, exp), ...) a Laurent monomial in unit
        variables other than every moved v.  It only renames monomials, so
        no two terms collide and the coefficients are copied; self when no
        v occurs."""
        steps = []  # (bit offset of v, packed unit)
        ub = 0  # bound on the exponents the units add, per unit of |exponent|
        for v, unit in moves:
            s = self._shift_of(v)
            if s is not None:
                unit = tuple(unit)
                steps.append((s, pack_mono(unit)))
                ub += max((abs(e) for _, e in unit), default=0)
        if not steps:
            return self
        eb = _bounded(lambda b: b * (1 + ub), self)
        bias = mono.BIAS
        out: Dict[Monomial, Coeff] = {}
        for m, c in self.terms.items():
            y = m + bias
            nm = m
            for s, um in steps:
                e = (y >> s & MASK) - HALF
                if e:
                    nm += e * um
            out[nm] = c
        return Poly(out, eb)

    def set_value(self, v: Var, value: Coeff) -> "Poly":
        value = _q(value)
        out = _P_ZERO
        for k, coeff in self.decompose(v).items():
            if k >= 0:
                out = out + coeff * (value ** k)
            else:
                if not value:
                    raise ZeroDivisionError("substituting 0 into a Laurent exponent")
                out = out + coeff * _qdiv(1, value ** (-k))
        return out

    def rename_var(self, old: Var, new: Var) -> "Poly":
        s = self._shift_of(old)
        if old == new or s is None:
            return self
        eb = _bounded(lambda b: 2 * b, self)
        sn = FW * field_of(new)
        bias = mono.BIAS
        out: Dict[Monomial, Coeff] = {}
        for m, c in self.terms.items():
            e = ((m + bias) >> s & MASK) - HALF
            nm = m - (e << s) + (e << sn)
            nc = out.get(nm, 0) + c
            if nc:
                out[nm] = _q(nc)
            else:
                out.pop(nm, None)
        return Poly(out, eb)

    def swap_vars(self, a: Var, b: Var) -> "Poly":
        """Exchange a and b.  It permutes the monomials, so no two terms
        collide and the exponent bound is kept; self when neither occurs."""
        if self._shift_of(a) is None and self._shift_of(b) is None:
            return self
        sa, sb = FW * field_of(a), FW * field_of(b)
        bias = mono.BIAS
        out: Dict[Monomial, Coeff] = {}
        for m, c in self.terms.items():
            y = m + bias
            d = (y >> sb & MASK) - (y >> sa & MASK)  # e_b - e_a
            out[m + (d << sa) - (d << sb)] = c
        return Poly(out, self._eb)

    def __repr__(self):
        from .textio import render_poly

        return f"Poly({render_poly(self)})"


_P_ZERO = Poly({}, 0)
_P_ONE = Poly({0: Q1}, 0)


def mul_add(out: Dict[Monomial, Coeff], a: Poly, b: Poly) -> int:
    """Add the terms of a * b into out, monomial -> coefficient sum, and
    return the exponent bound of a * b.  The sums are left as they come:
    neither made canonical (_q) nor dropped at 0.  The bound is checked
    first, as in Poly.__mul__, so a field that would overflow raises
    OverflowError.  Put the operand with fewer terms first."""
    eb = a._eb + b._eb
    if eb >= HALF:
        eb = _bounded(int.__add__, a, b)
    get = out.get
    bt = b.terms.items()
    for ma, ca in a.terms.items():
        for mb, cb in bt:
            m = ma + mb
            out[m] = get(m, 0) + ca * cb
    return eb


def _as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly.const(x)
    raise TypeError(f"cannot coerce {type(x)!r} to Poly")


def _content(p: Poly) -> Dict[int, int]:
    """Field -> minimum exponent, for each variable of p where it is
    nonzero, read in one pass over the terms."""
    ks = p._fields()
    shifts = [(k, FW * k) for k in ks]
    bias = mono.BIAS
    lows = dict.fromkeys(ks, MASK)
    for m in p.terms:
        y = m + bias
        for k, s in shifts:
            d = (y >> s) & MASK
            if d < lows[k]:
                lows[k] = d
    return {k: lo - HALF for k, lo in lows.items() if lo != HALF}


# ---------------------------------------------------------------------------
# exact division by an atom (see ratfun): the quotient or None


def synthetic_div(f: Poly, g: Poly, parts) -> Optional[Poly]:
    """f / g for a prime atom g = A*u + B given as parts = (bit offset s
    of u, A's monomial am, A's coefficient ac, B's terms), A = ac * am a
    unit and B free of u (ratfun.Atom.parts, from rejection.prime_parts).

    With f = sum_k f_k u^k (f_k free of u, k <= K, split in one decode of
    u's field), q_(K-1) = f_K / A and q_(k-1) = (f_k - B*q_k) / A, each a
    shift by am and one coefficient quotient; g divides f when
    f_0 - B*q_0 is 0.  A negative power of a non-unit variable in f is
    refused.

    The q_k of a non-divisor may grow by 2 * bound(g) per step.  Where
    that could overflow a field, the bound of a divisor decides: if g
    divides f, no exponent of q exceeds bound(f) + bound(g) in size (the
    Newton polytope of f is the sum of q's and g's), so a q_k term past it
    proves that g does not divide f.  Only a B*q_k that cannot fit a
    field raises OverflowError."""
    if not f.terms:
        return _P_ZERO
    s, am, ac, b = parts
    top = mono.FREE_TOP  # before BIAS (see monomials)
    bias = mono.BIAS
    rows: Dict[int, Dict[Monomial, Coeff]] = {}
    for m, c in f.terms.items():
        y = m + bias
        if y & top != top:
            return None
        e = (y >> s & MASK) - HALF
        row = rows.get(e)
        if row is None:
            rows[e] = {m - (e << s): c}
        else:
            row[m - (e << s)] = c
    top_k = max(rows)
    shifts = ()  # the fields a q_k term is checked in, where it might overflow
    if f._eb + (2 * top_k + 1) * g._eb >= HALF:
        _bounded(lambda bf, bg: bf + 2 * bg, f, g)
        lim = f._eb + g._eb
        shifts = [FW * k for k in set(f._fields()) | set(g._fields())]
        ya = am + bias
    q: Dict[Monomial, Coeff] = {}
    cur: list = []  # the terms of q_k
    for k in range(top_k, -1, -1):
        r = rows.get(k, {})
        for mb, cb in b:
            for mq, cq in cur:
                key = mb + mq
                nc = r.get(key, 0) - cb * cq
                if nc:
                    r[key] = nc
                else:
                    r.pop(key, None)
        if not k:
            return None if r else Poly(q, f._eb)
        up = (k - 1) << s
        cur = []
        for m, c in r.items():
            if shifts:
                y = m + bias
                if any(abs((y >> t & MASK) - (ya >> t & MASK)) > lim for t in shifts):
                    return None
            m -= am
            c = _q(c) if ac == 1 else _qdiv(c, ac)
            cur.append((m, c))
            q[m + up] = c


def binomial_div(f: Poly, g: Poly) -> Optional[Poly]:
    """f / g for a two-term atom g = c1*m1 + c2*m2.

    Let d = m1 - m2, oriented so that it is positive in its field u of
    largest size.  The terms of f fall into chains base + j*d, j the floor
    of e_u / d_u (one decode of u's field per term), and g divides f when
    c1*t + c2 divides each chain sum_j p_j t^j, which synthetic division
    from the top decides: q_(j-1) = (p_j - c2*q_j) / c1, the last
    remainder 0.  q_(j-1) sits at base + j*d - m1, where a negative
    exponent of a non-unit variable means that g does not divide f.

    Quotient terms lie in the span of their chain, so within bound(f) +
    bound(g).  The packed keys of two chains differ by less than 2 * HALF
    in every field when 2*bound(f) + bound(g) fits a field (bound(f) +
    bound(g) when d has one field), so no two chains share a key; that is
    the one overflow check."""
    if not f.terms:
        return _P_ZERO
    (m1, c1), (m2, c2) = g.terms.items()
    top = mono.FREE_TOP  # before BIAS (see monomials)
    bias = mono.BIAS
    ds = [(((m1 + bias) >> FW * k & MASK) - ((m2 + bias) >> FW * k & MASK), k)
          for k in g._fields()]
    ds = [dk for dk in ds if dk[0]]
    du, k = max(ds, key=lambda dk: abs(dk[0]))
    if du < 0:
        du, m1, c1, m2, c2 = -du, m2, c2, m1, c1
    _bounded(lambda bf, bg: min(len(ds), 2) * bf + bg, f, g)
    d = m1 - m2
    s = FW * k
    chains: Dict[Monomial, Dict[int, Coeff]] = {}
    for m, c in f.terms.items():
        j = (((m + bias) >> s & MASK) - HALF) // du
        chain = chains.get(base := m - j * d)
        if chain is None:
            chains[base] = {j: c}
        else:
            chain[j] = c
    q: Dict[Monomial, Coeff] = {}
    for base, chain in chains.items():
        lo = min(chain)
        cq = 0  # q_j
        for j in range(max(chain), lo, -1):
            r = chain.get(j, 0) - c2 * cq
            cq = _q(r) if c1 == 1 else _qdiv(r, c1)
            if cq:
                m = base + j * d - m1
                if (m + bias) & top != top:
                    return None
                q[m] = cq
        if chain[lo] != c2 * cq:
            return None
    return Poly(q, f._eb)
