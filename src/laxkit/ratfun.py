"""Exact multivariate rational functions with factored denominators.

A value is a pair (numerator polynomial, multiset of denominator atoms).
Numerators are sparse polynomials over exact rationals; denominators are
never expanded.  Every denominator produced by the Lax-matrix formulas is a
product of *atoms*:

  * rational mode: linear forms  c0 + sum c_v * v  over z, w, p[i,r], x[s];
  * trig mode: two-term combinations  A*M1 - B*M2  of Laurent monomials in
    z, w, x[s], v and the half generators wh[i,r] (wh^2 = w[i,r]).

The shift action permutes atoms, so cancellation is a per-atom exact
divisibility test and equality of rational functions reduces to a
polynomial identity.

Variables are identified by tuples:

    ('z',)              spectral parameter
    ('w',)              second spectral parameter
    ('p', t, i, r)      rational slot variable, tensor factor t
    ('wh', t, i, r)     square root of the trig slot variable, factor t
    ('v',)              quantum parameter (Laurent)
    ('x', label)        free scalar parameter (point of the divisor, ...)
    ('eps',)            degeneration parameter (reserved for series)

Exponents of 'v' and 'wh' variables may be negative (they are units);
all other exponents are non-negative.

Monomials are packed ints over one process-wide variable index (see
monomials.py): a product is an int sum, and every Poly shares one
layout, so no operand is ever repacked.  The canonical term order is
graded lexicographic in var_precedence rank, read from decoded fields
(monomials.grlex), never from int comparison; it fixes leading terms,
the division heap, rendering and Atom keys, which hold decoded
monomials, so results are the same in every process.  Every product
checks a per-Poly bound on |exponent| first, so a field that would
overflow raises OverflowError instead of wrapping.  Exact division
(poly_div_exact) pops the leading remainder term from a heap ordered by
that key, so each step costs O(log n).

Coefficients are exact rationals stored as plain ints whenever they are
integral and as reduced Fractions only otherwise (_q enforces this, and
every coefficient quotient goes through _qdiv); nothing here is ever
floating point.  The formulas are products of linear forms with small
integer coefficients, so nearly all arithmetic stays on Python ints.
Since Fraction(2) == 2 and hash(Fraction(2)) == hash(2), the choice of
representation is invisible to equality, Atom keys and rendering.

RatFun._make cancels atoms by trial division.  Before each division by a
linear atom it runs an exact one-sided test modulo the prime 2^61 - 1
(rejection.cannot_divide): the numerator is evaluated at a zero of the
atom and a nonzero value proves that the atom does not divide it, so
the long division is skipped.  The test only ever rejects with that
certificate; every verdict and every reduced form is the one division
would give.

Values are immutable after construction and every operation is pure, so
they may be shared and sent across threads freely; callers can
parallelize over independent computations without locks.  (A Poly
caches its variable fields, an Atom its zero mod 2^61 - 1 and a
module-level memo the value of a monomial at the fixed residues, all on
first use; each is a function of its key alone, so concurrent fills
agree.)  To move a value to another process, send its rendered text.
"""

from __future__ import annotations

import heapq
import random
import zlib
from fractions import Fraction
from math import comb
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from . import monomials as mono
from .errors import DivergesAtInfinity, NotAtomFactorable
from .monomials import (
    FW,
    HALF,
    MASK,
    VARS,
    Monomial,
    Var,
    by_precedence,
    exact_bound,
    field_of,
    grlex,
    pack_mono,
    unpack_mono,
    unpacked,
)
from .rejection import LINEAR_ATOM_KINDS, cannot_divide

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

Z = ("z",)
W = ("w",)
V = ("v",)
EPS = ("eps",)

_UNIT_KINDS = frozenset({"v", "wh"})


def p_var(i: int, r: int, slot: int = 1) -> Var:
    return ("p", slot, i, r)


def wh_var(i: int, r: int, slot: int = 1) -> Var:
    return ("wh", slot, i, r)


def x_var(label) -> Var:
    return ("x", str(label))


def is_unit_var(v: Var) -> bool:
    return v[0] in _UNIT_KINDS


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

    def total_degree(self) -> int:
        return max((sum(e for _, e in unpacked(m)) for m in self.terms), default=0)

    # -- substitutions

    def shift_var(self, v: Var, c: Coeff) -> "Poly":
        """v -> v + c, term by term: c0 * v^k * rest becomes
        sum_j C(k, j) c^(k-j) c0 * v^j * rest (v must be non-Laurent)."""
        c = _q(c)
        s = self._shift_of(v)
        if not c or s is None:
            return self
        bias = mono.BIAS
        powers = [Q1]
        out: Dict[Monomial, Coeff] = {}
        for m, coeff in self.terms.items():
            k = ((m + bias) >> s & MASK) - HALF
            if k < 0:
                raise ValueError("additive shift of a Laurent exponent")
            while len(powers) <= k:
                powers.append(powers[-1] * c)
            base = m - (k << s)
            for j in range(k, -1, -1):
                nm = base + (j << s)
                nc = out.get(nm, 0) + coeff * comb(k, j) * powers[k - j]
                if nc:
                    out[nm] = _q(nc)
                else:
                    out.pop(nm, None)
        return Poly(out, self._eb)

    def scale_var(self, v: Var, unit: Iterable[Tuple[Var, int]], c=Q1) -> "Poly":
        """v -> c * unit * v  (unit ((var, exp), ...), a Laurent monomial
        in unit variables)."""
        c = _q(c)
        unit = tuple(unit)
        s = self._shift_of(v)
        if s is None:
            return self
        ub = max((abs(e) for _, e in unit), default=0)
        eb = _bounded(lambda b: b * (1 + ub), self)
        um = pack_mono(unit)
        bias = mono.BIAS
        out: Dict[Monomial, Coeff] = {}
        for m, coeff in self.terms.items():
            e = ((m + bias) >> s & MASK) - HALF
            nm = m + e * um if e else m
            nc = coeff * (c ** e if e >= 0 else _qdiv(1, c ** (-e)))
            nc = out.get(nm, 0) + nc
            if nc:
                out[nm] = _q(nc)
            else:
                out.pop(nm, None)
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

    def partial(self, v: Var) -> "Poly":
        s = self._shift_of(v)
        if s is None:
            return _P_ZERO
        eb = _bounded(lambda b: b + 1, self)
        bias = mono.BIAS
        one = 1 << s
        out: Dict[Monomial, Coeff] = {}
        for m, c in self.terms.items():
            e = ((m + bias) >> s & MASK) - HALF
            if e:
                out[m - one] = _q(c * e)  # distinct monomials stay distinct
        return Poly(out, eb)

    def evaluate(self, assignment: Dict[Var, Coeff]) -> Coeff:
        ks = self._fields()
        vals = [(FW * k, assignment[VARS[k]]) for k in ks]
        bias = mono.BIAS
        total = 0
        for m, c in self.terms.items():
            term = c
            if m:
                y = m + bias
                for s, val in vals:
                    e = ((y >> s) & MASK) - HALF
                    if e > 0:
                        term *= val ** e
                    elif e:
                        term = _qdiv(term, val ** (-e))
            total += term
        return _q(total)

    def __repr__(self):
        from .textio import render_poly

        return f"Poly({render_poly(self)})"


_P_ZERO = Poly({}, 0)
_P_ONE = Poly({0: Q1}, 0)


def _as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly.const(x)
    raise TypeError(f"cannot coerce {type(x)!r} to Poly")


def _content(p: Poly) -> Dict[int, int]:
    """Field -> minimum exponent, for each variable of p where it is
    nonzero."""
    lows = {k: p.min_exp(VARS[k]) for k in p._fields()}
    return {k: lo for k, lo in lows.items() if lo}


# ---------------------------------------------------------------------------
# exact division


def poly_div_exact(f: Poly, g: Poly) -> Optional[Poly]:
    """Return q with f = q*g, or None.  Handles Laurent exponents in unit
    variables by clearing them first (units do not affect divisibility)."""
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if f.is_zero():
        return _P_ZERO
    if _divides_directly(f, g):
        return _poly_div_nonneg(f, g)
    # normalize every variable of both operands to zero minimum exponent;
    # the quotient is corrected by the difference of the removed contents
    cf = _content(f)
    cg = _content(g)
    shift_f = -sum(lo << (FW * k) for k, lo in cf.items())
    shift_g = -sum(lo << (FW * k) for k, lo in cg.items())
    fp = f * Poly({shift_f: Q1}) if shift_f else f
    gp = g * Poly({shift_g: Q1}) if shift_g else g
    q = _poly_div_nonneg(fp, gp)
    if q is None:
        return None
    adjust = shift_g - shift_f
    if any(e < 0 and not is_unit_var(VARS[k]) for k, e in unpacked(adjust)):
        # quotient would need a genuine denominator
        return None
    return q * Poly({adjust: Q1}) if adjust else q


def _divides_directly(f: Poly, g: Poly) -> bool:
    """True when f / g needs no content normalization: neither operand
    has a negative exponent and no unit variable divides every term of g.
    Then a quotient exists only with non-negative exponents, which plain
    division finds.  (Unit content in g, as in f = 1, g = v, can ask for
    a Laurent quotient; that takes the normalizing path.)"""
    bias = mono.BIAS
    # a field of m is negative exactly when its biased digit lacks the top bit
    for m in f.terms:
        if (m + bias) & bias != bias:
            return False
    for m in g.terms:
        if (m + bias) & bias != bias:
            return False
    for k in g._fields():
        if VARS[k][0] in _UNIT_KINDS:
            s = FW * k
            if all((m + bias) >> s & MASK != HALF for m in g.terms):
                return False
    return True


def _poly_div_nonneg(f: Poly, g: Poly) -> Optional[Poly]:
    """Sparse division with a heap of remainder terms (Johnson 1974;
    Monagan & Pearce 2011): each step pops the leading remainder term in
    O(log n) instead of scanning the remainder.  Heap entries are
    (negated order key, monomial); an entry whose monomial has left the
    remainder is stale and skipped.  Exact quotients are unique, so the
    verdict and q do not depend on the term order used.

    Every remainder term has total degree at most D, the largest total
    degree in f (the leading term of g has the largest degree in g), and
    no negative field, so no field exceeds D <= len(ks) * bound(f)."""
    ks = by_precedence(set(f._fields()) | set(g._fields()))
    _bounded(lambda b: len(ks) * b, f)
    neg_key = grlex(ks, sign=-1)
    bias = mono.BIAS
    gm = min(g.terms, key=neg_key)
    gc = g.terms[gm]
    rem = dict(f.terms)
    heap = [(neg_key(m), m) for m in rem]
    heapq.heapify(heap)
    q: Dict[Monomial, Coeff] = {}
    while rem:
        fm = heapq.heappop(heap)[1]
        fc = rem.get(fm)
        if fc is None:
            continue
        t = fm - gm
        if (t + bias) & bias != bias:
            return None  # gm does not divide fm
        tc = _qdiv(fc, gc)
        q[t] = tc  # t strictly decreases, so each quotient term is new
        for m, c in g.terms.items():
            key = m + t
            old = rem.get(key)
            nc = _q(-c * tc if old is None else old - c * tc)
            if old is None:
                rem[key] = nc
                heapq.heappush(heap, (neg_key(key), key))
            elif nc:
                rem[key] = nc
            else:
                del rem[key]
    return Poly(q, f._eb)


# ---------------------------------------------------------------------------
# denominator atoms


class Atom:
    """Canonical irreducible denominator factor.

    Stored as a normalized Poly: content-free, non-negative z/w/x/p
    exponents, unit-variable exponents shifted to be >= 0 with a zero
    minimum, leading coefficient 1 under the term order.
    """

    __slots__ = ("poly", "key", "_hash", "_root")

    def __init__(self, poly: Poly, key):
        self.poly = poly
        self.key = key
        self._hash = hash(key)
        self._root = None  # _linear_root(poly), computed on first use

    def __eq__(self, other):
        return isinstance(other, Atom) and self.key == other.key

    def __hash__(self):
        return self._hash

    def degree(self, v: Var) -> int:
        return self.poly.degree(v)

    def __repr__(self):
        from .textio import render_poly

        return f"Atom({render_poly(self.poly)})"


def _atom_key(p: Poly):
    """Terms of p in ascending canonical order, monomials decoded to
    ((var, exp), ...) sorted by var: the same in every process."""
    return tuple((tuple(sorted(m)), c) for m, c in reversed(p.ordered_terms()))


_TRIG_ATOM_KINDS = frozenset({"z", "w", "wh", "x", "v"})


def _is_atom_shape(p: Poly) -> bool:
    """Linear form over z/w/p/x, or a two-term Laurent combo over
    z/w/wh/x/v (the two denominator shapes the formulas produce)."""
    if p.is_zero() or p.is_const():
        return False
    kinds = {VARS[k][0] for k in p._fields()}
    if len(p.terms) <= 2 and kinds <= _TRIG_ATOM_KINDS:
        return True
    return kinds <= LINEAR_ATOM_KINDS and all(
        sum(e for _, e in unpacked(m)) <= 1 for m in p.terms
    )


def normalize_factor(p: Poly) -> Tuple[Poly, Dict[Atom, int]]:
    """Split p into unit * product of atoms.

    Returns (unit, atoms) with p = unit * prod atom^mult and unit a
    scalar times a Laurent monomial in unit variables.  Raises
    NotAtomFactorable when the primitive part is not atom shaped.
    """
    if p.is_zero():
        raise ZeroDivisionError("zero cannot be a denominator factor")
    unit, atoms, residual = _peel_content(p)
    if residual.is_const():
        return unit * residual, atoms
    if not _is_atom_shape(residual):
        raise NotAtomFactorable(f"not an atom: {residual!r}")
    atom, cofactor = _canonical_atom(residual)
    atoms[atom] = atoms.get(atom, 0) + 1
    return unit * cofactor, atoms


def _peel_content(p: Poly) -> Tuple[Poly, Dict[Atom, int], Poly]:
    """Extract monomial content: unit factors to `unit`, non-unit single
    variables to monomial atoms, returning (unit, atoms, primitive)."""
    atoms: Dict[Atom, int] = {}
    unit_mono = content = 0
    for k, lo in _content(p).items():
        v = VARS[k]
        if is_unit_var(v):
            unit_mono += lo << (FW * k)
        elif lo > 0:
            a = _monomial_atom(v)
            atoms[a] = atoms.get(a, 0) + lo
        else:
            continue
        content += lo << (FW * k)
    residual = p * Poly({-content: Q1}) if content else p
    return Poly({unit_mono: Q1}), atoms, residual


def _monomial_atom(v: Var) -> Atom:
    p = Poly.variable(v)
    return Atom(p, _atom_key(p))


def _canonical_atom(p: Poly) -> Tuple[Atom, Poly]:
    """Scale a content-free atom candidate to leading coefficient 1.

    Returns (atom, cofactor) with p = cofactor * atom.poly, the cofactor a
    scalar polynomial."""
    key = _atom_key(p)
    lc = key[-1][1]  # of the leading term
    if lc != 1:
        inv = _qdiv(1, lc)
        p = p * inv
        key = tuple((m, _q(c * inv)) for m, c in key)
    return Atom(p, key), Poly.const(lc)


# ---------------------------------------------------------------------------


class RatFun:
    """Reduced rational function: Poly numerator over a multiset of atoms."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Dict[Atom, int]):
        self.num = num
        self.den = den

    # -- constructors

    @staticmethod
    def _make(num: Poly, den: Dict[Atom, int]) -> "RatFun":
        if num.is_zero():
            return RatFun(_P_ZERO, {})
        den = {a: m for a, m in den.items() if m}
        if any(m < 0 for m in den.values()):
            raise ValueError("negative atom multiplicity")
        changed = True
        while changed and den:
            changed = False
            for a in list(den):
                while den.get(a, 0) > 0:
                    if cannot_divide(num, a):
                        break
                    q = poly_div_exact(num, a.poly)
                    if q is None:
                        break
                    num = q
                    den[a] -= 1
                    if not den[a]:
                        del den[a]
                    changed = True
        return RatFun(num, den)

    @staticmethod
    def from_poly(p) -> "RatFun":
        return RatFun(_as_poly(p), {})

    @staticmethod
    def const(c) -> "RatFun":
        return RatFun(Poly.const(c), {})

    @staticmethod
    def variable(v: Var, exp: int = 1) -> "RatFun":
        if exp >= 0 or is_unit_var(v):
            return RatFun(Poly.variable(v, exp), {})
        return RatFun(_P_ONE, {_monomial_atom(v): -exp})

    @staticmethod
    def ratio(num, den) -> "RatFun":
        """num / den with den factored into atoms (raises if impossible)."""
        num = _as_poly(num)
        den = _as_poly(den)
        unit, atoms = factor_atoms(den)
        return RatFun._make(num * _invert_unit(unit), atoms)

    zero = staticmethod(lambda: _R_ZERO)
    one = staticmethod(lambda: _R_ONE)

    # -- predicates

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_const(self) -> bool:
        return not self.den and self.num.is_const()

    def const_value(self) -> Fraction:
        if self.den:
            raise ValueError("not a constant")
        return self.num.const_value()

    def __bool__(self):
        return not self.is_zero()

    # -- arithmetic

    def __add__(self, other) -> "RatFun":
        other = as_ratfun(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        common, (na, nb) = _lift([(self.num, self.den), (other.num, other.den)])
        return RatFun._make(na + nb, common)

    __radd__ = __add__

    def __neg__(self) -> "RatFun":
        return RatFun(-self.num, self.den)

    def __sub__(self, other) -> "RatFun":
        return self + (-as_ratfun(other))

    def __rsub__(self, other):
        return as_ratfun(other) - self

    def __mul__(self, other) -> "RatFun":
        if isinstance(other, (int, Fraction)):
            c = _q(other)
            if not c:
                return _R_ZERO
            return RatFun(self.num * c, self.den)
        other = as_ratfun(other)
        if self.is_zero() or other.is_zero():
            return _R_ZERO
        return RatFun._make(self.num * other.num, den_product(self.den, other.den))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "RatFun":
        if k < 0:
            return self.invert() ** (-k)
        out = _R_ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __truediv__(self, other) -> "RatFun":
        return self * as_ratfun(other).invert()

    def __rtruediv__(self, other):
        return as_ratfun(other) / self

    def equals(self, other) -> bool:
        """Mathematical equality via exact cross multiplication."""
        other = as_ratfun(other)
        return sum_is_zero([(self.num, self.den), (-other.num, other.den)])

    __eq__ = equals

    def __hash__(self):
        raise TypeError("RatFun is not hashable")

    # -- inversion

    def invert(self) -> "RatFun":
        """Reciprocal; numerator must factor into atoms (see factor_atoms)."""
        if self.is_zero():
            raise ZeroDivisionError("inverting zero")
        unit, atoms = factor_atoms(self.num)
        num = _invert_unit(unit)
        for a, m in self.den.items():
            num = num * a.poly ** m
        return RatFun._make(num, atoms)

    # -- substitutions (atoms are remapped and renormalized)

    def _map(self, poly_fn) -> "RatFun":
        return RatFun._make(*substitute(self.num, self.den, poly_fn))

    def shift_var(self, v: Var, c) -> "RatFun":
        return self._map(lambda p: p.shift_var(v, c))

    def scale_var(self, v: Var, unit: Iterable[Tuple[Var, int]], c=Q1) -> "RatFun":
        return self._map(lambda p: p.scale_var(v, unit, c))

    def set_value(self, v: Var, value) -> "RatFun":
        return self._map(lambda p: p.set_value(v, value))

    def rename_var(self, old: Var, new: Var) -> "RatFun":
        return self._map(lambda p: p.rename_var(old, new))

    def shift_slot(self, mode: str, slot: int, i: int, r: int, m: int) -> "RatFun":
        """The m-fold shift automorphism on a slot (see slot_map)."""
        return self._map(slot_map(mode, slot, i, r, m)) if m else self

    # -- structure in one variable

    def limit_leading(self, v: Var) -> "RatFun":
        """Limit as v -> infinity.  Degrees equal: ratio of leading
        coefficients; numerator smaller: 0; larger: DivergesAtInfinity."""
        if self.is_zero():
            return _R_ZERO
        dn = self.num.degree(v)
        dd = sum(a.degree(v) * m for a, m in self.den.items())
        if dn < dd:
            return _R_ZERO
        if dn > dd:
            raise DivergesAtInfinity(f"degree {dn} > {dd} in {v}")
        lead = RatFun.from_poly(self.num.coeff_of(v, dn))
        for a, m in self.den.items():
            d = a.degree(v)
            if d:
                lead = lead * RatFun.from_poly(a.poly.coeff_of(v, d)).invert() ** m
            else:
                lead = lead * RatFun(_P_ONE, {a: m})
        return lead

    def poly_coeffs(self, v: Var) -> Dict[int, "RatFun"]:
        """Decompose by powers of v; requires a v-free denominator."""
        if any(a.degree(v) or a.poly.min_exp(v) for a in self.den):
            raise ValueError(f"denominator involves {v}")
        return {
            k: RatFun._make(c, dict(self.den))
            for k, c in self.num.decompose(v).items()
        }

    # -- series

    def series(self, direction: str, order: int) -> "TruncSeries":
        """Expand in t = 1/z ('z_inf') or t = z ('z_zero') with RatFun
        coefficients, exact through t^(val + order - 1)."""
        from .series import TruncSeries

        if direction not in ("z_inf", "z_zero"):
            raise ValueError(direction)
        at_inf = direction == "z_inf"
        if self.is_zero():
            return TruncSeries({}, None, _R_ZERO)

        def poly_series(p: Poly) -> TruncSeries:
            coeffs = {}
            for k, c in p.decompose(Z).items():
                t = -k if at_inf else k
                coeffs[t] = RatFun.from_poly(c)
            return TruncSeries(coeffs, None, _R_ZERO)

        num_s = poly_series(self.num)
        factors = []
        val_total = num_s.val() if num_s.coeffs else 0
        for a, m in self.den.items():
            s = poly_series(a.poly)
            factors.append((s, m))
            val_total -= s.val() * m
        hi = val_total + order - 1
        out = num_s
        for s, m in factors:
            inv = s.inverse(hi + abs(s.val()) * m + order, RatFun.invert)
            for _ in range(m):
                out = out * inv
        return out.truncate(hi)

    def eps_series(self, order: int) -> "TruncSeries":
        """Exponential degeneration: substitute every trig variable u by
        exp(eps * l(u)) with l the default linear map (z -> z, x -> x,
        v -> 1/2, wh[t,i,r] -> (p[t,i,r] - i/2)/2, w -> w) and expand as a
        Laurent series in eps with rational-mode RatFun coefficients,
        exact through eps^order."""
        from .series import TruncSeries

        if self.is_zero():
            return TruncSeries({}, None, _R_ZERO)
        # an atom whose coefficients sum to 0 vanishes at eps = 0; each
        # such factor, of valuation 1, lowers the product's window by one,
        # so every window is padded by their multiplicity (a polynomial
        # pays nothing) and reaches eps^0 at least, whatever the order.
        # A higher valuation leaves the tracked window short of `order`,
        # and coeff() then raises rather than answer wrongly.
        val1 = {a: not sum(a.poly.terms.values()) for a in self.den}
        hi = max(order + sum(m for a, m in self.den.items() if val1[a]), 0)
        out = _eps_poly_series(self.num, hi)
        for a, m in self.den.items():
            s = _eps_poly_series(a.poly, hi + 2 * val1[a])
            inv = s.inverse(hi, RatFun.invert)
            for _ in range(m):
                out = out * inv
        return out.truncate(order)

    def __repr__(self):
        from .textio import render_ratfun

        return f"RatFun({render_ratfun(self)})"


_R_ZERO = RatFun(_P_ZERO, {})
_R_ONE = RatFun(_P_ONE, {})


# ---------------------------------------------------------------------------
# unreduced fractions (num: Poly, den: {Atom: mult}), nothing cancelled


def den_product(a: Dict[Atom, int], b: Dict[Atom, int]) -> Dict[Atom, int]:
    """The atom multiset of a product: multiplicities add."""
    out = dict(a)
    for atom, m in b.items():
        out[atom] = out.get(atom, 0) + m
    return out


def substitute(num: Poly, den: Dict[Atom, int], poly_fn) -> tuple:
    """Ring map poly_fn applied to num / den, as (num, den) with nothing
    cancelled: changed atoms are re-canonicalized (normalize_factor), their
    units moved to num."""
    num = poly_fn(num)
    out: Dict[Atom, int] = {}
    for a, m in den.items():
        p = poly_fn(a.poly)
        if p is a.poly:  # poly_fn left this atom alone
            out[a] = out.get(a, 0) + m
            continue
        unit, atoms = normalize_factor(p)
        num = num * _invert_unit(unit) ** m
        for na, nm in atoms.items():
            out[na] = out.get(na, 0) + nm * m
    return num, out


def slot_map(mode: str, slot: int, i: int, r: int, m: int):
    """The Poly map of the m-fold shift on slot (i, r) of tensor factor
    `slot`: rational p -> p + m; trig wh -> v^m wh (so w -> v^{2m} w)."""
    if mode == "rational":
        return lambda p: p.shift_var(p_var(i, r, slot), m)
    return lambda p: p.scale_var(wh_var(i, r, slot), ((V, m),))


def _lift(fracs: list) -> Tuple[Dict[Atom, int], Iterator[Poly]]:
    """Common atom multiset (largest multiplicities), numerators lifted to it."""
    common: Dict[Atom, int] = {}
    for _, den in fracs:
        for a, m in den.items():
            if common.get(a, 0) < m:
                common[a] = m
    # one lifted numerator at a time: sum_is_zero never holds them all
    def lifted():
        for num, den in fracs:
            for a, m in common.items():
                extra = m - den.get(a, 0)
                if extra:
                    num = num * a.poly ** extra
            yield num
    return common, lifted()


def sum_is_zero(fracs: list) -> bool:
    """Exact test of sum num / den == 0 over fracs, (num, den) pairs with den
    an atom multiset.  The common denominator is nonzero, so the lifted
    numerators must sum to 0.  No _make, division or sampling."""
    total: Dict[Monomial, Coeff] = {}
    for num in _lift(fracs)[1]:
        for mo, c in num.terms.items():
            nc = total.get(mo, 0) + c
            if nc:
                total[mo] = nc
            else:
                del total[mo]
    return not total


def as_ratfun(x) -> RatFun:
    if isinstance(x, RatFun):
        return x
    if isinstance(x, Poly):
        return RatFun.from_poly(x)
    if isinstance(x, (int, Fraction)):
        return RatFun.const(x)
    raise TypeError(f"cannot coerce {type(x)!r} to RatFun")


def _invert_unit(unit: Poly) -> Poly:
    """Invert scalar * Laurent monomial in unit variables."""
    if len(unit.terms) != 1:
        raise ValueError("not a unit")
    (m, c), = unit.terms.items()
    if any(not is_unit_var(VARS[k]) for k, _ in unpacked(m)):
        raise ValueError("not a unit monomial")
    return Poly({-m: _qdiv(1, c)}, unit._eb)


def series_expand(f: RatFun, direction: str, order: int) -> "TruncSeries":
    """Documented expansion surface: direction is 'z_inf' (powers of 1/z),
    'z_zero' (powers of z), or 'eps' (exponential degeneration)."""
    if direction == "eps":
        return f.eps_series(order)
    return f.series(direction, order)


# ---------------------------------------------------------------------------
# eps degeneration support


def default_eps_linear_map(v: Var) -> Poly:
    """Linear form l with  u -> exp(eps * l(u))  under degeneration."""
    kind = v[0]
    if kind == "z":
        return Poly.variable(Z)
    if kind == "w":
        return Poly.variable(W)
    if kind == "x":
        return Poly.variable(v)
    if kind == "v":
        return Poly.const(Fraction(1, 2))
    if kind == "wh":
        _, slot, i, r = v
        return (Poly.variable(p_var(i, r, slot)) - Poly.const(Fraction(i, 2))) * Fraction(1, 2)
    raise ValueError(f"variable {v} has no degeneration rule")


def _eps_poly_series(p: Poly, hi: int) -> "TruncSeries":
    """p with every variable u -> exp(eps * l(u)), through eps^hi, with l
    the default linear map."""
    from .series import TruncSeries

    coeffs = [_P_ZERO] * (hi + 1)
    for m, c in p.terms.items():
        ell = _P_ZERO
        for v, e in unpack_mono(m):
            ell = ell + default_eps_linear_map(v) * e
        # c * exp(eps * ell) = sum_k c * ell^k / k! * eps^k
        term = Poly.const(c)
        for k in range(hi + 1):
            if k:
                term = term * ell * _qdiv(1, k)
            coeffs[k] = coeffs[k] + term
    return TruncSeries(dict(enumerate(map(RatFun.from_poly, coeffs))), hi, _R_ZERO)


# ---------------------------------------------------------------------------
# numerator factorization (for invert)

_FACTOR_RNG_SEED = 0x5EED


def factor_atoms(p: Poly) -> Tuple[Poly, Dict[Atom, int]]:
    """Write p = unit * prod atoms^mult or raise NotAtomFactorable.

    Complete for rational-mode numerators that are products of linear
    forms (rational root extraction plus gradient reconstruction); for
    trig numerators it covers monomials, single atoms and products
    separable by leading-coefficient peeling.
    """
    if p.is_zero():
        raise ZeroDivisionError("factoring zero")
    unit, atoms, residual = _peel_content(p)
    if residual.is_const():
        return unit * residual, atoms
    _factor_residual(residual, unit_box := [unit], atoms)
    return unit_box[0], atoms


def _factor_seed(p: Poly) -> int:
    """Stable RNG seed for factoring p: a CRC of its canonical key, with
    every coefficient written as a Fraction (the text the seed has always
    been taken from), so sample points do not depend on how a
    coefficient is stored or on the hash seed."""
    key = tuple((m, Fraction(c)) for m, c in _atom_key(p))
    return zlib.crc32(repr(key).encode())


def _factor_residual(p: Poly, unit_box: List[Poly], atoms: Dict[Atom, int]) -> None:
    if p.is_const():
        unit_box[0] = unit_box[0] * p
        return
    unit, catoms, p = _peel_content(p)
    unit_box[0] = unit_box[0] * unit
    for a, m in catoms.items():
        atoms[a] = atoms.get(a, 0) + m
    if p.is_const():
        unit_box[0] = unit_box[0] * p
        return
    if _is_atom_shape(p):
        atom, cofactor = _canonical_atom(p)
        atoms[atom] = atoms.get(atom, 0) + 1
        unit_box[0] = unit_box[0] * cofactor
        return
    variables = sorted(p.variables())
    v = variables[-1]
    d = p.degree(v)
    if d == 0:
        # Laurent-only variable or degenerate; cannot continue generically
        raise NotAtomFactorable(f"cannot factor {p!r}")
    lead = p.coeff_of(v, d)
    if not lead.is_const():
        q = poly_div_exact(p, lead)
        if q is None:
            raise NotAtomFactorable(f"cannot factor {p!r}")
        _factor_residual(lead, unit_box, atoms)
        _factor_residual(q, unit_box, atoms)
        return
    # all factors involve v, with scalar v-leading coefficients
    rest = [u for u in variables if u != v]
    rng = random.Random(_FACTOR_RNG_SEED ^ _factor_seed(p))
    truncated = False  # some root list came from a partial divisor list
    for _attempt in range(8):
        point = {u: rng.randint(2, 97) for u in rest}
        uni = {k: c.evaluate(point) for k, c in p.decompose(v).items()}
        roots, complete = _rational_roots(uni)
        if roots is None:
            continue
        truncated = truncated or not complete
        dv = p.partial(v)
        for rho in roots:
            point_v = dict(point)
            point_v[v] = rho
            dvv = dv.evaluate(point_v)
            if not dvv:
                continue  # multiple root; another attempt or derivative path
            cand = Poly.variable(v) - Poly.const(rho)
            for u in rest:
                cu = _qdiv(p.partial(u).evaluate(point_v), dvv)
                if cu:
                    cand = cand + Poly.variable(u) * cu - Poly.const(cu * point[u])
            q = poly_div_exact(p, cand)
            if q is not None:
                atom, cofactor = _canonical_atom(cand)
                atoms[atom] = atoms.get(atom, 0) + 1
                unit_box[0] = unit_box[0] * cofactor
                _factor_residual(q, unit_box, atoms)
                return
        if not roots or not rest:
            break  # with no other variable, another point finds the same roots
    # repeated-factor fallback: factors of dp/dv (made monic, so constants
    # do not grow) divide p when all roots were multiple; each is divided
    # out to its full multiplicity before recursing
    dv = p.partial(v) * _qdiv(1, d * lead.const_value())
    if not dv.is_zero() and dv.total_degree() >= 1:
        try:
            _, datoms = factor_atoms(dv)
        except NotAtomFactorable:
            datoms = {}
        before = p
        for a in datoms:
            while (q := poly_div_exact(p, a.poly)) is not None:
                p, atoms[a] = q, atoms.get(a, 0) + 1
        if p is not before:
            _factor_residual(p, unit_box, atoms)
            return
    if truncated:
        raise NotAtomFactorable(
            f"cannot factor {p!r}: a coefficient is past the factoring"
            f" bound {DIVISOR_BOUND}, so rational roots may be missed"
        )
    raise NotAtomFactorable(f"cannot factor {p!r}")


def _rational_roots(
    uni: Dict[int, Coeff],
) -> Tuple[Optional[List[Coeff]], bool]:
    """(roots, complete): the rational roots (with repetition collapsed)
    of sum c_k v^k, None for the zero polynomial.  complete is False when
    a coefficient is past DIVISOR_BOUND, so that roots may be missing.

    A candidate a/b is tested by Horner's rule on the integer form
    sum c_k a^k b^(deg-k).  Candidates with b = 1 are ints; they hash like
    the equal Fractions, so the candidate set, and with it the order of
    the roots, is the one a set of Fractions gives."""
    if not uni:
        return None, True
    lo = min(uni)
    if lo:
        uni = {k - lo: c for k, c in uni.items()}
    deg = max(uni)
    if deg == 0:
        return [], True
    denom_lcm = 1
    for c in uni.values():
        denom_lcm = denom_lcm * c.denominator // _gcd(denom_lcm, c.denominator)
    ints = {k: int(c * denom_lcm) for k, c in uni.items()}
    a0 = ints.get(0, 0)
    ad = ints[deg]
    if a0 == 0:
        roots, complete = _rational_roots({k - 1: c for k, c in ints.items() if k})
        return [0] + roots, complete
    num_divs, num_complete = _divisors(abs(a0))
    den_divs, den_complete = _divisors(abs(ad))
    cands = set()
    for pn in num_divs:
        for qd in den_divs:
            if qd == 1:
                cands.add(pn)
                cands.add(-pn)
            else:
                cands.add(Fraction(pn, qd))
                cands.add(Fraction(-pn, qd))
    dense = [ints.get(k, 0) for k in range(deg - 1, -1, -1)]
    out = []
    for rho in cands:
        a, b = (rho, 1) if rho.__class__ is int else (rho.numerator, rho.denominator)
        val = ad
        if b == 1:
            for c in dense:
                val = val * a + c
        else:
            bp = 1
            for c in dense:
                bp *= b
                val = val * a + c * bp
        if val == 0:
            out.append(_q(rho))
    return out, num_complete and den_complete


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


# trial division up to 10^5 lists every divisor of n <= 10^10
DIVISOR_BOUND = 10 ** 10


def _divisors(n: int) -> Tuple[List[int], bool]:
    """(divisors, complete) for n >= 0; ([1], True) for 0.  Past
    DIVISOR_BOUND the list holds only the divisors up to 10^5 and their
    cofactors, and complete is False."""
    if n == 0:
        return [1], True
    out = []
    i = 1
    while i * i <= n and i <= 100000:
        if n % i == 0:
            out.append(i)
            out.append(n // i)
        i += 1
    return sorted(set(out)), n <= DIVISOR_BOUND
