"""Difference-operator algebras in normal-ordered form.

An element is a finite sum  coefficient * shift-monomial  with every
coefficient written to the LEFT of every shift generator.  The shift
generators obey

    rational mode:  e^{q[i,r]} f(p) = f(p - 1) e^{q[i,r]}
                    (from [e^{+-q}, p] = -+ e^{+-q})
    trig mode:      D[i,r] f(w^{1/2}) = f(v w^{1/2}) D[i,r]
                    (from D w^{1/2} = v w^{1/2} D, so w -> v^2 w)

Both directions of the contract are property-tested; the sign and the
full-versus-half power of v are the classic implementation traps, pinned
by the golden matrices in the test suite.

Tensor powers reuse the same machinery: slot variables carry a tensor
factor index and shift monomials are keyed by (factor, i, r); generators
from different factors commute.

Elements are immutable and all operations pure; matrix entries can be
built and compared in parallel with no synchronization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

from .errors import NonIntegerShift, NotScalar, SignatureMismatch
from .poly import _P_ONE
from .ratfun import (Poly, RatFun, as_ratfun, den_product, p_var, reduced_product, reduced_sum,
                     shift_map, substitute, wh_var)


@dataclass(frozen=True)
class AlgebraSignature:
    """Shape of the algebra: rank, per-factor slot counts, mode, points."""

    n: int
    mode: str  # 'rational' | 'trig'
    slot_counts: Tuple[Tuple[int, ...], ...]  # one (a_1..a_{n-1}) per factor
    points: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.mode not in ("rational", "trig"):
            raise ValueError(f"bad mode {self.mode!r}")
        for a in self.slot_counts:
            if len(a) != self.n - 1:
                raise ValueError("slot vector length must be n-1")

    @property
    def tensor_factors(self) -> int:
        return len(self.slot_counts)

    def a(self, i: int, factor: int = 1) -> int:
        """Slot count of row i (a_0 = a_n = 0 convention)."""
        counts = self.slot_counts[factor - 1]
        if i <= 0 or i >= self.n:
            return 0
        return counts[i - 1]

    def has_slot(self, factor: int, i: int, r: int) -> bool:
        """True when slot (i, r) of tensor factor `factor` exists."""
        return 1 <= factor <= self.tensor_factors and 1 <= r <= self.a(i, factor)

    def tensor(self, other: "AlgebraSignature") -> "AlgebraSignature":
        if self.n != other.n or self.mode != other.mode:
            raise SignatureMismatch("tensor of incompatible signatures")
        points = self.points + tuple(
            p for p in other.points if p not in self.points
        )
        return AlgebraSignature(
            self.n, self.mode, self.slot_counts + other.slot_counts, points
        )

    def plain(self) -> bool:
        return self.tensor_factors == 1


class ShiftMonomial:
    """Product of shift generators: exps maps (factor, i, r) -> exponent."""

    __slots__ = ("exps", "_key")

    def __init__(self, exps: Dict[Tuple[int, int, int], int]):
        self.exps = {k: m for k, m in exps.items() if m}
        self._key = tuple(sorted(self.exps.items()))

    @staticmethod
    def generator(i: int, r: int, m: int = 1) -> "ShiftMonomial":
        return ShiftMonomial({(1, i, r): m})

    def __mul__(self, other: "ShiftMonomial") -> "ShiftMonomial":
        out = dict(self.exps)
        for k, m in other.exps.items():
            out[k] = out.get(k, 0) + m
        return ShiftMonomial(out)

    def inverse(self) -> "ShiftMonomial":
        return ShiftMonomial({k: -m for k, m in self.exps.items()})

    def is_identity(self) -> bool:
        return not self.exps

    def __eq__(self, other):
        return isinstance(other, ShiftMonomial) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        if not self.exps:
            return "ShiftMonomial(1)"
        inner = " ".join(f"({f};{i},{r})^{m}" for (f, i, r), m in self._key)
        return f"ShiftMonomial({inner})"


_SHIFT_ONE = ShiftMonomial({})


class AlgebraElement:
    """Normal-ordered element: finite map shift-monomial -> RatFun."""

    __slots__ = ("signature", "terms")

    def __init__(self, signature: AlgebraSignature, terms: Dict[ShiftMonomial, RatFun]):
        self.signature = signature
        self.terms = {s: c for s, c in terms.items() if not c.is_zero()}

    # -- constructors

    @staticmethod
    def zero(sig: AlgebraSignature) -> "AlgebraElement":
        return AlgebraElement(sig, {})

    @staticmethod
    def from_ratfun(sig: AlgebraSignature, f) -> "AlgebraElement":
        return AlgebraElement(sig, {_SHIFT_ONE: as_ratfun(f)})

    @staticmethod
    def one(sig: AlgebraSignature) -> "AlgebraElement":
        return AlgebraElement.from_ratfun(sig, 1)

    @staticmethod
    def shift(sig: AlgebraSignature, i: int, r: int, m: int = 1, coeff=1) -> "AlgebraElement":
        """coeff * e^{m q[i,r]} (rational) or coeff * D[i,r]^m (trig), on
        the first tensor factor."""
        if not (1 <= i < sig.n and 1 <= r <= sig.a(i)):
            raise SignatureMismatch(f"no slot ({i},{r})")
        return AlgebraElement(sig, {ShiftMonomial.generator(i, r, m): as_ratfun(coeff)})

    # -- predicates

    def is_zero(self) -> bool:
        return not self.terms

    def is_scalar(self) -> bool:
        return all(s.is_identity() for s in self.terms)

    def scalar_part(self) -> RatFun:
        """The coefficient of the identity shift; NotScalar if others remain."""
        if not self.is_scalar():
            raise NotScalar(f"shift monomials survive: {list(self.terms)!r}")
        return self.terms.get(_SHIFT_ONE, RatFun.zero())

    # -- additive structure

    def __add__(self, other) -> "AlgebraElement":
        other = self._coerce(other)
        out = dict(self.terms)
        for s, c in other.terms.items():
            cur = out.get(s)
            out[s] = c if cur is None else cur + c
        return AlgebraElement(self.signature, out)

    __radd__ = __add__

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.signature, {s: -c for s, c in self.terms.items()})

    def __sub__(self, other) -> "AlgebraElement":
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    # -- multiplicative structure (normal ordering)

    def __mul__(self, other) -> "AlgebraElement":
        if isinstance(other, (int, Fraction, RatFun)):
            c = as_ratfun(other)
            return AlgebraElement(
                self.signature, {s: cc * c for s, cc in self.terms.items()}
            )
        terms: Dict[ShiftMonomial, RatFun] = {}
        for s, c1, num, den in _term_products(self, self._coerce(other)):
            c = reduced_product(c1.num, c1.den, num, den)
            cur = terms.get(s)
            terms[s] = c if cur is None else cur + c
        return AlgebraElement(self.signature, terms)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, RatFun)):
            return self * other  # scalars commute
        return self._coerce(other) * self

    def __pow__(self, k: int) -> "AlgebraElement":
        if k < 0:
            return self.invert_single_term() ** (-k)
        out, base = None, self
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return AlgebraElement.one(self.signature) if out is None else out

    def sum_of_products(self, pairs) -> "AlgebraElement":
        """algebra.sum_of_products over this element's signature: the rule
        a TruncSeries whose zero is this element sums products by."""
        return sum_of_products(self.signature, pairs)

    def commutator(self, other) -> "AlgebraElement":
        other = self._coerce(other)
        return self * other - other * self

    def invert_single_term(self) -> "AlgebraElement":
        """(c * S)^{-1} = shift_{S^{-1}}(c^{-1}) * S^{-1}; one term only."""
        if len(self.terms) != 1:
            raise NotScalar("can only invert single-term elements")
        (s, c), = self.terms.items()
        inv = s.inverse()
        return AlgebraElement(self.signature,
                              {inv: _moved_left(c.invert(), self.signature.mode, inv)})

    # -- equality

    def equals(self, other) -> bool:
        other, zero = self._coerce(other), RatFun.zero()
        return all(self.terms.get(s, zero).equals(other.terms.get(s, zero))
                   for s in {**self.terms, **other.terms})

    __eq__ = equals

    def __hash__(self):
        raise TypeError("AlgebraElement is not hashable")

    def _coerce(self, other) -> "AlgebraElement":
        if isinstance(other, AlgebraElement):
            if other.signature != self.signature:
                raise SignatureMismatch(
                    f"{other.signature} vs {self.signature}"
                )
            return other
        if isinstance(other, (int, Fraction, RatFun)):
            return AlgebraElement.from_ratfun(self.signature, other)
        raise TypeError(f"cannot coerce {type(other)!r}")

    # -- coefficient maps

    def map_coeffs(self, fn: Callable[[RatFun], RatFun]) -> "AlgebraElement":
        return AlgebraElement(self.signature, {s: fn(c) for s, c in self.terms.items()})

    def rename_spectral(self, old, new) -> "AlgebraElement":
        return self.map_coeffs(lambda c: c.rename_var(old, new))

    def z_poly_coeffs(self, var) -> Dict[int, "AlgebraElement"]:
        """Decompose by powers of a central variable (z-free denominators)."""
        out: Dict[int, Dict[ShiftMonomial, RatFun]] = {}
        for s, c in self.terms.items():
            for k, ck in c.poly_coeffs(var).items():
                out.setdefault(k, {})[s] = ck
        return {
            k: AlgebraElement(self.signature, terms) for k, terms in out.items()
        }

    def __repr__(self):
        from .textio import render_element

        return f"AlgebraElement({render_element(self)})"


def shift_moves(mode: str, s: ShiftMonomial) -> tuple:
    """The (slot, i, r, m) moves of ratfun.shift_map that carry a
    coefficient left past s: p -> p - m in rational mode, wh -> v^m wh
    in trig mode."""
    return tuple((f, i, r, -m if mode == "rational" else m) for (f, i, r), m in s._key)


def _moved_left(c: RatFun, mode: str, s: ShiftMonomial) -> RatFun:
    """The coefficient c' with s c = c' s: c moved left past the whole
    shift monomial s by one substitution (shift_moves), as _term_products
    moves each coefficient."""
    if not s.exps:
        return c
    key = (mode, shift_moves(mode, s))
    return RatFun(*substitute(c.num, c.den, shift_map(*key), key))


def _term_products(x: AlgebraElement, y: AlgebraElement):
    """The term pairs of x * y: (s1 * s2, c1, num, den) with num / den
    the coefficient c2 moved left past s1 by one ratfun.substitute of the
    whole shift monomial (shift_map); a shift is an automorphism, so
    num / den stays reduced."""
    mode = x.signature.mode
    for s1, c1 in x.terms.items():
        key = (mode, shift_moves(mode, s1))
        fn = shift_map(*key) if s1.exps else None
        for s2, c2 in y.terms.items():
            num, den = c2.num, c2.den
            if fn is not None:
                num, den = substitute(num, den, fn, key)
            yield s1 * s2, c1, num, den


def unreduced_product(x: AlgebraElement, y: AlgebraElement) -> Dict[ShiftMonomial, list]:
    """x * y, nothing cancelled: shift monomial -> fractions summing to its
    coefficient (numerators multiplied, atom multisets merged).  A
    coefficient 1, as on F's unit diagonal, multiplies nothing."""
    out: Dict[ShiftMonomial, list] = {}
    for s, c1, num, den in _term_products(x, y):
        if c1.den or c1.num != _P_ONE:
            num, den = c1.num * num, den_product(c1.den, den)
        out.setdefault(s, []).append((num, den))
    return out


# ---------------------------------------------------------------------------
# tensor embeddings


def embed(elem: AlgebraElement, target: AlgebraSignature, factor: int) -> AlgebraElement:
    """Include an element as tensor factors factor, factor+1, ... of target.

    Works for multi-factor sources: source factor f lands on target factor
    f + factor - 1."""
    src = elem.signature
    if src.mode != target.mode or src.n != target.n:
        raise SignatureMismatch("incompatible embed target")
    off = factor - 1
    for f in range(1, src.tensor_factors + 1):
        if src.slot_counts[f - 1] != target.slot_counts[f + off - 1]:
            raise SignatureMismatch("slot counts differ in the chosen factors")
    if off == 0 and src.tensor_factors == target.tensor_factors:
        return AlgebraElement(target, dict(elem.terms))

    slot_var = p_var if src.mode == "rational" else wh_var
    # highest source factor first so targets never collide with sources
    renames = tuple((slot_var(i, r, f), slot_var(i, r, f + off))
                    for f in range(src.tensor_factors, 0, -1)
                    for i in range(1, src.n)
                    for r in range(1, src.a(i, f) + 1))
    out: Dict[ShiftMonomial, RatFun] = {}
    for s, c in elem.terms.items():
        new_s = ShiftMonomial(
            {(f + off, i, r): m for (f, i, r), m in s.exps.items()}
        )
        out[new_s] = c.rename_vars(renames)
    return AlgebraElement(target, out)


def tensor(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """a (x) b over the doubled signature."""
    sig = a.signature.tensor(b.signature)
    return embed(a, sig, 1) * embed(b, sig, a.signature.tensor_factors + 1)


# ---------------------------------------------------------------------------
# gauges (rational mode)


@dataclass(frozen=True)
class GammaGauge:
    """Conjugation by a product of Gamma values of linear forms.

    factors: sequence of (L, e) with L a linear Poly in p/x variables and
    e = +-1.  Gamma itself is never evaluated: conjugating a shift
    monomial only needs the integer-step quotients supplied by the
    functional equation Gamma(y + 1) = y Gamma(y).
    """

    factors: Tuple[Tuple[Poly, int], ...]
    # shift monomial -> its conjugation factor, which depends on nothing else;
    # one gauge meets few (24 over the 1,264 terms of the kernel gauge battery)
    _factors_of: Dict[ShiftMonomial, RatFun] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def conjugate(self, elem: AlgebraElement) -> AlgebraElement:
        sig = elem.signature
        if sig.mode != "rational":
            raise SignatureMismatch("Gamma gauges act on rational mode")
        out: Dict[ShiftMonomial, RatFun] = {}  # conjugation keeps each shift monomial
        for s, c in elem.terms.items():
            factor = self._factors_of.get(s)
            if factor is None:
                factor = self._factors_of[s] = self._factor(s)
            out[s] = c * factor
        return AlgebraElement(sig, out)

    def _factor(self, s: ShiftMonomial) -> RatFun:
        """The coefficient that conjugating the shift monomial s leaves to
        its left."""
        factor = RatFun.one()
        for L, e in self.factors:
            k_total = Fraction(0)
            for (f, i, r), m in s.exps.items():
                lin = L.coeff_of(p_var(i, r, f), 1)
                k_total += m * (lin.const_value() if lin else 0)
            if k_total.denominator != 1:
                raise NonIntegerShift(f"Gamma shift by {k_total}")
            factor = factor * _gamma_quotient(L, int(k_total), e)
        # the quotient sits to the right of the shift monomial; move it left
        return _moved_left(factor, "rational", s)


def _gamma_quotient(L: Poly, k: int, e: int) -> RatFun:
    """(Gamma(L + k) / Gamma(L))^e as a rational function: the product of
    L + j over 0 <= j < k, or of 1 / (L - j) over 1 <= j <= -k, each
    factor to the power e."""
    if k >= 0:
        return RatFun.product(1, [(L + j, e) for j in range(k)])
    return RatFun.product(1, [(L - j, -e) for j in range(1, -k + 1)])


@dataclass(frozen=True)
class MonomialGauge:
    """Conjugation by a sign-twisted translation: p[i,r] -> p[i,r] +
    shifts[i,r], and e^{q[i,r]} picks up (-1)^(signs[i,r])."""

    shifts: Tuple[Tuple[Tuple[int, int], Fraction], ...]
    signs: Tuple[Tuple[Tuple[int, int], int], ...] = ()

    def conjugate(self, elem: AlgebraElement) -> AlgebraElement:
        sig = elem.signature
        if sig.mode != "rational":
            raise SignatureMismatch("monomial gauges act on rational mode")
        moves = tuple((p_var(i, r, 1), t) for (i, r), t in dict(self.shifts).items())
        sign_map = dict(self.signs)
        out: Dict[ShiftMonomial, RatFun] = {}  # conjugation keeps each shift monomial
        for s, c in elem.terms.items():
            sgn = 1
            for (f, i, r), m in s.exps.items():
                if sign_map.get((i, r), 0) % 2 and m % 2:
                    sgn = -sgn
            out[s] = c.shift_vars(moves) * sgn
        return AlgebraElement(sig, out)


# ---------------------------------------------------------------------------
# matrices of algebra elements


def mat_zero(sig: AlgebraSignature, n: int) -> List[List[AlgebraElement]]:
    return [[AlgebraElement.zero(sig) for _ in range(n)] for _ in range(n)]


def mat_identity(sig: AlgebraSignature, n: int) -> List[List[AlgebraElement]]:
    out = mat_zero(sig, n)
    for i in range(n):
        out[i][i] = AlgebraElement.one(sig)
    return out


def sum_of_products(sig: AlgebraSignature, pairs) -> AlgebraElement:
    """The sum of x * y over the (x, y) pairs, elements over sig.  Each
    shift coefficient gathers the unreduced fractions of its term
    products and is reduced once (reduced_sum)."""
    fracs: Dict[ShiftMonomial, list] = {}
    for x, y in pairs:
        if x.terms and y.terms:
            for s, fl in unreduced_product(x, y).items():
                fracs.setdefault(s, []).extend(fl)
    return AlgebraElement(sig, {s: reduced_sum(fl) for s, fl in fracs.items()})


def mat_mul(a, b):
    """The matrix product, each entry one sum_of_products."""
    sig = b[0][0].signature
    cols = list(zip(*b))
    return [[sum_of_products(sig, zip(row, col)) for col in cols] for row in a]


def mat_map(a, fn):
    return [[fn(x) for x in row] for row in a]


def mat_equal(a, b) -> bool:
    return all(x.equals(y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))
