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

Numerators are poly.Poly values: packed monomials, exact coefficients
(ints where integral) and exact division by an atom (see poly.py).

A RatFun is reduced: no atom of its denominator divides its numerator.
Cancellation is trial division by atoms, and it tries only atoms that
can cancel.  An atom is *prime* (Atom.root) when it is A*u + B
with u a non-unit variable at exponent 1, A a unit and B free of u; such
an atom is irreducible, so it divides a product only by dividing a
factor.  For reduced a/b and c/d (Henrici's rules, Knuth, TAOCP vol. 2,
4.5.1):

  * product a/b * c/d: b's atoms are tried against c and d's against a
    (never an atom both hold), then only non-prime atoms against a*c;
  * sum a/b + c/d over the common denominator (_lifted_sum): a prime
    atom can cancel only when b and d hold it with the same
    multiplicity, so only those and the non-prime atoms are tried;
  * reciprocal b/a: nothing is tried when every atom is prime;
  * a ring automorphism keeps a fraction reduced, so nothing is tried:
    a slot shift (shift_slot, or every slot of a shift monomial at once
    through shift_map), a translation p -> p + c of non-unit
    variables (shift_var, shift_vars), a unit scaling v -> unit * v
    (scale_var) and a renaming onto variables the fraction does not
    hold (rename_var, rename_vars).  A rename onto a variable it holds
    and set_value are not automorphisms, and _make reduces their image;
  * product of factors c * prod f_k^e_k (RatFun.product), each f_k a
    unit times atoms: exponents add per atom (factored.Factored), the
    positive atoms are multiplied out and the negative ones are the
    denominator.  Nothing is tried: distinct prime atoms are coprime,
    and under the conditions below no other atom shares a factor with
    another.  The Lax-matrix formulas keep their Gauss coefficients
    this way, and a slot shift maps such a product atom by atom;
  * sum of many reduced fractions (merged_sum): two at a time by the
    sum rule, first the pair that shares the most denominator atoms, so
    partial sums cancel as they go.  T = F G E of the Lax-matrix
    builders is summed this way;
  * sum of unreduced fractions (reduced_sum): numerators over equal
    atom multisets are summed first, groups that cancel dropped
    (_grouped), the rest lifted to the common atom multiset and summed
    (_lifted_sum), then reduced once by _make, which tries every atom.
    sum_is_zero groups alike, and a proven pole (_has_pole) answers
    before any lifting; that tail, grouped_sum_is_zero, is also the
    exchange check's zero test for the groups it sums itself;
  * equality (RatFun.equals): two fractions with the same numerator
    terms and the same atom multiset are equal with no arithmetic; any
    other pair takes the exact test sum_is_zero of their difference.

The rules need two things: no prime atom divides a non-prime one, and
no numerator holds a negative power of a non-unit variable (the
formulas make none, and RatFun.quotient, which parsing calls, moves
them into the denominator).  The first holds for a non-prime atom in unit
variables only, such as the trig slot atom v^2*w[1,2] - w[1,1]; a sum or
product holding any other non-prime atom (z^4 - 1, which only
hand-written input makes) takes full trial division, RatFun._make.  Then
every result is reduced, and it equals _make of the unreduced fraction
unless two non-prime atoms share a factor (the slot atoms
v^2k*w[i,r] - w[i,s] share none); there both are reduced forms of one
value, and _make's depends on the order in which it divides.

Every factor the library splits (factor_atoms: a denominator factor,
a factor of a Factored product, the numerator RatFun.invert turns over) is a
unit times monomial content times at most one atom, split once per
process; a product of two atoms is not split and raises
NotAtomFactorable.  Most factors are linear forms with two or more
terms over z/w/p/x, split in a single pass over their terms
(_linear_split): such a form has no monomial content, since each
variable sits in one term, so its Atom key is its terms in precedence
order (the constant, then the variables from least to most significant)
scaled by the coefficient of the most significant variable.

Before each trial division an exact one-sided test modulo the prime
2^61 - 1 runs (rejection.cannot_divide): the numerator is evaluated at a
zero of the atom and a nonzero value proves that the atom does not
divide it, so the division is skipped.  Every prime atom has such a
zero, and so does a two-term atom such as the trig slot atom
v^2k*w[i,r] - w[i,s] when a root of it in one variable exists mod
2^61 - 1 (Atom.zero).  The test only ever rejects with that
certificate; every verdict and every reduced form is the one division
would give.  The division, run only when the test gives no verdict, is
one of two synthetic divisions: in u for a prime atom (poly.synthetic_div
by the atom's split A*u + B, Atom.parts), and along the chains
m0 + j*(m1 - m2) of the numerator for any other atom, which has two
terms c1*m1 + c2*m2 (poly.binomial_div).

Every Atom is made by _atom, once per key (hash-consing, after
Filliatre and Conchon, ML Workshop 2006).  The kernel does not know the
mode: _is_atom_shape accepts a two-term atom such as z^2 - 1 in either
mode, and only matrix files (textio) hold rational atoms to linear forms.

Values are immutable after construction and every operation is pure, so
they may be shared and sent across threads freely; callers can
parallelize over independent computations without locks.  (A Poly
caches its variable fields, and module-level memos the Atom of a key
(_atom), the split of a factor (factor_atoms), the value of a monomial
at the fixed residues and the image of an atom under a keyed ring map
(substitute), all on first use; each is a function of its key alone,
so concurrent fills agree.  Atoms compare and hash by key, not by
identity, so an atom made twice for one key, in a race or after a
memo is cleared at its cap, costs only the second construction.)  To
move a value to another process, send its rendered text.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from . import monomials as mono
from .errors import DivergesAtInfinity, NotAtomFactorable
from .monomials import FW, HALF, PREC, UNIT_KINDS, VARS, Monomial, Var, unpack_mono, unpacked
from .poly import (
    _P_ONE,
    _P_ZERO,
    Coeff,
    Poly,
    Q1,
    _as_poly,
    _content,
    _q,
    _qdiv,
    binomial_div,
    is_unit_var,
    mul_add,
    synthetic_div,
)
from .rejection import _binomial_root, _linear_root, cannot_divide, prime_parts

Z = ("z",)
W = ("w",)
V = ("v",)
EPS = ("eps",)

# variable kinds of rational-mode (linear) atoms
_LINEAR_ATOM_KINDS = frozenset({"z", "w", "p", "x"})


def p_var(i: int, r: int, slot: int = 1) -> Var:
    return ("p", slot, i, r)


def wh_var(i: int, r: int, slot: int = 1) -> Var:
    return ("wh", slot, i, r)


def x_var(label) -> Var:
    return ("x", str(label))


# ---------------------------------------------------------------------------
# denominator atoms


class Atom:
    """Canonical denominator factor, made only by _atom, once per key.

    Stored as a normalized Poly: content-free, non-negative z/w/x/p
    exponents, unit-variable exponents shifted to be >= 0 with a zero
    minimum, leading coefficient 1 under the term order.  Set when it is
    made: root (rejection._linear_root, False when not prime), zero (the
    point cannot_divide evaluates at), parts (rejection.prime_parts, False
    for a two-term atom) and unit_only (no prime atom divides it).
    """

    __slots__ = ("poly", "key", "_hash", "root", "zero", "parts", "unit_only")

    def __init__(self, poly: Poly, key):
        self.poly = poly
        self.key = key
        self._hash = hash(key)
        self.root = _linear_root(poly)
        self.zero = self.root or _binomial_root(poly)
        self.parts = prime_parts(poly)
        # a linear form is always prime, so every other atom has two terms
        assert self.parts or len(poly.terms) == 2, poly
        self.unit_only = all(VARS[k][0] in UNIT_KINDS for k in poly._fields())

    def __eq__(self, other):
        return isinstance(other, Atom) and self.key == other.key

    def __hash__(self):
        return self._hash

    def degree(self, v: Var) -> int:
        return self.poly.degree(v)

    def __repr__(self):
        from .textio import render_poly

        return f"Atom({render_poly(self.poly)})"


def _atom(poly: Poly, key) -> Atom:
    """The one Atom of key (poly its polynomial), kept in _ATOMS."""
    return _memo(_ATOMS, key, Atom, poly, key)


def _memo(table: dict, key, fn, *args):
    """fn(*args) memoized in table under key (a cached None is a hit),
    fn(*args) being a function of the key alone; the table is cleared
    when it holds _MEMO_CAP entries.  _ATOMS, _SPLITS and _IMAGES all go
    through here."""
    out = table.get(key, _UNSEEN)
    if out is _UNSEEN:
        out = fn(*args)
        if len(table) >= _MEMO_CAP:
            table.clear()
        table[key] = out
    return out


# atom key -> its Atom (_atom)
_ATOMS: Dict[tuple, Atom] = {}
_MEMO_CAP = 1 << 12
_UNSEEN = object()


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
    if len(p.terms) <= 2 and {VARS[k][0] for k in p._fields()} <= _TRIG_ATOM_KINDS:
        return True
    return is_linear_form(p)


def is_linear_form(p: Poly) -> bool:
    """True when p has degree at most 1 in z/w/p/x and holds no other
    variable: the shape of every rational-mode atom."""
    return {VARS[k][0] for k in p._fields()} <= _LINEAR_ATOM_KINDS and all(
        sum(e for _, e in unpacked(m)) <= 1 for m in p.terms
    )


def _linear_split(p: Poly) -> Optional[Tuple[Poly, Dict[Atom, int]]]:
    """factor_atoms of a linear form over z/w/p/x with two or more terms,
    in one pass (see the module docstring); None for any other p."""
    terms = p.terms
    if len(terms) < 2:
        return None
    const = None
    lin = []
    for m, c in terms.items():
        if not m:
            const = c
            continue
        # a single variable to the first power is one set bit at a field start
        k, off = divmod(m.bit_length() - 1, FW)
        if m < 0 or m & (m - 1) or off or VARS[k][0] not in _LINEAR_ATOM_KINDS:
            return None
        lin.append((PREC[k], k, c))
    lin.sort(reverse=True)  # precedence keys of distinct variables differ
    lc = lin[-1][2]
    inv = Q1 if lc == 1 else _qdiv(1, lc)
    key = tuple((((VARS[k], 1),), _q(c * inv)) for _, k, c in lin)
    if const is not None:
        key = (((), _q(const * inv)),) + key
    if lc != 1:
        p = Poly({m: _q(c * inv) for m, c in terms.items()}, 1)
    return Poly.const(lc), {_atom(p, key): 1}


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
    # each content exponent is an exponent of p, so within p's bound
    residual = p * Poly({-content: Q1}, p._eb) if content else p
    return Poly({unit_mono: Q1}, p._eb), atoms, residual


def _negative_lift(p: Poly) -> Monomial:
    """The packed monomial that clears every negative power of a non-unit
    variable in p (0 when there is none)."""
    ks = [k for k in p._fields() if VARS[k][0] not in UNIT_KINDS]
    # a field of m is negative exactly when its biased digit lacks the top bit
    top = sum(HALF << (FW * k) for k in ks)
    bias = mono.BIAS
    if all((m + bias) & top == top for m in p.terms):
        return 0
    return -sum(lo << (FW * k) for k, lo in _content(p).items() if k in ks and lo < 0)


def _monomial_atom(v: Var) -> Atom:
    p = Poly.variable(v)
    return _atom(p, _atom_key(p))


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
    return _atom(p, key), Poly.const(lc)


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
        return RatFun(_cancel(num, den, list(den)), den)

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
        """num / den, reduced, with den factored into atoms (see quotient)."""
        return RatFun.quotient(_as_poly(num), [(_as_poly(den), 1)])

    @staticmethod
    def quotient(num: Poly, factors: Iterable[Tuple[Poly, int]]) -> "RatFun":
        """num / prod f^k over the (f, k) factors, k >= 1: each f, a unit
        times monomial content times at most one atom, is split once by
        factor_atoms (NotAtomFactorable for any other f, such as a product
        of two atoms), its unit moved to the numerator, and the fraction
        reduced once by _make.  Negative powers of non-unit variables in
        num or an f are cleared by a monomial, whose variables become
        monomial atoms of the denominator; the units v and wh keep their
        negative exponents."""
        den: Dict[Atom, int] = {}
        lift = _negative_lift(num)
        if lift:
            num = num * Poly({lift: Q1}, num._eb)
            for k, e in unpacked(lift):
                den[_monomial_atom(VARS[k])] = e
        for f, k in factors:
            lift = _negative_lift(f)
            if lift:
                f = f * Poly({lift: Q1}, f._eb)
                num = num * Poly({lift: Q1}, f._eb) ** k
            unit, atoms = factor_atoms(f)
            if unit != _P_ONE:
                num = num * _invert_unit(unit) ** k
            for a, m in atoms.items():
                den[a] = den.get(a, 0) + m * k
        return RatFun._make(num, den)

    @staticmethod
    def product(c, factors: Iterable[Tuple[Poly, int]]) -> "RatFun":
        """c * prod poly^exp over the (poly, exp) factors, each poly a
        nonzero unit times atoms (factor_atoms, which splits each distinct
        poly once per process), by the product rule of the module
        docstring: nothing is divided, unless a non-prime atom holds a
        non-unit variable (then _make reduces)."""
        c = _q(c)
        if not c:
            return _R_ZERO
        from .factored import Factored

        return Factored.product(c, ((Factored.of(p), e) for p, e in factors if e)).expand()

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
        b, d = self.den, other.den
        common, num = _lifted_sum([(self.num, b), (other.num, d)])
        if num.is_zero():
            return _R_ZERO
        tries = [t for t in common if b.get(t) == d.get(t) or not t.root]
        if not all(t.root or t.unit_only for t in tries):
            return RatFun._make(num, common)
        return RatFun(_cancel(num, common, tries), common)

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
        return reduced_product(self.num, self.den, other.num, other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "RatFun":
        if k < 0:
            return self.invert() ** (-k)
        out = _R_ONE
        base = self
        while k:
            if k & 1:
                out = base if out is _R_ONE else out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __truediv__(self, other) -> "RatFun":
        return self * as_ratfun(other).invert()

    def __rtruediv__(self, other):
        return as_ratfun(other) / self

    def equals(self, other) -> bool:
        """Mathematical equality: True at once for two fractions with the
        same numerator terms and the same atom multiset, otherwise the
        exact test sum_is_zero of their difference."""
        other = as_ratfun(other)
        if self.num.terms == other.num.terms and self.den == other.den:
            return True
        return sum_is_zero([(self.num, self.den), (-other.num, other.den)])

    __eq__ = equals

    def __hash__(self):
        raise TypeError("RatFun is not hashable")

    # -- inversion

    def invert(self) -> "RatFun":
        """Reciprocal.  The numerator must be a unit times monomial content
        times at most one atom (factor_atoms); NotAtomFactorable otherwise,
        so invert a product factor by factor or build it with
        RatFun.product."""
        if self.is_zero():
            raise ZeroDivisionError("inverting zero")
        unit, atoms = factor_atoms(self.num)
        num = _invert_unit(unit)
        for a, m in self.den.items():
            num = num * a.poly ** m
        if all(a.root for a in atoms) and all(a.root for a in self.den):
            return RatFun(num, atoms)
        return RatFun._make(num, atoms)

    # -- substitutions (atoms are remapped and renormalized)

    def _map(self, poly_fn) -> "RatFun":
        """Image under a ring map that need not keep the fraction reduced,
        so _make divides."""
        return RatFun._make(*substitute(self.num, self.den, poly_fn))

    def _automorphism(self, poly_fn, key) -> "RatFun":
        """Image under a ring automorphism, which keeps the fraction
        reduced, so nothing is divided; key describes poly_fn (see
        substitute)."""
        return RatFun(*substitute(self.num, self.den, poly_fn, key))

    def shift_var(self, v: Var, c) -> "RatFun":
        return self.shift_vars(((v, c),))

    def shift_vars(self, moves: Iterable[Tuple[Var, Coeff]]) -> "RatFun":
        """The translation v -> v + c over the (v, c) moves, in one pass;
        each v a non-unit variable."""
        moves = tuple((v, _q(c)) for v, c in moves if c)
        if not moves:
            return self
        if any(is_unit_var(v) for v, _ in moves):
            raise ValueError("additive shift of a unit variable")
        return self._automorphism(lambda p: p.shift_vars(moves), ("shift", moves))

    def scale_var(self, v: Var, unit: Iterable[Tuple[Var, int]]) -> "RatFun":
        """v -> unit * v, unit ((var, exp), ...) a Laurent monomial in unit
        variables other than v."""
        unit = tuple(unit)
        if any(u == v or not is_unit_var(u) for u, _ in unit):
            raise ValueError(f"{unit!r} is not a unit free of {v!r}")
        return self._automorphism(lambda p: p.scale_var(v, unit), ("scale", v, unit))

    def set_value(self, v: Var, value) -> "RatFun":
        return self._map(lambda p: p.set_value(v, value))

    def rename_var(self, old: Var, new: Var) -> "RatFun":
        return self.rename_vars(((old, new),))

    def rename_vars(self, pairs: Iterable[Tuple[Var, Var]]) -> "RatFun":
        """old -> new for each (old, new) of pairs in turn, in one pass.
        When each new variable is absent from the fraction at its turn and
        of the same kind (unit or not) as old, the renaming is injective,
        an automorphism onto its image, and nothing is divided; a rename
        onto a variable the fraction holds reduces with _make."""
        pairs = tuple((old, new) for old, new in pairs if old != new)
        if not pairs:
            return self

        def rename(p: Poly) -> Poly:
            for old, new in pairs:
                p = p.rename_var(old, new)
            return p

        held = set(self.num.variables())
        for a in self.den:
            held |= a.poly.variables()
        for old, new in pairs:
            if old in held:
                if new in held or is_unit_var(old) != is_unit_var(new):
                    return self._map(rename)
                held.remove(old)
                held.add(new)
        return self._automorphism(rename, ("rename", pairs))

    def shift_slot(self, mode: str, slot: int, i: int, r: int, m: int) -> "RatFun":
        """The m-fold shift automorphism on a slot (see shift_map)."""
        if not m:
            return self
        key = (mode, ((slot, i, r, m),))
        return self._automorphism(shift_map(*key), key)

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

        out = poly_series(self.num)
        hi = out.val() + order - 1
        for a, m in self.den.items():
            s = poly_series(a.poly)
            hi -= s.val() * m
            # the first `order` powers of every factor make the first
            # `order` powers of the product, whatever the others' valuations
            inv = s.inverse(order - 1 - s.val(), RatFun.invert)
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


def _cancel(num: Poly, den: Dict[Atom, int], atoms: list) -> Poly:
    """num divided by each of atoms as often as it divides and den holds
    it; den loses what was divided (in place).  One pass is exhaustive:
    an atom that does not divide num divides no quotient of it."""
    for a in atoms:
        m = k = den.get(a, 0)
        while k and not cannot_divide(num, a):
            q = poly_div_exact(num, a)
            if q is None:
                break
            num = q
            k -= 1
        if k != m:
            if k:
                den[a] = k
            else:
                del den[a]
    return num


def poly_div_exact(num: Poly, a: Atom) -> Optional[Poly]:
    """num / a exactly, or None: synthetic division in u by a prime atom
    A*u + B, along the chains of its two terms by any other atom (a
    linear form is always prime, so every other atom has two terms).
    Every trial division runs through here, and perfbench/tracer.py
    traces the division layer under this name."""
    if a.parts:
        return synthetic_div(num, a.poly, a.parts)
    return binomial_div(num, a.poly)


def reduced_product(a: Poly, b: Dict[Atom, int], c: Poly, d: Dict[Atom, int]) -> RatFun:
    """(a / b) * (c / d) for nonzero reduced fractions, by the product rule
    of the module docstring."""
    den = den_product(b, d)
    others = [t for t in den if not t.root]
    if not all(t.unit_only for t in others):
        return RatFun._make(a * c, den)
    c = _cancel(c, den, [t for t in b if t not in d])
    a = _cancel(a, den, [t for t in d if t not in b])
    return RatFun(_cancel(a * c, den, others), den)


def substitute(num: Poly, den: Dict[Atom, int], poly_fn, key=None) -> tuple:
    """Ring map poly_fn applied to num / den, as (num, den) with nothing
    cancelled: changed atoms are re-canonicalized (factor_atoms, one pass
    for a linear atom), their units moved to num.

    key, when given, is a hashable description of poly_fn, the same for
    every call with the same map (shift_map's arguments, a tuple of
    moves, the map itself); each atom's image is then memoized under
    (atom, key), so an atom met again under the same map is not mapped
    again."""
    num = poly_fn(num)
    out: Dict[Atom, int] = {}
    for a, m in den.items():
        if key is None:
            image = _atom_image(a, poly_fn)
        else:
            image = _memo(_IMAGES, (a, key), _atom_image, a, poly_fn)
        if image is None:  # poly_fn leaves this atom alone
            out[a] = out.get(a, 0) + m
            continue
        inv, atoms = image
        if inv is not None:
            num = num * inv ** m
        for na, nm in atoms.items():
            out[na] = out.get(na, 0) + nm * m
    return num, out


def _atom_image(a: Atom, poly_fn):
    """None when poly_fn leaves a's Poly alone, otherwise (the inverse of
    the unit of its image, None for 1; the image's atoms)."""
    p = poly_fn(a.poly)
    if p is a.poly:
        return None
    unit, atoms = factor_atoms(p)
    return (None if unit == _P_ONE else _invert_unit(unit)), atoms


# (atom, map key) -> _atom_image; a function of the key alone (an Atom
# hashes and compares as its key), capped by _memo
_IMAGES: Dict[tuple, object] = {}


def shift_map(mode: str, moves: tuple):
    """The Poly map of a shift monomial, given as its (slot, i, r, m)
    moves on distinct slots: the m-fold shift on slot (i, r) of tensor
    factor `slot` for every move at once, in one pass.  Rational
    p -> p + m (Poly.shift_vars); trig wh -> v^m wh, so w -> v^{2m} w
    (Poly.scale_vars, which only renames monomials)."""
    if mode == "rational":
        shifts = tuple((p_var(i, r, slot), m) for slot, i, r, m in moves)
        return lambda p: p.shift_vars(shifts)
    scales = tuple((wh_var(i, r, slot), ((V, m),)) for slot, i, r, m in moves)
    return lambda p: p.scale_vars(scales)


def _grouped(fracs: list) -> List[Tuple[Poly, Dict[Atom, int]]]:
    """fracs with the numerators of equal atom multisets (zero
    multiplicities ignored) summed, groups that sum to 0 dropped.  Summed
    coefficients are made canonical (_q) only in the final sum."""
    groups: Dict[frozenset, tuple] = {}
    for num, den in fracs:
        if 0 in den.values():
            den = {a: m for a, m in den.items() if m}
        g = groups.get(key := frozenset(den.items()))
        if g is None:
            groups[key] = (den, [num])
        else:
            g[1].append(num)
    out = []
    for den, nums in groups.values():
        if len(nums) == 1:
            out.append((nums[0], den))
            continue
        total = dict(nums[0].terms)
        get = total.get
        for num in nums[1:]:
            for mo, c in num.terms.items():
                total[mo] = get(mo, 0) + c
        if any(total.values()):
            total = {mo: c for mo, c in total.items() if c}
            out.append((Poly(total, max(num._eb for num in nums)), den))
    return out


def _lifted_sum(fracs: list) -> Tuple[Dict[Atom, int], Poly]:
    """Common atom multiset of fracs (largest multiplicities) and the sum
    of their numerators lifted to it.  Each lift but a numerator's last
    is a Poly product; the last adds straight into one running sum
    (poly.mul_add, the atom first), and _q runs once, on the total.  Its
    exponent bound is the largest of the lifted numerators'."""
    common: Dict[Atom, int] = {}
    for _, den in fracs:
        for a, m in den.items():
            if common.get(a, 0) < m:
                common[a] = m
    total: Dict[Monomial, Coeff] = {}
    eb = 0
    for num, den in fracs:
        lifts = [(a, k) for a, m in common.items() if (k := m - den.get(a, 0))]
        for a, k in lifts[:-1]:
            num = num * a.poly ** k
        if lifts:
            a, k = lifts[-1]
            eb = max(eb, mul_add(total, a.poly ** k, num))
            continue
        eb = max(eb, num._eb)
        for mo, c in num.terms.items():
            total[mo] = total.get(mo, 0) + c
    return common, Poly({mo: _q(c) for mo, c in total.items() if c}, eb)


def _has_pole(groups: list) -> bool:
    """True when the sum of _grouped fractions has a pole, so is not 0.

    If one group alone holds a prime atom a at the highest multiplicity
    m, and cannot_divide proves that a does not divide its numerator,
    the sum has valuation -m at a: other groups hold a to lower powers,
    and their other atoms are coprime to a (other prime atoms and atoms
    in unit variables are; a non-prime atom such as z^4 - 1 needs the
    same proof).  Monomial atoms are skipped: a numerator may hold a
    negative power of their variable ((z^-1) / ((z)) is 1/z^2)."""
    top: Dict[Atom, list] = {}  # atom -> [highest multiplicity, sole holder]
    for g in groups:
        for a, m in g[1].items():
            t = top.get(a)
            if t is None or t[0] < m:
                top[a] = [m, g]
            elif t[0] == m:
                t[1] = None
    others = [b for b in top if not (b.root or b.unit_only)]
    return any(g is not None and len(a.poly.terms) > 1 and a.root
               and cannot_divide(g[0], a)
               and all(cannot_divide(b.poly, a) for b in others)
               for a, (_, g) in top.items())


def grouped_sum_is_zero(groups: list) -> bool:
    """Exact test of sum num / den == 0 over groups, (num, den) pairs with
    den an atom multiset without zero multiplicities, as _grouped leaves
    them.  The common denominator is nonzero, so the lifted numerators
    must sum to 0; a proven pole (_has_pole) answers first.  No _make,
    division or sampling."""
    return not _has_pole(groups) and _lifted_sum(groups)[1].is_zero()


def sum_is_zero(fracs: list) -> bool:
    """Exact test of sum num / den == 0 over fracs, (num, den) pairs with den
    an atom multiset: equal denominators are summed first (_grouped), then
    grouped_sum_is_zero decides."""
    return grouped_sum_is_zero(_grouped(fracs))


def reduced_sum(fracs: list) -> RatFun:
    """sum num / den over fracs, (num, den) pairs with nothing cancelled,
    reduced once: equal denominators are summed first, the lifted
    numerators are summed and _make divides."""
    common, num = _lifted_sum(_grouped(fracs))
    return RatFun._make(num, common)


def merged_sum(fracs: Iterable[RatFun]) -> RatFun:
    """The sum of one or more reduced fractions, two at a time by
    RatFun.__add__: each step merges the first pair that shares the most
    denominator atoms, so partial sums cancel as they go and no lifted
    numerator swells (a T coefficient of a rank-5 matrix would otherwise
    lift to 176,552 terms and cancel to 7).  The plain search over pairs
    costs O(k^3) in the k terms, but no T coefficient of the (4, 2),
    (3, 2) and trig (4, 1) families sums more than 11 terms, none of
    the (5, 2) families more than 23, and a heap measured no faster.
    A left fold, a balanced tree, a nearest-neighbour fold and a fold
    sorted by denominator all measured slower on the trig (4, 2) builds."""
    fracs = list(fracs)
    while len(fracs) > 1:
        i, j = max(((i, j) for i in range(len(fracs)) for j in range(i + 1, len(fracs))),
                   key=lambda p: len(fracs[p[0]].den.keys() & fracs[p[1]].den.keys()))
        fracs[i] = fracs[i] + fracs.pop(j)
    return fracs[0]


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
# splitting a factor into its unit and atoms


def factor_atoms(p: Poly) -> Tuple[Poly, Dict[Atom, int]]:
    """Write p = unit * monomial content * at most one atom, or raise
    NotAtomFactorable; the atom dict returned is the caller's own.

    A linear form over z/w/p/x with two or more terms is split in one
    pass (_linear_split).  Otherwise the monomial content is peeled
    (_peel_content): unit variables go to the unit, the others become
    monomial atoms, and the primitive part left must be a scalar or one
    atom shape (_is_atom_shape), scaled to leading coefficient 1.  A
    product of two or more atoms is not split: the formulas hand every
    factor over on its own (factored.Factored.of).  Each distinct p is split
    once per process (_SPLITS), so all callers share one Atom per factor."""
    if p.is_zero():
        raise ZeroDivisionError("factoring zero")
    unit, atoms = _memo(_SPLITS, frozenset(p.terms.items()), _split, p.terms)
    return unit, dict(atoms)


# frozenset of a Poly's terms -> (unit, ((atom, multiplicity), ...)) of
# _split, a function of the terms alone; capped by _memo
_SPLITS: Dict[frozenset, tuple] = {}


def _split(terms: Dict[Monomial, Coeff]) -> tuple:
    """factor_atoms of the Poly with these terms and their exact bound."""
    split = _linear_split(p := Poly(terms))
    if split is None:
        unit, atoms, p = _peel_content(p)
        if not p.is_const():
            if not _is_atom_shape(p):
                raise NotAtomFactorable(f"cannot factor {p!r}: not a monomial times one atom")
            atom, p = _canonical_atom(p)
            atoms[atom] = 1
        split = unit * p, atoms
    return split[0], tuple(split[1].items())
