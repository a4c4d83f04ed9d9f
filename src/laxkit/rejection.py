"""Prime atoms and the exact modular rejection test for trial division.

An atom is *prime* when it has the shape A*u + B: u a non-unit variable
(z, w, p, x, eps) at exponent 1, A a scalar times a Laurent monomial in
the unit variables v and wh, B free of u.  Every rational-mode atom (a
linear form), every single-variable atom and a trig atom such as
v^k*w[i,r] - z have it; w[1,1] - v^2*w[1,2] does not (it is
(wh11 - v*wh12)(wh11 + v*wh12)).  _linear_root finds that shape and
its zero; RatFun's cancellation rules lean on it (see ratfun), and
prime_parts gives the split that poly.synthetic_div divides by.  Every
atom without that shape has two terms, and poly.binomial_div divides by
it.  Each ratfun.Atom runs these once, when it is made, and keeps the
results as its root, zero and parts.

RatFun's trial divisions call cannot_divide(num, atom) first.  It
evaluates num modulo the prime 2^61 - 1 at a zero of the atom; a
nonzero value proves that the atom does not divide num, so the division
is skipped.  The zero (Atom.zero) is the root for a prime atom and, for a
two-term atom c1*m1 + c2*m2 such as the trig slot atom
v^2*w[1,2] - w[1,1], a root of it in one variable (_binomial_root),
where one exists mod 2^61 - 1; such an atom stays non-prime everywhere
else.  The test never decides "divides": every verdict and every
reduced form is the one division would give.
"""

from __future__ import annotations

from math import gcd
from typing import TYPE_CHECKING, Dict, Optional

from . import monomials as mono
from .monomials import FW, HALF, MASK, PREC, RESIDUES, UNIT_KINDS, VARS, Monomial, unpacked

if TYPE_CHECKING:
    from .poly import Coeff, Poly
    from .ratfun import Atom

P61 = (1 << 61) - 1


def _mod_p(c: Coeff) -> Optional[int]:
    """c mod P61, or None when its denominator is divisible by P61."""
    if c.__class__ is int:
        return c % P61
    d = c.denominator % P61
    if not d:
        return None
    return c.numerator * pow(d, -1, P61) % P61


def _prime_terms(p: Poly):
    """(field of u, the term A*u) for each u that writes p as A*u + B of
    the prime shape (see the module docstring), in the order of p's terms."""
    terms = [(m, unpacked(m)) for m in p.terms]
    for m, fields in terms:
        free = [(k, e) for k, e in fields if VARS[k][0] not in UNIT_KINDS]
        if len(free) == 1 and free[0][1] == 1:
            k = free[0][0]
            if not any(mo != m and any(kk == k for kk, _ in fl) for mo, fl in terms):
                yield k, m


def _linear_root(p: Poly):
    """(field of u, r / residue(u) mod P61) for p = A*u + B of the prime
    shape whose coefficients are integral mod P61, A's scalar a unit
    there: p vanishes mod P61 at u = r when every other variable is at
    its residue (see monomials).  False when p has no such shape."""
    coeffs = {}
    for m, c in p.terms.items():
        c = _mod_p(c)
        if c is None:
            return False
        coeffs[m] = c
    for k, m in _prime_terms(p):
        c = coeffs[m]
        if c:
            # A(pt) * r + B(pt) = 0 with A(pt) * r = c * residue(m) * (r / residue(u))
            b = sum(co * _mono_residue(mo) for mo, co in coeffs.items() if mo != m)
            return k, -b * pow(c * _mono_residue(m), -1, P61) % P61
    return False


def _binomial_root(p: Poly):
    """(field of u, r / residue(u) mod P61) for a two-term p = c1*m1 +
    c2*m2 whose coefficients are units mod P61: p vanishes mod P61 at
    u = r when every other variable is at its residue.  u is the variable
    whose exponents in m1 and m2 differ by the least d != 0 (ties to the
    most significant variable), taken as m1's minus m2's with d > 0, and
    t = r / residue(u) solves t^d = -c2*R(m2) / (c1*R(m1)), R a monomial's
    value at the residues.  That root is rhs^(1/d mod P61 - 1) when d is
    prime to P61 - 1, and for d = 2 it is rhs^((P61 + 1) / 4) (P61 is
    3 mod 4) when rhs is a square.  False in every other case."""
    if len(p.terms) != 2:
        return False
    (m1, c1), (m2, c2) = p.terms.items()
    c1, c2 = _mod_p(c1), _mod_p(c2)
    if not (c1 and c2):
        return False
    e1, e2 = dict(unpacked(m1)), dict(unpacked(m2))
    diffs = {k: e1.get(k, 0) - e2.get(k, 0) for k in e1.keys() | e2.keys()}
    k = min((k for k, d in diffs.items() if d), key=lambda k: (abs(diffs[k]), PREC[k]))
    d = diffs[k]
    if d < 0:
        d, m1, c1, m2, c2 = -d, m2, c2, m1, c1
    rhs = -c2 * _mono_residue(m2) * pow(c1 * _mono_residue(m1), -1, P61) % P61
    if gcd(d, P61 - 1) == 1:
        return k, pow(rhs, pow(d, -1, P61 - 1), P61)
    if d == 2:
        t = pow(rhs, (P61 + 1) // 4, P61)
        if t * t % P61 == rhs:
            return k, t
    return False


def prime_parts(p: Poly):
    """(bit offset of u, A's monomial, A's coefficient, B's terms) of p of
    the prime shape A*u + B: the operands of poly.synthetic_div.  u is the
    variable _linear_root picks, or the first _prime_terms gives where a
    coefficient leaves no root mod P61.  False when p has no such shape."""
    shape = _linear_root(p) or next(_prime_terms(p), False)
    if not shape:
        return False
    s = FW * shape[0]
    bias = mono.BIAS
    b = []
    for m, c in p.terms.items():
        if ((m + bias) >> s & MASK) - HALF:  # the one term holding u
            am, ac = m - (1 << s), c
        else:
            b.append((m, c))
    return s, am, ac, tuple(b)


def cannot_divide(num: Poly, atom: Atom) -> bool:
    """True only when the atom provably does not divide num.

    The test applies to atoms with a zero mod P = 2^61 - 1 (Atom.zero)
    and to numerators whose coefficients are integral mod P.  Let R =
    Z_(P)[every variable and its inverse], a UFD.  The atom a has a
    coefficient that is a unit of Z_(P), so it is primitive:

      * a prime atom A*u + B (_linear_root picks u) is used only when A's
        scalar is a unit mod P;
      * a two-term atom c1*m1 + c2*m2 (_binomial_root) only when both c1
        and c2 are.

    By Gauss's lemma, if num = q * a exactly, with q's coefficients
    rational, then q lies in R, i.e. q is P-integral.

    Setting u to the atom's zero mod P and every other variable to its
    residue (nonzero, so units map to units) is a ring map to F_P; it
    sends num to q(pt) * a(pt) = 0.  So a nonzero value num(pt) is a
    certificate that a does not divide num.  When num has a negative
    power of u, u must map to a unit too, so a zero at u = 0 (monomial
    atoms such as z) decides nothing (a two-term atom's zero is never 0:
    both its terms are units at the residues).  Neither does a zero
    value, an atom without a zero (a two-term one whose root does not
    exist or is not computed, see _binomial_root) or a coefficient whose
    denominator is divisible by P; the numerator is then divided by the
    atom (ratfun.poly_div_exact).  No verdict and no reduced form can differ
    from plain trial division.

    The test stays because it pays: with every trial division run
    instead, perfbench's kernel_random workload (many small RatFun
    operations) took 10-26% more wall time."""
    zero = atom.zero
    if not zero:
        return False
    val = _value_mod_p(num, zero)
    return val is not None and val != 0


def _value_mod_p(p: Poly, root) -> Optional[int]:
    """p mod P at the point of root, an Atom.zero (see cannot_divide), or
    None when that point gives no verdict for p.  A monomial's value
    there is its value with every variable at its residue (memoized per
    monomial), times (r / residue of u)^(exponent of u).  u's field is assigned (the
    atom holds u), so it decodes to 0 in a monomial without u."""
    kv, rho = root
    s = FW * kv
    bias = mono.BIAS
    memo = _MONO_RESIDUES
    powers = {0: 1}  # exponent of v -> rho^exponent
    total = 0
    for m, c in p.terms.items():
        if c.__class__ is not int:
            c = _mod_p(c)
            if c is None:
                return None
        r = memo.get(m)
        if r is None:
            r = _mono_residue(m)
        e = ((m + bias) >> s & MASK) - HALF
        f = powers.get(e)
        if f is None:
            if e < 0 and not rho:
                return None  # u^-k with u at 0: no ring map, no verdict
            f = powers[e] = pow(rho, e, P61)
        r *= f
        total += c * r
    return total % P61


# monomial -> product of RESIDUES^exponent mod P; a function of the
# monomial alone, cleared when full
_MONO_RESIDUES: Dict[Monomial, int] = {}
_MONO_RESIDUES_CAP = 1 << 14


def _mono_residue(m: Monomial) -> int:
    r = 1
    for k, e in unpacked(m):
        r = r * pow(RESIDUES[k], e, P61) % P61
    if len(_MONO_RESIDUES) >= _MONO_RESIDUES_CAP:
        _MONO_RESIDUES.clear()
    _MONO_RESIDUES[m] = r
    return r
