"""Exact modular rejection test for trial division by linear atoms.

RatFun._make calls cannot_divide(num, atom) before each trial division
of a numerator by a denominator atom.  It evaluates num modulo the
prime 2^61 - 1 at a zero of the atom; a nonzero value proves that the
atom does not divide num, so the division is skipped.  The test never
decides "divides": every verdict and every reduced form is the one
division would give.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from . import monomials as mono
from .monomials import FW, HALF, MASK, RESIDUES, VARS, Monomial, unpacked

if TYPE_CHECKING:
    from .ratfun import Atom, Coeff, Poly

# variable kinds of rational-mode (linear) atoms
LINEAR_ATOM_KINDS = frozenset({"z", "w", "p", "x"})

P61 = (1 << 61) - 1


def _mod_p(c: Coeff) -> Optional[int]:
    """c mod P61, or None when its denominator is divisible by P61."""
    if c.__class__ is int:
        return c % P61
    d = c.denominator % P61
    if not d:
        return None
    return c.numerator * pow(d, -1, P61) % P61


def _linear_root(p: Poly):
    """(field of v, r, r / residue(v) mod P61) for a linear form
    p = c*v + rest over z/w/p/x whose coefficients are integral mod P61,
    c a unit there: p vanishes mod P61 at v = r when every other
    variable u is set to residue(u) (see monomials).  False when p is
    not of that shape."""
    k = c = None
    rest = 0
    for m, cm in p.terms.items():
        cm = _mod_p(cm)
        if cm is None:
            return False
        if not m:
            rest += cm
            continue
        # a single variable to the first power is one set bit at a field start
        ku, off = divmod(m.bit_length() - 1, FW)
        if m < 0 or m & (m - 1) or off or VARS[ku][0] not in LINEAR_ATOM_KINDS:
            return False
        if k is None and cm:
            k, c = ku, cm
        else:
            rest += cm * RESIDUES[ku]
    if k is None:
        return False
    r = -rest * pow(c, -1, P61) % P61
    return k, r, r * pow(RESIDUES[k], -1, P61) % P61


def cannot_divide(num: Poly, atom: Atom) -> bool:
    """True only when the atom provably does not divide num.

    The test applies to linear atoms a = c*v + rest (all rational-mode
    atoms; _linear_root picks a variable v whose coefficient c is a unit
    mod P = 2^61 - 1) and to numerators whose coefficients are integral
    mod P.  Let R = Z_(P)[other variables, unit variables^-1].  Atoms have
    leading coefficient 1, so a is primitive over the local ring Z_(P),
    and it is monic in v up to the unit c.  By Gauss's lemma (here:
    division by a polynomial monic in v), if num = q * a exactly then q
    lies in R[v], i.e. q is P-integral.

    Setting v = r (the zero of a mod P) and every other u to
    residue(u) (nonzero, so units map to units) is a ring map
    R[v] -> F_P; it sends num to q(pt) * a(pt) = 0.  So a nonzero value
    num(pt) is a certificate that a does not divide num.  When num has a
    negative power of v, v must map to a unit too, so r = 0 (monomial
    atoms such as z) decides nothing.  Neither does a zero value, a
    non-linear (trig) atom or a coefficient whose denominator is
    divisible by P; the caller then divides as before.  No verdict and
    no reduced form can differ from plain trial division."""
    root = atom._root
    if root is None:
        root = atom._root = _linear_root(atom.poly)
    if not root:
        return False
    val = _value_mod_p(num, root)
    return val is not None and val != 0


def _value_mod_p(p: Poly, root) -> Optional[int]:
    """p mod P at the point of root (see cannot_divide), or None when
    that point gives no verdict for p.  A monomial's value there is its
    value with every variable at its residue (memoized per monomial),
    times (r / residue of v)^(exponent of v)."""
    kv, _, rho = root
    s = FW * kv if kv in p._fields() else None
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
        if s is not None:
            e = ((m + bias) >> s & MASK) - HALF
            f = powers.get(e)
            if f is None:
                if e < 0 and not rho:
                    return None  # v^-k with v at 0: no ring map, no verdict
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
