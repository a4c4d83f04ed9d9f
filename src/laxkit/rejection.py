"""Prime atoms and the exact modular rejection test for trial division.

An atom is *prime* when it has the shape A*u + B: u a non-unit variable
(z, w, p, x, eps) at exponent 1, A a scalar times a Laurent monomial in
the unit variables v and wh, B free of u.  Every rational-mode atom (a
linear form), every single-variable atom and a trig atom such as
v^k*w[i,r] - z have it; w[1,1] - v^2*w[1,2] does not (it is
(wh11 - v*wh12)(wh11 + v*wh12)).  atom_root finds that shape, memoized
per atom key; RatFun's cancellation rules lean on it (see ratfun), and
prime_parts gives the split that poly.synthetic_div divides by.

RatFun's trial divisions call cannot_divide(num, atom) first.  It
evaluates num modulo the prime 2^61 - 1 at a zero of a prime atom; a
nonzero value proves that the atom does not divide num, so the division
is skipped.  The test never decides "divides": every verdict and every
reduced form is the one division would give.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from . import monomials as mono
from .monomials import FW, HALF, MASK, RESIDUES, UNIT_KINDS, VARS, Monomial, unpacked

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


def _linear_root(p: Poly):
    """(field of u, r / residue(u) mod P61) for p = A*u + B of the prime
    shape (see the module docstring) whose coefficients are integral mod
    P61, A's scalar a unit there: p vanishes mod P61 at u = r when every
    other variable is at its residue (see monomials).  False when p has
    no such shape."""
    terms = []
    for m, c in p.terms.items():
        c = _mod_p(c)
        if c is None:
            return False
        terms.append((m, c, unpacked(m)))
    for m, c, fields in terms:
        if not c:
            continue
        free = [(k, e) for k, e in fields if VARS[k][0] not in UNIT_KINDS]
        if len(free) != 1 or free[0][1] != 1:
            continue
        k = free[0][0]
        if any(mo != m and any(kk == k for kk, _ in fl) for mo, _, fl in terms):
            continue
        # A(pt) * r + B(pt) = 0 with A(pt) * r = c * residue(m) * (r / residue(u))
        b = sum(co * _mono_residue(mo) for mo, co, _ in terms if mo != m)
        return k, -b * pow(c * _mono_residue(m), -1, P61) % P61
    return False


def atom_root(atom: Atom):
    """_linear_root of the atom's polynomial: cached on the atom, and
    memoized per atom key because atoms are rebuilt all the time."""
    root = atom._root
    if root is None:
        root = _ROOTS.get(atom.key)
        if root is None:
            root = _linear_root(atom.poly)
            if len(_ROOTS) >= _ROOTS_CAP:
                _ROOTS.clear()
            _ROOTS[atom.key] = root
        atom._root = root
    return root


# atom key -> _linear_root; a function of the key alone, cleared when full
_ROOTS: Dict[tuple, object] = {}
_ROOTS_CAP = 1 << 12


def prime_parts(atom: Atom):
    """(bit offset of u, A's monomial, A's coefficient, B's terms) of a
    prime atom A*u + B, u the variable atom_root picks: the operands of
    poly.synthetic_div.  Cached on the atom; None when it is not prime."""
    parts = atom._parts
    if parts is None:
        root = atom_root(atom)
        parts = False
        if root:
            s = FW * root[0]
            bias = mono.BIAS
            b = []
            for m, c in atom.poly.terms.items():
                if ((m + bias) >> s & MASK) - HALF:  # the one term holding u
                    am, ac = m - (1 << s), c
                else:
                    b.append((m, c))
            parts = (s, am, ac, tuple(b))
        atom._parts = parts
    return parts or None


def cannot_divide(num: Poly, atom: Atom) -> bool:
    """True only when the atom provably does not divide num.

    The test applies to prime atoms a = A*u + B (atom_root picks u; A's
    scalar must be a unit mod P = 2^61 - 1) and to numerators whose
    coefficients are integral mod P.  Let R = Z_(P)[other variables and
    their inverses].  A is a unit of R, so a is monic in u up to a unit
    and, by Gauss's lemma (here: division by a polynomial whose leading
    coefficient in u is a unit), if num = q * a exactly then q lies in
    R[u, u^-1], i.e. q is P-integral.

    Setting u = r (the zero of a mod P) and every other variable to
    its residue (nonzero, so units map to units) is a ring map to F_P; it
    sends num to q(pt) * a(pt) = 0.  So a nonzero value num(pt) is a
    certificate that a does not divide num.  When num has a negative
    power of u, u must map to a unit too, so r = 0 (monomial atoms such
    as z) decides nothing.  Neither does a zero value, a non-prime atom
    or a coefficient whose denominator is divisible by P; the caller then
    divides as before.  No verdict and no reduced form can differ from
    plain trial division."""
    root = atom_root(atom)
    if not root:
        return False
    val = _value_mod_p(num, root)
    return val is not None and val != 0


def _value_mod_p(p: Poly, root) -> Optional[int]:
    """p mod P at the point of root (see cannot_divide), or None when
    that point gives no verdict for p.  A monomial's value there is its
    value with every variable at its residue (memoized per monomial),
    times (r / residue of u)^(exponent of u).  u's field is assigned (the
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
