"""Factored products: the form Gauss coefficients are built in.

A Factored value is c * u * prod a^e over atoms a (ratfun.Atom): a
nonzero coefficient c, a monomial u in the unit variables v and wh, and
a signed exponent per atom, with nothing multiplied out.  A product
adds exponents, and a slot shift, a ring automorphism, maps each atom
through ratfun's memoized images and moves u, so no numerator is
rescaled.  expand multiplies a product out by the product rule of
ratfun's docstring (RatFun.product is Factored.product expanded).  The
Lax-matrix builders (lax_rational) keep every Gauss coefficient in this
form until T = F G E expands its products and sums them
(ratfun.merged_sum).
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from .monomials import FW, HALF, Monomial
from .poly import Poly, _q, _qdiv
from .ratfun import _IMAGES, _UNSEEN, Atom, RatFun, _atom_image, _memo, factor_atoms, shift_map


class Factored:
    """c * um * prod a^e: um a packed monomial in unit variables with
    |exponent| <= eb, exps atom -> nonzero signed exponent e."""

    __slots__ = ("c", "um", "eb", "exps")

    def __init__(self, c, um: Monomial, eb: int, exps: Dict[Atom, int]):
        self.c, self.um, self.eb, self.exps = c, um, eb, exps

    @staticmethod
    def of(p: Poly) -> "Factored":
        """p split by factor_atoms."""
        unit, atoms = factor_atoms(p)
        (um, c), = unit.terms.items()
        return Factored(c, um, unit._eb, atoms)

    @staticmethod
    def product(c, parts: Iterable[Tuple["Factored", int]]) -> "Factored":
        """c * prod f^e over the (Factored, exponent) parts."""
        um = eb = 0
        exps: Dict[Atom, int] = {}
        get = exps.get
        for f, e in parts:
            if not e:
                continue
            um += f.um * e
            eb += f.eb * abs(e)
            c = c * f.c ** e if e > 0 else _qdiv(c, f.c ** -e)
            for a, m in f.exps.items():
                exps[a] = get(a, 0) + m * e
        return Factored(_q(c), um, eb, {a: m for a, m in exps.items() if m})

    def __mul__(self, other: "Factored") -> "Factored":
        exps = dict(self.exps)
        for a, m in other.exps.items():
            m += exps.get(a, 0)
            if m:
                exps[a] = m
            else:
                del exps[a]
        c = self.c * other.c
        return Factored(c if c.__class__ is int else _q(c), self.um + other.um,
                        self.eb + other.eb, exps)

    def shift(self, mode: str, moves: tuple) -> "Factored":
        """The image under the shift monomial of the (slot, i, r, m) moves
        (shift_map): the unit monomial is moved, each atom is mapped
        through _IMAGES under the key (mode, moves), as substitute does."""
        fn = shift_map(mode, moves)
        key = (mode, moves)
        # a rational shift moves p, which no unit monomial holds
        unit = fn(self._unit()) if mode == "trig" else self._unit()
        (um, c), = unit.terms.items()
        eb = unit._eb
        exps: Dict[Atom, int] = {}
        get = _IMAGES.get
        for a, m in self.exps.items():
            image = get((a, key), _UNSEEN)
            if image is _UNSEEN:
                image = _memo(_IMAGES, (a, key), _atom_image, a, fn)
            if image is None:  # fn leaves this atom alone
                exps[a] = exps.get(a, 0) + m
                continue
            inv, atoms = image
            if inv is not None:  # a^m -> inv^-m * (the image's atoms)^m
                (im, ic), = inv.terms.items()
                um -= im * m
                eb += inv._eb * abs(m)
                c = _q(c * ic ** -m) if m < 0 else _qdiv(c, ic ** m)
            for na, nm in atoms.items():
                exps[na] = exps.get(na, 0) + nm * m
        return Factored(c, um, eb, exps)

    def _unit(self) -> Poly:
        """c * um as a Poly, once its bound is known to fit a field."""
        if self.eb >= HALF:
            raise OverflowError(f"exponents up to {self.eb} do not fit a {FW}-bit field")
        return Poly({self.um: self.c}, self.eb)

    def expand(self) -> RatFun:
        """Multiplied out by the product rule of ratfun's docstring:
        nothing is divided, unless a non-prime atom holds a non-unit
        variable (then _make reduces)."""
        num = self._unit()
        den: Dict[Atom, int] = {}
        for a, m in self.exps.items():
            if m > 0:
                num = num * a.poly ** m
            else:
                den[a] = -m
        if all(a.root or a.unit_only for a in self.exps):
            return RatFun(num, den)
        return RatFun._make(num, den)

