"""Packed monomials over one append-only variable index.

A monomial is one Python int, a packed exponent vector (Monagan &
Pearce, CASC 2007; JSC 2011): sum of e_v * 2^(FW * field(v)) with signed
FW-bit fields.  A product of monomials is an int sum, a quotient an int
difference, and 1 is 0.  Field numbers come from one append-only index
that gives each variable a field the first time the process sees it
(under a lock).  One index for the whole process means every polynomial
shares one layout, so operands never need repacking.  Outside the
kernel a monomial is written ((var, exp), ...) sorted by var (pack_mono
and unpack_mono convert).

Field numbers depend on the order in which a process meets its
variables, so nothing may depend on them.  The canonical term order is
graded lexicographic: total degree first, then exponents compared
variable by variable in var_precedence rank (z, w, v, eps, x, p, wh;
smaller indices first within a kind).  grlex computes it from decoded
fields; packed ints are never compared for order.  Callers keep
decoded monomials wherever a value must be the same in every process
(Atom keys, rendered text), so results do not depend on the index.
Packed monomials mean nothing outside the process that made them.

BIAS holds HALF in every assigned field, so the digits of m + BIAS are
the exponents of m plus HALF, all in 1..MASK, and can be read without
borrows.  Read BIAS as monomials.BIAS at the time of use: it grows with
the index.  FREE_TOP holds HALF in every assigned field of a non-unit
variable, so m has a negative exponent of a non-unit variable exactly
when (m + BIAS) & FREE_TOP != FREE_TOP; read it before BIAS, which gains
each field first.
"""

from __future__ import annotations

import threading
import zlib
from typing import Dict, Iterable, List, Tuple

Var = Tuple
Monomial = int

FW = 16  # bits per exponent field
HALF = 1 << (FW - 1)  # every |exponent| is below this
MASK = (1 << FW) - 1

FIELD: Dict[Var, int] = {}  # variable -> field number, never reassigned
VARS: List[Var] = []  # field number -> variable
PREC: List[tuple] = []  # field number -> var_precedence(variable)
RESIDUES: List[int] = []  # field number -> residue(variable)
BIAS = 0
FREE_TOP = 0
_INDEX_LOCK = threading.Lock()

_KIND_RANK = {"z": 0, "w": 1, "v": 2, "eps": 3, "x": 4, "p": 5, "wh": 6}
# kinds of the unit variables, whose exponents may be negative
UNIT_KINDS = frozenset({"v", "wh"})


def var_precedence(v: Var):
    """Smaller key = more significant variable (z, w, v, eps, x, p, wh;
    within a kind, smaller indices are more significant)."""
    return (_KIND_RANK[v[0]],) + tuple(v[1:])


def residue(u: Var) -> int:
    """Fixed residue of u mod 2^61 - 1, in [1, 2^32]: nonzero, so unit
    variables are invertible there.  Taken from a CRC of repr(u), not
    hash(), so it is the same in every process."""
    return zlib.crc32(repr(u).encode()) + 1


def field_of(v: Var) -> int:
    """Field number of v, assigned on first sight."""
    global BIAS, FREE_TOP
    k = FIELD.get(v)
    if k is None:
        prec = var_precedence(v)  # rejects unknown kinds before assigning
        with _INDEX_LOCK:
            k = FIELD.get(v)
            if k is None:
                k = len(VARS)
                VARS.append(v)
                PREC.append(prec)
                RESIDUES.append(residue(v))
                BIAS |= HALF << (FW * k)
                if v[0] not in UNIT_KINDS:
                    FREE_TOP |= HALF << (FW * k)
                FIELD[v] = k  # published last: readers see a complete entry
    return k


def pack_mono(items: Iterable[Tuple[Var, int]]) -> Monomial:
    """Pack ((var, exp), ...) into one int."""
    m = 0
    for v, e in items:
        if not -HALF < e < HALF:
            raise OverflowError(f"exponent {e} does not fit a {FW}-bit field")
        m += e << (FW * field_of(v))
    return m


def unpacked(m: Monomial):
    """(field number, exponent) of every nonzero field of m."""
    out = []
    k = 0
    while m:
        e = m & MASK
        if e >= HALF:
            e -= MASK + 1
        if e:
            out.append((k, e))
        m = (m - e) >> FW
        k += 1
    return out


def unpack_mono(m: Monomial) -> Tuple[Tuple[Var, int], ...]:
    """m as ((var, exp), ...) sorted by var, exp != 0."""
    return tuple(sorted((VARS[k], e) for k, e in unpacked(m)))


def exact_bound(monos) -> int:
    """Largest |exponent| over monos."""
    return max((abs(e) for m in monos for _, e in unpacked(m)), default=0)


def by_precedence(ks) -> tuple:
    """Field numbers ks ordered by var_precedence of their variables."""
    return tuple(sorted(ks, key=PREC.__getitem__))


def grlex(ks, sign: int = 1):
    """Key of the canonical term order over the fields ks, listed in
    var_precedence order: one int that compares as (total degree,
    exponent of ks[0], exponent of ks[1], ...), every field read with
    HALF added.  sign=-1 reverses the order."""
    shifts = [FW * k for k in ks]
    top = FW * len(ks)
    bias = BIAS

    def key(m: Monomial) -> int:
        y = m + bias
        deg = out = 0
        for s in shifts:
            d = (y >> s) & MASK
            deg += d
            out = (out << FW) | d
        return sign * ((deg << top) | out)

    return key
