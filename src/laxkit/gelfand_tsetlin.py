"""Parabolic Gelfand-Tsetlin combinatorics and the gauge comparison.

A Young diagram of size n with empty last row fixes a parabolic pattern
shape: coordinate (i, k) is frozen when k lies deep enough inside its
column block, and the non-frozen coordinates of row i biject with the
slots of the difference algebra attached to the divisor

    sum_k  (fundamental coweight of index n - height_k) [x_k]
    - (index-0 fundamental coweight) [infinity].

The tridiagonal images of the enveloping-algebra generators land in that
algebra; conjugating the Lax matrix by the Gamma-product and translation
gauges must reproduce them under the identification of each point with
the shifted highest-weight parameter of its column.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .algebra import AlgebraElement, GammaGauge, MonomialGauge, ShiftMonomial
from .coweight import Divisor, PseudoYoungDiagram, fundamental_coweight
from .errors import BadDiagram
from .lax_rational import build_lax
from .ratfun import Poly, RatFun, Z, p_var, x_var


@dataclass
class GTLayout:
    blambda: PseudoYoungDiagram
    n: int
    heights: Tuple[int, ...]  # column heights
    frozen: Tuple[Tuple[int, ...], ...]  # per row (1..n-1), frozen coordinates
    nonfrozen: Tuple[Tuple[int, ...], ...]  # per row, the sets J_i (sorted)
    point_labels: Tuple[str, ...]

    def slots(self, i: int) -> Tuple[int, ...]:
        """Non-frozen coordinates of row i (empty for i >= n)."""
        if i <= 0 or i >= self.n:
            return ()
        return self.nonfrozen[i - 1]

    def slot_of(self, i: int, k: int) -> int:
        """1-based slot index of non-frozen coordinate k in row i."""
        return self.slots(i).index(k) + 1

    def divisor(self) -> Divisor:
        pts = [
            (self.point_labels[c], fundamental_coweight(self.n, self.n - h))
            for c, h in enumerate(self.heights)
        ]
        return Divisor.make(
            self.n, "rational", pts, -fundamental_coweight(self.n, 0)
        )


def layout(blambda: PseudoYoungDiagram, n: int) -> GTLayout:
    """Frozen-coordinate combinatorics; cross-checks |J_i| against the
    divisor's slot counts."""
    if blambda.n != n or blambda.size() != n or not blambda.is_young():
        raise BadDiagram("need a Young diagram of total size n")
    heights = blambda.transpose()
    labels = tuple(f"x{c+1}" for c in range(len(heights)))
    partial = [0]
    for h in heights:
        partial.append(partial[-1] + h)
    frozen_rows: List[Tuple[int, ...]] = []
    nonfrozen_rows: List[Tuple[int, ...]] = []
    for i in range(1, n):
        frozen = []
        nonfrozen = []
        for k in range(1, i + 1):
            a = next(
                idx for idx in range(1, len(partial)) if partial[idx - 1] < k <= partial[idx]
            )
            if k <= partial[a] - (n - i):
                frozen.append(k)
            else:
                nonfrozen.append(k)
        frozen_rows.append(tuple(frozen))
        nonfrozen_rows.append(tuple(nonfrozen))
    lay = GTLayout(
        blambda=blambda,
        n=n,
        heights=heights,
        frozen=tuple(frozen_rows),
        nonfrozen=tuple(nonfrozen_rows),
        point_labels=labels,
    )
    a_vec = lay.divisor().a_vector()
    for i in range(1, n):
        if len(lay.slots(i)) != a_vec[i - 1]:
            raise BadDiagram(
                f"|J_{i}| = {len(lay.slots(i))} but a_{i} = {a_vec[i-1]}"
            )
    return lay


def _pvar(lay: GTLayout, i: int, k: int) -> Poly:
    return Poly.variable(p_var(i, lay.slot_of(i, k)))


def _yprime(lay: GTLayout, a: int) -> Poly:
    """The shifted highest-weight parameter of column a, identified with
    the column's point symbol."""
    return Poly.variable(x_var(lay.point_labels[a - 1]))


def gt_images(lay: GTLayout) -> Dict[Tuple[int, int], AlgebraElement]:
    """Images of the tridiagonal enveloping-algebra generators: keys
    (i, i), (i, i+1), (i+1, i)."""
    sig = lay.divisor().signature()
    n = lay.n
    out: Dict[Tuple[int, int], AlgebraElement] = {}
    for i in range(1, n + 1):
        val = RatFun.zero()
        for k in lay.slots(i):
            val = val + RatFun.from_poly(_pvar(lay, i, k))
        for k in lay.slots(i - 1):
            val = val - RatFun.from_poly(_pvar(lay, i - 1, k))
        for a in range(1, len(lay.heights) + 1):
            if lay.heights[a - 1] >= n - i + 1:
                val = val + RatFun.from_poly(_yprime(lay, a) - Poly.const(i))
        val = val + (i - 1)
        out[(i, i)] = AlgebraElement.from_ratfun(sig, val)
    for i in range(1, n):
        raise_img = AlgebraElement.zero(sig)
        lower_img = AlgebraElement.zero(sig)
        for k in lay.slots(i):
            pk = _pvar(lay, i, k)
            up = RatFun.one()
            for m in lay.slots(i + 1):
                up = up * RatFun.from_poly(_pvar(lay, i + 1, m) - pk + Poly.const(1))
            for m in lay.slots(i):
                if m == k:
                    continue
                up = up * RatFun.ratio(
                    Poly.const(1), _pvar(lay, i, m) - pk + Poly.const(1)
                )
            for a in range(1, len(lay.heights) + 1):
                if lay.heights[a - 1] >= n - i:
                    up = up * RatFun.from_poly(_yprime(lay, a) - pk - Poly.const(i))
            raise_img = raise_img + AlgebraElement(
                sig, {ShiftMonomial.generator(i, lay.slot_of(i, k), 1): -up}
            )
            dn = RatFun.one()
            for m in lay.slots(i - 1):
                dn = dn * RatFun.from_poly(_pvar(lay, i - 1, m) - pk - Poly.const(1))
            for m in lay.slots(i):
                if m == k:
                    continue
                dn = dn * RatFun.ratio(
                    Poly.const(1), _pvar(lay, i, m) - pk - Poly.const(1)
                )
            for a in range(1, len(lay.heights) + 1):
                if lay.heights[a - 1] >= n - i + 1:
                    dn = dn * RatFun.ratio(
                        Poly.const(1), _yprime(lay, a) - pk - Poly.const(i + 1)
                    )
            lower_img = lower_img + AlgebraElement(
                sig, {ShiftMonomial.generator(i, lay.slot_of(i, k), -1): dn}
            )
        out[(i, i + 1)] = raise_img
        out[(i + 1, i)] = lower_img
    return out


def gauge_factors(lay: GTLayout) -> Tuple[GammaGauge, MonomialGauge]:
    """The Gamma-product gauge and the translation/sign gauge of the
    comparison."""
    div = lay.divisor()
    sig = div.signature()
    n = lay.n
    a = lambda i: sig.a(i)
    factors: List[Tuple[Poly, int]] = []
    for i in range(1, n - 1):
        for r in range(1, a(i) + 1):
            for s in range(1, a(i + 1) + 1):
                factors.append(
                    (
                        Poly.variable(p_var(i, r))
                        - Poly.variable(p_var(i + 1, s))
                        + Poly.const(1),
                        1,
                    )
                )
    for i in range(1, n):
        for r in range(1, a(i) + 1):
            for col, h in enumerate(lay.heights):
                if (n - h) <= i - 1:  # point index i_k <= i-1
                    factors.append(
                        (
                            Poly.variable(p_var(i, r))
                            - Poly.variable(x_var(lay.point_labels[col]))
                            + Poly.const(1),
                            1,
                        )
                    )
    for i in range(1, n):
        for r in range(1, a(i) + 1):
            for s in range(1, a(i) + 1):
                if r != s:
                    factors.append(
                        (
                            Poly.variable(p_var(i, s)) - Poly.variable(p_var(i, r)),
                            -1,
                        )
                    )
    gamma = GammaGauge(tuple(factors))
    bl = lay.blambda.rows
    shifts = []
    signs = []
    for i in range(1, n):
        for r in range(1, a(i) + 1):
            shifts.append(((i, r), Fraction(i)))
            signs.append(((i, r), bl[n - i] % 2))
    mono = MonomialGauge(tuple(shifts), tuple(signs))
    return gamma, mono


@dataclass
class GTComparison:
    ok: bool
    mismatches: List[Tuple[int, int]]
    gauged: Dict[Tuple[int, int], AlgebraElement]
    expected: Dict[Tuple[int, int], AlgebraElement]


def gauge_and_compare(blambda: PseudoYoungDiagram, n: int) -> GTComparison:
    """Conjugate the built Lax matrix by both gauges and compare its
    tridiagonal entries with the pattern-formula images under the
    evaluation map (diagonal: z - generator - 1)."""
    lay = layout(blambda, n)
    div = lay.divisor()
    T = build_lax(div)
    gamma, mono = gauge_factors(lay)
    conj = lambda e: mono.conjugate(gamma.conjugate(e))
    images = gt_images(lay)
    sig = T.signature
    z_elem = AlgebraElement.from_ratfun(sig, RatFun.variable(Z))
    gauged: Dict[Tuple[int, int], AlgebraElement] = {}
    expected: Dict[Tuple[int, int], AlgebraElement] = {}
    mismatches: List[Tuple[int, int]] = []
    for i in range(1, n + 1):
        gauged[(i, i)] = conj(T.entry(i, i))
        expected[(i, i)] = z_elem - images[(i, i)] - AlgebraElement.one(sig)
        if not gauged[(i, i)].equals(expected[(i, i)]):
            mismatches.append((i, i))
    for i in range(1, n):
        for pos in ((i, i + 1), (i + 1, i)):
            gauged[pos] = conj(T.entry(*pos))
            expected[pos] = images[pos]
            if not gauged[pos].equals(expected[pos]):
                mismatches.append(pos)
    return GTComparison(
        ok=not mismatches, mismatches=mismatches, gauged=gauged, expected=expected
    )

