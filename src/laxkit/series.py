"""Truncated Laurent series with exactness tracking.

Coefficients live in any ring with +, -, * and an is_zero() predicate
(RatFun, or difference-operator elements for the noncommutative series
used by the Gauss decomposition).  A series stores a dict power ->
coefficient together with `hi`, the largest power known exactly; hi=None
means the series is exact (a Laurent polynomial).  Multiplication keeps
the convolution order, so noncommutative coefficients are safe.

Each coefficient of a product is one sum of products x * y, formed by
the coefficient ring's own rule when its zero has a sum_of_products
method (AlgebraElement: every shift coefficient reduced once, as in
algebra.mat_mul), else by adding the products one by one.  The
reciprocal takes its coefficients from a recurrence, one such sum per
power, not from powers of a series.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from .errors import PoleAtExpansionPoint


class TruncSeries:
    __slots__ = ("coeffs", "hi", "zero")

    def __init__(self, coeffs: Dict[int, object], hi: Optional[int], zero):
        self.zero = zero
        if hi is None:
            self.coeffs = {k: c for k, c in coeffs.items() if not _is_zero(c)}
        else:
            self.coeffs = {
                k: c for k, c in coeffs.items() if k <= hi and not _is_zero(c)
            }
        self.hi = hi

    def is_exact_zero(self) -> bool:
        return not self.coeffs and self.hi is None

    def val(self) -> Optional[int]:
        """Lowest known power with a nonzero coefficient (None if none seen)."""
        return min(self.coeffs) if self.coeffs else None

    def coeff(self, k: int):
        if self.hi is not None and k > self.hi:
            raise ValueError(f"coefficient {k} beyond exact window {self.hi}")
        return self.coeffs.get(k, self.zero)

    def is_zero_through(self, k: int) -> bool:
        if self.hi is not None and k > self.hi:
            raise ValueError(f"window too small ({self.hi} < {k})")
        return all(kk > k for kk in self.coeffs)

    def truncate(self, hi: Optional[int]) -> "TruncSeries":
        if hi is None:
            return self
        if self.hi is not None:
            hi = min(hi, self.hi)
        return TruncSeries(self.coeffs, hi, self.zero)

    def shift_powers(self, d: int) -> "TruncSeries":
        return TruncSeries(
            {k + d: c for k, c in self.coeffs.items()},
            None if self.hi is None else self.hi + d,
            self.zero,
        )

    def map_coeffs(self, fn) -> "TruncSeries":
        return TruncSeries(
            {k: fn(c) for k, c in self.coeffs.items()}, self.hi, self.zero
        )

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        hi = _min_hi(self.hi, other.hi)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            cur = out.get(k)
            out[k] = c if cur is None else cur + c
        return TruncSeries(out, hi, self.zero)

    def __neg__(self) -> "TruncSeries":
        return TruncSeries({k: -c for k, c in self.coeffs.items()}, self.hi, self.zero)

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        return self + (-other)

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        return self.mul(other)

    def mul(self, other: "TruncSeries", cap: Optional[int] = None) -> "TruncSeries":
        """self * other, truncated at cap when one is given: the same as
        (self * other).truncate(cap), with no power above cap formed."""
        if self.is_exact_zero() or other.is_exact_zero():
            return TruncSeries({}, cap, self.zero)
        # valuations; with no known coefficient, every power through hi is 0
        sv = self.val() if self.coeffs else self.hi + 1
        ov = other.val() if other.coeffs else other.hi + 1
        hi = cap
        if self.hi is not None:
            hi = _min_hi(hi, self.hi + ov)
        if other.hi is not None:
            hi = _min_hi(hi, other.hi + sv)
        pairs: Dict[int, list] = {}
        for ka, ca in self.coeffs.items():
            for kb, cb in other.coeffs.items():
                k = ka + kb
                if hi is None or k <= hi:
                    pairs.setdefault(k, []).append((ca, cb))
        dot = _dot_rule(self.zero)
        return TruncSeries({k: dot(p) for k, p in pairs.items()}, hi, self.zero)

    def inverse(self, order: int, invert_leading: Callable) -> "TruncSeries":
        """Reciprocal, exact through power min(order, hi - 2*val).

        Writes s = t^v c0 (1 - u) with val(u) >= 1; the leading coefficient
        c0 is inverted by the callback.  Then s^{-1} = a t^{-v} with
        a = (1 - u)^{-1} c0^{-1}, so a = c0^{-1} + u a: a_0 = c0^{-1} and
        a_k = sum_{j=1..k} u_j a_{k-j}, one sum of products per power (one
        product when u is a single term), never a power of u.  The factors
        keep their order, so noncommutative coefficients are safe.
        """
        v = self.val()
        if v is None:
            raise PoleAtExpansionPoint(
                "no leading term visible in the expansion window"
            )
        target = order
        if self.hi is not None:
            target = min(target, self.hi - 2 * v)
        c0_inv = invert_leading(self.coeffs[v])
        window = target + v  # a is needed through t^window; u is exact there
        u = [(k - v, -(c0_inv * c)) for k, c in self.coeffs.items() if v < k <= v + window]
        dot = _dot_rule(self.zero)
        a = [c0_inv]
        for k in range(1, window + 1):
            pairs = [(uj, a[k - j]) for j, uj in u if j <= k]
            a.append(dot(pairs) if pairs else self.zero)
        return TruncSeries({k - v: c for k, c in enumerate(a)}, target, self.zero)

    def __repr__(self):
        ks = sorted(self.coeffs)
        inner = ", ".join(f"{k}: {self.coeffs[k]!r}" for k in ks)
        return f"TruncSeries({{{inner}}}, hi={self.hi})"


def _is_zero(c) -> bool:
    z = getattr(c, "is_zero", None)
    if z is not None:
        return z()
    return not c


def _dot_rule(zero) -> Callable[[list], object]:
    """The rule that sums x * y over a list of pairs in the ring of zero."""
    rule = getattr(zero, "sum_of_products", None)
    return rule if rule is not None else lambda pairs: _chained_sum(zero, pairs)


def _chained_sum(zero, pairs):
    total = None
    for x, y in pairs:
        c = x * y
        total = c if total is None else total + c
    return zero if total is None else total


def _min_hi(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)
