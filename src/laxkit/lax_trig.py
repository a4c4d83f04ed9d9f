"""Trigonometric Lax matrices over the multiplicative difference algebra.

The matrix type, the F G E assembly, the normalize-and-check scan and the
limit of a whole point to infinity are shared with rational mode and
live in lax_rational.  This module holds what is trig-specific: the
Gauss-entry formulas, the normalizer, the closed-form linear matrix, the
limit of a whole point to zero, the split of the finite exchange
relations, and the degeneration to the rational case.  The quantum
determinant of both modes is lax_rational.qdet_image.

Entries are uniform rational functions of the spectral parameter (the
plus/minus current expansions of the construction are expansions of these
same functions, so all identities are checked exactly on the rational
forms).  Half powers of the slot variables are carried by the generators
wh[i,r] with wh^2 = w[i,r]; the quantum parameter v appears only in
integer powers.

The degeneration back to the rational case substitutes

    v -> exp(eps/2),  z -> exp(eps z),  x -> exp(eps x),
    w[i,r] -> exp(eps (p[i,r] - i/2)),
    D[i,r] -> -e^{-q[i,r]} eps^(a_i - a_{i+1})

and matches the eps^0 coefficient against the rational builder on the
divisor with both framings merged at infinity.
"""

from __future__ import annotations

from typing import Dict, Optional

from .algebra import (
    AlgebraElement,
    AlgebraSignature,
    ShiftMonomial,
    mat_identity,
    mat_map,
    mat_zero,
)
from .coweight import Divisor
from .errors import (
    MismatchWithRational,
    NegativeEpsPower,
    NotLinearCase,
)
from .lax_rational import (
    LaxMatrix,
    _assemble,
    _expanded,
    _kept,
    _normalize,
    _on_divisor,
    _point,
    _point_poly,
    _split,
    _symbolic_last_point,
    _young_data,
    build_lax,
    slot_sum,
)
from .factored import Factored
from .ratfun import Poly, RatFun, V, Z, wh_var


# ---------------------------------------------------------------------------
# factors (see lax_rational)


def _half(sig: AlgebraSignature, i: int, exp: int) -> tuple:
    """prod over the slots t of row i of wh[i,t]^exp (exp in half-units
    of w), as the monomial ((var, exp), ...)."""
    return tuple((wh_var(i, t), exp) for t in range(1, sig.a(i) + 1))


def _w(k: int, r: int) -> tuple:
    """The monomial w[k,r] = wh[k,r]^2."""
    return ((wh_var(k, r), 2),)


_Z = ((Z, 1),)


def _mono(m: tuple) -> Factored:
    """The monomial m ((var, exp), ...) as a factor."""
    return _split((m, 1))


def _sw_row(sig: AlgebraSignature, j: int, y: tuple, d: int,
            skip: Optional[int] = None) -> Factored:
    """prod of (1 - v^d w[j,t] / y) over the slots t of row j, optionally
    skipping one, y a monomial: factors (y - v^d w[j,t]) / y."""
    aj = sig.a(j)

    def make():
        ts = [t for t in range(1, aj + 1) if t != skip]
        fs = [(_split((y, 1), (((V, d),) + _w(j, t), -1)), 1) for t in ts]
        return Factored.product(1, fs + [(_mono(y), -len(ts))])

    return _kept(("sw", j, aj, y, d, skip), make)


# ---------------------------------------------------------------------------
# Gauss factors (same arguments as the rational formulas)


def diag_entry_trig(div: Divisor, sig: AlgebraSignature, i: int) -> Factored:
    fs = [
        (_mono(_half(sig, i, -1) + _half(sig, i - 1, 1)), 1),
        (_mono(_Z), div.mu.d[i - 1]),
        (_sw_row(sig, i, _Z, i), 1),
        (_sw_row(sig, i - 1, _Z, i + 1), -1),
    ]
    # point factors: prod over points x of (1 - x/z)^(-eps_i(lambda_x))
    for pt, lam in div.summands:
        fs += [(_split((_Z, 1), _point(pt, -1)), -lam.d[i - 1]),
               (_mono(_Z), lam.d[i - 1])]
    return Factored.product(1, fs)


def _points_trig(pts: tuple, k: int, w: tuple) -> Factored:
    """prod of (1 - v^-k x / w)^c over the (point x, coefficient c) pairs
    pts, c the index-k fundamental coefficient of x's coweight."""

    def make():
        fs = []
        for pt, c in pts:
            fs += [(_split((w, 1), _point(pt, -1, ((V, -k),))), c), (_mono(w), -c)]
        return Factored.product(1, fs)

    return _kept(("points_trig", k, w, pts), make)


def upper_entry_trig(div: Divisor, sig: AlgebraSignature, i: int, j: int,
                     drop_pole: bool = False) -> Dict[ShiftMonomial, Factored]:
    bplus = [div.mu.d[k - 1] - div.mu.d[k] for k in range(1, div.n)]  # b+_k, 1-based
    pts = {k: tuple(div.points_with(k)) for k in range(i, j)}
    pref = _half(sig, j - 1, 2) + _half(sig, i - 1, -1)
    for k in range(i, j - 1):
        pref += _half(sig, k, 1)
    pref = _mono(pref)

    def coeff(r):
        w = {k: _w(k, r[k]) for k in r}
        fs = [(pref, 1), (_mono(w[i]), 1), (_mono(w[j - 1]), -1)]
        for k in range(i, j):
            bk = bplus[k - 1]
            if bk:
                fs.append((_mono(((V, -k * bk), (wh_var(k, r[k]), -2 * bk))), 1))
        if not drop_pole:
            # (1 - v^i w[i,r_i]/z)^-1
            fs += [(_split((_Z, 1), (((V, i),) + w[i], -1)), -1), (_mono(_Z), 1)]
        fs.append((_sw_row(sig, i - 1, w[i], 1), 1))
        fs += [(_sw_row(sig, k, w[k + 1], 1, r[k]), 1) for k in range(i, j - 1)]
        for k in range(i, j):
            fs += [(_sw_row(sig, k, w[k], 0, r[k]), -1), (_points_trig(pts[k], k, w[k]), 1)]
        return Factored.product((-1) ** ((i - j + 1) % 2), fs)

    return slot_sum(sig, i, j, -1, coeff)


def lower_entry_trig(div: Divisor, sig: AlgebraSignature, j: int, i: int,
                     drop_pole: bool = False) -> Dict[ShiftMonomial, Factored]:
    pref = ((V, i - j),)
    for k in range(i + 1, j + 1):
        pref += _half(sig, k, -1)
    pref = _mono(pref)

    def coeff(r):
        w = {k: _w(k, r[k]) for k in r}
        fs = [(pref, 1), (_mono(w[j - 1]), 1), (_mono(w[i]), -1)]
        if not drop_pole:
            y = ((V, i + 2),) + w[i]
            fs += [(_split((y, 1), (_Z, -1)), -1), (_mono(y), 1)]  # (1 - z/y)^-1
        fs.append((_sw_row(sig, j, ((V, 1),) + w[j - 1], 0), 1))
        fs += [(_sw_row(sig, k, ((V, 1),) + w[k - 1], 0, r[k]), 1) for k in range(i + 1, j)]
        fs += [(_sw_row(sig, k, w[k], 0, r[k]), -1) for k in range(i, j)]
        return Factored.product((-1) ** ((i - j + 1) % 2), fs)

    return slot_sum(sig, i, j, 1, coeff)


def build_lax_trig(div: Divisor) -> LaxMatrix:
    return _assemble(div, "trig", diag_entry_trig, upper_entry_trig, lower_entry_trig)


# ---------------------------------------------------------------------------
# normalization


def normalizer_trig(div: Divisor) -> RatFun:
    """z^(eps_1 of (lambda + mu_zero)) / sZ_0(z)."""
    z = Poly.variable(Z)
    e1 = div.total_finite().d[0] + div.mu_zero.d[0]
    out = RatFun.variable(Z, e1)
    for pt, c in div.points_with(0):
        out = out * RatFun.ratio(z - _point_poly(pt), z) ** -c
    return out


def normalize_and_check_polynomial_trig(T: LaxMatrix) -> LaxMatrix:
    return _normalize(T, normalizer_trig)


# ---------------------------------------------------------------------------
# linear fast path


def build_linear_lax_trig(div: Divisor) -> LaxMatrix:
    """Closed-form z T+ - T- matrix for blambda_n = bmu-_n = 0, bmu+_n = -1."""
    bl, bmp, bmm = _young_data(div, "trig")
    n = div.n
    sig = div.signature()
    if bl[n - 1] != 0 or bmm[n - 1] != 0:
        raise NotLinearCase("blambda_n and bmu-_n must vanish")
    if bmp[n - 1] == 0:
        if any(bl) or any(bmp) or any(bmm):
            raise NotLinearCase("bmu+_n = 0 forces the identity matrix case")
        return LaxMatrix(sig, div, mat_identity(sig, n))
    if bmp[n - 1] != -1:
        raise NotLinearCase(f"bmu+_n = {bmp[n-1]} not in {{0, -1}}")

    z = RatFun.variable(Z)
    entries = mat_zero(sig, n)
    for i in range(1, n + 1):
        # g_i(z) = z W_i + c_i W_i^-1 with W_i = wh_i^-1 wh_{i-1}: the first
        # piece when bmu+_{n+1-i} = -1 (g_inf, the z -> infinity limit of
        # g_i/z), the second when bmu-_{n+1-i} = 0 (g0 = g_i(0))
        ai, aim = sig.a(i), sig.a(i - 1)
        g_inf = g0 = None
        acc = AlgebraElement.zero(sig)
        if bmp[n - i] == -1:
            g_inf = AlgebraElement.from_ratfun(
                sig, Poly.monomial(_half(sig, i, -1) + _half(sig, i - 1, 1)))
            acc = acc + g_inf * z
        if bmm[n - i] == 0:
            # c_i = (-v^i)^{a_i} / (-v^{i+1})^{a_{i-1}} * prod over points
            # (-x)^(-eps_i(lambda_x))
            c = RatFun.from_poly(Poly.monomial(
                ((V, i * ai - (i + 1) * aim),) + _half(sig, i, 1) + _half(sig, i - 1, -1),
                (-1) ** (ai + aim)))
            for pt, lam in div.summands:
                if lam.d[i - 1]:
                    c = c * RatFun.from_poly(-_point_poly(pt)) ** -lam.d[i - 1]
            g0 = AlgebraElement.from_ratfun(sig, c)
            acc = acc + g0
        entries[i - 1][i - 1] = acc
        for j in range(i + 1, n + 1):
            if g_inf is not None:
                e = _expanded(sig, upper_entry_trig(div, sig, i, j, True))
                entries[i - 1][j - 1] = g_inf * e * z
            if g0 is not None:
                # f(0) g_i(0): crossing the shift monomials past g_i(0)
                # contributes one power of v; c_i carries the rest
                f = _expanded(sig, lower_entry_trig(div, sig, j, i, True))
                entries[j - 1][i - 1] = f * g0
    return LaxMatrix(sig, div, entries)


# ---------------------------------------------------------------------------
# limits


def limits_trig(T: LaxMatrix) -> LaxMatrix:
    """Send the last point x, with its whole coweight, to zero: the plain
    substitution x = 0 (normalized_limit sends it to infinity)."""
    target = T.divisor.move_last_point("zero")
    xv = _symbolic_last_point(T.divisor)
    entries = mat_map(T.entries, lambda e: e.map_coeffs(lambda c: c.set_value(xv, 0)))
    return _on_divisor(entries, target)


# ---------------------------------------------------------------------------
# finite RTT split


def split_finite_rtt(T: LaxMatrix):
    """Write a z-linear matrix as z T+ - T-; returns the two z-independent
    matrices (verification of the three finite relations lives in rtt)."""
    n = T.n
    sig = T.signature
    t_plus = mat_zero(sig, n)
    t_minus = mat_zero(sig, n)
    for a in range(n):
        for b in range(n):
            coeffs = T.entries[a][b].z_poly_coeffs(Z)
            if any(k not in (0, 1) for k in coeffs):
                raise NotLinearCase(f"entry ({a+1},{b+1}) is not linear in z")
            t_plus[a][b] = coeffs.get(1, AlgebraElement.zero(sig))
            t_minus[a][b] = -coeffs.get(0, AlgebraElement.zero(sig))
    return t_plus, t_minus


# ---------------------------------------------------------------------------
# degeneration to the rational case


def degenerate_to_rational(T: LaxMatrix) -> LaxMatrix:
    """Expand in the deformation parameter and match the rational builder
    on the merged divisor; returns the rational matrix.

    A term coeff * shift of entry (a, b) lands on eps^(k + extra - d_b),
    so its coefficient is expanded exactly through eps^(d_b - extra): the
    power that lands on eps^0.  Every negative power is inside that
    window, and no power above eps^0 is computed.  Each entry's powers are
    gathered in one dict, power -> {shift monomial: coefficient}, exact
    through the smallest window of its terms."""
    div = T.divisor
    merged = div.merge_framings_at_infinity()
    rat = build_lax(merged)
    rat_sig = rat.signature
    a_vec = div.a_vector()

    def s_exp(k: int) -> int:
        ak = a_vec[k - 1] if 1 <= k <= len(a_vec) else 0
        ak1 = a_vec[k] if k < len(a_vec) else 0
        return ak - ak1

    d_total = div.mu + div.mu_zero
    n = T.n
    for a in range(n):
        for b in range(n):
            d = d_total.d[b]
            powers: Dict[int, Dict[ShiftMonomial, RatFun]] = {}
            tops = []  # the exact window of each term, in landed powers
            for shift, coeff in T.entries[a][b].terms.items():
                sign = 1
                extra = 0
                new_exps = {}
                for (f, i, r), m in shift.exps.items():
                    sign *= (-1) ** (m % 2)
                    extra += m * s_exp(i)
                    new_exps[(f, i, r)] = -m
                cs = coeff.eps_series(d - extra)
                tops.append(cs.hi + extra - d)
                # distinct shift monomials stay distinct, so no two terms
                # meet in one coefficient
                new_shift = ShiftMonomial(new_exps)
                for k, c in cs.coeffs.items():
                    powers.setdefault(k + extra - d, {})[new_shift] = c * sign
            hi = min(tops, default=0)
            live = [k for k in powers if k <= hi]
            if live and min(live) < 0:
                raise NegativeEpsPower(
                    f"entry ({a+1},{b+1}) degenerates with eps^{min(live)}"
                )
            if hi < 0:
                raise ValueError(f"coefficient 0 beyond exact window {hi}")
            got = AlgebraElement(rat_sig, powers.get(0, {}))
            if not got.equals(rat.entries[a][b]):
                raise MismatchWithRational(
                    f"entry ({a+1},{b+1}) disagrees with the rational builder",
                    position=(a + 1, b + 1),
                )
    return rat
