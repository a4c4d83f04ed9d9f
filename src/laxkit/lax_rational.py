"""Rational Lax matrices from admissible divisors.

The matrix is assembled from its Gauss factors: a diagonal of explicit
rational functions and uni-triangular factors whose entries are
multi-index sums over slot tuples, with the shift generators on the
right.  Every Gauss coefficient is an explicit product of linear
factors, each made once per process (_FACTORS) and kept factored
(factored.Factored) until T = F G E sums it: products add exponents, a
shift past F's monomial maps atoms, and the products of each T
coefficient are multiplied out and summed pairwise (ratfun.merged_sum).
The Gauss factors themselves are multiplied out only when asked for
(build_gauss_factors).
T depends on the divisor alone, so the last 64 matrices built, of
either mode, are kept (_assembled) and a divisor built again within a
flow costs one lookup; each caller gets its own rows.
Everything downstream (normalization, limits, fusion, the linear fast
path) reuses the same closed forms; the general builder is the oracle
for all of them.

The pipeline is shared with trig mode: lax_trig passes its own entry
formulas and normalizer to the assembly, normalization and limit helpers
here, and uses the same LaxMatrix type.  The quantum determinant of
either mode is read from T's entries here; only the row arguments, the
inversion weight and the closed form it is checked against differ.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import product as iproduct
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .algebra import (
    _SHIFT_ONE,
    AlgebraElement,
    AlgebraSignature,
    ShiftMonomial,
    embed,
    mat_identity,
    mat_map,
    mat_mul,
    mat_zero,
    shift_moves,
)
from .coweight import Divisor
from .errors import (
    NotAdmissible,
    NotLinearCase,
    NotPolynomial,
    NotScalar,
    SignatureMismatch,
)
from .factored import Factored
from .ratfun import V, Poly, RatFun, Z, _memo, merged_sum, p_var, x_var


class GaussFactors(NamedTuple):
    lower: List[List[AlgebraElement]]  # unit lower triangular
    diag: List[AlgebraElement]  # scalar entries
    upper: List[List[AlgebraElement]]  # unit upper triangular


@dataclass
class LaxMatrix:
    signature: AlgebraSignature
    divisor: Optional[Divisor]
    entries: List[List[AlgebraElement]]
    normalized: bool = False

    @property
    def n(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> AlgebraElement:
        """1-based access."""
        return self.entries[i - 1][j - 1]


# ---------------------------------------------------------------------------
# factored Gauss coefficients
#
# A Gauss coefficient is a factored.Factored product of linear factors.
# Each factor, and each row and point product of them, is made once per
# process and kept in _FACTORS (capped by ratfun._memo, like _SPLITS and
# _ATOMS) under a key that holds everything its value depends on: a
# factor's terms, a row product's slot count a_k, a point product's
# (point, coefficient) pairs.  Builds of different divisors thus share
# their factors, and a cap flush only costs making some of them again.


def _kept(key, make: Callable[[], Factored]) -> Factored:
    """make() kept in _FACTORS under key, which holds all that make reads."""
    return _memo(_FACTORS, key, make)


def _split(*terms) -> Factored:
    """The factor sum of c * m over the (m, c) terms, m a monomial
    ((var, exp), ...), made and split once per process."""
    return _kept(terms, lambda: Factored.of(Poly.sum_of_monomials(terms)))


# key -> Factored (_kept and _split), capped by _memo
_FACTORS: Dict[tuple, Factored] = {}


def _var(v, c=1) -> tuple:
    return ((v, 1),), c


def _point(pt, c=1, unit=()) -> tuple:
    """c * unit * pt as a term: x[pt] for a label, a number otherwise."""
    if isinstance(pt, str):
        return unit + ((x_var(pt), 1),), c
    return unit, c * pt


def _point_poly(pt) -> Poly:
    return Poly.sum_of_monomials((_point(pt),))


def _lin(a, c, b) -> Factored:
    """a + c - b for variables a and b."""
    return _split(_var(a), ((), c), _var(b, -1))


def _row(sig: AlgebraSignature, k: int, a, c, skip: Optional[int] = None) -> Factored:
    """prod of (a + c - p[k,t]) over the slots t of row k, optionally
    skipping one."""
    ak = sig.a(k)
    return _kept(("row", k, ak, a, c, skip), lambda: Factored.product(1, [
        (_lin(a, c, p_var(k, t)), 1) for t in range(1, ak + 1) if t != skip]))


def slot_sum(sig: AlgebraSignature, i: int, j: int, step: int,
             coeff: Callable[[dict], Factored]) -> Dict[ShiftMonomial, Factored]:
    """{shift monomial with exponent step on every slot (k, r_k): coeff(r)}
    over the slot tuples r = (r_i, ..., r_(j-1)) of rows i..j-1, r passed
    as {k: r_k}.  One term per element of the product of the slot ranges,
    so the cost per entry is bounded by prod a_k over that range."""
    terms = {}
    for tup in iproduct(*(range(1, sig.a(k) + 1) for k in range(i, j))):
        r = dict(zip(range(i, j), tup))
        terms[ShiftMonomial({(1, k, r[k]): step for k in range(i, j)})] = coeff(r)
    return terms


def _expanded(sig: AlgebraSignature, terms: Dict[ShiftMonomial, Factored]) -> AlgebraElement:
    return AlgebraElement(sig, {s: c.expand() for s, c in terms.items()})


# ---------------------------------------------------------------------------
# Gauss factors
#
# The entry formulas of both modes take (div, sig, i[, j]), sig the
# divisor's signature; the diagonal returns a Factored, the others
# {shift monomial: Factored}.


def diag_entry(div: Divisor, sig: AlgebraSignature, i: int) -> Factored:
    """Diagonal Gauss entry: row-i slot product over the shifted row-(i-1)
    product, times (z - x)^(-eps_i(lambda_x)) at each point x."""
    fs = [(_row(sig, i, Z, 0), 1), (_row(sig, i - 1, Z, -1), -1)]
    fs += [(_split(_var(Z), _point(pt, -1)), -lam.d[i - 1]) for pt, lam in div.summands]
    return Factored.product(1, fs)


def _points(pts: tuple, a) -> Factored:
    """prod of (a - x)^c over the (point x, coefficient c) pairs pts, c
    the index-k fundamental coefficient of x's coweight (points_with)."""
    return _kept(("points", a, pts), lambda: Factored.product(1, [
        (_split(_var(a), _point(pt, -1)), c) for pt, c in pts]))


def upper_entry(div: Divisor, sig: AlgebraSignature, i: int, j: int,
                drop_pole: bool = False) -> Dict[ShiftMonomial, Factored]:
    """Entry (i, j), i < j, of the upper unitriangular factor.

    With drop_pole the spectral pole 1/(z - p[i, r_i]) is omitted; that is
    exactly the z-linear fast path residue."""
    pts = {k: tuple(div.points_with(k)) for k in range(i, j)}

    def coeff(r):
        p = {k: p_var(k, r[k]) for k in r}
        fs = [(_row(sig, i - 1, p[i], -1), 1)]
        fs += [(_row(sig, k, p[k + 1], -1, r[k]), 1) for k in range(i, j - 1)]
        if not drop_pole:
            fs.append((_lin(Z, 0, p[i]), -1))
        for k in range(i, j):
            fs += [(_row(sig, k, p[k], 0, r[k]), -1), (_points(pts[k], p[k]), 1)]
        return Factored.product(-1, fs)

    return slot_sum(sig, i, j, 1, coeff)


def lower_entry(div: Divisor, sig: AlgebraSignature, j: int, i: int,
                drop_pole: bool = False) -> Dict[ShiftMonomial, Factored]:
    """Entry (j, i), i < j, of the lower unitriangular factor."""

    def coeff(r):
        p = {k: p_var(k, r[k]) for k in r}
        fs = [(_row(sig, j, p[j - 1], 1), 1)]
        fs += [(_row(sig, k, p[k - 1], 1, r[k]), 1) for k in range(i + 1, j)]
        if not drop_pole:
            fs.append((_lin(Z, -1, p[i]), -1))
        fs += [(_row(sig, k, p[k], 0, r[k]), -1) for k in range(i, j)]
        return Factored.product(1, fs)

    return slot_sum(sig, i, j, -1, coeff)


def _assemble(div: Divisor, mode: str, diag: Callable, upper: Callable,
              lower: Callable) -> LaxMatrix:
    """T(z) = F G E from a mode's three entry formulas, made once per
    divisor while it stays among the last 64 built (_assembled).  Every
    call gets its own LaxMatrix: its divisor is div and its rows are new
    lists, so a caller may assign into them; the entries are shared."""
    if div.mode != mode:
        raise SignatureMismatch(f"{mode} builder got a {div.mode} divisor")
    div.check_build_degree()
    sig, rows = _assembled(div, diag, upper, lower)
    return LaxMatrix(signature=sig, divisor=div, entries=[list(row) for row in rows])


# One lax suite run builds 53 distinct divisors (218 builds) and one pass
# of the benchmark's construct_cli workload 44 (197 builds); a matrix of
# rank 4 holds 10-80 KiB (tracemalloc, the (4, 2) families), so 64
# matrices cover a whole flow in at most a few MB.  Equal divisors (a
# point 2 and a point Fraction(2) compare and hash alike) share an entry;
# the formulas are part of the key, so a changed formula builds anew.
@functools.lru_cache(maxsize=64)
def _assembled(div: Divisor, diag: Callable, upper: Callable,
               lower: Callable) -> Tuple[AlgebraSignature, tuple]:
    """(signature, rows of T) with T = F G E.

    Every coefficient stays a Factored product until it is summed:
    G_k E_kj adds exponents, and F_ik (G E)_kj shifts (G E)_kj's product
    past F's monomial (Factored.shift) and adds exponents.  Each T
    coefficient is then the merged_sum of its expanded products."""
    mode, sig, n = div.mode, div.signature(), div.n
    # 0-based: g[k] the diagonal, e[k, j] and f[j, k] (k < j) E's and F's entries
    g = [diag(div, sig, i) for i in range(1, n + 1)]
    e = {(i, j): upper(div, sig, i + 1, j + 1) for i in range(n) for j in range(i + 1, n)}
    f = {(j, i): lower(div, sig, j + 1, i + 1) for i in range(n) for j in range(i + 1, n)}
    # (G E)_kj for j >= k, each term G_k times a coefficient of E_kj
    ge = {(k, k): {_SHIFT_ONE: gk} for k, gk in enumerate(g)}
    for (k, j), terms in e.items():
        ge[k, j] = {s: g[k] * c for s, c in terms.items()}
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            sums: Dict[ShiftMonomial, list] = {}
            for k in range(min(i, j) + 1):
                right = ge[k, j]
                if k == i:
                    for s, c in right.items():
                        sums.setdefault(s, []).append(c)
                    continue
                for s1, c1 in f[i, k].items():
                    moves = shift_moves(mode, s1)
                    for s2, c2 in right.items():
                        sums.setdefault(s1 * s2, []).append(c1 * c2.shift(mode, moves))
            row.append(AlgebraElement(sig, {s: merged_sum(t.expand() for t in ts)
                                                 for s, ts in sums.items()}))
        rows.append(tuple(row))
    return sig, tuple(rows)


def build_gauss_factors(div: Divisor) -> GaussFactors:
    """The Gauss factors F, G and E of T = F G E, multiplied out from the
    entry formulas of div's mode (T itself is not built)."""
    if div.mode == "rational":
        diag, upper, lower = diag_entry, upper_entry, lower_entry
    else:
        from . import lax_trig as t
        diag, upper, lower = t.diag_entry_trig, t.upper_entry_trig, t.lower_entry_trig
    div.check_build_degree()
    sig, n = div.signature(), div.n
    lower_f, upper_f = mat_identity(sig, n), mat_identity(sig, n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            upper_f[i - 1][j - 1] = _expanded(sig, upper(div, sig, i, j))
            lower_f[j - 1][i - 1] = _expanded(sig, lower(div, sig, j, i))
    diag_f = [AlgebraElement.from_ratfun(sig, diag(div, sig, i).expand()) for i in range(1, n + 1)]
    return GaussFactors(lower=lower_f, diag=diag_f, upper=upper_f)


def build_lax(div: Divisor) -> LaxMatrix:
    """T(z) = F G E with the closed-form factors."""
    return _assemble(div, "rational", diag_entry, upper_entry, lower_entry)


# ---------------------------------------------------------------------------
# normalization


def normalizer(div: Divisor) -> RatFun:
    """1 / Z_0(z): strips the index-0 point factors."""
    out = RatFun.one()
    for pt, c in div.points_with(0):
        out = out * RatFun.from_poly(Poly.variable(Z) - _point_poly(pt)) ** -c
    return out


def _raw(T: LaxMatrix, step: str) -> None:
    """Refuse T unless it is the raw build of its divisor, which step reads."""
    if T.normalized:
        raise NotAdmissible(f"{step} needs a raw matrix, got a normalized one")
    if T.divisor is None:
        raise NotAdmissible(f"{step} needs a matrix that carries its divisor")


def _normalize(T: LaxMatrix, mode: str, normalizer_fn: Callable[[Divisor], RatFun]) -> LaxMatrix:
    """Multiply the raw T of the given mode by the mode's normalizer and
    assert every coefficient is a polynomial in z: no spectral atom in a
    denominator, no negative power of z in a numerator."""
    if T.signature.mode != mode:
        raise SignatureMismatch(f"{mode} normalizer got a {T.signature.mode} matrix")
    _raw(T, "normalization")
    factor = normalizer_fn(T.divisor)
    entries = mat_map(T.entries, lambda e: e * factor)
    for a, row in enumerate(entries):
        for b, e in enumerate(row):
            for s, c in e.terms.items():
                bad = [atom for atom in c.den if atom.degree(Z)]
                if bad:
                    raise NotPolynomial(
                        f"entry ({a + 1},{b + 1}) keeps spectral atom {bad[0]!r}",
                        entry=(a + 1, b + 1),
                    )
                if c.num.min_exp(Z) < 0:
                    raise NotPolynomial(
                        f"entry ({a + 1},{b + 1}) has a pole at z = 0",
                        entry=(a + 1, b + 1),
                    )
    return LaxMatrix(T.signature, T.divisor, entries, normalized=True)


def normalize_and_check_polynomial(T: LaxMatrix) -> LaxMatrix:
    """Divide by Z_0(z) and assert every coefficient is polynomial in z."""
    return _normalize(T, "rational", normalizer)


def pipeline(mode: str) -> Tuple[Callable, Callable, Callable]:
    """(build, normalize, linear) of a divisor mode.  The names are looked
    up per call, so wrappers installed on the module attributes apply."""
    from . import lax_trig as t
    return {"rational": (build_lax, normalize_and_check_polynomial, build_linear_lax),
            "trig": (t.build_lax_trig, t.normalize_and_check_polynomial_trig,
                     t.build_linear_lax_trig)}[mode]


# ---------------------------------------------------------------------------
# linear fast path


def _young_data(div: Divisor, mode: str) -> List[Tuple[int, ...]]:
    """Row vectors (blambda, bmu, and bmu- in trig mode) of a divisor the
    linear fast path of the given mode may take; anything else raises."""
    if div.mode != mode:
        raise SignatureMismatch(f"{mode} builder got a {div.mode} divisor")
    if div.points_with(0):
        raise NotLinearCase("index-0 coefficients need the general builder")
    n = div.n
    coweights = [div.total_finite(), div.mu] + ([div.mu_zero] if mode == "trig" else [])
    rows = [tuple(-cw.d[n - i] for i in range(1, n + 1)) for cw in coweights]
    if any(x < y for r in rows for x, y in zip(r, r[1:])):
        raise NotLinearCase("divisor is not encoded by pseudo Young diagrams")
    return rows


def build_linear_lax(div: Divisor) -> LaxMatrix:
    """Closed-form degree-1 matrix for blambda_n = 0, bmu_n = -1 (the
    identity matrix when both vanish)."""
    bl, bm = _young_data(div, "rational")
    n = div.n
    sig = div.signature()
    if bl[n - 1] != 0:
        raise NotLinearCase(f"blambda_n = {bl[n-1]} != 0")
    if bm[n - 1] == 0:
        if any(bl) or any(bm):
            raise NotLinearCase("bmu_n = 0 forces the identity matrix case")
        return LaxMatrix(sig, div, mat_identity(sig, n))
    if bm[n - 1] != -1:
        raise NotLinearCase(f"bmu_n = {bm[n-1]} not in {{0, -1}}")
    m = max(i for i in range(1, n + 1) if bm[n - i] == -1)
    m_prime = max(i for i in range(1, n + 1) if bm[n - i] <= 0)
    entries = mat_zero(sig, n)
    z = Poly.variable(Z)
    for i in range(1, n + 1):
        if i <= m:
            val = RatFun.from_poly(z)
            for r in range(1, sig.a(i - 1) + 1):
                val = val + RatFun.variable(p_var(i - 1, r)) + 1
            for r in range(1, sig.a(i) + 1):
                val = val - RatFun.variable(p_var(i, r))
            for pt, lam in div.summands:
                if lam.d[i - 1]:
                    val = val + lam.d[i - 1] * RatFun.from_poly(_point_poly(pt))
            entries[i - 1][i - 1] = AlgebraElement.from_ratfun(sig, val)
        elif i <= m_prime:
            entries[i - 1][i - 1] = AlgebraElement.one(sig)
    for i in range(1, m + 1):
        for j in range(i + 1, n + 1):
            entries[i - 1][j - 1] = _expanded(sig, upper_entry(div, sig, i, j, True))
            entries[j - 1][i - 1] = _expanded(sig, lower_entry(div, sig, j, i, True))
    return LaxMatrix(sig, div, entries)


# ---------------------------------------------------------------------------
# quantum determinant


def _at_row(mode: str, n: int, k: int) -> Callable[[RatFun], RatFun]:
    """f(z) -> f(z_k), the argument of row k: z + n - k (rational) or
    v^(2 - 2k) z (trig)."""
    if mode == "rational":
        return lambda c: c.shift_var(Z, n - k)
    return lambda c: c.scale_var(Z, ((V, 2 - 2 * k),))


def qdet_image(T: LaxMatrix) -> RatFun:
    """sum_sigma q^l(sigma) T_{1 sigma(1)}(z_1) ... T_{n sigma(n)}(z_n), l the
    number of inversions, q = -1 (rational) or -v^-1 (trig); asserted
    scalar and, when T carries its divisor, equal to the closed form.
    Expanded along rows from the bottom, with the minors memoized by their
    set of columns: n 2^(n-1) products."""
    n, mode = T.n, T.signature.mode
    q = RatFun.const(-1) if mode == "rational" else -RatFun.variable(V, -1)
    minors = {0: AlgebraElement.one(T.signature)}  # column bitmask -> minor
    for k in range(n, 0, -1):
        row = [e.map_coeffs(_at_row(mode, n, k)) for e in T.entries[k - 1]]
        above = {}
        for cols, minor in minors.items():
            for j in range(n):
                if cols >> j & 1 or row[j].is_zero():
                    continue
                # sigma(k) = j inverts with every lower row's column left of j
                m = bin(cols & ((1 << j) - 1)).count("1")
                t = row[j] * minor * q ** m if m else row[j] * minor
                key = cols | 1 << j
                above[key] = above[key] + t if key in above else t
        minors = above
    out = minors.get((1 << n) - 1, AlgebraElement.zero(T.signature)).scalar_part()
    if T.divisor is not None and not out.equals(_qdet_closed_form(T.divisor, T.normalized)):
        raise NotScalar("qdet disagrees with its closed form")
    return out


def _qdet_closed_form(div: Divisor, normalized: bool) -> RatFun:
    """prod_i c_i(z_{n+1-i}), c_i(z) the scalar part of the Gauss entry g_i
    (whose slot factors telescope away): each point x gives (z - x)^e, in
    trig (1 - x/z)^e times z^(mu_i), with e = -eps_i(lambda_x); normalizing
    adds eps_1(lambda_x) to e (dropping the index-0 part) and, in trig,
    multiplies by z^(eps_1(lambda + mu-))."""
    trig = div.mode == "trig"
    e1 = div.total_finite().d[0] + div.mu_zero.d[0] if trig and normalized else 0
    z = Poly.variable(Z)
    out = RatFun.one()
    for i in range(1, div.n + 1):
        c = RatFun.variable(Z, div.mu.d[i - 1] + e1) if trig else RatFun.one()
        for pt, lam in div.summands:
            e = -lam.d[i - 1] + (lam.d[0] if normalized else 0)
            if e:
                c = c * RatFun.ratio(z - _point_poly(pt), z if trig else Poly.const(1)) ** e
        out = out * _at_row(div.mode, div.n, div.n + 1 - i)(c)
    return out


# ---------------------------------------------------------------------------
# normalized limits


def _symbolic_last_point(div: Divisor):
    """The x variable of the last point; limits move symbolic points only."""
    label = div.last_point()
    if not isinstance(label, str):
        raise NotAdmissible("limits need a symbolic last point")
    return x_var(label)


def _on_divisor(entries, div: Divisor) -> LaxMatrix:
    """Entries re-homed on the signature of the divisor a limit produced."""
    sig = div.signature()
    entries = mat_map(entries, lambda e: AlgebraElement(sig, dict(e.terms)))
    return LaxMatrix(sig, div, entries)


def normalized_limit(T: LaxMatrix) -> LaxMatrix:
    """Send the last point x of the divisor, with its whole coweight
    lambda, to infinity, in either mode: column b is scaled by
    (-x)^(eps_b(lambda)) and the leading term in x is kept.  The divisor
    moves lambda onto the framing at infinity.  T must be raw."""
    _raw(T, "the limit to infinity")
    div = T.divisor
    xv = _symbolic_last_point(div)
    lam = div.point_coweight(div.last_point())
    target = div.move_last_point("infinity")
    minus_x = RatFun.from_poly(-Poly.variable(xv))
    scale = [minus_x ** e if e else None for e in lam.d]
    entries = [
        [e * s if s is not None else e for e, s in zip(row, scale)] for row in T.entries
    ]
    entries = mat_map(entries, lambda e: e.map_coeffs(lambda c: c.limit_leading(xv)))
    return _on_divisor(entries, target)


# ---------------------------------------------------------------------------
# fusion and Hamiltonians


def fuse(T1: LaxMatrix, T2: LaxMatrix) -> LaxMatrix:
    """Matrix product over the tensor algebra: the monodromy of two local
    matrices, also the coproduct image of the T-matrix."""
    s1, s2 = T1.signature, T2.signature
    if s1.n != s2.n or s1.mode != s2.mode:
        raise SignatureMismatch("fuse needs equal rank and mode")
    sig = s1.tensor(s2)
    a = mat_map(T1.entries, lambda e: embed(e, sig, 1))
    b = mat_map(T2.entries, lambda e: embed(e, sig, 1 + s1.tensor_factors))
    entries = mat_mul(a, b)
    div = None
    if (T1.divisor is not None and T2.divisor is not None and s1.plain() and s2.plain()
            and T1.normalized == T2.normalized):
        d1, d2 = T1.divisor, T2.divisor
        try:
            div = Divisor.make(d1.n, d1.mode, d1.summands + d2.summands, d1.mu + d2.mu,
                               None if d1.mode == "rational" else d1.mu_zero + d2.mu_zero)
        except NotAdmissible:
            div = None
    return LaxMatrix(sig, div, entries, normalized=T1.normalized and T2.normalized)


def commuting_hamiltonians_n2(T: LaxMatrix, eps) -> List[AlgebraElement]:
    """z-coefficients of T_11 + eps T_22 for n = 2; pairwise commutation is
    asserted.  eps may be an exact rational or a symbol name."""
    if T.n != 2:
        raise ValueError("defined for n = 2")
    if isinstance(eps, str):
        eps_val = RatFun.variable(x_var(eps))
    else:
        eps_val = RatFun.const(eps)
    combo = T.entries[0][0] + T.entries[1][1] * eps_val
    coeffs = combo.z_poly_coeffs(Z)
    out = [coeffs[k] for k in sorted(coeffs, reverse=True)]
    for a in range(len(out)):
        for b in range(a + 1, len(out)):
            if not out[a].commutator(out[b]).is_zero():
                raise NotScalar(
                    f"coefficients {a} and {b} of the spectral combo do not commute"
                )
    return out
