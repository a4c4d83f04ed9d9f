"""R-matrices, the exchange-relation verifier (which also checks
Yang-Baxter), coproducts, and truncated-series Gauss decomposition.

Scalar n^2 x n^2 matrices are kept sparse as {row: {col: RatFun}}, the
pair (i, a) of tensor indices flattened to i*n + a.  The exchange check
R T1(z) T2(w) = T2(w) T1(z) R is exact and runs in components: with
L = T(z) and M = T(w), component (ia, jb) reads

    sum_{k,c} R[ia,kc] L_kj M_cb  =  sum_{k,c} M_ac L_ik R[kc,jb].

R's entries are rational in z, w and v only, so no shift acts on them
and R is central.  R, as its lists of row and negated column weights,
is built once per (mode, n) per process (_R_WEIGHTS).  Nothing is
divided: each product L_kj M_cb is formed once with unreduced
coefficients, as algebra.unreduced_product forms it (_entry_product,
which takes the shift moves and shift map of each term of L_kj once
per entry, and each product of shift monomials once per check).  Each
fraction carries the key of its atom multiset, made when the fraction
is.  For each component, every fraction of those products is weighted
by its entry of R and added term by term (poly.mul_add) into one sum
per shift monomial and atom multiset; no weighted fraction is formed.
Most of these sums cancel.  Only the ones left go through the exact
zero test (ratfun.grouped_sum_is_zero), shift monomial by shift
monomial.  A failure is reported as (i, a, j, b), the coefficient of
E_ij (x) E_ab.

The products M_ac L_ik are not formed again.  The swap sigma of z and w
is a ring automorphism of the coefficients, and it commutes with every
shift, which acts on p (rational) or wh (trig) only.  When T holds no w,
M = sigma(L) and L = sigma(M), so M_ac L_ik = sigma(L_ac M_ik) exactly:
verify_rtt takes each one as the mirror of an L M product, fraction by
fraction (ratfun.substitute for a fraction with atoms, Poly.swap_vars
alone for one without), and refuses a T that holds w.  In the finite
relations R T1 T2 = T2 T1 R with both factors the same matrix,
M_ac L_ik is the product L_ac M_ik itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .algebra import AlgebraElement, AlgebraSignature, embed, mat_map, shift_moves
from .coweight import Divisor
from .errors import SignatureMismatch, SingularLeadingMode
from .lax_rational import fuse
from .poly import _P_ONE, Poly, mul_add
from .ratfun import (RatFun, V, W, Z, _memo, den_product, grouped_sum_is_zero, shift_map,
                     substitute, x_var)
from .series import TruncSeries

Sparse = Dict[int, Dict[int, object]]


# ---------------------------------------------------------------------------
# sparse scalar matrices


def _sp_add(m: Sparse, r: int, c: int, val) -> None:
    row = m.setdefault(r, {})
    cur = row.get(c)
    new = val if cur is None else cur + val
    if new.is_zero():
        row.pop(c, None)
    else:
        row[c] = new


def sp_mul(a: Sparse, b: Sparse) -> Sparse:
    out: Sparse = {}
    for r, row in a.items():
        for k, av in row.items():
            brow = b.get(k)
            if not brow:
                continue
            for c, bv in brow.items():
                _sp_add(out, r, c, av * bv)
    return out


# ---------------------------------------------------------------------------
# R-matrices


def r_rational(n: int, z_arg: RatFun) -> Sparse:
    """(z - w) Id + P on the tensor square, evaluated at z_arg."""
    out: Sparse = {}
    for i in range(n):
        for a in range(n):
            row = i * n + a
            _sp_add(out, row, row, z_arg)
            _sp_add(out, i * n + a, a * n + i, RatFun.one())
    return out


def r_trig(n: int, z_arg: RatFun, w_arg: RatFun) -> Sparse:
    v = RatFun.variable(V)
    v_inv = RatFun.variable(V, -1)
    out: Sparse = {}
    for i in range(n):
        _sp_add(out, i * n + i, i * n + i, v * z_arg - v_inv * w_arg)
    for i in range(n):
        for j in range(n):
            if i != j:
                r = i * n + j
                _sp_add(out, r, r, z_arg - w_arg)
    coeff = v - v_inv
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            # E_ij (x) E_ji has the single entry (row (i,j), col (j,i))
            val = coeff * (z_arg if i < j else w_arg)
            _sp_add(out, i * n + j, j * n + i, val)
    return out


def r_finite(n: int) -> Sparse:
    v_inv = RatFun.variable(V, -1)
    v = RatFun.variable(V)
    out: Sparse = {}
    for i in range(n):
        _sp_add(out, i * n + i, i * n + i, v_inv)
    for i in range(n):
        for j in range(n):
            if i != j:
                _sp_add(out, i * n + j, i * n + j, RatFun.one())
    for i in range(n):
        for j in range(n):
            if i > j:
                _sp_add(out, i * n + j, j * n + i, v_inv - v)
    return out


def _blocks(r: Sparse, n: int) -> list:
    """R as an n x n matrix of scalar matrices on its second leg: entry
    (k, j) is the sparse matrix {f: {g: R[kf, jg]}}."""
    out = [[{} for _ in range(n)] for _ in range(n)]
    for row, cols in r.items():
        k, f = divmod(row, n)
        for col, val in cols.items():
            j, g = divmod(col, n)
            out[k][j].setdefault(f, {})[g] = val
    return out


def _block_product(a: Sparse, shifts: dict):
    """b -> sp_mul(a, b) in the form _exchange_failures sums: cell ->
    fractions (shifts is not read: cells are not shift monomials)."""
    return lambda b: {(r, c): [(val.num, val.den, frozenset(val.den.items()))]
                      for r, row in sp_mul(a, b).items() for c, val in row.items()}


def check_yang_baxter(variant: str, n: int) -> bool:
    """R12 R13 R23 = R23 R13 R12 on the tensor cube, exactly.

    This is the exchange relation R(z, w) T1(z) T2(w) = T2(w) T1(z) R(z, w)
    of T(z) = R13, the R-matrix in z and u3 read as an n x n matrix whose
    entries are scalar matrices on leg 3, checked by _exchange_failures.
    T(w) is T(z) with z renamed to w, and T holds no w, so the z <-> w
    swap mirrors the products.  Every R here is built afresh."""
    r = _exchange_r(variant, n)
    z = RatFun.variable(Z)
    w = RatFun.variable(W)
    u3 = RatFun.variable(x_var("u3"))
    if variant == "rational":
        left, right = r_rational(n, z - u3), r_rational(n, w - u3)
    elif variant == "trig":
        left, right = r_trig(n, z, u3), r_trig(n, w, u3)
    else:
        left = right = r
    left = _blocks(left, n)
    right = left if variant == "finite" else _blocks(right, n)
    return not _exchange_failures(_weights(r, n), left, right, mirror=_swap_zw,
                                  product=_block_product)


# ---------------------------------------------------------------------------
# RTT verification


@dataclass
class RttReport:
    ok: bool
    failures: List[Tuple[int, int, int, int]] = field(default_factory=list)
    n: int = 0

    def to_json(self) -> dict:
        return {"ok": self.ok, "n": self.n, "failures": self.failures}


def _exchange_r(mode: str, n: int) -> Sparse:
    """The R of the exchange relation: R(z, w) in mode "rational" or
    "trig" (verify_rtt), the constant R in mode "finite"
    (verify_finite_rtt)."""
    if mode == "rational":
        return r_rational(n, RatFun.variable(Z) - RatFun.variable(W))
    if mode == "trig":
        return r_trig(n, RatFun.variable(Z), RatFun.variable(W))
    if mode == "finite":
        return r_finite(n)
    raise ValueError(mode)


def _weights(r: Sparse, n: int) -> tuple:
    """R as _exchange_failures reads it, (rows, neg_cols): rows[ia] holds
    (k n^3 + c n, num, den) for each entry num / den of R[ia, kc], and
    neg_cols[jb] holds (c n^2 + k, -num, den) for each entry of R[kc, jb].
    The first field is the part of the flat index of L_kj M_cb, and of
    M_ac L_ik, that the entry of R fixes."""
    n2 = n * n
    rows: list = [[] for _ in range(n2)]
    neg_cols: list = [[] for _ in range(n2)]
    for row, cols in r.items():
        for col, val in cols.items():
            k, c = divmod(col, n)
            rows[row].append((k * n * n2 + c * n, val.num, val.den))
            k, c = divmod(row, n)
            neg_cols[col].append((c * n2 + k, -val.num, val.den))
    return rows, neg_cols


def _r_weights(mode: str, n: int) -> tuple:
    """_weights of _exchange_r(mode, n), made once per (mode, n) per
    process (_R_WEIGHTS)."""
    return _memo(_R_WEIGHTS, (mode, n), lambda: _weights(_exchange_r(mode, n), n))


# (mode, n) -> _r_weights(mode, n), a function of the key alone; capped by
# ratfun._memo
_R_WEIGHTS: Dict[tuple, tuple] = {}


def _entry_product(x: AlgebraElement, shifts: dict):
    """y -> x * y as algebra.unreduced_product forms it, keyed by the key
    of each shift monomial (ShiftMonomial._key), each fraction as (num,
    den, frozenset(den.items())).  The shift moves and shift map of each
    term of x are taken here, once per entry, not once per product;
    shifts is the caller's table (key of s1, key of s2) -> key of s1 s2."""
    mode = x.signature.mode
    terms = []
    for s1, c1 in x.terms.items():
        key = (mode, shift_moves(mode, s1))
        fn = shift_map(*key) if s1.exps else None
        times_one = not c1.den and c1.num == _P_ONE
        terms.append((s1, c1.num, c1.den, times_one, key, fn))

    def times(y: AlgebraElement) -> dict:
        out: dict = {}
        for s1, num1, den1, times_one, key, fn in terms:
            k1 = s1._key
            for s2, c2 in y.terms.items():
                num, den = c2.num, c2.den
                if fn is not None:
                    num, den = substitute(num, den, fn, key)
                if not times_one:
                    num = num1 * num
                    if den1:
                        den = den_product(den1, den)
                s = shifts.get(sk := (k1, s2._key))
                if s is None:
                    s = shifts[sk] = (s1 * s2)._key
                fracs = out.get(s)
                if fracs is None:
                    fracs = out[s] = []
                fracs.append((num, den, frozenset(den.items())))
        return out

    return times


def _products(xs, ys, product, shifts: dict) -> list:
    """Every x * y, x an entry of the matrix xs and y one of ys, as
    product forms it, in one flat list: x * y, with x = xs[k][j] and
    y = ys[c][b], sits at index (k n + j) n^2 + c n + b."""
    ys = [y for row in ys for y in row]
    out: list = []
    for row in xs:
        for x in row:
            out += map(product(x, shifts), ys)
    return out


def _mirrored(prod: dict, mirror) -> dict:
    """The image of a product under mirror, fraction by fraction; the
    keys stay, since mirror commutes with every shift."""
    out = {}
    for s, fracs in prod.items():
        out[s] = images = []
        for num, den, dkey in fracs:
            if den:
                # the map is its own key, so its atom images are memoized
                num, den = substitute(num, den, mirror, mirror)
                dkey = frozenset(den.items())
            else:
                num = mirror(num)
            images.append((num, den, dkey))
    return out


def _exchange_failures(weights: tuple, left, right, mirror=None,
                       product=_entry_product) -> List[Tuple[int, int, int, int]]:
    """Components (i, a, j, b) where R L1 M2 - M2 L1 R is nonzero, in order.

    Component (ia, jb) of the difference is
        sum_{k,c} R[ia,kc] L_kj M_cb - sum_{k,c} M_ac L_ik R[kc,jb],
    with R given as its _weights.  The n^4 products L_kj M_cb are formed
    once.  M_ac L_ik is the product L_ac M_ik when right is left, and its
    image under mirror when that is given: a Poly map sigma, a ring
    automorphism commuting with every shift, with right = sigma(left) and
    left = sigma(right).  Only otherwise are the products M_ac L_ik formed
    too.  product(x, shifts) is the map y -> x * y as {key: fractions},
    the fractions (num, den, frozenset(den.items())) of each key summing
    to its coefficient: _entry_product for algebra elements, keyed by
    shift monomial, _block_product for scalar matrices, keyed by cell.
    It does the work of x once for all its products; shifts is one table
    per call.  Atom multisets hold no zero multiplicity.

    Each component takes R by row and -R by column.  Every weight times
    every fraction of its product is added, term by term, into the
    numerator of the fraction's key and atom multiset (mul_add, which
    raises OverflowError where a field would overflow).  A component
    fails when, at some key, the numerators that do not cancel give a
    nonzero sum (grouped_sum_is_zero)."""
    n = len(left)
    n2 = n * n
    shifts: dict = {}
    lm = _products(left, right, product, shifts)
    if right is left:
        ml = lm
    elif mirror is not None:
        ml = [_mirrored(prod, mirror) for prod in lm]
    else:
        ml = _products(right, left, product, shifts)
    rows, neg_cols = weights
    failures = []
    for i, a, j, b in itertools.product(range(n), repeat=4):  # in sorted order
        off, moff = j * n2 + b, (a * n2 + i) * n
        weighted = [(lm[base + off], num, den) for base, num, den in rows[i * n + a]]
        weighted += [(ml[base + moff], num, den) for base, num, den in neg_cols[j * n + b]]
        sums: dict = {}  # product key -> {atom multiset: [den, terms, bound]}
        for prod, weight, wden in weighted:
            for s, fracs in prod.items():
                groups = sums.get(s)
                if groups is None:
                    groups = sums[s] = {}
                for num, den, dkey in fracs:
                    if wden:
                        den = den_product(den, wden)
                        dkey = frozenset(den.items())
                    g = groups.get(dkey)
                    if g is None:
                        g = groups[dkey] = [den, {}, 0]
                    eb = mul_add(g[1], weight, num)
                    if eb > g[2]:
                        g[2] = eb
        for groups in sums.values():
            live = []
            for den, terms, eb in groups.values():
                if any(terms.values()):
                    live.append((Poly({m: c for m, c in terms.items() if c}, eb), den))
            if live and not grouped_sum_is_zero(live):
                failures.append((i, a, j, b))
                break
    return failures


def _swap_zw(p):
    return p.swap_vars(Z, W)


def verify_rtt(T) -> RttReport:
    """Exact check of R(z, w) T1(z) T2(w) = T2(w) T1(z) R(z, w).

    T2(w) is T with z renamed to w, and the products of T2(w) T1(z) are
    the z <-> w mirrors of those of T1(z) T2(w), so T must not hold w:
    SignatureMismatch names the first entry that does."""
    n = T.n
    for i, row in enumerate(T.entries):
        for j, e in enumerate(row):
            if any(W in c.num.variables() or any(W in a.poly.variables() for a in c.den)
                   for c in e.terms.values()):
                raise SignatureMismatch(
                    f"entry ({i + 1},{j + 1}) holds w, the second spectral parameter"
                    " of the exchange relation")
    t_w = mat_map(T.entries, lambda e: e.rename_spectral(Z, W))
    failures = _exchange_failures(_r_weights(T.signature.mode, n), T.entries, t_w,
                                  mirror=_swap_zw)
    return RttReport(ok=not failures, failures=failures, n=n)


def verify_finite_rtt(t_plus, t_minus, sig: AlgebraSignature) -> RttReport:
    """The three z-independent exchange relations of the split pair over
    `sig`: R T+1 T+2 = T+2 T+1 R, the same for T-, and R T-1 T+2 =
    T+2 T-1 R, with R = r_finite(n).  SignatureMismatch is raised unless
    every entry of both factors is over sig."""
    n = len(t_plus)
    if any(e.signature != sig for t in (t_plus, t_minus) for row in t for e in row):
        raise SignatureMismatch("the split pair is not over the given signature")
    weights = _r_weights("finite", n)
    failures = []
    for left, right in ((t_plus, t_plus), (t_minus, t_minus), (t_minus, t_plus)):
        failures.extend(_exchange_failures(weights, left, right))
    return RttReport(ok=not failures, failures=failures, n=n)


# ---------------------------------------------------------------------------
# coproduct


def coproduct(T1, T2):
    """Delta(T) = T (x) T: the fused matrix over the tensor algebra."""
    return fuse(T1, T2)


# ---------------------------------------------------------------------------
# series Gauss decomposition


def element_z_series(elem: AlgebraElement, hi: int) -> TruncSeries:
    """Expand in t = 1/z with AlgebraElement coefficients, exact to t^hi.

    Each coefficient is expanded once, to the order that reaches t^hi:
    its valuation in t is sum m deg_z(atom) - deg_z(num), since the
    leading z-coefficient of a product of nonzero factors is nonzero."""
    sig = elem.signature
    by_power: Dict[int, dict] = {}
    top = hi
    for shift, coeff in elem.terms.items():
        v = sum(a.degree(Z) * m for a, m in coeff.den.items()) - coeff.num.degree(Z)
        s = coeff.series("z_inf", hi - v + 1)
        top = min(top, s.hi)
        for k, c in s.coeffs.items():
            by_power.setdefault(k, {})[shift] = c
    return TruncSeries({k: AlgebraElement(sig, terms) for k, terms in by_power.items()},
                       top, AlgebraElement.zero(sig))


def series_gauss_decompose(entries, order: int):
    """LDU factorization of a matrix of z^{-1}-series, order by order.

    entries: square matrix of TruncSeries (t = 1/z) with AlgebraElement
    coefficients; leading diagonal modes must be invertible single terms.
    Returns (F, G, E) with F, E unitriangular and G the diagonal list.
    """
    n = len(entries)
    zero = entries[0][0].zero
    sig = zero.signature
    one_series = lambda: TruncSeries({0: AlgebraElement.one(sig)}, None, zero)
    zero_series = lambda: TruncSeries({}, None, zero)
    S = [[entries[i][j] for j in range(n)] for i in range(n)]
    span = max(
        (abs(e.val()) for row in entries for e in row if e.val() is not None),
        default=0,
    )
    F = [[one_series() if i == j else zero_series() for j in range(n)] for i in range(n)]
    E = [[one_series() if i == j else zero_series() for j in range(n)] for i in range(n)]
    G: List[TruncSeries] = []
    for k in range(n):
        g = S[k][k]
        if g.val() is None:
            raise SingularLeadingMode(f"diagonal {k + 1} vanishes to working order")
        G.append(g)
        try:
            # padded so products with entries of valuation >= -span stay
            # exact through the requested order
            g_inv = g.inverse(order + span, lambda c: c.invert_single_term())
        except Exception as exc:  # leading mode not a unit
            raise SingularLeadingMode(str(exc)) from exc
        cap = order + span
        for b in range(k + 1, n):
            E[k][b] = g_inv.mul(S[k][b], cap)
        for a in range(k + 1, n):
            F[a][k] = S[a][k].mul(g_inv, cap)
        for a in range(k + 1, n):
            for b in range(k + 1, n):
                # F[a][k] g = S[a][k] g^{-1} g = S[a][k]
                S[a][b] = (S[a][b] - S[a][k].mul(E[k][b], cap)).truncate(cap)
    return F, G, E


def _series_gauss(T, d, order: int):
    """(F, G, E) of T's entries expanded in 1/z, exact through the given
    order: the expansion runs 2 max |d_i| + 2 orders deeper."""
    work = order + 2 * max(abs(x) for x in d) + 2
    series = [[element_z_series(e, work) for e in row] for row in T.entries]
    return series_gauss_decompose(series, order)


# ---------------------------------------------------------------------------
# coproduct on current-algebra generators


@dataclass
class GeneratorCheck:
    name: str
    ok: bool


@dataclass
class CoproductReport:
    checks: List[GeneratorCheck]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> List[str]:
        return [c.name for c in self.checks if not c.ok]


def _nested_e_bracket(e_ones: List[AlgebraElement], a: int, b: int) -> AlgebraElement:
    """E^(1) attached to the root spanning rows a..b-1:
    [E_{b-1}, [..., [E_{a+1}, E_a] ...]]."""
    out = e_ones[a - 1]
    for k in range(a + 1, b):
        out = e_ones[k - 1].commutator(out)
    return out


def _nested_f_bracket(f_ones: List[AlgebraElement], a: int, b: int) -> AlgebraElement:
    """[[ ... [F_a, F_{a+1}], ... ], F_{b-1}]."""
    out = f_ones[a - 1]
    for k in range(a + 1, b):
        out = out.commutator(f_ones[k - 1])
    return out


def verify_coproduct_generators(div1: Divisor, div2: Divisor) -> CoproductReport:
    """Check the finite list of coproduct formulas on the images of the
    low current-algebra modes, through the series Gauss decomposition of
    the fused matrix, exact through the deepest mode the checks read."""
    from .lax_rational import build_gauss_factors, build_lax

    if div1.mode != "rational" or div2.mode != "rational":
        raise SignatureMismatch("generator-level checks run in rational mode")
    n = div1.n
    d1 = div1.mu.d
    d2 = div2.mu.d
    d = [a + b for a, b in zip(d1, d2)]
    b1 = [d1[i] - d1[i + 1] for i in range(n - 1)]
    b2 = [d2[i] - d2[i + 1] for i in range(n - 1)]
    # F and E are read through mode b + 1, G_i through mode 2 - d_i
    order = max([4, 2 + max(abs(x) for x in d)] + [b + 1 for b in b1 + b2])
    T1 = build_lax(div1)
    T2 = T1 if div2 == div1 else build_lax(div2)
    delta = fuse(T1, T2)
    sig = delta.signature
    F, G, E = _series_gauss(delta, d, order)
    gf1 = build_gauss_factors(div1)
    gf2 = gf1 if div2 == div1 else build_gauss_factors(div2)
    # each Gauss entry of T1 and T2 is expanded once, to the deepest mode
    # read from it
    lower1 = [element_z_series(gf1.lower[i][i - 1], b1[i - 1] + 1) for i in range(1, n)]
    lower2 = [element_z_series(gf2.lower[i][i - 1], 1) for i in range(1, n)]
    upper1 = [element_z_series(gf1.upper[i - 1][i], 1) for i in range(1, n)]
    upper2 = [element_z_series(gf2.upper[i - 1][i], b2[i - 1] + 1) for i in range(1, n)]
    diag1 = [element_z_series(g, 2 - k) for g, k in zip(gf1.diag, d1)]
    diag2 = [element_z_series(g, 2 - k) for g, k in zip(gf2.diag, d2)]

    def mode(series, r, factor):
        """Mode r of an expanded Gauss entry, embedded as the given tensor
        factor."""
        return embed(series.coeff(r), sig, factor)

    checks: List[GeneratorCheck] = []

    def add(name, lhs, rhs):
        checks.append(GeneratorCheck(name, lhs.equals(rhs)))

    for i in range(1, n):
        f1, f2 = lower1[i - 1], lower2[i - 1]
        e1, e2 = upper1[i - 1], upper2[i - 1]
        # F-side, slot 1 shift
        for r in range(1, b1[i - 1] + 1):
            add(f"F_{i}^({r}) passthrough", F[i][i - 1].coeff(r), mode(f1, r, 1))
        r = b1[i - 1] + 1
        add(f"F_{i}^({r}) mixing", F[i][i - 1].coeff(r), mode(f1, r, 1) + mode(f2, 1, 2))
        # E-side, slot 2 shift
        for r in range(1, b2[i - 1] + 1):
            add(f"E_{i}^({r}) passthrough", E[i - 1][i].coeff(r), mode(e2, r, 2))
        r = b2[i - 1] + 1
        add(f"E_{i}^({r}) mixing", E[i - 1][i].coeff(r), mode(e2, r, 2) + mode(e1, 1, 1))
    # D-side: the cross term of root (a, b) is the same for every row
    e1_first = [s.coeff(1) for s in upper1]
    f2_first = [s.coeff(1) for s in lower2]
    roots = [(a, b, embed(_nested_e_bracket(e1_first, a, b), sig, 1)
              * embed(_nested_f_bracket(f2_first, a, b), sig, 2))
             for a in range(1, n) for b in range(a + 1, n + 1)]
    zero = AlgebraElement.zero(sig)
    for i in range(1, n + 1):
        g1, g2 = diag1[i - 1], diag2[i - 1]
        k1, k2 = 1 - d1[i - 1], 1 - d2[i - 1]
        first1, first2 = mode(g1, k1, 1), mode(g2, k2, 2)
        add(f"D_{i} first mode", G[i - 1].coeff(1 - d[i - 1]), first1 + first2)
        lhs = G[i - 1].coeff(2 - d[i - 1])
        rhs = mode(g1, k1 + 1, 1) + mode(g2, k2 + 1, 2) + first1 * first2
        cross = zero
        for a, b, term in roots:
            eps = (1 if i == a else 0) - (1 if i == b else 0)
            if eps:
                cross = cross + term * eps
        add(f"D_{i} second mode", lhs, rhs + cross)
    return CoproductReport(checks)


def coproduct_mode_contract(delta) -> bool:
    """Gauss-mode contract of the fused matrix, read through mode 4:
    strictly negative z-modes for the unitriangular factors, leading
    diagonal mode z^{d_i} with coefficient one.  The contract is the
    rational one: a trig matrix raises SignatureMismatch."""
    if delta.signature.mode != "rational":
        raise SignatureMismatch("the Gauss-mode contract is checked in rational mode")
    div = delta.divisor
    if div is None:
        raise ValueError("fused matrix lost its divisor")
    d = div.mu.d
    n = delta.n
    F, G, E = _series_gauss(delta, d, 4)
    sig = delta.signature
    one = AlgebraElement.one(sig)
    for i in range(n):
        if G[i].val() != -d[i]:
            return False
        if not G[i].coeff(-d[i]).equals(one):
            return False
        for j in range(n):
            if i == j:
                continue
            mat = E if i < j else F
            if not mat[i][j].is_zero_through(0):
                return False
    return True
