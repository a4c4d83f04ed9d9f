"""The series layer against reference copies of its earlier forms: the
reciprocal as a geometric sum of powers, products added one by one, the
Gauss update through F g E and the expansion behind a probe."""

import random
from fractions import Fraction

import pytest

from laxkit import rtt
from laxkit.algebra import AlgebraElement, AlgebraSignature, sum_of_products
from laxkit.errors import PoleAtExpansionPoint, SingularLeadingMode
from laxkit.lax_rational import build_lax, fuse
from laxkit.ratfun import Z, RatFun, p_var, x_var
from laxkit.poly import Poly
from laxkit.rtt import element_z_series, series_gauss_decompose, verify_coproduct_generators
from laxkit.series import TruncSeries
from laxkit.suite import block_example_divisor, first_example_divisor, random_element, toda_divisor


# ---------------------------------------------------------------------------
# reference copies


def _chained_mul(a, b):
    """a * b with every term product added on its own, in convolution order."""
    if a.is_exact_zero() or b.is_exact_zero():
        return TruncSeries({}, None, a.zero)
    av = a.val() if a.coeffs else a.hi + 1
    bv = b.val() if b.coeffs else b.hi + 1
    hi = None
    if a.hi is not None:
        hi = a.hi + bv
    if b.hi is not None:
        h2 = b.hi + av
        hi = h2 if hi is None else min(hi, h2)
    out = {}
    for ka, ca in a.coeffs.items():
        for kb, cb in b.coeffs.items():
            k = ka + kb
            if hi is not None and k > hi:
                continue
            c = ca * cb
            cur = out.get(k)
            out[k] = c if cur is None else cur + c
    return TruncSeries(out, hi, a.zero)


def _geometric_inverse(s, order, invert_leading):
    """s^{-1} as (sum of the powers u^j) c0^{-1} t^{-v}, s = t^v c0 (1 - u)."""
    v = s.val()
    if v is None:
        raise PoleAtExpansionPoint("no leading term visible in the expansion window")
    target = order
    if s.hi is not None:
        target = min(target, s.hi - 2 * v)
    c0 = s.coeffs[v]
    c0_inv = invert_leading(c0)
    one = c0_inv * c0
    window = target + v
    u = TruncSeries(
        {k - v: -(c0_inv * c) for k, c in s.coeffs.items() if k != v},
        None if s.hi is None else s.hi - v,
        s.zero,
    ).truncate(window)
    total = TruncSeries({0: one}, window, s.zero)
    term = total
    while True:
        term = _chained_mul(term, u).truncate(window)
        if term.val() is None:
            break
        total = total + term
    return TruncSeries({k - v: c * c0_inv for k, c in total.coeffs.items()}, target, s.zero)


def _probed_z_series(elem, hi):
    """element_z_series with each coefficient's valuation read from a
    one-term probe expansion."""
    sig = elem.signature
    zero = AlgebraElement.zero(sig)
    total = TruncSeries({}, hi, zero)
    for shift, coeff in elem.terms.items():
        v = coeff.series("z_inf", 1).val()
        if v is None:
            continue
        s = coeff.series("z_inf", hi - v + 1)
        total = total + TruncSeries(
            {k: AlgebraElement(sig, {shift: c}) for k, c in s.coeffs.items()}, s.hi, zero)
    return total


def _fge_gauss_decompose(entries, order):
    """series_gauss_decompose with the Schur update S - F g E, the chained
    product and the geometric reciprocal."""
    n = len(entries)
    zero = entries[0][0].zero
    sig = zero.signature
    unit = lambda i, j: TruncSeries({0: AlgebraElement.one(sig)} if i == j else {}, None, zero)
    S = [list(row) for row in entries]
    span = max((abs(e.val()) for row in entries for e in row if e.val() is not None),
               default=0)
    F = [[unit(i, j) for j in range(n)] for i in range(n)]
    E = [[unit(i, j) for j in range(n)] for i in range(n)]
    G = []
    cap = order + span
    for k in range(n):
        g = S[k][k]
        if g.val() is None:
            raise SingularLeadingMode(f"diagonal {k + 1} vanishes to working order")
        G.append(g)
        g_inv = _geometric_inverse(g, cap, lambda c: c.invert_single_term())
        for b in range(k + 1, n):
            E[k][b] = _chained_mul(g_inv, S[k][b]).truncate(cap)
        for a in range(k + 1, n):
            F[a][k] = _chained_mul(S[a][k], g_inv).truncate(cap)
        for a in range(k + 1, n):
            for b in range(k + 1, n):
                fge = _chained_mul(_chained_mul(F[a][k], g), E[k][b])
                S[a][b] = (S[a][b] - fge).truncate(cap)
    return F, G, E


# ---------------------------------------------------------------------------
# helpers


def _same(a, b):
    """Same window, same powers, equal coefficients."""
    assert a.hi == b.hi
    assert set(a.coeffs) == set(b.coeffs)
    for k, c in a.coeffs.items():
        assert c == b.coeffs[k], k


def _is_one_through(s, one):
    """Every known coefficient of s is that of the constant series one."""
    for k in range(min(s.coeffs, default=0), s.hi + 1):
        want = one if k == 0 else s.zero
        assert s.coeff(k) == want, k


_CASES = {
    "toda*toda": lambda: (toda_divisor(), toda_divisor()),
    "first_example3*first_example3": lambda: (first_example_divisor(3),) * 2,
    "block_example": lambda: (block_example_divisor(),),
}


def _case_series(name):
    """The entries of the case's matrix, a fused pair or one build,
    expanded in 1/z as the generator check expands them; the order the
    Gauss factors are asked for."""
    divs = _CASES[name]()
    T = build_lax(divs[0]) if len(divs) == 1 else fuse(*map(build_lax, divs))
    d = [sum(x) for x in zip(*(div.mu.d for div in divs))]
    order = max(4, 2 + max(abs(x) for x in d))
    work = order + 2 * max(abs(x) for x in d) + 2
    return T, work, order


@pytest.fixture(scope="module")
def gauss_cases():
    out = {}
    for name in _CASES:
        T, work, order = _case_series(name)
        out[name] = (T, work, order,
                     [[element_z_series(e, work) for e in row] for row in T.entries])
    return out


# ---------------------------------------------------------------------------
# reciprocal


def _ratfun_series_cases():
    """RatFun series of seeded numerators over z-linear atoms, z^2 - 1 and
    atoms free of z."""
    rng = random.Random(24)
    z = Poly.variable(Z)
    p11, p21, x1 = (Poly.variable(v) for v in (p_var(1, 1), p_var(2, 1), x_var("x1")))
    dens = [
        [(z - p11, 1)],
        [(z - x1 + 2, 2)],
        [(z * 3 - p11 + p21, 1), (z - x1, 1)],
        [(z ** 2 - 1, 1)],
        [(z ** 2 - 1, 1), (z + p11, 1)],
        [(p11 - p21 + 1, 1)],
        [(p11 - x1, 2), (z - p21, 1)],
    ]
    gens = [p11, p21, x1, Poly.const(1)]
    out = []
    for factors in dens:
        for _ in range(3):
            # a scalar leading z-coefficient, so that the series of f has
            # an invertible leading coefficient
            top = rng.randint(0, 3)
            num = z ** top * rng.choice([1, -2, Fraction(3, 2)])
            for _ in range(rng.randint(0, 3)):
                term = z ** rng.randint(0, max(top - 1, 0)) * rng.randint(1, 5)
                for _ in range(rng.randint(0, 2)):
                    term = term * rng.choice(gens)
                num = num + term
            if num.is_zero() or num.degree(Z) != top:
                continue
            f = RatFun.quotient(num, factors)
            for order in (1, 3, 6):
                s = f.series("z_inf", order)
                # a short order can leave the window below the leading
                # power (the inverse of a z-free atom is not padded by
                # the numerator's z-degree): nothing to invert then
                if s.coeffs:
                    out.append(s)
    return out


def _int_series_cases():
    rng = random.Random(2024)
    out = []
    for _ in range(60):
        v = rng.randint(-3, 3)
        coeffs = {v: rng.choice([-3, -2, -1, 1, 2, 5])}
        for k in range(v + 1, v + 8):
            if rng.random() < 0.5:
                coeffs[k] = rng.randint(-4, 4)
        hi = rng.choice([None, v + rng.randint(0, 9)])
        out.append(TruncSeries(coeffs, hi, 0))
    return out


def _noncommutative_series_cases():
    """Seeded series over a rational algebra, each led by a shift times a
    linear form, which does not commute with the coefficients after it."""
    sig = AlgebraSignature(3, "rational", ((2, 1),))
    zero = AlgebraElement.zero(sig)
    rng = random.Random(31)
    lead_coeff = Poly.variable(p_var(1, 1)) - Poly.variable(x_var("x1"))
    out = []
    for _ in range(12):
        v = rng.randint(-2, 2)
        lead = AlgebraElement.shift(sig, rng.randint(1, 2), 1, rng.choice([-1, 1]),
                                    coeff=RatFun.from_poly(lead_coeff + rng.randint(1, 4)))
        coeffs = {v: lead}
        for k in range(v + 1, v + 5):
            if rng.random() < 0.7:
                coeffs[k] = random_element(rng, sig)
        out.append(TruncSeries(coeffs, rng.choice([None, v + 6]), zero))
    return out


def _check_inverse(s, order, invert_leading, one):
    got = s.inverse(order, invert_leading)
    _same(got, _geometric_inverse(s, order, invert_leading))
    # s s^{-1} and s^{-1} s are 1 through the window they are exact in,
    # target + val(s)
    target = got.hi
    for prod in (s * got, got * s):
        assert prod.hi == target + s.val()
        _is_one_through(prod, one)


def test_inverse_of_ratfun_series_matches_geometric_sum():
    cases = _ratfun_series_cases()
    assert len(cases) > 50
    for s in cases:
        for order in (0, 2, 5):
            _check_inverse(s, order, RatFun.invert, RatFun.one())


def test_inverse_of_int_series_matches_geometric_sum():
    for s in _int_series_cases():
        for order in (-2, 0, 3, 7):
            _check_inverse(s, order, lambda c: Fraction(1, c), 1)


def test_inverse_of_diagonal_gauss_series_matches_geometric_sum(gauss_cases):
    checked = 0
    for name in ("toda*toda", "first_example3*first_example3"):
        T, work, order, series = gauss_cases[name]
        one = AlgebraElement.one(T.signature)
        _, G, _ = series_gauss_decompose(series, order)
        for g in G:
            for o in (1, order):
                _check_inverse(g, o, lambda c: c.invert_single_term(), one)
                checked += 1
    assert checked == 10


def test_inverse_of_noncommutative_series_matches_geometric_sum():
    cases = _noncommutative_series_cases()
    sig = cases[0].zero.signature
    one = AlgebraElement.one(sig)
    commuting = 0
    for s in cases:
        lead = s.coeffs[s.val()]
        commuting += all(lead * c == c * lead for c in s.coeffs.values())
        for order in (0, 2, 4):
            _check_inverse(s, order, lambda c: c.invert_single_term(), one)
    assert commuting < len(cases) // 2


def test_inverse_without_a_visible_leading_term_raises():
    for s in (TruncSeries({}, 3, 0), TruncSeries({5: 1}, 3, 0),
              TruncSeries({}, 0, RatFun.zero())):
        with pytest.raises(PoleAtExpansionPoint):
            s.inverse(4, lambda c: Fraction(1, c))


# ---------------------------------------------------------------------------
# products, expansion and the Gauss factors


def test_gathered_products_match_chained_products(gauss_cases):
    T, work, order, series = gauss_cases["first_example3*first_example3"]
    sig = T.signature
    flat = [s for row in series for s in row]
    pairs = 0
    for a in flat[:5]:
        for b in flat[-5:]:
            _same(a * b, _chained_mul(a, b))
            _same(b * a, _chained_mul(b, a))
            pairs += 1
    assert pairs == 25
    elems = [e for row in T.entries for e in row]
    for k in range(len(elems) - 2):
        triple = elems[k:k + 3]
        chained = AlgebraElement.zero(sig)
        for x, y in zip(triple, reversed(triple)):
            chained = chained + x * y
        assert sum_of_products(sig, zip(triple, reversed(triple))) == chained
    assert sum_of_products(sig, []).is_zero()


def test_capped_product_matches_truncated_product():
    ints = _int_series_cases()[:20]
    algebra = _noncommutative_series_cases()[:6]
    for cases in (ints, algebra):
        for a, b in zip(cases, cases[1:] + cases[:1]):
            for cap in range(-6, 10, 3):
                _same(a.mul(b, cap), (a * b).truncate(cap))
    zero = TruncSeries({}, None, 0)
    _same(zero.mul(ints[0], 4), (zero * ints[0]).truncate(4))


@pytest.mark.parametrize("name", list(_CASES))
def test_element_z_series_matches_probed_expansion(name, gauss_cases):
    T, work, order, series = gauss_cases[name]
    for row, srow in zip(T.entries, series):
        for e, s in zip(row, srow):
            _same(s, _probed_z_series(e, work))
            for hi in (-3, 0, 1, 2):
                _same(element_z_series(e, hi), _probed_z_series(e, hi))


@pytest.mark.parametrize("name", list(_CASES))
def test_series_gauss_matches_fge_update(name, gauss_cases):
    T, work, order, series = gauss_cases[name]
    for got, want in zip(series_gauss_decompose(series, order),
                         _fge_gauss_decompose(series, order)):
        if isinstance(got[0], list):
            for grow, wrow in zip(got, want):
                for g, w in zip(grow, wrow):
                    _same(g, w)
        else:
            for g, w in zip(got, want):
                _same(g, w)


# ---------------------------------------------------------------------------
# the generator check can fail


@pytest.mark.parametrize("div, entry, failures", [
    (toda_divisor(), (0, 1),
     ["E_1^(2) passthrough", "E_1^(3) mixing", "D_2 first mode", "D_2 second mode"]),
    # entry (1,2) of this fused pair leaves a singular leading mode
    (first_example_divisor(3), (1, 2),
     ["E_2^(1) passthrough", "E_2^(2) mixing", "D_3 first mode", "D_3 second mode"]),
])
def test_generator_check_fails_on_a_corrupted_fusion(monkeypatch, div, entry, failures):
    fuse_ok = rtt.fuse

    def corrupted_fuse(T1, T2):
        delta = fuse_ok(T1, T2)
        broken = [list(row) for row in delta.entries]
        i, j = entry
        broken[i][j] = broken[i][j] + AlgebraElement.one(delta.signature)
        return type(delta)(delta.signature, delta.divisor, broken)

    monkeypatch.setattr(rtt, "fuse", corrupted_fuse)
    rep = verify_coproduct_generators(div, div)
    assert rep.ok is False
    assert rep.failures() == failures
