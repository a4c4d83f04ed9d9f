"""Kernel unit tests: exact arithmetic, atoms, series, limits, inversion."""

import functools
import random
from fractions import Fraction

import pytest

from laxkit.errors import DivergesAtInfinity, NotAtomFactorable
from laxkit.ratfun import (
    EPS,
    Poly,
    RatFun,
    V,
    W,
    Z,
    _atom_key,
    equals_probabilistic,
    grlex_key,
    is_unit_var,
    p_var,
    poly_div_exact,
    series_expand,
    var_precedence,
    wh_var,
    x_var,
)
from laxkit.textio import latex_poly, render_poly

z = RatFun.variable(Z)
p11 = RatFun.variable(p_var(1, 1))
p12 = RatFun.variable(p_var(1, 2))
x1 = RatFun.variable(x_var("x1"))


def test_antisymmetric_inverse_sum_vanishes():
    assert ((p11 - p12).invert() + (p12 - p11).invert()).is_zero()


def test_atom_cancellation():
    assert ((z - p11) * (z - p11).invert()).equals(1)


def test_product_expands_to_four_terms():
    # (z - p11)(z - p12) * p11, expanded by hand
    prod = (z - p11) * (z - p12) * p11
    by_hand = (
        z * z * p11
        - z * p11 * p11
        - z * p11 * p12
        + p11 * p11 * p12
    )
    assert prod.equals(by_hand)
    assert not prod.den  # unit denominator


def test_invert_linear_atoms():
    assert (z - x1).invert().equals(RatFun.ratio(Poly.const(1), (z - x1).num))
    f = p11 - p12 + 3
    assert (f.invert() * f).equals(1)


def test_invert_irreducible_raises():
    with pytest.raises(NotAtomFactorable):
        (p11 * p11 + 1).invert()


def test_invert_linear_products():
    f = (z - p11) * (z - p12) * (p11 - p12 + 3) * 7
    assert (f.invert() * f).equals(1)


def test_shift_rational():
    assert (z - p11).shift_slot("rational", 1, 1, 1, -1).equals(z - p11 + 1)


def test_shift_trig_scales_full_w_by_v_squared():
    # conjugation by the shift generator multiplies w by v^2 (w^{1/2} by v)
    w11 = RatFun.variable(wh_var(1, 1), 2)
    w12 = RatFun.variable(wh_var(1, 2), 2)
    v = RatFun.variable(V)
    f = (w11 - v * w12).invert()
    got = f.shift_slot("trig", 1, 1, 1, 1)
    assert got.equals((v * v * w11 - v * w12).invert())


def test_shift_of_constant_is_identity():
    one = RatFun.one()  # the empty slot product evaluated anywhere
    for m in (-2, 0, 3):
        assert one.shift_slot("rational", 1, 1, 1, m).equals(1)


def test_shift_is_ring_automorphism():
    rng = random.Random(5)
    from laxkit.suite import random_ratfun

    for idx in range(60):
        mode = "rational" if idx % 2 == 0 else "trig"
        a = random_ratfun(rng, mode)
        b = random_ratfun(rng, mode)
        m, m2 = rng.randint(-2, 2), rng.randint(-2, 2)
        sh = lambda f, k: f.shift_slot(mode, 1, 1, 1, k)
        assert sh(a * b, m).equals(sh(a, m) * sh(b, m))
        assert sh(a + b, m).equals(sh(a, m) + sh(b, m))
        assert sh(sh(a, m), m2).equals(sh(a, m + m2))


def test_geometric_series():
    f = (1 - x1 / z).invert()
    s = f.series("z_inf", 3)
    assert s.val() == 0
    assert s.coeff(0).equals(1)
    assert s.coeff(1).equals(x1)
    assert s.coeff(2).equals(x1 * x1)


def test_series_leading_power():
    d = 3
    g = RatFun.variable(x_var("g"))
    f = z ** d + g * z ** (d - 1)
    s = f.series("z_inf", 2)
    assert s.val() == -d
    assert s.coeff(-d).equals(1)
    assert s.coeff(-d + 1).equals(g)


def test_eps_expansion_first_order():
    # 1/(w11 - v w12) expands with a simple eps pole and residue
    # 1/(p11 - p12 - 1/2) under the default degeneration map
    w11 = RatFun.variable(wh_var(1, 1), 2)
    w12 = RatFun.variable(wh_var(1, 2), 2)
    v = RatFun.variable(V)
    s = series_expand((w11 - v * w12).invert(), "eps", 1)
    assert s.val() == -1
    expected = (p11 - p12 - Fraction(1, 2)).invert()
    assert s.coeff(-1).equals(expected)


def test_series_recombination_is_faithful():
    rng = random.Random(8)
    from laxkit.suite import random_ratfun

    order = 5
    for idx in range(25):
        f = random_ratfun(rng, "rational" if idx % 2 == 0 else "trig")
        if f.is_zero():
            continue
        s = f.series("z_inf", order)
        v = s.val()
        partial = RatFun.zero()
        for k in sorted(s.coeffs):
            partial = partial + s.coeffs[k] * RatFun.variable(Z, -k)
        remainder = f - partial
        if remainder.is_zero():
            continue
        rs = remainder.series("z_inf", 1)
        assert rs.val() > s.hi


def test_limit_leading_examples():
    xv = x_var("x1")
    assert ((z - x1) / (-x1)).limit_leading(xv).equals(1)
    assert (1 / (-x1)).limit_leading(xv).is_zero()
    with pytest.raises(DivergesAtInfinity):
        (z - x1).limit_leading(xv)


def test_equals_examples():
    assert ((z - x1).invert() + (x1 - z).invert()).is_zero()
    # the row-sum identities at the sizes the lemmas use: previous row one
    # shorter than the current row
    p2 = [RatFun.variable(p_var(2, t)) for t in (1, 2)]
    p1 = [RatFun.variable(p_var(1, 1))]
    full = RatFun.zero()
    skip = RatFun.zero()
    for r in range(2):
        cr = p2[r]
        other = p2[1 - r]
        term = (p1[0] * (-1) + cr - 1) * (cr - other).invert()
        full = full + term
        skip = skip + (cr - other).invert()
    assert full.equals(1)

    # with a_prev = a_cur the full-row sum is NOT 1 (degree reasons)
    b = [p11, p12]
    c = [RatFun.variable(p_var(2, 1)), RatFun.variable(p_var(2, 2))]
    tot = RatFun.zero()
    for r in range(2):
        cr = c[r]
        num = (cr - 1 - b[0]) * (cr - 1 - b[1])
        tot = tot + num * (cr - c[1 - r]).invert()
    assert not tot.equals(1)


def test_probabilistic_equality():
    a = (z - p11) * (z + p11)
    b = z * z - p11 * p11
    assert equals_probabilistic(a, b)
    assert not equals_probabilistic(a, b + 1)


def test_invert_roundtrip_property():
    rng = random.Random(17)
    from laxkit.suite import random_ratfun

    count = 0
    for idx in range(80):
        f = random_ratfun(rng, "rational")
        if f.is_zero():
            continue
        try:
            g = f.invert()
        except NotAtomFactorable:
            continue
        count += 1
        assert (g * f).equals(1)
    assert count > 10


def test_ring_axioms_sampled():
    rng = random.Random(23)
    from laxkit.suite import random_ratfun

    for idx in range(60):
        mode = "rational" if idx % 2 == 0 else "trig"
        a, b, c = (random_ratfun(rng, mode) for _ in range(3))
        assert ((a + b) * c).equals(a * c + b * c)
        assert ((a * b) * c).equals(a * (b * c))
        assert (a * b).equals(b * a)


def test_poly_coeffs_requires_clean_denominator():
    f = (z - p11).invert()
    with pytest.raises(ValueError):
        f.poly_coeffs(Z)
    g = z * z * p11 + z + 3
    coeffs = g.poly_coeffs(Z)
    assert coeffs[2].equals(p11)
    assert coeffs[1].equals(1)
    assert coeffs[0].equals(3)


# ---------------------------------------------------------------------------
# term order: the kernel's dense grlex key against a pairwise comparator


def _oracle_cmp(a, b):
    """Reference term order, compared pairwise: total degree first, then
    walk the variables most significant first (var_precedence) and let
    the larger exponent win, absent variables reading as 0."""
    da, db = sum(e for _, e in a), sum(e for _, e in b)
    if da != db:
        return 1 if da > db else -1
    ia = sorted(a, key=lambda ve: var_precedence(ve[0]))
    ib = sorted(b, key=lambda ve: var_precedence(ve[0]))
    ka = kb = 0
    while ka < len(ia) or kb < len(ib):
        pa = var_precedence(ia[ka][0]) if ka < len(ia) else None
        pb = var_precedence(ib[kb][0]) if kb < len(ib) else None
        if pa is not None and (pb is None or pa < pb):
            ea, eb = ia[ka][1], 0
            ka += 1
        elif pb is not None and (pa is None or pb < pa):
            ea, eb = 0, ib[kb][1]
            kb += 1
        else:
            ea, eb = ia[ka][1], ib[kb][1]
            ka += 1
            kb += 1
        if ea != eb:
            return 1 if ea > eb else -1
    return 0


_ORACLE_KEY = functools.cmp_to_key(_oracle_cmp)
_ALL_KIND_VARS = [Z, W, V, EPS, x_var("x1"), x_var("x2")] + [
    f(i, r, slot) for f in (p_var, wh_var) for slot in (1, 2) for i in (1, 2) for r in (1, 2)
]


def _random_mono(rng):
    out = {}
    for _ in range(rng.randint(0, 4)):
        v = rng.choice(_ALL_KIND_VARS)
        lo = -3 if is_unit_var(v) else 0
        out[v] = out.get(v, 0) + rng.randint(lo, 3)
    return tuple(sorted((v, e) for v, e in out.items() if e))


def _random_laurent_poly(rng, coeffs):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        terms[_random_mono(rng)] = Fraction(rng.choice(coeffs))
    return Poly(terms)


def test_term_order_matches_pairwise_oracle():
    rng = random.Random(31)
    for _ in range(300):
        p = _random_laurent_poly(rng, [-3, -1, 1, 2, Fraction(1, 2)])
        desc = sorted(p.terms, key=_ORACLE_KEY, reverse=True)
        assert p.leading_term() == (desc[0], p.terms[desc[0]])
        assert _atom_key(p) == tuple((m, p.terms[m]) for m in reversed(desc))
        monos = [_random_mono(rng) for _ in range(8)]
        key = grlex_key({v for m in monos for v, _ in m})
        assert sorted(set(monos), key=key) == sorted(set(monos), key=_ORACLE_KEY)


def test_rendered_term_order_matches_pairwise_oracle():
    # positive coefficients: terms then join with " + " (text) and " +" (LaTeX)
    rng = random.Random(32)
    for _ in range(200):
        p = _random_laurent_poly(rng, [1, 2, Fraction(3, 2)])
        desc = sorted(p.terms, key=_ORACLE_KEY, reverse=True)
        single = [Poly({m: p.terms[m]}) for m in desc]
        assert render_poly(p) == " + ".join(render_poly(s) for s in single)
        assert latex_poly(p) == " +".join(latex_poly(s) for s in single)


# ---------------------------------------------------------------------------
# exact division against sympy (test-only oracle)

_DIV_VARS = [Z, x_var("x1"), p_var(1, 1), V, wh_var(1, 1)]


def _sympy_expr(sympy, p):
    syms = {v: sympy.Symbol("_".join(map(str, v))) for v in _DIV_VARS}
    return sympy.Add(
        *(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(syms[v] ** e for v, e in m))
            for m, c in p.terms.items()
        )
    ), [syms[v] for v in _DIV_VARS]


def _clear_units(p, drop_content):
    """Multiply p by a unit monomial so every exponent is >= 0 and, with
    drop_content, every unit variable has minimum exponent 0.  Unit
    monomials are invertible, so this does not change divisibility."""
    shift = []
    for v in _DIV_VARS:
        if is_unit_var(v):
            lo = p.min_exp(v)
            if lo < 0 or (drop_content and lo > 0):
                shift.append((v, -lo))
    return p * Poly.monomial(tuple(sorted(shift))) if shift else p


def _sympy_divides(sympy, f, g):
    fe, gens = _sympy_expr(sympy, _clear_units(f, False))
    ge, _ = _sympy_expr(sympy, _clear_units(g, True))
    _, rem = sympy.reduced(fe, [ge], *gens, order="grevlex")
    return rem == 0


def _random_div_poly(rng, terms):
    out = {}
    for _ in range(rng.randint(1, terms)):
        mono = {}
        for v in rng.sample(_DIV_VARS, rng.randint(0, 3)):
            lo = -2 if is_unit_var(v) else 0
            e = rng.randint(lo, 2)
            if e:
                mono[v] = e
        c = Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 3))
        out[tuple(sorted(mono.items()))] = c
    return Poly(out)


def test_exact_division_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(41)
    hits = misses = 0
    for idx in range(150):
        f = _random_div_poly(rng, 4)
        g = _random_div_poly(rng, 3)
        if idx % 5 == 0:
            g = g * Poly.variable(V)  # unit content the dividend may lack
        assert poly_div_exact(f * g, g) == f
        h = f * g + _random_div_poly(rng, 2)
        if h.is_zero():
            continue
        q = poly_div_exact(h, g)
        want = _sympy_divides(sympy, h, g)
        assert (q is not None) == want, (h, g)
        if q is not None:
            hits += 1
            assert q * g == h
            assert all(e >= 0 or is_unit_var(v) for m in q.terms for v, e in m)
        else:
            misses += 1
    assert hits and misses > 50
