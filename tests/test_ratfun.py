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
    is_unit_var,
    p_var,
    poly_div_exact,
    substitute,
    wh_var,
    x_var,
)
from laxkit.monomials import HALF, pack_mono, unpack_mono, var_precedence
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
    # past its unit content wh[1,1]^-1 the numerator has three terms in
    # v, wh[1,1] and x[x1]: neither a linear form nor a two-term atom
    from laxkit.textio import parse_ratfun

    with pytest.raises(NotAtomFactorable):
        parse_ratfun("-2*v^2 + 2*x[x1] + 2*v*wh[1,1]^-1").invert()


def test_invert_linear_products():
    # a product of linear forms inverts factor by factor; its expanded
    # numerator is not one atom, and invert does not split it
    f = (z - p11) * (z - p12) * (p11 - p12 + 3) * 7
    inv = (z - p11).invert() * (z - p12).invert() * (p11 - p12 + 3).invert() * Fraction(1, 7)
    assert (inv * f).equals(1)
    factors = [(g.num, -1) for g in (z - p11, z - p12, p11 - p12 + 3)]
    assert inv.equals(RatFun.product(Fraction(1, 7), factors))
    with pytest.raises(NotAtomFactorable):
        f.invert()


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


def test_substitution_keeps_atoms_it_leaves_alone():
    # p[2,1] occurs only in the numerator: both atoms come back as the
    # very same objects, and the result is the shifted function
    p21 = RatFun.variable(p_var(2, 1))
    f = (z + p21) * (z - x1).invert() * (p11 - p12).invert()
    g = f.shift_slot("rational", 1, 2, 1, 1)
    assert {id(a) for a in g.den} == {id(a) for a in f.den}
    assert g.equals((z + p21 + 1) * (z - x1).invert() * (p11 - p12).invert())
    w11 = RatFun.variable(wh_var(1, 1), 2)
    t = (w11 - RatFun.variable(V) * z).invert()
    u = t.shift_slot("trig", 1, 1, 2, 1)  # wh[1,2] does not occur in t
    assert {id(a) for a in u.den} == {id(a) for a in t.den} and u.equals(t)


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
    s = (w11 - v * w12).invert().eps_series(1)
    assert s.val() == -1
    expected = (p11 - p12 - Fraction(1, 2)).invert()
    assert s.coeff(-1).equals(expected)


def test_eps_window_holds_for_high_pole_orders():
    # v^2 - 1 -> e^eps - 1 has valuation 1, so 1/(v^2 - 1)^k has a pole of
    # order k; the windows must be padded by k, not by a fixed amount
    order = 2
    atom = RatFun.variable(V) ** 2 - 1
    for k in range(1, 8):
        s = (atom.invert() ** k).eps_series(order)
        assert s.val() == -k, k
        assert s.hi >= order, k
        assert s.coeff(-k).equals(1), k


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
# term order: the kernel's grlex key against a pairwise comparator


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
    return Poly({pack_mono(m): c for m, c in terms.items()})


def _decoded_terms(p):
    """p's terms keyed by ((var, exp), ...) monomials."""
    return {unpack_mono(m): c for m, c in p.terms.items()}


def test_term_order_matches_pairwise_oracle():
    rng = random.Random(31)
    for _ in range(300):
        p = _random_laurent_poly(rng, [-3, -1, 1, 2, Fraction(1, 2)])
        terms = _decoded_terms(p)
        desc = sorted(terms, key=_ORACLE_KEY, reverse=True)
        lead, lc = p.ordered_terms()[0]
        assert (tuple(sorted(lead)), lc) == (desc[0], terms[desc[0]])
        assert _atom_key(p) == tuple((m, terms[m]) for m in reversed(desc))
        monos = set(_random_mono(rng) for _ in range(8))
        ranked = Poly({pack_mono(m): 1 for m in monos}).ordered_terms()
        assert [tuple(sorted(m)) for m, _ in reversed(ranked)] == sorted(monos, key=_ORACLE_KEY)


def test_rendered_term_order_matches_pairwise_oracle():
    # positive coefficients: terms then join with " + " (text) and " +" (LaTeX)
    rng = random.Random(32)
    for _ in range(200):
        p = _random_laurent_poly(rng, [1, 2, Fraction(3, 2)])
        terms = _decoded_terms(p)
        desc = sorted(terms, key=_ORACLE_KEY, reverse=True)
        single = [Poly.monomial(m, terms[m]) for m in desc]
        assert render_poly(p) == " + ".join(render_poly(s) for s in single)
        assert latex_poly(p) == " +".join(latex_poly(s) for s in single)


# ---------------------------------------------------------------------------
# exact division against sympy (test-only oracle)

_DIV_VARS = [Z, x_var("x1"), p_var(1, 1), V, wh_var(1, 1)]
# the generators of the sympy oracle: _DIV_VARS and the second slot of
# the trig slot atoms v^2k*w[1,2] - w[1,1]
_ORACLE_VARS = _DIV_VARS + [wh_var(1, 2)]


def _sympy_of(sympy, f):
    """A Poly or RatFun as a sympy expression, one symbol per variable."""

    def sym(v):
        return sympy.Symbol("_".join(map(str, v)))

    def poly(p):
        return sympy.Add(
            *(
                sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(sym(v) ** e for v, e in unpack_mono(m)))
                for m, c in p.terms.items()
            )
        )

    if isinstance(f, Poly):
        return poly(f)
    return poly(f.num) / sympy.Mul(*(poly(a.poly) ** m for a, m in f.den.items()))


def _sympy_expr(sympy, p):
    return _sympy_of(sympy, p), [sympy.Symbol("_".join(map(str, v))) for v in _ORACLE_VARS]


def _clear_units(p, drop_content):
    """Multiply p by a unit monomial so every exponent is >= 0 and, with
    drop_content, every unit variable has minimum exponent 0.  Unit
    monomials are invertible, so this does not change divisibility."""
    shift = []
    for v in _ORACLE_VARS:
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


def _random_div_poly(rng, terms, vars_=_DIV_VARS):
    out = {}
    for _ in range(rng.randint(1, terms)):
        mono = {}
        for v in rng.sample(vars_, rng.randint(0, 3)):
            lo = -2 if is_unit_var(v) else 0
            e = rng.randint(lo, 2)
            if e:
                mono[v] = e
        c = Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 3))
        out[pack_mono(mono.items())] = c
    return Poly(out)


def _division_atoms(rng):
    """_prime_atoms, which are divided in u, then the two-term atoms of
    _BINOMIALS, z^4 - 1 and one with Fraction coefficients, which are
    divided along chains."""
    from laxkit.textio import parse_poly

    texts = _BINOMIALS + ["z^4 - 1", "3*z^3*x[x1] + 2/3*v^2"]
    return _prime_atoms(rng) + [_one_atom(parse_poly(t)) for t in texts]


def test_exact_division_matches_sympy():
    # RatFun's division by an atom: synthetic division in u by the prime
    # atoms, along chains by the two-term ones
    sympy = pytest.importorskip("sympy")

    rng = random.Random(41)
    vars_ = _DIV_VARS + [wh_var(1, 2)]
    atoms = _division_atoms(rng)
    seen = dict.fromkeys(("hit", "miss", "binomial hit", "binomial miss", "unit", "fraction"), 0)
    for idx in range(330):
        atom = atoms[idx % len(atoms)]
        g = atom.poly
        kernel = "" if atom.parts else "binomial "
        f = _random_div_poly(rng, 4, vars_)
        if idx % 5 == 0:
            # Laurent unit content, negative powers included
            f = f * Poly.monomial(((V, -3), (wh_var(1, 1), 2)), Fraction(2, 3))
            seen["unit"] += 1
        seen["fraction"] += any(c.__class__ is Fraction for c in (f * g).terms.values())
        assert poly_div_exact(f * g, atom) == f
        assert poly_div_exact(f * g * g, atom) == f * g
        noise = _random_div_poly(rng, 2, vars_)
        h = f * g + (noise * g if idx % 3 == 0 else noise)
        if not h.is_zero():
            q = poly_div_exact(h, atom)
            assert (q is not None) == _sympy_divides(sympy, h, g), (h, atom)
            if q is not None:
                assert q * g == h
                assert all(
                    e >= 0 or is_unit_var(v) for m in q.terms for v, e in unpack_mono(m)
                )
            seen[kernel + ("hit" if q is not None else "miss")] += 1
        # the quotient f * v^-(1 + deg_v f) holds a negative power of a
        # non-unit variable, so no division may succeed, even where g
        # makes up for it in the dividend
        v = rng.choice([Z, x_var("x1"), p_var(1, 1)])
        assert poly_div_exact(f * Poly.variable(v, -1 - f.degree(v)) * g, atom) is None
    assert seen["hit"] > 60 and seen["miss"] > 120, seen
    assert seen["binomial hit"] > 15 and seen["binomial miss"] > 30, seen
    assert seen["unit"] == 66 and seen["fraction"] > 200, seen


# ---------------------------------------------------------------------------
# the z <-> w swap of the exchange check

_SWAP_VARS = [Z, W, x_var("x1"), p_var(1, 1), V, wh_var(1, 1)]


def _random_swap_poly(rng):
    out = {}
    for _ in range(rng.randint(1, 6)):
        mono = {}
        for v in rng.sample(_SWAP_VARS, rng.randint(0, 4)):
            e = rng.randint(-2 if is_unit_var(v) else 0, 3)
            if e:
                mono[v] = e
        out[pack_mono(sorted(mono.items()))] = rng.choice(_MIXED_COEFFS)
    return Poly(out)


def test_swap_vars_matches_sympy_and_is_an_involution():
    sympy = pytest.importorskip("sympy")
    zs, ws = (sympy.Symbol("_".join(v)) for v in (Z, W))
    rng = random.Random(17)
    for _ in range(60):
        p = _random_swap_poly(rng)
        s = p.swap_vars(Z, W)
        assert len(s.terms) == len(p.terms) and s._eb == p._eb
        assert s.swap_vars(Z, W) == p and p.swap_vars(W, Z) == s
        want = _sympy_of(sympy, p).subs({zs: ws, ws: zs}, simultaneous=True)
        assert sympy.expand(_sympy_of(sympy, s) - want) == 0, p


def _shift_by_substitution(p, moves):
    """p with v -> v + c for each (v, c) of moves in turn, by Poly
    arithmetic on each term: an oracle that does not use shift_var."""
    shifts = {}
    for v, c in moves:
        shifts[v] = shifts.get(v, 0) + c
    out = Poly.zero()
    for m, c in p.terms.items():
        term = Poly.const(c)
        for v, e in unpack_mono(m):
            base = Poly.variable(v) + shifts[v] if v in shifts else Poly.variable(v)
            term = term * base ** e if e > 0 else term * Poly.variable(v, e)
        out = out + term
    return out


def test_shift_vars_matches_chained_shifts_and_substitution():
    # Poly.shift_vars expands every moved variable of a term in one pass;
    # on seeded polynomials (three moves, Fraction shifts, sometimes a
    # repeated variable) it equals the one-move shifts chained and term by
    # term substitution, also when the shift cancels terms
    rng = random.Random(71)
    pool = [Z, x_var("x1"), p_var(1, 1)]
    shifts = [-2, 1, 3, Fraction(1, 2), Fraction(-5, 3)]
    cancelled = 0
    for k in range(150):
        moves = [(v, rng.choice(shifts)) for v in rng.sample(pool, 3)]
        if k % 5 == 0:
            moves.append((moves[0][0], rng.choice(shifts)))
        q = _random_div_poly(rng, 5) * Poly.const(1)  # coefficients made canonical
        # p is q moved back, so shifting p gives q: most terms cancel
        p = q.shift_vars([(v, -c) for v, c in moves]) if k % 2 else q
        got = p.shift_vars(moves)
        chained = p
        for v, c in moves:
            chained = chained.shift_var(v, c)
        assert got.terms == chained.terms == _shift_by_substitution(p, moves).terms, (p, moves)
        _assert_canonical(got)
        if k % 2:
            assert got.terms == q.terms
            cancelled += len(got.terms) < len(p.terms)
    assert cancelled > 30
    with pytest.raises(ValueError):
        Poly.variable(Z, -1).shift_vars([(Z, 1)])


def test_swap_vars_keeps_what_holds_neither_variable():
    p = Poly.variable(p_var(1, 1)) * Poly.variable(V, -2) + Poly.const(3)
    assert p.swap_vars(Z, W) is p
    f = (z - p11).invert()
    num, den = substitute(f.num, f.den, lambda q: q.swap_vars(W, EPS))
    assert num is f.num and den == f.den
    # z - w comes back as the same atom, its sign moved to the numerator
    g = (z - RatFun.variable(W)).invert()
    num, den = substitute(g.num, g.den, lambda q: q.swap_vars(Z, W))
    assert den == g.den and num == -g.num


# ---------------------------------------------------------------------------
# coefficients: plain ints when integral, reduced Fractions otherwise

_MIXED_COEFFS = [-3, -1, 1, 2, 7, Fraction(1, 2), Fraction(-5, 3), Fraction(4, 2), Fraction(6, -3)]


def _random_mixed_poly(rng, terms, laurent=True):
    out = {}
    for _ in range(rng.randint(1, terms)):
        mono = {}
        for v in rng.sample(_DIV_VARS, rng.randint(0, 3)):
            lo = -2 if laurent and is_unit_var(v) else 0
            e = rng.randint(lo, 2)
            if e:
                mono[v] = e
        out[tuple(sorted(mono.items()))] = rng.choice(_MIXED_COEFFS)
    total = Poly.zero()
    for m, c in out.items():
        total = total + Poly.monomial(m, c)  # Poly.monomial normalizes c
    return total


def _coeffs(f):
    """Every coefficient held by a Poly, RatFun (numerator and atoms) or
    TruncSeries of RatFuns."""
    if isinstance(f, Poly):
        return list(f.terms.values())
    if isinstance(f, RatFun):
        return _coeffs(f.num) + [c for a in f.den for c in _coeffs(a.poly)]
    return [c for s in f.coeffs.values() for c in _coeffs(s)]


def _assert_canonical(f):
    for c in _coeffs(f):
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), (f, c)


def test_eps_series_matches_sympy():
    # every trig variable u -> exp(eps * l(u)) in sympy, each exponential
    # cut after its eps^(n-1) term, which is all the recurrence reads
    # (powers up to order + twice the pole order); the Laurent
    # coefficients c_k of num/den then follow from
    # num_j = sum_k c_k den_(j-k), solved power by power
    sympy = pytest.importorskip("sympy")
    from laxkit.ratfun import default_eps_linear_map
    from laxkit.suite import random_ratfun

    eps, t = sympy.symbols("eps t")
    exps = {}

    def substituted(p, n):
        if n not in exps:
            exps[n] = sympy.exp(t).series(t, 0, n).removeO()
        out = sympy.Integer(0)
        for m, c in p.terms.items():
            ell = sum((_sympy_of(sympy, default_eps_linear_map(v)) * e
                       for v, e in unpack_mono(m)), sympy.Integer(0))
            out += sympy.Rational(c.numerator, c.denominator) * exps[n].subs(t, eps * ell)
        return sympy.expand(out)

    rng = random.Random(17)
    poles = set()
    for case in range(9):
        f = random_ratfun(rng, "trig")
        order = case % 3
        got = f.eps_series(order)
        n = order + 2 * sum(f.den.values()) + 1
        den = sympy.Integer(1)
        for a, m in f.den.items():
            den *= substituted(a.poly, n) ** m
        den = sympy.expand(den)
        dc = [den.coeff(eps, i) for i in range(n)]
        num = substituted(f.num, n)
        nc = [num.coeff(eps, j) for j in range(n)]
        v = next(i for i in range(n) if dc[i] != 0)
        poles.add(v)
        assert got.val() is None or got.val() >= -v
        want = {}
        for k in range(-v, order + 1):
            rest = nc[k + v] - sum(want[i] * dc[k + v - i] for i in range(-v, k))
            want[k] = sympy.cancel(rest / dc[v])
            assert sympy.cancel(_sympy_of(sympy, got.coeff(k)) - want[k]) == 0, (case, k)
    assert poles >= {0, 1, 2}  # polynomials and simple and double poles


def test_z_series_matches_sympy():
    # sympy's own Laurent expansion of f at z = 1/t ('z_inf') or z = t
    # ('z_zero'), coefficient by coefficient through the window the series
    # claims exact, which must reach t^(val + order - 1); every third case
    # is divided by z, so a pole at z = 0 occurs
    sympy = pytest.importorskip("sympy")
    from laxkit.suite import random_ratfun

    t = sympy.Symbol("t")
    z = _sympy_of(sympy, Poly.variable(Z))
    rng = random.Random(23)
    vals = set()
    for case in range(12):
        f = random_ratfun(rng, "rational" if case % 2 == 0 else "trig")
        if case % 3 == 0:
            f = f * RatFun.variable(Z, -1)
        if f.is_zero():
            continue
        order = 1 + case % 4
        for direction in ("z_inf", "z_zero"):
            got = f.series(direction, order)
            v = got.val()
            top = v + order - 1 if got.hi is None else got.hi
            assert top >= v + order - 1, (case, direction)
            at = 1 / t if direction == "z_inf" else t
            expr = _sympy_of(sympy, f).subs(z, at)
            want = sympy.series(expr, t, 0, n=top + 1).removeO()
            mine = sum(
                (_sympy_of(sympy, got.coeff(k)) * t ** k for k in range(v, top + 1)),
                sympy.Integer(0),
            )
            # sympy keeps every power up to t^top: none is missing
            assert sympy.cancel(want - mine) == 0, (case, direction)
            vals.add(v)
    assert vals >= {-1, 0, 1}  # poles, units and zeros at the expansion point


def test_coefficients_are_ints_when_integral():
    rng = random.Random(51)
    from laxkit.suite import random_ratfun

    half = Fraction(1, 2)
    for idx in range(40):
        mode = "rational" if idx % 2 == 0 else "trig"
        a, b = random_ratfun(rng, mode), random_ratfun(rng, mode)
        a, b = a * half, b * Fraction(2, 3)
        for f in (a + b, a - b, a * b, a * 2, (a * 2) * half, a.shift_slot(mode, 1, 1, 1, 1)):
            _assert_canonical(f)
        try:
            _assert_canonical(a / b)
        except (NotAtomFactorable, ZeroDivisionError):
            pass
        _assert_canonical(a.series("z_inf", 2))
    atoms = _division_atoms(random.Random(50))
    for idx in range(60):
        f = _random_mixed_poly(rng, 4)
        g = _random_mixed_poly(rng, 3)
        atom = atoms[idx % len(atoms)]
        _assert_canonical(f)
        for h in (f + g, f * g, f * half, f * 2, -f, poly_div_exact(f * atom.poly, atom),
                  f.rename_var(Z, W), f.scale_var(x_var("x1"), ((V, 1),))):
            _assert_canonical(h)
        nonlaurent = _random_mixed_poly(rng, 4, laurent=False)
        _assert_canonical(nonlaurent.shift_var(Z, half))
        _assert_canonical(nonlaurent.set_value(Z, Fraction(3, 2)))
    w11 = RatFun.variable(wh_var(1, 1), 2)
    _assert_canonical((w11 - RatFun.variable(V) * 3).invert().eps_series(2))


def test_mixed_coefficient_arithmetic_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from laxkit.textio import parse_poly

    rng = random.Random(52)
    atoms = _division_atoms(random.Random(53))
    for idx in range(120):
        f = _random_mixed_poly(rng, 4)
        g = _random_mixed_poly(rng, 3)
        atom = atoms[idx % len(atoms)]
        fs, gs = _sympy_expr(sympy, f)[0], _sympy_expr(sympy, g)[0]
        assert sympy.expand(_sympy_expr(sympy, f + g)[0] - (fs + gs)) == 0
        assert sympy.expand(_sympy_expr(sympy, f * g)[0] - fs * gs) == 0
        assert poly_div_exact(f * atom.poly, atom) == f
        for p in (f, g, f * g):
            back = parse_poly(render_poly(p))
            assert back == p
            assert {m: type(c) for m, c in back.terms.items()} == {
                m: type(c) for m, c in p.terms.items()
            }
        h = f * atom.poly + _random_mixed_poly(rng, 2)
        if not h.is_zero():
            assert (poly_div_exact(h, atom) is not None) == _sympy_divides(sympy, h, atom.poly)


# ---------------------------------------------------------------------------
# the modular rejection test in front of RatFun._make's trial divisions


def _random_linear_atom(rng, coeffs):
    from laxkit.ratfun import _canonical_atom

    lin = [Z, W, x_var("x1"), x_var("x2"), p_var(1, 1), p_var(2, 1, 2)]
    p = Poly.const(rng.choice([0] + coeffs))
    for v in rng.sample(lin, rng.randint(1, 3)):
        p = p + Poly.variable(v) * rng.choice(coeffs)
    return _canonical_atom(p)[0]


def test_rejection_never_fires_on_multiples():
    from laxkit.rejection import cannot_divide as _cannot_divide

    rng = random.Random(53)
    coeffs = [-2, -1, 1, 3, Fraction(1, 2), Fraction(-7, 3)]
    rejected = 0
    for _ in range(300):
        atom = _random_linear_atom(rng, coeffs)
        f = _random_mixed_poly(rng, 5)
        assert not _cannot_divide(f * atom.poly, atom)
        assert not _cannot_divide(f * atom.poly * atom.poly, atom)
        h = f * atom.poly + _random_mixed_poly(rng, 2)
        if _cannot_divide(h, atom):
            rejected += 1
            assert poly_div_exact(h, atom) is None
    assert rejected > 200  # the test is not vacuous


def test_rejection_falls_through_on_denominators_divisible_by_p():
    from laxkit.ratfun import _canonical_atom
    from laxkit.rejection import P61 as _P61, cannot_divide as _cannot_divide

    atom = _canonical_atom(Poly.variable(Z) - Poly.variable(x_var("x1")))[0]
    f = Poly.variable(p_var(1, 1)) + Poly.const(Fraction(1, _P61))
    # f is not a multiple of the atom, but no certificate exists mod P
    assert not _cannot_divide(f, atom)
    assert not _cannot_divide(f * 3 + Poly.const(Fraction(2, 5 * _P61)), atom)
    assert _cannot_divide(Poly.variable(p_var(1, 1)) + 1, atom)
    # an atom with such a coefficient is left to division as well
    odd = _canonical_atom(Poly.variable(Z) + Poly.const(Fraction(1, _P61)))[0]
    assert not _cannot_divide(Poly.variable(W), odd)
    # and RatFun reduces exactly as before
    ratio = RatFun.ratio(f * atom.poly, atom.poly)
    assert ratio.num == f and not ratio.den
    ratio = RatFun.ratio(f * atom.poly + 1, atom.poly)
    assert list(ratio.den.values()) == [1]
    # a linear atom has the prime shape whatever its coefficients, so it
    # is divided synthetically even without a root mod P
    lin = Poly.variable(Z) + Poly.variable(p_var(1, 1)) + Poly.const(Fraction(1, _P61))
    (odd,) = RatFun.ratio(1, lin).den
    assert odd.root is False and odd.parts
    ratio = RatFun.ratio(f * lin, lin)
    assert ratio.num == f and not ratio.den


def test_rejection_applies_to_trig_slot_binomials():
    from laxkit.rejection import cannot_divide as _cannot_divide

    w11 = RatFun.variable(wh_var(1, 1), 2)
    w12 = RatFun.variable(wh_var(1, 2), 2)
    v = RatFun.variable(V)
    (atom,) = (w11 - v * w12).invert().den
    # the non-prime slot atom has a zero mod P in v: z is rejected, its
    # multiples (with a Laurent unit too) are not
    zp = Poly.variable(Z)
    assert _cannot_divide(zp, atom)
    assert not _cannot_divide(atom.poly * zp, atom)
    assert not _cannot_divide(atom.poly * Poly.monomial(((V, -3),)) * zp, atom)
    # Laurent units in a dividend of a linear atom
    lin = (z - x1).invert()
    (latom,) = lin.den
    unit = Poly.monomial(((V, -3), (wh_var(1, 1), 2)), Fraction(5, 4))
    num = (z - x1).num * unit
    assert not _cannot_divide(num, latom)
    assert _cannot_divide(num + Poly.monomial(((V, -1),)), latom)
    reduced = RatFun.from_poly(num) * lin
    assert reduced.num == unit and not reduced.den


def test_negative_power_of_a_monomial_atom_variable():
    # the atom z has its zero at z = 0, where z^-1 has no value: no
    # verdict, so the value stays as plain division leaves it
    from laxkit.rejection import cannot_divide as _cannot_divide
    from laxkit.textio import parse_poly, parse_ratfun, render_ratfun

    r = RatFun.from_poly(parse_poly("z^-1")) * RatFun.variable(Z, -1)
    assert render_ratfun(r) == "(z^-1) / ((z))"
    assert parse_ratfun("(z^-1) / ((z))") == r
    (atom,) = r.den
    assert not _cannot_divide(parse_poly("z^-1 + x[a]"), atom)
    assert _cannot_divide(parse_poly("z + x[a]"), atom)


# ---------------------------------------------------------------------------
# packed monomials: field overflow, Laurent round trips, index order


def test_exponent_overflow_raises():
    with pytest.raises(OverflowError):
        Poly.variable(Z, HALF)
    with pytest.raises(OverflowError):
        Poly.monomial(((V, -HALF),))
    big = Poly.variable(Z, HALF // 2 + 1)
    with pytest.raises(OverflowError):
        big * big
    unit = Poly.variable(V, -(HALF - 1))
    with pytest.raises(OverflowError):
        unit * Poly.variable(V, -1)
    # the largest exponents that fit
    h = HALF // 2
    assert (Poly.variable(Z, h) * Poly.variable(Z, h - 1)).degree(Z) == HALF - 1
    assert (Poly.variable(V, -h) * Poly.variable(V, 1 - h)).min_exp(V) == 1 - HALF
    with pytest.raises(OverflowError):
        big.scale_var(Z, ((V, 1),))
    # each division kernel: synthetic_div past its precheck, where a B * q_k
    # (|exponent| up to 2 + 2 (h - 1)) would not fit
    from laxkit.monomials import FW, VARS
    from laxkit.poly import binomial_div, synthetic_div
    from laxkit.textio import parse_poly

    atom = _one_atom(parse_poly(f"z + v^{h - 1}*x[x1]"))
    parts = atom.parts
    u = Poly.variable(VARS[parts[0] // FW])
    with pytest.raises(OverflowError):
        synthetic_div(u * Poly.variable(V, 2), atom.poly, parts)
    # binomial_div, where a chain key or a quotient term might not fit
    slot = _one_atom(parse_poly("v^2*w[1,2] - w[1,1]")).poly
    with pytest.raises(OverflowError):
        binomial_div(Poly.variable(V, h), slot)
    quartic = _one_atom(parse_poly("z^4 - 1")).poly
    with pytest.raises(OverflowError):
        binomial_div(Poly.variable(Z, HALF - 4), quartic)
    # the largest exponent that does: the dividend z^(HALF - 5) - z^(HALF - 9)
    top = Poly.variable(Z, HALF - 9)
    assert binomial_div(top * quartic, quartic) == top


def test_loose_exponent_bound_is_tightened_not_raised():
    one = Poly.variable(V, HALF // 4) * Poly.variable(V, -(HALF // 4))
    assert one == Poly.const(1)
    # the cached bound of `one` is loose; the product recomputes it
    assert one * one * Poly.variable(V, HALF - 1) == Poly.variable(V, HALF - 1)


def test_laurent_exponents_round_trip_through_text():
    from laxkit.textio import latex_poly, parse_poly

    w = wh_var(1, 2)
    for text in (
        "v^-3", "wh[1,2]^-5", "v^7*w[1,2]^-2", "-2*x[a]*wh[1,1]^3 + z*v^-1",
        f"v^-{HALF - 1}", f"z^{HALF - 1}*w[2,1]^-4",
    ):
        p = parse_poly(text)
        assert render_poly(p) == text
        assert parse_poly(render_poly(p)) == p
        assert latex_poly(p)
    p = Poly.monomial(((V, -2), (w, -3)), 4) + Poly.monomial(((w, 6),), -1)
    assert render_poly(p) == "-w[1,2]^3 + 4*v^-2*wh[1,2]^-3"
    assert parse_poly(render_poly(p)) == p


_FILL_INDEX_REVERSED = """
import sys
from laxkit import monomials
from laxkit.cli import main
order = sorted({variables!r}, key=monomials.var_precedence, reverse=True)
for v in order:
    monomials.pack_mono([(v, 1)])
assert monomials.VARS[:len(order)] == order, monomials.VARS
sys.exit(main(sys.argv[1:]))
"""


def test_build_output_independent_of_variable_index_order(tmp_path):
    import json
    import os
    import subprocess
    import sys

    import laxkit
    from laxkit.suite import block_example_divisor, trig_n3_divisor
    from laxkit.textio import matrix_from_json

    src = os.path.dirname(os.path.dirname(os.path.abspath(laxkit.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for name, div in (("block", block_example_divisor()), ("trig3", trig_n3_divisor())):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(div.to_json()))
        outputs = []
        for fill in (False, True):
            out = tmp_path / f"{name}-{fill}.json"
            argv = ["build", "--divisor", str(path), "--out", str(out), "--quiet"]
            if fill:
                # every variable of the matrix and of the checks, assigned
                # fields in reverse canonical order before anything runs
                variables = {Z, W, V, EPS}
                mat = matrix_from_json(json.loads(outputs[0]))
                for row in mat.entries:
                    for elem in row:
                        for c in elem.terms.values():
                            variables |= c.num.variables()
                            for a in c.den:
                                variables |= a.poly.variables()
                code = _FILL_INDEX_REVERSED.format(variables=sorted(variables))
                cmd = [sys.executable, "-c", code] + argv
            else:
                cmd = [sys.executable, "-m", "laxkit.cli"] + argv
            subprocess.run(cmd, env=env, check=True, timeout=120)
            outputs.append(out.read_bytes())
        assert outputs[1] == outputs[0]


# ---------------------------------------------------------------------------
# sympy oracles for factor_atoms and limit_leading


def test_factor_atoms_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from laxkit.ratfun import factor_atoms

    rng = random.Random(62)
    lin_vars = [Z, W, x_var("x1"), x_var("x2"), p_var(1, 1), p_var(2, 1)]
    split = products = 0
    for _ in range(40):
        p = Poly.const(rng.choice([1, -3, Fraction(2, 5)]))
        atoms_in = 0  # forms of two or more terms; the others are monomials
        for _ in range(rng.randint(1, 4)):
            form = Poly.const(rng.randint(-4, 4))
            for v in rng.sample(lin_vars, rng.randint(1, 3)):
                form = form + Poly.variable(v) * rng.choice([-2, -1, 1, 3])
            p = p * form
            atoms_in += len(form.terms) > 1
        if atoms_in > 1:
            # a product of two atoms is not split
            with pytest.raises(NotAtomFactorable):
                factor_atoms(p)
            products += 1
            continue
        split += 1
        unit, atoms = factor_atoms(p)
        product = _sympy_of(sympy, unit) * sympy.Mul(
            *(_sympy_of(sympy, a.poly) ** m for a, m in atoms.items())
        )
        assert sympy.expand(product - _sympy_of(sympy, p)) == 0
        for a in atoms:
            assert sympy.Poly(_sympy_of(sympy, a.poly)).total_degree() == 1
    assert split > 5 and products > 5


def test_limit_leading_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from laxkit.suite import random_ratfun

    rng = random.Random(63)
    checked = 0
    for idx in range(120):
        f = random_ratfun(rng, "rational")
        v = rng.choice([Z, p_var(1, 1), p_var(2, 1), x_var("x1")])
        s = sympy.Symbol("_".join(map(str, v)))
        num, den = sympy.fraction(sympy.cancel(sympy.together(_sympy_of(sympy, f))))
        dn, dd = sympy.degree(num, s), sympy.degree(den, s)
        if dn > dd:
            with pytest.raises(DivergesAtInfinity):
                f.limit_leading(v)
            continue
        want = 0 if dn < dd else sympy.LC(sympy.Poly(num, s)) / sympy.LC(sympy.Poly(den, s))
        got = _sympy_of(sympy, f.limit_leading(v))
        assert sympy.simplify(got - want) == 0, (f, v)
        checked += 1
    assert checked > 50


# ---------------------------------------------------------------------------
# series windows, and the common-denominator zero test


def test_series_product_window_counts_unknown_operands_from_hi():
    from laxkit.series import TruncSeries

    # every power of a through t^-3 is zero, so a = O(t^-2) and a * a is
    # known only through t^-5, not through t^-3
    a = TruncSeries({-2: 1}, None, 0).truncate(-3)
    square = a * a
    assert square.hi == -5
    with pytest.raises(ValueError):
        square.is_zero_through(-4)
    b = TruncSeries({0: 1, 1: 2}, None, 0)
    assert (a * b).hi == (b * a).hi == -3


def _frac_sympy(sympy, frac):
    return _sympy_of(sympy, RatFun(*frac))


def _unreduced(f, atom, k):
    """f as an unreduced fraction with atom^k more in both parts."""
    den = dict(f.den)
    den[atom] = den.get(atom, 0) + k
    return f.num * atom.poly ** k, den


def test_sum_is_zero_matches_sympy_cancel():
    sympy = pytest.importorskip("sympy")
    from laxkit.ratfun import sum_is_zero
    from laxkit.suite import random_ratfun

    seen = {True: 0, False: 0}
    for mode in ("rational", "trig"):
        rng = random.Random(71 if mode == "rational" else 72)
        pool = [a for _ in range(30) for a in random_ratfun(rng, mode).den]
        assert pool, mode
        for idx in range(16):
            f, g = random_ratfun(rng, mode), random_ratfun(rng, mode)
            # f and g lifted by atom powers of different multiplicities,
            # then -(f + g) reduced: the sum cancels exactly
            a, b = rng.choice(pool), rng.choice(pool)
            fracs = [
                _unreduced(f, a, rng.randint(1, 2)),
                _unreduced(g, b, rng.randint(0, 2)),
                (-(f + g).num, (f + g).den),
            ]
            if idx % 2:
                # break it: perturb one numerator by a Laurent monomial
                # term, or raise one atom's multiplicity in a denominator
                num, den = fracs[idx % 3]
                if idx % 4 == 1 and den:
                    den = dict(den)
                    den[next(iter(den))] += 1
                else:
                    num = num + Poly.monomial(((V, -1), (x_var("x1"), 1)), 3)
                fracs[idx % 3] = (num, den)
            want = sympy.cancel(sympy.Add(*(_frac_sympy(sympy, fr) for fr in fracs))) == 0
            assert sum_is_zero(fracs) == want, (mode, idx)
            seen[want] += 1
    assert seen[True] >= 16 and seen[False] >= 12, seen


# ---------------------------------------------------------------------------
# cancellation rules: each result against full trial division (_make) of
# the unreduced fraction


def _reduced_form(f):
    return f.num.terms, f.den


def _check_against_make(got, num, den):
    want = RatFun._make(num, den)
    assert _reduced_form(got) == _reduced_form(want), (got, want)
    return sum(den.values()) - sum(got.den.values())  # atoms cancelled


def test_prime_atoms_are_the_shape_a_u_plus_b():
    from laxkit import lax_rational, ratfun, suite
    from laxkit.lax_rational import pipeline
    from laxkit.ratfun import factor_atoms
    from laxkit.rejection import _binomial_root, _linear_root, prime_parts
    from laxkit.textio import parse_poly, render_poly

    def atom(text):
        (a,) = factor_atoms(parse_poly(text))[1]
        return a

    # w[1,1] - v^2*w[1,2] = (wh11 - v*wh12)(wh11 + v*wh12): not prime
    slot = atom("w[1,1] - v^2*w[1,2]")
    assert render_poly(slot.poly) == "v^2*w[1,2] - w[1,1]"
    assert slot.root is False
    for text in ("z - v^3*w[1,1]", "z - x[x1]", "x[x1]*v^2 + z*wh[1,1]", "p[1,1] - 2*z + 1", "z"):
        assert atom(text).root, text
    for text in ("z^2 - w[1,1]*v", "z*x[x1] - 1", "w[1,1]*wh[1,2] + v"):
        assert atom(text).root is False, text
    # one Atom per key: two factors of one atom hand out the same object
    ratfun._SPLITS.clear()
    ratfun._ATOMS.clear()
    assert atom("2*z - 2") is atom("z - 1")
    # and every atom the pinned families make carries, from when it was
    # made, what the rejection helpers compute from its polynomial (the
    # builds' factor table and matrix cache are cleared too, or they
    # would split nothing)
    lax_rational._FACTORS.clear()
    lax_rational._assembled.cache_clear()
    divs = (suite.rtt_rational_divisors() + suite.rtt_trig_divisors()
            + suite.enumerate_linear_divisors(3, 1, "trig")
            + suite.enumerate_linear_divisors(4, 1, "trig")
            + suite.enumerate_linear_divisors(4, 1)
            + [suite.rational_pizero_divisor(), suite.trig_pizero_divisor()])
    for div in divs:
        pipeline(div.mode)[0](div)
    assert len(ratfun._ATOMS) > 40
    for a in ratfun._ATOMS.values():
        assert a.root == _linear_root(a.poly), a
        assert a.zero == (a.root or _binomial_root(a.poly)), a
        assert a.parts == prime_parts(a.poly), a
        assert a.parts or len(a.poly.terms) == 2, a


def _splits(polys):
    from laxkit.ratfun import factor_atoms

    out = []
    for p in polys:
        unit, atoms = factor_atoms(p)
        out.append((unit.terms, [(a.key, a.poly.terms, m) for a, m in atoms.items()]))
    return out


_SPLIT_TEXTS = (
    "z - p[1,1]", "p[2,1] - p[1,1] - 1", "2*z - 4*x[a]", "3/2*z - x[x1] + 1/3", "z",
    "z^2*x[a]", "z - v^2*w[1,1]", "w[1,1] - v^2*w[1,2]", "v^3*w[1,1] - 2*w[1,2]",
    "x[x1]*v^2 + z*wh[1,1]", "v^-2*wh[1,1]^3", "-3/2*v", "7", "z*w[1,1] - z*v*x[a]",
)


def test_factor_atoms_memo_cold_warm_and_capped(monkeypatch):
    # factor_atoms splits each distinct polynomial once per process: the
    # split is the one computed past the memo (_split) whether the memo is
    # cold, warm or cleared at a cap of 2, and a hit hands back the same
    # Atom objects
    from laxkit import ratfun
    from laxkit.textio import parse_poly

    polys = [parse_poly(t) for t in _SPLIT_TEXTS]
    direct = []
    for p in polys:
        unit, atoms = ratfun._split(p.terms)
        direct.append((unit.terms, [(a.key, a.poly.terms, m) for a, m in atoms]))
    ratfun._SPLITS.clear()
    assert _splits(polys) == direct
    assert len(ratfun._SPLITS) == len(polys)
    first = [ratfun.factor_atoms(p)[1] for p in polys]
    assert _splits([parse_poly(t) for t in _SPLIT_TEXTS]) == direct
    for p, atoms in zip(polys, first):
        again = ratfun.factor_atoms(parse_poly(render_poly(p)))[1]
        assert all(a is b for a, b in zip(again, atoms)), p
    # a factor that does not split is not memoized and raises every time
    for _ in range(2):
        with pytest.raises(NotAtomFactorable):
            ratfun.factor_atoms(parse_poly("z - 1") * parse_poly("z - x[a]"))
    monkeypatch.setattr(ratfun, "_MEMO_CAP", 2)
    ratfun._SPLITS.clear()
    assert _splits(polys) == direct
    assert _splits(polys[::-1]) == direct[::-1]
    assert len(ratfun._SPLITS) <= 2


def test_memo_counts_a_cached_none_as_a_hit(monkeypatch):
    # None is a value (an atom a ring map leaves alone), not a miss; the
    # table is cleared when it reaches the shared cap
    from laxkit import ratfun

    calls, table = [], {}
    for key in ("a", "a", "b", "a", "c", "c"):
        assert ratfun._memo(table, key, calls.append, key) is None
    assert calls == ["a", "b", "c"]
    monkeypatch.setattr(ratfun, "_MEMO_CAP", 2)
    ratfun._memo(table, "d", calls.append, "d")
    assert list(table) == ["d"] and calls[-1] == "d"


def test_split_memo_hands_out_no_shared_dict():
    # every caller gets its own atom dict: mutating what factor_atoms or
    # RatFun.invert returned cannot change a later split
    from laxkit.ratfun import factor_atoms
    from laxkit.textio import parse_poly

    p = parse_poly("2*z - 4*x[a]")
    unit, atoms = factor_atoms(p)
    (a,) = atoms
    want = (unit.terms, {a: 1})
    atoms[a] = 5
    f = RatFun.from_poly(p).invert()
    assert f.den == {a: 1}
    f.den[a] = 7
    for q in (p, parse_poly("2*z - 4*x[a]")):
        unit, atoms = factor_atoms(q)
        assert (unit.terms, atoms) == want
    assert RatFun.from_poly(p).invert().den == {a: 1}
    assert RatFun.ratio(1, p).den == {a: 1}
    assert RatFun.product(1, [(p, -2)]).den == {a: 2}


def test_cancellation_rules_match_full_trial_division():
    from laxkit.ratfun import (_invert_unit, _lifted_sum, den_product, factor_atoms, shift_map,
                               substitute)
    from laxkit.suite import random_ratfun

    cancelled = {"mul": 0, "add": 0, "invert": 0}
    for mode in ("rational", "trig"):
        rng = random.Random(91 if mode == "rational" else 92)
        factors = [a.poly for _ in range(30) for a in random_ratfun(rng, mode).den]
        if mode == "trig":
            # the factors of the non-prime atom v^2*w[1,2] - w[1,1]
            wh11, vwh12 = Poly.variable(wh_var(1, 1)), Poly.monomial(((V, 1), (wh_var(1, 2), 1)))
            factors += [wh11 - vwh12, wh11 + vwh12] * 10

        def operand():
            f = random_ratfun(rng, mode)
            if rng.random() < 0.6:  # a numerator factor some denominator may hold
                f = f * RatFun.from_poly(rng.choice(factors))
            return f

        inv_rng = random.Random(93 if mode == "rational" else 94)

        def splitting_operand():
            # the leading term of a random numerator over its denominator,
            # inverted atom by atom, times one factor: a numerator that
            # factor_atoms splits, which may share a factor with a
            # non-prime denominator atom
            g = RatFun.zero()
            while g.is_zero():
                g = random_ratfun(inv_rng, mode)
            f = RatFun.from_poly(Poly.monomial(*g.num.ordered_terms()[0]))
            for a, m in g.den.items():
                f = f * RatFun.from_poly(a.poly).invert() ** m
            return f * RatFun.from_poly(inv_rng.choice(factors))

        for idx in range(150):
            f, g = operand(), operand()
            if idx % 2:
                g = g - f  # f + g = the old g: f's atoms cancel
            if f.is_zero() or g.is_zero():
                continue
            cancelled["mul"] += _check_against_make(
                f * g, f.num * g.num, den_product(f.den, g.den)
            )
            common, total = _lifted_sum([(f.num, f.den), (g.num, g.den)])
            if not total.is_zero():
                cancelled["add"] += _check_against_make(f + g, total, common)
            h = splitting_operand()
            unit, atoms = factor_atoms(h.num)
            num = _invert_unit(unit)
            for a, m in h.den.items():
                num = num * a.poly ** m
            cancelled["invert"] += _check_against_make(h.invert(), num, atoms)
            slot = rng.choice([(1, 1), (1, 2), (2, 1)])
            m = rng.choice([-2, -1, 1, 3])
            shifted = substitute(f.num, f.den, shift_map(mode, ((1, *slot, m),)))
            assert _check_against_make(f.shift_slot(mode, 1, *slot, m), *shifted) == 0
    assert cancelled["mul"] > 20 and cancelled["add"] > 50 and cancelled["invert"] > 5, cancelled


def _automorphism_cases(mode, rng):
    """(method, arguments, Poly map) triples of the ring automorphisms
    RatFun applies without _make, plus a rename onto a variable the
    fraction may hold, which reduces with _make."""
    from laxkit.ratfun import shift_map

    i, r = rng.choice([(1, 1), (1, 2), (2, 1)] if mode == "rational" else [(1, 1), (1, 2)])
    m, k = rng.choice([-2, -1, 1, 3]), rng.choice([-2, -1, 1, 2])
    c = rng.choice([-3, Fraction(1, 2), 2])
    x1, slot_var = x_var("x1"), (p_var if mode == "rational" else wh_var)
    old, new = slot_var(i, r), slot_var(i, r, 2)
    # z - x1 is a trig atom, so z -> x1 would map it to 0 there
    a, b = (Z, x1) if mode == "rational" else (wh_var(1, 1), wh_var(1, 2))
    cases = [
        ("shift_var", (x1, c), lambda p: p.shift_var(x1, c)),
        ("rename_var", (Z, W), lambda p: p.rename_var(Z, W)),
        ("rename_var", (old, new), lambda p: p.rename_var(old, new)),
        ("rename_var", (a, b), lambda p: p.rename_var(a, b)),
        ("shift_slot", (mode, 1, i, r, m), shift_map(mode, ((1, i, r, m),))),
    ]
    if mode == "rational":
        moves = ((Z, c), (old, m))
        cases.append(("shift_vars", (moves,), lambda p: p.shift_var(Z, c).shift_var(old, m)))
    else:
        for v in (Z, x1):
            cases.append(("scale_var", (v, ((V, k),)),
                          lambda p, v=v: p.scale_var(v, ((V, k),))))
    return cases


def test_automorphisms_match_make_with_the_memo_cold_warm_and_overflowing(monkeypatch):
    # each automorphism skips _make and memoizes atom images; on seeded
    # fractions of both modes it gives exactly what _make gives after the
    # keyless substitution, whether the memo is cold, warm or cleared at
    # a cap of 2
    from laxkit import ratfun
    from laxkit.suite import random_ratfun

    cases = []
    for mode in ("rational", "trig"):
        rng = random.Random(95 if mode == "rational" else 96)
        for _ in range(40):
            f = random_ratfun(rng, mode)
            cases += [(f, name, args, fn) for name, args, fn in _automorphism_cases(mode, rng)]
    want = [_reduced_form(RatFun._make(*substitute(f.num, f.den, fn))) for f, _, _, fn in cases]
    moved = sum(f.den != den for (f, *_), (_, den) in zip(cases, want))
    assert moved > 100, moved

    def images():
        return [_reduced_form(getattr(f, name)(*args)) for f, name, args, _ in cases]

    ratfun._IMAGES.clear()
    assert images() == want
    assert len(ratfun._IMAGES) > 20
    assert images() == want
    monkeypatch.setattr(ratfun, "_MEMO_CAP", 2)
    ratfun._IMAGES.clear()
    assert images() == want
    assert len(ratfun._IMAGES) <= 2
    # z -> x1 on a fraction that holds x1 is no automorphism: it cancels
    f = RatFun.ratio(x1.num - p11.num - 1, z.num - p11.num - 1)
    assert _reduced_form(f.rename_var(Z, x_var("x1"))) == ({0: 1}, {})


def test_non_prime_atom_takes_the_full_path():
    from laxkit.textio import render_ratfun

    wh11, wh12 = RatFun.variable(wh_var(1, 1)), RatFun.variable(wh_var(1, 2))
    v = RatFun.variable(V)
    lo, hi = v * wh12 - wh11, v * wh12 + wh11
    slot = lo * hi  # v^2*w[1,2] - w[1,1], one non-prime atom
    (atom,) = slot.invert().den
    # neither factor is divisible by the atom, their product is
    f = lo / RatFun(slot.num, {})
    assert list(f.den) == [atom]
    assert render_ratfun(f * hi) == "1"
    assert render_ratfun(f.invert()) == render_ratfun(hi)


def test_rejection_never_fires_on_divisible_trig_numerators():
    sympy = pytest.importorskip("sympy")
    from laxkit.ratfun import factor_atoms
    from laxkit.rejection import cannot_divide
    from laxkit.textio import parse_poly

    texts = ["z - v^3*wh[1,1]^2", "x[x1]*v^2 + z*wh[1,1]", "z - x[x1]",
             "p[1,1] - 2*z + 1", "v*x[x1] - wh[1,1]^-2"]
    atoms = [a for t in texts for a in factor_atoms(parse_poly(t))[1]]
    rng = random.Random(93)
    rejected = 0
    for idx in range(200):
        atom = atoms[idx % len(atoms)]
        f = _random_div_poly(rng, 4)
        assert not cannot_divide(f * atom.poly, atom)
        h = f * atom.poly + _random_div_poly(rng, 2)
        if h.is_zero():
            continue
        if cannot_divide(h, atom):
            rejected += 1
            assert not _sympy_divides(sympy, h, atom.poly), (h, atom)
        elif idx % 4 == 0:
            # a zero value decides nothing: the division does
            assert (poly_div_exact(h, atom) is not None) == _sympy_divides(sympy, h, atom.poly)
    assert rejected > 100


# two-term atoms that are not prime: the rejection test evaluates at a
# root of the atom in one variable (rejection._binomial_root)
_BINOMIALS = ["w[1,2] - w[1,1]", "v^2*w[1,2] - w[1,1]", "v^4*w[1,2] - w[1,1]",
              "v^6*w[1,2] - w[1,1]", "v^2*w[1,1] - w[1,2]", "v*w[1,2] - w[1,1]",
              "v^3*w[1,1] - 2*w[1,2]", "z^2 - 1"]


def _one_atom(p):
    from laxkit.ratfun import factor_atoms

    (atom,) = factor_atoms(p)[1]
    return atom


def test_binomial_rejection_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from laxkit.rejection import _value_mod_p, cannot_divide
    from laxkit.textio import parse_poly

    vars_ = [Z, x_var("x1"), V, wh_var(1, 1), wh_var(1, 2)]
    rng = random.Random(67)
    for text in _BINOMIALS:
        atom = _one_atom(parse_poly(text))
        zero = atom.zero
        # not prime, yet it has a zero mod P, and the atom vanishes there
        assert atom.root is False and zero, text
        assert _value_mod_p(atom.poly, zero) == 0, text
        rejected = 0
        for _ in range(25):
            f = _random_div_poly(rng, 4, vars_)
            assert not cannot_divide(f * atom.poly, atom)
            assert not cannot_divide(f * atom.poly * atom.poly, atom)
            h = f * atom.poly + _random_div_poly(rng, 2, vars_)
            if not h.is_zero() and cannot_divide(h, atom):
                rejected += 1
                assert not _sympy_divides(sympy, h, atom.poly), (h, atom)
                assert poly_div_exact(h, atom) is None
        assert rejected >= 20, text


def test_binomial_rejection_gives_no_verdict_without_a_root():
    from laxkit.rejection import P61, cannot_divide
    from laxkit.textio import parse_poly

    zp = Poly.variable(Z)
    texts = [
        "z^3 - 2", "z^3 - 2*v^3",  # d = 3 divides P - 1: no cube root is taken
        "z^2 + 1", "v^2*w[1,2] + w[1,1]",  # -1 times a square: no square root mod P
    ]
    polys = [parse_poly(t) for t in texts]
    # coefficients whose denominator is divisible by P, or that are 0 mod P
    polys += [zp * zp - Poly.const(Fraction(1, P61)), zp * zp - Poly.const(P61)]
    x = Poly.variable(x_var("x1"))
    for p in polys:
        atom = _one_atom(p)
        assert atom.zero is False, p
        assert not cannot_divide(x, atom)
        # RatFun still reduces exactly, by division
        assert RatFun.ratio(x * atom.poly, atom.poly).num == x
        assert list(RatFun.ratio(x, atom.poly).den.values()) == [1]
    # a numerator coefficient whose denominator is divisible by P
    atom = _one_atom(parse_poly("v^2*w[1,2] - w[1,1]"))
    assert cannot_divide(x, atom)
    assert not cannot_divide(x + Poly.const(Fraction(1, P61)), atom)


def test_binomial_rejection_keeps_every_result(monkeypatch):
    # products, sums and _make of trig values give the same numerator
    # terms and atoms as with rejection by prime atoms only
    from laxkit import ratfun, rejection
    from laxkit.suite import random_ratfun
    from laxkit.textio import parse_poly

    def prime_only(num, atom):
        root = atom.root
        if not root:
            return False
        val = rejection._value_mod_p(num, root)
        return val is not None and val != 0

    binomial_verdicts = []

    def counting(num, atom):
        out = rejection.cannot_divide(num, atom)
        if out and atom.root is False:
            binomial_verdicts.append(1)
        return out

    slot = RatFun.from_poly(parse_poly("v^2*w[1,2] - w[1,1]"))
    rng = random.Random(71)
    pairs = []
    for k in range(150):
        f, g = random_ratfun(rng, "trig"), random_ratfun(rng, "trig")
        pairs.append((f, g * slot if k % 3 == 0 else g))  # some divisions succeed

    def results():
        out = []
        for f, g in pairs:
            made = RatFun._make(f.num * g.num, ratfun.den_product(f.den, g.den))
            out += [(r.num.terms, r.den) for r in (f * g, f + g, f - g, made)]
        return out

    monkeypatch.setattr(ratfun, "cannot_divide", counting)
    got = results()
    monkeypatch.setattr(ratfun, "cannot_divide", prime_only)
    assert got == results()
    assert len(binomial_verdicts) > 100


# ---------------------------------------------------------------------------
# RatFun.product: factor lists multiplied out with nothing divided


def _chained_product(c, factors):
    out = RatFun.const(c)
    for p, e in factors:
        f = RatFun.from_poly(p)
        out = out * (f ** e if e > 0 else f.invert() ** -e)
    return out


def test_product_matches_chained_products():
    from laxkit.textio import parse_poly

    pool = [parse_poly(t) for t in (
        "z - p[1,1]", "p[2,1] - p[1,1] - 1", "z - x[a]", "z + 3", "2*z - 4*x[a]",
        "z - v^2*w[1,1]", "w[2,1] - v*w[1,1]", "w[1,1] - v^2*w[1,2]", "w[1,1] - 3*v^-1",
        "z", "z^2*x[a]", "v^-2*wh[1,1]^3", "-3/2*v", "7",
    )]
    rng = random.Random(41)
    cancelled = 0
    for _ in range(150):
        factors = [(rng.choice(pool), rng.choice([-2, -1, 1, 2])) for _ in range(rng.randint(1, 7))]
        # a factor and its reciprocal: the atom must cancel
        p = rng.choice(pool)
        factors += [(p, 1), (p, -1)]
        c = rng.choice([1, -1, Fraction(2, 3)])
        got = RatFun.product(c, factors)
        want = _chained_product(c, factors)
        assert (got.num.terms, got.den) == (want.num.terms, want.den), factors
        cancelled += sum(-e for _, e in factors if e < 0) > sum(got.den.values())
    assert cancelled > 50
    # the unit part is summed in packed form, within the field bound
    with pytest.raises(OverflowError):
        RatFun.product(1, [(Poly.variable(V, 20000), 2)])


def test_product_of_a_non_prime_atom_takes_the_full_path():
    from laxkit.textio import parse_poly, render_ratfun

    # z^4 - 1 is one atom, non-prime, in z: (z - 1) divides it
    quartic, lin = parse_poly("z^4 - 1"), parse_poly("z - 1")
    got = RatFun.product(1, [(quartic, 1), (lin, -1)])
    assert render_ratfun(got) == "z^3 + z^2 + z + 1"
    # an atom leaves a denominator only whole: z - 1 stays over z^4 - 1
    factors = [(quartic, -1), (lin, 1), (parse_poly("z"), -2)]
    got, want = RatFun.product(2, factors), _chained_product(2, factors)
    assert (got.num.terms, got.den) == (want.num.terms, want.den)
    assert render_ratfun(got) == "(2*z - 2) / ((z^4 - 1) * (z)^2)"


# ---------------------------------------------------------------------------
# Factored: products, shifts and sums of factored coefficients, as the
# Lax-matrix builders form T = F G E


_FACTORED_POOLS = {
    "rational": ("z - p[1,1]", "z - p[1,1] - 1", "p[1,1] - p[1,2]", "p[1,2] - p[2,1] + 1",
                 "p[1,1] - x[a]", "2*z - 4*x[a]", "z - 3", "p[1,1]", "-3/2"),
    # w[1,1] - v^2*w[1,2] is a trig slot binomial, a non-prime atom
    "trig": ("z - v^2*w[1,1]", "v*w[1,1] - w[2,1]", "w[1,1] - v^2*w[1,2]",
             "w[1,2] - v^-1*x[a]", "z - x[a]", "z", "v^-2*wh[1,1]^3", "-3/2*v"),
}
# shift monomials (slot, i, r, m) moves: one slot, and two at once
_FACTORED_MOVES = (((1, 1, 1, 1),), ((1, 1, 2, -1), (1, 2, 1, 2)))


def _factored(c, factors):
    from laxkit.factored import Factored

    return Factored.product(c, [(Factored.of(p), e) for p, e in factors])


def _factored_sums(mode, rng, exps=(-2, -1, 1, 2)):
    """(terms, kind) sums of factored products sharing a random factor X:
    random terms, an identity that sums to 0, and two terms whose shared
    denominator atom divides their inner sum.  Random factors take their
    exponents from exps."""
    from laxkit.textio import parse_poly

    pool = [parse_poly(t) for t in _FACTORED_POOLS[mode]]
    if mode == "rational":
        a, b, u = (parse_poly(t) for t in ("z - p[1,1]", "z - p[1,1] - 1", "p[1,1]"))
        # 1/a - 1/b + 1/(a b) = 0 and z/a - p[1,1]/a = 1
        zero = [(1, [(a, -1)]), (-1, [(b, -1)]), (1, [(a, -1), (b, -1)])]
        cancel = [(1, [(parse_poly("z"), 1), (a, -1)]), (-1, [(u, 1), (a, -1)])]
    else:
        a, u = parse_poly("z"), parse_poly("v^2*w[1,1]")
        b = parse_poly("z - v^2*w[1,1]")
        s, w, t = (parse_poly(x) for x in ("w[1,1] - v^2*w[1,2]", "w[1,1]", "v^2*w[1,2]"))
        # 1/b - 1/a - v^2 w[1,1] / (a b) = 0 and (w[1,1] - v^2 w[1,2]) / s = 1
        zero = [(1, [(b, -1)]), (-1, [(a, -1)]), (-1, [(u, 1), (a, -1), (b, -1)])]
        cancel = [(1, [(w, 1), (s, -1)]), (-1, [(t, 1), (s, -1)])]
    shared = [(rng.choice(pool), rng.choice(exps)) for _ in range(rng.randint(0, 3))]
    randoms = [(rng.choice([1, -1, Fraction(2, 3)]),
                [(rng.choice(pool), rng.choice(exps)) for _ in range(rng.randint(1, 4))])
               for _ in range(rng.randint(2, 4))]
    for terms, kind in ((randoms, "random"), (zero, "zero"), (cancel, "cancel")):
        yield [(c, fs + shared) for c, fs in terms], kind


@pytest.mark.parametrize("mode", ["rational", "trig"])
def test_factored_path_matches_the_expanded_kernel(mode):
    from laxkit.ratfun import merged_sum, reduced_sum, shift_map

    rng = random.Random(43 if mode == "rational" else 44)
    kinds = {"random": 0, "zero": 0, "cancel": 0, "cancelled": 0}
    for _ in range(60):
        for terms, kind in _factored_sums(mode, rng):
            fs = [_factored(c, f) for c, f in terms]
            # expansion is RatFun.product of the same factor list
            for f, (c, factors) in zip(fs, terms):
                want = RatFun.product(c, factors)
                assert (f.expand().num.terms, f.expand().den) == (want.num.terms, want.den)
            # a product adds exponents
            got = (fs[0] * fs[1]).expand()
            want = RatFun.product(terms[0][0] * terms[1][0], terms[0][1] + terms[1][1])
            assert (got.num.terms, got.den) == (want.num.terms, want.den)
            # a shift maps atom by atom and moves the unit monomial
            for moves in _FACTORED_MOVES:
                e = fs[0].expand()
                got = fs[0].shift(mode, moves).expand()
                want = RatFun(*substitute(e.num, e.den, shift_map(mode, moves), (mode, moves)))
                assert (got.num.terms, got.den) == (want.num.terms, want.den), moves
            # the pairwise sum of the expansions, reduced as their one-pass sum is
            got = merged_sum(f.expand() for f in fs)
            want = reduced_sum([(f.expand().num, f.expand().den) for f in fs])
            assert (got.num.terms, got.den) == (want.num.terms, want.den), terms
            kinds[kind] += 1
            if kind == "zero":
                assert got.is_zero()
            common = {}
            for f in fs:
                for a, m in f.expand().den.items():
                    common[a] = max(common.get(a, 0), m)
            kinds["cancelled"] += sum(got.den.values()) < sum(common.values())
    assert kinds["zero"] == kinds["cancel"] == 60
    # the shared denominator atom divided the inner sum
    assert kinds["cancelled"] > 60


@pytest.mark.parametrize("mode", ["rational", "trig"])
def test_factored_sums_match_sympy(mode):
    sympy = pytest.importorskip("sympy")
    from laxkit.ratfun import merged_sum

    def expr(c, factors):
        return sympy.Rational(Fraction(c).numerator, Fraction(c).denominator) * sympy.Mul(
            *(_sympy_of(sympy, p) ** e for p, e in factors))

    rng = random.Random(45 if mode == "rational" else 46)
    for _ in range(8):
        for terms, kind in _factored_sums(mode, rng, (-1, 1)):
            got = merged_sum(_factored(c, f).expand() for c, f in terms)
            want = sympy.Add(*(expr(c, f) for c, f in terms))
            diff = sympy.together(_sympy_of(sympy, got) - want)
            assert sympy.expand(sympy.numer(diff)) == 0, (kind, terms)


def test_merged_sum_does_not_depend_on_term_order(monkeypatch):
    # every rotation and the reversal of seeded factored sums, and of the
    # expanded products of the largest T coefficient of a rational (4, 2)
    # divisor, sum to one reduced fraction: reduced_sum of the same terms
    from laxkit import lax_rational
    from laxkit.ratfun import merged_sum, reduced_sum
    from laxkit.suite import enumerate_linear_divisors

    rng = random.Random(47)
    sums = [[_factored(c, f).expand() for c, f in terms]
            for mode in ("rational", "trig") for _ in range(10)
            for terms, _ in _factored_sums(mode, rng)]
    seen = []

    def recording(fracs):
        seen.append(list(fracs))
        return merged_sum(seen[-1])

    monkeypatch.setattr(lax_rational, "merged_sum", recording)
    lax_rational._assembled.cache_clear()
    try:
        lax_rational.build_lax(enumerate_linear_divisors(4, 2)[0])
    finally:
        lax_rational._assembled.cache_clear()
    sums.append(max(seen, key=len))
    assert len(sums[-1]) == 11
    for terms in sums:
        want = reduced_sum([(t.num, t.den) for t in terms])
        orders = [terms[k:] + terms[:k] for k in range(len(terms))] + [terms[::-1]]
        for order in orders:
            got = merged_sum(order)
            assert (got.num.terms, got.den) == (want.num.terms, want.den), terms


# ---------------------------------------------------------------------------
# powers: square-and-multiply with no product by one


def _count_calls(monkeypatch, cls, name):
    calls = []
    orig = getattr(cls, name)

    def counting(*args):
        calls.append(1)
        return orig(*args)

    monkeypatch.setattr(cls, name, counting)
    return calls


def _products_needed(k):
    return k.bit_length() - 1 + bin(k).count("1") - 1


@pytest.mark.parametrize("k", range(0, 9))
def test_ratfun_power_takes_no_wasted_products(monkeypatch, k):
    f = RatFun.ratio(z.num + 1, (z - p11).num)
    want = RatFun.one()
    for _ in range(k):
        want = want * f
    calls = _count_calls(monkeypatch, RatFun, "__mul__")
    got = f ** k
    assert len(calls) == max(_products_needed(k), 0)
    assert got.equals(want)


@pytest.mark.parametrize("k", range(0, 6))
def test_algebra_power_takes_no_wasted_products(monkeypatch, k):
    from laxkit.algebra import AlgebraElement
    from laxkit.lax_rational import build_lax
    from laxkit.suite import toda_divisor

    x = build_lax(toda_divisor()).entries[0][0]
    want = AlgebraElement.one(x.signature)
    for _ in range(k):
        want = want * x
    calls = _count_calls(monkeypatch, AlgebraElement, "__mul__")
    got = x ** k
    assert len(calls) == max(_products_needed(k), 0)
    assert got.equals(want)


def test_ratio_clears_negative_powers_and_reduces():
    from laxkit.textio import parse_poly

    got = RatFun.ratio(parse_poly("z^-1*x[a] - 1"), parse_poly("x[a] - z"))
    want = RatFun.variable(Z, -1)
    assert (got.num.terms, got.den) == (want.num.terms, want.den)
    # a negative power in the denominator moves to the numerator
    got = RatFun.ratio(parse_poly("x[a]"), parse_poly("z^-2*x[a] - z^-1"))
    want = RatFun.ratio(parse_poly("z^2*x[a]"), parse_poly("x[a] - z"))
    assert (got.num.terms, got.den) == (want.num.terms, want.den)


def test_linear_split_matches_peel_and_canonical_atom():
    # the one-pass split of a linear form with two or more terms gives the
    # atom (key and poly) and unit that content peeling followed by
    # scaling to leading coefficient 1 gives
    from laxkit.ratfun import _canonical_atom, _linear_split, _peel_content

    rng = random.Random(53)
    pool = [Z, W, p_var(1, 1), p_var(2, 1), p_var(1, 2, 2), x_var("x1"), x_var("a[b]")]
    coeffs = [1, -1, 2, -3, Fraction(3, 4), Fraction(-5, 2)]
    scaled = 0
    for _ in range(300):
        p = Poly.zero()
        for v in rng.sample(pool, rng.randint(1, 4)):
            p = p + Poly.variable(v) * rng.choice(coeffs)
        if rng.random() < 0.6:
            p = p + rng.choice(coeffs)
        if len(p.terms) < 2:
            assert _linear_split(p) is None
            continue
        unit, atoms = _linear_split(p)
        peel_unit, peel_atoms, residual = _peel_content(p)
        assert peel_unit == 1 and not peel_atoms and residual is p
        atom, cofactor = _canonical_atom(p)
        ((got, mult),) = atoms.items()
        assert mult == 1 and got.key == atom.key and got.poly == atom.poly, p
        assert unit == cofactor, p
        scaled += cofactor != 1
    assert scaled > 100
    # any other shape takes the general path
    for q in (Poly.variable(Z), Poly.variable(Z, 2) - 1, Poly.variable(Z) - Poly.variable(V),
              Poly.variable(Z) * Poly.variable(W) + 1):
        assert _linear_split(q) is None


# ---------------------------------------------------------------------------
# synthetic division by prime atoms, against sympy


_PRIME_TEXTS = [
    "z - p[1,1]", "p[2,1] - p[1,1] - 1", "3/2*z - x[x1] + 1/3", "z", "x[x1]",
    "v^3*w[1,1] - z", "x[x1]*v^2 + z*wh[1,1]", "v*x[x1] - wh[1,1]^-2",
    "v^-1*wh[1,1]*x[x1] + 2*v*z", "z - v^-1*x[x1]",
]


def _prime_atoms(rng):
    """The fixed prime atoms plus seeded random ones of both modes: linear
    forms over z, x, p and two-term Laurent combinations A*u + B."""
    from laxkit.ratfun import factor_atoms
    from laxkit.textio import parse_poly

    polys = [parse_poly(t) for t in _PRIME_TEXTS]
    coeffs = [1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)]
    for _ in range(12):
        lin = Poly.zero()
        for v in rng.sample([Z, x_var("x1"), p_var(1, 1)], rng.randint(2, 3)):
            lin = lin + Poly.variable(v) * rng.choice(coeffs)
        polys.append(lin + rng.choice([0, 1, -2, Fraction(3, 4)]))
        u, other = rng.sample([Z, x_var("x1")], 2)
        unit = ((V, rng.randint(-2, 2)), (wh_var(1, 1), rng.randint(-2, 2)))
        b_unit = ((V, rng.randint(-2, 2)), (wh_var(1, 1), rng.randint(-2, 2)))
        b = Poly.monomial(b_unit + ((other, rng.randint(0, 1)),), rng.choice(coeffs))
        polys.append(Poly.monomial(unit + ((u, 1),), rng.choice(coeffs)) + b)
    out = []
    for p in polys:
        (atom,) = factor_atoms(p)[1]
        out.append(atom)
    return out


def test_synthetic_division_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from laxkit.monomials import FW, VARS
    from laxkit.poly import synthetic_div

    rng = random.Random(131)
    atoms = _prime_atoms(rng)
    seen = {"exact": 0, "divides": 0, "not": 0, "unit A": 0, "fraction": 0, "negative": 0}
    for idx in range(240):
        atom = atoms[idx % len(atoms)]
        parts = atom.parts
        assert parts, atom
        s, am, ac, _ = parts
        seen["unit A"] += bool(am)
        f = _random_div_poly(rng, 4)
        g = atom.poly
        seen["fraction"] += any(c.__class__ is Fraction for c in (f * g).terms.values())
        assert synthetic_div(f * g, g, parts) == f
        seen["exact"] += 1
        noise = _random_div_poly(rng, 2)
        h = f * g + (noise * g if idx % 4 == 0 else noise)
        if h.is_zero():
            continue
        q = synthetic_div(h, g, parts)
        assert (q is not None) == _sympy_divides(sympy, h, g), (h, atom)
        assert q is None or q * g == h
        seen["divides" if q is not None else "not"] += 1
        if idx % 3 == 0:
            # a negative power of u (or of another non-unit variable) is
            # refused, even where q * u^-1 would do
            u = VARS[s // FW]
            for v in (u, rng.choice([Z, x_var("x1"), p_var(1, 1)])):
                lowered = (f * Poly.variable(v, -1 - f.degree(v))) * g
                if lowered.min_exp(v) >= 0:
                    continue  # g = v made up for it
                assert synthetic_div(lowered, g, parts) is None
                seen["negative"] += 1
    assert seen["not"] > 100 and seen["divides"] > 50 and seen["unit A"] > 40, seen
    assert seen["fraction"] > 100 and seen["negative"] > 100, seen


def test_synthetic_division_past_the_precheck_matches_sympy():
    # exponents near HALF // 4 fail synthetic_div's precheck
    # bound(f) + (2K + 1) bound(g) < HALF, so each q_k term is held to
    # bound(f) + bound(g), the bound of a divisor's quotient; nothing wraps
    sympy = pytest.importorskip("sympy")
    from laxkit.monomials import FW, VARS
    from laxkit.poly import synthetic_div
    from laxkit.textio import parse_poly

    h = HALF // 4
    # x[x1]^2 is no candidate for u, so u is z in every atom
    atoms = [_one_atom(parse_poly(t)) for t in (
        f"z - v^{h}*x[x1]^2", f"v^{h}*z + 2*wh[1,1]^{h}*x[x1]^2", f"z*wh[1,1]^{h} - 3*v^{h}")]
    quotients = [parse_poly(t) for t in (
        "z^2*v^-3 + 3*x[x1]*wh[1,1]^2 - 1/2*p[1,1]", "z*x[x1]^2 - v^5", "z^3 - p[1,1]")]
    noise = [parse_poly(t) for t in ("z*x[x1]", f"2*v^{h}*z^2", "z^4 + 1")]
    for atom in atoms:
        g = atom.poly
        parts = atom.parts
        assert VARS[parts[0] // FW] == Z, atom
        for q, r in zip(quotients, noise):
            f = q * g
            assert f._eb + (2 * f.degree(Z) + 1) * g._eb >= HALF  # past the precheck
            assert synthetic_div(f, g, parts) == q
            got = synthetic_div(f + r, g, parts)
            assert got is None and not _sympy_divides(sympy, f + r, g), (atom, r)
        # z^4 + 1 alone: q_0 would be a multiple of v^3h, and B * q_0 does
        # not fit a field, but q_1 is already past the bound
        z4 = parse_poly("z^4 + 1")
        assert synthetic_div(z4, g, parts) is None and not _sympy_divides(sympy, z4, g)
    # z^7 is v^(7h) mod z - v^h, for v a unit variable.  Past HALF the
    # packed v^(7h) would wrap into v^(7h - 2 HALF) times the variable y of
    # the next field, so a division that let B * q_k wrap would take
    # z^7 - v^(7h - 2 HALF) * y for a multiple; the bound stops it at q_3
    from laxkit.monomials import FIELD

    k = 7  # count up to a fresh pair, whatever variables earlier tests made
    while wh_var(7, 7, k) in FIELD or x_var(f"y7_{k}") in FIELD:
        k += 1
    v, y = wh_var(7, 7, k), x_var(f"y7_{k}")  # fresh: adjacent fields
    Poly.variable(v), Poly.variable(y)
    assert FIELD[y] == FIELD[v] + 1
    atom = _one_atom(Poly.variable(Z) - Poly.variable(v, h))
    f = Poly.variable(Z, 7) - Poly.monomial(((v, 7 * h - 2 * HALF), (y, 1)))
    assert synthetic_div(f, atom.poly, atom.parts) is None


def test_cancellation_divides_prime_atoms_synthetically(monkeypatch):
    # _cancel divides a prime atom by synthetic division in u and a
    # two-term one by division along chains
    import laxkit.ratfun as ratfun_mod
    from laxkit.textio import parse_poly

    calls = []
    for name in ("synthetic_div", "binomial_div"):
        real = getattr(ratfun_mod, name)
        monkeypatch.setattr(ratfun_mod, name, lambda f, g, *parts, name=name, real=real: (
            calls.append((name, g)) or real(f, g, *parts)))
    prime = RatFun.ratio(1, parse_poly("z - p[1,1]"))
    assert (prime * (z - p11)).equals(1)
    assert calls == [("synthetic_div", parse_poly("z - p[1,1]"))]
    quartic = RatFun.ratio(1, parse_poly("z^4 - 1"))
    calls.clear()
    assert render_poly((quartic * RatFun.from_poly(parse_poly("z^4 - 1"))).num) == "1"
    assert calls == [("binomial_div", parse_poly("z^4 - 1"))]


# ---------------------------------------------------------------------------
# sums: equal denominators summed before lifting, and the pole test


def _naive_reduced_sum(fracs):
    """reduced_sum as it was: every fraction lifted to the common atom
    multiset of all of them, the lifted numerators summed, _make once."""
    common = {}
    for _, den in fracs:
        for a, m in den.items():
            if m and common.get(a, 0) < m:
                common[a] = m
    total = Poly.zero()
    for num, den in fracs:
        for a, m in common.items():
            num = num * a.poly ** (m - den.get(a, 0))
        total = total + num
    return RatFun._make(total, common)


def _repeated_den_fracs(rng, mode, pool):
    """Fractions whose denominators repeat: split pieces of one value,
    groups that cancel to zero, {atom: 0} entries and unequal dens."""
    from laxkit.suite import random_ratfun

    fracs = []
    for _ in range(rng.randint(1, 2)):
        f = random_ratfun(rng, mode)
        num, den = _unreduced(f, rng.choice(pool), rng.randint(0, 2))
        part = Poly.monomial(((x_var("x1"), rng.randint(0, 2)),), rng.randint(-3, 3))
        fracs += [(num - part, den), (part, dict(den))]  # one den, two pieces
        if rng.random() < 0.6:  # a group that cancels to zero
            other = dict(den)
            a = rng.choice(pool)
            other[a] = other.get(a, 0) + 1
            fracs += [(num, other), (-num, dict(other))]
        absent = [a for a in pool if a not in den]
        if absent:  # the same den with an {atom: 0} entry
            zero_entry = dict(den)
            zero_entry[rng.choice(absent)] = 0
            fracs.append((Poly.const(rng.randint(1, 2)), zero_entry))
    rng.shuffle(fracs)
    return fracs


def test_grouped_sums_match_make_and_sympy():
    sympy = pytest.importorskip("sympy")
    from laxkit.ratfun import _grouped, reduced_sum, sum_is_zero
    from laxkit.suite import random_ratfun

    seen = {"zero": 0, "nonzero": 0, "merged": 0, "dropped": 0}
    for mode in ("rational", "trig"):
        rng = random.Random(141 if mode == "rational" else 142)
        pool = [a for _ in range(30) for a in random_ratfun(rng, mode).den]
        for idx in range(40):
            fracs = _repeated_den_fracs(rng, mode, pool)
            if idx % 2:
                total = _naive_reduced_sum(fracs)
                fracs.append((-total.num, dict(total.den)))  # the sum is 0
            groups = _grouped(fracs)
            dens = {frozenset((a, m) for a, m in den.items() if m) for _, den in fracs}
            seen["merged"] += len(dens) < len(fracs)
            seen["dropped"] += len(groups) < len(dens)
            got, want = reduced_sum(fracs), _naive_reduced_sum(fracs)
            assert (got.num.terms, got.den) == (want.num.terms, want.den), (mode, idx)
            zero = want.is_zero()
            assert sum_is_zero(fracs) == zero, (mode, idx)
            seen["zero" if zero else "nonzero"] += 1
            if idx % 8 < 2:  # sympy is slow: a sample of both kinds
                expr = sympy.Add(*(_frac_sympy(sympy, fr) for fr in fracs))
                assert sympy.cancel(expr - _sympy_of(sympy, got)) == 0, (mode, idx)
    assert seen["zero"] >= 30 and seen["nonzero"] >= 30, seen
    assert seen["merged"] >= 60 and seen["dropped"] >= 20, seen


def test_sum_with_a_sole_highest_power_is_a_pole():
    from laxkit.ratfun import _grouped, _has_pole, factor_atoms, sum_is_zero
    from laxkit.textio import parse_poly

    def atom(text):
        (a,) = factor_atoms(parse_poly(text))[1]
        return a

    a, b = atom("z - p[1,1]"), atom("z - x[x1]")
    one = Poly.const(1)
    # a^2 alone: a pole whatever the other fractions hold
    fracs = [(one, {a: 2}), (a.poly, {a: 1, b: 1}), (one, {b: 3})]
    assert _has_pole(_grouped(fracs)) and not sum_is_zero(fracs)
    # the sole holder's numerator is divisible by a: no verdict, the lifted
    # sum decides (and finds 0)
    fracs = [(a.poly, {a: 2}), (-one, {a: 1})]
    assert not _has_pole(_grouped(fracs)) and sum_is_zero(fracs)
    # a monomial atom is skipped: z^-1 / z - 1 / z^2 is 0
    zat = atom("z")
    fracs = [(Poly.variable(Z, -1), {zat: 1}), (-one, {zat: 2})]
    assert not _has_pole(_grouped(fracs)) and sum_is_zero(fracs)
    # a non-prime atom in z may share a factor with a prime one:
    # 1/(z - 1) - (z + 1)(z^2 + 1)/(z^4 - 1) is 0
    lin, quartic = atom("z - 1"), atom("z^4 - 1")
    fracs = [(one, {lin: 1}), (-parse_poly("z^3 + z^2 + z + 1"), {quartic: 1})]
    assert not _has_pole(_grouped(fracs)) and sum_is_zero(fracs)
    # ... but z - p[1,1] provably does not divide z^4 - 1
    fracs = [(one, {a: 2, quartic: 1}), (one, {a: 1, lin: 1})]
    assert _has_pole(_grouped(fracs)) and not sum_is_zero(fracs)
    # a zero multiplicity holds nothing: b is no pole of 1/a - 1/a
    fracs = [(one, {a: 1, b: 0}), (-one, {a: 1})]
    assert not _grouped(fracs) and sum_is_zero(fracs)


# ---------------------------------------------------------------------------
# fast paths: identical-fraction equality, one-term products, one
# substitution per shift monomial


def test_equals_gives_the_verdict_of_sum_is_zero(monkeypatch):
    # on seeded pairs, equals gives sum_is_zero's verdict for identical
    # fractions (answered with no sum_is_zero), for equal ones written
    # differently (a numerator and denominator times the same atom) and
    # for unequal ones
    from laxkit import ratfun
    from laxkit.ratfun import den_product, factor_atoms, sum_is_zero
    from laxkit.suite import random_ratfun

    calls = []
    monkeypatch.setattr(ratfun, "sum_is_zero", lambda fracs: calls.append(1) or sum_is_zero(fracs))
    (z_minus_1,) = factor_atoms(Poly.variable(Z) - Poly.const(1))[1]
    rng = random.Random(131)
    seen = {True: 0, False: 0}
    for idx in range(120):
        mode = "rational" if idx % 2 == 0 else "trig"
        a, b = random_ratfun(rng, mode), random_ratfun(rng, mode)
        if a.is_zero() or b.is_zero():
            continue
        same = RatFun(Poly(dict(a.num.terms)), dict(reversed(a.den.items())))
        del calls[:]
        assert a.equals(same) and not calls
        atom = next(iter(b.den), z_minus_1)
        rewritten = RatFun(a.num * atom.poly, den_product(a.den, {atom: 1}))
        for f, g, want in ((a, rewritten, True), (rewritten, a, True), (a, a + b, False),
                           (a, a * 2, False), (a, b, None)):
            verdict = sum_is_zero([(f.num, f.den), (-g.num, g.den)])
            assert f.equals(g) == verdict, (f, g)
            assert want is None or verdict == want, (f, g)
            seen[verdict] += 1
    assert seen[True] > 150 and seen[False] > 200, seen


def test_one_term_products_match_the_general_loop_and_sympy():
    # a product with a one-term operand skips the accumulation loop; it
    # gives the loop's terms (mul_add, then _q) and sympy's product, on
    # Fraction and Laurent coefficients, in canonical form even when an
    # operand is not; a product by 1 of int coefficients is the operand
    sympy = pytest.importorskip("sympy")
    from laxkit.poly import _q, mul_add

    def loop(a, b):
        out = {}
        mul_add(out, a, b)
        return {m: _q(c) for m, c in out.items() if c}

    rng = random.Random(132)
    one = Poly.const(1)
    noncanonical = 0
    for idx in range(150):
        # _random_div_poly may hold Fractions such as 2/1
        f = _random_div_poly(rng, 4) if idx % 2 else _random_mixed_poly(rng, 4)
        t = _random_div_poly(rng, 1) if idx % 3 else _random_mixed_poly(rng, 1)
        ints = _random_mixed_poly(rng, 4) * Poly.const(6)
        assert len(t.terms) == 1 and all(type(c) is int for c in ints.terms.values())
        noncanonical += any(type(c) is Fraction and c.denominator == 1 for c in f.terms.values())
        for a, b in ((t, f), (f, t), (one, f), (f, one), (t, ints), (ints, one)):
            got = a * b
            assert got.terms == loop(a, b), (a, b)
            _assert_canonical(got)
            want = _sympy_of(sympy, a) * _sympy_of(sympy, b)
            assert sympy.expand(_sympy_of(sympy, got) - want) == 0, (a, b)
        assert one * ints is ints and ints * one is ints
        assert (f * one).terms == f.terms
    assert noncanonical > 10, noncanonical
    # the exponent bound is checked first on the one-term path too
    h = HALF // 2
    lin = Poly.variable(Z, h) + Poly.const(1)
    assert (lin * Poly.variable(Z, h - 1)).degree(Z) == HALF - 1
    with pytest.raises(OverflowError):
        lin * Poly.variable(Z, h)
    with pytest.raises(OverflowError):
        (Poly.variable(V, 1 - HALF) + Poly.const(1)) * Poly.variable(V, -1)


def test_shift_map_matches_chained_slot_maps():
    # one substitution of a whole shift monomial (2-4 slots) gives,
    # fraction for fraction, what the one-move shift_map substitutions
    # chained give, on the fractions of seeded unreduced products, with
    # the image memo cold and warm
    from laxkit import ratfun
    from laxkit.algebra import AlgebraSignature, unreduced_product
    from laxkit.ratfun import shift_map
    from laxkit.suite import random_element

    checked = moved = 0
    for mode in ("rational", "trig"):
        rng = random.Random(133 if mode == "rational" else 134)
        sig = AlgebraSignature(3, mode, ((2, 2),), ("x1",))
        slots = [(1, i, r) for i in (1, 2) for r in (1, 2)]
        ratfun._IMAGES.clear()
        for _ in range(25):
            x, y = random_element(rng, sig), random_element(rng, sig)
            for fracs in unreduced_product(x, y).values():
                for num, den in fracs:
                    moves = tuple(sorted((*slot, rng.choice([-2, -1, 1, 2]))
                                         for slot in rng.sample(slots, rng.randint(2, 4))))
                    key = (mode, moves)
                    chained = num, den
                    for move in moves:
                        chained = substitute(*chained, shift_map(mode, (move,)))
                    for _ in range(2):  # cold, then warm
                        got = substitute(num, den, shift_map(*key), key)
                        assert got[0].terms == chained[0].terms and got[1] == chained[1], moves
                    checked += 1
                    moved += got[0].terms != num.terms or got[1] != den
    assert checked > 60 and moved > 40, (checked, moved)
