"""Difference-operator algebra: relations, tensor factors, gauges."""

import random
from fractions import Fraction

import pytest

from laxkit.algebra import (
    AlgebraElement,
    AlgebraSignature,
    GammaGauge,
    MonomialGauge,
    ShiftMonomial,
    embed,
    tensor,
)
from laxkit.errors import NotScalar, SignatureMismatch
from laxkit.ratfun import Poly, RatFun, V, p_var, wh_var, x_var
from laxkit.suite import random_element
from laxkit.textio import render_element

SIG = AlgebraSignature(2, "rational", ((2,),), ("x1",))
TSIG = AlgebraSignature(2, "trig", ((2,),), ())


def _p(i, r):
    return AlgebraElement.from_ratfun(SIG, RatFun.variable(p_var(i, r)))


def test_defining_relations_rational():
    eq = AlgebraElement.shift(SIG, 1, 1, 1)
    emq = AlgebraElement.shift(SIG, 1, 1, -1)
    p = _p(1, 1)
    assert (eq * p).equals((p - 1) * eq)
    assert eq.commutator(p).equals(-eq)
    assert emq.commutator(p).equals(emq)
    assert (eq * emq).equals(1)
    # different slots commute
    p2 = _p(1, 2)
    assert eq.commutator(p2).is_zero()
    assert _p(1, 1).commutator(p2).is_zero()


def test_defining_relations_trig():
    D = AlgebraElement.shift(TSIG, 1, 1, 1)
    wh = AlgebraElement.from_ratfun(TSIG, RatFun.variable(wh_var(1, 1)))
    v = RatFun.variable(V)
    # D w^{1/2} = v w^{1/2} D, hence D w = v^2 w D
    assert (D * wh).equals(wh * v * D)
    w_full = AlgebraElement.from_ratfun(TSIG, RatFun.variable(wh_var(1, 1), 2))
    assert (D * w_full).equals(w_full * v * v * D)
    assert (D * AlgebraElement.shift(TSIG, 1, 1, -1)).equals(1)


def test_normal_mul_associativity_random():
    rng = random.Random(2)
    for _ in range(40):
        a, b, c = (random_element(rng, SIG) for _ in range(3))
        assert ((a * b) * c).equals(a * (b * c))
        assert ((a + b) * c).equals(a * c + b * c)
    one = AlgebraElement.one(SIG)
    a = random_element(rng, SIG)
    assert (one * a).equals(a) and (a * one).equals(a)


def test_signature_mismatch():
    other = AlgebraSignature(2, "rational", ((1,),), ())
    with pytest.raises(SignatureMismatch):
        AlgebraElement.one(SIG) * AlgebraElement.one(other)


def test_tensor_factors_commute():
    eq = AlgebraElement.shift(SIG, 1, 1, 1)
    p = _p(1, 1)
    both = tensor(eq, eq)
    assert both.equals(tensor(eq, AlgebraElement.one(SIG)) * tensor(AlgebraElement.one(SIG), eq))
    big = SIG.tensor(SIG)
    a = embed(eq, big, 1)
    b = embed(p, big, 2)
    assert a.commutator(b).is_zero()
    rng = random.Random(9)
    for _ in range(20):
        x = embed(random_element(rng, SIG), big, 1)
        y = embed(random_element(rng, SIG), big, 2)
        assert (x * y).equals(y * x)


def test_tensor_is_homomorphism_per_slot():
    rng = random.Random(10)
    one = AlgebraElement.one(SIG)
    for _ in range(10):
        a, b = random_element(rng, SIG), random_element(rng, SIG)
        assert tensor(a * b, one).equals(tensor(a, one) * tensor(b, one))
        assert tensor(one, a * b).equals(tensor(one, a) * tensor(one, b))


def test_gamma_gauge_single_factor():
    # conjugating e^{q} by Gamma(p - x + 1) attaches (p - x + 1) on the
    # right; normal ordering turns it into (p - x) e^{q}
    L = Poly.variable(p_var(1, 1)) - Poly.variable(x_var("x1")) + Poly.const(1)
    g = GammaGauge(((L, 1),))
    eq = AlgebraElement.shift(SIG, 1, 1, 1)
    got = g.conjugate(eq)
    want = AlgebraElement(
        SIG,
        {
            ShiftMonomial.generator(1, 1, 1): RatFun.variable(p_var(1, 1))
            - RatFun.variable(x_var("x1"))
        },
    )
    assert got.equals(want)
    # inverse Gamma factor against the lowering generator attaches the
    # same linear form on the right of e^{-q}: (p - x + 1) e^{-q}
    g_inv = GammaGauge(((L, -1),))
    emq = AlgebraElement.shift(SIG, 1, 1, -1)
    got2 = g_inv.conjugate(emq)
    want2 = AlgebraElement(
        SIG, {ShiftMonomial.generator(1, 1, -1): RatFun.from_poly(L)}
    )
    assert got2.equals(want2)
    # coefficients commute with the gauge
    p = _p(1, 1)
    assert g.conjugate(p).equals(p)


def test_gamma_gauge_is_automorphism():
    L1 = Poly.variable(p_var(1, 1)) - Poly.variable(x_var("x1")) + Poly.const(1)
    L2 = Poly.variable(p_var(1, 1)) - Poly.variable(p_var(1, 2))
    g = GammaGauge(((L1, 1), (L2, -1)))
    rng = random.Random(12)
    for _ in range(40):
        x, y = random_element(rng, SIG), random_element(rng, SIG)
        assert g.conjugate(x * y).equals(g.conjugate(x) * g.conjugate(y))
        assert g.conjugate(x + y).equals(g.conjugate(x) + g.conjugate(y))


def test_gamma_gauge_memo_is_per_instance():
    # the factor of each shift monomial is built once per gauge; a memo
    # hit gives what a fresh gauge computes, and the memo is no part of
    # the gauge's value
    L1 = Poly.variable(p_var(1, 1)) - Poly.variable(x_var("x1")) + Poly.const(1)
    L2 = Poly.variable(p_var(1, 1)) - Poly.variable(p_var(1, 2))
    g = GammaGauge(((L1, 1), (L2, -1)))
    rng = random.Random(14)
    xs = [random_element(rng, SIG) for _ in range(12)]
    first = [render_element(g.conjugate(x)) for x in xs]
    memo = dict(g._factors_of)
    assert memo
    assert [render_element(g.conjugate(x)) for x in xs] == first
    assert g._factors_of.keys() == memo.keys()
    assert all(g._factors_of[s] is f for s, f in memo.items())
    fresh = GammaGauge(g.factors)
    assert not fresh._factors_of
    assert fresh == g and hash(fresh) == hash(g) and repr(fresh) == repr(g)
    assert [render_element(fresh.conjugate(x)) for x in xs] == first


def test_monomial_gauge():
    U = MonomialGauge(shifts=(((1, 1), Fraction(1)), ((1, 2), Fraction(1))),
                      signs=(((1, 1), 1),))
    p = _p(1, 1)
    assert U.conjugate(p).equals(p + 1)
    eq = AlgebraElement.shift(SIG, 1, 1, 1)
    assert U.conjugate(eq).equals(-eq)
    eq2 = AlgebraElement.shift(SIG, 1, 2, 1)
    assert U.conjugate(eq2).equals(eq2)
    rng = random.Random(13)
    for _ in range(25):
        x, y = random_element(rng, SIG), random_element(rng, SIG)
        assert U.conjugate(x * y).equals(U.conjugate(x) * U.conjugate(y))


def _conjugate_by_steps(gauge, elem):
    """MonomialGauge.conjugate as one substitution per shifted variable,
    then _make."""
    from laxkit.ratfun import substitute

    out = {}
    for s, c in elem.terms.items():
        num, den = c.num, c.den
        for (i, r), t in dict(gauge.shifts).items():
            num, den = substitute(num, den, lambda p: p.shift_var(p_var(i, r, 1), t))
        sgn = 1
        for (f, i, r), m in s.exps.items():
            if dict(gauge.signs).get((i, r), 0) % 2 and m % 2:
                sgn = -sgn
        nc = RatFun._make(num, den) * sgn
        out[s] = nc if s not in out else out[s] + nc
    return out


def _same_terms(got, want):
    assert got.terms.keys() == want.keys()
    for s, c in want.items():
        assert (got.terms[s].num.terms, got.terms[s].den) == (c.num.terms, c.den), s


def test_monomial_gauge_matches_per_variable_shifts():
    # the composed translation in one pass gives exactly the per-variable
    # shifts followed by full trial division
    sig = AlgebraSignature(3, "rational", ((2, 1),), ("x1",))
    gauge = MonomialGauge(
        shifts=(((1, 1), Fraction(1)), ((1, 2), Fraction(-1, 2)), ((2, 1), Fraction(2))),
        signs=(((1, 1), 1), ((2, 1), 1)),
    )
    rng = random.Random(17)
    for _ in range(30):
        x, y = random_element(rng, sig), random_element(rng, sig)
        for e in (x, x * y):
            _same_terms(gauge.conjugate(e), _conjugate_by_steps(gauge, e))


def _embed_by_steps(elem, target, factor):
    """embed as one rename per slot variable, highest factor first, each
    followed by _make."""
    from laxkit.ratfun import substitute

    src, off = elem.signature, factor - 1
    slot_var = p_var if src.mode == "rational" else wh_var
    out = {}
    for s, c in elem.terms.items():
        for f in range(src.tensor_factors, 0, -1):
            for i in range(1, src.n):
                for r in range(1, src.a(i, f) + 1):
                    old, new = slot_var(i, r, f), slot_var(i, r, f + off)
                    c = RatFun._make(*substitute(c.num, c.den, lambda p: p.rename_var(old, new)))
        out[ShiftMonomial({(f + off, i, r): m for (f, i, r), m in s.exps.items()})] = c
    return out


def test_embed_matches_per_variable_renames():
    from laxkit.lax_rational import build_lax, fuse
    from laxkit.lax_trig import build_lax_trig
    from laxkit.suite import toda_divisor, trig_case_divisor

    toda = build_lax(toda_divisor())
    fused = fuse(toda, toda)
    triple = fused.signature.tensor(toda.signature)
    case2, case3 = build_lax_trig(trig_case_divisor(2)), build_lax_trig(trig_case_divisor(3))
    pair = case2.signature.tensor(case3.signature)
    moved = 0
    for T, target, factor in ((toda, fused.signature, 1), (toda, fused.signature, 2),
                              (fused, triple, 2), (case2, pair, 1), (case3, pair, 2)):
        for row in T.entries:
            for e in row:
                got = embed(e, target, factor)
                _same_terms(got, _embed_by_steps(e, target, factor))
                moved += any((c.num.terms, c.den) != (d.num.terms, d.den)
                             for c, d in zip(got.terms.values(), e.terms.values()))
    assert moved > 5, moved


def test_scalar_part():
    one = AlgebraElement.one(SIG)
    assert one.scalar_part().equals(1)
    with pytest.raises(NotScalar):
        AlgebraElement.shift(SIG, 1, 1, 1).scalar_part()


def test_invert_single_term():
    coeff = RatFun.variable(p_var(1, 1)) - RatFun.variable(p_var(1, 2))
    e = AlgebraElement.shift(SIG, 1, 1, 2, coeff=coeff)
    assert (e * e.invert_single_term()).equals(1)
    assert (e.invert_single_term() * e).equals(1)
    D = AlgebraElement.shift(TSIG, 1, 1, 1, coeff=RatFun.variable(wh_var(1, 1)))
    assert (D * D.invert_single_term()).equals(1)


def _old_random_ratfun(rng, mode, sig=None):
    """suite.random_ratfun as it was, rebuilding its pools on every call."""
    from laxkit.ratfun import Z

    if mode == "rational":
        vars_ = [Z, p_var(1, 1), p_var(1, 2), p_var(2, 1), x_var("x1")]
        atoms = [
            Poly.variable(p_var(1, 1)) - Poly.variable(p_var(1, 2)),
            Poly.variable(Z) - Poly.variable(p_var(1, 1)) - Poly.const(1),
            Poly.variable(p_var(2, 1)) - Poly.variable(x_var("x1")) + Poly.const(2),
        ]
    else:
        vars_ = [Z, wh_var(1, 1), wh_var(1, 2), V, x_var("x1")]
        atoms = [
            Poly.variable(wh_var(1, 1), 2)
            - Poly.variable(V, 2) * Poly.variable(wh_var(1, 2), 2),
            Poly.variable(Z) - Poly.variable(V, 3) * Poly.variable(wh_var(1, 1), 2),
            Poly.variable(Z) - Poly.variable(x_var("x1")),
        ]
    if sig is not None:
        def in_sig(v):
            return v[0] not in ("p", "wh") or sig.has_slot(*v[1:])

        vars_ = [v for v in vars_ if in_sig(v)]
        atoms = [a for a in atoms if all(in_sig(v) for v in a.variables())]
    num = Poly.zero()
    for _ in range(rng.randint(1, 3)):
        mono = {}
        for _ in range(rng.randint(0, 2)):
            v = rng.choice(vars_)
            lo = -2 if v[0] in ("wh", "v") else 0
            e = rng.randint(lo, 2)
            if e:
                mono[v] = mono.get(v, 0) + e
        mono = tuple(sorted((v, e) for v, e in mono.items() if e))
        num = num + Poly.monomial(mono, Fraction(rng.randint(-4, 4)))
    f = RatFun.from_poly(num)
    for _ in range(rng.randint(0, 2)):
        f = f * RatFun.ratio(Poly.const(1), rng.choice(atoms))
    return f


@pytest.mark.parametrize("mode", ["rational", "trig"])
def test_random_ratfun_draws_as_before(mode):
    # the pools are built once per (mode, signature); every draw, and the
    # generator state after it, is the one the old generator gives
    from laxkit.suite import random_ratfun
    from laxkit.textio import render_ratfun

    sig = SIG if mode == "rational" else TSIG
    for s in (None, sig):
        new, old = random.Random(151), random.Random(151)
        for _ in range(200):
            got, want = random_ratfun(new, mode, s), _old_random_ratfun(old, mode, s)
            assert render_ratfun(got) == render_ratfun(want)
            assert (got.num.terms, got.den) == (want.num.terms, want.den)
        assert new.getstate() == old.getstate()


def _per_slot_chain(c, mode, s):
    """c moved left past the shift monomial s one slot at a time, by
    shift_slot: the rule invert_single_term and GammaGauge followed
    before they took their moves from shift_moves."""
    for (f, i, r), m in s.exps.items():
        c = c.shift_slot(mode, f, i, r, m if mode == "trig" else -m)
    return c


@pytest.mark.parametrize("mode", ["rational", "trig"])
def test_one_substitution_moves_a_coefficient_as_the_per_slot_chain(mode):
    from laxkit.algebra import _moved_left
    from laxkit.suite import _random_pools, random_ratfun
    from laxkit.textio import render_ratfun

    sig = AlgebraSignature(3, mode, ((2, 1),), ("x1",))
    shifts = [ShiftMonomial({(1, 1, 1): 2, (1, 1, 2): -1, (1, 2, 1): 1}),
              ShiftMonomial({(1, 1, 1): -1, (1, 2, 1): -2}),
              ShiftMonomial({(1, 1, 2): 3})]
    recips = _random_pools(mode, None)[1]
    rng = random.Random(34)
    for _ in range(30):
        c = random_ratfun(rng, mode)
        for s in shifts:
            got, want = _moved_left(c, mode, s), _per_slot_chain(c, mode, s)
            assert render_ratfun(got) == render_ratfun(want) and got.equals(want)
            # s c = got s in the algebra
            lhs = AlgebraElement(sig, {s: RatFun.one()}) * AlgebraElement.from_ratfun(sig, c)
            assert lhs.equals(AlgebraElement(sig, {s: got}))
        # (c S)^-1 = S^-1 c^-1, with c^-1 moved left past S^-1 slot by slot
        c = rng.choice(recips) * rng.choice(recips)
        for s in shifts:
            inv = AlgebraElement(sig, {s: c}).invert_single_term()
            want = _per_slot_chain(c.invert(), mode, s.inverse())
            assert list(inv.terms) == [s.inverse()]
            assert render_ratfun(inv.terms[s.inverse()]) == render_ratfun(want)
