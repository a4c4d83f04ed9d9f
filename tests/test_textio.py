"""Canonical text rendering and bit-exact parsing."""

import hashlib
import itertools
import json
import random

import pytest

from fractions import Fraction

from laxkit.algebra import AlgebraElement, AlgebraSignature, ShiftMonomial, mat_equal
from laxkit.errors import ParseError
from laxkit.lax_rational import build_lax, fuse
from laxkit.lax_trig import build_lax_trig
from laxkit.poly import Poly
from laxkit.ratfun import V, W, RatFun, Z, p_var, wh_var, x_var
from laxkit.suite import (
    dst_divisor,
    random_element,
    random_ratfun,
    toda_divisor,
    trig_case_divisor,
)
from laxkit.textio import (
    matrix_from_json,
    matrix_to_json,
    parse_element,
    parse_ratfun,
    render_element,
    render_ratfun,
)


def test_documented_form():
    f = (
        RatFun.variable(Z)
        - RatFun.variable(p_var(1, 1))
        + 1
    ) / (
        RatFun.variable(p_var(1, 1)) - RatFun.variable(p_var(1, 2))
    ) / (
        RatFun.variable(Z) - RatFun.variable(x_var("1"))
    )
    text = render_ratfun(f)
    assert text == "(z - p[1,1] + 1) / ((p[1,1] - p[1,2]) * (z - x[1]))"
    assert parse_ratfun(text).equals(f)
    assert render_ratfun(parse_ratfun(text)) == text


def test_random_ratfun_roundtrip():
    rng = random.Random(31)
    for idx in range(120):
        f = random_ratfun(rng, "rational" if idx % 2 == 0 else "trig")
        text = render_ratfun(f)
        g = parse_ratfun(text)
        assert g.equals(f), text
        assert render_ratfun(g) == text, text


def test_random_element_roundtrip():
    # parse_element rejects slot variables outside the signature, and
    # random_element draws only slots of the signature it is given
    rng = random.Random(32)
    for (n, slots), mode in itertools.product(
        ((3, ((2, 1),)), (2, ((2,),))), ("rational", "trig")
    ):
        sig = AlgebraSignature(n, mode, slots, ("x1",))
        for _ in range(40):
            e = random_element(rng, sig)
            text = render_element(e)
            e2 = parse_element(text, sig)
            assert e2.equals(e), text
            assert render_element(e2) == text, text


def _special_elements():
    """Elements whose text holds tensor slots p[t;i,r], even powers
    w[i,r]^k of wh, nested x[a[b]] labels and fractional coefficients."""
    z, nested = Poly.variable(Z), Poly.variable(x_var("a[b]"))
    p11, p21 = Poly.variable(p_var(1, 1, 1)), Poly.variable(p_var(1, 1, 2))
    tensor = AlgebraSignature(2, "rational", ((1,), (1,)), ())
    num = z * Fraction(3, 4) - p21 * nested + Fraction(-5, 2)
    coeff = RatFun.quotient(num, [(z - p11, 1), (z - nested * 2, 2)])
    shift = ShiftMonomial({(1, 1, 1): 1, (2, 1, 1): -2})
    yield AlgebraElement(tensor, {shift: coeff, ShiftMonomial({}): RatFun.from_poly(p11)})
    trig = AlgebraSignature(2, "trig", ((2,),), ())
    w11, wh12 = Poly.variable(wh_var(1, 1), 2), Poly.variable(wh_var(1, 2))
    v = Poly.variable(V)
    num = z * w11 * w11 * Fraction(3, 4) + wh12 * Poly.variable(V, -1) - Poly.variable(W)
    den = v * v * wh12 * wh12 - w11
    coeff = RatFun.quotient(num, [(den, 1), (z - nested, 3)])
    yield AlgebraElement(trig, {ShiftMonomial({(1, 1, 1): 2, (1, 1, 2): -1}): coeff})


def test_reader_roundtrip():
    # render(parse(text)) == text on seeded elements of both modes and on
    # the special forms, and the value read is the value written
    rng = random.Random(41)
    cases = []
    for mode in ("rational", "trig"):
        sig = AlgebraSignature(3, mode, ((2, 1),), ("x1",))
        cases += [random_element(rng, sig) for _ in range(60)]
    special = list(_special_elements())
    texts = [render_element(e) for e in special]
    for part in ("p[2;1,1]", "e^{-2q[2;1,1]}", "w[1,1]^2", "wh[1,2]", "x[a[b]]",
                 "3/4*", "D[1,1]^2 D[1,2]^-1", ")^3"):
        assert any(part in text for text in texts), part
    for e in cases + special:
        text = render_element(e)
        back = parse_element(text, e.signature)
        assert back.equals(e), text
        assert render_element(back) == text, text


def test_gauge_battery_elements_are_pinned():
    # the first 50 elements of the kernel gauge battery (seed 13), as
    # drawn before random_element was limited to the signature's slots:
    # this signature holds every slot, so the draws must not change
    rng = random.Random(13)
    sig = AlgebraSignature(3, "rational", ((2, 1),), ("x1",))
    text = "\n".join(render_element(random_element(rng, sig)) for _ in range(50))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "4796d2d8e7c1d4e038dfd63961b14e339929e3883e1ba3cc492ce404898b7d3b"


def test_matrix_json_bit_exact():
    for mat in (
        build_lax(dst_divisor()),
        build_lax_trig(trig_case_divisor(4)),
        fuse(build_lax(toda_divisor()), build_lax(toda_divisor())),
    ):
        blob = json.dumps(matrix_to_json(mat), sort_keys=True)
        back = matrix_from_json(json.loads(blob))
        assert mat_equal(back.entries, mat.entries)
        assert json.dumps(matrix_to_json(back), sort_keys=True) == blob


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_ratfun("z +")
    with pytest.raises(ParseError):
        parse_ratfun("q[1]")
    sig = AlgebraSignature(2, "rational", ((1,),), ())
    with pytest.raises(ParseError):
        parse_element("(1) * e^{q[1,1]} trailing", sig)


def test_parsed_negative_powers_move_to_the_denominator():
    # a negative power of a non-unit variable becomes a monomial atom, as
    # RatFun.variable(z, -1) builds it, and then cancels like any atom
    inv_z = RatFun.variable(Z, -1)
    for text in ("(z^-1*x[a] - 1) / ((x[a] - z))", "z^-1"):
        f = parse_ratfun(text)
        assert f.num == inv_z.num and f.den == inv_z.den, text
        assert render_ratfun(f) == "(1) / ((z))" == render_ratfun(inv_z)
    f = parse_ratfun("(z^-2*x[a]) / ((x[a] - z))")
    assert render_ratfun(f) == "(-x[a]) / ((z - x[a]) * (z)^2)"
    # the units v and wh keep their negative exponents
    assert render_ratfun(parse_ratfun("z*v^-1 + wh[1,1]^-1")) == "z*v^-1 + wh[1,1]^-1"
    # the same path reads matrix entries
    sig = AlgebraSignature(2, "rational", ((1,),), ())
    e = parse_element("(p[1,1]^-1*z + z) * e^{q[1,1]}", sig)
    assert render_element(e) == "((z*p[1,1] + z) / ((p[1,1]))) * e^{q[1,1]}"
