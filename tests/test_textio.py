"""Canonical text rendering and bit-exact parsing."""

import hashlib
import itertools
import json
import random
import re

import pytest

from fractions import Fraction

from laxkit.algebra import AlgebraElement, AlgebraSignature, ShiftMonomial, mat_equal
from laxkit.errors import LaxkitError, ParseError
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
    parse_poly,
    parse_ratfun,
    render_element,
    render_poly,
    render_ratfun,
)
from test_gauss_build import DIGESTS, FAMILIES, _builders, _family_digest, _json_bytes


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
    # a label runs to the first ] at which its brackets balance
    for text in ("x[a", "z*x[a[b]", "x[a[b] + 1", "(x[a) / ((z))"):
        with pytest.raises(ParseError, match="unclosed label"):
            parse_ratfun(text)


def test_labels_round_trip():
    # nested brackets and spaces stay in the label, which the monomial
    # text table keys by its text as read
    for label in ("a[b]", "a b", "a[b [c]] d", "a + b)"):
        f = parse_ratfun(f"(x[{label}]^2*z - 3) / ((z - x[{label}]))")
        assert render_ratfun(f) == f"(z*x[{label}]^2 - 3) / ((z - x[{label}]))"
        assert f.num == RatFun.from_poly(
            Poly.variable(Z) * Poly.variable(x_var(label), 2) - 3).num
        assert parse_ratfun(render_ratfun(f)).equals(f)


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


def _family_matrices():
    """The raw and linear builds of the families of test_gauss_build."""
    out = []
    for family in sorted(FAMILIES):
        for div in FAMILIES[family]():
            build, linear = _builders(div)
            out.append(build(div))
            try:
                out.append(linear(div))
            except LaxkitError:  # no linear form
                pass
    return out


# a piece of canonical text that no whitespace may split: e^{, an
# exponent with its sign, an integer, a name, or one other character
_PIECE = re.compile(r"e\^\{|(?<=\^)-?[0-9]+|[0-9]+|[^\W\d]\w*|.", re.S)


def _spaced(text: str, rng: random.Random) -> str:
    """text with its spaces dropped and seeded runs of spaces, tabs and
    newlines (or nothing) at every boundary between two pieces; a label
    x[...] is one piece after its x."""
    pieces, pos = [], 0
    while pos < len(text):
        if text.startswith("x[", pos):
            end, depth = pos + 1, 0
            while True:
                depth += {"[": 1, "]": -1}.get(text[end], 0)
                if not depth:
                    break
                end += 1
            pieces += ["x", text[pos + 1 : end + 1]]
            pos = end + 1
            continue
        piece = _PIECE.match(text, pos).group()
        if piece != " ":
            pieces.append(piece)
        pos += len(piece)
    return "".join(p + rng.choice(("", " ", "\t", "\n", " \n\t ")) for p in pieces)


def test_free_whitespace_between_tokens():
    # README: whitespace may stand between any two tokens.  Every entry of
    # the pinned families and of the special elements, with seeded
    # whitespace at every token boundary, reads as the same element
    rng = random.Random(33)
    elements = [e for mat in _family_matrices() for row in mat.entries for e in row]
    elements += list(_special_elements())
    for e in elements:
        text = render_element(e)
        spaced = _spaced(text, rng)
        assert parse_element(spaced, e.signature).equals(e), spaced
    assert any(render_element(e) != "0" and "x[" in render_element(e) for e in elements)
    # a bare polynomial and a fraction read alike
    assert parse_poly(" - 3 /\n4 * z ^ 2 *x [a b] +\t1") == parse_poly("-3/4*z^2*x[a b] + 1")


@pytest.mark.parametrize("state", ["cleared", "warm", "evicted"])
def test_text_does_not_depend_on_the_monomial_table(monkeypatch, state):
    # every pinned family writes and reads back the same bytes whether the
    # monomial text table is cleared before each entry it takes, already
    # holds every monomial of the families, or held them and was cleared
    # when other monomials filled it past the cap (ratfun._MEMO_CAP)
    from laxkit import ratfun, textio

    table = textio._MONOS
    table.clear()
    mats = _family_matrices()
    if state == "cleared":
        monkeypatch.setattr(textio, "_memo",
                            lambda t, *args: t.clear() or ratfun._memo(t, *args))
    else:
        for mat in mats:
            matrix_from_json(json.loads(_json_bytes(mat)))
    if state == "evicted":
        held = set(table)
        for k in range(ratfun._MEMO_CAP + 1):
            render_poly(parse_poly(f"z^{k + 1}*x[fill]"))
        assert held and not held & set(table)
    for mat in mats:
        blob = _json_bytes(mat)
        back = matrix_from_json(json.loads(blob))
        assert _json_bytes(back) == blob
    for family in sorted(FAMILIES):
        assert _family_digest(family) == DIGESTS[family], family
    if state == "cleared":
        assert len(table) <= 1


def test_reader_accepts_the_documented_superset():
    # the module docstring's examples of text the renderer never writes,
    # each pinned to the value it reads as
    sig = AlgebraSignature(2, "rational", ((1,),), ())
    z = RatFun.variable(Z)
    assert parse_element("(z) *", sig).equals(AlgebraElement.from_ratfun(sig, z))
    assert parse_element("(z) * + (1)", sig).equals(AlgebraElement.from_ratfun(sig, z + 1))
    assert parse_poly("--3") == parse_poly("- -3") == Poly.const(3)
    assert parse_poly("-+3*z") == Poly.variable(Z) * -3
    gen = AlgebraElement.shift(sig, 1, 1)
    assert parse_element("(1) * e^{q[1,1]} e^{q[1,1]}", sig).equals(gen * gen)
    assert parse_element("(1) * e^{q[1,1]} + (2) * e^{q[1,1]}", sig).equals(gen * 3)
    assert parse_poly("1 + z*z - z^2 + 3/4*z") == Poly.variable(Z) * Fraction(3, 4) + 1


def _pizero_matrices():
    """(raw, normalized) matrices of both pizero divisors."""
    from laxkit.lax_rational import normalize_and_check_polynomial
    from laxkit.lax_trig import normalize_and_check_polynomial_trig
    from laxkit.suite import rational_pizero_divisor, trig_pizero_divisor

    raw = build_lax(rational_pizero_divisor())
    yield raw, normalize_and_check_polynomial(raw)
    raw = build_lax_trig(trig_pizero_divisor())
    yield raw, normalize_and_check_polynomial_trig(raw)


def test_normalized_matrix_reads_back_normalized():
    # qdet's closed form depends on normalization, so a normalized matrix
    # read back from its file must still say so; a raw file has no key
    from laxkit.lax_rational import qdet_image

    for raw, mat in _pizero_matrices():
        data = json.loads(json.dumps(matrix_to_json(mat)))
        assert data["normalized"] is True
        back = matrix_from_json(data)
        assert back.normalized
        assert render_ratfun(qdet_image(back)) == render_ratfun(qdet_image(mat))
        data = matrix_to_json(raw)
        assert "normalized" not in data and not matrix_from_json(data).normalized


@pytest.mark.parametrize("value", [None, 1, 0, "true", [], {}])
def test_normalized_key_must_be_a_bool(value, tmp_path, capsys):
    from laxkit.cli import main

    _, mat = next(_pizero_matrices())
    data = matrix_to_json(mat)
    data["normalized"] = value
    with pytest.raises(ParseError, match="'normalized' must be true or false"):
        matrix_from_json(data)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["verify-rtt", "--matrix", str(path)]) == 2
    assert "normalized" in capsys.readouterr().err
