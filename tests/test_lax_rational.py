"""Rational Lax matrices: golden forms, oracles, limits, fusion."""

from fractions import Fraction

import pytest

from laxkit.algebra import AlgebraElement, ShiftMonomial, mat_equal, mat_map
from laxkit.coweight import (
    Coweight,
    Divisor,
    PseudoYoungDiagram,
    divisor_from_young,
    fundamental_coweight,
    simple_coroot,
)
from laxkit.errors import NotAdmissible, NotLinearCase, NotPolynomial, NotScalar, SignatureMismatch
from laxkit.lax_rational import (
    LaxMatrix,
    build_gauss_factors,
    build_lax,
    build_linear_lax,
    commuting_hamiltonians_n2,
    fuse,
    normalize_and_check_polynomial,
    normalized_limit,
    pipeline,
    qdet_image,
)
from laxkit import lax_rational, lax_trig
from laxkit.lax_trig import build_lax_trig, limits_trig
from laxkit.ratfun import Poly, RatFun, W, Z, p_var, x_var
from laxkit.rtt import element_z_series, verify_rtt
from laxkit.suite import (
    dst_divisor,
    first_example_divisor,
    heisenberg_divisor,
    rational_pizero_divisor,
    toda_divisor,
    trig_n3_divisor,
    trig_pizero_divisor,
)

z = RatFun.variable(Z)


def test_gauss_factors_single_coroot():
    div = toda_divisor()
    gf = build_gauss_factors(div)
    sig = div.signature()
    p = RatFun.variable(p_var(1, 1))
    assert gf.diag[0].equals(AlgebraElement.from_ratfun(sig, z - p))
    assert gf.diag[1].equals(
        AlgebraElement.from_ratfun(sig, (z - 1 - p).invert())
    )
    e12 = AlgebraElement(
        sig, {ShiftMonomial.generator(1, 1, 1): -(z - p).invert()}
    )
    f21 = AlgebraElement(
        sig, {ShiftMonomial.generator(1, 1, -1): (z - p - 1).invert()}
    )
    assert gf.upper[0][1].equals(e12)
    assert gf.lower[1][0].equals(f21)


def test_corner_entry_single_term():
    div = first_example_divisor(3)
    gf = build_gauss_factors(div)
    sig = div.signature()
    p1 = RatFun.variable(p_var(1, 1))
    want = AlgebraElement(
        sig,
        {ShiftMonomial({(1, 1, 1): 1, (1, 2, 1): 1}): -(z - p1).invert()},
    )
    assert gf.upper[0][2].equals(want)


def test_three_small_matrices():
    from laxkit.suite import (
        _expected_dst,
        _expected_heisenberg,
        _expected_toda,
    )

    for div, expect in (
        (toda_divisor(), _expected_toda),
        (dst_divisor(), _expected_dst),
        (heisenberg_divisor(), _expected_heisenberg),
    ):
        T = normalize_and_check_polynomial(build_lax(div))
        assert mat_equal(T.entries, expect(T.signature))


def test_linear_fast_path_matches_general():
    cases = [
        ((0, 0), (1, -1), []),
        ((1, 0), (0, -1), ["x1"]),
        ((2, 0), (-1, -1), ["x1", "x2"]),
        ((1, 1, 0), (0, -1, -1), ["x1"]),
        ((2, 0, 0), (0, -1, -1), ["x1", "x2"]),
        ((0, 0, 0), (2, -1, -1), []),
    ]
    for bl, bm, pts in cases:
        div = divisor_from_young(
            PseudoYoungDiagram(bl), pts, PseudoYoungDiagram(bm)
        )
        fast = build_linear_lax(div)
        general = normalize_and_check_polynomial(build_lax(div))
        assert mat_equal(fast.entries, general.entries), (bl, bm)


def test_linear_rejects_higher_degree():
    with pytest.raises(NotLinearCase):
        build_linear_lax(Divisor.make(2, "rational", [], 2 * simple_coroot(2, 1)))


def test_identity_divisor():
    div = divisor_from_young(
        PseudoYoungDiagram((0, 0)), [], PseudoYoungDiagram((0, 0))
    )
    T = build_linear_lax(div)
    assert T.entries[0][0].equals(1)
    assert T.entries[1][1].equals(1)
    assert T.entries[0][1].is_zero() and T.entries[1][0].is_zero()


def test_normalize_divides_out_point_factor():
    div = rational_pizero_divisor()
    T = build_lax(div)
    N = normalize_and_check_polynomial(T)
    # the unnormalized matrix keeps the index-0 point pole
    x2 = x_var("x2")
    assert any(
        atom.degree(Z)
        for row in T.entries
        for e in row
        for c in e.terms.values()
        for atom in c.den
    ) or any(
        c.num.degree(x2)
        for row in T.entries
        for e in row
        for c in e.terms.values()
    )
    for row in N.entries:
        for e in row:
            for c in e.terms.values():
                assert not any(atom.degree(Z) for atom in c.den)


def test_normalize_flags_nonpolynomial_input():
    div = toda_divisor()
    sig = div.signature()
    bad = AlgebraElement.from_ratfun(
        sig, (z - RatFun.variable(p_var(1, 1))).invert()
    )
    broken = LaxMatrix(
        sig,
        div,
        [[bad, AlgebraElement.zero(sig)], [AlgebraElement.zero(sig), bad]],
    )
    with pytest.raises(NotPolynomial):
        normalize_and_check_polynomial(broken)


def test_qdet_examples():
    assert qdet_image(build_lax(toda_divisor())).equals(1)
    x1 = RatFun.variable(x_var("x1"))
    assert qdet_image(build_lax(dst_divisor())).equals(z - x1 + 1)
    x2 = RatFun.variable(x_var("x2"))
    assert qdet_image(build_lax(heisenberg_divisor())).equals((z - x1 + 1) * (z - x2 + 1))
    # index-1 point contributes one shifted factor, the index-0 point two
    pizero = build_lax(rational_pizero_divisor())
    assert qdet_image(pizero).equals((z - x1 + 1) * (z - x2) * (z - x2 + 1))
    # normalizing divides each row by the index-0 point factor at its argument
    assert qdet_image(normalize_and_check_polynomial(pizero)).equals(z - x1 + 1)


def test_qdet_reads_the_entries():
    # one entry off by 1: the antisymmetrizer sum leaves the closed form
    for T in (build_lax(dst_divisor()), build_lax_trig(trig_n3_divisor())):
        T.entries[0][0] = T.entries[0][0] + 1
        with pytest.raises(NotScalar):
            qdet_image(T)


def test_normalized_limit_cases():
    # x carries twice the index-1 fundamental coweight: moving only one
    # of them left the other to diverge
    two_at_x = Divisor.make(
        2, "rational", [("x", Coweight.from_fundamental([0, 2]))],
        Coweight.from_fundamental([-1, 0]),
    )
    for div in (dst_divisor(), heisenberg_divisor(), rational_pizero_divisor(), two_at_x):
        lim = normalized_limit(build_lax(div))
        want = build_lax(div.move_last_point("infinity"))
        assert mat_equal(lim.entries, want.entries)
        assert lim.divisor == div.move_last_point("infinity")


def test_fuse_monodromy_entries():
    toda = build_lax(toda_divisor())
    M = fuse(toda, build_lax(toda_divisor()))
    sig = M.signature
    pa = RatFun.variable(p_var(1, 1, 1))
    pb = RatFun.variable(p_var(1, 1, 2))
    a11 = AlgebraElement.from_ratfun(sig, (z - pa) * (z - pb)) + AlgebraElement(
        sig, {ShiftMonomial({(1, 1, 1): 1, (2, 1, 1): -1}): RatFun.const(-1)}
    )
    assert M.entries[0][0].equals(a11)
    # fusing with the identity matrix changes nothing
    ident = build_lax(
        divisor_from_young(PseudoYoungDiagram((0, 0)), [], PseudoYoungDiagram((0, 0)))
    )
    MI = fuse(toda, ident)
    from laxkit.algebra import embed

    embedded = mat_map(toda.entries, lambda e: embed(e, MI.signature, 1))
    assert mat_equal(MI.entries, embedded)


def test_hamiltonians_commute():
    toda = build_lax(toda_divisor())
    single = commuting_hamiltonians_n2(toda, Fraction(1, 3))
    assert len(single) == 2  # {1, -p} up to the constant coupling term
    monodromy = fuse(toda, build_lax(toda_divisor()))
    hams = commuting_hamiltonians_n2(monodromy, "eps")
    assert len(hams) == 3
    d2 = Divisor.make(2, "rational", [], 2 * simple_coroot(2, 1))
    hams2 = commuting_hamiltonians_n2(build_lax(d2), "eps")
    assert len(hams2) == 3


def test_monodromy_and_double_coroot_share_structure():
    # both realizations satisfy the exchange relation and share the
    # central image; entrywise equality is deliberately not asserted
    toda = build_lax(toda_divisor())
    monodromy = fuse(toda, build_lax(toda_divisor()))
    d2 = Divisor.make(2, "rational", [], 2 * simple_coroot(2, 1))
    assert verify_rtt(monodromy).ok
    assert verify_rtt(build_lax(d2)).ok
    assert qdet_image(build_lax(d2)).equals(qdet_image(monodromy))


def test_gauss_mode_contract():
    for div in (toda_divisor(), heisenberg_divisor(), first_example_divisor(3)):
        gf = build_gauss_factors(div)
        d = div.mu.d
        n = div.n
        for i in range(n):
            s = element_z_series(gf.diag[i], 3)
            assert s.val() == -d[i]
            assert s.coeff(-d[i]).equals(AlgebraElement.one(gf.diag[i].signature))
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                mat = gf.upper if i < j else gf.lower
                e = mat[i][j]
                if e.is_zero():
                    continue
                s = element_z_series(e, 2)
                assert s.val() >= 1


def _rename_w(elem):
    return elem.rename_spectral(Z, W)


def _diag_factors(div, i):
    """The (poly, exp) factors of diagonal Gauss entry i: (z - p[i,t]) over
    (z - 1 - p[i-1,t]), times (z - x)^(-eps_i(lambda_x)) for each point x."""
    sig = div.signature()
    zp = Poly.variable(Z)
    fs = [(zp - Poly.variable(p_var(i, t)), 1) for t in range(1, sig.a(i) + 1)]
    fs += [(zp - 1 - Poly.variable(p_var(i - 1, t)), -1) for t in range(1, sig.a(i - 1) + 1)]
    for x, lam in div.summands:
        pt = Poly.variable(x_var(x)) if isinstance(x, str) else Poly.const(x)
        fs.append((zp - pt, -lam.d[i - 1]))
    return fs


def test_exchange_lemma_spot_checks():
    # three of the series identities the exchange relation encodes,
    # checked directly on the closed-form factors
    for div in (toda_divisor(), Divisor.make(2, "rational", [], 2 * simple_coroot(2, 1)),
                first_example_divisor(3)):
        gf = build_gauss_factors(div)
        n = div.n
        zw = AlgebraElement.from_ratfun(
            gf.diag[0].signature, z - RatFun.variable(W)
        )
        for i in range(1, n + 1):
            for j in range(1, n):
                gi_z = gf.diag[i - 1]
                gi_w = _rename_w(gi_z)
                e_z = gf.upper[j - 1][j]
                e_w = _rename_w(e_z)
                delta = (1 if i == j else 0) - (1 if i == j + 1 else 0)
                lhs = zw * gi_z.commutator(e_w)
                rhs = (gi_z * (e_z - e_w)) * delta
                assert lhs.equals(rhs), (div.to_json(), i, j)
        for i in range(1, n):
            e_z = gf.upper[i - 1][i]
            f_w = _rename_w(gf.lower[i][i - 1])
            # g_i^-1 * g_(i+1), from the factors of both entries
            fi, fi1 = _diag_factors(div, i), _diag_factors(div, i + 1)
            assert gf.diag[i - 1].scalar_part().equals(RatFun.product(1, fi))
            assert gf.diag[i].scalar_part().equals(RatFun.product(1, fi1))
            ratio_z = RatFun.product(1, [(f, -e) for f, e in fi] + fi1)
            ratio_w = ratio_z.rename_var(Z, W)
            sig = e_z.signature
            lhs = zw * e_z.commutator(f_w)
            rhs = AlgebraElement.from_ratfun(sig, ratio_w - ratio_z)
            assert lhs.equals(rhs), (div.to_json(), i)
            e_w = _rename_w(e_z)
            lhs2 = zw * e_z.commutator(e_w)
            diff = e_z - e_w
            assert lhs2.equals(-(diff * diff)), (div.to_json(), i)


def test_all_entries_polynomial_n3():
    div = divisor_from_young(
        PseudoYoungDiagram((1, 0, 0)), ["x1"], PseudoYoungDiagram((0, 0, -1))
    )
    T = normalize_and_check_polynomial(build_lax(div))
    for row in T.entries:
        for e in row:
            for c in e.terms.values():
                assert not any(atom.degree(Z) for atom in c.den)


def test_negative_index_zero_summand():
    # a point carrying the negative of the index-0 coweight: the
    # normalization multiplies by the point factor instead of dividing
    w0 = fundamental_coweight(2, 0)
    w1 = fundamental_coweight(2, 1)
    lam = -w0 + w1
    mu = simple_coroot(2, 1) - lam
    div = Divisor.make(2, "rational", [("x1", w1), ("x2", -w0)], mu)
    T = build_lax(div)
    assert verify_rtt(T).ok
    normalize_and_check_polynomial(T)
    lim = normalized_limit(T)
    want = build_lax(div.move_last_point("infinity"))
    assert mat_equal(lim.entries, want.entries)
    x1 = RatFun.variable(x_var("x1"))
    x2 = RatFun.variable(x_var("x2"))
    want_q = (z - x1 + 1) * (z - x2).invert() * (z - x2 + 1).invert()
    assert qdet_image(T).equals(want_q)


@pytest.mark.parametrize("mode", ["rational", "trig"])
@pytest.mark.parametrize("lam1, lam2", [([0, 1], [0, 1]), ([1, 0], [0, 1]), ([0, 1], [1, 0])])
def test_merging_two_points_is_specialization(mode, lam1, lam2):
    # lam1[x] + lam2[y] + mu at y = x is (lam1 + lam2)[x] + mu: renaming
    # y to x in every coefficient of the two-point build gives the build
    # of the merged divisor
    lam1, lam2 = Coweight.from_fundamental(lam1), Coweight.from_fundamental(lam2)
    mu = simple_coroot(2, 1) - lam1 - lam2
    mu_zero = Coweight.zero(2) if mode == "trig" else None
    build = pipeline(mode)[0]
    two = build(Divisor.make(2, mode, [("x", lam1), ("y", lam2)], mu, mu_zero))
    merged = build(Divisor.make(2, mode, [("x", lam1 + lam2)], mu, mu_zero))
    assert two.signature.points == ("x", "y") and merged.signature.points == ("x",)
    renamed = mat_map(two.entries, lambda e: AlgebraElement(
        merged.signature,
        {s: c.rename_var(x_var("y"), x_var("x")) for s, c in e.terms.items()},
    ))
    assert mat_equal(renamed, merged.entries)


PIZERO = {"rational": rational_pizero_divisor, "trig": trig_pizero_divisor}


@pytest.mark.parametrize("mode, other", [("rational", "trig"), ("trig", "rational")])
def test_every_stage_refuses_the_other_mode(mode, other):
    # build and linear take a divisor, normalize a matrix: each stage of
    # one mode refuses the other mode's input the same way
    build, normalize, linear = pipeline(mode)
    div = PIZERO[other]()
    T = pipeline(other)[0](div)
    for stage, arg in ((build, div), (normalize, T), (linear, div)):
        with pytest.raises(SignatureMismatch, match=f"^{mode} \\w+ got a {other} "):
            stage(arg)


ENTRY_POINTS = {
    "rational": (lax_rational, ("build_lax", "normalize_and_check_polynomial",
                                "build_linear_lax")),
    "trig": (lax_trig, ("build_lax_trig", "normalize_and_check_polynomial_trig",
                        "build_linear_lax_trig")),
}


@pytest.mark.parametrize("mode", sorted(ENTRY_POINTS))
def test_the_mode_lookup_reads_the_entry_points_at_call_time(monkeypatch, mode):
    # a wrapper installed on a module attribute (a tracer's, say) is what
    # pipeline hands out, so builds made through it are seen
    module, names = ENTRY_POINTS[mode]
    stand_ins = tuple(lambda arg, name=name: name for name in names)
    for name, fn in zip(names, stand_ins):
        monkeypatch.setattr(module, name, fn)
    assert pipeline(mode) == stand_ins


@pytest.mark.parametrize("mode", sorted(PIZERO))
def test_normalize_and_the_limits_refuse_a_normalized_matrix(mode):
    # each reads the raw build of the divisor: given the normalized one,
    # the limit to zero came back normalized but flagged raw, the limit to
    # infinity matched neither build of its target, and normalizing again
    # kept a spectral atom; without the divisor (a matrix read from a
    # file) the limits raised AttributeError
    build, normalize, _ = pipeline(mode)
    raw = build(PIZERO[mode]())
    normalized = normalize(raw)
    no_divisor = LaxMatrix(raw.signature, None, raw.entries)
    steps = [normalize, normalized_limit] + ([limits_trig] if mode == "trig" else [])
    for step in steps:
        with pytest.raises(NotAdmissible, match="needs a raw matrix"):
            step(normalized)
        with pytest.raises(NotAdmissible, match="carries its divisor"):
            step(no_divisor)
        step(raw)


def test_qdet_when_every_term_cancels():
    # with the second row zero no term survives: the qdet is 0, which the
    # closed form of the toda divisor then refuses
    T = build_lax(toda_divisor())
    entries = [list(T.entries[0]), [AlgebraElement.zero(T.signature)] * 2]
    assert qdet_image(LaxMatrix(T.signature, None, entries)).is_zero()
    with pytest.raises(NotScalar, match="closed form"):
        qdet_image(LaxMatrix(T.signature, T.divisor, entries))
