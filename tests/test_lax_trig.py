"""Trigonometric Lax matrices: goldens, fast path, limits, split,
degeneration."""

import pytest

from laxkit.algebra import AlgebraElement, mat_equal
from laxkit.coweight import Coweight, Divisor, PseudoYoungDiagram, divisor_from_young
from laxkit.errors import MismatchWithRational, NegativeEpsPower, NotLinearCase
from laxkit.lax_rational import (
    GaussFactors,
    LaxMatrix,
    build_gauss_factors,
    build_lax,
    normalized_limit,
    pipeline,
    qdet_image,
)
from laxkit.lax_trig import (
    build_lax_trig,
    build_linear_lax_trig,
    degenerate_to_rational,
    limits_trig,
    normalize_and_check_polynomial_trig,
    split_finite_rtt,
)
from laxkit.ratfun import RatFun, V, Z, wh_var
from laxkit.rtt import element_z_series, verify_finite_rtt
from laxkit.suite import (
    _expected_trig_case,
    _expected_trig_qdet,
    trig_case_divisor,
    trig_n3_divisor,
    trig_pizero_divisor,
)


def test_six_golden_matrices_and_qdets():
    for k in range(1, 7):
        div = trig_case_divisor(k)
        T = normalize_and_check_polynomial_trig(build_lax_trig(div))
        assert mat_equal(T.entries, _expected_trig_case(T.signature, k)), k
        assert qdet_image(T).equals(_expected_trig_qdet(k)), k


def test_linear_fast_path_matches_general():
    divisors = [trig_case_divisor(k) for k in range(1, 7)]
    divisors.append(trig_n3_divisor())
    divisors.append(
        divisor_from_young(
            PseudoYoungDiagram((0, 0, 0)),
            [],
            PseudoYoungDiagram((0, -1, -1)),
            PseudoYoungDiagram((2, 0, 0)),
            mode="trig",
        )
    )
    for div in divisors:
        fast = build_linear_lax_trig(div)
        general = normalize_and_check_polynomial_trig(build_lax_trig(div))
        assert mat_equal(fast.entries, general.entries), div.to_json()


def test_z_coefficient_gating():
    # rows whose framing coefficient is not -1 at infinity carry no z term
    div = trig_case_divisor(2)  # bmu+ = (0, -1): row 2 only
    T = build_linear_lax_trig(div)
    coeffs = T.entries[1][1].z_poly_coeffs(Z)
    assert 1 not in coeffs or coeffs[1].is_zero()
    coeffs = T.entries[0][0].z_poly_coeffs(Z)
    assert 1 in coeffs


def _one_point(fundamental, mu):
    return Divisor.make(
        2, "trig", [("x", Coweight.from_fundamental(fundamental))],
        Coweight.from_fundamental(mu), Coweight.zero(2),
    )


def test_limits_match_rebuilt_divisors():
    cases = [
        (trig_case_divisor(4), "to_zero"),
        (trig_case_divisor(5), "to_infinity"),
        (trig_case_divisor(6), "to_zero"),
        (trig_case_divisor(6), "to_infinity"),
        (trig_pizero_divisor(), "to_zero"),
        (trig_pizero_divisor(), "to_infinity"),
        # x carries several fundamental coweights: moving only one of
        # them diverged to infinity on [0, 2], and to zero it left the
        # rest at x although x = 0 was set in every factor
        (_one_point([0, 2], [-1, 0]), "to_infinity"),
        (_one_point([0, 2], [-1, 0]), "to_zero"),
        (_one_point([1, 1], [-2, 1]), "to_zero"),
    ]
    for div, direction in cases:
        limit = limits_trig if direction == "to_zero" else normalized_limit
        got = limit(build_lax_trig(div))
        target = div.move_last_point("zero" if direction == "to_zero" else "infinity")
        assert mat_equal(got.entries, build_lax_trig(target).entries), (
            div.to_json(),
            direction,
        )


def test_index0_limit_moves_the_whole_point():
    # x carries fundamental [1, 1], an index-0 and an index-1 part: the
    # limit to infinity moves both, so x leaves the divisor
    for mode in ("rational", "trig"):
        div = Divisor.make(
            2, mode, [("x", Coweight.from_fundamental([1, 1]))],
            Coweight.from_fundamental([-1, -1]),
            Coweight.zero(2) if mode == "trig" else None,
        )
        assert div.summands == (("x", Coweight.from_fundamental([1, 1])),)
        assert div.points_with(0) == [("x", 1)] and div.points_with(1) == [("x", 1)]
        build = pipeline(mode)[0]
        T = build(div)
        got = normalized_limit(T)
        target = div.move_last_point("infinity")
        assert target.summands == () and target.mu == Coweight.zero(2), mode
        assert got.divisor == target and "x" not in got.signature.points, mode
        assert mat_equal(got.entries, build(target).entries), mode


def test_one_matrix_type_for_both_modes():
    T = normalize_and_check_polynomial_trig(build_lax_trig(trig_case_divisor(1)))
    assert isinstance(T, LaxMatrix) and T.normalized
    gauss = build_gauss_factors(trig_case_divisor(1))
    assert isinstance(gauss, GaussFactors)
    assert gauss.diag is gauss[1]


def test_case4_zero_limit_lands_on_case1():
    assert trig_case_divisor(4).move_last_point("zero") == trig_case_divisor(1)


def test_split_finite_rtt():
    div = trig_case_divisor(1)
    T = normalize_and_check_polynomial_trig(build_lax_trig(div))
    tp, tm = split_finite_rtt(T)
    sig = T.signature
    wt = RatFun.variable(wh_var(1, 1))
    v = RatFun.variable(V)
    assert tp[0][0].equals(AlgebraElement.from_ratfun(sig, wt ** -1))
    assert tm[0][0].equals(AlgebraElement.from_ratfun(sig, v * wt))
    assert tm[0][1].is_zero()
    assert tp[1][0].is_zero()
    assert verify_finite_rtt(tp, tm, sig).ok
    # identity matrix: T+ = 0, T- = -I, relations trivially pass
    n = 2
    zero = AlgebraElement.zero(sig)
    t_plus = [[zero, zero], [zero, zero]]
    minus_eye = [
        [AlgebraElement.from_ratfun(sig, -1 if a == b else 0) for b in range(n)]
        for a in range(n)
    ]
    assert verify_finite_rtt(t_plus, minus_eye, sig).ok


def test_split_rejects_nonlinear():
    import laxkit.coweight as cw

    div = cw.Divisor.make(
        2, "trig", [], 2 * cw.simple_coroot(2, 1), cw.Coweight.zero(2)
    )
    T = normalize_and_check_polynomial_trig(build_lax_trig(div))
    with pytest.raises(NotLinearCase):
        split_finite_rtt(T)


def test_degeneration_all_six_cases():
    for k in range(1, 7):
        div = trig_case_divisor(k)
        rat = degenerate_to_rational(build_lax_trig(div))
        want = build_lax(div.merge_framings_at_infinity())
        assert mat_equal(rat.entries, want.entries), k


def test_degeneration_detects_corruption():
    div = trig_case_divisor(2)
    T = build_lax_trig(div)
    sig = T.signature
    broken = [
        [e for e in row] for row in T.entries
    ]
    broken[0][0] = broken[0][0] + AlgebraElement.one(sig)
    bad = LaxMatrix(sig, div, broken)
    with pytest.raises((MismatchWithRational, NegativeEpsPower)):
        degenerate_to_rational(bad)


def test_entry_expansions_agree_with_rational_forms():
    # the descending and ascending expansions of each entry recombine to
    # the stored rational function
    div = trig_case_divisor(4)
    T = build_lax_trig(div)
    order = 4
    for row in T.entries:
        for e in row:
            for coeff in e.terms.values():
                for direction in ("z_inf", "z_zero"):
                    s = coeff.series(direction, order)
                    partial = RatFun.zero()
                    for k, c in s.coeffs.items():
                        power = -k if direction == "z_inf" else k
                        partial = partial + c * RatFun.variable(Z, power)
                    rem = coeff - partial
                    if rem.is_zero():
                        continue
                    assert rem.series(direction, 1).val() > s.hi


def test_trig_gauss_mode_contract():
    # leading diagonal modes are unit monomials at the framing power;
    # the triangular factors expand in non-positive spectral powers
    for div in (trig_case_divisor(1), trig_n3_divisor()):
        lower, diag, upper = build_gauss_factors(div)
        d = div.mu.d
        n = div.n
        for i in range(n):
            s = element_z_series(diag[i], 3)
            assert s.val() == -d[i]
            lead = s.coeff(-d[i]).scalar_part()
            assert len(lead.num.terms) == 1 and not lead.den
        for i in range(n):
            for j in range(n):
                if i < j and not upper[i][j].is_zero():
                    assert element_z_series(upper[i][j], 2).val() >= 0
                if i > j and not lower[i][j].is_zero():
                    assert element_z_series(lower[i][j], 2).val() >= 1


def test_pizero_normalization():
    div = trig_pizero_divisor()
    T = normalize_and_check_polynomial_trig(build_lax_trig(div))
    for row in T.entries:
        for e in row:
            for c in e.terms.values():
                assert not any(atom.degree(Z) for atom in c.den)
                assert c.num.min_exp(Z) >= 0


def test_degeneration_gathers_each_power_exactly():
    # case 4 has framing power d = 0 in column 2, so an identity-shift
    # coefficient's eps^-1 part lands on eps^-1.  1/(v - 1) = 2/eps - 1/2
    # + ... and v(v - 2)/(v - 1) = -2/eps + ... sum to v - 1, whose eps^0
    # part is 0: added together they leave the degeneration as it was,
    # and the first alone is a negative power
    div = trig_case_divisor(4)
    assert (div.mu + div.mu_zero).d[1] == 0
    T = build_lax_trig(div)
    sig = T.signature
    v = RatFun.variable(V)
    first = AlgebraElement.from_ratfun(sig, RatFun.ratio(1, v.num - 1))
    second = AlgebraElement.from_ratfun(sig, RatFun.ratio(v.num * (v.num - 2), v.num - 1))

    def with_entry(extra):
        entries = [list(row) for row in T.entries]
        entries[1][1] = entries[1][1] + extra
        return LaxMatrix(sig, div, entries)

    want = degenerate_to_rational(T)
    got = degenerate_to_rational(with_entry(first + second))
    assert mat_equal(got.entries, want.entries)
    with pytest.raises(NegativeEpsPower, match=r"entry \(2,2\) degenerates with eps\^-1"):
        degenerate_to_rational(with_entry(first))


def _eps_poly_series_reference(p, hi):
    """ratfun._eps_poly_series as it was before the linear forms were
    kept per process: every monomial's linear form made on every call,
    also at hi = 0, from a per-call table of default_eps_linear_map."""
    from laxkit.monomials import VARS, unpacked
    from laxkit.poly import Poly, _q, _qdiv
    from laxkit.ratfun import default_eps_linear_map
    from laxkit.series import TruncSeries

    ells = {}
    sums = [{} for _ in range(hi + 1)]
    eb = 0
    for m, c in p.terms.items():
        ell = Poly.zero()
        for k, e in unpacked(m):
            lk = ells.get(k)
            if lk is None:
                lk = ells[k] = default_eps_linear_map(VARS[k])
            ell = ell + lk * e
        term = Poly.const(c)
        for k, total in enumerate(sums):
            if k:
                term = term * ell * _qdiv(1, k)
            eb = max(eb, term._eb)
            for mo, tc in term.terms.items():
                total[mo] = total.get(mo, 0) + tc
    coeffs = (RatFun(Poly({mo: _q(tc) for mo, tc in total.items() if tc}, eb), {})
              for total in sums)
    return TruncSeries(dict(enumerate(coeffs)), hi, RatFun.zero())


def test_eps_poly_series_matches_the_per_call_reference():
    # every numerator and atom of the trig (3, 1) and (4, 1) builds,
    # expanded through eps^0..eps^3: the same window, coefficients and
    # exponent bounds as the reference
    from laxkit.ratfun import _eps_poly_series
    from laxkit.suite import enumerate_linear_divisors

    polys = {}
    for div in enumerate_linear_divisors(3, 1, "trig") + enumerate_linear_divisors(4, 1, "trig"):
        for row in build_lax_trig(div).entries:
            for e in row:
                for c in e.terms.values():
                    for p in [c.num] + [a.poly for a in c.den]:
                        polys[frozenset(p.terms.items())] = p
    assert len(polys) > 50, len(polys)
    for p in polys.values():
        for hi in range(4):
            got, want = _eps_poly_series(p, hi), _eps_poly_series_reference(p, hi)
            assert got.hi == want.hi == hi
            assert got.coeffs.keys() == want.coeffs.keys()
            for k, c in want.coeffs.items():
                g = got.coeffs[k]
                assert g.num.terms == c.num.terms and g.num._eb == c.num._eb and g.den == c.den
