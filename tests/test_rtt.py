"""Yang-Baxter, exchange relations, coproducts, series factorization."""

import hashlib
import itertools
import json

import pytest

from laxkit.algebra import AlgebraElement, AlgebraSignature, mat_equal, mat_map, unreduced_product
from laxkit.coweight import PseudoYoungDiagram, divisor_from_young
from laxkit.errors import SignatureMismatch
from laxkit.lax_rational import LaxMatrix, build_lax, fuse
from laxkit.lax_trig import (
    build_lax_trig,
    normalize_and_check_polynomial_trig,
    split_finite_rtt,
)
from laxkit import rtt
from laxkit.ratfun import W, Z, RatFun, den_product, substitute, sum_is_zero
from laxkit.series import TruncSeries
from laxkit.rtt import (
    _exchange_failures,
    _swap_zw,
    check_yang_baxter,
    coproduct,
    coproduct_mode_contract,
    element_z_series,
    series_gauss_decompose,
    verify_coproduct_generators,
    verify_finite_rtt,
    r_finite,
    r_rational,
    r_trig,
    verify_rtt,
)
from laxkit.suite import (
    block_example_divisor,
    enumerate_linear_divisors,
    first_example_divisor,
    rtt_rational_divisors,
    rtt_trig_divisors,
    toda_divisor,
    trig_case_divisor,
)
from laxkit.textio import matrix_from_json


def test_yang_baxter_all_variants():
    for variant in ("rational", "trig", "finite"):
        for n in (1, 2, 3, 4):
            assert check_yang_baxter(variant, n), (variant, n)


def test_yang_baxter_fails_for_a_corrupted_r(monkeypatch):
    # every R-matrix of the identity gets 1 added to entry (0, 0)
    def corrupted(make):
        def make_bad(*args):
            r = make(*args)
            r.setdefault(0, {})[0] = r[0].get(0, RatFun.zero()) + RatFun.one()
            return r
        return make_bad

    for name in ("r_rational", "r_trig", "r_finite"):
        monkeypatch.setattr(rtt, name, corrupted(getattr(rtt, name)))
    for variant in ("rational", "trig", "finite"):
        for n in (2, 3):
            assert not check_yang_baxter(variant, n), (variant, n)


def test_rtt_identity_matrix():
    div = divisor_from_young(
        PseudoYoungDiagram((0, 0)), [], PseudoYoungDiagram((0, 0))
    )
    assert verify_rtt(build_lax(div)).ok


def test_rtt_examples():
    assert verify_rtt(build_lax(toda_divisor())).ok
    assert verify_rtt(build_lax_trig(trig_case_divisor(4))).ok


def _plus_one(entries, i, j):
    out = [list(row) for row in entries]
    out[i][j] = out[i][j] + AlgebraElement.one(out[i][j].signature)
    return out


# Failures (i, a, j, b) after adding 1 to entry (i, j): the components
# E_ij (x) E_ab of R T1 T2 - T2 T1 R that are nonzero.
CORRUPTION_FAILURES = {
    "toda": {
        (0, 0): [],
        (0, 1): [(0, 0, 0, 1), (0, 0, 1, 0)],
        (1, 0): [(0, 1, 0, 0), (1, 0, 0, 0)],
        (1, 1): [(0, 1, 1, 0), (1, 0, 0, 1)],
    },
    "trig4": {
        (0, 0): [
            (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0),
            (0, 1, 1, 0), (1, 0, 0, 0), (1, 0, 0, 1),
        ],
        (0, 1): [
            (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 1),
            (0, 1, 1, 1), (1, 0, 1, 0), (1, 0, 1, 1),
        ],
        (1, 0): [(0, 1, 0, 0), (1, 0, 0, 0), (1, 1, 0, 1), (1, 1, 1, 0)],
        (1, 1): [
            (0, 1, 1, 0), (0, 1, 1, 1), (1, 0, 0, 1),
            (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0),
        ],
    },
    "first3": {
        (0, 0): [],
        (0, 1): [(0, 0, 0, 1), (0, 0, 1, 0)],
        (0, 2): [(0, 0, 0, 2), (0, 0, 2, 0)],
        (1, 0): [(0, 1, 0, 0), (1, 0, 0, 0)],
        (1, 1): [(0, 1, 1, 0), (1, 0, 0, 1)],
        (1, 2): [(0, 1, 2, 0), (1, 0, 0, 2)],
        (2, 0): [(0, 2, 0, 0), (2, 0, 0, 0)],
        (2, 1): [(0, 2, 1, 0), (2, 0, 0, 1)],
        (2, 2): [(0, 2, 2, 0), (2, 0, 0, 2)],
    },
}


def test_rtt_detects_corruption():
    from laxkit.lax_rational import LaxMatrix

    for name, T in (
        ("toda", build_lax(toda_divisor())),
        ("trig4", build_lax_trig(trig_case_divisor(4))),
        ("first3", build_lax(first_example_divisor(3))),
    ):
        for (i, j), want in CORRUPTION_FAILURES[name].items():
            bad = LaxMatrix(T.signature, T.divisor, _plus_one(T.entries, i, j))
            rep = verify_rtt(bad)
            assert rep.failures == want, (name, i, j)
            assert rep.ok == (not want)


def test_finite_rtt_detects_corruption():
    T = normalize_and_check_polynomial_trig(build_lax_trig(trig_case_divisor(4)))
    tp, tm = split_finite_rtt(T)
    assert verify_finite_rtt(tp, tm, T.signature).ok
    rep = verify_finite_rtt(_plus_one(tp, 0, 1), tm, T.signature)
    assert not rep.ok
    # one list per relation: T+T+, then T-T+
    assert rep.failures == [
        (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 1, 1),
        (1, 0, 1, 1), (0, 0, 0, 1),
    ]


def _exchange_reports():
    """128 reports: every rtt_rational_divisors, rtt_trig_divisors and trig
    (3, 1) divisor, clean and with 1 added at (1,2), (n,1) and (n,n), then
    the finite relations of the six trig cases, clean and with T- plus 1
    at (2,1)."""
    out = []
    divisors = (rtt_rational_divisors() + rtt_trig_divisors()
                + enumerate_linear_divisors(3, 1, "trig"))
    for div in divisors:
        T = (build_lax if div.mode == "rational" else build_lax_trig)(div)
        n = T.n
        for pos in (None, (0, 1), (n - 1, 0), (n - 1, n - 1)):
            entries = T.entries if pos is None else _plus_one(T.entries, *pos)
            out.append(verify_rtt(LaxMatrix(T.signature, T.divisor, entries)).to_json())
    for k in range(1, 7):
        T = normalize_and_check_polynomial_trig(build_lax_trig(trig_case_divisor(k)))
        tp, tm = split_finite_rtt(T)
        for bad in (tm, _plus_one(tm, 1, 0)):
            out.append(verify_finite_rtt(tp, bad, T.signature).to_json())
    return out


# sha256 of the JSON list of the 128 reports, computed when every M L
# product was still formed directly
EXCHANGE_REPORTS_SHA256 = "28f436dc1b0b86452faebc07990a782435f717872c770b538d77684d657994cf"


def test_exchange_reports_match_pinned_digest():
    reports = _exchange_reports()
    assert len(reports) == 128 and sum(not r["ok"] for r in reports) == 93
    digest = hashlib.sha256(json.dumps(reports).encode()).hexdigest()
    assert digest == EXCHANGE_REPORTS_SHA256


def test_mirrored_products_match_direct_products():
    # M L products taken as the z <-> w mirror of L M products give the
    # same failures as M L products formed directly, clean and corrupted
    z, w = RatFun.variable(Z), RatFun.variable(W)
    cases = (build_lax(toda_divisor()), build_lax(first_example_divisor(3)),
             build_lax_trig(trig_case_divisor(4)),
             build_lax_trig(enumerate_linear_divisors(3, 1, "trig")[3]))
    seen_failures = 0
    for T in cases:
        n = T.n
        r = r_rational(n, z - w) if T.signature.mode == "rational" else r_trig(n, z, w)
        for pos in (None, (0, 0), (0, 1), (n - 1, 0)):
            left = T.entries if pos is None else _plus_one(T.entries, *pos)
            right = mat_map(left, lambda e: e.rename_spectral(Z, W))
            want = _exchange_failures(r, left, right)
            assert _exchange_failures(r, left, right, mirror=_swap_zw) == want
            seen_failures += bool(want)
    assert seen_failures >= 8
    # with both factors the same matrix the L M products are reused
    T = normalize_and_check_polynomial_trig(build_lax_trig(trig_case_divisor(4)))
    tp, _ = split_finite_rtt(T)
    r = r_finite(2)
    for left in (tp, _plus_one(tp, 0, 1)):
        copy = [list(row) for row in left]
        assert _exchange_failures(r, left, left) == _exchange_failures(r, left, copy)
    assert _exchange_failures(r, copy, copy)


def _reference_failures(r, left, right, mirror=None):
    """_exchange_failures computed the plain way: every fraction of every
    product weighted by its entry of R as its own Poly product, then
    ratfun.sum_is_zero on the weighted fractions of each shift monomial."""
    n = len(left)
    quads = list(itertools.product(range(n), repeat=4))
    lm = {q: unreduced_product(left[q[0]][q[1]], right[q[2]][q[3]]) for q in quads}
    if mirror is None:
        ml = {q: unreduced_product(right[q[0]][q[1]], left[q[2]][q[3]]) for q in quads}
    else:
        ml = {q: {s: [substitute(num, den, mirror) for num, den in fracs]
                  for s, fracs in prod.items()} for q, prod in lm.items()}
    failures = []
    for i, a, j, b in quads:
        terms = {}
        weighted = [(lm[kc // n, j, kc % n, b], val)
                    for kc, val in r.get(i * n + a, {}).items()]
        weighted += [(ml[a, row % n, i, row // n], -cols[j * n + b])
                     for row, cols in r.items() if j * n + b in cols]
        for prod, val in weighted:
            for s, fracs in prod.items():
                terms.setdefault(s, []).extend(
                    (num * val.num, den_product(den, val.den)) for num, den in fracs)
        if not all(sum_is_zero(fracs) for fracs in terms.values()):
            failures.append((i, a, j, b))
    return failures


@pytest.mark.parametrize("name", ["toda", "first3", "trig4", "trig31"])
def test_exchange_failures_match_per_fraction_reference(name):
    # clean and with 1 added to each single entry in turn, with the M L
    # products mirrored and formed directly
    T = {
        "toda": lambda: build_lax(toda_divisor()),
        "first3": lambda: build_lax(first_example_divisor(3)),
        "trig4": lambda: build_lax_trig(trig_case_divisor(4)),
        "trig31": lambda: build_lax_trig(enumerate_linear_divisors(3, 1, "trig")[3]),
    }[name]()
    n = T.n
    z, w = RatFun.variable(Z), RatFun.variable(W)
    r = r_rational(n, z - w) if T.signature.mode == "rational" else r_trig(n, z, w)
    failing = 0
    for pos in [None] + list(itertools.product(range(n), repeat=2)):
        left = T.entries if pos is None else _plus_one(T.entries, *pos)
        right = mat_map(left, lambda e: e.rename_spectral(Z, W))
        for mirror in (_swap_zw, None):
            want = _reference_failures(r, left, right, mirror)
            assert _exchange_failures(r, left, right, mirror=mirror) == want, (pos, mirror)
            failing += bool(want)
    assert failing >= 2


def test_exchange_weighting_checks_the_exponent_bound():
    # every L M product fits the 16-bit exponent fields; only the sum
    # weighted by z - w, which holds z^32768, does not, and it must raise
    # rather than wrap
    sig = AlgebraSignature(2, "rational", ((1,),))
    z, w = RatFun.variable(Z), RatFun.variable(W)

    def elem(f):
        return AlgebraElement.from_ratfun(sig, f)

    left = [[elem(RatFun.variable(Z, 32767)), elem(0)], [elem(0), elem(1)]]
    identity = [[elem(1), elem(0)], [elem(0), elem(1)]]
    with pytest.raises(OverflowError):
        _exchange_failures(r_rational(2, z - w), left, identity)


@pytest.mark.parametrize("mode,entry", [
    ("rational", "(w)"),
    ("rational", "((1) / ((w - z)))"),
    ("trig", "((z) / ((z - v^2*w)))"),
])
def test_verify_rtt_refuses_a_matrix_holding_w(mode, entry):
    # w is the second spectral parameter of the relation: T(w) renames z
    # to w, so a T holding w would be checked against the wrong matrix
    sig = {"n": 2, "mode": mode, "slot_counts": [[1]]}
    T = matrix_from_json({"signature": sig, "entries": [["(1)", "0"], ["0", entry]]})
    with pytest.raises(SignatureMismatch, match=r"entry \(2,2\) holds w"):
        verify_rtt(T)


def test_coproduct_passes_rtt_and_contract():
    delta = coproduct(build_lax(toda_divisor()), build_lax(toda_divisor()))
    assert verify_rtt(delta).ok
    assert coproduct_mode_contract(delta)
    delta_t = coproduct(
        build_lax_trig(trig_case_divisor(2)), build_lax_trig(trig_case_divisor(3))
    )
    assert verify_rtt(delta_t).ok


def test_coproduct_mode_contract_refuses_trig():
    # the contract is the rational one: a trig fused pair is refused
    # rather than reported as breaking it
    delta_t = coproduct(
        build_lax_trig(trig_case_divisor(2)), build_lax_trig(trig_case_divisor(3))
    )
    with pytest.raises(SignatureMismatch, match="rational mode"):
        coproduct_mode_contract(delta_t)


def _agrees(a, b, k):
    """The two series agree through order k."""
    return (a - b).is_zero_through(k)


def _recompose_gauss(F, G, E, order):
    """The product F G E of series Gauss factors, through order."""
    n = len(G)
    zero = G[0].zero
    out = [[TruncSeries({}, order, zero) for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            for k in range(min(a, b) + 1):
                out[a][b] = out[a][b] + (F[a][k] * G[k] * E[k][b]).truncate(order)
    return out


def test_series_gauss_roundtrip():
    delta = coproduct(build_lax(toda_divisor()), build_lax(toda_divisor()))
    order = 5
    work = order + 10
    series = [[element_z_series(e, work) for e in row] for row in delta.entries]
    # recomposition consumes `span` powers of slack, so decompose deeper
    F, G, E = series_gauss_decompose(series, order + 4)
    back = _recompose_gauss(F, G, E, order)
    for a in range(2):
        for b in range(2):
            assert _agrees(series[a][b], back[a][b], order)


def test_series_gauss_recovers_factors():
    # feed an FGE product and get the factors back
    div = toda_divisor()
    T = build_lax(div)
    sig = T.signature
    order = 4
    gf_series = [[element_z_series(e, order + 4) for e in row] for row in T.entries]
    F, G, E = series_gauss_decompose(gf_series, order)
    from laxkit.lax_rational import build_gauss_factors

    gf = build_gauss_factors(div)
    for i in range(2):
        want = element_z_series(gf.diag[i], order)
        assert _agrees(G[i], want, order)
    assert _agrees(F[1][0], element_z_series(gf.lower[1][0], order), order)
    assert _agrees(E[0][1], element_z_series(gf.upper[0][1], order), order)


def test_coproduct_generators_n2():
    rep = verify_coproduct_generators(toda_divisor(), toda_divisor())
    assert rep.ok, rep.failures()
    names = [c.name for c in rep.checks]
    assert "F_1^(3) mixing" in names
    assert "D_1 second mode" in names


def test_coproduct_generators_n3():
    ex1 = first_example_divisor(3)
    rep = verify_coproduct_generators(ex1, ex1)
    assert rep.ok, rep.failures()


def test_nested_bracket_convention():
    # the root element spanning two rows equals the first mode of the
    # corner entry of the upper Gauss factor
    from laxkit.lax_rational import build_gauss_factors
    from laxkit.rtt import _nested_e_bracket

    div = first_example_divisor(3)
    gf = build_gauss_factors(div)
    e_ones = [
        element_z_series(gf.upper[i - 1][i], 1).coeff(1) for i in (1, 2)
    ]
    bracket = _nested_e_bracket(e_ones, 1, 3)
    direct = element_z_series(gf.upper[0][2], 1).coeff(1)
    assert bracket.equals(direct)


def test_coassociativity_entrywise():
    toda = build_lax(toda_divisor())
    a = fuse(fuse(toda, toda), toda)
    b = fuse(toda, fuse(toda, toda))
    assert mat_equal(a.entries, b.entries)


def test_rtt_block_example():
    assert verify_rtt(build_lax(block_example_divisor())).ok
