"""Gauss-factor builds of both modes: pinned output and reduced coefficients.

The raw build and the linear closed form are pinned by a SHA-256 digest
of their matrix JSON (the bytes `lax build --raw --out` and `lax linear
--out` write) on families beyond the four n = 2 divisors of
data/cli_golden.json: n = 3 and 4, slot counts a = (1, 2), and index-0
points.  A divisor without a linear form adds the name of the error
instead.  Fused pairs (the coproduct T (x) T as a matrix product, as
`lax fuse` forms it from raw builds) are pinned the same way, rank 1
included.  The raw builds of the trig n = 3, a <= 2 family are pinned on
their own.  The multi_coweight family pins points that each carry more
than one fundamental coweight.
"""

import hashlib
import json

import pytest

from laxkit import suite
from laxkit.coweight import Coweight, Divisor, fundamental_coweight
from laxkit.errors import LaxkitError
from laxkit.lax_rational import build_gauss_factors, build_linear_lax, build_lax, fuse
from laxkit.lax_trig import build_lax_trig, build_linear_lax_trig
from laxkit.ratfun import RatFun
from laxkit.textio import matrix_to_json


def _multi_coweight():
    """n = 2 divisors whose one point x carries fundamental [0, 2] or
    [1, 1], in both modes."""
    out = []
    for mode in ("rational", "trig"):
        for point, infinity in (([0, 2], [-1, 0]), ([1, 1], [-2, 1])):
            out.append(Divisor.make(
                2, mode, [("x", Coweight.from_fundamental(point))],
                Coweight.from_fundamental(infinity),
                Coweight.zero(2) if mode == "trig" else None,
            ))
    return out


FAMILIES = {
    "rtt_rational": suite.rtt_rational_divisors,
    "rtt_trig": suite.rtt_trig_divisors,
    "trig_3_1": lambda: suite.enumerate_linear_divisors(3, 1, "trig"),
    "trig_4_1": lambda: suite.enumerate_linear_divisors(4, 1, "trig"),
    "rational_4_1": lambda: suite.enumerate_linear_divisors(4, 1),
    "pizero": lambda: [suite.rational_pizero_divisor(), suite.trig_pizero_divisor()],
    "multi_coweight": _multi_coweight,
}

DIGESTS = {
    "rtt_rational": "661f70d64f28440f",
    "rtt_trig": "3427861315b3fb84",
    "trig_3_1": "80319526dfd960fb",
    "trig_4_1": "f27abb52291acef8",
    "rational_4_1": "46ac19d215be2fcf",
    "pizero": "c253acf06df57fa1",
    "multi_coweight": "d33e6dd65c159a65",
}


def _builders(div):
    if div.mode == "rational":
        return build_lax, build_linear_lax
    return build_lax_trig, build_linear_lax_trig


def _json_bytes(mat) -> bytes:
    return json.dumps(matrix_to_json(mat), indent=1, sort_keys=True).encode()


def _family_digest(family) -> str:
    h = hashlib.sha256()
    for div in FAMILIES[family]():
        build, linear = _builders(div)
        h.update(_json_bytes(build(div)))
        try:
            h.update(_json_bytes(linear(div)))
        except LaxkitError as exc:
            h.update(type(exc).__name__.encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_raw_and_linear_builds_match_pinned_digest(family):
    assert _family_digest(family) == DIGESTS[family]


@pytest.mark.parametrize("state", ["cold", "warm", "capped"])
def test_builds_do_not_depend_on_the_split_memo(monkeypatch, state):
    # builds make each distinct Gauss factor once per process
    # (lax_rational._FACTORS), factor_atoms splits it once per process and
    # _atom makes one Atom per key; every pinned build is byte-identical
    # whether the factor, split and atom memos start empty, hold every
    # factor and atom of the families already, or are cleared at a cap of
    # 2 (the cap every module-level memo shares).  The matrix cache is
    # cleared with them and again before the pinned builds, or they would
    # reach none of the memos
    from laxkit import lax_rational, ratfun

    tables = (lax_rational._FACTORS, ratfun._SPLITS, ratfun._ATOMS)
    for table in tables:
        table.clear()
    lax_rational._assembled.cache_clear()
    if state == "warm":
        for family in FAMILIES:
            _family_digest(family)
        assert len(lax_rational._FACTORS) > 100
        assert len(ratfun._SPLITS) > 50 and len(ratfun._ATOMS) > 40
        lax_rational._assembled.cache_clear()
    if state == "capped":
        monkeypatch.setattr(ratfun, "_MEMO_CAP", 2)
    for family in sorted(FAMILIES):
        assert _family_digest(family) == DIGESTS[family], family
    if state == "capped":
        assert all(len(table) <= 2 for table in tables)


def _several_coweights():
    """Divisors of both modes whose points carry several fundamental
    coweights, under the labels the pinned families give points carrying
    one."""
    out = []
    for mode in ("rational", "trig"):
        for n, points, infinity in ((2, [("x1", [0, 2])], [-1, 0]),
                                    (2, [("x1", [0, 2]), ("x2", [0, 1])], [-2, 1]),
                                    (3, [("x1", [0, 1, 1])], [-1, 0, 0])):
            out.append(Divisor.make(
                n, mode, [(x, Coweight.from_fundamental(c)) for x, c in points],
                Coweight.from_fundamental(infinity),
                Coweight.zero(n) if mode == "trig" else None,
            ))
    return out


def test_builds_do_not_depend_on_what_the_factor_table_holds():
    # the factor table is shared by every build of the process, so its
    # keys must hold all a factor depends on: filled first by the (3, 1)
    # families (rows of slot count 1 where the pinned families have 2) and
    # by points carrying several coweights (the labels of the pinned
    # points with other coefficients), it must give every pinned build
    # byte for byte.  The matrix cache is cleared with the table and
    # again before the pinned builds, so each of them reaches the table
    from laxkit import lax_rational

    lax_rational._FACTORS.clear()
    lax_rational._assembled.cache_clear()
    for div in (suite.enumerate_linear_divisors(3, 1) + suite.enumerate_linear_divisors(3, 1, "trig")
                + _several_coweights()):
        _builders(div)[0](div)
    lax_rational._assembled.cache_clear()
    for family in sorted(FAMILIES):
        assert _family_digest(family) == DIGESTS[family], family


# ---------------------------------------------------------------------------
# the matrix cache: the last 64 matrices built (lax_rational._assembled)


def _filler(k: int) -> Divisor:
    """Rational n = 2 divisors with one point fill<k> each, cheap to build."""
    return Divisor.make(2, "rational", [(f"fill{k}", Coweight.from_fundamental([0, 1]))],
                        Coweight.from_fundamental([-1, 1]))


@pytest.mark.parametrize("state", ["cleared", "warm", "evicted"])
def test_builds_do_not_depend_on_the_matrix_cache(monkeypatch, state):
    # every pinned build is byte-identical whether the cache is cleared
    # before each build, already holds every divisor of the families, or
    # held them and has evicted them all by building 64 other divisors
    from laxkit import lax_rational

    cache = lax_rational._assembled
    cache.cache_clear()
    if state == "cleared":
        monkeypatch.setattr(lax_rational, "_assembled",
                            lambda *args: cache.cache_clear() or cache(*args))
    else:
        for family in FAMILIES:
            for div in FAMILIES[family]():
                _builders(div)[0](div)
    if state == "evicted":
        for k in range(64):
            build_lax(_filler(k))
        assert cache.cache_info().currsize == 64
    hits = cache.cache_info().hits
    for family in sorted(FAMILIES):
        assert _family_digest(family) == DIGESTS[family], family
    # every build hits when warm; once evicted, only a divisor two
    # families share hits, on its second build
    divs = [div for family in sorted(FAMILIES) for div in FAMILIES[family]()]
    want = {"cleared": 0, "warm": len(divs), "evicted": len(divs) - len(set(divs))}
    assert cache.cache_info().hits - hits == want[state]


def test_each_build_gets_its_own_rows():
    # assigning into a returned matrix, or changing its row lists, leaves
    # the next build of the same divisor as it was
    for div in (suite.toda_divisor(), suite.trig_case_divisor(4)):
        build = _builders(div)[0]
        T = build(div)
        want = _json_bytes(T)
        T.entries[0][1] = T.entries[0][1] + 1
        T.entries[1].reverse()
        T.entries[0].append(T.entries[0][0])
        T.entries.pop()
        again = build(div)
        assert again.entries is not T.entries and again.entries[0] is not T.entries[0]
        assert _json_bytes(again) == want


def test_a_build_carries_the_callers_divisor():
    # an equal divisor read back from its JSON hits the cache but gets
    # back itself, not the divisor the matrix was first built for
    for div in (suite.toda_divisor(), suite.trig_case_divisor(2)):
        build = _builders(div)[0]
        build(div)
        same = Divisor.from_json(json.loads(json.dumps(div.to_json())))
        assert same == div and same is not div
        assert build(same).divisor is same


def test_a_cached_divisor_of_the_other_mode_is_refused():
    from laxkit.errors import SignatureMismatch

    trig, rational = suite.trig_case_divisor(4), suite.toda_divisor()
    build_lax_trig(trig)
    build_lax(rational)
    with pytest.raises(SignatureMismatch):
        build_lax(trig)
    with pytest.raises(SignatureMismatch):
        build_lax_trig(rational)


@pytest.mark.parametrize("mode", ["rational", "trig"])
def test_an_int_point_and_its_fraction_share_one_matrix(mode):
    # Divisor's own constructor keeps an int point 2 as it is; it equals
    # and hashes as the Fraction(2) that Divisor.make would make, and
    # both render the same bytes, built apart or one from the other's
    # cache entry
    from fractions import Fraction

    from laxkit import lax_rational

    lam, mu = Coweight.from_fundamental([0, 1]), Coweight.from_fundamental([-1, 1])
    zero = Coweight.zero(2) if mode == "trig" else None
    int_pt = Divisor(2, mode, ((2, lam),), mu, zero)
    frac_pt = Divisor(2, mode, ((Fraction(2), lam),), mu, zero)
    assert int_pt == frac_pt and hash(int_pt) == hash(frac_pt)
    build = _builders(int_pt)[0]
    apart = []
    for div in (int_pt, frac_pt):
        lax_rational._assembled.cache_clear()
        apart.append(_json_bytes(build(div)))
    assert apart[0] == apart[1]
    lax_rational._assembled.cache_clear()
    build(frac_pt)
    T = build(int_pt)
    assert T.divisor is int_pt and _json_bytes(T) == apart[0]


def _assert_reduced(element, where):
    for shift, c in element.terms.items():
        again = RatFun._make(c.num, dict(c.den))
        assert (again.num.terms, again.den) == (c.num.terms, c.den), (where, shift)


# the raw builds of the 19 trig divisors with n = 3 and a <= 2, whose
# slot atoms v^2k*w[i,r] - w[i,s] are two-term, non-prime atoms
TRIG_3_2_RAW_DIGEST = "ff987a49eedb5566"


def test_trig_3_2_raw_builds_match_pinned_digest():
    divs = suite.enumerate_linear_divisors(3, 2, "trig")
    assert len(divs) == 19
    h = hashlib.sha256()
    for div in divs:
        h.update(_json_bytes(build_lax_trig(div)))
    assert h.hexdigest()[:16] == TRIG_3_2_RAW_DIGEST


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_gauss_and_t_coefficients_are_reduced(family):
    # full trial division by every atom must find nothing left to cancel
    for div in FAMILIES[family]():
        T = _builders(div)[0](div)
        gauss = build_gauss_factors(div)
        n = T.n
        for i in range(n):
            _assert_reduced(gauss.diag[i], ("g", i))
            for j in range(n):
                _assert_reduced(gauss.upper[i][j], ("e", i, j))
                _assert_reduced(gauss.lower[i][j], ("f", i, j))
                _assert_reduced(T.entries[i][j], ("T", i, j))


def _rank_one():
    return Divisor.make(1, "rational", [("x1", fundamental_coweight(1, 0))], Coweight((1,)))


def _rational_3_1_pairs():
    r = suite.enumerate_linear_divisors(3, 1)
    return [(r[0], r[1]), (r[2], r[3])]


FUSED = {
    "toda_toda": lambda: [(suite.toda_divisor(), suite.toda_divisor())],
    "rational_3_1": _rational_3_1_pairs,
    "trig_2_3": lambda: [(suite.trig_case_divisor(2), suite.trig_case_divisor(3))],
    "rank_1": lambda: [(_rank_one(), _rank_one())],
}

FUSED_DIGESTS = {
    "toda_toda": "ed10507b1c53a089",
    "rational_3_1": "bf0fcff4f668c3ae",
    "trig_2_3": "05d6e1bc1ba28be9",
    "rank_1": "2c58ebe3196c8dd1",
}


@pytest.mark.parametrize("name", sorted(FUSED))
def test_fused_builds_match_pinned_digest(name):
    h = hashlib.sha256()
    for d1, d2 in FUSED[name]():
        build = _builders(d1)[0]
        fused = fuse(build(d1), build(d2))
        for i, row in enumerate(fused.entries):
            for j, e in enumerate(row):
                _assert_reduced(e, ("fused", i, j))
        h.update(_json_bytes(fused))
    assert h.hexdigest()[:16] == FUSED_DIGESTS[name]
