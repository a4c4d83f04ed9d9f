"""The acceptance battery: the named divisors and the fourteen exact
checks, shared by the command-line `suite` runner and the test suite.

Every check is exact (no floating point, no tolerances); a check returns
a CheckResult whose detail string names the first failing sub-case.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

from .algebra import (
    AlgebraElement,
    AlgebraSignature,
    GammaGauge,
    MonomialGauge,
    ShiftMonomial,
    mat_equal,
    mat_mul,
    mat_zero,
)
from .coweight import (
    Coweight,
    Divisor,
    PseudoYoungDiagram,
    divisor_from_young,
    fundamental_coweight,
    simple_coroot,
)
from .errors import LaxkitError
from .gelfand_tsetlin import gauge_and_compare
from .lax_rational import (
    build_lax,
    build_linear_lax,
    commuting_hamiltonians_n2,
    fuse,
    normalize_and_check_polynomial,
    normalized_limit,
    pipeline,
    qdet_image,
)
from .lax_trig import (
    build_lax_trig,
    degenerate_to_rational,
    limits_trig,
    normalize_and_check_polynomial_trig,
    split_finite_rtt,
)
from .ratfun import Poly, RatFun, V, W, Z, den_product, p_var, wh_var, x_var
from .rtt import (
    check_yang_baxter,
    coproduct,
    coproduct_mode_contract,
    verify_coproduct_generators,
    verify_finite_rtt,
    verify_rtt,
)


@dataclass
class CheckResult:
    name: str
    ok: bool
    seconds: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        msg = f" ({self.detail})" if self.detail and not self.ok else ""
        return f"{status}  {self.name}  [{self.seconds:.1f}s]{msg}"


def _timed(name: str, fn: Callable[[], Tuple[bool, str]]) -> CheckResult:
    start = time.perf_counter()
    try:
        ok, detail = fn()
    except LaxkitError as exc:
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    return CheckResult(name, ok, time.perf_counter() - start, detail)


# ---------------------------------------------------------------------------
# named divisors


def toda_divisor() -> Divisor:
    return divisor_from_young(PseudoYoungDiagram((0, 0)), [], PseudoYoungDiagram((1, -1)))


def dst_divisor() -> Divisor:
    return divisor_from_young(
        PseudoYoungDiagram((1, 0)), ["x1"], PseudoYoungDiagram((0, -1))
    )


def heisenberg_divisor() -> Divisor:
    return divisor_from_young(
        PseudoYoungDiagram((2, 0)), ["x1", "x2"], PseudoYoungDiagram((-1, -1))
    )


def first_example_divisor(n: int) -> Divisor:
    """blambda = 0, bmu = (1, 0^{n-2}, -1): the sparse matrix with a single
    spectral entry."""
    return divisor_from_young(
        PseudoYoungDiagram((0,) * n),
        [],
        PseudoYoungDiagram((1,) + (0,) * (n - 2) + (-1,)),
    )


def block_example_divisor() -> Divisor:
    """n = 4, bmu = (1, 1, -1, -1): the [[zI-F, Kbar], [K, 0]] block shape."""
    return divisor_from_young(
        PseudoYoungDiagram((0, 0, 0, 0)), [], PseudoYoungDiagram((1, 1, -1, -1))
    )


def pqf_divisor(r: int, s: int) -> Divisor:
    """blambda = (1^r, 0^s), bmu = (0^s, (-1)^r): the [[zI-F, Q], [-P, I]]
    shape with F = x1 I + QP."""
    n = r + s
    return divisor_from_young(
        PseudoYoungDiagram((1,) * r + (0,) * s),
        ["x1"],
        PseudoYoungDiagram((0,) * s + (-1,) * r),
    )


def double_coroot_divisor() -> Divisor:
    return Divisor.make(2, "rational", [], 2 * simple_coroot(2, 1))


TRIG_CASE_DATA = {
    1: ((0, 0), (-1, -1), (2, 0), []),
    2: ((0, 0), (0, -1), (1, 0), []),
    3: ((0, 0), (1, -1), (0, 0), []),
    4: ((1, 0), (-1, -1), (1, 0), ["x1"]),
    5: ((1, 0), (0, -1), (0, 0), ["x1"]),
    6: ((2, 0), (-1, -1), (0, 0), ["x1", "x2"]),
}


def trig_case_divisor(k: int) -> Divisor:
    bl, bmp, bmm, pts = TRIG_CASE_DATA[k]
    return divisor_from_young(
        PseudoYoungDiagram(bl),
        pts,
        PseudoYoungDiagram(bmp),
        PseudoYoungDiagram(bmm),
        mode="trig",
    )


def trig_n3_divisor() -> Divisor:
    """n = 3, a = (1, 1) trigonometric sample with one point."""
    return divisor_from_young(
        PseudoYoungDiagram((1, 0, 0)),
        ["x1"],
        PseudoYoungDiagram((0, 0, -1)),
        PseudoYoungDiagram((0, 0, 0)),
        mode="trig",
    )


def rational_pizero_divisor() -> Divisor:
    """A rational divisor with an index-0 point, exercising the
    normalization factor."""
    lam = fundamental_coweight(2, 0) + fundamental_coweight(2, 1)
    return Divisor.make(
        2,
        "rational",
        [("x1", fundamental_coweight(2, 1)), ("x2", fundamental_coweight(2, 0))],
        simple_coroot(2, 1) - lam,
    )


def trig_pizero_divisor() -> Divisor:
    """A trig divisor with an index-0 point."""
    lam = fundamental_coweight(2, 0) + fundamental_coweight(2, 1)
    return Divisor.make(
        2,
        "trig",
        [("x1", fundamental_coweight(2, 1)), ("x2", fundamental_coweight(2, 0))],
        simple_coroot(2, 1) - lam,
        Coweight.zero(2),
    )


def enumerate_linear_divisors(n: int, a_max: int, mode: str = "rational"):
    """All pseudo-Young-encoded linear divisors of the given rank with slot
    counts bounded by a_max (symbolic points)."""
    out = []
    max_row = a_max + 1
    rows_bl = _weakly_decreasing(n, 0, max_row, last=0)
    trig = mode == "trig"
    for bl in rows_bl:
        names = [f"x{i+1}" for i in range(bl[0])]
        for bm in _weakly_decreasing(n, -1, max_row, last=-1):
            for bz in _weakly_decreasing(n, 0, max_row, last=0) if trig else [None]:
                if sum(bl) + sum(bm) + sum(bz or ()) != 0:
                    continue
                try:
                    div = divisor_from_young(
                        PseudoYoungDiagram(bl),
                        names,
                        PseudoYoungDiagram(bm),
                        PseudoYoungDiagram(bz) if trig else None,
                        mode=mode,
                    )
                except LaxkitError:
                    continue
                if all(a <= a_max for a in div.a_vector()):
                    out.append(div)
    return out


def _weakly_decreasing(n: int, lo: int, hi: int, last: int):
    def rec(prefix):
        if len(prefix) == n:
            if prefix[-1] == last:
                yield tuple(prefix)
            return
        top = prefix[-1] if prefix else hi
        for v in range(min(top, hi), lo - 1, -1):
            yield from rec(prefix + [v])

    return list(rec([]))


# ---------------------------------------------------------------------------
# golden matrices (criteria 1 and 2)


def _expected_toda(sig):
    z = RatFun.variable(Z)
    p = RatFun.variable(p_var(1, 1))
    return [
        [
            AlgebraElement.from_ratfun(sig, z - p),
            AlgebraElement(sig, {ShiftMonomial.generator(1, 1, 1): RatFun.const(-1)}),
        ],
        [AlgebraElement.shift(sig, 1, 1, -1), AlgebraElement.zero(sig)],
    ]


def _expected_dst(sig):
    z = RatFun.variable(Z)
    p = RatFun.variable(p_var(1, 1))
    x1 = RatFun.variable(x_var("x1"))
    return [
        [
            AlgebraElement.from_ratfun(sig, z - p),
            AlgebraElement(sig, {ShiftMonomial.generator(1, 1, 1): -(p - x1)}),
        ],
        [AlgebraElement.shift(sig, 1, 1, -1), AlgebraElement.one(sig)],
    ]


def _expected_heisenberg(sig):
    z = RatFun.variable(Z)
    p = RatFun.variable(p_var(1, 1))
    x1 = RatFun.variable(x_var("x1"))
    x2 = RatFun.variable(x_var("x2"))
    return [
        [
            AlgebraElement.from_ratfun(sig, z - p),
            AlgebraElement(
                sig, {ShiftMonomial.generator(1, 1, 1): -(p - x1) * (p - x2)}
            ),
        ],
        [
            AlgebraElement.shift(sig, 1, 1, -1),
            AlgebraElement.from_ratfun(sig, z + p + 1 - x1 - x2),
        ],
    ]


def _expected_first_example(sig, n: int):
    z = RatFun.variable(Z)
    rows = mat_zero(sig, n)
    rows[0][0] = AlgebraElement.from_ratfun(sig, z - RatFun.variable(p_var(1, 1)))
    for j in range(2, n + 1):
        rows[0][j - 1] = AlgebraElement(
            sig,
            {ShiftMonomial({(1, k, 1): 1 for k in range(1, j)}): RatFun.const(-1)},
        )
    for j in range(2, n):
        pj = RatFun.variable(p_var(j - 1, 1))
        pj1 = RatFun.variable(p_var(j, 1))
        rows[j - 1][0] = AlgebraElement(
            sig,
            {ShiftMonomial({(1, k, 1): -1 for k in range(1, j)}): pj + 1 - pj1},
        )
        rows[j - 1][j - 1] = AlgebraElement.one(sig)
    rows[n - 1][0] = AlgebraElement(
        sig, {ShiftMonomial({(1, k, 1): -1 for k in range(1, n)}): RatFun.one()}
    )
    return rows


def check_golden_rational() -> CheckResult:
    def run():
        for name, div, expect in (
            ("toda", toda_divisor(), _expected_toda),
            ("dst", dst_divisor(), _expected_dst),
            ("heisenberg", heisenberg_divisor(), _expected_heisenberg),
        ):
            T = normalize_and_check_polynomial(build_lax(div))
            if not mat_equal(T.entries, expect(T.signature)):
                return False, f"{name} matrix differs"
        for n in (3, 4):
            div = first_example_divisor(n)
            T = normalize_and_check_polynomial(build_lax(div))
            if not mat_equal(T.entries, _expected_first_example(T.signature, n)):
                return False, f"sparse example at n={n} differs"
        return True, ""

    return _timed("golden matrices, rational", run)


def _expected_trig_case(sig, k: int):
    z = RatFun.variable(Z)
    v = RatFun.variable(V)
    wt = RatFun.variable(wh_var(1, 1))
    x1 = RatFun.variable(x_var("x1"))
    x2 = RatFun.variable(x_var("x2"))
    up = lambda c: AlgebraElement(sig, {ShiftMonomial.generator(1, 1, -1): c})
    dn = lambda c: AlgebraElement(sig, {ShiftMonomial.generator(1, 1, 1): c})
    sc = lambda f: AlgebraElement.from_ratfun(sig, f)
    t11 = sc(z * wt ** -1 - v * wt)
    t21 = dn(-v * wt)
    w_inv2 = wt ** -2
    if k == 1:
        return [[t11, up(z * wt)], [t21, sc(z * wt)]]
    if k == 2:
        return [[t11, up(z * v ** -1 * wt ** -1)], [t21, AlgebraElement.zero(sig)]]
    if k == 3:
        return [[t11, up(z * v ** -2 * wt ** -3)], [t21, sc(-(v ** -3) * wt ** -1)]]
    if k == 4:
        return [[t11, up(z * wt * (1 - v ** -1 * x1 * w_inv2))], [t21, sc(z * wt)]]
    if k == 5:
        return [
            [t11, up(z * v ** -1 * wt ** -1 * (1 - v ** -1 * x1 * w_inv2))],
            [t21, sc(v ** -3 * wt ** -1 * x1)],
        ]
    if k == 6:
        return [
            [t11, up(z * wt * (1 - v ** -1 * x1 * w_inv2) * (1 - v ** -1 * x2 * w_inv2))],
            [t21, sc(z * wt - v ** -3 * wt ** -1 * x1 * x2)],
        ]
    raise ValueError(k)


def _expected_trig_qdet(k: int) -> RatFun:
    z = RatFun.variable(Z)
    v2 = RatFun.variable(V, -2)
    x1 = RatFun.variable(x_var("x1"))
    x2 = RatFun.variable(x_var("x2"))
    return {
        1: v2 * z * z,
        2: v2 * z,
        3: v2,
        4: v2 * z * (z - x1),
        5: v2 * (z - x1),
        6: v2 * (z - x1) * (z - x2),
    }[k]


def check_golden_trig() -> CheckResult:
    def run():
        for k in range(1, 7):
            div = trig_case_divisor(k)
            T = normalize_and_check_polynomial_trig(build_lax_trig(div))
            if not mat_equal(T.entries, _expected_trig_case(T.signature, k)):
                return False, f"trig case {k} matrix differs"
            if not qdet_image(T).equals(_expected_trig_qdet(k)):
                return False, f"trig case {k} qdet differs"
        return True, ""

    return _timed("golden matrices, trigonometric", run)


# ---------------------------------------------------------------------------
# RTT battery (criterion 3)


def rtt_rational_divisors() -> List[Divisor]:
    divisors = enumerate_linear_divisors(2, 2) + enumerate_linear_divisors(3, 2)
    divisors.append(double_coroot_divisor())
    divisors.append(block_example_divisor())
    return divisors


def rtt_trig_divisors() -> List[Divisor]:
    return [trig_case_divisor(k) for k in range(1, 7)] + [trig_n3_divisor()]


def check_rtt_suite() -> CheckResult:
    def run():
        # trig (3, 2) and (4, 1) too; perfbench reads rtt_trig_divisors as it is
        wide = enumerate_linear_divisors(3, 2, "trig") + enumerate_linear_divisors(4, 1, "trig")
        for div in rtt_rational_divisors() + rtt_trig_divisors() + wide:
            rep = verify_rtt(pipeline(div.mode)[0](div))
            if not rep.ok:
                return False, f"{div.mode} divisor {div.to_json()} fails {rep.failures[:3]}"
        # finite split relations for the six linear trig cases
        for k in range(1, 7):
            T = normalize_and_check_polynomial_trig(build_lax_trig(trig_case_divisor(k)))
            tp, tm = split_finite_rtt(T)
            rep = verify_finite_rtt(tp, tm, T.signature)
            if not rep.ok:
                return False, f"finite relations fail for trig case {k}"
        return True, ""

    return _timed("exchange-relation suite", run)


def check_yang_baxter_all() -> CheckResult:
    def run():
        for variant in ("rational", "trig", "finite"):
            for n in (2, 3):
                if not check_yang_baxter(variant, n):
                    return False, f"{variant} n={n}"
        return True, ""

    return _timed("Yang-Baxter identities", run)


# ---------------------------------------------------------------------------
# polynomiality (criterion 5)


def check_polynomiality() -> CheckResult:
    def run():
        for div in (rtt_rational_divisors() + [rational_pizero_divisor()]
                    + rtt_trig_divisors() + [trig_pizero_divisor()]):
            build, normalize, _ = pipeline(div.mode)
            normalize(build(div))
        return True, ""

    return _timed("normalization yields polynomial matrices", run)


# ---------------------------------------------------------------------------
# qdet (criterion 6)


def check_qdet() -> CheckResult:
    """qdet of every suite divisor, raw and normalized, is a scalar equal
    to its closed form (qdet_image raises otherwise) that commutes with
    every entry T_ij(w); it is multiplicative under fuse in both modes."""

    def central(T) -> bool:
        q = AlgebraElement.from_ratfun(T.signature, qdet_image(T))
        at_w = (e.rename_spectral(Z, W) for row in T.entries for e in row)
        return all(q.commutator(e).is_zero() for e in at_w)

    def run():
        divisors = rtt_rational_divisors() + [rational_pizero_divisor()]
        divisors += rtt_trig_divisors() + [trig_pizero_divisor()]
        for div in divisors + enumerate_linear_divisors(3, 1, "trig"):
            build, normalize, _ = pipeline(div.mode)
            T = build(div)
            if not (central(T) and central(normalize(T))):
                return False, f"qdet of {div.to_json()} is not central"
        toda = build_lax(toda_divisor())
        t2, t3 = (normalize_and_check_polynomial_trig(build_lax_trig(trig_case_divisor(k)))
                  for k in (2, 3))
        for a, b in ((toda, toda), (t2, t3)):
            if not qdet_image(fuse(a, b)).equals(qdet_image(a) * qdet_image(b)):
                return False, f"{a.signature.mode} qdet not multiplicative under fusion"
        return True, ""

    return _timed("quantum determinants", run)


# ---------------------------------------------------------------------------
# block identities (criterion 7)


def _block(T, rows, cols):
    return [[T.entries[a - 1][b - 1] for b in cols] for a in rows]


def check_block_identities() -> CheckResult:
    def run():
        # K Kbar = -I at n = 4, r = 2
        T = build_linear_lax(block_example_divisor())
        sig = T.signature
        K = _block(T, (3, 4), (1, 2))
        Kbar = _block(T, (1, 2), (3, 4))
        prod = mat_mul(K, Kbar)
        minus_eye = [
            [
                AlgebraElement.from_ratfun(sig, -1 if a == b else 0)
                for b in range(2)
            ]
            for a in range(2)
        ]
        if not mat_equal(prod, minus_eye):
            return False, "K Kbar != -I at n=4"
        # K Kbar = -1 at n = 3, r = s = 1: the first example's
        # [[z-F, Q, Kbar], [-P, 1, 0], [K, 0, 0]] shape
        T3 = build_linear_lax(first_example_divisor(3))
        k = T3.entries[2][0]
        kbar = T3.entries[0][2]
        if not (k * kbar).equals(-1):
            return False, "K Kbar != -1 at n=3"
        # F = x1 I + QP for (r, s) in {(1,1), (2,1)}
        for r, s in ((1, 1), (2, 1)):
            n = r + s
            T = build_linear_lax(pqf_divisor(r, s))
            sig = T.signature
            z = RatFun.variable(Z)
            x1 = AlgebraElement.from_ratfun(sig, RatFun.variable(x_var("x1")))
            F = [
                [
                    AlgebraElement.from_ratfun(sig, z if a == b else 0)
                    - T.entries[a][b]
                    for b in range(r)
                ]
                for a in range(r)
            ]
            Q = [[T.entries[a][r + b] for b in range(s)] for a in range(r)]
            P = [[-T.entries[r + a][b] for b in range(r)] for a in range(s)]
            QP = mat_mul(Q, P)
            for a in range(r):
                for b in range(r):
                    want = QP[a][b] + (x1 if a == b else AlgebraElement.zero(sig))
                    if not F[a][b].equals(want):
                        return False, f"F != x1 I + QP at (r,s)=({r},{s})"
            # commutation lemma: [P_ij, Q_j'i'] = delta delta, [P,P]=[Q,Q]=0
            flat_p = [(i, j, P[i][j]) for i in range(s) for j in range(r)]
            flat_q = [(j, i, Q[j][i]) for j in range(r) for i in range(s)]
            for i, j, pe in flat_p:
                for i2, j2, pe2 in flat_p:
                    if not pe.commutator(pe2).is_zero():
                        return False, "P entries do not commute"
            for j, i, qe in flat_q:
                for j2, i2, qe2 in flat_q:
                    if not qe.commutator(qe2).is_zero():
                        return False, "Q entries do not commute"
            one = AlgebraElement.one(sig)
            for i, j, pe in flat_p:
                for j2, i2, qe in flat_q:
                    want = one if (i == i2 and j == j2) else AlgebraElement.zero(sig)
                    if not pe.commutator(qe).equals(want):
                        return False, f"[P,Q] wrong at (r,s)=({r},{s})"
        return True, ""

    return _timed("block identities", run)


# ---------------------------------------------------------------------------
# identity lemmas (criterion 8)


def _lagrange_sum(a_prev: int, a_cur: int, kind: str) -> RatFun:
    """The four summation shapes of the auxiliary lemmas; rows are encoded
    as p[1,*] (previous) and p[2,*] (current), the plain pole and the
    skipped slot at previous slot 1, the shifted pole at previous slot 2."""
    b = [Poly.variable(p_var(1, t)) for t in range(1, a_prev + 1)]
    c = [Poly.variable(p_var(2, t)) for t in range(1, a_cur + 1)]
    total = RatFun.zero()
    for ridx in range(a_cur):
        cr = c[ridx]
        num = RatFun.one()
        for t in range(a_prev):
            if kind == "full" or t != 0:
                num = num * RatFun.from_poly(cr - Poly.const(1) - b[t])
        for t in range(a_cur):
            if t != ridx:
                num = num * RatFun.ratio(Poly.const(1), cr - c[t])
        if kind == "shifted_pole":
            num = num * RatFun.ratio(Poly.const(1), Poly.const(1) + b[1] - cr)
        elif kind == "plain_pole":
            num = num * RatFun.ratio(Poly.const(1), b[0] - cr)
        total = total + num
    return total


def check_identity_lemmas() -> CheckResult:
    def run():
        one = RatFun.one()
        # first lemma sizes: previous row one longer
        for a_cur in (1, 2, 3):
            a_prev = a_cur + 1
            s1 = _lagrange_sum(a_prev, a_cur, "shifted_pole")
            if not (one + s1).is_zero():
                return False, f"shifted-pole identity fails at ({a_prev},{a_cur})"
            s2 = _lagrange_sum(a_prev, a_cur, "plain_pole")
            rhs = _aux_rhs(a_prev, a_cur)
            if not (one + s2).equals(rhs):
                return False, f"plain-pole identity fails at ({a_prev},{a_cur})"
        # second/fourth lemma sizes: previous row shorter or equal; no
        # leading 1 on the left-hand sides
        for a_prev, a_cur in ((2, 3), (3, 3), (2, 2)):
            s3 = _lagrange_sum(a_prev, a_cur, "shifted_pole")
            if not s3.is_zero():
                return False, f"homogeneous shifted-pole fails at ({a_prev},{a_cur})"
            s4 = _lagrange_sum(a_prev, a_cur, "plain_pole")
            if not s4.equals(_aux_rhs(a_prev, a_cur)):
                return False, f"homogeneous plain-pole fails at ({a_prev},{a_cur})"
        # third lemma sizes: previous row one shorter
        for a_cur in (1, 2, 3):
            a_prev = a_cur - 1
            if a_prev >= 1:
                s5 = _lagrange_sum(a_prev, a_cur, "skip")
                if not s5.is_zero():
                    return False, f"skip-row sum fails at ({a_prev},{a_cur})"
            s6 = _lagrange_sum(a_prev, a_cur, "full")
            if not s6.equals(1):
                return False, f"full-row sum fails at ({a_prev},{a_cur})"
        return True, ""

    return _timed("rational-function identity lemmas", run)


def _aux_rhs(a_prev: int, a_cur: int) -> RatFun:
    """P_{prev, 1}(p_prev_1 - 1) / P_cur(p_prev_1)."""
    b = [Poly.variable(p_var(1, t)) for t in range(1, a_prev + 1)]
    c = [Poly.variable(p_var(2, t)) for t in range(1, a_cur + 1)]
    br = b[0]
    out = RatFun.one()
    for t in range(1, a_prev):
        out = out * RatFun.from_poly(br - Poly.const(1) - b[t])
    for t in range(a_cur):
        out = out * RatFun.ratio(Poly.const(1), br - c[t])
    return out


# ---------------------------------------------------------------------------
# limits (criterion 9)


def check_limits() -> CheckResult:
    """Peel the points one at a time off every divisor of rational and
    trig (n, a_max) = (2, 2) and (3, 1) and off the two divisors with an
    index-0 point, towards infinity and, in trig mode, towards zero;
    every intermediate matrix must equal the build of its divisor."""
    def run():
        divisors = [rational_pizero_divisor(), trig_pizero_divisor()]
        for mode in ("rational", "trig"):
            for n, a_max in ((2, 2), (3, 1)):
                divisors += enumerate_linear_divisors(n, a_max, mode)
        for div in divisors:
            build = pipeline(div.mode)[0]
            limits = [normalized_limit] + ([limits_trig] if div.mode == "trig" else [])
            for limit in limits:
                T = build(div)
                while T.divisor.summands:
                    T = limit(T)
                    if not mat_equal(T.entries, build(T.divisor).entries):
                        return False, f"limit differs from the build of {T.divisor.to_json()}"
        return True, ""

    return _timed("normalized limits match rebuilt divisors", run)


# ---------------------------------------------------------------------------
# coproduct (criterion 10)


def check_coproduct() -> CheckResult:
    def run():
        toda = build_lax(toda_divisor())
        delta = coproduct(toda, build_lax(toda_divisor()))
        if not verify_rtt(delta).ok:
            return False, "fused rational matrix fails the exchange relation"
        if not coproduct_mode_contract(delta):
            return False, "fused matrix breaks the Gauss-mode contract"
        t2 = build_lax_trig(trig_case_divisor(2))
        delta_t = coproduct(t2, build_lax_trig(trig_case_divisor(3)))
        if not verify_rtt(delta_t).ok:
            return False, "fused trig matrix fails the exchange relation"
        rep = verify_coproduct_generators(toda_divisor(), toda_divisor())
        if not rep.ok:
            return False, f"n=2 generator formulas: {rep.failures()[:3]}"
        ex1 = first_example_divisor(3)
        rep = verify_coproduct_generators(ex1, ex1)
        if not rep.ok:
            return False, f"n=3 generator formulas: {rep.failures()[:3]}"
        # coassociativity at n = 2, entrywise
        a = fuse(fuse(toda, toda), toda)
        b = fuse(toda, fuse(toda, toda))
        if not mat_equal(a.entries, b.entries):
            return False, "coassociativity fails entrywise"
        return True, ""

    return _timed("coproducts", run)


# ---------------------------------------------------------------------------
# degeneration (criterion 11)


def check_degeneration() -> CheckResult:
    def run():
        for k in range(1, 7):
            degenerate_to_rational(build_lax_trig(trig_case_divisor(k)))
        return True, ""

    return _timed("trigonometric-to-rational degeneration", run)


# ---------------------------------------------------------------------------
# Gelfand-Tsetlin (criterion 12)


def check_gelfand_tsetlin() -> CheckResult:
    def run():
        for bl, n in (((1, 1), 2), ((2, 0), 2), ((2, 1, 0), 3)):
            cmp = gauge_and_compare(PseudoYoungDiagram(bl), n)
            if not cmp.ok:
                return False, f"blambda={bl}, n={n}: entries {cmp.mismatches}"
        return True, ""

    return _timed("Gelfand-Tsetlin gauge comparison", run)


# ---------------------------------------------------------------------------
# Hamiltonians (criterion 13)


def check_hamiltonians() -> CheckResult:
    def run():
        toda = build_lax(toda_divisor())
        monodromy = fuse(toda, build_lax(toda_divisor()))
        hams = commuting_hamiltonians_n2(monodromy, "eps")
        if len(hams) < 3:
            return False, "monodromy spectral combination too short"
        double = build_lax(double_coroot_divisor())
        if len(commuting_hamiltonians_n2(double, "eps")) < 3:
            return False, "double-coroot spectral combination too short"
        # the two realizations share their central image
        if not qdet_image(double).equals(qdet_image(monodromy)):
            return False, "central images differ"
        return True, ""

    return _timed("commuting Hamiltonians (n=2)", run)


# ---------------------------------------------------------------------------
# kernel property suites (criterion 14)


@functools.lru_cache(maxsize=64)
def _random_pools(mode: str, sig: Optional[AlgebraSignature]) -> tuple:
    """The variables and the atom reciprocals 1/atom that random_ratfun
    draws from, built once per (mode, signature)."""
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
    return tuple(vars_), tuple(RatFun.ratio(Poly.const(1), a) for a in atoms)


def random_ratfun(
    rng: random.Random, mode: str = "rational", sig: Optional[AlgebraSignature] = None
) -> RatFun:
    """A random rational function of the kernel property suites.  Given
    a signature, slot variables outside it (and the atoms holding them)
    are never drawn; when the signature holds every slot, the draws are
    the ones made without it."""
    vars_, recips = _random_pools(mode, sig)
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
        f = f * rng.choice(recips)
    return f


def random_element(rng: random.Random, sig: AlgebraSignature) -> AlgebraElement:
    out = AlgebraElement.zero(sig)
    for _ in range(rng.randint(1, 2)):
        coeff = random_ratfun(rng, sig.mode, sig)
        m = rng.choice([-1, 0, 0, 1])
        i = rng.randint(1, sig.n - 1)
        r = rng.randint(1, max(sig.a(i), 1))
        if m and sig.a(i):
            out = out + AlgebraElement.shift(sig, i, r, m, coeff=coeff)
        else:
            out = out + AlgebraElement.from_ratfun(sig, coeff)
    return out


def _unreduced_rewrite_is_equal() -> bool:
    """a + b against the same sum written over one more atom t, num * t /
    (den * t): equal values with different fields, so equals must run
    its exact test (sum_is_zero) to see them equal."""
    a, b, t = _random_pools("rational", None)[1]
    s = a + b
    (atom, _), = t.den.items()
    wide = RatFun(s.num * atom.poly, den_product(s.den, t.den))
    return wide.equals(s) and s.equals(wide)


def kernel_ring_axioms(cases: int = 200, seed: int = 11) -> Tuple[bool, str]:
    if not _unreduced_rewrite_is_equal():
        return False, "unreduced rewrite"
    rng = random.Random(seed)
    for idx in range(cases):
        mode = "rational" if idx % 2 == 0 else "trig"
        a, b, c = (random_ratfun(rng, mode) for _ in range(3))
        a_b = a + b
        if not (a_b + c).equals(a + (b + c)):
            return False, f"additive associativity case {idx}"
        ab = a * b
        if not a_b.equals(b + a) or not ab.equals(b * a):
            return False, f"commutativity case {idx}"
        bc = b * c
        if not (ab * c).equals(a * bc):
            return False, f"multiplicative associativity case {idx}"
        if not (a_b * c).equals(a * c + bc):
            return False, f"distributivity case {idx}"
    return True, ""


def kernel_shift_automorphism(cases: int = 200, seed: int = 12) -> Tuple[bool, str]:
    rng = random.Random(seed)
    for idx in range(cases):
        mode = "rational" if idx % 2 == 0 else "trig"
        a = random_ratfun(rng, mode)
        b = random_ratfun(rng, mode)
        m = rng.randint(-2, 2)
        m2 = rng.randint(-2, 2)
        sh = lambda f, k: f.shift_slot(mode, 1, 1, 1, k)
        sa, sb = sh(a, m), sh(b, m)
        if not sh(a * b, m).equals(sa * sb):
            return False, f"multiplicative case {idx}"
        if not sh(a + b, m).equals(sa + sb):
            return False, f"additive case {idx}"
        if not sh(sa, m2).equals(sh(a, m + m2)):
            return False, f"composition case {idx}"
    return True, ""


def kernel_gauge_automorphism(cases: int = 200, seed: int = 13) -> Tuple[bool, str]:
    rng = random.Random(seed)
    sig = AlgebraSignature(3, "rational", ((2, 1),), ("x1",))
    L1 = Poly.variable(p_var(1, 1)) - Poly.variable(x_var("x1")) + Poly.const(1)
    L2 = Poly.variable(p_var(1, 2)) - Poly.variable(p_var(2, 1)) + Poly.const(1)
    L3 = Poly.variable(p_var(1, 1)) - Poly.variable(p_var(1, 2))
    gamma = GammaGauge(((L1, 1), (L2, 1), (L3, -1)))
    mono = MonomialGauge(
        shifts=(((1, 1), Fraction(1)), ((1, 2), Fraction(1)), ((2, 1), Fraction(2))),
        signs=(((1, 1), 1), ((2, 1), 1)),
    )
    # golden: the sign twist on slot (1, 1) sends e^{q[1,1]} to -e^{q[1,1]}
    gen = AlgebraElement.shift(sig, 1, 1)
    if not mono.conjugate(gen).equals(-gen):
        return False, "golden sign case"
    for idx in range(cases):
        x = random_element(rng, sig)
        y = random_element(rng, sig)
        xy, x_y = x * y, x + y
        for g in (gamma, mono):
            gx, gy = g.conjugate(x), g.conjugate(y)
            if not g.conjugate(xy).equals(gx * gy):
                return False, f"product case {idx}"
            if not g.conjugate(x_y).equals(gx + gy):
                return False, f"sum case {idx}"
    return True, ""


def check_kernel_properties() -> CheckResult:
    def run():
        for name, fn in (
            ("ring axioms", kernel_ring_axioms),
            ("shift automorphism", kernel_shift_automorphism),
            ("gauge automorphism", kernel_gauge_automorphism),
        ):
            ok, detail = fn()
            if not ok:
                return False, f"{name}: {detail}"
        return True, ""

    return _timed("kernel property suites", run)


# ---------------------------------------------------------------------------
# the full battery


ALL_CHECKS: List[Callable[[], CheckResult]] = [
    check_golden_rational,
    check_golden_trig,
    check_rtt_suite,
    check_yang_baxter_all,
    check_polynomiality,
    check_qdet,
    check_block_identities,
    check_identity_lemmas,
    check_limits,
    check_coproduct,
    check_degeneration,
    check_gelfand_tsetlin,
    check_hamiltonians,
    check_kernel_properties,
]


def run_suite(emit: Callable[[str], None]) -> bool:
    results = []
    for fn in ALL_CHECKS:
        res = fn()
        results.append(res)
        emit(res.line())
    ok = all(r.ok for r in results)
    emit(
        f"{'ALL CHECKS PASSED' if ok else 'FAILURES PRESENT'} "
        f"({sum(r.ok for r in results)}/{len(results)})"
    )
    return ok
