"""Acceptance criteria, one test per criterion.

Every check is exact (arbitrary-precision rationals; tolerance zero).
Each test prints a PASS/FAIL line; runtime budgets from the statement of
the criteria are enforced where given.
"""

import pytest

from laxkit import algebra, ratfun, suite
from laxkit.algebra import AlgebraElement, MonomialGauge
from laxkit.ratfun import RatFun


def _run(check, budget=None):
    res = check()
    print(res.line())
    assert res.ok, res.detail
    if budget is not None:
        assert res.seconds < budget, f"{res.name} exceeded {budget}s budget"
    return res


def test_criterion_01_golden_rational():
    """Exact reproduction of the three n=2 matrices and the sparse example
    at n = 3, 4 (< 10 s)."""
    _run(suite.check_golden_rational, budget=10)


def test_criterion_02_golden_trig():
    """Exact reproduction of the six n=2 trig matrices and their quantum
    determinants (< 10 s)."""
    _run(suite.check_golden_trig, budget=10)


def test_criterion_03_rtt_suite():
    """Exchange relation for every acceptance divisor: all rational linear
    cases with slot counts <= 2 at n = 2, 3, the double-coroot divisor, the
    n=4 block divisor, the six trig cases and an n=3 trig case (< 5 min)."""
    _run(suite.check_rtt_suite, budget=300)


def test_criterion_04_yang_baxter():
    """Rational, trigonometric and constant R-matrices satisfy the triple
    identity exactly at n = 2, 3 (< 30 s)."""
    _run(suite.check_yang_baxter_all, budget=30)


def test_criterion_05_polynomiality():
    """Normalization yields z-polynomial entries on every acceptance
    divisor, including index-0 points in both modes."""
    _run(suite.check_polynomiality)


def test_criterion_06_qdet():
    """Quantum determinants are scalar, match their closed forms, and are
    multiplicative under fusion."""
    _run(suite.check_qdet)


def test_criterion_07_block_identities():
    """K Kbar = -I (n=4 and n=3 block shapes), F = x1 I + QP at
    (r,s) = (1,1), (2,1), and the oscillator commutators."""
    _run(suite.check_block_identities)


def test_criterion_08_identity_lemmas():
    """The six summation identities hold as exact rational-function
    identities for all admissible sizes with current row <= 3."""
    _run(suite.check_identity_lemmas)


def test_criterion_09_limits():
    """Peeling the points off every divisor of rational and trig (2,2) and
    (3,1) and the two index-0 divisors, one whole point at a time (in trig
    towards both ends), reproduces the build of each divisor on the way."""
    _run(suite.check_limits)


def test_criterion_10_coproduct():
    """Fused matrices pass the exchange relation and the Gauss-mode
    contract; generator-level coproduct formulas hold at n = 2 and n = 3;
    coassociativity holds entrywise (< 5 min)."""
    _run(suite.check_coproduct, budget=300)


def test_criterion_11_degeneration():
    """All six trig matrices degenerate to the rational builder's output
    on the merged divisor with no negative deformation powers."""
    _run(suite.check_degeneration)


def test_criterion_12_gelfand_tsetlin():
    """Gauge comparison passes at (n=2, (1,1)), (n=2, (2,0)) and
    (n=3, (2,1,0)); exact tridiagonal equality."""
    _run(suite.check_gelfand_tsetlin)


def test_criterion_13_hamiltonians():
    """Spectral-combination coefficients pairwise commute for the fused
    double chain and the double-coroot divisor, symbolic coupling
    (< 60 s)."""
    _run(suite.check_hamiltonians, budget=60)


def test_criterion_14_kernel_properties():
    """Ring-axiom, shift-automorphism and gauge-automorphism suites, 200
    randomized cases each, exact arithmetic."""
    _run(suite.check_kernel_properties)



# ---------------------------------------------------------------------------
# negative controls of criterion 14: one kernel operation broken per family

_SHIFT_SLOT = RatFun.shift_slot
_GAMMA_QUOTIENT = algebra._gamma_quotient
_MONOMIAL_CONJUGATE = MonomialGauge.conjugate


def _den_product_by_max(a, b):
    # an atom both factors hold keeps the larger multiplicity, not the sum
    out = dict(a)
    for atom, m in b.items():
        out[atom] = max(out.get(atom, 0), m)
    return out


def _sign_dropped(gauge, elem):
    # the translation alone: still an automorphism, so only the golden
    # conjugation of e^{q[1,1]} sees it
    return _MONOMIAL_CONJUGATE(MonomialGauge(gauge.shifts), elem)


def _field_equality(self, other):
    # equal only when the numerator terms and atom multisets agree
    other = ratfun.as_ratfun(other)
    return self.num.terms == other.num.terms and self.den == other.den


def _sign_on_forward_shifts_only(gauge, elem):
    # the sign twist lands on e^{q} but not on e^{-q}
    out = _MONOMIAL_CONJUGATE(MonomialGauge(gauge.shifts), elem)
    signed = {slot for slot, k in gauge.signs if k % 2}

    def flips(s):
        return sum(m > 0 for (_, i, r), m in s.exps.items() if (i, r) in signed) % 2

    return AlgebraElement(elem.signature,
                          {s: -c if flips(s) else c for s, c in out.terms.items()})


@pytest.mark.parametrize("family, owner, name, broken, detail", [
    (suite.kernel_ring_axioms, ratfun, "den_product", _den_product_by_max,
     "distributivity case 3"),
    (suite.kernel_shift_automorphism, RatFun, "shift_slot",
     lambda f, mode, slot, i, r, m: _SHIFT_SLOT(f, mode, slot, i, r, m + 1),
     "composition case 2"),
    (suite.kernel_gauge_automorphism, MonomialGauge, "conjugate",
     _sign_on_forward_shifts_only, "product case 2"),
    (suite.kernel_gauge_automorphism, algebra, "_gamma_quotient",
     lambda L, k, e: _GAMMA_QUOTIENT(L, k + 1, e), "product case 0"),
    (suite.kernel_gauge_automorphism, MonomialGauge, "conjugate", _sign_dropped,
     "golden sign case"),
    (suite.kernel_ring_axioms, RatFun, "equals", _field_equality, "unreduced rewrite"),
], ids=["ring-den-max", "shift-off-by-one", "gauge-sign-forward", "gamma-off-by-one",
        "gauge-sign-dropped", "ring-field-equality"])
def test_kernel_families_catch_a_sabotaged_operation(monkeypatch, family, owner, name,
                                                     broken, detail):
    """With one kernel operation broken (atom multiplicities of a product
    by max, an off-by-one slot shift, the monomial gauge's sign on
    forward shifts only or dropped, an off-by-one Gamma functional
    equation, equality by fields alone), each family fails: a random
    case at the index it failed at before its repeated subexpressions
    were shared, or one of the fixed cases."""
    monkeypatch.setattr(owner, name, broken)
    assert family() == (False, detail)
