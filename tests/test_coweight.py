"""Coweight lattice, diagrams, divisors, admissibility."""

import json
import random

import pytest

from laxkit.coweight import (
    Coweight,
    Divisor,
    PseudoYoungDiagram,
    convert_basis,
    divisor_from_young,
    fundamental_coweight,
    simple_coroot,
)
from laxkit.errors import BadDiagram, NotAdmissible, SizeMismatch


def test_basis_examples():
    assert fundamental_coweight(2, 1).d == (0, -1)
    assert Coweight.from_fundamental([-1, 2]).d == (1, -1)
    assert simple_coroot(2, 1).d == (1, -1)
    assert PseudoYoungDiagram((2, 0)).coweight().d == (0, -2)
    assert convert_basis([0, 1], 2, "epsilon") == (0, -1)
    assert convert_basis([0, -1], 2, "fundamental") == (0, 1)


def test_basis_roundtrip():
    rng = random.Random(4)
    for _ in range(100):
        n = rng.randint(2, 6)
        c = [rng.randint(-4, 4) for _ in range(n)]
        assert list(Coweight.from_fundamental(c).to_fundamental()) == c
        d = [rng.randint(-4, 4) for _ in range(n)]
        cw = Coweight.from_epsilon(d)
        assert Coweight.from_fundamental(cw.to_fundamental()) == cw


def test_dominance():
    assert fundamental_coweight(2, 1).is_dominant()
    assert not (-simple_coroot(2, 1)).is_dominant()
    assert fundamental_coweight(5, 0).is_dominant()  # constant entries


def test_a_vector_examples():
    assert Divisor.make(2, "rational", [], 3 * simple_coroot(2, 1)).a_vector() == (3,)
    d = divisor_from_young(
        PseudoYoungDiagram((0, 0, 0, 0)), [], PseudoYoungDiagram((1, 1, -1, -1))
    )
    assert d.a_vector() == (1, 2, 1)


def test_a_vector_closed_form():
    rng = random.Random(6)
    hits = 0
    for _ in range(600):
        n = rng.randint(2, 5)
        bl = tuple(sorted((rng.randint(0, 3) for _ in range(n)), reverse=True))
        bm = tuple(sorted((rng.randint(-3, 3) for _ in range(n)), reverse=True))
        if sum(bl) + sum(bm) != 0:
            continue
        try:
            div = divisor_from_young(
                PseudoYoungDiagram(bl),
                [f"x{i}" for i in range(bl[0])],
                PseudoYoungDiagram(bm),
            )
        except NotAdmissible:
            # closed form must then produce a negative entry
            a = [-sum(bl[j] + bm[j] for j in range(n - i, n)) for i in range(1, n)]
            assert any(x < 0 for x in a)
            continue
        hits += 1
        a = div.a_vector()
        for i in range(1, n):
            assert a[i - 1] == -sum(bl[j] + bm[j] for j in range(n - i, n))
        full = (0,) + a + (0,)
        for j in range(1, n + 1):
            assert full[j] - full[j - 1] == -bl[n - j] - bm[n - j]
    assert hits > 20


def test_divisor_from_young_examples():
    d = divisor_from_young(
        PseudoYoungDiagram((1, 0)), ["x1"], PseudoYoungDiagram((0, -1))
    )
    assert d.mu.to_fundamental() == (-1, 1)
    assert d.summands == (("x1", fundamental_coweight(2, 1)),)

    d2 = divisor_from_young(
        PseudoYoungDiagram((0, 0)), [], PseudoYoungDiagram((1, -1))
    )
    assert d2.mu == simple_coroot(2, 1)
    assert d2.a_vector() == (1,)

    d4 = divisor_from_young(
        PseudoYoungDiagram((1, 0, 0, 0)), ["x1"], PseudoYoungDiagram((0, 0, 0, -1))
    )
    assert d4.summands == (("x1", fundamental_coweight(4, 3)),)  # column of height 1
    assert d4.mu.to_fundamental() == (-1, 1, 0, 0)


def test_divisor_errors():
    with pytest.raises(NotAdmissible):
        Divisor.make(2, "rational", [], Coweight.from_epsilon([1, 1]))
    with pytest.raises(SizeMismatch):
        divisor_from_young(
            PseudoYoungDiagram((1, 0)), ["x1"], PseudoYoungDiagram((0, 0))
        )
    with pytest.raises(SizeMismatch):
        divisor_from_young(
            PseudoYoungDiagram((1, 0)), [], PseudoYoungDiagram((0, -1))
        )
    with pytest.raises(BadDiagram):
        PseudoYoungDiagram((0, 1))


def test_divisor_size_is_bounded():
    # the fundamental coefficients at the finite points sum (in absolute
    # value) to less than HALF = 2^15, and so does each slot count: past
    # that a diagonal Gauss entry's z-degree could not be stored, so the
    # divisor is refused when it is made
    from laxkit.coweight import MAX_SUMMANDS

    def divisor(point, infinity):
        points = [{"x": "x1", "coweight": {"fundamental": point}}] if point else []
        return Divisor.from_json({"n": 2, "mode": "rational", "points": points,
                                  "infinity": {"fundamental": infinity}})

    k = MAX_SUMMANDS
    assert divisor([k, 0], [-k, 0]).summands == (("x1", Coweight.from_fundamental([k, 0])),)
    assert divisor(None, [-k, 2 * k]).a_vector() == (k,)
    for point, infinity in (([k + 1, 0], [-k - 1, 0]), ([k, 1], [-k, -1]),
                            ([2 ** 40, 1], [-1, 0]), (None, [-k - 1, 2 * k + 2])):
        with pytest.raises(NotAdmissible, match=str(k)):
            divisor(point, infinity)


def test_build_degree_is_bounded():
    # a divisor inside MAX_SUMMANDS is made, but builds take at most
    # MAX_BUILD_DEGREE fundamental coweights at the finite points
    from laxkit.coweight import MAX_BUILD_DEGREE

    def divisor(k):
        return Divisor.from_json({"n": 2, "mode": "rational",
                                  "points": [{"x": "x1", "coweight": {"fundamental": [k, 1]}}],
                                  "infinity": {"fundamental": [-k, -1]}})

    k = MAX_BUILD_DEGREE - 1
    assert divisor(k).degree() == MAX_BUILD_DEGREE
    divisor(k).check_build_degree()
    with pytest.raises(NotAdmissible, match=f"{MAX_BUILD_DEGREE + 1} fundamental"):
        divisor(k + 1).check_build_degree()


def test_slot_counts_are_bounded():
    # builds take at most MAX_SLOTS slots in a row, and every divisor of
    # the suite's families holds at most 2
    from laxkit.coweight import MAX_SLOTS
    from laxkit.suite import enumerate_linear_divisors

    def divisor(a):
        return Divisor.from_json({"n": 2, "mode": "rational", "points": [],
                                  "infinity": {"fundamental": [-a, 2 * a]}})

    assert divisor(MAX_SLOTS).a_vector() == (MAX_SLOTS,)
    divisor(MAX_SLOTS).check_build_degree()
    with pytest.raises(NotAdmissible, match=f"at most {MAX_SLOTS} slots"):
        divisor(MAX_SLOTS + 1).check_build_degree()
    families = [div for mode in ("rational", "trig")
                for n, a_max in ((2, 2), (3, 2), (4, 2), (5, 2))
                for div in enumerate_linear_divisors(n, a_max, mode)]
    assert max(max(div.a_vector()) for div in families) == 2


def test_integrality_condition_matches_admissibility():
    rng = random.Random(14)
    for _ in range(150):
        n = rng.randint(2, 4)
        d = [rng.randint(-2, 2) for _ in range(n)]
        total = Coweight.from_epsilon(d)
        partial = 0
        ok = True
        for j in range(n):
            partial += d[j]
            if j < n - 1 and partial < 0:
                ok = False
        if partial != 0:
            ok = False
        try:
            Divisor.make(n, "rational", [], total)
            assert ok
        except NotAdmissible:
            assert not ok


def test_json_roundtrip():
    d = divisor_from_young(
        PseudoYoungDiagram((1, 0)), ["x1"], PseudoYoungDiagram((0, -1))
    )
    blob = json.dumps(d.to_json())
    assert Divisor.from_json(json.loads(blob)) == d
    # numeric points become exact rationals
    d2 = Divisor.make(
        2,
        "rational",
        [("3/2", fundamental_coweight(2, 1))],
        Coweight.from_fundamental([-1, 1]),
    )
    blob2 = json.dumps(d2.to_json())
    d3 = Divisor.from_json(json.loads(blob2))
    from fractions import Fraction

    assert d3.summands == ((Fraction(3, 2), fundamental_coweight(2, 1)),)
    # make reads the label "3/2" as from_json does, so the round trip holds
    assert Divisor.from_json(d2.to_json()) == d2


def test_trig_divisor_framings():
    d = divisor_from_young(
        PseudoYoungDiagram((0, 0)),
        [],
        PseudoYoungDiagram((-1, -1)),
        PseudoYoungDiagram((2, 0)),
        mode="trig",
    )
    assert d.mu_zero is not None
    assert d.a_vector() == (1,)
    assert d.merge_framings_at_infinity().mu == simple_coroot(2, 1)


def test_move_last_point_moves_its_whole_coweight():
    lam = Coweight.from_fundamental([1, 1])
    y = fundamental_coweight(2, 1)
    mu = simple_coroot(2, 1) - lam - y
    rat = Divisor.make(2, "rational", [("y", y), ("x", lam)], mu)
    assert rat.last_point() == "x"
    assert rat.point_coweight("x") == lam and rat.point_coweight("y") == y
    moved = rat.move_last_point("infinity")
    assert moved == Divisor.make(2, "rational", [("y", y)], mu + lam)
    assert moved.a_vector() == rat.a_vector()
    with pytest.raises(NotAdmissible, match="only degenerate at infinity"):
        rat.move_last_point("zero")
    trig = Divisor.make(2, "trig", [("y", y), ("x", lam)], mu, Coweight.zero(2))
    assert trig.move_last_point("zero") == Divisor.make(2, "trig", [("y", y)], mu, lam)
    empty = Divisor.make(2, "trig", [], simple_coroot(2, 1))
    with pytest.raises(NotAdmissible, match="no finite points"):
        empty.move_last_point("infinity")


def test_each_point_carries_one_nonzero_dominant_coweight():
    w0, w1 = fundamental_coweight(2, 0), fundamental_coweight(2, 1)
    mu = simple_coroot(2, 1) - 2 * w1 - w0
    # a point listed twice holds the sum, at its first place; a zero
    # coweight leaves its point out
    d = Divisor.make(2, "rational", [("x", w1), ("y", w0), ("t", Coweight.zero(2)), ("x", w1)], mu)
    assert d.summands == (("x", 2 * w1), ("y", w0))
    assert d.last_point() == "y" and d.signature().points == ("x", "y")
    with pytest.raises(NotAdmissible, match="non-dominant"):
        Divisor.make(2, "rational", [("x", -w1)], simple_coroot(2, 1) + w1)
    for lam in (Coweight.zero(2), -w1):
        with pytest.raises(NotAdmissible, match="nonzero and dominant"):
            Divisor(2, "rational", (("x", lam),), simple_coroot(2, 1) - lam)
    with pytest.raises(ValueError, match="twice"):
        Divisor(2, "rational", (("x", w1), ("x", w1)), mu + w0)


def test_a_point_label_balances_its_brackets():
    # a label is read back from x[label] up to the ] that balances its
    # brackets, so the constructor and make refuse any other label
    w1 = fundamental_coweight(2, 1)
    mu = simple_coroot(2, 1) - w1
    for label in ("x[", "x]", "]x[", "[[a]", "a]["):
        with pytest.raises(NotAdmissible, match="unbalanced brackets"):
            Divisor(2, "rational", ((label, w1),), mu)
        with pytest.raises(NotAdmissible, match="unbalanced brackets"):
            Divisor.make(2, "trig", [(label, w1)], mu)
    for label in ("x[]", "[x]", "a[b[c]]d", "x"):
        assert Divisor.make(2, "rational", [(label, w1)], mu).signature().points == (label,)
