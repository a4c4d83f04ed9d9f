"""Parabolic pattern layouts, generator images, and the gauge comparison."""

import pytest

from laxkit.algebra import AlgebraElement
from laxkit.coweight import PseudoYoungDiagram
from laxkit.errors import BadDiagram
from laxkit.gelfand_tsetlin import (
    gauge_and_compare,
    gauge_factors,
    gt_images,
    layout,
)
from laxkit.lax_rational import build_lax
from laxkit.ratfun import RatFun, Z, p_var, x_var


def test_layout_slot_counts():
    lay = layout(PseudoYoungDiagram((2, 1, 0)), 3)
    assert [lay.slots(i) for i in (1, 2)] == [(1,), (2,)]
    assert lay.divisor().a_vector() == (1, 1)
    # fully frozen first row
    lay2 = layout(PseudoYoungDiagram((1, 1)), 2)
    assert lay2.slots(1) == ()
    assert lay2.divisor().a_vector() == (0,)
    lay3 = layout(PseudoYoungDiagram((2, 0)), 2)
    assert lay3.slots(1) == (1,)


def test_layout_rejects_bad_diagrams():
    with pytest.raises(BadDiagram):
        layout(PseudoYoungDiagram((2, 0)), 3)  # size mismatch
    with pytest.raises(BadDiagram):
        layout(PseudoYoungDiagram((1, 0)), 2)  # size 1 != 2


def test_beta_parity_is_odd():
    for bl, n in (((2, 0), 2), ((2, 1, 0), 3), ((3, 1, 0, 0), 4), ((2, 2, 0, 0), 4)):
        lay = layout(PseudoYoungDiagram(bl), n)
        sig = lay.divisor().signature()
        rows = lay.blambda.rows
        for i in range(1, n):
            beta = (
                sig.a(i - 1)
                + sig.a(i + 1)
                + 1
                + (rows[n - i - 1] if n - i - 1 >= 0 else 0)
                + rows[n - i]
            )
            assert beta % 2 == 1, (bl, i)


def test_images_satisfy_gl_relations():
    for bl, n in (((2, 0), 2), ((2, 1, 0), 3)):
        lay = layout(PseudoYoungDiagram(bl), n)
        img = gt_images(lay)
        for i in range(1, n):
            for j in range(1, n):
                lhs = img[(i, i + 1)].commutator(img[(j + 1, j)])
                if i == j:
                    want = img[(i, i)] - img[(i + 1, i + 1)]
                    assert lhs.equals(want), (bl, i)
                else:
                    assert lhs.is_zero(), (bl, i, j)
        for i in range(1, n + 1):
            for j in range(1, n):
                lhs = img[(i, i)].commutator(img[(j, j + 1)])
                coeff = (1 if i == j else 0) - (1 if i == j + 1 else 0)
                assert lhs.equals(img[(j, j + 1)] * coeff), (bl, i, j)


def test_gauged_diagonal_closed_form():
    # after both gauges the diagonal is the explicit affine expression
    bl, n = (2, 1, 0), 3
    lay = layout(PseudoYoungDiagram(bl), n)
    div = lay.divisor()
    T = build_lax(div)
    gamma, mono = gauge_factors(lay)
    sig = T.signature
    z = RatFun.variable(Z)
    rows = lay.blambda.rows
    for i in range(1, n + 1):
        gauged = mono.conjugate(gamma.conjugate(T.entry(i, i)))
        val = z
        for r in range(1, sig.a(i - 1) + 1):
            val = val + RatFun.variable(p_var(i - 1, r))
        for r in range(1, sig.a(i) + 1):
            val = val - RatFun.variable(p_var(i, r))
        val = val + i * (rows[n - i] - 1)
        for col, h in enumerate(lay.heights):
            if n - h <= i - 1:
                val = val - RatFun.variable(x_var(lay.point_labels[col]))
        assert gauged.equals(AlgebraElement.from_ratfun(sig, val)), i


def test_gauge_and_compare_cases():
    for bl, n in (((1, 1), 2), ((2, 0), 2), ((2, 1, 0), 3)):
        cmp = gauge_and_compare(PseudoYoungDiagram(bl), n)
        assert cmp.ok, (bl, cmp.mismatches)


def test_gauge_and_compare_output_is_pinned():
    # sha256 of the gauged and expected entries of the three battery
    # cases, as rendered text; the Gamma gauge quotients are products of
    # linear forms, so this pins how they are built and reduced
    import hashlib

    from laxkit.textio import render_element

    h = hashlib.sha256()
    for bl, n in (((1, 1), 2), ((2, 0), 2), ((2, 1, 0), 3)):
        cmp = gauge_and_compare(PseudoYoungDiagram(bl), n)
        h.update(f"{bl} {n} {cmp.ok} {cmp.mismatches}\n".encode())
        for pos in sorted(cmp.gauged):
            gauged, expected = render_element(cmp.gauged[pos]), render_element(cmp.expected[pos])
            h.update(f"{pos} {gauged} | {expected}\n".encode())
    assert h.hexdigest() == "4a032d0c6b9b2cf0ea554e7d2855c9164810e97d0fe45e5d7b89424eea311057"
