"""Window calculus and ring behaviour of the Laurent series layer.

Oracle notes: product coefficients are checked against a naive convolution
written inline; inverse coefficients against closed forms (geometric series);
the integer inverse `series_inv` against `literal_inv`, the Fraction
recurrence written out term by term, and the integer division `series_div`
against `literal_div`, the product with that inverse.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toda_bo.evolve import DEFAULT_POINT
from toda_bo.scalar import ONE, ZERO
from toda_bo.series import LaurentSeries, series_div, series_inv, series_mul
from toda_bo.soliton import make_tau_minus, make_tau_plus


def poly(coeffs):
    return LaurentSeries.poly("z", {d: F(c) for d, c in coeffs.items()})


def naive_conv(a: dict, b: dict) -> dict:
    out = {}
    for d1, c1 in a.items():
        for d2, c2 in b.items():
            out[d1 + d2] = out.get(d1 + d2, F(0)) + c1 * c2
    return {d: c for d, c in out.items() if c != 0}


# #### polynomial products (tight windows) ####################################


def test_mul_difference_of_squares():
    f = poly({0: 1, 1: 1})
    g = poly({0: 1, 1: -1})
    h = f * g
    assert h.coeffs == {0: F(1), 2: F(-1)}
    assert (h.lo, h.hi, h.tight_lo, h.tight_hi) == (0, 2, True, True)


def test_mul_inverse_monomials():
    f = poly({-1: 3})
    g = poly({1: F(1, 3)})
    h = f * g
    assert h.coeffs == {0: F(1)}
    assert h.tight_lo and h.tight_hi


def test_mul_by_exact_zero():
    f = poly({})
    g = LaurentSeries("z", -5, 5, {2: F(7)})
    h = f * g
    assert not h.coeffs and h.tight_lo and h.tight_hi


@given(
    st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=6),
    st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=6),
)
@settings(max_examples=60)
def test_mul_matches_naive_convolution(da, db):
    a = {d: F(c) for d, c in da.items()}
    b = {d: F(c) for d, c in db.items()}
    h = LaurentSeries.poly("z", a) * LaurentSeries.poly("z", b)
    assert h.coeffs == naive_conv(a, b)


@given(
    st.dictionaries(st.integers(-4, 4), st.integers(-5, 5), max_size=5),
    st.dictionaries(st.integers(-4, 4), st.integers(-5, 5), max_size=5),
    st.dictionaries(st.integers(-4, 4), st.integers(-5, 5), max_size=5),
)
@settings(max_examples=40)
def test_ring_axioms_on_polynomials(da, db, dc):
    f = poly(da)
    g = poly(db)
    h = poly(dc)
    assert ((f * g) * h).coeffs == (f * (g * h)).coeffs
    assert ((f + g) * h).coeffs == (f * h + g * h).coeffs
    assert (f * g).coeffs == (g * f).coeffs


# #### window propagation ######################################################


def test_mul_onesided_by_onesided_keeps_order():
    # two power series known to order 8: product known exactly to order 8
    f = LaurentSeries("z", 0, 8, {0: ONE, 1: F(2)}, tight_lo=True)
    g = LaurentSeries("z", 0, 8, {0: ONE, 3: F(5)}, tight_lo=True)
    h = f * g
    assert (h.lo, h.hi) == (0, 8)
    assert h.tight_lo and not h.tight_hi
    assert h.coeffs == {0: F(1), 1: F(2), 3: F(5), 4: F(10)}


def test_mul_window_by_tight_poly_shrinks_both_ends():
    # untight window [-6, 6] times exact support {1, 2}: exactness region is
    # [2 - 6, 1 + 6]; support bound widens the stored window no further.
    f = LaurentSeries("z", -6, 6, {d: ONE for d in range(-6, 7)})
    g = poly({1: 1, 2: 1})
    h = f * g
    assert (h.lo, h.hi) == (-4, 7)
    assert not h.tight_lo and not h.tight_hi


def test_mul_two_untight_windows_collapse():
    f = LaurentSeries("z", -2, 2, {0: ONE})
    g = LaurentSeries("z", -2, 2, {0: ONE})
    with pytest.raises(ValueError):
        series_mul(f, g)


def test_add_intersects_known_ranges():
    f = LaurentSeries("z", -3, 5, {0: ONE}, tight_lo=True)
    g = LaurentSeries("z", -1, 9, {1: F(4)}, tight_hi=True)
    h = f + g
    assert (h.lo, h.hi) == (-1, 5)
    assert not h.tight_lo and not h.tight_hi
    assert h.coeffs == {0: F(1), 1: F(4)}


def test_add_tight_windows_take_union():
    f = poly({-2: 1})
    g = poly({3: 1})
    h = f + g
    assert (h.lo, h.hi, h.tight_lo, h.tight_hi) == (-2, 3, True, True)
    assert h.coeffs == {-2: F(1), 3: F(1)}


def test_coeff_outside_window():
    f = LaurentSeries("z", 0, 4, {1: ONE}, tight_lo=True)
    assert f.coeff(-3) == ZERO  # tight side: provably absent
    assert f.coeff(2) == ZERO  # inside window: stored zero
    with pytest.raises(IndexError):
        f.coeff(5)


def test_var_mismatch_rejected():
    with pytest.raises(ValueError):
        series_mul(poly({0: 1}), LaurentSeries.poly("w", {0: ONE}))


def test_shift_arg_scales_by_powers():
    f = poly({-1: 1, 0: 1, 2: 1})
    g = f.shift_arg(F(2))
    assert g.coeffs == {-1: F(1, 2), 0: F(1), 2: F(4)}


# #### division ################################################################


def literal_inv(t: LaurentSeries, order: int) -> LaurentSeries:
    """1/t by the Fraction recurrence c_k = -sum_j t_j c_{k-j}, one term at a
    time, for a one-sided t with unit constant term."""
    if t.coeff(0) != ONE:
        raise ValueError("constant term must be one")
    if t.tight_lo and t._pot_lo() >= 0:
        d = 1
    elif t.tight_hi and t._pot_hi() <= 0:
        d = -1
    else:
        raise ValueError("two-sided support")
    natural = t.hi if d > 0 else -t.lo
    if order > natural and not (t.tight_hi if d > 0 else t.tight_lo):
        raise ValueError("order exceeds known data")
    out = {0: ONE}
    for k in range(1, order + 1):
        acc = ZERO
        for j in range(1, k + 1):
            acc += t.coeffs.get(d * j, ZERO) * out.get(d * (k - j), ZERO)
        if acc:
            out[d * k] = -acc
    lo, hi = (0, order) if d > 0 else (-order, 0)
    return LaurentSeries(t.var, lo, hi, out, tight_lo=d > 0, tight_hi=d < 0)


def literal_div(h: LaurentSeries, t: LaurentSeries, order: int) -> LaurentSeries:
    return series_mul(h, literal_inv(t, order))


ONE_SERIES = poly({0: 1})


def test_inv_geometric_series():
    f = poly({0: 1, 1: -1})
    g = series_div(ONE_SERIES, f, 16)
    assert (g.lo, g.hi, g.tight_lo, g.tight_hi) == (0, 16, True, False)
    assert all(g.coeff(k) == ONE for k in range(17))


def test_inv_multiply_back_is_one():
    rng = random.Random(7)
    for _ in range(10):
        f = LaurentSeries.poly(
            "z", {0: ONE, **{d: F(rng.randint(-4, 4)) for d in range(1, 5)}}
        )
        g = series_div(ONE_SERIES, f, 16)
        h = f * g
        assert (h.lo, h.hi) == (0, 16)
        assert h.coeffs == {0: ONE}


def test_inv_downward_orientation():
    f = LaurentSeries.poly("z", {0: ONE, -1: F(1, 2)})
    g = series_div(ONE_SERIES, f, 12)
    assert (g.lo, g.hi, g.tight_lo, g.tight_hi) == (-12, 0, False, True)
    assert g.coeff(-3) == F(-1, 8)
    assert (f * g).coeffs == {0: ONE}


def test_inv_requires_unit_constant():
    with pytest.raises(ValueError):
        series_div(ONE_SERIES, poly({0: 2}), 0)
    with pytest.raises(ValueError):
        series_div(ONE_SERIES, poly({-1: 1, 0: 1, 1: 1}), 4)


def test_inv_order_cannot_exceed_untight_data():
    f = LaurentSeries("z", 0, 4, {0: ONE, 1: F(3)}, tight_lo=True)
    g = series_div(ONE_SERIES, f, 4)  # the natural order
    assert g.hi == 4
    with pytest.raises(ValueError):
        series_div(ONE_SERIES, f, 9)


rationals = st.builds(
    F, st.integers(-40, 40), st.sampled_from([1, 2, 3, 5, 7, 12, 2**20 + 7])
)


@st.composite
def division_cases(draw):
    """(h, t, order): t one-sided with unit constant term, in either
    orientation, exact or known only to its window; h an exact polynomial
    or a one-sided window."""
    d = draw(st.sampled_from([1, -1]))
    deg = draw(st.integers(0, 5))
    t_coeffs = {0: ONE, **{d * j: draw(rationals) for j in range(1, deg + 1)}}
    if draw(st.booleans()):
        t = LaurentSeries.poly("z", t_coeffs)
        order = draw(st.integers(0, 14))
    else:
        reach = draw(st.integers(deg, 8))
        lo, hi = (0, reach) if d > 0 else (-reach, 0)
        t = LaurentSeries("z", lo, hi, t_coeffs, tight_lo=d > 0, tight_hi=d < 0)
        order = draw(st.integers(0, reach))
    h_coeffs = draw(st.dictionaries(st.integers(-4, 4), rationals, max_size=5))
    if draw(st.booleans()):
        h = LaurentSeries.poly("z", h_coeffs)
    else:
        # a window open on the far side of either orientation
        s = draw(st.sampled_from([1, -1]))
        h = LaurentSeries("z", -4, 4, h_coeffs, tight_lo=s > 0, tight_hi=s < 0)
    return h, t, order


@given(division_cases())
@settings(max_examples=100, deadline=None)
def test_inv_integer_form_equals_literal_inverse(case):
    # series_inv's C[k] / L**k are the literal inverse's coefficients
    _, t, order = case
    expected = outcome(literal_inv, t, order)
    if expected is ValueError:
        with pytest.raises(ValueError):
            series_inv(t, order)
        return
    d, inv, lpow = series_inv(t, order)
    assert len(inv) == len(lpow) == order + 1
    assert all(type(c) is int and type(p) is int for c, p in zip(inv, lpow))
    assert {d * k: F(c, p) for k, (c, p) in enumerate(zip(inv, lpow)) if c} == (
        expected.coeffs
    )


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


@given(division_cases())
@settings(max_examples=200, deadline=None)
def test_div_equals_literal_product_with_inverse(case):
    # LaurentSeries equality covers the window, both tight flags and every
    # coefficient; a window collapse must raise on both sides
    h, t, order = case
    assert outcome(series_div, h, t, order) == outcome(literal_div, h, t, order)


@pytest.mark.parametrize(
    "t, order",
    [
        (poly({0: 2, 1: 1}), 4),
        (poly({-1: 1, 0: 1, 1: 1}), 4),
        (LaurentSeries("z", -3, 0, {0: ONE, -1: F(1, 3)}, tight_hi=True), 5),
    ],
    ids=["non-unit-constant", "two-sided", "order-past-data"],
)
def test_div_rejects_what_the_literal_inverse_rejects(t, order):
    h = poly({-1: F(2, 3), 0: 1, 2: F(-5, 7)})
    with pytest.raises(ValueError):
        literal_inv(t, order)
    with pytest.raises(ValueError):
        series_div(h, t, order)


def test_div_builds_one_fraction_per_output_degree(monkeypatch):
    # the evolve reference's traffic at W = 64: the numerator of one wave
    # over its upper tau, with a float-lifted amplitude (49-bit denominator);
    # the literal product builds several Fractions per term of each degree
    b = (F(0.5 * math.exp(0.75 * 5 / 36 * 0.37)),)
    tp = make_tau_plus(DEFAULT_POINT).to_series(b)
    tm = make_tau_minus(DEFAULT_POINT).to_series(b)
    h = tm.shift_arg(1 / DEFAULT_POINT.q) * tp.shift_arg(DEFAULT_POINT.q)
    order = 64 + 2 * -tm.lo + 2 * tp.hi + 2
    built = 0
    new = F.__new__

    def counting_new(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return new(cls, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(F, "__new__", counting_new)
        out = series_div(h, tp, order)
    assert out == literal_div(h, tp, order)
    assert 0 < built <= (out.hi - out.lo + 1) + len(h.coeffs) + len(tp.coeffs)
