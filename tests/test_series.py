"""Window calculus and ring behaviour of the Laurent series layer.

Oracle notes: product coefficients are checked against a naive convolution
written inline; inverse coefficients against closed forms (geometric series).
"""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toda_bo.scalar import ONE, ZERO
from toda_bo.series import LaurentSeries, series_inv, series_mul


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


# #### inverse #################################################################


def test_inv_geometric_series():
    f = poly({0: 1, 1: -1})
    g = series_inv(f, order=16)
    assert (g.lo, g.hi, g.tight_lo, g.tight_hi) == (0, 16, True, False)
    assert all(g.coeff(k) == ONE for k in range(17))


def test_inv_multiply_back_is_one():
    rng = random.Random(7)
    for _ in range(10):
        f = LaurentSeries.poly(
            "z", {0: ONE, **{d: F(rng.randint(-4, 4)) for d in range(1, 5)}}
        )
        g = series_inv(f, order=16)
        h = f * g
        assert (h.lo, h.hi) == (0, 16)
        assert h.coeffs == {0: ONE}


def test_inv_downward_orientation():
    f = LaurentSeries.poly("z", {0: ONE, -1: F(1, 2)})
    g = series_inv(f, order=12)
    assert (g.lo, g.hi, g.tight_lo, g.tight_hi) == (-12, 0, False, True)
    assert g.coeff(-3) == F(-1, 8)
    assert (f * g).coeffs == {0: ONE}


def test_inv_requires_unit_constant():
    with pytest.raises(ValueError):
        series_inv(poly({0: 2}))
    with pytest.raises(ValueError):
        series_inv(poly({-1: 1, 0: 1, 1: 1}), order=4)


def test_inv_order_cannot_exceed_untight_data():
    f = LaurentSeries("z", 0, 4, {0: ONE, 1: F(3)}, tight_lo=True)
    g = series_inv(f)  # natural order 4
    assert g.hi == 4
    with pytest.raises(ValueError):
        series_inv(f, order=9)
