"""Exact Laurent polynomials, the tau-ratio division and Bezout pairs.

Oracle notes: product coefficients are checked against a naive convolution
written inline; inverse coefficients against closed forms (geometric series)
and by multiplying back on the degrees where every contribution is known;
the integer long division `series_inv` with h = 1 against `literal_inv`,
the Fraction recurrence written out term by term; with any h, each pair
reduced to one Fraction, against `literal_div`, the product with that
inverse taken to an order from a generous bound of its own (the asked
degrees' and h's largest moduli), not from the reach series_inv derives,
and its pairs' denominators against the long division's H L**|e - e0|.
CPython's int / int, with which the evolve reference rounds each mode, is
checked against float() of the Fraction.  The split of the tau ratio into
one part per tau factor is checked in test_soliton.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toda_bo.scalar import (
    ONE,
    ZERO,
    PoleError,
    sample_amplitudes,
    sample_param_point,
)
from toda_bo.series import series_bezout, series_inv, series_mul
from toda_bo.soliton import make_tau_minus, make_tau_plus, tau_series


def poly(coeffs):
    return {d: F(c) for d, c in coeffs.items() if c}


def add(f, g):
    out = dict(f)
    for d, c in g.items():
        out[d] = out.get(d, ZERO) + c
    return {d: c for d, c in out.items() if c}


def subs(p, c):
    return {d: v * c**d for d, v in p.items()}


def naive_conv(a: dict, b: dict) -> dict:
    out = {}
    for d1, c1 in a.items():
        for d2, c2 in b.items():
            out[d1 + d2] = out.get(d1 + d2, F(0)) + c1 * c2
    return {d: c for d, c in out.items() if c != 0}


# #### products ################################################################


def test_mul_difference_of_squares():
    assert series_mul(poly({0: 1, 1: 1}), poly({0: 1, 1: -1})) == {0: F(1), 2: F(-1)}


def test_mul_inverse_monomials():
    assert series_mul(poly({-1: 3}), poly({1: F(1, 3)})) == {0: F(1)}


def test_mul_by_exact_zero():
    assert series_mul({}, poly({2: 7})) == {}
    assert series_mul(poly({-1: 2, 3: 5}), {}) == {}


@given(
    st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=6),
    st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=6),
)
@settings(max_examples=60)
def test_mul_matches_naive_convolution(da, db):
    a, b = poly(da), poly(db)
    assert series_mul(a, b) == naive_conv(a, b)


@given(
    st.dictionaries(st.integers(-4, 4), st.integers(-5, 5), max_size=5),
    st.dictionaries(st.integers(-4, 4), st.integers(-5, 5), max_size=5),
    st.dictionaries(st.integers(-4, 4), st.integers(-5, 5), max_size=5),
)
@settings(max_examples=40)
def test_ring_axioms_on_polynomials(da, db, dc):
    f, g, h = poly(da), poly(db), poly(dc)
    assert series_mul(series_mul(f, g), h) == series_mul(f, series_mul(g, h))
    assert series_mul(add(f, g), h) == add(series_mul(f, h), series_mul(g, h))
    assert series_mul(f, g) == series_mul(g, f)


# #### division ################################################################


def literal_inv(t: dict, order: int) -> dict:
    """1/t by the Fraction recurrence c_k = -sum_j t_j c_{k-j}, one term at a
    time, for a one-sided t with unit constant term."""
    if t.get(0) != ONE:
        raise ValueError("constant term must be one")
    if min(t) >= 0:
        d = 1
    elif max(t) <= 0:
        d = -1
    else:
        raise ValueError("two-sided support")
    out = {0: ONE}
    for k in range(1, order + 1):
        acc = ZERO
        for j in range(1, k + 1):
            acc += t.get(d * j, ZERO) * out.get(d * (k - j), ZERO)
        if acc:
            out[d * k] = -acc
    return out


def literal_div(h: dict, t: dict, lo: int, hi: int) -> dict:
    """The degrees lo..hi of h times the literal inverse.  A degree e of the
    product takes inverse indices |e - d1| <= |e| + |d1|, so an inverse to
    the largest |lo|, |hi| plus h's largest |degree| completes every one."""
    order = max(abs(lo), abs(hi)) + max(map(abs, h), default=0) + 2
    prod = naive_conv(h, literal_inv(t, order))
    return {e: c for e, c in prod.items() if lo <= e <= hi}


def inv(h: dict, t: dict, lo: int, hi: int) -> dict:
    """series_inv with each pair reduced to one Fraction."""
    return {e: F(n, m) for e, (n, m) in series_inv(h, t, lo, hi).items()}


ONE_SERIES = poly({0: 1})


def test_inv_geometric_series():
    f = poly({0: 1, 1: -1})
    assert inv(ONE_SERIES, f, 0, 16) == {k: ONE for k in range(17)}
    # an upward inverse has no degree below h's lowest
    assert inv(ONE_SERIES, f, -5, 3) == {k: ONE for k in range(4)}
    assert inv(poly({2: 1}), f, -5, 1) == {}


def test_inv_multiply_back_is_one():
    # f * (1/f) on degrees 0..16: each takes 1/f at 0..16 and nothing else
    rng = random.Random(7)
    for _ in range(10):
        f = {0: ONE, **poly({d: rng.randint(-4, 4) for d in range(1, 5)})}
        g = inv(ONE_SERIES, f, 0, 16)
        prod = series_mul(f, g)
        assert {e: c for e, c in prod.items() if e <= 16} == {0: ONE}


def test_inv_downward_orientation():
    f = poly({0: 1, -1: F(1, 2)})
    g = inv(ONE_SERIES, f, -12, 0)
    assert g == {-k: F(-1, 2) ** k for k in range(13)}
    assert g[-3] == F(-1, 8)
    prod = series_mul(f, g)
    assert {e: c for e, c in prod.items() if e >= -12} == {0: ONE}


def test_inv_requires_unit_constant():
    with pytest.raises(ValueError):
        series_inv(ONE_SERIES, poly({0: 2}), 0, 0)
    with pytest.raises(ValueError):
        series_inv(ONE_SERIES, poly({-1: 1, 0: 1, 1: 1}), -4, 4)


rationals = st.builds(
    F, st.integers(-40, 40), st.sampled_from([1, 2, 3, 5, 7, 12, 2**20 + 7])
)


@st.composite
def division_cases(draw):
    """(h, t, lo, hi): t one-sided with unit constant term in either
    orientation, h any Laurent polynomial, lo..hi any range around it
    (possibly empty, possibly off h's reach)."""
    d = draw(st.sampled_from([1, -1]))
    deg = draw(st.integers(0, 5))
    t = {0: ONE, **poly({d * j: draw(rationals) for j in range(1, deg + 1)})}
    h = poly(draw(st.dictionaries(st.integers(-4, 4), rationals, max_size=5)))
    lo = draw(st.integers(-14, 10))
    hi = draw(st.integers(lo - 1, 14))
    return h, t, lo, hi


def side(t: dict) -> int:
    return 1 if min(t) >= 0 else -1


@given(division_cases())
@settings(max_examples=100, deadline=None)
def test_inv_integer_form_equals_literal_inverse(case):
    # with h = 1, series_inv's pairs are the literal inverse's coefficients,
    # on t's side of degree 0 and no farther than asked
    _, t, lo, hi = case
    order = hi - lo + 1
    d = side(t)
    out = series_inv(ONE_SERIES, t, min(0, d * order), max(0, d * order))
    assert all(0 <= d * e <= order for e in out)
    assert all(type(n) is int and type(m) is int for n, m in out.values())
    assert {e: F(n, m) for e, (n, m) in out.items()} == literal_inv(t, order)


@given(division_cases())
@settings(max_examples=100, deadline=None)
def test_inv_pairs_are_the_literal_division_over_the_long_division_denominator(case):
    # degree e is one (int, int) pair over H L**|e - e0|: H the lcm of h's
    # denominators, L that of t's terms the asked degrees reach, e0 h's end
    # against t's side
    h, t, lo, hi = case
    out = series_inv(h, t, lo, hi)
    assert {e: F(n, m) for e, (n, m) in out.items()} == literal_div(h, t, lo, hi)
    assert all(type(n) is int and type(m) is int for n, m in out.values())
    if not out:
        return
    d = side(t)
    e0 = min(h) if d == 1 else max(h)
    reach = hi - e0 if d == 1 else e0 - lo
    H = math.lcm(*(c.denominator for c in h.values()))
    L = math.lcm(*(t.get(d * j, ONE).denominator for j in range(1, reach + 1)))
    assert all(m == H * L ** abs(e - e0) for e, (_, m) in out.items())


@given(division_cases())
@settings(max_examples=200, deadline=None)
def test_div_equals_literal_product_with_inverse(case):
    # every asked degree, exactly, and nothing outside lo..hi or zero
    h, t, lo, hi = case
    out = inv(h, t, lo, hi)
    assert out == literal_div(h, t, lo, hi)
    assert all(lo <= e <= hi and c for e, c in out.items())


@pytest.mark.parametrize(
    "t",
    [poly({0: 2, 1: 1}), poly({-1: 1, 0: 1, 1: 1}), poly({1: 1})],
    ids=["non-unit-constant", "two-sided", "no-constant"],
)
def test_div_rejects_what_the_literal_inverse_rejects(t):
    h = poly({-1: F(2, 3), 0: 1, 2: F(-5, 7)})
    with pytest.raises(ValueError):
        literal_inv(t, 4)
    with pytest.raises(ValueError):
        series_inv(h, t, -4, 4)


@given(
    st.integers(-(2**4000), 2**4000),
    st.integers(-(2**4000), 2**4000).filter(bool),
)
@settings(max_examples=200, deadline=None)
def test_int_true_division_is_the_fraction_rounding(n, d):
    # CPython rounds int / int correctly, so the unreduced pair gives the
    # double of the reduced one; both overflow together
    try:
        want = float(F(n, d))
    except OverflowError:
        with pytest.raises(OverflowError):
            n / d
        return
    assert n / d == want
    if n:
        assert repr(n / d) == repr(want)


@given(
    st.integers(1, 2**4000),
    st.integers(-(2**60), 2**60),
    st.integers(0, 2**4000),
)
@settings(max_examples=200, deadline=None)
def test_int_true_division_rounds_near_ties_like_the_fraction(d, k, r):
    # quotients k + r/d straddle the 53-bit mantissa, and r = d/2 is a tie
    n = k * d + (d // 2 if r % 3 == 0 else r % d)
    assert repr(n / d) == repr(float(F(n, d)))


# #### Bezout pairs ############################################################


def deg(p: dict) -> int:
    return max(p, default=-1)


def resultant(f: dict, g: dict) -> F:
    """Determinant of the Sylvester matrix of nonzero polynomials f, g, by
    Gaussian elimination: zero exactly when they share a root."""
    m, n = deg(f), deg(g)
    fc = [f.get(m - k, ZERO) for k in range(m + 1)]
    gc = [g.get(n - k, ZERO) for k in range(n + 1)]
    rows = [[ZERO] * i + fc + [ZERO] * (n - 1 - i) for i in range(n)]
    rows += [[ZERO] * i + gc + [ZERO] * (m - 1 - i) for i in range(m)]
    det = ONE
    for col in range(m + n):
        pivot = next((r for r in range(col, m + n) if rows[r][col]), None)
        if pivot is None:
            return ZERO
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, m + n):
            ratio = rows[r][col] / rows[col][col]
            rows[r] = [x - ratio * y for x, y in zip(rows[r], rows[col])]
    return det


@st.composite
def polynomials(draw, lowest_degree=0):
    """A polynomial of degree lowest_degree..4, nonzero leading coefficient."""
    top = draw(st.integers(lowest_degree, 4))
    p = poly({d: draw(rationals) for d in range(top)})
    p[top] = draw(rationals.filter(bool))
    return p


def assert_bezout_pair(f, g):
    u, v = series_bezout(f, g)
    assert add(series_mul(u, f), series_mul(v, g)) == {0: ONE}
    if deg(f) == deg(g) == 0:
        assert (u, v) == ({}, {0: 1 / g[0]})
    else:
        # the bounds make the pair unique, so any route to it gives its bytes
        assert deg(u) < deg(g) and deg(v) < deg(f)


@given(polynomials(), polynomials())
@settings(max_examples=200, deadline=None)
def test_bezout_pair_of_coprime_polynomials(f, g):
    assume(resultant(f, g) != 0)
    assert_bezout_pair(f, g)


@given(st.integers(1, 3), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_bezout_pair_of_sampled_tau_factors(n, seed):
    # the pair the tau ratio splits: z**n tau_-(z) and tau_+(z)
    rng = random.Random(seed)
    params = sample_param_point(rng, n)
    b = sample_amplitudes(rng, n)
    tm = tau_series(make_tau_minus(params), b)
    tp = tau_series(make_tau_plus(params), b)
    f = {d - min(tm): c for d, c in tm.items()}
    assume(resultant(f, tp) != 0)
    assert_bezout_pair(f, tp)


@given(polynomials(), polynomials(), polynomials(lowest_degree=1))
@settings(max_examples=100, deadline=None)
def test_bezout_rejects_a_shared_root(f, g, common):
    with pytest.raises(PoleError, match="share a root"):
        series_bezout(series_mul(f, common), series_mul(g, common))
