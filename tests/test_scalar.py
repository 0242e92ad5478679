from __future__ import annotations

import dataclasses
import decimal
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from toda_bo.iom import I_k_def, closed_I, closed_M, mode_table
from toda_bo.modes import AlphaPoly, ModeContext, ModeTrunc
from toda_bo.scalar import (
    GUARD_RANGE,
    ONE,
    ParamError,
    ParamPoint,
    PoleError,
    ZERO,
    newton_p_from_e,
    q_pochhammer,
    parse_scalar,
    sample_amplitudes,
    sample_param_point,
    sample_shift_amount,
    scalar_decimal,
    scalar_str,
)

F = Fraction

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=40
)


# #########################################################################
# rendering and parsing
# #########################################################################

@pytest.mark.parametrize(
    "x, text",
    [
        (F(0), "0/1"),
        (F(3), "3/1"),
        (F(-3, 7), "-3/7"),
        (F(6, 4), "3/2"),
    ],
)
def test_scalar_str(x, text):
    assert scalar_str(x) == text


@given(rationals)
def test_scalar_str_round_trip(x):
    assert parse_scalar(scalar_str(x)) == x


@given(rationals)
def test_scalar_str_normalized_oracle(x):
    # independent normalization oracle: gcd-reduced pair
    import math

    p, q = x.numerator, x.denominator
    g = math.gcd(abs(p), q)
    assert scalar_str(x) == f"{p // g}/{q // g}"


def _long_division_digits(x: Fraction, digits: int) -> str:
    """Independent decimal oracle: integer long division, round half even."""
    assert x > 0
    p, q = x.numerator, x.denominator
    # find adjusted exponent e with 10**e <= x < 10**(e+1)
    e = 0
    while p < q:
        p *= 10
        e -= 1
    while p >= 10 * q:
        q *= 10
        e += 1
    # now want round(x / 10**(e+1-digits)) by half-even
    num, den = x.numerator, x.denominator
    shift = digits - 1 - e
    if shift >= 0:
        num *= 10**shift
    else:
        den *= 10 ** (-shift)
    whole, rem = divmod(num, den)
    if 2 * rem > den or (2 * rem == den and whole % 2 == 1):
        whole += 1
    return str(whole)


@pytest.mark.parametrize(
    "x",
    [
        F(1, 3),
        F(2, 3),
        F(22, 7),
        F(1, 7),
        F(355, 113),
        F(10**40 + 1, 3**30),
        F(1, 10**35),
    ],
)
def test_scalar_decimal_long_division_oracle(x):
    rendered = scalar_decimal(x)
    got = decimal.Decimal(rendered)
    mantissa = "".join(map(str, got.as_tuple().digits)).rstrip("0") or "0"
    want = _long_division_digits(x, 30).rstrip("0") or "0"
    assert mantissa == want


@given(rationals.filter(lambda x: x != 0))
def test_scalar_decimal_relative_error(x):
    d = decimal.Decimal(scalar_decimal(x))
    back = Fraction(d)
    ulp = Fraction(10) ** (d.adjusted() - 29)
    assert abs(back - x) <= ulp / 2


def test_scalar_decimal_exact_small():
    assert scalar_decimal(F(1, 2)) == "0.5"
    assert scalar_decimal(F(-7, 4)) == "-1.75"
    assert scalar_decimal(F(0)) == "0"


# #########################################################################
# Newton identities, against the determinant form
# #########################################################################

def det_cofactor(rows: list):
    """Determinant by first-column cofactor expansion; division-free."""
    if len(rows) == 1:
        return rows[0][0]
    total = None
    for i, row in enumerate(rows):
        minor = [r[1:] for j, r in enumerate(rows) if j != i]
        term = row[0] * det_cofactor(minor)
        if i % 2:
            term = -term
        total = term if total is None else total + term
    return total


def newton_det(e: list, one, zero):
    """p_k as the k x k determinant with first column (i+1) e_{i+1}, a unit
    superdiagonal and constant diagonals e_{i-j+1} below it."""
    k = len(e)

    def entry(i, j):
        if j == 0:
            return e[i] * (i + 1)
        m = i - j + 1
        return zero if m < 0 else one if m == 0 else e[m - 1]

    return det_cofactor([[entry(i, j) for j in range(k)] for i in range(k)])


def test_det_cofactor_small():
    assert det_cofactor([[F(5)]]) == 5
    assert det_cofactor([[F(1), F(2)], [F(3), F(4)]]) == -2
    assert det_cofactor([[F(2), F(0), F(1)], [F(1), F(1), F(0)], [F(0), F(3), F(1)]]) == 5


@given(st.lists(rationals, min_size=1, max_size=6))
def test_newton_p_from_e_equals_determinant(e):
    # the whole prefix p_1..p_k, each against its own determinant
    want = [newton_det(e[:j], ONE, ZERO) for j in range(1, len(e) + 1)]
    assert newton_p_from_e(e) == want


def test_newton_p_from_e_on_mode_polynomials_equals_determinant():
    # charges I_1..I_3 of a mode table: the recurrence needs no ring constants
    ctx = ModeContext(F(1, 2), F(1, 8), ModeTrunc(4, 4))
    mv = mode_table(ctx, span=2)
    e = [I_k_def(mv, k, 4, ctx.q) for k in (1, 2, 3)]
    assert all(len(x.nums) > 1 for x in e)
    ps = newton_p_from_e(e)
    assert len(ps) == 3
    for j, p in enumerate(ps, 1):
        assert p == newton_det(e[:j], AlphaPoly.one(), AlphaPoly.zero())
        assert p


def _elementary_from_roots(roots):
    # expand prod (y + x_i) and read off coefficients
    coeffs = [ONE]
    for r in roots:
        nxt = [ZERO] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += c * r
            nxt[i + 1] += c
        coeffs = nxt
    return list(reversed(coeffs[:-1]))


@pytest.mark.parametrize(
    "e, expect",
    [
        ([F(5)], F(5)),
        ([F(3), F(2)], F(5)),
        ([F(1), F(1), F(1)], F(1)),
    ],
)
def test_newton_p_from_e_examples(e, expect):
    assert newton_p_from_e(e)[-1] == expect


def test_newton_p_from_e_root_oracle():
    rng = random.Random(20240815)
    for _ in range(25):
        k = rng.randint(1, 6)
        roots = [F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(k)]
        es = _elementary_from_roots(roots)
        power_sums = [sum(r**j for r in roots) for j in range(1, k + 1)]
        assert newton_p_from_e(es) == power_sums


def e_from_p(p: list) -> list:
    """Elementary e_1..e_k from power sums p_1..p_k by the triangular
    recurrence k*e_k = sum_{i=1..k} (-1)**(i-1) e_{k-i} p_i, the divided
    direction of Newton's identities; an independent inverse of
    newton_p_from_e."""
    es = [ONE]
    for k in range(1, len(p) + 1):
        acc = sum(
            (es[k - i] * p[i - 1] * (-1) ** (i - 1) for i in range(1, k + 1)), ZERO
        )
        es.append(acc / k)
    return es[1:]


def test_newton_round_trip_with_inverse_relation():
    rng = random.Random(7)
    for _ in range(25):
        k = rng.randint(1, 6)
        ps = [F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(k)]
        es = e_from_p(ps)
        assert newton_p_from_e(es) == ps


def test_newton_p_from_e_rejects_empty():
    with pytest.raises(ValueError):
        newton_p_from_e([])


# #########################################################################
# the spectral tail x0, q x0, q**2 x0, ... (x0 = q**n eps): its elementary
# values, read through closed_I at the zero-wave point (I_k is the prefactor
# q**(-k(k-1)/2) (q; q)_k times the tail's e_k), and the extended power
# sums, read through closed_M (M_i is (1 - q**i)/i times the i-th)
# #########################################################################


def tail_e(k: int, params: ParamPoint):
    """The tail's e_k at a zero-wave point, from closed_I."""
    q = params.q
    assert params.n == 0
    return closed_I(k, params)[k - 1] * q ** (k * (k - 1) // 2) / q_pochhammer(q, k)


def power_sum_ext(i: int, params: ParamPoint):
    """The i-th power sum of the wave numbers joined with the tail, from
    closed_M."""
    return closed_M(i, params)[i - 1] * i / (1 - params.q**i)


def test_e_geometric_tail_k1_is_geometric_sum():
    x0, s = F(1, 2), F(1, 2)
    q = s * s
    pt = ParamPoint(s=s, eps=x0)
    assert tail_e(1, pt) == F(2, 3)
    # truncated sums approach it with remainder exactly x0*q**M/(1-q)
    for M in (10, 20, 40, 60):
        partial = sum(x0 * q**m for m in range(M))
        assert tail_e(1, pt) - partial == x0 * q**M / (1 - q)


def test_e_geometric_tail_k2_example():
    # x0**2 q / ((1 - q)(1 - q**2)) at x0 = 1, q = 1/4
    assert tail_e(2, ParamPoint(s=F(1, 2), eps=ONE)) == F(16, 45)


def test_e_geometric_tail_product_oracle():
    # coefficient of y**k in prod_{m<M}(1 + q**m x0 y), error shrinks like q**M
    x0, s = F(2, 5), F(1, 2)
    q = s * s
    pt = ParamPoint(s=s, eps=x0)
    for k in (1, 2, 3):
        closed = tail_e(k, pt)
        prev_err = None
        for M in (20, 30, 40):
            coeffs = [ONE] + [ZERO] * k
            for m in range(M):
                xm = x0 * q**m
                for i in range(k, 0, -1):
                    coeffs[i] += coeffs[i - 1] * xm
            err = abs(closed - coeffs[k])
            if prev_err is not None:
                assert err < prev_err * q**5
            prev_err = err


def test_power_sum_extended_examples():
    # n = 0 tail only: eps/(1-q) style values
    p_third = ParamPoint(s=F(1, 3), eps=F(1, 2))  # q = 1/9
    assert power_sum_ext(1, p_third) == F(1, 2) / (1 - F(1, 9))

    pt = ParamPoint(s=F(1, 2), eps=F(1, 7), a=(F(1, 5),))
    got = power_sum_ext(1, pt)
    assert got == F(1, 5) + F(1, 4) * F(1, 7) / (1 - F(1, 4))


def test_power_sum_extended_partial_sum_oracle():
    pt = ParamPoint(s=F(1, 2), eps=F(1, 8), a=(F(1, 5), F(-1, 6)))
    q = pt.q
    for i in (1, 2, 3):
        closed = power_sum_ext(i, pt)
        partial = sum(ak**i for ak in pt.a) + sum(
            (q ** (pt.n + m) * pt.eps) ** i for m in range(200)
        )
        remainder = (q ** (pt.n + 200) * pt.eps) ** i / (1 - q**i)
        assert closed - partial == remainder


# #########################################################################
# parameter points and samplers
# #########################################################################

def test_param_point_guards():
    with pytest.raises(ParamError):
        ParamPoint(s=F(1), eps=F(1, 2))
    with pytest.raises(ParamError):
        ParamPoint(s=F(1, 2), eps=F(0))
    with pytest.raises(ParamError):
        ParamPoint(s=F(1, 2), eps=F(1, 8), a=(F(1, 5), F(1, 5)))
    with pytest.raises(ParamError):
        # a_2 = q * a_1
        ParamPoint(s=F(1, 2), eps=F(1, 8), a=(F(1, 5), F(1, 20)))
    with pytest.raises(ParamError):
        # eps * q**0 hits a_1
        ParamPoint(s=F(1, 2), eps=F(1, 5), a=(F(1, 5),))
    with pytest.raises(ParamError):
        # eps * q**2 hits a_1
        ParamPoint(s=F(1, 2), eps=F(1, 5), a=(F(1, 80),))


def test_param_point_guard_covers_exactly_the_guard_range():
    # q**m * eps is refused as a wave number for |m| <= GUARD_RANGE only
    s, eps = F(1, 2), F(1, 8)
    for m in range(-GUARD_RANGE - 2, GUARD_RANGE + 3):
        a = (s ** (2 * m) * eps,)
        if abs(m) <= GUARD_RANGE:
            with pytest.raises(ParamError):
                ParamPoint(s=s, eps=eps, a=a)
        else:
            assert ParamPoint(s=s, eps=eps, a=a).a == a


def test_param_point_inverted_round_trip():
    pt = ParamPoint(s=F(1, 2), eps=F(1, 8), a=(F(1, 5), F(-1, 6)))
    inv = pt.inverted()
    assert inv.q == 4
    assert inv.inverted() == pt


def test_param_point_q_is_taken_once_and_is_not_a_field():
    # equality, hashing and JSON see s, eps and a; q is read, not stored as
    # a field, and is the same object on every read
    pt = ParamPoint(s=F(-2, 3), eps=F(1, 8), a=(F(1, 5),))
    assert pt.q == F(4, 9) and pt.q is pt.q
    twin = ParamPoint(s=F(-2, 3), eps=F(1, 8), a=(F(1, 5),))
    assert twin == pt and hash(twin) == hash(pt)
    assert [f.name for f in dataclasses.fields(pt)] == ["s", "eps", "a"]
    assert pt.to_json() == {"s": "-2/3", "eps": "1/8", "a": ["1/5"]}
    assert ParamPoint(s=F(2, 3), eps=F(1, 8), a=(F(1, 5),)) != pt


@given(
    st.fractions(min_value=-3, max_value=3, max_denominator=9).filter(
        lambda q: q not in (0, 1, -1)
    ),
    st.integers(0, 6),
)
def test_q_pochhammer_is_the_literal_product(q, k):
    # memoized on (q, k); a hit returns the product a fresh loop gives
    want = math.prod((1 - q**i for i in range(1, k + 1)), start=F(1))
    assert q_pochhammer(q, k) == want
    assert q_pochhammer(F(q.numerator, q.denominator), k) == want


def test_q_pochhammer_pole_raises_every_time():
    for _ in range(2):
        with pytest.raises(PoleError):
            q_pochhammer(F(-1), 2)


def test_param_point_json():
    pt = ParamPoint(s=F(1, 2), eps=F(-1, 8), a=(F(1, 5),))
    assert pt.to_json() == {"s": "1/2", "eps": "-1/8", "a": ["1/5"]}


def test_sample_param_point_deterministic_and_bounded():
    p1 = sample_param_point(random.Random(42), 3)
    p2 = sample_param_point(random.Random(42), 3)
    assert p1 == p2
    assert p1.q == F(1, 4)
    assert all(F(1, 8) <= abs(ak) <= F(1, 4) for ak in p1.a)
    assert F(1, 16) <= abs(p1.eps) <= F(1, 8)


def test_sample_amplitudes_bounds():
    rng = random.Random(3)
    for n in (1, 2, 3):
        bs = sample_amplitudes(rng, n)
        assert len(bs) == n
        assert all(F(1, 4) <= abs(b) <= F(3, 4) for b in bs)


def test_sample_shift_amount_bounds():
    rng = random.Random(11)
    for _ in range(50):
        alpha = sample_shift_amount(rng)
        assert 0 < abs(alpha) <= F(1, 8)
