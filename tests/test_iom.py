"""Charges: kernel sums vs literal formulas, closed forms, Newton map.

Oracles: the charge is compared with the literal enumeration of every pair
exponent vector (`literal_charge`), and quadratic/cubic sums are written out
literally; closed forms at k=1,2 are transcribed as independent
expressions, and at k <= 4 checked against a subset-sum transcription; the
n=0 point pins the geometric-tail normalization against the constant-field
value; Newton consistency is checked both on exact closed values and on
mode polynomials.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from toda_bo import iom
from toda_bo.iom import (
    I_k_def,
    M2_functional,
    M2_kernel,
    M3_functional,
    M3_kernel,
    M_from_I,
    ModeVector,
    closed_I,
    closed_M,
    _kernel_coeff,
    _times,
    fit_decay,
    kernel_tail,
    mode_table,
    power_geometric_tail,
    shell_tail,
    soliton_decay,
)
from toda_bo.modes import (
    AlphaSeries,
    ModeContext,
    ModeTrunc,
    bracket,
    build_eta,
    build_xi,
    capped_mul,
    eta_zero,
    mono_degree,
    mono_weight,
    xi_zero,
)
from toda_bo.scalar import BudgetError, ParamError, ParamPoint, sample_param_point
from toda_bo.soliton import eta_series_from_taus, sample_decaying, xi_series_from_taus

CTX = ModeContext(F(1, 2), F(1, 8), ModeTrunc(6, 6))
P1 = ParamPoint(s=F(1, 2), eps=F(1, 8), a=(F(1, 5),))
P2 = ParamPoint(s=F(1, 2), eps=F(1, 8), a=(F(1, 5), F(-1, 7)))
P0 = ParamPoint(s=F(1, 2), eps=F(1, 8), a=())
Q = F(1, 4)


def eta_modes(params, b, window) -> ModeVector:
    return ModeVector.from_series(eta_series_from_taus(params, b, window))


def xi_table(ctx: ModeContext) -> ModeVector:
    """Mode polynomials of the xi field for |m| <= n_modes."""
    field, N = build_xi(ctx), ctx.trunc.n_modes
    return ModeVector(N, {m: field.mode(m) for m in range(-N, N + 1)})


def xi_modes(params, b, window) -> ModeVector:
    return ModeVector.from_series(xi_series_from_taus(params, b, window))


def constant_modes(c, N: int) -> ModeVector:
    """The modes of the constant field c: c at index 0, zero elsewhere."""
    return ModeVector(N, {m: (c if m == 0 else F(0)) for m in range(-N, N + 1)})


# #### mode vectors ############################################################


def test_mode_vector_validation():
    with pytest.raises(ValueError, match="index 3 is outside"):
        ModeVector(2, {m: F(1) for m in range(-2, 4)})
    with pytest.raises(ValueError, match="index 0 is missing"):
        ModeVector(2, {m: F(1) for m in (-2, -1, 1, 2)})
    with pytest.raises(ValueError):
        ModeVector(-1, {})
    mv = constant_modes(F(1, 8), 4)
    assert mv[0] == F(1, 8) and mv[3] == 0 and set(mv.values) == set(range(-4, 5))


# #### enumerator vs literal sums ##############################################


@pytest.mark.parametrize("kind", ["plus", "minus"])
def test_kernel_coeff_multiplies_back(kind):
    # K(m) expands the pair kernel (1 - w)/(1 - qq w) geometrically, so
    # (1 - qq w) * sum_m K(m) w**m is 1 - w through order N; minus inverts q
    N = 12
    qq = Q if kind == "plus" else 1 / Q
    K = [_kernel_coeff(qq, m) for m in range(N + 1)]
    prod = [K[0]] + [K[m] - qq * K[m - 1] for m in range(1, N + 1)]
    assert prod == [1, -1] + [0] * (N - 1)


def test_first_charge_is_zero_mode():
    mv = eta_modes(P1, (F(1, 2),), 8)
    assert I_k_def(mv, 1, 8, Q) == mv[0]
    assert shell_tail(1, 8, Q, fit_decay(mv, F(1, 2))) == 0


def test_second_charge_literal_sum():
    mv = eta_modes(P2, (F(1, 2), F(1, 3)), 16)
    N = 8
    expect = mv[0] * mv[0]
    for m in range(1, N + 1):
        expect += (1 - 1 / Q) * Q**m * mv[-m] * mv[m]
    assert I_k_def(mv, 2, N, Q) == expect


def literal_charge(eta, k, N, q, mul=operator.mul):
    """The charge by enumerating every pair exponent vector."""
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    value = None
    for ms in itertools.product(range(N + 1), repeat=len(pairs)):
        coeff, flow = F(1), [0] * k
        for (i, j), m in zip(pairs, ms):
            coeff *= 1 if m == 0 else (1 - 1 / q) * q**m
            flow[i] -= m
            flow[j] += m
        term = eta[flow[0]]
        for e in flow[1:]:
            term = mul(term, eta[e])
        value = term * coeff if value is None else value + term * coeff
    return value


CTX_SMALL = ModeContext(F(1, 2), F(1, 8), ModeTrunc(3, 4))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["plus", "minus"])
@pytest.mark.parametrize("case", ["covering", "narrow-decay", "capped-poly"])
def test_charge_matches_literal_enumeration(k, kind, case):
    # the value is the same exact element as the literal sum over all
    # (N+1)**(k(k-1)/2) vectors: Fractions on soliton modes, and mode
    # polynomials under the capped product; a window short of the reach
    # raises, though a decay model bounds the modes past it
    qq = Q if kind == "plus" else 1 / Q
    modes = eta_modes if kind == "plus" else xi_modes
    decay, mul = None, operator.mul
    if case == "capped-poly":
        N = CTX_SMALL.trunc.n_modes
        mv = mode_table(CTX_SMALL, span=max(1, k - 1))
        mul = capped_mul(CTX_SMALL)
    else:
        N = 3 if k < 4 else 2
        mv = modes(P1, (F(1, 2),), (k - 1) * N if case == "covering" else N - 1)
        if case == "narrow-decay":
            decay = fit_decay(mv, F(1, 10))
    if (k - 1) * N > mv.N:
        with pytest.raises(ValueError, match=f"outside window {mv.N}"):
            I_k_def(mv, k, N, qq, mul=mul)
        return
    assert I_k_def(mv, k, N, qq, mul=mul) == literal_charge(mv, k, N, qq, mul)
    if decay is not None:
        assert shell_tail(k, N, qq, decay) == 0


def test_third_charge_work_is_quadratic_in_the_cutoff(monkeypatch):
    # the literal enumeration makes 2 products per vector, 2 (N+1)**3 in all;
    # a Fraction field is summed on its integer numerators, so the count is
    # of the mode products the one kernel sum makes on that path
    calls = 0
    kernel_sum = iom._kernel_sum

    def counting_sum(field, k, ktab, r, mul):
        assert all(type(v) is int for v in field.values())

        def counting_mul(a, b):
            nonlocal calls
            calls += 1
            return mul(a, b)

        return kernel_sum(field, k, ktab, r, counting_mul)

    N = 24
    mv = eta_modes(P1, (F(1, 2),), 2 * N)
    expect = I_k_def(mv, 3, N, Q)
    monkeypatch.setattr(iom, "_kernel_sum", counting_sum)
    assert I_k_def(mv, 3, N, Q) == expect
    # the table forms each anti-diagonal product once, (N+1)**2 + N (2N+1)
    # in all, and each of the 2N + 1 outer flows costs one more
    assert calls == (N + 1) ** 2 + (N + 1) * (2 * N + 1)


def test_anti_diagonal_step_on_integers_is_exact_or_raises():
    assert _times(12, F(3, 4)) == 9
    assert _times(-12, F(-3, 4)) == 9
    assert _times(F(1, 3), F(3, 4)) == F(1, 4)
    with pytest.raises(ArithmeticError):
        _times(13, F(3, 4))


@st.composite
def rational_fields(draw):
    """(modes, k, N, kernel parameter, decay): modes with unrelated
    denominators on a window that covers the charge's reach, or, with a
    decay model, one that may fall short of it."""
    k = draw(st.integers(2, 4))
    N = draw(st.integers(1, 3 if k < 4 else 2))
    reach = (k - 1) * N
    decay = None
    if draw(st.booleans()):
        decay = (F(draw(st.integers(1, 9)), 4), F(draw(st.integers(1, 7)), 8))
        W = draw(st.integers(0, reach))
    else:
        W = draw(st.integers(reach, reach + 1))
    value = st.builds(F, st.integers(-60, 60), st.integers(1, 97))
    modes = ModeVector(W, {m: draw(value) for m in range(-W, W + 1)})
    q = F(draw(st.integers(1, 9)), draw(st.integers(2, 11)))
    if draw(st.booleans()):
        q = 1 / q
    return modes, k, N, q, decay


@given(rational_fields())
@settings(max_examples=80, deadline=None)
def test_integer_charge_equals_literal_enumeration(case):
    # the integer sum at q and at 1/q is the literal sum; a window short of
    # the reach raises.  The shell bound exists when a shell ratio, |q| or
    # |q|**(k-1) rho**2, lies below 1, and raises otherwise
    mv, k, N, q, decay = case
    if decay is not None:
        rho = decay[1]
        if min(abs(q), abs(q) ** (k - 1) * rho**2) < 1:
            assert shell_tail(k, N, q, decay) > 0
        else:
            with pytest.raises(ParamError, match="charge tail bound unavailable"):
                shell_tail(k, N, q, decay)
    if (k - 1) * N > mv.N:
        with pytest.raises(ValueError, match=f"outside window {mv.N}"):
            I_k_def(mv, k, N, q)
        return
    assert I_k_def(mv, k, N, q) == literal_charge(mv, k, N, q)


def test_out_of_window_mode_is_named_without_decay():
    # I_3 reaches |flow| <= 2N: N = 4 fits the window 8, N = 5 does not;
    # the quadratic and cubic kernel formulas reach |m| <= N
    mv = eta_modes(P1, (F(1, 2),), 8)
    cases = [
        (lambda N: I_k_def(mv, 3, N, Q), 4, 10),
        (lambda N: M2_kernel(mv, N, Q), 8, 9),
        (lambda N: M3_kernel(mv, N, Q), 8, 9),
    ]
    for charge, N, reach in cases:
        charge(N)
        with pytest.raises(ValueError, match=f"mode -{reach} outside window 8;"):
            charge(N + 1)


def test_constant_field_powers():
    mv = constant_modes(F(1, 8), 16)
    for k in (1, 2, 3):
        assert I_k_def(mv, k, 8, Q) == F(1, 8) ** k
    assert M2_kernel(mv, 8, Q) == F(1, 8) ** 2 / 2
    assert M3_kernel(mv, 8, Q) == F(1, 8) ** 3 / 3


def literal_m2(eta, N, q, mul=operator.mul):
    """The quadratic kernel charge one term at a time, q**m per term."""
    total = F(1, 2) * mul(eta[0], eta[0])
    for m in range(1, N + 1):
        total = total + q**m * mul(eta[-m], eta[m])
    return total


def literal_m3(eta, N, q, mul=operator.mul):
    """The cubic kernel charge one term at a time, q**(r+s) per term."""
    total = F(1, 3) * mul(mul(eta[0], eta[0]), eta[0])
    for r in range(0, N + 1):
        for s in range(1, N + 1):
            total = total + q ** (r + s) * mul(mul(eta[-r], eta[r - s]), eta[s])
    return total


@given(
    N=st.integers(0, 6),
    extra=st.integers(0, 2),
    q=st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 11)),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_m2_m3_kernels_equal_the_term_by_term_sums(N, extra, q, data):
    # Fraction modes with unrelated denominators, summed on integer numerators
    W = N + extra
    value = st.builds(F, st.integers(-60, 60), st.integers(1, 97))
    mv = ModeVector(W, {m: data.draw(value) for m in range(-W, W + 1)})
    assert M2_kernel(mv, N, q) == literal_m2(mv, N, q)
    assert M3_kernel(mv, N, q) == literal_m3(mv, N, q)


@pytest.mark.parametrize("kind", ["plus", "minus"])
def test_m2_m3_kernels_on_mode_polynomials_equal_the_term_by_term_sums(kind):
    # the functional path: mode polynomials, capped and uncapped products
    N = CTX_SMALL.trunc.n_modes
    mv = mode_table(CTX_SMALL)
    qq = CTX_SMALL.q if kind == "plus" else 1 / CTX_SMALL.q
    for mul in (capped_mul(CTX_SMALL), operator.mul):
        assert M2_kernel(mv, N, qq, mul) == literal_m2(mv, N, qq, mul)
        assert M3_kernel(mv, N, qq, mul) == literal_m3(mv, N, qq, mul)


def test_budget_guard():
    mv = constant_modes(F(1), 8)
    with pytest.raises(BudgetError):
        I_k_def(mv, 4, 48, Q)


# #### closed forms ############################################################


@pytest.mark.parametrize("params", [P0, P1, P2], ids=["n0", "n1", "n2"])
def test_closed_small_k_literals(params):
    q, eps, a = params.q, params.eps, params.a
    n = len(a)
    e1 = sum(a, F(0))
    e2 = sum(a[i] * a[j] for i in range(n) for j in range(i + 1, n))
    expect1 = (1 - q) * e1 + q**n * eps
    expect2 = (
        (1 - q) * (1 - q**2) / q * e2
        + q ** (n - 1) * (1 - q**2) * e1 * eps
        + q ** (2 * n) * eps**2
    )
    assert closed_I(2, params) == [expect1, expect2]


def literal_closed_I(k, params):
    """closed_I written out: q**(-k(k-1)/2) (q; q)_k times the k-th
    elementary symmetric value of the wave numbers joined with the tail
    x0, q x0, q**2 x0, ... (x0 = q**n eps), each finite e_j a sum over
    j-subsets and each tail e_j its product formula."""
    q, a = params.q, params.a
    x0 = q ** len(a) * params.eps

    def poch(j):
        return math.prod((1 - q**i for i in range(1, j + 1)), start=F(1))

    def e_finite(j):
        return sum((math.prod(c, start=F(1)) for c in itertools.combinations(a, j)), F(0))

    def e_tail(j):
        return x0**j * q ** (j * (j - 1) // 2) / poch(j)

    total = sum((e_finite(k - j) * e_tail(j) for j in range(k + 1)), F(0))
    return q ** (-k * (k - 1) // 2) * poch(k) * total


@given(
    n=st.integers(0, 3),
    s=st.sampled_from([F(1, 2), F(-1, 3), F(2, 3), F(3, 2)]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_closed_charges_equal_the_literal_formula(n, s, seed):
    # at the point and at its mirror, the prefix I_1..I_4 term by term
    params = sample_param_point(random.Random(seed), n, s=s)
    for pt in (params, params.inverted()):
        want = [literal_closed_I(k, pt) for k in range(1, 5)]
        assert closed_I(4, pt) == want, pt


def literal_closed_M(k, params):
    """closed_M written out: (1 - q**k)/k times the k-th power sum of the
    wave numbers and of the tail x0, q x0, ..., the tail's summed as a
    geometric series."""
    q = params.q
    x0 = q ** len(params.a) * params.eps
    power_sum = sum((a**k for a in params.a), F(0)) + x0**k / (1 - q**k)
    return (1 - q**k) / k * power_sum


@given(
    n=st.integers(0, 3),
    s=st.sampled_from([F(1, 2), F(-1, 3), F(2, 3), F(3, 2)]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_prefix_lists_equal_the_per_k_forms(n, s, seed):
    # at the point and at its mirror: closed_M's list is the literal M_k for
    # each k, and every list's first k entries are what a call at k returns
    params = sample_param_point(random.Random(seed), n, s=s)
    for pt in (params, params.inverted()):
        i_vals, m_vals = closed_I(4, pt), closed_M(4, pt)
        assert m_vals == [literal_closed_M(k, pt) for k in range(1, 5)]
        newton = M_from_I(i_vals, pt)
        for k in range(1, 5):
            assert closed_I(k, pt) == i_vals[:k]
            assert closed_M(k, pt) == m_vals[:k]
            assert M_from_I(i_vals[:k], pt) == newton[:k]


def test_closed_matches_constant_field_at_empty_point():
    assert closed_I(4, P0) == [P0.eps**k for k in (1, 2, 3, 4)]
    assert closed_I(4, P0.inverted()) == [(1 / P0.eps) ** k for k in (1, 2, 3, 4)]


def test_closed_M_base_cases():
    for params in (P0, P1, P2):
        assert closed_M(1, params) == closed_I(1, params)
        assert closed_M(1, params.inverted()) == closed_I(1, params.inverted())
    with pytest.raises(ValueError):
        closed_M(0, P1)
    with pytest.raises(ValueError):
        closed_I(0, P1)


def test_newton_closed_consistency():
    # the mirror charges combine at the inverted point
    for params in (P0, P1, P2):
        for pt in (params, params.inverted()):
            assert M_from_I(closed_I(4, pt), pt) == closed_M(4, pt)


# #### functional route ########################################################


def test_functional_first_charge_equals_zero_mode():
    mv = mode_table(CTX)
    assert I_k_def(mv, 1, CTX.trunc.n_modes, CTX.q) == eta_zero(CTX).functional_value()


def test_m2_from_newton_matches_kernel_formula_exactly():
    # the quadratic Newton combination telescopes term-by-term in the kernel
    # exponent, so truncating both routes at the same N keeps exact equality
    mv = mode_table(CTX)
    N, q = CTX.trunc.n_modes, CTX.q
    i1 = I_k_def(mv, 1, N, q)
    i2 = I_k_def(mv, 2, N, q)
    newton = M_from_I([i1, i2], P1)[-1]
    assert newton == M2_kernel(mv, N, q)


def test_m3_from_newton_matches_kernel_formula_on_window():
    # the cubic routes differ beyond the weight window (their truncation
    # boundaries are shaped differently), but any monomial of weight <= N
    # needs kernel exponents <= N/2 on every route, so the pruned polynomials
    # agree exactly
    mv = mode_table(CTX, span=2)
    N, D, q = CTX.trunc.n_modes, CTX.trunc.d_deg, CTX.q
    vals = [I_k_def(mv, k, N, q) for k in (1, 2, 3)]
    newton = M_from_I(vals, P1)[-1]
    assert newton.pruned(N, D) == M3_kernel(mv, N, q).pruned(N, D)


def test_mbar_newton_matches_kernel_on_window():
    mv = xi_table(CTX)
    N, D = CTX.trunc.n_modes, CTX.trunc.d_deg
    qbar = 1 / CTX.q
    vals = [I_k_def(mv, k, N, qbar) for k in (1, 2)]
    newton = M_from_I(vals, P1.inverted())[-1]
    assert newton.pruned(N, D) == M2_kernel(mv, N, qbar).pruned(N, D)


def certified_zero(series: AlphaSeries) -> bool:
    g = series.guar
    for slot, poly in series.coeffs.items():
        span = sum(abs(x) for x in slot)
        for mono in poly.nums:
            covered = g.covers(span, mono_weight(mono), mono_degree(mono))
            if covered and poly.coeff(mono) != 0:
                return False
    return True


def test_charges_commute_on_certified_window():
    # the uncapped charges are cut to the window rule before they become
    # functionals: weight <= n_modes and degree <= d_deg at slot span 0
    N, D, q = CTX.trunc.n_modes, CTX.trunc.d_deg, CTX.q
    i2 = AlphaSeries.functional(
        CTX, I_k_def(mode_table(CTX), 2, N, q).pruned(N, D)
    )
    i2bar = AlphaSeries.functional(
        CTX, I_k_def(xi_table(CTX), 2, N, 1 / q).pruned(N, D)
    )
    pairs = [
        (eta_zero(CTX), i2),
        (xi_zero(CTX), i2bar),
        (eta_zero(CTX), i2bar),
        (xi_zero(CTX), i2),
        (i2, i2bar),
    ]
    for f, g in pairs:
        res = bracket(f, g)
        assert certified_zero(res)
    assert not certified_zero(bracket(eta_zero(CTX), build_eta(CTX)))


def test_eta_is_built_once_per_context():
    # eta_zero, mode_table and a direct call all read one cached build: a
    # second cache key for the same field would rebuild
    ctx = ModeContext(F(1, 2), F(1, 13), ModeTrunc(4, 4))
    before = build_eta.cache_info().misses
    eta_zero(ctx)
    mode_table(ctx)
    build_eta(ctx)
    assert build_eta.cache_info().misses - before == 1


def test_m2_m3_functionals_stable_under_window_growth():
    # every cell inside the smaller build's claimed region must be
    # reproduced by the wider build; disagreement would mean the guarantee
    # overclaims
    small = ModeContext(F(1, 2), F(1, 8), ModeTrunc(4, 6))
    big = ModeContext(F(1, 2), F(1, 8), ModeTrunc(8, 6))
    for builder in (M2_functional, M3_functional):
        lo = builder(small).functional_value()
        hi = builder(big).functional_value()
        g = builder(small).guar
        seen = set(lo.nums) | set(hi.nums)
        checked = 0
        for mono in seen:
            if not g.covers(0, mono_weight(mono), mono_degree(mono)):
                continue
            checked += 1
            assert lo.coeff(mono) == hi.coeff(mono), mono
        assert checked > 3


# #### tails and decay #########################################################


@given(
    j=st.integers(min_value=0, max_value=4),
    num=st.integers(min_value=1, max_value=9),
    N=st.integers(min_value=0, max_value=20),
)
@settings(max_examples=60, deadline=None)
def test_power_tail_telescopes(j, num, N):
    r = F(num, 10)
    left = power_geometric_tail(j, r, N)
    right = power_geometric_tail(j, r, N + 1)
    assert left - right == F(N + 2) ** j * r ** (N + 1)
    assert left > 0


def stirling_power_tail(j: int, r, N: int):
    """sum_{M>N} (M+1)**j r**M through the Stirling numbers of the second
    kind: sum_t t**i r**t = sum_l S(i, l) l! r**l / (1 - r)**(l+1)."""
    s2 = [[F(1)]]
    for n in range(1, j + 1):
        row = [F(0)] * (n + 1)
        for t in range(1, n + 1):
            row[t] = (s2[n - 1][t] if t < n else 0) * t + s2[n - 1][t - 1]
        s2.append(row)
    t_full = [1 / (1 - r)]
    for i in range(1, j + 1):
        t_full.append(
            sum(
                s2[i][l] * math.factorial(l) * r**l / (1 - r) ** (l + 1)
                for l in range(1, i + 1)
            )
        )
    total = sum(math.comb(j, i) * F(N + 2) ** (j - i) * t_full[i] for i in range(j + 1))
    return r ** (N + 1) * total


@given(
    j=st.integers(min_value=0, max_value=6),
    r=st.fractions(min_value=0, max_value=F(99, 100), max_denominator=100),
    N=st.integers(min_value=0, max_value=20),
)
@settings(max_examples=80, deadline=None)
def test_power_tail_recurrence_equals_stirling_form(j, r, N):
    assert power_geometric_tail(j, r, N) == stirling_power_tail(j, r, N)


def test_power_tail_geometric_base_case():
    r = F(1, 3)
    assert power_geometric_tail(0, r, 5) == r**6 / (1 - r)
    assert power_geometric_tail(2, F(0), 5) == 0
    with pytest.raises(ValueError):
        power_geometric_tail(1, F(3, 2), 5)


def test_fit_decay_exact_geometric():
    rho = F(1, 3)
    mv = ModeVector(6, {m: F(5) * rho ** abs(m) for m in range(-6, 7)})
    h, r = fit_decay(mv, rho)
    assert h == 5 and r == rho
    with pytest.raises(ValueError):
        fit_decay(mv, F(2))


def test_tail_bounds_truncation_error():
    b = (F(1, 2),)
    mv = eta_modes(P1, b, 40)
    decay = soliton_decay(P1, b, mv)
    small = I_k_def(mv, 2, 10, Q)
    large = I_k_def(mv, 2, 30, Q)
    assert abs(small - large) <= shell_tail(2, 10, Q, decay)
    assert abs(large - closed_I(2, P1)[-1]) <= shell_tail(2, 30, Q, decay)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_kernel_tails_bound_truncation_error(seed, n):
    # the modes past the cutoff lie inside the window, where the fitted
    # decay model bounds them, so M_k(N) - M_k(60) is part of what N drops
    params, b = sample_decaying(F(1, 2), random.Random(seed), n)
    mv = eta_modes(params, b, 60)
    decay = soliton_decay(params, b, mv)
    q = params.q
    for k, kernel in ((2, M2_kernel), (3, M3_kernel)):
        far = kernel(mv, 60, q)
        for N in (8, 16):
            assert abs(kernel(mv, N, q) - far) <= kernel_tail(k, N, q, decay)


def test_tail_bounds_refuse_what_they_cannot_bound():
    # at q = 4 and rho = 9/10 neither shell ratio, q nor q**2 rho**2, is
    # below 1
    with pytest.raises(ParamError, match="charge tail bound unavailable"):
        shell_tail(3, 8, F(4), (F(1), F(9, 10)))
    for k, rho in ((2, F(2)), (2, F(3)), (3, F(4)), (3, F(5))):
        with pytest.raises(ParamError, match="unit interval"):
            kernel_tail(k, 8, Q, (F(1), rho))


def test_tail_covers_out_of_window_modes():
    # the tail bounds the dropped kernel shells only: a mode past the
    # window is refused, though a decay model bounds it
    b = (F(1, 2),)
    narrow = eta_modes(P1, b, 12)
    assert shell_tail(3, 10, Q, soliton_decay(P1, b, narrow)) > 0
    with pytest.raises(ValueError, match="mode -20 outside window 12"):
        I_k_def(narrow, 3, 10, Q)


@pytest.mark.xfail(
    strict=True,
    reason="k >= 3 shell ratio |q|**(k-1) rho**2 is too small; |q| rho**2 is valid",
)
def test_third_charge_tail_bounds_truncation_error():
    # a vector with a single nonzero exponent M already reaches |q|**M rho**(2M),
    # so the dropped shells decay no faster than |q| rho**2 per step
    b = (F(1, 2),)
    mv = eta_modes(P1, b, 32)
    tail = shell_tail(3, 16, Q, soliton_decay(P1, b, mv))
    assert abs(I_k_def(mv, 3, 16, Q) - closed_I(3, P1)[-1]) <= tail


def test_convergence_toward_closed_value():
    b = (F(1, 2),)
    mv = eta_modes(P1, b, 40)
    resid = [abs(I_k_def(mv, 2, N, Q) - closed_I(2, P1)[-1]) for N in (8, 16)]
    assert resid[1] < resid[0] / 4
    mvx = xi_modes(P1, b, 40)
    residbar = [
        abs(I_k_def(mvx, 2, N, 1 / Q) - closed_I(2, P1.inverted())[-1])
        for N in (8, 16)
    ]
    assert residbar[1] < residbar[0] / 4

