"""Soliton taus: construction, shifts, bilinear flows, reconstruction.

Oracle notes: small-n term tables are hand expansions of the subset sums;
the finite-shift route and the reflection-factor route must reproduce each
other through the shift identity (two independent code paths); numeric field
windows are validated by exact cross-multiplication on the degrees the
window fully determines, never by tolerance, and must equal the same
pipeline run with the literal Fraction division.  The property tests that
build a tau ratio at a sampled point reject a point whose taus share a root
(the resultant says which), where the ratio has no annulus and the split
must refuse.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from toda_bo import soliton
from toda_bo.evolve import DEFAULT_AMPLITUDES, DEFAULT_POINT
from toda_bo.scalar import (
    ONE,
    ParamPoint,
    PoleError,
    sample_amplitudes,
    sample_param_point,
)
from toda_bo.series import series_mul, series_split
from toda_bo.soliton import (
    BilinearOp,
    bilinear,
    decay_report,
    eta_series_from_taus,
    flow_rates,
    make_tau_minus,
    make_tau_plus,
    miwa_factors,
    miwa_shift,
    modes_from_series,
    parse_soliton_spec,
    sample_decaying,
    soliton_spec_json,
    tau_series,
    tau_subs,
    xi_series_from_taus,
)

from test_series import add, literal_div, resultant, subs

P0 = ParamPoint(s=F(1, 2), eps=F(1, 8), a=())
P1 = ParamPoint(s=F(1, 2), eps=F(1, 8), a=(F(1, 5),))
P2 = ParamPoint(s=F(1, 2), eps=F(1, 8), a=(F(1, 5), F(-1, 7)))
P3 = ParamPoint(s=F(1, 2), eps=F(1, 8), a=(F(1, 5), F(-1, 7), F(2, 9)))


def sym_mul(a, b):
    out = {}
    for (za, ea), ca in a.items():
        for (zb, eb), cb in b.items():
            k = (za + zb, tuple(x + y for x, y in zip(ea, eb)))
            out[k] = out.get(k, F(0)) + ca * cb
    return {k: v for k, v in out.items() if v}


def sym_lin(*parts):
    """The sum of c * a over parts (c, a), zeros dropped."""
    out = {}
    for c, a in parts:
        for k, v in a.items():
            out[k] = out.get(k, F(0)) + c * v
    return {k: v for k, v in out.items() if v}


# #### construction ############################################################


def test_empty_point_taus_are_one():
    assert make_tau_plus(P0) == {(0, ()): 1}
    assert make_tau_minus(P0) == {(0, ()): 1}


def test_single_wave_shapes():
    q, eps, a = P1.q, P1.eps, P1.a[0]
    assert make_tau_plus(P1) == {(0, (0,)): 1, (1, (1,)): 1}
    d1 = (1 - eps / a) / (1 - q * eps / a)
    assert make_tau_minus(P1) == {(0, (0,)): 1, (-1, (-1,)): d1}


def test_two_wave_interaction():
    q = P2.q
    a0, a1 = P2.a
    c = (a0 - a1) ** 2 / ((a0 - q * a1) * (a0 - a1 / q))
    sym = make_tau_plus(P2)
    assert sym[(0, (0, 0))] == 1
    assert sym[(1, (1, 0))] == 1 and sym[(1, (0, 1))] == 1
    assert sym[(2, (1, 1))] == c
    # the pair factor does not depend on the order of the waves
    swapped = ParamPoint(s=P2.s, eps=P2.eps, a=(a1, a0))
    assert make_tau_plus(swapped)[(2, (1, 1))] == c


def literal_taus(params: ParamPoint, beta):
    """Both taus and the reflection factors at beta written out: each
    subset's coefficient is its own product over pairs, d_k its own product
    over the other waves."""
    q, a, n = params.q, params.a, params.n
    d = []
    for k in range(n):
        v = (1 - beta / (q * a[k])) / (1 - beta / a[k])
        for j in range(n):
            if j != k:
                v *= (a[k] - q * a[j]) * (a[k] - a[j] / q) / (a[k] - a[j]) ** 2
        d.append(v)
    plus, minus = {}, {}
    for r in range(n + 1):
        for subset in itertools.combinations(range(n), r):
            c = F(1)
            for i, j in itertools.combinations(subset, 2):
                c *= (a[i] - a[j]) ** 2 / ((a[i] - q * a[j]) * (a[i] - a[j] / q))
            e = tuple(int(k in subset) for k in range(n))
            plus[r, e] = c
            minus[-r, tuple(-x for x in e)] = c * math.prod(d[k] for k in subset)
    return plus, minus, d


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4), st.integers(0, 2**32 - 1), st.booleans())
def test_taus_and_reflection_factors_equal_literal_products(n, seed, shifted):
    params = sample_param_point(random.Random(seed), n)
    # q**m eps stays clear of every a_k and q a_k at these m (ParamPoint)
    beta = params.q ** (n + shifted) * params.eps
    plus, minus, d = literal_taus(params, beta)
    # key order too: the subsets run by size, then lexicographically
    assert list(make_tau_plus(params).items()) == list(plus.items())
    assert list(make_tau_minus(params, beta).items()) == list(minus.items())
    assert reflection_factors(params, beta) == d


def reflection_factors(params: ParamPoint, beta):
    return soliton._reflection_factors(params, soliton._pair_table(params), beta)


@pytest.mark.parametrize("times_q", [False, True], ids=["beta=a_k", "beta=q*a_k"])
def test_d_factor_poles(times_q):
    # the reflection factors and the tbar Miwa factors share both poles,
    # beta = a_k and beta = q a_k, at every wave k
    for a in P3.a:
        beta = P3.q * a if times_q else a
        with pytest.raises(PoleError):
            reflection_factors(P3, beta)
        with pytest.raises(PoleError):
            miwa_factors(P3, "tbar", beta)
        with pytest.raises(PoleError):
            make_tau_minus(P3, beta)


# #### finite shifts ############################################################


def test_miwa_factors():
    q, a = P1.q, P1.a[0]
    al = F(1, 11)
    assert miwa_factors(P1, "t", al) == [(1 - q * a * al) / (1 - a * al)]
    assert miwa_factors(P1, "tbar", al) == [(1 - al / (q * a)) / (1 - al / a)]
    for kind in ("t", "tbar"):
        assert miwa_factors(P3, kind, al) == [
            miwa_factors(ParamPoint(P3.s, P3.eps, (x,)), kind, al)[0] for x in P3.a
        ]
    with pytest.raises(ValueError):
        miwa_factors(P1, "u", al)


def test_miwa_shift_composes_to_identity():
    tau = make_tau_plus(P2)
    for kind in ("t", "tbar"):
        there = miwa_shift(P2, tau, kind, F(1, 11), 1)
        assert miwa_shift(P2, there, kind, F(1, 11), -1) == tau


def shift_identity_residual(params: ParamPoint, beta):
    """Shifted upper tau vs reflection-factor expansion; zero iff they agree."""
    n = params.n
    lhs = miwa_shift(params, make_tau_plus(params), "tbar", beta, -1)
    pref = make_tau_plus(params)[n, (1,) * n]
    for f in miwa_factors(params, "tbar", beta):
        pref *= 1 / f
    rhs = sym_mul({(n, (1,) * n): pref}, make_tau_minus(params, beta))
    return sym_lin((1, lhs), (-1, rhs))


@pytest.mark.parametrize("params", [P1, P2, P3], ids=["n1", "n2", "n3"])
def test_shift_identity_exact(params):
    for beta in (F(1, 11), F(-1, 13), F(3, 17)):
        assert shift_identity_residual(params, beta) == {}


def test_default_beta_matches_shift_identity():
    # the lower tau's default spectral point is q**n eps
    beta = P2.q**2 * P2.eps
    assert make_tau_minus(P2) == make_tau_minus(P2, beta)


# #### bilinear flows ##########################################################


def flow_eigenvalue(params, b_exp, kind, order):
    """The logarithmic derivative of the term with amplitude exponents b_exp
    along the flow (kind, order), summed wave by wave."""
    q = params.q
    total = F(0)
    for a, e in zip(params.a, b_exp):
        if kind == "t":
            total += e * (1 - q**order) * a**order
        else:
            total += e * (1 - q**-order) * a**-order
    return total


def test_flow_eigenvalue_values():
    q = P2.q
    a0, a1 = P2.a
    e = (1, -2)
    assert flow_eigenvalue(P2, e, "t", 2) == (1 - q**2) * (a0**2 - 2 * a1**2)
    assert flow_eigenvalue(P2, e, "tbar", 1) == (1 - 1 / q) * (1 / a0 - 2 / a1)
    # bilinear takes a term's eigenvalue as its exponents' dot product with
    # the per-wave rates
    for kind, order in (("t", 2), ("tbar", 1), ("t", 3)):
        rates = flow_rates(P2, kind, order)
        assert sum(x * r for x, r in zip(e, rates)) == flow_eigenvalue(P2, e, kind, order)
    with pytest.raises(ValueError):
        flow_rates(P2, "u", 1)


def test_bilinear_no_ops_is_product():
    tp = make_tau_plus(P2)
    tm = make_tau_minus(P2)
    assert bilinear(P2, [(tm, tp, [(F(1), [])])]) == sym_mul(tm, tp)


def test_bilinear_single_derivative_antisymmetric():
    tp = make_tau_plus(P2)
    tm = make_tau_minus(P2)
    op = BilinearOp("t", 1)
    a = bilinear(P2, [(tm, tp, [(F(1), [op])])])
    b = bilinear(P2, [(tp, tm, [(F(1), [op])])])
    assert sym_lin((1, a), (1, b)) == {}
    # as two rows of one residual the sum cancels without a Fraction built
    assert bilinear(P2, [(tm, tp, [(F(1), [op])]), (tp, tm, [(F(1), [op])])]) == {}


def test_bilinear_affine_power_expands():
    tp = make_tau_plus(P1)
    tm = make_tau_minus(P1)
    m = F(3, 7)

    def one(ops):
        return bilinear(P1, [(tm, tp, [(F(1), ops)])])

    sq = one([BilinearOp("t", 1, m)] * 2)
    d2 = one([BilinearOp("t", 1)] * 2)
    d1 = one([BilinearOp("t", 1)])
    d0 = one([])
    # sq - 2m d1 - m**2 d0 - d2
    assert sym_lin((1, sq), (-2 * m, d1), (-m * m, d0), (-1, d2)) == {}


def literal_bilinear(params, f, g, ops):
    """bilinear with both eigenvalues taken afresh for every term pair."""
    out = {}
    for (zf, ef), cf in f.items():
        for (zg, eg), cg in g.items():
            c = cf * cg
            for op in ops:
                lam = flow_eigenvalue(params, ef, op.kind, op.order)
                mu = flow_eigenvalue(params, eg, op.kind, op.order)
                c *= lam - mu + op.shift
            key = (zf + zg, tuple(x + y for x, y in zip(ef, eg)))
            out[key] = out.get(key, F(0)) + c
    return {k: v for k, v in out.items() if v}


@given(
    n=st.integers(0, 3),
    ops=st.lists(
        st.builds(
            BilinearOp,
            st.sampled_from(["t", "tbar"]),
            st.integers(1, 3),
            st.builds(F, st.integers(-5, 5), st.integers(1, 7)),
        ),
        max_size=4,
    ),
    shifted=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_bilinear_equals_the_per_pair_loop(n, ops, shifted):
    params = (P0, P1, P2, P3)[n]
    tp, tm = make_tau_plus(params), make_tau_minus(params)
    if shifted:
        tm, tp = tau_subs(tm, 1 / params.q), tau_subs(tp, params.q)
    for f, g in ((tm, tp), (tp, tm)):
        want = literal_bilinear(params, f, g, ops)
        assert bilinear(params, [(f, g, [(F(1), ops)])]) == want


_OPS = st.builds(
    BilinearOp,
    st.sampled_from(["t", "tbar"]),
    st.integers(1, 3),
    st.builds(F, st.integers(-2, 2), st.integers(1, 3)),
)

_TERMS = st.lists(
    st.tuples(
        st.builds(F, st.integers(-5, 5), st.integers(1, 7)),
        st.lists(_OPS, max_size=4),
    ),
    max_size=3,
)


@given(n=st.integers(0, 2), terms=_TERMS, shifted=st.booleans())
@settings(max_examples=40, deadline=None)
def test_bilinear_combination_is_the_weighted_sum_of_its_products(n, terms, shifted):
    # one walk over the term pairs equals one literal walk per product
    params = (P0, P1, P2)[n]
    tp, tm = make_tau_plus(params), make_tau_minus(params)
    if shifted:
        tm, tp = tau_subs(tm, 1 / params.q), tau_subs(tp, params.q)
    expect = sym_lin(*((c, literal_bilinear(params, tm, tp, ops)) for c, ops in terms))
    assert bilinear(params, [(tm, tp, terms)]) == expect


@given(
    n=st.integers(0, 2),
    rows=st.lists(
        st.tuples(st.sampled_from(["-+", "+-", "shifted", "miwa"]), _TERMS),
        max_size=3,
    ),
    s=st.sampled_from([F(1, 2), F(-1, 3), F(2, 3)]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_bilinear_of_rows_is_the_sum_of_their_literal_values(n, rows, s, seed):
    # a residual's rows over different tau pairs, on Hypothesis-drawn points
    params = sample_param_point(random.Random(seed), n, s=s)
    tp, tm, q = make_tau_plus(params), make_tau_minus(params), params.q
    pairs = {
        "-+": (tm, tp),
        "+-": (tp, tm),
        "shifted": (tau_subs(tm, 1 / q), tau_subs(tp, q)),
        "miwa": (miwa_shift(params, tm, "t", F(1, 11)), tp),
    }
    built = [(*pairs[kind], terms) for kind, terms in rows]
    expect = sym_lin(
        *((c, literal_bilinear(params, f, g, ops)) for f, g, terms in built for c, ops in terms)
    )
    assert bilinear(params, built) == expect


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bilinear_takes_each_eigenvalue_once_per_term(monkeypatch, n):
    # a term's eigenvalue is a dot product with its op's rates, and the
    # rates are taken once per distinct op and call: not 2 * 2**n times per
    # op (once per term), nor 2 * 4**n (once per term pair)
    params = (P0, P1, P2, P3)[n]
    tp, tm = make_tau_plus(params), make_tau_minus(params)
    assert len(tp) == len(tm) == 2**n
    ops = [BilinearOp("t", 1, F(1, 3))] * 2 + [BilinearOp("tbar", 2)]
    expect = literal_bilinear(params, tm, tp, ops)
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return flow_rates(*args)

    monkeypatch.setattr(soliton, "flow_rates", counting)
    assert bilinear(params, [(tm, tp, [(F(1), ops)])]) == expect
    assert calls == len(set(ops)) == 2
    # an op shared by two products, or by two rows, is taken once too
    calls = 0
    bilinear(params, [(tm, tp, [(F(1), ops[:1]), (F(1, 8), ops)])])
    assert calls == len(set(ops))
    calls = 0
    bilinear(params, [(tm, tp, [(F(1), ops)]), (tp, tm, [(F(1, 8), ops[1:])])])
    assert calls == len(set(ops))


def test_subs_scale_powers():
    sym = tau_subs(make_tau_plus(P2), F(3))
    base = make_tau_plus(P2)
    for (z, e), c in sym.items():
        assert c == base[(z, e)] * F(3) ** z


# #### numeric reconstruction ##################################################


def test_to_series_single_wave():
    f = tau_series(make_tau_plus(P1), (F(1, 2),))
    assert f == {0: F(1), 1: F(1, 2)}
    with pytest.raises(ValueError):
        tau_series(make_tau_plus(P1), (F(1, 2), F(1, 3)))
    with pytest.raises(ValueError):
        tau_series(make_tau_plus(P1), (F(0),))


def window_times(f: dict, window: int, p: dict) -> dict:
    """f * p on the degrees where every contribution is known, f being
    known on -window..window and p an exact Laurent polynomial."""
    lo, hi = -window + max(p), window + min(p)
    out = {e: F(0) for e in range(lo, hi + 1)}
    for d1, c1 in f.items():
        for d2, c2 in p.items():
            if lo <= d1 + d2 <= hi:
                out[d1 + d2] += c1 * c2
    return out


def on_range(p: dict, f: dict) -> dict:
    """The exact polynomial p on the degrees of f, zeros included."""
    return {e: p.get(e, F(0)) for e in f}


def test_eta_window_cross_multiplies_exactly():
    for params, b in ((P1, (F(1, 2),)), (P2, (F(1, 2), F(1, 3)))):
        q = params.q
        eta = eta_series_from_taus(params, b, 12)
        tp = tau_series(make_tau_plus(params), b)
        tm = tau_series(make_tau_minus(params), b)
        lhs = window_times(eta, 12, series_mul(tm, tp))
        rhs = series_mul(subs(tm, 1 / q), subs(tp, q))
        assert len(lhs) >= 20
        assert lhs == on_range({d: c * params.eps for d, c in rhs.items()}, lhs)


def test_xi_window_cross_multiplies_exactly():
    for params, b in ((P1, (F(1, 2),)), (P2, (F(1, 2), F(1, 3)))):
        s = params.s
        xi = xi_series_from_taus(params, b, 12)
        tp = tau_series(make_tau_plus(params), b)
        tm = tau_series(make_tau_minus(params), b)
        lhs = window_times(xi, 12, series_mul(subs(tm, 1 / s), subs(tp, s)))
        rhs = series_mul(subs(tm, s), subs(tp, 1 / s))
        assert len(lhs) >= 20
        assert lhs == on_range({d: c / params.eps for d, c in rhs.items()}, lhs)


def literal_inv_pairs(h, t, lo, hi):
    out = literal_div(h, t, lo, hi)
    return {e: (c.numerator, c.denominator) for e, c in out.items()}


@pytest.fixture
def literal_pipeline(monkeypatch):
    """Run a tau-ratio builder once as shipped and once with each part of the
    split expanded as the literal product with the Fraction-recurrence
    inverse; both build exact Fractions, the literal side from the reduced
    pair."""

    def both(build, *args):
        fast = build(*args)
        with monkeypatch.context() as m:
            m.setattr(soliton, "series_inv", literal_inv_pairs)
            return fast, build(*args)

    return both


@pytest.mark.parametrize("n", [0, 1, 2])
def test_tau_ratios_equal_the_literal_pipeline(literal_pipeline, n):
    # 144 is the window m3-consistency builds
    rng = random.Random(7)
    for window in (8, 16, 48, 144):
        params, b = sample_decaying(F(1, 2), rng, n)
        for build in (eta_series_from_taus, xi_series_from_taus):
            fast, literal = literal_pipeline(build, params, b, window)
            assert fast == literal
            assert list(fast) == list(range(-window, window + 1))


def test_evolve_reference_equals_the_literal_pipeline(literal_pipeline):
    # the amplitude as the evolve reference lifts it from a double
    b = (F(float(DEFAULT_AMPLITUDES[0]) * math.exp(0.75 * 5 / 36 * 0.37)),)
    assert b[0].denominator.bit_length() > 40
    for build in (eta_series_from_taus, xi_series_from_taus):
        fast, literal = literal_pipeline(build, DEFAULT_POINT, b, 64)
        assert fast == literal


# #### the split of the tau ratio ##############################################


def coprime_taus(tm, tp) -> bool:
    """Whether z**n tm (n = -min(tm)) and tp share no root: the tau ratio
    has an annulus to expand in.  A sampled point can put a root of one
    tau on the other."""
    return resultant({d - min(tm): c for d, c in tm.items()}, tp) != 0


def recorded_split(build, *args):
    """build(*args) and the one (num, tm, tp, hm, hp) its series_split saw.
    A draw whose taus share a root, which the split must refuse, is
    rejected."""
    calls = []

    def recording(num, tm, tp):
        calls.append((num, tm, tp))
        parts = series_split(num, tm, tp)
        calls[-1] += parts
        return parts

    with pytest.MonkeyPatch.context() as m:
        m.setattr(soliton, "series_split", recording)
        try:
            out = build(*args)
        except PoleError:
            ((_, tm, tp),) = calls
            assert not coprime_taus(tm, tp)
            reject()
    (call,) = calls
    return out, call


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 3),
    st.integers(0, 2**32 - 1),
    st.integers(0, 64),
    st.sampled_from([eta_series_from_taus, xi_series_from_taus]),
)
def test_split_parts_are_the_ratio_on_each_side(n, seed, window, build):
    # num == hm tp + hp tm exactly, hm below degree 0 and no lower than tm,
    # hp from 0 up, and each part's literal expansion is the ratio on its side
    rng = random.Random(seed)
    params = sample_param_point(rng, n)
    b = sample_amplitudes(rng, n)
    ratio, (num, tm, tp, hm, hp) = recorded_split(build, params, b, window)
    assert add(series_mul(hm, tp), series_mul(hp, tm)) == num
    assert all(min(tm) <= e < 0 for e in hm) and all(e >= 0 for e in hp)
    below = {e: c for e, c in ratio.items() if e < 0 and c}
    above = {e: c for e, c in ratio.items() if e >= 0 and c}
    assert literal_div(hm, tm, -window, -1) == below
    assert literal_div(hp, tp, 0, window) == above


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 3),
    st.integers(0, 2**32 - 1),
    st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 9)),
)
def test_split_refuses_a_shared_root_and_a_numerator_below_the_lower_tau(n, seed, w):
    rng = random.Random(seed)
    params = sample_param_point(rng, n)
    b = sample_amplitudes(rng, n)
    tp = tau_series(make_tau_plus(params), b)
    tm = tau_series(make_tau_minus(params), b)
    num = series_mul(subs(tm, 1 / params.q), subs(tp, params.q))
    assume(coprime_taus(tm, tp))
    series_split(num, tm, tp)
    # both taus times a factor vanishing at z = w
    tm_w, tp_w = series_mul(tm, {-1: -w, 0: ONE}), series_mul(tp, {0: ONE, 1: -1 / w})
    with pytest.raises(PoleError, match="share a root"):
        series_split(num, tm_w, tp_w)
    with pytest.raises(ArithmeticError, match="below the lower tau"):
        series_split({**num, min(tm) - 1: ONE}, tm, tp)


def test_tau_ratio_builds_one_fraction_per_output_degree(monkeypatch):
    # one wave's tau ratio with a float-lifted amplitude (49-bit
    # denominator): the expansion reduces one integer pair per nonzero
    # output degree, and the split builds as many Fractions at W = 16 as at
    # W = 64
    b = (F(0.5 * math.exp(0.75 * 5 / 36 * 0.37)),)
    q = DEFAULT_POINT.q
    tp = tau_series(make_tau_plus(DEFAULT_POINT), b)
    tm = tau_series(make_tau_minus(DEFAULT_POINT), b)
    num = series_mul(subs(tm, 1 / q), subs(tp, q))
    built = 0
    new = F.__new__

    def counting_new(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return new(cls, *args, **kwargs)

    in_split = []

    def counting_split(*args):
        before = built
        parts = series_split(*args)
        in_split.append(built - before)
        return parts

    for window in (16, 64):
        built = 0
        with monkeypatch.context() as m:
            m.setattr(F, "__new__", counting_new)
            m.setattr(soliton, "series_split", counting_split)
            out = soliton._annulus_ratio(num, tm, tp, window)
        assert list(out) == list(range(-window, window + 1))
        assert all(type(c) is F for c in out.values())
        assert 0 < built - in_split[-1] <= 2 * window + 1
    assert in_split[0] == in_split[1] > 0


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
    st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 9)).filter(
        lambda lam: lam != 1
    ),
)
def test_scaling_every_amplitude_scales_mode_m_by_its_inverse_power(n, seed, lam):
    # every term of tau_+- has z-degree equal to its total amplitude
    # exponent, so b -> lam b is z -> lam z and eta_m(lam b) =
    # lam**-m eta_m(b): at one wave the flow is such a scaling, which the
    # evolve reference rescales by.  Controls: the exponent -(m+1) fails, and
    # so does scaling one amplitude of a point with more than one wave
    rng = random.Random(seed)
    params, b = sample_param_point(rng, n), sample_amplitudes(rng, n)
    one = (lam * b[0],) + b[1:]
    # amplitudes whose taus share a root have no tau ratio; scaling every
    # amplitude moves the roots of both taus alike
    for amplitudes in (b, one):
        tm = tau_series(make_tau_minus(params), amplitudes)
        assume(coprime_taus(tm, tau_series(make_tau_plus(params), amplitudes)))

    def modes(amplitudes):
        return modes_from_series(eta_series_from_taus(params, amplitudes, 8))

    eta, scaled = modes(b), modes(tuple(lam * x for x in b))
    assert scaled == {m: lam**-m * c for m, c in eta.items()}
    assert scaled != {m: lam ** -(m + 1) * c for m, c in eta.items()}
    if n > 1:
        assert modes(one) != {m: lam**-m * c for m, c in eta.items()}


def test_zero_mode_is_amplitude_independent():
    for params, b1, b2 in (
        (P1, (F(1, 2),), (F(2, 3),)),
        (P2, (F(1, 2), F(1, 3)), (F(3, 5), F(2, 7))),
    ):
        e1 = eta_series_from_taus(params, b1, 8)
        e2 = eta_series_from_taus(params, b2, 8)
        assert e1[0] == e2[0]


def test_tau_ratio_keeps_zero_degrees():
    # no waves: the ratio is the constant eps, every other degree a stored 0
    eta = eta_series_from_taus(P0, (), 5)
    assert eta == {d: P0.eps if d == 0 else F(0) for d in range(-5, 6)}
    assert modes_from_series(eta)[4] == 0


def test_modes_from_series():
    eta = eta_series_from_taus(P1, (F(1, 2),), 6)
    m = modes_from_series(eta)
    assert set(m) == set(range(-6, 7))
    assert m[0] == eta[0]
    assert m[3] == eta[-3]


def test_mode_read_past_the_window_raises():
    # the window is max(f); a degree missing inside it is never read as zero
    eta = eta_series_from_taus(P1, (F(1, 2),), 6)
    del eta[-3]
    with pytest.raises(KeyError):
        modes_from_series(eta)


def test_decay_report():
    rep = decay_report(ParamPoint(s=F(1, 2), eps=F(1, 8), a=(F(5, 36),)), (F(1, 2),))
    assert rep["ok"]
    assert rep["outer_margin"] == F(1, 2)
    assert rep["inner_margin"] < F(3, 10)
    bad = decay_report(P1, (F(2),))
    assert not bad["ok"]


@pytest.mark.parametrize("n", [0, 1, 2])
def test_sample_decaying_draws_decaying_points(n):
    rng = random.Random(n)
    for _ in range(3):
        params, b = sample_decaying(F(1, 2), rng, n)
        assert params.s == F(1, 2) and params.n == len(b) == n
        assert decay_report(params, b)["ok"]


def test_sample_decaying_rejects_unsupported_wave_counts():
    for n in (-1, 3):
        with pytest.raises(ValueError):
            sample_decaying(F(1, 2), random.Random(0), n)


# #### specifications ##########################################################


def test_spec_round_trip():
    spec = {"s": "1/2", "eps": "1/8", "a": ["1/5", "-1/7"], "b": ["1", "1"]}
    params, b = parse_soliton_spec(spec)
    assert params == P2 and b == (1, 1)
    assert soliton_spec_json(params, b) == spec


def test_spec_errors():
    with pytest.raises(ValueError):
        parse_soliton_spec({"s": "1/2", "eps": "1/8", "a": ["1/5"], "b": []})
    with pytest.raises(ValueError):
        parse_soliton_spec({"s": "1/2", "eps": "1/8", "a": ["1/5"], "b": ["0"]})
    with pytest.raises(ValueError):
        parse_soliton_spec({"s": "1/2", "a": ["1/5"], "b": ["1"]})
