"""Mode algebra: bracket axioms, exactness bookkeeping, field builders, flows.

Oracle notes: bracket smalls are checked against the defining pairing;
Jacobi/Leibniz/antisymmetry run as property tests with uncapped products;
builder coefficients are checked against hand expansions of the generating
exponentials; the exponential builders of each field must agree cell by
cell with the dressing-ratio route written out below, which cross-validates
exp and rescaling at once; its tau inverses are the Neumann series
neumann_inv, a route independent of the package's exp(-tau_log), and
eta-xi's tau ratios as exponentials of tau logs are checked against it.
The integer product kernels are checked against the term-by-term Fraction
loops they replaced, and one bracket's Fraction constructions are counted.  The ring operations are checked
against Fraction dicts, value and canonical form, and every result of the
algebra, the delta products and the field builders against a copy of its
cells cut to the window rule (window_cells), an oracle for the
constructor's own check.  A delta product is the ratio kernel applied to
a one-variable series placed at w**0, as eta-xi builds it, and is checked
cell by cell against the literal per-cell sum.  hirota is checked
against literal_hirota, the recursion D f.g = (Df)g - f(Dg) with explicit
left and right brackets: for bare D's directly, and for the affine product
over a partition through the binomial sum for a power and the product
written out for the mixed partition (2, 1).  Packed monomials are checked
against the multiset of their modes: a product decodes to the union, and
weight, degree and sigma equal the tuple formulas, up to weight 255.  A
field bracketed with its own renamed cells, and hirota on one series, are
checked against the same call on an unshared copy of the cells, with the
pairings and brackets they save counted.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toda_bo import modes
from toda_bo.iom import M2_functional
from toda_bo.modes import (
    MAX_WEIGHT,
    AlphaPoly,
    AlphaSeries,
    Guarantee,
    ModeContext,
    ModeTrunc,
    apply_ratio_kernel,
    bracket,
    build_eta,
    build_phi,
    build_tau,
    build_xi,
    capped_mul,
    diff_rows,
    eta_zero,
    hirota,
    mono_degree,
    mono_powers,
    mono_sigma,
    mono_weight,
    poisson_pairing,
    poly_mul,
    tau_log,
    unit,
    xi_zero,
)
from toda_bo.scalar import numerators
from toda_bo.verify import quad_kernel_series

CTX = ModeContext(F(1, 2), F(1, 8), ModeTrunc(6, 6))
Q = CTX.q
BIG = 99  # effectively uncapped weight/degree for poly-level oracles


def certified_cells(series):
    g = series.guar
    for slot, poly in series.coeffs.items():
        span = sum(map(abs, slot))
        for m in poly.nums:
            if g.covers(span, mono_weight(m), mono_degree(m)):
                yield slot, m, poly.coeff(m)


def assert_certified_zero(series):
    bad = list(certified_cells(series))
    assert not bad, f"nonzero certified cells: {bad[:3]}"


def mono(*modes: int) -> int:
    """The packed monomial alpha_{n_1} ... alpha_{n_k}: a product of modes,
    so the sum of their units."""
    return sum(map(unit, modes))


def modes_of(m: int) -> tuple[int, ...]:
    """The sorted mode indices of a packed monomial, one per factor."""
    return tuple(sorted(n for n, e in mono_powers(m) for _ in range(e)))


def poly_of(coeffs: dict) -> AlphaPoly:
    """A mode polynomial from {monomial: rational}; zero values are dropped."""
    coeffs = {m: c for m, c in coeffs.items() if c}
    nums, den = numerators(coeffs.values())
    return AlphaPoly(dict(zip(coeffs, nums)), den)


def terms(p: AlphaPoly) -> dict:
    """p's coefficients as {monomial: Fraction}."""
    return {m: p.coeff(m) for m in p.nums}


def gen(n: int) -> AlphaPoly:
    """The mode alpha_n as a polynomial."""
    return AlphaPoly({mono(n): 1}, 1)


def deriv(p: AlphaPoly, n: int) -> AlphaPoly:
    """d/d alpha_n of p, read back from the rows that bracket() pairs."""
    if n not in (table := diff_rows(p)):
        return AlphaPoly.zero()
    rows, D = table[n]
    return AlphaPoly({m: c for m, _, _, c in rows}, D)


def window_cut(terms_: list, wcap, dcap) -> AlphaPoly:
    """The sum of _sum_products terms cut by the window routine to weight
    wcap and degree dcap, None for no cap: the cell at slot () of a window
    with those caps.  The window is a stand-in for a context, because
    ModeTrunc refuses the caps of 0 drawn here."""
    inf = float("inf")
    trunc = SimpleNamespace(
        n_modes=inf if wcap is None else wcap, d_deg=inf if dcap is None else dcap
    )
    return modes._window_cell(SimpleNamespace(trunc=trunc), (), terms_)


def window_mul(a: AlphaPoly, b: AlphaPoly, wcap, dcap) -> AlphaPoly:
    """a * b cut to weight wcap and degree dcap by the window routine."""
    return window_cut([(1, modes._poly_rows(a), modes._poly_rows(b))], wcap, dcap)


def poisson_poly(f: AlphaPoly, g: AlphaPoly) -> AlphaPoly:
    """Uncapped bracket of two mode polynomials, through the pairing and
    the window routine that bracket() applies cell by cell."""
    return window_cut(poisson_pairing(diff_rows(f), diff_rows(g), CTX), BIG, BIG)


def window_cells(ctx: ModeContext, coeffs: dict) -> dict:
    """A copy of coeffs cut to the window rule: each cell keeps the
    monomials of weight <= n_modes - its slot span and degree <= d_deg, and
    a cell left empty is dropped."""
    N, D = ctx.trunc.n_modes, ctx.trunc.d_deg
    out = {}
    for slot, p in coeffs.items():
        p = p.pruned(N - sum(map(abs, slot)), D)
        if p:
            out[slot] = p
    return out


def neumann_inv(t: AlphaSeries) -> AlphaSeries:
    """1 / t for a one-sided t with unit constant cell, as the Neumann series
    sum_k (1 - t)**k: 1 - t has no constant cell, so its k-th power starts
    at slot span k and the window ends the sum."""
    one = AlphaSeries(t.ctx, t.vars, {(0,): AlphaPoly.one()}, t.guar)
    u = one - t
    out = term = one
    while not term.is_zero():
        term = term * u
        out = out + term
    return out


def build_eta_ratio(ctx: ModeContext) -> AlphaSeries:
    """The field of build_eta via the dressing-series ratio
    eps * tau_-(z/q) tau_+(zq) / (tau_-(z) tau_+(z))."""
    tp = build_tau(ctx, "+")
    tm = build_tau(ctx, "-")
    num = tm.subs_scale(1 / ctx.q) * tp.subs_scale(ctx.q)
    return (num * neumann_inv(tm) * neumann_inv(tp)).scale(ctx.eps)


def build_xi_ratio(ctx: ModeContext) -> AlphaSeries:
    """The dual field of build_xi via the ratio
    (1/eps) tau_-(z s) tau_+(z/s) / (tau_-(z/s) tau_+(z s))."""
    tp = build_tau(ctx, "+")
    tm = build_tau(ctx, "-")
    num = tm.subs_scale(ctx.s) * tp.subs_scale(1 / ctx.s)
    den_inv = neumann_inv(tm.subs_scale(1 / ctx.s)) * neumann_inv(tp.subs_scale(ctx.s))
    return (num * den_inv).scale(1 / ctx.eps)


def alpha_polys():
    monos = st.lists(
        st.integers(-3, 3).filter(bool), min_size=0, max_size=3
    ).map(lambda xs: mono(*xs))
    return st.dictionaries(monos, st.integers(-4, 4).filter(bool), max_size=4).map(
        lambda d: AlphaPoly(d, 1)
    )


# #### polynomial layer ########################################################


def test_poly_arithmetic_smalls():
    a = gen(1)
    b = gen(-2)
    p = (a + b) * (a - b)
    assert p == poly_mul(a, a) - poly_mul(b, b)
    assert a - a == 0
    assert AlphaPoly.const(0) == AlphaPoly.zero()
    assert a * 2 - a - a == 0


def test_poly_diff():
    # d/da1 of a1^2 a_-2 = 2 a1 a_-2; d/da2 kills it
    p = poly_of({mono(-2, 1, 1): F(3)})
    assert deriv(p, 1) == poly_of({mono(-2, 1): F(6)})
    assert deriv(p, 2) == 0
    assert deriv(p, -2) == poly_of({mono(1, 1): F(3)})


def test_poly_mul_caps():
    p = poly_of({mono(1): F(1), mono(2, 2): F(1)})
    full = poly_mul(p, p)
    assert mono(1, 2, 2) in full.nums and mono(2, 2, 2, 2) in full.nums
    capped = capped_mul(ModeContext(F(1, 2), F(1, 8), ModeTrunc(3, 2)))(p, p)
    assert capped == poly_of({mono(1, 1): F(1)})


def test_mono_invariants():
    assert mono_weight(mono(-3, 1, 2)) == 6
    assert mono_sigma(mono(-3, 1, 2)) == 0


# #### packed monomials #######################################################
#
# A monomial is one int of 8-bit fields, so a product is one add; the
# fields cannot carry while the weight stays <= MAX_WEIGHT.


@st.composite
def mode_multisets(draw):
    """Nonzero modes of total weight <= MAX_WEIGHT, in random order; long
    runs of one mode (exponents up to 255) included."""
    budget, modes = MAX_WEIGHT, []
    runs = st.tuples(
        st.integers(-MAX_WEIGHT, MAX_WEIGHT).filter(bool), st.integers(1, MAX_WEIGHT)
    )
    for n, e in draw(st.lists(runs, max_size=6)):
        e = min(e, budget // abs(n))
        modes += [n] * e
        budget -= e * abs(n)
    return draw(st.permutations(modes))


@given(mode_multisets(), st.data())
@settings(max_examples=200)
def test_packed_product_is_the_multiset_union(modes, data):
    k = data.draw(st.integers(0, len(modes)))
    a, b = mono(*modes[:k]), mono(*modes[k:])
    assert Counter(dict(mono_powers(a + b))) == Counter(modes)
    assert modes_of(a + b) == tuple(sorted(modes))
    assert poly_mul(AlphaPoly({a: 1}, 1), AlphaPoly({b: 1}, 1)).nums == {a + b: 1}


@given(mode_multisets())
@settings(max_examples=200)
def test_packed_fields_equal_the_tuple_formulas(modes):
    m = mono(*modes)
    assert mono_weight(m) == sum(map(abs, modes))
    assert mono_degree(m) == len(modes)
    assert mono_sigma(m) == sum(modes)


def test_weight_limit_is_checked_at_the_edges():
    with pytest.raises(ValueError, match="at most 255"):
        ModeTrunc(MAX_WEIGHT + 1, 4)
    assert ModeTrunc(MAX_WEIGHT, 4).n_modes == 255
    # alpha_1**255 built by products is exact; one more factor would carry
    p = gen(1)
    for _ in range(254):
        p = poly_mul(p, gen(1))
    (m,) = p.nums
    assert p.nums == {mono(*[1] * 255): 1}
    assert (mono_weight(m), mono_degree(m), mono_powers(m)) == (255, 255, [(1, 255)])
    for n in (1, -1):
        with pytest.raises(ValueError, match="weight 255"):
            poly_mul(p, gen(n))
    # a cap inside the limit keeps the product safe: nothing survives it
    edge = ModeContext(F(1, 2), F(1, 8), ModeTrunc(MAX_WEIGHT, 2 * MAX_WEIGHT))
    assert capped_mul(edge)(p, gen(-1)) == 0


def test_repr_lists_sorted_modes():
    p = poly_of({mono(2, -1, 2): F(1, 2), mono(): 3, mono(-3): -1})
    assert repr(p) == "(3)*1 + (-1)*a[-3] + (1/2)*a[-1]*a[2]*a[2]"


# #### bracket axioms ##########################################################


def test_bracket_defining_pairs():
    for n in (1, 2, 3):
        got = poisson_poly(gen(n), gen(-n))
        assert got == AlphaPoly.const(1 - Q**n)
        got = poisson_poly(gen(-n), gen(n))
        assert got == AlphaPoly.const(-(1 - Q**n))
    assert poisson_poly(gen(1), gen(2)) == 0
    assert poisson_poly(gen(1), gen(1)) == 0


@given(alpha_polys(), alpha_polys())
@settings(max_examples=40)
def test_bracket_antisymmetry(f, g):
    ab = poisson_poly(f, g)
    ba = poisson_poly(g, f)
    assert ab == -ba


@given(alpha_polys(), alpha_polys(), alpha_polys())
@settings(max_examples=30)
def test_bracket_leibniz(f, g, h):
    lhs = poisson_poly(f, poly_mul(g, h))
    rhs = poly_mul(poisson_poly(f, g), h) + poly_mul(g, poisson_poly(f, h))
    assert lhs == rhs


@given(alpha_polys(), alpha_polys(), alpha_polys())
@settings(max_examples=30)
def test_bracket_jacobi(f, g, h):
    pb = poisson_poly
    total = pb(f, pb(g, h)) + pb(g, pb(h, f)) + pb(h, pb(f, g))
    assert total == 0


# #### integer kernels against the Fraction loops ###########################
#
# The literal_* functions are the term-by-term Fraction loops that poly_mul,
# poisson_pairing, bracket, AlphaSeries.__mul__ and apply_ratio_kernel ran
# before they moved onto integer numerators; the kernels must equal them
# exactly, zero sums included (never stored).  A capped product or pairing
# is checked through the window routine that cuts every capped cell.


def literal_poly_mul(a, b, max_weight=None, max_deg=None):
    return poly_of(literal_mul_terms(terms(a), terms(b), max_weight, max_deg))


def literal_mul_terms(ta, tb, max_weight, max_deg):
    """The capped product of two {monomial: Fraction} dicts, term by term."""
    out = {}
    wcap = float("inf") if max_weight is None else max_weight
    dcap = float("inf") if max_deg is None else max_deg
    for m1, c1 in ta.items():
        for m2, c2 in tb.items():
            if (
                mono_weight(m1) + mono_weight(m2) > wcap
                or mono_degree(m1) + mono_degree(m2) > dcap
            ):
                continue
            m = mono(*modes_of(m1), *modes_of(m2))
            v = out.get(m)
            v = c1 * c2 if v is None else v + c1 * c2
            if v:
                out[m] = v
            else:
                del out[m]
    return out


def literal_diff(p, n):
    out = {}
    for m, c in terms(p).items():
        m = modes_of(m)
        if n in m:
            i = m.index(n)
            out[mono(*m[:i], *m[i + 1:])] = c * m.count(n)
    return poly_of(out)


def literal_pairing(f, g, ctx, max_weight, max_deg):
    acc = AlphaPoly.zero()
    for n in range(1, ctx.trunc.n_modes + 1):
        c = ctx.one_minus_q(n)
        for sign in (1, -1):
            fn, gn = literal_diff(f, sign * n), literal_diff(g, -sign * n)
            acc = acc + literal_poly_mul(fn, gn, max_weight, max_deg) * (sign * c)
    return acc


def literal_bracket(Fs, Gs):
    ctx = Fs.ctx
    N, D = ctx.trunc.n_modes, ctx.trunc.d_deg
    out = {}
    for sa, pa in Fs.coeffs.items():
        for sb, pb in Gs.coeffs.items():
            span = sum(map(abs, sa + sb))
            if span <= N:
                acc = literal_pairing(pa, pb, ctx, N - span, D)
                if acc:
                    out[sa + sb] = acc
    return AlphaSeries(ctx, Fs.vars + Gs.vars, out, Fs.guar.after_bracket(Gs.guar))


def literal_series_mul(A, B):
    N, D = A.ctx.trunc.n_modes, A.ctx.trunc.d_deg
    same = A.vars == B.vars
    out = {}
    for sa, pa in A.coeffs.items():
        for sb, pb in B.coeffs.items():
            slot = tuple(x + y for x, y in zip(sa, sb)) if same else sa + sb
            span = sum(map(abs, slot))
            if span <= N:
                prod = literal_poly_mul(pa, pb, N - span, D)
                r = out.get(slot, AlphaPoly.zero()) + prod
                if r:
                    out[slot] = r
                else:
                    out.pop(slot, None)
    return out


def literal_ratio_kernel(Fs, kernel, pair):
    ia, ib = pair
    N = Fs.ctx.trunc.n_modes
    out = {}
    for slot, p in Fs.coeffs.items():
        for l, k in kernel.items():
            tgt = list(slot)
            tgt[ia] -= l
            tgt[ib] += l
            if k and abs(tgt[ia]) <= N and abs(tgt[ib]) <= N:
                r = out.get(tuple(tgt), AlphaPoly.zero()) + p * k
                if r:
                    out[tuple(tgt)] = r
                else:
                    out.pop(tuple(tgt), None)
    out = window_cells(Fs.ctx, out)
    return AlphaSeries(Fs.ctx, Fs.vars, out, Fs.guar.kern_derate())


def scalars():
    """Nonzero ints and Fractions of either sign."""
    return st.one_of(
        st.integers(-4, 4),
        st.fractions(min_value=-3, max_value=3, max_denominator=6),
    ).filter(bool)


def mixed_polys(max_size=5):
    monos = st.lists(
        st.integers(-3, 3).filter(bool), min_size=0, max_size=3
    ).map(lambda xs: mono(*xs))
    return st.dictionaries(monos, scalars(), max_size=max_size).map(poly_of)


def caps():
    """A weight cap and a degree cap, each possibly absent."""
    return (
        st.one_of(st.none(), st.integers(0, 8)),
        st.one_of(st.none(), st.integers(0, 5)),
    )


def balanced_series():
    """Two-variable series on CTX: each term sits at a slot (a, b) with
    a + b = -sigma(monomial), as balance requires, and the cells are cut to
    the window rule."""
    cell = st.tuples(st.integers(-2, 2), mixed_polys(1))

    def build(cells):
        coeffs = {}
        for a, p in cells:
            for m, c in terms(p).items():
                slot = (a, -mono_sigma(m) - a)
                coeffs[slot] = coeffs.get(slot, AlphaPoly.zero()) + poly_of({m: c})
        coeffs = window_cells(CTX, coeffs)
        return AlphaSeries(CTX, ("z", "w"), coeffs, Guarantee(6, 6, 6))

    return st.lists(cell, max_size=8).map(build)


@given(
    mixed_polys(),
    mixed_polys(),
    *caps(),
    st.builds(ModeTrunc, st.integers(1, 12), st.integers(1, 6)),
)
@settings(max_examples=60)
def test_poly_mul_equals_fraction_loop(a, b, wcap, dcap, trunc):
    assert terms(poly_mul(a, b)) == terms(literal_poly_mul(a, b))
    got = window_mul(a, b, wcap, dcap)
    assert terms(got) == terms(literal_poly_mul(a, b, wcap, dcap))
    assert all(terms(got).values())
    # a functional's window cut is the uncapped product pruned to the window;
    # products reach weight 18 and degree 6: about half the draws drop some
    ctx = ModeContext(F(1, 2), F(1, 8), trunc)
    assert capped_mul(ctx)(a, b) == (a * b).pruned(trunc.n_modes, trunc.d_deg)


def test_poly_mul_cancelled_sums_are_not_stored():
    a, b = gen(1), gen(-2) * F(3, 4)
    got = poly_mul(a + b, a - b)
    assert terms(got) == {mono(1, 1): 1, mono(-2, -2): -F(9, 16)}
    assert poly_mul(poly_of({mono(1): 2}), poly_of({mono(-1): 3, mono(2): -1})) == (
        poly_of({mono(-1, 1): F(6), mono(1, 2): F(-2)})
    )


# #### canonical form against Fraction dicts ##################################
#
# A polynomial is nums over den, with den the lcm of the reduced coefficient
# denominators and gcd(den, *nums) == 1; every operation must land there, so
# that == on (nums, den) is == on values.


def assert_canonical(p: AlphaPoly):
    assert all(isinstance(v, int) and v for v in p.nums.values())
    assert p.den == math.lcm(*(p.coeff(m).denominator for m in p.nums))
    assert math.gcd(p.den, *p.nums.values()) == 1


def fraction_sum(ta: dict, tb: dict, sign: int) -> dict:
    out = dict(ta)
    for m, c in tb.items():
        v = out.get(m, 0) + sign * c
        if v:
            out[m] = v
        else:
            del out[m]
    return out


@given(mixed_polys(), mixed_polys(), scalars(), *caps())
@settings(max_examples=80)
def test_poly_ring_is_canonical_and_equals_fraction_dicts(a, b, c, wcap, dcap):
    ta, tb = terms(a), terms(b)
    w = BIG if wcap is None else wcap
    d = BIG if dcap is None else dcap
    cases = [
        (a, ta),
        (a + b, fraction_sum(ta, tb, 1)),
        (a - b, fraction_sum(ta, tb, -1)),
        (-a, {m: -v for m, v in ta.items()}),
        (a * c, {m: v * c for m, v in ta.items()}),
        (c * a, {m: v * c for m, v in ta.items()}),
        (a * 0, {}),
        (window_mul(a, b, wcap, dcap), literal_mul_terms(ta, tb, wcap, dcap)),
        (
            a.pruned(w, d),
            {
                m: v
                for m, v in ta.items()
                if mono_weight(m) <= w and mono_degree(m) <= d
            },
        ),
        ((a + b) - b, ta),
        ((a - b) + b, ta),
        (a - a, {}),
        (AlphaPoly.const(c), {mono(): F(c)}),
        (AlphaPoly.const(0), {}),
        (AlphaPoly.one(), {mono(): 1}),
        (AlphaPoly.zero(), {}),
    ]
    for got, want in cases:
        assert terms(got) == want
        assert_canonical(got)
    assert (a == b) == (ta == tb)
    assert a + b == b + a and (a - a) == AlphaPoly.zero()
    assert (a == c) == (ta == {mono(): F(c)})
    assert AlphaPoly.const(c) == c and AlphaPoly.zero() == 0


def test_poly_sums_reduce_to_lowest_terms():
    # 1/6 + 1/3 = 1/2 and -1/6 + 1/6 = 0: the sum's den drops from 6 to 2
    a = poly_of({mono(1): F(1, 6), mono(2): F(1, 6)})
    b = poly_of({mono(1): F(1, 3), mono(2): F(-1, 6)})
    s = a + b
    assert (s.nums, s.den) == ({mono(1): 1}, 2)
    assert ((a - a).nums, (a - a).den) == ({}, 1)
    assert (a * 6).den == 1 and (a * 6).nums == {mono(1): 1, mono(2): 1}
    assert (a * F(3, 2)).den == 4
    assert (s.pruned(0, 5).nums, s.pruned(0, 5).den) == ({}, 1)


@given(mixed_polys(), mixed_polys(), st.sampled_from([BIG, 0, 2, 4]), st.integers(0, 4))
@settings(max_examples=60)
def test_pairing_equals_fraction_loop(f, g, wcap, dcap):
    got = window_cut(poisson_pairing(diff_rows(f), diff_rows(g), CTX), wcap, dcap)
    assert terms(got) == terms(literal_pairing(f, g, CTX, wcap, dcap))
    assert all(terms(got).values())


def test_pairing_cancelled_sums_are_not_stored():
    # {f, f} = 0 term by term: the n and -n halves cancel in one accumulator
    f = poly_of({mono(-1, 1): F(2, 3), mono(-2, 2): -1})
    assert terms(poisson_poly(f, f)) == {}
    assert terms(literal_pairing(f, f, CTX, BIG, BIG)) == {}


@given(
    balanced_series(),
    st.dictionaries(st.integers(-4, 4), scalars() | st.just(0), max_size=4),
    st.sampled_from([(0, 1), (1, 0)]),
)
@settings(max_examples=60)
def test_ratio_kernel_equals_fraction_loop(Fs, kernel, pair):
    got = apply_ratio_kernel(Fs, kernel, pair)
    want = literal_ratio_kernel(Fs, kernel, pair)
    assert got.coeffs == want.coeffs and got.guar == want.guar


def test_ratio_kernel_cancelled_target_is_not_stored():
    m = poly_of({mono(-1, 1): F(1, 3)})
    Fs = AlphaSeries(CTX, ("z", "w"), {(1, -1): m, (-1, 1): m}, Guarantee(6, 6, 6))
    got = apply_ratio_kernel(Fs, {1: F(2), -1: -2}, (0, 1))
    assert (0, 0) not in got.coeffs
    assert got.coeffs == literal_ratio_kernel(Fs, {1: F(2), -1: -2}, (0, 1)).coeffs


@pytest.mark.parametrize("trunc", [ModeTrunc(4, 4), ModeTrunc(6, 4)])
def test_field_kernels_equal_fraction_loops(trunc):
    ctx = ModeContext(F(1, 2), F(1, 8), trunc)
    ez, xz = build_eta(ctx), build_xi(ctx)
    ew, xw = ez.renamed("w"), xz.renamed("w")
    for lhs, rhs in ((ez, ew), (ez, xw), (xw, ez)):
        assert bracket(lhs, rhs).coeffs == literal_bracket(lhs, rhs).coeffs
    assert (ez * xw).coeffs == literal_series_mul(ez, xw)
    assert (ez * xz).coeffs == literal_series_mul(ez, xz)
    N = trunc.n_modes
    # eta-eta's kernel: sgn(l) (1 - q**|l|)
    kernel = {l: ctx.one_minus_q(abs(l)) * (l // abs(l)) for l in range(-N, N + 1) if l}
    prod = ez * ew
    got = apply_ratio_kernel(prod, kernel, (0, 1))
    assert got.coeffs == literal_ratio_kernel(prod, kernel, (0, 1)).coeffs
    # targets of span N are kept, those past N skipped
    assert N in {sum(map(abs, slot)) for slot in got.coeffs}


def test_bracket_builds_no_fraction_beyond_the_pairing_table(monkeypatch):
    # the Fraction loop built several Fractions per pair of terms (2576 for
    # 122 stored monomials here), and the first integer kernel one per
    # stored monomial; on numerators the bracket builds none beyond the
    # context's (1 - q**n) table, a few per n.  The eps is this test's own,
    # so the table is cold and the count is not zero.
    ctx = ModeContext(F(1, 2), F(1, 7), ModeTrunc(6, 6))
    ez = build_eta(ctx)
    ew = ez.renamed("w")
    built = 0
    new = F.__new__

    def counting_new(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return new(cls, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(F, "__new__", counting_new)
        out = bracket(ez, ew)
    stored = sum(len(p.nums) for p in out.coeffs.values())
    assert stored == 122
    assert 0 < built <= 5 * ctx.trunc.n_modes


# #### guarantee calculus ######################################################


def test_guarantee_rules():
    a = Guarantee(12, 12, 6)
    b = Guarantee(10, 5, 6)
    assert a.meet(b) == Guarantee(10, 5, 6)
    assert a.after_bracket(b) == Guarantee(5, 5, 5)
    assert b.kern_derate() == Guarantee(10, 5, 6)
    assert Guarantee(12, 12, 6).kern_derate() == Guarantee(12, 6, 6)
    assert a.covers(6, 6, 6) and not a.covers(7, 6, 6)
    assert not b.covers(0, 6, 1)
    assert not Guarantee(-1, -1, -1).covers(0, 0, 0)  # the empty region


def test_series_balance_enforced():
    with pytest.raises(AssertionError):
        AlphaSeries(CTX, ("z",), {(1,): gen(1)}, Guarantee(6, 6, 6))


def test_series_pruning():
    # weight 4 at slot 4 exceeds the budget 6: the window rule drops it, and
    # the constructor accepts the cut cells. A degree-4 cell past d_deg 2 is
    # dropped the same way
    g = Guarantee(6, 6, 6)
    cut = window_cells(CTX, {(4,): gen(-4), (1,): gen(-1)})
    assert sorted(AlphaSeries(CTX, ("z",), cut, g).coeffs) == [(1,)]
    low_degree = ModeContext(F(1, 2), F(1, 8), ModeTrunc(6, 2))
    over_degree = {(): poly_of({mono(1, -1, 1, -1): 1})}
    assert AlphaSeries(CTX, (), over_degree, g).coeffs == over_degree
    assert window_cells(low_degree, over_degree) == {}


def test_capped_path_checks_balance_and_guard_sees_overweight_cells():
    # negative controls: the one constructor stores what it is given, so it
    # refuses, rather than drops, an unbalanced cell, an overweight cell
    # (weight 4 at slot 4 passes n_modes 6), an over-degree cell (degree 4
    # past d_deg 2 at weight 4) and an empty cell
    g = Guarantee(6, 6, 6)
    low_degree = ModeContext(F(1, 2), F(1, 8), ModeTrunc(6, 2))
    over_degree = {(): poly_of({mono(1, -1, 1, -1): 1})}
    with pytest.raises(AssertionError, match="balance"):
        AlphaSeries(CTX, ("z",), {(1,): gen(1)}, g)
    with pytest.raises(AssertionError, match="window rule"):
        AlphaSeries(CTX, ("z",), {(4,): gen(-4), (1,): gen(-1)}, g)
    with pytest.raises(AssertionError, match="window rule"):
        AlphaSeries(low_degree, (), over_degree, g)
    with pytest.raises(AssertionError, match="empty"):
        AlphaSeries(CTX, ("z",), {(0,): AlphaPoly.zero()}, g)


def test_failed_construction_names_the_monomial():
    # the checks run inline; the message that names the first offending
    # monomial, balance before the window rule, is built on failure only
    g = Guarantee(6, 6, 6)
    low_degree = ModeContext(F(1, 2), F(1, 8), ModeTrunc(6, 2))
    cases = [
        (CTX, ("z",), {(1,): gen(1)}, "balance violated at slot (1,): powers [(1, 1)]"),
        (
            CTX,
            ("z",),
            {(-1,): gen(1), (2,): poly_of({mono(-2): 1, mono(-4, 1, 1): 2})},
            "window rule violated at slot (2,): powers [(1, 2), (-4, 1)]",
        ),
        (  # unbalanced and overweight: named for balance
            CTX,
            ("z",),
            {(4,): poly_of({mono(5): 1})},
            "balance violated at slot (4,): powers [(5, 1)]",
        ),
        (
            low_degree,
            (),
            {(): poly_of({mono(1, -1): 1, mono(1, -1, 1, -1): 1})},
            "window rule violated at slot (): powers [(1, 2), (-1, 2)]",
        ),
    ]
    for ctx, vars, cells, message in cases:
        with pytest.raises(AssertionError) as info:
            AlphaSeries(ctx, vars, cells, g)
        assert str(info.value) == message


@pytest.mark.parametrize("trunc", [ModeTrunc(7, 3), ModeTrunc(6, 2)])
def test_capped_results_equal_their_pruned_rebuild(trunc):
    # every producer trims its own cells: cutting any output to the window
    # rule, independently of the constructor's check, must change no cell.
    # The truncations let a cap one too loose show: an odd n_modes for
    # weight (slot span + weight is even on balanced cells), a small d_deg
    # for degree
    ctx = ModeContext(F(1, 2), F(1, 8), trunc)
    ez = build_eta(ctx)
    ew = ez.renamed("w")
    tp, tm = build_tau(ctx, "+"), build_tau(ctx, "-")
    phi = build_phi(ctx, "+")
    N = trunc.n_modes
    kernel = {l: ctx.one_minus_q(abs(l)) * (l // abs(l)) for l in range(-N, N + 1) if l}
    outputs = {
        "eta": ez,
        "xi": build_xi(ctx).renamed("w"),
        "tau+": tp,
        "tau-": tm,
        "phi+": phi,
        "phi-": build_phi(ctx, "-"),
        "tensor product": ez * ew,
        "slotwise product": tp * tm,
        "bracket": bracket(ez, ew),
        "flow bracket": bracket(eta_zero(ctx), tm),
        "ratio kernel": apply_ratio_kernel(ez * ew, kernel, (0, 1)),
        "delta product": delta_product(F(1, 2), tp * neumann_inv(tm)),
        "exp": build_phi(ctx, "-").exp(),
        "sum": tp + tm,
        "difference": tp - ez,
        "negation": -tm,
        "scale": ez.scale(F(-2, 3)),
        "subs_scale": tm.subs_scale(1 / ctx.q),
        "slice_sign": ez.slice_sign(-1),
    }
    for pick, X in zip(("pp", "pm", "mp", "mm"), quad_kernel_series(ctx)):
        outputs[f"quad kernel {pick}"] = X
    for name, X in outputs.items():
        assert X.coeffs, name
        assert window_cells(ctx, X.coeffs) == X.coeffs, name


def test_series_difference_equals_sum_with_negation():
    # X - Y subtracts in one pass; it must give X + (-Y)'s cells and guarantee
    ctx = ModeContext(F(1, 2), F(1, 8), ModeTrunc(4, 4))
    eta, tp, tm = build_eta(ctx), build_tau(ctx, "+"), build_tau(ctx, "-")
    narrow = AlphaSeries(ctx, tp.vars, tp.coeffs, Guarantee(2, 2, 2))
    for x, y in ((eta, tp), (tp, eta), (tm, tp), (eta, narrow), (narrow, tm), (tp, tp * tm)):
        diff, want = x - y, x + (-y)
        assert diff.coeffs == want.coeffs
        assert diff.guar == want.guar
        assert diff.coeffs
    assert (eta - eta).coeffs == {}
    assert (tp - tp).coeffs == {}
    for slot, p in eta.coeffs.items():
        q = tp.coeff(slot)
        assert p - q == p + (-q)
        assert not (p - p).nums


def test_multivar_same_var_product_certifies_nothing():
    # convolving in two shared variables would certify no cell, so it is refused
    e = build_eta(CTX)
    x = build_xi(CTX).renamed("w")
    two = e * x
    for other in (two, e):
        with pytest.raises(ValueError, match="one variable or none"):
            two * other


# #### field builders ##########################################################


def test_tau_plus_low_coefficients():
    tp = build_tau(CTX, "+")
    assert tp.coeff((0,)) == AlphaPoly.one()
    assert tp.coeff((1,)) == gen(-1) * (-1 / (1 - Q))
    expect2 = gen(-2) * (-1 / (1 - Q**2)) + poly_mul(
        gen(-1), gen(-1)
    ) * (F(1, 2) / (1 - Q) ** 2)
    assert tp.coeff((2,)) == expect2
    assert all(s[0] >= 0 for s in tp.coeffs)


def test_tau_minus_mirrors_plus():
    tm = build_tau(CTX, "-")
    tp = build_tau(CTX, "+")
    flip = {(-s[0],): p for s, p in tp.coeffs.items()}
    for slot, poly in tm.coeffs.items():
        mirrored = poly_of(
            {mono(*(-n for n in modes_of(m))): c for m, c in terms(flip[slot]).items()}
        )
        assert poly == mirrored


def test_log_tau_recovers_linear_form():
    # log coefficients L_n of tau_+ = sum c_n z**n from z d/dz tau = tau z d/dz L:
    # n L_n = n c_n - sum_{0<j<n} j L_j c_{n-j}
    tp = build_tau(CTX, "+")
    lg = {}
    for n in range(1, 4):
        acc = tp.coeff((n,)) * n
        for j in range(1, n):
            acc = acc - poly_mul(lg[j], tp.coeff((n - j,))) * j
        lg[n] = acc * F(1, n)
        assert lg[n] == gen(-n) * (-1 / (1 - Q**n))


def test_exp_needs_one_sided_support():
    two_sided = build_phi(CTX, "+") + build_phi(CTX, "-")
    with pytest.raises(ValueError, match="one-sided"):
        two_sided.exp()


def test_phi_builders():
    assert build_phi(CTX, "+").coeff((2,)) == gen(-2)
    assert build_phi(CTX, "-").coeff((-2,)) == -gen(2)


def test_eta_exponential_equals_dressing_ratio():
    a = build_eta(CTX)
    b = build_eta_ratio(CTX)
    assert set(a.coeffs) == set(b.coeffs)
    for s in a.coeffs:
        assert a.coeff(s) == b.coeff(s)


def test_xi_exponential_equals_dressing_ratio():
    a = build_xi(CTX)
    b = build_xi_ratio(CTX)
    assert set(a.coeffs) == set(b.coeffs)
    for s in a.coeffs:
        assert a.coeff(s) == b.coeff(s)


def test_eta_zero_low_degrees():
    h = eta_zero(CTX).functional_value()
    eps = CTX.eps
    deg2 = poly_of({m: c for m, c in terms(h).items() if mono_degree(m) == 2})
    assert deg2 == poly_of({mono(-n, n): eps for n in (1, 2, 3)})
    assert h.coeff(mono()) == eps
    assert h.coeff(mono(-1, -1, 1, 1)) == eps / 4


def test_xi_zero_low_degrees():
    x = xi_zero(CTX).functional_value()
    s = CTX.s
    deg2 = poly_of({m: c for m, c in terms(x).items() if mono_degree(m) == 2})
    want = {mono(-n, n): (1 / CTX.eps) * s ** (-2 * n) for n in (1, 2, 3)}
    assert deg2 == poly_of(want)


def test_eta_mode_indexing():
    e = build_eta(CTX)
    # coefficient of z**-n carries modes summing to +n
    for m in e.mode(2).nums:
        assert mono_sigma(m) == 2


# #### flows and bilinear operators ############################################


def test_flow_tau_minus_is_negative_slice_times_tau():
    h0 = eta_zero(CTX)
    tm = build_tau(CTX, "-")
    eta = build_eta(CTX)
    lhs = bracket(h0, tm)
    rhs = eta.slice_sign(-1) * tm
    assert_certified_zero(lhs - rhs)


def test_flow_tau_plus_is_minus_positive_slice_times_tau():
    h0 = eta_zero(CTX)
    tp = build_tau(CTX, "+")
    eta = build_eta(CTX)
    lhs = bracket(h0, tp)
    rhs = (eta.slice_sign(1) * tp).scale(-1)
    assert_certified_zero(lhs - rhs)


def test_first_flow_of_eta_closes_in_eta():
    # d/dt eta = eta * (eta_up - eta_up(zq) - eta_dn + eta_dn(z/q))
    h0 = eta_zero(CTX)
    eta = build_eta(CTX)
    lhs = bracket(h0, eta)
    up = eta.slice_sign(1)
    dn = eta.slice_sign(-1)
    rhs = eta * (up - up.subs_scale(Q) - dn + dn.subs_scale(1 / Q))
    assert_certified_zero(lhs - rhs)


def test_second_flow_of_eta_is_dressing_difference():
    xi0 = xi_zero(CTX)
    eta = build_eta(CTX)
    lhs = bracket(eta, xi0)
    tp = build_tau(CTX, "+")
    tm = build_tau(CTX, "-")
    gp = tp.subs_scale(Q) * tp.subs_scale(1 / Q) * neumann_inv(tp) * neumann_inv(tp)
    gm = tm.subs_scale(Q) * tm.subs_scale(1 / Q) * neumann_inv(tm) * neumann_inv(tm)
    assert_certified_zero(lhs - (gp - gm))


@pytest.mark.parametrize("trunc", [ModeTrunc(12, 6), ModeTrunc(14, 7)])
def test_tau_ratios_as_exponentials_equal_the_inverse_route(trunc):
    # tau is exp(tau_log), and eta-xi's G = tau(qz) tau(z/q) / tau(z)**2 is
    # exp(L(qz) + L(z/q) - 2 L(z)): the same cells and guarantee as the
    # product with the Neumann inverse
    ctx = ModeContext(F(1, 2), F(1, 8), trunc)
    q = ctx.q
    for sign in ("+", "-"):
        L, t = tau_log(ctx, sign), build_tau(ctx, sign)
        assert_same_series(L.exp(), t)
        ti = neumann_inv(t)
        want = t.subs_scale(q) * t.subs_scale(1 / q) * ti * ti
        got = (L.subs_scale(q) + L.subs_scale(1 / q) - L.scale(2)).exp()
        assert_same_series(got, want)


def test_flow_hamiltonians_commute():
    h0 = eta_zero(CTX)
    xi0 = xi_zero(CTX)
    assert_certified_zero(bracket(h0, xi0))


def test_hirota_requires_functionals():
    h0, eta = eta_zero(CTX), build_eta(CTX)
    tm, tp = build_tau(CTX, "-"), build_tau(CTX, "+")
    for factors in ([(eta, None)], [(h0, eta)], [(h0, None), (eta, h0)]):
        with pytest.raises(ValueError, match="functionals"):
            hirota(factors, tm, tp)


def side_flow(H, side: str, F):
    """{H, F} for side "left", {F, H} for side "right"."""
    return bracket(H, F) if side == "left" else bracket(F, H)


def literal_hirota(ops, f, g):
    """D f.g = (Df)g - f(Dg), iterated over ops [(H, side)] by recursion,
    every flow recomputed on every branch: the reference for hirota."""
    if not ops:
        return f * g
    (H, side), rest = ops[0], ops[1:]
    left = literal_hirota(rest, side_flow(H, side, f), g)
    return left - literal_hirota(rest, f, side_flow(H, side, g))


def assert_same_series(got, want):
    assert got.coeffs and got.coeffs == want.coeffs
    assert got.guar == want.guar


@pytest.mark.parametrize("case", ["D1", "Dbar1", "D1 Dbar1"])
def test_hirota_equals_the_literal_recursion(case):
    # the t-bar flow {., xi_0} enters hirota as the flow of -xi_0; D1 Dbar1
    # on (tau, tau) is the toda lhs, flows applied in factor order
    h0, x0 = eta_zero(CTX), xi_zero(CTX)
    tm, tp = build_tau(CTX, "-"), build_tau(CTX, "+")
    factors, ops, pairs = {
        "D1": ([(h0, None)], [(h0, "left")], [(tm, tp)]),
        "Dbar1": ([(-x0, None)], [(x0, "right")], [(tm, tp)]),
        "D1 Dbar1": (
            [(h0, None), (-x0, None)],
            [(h0, "left"), (x0, "right")],
            [(tp, tp), (tm, tm)],
        ),
    }[case]
    for f, g in pairs:
        assert_same_series(hirota(factors, f, g), literal_hirota(ops, f, g))


def test_hirota_single_on_equal_pair_vanishes():
    h0 = eta_zero(CTX)
    tm = build_tau(CTX, "-")
    assert hirota([(h0, None)], tm, tm).is_zero()


def test_hirota_antisymmetric_in_pair_swap():
    h0 = eta_zero(CTX)
    tm = build_tau(CTX, "-")
    tp = build_tau(CTX, "+")
    a = hirota([(h0, None)], tm, tp)
    b = hirota([(h0, None)], tp, tm)
    assert (a + b).is_zero()


def test_hirota_affine_power_expansion():
    h0 = eta_zero(CTX)
    m1 = AlphaSeries.functional(CTX, eta_zero(CTX).functional_value(), h0.guar)
    tm = build_tau(CTX, "-")
    tp = build_tau(CTX, "+")
    got = hirota([(h0, m1)] * 2, tm, tp)
    d0 = literal_hirota([], tm, tp)
    d1 = literal_hirota([(h0, "left")], tm, tp)
    d2 = literal_hirota([(h0, "left")] * 2, tm, tp)
    expect = d2 + (m1 * d1).scale(2) + m1 * m1 * d0
    diff = got - expect
    assert all(not p for p in diff.coeffs.values())


@pytest.mark.parametrize("lam", [(), (1,), (1, 1), (1, 1, 1), (2, 1)])
def test_hirota_affine_product_over_a_partition(lam):
    # prod_i (D_{l_i} + l_i M_{l_i}) over a partition: a pure power is the
    # binomial sum, the mixed (2, 1) the four-term product written out
    M = {1: eta_zero(CTX), 2: M2_functional(CTX)}
    tm = build_tau(CTX, "-")
    tp = build_tau(CTX, "+")
    got = hirota([(M[o], M[o].scale(o)) for o in lam], tm, tp)
    if lam == (2, 1):
        d0 = literal_hirota([], tm, tp)
        d1, d2 = (literal_hirota([(M[o], "left")], tm, tp) for o in (1, 2))
        d21 = literal_hirota([(M[2], "left"), (M[1], "left")], tm, tp)
        m1, m2 = M[1], M[2].scale(2)
        expect = d21 + m1 * d2 + m2 * d1 + (m2 * m1) * d0
    else:  # sum_j C(p, j) M_1**(p - j) D_1**j
        p = len(lam)
        d = [literal_hirota([(M[1], "left")] * j, tm, tp) for j in range(p + 1)]
        expect = d[p]
        for j in range(p):
            mpow = math.prod([M[1]] * (p - j - 1), start=M[1])
            expect = expect + (mpow * d[j]).scale(math.comb(p, j))
    assert_same_series(got, expect)


# #### one computation per shared quantity ###################################


def unshared(series: AlphaSeries, *vars) -> AlphaSeries:
    """The same cells in a dict of their own, under vars (or the same)."""
    return AlphaSeries(series.ctx, vars or series.vars, dict(series.coeffs), series.guar)


@pytest.mark.parametrize("trunc", [ModeTrunc(4, 4), ModeTrunc(6, 4), ModeTrunc(7, 3)])
@pytest.mark.parametrize("field", ["eta", "xi", "tau+", "tau-"])
def test_self_bracket_equals_the_bracket_of_unshared_cells(monkeypatch, trunc, field):
    # {F(z), F(w)} with w sharing z's cells pairs each unordered pair of
    # cells once and negates it for the other; an unshared copy pairs all
    ctx = ModeContext(F(1, 2), F(1, 8), trunc)
    builds = {"eta": build_eta, "xi": build_xi}
    Fz = builds[field](ctx) if field in builds else build_tau(ctx, field[-1])
    pairings = []

    def counting(*args):
        pairings.append(1)
        return poisson_pairing(*args)

    monkeypatch.setattr(modes, "poisson_pairing", counting)
    got = bracket(Fz, Fz.renamed("w"))
    shared = len(pairings)
    want = bracket(Fz, unshared(Fz, "w"))
    assert got.coeffs == want.coeffs and got.guar == want.guar
    assert list(got.coeffs) == list(want.coeffs)  # the same cell order too
    assert got.coeffs == literal_bracket(Fz, unshared(Fz, "w")).coeffs
    if field in builds:
        assert got.coeffs
        assert 2 * shared < len(pairings) - shared


@pytest.mark.parametrize("sign", ["+", "-"])
def test_hirota_on_one_series_equals_hirota_on_a_copy(monkeypatch, sign):
    # with g is f every d_S f is bracketed once, not once per side
    h0, x0 = eta_zero(CTX), xi_zero(CTX)
    t = build_tau(CTX, sign)
    copy = unshared(t)
    brackets = []

    def counting(F, G):
        brackets.append(1)
        return bracket(F, G)

    monkeypatch.setattr(modes, "bracket", counting)
    cases = ([(h0, None), (-x0, None)], [(h0, h0)] * 2, [(h0, None)] * 3)
    for factors, flows in zip(cases, (3, 2, 3)):
        brackets.clear()
        got = hirota(factors, t, t)
        assert len(brackets) == flows
        brackets.clear()
        want = hirota(factors, t, copy)
        assert len(brackets) == 2 * flows
        assert got.coeffs == want.coeffs and got.guar == want.guar


# #### kernel application #####################################################


def delta_product(c, G: AlphaSeries) -> AlphaSeries:
    """delta(c w/z) G(z) as eta-xi builds it: the kernel sum_l c**l (w/z)**l
    applied to the one-variable G placed at w**0."""
    N = G.ctx.trunc.n_modes
    at_w0 = {(k, 0): p for (k,), p in G.coeffs.items()}
    G = AlphaSeries(G.ctx, ("z", "w"), at_w0, G.guar)
    return apply_ratio_kernel(G, {l: c**l for l in range(-N, N + 1)}, (0, 1))


@pytest.mark.parametrize("trunc", [ModeTrunc(4, 4), ModeTrunc(6, 3)])
def test_delta_mul_equals_the_literal_per_cell_sum(trunc):
    # cell (a, b) is c**b G[a + b], cut to the window, for every cell of
    # slot span <= N, the span-N ones included; the guarantee is G's,
    # derated as by any kernel application
    ctx = ModeContext(F(1, 2), F(1, 8), trunc)
    N = trunc.n_modes
    c = F(2, 3)
    for G in (build_eta(ctx), build_xi(ctx), build_tau(ctx, "-"), build_tau(ctx, "+")):
        literal = {}
        for a in range(-N, N + 1):
            for b in range(-N, N + 1):
                p = G.coeff((a + b,)) * c**b
                if p:
                    literal[a, b] = p
        got = delta_product(c, G)
        assert got.coeffs == window_cells(ctx, literal)
        assert got.guar == G.guar.kern_derate()
        assert N in {sum(map(abs, slot)) for slot in got.coeffs}


def test_apply_ratio_kernel_shifts_slots():
    e = build_eta(CTX)
    x = build_xi(CTX).renamed("w")
    prod = e * x
    moved = apply_ratio_kernel(prod, {3: F(5)}, (0, 1))
    for (a, b), poly in prod.coeffs.items():
        ta, tb = a - 3, b + 3
        if abs(ta) <= 6 and abs(tb) <= 6 and abs(ta) + abs(tb) <= 6:
            got = moved.coeff((ta, tb))
            want = (poly * F(5)).pruned(6 - abs(ta) - abs(tb), 6)
            assert got == want
    assert moved.guar == prod.guar.kern_derate()
