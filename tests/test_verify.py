"""Check runner: registry, selectors, finishers, reports, determinism.

Oracles: the vacuum reduction of the first affine flow identity pins the
order-one charge against the bare coupling; the quadratic-kernel expansions
are checked cell by cell against their literal double sum over (r, s), and
cross-checked through the mode-negation involution that swaps their
orientation pairs.  The certificate: every windowed check is built at a
narrower and a wider window, and each residual and witness cell the narrower
one certifies must match the wider one's; a bracket rule that keeps its
degree and a kernel rule that keeps its weight must fail that.  Negative
controls push a known-nonzero series, and each of the six kernel checks with
its kernel scaled by 8/7 or reflected l -> -l, through the windowed finisher,
which must report violations instead of passing; one wrong coefficient or one
wrong partition in the order-3 Toda equation table must fail both the exact
and the windowed check that read it, one wrong coefficient in the lemma table
must fail its windowed check, one row weight of each Miwa identity scaled by
7/6 must fail its exact check, +xi_0 in place of -xi_0 as the t-bar flow must
fail hirota-tb and toda, and eta-xi with its two delta arguments swapped or
their relative sign flipped must report violations.  The brackets one hirota
call makes are counted, and so are the field builds of the bracket group (one
each of eta and xi) and the series products of the quadratic kernels (two for
four).  The Miwa row builders are also run at explicit shifts far outside the
sampler's range, and each side of the partition-keyed Toda rows is compared
with the earlier (c, order, power) table, read as powers.  Determinism is
asserted on serialized bytes of repeated runs, and the CLI reports of the
exact and lemma-t3 groups, of the bracket group, of eta-xi alone at two wider
windows, of the m2/m3-consistency checks, of conj-iom, of the whole suite and
of the benchmark's verify selection are pinned to their sha256.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction as F
from zlib import crc32

import pytest
from hypothesis import given, settings, strategies as st

from toda_bo import iom, modes, verify
from toda_bo.cli import main
from toda_bo.iom import closed_M
from toda_bo.modes import (
    AlphaPoly,
    Guarantee,
    ModeContext,
    ModeTrunc,
    apply_ratio_kernel,
    bracket,
    build_eta,
    build_tau,
    build_xi,
    eta_zero,
    hirota,
    mono_degree,
    mono_powers,
    mono_weight,
    unit,
    xi_zero,
)
from toda_bo.scalar import ParamPoint, sample_param_point
from toda_bo.soliton import (
    BilinearOp,
    bilinear,
    make_tau_minus,
    make_tau_plus,
    tau_subs,
)
from toda_bo.verify import (
    CONVERGENT_TOL,
    EPS,
    GROUPS,
    IDENTITY_IDS,
    S,
    T3_TRUNC_Z,
    CheckConfig,
    quad_kernel_series,
    resolve_selector,
    run_check,
    run_suite,
    sub_seed,
    _ctx_bracket,
    _ctx_t3,
    _finish_windowed,
    _ladder_ok,
    _residual_max,
    _run_windowed,
    _win_eta_xi,
    _win_kernel,
    _win_hirota_tb,
    _win_lemma,
    _win_prop,
    _win_toda,
)

# small enough to keep every run here well under a second
WIN = CheckConfig(trunc_z=4, trunc_modes=8, trunc_deg=4)
SOL = CheckConfig(samples=1, solitons=2)


# #### registry and selectors ##################################################


def test_registry_is_duplicate_free_and_groups_cover_it():
    assert len(set(IDENTITY_IDS)) == len(IDENTITY_IDS)
    assert GROUPS["all"] == IDENTITY_IDS
    for name, members in GROUPS.items():
        assert set(members) <= set(IDENTITY_IDS), name
    # the four groups partition the ids into contiguous runs, in report order
    order = ("bracket", "soliton-exact", "iom-numeric", "lemma-t3")
    assert sorted(GROUPS) == sorted(order + ("all",))
    assert sum((GROUPS[g] for g in order), ()) == IDENTITY_IDS
    assert [len(GROUPS[g]) for g in order] == [12, 7, 3, 6]


def test_selector_defaults_to_everything():
    assert resolve_selector(None) == list(IDENTITY_IDS)
    assert resolve_selector("") == list(IDENTITY_IDS)
    assert resolve_selector("all") == list(IDENTITY_IDS)


def test_selector_group_expands_in_registry_order():
    want = [i for i in IDENTITY_IDS if i in GROUPS["lemma-t3"]]
    assert resolve_selector("lemma-t3") == want


def test_selector_comma_list_dedupes_and_orders():
    assert resolve_selector("toda") == ["toda"]
    assert resolve_selector("toda,eta-eta") == ["eta-eta", "toda"]
    assert resolve_selector("toda,toda") == ["toda"]
    out = resolve_selector("iom-numeric,conj-iom")
    assert out == [i for i in IDENTITY_IDS if i in GROUPS["iom-numeric"]]


def test_selector_glob_patterns():
    assert resolve_selector("hm-*") == ["hm-pm-1", "hm-pm-2", "hm-3"]
    assert resolve_selector("*tau*") == [
        "eta-tau-",
        "eta-tau+",
        "xi-tau-",
        "xi-tau+",
        "tau-shift-lemma",
    ]
    assert resolve_selector("zz-*") == []


def test_selector_unknown_literal_raises():
    with pytest.raises(KeyError):
        resolve_selector("not-an-id")
    with pytest.raises(KeyError):
        run_suite("not-an-id")
    with pytest.raises(KeyError):
        run_check("not-an-id")


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(IDENTITY_IDS), min_size=1, max_size=8, unique=True))
def test_selector_any_comma_list_resolves_to_registry_order(tokens):
    out = resolve_selector(",".join(tokens))
    assert out == [i for i in IDENTITY_IDS if i in set(tokens)]


# #### sub-seeding #############################################################


def test_sub_seeds_are_spread_across_ids():
    seeds = {sub_seed(i, 7) for i in IDENTITY_IDS}
    assert len(seeds) == len(IDENTITY_IDS)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**40), st.integers(1, 2**40))
def test_sub_seed_is_crc_xor_mask(seed, step):
    # the whole seed enters, so a seed past 2**32 draws other points than the
    # seed below it that shares its low 32 bits
    for check_id in ("toda", "hm-3"):
        assert sub_seed(check_id, seed) == crc32(check_id.encode()) ^ seed
        assert sub_seed(check_id, seed) != sub_seed(check_id, seed + step)


# #### report shape ############################################################


def test_report_serialization_shape():
    r = run_check("eta0-xi0", WIN)
    d = r.to_json()
    assert sorted(d) == [
        "detail",
        "elapsed_ms",
        "id",
        "mode",
        "params",
        "pass",
        "residual",
    ]
    assert sorted(d["residual"]) == ["is_exact_zero", "max_abs", "max_abs_decimal"]
    assert d["pass"] is True
    assert d["params"]["seed"] == WIN.seed
    assert d["params"]["subseed"] == sub_seed("eta0-xi0", WIN.seed)
    assert d["elapsed_ms"] is None


def test_elapsed_only_with_timings_flag():
    r = run_check("eta0-xi0", replace(WIN, timings=True))
    assert isinstance(r.elapsed_ms, float) and r.elapsed_ms >= 0


# #### windowed finisher #######################################################


@pytest.mark.parametrize("check_id", ["eta-eta", "hirota-t", "toda-field"])
def test_windowed_identities_hold_with_evidence(check_id):
    r = run_check(check_id, WIN)
    assert r.passed and r.mode == "windowed"
    assert r.residual["is_exact_zero"]
    assert r.residual["max_abs"] == "0/1"
    assert r.detail["violations"] == 0
    assert r.detail["witness_certified_terms"] > 0
    assert r.params["trunc"] == {"z": 4, "modes": 8, "deg": 4}


def test_window_too_small_is_inconclusive_failure():
    # one mode certifies nothing: every bracket cell spans two slots
    r = run_check("eta-eta", CheckConfig(trunc_z=2, trunc_modes=1, trunc_deg=1))
    assert not r.passed
    assert r.detail["inconclusive"] is True
    assert r.detail["witness_certified_terms"] == 0
    assert r.detail["violations"] == 0


def test_nonzero_series_fails_as_violations():
    ((_, wit),) = verify._CHECKS["eta-eta"][1](_ctx_bracket(WIN))
    worst, passed, detail = _finish_windowed([(wit, wit)], WIN.trunc_z)
    assert not passed
    assert detail["violations"] > 0
    assert worst > 0


@pytest.mark.parametrize(
    "check_id", ["eta-eta", "xi-xi", "eta-tau-", "eta-tau+", "xi-tau-", "xi-tau+"]
)
@pytest.mark.parametrize(
    "wrong, tau_violations",
    [
        (lambda kernel: lambda l: kernel(l) * F(8, 7), 81),
        (lambda kernel: lambda l: kernel(-l), 184),
    ],
    ids=["scaled", "reflected"],
)
def test_perturbed_kernel_fails(monkeypatch, check_id, wrong, tau_violations):
    # each kernel check through _win_kernel with its kernel scaled by 8/7 or
    # reflected l -> -l leaves certified residual terms; the true one none.
    # Either wrong kernel leaves 174 on a self bracket
    violations = 174 if check_id in ("eta-eta", "xi-xi") else tau_violations
    build = verify._CHECKS[check_id][1]
    ctx = _ctx_bracket(WIN)
    _, passed, detail = _finish_windowed(build(ctx), WIN.trunc_z)
    assert passed and detail["witness_certified_terms"] > 0
    monkeypatch.setattr(
        verify, "_win_kernel", lambda F, G, kernel: _win_kernel(F, G, wrong(kernel))
    )
    _, passed, detail = _finish_windowed(build(ctx), WIN.trunc_z)
    assert not passed
    assert detail["violations"] == violations


def test_bracket_group_builds_each_field_once():
    # the second variable w is the z build renamed, sharing its cells, so the
    # bracket group misses each field's cache once; a w build of its own
    # would be a second miss.  The cached builders are called positionally:
    # a keyword call is another cache key, so it would rebuild
    build_eta.cache_clear()
    build_xi.cache_clear()
    assert all(r.passed for r in run_suite("bracket", WIN))
    assert build_eta.cache_info().misses == build_xi.cache_info().misses == 1
    ctx = _ctx_bracket(WIN)
    assert build_eta(ctx).renamed("w").coeffs is build_eta(ctx).coeffs
    assert build_xi(ctx).renamed("w").vars == ("w",)


# #### the certificate ########################################################

# (smaller, larger) truncation pairs, as (n_modes, d_deg), of each windowed
# group; every check of a listed group is built at both ends of each pair
_REFINEMENTS = {
    "bracket": (((8, 4), (12, 6)), ((12, 6), (14, 8))),
    "lemma-t3": (((4, 4), (6, 6)), ((6, 6), (7, 7))),
}


def _clear_builder_caches():
    # the cached series carry the guarantees they were built under
    for module in (modes, iom, verify):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def certificate_mismatches():
    """(mismatches, certified cells) over every check of every windowed
    group: each residual and witness cell the smaller truncation certifies,
    against the larger truncation's cell (zero where either stores none)."""
    mismatches = certified = 0
    for group, _, builds in verify._REGISTRY:
        for pair in _REFINEMENTS.get(group, ()):
            lo_ctx, hi_ctx = (ModeContext(S, EPS, ModeTrunc(*t)) for t in pair)
            for build in builds.values():
                for lo_pair, hi_pair in zip(build(lo_ctx), build(hi_ctx)):
                    for lo, hi in zip(lo_pair, hi_pair):
                        cells = {
                            (slot, m)
                            for X in (lo, hi)
                            for slot, poly in X.coeffs.items()
                            for m in poly.nums
                        }
                        for slot, m in cells:
                            span = sum(map(abs, slot))
                            if lo.guar.covers(span, mono_weight(m), mono_degree(m)):
                                certified += 1
                                a, b = lo.coeff(slot).coeff(m), hi.coeff(slot).coeff(m)
                                mismatches += a != b
    return mismatches, certified


def test_every_certified_cell_survives_a_wider_window():
    # the windowed groups are the ones listed; a new group must be placed
    windowed = set(GROUPS) - {"all", "soliton-exact", "iom-numeric"}
    assert windowed == set(_REFINEMENTS)
    _clear_builder_caches()
    assert certificate_mismatches() == (0, 12066)


@pytest.mark.parametrize(
    "rule, loosen, mismatches",
    [
        (
            "after_bracket",
            lambda rule: lambda g, h: replace(rule(g, h), degree=g.meet(h).degree),
            3556,
        ),
        ("kern_derate", lambda rule: lambda g: replace(rule(g), weight=g.weight), 2416),
    ],
    ids=["bracket-keeps-degree", "kernel-keeps-weight"],
)
def test_a_loosened_guarantee_rule_fails_the_certificate(
    monkeypatch, rule, loosen, mismatches
):
    # a rule that certifies more than the truncation keeps exact shows as
    # cells the wider window contradicts
    monkeypatch.setattr(Guarantee, rule, loosen(getattr(Guarantee, rule)))
    _clear_builder_caches()
    try:
        got, _ = certificate_mismatches()
    finally:
        monkeypatch.undo()
        _clear_builder_caches()
    assert got == mismatches


# #### quadratic kernel series #################################################


def _negated(poly):
    # mirroring every index keeps the numerators and their denominator; the
    # mirrored monomial is the product of alpha_-n ** e over m's (n, e)
    return AlphaPoly(
        {sum(e * unit(-n) for n, e in mono_powers(m)): v for m, v in poly.nums.items()},
        poly.den,
    )


def test_field_modes_obey_negation_involution():
    # swapping every mode index for its negative mirrors the field in z
    ctx = _ctx_bracket(WIN)
    e = build_eta(ctx)
    for n in range(-WIN.trunc_modes, WIN.trunc_modes + 1):
        assert _negated(e.mode(n)) == e.mode(-n)


_PICKS = ("pp", "pm", "mp", "mm")  # the order quad_kernel_series returns


def test_quad_kernel_slot_signs():
    ctx = _ctx_bracket(WIN)
    for pick, series, sgn in zip(_PICKS, quad_kernel_series(ctx), (-1, 1, -1, 1)):
        assert series.coeffs, pick
        assert all(sgn * slot[0] > 0 for slot in series.coeffs), pick


def test_quad_kernel_orientations_swap_under_negation():
    pp, pm, mp, mm = quad_kernel_series(_ctx_bracket(WIN))
    for lo, hi in ((pp, mm), (pm, mp)):
        assert set(lo.coeffs) == {(-s[0],) for s in hi.coeffs}
        for slot, poly in lo.coeffs.items():
            assert _negated(poly) == hi.coeffs[(-slot[0],)]


def literal_quad_kernel(ctx, pick):
    """quad_kernel_series written as its docstring's double sum: cell -tg s
    is sum_{r,s>=1} q**(r+s) eta_{sg r} eta_{tg s - sg r}, cut to the
    window, with eta's guarantee derated as by a kernel application."""
    sg, tg = (1 if c == "p" else -1 for c in pick)
    e = build_eta(ctx)
    N, D = ctx.trunc.n_modes, ctx.trunc.d_deg
    cells = {}
    for r in range(1, N + 1):
        for s in range(1, N + 1):
            p = (e.mode(sg * r) * e.mode(tg * s - sg * r)).pruned(N - s, D)
            slot = (-tg * s,)
            cells[slot] = cells.get(slot, AlphaPoly.zero()) + p * ctx.q ** (r + s)
    return {slot: p for slot, p in cells.items() if p}, e.guar.kern_derate()


@pytest.mark.parametrize("s", [F(1, 2), F(2, 3), F(-1, 3)])
@pytest.mark.parametrize("trunc", [ModeTrunc(6, 6), ModeTrunc(12, 6), ModeTrunc(14, 7)])
def test_quad_kernel_equals_the_literal_double_sum(trunc, s):
    ctx = ModeContext(s, EPS, trunc)
    for pick, got in zip(_PICKS, quad_kernel_series(ctx)):
        assert got.coeffs, pick
        assert (got.coeffs, got.guar) == literal_quad_kernel(ctx, pick), pick


def test_quad_kernel_guarantee_and_two_products(monkeypatch):
    # the four orientations share two products, one per sign of eta's first
    # factor, and carry eta's guarantee derated as by a kernel application
    ctx = _ctx_bracket(WIN)
    e = build_eta(ctx)
    products = []
    mul = modes.AlphaSeries.__mul__

    def counting(a, b):
        products.append(1)
        return mul(a, b)

    monkeypatch.setattr(modes.AlphaSeries, "__mul__", counting)
    series = quad_kernel_series(ctx)
    assert len(series) == 4 and len(products) == 2
    assert all(X.guar == e.guar.kern_derate() for X in series)


# #### exact soliton finisher ##################################################


def test_vacuum_order_one_charge_is_bare_coupling():
    for eps in (F(1, 8), F(-3, 7), F(2, 5)):
        assert closed_M(1, ParamPoint(F(1, 2), eps, ())) == [eps]
        assert closed_M(1, ParamPoint(F(1, 3), eps, ())) == [eps]


def test_vacuum_flow_identity_runs_exactly():
    r = run_check("to-1", CheckConfig(samples=2, solitons=0))
    assert r.passed and r.mode == "exact"
    assert r.residual["is_exact_zero"]
    assert r.detail["cases"] == 2


@pytest.mark.parametrize("check_id", ["tau-shift-lemma", "hm-3", "to-2"])
def test_exact_identities_vanish_identically(check_id):
    r = run_check(check_id, SOL)
    assert r.passed and r.mode == "exact"
    assert r.residual["max_abs"] == "0/1"
    assert r.detail["cases"] == 3
    assert r.detail["rejected_draws"] >= 0
    assert len(r.params["points"]) == 3


_MIWA_IDS = ("tau-shift-lemma", "hm-pm-1", "hm-pm-2", "hm-3")


def one_row_scaled(build):
    """build with the weights of its first residual's last row times 7/6."""

    def wrong(params, *shifts):
        residuals = build(params, *shifts)
        f, g, terms = residuals[0][-1]
        residuals[0][-1] = (f, g, [(c * F(7, 6), ops) for c, ops in terms])
        return residuals

    return wrong


@pytest.mark.parametrize("check_id", _MIWA_IDS)
def test_one_scaled_row_weight_fails_the_exact_check(monkeypatch, check_id):
    assert run_check(check_id, SOL).passed
    runner, (kinds, build) = verify._CHECKS[check_id]
    monkeypatch.setitem(
        verify._CHECKS, check_id, (runner, (kinds, one_row_scaled(build)))
    )
    rep = run_check(check_id, SOL)
    assert not rep.passed and rep.mode == "exact"
    assert not rep.residual["is_exact_zero"]
    assert F(rep.residual["max_abs"]) > 0


_WAVES = (F(1, 5), F(-1, 7), F(2, 9))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_miwa_builders_vanish_at_explicit_far_shifts(n):
    # the sampler keeps |shift| <= 1/8; the identities hold at any shift off
    # the poles, here up to 39/11, with hm-3's tbar shift fixed at 3/13
    params = ParamPoint(S, EPS, _WAVES[:n])
    far = [(-1) ** k * F(k, 11) for k in range(1, 40)]
    checked = 0
    for check_id in _MIWA_IDS:
        kinds, build = verify._CHECKS[check_id][1]
        for x in far:
            shifts = (x, F(3, 13))[: len(kinds)]
            assert _residual_max(params, build(params, *shifts)) == 0, (check_id, x)
            checked += 1
    assert checked == 4 * 39


# #### Toda equation table ####################################################


def test_order_one_equation_holds_on_the_mode_algebra():
    # no windowed check reads order 1 (hirota-t states it with another
    # witness), but the table's order 1 holds there as well
    worst, passed, detail = _finish_windowed(_win_prop(_ctx_t3(), 1), T3_TRUNC_Z)
    assert passed and worst == 0
    assert detail["witness_certified_terms"] > 0


def test_hirota_brackets_each_flow_once_per_call(monkeypatch):
    # Leibniz over a per-call flow table: D_1**3 and (D_1 + M_1)**3 bracket
    # d f, d^2 f, d^3 f and the same of g once each (the recursion made 14
    # and 22); cold prop-t2 and prop-t3 make 4 + 14 (the recursion 38)
    calls = []

    def counting(F, G):
        calls.append(1)
        return bracket(F, G)

    monkeypatch.setattr(modes, "bracket", counting)
    ctx = _ctx_t3()
    h0 = eta_zero(ctx)
    tm, tp = build_tau(ctx, "-"), build_tau(ctx, "+")
    counts = []
    for factors in ([(h0, None)] * 3, [(h0, h0)] * 3):
        calls.clear()
        hirota(factors, tm, tp)
        counts.append(len(calls))
    calls.clear()
    verify._toda_term.cache_clear()
    _win_prop(ctx, 2), _win_prop(ctx, 3)
    counts.append(len(calls))
    assert counts == [6, 6, 18]


def test_tbar_flow_is_the_flow_of_minus_xi0(monkeypatch):
    # {F, xi_0} = {-xi_0, F}: hirota-tb and toda hold with the t-bar flow
    # given as -xi_0, and fail with +xi_0 in its place
    ctx = _ctx_bracket(WIN)
    x0 = xi_zero(ctx)

    def plus_xi0(factors, f, g):
        flip = [(x0 if (-H).coeffs == x0.coeffs else H, M) for H, M in factors]
        return hirota(flip, f, g)

    for build in (_win_hirota_tb, _win_toda):
        assert _finish_windowed(build(ctx), WIN.trunc_z)[1]
    monkeypatch.setattr(verify, "hirota", plus_xi0)
    for build in (_win_hirota_tb, _win_toda):
        _, passed, detail = _finish_windowed(build(ctx), WIN.trunc_z)
        assert not passed and detail["violations"] > 0, build.__name__


@pytest.mark.parametrize("wrong, violations", [("swap", 426), ("flip", 248)])
def test_eta_xi_fails_with_swapped_deltas_or_flipped_sign(
    monkeypatch, wrong, violations
):
    # at the default bracket window the right side with s and 1/s swapped
    # between the two deltas, or with their relative sign flipped (dp + dm),
    # leaves certified residual terms; the true one leaves none
    cfg = CheckConfig()
    ctx = _ctx_bracket(cfg)
    _, passed, detail = _finish_windowed(_win_eta_xi(ctx), cfg.trunc_z)
    assert passed and detail["witness_certified_terms"] == 482

    def wrong_kernel(F, terms, pair):
        if wrong == "swap":  # c**-l in place of c**l: c -> 1/c
            return apply_ratio_kernel(F, {-l: k for l, k in terms.items()}, pair)
        out = apply_ratio_kernel(F, terms, pair)
        return -out if terms[1] == 1 / ctx.s else out  # negate delta(w/(s z)) G_-

    monkeypatch.setattr(verify, "apply_ratio_kernel", wrong_kernel)
    _, passed, detail = _finish_windowed(_win_eta_xi(ctx), cfg.trunc_z)
    assert not passed
    assert detail["violations"] == violations
    assert detail["witness_certified_terms"] == 482


def assert_order_three_fails_both_layers(monkeypatch, wrong):
    monkeypatch.setitem(verify.TODA_EQUATIONS, 3, wrong)
    exact = run_check("to-3", SOL)
    assert not exact.passed and exact.mode == "exact"
    assert not exact.residual["is_exact_zero"]
    assert F(exact.residual["max_abs"]) > 0
    windowed = run_check("prop-t3")
    assert not windowed.passed and windowed.mode == "windowed"
    assert windowed.detail["violations"] > 0


def test_one_wrong_table_coefficient_fails_both_layers(monkeypatch):
    assert run_check("to-3", SOL).passed and run_check("prop-t3").passed
    assert verify.TODA_EQUATIONS[3][("R", (1, 1))] == F(3, 8)
    wrong = {**verify.TODA_EQUATIONS[3], ("R", (1, 1)): F(3, 7)}
    assert_order_three_fails_both_layers(monkeypatch, wrong)


def test_one_wrong_table_partition_fails_both_layers(monkeypatch):
    # L(1,1,1) -> L(2,1) at the same coefficient 1/8: both layers read the
    # partition, not only its coefficient
    wrong = {
        (("L", (2, 1)) if key == ("L", (1, 1, 1)) else key): c
        for key, c in verify.TODA_EQUATIONS[3].items()
    }
    assert wrong[("L", (2, 1))] == F(1, 8) and len(wrong) == 4
    assert_order_three_fails_both_layers(monkeypatch, wrong)


def test_toda_tables_are_well_formed():
    # side "L" carries partitions of k, side "R" of k - 1, each non-increasing
    # with positive parts; each lemma names a term of the order-3 equation,
    # on side "R" exactly when it is shifted
    for k, equation in verify.TODA_EQUATIONS.items():
        for side, lam in equation:
            assert sum(lam) == {"L": k, "R": k - 1}[side], (k, side, lam)
            assert all(x > 0 for x in lam) and list(lam) == sorted(lam, reverse=True)
    for (lam, shifted), _ in verify.LEMMA_T3.values():
        assert ("R" if shifted else "L", lam) in verify.TODA_EQUATIONS[3]


# The order-k table in its earlier (c, order, power) form, k: (lhs, rhs), a
# term standing for c (D_order + order M_order)**power.
_TRIPLE_TODA = {
    1: (((F(1), 1, 1),), ((F(1), 1, 0),)),
    2: (((F(1), 2, 1),), ((F(1), 1, 1),)),
    3: (((F(1), 3, 1), (F(1, 8), 1, 3)), ((F(3, 4), 2, 1), (F(3, 8), 1, 2))),
}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_partition_rows_equal_the_triple_table(k):
    # each side of _rows_to, summed, equals the triple table's side with
    # (order, power) read as the partition (order,) * power
    rng = random.Random(k)
    for n in (0, 1, 2, 3):
        for _ in range(2):
            params = sample_param_point(rng, n, s=S)
            shift = {o: o * m for o, m in enumerate(closed_M(3, params), 1)}
            tp, tm, q = make_tau_plus(params), make_tau_minus(params), params.q
            pairs = (tm, tp, F(1)), (tau_subs(tm, 1 / q), tau_subs(tp, q), -params.eps)
            (rows,) = verify._rows_to(params, k)
            assert len(rows) == 2
            for (f, g, terms), (f0, g0, w), side in zip(rows, pairs, _TRIPLE_TODA[k]):
                old = [
                    (w * c, [BilinearOp("t", o, shift[o])] * p) for c, o, p in side
                ]
                got = bilinear(params, [(f, g, terms)])
                assert got and got == bilinear(params, [(f0, g0, old)]), (k, n)


def test_one_wrong_lemma_coefficient_fails(monkeypatch):
    assert run_check("lemma-3-3").passed
    shape, coeffs = verify.LEMMA_T3["lemma-3-3"]
    wrong = coeffs[:5] + (2,) + coeffs[6:]  # pm: 3 -> 2
    assert wrong != coeffs
    monkeypatch.setitem(verify.LEMMA_T3, "lemma-3-3", (shape, wrong))
    rep = run_check("lemma-3-3")
    assert not rep.passed and rep.mode == "windowed"
    assert rep.detail["violations"] > 0


# #### convergent finisher #####################################################


def test_ladder_acceptance_rules():
    tol = CONVERGENT_TOL
    assert _ladder_ok([F(0), F(0), F(0)])
    assert _ladder_ok([F(1, 100), F(1, 10**7), F(1, 10**12)])
    # flat, non-monotone, or weakly improving tails are not convergence
    assert not _ladder_ok([F(1, 10**12)] * 3)
    assert not _ladder_ok([F(1, 10**12), F(2, 10**12), F(1, 10**13)])
    assert not _ladder_ok([F(4, 10**11), F(2, 10**11)])
    assert not _ladder_ok([F(1, 2), F(1, 4), F(1, 8)])
    # a single cutoff demonstrates nothing unless it is exactly zero
    assert _ladder_ok([F(0)])
    assert not _ladder_ok([F(1, 10**12)])


def test_m2_consistency_three_legs():
    r = run_check("m2-consistency")
    assert r.passed and r.mode == "convergent"
    assert r.detail["exact_pass"]
    assert r.detail["formal_window_pass"]
    assert r.detail["numeric_pass"]


def test_enumeration_budget_overflow_reports_error(monkeypatch):
    # k = 3 at the lowest cutoff enumerates 17**3 vectors, over this budget
    monkeypatch.setattr(iom, "ENUM_BUDGET", 1000)
    r = run_check("conj-iom", CheckConfig())
    assert not r.passed
    assert r.mode == "error"
    assert "BudgetError" in r.detail["error"]


def test_conj_iom_without_solitons_runs_only_the_vacuum(monkeypatch):
    # every rung is exactly zero at the zero-wave point: the constant field
    # eps has charge eps**k at any cutoff
    monkeypatch.setattr(verify, "IOM_CUTOFFS", (4, 8))
    r = run_check("conj-iom", CheckConfig(solitons=0))
    assert r.passed and r.mode == "convergent"
    assert r.params["points"] and all(pt["a"] == [] for pt in r.params["points"])
    assert [c["kind"] for c in r.detail["cases"]] == ["plus"] * 3
    assert r.residual["is_exact_zero"]


def test_crashing_check_becomes_an_error_report(monkeypatch):
    runner, _ = verify._CHECKS["eta0-xi0"]

    def broken(ctx):
        raise AssertionError("balance violated")

    monkeypatch.setitem(verify._CHECKS, "eta0-xi0", (runner, broken))
    cfg = replace(WIN, samples=1, solitons=0)
    reports = run_suite("eta-eta,eta0-xi0,to-1", cfg)
    assert [r.id for r in reports] == ["eta-eta", "eta0-xi0", "to-1"]
    by_id = {r.id: r for r in reports}
    assert by_id["eta0-xi0"].mode == "error" and not by_id["eta0-xi0"].passed
    assert by_id["eta0-xi0"].detail == {"error": "AssertionError: balance violated"}
    assert by_id["eta-eta"].passed and by_id["to-1"].passed


# #### suite and determinism ###################################################


def test_suite_of_empty_selection_is_empty():
    assert run_suite("zz-*") == []


def test_suite_bytes_are_reproducible():
    cfg = CheckConfig()
    blobs = []
    for _ in range(2):
        reps = run_suite("lemma-t3", cfg)
        blobs.append(json.dumps([r.to_json() for r in reps], sort_keys=True))
    assert blobs[0] == blobs[1]
    assert [r.id for r in run_suite("lemma-t3", cfg)] == list(
        resolve_selector("lemma-t3")
    )


def lemma_3_4_at(trunc: ModeTrunc):
    """lemma-3-4 through the windowed finisher at an explicit truncation:
    (passed, params, detail)."""
    ctx = ModeContext(S, EPS, trunc)
    _, params, _, passed, detail = _run_windowed(
        lambda c: _win_lemma(c, "lemma-3-4"), ctx, min(T3_TRUNC_Z, trunc.n_modes)
    )
    return passed, params, detail


def test_t3_family_truncation_override():
    passed, params, _ = lemma_3_4_at(ModeTrunc(4, 4))
    assert passed
    assert params["trunc"] == {"z": 3, "modes": 4, "deg": 4}
    # the certified window shrinks to the constant sector but stays nonempty
    passed, _, detail = lemma_3_4_at(ModeTrunc(1, 1))
    assert passed
    assert detail["witness_certified_terms"] >= 1


def test_exact_and_t3_groups_report_bytes_are_pinned(capsys):
    rc = main(["verify", "--identity", "soliton-exact,lemma-t3", "--seed", "7"])
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "148f476ba28faec12956d6e26791ebfcb3c700bd7d6dfe09f17e2700d8f04cb9"
    )


def test_m_consistency_report_bytes_are_pinned(capsys):
    # the exact and formal legs run M_from_I over Fractions and over mode
    # polynomials
    rc = main(["verify", "--identity", "m2-consistency,m3-consistency", "--seed", "7"])
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "682b66a0cbee81472deac8a986bbba490aec5317b9b0f67c774574e7d71dc6a2"
    )


def test_conj_iom_report_bytes_are_pinned(capsys):
    # the charge ladders at N = 16, 32, 48 and the mirror ladders; the
    # benchmark's verify workload leaves this check out
    rc = main(["verify", "--identity", "conj-iom", "--seed", "7"])
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b01630257376375209cba57c8ec865c5262136e9a33a254ff57cb5f007630cea"
    )


@pytest.mark.parametrize(
    "selection, seed, digest",
    [
        (
            "all",
            "7",
            "3760cde0a7e7b9ff7b7abf6d32be76664513d225218cc0d9f7c737bab7edd1ea",
        ),
        (
            "soliton-exact,m2-consistency,m3-consistency,bracket,lemma-t3",
            "7",
            "e36df965d59b9324f1e54a05db5933603d867acc1f67f408636ee266525a9704",
        ),
        (
            "soliton-exact,m2-consistency,m3-consistency",
            "1",
            "2beb56773108eeff89a75197f28a577adef89173e1488aad8b7c97f00b9e219d",
        ),
        (
            "soliton-exact,m2-consistency,m3-consistency",
            "2",
            "b5e82ea7b39c5c39b87860663cea2ce73a4456e123513aefc8342b1677c71ff8",
        ),
    ],
    ids=["all", "benchmark-selection", "charges-seed1", "charges-seed2"],
)
def test_suite_report_bytes_are_pinned(capsys, selection, seed, digest):
    # the full suite at the anchor seed, and the benchmark's verify
    # workload (every check but conj-iom): each record is pinned here
    # besides its group's own pin.  The charge checks also run at seeds
    # 1 and 2, whose m2/m3 numeric legs take their tolerance from the tail
    # bounds at soliton points other than seed 7's
    rc = main(["verify", "--identity", selection, "--seed", seed])
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "window, digest",
    [
        ([], "d0ead7731063299ff1e4952534cb4a26c7464b9eb711bb42d733bcd0dad08861"),
        (
            ["--trunc-modes", "14", "--trunc-deg", "7"],
            "09a14b4f8cebb5ce4494103b74a872705a077b99937b425c4d52b90814352953",
        ),
    ],
    ids=["default", "modes14-deg7"],
)
def test_bracket_group_report_bytes_are_pinned(capsys, window, digest):
    # the twelve bracket-family records, through the mode-algebra kernels;
    # the wider window fills 28 packed exponent fields, the default 24
    rc = main(["verify", "--identity", "bracket", "--seed", "7", *window])
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "window, digest",
    [
        (
            ["--trunc-modes", "16", "--trunc-deg", "8"],
            "61cea6d52e3c6602fd9bf9a6b55f78f3aeae98ba73a0394390f8447498a467b9",
        ),
        (
            ["--trunc-modes", "13", "--trunc-deg", "5", "--trunc-z", "5"],
            "8ed356eee3011dc277305205f2c11cec72d2ddf350cffffb375b25180319aa8d",
        ),
    ],
    ids=["modes16-deg8", "modes13-deg5-z5"],
)
def test_eta_xi_report_bytes_are_pinned(capsys, window, digest):
    # eta-xi alone, through its delta products, at two windows past the
    # bracket pins': an even and an odd n_modes, the latter with a zcap
    # below it
    rc = main(["verify", "--identity", "eta-xi", "--seed", "7", *window])
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
