"""Mechanical verification of the identity inventory.

Every identity the library claims is registered here under a stable string
id, in one table (_REGISTRY) that lists the four groups -- bracket,
soliton-exact, iom-numeric, lemma-t3 -- each with its runner and its ids.
IDENTITY_IDS, GROUPS and dispatch are all derived from that table.  The
order-k Toda equations are a second table (TODA_EQUATIONS) of Hirota
products keyed by side and partition, read by both the exact to-k and the
windowed prop-tk checks, and lemmas 3.2-3.5 a third (LEMMA_T3), each naming
an order-3 product by its partition, whose coefficients one builder reads.
The six kernel brackets {F(z), G(w)} = K(w/z) F(z) G(w) share one builder
too; each registry entry names its two fields and writes its kernel out.
The runners use one of three finishers:

  exact      n-soliton tau identities as row builders: lists of weighted
             bilinear rows at a point and explicit shifts, summed in the
             symbolic (z-power, amplitude-exponent) basis; each sum must
             vanish identically.
  windowed   mode-algebra identities at a (modes, degree) truncation,
             every stored cell compared on the certified region of the
             truncation Guarantee; a nonzero certified cell is a genuine
             counterexample, an empty certified region is reported as an
             inconclusive failure rather than a pass.
  convergent numeric charge evaluations on soliton modes.  conj-iom
             compares charges with closed forms at a ladder of kernel
             cutoffs and passes with the residual below tolerance and still
             decreasing as the cutoff grows; m2-/m3-consistency pass when
             three legs hold: the exact Newton route, the formal window,
             and the numeric kernel-minus-Newton difference within
             newton_error_bound + kernel_tail.

A check's report is its JSON record, a plain dict of JSON values that
run_check builds in one place and the CLI writes as it is.  run_suite
resolves a selector (id, group name, comma list, or glob), runs the checks
sorted in registry order, and is deterministic for a fixed seed: each check
derives its private RNG from crc32(id) xor seed, so suite composition does
not shift anyone's samples.
"""

from __future__ import annotations

import math
import random
import time
import zlib
from dataclasses import dataclass
from fnmatch import fnmatch
from fractions import Fraction
from functools import lru_cache, partial

from .iom import (
    I_k_def,
    M2_functional,
    M2_kernel,
    M3_functional,
    M3_kernel,
    M_from_I,
    ModeVector,
    closed_I,
    closed_M,
    kernel_tail,
    mode_table,
    newton_error_bound,
    shell_tail,
    soliton_decay,
)
from .modes import (
    AlphaSeries,
    ModeContext,
    ModeTrunc,
    apply_ratio_kernel,
    bracket,
    build_eta,
    build_phi,
    build_tau,
    build_xi,
    eta_zero,
    hirota,
    mono_degree,
    mono_weight,
    tau_log,
    xi_zero,
)
from .scalar import (
    ONE,
    ZERO,
    ParamError,
    ParamPoint,
    PoleError,
    Scalar,
    sample_amplitudes,
    sample_param_point,
    sample_shift_amount,
    scalar_decimal,
    scalar_str,
)
from .soliton import (
    BilinearOp,
    bilinear,
    decay_report,
    eta_series_from_taus,
    make_tau_minus,
    make_tau_plus,
    miwa_factors,
    miwa_shift,
    sample_decaying,
    tau_subs,
    xi_series_from_taus,
)

CONVERGENT_TOL = Fraction(1, 10**10)

# Deformation parameter of every check (q = S**2) and the field coupling of
# the mode-algebra contexts and the mirror-charge points.
S = Fraction(1, 2)
EPS = Fraction(1, 8)

# The quadratic-kernel lemmas run at their own, smaller truncation pair
# (modes, degree): their flows cost a cubic charge bracket per cell.
T3_TRUNC_MODES, T3_TRUNC_DEG = 6, 6

# Kernel cutoff ladder of the convergent charge checks.
IOM_CUTOFFS = (16, 32, 48)

# The order-k bilinear equation of the Toda reduction, k: {(side, lam): c}.
# A partition lam stands for prod_i (D_{lam_i} + lam_i M_{lam_i}), D_o the
# Hirota derivative of the order-o flow and M_o its charge; () is the plain
# product.  Side "L" acts on tau_-(z).tau_+(z), side "R" on
# eps tau_-(z/q).tau_+(qz).  The exact to-k and the windowed prop-tk checks
# both read this table.
TODA_EQUATIONS = {
    1: {("L", (1,)): ONE, ("R", ()): ONE},
    2: {("L", (2,)): ONE, ("R", (1,)): ONE},
    3: {
        ("L", (3,)): ONE,
        ("L", (1, 1, 1)): Fraction(1, 8),
        ("R", (2,)): Fraction(3, 4),
        ("R", (1, 1)): Fraction(3, 8),
    },
}


# Lemmas 3.2-3.5, the Hamiltonian-structure forms of four terms of the
# order-3 equation, id: ((lam, shifted), coefficients).  The lhs is the
# TODA_EQUATIONS product of the partition lam on tau_-(z).tau_+(z), or on
# tau_-(z/q).tau_+(qz) when shifted (a side "R" term).  The rhs is that
# product times inner, and also times eta(z) when unshifted; inner weighs the
# basis (M_2, M_1**2, M_1 (e_+ + e_-), e_+ e_-, pp, pm, mp, mm) by the
# coefficients: M_k the charges, e_+- one-sided field slices (_lemma_basis),
# pp..mm the quad_kernel_series orientations.
LEMMA_T3 = {
    "lemma-3-2": (((3,), False), (1, Fraction(1, 2), 1, 1, 1, 0, 0, 1)),
    "lemma-3-3": (((1, 1, 1), False), (4, -1, 1, -2, 1, 3, 3, 1)),
    "lemma-3-4": (((2,), True), (2, 0, 1, 0, 1, 1, 1, 1)),
    "lemma-3-5": (((1, 1), True), (0, 1, 1, 2, 1, -1, -1, 1)),
}


class UnknownIdentity(KeyError):
    """A selector token that is neither an id, a group, nor a glob pattern."""


@dataclass(frozen=True)
class CheckConfig:
    """The command-line knobs shared by every check.

    The truncation pair governs the bracket-family checks; solitons bounds
    the wave count of the exact soliton checks and of conj-iom.
    """

    seed: int = 7
    samples: int = 5
    solitons: int = 3
    trunc_modes: int = 12
    trunc_deg: int = 6
    timings: bool = False


def _sgn(n: int) -> int:
    return (n > 0) - (n < 0)


# #### windowed finisher #######################################################


def _ctx_bracket(cfg: CheckConfig) -> ModeContext:
    return ModeContext(S, EPS, ModeTrunc(cfg.trunc_modes, cfg.trunc_deg))


def _ctx_t3() -> ModeContext:
    return ModeContext(S, EPS, ModeTrunc(T3_TRUNC_MODES, T3_TRUNC_DEG))


def _finish_windowed(pairs):
    """Compare residual series on their certified windows.

    pairs is a non-empty list of (residual, witness) in one context; the
    witness is a series whose certified content measures how much the
    comparison actually saw.  A stored residual cell inside the certified
    region is a violation; no certified witness content at all means the
    window proved nothing and the check fails as inconclusive instead of
    passing vacuously.  zcap reports the slot reach n_modes // 2, which
    balance and the window rule keep every stored slot within.
    """

    def scan(X, g):
        """(poly, monomial, whether g covers it) for every stored term of X."""
        for slot, poly in X.coeffs.items():
            span = sum(abs(x) for x in slot)
            for mono in poly.nums:
                yield poly, mono, g.covers(span, mono_weight(mono), mono_degree(mono))

    worst = ZERO
    violations = 0
    uncertified = 0
    witness_cells = 0
    guars = []
    for X, wit in pairs:
        g = X.guar
        guars.append([g.budget, g.weight, g.degree])
        for poly, mono, covered in scan(X, g):
            if covered:
                violations += 1
                worst = max(worst, abs(poly.coeff(mono)))
            else:
                uncertified += 1
        witness_cells += sum(covered for _, _, covered in scan(wit, g))
    detail = {
        "witness_certified_terms": witness_cells,
        "violations": violations,
        "uncertified_residual_terms": uncertified,
        "zcap": pairs[0][0].ctx.trunc.n_modes // 2,
        "guarantee": guars,
    }
    inconclusive = witness_cells == 0
    if inconclusive:
        detail["inconclusive"] = True
    passed = violations == 0 and not inconclusive
    return worst, passed, detail


def _in_z(F: AlphaSeries) -> AlphaSeries:
    """Embed a functional as the constant Laurent cell of a series in z."""
    p = F.functional_value()
    return AlphaSeries(F.ctx, ("z",), {(0,): p} if p else {}, F.guar)


def quad_kernel_series(ctx: ModeContext) -> tuple[AlphaSeries, ...]:
    """The four orientations (pp, pm, mp, mm) of the constant term (in the
    inner variable) of a geometric-kernel-dressed field bilinear, as
    one-variable series; pp and mm are the diagonal ones.  Mode content:

      pp: sum_{r,s>=1} q**(r+s) eta_r    eta_{s-r}  at slot -s
      pm: sum_{r,s>=1} q**(r+s) eta_r    eta_{-r-s} at slot +s
      mp: sum_{r,s>=1} q**(r+s) eta_{-r} eta_{r+s}  at slot -s
      mm: sum_{r,s>=1} q**(r+s) eta_{-r} eta_{r-s}  at slot +s

    With signs (sg, tg), the sum is q**(r+s) eta_{sg r} eta_{tg s - sg r}
    at slot -tg s: P_sg, the product of eta's slots of sign -sg at z q**-sg
    with eta, at z q**-tg, whose factors give each pair q**((1 + sg tg) r)
    q**(s - sg tg r), cut to the slots of sign -tg; a rescaling commutes
    with a product, so two products serve all four.  Certification matches
    a kernel application: budget survives, certified weight halves (a
    contributing mode pair sits at slot span up to the output monomial
    weight).
    """
    e = build_eta(ctx)
    q = ctx.q
    guar = e.guar.kern_derate()
    out = []
    for sg in (1, -1):
        P = e.slice_sign(-sg).subs_scale(q**-sg) * e
        for tg in (1, -1):
            cut = P.slice_sign(-tg).subs_scale(q**-tg)
            out.append(AlphaSeries(ctx, ("z",), cut.coeffs, guar))
    return tuple(out)


_CHARGE_FUNCTIONALS = {1: eta_zero, 2: M2_functional, 3: M3_functional}


@lru_cache(maxsize=None)
def _toda_term(ctx, lam: tuple[int, ...], shifted: bool):
    """prod_i (D_{lam_i} + lam_i M_{lam_i}) f.g, a TODA_EQUATIONS term on the
    mode algebra, with D_o the Hirota derivative of M_o's flow; f.g is
    tau_-(z).tau_+(z), or tau_-(z/q).tau_+(qz) when shifted.  Cached per
    context: the lhs of lemma-3-2..3-5 are four terms of prop-t3, and the
    empty partition, the plain product, is their rhs's tau pair."""
    f, g = build_tau(ctx, "-"), build_tau(ctx, "+")
    if shifted:
        f, g = f.subs_scale(1 / ctx.q), g.subs_scale(ctx.q)
    M = {o: _CHARGE_FUNCTIONALS[o](ctx) for o in lam}
    return hirota([(M[o], M[o].scale(o)) for o in lam], f, g)


@lru_cache(maxsize=None)
def _lemma_basis(ctx: ModeContext) -> tuple[AlphaSeries, ...]:
    """The eight series LEMMA_T3's coefficients weigh, in its order.  e_+ is
    the positive-power part of eta at argument qz, e_- its negative-power
    part at z/q.  Cached per context: all four lemmas read it."""
    e = build_eta(ctx)
    ep = e.slice_sign(1).subs_scale(ctx.q)
    em = e.slice_sign(-1).subs_scale(1 / ctx.q)
    m1 = eta_zero(ctx)
    return (
        _in_z(M2_functional(ctx)),
        _in_z(m1 * m1),
        m1 * (ep + em),
        ep * em,
        *quad_kernel_series(ctx),
    )


# per-identity windowed builders; each returns a list of (residual, witness)


def _win_kernel(F, G, kernel):
    """{F(z), G(w)} = K(w/z) F(z) G(w), K(x) = sum_l kernel(l) x**l over
    0 < |l| <= n_modes, for one-variable series F and G in z."""
    Gw = G.renamed("w")
    N = F.ctx.trunc.n_modes
    terms = {l: kernel(l) for l in range(-N, N + 1) if l}
    lhs = bracket(F, Gw)
    return [(lhs - apply_ratio_kernel(F * Gw, terms), lhs)]


def _win_eta_xi(ctx):
    """{eta(z), xi(w)} = delta(s w/z) G_+(z) - delta(w/(s z)) G_-(z), with
    G_+- = tau_+-(qz) tau_+-(z/q) / tau_+-(z)**2, the exponential of
    L(qz) + L(z/q) - 2 L(z) for L = log tau_+- (tau_log), so no tau is
    inverted.  Each delta(c w/z) G(z) is the kernel sum_l c**l (w/z)**l
    applied to G placed at w**0."""
    lhs = bracket(build_eta(ctx), build_xi(ctx).renamed("w"))
    q, N = ctx.q, ctx.trunc.n_modes
    parts = []
    for sign, c in (("+", ctx.s), ("-", 1 / ctx.s)):
        L = tau_log(ctx, sign)
        G = (L.subs_scale(q) + L.subs_scale(1 / q) - L.scale(2)).exp()
        at_w0 = {(k, 0): poly for (k,), poly in G.coeffs.items()}
        G = AlphaSeries(ctx, ("z", "w"), at_w0, G.guar)
        parts.append(apply_ratio_kernel(G, {l: c**l for l in range(-N, N + 1)}))
    dp, dm = parts
    return [(lhs - (dp - dm), lhs)]


def _win_eta0_xi0(ctx):
    h0, x0 = eta_zero(ctx), xi_zero(ctx)
    X = bracket(h0, x0)
    return [(X, h0)]


def _win_hirota_t(ctx):
    tm, tp = build_tau(ctx, "-"), build_tau(ctx, "+")
    h0 = eta_zero(ctx)
    q = ctx.q
    lhs = hirota([(h0, None)], tm, tp)
    rhs = (tm.subs_scale(1 / q) * tp.subs_scale(q)).scale(ctx.eps) - h0 * (tm * tp)
    return [(lhs - rhs, lhs)]


def _win_hirota_tb(ctx):
    tm, tp = build_tau(ctx, "-"), build_tau(ctx, "+")
    x0 = xi_zero(ctx)
    s = ctx.s
    f, g = tm.subs_scale(1 / s), tp.subs_scale(s)
    lhs = hirota([(-x0, None)], f, g)
    rhs = (tm.subs_scale(s) * tp.subs_scale(1 / s)).scale(1 / ctx.eps) - x0 * (f * g)
    return [(lhs - rhs, lhs)]


def _win_toda(ctx):
    h0, x0 = eta_zero(ctx), xi_zero(ctx)
    q = ctx.q
    pairs = []
    for sign in ("+", "-"):
        t = build_tau(ctx, sign)
        lhs = hirota([(h0, None), (-x0, None)], t, t).scale(Fraction(1, 2))
        shifted = t.subs_scale(q) * t.subs_scale(1 / q)
        X = lhs + shifted - t * t
        pairs.append((X, shifted))
    return pairs


def _win_toda_field(ctx):
    h0, x0 = eta_zero(ctx), xi_zero(ctx)
    q = ctx.q
    pairs = []
    for sign in ("+", "-"):
        phi = build_phi(ctx, sign)
        ll = bracket(h0, bracket(phi, x0))
        e_dn = (phi - phi.subs_scale(1 / q)).exp()
        e_up = (phi.subs_scale(q) - phi).exp()
        X = ll - e_dn + e_up
        pairs.append((X, ll))
    return pairs


def _win_lemma(ctx, lemma_id: str):
    """The lemma of LEMMA_T3 named lemma_id; its lhs is the witness."""
    (lam, shifted), coeffs = LEMMA_T3[lemma_id]
    lhs = _toda_term(ctx, lam, shifted)
    first, *rest = (b.scale(c) for b, c in zip(_lemma_basis(ctx), coeffs) if c)
    inner = sum(rest, first)
    if not shifted:
        inner = build_eta(ctx) * inner
    rhs = inner * _toda_term(ctx, (), shifted)
    return [(lhs - rhs, lhs)]


def _win_prop(ctx, k: int):
    """The order-k equation of TODA_EQUATIONS; its first term is the witness."""
    weight = {"L": ONE, "R": -ctx.eps}
    parts = [
        (weight[side] * c, _toda_term(ctx, lam, side == "R"))
        for (side, lam), c in TODA_EQUATIONS[k].items()
    ]
    (c0, wit), *rest = parts
    X = sum((T.scale(c) for c, T in rest), wit.scale(c0))
    return [(X, wit)]


def _run_windowed(build, ctx: ModeContext):
    worst, passed, detail = _finish_windowed(build(ctx))
    params = {
        "s": scalar_str(ctx.s),
        "eps": scalar_str(ctx.eps),
        "trunc": {
            "z": detail["zcap"],
            "modes": ctx.trunc.n_modes,
            "deg": ctx.trunc.d_deg,
        },
    }
    return "windowed", params, worst, passed, detail


def _run_bracket_family(build, cfg: CheckConfig, rng: random.Random):
    return _run_windowed(build, _ctx_bracket(cfg))


def _run_t3_family(build, cfg: CheckConfig, rng: random.Random):
    return _run_windowed(build, _ctx_t3())


# #### exact soliton finisher ##################################################


def _draw_shift(rng, params: ParamPoint, kind: str, tally: list) -> Scalar:
    """A shift amount off every pole of the kind's Miwa factors (for tbar
    those are the reflection factors' poles too); tally[0] counts the
    rejected draws."""
    for _ in range(100):
        x = sample_shift_amount(rng)
        try:
            miwa_factors(params, kind, x)
        except PoleError:
            tally[0] += 1
            continue
        return x
    raise ParamError(f"could not draw a pole-free {kind} shift")


# Row builders of the exact identities.  builder(params, *shifts) returns a
# list of residuals, each a list of rows (f, g, terms) whose sum,
# bilinear(params, rows), vanishes identically; a plain product has terms
# [(c, [])].


def _rows_tau_shift_lemma(params, beta):
    n = params.n
    tp = make_tau_plus(params)
    lhs = miwa_shift(params, tp, "tbar", beta, -1)
    pref = tp[n, (1,) * n] / math.prod(miwa_factors(params, "tbar", beta))
    return [
        [
            (lhs, {(0, (0,) * n): ONE}, [(ONE, [])]),
            ({(n, (1,) * n): pref}, make_tau_minus(params, beta), [(-ONE, [])]),
        ]
    ]


def _rows_hm_pm_1(params, alpha):
    q, eps, n = params.q, params.eps, params.n
    tp, tm = make_tau_plus(params), make_tau_minus(params)
    tm_a = miwa_shift(params, tm, "t", alpha)
    c = (1 - alpha * q**n * eps) / math.prod(miwa_factors(params, "t", alpha))
    return [
        [
            (tm_a, tp, [(ONE, [])]),
            (tm, miwa_shift(params, tp, "t", alpha), [(-c, [])]),
            (tau_subs(tm_a, 1 / q), tau_subs(tp, q), [(-alpha * eps, [])]),
        ]
    ]


def _rows_hm_pm_2(params, beta):
    q, eps, n = params.q, params.eps, params.n
    tp, tm = make_tau_plus(params), make_tau_minus(params)
    tm_b = miwa_shift(params, tm, "tbar", beta)
    c = (1 - beta / (q**n * eps)) / math.prod(miwa_factors(params, "tbar", beta))
    return [
        [
            (tau_subs(tm_b, 1 / q), tp, [(ONE, [])]),
            (tau_subs(tm, 1 / q), miwa_shift(params, tp, "tbar", beta), [(-c, [])]),
            (tm_b, tau_subs(tp, 1 / q), [(-beta / eps, [])]),
        ]
    ]


def _rows_hm_3(params, alpha, beta):
    """One residual per tau."""
    q = params.q
    residuals = []
    for tau in (make_tau_plus(params), make_tau_minus(params)):
        ta = miwa_shift(params, tau, "t", alpha)
        tb = miwa_shift(params, tau, "tbar", beta)
        tab = miwa_shift(params, ta, "tbar", beta)
        residuals.append(
            [
                (ta, tb, [(ONE, [])]),
                (tau, tab, [(-(1 - alpha * beta), [])]),
                (tau_subs(ta, 1 / q), tau_subs(tb, q), [(-alpha * beta, [])]),
            ]
        )
    return residuals


def _rows_to(params, k: int):
    """The order-k equation of TODA_EQUATIONS on soliton taus: one row per
    side, holding all its terms, each M_o taken once."""
    tp, tm = make_tau_plus(params), make_tau_minus(params)
    q = params.q
    equation = TODA_EQUATIONS[k]
    orders = {o for _, lam in equation for o in lam}
    M = closed_M(max(orders), params)
    shift = {o: o * M[o - 1] for o in orders}
    weight = {"L": ONE, "R": -params.eps}
    rows = {"L": (tm, tp, []), "R": (tau_subs(tm, 1 / q), tau_subs(tp, q), [])}
    for (side, lam), c in equation.items():
        ops = [BilinearOp("t", o, shift[o]) for o in lam]
        rows[side][2].append((weight[side] * c, ops))
    return [list(rows.values())]


def _residual_max(params: ParamPoint, residuals) -> Scalar:
    """The largest |coefficient| of any residual, each the sum of its rows."""
    worst = ZERO
    for rows in residuals:
        worst = max([worst, *map(abs, bilinear(params, rows).values())])
    return worst


def _run_exact(check, cfg: CheckConfig, rng: random.Random):
    """check is (shift kinds, row builder); the shifts are drawn in the
    listed order, a t shift reported as alpha and a tbar shift as beta."""
    kinds, build = check
    names = ["alpha" if kind == "t" else "beta" for kind in kinds]
    worst = ZERO
    points = []
    tally = [0]
    for n in range(0, cfg.solitons + 1):
        for _ in range(cfg.samples):
            params = sample_param_point(rng, n, s=S)
            shifts = [_draw_shift(rng, params, kind, tally) for kind in kinds]
            worst = max(worst, _residual_max(params, build(params, *shifts)))
            draws = dict(zip(names, map(scalar_str, shifts)))
            points.append({"n": n, "point": params.to_json(), **draws})
    params_d = {
        "s": scalar_str(S),
        "samples": cfg.samples,
        "soliton_range": [0, cfg.solitons],
        "points": points,
    }
    detail = {"cases": len(points), "rejected_draws": tally[0]}
    return "exact", params_d, worst, worst == 0, detail


# #### convergent finisher #####################################################


def _sample_alt_amplitudes(params: ParamPoint, rng: random.Random):
    for _ in range(200):
        b = sample_amplitudes(rng, params.n)
        if decay_report(params, b)["ok"]:
            return b
    raise ParamError("no second decaying amplitude draw found")


def _ladder_ok(residuals: list[Fraction]) -> bool:
    """Tolerance at the top cutoff plus a strictly improving trend.

    An identically-zero ladder (exact agreement at every cutoff) passes; a
    flat nonzero ladder does not, because it cannot distinguish convergence
    from a plateau."""
    final = residuals[-1]
    if final > CONVERGENT_TOL:
        return False
    if all(r == 0 for r in residuals):
        return True
    if len(residuals) < 2:
        return False
    for a, b in zip(residuals, residuals[1:]):
        if not b < a:
            return False
    return 4 * residuals[-1] <= residuals[-2]


# The mirror charges are checked at pinned points: their kernel coefficients
# grow like q**-m, so the mode expansion converges only when the dual field's
# decay margin beats q (equivalently, the nested-contour prescription defining
# the charge has room).  Randomly sampled points routinely violate that, so
# pinning is a well-posedness requirement, not a convenience.
_MIRROR_POINTS = (
    ((Fraction(1, 5),), (Fraction(1, 2),)),
    ((Fraction(1, 4), Fraction(1, 20)), (Fraction(1, 2), Fraction(1, 2))),
)


def _ladder(mv: ModeVector, k: int, cutoffs, q: Scalar, closed: Scalar):
    """The charge I_k of mv at each cutoff, and their distances to closed."""
    vals = [I_k_def(mv, k, N, q) for N in cutoffs]
    return vals, [abs(v - closed) for v in vals]


def _run_conj_iom(cfg: CheckConfig, rng: random.Random):
    """Charge ladders against the closed forms: plus side at 1..min(2,
    solitons) sampled waves, mirror side at as many pinned points.  With
    solitons == 0 only the zero-wave plus point runs."""
    window = 2 * max(IOM_CUTOFFS)
    top = max(IOM_CUTOFFS)
    worst = ZERO
    cases = []
    points = []
    waves = range(1, min(2, cfg.solitons) + 1) if cfg.solitons else (0,)
    for n in waves:
        params, b_main = sample_decaying(S, rng, n)
        b_alt = _sample_alt_amplitudes(params, rng)
        mv, mv_alt = (
            ModeVector.from_series(eta_series_from_taus(params, b, window))
            for b in (b_main, b_alt)
        )
        closed = closed_I(3, params)
        for k in (1, 2, 3):
            vals, ladder = _ladder(mv, k, IOM_CUTOFFS, params.q, closed[k - 1])
            amp_diff = abs(I_k_def(mv_alt, k, top, params.q) - vals[-1])
            worst = max(worst, ladder[-1], amp_diff)
            cases.append(
                {
                    "n": n,
                    "k": k,
                    "kind": "plus",
                    "ladder": [scalar_decimal(r) for r in ladder],
                    "amplitude_diff": scalar_decimal(amp_diff),
                    "pass": _ladder_ok(ladder) and amp_diff <= CONVERGENT_TOL,
                }
            )
        points.append(params.to_json())
    bar_cutoffs = tuple(2 * N for N in IOM_CUTOFFS)
    for a, b in _MIRROR_POINTS[: min(2, cfg.solitons)]:
        params = ParamPoint(S, EPS, a)
        inv = params.inverted()
        mv = ModeVector.from_series(xi_series_from_taus(params, b, window))
        closed = closed_I(2, inv)
        for k in (1, 2):
            _, ladder = _ladder(mv, k, bar_cutoffs, inv.q, closed[k - 1])
            worst = max(worst, ladder[-1])
            cases.append(
                {
                    "n": params.n,
                    "k": k,
                    "kind": "minus",
                    "ladder": [scalar_decimal(r) for r in ladder],
                    "pass": _ladder_ok(ladder),
                }
            )
        points.append(params.to_json())
    params_d = {
        "s": scalar_str(S),
        "iom_N": list(IOM_CUTOFFS),
        "mirror_N": list(bar_cutoffs),
        "tolerance": scalar_decimal(CONVERGENT_TOL),
        "points": points,
    }
    detail = {"cases": cases}
    passed = all(case["pass"] for case in cases)
    return "convergent", params_d, worst, passed, detail


def _formal_newton_vs_kernel(k: int) -> bool:
    """Newton route against the cached kernel functional: both slot-0 cells
    of products over mode_table, cut to the window."""
    ctx = _ctx_t3()
    N = ctx.trunc.n_modes
    mv = mode_table(ctx)
    vals = [I_k_def(mv, i, N, ctx.q) for i in range(1, k + 1)]
    newton = M_from_I(vals, ctx.q)[-1]
    return newton.mode(0) == _CHARGE_FUNCTIONALS[k](ctx).functional_value()


def _run_m_consistency(cfg: CheckConfig, rng: random.Random, k: int):
    # exact leg: the Newton-identities route reproduces the closed charges
    exact_pts = 0
    exact_ok = True
    for j in range(20):
        params = sample_param_point(rng, j % 3, s=S)
        # the mirror side is the plain side at the inverted point
        for pt in (params, params.inverted()):
            if M_from_I(closed_I(4, pt), pt.q) != closed_M(4, pt):
                exact_ok = False
        exact_pts += 1

    # formal leg: kernel formula == Newton-identities route on the weight window
    formal_ok = _formal_newton_vs_kernel(k)

    # numeric leg: kernel formula on soliton modes within the tail tolerance
    params, b = sample_decaying(S, rng, 1)
    N = max(IOM_CUTOFFS)
    window = 2 * N if k == 2 else 3 * N
    mv = ModeVector.from_series(eta_series_from_taus(params, b, window))
    decay = soliton_decay(params, b, mv)
    q = params.q
    i_vals = [I_k_def(mv, i, N, q) for i in range(1, k + 1)]
    tails = [shell_tail(i, N, q, decay) for i in range(1, k + 1)]
    newton_val = M_from_I(i_vals, q)[-1]
    kern_val = M2_kernel(mv, N, q) if k == 2 else M3_kernel(mv, N, q)
    tol = newton_error_bound(i_vals, tails, q) + kernel_tail(k, N, q, decay)
    diff = abs(kern_val - newton_val)
    numeric_ok = diff <= tol

    passed = exact_ok and formal_ok and numeric_ok
    worst = diff if exact_ok else ONE
    params_d = {
        "s": scalar_str(S),
        "k": k,
        "cutoff": N,
        "point": params.to_json(),
        "b": [scalar_str(x) for x in b],
    }
    detail = {
        "exact_points": exact_pts,
        "exact_pass": exact_ok,
        "formal_window_pass": formal_ok,
        "numeric_diff": scalar_decimal(diff),
        "numeric_tolerance": scalar_decimal(tol),
        "numeric_pass": numeric_ok,
    }
    return "convergent", params_d, worst, passed, detail


# #### registry and entry points ###############################################


# The one check table: (group, group runner, {id: builder}).  run_check
# calls runner(builder, cfg, rng); a windowed group fixes its truncation
# triple, the exact group samples soliton points and the shifts of its
# (shift kinds, row builder) pairs, the convergent group calls the builder
# as the runner.  Table order is the report order.
_REGISTRY = (
    (
        "bracket",
        _run_bracket_family,
        {
            "eta-eta": lambda ctx: _win_kernel(
                build_eta(ctx),
                build_eta(ctx),
                lambda l: _sgn(l) * ctx.one_minus_q(abs(l)),
            ),
            "xi-xi": lambda ctx: _win_kernel(
                build_xi(ctx), build_xi(ctx), lambda l: _sgn(l) * (ctx.q ** -abs(l) - 1)
            ),
            "eta-xi": _win_eta_xi,
            "eta-tau-": lambda ctx: _win_kernel(
                build_eta(ctx), build_tau(ctx, "-"), lambda l: 1 if l < 0 else 0
            ),
            "eta-tau+": lambda ctx: _win_kernel(
                build_eta(ctx), build_tau(ctx, "+"), lambda l: -1 if l > 0 else 0
            ),
            "xi-tau-": lambda ctx: _win_kernel(
                build_xi(ctx), build_tau(ctx, "-"), lambda l: -ctx.s**l if l < 0 else 0
            ),
            "xi-tau+": lambda ctx: _win_kernel(
                build_xi(ctx), build_tau(ctx, "+"), lambda l: ctx.s**-l if l > 0 else 0
            ),
            "hirota-t": _win_hirota_t,
            "hirota-tb": _win_hirota_tb,
            "toda": _win_toda,
            "toda-field": _win_toda_field,
            "eta0-xi0": _win_eta0_xi0,
        },
    ),
    (
        "soliton-exact",
        _run_exact,
        {
            "tau-shift-lemma": (("tbar",), _rows_tau_shift_lemma),
            "hm-pm-1": (("t",), _rows_hm_pm_1),
            "hm-pm-2": (("tbar",), _rows_hm_pm_2),
            "hm-3": (("t", "tbar"), _rows_hm_3),
            **{f"to-{k}": ((), partial(_rows_to, k=k)) for k in TODA_EQUATIONS},
        },
    ),
    (
        "iom-numeric",
        lambda run, cfg, rng: run(cfg, rng),
        {
            "conj-iom": _run_conj_iom,
            "m2-consistency": lambda cfg, rng: _run_m_consistency(cfg, rng, 2),
            "m3-consistency": lambda cfg, rng: _run_m_consistency(cfg, rng, 3),
        },
    ),
    (
        "lemma-t3",
        _run_t3_family,
        {
            **{lid: partial(_win_lemma, lemma_id=lid) for lid in LEMMA_T3},
            "prop-t2": lambda ctx: _win_prop(ctx, 2),
            "prop-t3": lambda ctx: _win_prop(ctx, 3),
        },
    ),
)

_CHECKS = {
    check_id: (runner, build)
    for _, runner, builds in _REGISTRY
    for check_id, build in builds.items()
}
IDENTITY_IDS: tuple[str, ...] = tuple(_CHECKS)
GROUPS: dict[str, tuple[str, ...]] = {
    "all": IDENTITY_IDS,
    **{group: tuple(builds) for group, _, builds in _REGISTRY},
}


def sub_seed(check_id: str, seed: int) -> int:
    return zlib.crc32(check_id.encode()) ^ seed


def run_check(check_id: str, config: CheckConfig | None = None) -> dict:
    """Run one registered identity check and return its JSON record: id,
    mode (exact, windowed, convergent, or error), params, residual, pass,
    elapsed_ms (None unless cfg.timings) and detail, in that key order.

    Any exception inside the check (size budget exceeded, degenerate
    parameters that could not be resampled away, a broken invariant)
    produces a failing record of mode error, its params the seed alone and
    the diagnostic in detail: never a silent pass and never an aborted
    suite."""
    if check_id not in _CHECKS:
        raise UnknownIdentity(f"unknown identity id: {check_id}")
    runner, build = _CHECKS[check_id]
    cfg = config or CheckConfig()
    subseed = sub_seed(check_id, cfg.seed)
    t0 = time.perf_counter()
    try:
        mode, params, worst, passed, detail = runner(build, cfg, random.Random(subseed))
        params = {"seed": cfg.seed, "subseed": subseed, **params}
    except Exception as exc:
        mode, params, worst, passed = "error", {"seed": cfg.seed}, ONE, False
        detail = {"error": f"{type(exc).__name__}: {exc}"}
    elapsed = (time.perf_counter() - t0) * 1000.0
    return {
        "id": check_id,
        "mode": mode,
        "params": params,
        "residual": {
            "is_exact_zero": worst == 0,
            "max_abs": scalar_str(worst),
            "max_abs_decimal": scalar_decimal(worst),
        },
        "pass": passed,
        "elapsed_ms": round(elapsed, 3) if cfg.timings else None,
        "detail": detail,
    }


def resolve_selector(selector: str | None) -> list[str]:
    """Expand a selector into registry-ordered ids.

    Accepts a group name, an exact id, a glob pattern, or a comma list of
    those.  A pattern that matches nothing contributes nothing; a literal
    token that is neither id, group, nor pattern raises UnknownIdentity."""
    if selector is None or selector == "":
        selector = "all"
    chosen: set[str] = set()
    for token in str(selector).split(","):
        token = token.strip()
        if not token:
            continue
        if token in GROUPS:
            chosen.update(GROUPS[token])
        elif token in _CHECKS:
            chosen.add(token)
        elif any(ch in token for ch in "*?["):
            chosen.update(i for i in IDENTITY_IDS if fnmatch(i, token))
        else:
            raise UnknownIdentity(f"unknown identity id: {token}")
    return [i for i in IDENTITY_IDS if i in chosen]


def run_suite(
    selector: str | None = None, config: CheckConfig | None = None
) -> list[dict]:
    """The records of the checks the selector names, in registry order."""
    cfg = config or CheckConfig()
    return [run_check(i, cfg) for i in resolve_selector(selector)]
