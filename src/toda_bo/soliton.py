"""Exact multi-soliton dressing data.

A soliton tau is a finite sum of terms c * z**p * prod_k b_k**e_k with
exact rational c and integer exponents, held as a plain dict (Symbolic)
{(p, (e_1..e_n)): c} of its nonzero terms; the amplitudes b_k stay formal,
so identities can be checked as polynomial identities in the b's.  A dict
carries no parameter point: whatever needs one takes it as an argument.
The plus and minus taus are indexed by subsets of the n wave numbers a_k,
with pairwise interaction coefficients and (on the minus side) reflection
factors evaluated at beta = q**n * eps.

Time dependence enters through the amplitudes: the flow of order i scales
b_k by exp((1 - q**i) t_i a_k**i) (barred flows use inverted weights), so
every term is a joint eigenvector of all flows.  Bilinear derivatives
therefore reduce to per-term-pair eigenvalue arithmetic, and finite shift
operations multiply each b_k by an explicit rational factor.

With its amplitudes filled in, a tau is an exact Laurent polynomial
in z (see series).  The field eps tau_-(z/q) tau_+(qz) / (tau_-(z) tau_+(z))
and its dual are expanded on the unit circle over degrees -window..window,
zeros included: the part series_split puts over tau_- gives the degrees
below 0 and the part over tau_+ the rest; a mode read past the window
raises.  Each coefficient is one exact Fraction, reduced once from its
integer pair (num, den).
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .scalar import (
    ONE,
    ParamError,
    ParamPoint,
    PoleError,
    Scalar,
    ZERO,
    numerators,
    parse_scalar,
    sample_amplitudes,
    sample_param_point,
)
from .series import Laurent, series_inv, series_mul, series_split

Symbolic = dict[tuple[int, tuple[int, ...]], Scalar]


def tau_subs(tau: Symbolic, c: Scalar) -> Symbolic:
    """Substitute z -> c * z; a z**0 term keeps its coefficient."""
    return {(z, e): v * c**z if z else v for (z, e), v in tau.items()}


def _scale_amplitudes(tau: Symbolic, factors) -> Symbolic:
    """Substitute b_k -> factors[k] * b_k; a term without b_k keeps its
    coefficient."""
    out = {}
    for (z, e), v in tau.items():
        for f, x in zip(factors, e):
            if x:
                v *= f**x
        out[z, e] = v
    return out


def tau_series(tau: Symbolic, b_values) -> Laurent:
    """Evaluate the amplitudes, leaving an exact Laurent polynomial."""
    b_values = tuple(Fraction(b) for b in b_values)
    if any(len(e) != len(b_values) for _, e in tau):
        raise ValueError("amplitude count mismatch")
    if any(b == 0 for b in b_values):
        raise ValueError("amplitudes must be nonzero")
    coeffs: dict[int, Scalar] = {}
    for (z, _), v in _scale_amplitudes(tau, b_values).items():
        coeffs[z] = coeffs.get(z, Fraction(0)) + v
    return {d: c for d, c in coeffs.items() if c}


# #### construction ############################################################


def _pair_table(params: ParamPoint) -> dict[tuple[int, int], Scalar]:
    """Interaction factor (a_i - a_j)**2 / ((a_i - q a_j)(a_i - a_j / q)) of
    each pair i < j of waves; ParamPoint keeps every one finite and
    nonzero."""
    q, a = params.q, params.a
    return {
        (i, j): (a[i] - a[j]) ** 2 / ((a[i] - q * a[j]) * (a[i] - a[j] / q))
        for i, j in itertools.combinations(range(params.n), 2)
    }


def _reflection_factors(params: ParamPoint, pairs, beta: Scalar) -> list[Scalar]:
    """d_k at spectral point beta: the tbar Miwa factor of wave k at beta
    over the pair factors (the point's table pairs) that involve k."""
    return [
        f / math.prod(c for ij, c in pairs.items() if k in ij)
        for k, f in enumerate(miwa_factors(params, "tbar", beta))
    ]


def _subset_terms(n: int, pairs, sign: int, weights) -> Symbolic:
    """Sum over the subsets I of the n waves, by size and then in
    lexicographic order, of z**(sign |I|) prod_{k in I} weights[k] b_k**sign
    times the pair factors within I, read from the point's table pairs.  A
    subset's coefficient extends the one without its largest member."""
    coeff = {(): ONE}
    tau = {}
    for r in range(n + 1):
        for subset in itertools.combinations(range(n), r):
            if subset:
                *rest, k = subset
                v = coeff[tuple(rest)] * weights[k]
                coeff[subset] = math.prod((pairs[i, k] for i in rest), start=v)
            e = tuple(sign if j in subset else 0 for j in range(n))
            tau[sign * r, e] = coeff[subset]
    return tau


def make_tau_plus(params: ParamPoint) -> Symbolic:
    """Upper tau: sum over subsets I of z**|I| C_I prod_{k in I} b_k, C_I
    the product of the pair factors within I."""
    return _subset_terms(params.n, _pair_table(params), 1, [ONE] * params.n)


def make_tau_minus(params: ParamPoint, beta: Scalar | None = None) -> Symbolic:
    """Lower tau: subsets weighted by reflection factors and inverse amplitudes.

    beta defaults to q**n * eps; other values arise from finite shifts of the
    upper tau (see the shift identity in the verification suite).
    """
    if beta is None:
        beta = params.q**params.n * params.eps
    pairs = _pair_table(params)
    d = _reflection_factors(params, pairs, beta)
    return _subset_terms(params.n, pairs, -1, d)


# #### finite shifts and flows #################################################


def miwa_factors(params: ParamPoint, kind: str, amount: Scalar) -> list[Scalar]:
    """Per-amplitude factors of a finite shift of the time variables.

    kind 't':    b_k *= (1 - q a_k amount) / (1 - a_k amount)
    kind 'tbar': b_k *= (1 - amount / (q a_k)) / (1 - amount / a_k)
    """
    q = params.q
    if kind == "t":
        fracs = [(1 - q * a * amount, 1 - a * amount) for a in params.a]
    elif kind == "tbar":
        fracs = [(1 - amount / (q * a), 1 - amount / a) for a in params.a]
    else:
        raise ValueError("kind must be 't' or 'tbar'")
    if any(num == 0 or den == 0 for num, den in fracs):
        raise PoleError("shift amount hits a pole of the amplitude factor")
    return [num / den for num, den in fracs]


def miwa_shift(
    params: ParamPoint, tau: Symbolic, kind: str, amount: Scalar, direction: int = 1
) -> Symbolic:
    """Finite shift of the time sequence by +-[amount]."""
    if direction not in (1, -1):
        raise ValueError("direction must be +-1")
    facs = [f**direction for f in miwa_factors(params, kind, amount)]
    return _scale_amplitudes(tau, facs)


def flow_rates(params: ParamPoint, kind: str, order: int) -> list[Scalar]:
    """Per-wave rates of the flow of the given order: the term with
    amplitude exponents e has logarithmic derivative sum_k e_k r_k."""
    q = params.q
    if kind == "t":
        return [(1 - q**order) * a**order for a in params.a]
    if kind == "tbar":
        return [(1 - q**-order) * a**-order for a in params.a]
    raise ValueError("kind must be 't' or 'tbar'")


@dataclass(frozen=True)
class BilinearOp:
    """D + shift for the flow (kind, order) on a tau pair; repeat it for a power."""

    kind: str
    order: int
    shift: Scalar = Fraction(0)


def bilinear(params: ParamPoint, rows) -> Symbolic:
    """The sum over rows (f, g, terms) of sum_i c_i prod(ops_i) applied to
    f.g: each row's terms (c_i, ops_i) are a linear combination of products
    of affine bilinear derivative operators.

    Each term pair is a joint eigenvector: D contributes the eigenvalue
    difference, so each listed D + shift contributes an exact scalar factor
    and the combination the weighted sum of its products.  A term's
    eigenvalue is the dot product of its amplitude exponents with the op's
    flow_rates, the shift joined to f's side; each distinct op's rates and
    shift are taken once per call, as integer numerators over one
    denominator.  The rows run on Python ints over the lcm of their
    denominators, so each output key is one integer, and one Fraction only
    when it is nonzero: an identity that holds builds none.
    """
    ops = list(dict.fromkeys(op for _, _, terms in rows for _, o in terms for op in o))
    index = {op: i for i, op in enumerate(ops)}
    rates = []  # per op: (rate numerators, shift numerator) over dens[i]
    dens = []
    for op in ops:
        (*r, sh), D = numerators([*flow_rates(params, op.kind, op.order), op.shift])
        rates.append((r, sh))
        dens.append(D)
    # each row's terms as c prod(n_i / D_i), an integer over the row's lcm,
    # and its tau coefficients as integer numerators over one denominator a side
    prepared = []
    for f, g, terms in rows:
        plan = [(c, [index[op] for op in o]) for c, o in terms]
        tdens = [c.denominator * math.prod(dens[i] for i in js) for c, js in plan]
        L = math.lcm(*tdens)
        plan = [(c.numerator * (L // t), js) for (c, js), t in zip(plan, tdens)]
        fnums, cf = numerators(f.values())
        gnums, cg = numerators(g.values())
        prepared.append((f, g, fnums, gnums, plan, L * cf * cg))
    den = math.lcm(*(p[-1] for p in prepared))
    acc: dict = {}
    for f, g, fnums, gnums, plan, row_den in prepared:
        scale = den // row_den
        plan = [(w * scale, js) for w, js in plan]
        lams = [[sum(map(mul, e, r)) + sh for r, sh in rates] for _, e in f]
        mus = [[sum(map(mul, e, r)) for r, _ in rates] for _, e in g]
        for (zf, ef), nf, lam in zip(f, fnums, lams):
            for (zg, eg), ng, mu in zip(g, gnums, mus):
                diff = [x - y for x, y in zip(lam, mu)]
                c = 0
                for w, js in plan:
                    for i in js:
                        w *= diff[i]
                    c += w
                if not c:
                    continue
                key = (zf + zg, tuple(x + y for x, y in zip(ef, eg)))
                acc[key] = acc.get(key, 0) + c * nf * ng
    return {key: Scalar(n, den) for key, n in acc.items() if n}


# #### numeric field reconstruction ############################################


def decay_report(params: ParamPoint, b_values) -> dict:
    """Per-wave margins max |b_k| and max |d_k / b_k| of the field's
    expansion on |z| = 1, with the reflection factors d_k at q**n eps.

    At one wave the upper tau vanishes at |z| = 1/|b_1| and the lower at
    |z| = |d_1 / b_1|, so margins below one keep both roots off the unit
    circle.  At two or more waves the interaction terms move the roots and
    the margins do not place them: most two-wave points that pass have a
    root of tau_- outside |z| = 1.  Returns the factors for callers to test.
    """
    b_values = tuple(Fraction(x) for x in b_values)
    beta = params.q**params.n * params.eps
    d = _reflection_factors(params, _pair_table(params), beta)
    outer = max((abs(x) for x in b_values), default=Fraction(0))
    inner = max(
        (abs(dk / bk) for dk, bk in zip(d, b_values)), default=Fraction(0)
    )
    return {
        "d_factors": d,
        "outer_margin": outer,
        "inner_margin": inner,
        "ok": outer < 1 and inner < 1,
    }


def sample_decaying(
    s: Scalar, rng: random.Random, n: int
) -> tuple[ParamPoint, tuple[Scalar, ...]]:
    """Draw (point, amplitudes) with n <= 2 waves that pass decay_report's
    per-wave margins, |b_k| < 1 and |d_k / b_k| < 1.

    A draw whose reflection factors outgrow its amplitudes fails them and is
    rejected.  At two waves the cross terms of the reflection factors defeat
    unconstrained draws essentially always, so the wave numbers are drawn
    with matched signs and magnitudes separated past the q-orbit, which
    keeps the cross terms below one.  The margins are tested one wave at a
    time, so they do not place the tau roots: at one wave they keep them
    off the unit circle, but at two the interaction term moves them, and
    most two-wave draws put a root of tau_- outside |z| = 1, so their modes
    need not decay on the unit circle."""
    if not 0 <= n <= 2:
        raise ValueError("decaying samples are drawn for 0, 1 or 2 waves")
    for _ in range(500):
        if n < 2:
            params = sample_param_point(rng, n, s=s)
        else:
            sign = rng.choice((1, -1))
            a1 = sign * Fraction(rng.randint(9, 18), 64)
            a2 = a1 * Fraction(rng.randint(6, 12), 64)
            eps = sign * abs(a2) * Fraction(rng.randint(8, 15), 64)
            try:
                params = ParamPoint(Fraction(s), eps, (a1, a2))
            except ParamError:
                continue
        b = sample_amplitudes(rng, n)
        if decay_report(params, b)["ok"]:
            return params, b
    raise ParamError("no geometrically decaying sample found")


def _annulus_ratio(num: Laurent, tm: Laurent, tp: Laurent, window: int) -> Laurent:
    """Degrees -window..window of num / (tm * tp), expanded where tm inverts
    downward and tp upward: series_split's hm / tm gives the degrees below 0
    and hp / tp the rest, each one series_inv pair reduced to one Fraction.
    """
    hm, hp = series_split(num, tm, tp)
    pairs = {**series_inv(hm, tm, -window, -1), **series_inv(hp, tp, 0, window)}
    fracs = {e: Scalar(n, d) for e, (n, d) in pairs.items()}
    return {e: fracs.get(e, ZERO) for e in range(-window, window + 1)}


def _tau_ratio(
    taus: tuple[Symbolic, Symbolic],
    b_values,
    window: int,
    up: Scalar,
    down: Scalar,
    scale: Scalar,
) -> Laurent:
    """Degrees -window..window of scale tau_-(z/up) tau_+(z up) /
    (tau_-(z/down) tau_+(z down)), zeros included, exact; taus is the
    amplitude-free pair (tau_+, tau_-), and scale multiplies the numerator's
    few terms, not the 2 window + 1 output coefficients."""
    tp, tm = taus
    tm_up, tp_up, tm_down, tp_down = (
        tau_series(tau_subs(tau, c), b_values)
        for tau, c in ((tm, 1 / up), (tp, up), (tm, 1 / down), (tp, down))
    )
    num = {d: c * scale for d, c in series_mul(tm_up, tp_up).items()}
    return _annulus_ratio(num, tm_down, tp_down, window)


def eta_series_from_taus(
    params: ParamPoint, b_values, window: int, taus=None
) -> Laurent:
    """Degrees -window..window of eps tau_-(z/q) tau_+(zq) / (tau_-(z) tau_+(z)).

    The exact coefficients of the rational function: the expansion between
    the roots of tau_- and those of tau_+, and the field's modes on |z| = 1
    when the unit circle lies between them, which decay_report's margins
    ensure at one wave but not at two.  A caller that already holds the
    point's amplitude-free pair (make_tau_plus(params),
    make_tau_minus(params)) passes it as taus.
    """
    if taus is None:
        taus = make_tau_plus(params), make_tau_minus(params)
    return _tau_ratio(taus, b_values, window, params.q, ONE, params.eps)


def xi_series_from_taus(params: ParamPoint, b_values, window: int) -> Laurent:
    """Degrees -window..window of tau_-(zs) tau_+(z/s) / (eps tau_-(z/s) tau_+(zs)),
    exact."""
    taus = make_tau_plus(params), make_tau_minus(params)
    return _tau_ratio(taus, b_values, window, 1 / params.s, params.s, 1 / params.eps)


def modes_from_series(f: Laurent) -> dict[int, Scalar]:
    """Mode map eta_n = [z**-n] f for |n| <= W = max(f), the window of a tau
    ratio (which stores every degree -W..W); a missing degree raises KeyError."""
    W = max(f)
    return {n: f[-n] for n in range(-W, W + 1)}


# #### soliton specifications ##################################################


def _spec_entry(x) -> Scalar:
    if isinstance(x, bool) or not isinstance(x, (str, int)):
        raise ValueError(f"soliton spec entry {x!r} is not a string or an integer")
    try:
        return parse_scalar(x) if isinstance(x, str) else Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"soliton spec entry {x!r} has a zero denominator") from None


def parse_soliton_spec(spec) -> tuple[ParamPoint, tuple[Scalar, ...]]:
    """Read {"s": ..., "eps": ..., "a": [...], "b": [...]} with exact entries.

    Each entry is a string such as "1/3" or an integer; any other document
    raises ValueError."""
    if not isinstance(spec, dict):
        raise ValueError("soliton spec must be a JSON object")
    try:
        s, eps, a, b = (spec[key] for key in ("s", "eps", "a", "b"))
    except KeyError as e:
        raise ValueError(f"soliton spec missing field {e}") from None
    if not (isinstance(a, list) and isinstance(b, list)):
        raise ValueError("soliton spec fields a and b must be lists")
    s, eps = _spec_entry(s), _spec_entry(eps)
    a = tuple(_spec_entry(x) for x in a)
    b = tuple(_spec_entry(x) for x in b)
    if len(b) != len(a):
        raise ValueError("soliton spec needs one amplitude per wave number")
    if any(x == 0 for x in b):
        raise ValueError("amplitudes must be nonzero")
    return ParamPoint(s=s, eps=eps, a=a), b


def soliton_spec_json(params: ParamPoint, b_values) -> dict:
    # Fraction.__str__ drops unit denominators, matching hand-written specs.
    return {
        "s": str(params.s),
        "eps": str(params.eps),
        "a": [str(x) for x in params.a],
        "b": [str(Fraction(x)) for x in b_values],
    }


def load_soliton_spec(path: str) -> tuple[ParamPoint, tuple[Scalar, ...]]:
    with open(path) as f:
        return parse_soliton_spec(json.load(f))
