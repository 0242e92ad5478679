"""Conserved charges built from field modes.

The k-point charge is the constant term, in k auxiliary variables, of the
product of k field copies weighted by rational pair kernels.  Expanding
each kernel geometrically turns the constant term into a finite sum over
pair exponent vectors; the exponent flow through position i selects the
mode index of the i-th field copy.  Two kernel orientations exist and are
mirror images of one another under inverting the deformation parameter, so
a single enumerator serves both.

The charge combinations obtained through the Newton determinant from the
normalized k-point charges admit closed forms at soliton points; both the
closed forms and the quadratic/cubic kernel formulas live here so callers
can cross-check the independent routes.

Soundness of the functional (mode-polynomial) builders at full claimed
weight: a weight-w output monomial factors as mu_1..mu_j with each factor
weight at least the absolute mode index it came from, so every contributing
kernel exponent is at most w and every required mode cell lies inside the
primitive certified region (index + factor weight <= budget).  Hence the
quadratic and cubic builders inherit the primitive guarantee unchanged.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .scalar import (
    ONE,
    ZERO,
    BudgetError,
    ParamPoint,
    Scalar,
    e_geometric_tail,
    newton_p_from_e,
    power_sum_extended,
    q_pochhammer,
)
from .modes import AlphaSeries, ModeContext, build_eta, poly_mul
from .soliton import decay_report, modes_from_series

ENUM_BUDGET = 5_000_000


# #### mode vectors ############################################################


@dataclass(frozen=True)
class ModeVector:
    """Fourier modes values[m] for |m| <= N; entries may be any ring scalar.

    Indices absent from the map are *unknown*, not zero; consumers either
    refuse them or charge them to a decay-model tail bound.
    """

    N: int
    values: dict

    def __post_init__(self):
        if self.N < 0:
            raise ValueError("window must be nonnegative")
        for m in self.values:
            if abs(m) > self.N:
                raise ValueError(f"mode index {m} outside window {self.N}")

    @classmethod
    def from_series(cls, f, N: int) -> "ModeVector":
        return cls(N, modes_from_series(f, N))

    def covers(self, m: int) -> bool:
        return m in self.values

    def __getitem__(self, m: int):
        return self.values[m]


# #### exact geometric-polynomial tails ########################################


def _stirling2(j: int) -> list[list[Scalar]]:
    s = [[ONE]]
    for n in range(1, j + 1):
        row = [ZERO] * (n + 1)
        for t in range(1, n + 1):
            below = s[n - 1]
            row[t] = (below[t] if t < n else ZERO) * t + below[t - 1]
        s.append(row)
    return s


def power_geometric_tail(j: int, r: Scalar, N: int) -> Scalar:
    """Exact sum over M > N of (M+1)**j * r**M, for 0 <= r < 1.

    sum_t t**i r**t collapses to factorial/geometric closed form through
    Stirling numbers; the shifted power splits binomially.
    """
    if not 0 <= r < 1:
        raise ValueError("ratio must lie in [0, 1)")
    if r == 0:
        return ZERO
    s2 = _stirling2(j)
    t_full = [ONE / (ONE - r)]
    for i in range(1, j + 1):
        acc = ZERO
        for l in range(1, i + 1):
            acc += s2[i][l] * math.factorial(l) * r**l / (ONE - r) ** (l + 1)
        t_full.append(acc)
    c = N + 2
    total = ZERO
    for i in range(j + 1):
        total += math.comb(j, i) * Fraction(c) ** (j - i) * t_full[i]
    return r ** (N + 1) * total


# #### k-point kernel charges ##################################################


@dataclass(frozen=True)
class IomResult:
    """A truncated charge value plus an upper bound on what truncation lost.

    tail is None when no decay model was supplied (or none yields a
    convergent bound); when present it bounds the dropped kernel shells and
    any modes outside the supplied window, assuming |mode m| <= H rho**|m|.
    """

    k: int
    value: object
    N: int
    tail: Scalar | None = None


def _kernel_coeff(qq: Scalar, m: int) -> Scalar:
    # (1 - w)/(1 - qq w) = 1 + (1 - 1/qq) sum_{m>0} (qq w)**m
    if m == 0:
        return ONE
    return (ONE - 1 / qq) * qq**m


def fit_decay(modes: ModeVector, rho: Scalar) -> tuple[Scalar, Scalar]:
    """Smallest H with |values[m]| <= H rho**|m| across the supplied window.

    Honest only when the window is wide enough that the per-index ratio has
    settled to the pole rate rho; callers pass the field's decay margins.
    """
    if not 0 < rho < 1:
        raise ValueError("rho must lie in (0, 1)")
    h = ZERO
    for m, v in modes.values.items():
        cand = abs(v) / rho ** abs(m)
        if cand > h:
            h = cand
    return h, rho


def soliton_decay(
    params: ParamPoint, b_values, modes: ModeVector
) -> tuple[Scalar, Scalar]:
    """Decay model (H, rho) of a soliton field's modes.

    rho is the slowest of the field's pole rates (the two decay margins of
    decay_report) and q; H is fitted over the supplied window."""
    rep = decay_report(params, b_values)
    return fit_decay(modes, max(rep["outer_margin"], rep["inner_margin"], params.q))


def I_k_def(
    eta: ModeVector,
    k: int,
    N: int,
    q: Scalar,
    *,
    decay: tuple[Scalar, Scalar] | None = None,
    mul=operator.mul,
) -> IomResult:
    """Constant term of k field copies against pair kernels, truncated at N.

    The pair kernel is (1 - w)/(1 - q w); the mirror orientation is the
    same enumeration at 1/q (Ibar_k_def).  Pair exponents m_{ij} <= N
    contribute the mode product at indices given by the net exponent flow
    through each position.  Missing modes raise unless a decay model (H,
    rho) is given, in which case they are charged to the tail bound.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    p = len(pairs)
    if (N + 1) ** p > ENUM_BUDGET:
        raise BudgetError(f"(N+1)**{p} exponent vectors exceed the budget")
    if decay is not None:
        h, rho = decay
        if not 0 < rho < 1:
            raise ValueError("decay ratio must lie in (0, 1)")
    ktab = [_kernel_coeff(q, m) for m in range(N + 1)]
    total = None
    tail = ZERO
    for ms in itertools.product(range(N + 1), repeat=p):
        coeff = ONE
        flow = [0] * k
        for (i, j), m in zip(pairs, ms):
            if m:
                coeff *= ktab[m]
                flow[i] -= m
                flow[j] += m
        if all(eta.covers(e) for e in flow):
            term = eta[flow[0]]
            for e in flow[1:]:
                term = mul(term, eta[e])
            term = term * coeff
            total = term if total is None else total + term
        elif decay is None:
            raise ValueError(
                f"mode {max(flow, key=abs)} outside window {eta.N}; "
                "supply a decay model or widen the modes"
            )
        else:
            tail += abs(coeff) * h**k * rho ** sum(abs(e) for e in flow)
    if total is None:
        total = ZERO
    if p == 0 or decay is None:
        return IomResult(k, total, N, tail if (decay or p == 0) else None)
    # Dropped kernel shells: every vector with some exponent M > N.  Within
    # a shell the coefficient product carries |q|**(sum m) and the mode
    # product is bounded by H**k rho**(sum |flow|); the cut-flow argument
    # gives sum |flow| >= 2M and sum m <= (k-1) * max cut flow, hence the
    # two candidate shell ratios below.  Shell M holds at most p (M+1)**(p-1)
    # vectors.
    kappa = max(ONE, abs(ONE - 1 / q))
    candidates = []
    if abs(q) < 1:
        candidates.append(abs(q))
    rescue = abs(q) ** (k - 1) * rho**2
    if rescue < 1:
        candidates.append(rescue)
    if not candidates:
        return IomResult(k, total, N, None)
    r = min(candidates)
    tail += kappa**p * h**k * p * power_geometric_tail(p - 1, r, N)
    return IomResult(k, total, N, tail)


def Ibar_k_def(xi: ModeVector, k: int, N: int, q: Scalar) -> IomResult:
    """Mirror-orientation charge over the dual field's modes: the kernel
    enumeration of I_k_def at the inverted deformation parameter."""
    return I_k_def(xi, k, N, 1 / q)


# #### quadratic and cubic kernel formulas #####################################


def M2_kernel(eta: ModeVector, N: int, q: Scalar, mul=operator.mul):
    """Half the squared zero mode plus the geometric off-diagonal sum."""
    if eta.N < N:
        raise ValueError("mode window too small")
    total = Fraction(1, 2) * mul(eta[0], eta[0])
    for m in range(1, N + 1):
        total = total + q**m * mul(eta[-m], eta[m])
    return total


def M3_kernel(eta: ModeVector, N: int, q: Scalar, mul=operator.mul):
    """Cubic charge: third of the zero-mode cube plus the double kernel sum."""
    if eta.N < N:
        raise ValueError("mode window too small")
    total = Fraction(1, 3) * mul(mul(eta[0], eta[0]), eta[0])
    for r in range(0, N + 1):
        for s in range(1, N + 1):
            total = total + q ** (r + s) * mul(mul(eta[-r], eta[r - s]), eta[s])
    return total


@lru_cache(maxsize=None)
def mode_table(ctx: ModeContext, span: int = 1) -> ModeVector:
    """Mode polynomials of the eta field for |m| <= span * n_modes.

    Modes past n_modes are identically zero in the truncated model (their
    true content is all heavier than the truncation), so a wider table just
    records zero polynomials; the cubic charge reads indices up to 2 N."""
    field = build_eta(ctx)
    W = span * ctx.trunc.n_modes
    return ModeVector(W, {m: field.mode(m) for m in range(-W, W + 1)})


def capped_mul(ctx: ModeContext):
    """Mode-polynomial product pruned to the context's weight and degree caps."""
    N, D = ctx.trunc.n_modes, ctx.trunc.d_deg
    return lambda a, b: poly_mul(a, b, max_weight=N, max_deg=D)


@lru_cache(maxsize=None)
def M2_functional(ctx: ModeContext) -> AlphaSeries:
    """Quadratic charge as a mode-polynomial functional (full guarantee)."""
    poly = M2_kernel(mode_table(ctx), ctx.trunc.n_modes, ctx.q, capped_mul(ctx))
    return AlphaSeries.functional(ctx, poly)


@lru_cache(maxsize=None)
def M3_functional(ctx: ModeContext) -> AlphaSeries:
    """Cubic charge as a mode-polynomial functional (full guarantee)."""
    poly = M3_kernel(mode_table(ctx), ctx.trunc.n_modes, ctx.q, capped_mul(ctx))
    return AlphaSeries.functional(ctx, poly)


# #### closed forms ############################################################


def _e_sym(values, k: int) -> Scalar:
    if k < 0:
        return ZERO
    coeffs = [ONE] + [ZERO] * k
    for x in values:
        for i in range(min(len(coeffs) - 1, k), 0, -1):
            coeffs[i] += coeffs[i - 1] * x
    return coeffs[k]


def closed_I(k: int, p: ParamPoint) -> Scalar:
    """Closed charge value at a soliton point.

    Prefactor times the k-th elementary symmetric value of the finite wave
    numbers joined with the geometric spectral tail; the mixed elementary
    value is the convolution of the finite part with the closed tail.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return ONE
    q = p.q
    pref = q ** (-k * (k - 1) // 2) * q_pochhammer(q, k)
    x0 = q**p.n * p.eps
    total = ZERO
    for j in range(k + 1):
        total += _e_sym(p.a, k - j) * e_geometric_tail(x0, q, j)
    return pref * total


def closed_Ibar(k: int, p: ParamPoint) -> Scalar:
    """Mirror charge: the closed form at the inverted point."""
    return closed_I(k, p.inverted())


def closed_M(i: int, p: ParamPoint, bar: bool = False) -> Scalar:
    """Power-sum-route closed value (1 - q**i)/i times the extended power sum."""
    if i < 1:
        raise ValueError("i must be >= 1")
    pt = p.inverted() if bar else p
    return (ONE - pt.q**i) * Fraction(1, i) * power_sum_extended(i, pt)


# #### Newton map ##############################################################


def newton_normalizers(q: Scalar, k: int) -> list[Scalar]:
    """Triangular prefactors q**(j(j-1)/2) / prod_{i<=j}(1 - q**i), j = 1..k,
    that turn the j-th charge into elementary symmetric data."""
    return [q ** (j * (j - 1) // 2) / q_pochhammer(q, j) for j in range(1, k + 1)]


def M_from_I(i_values: list, p: ParamPoint, bar: bool = False, *, one=ONE, zero=ZERO):
    """Newton-determinant combination of the first k charges.

    Normalizes each charge by its triangular prefactor, feeds the list as
    elementary symmetric data to the power-sum determinant, and rescales.
    Generic over the value ring; pass that ring's one/zero for polynomial
    entries.
    """
    k = len(i_values)
    if k == 0:
        raise ValueError("need at least one charge value")
    q = 1 / p.q if bar else p.q
    e = [v * w for v, w in zip(i_values, newton_normalizers(q, k))]
    p_k = newton_p_from_e(e, one=one, zero=zero)
    return p_k * ((ONE - q**k) * Fraction(1, k))
