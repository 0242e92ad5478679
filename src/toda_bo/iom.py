"""Conserved charges built from field modes.

The k-point charge is the constant term, in k auxiliary variables, of the
product of k field copies weighted by rational pair kernels.  Expanding
each kernel geometrically turns the constant term into a finite sum over
pair exponent vectors; the exponent flow through position i selects the
mode index of the i-th field copy.  Two kernel orientations exist and are
mirror images of one another under inverting the deformation parameter, so
a single sum serves both.

The pair kernel is geometric: K(0) = 1 and K(m) = (1 - 1/q) q**m for
m >= 1.  So the last pair (k-2, k-1) is summed once per pair of partial
flows A, B into those two positions, in the table

    S(A, B) = sum_{m=0..N} K(m) eta[A-m] eta[B+m] = eta[A] eta[B] + T(A, B),
    T(A, B) = sum_{m=1..N} K(m) eta[A-m] eta[B+m],

and every vector of the other p - 1 pairs costs one lookup.  Along an
anti-diagonal A + B = s, T moves in O(1):

    T(A+1, B-1) = K(1) eta[A] eta[B] + q (T(A, B) - K(N) eta[A-N] eta[B+N]).

This is the reindexing m -> m + 1 of the finite sum, with K(m+1) = q K(m)
for m >= 1: the m = 0 term enters with K(1) and the m = N term leaves.
Each diagonal starts from one direct sum.  Vectors whose flows into the
first k - 2 positions agree share those positions' mode product, so each
vector costs a lookup and a scalar product, and each distinct outer flow
k - 2 mode products.  The charge I_k thus costs (N+1)**(p-1) vectors plus
O((k-1)**2 N**2) table products, so I_3 is O(N**2) instead of O(N**3).  The
identity uses only ring operations, so the result is the same element as
the literal sum over all (N+1)**p vectors: the same Fraction, and the same
slot-0 cell for a field of mode slices (the window cut drops an ideal,
weight and degree adding under multiplication, so cut products and sums
commute with it).

Over Fractions every term of such a sum shares one known denominator, so
the sums run on Python ints.  With the field scaled by D, the lcm of its
denominators, and the coefficient table by E, the lcm of its own, a sum of
degree k in the field and p in the table is an integer at scale D**k E**p
and becomes one Fraction at the end, instead of one reduced Fraction (one
gcd) per product.  The anti-diagonal step multiplies by r = q, which does
not stay integral by itself; but the T it yields is again a sum of scaled
integer products, so the product by r is an exact division, and a
remainder raises rather than rounds.  The quadratic and cubic kernel
formulas run the same way over a table of q's powers.

The charge combinations obtained through Newton's identities from the
normalized k-point charges admit closed forms at soliton points; both the
closed forms and the quadratic/cubic kernel formulas live here so callers
can cross-check the independent routes.

Truncation bounds live beside what they bound, for modes under a decay
model |mode m| <= H rho**|m|: shell_tail bounds the kernel shells that
I_k_def drops past its cutoff, kernel_tail what M2_kernel and M3_kernel
drop, and newton_error_bound how far M_from_I moves when each charge moves
by its tail bound.  Each sum returns its value; shell_tail and kernel_tail
are calls of their own, and raise ParamError where the decay model gives no
bound.

A charge functional is a constant term: the charge sum over mode_table,
whose mode eta_m is the one-cell z-series at slot -m of the eta field,
multiplies with AlphaSeries.__mul__, and the functional is the slot-0
cell of the result (AlphaSeries.constant_term).  Each partial product at
slot s is cut to weight n_modes - |s|, which loses nothing: by balance it
reaches slot 0 only through factors of weight >= |s|.  Soundness at full
claimed weight: a weight-w output monomial factors as mu_1..mu_j with
each factor weight at least the absolute mode index it came from, so
every contributing kernel exponent is at most w and every required mode
cell lies inside the primitive certified region (index + factor weight
<= budget).  Hence the quadratic and cubic builders inherit the
primitive guarantee unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .scalar import (
    ONE,
    ZERO,
    BudgetError,
    ParamError,
    ParamPoint,
    Scalar,
    newton_p_from_e,
    numerators,
    q_pochhammer,
)
from .modes import AlphaSeries, ModeContext, build_eta
from .soliton import decay_report, modes_from_series

ENUM_BUDGET = 5_000_000


# #### mode vectors ############################################################


@dataclass(frozen=True)
class ModeVector:
    """Fourier modes values[m] for every |m| <= N; entries may be any ring
    element: Fractions, or the one-cell series of mode_table.

    The window is complete: values holds exactly the indices -N..N.  Modes
    outside it are unknown, not zero, and consumers refuse them.
    """

    N: int
    values: dict

    def __post_init__(self):
        if self.N < 0:
            raise ValueError("window must be nonnegative")
        window = set(range(-self.N, self.N + 1))
        if set(self.values) != window:
            odd = sorted(set(self.values) ^ window, key=abs)[0]
            raise ValueError(
                f"mode table must hold exactly the indices -{self.N}..{self.N}"
                f" (index {odd} is {'missing' if odd in window else 'outside'})"
            )

    @classmethod
    def from_series(cls, f) -> "ModeVector":
        return cls(max(f), modes_from_series(f))

    def __getitem__(self, m: int):
        return self.values[m]


# #### exact geometric-polynomial tails ########################################


def power_geometric_tail(j: int, r: Scalar, N: int) -> Scalar:
    """Exact sum over M > N of (M+1)**j * r**M, for 0 <= r < 1.

    With M = N + 1 + t the sum is r**(N+1) sum_i C(j, i) (N+2)**(j-i) S_i,
    S_i = sum_{t>=0} t**i r**t.  S_0 = 1/(1 - r), and shifting t -> t + 1
    gives (1 - r) S_i = r sum_{l<i} C(i, l) S_l.
    """
    if not 0 <= r < 1:
        raise ValueError("ratio must lie in [0, 1)")
    S = [ONE / (ONE - r)]
    for i in range(1, j + 1):
        lower = sum((math.comb(i, l) * S[l] for l in range(i)), ZERO)
        S.append(r * lower / (ONE - r))
    c = Fraction(N + 2)
    return r ** (N + 1) * sum(
        (math.comb(j, i) * c ** (j - i) * S[i] for i in range(j + 1)), ZERO
    )


# #### k-point kernel charges ##################################################


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


def _exponent_vectors(pairs, k: int, ktab: list):
    """(prod of ktab[m], flow) for every exponent vector over pairs, where
    the exponent m of pair (i, j) moves flow m from position i to j."""
    if not pairs:
        yield 1, [0] * k
        return
    i, j = pairs[-1]
    for coeff, flow in _exponent_vectors(pairs[:-1], k, ktab):
        for m, km in enumerate(ktab):
            out = flow.copy()
            out[i] -= m
            out[j] += m
            yield coeff * km, out


def _times(x, r: Fraction):
    """x * r.  On a Python int (the Fraction path of _exact_sum) the
    product is known to be an integer, so it is an exact division, and a
    remainder raises instead of rounding."""
    if not isinstance(x, int):
        return x * r
    y, rem = divmod(x * r.numerator, r.denominator)
    if rem:
        raise ArithmeticError(f"{x} * {r} is not an integer")
    return y


def _kernel_sum(field: dict, k: int, ktab: list, r: Fraction):
    """Sum over all pair exponents m_ij in 0..N of prod ktab[m_ij] *
    prod field[flow_i], for k >= 2 and a geometric kernel: ktab[m+1] =
    r ktab[m] for m >= 1.

    field holds every index the flows reach, |index| <= (k-1) N.  The last
    pair is summed from the table S(A, B) over the partial flows into the
    last two positions, built one anti-diagonal at a time (module
    docstring); the other pairs are enumerated."""
    N = len(ktab) - 1
    L = (k - 2) * N
    zero = field[0] * 0
    S = {}
    for s in range(2 * L + 1):
        lo, hi = max(0, s - L), min(s, L)
        # the diagonal's products field[i] field[s - i], i = lo - N..hi, each
        # formed once: the term that leaves T at A was the product at A - N
        ab = [field[i] * field[s - i] for i in range(lo - N, hi + 1)]
        T = zero
        for m in range(1, N + 1):
            T = T + ab[N - m] * ktab[m]
        for A in range(lo, hi + 1):
            S[A, s - A] = ab[A - lo + N] * ktab[0] + T
            if A < hi:
                T = ab[A - lo + N] * ktab[1] + _times(T - ab[A - lo] * ktab[N], r)
    # vectors with the same flows into the first k - 2 positions share
    # their mode product, so each distinct outer flow costs k - 2 products
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    inner = {}
    for coeff, flow in _exponent_vectors(pairs[:-1], k, ktab):
        outer = tuple(flow[:-2])
        term = S[flow[-2], flow[-1]] * coeff
        acc = inner.get(outer)
        inner[outer] = term if acc is None else acc + term
    total = zero
    for outer, term in inner.items():
        for e in outer:
            term = field[e] * term
        total = total + term
    return total


def _exact_sum(kernel, eta: ModeVector, reach: int, table: list, k: int, p: int):
    """kernel(field, table) over the field eta[-reach..reach], on Python
    ints when the field holds Fractions: kernel, a sum of terms of degree k
    in the field and p in the table, runs on the field scaled by D and the
    table by E (the lcms of their denominators), and its total over
    D**k E**p is the value.  Any other field (mode_table's one-cell series)
    runs kernel as given, each product under the window rule.  A reach past
    eta's window raises."""
    if reach > eta.N:
        raise ValueError(f"mode {-reach} outside window {eta.N}; widen the modes")
    field = {e: eta[e] for e in range(-reach, reach + 1)}
    if not all(isinstance(v, Fraction) for v in field.values()):
        return kernel(field, table)
    values, D = numerators(field.values())
    tab, E = numerators(table)
    total = kernel(dict(zip(field, values)), tab)
    return Fraction(total, D**k * E**p)


def shell_tail(k: int, N: int, q: Scalar, decay: tuple[Scalar, Scalar]) -> Scalar:
    """Bound on what I_k_def drops past N: every vector with some exponent
    M > N, for modes bounded by H rho**|m|.  Zero at k = 1, which drops
    nothing; raises ParamError when neither shell ratio converges.

    Within a shell the coefficient product carries |q|**(sum m) and the mode
    product is bounded by H**k rho**(sum |flow|); the cut-flow argument
    gives sum |flow| >= 2M and sum m <= (k-1) * max cut flow, hence the two
    candidate shell ratios below.  Shell M holds at most p (M+1)**(p-1)
    vectors."""
    h, rho = decay
    if not 0 < rho < 1:
        raise ValueError("decay ratio must lie in (0, 1)")
    if k == 1:
        return ZERO
    p = k * (k - 1) // 2
    kappa = max(ONE, abs(ONE - 1 / q))
    candidates = []
    if abs(q) < 1:
        candidates.append(abs(q))
    rescue = abs(q) ** (k - 1) * rho**2
    if rescue < 1:
        candidates.append(rescue)
    if not candidates:
        raise ParamError("charge tail bound unavailable at this decay rate")
    r = min(candidates)
    return kappa**p * h**k * p * power_geometric_tail(p - 1, r, N)


def I_k_def(eta: ModeVector, k: int, N: int, q: Scalar):
    """Constant term of k field copies against pair kernels, truncated at N.

    The pair kernel is (1 - w)/(1 - q w); the mirror orientation is the
    same sum at 1/q.  Pair exponents m_{ij} <= N contribute the
    mode product at indices given by the net exponent flow through each
    position; a k >= 2 charge reaches |flow| <= (k-1) N.  The last pair is
    summed from an anti-diagonal table (module docstring), so the work is
    (N+1)**(p-1) vectors plus O((k-1)**2 N**2) table products for p pairs.
    A mode past the window raises; shell_tail bounds the dropped kernel
    shells under a decay model.

    A field of Fractions is summed on Python ints: the field scaled by D
    and the kernel table by E (the lcms of their denominators) make the
    charge one Fraction, total / (D**k E**p).  The table's step by r = q is
    then an exact division, since the T it yields is again a sum of integer
    products; a remainder raises.  On mode_table(ctx) the charge is a
    z-series whose slot-0 cell is the functional (its constant_term).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    p = k * (k - 1) // 2
    if (N + 1) ** p > ENUM_BUDGET:
        raise BudgetError(f"(N+1)**{p} exponent vectors exceed the budget")
    if p == 0:
        return eta[0]
    ktab = [_kernel_coeff(q, m) for m in range(N + 1)]

    def kernel(f, t):
        return _kernel_sum(f, k, t, q)

    return _exact_sum(kernel, eta, (k - 1) * N, ktab, k, p)


# #### quadratic and cubic kernel formulas #####################################


def M2_kernel(eta: ModeVector, N: int, q: Scalar):
    """Half the squared zero mode plus the geometric off-diagonal sum, over
    a table of q's powers; on integer numerators for a Fraction field."""

    def kernel(f, qtab):
        cross = f[0] * 0
        for m in range(1, N + 1):
            cross = cross + qtab[m] * (f[-m] * f[m])
        return Fraction(1, 2) * qtab[0] * (f[0] * f[0]) + cross

    return _exact_sum(kernel, eta, N, [q**m for m in range(N + 1)], 2, 1)


def M3_kernel(eta: ModeVector, N: int, q: Scalar):
    """Cubic charge: third of the zero-mode cube plus the double kernel sum,
    over a table of q's powers; on integer numerators for a Fraction field."""

    def kernel(f, qtab):
        cross = f[0] * 0
        for r in range(0, N + 1):
            for s in range(1, N + 1):
                cross = cross + qtab[r + s] * (f[-r] * f[r - s] * f[s])
        return Fraction(1, 3) * qtab[0] * (f[0] * f[0] * f[0]) + cross

    return _exact_sum(kernel, eta, N, [q**j for j in range(2 * N + 1)], 3, 1)


def kernel_tail(k: int, N: int, q: Scalar, decay: tuple[Scalar, Scalar]) -> Scalar:
    """Bound on what M2_kernel (k = 2) or M3_kernel (k = 3) drops past N for
    modes |eta[m]| <= H rho**|m|: each dropped term is at most H**k x**(its q
    power), x = q rho**2 or q rho, and M3 drops at most 2u - 1 pairs at q
    power N + u.  Raises ParamError unless 0 < x < 1."""
    h, rho = decay
    if k == 2:
        x = q * rho * rho
        if not 0 < x < 1:
            raise ParamError("kernel tail needs q rho**2 inside the unit interval")
        return h * h * x ** (N + 1) / (1 - x)
    if k == 3:
        x = q * rho
        if not 0 < x < 1:
            raise ParamError("kernel tail needs q rho inside the unit interval")
        return h**3 * x ** (N + 1) * (1 + x) / (1 - x) ** 2
    raise ValueError("kernel tail implemented for k in {2, 3}")


@lru_cache(maxsize=None)
def mode_table(ctx: ModeContext) -> ModeVector:
    """The eta field's modes for |m| <= 2 n_modes, each eta_m the one-cell
    z-series at slot -m of build_eta(ctx), with eta's guarantee: its place
    in eta, so a product of modes is a series product under the window rule
    and a charge's functional is its slot-0 cell.

    Modes past n_modes are identically zero in the truncated model (their
    true content is all heavier than the truncation), so the table's far
    half records empty series; it reaches the widest index a package
    charge reads: I_3 reads up to 2 N, M_2 and M_3 up to N."""
    e = build_eta(ctx)
    W = 2 * ctx.trunc.n_modes
    cells = {m: {(-m,): p} if (p := e.mode(m)) else {} for m in range(-W, W + 1)}
    return ModeVector(
        W, {m: AlphaSeries(ctx, e.vars, c, e.guar) for m, c in cells.items()}
    )


@lru_cache(maxsize=None)
def M2_functional(ctx: ModeContext) -> AlphaSeries:
    """Quadratic charge as a functional: the constant term of M2_kernel
    over mode_table, with eta's guarantee."""
    return M2_kernel(mode_table(ctx), ctx.trunc.n_modes, ctx.q).constant_term()


@lru_cache(maxsize=None)
def M3_functional(ctx: ModeContext) -> AlphaSeries:
    """Cubic charge as a functional: the constant term of M3_kernel over
    mode_table, with eta's guarantee."""
    return M3_kernel(mode_table(ctx), ctx.trunc.n_modes, ctx.q).constant_term()


# #### closed forms ############################################################


def closed_I(k: int, p: ParamPoint) -> list[Scalar]:
    """Closed charge values I_1..I_k at a soliton point.

    I_j is the j-th elementary symmetric value of the finite wave numbers
    joined with the geometric spectral tail x0, q x0, q**2 x0, ... (x0 =
    q**n eps), over w_j, the j-th Newton normalizer.  That value is the
    convolution of the finite values with the tail's, whose i-th is
    x0**i w_i.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    w = (ONE, *newton_normalizers(p.q, k))
    x0 = p.q**p.n * p.eps
    e = [ONE] + [ZERO] * k  # e[j]: j-th elementary symmetric value of p.a
    for x in p.a:
        for j in range(k, 0, -1):
            e[j] += e[j - 1] * x
    tail, power = [], ONE
    for wi in w:
        tail.append(power * wi)
        power *= x0
    return [
        sum(e[j - i] * tail[i] for i in range(j + 1)) / w[j] for j in range(1, k + 1)
    ]


def closed_M(k: int, p: ParamPoint) -> list[Scalar]:
    """Power-sum-route closed values M_1..M_k: M_i is (1 - q**i)/i times
    the i-th power sum of the wave numbers joined with the spectral tail,
    in which the tail's x0**i / (1 - q**i) leaves x0**i / i.  The mirror
    values are the same at p.inverted()."""
    if k < 1:
        raise ValueError("k must be >= 1")
    q, x0 = p.q, p.q**p.n * p.eps
    out, powers, qi, x0i = [], list(p.a), q, x0
    for i in range(1, k + 1):
        out.append(((ONE - qi) * sum(powers, ZERO) + x0i) / i)
        powers = [y * x for y, x in zip(powers, p.a)]
        qi, x0i = qi * q, x0i * x0
    return out


# #### Newton map ##############################################################


@lru_cache(maxsize=None)
def newton_normalizers(q: Scalar, k: int) -> tuple[Scalar, ...]:
    """Triangular prefactors q**(j(j-1)/2) / prod_{i<=j}(1 - q**i), j = 1..k,
    that turn the j-th charge into elementary symmetric data.  Cached: a
    run asks for them at a few (q, k) many times."""
    return tuple(q ** (j * (j - 1) // 2) / q_pochhammer(q, j) for j in range(1, k + 1))


def M_from_I(i_values: list, q: Scalar) -> list:
    """Newton's-identities combinations M_1..M_k of the first k charges.

    Normalizes each charge by its triangular prefactor, feeds the list as
    elementary symmetric data to Newton's identities for the power sums,
    and rescales each.  Generic over the value ring: Fractions, or the
    series that charges over mode_table return.  The mirror charges
    combine at 1/q, the q of ParamPoint.inverted().
    """
    e = [v * w for v, w in zip(i_values, newton_normalizers(q, len(i_values)))]
    return [
        pj * ((ONE - q**j) * Fraction(1, j))
        for j, pj in enumerate(newton_p_from_e(e), 1)
    ]


def newton_error_bound(values: list, tails: list, q: Scalar) -> Scalar:
    """Worst-case shift of M_from_I over k = len(values) in {2, 3} charges
    when each moves by its tail bound, on explicit monomial bounds."""
    k = len(values)
    w = newton_normalizers(q, k)
    e = [abs(v) * abs(wj) for v, wj in zip(values, w)]
    d = [t * abs(wj) for t, wj in zip(tails, w)]
    if k == 2:
        c = abs(1 - q**2) / 2
        return c * (2 * (e[0] + d[0]) * d[0] + 2 * d[1])
    if k == 3:
        c = abs(1 - q**3) / 3
        cube = 3 * (e[0] + d[0]) ** 2 * d[0]
        cross = 3 * (e[0] * d[1] + e[1] * d[0] + d[0] * d[1])
        return c * (cube + cross + 3 * d[2])
    raise ValueError("error bound implemented for k in {2, 3}")
