"""Truncated mode algebra with provable-exactness bookkeeping.

The state space is a polynomial algebra over modes alpha_n (n a nonzero
integer) carrying the deformed Poisson bracket

    {alpha_n, alpha_m} = sgn(n) (1 - q**|n|) delta_{n+m, 0},   q = s**2.

Work happens in a truncation: modes up to +-n_modes, polynomial degree up to
d_deg, and Laurent slots (exponents of the formal variables z, w, ...) up to
+-n_modes per variable.  Truncation alone is not a proof, so every series
carries a Guarantee(budget, degree): a stored coefficient cell (slots s,
monomial mu) is certified equal to its untruncated value whenever

    sum_i |s_i| + weight(mu) <= budget   and   degree(mu) <= degree,

with weight(mu) = sum of |mode index| over the monomial, plus a standalone
certified-weight bound (see Guarantee).  The soundness argument rests on the
balance invariant sigma(mu) = -sum(s) (mode-index sum opposite the slot
sum), which pins every contributor of a certified cell inside the certified
region of its inputs.  Brackets cost one degree and cap the budget at the
operands' certified weight; a kernel application (a delta product is one)
halves the certified weight; products and linear maps preserve everything.

Every series is built inside its window (slot l1-norm + weight <= n_modes,
degree <= d_deg): each producer trims its own cells, and the one
AlphaSeries constructor asserts that rule and balance on every monomial.
Every field is built in z, once per context; a second variable w is the
same cells under another name (AlphaSeries.renamed).  Every field is the
exponential of a linear mode form (tau_+- of tau_log, eta and xi of
two-sided sums), and so is every product of shifted taus and their
inverses: 1 / tau is exp(-tau_log), so the algebra has no series inverse.

The algebra runs on Python ints.  A monomial is one int of 8-bit fields,
from the low end: its degree, its positive weight (the sum of its positive
mode indices), its negative weight (the sum of |n| over its negative
ones), then the exponent of every mode in the order alpha_1, alpha_-1,
alpha_2, alpha_-2, ...; the constant monomial is 0.  Multiplying two
monomials adds every field, so the product is m1 + m2, and weight, degree
and balance sigma are read off the header fields.  No field exceeds the
monomial's weight (each exponent is at most the degree, and the degree at
most the weight, as every |n| >= 1), so while the weight stays <= 255
(MAX_WEIGHT) no field can carry into the next: ModeTrunc caps n_modes
there, and every product is cut to the window, inside n_modes.

A mode polynomial is integer numerators over one denominator, the lcm of
its reduced coefficient denominators.  Each operand cell becomes rows
(packed monomial, weight, degree, numerator) over that denominator,
sorted by weight so a weight cap ends a scan early.  _sum_products adds
c * a * b over its terms into one integer per result monomial, every term
scaled to the lcm of the terms' denominators, and reduces the result by
one gcd.  Every product is one _window_cell, which sums a slot's terms
under the window rule: each result slot of a series product (a charge
functional is the slot-0 cell of a product of mode slices, read by
AlphaSeries.constant_term), each target slot of a kernel application and
each bracket cell (the pairing over all n); a cell whose terms' lightest
rows are all past the window forms no product.  Two mode polynomials
have no product of their own.  Sums, negation and scalar multiples work
on the numerators too.  The rows are private to this module: other modules
build through AlphaPoly and AlphaSeries and read a monomial with the
mono_* accessors.  No Fraction is built until a coefficient is read
(AlphaPoly.coeff), which the windowed finisher does for a violating cell
only.  Integer sums are exact and the reduced form is unique, so the
coefficients are the rationals the term-by-term Fraction sum gives, and
a sum that cancels to zero is not stored.

Returned series share structure: treat them as immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count, islice, product, repeat
from math import gcd, lcm
from operator import itemgetter

from .scalar import ONE, PoleError, Scalar

Monomial = int  # packed fields: degree, +weight, -weight, mode exponents
MAX_WEIGHT = 255  # the largest value of an 8-bit field
_EXPONENTS = 24  # the bit where the first mode's exponent field starts


def unit(n: int) -> Monomial:
    """The monomial alpha_n, n nonzero: degree 1, weight |n| on n's side,
    and exponent 1 in field 2|n| - 2 (n > 0) or 2|n| - 1 (n < 0)."""
    a = abs(n)
    if n > 0:
        return 1 | a << 8 | 1 << (_EXPONENTS + 8 * (2 * a - 2))
    return 1 | a << 16 | 1 << (_EXPONENTS + 8 * (2 * a - 1))


def mono_degree(m: Monomial) -> int:
    return m & 255


def mono_weight(m: Monomial) -> int:
    return (m >> 8 & 255) + (m >> 16 & 255)


def mono_sigma(m: Monomial) -> int:
    return (m >> 8 & 255) - (m >> 16 & 255)


def _exponent_bytes(m: Monomial) -> bytes:
    """m's exponent fields, one byte each, up to its last nonzero one."""
    x = m >> _EXPONENTS
    return x.to_bytes((x.bit_length() + 7) // 8, "little")


def mono_powers(m: Monomial) -> list[tuple[int, int]]:
    """(n, exponent of alpha_n) for every mode in m, in field order
    1, -1, 2, -2, ...: field i holds mode (i // 2 + 1) * (-1)**i."""
    return [(_FIELDS[i][0], e) for i, e in enumerate(_exponent_bytes(m)) if e]


# (n, unit(n) less its exponent bit 1 << (_EXPONENTS + 8 i), |n|) for
# exponent field i, the mode (i // 2 + 1) * (-1)**i; the bit is left out so
# the table holds small ints only
_FIELDS = [
    (n, unit(n) & (1 << _EXPONENTS) - 1, abs(n))
    for n in ((i // 2 + 1) * (-1) ** i for i in range(2 * MAX_WEIGHT))
]


# #### mode polynomials ########################################################


class AlphaPoly:
    """Polynomial in the modes with rational coefficients, held as integer
    numerators over one denominator.

    nums maps packed monomials to nonzero ints; den > 0 is the lcm of the
    reduced coefficient denominators, so the coefficient of m is
    nums[m] / den.  The constructor divides out gcd(den, *nums),
    which leaves exactly that lcm (lcm_i den / gcd(den, n_i) equals
    den / gcd(den, n_1, ..., n_k)): the form is canonical and == compares
    values.  Zero coefficients are never stored.
    """

    __slots__ = ("nums", "den")

    def __init__(self, nums: dict[Monomial, int], den: int):
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {m: v // g for m, v in nums.items()}
            den //= g
        self.nums = nums
        self.den = den

    @classmethod
    def zero(cls) -> "AlphaPoly":
        return cls({}, 1)

    @classmethod
    def one(cls) -> "AlphaPoly":
        return cls({0: 1}, 1)

    def coeff(self, m: Monomial) -> Fraction:
        """The coefficient of monomial m, as a Fraction."""
        return Fraction(self.nums.get(m, 0), self.den)

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other) -> bool:
        if isinstance(other, AlphaPoly):
            return self.den == other.den and self.nums == other.nums
        return NotImplemented

    def _plus(self, other: "AlphaPoly", sub: bool) -> "AlphaPoly":
        """self + other, or self - other when sub, in one pass over the
        lcm of the two denominators."""
        if not isinstance(other, AlphaPoly):
            return NotImplemented
        a, b = self, other
        if not sub and len(a.nums) < len(b.nums):
            a, b = b, a
        den = lcm(a.den, b.den)
        sa, sb = den // a.den, den // b.den
        out = dict(a.nums) if sa == 1 else {m: v * sa for m, v in a.nums.items()}
        if sub:
            sb = -sb
        for m, v in b.nums.items():
            v = out.get(m, 0) + v * sb
            if v:
                out[m] = v
            else:
                del out[m]
        return AlphaPoly(out, den)

    def __add__(self, other: "AlphaPoly") -> "AlphaPoly":
        return self._plus(other, False)

    def __neg__(self) -> "AlphaPoly":
        return AlphaPoly({m: -v for m, v in self.nums.items()}, self.den)

    def __sub__(self, other: "AlphaPoly") -> "AlphaPoly":
        return self._plus(other, True)

    def __mul__(self, other: Scalar) -> "AlphaPoly":
        """A scalar multiple: two mode polynomials multiply only as cells
        of series (AlphaSeries.__mul__), under the window rule."""
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            return AlphaPoly.zero()
        c = other.numerator
        return AlphaPoly(
            {m: v * c for m, v in self.nums.items()}, self.den * other.denominator
        )

    __rmul__ = __mul__

    def __repr__(self) -> str:
        if not self.nums:
            return "0"
        named = [
            (sorted(n for n, e in mono_powers(m) for _ in range(e)), m)
            for m in self.nums
        ]
        bits = []
        for modes, m in sorted(named):
            mono = "*".join(f"a[{n}]" for n in modes) or "1"
            bits.append(f"({self.coeff(m)})*{mono}")
        return " + ".join(bits)


Rows = tuple[list[tuple[Monomial, int, int, int]], int]


def _poly_rows(p: AlphaPoly) -> Rows:
    """p as (rows, den): one row (monomial, weight, degree, numerator over
    den) per term, sorted by weight."""
    rows = [
        (m, (m >> 8 & 255) + (m >> 16 & 255), m & 255, v) for m, v in p.nums.items()
    ]
    rows.sort(key=itemgetter(1))
    return rows, p.den


def _sum_products(
    terms: list[tuple[Scalar, Rows, Rows]], max_weight: float, max_deg: float
) -> AlphaPoly:
    """Sum of c * a * b over terms (c, a, b), a and b as _poly_rows, keeping
    result monomials of weight <= max_weight and degree <= max_deg.

    The integer product kernel: every term is brought to the lcm of the
    terms' denominators by an integer scale, each result monomial is one
    integer over that lcm, and the sum is one AlphaPoly with no Fraction
    built.  Rows are sorted by weight so a cap violation breaks the loop
    early."""
    dens = [c.denominator * da * db for c, (_, da), (_, db) in terms]
    den = lcm(*dens)
    acc: dict[Monomial, int] = {}
    get = acc.get
    for (c, (ra, _), (rb, _)), d in zip(terms, dens):
        scale = c.numerator * (den // d)
        for m1, w1, d1, c1 in ra:
            wrem, drem = max_weight - w1, max_deg - d1
            if wrem < 0:
                break
            if drem < 0:
                continue
            c1 *= scale
            for m2, w2, d2, c2 in rb:
                if w2 > wrem:
                    break
                if d2 > drem:
                    continue
                m = m1 + m2
                acc[m] = get(m, 0) + c1 * c2
    return AlphaPoly({m: v for m, v in acc.items() if v}, den)


# #### context and guarantees ##################################################


@dataclass(frozen=True)
class ModeTrunc:
    n_modes: int
    d_deg: int

    def __post_init__(self):
        if self.n_modes < 1 or self.d_deg < 1:
            raise ValueError("truncation must allow at least one mode and degree")
        if self.n_modes > MAX_WEIGHT:
            raise ValueError(
                f"n_modes must be at most {MAX_WEIGHT}, the largest monomial weight"
            )


@dataclass(frozen=True)
class ModeContext:
    """Deformation parameters plus the working truncation."""

    s: Scalar
    eps: Scalar
    trunc: ModeTrunc

    def __post_init__(self):
        if self.s in (0, 1, -1):
            raise ValueError("s must avoid 0 and +-1")
        if self.eps == 0:
            raise ValueError("eps must be nonzero")

    @property
    def q(self) -> Scalar:
        return self.s * self.s

    def one_minus_q(self, n: int) -> Scalar:
        v = 1 - self.q**n
        if v == 0:
            raise PoleError(f"1 - q**{n} vanishes")
        return v


def _window_cell(ctx: ModeContext, slot: tuple[int, ...], terms) -> AlphaPoly:
    """The cell at slot of the sum of c * a * b over _sum_products terms,
    under the window rule: the monomials of weight <= n_modes - |slot|_1
    and degree <= d_deg.  A term with no rows, or whose lightest product
    (the first rows) is past that weight, is dropped, and with none left no
    product is formed: an empty cell past n_modes costs no _sum_products."""
    room = ctx.trunc.n_modes - sum(map(abs, slot))
    terms = [
        (c, a, b)
        for c, a, b in terms
        if a[0] and b[0] and a[0][0][1] + b[0][0][1] <= room
    ]
    return _sum_products(terms, room, ctx.trunc.d_deg) if terms else AlphaPoly.zero()


@dataclass(frozen=True)
class Guarantee:
    """Certified region of a truncated series.

    A cell (slot vector s, monomial mu) is certified exact when

        sum|s_i| + weight(mu) <= budget,  weight(mu) <= weight,  deg(mu) <= degree.

    Products and linear maps meet componentwise.  A bracket caps its budget
    by both operands' weight field (a contributor monomial can absorb the
    whole target weight plus slot span on one side) and costs one degree.
    A kernel application (a delta product is one) halves the certified
    weight: its contributing cells sit at slot span up to the monomial's weight.
    """

    budget: int
    weight: int
    degree: int

    def meet(self, other: "Guarantee") -> "Guarantee":
        return Guarantee(
            min(self.budget, other.budget),
            min(self.weight, other.weight),
            min(self.degree, other.degree),
        )

    def after_bracket(self, other: "Guarantee") -> "Guarantee":
        b = min(self.budget, other.budget, self.weight, other.weight)
        return Guarantee(b, b, min(self.degree, other.degree) - 1)

    def kern_derate(self) -> "Guarantee":
        return Guarantee(self.budget, min(self.weight, self.budget // 2), self.degree)

    def covers(self, slot_abs: int, weight: int, degree: int) -> bool:
        return (
            slot_abs + weight <= self.budget
            and weight <= self.weight
            and degree <= self.degree
        )


# #### slotted series over the mode algebra ###################################


class AlphaSeries:
    """Laurent data in zero or more formal variables with AlphaPoly cells.

    coeffs maps slot vectors (tuples, one integer exponent per variable) to
    nonzero mode polynomials; the Guarantee says which cells are certified.
    This one constructor stores the cells it is given, which must already
    meet the window rule (slot l1-norm + weight <= n_modes, degree <=
    d_deg) and balance: an AssertionError names a monomial that breaks one.
    """

    __slots__ = ("ctx", "vars", "coeffs", "guar")

    def __init__(self, ctx: ModeContext, vars, coeffs, guar: Guarantee):
        self.ctx = ctx
        self.vars = tuple(vars)
        N, D = ctx.trunc.n_modes, ctx.trunc.d_deg
        for slot, poly in coeffs.items():
            if len(slot) != len(self.vars):
                raise ValueError("slot arity mismatch")
            if not poly:
                raise AssertionError(f"empty cell at slot {slot}")
            off, room = sum(slot), N - sum(map(abs, slot))
            for m in poly.nums:
                pos, neg = m >> 8 & 255, m >> 16 & 255
                if pos - neg != -off or pos + neg > room or m & 255 > D:
                    rule = "balance" if mono_sigma(m) != -off else "window rule"
                    raise AssertionError(
                        f"{rule} violated at slot {slot}: powers {mono_powers(m)}"
                    )
        self.coeffs = coeffs
        self.guar = guar

    # -- access ----------------------------------------------------------------

    def coeff(self, slot) -> AlphaPoly:
        return self.coeffs.get(tuple(slot), AlphaPoly.zero())

    def mode(self, n: int) -> AlphaPoly:
        """For a one-variable series sum_n c_n z**{-n}: the coefficient c_n."""
        if len(self.vars) != 1:
            raise ValueError("mode() needs exactly one variable")
        return self.coeff((-n,))

    def constant_term(self) -> "AlphaSeries":
        """For a one-variable series: its slot-0 cell as a functional, with
        the series' guarantee."""
        p = self.mode(0)
        return AlphaSeries(self.ctx, (), {(): p} if p else {}, self.guar)

    def functional_value(self) -> AlphaPoly:
        if self.vars:
            raise ValueError("not a functional (has variables)")
        return self.coeff(())

    def is_zero(self) -> bool:
        return not self.coeffs

    def renamed(self, *vars) -> "AlphaSeries":
        """The same cells, shared, under other variable names."""
        return AlphaSeries(self.ctx, vars, self.coeffs, self.guar)

    def __repr__(self):
        return (
            f"<alpha-series vars={self.vars} cells={len(self.coeffs)} "
            f"guar=({self.guar.budget},{self.guar.weight},{self.guar.degree})>"
        )

    # -- linear structure -------------------------------------------------------

    def _with(self, coeffs, guar=None):
        """A linear image of self: its cells meet the window rule already."""
        return AlphaSeries(self.ctx, self.vars, coeffs, guar or self.guar)

    def _plus(self, other: "AlphaSeries", sub: bool) -> "AlphaSeries":
        """self + other, or self - other when sub, cell by cell in one pass."""
        self._align(other)
        out = dict(self.coeffs)
        for slot, p in other.coeffs.items():
            q = out.get(slot)
            if q is None:
                r = -p if sub else p
            else:
                r = q - p if sub else q + p
            if r:
                out[slot] = r
            else:
                out.pop(slot, None)
        return self._with(out, self.guar.meet(other.guar))

    def __add__(self, other: "AlphaSeries") -> "AlphaSeries":
        return self._plus(other, False)

    def __neg__(self):
        return self._with({s: -p for s, p in self.coeffs.items()})

    def __sub__(self, other: "AlphaSeries") -> "AlphaSeries":
        return self._plus(other, True)

    def scale(self, c: Scalar) -> "AlphaSeries":
        c = Fraction(c)
        if c == 1:
            return self
        if not c:
            return self._with({})
        return self._with({s: p * c for s, p in self.coeffs.items()})

    def subs_scale(self, c: Scalar) -> "AlphaSeries":
        """Substitute the first variable v -> c * v: cell at slot k gains c**k."""
        if not self.vars:
            raise ValueError("no variables to rescale")
        c = Fraction(c)
        if not c:
            raise ValueError("rescaling needs a nonzero factor")
        return self._with({slot: p * c ** slot[0] for slot, p in self.coeffs.items()})

    def slice_sign(self, sign: int) -> "AlphaSeries":
        """Keep only cells whose slot in the first variable has strict sign."""
        if sign not in (1, -1):
            raise ValueError("sign must be +-1")
        out = {s: p for s, p in self.coeffs.items() if sign * s[0] > 0}
        return self._with(out)

    def _align(self, other: "AlphaSeries"):
        if not isinstance(other, AlphaSeries):
            raise TypeError("AlphaSeries expected")
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ValueError("context mismatch")
        if self.vars != other.vars:
            raise ValueError("variable mismatch")

    # -- multiplicative structure ------------------------------------------------

    def __mul__(self, other) -> "AlphaSeries":
        """Product: one shared variable convolves slotwise; disjoint
        variables (a functional has none) tensor; an int or a Fraction, on
        either side, scales.  An operand with no cells gives the empty
        product at once.

        Any other overlap is refused: the contributor-pinning argument needs
        per-variable balance, which only these two kinds guarantee.
        """
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, AlphaSeries):
            return NotImplemented
        if len(self.vars) == 1 and self.vars == other.vars:
            rvars = self.vars
            combine = lambda a, b: (a[0] + b[0],)
        elif not set(self.vars) & set(other.vars):
            rvars = self.vars + other.vars
            combine = lambda a, b: a + b
        else:
            raise ValueError("a product shares one variable or none")
        guar = self.guar.meet(other.guar)
        if not (self.coeffs and other.coeffs):
            return AlphaSeries(self.ctx, rvars, {}, guar)
        brows = [(sb, _poly_rows(pb)) for sb, pb in other.coeffs.items()]
        terms: dict[tuple[int, ...], list] = {}
        for sa, pa in self.coeffs.items():
            ra = _poly_rows(pa)
            for sb, rb in brows:
                terms.setdefault(combine(sa, sb), []).append((1, ra, rb))
        out = {s: p for s, ts in terms.items() if (p := _window_cell(self.ctx, s, ts))}
        return AlphaSeries(self.ctx, rvars, out, guar)

    __rmul__ = __mul__

    # -- one-sided analytic operations -------------------------------------------

    def exp(self) -> "AlphaSeries":
        if len(self.vars) != 1:
            raise ValueError("exp needs exactly one variable")
        if self.coeff((0,)):
            raise ValueError("exp needs zero constant cell")
        if len({s > 0 for (s,) in self.coeffs}) > 1:
            raise ValueError("exp needs one-sided support")
        N = self.ctx.trunc.n_modes
        one = AlphaSeries(self.ctx, self.vars, {(0,): AlphaPoly.one()}, self.guar)
        result, term = one, one
        for k in range(1, N + 1):
            term = (term * self).scale(Fraction(1, k))
            if term.is_zero():
                break
            result = result + term
        return result._with(result.coeffs, self.guar)


# #### bracket and flows #######################################################


def diff_rows(p: AlphaPoly) -> dict[int, Rows]:
    """Partial derivatives of p by every mode present, {n: d/d alpha_n},
    as rows over p's own lcm: the operand form of poisson_pairing.

    d/d alpha_n takes each monomial m holding n to m - unit(n) times n's
    exponent, one distinct monomial each, so no two terms meet, and
    lowering every weight by |n| keeps the order."""
    rows, D = _poly_rows(p)
    table: dict[int, list] = {}
    for m, w, d, c in rows:
        for i, e in enumerate(_exponent_bytes(m)):
            if e:
                n, h, a = _FIELDS[i]
                row = (m - h - (1 << (_EXPONENTS + 8 * i)), w - a, d - 1, c * e)
                table.setdefault(n, []).append(row)
    return {n: (r, D) for n, r in table.items()}


@lru_cache(maxsize=None)
def _pairing_scales(ctx: ModeContext) -> list[tuple[int, Scalar, Scalar]]:
    """(n, 1 - q**n, its negative) for n = 1..n_modes."""
    scales = [(n, ctx.one_minus_q(n)) for n in range(1, ctx.trunc.n_modes + 1)]
    return [(n, c, -c) for n, c in scales]


def poisson_pairing(dfs: dict[int, Rows], dgs: dict[int, Rows], ctx: ModeContext):
    """The _sum_products terms of the bracket {f, g} of two mode
    polynomials, from their derivative rows.

    dfs and dgs are diff_rows(f) and diff_rows(g); the deformed pairing
    sums (1 - q**n) (f_n g_{-n} - f_{-n} g_n) over n = 1..n_modes.
    """
    terms = []
    for n, c, minus_c in _pairing_scales(ctx):
        if n in dfs and -n in dgs:
            terms.append((c, dfs[n], dgs[-n]))
        if -n in dfs and n in dgs:
            terms.append((minus_c, dfs[-n], dgs[n]))
    return terms


def bracket(F: AlphaSeries, G: AlphaSeries) -> AlphaSeries:
    """Slotwise Poisson bracket; result variables are F's then G's.

    Shared variable names are not allowed: bracket both sides in distinct
    formal variables, then specialize.  A field bracketed with itself under
    another name (G sharing F's cells) is computed once per unordered pair
    of cells: the pairing is antisymmetric and the cap depends on the span
    alone, so cell (b, a) is -(cell (a, b)) and a diagonal cell is zero.
    """
    if set(F.vars) & set(G.vars):
        raise ValueError("bracket operands must use distinct variables")
    ctx = F.ctx
    rvars = F.vars + G.vars

    # G's derivative rows once per cell, F's per outer cell (holding both
    # sides' rows at once costs memory) unless they are G's own; each slot
    # pair (sa, sb) is its own result slot sa + sb
    gcells = [(sb, diff_rows(pb)) for sb, pb in G.coeffs.items()]
    shared = F.coeffs is G.coeffs
    fcells = gcells if shared else ((sa, diff_rows(pa)) for sa, pa in F.coeffs.items())
    out: dict[tuple[int, ...], AlphaPoly] = {}
    for i, (sa, dfs) in enumerate(fcells):
        for j, (sb, dgs) in enumerate(gcells):
            if shared and j <= i:  # a diagonal cell is zero
                if j < i and sb + sa in out:
                    out[sa + sb] = -out[sb + sa]
                continue
            acc = _window_cell(ctx, sa + sb, poisson_pairing(dfs, dgs, ctx))
            if acc:
                out[sa + sb] = acc
    return AlphaSeries(ctx, rvars, out, F.guar.after_bracket(G.guar))


def hirota(factors, f: AlphaSeries, g: AlphaSeries) -> AlphaSeries:
    """prod_i (D_i + M_i) f.g for factors [(H_i, M_i)], D_i the Hirota
    derivative along the flow {H_i, .} of a functional H_i and M_i a
    functional, or None for a bare D_i: a repeated factor is a power, none
    the plain product.  f and g share one variable.  Since {F, H} = -{H, F},
    the t-bar derivative {., xi_0} is the flow of -xi_0.

    Expanded as a polynomial in the D's with functional coefficients, each
    D monomial by Leibniz: the sum over its subsequences S, T the rest, of
    (-1)**|T| (d_S f)(d_T g), d_S applying the flows in factor order; each
    d_S f and d_S g is one bracket from d of S's prefix, kept for the call,
    and when g is f the two are one.  Moving an M past the D's needs it
    conserved along every listed flow, and a mixed product also needs the
    M's to Poisson-commute, which no check shows yet; no TODA_EQUATIONS
    term is mixed.
    """
    Hs = list(dict.fromkeys(H for H, _ in factors))
    # D monomial (sorted positions in Hs) -> its coefficient, None for 1
    poly: dict[tuple[int, ...], AlphaSeries | None] = {(): None}
    for H, M in factors:
        if H.vars or (M is not None and M.vars):
            raise ValueError("H and M must be functionals")
        nxt: dict[tuple[int, ...], AlphaSeries | None] = {}
        for mono, c in poly.items():
            terms = [(tuple(sorted(mono + (Hs.index(H),))), c)]
            if M is not None:
                terms.append((mono, M if c is None else c * M))
            for key, t in terms:
                nxt[key] = nxt[key] + t if key in nxt else t
        poly = nxt
    table = {}  # (0 for f or 1 for g, S) -> d_S of it; g is f is side 0
    def d(k: int, S: tuple[int, ...]) -> AlphaSeries:
        k = 0 if g is f else k
        if (k, S) not in table:
            table[k, S] = bracket(Hs[S[-1]], d(k, S[:-1])) if S else (f, g)[k]
        return table[k, S]
    out = None
    for mono, c in poly.items():
        pairs = {}  # (S, T) -> summed sign; the first mask is all S, sign +1
        for mask in product((1, 0), repeat=len(mono)):
            S, T = (tuple(o for o, b in zip(mono, mask) if b == x) for x in (1, 0))
            pairs[S, T] = pairs.get((S, T), 0) + (-1) ** len(T)
        acc = None
        for (S, T), n in pairs.items():
            P = (d(0, S) * d(1, T)).scale(abs(n))
            acc = P if acc is None else acc._plus(P, n < 0)
        term = acc if c is None else c * acc
        out = term if out is None else out + term
    return out


# #### kernel application ######################################################


def apply_ratio_kernel(F: AlphaSeries, terms: dict[int, Scalar]) -> AlphaSeries:
    """Multiply a (z, w) series F by a Laurent kernel sum_l k_l (w/z)**l: the
    cell at slot (a, b) moves to (a - l, b + l).

    Completeness of the result's certified cells requires F to be a product
    of one-variable builds, whose balance pins the contributing l to |l| <=
    budget; callers own that precondition, and the kernel terms must extend
    at least that far.
    """
    # target-major: each target slot sums k * cell (times the unit row) into
    # one window cell
    unit = _poly_rows(AlphaPoly.one())
    by_tgt: dict[tuple[int, ...], list] = {}
    for (a, b), poly in F.coeffs.items():
        rows = _poly_rows(poly)
        for l, k in terms.items():
            if k:
                by_tgt.setdefault((a - l, b + l), []).append((k, rows, unit))
    out = {t: p for t, ts in by_tgt.items() if (p := _window_cell(F.ctx, t, ts))}
    return AlphaSeries(F.ctx, F.vars, out, F.guar.kern_derate())


# #### field builders ##########################################################


def _linear_form(ctx: ModeContext, coeffs, side: str) -> AlphaSeries:
    """sum_k c_k alpha_-k z**k on side "+", or sum_k c_k alpha_k z**-k on
    side "-", for coeffs c_1, c_2, ... and the k with 2k <= n_modes: the
    cell at slot +-k holds weight k, so those are the cells the window rule
    keeps."""
    if side not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    d = 1 if side == "+" else -1
    N = ctx.trunc.n_modes
    cells = {}
    for k, c in zip(range(1, N // 2 + 1), coeffs):
        if c:
            c = Fraction(c)
            cells[(d * k,)] = AlphaPoly({unit(-d * k): c.numerator}, c.denominator)
    return AlphaSeries(ctx, ("z",), cells, Guarantee(N, N, ctx.trunc.d_deg))


def _exp_field(ctx: ModeContext, c: Scalar, coeffs) -> AlphaSeries:
    """c * exp(sum_{n != 0} c_|n| alpha_n z**-n): the product of one
    exponential per side, which is the exponential of the sum since the
    summands commute."""
    coeffs = tuple(islice(coeffs, ctx.trunc.n_modes // 2))
    plus, minus = (_linear_form(ctx, coeffs, side).exp() for side in ("+", "-"))
    return (plus * minus).scale(c)


def tau_log(ctx: ModeContext, sign: str) -> AlphaSeries:
    """log tau_+ / log tau_- in z, one-sided linear forms:

    log tau_+ = -sum_{n>0} alpha_{-n} z**n  / (1 - q**n)
    log tau_- = -sum_{n>0} alpha_{n}  z**-n / (1 - q**n)
    """
    return _linear_form(ctx, (-1 / ctx.one_minus_q(n) for n in count(1)), sign)


@lru_cache(maxsize=None)
def build_tau(ctx: ModeContext, sign: str) -> AlphaSeries:
    """Dressing series tau_+ / tau_- in z: the exponential of tau_log."""
    return tau_log(ctx, sign).exp()


def build_phi(ctx: ModeContext, sign: str) -> AlphaSeries:
    """Log-potentials: phi_+ = sum_{n>0} alpha_{-n} z**n, phi_- = -sum alpha_n z**-n."""
    return _linear_form(ctx, repeat(ONE if sign == "+" else -ONE), sign)


@lru_cache(maxsize=None)
def build_eta(ctx: ModeContext) -> AlphaSeries:
    """Exponential field eps * exp(sum_{n != 0} alpha_n z**-n)."""
    return _exp_field(ctx, ctx.eps, repeat(ONE))


@lru_cache(maxsize=None)
def build_xi(ctx: ModeContext) -> AlphaSeries:
    """Dual exponential field: (1/eps) * exp(-sum_{n != 0} alpha_n s**-|n| z**-n)."""
    coeffs = (-1 / ctx.s**n for n in count(1))
    return _exp_field(ctx, 1 / ctx.eps, coeffs)


@lru_cache(maxsize=None)
def eta_zero(ctx: ModeContext) -> AlphaSeries:
    """Zero mode of the exponential field, as a flow Hamiltonian."""
    return build_eta(ctx).constant_term()


@lru_cache(maxsize=None)
def xi_zero(ctx: ModeContext) -> AlphaSeries:
    """Zero mode of the dual field, generating the second flow direction."""
    return build_xi(ctx).constant_term()
