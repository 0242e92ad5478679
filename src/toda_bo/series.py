"""Windowed Laurent series with exact rational coefficients.

A series stores coefficients only inside a finite window [lo, hi]; degrees
outside the window are *unknown*, not zero, unless the corresponding tight
flag says the exact object has no support there.  Every operation computes
the largest window on which its result is provably exact given the input
windows, so "exact within window" is an invariant, never a hope.

Division runs on Python ints.  series_inv inverts a one-sided t with unit
constant term: with L the lcm of t's denominators and T_j = t_j L, the
recurrence C_0 = 1, C_k = -sum_j T_j L**(j-1) C_{k-j} is integral and
[w**k] 1/t = C_k / L**k: it is the Fraction recurrence
c_k = -sum_j t_j c_{k-j} multiplied through by L**k.  series_div(h, t)
multiplies by h: with H the lcm of h's denominators, each degree e of h / t
is one integer numerator over H L**top, top the largest inverse index its
sum reaches (e - min h, unless the order cuts it), and becomes a Fraction
once: one gcd per output degree instead of one per product and partial sum.
Integer arithmetic is exact and lowest terms are unique, so the coefficients
are the same rationals the term-by-term product gives.
"""

from __future__ import annotations

import math

from .scalar import ONE, ZERO, Scalar

_INF = float("inf")


class LaurentSeries:
    __slots__ = ("var", "lo", "hi", "coeffs", "tight_lo", "tight_hi")

    def __init__(self, var, lo, hi, coeffs, tight_lo=False, tight_hi=False):
        if lo > hi:
            raise ValueError("empty window")
        bad = [d for d in coeffs if d < lo or d > hi]
        if bad:
            raise ValueError(f"coefficient outside window: {bad[0]}")
        self.var = var
        self.lo = lo
        self.hi = hi
        self.coeffs = {d: c for d, c in coeffs.items() if c}
        self.tight_lo = tight_lo
        self.tight_hi = tight_hi

    # -- construction helpers ------------------------------------------------

    @classmethod
    def poly(cls, var, coeffs):
        """Exact Laurent polynomial: support fully known, both sides tight."""
        nz = {d: c for d, c in coeffs.items() if c}
        if nz:
            lo, hi = min(nz), max(nz)
        else:
            lo = hi = 0
        return cls(var, lo, hi, nz, tight_lo=True, tight_hi=True)

    def copy_with(self, coeffs):
        return LaurentSeries(
            self.var, self.lo, self.hi, coeffs, self.tight_lo, self.tight_hi
        )

    # -- inspection ----------------------------------------------------------

    def coeff(self, d):
        """Coefficient at degree d; degrees outside the known range raise."""
        if self.lo <= d <= self.hi:
            return self.coeffs.get(d, ZERO)
        if d < self.lo and self.tight_lo:
            return ZERO
        if d > self.hi and self.tight_hi:
            return ZERO
        raise IndexError(f"degree {d} outside guaranteed window [{self.lo},{self.hi}]")

    def _pot_lo(self):
        """Lowest degree at which the exact object may have support."""
        if not self.tight_lo:
            return -_INF
        if self.coeffs:
            return min(self.coeffs)
        return self.hi + 1 if not self.tight_hi else _INF

    def _pot_hi(self):
        if not self.tight_hi:
            return _INF
        if self.coeffs:
            return max(self.coeffs)
        return self.lo - 1 if not self.tight_lo else -_INF

    def __repr__(self):
        flags = ("[" if self.tight_lo else "(") + (")" if not self.tight_hi else "]")
        return f"<series {self.var} {self.lo}..{self.hi} {flags} {len(self.coeffs)} terms>"

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (
            self.var == other.var
            and self.lo == other.lo
            and self.hi == other.hi
            and self.tight_lo == other.tight_lo
            and self.tight_hi == other.tight_hi
            and self.coeffs == other.coeffs
        )

    # -- ring operations -----------------------------------------------------

    def __neg__(self):
        return self.copy_with({d: -c for d, c in self.coeffs.items()})

    def scale(self, c):
        return self.copy_with({d: v * c for d, v in self.coeffs.items()})

    def __add__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        f, g = self, other
        if f.var != g.var:
            raise ValueError("variable mismatch")
        klo = max(
            f.lo if not f.tight_lo else -_INF,
            g.lo if not g.tight_lo else -_INF,
        )
        khi = min(
            f.hi if not f.tight_hi else _INF,
            g.hi if not g.tight_hi else _INF,
        )
        rlo = int(max(klo, min(f.lo, g.lo)))
        rhi = int(min(khi, max(f.hi, g.hi)))
        if rlo > rhi:
            raise ValueError("window collapse in add")
        # every degree of [rlo, rhi] is stored or provably zero on both
        # sides, so the stored coefficients inside it are the whole sum
        out = {d: c for d, c in f.coeffs.items() if rlo <= d <= rhi}
        for d, c in g.coeffs.items():
            if rlo <= d <= rhi:
                v = out.get(d)
                out[d] = c if v is None else v + c
        return LaurentSeries(
            f.var, rlo, rhi, out,
            tight_lo=f.tight_lo and g.tight_lo,
            tight_hi=f.tight_hi and g.tight_hi,
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return series_mul(self, other)

    def shift_arg(self, c: Scalar):
        """Substitute var -> c * var: coefficient at degree d picks up c**d."""
        return self.copy_with({d: v * c**d for d, v in self.coeffs.items()})


def _product_window(f: LaurentSeries, g: LaurentSeries):
    """(lo, hi, tight_lo, tight_hi) of f * g, or None when a factor is the
    exact zero function.

    Degree k survives only if every split k = d1 + d2 with d1 in f's
    potential support and d2 in g's potential support uses stored (or
    provably absent) coefficients on both sides.
    """
    plo_f, phi_f = f._pot_lo(), f._pot_hi()
    plo_g, phi_g = g._pot_lo(), g._pot_hi()
    if plo_f > phi_f or plo_g > phi_g:
        return None
    khi = min(
        _INF if f.tight_hi else f.hi + plo_g,
        _INF if g.tight_hi else g.hi + plo_f,
    )
    klo = max(
        -_INF if f.tight_lo else f.lo + phi_g,
        -_INF if g.tight_lo else g.lo + phi_f,
    )
    new_plo = plo_f + plo_g
    new_phi = phi_f + phi_g
    rlo = max(klo, new_plo)
    rhi = min(khi, new_phi)
    if rlo > rhi or rlo == -_INF or rhi == _INF:
        raise ValueError("window collapse in mul")
    return int(rlo), int(rhi), klo <= new_plo, khi >= new_phi


def series_mul(f: LaurentSeries, g: LaurentSeries) -> LaurentSeries:
    """Product, keeping exactly the provably complete degrees."""
    if f.var != g.var:
        raise ValueError("variable mismatch")
    window = _product_window(f, g)
    if window is None:
        return LaurentSeries(f.var, 0, 0, {}, tight_lo=True, tight_hi=True)
    rlo, rhi, tight_lo, tight_hi = window
    out = {}
    for d1, c1 in f.coeffs.items():
        for d2, c2 in g.coeffs.items():
            d = d1 + d2
            if rlo <= d <= rhi:
                v = out.get(d)
                out[d] = c1 * c2 if v is None else v + c1 * c2
    return LaurentSeries(f.var, rlo, rhi, out, tight_lo=tight_lo, tight_hi=tight_hi)


def series_inv(t: LaurentSeries, order: int):
    """Inverse of a one-sided t with unit constant term, to `order`, on
    Python ints: (d, C, P) with [var**(d k)] 1/t = C[k] / P[k], P[k] = L**k.

    d is +1 for a power series in var and -1 for one in 1/var.  The inverse
    is exact to t's one-sided order, or to any order when t is an exact
    polynomial.
    """
    if t.coeff(0) != ONE:
        raise ValueError("constant term must be one (normalize first)")
    if t.tight_lo and t._pot_lo() >= 0:
        d = 1
    elif t.tight_hi and t._pot_hi() <= 0:
        d = -1
    else:
        raise ValueError("series_inv needs one-sided support touching degree 0")
    natural = t.hi if d > 0 else -t.lo
    if order > natural and not (t.tight_hi if d > 0 else t.tight_lo):
        raise ValueError(f"series_inv: order {order} exceeds known data ({natural})")
    # C[0] = 1 and C[k] = -sum_j T_j L**(j-1) C[k-j], where T_j = t_j L
    tj = [(j, t.coeffs[d * j]) for j in range(1, order + 1) if d * j in t.coeffs]
    L = math.lcm(*(c.denominator for _, c in tj))
    lpow = [1]
    for _ in range(order):
        lpow.append(lpow[-1] * L)
    steps = [(j, c.numerator * (L // c.denominator) * lpow[j - 1]) for j, c in tj]
    inv = [1]
    for k in range(1, order + 1):
        inv.append(-sum(p * inv[k - j] for j, p in steps if j <= k))
    return d, inv, lpow


def series_div(h: LaurentSeries, t: LaurentSeries, order: int) -> LaurentSeries:
    """h / t for a one-sided t with unit constant term, 1/t taken to `order`.

    The result is h times series_inv(t, order), which is open on its far
    side, inverses being generically infinite; window and tight flags are
    those of that product.  The product runs on Python ints (see the module
    docstring), so each output degree costs one Fraction.
    """
    d, inv, lpow = series_inv(t, order)
    if h.var != t.var:
        raise ValueError("variable mismatch")
    # 1/t has the window, tight flags and potential support of this stand-in
    lo, hi = (0, order) if d > 0 else (-order, 0)
    inverse = LaurentSeries(t.var, lo, hi, {0: ONE}, tight_lo=d > 0, tight_hi=d < 0)
    window = _product_window(h, inverse)
    if window is None:
        return LaurentSeries(h.var, 0, 0, {}, tight_lo=True, tight_hi=True)
    rlo, rhi, tight_lo, tight_hi = window

    # [var**e] h/t = sum over d1 of h_{d1} [var**(e-d1)] 1/t, on the common
    # denominator H L**top, top the largest inverse index the sum reaches
    H = math.lcm(*(c.denominator for c in h.coeffs.values()))
    hn = [(d1, c.numerator * (H // c.denominator)) for d1, c in h.coeffs.items()]
    out = {}
    for e in range(rlo, rhi + 1):
        terms = [(n, d * (e - d1)) for d1, n in hn if 0 <= d * (e - d1) <= order]
        if not terms:
            continue
        top = max(k for _, k in terms)
        num = sum(n * inv[k] * lpow[top - k] for n, k in terms)
        if num:
            out[e] = Scalar(num, H * lpow[top])
    return LaurentSeries(h.var, rlo, rhi, out, tight_lo=tight_lo, tight_hi=tight_hi)
