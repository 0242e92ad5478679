"""Windowed Laurent series with exact rational coefficients.

A series stores coefficients only inside a finite window [lo, hi]; degrees
outside the window are *unknown*, not zero, unless the corresponding tight
flag says the exact object has no support there.  Every operation computes
the largest window on which its result is provably exact given the input
windows, so "exact within window" is an invariant, never a hope.
"""

from __future__ import annotations

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
        out = {}
        for d in range(rlo, rhi + 1):
            v = f.coeff(d) + g.coeff(d)
            if v:
                out[d] = v
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


def series_mul(f: LaurentSeries, g: LaurentSeries) -> LaurentSeries:
    """Product, keeping exactly the provably complete degrees.

    Degree k survives only if every split k = d1 + d2 with d1 in f's
    potential support and d2 in g's potential support uses stored (or
    provably absent) coefficients on both sides.
    """
    if f.var != g.var:
        raise ValueError("variable mismatch")
    plo_f, phi_f = f._pot_lo(), f._pot_hi()
    plo_g, phi_g = g._pot_lo(), g._pot_hi()
    if plo_f > phi_f or plo_g > phi_g:
        # one factor is the exact zero function
        return LaurentSeries(f.var, 0, 0, {}, tight_lo=True, tight_hi=True)

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
    rlo, rhi = int(rlo), int(rhi)
    out = {}
    for d1, c1 in f.coeffs.items():
        for d2, c2 in g.coeffs.items():
            d = d1 + d2
            if rlo <= d <= rhi:
                v = out.get(d)
                out[d] = c1 * c2 if v is None else v + c1 * c2
    return LaurentSeries(
        f.var, rlo, rhi, out,
        tight_lo=klo <= new_plo,
        tight_hi=khi >= new_phi,
    )


def series_inv(f: LaurentSeries, order: int | None = None) -> LaurentSeries:
    """Inverse of a one-sided series with unit constant term.

    Exact to the input's one-sided order (or to a larger requested order when
    the input is an exact polynomial); the far side of the result window is
    open, inverses being generically infinite.
    """
    if f.coeff(0) != ONE:
        raise ValueError("constant term must be one (normalize first)")
    # d = +1 for a power series in var, -1 for one in 1/var
    if f.tight_lo and f._pot_lo() >= 0:
        d = 1
    elif f.tight_hi and f._pot_hi() <= 0:
        d = -1
    else:
        raise ValueError("series_inv needs one-sided support touching degree 0")
    natural = f.hi if d > 0 else -f.lo
    if order is None:
        order = natural
    elif order > natural and not (f.tight_hi if d > 0 else f.tight_lo):
        raise ValueError(f"series_inv: order {order} exceeds known data ({natural})")
    out = {0: ONE}
    for k in range(1, order + 1):
        acc = None
        for j in range(1, k + 1):
            c = f.coeffs.get(d * j)
            if c is None or (d * (k - j)) not in out:
                continue
            t = c * out[d * (k - j)]
            acc = t if acc is None else acc + t
        if acc:
            out[d * k] = -acc
    lo, hi = (0, order) if d > 0 else (-order, 0)
    return LaurentSeries(
        f.var, lo, hi, out,
        tight_lo=d > 0, tight_hi=d < 0,
    )

